//! A fixed, unseeded hasher for maps whose keys the simulation makes itself.
//!
//! std's `RandomState` is SipHash with a per-map random seed: it resists
//! keys crafted to collide, and costs tens of nanoseconds per key. The
//! beaconing loop hashes link ids, Sent-PCBs-List path keys, stored-beacon
//! pointers and trust-store ASes per beacon and per candidate, and none of
//! those keys comes from outside the program. [`FastHasher`] mixes each word
//! with one multiply-add and folds the high bits down in [`Hasher::finish`]
//! (the `FxHasher` of rustc-hash 2.x). Maps keyed by input files keep std's
//! hasher, except the topology's address index: every world build fills it
//! and re-addresses through it, and within one ISD no two AS numbers share
//! a full hash.
//!
//! Nothing may depend on a map's iteration order: it differs between this
//! hasher and std's, and std's differs between processes.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// An odd multiplier with well-spread bits (rustc-hash 2.x's `K`).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Multiply-add word hasher; see the module docs.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The product's low bits depend only on the words' low bits, so keys
    /// that share them (aligned pointers) would share buckets; the rotation
    /// brings the well-mixed high bits down to where the table indexes.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// SplitMix64's finalizer: a stateless bijective mixer of one word, for
/// draws a seed and a counter decide (retransmission jitter, arrival
/// schedules) without carrying a generator.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The `BuildHasher` of [`FastMap`] and [`FastSet`]: every map hashes alike.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;
/// A `HashMap` on [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, FastBuildHasher>;
/// A `HashSet` on [`FastHasher`].
pub type FastSet<T> = HashSet<T, FastBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::hash::BuildHasher;

    #[test]
    fn splitmix64_is_the_reference_mixer() {
        // The first outputs of SplitMix64 seeded with 0, which advances its
        // state by the golden-ratio increment before each mix.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(0x9E37_79B9_7F4A_7C15), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn two_maps_hash_a_key_alike() {
        let (a, b): (FastMap<u64, ()>, FastMap<u64, ()>) = Default::default();
        for key in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_eq!(a.hasher().hash_one(key), b.hasher().hash_one(key));
            assert_eq!(
                a.hasher().hash_one(key),
                FastBuildHasher::default().hash_one(key)
            );
        }
    }

    #[test]
    fn aligned_pointers_spread_over_the_low_bits() {
        let low_bits = |h: u64| h & 0x3ff;
        let addrs = (0..1024u64).map(|i| 0x7f3a_5c00_0000 + 16 * i);
        let spread: FastSet<u64> = addrs
            .clone()
            .map(|a| low_bits(FastBuildHasher::default().hash_one(a as usize)))
            .collect();
        assert!(
            spread.len() >= 256,
            "{} distinct low-10-bit values",
            spread.len()
        );
        // Without the fold, a 16-byte stride leaves 64 values at most.
        let unfolded: FastSet<u64> = addrs.map(|a| low_bits(a.wrapping_mul(K))).collect();
        assert!(unfolded.len() <= 64);
    }

    proptest! {
        #[test]
        fn prop_fast_map_is_a_map(ops in proptest::collection::vec((0u8..3, 0u16..64, any::<u32>()), 0..200)) {
            let mut fast: FastMap<u16, u32> = FastMap::default();
            let mut std_map: HashMap<u16, u32> = HashMap::new();
            for (op, key, value) in ops {
                match op {
                    0 => prop_assert_eq!(fast.insert(key, value), std_map.insert(key, value)),
                    1 => prop_assert_eq!(fast.remove(&key), std_map.remove(&key)),
                    _ => prop_assert_eq!(fast.get(&key), std_map.get(&key)),
                }
                prop_assert_eq!(fast.len(), std_map.len());
            }
            let mut a: Vec<_> = fast.into_iter().collect();
            let mut b: Vec<_> = std_map.into_iter().collect();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }
    }
}
