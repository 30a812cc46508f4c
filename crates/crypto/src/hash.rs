//! A small, dependency-free, deterministic hash with arbitrary-length
//! output, used by the simulated signature scheme.
//!
//! Construction: absorb the input into a 4×64-bit state with splitmix64-style
//! mixing, then squeeze output blocks in counter mode. This is a
//! *simulation-grade* hash — deterministic across platforms and resistant to
//! accidental collisions, but **not** cryptographically secure (see crate
//! docs for why that is the right trade-off here).
//!
//! Two facts about the absorb step shape everything built on it. An
//! [`Hasher::update`] call splits its bytes into eight-byte words and a
//! shorter tail, each tagged with its length, so *where the calls were cut*
//! is part of what is hashed: `Stream` exists to feed one logical input in
//! pieces and still absorb the words of a single call. And one word's step
//! reads the hasher's own four lanes and the word, nothing else — so several
//! hashers over prefixes of one buffer (a beacon's signature chain) depend on
//! nothing of each other and can absorb each word side by side, which is what
//! `sim::verify_prefixes` does with `Hasher::absorb`.

/// splitmix64 finalizer: a well-studied 64-bit bijective mixer.
#[inline]
const fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Initial lane values.
const IV: [u64; 4] = [
    0x6a09_e667_f3bc_c908,
    0xbb67_ae85_84ca_a73b,
    0x3c6e_f372_fe94_f82b,
    0xa54f_f53a_5f1d_36f1,
];

/// Tweak of the squeeze counter.
const SQUEEZE: u64 = 0x5bf0_3635;

/// Output blocks whose counter is precomputed: the twelve of a 96-byte
/// signature, the longest output anything here squeezes.
const SQUEEZE_BLOCKS: usize = 12;

/// `mix(i ^ SQUEEZE)` for the first [`SQUEEZE_BLOCKS`] blocks.
const SQUEEZE_COUNTERS: [u64; SQUEEZE_BLOCKS] = {
    let mut counters = [0u64; SQUEEZE_BLOCKS];
    let mut i = 0;
    while i < SQUEEZE_BLOCKS {
        counters[i] = mix(i as u64 ^ SQUEEZE);
        i += 1;
    }
    counters
};

/// Hash state: 256 bits.
#[derive(Clone, Copy, Debug)]
pub struct Hasher {
    state: [u64; 4],
    len: u64,
}

impl Default for Hasher {
    fn default() -> Self {
        Hasher::new()
    }
}

impl Hasher {
    /// A fresh hasher with fixed initialization vector.
    pub fn new() -> Hasher {
        Hasher { state: IV, len: 0 }
    }

    /// Absorbs bytes.
    pub fn update(&mut self, data: &[u8]) {
        for chunk in data.chunks(8) {
            self.absorb(le_word(chunk), chunk.len() as u64);
        }
    }

    /// One step of [`Hasher::update`]: absorbs the low `n_bytes` bytes of
    /// `word`, little-endian. `n_bytes` is 1 to 8 and the bytes of `word`
    /// above it are zero, as [`le_word`] leaves them.
    #[inline(always)]
    pub(crate) fn absorb(&mut self, word: u64, n_bytes: u64) {
        debug_assert!((1..=8).contains(&n_bytes));
        debug_assert!(n_bytes == 8 || word >> (8 * n_bytes) == 0);
        let w = word ^ n_bytes << 56;
        // Feed the word through all four lanes with distinct tweaks so
        // lane states diverge.
        self.state[0] = mix(self.state[0] ^ w);
        self.state[1] = mix(self.state[1].wrapping_add(w).rotate_left(17));
        self.state[2] = mix(self.state[2] ^ w.rotate_left(31));
        self.state[3] = mix(self.state[3].wrapping_add(w ^ 0xdead_beef_cafe_f00d));
        self.len += n_bytes;
    }

    /// Convenience: absorb a `u64` in little-endian.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Squeezes `out.len()` bytes of output. Consumes the hasher so a
    /// finalized state cannot be extended (length-extension hygiene).
    pub fn finalize_into(mut self, out: &mut [u8]) {
        // Fold in the total length, then counter-mode squeeze.
        self.state[0] = mix(self.state[0] ^ self.len);
        for (i, block) in out.chunks_mut(8).enumerate() {
            let lane = i % 4;
            let counter = match SQUEEZE_COUNTERS.get(i) {
                Some(&counter) => counter,
                None => mix(i as u64 ^ SQUEEZE),
            };
            let v = mix(self.state[lane] ^ counter);
            block.copy_from_slice(&v.to_le_bytes()[..block.len()]);
        }
    }

    /// Squeezes a fixed 32-byte digest.
    pub fn finalize32(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        self.finalize_into(&mut out);
        out
    }
}

/// The little-endian word of `bytes` (at most eight), zero above them: what
/// [`Hasher::update`] makes of one chunk.
#[inline(always)]
pub(crate) fn le_word(bytes: &[u8]) -> u64 {
    match <[u8; 8]>::try_from(bytes) {
        Ok(word) => u64::from_le_bytes(word),
        Err(_) => bytes
            .iter()
            .rev()
            .fold(0, |word, &b| word << 8 | u64::from(b)),
    }
}

/// A [`Hasher`] fed one input in pieces. `update` cuts each call into words
/// from its own first byte, so two calls of 5 bytes do not hash as one of
/// 10. A `Stream` holds back the bytes that do not yet fill a word — fewer
/// than eight, in `carry` — and absorbs them with the next piece, so the
/// words the hasher sees are cut at multiples of eight from the *stream's*
/// first byte and the only short word is the last one: exactly the words of
/// one `update` over the pieces concatenated, however they were cut.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Stream {
    hasher: Hasher,
    /// The held-back bytes, little-endian from bit 0, zero above them.
    carry: u64,
    /// How many bytes `carry` holds: 0 to 7.
    held: u32,
}

impl Stream {
    /// Continues `hasher`: the pieces pushed from here on hash as one
    /// `hasher.update` of all of them.
    pub(crate) fn resume(hasher: Hasher) -> Stream {
        Stream {
            hasher,
            carry: 0,
            held: 0,
        }
    }

    /// Appends `piece` to the input.
    pub(crate) fn push(&mut self, mut piece: &[u8]) {
        if self.held > 0 {
            let take = piece.len().min(8 - self.held as usize);
            self.carry |= le_word(&piece[..take]) << (8 * self.held);
            self.held += take as u32;
            piece = &piece[take..];
            if self.held < 8 {
                return;
            }
            self.hasher.absorb(self.carry, 8);
        }
        let mut words = piece.chunks_exact(8);
        for word in &mut words {
            self.hasher.absorb(le_word(word), 8);
        }
        let tail = words.remainder();
        self.carry = le_word(tail);
        self.held = tail.len() as u32;
    }

    /// The hasher after one `update` of everything pushed.
    pub(crate) fn finish(mut self) -> Hasher {
        if self.held > 0 {
            self.hasher.absorb(self.carry, u64::from(self.held));
        }
        self.hasher
    }
}

/// Lane 0 of a [`Hasher`] and its byte count: all that an output of at most
/// eight bytes depends on. [`Hasher::update`] sets `state[0]` from `state[0]`
/// and the word alone, never from another lane, and
/// [`Hasher::finalize_into`] takes output block 0 from `state[0]` and `len`
/// alone — so a caller that keeps eight bytes or fewer gets the same bytes
/// from one dependent `mix` per word instead of four lanes of them. `Copy`
/// and `const` throughout: a fixed prefix is absorbed at compile time and
/// resumed from per call.
#[derive(Clone, Copy, Debug)]
pub struct Lane0 {
    lane: u64,
    len: u64,
}

impl Default for Lane0 {
    fn default() -> Self {
        Lane0::new()
    }
}

impl Lane0 {
    /// Lane 0 of [`Hasher::new`].
    pub const fn new() -> Lane0 {
        Lane0 {
            lane: IV[0],
            len: 0,
        }
    }

    /// Lane 0 after [`Hasher::update`]`(data)`: the same split into
    /// little-endian words of eight bytes and a shorter tail.
    pub const fn update(mut self, data: &[u8]) -> Lane0 {
        let mut at = 0;
        while at < data.len() {
            let n = if data.len() - at < 8 {
                data.len() - at
            } else {
                8
            };
            let mut word = 0u64;
            let mut i = 0;
            while i < n {
                word |= (data[at + i] as u64) << (8 * i);
                i += 1;
            }
            self = self.absorb(word, n as u64);
            at += n;
        }
        self
    }

    /// Lane 0 after [`Hasher::update`] of the low `n_bytes` bytes of `word`,
    /// little-endian. `n_bytes` is 1 to 8 and the bytes of `word` above it
    /// are zero, as the zero-padded copy in `update` leaves them.
    #[inline]
    pub const fn absorb(self, word: u64, n_bytes: u64) -> Lane0 {
        debug_assert!(n_bytes >= 1 && n_bytes <= 8);
        debug_assert!(n_bytes == 8 || word >> (8 * n_bytes) == 0);
        Lane0 {
            lane: mix(self.lane ^ word ^ (n_bytes << 56)),
            len: self.len + n_bytes,
        }
    }

    /// Output block 0: its first `n` bytes are what
    /// [`Hasher::finalize_into`] writes into an `n`-byte buffer, `n` ≤ 8.
    #[inline]
    pub const fn first_block(self) -> [u8; 8] {
        mix(mix(self.lane ^ self.len) ^ mix(SQUEEZE)).to_le_bytes()
    }
}

/// One-shot hash of `data` into a 32-byte digest.
pub fn hash32(data: &[u8]) -> [u8; 32] {
    let mut h = Hasher::new();
    h.update(data);
    h.finalize32()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn deterministic() {
        assert_eq!(hash32(b"hello"), hash32(b"hello"));
    }

    #[test]
    fn sensitive_to_single_bit() {
        assert_ne!(hash32(b"hello"), hash32(b"hellp"));
        assert_ne!(hash32(b""), hash32(b"\0"));
    }

    #[test]
    fn length_is_absorbed() {
        // Same words, different split points must differ from a plain
        // prefix (guards against trivial padding collisions).
        assert_ne!(hash32(b"ab"), hash32(b"ab\0\0\0\0\0\0"));
    }

    #[test]
    fn variable_length_output() {
        let mut small = [0u8; 16];
        let mut big = [0u8; 96];
        let mut h = Hasher::new();
        h.update(b"x");
        h.finalize_into(&mut small);
        let mut h = Hasher::new();
        h.update(b"x");
        h.finalize_into(&mut big);
        // Prefix property: first 16 bytes agree (same squeeze schedule).
        assert_eq!(&big[..16], &small[..]);
        // And output is not degenerate.
        assert!(big.iter().any(|&b| b != 0));
    }

    proptest! {
        #[test]
        fn prop_no_accidental_collisions(a in proptest::collection::vec(any::<u8>(), 0..64),
                                         b in proptest::collection::vec(any::<u8>(), 0..64)) {
            prop_assume!(a != b);
            prop_assert_ne!(hash32(&a), hash32(&b));
        }

        #[test]
        fn prop_u64_update_matches_bytes(v in any::<u64>()) {
            let mut h1 = Hasher::new();
            h1.update_u64(v);
            let mut h2 = Hasher::new();
            h2.update(&v.to_le_bytes());
            prop_assert_eq!(h1.finalize32(), h2.finalize32());
        }

        /// However an input is cut into pieces of 0–40 bytes, a `Stream`
        /// resumed from any state ends where one `update` of the whole
        /// input ends — and two `update`s of the halves do not, which is
        /// why the carry is there.
        #[test]
        fn prop_stream_in_any_split_is_one_update(
            before in proptest::collection::vec(any::<u8>(), 0..20),
            pieces in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..=40), 0..8),
        ) {
            let mut resumed = Hasher::new();
            resumed.update(&before);
            let whole: Vec<u8> = pieces.concat();
            let mut oneshot = resumed;
            oneshot.update(&whole);
            let mut stream = Stream::resume(resumed);
            for piece in &pieces {
                stream.push(piece);
            }
            let mut long = [0u8; 104];
            let mut want = [0u8; 104];
            stream.finish().finalize_into(&mut long);
            oneshot.finalize_into(&mut want);
            prop_assert_eq!(long, want);

            let cut = whole.len() / 2;
            if !cut.is_multiple_of(8) {
                let mut twice = resumed;
                twice.update(&whole[..cut]);
                twice.update(&whole[cut..]);
                prop_assert_ne!(twice.finalize32(), oneshot.finalize32());
            }
        }

        /// The precomputed squeeze counters are the computed ones, and
        /// outputs longer than the table continue the same schedule.
        #[test]
        fn prop_squeeze_table_matches_the_counter(
            data in proptest::collection::vec(any::<u8>(), 0..40),
            len in 0usize..=136,
        ) {
            let mut h = Hasher::new();
            h.update(&data);
            let mut out = vec![0u8; len];
            h.finalize_into(&mut out);
            // `finalize_into` as it was before the table.
            let mut state = h.state;
            state[0] = mix(state[0] ^ h.len);
            for (i, block) in out.chunks(8).enumerate() {
                let v = mix(state[i % 4] ^ mix(i as u64 ^ SQUEEZE));
                prop_assert_eq!(block, &v.to_le_bytes()[..block.len()]);
            }
        }

        /// Pieces of 1–20 bytes: whole words, multi-word pieces and short
        /// tails, in any sequence.
        #[test]
        fn prop_lane0_is_the_first_block_of_the_hasher(
            pieces in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 1..=20), 0..8),
        ) {
            let mut h = Hasher::new();
            let mut lane = Lane0::new();
            for piece in &pieces {
                h.update(piece);
                lane = lane.update(piece);
            }
            let block = lane.first_block();
            for n in 0..=8 {
                let mut out = [0u8; 8];
                h.finalize_into(&mut out[..n]);
                prop_assert_eq!(&out[..n], &block[..n]);
            }
            prop_assert_eq!(h.finalize32()[..8], block);
        }
    }
}
