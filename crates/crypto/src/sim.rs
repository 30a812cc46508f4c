//! Simulation-grade signature scheme with ECDSA-P-384 wire sizes.
//!
//! **NOT SECURE.** A signature here is `expand(H(pub ‖ domain ‖ msg))`:
//! anyone holding the public key could forge one. That is acceptable — and
//! documented — because the reproduction evaluates scalability of honest
//! protocol machinery, not adversarial robustness (the paper's evaluation
//! does the same: it counts bytes, it does not attack the PKI). What the
//! scheme does guarantee:
//!
//! * verification succeeds exactly for the `(key, payload)` pair that signed,
//! * any payload or key mutation makes verification fail,
//! * signatures and keys have the exact P-384 sizes used in the overhead
//!   model.
//!
//! A signature is a hash of `prefix(key, domain) ‖ payload` run to its end,
//! and that is all the two shortcuts here use. A payload may arrive in
//! pieces ([`Signing`]): the pieces go through `hash::Stream`, whose
//! carry cuts them into the words one `update(payload)` would have cut, so a
//! signer that has absorbed what many payloads start with can be copied and
//! finished once per ending. And signatures over *prefixes of one buffer*
//! under different keys (a beacon's chain: entry *i* signs the bytes up to
//! its own end) are hash chains that read the same words from byte 0 and
//! nothing of each other — each step reads its own `state` and the word — so
//! `verify_prefixes` advances them together, one load per word, instead of
//! one chain after another.

use serde::{Deserialize, Serialize};

use crate::hash::{le_word, Hasher, Stream};
use crate::sizes::{ECDSA_P384_PUBKEY_COMPRESSED, ECDSA_P384_SIGNATURE};

/// Domain-separation tag so signatures over different artifact kinds can
/// never be confused, even with identical payload bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SignDomain {
    /// PCB AS entry (beaconing).
    PcbAsEntry,
    /// AS certificate issued by a core AS.
    AsCertificate,
    /// Trust Root Configuration.
    Trc,
    /// BGPsec Secure_Path segment.
    BgpsecPath,
}

impl SignDomain {
    fn tag(self) -> u64 {
        match self {
            SignDomain::PcbAsEntry => 1,
            SignDomain::AsCertificate => 2,
            SignDomain::Trc => 3,
            SignDomain::BgpsecPath => 4,
        }
    }
}

/// A public key with the compressed P-384 point size.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PublicKey(pub [u8; ECDSA_P384_PUBKEY_COMPRESSED]);

impl std::fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PublicKey({:02x}{:02x}..)", self.0[0], self.0[1])
    }
}

/// A signature with the raw P-384 size.
#[derive(Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Signature(pub [u8; ECDSA_P384_SIGNATURE]);

impl std::fmt::Debug for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Signature({:02x}{:02x}..)", self.0[0], self.0[1])
    }
}

impl Signature {
    /// Wire size of a signature in bytes.
    pub const WIRE_SIZE: usize = ECDSA_P384_SIGNATURE;
}

/// A signer's hash state after the `"scion-sim-signature" ‖ public key ‖
/// domain` prefix every signature starts with: 40 bytes, `Copy`. Signing and
/// verifying resume from it, so a key held for many payloads absorbs its
/// 76-byte prefix once instead of once per payload.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Midstate(Hasher);

impl Midstate {
    /// Absorbs the prefix of signatures by `public` under `domain`.
    pub(crate) fn new(public: &PublicKey, domain: SignDomain) -> Midstate {
        let mut h = Hasher::new();
        h.update(b"scion-sim-signature");
        h.update(&public.0);
        h.update_u64(domain.tag());
        Midstate(h)
    }

    /// A signature whose payload is yet to come.
    pub(crate) fn begin(self) -> Signing {
        Signing(Stream::resume(self.0))
    }

    /// The signature over `payload`.
    pub(crate) fn sign(self, payload: &[u8]) -> Signature {
        let mut signing = self.begin();
        signing.absorb(payload);
        signing.finish()
    }

    /// Whether `sig` is the signature over `payload`.
    pub(crate) fn verify(self, payload: &[u8], sig: &Signature) -> bool {
        self.sign(payload) == *sig
    }
}

/// The signature a hash state squeezes to.
fn squeeze(hasher: Hasher) -> Signature {
    let mut sig = [0u8; ECDSA_P384_SIGNATURE];
    hasher.finalize_into(&mut sig);
    Signature(sig)
}

/// A signature in progress: a key and domain, and the payload absorbed so
/// far. The payload may come in any pieces — [`Signing::finish`] returns
/// what [`KeyPair::sign`] returns for their concatenation — and the state is
/// `Copy`, so what several payloads share is absorbed once and each ending
/// continues from a copy.
#[derive(Clone, Copy, Debug)]
pub struct Signing(Stream);

impl Signing {
    /// Appends `piece` to the payload.
    pub fn absorb(&mut self, piece: &[u8]) {
        self.0.push(piece);
    }

    /// The signature over everything absorbed.
    pub fn finish(self) -> Signature {
        squeeze(self.0.finish())
    }
}

/// How many signatures [`verify_prefixes`] checks side by side. Three
/// chains of four lanes are what stays in registers while a word is
/// absorbed.
pub(crate) const LOCKSTEP: usize = 3;

/// A claim that `sig` is the key's signature over the first `end` bytes of
/// a buffer.
#[derive(Clone, Copy)]
pub(crate) struct PrefixClaim<'a> {
    pub key: Midstate,
    pub end: usize,
    pub sig: &'a Signature,
}

/// Checks up to [`LOCKSTEP`] claims over prefixes of `buf` — the present
/// ones first, ends ascending and within `buf` — in one walk of the buffer:
/// every chain still running absorbs each word, a chain whose payload ends
/// inside a word absorbs its own tagged tail of it, squeezes and is compared
/// — all 96 bytes — before the walk goes on. Returns the position of the
/// first claim, in order, that does not hold.
pub(crate) fn verify_prefixes(
    buf: &[u8],
    claims: &[Option<PrefixClaim<'_>>; LOCKSTEP],
) -> Option<usize> {
    // The chains fill their array from the right — an absent one ends at
    // byte 0, so the loops it would run in are empty — which leaves every
    // bound below a constant: `chains[slot..]` unrolls, and the states stay
    // in registers while a word is absorbed. (Filled from the left and cut
    // at the number present, the same loops read 6 % slower end to end;
    // skipping absent slots with a branch, 1.5 %.)
    let absent = claims.iter().filter(|c| c.is_none()).count();
    let claim = |slot: usize| slot.checked_sub(absent).and_then(|i| claims[i].as_ref());
    let chain = |slot| claim(slot).map_or_else(Hasher::new, |c| c.key.0);
    let end = |slot| claim(slot).map_or(0, |c| c.end);
    // What the chain ending at `end` still absorbs once the whole words
    // before it are in, and whether it then squeezes to its signature.
    let holds = |mut chain: Hasher, slot: usize| {
        let Some(claim) = claim(slot) else {
            return true;
        };
        let tail = &buf[claim.end & !7..claim.end];
        if !tail.is_empty() {
            chain.absorb(le_word(tail), tail.len() as u64);
        }
        squeeze(chain) == *claim.sig
    };
    let words = |from: usize, to: usize| buf[from & !7..to & !7].chunks_exact(8).map(le_word);
    let mut chains: [Hasher; LOCKSTEP] = std::array::from_fn(chain);
    let mut from = 0;
    for slot in 0..LOCKSTEP {
        for w in words(from, end(slot)) {
            for live in &mut chains[slot..] {
                live.absorb(w, 8);
            }
        }
        from = end(slot);
        if !holds(chains[slot], slot) {
            return Some(slot - absent);
        }
    }
    None
}

/// A signing key pair. Key material is derived deterministically from a
/// seed so that simulations are reproducible.
#[derive(Clone, Debug)]
pub struct KeyPair {
    public: PublicKey,
    /// Kept for [`SignDomain::PcbAsEntry`] alone, the one domain signed per
    /// beacon rather than per bootstrap.
    pcb_entry: Midstate,
}

impl KeyPair {
    /// Derives a key pair from a seed (e.g. hash of the AS number).
    pub fn from_seed(seed: u64) -> KeyPair {
        let mut h = Hasher::new();
        h.update(b"scion-sim-keypair");
        h.update_u64(seed);
        let mut public = [0u8; ECDSA_P384_PUBKEY_COMPRESSED];
        h.finalize_into(&mut public);
        public[0] = 0x02; // SEC1 compressed-point tag, for verisimilitude.
        let public = PublicKey(public);
        KeyPair {
            public,
            pcb_entry: Midstate::new(&public, SignDomain::PcbAsEntry),
        }
    }

    /// The public half.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// The hash state [`SignDomain::PcbAsEntry`] signatures by this key
    /// resume from; verifying them resumes from the same state.
    pub(crate) fn pcb_entry(&self) -> Midstate {
        self.pcb_entry
    }

    fn midstate(&self, domain: SignDomain) -> Midstate {
        match domain {
            SignDomain::PcbAsEntry => self.pcb_entry,
            _ => Midstate::new(&self.public, domain),
        }
    }

    /// Begins a signature under `domain`; see [`Signing`].
    pub fn begin(&self, domain: SignDomain) -> Signing {
        self.midstate(domain).begin()
    }

    /// Signs `payload` under `domain`.
    pub fn sign(&self, domain: SignDomain, payload: &[u8]) -> Signature {
        self.midstate(domain).sign(payload)
    }
}

/// Verifies `sig` over `payload` under `public` and `domain`.
pub fn verify(public: PublicKey, domain: SignDomain, payload: &[u8], sig: &Signature) -> bool {
    Midstate::new(&public, domain).verify(payload, sig)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sign_verify_roundtrip() {
        let kp = KeyPair::from_seed(7);
        let sig = kp.sign(SignDomain::PcbAsEntry, b"segment data");
        assert!(verify(
            kp.public(),
            SignDomain::PcbAsEntry,
            b"segment data",
            &sig
        ));
    }

    #[test]
    fn tampered_payload_fails() {
        let kp = KeyPair::from_seed(7);
        let sig = kp.sign(SignDomain::PcbAsEntry, b"segment data");
        assert!(!verify(
            kp.public(),
            SignDomain::PcbAsEntry,
            b"segment datA",
            &sig
        ));
    }

    #[test]
    fn wrong_key_fails() {
        let kp1 = KeyPair::from_seed(7);
        let kp2 = KeyPair::from_seed(8);
        let sig = kp1.sign(SignDomain::PcbAsEntry, b"x");
        assert!(!verify(kp2.public(), SignDomain::PcbAsEntry, b"x", &sig));
    }

    #[test]
    fn cross_domain_fails() {
        let kp = KeyPair::from_seed(7);
        let sig = kp.sign(SignDomain::PcbAsEntry, b"x");
        assert!(!verify(kp.public(), SignDomain::BgpsecPath, b"x", &sig));
    }

    #[test]
    fn keypair_derivation_deterministic() {
        assert_eq!(
            KeyPair::from_seed(1).public(),
            KeyPair::from_seed(1).public()
        );
        assert_ne!(
            KeyPair::from_seed(1).public(),
            KeyPair::from_seed(2).public()
        );
    }

    #[test]
    fn wire_sizes_match_p384() {
        let kp = KeyPair::from_seed(1);
        assert_eq!(kp.public().0.len(), 49);
        assert_eq!(kp.sign(SignDomain::Trc, b"").0.len(), 96);
        assert_eq!(Signature::WIRE_SIZE, 96);
    }

    /// `KeyPair::sign` spelled out on a bare [`Hasher`]: prefix, then the
    /// payload in one `update`.
    fn sign_by_one_update(kp: &KeyPair, domain: SignDomain, payload: &[u8]) -> Signature {
        let mut h = Hasher::new();
        h.update(b"scion-sim-signature");
        h.update(&kp.public().0);
        h.update_u64(domain.tag());
        h.update(payload);
        squeeze(h)
    }

    proptest! {
        /// A payload fed to a `Signing` in any split, pieces of 0–40 bytes,
        /// signs what `sign` signs for the whole — in the domain that
        /// resumes from the kept midstate and in one that does not — and a
        /// copy taken midway finishes on its own.
        #[test]
        fn prop_signing_in_pieces_signs_the_whole(
            seed in any::<u64>(),
            pieces in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 0..=40), 0..8),
            fork in 0usize..8,
            ending in proptest::collection::vec(any::<u8>(), 0..=40),
        ) {
            let kp = KeyPair::from_seed(seed);
            let whole: Vec<u8> = pieces.concat();
            for domain in [SignDomain::PcbAsEntry, SignDomain::BgpsecPath] {
                let mut signing = kp.begin(domain);
                let mut forked = None;
                for (i, piece) in pieces.iter().enumerate() {
                    if i == fork {
                        forked = Some((signing, pieces[..i].concat()));
                    }
                    signing.absorb(piece);
                }
                let want = sign_by_one_update(&kp, domain, &whole);
                prop_assert_eq!(signing.finish(), want);
                prop_assert_eq!(kp.sign(domain, &whole), want);
                if let Some((mut copy, mut so_far)) = forked {
                    copy.absorb(&ending);
                    so_far.extend_from_slice(&ending);
                    prop_assert_eq!(copy.finish(), sign_by_one_update(&kp, domain, &so_far));
                }
            }
        }

        /// One to three claims over prefixes of one buffer, ends on any
        /// residue mod 8 (two may share a word, or be equal): all hold as
        /// signed; with one signature or one buffer byte damaged, the first
        /// claim the damage reaches is the one reported.
        #[test]
        fn prop_prefixes_verify_together_as_they_do_alone(
            buf in proptest::collection::vec(any::<u8>(), 1..200),
            cuts in proptest::collection::vec(any::<u16>(), 1..=LOCKSTEP),
            damage in (0usize..3, any::<u16>(), 0u8..8),
        ) {
            let mut ends: Vec<usize> = cuts.iter().map(|&c| c as usize % (buf.len() + 1)).collect();
            ends.sort_unstable();
            let keys: Vec<KeyPair> = (0..ends.len() as u64).map(KeyPair::from_seed).collect();
            let mut sigs: Vec<Signature> = keys
                .iter()
                .zip(&ends)
                .map(|(kp, &end)| sign_by_one_update(kp, SignDomain::PcbAsEntry, &buf[..end]))
                .collect();
            let verdict = |buf: &[u8], sigs: &[Signature]| {
                let claims = std::array::from_fn(|i| {
                    Some(PrefixClaim { key: keys.get(i)?.pcb_entry(), end: ends[i], sig: &sigs[i] })
                });
                let alone = (0..ends.len()).find(|&i| {
                    !verify(keys[i].public(), SignDomain::PcbAsEntry, &buf[..ends[i]], &sigs[i])
                });
                assert_eq!(verify_prefixes(buf, &claims), alone);
                alone
            };
            prop_assert_eq!(verdict(&buf, &sigs), None);
            let (what, at, bit) = damage;
            if what == 0 {
                let mut buf = buf.clone();
                let at = at as usize % buf.len();
                buf[at] ^= 1 << bit;
                prop_assert_eq!(verdict(&buf, &sigs), ends.iter().position(|&end| end > at));
            } else {
                let hit = at as usize % sigs.len();
                sigs[hit].0[at as usize % 96] ^= 1 << bit;
                prop_assert_eq!(verdict(&buf, &sigs), Some(hit));
            }
        }

        #[test]
        fn prop_verify_only_exact_payload(seed in any::<u64>(),
                                          payload in proptest::collection::vec(any::<u8>(), 0..64),
                                          other in proptest::collection::vec(any::<u8>(), 0..64)) {
            let kp = KeyPair::from_seed(seed);
            let sig = kp.sign(SignDomain::AsCertificate, &payload);
            prop_assert!(verify(kp.public(), SignDomain::AsCertificate, &payload, &sig));
            if other != payload {
                prop_assert!(!verify(kp.public(), SignDomain::AsCertificate, &other, &sig));
            }
        }
    }
}
