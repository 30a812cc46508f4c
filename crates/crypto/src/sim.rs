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

use serde::{Deserialize, Serialize};

use crate::hash::Hasher;
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

    /// The signature over `payload`.
    pub(crate) fn sign(mut self, payload: &[u8]) -> Signature {
        self.0.update(payload);
        let mut sig = [0u8; ECDSA_P384_SIGNATURE];
        self.0.finalize_into(&mut sig);
        Signature(sig)
    }

    /// Whether `sig` is the signature over `payload`.
    pub(crate) fn verify(self, payload: &[u8], sig: &Signature) -> bool {
        self.sign(payload) == *sig
    }
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

    /// Signs `payload` under `domain`.
    pub fn sign(&self, domain: SignDomain, payload: &[u8]) -> Signature {
        match domain {
            SignDomain::PcbAsEntry => self.pcb_entry,
            _ => Midstate::new(&self.public, domain),
        }
        .sign(payload)
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

    proptest! {
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
