//! Trust Root Configurations, AS certificates, and chain verification.
//!
//! Paper §2.1: "An ISD groups ASes that agree on a set of trust roots,
//! called the Trust Root Configuration (TRC). … The ISD is governed by a set
//! of core ASes, which … manage the trust roots." §3.4: "The required
//! cryptographic certificates are issued by the core ASes."
//!
//! The model here: each ISD has a [`Trc`] listing its core ASes' public
//! keys; every AS holds an [`AsCertificate`] binding its `⟨ISD,AS⟩` to its
//! public key, signed by one of its ISD's core ASes; a PCB AS-entry
//! signature verifies against the signer's certificate, whose issuer must
//! appear in the signer's ISD TRC ([`TrustStore::verify_chain`]).

use std::collections::HashMap;

use scion_types::{Isd, IsdAsn, SimTime};

use crate::sim::{KeyPair, Midstate, PublicKey, SignDomain, Signature};

/// A Trust Root Configuration for one ISD.
#[derive(Clone, Debug)]
pub struct Trc {
    pub isd: Isd,
    pub version: u32,
    /// Core ASes and their root public keys.
    pub roots: Vec<(IsdAsn, PublicKey)>,
}

impl Trc {
    /// Whether `ia` is a trust root of this ISD with key `key`.
    pub fn is_root(&self, ia: IsdAsn, key: PublicKey) -> bool {
        self.roots.iter().any(|&(r, k)| r == ia && k == key)
    }
}

/// A certificate binding an AS to a public key, issued by a core AS.
#[derive(Clone, Debug)]
pub struct AsCertificate {
    pub subject: IsdAsn,
    pub subject_key: PublicKey,
    pub issuer: IsdAsn,
    pub not_after: SimTime,
    pub signature: Signature,
}

impl AsCertificate {
    /// The byte string the issuer signs.
    fn signed_payload(subject: IsdAsn, subject_key: &PublicKey, not_after: SimTime) -> Vec<u8> {
        let mut p = Vec::with_capacity(67);
        p.extend_from_slice(&subject.isd.0.to_le_bytes());
        p.extend_from_slice(&subject.asn.value().to_le_bytes());
        p.extend_from_slice(&subject_key.0);
        p.extend_from_slice(&not_after.as_micros().to_le_bytes());
        p
    }
}

/// Errors from certificate-chain verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyError {
    /// No TRC known for the subject's ISD.
    UnknownIsd(Isd),
    /// No certificate on file for the signer.
    UnknownAs(IsdAsn),
    /// The certificate expired before `now`.
    CertificateExpired,
    /// The certificate's issuer is not a root in the subject's ISD TRC.
    IssuerNotInTrc,
    /// The certificate's issuer signature does not verify.
    BadCertificateSignature,
    /// The artifact signature itself does not verify.
    BadSignature,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::UnknownIsd(isd) => write!(f, "no TRC for ISD {isd}"),
            VerifyError::UnknownAs(ia) => write!(f, "no certificate for {ia}"),
            VerifyError::CertificateExpired => write!(f, "certificate expired"),
            VerifyError::IssuerNotInTrc => write!(f, "certificate issuer not in TRC"),
            VerifyError::BadCertificateSignature => write!(f, "bad certificate signature"),
            VerifyError::BadSignature => write!(f, "bad artifact signature"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// What the store keeps per signer: the certificate, whether it chains to
/// its ISD's TRC, and the key's hash state for beacon entries.
#[derive(Clone, Debug)]
struct Signer {
    cert: AsCertificate,
    /// The certificate → TRC leg of [`TrustStore::verify_chain`], decided
    /// when the certificate was admitted: it reads only the certificate and
    /// the TRCs, and neither changes once the store is built.
    chain: Result<(), VerifyError>,
    pcb_entry: Midstate,
}

/// A TRC as the store files it.
#[derive(Clone, Debug)]
struct FiledTrc {
    trc: Trc,
    /// Root for root, the hash state that root's certificates are signed
    /// and checked from.
    certifying: Vec<Midstate>,
}

/// The global trust state: every ISD's TRC, every AS's certificate, plus
/// (simulation-side) every AS's signing key pair.
///
/// Keys live here rather than at the nodes purely for convenience: the
/// simulation is single-process and honest, so co-locating avoids threading
/// key material through every protocol struct.
#[derive(Clone, Debug, Default)]
pub struct TrustStore {
    trcs: HashMap<Isd, FiledTrc>,
    signers: HashMap<IsdAsn, Signer>,
    keys: HashMap<IsdAsn, KeyPair>,
}

impl TrustStore {
    pub fn new() -> TrustStore {
        TrustStore::default()
    }

    /// Bootstraps trust for a whole topology: derives a key pair per AS,
    /// forms one TRC per ISD from that ISD's core ASes, and issues each
    /// AS's certificate from a deterministic core AS of its ISD (the
    /// lowest-numbered one).
    ///
    /// `cert_lifetime_end` is the expiry stamped into all certificates.
    ///
    /// # Panics
    /// Panics if some ISD has no core AS (it could not issue certificates).
    pub fn bootstrap(
        ases: impl Iterator<Item = (IsdAsn, bool)>,
        cert_lifetime_end: SimTime,
    ) -> TrustStore {
        let mut store = TrustStore::new();

        // Key pairs, derived from the AS address; the cores' are TRC roots.
        store.keys.reserve(ases.size_hint().0);
        let mut subjects: Vec<(IsdAsn, PublicKey, Midstate)> = Vec::new();
        let mut roots_by_isd: HashMap<Isd, Vec<(IsdAsn, PublicKey)>> = HashMap::new();
        for (ia, core) in ases {
            let seed = (u64::from(ia.isd.0) << 48) ^ ia.asn.value();
            let key = KeyPair::from_seed(seed);
            subjects.push((ia, key.public(), key.pcb_entry()));
            if core {
                roots_by_isd
                    .entry(ia.isd)
                    .or_default()
                    .push((ia, key.public()));
            }
            store.keys.insert(ia, key);
        }

        for (isd, mut roots) in roots_by_isd {
            roots.sort_by_key(|&(ia, _)| ia);
            let certifying = roots
                .iter()
                .map(|(_, key)| Midstate::new(key, SignDomain::AsCertificate))
                .collect();
            let trc = Trc {
                isd,
                version: 1,
                roots,
            };
            store.trcs.insert(isd, FiledTrc { trc, certifying });
        }

        // Certificates, issued by the lowest-numbered core of each ISD.
        store.signers.reserve(subjects.len());
        for (ia, subject_key, pcb_entry) in subjects {
            let filed = store
                .trcs
                .get(&ia.isd)
                .unwrap_or_else(|| panic!("ISD {} has no core AS to issue certificates", ia.isd));
            let payload = AsCertificate::signed_payload(ia, &subject_key, cert_lifetime_end);
            let cert = AsCertificate {
                subject: ia,
                subject_key,
                issuer: filed.trc.roots[0].0,
                not_after: cert_lifetime_end,
                signature: filed.certifying[0].sign(&payload),
            };
            store.admit(cert, pcb_entry);
        }
        store
    }

    /// Files `cert` under its subject together with its chain verdict and
    /// `pcb_entry`, the subject key's hash state for beacon entries (the key
    /// pair derived it already). The TRCs must already be in place: the
    /// verdict is not revisited.
    fn admit(&mut self, cert: AsCertificate, pcb_entry: Midstate) {
        let chain = self.check_chain(&cert);
        self.signers.insert(
            cert.subject,
            Signer {
                cert,
                chain,
                pcb_entry,
            },
        );
    }

    /// The issuer must be a root of the subject's ISD TRC, and the
    /// certificate signature must verify under that root key.
    fn check_chain(&self, cert: &AsCertificate) -> Result<(), VerifyError> {
        let isd = cert.subject.isd;
        let filed = self.trcs.get(&isd).ok_or(VerifyError::UnknownIsd(isd))?;
        let root = filed
            .trc
            .roots
            .iter()
            .position(|&(r, _)| r == cert.issuer)
            .ok_or(VerifyError::IssuerNotInTrc)?;
        let payload =
            AsCertificate::signed_payload(cert.subject, &cert.subject_key, cert.not_after);
        if !filed.certifying[root].verify(&payload, &cert.signature) {
            return Err(VerifyError::BadCertificateSignature);
        }
        Ok(())
    }

    /// The signing key pair of `ia` (simulation-side access).
    pub fn key_of(&self, ia: IsdAsn) -> Option<&KeyPair> {
        self.keys.get(&ia)
    }

    /// The certificate of `ia`.
    pub fn cert_of(&self, ia: IsdAsn) -> Option<&AsCertificate> {
        self.signers.get(&ia).map(|s| &s.cert)
    }

    /// The TRC of `isd`.
    pub fn trc_of(&self, isd: Isd) -> Option<&Trc> {
        self.trcs.get(&isd).map(|filed| &filed.trc)
    }

    /// Verifies `sig` over `payload` as produced by `signer` at time `now`
    /// along the full chain: artifact signature → signer certificate →
    /// issuer in the signer's ISD TRC. The last leg does not depend on
    /// `now` or the artifact, so its verdict is the one reached when the
    /// certificate was admitted, reported where a walk would have met it.
    pub fn verify_chain(
        &self,
        signer: IsdAsn,
        domain: SignDomain,
        payload: &[u8],
        sig: &Signature,
        now: SimTime,
    ) -> Result<(), VerifyError> {
        let record = self
            .signers
            .get(&signer)
            .ok_or(VerifyError::UnknownAs(signer))?;
        if now > record.cert.not_after {
            return Err(VerifyError::CertificateExpired);
        }
        record.chain.clone()?;
        let key = match domain {
            SignDomain::PcbAsEntry => record.pcb_entry,
            _ => Midstate::new(&record.cert.subject_key, domain),
        };
        if !key.verify(payload, sig) {
            return Err(VerifyError::BadSignature);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scion_types::{Asn, Duration};

    fn ia(isd: u16, asn: u64) -> IsdAsn {
        IsdAsn::new(Isd(isd), Asn::from_u64(asn))
    }

    fn sample_store() -> TrustStore {
        let ases = vec![
            (ia(1, 1), true),
            (ia(1, 2), true),
            (ia(1, 10), false),
            (ia(2, 1), true),
            (ia(2, 20), false),
        ];
        TrustStore::bootstrap(ases.into_iter(), SimTime::ZERO + Duration::from_hours(24))
    }

    #[test]
    fn bootstrap_builds_trcs_and_certs() {
        let s = sample_store();
        assert_eq!(s.trc_of(Isd(1)).unwrap().roots.len(), 2);
        assert_eq!(s.trc_of(Isd(2)).unwrap().roots.len(), 1);
        assert!(s.trc_of(Isd(3)).is_none());
        assert!(s.cert_of(ia(1, 10)).is_some());
        assert!(s.key_of(ia(2, 20)).is_some());
    }

    #[test]
    fn chain_verifies_for_valid_signature() {
        let s = sample_store();
        let signer = ia(1, 10);
        let sig = s
            .key_of(signer)
            .unwrap()
            .sign(SignDomain::PcbAsEntry, b"pcb");
        assert_eq!(
            s.verify_chain(signer, SignDomain::PcbAsEntry, b"pcb", &sig, SimTime::ZERO),
            Ok(())
        );
    }

    #[test]
    fn chain_rejects_tampered_payload() {
        let s = sample_store();
        let signer = ia(1, 10);
        let sig = s
            .key_of(signer)
            .unwrap()
            .sign(SignDomain::PcbAsEntry, b"pcb");
        assert_eq!(
            s.verify_chain(signer, SignDomain::PcbAsEntry, b"PCB", &sig, SimTime::ZERO),
            Err(VerifyError::BadSignature)
        );
    }

    #[test]
    fn chain_rejects_wrong_signer_attribution() {
        let s = sample_store();
        let sig = s
            .key_of(ia(1, 10))
            .unwrap()
            .sign(SignDomain::PcbAsEntry, b"pcb");
        // Claiming the signature came from AS 2-20 must fail.
        assert_eq!(
            s.verify_chain(
                ia(2, 20),
                SignDomain::PcbAsEntry,
                b"pcb",
                &sig,
                SimTime::ZERO
            ),
            Err(VerifyError::BadSignature)
        );
    }

    #[test]
    fn chain_rejects_unknown_as() {
        let s = sample_store();
        let sig = s
            .key_of(ia(1, 10))
            .unwrap()
            .sign(SignDomain::PcbAsEntry, b"pcb");
        assert_eq!(
            s.verify_chain(
                ia(1, 99),
                SignDomain::PcbAsEntry,
                b"pcb",
                &sig,
                SimTime::ZERO
            ),
            Err(VerifyError::UnknownAs(ia(1, 99)))
        );
    }

    #[test]
    fn chain_rejects_expired_certificate() {
        let s = sample_store();
        let signer = ia(1, 10);
        let sig = s
            .key_of(signer)
            .unwrap()
            .sign(SignDomain::PcbAsEntry, b"pcb");
        let later = SimTime::ZERO + Duration::from_hours(25);
        assert_eq!(
            s.verify_chain(signer, SignDomain::PcbAsEntry, b"pcb", &sig, later),
            Err(VerifyError::CertificateExpired)
        );
    }

    /// The parent commit's `verify_chain`, which walked certificate → TRC
    /// on every call; reads the store through its accessors. Kept verbatim
    /// as the oracle for the verdict that is now decided at admission.
    mod reference {
        use super::super::*;
        use crate::sim::verify;

        fn signed_payload(subject: IsdAsn, subject_key: &PublicKey, not_after: SimTime) -> Vec<u8> {
            let mut p = Vec::with_capacity(64);
            p.extend_from_slice(&subject.isd.0.to_le_bytes());
            p.extend_from_slice(&subject.asn.value().to_le_bytes());
            p.extend_from_slice(&subject_key.0);
            p.extend_from_slice(&not_after.as_micros().to_le_bytes());
            p
        }

        pub fn verify_chain(
            store: &TrustStore,
            signer: IsdAsn,
            domain: SignDomain,
            payload: &[u8],
            sig: &Signature,
            now: SimTime,
        ) -> Result<(), VerifyError> {
            let cert = store
                .cert_of(signer)
                .ok_or(VerifyError::UnknownAs(signer))?;
            if now > cert.not_after {
                return Err(VerifyError::CertificateExpired);
            }
            let trc = store
                .trc_of(signer.isd)
                .ok_or(VerifyError::UnknownIsd(signer.isd))?;
            // Issuer must be a TRC root, and the cert signature must verify
            // under the issuer's root key.
            let issuer_key = trc
                .roots
                .iter()
                .find(|&&(r, _)| r == cert.issuer)
                .map(|&(_, k)| k)
                .ok_or(VerifyError::IssuerNotInTrc)?;
            let cert_payload = signed_payload(cert.subject, &cert.subject_key, cert.not_after);
            if !verify(
                issuer_key,
                SignDomain::AsCertificate,
                &cert_payload,
                &cert.signature,
            ) {
                return Err(VerifyError::BadCertificateSignature);
            }
            if !verify(cert.subject_key, domain, payload, sig) {
                return Err(VerifyError::BadSignature);
            }
            Ok(())
        }
    }

    /// `sample_store` with the certificate of `ia(1, 10)` replaced by
    /// `edit`'s version of it, admitted the way `bootstrap` admits.
    fn store_with(edit: impl FnOnce(&TrustStore, &mut AsCertificate)) -> TrustStore {
        let mut s = sample_store();
        let mut cert = s.cert_of(ia(1, 10)).unwrap().clone();
        edit(&s, &mut cert);
        // No edit touches the subject key.
        let pcb_entry = s.key_of(ia(1, 10)).unwrap().pcb_entry();
        s.admit(cert, pcb_entry);
        s
    }

    /// What `verify_chain` says about `signer` for a good and for a broken
    /// artifact signature by `ia(1, 10)`'s key, before and after the
    /// certificates expire — each checked against the parent's walk.
    fn verdicts(s: &TrustStore, signer: IsdAsn) -> [Result<(), VerifyError>; 3] {
        let good = s
            .key_of(ia(1, 10))
            .unwrap()
            .sign(SignDomain::PcbAsEntry, b"pcb");
        let mut bad = good;
        bad.0[95] ^= 0x80;
        let expired = SimTime::ZERO + Duration::from_hours(25);
        [(good, SimTime::ZERO), (bad, SimTime::ZERO), (good, expired)].map(|(sig, now)| {
            let got = s.verify_chain(signer, SignDomain::PcbAsEntry, b"pcb", &sig, now);
            let want =
                reference::verify_chain(s, signer, SignDomain::PcbAsEntry, b"pcb", &sig, now);
            assert_eq!(got, want, "differs from the parent's walk at {now:?}");
            got
        })
    }

    #[test]
    fn untampered_store_matches_the_reference() {
        assert_eq!(
            verdicts(&sample_store(), ia(1, 10)),
            [
                Ok(()),
                Err(VerifyError::BadSignature),
                Err(VerifyError::CertificateExpired)
            ]
        );
    }

    #[test]
    fn chain_rejects_flipped_certificate_signature() {
        let s = store_with(|_, cert| cert.signature.0[7] ^= 0x01);
        let e = Err(VerifyError::BadCertificateSignature);
        // A valid artifact signature does not rescue a bad chain, a broken
        // one does not mask it, and expiry is still reported first.
        assert_eq!(
            verdicts(&s, ia(1, 10)),
            [e.clone(), e, Err(VerifyError::CertificateExpired)]
        );
    }

    #[test]
    fn chain_rejects_issuer_outside_the_trc() {
        // Properly signed — by a core of another ISD.
        let s = store_with(|s, cert| {
            cert.issuer = ia(2, 1);
            let payload =
                AsCertificate::signed_payload(cert.subject, &cert.subject_key, cert.not_after);
            cert.signature = s
                .key_of(ia(2, 1))
                .unwrap()
                .sign(SignDomain::AsCertificate, &payload);
        });
        let e = Err(VerifyError::IssuerNotInTrc);
        assert_eq!(
            verdicts(&s, ia(1, 10)),
            [e.clone(), e, Err(VerifyError::CertificateExpired)]
        );
    }

    #[test]
    fn chain_rejects_subject_isd_without_trc() {
        let s = store_with(|_, cert| cert.subject = ia(3, 10));
        let e = Err(VerifyError::UnknownIsd(Isd(3)));
        assert_eq!(
            verdicts(&s, ia(3, 10)),
            [e.clone(), e, Err(VerifyError::CertificateExpired)]
        );
        // The certificate it was copied from is still on file and valid.
        assert_eq!(verdicts(&s, ia(1, 10))[0], Ok(()));
    }

    #[test]
    fn certificate_payload_is_exactly_sized() {
        let s = sample_store();
        let cert = s.cert_of(ia(1, 10)).unwrap();
        let p = AsCertificate::signed_payload(cert.subject, &cert.subject_key, cert.not_after);
        assert_eq!((p.len(), p.capacity()), (67, 67));
    }

    #[test]
    #[should_panic(expected = "no core AS")]
    fn bootstrap_requires_core_per_isd() {
        let _ = TrustStore::bootstrap(
            vec![(ia(1, 1), false)].into_iter(),
            SimTime::ZERO + Duration::from_hours(1),
        );
    }

    #[test]
    fn trc_is_root_checks_key() {
        let s = sample_store();
        let trc = s.trc_of(Isd(1)).unwrap();
        let (root_ia, root_key) = trc.roots[0];
        assert!(trc.is_root(root_ia, root_key));
        let other_key = s.key_of(ia(2, 1)).unwrap().public();
        assert!(!trc.is_root(root_ia, other_key));
    }
}
