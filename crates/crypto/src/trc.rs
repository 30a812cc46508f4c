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

use crate::sim::{
    verify_prefixes, KeyPair, Midstate, PrefixClaim, PublicKey, SignDomain, Signature, LOCKSTEP,
};

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

    /// The record of `signer` if its certificate stands at `now`: on file,
    /// not expired, chained to its ISD's TRC — refused in that order.
    fn standing(&self, signer: IsdAsn, now: SimTime) -> Result<&Signer, VerifyError> {
        let record = self
            .signers
            .get(&signer)
            .ok_or(VerifyError::UnknownAs(signer))?;
        if now > record.cert.not_after {
            return Err(VerifyError::CertificateExpired);
        }
        record.chain.clone()?;
        Ok(record)
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
        let record = self.standing(signer, now)?;
        let key = match domain {
            SignDomain::PcbAsEntry => record.pcb_entry,
            _ => Midstate::new(&record.cert.subject_key, domain),
        };
        if !key.verify(payload, sig) {
            return Err(VerifyError::BadSignature);
        }
        Ok(())
    }

    /// [`TrustStore::verify_chain`] under [`SignDomain::PcbAsEntry`] for
    /// every entry of a beacon, reading the beacon's bytes once per three
    /// entries (`sim::LOCKSTEP`) instead of once per entry. `entries` yields, in
    /// order, each entry's signer, the offset in `serialized` at which what
    /// it signed ends (ascending: every entry signs the beacon up to
    /// itself), and its signature. The error is the one the first failing
    /// entry would get from `verify_chain`, with that entry's position.
    pub fn verify_entry_chain<'a>(
        &self,
        serialized: &[u8],
        entries: impl IntoIterator<Item = (IsdAsn, usize, &'a Signature)>,
        now: SimTime,
    ) -> Result<(), (usize, VerifyError)> {
        let mut entries = entries.into_iter();
        let mut verified = 0;
        loop {
            // The next signers whose certificates stand, up to the first
            // that is refused; its error waits for their signatures.
            let mut refused = None;
            let mut resolved = 0;
            let claims: [Option<PrefixClaim<'a>>; LOCKSTEP] = std::array::from_fn(|_| {
                if refused.is_some() {
                    return None;
                }
                let (signer, end, sig) = entries.next()?;
                match self.standing(signer, now) {
                    Ok(record) => {
                        resolved += 1;
                        let key = record.pcb_entry;
                        Some(PrefixClaim { key, end, sig })
                    }
                    Err(e) => {
                        refused = Some(e);
                        None
                    }
                }
            });
            if let Some(bad) = verify_prefixes(serialized, &claims) {
                return Err((verified + bad, VerifyError::BadSignature));
            }
            verified += resolved;
            if let Some(e) = refused {
                return Err((verified, e));
            }
            if resolved < LOCKSTEP {
                return Ok(());
            }
        }
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

    /// Replaces the certificate of `subject` by `edit`'s version of it,
    /// admitted the way `bootstrap` admits.
    fn readmit(
        s: &mut TrustStore,
        subject: IsdAsn,
        edit: impl FnOnce(&TrustStore, &mut AsCertificate),
    ) {
        let mut cert = s.cert_of(subject).unwrap().clone();
        edit(s, &mut cert);
        // No edit touches the subject key.
        let pcb_entry = s.key_of(subject).unwrap().pcb_entry();
        s.admit(cert, pcb_entry);
    }

    /// Signs `cert` as it now reads, by the issuer it now names.
    fn reissue(s: &TrustStore, cert: &mut AsCertificate) {
        let payload =
            AsCertificate::signed_payload(cert.subject, &cert.subject_key, cert.not_after);
        let issuer = s.key_of(cert.issuer).unwrap();
        cert.signature = issuer.sign(SignDomain::AsCertificate, &payload);
    }

    /// `sample_store` with the certificate of `ia(1, 10)` edited.
    fn store_with(edit: impl FnOnce(&TrustStore, &mut AsCertificate)) -> TrustStore {
        let mut s = sample_store();
        readmit(&mut s, ia(1, 10), edit);
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
            reissue(s, cert);
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

    /// A store of sixteen signers `ia(1, 1..=16)` of which four cannot
    /// sign for a beacon: 13's certificate lapses an hour in (reissued
    /// properly, so that is all that is wrong with it), 14's carries a
    /// flipped signature, 15's names an issuer outside the TRC — and 99 is
    /// on nobody's file.
    fn store_with_refused_signers() -> TrustStore {
        let ases = (1..=16)
            .map(|n| (ia(1, n), n <= 2))
            .chain([(ia(2, 1), true)]);
        let mut s = TrustStore::bootstrap(ases, SimTime::ZERO + Duration::from_hours(24));
        readmit(&mut s, ia(1, 13), |s, cert| {
            cert.not_after = SimTime::ZERO + Duration::from_hours(1);
            reissue(s, cert);
        });
        readmit(&mut s, ia(1, 14), |_, cert| cert.signature.0[40] ^= 0x04);
        readmit(&mut s, ia(1, 15), |s, cert| {
            cert.issuer = ia(2, 1);
            reissue(s, cert);
        });
        s
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

            /// Chains of 1–12 entries over one buffer, entry ends on every
            /// residue mod 8, signers drawn from a store where some are
            /// refused (unknown, expired, bad certificate, foreign issuer),
            /// up to two signatures damaged, before and after the one
            /// early expiry: the one-pass check returns what walking the
            /// entries through the parent's `verify_chain` returns — the
            /// first failing entry, a bad signature at `i` before a
            /// certificate error at `j > i`.
            #[test]
            fn prop_entry_chain_matches_the_reference_walk(
                buf in proptest::collection::vec(any::<u8>(), 64..=64),
                entries in proptest::collection::vec((0u8..20, 1usize..40), 1..=12),
                damaged in proptest::collection::vec((0usize..12, 0usize..96), 0..=2),
                late in any::<bool>(),
            ) {
                let s = store_with_refused_signers();
                // Mostly signers in good standing; 13–15 and 99 are not.
                let signer = |pick: u8| match pick {
                    0..=15 => ia(1, 1 + u64::from(pick) % 12),
                    16..=18 => ia(1, u64::from(pick) - 3),
                    _ => ia(1, 99),
                };
                let mut end = 0;
                let ends: Vec<usize> = entries.iter().map(|&(_, gap)| { end += gap; end }).collect();
                let buf: Vec<u8> = buf.iter().cycle().take(end).copied().collect();
                let mut chain: Vec<(IsdAsn, usize, Signature)> = entries
                    .iter()
                    .zip(&ends)
                    .map(|(&(pick, _), &end)| {
                        // Whoever is named, a key on file signs: a refused
                        // signer is refused for its certificate.
                        let key = s.key_of(signer(pick)).or(s.key_of(ia(1, 1))).unwrap();
                        (signer(pick), end, key.sign(SignDomain::PcbAsEntry, &buf[..end]))
                    })
                    .collect();
                for &(entry, byte) in &damaged {
                    let n = chain.len();
                    chain[entry % n].2 .0[byte] ^= 0x20;
                }
                let now = SimTime::ZERO + Duration::from_mins(if late { 90 } else { 30 });
                let want = chain.iter().enumerate().try_for_each(|(i, (signer, end, sig))| {
                    reference::verify_chain(&s, *signer, SignDomain::PcbAsEntry, &buf[..*end], sig, now)
                        .map_err(|e| (i, e))
                });
                let got = s.verify_entry_chain(
                    &buf,
                    chain.iter().map(|(signer, end, sig)| (*signer, *end, sig)),
                    now,
                );
                prop_assert_eq!(got, want);
            }
        }
    }

    /// The precedence the one-pass check must keep inside one walk: entry
    /// 0's bad signature is reported although entry 1's signer is unknown,
    /// and the unknown signer once entry 0 is whole.
    #[test]
    fn entry_chain_reports_the_earlier_bad_signature_first() {
        let s = store_with_refused_signers();
        let buf = [7u8; 50];
        let good = s.key_of(ia(1, 3)).unwrap();
        let sig0 = good.sign(SignDomain::PcbAsEntry, &buf[..21]);
        let sig1 = good.sign(SignDomain::PcbAsEntry, &buf[..50]);
        let mut bad0 = sig0;
        bad0.0[95] ^= 1;
        let verdict = |first: &Signature| {
            s.verify_entry_chain(
                &buf,
                [(ia(1, 3), 21, first), (ia(1, 99), 50, &sig1)],
                SimTime::ZERO,
            )
        };
        assert_eq!(verdict(&bad0), Err((0, VerifyError::BadSignature)));
        assert_eq!(verdict(&sig0), Err((1, VerifyError::UnknownAs(ia(1, 99)))));
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
