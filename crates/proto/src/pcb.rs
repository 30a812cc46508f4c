//! Path-segment Construction Beacons (PCBs).
//!
//! Paper §2.2: a PCB is initiated by a core AS and iteratively extended:
//! "Before propagating a PCB, the beacon server appends its AS number and
//! the incoming and outgoing interface identifiers of the links connecting
//! to the neighbor ASes. Additionally, each PCB has an expiration timestamp
//! which is specified by the initiator." Every appended AS entry is signed,
//! and validation walks the whole chain.
//!
//! Orientation convention: entry *i*'s `egress` interface leads to entry
//! *i+1*'s `ingress` interface. The **last** entry's `egress` points at the
//! AS the PCB is being sent to — that receiver has not yet appended itself,
//! so the final link's remote interface id is known only to the receiver
//! (from the link it arrived on). Beacon stores therefore keep
//! `(PCB, local ingress ifid)` pairs; see the beaconing crate.
//!
//! What entry *i* signs is the serialized beacon from its first byte to the
//! end of entry *i*'s own fields, so everything signed is a prefix of one
//! byte string. Both directions read that string once. Outward, the copies
//! of a beacon sent through different egresses share all of it but the new
//! entry: an [`Extender`] absorbs the shared part into the signer's hash
//! state once (in pieces, which the signer's carry re-cuts into the words of
//! a single payload) and signs each copy from a copy of that state. Inward,
//! [`Pcb::validate`] serializes once and hands the entries' end offsets to
//! [`TrustStore::verify_entry_chain`], where the entries' hash chains —
//! which start at the same byte and share nothing but the bytes they read —
//! advance together.
//!
//! An entry is immutable once signed, so beacons share entries instead of
//! copying them: `entries` holds one [`Arc`] per entry, and an extension
//! clones its parent's pointers and allocates only the entry it appends.
//! A stored beacon, every beacon extended from it and every segment
//! harvested from it hold the same entries; `Arc<AsEntry>` serializes as
//! `AsEntry`, so no serialized byte depends on the sharing.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use scion_crypto::sim::{SignDomain, Signature, Signing};
use scion_crypto::trc::{TrustStore, VerifyError};
use scion_types::{Duration, IfId, IsdAsn, LinkEnd, SimTime};

use crate::hopfield::HopField;
use crate::segment::forward_hop;
use crate::wire;

/// A peering-link entry attached to an AS entry (paper §2.2: "Non-core ASes
/// can include their peering links in the PCBs, enabling valley-free
/// forwarding if both up- and down-path segments contain the same peering
/// link").
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeerEntry {
    /// The peer AS on the other side of the peering link.
    pub peer: IsdAsn,
    /// Interface id on the peer's side.
    pub peer_if: IfId,
    /// Hop field authorizing entry via the local peering interface
    /// (its `ingress` is the local peering interface id).
    pub hop: HopField,
}

/// One AS's contribution to a PCB.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AsEntry {
    /// The appending AS.
    pub ia: IsdAsn,
    /// Hop field: `ingress` = interface the PCB entered through
    /// ([`IfId::NONE`] at the origin), `egress` = interface it left through
    /// (toward the next entry / the receiver).
    pub hop: HopField,
    /// Advertised peering links of this AS.
    pub peers: Box<[PeerEntry]>,
    /// Signature over the beacon up to and including this entry.
    pub signature: Signature,
}

/// The identity of a *path* irrespective of beacon freshness: the sequence
/// of `(AS, ingress, egress)` triples.
///
/// The diversity algorithm must recognize "a newer instance of a PCB with
/// the same path as its previous instance" (§4.2) — equality of this key is
/// exactly that notion.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct PathKey(pub Vec<(IsdAsn, IfId, IfId)>);

/// Validation failures for received PCBs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PcbError {
    /// The beacon has expired (or was never valid at `now`).
    Expired,
    /// No AS entries.
    Empty,
    /// The origin entry has a non-NONE ingress interface.
    BadOriginEntry,
    /// An AS appears twice — beacons must not loop.
    LoopDetected(IsdAsn),
    /// A non-final entry is missing its egress interface.
    MissingEgress,
    /// Signature-chain verification failed at the given hop.
    Chain(usize, VerifyError),
}

impl std::fmt::Display for PcbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcbError::Expired => write!(f, "beacon expired"),
            PcbError::Empty => write!(f, "beacon has no AS entries"),
            PcbError::BadOriginEntry => write!(f, "origin entry must have no ingress interface"),
            PcbError::LoopDetected(ia) => write!(f, "AS {ia} appears twice in beacon"),
            PcbError::MissingEgress => write!(f, "non-final entry lacks an egress interface"),
            PcbError::Chain(hop, e) => write!(f, "signature chain invalid at hop {hop}: {e}"),
        }
    }
}

impl std::error::Error for PcbError {}

/// A Path-segment Construction Beacon.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pcb {
    /// The initiating core AS.
    pub origin: IsdAsn,
    /// Initiation timestamp (set by the origin).
    pub initiated_at: SimTime,
    /// Expiration timestamp (set by the origin; paper §2.2).
    pub expires_at: SimTime,
    /// Per-origin beacon sequence number, distinguishing beacons initiated
    /// in the same interval on different interfaces.
    pub segment_id: u32,
    /// AS entries, origin first; immutable and shared with every beacon
    /// extended from this one.
    pub entries: Box<[Arc<AsEntry>]>,
}

// Every stored beacon and every entry it shares is one of these: a field
// that makes either bigger fails the build.
#[cfg(target_pointer_width = "64")]
const _: () = {
    assert!(std::mem::size_of::<Pcb>() == 56);
    assert!(std::mem::size_of::<AsEntry>() == 152);
};

/// Derives an AS's (simulation) hop-field forwarding key from its address.
pub fn forwarding_key(ia: IsdAsn) -> u64 {
    (u64::from(ia.isd.0) << 48) ^ ia.asn.value() ^ 0x5c10_4f0d
}

impl Pcb {
    /// Originates a beacon at a core AS on egress interface `egress`.
    ///
    /// `trust` supplies the origin's signing key; `segment_id`
    /// disambiguates beacons of the same interval.
    pub fn originate(
        origin: IsdAsn,
        egress: IfId,
        initiated_at: SimTime,
        lifetime: Duration,
        segment_id: u32,
        trust: &TrustStore,
    ) -> Pcb {
        let expires_at = initiated_at + lifetime;
        let hop = HopField::new(IfId::NONE, egress, expires_at, forwarding_key(origin));
        let mut pcb = Pcb {
            origin,
            initiated_at,
            expires_at,
            segment_id,
            entries: Box::default(),
        };
        let signature = sign_entry(pcb.signing_by(origin, trust), origin, &hop, &[]);
        pcb.entries = Box::new([Arc::new(AsEntry {
            ia: origin,
            hop,
            peers: Box::default(),
            signature,
        })]);
        pcb
    }

    /// The signature of the entry `ia` would append, begun: header and
    /// existing entries absorbed, the new entry's fields yet to come.
    fn signing_by(&self, ia: IsdAsn, trust: &TrustStore) -> Signing {
        let mut signing = trust
            .key_of(ia)
            .unwrap_or_else(|| panic!("no signing key for {ia}"))
            .begin(SignDomain::PcbAsEntry);
        signing.absorb(&self.header_bytes());
        for e in &self.entries {
            entry_pieces(e.ia, &e.hop, &e.peers, |piece| signing.absorb(piece));
            signing.absorb(&e.signature.0);
        }
        signing
    }

    /// Prepares the extensions of this beacon by `ia`, which received it on
    /// `ingress`: everything they share is read here, once.
    pub fn extender(&self, ia: IsdAsn, ingress: IfId, trust: &TrustStore) -> Extender<'_> {
        assert!(!ingress.is_none(), "extension requires a real ingress");
        Extender {
            pcb: self,
            ia,
            ingress,
            prefix: self.signing_by(ia, trust),
        }
    }

    /// Returns a copy of this beacon extended by `ia`, which received it on
    /// `ingress` and propagates it on `egress`, advertising `peers`.
    pub fn extend(
        &self,
        ia: IsdAsn,
        ingress: IfId,
        egress: IfId,
        peers: Vec<PeerEntry>,
        trust: &TrustStore,
    ) -> Pcb {
        self.extender(ia, ingress, trust).extend(egress, peers)
    }

    /// Serialized size of the beacon header.
    const HEADER_LEN: usize = 2 + 8 + 8 + 8 + 4;

    /// Per entry, in order: its signer, the offset in the serialized beacon
    /// at which what it signed ends, and its signature. An entry signs the
    /// header, every earlier entry with its signature, and its own unsigned
    /// fields; hash chaining over the serialized prefix mirrors real SCION,
    /// where each signature covers all preceding entries.
    fn signed_ends(&self) -> impl Iterator<Item = (IsdAsn, usize, &Signature)> {
        self.entries.iter().scan(Self::HEADER_LEN, |start, e| {
            let end = *start + ENTRY_LEN + e.peers.len() * PEER_LEN;
            *start = end + Signature::WIRE_SIZE;
            Some((e.ia, end, &e.signature))
        })
    }

    fn header_bytes(&self) -> [u8; Self::HEADER_LEN] {
        let mut p = [0u8; Self::HEADER_LEN];
        p[..2].copy_from_slice(&self.origin.isd.0.to_le_bytes());
        p[2..10].copy_from_slice(&self.origin.asn.value().to_le_bytes());
        p[10..18].copy_from_slice(&self.initiated_at.as_micros().to_le_bytes());
        p[18..26].copy_from_slice(&self.expires_at.as_micros().to_le_bytes());
        p[26..].copy_from_slice(&self.segment_id.to_le_bytes());
        p
    }

    /// Full validation of a received beacon at time `now`: liveness,
    /// structural sanity, loop freedom, and the signature chain
    /// (each entry verified against its AS certificate and ISD TRC).
    pub fn validate(&self, trust: &TrustStore, now: SimTime) -> Result<(), PcbError> {
        if self.entries.is_empty() {
            return Err(PcbError::Empty);
        }
        if now >= self.expires_at || self.initiated_at > now {
            return Err(PcbError::Expired);
        }
        if !self.entries[0].hop.ingress.is_none() {
            return Err(PcbError::BadOriginEntry);
        }
        for (i, e) in self.entries.iter().enumerate() {
            if self.entries[..i].iter().any(|earlier| earlier.ia == e.ia) {
                return Err(PcbError::LoopDetected(e.ia));
            }
            if i + 1 < self.entries.len() && e.hop.egress.is_none() {
                return Err(PcbError::MissingEgress);
            }
        }
        // Verify the signature chain by replaying the construction in one
        // buffer, sized for the last entry's payload: what entry `i` signed
        // is the buffer up to the end of its unsigned fields, and its
        // signature joins the buffer before entry `i + 1` does.
        let len = self.signed_ends().last().map_or(0, |(_, end, _)| end);
        let mut p = Vec::with_capacity(len);
        p.extend_from_slice(&self.header_bytes());
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                p.extend_from_slice(&self.entries[i - 1].signature.0);
            }
            entry_pieces(e.ia, &e.hop, &e.peers, |piece| p.extend_from_slice(piece));
        }
        debug_assert_eq!(p.len(), len);
        trust
            .verify_entry_chain(&p, self.signed_ends(), now)
            .map_err(|(i, ve)| PcbError::Chain(i, ve))
    }

    /// Number of AS hops accumulated so far.
    pub fn hop_count(&self) -> usize {
        self.entries.len()
    }

    /// The AS-level path, origin first.
    pub fn as_path(&self) -> Vec<IsdAsn> {
        self.entries.iter().map(|e| e.ia).collect()
    }

    /// True if `ia` already appears in the beacon (loop prevention).
    pub fn contains_as(&self, ia: IsdAsn) -> bool {
        self.entries.iter().any(|e| e.ia == ia)
    }

    /// The path identity key (see [`PathKey`]).
    pub fn path_key(&self) -> PathKey {
        PathKey(self.path_hops().collect())
    }

    /// What [`Pcb::path_key`] collects, read off the entries instead: two
    /// beacons follow the same path when these are equal, and comparing
    /// them orders beacons as their keys would.
    pub fn path_hops(&self) -> impl ExactSizeIterator<Item = (IsdAsn, IfId, IfId)> + Clone + '_ {
        self.entries.iter().map(|e| forward_hop(e))
    }

    /// The fully-specified interior links of the beacon: for consecutive
    /// entries `(i, i+1)`, the link `(ia_i, egress_i) ↔ (ia_{i+1},
    /// ingress_{i+1})`. The final entry's egress (toward the receiver) is
    /// *not* included — the receiver resolves it via
    /// [`Pcb::dangling_egress`] and its own arrival interface.
    pub fn interior_links(&self) -> Vec<(LinkEnd, LinkEnd)> {
        self.links_iter().collect()
    }

    /// [`Pcb::interior_links`] without the `Vec`: the same pairs, read off
    /// the entries as the iterator advances.
    pub fn links_iter(&self) -> impl Iterator<Item = (LinkEnd, LinkEnd)> + Clone + '_ {
        self.entries.windows(2).map(|w| {
            (
                LinkEnd::new(w[0].ia, w[0].hop.egress),
                LinkEnd::new(w[1].ia, w[1].hop.ingress),
            )
        })
    }

    /// The last entry's `(AS, egress interface)` — the local end of the
    /// link over which the beacon is in flight, or `None` when the final
    /// egress is unset.
    pub fn dangling_egress(&self) -> Option<(IsdAsn, IfId)> {
        self.entries.last().and_then(|e| {
            if e.hop.egress.is_none() {
                None
            } else {
                Some((e.ia, e.hop.egress))
            }
        })
    }

    /// Beacon age at `now` (zero if not yet initiated).
    pub fn age(&self, now: SimTime) -> Duration {
        now.since(self.initiated_at)
    }

    /// Total lifetime as stamped by the origin.
    pub fn lifetime(&self) -> Duration {
        self.expires_at.since(self.initiated_at)
    }

    /// Remaining lifetime at `now` (zero once expired).
    pub fn remaining_lifetime(&self, now: SimTime) -> Duration {
        now.until(self.expires_at)
    }

    /// True if expired at `now`.
    pub fn is_expired(&self, now: SimTime) -> bool {
        now >= self.expires_at
    }

    /// Wire size in bytes per the [`wire`] model.
    pub fn wire_size(&self) -> u64 {
        wire::pcb_size(
            self.entries.len(),
            self.entries.iter().map(|e| e.peers.len()).sum(),
        )
    }
}

/// Serialized size of an entry's own unsigned fields, and of each peer
/// entry it advertises.
const ENTRY_LEN: usize = 2 + 8 + 2 + 2 + 8 + 6;
const PEER_LEN: usize = 2 + 8 + 2 + 6;

/// Hands `sink` the serialized unsigned fields of an entry, piece by piece:
/// the entry's own [`ENTRY_LEN`] bytes, then [`PEER_LEN`] per peer entry.
fn entry_pieces(ia: IsdAsn, hop: &HopField, peers: &[PeerEntry], mut sink: impl FnMut(&[u8])) {
    let mut p = [0u8; ENTRY_LEN];
    p[..2].copy_from_slice(&ia.isd.0.to_le_bytes());
    p[2..10].copy_from_slice(&ia.asn.value().to_le_bytes());
    p[10..12].copy_from_slice(&hop.ingress.0.to_le_bytes());
    p[12..14].copy_from_slice(&hop.egress.0.to_le_bytes());
    p[14..22].copy_from_slice(&hop.expiry.as_micros().to_le_bytes());
    p[22..].copy_from_slice(&hop.mac);
    sink(&p);
    for pe in peers {
        let mut p = [0u8; PEER_LEN];
        p[..2].copy_from_slice(&pe.peer.isd.0.to_le_bytes());
        p[2..10].copy_from_slice(&pe.peer.asn.value().to_le_bytes());
        p[10..12].copy_from_slice(&pe.peer_if.0.to_le_bytes());
        p[12..].copy_from_slice(&pe.hop.mac);
        sink(&p);
    }
}

/// Finishes `prefix` — a beacon's header and existing entries, absorbed —
/// with the new entry's unsigned fields.
fn sign_entry(mut prefix: Signing, ia: IsdAsn, hop: &HopField, peers: &[PeerEntry]) -> Signature {
    entry_pieces(ia, hop, peers, |piece| prefix.absorb(piece));
    prefix.finish()
}

/// A beacon about to be extended by one AS through one ingress: what every
/// such extension signs in common — header and existing entries — is already
/// in `prefix`, a hash state, so an extension per egress reads only its own
/// entry. Holds no copy of the beacon's bytes; borrows the beacon. Each
/// beacon it makes shares the borrowed beacon's entries, which are never
/// written once signed, and owns only the one it appends.
#[derive(Clone, Debug)]
pub struct Extender<'a> {
    pcb: &'a Pcb,
    ia: IsdAsn,
    ingress: IfId,
    prefix: Signing,
}

impl Extender<'_> {
    /// A copy of the beacon extended by one entry that propagates it on
    /// `egress`, advertising `peers`.
    pub fn extend(&self, egress: IfId, peers: Vec<PeerEntry>) -> Pcb {
        let pcb = self.pcb;
        let key = forwarding_key(self.ia);
        let hop = HopField::new(self.ingress, egress, pcb.expires_at, key);
        let signature = sign_entry(self.prefix, self.ia, &hop, &peers);
        // An extended beacon is only read: size the pointers for the one
        // entry it gains (so the boxing below keeps the allocation), and
        // share the rest.
        let mut entries = Vec::with_capacity(pcb.entries.len() + 1);
        entries.extend_from_slice(&pcb.entries);
        entries.push(Arc::new(AsEntry {
            ia: self.ia,
            hop,
            peers: peers.into_boxed_slice(),
            signature,
        }));
        Pcb {
            origin: pcb.origin,
            initiated_at: pcb.initiated_at,
            expires_at: pcb.expires_at,
            segment_id: pcb.segment_id,
            entries: entries.into_boxed_slice(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scion_crypto::trc::TrustStore;
    use scion_types::{Asn, Isd};

    fn ia(isd: u16, asn: u64) -> IsdAsn {
        IsdAsn::new(Isd(isd), Asn::from_u64(asn))
    }

    fn trust() -> TrustStore {
        TrustStore::bootstrap(
            vec![
                (ia(1, 1), true),
                (ia(1, 2), true),
                (ia(1, 3), false),
                (ia(2, 1), true),
            ]
            .into_iter(),
            SimTime::ZERO + Duration::from_days(30),
        )
    }

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + Duration::from_secs(secs)
    }

    /// Edits a boxed slice of a beacon as a `Vec`.
    fn edit<T>(slice: &mut Box<[T]>, f: impl FnOnce(&mut Vec<T>)) {
        let mut v = std::mem::take(slice).into_vec();
        f(&mut v);
        *slice = v.into_boxed_slice();
    }

    fn sample_pcb(trust: &TrustStore) -> Pcb {
        let pcb = Pcb::originate(ia(1, 1), IfId(5), t(0), Duration::from_hours(6), 0, trust);
        let pcb = pcb.extend(ia(1, 2), IfId(1), IfId(2), vec![], trust);
        pcb.extend(ia(1, 3), IfId(7), IfId(9), vec![], trust)
    }

    #[test]
    fn origination_shape() {
        let tr = trust();
        let pcb = Pcb::originate(ia(1, 1), IfId(5), t(0), Duration::from_hours(6), 3, &tr);
        assert_eq!(pcb.hop_count(), 1);
        assert_eq!(pcb.origin, ia(1, 1));
        assert!(pcb.entries[0].hop.ingress.is_none());
        assert_eq!(pcb.entries[0].hop.egress, IfId(5));
        assert_eq!(pcb.lifetime(), Duration::from_hours(6));
        assert_eq!(pcb.segment_id, 3);
    }

    #[test]
    fn extension_appends_and_validates() {
        let tr = trust();
        let pcb = sample_pcb(&tr);
        assert_eq!(pcb.as_path(), vec![ia(1, 1), ia(1, 2), ia(1, 3)]);
        assert_eq!(pcb.validate(&tr, t(10)), Ok(()));
    }

    #[test]
    fn validate_rejects_expired() {
        let tr = trust();
        let pcb = sample_pcb(&tr);
        assert_eq!(
            pcb.validate(&tr, t(6 * 3600)),
            Err(PcbError::Expired),
            "expiry boundary is exclusive"
        );
    }

    #[test]
    fn validate_rejects_tampered_entry() {
        let tr = trust();
        let mut pcb = sample_pcb(&tr);
        Arc::make_mut(&mut pcb.entries[1]).hop.egress = IfId(42);
        assert!(matches!(
            pcb.validate(&tr, t(10)),
            Err(PcbError::Chain(1, _))
        ));
    }

    #[test]
    fn extension_shares_every_parent_entry() {
        let tr = trust();
        let parent = sample_pcb(&tr);
        let extender = parent.extender(ia(2, 1), IfId(4), &tr);
        for egress in [IfId(6), IfId(8)] {
            let child = extender.extend(egress, vec![]);
            assert_eq!(child.hop_count(), parent.hop_count() + 1);
            for (shared, own) in child.entries.iter().zip(&parent.entries) {
                assert!(Arc::ptr_eq(shared, own));
            }
            assert_eq!(Arc::strong_count(child.entries.last().unwrap()), 1);
        }
    }

    #[test]
    fn tampering_a_copy_leaves_the_original_valid() {
        let tr = trust();
        let original = sample_pcb(&tr);
        let mut copy = original.clone();
        Arc::make_mut(&mut copy.entries[1]).hop.egress = IfId(42);
        assert!(matches!(
            copy.validate(&tr, t(10)),
            Err(PcbError::Chain(1, _))
        ));
        assert_eq!(original.entries[1].hop.egress, IfId(2));
        assert_eq!(original.validate(&tr, t(10)), Ok(()));
    }

    #[test]
    fn validate_rejects_truncation_then_regrowth() {
        // Replace the last entry's signature with the first one's: chain
        // must break.
        let tr = trust();
        let mut pcb = sample_pcb(&tr);
        Arc::make_mut(&mut pcb.entries[2]).signature = pcb.entries[0].signature;
        assert!(matches!(
            pcb.validate(&tr, t(10)),
            Err(PcbError::Chain(2, _))
        ));
    }

    #[test]
    fn validate_rejects_loop() {
        let tr = trust();
        let pcb = Pcb::originate(ia(1, 1), IfId(5), t(0), Duration::from_hours(6), 0, &tr);
        let pcb = pcb.extend(ia(1, 2), IfId(1), IfId(2), vec![], &tr);
        let pcb = pcb.extend(ia(1, 1), IfId(6), IfId(7), vec![], &tr);
        assert_eq!(
            pcb.validate(&tr, t(10)),
            Err(PcbError::LoopDetected(ia(1, 1)))
        );
    }

    #[test]
    fn path_key_identifies_paths_not_instances() {
        let tr = trust();
        // Same path, two beacon instances initiated at different times.
        let mk = |at: SimTime| {
            Pcb::originate(ia(1, 1), IfId(5), at, Duration::from_hours(6), 0, &tr).extend(
                ia(1, 2),
                IfId(1),
                IfId(2),
                vec![],
                &tr,
            )
        };
        let a = mk(t(0));
        let b = mk(t(600));
        assert_eq!(a.path_key(), b.path_key());
        assert_ne!(a, b);
    }

    #[test]
    fn interior_links_and_dangling_egress() {
        let tr = trust();
        let pcb = sample_pcb(&tr);
        let links = pcb.interior_links();
        assert_eq!(links.len(), 2);
        assert_eq!(links[0].0, LinkEnd::new(ia(1, 1), IfId(5)));
        assert_eq!(links[0].1, LinkEnd::new(ia(1, 2), IfId(1)));
        assert_eq!(links[1].0, LinkEnd::new(ia(1, 2), IfId(2)));
        assert_eq!(links[1].1, LinkEnd::new(ia(1, 3), IfId(7)));
        assert_eq!(pcb.dangling_egress(), Some((ia(1, 3), IfId(9))));
    }

    #[test]
    fn ages_and_lifetimes() {
        let tr = trust();
        let pcb = Pcb::originate(ia(1, 1), IfId(5), t(100), Duration::from_secs(1000), 0, &tr);
        assert_eq!(pcb.age(t(150)), Duration::from_secs(50));
        assert_eq!(pcb.remaining_lifetime(t(150)), Duration::from_secs(950));
        assert!(!pcb.is_expired(t(1099)));
        assert!(pcb.is_expired(t(1100)));
        assert_eq!(pcb.remaining_lifetime(t(2000)), Duration::ZERO);
    }

    #[test]
    fn wire_size_grows_with_hops() {
        let tr = trust();
        let one = Pcb::originate(ia(1, 1), IfId(5), t(0), Duration::from_hours(6), 0, &tr);
        let two = one.extend(ia(1, 2), IfId(1), IfId(2), vec![], &tr);
        assert!(two.wire_size() > one.wire_size());
        // Each extra hop adds at least a signature's worth of bytes.
        assert!(two.wire_size() - one.wire_size() >= 96);
    }

    /// `originate`, `extend` and `validate` as they were before they did
    /// each piece of work once: the signed prefix rebuilt per entry into a
    /// fresh `Vec`, `entries` cloned and then pushed, the signer's
    /// certificate walked to its TRC per entry, and every signature
    /// absorbed from the first byte of its prefix. Kept as what the
    /// single-pass ones are compared against.
    mod reference {
        use super::super::*;
        use scion_crypto::hash::Hasher;
        use scion_crypto::sim::PublicKey;

        /// `SignDomain::tag` (private to `scion-crypto`) of the two domains
        /// a beacon's chain touches.
        const PCB_AS_ENTRY: u64 = 1;
        const AS_CERTIFICATE: u64 = 2;

        fn sign_with(public: PublicKey, domain_tag: u64, payload: &[u8]) -> Signature {
            let mut h = Hasher::new();
            h.update(b"scion-sim-signature");
            h.update(&public.0);
            h.update_u64(domain_tag);
            h.update(payload);
            let mut sig = [0u8; 96];
            h.finalize_into(&mut sig);
            Signature(sig)
        }

        fn verify(public: PublicKey, domain_tag: u64, payload: &[u8], sig: &Signature) -> bool {
            sign_with(public, domain_tag, payload) == *sig
        }

        fn cert_signed_payload(
            subject: IsdAsn,
            subject_key: &PublicKey,
            not_after: SimTime,
        ) -> Vec<u8> {
            let mut p = Vec::with_capacity(64);
            p.extend_from_slice(&subject.isd.0.to_le_bytes());
            p.extend_from_slice(&subject.asn.value().to_le_bytes());
            p.extend_from_slice(&subject_key.0);
            p.extend_from_slice(&not_after.as_micros().to_le_bytes());
            p
        }

        fn verify_chain(
            trust: &TrustStore,
            signer: IsdAsn,
            payload: &[u8],
            sig: &Signature,
            now: SimTime,
        ) -> Result<(), VerifyError> {
            let cert = trust
                .cert_of(signer)
                .ok_or(VerifyError::UnknownAs(signer))?;
            if now > cert.not_after {
                return Err(VerifyError::CertificateExpired);
            }
            let trc = trust
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
            let cert_payload = cert_signed_payload(cert.subject, &cert.subject_key, cert.not_after);
            if !verify(issuer_key, AS_CERTIFICATE, &cert_payload, &cert.signature) {
                return Err(VerifyError::BadCertificateSignature);
            }
            if !verify(cert.subject_key, PCB_AS_ENTRY, payload, sig) {
                return Err(VerifyError::BadSignature);
            }
            Ok(())
        }

        fn signed_payload_over(
            pcb: &Pcb,
            prefix: &[Arc<AsEntry>],
            ia: IsdAsn,
            hop: &HopField,
            peers: &[PeerEntry],
        ) -> Vec<u8> {
            let mut p = Vec::with_capacity(128 + prefix.len() * 32);
            p.extend_from_slice(&pcb.origin.isd.0.to_le_bytes());
            p.extend_from_slice(&pcb.origin.asn.value().to_le_bytes());
            p.extend_from_slice(&pcb.initiated_at.as_micros().to_le_bytes());
            p.extend_from_slice(&pcb.expires_at.as_micros().to_le_bytes());
            p.extend_from_slice(&pcb.segment_id.to_le_bytes());
            for e in prefix {
                push_entry_bytes(&mut p, e.ia, &e.hop, &e.peers);
                p.extend_from_slice(&e.signature.0);
            }
            push_entry_bytes(&mut p, ia, hop, peers);
            p
        }

        fn push_entry_bytes(p: &mut Vec<u8>, ia: IsdAsn, hop: &HopField, peers: &[PeerEntry]) {
            p.extend_from_slice(&ia.isd.0.to_le_bytes());
            p.extend_from_slice(&ia.asn.value().to_le_bytes());
            p.extend_from_slice(&hop.ingress.0.to_le_bytes());
            p.extend_from_slice(&hop.egress.0.to_le_bytes());
            p.extend_from_slice(&hop.expiry.as_micros().to_le_bytes());
            p.extend_from_slice(&hop.mac);
            for pe in peers {
                p.extend_from_slice(&pe.peer.isd.0.to_le_bytes());
                p.extend_from_slice(&pe.peer.asn.value().to_le_bytes());
                p.extend_from_slice(&pe.peer_if.0.to_le_bytes());
                p.extend_from_slice(&pe.hop.mac);
            }
        }

        fn sign_next_entry(
            pcb: &Pcb,
            ia: IsdAsn,
            hop: &HopField,
            peers: &[PeerEntry],
            trust: &TrustStore,
        ) -> Signature {
            let payload = signed_payload_over(pcb, &pcb.entries, ia, hop, peers);
            let key = trust
                .key_of(ia)
                .unwrap_or_else(|| panic!("no signing key for {ia}"));
            sign_with(key.public(), PCB_AS_ENTRY, &payload)
        }

        pub fn originate(
            origin: IsdAsn,
            egress: IfId,
            initiated_at: SimTime,
            lifetime: Duration,
            segment_id: u32,
            trust: &TrustStore,
        ) -> Pcb {
            let expires_at = initiated_at + lifetime;
            let hop = HopField::new(IfId::NONE, egress, expires_at, forwarding_key(origin));
            let mut pcb = Pcb {
                origin,
                initiated_at,
                expires_at,
                segment_id,
                entries: Box::default(),
            };
            let signature = sign_next_entry(&pcb, origin, &hop, &[], trust);
            pcb.entries = Box::new([Arc::new(AsEntry {
                ia: origin,
                hop,
                peers: Box::default(),
                signature,
            })]);
            pcb
        }

        pub fn extend(
            pcb: &Pcb,
            ia: IsdAsn,
            ingress: IfId,
            egress: IfId,
            peers: Vec<PeerEntry>,
            trust: &TrustStore,
        ) -> Pcb {
            assert!(!ingress.is_none(), "extension requires a real ingress");
            let hop = HopField::new(ingress, egress, pcb.expires_at, forwarding_key(ia));
            let mut pcb = pcb.clone();
            let signature = sign_next_entry(&pcb, ia, &hop, &peers, trust);
            let mut entries = pcb.entries.into_vec();
            entries.push(Arc::new(AsEntry {
                ia,
                hop,
                peers: peers.into_boxed_slice(),
                signature,
            }));
            pcb.entries = entries.into_boxed_slice();
            pcb
        }

        pub fn validate(pcb: &Pcb, trust: &TrustStore, now: SimTime) -> Result<(), PcbError> {
            if pcb.entries.is_empty() {
                return Err(PcbError::Empty);
            }
            if now >= pcb.expires_at || pcb.initiated_at > now {
                return Err(PcbError::Expired);
            }
            if !pcb.entries[0].hop.ingress.is_none() {
                return Err(PcbError::BadOriginEntry);
            }
            let mut seen = Vec::with_capacity(pcb.entries.len());
            for (i, e) in pcb.entries.iter().enumerate() {
                if seen.contains(&e.ia) {
                    return Err(PcbError::LoopDetected(e.ia));
                }
                seen.push(e.ia);
                if i + 1 < pcb.entries.len() && e.hop.egress.is_none() {
                    return Err(PcbError::MissingEgress);
                }
            }
            for (i, e) in pcb.entries.iter().enumerate() {
                let payload = signed_payload_over(pcb, &pcb.entries[..i], e.ia, &e.hop, &e.peers);
                verify_chain(trust, e.ia, &payload, &e.signature, now)
                    .map_err(|ve| PcbError::Chain(i, ve))?;
            }
            Ok(())
        }
    }

    /// The differential tests' world: thirteen ASes whose certificates
    /// lapse two hours in, so a six-hour beacon can outlive them.
    mod differential {
        use super::*;
        use proptest::prelude::*;

        const POOL: usize = 13;

        fn pool(i: usize) -> IsdAsn {
            [
                ia(1, 1),
                ia(1, 2),
                ia(1, 3),
                ia(1, 4),
                ia(1, 5),
                ia(2, 1),
                ia(2, 2),
                ia(2, 3),
                ia(2, 4),
                ia(2, 5),
                ia(3, 1),
                ia(3, 2),
                ia(3, 3),
            ][i % POOL]
        }

        fn trust() -> TrustStore {
            trust_lacking(None)
        }

        /// The world's store, or the store of a world where `lacking` was
        /// never certified. Every ISD keeps a core either way.
        fn trust_lacking(lacking: Option<IsdAsn>) -> TrustStore {
            TrustStore::bootstrap(
                (0..POOL)
                    .map(|i| (pool(i), matches!(i, 0 | 1 | 5 | 6 | 10 | 11)))
                    .filter(|&(ia, _)| Some(ia) != lacking),
                t(2 * 3600),
            )
        }

        /// One hop as drawn: `(ingress, egress, peers as (AS, local if,
        /// remote if))`; which AS it is follows from its position.
        type Hop = (u16, u16, Vec<(usize, u16, u16)>);

        fn hops() -> impl Strategy<Value = Vec<Hop>> {
            let peers = proptest::collection::vec((0usize..POOL, 1u16..9, 1u16..9), 0..4);
            proptest::collection::vec((1u16..9, 1u16..9, peers), 1..13)
        }

        fn peer(me: IsdAsn, &(peer, local_if, peer_if): &(usize, u16, u16)) -> PeerEntry {
            PeerEntry {
                peer: pool(peer),
                peer_if: IfId(peer_if),
                hop: HopField::new(IfId(local_if), IfId::NONE, t(3600), forwarding_key(me)),
            }
        }

        /// The loop-free chain `hops` describes, starting at `pool(first)`,
        /// built by the current code and by the reference; the two must be
        /// the same beacon, signatures included, at every step — and so
        /// must every beacon one extender makes of it, whatever the egress.
        fn build(tr: &TrustStore, first: usize, hops: &[Hop]) -> Pcb {
            let lifetime = Duration::from_hours(6);
            let (_, egress, _) = hops[0];
            let mut pcb = Pcb::originate(pool(first), IfId(egress), t(100), lifetime, 7, tr);
            let mut old = reference::originate(pool(first), IfId(egress), t(100), lifetime, 7, tr);
            assert_eq!(pcb, old);
            for (i, (ingress, egress, peers)) in hops.iter().enumerate().skip(1) {
                let me = pool(first + i);
                let peers: Vec<PeerEntry> = peers.iter().map(|p| peer(me, p)).collect();
                let (ingress, egress) = (IfId(*ingress), IfId(*egress));
                let extender = pcb.extender(me, ingress, tr);
                for other in [IfId::NONE, IfId(egress.0 + 1), IfId(u16::MAX)] {
                    assert_eq!(
                        extender.extend(other, peers.clone()),
                        reference::extend(&pcb, me, ingress, other, peers.clone(), tr)
                    );
                }
                old = reference::extend(&pcb, me, ingress, egress, peers.clone(), tr);
                pcb = extender.extend(egress, peers);
                assert_eq!(pcb, old);
            }
            pcb
        }

        /// How many ways [`mutate`] knows to damage a beacon or its clock.
        const MUTATIONS: u8 = 21;

        /// Damages `pcb` (or moves `now`) in the `kind`-th way, `a` and `b`
        /// choosing where. Kind 0 leaves both alone.
        fn mutate(pcb: &mut Pcb, now: &mut SimTime, kind: u8, a: usize, b: usize) {
            let n = pcb.entries.len();
            let (i, j) = (a % n, b % n);
            let stranger = PeerEntry {
                peer: pool(b),
                peer_if: IfId(3),
                hop: HopField::new(IfId(4), IfId::NONE, t(3600), forwarding_key(pool(a))),
            };
            match kind {
                0 => {}
                1 => pcb.origin = pool(b),
                2 => pcb.initiated_at = t(b as u64 % 200),
                3 => pcb.expires_at = pcb.expires_at + Duration::from_secs(1),
                4 => pcb.segment_id ^= 1 << (b % 32),
                // An AS of the pool (often one already on the path), or one
                // nobody certified.
                5 => {
                    Arc::make_mut(&mut pcb.entries[i]).ia = match b % 3 {
                        0 => ia(9, 9),
                        _ => pool(b),
                    }
                }
                6 => Arc::make_mut(&mut pcb.entries[i]).hop.ingress = IfId(b as u16 % 12),
                7 => Arc::make_mut(&mut pcb.entries[i]).hop.egress = IfId(b as u16 % 12),
                8 => Arc::make_mut(&mut pcb.entries[i]).hop.expiry = t(b as u64),
                9 => Arc::make_mut(&mut pcb.entries[i]).hop.mac[b % 6] ^= 0x10,
                10 => edit(&mut Arc::make_mut(&mut pcb.entries[i]).peers, |p| {
                    p.push(stranger)
                }),
                11 => edit(&mut Arc::make_mut(&mut pcb.entries[i]).peers, |p| {
                    p.pop();
                }),
                12 => match Arc::make_mut(&mut pcb.entries[i]).peers.first_mut() {
                    Some(p) => p.peer_if = IfId(p.peer_if.0 + 1),
                    None => edit(&mut Arc::make_mut(&mut pcb.entries[i]).peers, |p| {
                        p.push(stranger)
                    }),
                },
                13 => Arc::make_mut(&mut pcb.entries[i]).signature.0[b % 96] ^= 1 << (a % 8),
                14 => pcb.entries.swap(i, j),
                15 => edit(&mut pcb.entries, |e| {
                    e.pop();
                }),
                16 => Arc::make_mut(&mut pcb.entries[i]).ia = pcb.entries[j].ia,
                17 => *now = t(b as u64 % 100),
                18 => *now = pcb.expires_at,
                // Past the certificates' `not_after`, inside the beacon's
                // lifetime.
                19 => *now = t(2 * 3600 + 1 + b as u64 % 3600),
                20 => *now = t(2 * 3600),
                _ => unreachable!("MUTATIONS counts the arms"),
            }
        }

        fn verdicts_agree(pcb: &Pcb, tr: &TrustStore, now: SimTime) -> Result<(), PcbError> {
            let verdict = pcb.validate(tr, now);
            assert_eq!(
                verdict,
                reference::validate(pcb, tr, now),
                "{pcb:?} at {now:?}"
            );
            verdict
        }

        /// Every mutation, at every position of one beacon that has peers:
        /// the verdicts agree, and between them they reach every error the
        /// beacon's own fields can cause.
        #[test]
        fn every_mutation_everywhere_matches_the_reference() {
            let tr = trust();
            let hops: Vec<Hop> = vec![
                (1, 5, vec![]),
                (1, 2, vec![(3, 8, 4), (6, 9, 6)]),
                (3, 4, vec![]),
                (7, 9, vec![(0, 2, 2)]),
            ];
            let pristine = build(&tr, 2, &hops);
            let mut reached = std::collections::BTreeSet::new();
            for kind in 0..MUTATIONS {
                for a in 0..hops.len() {
                    for b in 0..12 {
                        let (mut pcb, mut now) = (pristine.clone(), t(1000));
                        mutate(&mut pcb, &mut now, kind, a, b);
                        let verdict = verdicts_agree(&pcb, &tr, now);
                        reached.insert(match verdict {
                            Ok(()) => "ok",
                            Err(PcbError::Empty) => "empty",
                            Err(PcbError::Expired) => "expired",
                            Err(PcbError::BadOriginEntry) => "bad origin",
                            Err(PcbError::LoopDetected(_)) => "loop",
                            Err(PcbError::MissingEgress) => "missing egress",
                            Err(PcbError::Chain(_, VerifyError::UnknownAs(_))) => "unknown AS",
                            Err(PcbError::Chain(_, VerifyError::CertificateExpired)) => {
                                "certificate expired"
                            }
                            Err(PcbError::Chain(_, VerifyError::BadSignature)) => "bad signature",
                            Err(PcbError::Chain(_, e)) => {
                                panic!("bootstrap issued a bad chain: {e}")
                            }
                        });
                    }
                }
            }
            assert_eq!(
                reached.into_iter().collect::<Vec<_>>(),
                [
                    "bad origin",
                    "bad signature",
                    "certificate expired",
                    "expired",
                    "loop",
                    "missing egress",
                    "ok",
                    "unknown AS"
                ]
            );
            let mut empty = pristine;
            empty.entries = Box::default();
            assert_eq!(verdicts_agree(&empty, &tr, t(1000)), Err(PcbError::Empty));
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

            /// Random loop-free chains of 1–12 entries with 0–3 peer
            /// entries each, so entries end on every residue mod 8 and
            /// chains span several lockstep groups: built byte-equal by
            /// `originate` / the extender and their reference copies,
            /// accepted by both validations, and then — untouched, after
            /// one random mutation, after two, or read against a store
            /// that never certified one of the signers, alone or on top of
            /// the mutations — still given the equal `Result`, error
            /// variant and chain index included.
            #[test]
            fn prop_beacon_path_matches_the_reference(
                first in 0usize..POOL,
                hops in hops(),
                faults in proptest::collection::vec(
                    (0u8..MUTATIONS, any::<u16>(), any::<u16>()), 0..=2),
                lacking in (0u8..4, 0usize..12),
            ) {
                let tr = trust();
                let mut pcb = build(&tr, first, &hops);
                let mut now = t(1000);
                prop_assert_eq!(verdicts_agree(&pcb, &tr, now), Ok(()));
                let stranger = pcb.entries[lacking.1 % hops.len()].ia;
                for (kind, a, b) in faults {
                    if !pcb.entries.is_empty() {
                        mutate(&mut pcb, &mut now, kind, a as usize, b as usize);
                    }
                }
                // Most mutations are rejected, a few (a swap with itself, a
                // dropped peer that was not there) are not: only agreement
                // is asserted.
                verdicts_agree(&pcb, &tr, now).ok();
                if lacking.0 == 0 {
                    let tr = trust_lacking(Some(stranger));
                    verdicts_agree(&pcb, &tr, now).ok();
                }
            }
        }

        /// Every byte of every signature of a chain that spans two lockstep
        /// groups is compared: flipping any one is reported at its entry.
        #[test]
        fn every_signature_byte_is_compared() {
            let tr = trust();
            let hops: Vec<Hop> = vec![
                (1, 5, vec![]),
                (1, 2, vec![(3, 8, 4)]),
                (3, 4, vec![]),
                (7, 9, vec![(0, 2, 2), (6, 9, 6)]),
                (2, 6, vec![]),
            ];
            let pristine = build(&tr, 4, &hops);
            for entry in 0..hops.len() {
                for byte in 0..96 {
                    let mut pcb = pristine.clone();
                    Arc::make_mut(&mut pcb.entries[entry]).signature.0[byte] ^= 0x80;
                    assert_eq!(
                        verdicts_agree(&pcb, &tr, t(1000)),
                        Err(PcbError::Chain(entry, VerifyError::BadSignature)),
                        "byte {byte}"
                    );
                }
            }
        }

        /// Inside one lockstep group, an earlier bad signature is reported
        /// before a later signer the store does not know; the unknown
        /// signer before a bad signature after it.
        #[test]
        fn first_failing_entry_wins() {
            let hops: Vec<Hop> = vec![(1, 5, vec![]), (1, 2, vec![]), (3, 4, vec![])];
            let mut pcb = build(&trust(), 0, &hops);
            let tr = trust_lacking(Some(pcb.entries[1].ia));
            let unknown = VerifyError::UnknownAs(pcb.entries[1].ia);
            assert_eq!(
                verdicts_agree(&pcb, &tr, t(1000)),
                Err(PcbError::Chain(1, unknown.clone()))
            );
            Arc::make_mut(&mut pcb.entries[2]).signature.0[0] ^= 1;
            assert_eq!(
                verdicts_agree(&pcb, &tr, t(1000)),
                Err(PcbError::Chain(1, unknown))
            );
            Arc::make_mut(&mut pcb.entries[0]).signature.0[0] ^= 1;
            assert_eq!(
                verdicts_agree(&pcb, &tr, t(1000)),
                Err(PcbError::Chain(0, VerifyError::BadSignature))
            );
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

            /// Any loop-free extension chain built through the API
            /// validates, and its path key length equals its hop count.
            #[test]
            fn prop_random_chains_validate(hops in proptest::collection::vec((1u64..4, 1u16..9, 1u16..9), 0..3)) {
                let tr = trust();
                // Origin is 1-1; extensions walk distinct ASes 1-2, 1-3, 2-1.
                let mut pcb = Pcb::originate(ia(1, 1), IfId(5), t(0), Duration::from_hours(6), 0, &tr);
                let pool = [ia(1, 2), ia(1, 3), ia(2, 1)];
                for (i, &(_, ing, eg)) in hops.iter().enumerate() {
                    pcb = pcb.extend(pool[i], IfId(ing), IfId(eg), vec![], &tr);
                }
                prop_assert_eq!(pcb.validate(&tr, t(10)), Ok(()));
                prop_assert_eq!(pcb.path_key().0.len(), pcb.hop_count());
                prop_assert_eq!(pcb.interior_links().len(), pcb.hop_count() - 1);
            }

            /// Corrupting any single signature byte anywhere in the chain
            /// is always detected.
            #[test]
            fn prop_any_signature_corruption_detected(entry in 0usize..3, byte in 0usize..96) {
                let tr = trust();
                let mut pcb = sample_pcb(&tr);
                Arc::make_mut(&mut pcb.entries[entry]).signature.0[byte] ^= 0x01;
                prop_assert!(matches!(pcb.validate(&tr, t(10)), Err(PcbError::Chain(_, _))));
            }

            /// Remaining lifetime plus age equals total lifetime while the
            /// beacon is alive.
            #[test]
            fn prop_age_lifetime_identity(offset in 0u64..21_599) {
                let tr = trust();
                let pcb = Pcb::originate(ia(1, 1), IfId(5), t(0), Duration::from_hours(6), 0, &tr);
                let now = t(offset);
                prop_assert_eq!(
                    pcb.age(now) + pcb.remaining_lifetime(now),
                    pcb.lifetime()
                );
            }
        }
    }

    #[test]
    fn peer_entries_signed() {
        let tr = trust();
        let pcb = Pcb::originate(ia(1, 1), IfId(5), t(0), Duration::from_hours(6), 0, &tr);
        let peer = PeerEntry {
            peer: ia(2, 1),
            peer_if: IfId(3),
            hop: HopField::new(IfId(8), IfId::NONE, t(3600), forwarding_key(ia(1, 2))),
        };
        let mut ext = pcb.extend(ia(1, 2), IfId(1), IfId(2), vec![peer], &tr);
        assert_eq!(ext.validate(&tr, t(1)), Ok(()));
        // Dropping the peer entry invalidates the signature.
        Arc::make_mut(&mut ext.entries[1]).peers = Box::default();
        assert!(matches!(
            ext.validate(&tr, t(1)),
            Err(PcbError::Chain(1, _))
        ));
    }
}
