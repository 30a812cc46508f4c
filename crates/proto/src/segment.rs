//! Finalized path segments.
//!
//! When beaconing terminates (a PCB reaches a leaf AS, or a core AS decides
//! to register a core path), the receiving AS appends a *terminal* entry —
//! its own AS entry with no egress interface — and registers the result at
//! a path server. The terminal beacon is a **path segment**: every link on
//! it is fully specified.
//!
//! Segment types follow §2.2: *up* (leaf→core inside an ISD), *down*
//! (core→leaf), and *core* (between core ASes). "Up- and down-path segments
//! are interchangeable, simply by reversing the order of ASes in a
//! segment" — segments are stored in beaconing direction (origin first) and
//! reversal happens at path-construction time ([`crate::combine`]).

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use scion_types::{IfId, IsdAsn, LinkEnd, SimTime};

use crate::pcb::{AsEntry, PathKey, Pcb};

/// The role a segment plays in end-to-end path construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SegmentType {
    /// Leaf→core within an ISD (a reversed down-segment).
    Up,
    /// Core→leaf within an ISD (beaconing direction).
    Down,
    /// Between core ASes (possibly across ISDs).
    Core,
}

/// A hop of a traversal: `(AS, ingress, egress)` in travel direction.
pub type TraversalHop = (IsdAsn, IfId, IfId);

/// The hop an entry stands for when its segment is travelled in beaconing
/// direction.
pub(crate) fn forward_hop(e: &AsEntry) -> TraversalHop {
    (e.ia, e.hop.ingress, e.hop.egress)
}

/// The hop an entry stands for when its segment is travelled against
/// beaconing direction: ingress and egress swap.
pub(crate) fn reversed_hop(e: &AsEntry) -> TraversalHop {
    (e.ia, e.hop.egress, e.hop.ingress)
}

/// A finalized path segment.
///
/// The beacon never changes once terminated, so the segment holds it behind
/// an [`Arc`]: a clone — a cache hit, an upstream answer, a re-registration
/// — shares the signed entries instead of copying them. `Arc`, not `Rc`,
/// because path servers cross worker threads. Serialized, the pointer is
/// invisible.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathSegment {
    pub seg_type: SegmentType,
    pcb: Arc<Pcb>,
}

const _: fn() = || {
    fn shareable<T: Send + Sync>() {}
    shareable::<PathSegment>();
};

impl PathSegment {
    /// Finalizes a beacon into a segment.
    ///
    /// # Panics
    /// Panics if the beacon's last entry still has an egress interface set
    /// (i.e. it was captured mid-flight rather than terminated) or if it is
    /// empty.
    pub fn from_terminated_pcb(seg_type: SegmentType, pcb: Pcb) -> PathSegment {
        let last = pcb.entries.last().expect("segment from empty beacon");
        assert!(
            last.hop.egress.is_none(),
            "segment requires a terminated beacon (last egress must be NONE)"
        );
        PathSegment {
            seg_type,
            pcb: Arc::new(pcb),
        }
    }

    /// The underlying beacon (read-only).
    pub fn pcb(&self) -> &Pcb {
        &self.pcb
    }

    /// True when `other` is this segment handed over again: the same
    /// allocation of the same beacon, in the same role. A beacon never
    /// changes behind its [`Arc`], so whatever was derived from the one
    /// holds for the other; equal content under another allocation is not
    /// recognised (compare with `==` for that).
    pub fn same_beacon(&self, other: &PathSegment) -> bool {
        self.seg_type == other.seg_type && Arc::ptr_eq(&self.pcb, &other.pcb)
    }

    /// The initiating core AS.
    pub fn origin(&self) -> IsdAsn {
        self.pcb.origin
    }

    /// The terminal AS (leaf for up/down segments, far core for core
    /// segments).
    pub fn terminal(&self) -> IsdAsn {
        self.pcb.entries.last().expect("non-empty").ia
    }

    /// Number of AS hops.
    pub fn hop_count(&self) -> usize {
        self.pcb.hop_count()
    }

    /// Expiry (inherited from the beacon).
    pub fn expires_at(&self) -> SimTime {
        self.pcb.expires_at
    }

    /// True if expired at `now`.
    pub fn is_expired(&self, now: SimTime) -> bool {
        self.pcb.is_expired(now)
    }

    /// Path identity (see [`PathKey`]).
    pub fn path_key(&self) -> PathKey {
        self.pcb.path_key()
    }

    /// All inter-domain links of the segment, as `(near end, far end)`
    /// pairs in beaconing direction. Fully specified because the segment is
    /// terminated.
    pub fn links(&self) -> Vec<(LinkEnd, LinkEnd)> {
        self.pcb.interior_links()
    }

    /// [`PathSegment::links`] without the `Vec`.
    pub fn links_iter(&self) -> impl Iterator<Item = (LinkEnd, LinkEnd)> + Clone + '_ {
        self.pcb.links_iter()
    }

    /// The hops in beaconing direction (origin first): `(AS, ingress,
    /// egress)` — the origin's ingress and the terminal's egress are
    /// [`IfId::NONE`]. Borrows the segment; nothing is copied.
    pub fn forward_hops(&self) -> impl ExactSizeIterator<Item = TraversalHop> + Clone + '_ {
        self.pcb.path_hops()
    }

    /// The hops reversed for up-path traversal (terminal first, ingress and
    /// egress swapped): "up- and down-path segments are interchangeable,
    /// simply by reversing the order of ASes" (§2.2). Borrows the segment;
    /// nothing is copied.
    pub fn reversed_hops(&self) -> impl ExactSizeIterator<Item = TraversalHop> + Clone + '_ {
        self.pcb.entries.iter().rev().map(reversed_hop)
    }

    /// The AS-level path in beaconing direction.
    pub fn as_path(&self) -> Vec<IsdAsn> {
        self.pcb.as_path()
    }

    /// True if `ia` lies on the segment.
    pub fn contains_as(&self, ia: IsdAsn) -> bool {
        self.pcb.contains_as(ia)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scion_crypto::trc::TrustStore;
    use scion_types::{Asn, Duration, Isd};

    fn ia(isd: u16, asn: u64) -> IsdAsn {
        IsdAsn::new(Isd(isd), Asn::from_u64(asn))
    }

    fn trust() -> TrustStore {
        TrustStore::bootstrap(
            vec![(ia(1, 1), true), (ia(1, 2), false), (ia(1, 3), false)].into_iter(),
            SimTime::ZERO + Duration::from_days(30),
        )
    }

    fn terminated(trust: &TrustStore) -> Pcb {
        Pcb::originate(
            ia(1, 1),
            IfId(5),
            SimTime::ZERO,
            Duration::from_hours(6),
            0,
            trust,
        )
        .extend(ia(1, 2), IfId(1), IfId(2), vec![], trust)
        .extend(ia(1, 3), IfId(7), IfId::NONE, vec![], trust)
    }

    #[test]
    fn finalize_terminated_beacon() {
        let tr = trust();
        let seg = PathSegment::from_terminated_pcb(SegmentType::Down, terminated(&tr));
        assert_eq!(seg.origin(), ia(1, 1));
        assert_eq!(seg.terminal(), ia(1, 3));
        assert_eq!(seg.hop_count(), 3);
        assert_eq!(seg.links().len(), 2);
    }

    #[test]
    #[should_panic(expected = "terminated")]
    fn refuses_in_flight_beacon() {
        let tr = trust();
        let pcb = Pcb::originate(
            ia(1, 1),
            IfId(5),
            SimTime::ZERO,
            Duration::from_hours(6),
            0,
            &tr,
        );
        let _ = PathSegment::from_terminated_pcb(SegmentType::Down, pcb);
    }

    #[test]
    fn reversal_swaps_direction_and_interfaces() {
        let tr = trust();
        let seg = PathSegment::from_terminated_pcb(SegmentType::Down, terminated(&tr));
        let fwd: Vec<TraversalHop> = seg.forward_hops().collect();
        let rev: Vec<TraversalHop> = seg.reversed_hops().collect();
        assert_eq!(fwd.len(), rev.len());
        // Reversed first hop is the terminal AS with swapped interfaces.
        assert_eq!(rev[0], (ia(1, 3), IfId::NONE, IfId(7)));
        assert_eq!(rev[2], (ia(1, 1), IfId(5), IfId::NONE));
        // Forward and reversed visit the same links.
        let relink = |hops: &[TraversalHop]| -> Vec<(IsdAsn, IsdAsn)> {
            hops.windows(2).map(|w| (w[0].0, w[1].0)).collect()
        };
        let mut f = relink(&fwd);
        let r: Vec<_> = relink(&rev)
            .into_iter()
            .map(|(a, b)| (b, a))
            .rev()
            .collect();
        f.sort();
        let mut r = r;
        r.sort();
        assert_eq!(f, r);
    }

    #[test]
    fn clone_shares_the_beacon() {
        let tr = trust();
        let seg = PathSegment::from_terminated_pcb(SegmentType::Down, terminated(&tr));
        let copy = seg.clone();
        assert!(Arc::ptr_eq(&seg.pcb, &copy.pcb));
        assert_eq!(seg, copy);
    }

    /// `serde_json::to_string` of the `terminated` down-segment, captured at
    /// the commit before the segment held its beacon behind a pointer.
    const GOLDEN_JSON: &str = concat!(
        r#"{"seg_type":"Down","pcb":{"origin":{"isd":1,"asn":1},"initiated_at":0,"expires_at":21600"#,
        r#"000000,"segment_id":0,"entries":[{"ia":{"isd":1,"asn":1},"hop":{"ingress":0,"egress":5,""#,
        r#"expiry":21600000000,"mac":[173,191,169,92,57,18]},"peers":[],"signature":[139,211,127,23"#,
        r#"3,252,60,225,156,189,41,241,106,197,117,35,130,185,62,49,243,1,68,15,119,131,108,72,159,"#,
        r#"198,116,204,141,192,195,241,25,201,147,237,63,173,194,106,180,161,247,237,38,199,235,9,1"#,
        r#"57,222,161,134,244,173,157,133,63,40,166,45,28,101,184,233,52,248,109,52,21,111,201,147,"#,
        r#"189,155,241,247,54,38,16,23,46,221,6,60,104,80,74,96,5,84,186,118,83]},{"ia":{"isd":1,"a"#,
        r#"sn":2},"hop":{"ingress":1,"egress":2,"expiry":21600000000,"mac":[9,2,164,122,30,223]},"p"#,
        r#"eers":[],"signature":[245,83,225,4,116,22,115,194,238,20,61,154,113,99,78,204,207,153,21"#,
        r#"8,64,230,27,254,109,56,177,71,132,249,238,225,2,7,97,79,183,147,91,77,151,72,186,72,91,9"#,
        r#"9,7,147,198,38,106,218,77,168,85,35,44,50,186,74,160,197,63,166,117,96,120,121,194,181,1"#,
        r#"14,47,32,6,135,39,222,80,2,99,57,69,20,114,1,39,37,206,165,4,10,246,18,167,12,110,76]},{"#,
        r#""ia":{"isd":1,"asn":3},"hop":{"ingress":7,"egress":0,"expiry":21600000000,"mac":[51,145,"#,
        r#"38,220,174,213]},"peers":[],"signature":[156,239,178,183,58,85,153,34,35,251,33,140,148,"#,
        r#"99,15,217,73,14,20,118,254,79,90,247,101,78,93,37,145,24,36,241,22,213,61,246,81,90,208,"#,
        r#"141,149,74,24,243,31,236,74,105,151,167,10,182,142,251,138,21,83,56,255,143,139,136,27,1"#,
        r#"26,107,231,65,244,173,249,195,34,202,51,90,5,50,30,143,240,9,164,248,116,69,195,29,14,88"#,
        r#",126,109,148,64,196,10,8]}]}}"#,
    );

    #[test]
    fn serialized_form_does_not_show_the_pointer() {
        let tr = trust();
        let seg = PathSegment::from_terminated_pcb(SegmentType::Down, terminated(&tr));
        let json = serde_json::to_string(&seg).unwrap();
        assert_eq!(json, GOLDEN_JSON);
        let back: PathSegment = serde_json::from_str(&json).unwrap();
        assert_eq!(back, seg);
        assert!(!Arc::ptr_eq(&back.pcb, &seg.pcb));
    }

    /// [`terminated`] with two peering links advertised by its middle AS.
    fn terminated_with_peers(trust: &TrustStore) -> Pcb {
        use crate::hopfield::HopField;
        use crate::pcb::{forwarding_key, PeerEntry};
        let expires = SimTime::ZERO + Duration::from_hours(6);
        let peer = |peer: IsdAsn, local_if: u16, peer_if: u16| PeerEntry {
            peer,
            peer_if: IfId(peer_if),
            hop: HopField::new(
                IfId(local_if),
                IfId::NONE,
                expires,
                forwarding_key(ia(1, 2)),
            ),
        };
        Pcb::originate(
            ia(1, 1),
            IfId(5),
            SimTime::ZERO,
            Duration::from_hours(6),
            0,
            trust,
        )
        .extend(
            ia(1, 2),
            IfId(1),
            IfId(2),
            vec![peer(ia(1, 3), 8, 4), peer(ia(2, 7), 9, 6)],
            trust,
        )
        .extend(ia(1, 3), IfId(7), IfId::NONE, vec![], trust)
    }

    /// `serde_json::to_string` of the `terminated_with_peers` down-segment,
    /// captured at the commit before signing and validation serialised a
    /// beacon in one exactly-sized pass: the last two signatures cover the
    /// peer entries' bytes.
    const GOLDEN_PEERS_JSON: &str = concat!(
        r#"{"seg_type":"Down","pcb":{"origin":{"isd":1,"asn":1},"initiated_at":0,"expires_at":21600"#,
        r#"000000,"segment_id":0,"entries":[{"ia":{"isd":1,"asn":1},"hop":{"ingress":0,"egress":5,""#,
        r#"expiry":21600000000,"mac":[173,191,169,92,57,18]},"peers":[],"signature":[139,211,127,23"#,
        r#"3,252,60,225,156,189,41,241,106,197,117,35,130,185,62,49,243,1,68,15,119,131,108,72,159,"#,
        r#"198,116,204,141,192,195,241,25,201,147,237,63,173,194,106,180,161,247,237,38,199,235,9,1"#,
        r#"57,222,161,134,244,173,157,133,63,40,166,45,28,101,184,233,52,248,109,52,21,111,201,147,"#,
        r#"189,155,241,247,54,38,16,23,46,221,6,60,104,80,74,96,5,84,186,118,83]},{"ia":{"isd":1,"a"#,
        r#"sn":2},"hop":{"ingress":1,"egress":2,"expiry":21600000000,"mac":[9,2,164,122,30,223]},"p"#,
        r#"eers":[{"peer":{"isd":1,"asn":3},"peer_if":4,"hop":{"ingress":8,"egress":0,"expiry":2160"#,
        r#"0000000,"mac":[144,173,249,0,124,70]}},{"peer":{"isd":2,"asn":7},"peer_if":6,"hop":{"ing"#,
        r#"ress":9,"egress":0,"expiry":21600000000,"mac":[38,13,6,32,52,0]}}],"signature":[64,32,89"#,
        r#",239,63,105,163,16,160,81,146,135,25,21,79,8,162,4,232,235,201,56,66,130,250,140,228,221"#,
        r#",13,189,163,101,234,126,138,100,111,188,238,111,185,136,9,129,240,186,204,74,136,128,176"#,
        r#",76,151,94,168,196,124,164,43,171,41,5,180,196,249,164,185,2,94,134,231,147,26,137,24,11"#,
        r#"6,77,175,193,173,20,207,223,100,8,7,162,58,29,105,30,160,204,21,74,41]},{"ia":{"isd":1,""#,
        r#"asn":3},"hop":{"ingress":7,"egress":0,"expiry":21600000000,"mac":[51,145,38,220,174,213]"#,
        r#"},"peers":[],"signature":[123,16,250,35,86,57,3,112,121,149,72,69,56,243,218,179,243,243"#,
        r#",217,49,127,213,205,38,115,25,89,47,247,39,164,33,185,217,223,214,165,148,15,79,239,61,1"#,
        r#"70,146,190,191,238,115,57,97,167,212,103,16,225,60,40,141,138,45,170,224,248,141,145,226"#,
        r#",253,30,244,57,124,47,220,117,98,57,29,211,137,43,72,169,123,247,248,75,57,213,223,125,3"#,
        r#"5,166,62,243,41,89]}]}}"#,
    );

    #[test]
    fn peer_entries_sign_the_bytes_they_always_did() {
        let tr = trust();
        let pcb = terminated_with_peers(&tr);
        assert_eq!(pcb.entries.capacity(), pcb.entries.len());
        let seg = PathSegment::from_terminated_pcb(SegmentType::Down, pcb);
        assert_eq!(serde_json::to_string(&seg).unwrap(), GOLDEN_PEERS_JSON);
        assert_eq!(
            seg.pcb()
                .validate(&tr, SimTime::ZERO + Duration::from_secs(1)),
            Ok(())
        );
    }

    #[test]
    fn expiry_propagates() {
        let tr = trust();
        let seg = PathSegment::from_terminated_pcb(SegmentType::Up, terminated(&tr));
        assert!(!seg.is_expired(SimTime::ZERO + Duration::from_hours(5)));
        assert!(seg.is_expired(SimTime::ZERO + Duration::from_hours(6)));
    }
}
