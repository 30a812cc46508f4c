//! Path revocation on link failure (§4.1 "Path Revocations").
//!
//! "The AS in which the failing link is located revokes the affected path
//! segments at the core path server, which is an intra-ISD operation.
//! Endpoints and border routers that use a path containing a failed link
//! are informed of the link failure through SCION Control Message Protocol
//! (SCMP) messages sent by the border router observing the failed link."
//!
//! [`revoke_segments`] pulls the segments for good. The deployed
//! revocation has a TTL instead, kept by the server as the link's lapse
//! time ([`PathServer::revoke_link`]); SCMP renewals keep a dead link
//! revoked, and the TTL bounds how long a stale one suppresses a path.

use scion_proto::segment::PathSegment;
use scion_proto::wire;
use scion_types::{LinkId, SimTime};

use crate::ledger::{Component, Ledger, Scope};
use crate::server::PathServer;

/// What revoking one or more failed links pulled and notified.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Revocation {
    /// Segments dropped from the core path server.
    pub segments_revoked: usize,
    /// SCMP notifications issued to endpoints with active flows.
    pub scmp_notifications: u64,
}

impl Revocation {
    /// Accounts one failed link's revocation that pulled
    /// `segments_revoked` segments: the observing AS sends its core path
    /// server one intra-ISD revocation message, and each of the
    /// `active_flows` endpoints using the link gets one SCMP notification.
    /// The endpoint may be anywhere, so those are global. A revocation that
    /// pulled nothing sends nothing.
    pub fn record(
        segments_revoked: usize,
        active_flows: u64,
        ledger: &mut Ledger,
        now: SimTime,
    ) -> Revocation {
        if segments_revoked == 0 {
            return Revocation::default();
        }
        ledger.record(
            Component::PathRevocation,
            Scope::IntraIsd,
            wire::SCMP_REVOCATION,
        );
        ledger.record_event(Component::PathRevocation, now);
        for _ in 0..active_flows {
            ledger.record(
                Component::PathRevocation,
                Scope::Global,
                wire::SCMP_REVOCATION,
            );
        }
        Revocation {
            segments_revoked,
            scmp_notifications: active_flows,
        }
    }
}

/// True if `seg` traverses `failed`.
pub fn segment_uses_link(seg: &PathSegment, failed: LinkId) -> bool {
    seg.links_iter().any(|(a, b)| LinkId::new(a, b) == failed)
}

/// Revokes `failed` at `core_ps`: pulls every segment crossing it
/// ([`PathServer::deregister_link`]) and accounts the messages
/// ([`Revocation::record`]) for `active_flows_on_link` endpoints.
pub fn revoke_segments(
    core_ps: &mut PathServer,
    failed: LinkId,
    active_flows_on_link: u64,
    ledger: &mut Ledger,
    now: SimTime,
) -> Revocation {
    let pulled = core_ps.deregister_link(failed).len();
    Revocation::record(pulled, active_flows_on_link, ledger, now)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use scion_crypto::trc::TrustStore;
    use scion_proto::pcb::Pcb;
    use scion_proto::segment::SegmentType;
    use scion_types::{Asn, Duration, IfId, Isd, IsdAsn, LinkEnd};
    use std::collections::BTreeMap;

    fn ia(asn: u64) -> IsdAsn {
        IsdAsn::new(Isd(1), Asn::from_u64(asn))
    }

    fn trust() -> TrustStore {
        TrustStore::bootstrap(
            (1..=5).map(|n| (ia(n), n == 1)),
            SimTime::ZERO + Duration::from_days(30),
        )
    }

    fn down_seg(tr: &TrustStore, mid_egress: u16, leaf: u64) -> PathSegment {
        let pcb = Pcb::originate(
            ia(1),
            IfId(mid_egress),
            SimTime::ZERO,
            Duration::from_hours(6),
            0,
            tr,
        )
        .extend(ia(leaf), IfId(1), IfId::NONE, vec![], tr);
        PathSegment::from_terminated_pcb(SegmentType::Down, pcb)
    }

    #[test]
    fn revocation_drops_only_affected_segments() {
        let tr = trust();
        let mut ps = PathServer::new(ia(1), true);
        ps.register_down_segment(down_seg(&tr, 7, 3), SimTime::ZERO)
            .unwrap(); // via link 1#7 <-> 3#1
        ps.register_down_segment(down_seg(&tr, 8, 4), SimTime::ZERO)
            .unwrap(); // via link 1#8 <-> 4#1
        let failed = LinkId::new(LinkEnd::new(ia(1), IfId(7)), LinkEnd::new(ia(3), IfId(1)));

        let mut ledger = Ledger::new();
        let r = revoke_segments(&mut ps, failed, 3, &mut ledger, SimTime::ZERO);
        assert_eq!(r.segments_revoked, 1);
        assert_eq!(r.scmp_notifications, 3);
        assert!(ps.lookup_down(ia(3), SimTime::ZERO).unwrap().is_empty());
        assert_eq!(ps.lookup_down(ia(4), SimTime::ZERO).unwrap().len(), 1);
        // Ledger: 1 intra-ISD revocation + 3 global SCMP.
        assert_eq!(
            ledger.messages_at(Component::PathRevocation, Scope::IntraIsd),
            1
        );
        assert_eq!(
            ledger.messages_at(Component::PathRevocation, Scope::Global),
            3
        );
    }

    #[test]
    fn revoking_a_link_no_segment_uses_sends_nothing() {
        let tr = trust();
        let mut ps = PathServer::new(ia(1), true);
        ps.register_down_segment(down_seg(&tr, 7, 3), SimTime::ZERO)
            .unwrap();
        let unused = LinkId::new(LinkEnd::new(ia(1), IfId(9)), LinkEnd::new(ia(4), IfId(1)));

        let mut ledger = Ledger::new();
        let r = revoke_segments(&mut ps, unused, 5, &mut ledger, SimTime::ZERO);
        assert_eq!(r.segments_revoked, 0);
        assert_eq!(r.scmp_notifications, 0);
        assert_eq!(ledger.messages(Component::PathRevocation), 0);
        assert_eq!(ledger.mean_period(Component::PathRevocation), None);
        assert_eq!(ps.lookup_down(ia(3), SimTime::ZERO).unwrap().len(), 1);
    }

    #[test]
    fn duplicate_revocation_is_idempotent_and_renews_ttl() {
        let tr = trust();
        let mut ps = PathServer::new(ia(1), true);
        ps.register_down_segment(down_seg(&tr, 7, 3), SimTime::ZERO)
            .unwrap();
        let failed = LinkId::new(LinkEnd::new(ia(1), IfId(7)), LinkEnd::new(ia(3), IfId(1)));
        let ttl = Duration::from_secs(5);

        let t0 = SimTime::ZERO + Duration::from_secs(1);
        assert_eq!(ps.revoke_link(failed, t0 + ttl, t0).len(), 1);
        // A second revocation for the same (still-down) link withholds
        // nothing new, but pushes the lapse out.
        let t1 = t0 + Duration::from_secs(3);
        assert!(ps.revoke_link(failed, t1 + ttl, t1).is_empty());
        assert!(
            ps.lookup_down(ia(3), t0 + ttl).unwrap().is_empty(),
            "TTL was renewed"
        );

        // The lapse serves the segment again, once.
        assert_eq!(ps.lookup_down(ia(3), t1 + ttl).unwrap().len(), 1);
        // A revocation after the lapse withholds it afresh.
        let t2 = t1 + ttl;
        assert_eq!(ps.revoke_link(failed, t2 + ttl, t2).len(), 1);
        assert!(ps.lookup_down(ia(3), t2).unwrap().is_empty());
    }

    #[test]
    fn unknown_link_revocation_is_a_counted_noop() {
        let tr = trust();
        let mut ps = PathServer::new(ia(1), true);
        ps.register_down_segment(down_seg(&tr, 7, 3), SimTime::ZERO)
            .unwrap();
        // No stored segment traverses this link.
        let unknown = LinkId::new(LinkEnd::new(ia(2), IfId(99)), LinkEnd::new(ia(5), IfId(99)));

        let t0 = SimTime::ZERO + Duration::from_secs(1);
        let lapse = t0 + Duration::from_secs(5);
        assert!(ps.revoke_link(unknown, lapse, t0).is_empty());
        // The existing segment is served throughout.
        assert_eq!(ps.lookup_down(ia(3), t0).unwrap().len(), 1);
        assert_eq!(ps.lookup_down(ia(3), lapse).unwrap().len(), 1);
    }

    #[test]
    fn naturally_expired_segment_is_not_reinstated() {
        let tr = trust();
        let mut ps = PathServer::new(ia(1), true);
        // Lifetime 6h (see `down_seg`); revoke it, then let the revocation
        // lapse *after* the segment's own expiry.
        ps.register_down_segment(down_seg(&tr, 7, 3), SimTime::ZERO)
            .unwrap();
        let failed = LinkId::new(LinkEnd::new(ia(1), IfId(7)), LinkEnd::new(ia(3), IfId(1)));

        let t0 = SimTime::ZERO + Duration::from_hours(5);
        let lapse = t0 + Duration::from_hours(2); // 7h > 6h lifetime
        assert_eq!(ps.revoke_link(failed, lapse, t0).len(), 1);
        assert!(ps.lookup_down(ia(3), lapse).unwrap().is_empty());
        // An expired segment is not served, so a fresh revocation does
        // not withhold it either.
        assert!(ps
            .revoke_link(failed, lapse + Duration::from_hours(1), lapse)
            .is_empty());
    }

    /// Down-segment `path` (0..8) of three hops, `1 → 2 → leaf`, over
    /// [`pool_links`]: bit 0 picks the first link, bit 1 the second
    /// link's interfaces and bit 2 the leaf (3 or 4), so paths share
    /// links. Registered at zero, it expires after `lifetime_s` seconds.
    fn two_link_seg(tr: &TrustStore, path: usize, lifetime_s: u64) -> PathSegment {
        let e1 = 1 + (path & 1) as u16;
        let e2 = 3 + (path >> 1 & 1) as u16;
        let leaf = 3 + (path >> 2 & 1) as u64;
        let lifetime = Duration::from_secs(lifetime_s);
        let pcb = Pcb::originate(ia(1), IfId(e1), SimTime::ZERO, lifetime, 0, tr)
            .extend(ia(2), IfId(10 + e1), IfId(e2), vec![], tr)
            .extend(ia(leaf), IfId(10 + e2), IfId::NONE, vec![], tr);
        PathSegment::from_terminated_pcb(SegmentType::Down, pcb)
    }

    /// The six links [`two_link_seg`]'s paths cross: `1#e – 2#(10+e)`
    /// for `e` in 1..=2, then `2#e – leaf#(10+e)` for leaf 3 and 4.
    fn pool_links() -> [LinkId; 6] {
        let link = |a: u64, a_if: u16, b: u64, b_if: u16| {
            LinkId::new(
                LinkEnd::new(ia(a), IfId(a_if)),
                LinkEnd::new(ia(b), IfId(b_if)),
            )
        };
        [
            link(1, 1, 2, 11),
            link(1, 2, 2, 12),
            link(2, 3, 3, 13),
            link(2, 4, 3, 14),
            link(2, 3, 4, 13),
            link(2, 4, 4, 14),
        ]
    }

    fn hops(seg: &PathSegment) -> Vec<(IsdAsn, IfId, IfId)> {
        seg.forward_hops().collect()
    }

    /// Registers each of `segs`' paths (0..8) with its lifetime at a
    /// fresh core server, skipping repeats of a path; returns the server
    /// and the segments, in registration order.
    fn register_pool(tr: &TrustStore, segs: Vec<(usize, u64)>) -> (PathServer, Vec<PathSegment>) {
        let mut ps = PathServer::new(ia(1), true);
        let mut registered: Vec<PathSegment> = Vec::new();
        for (path, lifetime_s) in segs {
            let seg = two_link_seg(tr, path, lifetime_s);
            if registered.iter().all(|r| hops(r) != hops(&seg)) {
                ps.register_down_segment(seg.clone(), SimTime::ZERO)
                    .unwrap();
                registered.push(seg);
            }
        }
        (ps, registered)
    }

    /// What the server serves at `now`, as hop lists.
    fn served(ps: &PathServer, now: SimTime) -> Vec<Vec<(IsdAsn, IfId, IfId)>> {
        [3, 4]
            .iter()
            .flat_map(|&leaf| ps.lookup_down(ia(leaf), now).unwrap())
            .map(|s| hops(&s))
            .collect()
    }

    proptest! {
        // The revocation law over random registrations, and random
        // revocations (renewals included) and lookups at non-decreasing
        // times, against a model holding only each link's lapse time:
        // after every step, a registered segment is served, once, exactly
        // when it is unexpired and no link it crosses is under a
        // revocation in force; and `revoke_link` returns exactly the
        // segments served before the call and withheld after it, in
        // store order.
        fn prop_a_segment_is_served_exactly_when_unexpired_and_unrevoked(
            segs in proptest::collection::vec((0usize..8, 1u64..40), 1..8),
            steps in proptest::collection::vec((0u8..2, 0usize..6, 0u64..4, 1u64..8), 0..48),
        ) {
            let tr = trust();
            let (mut ps, registered) = register_pool(&tr, segs);
            let links = pool_links();
            let mut lapses: BTreeMap<LinkId, SimTime> = BTreeMap::new();
            let mut now = SimTime::ZERO;
            for (op, li, dt, ttl) in steps {
                now = now + Duration::from_secs(dt);
                if op == 0 {
                    let link = links[li];
                    let until = now + Duration::from_secs(ttl);
                    let before = served(&ps, now);
                    let withheld = ps.revoke_link(link, until, now);
                    lapses.insert(link, until);
                    let after = served(&ps, now);
                    let mut expected: Vec<&PathSegment> = registered
                        .iter()
                        .filter(|s| before.contains(&hops(s)) && !after.contains(&hops(s)))
                        .collect();
                    expected.sort_by_key(|s| s.terminal());
                    prop_assert_eq!(
                        withheld.iter().map(hops).collect::<Vec<_>>(),
                        expected.into_iter().map(hops).collect::<Vec<_>>()
                    );
                }
                let served = served(&ps, now);
                for seg in &registered {
                    let key = hops(seg);
                    let revoked = lapses
                        .iter()
                        .any(|(&l, &lapse)| now < lapse && segment_uses_link(seg, l));
                    let copies = served.iter().filter(|s| **s == key).count();
                    let expected = usize::from(!seg.is_expired(now) && !revoked);
                    prop_assert_eq!(copies, expected, "{:?} at {:?}", key, now);
                }
            }
        }

        // With no other revocation in force, a soft revocation withholds
        // exactly what the hard one pulls, less what has expired. An
        // earlier revocation of some link, lapsed by then, is in the map
        // or dropped from it; neither may show.
        fn prop_a_lone_revocation_withholds_what_deregistering_pulls(
            segs in proptest::collection::vec((0usize..8, 1u64..40), 1..8),
            earlier in 0usize..6,
            earlier_lapse_s in 0u64..24,
            li in 0usize..6,
            dt in 0u64..24,
            ttl in 1u64..8,
        ) {
            let tr = trust();
            let (mut ps, _) = register_pool(&tr, segs);
            let links = pool_links();
            let lapsed = SimTime::ZERO + Duration::from_secs(earlier_lapse_s);
            ps.revoke_link(links[earlier], lapsed, SimTime::ZERO);
            let now = lapsed + Duration::from_secs(dt);
            let link = links[li];
            let pulled: Vec<PathSegment> = ps
                .clone()
                .deregister_link(link)
                .into_iter()
                .filter(|s| !s.is_expired(now))
                .collect();
            prop_assert_eq!(ps.revoke_link(link, now + Duration::from_secs(ttl), now), pulled);
        }
    }

    /// The any-link law: a segment crossing two revoked links stays
    /// unserved until the later of the two revocations lapses. The
    /// recovery row meets this case at its default seed.
    #[test]
    fn a_segment_stays_unserved_while_any_link_it_crosses_is_revoked() {
        let tr = trust();
        let mut ps = PathServer::new(ia(1), true);
        let seg = two_link_seg(&tr, 0, 3_600);
        ps.register_down_segment(seg.clone(), SimTime::ZERO)
            .unwrap();
        let [first, second] = [0, 2].map(|i| pool_links()[i]);
        assert!(segment_uses_link(&seg, first) && segment_uses_link(&seg, second));
        let t = |s: u64| SimTime::ZERO + Duration::from_secs(s);
        assert_eq!(
            ps.revoke_link(second, t(3), t(0)),
            std::slice::from_ref(&seg)
        );
        assert!(ps.revoke_link(first, t(8), t(1)).is_empty());
        assert!(
            ps.lookup_down(ia(3), t(3)).unwrap().is_empty(),
            "served across a revoked link"
        );
        assert!(ps.lookup_down(ia(3), t(7)).unwrap().is_empty());
        assert_eq!(ps.lookup_down(ia(3), t(8)).unwrap(), [seg]);
    }

    #[test]
    fn segment_uses_link_is_exact() {
        let tr = trust();
        let seg = down_seg(&tr, 7, 3);
        let on = LinkId::new(LinkEnd::new(ia(1), IfId(7)), LinkEnd::new(ia(3), IfId(1)));
        let off = LinkId::new(LinkEnd::new(ia(1), IfId(9)), LinkEnd::new(ia(3), IfId(1)));
        assert!(segment_uses_link(&seg, on));
        assert!(!segment_uses_link(&seg, off));
    }
}
