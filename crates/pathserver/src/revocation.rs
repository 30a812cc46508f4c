//! Path revocation on link failure (§4.1 "Path Revocations").
//!
//! "The AS in which the failing link is located revokes the affected path
//! segments at the core path server, which is an intra-ISD operation.
//! Endpoints and border routers that use a path containing a failed link
//! are informed of the link failure through SCION Control Message Protocol
//! (SCMP) messages sent by the border router observing the failed link."

use std::collections::BTreeMap;

use scion_proto::segment::PathSegment;
use scion_proto::wire;
use scion_types::{Duration, LinkId, SimTime};

use crate::ledger::{Component, Ledger, Scope};
use crate::server::PathServer;

/// Result of a link-failure revocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Revocation {
    /// Segments dropped from the core path server.
    pub segments_revoked: usize,
    /// SCMP notifications issued to endpoints with active flows.
    pub scmp_notifications: u64,
}

/// True if `seg` traverses `failed`.
pub fn segment_uses_link(seg: &PathSegment, failed: LinkId) -> bool {
    seg.links_iter().any(|(a, b)| LinkId::new(a, b) == failed)
}

/// Performs the two reactions to a failed link:
///
/// 1. deregisters every affected segment at `core_ps` (one intra-ISD
///    revocation message, accounted to the ledger);
/// 2. issues one SCMP message per active flow that used the link
///    (`active_flows_on_link`), accounted at the appropriate scope.
pub fn revoke_segments(
    core_ps: &mut PathServer,
    failed: LinkId,
    active_flows_on_link: u64,
    ledger: &mut Ledger,
    now: SimTime,
) -> Revocation {
    let segments_revoked = core_ps.deregister_where(|s| segment_uses_link(s, failed));

    // The revocation message itself: AS → core PS, intra-ISD.
    ledger.record(
        Component::PathRevocation,
        Scope::IntraIsd,
        wire::SCMP_REVOCATION,
    );
    ledger.record_event(Component::PathRevocation, now);

    // SCMP notifications to endpoints currently using the link. These can
    // cross ISDs (the endpoint may be anywhere), hence Global scope.
    for _ in 0..active_flows_on_link {
        ledger.record(
            Component::PathRevocation,
            Scope::Global,
            wire::SCMP_REVOCATION,
        );
    }

    Revocation {
        segments_revoked,
        scmp_notifications: active_flows_on_link,
    }
}

/// TTL'd revocation state at a path server (§4.1 deployed behavior):
/// revocations are *soft* — a revoked segment is pulled from the lookup
/// stores but parked here, and when the revocation's TTL lapses without
/// renewal the segment is reinstated. A link that is genuinely still down
/// gets re-revoked by the next SCMP-triggered signal (the data plane acts
/// as the prober), so the TTL bounds how long a spurious or stale
/// revocation can suppress a healthy path.
#[derive(Clone, Debug, Default)]
pub struct RevocationTable {
    /// Per failed link: when the revocation lapses and the segments parked
    /// under it. `BTreeMap` so restoration order is deterministic.
    parked: BTreeMap<LinkId, (SimTime, Vec<PathSegment>)>,
}

impl RevocationTable {
    /// An empty table.
    pub fn new() -> RevocationTable {
        RevocationTable::default()
    }

    /// Revokes every segment at `ps` traversing `failed`, parking the
    /// removed segments until `now + ttl`. Returns how many segments were
    /// newly pulled. A duplicate revocation of an already-revoked link
    /// removes nothing new but *renews* the TTL; a link no stored segment
    /// uses is a counted no-op (unknown links must not panic).
    pub fn revoke_with_ttl(
        &mut self,
        ps: &mut PathServer,
        failed: LinkId,
        now: SimTime,
        ttl: Duration,
    ) -> usize {
        let mut terminals = Vec::new();
        self.revoke_with_ttl_observed(ps, failed, now, ttl, &mut terminals)
    }

    /// [`RevocationTable::revoke_with_ttl`], additionally appending the
    /// terminal AS of every newly pulled segment to `terminals` (for
    /// per-destination invalidation traces).
    pub fn revoke_with_ttl_observed(
        &mut self,
        ps: &mut PathServer,
        failed: LinkId,
        now: SimTime,
        ttl: Duration,
        terminals: &mut Vec<scion_types::IsdAsn>,
    ) -> usize {
        let removed = ps.deregister_collect(|s| segment_uses_link(s, failed));
        let count = removed.len();
        terminals.extend(removed.iter().map(|s| s.terminal()));
        let entry = self
            .parked
            .entry(failed)
            .or_insert_with(|| (now + ttl, Vec::new()));
        entry.0 = now + ttl;
        entry.1.extend(removed);
        count
    }

    /// True while a revocation for `link` is in force at `now`.
    pub fn is_revoked(&self, link: LinkId, now: SimTime) -> bool {
        self.parked
            .get(&link)
            .is_some_and(|&(expires, _)| now < expires)
    }

    /// Reinstates every parked segment whose revocation has lapsed by
    /// `now`. Segments that expired naturally while parked are discarded
    /// rather than reinstated. Returns how many segments went back into
    /// the lookup stores.
    pub fn restore_due(&mut self, ps: &mut PathServer, now: SimTime) -> usize {
        let due: Vec<LinkId> = self
            .parked
            .iter()
            .filter(|(_, &(expires, _))| expires <= now)
            .map(|(&link, _)| link)
            .collect();
        let mut restored = 0;
        for link in due {
            let Some((_, segments)) = self.parked.remove(&link) else {
                continue;
            };
            for seg in segments {
                if seg.is_expired(now) {
                    continue;
                }
                if ps.reinstate_segment(seg, now).is_ok() {
                    restored += 1;
                }
            }
        }
        restored
    }

    /// The earliest instant at which [`RevocationTable::restore_due`]
    /// would do work, if any revocation is outstanding.
    pub fn next_expiry(&self) -> Option<SimTime> {
        self.parked.values().map(|&(expires, _)| expires).min()
    }

    /// Links currently under an unexpired or lapsed-but-unprocessed
    /// revocation.
    pub fn revoked_links(&self) -> usize {
        self.parked.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scion_crypto::trc::TrustStore;
    use scion_proto::pcb::Pcb;
    use scion_proto::segment::SegmentType;
    use scion_types::{Asn, Duration, IfId, Isd, IsdAsn, LinkEnd};

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
    fn duplicate_revocation_is_idempotent_and_renews_ttl() {
        let tr = trust();
        let mut ps = PathServer::new(ia(1), true);
        ps.register_down_segment(down_seg(&tr, 7, 3), SimTime::ZERO)
            .unwrap();
        let failed = LinkId::new(LinkEnd::new(ia(1), IfId(7)), LinkEnd::new(ia(3), IfId(1)));
        let ttl = Duration::from_secs(5);

        let mut table = RevocationTable::new();
        let t0 = SimTime::ZERO + Duration::from_secs(1);
        assert_eq!(table.revoke_with_ttl(&mut ps, failed, t0, ttl), 1);
        // A second revocation for the same (still-down) link finds nothing
        // new to pull, but pushes the restoration deadline out.
        let t1 = t0 + Duration::from_secs(3);
        assert_eq!(table.revoke_with_ttl(&mut ps, failed, t1, ttl), 0);
        assert_eq!(table.next_expiry(), Some(t1 + ttl));
        assert!(table.is_revoked(failed, t0 + ttl));

        // Restoration happens once, with one copy of the segment.
        assert_eq!(table.restore_due(&mut ps, t0 + ttl), 0, "TTL was renewed");
        assert_eq!(table.restore_due(&mut ps, t1 + ttl), 1);
        assert_eq!(ps.lookup_down(ia(3), t1 + ttl).unwrap().len(), 1);
        assert_eq!(table.revoked_links(), 0);
    }

    #[test]
    fn unknown_link_revocation_is_a_counted_noop() {
        let tr = trust();
        let mut ps = PathServer::new(ia(1), true);
        ps.register_down_segment(down_seg(&tr, 7, 3), SimTime::ZERO)
            .unwrap();
        // No stored segment traverses this link.
        let unknown = LinkId::new(LinkEnd::new(ia(2), IfId(99)), LinkEnd::new(ia(5), IfId(99)));

        let mut table = RevocationTable::new();
        let t0 = SimTime::ZERO + Duration::from_secs(1);
        assert_eq!(
            table.revoke_with_ttl(&mut ps, unknown, t0, Duration::from_secs(5)),
            0
        );
        // The existing segment is untouched and restoration has nothing
        // to reinstate.
        assert_eq!(ps.lookup_down(ia(3), t0).unwrap().len(), 1);
        assert_eq!(table.restore_due(&mut ps, t0 + Duration::from_secs(5)), 0);
    }

    #[test]
    fn naturally_expired_segment_is_not_reinstated() {
        let tr = trust();
        let mut ps = PathServer::new(ia(1), true);
        // Lifetime 6h (see `down_seg`); park it, then let the revocation
        // lapse *after* the segment's own expiry.
        ps.register_down_segment(down_seg(&tr, 7, 3), SimTime::ZERO)
            .unwrap();
        let failed = LinkId::new(LinkEnd::new(ia(1), IfId(7)), LinkEnd::new(ia(3), IfId(1)));

        let mut table = RevocationTable::new();
        let t0 = SimTime::ZERO + Duration::from_hours(5);
        assert_eq!(
            table.revoke_with_ttl(&mut ps, failed, t0, Duration::from_hours(2)),
            1
        );
        let t_restore = t0 + Duration::from_hours(2); // 7h > 6h lifetime
        assert_eq!(table.restore_due(&mut ps, t_restore), 0);
        assert!(ps.lookup_down(ia(3), t_restore).unwrap().is_empty());
        assert_eq!(table.revoked_links(), 0, "lapsed entry is still cleared");
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
