//! The path-server reaction to a fault: revocation of affected segments
//! (§4.1 "Path Revocations") driven from a [`LinkFault`] or from a border
//! router's SCMP.
//!
//! The simulator's fault plane names links by dense [`LinkIndex`]; the
//! path-server layer names them by wire-level [`LinkId`](scion_types::LinkId). This module
//! maps a fault or an SCMP message to links, leaves the pulling (or, with
//! a TTL, the withholding) to the [`PathServer`] and the message
//! accounting to [`scion_pathserver::revocation`], and emits
//! [`TraceEvent::PathInvalidated`] per invalidated destination.

use scion_dataplane::scmp::ScmpMessage;
use scion_pathserver::ledger::Ledger;
use scion_pathserver::revocation::Revocation;
use scion_pathserver::server::PathServer;
use scion_proto::segment::PathSegment;
use scion_simulator::LinkFault;
use scion_telemetry::{ids, Label, Telemetry, TraceEvent};
use scion_topology::{AsTopology, LinkIndex};
use scion_types::{Duration, IsdAsn, SimTime};

/// Reacts to `fault` at a core path server: a `LinkDown` revokes every
/// stored segment crossing that link; an `AsDown` does so for every link
/// incident to the AS. Up/degrade events are no-ops (recovery is handled
/// by re-beaconing and re-registration, not by the revocation machinery).
///
/// Each failed link is accounted by [`Revocation::record`] with
/// `active_flows_per_link` notifications.
pub fn revoke_for_fault(
    ps: &mut PathServer,
    topo: &AsTopology,
    fault: &LinkFault,
    active_flows_per_link: u64,
    ledger: &mut Ledger,
    now: SimTime,
    tel: &mut Telemetry,
) -> Revocation {
    let links = match fault {
        LinkFault::LinkDown(li) => std::slice::from_ref(li),
        LinkFault::AsDown(a) => &topo.node(*a).links[..],
        _ => &[],
    };
    let mut total = Revocation::default();
    for &li in links {
        let pulled = ps.deregister_link(topo.link_id(li));
        let r = Revocation::record(pulled.len(), active_flows_per_link, ledger, now);
        total.segments_revoked += r.segments_revoked;
        total.scmp_notifications += r.scmp_notifications;
        paths_invalidated(ps.isd_asn(), topo, li, &pulled, now, tel);
    }
    total
}

/// The §4.1 closed loop, driven from the data plane: a border router's
/// SCMP `ExternalInterfaceDown` reaches the responsible core path server,
/// which revokes the reported link for `ttl` ([`PathServer::revoke_link`]),
/// so a spurious revocation heals itself and a genuinely dead link is
/// kept revoked by subsequent SCMP-triggered renewals. Returns how many
/// segments were newly withheld.
///
/// Counts every revocation into `pathserver.revocations` and its withheld
/// segments into `pathserver.segments_revoked`, and emits the same
/// invalidations as [`revoke_for_fault`]. Messages are not accounted
/// here: the SCMPs to the endpoints are the data plane's own. A message
/// naming an unknown AS or interface is a counted no-op
/// (`pathserver.rejected_ops`), never a panic.
pub fn revoke_for_scmp(
    ps: &mut PathServer,
    topo: &AsTopology,
    msg: &ScmpMessage,
    ttl: Duration,
    now: SimTime,
    tel: &mut Telemetry,
) -> usize {
    let Some(near) = msg.link_end() else {
        // InvalidPath and friends carry no revocable link.
        return 0;
    };
    let li = topo
        .by_address(near.ia)
        .and_then(|idx| topo.link_by_interface(idx, near.ifid));
    let Some(li) = li else {
        tel.inc(ids::PS_REJECTED_OPS, Label::Global, 1);
        return 0;
    };
    let withheld = ps.revoke_link(topo.link_id(li), now + ttl, now);
    tel.inc(ids::PS_REVOCATIONS, Label::Global, 1);
    if !withheld.is_empty() {
        tel.inc(
            ids::PS_SEGMENTS_REVOKED,
            Label::Global,
            withheld.len() as u64,
        );
    }
    paths_invalidated(ps.isd_asn(), topo, li, &withheld, now, tel);
    withheld.len()
}

/// Counts the segments `server` pulled or withheld for failed link `li` into
/// `chaos.paths_invalidated` and traces one
/// [`TraceEvent::PathInvalidated`] per segment, naming its destination.
fn paths_invalidated(
    server: IsdAsn,
    topo: &AsTopology,
    li: LinkIndex,
    pulled: &[PathSegment],
    now: SimTime,
    tel: &mut Telemetry,
) {
    if pulled.is_empty() {
        return;
    }
    let node = topo.by_address(server).map(|i| i.0).unwrap_or(u32::MAX);
    tel.inc(
        ids::CHAOS_PATHS_INVALIDATED,
        Label::Global,
        pulled.len() as u64,
    );
    for seg in pulled {
        let origin = seg.terminal();
        tel.trace_event(now, || TraceEvent::PathInvalidated {
            node,
            origin,
            link: li.0,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{dual_homed_world, register_down_segments, segments_for};
    use scion_pathserver::ledger::{Component, Scope};
    use scion_types::{Asn, Isd};

    #[test]
    fn link_down_revokes_crossing_segments_and_traces() {
        let topo = dual_homed_world();
        let duration = Duration::from_hours(1);
        let now = SimTime::ZERO + duration;
        let leaf_ia = IsdAsn::new(Isd(1), Asn::from_u64(10));
        let (segs, _) = segments_for(&topo, leaf_ia, duration, 1);
        let mut ps = PathServer::new(IsdAsn::new(Isd(1), Asn::from_u64(1)), true);
        register_down_segments(&mut ps, &segs);

        let leaf = topo.by_address(leaf_ia).unwrap();
        let li = topo.node(leaf).links[0];
        let mut ledger = Ledger::new();
        let mut tel = Telemetry::new(scion_telemetry::TelemetryConfig::default());
        let r = revoke_for_fault(
            &mut ps,
            &topo,
            &LinkFault::LinkDown(li),
            3,
            &mut ledger,
            now,
            &mut tel,
        );
        assert!(r.segments_revoked >= 1);
        assert_eq!(r.scmp_notifications, 3);
        assert_eq!(
            ledger.messages_at(Component::PathRevocation, Scope::IntraIsd),
            1
        );
        assert_eq!(
            ledger.messages_at(Component::PathRevocation, Scope::Global),
            3
        );
        assert_eq!(
            tel.metrics
                .counter(ids::CHAOS_PATHS_INVALIDATED, Label::Global),
            r.segments_revoked as u64
        );
        assert_eq!(tel.traces.len(), r.segments_revoked);
        // The other leaf's segments survive.
        let other = IsdAsn::new(Isd(1), Asn::from_u64(11));
        let (other_segs, _) = segments_for(&topo, other, duration, 1);
        let mut ps2 = PathServer::new(IsdAsn::new(Isd(1), Asn::from_u64(1)), true);
        register_down_segments(&mut ps2, &other_segs);
        let r2 = revoke_for_fault(
            &mut ps2,
            &topo,
            &LinkFault::LinkDown(li),
            0,
            &mut ledger,
            now,
            &mut tel,
        );
        assert_eq!(r2.segments_revoked, 0, "unrelated leaf untouched");
    }

    #[test]
    fn as_down_revokes_across_all_incident_links() {
        let topo = dual_homed_world();
        let duration = Duration::from_hours(1);
        let now = SimTime::ZERO + duration;
        let leaf_ia = IsdAsn::new(Isd(1), Asn::from_u64(10));
        let (segs, _) = segments_for(&topo, leaf_ia, duration, 2);
        let mut ps = PathServer::new(IsdAsn::new(Isd(1), Asn::from_u64(1)), true);
        register_down_segments(&mut ps, &segs);

        let leaf = topo.by_address(leaf_ia).unwrap();
        let mut ledger = Ledger::new();
        let mut tel = Telemetry::disabled();
        let r = revoke_for_fault(
            &mut ps,
            &topo,
            &LinkFault::AsDown(leaf),
            0,
            &mut ledger,
            now,
            &mut tel,
        );
        assert_eq!(r.segments_revoked, segs.len(), "whole min cut gone");
        assert!(ps.lookup_down(leaf_ia, now).unwrap().is_empty());
    }

    #[test]
    fn scmp_drives_ttl_revocation_and_restoration() {
        // The closed loop: dataplane SCMP → PS revocation with a TTL →
        // the segments are served again once it lapses unrenewed.
        let topo = dual_homed_world();
        let duration = Duration::from_hours(6);
        let leaf_ia = IsdAsn::new(Isd(1), Asn::from_u64(10));
        let (segs, _) = segments_for(&topo, leaf_ia, duration, 1);
        let mut ps = PathServer::new(IsdAsn::new(Isd(1), Asn::from_u64(1)), true);
        register_down_segments(&mut ps, &segs);
        let registered = ps.lookup_down(leaf_ia, SimTime::ZERO).unwrap().len();

        // A border router at the leaf's first link reports it down.
        let leaf = topo.by_address(leaf_ia).unwrap();
        let li = topo.node(leaf).links[0];
        let failed = topo.link_id(li);
        let msg = ScmpMessage::ExternalInterfaceDown {
            at: failed.lo().ia,
            interface: failed.lo().ifid,
            observed_at: SimTime::ZERO,
        };

        let ttl = Duration::from_secs(5);
        let mut tel = Telemetry::new(scion_telemetry::TelemetryConfig::default());
        let t0 = SimTime::ZERO + Duration::from_secs(1);
        let r = revoke_for_scmp(&mut ps, &topo, &msg, ttl, t0, &mut tel);
        assert!(r >= 1);
        assert_eq!(ps.lookup_down(leaf_ia, t0).unwrap().len(), registered - r);
        assert_eq!(tel.metrics.counter(ids::PS_REVOCATIONS, Label::Global), 1);
        assert_eq!(
            tel.metrics.counter(ids::PS_SEGMENTS_REVOKED, Label::Global),
            r as u64
        );
        assert_eq!(tel.traces.len(), r);

        // Before the TTL lapses nothing comes back …
        let t_before = t0 + Duration::from_secs(4);
        assert_eq!(
            ps.lookup_down(leaf_ia, t_before).unwrap().len(),
            registered - r
        );
        // … after it, every segment is served again, and a fresh SCMP
        // withholds (and counts) the same ones afresh.
        let t_lapse = t0 + ttl;
        assert_eq!(ps.lookup_down(leaf_ia, t_lapse).unwrap().len(), registered);
        assert_eq!(
            revoke_for_scmp(&mut ps, &topo, &msg, ttl, t_lapse, &mut tel),
            r
        );
        assert_eq!(
            tel.metrics.counter(ids::PS_SEGMENTS_REVOKED, Label::Global),
            2 * r as u64
        );
    }

    #[test]
    fn scmp_for_unknown_interface_is_rejected_not_fatal() {
        let topo = dual_homed_world();
        let mut ps = PathServer::new(IsdAsn::new(Isd(1), Asn::from_u64(1)), true);
        let mut tel = Telemetry::new(scion_telemetry::TelemetryConfig::default());

        // Known AS, bogus interface.
        let msg = ScmpMessage::ExternalInterfaceDown {
            at: IsdAsn::new(Isd(1), Asn::from_u64(1)),
            interface: scion_types::IfId(9999),
            observed_at: SimTime::ZERO,
        };
        let ttl = Duration::from_secs(5);
        let r = revoke_for_scmp(&mut ps, &topo, &msg, ttl, SimTime::ZERO, &mut tel);
        assert_eq!(r, 0);
        // Unknown AS entirely.
        let msg = ScmpMessage::ExternalInterfaceDown {
            at: IsdAsn::new(Isd(9), Asn::from_u64(99)),
            interface: scion_types::IfId(1),
            observed_at: SimTime::ZERO,
        };
        let r = revoke_for_scmp(&mut ps, &topo, &msg, ttl, SimTime::ZERO, &mut tel);
        assert_eq!(r, 0);
        assert_eq!(tel.metrics.counter(ids::PS_REJECTED_OPS, Label::Global), 2);
        // InvalidPath never revokes.
        let msg = ScmpMessage::InvalidPath {
            at: IsdAsn::new(Isd(1), Asn::from_u64(1)),
            observed_at: SimTime::ZERO,
        };
        let r = revoke_for_scmp(&mut ps, &topo, &msg, ttl, SimTime::ZERO, &mut tel);
        assert_eq!(r, 0);
    }

    #[test]
    fn recovery_events_are_no_ops() {
        let topo = dual_homed_world();
        let mut ps = PathServer::new(IsdAsn::new(Isd(1), Asn::from_u64(1)), true);
        let mut ledger = Ledger::new();
        let mut tel = Telemetry::disabled();
        let r = revoke_for_fault(
            &mut ps,
            &topo,
            &LinkFault::LinkUp(LinkIndex(0)),
            5,
            &mut ledger,
            SimTime::ZERO,
            &mut tel,
        );
        assert_eq!(r, Revocation::default());
        assert_eq!(
            ledger.messages_at(Component::PathRevocation, Scope::IntraIsd),
            0
        );
    }
}
