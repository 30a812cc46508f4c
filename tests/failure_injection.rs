//! Failure-injection integration tests: link failures, revocation at path
//! servers, SCMP-driven failover, beacon-expiry behaviour, and scripted
//! chaos runs through the beaconing driver.
//!
//! The dual-homed fixture world and its beaconing → segment plumbing live
//! in `scion_chaos::testkit`, shared with the chaos crate's unit tests and
//! the resilience experiment.

use scion_core::beaconing::paths::known_paths;
use scion_core::beaconing::ChaosConfig;
use scion_core::chaos::testkit::{dual_homed_world, register_down_segments, segments_for};
use scion_core::chaos::Script;
use scion_core::pathserver::ledger::{Component, Ledger, Scope};
use scion_core::pathserver::revocation::{revoke_segments, segment_uses_link};
use scion_core::pathserver::server::PathServer;
use scion_core::prelude::*;
use scion_core::types::LinkId;

#[test]
fn failover_survives_single_link_failure_on_dual_homed_leaf() {
    let topo = dual_homed_world();
    let duration = Duration::from_hours(1);
    let now = SimTime::ZERO + duration;
    let leaf_ia = IsdAsn::new(Isd(1), Asn::from_u64(10));
    let (segs, _) = segments_for(&topo, leaf_ia, duration, 1);
    assert!(segs.len() >= 2, "dual-homing yields >= 2 down-segments");

    let mut ps = PathServer::new(IsdAsn::new(Isd(1), Asn::from_u64(1)), true);
    register_down_segments(&mut ps, &segs);

    // Fail the link used by the first segment.
    let (a, b) = segs[0].links()[0];
    let failed = LinkId::new(a, b);
    let mut ledger = Ledger::new();
    let rev = revoke_segments(&mut ps, failed, 3, &mut ledger, now);
    assert!(rev.segments_revoked >= 1);

    // Remaining segments avoid the failed link, and at least one survives.
    let remaining = ps
        .lookup_down(leaf_ia, now)
        .expect("core server answers down-segment lookups");
    assert!(!remaining.is_empty(), "dual-homed leaf stays reachable");
    for s in &remaining {
        assert!(!segment_uses_link(s, failed));
    }

    // Accounting matches §4.1: one intra-ISD revocation plus per-flow
    // global SCMP notifications.
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
fn double_failure_disconnects_exactly_at_the_min_cut() {
    let topo = dual_homed_world();
    let duration = Duration::from_hours(1);
    let now = SimTime::ZERO + duration;
    let leaf_ia = IsdAsn::new(Isd(1), Asn::from_u64(10));
    let (segs, _) = segments_for(&topo, leaf_ia, duration, 2);

    let mut ps = PathServer::new(IsdAsn::new(Isd(1), Asn::from_u64(1)), true);
    register_down_segments(&mut ps, &segs);
    // The leaf's min cut is 2 (its two parallel links). Fail both.
    let leaf = topo.by_address(leaf_ia).unwrap();
    let mut ledger = Ledger::new();
    for li in topo.node(leaf).links.clone() {
        let failed = topo.link_id(li);
        revoke_segments(&mut ps, failed, 0, &mut ledger, now);
    }
    assert!(
        ps.lookup_down(leaf_ia, now)
            .expect("core server answers down-segment lookups")
            .is_empty(),
        "failing the whole min cut must disconnect"
    );
    // The other leaf is untouched.
    let other = IsdAsn::new(Isd(1), Asn::from_u64(11));
    let (other_segs, _) = segments_for(&topo, other, duration, 2);
    assert!(!other_segs.is_empty());
}

#[test]
fn beacons_expire_without_refresh() {
    // Run beaconing for half a lifetime, then check that every stored
    // beacon is gone one lifetime after the run stopped (nothing
    // refreshes once the simulation ends).
    let topo = dual_homed_world();
    let cfg = BeaconingConfig {
        interval: Duration::from_secs(100),
        pcb_lifetime: Duration::from_secs(3600),
        ..BeaconingConfig::default()
    };
    let out = run_beaconing(
        &topo,
        &cfg,
        &BeaconingRun::intra_isd(Duration::from_secs(1800), 3),
        &mut Telemetry::disabled(),
    )
    .outcome;
    let leaf = topo
        .by_address(IsdAsn::new(Isd(1), Asn::from_u64(10)))
        .unwrap();
    let srv = out.server(leaf).unwrap();
    let core_ia = IsdAsn::new(Isd(1), Asn::from_u64(1));

    let mid = SimTime::ZERO + Duration::from_secs(1800);
    assert!(!srv.store().beacons_of(core_ia, mid).is_empty());
    let after = SimTime::ZERO + Duration::from_secs(1800 + 3600);
    assert!(
        srv.store().beacons_of(core_ia, after).is_empty(),
        "all beacons must be expired one lifetime later"
    );
}

#[test]
fn scripted_outage_respects_the_dual_homed_min_cut() {
    // End-to-end chaos run: a scripted outage of ONE of the leaf's two
    // parallel links must not dent reachability (failover to the sibling
    // link), while an overlapping outage of BOTH — the min cut — must.
    let topo = dual_homed_world();
    let core = topo
        .by_address(IsdAsn::new(Isd(1), Asn::from_u64(1)))
        .unwrap();
    let leaf = topo
        .by_address(IsdAsn::new(Isd(1), Asn::from_u64(10)))
        .unwrap();
    let links = topo.links_between(core, leaf);
    assert_eq!(links.len(), 2);
    let t = |s: u64| SimTime::ZERO + Duration::from_secs(s);

    let pairs = vec![(core, leaf)];
    let cfg = BeaconingConfig {
        interval: Duration::from_secs(100),
        ..BeaconingConfig::default()
    };
    let run = |script: scion_core::chaos::Script| {
        let schedule = script.build();
        let run = BeaconingRun {
            chaos: Some(ChaosConfig {
                schedule: &schedule,
                probe_pairs: &pairs,
                probe_cadence: Duration::from_secs(100),
            }),
            ..BeaconingRun::intra_isd(Duration::from_secs(6000), 1)
        };
        run_beaconing(&topo, &cfg, &run, &mut Telemetry::disabled()).chaos
    };

    // Single-link outage: the sibling link keeps the pair live throughout.
    let single = run(Script::new().link_outage(links[0], t(2000), t(4000)));
    assert_eq!(single.fault_events_applied, 2);
    assert!(
        single
            .probes
            .iter()
            .filter(|p| p.t >= t(1000))
            .all(|p| p.fraction() == 1.0),
        "dual-homing must mask a single-link outage"
    );

    // Min-cut outage: both links down in an overlapping window.
    let both = run(Script::new()
        .link_outage(links[0], t(2000), t(4000))
        .link_outage(links[1], t(2500), t(3500)));
    let during = both
        .probes
        .iter()
        .filter(|p| p.t > t(2500) && p.t < t(3500))
        .map(|p| p.fraction())
        .fold(1.0, f64::min);
    assert_eq!(during, 0.0, "failing the whole min cut must disconnect");
    assert_eq!(
        both.probes.last().unwrap().fraction(),
        1.0,
        "reachability recovers after both links return"
    );
}

#[test]
fn diversity_keeps_connectivity_across_many_lifetimes() {
    // The connectivity objective (§4.2): even with aggressive resend
    // suppression, every pair must hold a *valid* path at the end of a
    // long run spanning several PCB lifetimes.
    let internet = generate_internet(&GeneratorConfig::small(80, 17));
    let (mut core, _) = prune_to_top_degree(&internet, 8);
    scion_core::topology::isd::assign_isds(&mut core, 4);
    let cfg = BeaconingConfig {
        interval: Duration::from_secs(100),
        pcb_lifetime: Duration::from_secs(3600),
        ..BeaconingConfig::diversity()
    };
    let duration = Duration::from_secs(4 * 3600); // 4 lifetimes
    let out = run_beaconing(
        &core,
        &cfg,
        &BeaconingRun::core(duration, 17),
        &mut Telemetry::disabled(),
    )
    .outcome;
    let now = SimTime::ZERO + duration;
    for origin in core.core_ases() {
        for holder in core.core_ases() {
            if origin == holder {
                continue;
            }
            let srv = out.server(holder).unwrap();
            let paths = known_paths(&core, srv, core.node(origin).ia, now);
            assert!(
                !paths.is_empty(),
                "connectivity lost {} -> {} after 4 lifetimes",
                core.node(origin).ia,
                core.node(holder).ia
            );
        }
    }
}
