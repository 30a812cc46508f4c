//! End-to-end integration of the whole control plane: beaconing across
//! two ISDs, segment registration at path servers, lookup, three-segment
//! path combination, and cryptographic validation — the complete §2.2/§2.3
//! machinery in one scenario.

use scion_core::beaconing::server::BeaconServer;
use scion_core::crypto::trc::TrustStore;
use scion_core::pathserver::server::PathServer;
use scion_core::prelude::*;

/// Two ISDs, one core AS each, connected by a core link; every core has
/// two leaf customers; leaves of ISD 1 are dual-homed.
fn two_isd_world() -> AsTopology {
    let mut topo = AsTopology::new();
    let core1 = topo.add_as(IsdAsn::new(Isd(1), Asn::from_u64(1)));
    let core2 = topo.add_as(IsdAsn::new(Isd(2), Asn::from_u64(1)));
    topo.set_core(core1, true);
    topo.set_core(core2, true);
    topo.add_link(core1, core2, Relationship::PeerToPeer);
    topo.add_link(core1, core2, Relationship::PeerToPeer); // parallel
    for (isd, core) in [(1u16, core1), (2u16, core2)] {
        for n in 10..12u64 {
            let leaf = topo.add_as(IsdAsn::new(Isd(isd), Asn::from_u64(n)));
            topo.add_link(core, leaf, Relationship::AProviderOfB);
            if isd == 1 {
                topo.add_link(core, leaf, Relationship::AProviderOfB); // dual-homed
            }
        }
    }
    topo.check_invariants().unwrap();
    topo
}

fn trust_for(topo: &AsTopology, horizon: SimTime) -> TrustStore {
    TrustStore::bootstrap(
        topo.as_indices()
            .map(|i| (topo.node(i).ia, topo.node(i).core)),
        horizon,
    )
}

/// Terminates the stored beacons of `origin` at `site` into segments.
fn terminate_segments(
    _topo: &AsTopology,
    srv: &BeaconServer,
    origin: IsdAsn,
    seg_type: SegmentType,
    trust: &TrustStore,
    now: SimTime,
) -> Vec<PathSegment> {
    srv.store()
        .beacons_of(origin, now)
        .into_iter()
        .map(|stored| {
            let pcb =
                stored
                    .pcb
                    .extend(srv.isd_asn(), stored.ingress_if, IfId::NONE, vec![], trust);
            scion_core::proto::segment::PathSegment::from_terminated_pcb(seg_type, pcb)
        })
        .collect()
}

#[test]
fn full_stack_cross_isd_path_construction() {
    let topo = two_isd_world();
    let duration = Duration::from_hours(1);
    let now = SimTime::ZERO + duration;
    let trust = trust_for(&topo, now + Duration::from_days(1));

    // --- Both beaconing levels run on the same world.
    let core_out = run_beaconing(
        &topo,
        &BeaconingConfig::default(),
        &BeaconingRun::core(duration, 1),
        &mut Telemetry::disabled(),
    )
    .outcome;
    let intra_out = run_beaconing(
        &topo,
        &BeaconingConfig::default(),
        &BeaconingRun::intra_isd(duration, 1),
        &mut Telemetry::disabled(),
    )
    .outcome;

    let core1_ia = IsdAsn::new(Isd(1), Asn::from_u64(1));
    let core2_ia = IsdAsn::new(Isd(2), Asn::from_u64(1));
    let src_ia = IsdAsn::new(Isd(1), Asn::from_u64(10));
    let dst_ia = IsdAsn::new(Isd(2), Asn::from_u64(11));
    let src = topo.by_address(src_ia).unwrap();
    let dst = topo.by_address(dst_ia).unwrap();
    let core1 = topo.by_address(core1_ia).unwrap();

    // --- The source terminates up-segments; the destination registers
    //     down-segments at its ISD's core path server; core segments are
    //     registered at ISD 1's core path server.
    let ups = terminate_segments(
        &topo,
        intra_out.server(src).unwrap(),
        core1_ia,
        SegmentType::Up,
        &trust,
        now,
    );
    assert!(
        ups.len() >= 2,
        "dual-homed leaf should hold multiple up-segments, got {}",
        ups.len()
    );

    let downs = terminate_segments(
        &topo,
        intra_out.server(dst).unwrap(),
        core2_ia,
        SegmentType::Down,
        &trust,
        now,
    );
    assert!(!downs.is_empty(), "destination has down-segments");

    let cores = terminate_segments(
        &topo,
        core_out.server(core1).unwrap(),
        core2_ia,
        SegmentType::Core,
        &trust,
        now,
    );
    assert!(
        cores.len() >= 2,
        "parallel core links should yield multiple core segments, got {}",
        cores.len()
    );

    // --- Register + look up through a core path server.
    let mut ps = PathServer::new(core2_ia, true);
    for d in &downs {
        ps.register_down_segment(d.clone(), now)
            .expect("fresh down-segment registers");
    }
    let served = ps
        .lookup_down(dst_ia, now)
        .expect("registered destination resolves");
    assert_eq!(served.len(), downs.len());

    // --- Combine: up (reversed) + core + down. Core segments at ISD1's
    //     core were built from beacons originated at core2, so they
    //     terminate at core1 and need reversal inside combine_paths.
    let mut paths = Vec::new();
    for u in &ups {
        for c in &cores {
            for d in &served {
                if let Ok(p) = combine_paths(Some(u), Some(c), Some(d)) {
                    paths.push(p);
                }
            }
        }
    }
    assert!(!paths.is_empty(), "at least one end-to-end combination");
    for p in &paths {
        assert_eq!(p.source(), src_ia);
        assert_eq!(p.destination(), dst_ia);
        assert_eq!(
            p.as_path(),
            vec![src_ia, core1_ia, core2_ia, dst_ia],
            "cross-ISD path goes leaf -> core -> core -> leaf"
        );
        p.check().unwrap();
    }
    // Distinct combinations use distinct link sequences (multi-path!).
    let distinct: std::collections::HashSet<Vec<_>> = paths.iter().map(|p| p.links()).collect();
    assert!(
        distinct.len() >= 4,
        "dual-homing x parallel core links should give >= 4 distinct paths, got {}",
        distinct.len()
    );
}

#[test]
fn beacons_surviving_the_full_stack_validate_cryptographically() {
    let topo = two_isd_world();
    let duration = Duration::from_hours(1);
    let now = SimTime::ZERO + duration;
    let trust = trust_for(&topo, now + Duration::from_days(1));

    let out = run_beaconing(
        &topo,
        &BeaconingConfig::default(),
        &BeaconingRun::core(duration, 2),
        &mut Telemetry::disabled(),
    )
    .outcome;
    let core1 = topo
        .by_address(IsdAsn::new(Isd(1), Asn::from_u64(1)))
        .unwrap();
    let srv = out.server(core1).unwrap();
    let origin = IsdAsn::new(Isd(2), Asn::from_u64(1));
    let beacons = srv.store().beacons_of(origin, now);
    assert!(!beacons.is_empty());
    for b in beacons {
        b.pcb
            .validate(&trust, now)
            .expect("stored beacon validates");
        assert_eq!(b.pcb.origin, origin);
    }
}

#[test]
fn intra_isd_beacons_stay_within_their_isd() {
    let topo = two_isd_world();
    let duration = Duration::from_hours(1);
    let now = SimTime::ZERO + duration;
    let out = run_beaconing(
        &topo,
        &BeaconingConfig::default(),
        &BeaconingRun::intra_isd(duration, 3),
        &mut Telemetry::disabled(),
    )
    .outcome;

    // A leaf in ISD 2 must know its own core but never ISD 1's core
    // (intra-ISD beaconing is isolated per ISD — paper §5.1 calls
    // simulations of multiple connected ISDs "superfluous" because of it).
    let leaf2 = topo
        .by_address(IsdAsn::new(Isd(2), Asn::from_u64(10)))
        .unwrap();
    let srv = out.server(leaf2).unwrap();
    assert!(!srv
        .store()
        .beacons_of(IsdAsn::new(Isd(2), Asn::from_u64(1)), now)
        .is_empty());
    assert!(srv
        .store()
        .beacons_of(IsdAsn::new(Isd(1), Asn::from_u64(1)), now)
        .is_empty());
}
