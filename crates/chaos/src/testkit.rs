//! Shared experiment/test fixtures: small worlds with known min-cuts and
//! the beaconing → path-server plumbing to populate them.
//!
//! These helpers started life duplicated across integration tests
//! (`tests/failure_injection.rs`) and are shared here so the resilience
//! experiment, the chaos unit tests, and the integration tests all build
//! identical worlds.

use scion_beaconing::{run_beaconing, BeaconingConfig, BeaconingRun};
use scion_crypto::trc::TrustStore;
use scion_pathserver::server::PathServer;
use scion_proto::segment::{PathSegment, SegmentType};
use scion_telemetry::Telemetry;
use scion_topology::{AsTopology, Relationship};
use scion_types::{Asn, Duration, IfId, Isd, IsdAsn, SimTime};

/// One core providing to two dual-homed leaves (each leaf has two
/// parallel links to the core, so its min cut is 2).
pub fn dual_homed_world() -> AsTopology {
    let mut topo = AsTopology::new();
    let core = topo.add_as(IsdAsn::new(Isd(1), Asn::from_u64(1)));
    topo.set_core(core, true);
    for n in [10u64, 11] {
        let leaf = topo.add_as(IsdAsn::new(Isd(1), Asn::from_u64(n)));
        topo.add_link(core, leaf, Relationship::AProviderOfB);
        topo.add_link(core, leaf, Relationship::AProviderOfB);
    }
    topo
}

/// Runs intra-ISD beaconing for `duration`, then terminates the beacons
/// stored at `leaf_ia` into down-segments (as the leaf would register them
/// with its core path server). Returns the segments plus the trust store
/// that signed them.
pub fn segments_for(
    topo: &AsTopology,
    leaf_ia: IsdAsn,
    duration: Duration,
    seed: u64,
) -> (Vec<PathSegment>, TrustStore) {
    let now = SimTime::ZERO + duration;
    let trust = TrustStore::bootstrap(
        topo.as_indices()
            .map(|i| (topo.node(i).ia, topo.node(i).core)),
        now + Duration::from_days(1),
    );
    let out = run_beaconing(
        topo,
        &BeaconingConfig::default(),
        &BeaconingRun::intra_isd(duration, seed),
        &mut Telemetry::disabled(),
    )
    .outcome;
    let leaf = topo.by_address(leaf_ia).unwrap();
    let srv = out.server(leaf).unwrap();
    let core_ia = IsdAsn::new(Isd(1), Asn::from_u64(1));
    let segs = srv
        .store()
        .beacons_of(core_ia, now)
        .into_iter()
        .map(|b| {
            let pcb = b
                .pcb
                .extend(leaf_ia, b.ingress_if, IfId::NONE, vec![], &trust);
            PathSegment::from_terminated_pcb(SegmentType::Down, pcb)
        })
        .collect();
    (segs, trust)
}

/// Registers every down-segment at `ps` (a core path server), as of the
/// epoch — testkit segments are freshly minted, so nothing is GC-eligible.
pub fn register_down_segments(ps: &mut PathServer, segs: &[PathSegment]) {
    for s in segs {
        ps.register_down_segment(s.clone(), SimTime::ZERO).unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dual_homed_world_has_two_leaves_with_min_cut_two() {
        let topo = dual_homed_world();
        assert_eq!(topo.num_ases(), 3);
        assert_eq!(topo.num_links(), 4);
        let core = topo
            .by_address(IsdAsn::new(Isd(1), Asn::from_u64(1)))
            .unwrap();
        assert!(topo.node(core).core);
        for n in [10u64, 11] {
            let leaf = topo
                .by_address(IsdAsn::new(Isd(1), Asn::from_u64(n)))
                .unwrap();
            assert_eq!(topo.links_between(core, leaf).len(), 2);
        }
    }

    #[test]
    fn segments_cover_the_dual_homing() {
        let topo = dual_homed_world();
        let leaf_ia = IsdAsn::new(Isd(1), Asn::from_u64(10));
        let (segs, _) = segments_for(&topo, leaf_ia, Duration::from_hours(1), 1);
        assert!(segs.len() >= 2, "dual-homing yields >= 2 down-segments");
        let mut ps = PathServer::new(IsdAsn::new(Isd(1), Asn::from_u64(1)), true);
        register_down_segments(&mut ps, &segs);
        assert_eq!(
            ps.lookup_down(leaf_ia, SimTime::ZERO + Duration::from_hours(1))
                .unwrap()
                .len(),
            segs.len()
        );
    }
}
