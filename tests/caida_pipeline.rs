//! The data pipeline a user with real CAIDA data would run: parse an
//! `as-rel` document, derive the §5.1 topologies, and run the control
//! plane on them — end to end through the public API.

use scion_core::prelude::*;
use scion_core::topology::caida::{parse_as_rel, to_as_rel};
use scion_core::topology::isd::assign_isds;
use scion_core::topology::{build_intra_isd_topology, prune_to_top_degree};

/// A hand-written mini-Internet in the extended as-rel format: a tier-1
/// triangle with parallel links, regional providers, and stub leaves.
const AS_REL: &str = "\
# tier-1 clique (peering, multi-link)
1|2|0|2
1|3|0|2
2|3|0|1
# regional providers buy transit from two tier-1s each
1|10|-1
2|10|-1
2|11|-1
3|11|-1
# peering between the regionals
10|11|0
# stubs
10|100|-1
10|101|-1
11|102|-1
11|103|-1
1|104|-1
";

#[test]
fn caida_document_drives_the_full_pipeline() {
    let topo = parse_as_rel(AS_REL).expect("well-formed document");
    assert_eq!(topo.num_ases(), 10);
    topo.check_invariants().unwrap();

    // Degree pruning keeps the well-connected top; ISD assignment makes
    // everything core (the §5.1 core-beaconing construction).
    let (mut core, _) = prune_to_top_degree(&topo, 5);
    assign_isds(&mut core, 3);
    assert_eq!(core.num_ases(), 5);
    assert_eq!(core.core_ases().count(), 5);

    let out = run_beaconing(
        &core,
        &BeaconingConfig::diversity(),
        &BeaconingRun::core(Duration::from_hours(2), 1),
        &mut Telemetry::disabled(),
    )
    .outcome;
    let now = SimTime::ZERO + Duration::from_hours(2);
    for a in core.as_indices() {
        for b in core.as_indices() {
            if a != b {
                assert!(
                    !out.server(b)
                        .unwrap()
                        .store()
                        .beacons_of(core.node(a).ia, now)
                        .is_empty(),
                    "core pair {}->{} unreachable",
                    core.node(a).ia,
                    core.node(b).ia
                );
            }
        }
    }
}

#[test]
fn intra_isd_construction_from_caida_data() {
    let topo = parse_as_rel(AS_REL).unwrap();
    // Top-1 by customer cone is a tier-1; its downward closure covers the
    // regionals and their stubs.
    let (intra, _) = build_intra_isd_topology(&topo, 1);
    assert_eq!(intra.core_ases().count(), 1);
    assert!(intra.num_ases() > 4);

    let out = run_beaconing(
        &intra,
        &BeaconingConfig::default(),
        &BeaconingRun::intra_isd(Duration::from_hours(1), 2),
        &mut Telemetry::disabled(),
    )
    .outcome;
    let now = SimTime::ZERO + Duration::from_hours(1);
    let core_ia = intra.core_ases().map(|i| intra.node(i).ia).next().unwrap();
    for idx in intra.as_indices() {
        if intra.node(idx).core {
            continue;
        }
        assert!(
            !out.server(idx)
                .unwrap()
                .store()
                .beacons_of(core_ia, now)
                .is_empty(),
            "{} did not learn a path to its core",
            intra.node(idx).ia
        );
    }
}

#[test]
fn round_trip_preserves_structure() {
    let topo = parse_as_rel(AS_REL).unwrap();
    let doc = to_as_rel(&topo);
    let again = parse_as_rel(&doc).unwrap();
    assert_eq!(topo.num_ases(), again.num_ases());
    assert_eq!(topo.num_links(), again.num_links());
    // Same relationship structure: every AS has identical neighbor sets.
    for idx in topo.as_indices() {
        let ia = topo.node(idx).ia;
        let jdx = again.by_address(ia).unwrap();
        let names = |t: &AsTopology, i| {
            let mut v: Vec<u64> = t
                .neighbors(i)
                .into_iter()
                .map(|n| t.node(n).ia.asn.value())
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(names(&topo, idx), names(&again, jdx));
    }
}
