//! Extraction of disseminated path sets for quality analysis (§5.3).
//!
//! The evaluation asks, for an AS pair `(origin, v)`: which paths does `v`
//! know toward `origin` after beaconing? Each stored beacon at `v`'s server
//! is one such path; resilience and capacity are then computed over the
//! union of those paths' links (see the `scion-analysis` crate).

use scion_topology::{AsIndex, AsTopology, LinkIndex};
use scion_types::{IsdAsn, SimTime};

use crate::driver::BeaconingOutcome;
use crate::server::BeaconServer;

/// The paths `server` knows toward `origin` at `now`, each as the ordered
/// list of topology link indices from the origin to the server's AS.
///
/// Interface-level link ends inside the beacons are resolved against the
/// topology; beacons referencing unknown interfaces (impossible in a
/// well-formed run) are skipped defensively.
pub fn known_paths(
    topo: &AsTopology,
    server: &BeaconServer,
    origin: IsdAsn,
    now: SimTime,
) -> Vec<Vec<LinkIndex>> {
    let mut out = Vec::new();
    for beacon in server.store().beacons_of(origin, now) {
        let mut path = Vec::with_capacity(beacon.pcb.hop_count());
        let mut ok = true;
        for (near, _far) in beacon.pcb.interior_links() {
            let Some(as_idx) = topo.by_address(near.ia) else {
                ok = false;
                break;
            };
            let Some(li) = topo.link_by_interface(as_idx, near.ifid) else {
                ok = false;
                break;
            };
            path.push(li);
        }
        if ok {
            path.push(beacon.ingress_link);
            out.push(path);
        }
    }
    out
}

/// The disseminated path set between every ordered core pair `(origin,
/// holder)` in `pairs`, from a finished beaconing run.
pub fn paths_for_pairs(
    topo: &AsTopology,
    outcome: &BeaconingOutcome,
    pairs: &[(AsIndex, AsIndex)],
    now: SimTime,
) -> Vec<Vec<Vec<LinkIndex>>> {
    pairs
        .iter()
        .map(|&(origin, holder)| match outcome.server(holder) {
            Some(srv) => known_paths(topo, srv, topo.node(origin).ia, now),
            None => Vec::new(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BeaconingConfig;
    use crate::driver::{run_beaconing, BeaconingRun};
    use scion_telemetry::Telemetry;
    use scion_topology::{topology_from_edges, Relationship};
    use scion_types::{Asn, Duration, Isd};

    fn ia(asn: u64) -> IsdAsn {
        IsdAsn::new(Isd(1), Asn::from_u64(asn))
    }

    #[test]
    fn extracted_paths_are_topology_consistent() {
        // Square: 1-2, 2-3, 3-4, 4-1, with a parallel 1-2 link.
        let mut topo = topology_from_edges(&[
            (1, 2, Relationship::PeerToPeer, 2),
            (2, 3, Relationship::PeerToPeer, 1),
            (3, 4, Relationship::PeerToPeer, 1),
            (4, 1, Relationship::PeerToPeer, 1),
        ]);
        for idx in topo.as_indices().collect::<Vec<_>>() {
            topo.set_core(idx, true);
        }
        let out = run_beaconing(
            &topo,
            &BeaconingConfig::default(),
            &BeaconingRun::core(Duration::from_hours(2), 5),
            &mut Telemetry::disabled(),
        )
        .outcome;
        let now = SimTime::ZERO + Duration::from_hours(2);
        let three = topo.by_address(ia(3)).unwrap();
        let srv = out.server(three).unwrap();
        let paths = known_paths(&topo, srv, ia(1), now);
        assert!(!paths.is_empty(), "AS3 should know paths to AS1");
        for path in &paths {
            // Each path must be a connected link walk from AS1 to AS3.
            let mut cur = topo.by_address(ia(1)).unwrap();
            for &li in path {
                let l = topo.link(li);
                assert!(l.a == cur || l.b == cur, "disconnected walk");
                cur = if l.a == cur { l.b } else { l.a };
            }
            assert_eq!(cur, three, "path must end at the holder");
        }
        // With 2 parallel links on 1-2 plus the 4-1 detour there are at
        // least two link-distinct paths.
        let distinct: std::collections::HashSet<&Vec<LinkIndex>> = paths.iter().collect();
        assert!(distinct.len() >= 2);
    }

    #[test]
    fn paths_for_pairs_shapes() {
        let mut topo = topology_from_edges(&[(1, 2, Relationship::PeerToPeer, 1)]);
        for idx in topo.as_indices().collect::<Vec<_>>() {
            topo.set_core(idx, true);
        }
        let out = run_beaconing(
            &topo,
            &BeaconingConfig::default(),
            &BeaconingRun::core(Duration::from_hours(1), 5),
            &mut Telemetry::disabled(),
        )
        .outcome;
        let now = SimTime::ZERO + Duration::from_hours(1);
        let a = topo.by_address(ia(1)).unwrap();
        let b = topo.by_address(ia(2)).unwrap();
        let sets = paths_for_pairs(&topo, &out, &[(a, b), (b, a)], now);
        assert_eq!(sets.len(), 2);
        assert!(!sets[0].is_empty());
        assert!(!sets[1].is_empty());
    }
}
