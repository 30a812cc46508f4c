//! The baseline path construction algorithm.
//!
//! §4.2: "a simple baseline path construction algorithm is used, which
//! optimizes paths for the same metric as BGP, which is (AS) path length. …
//! only the 𝑃 shortest paths are disseminated at each interval. … The
//! algorithm sends a set of paths irrespective of previously sent paths."
//! §5.1: "For the baseline path construction algorithm, the limit is
//! applied to each interface."
//!
//! Selection per `[origin, egress interface]`: the `k` shortest valid
//! stored beacons (ties: freshest instance first, then path key for
//! determinism), re-sent **every interval** — exactly the redundancy the
//! diversity algorithm eliminates.

use scion_types::SimTime;

use crate::server::{Pick, PickSource, SelectionCtx};
use crate::store::{BeaconStore, StoredBeacon};

/// Stateless marker for the baseline algorithm: all its inputs are in the
/// beacon store; it keeps no dissemination history by design.
#[derive(Clone, Copy, Debug, Default)]
pub struct BaselineAlgorithm;

impl BaselineAlgorithm {
    /// Runs one interval of baseline selection; picks are returned in
    /// deterministic (interface-major, then shortest-first) order.
    pub(crate) fn select<'a>(
        &self,
        ctx: &SelectionCtx<'_>,
        store: &'a BeaconStore,
        now: SimTime,
    ) -> Vec<Pick<'a>> {
        // The ranking of an origin's beacons does not depend on the egress:
        // rank once, then let each egress skip what loops through its
        // neighbor.
        let ranked: Vec<Vec<&StoredBeacon>> = store
            .origins()
            .into_iter()
            .map(|origin| {
                let mut live = store.beacons_of(origin, now);
                live.sort_by(|a, b| {
                    a.pcb
                        .hop_count()
                        .cmp(&b.pcb.hop_count())
                        .then(b.pcb.initiated_at.cmp(&a.pcb.initiated_at))
                        .then_with(|| a.pcb.path_hops().cmp(b.pcb.path_hops()))
                });
                live
            })
            .collect();
        let mut picks = Vec::new();
        for &egress in ctx.egress_links {
            // Origination: for origin = self the zero-hop beacon is the
            // only candidate, freshly instantiated every interval — this
            // per-interval refresh is what makes the baseline chatty.
            if ctx.originate {
                picks.push(Pick {
                    source: PickSource::Originate,
                    egress,
                });
            }
            for live in &ranked {
                picks.extend(
                    live.iter()
                        .filter(|b| !b.pcb.contains_as(egress.neighbor_ia))
                        .take(ctx.dissemination_limit)
                        .map(|&b| Pick {
                            source: PickSource::Stored(b),
                            egress,
                        }),
                );
            }
        }
        picks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::EgressRef;
    use proptest::prelude::*;
    use scion_crypto::trc::TrustStore;
    use scion_proto::pcb::Pcb;
    use scion_topology::{topology_from_edges, AsIndex, LinkIndex, Relationship};
    use scion_types::{Asn, Duration, IfId, Isd, IsdAsn};
    use std::cmp::Reverse;

    fn ia(asn: u64) -> IsdAsn {
        IsdAsn::new(Isd(1), Asn::from_u64(asn))
    }

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + Duration::from_secs(secs)
    }

    /// What one pick is, for comparison: its egress and which stored beacon
    /// (`None` = an origination).
    fn identity(p: &Pick<'_>) -> (IfId, Option<*const StoredBeacon>) {
        let stored = match p.source {
            PickSource::Originate => None,
            PickSource::Stored(b) => Some(b as *const StoredBeacon),
        };
        (p.egress.local_if, stored)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Ranking each origin once and letting every egress filter the
        /// ranking picks what selection always picked: per egress and
        /// origin, the candidates that avoid the neighbor, sorted by (hops,
        /// freshest, path), cut at the limit — with most beacons tied on
        /// the first two, as beacons of one origination tick are.
        #[test]
        fn prop_picks_are_the_per_egress_shortest(
            beacons in proptest::collection::vec(
                (1u64..4, proptest::collection::vec((4u64..10, 1u16..4, 1u16..4), 0..3), 1u16..4, 0u64..2),
                0..40,
            ),
            neighbors in proptest::collection::vec(1u64..10, 1..6),
            limit in 1usize..6,
            originate in any::<bool>(),
        ) {
            let tr = TrustStore::bootstrap((1..10).map(|n| (ia(n), n < 4)), t(1_000_000));
            let mut store = BeaconStore::new(None);
            for (origin, hops, egress, tick) in &beacons {
                let at = t(tick * 600);
                let mut pcb =
                    Pcb::originate(ia(*origin), IfId(*egress), at, Duration::from_hours(6), 0, &tr);
                for &(asn, ingress, egress) in hops {
                    if !pcb.contains_as(ia(asn)) {
                        pcb = pcb.extend(ia(asn), IfId(ingress), IfId(egress), vec![], &tr);
                    }
                }
                let beacon = StoredBeacon {
                    pcb,
                    ingress_link: LinkIndex(0),
                    ingress_if: IfId(1),
                    received_at: at,
                };
                store.insert(beacon, at);
            }
            let egress_links: Vec<EgressRef> = neighbors
                .iter()
                .enumerate()
                .map(|(k, &n)| EgressRef {
                    link: LinkIndex(k as u32),
                    local_if: IfId(k as u16 + 1),
                    neighbor: AsIndex(n as u32),
                    neighbor_ia: ia(n),
                })
                .collect();
            let topo = topology_from_edges(&[(1, 2, Relationship::PeerToPeer, 1)]);
            let ctx = SelectionCtx {
                topo: &topo,
                me_ia: ia(10),
                egress_links: &egress_links,
                dissemination_limit: limit,
                originate,
                pcb_lifetime: Duration::from_hours(6),
            };
            let now = t(1200);

            let mut expected = Vec::new();
            for e in &egress_links {
                if originate {
                    expected.push((e.local_if, None));
                }
                for origin in store.origins() {
                    let mut candidates = store.beacons_of(origin, now);
                    candidates.retain(|b| !b.pcb.contains_as(e.neighbor_ia));
                    candidates.sort_by_key(|b| {
                        let path: Vec<_> = b.pcb.path_hops().collect();
                        (b.pcb.hop_count(), Reverse(b.pcb.initiated_at), path)
                    });
                    candidates.truncate(limit);
                    expected.extend(
                        candidates
                            .into_iter()
                            .map(|b| (e.local_if, Some(b as *const StoredBeacon))),
                    );
                }
            }
            let picks = BaselineAlgorithm.select(&ctx, &store, now);
            prop_assert_eq!(picks.iter().map(identity).collect::<Vec<_>>(), expected);
        }
    }
}
