//! The path-diversity-based path construction algorithm (Algorithm 1).
//!
//! §4.2 / Appendix A: a distributed greedy algorithm run per `[origin AS,
//! neighbor AS]` pair every beaconing interval. Each iteration scores every
//! `(stored beacon, egress interface)` combination — the candidate path
//! `p_new = [p, iface]` — and disseminates the best one if its score clears
//! the threshold, updating the Link History Table and Sent-PCBs List so the
//! next iteration's diversity computation accounts for it. Iteration stops
//! at the dissemination limit or when no candidate clears the threshold.
//!
//! Differences from the baseline that matter for the evaluation:
//! * the dissemination limit applies per **neighbor AS**, not per
//!   interface (§5.1);
//! * origination flows through the same scoring, so even the origin's own
//!   beacon is only refreshed when its previously-sent instance ages —
//!   the main source of the two-orders-of-magnitude overhead reduction;
//! * candidates are scored by link-disjointness against everything already
//!   disseminated for the pair, so parallel links and detour paths win
//!   over repeats of the shortest path.

use std::collections::{BTreeMap, HashSet};

use scion_proto::pcb::PathKey;
use scion_types::{Duration, IfId, LinkId, SimTime};

use crate::config::DiversityParams;
use crate::score::{
    exponent_sent, exponent_unsent, final_score, LinkHistory, SentList, SentRecord,
};
use crate::server::{EgressRef, Pick, PickSource, SelectionCtx};
use crate::store::BeaconStore;

/// Per-beacon-server state of the diversity algorithm.
#[derive(Clone, Debug)]
pub struct DiversityAlgorithm {
    params: DiversityParams,
    history: LinkHistory,
    sent: SentList,
}

/// A scored candidate: `(stored beacon | origination) × egress interface`.
struct Candidate<'a> {
    source: PickSource<'a>,
    egress: EgressRef,
    key: PathKey,
    links: Vec<LinkId>,
    age: Duration,
    lifetime: Duration,
    initiated_at: SimTime,
    expires_at: SimTime,
}

impl DiversityAlgorithm {
    pub fn new(params: DiversityParams) -> DiversityAlgorithm {
        DiversityAlgorithm {
            params,
            history: LinkHistory::new(),
            sent: SentList::new(),
        }
    }

    /// The algorithm's parameters.
    pub fn params(&self) -> &DiversityParams {
        &self.params
    }

    /// Read access to the link-history state (used by tests and stats).
    pub fn history(&self) -> &LinkHistory {
        &self.history
    }

    /// Runs one interval of Algorithm 1 across all neighbors.
    ///
    /// `#[inline]`: the one call site is in another module, and whether the
    /// two share a codegen unit follows from unrelated module sizes; merged
    /// into its caller the scoring loop measured ~5 % faster
    /// (`beacon_diversity` in `BENCHMARK.json`), so ask for it.
    #[inline]
    pub(crate) fn select<'a>(
        &mut self,
        ctx: &SelectionCtx<'_>,
        store: &'a BeaconStore,
        now: SimTime,
    ) -> Vec<Pick<'a>> {
        self.history.purge(now);
        self.sent.purge(now);

        // Group candidate egress links by neighbor AS (the pair dimension
        // of Algorithm 1), ordered for determinism.
        let mut by_neighbor: BTreeMap<scion_topology::AsIndex, Vec<EgressRef>> = BTreeMap::new();
        for &e in ctx.egress_links {
            by_neighbor.entry(e.neighbor).or_default().push(e);
        }

        let mut origins = store.origins();
        if ctx.originate {
            origins.push(ctx.me_ia);
        }

        let mut picks = Vec::new();
        for (_, egresses) in by_neighbor {
            let neighbor_ia = egresses[0].neighbor_ia;
            for &origin in &origins {
                let candidates = self.build_candidates(ctx, store, now, origin, &egresses);
                picks.extend(self.run_pair(ctx, now, (origin, neighbor_ia), candidates));
            }
        }
        picks
    }

    /// Builds the candidate set for one `[origin, neighbor]` pair.
    fn build_candidates<'a>(
        &self,
        ctx: &SelectionCtx<'_>,
        store: &'a BeaconStore,
        now: SimTime,
        origin: scion_types::IsdAsn,
        egresses: &[EgressRef],
    ) -> Vec<Candidate<'a>> {
        let mut out = Vec::new();
        if origin == ctx.me_ia {
            // Origination candidates: the zero-hop self path out of each
            // parallel link to the neighbor.
            for &e in egresses {
                out.push(Candidate {
                    source: PickSource::Originate,
                    egress: e,
                    key: PathKey(vec![(ctx.me_ia, IfId::NONE, e.local_if)]),
                    links: vec![ctx.topo.link_id(e.link)],
                    age: Duration::ZERO,
                    lifetime: ctx.pcb_lifetime,
                    initiated_at: now,
                    expires_at: now + ctx.pcb_lifetime,
                });
            }
            return out;
        }
        for beacon in store.beacons_of(origin, now) {
            let neighbor_ia = egresses[0].neighbor_ia;
            if beacon.pcb.contains_as(neighbor_ia) {
                continue; // would loop at the neighbor
            }
            // Links of the stored path: the beacon's interior links plus
            // the link it arrived on (fully resolved locally).
            let mut base_links: Vec<LinkId> = beacon
                .pcb
                .interior_links()
                .into_iter()
                .map(|(a, b)| LinkId::new(a, b))
                .collect();
            base_links.push(ctx.topo.link_id(beacon.ingress_link));
            for &e in egresses {
                let mut links = base_links.clone();
                links.push(ctx.topo.link_id(e.link));
                out.push(Candidate {
                    source: PickSource::Stored(beacon),
                    egress: e,
                    key: beacon.candidate_key(ctx.me_ia, e.local_if),
                    links,
                    age: beacon.pcb.age(now),
                    lifetime: beacon.pcb.lifetime(),
                    initiated_at: beacon.pcb.initiated_at,
                    expires_at: beacon.pcb.expires_at,
                });
            }
        }
        out
    }

    /// The Algorithm 1 main loop for one pair: greedy best-candidate
    /// selection with in-loop history updates.
    fn run_pair<'a>(
        &mut self,
        ctx: &SelectionCtx<'_>,
        now: SimTime,
        pair: (scion_types::IsdAsn, scion_types::IsdAsn),
        candidates: Vec<Candidate<'a>>,
    ) -> Vec<Pick<'a>> {
        let mut picks = Vec::new();
        let mut taken: HashSet<PathKey> = HashSet::new();

        while picks.len() < ctx.dissemination_limit {
            let mut best: Option<(f64, usize)> = None;
            for (i, c) in candidates.iter().enumerate() {
                if taken.contains(&c.key) {
                    continue;
                }
                let score = self.score_candidate(c, pair, now);
                if score <= self.params.score_threshold {
                    continue;
                }
                // Strictly-greater comparison keeps the first (most
                // deterministic) candidate on ties.
                if best.is_none_or(|(s, _)| score > s) {
                    best = Some((score, i));
                }
            }
            let Some((_, i)) = best else { break };
            let c = &candidates[i];

            // Update the Link History Table: "the associated counters are
            // incremented for every link on its path, as well as the one
            // associated with the outgoing link" (the outgoing link is the
            // last element of `c.links`).
            self.history
                .record_dissemination(pair, &c.links, c.expires_at);
            // Store the post-increment diversity score so a just-sent path
            // is never considered fully diverse on its next evaluation.
            // Floored at a small ε: Eq. 3's connectivity recovery raises
            // the score to ds^g with g → 0 as the sent instance nears
            // expiry, which only reaches ≈ 1 when ds > 0 — a stored score
            // of exactly 0 would permanently block refreshes of a pair's
            // only path (DESIGN.md §6.1).
            let post_ds = self
                .history
                .diversity_score(pair, &c.links, self.params.max_geomean)
                .max(0.01);
            self.sent.record(
                c.egress.local_if,
                c.key.clone(),
                SentRecord {
                    diversity_score: post_ds,
                    initiated_at: c.initiated_at,
                    expires_at: c.expires_at,
                    last_sent: now,
                },
            );
            taken.insert(c.key.clone());
            picks.push(Pick {
                source: c.source.clone(),
                egress: c.egress,
            });
        }
        picks
    }

    /// Eq. (1): previously-sent candidates reuse their stored diversity
    /// score under the Eq. (3) exponent; new candidates are scored fresh
    /// under the Eq. (2) exponent.
    fn score_candidate(
        &mut self,
        c: &Candidate<'_>,
        pair: (scion_types::IsdAsn, scion_types::IsdAsn),
        now: SimTime,
    ) -> f64 {
        if let Some(record) = self.sent.lookup(c.egress.local_if, &c.key, now) {
            let g = exponent_sent(
                &self.params,
                now.until(record.expires_at),
                now.until(c.expires_at),
            );
            final_score(record.diversity_score, g)
        } else {
            let ds = self
                .history
                .diversity_score(pair, &c.links, self.params.max_geomean);
            let f = exponent_unsent(&self.params, c.age, c.lifetime);
            final_score(ds, f)
        }
    }
}
