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

use std::collections::BTreeMap;
use std::ops::Range;

use scion_proto::pcb::PathKey;
use scion_types::{Duration, IfId, IsdAsn, LinkId, SimTime};

use crate::config::DiversityParams;
use crate::score::{
    exponent_sent, exponent_unsent, final_score, DenseCounters, LinkHistory, SentList, SentRecord,
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

/// One thing an interval can send — a stored beacon or the origination —
/// with what holds for it whichever neighbor it goes to.
struct Sendable<'a> {
    source: PickSource<'a>,
    /// The slots of the path's interior links, then of the link it arrived
    /// on (fully resolved locally), as a range of [`Offer::slots`]; empty
    /// for the origination's zero-hop self path.
    path: Range<usize>,
    /// The Eq. (2) exponent.
    unsent_exponent: f64,
    initiated_at: SimTime,
    expires_at: SimTime,
}

/// Everything one interval can send, listed once for all neighbors.
struct Offer<'a> {
    slots: Vec<u32>,
    sendables: Vec<Sendable<'a>>,
    /// Each origin, in the order its pairs run, with its `sendables`.
    origins: Vec<(IsdAsn, Range<usize>)>,
}

/// A candidate of one pair: `(stored beacon | origination) × egress
/// interface`, both by index.
struct Candidate {
    sendable: usize,
    egress: usize,
    /// The Eq. (1) score of a previously-sent candidate. It holds for the
    /// whole interval: `select` purges before it reads, and the only write
    /// to a candidate's record is its own pick, which ends its candidacy.
    sent_score: Option<f64>,
}

/// Writes the Sent-PCBs-List key of `source` leaving through `egress` — the
/// beacon's hops, then the local (not yet appended) hop — over `key`.
fn write_key(
    key: &mut Vec<(IsdAsn, IfId, IfId)>,
    source: &PickSource<'_>,
    me: IsdAsn,
    egress: IfId,
) {
    key.clear();
    let ingress = match source {
        PickSource::Originate => IfId::NONE,
        PickSource::Stored(beacon) => {
            key.extend(beacon.pcb.path_hops());
            beacon.ingress_if
        }
    };
    key.push((me, ingress, egress));
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
    pub(crate) fn select<'a>(
        &mut self,
        ctx: &SelectionCtx<'_>,
        store: &'a BeaconStore,
        now: SimTime,
    ) -> Vec<Pick<'a>> {
        self.history.purge(now);
        self.sent.purge(now);

        // Group candidate egress links, each with its slot, by neighbor AS
        // (the pair dimension of Algorithm 1), ordered for determinism.
        let mut by_neighbor: BTreeMap<scion_topology::AsIndex, Vec<(EgressRef, u32)>> =
            BTreeMap::new();
        for &e in ctx.egress_links {
            let slot = self.history.slot(ctx.topo.link_id(e.link));
            by_neighbor.entry(e.neighbor).or_default().push((e, slot));
        }
        let offer = self.offer(ctx, store, now);

        let mut counters = DenseCounters::new(&self.history);
        let mut key = Vec::new();
        let mut candidates: Vec<Candidate> = Vec::new();
        let mut picks = Vec::new();
        for egresses in by_neighbor.values() {
            let neighbor_ia = egresses[0].0.neighbor_ia;
            for (origin, offered) in &offer.origins {
                // The pair's candidates. Each has a key of its own: the
                // store keeps one beacon per path and the egresses differ.
                candidates.clear();
                for i in offered.clone() {
                    let s = &offer.sendables[i];
                    if let PickSource::Stored(beacon) = s.source {
                        if beacon.pcb.contains_as(neighbor_ia) {
                            continue; // would loop at the neighbor
                        }
                    }
                    for (j, (e, _)) in egresses.iter().enumerate() {
                        write_key(&mut key, &s.source, ctx.me_ia, e.local_if);
                        let sent_score = self.sent.lookup(e.local_if, &key, now).map(|record| {
                            let g = exponent_sent(
                                &self.params,
                                now.until(record.expires_at),
                                now.until(s.expires_at),
                            );
                            final_score(record.diversity_score, g)
                        });
                        candidates.push(Candidate {
                            sendable: i,
                            egress: j,
                            sent_score,
                        });
                    }
                }

                // The Algorithm 1 main loop for the pair: greedy
                // best-candidate selection with in-loop history updates.
                let pair = (*origin, neighbor_ia);
                counters.load(&self.history, pair);
                for _ in 0..ctx.dissemination_limit {
                    let Some(i) = self.best(&candidates, &offer, egresses, &counters) else {
                        break;
                    };
                    // Removing keeps the order that ties are broken by.
                    let c = candidates.remove(i);
                    let s = &offer.sendables[c.sendable];
                    let (egress, egress_slot) = egresses[c.egress];
                    let path = &offer.slots[s.path.clone()];

                    // Update the Link History Table: "the associated
                    // counters are incremented for every link on its path,
                    // as well as the one associated with the outgoing link".
                    let links = path.iter().copied().chain([egress_slot]).collect();
                    counters.record(&mut self.history, pair, links, s.expires_at);
                    // Store the post-increment diversity score so a
                    // just-sent path is never considered fully diverse on
                    // its next evaluation. Floored at a small ε: Eq. 3's
                    // connectivity recovery raises the score to ds^g with
                    // g → 0 as the sent instance nears expiry, which only
                    // reaches ≈ 1 when ds > 0 — a stored score of exactly 0
                    // would permanently block refreshes of a pair's only
                    // path (DESIGN.md §6.1).
                    let post_ds = counters
                        .diversity_score(path, egress_slot, self.params.max_geomean)
                        .max(0.01);
                    write_key(&mut key, &s.source, ctx.me_ia, egress.local_if);
                    self.sent.record(
                        egress.local_if,
                        PathKey(key.clone()),
                        SentRecord {
                            diversity_score: post_ds,
                            initiated_at: s.initiated_at,
                            expires_at: s.expires_at,
                            last_sent: now,
                        },
                    );
                    picks.push(Pick {
                        source: s.source.clone(),
                        egress,
                    });
                }
                counters.clear(&self.history, pair);
            }
        }
        picks
    }

    /// Lists each origin's live beacons, their links resolved to slots, and
    /// after them the origination when this AS originates.
    fn offer<'a>(
        &mut self,
        ctx: &SelectionCtx<'_>,
        store: &'a BeaconStore,
        now: SimTime,
    ) -> Offer<'a> {
        let mut offer = Offer {
            slots: Vec::new(),
            sendables: Vec::new(),
            origins: Vec::new(),
        };
        for origin in store.origins() {
            let first = offer.sendables.len();
            for beacon in store.beacons_of(origin, now) {
                let start = offer.slots.len();
                for (a, b) in beacon.pcb.links_iter() {
                    offer.slots.push(self.history.slot(LinkId::new(a, b)));
                }
                let ingress = ctx.topo.link_id(beacon.ingress_link);
                offer.slots.push(self.history.slot(ingress));
                offer.sendables.push(Sendable {
                    source: PickSource::Stored(beacon),
                    path: start..offer.slots.len(),
                    unsent_exponent: exponent_unsent(
                        &self.params,
                        beacon.pcb.age(now),
                        beacon.pcb.lifetime(),
                    ),
                    initiated_at: beacon.pcb.initiated_at,
                    expires_at: beacon.pcb.expires_at,
                });
            }
            offer.origins.push((origin, first..offer.sendables.len()));
        }
        if ctx.originate {
            // Origination flows through the same scoring: the zero-hop
            // self path out of each parallel link to the neighbor.
            let last = offer.sendables.len();
            offer.sendables.push(Sendable {
                source: PickSource::Originate,
                path: 0..0,
                unsent_exponent: exponent_unsent(&self.params, Duration::ZERO, ctx.pcb_lifetime),
                initiated_at: now,
                expires_at: now + ctx.pcb_lifetime,
            });
            offer.origins.push((ctx.me_ia, last..last + 1));
        }
        offer
    }

    /// One scan over a pair's candidates: the best above the threshold, by
    /// Eq. (1) — previously-sent candidates keep their stored diversity
    /// score under the Eq. (3) exponent, new ones are scored fresh against
    /// `counters` under the Eq. (2) exponent.
    fn best(
        &self,
        candidates: &[Candidate],
        offer: &Offer<'_>,
        egresses: &[(EgressRef, u32)],
        counters: &DenseCounters,
    ) -> Option<usize> {
        let mut best: Option<(f64, usize)> = None;
        for (i, c) in candidates.iter().enumerate() {
            let score = c.sent_score.unwrap_or_else(|| {
                let s = &offer.sendables[c.sendable];
                let ds = counters.diversity_score(
                    &offer.slots[s.path.clone()],
                    egresses[c.egress].1,
                    self.params.max_geomean,
                );
                final_score(ds, s.unsent_exponent)
            });
            if score <= self.params.score_threshold {
                continue;
            }
            // Strictly-greater comparison keeps the first (most
            // deterministic) candidate on ties.
            if best.is_none_or(|(s, _)| score > s) {
                best = Some((score, i));
            }
        }
        best.map(|(_, i)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::egress_refs;
    use crate::store::StoredBeacon;
    use proptest::prelude::*;
    use proptest::TestCaseError;
    use scion_crypto::trc::TrustStore;
    use scion_proto::pcb::Pcb;
    use scion_topology::{AsTopology, LinkIndex, Relationship};
    use scion_types::{Asn, Isd};
    use std::collections::{HashMap, HashSet};

    /// The selection loop, `LinkHistory` and `SentList` as they stood before
    /// links were interned, verbatim but for the `pub(super)` the tests read
    /// through: the oracle of `select_matches_the_reference`. `SentRecord`,
    /// the exponents and `final_score` did not change and are shared.
    #[allow(dead_code)]
    mod reference {
        use std::cmp::Reverse;
        use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};

        use scion_proto::pcb::PathKey;
        use scion_types::{Duration, IfId, LinkId, SimTime};

        use crate::config::DiversityParams;
        use crate::score::{exponent_sent, exponent_unsent, final_score, PairKey, SentRecord};
        use crate::server::{EgressRef, Pick, PickSource, SelectionCtx};
        use crate::store::BeaconStore;

        /// Link History Tables for all pairs, with expiry-driven counter decay.
        #[derive(Clone, Debug, Default)]
        pub struct LinkHistory {
            counters: HashMap<PairKey, HashMap<LinkId, u32>>,
            /// Pending rollbacks, ordered by expiry.
            expiries: BinaryHeap<Reverse<(SimTime, u64)>>,
            contributions: HashMap<u64, (PairKey, Vec<LinkId>)>,
            next_seq: u64,
        }

        impl LinkHistory {
            pub fn new() -> LinkHistory {
                LinkHistory::default()
            }

            /// Rolls back contributions whose beacon instances have expired.
            pub fn purge(&mut self, now: SimTime) {
                while let Some(&Reverse((at, seq))) = self.expiries.peek() {
                    if at > now {
                        break;
                    }
                    self.expiries.pop();
                    if let Some((pair, links)) = self.contributions.remove(&seq) {
                        if let Some(table) = self.counters.get_mut(&pair) {
                            for link in links {
                                if let Some(c) = table.get_mut(&link) {
                                    *c = c.saturating_sub(1);
                                    if *c == 0 {
                                        table.remove(&link);
                                    }
                                }
                            }
                            if table.is_empty() {
                                self.counters.remove(&pair);
                            }
                        }
                    }
                }
            }

            /// Counter of `link` for `pair` (0 if never counted).
            pub fn counter(&self, pair: PairKey, link: LinkId) -> u32 {
                self.counters
                    .get(&pair)
                    .and_then(|t| t.get(&link))
                    .copied()
                    .unwrap_or(0)
            }

            /// Records a dissemination: increments every link's counter for `pair`
            /// and schedules the rollback at `expires_at`.
            pub fn record_dissemination(
                &mut self,
                pair: PairKey,
                links: &[LinkId],
                expires_at: SimTime,
            ) {
                let table = self.counters.entry(pair).or_default();
                for &link in links {
                    *table.entry(link).or_insert(0) += 1;
                }
                let seq = self.next_seq;
                self.next_seq += 1;
                self.contributions.insert(seq, (pair, links.to_vec()));
                self.expiries.push(Reverse((expires_at, seq)));
            }

            /// The geometric mean of the **+1-smoothed** counters of `links` for
            /// `pair`: `exp(mean(ln(1 + cᵢ)))`, so a fully-fresh path has mean 1
            /// and each reused link raises it multiplicatively.
            ///
            /// Why smoothed (DESIGN.md §6.1): with raw counters, any path
            /// containing a single never-seen link would have geometric mean 0 and
            /// hence maximal diversity — on densely-interconnected topologies the
            /// supply of such paths is combinatorially inexhaustible, exploration
            /// never terminates, and the diversity algorithm degenerates to
            /// baseline-level overhead (we verified this empirically). Smoothing
            /// keeps "PCBs containing new links" preferred (§4.2) while letting
            /// the shared near-origin/outgoing links accumulate jointness that
            /// eventually drives redundant candidates under the score threshold —
            /// which is what produces the paper's orders-of-magnitude overhead
            /// reduction.
            pub fn geometric_mean(&self, pair: PairKey, links: &[LinkId]) -> f64 {
                if links.is_empty() {
                    return 1.0;
                }
                let mut log_sum = 0.0f64;
                for &link in links {
                    let c = self.counter(pair, link);
                    log_sum += f64::from(c + 1).ln();
                }
                (log_sum / links.len() as f64).exp()
            }

            /// The link diversity score of a candidate path: `1 − min(1, gm /
            /// max_gm)`, in [0, 1], where 1 means fully disjoint from everything
            /// previously disseminated for this pair.
            pub fn diversity_score(
                &self,
                pair: PairKey,
                links: &[LinkId],
                max_geomean: f64,
            ) -> f64 {
                let gm = self.geometric_mean(pair, links);
                (1.0 - (gm / max_geomean).min(1.0)).max(0.0)
            }

            /// Number of live (pair, link) counters — for tests and memory stats.
            pub fn live_counters(&self) -> usize {
                self.counters.values().map(HashMap::len).sum()
            }
        }

        /// Sent-PCB lists, one per egress interface, keyed by candidate path key.
        #[derive(Clone, Debug, Default)]
        pub struct SentList {
            by_iface: HashMap<IfId, HashMap<PathKey, SentRecord>>,
        }

        impl SentList {
            pub fn new() -> SentList {
                SentList::default()
            }

            /// The live record for a candidate on an interface; expired records are
            /// dropped on access (an expired previously-sent instance no longer
            /// counts as "previously sent").
            pub fn lookup(
                &mut self,
                iface: IfId,
                key: &PathKey,
                now: SimTime,
            ) -> Option<SentRecord> {
                let table = self.by_iface.get_mut(&iface)?;
                match table.get(key) {
                    Some(r) if now >= r.expires_at => {
                        table.remove(key);
                        None
                    }
                    Some(&r) => Some(r),
                    None => None,
                }
            }

            /// Inserts or refreshes a record ("If a path is sent again, its
            /// corresponding timers in Sent PCBs List get updated").
            pub fn record(&mut self, iface: IfId, key: PathKey, record: SentRecord) {
                self.by_iface.entry(iface).or_default().insert(key, record);
            }

            /// Drops every expired record (periodic housekeeping).
            pub fn purge(&mut self, now: SimTime) {
                for table in self.by_iface.values_mut() {
                    table.retain(|_, r| now < r.expires_at);
                }
                self.by_iface.retain(|_, t| !t.is_empty());
            }

            /// Total live records.
            pub fn len(&self) -> usize {
                self.by_iface.values().map(HashMap::len).sum()
            }

            /// True if no records exist.
            pub fn is_empty(&self) -> bool {
                self.len() == 0
            }
        }

        /// Per-beacon-server state of the diversity algorithm.
        #[derive(Clone, Debug)]
        pub struct DiversityAlgorithm {
            params: DiversityParams,
            pub(super) history: LinkHistory,
            pub(super) sent: SentList,
        }

        /// A scored candidate: `(stored beacon | origination) × egress interface`.
        pub(super) struct Candidate<'a> {
            pub(super) source: PickSource<'a>,
            pub(super) egress: EgressRef,
            pub(super) key: PathKey,
            pub(super) links: Vec<LinkId>,
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
                let mut by_neighbor: BTreeMap<scion_topology::AsIndex, Vec<EgressRef>> =
                    BTreeMap::new();
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
            pub(super) fn build_candidates<'a>(
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
    }

    const ME: u64 = 100;
    /// Every AS a path may visit; each has a link to `ME`, so any of them
    /// can be a path's last hop. The last three are the possible neighbors.
    const UNIVERSE: [u64; 11] = [1, 2, 3, 4, 5, 6, 7, 8, 101, 102, 103];
    const INTERVALS: usize = 5;
    const INTERVAL: Duration = Duration::from_secs(600);
    /// Shorter than the run, so originations expire and are re-sent.
    const PCB_LIFETIME: Duration = Duration::from_secs(1500);

    fn ia(asn: u64) -> IsdAsn {
        IsdAsn::new(Isd(1), Asn::from_u64(asn))
    }

    /// One drawn beacon: origin, the universe indices of the further hops,
    /// a bit per hop choosing between two parallel interior links (plus the
    /// ingress link), seconds of age on arrival, lifetime in seconds, and
    /// the interval before which it arrives.
    type BeaconSpec = (u64, Vec<usize>, u32, u64, u64, usize);

    fn beacon_specs() -> impl Strategy<Value = Vec<BeaconSpec>> {
        proptest::collection::vec(
            (
                1u64..=4,
                proptest::collection::vec(0usize..UNIVERSE.len(), 0..=4),
                any::<u32>(),
                0u64..600,
                700u64..2500,
                0usize..INTERVALS,
            ),
            0..=48,
        )
    }

    /// A beacon server's surroundings: `ME` linked to every AS of the
    /// universe, to the first `parallel.len()` neighbors by that many
    /// parallel links, which are the egress links.
    struct Scenario {
        topo: AsTopology,
        egress: Vec<EgressRef>,
        /// Per interval, the beacons that arrive before it.
        arrivals: Vec<Vec<StoredBeacon>>,
    }

    fn at(interval: usize) -> SimTime {
        SimTime::ZERO + Duration::from_secs(1000) + INTERVAL * interval as u64
    }

    fn scenario(origins: u64, parallel: &[usize], specs: &[BeaconSpec]) -> Scenario {
        let mut topo = AsTopology::new();
        let me = topo.add_as(ia(ME));
        let mut egress_links = Vec::new();
        for (i, &asn) in UNIVERSE.iter().enumerate() {
            let idx = topo.add_as(ia(asn));
            let links = i
                .checked_sub(UNIVERSE.len() - 3)
                .and_then(|n| parallel.get(n));
            for _ in 0..links.copied().unwrap_or(1) {
                let link = topo.add_link(me, idx, Relationship::PeerToPeer);
                if links.is_some() {
                    egress_links.push(link);
                }
            }
        }
        let trust = TrustStore::bootstrap(
            topo.as_indices().map(|i| (topo.node(i).ia, true)),
            SimTime::ZERO + Duration::from_days(30),
        );

        let mut arrivals = vec![Vec::new(); INTERVALS];
        for (origin, tail, bits, age, lifetime, interval) in specs {
            let origin = 1 + origin % origins;
            let mut path = vec![UNIVERSE.iter().position(|&a| a == origin).unwrap()];
            for &hop in tail {
                if !path.contains(&hop) {
                    path.push(hop);
                }
            }
            // The interface toward the AS at universe index `to`, for the
            // link leaving the path's `hop`th AS: equal draws share the
            // link, and each AS pair has two to choose from.
            let iface =
                |to: usize, hop: usize| IfId((2 * to + 1) as u16 + (bits >> hop & 1) as u16);
            let last = topo
                .by_address(ia(UNIVERSE[*path.last().unwrap()]))
                .unwrap();
            let ingress = topo.links_between(last, me);
            let ingress_link = ingress[(*bits as usize >> 8) % ingress.len()];
            let (_, ingress_if, remote_if) = topo.link(ingress_link).opposite(me);

            let received_at = at(*interval);
            let egress_of = |hop: usize| match path.get(hop + 1) {
                Some(&next) => iface(next, hop),
                None => remote_if,
            };
            let mut pcb = Pcb::originate(
                ia(origin),
                egress_of(0),
                SimTime::from_micros(received_at.as_micros() - age * 1_000_000),
                Duration::from_secs(*lifetime),
                0,
                &trust,
            );
            for hop in 1..path.len() {
                pcb = pcb.extend(
                    ia(UNIVERSE[path[hop]]),
                    iface(path[hop - 1], hop - 1),
                    egress_of(hop),
                    vec![],
                    &trust,
                );
            }
            arrivals[*interval].push(StoredBeacon {
                pcb,
                ingress_link,
                ingress_if,
                received_at,
            });
        }
        Scenario {
            egress: egress_refs(&topo, me, &egress_links),
            topo,
            arrivals,
        }
    }

    impl Scenario {
        /// Plays the intervals as a beacon server does — arrivals stored,
        /// the expired purged — handing each to `interval`.
        fn play(
            &self,
            originate: bool,
            limit: usize,
            mut interval: impl FnMut(
                &SelectionCtx<'_>,
                &BeaconStore,
                SimTime,
            ) -> Result<(), TestCaseError>,
        ) -> Result<(), TestCaseError> {
            let ctx = SelectionCtx {
                topo: &self.topo,
                me_ia: ia(ME),
                egress_links: &self.egress,
                dissemination_limit: limit,
                originate,
                pcb_lifetime: PCB_LIFETIME,
            };
            let mut store = BeaconStore::new(None);
            for (k, arrived) in self.arrivals.iter().enumerate() {
                for beacon in arrived {
                    store.insert(beacon.clone(), at(k));
                }
                store.purge_expired(at(k));
                interval(&ctx, &store, at(k))?;
            }
            Ok(())
        }
    }

    /// A pick as `(stored beacon by pointer, egress link)`.
    fn identity(pick: &Pick<'_>) -> (Option<*const StoredBeacon>, LinkIndex) {
        let beacon = match pick.source {
            PickSource::Originate => None,
            PickSource::Stored(b) => Some(std::ptr::from_ref(b)),
        };
        (beacon, pick.egress.link)
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Interval after interval on the same two states — so history
        /// rollback, sent-record expiry and re-sends all occur — the
        /// rewritten loop picks what the parent's picked, in its order,
        /// and leaves the state the parent's left, every score to the bit.
        #[test]
        fn select_matches_the_reference(
            origins in 1u64..=4,
            parallel in proptest::collection::vec(1usize..=3, 1..=3),
            specs in beacon_specs(),
            originate in any::<bool>(),
            limit in 1usize..=5,
        ) {
            let params = DiversityParams::default();
            let mut ours = DiversityAlgorithm::new(params);
            let mut theirs = reference::DiversityAlgorithm::new(params);
            scenario(origins, &parallel, &specs).play(originate, limit, |ctx, store, now| {
                let picked: Vec<_> = ours.select(ctx, store, now).iter().map(identity).collect();
                let expected: Vec<_> = theirs.select(ctx, store, now).iter().map(identity).collect();
                prop_assert_eq!(picked, expected, "picks at {}", now);
                prop_assert_eq!(ours.history.live_counters(), theirs.history.live_counters());
                prop_assert_eq!(ours.sent.len(), theirs.sent.len());

                // Every candidate of the interval, as the parent lists
                // them: its key, its sent record, its diversity score.
                let record = |r: SentRecord| {
                    (r.diversity_score.to_bits(), r.initiated_at, r.expires_at, r.last_sent)
                };
                let mut key = Vec::new();
                let mut origins = store.origins();
                origins.push(ctx.me_ia);
                for e in ctx.egress_links {
                    for &origin in &origins {
                        for c in theirs.build_candidates(ctx, store, now, origin, &[*e]) {
                            write_key(&mut key, &c.source, ctx.me_ia, e.local_if);
                            prop_assert_eq!(&key, &c.key.0);
                            prop_assert_eq!(
                                ours.sent.lookup(e.local_if, &key, now).map(record),
                                theirs.sent.lookup(e.local_if, &c.key, now).map(record)
                            );
                            let pair = (origin, e.neighbor_ia);
                            let (ours, theirs) = (
                                ours.history.diversity_score(pair, &c.links, params.max_geomean),
                                theirs.history.diversity_score(pair, &c.links, params.max_geomean),
                            );
                            prop_assert_eq!(ours.to_bits(), theirs.to_bits());
                        }
                    }
                }
                Ok(())
            })?;
        }

        /// ROADMAP's selection invariants, whatever is stored: one interval
        /// never sends a path out of one interface twice, never more than
        /// the dissemination limit for an `[origin, neighbor]` pair, never
        /// a beacon to a neighbor already on its path.
        #[test]
        fn an_interval_never_repeats_overruns_or_loops(
            origins in 1u64..=4,
            parallel in proptest::collection::vec(1usize..=3, 1..=3),
            specs in beacon_specs(),
            originate in any::<bool>(),
            limit in 1usize..=5,
        ) {
            let mut algorithm = DiversityAlgorithm::new(DiversityParams::default());
            scenario(origins, &parallel, &specs).play(originate, limit, |ctx, store, now| {
                let mut sent = HashSet::new();
                let mut per_pair: HashMap<(IsdAsn, IsdAsn), usize> = HashMap::new();
                for pick in algorithm.select(ctx, store, now) {
                    let neighbor = pick.egress.neighbor_ia;
                    let (origin, path) = match pick.source {
                        PickSource::Originate => (ctx.me_ia, None),
                        PickSource::Stored(b) => {
                            prop_assert!(!b.pcb.contains_as(neighbor), "loops at {}", neighbor);
                            (b.pcb.origin, Some(b.pcb.path_key()))
                        }
                    };
                    prop_assert!(sent.insert((path, pick.egress.local_if)), "sent twice");
                    *per_pair.entry((origin, neighbor)).or_default() += 1;
                }
                prop_assert!(per_pair.values().all(|&n| n <= limit), "{:?}", per_pair);
                Ok(())
            })?;
        }
    }
}
