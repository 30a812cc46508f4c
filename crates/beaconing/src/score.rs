//! Diversity-score machinery: Link History Tables, the Sent-PCBs List,
//! and the Eq. (1)–(3) scoring functions of §4.2.
//!
//! ## Link History Table
//!
//! "The algorithm stores a Link History Table per [origin AS, neighbor AS]
//! pair. Each table is a one-to-one map from link_ids to their associated
//! counters … the counter counts the number of times the link is part of a
//! **valid** path from the origin AS to the neighbor AS." Because validity
//! matters, counters decay: every send's increments are rolled back when
//! the PCB instance it sent expires (DESIGN.md §6.2). What schedules the
//! rollback is the send's own entry in the Sent-PCBs List.
//!
//! ## Sent-PCBs List
//!
//! Per arrival path, every PCB instance sent for it that has not expired,
//! in send order, each with the §4.2 record: the link diversity score (as
//! the post-send geometric mean it is computed from) and the instance's
//! expiry (its age and lifetime, as Eq. (3) reads them), plus the
//! interface it went out of and its pair, which is what rolling its
//! increments back needs. A path is keyed by its links' interned slots,
//! 4 B per link. Eq. (3) reads the last instance sent out of an interface;
//! an earlier one of the same interface keeps its increments counted until
//! it lapses.
//!
//! ## Link diversity score
//!
//! The geometric mean of the counters of all links on a path measures its
//! *jointness* with previously disseminated paths; scaling by the maximum
//! acceptable geometric mean maps it to [0, 1]. The **diversity score** is
//! the complement, `1 − min(1, gm / max_gm)`, so that 1 = fully disjoint —
//! the orientation required for Eq. (1)'s exponentiation to implement the
//! paper's three objectives (DESIGN.md §6.1 explains the derivation).
//!
//! ## Final score (Eq. 1–3)
//!
//! ```text
//! score = ds^g   if previously sent      g = (β · rem_prev/rem_cur)^γ
//! score = ds^f   otherwise               f = α · age/lifetime
//! ```
//!
//! * fresh unsent beacons (age ≈ 0 ⇒ f ≈ 0) score ≈ 1 → *discover new
//!   paths*;
//! * recently-resent beacons (rem_prev ≈ rem_cur ⇒ g ≈ β^γ ≫ 1) score ≈ 0
//!   → *save bandwidth*;
//! * beacons whose previously-sent instance nears expiry (rem_prev → 0 ⇒
//!   g → 0) score ≈ 1 → *preserve connectivity*.

use scion_types::{Duration, FastMap, IsdAsn, LinkId, SimTime};

use crate::config::DiversityParams;

/// The key of one Link History Table: `[origin AS, neighbor AS]`.
pub type PairKey = (IsdAsn, IsdAsn);

/// Link History Tables for all pairs, and the Sent-PCBs List whose purge
/// rolls their counters back.
///
/// Links are interned: the first time a [`LinkId`] is counted or resolved
/// it gets the next `u32` slot, and tables and sent instances name links
/// by slot, so the selection loop (through `DenseCounters`) hashes a link
/// once per interval instead of once per score. Pairs are interned the same
/// way the first time one is counted, so a sent instance names its pair in
/// 4 B.
///
/// Slots and pair ids are never freed. What bounds them: a link is interned
/// only when it lies on a path this server stored or sent (a stored
/// beacon's interior and ingress links, a local egress link), so a history
/// holds at most as many slots as the topology has links, however long it
/// runs; a pair gets an id only when something is sent for it, so there
/// are at most origins × neighbors of them.
///
/// Within one server the slot key of the Sent-PCBs List names a path
/// exactly as its hops and ingress interface would: a slot names one link
/// for good, the links of a loop-free path fix the order of its ASes and
/// every interface on it, and the local AS, which ends every path, fixes
/// its direction. A key holds the beacon's interior links, then the one it
/// arrived on; the origination's key is `[]`. The egress link a send
/// appends is its instance's, so one key per arrival path names every
/// instance a candidate of it can read.
#[derive(Clone, Debug, Default)]
pub struct LinkHistory {
    slots: FastMap<LinkId, u32>,
    /// The id of every pair ever counted: its index in `counters`.
    pairs: FastMap<PairKey, u32>,
    /// Per pair id, the non-zero counters as `(slot, count)`, ordered by
    /// slot; an emptied table gives its allocation back.
    counters: Vec<Vec<(u32, u32)>>,
    /// The Sent-PCBs List: per arrival path, its unexpired sends in send
    /// order.
    sent: FastMap<Box<[u32]>, Vec<SentPcb>>,
}

/// One sent PCB instance (§4.2: "the algorithm stores the link diversity
/// score as well as the age and the lifetime of every PCB it disseminates
/// to each egress interface"). Its path's links and its egress link stay
/// counted for its pair until it expires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SentPcb {
    /// The slot of the egress link it went out of, which names the local
    /// interface.
    pub(crate) egress: u32,
    /// The pair's id: its table's index in the history's counters.
    pair: u32,
    /// The geometric mean of the path's counters *after* the send's own
    /// increments, so a just-sent path never scores as fully diverse.
    geomean: f64,
    /// Expiry of the sent instance: Eq. (3)'s remaining lifetime is
    /// measured to it.
    pub expires_at: SimTime,
}

// One per send until it lapses: a field that makes it bigger fails the
// build.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<SentPcb>() == 24);

impl SentPcb {
    /// The diversity score Eq. (3) raises to its exponent, floored at a
    /// small ε: Eq. (3)'s connectivity recovery raises the score to ds^g
    /// with g → 0 as the sent instance nears expiry, which only reaches ≈ 1
    /// when ds > 0 — a score of exactly 0 would permanently block refreshes
    /// of a pair's only path (DESIGN.md §6.1).
    pub fn diversity_score(&self, max_geomean: f64) -> f64 {
        score_of(self.geomean, max_geomean).max(0.01)
    }
}

/// Position of `slot` in a pair's table, or where it would be inserted.
fn find_slot(table: &[(u32, u32)], slot: u32) -> Result<usize, usize> {
    table.binary_search_by_key(&slot, |&(s, _)| s)
}

/// `ln(1 + c)`: the +1-smoothed log of one counter.
fn ln_smoothed(c: u32) -> f64 {
    f64::from(c + 1).ln()
}

/// The geometric mean of `links` smoothed counters whose logs sum to
/// `log_sum`.
fn geomean(log_sum: f64, links: usize) -> f64 {
    (log_sum / links as f64).exp()
}

/// The diversity score of a path with the given smoothed geometric mean.
fn score_of(geomean: f64, max_geomean: f64) -> f64 {
    (1.0 - (geomean / max_geomean).min(1.0)).max(0.0)
}

impl LinkHistory {
    pub fn new() -> LinkHistory {
        LinkHistory::default()
    }

    /// Drops every sent instance that has expired by `now` and rolls its
    /// counter increments back.
    pub fn purge(&mut self, now: SimTime) {
        let counters = &mut self.counters;
        self.sent.retain(|path, sends| {
            sends.retain(|sent| {
                if now < sent.expires_at {
                    return true;
                }
                let table = &mut counters[sent.pair as usize];
                for &slot in path.iter().chain([&sent.egress]) {
                    if let Ok(i) = find_slot(table, slot) {
                        table[i].1 -= 1;
                        if table[i].1 == 0 {
                            table.remove(i);
                        }
                    }
                }
                if table.is_empty() {
                    *table = Vec::new();
                }
                false
            });
            !sends.is_empty()
        });
    }

    /// The slot of `link`, interning it on first sight.
    pub(crate) fn slot(&mut self, link: LinkId) -> u32 {
        let next = self.slots.len() as u32;
        *self.slots.entry(link).or_insert(next)
    }

    /// The `(slot, count)` table of `pair` (empty if nothing is counted).
    fn table(&self, pair: PairKey) -> &[(u32, u32)] {
        self.pairs
            .get(&pair)
            .map_or(&[], |&id| &self.counters[id as usize])
    }

    /// The slot of `link`, if it has one.
    pub(crate) fn slot_of(&self, link: LinkId) -> Option<u32> {
        self.slots.get(&link).copied()
    }

    /// Counter of `link` in `table` (0 if never counted).
    fn counter_in(&self, table: &[(u32, u32)], link: LinkId) -> u32 {
        self.slot_of(link)
            .and_then(|slot| find_slot(table, slot).ok())
            .map_or(0, |i| table[i].1)
    }

    /// Counter of `link` for `pair` (0 if never counted).
    pub fn counter(&self, pair: PairKey, link: LinkId) -> u32 {
        self.counter_in(self.table(pair), link)
    }

    /// Records a dissemination over `links`, the last of them the egress
    /// link: increments every link's counter for `pair` until `expires_at`,
    /// and files the sent instance under the path of the links before the
    /// egress link. An empty path counts nothing and is not recorded.
    pub fn record_dissemination(&mut self, pair: PairKey, links: &[LinkId], expires_at: SimTime) {
        let Some((&last, links)) = links.split_last() else {
            return;
        };
        let path: Vec<u32> = links.iter().map(|&link| self.slot(link)).collect();
        let egress = self.slot(last);
        self.record(pair, &path, egress, expires_at, |table| {
            let mut log_sum = 0.0f64;
            for &slot in path.iter().chain([&egress]) {
                log_sum += find_slot(table, slot).map_or(0.0, |i| ln_smoothed(table[i].1));
            }
            geomean(log_sum, path.len() + 1)
        });
    }

    /// [`LinkHistory::record_dissemination`] for links already resolved by
    /// [`LinkHistory::slot`]: the one place a send is counted and filed.
    /// `geomean` reads the path's post-send geometric mean off the pair's
    /// table once the send is counted in it.
    ///
    /// A re-send out of the same interface supersedes the path's earlier
    /// instance there for Eq. (3) and never expires before it: the store
    /// keeps only a path's newest instance, an origin stamps every PCB
    /// with the same lifetime, and an origination expires at `now +
    /// lifetime`. So the last instance of an interface lapses last, and
    /// while it is live it is the one Eq. (3) reads.
    fn record(
        &mut self,
        pair: PairKey,
        path: &[u32],
        egress: u32,
        expires_at: SimTime,
        geomean: impl FnOnce(&[(u32, u32)]) -> f64,
    ) {
        let next = self.counters.len() as u32;
        let pair = *self.pairs.entry(pair).or_insert(next);
        if pair == next {
            self.counters.push(Vec::new());
        }
        let table = &mut self.counters[pair as usize];
        for &slot in path.iter().chain([&egress]) {
            match find_slot(table, slot) {
                Ok(i) => table[i].1 += 1,
                Err(i) => table.insert(i, (slot, 1)),
            }
        }
        let sent = SentPcb {
            egress,
            pair,
            geomean: geomean(table),
            expires_at,
        };
        match self.sent.get_mut(path) {
            Some(sends) => {
                debug_assert!(
                    sends
                        .iter()
                        .rev()
                        .find(|s| s.egress == egress)
                        .is_none_or(|last| last.expires_at <= expires_at),
                    "a re-send expires before the instance it supersedes"
                );
                sends.push(sent);
            }
            None => {
                self.sent.insert(path.into(), vec![sent]);
            }
        }
    }

    /// The unexpired instances sent for the path keyed by `path`, in send
    /// order (those past their expiry until [`LinkHistory::purge`] drops
    /// them).
    pub fn sent(&self, path: &[u32]) -> &[SentPcb] {
        self.sent.get(path).map_or(&[], Vec::as_slice)
    }

    /// Eq. (3)'s record of the path keyed by `path` on the interface of
    /// the egress link `egress`: the last instance sent out of it, while
    /// it is live (an expired previously-sent instance no longer counts as
    /// "previously sent").
    pub fn last_sent(&self, path: &[u32], egress: u32, now: SimTime) -> Option<SentPcb> {
        last_sent(self.sent(path), egress).filter(|sent| now < sent.expires_at)
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
        let table = self.table(pair);
        let mut log_sum = 0.0f64;
        for &link in links {
            log_sum += ln_smoothed(self.counter_in(table, link));
        }
        geomean(log_sum, links.len())
    }

    /// The link diversity score of a candidate path: `1 − min(1, gm /
    /// max_gm)`, in [0, 1], where 1 means fully disjoint from everything
    /// previously disseminated for this pair.
    pub fn diversity_score(&self, pair: PairKey, links: &[LinkId], max_geomean: f64) -> f64 {
        score_of(self.geometric_mean(pair, links), max_geomean)
    }

    /// The number of (path, interface) pairs with a send on record.
    #[cfg(test)]
    pub(crate) fn records(&self) -> usize {
        let records = |sends: &Vec<SentPcb>| {
            let mut egresses: Vec<u32> = sends.iter().map(|s| s.egress).collect();
            egresses.sort_unstable();
            egresses.dedup();
            egresses.len()
        };
        self.sent.values().map(records).sum()
    }

    /// Number of live (pair, link) counters — for tests and memory stats.
    pub fn live_counters(&self) -> usize {
        self.counters.iter().map(Vec::len).sum()
    }
}

/// The last of `sends` that went out of the egress link `egress`.
pub(crate) fn last_sent(sends: &[SentPcb], egress: u32) -> Option<SentPcb> {
    sends.iter().rev().find(|s| s.egress == egress).copied()
}

/// One pair's Link History Table spread over an array indexed by slot, so
/// the selection loop reads a counter without a search and bumps it in
/// place. All zero between pairs: [`DenseCounters::load`] fills it from the
/// pair's table and [`DenseCounters::clear`] empties it through the same
/// table, which names every slot [`DenseCounters::record`] bumped since.
pub(crate) struct DenseCounters {
    counts: Vec<u32>,
    /// [`ln_smoothed`] of the counters a table usually holds, filled by
    /// that call so a looked-up value is the computed one to the bit.
    ln: [f64; 32],
}

impl DenseCounters {
    /// All-zero counters for every slot `history` has handed out.
    pub(crate) fn new(history: &LinkHistory) -> DenseCounters {
        DenseCounters {
            counts: vec![0; history.slots.len()],
            ln: std::array::from_fn(|c| ln_smoothed(c as u32)),
        }
    }

    /// Fills in `pair`'s counters.
    pub(crate) fn load(&mut self, history: &LinkHistory, pair: PairKey) {
        for &(slot, count) in history.table(pair) {
            self.counts[slot as usize] = count;
        }
    }

    /// Zeroes `pair`'s counters again.
    pub(crate) fn clear(&mut self, history: &LinkHistory, pair: PairKey) {
        for &(slot, _) in history.table(pair) {
            self.counts[slot as usize] = 0;
        }
    }

    /// Records a dissemination over the path `[path.., egress]` for the
    /// loaded pair, here and in `history`.
    pub(crate) fn record(
        &mut self,
        history: &mut LinkHistory,
        pair: PairKey,
        path: &[u32],
        egress: u32,
        expires_at: SimTime,
    ) {
        for &slot in path.iter().chain([&egress]) {
            self.counts[slot as usize] += 1;
        }
        history.record(pair, path, egress, expires_at, |_| {
            self.geomean(path, egress)
        });
    }

    fn ln_smoothed(&self, slot: u32) -> f64 {
        let c = self.counts[slot as usize];
        match self.ln.get(c as usize) {
            Some(&ln) => ln,
            None => ln_smoothed(c),
        }
    }

    /// [`LinkHistory::geometric_mean`] of the path `[path.., egress]` for
    /// the loaded pair, summed in that order.
    fn geomean(&self, path: &[u32], egress: u32) -> f64 {
        let mut log_sum = 0.0f64;
        for &slot in path {
            log_sum += self.ln_smoothed(slot);
        }
        log_sum += self.ln_smoothed(egress);
        geomean(log_sum, path.len() + 1)
    }

    /// [`LinkHistory::diversity_score`] of the path `[path.., egress]` for
    /// the loaded pair.
    pub(crate) fn diversity_score(&self, path: &[u32], egress: u32, max_geomean: f64) -> f64 {
        score_of(self.geomean(path, egress), max_geomean)
    }
}

/// Eq. (2): exponent for never-sent beacons.
pub fn exponent_unsent(params: &DiversityParams, age: Duration, lifetime: Duration) -> f64 {
    params.alpha * age.ratio(lifetime)
}

/// Eq. (3): exponent for previously-sent beacons.
pub fn exponent_sent(
    params: &DiversityParams,
    prev_remaining: Duration,
    cur_remaining: Duration,
) -> f64 {
    (params.beta * prev_remaining.ratio(cur_remaining)).powf(params.gamma)
}

/// Eq. (1): the final score.
pub fn final_score(diversity_score: f64, exponent: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&diversity_score));
    diversity_score.powf(exponent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scion_types::{Asn, IfId, Isd, LinkEnd};

    fn ia(asn: u64) -> IsdAsn {
        IsdAsn::new(Isd(1), Asn::from_u64(asn))
    }

    fn link(a: u64, ai: u16, b: u64, bi: u16) -> LinkId {
        LinkId::new(LinkEnd::new(ia(a), IfId(ai)), LinkEnd::new(ia(b), IfId(bi)))
    }

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + Duration::from_secs(secs)
    }

    const PARAMS: DiversityParams = DiversityParams {
        alpha: 4.0,
        beta: 3.0,
        gamma: 4.0,
        max_geomean: 8.0,
        score_threshold: 0.3,
    };

    #[test]
    fn counters_increment_and_decay() {
        let mut h = LinkHistory::new();
        let pair = (ia(1), ia(2));
        let l1 = link(1, 1, 3, 1);
        h.record_dissemination(pair, &[l1], t(100));
        h.record_dissemination(pair, &[l1], t(200));
        assert_eq!(h.counter(pair, l1), 2);
        h.purge(t(100));
        assert_eq!(h.counter(pair, l1), 1, "first contribution rolled back");
        h.purge(t(200));
        assert_eq!(h.counter(pair, l1), 0);
        assert_eq!(h.live_counters(), 0);
    }

    #[test]
    fn pairs_are_independent() {
        let mut h = LinkHistory::new();
        let l1 = link(1, 1, 3, 1);
        h.record_dissemination((ia(1), ia(2)), &[l1], t(100));
        assert_eq!(h.counter((ia(1), ia(2)), l1), 1);
        assert_eq!(h.counter((ia(1), ia(9)), l1), 0);
        assert_eq!(h.counter((ia(2), ia(1)), l1), 0, "direction matters");
    }

    #[test]
    fn geometric_mean_discounts_but_keeps_new_links_attractive() {
        let mut h = LinkHistory::new();
        let pair = (ia(1), ia(2));
        let seen = link(1, 1, 3, 1);
        let new = link(3, 2, 4, 1);
        // Fully fresh path: smoothed mean is exactly 1.
        assert!((h.geometric_mean(pair, &[seen, new]) - 1.0).abs() < 1e-12);
        h.record_dissemination(pair, &[seen], t(100));
        // Mixing one fresh link halves the jointness growth but does not
        // reset it to "fully diverse".
        let mixed = h.geometric_mean(pair, &[seen, new]);
        let pure = h.geometric_mean(pair, &[seen]);
        assert!(mixed > 1.0 && mixed < pure, "mixed {mixed} pure {pure}");
    }

    #[test]
    fn geometric_mean_is_geometric() {
        let mut h = LinkHistory::new();
        let pair = (ia(1), ia(2));
        let l1 = link(1, 1, 3, 1);
        let l2 = link(3, 2, 4, 1);
        // l1 counted 3 times (smoothed 4), l2 once (smoothed 2)
        // -> gm = sqrt(4 * 2).
        for _ in 0..3 {
            h.record_dissemination(pair, &[l1], t(100));
        }
        h.record_dissemination(pair, &[l2], t(100));
        assert!((h.geometric_mean(pair, &[l1, l2]) - 8.0f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn diversity_score_orientation() {
        let mut h = LinkHistory::new();
        let pair = (ia(1), ia(2));
        let l1 = link(1, 1, 3, 1);
        // Unused link: maximally diverse under smoothing (gm = 1).
        assert!((h.diversity_score(pair, &[l1], 8.0) - 0.875).abs() < 1e-12);
        // Saturated link: jointness at/above max -> 0.
        for _ in 0..7 {
            h.record_dissemination(pair, &[l1], t(100));
        }
        assert!(h.diversity_score(pair, &[l1], 8.0) < 1e-9);
        // Clamped below 0 is impossible.
        for _ in 0..8 {
            h.record_dissemination(pair, &[l1], t(100));
        }
        assert_eq!(h.diversity_score(pair, &[l1], 8.0), 0.0);
    }

    #[test]
    fn eq2_fresh_beacons_score_high_regardless_of_overlap() {
        let f = exponent_unsent(&PARAMS, Duration::from_secs(0), Duration::from_hours(6));
        assert_eq!(f, 0.0);
        assert_eq!(final_score(0.2, f), 1.0); // 0.2^0 = 1
                                              // Slightly aged: ordering by diversity kicks in.
        let f = exponent_unsent(&PARAMS, Duration::from_mins(10), Duration::from_hours(6));
        assert!(final_score(0.9, f) > final_score(0.2, f));
    }

    #[test]
    fn eq3_objectives() {
        let life = Duration::from_hours(6);
        // Just resent: rem_prev == rem_cur -> heavy suppression.
        let g = exponent_sent(&PARAMS, life, life);
        assert!(final_score(0.9, g) < PARAMS.score_threshold);
        // Previously-sent instance about to expire -> recovery.
        let g = exponent_sent(&PARAMS, Duration::from_mins(5), life);
        assert!(final_score(0.9, g) > 0.9);
        // Monotonic in between.
        let mid = exponent_sent(&PARAMS, Duration::from_hours(3), life);
        let late = exponent_sent(&PARAMS, Duration::from_hours(1), life);
        assert!(mid > late);
    }

    #[test]
    fn sent_list_lookup_and_expiry() {
        let mut h = LinkHistory::new();
        let pair = (ia(1), ia(2));
        let (a, b, out) = (link(1, 1, 3, 1), link(3, 2, 4, 1), link(4, 2, 5, 1));
        h.record_dissemination(pair, &[a, b, out], t(100));
        let key = [h.slot(a), h.slot(b)];
        let (out, other) = (h.slot(out), h.slot(link(4, 3, 6, 1)));
        let sent = h.last_sent(&key, out, t(50)).unwrap();
        assert_eq!(sent.expires_at, t(100));
        // Counted 1 on each of three links: gm = 2, ds = 1 − 2/8.
        assert_eq!(sent.diversity_score(8.0), 0.75);
        assert!(h.last_sent(&key, other, t(50)).is_none(), "per-interface");
        assert!(h.last_sent(&key[..1], out, t(50)).is_none(), "per-path");
        // At expiry the instance stops answering; the purge deletes it.
        assert!(h.last_sent(&key, out, t(100)).is_none());
        assert_eq!(h.sent(&key).len(), 1, "a read deletes nothing");
        assert_eq!(h.counter(pair, a), 1, "nor rolls anything back");
        h.purge(t(100));
        assert!(h.sent(&key).is_empty());
        assert_eq!(h.live_counters(), 0);
    }

    #[test]
    fn sent_list_purge() {
        let mut h = LinkHistory::new();
        let shared = link(1, 1, 3, 1);
        for i in 0..5u16 {
            // Two paths, the origination's and one of a link, the sends of
            // each spread over interfaces.
            let path: &[LinkId] = if i % 2 == 0 { &[shared] } else { &[] };
            let links = [path, &[link(3, 10 + i, 9, i)]].concat();
            h.record_dissemination((ia(1), ia(2)), &links, t(100 + u64::from(i)));
        }
        let key = [h.slot(shared)];
        assert_eq!((h.sent(&key).len(), h.sent(&[]).len()), (3, 2));
        assert_eq!(h.counter((ia(1), ia(2)), shared), 3);
        h.purge(t(102));
        assert_eq!((h.sent(&key).len(), h.sent(&[]).len()), (1, 1));
        assert_eq!(h.counter((ia(1), ia(2)), shared), 1);
        h.purge(t(103));
        assert_eq!((h.sent(&key).len(), h.sent(&[]).len()), (1, 0));
        assert_eq!(h.live_counters(), 2, "the last send's two links");
    }

    #[test]
    fn a_resend_supersedes_for_eq3_and_both_count_until_they_lapse() {
        let mut h = LinkHistory::new();
        let pair = (ia(1), ia(2));
        let out = link(1, 1, 3, 1);
        h.record_dissemination(pair, &[out], t(100));
        h.record_dissemination(pair, &[out], t(150));
        let slot = h.slot(out);
        let sent = h.last_sent(&[], slot, t(70)).unwrap();
        assert_eq!(sent.expires_at, t(150));
        // Counted twice: gm = 3, ds = 1 − 3/8.
        assert_eq!(sent.diversity_score(8.0), 0.625);
        assert_eq!(h.sent(&[]).len(), 2);
        assert_eq!(h.counter(pair, out), 2);
        h.purge(t(100));
        assert_eq!(h.counter(pair, out), 1, "the superseded send lapsed");
        assert_eq!(h.last_sent(&[], slot, t(100)), Some(sent));
        h.purge(t(150));
        assert_eq!(h.live_counters(), 0);
        assert!(h.sent(&[]).is_empty());
    }

    #[test]
    fn an_emptied_table_gives_its_allocation_back() {
        let mut h = LinkHistory::new();
        let pair = (ia(1), ia(2));
        h.record_dissemination(pair, &[link(1, 1, 3, 1), link(3, 2, 4, 1)], t(100));
        h.record_dissemination((ia(1), ia(3)), &[link(1, 1, 3, 1)], t(200));
        assert_eq!(h.pairs.len(), 2);
        h.purge(t(100));
        assert_eq!(h.counters[h.pairs[&pair] as usize].capacity(), 0);
        assert_eq!(h.live_counters(), 1);
        // The pair keeps its id and counts again from an empty table.
        h.record_dissemination(pair, &[link(1, 1, 3, 1)], t(300));
        assert_eq!(h.pairs.len(), 2);
        assert_eq!(h.counter(pair, link(1, 1, 3, 1)), 1);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// The arrival paths the conservation law sends: the origination's
        /// (`[]`) and three that share links, each with its origin.
        fn paths() -> [(u64, Vec<LinkId>); 4] {
            let (a, b, c) = (link(1, 1, 2, 1), link(2, 2, 50, 1), link(3, 1, 50, 2));
            [(50, vec![]), (1, vec![a]), (1, vec![a, b]), (3, vec![c, b])]
        }

        /// The egress links the conservation law sends out of, to
        /// neighbors 60, 61 and 62.
        fn egresses() -> [LinkId; 3] {
            [0, 1, 2].map(|e| link(50, 10 + e, 60 + u64::from(e), 1))
        }

        /// One send of the conservation law's model.
        struct Send {
            path: usize,
            egress: usize,
            pair: PairKey,
            links: Vec<LinkId>,
            expires_at: SimTime,
            geomean: f64,
        }

        /// Number of the model's unpurged sends of `pair` that cross `link`.
        fn model_count(model: &[Send], pair: PairKey, link: LinkId) -> u32 {
            model
                .iter()
                .filter(|s| s.pair == pair && s.links.contains(&link))
                .count() as u32
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

            /// The rollback schedule's conservation law. Random sends,
            /// re-sends of a live (path, interface), clock steps and purges
            /// at non-decreasing times play against a model that keeps
            /// every send until a purge at or after its expiry drops it; a
            /// (path, interface)'s sends expire `now + lifetime` with one
            /// lifetime each, so a re-send never expires first. After every
            /// step: each `(pair, link)` counter is the number of the
            /// model's sends of the pair that cross the link,
            /// `live_counters` is the number of such non-zero counters, and
            /// the Eq. (3) record of each (path, interface) is its last
            /// send while that send is live and nothing once it lapsed.
            #[test]
            fn counters_are_the_unpurged_sends_and_eq3_reads_the_last(
                steps in proptest::collection::vec((0u8..5, 0usize..64, 0u64..4), 1..80),
                lifetimes in proptest::collection::vec(1u64..10, 12..=12),
            ) {
                let (paths, egresses) = (paths(), egresses());
                let pairs: Vec<PairKey> = [50, 1, 3]
                    .into_iter()
                    .flat_map(|origin| (60..63).map(move |n| (ia(origin), ia(n))))
                    .collect();
                let mut universe: Vec<LinkId> = paths
                    .iter()
                    .flat_map(|(_, links)| links.iter().copied())
                    .chain(egresses)
                    .collect();
                universe.sort();
                universe.dedup();
                let mut h = LinkHistory::new();
                let mut model: Vec<Send> = Vec::new();
                let mut now = t(0);
                for &(kind, pick, dt) in &steps {
                    let send = match kind {
                        0 | 1 => Some((pick % paths.len(), pick / paths.len() % egresses.len())),
                        2 => {
                            let live: Vec<_> = model.iter().filter(|s| now < s.expires_at).collect();
                            (!live.is_empty()).then(|| {
                                let s = live[pick % live.len()];
                                (s.path, s.egress)
                            })
                        }
                        3 => {
                            now = now + Duration::from_secs(dt);
                            None
                        }
                        _ => {
                            h.purge(now);
                            model.retain(|s| now < s.expires_at);
                            None
                        }
                    };
                    if let Some((path, egress)) = send {
                        let (origin, interior) = &paths[path];
                        let pair = (ia(*origin), ia(60 + egress as u64));
                        let links = [&interior[..], &[egresses[egress]]].concat();
                        let lifetime = lifetimes[path * egresses.len() + egress];
                        let expires_at = now + Duration::from_secs(lifetime);
                        h.record_dissemination(pair, &links, expires_at);
                        model.push(Send { path, egress, pair, links, expires_at, geomean: 0.0 });
                        let mut log_sum = 0.0f64;
                        for &link in &model.last().unwrap().links {
                            log_sum += f64::from(model_count(&model, pair, link) + 1).ln();
                        }
                        let last = model.last_mut().unwrap();
                        last.geomean = (log_sum / last.links.len() as f64).exp();
                    }

                    let mut non_zero = 0;
                    for &pair in &pairs {
                        for &link in &universe {
                            let count = model_count(&model, pair, link);
                            prop_assert_eq!(h.counter(pair, link), count, "{:?} {:?} at {}", pair, link, now);
                            non_zero += usize::from(count > 0);
                        }
                    }
                    prop_assert_eq!(h.live_counters(), non_zero);
                    for (p, (_, interior)) in paths.iter().enumerate() {
                        for (e, &out) in egresses.iter().enumerate() {
                            let expected = model
                                .iter()
                                .rev()
                                .find(|s| (s.path, s.egress) == (p, e))
                                .filter(|s| now < s.expires_at)
                                .map(|s| (s.expires_at, s.geomean.to_bits()));
                            let key: Option<Vec<u32>> = interior.iter().map(|&l| h.slot_of(l)).collect();
                            let read = key
                                .zip(h.slot_of(out))
                                .and_then(|(key, out)| h.last_sent(&key, out, now))
                                .map(|s| (s.expires_at, s.geomean.to_bits()));
                            prop_assert_eq!(read, expected, "path {} out of {} at {}", p, e, now);
                        }
                    }
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

            /// Whatever was disseminated, a path's diversity score lies in
            /// [0, 1], starts at `1 − 1/max_geomean` on an untouched table,
            /// and never rises when a counter is incremented.
            #[test]
            fn diversity_score_is_bounded_and_monotone(
                sent in proptest::collection::vec(proptest::collection::vec(1u16..9, 1..5), 0..12),
                path in proptest::collection::vec(1u16..9, 1..6),
                max_geomean in 1.0f64..16.0,
            ) {
                let pair = (ia(1), ia(2));
                let links = |ifs: &[u16]| ifs.iter().map(|&i| link(1, i, 2, i)).collect::<Vec<_>>();
                let path = links(&path);
                let mut h = LinkHistory::new();
                let mut before = h.diversity_score(pair, &path, max_geomean);
                prop_assert_eq!(before, 1.0 - 1.0 / max_geomean);
                for ifs in &sent {
                    h.record_dissemination(pair, &links(ifs), t(100));
                    let after = h.diversity_score(pair, &path, max_geomean);
                    prop_assert!((0.0..=1.0).contains(&after), "score {}", after);
                    prop_assert!(after <= before, "rose from {} to {}", before, after);
                    before = after;
                }
            }

            /// What the selection loop's lazy heap rests on: whatever a
            /// pair's table holds (counters past the `ln` table included),
            /// recording any path never raises a candidate's Eq. (1) score
            /// under an exponent `f ≥ 0`, to the bit.
            #[test]
            fn final_score_never_rises_as_counters_grow(
                table in proptest::collection::vec((proptest::collection::vec(0u32..10, 1..5), 1usize..24), 0..6),
                path in proptest::collection::vec(0u32..10, 0..6),
                egress in 0u32..10,
                recorded in proptest::collection::vec(proptest::collection::vec(0u32..10, 1..6), 1..16),
                f in prop_oneof![Just(0.0f64), 0.0f64..64.0, 64.0f64..1e6],
                max_geomean in prop_oneof![1.0f64..16.0, Just(1e9)],
            ) {
                let pair = (ia(1), ia(2));
                let mut h = LinkHistory::new();
                for i in 0..10u16 {
                    prop_assert_eq!(h.slot(link(1, i, 2, i)), u32::from(i));
                }
                for (slots, times) in &table {
                    for _ in 0..*times {
                        let links: Vec<_> = slots.iter().map(|&s| link(1, s as u16, 2, s as u16)).collect();
                        h.record_dissemination(pair, &links, t(100));
                    }
                }
                let mut counters = DenseCounters::new(&h);
                counters.load(&h, pair);
                let score = |c: &DenseCounters| {
                    final_score(c.diversity_score(&path, egress, max_geomean), f)
                };
                let mut before = score(&counters);
                for slots in &recorded {
                    let (&egress, path) = slots.split_last().unwrap();
                    counters.record(&mut h, pair, path, egress, t(100));
                    let after = score(&counters);
                    prop_assert!(after >= 0.0, "negative score {}", after);
                    prop_assert!(after.to_bits() <= before.to_bits(), "rose from {} to {}", before, after);
                    before = after;
                }
            }
        }
    }
}
