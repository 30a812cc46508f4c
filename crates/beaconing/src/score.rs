//! Diversity-score machinery: Link History Tables, Sent-PCB Lists, and the
//! Eq. (1)–(3) scoring functions of §4.2.
//!
//! ## Link History Table
//!
//! "The algorithm stores a Link History Table per [origin AS, neighbor AS]
//! pair. Each table is a one-to-one map from link_ids to their associated
//! counters … the counter counts the number of times the link is part of a
//! **valid** path from the origin AS to the neighbor AS." Because validity
//! matters, counters decay: every increment is recorded as a *contribution*
//! that is rolled back when the beacon instance that caused it expires
//! (DESIGN.md §6.2).
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

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use scion_proto::pcb::PathKey;
use scion_types::{Duration, IfId, IsdAsn, LinkId, SimTime};

use crate::config::DiversityParams;

/// The key of one Link History Table: `[origin AS, neighbor AS]`.
pub type PairKey = (IsdAsn, IsdAsn);

/// Link History Tables for all pairs, with expiry-driven counter decay.
///
/// Links are interned: the first time a [`LinkId`] is counted or resolved
/// it gets the next `u32` slot, and tables and pending rollbacks name links
/// by slot, so the selection loop (through `DenseCounters`) hashes a link
/// once per interval instead of once per score.
///
/// Slots are never freed. What bounds them: a link is interned only when
/// it lies on a path this server stored or sent (a stored beacon's interior
/// and ingress links, a local egress link), so a history holds at most as
/// many slots as the topology has links, however long it runs.
#[derive(Clone, Debug, Default)]
pub struct LinkHistory {
    slots: HashMap<LinkId, u32>,
    /// Per pair, the non-zero counters as `(slot, count)`, ordered by slot.
    counters: HashMap<PairKey, Vec<(u32, u32)>>,
    /// Pending rollbacks, ordered by expiry.
    expiries: BinaryHeap<Reverse<(SimTime, u64)>>,
    contributions: HashMap<u64, (PairKey, Vec<u32>)>,
    next_seq: u64,
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

    /// Rolls back contributions whose beacon instances have expired.
    pub fn purge(&mut self, now: SimTime) {
        while let Some(&Reverse((at, seq))) = self.expiries.peek() {
            if at > now {
                break;
            }
            self.expiries.pop();
            if let Some((pair, slots)) = self.contributions.remove(&seq) {
                if let Some(table) = self.counters.get_mut(&pair) {
                    for slot in slots {
                        if let Ok(i) = find_slot(table, slot) {
                            table[i].1 -= 1;
                            if table[i].1 == 0 {
                                table.remove(i);
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

    /// The slot of `link`, interning it on first sight.
    pub(crate) fn slot(&mut self, link: LinkId) -> u32 {
        let next = self.slots.len() as u32;
        *self.slots.entry(link).or_insert(next)
    }

    /// The `(slot, count)` table of `pair` (empty if nothing is counted).
    fn table(&self, pair: PairKey) -> &[(u32, u32)] {
        self.counters.get(&pair).map_or(&[], Vec::as_slice)
    }

    /// Counter of `link` in `table` (0 if never counted).
    fn counter_in(&self, table: &[(u32, u32)], link: LinkId) -> u32 {
        self.slots
            .get(&link)
            .and_then(|&slot| find_slot(table, slot).ok())
            .map_or(0, |i| table[i].1)
    }

    /// Counter of `link` for `pair` (0 if never counted).
    pub fn counter(&self, pair: PairKey, link: LinkId) -> u32 {
        self.counter_in(self.table(pair), link)
    }

    /// Records a dissemination: increments every link's counter for `pair`
    /// and schedules the rollback at `expires_at`.
    pub fn record_dissemination(&mut self, pair: PairKey, links: &[LinkId], expires_at: SimTime) {
        let slots = links.iter().map(|&link| self.slot(link)).collect();
        self.record_slots(pair, slots, expires_at);
    }

    /// [`LinkHistory::record_dissemination`] for links already resolved by
    /// [`LinkHistory::slot`].
    fn record_slots(&mut self, pair: PairKey, slots: Vec<u32>, expires_at: SimTime) {
        let table = self.counters.entry(pair).or_default();
        for &slot in &slots {
            match find_slot(table, slot) {
                Ok(i) => table[i].1 += 1,
                Err(i) => table.insert(i, (slot, 1)),
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.contributions.insert(seq, (pair, slots));
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

    /// Number of live (pair, link) counters — for tests and memory stats.
    pub fn live_counters(&self) -> usize {
        self.counters.values().map(Vec::len).sum()
    }
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

    /// Records a dissemination over `slots` for the loaded pair, here and
    /// in `history`.
    pub(crate) fn record(
        &mut self,
        history: &mut LinkHistory,
        pair: PairKey,
        slots: Vec<u32>,
        expires_at: SimTime,
    ) {
        for &slot in &slots {
            self.counts[slot as usize] += 1;
        }
        history.record_slots(pair, slots, expires_at);
    }

    fn ln_smoothed(&self, slot: u32) -> f64 {
        let c = self.counts[slot as usize];
        match self.ln.get(c as usize) {
            Some(&ln) => ln,
            None => ln_smoothed(c),
        }
    }

    /// [`LinkHistory::diversity_score`] of the path `[path.., egress]` for
    /// the loaded pair, summed in that order.
    pub(crate) fn diversity_score(&self, path: &[u32], egress: u32, max_geomean: f64) -> f64 {
        let mut log_sum = 0.0f64;
        for &slot in path {
            log_sum += self.ln_smoothed(slot);
        }
        log_sum += self.ln_smoothed(egress);
        score_of(geomean(log_sum, path.len() + 1), max_geomean)
    }
}

/// What the algorithm remembers about a previously-disseminated beacon
/// (§4.2: "the algorithm stores the link diversity score as well as the age
/// and the lifetime of every PCB it disseminates to each egress
/// interface").
#[derive(Clone, Copy, Debug)]
pub struct SentRecord {
    /// Diversity score at (re)send time, *after* the send's own counter
    /// increments (so a just-sent path never scores as fully diverse).
    pub diversity_score: f64,
    /// Initiation of the sent instance.
    pub initiated_at: SimTime,
    /// Expiry of the sent instance.
    pub expires_at: SimTime,
    /// When it was last sent.
    pub last_sent: SimTime,
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

    /// The live record for a candidate on an interface, keyed by the
    /// candidate's hops where they lie (an expired previously-sent instance
    /// no longer counts as "previously sent"; [`SentList::purge`] is what
    /// deletes it).
    pub fn lookup(
        &self,
        iface: IfId,
        key: &[(IsdAsn, IfId, IfId)],
        now: SimTime,
    ) -> Option<SentRecord> {
        let record = self.by_iface.get(&iface)?.get(key)?;
        (now < record.expires_at).then_some(*record)
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
    use scion_types::{Asn, Isd, LinkEnd};

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
        let mut s = SentList::new();
        let key = PathKey(vec![(ia(1), IfId(0), IfId(1))]);
        let rec = SentRecord {
            diversity_score: 0.8,
            initiated_at: t(0),
            expires_at: t(100),
            last_sent: t(0),
        };
        s.record(IfId(1), key.clone(), rec);
        assert!(s.lookup(IfId(1), &key.0, t(50)).is_some());
        assert!(s.lookup(IfId(2), &key.0, t(50)).is_none(), "per-interface");
        // At expiry the record stops answering; the purge deletes it.
        assert!(s.lookup(IfId(1), &key.0, t(100)).is_none());
        assert_eq!(s.len(), 1, "a read deletes nothing");
        s.purge(t(100));
        assert!(s.is_empty());
    }

    #[test]
    fn sent_list_purge() {
        let mut s = SentList::new();
        for i in 0..5u16 {
            s.record(
                IfId(i),
                PathKey(vec![(ia(1), IfId(0), IfId(i))]),
                SentRecord {
                    diversity_score: 1.0,
                    initiated_at: t(0),
                    expires_at: t(100 + u64::from(i)),
                    last_sent: t(0),
                },
            );
        }
        assert_eq!(s.len(), 5);
        s.purge(t(102));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn resend_update_refreshes_timers() {
        let mut s = SentList::new();
        let key = PathKey(vec![(ia(1), IfId(0), IfId(1))]);
        s.record(
            IfId(1),
            key.clone(),
            SentRecord {
                diversity_score: 0.8,
                initiated_at: t(0),
                expires_at: t(100),
                last_sent: t(0),
            },
        );
        s.record(
            IfId(1),
            key.clone(),
            SentRecord {
                diversity_score: 0.6,
                initiated_at: t(50),
                expires_at: t(150),
                last_sent: t(60),
            },
        );
        let r = s.lookup(IfId(1), &key.0, t(70)).unwrap();
        assert_eq!(r.expires_at, t(150));
        assert_eq!(r.last_sent, t(60));
        assert_eq!(s.len(), 1);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

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
        }
    }
}
