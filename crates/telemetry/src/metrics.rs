//! The metrics registry: named counters, gauges, and fixed-bucket
//! histograms, keyed by a [`MetricId`] plus a [`Label`].
//!
//! An instance lives in a slab addressed by array index — the metric id,
//! then the label's dense index — so an update costs a bounds check, not
//! a tree walk over name strings. Iteration visits ids in table order
//! (which is name order, see [`crate::ids`]) and labels in [`Label`]
//! order, so every export is in a deterministic `(name, label)` order
//! independent of insertion history. Two runs with the same seed produce
//! byte-identical metric dumps; the determinism test in
//! `tests/telemetry_determinism.rs` relies on exactly this.

use serde::Serialize;

use crate::ids::MetricId;

/// The label dimension of a metric instance.
///
/// Labels are raw dense indices (`AsIndex.0`, `LinkIndex.0`, `IfId.0`)
/// rather than the topology types themselves so the telemetry crate sits
/// below every other crate in the dependency graph. The registry relies
/// on the density: an `As` or `Link` instance occupies a slot in a table
/// as long as the largest index recorded.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Serialize)]
pub enum Label {
    /// A network-wide metric.
    Global,
    /// Per-AS, by dense AS index.
    As(u32),
    /// Per-interface: `(AS index, interface id)`.
    Iface(u32, u16),
    /// Per-link, by dense link index.
    Link(u32),
}

/// A fixed-bucket histogram with cumulative-walk quantile estimation.
///
/// `bounds` are inclusive upper bucket boundaries in ascending order; one
/// implicit overflow bucket catches everything above the last bound. A
/// value exactly on a boundary lands in that boundary's bucket.
#[derive(Clone, Debug, Serialize)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

/// Default histogram buckets: 1-2.5-5 decades from 0.001 to 100 000,
/// suiting both sub-second latencies (in seconds) and hop counts.
pub const DEFAULT_BUCKETS: [f64; 25] = [
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0, 25_000.0, 50_000.0, 100_000.0,
];

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new(&DEFAULT_BUCKETS)
    }
}

impl Histogram {
    /// Creates a histogram with the given inclusive upper bounds (must be
    /// ascending; an overflow bucket is added automatically).
    pub fn new(bounds: &[f64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascending");
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        // First bound the value does not exceed; `len()` is the overflow
        // bucket, where a NaN also lands (as it compares below nothing).
        let bucket = self
            .bounds
            .partition_point(|&b| b < value || value.is_nan());
        self.counts[bucket] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation (`None` before the first observation).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` before the first observation).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of all observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The upper bounds (without the implicit overflow bucket).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (the last entry is the overflow bucket).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Merges another histogram into this one (bucket-wise addition of
    /// counts plus combined count / sum / min / max). Built for the
    /// shard/merge pattern: parallel shards each fill a local histogram
    /// and the serial merge folds them together in input order, keeping
    /// the result independent of thread scheduling.
    ///
    /// # Panics
    /// Panics when the two histograms have different bucket bounds —
    /// merging across incompatible layouts silently miscounts, so it is
    /// treated as a programming error.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "Histogram::merge requires identical bucket bounds"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) by cumulative walk:
    /// returns the upper bound of the bucket containing the target rank
    /// (clamped to the observed max for the overflow bucket, and to the
    /// observed min from below). Returns `None` when empty or when `q` is
    /// NaN; a `q` outside `[0, 1]` is clamped into the range.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || q.is_nan() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-based, at least 1.
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                let est = if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max
                };
                // The estimate can never lie outside the observed range.
                return Some(est.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }
}

/// Every instance of one metric id, laid out by label shape: a scalar for
/// [`Label::Global`], a table indexed by the dense AS / link index, and
/// per AS a table indexed by interface id. `None` marks a slot that was
/// never recorded, so an instance incremented by zero still exists and a
/// gap between two recorded indices is not an instance. Tables grow on
/// first use to the largest index seen; nothing is sized to the topology
/// up front. The interface tables rely on density as the others do —
/// interface ids run 1, 2, … per AS (`AsNode::links`: position = id − 1)
/// — and are bounded where that does not hold: a per-AS table is as long
/// as the largest interface id recorded there, at most 65 536 slots.
#[derive(Clone, Debug)]
struct Slab<T> {
    global: Option<T>,
    by_as: Vec<Option<T>>,
    by_iface: Vec<Vec<Option<T>>>,
    by_link: Vec<Option<T>>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            global: None,
            by_as: Vec::new(),
            by_iface: Vec::new(),
            by_link: Vec::new(),
        }
    }
}

/// The slot at `index`, growing the table to reach it.
#[inline]
fn slot_at<S: Default>(table: &mut Vec<S>, index: usize) -> &mut S {
    if index >= table.len() {
        table.resize_with(index + 1, S::default);
    }
    &mut table[index]
}

impl<T> Slab<T> {
    #[inline]
    fn get_or_insert_with(&mut self, label: Label, init: impl FnOnce() -> T) -> &mut T {
        match label {
            Label::Global => self.global.get_or_insert_with(init),
            Label::As(n) => slot_at(&mut self.by_as, n as usize).get_or_insert_with(init),
            Label::Link(l) => slot_at(&mut self.by_link, l as usize).get_or_insert_with(init),
            Label::Iface(n, interface) => {
                let table = slot_at(&mut self.by_iface, n as usize);
                slot_at(table, interface as usize).get_or_insert_with(init)
            }
        }
    }

    fn get(&self, label: Label) -> Option<&T> {
        match label {
            Label::Global => self.global.as_ref(),
            Label::As(n) => self.by_as.get(n as usize)?.as_ref(),
            Label::Link(l) => self.by_link.get(l as usize)?.as_ref(),
            Label::Iface(n, interface) => {
                let table = self.by_iface.get(n as usize)?;
                table.get(interface as usize)?.as_ref()
            }
        }
    }

    /// Recorded instances in [`Label`] order.
    fn iter(&self) -> impl Iterator<Item = (Label, &T)> + '_ {
        fn dense<'a, T>(
            table: &'a [Option<T>],
            label: impl Fn(u32) -> Label + 'a,
        ) -> impl Iterator<Item = (Label, &'a T)> + 'a {
            table
                .iter()
                .enumerate()
                .filter_map(move |(i, slot)| Some((label(i as u32), slot.as_ref()?)))
        }
        let ifaces = self.by_iface.iter().enumerate().flat_map(|(n, table)| {
            // A table never outgrows the u16 that indexed it.
            dense(table, move |interface| {
                Label::Iface(n as u32, interface as u16)
            })
        });
        (self.global.iter().map(|v| (Label::Global, v)))
            .chain(dense(&self.by_as, Label::As))
            .chain(ifaces)
            .chain(dense(&self.by_link, Label::Link))
    }
}

// One metric kind is a `Vec<Slab<T>>` indexed by the id's table position
// and grown on first use; these three address it.

#[inline]
fn instance<T>(
    slabs: &mut Vec<Slab<T>>,
    id: MetricId,
    label: Label,
    init: impl FnOnce() -> T,
) -> &mut T {
    slot_at(slabs, id.index()).get_or_insert_with(label, init)
}

fn lookup<T>(slabs: &[Slab<T>], id: MetricId, label: Label) -> Option<&T> {
    slabs.get(id.index())?.get(label)
}

/// Recorded instances in `(name, label)` order.
fn instances<T>(slabs: &[Slab<T>]) -> impl Iterator<Item = (MetricId, Label, &T)> + '_ {
    slabs.iter().enumerate().flat_map(|(index, slab)| {
        let id = MetricId::from_index(index);
        slab.iter().map(move |(label, v)| (id, label, v))
    })
}

/// The registry: all counters, gauges, and histograms of one run.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counters: Vec<Slab<u64>>,
    gauges: Vec<Slab<f64>>,
    histograms: Vec<Slab<Histogram>>,
}

impl MetricsRegistry {
    /// An empty registry (allocates nothing until the first record).
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `delta` to a counter, creating it at zero on first use.
    #[inline]
    pub fn inc_counter(&mut self, id: MetricId, label: Label, delta: u64) {
        *instance(&mut self.counters, id, label, || 0) += delta;
    }

    /// Sets a gauge to `value`.
    pub fn set_gauge(&mut self, id: MetricId, label: Label, value: f64) {
        *instance(&mut self.gauges, id, label, || value) = value;
    }

    /// Records an observation into a histogram with [`DEFAULT_BUCKETS`].
    pub fn observe(&mut self, id: MetricId, label: Label, value: f64) {
        self.observe_with_buckets(id, label, &DEFAULT_BUCKETS, value);
    }

    /// Records an observation into a histogram with custom buckets (the
    /// buckets apply only on first creation of the instance).
    pub fn observe_with_buckets(&mut self, id: MetricId, label: Label, bounds: &[f64], value: f64) {
        instance(&mut self.histograms, id, label, || Histogram::new(bounds)).observe(value);
    }

    /// Current counter value (0 if never incremented).
    pub fn counter(&self, id: MetricId, label: Label) -> u64 {
        lookup(&self.counters, id, label).copied().unwrap_or(0)
    }

    /// Current gauge value.
    pub fn gauge(&self, id: MetricId, label: Label) -> Option<f64> {
        lookup(&self.gauges, id, label).copied()
    }

    /// The histogram instance for `(id, label)`, if any.
    pub fn histogram(&self, id: MetricId, label: Label) -> Option<&Histogram> {
        lookup(&self.histograms, id, label)
    }

    /// All counters in deterministic `(name, label)` order.
    pub fn counters(&self) -> impl Iterator<Item = (MetricId, Label, u64)> + '_ {
        instances(&self.counters).map(|(id, l, &v)| (id, l, v))
    }

    /// All gauges in deterministic `(name, label)` order.
    pub fn gauges(&self) -> impl Iterator<Item = (MetricId, Label, f64)> + '_ {
        instances(&self.gauges).map(|(id, l, &v)| (id, l, v))
    }

    /// All histograms in deterministic `(name, label)` order.
    pub fn histograms(&self) -> impl Iterator<Item = (MetricId, Label, &Histogram)> + '_ {
        instances(&self.histograms)
    }

    /// True when nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;
    use crate::ids;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut m = MetricsRegistry::new();
        m.inc_counter(ids::BEACONS_SENT, Label::Global, 2);
        m.inc_counter(ids::BEACONS_SENT, Label::Global, 3);
        m.inc_counter(ids::BEACONS_SENT, Label::As(1), 1);
        assert_eq!(m.counter(ids::BEACONS_SENT, Label::Global), 5);
        assert_eq!(m.counter(ids::BEACONS_SENT, Label::As(1)), 1);
        assert_eq!(m.counter(ids::BEACONS_SENT, Label::As(0)), 0);
        assert_eq!(m.counter(ids::BEACONS_DROPPED, Label::Global), 0);
        assert_eq!(m.counter(ids::TOTAL_MESSAGES, Label::Global), 0);
    }

    #[test]
    fn a_counter_incremented_by_zero_still_exists() {
        let mut m = MetricsRegistry::new();
        assert!(m.is_empty());
        m.inc_counter(ids::FWD_DROPPED, Label::As(2), 0);
        m.inc_counter(ids::FWD_IFACE_BYTES, Label::Iface(1, 4), 0);
        assert!(!m.is_empty());
        let all: Vec<_> = m.counters().collect();
        assert_eq!(
            all,
            vec![
                (ids::FWD_IFACE_BYTES, Label::Iface(1, 4), 0),
                (ids::FWD_DROPPED, Label::As(2), 0),
            ]
        );
    }

    #[test]
    fn gauges_overwrite() {
        let mut m = MetricsRegistry::new();
        m.set_gauge(ids::ENGINE_QUEUE_DEPTH, Label::Global, 3.0);
        m.set_gauge(ids::ENGINE_QUEUE_DEPTH, Label::Global, 7.0);
        assert_eq!(m.gauge(ids::ENGINE_QUEUE_DEPTH, Label::Global), Some(7.0));
        assert_eq!(m.gauge(ids::ENGINE_IN_FLIGHT, Label::Global), None);
    }

    #[test]
    fn iteration_order_is_deterministic() {
        // Insert in two different orders; iteration must agree, and it
        // must be (name, label) order.
        let (a_id, b_id) = (ids::BEACONS_SENT, ids::FWD_FORWARDED);
        assert!(a_id.name() < b_id.name());
        let mut a = MetricsRegistry::new();
        a.inc_counter(b_id, Label::As(2), 1);
        a.inc_counter(a_id, Label::Global, 1);
        a.inc_counter(b_id, Label::As(1), 1);
        let mut b = MetricsRegistry::new();
        b.inc_counter(b_id, Label::As(1), 1);
        b.inc_counter(b_id, Label::As(2), 1);
        b.inc_counter(a_id, Label::Global, 1);
        let ka: Vec<_> = a.counters().map(|(id, l, _)| (id, l)).collect();
        let kb: Vec<_> = b.counters().map(|(id, l, _)| (id, l)).collect();
        assert_eq!(ka, kb);
        assert_eq!(
            ka,
            vec![
                (a_id, Label::Global),
                (b_id, Label::As(1)),
                (b_id, Label::As(2))
            ]
        );
    }

    type Key = (&'static str, Label);

    /// The reference the registry replaced: one ordered map per kind,
    /// keyed by `(name, label)`.
    #[derive(Default)]
    struct Model {
        counters: BTreeMap<Key, u64>,
        gauges: BTreeMap<Key, f64>,
        histograms: BTreeMap<Key, Histogram>,
    }

    fn label_of(shape: u8, a: u32, b: u16) -> Label {
        match shape {
            0 => Label::Global,
            1 => Label::As(a),
            2 => Label::Iface(a, b),
            _ => Label::Link(a),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        // Interface ids are drawn dense, sparse and at the type's end: a
        // per-AS table grows to the largest id recorded there, the gaps it
        // leaves are not instances, and iteration stays in id order.
        #[test]
        fn registry_agrees_with_an_ordered_map_model(
            ops in proptest::collection::vec(
                (
                    0u8..4,
                    0usize..ids::ALL.len(),
                    0u8..4,
                    0u32..9,
                    prop_oneof![0u16..5, 250u16..260, Just(u16::MAX)],
                    0u64..4,
                ),
                0..300,
            )
        ) {
            let custom = [1.0, 2.0];
            let mut registry = MetricsRegistry::new();
            let mut model = Model::default();
            for &(op, id, shape, a, b, n) in &ops {
                let id = ids::ALL[id];
                let label = label_of(shape, a, b);
                let key = (id.name(), label);
                let value = n as f64;
                match op {
                    0 => {
                        // `n` is 0 a quarter of the time.
                        registry.inc_counter(id, label, n);
                        *model.counters.entry(key).or_insert(0) += n;
                    }
                    1 => {
                        registry.set_gauge(id, label, value);
                        model.gauges.insert(key, value);
                    }
                    2 => {
                        registry.observe(id, label, value);
                        model.histograms.entry(key).or_default().observe(value);
                    }
                    _ => {
                        registry.observe_with_buckets(id, label, &custom, value);
                        let h = model.histograms.entry(key);
                        h.or_insert_with(|| Histogram::new(&custom)).observe(value);
                    }
                }
            }

            let counters: Vec<_> = registry.counters().map(|(id, l, v)| ((id.name(), l), v)).collect();
            let expected: Vec<_> = model.counters.iter().map(|(&k, &v)| (k, v)).collect();
            prop_assert_eq!(counters, expected);
            let gauges: Vec<_> = registry.gauges().map(|(id, l, v)| ((id.name(), l), v)).collect();
            let expected: Vec<_> = model.gauges.iter().map(|(&k, &v)| (k, v)).collect();
            prop_assert_eq!(gauges, expected);
            let histograms: Vec<_> = registry
                .histograms()
                .map(|(id, l, h)| ((id.name(), l), format!("{h:?}")))
                .collect();
            let expected: Vec<_> =
                model.histograms.iter().map(|(&k, h)| (k, format!("{h:?}"))).collect();
            prop_assert_eq!(histograms, expected);
            prop_assert_eq!(registry.is_empty(), ops.is_empty());

            // Point reads, hits and misses alike: (2, 5) and (4, 100) fall
            // in a gap of any interface table that reaches 250, (6, 300)
            // past every table that does not reach `u16::MAX`.
            for &id in ids::ALL {
                for shape in 0..4 {
                    for (a, b) in [
                        (0, 0),
                        (3, 1),
                        (8, 4),
                        (9, 0),
                        (2, 5),
                        (4, 100),
                        (1, 255),
                        (6, 300),
                        (5, u16::MAX),
                    ] {
                        let label = label_of(shape, a, b);
                        let key = (id.name(), label);
                        prop_assert_eq!(
                            registry.counter(id, label),
                            model.counters.get(&key).copied().unwrap_or(0)
                        );
                        prop_assert_eq!(registry.gauge(id, label), model.gauges.get(&key).copied());
                        prop_assert_eq!(
                            registry.histogram(id, label).map(|h| format!("{h:?}")),
                            model.histograms.get(&key).map(|h| format!("{h:?}"))
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        h.observe(0.5); // bucket 0 (<= 1.0)
        h.observe(1.0); // bucket 0 (exactly on the boundary)
        h.observe(1.5); // bucket 1
        h.observe(2.0); // bucket 1 (exactly on the boundary)
        h.observe(4.0); // bucket 2
        h.observe(9.0); // overflow bucket
        assert_eq!(h.bucket_counts(), &[2, 2, 1, 1]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), Some(0.5));
        assert_eq!(h.max(), Some(9.0));
        assert!((h.sum() - 18.0).abs() < 1e-9);
    }

    #[test]
    fn observe_finds_the_bucket_a_linear_scan_finds() {
        let linear = |v: f64| {
            let first = DEFAULT_BUCKETS.iter().position(|&b| v <= b);
            first.unwrap_or(DEFAULT_BUCKETS.len())
        };
        let bucket_of = |v: f64| {
            let mut h = Histogram::default();
            h.observe(v);
            h.bucket_counts().iter().position(|&c| c == 1).unwrap()
        };
        for (i, &bound) in DEFAULT_BUCKETS.iter().enumerate() {
            // On a bound: that bound's bucket. A hair above: the next one
            // (the overflow bucket after the last bound).
            assert_eq!(bucket_of(bound), i);
            assert_eq!(bucket_of(bound * (1.0 + f64::EPSILON)), i + 1);
            assert_eq!(bucket_of(bound * (1.0 - f64::EPSILON)), i);
        }
        for v in [
            f64::NEG_INFINITY,
            -1.0,
            0.0,
            3.0,
            1e9,
            f64::INFINITY,
            f64::NAN,
        ] {
            assert_eq!(bucket_of(v), linear(v), "value {v}");
        }
        assert_eq!(bucket_of(f64::NAN), DEFAULT_BUCKETS.len());
    }

    #[test]
    fn histogram_quantiles_walk_cumulative_counts() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0, 8.0]);
        // 10 observations in bucket 0, 10 in bucket 2.
        for _ in 0..10 {
            h.observe(0.5);
        }
        for _ in 0..10 {
            h.observe(3.0);
        }
        assert_eq!(h.quantile(0.25), Some(1.0)); // rank 5 -> bucket 0 bound
                                                 // Rank 15 -> bucket 2 bound (4.0), clamped to the observed max.
        assert_eq!(h.quantile(0.75), Some(3.0));
        // p100 never exceeds the observed max.
        assert_eq!(h.quantile(1.0), Some(3.0));
        // p0 never undershoots the observed min... it returns a bucket
        // bound clamped to [min, max].
        assert_eq!(h.quantile(0.0), Some(1.0));
    }

    #[test]
    fn histogram_overflow_quantile_reports_observed_max() {
        let mut h = Histogram::new(&[1.0]);
        h.observe(100.0);
        h.observe(200.0);
        assert_eq!(h.quantile(0.99), Some(200.0));
    }

    #[test]
    fn quantile_clamps_q_and_rejects_nan() {
        let mut h = Histogram::new(&[1.0, 2.0]);
        h.observe(0.5);
        h.observe(1.5);
        // Out-of-range q clamps to the nearest valid quantile.
        assert_eq!(h.quantile(-3.0), h.quantile(0.0));
        assert_eq!(h.quantile(7.0), h.quantile(1.0));
        // NaN has no meaningful rank.
        assert_eq!(h.quantile(f64::NAN), None);
    }

    #[test]
    fn quantile_in_overflow_bucket_reports_within_observed_range() {
        let mut h = Histogram::new(&[1.0]);
        for v in [5.0, 50.0, 500.0] {
            h.observe(v);
        }
        // Every rank lands in the overflow bucket; estimates must stay
        // inside [min, max].
        for q in [0.0, 0.5, 0.99, 1.0] {
            let est = h.quantile(q).unwrap();
            assert!((5.0..=500.0).contains(&est), "q={q} -> {est}");
        }
        assert_eq!(h.quantile(1.0), Some(500.0));
    }

    #[test]
    fn merge_combines_counts_sums_and_extremes() {
        let mut a = Histogram::new(&[1.0, 2.0, 4.0]);
        a.observe(0.5);
        a.observe(3.0);
        let mut b = Histogram::new(&[1.0, 2.0, 4.0]);
        b.observe(9.0);
        b.observe(1.5);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.bucket_counts(), &[1, 1, 1, 1]);
        assert!((a.sum() - 14.0).abs() < 1e-9);
        assert_eq!(a.min(), Some(0.5));
        assert_eq!(a.max(), Some(9.0));
        // Merging an empty histogram is a no-op.
        let before = a.clone();
        a.merge(&Histogram::new(&[1.0, 2.0, 4.0]));
        assert_eq!(a.count(), before.count());
        assert_eq!(a.min(), before.min());
        assert_eq!(a.max(), before.max());
    }

    #[test]
    fn merge_order_does_not_matter() {
        let mut parts = Vec::new();
        for shard in 0..4u64 {
            let mut h = Histogram::new(&[1.0, 10.0, 100.0]);
            for i in 0..10u64 {
                h.observe((shard * 10 + i) as f64);
            }
            parts.push(h);
        }
        let mut fwd = Histogram::new(&[1.0, 10.0, 100.0]);
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = Histogram::new(&[1.0, 10.0, 100.0]);
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd.bucket_counts(), rev.bucket_counts());
        assert_eq!(fwd.count(), rev.count());
        assert_eq!(fwd.min(), rev.min());
        assert_eq!(fwd.max(), rev.max());
    }

    #[test]
    #[should_panic(expected = "identical bucket bounds")]
    fn merge_rejects_mismatched_bounds() {
        let mut a = Histogram::new(&[1.0, 2.0]);
        let b = Histogram::new(&[1.0, 3.0]);
        a.merge(&b);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn label_ordering_is_total_and_stable() {
        let mut labels = vec![
            Label::Link(0),
            Label::Iface(1, 2),
            Label::As(9),
            Label::Global,
            Label::As(1),
        ];
        labels.sort();
        assert_eq!(
            labels,
            vec![
                Label::Global,
                Label::As(1),
                Label::As(9),
                Label::Iface(1, 2),
                Label::Link(0),
            ]
        );
    }
}
