//! Wall-clock profiling scopes.
//!
//! Unlike everything else in this crate, the profiler measures *real* time
//! (`std::time::Instant`): its purpose is finding the hot phases of the
//! simulator itself — origination, propagation scoring, verification, path
//! combination — so later PRs can optimize them against a recorded
//! baseline. Profile numbers are therefore intentionally excluded from the
//! determinism guarantee and exported to their own file.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Serialize;

use crate::metrics::Histogram;

/// Phase name constants, so call sites and reports agree on spelling.
pub mod phase {
    /// Core beacon servers signing fresh zero-hop PCBs.
    pub const ORIGINATION: &str = "beaconing.origination";
    /// Candidate scoring and selection (baseline k-shortest or Algorithm 1).
    pub const SELECTION: &str = "beaconing.selection_scoring";
    /// Signature-chain verification of received PCBs.
    pub const VERIFICATION: &str = "beaconing.verification";
    /// Up + core + down segment combination into end-to-end paths.
    pub const COMBINATION: &str = "proto.path_combination";
    /// One per-origin BGP convergence run.
    pub const BGP_CONVERGENCE: &str = "bgp.origin_convergence";
    /// The full monthly BGP churn workload.
    pub const BGP_MONTH: &str = "bgp.monthly_workload";
    /// The telemetry sampler reading the live gauges.
    pub const SAMPLING: &str = "telemetry.sampling";
    /// Draining one causally-closed window from the event queue.
    pub const PAR_POP: &str = "parallel.window_pop";
    /// Sharded per-AS execution across the worker pool.
    pub const PAR_SHARD: &str = "parallel.shard_exec";
    /// Serial merge: side effects replayed in deterministic event order.
    pub const PAR_MERGE: &str = "parallel.merge";
    /// One border-router hop: full PCFS pipeline (checks + advance).
    pub const FWD_FORWARD: &str = "dataplane.forward_hop";
    /// One packet walked source to destination across the router chain.
    pub const FWD_DELIVER: &str = "dataplane.deliver";
    /// One hop-field MAC verification.
    pub const FWD_VERIFY: &str = "dataplane.hopfield_verify";
    /// Sharded batch MAC verification across the worker pool.
    pub const FWD_BATCH_SHARD: &str = "dataplane.batch_shard";
    /// Serial merge applying batched forwarding decisions in input order.
    pub const FWD_BATCH_MERGE: &str = "dataplane.batch_merge";
    /// One flow tick of the recovery experiment: path selection plus the
    /// hop-major wave drive of every packet sent this tick.
    pub const RECOVERY_TICK: &str = "recovery.flow_tick";
    /// Endhost/path-server reaction to one SCMP arrival (failover,
    /// revocation, retransmit).
    pub const RECOVERY_SCMP: &str = "recovery.scmp_handling";
    /// Path-server re-query round trip handling (request, response,
    /// retry bookkeeping).
    pub const RECOVERY_REQUERY: &str = "recovery.requery";
    /// One admission round of the overload experiment: token buckets,
    /// queue offers, shed decisions.
    pub const OVERLOAD_ADMIT: &str = "overload.admission";
    /// One service round: queue drain, cache/upstream serving, brownout
    /// and breaker bookkeeping.
    pub const OVERLOAD_SERVE: &str = "overload.service";
}

/// Bucket bounds (nanoseconds) of the per-phase latency histograms: 1-2.5-5
/// decades from 100 ns to 1 s, matching the sub-microsecond-to-seconds
/// range of per-packet forwarding work.
pub const WALL_NS_BUCKETS: [f64; 22] = [
    100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0, 25_000.0, 50_000.0, 100_000.0,
    250_000.0, 500_000.0, 1e6, 2.5e6, 5e6, 1e7, 2.5e7, 5e7, 1e8, 2.5e8, 5e8, 1e9,
];

/// A hot span ([`Profiler::hot_span`]) reads the clock on the first call of
/// its phase and on every `HOT_SPAN_SAMPLE`-th call after it; every call is
/// counted. Two clock reads cost more than the border-router hop they
/// would time, so per-hop spans are sampled; the sampled subset still
/// fills the latency histogram with thousands of observations per run.
pub const HOT_SPAN_SAMPLE: u64 = 16;

/// Accumulated wall-clock statistics of one phase.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct PhaseStats {
    /// Number of completed scopes — the true operation count, sampled or
    /// not.
    pub calls: u64,
    /// Scopes whose wall-clock time was measured (equals `calls` except
    /// for hot spans, which time one call in [`HOT_SPAN_SAMPLE`]).
    pub timed: u64,
    /// Total wall-clock time of the timed scopes, nanoseconds.
    pub total_ns: u64,
    /// Longest single timed scope, nanoseconds.
    pub max_ns: u64,
}

impl PhaseStats {
    /// Mean duration of a timed scope in nanoseconds (0 when none).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.timed).unwrap_or(0)
    }
}

/// Everything recorded about one phase.
#[derive(Clone, Debug)]
struct Phase {
    stats: PhaseStats,
    /// Durations of the timed scopes ([`WALL_NS_BUCKETS`]).
    latency: Histogram,
}

impl Default for Phase {
    fn default() -> Self {
        Phase {
            stats: PhaseStats::default(),
            latency: Histogram::new(&WALL_NS_BUCKETS),
        }
    }
}

impl Phase {
    fn time(&mut self, ns: u64) {
        self.stats.timed += 1;
        self.stats.total_ns += ns;
        self.stats.max_ns = self.stats.max_ns.max(ns);
        self.latency.observe(ns as f64);
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Aggregates wall-clock spans per named phase, including a fixed-bucket
/// latency histogram ([`WALL_NS_BUCKETS`]) for per-span quantiles.
#[derive(Clone, Debug, Default)]
pub struct Profiler {
    enabled: bool,
    phases: BTreeMap<&'static str, Phase>,
}

/// An open hot span; hand it back to [`Profiler::finish`].
#[must_use = "a hot span records its time only when passed to Profiler::finish"]
#[derive(Debug)]
pub struct HotSpan {
    phase: &'static str,
    /// `None` when this call is counted but not timed.
    start: Option<Instant>,
}

impl Profiler {
    /// A profiler that records nothing; `scope` costs one branch.
    pub fn disabled() -> Profiler {
        Profiler::default()
    }

    /// A recording profiler.
    pub fn enabled() -> Profiler {
        Profiler {
            enabled: true,
            phases: BTreeMap::new(),
        }
    }

    /// True when spans are recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Opens an RAII span: the elapsed wall-clock time is recorded under
    /// `phase` when the returned guard drops.
    #[inline]
    pub fn scope(&mut self, phase: &'static str) -> ProfileScope<'_> {
        let start = if self.enabled {
            Some(Instant::now())
        } else {
            None
        };
        ProfileScope {
            profiler: self,
            phase,
            start,
        }
    }

    /// Opens a span around an operation too short to time on every call
    /// (a border-router hop, one MAC check): the call is always counted,
    /// the clock is read on one call in [`HOT_SPAN_SAMPLE`], starting
    /// with the phase's first. Not an RAII guard, so the caller stays
    /// free to use the rest of the telemetry handle while the span is
    /// open. A disabled profiler counts nothing and never reads the
    /// clock.
    #[inline]
    pub fn hot_span(&mut self, phase: &'static str) -> HotSpan {
        let mut start = None;
        if self.enabled {
            let stats = &mut self.phases.entry(phase).or_default().stats;
            if stats.calls.is_multiple_of(HOT_SPAN_SAMPLE) {
                start = Some(Instant::now());
            }
            stats.calls += 1;
        }
        HotSpan { phase, start }
    }

    /// Closes a hot span, recording its duration if this call was timed.
    #[inline]
    pub fn finish(&mut self, span: HotSpan) {
        if let Some(start) = span.start {
            let ns = elapsed_ns(start);
            self.phases.entry(span.phase).or_default().time(ns);
        }
    }

    /// Records an already-measured span.
    pub fn record_ns(&mut self, phase: &'static str, ns: u64) {
        let phase = self.phases.entry(phase).or_default();
        phase.stats.calls += 1;
        phase.time(ns);
    }

    /// Folds a shard-local profiler into this one, phase by phase: call
    /// and timed counts and totals add, maxima combine, latency
    /// histograms merge via [`Histogram::merge`]. This is how the
    /// parallel batch-verification shards report their spans without
    /// sharing the profiler.
    pub fn absorb(&mut self, shard: &Profiler) {
        for (&name, theirs) in &shard.phases {
            let mine = self.phases.entry(name).or_default();
            mine.stats.calls += theirs.stats.calls;
            mine.stats.timed += theirs.stats.timed;
            mine.stats.total_ns += theirs.stats.total_ns;
            mine.stats.max_ns = mine.stats.max_ns.max(theirs.stats.max_ns);
            mine.latency.merge(&theirs.latency);
        }
    }

    /// The stats of one phase, if it ever ran.
    pub fn stats(&self, phase: &str) -> Option<PhaseStats> {
        self.phases.get(phase).map(|p| p.stats)
    }

    /// The latency histogram of one phase's timed scopes (nanosecond
    /// buckets), if the phase ever ran.
    pub fn latency(&self, phase: &str) -> Option<&Histogram> {
        self.phases.get(phase).map(|p| &p.latency)
    }

    /// All phases in deterministic name order.
    pub fn phases(&self) -> impl Iterator<Item = (&'static str, PhaseStats)> + '_ {
        self.phases.iter().map(|(&name, p)| (name, p.stats))
    }

    /// True when no span was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }
}

/// RAII guard of one wall-clock span; records on drop.
pub struct ProfileScope<'a> {
    profiler: &'a mut Profiler,
    phase: &'static str,
    start: Option<Instant>,
}

impl Drop for ProfileScope<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.profiler.record_ns(self.phase, elapsed_ns(start));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_accumulate_calls_and_time() {
        let mut p = Profiler::enabled();
        for _ in 0..3 {
            let _g = p.scope(phase::VERIFICATION);
            std::hint::black_box(42);
        }
        let s = p.stats(phase::VERIFICATION).unwrap();
        assert_eq!(s.calls, 3);
        assert!(s.max_ns <= s.total_ns);
        assert!(s.mean_ns() <= s.max_ns);
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = Profiler::disabled();
        {
            let _g = p.scope(phase::ORIGINATION);
        }
        assert!(p.is_empty());
        assert!(p.stats(phase::ORIGINATION).is_none());
    }

    #[test]
    fn record_ns_tracks_max() {
        let mut p = Profiler::enabled();
        p.record_ns("x", 10);
        p.record_ns("x", 30);
        p.record_ns("x", 20);
        let s = p.stats("x").unwrap();
        assert_eq!((s.calls, s.timed, s.total_ns, s.max_ns), (3, 3, 60, 30));
        assert_eq!(s.mean_ns(), 20);
    }

    #[test]
    fn record_ns_feeds_the_latency_histogram() {
        let mut p = Profiler::enabled();
        p.record_ns("x", 200);
        p.record_ns("x", 2_000);
        p.record_ns("x", 2_000_000);
        let h = p.latency("x").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), Some(200.0));
        assert_eq!(h.max(), Some(2_000_000.0));
        assert!(h.quantile(0.5).unwrap() >= 200.0);
        assert!(p.latency("never").is_none());
    }

    #[test]
    fn hot_spans_count_every_call_and_time_one_in_sixteen() {
        let mut p = Profiler::enabled();
        let n = 3 * HOT_SPAN_SAMPLE + 5;
        let mut timed = 0;
        for call in 0..n {
            let span = p.hot_span(phase::FWD_FORWARD);
            assert_eq!(span.start.is_some(), call.is_multiple_of(HOT_SPAN_SAMPLE));
            timed += u64::from(span.start.is_some());
            p.finish(span);
        }
        let s = p.stats(phase::FWD_FORWARD).unwrap();
        assert_eq!(s.calls, n, "every span opened is a call");
        assert_eq!((s.timed, timed), (4, 4));
        assert_eq!(p.latency(phase::FWD_FORWARD).unwrap().count(), 4);
        assert!(s.max_ns <= s.total_ns);
    }

    #[test]
    fn first_hot_span_of_each_phase_is_timed() {
        // A phase that ran once still has a latency row.
        let mut p = Profiler::enabled();
        for name in [phase::FWD_FORWARD, phase::FWD_VERIFY] {
            let span = p.hot_span(name);
            p.finish(span);
            let s = p.stats(name).unwrap();
            assert_eq!((s.calls, s.timed), (1, 1));
            assert_eq!(p.latency(name).unwrap().count(), 1);
        }
    }

    #[test]
    fn disabled_profiler_never_reads_the_clock() {
        let mut p = Profiler::disabled();
        for _ in 0..2 * HOT_SPAN_SAMPLE {
            let span = p.hot_span(phase::FWD_FORWARD);
            assert!(span.start.is_none());
            p.finish(span);
        }
        assert!(p.scope(phase::ORIGINATION).start.is_none());
        assert!(p.is_empty());
    }

    #[test]
    fn absorb_adds_shard_calls_timings_and_latencies() {
        let mut p = Profiler::enabled();
        p.record_ns("v", 1_000);
        // Two shards of 20 and 7 jobs: calls must come out as jobs
        // verified, timed as what the shards' own sampling measured.
        let mut jobs = 0;
        for shard_jobs in [20, 7] {
            let mut shard = Profiler::enabled();
            for _ in 0..shard_jobs {
                let span = shard.hot_span("v");
                shard.finish(span);
            }
            shard.record_ns("only_in_shard", 5);
            p.absorb(&shard);
            jobs += shard_jobs;
        }
        let s = p.stats("v").unwrap();
        assert_eq!(s.calls, 1 + jobs);
        assert_eq!(s.timed, 1 + 2 + 1);
        assert_eq!(p.latency("v").unwrap().count(), s.timed);
        assert!(s.total_ns >= 1_000 && s.max_ns >= 1_000);
        assert_eq!(p.stats("only_in_shard").unwrap().calls, 2);
        // Absorbing an idle or disabled shard is a no-op.
        p.absorb(&Profiler::enabled());
        p.absorb(&Profiler::disabled());
        assert_eq!(p.stats("v").unwrap().calls, 1 + jobs);
    }

    #[test]
    fn phases_iterate_in_name_order() {
        let mut p = Profiler::enabled();
        p.record_ns("z", 1);
        p.record_ns("a", 1);
        p.record_ns("m", 1);
        let names: Vec<_> = p.phases().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "m", "z"]);
    }
}
