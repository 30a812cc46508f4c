//! Wall-clock profiling spans.
//!
//! Unlike everything else in this crate, the profiler measures *real* time
//! (`std::time::Instant`): its purpose is finding the hot phases of the
//! simulator itself — origination, propagation scoring, verification, path
//! combination — so later PRs can optimize them against a recorded
//! baseline. Profile numbers are therefore intentionally excluded from the
//! determinism guarantee and exported to their own file.
//!
//! A handle records a handful of phases, so [`Profiler`] keeps them in a
//! small vector in first-use order and finds a phase's slot by the
//! *identity* of its name — address and length of the `&'static str`, no
//! byte compared. The same text arriving from another address (a `const`
//! is instantiated per using crate, so [`phase::PAR_POP`] read from the
//! benchmark package is not the string the driver recorded under) falls
//! back to text equality and lands in the same phase. Names stay
//! `&'static str` rather than a typed phase id because the benchmark
//! package, which later PRs may not edit, hands them through a
//! `|p: &str|` closure to [`Profiler::stats`]. Reports are sorted by name
//! when they are read ([`Profiler::phases`]), not when they are written.

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
    /// The full monthly BGP churn workload.
    pub const BGP_MONTH: &str = "bgp.monthly_workload";
    /// The telemetry sampler reading the live gauges.
    pub const SAMPLING: &str = "telemetry.sampling";
    /// Recorded by no one since the beaconing driver pops one event at a
    /// time; kept because the benchmark package reads it by name (an
    /// absent phase reads 0). So are [`PAR_SHARD`] and [`PAR_MERGE`].
    pub const PAR_POP: &str = "parallel.window_pop";
    /// See [`PAR_POP`].
    pub const PAR_SHARD: &str = "parallel.shard_exec";
    /// See [`PAR_POP`].
    pub const PAR_MERGE: &str = "parallel.merge";
    /// One border-router hop: full PCFS pipeline (checks + advance).
    pub const FWD_FORWARD: &str = "dataplane.forward_hop";
    /// One hop-field MAC verification.
    pub const FWD_VERIFY: &str = "dataplane.hopfield_verify";
    /// One flow tick of the recovery experiment: path selection plus the
    /// hop-major walk of every packet sent this tick.
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
/// counted, so [`PhaseStats::calls`] stays the exact operation count and
/// only `timed` and the histogram's sample count shrink with the rate.
///
/// The rate is sized to the hop it times. A clock-read pair
/// (`Instant::now` + `elapsed`) measures 92 ns on the 2-vCPU reference
/// host (`tsc` clocksource) and a border-router hop 18 ns
/// (`dataplane.forward_ns`): at 1 in 64 a span pays 92 / 64 = 1.4 ns of
/// clock per call, and a hop opens two spans — 2.9 ns, a sixth of the hop
/// they time (at 1 in 16 it would be two thirds). The sampled subset still
/// fills the latency histogram: ~390 timed hops per 24 792-hop pass of the
/// benchmark's packet set, ~570 in `scion-bench fwd --scale tiny`.
pub const HOT_SPAN_SAMPLE: u64 = 64;

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
    /// One slot per phase, in first-use order. A slot never moves, so a
    /// [`HotSpan`] can carry its index across other phases' first use.
    phases: Vec<(&'static str, Phase)>,
}

/// An open span ([`Profiler::span`] or [`Profiler::hot_span`]); hand it
/// back to [`Profiler::finish`] on the profiler that opened it.
#[must_use = "a span records its time only when passed to Profiler::finish"]
#[derive(Debug)]
pub struct HotSpan {
    /// The phase's slot in the profiler that opened the span.
    slot: usize,
    /// `None` when this call is counted but not timed.
    start: Option<Instant>,
}

impl Profiler {
    /// A profiler that records nothing; a span costs one branch.
    pub fn disabled() -> Profiler {
        Profiler::default()
    }

    /// A recording profiler.
    pub fn enabled() -> Profiler {
        Profiler {
            enabled: true,
            phases: Vec::new(),
        }
    }

    /// True when spans are recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The slot of `name`, created on first use. The hit every call site
    /// but a phase's first takes is the identity pass: address and length,
    /// no byte of the name read.
    #[inline]
    fn slot(&mut self, name: &'static str) -> usize {
        match self.phases.iter().position(|(n, _)| std::ptr::eq(*n, name)) {
            Some(slot) => slot,
            None => self.slot_by_text(name),
        }
    }

    /// A name at an address no slot holds: the same text from another
    /// place, or a new phase.
    #[cold]
    fn slot_by_text(&mut self, name: &'static str) -> usize {
        self.find(name).unwrap_or_else(|| {
            self.phases.push((name, Phase::default()));
            self.phases.len() - 1
        })
    }

    fn find(&self, name: &str) -> Option<usize> {
        self.phases.iter().position(|(n, _)| *n == name)
    }

    /// Opens a span timed on every call; close it with
    /// [`Profiler::finish`]. Not an RAII guard, so the caller stays free to
    /// use the rest of the telemetry handle while the span is open. A
    /// disabled profiler counts nothing and never reads the clock.
    #[inline]
    pub fn span(&mut self, phase: &'static str) -> HotSpan {
        if self.enabled {
            self.open_timed(phase)
        } else {
            HotSpan {
                slot: 0,
                start: None,
            }
        }
    }

    /// [`Profiler::span`] on a recording profiler, kept out of line so a
    /// caller running on a disabled handle carries only the branch.
    #[inline(never)]
    fn open_timed(&mut self, phase: &'static str) -> HotSpan {
        let slot = self.slot(phase);
        self.phases[slot].1.stats.calls += 1;
        HotSpan {
            slot,
            start: Some(Instant::now()),
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
        let (mut slot, mut start) = (0, None);
        if self.enabled {
            slot = self.slot(phase);
            let stats = &mut self.phases[slot].1.stats;
            if stats.calls.is_multiple_of(HOT_SPAN_SAMPLE) {
                start = Some(Instant::now());
            }
            stats.calls += 1;
        }
        HotSpan { slot, start }
    }

    /// Closes a span, recording its duration if this call was timed.
    #[inline]
    pub fn finish(&mut self, span: HotSpan) {
        if let Some(start) = span.start {
            let ns = elapsed_ns(start);
            self.phases[span.slot].1.time(ns);
        }
    }

    /// Records an already-measured span; a disabled profiler records
    /// nothing.
    pub fn record_ns(&mut self, phase: &'static str, ns: u64) {
        if !self.enabled {
            return;
        }
        let slot = self.slot(phase);
        let phase = &mut self.phases[slot].1;
        phase.stats.calls += 1;
        phase.time(ns);
    }

    /// The stats of one phase, if it ever ran.
    pub fn stats(&self, phase: &str) -> Option<PhaseStats> {
        self.find(phase).map(|slot| self.phases[slot].1.stats)
    }

    /// The latency histogram of one phase's timed scopes (nanosecond
    /// buckets), if the phase ever ran.
    pub fn latency(&self, phase: &str) -> Option<&Histogram> {
        self.find(phase).map(|slot| &self.phases[slot].1.latency)
    }

    /// All phases in deterministic name order.
    pub fn phases(&self) -> impl Iterator<Item = (&'static str, PhaseStats)> + '_ {
        let mut rows: Vec<_> = self.phases.iter().map(|(n, p)| (*n, p.stats)).collect();
        rows.sort_unstable_by_key(|&(name, _)| name);
        rows.into_iter()
    }

    /// True when no span was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_time_every_call() {
        let mut p = Profiler::enabled();
        for _ in 0..3 {
            let span = p.span(phase::VERIFICATION);
            std::hint::black_box(42);
            p.finish(span);
        }
        let s = p.stats(phase::VERIFICATION).unwrap();
        assert_eq!((s.calls, s.timed), (3, 3));
        assert_eq!(p.latency(phase::VERIFICATION).unwrap().count(), 3);
        assert!(s.max_ns <= s.total_ns);
        assert!(s.mean_ns() <= s.max_ns);
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = Profiler::disabled();
        let span = p.span(phase::ORIGINATION);
        p.finish(span);
        p.record_ns(phase::RECOVERY_TICK, 1_000);
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
    fn hot_spans_count_every_call_and_time_the_sampled_ones() {
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
        assert!(p.span(phase::ORIGINATION).start.is_none());
        assert!(p.is_empty());
    }

    /// The same text at an address of its own. A `const` string is
    /// instantiated per using crate: the benchmark package reads
    /// `phase::PAR_POP` at an address the driver never recorded under.
    fn elsewhere(name: &str) -> &'static str {
        let copy: &'static str = Box::leak(String::from(name).into_boxed_str());
        assert!(!std::ptr::eq(copy, name));
        copy
    }

    #[test]
    fn one_name_at_two_addresses_is_one_phase() {
        let copy = elsewhere(phase::FWD_VERIFY);
        let mut p = Profiler::enabled();
        for name in [phase::FWD_VERIFY, copy, phase::FWD_VERIFY] {
            let span = p.hot_span(name);
            p.finish(span);
            p.record_ns(name, 7);
            let span = p.span(name);
            p.finish(span);
        }
        assert_eq!(p.phases().count(), 1);
        for name in [phase::FWD_VERIFY, copy] {
            let s = p.stats(name).unwrap();
            // Three hot spans (the first timed), three records, three spans.
            assert_eq!((s.calls, s.timed), (9, 7));
            assert_eq!(p.latency(name).unwrap().count(), 7);
        }
        // A prefix of a recorded name is another phase.
        let prefix: &'static str = &phase::FWD_VERIFY[..9];
        assert!(p.stats(prefix).is_none());
        p.record_ns(prefix, 1);
        assert_eq!(p.stats(prefix).unwrap().calls, 1);
        assert_eq!(p.stats(phase::FWD_VERIFY).unwrap().calls, 9);
    }

    #[test]
    fn a_hot_span_keeps_its_slot_while_other_phases_appear() {
        // `forward_instrumented` opens the verify span inside the hop
        // span; on a fresh handle that is the first use of both.
        let mut p = Profiler::enabled();
        let hop = p.hot_span(phase::FWD_FORWARD);
        for name in [phase::FWD_VERIFY, phase::RECOVERY_TICK, phase::SELECTION] {
            let inner = p.hot_span(name);
            p.finish(inner);
        }
        p.finish(hop);
        for (_, s) in p.phases() {
            assert_eq!((s.calls, s.timed), (1, 1));
        }
        assert_eq!(p.phases().count(), 4);
    }

    #[test]
    fn phases_iterate_in_name_order() {
        // Whatever the first-use order, and however the phase was opened.
        let mut p = Profiler::enabled();
        p.record_ns("z", 1);
        let span = p.hot_span(phase::FWD_VERIFY);
        p.finish(span);
        p.record_ns("a", 1);
        let span = p.hot_span(phase::FWD_FORWARD);
        p.finish(span);
        let span = p.span("m");
        p.finish(span);
        let names: Vec<_> = p.phases().map(|(n, _)| n).collect();
        assert_eq!(
            names,
            vec!["a", phase::FWD_FORWARD, phase::FWD_VERIFY, "m", "z"]
        );
    }
}
