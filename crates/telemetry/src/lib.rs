//! `scion-telemetry`: a virtual-time metrics, tracing, and profiling layer
//! for the whole simulation stack.
//!
//! The paper's evaluation (§5, Appendix B) is built on *measuring* the
//! control plane — per-interface PCB traffic, beacon-store occupancy, path
//! quality over time. This crate provides the instruments:
//!
//! * [`metrics`] — a registry of named counters, gauges, and fixed-bucket
//!   histograms keyed by a typed [`MetricId`] (see [`ids`]) + [`Label`]
//!   (AS / interface / link), stored in index-addressed slabs and
//!   iterated in `(name, label)` order so same-seed runs export
//!   byte-identical dumps;
//! * [`series`] — a virtual-time time-series recorder fed by a sampler
//!   that the simulation drivers fire from engine timer events on a
//!   configurable cadence;
//! * [`trace`] — a ring-buffered sink of typed PCB/segment lifecycle
//!   records with virtual timestamps, plus a no-op mode costing the hot
//!   path one branch;
//! * [`profile`] — wall-clock spans aggregated into a per-phase profile
//!   (the only intentionally nondeterministic part): spans timed on every
//!   call, and sampled *hot spans* for operations too short for that;
//! * [`export`] — the JSONL dump format written by `--telemetry <dir>`,
//!   plus a Prometheus text-exposition rendering (`metrics.prom`);
//! * [`telediff`] — a structural regression gate: diffs two telemetry
//!   dumps or bench JSON records, exact on deterministic values and
//!   relative-tolerance on wall-clock figures.
//!
//! The [`Telemetry`] handle bundles all four and is threaded by mutable
//! reference through the simulator drivers, beacon servers, path servers,
//! and the BGP engine. [`Telemetry::disabled`] is the default everywhere:
//! a no-op handle whose per-event cost is a branch.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod export;
pub mod ids;
pub mod metrics;
pub mod profile;
pub mod series;
pub mod telediff;
pub mod trace;

use scion_types::{Duration, SimTime};

pub use ids::MetricId;
pub use metrics::{Histogram, Label, MetricsRegistry, DEFAULT_BUCKETS};
pub use profile::{phase, PhaseStats, Profiler, HOT_SPAN_SAMPLE, WALL_NS_BUCKETS};
pub use series::{Sample, SeriesRecorder};
pub use telediff::{diff_dumps, diff_json_files, DiffConfig, DiffEntry};
pub use trace::{TraceEvent, TraceRecord, TraceSink, DEFAULT_TRACE_CAPACITY};

/// Configuration of a telemetry handle.
#[derive(Clone, Copy, Debug)]
pub struct TelemetryConfig {
    /// Virtual-time cadence of the gauge sampler.
    pub sample_cadence: Duration,
    /// Ring capacity of the trace sink.
    pub trace_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            // One sample per beaconing interval of the paper's standard
            // configuration (10 min): time series stay small even for
            // multi-hour windows.
            sample_cadence: Duration::from_mins(10),
            trace_capacity: DEFAULT_TRACE_CAPACITY,
        }
    }
}

/// The bundled telemetry handle threaded through the simulation stack.
///
/// Fields are public on purpose: instrument sites borrow them disjointly
/// (e.g. the profiler on [`Telemetry::profile`] while emitting a trace
/// through [`Telemetry::traces`]).
#[derive(Debug)]
pub struct Telemetry {
    enabled: bool,
    /// The run label attached to series samples and trace records.
    run: &'static str,
    /// Sampler cadence and other knobs.
    pub config: TelemetryConfig,
    /// Counters, gauges, and histograms.
    pub metrics: MetricsRegistry,
    /// Virtual-time samples of the live gauges.
    pub series: SeriesRecorder,
    /// Ring buffer of typed lifecycle records.
    pub traces: TraceSink,
    /// Wall-clock phase profiler (the only nondeterministic stream).
    pub profile: Profiler,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

impl Telemetry {
    /// A recording handle.
    pub fn new(config: TelemetryConfig) -> Telemetry {
        Telemetry {
            enabled: true,
            run: "",
            config,
            metrics: MetricsRegistry::new(),
            series: SeriesRecorder::new(),
            traces: TraceSink::ring(config.trace_capacity),
            profile: Profiler::enabled(),
        }
    }

    /// The no-op handle: every instrument call is a branch, nothing is
    /// allocated or recorded.
    pub fn disabled() -> Telemetry {
        Telemetry {
            enabled: false,
            run: "",
            config: TelemetryConfig::default(),
            metrics: MetricsRegistry::new(),
            series: SeriesRecorder::new(),
            traces: TraceSink::disabled(),
            profile: Profiler::disabled(),
        }
    }

    /// True when this handle records.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the run label for subsequent samples and trace records (used
    /// by multi-run experiments such as Figure 5 to distinguish the
    /// baseline run from the diversity run in one dump).
    pub fn begin_run(&mut self, run: &'static str) {
        self.run = run;
    }

    /// The current run label.
    pub fn run(&self) -> &'static str {
        self.run
    }

    /// Increments a counter (no-op when disabled).
    #[inline]
    pub fn inc(&mut self, id: MetricId, label: Label, delta: u64) {
        if self.enabled {
            self.metrics.inc_counter(id, label, delta);
        }
    }

    /// Records a gauge snapshot: updates the registry's gauge *and*
    /// appends a virtual-time sample (no-op when disabled).
    #[inline]
    pub fn sample(&mut self, now: SimTime, id: MetricId, label: Label, value: f64) {
        if self.enabled {
            self.metrics.set_gauge(id, label, value);
            self.series.record(self.run, now, id, label, value);
        }
    }

    /// Records a histogram observation (no-op when disabled).
    #[inline]
    pub fn observe(&mut self, id: MetricId, label: Label, value: f64) {
        if self.enabled {
            self.metrics.observe(id, label, value);
        }
    }

    /// Emits a trace record; the closure runs only when tracing is on.
    #[inline]
    pub fn trace_event(&mut self, now: SimTime, build: impl FnOnce() -> TraceEvent) {
        self.traces.emit_with(self.run, now, build);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let mut tel = Telemetry::disabled();
        tel.inc(ids::BEACONS_SENT, Label::Global, 1);
        tel.sample(SimTime::ZERO, ids::ENGINE_QUEUE_DEPTH, Label::Global, 1.0);
        tel.observe(ids::PCB_AGE_AT_DELIVERY, Label::Global, 1.0);
        tel.trace_event(SimTime::ZERO, || unreachable!("tracing disabled"));
        assert!(tel.metrics.is_empty());
        assert!(tel.series.is_empty());
        assert!(tel.traces.is_empty());
        assert!(tel.profile.is_empty());
    }

    #[test]
    fn enabled_handle_records_everything() {
        let mut tel = Telemetry::new(TelemetryConfig::default());
        tel.begin_run("r1");
        tel.inc(ids::BEACONS_SENT, Label::As(3), 2);
        tel.sample(
            SimTime::from_micros(10),
            ids::ENGINE_QUEUE_DEPTH,
            Label::Global,
            4.0,
        );
        tel.observe(ids::PCB_HOPS_AT_DELIVERY, Label::Global, 3.0);
        tel.trace_event(SimTime::from_micros(11), || TraceEvent::PcbOriginated {
            node: 3,
            egress_if: 1,
            seq: 0,
        });
        assert_eq!(tel.metrics.counter(ids::BEACONS_SENT, Label::As(3)), 2);
        assert_eq!(
            tel.metrics.gauge(ids::ENGINE_QUEUE_DEPTH, Label::Global),
            Some(4.0)
        );
        assert_eq!(tel.series.samples()[0].run, "r1");
        assert_eq!(tel.traces.len(), 1);
    }
}
