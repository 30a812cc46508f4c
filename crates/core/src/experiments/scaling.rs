//! Scaling experiment: wall-clock speedup of the beaconing driver versus
//! worker-thread count.
//!
//! Method: build the scale's core-beaconing topology, then run the *same*
//! seeded simulation once per requested thread count with
//! [`run_beaconing`], measuring wall-clock time around each run and
//! collecting the driver's phase profile (window pop, shard execution,
//! merge). Signature verification on receive is forced **on**
//! regardless of scale defaults — per-AS verification is exactly the work
//! the shard stage parallelizes, and it is always on in production.
//!
//! Because the driver is thread-count invariant by construction, every row
//! must report identical protocol outcomes (bytes, deliveries, events);
//! the result records that cross-check so a scaling run doubles as a
//! determinism audit at full experiment scale.

use std::path::Path;

use serde::Serialize;

use scion_beaconing::{run_beaconing, Algorithm, BeaconingRun};
use scion_telemetry::{phase, Profiler, Telemetry, TelemetryConfig};

use crate::experiments::world::World;
use crate::scale::ExperimentScale;

/// Thread counts measured when the caller does not specify any.
pub const DEFAULT_THREAD_COUNTS: &[usize] = &[1, 2, 4, 8];

/// One thread count's measurement.
#[derive(Clone, Debug, Serialize)]
pub struct ScalingRow {
    /// Worker threads of the shard stage.
    pub threads: usize,
    /// Whole-run wall-clock time, milliseconds.
    pub wall_ms: f64,
    /// Wall-clock speedup over the single-thread row.
    pub speedup: f64,
    /// Engine events processed per wall-clock second.
    pub events_per_sec: f64,
    /// Wall-clock of the window-pop phase, milliseconds.
    pub pop_ms: f64,
    /// Wall-clock of the sharded execution phase, milliseconds.
    pub shard_ms: f64,
    /// Wall-clock of the serial merge phase, milliseconds.
    pub merge_ms: f64,
    /// Protocol outcome (must match across all rows).
    pub beacons_delivered: u64,
    /// Protocol outcome (must match across all rows).
    pub total_bytes: u64,
    /// Engine events processed (must match across all rows).
    pub events: u64,
}

/// Full scaling result.
#[derive(Clone, Debug, Serialize)]
pub struct ScalingResult {
    /// Core ASes simulated.
    pub num_core: usize,
    /// Simulated seconds per run (after warmup).
    pub sim_secs: u64,
    /// One row per thread count, in measurement order.
    pub rows: Vec<ScalingRow>,
    /// True when every row produced identical protocol outcomes — the
    /// determinism cross-check.
    pub outcomes_identical: bool,
}

impl ScalingResult {
    /// Speedup of the `threads`-worker row, if measured.
    pub fn speedup_at(&self, threads: usize) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.threads == threads)
            .map(|r| r.speedup)
    }
}

/// Runs the scaling sweep at the given scale over `thread_counts`
/// (defaulting to [`DEFAULT_THREAD_COUNTS`] when empty).
pub fn run_scaling(scale: ExperimentScale, thread_counts: &[usize]) -> ScalingResult {
    run_scaling_with(scale, thread_counts, None)
}

/// Like [`run_scaling`], optionally exporting a full telemetry dump per
/// thread count under `<dump_root>/threads-<n>/`. With a dump root every
/// row runs on a *recording* handle (counters, series, traces, profile) —
/// byte-comparing the deterministic files of two rows' dumps is a
/// cross-thread-count determinism check with `telediff`. Recording adds
/// measurable overhead, so rows with a dump root are not comparable to
/// rows without one.
pub fn run_scaling_with(
    scale: ExperimentScale,
    thread_counts: &[usize],
    dump_root: Option<&Path>,
) -> ScalingResult {
    let world = World::build(scale.params());
    run_scaling_in(&world, thread_counts, dump_root)
}

/// Like [`run_scaling_with`], on a pre-built world — the entry point for
/// ingested (file-derived) topologies, which construct their world via
/// [`World::from_internet`].
pub fn run_scaling_in(
    world: &World,
    thread_counts: &[usize],
    dump_root: Option<&Path>,
) -> ScalingResult {
    let counts = if thread_counts.is_empty() {
        DEFAULT_THREAD_COUNTS
    } else {
        thread_counts
    };
    let mut params = world.params;
    // The shard stage parallelizes per-AS verification + selection; without
    // receiver-side verification the workload is mostly queue churn and the
    // sweep measures nothing interesting. (Only the beaconing config reads
    // this flag, so flipping it after the world was built is sound.)
    params.verify_on_receive = true;
    let cfg = params.beaconing_config(Algorithm::Baseline);

    let mut rows: Vec<ScalingRow> = Vec::with_capacity(counts.len());
    for &threads in counts {
        // Profile-only telemetry by default: phase wall-clocks without the
        // counters, series, and traces that would perturb the measured
        // run. With a dump root the caller asked for the full streams.
        let mut tel = if dump_root.is_some() {
            let mut tel = Telemetry::new(TelemetryConfig::default());
            tel.begin_run("scaling");
            tel
        } else {
            let mut tel = Telemetry::disabled();
            tel.profile = Profiler::enabled();
            tel
        };

        let run = BeaconingRun {
            warmup: params.pcb_lifetime,
            threads,
            ..BeaconingRun::core(params.sim_duration, params.seed)
        };
        let started = std::time::Instant::now();
        let out = run_beaconing(&world.core, &cfg, &run, &mut tel).outcome;
        let wall = started.elapsed();

        if let Some(root) = dump_root {
            let dir = root.join(format!("threads-{threads}"));
            tel.export_jsonl(&dir)
                .unwrap_or_else(|e| panic!("export scaling telemetry to {dir:?}: {e}"));
        }

        let phase_ms = |p: &str| {
            tel.profile
                .stats(p)
                .map_or(0.0, |s| s.total_ns as f64 / 1e6)
        };
        let wall_ms = wall.as_secs_f64() * 1e3;
        let events = out.events_processed;
        rows.push(ScalingRow {
            threads,
            wall_ms,
            speedup: 0.0, // filled below, against the slowest-is-first row
            events_per_sec: events as f64 / wall.as_secs_f64().max(1e-9),
            pop_ms: phase_ms(phase::PAR_POP),
            shard_ms: phase_ms(phase::PAR_SHARD),
            merge_ms: phase_ms(phase::PAR_MERGE),
            beacons_delivered: out.beacons_delivered,
            total_bytes: out.total_bytes(),
            events,
        });
    }

    // Speedup is relative to the measured single-thread row when present,
    // otherwise to the first row.
    let reference_ms = rows
        .iter()
        .find(|r| r.threads == 1)
        .unwrap_or(&rows[0])
        .wall_ms;
    for row in &mut rows {
        row.speedup = reference_ms / row.wall_ms.max(1e-9);
    }

    let outcomes_identical = rows.windows(2).all(|w| {
        w[0].beacons_delivered == w[1].beacons_delivered
            && w[0].total_bytes == w[1].total_bytes
            && w[0].events == w[1].events
    });

    ScalingResult {
        num_core: params.num_core,
        sim_secs: params.sim_duration.as_micros() / 1_000_000,
        rows,
        outcomes_identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_tiny_outcomes_are_thread_invariant() {
        let r = run_scaling(ExperimentScale::Tiny, &[1, 2]);
        assert_eq!(r.rows.len(), 2);
        assert!(r.outcomes_identical, "{:?}", r.rows);
        assert!(r.rows.iter().all(|row| row.beacons_delivered > 0));
        assert!(r.rows.iter().all(|row| row.events > 0));
        assert!(r.rows.iter().all(|row| row.events_per_sec > 0.0));
        assert!((r.speedup_at(1).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scaling_with_dump_root_exports_per_thread_dumps() {
        let root = std::env::temp_dir().join(format!("scion-scaling-dump-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let r = run_scaling_with(ExperimentScale::Bench, &[1, 2], Some(&root));
        assert!(r.outcomes_identical);
        for threads in [1, 2] {
            let dir = root.join(format!("threads-{threads}"));
            for name in [
                "metrics.jsonl",
                "series.jsonl",
                "trace.jsonl",
                "profile.jsonl",
            ] {
                assert!(dir.join(name).exists(), "{threads}: {name} missing");
            }
        }
        // Thread-count invariance: the deterministic files of the
        // 1-thread and 2-thread dumps are byte-identical.
        for name in ["metrics.jsonl", "series.jsonl", "trace.jsonl"] {
            assert_eq!(
                std::fs::read(root.join("threads-1").join(name)).unwrap(),
                std::fs::read(root.join("threads-2").join(name)).unwrap(),
                "{name} differs across thread counts"
            );
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn scaling_defaults_to_standard_thread_counts() {
        let r = run_scaling(ExperimentScale::Bench, &[]);
        let counts: Vec<usize> = r.rows.iter().map(|row| row.threads).collect();
        assert_eq!(counts, DEFAULT_THREAD_COUNTS);
        assert!(r.outcomes_identical);
    }
}
