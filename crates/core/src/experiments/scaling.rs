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

use serde::Serialize;

use scion_beaconing::{run_beaconing, Algorithm, BeaconingRun};
use scion_telemetry::{phase, Profiler};

use crate::experiments::RunCtx;

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

/// Runs the scaling sweep on the context's world, one row per entry of
/// `ctx.thread_counts` (default [`DEFAULT_THREAD_COUNTS`]). A recording
/// run puts every row on a recording handle (counters, series, traces,
/// profile) kept under `threads-<n>` — byte-comparing the deterministic
/// files of two rows' dumps is a cross-thread-count determinism check with
/// `telediff`. Recording adds measurable overhead, so rows of a recording
/// run are not comparable to rows of a plain one.
pub fn run(ctx: &mut RunCtx) -> ScalingResult {
    let world = ctx.world();
    let mut params = world.params;
    // The shard stage parallelizes per-AS verification + selection; without
    // receiver-side verification the workload is mostly queue churn and the
    // sweep measures nothing interesting. (Only the beaconing config reads
    // this flag, so flipping it after the world was built is sound.)
    params.verify_on_receive = true;
    let cfg = params.beaconing_config(Algorithm::Baseline);

    let counts = ctx.thread_counts.clone();
    let mut rows: Vec<ScalingRow> = Vec::with_capacity(counts.len());
    for threads in counts {
        // Profile-only telemetry by default: phase wall-clocks without the
        // counters, series, and traces that would perturb the measured
        // run. A recording run asked for the full streams.
        let mut tel = ctx.telemetry();
        if tel.is_enabled() {
            tel.begin_run("scaling");
        } else {
            tel.profile = Profiler::enabled();
        }

        let run = BeaconingRun {
            warmup: params.pcb_lifetime,
            threads,
            ..BeaconingRun::core(params.sim_duration, params.seed)
        };
        let started = std::time::Instant::now();
        let out = run_beaconing(&world.core, &cfg, &run, &mut tel).outcome;
        let wall = started.elapsed();

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
        ctx.keep(format!("threads-{threads}"), tel);
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
    use crate::scale::ExperimentScale;

    #[test]
    fn scaling_tiny_outcomes_are_thread_invariant() {
        let r = run(&mut RunCtx {
            thread_counts: vec![1, 2],
            ..RunCtx::new(ExperimentScale::Tiny)
        });
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
        let mut ctx = RunCtx {
            thread_counts: vec![1, 2],
            ..RunCtx::new(ExperimentScale::Bench).recording()
        };
        let r = run(&mut ctx);
        assert!(r.outcomes_identical);
        for threads in [1, 2] {
            let label = format!("threads-{threads}");
            let dir = root.join(&label);
            ctx.dumped(&label).export_jsonl(&dir).expect("export dump");
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
        let r = run(&mut RunCtx::new(ExperimentScale::Bench));
        let counts: Vec<usize> = r.rows.iter().map(|row| row.threads).collect();
        assert_eq!(counts, DEFAULT_THREAD_COUNTS);
        assert!(r.outcomes_identical);
    }
}
