//! Overload-run determinism: same-seed invocations of the three-arm
//! flash-crowd sweep must export byte-identical `metrics.jsonl`,
//! `series.jsonl`, and `trace.jsonl` telemetry dumps — across reruns AND
//! across worker-thread counts (1/2/8), since the arrival schedules are
//! generated on the worker pool. Only the wall-clock `profile.jsonl` is
//! exempt.
//!
//! This extends the byte-identity guarantee across the whole overload
//! plane: token-bucket admission, priority-queue eviction order, brownout
//! hysteresis transitions, circuit-breaker state, the resolver's busy
//! backoff, and the per-tick aggregated shed traces.

mod common;

use std::fs;
use std::path::PathBuf;

use scion_core::experiments::{overload, RunCtx};
use scion_core::scale::ExperimentScale;

use common::{assert_dumps_identical, export_dump};

fn dump_one_overload_run(tag: &str, threads: usize) -> PathBuf {
    let mut ctx = RunCtx::new(ExperimentScale::Tiny)
        .with_seed(7)
        .with_threads(threads)
        .recording();
    let r = overload::run(&mut ctx);
    assert_eq!(r.points.len(), 5);
    for point in &r.points {
        assert_eq!(point.arms.len(), 3);
        for arm in &point.arms {
            assert!(
                arm.offered > 0,
                "{} at {}: nothing offered",
                arm.name,
                point.load_permille
            );
        }
    }
    export_dump(ctx.dumped(""), &format!("overload-determinism-{tag}"))
}

#[test]
fn same_seed_overload_runs_export_identical_dumps() {
    let a = dump_one_overload_run("a", 2);
    let b = dump_one_overload_run("b", 2);
    assert_dumps_identical(&a, &b, "same-seed overload runs", false);
    fs::remove_dir_all(&a).ok();
    fs::remove_dir_all(&b).ok();
}

#[test]
fn overload_dumps_are_identical_across_thread_counts() {
    let one = dump_one_overload_run("t1", 1);
    let two = dump_one_overload_run("t2", 2);
    let eight = dump_one_overload_run("t8", 8);
    assert_dumps_identical(&one, &two, "1 vs 2 worker threads", false);
    assert_dumps_identical(&one, &eight, "1 vs 8 worker threads", false);
    for dir in [one, two, eight] {
        fs::remove_dir_all(&dir).ok();
    }
}
