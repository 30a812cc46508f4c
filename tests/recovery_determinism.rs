//! Recovery-run determinism: same-seed invocations of the three-arm
//! recovery experiment must export byte-identical `metrics.jsonl`,
//! `series.jsonl`, and `trace.jsonl` telemetry dumps — across reruns AND
//! across worker-thread counts (1/2/8), since the dataplane walk runs on
//! the parallel batch verifier. Only the wall-clock `profile.jsonl` is
//! exempt.
//!
//! This extends the byte-identity guarantee across the whole recovery
//! plane: the engine-ordered SCMP/revocation/query event interleaving,
//! the limiter's admission windows, the revocation table's TTL renewals
//! and restorations, and the resolver's retry wheel.

mod common;

use std::fs;
use std::path::PathBuf;

use scion_core::experiments::{recovery, RunCtx};
use scion_core::scale::ExperimentScale;

use common::{assert_dumps_identical, export_dump};

fn dump_one_recovery_run(tag: &str, threads: usize) -> PathBuf {
    let mut ctx = RunCtx::new(ExperimentScale::Tiny)
        .with_seed(7)
        .with_threads(threads)
        .recording();
    let r = recovery::run(&mut ctx);
    assert_eq!(r.arms.len(), 3);
    for arm in &r.arms {
        assert!(arm.packets_sent > 0, "{}: nothing sent", arm.name);
        assert!(arm.affected_flows > 0, "{}: fault hit nobody", arm.name);
    }
    export_dump(ctx.dumped(""), &format!("recovery-determinism-{tag}"))
}

#[test]
fn same_seed_recovery_runs_export_identical_dumps() {
    let a = dump_one_recovery_run("a", 2);
    let b = dump_one_recovery_run("b", 2);
    // Recovery is engine-driven with no periodic sampler: `series.jsonl`
    // is legitimately empty.
    assert_dumps_identical(&a, &b, "same-seed recovery runs", true);
    fs::remove_dir_all(&a).ok();
    fs::remove_dir_all(&b).ok();
}

#[test]
fn recovery_dumps_are_identical_across_thread_counts() {
    let one = dump_one_recovery_run("t1", 1);
    let two = dump_one_recovery_run("t2", 2);
    let eight = dump_one_recovery_run("t8", 8);
    assert_dumps_identical(&one, &two, "1 vs 2 worker threads", true);
    assert_dumps_identical(&one, &eight, "1 vs 8 worker threads", true);
    for dir in [one, two, eight] {
        fs::remove_dir_all(&dir).ok();
    }
}
