//! Lossy-run determinism: two invocations of the lossy experiment with
//! the same seed must export byte-identical `metrics.jsonl`,
//! `series.jsonl`, and `trace.jsonl` telemetry dumps (mirroring
//! `telemetry_determinism.rs`; only the wall-clock `profile.jsonl` is
//! exempt).
//!
//! This extends the byte-identity guarantee across the loss plane: the
//! seeded per-link loss coins and jitter draws, the reliable channel's
//! deterministic backoff jitter, the retransmit timer wheel, and the
//! degradation leg's engineered star scenario.

mod common;

use std::fs;
use std::path::PathBuf;

use scion_core::experiments::{lossy, RunCtx};
use scion_core::scale::ExperimentScale;

use common::{assert_dumps_identical, export_dump};

fn dump_one_lossy_run(tag: &str) -> PathBuf {
    let mut ctx = RunCtx {
        loss_rates: vec![0.05],
        ..RunCtx::new(ExperimentScale::Tiny).with_seed(7).recording()
    };
    let r = lossy::run(&mut ctx);
    let tel = ctx.dumped("");
    assert_eq!(r.points.len(), 1);
    let p = &r.points[0];
    assert!(p.reliable.loss.messages_lost > 0, "5% loss drops something");
    assert!(p.reliable.loss.retransmits > 0, "drops trigger retransmits");
    assert_eq!(p.no_retry.loss.retransmits, 0);
    assert!(r.degradation.degraded_serves > 0);
    assert!(!tel.series.is_empty(), "sampler never fired");
    export_dump(tel, &format!("lossy-determinism-{tag}"))
}

#[test]
fn same_seed_lossy_runs_export_identical_dumps() {
    let a = dump_one_lossy_run("a");
    let b = dump_one_lossy_run("b");
    assert_dumps_identical(&a, &b, "same-seed lossy runs", false);
    fs::remove_dir_all(&a).ok();
    fs::remove_dir_all(&b).ok();
}
