//! Data-plane observability determinism: a same-seed `fwd` run must
//! export **byte-identical** deterministic telemetry dumps
//! (`metrics.jsonl`, `series.jsonl`, `trace.jsonl`) across invocations
//! *and* across the scalar/batched verification arms. Only
//! `profile.jsonl` — wall-clock latency histograms — may differ.
//!
//! The batched arm verifies hop-field MACs in parallel shards and then
//! replays the pipeline serially in input order (see
//! `crates/dataplane/src/batch.rs`), so thread count and batching are
//! implementation details invisible to every deterministic stream. The
//! `telediff` gate in CI is built on exactly this guarantee; the last
//! test drives the same check through `telediff::diff_dumps` itself.

mod common;

use std::fs;
use std::path::{Path, PathBuf};

use scion_core::experiments::{forwarding, RunCtx};
use scion_core::scale::ExperimentScale;
use scion_core::telemetry::telediff::{diff_dumps, DiffConfig};

use common::export_dump;

/// Runs the forwarding experiment on recording handles and exports the
/// two arms' dumps: `(scalar, batched)`.
fn dump_forwarding_run(tag: &str, threads: usize) -> (PathBuf, PathBuf) {
    let mut ctx = RunCtx::new(ExperimentScale::Bench)
        .with_threads(threads)
        .recording();
    let result = forwarding::run(&mut ctx);
    assert!(result.outcomes_identical, "arms disagree before export");
    assert!(
        ctx.dumped("scalar").traces.emitted() > 0,
        "no trace records"
    );
    // Hop spans are sampled, but the reported counts are the operations
    // run, so the arms agree however their shards sampled.
    let [scalar, batched] = &result.arms[..] else {
        panic!("expected a scalar and a batched arm");
    };
    for (name, s, b) in [
        ("hop", &scalar.hop_latency, &batched.hop_latency),
        ("verify", &scalar.verify_latency, &batched.verify_latency),
    ] {
        let (s, b) = (s.as_ref().unwrap().count, b.as_ref().unwrap().count);
        assert_eq!(s, b, "{name}_latency.count differs between the arms");
    }
    let hops = scalar.hop_latency.as_ref().unwrap().count;
    assert_eq!(hops, scalar.hop_ops, "hop_latency.count is not hop_ops");

    let export = |arm| export_dump(ctx.dumped(arm), &format!("fwd-{tag}-t{threads}-{arm}"));
    (export("scalar"), export("batched"))
}

/// The forwarding experiment has no periodic sampler, so `series.jsonl`
/// is legitimately empty — but must still match.
fn assert_dumps_identical(reference: &Path, other: &Path, what: &str) {
    common::assert_dumps_identical(reference, other, what, true);
}

#[test]
fn scalar_and_batched_arms_export_identical_dumps() {
    let (scalar, batched) = dump_forwarding_run("arms", 4);
    assert_dumps_identical(&scalar, &batched, "scalar vs batched");
    for dir in [scalar, batched] {
        fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn same_seed_reruns_export_identical_dumps() {
    let a = dump_forwarding_run("rerun-a", 2);
    let b = dump_forwarding_run("rerun-b", 2);
    assert_dumps_identical(&a.0, &b.0, "two scalar runs");
    assert_dumps_identical(&a.1, &b.1, "two batched runs");
    // Batching must also be invisible across thread counts.
    let c = dump_forwarding_run("rerun-c", 8);
    assert_dumps_identical(&a.1, &c.1, "batched threads=2 vs threads=8");
    for (scalar, batched) in [a, b, c] {
        fs::remove_dir_all(&scalar).ok();
        fs::remove_dir_all(&batched).ok();
    }
}

#[test]
fn telediff_gate_accepts_matching_dumps_and_flags_tampering() {
    let (scalar, batched) = dump_forwarding_run("gate", 2);
    let cfg = DiffConfig::default();
    let clean = diff_dumps(&scalar, &batched, &cfg).expect("diff clean dumps");
    assert!(clean.is_empty(), "clean dumps must match: {clean:?}");

    // Perturb one counter line of the batched dump; the gate must fail.
    let metrics = batched.join("metrics.jsonl");
    let text = fs::read_to_string(&metrics).unwrap();
    let tampered = text.replacen(":1", ":2", 1);
    assert_ne!(text, tampered, "no counter line to perturb");
    fs::write(&metrics, tampered).unwrap();
    let diffs = diff_dumps(&scalar, &batched, &cfg).expect("diff tampered dumps");
    assert!(!diffs.is_empty(), "tampered dump must be flagged");
    for dir in [scalar, batched] {
        fs::remove_dir_all(&dir).ok();
    }
}
