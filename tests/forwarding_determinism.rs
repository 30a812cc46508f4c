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

use std::fs;
use std::path::{Path, PathBuf};

use scion_core::experiments::run_forwarding_with;
use scion_core::prelude::*;
use scion_core::scale::ExperimentScale;
use scion_core::telemetry::telediff::{diff_dumps, DiffConfig};

/// Runs the forwarding experiment on recording handles and exports both
/// arms' dumps under `<tmp>/scion-fwd-determinism-<tag>/{scalar,batched}`.
fn dump_forwarding_run(tag: &str, threads: usize) -> PathBuf {
    let mut tel_scalar = Telemetry::new(TelemetryConfig::default());
    let mut tel_batched = Telemetry::new(TelemetryConfig::default());
    let result = run_forwarding_with(
        ExperimentScale::Bench,
        None,
        threads,
        &mut tel_scalar,
        &mut tel_batched,
    );
    assert!(result.outcomes_identical, "arms disagree before export");
    assert!(tel_scalar.traces.emitted() > 0, "no trace records");
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

    let root = std::env::temp_dir().join(format!(
        "scion-fwd-determinism-{tag}-t{threads}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&root);
    tel_scalar
        .export_jsonl(&root.join("scalar"))
        .expect("export scalar telemetry");
    tel_batched
        .export_jsonl(&root.join("batched"))
        .expect("export batched telemetry");
    root
}

fn assert_dumps_identical(reference: &Path, other: &Path, what: &str) {
    for name in ["metrics.jsonl", "series.jsonl", "trace.jsonl"] {
        let fa = fs::read(reference.join(name)).unwrap();
        let fb = fs::read(other.join(name)).unwrap();
        // The forwarding experiment has no periodic sampler, so
        // series.jsonl is legitimately empty — but must still match.
        if name != "series.jsonl" {
            assert!(!fa.is_empty(), "{name} is empty");
        }
        assert_eq!(fa, fb, "{name} differs: {what}");
    }
    // profile.jsonl exists but is exempt (it records real elapsed time).
    assert!(reference.join("profile.jsonl").exists());
    assert!(other.join("profile.jsonl").exists());
}

#[test]
fn scalar_and_batched_arms_export_identical_dumps() {
    let root = dump_forwarding_run("arms", 4);
    assert_dumps_identical(
        &root.join("scalar"),
        &root.join("batched"),
        "scalar vs batched",
    );
    fs::remove_dir_all(&root).ok();
}

#[test]
fn same_seed_reruns_export_identical_dumps() {
    let a = dump_forwarding_run("rerun-a", 2);
    let b = dump_forwarding_run("rerun-b", 2);
    assert_dumps_identical(&a.join("scalar"), &b.join("scalar"), "two scalar runs");
    assert_dumps_identical(&a.join("batched"), &b.join("batched"), "two batched runs");
    // Batching must also be invisible across thread counts.
    let c = dump_forwarding_run("rerun-c", 8);
    assert_dumps_identical(
        &a.join("batched"),
        &c.join("batched"),
        "batched threads=2 vs threads=8",
    );
    for dir in [a, b, c] {
        fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn telediff_gate_accepts_matching_dumps_and_flags_tampering() {
    let root = dump_forwarding_run("gate", 2);
    let cfg = DiffConfig::default();
    let clean =
        diff_dumps(&root.join("scalar"), &root.join("batched"), &cfg).expect("diff clean dumps");
    assert!(clean.is_empty(), "clean dumps must match: {clean:?}");

    // Perturb one counter line of the batched dump; the gate must fail.
    let metrics = root.join("batched").join("metrics.jsonl");
    let text = fs::read_to_string(&metrics).unwrap();
    let tampered = text.replacen(":1", ":2", 1);
    assert_ne!(text, tampered, "no counter line to perturb");
    fs::write(&metrics, tampered).unwrap();
    let diffs =
        diff_dumps(&root.join("scalar"), &root.join("batched"), &cfg).expect("diff tampered dumps");
    assert!(!diffs.is_empty(), "tampered dump must be flagged");
    fs::remove_dir_all(&root).ok();
}
