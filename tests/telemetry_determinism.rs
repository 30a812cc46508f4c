//! Telemetry determinism: two runs of the same seeded simulation must
//! export byte-identical `metrics.jsonl`, `series.jsonl`, and
//! `trace.jsonl` dumps. Only `profile.jsonl` — the wall-clock phase
//! profile — is allowed to differ between runs.
//!
//! This is the end-to-end guarantee the registry's `BTreeMap` keying, the
//! engine's `(time, seq)` event ordering, and the timer-driven sampler
//! are designed to provide; see `crates/telemetry/src/metrics.rs`.

mod common;

use std::fs;
use std::path::PathBuf;

use common::{assert_dumps_identical, export_dump};
use scion_core::chaos::{ChaosConfig, ChurnModel};
use scion_core::prelude::*;
use scion_core::topology::isd::assign_isds;

fn dump_one_run(tag: &str) -> PathBuf {
    let topo = generate_internet(&GeneratorConfig::small(60, 42));
    let (mut core, _) = prune_to_top_degree(&topo, 12);
    assign_isds(&mut core, 4);

    let mut tel = Telemetry::new(TelemetryConfig::default());
    tel.begin_run("determinism");
    let run = BeaconingRun {
        warmup: Duration::from_mins(30),
        ..BeaconingRun::core(Duration::from_hours(1), 7)
    };
    let out = run_beaconing(&core, &BeaconingConfig::diversity(), &run, &mut tel).outcome;
    assert!(out.total_bytes() > 0);
    assert!(!tel.series.is_empty(), "sampler never fired");
    assert!(tel.traces.emitted() > 0, "no trace records");
    export_dump(&tel, &format!("telemetry-determinism-{tag}"))
}

fn dump_one_churned_run(tag: &str) -> PathBuf {
    let topo = generate_internet(&GeneratorConfig::small(60, 42));
    let (mut core, _) = prune_to_top_degree(&topo, 12);
    assign_isds(&mut core, 4);

    let window = Duration::from_hours(1);
    let schedule = ChurnModel::scaled(window).generate(&core, window, 7);
    assert!(!schedule.is_empty(), "an hour of churn produces events");
    let pairs: Vec<(AsIndex, AsIndex)> = {
        let cores: Vec<AsIndex> = core.core_ases().collect();
        cores
            .iter()
            .flat_map(|&o| cores.iter().map(move |&h| (o, h)))
            .filter(|&(o, h)| o != h)
            .take(20)
            .collect()
    };
    let run = BeaconingRun {
        chaos: Some(ChaosConfig {
            schedule: &schedule,
            probe_pairs: &pairs,
            probe_cadence: Duration::from_mins(5),
        }),
        ..BeaconingRun::core(window, 7)
    };

    let mut tel = Telemetry::new(TelemetryConfig::default());
    tel.begin_run("churned");
    let rep = run_beaconing(&core, &BeaconingConfig::diversity(), &run, &mut tel);
    let report = rep.chaos;
    assert!(rep.outcome.total_bytes() > 0);
    assert!(!report.probes.is_empty(), "probes never fired");
    assert!(report.fault_events_applied > 0, "churn never applied");
    export_dump(&tel, &format!("telemetry-churn-determinism-{tag}"))
}

#[test]
fn same_seed_runs_export_identical_dumps() {
    let a = dump_one_run("a");
    let b = dump_one_run("b");
    assert_dumps_identical(&a, &b, "same-seed runs", false);
    fs::remove_dir_all(&a).ok();
    fs::remove_dir_all(&b).ok();
}

#[test]
fn same_seed_churned_runs_export_identical_dumps() {
    // The chaos layer (seeded churn schedule, fault timers, in-flight
    // cancellation, reachability probes) must preserve the byte-identity
    // guarantee end to end.
    let a = dump_one_churned_run("a");
    let b = dump_one_churned_run("b");
    assert_dumps_identical(&a, &b, "same-seed churned runs", false);
    fs::remove_dir_all(&a).ok();
    fs::remove_dir_all(&b).ok();
}
