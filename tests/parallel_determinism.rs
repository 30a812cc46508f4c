//! Thread-count invariance: the beaconing driver must export
//! **byte-identical** telemetry dumps for the same seed at *every*
//! worker-thread count, for every scope × fault × loss combination. Only
//! `profile.jsonl` — the wall-clock phase profile — is allowed to differ.
//!
//! The causally-closed window pop, the order-preserving shard stage
//! (`WorkerPool::run_ordered`), and the serial pop-order merge together
//! make thread count an implementation detail invisible to every
//! deterministic output. See `crates/beaconing/src/driver.rs`.

mod common;

use std::fs;
use std::path::PathBuf;

use proptest::prelude::*;

use scion_core::beaconing::{
    run_beaconing, BeaconingReport, BeaconingRun, ChaosConfig, LossyConfig, Scope,
};
use scion_core::chaos::{FaultSchedule, LinkFault};
use scion_core::experiments::World;
use scion_core::prelude::*;
use scion_core::topology::isd::{assign_isds, build_intra_isd_topology};
use scion_core::topology::LinkIndex;

use common::{assert_dumps_identical, export_dump};

fn core_topology(num_ases: usize, num_core: usize, seed: u64) -> AsTopology {
    let topo = generate_internet(&GeneratorConfig::small(num_ases, seed));
    let (mut core, _) = prune_to_top_degree(&topo, num_core);
    assign_isds(&mut core, 4);
    core
}

fn test_topology() -> AsTopology {
    core_topology(60, 12, 42)
}

/// Runs `run` under recording telemetry and dumps it to a fresh directory.
fn dump(
    label: &'static str,
    tag: &str,
    topo: &AsTopology,
    cfg: &BeaconingConfig,
    run: &BeaconingRun<'_>,
) -> (PathBuf, BeaconingReport) {
    let mut tel = Telemetry::new(TelemetryConfig::default());
    tel.begin_run(label);
    let report = run_beaconing(topo, cfg, run, &mut tel);
    assert!(report.outcome.total_bytes() > 0);
    assert!(!tel.series.is_empty(), "sampler never fired");
    assert!(tel.traces.emitted() > 0, "no trace records");
    let tag = format!("{label}-determinism-{tag}-t{}", run.threads);
    (export_dump(&tel, &tag), report)
}

fn dump_parallel_run(tag: &str, threads: usize) -> PathBuf {
    let run = BeaconingRun {
        warmup: Duration::from_mins(30),
        threads,
        ..BeaconingRun::core(Duration::from_hours(1), 7)
    };
    let cfg = BeaconingConfig::diversity();
    dump("parallel", tag, &test_topology(), &cfg, &run).0
}

fn dump_parallel_lossy_run(tag: &str, threads: usize) -> PathBuf {
    let run = BeaconingRun {
        threads,
        lossy: Some(LossyConfig::reliable(0.1)),
        ..BeaconingRun::core(Duration::from_hours(1), 7)
    };
    let cfg = BeaconingConfig::diversity();
    let (dir, report) = dump("parallel_lossy", tag, &test_topology(), &cfg, &run);
    assert!(
        report.loss.messages_lost > 0,
        "10% loss must drop something"
    );
    dir
}

fn dump_intra_lossy_run(tag: &str, threads: usize) -> PathBuf {
    let internet = generate_internet(&GeneratorConfig::small(60, 42));
    let (intra, _) = build_intra_isd_topology(&internet, 3);
    let run = BeaconingRun {
        threads,
        lossy: Some(LossyConfig::reliable(0.1)),
        ..BeaconingRun::intra_isd(Duration::from_hours(1), 7)
    };
    let cfg = BeaconingConfig::default();
    let (dir, report) = dump("intra_lossy", tag, &intra, &cfg, &run);
    assert!(
        report.loss.messages_lost > 0,
        "10% loss must drop something"
    );
    assert!(
        report.loss.retransmits > 0,
        "drops must trigger retransmits"
    );
    dir
}

fn dump_chaos_only_run(tag: &str, threads: usize) -> PathBuf {
    // A cut and a repair, plus a degradation below 100 % — the one fault
    // that *narrows* the causally closed window.
    let at = |secs| SimTime::ZERO + Duration::from_secs(secs);
    let schedule = FaultSchedule::from_events(vec![
        (at(600), LinkFault::LinkDown(LinkIndex(0))),
        (
            at(900),
            LinkFault::Degrade {
                link: LinkIndex(1),
                factor_pct: 40,
            },
        ),
        (at(1800), LinkFault::LinkUp(LinkIndex(0))),
        (at(2700), LinkFault::Restore(LinkIndex(1))),
    ]);
    let topo = test_topology();
    let cores: Vec<AsIndex> = topo.core_ases().collect();
    let pairs: Vec<(AsIndex, AsIndex)> = cores
        .iter()
        .flat_map(|&o| cores.iter().map(move |&h| (o, h)))
        .filter(|&(o, h)| o != h)
        .take(20)
        .collect();
    let run = BeaconingRun {
        threads,
        chaos: Some(ChaosConfig {
            schedule: &schedule,
            probe_pairs: &pairs,
            probe_cadence: Duration::from_mins(5),
        }),
        ..BeaconingRun::core(Duration::from_hours(1), 7)
    };
    let cfg = BeaconingConfig::diversity();
    let (dir, report) = dump("chaos_only", tag, &topo, &cfg, &run);
    assert_eq!(report.chaos.fault_events_applied, 4);
    assert!(!report.chaos.probes.is_empty(), "probes never fired");
    dir
}

fn assert_thread_count_invariant(arm: &str, dump_run: fn(&str, usize) -> PathBuf) {
    let reference = dump_run("ref", 1);
    for threads in [2, 8] {
        let other = dump_run("other", threads);
        assert_dumps_identical(
            &reference,
            &other,
            &format!("{arm} threads=1 vs threads={threads}"),
            false,
        );
        fs::remove_dir_all(&other).ok();
    }
    fs::remove_dir_all(&reference).ok();
}

#[test]
fn thread_count_does_not_change_telemetry_dumps() {
    assert_thread_count_invariant("plain", dump_parallel_run);
}

#[test]
fn thread_count_does_not_change_lossy_telemetry_dumps() {
    // The stochastic planes (loss coins, jitter, retransmit backoff) draw
    // in the serial merge, so even a lossy reliable run must stay
    // byte-identical across thread counts.
    assert_thread_count_invariant("lossy", dump_parallel_lossy_run);
}

#[test]
fn thread_count_does_not_change_intra_isd_lossy_telemetry_dumps() {
    assert_thread_count_invariant("intra-ISD lossy", dump_intra_lossy_run);
}

#[test]
fn thread_count_does_not_change_chaos_only_telemetry_dumps() {
    assert_thread_count_invariant("chaos-only", dump_chaos_only_run);
}

#[test]
fn same_seed_same_thread_count_is_reproducible() {
    let a = dump_parallel_run("repro-a", 4);
    let b = dump_parallel_run("repro-b", 4);
    assert_dumps_identical(&a, &b, "two identical threads=4 runs", false);
    fs::remove_dir_all(&a).ok();
    fs::remove_dir_all(&b).ok();
}

#[test]
fn tiny_world_delivers_what_the_serial_loop_delivered() {
    // (events, bytes, beacons delivered) of the event-at-a-time loop this
    // driver replaced, captured at the last commit that had it: tiny
    // world, default cadence, two hours, seed 7.
    let world = World::build(ExperimentScale::Tiny.params());
    let golden = [
        (Scope::Core, false, (166_867, 57_777_836, 166_723)),
        (Scope::Core, true, (16_947, 9_617_596, 16_803)),
        (Scope::IntraIsd, false, (1_416, 168_960, 816)),
        (Scope::IntraIsd, true, (668, 14_080, 68)),
    ];
    for (scope, diversity, expected) in golden {
        let (topo, cfg) = (
            match scope {
                Scope::Core => &world.core,
                Scope::IntraIsd => &world.intra,
            },
            if diversity {
                BeaconingConfig::diversity()
            } else {
                BeaconingConfig::default()
            },
        );
        let run = BeaconingRun {
            scope,
            ..BeaconingRun::core(Duration::from_hours(2), 7)
        };
        let out = run_beaconing(topo, &cfg, &run, &mut Telemetry::disabled()).outcome;
        assert_eq!(
            (
                out.events_processed,
                out.total_bytes(),
                out.beacons_delivered
            ),
            expected,
            "{scope:?}, diversity={diversity}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Random seed, core size, loss rate and channel: every worker count
    /// produces the same traffic table and the same loss report.
    #[test]
    fn prop_random_runs_are_thread_count_invariant(
        seed in any::<u64>(),
        num_core in 8usize..=24,
        loss_ix in 0usize..3,
        reliable in any::<bool>(),
    ) {
        let topo = core_topology(5 * num_core, num_core, seed);
        let loss = [0.0, 0.05, 0.2][loss_ix];
        let cfg = BeaconingConfig {
            interval: Duration::from_secs(100),
            pcb_lifetime: Duration::from_secs(3_600),
            ..BeaconingConfig::diversity()
        };
        let go = |threads: usize| {
            let run = BeaconingRun {
                threads,
                lossy: Some(if reliable {
                    LossyConfig::reliable(loss)
                } else {
                    LossyConfig::unreliable(loss)
                }),
                ..BeaconingRun::core(Duration::from_secs(800), seed)
            };
            run_beaconing(&topo, &cfg, &run, &mut Telemetry::disabled())
        };
        let one = go(1);
        prop_assert!(one.outcome.total_bytes() > 0);
        for threads in [2, 3] {
            let other = go(threads);
            prop_assert_eq!(
                one.outcome.traffic.per_interface(),
                other.outcome.traffic.per_interface()
            );
            prop_assert_eq!(one.outcome.beacons_delivered, other.outcome.beacons_delivered);
            prop_assert_eq!(one.loss, other.loss);
        }
    }
}
