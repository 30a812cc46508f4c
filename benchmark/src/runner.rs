//! The measurement procedure: interleaved short reps, inputs rebuilt thirty
//! times along the way, a memory pass, and — separately — a traced pass.
//!
//! One process, one load-generating thread. Round *k* runs rep *k* of every
//! selected workload in turn, so each workload's reps are spread over the
//! whole invocation rather than clustered inside one interference episode.
//! End-to-end metrics come from the untraced rounds only.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::Value;

use crate::alloc::{self, Snapshot};
use crate::kernels::{self, Metric};
use crate::span::Spans;
use crate::stats::{summarize, Summary};
use crate::workloads::{self, Digest, Workload, DEFAULT_SEED, WORKLOADS};

/// Input rebuilds per workload and invocation, the first build included.
pub const REBUILDS: usize = 30;
/// Rounds of the default invocation.
pub const DEFAULT_REPS: usize = 600;
/// Fewest timed reps an invocation may take its minimum over.
pub const MIN_REPS: usize = 10;
/// Traced reps per workload; the fastest one's spans are kept, so that
/// `bench.trace_overhead_ratio` compares two minima.
pub const TRACED_REPS: usize = 3;
/// Reps per side when a ratio needs a workload that is not being run.
const RATIO_REPS: usize = 8;

/// The default seed's outcome per workload, recorded by `--update-expected`.
const EXPECTED: &str = include_str!("../expected.json");

/// How long the rounds go on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Length {
    /// A fixed number of rounds.
    Reps(usize),
    /// Rounds until this many seconds have passed (at least [`MIN_REPS`]).
    Seconds(f64),
}

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload names, in run order.
    pub workloads: Vec<&'static str>,
    /// Seed of input generation.
    pub seed: u64,
    /// Length of the timed rounds.
    pub length: Length,
    /// Whether to run the traced pass (the layer kernels are a separate
    /// call, [`measure_layers`]).
    pub trace: bool,
    /// Whether the default seed's outcomes are held against `expected.json`
    /// (off only while that file is being rewritten).
    pub check_expected: bool,
}

/// The traced pass of one workload: the fastest of [`TRACED_REPS`] reps.
#[derive(Debug)]
pub struct Traced {
    /// Wall time of the fastest traced rep.
    pub rep_s: f64,
    /// Allocations during the first traced rep.
    pub alloc: Snapshot,
    /// The spans the fastest traced rep recorded.
    pub spans: Spans,
}

/// Everything measured for one workload.
#[derive(Debug)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: &'static str,
    /// The outcome every rep must reproduce (the warm-up rep's).
    pub digest: Digest,
    /// Operations attempted over all reps.
    pub attempted: u64,
    /// Operations of reps whose outcome was wrong.
    pub failed: u64,
    /// Why, if anything failed.
    pub errors: Vec<String>,
    /// Wall time of every timed rep, seconds, in run order.
    pub rep_s: Vec<f64>,
    /// Wall time of every input build, seconds.
    pub setup_s: Vec<f64>,
    /// High-water mark of live heap bytes over a fresh build plus one rep.
    pub peak_live_bytes: i64,
    /// The traced pass, when asked for.
    pub traced: Option<Traced>,
}

impl WorkloadResult {
    /// Order statistics of the rep times.
    pub fn reps(&self) -> Summary {
        summarize(&self.rep_s)
    }

    /// Operations per second at the fastest rep.
    pub fn ops_per_s(&self) -> f64 {
        self.digest.ops as f64 / self.reps().min
    }

    /// The gated metrics, in `BENCHMARK.json` order.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let metric = |name, value, unit| Metric { name, value, unit };
        vec![
            metric("ops_per_s", self.ops_per_s(), "1/s"),
            metric("setup_s", summarize(&self.setup_s).min, "s"),
            metric("peak_live_mb", self.peak_live_bytes as f64 / 1e6, "MB"),
        ]
    }

    /// True when every rep reproduced the expected outcome.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// One invocation's results.
#[derive(Debug)]
pub struct Report {
    /// The options it ran with.
    pub options: Options,
    /// Per workload, in run order.
    pub workloads: Vec<WorkloadResult>,
    /// Layer kernels and cross-workload ratios, once [`measure_layers`] ran.
    pub layers: Vec<Metric>,
    /// Wall time of the whole invocation, seconds.
    pub total_s: f64,
}

struct Slot {
    wl: Option<Box<dyn Workload>>,
    result: WorkloadResult,
}

impl Slot {
    fn build(&mut self, seed: u64) {
        // Drop the old inputs first: two copies would double the footprint.
        self.wl = None;
        let start = Instant::now();
        let wl = workloads::build(self.result.name, seed).expect("names were checked");
        self.result.setup_s.push(start.elapsed().as_secs_f64());
        self.wl = Some(wl);
    }

    /// One rep; returns its wall time. A rep whose outcome differs from the
    /// reference counts all its operations as failed.
    fn rep(&mut self, spans: &mut Spans) -> f64 {
        let wl = self.wl.as_mut().expect("inputs are built");
        wl.prepare();
        let start = Instant::now();
        let digest = wl.run(spans);
        let elapsed = start.elapsed().as_secs_f64();
        let r = &mut self.result;
        r.attempted += r.digest.ops;
        if digest != r.digest {
            r.failed += r.digest.ops.max(1);
            r.errors.push(format!(
                "rep outcome {digest:?} differs from {:?}",
                r.digest
            ));
        }
        elapsed
    }
}

fn expected_for(name: &str) -> Option<Value> {
    let all = Value::parse_json(EXPECTED).expect("expected.json is JSON");
    if all.get("seed").and_then(Value::as_u64) != Some(DEFAULT_SEED) {
        return None;
    }
    all.get("workloads")?.get(name).cloned()
}

/// Runs the procedure.
///
/// # Panics
/// Panics on an unknown workload name or fewer than [`MIN_REPS`] reps.
pub fn run(options: Options) -> Report {
    let started = Instant::now();
    if let Length::Reps(n) = options.length {
        assert!(n >= MIN_REPS, "--reps must be at least {MIN_REPS}");
    }
    let seed = options.seed;
    let off = &mut Spans::disabled();

    // Build, warm up (rep 0, untimed), and check what a digest cannot carry.
    let mut slots: Vec<Slot> = options
        .workloads
        .iter()
        .map(|&name| {
            assert!(
                WORKLOADS.iter().any(|(n, _)| *n == name),
                "unknown workload {name}"
            );
            let mut slot = Slot {
                wl: None,
                result: WorkloadResult {
                    name,
                    digest: Digest::default(),
                    attempted: 0,
                    failed: 0,
                    errors: Vec::new(),
                    rep_s: Vec::new(),
                    setup_s: Vec::new(),
                    peak_live_bytes: 0,
                    traced: None,
                },
            };
            slot.build(seed);
            let wl = slot.wl.as_mut().expect("just built");
            wl.prepare();
            slot.result.digest = wl.run(off);
            slot.result.attempted = slot.result.digest.ops;
            if let Err(e) = wl.verify() {
                slot.result.failed += slot.result.digest.ops.max(1);
                slot.result.errors.push(e);
            }
            if seed == DEFAULT_SEED && options.check_expected {
                let expected = expected_for(name);
                if expected != Some(slot.result.digest.to_json()) {
                    slot.result.failed += slot.result.digest.ops.max(1);
                    slot.result.errors.push(format!(
                        "outcome {:?} is not expected.json's {:?}",
                        slot.result.digest,
                        expected.map(|v| v.to_json())
                    ));
                }
            }
            slot
        })
        .collect();

    eprintln!(
        "inputs built and verified at {:.1} s",
        started.elapsed().as_secs_f64()
    );
    // The timed rounds. Rebuild i happens once i/REBUILDS of the rounds
    // (or of the seconds) are behind.
    let rounds_started = Instant::now();
    let mut round = 0usize;
    let mut builds = 1usize;
    loop {
        let progress = match options.length {
            Length::Reps(n) => round as f64 / n as f64,
            Length::Seconds(s) => rounds_started.elapsed().as_secs_f64() / s,
        };
        if progress >= 1.0 && round >= MIN_REPS {
            break;
        }
        if builds < REBUILDS && progress * REBUILDS as f64 >= builds as f64 {
            slots.iter_mut().for_each(|s| s.build(seed));
            builds += 1;
        }
        for slot in &mut slots {
            let t = slot.rep(off);
            slot.result.rep_s.push(t);
        }
        round += 1;
    }
    while builds < REBUILDS {
        slots.iter_mut().for_each(|s| s.build(seed));
        builds += 1;
    }

    // Memory pass: live bytes are exact only for state allocated inside the
    // counting window, so the inputs are built once more inside it. This
    // build is slowed by the counting and is not a `setup_s` sample.
    for slot in &mut slots {
        slot.wl = None;
        let name = slot.result.name;
        let (wl, snap) = alloc::counted(|| {
            let mut wl = workloads::build(name, seed).expect("names were checked");
            wl.prepare();
            std::hint::black_box(wl.run(&mut Spans::disabled()));
            wl
        });
        slot.result.peak_live_bytes = snap.peak;
        slot.wl = Some(wl);
    }

    eprintln!(
        "rounds and memory pass done at {:.1} s",
        started.elapsed().as_secs_f64()
    );
    if options.trace {
        for slot in &mut slots {
            let wl = slot.wl.as_mut().expect("inputs are built");
            let r = &mut slot.result;
            for _ in 0..TRACED_REPS {
                let mut spans = Spans::enabled();
                wl.prepare();
                let whole = spans.enter("bench.rep");
                let start = Instant::now();
                let (digest, alloc) = alloc::counted(|| wl.run(&mut spans));
                let rep_s = start.elapsed().as_secs_f64();
                spans.exit(whole);
                r.attempted += r.digest.ops;
                if digest != r.digest {
                    r.failed += r.digest.ops.max(1);
                    r.errors
                        .push("traced rep produced a different outcome".into());
                }
                // Time and spans are the fastest rep's. Allocations are the
                // first's: a long-lived handle (fwd_telemetry's ring) grows
                // at a fixed rep, and which rep is fastest is up to the host.
                match &mut r.traced {
                    None => {
                        r.traced = Some(Traced {
                            rep_s,
                            alloc,
                            spans,
                        })
                    }
                    Some(t) if rep_s < t.rep_s => (t.rep_s, t.spans) = (rep_s, spans),
                    Some(_) => {}
                }
            }
            // Free the inputs before the kernels build their own.
            slot.wl = None;
        }
        eprintln!(
            "traced reps done at {:.1} s",
            started.elapsed().as_secs_f64()
        );
    }

    Report {
        options,
        workloads: slots.into_iter().map(|s| s.result).collect(),
        layers: Vec::new(),
        total_s: started.elapsed().as_secs_f64(),
    }
}

/// Runs the layer kernels and the cross-workload ratios and adds them to
/// `report`. The workloads' inputs are gone by now; the kernels build their
/// own from the same seed.
pub fn measure_layers(report: &mut Report) {
    let started = Instant::now();
    let seed = report.options.seed;
    report.layers = kernels::run_all(seed);
    report.layers.extend(ratios(&report.workloads, seed));
    let spent = started.elapsed().as_secs_f64();
    eprintln!("layer kernels and ratios took {spent:.1} s");
    report.total_s += spent;
}

/// `simulator.par2_speedup` and `telemetry.overhead_ratio`, from this
/// invocation's rounds where both sides ran, else from a short interleaved
/// set of the missing sides.
fn ratios(measured: &[WorkloadResult], seed: u64) -> Vec<Metric> {
    let needed = ["beacon_verify", "beacon_par2", "fwd_plain", "fwd_telemetry"];
    let mut rate: BTreeMap<&str, f64> = measured.iter().map(|w| (w.name, w.ops_per_s())).collect();
    let mut extra: Vec<(&str, Box<dyn Workload>, u64, f64)> = needed
        .into_iter()
        .filter(|name| !rate.contains_key(name))
        .map(|name| {
            let wl = workloads::build(name, seed).expect("a known name");
            (name, wl, 0, f64::INFINITY)
        })
        .collect();
    for _ in 0..RATIO_REPS {
        for (_, wl, ops, best) in &mut extra {
            wl.prepare();
            let start = Instant::now();
            *ops = wl.run(&mut Spans::disabled()).ops;
            *best = best.min(start.elapsed().as_secs_f64());
        }
    }
    for (name, _, ops, best) in extra {
        rate.insert(name, ops as f64 / best);
    }
    let ratio = |name, a: &str, b: &str| Metric {
        name,
        value: rate[a] / rate[b],
        unit: "ratio",
    };
    vec![
        ratio("simulator.par2_speedup", "beacon_par2", "beacon_verify"),
        ratio("telemetry.overhead_ratio", "fwd_plain", "fwd_telemetry"),
    ]
}

impl WorkloadResult {
    /// The per-layer metrics that belong to this workload's own traced pass:
    /// allocation counts and the harness's own overhead and noise reading.
    ///
    /// # Panics
    /// Panics when the invocation did not trace.
    pub fn own_layers(&self) -> Vec<Metric> {
        let traced = self.traced.as_ref().expect("a traced invocation");
        let reps = self.reps();
        let ops = self.digest.ops as f64;
        let metric = |name, value, unit| Metric { name, value, unit };
        vec![
            metric(
                "alloc.count_per_op",
                traced.alloc.count as f64 / ops,
                "count",
            ),
            metric("alloc.bytes_per_op", traced.alloc.bytes as f64 / ops, "B"),
            metric(
                "bench.trace_overhead_ratio",
                traced.rep_s / reps.min,
                "ratio",
            ),
            metric("bench.floor_spread", reps.floor_spread(), "ratio"),
        ]
    }
}
