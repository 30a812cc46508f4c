//! The six workloads: what one rep does, how its inputs are built from the
//! seed, and which outcome it must produce.
//!
//! Sizes never depend on `--seed`. The internet every workload derives its
//! topology from is generated from [`TOPOLOGY_SEED`]; the run's seed draws
//! what is *sent over* it — link latencies and therefore event order, which
//! source–destination pairs send, the order of lookups between two writes.
//! A seed that changed the amount of work would show up as run-to-run spread
//! in every metric, which is the one thing this benchmark must not have.

pub mod beacon;
pub mod fwd;
pub mod lookup;

pub use beacon::Beacon;
pub use fwd::Fwd;
pub use lookup::Lookup;

use serde_json::Value;

use crate::adapter::{Duration, ScaleParams};
use crate::span::Spans;

/// Seed of the synthetic internet all workloads share.
pub const TOPOLOGY_SEED: u64 = 0xC0_4E_21;

/// The seed `expected.json` was recorded with, and the default `--seed`.
pub const DEFAULT_SEED: u64 = 1;

/// What a rep produced, as named protocol-level counts. Two reps of one
/// workload on one seed must agree on every field.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    /// Protocol-level operations completed — the numerator of `ops_per_s`.
    /// Defined by outcome (beacons delivered, packets completed, lookups
    /// answered), never by an internal event count.
    pub ops: u64,
    /// The remaining outcome counts, in a fixed order.
    pub fields: Vec<(&'static str, u64)>,
}

impl Digest {
    /// The named count, if present.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.fields
            .iter()
            .find(|(k, _)| *k == name)
            .map(|&(_, v)| v)
    }

    /// `{"ops": .., "<field>": ..}`.
    pub fn to_json(&self) -> Value {
        let mut obj = vec![("ops".to_string(), Value::U64(self.ops))];
        obj.extend(
            self.fields
                .iter()
                .map(|&(k, v)| (k.to_string(), Value::U64(v))),
        );
        Value::Object(obj)
    }
}

/// One workload with its inputs built.
pub trait Workload {
    /// Untimed reset before every rep, so that all reps do identical work.
    fn prepare(&mut self) {}

    /// One rep: the timed unit of work.
    fn run(&mut self, spans: &mut Spans) -> Digest;

    /// Untimed deep check of the invariants a digest cannot carry (stored
    /// beacons validate, resolved paths are well-formed, a twin workload
    /// reaches the same outcome). Run once per built input.
    fn verify(&mut self) -> Result<(), String>;
}

/// Name, and the one-line reason the workload exists.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "beacon_verify",
        "core beaconing, baseline, signatures verified, 1 thread: event-bound, crypto and engine cost",
    ),
    (
        "beacon_diversity",
        "same topology, diversity algorithm, no verification: scoring-bound, bypasses crypto",
    ),
    (
        "beacon_par2",
        "beacon_verify's inputs on 2 threads: the only path through the worker pool and window merge",
    ),
    (
        "fwd_plain",
        "smallest packets through a disabled telemetry handle: bare per-hop dataplane cost",
    ),
    (
        "fwd_telemetry",
        "the same packets through a recording handle: what instrumentation costs",
    ),
    (
        "lookup_mix",
        "Zipf lookups with path resolution, 9:1 against registrations and revocations",
    ),
];

/// Workloads the driver does not run: they exist, run in the full suite and
/// feed per-layer ratios, but `BENCHMARK.json` does not list them.
///
/// `beacon_par2` spawns two threads per event window. Whether the VM's
/// second vCPU answers promptly changes by the minute: ten 18 s runs read
/// `ops_per_s` 4–12 % apart on four occasions, and the floor itself moved by
/// 36 % within half an hour. No choice of rep length fixes that, and one
/// workload over its bound fails the whole benchmark.
pub const UNGATED: [&str; 1] = ["beacon_par2"];

/// True for the workloads whose reps run on one thread, where allocation
/// counts and live bytes repeat exactly.
pub fn single_threaded(name: &str) -> bool {
    name != "beacon_par2"
}

/// Builds `name`'s inputs from `seed`; `None` for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "beacon_verify" => Box::new(Beacon::build(beacon::Variant::Verify, seed)),
        "beacon_diversity" => Box::new(Beacon::build(beacon::Variant::Diversity, seed)),
        "beacon_par2" => Box::new(Beacon::build(beacon::Variant::Par2, seed)),
        "fwd_plain" => Box::new(Fwd::build(false, seed)),
        "fwd_telemetry" => Box::new(Fwd::build(true, seed)),
        "lookup_mix" => Box::new(Lookup::build(seed)),
        _ => return None,
    })
}

/// Scale parameters with the benchmark's fixed cadence: 100 s beaconing
/// interval, 36 intervals per PCB lifetime (the ratio every repo scale
/// keeps). Only the sizes differ between workloads.
pub(crate) fn scale(num_ases: usize, num_core: usize, intra_isd_cores: usize) -> ScaleParams {
    ScaleParams {
        num_ases,
        num_core,
        isd_size: 4,
        intra_isd_cores,
        interval: Duration::from_secs(100),
        pcb_lifetime: Duration::from_secs(3_600),
        sim_duration: Duration::from_secs(1_800),
        num_monitors: 4,
        quality_pairs: 0,
        verify_on_receive: true,
        seed: TOPOLOGY_SEED,
        bgpsec_extrapolate_to: None,
    }
}
