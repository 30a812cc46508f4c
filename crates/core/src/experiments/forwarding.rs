//! Forwarding microbenchmark: data-plane packets/sec through a chain of
//! border routers, scalar versus batched hop-field verification.
//!
//! Method: build the scale's core topology, BFS-route the quality-pair
//! sample into end-to-end paths with real interface ids, and stamp
//! [`PACKETS_PER_PATH`] packets onto each path. A deterministic sliver of
//! the workload is perturbed — tampered middle-hop MACs, pre-expired hop
//! fields, failed mid-path links — so MAC rejection, expiry drops, and
//! SCMP emission all exercise under measurement.
//!
//! Packets advance in hop-major **waves**: wave *k* processes hop *k* of
//! every still-live packet in packet-index order. Both arms consume the
//! identical wave schedule — the scalar arm calls
//! [`forward_instrumented`] per step, the batched arm hands each wave to
//! [`forward_batch`] (parallel MAC shards, serial in-order merge) — so a
//! recording run produces byte-identical deterministic telemetry
//! (`metrics`/`trace` JSONL) from both arms, which
//! `tests/forwarding_determinism.rs` asserts. An uninstrumented *plain*
//! leg measures raw throughput so the result records the cost of
//! observability itself.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::time::Instant;

use serde::Serialize;

use scion_dataplane::{forward_batch, forward_instrumented, BatchStep, ForwardAction, Packet};
use scion_proto::combine::EndToEndPath;
use scion_simulator::WorkerPool;
use scion_telemetry::trace::TraceEvent;
use scion_telemetry::{ids, phase, Label, Profiler, Telemetry};
use scion_topology::{AsIndex, AsTopology, LinkIndex};
use scion_types::{Duration, IfId, SimTime};

use crate::experiments::fig6::sample_pairs;
use crate::experiments::RunCtx;

/// Packets stamped onto each sampled path.
pub const PACKETS_PER_PATH: usize = 500;
/// Every n-th packet gets its middle hop field tampered (→ `bad_mac`).
const TAMPER_EVERY: usize = 17;
/// Every n-th packet is built pre-expired (→ `expired` at the source).
const EXPIRE_EVERY: usize = 23;
/// Every n-th path has its mid-path link failed (→ SCMP `link_down`).
const FAIL_PATH_EVERY: usize = 13;
/// Payload bytes per packet.
const PAYLOAD_LEN: u32 = 1_000;

/// Latency quantiles of one profiler phase, nanoseconds. Hot-span phases
/// time a sample of their calls: `count` is every call, the latency
/// figures describe the timed ones.
#[derive(Clone, Debug, Serialize)]
pub struct LatencyQuantiles {
    /// Operations the phase ran (`PhaseStats::calls`).
    pub count: u64,
    /// Mean, nanoseconds.
    pub mean_ns: f64,
    /// Median.
    pub p50_ns: f64,
    /// 90th percentile.
    pub p90_ns: f64,
    /// 99th percentile.
    pub p99_ns: f64,
    /// Largest single observation.
    pub max_ns: f64,
}

pub(crate) fn quantiles(profiler: &Profiler, phase_name: &str) -> Option<LatencyQuantiles> {
    let h = profiler.latency(phase_name)?;
    let stats = profiler.stats(phase_name)?;
    Some(LatencyQuantiles {
        count: stats.calls,
        mean_ns: stats.mean_ns() as f64,
        p50_ns: h.quantile(0.5)?,
        p90_ns: h.quantile(0.9)?,
        p99_ns: h.quantile(0.99)?,
        max_ns: h.max()?,
    })
}

/// One measured arm (scalar or batched).
#[derive(Clone, Debug, Serialize)]
pub struct ForwardingArm {
    /// `"scalar"` or `"batched"`.
    pub name: &'static str,
    /// Worker threads (1 for the scalar arm).
    pub threads: usize,
    /// Whole-arm wall-clock, milliseconds.
    pub wall_ms: f64,
    /// Packets completed (delivered or dropped) per wall-clock second.
    pub packets_per_sec: f64,
    /// Border-router hop operations per wall-clock second.
    pub hops_per_sec: f64,
    /// Packets that reached their destination AS.
    pub delivered: u64,
    /// Packets dropped anywhere on the path.
    pub dropped: u64,
    /// Inter-domain links traversed.
    pub link_hops: u64,
    /// SCMP errors emitted at failed links.
    pub scmp_sent: u64,
    /// Border-router hop operations executed.
    pub hop_ops: u64,
    /// Drop breakdown by stable reason code, sorted by reason.
    pub drops: Vec<(String, u64)>,
    /// Per-hop forwarding latency ([`phase::FWD_FORWARD`]).
    pub hop_latency: Option<LatencyQuantiles>,
    /// Hop-field MAC verification latency ([`phase::FWD_VERIFY`]).
    pub verify_latency: Option<LatencyQuantiles>,
}

/// Full forwarding-bench result.
#[derive(Clone, Debug, Serialize)]
pub struct ForwardingResult {
    /// Core ASes in the routed topology.
    pub num_ases: usize,
    /// Links in the routed topology.
    pub num_links: usize,
    /// Distinct end-to-end paths routed.
    pub num_paths: usize,
    /// Packets pushed through each arm.
    pub num_packets: usize,
    /// Master seed of the workload.
    pub seed: u64,
    /// Worker threads of the batched arm.
    pub threads: usize,
    /// Links failed by the fault-injection sliver.
    pub failed_links: usize,
    /// Raw throughput of the uninstrumented plain leg, packets/sec.
    pub plain_packets_per_sec: f64,
    /// Scalar-arm slowdown versus the plain leg, percent.
    pub telemetry_overhead_pct: f64,
    /// The measured arms: scalar, then batched.
    pub arms: Vec<ForwardingArm>,
    /// True when the plain, scalar, and batched legs produced identical
    /// protocol outcomes — and, on recording handles, identical
    /// deterministic telemetry streams across the two arms.
    pub outcomes_identical: bool,
}

/// Protocol outcome of one leg, independent of telemetry, so the arms can
/// be cross-checked even on disabled handles.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct ArmOutcome {
    delivered: u64,
    link_hops: u64,
    scmp_sent: u64,
    hop_ops: u64,
    drops: BTreeMap<String, u64>,
}

/// BFS shortest path from `src` to `dst` avoiding `banned` links, with the
/// topology's actual interface ids, as an [`EndToEndPath`]. Deterministic:
/// neighbor expansion follows the stable [`AsTopology::incident`] order.
/// Repeated calls with a growing ban set yield link-disjoint alternatives
/// (the recovery experiment's use); this experiment bans nothing.
pub(crate) fn shortest_path(
    topo: &AsTopology,
    src: AsIndex,
    dst: AsIndex,
    banned: &HashSet<LinkIndex>,
) -> Option<EndToEndPath> {
    let n = topo.num_ases();
    // prev[v] = (predecessor, its egress ifid, v's ingress ifid)
    let mut prev: Vec<Option<(AsIndex, IfId, IfId)>> = vec![None; n];
    let mut visited = vec![false; n];
    let mut queue = VecDeque::new();
    visited[src.as_usize()] = true;
    queue.push_back(src);
    'search: while let Some(u) = queue.pop_front() {
        for (li, v, local_if, remote_if) in topo.incident(u) {
            if banned.contains(&li) || visited[v.as_usize()] {
                continue;
            }
            visited[v.as_usize()] = true;
            prev[v.as_usize()] = Some((u, local_if, remote_if));
            if v == dst {
                break 'search;
            }
            queue.push_back(v);
        }
    }
    if !visited[dst.as_usize()] {
        return None;
    }
    let mut rev: Vec<(AsIndex, IfId, IfId)> = Vec::new();
    let mut cur = dst;
    let mut egress = IfId::NONE;
    while cur != src {
        let (pred, pred_egress, ingress) = prev[cur.as_usize()].expect("walked from dst");
        rev.push((cur, ingress, egress));
        egress = pred_egress;
        cur = pred;
    }
    rev.push((src, IfId::NONE, egress));
    rev.reverse();
    Some(EndToEndPath {
        hops: rev
            .into_iter()
            .map(|(idx, ingress, eg)| (topo.node(idx).ia, ingress, eg))
            .collect(),
    })
}

/// The deterministic workload: packets (some perturbed) plus failed links.
struct Workload {
    packets: Vec<Packet>,
    failed_links: HashSet<LinkIndex>,
}

fn build_workload(
    topo: &AsTopology,
    paths: &[EndToEndPath],
    expiry: SimTime,
    now: SimTime,
) -> Workload {
    let mut failed_links = HashSet::new();
    for (pi, path) in paths.iter().enumerate() {
        if pi % FAIL_PATH_EVERY != 0 {
            continue;
        }
        // Fail the link leaving the middle AS of the path (the first link
        // on a direct two-hop path — dense core topologies are mostly
        // direct, and a failed first link still exercises SCMP emission).
        let mid = (path.hops.len() - 1) / 2;
        let (ia, _, eg) = path.hops[mid];
        let idx = topo.by_address(ia).expect("path AS exists");
        if let Some(li) = topo.link_by_interface(idx, eg) {
            failed_links.insert(li);
        }
    }

    let num_packets = paths.len() * PACKETS_PER_PATH;
    let mut packets = Vec::with_capacity(num_packets);
    for i in 0..num_packets {
        let path = &paths[i % paths.len()];
        let exp = if i % EXPIRE_EVERY == 0 { now } else { expiry };
        let mut pkt = Packet::along(path, exp, PAYLOAD_LEN);
        if i % TAMPER_EVERY == 0 {
            // Rewriting the egress interface invalidates the MAC — the
            // path-alteration attack PCFS exists to stop.
            let mid = pkt.path.hops.len() / 2;
            pkt.path.hops[mid].1.egress = IfId(0x7E57);
        }
        packets.push(pkt);
    }
    Workload {
        packets,
        failed_links,
    }
}

enum Arm {
    Scalar,
    Batched(WorkerPool),
}

/// Drives every packet source→destination in hop-major waves, emitting
/// the exact telemetry [`scion_dataplane::deliver_instrumented`] would
/// per packet, in wave order.
fn drive(
    topo: &AsTopology,
    packets: &mut [Packet],
    failed_links: &HashSet<LinkIndex>,
    now: SimTime,
    arm: &Arm,
    tel: &mut Telemetry,
) -> ArmOutcome {
    let mut outcome = ArmOutcome::default();
    // Live position per packet: (current AS, arrival interface).
    let mut positions: Vec<Option<(AsIndex, IfId)>> = packets
        .iter()
        .map(|p| {
            Some((
                topo.by_address(p.source).expect("source AS in topology"),
                IfId::NONE,
            ))
        })
        .collect();

    loop {
        let steps: Vec<BatchStep> = positions
            .iter()
            .enumerate()
            .filter_map(|(i, pos)| {
                pos.map(|(cur, arrival_if)| BatchStep {
                    packet: i,
                    local_as: topo.node(cur).ia,
                    node: cur.0,
                    arrival_if,
                })
            })
            .collect();
        if steps.is_empty() {
            return outcome;
        }
        outcome.hop_ops += steps.len() as u64;

        let results: Vec<(usize, Result<ForwardAction, _>)> = match arm {
            Arm::Scalar => steps
                .iter()
                .map(|s| {
                    let r = forward_instrumented(
                        &mut packets[s.packet],
                        s.local_as,
                        s.node,
                        s.arrival_if,
                        now,
                        None,
                        tel,
                    );
                    (s.packet, r)
                })
                .collect(),
            Arm::Batched(pool) => forward_batch(packets, &steps, now, pool, tel),
        };

        for (i, result) in results {
            let (cur, _) = positions[i].expect("stepped packets are live");
            let node = cur.0;
            match result {
                Ok(ForwardAction::Deliver) => {
                    outcome.delivered += 1;
                    positions[i] = None;
                }
                Ok(ForwardAction::Egress(egress)) => {
                    let Some(li) = topo.link_by_interface(cur, egress) else {
                        tel.trace_event(now, || TraceEvent::PacketDropped {
                            node,
                            reason: "no_interface",
                        });
                        tel.inc(ids::FWD_DROPPED, Label::As(node), 1);
                        tel.inc(ids::FWD_DROP_NO_INTERFACE, Label::Global, 1);
                        *outcome.drops.entry("no_interface".into()).or_default() += 1;
                        positions[i] = None;
                        continue;
                    };
                    if failed_links.contains(&li) {
                        tel.trace_event(now, || TraceEvent::ScmpEmitted {
                            node,
                            interface: egress.0,
                            kind: "external_interface_down",
                        });
                        tel.inc(ids::FWD_SCMP_SENT, Label::As(node), 1);
                        tel.trace_event(now, || TraceEvent::PacketDropped {
                            node,
                            reason: "link_down",
                        });
                        tel.inc(ids::FWD_DROPPED, Label::As(node), 1);
                        tel.inc(ids::FWD_DROP_LINK_DOWN, Label::Global, 1);
                        outcome.scmp_sent += 1;
                        *outcome.drops.entry("link_down".into()).or_default() += 1;
                        positions[i] = None;
                        continue;
                    }
                    let (next, _, remote_if) = topo.link(li).opposite(cur);
                    positions[i] = Some((next, remote_if));
                    outcome.link_hops += 1;
                }
                Err(e) => {
                    *outcome.drops.entry(e.reason().into()).or_default() += 1;
                    positions[i] = None;
                }
            }
        }
    }
}

fn arm_record(
    name: &'static str,
    threads: usize,
    outcome: &ArmOutcome,
    wall: std::time::Duration,
    num_packets: usize,
    profiler: &Profiler,
) -> ForwardingArm {
    let secs = wall.as_secs_f64().max(1e-9);
    ForwardingArm {
        name,
        threads,
        wall_ms: wall.as_secs_f64() * 1e3,
        packets_per_sec: num_packets as f64 / secs,
        hops_per_sec: outcome.hop_ops as f64 / secs,
        delivered: outcome.delivered,
        dropped: outcome.drops.values().sum(),
        link_hops: outcome.link_hops,
        scmp_sent: outcome.scmp_sent,
        hop_ops: outcome.hop_ops,
        drops: outcome.drops.iter().map(|(k, &v)| (k.clone(), v)).collect(),
        hop_latency: quantiles(profiler, phase::FWD_FORWARD),
        verify_latency: quantiles(profiler, phase::FWD_VERIFY),
    }
}

/// Deterministic telemetry fingerprint of a recording handle: every final
/// counter/gauge/histogram plus every retained trace record. Wall-clock
/// (profiler) state is deliberately excluded.
pub(crate) fn telemetry_fingerprint(tel: &Telemetry) -> Vec<String> {
    let mut out = Vec::new();
    for (id, label, value) in tel.metrics.counters() {
        out.push(format!("c/{id}/{label:?}/{value}"));
    }
    for (id, label, value) in tel.metrics.gauges() {
        out.push(format!("g/{id}/{label:?}/{value}"));
    }
    for (id, label, h) in tel.metrics.histograms() {
        out.push(format!("h/{id}/{label:?}/{h:?}"));
    }
    for record in tel.traces.records() {
        out.push(format!("t/{record:?}"));
    }
    out
}

/// Runs the forwarding bench on the context's world; `ctx.threads` sizes
/// the batched arm's worker pool. The scalar and batched arms each run on
/// their own handle, kept under `scalar` and `batched` — on a recording
/// run the two dumps are byte-comparable. Profiling is forced on either
/// way so latency quantiles are always reported.
pub fn run(ctx: &mut RunCtx) -> ForwardingResult {
    let world = ctx.world();
    let threads = ctx.threads;
    let (mut scalar_handle, mut batched_handle) = (ctx.telemetry(), ctx.telemetry());
    let (tel_scalar, tel_batched) = (&mut scalar_handle, &mut batched_handle);
    let params = world.params;
    let topo = &world.core;

    let pairs = sample_pairs(topo, params.quality_pairs, params.seed);
    let paths: Vec<EndToEndPath> = pairs
        .iter()
        .filter_map(|&(src, dst)| shortest_path(topo, src, dst, &HashSet::new()))
        .collect();
    assert!(
        !paths.is_empty(),
        "core topology must route at least one pair"
    );

    let now = SimTime::ZERO + Duration::from_secs(1);
    let expiry = SimTime::ZERO + params.pcb_lifetime;
    let workload = build_workload(topo, &paths, expiry, now);
    let num_packets = workload.packets.len();

    // Latency quantiles are always wanted in the result record.
    for tel in [&mut *tel_scalar, &mut *tel_batched] {
        if !tel.profile.is_enabled() {
            tel.profile = Profiler::enabled();
        }
        tel.begin_run("fwd");
    }

    // Plain leg: zero instrumentation, the raw-throughput baseline.
    let mut plain_tel = Telemetry::disabled();
    let mut plain_packets = workload.packets.clone();
    let started = Instant::now();
    let plain_outcome = drive(
        topo,
        &mut plain_packets,
        &workload.failed_links,
        now,
        &Arm::Scalar,
        &mut plain_tel,
    );
    let plain_wall = started.elapsed();

    // Scalar arm.
    let mut scalar_packets = workload.packets.clone();
    let started = Instant::now();
    let scalar_outcome = drive(
        topo,
        &mut scalar_packets,
        &workload.failed_links,
        now,
        &Arm::Scalar,
        tel_scalar,
    );
    let scalar_wall = started.elapsed();

    // Batched arm.
    let arm = Arm::Batched(WorkerPool::new(threads));
    let mut batched_packets = workload.packets;
    let started = Instant::now();
    let batched_outcome = drive(
        topo,
        &mut batched_packets,
        &workload.failed_links,
        now,
        &arm,
        tel_batched,
    );
    let batched_wall = started.elapsed();

    let mut outcomes_identical =
        plain_outcome == scalar_outcome && scalar_outcome == batched_outcome;
    if tel_scalar.is_enabled() && tel_batched.is_enabled() {
        outcomes_identical &=
            telemetry_fingerprint(tel_scalar) == telemetry_fingerprint(tel_batched);
    }

    let plain_secs = plain_wall.as_secs_f64().max(1e-9);
    let scalar_secs = scalar_wall.as_secs_f64().max(1e-9);
    let result = ForwardingResult {
        num_ases: topo.num_ases(),
        num_links: topo.num_links(),
        num_paths: paths.len(),
        num_packets,
        seed: params.seed,
        threads,
        failed_links: workload.failed_links.len(),
        plain_packets_per_sec: num_packets as f64 / plain_secs,
        telemetry_overhead_pct: (scalar_secs / plain_secs - 1.0) * 100.0,
        arms: vec![
            arm_record(
                "scalar",
                1,
                &scalar_outcome,
                scalar_wall,
                num_packets,
                &tel_scalar.profile,
            ),
            arm_record(
                "batched",
                threads,
                &batched_outcome,
                batched_wall,
                num_packets,
                &tel_batched.profile,
            ),
        ],
        outcomes_identical,
    };
    ctx.keep("scalar", scalar_handle);
    ctx.keep("batched", batched_handle);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::world::World;
    use crate::scale::ExperimentScale;

    #[test]
    fn forwarding_tiny_delivers_and_audits_clean() {
        let r = run(&mut RunCtx::new(ExperimentScale::Tiny).with_threads(2));
        assert!(r.outcomes_identical, "{r:?}");
        assert_eq!(r.num_packets, r.num_paths * PACKETS_PER_PATH);
        assert_eq!(r.arms.len(), 2);
        for arm in &r.arms {
            assert!(arm.delivered > 0, "{arm:?}");
            assert!(arm.dropped > 0, "fault sliver must produce drops: {arm:?}");
            assert_eq!(arm.delivered + arm.dropped, r.num_packets as u64);
            assert!(arm.packets_per_sec > 0.0);
            let hop = arm.hop_latency.as_ref().expect("hop latency recorded");
            assert_eq!(hop.count, arm.hop_ops);
            assert!(hop.p50_ns > 0.0 && hop.p99_ns >= hop.p50_ns);
            let verify = arm
                .verify_latency
                .as_ref()
                .expect("verify latency recorded");
            assert!(verify.count > 0);
            // Drop reasons cover MAC tampering, expiry, and link failure.
            let reasons: Vec<&str> = arm.drops.iter().map(|(k, _)| k.as_str()).collect();
            for expected in ["bad_mac", "expired", "link_down"] {
                assert!(reasons.contains(&expected), "{reasons:?}");
            }
        }
        assert!(r.plain_packets_per_sec > 0.0);
    }

    #[test]
    fn forwarding_arms_agree_on_recording_handles() {
        let mut ctx = RunCtx::new(ExperimentScale::Bench)
            .with_threads(2)
            .recording();
        let r = run(&mut ctx);
        let (tel_s, tel_b) = (ctx.dumped("scalar"), ctx.dumped("batched"));
        assert!(r.outcomes_identical, "{r:?}");
        assert_eq!(telemetry_fingerprint(tel_s), telemetry_fingerprint(tel_b));
        assert!(tel_s.traces.emitted() > 0);
        // The per-packet trace stream contains every lifecycle kind.
        let events: Vec<&TraceEvent> = tel_s.traces.records().map(|t| &t.event).collect();
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::MacVerified { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::PacketForwarded { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::PacketDelivered { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::PacketDropped { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::ScmpEmitted { .. })));
    }

    #[test]
    fn bfs_paths_verify_end_to_end() {
        let params = ExperimentScale::Bench.params();
        let world = World::build(params);
        let pairs = sample_pairs(&world.core, 10, params.seed);
        for &(src, dst) in &pairs {
            let path =
                shortest_path(&world.core, src, dst, &HashSet::new()).expect("core is connected");
            path.check().expect("BFS path is well-formed");
            assert_eq!(path.source(), world.core.node(src).ia);
            assert_eq!(path.destination(), world.core.node(dst).ia);
        }
    }
}
