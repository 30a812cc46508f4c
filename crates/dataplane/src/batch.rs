//! Batched hop-field verification: the data-plane analogue of the
//! parallel beaconing engine's shard/merge split.
//!
//! MAC verification is the one side-effect-free stage of the
//! border-router pipeline, so it is the one that can be sharded: the
//! **shard** stage verifies every scheduled hop's MAC across the worker pool
//! ([`phase::FWD_BATCH_SHARD`]), each shard counting and sample-timing its
//! items in a local [`Profiler`]; the **merge** stage
//! ([`phase::FWD_BATCH_MERGE`]) then replays the full pipeline serially in
//! input order via [`forward_instrumented`] with the precomputed MAC
//! results, and absorbs the shard profilers' [`phase::FWD_VERIFY`] spans.
//!
//! Because the merge emits traces and counters in exactly the order the
//! scalar pipeline would, a batched run's deterministic telemetry streams
//! are byte-identical to a scalar run over the same steps — asserted by
//! `tests/forwarding_determinism.rs`.
//!
//! What the split does not buy is speed. A MAC check is six dependent
//! mixing rounds, ~13 ns (`proto.hopfield_verify_ns`), and one pool
//! hand-off is 34–96 µs (`simulator.pool_batch_us`): `scion-bench fwd`
//! reads the batched arm below the scalar one in every run
//! (EXPERIMENTS.md, "Forwarding"). Whether the arm stays is ROADMAP's
//! worker-pool item to decide.

use std::time::Instant;

use scion_proto::hopfield::HopField;
use scion_proto::pcb::forwarding_key;
use scion_simulator::exec::WorkerPool;
use scion_telemetry::{phase, Profiler, Telemetry};
use scion_types::{IfId, IsdAsn, SimTime};

use crate::packet::Packet;
use crate::router::{forward_instrumented, ForwardAction, ForwardError};

/// One scheduled border-router visit: packet `packet` (an index into the
/// batch slice) is processed at `local_as` having arrived via
/// `arrival_if`. `node` is the AS's dense topology index for telemetry
/// labels.
#[derive(Clone, Copy, Debug)]
pub struct BatchStep {
    /// Index of the packet in the batch slice.
    pub packet: usize,
    /// The AS whose border router processes this step.
    pub local_as: IsdAsn,
    /// Dense topology index of `local_as`.
    pub node: u32,
    /// Arrival interface ([`IfId::NONE`] at the source AS).
    pub arrival_if: IfId,
}

/// Minimum steps per shard chunk. At ~13 ns per MAC check a chunk of 32 is
/// ~0.4 µs of work, a hundredth of what handing it to a worker costs; the
/// floor bounds the number of chunks, it does not make one worth shipping.
const MIN_CHUNK: usize = 32;

/// Processes `steps` against `packets`, verifying hop-field MACs in
/// parallel across `pool` and then applying the forwarding pipeline
/// serially in input order. Returns `(packet index, outcome)` per step,
/// in step order.
///
/// Steps must reference distinct packets (or, more precisely, the MAC of
/// each step's *current* hop is read before any pipeline side effects run,
/// so two steps for one packet would verify the same hop twice).
pub fn forward_batch(
    packets: &mut [Packet],
    steps: &[BatchStep],
    now: SimTime,
    pool: &WorkerPool,
    tel: &mut Telemetry,
) -> Vec<(usize, Result<ForwardAction, ForwardError>)> {
    // Snapshot the (key, hop field) pairs the shards need; a step whose
    // pipeline would fail before the MAC check (pointer exhausted, wrong
    // AS) gets no precomputed result and falls back to the scalar path.
    let jobs: Vec<Option<(u64, HopField)>> = steps
        .iter()
        .map(|s| {
            packets[s.packet]
                .path
                .current_hop()
                .filter(|&&(owner, _)| owner == s.local_as)
                .map(|&(owner, hf)| (forwarding_key(owner), hf))
        })
        .collect();

    let timed = tel.profile.is_enabled();
    let chunk_size = (steps.len() / (pool.threads() * 4).max(1)).max(MIN_CHUNK);
    let chunks: Vec<Vec<Option<(u64, HopField)>>> =
        jobs.chunks(chunk_size).map(<[_]>::to_vec).collect();

    let shard_start = timed.then(Instant::now);
    let sharded: Vec<(Vec<Option<bool>>, Profiler)> = pool.run_ordered(chunks, |_, chunk| {
        let mut profile = if timed {
            Profiler::enabled()
        } else {
            Profiler::disabled()
        };
        let verdicts = chunk
            .into_iter()
            .map(|job| {
                job.map(|(key, hf)| {
                    let span = profile.hot_span(phase::FWD_VERIFY);
                    let ok = hf.verify(key);
                    profile.finish(span);
                    ok
                })
            })
            .collect();
        (verdicts, profile)
    });
    if let Some(t0) = shard_start {
        let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        tel.profile.record_ns(phase::FWD_BATCH_SHARD, ns);
    }

    let mut verdicts = Vec::with_capacity(steps.len());
    for (chunk_verdicts, shard_profile) in sharded {
        verdicts.extend(chunk_verdicts);
        tel.profile.absorb(&shard_profile);
    }

    let merge_start = timed.then(Instant::now);
    let results = steps
        .iter()
        .zip(verdicts)
        .map(|(s, mac_ok)| {
            let outcome = forward_instrumented(
                &mut packets[s.packet],
                s.local_as,
                s.node,
                s.arrival_if,
                now,
                mac_ok,
                tel,
            );
            (s.packet, outcome)
        })
        .collect();
    if let Some(t0) = merge_start {
        let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        tel.profile.record_ns(phase::FWD_BATCH_MERGE, ns);
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use scion_proto::combine::EndToEndPath;
    use scion_telemetry::{ids, Label, TelemetryConfig};
    use scion_types::{Asn, Duration, Isd};

    fn ia(asn: u64) -> IsdAsn {
        IsdAsn::new(Isd(1), Asn::from_u64(asn))
    }

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + Duration::from_secs(secs)
    }

    fn path() -> EndToEndPath {
        EndToEndPath {
            hops: vec![
                (ia(1), IfId::NONE, IfId(1)),
                (ia(2), IfId(3), IfId(4)),
                (ia(3), IfId(5), IfId::NONE),
            ],
        }
    }

    fn source_steps(n: usize) -> Vec<BatchStep> {
        (0..n)
            .map(|i| BatchStep {
                packet: i,
                local_as: ia(1),
                node: 0,
                arrival_if: IfId::NONE,
            })
            .collect()
    }

    #[test]
    fn batch_matches_scalar_results_and_telemetry() {
        let n = 100;
        let pool = WorkerPool::new(2);
        let mut batched: Vec<Packet> = (0..n).map(|_| Packet::along(&path(), t(100), 64)).collect();
        let mut scalar = batched.clone();
        // Tamper a few packets so both success and drop paths are covered.
        for pkts in [&mut batched, &mut scalar] {
            for i in (0..n).step_by(7) {
                pkts[i].path.hops[0].1.egress = IfId(9);
            }
        }

        let mut tel_b = Telemetry::new(TelemetryConfig::default());
        let mut tel_s = Telemetry::new(TelemetryConfig::default());
        let steps = source_steps(n);
        let rb = forward_batch(&mut batched, &steps, t(1), &pool, &mut tel_b);
        let rs: Vec<(usize, Result<ForwardAction, ForwardError>)> = steps
            .iter()
            .map(|s| {
                let r = forward_instrumented(
                    &mut scalar[s.packet],
                    s.local_as,
                    s.node,
                    s.arrival_if,
                    t(1),
                    None,
                    &mut tel_s,
                );
                (s.packet, r)
            })
            .collect();

        assert_eq!(rb, rs);
        assert_eq!(batched, scalar, "advanced pointers must agree");
        let counters = |tel: &Telemetry| {
            tel.metrics
                .counters()
                .map(|(i, l, v)| format!("{i}/{l:?}/{v}"))
                .collect::<Vec<_>>()
        };
        assert_eq!(counters(&tel_b), counters(&tel_s));
        let traces = |tel: &Telemetry| {
            tel.traces
                .records()
                .map(|r| format!("{:?}", r.event))
                .collect::<Vec<_>>()
        };
        assert_eq!(traces(&tel_b), traces(&tel_s));
    }

    #[test]
    fn batch_records_shard_and_merge_phases() {
        let n = 64;
        let pool = WorkerPool::new(2);
        let mut pkts: Vec<Packet> = (0..n).map(|_| Packet::along(&path(), t(100), 64)).collect();
        let mut tel = Telemetry::new(TelemetryConfig::default());
        let steps = source_steps(n);
        forward_batch(&mut pkts, &steps, t(1), &pool, &mut tel);

        assert!(tel.profile.stats(phase::FWD_BATCH_SHARD).is_some());
        assert!(tel.profile.stats(phase::FWD_BATCH_MERGE).is_some());
        // Shard-side verify spans were absorbed: one call per step, the
        // timed subset in the latency histogram.
        let verify = tel.profile.stats(phase::FWD_VERIFY).unwrap();
        assert_eq!(verify.calls, n as u64);
        assert!((1..verify.calls).contains(&verify.timed));
        assert_eq!(
            tel.profile.latency(phase::FWD_VERIFY).unwrap().count(),
            verify.timed
        );
        let verified: u64 = tel
            .metrics
            .counters()
            .filter(|(i, _, _)| *i == ids::FWD_MACS_VERIFIED)
            .map(|(_, _, v)| v)
            .sum();
        assert_eq!(verified, n as u64);
        let forwarded = tel
            .metrics
            .counters()
            .find(|(i, l, _)| *i == ids::FWD_FORWARDED && *l == Label::As(0))
            .map(|(_, _, v)| v);
        assert_eq!(forwarded, Some(n as u64));
    }

    #[test]
    fn exhausted_steps_fall_back_to_scalar_error_path() {
        let pool = WorkerPool::new(1);
        let mut pkts = vec![Packet::along(&path(), t(100), 64)];
        pkts[0].path.current = 3; // past the end
        let mut tel = Telemetry::new(TelemetryConfig::default());
        let steps = source_steps(1);
        let r = forward_batch(&mut pkts, &steps, t(1), &pool, &mut tel);
        assert_eq!(r, vec![(0, Err(ForwardError::PathExhausted))]);
    }
}
