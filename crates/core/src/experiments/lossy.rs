//! Control-plane robustness under stochastic message loss (ours;
//! motivated by §4.2's failure-resilience objective).
//!
//! Two legs:
//!
//! 1. **Loss sweep** — diversity beaconing runs across a sweep of
//!    per-message loss probabilities (default 0 / 0.1% / 1% / 5% / 20%),
//!    each rate twice: over the reliable channel (ack + timeout-driven
//!    retransmit) and as a no-retry control. The diversity algorithm
//!    suppresses redundant resends, so a lost beacon stays lost without
//!    transport-level retry — the sweep measures how much availability
//!    the reliable channel buys back and what message/byte overhead it
//!    costs, relative to the zero-loss point of the same arm.
//! 2. **Degradation leg** — a deterministic star scenario driving the
//!    path-server robustness machinery end to end: segment registration
//!    acked by the core path server over the reliable channel (lost acks
//!    → retransmits → receiver-side duplicate suppression), lookups with
//!    timeout and bounded retry, degraded serving of recently-expired
//!    cached segments, and the negative cache short-circuiting repeat
//!    lookups of an unreachable destination.

use serde::Serialize;

use scion_beaconing::{
    run_beaconing, Algorithm, BeaconingRun, ChaosConfig, DiversityParams, LossReport, LossyConfig,
};
use scion_chaos::FaultSchedule;
use scion_crypto::trc::TrustStore;
use scion_pathserver::{PathServer, Resolution, Resolver, ResolverConfig, RetryAction};
use scion_proto::pcb::Pcb;
use scion_proto::segment::{PathSegment, SegmentType};
use scion_reliable::{DedupReceiver, MsgId, ReliableConfig, ReliableSender, TimeoutAction};
use scion_simulator::{LossModel, Transmission};
use scion_telemetry::{ids, Label, Telemetry};
use scion_topology::{AsTopology, LinkIndex, Relationship};
use scion_types::{Asn, Duration, IfId, Isd, IsdAsn, SimTime};

use crate::experiments::fig6::sample_pairs;
use crate::experiments::RunCtx;

/// The default sweep: per-message loss probability of every link.
pub const LOSS_RATES: [f64; 5] = [0.0, 0.001, 0.01, 0.05, 0.20];

/// Telemetry run labels per sweep position (clamped for longer custom
/// sweeps, whose tail points then share the last label).
const REL_LABELS: [&str; 8] = [
    "reliable_l0",
    "reliable_l1",
    "reliable_l2",
    "reliable_l3",
    "reliable_l4",
    "reliable_l5",
    "reliable_l6",
    "reliable_l7",
];
const CTL_LABELS: [&str; 8] = [
    "noretry_l0",
    "noretry_l1",
    "noretry_l2",
    "noretry_l3",
    "noretry_l4",
    "noretry_l5",
    "noretry_l6",
    "noretry_l7",
];

/// One beaconing arm (reliable or no-retry) at one loss rate.
#[derive(Clone, Debug, Serialize)]
pub struct LossArm {
    pub name: String,
    /// Live-pair fraction over virtual time, as `(t_us, fraction)`.
    pub curve: Vec<(u64, f64)>,
    /// Live-pair fraction at the last probe: the availability the arm
    /// settles at.
    pub final_fraction: f64,
    /// First probe instant reaching 99% of this arm's baseline (first
    /// sweep point) final fraction; `None` when never reached.
    pub convergence_us: Option<u64>,
    /// Control-plane messages sent (beacons + acks).
    pub messages: u64,
    /// Control-plane bytes sent.
    pub bytes: u64,
    /// `messages` relative to the same arm at the baseline point.
    pub message_overhead: f64,
    /// `bytes` relative to the same arm at the baseline point.
    pub byte_overhead: f64,
    /// Wire-level loss/retransmission accounting of the run.
    pub loss: LossReport,
}

/// Both arms at one loss rate.
#[derive(Clone, Debug, Serialize)]
pub struct LossPoint {
    /// Per-message loss probability of this sweep point.
    pub loss: f64,
    pub reliable: LossArm,
    pub no_retry: LossArm,
}

/// Deterministic counters of the degradation leg.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct DegradationStats {
    /// Segments offered for registration at the core path server.
    pub registrations_offered: u64,
    /// Segments the core server stored (deduplicated).
    pub registrations_stored: u64,
    /// Registrations settled by an ack.
    pub registrations_acked: u64,
    /// Registration retransmissions issued on timeout.
    pub registration_retransmits: u64,
    /// Duplicate registration copies suppressed at the receiver.
    pub registration_duplicates: u64,
    /// Registrations abandoned after the attempt budget.
    pub registrations_abandoned: u64,
    /// Lookups launched by the local path server.
    pub lookups_started: u64,
    /// Lookup attempts retried on timeout.
    pub lookup_retries: u64,
    /// Lookups settled by an upstream response.
    pub lookups_resolved: u64,
    /// Lookups that exhausted their attempt budget.
    pub lookups_exhausted: u64,
    /// Exhausted lookups served from recently-expired cache, degraded.
    pub degraded_serves: u64,
    /// Exhausted lookups with nothing cached: negative-cached.
    pub unreachable_verdicts: u64,
    /// Follow-up lookups short-circuited by a negative verdict.
    pub negative_hits: u64,
}

/// Everything the lossy experiment measures.
#[derive(Clone, Debug, Serialize)]
pub struct LossyResult {
    pub seed: u64,
    /// Probed AS pairs per beaconing run.
    pub pairs: usize,
    /// One entry per sweep rate, in input order.
    pub points: Vec<LossPoint>,
    pub degradation: DegradationStats,
}

/// Runs the sweep over `ctx.loss_rates` (default [`LOSS_RATES`]; the
/// harness binary's `--loss` flag) on the context's world. Overheads and
/// convergence are measured relative to the *first* sweep point, so custom
/// sweeps should lead with their cleanest rate (the default sweep leads
/// with zero loss). The beaconing runs are sharded over `ctx.threads`
/// workers (every output is identical for every count).
pub fn run(ctx: &mut RunCtx) -> LossyResult {
    let world = ctx.world();
    let params = world.params;
    let seed = params.seed;
    let threads = ctx.threads;
    let rates = ctx.loss_rates.clone();
    let mut handle = ctx.telemetry();
    let tel = &mut handle;
    let topo = &world.core;
    let sim = params.sim_duration;
    let pairs = sample_pairs(topo, params.quality_pairs, seed);
    let schedule = FaultSchedule::new();
    let cfg = params.beaconing_config(Algorithm::Diversity(DiversityParams::default()));

    struct Raw {
        curve: Vec<(u64, f64)>,
        final_fraction: f64,
        messages: u64,
        bytes: u64,
        report: LossReport,
    }
    let mut raw: Vec<[Raw; 2]> = Vec::with_capacity(rates.len());
    for (i, &rate) in rates.iter().enumerate() {
        let label_ix = i.min(REL_LABELS.len() - 1);
        let mut arms = Vec::with_capacity(2);
        for reliable_arm in [true, false] {
            tel.begin_run(if reliable_arm {
                REL_LABELS[label_ix]
            } else {
                CTL_LABELS[label_ix]
            });
            let lossy = if reliable_arm {
                LossyConfig::reliable(rate)
            } else {
                LossyConfig::unreliable(rate)
            };
            let run = BeaconingRun {
                threads,
                chaos: Some(ChaosConfig {
                    schedule: &schedule,
                    probe_pairs: &pairs,
                    probe_cadence: params.interval,
                }),
                lossy: Some(lossy),
                ..BeaconingRun::core(sim, seed)
            };
            let rep = run_beaconing(topo, &cfg, &run, tel);
            let total = rep.outcome.traffic.grand_total();
            let curve: Vec<(u64, f64)> = rep
                .chaos
                .probes
                .iter()
                .map(|p| (p.t.as_micros(), p.fraction()))
                .collect();
            arms.push(Raw {
                final_fraction: curve.last().map_or(1.0, |&(_, f)| f),
                curve,
                messages: total.messages,
                bytes: total.bytes,
                report: rep.loss,
            });
        }
        let Ok(pair) = <[Raw; 2]>::try_from(arms) else {
            unreachable!("exactly two arms per rate");
        };
        raw.push(pair);
    }

    // Baselines per arm: the first sweep point.
    let base: Vec<(f64, u64, u64)> = match raw.first() {
        Some(first) => first
            .iter()
            .map(|r| (r.final_fraction, r.messages, r.bytes))
            .collect(),
        None => vec![(1.0, 0, 0); 2],
    };
    let ratio = |x: u64, b: u64| {
        if b == 0 {
            1.0
        } else {
            x as f64 / b as f64
        }
    };
    let points = raw
        .into_iter()
        .zip(&rates)
        .map(|(arms, &rate)| {
            let [rel, ctl] = arms;
            let make = |r: Raw, name: &str, (base_frac, base_msgs, base_bytes): (f64, u64, u64)| {
                let target = 0.99 * base_frac;
                LossArm {
                    name: name.to_string(),
                    convergence_us: r.curve.iter().find(|&&(_, f)| f >= target).map(|&(t, _)| t),
                    final_fraction: r.final_fraction,
                    message_overhead: ratio(r.messages, base_msgs),
                    byte_overhead: ratio(r.bytes, base_bytes),
                    curve: r.curve,
                    messages: r.messages,
                    bytes: r.bytes,
                    loss: r.report,
                }
            };
            LossPoint {
                loss: rate,
                reliable: make(rel, "reliable", base[0]),
                no_retry: make(ctl, "no-retry", base[1]),
            }
        })
        .collect();

    tel.begin_run("degradation");
    let degradation = run_degradation_leg(seed, tel);

    ctx.keep("", handle);
    LossyResult {
        seed,
        pairs: pairs.len(),
        points,
        degradation,
    }
}

/// True when a transmission over `link` was delivered by the loss model.
fn delivered(loss: &mut LossModel, link: LinkIndex) -> bool {
    matches!(loss.transmit(link), Transmission::Delivered { .. })
}

/// The degradation leg: a five-AS star whose engineered per-link loss
/// (0.0 or 1.0) makes every counter deterministic.
///
/// Topology: core hub; registrar A whose data link is clean but whose ack
/// path drops everything until it heals after the first retransmit round;
/// registrar B behind a dead link; client C on a clean link; origin D
/// behind a dead link (C holds one of D's segments in cache, now expired
/// but within the stale grace window).
fn run_degradation_leg(seed: u64, tel: &mut Telemetry) -> DegradationStats {
    let ia = |n: u64| IsdAsn::new(Isd(1), Asn::from_u64(n));
    let mut topo = AsTopology::new();
    let hub = topo.add_as(ia(1));
    let a = topo.add_as(ia(2));
    let b = topo.add_as(ia(3));
    let c = topo.add_as(ia(4));
    let d = topo.add_as(ia(5));
    topo.set_core(hub, true);
    let a_data = topo.add_link(hub, a, Relationship::AProviderOfB);
    let a_ack = topo.add_link(hub, a, Relationship::AProviderOfB);
    let b_link = topo.add_link(hub, b, Relationship::AProviderOfB);
    let c_link = topo.add_link(hub, c, Relationship::AProviderOfB);
    let d_link = topo.add_link(hub, d, Relationship::AProviderOfB);

    let mut loss = LossModel::ideal(&topo, seed);
    loss.set_link_loss(a_ack, 1.0);
    loss.set_link_loss(b_link, 1.0);
    loss.set_link_loss(d_link, 1.0);

    let trust = TrustStore::bootstrap(
        (1..=5).map(|n| (ia(n), n == 1)),
        SimTime::ZERO + Duration::from_days(30),
    );
    let down_seg =
        |leaf: IsdAsn, egress: u16, lifetime: Duration| {
            let pcb = Pcb::originate(ia(1), IfId(egress), SimTime::ZERO, lifetime, 0, &trust)
                .extend(leaf, IfId(1), IfId::NONE, vec![], &trust);
            PathSegment::from_terminated_pcb(SegmentType::Down, pcb)
        };

    let mut stats = DegradationStats::default();
    let mut hub_ps = PathServer::new(ia(1), true);
    let mut rel: ReliableSender<(LinkIndex, PathSegment)> = ReliableSender::new(ReliableConfig {
        seed,
        ..ReliableConfig::default()
    });
    let mut dedup = DedupReceiver::new(topo.num_ases());
    let mut now = SimTime::ZERO;

    // One registration copy on the wire: data leg, dedup + store, ack leg.
    let deliver_copy = |id: MsgId,
                        via: LinkIndex,
                        ack_link: LinkIndex,
                        seg: &PathSegment,
                        now: SimTime,
                        loss: &mut LossModel,
                        rel: &mut ReliableSender<(LinkIndex, PathSegment)>,
                        dedup: &mut DedupReceiver,
                        hub_ps: &mut PathServer,
                        stats: &mut DegradationStats| {
        if !delivered(loss, via) {
            return;
        }
        if dedup.accept(hub.as_usize(), id) {
            hub_ps
                .register_down_segment(seg.clone(), now)
                .expect("hub is a core server");
            stats.registrations_stored += 1;
        }
        if delivered(loss, ack_link) && rel.on_ack(id) {
            stats.registrations_acked += 1;
        }
    };

    // A registers three long-lived segments over the flaky-ack pair; B
    // offers two over its dead link.
    let offers: Vec<(LinkIndex, LinkIndex, PathSegment)> = vec![
        (a_data, a_ack, down_seg(ia(2), 10, Duration::from_hours(12))),
        (a_data, a_ack, down_seg(ia(2), 11, Duration::from_hours(12))),
        (a_data, a_ack, down_seg(ia(2), 12, Duration::from_hours(12))),
        (
            b_link,
            b_link,
            down_seg(ia(3), 20, Duration::from_hours(12)),
        ),
        (
            b_link,
            b_link,
            down_seg(ia(3), 21, Duration::from_hours(12)),
        ),
    ];
    for (via, ack_link, seg) in offers {
        stats.registrations_offered += 1;
        let id = rel.register(now, hub, via, (ack_link, seg.clone()));
        deliver_copy(
            id,
            via,
            ack_link,
            &seg,
            now,
            &mut loss,
            &mut rel,
            &mut dedup,
            &mut hub_ps,
            &mut stats,
        );
    }

    // Retransmit pump. The ack path heals before the first retransmit
    // round, so each of A's segments settles on attempt two with exactly
    // one suppressed duplicate; B's exhaust the attempt budget.
    let mut first_round = true;
    while let Some(deadline) = rel.next_deadline() {
        if deadline > now {
            now = deadline;
        }
        if first_round {
            loss.set_link_loss(a_ack, 0.0);
            first_round = false;
        }
        for action in rel.due_actions(now) {
            match action {
                TimeoutAction::Retransmit {
                    id,
                    via,
                    payload: (ack_link, seg),
                    ..
                } => {
                    stats.registration_retransmits += 1;
                    deliver_copy(
                        id,
                        via,
                        ack_link,
                        &seg,
                        now,
                        &mut loss,
                        &mut rel,
                        &mut dedup,
                        &mut hub_ps,
                        &mut stats,
                    );
                }
                TimeoutAction::GiveUp { .. } => stats.registrations_abandoned += 1,
            }
        }
    }
    stats.registration_duplicates = dedup.duplicates();

    // Lookup leg, hours later: C resolves A (fresh via the hub's store),
    // B (hub empty, dead forward leg → unreachable), and D (dead forward
    // leg, but C holds a recently-expired cached segment → degraded).
    let mut local = PathServer::new(ia(4), false);
    local.cache_insert(
        ia(5),
        vec![down_seg(ia(5), 30, Duration::from_hours(6))],
        SimTime::ZERO,
    );
    let mut resolver = Resolver::new(ResolverConfig::default());
    now = SimTime::ZERO + Duration::from_hours(6) + Duration::from_mins(30);

    // One query attempt: C→hub leg, then either the hub's own store
    // answers (response leg back) or the destination's access link must
    // carry the forward fetch.
    let fetch_once = |id: u64,
                      dst: IsdAsn,
                      access: LinkIndex,
                      now: SimTime,
                      loss: &mut LossModel,
                      hub_ps: &PathServer,
                      resolver: &mut Resolver,
                      local: &mut PathServer,
                      stats: &mut DegradationStats| {
        if !delivered(loss, c_link) {
            return;
        }
        let answer = hub_ps.lookup_down(dst, now).expect("hub is a core server");
        if answer.is_empty() {
            let _ = delivered(loss, access);
            return;
        }
        if delivered(loss, c_link) && resolver.on_response(id).is_some() {
            local.cache_insert(dst, answer, now);
            stats.lookups_resolved += 1;
        }
    };
    let access_link = |dst: IsdAsn| {
        if dst == ia(2) {
            a_data
        } else if dst == ia(3) {
            b_link
        } else {
            d_link
        }
    };

    for dst in [ia(2), ia(3), ia(5)] {
        if local.negative_cached(dst, now) {
            stats.negative_hits += 1;
            continue;
        }
        stats.lookups_started += 1;
        let id = resolver.begin(now, dst);
        fetch_once(
            id,
            dst,
            access_link(dst),
            now,
            &mut loss,
            &hub_ps,
            &mut resolver,
            &mut local,
            &mut stats,
        );
    }
    while let Some(deadline) = resolver.next_deadline() {
        if deadline > now {
            now = deadline;
        }
        for action in resolver.due_actions(now) {
            match action {
                RetryAction::Retry { id, dst, .. } => {
                    stats.lookup_retries += 1;
                    fetch_once(
                        id,
                        dst,
                        access_link(dst),
                        now,
                        &mut loss,
                        &hub_ps,
                        &mut resolver,
                        &mut local,
                        &mut stats,
                    );
                }
                RetryAction::Exhausted { dst, .. } => {
                    stats.lookups_exhausted += 1;
                    match resolver.degrade(&mut local, dst, now) {
                        Resolution::Degraded(_) => stats.degraded_serves += 1,
                        Resolution::Unreachable => stats.unreachable_verdicts += 1,
                        Resolution::Fresh(_) => {}
                    }
                }
            }
        }
    }
    // A follow-up lookup for B short-circuits on the negative verdict
    // instead of relaunching the retry storm.
    if local.negative_cached(ia(3), now) {
        stats.negative_hits += 1;
    }

    tel.inc(
        ids::RELIABLE_RETRANSMITS,
        Label::Global,
        stats.registration_retransmits,
    );
    tel.inc(
        ids::RELIABLE_DUPLICATES,
        Label::Global,
        stats.registration_duplicates,
    );
    tel.inc(
        ids::RELIABLE_GIVE_UPS,
        Label::Global,
        stats.registrations_abandoned,
    );
    tel.inc(
        ids::PS_DEGRADED_SERVES,
        Label::Global,
        stats.degraded_serves,
    );
    tel.inc(ids::PS_NEGATIVE_HITS, Label::Global, stats.negative_hits);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::ExperimentScale;

    #[test]
    fn lossy_sweep_meets_acceptance_at_tiny_scale() {
        let rates = [0.0, 0.05, 0.20];
        let r = run(&mut RunCtx {
            loss_rates: rates.to_vec(),
            ..RunCtx::new(ExperimentScale::Tiny).with_seed(9)
        });
        assert_eq!(r.points.len(), rates.len());
        assert!(r.pairs > 0);

        // Zero loss: nothing dropped, the reliable channel stays quiet
        // (500 ms base timeout exceeds the worst-case RTT) but still acks.
        let base = &r.points[0];
        assert_eq!(base.loss, 0.0);
        assert_eq!(base.reliable.loss.messages_lost, 0);
        assert_eq!(base.reliable.loss.retransmits, 0);
        assert!(base.reliable.loss.acks_sent > 0);
        assert_eq!(base.no_retry.loss.acks_sent, 0);

        // Acceptance: at 5% loss the reliable arm holds ≥ 95% of its
        // zero-loss availability.
        let p5 = &r.points[1];
        assert!(
            p5.reliable.final_fraction >= 0.95 * base.reliable.final_fraction,
            "reliable arm at 5% loss: {} vs zero-loss {}",
            p5.reliable.final_fraction,
            base.reliable.final_fraction
        );
        assert!(p5.reliable.loss.messages_lost > 0);
        assert!(p5.reliable.loss.retransmits > 0);

        // The control never retransmits or acks, and at 20% loss it
        // cannot beat the reliable arm.
        let p20 = &r.points[2];
        assert_eq!(p20.no_retry.loss.retransmits, 0);
        assert_eq!(p20.no_retry.loss.acks_sent, 0);
        assert!(p20.no_retry.loss.messages_lost > 0);
        assert!(p20.no_retry.final_fraction <= p20.reliable.final_fraction);
    }

    #[test]
    fn degradation_leg_counts_are_exact() {
        let d = run_degradation_leg(3, &mut Telemetry::disabled());
        // Registrations: A's three settle on attempt two (one retransmit,
        // one duplicate each); B's two burn five retransmits each and
        // give up.
        assert_eq!(d.registrations_offered, 5);
        assert_eq!(d.registrations_stored, 3);
        assert_eq!(d.registrations_acked, 3);
        assert_eq!(d.registration_retransmits, 3 + 2 * 5);
        assert_eq!(d.registration_duplicates, 3);
        assert_eq!(d.registrations_abandoned, 2);
        // Lookups: A fresh; B and D exhaust after two retries each — D
        // degrades onto its stale cache entry, B goes negative and the
        // follow-up lookup short-circuits.
        assert_eq!(d.lookups_started, 3);
        assert_eq!(d.lookup_retries, 2 * 2);
        assert_eq!(d.lookups_resolved, 1);
        assert_eq!(d.lookups_exhausted, 2);
        assert_eq!(d.degraded_serves, 1);
        assert_eq!(d.unreachable_verdicts, 1);
        assert_eq!(d.negative_hits, 1);
    }

    #[test]
    fn degradation_leg_is_deterministic_across_seeds_structure() {
        // Engineered 0.0/1.0 loss makes the counters seed-independent.
        let a = run_degradation_leg(3, &mut Telemetry::disabled());
        let b = run_degradation_leg(99, &mut Telemetry::disabled());
        assert_eq!(a, b);
    }
}
