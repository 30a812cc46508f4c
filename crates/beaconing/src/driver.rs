//! The beaconing simulation driver: core and intra-ISD beaconing on the
//! discrete-event engine, as one deterministic windowed loop.
//!
//! * **Core beaconing** (§2.2): every core AS runs a beacon server over the
//!   links whose both endpoints are core, originating beacons and
//!   selectively propagating received ones to all neighboring core ASes.
//! * **Intra-ISD beaconing** (§2.2): core ASes originate toward their
//!   customers; non-core ASes propagate received beacons to *their*
//!   customers only — uni-directional policy-constrained flooding down the
//!   provider→customer hierarchy.
//!
//! Beacon-server interval timers are staggered across the interval (real
//! deployments are not phase-locked), which also bounds the number of
//! in-flight messages at any virtual instant.
//!
//! [`run_beaconing`] is the only event loop. What varies between runs —
//! scope, warm-up, fault plane, loss plane — is data in [`BeaconingRun`].
//! It pops one event at a time in `(time, seq)` order and handles it in
//! place: a tick runs the AS's beacon server
//! ([`BeaconServer::run_interval_telemetry`]) and puts the sends on the
//! wire in egress-link order, a delivery hands the beacon to its receiver
//! ([`BeaconServer::handle_beacon_telemetry`]), and the sampler, fault,
//! probe and retransmit timers touch the global state they name. The
//! arrivals an event produces enter the queue after it, in one
//! [`Engine::send_batch`]. Verification and selection draw no randomness;
//! the stochastic planes (loss coins, jitter) draw from one seeded stream
//! in event order.
//!
//! Per-AS work is not handed to worker threads: a span of virtual time
//! that no message can cross holds 1.3 distinct ASes on average at the
//! `tiny` and `small` scales, so there is almost never a second task for
//! a second worker (EXPERIMENTS.md, "Why the beaconing driver is serial").

use scion_crypto::trc::TrustStore;
use scion_proto::pcb::Pcb;
use scion_proto::wire;
use scion_reliable::{DedupReceiver, MsgId, ReliableConfig, ReliableSender, TimeoutAction};
use scion_simulator::{
    fault, Engine, Event, FaultSchedule, InterfaceTraffic, LatencyModel, LinkFault, LinkState,
    LossModel, Transmission,
};
use scion_telemetry::{ids, phase, Label, Telemetry, TraceEvent};
use scion_topology::{AsIndex, AsTopology, LinkIndex};
use scion_types::{Duration, IfId, SimTime};
use serde::Serialize;

use crate::config::BeaconingConfig;
use crate::paths::known_paths;
use crate::server::{egress_refs, BeaconServer, EgressRef};

/// Timer kind of the per-AS beaconing interval tick.
const KIND_TICK: u32 = 0;
/// Timer kind of the telemetry sampler (scheduled only when telemetry is
/// enabled; fires on `TelemetryConfig::sample_cadence`).
const KIND_SAMPLE: u32 = 1;
/// Timer kind of a fault-schedule firing (chaos runs only).
const KIND_FAULT: u32 = 2;
/// Timer kind of the reachability probe (chaos runs only).
const KIND_PROBE: u32 = 3;
/// Timer kind of the reliable-channel retransmit wake-up (lossy runs with
/// reliability only). Spurious firings are harmless: the channel returns
/// no actions when nothing is due.
const KIND_RETX: u32 = 4;

/// Which beaconing process a run simulates: who participates, on which
/// links, and who originates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Core beaconing on the core sub-multigraph of the topology.
    Core,
    /// Intra-ISD beaconing: origination at core ASes, propagation along
    /// provider→customer links only.
    IntraIsd,
}

/// Everything that distinguishes one beaconing run from another, beyond
/// the topology and the [`BeaconingConfig`].
#[derive(Clone, Copy)]
pub struct BeaconingRun<'a> {
    /// Core or intra-ISD beaconing.
    pub scope: Scope,
    /// Traffic (and delivery counters) are recorded only after `warmup` —
    /// the steady-state measurement used when extrapolating a window to a
    /// month (the cold-start exploration burst of the diversity algorithm
    /// happens once per deployment, not once per window, so including it
    /// in a per-window rate would overstate monthly overhead for every
    /// algorithm with warm-up behaviour).
    pub warmup: Duration,
    /// Measured duration, following the warm-up.
    pub window: Duration,
    /// Seed of link latencies, loss coins and retransmit jitter.
    pub seed: u64,
    /// Fault plane: sends on downed links are suppressed, in-flight
    /// messages on a link that fails are cancelled, deliveries over downed
    /// links are dropped and counted, and `probe_pairs` are probed for
    /// live-path reachability. A config with an empty schedule is the
    /// idiomatic way to get reachability probes on a fault-free run.
    pub chaos: Option<ChaosConfig<'a>>,
    /// Loss plane: every transmission is subject to a per-message loss
    /// probability and latency jitter and — when `reliable` is set — rides
    /// the reliable channel. Composes with `chaos`: faults make links
    /// unusable outright, the loss model drops individual messages on
    /// usable links.
    pub lossy: Option<LossyConfig>,
}

impl<'a> BeaconingRun<'a> {
    /// A plain core-beaconing run of `window`: no warm-up, no faults, no
    /// loss.
    pub fn core(window: Duration, seed: u64) -> BeaconingRun<'a> {
        BeaconingRun {
            scope: Scope::Core,
            warmup: Duration::ZERO,
            window,
            seed,
            chaos: None,
            lossy: None,
        }
    }

    /// A plain intra-ISD beaconing run; see [`BeaconingRun::core`].
    pub fn intra_isd(window: Duration, seed: u64) -> BeaconingRun<'a> {
        BeaconingRun {
            scope: Scope::IntraIsd,
            ..BeaconingRun::core(window, seed)
        }
    }
}

/// Fault-injection configuration for a chaos-aware beaconing run: the
/// fault trace to replay and the AS pairs whose reachability to probe.
#[derive(Clone, Copy)]
pub struct ChaosConfig<'a> {
    /// Virtual-time fault trace, applied as the run crosses each event time.
    pub schedule: &'a FaultSchedule,
    /// `(origin, holder)` pairs probed for liveness: a pair is *live* when
    /// the holder's beacon store contains at least one unexpired path from
    /// the origin whose links are all currently usable.
    pub probe_pairs: &'a [(AsIndex, AsIndex)],
    /// Virtual-time cadence of the reachability probe.
    pub probe_cadence: Duration,
}

/// One reachability probe sample.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct ReachProbe {
    /// Probe instant.
    pub t: SimTime,
    /// Probed pairs with at least one live path.
    pub live_pairs: u64,
    /// Total probed pairs.
    pub total_pairs: u64,
}

impl ReachProbe {
    /// Live fraction in `[0, 1]` (1.0 for an empty probe set).
    pub fn fraction(&self) -> f64 {
        if self.total_pairs == 0 {
            1.0
        } else {
            self.live_pairs as f64 / self.total_pairs as f64
        }
    }
}

/// What happened on the fault plane during a chaos-aware run.
#[derive(Clone, Debug, Default, Serialize)]
pub struct ChaosReport {
    /// Reachability probe samples, in time order.
    pub probes: Vec<ReachProbe>,
    /// Deliveries dropped because their link was already down at arrival.
    pub drops_on_down_link: u64,
    /// In-flight messages cancelled when their link failed mid-flight.
    pub cancelled_in_flight: u64,
    /// State-changing fault events applied.
    pub fault_events_applied: u64,
    /// Sends suppressed because the egress link was down at send time.
    pub sends_suppressed: u64,
}

impl ChaosReport {
    /// The probe curve as `(time, live fraction)` points.
    pub fn fraction_curve(&self) -> Vec<(SimTime, f64)> {
        self.probes.iter().map(|p| (p.t, p.fraction())).collect()
    }
}

/// Stochastic-loss configuration for a lossy beaconing run.
///
/// Composes with the fault plane ([`ChaosConfig`]): faults make a link
/// unusable outright, the loss model drops individual messages on usable
/// links. With `reliable` set, every beacon send goes through the
/// reliable channel — acked by the receiver, retransmitted on timeout,
/// duplicates suppressed before application delivery.
#[derive(Clone, Copy, Debug)]
pub struct LossyConfig {
    /// Per-message loss probability, uniform across links.
    pub loss: f64,
    /// Upper bound of the uniform per-message latency jitter.
    pub jitter_max: Duration,
    /// Retransmit tuning; `None` runs the no-retry control (fire and
    /// forget).
    pub reliable: Option<ReliableConfig>,
}

impl LossyConfig {
    /// The no-retry control arm at the given loss rate.
    pub fn unreliable(loss: f64) -> LossyConfig {
        LossyConfig {
            loss,
            jitter_max: Duration::from_millis(10),
            reliable: None,
        }
    }

    /// Reliable delivery with default retransmit tuning at the given loss
    /// rate.
    pub fn reliable(loss: f64) -> LossyConfig {
        LossyConfig {
            reliable: Some(ReliableConfig::default()),
            ..LossyConfig::unreliable(loss)
        }
    }
}

/// What happened on the loss plane (and the reliable channel, when
/// enabled) during a lossy run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct LossReport {
    /// Physical transmission attempts that drew a loss coin (data + acks;
    /// excludes sends suppressed by a downed link).
    pub transmissions: u64,
    /// Transmissions the loss model dropped on the wire.
    pub messages_lost: u64,
    /// Retransmissions issued by the reliable channel.
    pub retransmits: u64,
    /// Retransmit deadlines that fired with the message still unacked.
    pub timeouts: u64,
    /// Messages abandoned after `max_attempts`.
    pub give_ups: u64,
    /// Acks put on the wire by receivers.
    pub acks_sent: u64,
    /// Acks that reached the sender and settled a pending message.
    pub acks_received: u64,
    /// Redundant deliveries suppressed before the beacon server saw them.
    pub duplicates_suppressed: u64,
    /// Wire bytes spent on acks (already included in the outcome's
    /// traffic totals; broken out here for overhead accounting).
    pub ack_bytes: u64,
    /// Messages still awaiting an ack when the run ended.
    pub unacked_at_end: u64,
}

/// Results of a beaconing run.
pub struct BeaconingOutcome {
    /// Per-interface sent-traffic counters.
    pub traffic: InterfaceTraffic,
    /// The beacon servers in their final state, indexed by [`AsIndex`]
    /// (absent for ASes that did not participate).
    pub servers: Vec<Option<BeaconServer>>,
    /// Simulated duration.
    pub sim_duration: Duration,
    /// Total beacons delivered.
    pub beacons_delivered: u64,
    /// Engine events processed over the whole run (timers + deliveries,
    /// including warmup) — the denominator of events-per-second throughput.
    pub events_processed: u64,
}

impl BeaconingOutcome {
    /// The server of `idx`, if it participated.
    pub fn server(&self, idx: AsIndex) -> Option<&BeaconServer> {
        self.servers.get(idx.as_usize()).and_then(Option::as_ref)
    }

    /// Total bytes sent network-wide.
    pub fn total_bytes(&self) -> u64 {
        self.traffic.grand_total().bytes
    }
}

/// Everything [`run_beaconing`] reports. `chaos` and `loss` stay at their
/// defaults when the run had no such plane.
pub struct BeaconingReport {
    /// Traffic, final server state and event counts.
    pub outcome: BeaconingOutcome,
    /// What happened on the fault plane.
    pub chaos: ChaosReport,
    /// What happened on the loss plane and the reliable channel.
    pub loss: LossReport,
}

/// What the reliable channel needs to replay a beacon send: the hop it
/// crossed and the beacon. A beacon's AS entries are immutable and
/// shared, so the copy kept for retransmission — and every retransmitted
/// copy — clones pointers, never the signed path (AS entries, signatures,
/// peer hops).
#[derive(Clone)]
struct ReliablePayload {
    hop: Hop,
    pcb: Pcb,
}

/// A message on the wire. Plain runs only ever carry
/// `Pcb { id: None, .. }`. The PCB travels by value: its AS entries are
/// immutable and shared with the sender's stored beacon (and, in reliable
/// runs, with the pending-retransmit copy), so the receiver owns its beacon
/// without copying an entry.
#[derive(Clone, Debug)]
enum BeaconMsg {
    Pcb { id: Option<MsgId>, pcb: Pcb },
    Ack { id: MsgId },
}

/// Which links an AS beacons on, whether it originates, and which peering
/// links it advertises in extended beacons (intra-ISD only).
struct Participant {
    egress: Vec<EgressRef>,
    originates: bool,
    peers: Vec<EgressRef>,
}

fn participants(topo: &AsTopology, scope: Scope) -> Vec<Option<Participant>> {
    let egress_where = |idx: AsIndex, keep: &dyn Fn(LinkIndex) -> bool| {
        let links: Vec<LinkIndex> = topo
            .node(idx)
            .links
            .iter()
            .copied()
            .filter(|&li| keep(li))
            .collect();
        egress_refs(topo, idx, &links)
    };
    topo.as_indices()
        .map(|idx| {
            let core = topo.node(idx).core;
            match scope {
                Scope::Core => core.then(|| Participant {
                    egress: egress_where(idx, &|li| {
                        let l = topo.link(li);
                        topo.node(l.a).core && topo.node(l.b).core
                    }),
                    originates: true,
                    peers: Vec::new(),
                }),
                Scope::IntraIsd => Some(Participant {
                    egress: egress_where(idx, &|li| topo.link(li).is_provider_side(idx)),
                    originates: core,
                    // Non-core ASes advertise their peering links in the
                    // beacons they extend (§2.2).
                    peers: if core {
                        Vec::new()
                    } else {
                        egress_where(idx, &|li| topo.link(li).is_peering())
                    },
                }),
            }
        })
        .collect()
}

/// One physical transmission attempt, as the wire sees it.
#[derive(Clone, Copy)]
struct Hop {
    from: AsIndex,
    to: AsIndex,
    via: LinkIndex,
    egress_if: IfId,
    bytes: u64,
}

/// The physical plane every send crosses — tick propagations, acks and
/// retransmits alike: latency, the fault and loss overlays, and the
/// accounting of what entered the wire.
struct Wire {
    record_from: SimTime,
    latency: LatencyModel,
    link_state: Option<LinkState>,
    loss: Option<LossModel>,
    traffic: InterfaceTraffic,
    report: ChaosReport,
    in_flight: u64,
    /// Arrivals produced while handling the current event, inserted into
    /// the engine with one [`Engine::send_batch`] after it.
    outbox: Vec<(SimTime, AsIndex, LinkIndex, BeaconMsg)>,
}

impl Wire {
    /// One transmission departing at `t`, the handled event's time:
    /// suppressed by a downed egress link, dropped by the loss model, or
    /// queued in the outbox with (possibly degraded and jittered) latency.
    /// Returns `true` when the message entered the wire and its bytes were
    /// spent — including messages the loss model then drops — and `false`
    /// when the egress link swallowed the send before it cost anything.
    fn transmit(
        &mut self,
        t: SimTime,
        hop: Hop,
        msg: BeaconMsg,
        count_as_beacon: bool,
        tel: &mut Telemetry,
    ) -> bool {
        // A downed egress link swallows the send: the sender believes it
        // sent, but nothing enters the wire — matching a real border router
        // blackholing toward a dead interface. (Under the reliable channel
        // the message stays pending and is retried once the link is back.)
        if let Some(ls) = &self.link_state {
            if !ls.link_usable(hop.via) {
                self.report.sends_suppressed += 1;
                tel.inc(ids::CHAOS_DELIVERIES_DROPPED, Label::Global, 1);
                return false;
            }
        }
        if t >= self.record_from {
            self.traffic.record_sent(hop.from, hop.egress_if, hop.bytes);
        }
        if count_as_beacon {
            tel.inc(ids::BEACONS_SENT, Label::As(hop.from.0), 1);
            tel.inc(ids::BEACONS_SENT_BYTES, Label::As(hop.from.0), hop.bytes);
        }
        let base_delay = self.latency.delay(hop.via);
        let mut delay = match &self.link_state {
            Some(ls) => ls.degraded_delay(hop.via, base_delay),
            None => base_delay,
        };
        if let Some(loss) = &mut self.loss {
            match loss.transmit(hop.via) {
                // Lost messages still cost their wire bytes (the sender
                // paid for the transmission), they just never arrive.
                Transmission::Lost => {
                    tel.inc(ids::LOSS_MESSAGES_DROPPED, Label::Global, 1);
                    return true;
                }
                Transmission::Delivered { jitter } => delay += jitter,
            }
        }
        self.in_flight += 1;
        self.outbox.push((t + delay, hop.to, hop.via, msg));
        true
    }

    /// Applies every fault of `schedule` due at `now` (from `cursor` on)
    /// and cancels what was in flight on links that just died.
    fn apply_faults(
        &mut self,
        schedule: &FaultSchedule,
        cursor: &mut usize,
        now: SimTime,
        engine: &mut Engine<BeaconMsg>,
        tel: &mut Telemetry,
    ) {
        let ls = self.link_state.as_mut().expect("chaos implies link state");
        for fault in fault::advance(schedule.events(), cursor, ls, now) {
            self.report.fault_events_applied += 1;
            tel.inc(ids::CHAOS_FAULT_EVENTS, Label::Global, 1);
            match fault {
                LinkFault::LinkDown(li) => {
                    tel.trace_event(now, || TraceEvent::LinkDown { link: li.0 });
                }
                LinkFault::LinkUp(li) => {
                    tel.trace_event(now, || TraceEvent::LinkUp { link: li.0 });
                }
                _ => {}
            }
        }
        // Messages already on the wire of a now-dead link are lost.
        let cancelled = engine.cancel_deliveries(|_, via, _| !ls.link_usable(via));
        if cancelled > 0 {
            self.in_flight = self.in_flight.saturating_sub(cancelled);
            self.report.cancelled_in_flight += cancelled;
            tel.inc(ids::CHAOS_INFLIGHT_CANCELLED, Label::Global, cancelled);
        }
        tel.sample(
            now,
            ids::CHAOS_LINKS_DOWN,
            Label::Global,
            ls.links_down() as f64,
        );
    }
}

/// Runs the beaconing process `run` describes on `topo`, recording into
/// `tel` (pass [`Telemetry::disabled`] for none): virtual-time gauge
/// samples (queue depth, in-flight messages, store occupancy,
/// per-interface traffic), PCB lifecycle traces, and wall-clock phase
/// profiles. Two runs with equal arguments produce identical results.
///
/// # Panics
/// Panics if the beaconing interval is zero: the interval ticks would
/// fire forever at one instant.
pub fn run_beaconing(
    topo: &AsTopology,
    cfg: &BeaconingConfig,
    run: &BeaconingRun<'_>,
    tel: &mut Telemetry,
) -> BeaconingReport {
    simulate(
        topo,
        cfg,
        run,
        LatencyModel::default_for(topo, run.seed),
        tel,
    )
}

/// [`run_beaconing`] over the link delays of `latency`.
fn simulate(
    topo: &AsTopology,
    cfg: &BeaconingConfig,
    run: &BeaconingRun<'_>,
    latency: LatencyModel,
    tel: &mut Telemetry,
) -> BeaconingReport {
    assert!(
        cfg.interval > Duration::ZERO,
        "beaconing requires a nonzero interval"
    );
    let participants = participants(topo, run.scope);
    let sim_duration = run.warmup + run.window;
    let trust = TrustStore::bootstrap(
        topo.as_indices()
            .map(|i| (topo.node(i).ia, topo.node(i).core)),
        SimTime::ZERO + sim_duration + cfg.pcb_lifetime + Duration::from_days(1),
    );
    let end = SimTime::ZERO + sim_duration;
    let chaos = run.chaos.as_ref();

    // Loss plane: a seeded stochastic overlay on every physical
    // transmission, plus (optionally) the reliable channel. One global
    // sender models the per-AS channels with a shared monotonic id space —
    // ids stay unique network-wide, and the event order (hence the draw
    // and id order) is deterministic.
    let mut wire = Wire {
        record_from: SimTime::ZERO + run.warmup,
        latency,
        link_state: chaos.map(|_| LinkState::new(topo)),
        loss: run
            .lossy
            .map(|lc| LossModel::uniform(topo, lc.loss, lc.jitter_max, run.seed)),
        traffic: InterfaceTraffic::new(),
        report: ChaosReport::default(),
        in_flight: 0,
        outbox: Vec::new(),
    };
    let mut rel: Option<ReliableSender<ReliablePayload>> =
        run.lossy.and_then(|lc| lc.reliable).map(|mut rc| {
            rc.seed ^= run.seed;
            ReliableSender::new(rc)
        });
    // Message ids each AS has already delivered (reliable runs only: only
    // the reliable channel assigns ids).
    let mut dedup = DedupReceiver::new(if rel.is_some() { topo.num_ases() } else { 0 });
    let mut next_retx_wakeup: Option<SimTime> = None;
    let mut loss_report = LossReport::default();

    let mut servers: Vec<Option<BeaconServer>> = participants
        .iter()
        .enumerate()
        .map(|(i, p)| {
            p.as_ref()
                .map(|_| BeaconServer::new(topo, AsIndex(i as u32), *cfg))
        })
        .collect();
    let mut engine: Engine<BeaconMsg> = Engine::new();
    let mut delivered = 0u64;

    // Stagger initial interval ticks deterministically across the interval.
    let interval_us = cfg.interval.as_micros();
    for (i, p) in participants.iter().enumerate() {
        if p.is_some() {
            let offset = (i as u64).wrapping_mul(104_729) % interval_us;
            engine.schedule_timer(SimTime::from_micros(offset), AsIndex(i as u32), KIND_TICK);
        }
    }
    // The sampler rides the same deterministic event queue as the protocol
    // (a reserved timer kind), so samples land at reproducible instants.
    if tel.is_enabled() {
        engine.schedule_timer(SimTime::ZERO, AsIndex(0), KIND_SAMPLE);
    }
    // Fault plane: fault timers at each distinct event time, probe timer on
    // its own cadence. All on the same deterministic queue.
    let mut fault_cursor = 0usize;
    if let Some(chaos) = chaos {
        for t in chaos.schedule.fire_times() {
            if t < end {
                engine.schedule_timer(t, AsIndex(0), KIND_FAULT);
            }
        }
        if !chaos.probe_cadence.is_zero() {
            engine.schedule_timer(SimTime::ZERO + chaos.probe_cadence, AsIndex(0), KIND_PROBE);
        }
    }

    while let Some((t, ev)) = engine.pop_until(end) {
        match ev {
            Event::Timer {
                node,
                kind: KIND_TICK,
            } => {
                let p = participants[node.as_usize()]
                    .as_ref()
                    .expect("tick only for participants");
                let srv = servers[node.as_usize()]
                    .as_mut()
                    .expect("server exists for participant");
                let sends = srv.run_interval_telemetry(
                    topo,
                    &trust,
                    t,
                    &p.egress,
                    p.originates,
                    &p.peers,
                    tel,
                );
                for prop in sends {
                    // Under the reliable channel every beacon send is
                    // registered *before* the physical attempt, so a send
                    // suppressed by a downed link or dropped by the loss
                    // model is recovered by the retransmit machinery.
                    let hop = Hop {
                        from: node,
                        to: prop.to,
                        via: prop.egress_link,
                        egress_if: prop.egress_if,
                        bytes: prop.bytes,
                    };
                    let id = rel.as_mut().map(|r| {
                        r.register(
                            t,
                            ReliablePayload {
                                hop,
                                pcb: prop.pcb.clone(),
                            },
                        )
                    });
                    wire.transmit(t, hop, BeaconMsg::Pcb { id, pcb: prop.pcb }, true, tel);
                }
                if let Some(r) = &rel {
                    arm_retx(&mut engine, r, &mut next_retx_wakeup);
                }
                engine.schedule_timer(t + cfg.interval, node, KIND_TICK);
            }
            Event::Timer {
                kind: KIND_SAMPLE, ..
            } => {
                sample_gauges(tel, t, &engine, &wire, &servers);
                let next = t + tel.config.sample_cadence;
                engine.schedule_timer(next, AsIndex(0), KIND_SAMPLE);
            }
            Event::Timer {
                kind: KIND_FAULT, ..
            } => {
                let chaos = chaos.expect("fault timer only in chaos runs");
                wire.apply_faults(chaos.schedule, &mut fault_cursor, t, &mut engine, tel);
            }
            Event::Timer {
                kind: KIND_PROBE, ..
            } => {
                let chaos = chaos.expect("probe timer only in chaos runs");
                let ls = wire.link_state.as_ref().expect("chaos implies link state");
                let probe = probe_reachability(topo, &servers, ls, chaos.probe_pairs, t);
                tel.sample(
                    t,
                    ids::CHAOS_LIVE_PAIR_FRACTION,
                    Label::Global,
                    probe.fraction(),
                );
                wire.report.probes.push(probe);
                engine.schedule_timer(t + chaos.probe_cadence, AsIndex(0), KIND_PROBE);
            }
            Event::Timer {
                kind: KIND_RETX, ..
            } => {
                next_retx_wakeup = None;
                if let Some(r) = rel.as_mut() {
                    retransmit_due(r, &mut wire, t, tel);
                    // The retransmissions enter the queue before the next
                    // wake-up is armed.
                    engine.send_batch(wire.outbox.drain(..));
                    arm_retx(&mut engine, r, &mut next_retx_wakeup);
                }
            }
            Event::Timer { kind, .. } => unreachable!("unknown timer kind {kind}"),
            Event::Deliver { to, via, msg } => {
                wire.in_flight = wire.in_flight.saturating_sub(1);
                let link_down = wire
                    .link_state
                    .as_ref()
                    .is_some_and(|ls| !ls.link_usable(via));
                match msg {
                    _ if link_down => {
                        wire.report.drops_on_down_link += 1;
                        tel.inc(ids::CHAOS_DELIVERIES_DROPPED, Label::Global, 1);
                    }
                    BeaconMsg::Ack { id } => {
                        if rel.as_mut().is_some_and(|r| r.on_ack(id)) {
                            tel.inc(ids::RELIABLE_ACKS, Label::Global, 1);
                        }
                    }
                    BeaconMsg::Pcb { id, pcb } => {
                        let mut duplicate = false;
                        if let Some(id) = id {
                            // Ack every copy over the reverse direction of
                            // the same link — the sender must stop
                            // retransmitting even when this delivery is a
                            // duplicate.
                            let (back, local_if, _) = topo.link(via).opposite(to);
                            let ack = Hop {
                                from: to,
                                to: back,
                                via,
                                egress_if: local_if,
                                bytes: wire::RELIABLE_ACK,
                            };
                            if wire.transmit(t, ack, BeaconMsg::Ack { id }, false, tel) {
                                loss_report.acks_sent += 1;
                                loss_report.ack_bytes += wire::RELIABLE_ACK;
                            }
                            duplicate = !dedup.accept(to.as_usize(), id);
                        }
                        if duplicate {
                            tel.inc(ids::RELIABLE_DUPLICATES, Label::Global, 1);
                        } else if let Some(server) = servers[to.as_usize()].as_mut() {
                            if t >= wire.record_from {
                                delivered += 1;
                            }
                            if tel.is_enabled() {
                                tel.inc(ids::BEACONS_DELIVERED, Label::As(to.0), 1);
                                let (node, link) = (to.0, via.0);
                                let (origin, hops) = (pcb.origin, pcb.hop_count() as u32);
                                tel.trace_event(t, || TraceEvent::PcbDelivered {
                                    node,
                                    origin,
                                    link,
                                    hops,
                                });
                            }
                            // Drops (loops, expiry races) are counted by the
                            // server.
                            let _ = server.handle_beacon_telemetry(pcb, via, topo, &trust, t, tel);
                        }
                    }
                }
            }
        }
        engine.send_batch(wire.outbox.drain(..));
    }

    if let Some(l) = &wire.loss {
        loss_report.transmissions = l.transmissions();
        loss_report.messages_lost = l.losses();
    }
    if let Some(r) = &rel {
        let s = r.stats();
        loss_report.retransmits = s.retransmits;
        loss_report.timeouts = s.timeouts;
        loss_report.give_ups = s.give_ups;
        loss_report.acks_received = s.acked;
        loss_report.unacked_at_end = r.pending_len() as u64;
    }
    loss_report.duplicates_suppressed = dedup.duplicates();

    BeaconingReport {
        outcome: BeaconingOutcome {
            traffic: wire.traffic,
            servers,
            sim_duration: run.window,
            beacons_delivered: delivered,
            events_processed: engine.events_processed(),
        },
        chaos: wire.report,
        loss: loss_report,
    }
}

/// [`run_beaconing`] under the name `benchmark/src/adapter.rs` imports;
/// `threads` is ignored, since the driver runs on one thread. A change to
/// the driver may not edit the benchmark that judges it, so the name stays
/// until a later `benchmark` PR re-points the adapter and removes this
/// shim.
pub fn run_core_beaconing_parallel(
    topo: &AsTopology,
    cfg: &BeaconingConfig,
    warmup: Duration,
    window: Duration,
    seed: u64,
    _threads: usize,
    tel: &mut Telemetry,
) -> BeaconingOutcome {
    let run = BeaconingRun {
        warmup,
        ..BeaconingRun::core(window, seed)
    };
    run_beaconing(topo, cfg, &run, tel).outcome
}

/// Intra-ISD twin of [`run_core_beaconing_parallel`], pinned by the
/// benchmark adapter for the same reason and removed with it.
pub fn run_intra_isd_beaconing_parallel(
    topo: &AsTopology,
    cfg: &BeaconingConfig,
    warmup: Duration,
    window: Duration,
    seed: u64,
    _threads: usize,
    tel: &mut Telemetry,
) -> BeaconingOutcome {
    let run = BeaconingRun {
        warmup,
        ..BeaconingRun::intra_isd(window, seed)
    };
    run_beaconing(topo, cfg, &run, tel).outcome
}

/// Retransmits (or abandons) every message whose deadline passed, through
/// the same physical plane as first sends.
fn retransmit_due(
    rel: &mut ReliableSender<ReliablePayload>,
    wire: &mut Wire,
    now: SimTime,
    tel: &mut Telemetry,
) {
    for action in rel.due_actions(now) {
        tel.inc(ids::RELIABLE_TIMEOUTS, Label::Global, 1);
        match action {
            TimeoutAction::Retransmit { id, payload } => {
                tel.inc(ids::RELIABLE_RETRANSMITS, Label::As(payload.hop.from.0), 1);
                let msg = BeaconMsg::Pcb {
                    id: Some(id),
                    pcb: payload.pcb,
                };
                wire.transmit(now, payload.hop, msg, false, tel);
            }
            TimeoutAction::GiveUp { .. } => {
                tel.inc(ids::RELIABLE_GIVE_UPS, Label::Global, 1);
            }
        }
    }
}

/// (Re-)arms the retransmit wake-up timer at the channel's earliest
/// deadline. Keeps at most one *earliest* timer armed; later stale timers
/// fire spuriously and find nothing due.
fn arm_retx(
    engine: &mut Engine<BeaconMsg>,
    rel: &ReliableSender<ReliablePayload>,
    wakeup: &mut Option<SimTime>,
) {
    if let Some(dl) = rel.next_deadline() {
        if wakeup.is_none_or(|w| dl < w) {
            engine.schedule_timer(dl, AsIndex(0), KIND_RETX);
            *wakeup = Some(dl);
        }
    }
}

/// One reachability probe: a pair is live when the holder knows at least
/// one unexpired path from the origin whose links are all usable.
fn probe_reachability(
    topo: &AsTopology,
    servers: &[Option<BeaconServer>],
    ls: &LinkState,
    pairs: &[(AsIndex, AsIndex)],
    now: SimTime,
) -> ReachProbe {
    let live = pairs
        .iter()
        .filter(|&&(origin, holder)| {
            servers[holder.as_usize()].as_ref().is_some_and(|srv| {
                known_paths(topo, srv, topo.node(origin).ia, now)
                    .iter()
                    .any(|path| path.iter().all(|&li| ls.link_usable(li)))
            })
        })
        .count() as u64;
    ReachProbe {
        t: now,
        live_pairs: live,
        total_pairs: pairs.len() as u64,
    }
}

/// One sampler firing: snapshots the registered gauges (event-queue depth,
/// in-flight messages, beacon-store occupancy, per-interface traffic) into
/// the time-series recorder.
fn sample_gauges(
    tel: &mut Telemetry,
    now: SimTime,
    engine: &Engine<BeaconMsg>,
    wire: &Wire,
    servers: &[Option<BeaconServer>],
) {
    let span = tel.profile.span(phase::SAMPLING);

    tel.sample(
        now,
        ids::ENGINE_QUEUE_DEPTH,
        Label::Global,
        engine.pending() as f64,
    );
    tel.sample(
        now,
        ids::ENGINE_IN_FLIGHT,
        Label::Global,
        wire.in_flight as f64,
    );
    tel.sample(
        now,
        ids::ENGINE_EVENTS,
        Label::Global,
        engine.events_processed() as f64,
    );
    for (i, srv) in servers.iter().enumerate() {
        if let Some(srv) = srv {
            tel.sample(
                now,
                ids::STORE_OCCUPANCY,
                Label::As(i as u32),
                srv.store().len() as f64,
            );
        }
    }
    let traffic = &wire.traffic;
    let mut last_node = None;
    for ((n, ifid), c) in traffic.per_interface() {
        tel.sample(
            now,
            ids::IFACE_BYTES,
            Label::Iface(n.0, ifid.0),
            c.bytes as f64,
        );
        if last_node != Some(n) {
            tel.sample(
                now,
                ids::NODE_BYTES,
                Label::As(n.0),
                traffic.node_total(n).bytes as f64,
            );
            last_node = Some(n);
        }
    }
    let total = traffic.grand_total();
    tel.sample(now, ids::TOTAL_BYTES, Label::Global, total.bytes as f64);
    tel.sample(
        now,
        ids::TOTAL_MESSAGES,
        Label::Global,
        total.messages as f64,
    );

    tel.profile.finish(span);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Algorithm, BeaconingConfig, DiversityParams};
    use scion_topology::{scionlab::scionlab_topology, topology_from_edges, Relationship};
    use scion_types::{Asn, Isd, IsdAsn};

    fn ia(asn: u64) -> IsdAsn {
        IsdAsn::new(Isd(1), Asn::from_u64(asn))
    }

    fn ring_of_cores(n: u64) -> AsTopology {
        let mut edges = Vec::new();
        for i in 1..=n {
            let j = i % n + 1;
            edges.push((i, j, Relationship::PeerToPeer, 1));
        }
        let mut t = topology_from_edges(&edges);
        for idx in t.as_indices().collect::<Vec<_>>() {
            t.set_core(idx, true);
        }
        t
    }

    fn run_quiet(
        topo: &AsTopology,
        cfg: &BeaconingConfig,
        run: &BeaconingRun<'_>,
    ) -> BeaconingReport {
        run_beaconing(topo, cfg, run, &mut Telemetry::disabled())
    }

    fn run_core(
        topo: &AsTopology,
        cfg: &BeaconingConfig,
        window: Duration,
        seed: u64,
    ) -> BeaconingOutcome {
        run_quiet(topo, cfg, &BeaconingRun::core(window, seed)).outcome
    }

    fn assert_every_core_knows_every_origin(topo: &AsTopology, out: &BeaconingOutcome) {
        let now = SimTime::ZERO + out.sim_duration;
        for idx in topo.as_indices() {
            let srv = out.server(idx).expect("core participates");
            for origin_idx in topo.as_indices() {
                if origin_idx == idx {
                    continue;
                }
                let origin = topo.node(origin_idx).ia;
                assert!(
                    !srv.store().beacons_of(origin, now).is_empty(),
                    "{} has no beacon from {}",
                    topo.node(idx).ia,
                    origin
                );
            }
        }
    }

    #[test]
    fn core_beaconing_discovers_all_origins_baseline() {
        let topo = ring_of_cores(6);
        let out = run_core(
            &topo,
            &BeaconingConfig::default(),
            Duration::from_hours(2),
            1,
        );
        assert_every_core_knows_every_origin(&topo, &out);
        assert!(out.total_bytes() > 0);
        assert!(out.beacons_delivered > 0);
    }

    #[test]
    fn core_beaconing_discovers_all_origins_diversity() {
        let topo = ring_of_cores(6);
        let out = run_core(
            &topo,
            &BeaconingConfig::diversity(),
            Duration::from_hours(2),
            1,
        );
        assert_every_core_knows_every_origin(&topo, &out);
    }

    #[test]
    fn zero_delay_links_are_legal() {
        // Every send arrives at the instant it leaves, after the event
        // that sent it.
        let topo = ring_of_cores(6);
        let cfg = BeaconingConfig::default();
        let run = BeaconingRun::core(Duration::from_hours(1), 1);
        let latency = LatencyModel::constant(&topo, Duration::ZERO);
        let out = simulate(&topo, &cfg, &run, latency, &mut Telemetry::disabled()).outcome;
        assert_every_core_knows_every_origin(&topo, &out);
        assert!(out.beacons_delivered > 0);
    }

    #[test]
    #[should_panic(expected = "nonzero interval")]
    fn a_zero_interval_panics() {
        let cfg = BeaconingConfig {
            interval: Duration::ZERO,
            ..BeaconingConfig::default()
        };
        run_core(&ring_of_cores(3), &cfg, Duration::from_hours(1), 1);
    }

    #[test]
    fn diversity_sends_far_less_than_baseline() {
        let topo = scionlab_topology();
        let hours = Duration::from_hours(3);
        let base = run_core(&topo, &BeaconingConfig::default(), hours, 7);
        let div = run_core(
            &topo,
            &BeaconingConfig::with_algorithm(Algorithm::Diversity(DiversityParams::default())),
            hours,
            7,
        );
        let (b, d) = (base.total_bytes(), div.total_bytes());
        assert!(
            d * 3 < b,
            "diversity ({d} B) should be well below baseline ({b} B)"
        );
    }

    #[test]
    fn intra_isd_beaconing_reaches_leaves_only_downward() {
        // core 1 -> 2 -> {4,5}; 3 is another child of 1; peer link 4-5
        // must carry no beacons (uni-directional provider->customer only).
        let mut topo = topology_from_edges(&[
            (1, 2, Relationship::AProviderOfB, 1),
            (1, 3, Relationship::AProviderOfB, 1),
            (2, 4, Relationship::AProviderOfB, 1),
            (2, 5, Relationship::AProviderOfB, 1),
            (4, 5, Relationship::PeerToPeer, 1),
        ]);
        let core = topo.by_address(ia(1)).unwrap();
        topo.set_core(core, true);

        let out = run_quiet(
            &topo,
            &BeaconingConfig::default(),
            &BeaconingRun::intra_isd(Duration::from_hours(1), 3),
        )
        .outcome;
        let now = SimTime::ZERO + Duration::from_hours(1);
        for leaf in [4u64, 5, 3, 2] {
            let idx = topo.by_address(ia(leaf)).unwrap();
            let srv = out.server(idx).expect("every AS has a server");
            assert!(
                !srv.store().beacons_of(ia(1), now).is_empty(),
                "AS {leaf} did not receive the core beacon"
            );
        }
        // No traffic on the peering link between 4 and 5.
        let four = topo.by_address(ia(4)).unwrap();
        let five = topo.by_address(ia(5)).unwrap();
        let peer_link = topo.links_between(four, five)[0];
        let l = topo.link(peer_link);
        assert_eq!(out.traffic.interface(l.a, l.a_if).messages, 0);
        assert_eq!(out.traffic.interface(l.b, l.b_if).messages, 0);
    }

    #[test]
    fn telemetry_records_series_traces_and_profiles() {
        use scion_telemetry::TelemetryConfig;
        let topo = ring_of_cores(4);
        let mut tel = Telemetry::new(TelemetryConfig::default());
        tel.begin_run("test");
        let out = run_beaconing(
            &topo,
            &BeaconingConfig::default(),
            &BeaconingRun::core(Duration::from_hours(1), 5),
            &mut tel,
        )
        .outcome;
        assert!(out.beacons_delivered > 0);
        assert!(!tel.series.of(ids::ENGINE_QUEUE_DEPTH).is_empty());
        assert!(!tel.series.of(ids::STORE_OCCUPANCY).is_empty());
        assert!(!tel.series.of(ids::IFACE_BYTES).is_empty());
        // The per-AS delivery counters must agree with the driver's total.
        let delivered: u64 = tel
            .metrics
            .counters()
            .filter(|(id, _, _)| *id == ids::BEACONS_DELIVERED)
            .map(|(_, _, v)| v)
            .sum();
        assert_eq!(delivered, out.beacons_delivered);
        assert!(tel.traces.emitted() > 0);
        assert!(tel.profile.stats(phase::SELECTION).is_some());
        assert!(tel.profile.stats(phase::ORIGINATION).is_some());
        assert!(tel.profile.stats(phase::SAMPLING).is_some());
    }

    #[test]
    fn disabled_telemetry_matches_plain_run() {
        // Recording must not perturb the run, and a disabled handle must
        // stay empty.
        use scion_telemetry::TelemetryConfig;
        let topo = ring_of_cores(5);
        let cfg = BeaconingConfig::default();
        let run = BeaconingRun::core(Duration::from_hours(1), 9);
        let mut off = Telemetry::disabled();
        let plain = run_beaconing(&topo, &cfg, &run, &mut off).outcome;
        let mut on = Telemetry::new(TelemetryConfig::default());
        let recorded = run_beaconing(&topo, &cfg, &run, &mut on).outcome;
        assert_eq!(plain.total_bytes(), recorded.total_bytes());
        assert_eq!(plain.beacons_delivered, recorded.beacons_delivered);
        assert!(off.series.is_empty() && off.traces.is_empty());
    }

    #[test]
    fn chaos_run_drops_probe_fraction_and_recovers() {
        // Line of three cores 1-2-3: downing the 1-2 link cuts every pair
        // involving AS1 until the link comes back and beaconing re-delivers.
        let mut topo = topology_from_edges(&[
            (1, 2, Relationship::PeerToPeer, 1),
            (2, 3, Relationship::PeerToPeer, 1),
        ]);
        for idx in topo.as_indices().collect::<Vec<_>>() {
            topo.set_core(idx, true);
        }
        let cut = topo.links_between(
            topo.by_address(ia(1)).unwrap(),
            topo.by_address(ia(2)).unwrap(),
        )[0];
        let cfg = BeaconingConfig {
            interval: Duration::from_secs(100),
            ..BeaconingConfig::default()
        };
        let down_at = SimTime::ZERO + Duration::from_secs(2000);
        let up_at = SimTime::ZERO + Duration::from_secs(4000);
        let schedule = FaultSchedule::from_events(vec![
            (down_at, LinkFault::LinkDown(cut)),
            (up_at, LinkFault::LinkUp(cut)),
        ]);
        let one = topo.by_address(ia(1)).unwrap();
        let three = topo.by_address(ia(3)).unwrap();
        let pairs = vec![(one, three), (three, one)];
        let run = BeaconingRun {
            chaos: Some(ChaosConfig {
                schedule: &schedule,
                probe_pairs: &pairs,
                probe_cadence: Duration::from_secs(100),
            }),
            ..BeaconingRun::core(Duration::from_secs(8000), 1)
        };
        let BeaconingReport {
            outcome: out,
            chaos: report,
            ..
        } = run_quiet(&topo, &cfg, &run);
        assert!(out.beacons_delivered > 0);
        assert!(!report.probes.is_empty());
        let frac_at = |t: SimTime| {
            report
                .probes
                .iter()
                .rfind(|p| p.t <= t)
                .map(|p| p.fraction())
                .unwrap()
        };
        // Converged before the cut, dead during it, recovered at the end.
        // (A probe exactly at `down_at` runs after the fault timer — FIFO —
        // so the pre-fault check stops one microsecond earlier.)
        assert_eq!(
            frac_at(SimTime::from_micros(down_at.as_micros() - 1)),
            1.0,
            "pre-fault reachability"
        );
        assert_eq!(
            frac_at(SimTime::from_micros(up_at.as_micros() - 1)),
            0.0,
            "the 1-2 cut severs both probed pairs"
        );
        assert_eq!(
            report.probes.last().unwrap().fraction(),
            1.0,
            "reachability recovers after LinkUp"
        );
        assert_eq!(report.fault_events_applied, 2);
        assert!(
            report.sends_suppressed > 0,
            "ticks during the outage must suppress sends on the dead link"
        );
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let topo = ring_of_cores(6);
        let schedule = FaultSchedule::from_events(vec![
            (
                SimTime::ZERO + Duration::from_secs(1000),
                LinkFault::LinkDown(LinkIndex(0)),
            ),
            (
                SimTime::ZERO + Duration::from_secs(3000),
                LinkFault::LinkUp(LinkIndex(0)),
            ),
        ]);
        let pairs: Vec<(AsIndex, AsIndex)> =
            vec![(AsIndex(0), AsIndex(3)), (AsIndex(2), AsIndex(5))];
        let run = BeaconingRun {
            chaos: Some(ChaosConfig {
                schedule: &schedule,
                probe_pairs: &pairs,
                probe_cadence: Duration::from_secs(200),
            }),
            ..BeaconingRun::core(Duration::from_secs(6000), 9)
        };
        let a = run_quiet(&topo, &BeaconingConfig::default(), &run);
        let b = run_quiet(&topo, &BeaconingConfig::default(), &run);
        assert_eq!(a.outcome.total_bytes(), b.outcome.total_bytes());
        assert_eq!(a.outcome.beacons_delivered, b.outcome.beacons_delivered);
        let curve = |rep: &ChaosReport| -> Vec<(u64, u64)> {
            rep.probes
                .iter()
                .map(|p| (p.t.as_micros(), p.live_pairs))
                .collect()
        };
        assert_eq!(curve(&a.chaos), curve(&b.chaos));
        assert_eq!(a.chaos.cancelled_in_flight, b.chaos.cancelled_in_flight);
        assert_eq!(a.chaos.sends_suppressed, b.chaos.sends_suppressed);
    }

    #[test]
    fn lossless_lossy_run_matches_plain_run() {
        // The loss plane at probability 0 with zero jitter must be a
        // behavioural no-op: same traffic, same deliveries as a plain run.
        let topo = ring_of_cores(5);
        let cfg = BeaconingConfig::default();
        let plain = BeaconingRun::core(Duration::from_hours(1), 9);
        let lossless = BeaconingRun {
            lossy: Some(LossyConfig {
                loss: 0.0,
                jitter_max: Duration::ZERO,
                reliable: None,
            }),
            ..plain
        };
        let plain = run_quiet(&topo, &cfg, &plain).outcome;
        let BeaconingReport {
            outcome: out,
            loss: rep,
            ..
        } = run_quiet(&topo, &cfg, &lossless);
        assert_eq!(plain.total_bytes(), out.total_bytes());
        assert_eq!(plain.beacons_delivered, out.beacons_delivered);
        assert_eq!(rep.messages_lost, 0);
        assert!(rep.transmissions > 0, "every send draws a loss coin");
        assert_eq!(rep.retransmits, 0);
        assert_eq!(rep.acks_sent, 0);
    }

    #[test]
    fn reliable_channel_is_quiet_without_loss() {
        // At zero loss the reliable channel costs acks but never times out:
        // the worst-case RTT (2 × 80 ms + jitter) is far below the 500 ms
        // base timeout.
        let topo = ring_of_cores(5);
        let run = BeaconingRun {
            lossy: Some(LossyConfig::reliable(0.0)),
            ..BeaconingRun::core(Duration::from_hours(1), 9)
        };
        let BeaconingReport {
            outcome: out,
            loss: rep,
            ..
        } = run_quiet(&topo, &BeaconingConfig::default(), &run);
        assert!(out.beacons_delivered > 0);
        assert_eq!(rep.messages_lost, 0);
        assert_eq!(rep.retransmits, 0);
        assert_eq!(rep.give_ups, 0);
        assert_eq!(rep.duplicates_suppressed, 0);
        assert!(rep.acks_sent > 0);
        // Acks still in flight when the run ends never settle, so received
        // can trail sent — but only by the tail of the run.
        assert!(rep.acks_received > 0 && rep.acks_received <= rep.acks_sent);
        assert!(rep.ack_bytes >= rep.acks_sent);
    }

    #[test]
    fn reliable_channel_recovers_diversity_beacons_under_loss() {
        // The diversity algorithm inhibits redundant resends, so a lost
        // beacon stays lost without a transport-level retry — the no-retry
        // control visibly degrades while the reliable channel recovers to
        // (near-)full reachability.
        let topo = ring_of_cores(6);
        let cfg = BeaconingConfig {
            interval: Duration::from_secs(100),
            ..BeaconingConfig::diversity()
        };
        let pairs: Vec<(AsIndex, AsIndex)> = topo
            .as_indices()
            .flat_map(|a| {
                topo.as_indices()
                    .filter(move |&b| b != a)
                    .map(move |b| (a, b))
            })
            .collect();
        let schedule = FaultSchedule::from_events(vec![]);
        let go = |lossy: LossyConfig| {
            let run = BeaconingRun {
                chaos: Some(ChaosConfig {
                    schedule: &schedule,
                    probe_pairs: &pairs,
                    probe_cadence: Duration::from_secs(200),
                }),
                lossy: Some(lossy),
                ..BeaconingRun::core(Duration::from_secs(4000), 11)
            };
            run_quiet(&topo, &cfg, &run)
        };

        let rel = go(LossyConfig::reliable(0.2));
        let rel_frac = rel.chaos.probes.last().unwrap().fraction();
        assert!(
            rel_frac >= 0.95,
            "reliable arm at 20% loss should stay near-converged, got {rel_frac}"
        );
        assert!(rel.loss.messages_lost > 0, "20% loss must drop something");
        assert!(rel.loss.retransmits > 0, "drops must trigger retransmits");
        assert!(rel.loss.acks_received > 0);
        assert!(
            rel.loss.duplicates_suppressed > 0,
            "lost acks must produce suppressed duplicate deliveries"
        );

        let ctl = go(LossyConfig::unreliable(0.5));
        let ctl_frac = ctl.chaos.probes.last().unwrap().fraction();
        assert!(
            ctl_frac < 0.9,
            "no-retry control at 50% loss must visibly degrade, got {ctl_frac}"
        );
        assert_eq!(ctl.loss.retransmits, 0);
        assert_eq!(ctl.loss.acks_sent, 0);
        assert!(ctl.loss.messages_lost > 0);
    }

    #[test]
    fn lossy_runs_are_deterministic() {
        let topo = ring_of_cores(6);
        let cfg = BeaconingConfig::diversity();
        let go = |seed: u64| {
            let run = BeaconingRun {
                lossy: Some(LossyConfig::reliable(0.1)),
                ..BeaconingRun::core(Duration::from_secs(4000), seed)
            };
            run_quiet(&topo, &cfg, &run)
        };
        let (a, b) = (go(5), go(5));
        assert_eq!(a.outcome.total_bytes(), b.outcome.total_bytes());
        assert_eq!(a.outcome.beacons_delivered, b.outcome.beacons_delivered);
        assert_eq!(
            a.outcome.traffic.per_interface(),
            b.outcome.traffic.per_interface()
        );
        assert_eq!(a.loss, b.loss);
        // A different seed decorrelates the loss pattern.
        assert_ne!(a.loss, go(6).loss);
    }

    #[test]
    fn runs_are_deterministic() {
        let topo = ring_of_cores(5);
        let cfg = BeaconingConfig::default();
        let a = run_core(&topo, &cfg, Duration::from_hours(1), 9);
        let b = run_core(&topo, &cfg, Duration::from_hours(1), 9);
        assert_eq!(a.total_bytes(), b.total_bytes());
        assert_eq!(a.beacons_delivered, b.beacons_delivered);
        assert_eq!(a.traffic.per_interface(), b.traffic.per_interface());
    }

    #[test]
    fn seed_changes_latency_but_not_discovery() {
        let topo = ring_of_cores(5);
        let cfg = BeaconingConfig::default();
        let a = run_core(&topo, &cfg, Duration::from_hours(1), 1);
        let b = run_core(&topo, &cfg, Duration::from_hours(1), 2);
        // Same topology and config: message *counts* may differ slightly in
        // timing-dependent ways, but both must deliver a comparable amount.
        assert!(a.beacons_delivered > 0 && b.beacons_delivered > 0);
    }

    #[test]
    fn warmed_up_runs_are_deterministic() {
        let topo = ring_of_cores(6);
        let cfg = BeaconingConfig::diversity();
        let go = || {
            let run = BeaconingRun {
                warmup: Duration::from_secs(1000),
                ..BeaconingRun::core(Duration::from_secs(3000), 9)
            };
            run_quiet(&topo, &cfg, &run).outcome
        };
        let (a, b) = (go(), go());
        assert_eq!(a.total_bytes(), b.total_bytes());
        assert_eq!(a.beacons_delivered, b.beacons_delivered);
        assert_eq!(a.traffic.per_interface(), b.traffic.per_interface());
    }

    #[test]
    fn reliable_runs_at_a_short_interval_are_deterministic() {
        let topo = ring_of_cores(6);
        let cfg = BeaconingConfig {
            interval: Duration::from_secs(100),
            ..BeaconingConfig::diversity()
        };
        let go = || {
            let run = BeaconingRun {
                lossy: Some(LossyConfig::reliable(0.2)),
                ..BeaconingRun::core(Duration::from_secs(4000), 11)
            };
            run_quiet(&topo, &cfg, &run)
        };
        let (a, b) = (go(), go());
        assert!(a.loss.messages_lost > 0, "20% loss must drop something");
        assert!(a.loss.retransmits > 0, "drops must trigger retransmits");
        assert_eq!(a.outcome.total_bytes(), b.outcome.total_bytes());
        assert_eq!(a.outcome.beacons_delivered, b.outcome.beacons_delivered);
        assert_eq!(a.loss, b.loss);
    }

    #[test]
    fn delivers_what_the_serial_loop_delivered() {
        // Captured from the event-at-a-time loop that preceded the
        // windowed driver, at the last commit that had it: sending a
        // tick's beacons in egress-link order must not move a
        // protocol-level outcome. (The tiny-world rows of the same capture
        // are pinned in `tests/beaconing_determinism.rs`.)
        let cfg = BeaconingConfig::default();
        let out = run_core(&ring_of_cores(6), &cfg, Duration::from_hours(1), 7);
        assert_eq!(
            (
                out.beacons_delivered,
                out.total_bytes(),
                out.events_processed
            ),
            (300, 113_760, 336)
        );

        // The diversity algorithm on the same ring. Captured from a scratch
        // clone of the parent of the commit that interned the link history
        // (selection still rehashing every link per score) — not from this
        // code: the rewrite must not move a pick.
        let diversity = BeaconingConfig::diversity();
        let out = run_core(&ring_of_cores(6), &diversity, Duration::from_hours(1), 7);
        assert_eq!(
            (
                out.beacons_delivered,
                out.total_bytes(),
                out.events_processed
            ),
            (60, 24_240, 96)
        );

        let run = BeaconingRun {
            lossy: Some(LossyConfig {
                loss: 0.0,
                jitter_max: Duration::ZERO,
                reliable: None,
            }),
            ..BeaconingRun::core(Duration::from_hours(1), 9)
        };
        let BeaconingReport {
            outcome: out, loss, ..
        } = run_quiet(&ring_of_cores(5), &cfg, &run);
        assert_eq!(
            (
                out.beacons_delivered,
                out.total_bytes(),
                out.events_processed
            ),
            (210, 68_720, 240)
        );
        assert_eq!((loss.transmissions, loss.messages_lost), (210, 0));
    }

    #[test]
    fn a_single_as_ticks_without_a_message_to_send() {
        let mut topo = AsTopology::new();
        let only = topo.add_as(ia(1));
        topo.set_core(only, true);
        let out = run_core(
            &topo,
            &BeaconingConfig::default(),
            Duration::from_hours(1),
            1,
        );
        assert_eq!(out.events_processed, 6, "one tick per 10-minute interval");
        assert_eq!(out.beacons_delivered, 0);
        assert_eq!(out.total_bytes(), 0);
    }

    #[test]
    fn interval_shorter_than_every_link_delay() {
        // Link delays are at least 1 ms; with a 400 µs interval every AS
        // ticks again before its beacons arrive.
        let topo = ring_of_cores(3);
        let cfg = BeaconingConfig {
            interval: Duration::from_micros(400),
            ..BeaconingConfig::default()
        };
        let window = Duration::from_millis(200);
        let out = run_core(&topo, &cfg, window, 3);
        let ticks = 3 * window.as_micros() / cfg.interval.as_micros();
        assert!(out.beacons_delivered > 0);
        assert!(
            out.events_processed >= ticks + out.beacons_delivered,
            "every tick ran and every counted delivery was an event: {} events, {ticks} ticks",
            out.events_processed
        );
        let again = run_core(&topo, &cfg, window, 3);
        assert_eq!(out.events_processed, again.events_processed);
        assert_eq!(out.total_bytes(), again.total_bytes());
    }
}
