//! Failure-recovery experiment: live flows under link churn, SCMP
//! revocation propagation, and multipath fast failover versus control-plane
//! reconvergence (§4.1 "Path Revocations", §4.1 multipath failover).
//!
//! The recovery plane this experiment closes end to end:
//!
//! * **flows** — sender→receiver pairs keep sending a packet per tick
//!   through the instrumented dataplane ([`forward_batch`], so `--threads`
//!   exercises the parallel MAC shards) along paths chosen by a per-source
//!   [`ScionDaemon`];
//! * **faults** — a seeded [`FaultSchedule`] takes down the most-loaded
//!   primary-path link, then a chosen victim flow's secondary-path link,
//!   and repairs both later, all at fixed virtual times;
//! * **SCMP** — a border router whose egress link is dead emits
//!   `ExternalInterfaceDown`, which travels *back along the traversed
//!   prefix* (with real link latency) to the source endhost, and — gated by
//!   a per-link [`ScmpLimiter`] — onward to the core path server;
//! * **revocation** — the path server parks every segment crossing the
//!   failed link in a TTL'd [`RevocationTable`]
//!   ([`revoke_for_scmp`]); lapsed revocations are restored by an
//!   expiry-driven timer ([`restore_lapsed_revocations`]);
//! * **re-resolution** — when every cached path is dead, the daemon's arm
//!   (c) falls back to a bounded-retry [`Resolver`] query against the path
//!   server.
//!
//! Three arms over the identical schedule, flows, and latency model:
//!
//! | arm | SCMP at endhost | path-server re-query |
//! |-----|-----------------|----------------------|
//! | `no_failover`   | ignored (counts only) | no — periodic reconvergence re-installs the server's live view |
//! | `scmp_failover` | instant failover over cached paths | no |
//! | `scmp_requery`  | instant failover over cached paths | yes, when all cached paths are dead |
//!
//! Every event runs through one [`Engine`] per arm, so all latencies are
//! virtual and deterministic; recording runs produce byte-identical
//! `metrics`/`series`/`trace` JSONL across reruns and worker-thread counts
//! (`tests/recovery_determinism.rs`).

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::time::Instant;

use serde::Serialize;

use scion_chaos::{
    restore_lapsed_revocations, revoke_for_scmp, FaultSchedule, LinkFault, LinkState,
};
use scion_crypto::trc::TrustStore;
use scion_dataplane::{forward_batch, BatchStep, ForwardAction, Packet, ScmpLimiter, ScmpMessage};
use scion_endhost::ScionDaemon;
use scion_pathserver::ledger::Ledger;
use scion_pathserver::{PathServer, Resolver, ResolverConfig, RetryAction, RevocationTable};
use scion_proto::combine::EndToEndPath;
use scion_proto::pcb::Pcb;
use scion_proto::segment::{PathSegment, SegmentType};
use scion_simulator::{Engine, Event, LatencyModel, WorkerPool};
use scion_telemetry::trace::TraceEvent;
use scion_telemetry::{ids, phase, Label, Telemetry};
use scion_topology::{AsIndex, AsTopology, LinkIndex};
use scion_types::{Duration, IfId, IsdAsn, LinkEnd, SimTime};

use crate::experiments::fig6::sample_pairs;
use crate::experiments::forwarding::{quantiles, shortest_path, LatencyQuantiles};
use crate::experiments::RunCtx;

/// Send cadence of every flow.
const TICK_INTERVAL: Duration = Duration::from_millis(50);
/// Virtual window during which flows send; queued events drain fully
/// afterwards, so late arrivals and resolver retries still land.
const WINDOW: Duration = Duration::from_secs(12);
/// Primary fault: the most-loaded primary-path link goes down.
const T_FAIL: Duration = Duration::from_secs(2);
/// Secondary fault: the victim flow's first alternative loses a link.
const T_SECOND: Duration = Duration::from_millis(2_500);
/// Both links come back up.
const T_REPAIR: Duration = Duration::from_secs(8);
/// Arm (a) reconvergence cadence: daemons re-install the path server's
/// live (unrevoked) view at this period, the no-SCMP baseline.
const RECONVERGE_INTERVAL: Duration = Duration::from_secs(3);
/// Endhost daemon failure-mark TTL: dead-path marks lapse after this,
/// turning the primary into a periodic probe.
const FAILURE_TTL: Duration = Duration::from_secs(2);
/// Path-server revocation TTL (renewed by repeat SCMPs; a parked segment
/// whose revocation lapses is reinstated).
const REVOCATION_TTL: Duration = Duration::from_secs(4);
/// Per-(AS, interface) SCMP→path-server admission window.
const SCMP_HOLDOFF: Duration = Duration::from_millis(500);
/// Border-router→path-server propagation delay of an admitted revocation.
const REVOKE_PROP_DELAY: Duration = Duration::from_millis(30);
/// One-way daemon↔path-server query latency.
const QUERY_DELAY: Duration = Duration::from_millis(25);
/// Link-disjoint paths computed per flow and registered at the server.
const K_DISJOINT: usize = 3;
/// Primary-path links taken down at `T_FAIL`, by descending load.
const K_FAILED_LINKS: usize = 3;
/// Of those, how many the daemon caches up front. The gap between cached
/// and registered is what separates arm (b) from arm (c): a flow whose two
/// cached paths are both dead can only recover early by re-querying.
const K_CACHED: usize = 2;
/// Payload bytes per packet.
const PAYLOAD_LEN: u32 = 200;
/// Hop-field and segment lifetime — long enough to never expire mid-window.
const SEG_LIFETIME: Duration = Duration::from_hours(1);

/// Timer discriminators (the engine's `kind`).
const KIND_TICK: u32 = 0;
const KIND_FAULT: u32 = 1;
const KIND_RECONVERGE: u32 = 2;
const KIND_RESTORE: u32 = 3;
/// Resolver deadline check; the timer's `node` carries the *flow index*
/// (not a real AS) as its discriminator.
const KIND_RESOLVER: u32 = 4;

/// Events on the wire (and local arrivals) between the planes.
enum Msg {
    /// A data packet reached its destination; `sent_at` keys recovery.
    Arrival { flow: usize, sent_at: SimTime },
    /// SCMP delivered back to the flow's source endhost.
    Scmp { flow: usize, scmp: ScmpMessage },
    /// Limiter-admitted SCMP delivered to the core path server.
    Revoke { scmp: ScmpMessage },
    /// Daemon→server path query (arm (c) only).
    Query { flow: usize, id: u64 },
    /// Server→daemon response carrying live paths.
    Response {
        flow: usize,
        id: u64,
        paths: Vec<EndToEndPath>,
    },
}

/// Which recovery mechanisms the endhost runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum ArmKind {
    /// SCMP counted but ignored; recovery only via periodic reconvergence.
    NoFailover,
    /// SCMP marks dead paths; instant failover over the cached set.
    ScmpFailover,
    /// Failover plus bounded-retry re-query when all cached paths die.
    ScmpRequery,
}

impl ArmKind {
    fn label(self) -> &'static str {
        match self {
            ArmKind::NoFailover => "no_failover",
            ArmKind::ScmpFailover => "scmp_failover",
            ArmKind::ScmpRequery => "scmp_requery",
        }
    }
}

/// A sender→receiver pair with its precomputed link-disjoint paths.
struct Flow {
    src: AsIndex,
    src_ia: IsdAsn,
    dst_ia: IsdAsn,
    /// Up to [`K_DISJOINT`] link-disjoint paths, sorted like the daemon
    /// sorts its cache (hop count, then link sequence), so `paths[0]` is
    /// the daemon's primary.
    paths: Vec<EndToEndPath>,
    /// `paths`, as dense link indices.
    path_links: Vec<Vec<LinkIndex>>,
    /// Round-trip bound over the *cached* paths: max of 2×Σ one-way
    /// delays. The "failover within one RTT" acceptance bar.
    rtt_bound: Duration,
}

/// Per-flow mutable state inside one arm.
struct FlowState {
    daemon: ScionDaemon,
    resolver: Option<Resolver>,
    pending_query: Option<u64>,
    sent: u64,
    delivered: u64,
    lost: u64,
    no_path: u64,
    /// Links of the path the flow last sent on (transition detection).
    current_links: Vec<LinkIndex>,
    /// Currently off its primary path.
    failed_over: bool,
    /// At the *first* SCMP, a usable cached alternative existed.
    fast_failover: bool,
    first_loss_at: Option<SimTime>,
    first_scmp_at: Option<SimTime>,
    /// Arrival time of the first delivery whose send time is at or after
    /// `first_loss_at`.
    recovered_at: Option<SimTime>,
    /// Open outage window: send time of the first loss not yet followed
    /// by a delivery sent after it.
    outage_start: Option<SimTime>,
    /// Longest closed outage window.
    max_outage: Duration,
}

impl FlowState {
    fn new(flow: &Flow) -> FlowState {
        let mut daemon = ScionDaemon::with_failure_ttl(FAILURE_TTL);
        let cached: Vec<EndToEndPath> = flow.paths.iter().take(K_CACHED).cloned().collect();
        daemon.install_paths(flow.dst_ia, cached);
        FlowState {
            daemon,
            resolver: None,
            pending_query: None,
            sent: 0,
            delivered: 0,
            lost: 0,
            no_path: 0,
            current_links: flow.path_links[0].clone(),
            failed_over: false,
            fast_failover: false,
            first_loss_at: None,
            first_scmp_at: None,
            recovered_at: None,
            outage_start: None,
            max_outage: Duration::ZERO,
        }
    }
}

/// How a packet's hop-major walk ended.
enum WalkEnd {
    /// Reached the destination after `delay` of accumulated link latency.
    Delivered { delay: Duration },
    /// Hit a dead egress link `prefix_delay` into the path.
    LinkDown {
        li: LinkIndex,
        at: IsdAsn,
        egress: IfId,
        prefix_delay: Duration,
    },
    /// Forwarding error or missing interface (counted, not recovered).
    Dropped,
}

/// One arm of the experiment.
#[derive(Clone, Debug, Serialize)]
pub struct RecoveryArm {
    pub name: &'static str,
    /// Packets handed to the dataplane.
    pub packets_sent: u64,
    pub delivered: u64,
    /// Lost in flight plus ticks skipped for lack of any usable path.
    pub lost: u64,
    /// Ticks where the daemon had no usable path (subset of `lost`).
    pub no_path_drops: u64,
    /// Flows that lost at least one packet.
    pub affected_flows: usize,
    /// SCMP messages delivered to source endhosts.
    pub scmp_received: u64,
    /// Transitions away from a flow's primary path.
    pub failovers: u64,
    /// Transitions back to the primary path.
    pub path_restorations: u64,
    /// Arm (c) queries sent (initial sends plus resolver retries).
    pub requeries: u64,
    /// Resolver attempts that exhausted their budget.
    pub requeries_exhausted: u64,
    /// Limiter-admitted SCMPs that reached the path server.
    pub revocation_signals: u64,
    /// Segments parked by those revocations.
    pub segments_revoked: u64,
    /// Segments reinstated when their revocation lapsed.
    pub segments_restored: u64,
    /// Limiter decisions at the emitting border routers.
    pub scmp_admitted: u64,
    pub scmp_suppressed: u64,
    /// Flows whose first SCMP found a usable cached alternative.
    pub fast_failover_flows: usize,
    /// Of those, flows whose first post-loss delivery arrived within the
    /// flow's cached-path RTT bound of the SCMP — the §4.1 claim.
    pub fast_failover_within_rtt: usize,
    /// The designated victim flow's longest outage, microseconds.
    pub victim_max_outage_us: Option<u64>,
    /// Longest per-flow outage (µs) over affected flows.
    pub outage_us: OutageCdf,
    /// Packets lost per affected flow.
    pub packets_lost: OutageCdf,
}

/// Order statistics over affected flows.
#[derive(Clone, Debug, Serialize)]
pub struct OutageCdf {
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub max: u64,
}

impl OutageCdf {
    fn of(mut values: Vec<u64>) -> OutageCdf {
        if values.is_empty() {
            return OutageCdf {
                p50: 0,
                p90: 0,
                p99: 0,
                max: 0,
            };
        }
        values.sort_unstable();
        let n = values.len();
        let at = |q: f64| {
            let i = ((n as f64) * q).ceil() as usize;
            values[i.saturating_sub(1).min(n - 1)]
        };
        OutageCdf {
            p50: at(0.50),
            p90: at(0.90),
            p99: at(0.99),
            max: values[n - 1],
        }
    }
}

/// The full three-arm result, serialized to `results/recovery.json`.
#[derive(Clone, Debug, Serialize)]
pub struct RecoveryResult {
    pub num_ases: usize,
    pub num_links: usize,
    pub num_flows: usize,
    pub seed: u64,
    pub threads: usize,
    pub window_us: u64,
    pub tick_us: u64,
    pub fault_at_us: u64,
    pub second_fault_at_us: Option<u64>,
    pub repair_at_us: u64,
    pub reconverge_interval_us: u64,
    pub failure_ttl_us: u64,
    pub revocation_ttl_us: u64,
    pub scmp_holdoff_us: u64,
    /// Index of the all-cached-paths-dead victim flow, when one exists.
    pub victim_flow: Option<usize>,
    /// Dense indices of the failed primary-path links, by descending load.
    pub primary_failed_links: Vec<u32>,
    pub arms: Vec<RecoveryArm>,
    /// Wall-clock quantiles (recording runs only; excluded from the
    /// determinism fingerprint).
    pub tick_latency: Option<LatencyQuantiles>,
    pub scmp_latency: Option<LatencyQuantiles>,
    pub requery_latency: Option<LatencyQuantiles>,
}

/// Dense link indices traversed by `path`, in hop order.
fn path_link_indices(topo: &AsTopology, path: &EndToEndPath) -> Vec<LinkIndex> {
    let hops = &path.hops;
    let mut out = Vec::with_capacity(hops.len().saturating_sub(1));
    for (ia, _, egress) in &hops[..hops.len() - 1] {
        let idx = topo.by_address(*ia).expect("path hops are in the topology");
        let li = topo
            .link_by_interface(idx, *egress)
            .expect("path egress interfaces exist");
        out.push(li);
    }
    out
}

/// A down-segment whose traversal equals `path`, signed under `trust`.
fn segment_for_path(path: &EndToEndPath, trust: &TrustStore) -> PathSegment {
    let hops = &path.hops;
    let mut pcb = Pcb::originate(hops[0].0, hops[0].2, SimTime::ZERO, SEG_LIFETIME, 0, trust);
    for &(ia, ingress, egress) in &hops[1..] {
        pcb = pcb.extend(ia, ingress, egress, vec![], trust);
    }
    PathSegment::from_terminated_pcb(SegmentType::Down, pcb)
}

fn build_flows(
    topo: &AsTopology,
    latency: &LatencyModel,
    pairs: &[(AsIndex, AsIndex)],
) -> Vec<Flow> {
    let mut flows = Vec::new();
    for &(src, dst) in pairs {
        let mut banned: HashSet<LinkIndex> = HashSet::new();
        let mut paths = Vec::new();
        for _ in 0..K_DISJOINT {
            let Some(p) = shortest_path(topo, src, dst, &banned) else {
                break;
            };
            banned.extend(path_link_indices(topo, &p));
            paths.push(p);
        }
        if paths.is_empty() {
            continue;
        }
        // Match the daemon's cache order exactly: (hop count, link ends).
        paths.sort_by(EndToEndPath::preference);
        let path_links: Vec<Vec<LinkIndex>> =
            paths.iter().map(|p| path_link_indices(topo, p)).collect();
        let rtt_bound = path_links
            .iter()
            .take(K_CACHED)
            .map(|links| {
                let one_way = links
                    .iter()
                    .fold(Duration::ZERO, |acc, &li| acc + latency.delay(li));
                one_way + one_way
            })
            .max()
            .expect("at least one path");
        flows.push(Flow {
            src,
            src_ia: topo.node(src).ia,
            dst_ia: topo.node(dst).ia,
            paths,
            path_links,
            rtt_bound,
        });
    }
    flows
}

/// Links of the flows' primary paths by descending load (ascending dense
/// index within a load class).
fn primary_links_by_load(flows: &[Flow]) -> Vec<LinkIndex> {
    let mut load: BTreeMap<LinkIndex, usize> = BTreeMap::new();
    for flow in flows {
        for &li in &flow.path_links[0] {
            *load.entry(li).or_default() += 1;
        }
    }
    let mut ranked: Vec<(LinkIndex, usize)> = load.into_iter().collect();
    ranked.sort_by_key(|&(li, count)| (std::cmp::Reverse(count), li));
    ranked.into_iter().map(|(li, _)| li).collect()
}

/// One arm's simulation: everything but the immutable workload.
struct Sim<'a> {
    arm: ArmKind,
    topo: &'a AsTopology,
    latency: &'a LatencyModel,
    flows: &'a [Flow],
    pool: &'a WorkerPool,
    schedule: &'a [(SimTime, LinkFault)],
    fault_cursor: usize,
    state: LinkState,
    fstates: Vec<FlowState>,
    ps: PathServer,
    ps_node: AsIndex,
    table: RevocationTable,
    ledger: Ledger,
    limiter: ScmpLimiter,
    expiry: SimTime,
    end: SimTime,
    restore_armed: Option<SimTime>,
    // Arm-level counters (kept here so disabled-telemetry runs still
    // produce the full result).
    scmp_received: u64,
    failovers: u64,
    restorations: u64,
    requeries: u64,
    requeries_exhausted: u64,
    revocation_signals: u64,
    segments_revoked: u64,
    segments_restored: u64,
}

impl<'a> Sim<'a> {
    fn new(
        arm: ArmKind,
        topo: &'a AsTopology,
        latency: &'a LatencyModel,
        flows: &'a [Flow],
        pool: &'a WorkerPool,
        schedule: &'a [(SimTime, LinkFault)],
        trust: &TrustStore,
    ) -> Sim<'a> {
        let ps_node = AsIndex(0);
        let mut ps = PathServer::new(topo.node(ps_node).ia, true);
        // Register every disjoint path of every flow as a down-segment,
        // deduplicated by link sequence.
        let mut seen: BTreeSet<Vec<(LinkEnd, LinkEnd)>> = BTreeSet::new();
        for flow in flows {
            for path in &flow.paths {
                if seen.insert(path.links()) {
                    ps.register_down_segment(segment_for_path(path, trust), SimTime::ZERO)
                        .expect("recovery path server is core");
                }
            }
        }
        Sim {
            arm,
            topo,
            latency,
            flows,
            pool,
            schedule,
            fault_cursor: 0,
            state: LinkState::new(topo),
            fstates: flows.iter().map(FlowState::new).collect(),
            ps,
            ps_node,
            table: RevocationTable::new(),
            ledger: Ledger::new(),
            limiter: ScmpLimiter::new(SCMP_HOLDOFF),
            expiry: SimTime::ZERO + SEG_LIFETIME,
            end: SimTime::ZERO + WINDOW,
            restore_armed: None,
            scmp_received: 0,
            failovers: 0,
            restorations: 0,
            requeries: 0,
            requeries_exhausted: 0,
            revocation_signals: 0,
            segments_revoked: 0,
            segments_restored: 0,
        }
    }

    fn run(&mut self, tel: &mut Telemetry) {
        let mut engine: Engine<Msg> = Engine::new();
        engine.schedule_timer(SimTime::ZERO + TICK_INTERVAL, AsIndex(0), KIND_TICK);
        for (at, _) in self.schedule {
            engine.schedule_timer(*at, AsIndex(0), KIND_FAULT);
        }
        if self.arm == ArmKind::NoFailover {
            engine.schedule_timer(
                SimTime::ZERO + RECONVERGE_INTERVAL,
                AsIndex(0),
                KIND_RECONVERGE,
            );
        }
        while let Some((now, event)) = engine.pop() {
            match event {
                Event::Timer {
                    kind: KIND_TICK, ..
                } => self.on_tick(now, &mut engine, tel),
                Event::Timer {
                    kind: KIND_FAULT, ..
                } => self.on_fault(now),
                Event::Timer {
                    kind: KIND_RECONVERGE,
                    ..
                } => self.on_reconverge(now, &mut engine),
                Event::Timer {
                    kind: KIND_RESTORE, ..
                } => self.on_restore(now, &mut engine, tel),
                Event::Timer {
                    node,
                    kind: KIND_RESOLVER,
                } => self.on_resolver(node.as_usize(), now, &mut engine, tel),
                Event::Timer { .. } => unreachable!("unknown timer kind"),
                Event::Deliver { msg, .. } => match msg {
                    Msg::Arrival { flow, sent_at } => self.on_arrival(flow, sent_at, now),
                    Msg::Scmp { flow, scmp } => self.on_scmp(flow, &scmp, now, &mut engine, tel),
                    Msg::Revoke { scmp } => self.on_revoke(&scmp, now, &mut engine, tel),
                    Msg::Query { flow, id } => self.on_query(flow, id, now, &mut engine, tel),
                    Msg::Response { flow, id, paths } => {
                        self.on_response(flow, id, paths, now, &mut engine, tel)
                    }
                },
            }
        }
        // Close outage windows still open at the end of the run.
        for fs in &mut self.fstates {
            if let Some(start) = fs.outage_start.take() {
                fs.max_outage = fs.max_outage.max(self.end.since(start));
            }
        }
    }

    fn on_fault(&mut self, now: SimTime) {
        while self.fault_cursor < self.schedule.len() && self.schedule[self.fault_cursor].0 <= now {
            let fault = self.schedule[self.fault_cursor].1;
            self.state.apply(&fault);
            self.fault_cursor += 1;
        }
    }

    fn on_tick(&mut self, now: SimTime, engine: &mut Engine<Msg>, tel: &mut Telemetry) {
        let wall = Instant::now();
        let mut sends: Vec<(usize, EndToEndPath)> = Vec::new();
        for fi in 0..self.flows.len() {
            if let Some(path) = self.choose_path(fi, now, engine, tel) {
                sends.push((fi, path));
            }
        }
        self.dispatch_sends(&sends, now, engine, tel);
        tel.profile
            .record_ns(phase::RECOVERY_TICK, wall.elapsed().as_nanos() as u64);
        let next = now + TICK_INTERVAL;
        if next <= self.end {
            engine.schedule_timer(next, AsIndex(0), KIND_TICK);
        }
    }

    /// Asks the flow's daemon for its current best path, emitting
    /// failover/restoration transitions; `None` records a no-path drop
    /// (and, in arm (c), triggers a re-query).
    fn choose_path(
        &mut self,
        fi: usize,
        now: SimTime,
        engine: &mut Engine<Msg>,
        tel: &mut Telemetry,
    ) -> Option<EndToEndPath> {
        let flow = &self.flows[fi];
        let fs = &mut self.fstates[fi];
        match fs.daemon.best_path_at(flow.dst_ia, now) {
            Some(path) => {
                let links = path_link_indices(self.topo, &path);
                if links != fs.current_links {
                    if links != flow.path_links[0] {
                        if !fs.failed_over {
                            fs.failed_over = true;
                            self.failovers += 1;
                            tel.inc(ids::RECOVERY_FAILOVERS, Label::As(flow.src.0), 1);
                            tel.trace_event(now, || TraceEvent::PathFailedOver {
                                node: flow.src.0,
                                dst: flow.dst_ia,
                            });
                        }
                    } else if fs.failed_over {
                        fs.failed_over = false;
                        self.restorations += 1;
                        tel.inc(ids::RECOVERY_RESTORED, Label::As(flow.src.0), 1);
                        tel.trace_event(now, || TraceEvent::PathRestored {
                            node: flow.src.0,
                            dst: flow.dst_ia,
                        });
                    }
                    fs.current_links = links;
                }
                Some(path)
            }
            None => {
                fs.lost += 1;
                fs.no_path += 1;
                fs.first_loss_at.get_or_insert(now);
                fs.outage_start.get_or_insert(now);
                tel.inc(ids::RECOVERY_NO_PATH, Label::As(flow.src.0), 1);
                tel.trace_event(now, || TraceEvent::PacketDropped {
                    node: flow.src.0,
                    reason: "no_path",
                });
                if self.arm == ArmKind::ScmpRequery {
                    self.begin_query(fi, now, engine, tel);
                }
                None
            }
        }
    }

    /// Builds the tick's packets and drives them through the dataplane in
    /// hop-major waves; outcomes are scheduled back into the engine with
    /// accumulated link latency.
    fn dispatch_sends(
        &mut self,
        sends: &[(usize, EndToEndPath)],
        now: SimTime,
        engine: &mut Engine<Msg>,
        tel: &mut Telemetry,
    ) {
        if sends.is_empty() {
            return;
        }
        let mut packets: Vec<Packet> = sends
            .iter()
            .map(|(_, path)| Packet::along(path, self.expiry, PAYLOAD_LEN))
            .collect();
        let ends = self.walk_batch(&mut packets, now, tel);
        for (&(fi, _), end) in sends.iter().zip(&ends) {
            let flow = &self.flows[fi];
            let fs = &mut self.fstates[fi];
            fs.sent += 1;
            match *end {
                WalkEnd::Delivered { delay } => {
                    engine.send_at(
                        now + delay,
                        flow.src,
                        LinkIndex(0),
                        Msg::Arrival {
                            flow: fi,
                            sent_at: now,
                        },
                    );
                }
                WalkEnd::LinkDown {
                    li,
                    at,
                    egress,
                    prefix_delay,
                } => {
                    fs.lost += 1;
                    fs.first_loss_at.get_or_insert(now);
                    fs.outage_start.get_or_insert(now);
                    let scmp = ScmpMessage::ExternalInterfaceDown {
                        at,
                        interface: egress,
                        observed_at: now + prefix_delay,
                    };
                    // SCMP travels back along the traversed prefix.
                    engine.send_at(
                        now + prefix_delay + prefix_delay,
                        flow.src,
                        li,
                        Msg::Scmp {
                            flow: fi,
                            scmp: scmp.clone(),
                        },
                    );
                    // Rate-limited onward signal to the path server.
                    if self.limiter.admit(LinkEnd::new(at, egress), now) {
                        engine.send_at(
                            now + prefix_delay + REVOKE_PROP_DELAY,
                            self.ps_node,
                            li,
                            Msg::Revoke { scmp },
                        );
                    } else {
                        tel.inc(ids::FWD_SCMP_SUPPRESSED, Label::Global, 1);
                    }
                }
                WalkEnd::Dropped => {
                    fs.lost += 1;
                    fs.first_loss_at.get_or_insert(now);
                    fs.outage_start.get_or_insert(now);
                }
            }
        }
    }

    fn walk_batch(
        &mut self,
        packets: &mut [Packet],
        now: SimTime,
        tel: &mut Telemetry,
    ) -> Vec<WalkEnd> {
        let topo = self.topo;
        let mut ends: Vec<Option<WalkEnd>> = (0..packets.len()).map(|_| None).collect();
        // Live position per packet: (current AS, arrival interface,
        // accumulated one-way delay).
        let mut positions: Vec<Option<(AsIndex, IfId, Duration)>> = packets
            .iter()
            .map(|p| {
                Some((
                    topo.by_address(p.source).expect("source AS in topology"),
                    IfId::NONE,
                    Duration::ZERO,
                ))
            })
            .collect();
        loop {
            let steps: Vec<BatchStep> = positions
                .iter()
                .enumerate()
                .filter_map(|(i, pos)| {
                    pos.map(|(cur, arrival_if, _)| BatchStep {
                        packet: i,
                        local_as: topo.node(cur).ia,
                        node: cur.0,
                        arrival_if,
                    })
                })
                .collect();
            if steps.is_empty() {
                break;
            }
            let results = forward_batch(packets, &steps, now, self.pool, tel);
            for (i, result) in results {
                let (cur, _, delay) = positions[i].expect("stepped packets are live");
                let node = cur.0;
                match result {
                    Ok(ForwardAction::Deliver) => {
                        ends[i] = Some(WalkEnd::Delivered { delay });
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
                            ends[i] = Some(WalkEnd::Dropped);
                            positions[i] = None;
                            continue;
                        };
                        if !self.state.link_usable(li) {
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
                            ends[i] = Some(WalkEnd::LinkDown {
                                li,
                                at: topo.node(cur).ia,
                                egress,
                                prefix_delay: delay,
                            });
                            positions[i] = None;
                            continue;
                        }
                        let hop = self.state.degraded_delay(li, self.latency.delay(li));
                        let (next, _, remote_if) = topo.link(li).opposite(cur);
                        positions[i] = Some((next, remote_if, delay + hop));
                    }
                    Err(_) => {
                        // forward_batch already emitted the drop trace and
                        // reason counter.
                        ends[i] = Some(WalkEnd::Dropped);
                        positions[i] = None;
                    }
                }
            }
        }
        ends.into_iter()
            .map(|e| e.expect("every packet ends"))
            .collect()
    }

    fn on_arrival(&mut self, fi: usize, sent_at: SimTime, now: SimTime) {
        let fs = &mut self.fstates[fi];
        fs.delivered += 1;
        if let Some(first_loss) = fs.first_loss_at {
            if fs.recovered_at.is_none() && sent_at >= first_loss {
                fs.recovered_at = Some(now);
            }
        }
        if let Some(start) = fs.outage_start {
            // Only a packet sent after the outage began closes the window;
            // stale in-flight arrivals don't.
            if sent_at >= start {
                fs.max_outage = fs.max_outage.max(now.since(start));
                fs.outage_start = None;
            }
        }
    }

    fn on_scmp(
        &mut self,
        fi: usize,
        scmp: &ScmpMessage,
        now: SimTime,
        engine: &mut Engine<Msg>,
        tel: &mut Telemetry,
    ) {
        let wall = Instant::now();
        let flow = &self.flows[fi];
        self.scmp_received += 1;
        tel.inc(ids::RECOVERY_SCMP_RECEIVED, Label::As(flow.src.0), 1);
        if let ScmpMessage::ExternalInterfaceDown { at, interface, .. } = scmp {
            let (origin, ifid) = (*at, interface.0);
            tel.trace_event(now, || TraceEvent::ScmpReceived {
                node: flow.src.0,
                origin,
                interface: ifid,
            });
        }
        let first = self.fstates[fi].first_scmp_at.is_none();
        self.fstates[fi].first_scmp_at.get_or_insert(now);
        if self.arm == ArmKind::NoFailover {
            // Baseline endhosts count the signal but never act on it.
            tel.profile
                .record_ns(phase::RECOVERY_SCMP, wall.elapsed().as_nanos() as u64);
            return;
        }
        self.fstates[fi].daemon.handle_scmp(scmp, now);
        if first {
            // The §4.1 claim: at the instant the failure notification
            // lands, a usable cached alternative already exists.
            let dst = flow.dst_ia;
            let usable = self.fstates[fi].daemon.best_path_at(dst, now).is_some();
            self.fstates[fi].fast_failover = usable;
        }
        // Immediate retransmit on whatever the daemon now prefers.
        let retransmit = self
            .choose_path(fi, now, engine, tel)
            .map(|p| vec![(fi, p)]);
        if let Some(sends) = retransmit {
            self.dispatch_sends(&sends, now, engine, tel);
        }
        tel.profile
            .record_ns(phase::RECOVERY_SCMP, wall.elapsed().as_nanos() as u64);
    }

    fn on_revoke(
        &mut self,
        scmp: &ScmpMessage,
        now: SimTime,
        engine: &mut Engine<Msg>,
        tel: &mut Telemetry,
    ) {
        let wall = Instant::now();
        self.revocation_signals += 1;
        // Flows whose current path crosses the failed link get the §4.1
        // per-flow notification accounting inside revoke_for_scmp.
        let active = match scmp.link_end() {
            Some(near) => {
                let li = self
                    .topo
                    .by_address(near.ia)
                    .and_then(|idx| self.topo.link_by_interface(idx, near.ifid));
                match li {
                    Some(li) => self
                        .fstates
                        .iter()
                        .filter(|fs| fs.current_links.contains(&li))
                        .count() as u64,
                    None => 0,
                }
            }
            None => 0,
        };
        let outcome = revoke_for_scmp(
            &mut self.ps,
            &mut self.table,
            self.topo,
            scmp,
            REVOCATION_TTL,
            active,
            &mut self.ledger,
            now,
            tel,
        );
        self.segments_revoked += outcome.segments_revoked as u64;
        self.arm_restore_timer(now, engine);
        tel.profile
            .record_ns(phase::RECOVERY_SCMP, wall.elapsed().as_nanos() as u64);
    }

    /// Keeps one restore timer armed at the revocation table's next
    /// expiry. Renewals move expiries later; a stale early timer is a
    /// cheap no-op that re-arms itself.
    fn arm_restore_timer(&mut self, now: SimTime, engine: &mut Engine<Msg>) {
        if let Some(expiry) = self.table.next_expiry() {
            let at = expiry.max(now);
            let stale = match self.restore_armed {
                Some(armed) => armed < now || at < armed,
                None => true,
            };
            if stale {
                engine.schedule_timer(at, AsIndex(0), KIND_RESTORE);
                self.restore_armed = Some(at);
            }
        }
    }

    fn on_restore(&mut self, now: SimTime, engine: &mut Engine<Msg>, tel: &mut Telemetry) {
        if self.restore_armed == Some(now) {
            self.restore_armed = None;
        }
        self.segments_restored +=
            restore_lapsed_revocations(&mut self.ps, &mut self.table, now, tel) as u64;
        self.arm_restore_timer(now, engine);
    }

    /// Arm (a)'s periodic reconvergence: every daemon re-installs the path
    /// server's current live (unrevoked, unexpired) view for its
    /// destination — the no-SCMP recovery baseline.
    fn on_reconverge(&mut self, now: SimTime, engine: &mut Engine<Msg>) {
        for fi in 0..self.flows.len() {
            let flow = &self.flows[fi];
            let paths = self.live_paths_for(flow.src_ia, flow.dst_ia, now);
            if !paths.is_empty() {
                self.fstates[fi].daemon.install_paths(flow.dst_ia, paths);
            }
        }
        let next = now + RECONVERGE_INTERVAL;
        if next <= self.end {
            engine.schedule_timer(next, AsIndex(0), KIND_RECONVERGE);
        }
    }

    /// The server's live down-segments from `src` to `dst`, as end-to-end
    /// paths.
    fn live_paths_for(&self, src: IsdAsn, dst: IsdAsn, now: SimTime) -> Vec<EndToEndPath> {
        self.ps
            .lookup_down(dst, now)
            .expect("recovery path server is core")
            .into_iter()
            .filter(|seg| seg.forward_hops().next().map(|h| h.0) == Some(src))
            .map(|seg| EndToEndPath {
                hops: seg.forward_hops().collect(),
            })
            .collect()
    }

    fn begin_query(
        &mut self,
        fi: usize,
        now: SimTime,
        engine: &mut Engine<Msg>,
        tel: &mut Telemetry,
    ) {
        if self.fstates[fi].pending_query.is_some() {
            return;
        }
        let dst = self.flows[fi].dst_ia;
        let resolver = self.fstates[fi]
            .resolver
            .get_or_insert_with(|| Resolver::new(ResolverConfig::default()));
        let id = resolver.begin(now, dst);
        let deadline = resolver.next_deadline();
        self.fstates[fi].pending_query = Some(id);
        self.requeries += 1;
        tel.inc(ids::RECOVERY_REQUERIES, Label::As(self.flows[fi].src.0), 1);
        engine.send_at(
            now + QUERY_DELAY,
            self.ps_node,
            LinkIndex(0),
            Msg::Query { flow: fi, id },
        );
        if let Some(at) = deadline {
            engine.schedule_timer(at.max(now), AsIndex(fi as u32), KIND_RESOLVER);
        }
    }

    fn on_query(
        &mut self,
        fi: usize,
        id: u64,
        now: SimTime,
        engine: &mut Engine<Msg>,
        tel: &mut Telemetry,
    ) {
        let wall = Instant::now();
        let flow = &self.flows[fi];
        let paths = self.live_paths_for(flow.src_ia, flow.dst_ia, now);
        // A server with nothing live stays silent; the resolver's timeout
        // machinery drives the retries.
        if !paths.is_empty() {
            engine.send_at(
                now + QUERY_DELAY,
                flow.src,
                LinkIndex(0),
                Msg::Response {
                    flow: fi,
                    id,
                    paths,
                },
            );
        }
        tel.profile
            .record_ns(phase::RECOVERY_REQUERY, wall.elapsed().as_nanos() as u64);
    }

    fn on_response(
        &mut self,
        fi: usize,
        id: u64,
        paths: Vec<EndToEndPath>,
        now: SimTime,
        engine: &mut Engine<Msg>,
        tel: &mut Telemetry,
    ) {
        let wall = Instant::now();
        let dst = self.flows[fi].dst_ia;
        if let Some(resolver) = self.fstates[fi].resolver.as_mut() {
            resolver.on_response(id);
        }
        if self.fstates[fi].pending_query == Some(id) {
            self.fstates[fi].pending_query = None;
        }
        // The server's answer is authoritative even if the resolver had
        // already given this attempt up.
        self.fstates[fi].daemon.install_paths(dst, paths);
        let retransmit = self
            .choose_path(fi, now, engine, tel)
            .map(|p| vec![(fi, p)]);
        if let Some(sends) = retransmit {
            self.dispatch_sends(&sends, now, engine, tel);
        }
        tel.profile
            .record_ns(phase::RECOVERY_REQUERY, wall.elapsed().as_nanos() as u64);
    }

    fn on_resolver(
        &mut self,
        fi: usize,
        now: SimTime,
        engine: &mut Engine<Msg>,
        tel: &mut Telemetry,
    ) {
        let wall = Instant::now();
        let src = self.flows[fi].src.0;
        let mut resend: Vec<u64> = Vec::new();
        let mut exhausted: Vec<u64> = Vec::new();
        let mut next = None;
        if let Some(resolver) = self.fstates[fi].resolver.as_mut() {
            for action in resolver.due_actions(now) {
                match action {
                    RetryAction::Retry { id, .. } => resend.push(id),
                    RetryAction::Exhausted { id, .. } => exhausted.push(id),
                }
            }
            next = resolver.next_deadline();
        }
        for id in exhausted {
            self.requeries_exhausted += 1;
            if self.fstates[fi].pending_query == Some(id) {
                self.fstates[fi].pending_query = None;
            }
        }
        for id in resend {
            self.requeries += 1;
            tel.inc(ids::RECOVERY_REQUERIES, Label::As(src), 1);
            engine.send_at(
                now + QUERY_DELAY,
                self.ps_node,
                LinkIndex(0),
                Msg::Query { flow: fi, id },
            );
        }
        if let Some(at) = next {
            engine.schedule_timer(at.max(now), AsIndex(fi as u32), KIND_RESOLVER);
        }
        tel.profile
            .record_ns(phase::RECOVERY_REQUERY, wall.elapsed().as_nanos() as u64);
    }

    fn into_arm(self, victim: Option<usize>) -> RecoveryArm {
        let affected: Vec<(&Flow, &FlowState)> = self
            .flows
            .iter()
            .zip(&self.fstates)
            .filter(|(_, fs)| fs.first_loss_at.is_some())
            .collect();
        let outages: Vec<u64> = affected
            .iter()
            .map(|(_, fs)| fs.max_outage.as_micros())
            .collect();
        let losses: Vec<u64> = affected.iter().map(|(_, fs)| fs.lost).collect();
        let fast: Vec<&(&Flow, &FlowState)> =
            affected.iter().filter(|(_, fs)| fs.fast_failover).collect();
        let within_rtt = fast
            .iter()
            .filter(|(flow, fs)| match (fs.first_scmp_at, fs.recovered_at) {
                (Some(scmp), Some(rec)) => rec.since(scmp) <= flow.rtt_bound,
                _ => false,
            })
            .count();
        RecoveryArm {
            name: self.arm.label(),
            packets_sent: self.fstates.iter().map(|fs| fs.sent).sum(),
            delivered: self.fstates.iter().map(|fs| fs.delivered).sum(),
            lost: self.fstates.iter().map(|fs| fs.lost).sum(),
            no_path_drops: self.fstates.iter().map(|fs| fs.no_path).sum(),
            affected_flows: affected.len(),
            scmp_received: self.scmp_received,
            failovers: self.failovers,
            path_restorations: self.restorations,
            requeries: self.requeries,
            requeries_exhausted: self.requeries_exhausted,
            revocation_signals: self.revocation_signals,
            segments_revoked: self.segments_revoked,
            segments_restored: self.segments_restored,
            scmp_admitted: self.limiter.admitted(),
            scmp_suppressed: self.limiter.suppressed(),
            fast_failover_flows: fast.len(),
            fast_failover_within_rtt: within_rtt,
            victim_max_outage_us: victim.map(|fi| self.fstates[fi].max_outage.as_micros()),
            outage_us: OutageCdf::of(outages),
            packets_lost: OutageCdf::of(losses),
        }
    }
}

/// Runs the three-arm recovery experiment on the context's world;
/// `ctx.threads` sizes the dataplane's MAC-shard pool. All three arms
/// share one handle, disambiguated by run label.
pub fn run(ctx: &mut RunCtx) -> RecoveryResult {
    let world = ctx.world();
    let threads = ctx.threads;
    let mut handle = ctx.telemetry();
    let tel = &mut handle;
    let topo = &world.core;
    let seed = world.params.seed;
    let latency = LatencyModel::default_for(topo, seed);
    let pairs = sample_pairs(topo, world.params.quality_pairs, seed);
    let flows = build_flows(topo, &latency, &pairs);
    assert!(!flows.is_empty(), "sampled flows must be routable");

    // Fault schedule: the top-loaded primary links go down together, so
    // several flows lose their primary at once. One affected flow with a
    // full disjoint set is the designated victim: its first secondary
    // link fails shortly after, leaving it only its uncached third path.
    // The victim's alternatives are excluded from the top-up picks, so
    // the b-vs-c contrast (cached failover vs re-query) stays clean.
    // Everything is repaired at T_REPAIR.
    let ranked = primary_links_by_load(&flows);
    let head = *ranked.first().expect("flows traverse at least one link");
    let victim = flows
        .iter()
        .position(|f| f.paths.len() >= K_DISJOINT && f.path_links[0].contains(&head));
    let second_link = victim.map(|fi| flows[fi].path_links[1][0]);
    let mut excluded: HashSet<LinkIndex> = victim
        .map(|fi| flows[fi].path_links.iter().flatten().copied().collect())
        .unwrap_or_default();
    excluded.remove(&head);
    let mut failed_links = vec![head];
    for &li in ranked.iter().skip(1) {
        if failed_links.len() >= K_FAILED_LINKS {
            break;
        }
        if !excluded.contains(&li) {
            failed_links.push(li);
        }
    }
    let mut events: Vec<(SimTime, LinkFault)> = Vec::new();
    for &li in &failed_links {
        events.push((SimTime::ZERO + T_FAIL, LinkFault::LinkDown(li)));
        events.push((SimTime::ZERO + T_REPAIR, LinkFault::LinkUp(li)));
    }
    if let Some(li) = second_link {
        events.push((SimTime::ZERO + T_SECOND, LinkFault::LinkDown(li)));
        events.push((SimTime::ZERO + T_REPAIR, LinkFault::LinkUp(li)));
    }
    let schedule = FaultSchedule::from_events(events);

    let trust = TrustStore::bootstrap(
        (0..topo.num_ases()).map(|i| (topo.node(AsIndex(i as u32)).ia, true)),
        SimTime::ZERO + Duration::from_days(30),
    );
    let pool = WorkerPool::new(threads);

    let mut arms = Vec::with_capacity(3);
    for arm in [
        ArmKind::NoFailover,
        ArmKind::ScmpFailover,
        ArmKind::ScmpRequery,
    ] {
        tel.begin_run(arm.label());
        let mut sim = Sim::new(
            arm,
            topo,
            &latency,
            &flows,
            &pool,
            schedule.events(),
            &trust,
        );
        sim.run(tel);
        arms.push(sim.into_arm(victim));
    }

    let result = RecoveryResult {
        num_ases: topo.num_ases(),
        num_links: topo.num_links(),
        num_flows: flows.len(),
        seed,
        threads,
        window_us: WINDOW.as_micros(),
        tick_us: TICK_INTERVAL.as_micros(),
        fault_at_us: T_FAIL.as_micros(),
        second_fault_at_us: second_link.map(|_| T_SECOND.as_micros()),
        repair_at_us: T_REPAIR.as_micros(),
        reconverge_interval_us: RECONVERGE_INTERVAL.as_micros(),
        failure_ttl_us: FAILURE_TTL.as_micros(),
        revocation_ttl_us: REVOCATION_TTL.as_micros(),
        scmp_holdoff_us: SCMP_HOLDOFF.as_micros(),
        victim_flow: victim,
        primary_failed_links: failed_links.iter().map(|li| li.0).collect(),
        arms,
        tick_latency: quantiles(&tel.profile, phase::RECOVERY_TICK),
        scmp_latency: quantiles(&tel.profile, phase::RECOVERY_SCMP),
        requery_latency: quantiles(&tel.profile, phase::RECOVERY_REQUERY),
    };
    ctx.keep("", handle);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::forwarding::telemetry_fingerprint;
    use crate::experiments::world::World;
    use crate::scale::ExperimentScale;

    fn arm<'a>(r: &'a RecoveryResult, name: &str) -> &'a RecoveryArm {
        r.arms.iter().find(|a| a.name == name).expect("arm present")
    }

    #[test]
    fn flows_route_disjoint_and_verified() {
        let params = ExperimentScale::Bench.params();
        let world = World::build(params);
        let latency = LatencyModel::default_for(&world.core, params.seed);
        let pairs = sample_pairs(&world.core, params.quality_pairs, params.seed);
        let flows = build_flows(&world.core, &latency, &pairs);
        assert!(!flows.is_empty());
        for flow in &flows {
            for (path, links) in flow.paths.iter().zip(&flow.path_links) {
                path.check().expect("BFS path is well-formed");
                assert_eq!(path.links().len(), links.len());
            }
            // Link-disjointness across the flow's alternatives.
            let mut seen = HashSet::new();
            for links in &flow.path_links {
                for li in links {
                    assert!(seen.insert(*li), "paths of one flow share a link");
                }
            }
            assert!(flow.rtt_bound > Duration::ZERO);
        }
    }

    #[test]
    fn registered_segments_reconstruct_their_paths() {
        let params = ExperimentScale::Bench.params();
        let world = World::build(params);
        let latency = LatencyModel::default_for(&world.core, params.seed);
        let pairs = sample_pairs(&world.core, 6, params.seed);
        let flows = build_flows(&world.core, &latency, &pairs);
        let trust = TrustStore::bootstrap(
            (0..world.core.num_ases()).map(|i| (world.core.node(AsIndex(i as u32)).ia, true)),
            SimTime::ZERO + Duration::from_days(30),
        );
        for flow in &flows {
            for path in &flow.paths {
                let seg = segment_for_path(path, &trust);
                assert!(
                    seg.forward_hops().eq(path.hops.iter().copied()),
                    "segment round-trips the path"
                );
            }
        }
    }

    #[test]
    fn recovery_three_arms_close_the_loop() {
        let r = run(&mut RunCtx::new(ExperimentScale::Tiny).with_threads(2));
        assert_eq!(r.arms.len(), 3);
        let a = arm(&r, "no_failover");
        let b = arm(&r, "scmp_failover");
        let c = arm(&r, "scmp_requery");

        // Accounting closes: every sent packet is delivered or lost in
        // flight (no-path drops are losses that never entered the wire).
        for x in [a, b, c] {
            assert_eq!(x.packets_sent, x.delivered + (x.lost - x.no_path_drops));
            assert!(x.affected_flows > 0, "{}: the fault hit nobody", x.name);
        }

        // The baseline only moves off its primary at reconvergence (its
        // SCMPs are counted, never acted on) and never re-queries.
        assert!(a.scmp_received > 0);
        assert_eq!(a.requeries, 0);
        assert!(b.failovers >= 1);
        assert_eq!(b.requeries, 0);
        assert!(c.failovers >= 1);

        // §4.1 fast failover: every flow that had a live cached
        // alternative at its first SCMP recovered within one RTT of it.
        assert!(b.fast_failover_flows >= 1);
        assert_eq!(b.fast_failover_within_rtt, b.fast_failover_flows);
        assert_eq!(c.fast_failover_within_rtt, c.fast_failover_flows);

        // The limiter caps revocation signals at one per (link, holdoff):
        // exactly the admitted ones reach the server. The baseline's
        // endhosts keep hammering the dead link every tick, so its
        // repeats within the window are provably suppressed.
        for x in [a, b, c] {
            assert!(
                x.scmp_admitted >= 1,
                "{}: no revocation reached the server",
                x.name
            );
            assert_eq!(x.revocation_signals, x.scmp_admitted);
            assert!(x.segments_revoked >= 1);
        }
        assert!(a.scmp_suppressed > 0, "no_failover: limiter never engaged");
        assert!(a.scmp_admitted < a.scmp_received);

        // Baseline downtime is bounded by reconvergence: one cycle for
        // single-fault flows (p50), two for the double-fault victim (max).
        let reconv = r.reconverge_interval_us;
        let slack = 1_500_000; // tick + propagation + install-to-send
        assert!(
            a.outage_us.p50 <= reconv + slack,
            "no_failover p50 outage {} exceeds one reconvergence cycle",
            a.outage_us.p50
        );
        assert!(
            a.outage_us.max <= 2 * reconv + 2_000_000,
            "no_failover max outage {} exceeds two reconvergence cycles",
            a.outage_us.max
        );

        // Fast failover beats waiting for reconvergence.
        assert!(b.outage_us.p50 < a.outage_us.p50);

        // The victim contrast: with every cached path dead, arm (b) stays
        // dark until the repair, while arm (c)'s re-query recovers it via
        // the third, uncached path within about one query round-trip.
        if let Some(_fi) = r.victim_flow {
            let b_victim = b.victim_max_outage_us.expect("victim tracked");
            let c_victim = c.victim_max_outage_us.expect("victim tracked");
            assert!(c.requeries >= 1, "victim never re-queried");
            assert!(
                b_victim >= 4_000_000,
                "cached-only victim recovered suspiciously early: {b_victim}"
            );
            assert!(
                c_victim <= 1_500_000,
                "re-querying victim stayed dark too long: {c_victim}"
            );
            assert!(c_victim < b_victim);
        }
    }

    #[test]
    fn recovery_is_thread_count_invariant() {
        let mut one = RunCtx::new(ExperimentScale::Bench).recording();
        let mut four = RunCtx::new(ExperimentScale::Bench)
            .with_threads(4)
            .recording();
        let r1 = run(&mut one);
        let r4 = run(&mut four);
        let f1 = telemetry_fingerprint(one.dumped(""));
        let f4 = telemetry_fingerprint(four.dumped(""));
        if f1 != f4 {
            for (i, (x, y)) in f1.iter().zip(&f4).enumerate() {
                if x != y {
                    panic!("first divergence at {i}:\n  threads=1: {x}\n  threads=4: {y}");
                }
            }
            panic!("length mismatch: {} vs {}", f1.len(), f4.len());
        }
        for (x, y) in r1.arms.iter().zip(&r4.arms) {
            assert_eq!(x.packets_sent, y.packets_sent);
            assert_eq!(x.delivered, y.delivered);
            assert_eq!(x.lost, y.lost);
            assert_eq!(x.outage_us.max, y.outage_us.max);
        }
    }
}
