//! Failure-recovery experiment: live flows under link churn, SCMP
//! revocation propagation, and multipath fast failover versus control-plane
//! reconvergence (§4.1 "Path Revocations", §4.1 multipath failover).
//!
//! The recovery plane this experiment closes end to end:
//!
//! * **flows** — sender→receiver pairs keep sending a packet per tick
//!   through the instrumented dataplane ([`walk`]) along paths chosen by a
//!   per-source [`ScionDaemon`];
//! * **faults** — a seeded [`FaultSchedule`] takes down the most-loaded
//!   primary-path link, then a chosen victim flow's secondary-path link,
//!   and repairs both later, all at fixed virtual times;
//! * **SCMP** — a border router whose egress link is dead emits
//!   `ExternalInterfaceDown`, which travels *back along the traversed
//!   prefix* (with real link latency) to the source endhost, and — gated by
//!   a per-link [`ScmpLimiter`] — onward to the core path server;
//! * **revocation** — the path server revokes the failed link with a TTL
//!   ([`revoke_for_scmp`]): its lookups withhold every segment crossing a
//!   link under revocation, and serve it again once no link it crosses is
//!   revoked, with no timer and no segment moved;
//! * **re-resolution** — when every cached path is dead, the daemon's arm
//!   (c) falls back to a bounded-retry query against the path server,
//!   retried on the [`ReliableConfig::LOOKUP`] ladder.
//!
//! Three arms over the identical schedule, flows, and latency model, one
//! row each of the `ARMS` table (`failover`, `requery`):
//!
//! | arm | SCMP at endhost | path-server re-query |
//! |-----|-----------------|----------------------|
//! | `no_failover`   | ignored (counts only) | no — periodic reconvergence re-installs the server's live view |
//! | `scmp_failover` | instant failover over cached paths | no |
//! | `scmp_requery`  | instant failover over cached paths | yes, when all cached paths are dead |
//!
//! An arm without failover schedules the reconvergence timer; an arm with
//! re-query holds one lookup retry wheel, a [`ReliableSender`] whose
//! payload is the flow index, and arms one engine timer per deadline a
//! query or a retransmit sets.
//!
//! Every event runs through one [`Engine`] per arm, so all latencies are
//! virtual and deterministic; recording runs produce byte-identical
//! `metrics`/`series`/`trace` JSONL across reruns
//! (`tests/recovery_determinism.rs`).

use std::collections::{BTreeMap, BTreeSet, HashSet};

use serde::Serialize;

use scion_analysis::Cdf;
use scion_chaos::{revoke_for_scmp, FaultSchedule, LinkFault, LinkState};
use scion_crypto::trc::TrustStore;
use scion_dataplane::{walk, DeliveryError, Packet, ScmpLimiter, ScmpMessage};
use scion_endhost::ScionDaemon;
use scion_pathserver::PathServer;
use scion_proto::combine::EndToEndPath;
use scion_proto::pcb::Pcb;
use scion_proto::segment::{PathSegment, SegmentType};
use scion_reliable::{MsgId, ReliableConfig, ReliableSender, TimeoutAction};
use scion_simulator::{fault, Engine, Event, LatencyModel};
use scion_telemetry::trace::TraceEvent;
use scion_telemetry::{ids, phase, Label, Telemetry};
use scion_topology::{AsIndex, AsTopology, LinkIndex};
use scion_types::{Duration, IsdAsn, LinkEnd, SimTime};

use crate::experiments::fig6::sample_pairs;
use crate::experiments::forwarding::{quantiles, shortest_path, LatencyQuantiles};
use crate::experiments::RunCtx;

/// Send cadence of every flow.
const TICK_INTERVAL: Duration = Duration::from_millis(50);
/// Virtual window during which flows send; queued events drain fully
/// afterwards, so late arrivals and lookup retries still land.
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
/// Path-server revocation TTL (renewed by repeat SCMPs; a segment is served
/// again once no link it crosses is under a revocation in force).
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
/// A deadline of the lookup retry wheel is due.
const KIND_LOOKUP: u32 = 3;

/// Events on the wire (and local arrivals) between the planes.
enum Msg {
    /// A data packet reached its destination; `sent_at` keys recovery.
    Arrival { flow: usize, sent_at: SimTime },
    /// SCMP delivered back to the flow's source endhost.
    Scmp { flow: usize, scmp: ScmpMessage },
    /// Limiter-admitted SCMP delivered to the core path server.
    Revoke { scmp: ScmpMessage },
    /// Daemon→server path query (arm (c) only).
    Query { flow: usize, id: MsgId },
    /// Server→daemon response carrying live paths.
    Response {
        flow: usize,
        id: MsgId,
        paths: Vec<EndToEndPath>,
    },
}

/// One arm of the experiment: its record name and telemetry run label,
/// and the recovery mechanisms its endhosts run.
struct ArmSpec {
    name: &'static str,
    /// SCMP marks dead paths and the flow fails over at once over its
    /// cached set. Without it SCMP is counted and ignored, and every
    /// daemon re-installs the server's live view each
    /// [`RECONVERGE_INTERVAL`].
    failover: bool,
    /// A flow whose cached paths are all dead re-queries the path server.
    requery: bool,
}

/// The three arms, in record order.
const ARMS: [ArmSpec; 3] = [
    ArmSpec {
        name: "no_failover",
        failover: false,
        requery: false,
    },
    ArmSpec {
        name: "scmp_failover",
        failover: true,
        requery: false,
    },
    ArmSpec {
        name: "scmp_requery",
        failover: true,
        requery: true,
    },
];

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
    /// The flow's query on the lookup wheel, at most one at a time.
    pending_query: Option<MsgId>,
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

/// One arm of the experiment.
#[derive(Clone, Debug, Default, Serialize)]
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
    /// Arm (c) queries sent (initial sends plus timeout retries).
    pub requeries: u64,
    /// Queries that exhausted their attempt budget.
    pub requeries_exhausted: u64,
    /// Limiter-admitted SCMPs that reached the path server.
    pub revocation_signals: u64,
    /// Segments those revocations newly withheld from lookups.
    pub segments_revoked: u64,
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

/// Order statistics over affected flows (nearest rank; all zero when no
/// flow was affected).
#[derive(Clone, Debug, Default, Serialize)]
pub struct OutageCdf {
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub max: u64,
}

impl OutageCdf {
    fn of(values: Vec<u64>) -> OutageCdf {
        let cdf = Cdf::from_u64(values);
        if cdf.is_empty() {
            return OutageCdf::default();
        }
        let at = |q: f64| cdf.quantile(q) as u64;
        OutageCdf {
            p50: at(0.50),
            p90: at(0.90),
            p99: at(0.99),
            max: at(1.0),
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
    /// The arm's [`ArmSpec::failover`].
    failover: bool,
    /// The flows' lookup retry wheel, payload the flow index; present
    /// when the arm re-queries.
    lookups: Option<ReliableSender<usize>>,
    topo: &'a AsTopology,
    latency: &'a LatencyModel,
    flows: &'a [Flow],
    schedule: &'a [(SimTime, LinkFault)],
    fault_cursor: usize,
    state: LinkState,
    fstates: Vec<FlowState>,
    ps: PathServer,
    ps_node: AsIndex,
    limiter: ScmpLimiter,
    expiry: SimTime,
    end: SimTime,
    /// The arm's record: the counters the handlers keep are written here
    /// as they happen (so a run without telemetry still has them), the
    /// rest by [`Sim::into_arm`].
    out: RecoveryArm,
}

impl<'a> Sim<'a> {
    fn new(
        arm: &ArmSpec,
        topo: &'a AsTopology,
        latency: &'a LatencyModel,
        flows: &'a [Flow],
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
            failover: arm.failover,
            lookups: arm
                .requery
                .then(|| ReliableSender::new(ReliableConfig::LOOKUP)),
            topo,
            latency,
            flows,
            schedule,
            fault_cursor: 0,
            state: LinkState::new(topo),
            fstates: flows.iter().map(FlowState::new).collect(),
            ps,
            ps_node,
            limiter: ScmpLimiter::new(SCMP_HOLDOFF),
            expiry: SimTime::ZERO + SEG_LIFETIME,
            end: SimTime::ZERO + WINDOW,
            out: RecoveryArm {
                name: arm.name,
                ..RecoveryArm::default()
            },
        }
    }

    fn run(&mut self, tel: &mut Telemetry) {
        let mut engine: Engine<Msg> = Engine::new();
        engine.schedule_timer(SimTime::ZERO + TICK_INTERVAL, AsIndex(0), KIND_TICK);
        for (at, _) in self.schedule {
            engine.schedule_timer(*at, AsIndex(0), KIND_FAULT);
        }
        if !self.failover {
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
                    kind: KIND_LOOKUP, ..
                } => self.on_lookup_deadline(now, &mut engine, tel),
                Event::Timer { .. } => unreachable!("unknown timer kind"),
                Event::Deliver { msg, .. } => match msg {
                    Msg::Arrival { flow, sent_at } => self.on_arrival(flow, sent_at, now),
                    Msg::Scmp { flow, scmp } => self.on_scmp(flow, &scmp, now, &mut engine, tel),
                    Msg::Revoke { scmp } => self.on_revoke(&scmp, now, tel),
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
        fault::advance(self.schedule, &mut self.fault_cursor, &mut self.state, now).for_each(drop);
    }

    fn on_tick(&mut self, now: SimTime, engine: &mut Engine<Msg>, tel: &mut Telemetry) {
        let span = tel.profile.span(phase::RECOVERY_TICK);
        let mut sends: Vec<(usize, EndToEndPath)> = Vec::new();
        for fi in 0..self.flows.len() {
            if let Some(path) = self.choose_path(fi, now, engine, tel) {
                sends.push((fi, path));
            }
        }
        self.dispatch_sends(&sends, now, engine, tel);
        tel.profile.finish(span);
        let next = now + TICK_INTERVAL;
        if next <= self.end {
            engine.schedule_timer(next, AsIndex(0), KIND_TICK);
        }
    }

    /// Asks the flow's daemon for its current best path, emitting
    /// failover/restoration transitions; `None` records a no-path drop
    /// (and, in an arm that re-queries, starts a query).
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
                            self.out.failovers += 1;
                            tel.inc(ids::RECOVERY_FAILOVERS, Label::As(flow.src.0), 1);
                            tel.trace_event(now, || TraceEvent::PathFailedOver {
                                node: flow.src.0,
                                dst: flow.dst_ia,
                            });
                        }
                    } else if fs.failed_over {
                        fs.failed_over = false;
                        self.out.path_restorations += 1;
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
                self.begin_query(fi, now, engine, tel);
                None
            }
        }
    }

    /// Builds the tick's packets and walks them through the dataplane;
    /// outcomes are scheduled back into the engine after the link latency
    /// of the path prefix each packet crossed.
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
        let state = &self.state;
        let walked = walk(
            self.topo,
            &mut packets,
            now,
            |li| !state.link_usable(li),
            tel,
        );
        for (&(fi, _), walked) in sends.iter().zip(walked) {
            let flow = &self.flows[fi];
            let fs = &mut self.fstates[fi];
            fs.sent += 1;
            // `choose_path` left the sent path's links in `current_links`;
            // link state is frozen within a tick, so this is the latency
            // the packet met on the way.
            let delay = fs.current_links[..walked.links]
                .iter()
                .fold(Duration::ZERO, |acc, &li| {
                    acc + state.degraded_delay(li, self.latency.delay(li))
                });
            match walked.result {
                Ok(()) => {
                    engine.send_at(
                        now + delay,
                        flow.src,
                        LinkIndex(0),
                        Msg::Arrival {
                            flow: fi,
                            sent_at: now,
                        },
                    );
                    continue;
                }
                Err(DeliveryError::LinkDown(ScmpMessage::ExternalInterfaceDown {
                    at,
                    interface,
                    ..
                })) => {
                    let li = fs.current_links[walked.links];
                    let scmp = ScmpMessage::ExternalInterfaceDown {
                        at,
                        interface,
                        observed_at: now + delay,
                    };
                    // SCMP travels back along the traversed prefix.
                    engine.send_at(
                        now + delay + delay,
                        flow.src,
                        li,
                        Msg::Scmp {
                            flow: fi,
                            scmp: scmp.clone(),
                        },
                    );
                    // Rate-limited onward signal to the path server.
                    if self.limiter.admit(LinkEnd::new(at, interface), now) {
                        engine.send_at(
                            now + delay + REVOKE_PROP_DELAY,
                            self.ps_node,
                            li,
                            Msg::Revoke { scmp },
                        );
                    } else {
                        tel.inc(ids::FWD_SCMP_SUPPRESSED, Label::Global, 1);
                    }
                }
                // Any other drop is counted, not recovered.
                Err(_) => {}
            }
            fs.lost += 1;
            fs.first_loss_at.get_or_insert(now);
            fs.outage_start.get_or_insert(now);
        }
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
        let span = tel.profile.span(phase::RECOVERY_SCMP);
        let flow = &self.flows[fi];
        self.out.scmp_received += 1;
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
        // Without failover the endhost counts the signal but never acts
        // on it.
        if self.failover {
            self.fstates[fi].daemon.handle_scmp(scmp, now);
            if first {
                // The §4.1 claim: at the instant the failure notification
                // lands, a usable cached alternative already exists.
                let dst = flow.dst_ia;
                let usable = self.fstates[fi].daemon.best_path_at(dst, now).is_some();
                self.fstates[fi].fast_failover = usable;
            }
            // Immediate retransmit on whatever the daemon now prefers.
            if let Some(path) = self.choose_path(fi, now, engine, tel) {
                self.dispatch_sends(&[(fi, path)], now, engine, tel);
            }
        }
        tel.profile.finish(span);
    }

    fn on_revoke(&mut self, scmp: &ScmpMessage, now: SimTime, tel: &mut Telemetry) {
        let span = tel.profile.span(phase::RECOVERY_SCMP);
        self.out.revocation_signals += 1;
        let revoked = revoke_for_scmp(&mut self.ps, self.topo, scmp, REVOCATION_TTL, now, tel);
        self.out.segments_revoked += revoked as u64;
        tel.profile.finish(span);
    }

    /// Periodic reconvergence (an arm without failover): every daemon
    /// re-installs the path server's current live (unrevoked, unexpired)
    /// view for its destination — the no-SCMP recovery baseline.
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

    /// Sends flow `fi` a query to the path server and arms a timer at its
    /// first deadline, unless the arm does not re-query or the flow
    /// already waits on one.
    fn begin_query(
        &mut self,
        fi: usize,
        now: SimTime,
        engine: &mut Engine<Msg>,
        tel: &mut Telemetry,
    ) {
        let Some(lookups) = self.lookups.as_mut() else {
            return;
        };
        let fs = &mut self.fstates[fi];
        if fs.pending_query.is_some() {
            return;
        }
        let id = lookups.register(now, fi);
        fs.pending_query = Some(id);
        self.out.requeries += 1;
        tel.inc(ids::RECOVERY_REQUERIES, Label::As(self.flows[fi].src.0), 1);
        engine.send_at(
            now + QUERY_DELAY,
            self.ps_node,
            LinkIndex(0),
            Msg::Query { flow: fi, id },
        );
        if let Some(at) = lookups.deadline(id) {
            engine.schedule_timer(at, AsIndex(0), KIND_LOOKUP);
        }
    }

    fn on_query(
        &mut self,
        fi: usize,
        id: MsgId,
        now: SimTime,
        engine: &mut Engine<Msg>,
        tel: &mut Telemetry,
    ) {
        let span = tel.profile.span(phase::RECOVERY_REQUERY);
        let flow = &self.flows[fi];
        let paths = self.live_paths_for(flow.src_ia, flow.dst_ia, now);
        // A server with nothing live stays silent; the lookup's timeout
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
        tel.profile.finish(span);
    }

    fn on_response(
        &mut self,
        fi: usize,
        id: MsgId,
        paths: Vec<EndToEndPath>,
        now: SimTime,
        engine: &mut Engine<Msg>,
        tel: &mut Telemetry,
    ) {
        let span = tel.profile.span(phase::RECOVERY_REQUERY);
        let dst = self.flows[fi].dst_ia;
        if let Some(lookups) = self.lookups.as_mut() {
            lookups.on_ack(id);
        }
        if self.fstates[fi].pending_query == Some(id) {
            self.fstates[fi].pending_query = None;
        }
        // The server's answer is authoritative even if the wheel had
        // already given this attempt up.
        self.fstates[fi].daemon.install_paths(dst, paths);
        if let Some(path) = self.choose_path(fi, now, engine, tel) {
            self.dispatch_sends(&[(fi, path)], now, engine, tel);
        }
        tel.profile.finish(span);
    }

    /// Re-sends every due query, arming a timer at its next deadline, and
    /// drops the ones out of attempts.
    fn on_lookup_deadline(&mut self, now: SimTime, engine: &mut Engine<Msg>, tel: &mut Telemetry) {
        let span = tel.profile.span(phase::RECOVERY_REQUERY);
        let lookups = self
            .lookups
            .as_mut()
            .expect("only an arm that re-queries arms lookup timers");
        for action in lookups.due_actions(now) {
            match action {
                TimeoutAction::Retransmit { id, payload: fi } => {
                    self.out.requeries += 1;
                    tel.inc(ids::RECOVERY_REQUERIES, Label::As(self.flows[fi].src.0), 1);
                    engine.send_at(
                        now + QUERY_DELAY,
                        self.ps_node,
                        LinkIndex(0),
                        Msg::Query { flow: fi, id },
                    );
                    if let Some(at) = lookups.deadline(id) {
                        engine.schedule_timer(at, AsIndex(0), KIND_LOOKUP);
                    }
                }
                TimeoutAction::GiveUp { id, payload: fi } => {
                    self.out.requeries_exhausted += 1;
                    let fs = &mut self.fstates[fi];
                    if fs.pending_query == Some(id) {
                        fs.pending_query = None;
                    }
                }
            }
        }
        tel.profile.finish(span);
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
            packets_sent: self.fstates.iter().map(|fs| fs.sent).sum(),
            delivered: self.fstates.iter().map(|fs| fs.delivered).sum(),
            lost: self.fstates.iter().map(|fs| fs.lost).sum(),
            no_path_drops: self.fstates.iter().map(|fs| fs.no_path).sum(),
            affected_flows: affected.len(),
            scmp_admitted: self.limiter.admitted(),
            scmp_suppressed: self.limiter.suppressed(),
            fast_failover_flows: fast.len(),
            fast_failover_within_rtt: within_rtt,
            victim_max_outage_us: victim.map(|fi| self.fstates[fi].max_outage.as_micros()),
            outage_us: OutageCdf::of(outages),
            packets_lost: OutageCdf::of(losses),
            ..self.out
        }
    }
}

/// Runs the three-arm recovery experiment on the context's world. All
/// three arms share one handle, disambiguated by run label.
pub fn run(ctx: &mut RunCtx) -> RecoveryResult {
    let world = ctx.world();
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

    let mut arms = Vec::with_capacity(ARMS.len());
    for arm in &ARMS {
        tel.begin_run(arm.name);
        let mut sim = Sim::new(arm, topo, &latency, &flows, schedule.events(), &trust);
        sim.run(tel);
        arms.push(sim.into_arm(victim));
    }

    let result = RecoveryResult {
        num_ases: topo.num_ases(),
        num_links: topo.num_links(),
        num_flows: flows.len(),
        seed,
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
    use crate::experiments::world::World;
    use crate::scale::ExperimentScale;

    #[test]
    fn outage_cdf_is_nearest_rank_and_zero_when_empty() {
        let z = OutageCdf::of(Vec::new());
        assert_eq!((z.p50, z.p90, z.p99, z.max), (0, 0, 0, 0));
        let c = OutageCdf::of((1..=10).rev().collect());
        assert_eq!((c.p50, c.p90, c.p99, c.max), (5, 9, 10, 10));
        let one = OutageCdf::of(vec![7]);
        assert_eq!((one.p50, one.p90, one.p99, one.max), (7, 7, 7, 7));
    }

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
        let r = run(&mut RunCtx::new(ExperimentScale::Tiny));
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

    /// Recording changes what is observed, never what happens: the arms
    /// come out the same, and only the recording run reports wall-clock
    /// latencies.
    #[test]
    fn recording_changes_no_outcome_and_alone_reports_latencies() {
        let plain = run(&mut RunCtx::new(ExperimentScale::Tiny));
        let recorded = run(&mut RunCtx::new(ExperimentScale::Tiny).recording());
        let arms = |r: &RecoveryResult| serde_json::to_string(&r.arms).unwrap();
        assert_eq!(arms(&plain), arms(&recorded));

        assert!(plain.tick_latency.is_none());
        assert!(plain.scmp_latency.is_none());
        assert!(plain.requery_latency.is_none());
        assert!(recorded.tick_latency.is_some());
        assert!(recorded.scmp_latency.is_some());
        assert!(recorded.requery_latency.is_some());
    }
}
