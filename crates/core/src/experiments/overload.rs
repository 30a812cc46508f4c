//! Flash-crowd overload experiment for the path-lookup control plane
//! (ours; §4.1's lookup amortization under stress).
//!
//! A single front-end path server — the local server of a busy AS — faces
//! an open-loop flash crowd of segment lookups swept from 0.5× to 8× of
//! its service capacity. Destination popularity is Zipf (§4.1: "due to the
//! Zipf distribution of Internet traffic's destinations"): the hot head is
//! cached fresh, the cold tail is only stale-cached (expired within
//! [`PathServer::STALE_GRACE`]) and normally requires a fan-out to an
//! upstream core server with a fraction of the front-end's capacity. A
//! trickle of registrations and revocations rides along as maintenance
//! traffic.
//!
//! Three arms at every load point, same arrival schedule:
//!
//! 1. **`baseline`** — no protection: an unbounded FIFO, every lookup
//!    admitted, every miss fanned out. Under overload the queue grows
//!    without bound, time-in-queue blows past the client deadline, and
//!    service capacity is spent on requests whose requester has already
//!    given up — goodput collapses while the server stays "busy".
//! 2. **`shed`** — the mechanisms of [`scion_pathserver::overload`] in
//!    front of the server: per-client token buckets (lookups pay a token;
//!    registrations and revocations bypass them) ahead of a bounded
//!    queue with priority ordering (revocations > registrations >
//!    cache-hit lookups > cache-miss lookups) and deterministic eviction
//!    of the lowest-priority queued work. Shed lookups answer with an
//!    explicit busy signal the client backs off on
//!    ([`ReliableSender::on_busy`]).
//! 3. **`full`** — shedding plus brownout (above the occupancy threshold,
//!    cache-miss lookups are answered from stale-but-valid cache instead
//!    of fanning out) and a circuit breaker on the upstream (consecutive
//!    fan-out timeouts trip it open; while open, misses short-circuit to
//!    stale serving; a half-open probe tests recovery; a failed fan-out
//!    is answered stale).
//!
//! An arm holds each mechanism it runs as an `Option` — buckets and queue
//! together in `shed` and `full`, brownout controller and breaker in
//! `full` — so what is present decides what happens, and a missing queue
//! means the baseline's FIFO. The tuning is the constants beside [`OverloadParams`].
//!
//! Modeling notes, all integer and deterministic:
//!
//! * Time advances in fixed ticks; every request is a row in a BTreeMap
//!   keyed by id. The arrival schedule is a pure function of
//!   `(seed, load, tick, slot)` and is pre-generated once per load.
//! * Clients retry on timeout through the real [`ReliableSender`] wheel
//!   (exponential backoff); a busy signal re-arms the penalized schedule,
//!   and a retry whose original deadline has already lapsed is abandoned
//!   instead of re-offered — nobody re-asks for an answer they no longer
//!   want.
//! * The upstream core server is a FIFO with bounded per-tick capacity;
//!   a fan-out that waits longer than the upstream timeout fails. Tail
//!   misses are *not* cached on completion: the cold tail stands in for
//!   the long tail of distinct origins, so upstream pressure is sustained.
//! * After the arrival window, a drain phase with no new arrivals lets
//!   queues empty, in-flight fan-outs settle, and the brownout controller
//!   exit — so `BrownoutExited` appears in the trace and goodput is not
//!   clipped at the window edge.
//!
//! Goodput is responses delivered within the client deadline, expressed
//! relative to the front-end's total service capacity over the arrival
//! window (`goodput_ratio`). The acceptance bar: at 4× offered load the
//! baseline arm stays below 50% while the full arm sustains at least 90%.

use std::collections::{BTreeMap, VecDeque};

use serde::Serialize;

use scion_crypto::trc::TrustStore;
use scion_pathserver::{
    AdmissionQueue, BreakerDecision, BrownoutController, BrownoutTransition, CircuitBreaker,
    ClientAdmission, LookupResult, PathServer, QueueOutcome, RequestClass, ShedReason, Ticket,
    MILLITOKENS_PER_REQUEST,
};
use scion_proto::pcb::Pcb;
use scion_proto::segment::{PathSegment, SegmentType};
use scion_reliable::{MsgId, ReliableConfig, ReliableSender, TimeoutAction};
use scion_telemetry::profile::phase;
use scion_telemetry::{ids, Label, Telemetry, TraceEvent};
use scion_types::{splitmix64, Asn, Duration, IfId, Isd, IsdAsn, SimTime};

use crate::experiments::RunCtx;
use crate::scale::ExperimentScale;

/// Offered load per sweep point, permille of front-end service capacity.
pub const LOAD_PERMILLE: [u32; 5] = [500, 1000, 2000, 4000, 8000];

/// Queue occupancy (permille) at which the `full` arm's brownout engages.
const BROWNOUT_ENTER_PERMILLE: u32 = 850;

/// Queue occupancy (permille) below which the `full` arm's brownout
/// releases; the gap to the enter threshold keeps the mode from flapping.
const BROWNOUT_EXIT_PERMILLE: u32 = 550;

/// Consecutive upstream failures that trip the `full` arm's breaker.
const BREAKER_FAILURE_THRESHOLD: u32 = 5;

/// How long a tripped breaker stays open before its half-open probe.
const BREAKER_COOLDOWN: Duration = Duration::from_secs(1);

/// Per-client burst: six lookups.
const CLIENT_BURST_MT: u64 = 6 * MILLITOKENS_PER_REQUEST;

/// One arm of the sweep: its record name, its telemetry run label per
/// sweep position, and the protections it runs.
struct ArmSpec {
    name: &'static str,
    /// Clamped for longer custom sweeps, whose tail points then share the
    /// last label.
    labels: [&'static str; LOAD_PERMILLE.len()],
    /// Per-client buckets ahead of the bounded priority queue.
    sheds: bool,
    /// Brownout and the upstream circuit breaker.
    degrades: bool,
}

/// The three arms, in record order.
const ARMS: [ArmSpec; 3] = [
    ArmSpec {
        name: "baseline",
        labels: [
            "baseline_x05",
            "baseline_x1",
            "baseline_x2",
            "baseline_x4",
            "baseline_x8",
        ],
        sheds: false,
        degrades: false,
    },
    ArmSpec {
        name: "shed",
        labels: ["shed_x05", "shed_x1", "shed_x2", "shed_x4", "shed_x8"],
        sheds: true,
        degrades: false,
    },
    ArmSpec {
        name: "full",
        labels: ["full_x05", "full_x1", "full_x2", "full_x4", "full_x8"],
        sheds: true,
        degrades: true,
    },
];

/// The front-end's node id in trace records (there is exactly one server).
const FRONT_END_NODE: u32 = 0;

/// Ids of maintenance (registration/revocation) requests live above this
/// base so they never collide with the retry wheel's lookup ids.
const CONTROL_ID_BASE: u64 = 1 << 40;

/// Sizing of one overload run; derived from the experiment scale.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct OverloadParams {
    /// Master seed of the arrival schedule.
    pub seed: u64,
    /// Virtual length of one tick, microseconds.
    pub tick_us: u64,
    /// Ticks with open-loop arrivals (the flash-crowd window).
    pub arrival_ticks: u64,
    /// Arrival-free ticks appended so queues drain and in-flight work
    /// settles before accounting closes.
    pub drain_ticks: u64,
    /// Front-end service slots per tick (its capacity).
    pub capacity_per_tick: u64,
    /// Upstream core-server service slots per tick.
    pub upstream_per_tick: u64,
    /// Round-trip ticks between upstream dequeue and the answer landing.
    pub upstream_rtt_ticks: u64,
    /// Upstream queue wait (ticks) after which a fan-out counts as failed.
    pub upstream_timeout_ticks: u64,
    /// Distinct clients (skewed popularity; the head is aggressive).
    pub num_clients: u32,
    /// Distinct lookup destinations (Zipf popularity).
    pub num_destinations: u32,
    /// Zipf exponent of destination popularity.
    pub zipf_s: f64,
    /// Cumulative popularity mass (permille) pre-cached fresh: requests
    /// to this hot head are cache hits, the rest are misses.
    pub hot_mass_permille: u32,
    /// Client deadline: a response later than this is useless.
    pub deadline_us: u64,
    /// A registration arrives every this many ticks (maintenance load).
    pub registration_every_ticks: u64,
    /// A revocation arrives every this many ticks.
    pub revocation_every_ticks: u64,
}

impl OverloadParams {
    /// Sizing for `scale`, seeded from the scale's master seed.
    pub fn for_scale(scale: ExperimentScale) -> OverloadParams {
        let seed = scale.params().seed;
        let (arrival_ticks, capacity, upstream, clients, dsts) = match scale {
            ExperimentScale::Bench => (100, 4, 1, 8, 32),
            ExperimentScale::Tiny => (500, 8, 1, 24, 64),
            ExperimentScale::Small => (800, 20, 2, 48, 128),
            ExperimentScale::Paper => (1200, 40, 5, 96, 256),
        };
        OverloadParams {
            seed,
            tick_us: 10_000,
            arrival_ticks,
            drain_ticks: 150,
            capacity_per_tick: capacity,
            upstream_per_tick: upstream,
            upstream_rtt_ticks: 2,
            upstream_timeout_ticks: 30,
            num_clients: clients,
            num_destinations: dsts,
            zipf_s: 0.9,
            hot_mass_permille: 700,
            deadline_us: 1_000_000,
            registration_every_ticks: 5,
            revocation_every_ticks: 25,
        }
    }

    /// Front-end capacity in requests per second.
    pub fn capacity_per_sec(&self) -> u64 {
        self.capacity_per_tick * (1_000_000 / self.tick_us)
    }

    /// The protected arms' queue bound: four ticks of service.
    fn queue_capacity(&self) -> usize {
        (self.capacity_per_tick * 4) as usize
    }

    /// The protected arms' per-client bucket refill: all clients together
    /// earn 1.2× front-end capacity.
    fn client_rate_mt_per_sec(&self) -> u64 {
        self.capacity_per_sec() * MILLITOKENS_PER_REQUEST * 12 / 10 / u64::from(self.num_clients)
    }

    /// The client-side retry tuning: the lookup ladder
    /// ([`ReliableConfig::LOOKUP`]) from a 300 ms base timeout, doubling
    /// per attempt, three attempts, and the 4× busy penalty — a shed lookup's
    /// re-ask lands after the 1 s deadline and is abandoned, so shedding
    /// never amplifies offered load.
    pub fn lookup_config(&self) -> ReliableConfig {
        ReliableConfig {
            base_timeout: Duration::from_millis(300),
            ..ReliableConfig::LOOKUP
        }
    }
}

/// Counters of one arm at one load point.
#[derive(Clone, Debug, Default, Serialize)]
pub struct OverloadArm {
    /// Arm name: `baseline`, `shed`, or `full`.
    pub name: String,
    /// Original arrivals (lookups plus maintenance trickle).
    pub offered: u64,
    /// Timeout retries re-offered by clients.
    pub retried: u64,
    /// Retries abandoned because the original deadline had lapsed.
    pub abandoned: u64,
    /// Requests that entered the service queue.
    pub admitted: u64,
    /// Lookups shed by an empty per-client token bucket.
    pub shed_rate_limited: u64,
    /// Lookups shed by a full queue of equal-or-higher-priority work.
    pub shed_queue_full: u64,
    /// Queued lookups evicted by higher-priority arrivals.
    pub shed_evicted: u64,
    /// Busy signals that re-armed a client deadline on the penalized
    /// schedule.
    pub busy_backoffs: u64,
    /// Lookups answered fresh (cache hit or completed fan-out).
    pub served_fresh: u64,
    /// Lookups answered stale under brownout or an open breaker.
    pub served_stale: u64,
    /// Maintenance requests (registrations/revocations) served.
    pub served_control: u64,
    /// Service slots wasted on requests already settled elsewhere.
    pub duplicate_serves: u64,
    /// Fan-outs sent upstream.
    pub upstream_sent: u64,
    /// Fan-outs the upstream answered.
    pub upstream_completed: u64,
    /// Fan-outs that timed out in the upstream queue.
    pub upstream_failed: u64,
    /// Responses delivered within the client deadline (the goodput).
    pub completed_in_deadline: u64,
    /// Responses delivered too late to be useful.
    pub completed_late: u64,
    /// Requests never usefully answered (retries exhausted or still
    /// pending when the run ended).
    pub failed: u64,
    /// `completed_in_deadline` relative to front-end capacity over the
    /// arrival window.
    pub goodput_ratio: f64,
    /// Median response latency of completed requests, microseconds.
    pub p50_us: u64,
    /// 99th-percentile response latency, microseconds.
    pub p99_us: u64,
    /// Deepest the service queue ever got.
    pub peak_queue_depth: u64,
    /// Brownout entries (full arm only).
    pub brownout_entries: u64,
    /// Brownout exits (full arm only).
    pub brownout_exits: u64,
    /// Circuit-breaker trips (full arm only).
    pub breaker_trips: u64,
    /// Half-open recovery probes (full arm only).
    pub breaker_probes: u64,
    /// Fan-outs short-circuited by an open breaker (full arm only).
    pub breaker_short_circuits: u64,
}

/// All three arms at one offered-load point.
#[derive(Clone, Debug, Serialize)]
pub struct OverloadPoint {
    /// Offered load, permille of front-end capacity.
    pub load_permille: u32,
    /// Open-loop arrivals per tick at this load.
    pub offered_per_tick: u64,
    /// `baseline`, `shed`, `full` — in that order.
    pub arms: Vec<OverloadArm>,
}

/// Everything the overload experiment measures.
#[derive(Clone, Debug, Serialize)]
pub struct OverloadResult {
    /// Master seed of the arrival schedules.
    pub seed: u64,
    /// The sizing the sweep ran at.
    pub params: OverloadParams,
    /// Destinations in the pre-cached hot head.
    pub hot_destinations: u32,
    /// One entry per sweep load, in [`LOAD_PERMILLE`] order.
    pub points: Vec<OverloadPoint>,
}

/// Runs the overload sweep over `ctx.loads_permille` (default
/// [`LOAD_PERMILLE`]), sized by `ctx.scale` and seeded from `ctx.params`.
/// The experiment builds its own single-server world, not the context's.
/// All arms and loads share one handle, disambiguated by run label.
pub fn run(ctx: &mut RunCtx) -> OverloadResult {
    let params = &OverloadParams {
        seed: ctx.params.seed,
        ..OverloadParams::for_scale(ctx.scale)
    };
    let loads = ctx.loads_permille.clone();
    let mut handle = ctx.telemetry();
    let tel = &mut handle;
    let world = OverloadWorld::build(params);
    let mut points = Vec::with_capacity(loads.len());
    for (i, &load) in loads.iter().enumerate() {
        let label_ix = i.min(LOAD_PERMILLE.len() - 1);
        let schedule = world.arrival_schedule(load);
        let offered_per_tick = params.capacity_per_tick * u64::from(load) / 1000;
        let arms = ARMS
            .iter()
            .map(|arm| {
                tel.begin_run(arm.labels[label_ix]);
                run_arm(&world, &schedule, arm, tel)
            })
            .collect();
        points.push(OverloadPoint {
            load_permille: load,
            offered_per_tick,
            arms,
        });
    }
    ctx.keep("", handle);
    OverloadResult {
        seed: params.seed,
        params: *params,
        hot_destinations: world.hot_destinations,
        points,
    }
}

/// One pre-generated arrival: which client asks for which destination.
#[derive(Clone, Copy)]
struct Arrival {
    client: u32,
    dst: u32,
}

/// Immutable per-experiment state shared by every arm and load point.
struct OverloadWorld {
    params: OverloadParams,
    /// Window start; stale tail entries expired 30 minutes before it.
    t0: SimTime,
    /// Cumulative integer Zipf weights over destination ranks.
    dst_cum: Vec<u64>,
    /// Cumulative integer weights over client ranks (mild skew: the top
    /// client is aggressive, the tail near-uniform).
    client_cum: Vec<u64>,
    /// Ranks below this are pre-cached fresh (cache hits).
    hot_destinations: u32,
    /// Pre-built down-segments per destination rank: `(fresh, stale)`
    /// variants; each run seeds its server cache from these.
    segments: Vec<PathSegment>,
}

impl OverloadWorld {
    fn build(params: &OverloadParams) -> OverloadWorld {
        let dst_cum = cumulative_weights(params.num_destinations, params.zipf_s);
        let client_cum = cumulative_weights(params.num_clients, 0.5);
        let total = *dst_cum.last().expect("at least one destination");
        let target = total as u128 * u128::from(params.hot_mass_permille) / 1000;
        let hot_destinations = dst_cum
            .iter()
            .position(|&c| u128::from(c) >= target)
            .map_or(params.num_destinations, |p| p as u32 + 1);

        // The cold tail expired 30 minutes before the window opens —
        // stale, but within the 1 h grace — while the hot head stays
        // fresh throughout.
        let t0 = SimTime::ZERO + Duration::from_hours(6) + Duration::from_mins(30);
        let core = ia_core();
        let trust = TrustStore::bootstrap(
            std::iter::once((core, true))
                .chain((0..params.num_destinations).map(|d| (ia_destination(d), false))),
            SimTime::ZERO + Duration::from_days(30),
        );
        let segments = (0..params.num_destinations)
            .map(|d| {
                let lifetime = if d < hot_destinations {
                    Duration::from_hours(12)
                } else {
                    Duration::from_hours(6)
                };
                let pcb = Pcb::originate(
                    core,
                    IfId(100 + d as u16),
                    SimTime::ZERO,
                    lifetime,
                    0,
                    &trust,
                )
                .extend(ia_destination(d), IfId(1), IfId::NONE, vec![], &trust);
                PathSegment::from_terminated_pcb(SegmentType::Down, pcb)
            })
            .collect();

        OverloadWorld {
            params: *params,
            t0,
            dst_cum,
            client_cum,
            hot_destinations,
            segments,
        }
    }

    /// A freshly seeded front-end server: hot head cached fresh, cold
    /// tail cached stale-within-grace.
    fn seeded_server(&self) -> PathServer {
        let mut server = PathServer::new(ia_front_end(), false);
        for (d, seg) in self.segments.iter().enumerate() {
            server.cache_insert(ia_destination(d as u32), vec![seg.clone()], SimTime::ZERO);
        }
        server
    }

    /// The open-loop arrival schedule at `load` permille of capacity: a
    /// pure function of `(seed, load, tick, slot)`, identical across arms.
    fn arrival_schedule(&self, load: u32) -> Vec<Vec<Arrival>> {
        let p = &self.params;
        let per_tick = p.capacity_per_tick * u64::from(load) / 1000;
        (0..p.arrival_ticks)
            .map(|t| {
                let base = splitmix64(p.seed ^ (u64::from(load) << 32) ^ t);
                (0..per_tick)
                    .map(|i| Arrival {
                        dst: pick(&self.dst_cum, splitmix64(base ^ (2 * i))),
                        client: pick(&self.client_cum, splitmix64(base ^ (2 * i + 1))),
                    })
                    .collect()
            })
            .collect()
    }
}

/// Everything known about one in-flight request.
struct Req {
    client: IsdAsn,
    dst: IsdAsn,
    class: RequestClass,
    arrived: SimTime,
    settled: bool,
}

/// The modeled upstream core server: a FIFO with bounded per-tick
/// capacity, a queue-wait timeout, and a fixed response RTT.
#[derive(Default)]
struct Upstream {
    /// `(issued_tick, request id)`.
    queue: VecDeque<(u64, u64)>,
    /// Request ids answered per tick.
    completions: BTreeMap<u64, Vec<u64>>,
}

/// Per-tick shed aggregation: `[class priority][reason as usize] ->
/// count`, flushed into at most one `RequestShed` trace record per pair
/// per tick.
type ShedCounts = [[u64; 3]; 4];

/// The `shed` and `full` arms' front door: per-client lookup buckets
/// ahead of the bounded priority queue.
struct Shedding {
    buckets: ClientAdmission,
    queue: AdmissionQueue,
}

struct ArmRun<'w> {
    world: &'w OverloadWorld,
    server: PathServer,
    /// Buckets and bounded queue (`shed` and `full`); without them every
    /// request waits in `fifo`.
    shedding: Option<Shedding>,
    /// Serves misses stale while the queue is crowded (`full`).
    brownout: Option<BrownoutController>,
    /// Guards the upstream; a failed fan-out is served stale (`full`).
    breaker: Option<CircuitBreaker>,
    /// The clients' lookup retry wheel; a lookup's request id is its
    /// message id.
    lookups: ReliableSender<()>,
    /// The baseline's unbounded FIFO, `(id, enqueued_at)`.
    fifo: VecDeque<(u64, SimTime)>,
    fifo_peak: u64,
    upstream: Upstream,
    reqs: BTreeMap<u64, Req>,
    next_control_id: u64,
    latencies: Vec<u64>,
    out: OverloadArm,
}

fn run_arm(
    world: &OverloadWorld,
    schedule: &[Vec<Arrival>],
    arm: &ArmSpec,
    tel: &mut Telemetry,
) -> OverloadArm {
    let p = &world.params;
    let mut run = ArmRun::new(world, arm);
    let total_ticks = p.arrival_ticks + p.drain_ticks;
    for t in 0..total_ticks {
        let now = world.t0 + Duration::from_micros(t * p.tick_us);
        run.upstream_tick(t, now, tel);

        let span = tel.profile.span(phase::OVERLOAD_ADMIT);
        let mut shed_counts = ShedCounts::default();
        // Due retries first: they re-enter the queue ahead of this tick's
        // fresh arrivals at equal priority (their offer time is `now` too,
        // but the queue's monotonic sequence keeps the order stable).
        for action in run.lookups.due_actions(now) {
            match action {
                TimeoutAction::Retransmit { id: MsgId(id), .. } => {
                    let req = run.reqs.get(&id).expect("retry of a known request");
                    if req.settled {
                        continue;
                    }
                    if now.as_micros() - req.arrived.as_micros() > p.deadline_us {
                        run.out.abandoned += 1;
                        continue;
                    }
                    run.out.retried += 1;
                    run.offer(id, now, &mut shed_counts);
                }
                TimeoutAction::GiveUp { .. } => {
                    // Settled terminally when the entry leaves the wheel;
                    // final failure accounting happens at run end.
                }
            }
        }
        for arrival in schedule.get(t as usize).map_or(&[][..], |v| &v[..]) {
            let class = if arrival.dst < world.hot_destinations {
                RequestClass::LookupHit
            } else {
                RequestClass::LookupMiss
            };
            let (client, dst) = (ia_client(arrival.client), ia_destination(arrival.dst));
            run.arrive(client, dst, class, now, &mut shed_counts);
        }
        if t < p.arrival_ticks {
            for (class, every) in [
                (RequestClass::Registration, p.registration_every_ticks),
                (RequestClass::Revocation, p.revocation_every_ticks),
            ] {
                if every > 0 && t % every == 0 {
                    run.arrive(ia_control_plane(), ia_core(), class, now, &mut shed_counts);
                }
            }
        }
        run.update_brownout(now, tel);
        run.flush_shed_traces(&shed_counts, now, tel);
        let depth = run
            .shedding
            .as_ref()
            .map_or(run.fifo.len(), |s| s.queue.len());
        tel.sample(now, ids::PS_QUEUE_DEPTH, Label::Global, depth as f64);
        tel.profile.finish(span);

        let span = tel.profile.span(phase::OVERLOAD_SERVE);
        run.service_tick(t, now, tel);
        tel.profile.finish(span);
    }

    run.finish(tel)
}

impl<'w> ArmRun<'w> {
    /// A fresh run of `arm`: a seeded server, an empty retry wheel, and
    /// the protections the arm runs.
    fn new(world: &'w OverloadWorld, arm: &ArmSpec) -> ArmRun<'w> {
        let p = &world.params;
        ArmRun {
            world,
            server: world.seeded_server(),
            shedding: arm.sheds.then(|| Shedding {
                buckets: ClientAdmission::new(p.client_rate_mt_per_sec(), CLIENT_BURST_MT),
                queue: AdmissionQueue::new(p.queue_capacity()),
            }),
            brownout: arm
                .degrades
                .then(|| BrownoutController::new(BROWNOUT_ENTER_PERMILLE, BROWNOUT_EXIT_PERMILLE)),
            breaker: arm
                .degrades
                .then(|| CircuitBreaker::new(BREAKER_FAILURE_THRESHOLD, BREAKER_COOLDOWN)),
            lookups: ReliableSender::new(p.lookup_config()),
            fifo: VecDeque::new(),
            fifo_peak: 0,
            upstream: Upstream::default(),
            reqs: BTreeMap::new(),
            next_control_id: CONTROL_ID_BASE,
            latencies: Vec::new(),
            out: OverloadArm {
                name: arm.name.to_string(),
                ..OverloadArm::default()
            },
        }
    }

    /// Records one original arrival and offers it; returns its id. A
    /// lookup's id comes from the clients' retry wheel, maintenance
    /// requests count up from [`CONTROL_ID_BASE`].
    fn arrive(
        &mut self,
        client: IsdAsn,
        dst: IsdAsn,
        class: RequestClass,
        now: SimTime,
        shed_counts: &mut ShedCounts,
    ) -> u64 {
        let id = if class.is_lookup() {
            self.lookups.register(now, ()).0
        } else {
            let id = self.next_control_id;
            self.next_control_id += 1;
            id
        };
        let req = Req {
            client,
            dst,
            class,
            arrived: now,
            settled: false,
        };
        self.reqs.insert(id, req);
        self.out.offered += 1;
        self.offer(id, now, shed_counts);
        id
    }

    /// Offers one request (fresh or retried). Without a queue the FIFO
    /// takes it; otherwise a lookup first pays its client's bucket a
    /// token, then the bounded queue admits it, evicts worse work for it,
    /// or rejects it. Whatever is shed gets the busy signal.
    fn offer(&mut self, id: u64, now: SimTime, shed_counts: &mut ShedCounts) {
        let req = self.reqs.get(&id).expect("offer of a known request");
        let (client, class) = (req.client, req.class);
        let Some(Shedding { buckets, queue }) = &mut self.shedding else {
            self.fifo.push_back((id, now));
            self.fifo_peak = self.fifo_peak.max(self.fifo.len() as u64);
            self.out.admitted += 1;
            return;
        };
        let shed = if class.is_lookup() && !buckets.admit(client, now) {
            Some((class, ShedReason::RateLimited, id))
        } else {
            let ticket = Ticket {
                id,
                client,
                class,
                arrived: now,
            };
            match queue.offer(ticket) {
                QueueOutcome::Enqueued => None,
                QueueOutcome::EnqueuedEvicting(victim) => {
                    Some((victim.class, ShedReason::Evicted, victim.id))
                }
                QueueOutcome::Rejected => Some((class, ShedReason::QueueFull, id)),
            }
        };
        if let Some((class, reason, id)) = shed {
            shed_counts[class.priority() as usize][reason as usize] += 1;
            // The client re-arms its deadline on the penalized backoff
            // schedule; maintenance requests have no retry wheel.
            if id < CONTROL_ID_BASE {
                self.lookups.on_busy(MsgId(id), now);
            }
        }
    }

    /// Feeds the brownout controller the queue's occupancy and traces the
    /// transition it makes, if any.
    fn update_brownout(&mut self, now: SimTime, tel: &mut Telemetry) {
        let (Some(brownout), Some(shedding)) = (&mut self.brownout, &self.shedding) else {
            return;
        };
        let (node, utilization_permille) = (FRONT_END_NODE, shedding.queue.occupancy_permille());
        let Some(transition) = brownout.observe(utilization_permille) else {
            return;
        };
        tel.trace_event(now, || match transition {
            BrownoutTransition::Entered => TraceEvent::BrownoutEntered {
                node,
                utilization_permille,
            },
            BrownoutTransition::Exited => TraceEvent::BrownoutExited {
                node,
                utilization_permille,
            },
        });
    }

    /// Settles one request with a useful answer at `now`.
    fn respond(&mut self, id: u64, now: SimTime) {
        if id >= CONTROL_ID_BASE {
            let req = self.reqs.get_mut(&id).expect("control request exists");
            req.settled = true;
        } else if !self.lookups.on_ack(MsgId(id)) {
            return;
        } else {
            self.reqs
                .get_mut(&id)
                .expect("lookup request exists")
                .settled = true;
        }
        let req = &self.reqs[&id];
        let latency = now.as_micros() - req.arrived.as_micros();
        self.latencies.push(latency);
        if latency <= self.world.params.deadline_us {
            self.out.completed_in_deadline += 1;
        } else {
            self.out.completed_late += 1;
        }
    }

    /// One upstream tick: deliver due completions, fail timed-out queue
    /// entries, then process up to the upstream's per-tick capacity.
    fn upstream_tick(&mut self, t: u64, now: SimTime, tel: &mut Telemetry) {
        let p = &self.world.params;
        if let Some(due) = self.upstream.completions.remove(&t) {
            for id in due {
                self.out.upstream_completed += 1;
                if let Some(breaker) = &mut self.breaker {
                    breaker.on_success();
                }
                if !self.reqs[&id].settled {
                    self.out.served_fresh += 1;
                    self.respond(id, now);
                }
            }
        }
        while let Some(&(issued, id)) = self.upstream.queue.front() {
            if t - issued <= p.upstream_timeout_ticks {
                break;
            }
            self.upstream.queue.pop_front();
            self.out.upstream_failed += 1;
            let Some(breaker) = &mut self.breaker else {
                continue;
            };
            if breaker.on_failure(now) {
                tel.trace_event(now, || TraceEvent::BreakerTripped {
                    node: FRONT_END_NODE,
                    failures: BREAKER_FAILURE_THRESHOLD,
                });
            }
            if !self.reqs[&id].settled {
                self.serve_stale(id, now);
            }
        }
        for _ in 0..p.upstream_per_tick {
            let Some((_, id)) = self.upstream.queue.pop_front() else {
                break;
            };
            self.upstream
                .completions
                .entry(t + p.upstream_rtt_ticks)
                .or_default()
                .push(id);
        }
    }

    /// Serves a cache-miss lookup from the stale-but-valid cache.
    fn serve_stale(&mut self, id: u64, now: SimTime) {
        let dst = self.reqs[&id].dst;
        if self.server.lookup_stale(dst, now).is_some() {
            self.out.served_stale += 1;
            self.respond(id, now);
        }
    }

    /// One service tick: up to `capacity_per_tick` dequeues.
    fn service_tick(&mut self, t: u64, now: SimTime, tel: &mut Telemetry) {
        for _ in 0..self.world.params.capacity_per_tick {
            let next = match &mut self.shedding {
                Some(shedding) => shedding.queue.pop().map(|tk| (tk.id, tk.arrived)),
                None => self.fifo.pop_front(),
            };
            let Some((id, enqueued)) = next else {
                break;
            };
            tel.observe(
                ids::PS_TIME_IN_QUEUE_US,
                Label::Global,
                (now.as_micros() - enqueued.as_micros()) as f64,
            );
            let req = &self.reqs[&id];
            if req.settled {
                self.out.duplicate_serves += 1;
                continue;
            }
            let (dst, class) = (req.dst, req.class);
            match class {
                RequestClass::Revocation | RequestClass::Registration => {
                    self.out.served_control += 1;
                    self.respond(id, now);
                }
                RequestClass::LookupHit | RequestClass::LookupMiss => {
                    match self.server.lookup_cached(dst, now) {
                        LookupResult::Hit(_) => {
                            self.out.served_fresh += 1;
                            self.respond(id, now);
                        }
                        LookupResult::Miss => self.fan_out(id, t, now),
                    }
                }
            }
        }
    }

    /// Routes one cache-miss lookup: answered stale under brownout or by
    /// an open breaker, sent to the upstream queue otherwise.
    fn fan_out(&mut self, id: u64, t: u64, now: SimTime) {
        let browned_out = self
            .brownout
            .as_ref()
            .is_some_and(BrownoutController::active);
        let decision = if browned_out {
            BreakerDecision::ShortCircuit
        } else {
            self.breaker
                .as_mut()
                .map_or(BreakerDecision::Forward, |breaker| breaker.decide(now))
        };
        if decision == BreakerDecision::ShortCircuit {
            self.serve_stale(id, now);
        } else {
            self.out.upstream_sent += 1;
            self.upstream.queue.push_back((t, id));
        }
    }

    /// Emits the per-tick aggregated `RequestShed` records: one per
    /// `(class, reason)` pair with a non-zero count, in fixed order.
    fn flush_shed_traces(&self, shed: &ShedCounts, now: SimTime, tel: &mut Telemetry) {
        for class in RequestClass::ALL {
            for reason in [
                ShedReason::RateLimited,
                ShedReason::QueueFull,
                ShedReason::Evicted,
            ] {
                let count = shed[class.priority() as usize][reason as usize];
                if count > 0 {
                    tel.trace_event(now, || TraceEvent::RequestShed {
                        node: FRONT_END_NODE,
                        class: class.name(),
                        reason: reason.name(),
                        count,
                    });
                }
            }
        }
    }

    /// Final accounting: fold each present mechanism's counters and the
    /// retry wheel's into the arm record, and flush the per-run telemetry
    /// counters — every one, zeros included, in every arm.
    fn finish(mut self, tel: &mut Telemetry) -> OverloadArm {
        let p = &self.world.params;
        let out = &mut self.out;
        match &self.shedding {
            Some(Shedding { buckets, queue }) => {
                out.shed_rate_limited = buckets.limited();
                out.admitted = queue.admitted();
                out.shed_queue_full = queue.rejected_full();
                out.shed_evicted = queue.evicted();
                out.peak_queue_depth = queue.peak_depth() as u64;
            }
            None => out.peak_queue_depth = self.fifo_peak,
        }
        if let Some(brownout) = &self.brownout {
            out.brownout_entries = brownout.entries();
            out.brownout_exits = brownout.exits();
        }
        if let Some(breaker) = &self.breaker {
            out.breaker_trips = breaker.trips();
            out.breaker_probes = breaker.probes();
            out.breaker_short_circuits = breaker.short_circuits();
        }
        out.busy_backoffs = self.lookups.stats().busy_backoffs;
        out.failed = self.reqs.values().filter(|r| !r.settled).count() as u64;
        self.latencies.sort_unstable();
        out.p50_us = percentile(&self.latencies, 50);
        out.p99_us = percentile(&self.latencies, 99);
        let capacity_total = p.capacity_per_tick * p.arrival_ticks;
        out.goodput_ratio = if capacity_total == 0 {
            0.0
        } else {
            out.completed_in_deadline as f64 / capacity_total as f64
        };

        for (id, value) in [
            (ids::PS_OVERLOAD_ADMITTED, out.admitted),
            (ids::PS_SHED_RATE_LIMITED, out.shed_rate_limited),
            (ids::PS_SHED_QUEUE_FULL, out.shed_queue_full),
            (ids::PS_SHED_EVICTED, out.shed_evicted),
            (ids::PS_BROWNOUT_ENTRIES, out.brownout_entries),
            (ids::PS_BROWNOUT_EXITS, out.brownout_exits),
            (ids::PS_BROWNOUT_STALE_SERVES, out.served_stale),
            (ids::PS_BREAKER_TRIPS, out.breaker_trips),
            (ids::PS_BREAKER_PROBES, out.breaker_probes),
            (ids::PS_BREAKER_SHORT_CIRCUITS, out.breaker_short_circuits),
            (ids::RELIABLE_BUSY_BACKOFFS, out.busy_backoffs),
        ] {
            tel.inc(id, Label::Global, value);
        }
        self.out
    }
}

/// The front-end path server's AS.
fn ia_front_end() -> IsdAsn {
    IsdAsn::new(Isd(1), Asn::from_u64(1))
}

/// The upstream core server's AS (origin of every down-segment).
fn ia_core() -> IsdAsn {
    IsdAsn::new(Isd(1), Asn::from_u64(2))
}

/// The infrastructure peer sending registrations and revocations.
fn ia_control_plane() -> IsdAsn {
    IsdAsn::new(Isd(1), Asn::from_u64(999))
}

/// Client AS of popularity rank `r`.
fn ia_client(r: u32) -> IsdAsn {
    IsdAsn::new(Isd(1), Asn::from_u64(1_000 + u64::from(r)))
}

/// Destination AS of popularity rank `d`.
fn ia_destination(d: u32) -> IsdAsn {
    IsdAsn::new(Isd(1), Asn::from_u64(2_000 + u64::from(d)))
}

/// Cumulative integer power-law weights over `n` ranks with exponent `s`
/// (weight of rank r is `1e9 / (r+1)^s`, floored at 1).
fn cumulative_weights(n: u32, s: f64) -> Vec<u64> {
    let mut acc = 0u64;
    (0..n)
        .map(|r| {
            let w = (1e9 / f64::from(r + 1).powf(s)) as u64;
            acc += w.max(1);
            acc
        })
        .collect()
}

/// Weighted pick by hashed draw: index of the first cumulative weight
/// above `h mod total`.
fn pick(cum: &[u64], h: u64) -> u32 {
    let total = *cum.last().expect("non-empty weight table");
    let x = h % total;
    cum.partition_point(|&c| c <= x) as u32
}

/// `p`-th percentile of a sorted latency list (0 when empty).
fn percentile(sorted: &[u64], p: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let ix = ((sorted.len() as u64 - 1) * p / 100) as usize;
    sorted[ix]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_sweep(loads: &[u32]) -> OverloadResult {
        run(&mut RunCtx {
            loads_permille: loads.to_vec(),
            ..RunCtx::new(ExperimentScale::Tiny)
        })
    }

    #[test]
    fn overload_sweep_meets_acceptance_at_tiny_scale() {
        let r = tiny_sweep(&[1000, 4000]);
        assert_eq!(r.points.len(), 2);
        let at = |load: u32| {
            r.points
                .iter()
                .find(|p| p.load_permille == load)
                .expect("sweep point present")
        };

        // At 4× offered load the unprotected server collapses below half
        // of capacity while the full arm sustains at least 90%.
        let p4 = at(4000);
        let baseline = &p4.arms[0];
        let full = &p4.arms[2];
        assert_eq!(baseline.name, "baseline");
        assert_eq!(full.name, "full");
        assert!(
            baseline.goodput_ratio < 0.5,
            "baseline at 4x: {}",
            baseline.goodput_ratio
        );
        assert!(
            full.goodput_ratio >= 0.9,
            "full at 4x: {}",
            full.goodput_ratio
        );
        // Protection mechanisms actually engaged.
        assert!(full.shed_rate_limited > 0);
        assert!(full.brownout_entries > 0);
        assert!(full.brownout_exits > 0, "drain phase must end brownout");
        assert!(full.served_stale > 0);
        assert!(full.busy_backoffs > 0);
        // The unbounded queue grew far beyond the bounded one.
        assert!(baseline.peak_queue_depth > 10 * full.peak_queue_depth);

        // At 1× the slow upstream, not admission, is the bottleneck: the
        // breaker trips in the full arm and stale serving keeps goodput
        // near capacity.
        let p1 = at(1000);
        let full1 = &p1.arms[2];
        assert!(full1.breaker_trips > 0, "breaker must trip at 1x");
        assert!(full1.breaker_short_circuits > 0);
        assert!(full1.goodput_ratio > p1.arms[0].goodput_ratio);
    }

    #[test]
    fn every_offer_is_admitted_or_shed_at_every_load() {
        // Conservation over the default sweep: each offer (fresh or
        // retried) is admitted, rate-limited or rejected as queue-full,
        // and an eviction sheds work that was admitted earlier.
        let r = run(&mut RunCtx::new(ExperimentScale::Tiny));
        assert_eq!(r.points.len(), LOAD_PERMILLE.len());
        for p in &r.points {
            assert_eq!(p.arms.len(), 3);
            for a in &p.arms {
                let at = format!("{} at {}‰", a.name, p.load_permille);
                assert_eq!(
                    a.offered + a.retried,
                    a.admitted + a.shed_rate_limited + a.shed_queue_full,
                    "{at}"
                );
                assert!(a.shed_evicted <= a.admitted, "{at}");
            }
        }
    }

    #[test]
    fn offer_charges_lookups_a_token_and_sheds_the_worst_queued_work() {
        // The `full` arm with a two-slot queue and a two-lookup burst
        // refilling at 1 rps, every offer at one instant.
        let world = OverloadWorld::build(&OverloadParams::for_scale(ExperimentScale::Bench));
        let mut run = ArmRun::new(&world, &ARMS[2]);
        run.shedding = Some(Shedding {
            buckets: ClientAdmission::new(MILLITOKENS_PER_REQUEST, 2 * MILLITOKENS_PER_REQUEST),
            queue: AdmissionQueue::new(2),
        });
        let (now, dst, mut tel) = (world.t0, ia_destination(0), Telemetry::disabled());
        let mut shed = ShedCounts::default();
        let (hit, miss) = (RequestClass::LookupHit, RequestClass::LookupMiss);
        let shed_of = |shed: &ShedCounts, class: RequestClass, reason: ShedReason| {
            shed[class.priority() as usize][reason as usize]
        };

        // Two lookups fit the burst and the queue.
        let first = run.arrive(ia_client(1), dst, hit, now, &mut shed);
        run.arrive(ia_client(1), dst, miss, now, &mut shed);
        assert_eq!(shed, ShedCounts::default());
        // A third lookup from the same client finds its bucket empty.
        run.arrive(ia_client(1), dst, hit, now, &mut shed);
        assert_eq!(shed_of(&shed, hit, ShedReason::RateLimited), 1);
        // A revocation from that client bypasses the empty bucket and
        // evicts the queued miss.
        let revocation = run.arrive(
            ia_client(1),
            ia_core(),
            RequestClass::Revocation,
            now,
            &mut shed,
        );
        assert_eq!(shed_of(&shed, miss, ShedReason::Evicted), 1);
        // Another client's miss meets a queue full of better work.
        run.arrive(ia_client(2), dst, miss, now, &mut shed);
        assert_eq!(shed_of(&shed, miss, ShedReason::QueueFull), 1);
        assert_eq!(shed.iter().flatten().sum::<u64>(), 3);
        // Each shed lookup got the busy signal.
        assert_eq!(run.lookups.stats().busy_backoffs, 3);

        // The queue is at 2/2: brownout engages at 850‰.
        run.update_brownout(now, &mut tel);
        assert!(run
            .brownout
            .as_ref()
            .is_some_and(BrownoutController::active));
        let queue = &mut run.shedding.as_mut().expect("the full arm sheds").queue;
        assert_eq!(queue.pop().map(|tk| tk.id), Some(revocation));
        assert_eq!(queue.pop().map(|tk| tk.id), Some(first));
        run.update_brownout(now, &mut tel);

        let out = run.finish(&mut tel);
        assert_eq!(out.offered, 5);
        assert_eq!(out.admitted, 3);
        assert_eq!(out.shed_rate_limited, 1);
        assert_eq!(out.shed_queue_full, 1);
        assert_eq!(out.shed_evicted, 1);
        assert_eq!((out.brownout_entries, out.brownout_exits), (1, 1));
    }

    #[test]
    fn overload_sweep_is_deterministic() {
        let a = tiny_sweep(&[4000]);
        let b = tiny_sweep(&[4000]);
        let ja = serde_json::to_string(&a).expect("serialize");
        let jb = serde_json::to_string(&b).expect("serialize");
        assert_eq!(ja, jb, "a same-seed rerun changed the result");
    }

    #[test]
    fn maintenance_traffic_outranks_the_flood_only_when_shedding() {
        let r = tiny_sweep(&[8000]);
        let arms = &r.points[0].arms;
        let (baseline, shed) = (&arms[0], &arms[1]);
        // Priority admission serves every registration/revocation even at
        // 8×; the FIFO drowns them behind the lookup flood.
        assert!(shed.served_control > baseline.served_control);
    }

    #[test]
    fn arrival_schedule_is_a_function_of_seed_and_load() {
        let params = OverloadParams::for_scale(ExperimentScale::Tiny);
        let world = OverloadWorld::build(&params);
        let flat = |load| -> Vec<(u32, u32)> {
            world
                .arrival_schedule(load)
                .iter()
                .flatten()
                .map(|a| (a.client, a.dst))
                .collect()
        };
        let per_tick = params.capacity_per_tick * 2;
        assert_eq!(flat(2000).len() as u64, params.arrival_ticks * per_tick);
        assert_eq!(flat(2000), flat(2000));
        assert_ne!(flat(2000)[..10], flat(4000)[..10]);
    }

    #[test]
    fn hot_head_covers_the_target_popularity_mass() {
        let params = OverloadParams::for_scale(ExperimentScale::Tiny);
        let world = OverloadWorld::build(&params);
        assert!(world.hot_destinations >= 1);
        assert!(world.hot_destinations < params.num_destinations);
        let total = *world.dst_cum.last().unwrap();
        let hot = world.dst_cum[world.hot_destinations as usize - 1];
        assert!(hot as u128 * 1000 >= total as u128 * 700);
    }
}
