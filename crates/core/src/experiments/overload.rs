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
//! 2. **`shed`** — the bounded admission queue of
//!    [`scion_pathserver::overload`]: per-client token buckets, priority
//!    ordering (revocations > registrations > cache-hit lookups >
//!    cache-miss lookups), deterministic eviction of the lowest-priority
//!    queued work. Shed lookups answer with an explicit busy signal the
//!    client backs off on ([`Resolver::on_busy`]).
//! 3. **`full`** — shedding plus brownout (above the occupancy threshold,
//!    cache-miss lookups are answered from stale-but-valid cache instead
//!    of fanning out) and a circuit breaker on the upstream (consecutive
//!    fan-out timeouts trip it open; while open, misses short-circuit to
//!    stale serving; a half-open probe tests recovery).
//!
//! Modeling notes, all integer and deterministic:
//!
//! * Time advances in fixed ticks; every request is a row in a BTreeMap
//!   keyed by id. The arrival schedule is a pure function of
//!   `(seed, load, tick, slot)` and is pre-generated on the worker pool
//!   ([`WorkerPool::run_ordered`]), so results are identical across
//!   worker-thread counts by construction.
//! * Clients retry on timeout through the real [`Resolver`] wheel
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
    Admission, BreakerDecision, LookupResult, OverloadConfig, PathServer, RequestClass, Resolver,
    ResolverConfig, RetryAction, ShedReason, MILLITOKENS_PER_REQUEST,
};
use scion_proto::pcb::Pcb;
use scion_proto::segment::{PathSegment, SegmentType};
use scion_simulator::WorkerPool;
use scion_telemetry::profile::phase;
use scion_telemetry::{ids, Label, Telemetry, TraceEvent};
use scion_types::{Asn, Duration, IfId, Isd, IsdAsn, SimTime};

use crate::experiments::RunCtx;
use crate::scale::ExperimentScale;

/// Offered load per sweep point, permille of front-end service capacity.
pub const LOAD_PERMILLE: [u32; 5] = [500, 1000, 2000, 4000, 8000];

/// Telemetry run labels per sweep position, one set per arm (clamped for
/// longer custom sweeps, whose tail points then share the last label).
const BASELINE_LABELS: [&str; 5] = [
    "baseline_x05",
    "baseline_x1",
    "baseline_x2",
    "baseline_x4",
    "baseline_x8",
];
const SHED_LABELS: [&str; 5] = ["shed_x05", "shed_x1", "shed_x2", "shed_x4", "shed_x8"];
const FULL_LABELS: [&str; 5] = ["full_x05", "full_x1", "full_x2", "full_x4", "full_x8"];

/// The front-end's node id in trace records (there is exactly one server).
const FRONT_END_NODE: u32 = 0;

/// Ids of maintenance (registration/revocation) requests live above this
/// base so they never collide with the resolver's lookup ids.
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

    /// The overload-control tuning used by the protected arms: per-client
    /// buckets whose aggregate refill is 1.2× front-end capacity (burst 6
    /// requests), a queue bounded at four ticks of service, default
    /// brownout hysteresis, and a breaker tripping after 5 consecutive
    /// upstream failures with a 1 s cooldown.
    pub fn overload_config(&self) -> OverloadConfig {
        OverloadConfig {
            queue_capacity: (self.capacity_per_tick * 4) as usize,
            client_rate_mt_per_sec: self.capacity_per_sec() * MILLITOKENS_PER_REQUEST * 12
                / 10
                / u64::from(self.num_clients),
            client_burst_mt: 6 * MILLITOKENS_PER_REQUEST,
            breaker_cooldown: Duration::from_secs(1),
            ..OverloadConfig::default()
        }
    }

    /// The client-side retry tuning: 300 ms base timeout doubling per
    /// attempt, three attempts, and the 4× busy penalty — a shed lookup's
    /// re-ask lands after the 1 s deadline and is abandoned, so shedding
    /// never amplifies offered load.
    pub fn resolver_config(&self) -> ResolverConfig {
        ResolverConfig {
            base_timeout: Duration::from_millis(300),
            backoff_pct: 200,
            max_attempts: 3,
            busy_penalty_pct: 400,
            ..ResolverConfig::default()
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
    let pool = WorkerPool::new(ctx.threads);
    let world = OverloadWorld::build(params);
    let mut points = Vec::with_capacity(loads.len());
    for (i, &load) in loads.iter().enumerate() {
        let label_ix = i.min(BASELINE_LABELS.len() - 1);
        let schedule = world.arrival_schedule(load, &pool);
        let offered_per_tick = params.capacity_per_tick * u64::from(load) / 1000;
        let mut arms = Vec::with_capacity(3);
        for (kind, label) in [
            (ArmKind::Baseline, BASELINE_LABELS[label_ix]),
            (ArmKind::Shed, SHED_LABELS[label_ix]),
            (ArmKind::Full, FULL_LABELS[label_ix]),
        ] {
            tel.begin_run(label);
            arms.push(run_arm(&world, &schedule, kind, tel));
        }
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

#[derive(Clone, Copy, PartialEq, Eq)]
enum ArmKind {
    Baseline,
    Shed,
    Full,
}

impl ArmKind {
    fn name(self) -> &'static str {
        match self {
            ArmKind::Baseline => "baseline",
            ArmKind::Shed => "shed",
            ArmKind::Full => "full",
        }
    }

    /// Shedding (bounded queue + buckets) is on for both protected arms.
    fn sheds(self) -> bool {
        !matches!(self, ArmKind::Baseline)
    }

    /// Brownout and breaker are the full arm's extras.
    fn degrades(self) -> bool {
        matches!(self, ArmKind::Full)
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
    /// pure function of `(seed, load, tick, slot)`, generated tick-wise on
    /// the worker pool. Identical across arms and thread counts.
    fn arrival_schedule(&self, load: u32, pool: &WorkerPool) -> Vec<Vec<Arrival>> {
        let p = &self.params;
        let per_tick = p.capacity_per_tick * u64::from(load) / 1000;
        let ticks: Vec<u64> = (0..p.arrival_ticks).collect();
        pool.run_ordered(ticks, |_, t| {
            let base = splitmix64(p.seed ^ (u64::from(load) << 32) ^ t);
            (0..per_tick)
                .map(|i| Arrival {
                    dst: pick(&self.dst_cum, splitmix64(base ^ (2 * i))),
                    client: pick(&self.client_cum, splitmix64(base ^ (2 * i + 1))),
                })
                .collect()
        })
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
    /// `(issued_tick, request id, is breaker probe)`.
    queue: VecDeque<(u64, u64, bool)>,
    /// Completions scheduled per tick.
    completions: BTreeMap<u64, Vec<(u64, bool)>>,
}

/// Per-tick shed aggregation: `[class][reason] -> count`, flushed into at
/// most one `RequestShed` trace record per pair per tick.
type ShedCounts = [[u64; 3]; 4];

struct ArmRun<'w> {
    world: &'w OverloadWorld,
    kind: ArmKind,
    server: PathServer,
    resolver: Resolver,
    /// Baseline only: the unbounded FIFO, `(id, enqueued_at)`.
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
    kind: ArmKind,
    tel: &mut Telemetry,
) -> OverloadArm {
    let p = &world.params;
    let mut server = world.seeded_server();
    if kind.sheds() {
        server.enable_overload_control(p.overload_config());
    }
    let mut run = ArmRun {
        world,
        kind,
        server,
        resolver: Resolver::new(p.resolver_config()),
        fifo: VecDeque::new(),
        fifo_peak: 0,
        upstream: Upstream::default(),
        reqs: BTreeMap::new(),
        next_control_id: CONTROL_ID_BASE,
        latencies: Vec::new(),
        out: OverloadArm {
            name: kind.name().to_string(),
            ..OverloadArm::default()
        },
    };

    let total_ticks = p.arrival_ticks + p.drain_ticks;
    for t in 0..total_ticks {
        let now = world.t0 + Duration::from_micros(t * p.tick_us);
        run.upstream_tick(t, now, tel);

        let wall = std::time::Instant::now();
        let mut shed_counts = ShedCounts::default();
        // Due retries first: they re-enter the queue ahead of this tick's
        // fresh arrivals at equal priority (their offer time is `now` too,
        // but the queue's monotonic sequence keeps the order stable).
        for action in run.resolver.due_actions(now) {
            match action {
                RetryAction::Retry { id, .. } => {
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
                RetryAction::Exhausted { .. } => {
                    // Settled terminally when the entry leaves the wheel;
                    // final failure accounting happens at run end.
                }
            }
        }
        for arrival in schedule.get(t as usize).map_or(&[][..], |v| &v[..]) {
            let dst = ia_destination(arrival.dst);
            let class = if arrival.dst < world.hot_destinations {
                RequestClass::LookupHit
            } else {
                RequestClass::LookupMiss
            };
            let id = run.resolver.begin(now, dst);
            run.reqs.insert(
                id,
                Req {
                    client: ia_client(arrival.client),
                    dst,
                    class,
                    arrived: now,
                    settled: false,
                },
            );
            run.out.offered += 1;
            run.offer(id, now, &mut shed_counts);
        }
        if t < p.arrival_ticks {
            for class in [RequestClass::Registration, RequestClass::Revocation] {
                let every = match class {
                    RequestClass::Registration => p.registration_every_ticks,
                    _ => p.revocation_every_ticks,
                };
                if every > 0 && t % every == 0 {
                    let id = run.next_control_id;
                    run.next_control_id += 1;
                    run.reqs.insert(
                        id,
                        Req {
                            client: ia_control_plane(),
                            dst: ia_core(),
                            class,
                            arrived: now,
                            settled: false,
                        },
                    );
                    run.out.offered += 1;
                    run.offer(id, now, &mut shed_counts);
                }
            }
        }
        if kind.degrades() {
            if let Some(oc) = run.server.overload_control_mut() {
                let occupancy = oc.queue().occupancy_permille();
                if let Some(transition) = oc.update_brownout() {
                    use scion_pathserver::BrownoutTransition;
                    let entered = matches!(transition, BrownoutTransition::Entered);
                    tel.trace_event(now, || {
                        if entered {
                            TraceEvent::BrownoutEntered {
                                node: FRONT_END_NODE,
                                utilization_permille: occupancy,
                            }
                        } else {
                            TraceEvent::BrownoutExited {
                                node: FRONT_END_NODE,
                                utilization_permille: occupancy,
                            }
                        }
                    });
                }
            }
        }
        run.flush_shed_traces(&shed_counts, now, tel);
        let depth = run.queue_depth();
        tel.sample(now, ids::PS_QUEUE_DEPTH, Label::Global, depth as f64);
        tel.profile
            .record_ns(phase::OVERLOAD_ADMIT, wall.elapsed().as_nanos() as u64);

        let wall = std::time::Instant::now();
        run.service_tick(t, now, tel);
        tel.profile
            .record_ns(phase::OVERLOAD_SERVE, wall.elapsed().as_nanos() as u64);
    }

    run.finish(tel)
}

impl ArmRun<'_> {
    /// Offers one request (fresh or retried) to this arm's queue.
    fn offer(&mut self, id: u64, now: SimTime, shed_counts: &mut ShedCounts) {
        let req = self.reqs.get(&id).expect("offer of a known request");
        let (client, class) = (req.client, req.class);
        if !self.kind.sheds() {
            self.fifo.push_back((id, now));
            self.fifo_peak = self.fifo_peak.max(self.fifo.len() as u64);
            self.out.admitted += 1;
            return;
        }
        let oc = self
            .server
            .overload_control_mut()
            .expect("protected arms arm the controller");
        match oc.offer(client, class, id, now) {
            Admission::Enqueued => {}
            Admission::EnqueuedEvicting(victim) => {
                shed_counts[victim.class.priority() as usize]
                    [shed_reason_index(ShedReason::Evicted)] += 1;
                self.busy_signal(victim.id, now);
            }
            Admission::Shed(reason) => {
                shed_counts[class.priority() as usize][shed_reason_index(reason)] += 1;
                self.busy_signal(id, now);
            }
        }
    }

    /// Answers a shed lookup with the explicit busy signal: the client
    /// re-arms its deadline on the penalized backoff schedule.
    fn busy_signal(&mut self, id: u64, now: SimTime) {
        if id >= CONTROL_ID_BASE {
            return; // Maintenance requests have no retry wheel.
        }
        self.resolver.on_busy(id, now);
    }

    fn queue_depth(&self) -> u64 {
        match self.server.overload_control() {
            Some(oc) => oc.queue_depth() as u64,
            None => self.fifo.len() as u64,
        }
    }

    /// Settles one request with a useful answer at `now`.
    fn respond(&mut self, id: u64, now: SimTime) {
        if id >= CONTROL_ID_BASE {
            let req = self.reqs.get_mut(&id).expect("control request exists");
            req.settled = true;
        } else if self.resolver.on_response(id).is_none() {
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
            for (id, _probe) in due {
                self.out.upstream_completed += 1;
                if self.kind.degrades() {
                    if let Some(oc) = self.server.overload_control_mut() {
                        oc.breaker_success();
                    }
                }
                if !self.reqs[&id].settled {
                    self.out.served_fresh += 1;
                    self.respond(id, now);
                }
            }
        }
        while let Some(&(issued, id, _probe)) = self.upstream.queue.front() {
            if t - issued <= p.upstream_timeout_ticks {
                break;
            }
            self.upstream.queue.pop_front();
            self.out.upstream_failed += 1;
            if self.kind.degrades() {
                let tripped = self
                    .server
                    .overload_control_mut()
                    .expect("full arm arms the controller")
                    .breaker_failure(now);
                if tripped {
                    let threshold = self
                        .server
                        .overload_control()
                        .expect("full arm arms the controller")
                        .config()
                        .breaker_failure_threshold;
                    tel.trace_event(now, || TraceEvent::BreakerTripped {
                        node: FRONT_END_NODE,
                        failures: threshold,
                    });
                }
                if !self.reqs[&id].settled {
                    self.serve_stale(id, now);
                }
            }
        }
        for _ in 0..p.upstream_per_tick {
            let Some((_, id, probe)) = self.upstream.queue.pop_front() else {
                break;
            };
            self.upstream
                .completions
                .entry(t + p.upstream_rtt_ticks)
                .or_default()
                .push((id, probe));
        }
    }

    /// Serves a cache-miss lookup from the stale-but-valid cache.
    fn serve_stale(&mut self, id: u64, now: SimTime) {
        let dst = self.reqs[&id].dst;
        let grace = PathServer::STALE_GRACE;
        if self.server.lookup_stale(dst, now, grace).is_some() {
            if let Some(oc) = self.server.overload_control_mut() {
                oc.note_stale_served();
            }
            self.out.served_stale += 1;
            self.respond(id, now);
        }
    }

    /// One service tick: up to `capacity_per_tick` dequeues.
    fn service_tick(&mut self, t: u64, now: SimTime, tel: &mut Telemetry) {
        for _ in 0..self.world.params.capacity_per_tick {
            let (id, enqueued) = if self.kind.sheds() {
                let Some(ticket) = self
                    .server
                    .overload_control_mut()
                    .expect("protected arms arm the controller")
                    .next_request()
                else {
                    break;
                };
                (ticket.id, ticket.arrived)
            } else {
                let Some(entry) = self.fifo.pop_front() else {
                    break;
                };
                entry
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

    /// Routes one cache-miss lookup: brownout and breaker first in the
    /// full arm, the upstream queue otherwise.
    fn fan_out(&mut self, id: u64, t: u64, now: SimTime) {
        if self.kind.degrades() {
            let oc = self
                .server
                .overload_control_mut()
                .expect("full arm arms the controller");
            if oc.brownout_active() {
                self.serve_stale(id, now);
                return;
            }
            match oc.breaker_decide(now) {
                BreakerDecision::ShortCircuit => {
                    self.serve_stale(id, now);
                    return;
                }
                BreakerDecision::Probe => {
                    self.out.upstream_sent += 1;
                    self.upstream.queue.push_back((t, id, true));
                    return;
                }
                BreakerDecision::Forward => {}
            }
        }
        self.out.upstream_sent += 1;
        self.upstream.queue.push_back((t, id, false));
    }

    /// Emits the per-tick aggregated `RequestShed` records: one per
    /// `(class, reason)` pair with a non-zero count, in fixed order.
    fn flush_shed_traces(&self, shed: &ShedCounts, now: SimTime, tel: &mut Telemetry) {
        for class in RequestClass::ALL {
            for (r, reason) in [
                ShedReason::RateLimited,
                ShedReason::QueueFull,
                ShedReason::Evicted,
            ]
            .into_iter()
            .enumerate()
            {
                let count = shed[class.priority() as usize][r];
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

    /// Final accounting: fold controller and resolver counters into the
    /// arm record and flush the per-run telemetry counters.
    fn finish(mut self, tel: &mut Telemetry) -> OverloadArm {
        let p = &self.world.params;
        if let Some(oc) = self.server.overload_control() {
            let s = oc.stats();
            self.out.admitted = s.admitted;
            self.out.shed_rate_limited = s.shed_rate_limited;
            self.out.shed_queue_full = s.shed_queue_full;
            self.out.shed_evicted = s.shed_evicted;
            self.out.brownout_entries = s.brownout_entries;
            self.out.brownout_exits = s.brownout_exits;
            self.out.breaker_trips = s.breaker_trips;
            self.out.breaker_probes = s.breaker_probes;
            self.out.breaker_short_circuits = s.breaker_short_circuits;
            self.out.peak_queue_depth = oc.queue().peak_depth() as u64;
        } else {
            self.out.peak_queue_depth = self.fifo_peak;
        }
        self.out.busy_backoffs = self.resolver.stats().busy_backoffs;
        self.out.failed = self.reqs.values().filter(|r| !r.settled).count() as u64;
        self.latencies.sort_unstable();
        self.out.p50_us = percentile(&self.latencies, 50);
        self.out.p99_us = percentile(&self.latencies, 99);
        let capacity_total = p.capacity_per_tick * p.arrival_ticks;
        self.out.goodput_ratio = if capacity_total == 0 {
            0.0
        } else {
            self.out.completed_in_deadline as f64 / capacity_total as f64
        };

        tel.inc(ids::PS_OVERLOAD_ADMITTED, Label::Global, self.out.admitted);
        tel.inc(
            ids::PS_SHED_RATE_LIMITED,
            Label::Global,
            self.out.shed_rate_limited,
        );
        tel.inc(
            ids::PS_SHED_QUEUE_FULL,
            Label::Global,
            self.out.shed_queue_full,
        );
        tel.inc(ids::PS_SHED_EVICTED, Label::Global, self.out.shed_evicted);
        tel.inc(
            ids::PS_BROWNOUT_ENTRIES,
            Label::Global,
            self.out.brownout_entries,
        );
        tel.inc(
            ids::PS_BROWNOUT_EXITS,
            Label::Global,
            self.out.brownout_exits,
        );
        tel.inc(
            ids::PS_BROWNOUT_STALE_SERVES,
            Label::Global,
            self.out.served_stale,
        );
        tel.inc(ids::PS_BREAKER_TRIPS, Label::Global, self.out.breaker_trips);
        tel.inc(
            ids::PS_BREAKER_PROBES,
            Label::Global,
            self.out.breaker_probes,
        );
        tel.inc(
            ids::PS_BREAKER_SHORT_CIRCUITS,
            Label::Global,
            self.out.breaker_short_circuits,
        );
        tel.inc(
            ids::RELIABLE_BUSY_BACKOFFS,
            Label::Global,
            self.out.busy_backoffs,
        );
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

/// `ShedReason` as a dense array index.
fn shed_reason_index(reason: ShedReason) -> usize {
    match reason {
        ShedReason::RateLimited => 0,
        ShedReason::QueueFull => 1,
        ShedReason::Evicted => 2,
    }
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

/// SplitMix64: the arrival schedule's stateless hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
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

    fn tiny_sweep(loads: &[u32], threads: usize) -> OverloadResult {
        run(&mut RunCtx {
            loads_permille: loads.to_vec(),
            ..RunCtx::new(ExperimentScale::Tiny).with_threads(threads)
        })
    }

    #[test]
    fn overload_sweep_meets_acceptance_at_tiny_scale() {
        let r = tiny_sweep(&[1000, 4000], 2);
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
    fn overload_sweep_is_deterministic_across_thread_counts() {
        let a = tiny_sweep(&[4000], 1);
        let b = tiny_sweep(&[4000], 8);
        let ja = serde_json::to_string(&a).expect("serialize");
        let jb = serde_json::to_string(&b).expect("serialize");
        assert_eq!(ja, jb, "thread count leaked into the result");
    }

    #[test]
    fn maintenance_traffic_outranks_the_flood_only_when_shedding() {
        let r = tiny_sweep(&[8000], 2);
        let arms = &r.points[0].arms;
        let (baseline, shed) = (&arms[0], &arms[1]);
        // Priority admission serves every registration/revocation even at
        // 8×; the FIFO drowns them behind the lookup flood.
        assert!(shed.served_control > baseline.served_control);
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
