//! `lookup_mix`: what an end host and its path servers do. Zipf-popular
//! destinations are looked up at a local path server; a miss fetches the
//! destination's down-segments and the ISD's core-segments from a core
//! server and caches them; every answer is resolved into end-to-end paths by
//! a SCION daemon. Every tenth operation is a write against the core
//! server, so a read gain that is paid for by writes shows.
//!
//! Virtual time advances through the rep. Two generations of segments are
//! harvested from two beaconing runs; the first generation expires about
//! two thirds of the way through, which exercises expiry filtering, stale
//! cache eviction and the purge-on-register garbage collection.

use crate::adapter::{
    bootstrap_trust, run_core_beaconing_parallel, run_intra_isd_beaconing_parallel,
    segment_uses_link, Algorithm, AsTopology, BeaconingConfig, BeaconingOutcome, Duration, IfId,
    IsdAsn, LinkId, LookupResult, PathSegment, PathServer, ScionDaemon, SegmentSet, SegmentType,
    SimTime, Telemetry, TrustStore, World, ZipfDestinations,
};
use crate::span::Spans;
use crate::workloads::{scale, Digest, Workload, TOPOLOGY_SEED};

/// Internet size. The intra-ISD view (three top-cone cores and their whole
/// customer closure) is most of it, and beaconing over that view twice is
/// the bulk of this workload's set-up.
pub const NUM_ASES: usize = 1_000;
/// Core ASes of the ISD.
pub const INTRA_CORES: usize = 3;
/// Segments a leaf registers per core it hears from.
pub const SEGMENTS_PER_ORIGIN: usize = 2;
/// Operations per rep; nine in ten are lookups.
pub const OPS: usize = 400;
/// Every n-th operation is a write.
pub const WRITE_EVERY: usize = 10;
/// Every n-th write is a revocation; the others are re-registrations.
pub const REVOKE_EVERY: usize = 40;
const ZIPF_S: f64 = 0.9;

const INTERVAL: Duration = Duration::from_secs(100);
/// First-generation segments are harvested after this many intervals …
const GEN1_INTERVALS: u64 = 4;
/// … second-generation ones after this many, which is where the rep starts.
const GEN2_INTERVALS: u64 = 8;
/// PCB lifetime in intervals: generation one lapses around interval 17,
/// generation two not before interval 20.
const LIFETIME_INTERVALS: u64 = 14;
/// The rep's clock runs from interval 8 to interval 18.
const REP_INTERVALS: u64 = 10;

/// The lookup workload with its servers populated.
pub struct Lookup {
    /// The derived topologies; everything here runs on `world.intra`.
    pub world: World,
    /// Trust material of `world.intra`.
    pub trust: TrustStore,
    /// The end host's AS.
    pub src: IsdAsn,
    /// Destinations in popularity order.
    pub destinations: Vec<IsdAsn>,
    /// The core server as registered, before any rep touched it.
    pub pristine_core: PathServer,
    /// The local server as set up: up-segments stored, cache empty.
    pub pristine_local: PathServer,
    /// Second-generation down-segments per destination, re-registered by
    /// the write operations.
    pub gen2: Vec<Vec<PathSegment>>,
    /// Links the revocation writes fail, in order.
    pub revoke_links: Vec<LinkId>,
    /// The destinations looked up, in order: a fixed Zipf-distributed
    /// sequence, reordered by the seed between consecutive writes.
    pub lookups: Vec<IsdAsn>,
    core_ps: PathServer,
    local_ps: PathServer,
    daemon: ScionDaemon,
}

/// Terminates up to [`SEGMENTS_PER_ORIGIN`] of the beacons `holder` stores
/// per origin into segments of `seg_type`.
fn harvest(
    topo: &AsTopology,
    out: &BeaconingOutcome,
    holder: IsdAsn,
    seg_type: SegmentType,
    trust: &TrustStore,
    now: SimTime,
) -> Vec<PathSegment> {
    let Some(server) = topo.by_address(holder).and_then(|idx| out.server(idx)) else {
        return Vec::new();
    };
    let mut origins = server.store().origins();
    origins.sort();
    let mut segs = Vec::new();
    for origin in origins {
        for stored in server
            .store()
            .beacons_of(origin, now)
            .into_iter()
            .take(SEGMENTS_PER_ORIGIN)
        {
            let pcb = stored
                .pcb
                .extend(holder, stored.ingress_if, IfId::NONE, Vec::new(), trust);
            segs.push(PathSegment::from_terminated_pcb(seg_type, pcb));
        }
    }
    segs
}

/// The splitmix64 generator: all the randomness the seed's shuffle needs.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The last link of a segment: the one into its terminal AS.
fn access_link(seg: &PathSegment) -> Option<LinkId> {
    seg.links().last().map(|&(a, b)| LinkId::new(a, b))
}

impl Lookup {
    /// Builds the world, beacons twice, and populates the servers. The
    /// segment database is part of the world and comes from
    /// [`TOPOLOGY_SEED`]; `seed` orders the lookups.
    pub fn build(seed: u64) -> Lookup {
        let params = scale(NUM_ASES, 12, INTRA_CORES);
        let world = World::build(params);
        let topo = &world.intra;
        let lifetime = INTERVAL * LIFETIME_INTERVALS;
        let horizon = SimTime::ZERO + INTERVAL * (GEN2_INTERVALS + REP_INTERVALS) + lifetime;
        let trust = bootstrap_trust(topo, horizon + Duration::from_days(1));
        let cfg = BeaconingConfig {
            interval: INTERVAL,
            pcb_lifetime: lifetime,
            dissemination_limit: 5,
            storage_limit: Some(2 * SEGMENTS_PER_ORIGIN),
            algorithm: Algorithm::Baseline,
            verify_on_receive: false,
        };
        let beacon = |run: fn(
            &AsTopology,
            &BeaconingConfig,
            Duration,
            Duration,
            u64,
            usize,
            &mut Telemetry,
        ) -> BeaconingOutcome,
                      intervals: u64| {
            let window = INTERVAL * intervals;
            let out = run(
                topo,
                &cfg,
                Duration::ZERO,
                window,
                TOPOLOGY_SEED,
                1,
                &mut Telemetry::disabled(),
            );
            (out, SimTime::ZERO + window)
        };
        let (intra1, t1) = beacon(run_intra_isd_beaconing_parallel, GEN1_INTERVALS);
        let (intra2, t2) = beacon(run_intra_isd_beaconing_parallel, GEN2_INTERVALS);
        let (core2, _) = beacon(run_core_beaconing_parallel, GEN2_INTERVALS);

        let cores: Vec<IsdAsn> = topo.core_ases().map(|i| topo.node(i).ia).collect();
        let leaves: Vec<IsdAsn> = topo
            .as_indices()
            .filter(|&i| !topo.node(i).core)
            .map(|i| topo.node(i).ia)
            .collect();
        // The end host sits in the first multi-homed leaf: several
        // up-segments, so resolution has combinations to try.
        let src = *leaves
            .iter()
            .find(|&&ia| harvest(topo, &intra2, ia, SegmentType::Up, &trust, t2).len() >= 3)
            .expect("some leaf hears at least three beacons");

        let mut pristine_local = PathServer::new(src, false);
        for seg in harvest(topo, &intra2, src, SegmentType::Up, &trust, t2) {
            pristine_local
                .store_up_segment(seg)
                .expect("harvested as an up-segment");
        }

        let mut pristine_core = PathServer::new(cores[0], true);
        for &core in &cores {
            for seg in harvest(topo, &core2, core, SegmentType::Core, &trust, t2) {
                pristine_core
                    .register_core_segment(seg, t2)
                    .expect("core server accepts core-segments");
            }
        }
        let mut destinations = Vec::new();
        let mut gen2 = Vec::new();
        for &leaf in leaves.iter().filter(|&&ia| ia != src) {
            let first = harvest(topo, &intra1, leaf, SegmentType::Down, &trust, t1);
            let second = harvest(topo, &intra2, leaf, SegmentType::Down, &trust, t2);
            if first.is_empty() || second.is_empty() {
                continue;
            }
            for seg in first {
                pristine_core
                    .register_down_segment(seg, t1)
                    .expect("core server accepts down-segments");
            }
            destinations.push(leaf);
            gen2.push(second);
        }
        let revoke_links = gen2
            .iter()
            .skip(5)
            .step_by(11)
            .filter_map(|segs| segs.first().and_then(access_link))
            .collect();

        // Which destinations are asked for, how often and roughly when is
        // part of the world. The seed reorders the reads between two writes
        // and nothing else: those reads see the same server state whatever
        // their order, so the work per rep does not depend on the seed. (A
        // shuffle of the whole sequence moves lookups across re-registrations
        // and expiries and changes the rep's cost by up to 20 %.)
        let mut zipf = ZipfDestinations::try_new(destinations.clone(), ZIPF_S, TOPOLOGY_SEED)
            .expect("some leaf registered segments");
        let reads = OPS - OPS / WRITE_EVERY;
        let mut lookups: Vec<IsdAsn> = (0..reads).map(|_| zipf.sample()).collect();
        let mut state = seed;
        for block in lookups.chunks_mut(WRITE_EVERY - 1) {
            for i in (1..block.len()).rev() {
                block.swap(i, (splitmix64(&mut state) % (i as u64 + 1)) as usize);
            }
        }

        Lookup {
            lookups,
            src,
            destinations,
            core_ps: pristine_core.clone(),
            local_ps: pristine_local.clone(),
            daemon: ScionDaemon::new(),
            pristine_core,
            pristine_local,
            gen2,
            revoke_links,
            trust,
            world,
        }
    }

    /// Virtual time at which the rep starts (and the servers were set up).
    pub fn start(&self) -> SimTime {
        SimTime::ZERO + INTERVAL * GEN2_INTERVALS
    }

    /// Answers one lookup: cache, upstream fetch on a miss, and the
    /// segment set the daemon resolves over. Returns `(hit, segments)`.
    pub fn answer(
        local: &mut PathServer,
        core: &PathServer,
        dst: IsdAsn,
        now: SimTime,
        spans: &mut Spans,
    ) -> (bool, SegmentSet) {
        let span = spans.enter("pathserver.lookup_cached");
        let cached = local.lookup_cached(dst, now);
        spans.exit(span);
        let (hit, segs) = match cached {
            LookupResult::Hit(segs) => (true, segs),
            LookupResult::Miss => {
                let span = spans.enter("pathserver.fetch_upstream");
                let mut segs = core.lookup_down(dst, now).expect("core server");
                if !segs.is_empty() {
                    // The core server keeps core-segments in a `HashMap` and
                    // answers in its iteration order, which differs from
                    // process to process. Put the answer in path order, so
                    // that the daemon's work — its sort most of all — and
                    // with it the allocation count repeat exactly.
                    let mut cores = core.lookup_core(dst.isd, now).expect("core server");
                    cores.sort_by_cached_key(|s| s.path_key().0);
                    segs.extend(cores);
                    local.cache_insert(dst, segs.clone(), now);
                }
                spans.exit(span);
                (false, segs)
            }
        };
        let mut set = SegmentSet {
            up: local.up_segments(now),
            ..SegmentSet::default()
        };
        for seg in segs {
            match seg.seg_type {
                SegmentType::Core => set.core.push(seg),
                SegmentType::Down => set.down.push(seg),
                SegmentType::Up => {}
            }
        }
        (hit, set)
    }

    /// The rep. With `check`, every resolved path is also verified.
    fn mix(&mut self, spans: &mut Spans, check: bool) -> Result<Digest, String> {
        let mut next_lookup = self.lookups.iter().copied();
        let step = Duration::from_micros(INTERVAL.as_micros() * REP_INTERVALS / OPS as u64);
        let (mut lookups, mut hits, mut paths, mut empty) = (0u64, 0u64, 0u64, 0u64);
        let (mut registered, mut revoked, mut writes) = (0u64, 0u64, 0usize);

        for op in 0..OPS {
            let now = self.start() + step * op as u64;
            if op % WRITE_EVERY == WRITE_EVERY - 1 {
                let span = spans.enter("pathserver.write");
                if writes % REVOKE_EVERY == REVOKE_EVERY - 1 {
                    let link = self.revoke_links[(writes / REVOKE_EVERY) % self.revoke_links.len()];
                    revoked += self
                        .core_ps
                        .deregister_where(|s| segment_uses_link(s, link))
                        as u64;
                } else {
                    let leaf = (writes - writes / REVOKE_EVERY) % self.gen2.len();
                    for seg in &self.gen2[leaf] {
                        self.core_ps
                            .register_down_segment(seg.clone(), now)
                            .map_err(|e| format!("re-registration refused: {e}"))?;
                        registered += 1;
                    }
                }
                writes += 1;
                spans.exit(span);
                continue;
            }

            let dst = next_lookup.next().ok_or("more reads than lookups drawn")?;
            let (hit, set) = Self::answer(&mut self.local_ps, &self.core_ps, dst, now, spans);
            let span = spans.enter("endhost.resolve");
            let found = self.daemon.resolve(dst, &set, now);
            spans.exit(span);
            lookups += 1;
            hits += u64::from(hit);
            paths += found as u64;
            empty += u64::from(found == 0);
            if check {
                for p in self.daemon.cached_paths(dst) {
                    p.check()
                        .map_err(|e| format!("path to {dst} malformed: {e}"))?;
                    if p.source() != self.src || p.destination() != dst {
                        return Err(format!("path to {dst} has the wrong endpoints"));
                    }
                }
            }
        }

        let stats = self.core_ps.cache_stats();
        Ok(Digest {
            ops: lookups,
            fields: vec![
                ("hits", hits),
                ("misses", lookups - hits),
                ("paths_found", paths),
                ("empty_answers", empty),
                ("segments_registered", registered),
                ("segments_revoked", revoked),
                ("segments_purged", stats.segments_purged),
            ],
        })
    }
}

impl Workload for Lookup {
    fn prepare(&mut self) {
        self.core_ps = self.pristine_core.clone();
        self.local_ps = self.pristine_local.clone();
        self.daemon = ScionDaemon::new();
    }

    fn run(&mut self, spans: &mut Spans) -> Digest {
        self.mix(spans, false)
            .expect("verified when the inputs were built")
    }

    fn verify(&mut self) -> Result<(), String> {
        self.prepare();
        let digest = self.mix(&mut Spans::disabled(), true)?;
        let need = |field: &str| match digest.get(field) {
            Some(0) | None => Err(format!("the mix produced no {field}")),
            Some(_) => Ok(()),
        };
        for field in [
            "hits",
            "misses",
            "paths_found",
            "segments_revoked",
            "segments_purged",
        ] {
            need(field)?;
        }
        self.prepare();
        Ok(())
    }
}
