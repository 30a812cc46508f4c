//! Path servers: segment registration, lookup, and caching.
//!
//! §2.2: "A global path server infrastructure is used to disseminate path
//! segments. … The infrastructure bears similarities to DNS, where
//! information is fetched on-demand only. A core AS's path server stores
//! all the intra-ISD path segments that were registered by leaf ASes of
//! its own ISD, and core-path segments to reach other core ASes."
//!
//! §4.1: lookups are amortized by caching — "path servers and endpoints
//! cache path segments to serve subsequent requests for a given origin AS,
//! which is effective in SCION due to the long lifetime of a path".

use std::collections::{BTreeMap, HashMap};

use scion_proto::segment::{PathSegment, SegmentType};
use scion_telemetry::{ids, Label, Telemetry, TraceEvent};
use scion_types::{Duration, Isd, IsdAsn, SimTime};
use serde::Serialize;

use crate::overload::{OverloadConfig, OverloadControl};

/// Stable wire names of the segment types for trace records.
fn seg_type_name(ty: SegmentType) -> &'static str {
    match ty {
        SegmentType::Up => "up",
        SegmentType::Down => "down",
        SegmentType::Core => "core",
    }
}

/// Why a path-server operation was rejected — the typed, non-panicking
/// surface of role and segment-type misuse. Untrusted inputs (segments of
/// the wrong type arriving at the wrong server) must hit these variants,
/// never an `assert!`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerError {
    /// The operation requires a core path server.
    NotCore {
        /// The operation that was attempted (stable code, e.g.
        /// `"register_down"`).
        op: &'static str,
    },
    /// The segment's type does not match the store it was offered to.
    WrongSegmentType {
        /// The type the store accepts.
        expected: SegmentType,
        /// The type that arrived.
        got: SegmentType,
    },
}

impl ServerError {
    /// Stable reason code, keying the `pathserver.rejected_ops` counter's
    /// trace annotations.
    pub fn reason(&self) -> &'static str {
        match self {
            ServerError::NotCore { .. } => "not_core",
            ServerError::WrongSegmentType { .. } => "wrong_segment_type",
        }
    }
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::NotCore { op } => {
                write!(f, "{op} requires a core path server")
            }
            ServerError::WrongSegmentType { expected, got } => {
                write!(f, "expected a {expected:?} segment, got {got:?}")
            }
        }
    }
}

impl std::error::Error for ServerError {}

/// Outcome of a lookup against one server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LookupResult {
    /// Segments served from the local store or cache.
    Hit(Vec<PathSegment>),
    /// Not available locally — the caller must query `upstream`.
    Miss,
}

/// Lifetime counters of one server's cache and degradation machinery.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Lookups answered from a live cached entry.
    pub hits: u64,
    /// Lookups with no live cached answer.
    pub misses: u64,
    /// Lookups answered with recently-expired segments after upstream
    /// retries exhausted (graceful degradation).
    pub degraded_serves: u64,
    /// Lookups short-circuited by the negative cache.
    pub negative_hits: u64,
    /// Expired authoritative segments garbage-collected at registration.
    pub segments_purged: u64,
}

/// A path server. The same type serves both roles:
/// core servers hold the authoritative registrations, non-core (local)
/// servers hold their AS's own up-segments plus a TTL cache of remote
/// answers.
#[derive(Clone, Debug)]
pub struct PathServer {
    ia: IsdAsn,
    core: bool,
    /// Authoritative down-segments per destination leaf AS (core servers).
    /// Both authoritative stores are keyed in address order: what a lookup
    /// answers and what a revocation removes comes out in the same order
    /// in every process, whatever order the registrations arrived in.
    down_segments: BTreeMap<IsdAsn, Vec<PathSegment>>,
    /// Authoritative core-segments per remote core AS (core servers).
    core_segments: BTreeMap<IsdAsn, Vec<PathSegment>>,
    /// Up-segments of the local AS (local servers).
    up_segments: Vec<PathSegment>,
    /// Response cache: destination → (segments, inserted-at). Entries are
    /// kept for [`PathServer::STALE_GRACE`] past expiry so exhausted
    /// upstream lookups can degrade onto them.
    cache: HashMap<IsdAsn, (Vec<PathSegment>, SimTime)>,
    /// Negative cache: destination → verdict-expiry. A destination whose
    /// upstream lookup recently gave up is answered locally until the
    /// verdict lapses, stopping retry storms against a dead origin.
    negative: HashMap<IsdAsn, SimTime>,
    /// Cache and degradation statistics.
    stats: CacheStats,
    /// Optional overload-control plane (admission queue, per-client token
    /// buckets, brownout, circuit breaker). `None` = legacy unbounded
    /// behavior; boxed so the common unprotected server stays small.
    overload: Option<Box<OverloadControl>>,
}

impl PathServer {
    /// How long past expiry a cached segment remains eligible for
    /// degraded serving (and is retained in the cache).
    pub const STALE_GRACE: Duration = Duration::from_hours(1);

    /// A path server for AS `ia`; `core` servers accept registrations and
    /// store the authoritative segment sets.
    pub fn new(ia: IsdAsn, core: bool) -> PathServer {
        PathServer {
            ia,
            core,
            down_segments: BTreeMap::new(),
            core_segments: BTreeMap::new(),
            up_segments: Vec::new(),
            cache: HashMap::new(),
            negative: HashMap::new(),
            stats: CacheStats::default(),
            overload: None,
        }
    }

    /// Arms the overload-control plane: subsequent request traffic can be
    /// run through [`PathServer::overload_control_mut`] for admission,
    /// priority shedding, brownout, and breaker decisions. Replaces any
    /// previously armed controller (counters restart from zero).
    pub fn enable_overload_control(&mut self, cfg: OverloadConfig) {
        self.overload = Some(Box::new(OverloadControl::new(cfg)));
    }

    /// The armed overload controller, if any.
    pub fn overload_control(&self) -> Option<&OverloadControl> {
        self.overload.as_deref()
    }

    /// Mutable access to the armed overload controller, if any.
    pub fn overload_control_mut(&mut self) -> Option<&mut OverloadControl> {
        self.overload.as_deref_mut()
    }

    /// The server's AS.
    pub fn isd_asn(&self) -> IsdAsn {
        self.ia
    }

    /// True for a core path server.
    pub fn is_core(&self) -> bool {
        self.core
    }

    /// Registers a down-segment (a leaf AS registering its reachability
    /// with its ISD core; core servers only). Expired segments of the same
    /// destination are garbage-collected first — each periodic
    /// re-registration replaces its predecessors once they lapse, so the
    /// authoritative store stays bounded over arbitrarily long runs.
    ///
    /// Rejects the registration with a typed [`ServerError`] on a
    /// non-core server or a wrong-type segment — untrusted registration
    /// traffic must never be able to panic the server.
    pub fn register_down_segment(
        &mut self,
        seg: PathSegment,
        now: SimTime,
    ) -> Result<(), ServerError> {
        if !self.core {
            return Err(ServerError::NotCore {
                op: "register_down",
            });
        }
        if seg.seg_type != SegmentType::Down {
            return Err(ServerError::WrongSegmentType {
                expected: SegmentType::Down,
                got: seg.seg_type,
            });
        }
        let entry = self.down_segments.entry(seg.terminal()).or_default();
        let before = entry.len();
        entry.retain(|s| !s.is_expired(now));
        self.stats.segments_purged += (before - entry.len()) as u64;
        entry.push(seg);
        Ok(())
    }

    /// Like [`PathServer::register_down_segment`], additionally counting
    /// the registration and emitting a [`TraceEvent::SegmentRegistered`]
    /// once it lands.
    pub fn register_down_segment_telemetry(
        &mut self,
        seg: PathSegment,
        now: SimTime,
        tel: &mut Telemetry,
    ) -> Result<(), ServerError> {
        let server = self.ia;
        let terminal = seg.terminal();
        let seg_type = seg_type_name(seg.seg_type);
        let hops = seg.hop_count() as u32;
        let purged_before = self.stats.segments_purged;
        self.register_down_segment(seg, now)?;
        if tel.is_enabled() {
            tel.inc(ids::PS_REGISTRATIONS, Label::Global, 1);
            tel.trace_event(now, || TraceEvent::SegmentRegistered {
                server,
                terminal,
                seg_type,
                hops,
            });
        }
        let purged = self.stats.segments_purged - purged_before;
        if purged > 0 {
            tel.inc(ids::PS_SEGMENTS_PURGED, Label::Global, purged);
        }
        Ok(())
    }

    /// Registers a core-segment (core servers only), garbage-collecting
    /// the destination's expired segments like
    /// [`PathServer::register_down_segment`].
    pub fn register_core_segment(
        &mut self,
        seg: PathSegment,
        now: SimTime,
    ) -> Result<(), ServerError> {
        if !self.core {
            return Err(ServerError::NotCore {
                op: "register_core",
            });
        }
        if seg.seg_type != SegmentType::Core {
            return Err(ServerError::WrongSegmentType {
                expected: SegmentType::Core,
                got: seg.seg_type,
            });
        }
        let entry = self.core_segments.entry(seg.terminal()).or_default();
        let before = entry.len();
        entry.retain(|s| !s.is_expired(now));
        self.stats.segments_purged += (before - entry.len()) as u64;
        entry.push(seg);
        Ok(())
    }

    /// Stores a local up-segment (local servers). Rejects wrong-type
    /// segments with a typed [`ServerError`].
    pub fn store_up_segment(&mut self, seg: PathSegment) -> Result<(), ServerError> {
        if seg.seg_type != SegmentType::Up {
            return Err(ServerError::WrongSegmentType {
                expected: SegmentType::Up,
                got: seg.seg_type,
            });
        }
        self.up_segments.push(seg);
        Ok(())
    }

    /// Re-registers a segment into the store its type belongs to — the
    /// restoration half of TTL'd revocation
    /// ([`crate::revocation::RevocationTable`]).
    pub fn reinstate_segment(&mut self, seg: PathSegment, now: SimTime) -> Result<(), ServerError> {
        match seg.seg_type {
            SegmentType::Down => self.register_down_segment(seg, now),
            SegmentType::Core => self.register_core_segment(seg, now),
            SegmentType::Up => self.store_up_segment(seg),
        }
    }

    /// The local AS's live up-segments.
    pub fn up_segments(&self, now: SimTime) -> Vec<PathSegment> {
        self.up_segments
            .iter()
            .filter(|s| !s.is_expired(now))
            .cloned()
            .collect()
    }

    /// De-registers segments by predicate (used by revocation: drop
    /// everything containing a failed link). Returns how many were
    /// removed across all stores.
    pub fn deregister_where(&mut self, mut pred: impl FnMut(&PathSegment) -> bool) -> usize {
        let mut removed = 0;
        for store in [&mut self.down_segments, &mut self.core_segments] {
            for segs in store.values_mut() {
                let before = segs.len();
                segs.retain(|s| !pred(s));
                removed += before - segs.len();
            }
            store.retain(|_, v| !v.is_empty());
        }
        let before = self.up_segments.len();
        self.up_segments.retain(|s| !pred(s));
        removed + before - self.up_segments.len()
    }

    /// [`PathServer::deregister_where`], but returns the removed segments
    /// instead of discarding them — the revocation table holds them for
    /// restoration when the revocation's TTL lapses.
    pub fn deregister_collect(
        &mut self,
        mut pred: impl FnMut(&PathSegment) -> bool,
    ) -> Vec<PathSegment> {
        let mut removed = Vec::new();
        for store in [&mut self.down_segments, &mut self.core_segments] {
            // Destinations are visited in address order: callers (the
            // revocation table, trace emission) depend on a deterministic
            // removal order.
            for segs in store.values_mut() {
                let mut kept = Vec::with_capacity(segs.len());
                for seg in segs.drain(..) {
                    if pred(&seg) {
                        removed.push(seg);
                    } else {
                        kept.push(seg);
                    }
                }
                *segs = kept;
            }
            store.retain(|_, v| !v.is_empty());
        }
        let mut kept = Vec::with_capacity(self.up_segments.len());
        for seg in self.up_segments.drain(..) {
            if pred(&seg) {
                removed.push(seg);
            } else {
                kept.push(seg);
            }
        }
        self.up_segments = kept;
        removed
    }

    /// Authoritative down-segment lookup at a core server. Rejects the
    /// query with a typed [`ServerError`] on a non-core server.
    pub fn lookup_down(&self, dst: IsdAsn, now: SimTime) -> Result<Vec<PathSegment>, ServerError> {
        if !self.core {
            return Err(ServerError::NotCore { op: "lookup_down" });
        }
        Ok(self
            .down_segments
            .get(&dst)
            .map(|v| v.iter().filter(|s| !s.is_expired(now)).cloned().collect())
            .unwrap_or_default())
    }

    /// Authoritative core-segment lookup at a core server: segments whose
    /// far end lies in `dst_isd` (or at the exact AS when known), in the
    /// address order of their far ends and registration order under one
    /// far end. Rejects the query with a typed [`ServerError`] on a
    /// non-core server.
    pub fn lookup_core(&self, dst_isd: Isd, now: SimTime) -> Result<Vec<PathSegment>, ServerError> {
        if !self.core {
            return Err(ServerError::NotCore { op: "lookup_core" });
        }
        let mut out = Vec::new();
        for (remote, segs) in &self.core_segments {
            if remote.isd == dst_isd {
                out.extend(segs.iter().filter(|s| !s.is_expired(now)).cloned());
            }
        }
        Ok(out)
    }

    /// Cached lookup at a local server: hit if a live cached answer
    /// exists, miss otherwise (caller fetches upstream and calls
    /// [`PathServer::cache_insert`]).
    ///
    /// An entry whose segments all lapsed is *kept* for
    /// [`PathServer::STALE_GRACE`] past expiry — [`PathServer::lookup_stale`]
    /// degrades onto it when the upstream fetch exhausts its retries —
    /// and evicted once every segment is long-dead.
    pub fn lookup_cached(&mut self, dst: IsdAsn, now: SimTime) -> LookupResult {
        if let Some((segs, _)) = self.cache.get_mut(&dst) {
            let live: Vec<PathSegment> = segs
                .iter()
                .filter(|s| !s.is_expired(now))
                .cloned()
                .collect();
            if !live.is_empty() {
                self.stats.hits += 1;
                return LookupResult::Hit(live);
            }
            let horizon = stale_horizon(now, Self::STALE_GRACE);
            segs.retain(|s| !s.is_expired(horizon));
            if segs.is_empty() {
                self.cache.remove(&dst);
            }
        }
        self.stats.misses += 1;
        LookupResult::Miss
    }

    /// Like [`PathServer::lookup_cached`], additionally maintaining the
    /// global lookup/hit/miss counters.
    pub fn lookup_cached_telemetry(
        &mut self,
        dst: IsdAsn,
        now: SimTime,
        tel: &mut Telemetry,
    ) -> LookupResult {
        let result = self.lookup_cached(dst, now);
        tel.inc(ids::PS_LOOKUPS, Label::Global, 1);
        if matches!(result, LookupResult::Hit(_)) {
            tel.inc(ids::PS_CACHE_HITS, Label::Global, 1);
        } else {
            tel.inc(ids::PS_CACHE_MISSES, Label::Global, 1);
        }
        result
    }

    /// Graceful degradation: serves `dst`'s recently-expired cached
    /// segments — expired no earlier than `grace` before `now` — for a
    /// caller whose upstream retries exhausted. Returns `None` when
    /// nothing recent enough is cached; the caller should then fall back
    /// to [`PathServer::note_unreachable`]. Served segments are stale by
    /// construction: the caller must surface them flagged as degraded.
    pub fn lookup_stale(
        &mut self,
        dst: IsdAsn,
        now: SimTime,
        grace: Duration,
    ) -> Option<Vec<PathSegment>> {
        let horizon = stale_horizon(now, grace);
        let stale: Vec<PathSegment> = self
            .cache
            .get(&dst)?
            .0
            .iter()
            .filter(|s| !s.is_expired(horizon))
            .cloned()
            .collect();
        if stale.is_empty() {
            return None;
        }
        self.stats.degraded_serves += 1;
        Some(stale)
    }

    /// Telemetry-recording variant of [`PathServer::lookup_stale`].
    pub fn lookup_stale_telemetry(
        &mut self,
        dst: IsdAsn,
        now: SimTime,
        grace: Duration,
        tel: &mut Telemetry,
    ) -> Option<Vec<PathSegment>> {
        let result = self.lookup_stale(dst, now, grace);
        if result.is_some() {
            tel.inc(ids::PS_DEGRADED_SERVES, Label::Global, 1);
        }
        result
    }

    /// Records that `dst`'s upstream lookup gave up at `now`: until the
    /// verdict lapses after `ttl`, [`PathServer::negative_cached`] answers
    /// locally instead of launching another retry storm.
    pub fn note_unreachable(&mut self, dst: IsdAsn, now: SimTime, ttl: Duration) {
        self.negative.insert(dst, now + ttl);
    }

    /// True when `dst` is under a live negative-cache verdict (counted as
    /// a negative hit). Lapsed verdicts are evicted on probe.
    pub fn negative_cached(&mut self, dst: IsdAsn, now: SimTime) -> bool {
        match self.negative.get(&dst) {
            Some(&until) if now < until => {
                self.stats.negative_hits += 1;
                true
            }
            Some(_) => {
                self.negative.remove(&dst);
                false
            }
            None => false,
        }
    }

    /// Inserts an upstream answer into the cache and clears any negative
    /// verdict (a successful fetch proves the destination reachable).
    pub fn cache_insert(&mut self, dst: IsdAsn, segs: Vec<PathSegment>, now: SimTime) {
        self.negative.remove(&dst);
        self.cache.insert(dst, (segs, now));
    }

    /// Number of distinct destinations with authoritative down-segments.
    pub fn down_destinations(&self) -> usize {
        self.down_segments.len()
    }

    /// Cache and degradation statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.stats
    }
}

/// `now - grace`, saturating at the epoch.
fn stale_horizon(now: SimTime, grace: Duration) -> SimTime {
    SimTime::from_micros(now.as_micros().saturating_sub(grace.as_micros()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scion_crypto::trc::TrustStore;
    use scion_proto::pcb::Pcb;
    use scion_types::{Asn, Duration, IfId};

    fn ia(isd: u16, asn: u64) -> IsdAsn {
        IsdAsn::new(Isd(isd), Asn::from_u64(asn))
    }

    fn trust() -> TrustStore {
        let mut ases = vec![];
        for isd in 1..=2u16 {
            for asn in 1..=5u64 {
                ases.push((ia(isd, asn), asn == 1));
            }
        }
        TrustStore::bootstrap(ases.into_iter(), SimTime::ZERO + Duration::from_days(30))
    }

    #[test]
    fn typed_errors_replace_role_and_type_asserts() {
        let tr = trust();
        let mut local = PathServer::new(ia(1, 3), false);
        let down = seg(&tr, SegmentType::Down, ia(1, 1), ia(1, 4), 6);
        assert_eq!(
            local.register_down_segment(down.clone(), SimTime::ZERO),
            Err(ServerError::NotCore {
                op: "register_down"
            })
        );
        assert_eq!(
            local.lookup_down(ia(1, 4), SimTime::ZERO),
            Err(ServerError::NotCore { op: "lookup_down" })
        );
        assert_eq!(
            local.lookup_core(Isd(1), SimTime::ZERO),
            Err(ServerError::NotCore { op: "lookup_core" })
        );
        assert_eq!(
            local.store_up_segment(down.clone()),
            Err(ServerError::WrongSegmentType {
                expected: SegmentType::Up,
                got: SegmentType::Down,
            })
        );

        let mut core = PathServer::new(ia(1, 1), true);
        assert_eq!(
            core.register_core_segment(down.clone(), SimTime::ZERO),
            Err(ServerError::WrongSegmentType {
                expected: SegmentType::Core,
                got: SegmentType::Down,
            })
        );
        // The happy path still lands the segment, and reinstate routes by
        // type.
        assert_eq!(
            core.register_down_segment(down.clone(), SimTime::ZERO),
            Ok(())
        );
        assert_eq!(core.deregister_collect(|_| true).len(), 1);
        assert_eq!(core.reinstate_segment(down, SimTime::ZERO), Ok(()));
        assert_eq!(core.lookup_down(ia(1, 4), SimTime::ZERO).unwrap().len(), 1);
        // Errors render for operators.
        let e = ServerError::NotCore { op: "lookup_down" };
        assert_eq!(e.reason(), "not_core");
        assert!(e.to_string().contains("lookup_down"));
    }

    fn seg(
        tr: &TrustStore,
        ty: SegmentType,
        from: IsdAsn,
        to: IsdAsn,
        lifetime_h: u64,
    ) -> PathSegment {
        let pcb = Pcb::originate(
            from,
            IfId(1),
            SimTime::ZERO,
            Duration::from_hours(lifetime_h),
            0,
            tr,
        )
        .extend(to, IfId(1), IfId::NONE, vec![], tr);
        PathSegment::from_terminated_pcb(ty, pcb)
    }

    #[test]
    fn registration_and_lookup() {
        let tr = trust();
        let mut ps = PathServer::new(ia(1, 1), true);
        ps.register_down_segment(
            seg(&tr, SegmentType::Down, ia(1, 1), ia(1, 3), 6),
            SimTime::ZERO,
        )
        .unwrap();
        ps.register_core_segment(
            seg(&tr, SegmentType::Core, ia(1, 1), ia(2, 1), 6),
            SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(ps.lookup_down(ia(1, 3), SimTime::ZERO).unwrap().len(), 1);
        assert!(ps.lookup_down(ia(1, 4), SimTime::ZERO).unwrap().is_empty());
        assert_eq!(ps.lookup_core(Isd(2), SimTime::ZERO).unwrap().len(), 1);
        assert!(ps.lookup_core(Isd(3), SimTime::ZERO).unwrap().is_empty());
        assert_eq!(ps.down_destinations(), 1);
    }

    #[test]
    fn core_lookup_order_does_not_depend_on_registration_order() {
        let tr = trust();
        // Far ends 2-1 … 2-5 (and one in ISD 1 that the lookup leaves out),
        // registered front to back at one server and back to front at the
        // other. Enough keys that two hash maps would disagree.
        let segs: Vec<PathSegment> = (1..=5)
            .map(|asn| seg(&tr, SegmentType::Core, ia(1, 1), ia(2, asn), 6))
            .chain([seg(&tr, SegmentType::Core, ia(1, 1), ia(1, 2), 6)])
            .collect();
        let mut a = PathServer::new(ia(1, 1), true);
        let mut b = PathServer::new(ia(1, 1), true);
        for s in &segs {
            a.register_core_segment(s.clone(), SimTime::ZERO).unwrap();
        }
        for s in segs.iter().rev() {
            b.register_core_segment(s.clone(), SimTime::ZERO).unwrap();
        }
        let answer = a.lookup_core(Isd(2), SimTime::ZERO).unwrap();
        assert_eq!(answer, b.lookup_core(Isd(2), SimTime::ZERO).unwrap());
        let far_ends: Vec<IsdAsn> = answer.iter().map(|s| s.terminal()).collect();
        assert_eq!(far_ends, (1..=5).map(|asn| ia(2, asn)).collect::<Vec<_>>());
    }

    #[test]
    fn expired_segments_not_served() {
        let tr = trust();
        let mut ps = PathServer::new(ia(1, 1), true);
        ps.register_down_segment(
            seg(&tr, SegmentType::Down, ia(1, 1), ia(1, 3), 1),
            SimTime::ZERO,
        )
        .unwrap();
        let later = SimTime::ZERO + Duration::from_hours(2);
        assert!(ps.lookup_down(ia(1, 3), later).unwrap().is_empty());
    }

    #[test]
    fn registration_garbage_collects_expired_predecessors() {
        let tr = trust();
        let mut ps = PathServer::new(ia(1, 1), true);
        ps.register_down_segment(
            seg(&tr, SegmentType::Down, ia(1, 1), ia(1, 3), 1),
            SimTime::ZERO,
        )
        .unwrap();
        ps.register_down_segment(
            seg(&tr, SegmentType::Down, ia(1, 1), ia(1, 3), 1),
            SimTime::ZERO,
        )
        .unwrap();
        // Another destination's expired segments are untouched by ia(1,3)
        // registrations — GC is per-destination.
        ps.register_down_segment(
            seg(&tr, SegmentType::Down, ia(1, 1), ia(1, 4), 1),
            SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(ps.cache_stats().segments_purged, 0);

        // Re-registering after expiry purges the two lapsed predecessors.
        let later = SimTime::ZERO + Duration::from_hours(2);
        ps.register_down_segment(seg(&tr, SegmentType::Down, ia(1, 1), ia(1, 3), 6), later)
            .unwrap();
        assert_eq!(ps.cache_stats().segments_purged, 2);
        assert_eq!(ps.lookup_down(ia(1, 3), later).unwrap().len(), 1);

        // Core-segment registrations GC their store the same way.
        ps.register_core_segment(
            seg(&tr, SegmentType::Core, ia(1, 1), ia(2, 1), 1),
            SimTime::ZERO,
        )
        .unwrap();
        ps.register_core_segment(seg(&tr, SegmentType::Core, ia(1, 1), ia(2, 1), 6), later)
            .unwrap();
        assert_eq!(ps.cache_stats().segments_purged, 3);
    }

    #[test]
    fn non_core_cannot_take_registrations() {
        let tr = trust();
        let mut ps = PathServer::new(ia(1, 3), false);
        assert_eq!(
            ps.register_down_segment(
                seg(&tr, SegmentType::Down, ia(1, 1), ia(1, 3), 6),
                SimTime::ZERO,
            ),
            Err(ServerError::NotCore {
                op: "register_down"
            })
        );
        assert_eq!(ps.down_destinations(), 0, "rejected segment must not land");
    }

    #[test]
    fn cache_hit_miss_accounting() {
        let tr = trust();
        let mut local = PathServer::new(ia(1, 3), false);
        assert_eq!(
            local.lookup_cached(ia(2, 4), SimTime::ZERO),
            LookupResult::Miss
        );
        local.cache_insert(
            ia(2, 4),
            vec![seg(&tr, SegmentType::Down, ia(2, 1), ia(2, 4), 6)],
            SimTime::ZERO,
        );
        assert!(matches!(
            local.lookup_cached(ia(2, 4), SimTime::ZERO + Duration::from_mins(5)),
            LookupResult::Hit(_)
        ));
        let stats = local.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // Expired cached segments fall out and count as miss.
        assert_eq!(
            local.lookup_cached(ia(2, 4), SimTime::ZERO + Duration::from_hours(7)),
            LookupResult::Miss
        );
        assert_eq!(local.cache_stats().misses, 2);
    }

    #[test]
    fn stale_segments_served_degraded_within_grace() {
        let tr = trust();
        let mut local = PathServer::new(ia(1, 3), false);
        local.cache_insert(
            ia(2, 4),
            vec![seg(&tr, SegmentType::Down, ia(2, 1), ia(2, 4), 6)],
            SimTime::ZERO,
        );
        // Expired 30 minutes ago: a live lookup misses, but the degraded
        // path still serves it within the grace window.
        let now = SimTime::ZERO + Duration::from_hours(6) + Duration::from_mins(30);
        assert_eq!(local.lookup_cached(ia(2, 4), now), LookupResult::Miss);
        let stale = local.lookup_stale(ia(2, 4), now, PathServer::STALE_GRACE);
        assert_eq!(stale.map(|v| v.len()), Some(1));
        assert_eq!(local.cache_stats().degraded_serves, 1);
        // Beyond the grace window the entry is gone for good.
        let much_later = SimTime::ZERO + Duration::from_hours(8);
        assert_eq!(
            local.lookup_cached(ia(2, 4), much_later),
            LookupResult::Miss
        );
        assert!(local
            .lookup_stale(ia(2, 4), much_later, PathServer::STALE_GRACE)
            .is_none());
    }

    #[test]
    fn negative_cache_short_circuits_until_ttl() {
        let tr = trust();
        let mut local = PathServer::new(ia(1, 3), false);
        let ttl = Duration::from_mins(10);
        assert!(!local.negative_cached(ia(2, 4), SimTime::ZERO));
        local.note_unreachable(ia(2, 4), SimTime::ZERO, ttl);
        assert!(local.negative_cached(ia(2, 4), SimTime::ZERO + Duration::from_mins(5)));
        assert!(!local.negative_cached(ia(2, 4), SimTime::ZERO + Duration::from_mins(10)));
        assert_eq!(local.cache_stats().negative_hits, 1);
        // A successful fetch clears the verdict immediately.
        local.note_unreachable(ia(2, 4), SimTime::ZERO, ttl);
        local.cache_insert(
            ia(2, 4),
            vec![seg(&tr, SegmentType::Down, ia(2, 1), ia(2, 4), 6)],
            SimTime::ZERO,
        );
        assert!(!local.negative_cached(ia(2, 4), SimTime::ZERO + Duration::from_mins(1)));
    }

    #[test]
    fn telemetry_counts_registrations_and_lookups() {
        use scion_telemetry::{ids, Label, Telemetry, TelemetryConfig};
        let tr = trust();
        let mut tel = Telemetry::new(TelemetryConfig::default());
        let mut ps = PathServer::new(ia(1, 1), true);
        ps.register_down_segment_telemetry(
            seg(&tr, SegmentType::Down, ia(1, 1), ia(1, 3), 6),
            SimTime::ZERO,
            &mut tel,
        )
        .unwrap();
        assert_eq!(ps.down_destinations(), 1);
        let mut local = PathServer::new(ia(1, 3), false);
        let miss = local.lookup_cached_telemetry(ia(1, 4), SimTime::ZERO, &mut tel);
        assert_eq!(miss, LookupResult::Miss);
        assert_eq!(tel.metrics.counter(ids::PS_REGISTRATIONS, Label::Global), 1);
        assert_eq!(tel.metrics.counter(ids::PS_LOOKUPS, Label::Global), 1);
        assert_eq!(tel.metrics.counter(ids::PS_CACHE_HITS, Label::Global), 0);
        assert_eq!(tel.traces.len(), 1);
    }

    #[test]
    fn deregister_removes_matching_segments() {
        let tr = trust();
        let mut ps = PathServer::new(ia(1, 1), true);
        ps.register_down_segment(
            seg(&tr, SegmentType::Down, ia(1, 1), ia(1, 3), 6),
            SimTime::ZERO,
        )
        .unwrap();
        ps.register_down_segment(
            seg(&tr, SegmentType::Down, ia(1, 1), ia(1, 4), 6),
            SimTime::ZERO,
        )
        .unwrap();
        let removed = ps.deregister_where(|s| s.terminal() == ia(1, 3));
        assert_eq!(removed, 1);
        assert!(ps.lookup_down(ia(1, 3), SimTime::ZERO).unwrap().is_empty());
        assert_eq!(ps.lookup_down(ia(1, 4), SimTime::ZERO).unwrap().len(), 1);
    }

    #[test]
    fn up_segments_stored_and_filtered() {
        let tr = trust();
        let mut local = PathServer::new(ia(1, 3), false);
        local
            .store_up_segment(seg(&tr, SegmentType::Up, ia(1, 1), ia(1, 3), 1))
            .unwrap();
        assert_eq!(local.up_segments(SimTime::ZERO).len(), 1);
        assert!(local
            .up_segments(SimTime::ZERO + Duration::from_hours(2))
            .is_empty());
    }
}
