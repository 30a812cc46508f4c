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
use scion_types::{Duration, Isd, IsdAsn, LinkId, SimTime};
use serde::Serialize;

use crate::revocation::segment_uses_link;

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
    /// Revoked links and the instant each revocation lapses
    /// ([`PathServer::revoke_link`]).
    revoked: BTreeMap<LinkId, SimTime>,
    /// Cache and degradation statistics.
    stats: CacheStats,
}

impl PathServer {
    /// How long past expiry a cached segment remains eligible for
    /// degraded serving (and is retained in the cache).
    pub const STALE_GRACE: Duration = Duration::from_hours(1);

    /// How long a negative verdict ([`PathServer::note_unreachable`])
    /// answers for a destination whose upstream lookup gave up.
    pub const NEGATIVE_TTL: Duration = Duration::from_mins(5);

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
            revoked: BTreeMap::new(),
            stats: CacheStats::default(),
        }
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

    /// The local AS's live, unrevoked up-segments.
    pub fn up_segments(&self, now: SimTime) -> Vec<PathSegment> {
        self.up_segments
            .iter()
            .filter(|s| self.serves(s, now))
            .cloned()
            .collect()
    }

    /// True if a lookup at `now` serves the stored `seg`: it is unexpired
    /// and crosses no link whose revocation is in force.
    fn serves(&self, seg: &PathSegment, now: SimTime) -> bool {
        !seg.is_expired(now) && unrevoked(&self.revoked, seg, now)
    }

    /// De-registers segments by predicate, in place. Returns how many were
    /// removed across all stores, visited down, core, then up, the two
    /// authoritative stores by destination address.
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

    /// Pulls every stored segment crossing `failed` — the revocation of a
    /// failed link — and returns them in [`PathServer::deregister_where`]'s
    /// order.
    pub fn deregister_link(&mut self, failed: LinkId) -> Vec<PathSegment> {
        let mut pulled = Vec::new();
        self.deregister_where(|s| {
            let hit = segment_uses_link(s, failed);
            if hit {
                pulled.push(s.clone());
            }
            hit
        });
        pulled
    }

    /// Revokes `link` until `until` (§4.1, with the deployed TTL): no
    /// lookup serves a segment while any link it crosses is revoked
    /// (`now < until`), and nothing leaves the stores. A repeat call
    /// renews the lapse time; every call drops lapsed entries. Returns
    /// the segments served before the call and withheld after it, in
    /// [`PathServer::deregister_where`]'s order.
    pub fn revoke_link(&mut self, link: LinkId, until: SimTime, now: SimTime) -> Vec<PathSegment> {
        let mut withheld: Vec<PathSegment> = self
            .down_segments
            .values()
            .chain(self.core_segments.values())
            .flatten()
            .chain(&self.up_segments)
            .filter(|s| segment_uses_link(s, link) && self.serves(s, now))
            .cloned()
            .collect();
        self.revoked.insert(link, until);
        self.revoked.retain(|_, lapse| now < *lapse);
        withheld.retain(|s| !self.serves(s, now));
        withheld
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
            .map(|v| v.iter().filter(|s| self.serves(s, now)).cloned().collect())
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
                out.extend(segs.iter().filter(|s| self.serves(s, now)).cloned());
            }
        }
        Ok(out)
    }

    /// Cached lookup at a local server: hit if a live cached answer
    /// exists, miss otherwise (caller fetches upstream and calls
    /// [`PathServer::cache_insert`]). A cached segment is live as a stored
    /// one is served: unexpired and across no link this server has revoked
    /// ([`PathServer::revoke_link`]).
    ///
    /// An entry whose segments all lapsed is *kept* for
    /// [`PathServer::STALE_GRACE`] past expiry — [`PathServer::lookup_stale`]
    /// degrades onto it when the upstream fetch exhausts its retries —
    /// and evicted once every segment is long-dead.
    pub fn lookup_cached(&mut self, dst: IsdAsn, now: SimTime) -> LookupResult {
        if let Some((segs, _)) = self.cache.get_mut(&dst) {
            let live: Vec<PathSegment> = segs
                .iter()
                .filter(|s| !s.is_expired(now) && unrevoked(&self.revoked, s, now))
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

    /// Graceful degradation: serves `dst`'s recently-expired cached
    /// segments — expired no earlier than [`PathServer::STALE_GRACE`]
    /// before `now` and across no link revoked at `now` — for a caller
    /// whose upstream retries exhausted.
    /// Returns `None` when nothing recent enough is cached; the caller
    /// should then fall back to [`PathServer::note_unreachable`]. Served
    /// segments are stale by construction: the caller must surface them
    /// flagged as degraded.
    pub fn lookup_stale(&mut self, dst: IsdAsn, now: SimTime) -> Option<Vec<PathSegment>> {
        let horizon = stale_horizon(now, Self::STALE_GRACE);
        let stale: Vec<PathSegment> = self
            .cache
            .get(&dst)?
            .0
            .iter()
            .filter(|s| !s.is_expired(horizon) && unrevoked(&self.revoked, s, now))
            .cloned()
            .collect();
        if stale.is_empty() {
            return None;
        }
        self.stats.degraded_serves += 1;
        Some(stale)
    }

    /// Records that `dst`'s upstream lookup gave up at `now`: until the
    /// verdict lapses after [`PathServer::NEGATIVE_TTL`],
    /// [`PathServer::negative_cached`] answers locally instead of
    /// launching another retry storm.
    pub fn note_unreachable(&mut self, dst: IsdAsn, now: SimTime) {
        self.negative.insert(dst, now + Self::NEGATIVE_TTL);
    }

    /// Resolves a lookup of `dst` whose upstream retries are exhausted:
    /// `Some` serves recently-expired cached segments, which consumers
    /// must treat as unverified; `None` means nothing recent enough is
    /// cached, and the destination is negative-cached.
    pub fn degrade(&mut self, dst: IsdAsn, now: SimTime) -> Option<Vec<PathSegment>> {
        let stale = self.lookup_stale(dst, now);
        if stale.is_none() {
            self.note_unreachable(dst, now);
        }
        stale
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

/// True if `seg` crosses no link whose revocation in `revoked` is in force
/// at `now`; a single branch when nothing is revoked.
fn unrevoked(revoked: &BTreeMap<LinkId, SimTime>, seg: &PathSegment, now: SimTime) -> bool {
    revoked.is_empty()
        || !seg.links_iter().any(|(a, b)| {
            revoked
                .get(&LinkId::new(a, b))
                .is_some_and(|&lapse| now < lapse)
        })
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
        // The happy path still lands the segment, and a revocation
        // withholds it without moving it.
        assert_eq!(
            core.register_down_segment(down.clone(), SimTime::ZERO),
            Ok(())
        );
        let (a, b) = down.links()[0];
        let lapse = SimTime::ZERO + Duration::from_secs(5);
        assert_eq!(
            core.revoke_link(LinkId::new(a, b), lapse, SimTime::ZERO),
            [down]
        );
        assert!(core
            .lookup_down(ia(1, 4), SimTime::ZERO)
            .unwrap()
            .is_empty());
        assert_eq!(core.lookup_down(ia(1, 4), lapse).unwrap().len(), 1);
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
        let stale = local.lookup_stale(ia(2, 4), now);
        assert_eq!(stale.map(|v| v.len()), Some(1));
        assert_eq!(local.cache_stats().degraded_serves, 1);
        // Beyond the grace window the entry is gone for good.
        let much_later = SimTime::ZERO + Duration::from_hours(8);
        assert_eq!(
            local.lookup_cached(ia(2, 4), much_later),
            LookupResult::Miss
        );
        assert!(local.lookup_stale(ia(2, 4), much_later).is_none());
    }

    #[test]
    fn negative_cache_short_circuits_until_ttl() {
        let tr = trust();
        let mut local = PathServer::new(ia(1, 3), false);
        let ttl = PathServer::NEGATIVE_TTL;
        assert!(!local.negative_cached(ia(2, 4), SimTime::ZERO));
        local.note_unreachable(ia(2, 4), SimTime::ZERO);
        assert!(local.negative_cached(ia(2, 4), SimTime::ZERO + Duration::from_mins(4)));
        assert!(!local.negative_cached(ia(2, 4), SimTime::ZERO + ttl));
        assert_eq!(local.cache_stats().negative_hits, 1);
        // A successful fetch clears the verdict immediately.
        local.note_unreachable(ia(2, 4), SimTime::ZERO);
        local.cache_insert(
            ia(2, 4),
            vec![seg(&tr, SegmentType::Down, ia(2, 1), ia(2, 4), 6)],
            SimTime::ZERO,
        );
        assert!(!local.negative_cached(ia(2, 4), SimTime::ZERO + Duration::from_mins(1)));
    }

    #[test]
    fn degrade_serves_stale_then_negative_caches() {
        let tr = trust();
        let mut local = PathServer::new(ia(1, 3), false);
        local.cache_insert(
            ia(2, 4),
            vec![seg(&tr, SegmentType::Down, ia(2, 1), ia(2, 4), 6)],
            SimTime::ZERO,
        );

        // 30 minutes past expiry: degraded serving, no negative verdict.
        let now = SimTime::ZERO + Duration::from_hours(6) + Duration::from_mins(30);
        assert_eq!(local.degrade(ia(2, 4), now).map(|v| v.len()), Some(1));
        assert!(!local.negative_cached(ia(2, 4), now));

        // A destination with nothing cached goes straight to the negative
        // cache, for five minutes.
        assert_eq!(local.degrade(ia(2, 5), now), None);
        assert!(local.negative_cached(ia(2, 5), now + Duration::from_mins(1)));
        assert!(!local.negative_cached(ia(2, 5), now + Duration::from_mins(5)));
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
    fn deregister_link_pulls_down_then_core_then_up() {
        let tr = trust();
        let mut ps = PathServer::new(ia(1, 1), true);
        let up = seg(&tr, SegmentType::Up, ia(1, 1), ia(1, 3), 6);
        let core = seg(&tr, SegmentType::Core, ia(1, 1), ia(1, 3), 6);
        let downs = [1, 2].map(|h| seg(&tr, SegmentType::Down, ia(1, 1), ia(1, 3), h));
        let other = seg(&tr, SegmentType::Down, ia(1, 1), ia(1, 4), 6);
        ps.store_up_segment(up.clone()).unwrap();
        ps.register_core_segment(core.clone(), SimTime::ZERO)
            .unwrap();
        for s in downs.iter().chain([&other]) {
            ps.register_down_segment(s.clone(), SimTime::ZERO).unwrap();
        }
        let (a, b) = up.links()[0];
        let pulled = ps.deregister_link(LinkId::new(a, b));
        assert_eq!(pulled, [&downs[0], &downs[1], &core, &up].map(Clone::clone));
        assert!(ps.deregister_link(LinkId::new(a, b)).is_empty());
        assert_eq!(ps.lookup_down(ia(1, 4), SimTime::ZERO).unwrap(), [other]);
    }

    #[test]
    fn core_and_up_lookups_honour_a_revocation() {
        let tr = trust();
        let t = |s: u64| SimTime::ZERO + Duration::from_secs(s);
        let link = |s: &PathSegment| {
            let (a, b) = s.links()[0];
            LinkId::new(a, b)
        };

        let mut core = PathServer::new(ia(1, 1), true);
        let core_seg = seg(&tr, SegmentType::Core, ia(1, 1), ia(2, 1), 6);
        core.register_core_segment(core_seg.clone(), SimTime::ZERO)
            .unwrap();
        assert_eq!(
            core.revoke_link(link(&core_seg), t(5), t(1)),
            std::slice::from_ref(&core_seg)
        );
        assert!(core.lookup_core(Isd(2), t(1)).unwrap().is_empty());
        assert!(core.lookup_core(Isd(2), t(4)).unwrap().is_empty());
        assert_eq!(core.lookup_core(Isd(2), t(5)).unwrap(), [core_seg]);

        let mut local = PathServer::new(ia(1, 3), false);
        let up = seg(&tr, SegmentType::Up, ia(1, 1), ia(1, 3), 6);
        local.store_up_segment(up.clone()).unwrap();
        assert_eq!(
            local.revoke_link(link(&up), t(5), t(1)),
            std::slice::from_ref(&up)
        );
        assert!(local.up_segments(t(4)).is_empty());
        assert_eq!(local.up_segments(t(5)), [up]);
    }

    #[test]
    fn cached_reads_withhold_a_segment_across_a_revoked_link() {
        let tr = trust();
        let t = |s: u64| SimTime::ZERO + Duration::from_secs(s);
        let mut local = PathServer::new(ia(1, 3), false);
        let down = seg(&tr, SegmentType::Down, ia(2, 1), ia(2, 4), 6);
        let (a, b) = down.links()[0];
        local.cache_insert(ia(2, 4), vec![down.clone()], SimTime::ZERO);
        assert!(
            local.revoke_link(LinkId::new(a, b), t(5), t(1)).is_empty(),
            "nothing stored crosses the link"
        );
        assert_eq!(local.lookup_cached(ia(2, 4), t(1)), LookupResult::Miss);
        assert_eq!(local.lookup_stale(ia(2, 4), t(1)), None);
        assert_eq!(local.degrade(ia(2, 4), t(4)), None);
        let stats = local.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.degraded_serves), (0, 1, 0));
        // The entry stayed cached: once the revocation lapses it answers.
        assert_eq!(
            local.lookup_cached(ia(2, 4), t(5)),
            LookupResult::Hit(vec![down.clone()])
        );
        assert_eq!(local.lookup_stale(ia(2, 4), t(5)), Some(vec![down]));
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
