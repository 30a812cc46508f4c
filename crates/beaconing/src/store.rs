//! The beacon store: received PCBs, grouped by origin AS, with the §5.1
//! per-origin storage limit.
//!
//! A stored beacon pairs the PCB with the local ingress information the
//! receiver learned at arrival (the PCB's final link is otherwise dangling,
//! see `scion_proto::pcb`). The store deduplicates by *path*: a newer
//! instance of an already-known path replaces the older instance, because a
//! path's identity — not a beacon instance — is what the algorithms reason
//! about.
//!
//! Eviction when the per-origin limit is exceeded (policy documented in
//! DESIGN.md §6.4): expired entries go first; among live ones, the entry
//! with the longest path is evicted, ties broken by earliest expiry, so the
//! store retains short fresh paths — matching the baseline algorithm's
//! preference and giving the diversity algorithm the same raw material the
//! paper's simulator gives it.
//!
//! The eviction is decided before the group grows: a full group weighs its
//! entries and the newcomer, the newcomer last, and keeps all but the one
//! the policy picks, which may be the newcomer. A group under a limit grows
//! one slot at a time, so it never holds more room than the limit or than
//! the most beacons it has held; an unlimited store's groups grow as `Vec`
//! does.

use scion_proto::pcb::Pcb;
use scion_topology::LinkIndex;
use scion_types::{FastMap, IfId, IsdAsn, SimTime};

/// A received beacon plus arrival bookkeeping.
#[derive(Clone, Debug)]
pub struct StoredBeacon {
    pub pcb: Pcb,
    /// The link the beacon arrived on.
    pub ingress_link: LinkIndex,
    /// The local interface id of that link.
    pub ingress_if: IfId,
    /// When it was received.
    pub received_at: SimTime,
}

// A group holds these side by side: a field that makes one bigger fails
// the build.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<StoredBeacon>() == 72);

/// A beacon removed by the per-origin storage limit; surfaced so callers
/// can account for (and trace) evictions without the store knowing about
/// telemetry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvictedBeacon {
    pub origin: IsdAsn,
    pub hops: usize,
    /// True when the evicted entry was already expired.
    pub expired: bool,
}

/// The result of [`BeaconStore::insert_outcome`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InsertOutcome {
    /// True if the store changed (new path, or fresher instance of a
    /// known path).
    pub changed: bool,
    /// The entry the storage limit pushed out, if any.
    pub evicted: Option<EvictedBeacon>,
}

/// Per-origin beacon storage.
#[derive(Clone, Debug, Default)]
pub struct BeaconStore {
    by_origin: FastMap<IsdAsn, Vec<StoredBeacon>>,
    limit: Option<usize>,
}

impl BeaconStore {
    /// Creates a store with the given per-origin storage limit
    /// (`None` = unlimited).
    pub fn new(limit: Option<usize>) -> BeaconStore {
        BeaconStore {
            by_origin: FastMap::default(),
            limit,
        }
    }

    /// Inserts a received beacon.
    ///
    /// Returns `true` if the store changed (new path, or fresher instance
    /// of a known path). An older instance of a known path is ignored.
    pub fn insert(&mut self, beacon: StoredBeacon, now: SimTime) -> bool {
        self.insert_outcome(beacon, now).changed
    }

    /// Like [`BeaconStore::insert`], but also reports which entry the
    /// storage limit evicted (if any) so callers can trace evictions.
    pub fn insert_outcome(&mut self, beacon: StoredBeacon, now: SimTime) -> InsertOutcome {
        if self.limit == Some(0) {
            // Nothing is kept, so the newcomer is its own victim, and no
            // group is made for it: `origins` lists no origin without a
            // beacon.
            return InsertOutcome {
                changed: true,
                evicted: Some(EvictedBeacon {
                    origin: beacon.pcb.origin,
                    hops: beacon.pcb.hop_count(),
                    expired: beacon.pcb.is_expired(now),
                }),
            };
        }
        let entries = self.by_origin.entry(beacon.pcb.origin).or_default();

        // Same path: the two beacons' hops compared where they lie.
        if let Some(existing) = entries
            .iter_mut()
            .find(|e| e.pcb.path_hops().eq(beacon.pcb.path_hops()))
        {
            let changed = beacon.pcb.initiated_at > existing.pcb.initiated_at;
            if changed {
                *existing = beacon;
            }
            return InsertOutcome {
                changed,
                evicted: None,
            };
        }

        let evicted = match self.limit {
            None => {
                entries.push(beacon);
                None
            }
            Some(limit) if entries.len() < limit => {
                entries.reserve_exact(1);
                entries.push(beacon);
                None
            }
            Some(_) => {
                let (victim, expired) = Self::victim(entries, &beacon, now);
                let gone = if victim == entries.len() {
                    beacon
                } else {
                    let gone = entries.remove(victim);
                    entries.push(beacon);
                    gone
                };
                Some(EvictedBeacon {
                    origin: gone.pcb.origin,
                    hops: gone.pcb.hop_count(),
                    expired,
                })
            }
        };
        InsertOutcome {
            changed: true,
            evicted,
        }
    }

    /// The entry a full group gives up when `newcomer` arrives, as an index
    /// into the group followed by the newcomer, and whether it is expired:
    /// the first expired one if any, otherwise the worst (longest path, then
    /// earliest expiry, then oldest receipt, then latest position, so the
    /// newcomer loses every tie).
    fn victim(entries: &[StoredBeacon], newcomer: &StoredBeacon, now: SimTime) -> (usize, bool) {
        if let Some(pos) = entries.iter().position(|e| e.pcb.is_expired(now)) {
            return (pos, true);
        }
        if newcomer.pcb.is_expired(now) {
            return (entries.len(), true);
        }
        let badness = |e: &StoredBeacon| {
            (
                e.pcb.hop_count(),
                std::cmp::Reverse(e.pcb.expires_at),
                std::cmp::Reverse(e.received_at),
            )
        };
        // Walked from the back, the later of two equals keeps the place.
        let mut worst = (entries.len(), badness(newcomer));
        for (i, e) in entries.iter().enumerate().rev() {
            let b = badness(e);
            if b > worst.1 {
                worst = (i, b);
            }
        }
        (worst.0, false)
    }

    /// Drops all expired beacons (run at the start of each interval).
    pub fn purge_expired(&mut self, now: SimTime) {
        for entries in self.by_origin.values_mut() {
            entries.retain(|e| !e.pcb.is_expired(now));
        }
        self.by_origin.retain(|_, v| !v.is_empty());
    }

    /// Live beacons for one origin (expired entries filtered).
    pub fn beacons_of(&self, origin: IsdAsn, now: SimTime) -> Vec<&StoredBeacon> {
        self.by_origin
            .get(&origin)
            .map(|v| v.iter().filter(|e| !e.pcb.is_expired(now)).collect())
            .unwrap_or_default()
    }

    /// All origins with at least one stored beacon, sorted for determinism.
    pub fn origins(&self) -> Vec<IsdAsn> {
        let mut o: Vec<IsdAsn> = self.by_origin.keys().copied().collect();
        o.sort();
        o
    }

    /// Total number of stored beacons (including possibly-expired ones not
    /// yet purged).
    pub fn len(&self) -> usize {
        self.by_origin.values().map(Vec::len).sum()
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scion_crypto::trc::TrustStore;
    use scion_types::{Asn, Duration, Isd};

    fn ia(asn: u64) -> IsdAsn {
        IsdAsn::new(Isd(1), Asn::from_u64(asn))
    }

    fn trust() -> TrustStore {
        TrustStore::bootstrap(
            (1..=9).map(|n| (ia(n), n <= 2)),
            SimTime::ZERO + Duration::from_days(30),
        )
    }

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + Duration::from_secs(secs)
    }

    fn beacon(trust: &TrustStore, egress: u16, at: SimTime, hops: &[u64]) -> StoredBeacon {
        let mut pcb = Pcb::originate(ia(1), IfId(egress), at, Duration::from_hours(6), 0, trust);
        for &h in hops {
            pcb = pcb.extend(ia(h), IfId(1), IfId(2), vec![], trust);
        }
        StoredBeacon {
            pcb,
            ingress_link: LinkIndex(0),
            ingress_if: IfId(3),
            received_at: at,
        }
    }

    #[test]
    fn insert_and_query() {
        let tr = trust();
        let mut s = BeaconStore::new(Some(10));
        assert!(s.insert(beacon(&tr, 1, t(0), &[3]), t(0)));
        assert!(s.insert(beacon(&tr, 2, t(0), &[3]), t(0)));
        assert_eq!(s.beacons_of(ia(1), t(1)).len(), 2);
        assert_eq!(s.origins(), vec![ia(1)]);
        assert!(s.beacons_of(ia(2), t(1)).is_empty());
    }

    #[test]
    fn newer_instance_replaces_same_path() {
        let tr = trust();
        let mut s = BeaconStore::new(Some(10));
        assert!(s.insert(beacon(&tr, 1, t(0), &[3]), t(0)));
        // Same path, fresher instance.
        assert!(s.insert(beacon(&tr, 1, t(600), &[3]), t(600)));
        assert_eq!(s.len(), 1);
        assert_eq!(s.beacons_of(ia(1), t(601))[0].pcb.initiated_at, t(600));
        // Stale instance is ignored.
        assert!(!s.insert(beacon(&tr, 1, t(300), &[3]), t(601)));
        assert_eq!(s.beacons_of(ia(1), t(601))[0].pcb.initiated_at, t(600));
    }

    #[test]
    fn storage_limit_evicts_longest_path() {
        let tr = trust();
        let mut s = BeaconStore::new(Some(2));
        s.insert(beacon(&tr, 1, t(0), &[3]), t(0)); // 2 hops
        s.insert(beacon(&tr, 2, t(0), &[3, 4, 5]), t(0)); // 4 hops
        s.insert(beacon(&tr, 3, t(0), &[3, 4]), t(0)); // 3 hops -> evict 4-hop
        let lens: Vec<usize> = s
            .beacons_of(ia(1), t(1))
            .iter()
            .map(|b| b.pcb.hop_count())
            .collect();
        assert_eq!(s.len(), 2);
        assert!(lens.contains(&2) && lens.contains(&3), "lens {lens:?}");
    }

    #[test]
    fn insert_outcome_reports_eviction() {
        let tr = trust();
        let mut s = BeaconStore::new(Some(2));
        assert_eq!(
            s.insert_outcome(beacon(&tr, 1, t(0), &[3]), t(0)),
            InsertOutcome {
                changed: true,
                evicted: None
            }
        );
        s.insert(beacon(&tr, 2, t(0), &[3, 4, 5]), t(0)); // 4 hops
        let out = s.insert_outcome(beacon(&tr, 3, t(0), &[3, 4]), t(0));
        assert!(out.changed);
        let ev = out.evicted.expect("limit of 2 must evict");
        assert_eq!(ev.origin, ia(1));
        assert_eq!(ev.hops, 4, "longest live path goes first");
        assert!(!ev.expired);
    }

    #[test]
    fn eviction_prefers_expired() {
        let tr = trust();
        let mut s = BeaconStore::new(Some(2));
        s.insert(beacon(&tr, 1, t(0), &[3]), t(0));
        // Jump past expiry of the first beacon.
        let later = t(7 * 3600);
        s.insert(beacon(&tr, 2, later, &[3, 4, 5]), later);
        s.insert(beacon(&tr, 3, later, &[3, 4]), later);
        // The expired short beacon was evicted, both long ones live.
        let live = s.beacons_of(ia(1), later + Duration::from_secs(1));
        assert_eq!(live.len(), 2);
        assert!(live.iter().all(|b| !b.pcb.is_expired(later)));
    }

    #[test]
    fn unlimited_store_never_evicts() {
        let tr = trust();
        let mut s = BeaconStore::new(None);
        for e in 1..=50u16 {
            s.insert(beacon(&tr, e, t(0), &[3]), t(0));
        }
        assert_eq!(s.len(), 50);
    }

    #[test]
    fn purge_expired_removes_dead_entries() {
        let tr = trust();
        let mut s = BeaconStore::new(None);
        s.insert(beacon(&tr, 1, t(0), &[3]), t(0));
        s.insert(beacon(&tr, 2, t(3600), &[3]), t(3600));
        s.purge_expired(t(6 * 3600 + 1)); // first expired, second not
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        s.purge_expired(t(10 * 3600));
        assert!(s.is_empty());
    }

    #[test]
    fn beacons_of_filters_expired_lazily() {
        let tr = trust();
        let mut s = BeaconStore::new(None);
        s.insert(beacon(&tr, 1, t(0), &[3]), t(0));
        assert_eq!(s.beacons_of(ia(1), t(6 * 3600)).len(), 0);
        assert_eq!(s.len(), 1, "not yet purged, only filtered");
    }

    /// The store's insertion before a full group decided its eviction ahead
    /// of growing: push, then evict from the grown group. Kept as what the
    /// store is compared against, with one change: a group the eviction
    /// empties (a limit of 0) is dropped, where the old insertion left it
    /// empty in the map.
    mod reference {
        use super::super::*;

        pub fn insert_outcome(
            store: &mut BeaconStore,
            beacon: StoredBeacon,
            now: SimTime,
        ) -> InsertOutcome {
            let entries = store.by_origin.entry(beacon.pcb.origin).or_default();
            if let Some(existing) = entries
                .iter_mut()
                .find(|e| e.pcb.path_hops().eq(beacon.pcb.path_hops()))
            {
                let changed = beacon.pcb.initiated_at > existing.pcb.initiated_at;
                if changed {
                    *existing = beacon;
                }
                return InsertOutcome {
                    changed,
                    evicted: None,
                };
            }
            let origin = beacon.pcb.origin;
            entries.push(beacon);
            let mut evicted = None;
            if let Some(limit) = store.limit {
                if entries.len() > limit {
                    evicted = Some(evict(entries, now));
                }
            }
            if entries.is_empty() {
                store.by_origin.remove(&origin);
            }
            InsertOutcome {
                changed: true,
                evicted,
            }
        }

        fn evict(entries: &mut Vec<StoredBeacon>, now: SimTime) -> EvictedBeacon {
            if let Some(pos) = entries.iter().position(|e| e.pcb.is_expired(now)) {
                let gone = entries.remove(pos);
                return EvictedBeacon {
                    origin: gone.pcb.origin,
                    hops: gone.pcb.hop_count(),
                    expired: true,
                };
            }
            let worst = entries
                .iter()
                .enumerate()
                .max_by_key(|(i, e)| {
                    (
                        e.pcb.hop_count(),
                        std::cmp::Reverse(e.pcb.expires_at),
                        std::cmp::Reverse(e.received_at),
                        *i,
                    )
                })
                .map(|(i, _)| i)
                .expect("non-empty");
            let gone = entries.remove(worst);
            EvictedBeacon {
                origin: gone.pcb.origin,
                hops: gone.pcb.hop_count(),
                expired: false,
            }
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// The paths an origin's beacons take, as `(origin egress, ASes
        /// appended)`: two of one hop, three of two and two of three, so hop
        /// counts tie.
        const PATHS: [(u16, &[u64]); 7] = [
            (1, &[]),
            (2, &[]),
            (1, &[3]),
            (2, &[4]),
            (3, &[5]),
            (1, &[3, 4]),
            (2, &[4, 3]),
        ];

        /// One drawn operation: `(kind, origin, path, age, lifetime,
        /// receipt delay, clock step)`; kind 0 purges, any other inserts.
        type Op = (u8, u64, usize, usize, usize, usize, usize);

        /// A beacon from origin `ia(origin)` along `PATHS[path]`, initiated
        /// `age` ago with `lifetime` (so some are expired on arrival and
        /// many share an expiry), received `delay` ago.
        fn drawn(tr: &TrustStore, op: &Op, now: u64) -> StoredBeacon {
            let &(_, origin, path, age, lifetime, delay, _) = op;
            let (egress, hops) = PATHS[path];
            let at = t(now - [0, 0, 30, 7200][age]);
            let lifetime = Duration::from_hours([1, 2][lifetime]);
            let mut pcb = Pcb::originate(ia(origin), IfId(egress), at, lifetime, 0, tr);
            for &h in hops {
                pcb = pcb.extend(ia(h), IfId(1), IfId(2), vec![], tr);
            }
            StoredBeacon {
                pcb,
                ingress_link: LinkIndex(0),
                ingress_if: IfId(3),
                received_at: t(now - [0, 30][delay]),
            }
        }

        /// An origin's live beacons in store order, each by its PCB and
        /// receipt.
        fn live(s: &BeaconStore, origin: IsdAsn, now: SimTime) -> Vec<(&Pcb, SimTime)> {
            let live = s.beacons_of(origin, now);
            live.into_iter().map(|b| (&b.pcb, b.received_at)).collect()
        }

        /// Every group in origin order, each beacon by its PCB and receipt.
        fn groups(s: &BeaconStore) -> Vec<(IsdAsn, Vec<(&Pcb, SimTime)>)> {
            let mut g: Vec<_> = s
                .by_origin
                .iter()
                .map(|(&o, v)| (o, v.iter().map(|b| (&b.pcb, b.received_at)).collect()))
                .collect();
            g.sort_by_key(|&(o, _)| o);
            g
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

            /// Whatever the insertion sequence, the per-origin storage
            /// limit holds and at most one instance per path key is kept.
            #[test]
            fn prop_limit_and_dedup_invariants(
                inserts in proptest::collection::vec((1u16..6, 0u64..4000u64), 1..40),
                limit in 1usize..5,
            ) {
                let tr = trust();
                let mut s = BeaconStore::new(Some(limit));
                for &(egress, at_secs) in &inserts {
                    let b = beacon(&tr, egress, t(at_secs), &[3]);
                    s.insert(b, t(at_secs));
                }
                let now = t(0);
                let live = s.beacons_of(ia(1), now);
                prop_assert!(s.len() <= limit);
                let mut keys: Vec<_> = live.iter().map(|b| b.pcb.path_key()).collect();
                keys.sort_by(|a, b| a.0.cmp(&b.0));
                keys.dedup();
                prop_assert_eq!(keys.len(), live.len(), "duplicate path keys stored");
            }

            /// For a fixed path, the stored instance is always the newest
            /// ever inserted.
            #[test]
            fn prop_newest_instance_wins(times in proptest::collection::vec(0u64..5000, 1..20)) {
                let tr = trust();
                let mut s = BeaconStore::new(None);
                let mut newest = 0u64;
                for &at in &times {
                    s.insert(beacon(&tr, 1, t(at), &[3]), t(at));
                    newest = newest.max(at);
                }
                let live = s.beacons_of(ia(1), t(0));
                prop_assert_eq!(live.len(), 1);
                prop_assert_eq!(live[0].pcb.initiated_at, t(newest));
            }
        }

        proptest! {
            // Ties on all of hops, expiry and receipt are rare draws; enough
            // cases that a wrong tie-break shows.
            #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

            /// Inserts (new paths, fresher and staler instances of known
            /// ones, expired beacons, ties on hops, expiry and receipt) and
            /// purges leave the store as push-then-evict leaves it, and a
            /// group under a limit never holds room for more than the limit.
            #[test]
            fn prop_store_matches_push_then_evict(
                ops in proptest::collection::vec(
                    (
                        0u8..8,
                        1u64..3,
                        0usize..PATHS.len(),
                        0usize..4,
                        0usize..2,
                        0usize..2,
                        0usize..5,
                    ),
                    1..60,
                ),
                limit in 0usize..8,
            ) {
                let tr = trust();
                let limit = (limit < 7).then_some(limit);
                let mut s = BeaconStore::new(limit);
                let mut old = BeaconStore::new(limit);
                let mut secs = 10 * 3600;
                for op in &ops {
                    secs += [0, 0, 0, 30, 3600][op.6];
                    let now = t(secs);
                    if op.0 == 0 {
                        s.purge_expired(now);
                        old.purge_expired(now);
                    } else {
                        let b = drawn(&tr, op, secs);
                        prop_assert_eq!(
                            s.insert_outcome(b.clone(), now),
                            reference::insert_outcome(&mut old, b, now)
                        );
                    }
                    prop_assert_eq!(s.origins(), old.origins());
                    for o in s.origins() {
                        prop_assert!(!s.by_origin[&o].is_empty(), "origin {} without a beacon", o);
                        prop_assert_eq!(live(&s, o, now), live(&old, o, now));
                    }
                    prop_assert_eq!(s.len(), old.len());
                    prop_assert_eq!(groups(&s), groups(&old));
                    if let Some(limit) = limit {
                        for v in s.by_origin.values() {
                            prop_assert!(
                                v.capacity() <= limit,
                                "capacity {} over limit {}",
                                v.capacity(),
                                limit
                            );
                        }
                    }
                }
            }
        }
    }
}
