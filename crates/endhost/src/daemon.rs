//! The SCION daemon: per-host path resolution and fast failover.
//!
//! §3.4: "The control-plane component (i.e., SCION daemon) communicates
//! with the AS's control service (CS) to build end-to-end forwarding paths
//! for applications on their behalf." §4.2: after a link failure "it can
//! immediately switch to an alternative path not containing the failed
//! link" — which is why diverse path sets matter in the first place.

use std::collections::HashMap;

use scion_dataplane::scmp::ScmpMessage;
use scion_proto::combine::{combine_paths, peering_path, shortcut_path, EndToEndPath};
use scion_proto::segment::{PathSegment, SegmentType};
use scion_types::{Duration, IsdAsn, LinkEnd, LinkId, SimTime};

/// The segments the control service handed the daemon for one resolution:
/// the host's up-segments, core segments toward the destination ISD, and
/// the destination's down-segments.
#[derive(Clone, Debug, Default)]
pub struct SegmentSet {
    pub up: Vec<PathSegment>,
    pub core: Vec<PathSegment>,
    pub down: Vec<PathSegment>,
}

/// The SCION daemon of one host/AS.
#[derive(Clone, Debug, Default)]
pub struct ScionDaemon {
    /// Resolved paths per destination, best (shortest) first.
    cache: HashMap<IsdAsn, Vec<EndToEndPath>>,
    /// Links currently known-failed from SCMP messages, with the time of
    /// the notification.
    failed_links: HashMap<LinkId, SimTime>,
    /// How long an SCMP failure mark stays in force before it ages out
    /// and the marked paths are considered usable again. `None` keeps
    /// marks until [`ScionDaemon::expire_failures`] is called explicitly.
    failure_ttl: Option<Duration>,
    /// Paths handed out (for statistics).
    pub paths_served: u64,
    /// SCMP messages processed.
    pub scmp_processed: u64,
}

/// The links of a path as canonical [`LinkId`]s, read off its hops.
fn path_links(path: &EndToEndPath) -> impl Iterator<Item = LinkId> + '_ {
    path.links_iter().map(|(a, b)| LinkId::new(a, b))
}

impl ScionDaemon {
    pub fn new() -> ScionDaemon {
        ScionDaemon::default()
    }

    /// A daemon whose SCMP failure marks age out after `ttl` — expiry runs
    /// automatically inside [`ScionDaemon::resolve`] and
    /// [`ScionDaemon::best_path_at`], so a repaired link's paths come back
    /// without any explicit restoration call.
    pub fn with_failure_ttl(ttl: Duration) -> ScionDaemon {
        ScionDaemon {
            failure_ttl: Some(ttl),
            ..ScionDaemon::default()
        }
    }

    /// Resolves every end-to-end path the segment set permits, caches
    /// them (shortest first, deduplicated by link sequence), and returns
    /// how many were found.
    ///
    /// Tries all of §2.3's combinations: up+core+down, up+down at a
    /// shared core, shortcuts at a common non-core AS, and peering-link
    /// crossovers.
    pub fn resolve(&mut self, dst: IsdAsn, segments: &SegmentSet, now: SimTime) -> usize {
        self.expire_failures_by_ttl(now);
        let mut found: Vec<EndToEndPath> = Vec::new();
        let live = |s: &&PathSegment| !s.is_expired(now);

        for u in segments.up.iter().filter(live) {
            debug_assert_eq!(u.seg_type, SegmentType::Up);
            for d in segments.down.iter().filter(live) {
                // Same-core join (no core segment needed).
                if let Ok(p) = combine_paths(Some(u), None, Some(d)) {
                    found.push(p);
                }
                if let Ok(p) = shortcut_path(u, d) {
                    found.push(p);
                }
                if let Ok(p) = peering_path(u, d) {
                    found.push(p);
                }
                for c in segments.core.iter().filter(live) {
                    if let Ok(p) = combine_paths(Some(u), Some(c), Some(d)) {
                        found.push(p);
                    }
                }
            }
        }
        self.install_paths(dst, found)
    }

    /// Installs pre-combined paths toward `dst` directly (the recovery
    /// driver hands daemons their multipath set this way). Paths are
    /// cached in [`EndToEndPath::preference`] order — shortest first — one
    /// per link sequence, exactly like [`ScionDaemon::resolve`] output.
    /// Returns the cached count.
    pub fn install_paths(&mut self, dst: IsdAsn, mut paths: Vec<EndToEndPath>) -> usize {
        paths.retain(|p| p.destination() == dst);
        paths.sort_by(EndToEndPath::preference);
        paths.dedup_by(|a, b| a.links_iter().eq(b.links_iter()));
        let n = paths.len();
        self.cache.insert(dst, paths);
        n
    }

    /// [`ScionDaemon::best_path`] at a known instant: ages out failure
    /// marks older than the daemon's failure TTL first, so paths over a
    /// repaired (or merely unconfirmed-dead) link become eligible again.
    pub fn best_path_at(&mut self, dst: IsdAsn, now: SimTime) -> Option<EndToEndPath> {
        self.expire_failures_by_ttl(now);
        self.best_path(dst)
    }

    /// The best usable (non-failed) path toward `dst`, if any.
    pub fn best_path(&mut self, dst: IsdAsn) -> Option<EndToEndPath> {
        let path = self
            .cache
            .get(&dst)?
            .iter()
            .find(|p| path_links(p).all(|l| !self.failed_links.contains_key(&l)))
            .cloned();
        if path.is_some() {
            self.paths_served += 1;
        }
        path
    }

    /// All cached paths toward `dst` (failed ones included; callers that
    /// want usable paths should ask [`ScionDaemon::best_path`]).
    pub fn cached_paths(&self, dst: IsdAsn) -> &[EndToEndPath] {
        self.cache.get(&dst).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Processes an SCMP failure notification: marks the link failed so
    /// subsequent [`ScionDaemon::best_path`] calls avoid it. "Hosts switch
    /// to a different path as soon as the SCMP message is received" (§4.1).
    pub fn handle_scmp(&mut self, msg: &ScmpMessage, now: SimTime) {
        self.scmp_processed += 1;
        if let ScmpMessage::ExternalInterfaceDown { at, interface, .. } = msg {
            // The failed link is identified by its near end; we mark every
            // cached link with that end.
            let near = LinkEnd::new(*at, *interface);
            for path in self.cache.values().flatten() {
                for l in path_links(path) {
                    if l.lo() == near || l.hi() == near {
                        self.failed_links.insert(l, now);
                    }
                }
            }
        }
    }

    /// Clears failure state older than `horizon` (links get repaired; the
    /// control plane re-disseminates paths over them). Returns how many
    /// marks aged out.
    pub fn expire_failures(&mut self, horizon: SimTime) -> usize {
        let before = self.failed_links.len();
        self.failed_links.retain(|_, &mut at| at >= horizon);
        before - self.failed_links.len()
    }

    /// Applies the configured failure TTL at `now`, if one is set.
    fn expire_failures_by_ttl(&mut self, now: SimTime) -> usize {
        match self.failure_ttl {
            Some(ttl) => {
                let horizon = SimTime::from_micros(now.as_micros().saturating_sub(ttl.as_micros()));
                self.expire_failures(horizon)
            }
            None => 0,
        }
    }

    /// Number of currently known-failed links.
    pub fn failed_link_count(&self) -> usize {
        self.failed_links.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scion_crypto::trc::TrustStore;
    use scion_proto::pcb::Pcb;
    use scion_types::{Asn, Duration, IfId, Isd};

    fn ia(isd: u16, asn: u64) -> IsdAsn {
        IsdAsn::new(Isd(isd), Asn::from_u64(asn))
    }

    fn trust() -> TrustStore {
        let mut ases = vec![];
        for isd in 1..=2u16 {
            for asn in 1..=9u64 {
                ases.push((ia(isd, asn), asn <= 2));
            }
        }
        TrustStore::bootstrap(ases.into_iter(), SimTime::ZERO + Duration::from_days(30))
    }

    fn seg(
        tr: &TrustStore,
        ty: SegmentType,
        hops: &[(IsdAsn, u16, u16)],
        lifetime_h: u64,
    ) -> PathSegment {
        let (first, rest) = hops.split_first().unwrap();
        let mut pcb = Pcb::originate(
            first.0,
            IfId(first.2),
            SimTime::ZERO,
            Duration::from_hours(lifetime_h),
            0,
            tr,
        );
        for &(h, ing, eg) in rest {
            pcb = pcb.extend(h, IfId(ing), IfId(eg), vec![], tr);
        }
        PathSegment::from_terminated_pcb(ty, pcb)
    }

    /// Host in 1-5, destination 2-5; two up-segments (dual-homed through
    /// different core interfaces), one core segment, one down-segment.
    fn segments(tr: &TrustStore) -> SegmentSet {
        SegmentSet {
            up: vec![
                seg(
                    tr,
                    SegmentType::Up,
                    &[(ia(1, 1), 0, 1), (ia(1, 5), 1, 0)],
                    6,
                ),
                seg(
                    tr,
                    SegmentType::Up,
                    &[(ia(1, 1), 0, 2), (ia(1, 5), 2, 0)],
                    6,
                ),
            ],
            core: vec![seg(
                tr,
                SegmentType::Core,
                &[(ia(1, 1), 0, 9), (ia(2, 1), 9, 0)],
                6,
            )],
            down: vec![seg(
                tr,
                SegmentType::Down,
                &[(ia(2, 1), 0, 3), (ia(2, 5), 1, 0)],
                6,
            )],
        }
    }

    #[test]
    fn resolve_finds_all_combinations() {
        let tr = trust();
        let mut d = ScionDaemon::new();
        let n = d.resolve(ia(2, 5), &segments(&tr), SimTime::ZERO);
        assert_eq!(n, 2, "two up-segments x one core x one down");
        let best = d.best_path(ia(2, 5)).unwrap();
        assert_eq!(best.source(), ia(1, 5));
        assert_eq!(best.destination(), ia(2, 5));
        assert_eq!(d.paths_served, 1);
    }

    #[test]
    fn expired_segments_are_ignored() {
        let tr = trust();
        let mut segs = segments(&tr);
        segs.up.truncate(1);
        // Make the only remaining up-segment short-lived.
        segs.up[0] = seg(
            &tr,
            SegmentType::Up,
            &[(ia(1, 1), 0, 1), (ia(1, 5), 1, 0)],
            1,
        );
        let mut d = ScionDaemon::new();
        let later = SimTime::ZERO + Duration::from_hours(2);
        assert_eq!(d.resolve(ia(2, 5), &segs, later), 0);
        assert!(d.best_path(ia(2, 5)).is_none());
    }

    #[test]
    fn scmp_triggers_instant_failover() {
        let tr = trust();
        let mut d = ScionDaemon::new();
        d.resolve(ia(2, 5), &segments(&tr), SimTime::ZERO);
        let first = d.best_path(ia(2, 5)).unwrap();

        // A border router reports the first path's first link down.
        let (near, _) = first.links()[0];
        d.handle_scmp(
            &ScmpMessage::ExternalInterfaceDown {
                at: near.ia,
                interface: near.ifid,
                observed_at: SimTime::ZERO + Duration::from_secs(5),
            },
            SimTime::ZERO + Duration::from_secs(5),
        );
        assert!(d.failed_link_count() >= 1);
        let second = d.best_path(ia(2, 5)).expect("disjoint alternative exists");
        assert_ne!(first.links(), second.links());
        // The new path avoids the failed link end.
        assert!(second.links().iter().all(|&(a, b)| a != near && b != near));
    }

    #[test]
    fn failure_expiry_restores_paths() {
        let tr = trust();
        let mut d = ScionDaemon::new();
        d.resolve(ia(2, 5), &segments(&tr), SimTime::ZERO);
        let first = d.best_path(ia(2, 5)).unwrap();
        let (near, _) = first.links()[0];
        let t_fail = SimTime::ZERO + Duration::from_secs(5);
        d.handle_scmp(
            &ScmpMessage::ExternalInterfaceDown {
                at: near.ia,
                interface: near.ifid,
                observed_at: t_fail,
            },
            t_fail,
        );
        assert_ne!(d.best_path(ia(2, 5)).unwrap().links(), first.links());
        // The failure ages out.
        d.expire_failures(t_fail + Duration::from_secs(1));
        assert_eq!(d.failed_link_count(), 0);
        assert_eq!(d.best_path(ia(2, 5)).unwrap().links(), first.links());
    }

    #[test]
    fn failure_ttl_expires_marks_inside_resolution() {
        // Satellite regression: `expire_failures` is wired into the
        // resolution surface itself — a TTL'd daemon restores failed-over
        // paths through `best_path_at`/`resolve` with no explicit call.
        let tr = trust();
        let ttl = Duration::from_secs(5);
        let mut d = ScionDaemon::with_failure_ttl(ttl);
        d.resolve(ia(2, 5), &segments(&tr), SimTime::ZERO);
        let first = d.best_path(ia(2, 5)).unwrap();
        let (near, _) = first.links()[0];
        let t_fail = SimTime::ZERO + Duration::from_secs(10);
        d.handle_scmp(
            &ScmpMessage::ExternalInterfaceDown {
                at: near.ia,
                interface: near.ifid,
                observed_at: t_fail,
            },
            t_fail,
        );

        // Inside the TTL the mark holds and failover is in force.
        let during = t_fail + Duration::from_secs(4);
        assert_ne!(
            d.best_path_at(ia(2, 5), during).unwrap().links(),
            first.links()
        );
        assert_eq!(d.failed_link_count(), 1);

        // Past the TTL, best_path_at alone restores the primary.
        let after = t_fail + ttl + Duration::from_secs(1);
        assert_eq!(
            d.best_path_at(ia(2, 5), after).unwrap().links(),
            first.links()
        );
        assert_eq!(d.failed_link_count(), 0);

        // And resolve() applies the same expiry (re-mark, then resolve).
        d.handle_scmp(
            &ScmpMessage::ExternalInterfaceDown {
                at: near.ia,
                interface: near.ifid,
                observed_at: after,
            },
            after,
        );
        assert_eq!(d.failed_link_count(), 1);
        d.resolve(
            ia(2, 5),
            &segments(&tr),
            after + ttl + Duration::from_secs(1),
        );
        assert_eq!(d.failed_link_count(), 0);
    }

    #[test]
    fn installed_paths_serve_like_resolved_ones() {
        let tr = trust();
        let mut source = ScionDaemon::new();
        source.resolve(ia(2, 5), &segments(&tr), SimTime::ZERO);
        let paths: Vec<EndToEndPath> = source.cached_paths(ia(2, 5)).to_vec();

        let mut d = ScionDaemon::new();
        // Install reversed + duplicated: ordering and dedup must match.
        let mut shuffled: Vec<EndToEndPath> = paths.iter().rev().cloned().collect();
        shuffled.extend(paths.iter().cloned());
        assert_eq!(d.install_paths(ia(2, 5), shuffled), paths.len());
        assert_eq!(d.cached_paths(ia(2, 5)), source.cached_paths(ia(2, 5)));
        assert_eq!(
            d.best_path(ia(2, 5)).unwrap().links(),
            source.best_path(ia(2, 5)).unwrap().links()
        );
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// One drawn segment: core AS pick, transit AS pick (none, 1-3 or
        /// 1-4), and the three interface ids it uses — few values, so that
        /// different segment pairs often give the same link sequence.
        type Drawn = (u64, u64, u16, u16, u16);

        fn drawn(max: usize) -> impl Strategy<Value = Vec<Drawn>> {
            proptest::collection::vec((1u64..3, 2u64..5, 1u16..3, 1u16..3, 1u16..3), 0..max)
        }

        /// Core → optional transit → `leaf`, all in ISD 1.
        fn leaf_segment(tr: &TrustStore, ty: SegmentType, leaf: u64, d: Drawn) -> PathSegment {
            let (core, transit, a, b, c) = d;
            let mut hops = vec![(ia(1, core), 0, a)];
            if transit > 2 {
                hops.push((ia(1, transit), b, c));
            }
            hops.push((ia(1, leaf), a, 0));
            seg(tr, ty, &hops, 6)
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

            /// The cache `resolve` builds is the candidates in the order the
            /// daemon always kept them — `(len, links)` sorted stably, one
            /// per link sequence, both computed here from copied link
            /// lists — and `install_paths` builds the same from any order.
            #[test]
            fn prop_cache_is_the_copying_sort_of_the_candidates(
                ups in drawn(6),
                cores in drawn(4),
                downs in drawn(6),
                rotate in 0usize..16,
            ) {
                let tr = trust();
                let dst = ia(1, 6);
                let set = SegmentSet {
                    up: ups.iter().map(|&d| leaf_segment(&tr, SegmentType::Up, 5, d)).collect(),
                    core: cores
                        .iter()
                        .map(|&(from, _, a, b, _)| {
                            seg(&tr, SegmentType::Core, &[(ia(1, from), 0, a), (ia(1, 3 - from), b, 0)], 6)
                        })
                        .collect(),
                    down: downs.iter().map(|&d| leaf_segment(&tr, SegmentType::Down, 6, d)).collect(),
                };

                let mut candidates = Vec::new();
                for u in &set.up {
                    for d in &set.down {
                        candidates.extend(combine_paths(Some(u), None, Some(d)));
                        candidates.extend(shortcut_path(u, d));
                        candidates.extend(peering_path(u, d));
                        for c in &set.core {
                            candidates.extend(combine_paths(Some(u), Some(c), Some(d)));
                        }
                    }
                }
                let mut expected = candidates.clone();
                expected.sort_by_key(|p| (p.len(), p.links()));
                expected.dedup_by_key(|p| p.links());

                let mut daemon = ScionDaemon::new();
                prop_assert_eq!(daemon.resolve(dst, &set, SimTime::ZERO), expected.len());
                prop_assert_eq!(daemon.cached_paths(dst), &expected[..]);

                // Equal paths are interchangeable, so the order they are
                // handed over in must not show.
                if !candidates.is_empty() {
                    let by = rotate % candidates.len();
                    candidates.rotate_left(by);
                }
                candidates.reverse();
                let mut installed = ScionDaemon::new();
                prop_assert_eq!(installed.install_paths(dst, candidates), expected.len());
                prop_assert_eq!(installed.cached_paths(dst), &expected[..]);
            }
        }
    }

    #[test]
    fn all_paths_failed_means_none_served() {
        let tr = trust();
        let mut segs = segments(&tr);
        segs.up.truncate(1); // single-homed now
        let mut d = ScionDaemon::new();
        d.resolve(ia(2, 5), &segs, SimTime::ZERO);
        let only = d.best_path(ia(2, 5)).unwrap();
        let (near, _) = only.links()[0];
        d.handle_scmp(
            &ScmpMessage::ExternalInterfaceDown {
                at: near.ia,
                interface: near.ifid,
                observed_at: SimTime::ZERO,
            },
            SimTime::ZERO,
        );
        assert!(d.best_path(ia(2, 5)).is_none());
        assert_eq!(d.cached_paths(ia(2, 5)).len(), 1, "cache keeps the path");
    }
}
