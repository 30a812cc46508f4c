//! The SCION daemon: per-host path resolution and fast failover.
//!
//! §3.4: "The control-plane component (i.e., SCION daemon) communicates
//! with the AS's control service (CS) to build end-to-end forwarding paths
//! for applications on their behalf." §4.2: after a link failure "it can
//! immediately switch to an alternative path not containing the failed
//! link" — which is why diverse path sets matter in the first place.
//!
//! Per destination the daemon keeps two things: the paths, best first, one
//! per link sequence, and the live segments they were resolved from. Path
//! sets change on the scale of beacon intervals and lookups come far more
//! often, so most resolutions are handed the segments of the one before —
//! the control service's cache answers with the same allocations — and
//! [`ScionDaemon::resolve`] recognises them
//! ([`PathSegment::same_beacon`]: same allocation, same role) and lets the
//! paths stand. The key is a list of [`PathSegment`] clones — a pointer and
//! a reference count each — held, not borrowed or reduced to addresses:
//! while the daemon holds a beacon its address cannot be given to another,
//! so an equal address is the same, unchanged beacon. Only live segments
//! are in the key, so a segment that lapsed since makes the lists differ;
//! SCMP failure marks are not, because they never entered the cached list
//! ([`ScionDaemon::best_path`] filters when it reads).
//!
//! A resolution that does run collects every candidate's hops in one
//! buffer, orders and deduplicates `(start, end)` ranges of it by
//! [`hop_preference`], and only then writes the survivors out — over the
//! previous paths' hop lists where there are any.

use std::cmp::Ordering;
use std::collections::HashMap;

use scion_dataplane::scmp::ScmpMessage;
use scion_proto::combine::{
    combine_paths_into, hop_preference, peering_path_into, shortcut_path_into, CombineError,
    EndToEndPath,
};
use scion_proto::segment::{PathSegment, SegmentType, TraversalHop};
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

/// What the daemon keeps for one destination.
#[derive(Clone, Debug, Default)]
struct Resolved {
    /// The paths, best (shortest) first.
    paths: Vec<EndToEndPath>,
    /// The live segments `paths` were resolved from, in `up, core, down`
    /// order. Empty when the paths were installed, or resolved from
    /// nothing: an empty list is recognised as no resolution's input.
    from: Vec<PathSegment>,
}

/// The candidate paths of one resolution before any of them is an
/// [`EndToEndPath`]: their hops end to end in one buffer and one
/// `(start, end)` per candidate, in the order they were found.
#[derive(Clone, Debug, Default)]
struct Candidates {
    hops: Vec<TraversalHop>,
    spans: Vec<(usize, usize)>,
}

impl Candidates {
    /// Lets `combine` append one path's hops and keeps them as a candidate
    /// if it did and the path ends at `dst`.
    fn offer(
        &mut self,
        dst: IsdAsn,
        combine: impl FnOnce(&mut Vec<TraversalHop>) -> Result<(), CombineError>,
    ) {
        let start = self.hops.len();
        let found = combine(&mut self.hops).is_ok();
        if found && self.hops[start..].last().is_some_and(|hop| hop.0 == dst) {
            self.spans.push((start, self.hops.len()));
        } else {
            self.hops.truncate(start);
        }
    }

    /// Moves the candidates into `paths` in [`EndToEndPath::preference`]
    /// order, one per link sequence — of equal ones the first found —
    /// and returns how many. Only the survivors are written, over the
    /// hop lists `paths` already holds as far as those go.
    fn settle_into(&mut self, paths: &mut Vec<EndToEndPath>) -> usize {
        let hops = &self.hops;
        let order = |a: &(usize, usize), b: &(usize, usize)| -> Ordering {
            hop_preference(&hops[a.0..a.1], &hops[b.0..b.1])
        };
        // Ties broken by position: what a stable sort would leave, without
        // its buffer.
        self.spans
            .sort_unstable_by(|a, b| order(a, b).then(a.0.cmp(&b.0)));
        self.spans
            .dedup_by(|later, first| order(later, first) == Ordering::Equal);

        paths.truncate(self.spans.len());
        for (i, &(start, end)) in self.spans.iter().enumerate() {
            let hops = &hops[start..end];
            match paths.get_mut(i) {
                Some(path) => {
                    path.hops.clear();
                    path.hops.extend_from_slice(hops);
                }
                None => paths.push(EndToEndPath {
                    hops: hops.to_vec(),
                }),
            }
        }
        self.hops.clear();
        self.spans.clear();
        paths.len()
    }
}

/// The ASes a segment's beacon starts and ends at, read off its entries —
/// which is where the combiners judge a junction.
fn ends(seg: &PathSegment) -> Option<(IsdAsn, IsdAsn)> {
    let entries = &seg.pcb().entries;
    Some((entries.first()?.ia, entries.last()?.ia))
}

/// The SCION daemon of one host/AS.
#[derive(Clone, Debug, Default)]
pub struct ScionDaemon {
    /// Resolved paths per destination, with what they were resolved from.
    cache: HashMap<IsdAsn, Resolved>,
    /// Links currently known-failed from SCMP messages, with the time of
    /// the notification.
    failed_links: HashMap<LinkId, SimTime>,
    /// How long an SCMP failure mark stays in force before it ages out
    /// and the marked paths are considered usable again. `None` keeps
    /// marks until [`ScionDaemon::expire_failures`] is called explicitly.
    failure_ttl: Option<Duration>,
    /// Scratch of the resolution under way, empty between two; kept for
    /// its capacity.
    candidates: Candidates,
    /// Scratch: `(first AS, last AS, index in the set)` of each live core
    /// segment of the resolution under way.
    core_ends: Vec<(IsdAsn, IsdAsn, usize)>,
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
    /// crossovers. When the set's live segments are the ones the cached
    /// paths toward `dst` were resolved from, those paths stand.
    pub fn resolve(&mut self, dst: IsdAsn, segments: &SegmentSet, now: SimTime) -> usize {
        self.expire_failures_by_ttl(now);
        let live = |s: &&PathSegment| !s.is_expired(now);
        let input = || {
            let all = segments.up.iter().chain(&segments.core);
            all.chain(&segments.down).filter(live)
        };

        let entry = self.cache.entry(dst).or_default();
        let mut from = entry.from.iter();
        let same = input().all(|s| from.next().is_some_and(|known| known.same_beacon(s)));
        if same && from.next().is_none() && !entry.from.is_empty() {
            return entry.paths.len();
        }
        entry.from.clear();
        entry.from.extend(input().cloned());

        // A core segment joins `u` to `d` only if it runs from the core AS
        // the one starts at to the core AS the other starts at, either way
        // round. The same beacon twice gives the same paths twice: once.
        self.core_ends.clear();
        for (i, c) in segments.core.iter().enumerate().filter(|(_, c)| live(c)) {
            let held = |&(.., j): &(IsdAsn, IsdAsn, usize)| segments.core[j].same_beacon(c);
            match ends(c) {
                Some((first, last)) if !self.core_ends.iter().any(held) => {
                    self.core_ends.push((first, last, i));
                }
                _ => {}
            }
        }

        let found = &mut self.candidates;
        for u in segments.up.iter().filter(live) {
            debug_assert_eq!(u.seg_type, SegmentType::Up);
            for d in segments.down.iter().filter(live) {
                // Same-core join (no core segment needed).
                found.offer(dst, |out| combine_paths_into(Some(u), None, Some(d), out));
                found.offer(dst, |out| shortcut_path_into(u, d, out));
                found.offer(dst, |out| peering_path_into(u, d, out));
                let (Some((from, _)), Some((to, _))) = (ends(u), ends(d)) else {
                    continue;
                };
                for &(first, last, i) in &self.core_ends {
                    if (first, last) == (from, to) || (last, first) == (from, to) {
                        let c = &segments.core[i];
                        found.offer(dst, |out| {
                            combine_paths_into(Some(u), Some(c), Some(d), out)
                        });
                    }
                }
            }
        }
        found.settle_into(&mut entry.paths)
    }

    /// Installs pre-combined paths toward `dst` directly (the recovery
    /// driver hands daemons their multipath set this way). Paths are
    /// cached in [`EndToEndPath::preference`] order — shortest first — one
    /// per link sequence, exactly like [`ScionDaemon::resolve`] output;
    /// paths that do not end at `dst`, empty ones among them, are dropped.
    /// Returns the cached count.
    pub fn install_paths(&mut self, dst: IsdAsn, paths: Vec<EndToEndPath>) -> usize {
        let entry = self.cache.entry(dst).or_default();
        entry.from.clear();
        for path in &paths {
            self.candidates.offer(dst, |out| {
                out.extend_from_slice(&path.hops);
                Ok(())
            });
        }
        self.candidates.settle_into(&mut entry.paths)
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
            .paths
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
        self.cache.get(&dst).map_or(&[], |entry| &entry.paths)
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
            for path in self.cache.values().flat_map(|entry| &entry.paths) {
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
    use scion_proto::combine::{combine_paths, peering_path, shortcut_path};
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

    #[test]
    fn installed_paths_do_not_stand_in_for_a_resolution_from_nothing() {
        // Installed paths have no segments behind them, and neither has a
        // resolution of an empty set: the one must not be taken for the
        // other.
        let tr = trust();
        let mut source = ScionDaemon::new();
        source.resolve(ia(2, 5), &segments(&tr), SimTime::ZERO);
        let mut d = ScionDaemon::new();
        assert_eq!(
            d.install_paths(ia(2, 5), source.cached_paths(ia(2, 5)).to_vec()),
            2
        );
        assert_eq!(
            d.resolve(ia(2, 5), &SegmentSet::default(), SimTime::ZERO),
            0
        );
        assert!(d.cached_paths(ia(2, 5)).is_empty());
    }

    #[test]
    fn installing_an_empty_path_installs_nothing() {
        // It ends nowhere, so it does not end at `dst`.
        let mut d = ScionDaemon::new();
        let empty = EndToEndPath { hops: vec![] };
        assert_eq!(d.install_paths(ia(2, 5), vec![empty.clone()]), 0);
        assert!(d.cached_paths(ia(2, 5)).is_empty());

        let tr = trust();
        let mut source = ScionDaemon::new();
        source.resolve(ia(2, 5), &segments(&tr), SimTime::ZERO);
        let mut paths = source.cached_paths(ia(2, 5)).to_vec();
        paths.insert(1, empty);
        assert_eq!(d.install_paths(ia(2, 5), paths), 2);
        assert_eq!(d.cached_paths(ia(2, 5)), source.cached_paths(ia(2, 5)));
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
            short_lived(tr, ty, leaf, d, 6)
        }

        /// [`leaf_segment`] that lapses after `lifetime_h` hours.
        fn short_lived(
            tr: &TrustStore,
            ty: SegmentType,
            leaf: u64,
            d: Drawn,
            lifetime_h: u64,
        ) -> PathSegment {
            let (core, transit, a, b, c) = d;
            let mut hops = vec![(ia(1, core), 0, a)];
            if transit > 2 {
                hops.push((ia(1, transit), b, c));
            }
            hops.push((ia(1, leaf), a, 0));
            seg(tr, ty, &hops, lifetime_h)
        }

        /// A core segment between core ASes 1 and 2, from `d.0`.
        fn core_segment(tr: &TrustStore, d: Drawn, lifetime_h: u64) -> PathSegment {
            let (from, _, a, b, _) = d;
            let hops = [(ia(1, from), 0, a), (ia(1, 3 - from), b, 0)];
            seg(tr, SegmentType::Core, &hops, lifetime_h)
        }

        /// The drawn segments as one set toward leaf 6.
        fn set_toward_6(
            tr: &TrustStore,
            ups: &[Drawn],
            cores: &[Drawn],
            downs: &[Drawn],
        ) -> SegmentSet {
            let leaf = |ty, leaf, ds: &[Drawn]| -> Vec<PathSegment> {
                ds.iter().map(|&d| leaf_segment(tr, ty, leaf, d)).collect()
            };
            SegmentSet {
                up: leaf(SegmentType::Up, 5, ups),
                core: cores.iter().map(|&d| core_segment(tr, d, 6)).collect(),
                down: leaf(SegmentType::Down, 6, downs),
            }
        }

        fn interface_down(end: LinkEnd) -> ScmpMessage {
            ScmpMessage::ExternalInterfaceDown {
                at: end.ia,
                interface: end.ifid,
                observed_at: SimTime::ZERO,
            }
        }

        /// The same allocation under another role.
        fn retyped(seg: &PathSegment) -> PathSegment {
            let mut other = seg.clone();
            other.seg_type = match seg.seg_type {
                SegmentType::Core => SegmentType::Down,
                _ => SegmentType::Core,
            };
            other
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

            /// What a long-lived daemon remembers never shows: after every
            /// call of a sequence — the set handed over again, re-cloned,
            /// permuted, a segment added (a beacon it already holds, so
            /// some are in twice), removed, swapped for another or for an
            /// equal copy under a new allocation, re-typed in place, the
            /// clock stepping over expiries, paths installed or a link
            /// reported down in between — it answers what a daemon that
            /// never saw anything answers to that call alone.
            #[test]
            fn prop_a_long_lived_daemon_answers_like_a_fresh_one(
                ups in drawn(4),
                cores in drawn(4),
                downs in drawn(5),
                lifetimes in proptest::collection::vec(1u64..6, 13),
                steps in proptest::collection::vec(
                    (0u8..12, any::<u8>(), 0u8..3, 0u64..2, 6u64..8),
                    1..9,
                ),
            ) {
                let tr = trust();
                let mut hours = lifetimes.into_iter();
                let mut lifetime = || hours.next().expect("one per pool segment");
                let pool = SegmentSet {
                    up: ups
                        .iter()
                        .map(|&d| short_lived(&tr, SegmentType::Up, 5, d, lifetime()))
                        .collect(),
                    core: cores.iter().map(|&d| core_segment(&tr, d, lifetime())).collect(),
                    down: downs
                        .iter()
                        .enumerate()
                        .map(|(i, &d)| {
                            short_lived(&tr, SegmentType::Down, 6 + i as u64 % 2, d, lifetime())
                        })
                        .collect(),
                };
                let mut set = pool.clone();
                let mut daemon = ScionDaemon::new();
                let mut now = SimTime::ZERO;
                for (op, pick, which, advance_h, leaf) in steps {
                    let pick = pick as usize;
                    let dst = ia(1, leaf);
                    let (list, spare) = match which {
                        0 => (&mut set.up, &pool.up),
                        1 => (&mut set.core, &pool.core),
                        _ => (&mut set.down, &pool.down),
                    };
                    // Where in the list the step acts; 0 in an empty one.
                    let at = pick % list.len().max(1);
                    match op {
                        0 => set = set.clone(),
                        1 => list.rotate_left(at),
                        2 if !spare.is_empty() => list.push(spare[pick % spare.len()].clone()),
                        3 if !list.is_empty() => {
                            list.remove(at);
                        }
                        4 if !list.is_empty() && !spare.is_empty() => {
                            list[at] = spare[pick / 7 % spare.len()].clone();
                        }
                        5 if !list.is_empty() => {
                            let copy = list[at].pcb().clone();
                            list[at] = PathSegment::from_terminated_pcb(list[at].seg_type, copy);
                        }
                        6 if !set.core.is_empty() => {
                            let at = pick % set.core.len();
                            set.core[at] = retyped(&set.core[at]);
                        }
                        7 => {
                            let fewer = daemon.cached_paths(dst).iter().rev().skip(1);
                            let fewer = fewer.cloned().collect();
                            daemon.install_paths(dst, fewer);
                        }
                        8 => {
                            let cached = daemon.cached_paths(dst);
                            let path = cached.get(pick % cached.len().max(1));
                            if let Some((near, _)) = path.and_then(|p| p.links_iter().next()) {
                                daemon.handle_scmp(&interface_down(near), now);
                            }
                        }
                        // The set as it was, the very same allocations.
                        _ => {}
                    }
                    now = now + Duration::from_hours(advance_h);

                    let mut fresh = ScionDaemon::new();
                    let expected = fresh.resolve(dst, &set, now);
                    prop_assert_eq!(daemon.resolve(dst, &set, now), expected);
                    prop_assert_eq!(daemon.cached_paths(dst), fresh.cached_paths(dst));
                }
            }

            /// The cached list is a function of which segments are in the
            /// set: not of their order inside `up`, `core` and `down`, and
            /// not of how often one of them is in there.
            #[test]
            fn prop_resolution_ignores_order_and_repetition(
                ups in drawn(5),
                cores in drawn(4),
                downs in drawn(5),
                rotate in (0usize..8, 0usize..8, 0usize..8),
                reverse in 0u8..8,
                twice in (0usize..8, 0usize..8, 0usize..8),
            ) {
                let tr = trust();
                let dst = ia(1, 6);
                let set = set_toward_6(&tr, &ups, &cores, &downs);
                let mut plain = ScionDaemon::new();
                let n = plain.resolve(dst, &set, SimTime::ZERO);

                let mut other = set.clone();
                let lists = [&mut other.up, &mut other.core, &mut other.down];
                let draws = [(rotate.0, twice.0), (rotate.1, twice.1), (rotate.2, twice.2)];
                for (bit, (list, (by, again))) in lists.into_iter().zip(draws).enumerate() {
                    if let Some(seg) = list.get(again).cloned() {
                        list.push(seg);
                    }
                    let by = by % list.len().max(1);
                    list.rotate_left(by);
                    if reverse >> bit & 1 == 1 {
                        list.reverse();
                    }
                }
                let mut shuffled = ScionDaemon::new();
                prop_assert_eq!(shuffled.resolve(dst, &other, SimTime::ZERO), n);
                prop_assert_eq!(shuffled.cached_paths(dst), plain.cached_paths(dst));
            }

            /// Selection axioms (Baumeister & Keshvadi): a link reported
            /// down is on no path `best_path` hands out afterwards and
            /// leaves the order of the other paths alone — the pick is the
            /// first cached path that avoids it — and taking away a path
            /// that was not picked does not change the pick.
            #[test]
            fn prop_best_path_avoids_failed_links_and_ignores_the_unpicked(
                ups in drawn(5),
                cores in drawn(4),
                downs in drawn(5),
                failures in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..4),
                removed in any::<u8>(),
            ) {
                let tr = trust();
                let dst = ia(1, 6);
                let mut daemon = ScionDaemon::new();
                daemon.resolve(dst, &set_toward_6(&tr, &ups, &cores, &downs), SimTime::ZERO);
                let cached = daemon.cached_paths(dst).to_vec();
                prop_assume!(!cached.is_empty());

                let mut down: Vec<LinkEnd> = Vec::new();
                for (path, link) in failures {
                    let links = cached[path as usize % cached.len()].links();
                    if let Some(&(near, _)) = links.get(link as usize % links.len().max(1)) {
                        daemon.handle_scmp(&interface_down(near), SimTime::ZERO);
                        down.push(near);
                    }
                }
                let usable = |p: &&EndToEndPath| {
                    p.links_iter().all(|(a, b)| !down.contains(&a) && !down.contains(&b))
                };
                prop_assert_eq!(daemon.cached_paths(dst), &cached[..]);
                let best = daemon.best_path(dst);
                prop_assert_eq!(best.as_ref(), cached.iter().find(usable));

                let Some(best) = best else { return Ok(()) };
                let mut fewer = cached.clone();
                let at = removed as usize % fewer.len();
                if fewer[at] != best {
                    fewer.remove(at);
                }
                let mut smaller = ScionDaemon::new();
                smaller.install_paths(dst, fewer);
                for &near in &down {
                    smaller.handle_scmp(&interface_down(near), SimTime::ZERO);
                }
                prop_assert_eq!(smaller.best_path(dst), Some(best));
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
