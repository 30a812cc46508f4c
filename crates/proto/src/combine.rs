//! End-to-end path construction from path segments.
//!
//! Paper §2.2–2.3: "Each end-to-end path consists of up to three path
//! segments: core-path, up-path, and down-path segments. … In a shortcut, a
//! path only contains an up-path and a down-path segment, which can cross
//! over at a non-core AS that is common to both paths. Peering links can be
//! added to up- or down-path segments" — a peering shortcut is valid "if
//! both up- and down-path segments contain the same peering link".
//!
//! [`combine_paths`] implements the general three-segment join;
//! [`shortcut_path`] the common-AS crossover; [`peering_path`] the
//! peering-link crossover. All return an [`EndToEndPath`]: the hop sequence
//! in travel direction with fully-resolved interfaces.
//!
//! A daemon tries every pairing of its segments and most attempts end at a
//! junction that does not fit, so the combiners decide everything — roles,
//! orientation, junctions, loop freedom, interfaces — on the segments' own
//! entries, borrowed, and allocate once, for a path they return.
//!
//! Each combiner is one body that ends in a path vetted but not yet written,
//! and comes in two forms over it: the owning one above, and an `_into` one
//! ([`combine_paths_into`], [`shortcut_path_into`], [`peering_path_into`])
//! that appends the hops to the caller's buffer. A daemon drops two fifths
//! of what it finds as duplicates of another candidate's link sequence; it
//! collects all of them in one buffer, orders them there by
//! [`hop_preference`] — the rule behind [`EndToEndPath::preference`] — and
//! allocates for the survivors only.

use std::cmp::Ordering;

use serde::{Deserialize, Serialize};

use scion_types::{IfId, IsdAsn, LinkEnd};

use crate::pcb::AsEntry;
use crate::segment::{forward_hop, reversed_hop, PathSegment, SegmentType, TraversalHop};

/// Why a combination attempt failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CombineError {
    /// A segment was supplied in a role its type does not allow.
    WrongSegmentType,
    /// Segment endpoints do not meet at a common AS.
    Disconnected,
    /// No common non-core AS for a shortcut.
    NoCommonAs,
    /// No matching peering link present in both segments.
    NoPeeringLink,
}

impl std::fmt::Display for CombineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CombineError::WrongSegmentType => write!(f, "segment used in wrong role"),
            CombineError::Disconnected => write!(f, "segments do not share a junction AS"),
            CombineError::NoCommonAs => write!(f, "no common non-core AS for shortcut"),
            CombineError::NoPeeringLink => write!(f, "no shared peering link"),
        }
    }
}

impl std::error::Error for CombineError {}

/// A complete forwarding path: hops in travel direction, each with the
/// interfaces used to enter and leave the AS (`IfId::NONE` at source
/// ingress and destination egress).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct EndToEndPath {
    pub hops: Vec<TraversalHop>,
}

/// Which interface the `i`-th of `len` hops lacks, if any: every hop but
/// the first needs an ingress, every hop but the last an egress.
fn missing_interface(
    i: usize,
    len: usize,
    (_, ingress, egress): TraversalHop,
) -> Option<&'static str> {
    if i > 0 && ingress.is_none() {
        Some("ingress")
    } else if i + 1 < len && egress.is_none() {
        Some("egress")
    } else {
        None
    }
}

/// The inter-domain links a hop sequence crosses, as `(near, far)`
/// interface pairs.
fn hop_links(hops: &[TraversalHop]) -> impl Iterator<Item = (LinkEnd, LinkEnd)> + Clone + '_ {
    hops.windows(2)
        .map(|w| (LinkEnd::new(w[0].0, w[0].2), LinkEnd::new(w[1].0, w[1].1)))
}

/// [`EndToEndPath::preference`] on bare hop sequences — the one rule, for
/// a caller that orders candidates before any of them is an
/// [`EndToEndPath`].
pub fn hop_preference(a: &[TraversalHop], b: &[TraversalHop]) -> Ordering {
    a.len()
        .cmp(&b.len())
        .then_with(|| hop_links(a).cmp(hop_links(b)))
}

impl EndToEndPath {
    /// AS-level path, source first.
    pub fn as_path(&self) -> Vec<IsdAsn> {
        self.hops.iter().map(|&(ia, _, _)| ia).collect()
    }

    /// Source AS.
    pub fn source(&self) -> IsdAsn {
        self.hops.first().expect("non-empty path").0
    }

    /// Destination AS.
    pub fn destination(&self) -> IsdAsn {
        self.hops.last().expect("non-empty path").0
    }

    /// The inter-domain links traversed, as `(near, far)` interface pairs.
    pub fn links(&self) -> Vec<(LinkEnd, LinkEnd)> {
        self.links_iter().collect()
    }

    /// [`EndToEndPath::links`] without the `Vec`: the pairs are read off
    /// the hops as the iterator advances, so paths can be compared, ordered
    /// and probed for a link without copying anything.
    pub fn links_iter(&self) -> impl Iterator<Item = (LinkEnd, LinkEnd)> + Clone + '_ {
        hop_links(&self.hops)
    }

    /// The order daemons keep their paths in: fewest hops first, equally
    /// long paths by their link sequence. Two paths compare equal exactly
    /// when they cross the same links. [`hop_preference`] on the hops.
    pub fn preference(&self, other: &EndToEndPath) -> Ordering {
        hop_preference(&self.hops, &other.hops)
    }

    /// Number of AS hops.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// True if the path has no hops (never produced by the combiners).
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// Structural sanity: no repeated AS (SCION forbids loops) and interior
    /// interfaces present.
    pub fn check(&self) -> Result<(), String> {
        for (i, &(ia, _, _)) in self.hops.iter().enumerate() {
            if self.hops[..i].iter().any(|&(seen, _, _)| seen == ia) {
                return Err(format!("AS {ia} repeats on path"));
            }
        }
        for (i, &hop) in self.hops.iter().enumerate() {
            if let Some(side) = missing_interface(i, self.hops.len(), hop) {
                return Err(format!("hop {} missing {side}", hop.0));
            }
        }
        Ok(())
    }
}

/// A stretch of one segment as a path travels it: a window of the
/// segment's AS entries, in beaconing direction or against it.
#[derive(Clone, Copy)]
struct Run<'a> {
    entries: &'a [AsEntry],
    reversed: bool,
}

impl<'a> Run<'a> {
    fn forward(entries: &'a [AsEntry]) -> Run<'a> {
        Run {
            entries,
            reversed: false,
        }
    }

    fn reversed(entries: &'a [AsEntry]) -> Run<'a> {
        Run {
            entries,
            reversed: true,
        }
    }

    /// The AS the run starts at.
    fn first_as(&self) -> Option<IsdAsn> {
        let first = if self.reversed {
            self.entries.last()
        } else {
            self.entries.first()
        };
        first.map(|e| e.ia)
    }

    /// The AS the run ends at.
    fn last_as(&self) -> Option<IsdAsn> {
        let last = if self.reversed {
            self.entries.first()
        } else {
            self.entries.last()
        };
        last.map(|e| e.ia)
    }

    /// The entries minus the one travelled first.
    fn after_first(&self) -> &'a [AsEntry] {
        match (self.entries, self.reversed) {
            ([rest @ .., _], true) | ([_, rest @ ..], false) => rest,
            ([], _) => &[],
        }
    }

    fn for_each_hop(&self, mut f: impl FnMut(TraversalHop)) {
        if self.reversed {
            self.entries.iter().rev().map(reversed_hop).for_each(&mut f);
        } else {
            self.entries.iter().map(forward_hop).for_each(&mut f);
        }
    }
}

/// No path has more runs than segments: up, core, down.
const MAX_RUNS: usize = 3;

/// How two consecutive runs of a path meet.
#[derive(Clone, Copy)]
enum Seam {
    /// At an AS both runs contain — the last hop of the one and the first
    /// of the other are one hop, entered as the first run enters the AS and
    /// left as the second leaves it.
    Junction,
    /// Over a peering link: the first run's last hop leaves by `egress`,
    /// the second run's first hop is entered by `ingress`.
    Peering { egress: IfId, ingress: IfId },
}

/// The seam a path crosses to enter its `k`-th run.
fn seam_before(seams: &[Seam], k: usize) -> Option<Seam> {
    k.checked_sub(1).map(|before| seams[before])
}

/// True when `next` starts at the AS `prev` ends at.
fn meet(prev: &Run<'_>, next: &Run<'_>) -> bool {
    matches!((prev.last_as(), next.first_as()), (Some(a), Some(b)) if a == b)
}

/// Calls `emit` with every hop of the path that `runs`, glued by `seams`
/// (one between each two runs), describe.
fn walk(runs: &[Run<'_>], seams: &[Seam], mut emit: impl FnMut(TraversalHop)) {
    // The hop last read, held back because a seam may still change it.
    let mut held: Option<TraversalHop> = None;
    for (k, run) in runs.iter().enumerate() {
        let mut seam = seam_before(seams, k);
        run.for_each_hop(|hop| {
            // The seam bears on the run's first hop only.
            held = Some(match (held, seam.take()) {
                (Some(prev), Some(Seam::Junction)) => (prev.0, prev.1, hop.2),
                (Some(prev), Some(Seam::Peering { egress, ingress })) => {
                    emit((prev.0, prev.1, egress));
                    (hop.0, ingress, hop.2)
                }
                (Some(prev), None) => {
                    emit(prev);
                    hop
                }
                (None, _) => hop,
            });
        });
    }
    if let Some(last) = held {
        emit(last);
    }
}

/// A path that passed [`vet`], not yet written anywhere: the combiners
/// hand it to their caller's sink, which decides where the hops go.
struct Vetted<'r, 'a> {
    runs: &'r [Run<'a>],
    seams: &'r [Seam],
    len: usize,
}

impl Vetted<'_, '_> {
    /// Appends the path's hops to `out`.
    fn append_to(&self, out: &mut Vec<TraversalHop>) {
        let start = out.len();
        out.reserve(self.len);
        walk(self.runs, self.seams, |hop| out.push(hop));
        debug_assert_eq!(out.len() - start, self.len);
    }

    /// The path, allocated at its exact size and written once.
    fn into_path(self) -> EndToEndPath {
        let mut hops = Vec::with_capacity(self.len);
        self.append_to(&mut hops);
        let path = EndToEndPath { hops };
        debug_assert_eq!(path.check(), Ok(()));
        path
    }
}

/// Decides whether the path `runs` and `seams` describe is well-formed —
/// what [`EndToEndPath::check`] accepts: no AS twice, interior interfaces
/// present. Both are decided on the borrowed entries; nothing is written.
fn vet<'r, 'a>(runs: &'r [Run<'a>], seams: &'r [Seam]) -> Option<Vetted<'r, 'a>> {
    debug_assert_eq!(seams.len() + 1, runs.len());
    // A junction AS is in both its runs and once on the path: leave it out
    // of the later run.
    let mut parts: [&[AsEntry]; MAX_RUNS] = [&[]; MAX_RUNS];
    for (k, run) in runs.iter().enumerate() {
        parts[k] = match seam_before(seams, k) {
            Some(Seam::Junction) => run.after_first(),
            _ => run.entries,
        };
    }
    let parts = &parts[..runs.len()];
    let repeats = |e: &AsEntry, earlier: &[AsEntry]| earlier.iter().any(|seen| seen.ia == e.ia);
    for (k, part) in parts.iter().enumerate() {
        for (i, e) in part.iter().enumerate() {
            if repeats(e, &part[..i]) || parts[..k].iter().any(|before| repeats(e, before)) {
                return None;
            }
        }
    }
    let len = parts.iter().map(|part| part.len()).sum();

    let (mut i, mut complete) = (0, true);
    walk(runs, seams, |hop| {
        complete &= missing_interface(i, len, hop).is_none();
        i += 1;
    });
    complete.then_some(Vetted { runs, seams, len })
}

/// Combines up to three segments into an end-to-end path.
///
/// * `up` — segment whose *terminal* is the source leaf AS (an up/down
///   segment stored in beaconing direction; traversed in reverse).
///   `None` if the source is itself a core AS.
/// * `core` — core segment connecting the two ISD cores; `None` for
///   intra-ISD paths whose up and down segments meet at the same core AS.
///   Travelled forward if it originates where the path stands, reversed if
///   it terminates there.
/// * `down` — segment whose terminal is the destination leaf; `None` if
///   the destination is a core AS.
///
/// At least one segment must be given; junction ASes must match.
pub fn combine_paths(
    up: Option<&PathSegment>,
    core: Option<&PathSegment>,
    down: Option<&PathSegment>,
) -> Result<EndToEndPath, CombineError> {
    combine_with(up, core, down, |path| path.into_path())
}

/// [`combine_paths`] for a caller that keeps many candidates in one buffer:
/// the path's hops are appended to `out`, which is left as it was when the
/// combination fails.
pub fn combine_paths_into(
    up: Option<&PathSegment>,
    core: Option<&PathSegment>,
    down: Option<&PathSegment>,
    out: &mut Vec<TraversalHop>,
) -> Result<(), CombineError> {
    combine_with(up, core, down, |path| path.append_to(out))
}

fn combine_with<T>(
    up: Option<&PathSegment>,
    core: Option<&PathSegment>,
    down: Option<&PathSegment>,
    sink: impl FnOnce(Vetted<'_, '_>) -> T,
) -> Result<T, CombineError> {
    let mut runs = [Run::forward(&[]); MAX_RUNS];
    let mut n = 0;

    if let Some(u) = up {
        if u.seg_type == SegmentType::Core {
            return Err(CombineError::WrongSegmentType);
        }
        runs[n] = Run::reversed(&u.pcb().entries);
        n += 1;
    }
    if let Some(c) = core {
        if c.seg_type != SegmentType::Core {
            return Err(CombineError::WrongSegmentType);
        }
        let entries = &c.pcb().entries;
        let run = match runs[..n].last() {
            None => Run::forward(entries),
            Some(prev) => {
                let from = prev.last_as().ok_or(CombineError::Disconnected)?;
                let run = if c.origin() == from {
                    Run::forward(entries)
                } else if entries.last().is_some_and(|terminal| terminal.ia == from) {
                    Run::reversed(entries)
                } else {
                    return Err(CombineError::Disconnected);
                };
                // `origin()` is the beacon's header; the junction is judged
                // on the entries, like every other.
                if !meet(prev, &run) {
                    return Err(CombineError::Disconnected);
                }
                run
            }
        };
        runs[n] = run;
        n += 1;
    }
    if let Some(d) = down {
        if d.seg_type == SegmentType::Core {
            return Err(CombineError::WrongSegmentType);
        }
        let run = Run::forward(&d.pcb().entries);
        if runs[..n].last().is_some_and(|prev| !meet(prev, &run)) {
            return Err(CombineError::Disconnected);
        }
        runs[n] = run;
        n += 1;
    }
    if n == 0 {
        return Err(CombineError::Disconnected);
    }
    vet(&runs[..n], &[Seam::Junction; MAX_RUNS - 1][..n - 1])
        .map(sink)
        .ok_or(CombineError::Disconnected)
}

/// Builds a shortcut path: up and down segments crossing over at a common
/// non-core AS, avoiding the core entirely (§2.3).
///
/// Picks the crossover closest to the leaves (the latest common AS in the
/// up traversal), which yields the shortest shortcut.
pub fn shortcut_path(up: &PathSegment, down: &PathSegment) -> Result<EndToEndPath, CombineError> {
    shortcut_with(up, down, |path| path.into_path())
}

/// [`shortcut_path`], appending to `out` like [`combine_paths_into`].
pub fn shortcut_path_into(
    up: &PathSegment,
    down: &PathSegment,
    out: &mut Vec<TraversalHop>,
) -> Result<(), CombineError> {
    shortcut_with(up, down, |path| path.append_to(out))
}

fn shortcut_with<T>(
    up: &PathSegment,
    down: &PathSegment,
    sink: impl FnOnce(Vetted<'_, '_>) -> T,
) -> Result<T, CombineError> {
    if up.seg_type == SegmentType::Core || down.seg_type == SegmentType::Core {
        return Err(CombineError::WrongSegmentType);
    }
    let ups = &up.pcb().entries;
    let downs = &down.pcb().entries;

    // The first AS of the up traversal — source leaf first, so the up
    // entries from the back — that also lies on the down segment. The core
    // origins themselves are left out on both sides: meeting there is a
    // normal combine, not a shortcut.
    let (u, d) = (1..ups.len())
        .rev()
        .find_map(|u| {
            let at = (1..downs.len()).find(|&d| downs[d].ia == ups[u].ia)?;
            Some((u, at))
        })
        .ok_or(CombineError::NoCommonAs)?;
    // Up to the crossover, then leave it the way the down segment does.
    vet(
        &[Run::reversed(&ups[u..]), Run::forward(&downs[d..])],
        &[Seam::Junction],
    )
    .map(sink)
    .ok_or(CombineError::NoCommonAs)
}

/// Builds a peering-shortcut path: an AS `u` on the up segment and an AS
/// `d` on the down segment connected by a peering link that **both**
/// segments advertise (§2.3). The path ascends to `u`, crosses the peering
/// link, and descends from `d`.
pub fn peering_path(up: &PathSegment, down: &PathSegment) -> Result<EndToEndPath, CombineError> {
    peering_with(up, down, |path| path.into_path())
}

/// [`peering_path`], appending to `out` like [`combine_paths_into`].
pub fn peering_path_into(
    up: &PathSegment,
    down: &PathSegment,
    out: &mut Vec<TraversalHop>,
) -> Result<(), CombineError> {
    peering_with(up, down, |path| path.append_to(out))
}

fn peering_with<T>(
    up: &PathSegment,
    down: &PathSegment,
    sink: impl FnOnce(Vetted<'_, '_>) -> T,
) -> Result<T, CombineError> {
    if up.seg_type == SegmentType::Core || down.seg_type == SegmentType::Core {
        return Err(CombineError::WrongSegmentType);
    }
    let ups = &up.pcb().entries;
    let downs = &down.pcb().entries;

    // Search for the first matching peering pair (closest to the source).
    for (u, u_entry) in ups.iter().enumerate().rev() {
        for upe in &u_entry.peers {
            for (d, d_entry) in downs.iter().enumerate() {
                if upe.peer != d_entry.ia {
                    continue;
                }
                // Require the *same physical link* advertised on both
                // sides: local/remote interface ids must cross-match.
                let matched = d_entry.peers.iter().any(|dpe| {
                    dpe.peer == u_entry.ia
                        && dpe.peer_if == upe.hop.ingress
                        && upe.peer_if == dpe.hop.ingress
                });
                if !matched {
                    continue;
                }
                let crossing = Seam::Peering {
                    egress: upe.hop.ingress,
                    ingress: upe.peer_if,
                };
                if let Some(path) = vet(
                    &[Run::reversed(&ups[u..]), Run::forward(&downs[d..])],
                    &[crossing],
                ) {
                    return Ok(sink(path));
                }
            }
        }
    }
    Err(CombineError::NoPeeringLink)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hopfield::HopField;
    use crate::pcb::{forwarding_key, Pcb, PeerEntry};
    use scion_crypto::trc::TrustStore;
    use scion_types::{Asn, Duration, IfId, Isd, SimTime};

    fn ia(isd: u16, asn: u64) -> IsdAsn {
        IsdAsn::new(Isd(isd), Asn::from_u64(asn))
    }

    fn trust() -> TrustStore {
        let mut ases = vec![];
        for isd in 1..=2u16 {
            for asn in 1..=9u64 {
                ases.push((ia(isd, asn), asn <= 2)); // AS 1,2 core per ISD
            }
        }
        TrustStore::bootstrap(ases.into_iter(), SimTime::ZERO + Duration::from_days(30))
    }

    fn seg(
        trust: &TrustStore,
        seg_type: SegmentType,
        hops: &[(IsdAsn, u16, u16)], // (ia, ingress, egress) beaconing dir
    ) -> PathSegment {
        let (first, rest) = hops.split_first().unwrap();
        let mut pcb = Pcb::originate(
            first.0,
            IfId(first.2),
            SimTime::ZERO,
            Duration::from_hours(6),
            0,
            trust,
        );
        for &(h, ing, eg) in rest {
            pcb = pcb.extend(h, IfId(ing), IfId(eg), vec![], trust);
        }
        PathSegment::from_terminated_pcb(seg_type, pcb)
    }

    /// The combiners as they were before they borrowed: every attempt
    /// copies both hop lists, glues the copies and checks the result. Kept
    /// as what the borrowing ones are compared against.
    mod reference {
        use super::super::{CombineError, EndToEndPath};
        use crate::segment::{PathSegment, SegmentType, TraversalHop};
        use scion_types::IsdAsn;

        /// Glues two traversals that meet at the same AS: the junction AS appears
        /// as the last hop of `a` (with egress NONE) and the first hop of `b`
        /// (with ingress NONE); the merged junction hop uses `a`'s ingress and
        /// `b`'s egress.
        fn join(
            a: Vec<TraversalHop>,
            b: Vec<TraversalHop>,
        ) -> Result<Vec<TraversalHop>, CombineError> {
            let (&(ja, ja_in, _), &(jb, _, jb_out)) = match (a.last(), b.first()) {
                (Some(x), Some(y)) => (x, y),
                _ => return Err(CombineError::Disconnected),
            };
            if ja != jb {
                return Err(CombineError::Disconnected);
            }
            let mut out = a;
            out.pop();
            out.push((ja, ja_in, jb_out));
            out.extend(b.into_iter().skip(1));
            Ok(out)
        }

        /// Orients a core segment so the traversal starts at `from`: forward if the
        /// segment originates there, reversed if it terminates there.
        fn orient_core(
            core: &PathSegment,
            from: IsdAsn,
        ) -> Result<Vec<TraversalHop>, CombineError> {
            if core.seg_type != SegmentType::Core {
                return Err(CombineError::WrongSegmentType);
            }
            if core.origin() == from {
                Ok(core.forward_hops().collect())
            } else if core.terminal() == from {
                Ok(core.reversed_hops().collect())
            } else {
                Err(CombineError::Disconnected)
            }
        }

        /// Combines up to three segments into an end-to-end path.
        ///
        /// * `up` — segment whose *terminal* is the source leaf AS (an up/down
        ///   segment stored in beaconing direction; traversed in reverse).
        ///   `None` if the source is itself a core AS.
        /// * `core` — core segment connecting the two ISD cores; `None` for
        ///   intra-ISD paths whose up and down segments meet at the same core AS.
        /// * `down` — segment whose terminal is the destination leaf; `None` if
        ///   the destination is a core AS.
        ///
        /// At least one segment must be given; junction ASes must match.
        pub fn combine_paths(
            up: Option<&PathSegment>,
            core: Option<&PathSegment>,
            down: Option<&PathSegment>,
        ) -> Result<EndToEndPath, CombineError> {
            let mut acc: Option<Vec<TraversalHop>> = None;

            if let Some(u) = up {
                if u.seg_type == SegmentType::Core {
                    return Err(CombineError::WrongSegmentType);
                }
                acc = Some(u.reversed_hops().collect());
            }
            if let Some(c) = core {
                let hops = match &acc {
                    Some(a) => orient_core(c, a.last().expect("non-empty").0)?,
                    None => {
                        if c.seg_type != SegmentType::Core {
                            return Err(CombineError::WrongSegmentType);
                        }
                        c.forward_hops().collect()
                    }
                };
                acc = Some(match acc {
                    Some(a) => join(a, hops)?,
                    None => hops,
                });
            }
            if let Some(d) = down {
                if d.seg_type == SegmentType::Core {
                    return Err(CombineError::WrongSegmentType);
                }
                let hops = d.forward_hops().collect::<Vec<_>>();
                acc = Some(match acc {
                    Some(a) => join(a, hops)?,
                    None => hops,
                });
            }
            let hops = acc.ok_or(CombineError::Disconnected)?;
            let path = EndToEndPath { hops };
            path.check().map_err(|_| CombineError::Disconnected)?;
            Ok(path)
        }

        /// Builds a shortcut path: up and down segments crossing over at a common
        /// non-core AS, avoiding the core entirely (§2.3).
        ///
        /// Picks the crossover closest to the leaves (the latest common AS in the
        /// up traversal), which yields the shortest shortcut.
        pub fn shortcut_path(
            up: &PathSegment,
            down: &PathSegment,
        ) -> Result<EndToEndPath, CombineError> {
            if up.seg_type == SegmentType::Core || down.seg_type == SegmentType::Core {
                return Err(CombineError::WrongSegmentType);
            }
            let up_hops: Vec<TraversalHop> = up.reversed_hops().collect(); // source leaf first, core last
            let down_hops: Vec<TraversalHop> = down.forward_hops().collect(); // core first, dest leaf last

            // Earliest position in the up traversal that also appears in the down
            // traversal — excluding the core origin itself (that case is a normal
            // combine, not a shortcut).
            let mut best: Option<(usize, usize)> = None;
            for (i, &(ia, _, _)) in up_hops.iter().enumerate().take(up_hops.len() - 1) {
                if let Some(j) = down_hops
                    .iter()
                    .skip(1)
                    .position(|&(d, _, _)| d == ia)
                    .map(|p| p + 1)
                {
                    best = Some((i, j));
                    break; // up traversal order = closest to source leaf
                }
            }
            let (i, j) = best.ok_or(CombineError::NoCommonAs)?;
            let mut hops: Vec<TraversalHop> = up_hops[..=i].to_vec();
            let cross = hops.last_mut().expect("non-empty");
            cross.2 = down_hops[j].2; // leave crossover via the down segment's egress
            hops.extend_from_slice(&down_hops[j + 1..]);
            let path = EndToEndPath { hops };
            path.check().map_err(|_| CombineError::NoCommonAs)?;
            Ok(path)
        }

        /// Builds a peering-shortcut path: an AS `u` on the up segment and an AS
        /// `d` on the down segment connected by a peering link that **both**
        /// segments advertise (§2.3). The path ascends to `u`, crosses the peering
        /// link, and descends from `d`.
        pub fn peering_path(
            up: &PathSegment,
            down: &PathSegment,
        ) -> Result<EndToEndPath, CombineError> {
            if up.seg_type == SegmentType::Core || down.seg_type == SegmentType::Core {
                return Err(CombineError::WrongSegmentType);
            }
            let up_hops: Vec<TraversalHop> = up.reversed_hops().collect();
            let down_hops: Vec<TraversalHop> = down.forward_hops().collect();

            // Search for the first matching peering pair (closest to the source).
            for (i, &(u_ia, _, _)) in up_hops.iter().enumerate() {
                let u_entry = up
                    .pcb()
                    .entries
                    .iter()
                    .find(|e| e.ia == u_ia)
                    .expect("hop exists in segment");
                for upe in &u_entry.peers {
                    for (j, &(d_ia, _, _)) in down_hops.iter().enumerate() {
                        if upe.peer != d_ia {
                            continue;
                        }
                        let d_entry = down
                            .pcb()
                            .entries
                            .iter()
                            .find(|e| e.ia == d_ia)
                            .expect("hop exists in segment");
                        // Require the *same physical link* advertised on both
                        // sides: local/remote interface ids must cross-match.
                        let matched = d_entry.peers.iter().any(|dpe| {
                            dpe.peer == u_ia
                                && dpe.peer_if == upe.hop.ingress
                                && upe.peer_if == dpe.hop.ingress
                        });
                        if !matched {
                            continue;
                        }
                        let mut hops: Vec<TraversalHop> = up_hops[..=i].to_vec();
                        hops.last_mut().expect("non-empty").2 = upe.hop.ingress;
                        let mut down_tail = down_hops[j..].to_vec();
                        down_tail[0].1 = upe.peer_if;
                        hops.extend(down_tail);
                        let path = EndToEndPath { hops };
                        if path.check().is_ok() {
                            return Ok(path);
                        }
                    }
                }
            }
            Err(CombineError::NoPeeringLink)
        }
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Every second pair of the seven-AS pool peers, over one fixed
        /// link whose interface ids name the far side.
        fn peering_links(of: u64) -> impl Iterator<Item = (u64, IfId, IfId)> {
            (1..=7u64)
                .filter(move |&peer| peer != of && peer % 2 == of % 2)
                .map(move |peer| (peer, IfId(20 + peer as u16), IfId(20 + of as u16)))
        }

        /// One drawn hop: AS pick, ingress, egress (0 = none), and which of
        /// the AS's peering links it advertises.
        type Hop = (u64, u16, u16, u8);

        fn hops() -> impl Strategy<Value = Vec<Hop>> {
            proptest::collection::vec((0u64..5, 0u16..12, 0u16..12, any::<u8>()), 1..6)
        }

        /// A segment over ISD 1: the origin is core AS 1 or 2, the others
        /// come from ASes 3–7 (a core segment ends at a core AS again), an
        /// AS already on the segment is skipped — beaconing never loops —
        /// and any interior interface may be missing. `role` is the type
        /// the caller's slot wants; one draw in eight hands back another.
        fn segment(tr: &TrustStore, role: SegmentType, type_pick: u8, hops: &[Hop]) -> PathSegment {
            let seg_type = match (type_pick % 8, role) {
                (0, SegmentType::Core) => SegmentType::Down,
                (0, _) => SegmentType::Core,
                _ => role,
            };
            let origin = ia(1, 1 + hops[0].0 % 2);
            let lifetime = Duration::from_hours(6);
            let mut pcb = Pcb::originate(origin, IfId(1), SimTime::ZERO, lifetime, 0, tr);
            for (i, &(pick, ..)) in hops.iter().enumerate().skip(1) {
                let last_of_core = role == SegmentType::Core && i + 1 == hops.len();
                let next = if last_of_core {
                    ia(1, 1 + pick % 2)
                } else {
                    ia(1, 3 + pick)
                };
                if pcb.contains_as(next) {
                    continue;
                }
                let peers = peering_links(next.asn.value())
                    .filter(|&(peer, ..)| hops[i].3 >> peer & 1 == 1)
                    .map(|(peer, local_if, peer_if)| PeerEntry {
                        peer: ia(1, peer),
                        peer_if,
                        hop: HopField::new(
                            local_if,
                            IfId::NONE,
                            SimTime::ZERO + lifetime,
                            forwarding_key(next),
                        ),
                    })
                    .collect();
                pcb = pcb.extend(next, IfId(1), IfId(1), peers, tr);
            }
            // Combination reads interfaces, not signatures: overwrite them
            // with the drawn ones, the terminal's egress excepted.
            let n = pcb.entries.len();
            for (i, (entry, &(_, ingress, egress, _))) in
                pcb.entries.iter_mut().zip(hops).enumerate()
            {
                entry.hop.ingress = IfId(ingress);
                entry.hop.egress = if i + 1 == n { IfId::NONE } else { IfId(egress) };
            }
            PathSegment::from_terminated_pcb(seg_type, pcb)
        }

        fn loop_free(path: &EndToEndPath) -> bool {
            let ases = path.as_path();
            (0..ases.len()).all(|i| !ases[..i].contains(&ases[i]))
        }

        /// Any hop list at all — the order has to hold on more than the
        /// combiners produce — over so few values that two of three often
        /// cross the same links.
        fn any_path() -> impl Strategy<Value = Vec<(u64, u16, u16)>> {
            proptest::collection::vec((1u64..3, 0u16..2, 0u16..2), 0..6)
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

            /// `preference` is a total order — comparing the other way
            /// round reverses the answer, and it carries across a middle
            /// path — whose `Equal` is "as long, over the same links":
            /// interfaces no link uses (the first ingress, the last egress)
            /// do not tell paths apart. `hop_preference` is the same rule.
            #[test]
            fn prop_preference_is_a_total_order_on_link_sequences(
                a in any_path(),
                b in any_path(),
                c in any_path(),
            ) {
                let path = |hops: &[(u64, u16, u16)]| EndToEndPath {
                    hops: hops.iter().map(|&(asn, i, e)| (ia(1, asn), IfId(i), IfId(e))).collect(),
                };
                let (a, b, c) = (path(&a), path(&b), path(&c));
                prop_assert_eq!(a.preference(&b), b.preference(&a).reverse());
                prop_assert_eq!(a.preference(&a), Ordering::Equal);
                if a.preference(&b).is_le() && b.preference(&c).is_le() {
                    prop_assert!(a.preference(&c).is_le());
                    if a.preference(&c).is_eq() {
                        prop_assert!(a.preference(&b).is_eq() && b.preference(&c).is_eq());
                    }
                }
                prop_assert_eq!(
                    a.preference(&b).is_eq(),
                    a.len() == b.len() && a.links() == b.links()
                );
                prop_assert_eq!(a.preference(&b), (a.len(), a.links()).cmp(&(b.len(), b.links())));
                prop_assert_eq!(a.preference(&b), hop_preference(&a.hops, &b.hops));
            }

            /// The borrowing combiners return what the copying ones do —
            /// the same path or the same error — and every path returned is
            /// well-formed and joins the right endpoints.
            #[test]
            fn prop_combiners_match_the_copying_reference(
                up in hops(),
                core in hops(),
                down in hops(),
                types in (any::<u8>(), any::<u8>(), any::<u8>()),
                given in 0u8..8,
            ) {
                let tr = trust();
                let up = segment(&tr, SegmentType::Up, types.0, &up);
                let core = segment(&tr, SegmentType::Core, types.1, &core);
                let down = segment(&tr, SegmentType::Down, types.2, &down);

                let pick = |bit: u8, seg| (given >> bit & 1 == 1).then_some(seg);
                let (u, c, d) = (pick(0, &up), pick(1, &core), pick(2, &down));
                let combined = combine_paths(u, c, d);
                prop_assert_eq!(&combined, &reference::combine_paths(u, c, d));
                let shortcut = shortcut_path(&up, &down);
                prop_assert_eq!(&shortcut, &reference::shortcut_path(&up, &down));
                let peering = peering_path(&up, &down);
                prop_assert_eq!(&peering, &reference::peering_path(&up, &down));

                // The appending forms put those very hops behind what the
                // buffer holds, and nothing when there is no path.
                let held = (ia(2, 9), IfId(7), IfId(7));
                let behind = |owned: &Result<EndToEndPath, CombineError>| {
                    let hops = owned.iter().flat_map(|path| &path.hops);
                    std::iter::once(&held).chain(hops).copied().collect::<Vec<_>>()
                };
                let mut out = vec![held];
                let appended = combine_paths_into(u, c, d, &mut out);
                prop_assert_eq!((appended, out), (combined.clone().map(drop), behind(&combined)));
                let mut out = vec![held];
                let appended = shortcut_path_into(&up, &down, &mut out);
                prop_assert_eq!((appended, out), (shortcut.clone().map(drop), behind(&shortcut)));
                let mut out = vec![held];
                let appended = peering_path_into(&up, &down, &mut out);
                prop_assert_eq!((appended, out), (peering.clone().map(drop), behind(&peering)));

                if let Ok(path) = &combined {
                    // Up-segments are left at their origin, a core segment
                    // at whichever end the path did not enter it by.
                    let source = match (u, c, d) {
                        (Some(u), ..) => u.terminal(),
                        (None, Some(c), _) => c.origin(),
                        (None, None, d) => d.expect("a segment was given").origin(),
                    };
                    let destination = match (u, c, d) {
                        (.., Some(d)) => d.terminal(),
                        (None, Some(c), None) => c.terminal(),
                        (Some(u), Some(c), None) if c.origin() == u.origin() => c.terminal(),
                        (Some(_), Some(c), None) => c.origin(),
                        (u, None, None) => u.expect("a segment was given").origin(),
                    };
                    prop_assert_eq!((path.source(), path.destination()), (source, destination));
                }
                for path in [&combined, &shortcut, &peering].into_iter().flatten() {
                    prop_assert_eq!(path.check(), Ok(()));
                    prop_assert!(loop_free(path));
                }
                for path in [&shortcut, &peering].into_iter().flatten() {
                    prop_assert_eq!(
                        (path.source(), path.destination()),
                        (up.terminal(), down.terminal())
                    );
                }
            }
        }
    }

    #[test]
    fn three_segment_combination() {
        let tr = trust();
        // Up seg (beacon dir): core 1-1 -> leaf 1-5.
        let up = seg(&tr, SegmentType::Up, &[(ia(1, 1), 0, 1), (ia(1, 5), 1, 0)]);
        // Core seg: 1-1 -> 2-1.
        let core = seg(
            &tr,
            SegmentType::Core,
            &[(ia(1, 1), 0, 2), (ia(2, 1), 1, 0)],
        );
        // Down seg: core 2-1 -> leaf 2-5.
        let down = seg(
            &tr,
            SegmentType::Down,
            &[(ia(2, 1), 0, 2), (ia(2, 5), 1, 0)],
        );

        let path = combine_paths(Some(&up), Some(&core), Some(&down)).unwrap();
        assert_eq!(path.as_path(), vec![ia(1, 5), ia(1, 1), ia(2, 1), ia(2, 5)]);
        assert_eq!(path.source(), ia(1, 5));
        assert_eq!(path.destination(), ia(2, 5));
        path.check().unwrap();
        // Junction interfaces resolved: 1-1 entered via 1 (up), left via 2
        // (core); 2-1 entered via 1 (core), left via 2 (down).
        assert_eq!(path.hops[1], (ia(1, 1), IfId(1), IfId(2)));
        assert_eq!(path.hops[2], (ia(2, 1), IfId(1), IfId(2)));
        assert_eq!(path.links().len(), 3);
    }

    #[test]
    fn core_segment_reversal_when_needed() {
        let tr = trust();
        let up = seg(&tr, SegmentType::Up, &[(ia(2, 1), 0, 1), (ia(2, 5), 1, 0)]);
        // Core seg originated at 1-1, but source side is 2-1: must reverse.
        let core = seg(
            &tr,
            SegmentType::Core,
            &[(ia(1, 1), 0, 2), (ia(2, 1), 1, 0)],
        );
        let down = seg(
            &tr,
            SegmentType::Down,
            &[(ia(1, 1), 0, 3), (ia(1, 5), 1, 0)],
        );
        let path = combine_paths(Some(&up), Some(&core), Some(&down)).unwrap();
        assert_eq!(path.as_path(), vec![ia(2, 5), ia(2, 1), ia(1, 1), ia(1, 5)]);
    }

    #[test]
    fn up_only_reaches_core() {
        let tr = trust();
        let up = seg(&tr, SegmentType::Up, &[(ia(1, 1), 0, 1), (ia(1, 5), 1, 0)]);
        let path = combine_paths(Some(&up), None, None).unwrap();
        assert_eq!(path.as_path(), vec![ia(1, 5), ia(1, 1)]);
    }

    #[test]
    fn same_core_up_down_join() {
        let tr = trust();
        let up = seg(&tr, SegmentType::Up, &[(ia(1, 1), 0, 1), (ia(1, 5), 1, 0)]);
        let down = seg(
            &tr,
            SegmentType::Down,
            &[(ia(1, 1), 0, 2), (ia(1, 6), 1, 0)],
        );
        let path = combine_paths(Some(&up), None, Some(&down)).unwrap();
        assert_eq!(path.as_path(), vec![ia(1, 5), ia(1, 1), ia(1, 6)]);
    }

    #[test]
    fn disconnected_segments_rejected() {
        let tr = trust();
        let up = seg(&tr, SegmentType::Up, &[(ia(1, 1), 0, 1), (ia(1, 5), 1, 0)]);
        let down = seg(
            &tr,
            SegmentType::Down,
            &[(ia(1, 2), 0, 2), (ia(1, 6), 1, 0)],
        );
        assert_eq!(
            combine_paths(Some(&up), None, Some(&down)),
            Err(CombineError::Disconnected)
        );
    }

    #[test]
    fn wrong_role_rejected() {
        let tr = trust();
        let core = seg(
            &tr,
            SegmentType::Core,
            &[(ia(1, 1), 0, 1), (ia(1, 2), 1, 0)],
        );
        assert_eq!(
            combine_paths(Some(&core), None, None),
            Err(CombineError::WrongSegmentType)
        );
        let up = seg(&tr, SegmentType::Up, &[(ia(1, 1), 0, 1), (ia(1, 5), 1, 0)]);
        assert_eq!(
            combine_paths(Some(&up), Some(&up), None),
            Err(CombineError::WrongSegmentType)
        );
    }

    #[test]
    fn shortcut_at_common_as() {
        let tr = trust();
        // Up:   1-1 -> 1-4 -> 1-5 (source 1-5).
        // Down: 1-1 -> 1-4 -> 1-6 (dest 1-6). Common non-core AS: 1-4.
        let up = seg(
            &tr,
            SegmentType::Up,
            &[(ia(1, 1), 0, 1), (ia(1, 4), 1, 2), (ia(1, 5), 1, 0)],
        );
        let down = seg(
            &tr,
            SegmentType::Down,
            &[(ia(1, 1), 0, 3), (ia(1, 4), 3, 4), (ia(1, 6), 1, 0)],
        );
        let path = shortcut_path(&up, &down).unwrap();
        // Core AS 1-1 is avoided entirely.
        assert_eq!(path.as_path(), vec![ia(1, 5), ia(1, 4), ia(1, 6)]);
        // Crossover hop enters via the up segment and leaves via the down
        // segment's egress at 1-4.
        assert_eq!(path.hops[1], (ia(1, 4), IfId(2), IfId(4)));
    }

    #[test]
    fn shortcut_requires_common_as() {
        let tr = trust();
        let up = seg(&tr, SegmentType::Up, &[(ia(1, 1), 0, 1), (ia(1, 5), 1, 0)]);
        let down = seg(
            &tr,
            SegmentType::Down,
            &[(ia(1, 1), 0, 2), (ia(1, 6), 1, 0)],
        );
        // Only common AS is the core origin -> not a shortcut.
        assert_eq!(shortcut_path(&up, &down), Err(CombineError::NoCommonAs));
    }

    #[test]
    fn peering_shortcut_requires_link_in_both_segments() {
        let tr = trust();
        let t0 = SimTime::ZERO;
        let lifetime = Duration::from_hours(6);
        // Up segment: 1-1 -> 1-5, where 1-5 advertises a peering link to
        // 1-6 (local if 9, remote if 8).
        let peer_up = PeerEntry {
            peer: ia(1, 6),
            peer_if: IfId(8),
            hop: HopField::new(IfId(9), IfId::NONE, t0 + lifetime, forwarding_key(ia(1, 5))),
        };
        let up_pcb = Pcb::originate(ia(1, 1), IfId(1), t0, lifetime, 0, &tr).extend(
            ia(1, 5),
            IfId(1),
            IfId::NONE,
            vec![peer_up],
            &tr,
        );
        let up = PathSegment::from_terminated_pcb(SegmentType::Up, up_pcb);

        // Down segment: 1-2 -> 1-6, 1-6 advertises the same link back.
        let peer_down = PeerEntry {
            peer: ia(1, 5),
            peer_if: IfId(9),
            hop: HopField::new(IfId(8), IfId::NONE, t0 + lifetime, forwarding_key(ia(1, 6))),
        };
        let down_pcb = Pcb::originate(ia(1, 2), IfId(1), t0, lifetime, 0, &tr).extend(
            ia(1, 6),
            IfId(1),
            IfId::NONE,
            vec![peer_down],
            &tr,
        );
        let down = PathSegment::from_terminated_pcb(SegmentType::Down, down_pcb);

        let path = peering_path(&up, &down).unwrap();
        assert_eq!(path.as_path(), vec![ia(1, 5), ia(1, 6)]);
        // Crosses the peering link 1-5#9 <-> 1-6#8.
        assert_eq!(
            path.links(),
            vec![(
                LinkEnd::new(ia(1, 5), IfId(9)),
                LinkEnd::new(ia(1, 6), IfId(8)),
            )]
        );

        // A down segment *without* the reciprocal peer entry must fail.
        let down_pcb2 = Pcb::originate(ia(1, 2), IfId(1), t0, lifetime, 0, &tr).extend(
            ia(1, 6),
            IfId(1),
            IfId::NONE,
            vec![],
            &tr,
        );
        let down2 = PathSegment::from_terminated_pcb(SegmentType::Down, down_pcb2);
        assert_eq!(peering_path(&up, &down2), Err(CombineError::NoPeeringLink));
    }
}
