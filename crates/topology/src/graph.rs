//! The AS multigraph: ASes as nodes, individual inter-domain links as edges.
//!
//! A single AS pair may be connected by several *parallel* links (distinct
//! interface pairs) — in the real Internet these correspond to interconnects
//! at different points of presence. The paper's path-diversity algorithm
//! (§4.2) and its capacity/resilience evaluation (§5.3) are defined at this
//! link granularity, so the graph keeps every link as a first-class edge and
//! assigns each endpoint a per-AS unique interface id.

use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use scion_types::{Asn, IfId, Isd, IsdAsn, LinkEnd, LinkId};

/// Dense index of an AS within an [`AsTopology`].
///
/// All hot-path data structures key on this rather than on `IsdAsn` to keep
/// lookups O(1) array accesses during simulation.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct AsIndex(pub u32);

impl AsIndex {
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AsIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "as#{}", self.0)
    }
}

/// Dense index of a link within an [`AsTopology`].
///
/// **Ordering guarantee.** Link indices are assigned in [`AsTopology::add_link`]
/// call order and never renumbered, so for a deterministic construction
/// procedure (generators are seeded; manual builders are sequential) the
/// numbering is identical across runs. Fault schedules (see
/// `scion-simulator`'s fault module) rely on this to name links
/// reproducibly: a script that downs `LinkIndex(17)` downs the same
/// physical link in every run.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize, Default,
)]
#[serde(transparent)]
pub struct LinkIndex(pub u32);

impl LinkIndex {
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LinkIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "link#{}", self.0)
    }
}

/// Business relationship of a link, following the CAIDA `as-rel` convention.
///
/// The direction is expressed relative to the link's stored `(a, b)` endpoint
/// order: `AProviderOfB` means `a` sells transit to `b`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Relationship {
    /// `a` is the provider, `b` the customer (CAIDA `-1`).
    AProviderOfB,
    /// Settlement-free peering (CAIDA `0`).
    PeerToPeer,
}

/// One physical inter-domain link between two ASes.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Link {
    pub a: AsIndex,
    pub a_if: IfId,
    pub b: AsIndex,
    pub b_if: IfId,
    pub rel: Relationship,
}

impl Link {
    /// The AS on the other side of the link from `side`, with the local and
    /// remote interface ids `(other, local_if, remote_if)`.
    ///
    /// # Panics
    /// Panics if `side` is not an endpoint of this link.
    pub fn opposite(&self, side: AsIndex) -> (AsIndex, IfId, IfId) {
        if side == self.a {
            (self.b, self.a_if, self.b_if)
        } else if side == self.b {
            (self.a, self.b_if, self.a_if)
        } else {
            panic!("{side} is not an endpoint of this link");
        }
    }

    /// True if `side` is the provider end (always false for peering links).
    pub fn is_provider_side(&self, side: AsIndex) -> bool {
        matches!(self.rel, Relationship::AProviderOfB) && side == self.a
    }

    /// True if `side` is the customer end (always false for peering links).
    pub fn is_customer_side(&self, side: AsIndex) -> bool {
        matches!(self.rel, Relationship::AProviderOfB) && side == self.b
    }

    /// True if this is a settlement-free peering link.
    pub fn is_peering(&self) -> bool {
        matches!(self.rel, Relationship::PeerToPeer)
    }
}

/// Per-AS node data.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AsNode {
    /// The globally-routable `⟨ISD, AS⟩` address. The ISD is
    /// [`Isd::WILDCARD`] until ISD assignment runs (see [`crate::isd`]).
    pub ia: IsdAsn,
    /// Whether this AS is a member of its ISD's core (paper §2.1: typically
    /// the 3–10 largest ISPs of an ISD).
    pub core: bool,
    /// Links incident to this AS, by interface id: the link at position
    /// `k` carries interface id `k + 1` at this AS. `add_link` appends as it
    /// hands the ids out 1, 2, … and nothing removes or reorders;
    /// [`AsTopology::link_by_interface`] indexes by it and
    /// [`AsTopology::check_invariants`] asserts it.
    pub links: Vec<LinkIndex>,
    /// Next interface id to hand out (interface ids are per-AS unique,
    /// starting at 1; 0 is the "no interface" sentinel).
    next_ifid: u16,
}

impl AsNode {
    fn new(ia: IsdAsn) -> AsNode {
        AsNode {
            ia,
            core: false,
            links: Vec::new(),
            next_ifid: 1,
        }
    }

    /// Degree counting every parallel link individually.
    pub fn link_degree(&self) -> usize {
        self.links.len()
    }
}

/// The AS-level Internet multigraph.
///
/// Construction is additive (`add_as`, `add_link`); experiment code then
/// treats the topology as immutable shared state. Derived views (neighbour
/// sets, link ids) are computed on demand and cached where hot.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct AsTopology {
    ases: Vec<AsNode>,
    links: Vec<Link>,
    #[serde(skip)]
    by_ia: HashMap<IsdAsn, AsIndex>,
}

impl AsTopology {
    /// Creates an empty topology.
    pub fn new() -> AsTopology {
        AsTopology::default()
    }

    /// Adds an AS with the given address; returns its dense index.
    ///
    /// # Panics
    /// Panics if the address is already present.
    pub fn add_as(&mut self, ia: IsdAsn) -> AsIndex {
        assert!(
            !self.by_ia.contains_key(&ia),
            "duplicate AS address {ia} in topology"
        );
        let idx = AsIndex(self.ases.len() as u32);
        self.ases.push(AsNode::new(ia));
        self.by_ia.insert(ia, idx);
        idx
    }

    /// Adds one physical link between `a` and `b` with relationship `rel`
    /// (direction relative to `(a, b)`), allocating fresh interface ids on
    /// both ends. Returns the link's index.
    ///
    /// Call repeatedly for parallel links; each call creates a distinct link.
    pub fn add_link(&mut self, a: AsIndex, b: AsIndex, rel: Relationship) -> LinkIndex {
        assert_ne!(a, b, "self-links are not allowed");
        let a_if = self.alloc_ifid(a);
        let b_if = self.alloc_ifid(b);
        let idx = LinkIndex(self.links.len() as u32);
        self.links.push(Link {
            a,
            a_if,
            b,
            b_if,
            rel,
        });
        self.ases[a.as_usize()].links.push(idx);
        self.ases[b.as_usize()].links.push(idx);
        idx
    }

    fn alloc_ifid(&mut self, idx: AsIndex) -> IfId {
        let node = &mut self.ases[idx.as_usize()];
        let ifid = IfId(node.next_ifid);
        node.next_ifid = node
            .next_ifid
            .checked_add(1)
            .expect("interface id space exhausted");
        ifid
    }

    /// Marks an AS as a core AS.
    pub fn set_core(&mut self, idx: AsIndex, core: bool) {
        self.ases[idx.as_usize()].core = core;
    }

    /// Re-addresses an AS into an ISD (used by ISD assignment).
    pub fn set_isd(&mut self, idx: AsIndex, isd: Isd) {
        let old = self.ases[idx.as_usize()].ia;
        let new = IsdAsn::new(isd, old.asn);
        self.by_ia.remove(&old);
        self.ases[idx.as_usize()].ia = new;
        self.by_ia.insert(new, idx);
    }

    /// Number of ASes.
    pub fn num_ases(&self) -> usize {
        self.ases.len()
    }

    /// Number of physical links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Node data for an AS.
    pub fn node(&self, idx: AsIndex) -> &AsNode {
        &self.ases[idx.as_usize()]
    }

    /// Link data.
    pub fn link(&self, idx: LinkIndex) -> &Link {
        &self.links[idx.as_usize()]
    }

    /// Looks up an AS by address (rebuilding the index lazily after
    /// deserialization is the caller's job via [`AsTopology::rebuild_index`]).
    pub fn by_address(&self, ia: IsdAsn) -> Option<AsIndex> {
        self.by_ia.get(&ia).copied()
    }

    /// Rebuilds the address index (needed after `serde` deserialization,
    /// which skips the map).
    pub fn rebuild_index(&mut self) {
        self.by_ia = self
            .ases
            .iter()
            .enumerate()
            .map(|(i, n)| (n.ia, AsIndex(i as u32)))
            .collect();
    }

    /// Iterates all AS indices.
    pub fn as_indices(&self) -> impl Iterator<Item = AsIndex> + '_ {
        (0..self.ases.len() as u32).map(AsIndex)
    }

    /// Iterates all link indices.
    pub fn link_indices(&self) -> impl Iterator<Item = LinkIndex> + '_ {
        (0..self.links.len() as u32).map(LinkIndex)
    }

    /// Iterates all core AS indices.
    pub fn core_ases(&self) -> impl Iterator<Item = AsIndex> + '_ {
        self.as_indices().filter(|&i| self.node(i).core)
    }

    /// The canonical [`LinkId`] (interface-level identity) for a link.
    pub fn link_id(&self, idx: LinkIndex) -> LinkId {
        let l = self.link(idx);
        LinkId::new(
            LinkEnd::new(self.node(l.a).ia, l.a_if),
            LinkEnd::new(self.node(l.b).ia, l.b_if),
        )
    }

    /// Links incident to `idx`, as `(link index, neighbor, local ifid,
    /// remote ifid)` tuples, in ascending [`LinkIndex`] (= creation) order.
    ///
    /// The order is stable because adjacency lists are append-only and
    /// `add_link` hands out indices monotonically; `check_invariants`
    /// asserts it.
    pub fn incident(
        &self,
        idx: AsIndex,
    ) -> impl Iterator<Item = (LinkIndex, AsIndex, IfId, IfId)> + '_ {
        self.node(idx).links.iter().map(move |&li| {
            let (other, local_if, remote_if) = self.link(li).opposite(idx);
            (li, other, local_if, remote_if)
        })
    }

    /// Distinct neighbor ASes of `idx` (parallel links deduplicated),
    /// in first-encounter order.
    pub fn neighbors(&self, idx: AsIndex) -> Vec<AsIndex> {
        let mut seen = Vec::new();
        for (_, other, _, _) in self.incident(idx) {
            if !seen.contains(&other) {
                seen.push(other);
            }
        }
        seen
    }

    /// Customer neighbours of `idx` (ASes to which `idx` sells transit),
    /// deduplicated.
    pub fn customers(&self, idx: AsIndex) -> Vec<AsIndex> {
        let mut seen = Vec::new();
        for (li, other, _, _) in self.incident(idx) {
            if self.link(li).is_provider_side(idx) && !seen.contains(&other) {
                seen.push(other);
            }
        }
        seen
    }

    /// Provider neighbours of `idx`, deduplicated.
    pub fn providers(&self, idx: AsIndex) -> Vec<AsIndex> {
        let mut seen = Vec::new();
        for (li, other, _, _) in self.incident(idx) {
            if self.link(li).is_customer_side(idx) && !seen.contains(&other) {
                seen.push(other);
            }
        }
        seen
    }

    /// Peer neighbours of `idx`, deduplicated.
    pub fn peers(&self, idx: AsIndex) -> Vec<AsIndex> {
        let mut seen = Vec::new();
        for (li, other, _, _) in self.incident(idx) {
            if self.link(li).is_peering() && !seen.contains(&other) {
                seen.push(other);
            }
        }
        seen
    }

    /// All links (parallel ones individually) between `a` and `b`, in
    /// ascending [`LinkIndex`] (= creation) order.
    ///
    /// Parallel links therefore enumerate identically across runs of the
    /// same construction procedure — fault schedule scripts may index into
    /// this list (e.g. "down the second parallel link") and replay
    /// deterministically.
    pub fn links_between(&self, a: AsIndex, b: AsIndex) -> Vec<LinkIndex> {
        self.node(a)
            .links
            .iter()
            .copied()
            .filter(|&li| {
                let l = self.link(li);
                (l.a == a && l.b == b) || (l.a == b && l.b == a)
            })
            .collect()
    }

    /// Resolves an egress interface id at `idx` to its link: the entry at
    /// position `ifid − 1` of the node's links (see [`AsNode::links`]),
    /// answered only if that link does carry `ifid` at `idx` — a topology
    /// that broke the ordering answers `None`, never another link.
    pub fn link_by_interface(&self, idx: AsIndex, ifid: IfId) -> Option<LinkIndex> {
        let at = usize::from(ifid.0).checked_sub(1)?;
        let li = *self.node(idx).links.get(at)?;
        let l = self.link(li);
        ((l.a == idx && l.a_if == ifid) || (l.b == idx && l.b_if == ifid)).then_some(li)
    }

    /// The sub-multigraph induced by the core ASes: returns the link indices
    /// whose both endpoints are core.
    pub fn core_links(&self) -> Vec<LinkIndex> {
        self.link_indices()
            .filter(|&li| {
                let l = self.link(li);
                self.node(l.a).core && self.node(l.b).core
            })
            .collect()
    }

    /// Checks structural invariants; used by tests and debug assertions.
    ///
    /// Invariants: interface ids are per-AS unique; the *k*-th entry of an
    /// adjacency list carries interface id *k* + 1 at that AS (what
    /// [`AsTopology::link_by_interface`] indexes by); every link is listed in
    /// both endpoints' adjacency; adjacency lists are strictly ascending in
    /// [`LinkIndex`] (the ordering guarantee fault schedules depend on); the
    /// address index is consistent.
    pub fn check_invariants(&self) -> Result<(), String> {
        for idx in self.as_indices() {
            let mut seen_if = std::collections::HashSet::new();
            for (k, (li, _, local_if, _)) in self.incident(idx).enumerate() {
                if !seen_if.insert(local_if) {
                    return Err(format!("duplicate ifid {local_if} at {idx} (link {li})"));
                }
                if local_if.is_none() {
                    return Err(format!("sentinel ifid used on a real link at {idx}"));
                }
                if usize::from(local_if.0) != k + 1 {
                    return Err(format!(
                        "entry {k} of the adjacency of {idx} carries ifid {local_if} (link {li})"
                    ));
                }
            }
            let adj = &self.node(idx).links;
            if adj.windows(2).any(|w| w[0] >= w[1]) {
                return Err(format!("adjacency of {idx} not strictly ascending"));
            }
        }
        for (i, l) in self.links.iter().enumerate() {
            let li = LinkIndex(i as u32);
            for side in [l.a, l.b] {
                if !self.node(side).links.contains(&li) {
                    return Err(format!("link {li} missing from adjacency of {side}"));
                }
            }
        }
        for (&ia, &idx) in &self.by_ia {
            if self.node(idx).ia != ia {
                return Err(format!("address index inconsistent for {ia}"));
            }
        }
        Ok(())
    }
}

/// Convenience constructor for tests and examples: builds a topology from
/// `(asn_a, asn_b, rel, parallel)` tuples, creating ASes on first mention.
/// All ASes start in ISD 1.
pub fn topology_from_edges(edges: &[(u64, u64, Relationship, usize)]) -> AsTopology {
    let mut topo = AsTopology::new();
    let mut idx_of = HashMap::new();
    let get = |topo: &mut AsTopology, idx_of: &mut HashMap<u64, AsIndex>, asn: u64| {
        *idx_of
            .entry(asn)
            .or_insert_with(|| topo.add_as(IsdAsn::new(Isd(1), Asn::from_u64(asn))))
    };
    for &(a, b, rel, parallel) in edges {
        let ai = get(&mut topo, &mut idx_of, a);
        let bi = get(&mut topo, &mut idx_of, b);
        for _ in 0..parallel.max(1) {
            topo.add_link(ai, bi, rel);
        }
    }
    topo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isd::{induced_subgraph, prune_to_top_degree};
    use proptest::prelude::*;

    fn ia(asn: u64) -> IsdAsn {
        IsdAsn::new(Isd(1), Asn::from_u64(asn))
    }

    /// The parent commit's `link_by_interface`: a scan of the node's links.
    /// Kept as the oracle for the positional lookup.
    fn link_by_interface_scan(t: &AsTopology, idx: AsIndex, ifid: IfId) -> Option<LinkIndex> {
        t.node(idx).links.iter().copied().find(|&li| {
            let l = t.link(li);
            (l.a == idx && l.a_if == ifid) || (l.b == idx && l.b_if == ifid)
        })
    }

    /// Every AS against every id any AS of `t` carries — so ids valid only
    /// at a different AS occur — plus [`IfId::NONE`], one past the largest
    /// degree and `u16::MAX`.
    fn assert_lookup_matches_the_scan(t: &AsTopology) {
        t.check_invariants().unwrap();
        let max_degree = t
            .as_indices()
            .map(|i| t.node(i).link_degree())
            .max()
            .unwrap_or(0) as u16;
        for idx in t.as_indices() {
            for ifid in (0..=max_degree + 1).chain([u16::MAX]).map(IfId) {
                assert_eq!(
                    t.link_by_interface(idx, ifid),
                    link_by_interface_scan(t, idx, ifid),
                    "{ifid} at {idx}"
                );
            }
            for (li, _, local_if, _) in t.incident(idx) {
                assert_eq!(t.link_by_interface(idx, local_if), Some(li));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn prop_link_by_interface_matches_the_scan(
            n in 2u32..9,
            edges in proptest::collection::vec((any::<u32>(), any::<u32>(), any::<bool>()), 0..40),
            keep in proptest::collection::vec(any::<bool>(), 9),
            survivors in any::<usize>(),
        ) {
            let mut t = AsTopology::new();
            for asn in 0..n {
                t.add_as(ia(u64::from(asn) + 1));
            }
            // Few ASes, many edges: most pairs get parallel links.
            for (a, b, peer) in edges {
                let (a, b) = (AsIndex(a % n), AsIndex(b % n));
                if a != b {
                    let rel = if peer {
                        Relationship::PeerToPeer
                    } else {
                        Relationship::AProviderOfB
                    };
                    t.add_link(a, b, rel);
                }
            }
            assert_lookup_matches_the_scan(&t);
            assert_lookup_matches_the_scan(&induced_subgraph(&t, &keep[..n as usize]).0);
            assert_lookup_matches_the_scan(&prune_to_top_degree(&t, survivors % (n as usize + 1)).0);
        }
    }

    #[test]
    fn a_reordered_adjacency_answers_none_and_fails_the_invariants() {
        let mut t = AsTopology::new();
        let a = t.add_as(ia(10));
        let b = t.add_as(ia(20));
        let c = t.add_as(ia(30));
        let l1 = t.add_link(a, b, Relationship::PeerToPeer);
        let l2 = t.add_link(a, c, Relationship::PeerToPeer);
        t.ases[a.as_usize()].links.swap(0, 1);
        assert_eq!(t.link_by_interface(a, IfId(1)), None);
        assert_eq!(t.link_by_interface(a, IfId(2)), None);
        assert_eq!(t.link_by_interface(b, IfId(1)), Some(l1));
        assert_eq!(t.link_by_interface(c, IfId(1)), Some(l2));
        assert!(t.check_invariants().unwrap_err().contains("carries ifid"));
    }

    #[test]
    fn add_as_and_lookup() {
        let mut t = AsTopology::new();
        let a = t.add_as(ia(10));
        assert_eq!(t.by_address(ia(10)), Some(a));
        assert_eq!(t.by_address(ia(11)), None);
        assert_eq!(t.num_ases(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate AS")]
    fn duplicate_as_panics() {
        let mut t = AsTopology::new();
        t.add_as(ia(10));
        t.add_as(ia(10));
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_panics() {
        let mut t = AsTopology::new();
        let a = t.add_as(ia(10));
        t.add_link(a, a, Relationship::PeerToPeer);
    }

    #[test]
    fn interface_ids_are_per_as_unique_and_start_at_one() {
        let mut t = AsTopology::new();
        let a = t.add_as(ia(10));
        let b = t.add_as(ia(20));
        let c = t.add_as(ia(30));
        let l1 = t.add_link(a, b, Relationship::AProviderOfB);
        let l2 = t.add_link(a, c, Relationship::AProviderOfB);
        assert_eq!(t.link(l1).a_if, IfId(1));
        assert_eq!(t.link(l1).b_if, IfId(1));
        assert_eq!(t.link(l2).a_if, IfId(2));
        assert_eq!(t.link(l2).b_if, IfId(1));
        t.check_invariants().unwrap();
    }

    #[test]
    fn parallel_links_get_distinct_link_ids() {
        let mut t = AsTopology::new();
        let a = t.add_as(ia(10));
        let b = t.add_as(ia(20));
        let l1 = t.add_link(a, b, Relationship::PeerToPeer);
        let l2 = t.add_link(a, b, Relationship::PeerToPeer);
        assert_ne!(t.link_id(l1), t.link_id(l2));
        assert_eq!(t.links_between(a, b).len(), 2);
        t.check_invariants().unwrap();
    }

    #[test]
    fn relationship_queries() {
        // a provides to b; b peers with c; c provides to a (a cycle of
        // relationships is fine at graph level).
        let t = topology_from_edges(&[
            (10, 20, Relationship::AProviderOfB, 1),
            (20, 30, Relationship::PeerToPeer, 1),
            (30, 10, Relationship::AProviderOfB, 1),
        ]);
        let a = t.by_address(ia(10)).unwrap();
        let b = t.by_address(ia(20)).unwrap();
        let c = t.by_address(ia(30)).unwrap();
        assert_eq!(t.customers(a), vec![b]);
        assert_eq!(t.providers(a), vec![c]);
        assert_eq!(t.peers(b), vec![c]);
        assert_eq!(t.customers(c), vec![a]);
        assert!(t.peers(a).is_empty());
    }

    #[test]
    fn opposite_resolves_both_directions() {
        let mut t = AsTopology::new();
        let a = t.add_as(ia(10));
        let b = t.add_as(ia(20));
        let li = t.add_link(a, b, Relationship::AProviderOfB);
        let l = *t.link(li);
        assert_eq!(l.opposite(a), (b, l.a_if, l.b_if));
        assert_eq!(l.opposite(b), (a, l.b_if, l.a_if));
    }

    #[test]
    fn link_by_interface_resolves() {
        let mut t = AsTopology::new();
        let a = t.add_as(ia(10));
        let b = t.add_as(ia(20));
        let l1 = t.add_link(a, b, Relationship::PeerToPeer);
        let l2 = t.add_link(a, b, Relationship::PeerToPeer);
        assert_eq!(t.link_by_interface(a, t.link(l1).a_if), Some(l1));
        assert_eq!(t.link_by_interface(b, t.link(l2).b_if), Some(l2));
        assert_eq!(t.link_by_interface(a, IfId(99)), None);
        assert_eq!(t.link_by_interface(a, IfId::NONE), None);
    }

    #[test]
    fn core_links_need_both_ends_core() {
        let mut t = AsTopology::new();
        let a = t.add_as(ia(10));
        let b = t.add_as(ia(20));
        let c = t.add_as(ia(30));
        t.add_link(a, b, Relationship::PeerToPeer);
        t.add_link(b, c, Relationship::AProviderOfB);
        t.set_core(a, true);
        t.set_core(b, true);
        assert_eq!(t.core_links().len(), 1);
        assert_eq!(t.core_ases().count(), 2);
    }

    #[test]
    fn set_isd_reindexes() {
        let mut t = AsTopology::new();
        let a = t.add_as(ia(10));
        t.set_isd(a, Isd(7));
        assert_eq!(t.by_address(ia(10)), None);
        let new_ia = IsdAsn::new(Isd(7), Asn::from_u64(10));
        assert_eq!(t.by_address(new_ia), Some(a));
        assert_eq!(t.node(a).ia, new_ia);
    }

    #[test]
    fn link_index_ordering_is_stable_and_ascending() {
        // Fault schedules name links by LinkIndex, so parallel-link
        // enumeration must be creation-ordered and identical across runs.
        let build = || {
            let mut t = AsTopology::new();
            let a = t.add_as(ia(10));
            let b = t.add_as(ia(20));
            let c = t.add_as(ia(30));
            let l0 = t.add_link(a, b, Relationship::PeerToPeer);
            let l1 = t.add_link(a, c, Relationship::AProviderOfB);
            let l2 = t.add_link(a, b, Relationship::PeerToPeer);
            let l3 = t.add_link(a, b, Relationship::PeerToPeer);
            (t, a, b, vec![l0, l1, l2, l3])
        };
        let (t, a, b, ls) = build();
        // Indices are assigned in add_link call order.
        assert_eq!(
            ls,
            vec![LinkIndex(0), LinkIndex(1), LinkIndex(2), LinkIndex(3)]
        );
        // Parallel links come back ascending, skipping the a-c link.
        assert_eq!(t.links_between(a, b), vec![ls[0], ls[2], ls[3]]);
        // incident() is ascending too, and check_invariants asserts it.
        let inc: Vec<LinkIndex> = t.incident(a).map(|(li, _, _, _)| li).collect();
        assert_eq!(inc, ls);
        t.check_invariants().unwrap();
        // A second identical construction enumerates identically.
        let (t2, a2, b2, _) = build();
        assert_eq!(t.links_between(a, b), t2.links_between(a2, b2));
    }

    #[test]
    fn neighbors_deduplicate_parallel_links() {
        let mut t = AsTopology::new();
        let a = t.add_as(ia(10));
        let b = t.add_as(ia(20));
        t.add_link(a, b, Relationship::PeerToPeer);
        t.add_link(a, b, Relationship::PeerToPeer);
        t.add_link(a, b, Relationship::PeerToPeer);
        assert_eq!(t.neighbors(a), vec![b]);
        assert_eq!(t.node(a).link_degree(), 3);
    }
}
