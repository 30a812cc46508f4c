//! BGPStream-flavoured RIB / AS-path dump backend with valley-free
//! relationship inference.
//!
//! Accepts the text shapes BGPStream-style tooling emits: one record per
//! line, `|`-separated metadata fields with the AS path as one
//! space-separated field, e.g.
//!
//! ```text
//! R|rrc00|1609459200|203.0.113.0/24|64501 64500 64499
//! ```
//!
//! Parsing is deliberately positional-agnostic: the AS path is the
//! *last* field that is a whitespace-separated run of two or more
//! integers, so `bgpdump -m` style lines and plain one-path-per-line
//! dumps both work. Comment (`#`) and blank lines are skipped; CRLF is
//! tolerated; AS-prepending is collapsed; paths containing AS-sets
//! (`{…}`) are skipped with a counter (their edge semantics are
//! ambiguous).
//!
//! **Inference** (Gao-style, two passes): first a degree census over the
//! observed adjacency; then per path the *top* is the first
//! highest-degree AS, edges before it vote "right side provides",
//! edges after it vote "left side provides". A pair voted in both
//! directions across the dump is settlement-free peering — exactly how
//! tier-1 meshes show up in real tables (each side announces the other's
//! customers but no transit).

use std::collections::{BTreeMap, BTreeSet};

use crate::error::IngestError;
use crate::raw::{RawRel, RawTopology};

/// Extracts the AS path from one record line, if any.
fn extract_path(line: &str) -> Option<Vec<u64>> {
    let candidate = |field: &str| -> Option<Vec<u64>> {
        let tokens: Vec<&str> = field.split_whitespace().collect();
        if tokens.len() < 2 {
            return None;
        }
        tokens.iter().map(|t| t.parse::<u64>().ok()).collect()
    };
    if line.contains('|') {
        line.rsplit('|').find_map(|f| candidate(f.trim()))
    } else {
        candidate(line)
    }
}

/// Parses a RIB dump into the raw edge list via valley-free inference.
pub fn parse_rib(text: &str) -> Result<RawTopology, IngestError> {
    let mut paths: Vec<Vec<u64>> = Vec::new();
    let mut skipped_sets = 0usize;
    for raw_line in text.lines() {
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.contains('{') {
            skipped_sets += 1;
            continue;
        }
        let Some(path) = extract_path(line) else {
            continue; // metadata-only line (e.g. a peer-table header)
        };
        // Collapse AS-prepending.
        let mut collapsed: Vec<u64> = Vec::with_capacity(path.len());
        for asn in path {
            if collapsed.last() != Some(&asn) {
                collapsed.push(asn);
            }
        }
        if collapsed.len() >= 2 {
            paths.push(collapsed);
        }
    }
    let _ = skipped_sets;
    if paths.is_empty() {
        return Err(IngestError::Empty { kind: "rib" });
    }

    // Pass 1: degree census (distinct neighbors over all observed edges).
    let mut neighbors: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    for p in &paths {
        for w in p.windows(2) {
            neighbors.entry(w[0]).or_default().insert(w[1]);
            neighbors.entry(w[1]).or_default().insert(w[0]);
        }
    }
    let degree = |asn: u64| neighbors.get(&asn).map_or(0, |n| n.len());

    // Pass 2: valley-free votes. votes[(p, c)] counts "p provides to c".
    let mut votes: BTreeMap<(u64, u64), u64> = BTreeMap::new();
    for p in &paths {
        let top = p
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| {
                degree(**a).cmp(&degree(**b)).then(ib.cmp(ia)) // first occurrence wins the tie
            })
            .map(|(i, _)| i)
            .expect("path non-empty");
        for (i, w) in p.windows(2).enumerate() {
            let (provider, customer) = if i < top { (w[1], w[0]) } else { (w[0], w[1]) };
            *votes.entry((provider, customer)).or_insert(0) += 1;
        }
    }

    // Resolve: both directions voted → peering; else provider→customer.
    let mut raw = RawTopology::default();
    let mut done: BTreeSet<(u64, u64)> = BTreeSet::new();
    for &(p, c) in votes.keys() {
        let key = (p.min(c), p.max(c));
        if !done.insert(key) {
            continue;
        }
        if votes.contains_key(&(c, p)) {
            raw.push(key.0, key.1, RawRel::Peer, 1);
        } else {
            raw.push(p, c, RawRel::Provider, 1);
        }
    }
    Ok(raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::normalize;

    #[test]
    fn extracts_path_from_bgpstream_fields() {
        assert_eq!(
            extract_path("R|rrc00|1609459200|10.0.0.0/24|30 20 10"),
            Some(vec![30, 20, 10])
        );
        assert_eq!(extract_path("30 20 10"), Some(vec![30, 20, 10]));
        assert_eq!(extract_path("R|rrc00|header"), None);
    }

    #[test]
    fn infers_hierarchy_from_paths() {
        // 1 is the top provider (degree 3): 1-2, 1-3, 1-4; 2-5.
        let doc = "\
5 2 1\n\
2 1 3\n\
2 1 4\n";
        let raw = parse_rib(doc).unwrap();
        let find = |a: u64, b: u64| raw.edges.iter().find(|e| e.a == a && e.b == b).cloned();
        // Uphill votes: 1 provides to 2, 3, 4; 2 provides to 5.
        assert_eq!(find(1, 2).unwrap().rel, RawRel::Provider);
        assert_eq!(find(1, 3).unwrap().rel, RawRel::Provider);
        assert_eq!(find(1, 4).unwrap().rel, RawRel::Provider);
        assert_eq!(find(2, 5).unwrap().rel, RawRel::Provider);
    }

    #[test]
    fn opposing_votes_become_peering() {
        // Two tier-1s (equal degree 3 via stubs) announcing each other's
        // customers: votes go both ways on (1, 2).
        let doc = "\
11 1 2 21\n\
21 2 1 11\n\
12 1\n\
22 2\n";
        let raw = parse_rib(doc).unwrap();
        let peer = raw
            .edges
            .iter()
            .find(|e| (e.a, e.b) == (1, 2))
            .expect("1-2 edge");
        assert_eq!(peer.rel, RawRel::Peer);
        // Stub edges stay provider→customer.
        assert!(raw
            .edges
            .iter()
            .any(|e| e.a == 1 && e.b == 11 && e.rel == RawRel::Provider));
    }

    #[test]
    fn collapses_prepending_and_skips_sets() {
        let raw = parse_rib("3 2 2 2 1\n# comment\n\n4 {5 6} 1\n").unwrap();
        // The prepended path contributes the 2-3 and 1-2 edges only; the
        // AS-set line is skipped entirely.
        assert_eq!(raw.edges.len(), 2);
        assert!(raw.edges.iter().all(|e| e.a != 4));
    }

    #[test]
    fn pure_comment_dump_is_empty() {
        assert!(matches!(
            parse_rib("# nothing here\n"),
            Err(IngestError::Empty { .. })
        ));
    }

    #[test]
    fn asn_past_48_bits_is_an_error_not_a_panic() {
        let c = normalize(&parse_rib("1 281474976710656\n").unwrap()).unwrap();
        assert_eq!(
            c.to_topology().unwrap_err(),
            IngestError::AsnOutOfRange { asn: 1 << 48 }
        );
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// What a line's tokens are drawn from: ASNs (mostly small, so
        /// that paths meet, and around the 48-bit bound), an AS set, the
        /// separators of a BGPStream record, a comment and junk.
        #[rustfmt::skip]
        const TOKENS: [&str; 16] = [
            "1", "2", "3", "4", "1", "2", "281474976710655", "281474976710656",
            "99999999999999999999", "{4,5}", "|", "R|rrc00|1609459200|10.0.0.0/24|", "#", "-1",
            "x", "\t",
        ];

        proptest! {
            #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

            /// Any dump of such lines parses, normalizes and materializes
            /// into a topology that holds the multigraph invariants, or
            /// fails with an `IngestError` on the way; it never panics.
            #[test]
            fn prop_rib_never_panics(
                lines in proptest::collection::vec(
                    proptest::collection::vec(0..TOKENS.len(), 0..6),
                    0..8,
                ),
            ) {
                let doc: String = lines
                    .iter()
                    .map(|line| line.iter().map(|&t| TOKENS[t]).collect::<Vec<_>>().join(" ") + "\n")
                    .collect();
                let built = parse_rib(&doc)
                    .and_then(|raw| normalize(&raw))
                    .and_then(|c| c.to_topology());
                if let Ok(topo) = built {
                    prop_assert_eq!(topo.check_invariants(), Ok(()));
                }
            }
        }
    }
}
