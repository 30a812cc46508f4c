//! CAIDA `as-rel` backend: the existing `scion-topology` parser adapted
//! onto the shared raw edge list.
//!
//! Parsing itself stays in [`scion_topology::caida`] (it is also used
//! directly by tests and the serializer); this module converts its output
//! into the shared raw edge list so the as-rel path goes through the same
//! normalization pipeline as every other backend.

use std::collections::BTreeMap;

use scion_topology::caida::{parse_as_rel, ParseError};
use scion_topology::{AsTopology, Relationship};

use crate::error::IngestError;
use crate::raw::{RawRel, RawTopology};

/// Parses an `as-rel` document into the raw edge list (pre-normalization).
pub fn parse_as_rel_raw(text: &str) -> Result<RawTopology, IngestError> {
    let topo = parse_as_rel(text).map_err(convert_error)?;
    Ok(topology_to_raw(&topo))
}

fn convert_error(e: ParseError) -> IngestError {
    let line = match &e {
        ParseError::BadFieldCount { line }
        | ParseError::BadField { line, .. }
        | ParseError::BadRelationship { line, .. }
        | ParseError::SelfLoop { line }
        | ParseError::DuplicatePair { line }
        | ParseError::TooManyLinks { line } => *line,
    };
    IngestError::Parse {
        kind: "as-rel",
        line,
        message: e.to_string(),
    }
}

/// Flattens an [`AsTopology`] into raw edges, grouping parallel links
/// into per-pair multiplicities. Also the adapter for feeding an
/// already-built topology (e.g. the synthetic generator's) through the
/// canonicalization pipeline.
pub fn topology_to_raw(topo: &AsTopology) -> RawTopology {
    let mut groups: BTreeMap<(u64, u64, RawRel), u32> = BTreeMap::new();
    for li in topo.link_indices() {
        let l = topo.link(li);
        let a = topo.node(l.a).ia.asn.value();
        let b = topo.node(l.b).ia.asn.value();
        let rel = match l.rel {
            Relationship::AProviderOfB => RawRel::Provider,
            Relationship::PeerToPeer => RawRel::Peer,
        };
        *groups.entry((a, b, rel)).or_insert(0) += 1;
    }
    let mut raw = RawTopology::default();
    for ((a, b, rel), mult) in groups {
        raw.push(a, b, rel, mult);
    }
    raw
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::normalize;

    #[test]
    fn roundtrips_through_raw_and_normalize() {
        let raw = parse_as_rel_raw("# c\n1|2|-1|3\n2|3|0\n").unwrap();
        let c = normalize(&raw).unwrap();
        assert_eq!(c.num_ases(), 3);
        assert_eq!(c.num_links(), 4);
        let t = c.to_topology().unwrap();
        t.check_invariants().unwrap();
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse_as_rel_raw("1|2|-1\n1|2\n").unwrap_err();
        assert!(matches!(
            err,
            IngestError::Parse {
                kind: "as-rel",
                line: 2,
                ..
            }
        ));
    }

    #[test]
    fn crlf_document_parses() {
        let raw = parse_as_rel_raw("# c\r\n1|2|-1\r\n\r\n2|3|0\r\n").unwrap();
        assert_eq!(raw.edges.len(), 2);
    }

    #[test]
    fn too_many_links_carries_its_line_number() {
        let err = parse_as_rel_raw("# c\n1|2|-1|70000\n").unwrap_err();
        assert!(matches!(
            err,
            IngestError::Parse {
                kind: "as-rel",
                line: 2,
                ..
            }
        ));
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// What a line's fields are drawn from: `[0-9|#-]` and whitespace,
        /// mostly valid so that documents get past their first lines, with
        /// ASNs around the 48-bit bound, multiplicities that exhaust the
        /// `u16` interface ids (70 000 at once, 40 000 twice at one AS), a
        /// field holding a `|`, and a leading `#` that makes a comment.
        #[rustfmt::skip]
        const ASNS: [&str; 14] = [
            "1", "2", "3", " 3 ", "281474976710655", "1", "2", "3", " 3 ", "281474976710655",
            "281474976710656", "99999999999999999999", "#", "1-2",
        ];
        const RELS: [&str; 6] = ["-1", "0", "-1", "0", "7", ""];
        const MULTS: [&str; 8] = ["", "", "2", "40000", "70000", "0", "-", "1|2"];
        const ENDS: [&str; 4] = ["\n", "\r\n", " \t\n", "\n\n"];

        proptest! {
            #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

            /// Any document of such lines parses or fails with the number of
            /// one of its lines — both entry points, the same line — and
            /// never panics.
            #[test]
            fn prop_as_rel_never_panics(
                lines in proptest::collection::vec(
                    (0..ASNS.len(), 0..ASNS.len(), 0..RELS.len(), 0..MULTS.len(), 0..ENDS.len()),
                    0..8,
                ),
            ) {
                let doc: String = lines
                    .iter()
                    .map(|&(a, b, rel, mult, end)| {
                        let line = [ASNS[a], ASNS[b], RELS[rel]].join("|");
                        match MULTS[mult] {
                            "" => line + ENDS[end],
                            mult => line + "|" + mult + ENDS[end],
                        }
                    })
                    .collect();
                let lines = doc.lines().count();
                match (parse_as_rel(&doc), parse_as_rel_raw(&doc)) {
                    (Ok(_), Ok(_)) => {}
                    (Err(e), Err(err @ IngestError::Parse { kind: "as-rel", line, .. })) => {
                        prop_assert!((1..=lines).contains(&line), "{} of {} lines", line, lines);
                        prop_assert_eq!(err.to_string(), convert_error(e).to_string());
                    }
                    (a, b) => prop_assert!(false, "{:?} against {:?}", a.err(), b.err()),
                }
            }
        }
    }
}
