//! Topology-zoo-style GraphML backend.
//!
//! Understands the subset of GraphML that public topology collections
//! (topology-zoo.org, Internet Topology Zoo derivatives) actually use:
//! `<key>` declarations mapping attribute ids to names, `<node>` /
//! `<edge>` elements, and nested `<data key="…">value</data>` payloads.
//! No external XML dependency: a small hand-rolled tag scanner keeps the
//! build offline-friendly, tolerates comments, processing instructions,
//! CRLF, and self-closing tags, and rejects documents it cannot follow
//! rather than guessing.
//!
//! **ASN mapping.** A node's ASN is its `asn` data attribute when
//! present; otherwise a fully-numeric node id is used directly; otherwise
//! the node gets the next free ASN by document order (topology-zoo ids
//! are opaque strings like `n12`). Collisions are an error.
//!
//! **Relationship inference.** Edges may carry an explicit `rel` data
//! attribute (`p2c`, `c2p`, `p2p`/`peer`, or the CAIDA numbers `-1`/`0`,
//! interpreted source-relative). Edges without one get Gao–Rexford-style
//! inference from node degree: the higher-degree endpoint is the
//! provider, with the degree tie breaking to settlement-free peering.
//! A `mult` (or `parallel`) data attribute carries parallel-link counts.

use std::collections::{BTreeMap, HashMap};

use crate::error::IngestError;
use crate::raw::{RawRel, RawTopology};

fn err(message: impl Into<String>) -> IngestError {
    IngestError::Parse {
        kind: "graphml",
        line: 0,
        message: message.into(),
    }
}

/// One scanned tag: name, attributes, and whether it opens/closes.
#[derive(Debug)]
struct Tag {
    name: String,
    attrs: HashMap<String, String>,
    closing: bool,
    self_closing: bool,
    /// Text between this tag and the next one (for `<data>` payloads).
    trailing_text: String,
}

fn unescape(s: &str) -> String {
    s.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", "\"")
        .replace("&apos;", "'")
        .replace("&amp;", "&")
}

/// Scans the document into a flat tag stream, skipping comments,
/// processing instructions, and the doctype.
fn scan(text: &str) -> Result<Vec<Tag>, IngestError> {
    let mut tags = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let Some(open) = text[i..].find('<').map(|p| i + p) else {
            break;
        };
        let rest = &text[open..];
        if rest.starts_with("<!--") {
            let end = rest
                .find("-->")
                .ok_or_else(|| err("unterminated comment"))?;
            i = open + end + 3;
            continue;
        }
        if rest.starts_with("<?") || rest.starts_with("<!") {
            let end = rest
                .find('>')
                .ok_or_else(|| err("unterminated declaration"))?;
            i = open + end + 1;
            continue;
        }
        let end = rest.find('>').ok_or_else(|| err("unterminated tag"))?;
        let inner = &rest[1..end];
        let (closing, inner) = match inner.strip_prefix('/') {
            Some(rest) => (true, rest),
            None => (false, inner),
        };
        let (self_closing, inner) = match inner.strip_suffix('/') {
            Some(rest) => (true, rest),
            None => (false, inner),
        };
        let mut parts = inner.splitn(2, char::is_whitespace);
        let name = parts.next().unwrap_or_default().to_string();
        if name.is_empty() {
            return Err(err("empty tag name"));
        }
        let attrs = parse_attrs(parts.next().unwrap_or_default())?;
        let after = open + end + 1;
        let trailing_end = text[after..]
            .find('<')
            .map(|p| after + p)
            .unwrap_or(text.len());
        tags.push(Tag {
            name,
            attrs,
            closing,
            self_closing,
            trailing_text: unescape(text[after..trailing_end].trim()),
        });
        i = after;
    }
    Ok(tags)
}

fn parse_attrs(s: &str) -> Result<HashMap<String, String>, IngestError> {
    let mut attrs = HashMap::new();
    let mut rest = s.trim();
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| err(format!("malformed attribute list near '{rest}'")))?;
        let key = rest[..eq].trim().to_string();
        let after = rest[eq + 1..].trim_start();
        let quote = after
            .chars()
            .next()
            .filter(|&q| q == '"' || q == '\'')
            .ok_or_else(|| err(format!("unquoted attribute value near '{after}'")))?;
        let close = after[1..]
            .find(quote)
            .ok_or_else(|| err("unterminated attribute value"))?;
        attrs.insert(key, unescape(&after[1..1 + close]));
        rest = after[close + 2..].trim_start();
    }
    Ok(attrs)
}

#[derive(Debug, Default)]
struct PendingEdge {
    source: String,
    target: String,
    rel: Option<RawRel>,
    /// True when the explicit rel points target→source (`c2p`).
    reversed: bool,
    mult: u32,
}

/// Parses a GraphML document into the raw edge list.
pub fn parse_graphml(text: &str) -> Result<RawTopology, IngestError> {
    let tags = scan(text)?;

    // Pass 0: <key id="d0" attr.name="rel"> declarations.
    let mut key_names: HashMap<String, String> = HashMap::new();
    for t in &tags {
        if t.name == "key" && !t.closing {
            if let (Some(id), Some(name)) = (t.attrs.get("id"), t.attrs.get("attr.name")) {
                key_names.insert(id.clone(), name.clone());
            }
        }
    }
    let resolve = |key: &str| -> String {
        key_names
            .get(key)
            .cloned()
            .unwrap_or_else(|| key.to_string())
    };

    // Pass 1: walk nodes and edges, collecting data payloads.
    let mut node_order: Vec<String> = Vec::new();
    let mut node_asn: HashMap<String, u64> = HashMap::new();
    let mut edges: Vec<PendingEdge> = Vec::new();
    #[derive(PartialEq)]
    enum In {
        Nothing,
        Node(String),
        Edge,
    }
    let mut state = In::Nothing;
    for t in &tags {
        match (t.name.as_str(), t.closing) {
            ("node", false) => {
                let id = t
                    .attrs
                    .get("id")
                    .ok_or_else(|| err("<node> without id"))?
                    .clone();
                node_order.push(id.clone());
                if !t.self_closing {
                    state = In::Node(id);
                }
            }
            ("node", true) => state = In::Nothing,
            ("edge", false) => {
                let get = |k: &str| -> Result<String, IngestError> {
                    t.attrs
                        .get(k)
                        .cloned()
                        .ok_or_else(|| err(format!("<edge> without {k}")))
                };
                edges.push(PendingEdge {
                    source: get("source")?,
                    target: get("target")?,
                    mult: 1,
                    ..PendingEdge::default()
                });
                if !t.self_closing {
                    state = In::Edge;
                }
            }
            ("edge", true) => state = In::Nothing,
            ("data", false) => {
                let key = t.attrs.get("key").map(|k| resolve(k)).unwrap_or_default();
                let value = t.trailing_text.as_str();
                match &state {
                    In::Node(id) if key == "asn" => {
                        let asn: u64 = value
                            .trim()
                            .parse()
                            .map_err(|_| err(format!("node '{id}': bad asn value '{value}'")))?;
                        node_asn.insert(id.clone(), asn);
                    }
                    In::Edge => {
                        let e = edges.last_mut().expect("inside an edge");
                        match key.as_str() {
                            "rel" | "relationship" => {
                                let (rel, reversed) = match value.trim() {
                                    "p2c" | "-1" => (RawRel::Provider, false),
                                    "c2p" => (RawRel::Provider, true),
                                    "p2p" | "peer" | "0" => (RawRel::Peer, false),
                                    other => {
                                        return Err(err(format!(
                                            "edge {}->{}: unknown rel '{other}'",
                                            e.source, e.target
                                        )))
                                    }
                                };
                                e.rel = Some(rel);
                                e.reversed = reversed;
                            }
                            "mult" | "parallel" | "multiplicity" => {
                                e.mult = value
                                    .trim()
                                    .parse()
                                    .map_err(|_| err(format!("bad multiplicity '{value}'")))?;
                            }
                            _ => {} // labels, coordinates, … — ignored
                        }
                    }
                    _ => {}
                }
            }
            _ => {}
        }
    }
    if edges.is_empty() {
        return Err(IngestError::Empty { kind: "graphml" });
    }

    // Pass 2: ASN assignment (explicit attr > numeric id > document order).
    fn assign(
        used: &mut BTreeMap<u64, String>,
        asn_of: &mut HashMap<String, u64>,
        id: &str,
        asn: u64,
    ) -> Result<(), IngestError> {
        if let Some(prev) = used.get(&asn) {
            if prev != id {
                return Err(err(format!(
                    "nodes '{prev}' and '{id}' both map to ASN {asn}"
                )));
            }
        }
        used.insert(asn, id.to_string());
        asn_of.insert(id.to_string(), asn);
        Ok(())
    }
    let mut used: BTreeMap<u64, String> = BTreeMap::new();
    let mut asn_of: HashMap<String, u64> = HashMap::new();
    for id in &node_order {
        if let Some(&asn) = node_asn.get(id) {
            assign(&mut used, &mut asn_of, id, asn)?;
        } else if let Ok(asn) = id.parse::<u64>() {
            assign(&mut used, &mut asn_of, id, asn)?;
        }
    }
    let mut next_free = 1u64;
    for id in &node_order {
        if asn_of.contains_key(id) {
            continue;
        }
        while used.contains_key(&next_free) {
            next_free += 1;
        }
        assign(&mut used, &mut asn_of, id, next_free)?;
    }

    // Pass 3: degree census for Gao–Rexford inference on unlabeled edges
    // (distinct-neighbor degree; parallel links don't inflate rank).
    let mut neighbors: HashMap<&str, std::collections::BTreeSet<&str>> = HashMap::new();
    for e in &edges {
        neighbors.entry(&e.source).or_default().insert(&e.target);
        neighbors.entry(&e.target).or_default().insert(&e.source);
    }
    let degree = |id: &str| neighbors.get(id).map_or(0, |n| n.len());

    let mut raw = RawTopology::default();
    for e in &edges {
        let sa = *asn_of
            .get(&e.source)
            .ok_or_else(|| err(format!("edge references unknown node '{}'", e.source)))?;
        let ta = *asn_of
            .get(&e.target)
            .ok_or_else(|| err(format!("edge references unknown node '{}'", e.target)))?;
        match e.rel {
            Some(RawRel::Provider) if e.reversed => raw.push(ta, sa, RawRel::Provider, e.mult),
            Some(rel) => raw.push(sa, ta, rel, e.mult),
            None => {
                // Gao–Rexford degree inference, ties break to peering.
                let (ds, dt) = (degree(&e.source), degree(&e.target));
                match ds.cmp(&dt) {
                    std::cmp::Ordering::Greater => raw.push(sa, ta, RawRel::Provider, e.mult),
                    std::cmp::Ordering::Less => raw.push(ta, sa, RawRel::Provider, e.mult),
                    std::cmp::Ordering::Equal => raw.push(sa, ta, RawRel::Peer, e.mult),
                }
            }
        }
    }
    Ok(raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::normalize;

    const LABELED: &str = r#"<?xml version="1.0" encoding="UTF-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key id="d0" for="node" attr.name="asn" attr.type="long"/>
  <key id="d1" for="edge" attr.name="rel" attr.type="string"/>
  <key id="d2" for="edge" attr.name="mult" attr.type="int"/>
  <graph edgedefault="undirected">
    <node id="a"><data key="d0">10</data></node>
    <node id="b"><data key="d0">20</data></node>
    <node id="c"><data key="d0">30</data></node>
    <edge source="a" target="b"><data key="d1">p2c</data><data key="d2">2</data></edge>
    <edge source="c" target="b"><data key="d1">c2p</data></edge>
    <edge source="a" target="c"><data key="d1">p2p</data></edge>
  </graph>
</graphml>
"#;

    #[test]
    fn parses_labeled_document() {
        let raw = parse_graphml(LABELED).unwrap();
        assert_eq!(raw.edges.len(), 3);
        // a(10) provider of b(20), multiplicity 2.
        assert_eq!(raw.edges[0].a, 10);
        assert_eq!(raw.edges[0].b, 20);
        assert_eq!(raw.edges[0].rel, RawRel::Provider);
        assert_eq!(raw.edges[0].mult, 2);
        // c2p: b(20) is the provider of c(30).
        assert_eq!(raw.edges[1].a, 20);
        assert_eq!(raw.edges[1].b, 30);
        assert_eq!(raw.edges[1].rel, RawRel::Provider);
        // peer edge.
        assert_eq!(raw.edges[2].rel, RawRel::Peer);
    }

    #[test]
    fn infers_relationships_from_degree_when_unlabeled() {
        // Star: hub h has degree 3, leaves 1 — hub becomes the provider.
        // Leaves x and y also link to each other: equal degree → peer.
        let doc = r#"<graphml><graph>
          <node id="100"/><node id="101"/><node id="102"/><node id="103"/>
          <edge source="100" target="101"/>
          <edge source="100" target="102"/>
          <edge source="103" target="100"/>
          <edge source="101" target="102"/>
        </graph></graphml>"#;
        let raw = parse_graphml(doc).unwrap();
        assert_eq!(
            raw.edges[0],
            crate::raw::RawEdge {
                a: 100,
                b: 101,
                rel: RawRel::Provider,
                mult: 1
            }
        );
        // Edge written leaf→hub still orients the hub as provider.
        assert_eq!(
            raw.edges[2],
            crate::raw::RawEdge {
                a: 100,
                b: 103,
                rel: RawRel::Provider,
                mult: 1
            }
        );
        // 101 and 102 both have degree 2 → peer.
        assert_eq!(raw.edges[3].rel, RawRel::Peer);
    }

    #[test]
    fn opaque_node_ids_get_document_order_asns() {
        let doc = r#"<graphml><graph>
          <node id="n0"/><node id="n1"/>
          <edge source="n0" target="n1"/>
        </graph></graphml>"#;
        let raw = parse_graphml(doc).unwrap();
        assert_eq!((raw.edges[0].a, raw.edges[0].b), (1, 2));
    }

    #[test]
    fn rejects_asn_collisions_and_unknown_nodes() {
        let dup = r#"<graphml><graph>
          <node id="a"><data key="asn">7</data></node>
          <node id="b"><data key="asn">7</data></node>
          <edge source="a" target="b"/>
        </graph></graphml>"#;
        assert!(parse_graphml(dup).is_err());
        let dangling = r#"<graphml><graph>
          <node id="a"/><edge source="a" target="ghost"/>
        </graph></graphml>"#;
        assert!(parse_graphml(dangling).is_err());
    }

    #[test]
    fn empty_graph_is_an_error() {
        assert!(matches!(
            parse_graphml("<graphml><graph><node id=\"a\"/></graph></graphml>"),
            Err(IngestError::Empty { .. })
        ));
    }

    #[test]
    fn asn_past_48_bits_is_an_error_not_a_panic() {
        let doc = r#"<graphml><graph>
    <node id="a"><data key="asn">1</data></node>
    <node id="b"><data key="asn">281474976710656</data></node>
    <edge source="a" target="b"/>
  </graph></graphml>"#;
        let c = normalize(&parse_graphml(doc).unwrap()).unwrap();
        assert_eq!(
            c.to_topology().unwrap_err(),
            IngestError::AsnOutOfRange { asn: 1 << 48 }
        );
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// Nodes every wrapped document declares: ASNs 1 and 2, the
        /// largest 48-bit ASN, and one named by its numeric id.
        const NODES: &str = r#"<node id="a"><data key="asn">1</data></node>
<node id="b"><data key="asn">2</data></node>
<node id="c"><data key="asn">281474976710655</data></node>
<node id="7"/>"#;

        /// What a document is assembled from: edges among those nodes
        /// with multiplicities past the `u16` interface ids (70 000 at
        /// once, 40 000 twice at one AS), nodes past the 48-bit bound,
        /// edges to themselves and to undeclared nodes, and fragments that
        /// break the markup.
        #[rustfmt::skip]
        const PIECES: [&str; 22] = [
            r#"<edge source="a" target="b"/>"#,
            r#"<edge source="a" target="c"><data key="rel">p2c</data></edge>"#,
            r#"<edge source="b" target="c"><data key="rel">c2p</data><data key="mult">70000</data></edge>"#,
            r#"<edge source="a" target="b"><data key="mult">40000</data></edge>"#,
            r#"<edge source="7" target="a"><data key="rel">p2p</data></edge>"#,
            r#"<edge source="c" target="d"/>"#,
            r#"<edge source="e" target="b"><data key="rel">-1</data></edge>"#,
            r#"<edge source="a" target="a"/>"#,
            r#"<node id="d"><data key="asn">281474976710656</data></node>"#,
            r#"<node id="e"/>"#,
            r#"<node id="e"><data key="asn">99999999999999999999</data></node>"#,
            r#"<node id="281474976710656"/>"#,
            r#"<key id="d0" for="node" attr.name="asn"/>"#,
            r#"<data key="rel">bogus</data>"#,
            r#"<data key="d0">3</data>"#,
            "<", "</node>", "</edge>", "&amp;", "é", "<!-- c -->", "<?xml?>",
        ];

        proptest! {
            #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

            /// Any document of such pieces, after the nodes inside a
            /// `<graph>` element or bare, parses, normalizes and
            /// materializes into a topology that holds the multigraph
            /// invariants, or fails with an `IngestError` on the way; it
            /// never panics.
            #[test]
            fn prop_graphml_never_panics(
                pieces in proptest::collection::vec(0..PIECES.len(), 0..8),
                wrapped in any::<bool>(),
            ) {
                let body: String = pieces.iter().map(|&p| PIECES[p]).collect();
                let doc = match wrapped {
                    true => format!("<graphml><graph>{NODES}{body}</graph></graphml>"),
                    false => body,
                };
                let built = parse_graphml(&doc)
                    .and_then(|raw| normalize(&raw))
                    .and_then(|c| c.to_topology());
                if let Ok(topo) = built {
                    prop_assert_eq!(topo.check_invariants(), Ok(()));
                }
            }
        }
    }
}
