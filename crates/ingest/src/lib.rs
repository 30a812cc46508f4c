//! # scion-ingest — multi-backend topology ingestion
//!
//! Real deployments don't get their AS graph from one blessed file
//! format: CAIDA publishes `as-rel` relationship dumps, Topology Zoo
//! ships GraphML, and route collectors emit RIB/AS-path tables. This
//! crate reads all of them through one [`SourceSpec::load`], which picks
//! the parser by the spec's kind ([`asrel`], [`graphml`], [`rib`]):
//!
//! ```text
//!   as-rel:  parse_as_rel_raw ─┐
//!   graphml: parse_graphml ────├─ RawTopology → normalize() → CanonicalTopology
//!   rib:     parse_rib ────────┘                                   │
//!                                                IxpOverlay::apply ┘ (optional enrichment)
//! ```
//!
//! Every backend parses into the same [`raw::RawTopology`] edge list and
//! goes through the same [`normalize()`] pipeline, so *equivalent inputs in
//! different formats converge on byte-identical canonical exports* with
//! equal fingerprints — the property `tests/ingest_determinism.rs` locks
//! in. The canonical topology then materializes as a
//! [`scion_topology::AsTopology`] and flows into the existing ISD
//! assignment / core selection, exactly like the synthetic generator's
//! output. Materializing ([`CanonicalTopology::to_topology`]) is the one
//! boundary every backend and the overlay cross: what the multigraph
//! cannot hold — an ASN past 48 bits, more links at an AS than it has
//! interface ids — is an [`IngestError`] there, never a panic.
//!
//! Sources are named on the command line as `kind:path` specs
//! (`as-rel:dump.txt`, `graphml:zoo.graphml`, `rib:table.txt`); see
//! [`SourceSpec`].

pub mod asrel;
pub mod error;
pub mod export;
pub mod graphml;
pub mod ixp;
pub mod normalize;
pub mod raw;
pub mod rib;

use std::path::{Path, PathBuf};

use scion_topology::AsTopology;

use asrel::parse_as_rel_raw;
use graphml::parse_graphml;
use rib::parse_rib;

pub use error::IngestError;
pub use export::{canonical_json, DegreeQuantiles, TopologyStats};
pub use ixp::{IxpApplyReport, IxpOverlay};
pub use normalize::{normalize, CanonicalEdge, CanonicalTopology, NormalizeReport};
pub use raw::{RawEdge, RawRel, RawTopology};

/// Where a topology came from, for reproducibility records.
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize)]
pub struct Provenance {
    /// Backend kind: `"as-rel"`, `"graphml"`, or `"rib"`.
    pub kind: &'static str,
    /// The concrete origin (file path).
    pub origin: String,
}

/// The backend kinds a [`SourceSpec`] can name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SourceKind {
    AsRel,
    Graphml,
    Rib,
}

impl SourceKind {
    /// The canonical spec prefix for this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            SourceKind::AsRel => "as-rel",
            SourceKind::Graphml => "graphml",
            SourceKind::Rib => "rib",
        }
    }
}

/// A parsed `kind:path` source specification, e.g. `graphml:zoo.graphml`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SourceSpec {
    pub kind: SourceKind,
    pub path: PathBuf,
}

impl SourceSpec {
    /// Parses a `kind:path` spec. Accepted kind aliases: `as-rel`/`asrel`/
    /// `caida`, `graphml`/`zoo`, `rib`/`bgpstream`/`paths`.
    pub fn parse(spec: &str) -> Result<SourceSpec, IngestError> {
        let bad = |message: &str| IngestError::BadSpec {
            spec: spec.to_string(),
            message: message.to_string(),
        };
        let (kind_str, path) = spec
            .split_once(':')
            .ok_or_else(|| bad("expected kind:path, e.g. as-rel:topo.txt"))?;
        let kind = match kind_str.trim().to_ascii_lowercase().as_str() {
            "as-rel" | "asrel" | "caida" => SourceKind::AsRel,
            "graphml" | "zoo" => SourceKind::Graphml,
            "rib" | "bgpstream" | "paths" => SourceKind::Rib,
            _ => return Err(bad("unknown kind (want as-rel, graphml, or rib)")),
        };
        let path = path.trim();
        if path.is_empty() {
            return Err(bad("empty path"));
        }
        Ok(SourceSpec {
            kind,
            path: PathBuf::from(path),
        })
    }

    /// Reads the file this spec names, parses it with its kind's parser
    /// and normalizes it: the canonical topology every consumer uses.
    pub fn load(&self) -> Result<CanonicalTopology, IngestError> {
        let text =
            std::fs::read_to_string(&self.path).map_err(|e| IngestError::io(&self.path, e))?;
        let raw = match self.kind {
            SourceKind::AsRel => parse_as_rel_raw(&text)?,
            SourceKind::Graphml => parse_graphml(&text)?,
            SourceKind::Rib => parse_rib(&text)?,
        };
        normalize(&raw)
    }
}

/// The full result of one ingestion run.
#[derive(Clone, Debug)]
pub struct Ingested {
    /// Where the topology came from.
    pub provenance: Provenance,
    /// The normalized topology (IXP-enriched if an overlay was given).
    pub topology: CanonicalTopology,
    /// `topology` materialized as the multigraph experiments run on.
    pub internet: AsTopology,
    /// Overlay application report, when an overlay was applied.
    pub ixp: Option<IxpApplyReport>,
}

/// One-call ingestion: parse a `kind:path` spec, load and normalize the
/// source, optionally enrich it with an IXP overlay document, and
/// materialize the result — every failure on the way an [`IngestError`].
pub fn ingest_spec(spec: &str, ixp: Option<&Path>) -> Result<Ingested, IngestError> {
    let spec = SourceSpec::parse(spec)?;
    let provenance = Provenance {
        kind: spec.kind.as_str(),
        origin: spec.path.display().to_string(),
    };
    let mut topology = spec.load()?;
    let ixp = match ixp {
        Some(path) => Some(IxpOverlay::from_path(path)?.apply(&mut topology)),
        None => None,
    };
    let internet = topology.to_topology()?;
    Ok(Ingested {
        provenance,
        topology,
        internet,
        ixp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing_accepts_aliases() {
        for (s, kind) in [
            ("as-rel:x", SourceKind::AsRel),
            ("caida:x", SourceKind::AsRel),
            ("graphml:x", SourceKind::Graphml),
            ("zoo:x", SourceKind::Graphml),
            ("rib:x", SourceKind::Rib),
            ("bgpstream:x", SourceKind::Rib),
            ("RIB:x", SourceKind::Rib),
        ] {
            let spec = SourceSpec::parse(s).unwrap();
            assert_eq!(spec.kind, kind, "{s}");
            assert_eq!(spec.path, PathBuf::from("x"));
        }
        // Windows-style second colon stays in the path.
        let spec = SourceSpec::parse("rib:C:/dumps/table.txt").unwrap();
        assert_eq!(spec.path, PathBuf::from("C:/dumps/table.txt"));
    }

    #[test]
    fn spec_parsing_rejects_garbage() {
        assert!(matches!(
            SourceSpec::parse("no-colon"),
            Err(IngestError::BadSpec { .. })
        ));
        assert!(matches!(
            SourceSpec::parse("ftp:x"),
            Err(IngestError::BadSpec { .. })
        ));
        assert!(matches!(
            SourceSpec::parse("rib:"),
            Err(IngestError::BadSpec { .. })
        ));
    }

    #[test]
    fn ingest_spec_reports_missing_files() {
        let err = ingest_spec("as-rel:/nonexistent/x.txt", None).unwrap_err();
        assert!(matches!(err, IngestError::Io { .. }));
    }
}
