//! Cross-backend ingestion determinism: the same 16-AS graph expressed as
//! a CAIDA `as-rel` dump, a topology-zoo GraphML document, and a
//! BGPStream-style RIB dump must converge — through three different
//! parsers and (for the RIB) valley-free relationship *inference* — on
//! byte-identical canonical exports with equal fingerprints. The fixtures
//! live in `tests/data/equiv.*`; see each file's header for how it maps
//! onto the shared graph.

use std::path::PathBuf;

use scion_core::experiments::{table1, RunCtx};
use scion_core::ingest::{canonical_json, ingest_spec, CanonicalTopology, TopologyStats};
use scion_core::scale::ExperimentScale;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/data")
        .join(name);
    path.display().to_string()
}

fn load(kind: &str, name: &str) -> CanonicalTopology {
    ingest_spec(&format!("{kind}:{}", fixture(name)), None)
        .unwrap_or_else(|e| panic!("{kind}:{name}: {e}"))
        .topology
}

#[test]
fn three_formats_yield_byte_identical_canonical_exports() {
    let asrel = load("as-rel", "equiv.as-rel");
    let graphml = load("graphml", "equiv.graphml");
    let rib = load("rib", "equiv.rib");

    // The graph itself: 16 ASes, 16 single links.
    assert_eq!(asrel.num_ases(), 16);
    assert_eq!(asrel.num_links(), 16);

    // Equal fingerprints and byte-identical canonical exports, despite the
    // RIB backend *inferring* every relationship from path shapes.
    assert_eq!(asrel.fingerprint(), graphml.fingerprint());
    assert_eq!(asrel.fingerprint(), rib.fingerprint());
    assert_eq!(canonical_json(&asrel), canonical_json(&graphml));
    assert_eq!(canonical_json(&asrel), canonical_json(&rib));
    assert_eq!(asrel.canonical_text(), rib.canonical_text());

    // The materialized topology holds the multigraph invariants.
    let topo = asrel.to_topology();
    topo.check_invariants().unwrap();
    assert_eq!(topo.num_ases(), 16);
    assert_eq!(topo.num_links(), 16);
}

#[test]
fn repeated_runs_are_byte_identical() {
    for kind_name in [
        ("as-rel", "equiv.as-rel"),
        ("graphml", "equiv.graphml"),
        ("rib", "equiv.rib"),
    ] {
        let a = load(kind_name.0, kind_name.1);
        let b = load(kind_name.0, kind_name.1);
        assert_eq!(canonical_json(&a), canonical_json(&b), "{}", kind_name.0);
        assert_eq!(a.fingerprint(), b.fingerprint(), "{}", kind_name.0);
    }
}

#[test]
fn ixp_overlay_adds_parallel_links_identically_across_backends() {
    let ixp = PathBuf::from(fixture("equiv.ixp"));
    let mut fingerprints = Vec::new();
    for kind_name in [
        ("as-rel", "equiv.as-rel"),
        ("graphml", "equiv.graphml"),
        ("rib", "equiv.rib"),
    ] {
        let spec = format!("{}:{}", kind_name.0, fixture(kind_name.1));
        let ingested = ingest_spec(&spec, Some(&ixp)).unwrap();
        let report = ingested.ixp.expect("overlay applied");
        // Members 1, 2, 11: pairs (1,2) and (1,11) are adjacent and gain
        // one parallel link each; (2,11) is not adjacent; 9999 is unknown.
        assert_eq!(report.links_added, 2, "{}", kind_name.0);
        assert_eq!(report.pairs_not_adjacent, 1);
        assert_eq!(report.members_unknown, 1);
        assert_eq!(ingested.topology.num_links(), 18);
        assert_eq!(ingested.topology.num_ases(), 16, "no adjacency invented");
        ingested.topology.to_topology().check_invariants().unwrap();
        fingerprints.push(ingested.topology.fingerprint());
    }
    fingerprints.dedup();
    assert_eq!(fingerprints.len(), 1, "overlaid fingerprints diverge");
    // And the overlay changes the graph relative to the plain load.
    assert_ne!(
        fingerprints[0],
        load("as-rel", "equiv.as-rel").fingerprint()
    );
}

#[test]
fn stats_describe_the_equiv_graph() {
    let s = TopologyStats::compute(&load("rib", "equiv.rib"));
    assert_eq!(s.ases, 16);
    assert_eq!(s.links, 16);
    assert_eq!(s.p2c_pairs, 14);
    assert_eq!(s.p2p_pairs, 2);
    assert_eq!(s.parallel_extra_links, 0);
    assert_eq!(s.degree.min, 1);
    assert_eq!(s.degree.max, 5);
}

#[test]
fn ingested_topology_drives_a_full_table1_run() {
    let ingested = ingest_spec(&format!("graphml:{}", fixture("equiv.graphml")), None).unwrap();
    let mut ctx = RunCtx {
        source: Some(ingested),
        ..RunCtx::new(ExperimentScale::Tiny)
    };
    let world = ctx.world();
    // Clamped to the fixture's actual size.
    assert_eq!(world.params.num_ases, 16);
    assert!(world.core.num_ases() <= 16);
    assert!(world.core.core_ases().count() > 0);

    let r = table1::run(&mut ctx);
    assert!(!r.rows.is_empty());
    let beaconing = r
        .rows
        .iter()
        .find(|row| row.component == "Core Beaconing")
        .expect("core beaconing row");
    assert!(beaconing.messages > 0, "{r:?}");
}
