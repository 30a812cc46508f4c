//! The one file that names symbols of the repository under test.
//!
//! Every other file of the benchmark imports the program through here, so
//! when ROADMAP item 2 collapses the suffix twins (`run_core_beaconing*`,
//! `forward{,_instrumented}`, `lookup_cached{,_telemetry}`) the benchmark
//! is repaired by editing this file alone. `README.md` lists the symbols.

pub use scion_core::beaconing::score::LinkHistory;
pub use scion_core::beaconing::server::{egress_refs, EgressRef};
pub use scion_core::beaconing::{
    run_core_beaconing_parallel, run_intra_isd_beaconing_parallel, Algorithm, BeaconServer,
    BeaconStore, BeaconingConfig, BeaconingOutcome, DiversityParams, StoredBeacon,
};
pub use scion_core::crypto::sim::{verify as verify_signature, SignDomain};
pub use scion_core::crypto::TrustStore;
pub use scion_core::dataplane::{forward_instrumented, ForwardAction, Packet};
pub use scion_core::endhost::{ScionDaemon, SegmentSet};
pub use scion_core::experiments::fig6::sample_pairs;
pub use scion_core::experiments::World;
pub use scion_core::pathserver::revocation::segment_uses_link;
pub use scion_core::pathserver::{LookupResult, PathServer, ZipfDestinations};
pub use scion_core::proto::pcb::forwarding_key;
pub use scion_core::proto::{combine_paths, EndToEndPath, PathSegment, Pcb, SegmentType};
pub use scion_core::scale::ScaleParams;
pub use scion_core::simulator::{Engine, WorkerPool};
pub use scion_core::telemetry::{
    ids, phase, Label, Profiler, Telemetry, TelemetryConfig, TraceEvent,
};
pub use scion_core::topology::{
    generate_internet, prune_to_top_degree, AsIndex, AsTopology, GeneratorConfig, LinkIndex,
};
pub use scion_core::types::{Duration, IfId, IsdAsn, LinkId, SimTime};

/// Trust material for every AS of `topo`, valid until `horizon`.
pub fn bootstrap_trust(topo: &AsTopology, horizon: SimTime) -> TrustStore {
    TrustStore::bootstrap(
        topo.as_indices()
            .map(|i| (topo.node(i).ia, topo.node(i).core)),
        horizon,
    )
}
