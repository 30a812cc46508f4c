//! # scion-mp-routing
//!
//! A from-scratch Rust reproduction of *"Deployment and Scalability of an
//! Inter-Domain Multi-Path Routing Infrastructure"* (CoNEXT '21): the SCION
//! control plane, the baseline and **path-diversity-based** path
//! construction algorithms, the BGP/BGPsec comparison substrate, and the
//! full evaluation pipeline.
//!
//! This crate is the public facade: it re-exports every subsystem and
//! hosts the [`experiments`] module with one runner per table/figure of
//! the paper's evaluation (see DESIGN.md for the experiment index and
//! EXPERIMENTS.md for measured-vs-paper results).
//!
//! ## Quick start
//!
//! ```
//! use scion_core::prelude::*;
//!
//! // A small Internet-like topology, organized into a SCION core.
//! let topo = generate_internet(&GeneratorConfig::small(60, 42));
//! let (mut core, _) = prune_to_top_degree(&topo, 12);
//! scion_core::topology::isd::assign_isds(&mut core, 4);
//!
//! // Two simulated hours of diversity-based core beaconing (seed 7). The
//! // same call runs intra-ISD beaconing, more workers, a fault or a loss
//! // plane: set the matching `BeaconingRun` field.
//! let report = run_beaconing(
//!     &core,
//!     &BeaconingConfig::diversity(),
//!     &BeaconingRun::core(Duration::from_hours(2), 7),
//!     &mut Telemetry::disabled(),
//! );
//! assert!(report.outcome.total_bytes() > 0);
//! ```

pub mod experiments;
pub mod report;
pub mod scale;

pub use scion_analysis as analysis;
pub use scion_beaconing as beaconing;
pub use scion_bgp as bgp;
pub use scion_chaos as chaos;
pub use scion_crypto as crypto;
pub use scion_dataplane as dataplane;
pub use scion_endhost as endhost;
pub use scion_ingest as ingest;
pub use scion_pathserver as pathserver;
pub use scion_proto as proto;
pub use scion_simulator as simulator;
pub use scion_telemetry as telemetry;
pub use scion_topology as topology;
pub use scion_types as types;

/// One-stop imports for examples and experiment code.
pub mod prelude {
    pub use scion_analysis::{max_flow, Cdf, Summary};
    pub use scion_beaconing::{
        run_beaconing, Algorithm, BeaconingConfig, BeaconingOutcome, BeaconingRun, DiversityParams,
    };
    pub use scion_bgp::{monthly_overhead, MonthlyConfig};
    pub use scion_proto::{combine_paths, EndToEndPath, PathSegment, Pcb, SegmentType};
    pub use scion_telemetry::{Telemetry, TelemetryConfig};
    pub use scion_topology::{
        generate_internet, prune_to_top_degree, AsIndex, AsTopology, GeneratorConfig, Relationship,
    };
    pub use scion_types::{Asn, Duration, IfId, Isd, IsdAsn, SimTime};

    pub use crate::scale::ExperimentScale;
}
