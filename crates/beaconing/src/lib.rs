//! SCION beaconing: the paper's primary contribution.
//!
//! This crate implements the beacon server (§2.2) with both path
//! construction algorithms the paper evaluates:
//!
//! * [`baseline`] — the production algorithm: disseminate the `k` shortest
//!   valid beacons per origin AS on **each egress interface**, every
//!   interval, regardless of what was sent before (§4.2 lists its two
//!   shortcomings: path-length-only optimization and redundant resends);
//! * [`diversity`] — the **path-diversity-based path construction
//!   algorithm** (§4.2 + Appendix A, Algorithm 1): a distributed greedy
//!   algorithm that maximizes link-disjointness of disseminated paths per
//!   `[origin AS, neighbor AS]` pair while inhibiting redundant
//!   retransmissions via the Eq. (1)–(3) age/lifetime scoring.
//!
//! Shared machinery: [`store`] (beacon store with per-origin storage
//! limits), [`score`] (link-history tables, sent-PCB lists, the scoring
//! functions), [`server`] (a beacon server tying store + algorithm),
//! [`driver`] (the one simulation driver, [`run_beaconing`]: core and
//! intra-ISD beaconing on the discrete-event engine, windowed and sharded
//! over `threads` workers with identical output for every thread count,
//! with optional fault and loss planes), [`paths`] (extraction of
//! disseminated path sets for quality analysis), and [`tuning`] (the grid
//! search for α, β, γ and the score threshold described in §4.2).

pub mod baseline;
pub mod config;
pub mod diversity;
pub mod driver;
pub mod paths;
pub mod score;
pub mod server;
pub mod store;
pub mod tuning;

pub use baseline::BaselineAlgorithm;
pub use config::{Algorithm, BeaconingConfig, DiversityParams};
pub use diversity::DiversityAlgorithm;
pub use driver::{
    run_beaconing, run_core_beaconing_parallel, run_intra_isd_beaconing_parallel, BeaconingOutcome,
    BeaconingReport, BeaconingRun, ChaosConfig, ChaosReport, LossReport, LossyConfig, ReachProbe,
    Scope,
};
pub use server::BeaconServer;
pub use store::{BeaconStore, EvictedBeacon, InsertOutcome, StoredBeacon};
