//! `scion-chaos`: deterministic fault injection and link churn for the
//! whole simulation stack.
//!
//! The paper argues SCION's path awareness makes the control plane resilient
//! to link failures: the diversity-based beaconing algorithm (§4.2)
//! maximizes link-disjointness precisely so that "in case of a link
//! failure, endpoints can quickly switch to an alternative path". This
//! crate provides the machinery to *test* that claim under a reproducible
//! fault trace shared by every control plane:
//!
//! * the fault plane itself lives in `scion-simulator`
//!   ([`FaultSchedule`], [`LinkFault`], [`LinkState`]) so the protocol
//!   drivers can consult it without depending on this crate;
//! * [`churn`] — a seeded MTBF/MTTR alternating-renewal churn model
//!   ([`ChurnModel`]) distinguishing core from leaf links;
//! * [`schedule`] — the [`Script`] builder for explicit fault scripts
//!   (outage windows, AS blackouts, latency brown-outs, flap bursts);
//! * [`revoke`] — the path-server reaction ([`revoke_for_fault`],
//!   [`revoke_for_scmp`]): §4.1 revocation of affected segments, traced;
//! * [`analysis`] — reconvergence times and liveness summaries over the
//!   probe curves the chaos-aware drivers emit;
//! * [`testkit`] — shared fixtures (dual-homed worlds, segment plumbing)
//!   used by both the integration tests and the resilience experiment.
//!
//! The chaos-aware protocol drivers themselves live with their protocols:
//! `scion_beaconing::run_beaconing` (with `BeaconingRun::chaos` set) and
//! `scion_bgp::simulate_origin` (given a `BgpChaosConfig`) both replay the same
//! [`FaultSchedule`], which is what makes the resilience experiment an
//! apples-to-apples comparison.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod analysis;
pub mod churn;
pub mod revoke;
pub mod schedule;
pub mod testkit;

pub use analysis::{mean_fraction, mean_reconvergence, min_fraction, reconvergence_times};
pub use churn::{ChurnModel, LinkClassParams};
pub use revoke::{revoke_for_fault, revoke_for_scmp};
pub use schedule::Script;

// Re-export the fault plane and both drivers' chaos types, so experiment
// code needs a single import.
pub use scion_beaconing::{ChaosConfig, ChaosReport, ReachProbe};
pub use scion_bgp::{BgpChaosConfig, BgpChaosReport, BgpProbe};
pub use scion_simulator::{FaultSchedule, LinkFault, LinkState};
