//! Repeatable benchmark of the scion-mp-routing workspace: six workloads,
//! three gated end-to-end metrics each, and per-layer metrics from a
//! separate traced pass. `README.md` explains the measurement procedure and
//! why the estimator is a minimum.

pub mod adapter;
pub mod alloc;
pub mod compare;
pub mod kernels;
pub mod report;
pub mod runner;
pub mod span;
pub mod stats;
pub mod workloads;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;
