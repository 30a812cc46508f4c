//! Experiment runners — one per table/figure of the paper's evaluation.
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`table1`] | Table 1 — path-management overhead: scope × frequency per control-plane component |
//! | [`fig5`] | Figure 5 — monthly control-plane overhead of BGPsec / SCION core (baseline, diversity) / SCION intra-ISD, relative to BGP, across monitors |
//! | [`fig6`] | Figures 6a/6b — path quality (failure resilience / capacity) of SCION algorithms vs BGP vs optimum |
//! | [`scionlab`] | Appendix B, Figures 7/8/9 — the SCIONLab-scale versions plus per-interface beaconing bandwidth |
//! | [`ablation`] | Ablation of the diversity algorithm's design choices (ours; DESIGN.md §6) |
//! | [`resilience`] | Resilience under link churn — diversity vs baseline vs BGP on one fault trace (ours; §4.2 motivation) |
//! | [`lossy`] | Robustness under stochastic message loss — reliable channel vs no-retry control across a loss-rate sweep, plus the path-server degradation leg (ours; §4.2 motivation) |
//! | [`scaling`] | Wall-clock speedup and event throughput of the deterministic parallel beaconing driver vs worker-thread count (ours; §6 scalability) |
//! | [`forwarding`] | Data-plane packets/sec through a border-router chain, scalar vs batched hop-field verification, with per-hop latency quantiles and drop breakdowns (ours; §4.1 Mechanism 4) |
//! | [`recovery`] | Failure recovery of live flows — SCMP fast failover over cached multipaths vs path-server re-query vs reconvergence baseline, with per-flow outage CDFs (ours; §4.1 path revocations) |
//! | [`overload`] | Overload protection of the lookup plane — flash-crowd sweep 0.5×–8× capacity, unprotected vs load-shedding vs shed+brownout+breaker (ours; §4.1 lookup amortization) |
//!
//! Every module has one entry point, `run(&mut RunCtx) -> XResult`
//! ([`scionlab`] has one per record: `run_fig78`, `run_fig9`). The
//! [`RunCtx`] carries everything that varies between invocations — scale
//! and seed, an ingested topology, worker threads, sweep lists, whether
//! telemetry records — and the result is a serializable struct; the
//! `scion-bench` binary renders it as a table and writes the JSON record.

pub mod ablation;
pub mod ctx;
pub mod fig5;
pub mod fig6;
pub mod forwarding;
pub mod lossy;
pub mod overload;
pub mod recovery;
pub mod resilience;
pub mod scaling;
pub mod scionlab;
pub mod table1;
pub mod world;

pub use ctx::RunCtx;
pub use world::World;
