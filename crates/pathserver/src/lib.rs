//! The path-server infrastructure (paper §2.2, §4.1 and Table 1).
//!
//! Beaconing *pushes* path segments down the hierarchy; everything else in
//! SCION's control plane is *pull*: "a separate path-server infrastructure
//! operates a pull-based path segment lookup with caching, without the need
//! for global broadcast" (§4.1, Mechanism 6). This crate implements those
//! components:
//!
//! * [`server`] — path servers: core servers store the down-segments
//!   registered by their ISD's leaf ASes plus core-segments to other core
//!   ASes; local servers resolve endpoint lookups and cache remote
//!   segments (effective because paths live for hours and destination
//!   popularity is Zipf — §4.1); a lookup whose upstream retries are
//!   exhausted degrades onto recently-expired cached segments or a
//!   negative verdict that stops the retry storm;
//! * [`ledger`] — per-component message accounting with **scope**
//!   classification (intra-AS / intra-ISD / global) and inter-event
//!   periods: the measured reproduction of Table 1;
//! * [`workload`] — the Zipf destination-popularity model for endpoint
//!   lookups (§4.1 cites the Zipf distribution of Internet traffic);
//! * [`revocation`] — path revocation on link failure: intra-ISD
//!   revocation at the core path server plus SCMP notifications to
//!   affected endpoints (§4.1 "Path Revocations"), hard or with a TTL the
//!   server keeps per link;
//! * [`overload`] — overload protection for the lookup plane:
//!   per-client token buckets, a bounded priority-aware admission queue
//!   with deterministic shedding, brownout stale-serving, and a circuit
//!   breaker on upstream core-server lookups.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod ledger;
pub mod overload;
pub mod revocation;
pub mod server;
pub mod workload;

pub use ledger::{Component, Ledger, Scope};
pub use overload::{
    AdmissionQueue, BreakerDecision, BrownoutController, BrownoutTransition, CircuitBreaker,
    ClientAdmission, QueueOutcome, RequestClass, ShedReason, Ticket, TokenBucket,
    MILLITOKENS_PER_REQUEST,
};
pub use revocation::{revoke_segments, Revocation};
pub use server::{CacheStats, LookupResult, PathServer, ServerError};
pub use workload::ZipfDestinations;
