//! Core identifier and time types shared by every crate in the workspace.
//!
//! SCION routes on the `⟨ISD, AS⟩` tuple (paper §2.1): an *Isolation Domain*
//! groups autonomous systems under a common trust root, and the AS number
//! space is widened to 48 bits so SCION-only ASes can be numbered beyond the
//! 32-bit space in use by BGP today. Inter-domain links are identified by the
//! *interface identifiers* on either end (paper §2.2), which is what makes
//! link-level (rather than AS-level) path diversity expressible.
//!
//! Everything in this crate is a plain value type: `Copy` where possible,
//! totally ordered, hashable, and serializable, so identifiers can be used as
//! map keys throughout the control plane and in experiment outputs.

#![warn(missing_docs)]

pub mod error;
pub mod fast_hash;
pub mod id;
pub mod time;

pub use error::{Error, Result};
pub use fast_hash::{splitmix64, FastMap, FastSet};
pub use id::{Asn, IfId, Isd, IsdAsn, LinkEnd, LinkId};
pub use time::{Duration, SimTime};
