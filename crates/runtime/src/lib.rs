//! # sequin-runtime
//!
//! Physical operators for sequence pattern queries, in two flavours:
//!
//! * [`classic`] — the state-of-the-art **in-order** SASE-style pipeline
//!   (append-only active instance stacks with *recent-instance-in-previous*
//!   pointers, construction triggered by last-type arrivals, arrival-driven
//!   window purge). Correct only for timestamp-ordered input; kept both as
//!   the baseline engine and to reproduce the paper's failure analysis.
//! * the **order-insensitive** operators of Li et al. (ICDCS 2007):
//!   [`AisStack`] keeps instances sorted by occurrence timestamp so a late
//!   event is a sorted insertion; [`KeyedStack`] is one slot's `AisStack`
//!   plus, when the slot has a partition field, the same instances indexed
//!   by key; [`Constructor`] enumerates, at *every*
//!   insertion, the matches whose last-arriving constituent is the new
//!   event (exactly-once output without retraction for negation-free
//!   queries); [`purge`] computes the K-slack/punctuation-safe purge
//!   thresholds; [`NegationIndex`] supports sealed re-validation of
//!   negation regions.
//!
//! The operators are deliberately engine-agnostic: `sequin-engine` wires
//! them into complete strategies (in-order, buffered K-slack, native
//! out-of-order).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classic;
mod construct;
mod keyed;
mod r#match;
mod negation;
mod partition;
pub mod purge;
mod stack;
mod stats;

pub use construct::{suffix_bounds, ConstructOpts, Constructor};
pub use keyed::KeyedStack;
pub use negation::{region_of, regions, seal_deadline, NegationIndex, Region};
pub use partition::{PartitionKey, PartitionMap};
pub use r#match::{Match, MatchKey};
pub use stack::{AisStack, StackRange};
pub use stats::RuntimeStats;
