//! Deterministic differential simulation harness for sequin.
//!
//! One `u64` seed drives everything: a set of N ≥ 1 random-but-valid SEQ
//! queries (each stated as a [`sequin_query::ast::QueryAst`] *and* parsed
//! from text, each with its own disorder policy; N = 1 is the
//! common case, the rest are mostly prefix siblings the plan can pool),
//! an event stream with a parameterized disorder schedule (lateness,
//! duplicates, reversed bursts, punctuation placement), and an engine
//! configuration. The reference is each query alone on an honest
//! single-threaded engine; every production path is compared with it per
//! query — the plan of N item by item (also held against a naive
//! `O(n^k)` oracle), and the server's engine-thread step over in-memory
//! connections, fed in batches, crashed between two of its effects and
//! restarted from what it saved ([`diff`] has the table).
//!
//! On mismatch the case is shrunk to a minimal repro — fewer queries,
//! fewer items, simpler terms and knobs — and rendered as a
//! self-contained `#[test]` snippet plus a replayable `--seed`/`--case`
//! pair and a postmortem bundle. The `sequin sim` CLI subcommand fronts
//! this crate for both CI and interactive debugging.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod case;
pub mod diff;
pub mod oracle;
pub mod postmortem;
pub mod repro;
pub mod runner;
pub mod shrink;

pub use case::{CaseConfig, CaseData, QueryPlan, SimEvent, SimItem, SimQuery};
pub use diff::{check_case, path_names, Mismatch, Path, Sabotage};
pub use oracle::reference_matches;
pub use postmortem::{capture_bundle, replay_bundle};
pub use runner::{replay, run, Failure, SimOptions, SimReport};
pub use shrink::{shrink, Shrunk};
