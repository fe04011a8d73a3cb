//! # sequin-metrics
//!
//! Measurement utilities for the evaluation harness:
//!
//! * [`RunReport`] — what one run over a prepared stream measured: state
//!   size samples ([`StateSamples`]), per-result [`Latency`] statistics
//!   (mean, P50/P95/P99, max), wall-clock throughput and operator
//!   counters; [`run_engine_batched`] produces one for the exactly-once
//!   stack `sequin run` evaluates through;
//! * [`compare_outputs`] / [`Accuracy`] — precision/recall of an observed
//!   match set against an oracle (used to quantify the in-order control's
//!   failures, experiment E1);
//! * [`Table`] — fixed-width table rendering for the paper-style output of
//!   the `experiments` binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compare;
mod runner;
mod table;

pub use compare::{compare_outputs, net_inserts, Accuracy};
pub use runner::{run_engine_batched, Latency, RunReport, StateSamples};
pub use table::{pairs_table, Table};
