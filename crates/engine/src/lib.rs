//! # sequin-engine
//!
//! The paper's engine over (possibly out-of-order) event streams:
//! order-insensitive stacks, arrival-driven construction with
//! compensation, and watermark-safe purging. It emits each
//! (negation-free) match the moment its last constituent arrives, at
//! bounded state.
//!
//! The algorithm is written once: [`MultiEngine`], the evaluator of a
//! `sequin-plan` plan, holds the only ingest loop in this crate and runs
//! every registered query on one plan (pooling stacks and prefix walks
//! across queries), inline on the caller's thread. [`NativeEngine`] is a
//! plan of one registration. Construction walks stacks with
//! `sequin_runtime::Constructor` and hands every match to the `settle`
//! module — the one place that decides when a match is emitted, held,
//! retracted or dropped under a [`DisorderPolicy`] — and a query's
//! checkpoint blob is the same bytes whatever plan it ran in. A
//! [`Checkpointer`] around a [`MultiEngine`] is the one exactly-once
//! layer — position, emission log, checkpoint cadence, recovery ladder —
//! used by `sequin run` and the server alike.
//!
//! Outputs are [`OutputItem`]s; emission timing and the slack bound are
//! governed by the per-query [`DisorderPolicy`] (conservative sealed
//! emission, speculative emission with retraction, lazy coalesced
//! emission, or an adaptive slack bound driven by observed disorder).
//! Watermarks advance by K-slack, by punctuation, or both — see
//! [`EngineConfig`]. The in-order and K-slack-buffer baselines the paper's
//! evaluation compares against live in the `sequin-bench` harness.
//!
//! ```
//! use sequin_engine::{EngineConfig, NativeEngine};
//! use sequin_query::parse;
//! use sequin_types::{Event, StreamItem, Timestamp, TypeRegistry, ValueKind, Value};
//! use std::sync::Arc;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut reg = TypeRegistry::new();
//! reg.declare("A", &[("x", ValueKind::Int)])?;
//! reg.declare("B", &[("x", ValueKind::Int)])?;
//! let q = parse("PATTERN SEQ(A a, B b) WITHIN 100", &reg)?;
//! let mut engine = NativeEngine::new(q, EngineConfig::default());
//! // B arrives before A, yet the (A, B) match is still found:
//! let b = Arc::new(Event::new(reg.lookup("B").unwrap(), Timestamp::new(20), vec![Value::Int(0)]));
//! let a = Arc::new(Event::new(reg.lookup("A").unwrap(), Timestamp::new(10), vec![Value::Int(0)]));
//! assert!(engine.ingest(&StreamItem::Event(b)).is_empty());
//! assert_eq!(engine.ingest(&StreamItem::Event(a)).len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blob;
mod checkpoint;
mod config;
mod native;
mod output;
mod settle;
mod shared;
mod watermark;

pub use checkpoint::{CheckpointStore, Checkpointer};
pub use config::{DisorderPolicy, EngineConfig, Strategy, WatermarkSource};
pub use native::NativeEngine;
pub use output::{OutputItem, OutputKind};
pub use shared::{MultiEngine, PlanMetrics, PlanWork, QueryId};

pub use sequin_plan::stable_query_id;
