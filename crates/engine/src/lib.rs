//! # sequin-engine
//!
//! Complete query-evaluation strategies over (possibly out-of-order) event
//! streams:
//!
//! * [`InOrderEngine`] — the state-of-the-art baseline: classic SASE
//!   pipeline fed directly with arrivals. Exactly correct on ordered
//!   input; misses matches and emits phantoms under disorder (the paper's
//!   motivating failure analysis, experiment E1).
//! * [`BufferedEngine`] — the standard fix the paper argues against:
//!   a K-slack reorder buffer in front of the in-order engine. Correct
//!   under the disorder bound, but pays `K` of latency on *every* result
//!   and buffers the full stream tail (experiments E2–E4).
//! * [`NativeEngine`] — the paper's contribution: order-insensitive
//!   stacks, arrival-driven construction with compensation, and
//!   watermark-safe purging. Emits each (negation-free) match the moment
//!   its last constituent arrives, at bounded state.
//!
//! The paper's algorithm is written once: [`SharedMultiEngine`], the
//! evaluator of a `sequin-plan` plan, holds the only ingest loop in this
//! crate, and every way of hosting a native query is an instance of it.
//! Many queries run in a [`MultiEngine`], the one multi-query host, which
//! runs all of them on one plan (pooling stacks and prefix walks across
//! queries) evaluated by a pool of `shards ≥ 1` workers, each holding the
//! whole plan over a slice of the partition-key space. A plan is a pool of
//! one: a single worker owns every key and runs inline. [`NativeEngine`]
//! is a plan of one registration and [`ShardedEngine`] a pool with one
//! registration. All of them walk stacks with
//! `sequin_runtime::Constructor`, hand every match to the `settle`
//! module — the one place that decides when a match is emitted, held,
//! retracted or dropped under a [`DisorderPolicy`] — and write the same
//! per-query checkpoint blob, byte for byte. A [`Checkpointer`] around a
//! [`MultiEngine`] is the one exactly-once layer — position, emission
//! log, checkpoint cadence, recovery ladder — used by `sequin run` and
//! the server alike.
//!
//! All strategies implement the [`Engine`] trait and emit
//! [`OutputItem`]s; emission timing and the slack bound are governed by
//! the per-query [`DisorderPolicy`] (conservative sealed emission,
//! speculative emission with retraction, lazy coalesced emission, or an
//! adaptive slack bound driven by observed disorder). Watermarks advance
//! by K-slack, by punctuation, or both — see [`EngineConfig`].
//!
//! ```
//! use sequin_engine::{Engine, EngineConfig, NativeEngine};
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
mod buffer;
mod checkpoint;
mod config;
mod inorder;
mod multi;
mod native;
mod output;
mod settle;
mod sharded;
mod shared;
mod traits;
mod watermark;

pub use buffer::{BufferedEngine, KSlackBuffer};
pub use checkpoint::{CheckpointPolicy, CheckpointStore, Checkpointer};
pub use config::{AdaptiveK, DisorderPolicy, EngineConfig, WatermarkSource};
pub use inorder::InOrderEngine;
pub use multi::{MultiEngine, QueryId};
pub use native::NativeEngine;
pub use output::{OutputItem, OutputKind};
pub use sharded::{RouteStats, ShardedEngine};
pub use shared::{PlanMetrics, SharedMultiEngine};
pub use traits::{run_to_end, Engine, Strategy};

pub use sequin_plan::stable_query_id;

use sequin_query::Query;
use std::sync::Arc;

/// Instantiates the engine for `strategy` (convenience for harnesses that
/// sweep strategies).
pub fn make_engine(strategy: Strategy, query: Arc<Query>, config: EngineConfig) -> Box<dyn Engine> {
    match strategy {
        Strategy::InOrder => Box::new(InOrderEngine::new(query, config)),
        Strategy::Buffered => Box::new(BufferedEngine::new(query, config)),
        Strategy::Native => Box::new(NativeEngine::new(query, config)),
    }
}
