//! Shared test helpers: the brute-force reference oracle and small stream
//! builders.
//!
//! The oracle is `sequin-sim`'s: it implements the query semantics
//! *directly from the definition* (enumerate all positive assignments,
//! check order, window, predicates, and negation regions against the full
//! history) and shares no code with the engines' stacks/DFS —
//! disagreement means a real bug.

#![allow(dead_code)]

use std::collections::BTreeSet;
use std::sync::Arc;

use sequin::engine::{EngineConfig, MultiEngine, OutputItem, QueryId};
use sequin::query::Query;
use sequin::types::{Event, EventId, EventRef, StreamItem, Timestamp, TypeRegistry, Value};

/// Enumerates the exact match set of a query over a history by brute
/// force. Exponential in pattern length — keep inputs small.
#[allow(unused_imports)] // not every test binary consults the oracle
pub use sequin::sim::reference_matches;

/// A match identity: event ids in positive order.
pub type Key = Vec<u64>;

/// Net inserted match keys from an output stream.
pub fn net_keys(outputs: &[OutputItem]) -> BTreeSet<Key> {
    sequin::metrics::net_inserts(outputs)
        .into_iter()
        .map(|k| k.event_ids().iter().map(|id| id.get()).collect())
        .collect()
}

/// Feeds `items` through `engine` (then finishes), returning all outputs.
#[allow(unused_imports)] // not every test binary drives an engine
pub use sequin_bench::run_to_end as drive;

/// Builds an event with integer attributes `attrs` for `ty`.
pub fn ev(reg: &TypeRegistry, ty: &str, id: u64, ts: u64, attrs: &[i64]) -> EventRef {
    let mut b = Event::builder(reg.lookup(ty).expect("declared type"), Timestamp::new(ts))
        .id(EventId::new(id));
    for &a in attrs {
        b = b.attr(Value::Int(a));
    }
    Arc::new(b.build())
}

/// Wraps events as an arrival stream in the given order.
pub fn stream_of(events: &[EventRef]) -> Vec<StreamItem> {
    events.iter().cloned().map(StreamItem::Event).collect()
}

/// A plan of one under `config` — what a `sequin::engine::Checkpointer`
/// wraps.
pub fn host_of(query: &Arc<Query>, config: EngineConfig) -> MultiEngine {
    let mut host = MultiEngine::new(config);
    host.register(Arc::clone(query), config.policy);
    host
}

/// A one-query host's outputs without their query tags.
pub fn untag(out: Vec<(QueryId, OutputItem)>) -> impl Iterator<Item = OutputItem> {
    out.into_iter().map(|(_, o)| o)
}

/// Over the 16-type synthetic schema: 64 prefix siblings `SEQ(T0 a, T1 b,
/// T{2..15} c)` banded on `c.x`, one more whose predicate spans from its
/// prefix into its final slot (the same group, with a bind check), a query
/// with two slots of one type and one with a multi-type slot — every shape
/// whose counters a shared plan node owes its readers.
pub fn banded_family() -> Vec<String> {
    let mut texts: Vec<String> = (0..64)
        .map(|i| {
            let (ty, band) = (2 + i % 14, (i / 14) * 20);
            format!(
                "PATTERN SEQ(T0 a, T1 b, T{ty} c) WHERE c.x >= {band} AND c.x < {} WITHIN 100",
                band + 20
            )
        })
        .collect();
    texts.push("PATTERN SEQ(T0 a, T1 b, T2 c) WHERE a.x < c.x WITHIN 100".into());
    texts.push("PATTERN SEQ(T3 a, T3 b, T4 c) WHERE b.x > 20 WITHIN 100".into());
    texts.push("PATTERN SEQ(T5|T6 a, T6 b) WITHIN 100".into());
    texts
}
