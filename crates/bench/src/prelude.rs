//! Shared helpers for the experiments and benches.

use std::sync::Arc;

use sequin_engine::EngineConfig;
use sequin_metrics::RunReport;
use sequin_query::Query;
use sequin_types::{Duration, EventRef, StreamItem};

use crate::strategy::{make_engine, run_engine, Strategy};

/// Builds an engine for `strategy` with disorder bound `k` and the default
/// remaining configuration, runs it over `stream`, and reports.
pub fn run(strategy: Strategy, query: &Arc<Query>, k: u64, stream: &[StreamItem]) -> RunReport {
    run_with(
        strategy,
        query,
        EngineConfig::with_k(Duration::new(k)),
        stream,
    )
}

/// Like [`run`], with full configuration control.
pub fn run_with(
    strategy: Strategy,
    query: &Arc<Query>,
    config: EngineConfig,
    stream: &[StreamItem],
) -> RunReport {
    let mut engine = make_engine(strategy, Arc::clone(query), config);
    run_engine(engine.as_mut(), stream, 64)
}

/// Timestamp-sorted copy of a history as a stream (the oracle's input).
pub fn sorted_stream(events: &[EventRef]) -> Vec<StreamItem> {
    let mut sorted = events.to_vec();
    sequin_types::sort_by_timestamp(&mut sorted);
    sorted.into_iter().map(StreamItem::Event).collect()
}

/// Formats events/second in thousands.
pub fn keps(r: &RunReport) -> String {
    format!("{:.0}k", r.throughput_eps / 1000.0)
}

/// Formats a float with two decimals.
pub fn f2(v: f64) -> String {
    format!("{v:.2}")
}
