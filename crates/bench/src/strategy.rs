//! The three evaluation strategies the experiments compare, behind one
//! small trait, and the instrumented run that measures any of them.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use sequin_engine::{EngineConfig, NativeEngine, OutputItem};
use sequin_metrics::{RunReport, StateSamples};
use sequin_query::Query;
use sequin_runtime::RuntimeStats;
use sequin_types::StreamItem;

use crate::buffer::BufferedEngine;
use crate::inorder::InOrderEngine;

/// The evaluation strategies compared throughout the evaluation: the
/// paper's engine and the two controls it argues against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Classic SASE fed raw arrivals (correct only in order).
    InOrder,
    /// K-slack reorder buffer in front of the classic engine.
    Buffered,
    /// The paper's native out-of-order engine.
    Native,
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Strategy::InOrder => "in-order",
            Strategy::Buffered => "k-slack-buffer",
            Strategy::Native => "native-ooo",
        };
        f.write_str(s)
    }
}

/// One query's evaluation over a stream of arrivals. Implementations stamp
/// arrival sequence numbers internally; callers feed raw [`StreamItem`]s
/// in arrival order and collect [`OutputItem`]s.
pub trait Engine {
    /// Ingests one arrival (event or punctuation); returns the output it
    /// triggered.
    fn ingest(&mut self, item: &StreamItem) -> Vec<OutputItem>;

    /// Signals end-of-stream: releases everything still held.
    fn finish(&mut self) -> Vec<OutputItem>;

    /// Operator cost counters accumulated so far.
    fn stats(&self) -> RuntimeStats;

    /// Events/instances currently held (stacks, buffers, pending), the
    /// evaluation's memory metric.
    fn state_size(&self) -> usize;
}

impl Engine for NativeEngine {
    fn ingest(&mut self, item: &StreamItem) -> Vec<OutputItem> {
        NativeEngine::ingest(self, item)
    }

    fn finish(&mut self) -> Vec<OutputItem> {
        NativeEngine::finish(self)
    }

    fn stats(&self) -> RuntimeStats {
        NativeEngine::stats(self)
    }

    fn state_size(&self) -> usize {
        NativeEngine::state_size(self)
    }
}

/// Instantiates the engine for `strategy`.
pub fn make_engine(strategy: Strategy, query: Arc<Query>, config: EngineConfig) -> Box<dyn Engine> {
    match strategy {
        Strategy::InOrder => Box::new(InOrderEngine::new(query, config)),
        Strategy::Buffered => Box::new(BufferedEngine::new(query, config)),
        Strategy::Native => Box::new(NativeEngine::new(query, config)),
    }
}

/// Runs `items` through `engine`, then finishes it, collecting all output.
pub fn run_to_end(engine: &mut dyn Engine, items: &[StreamItem]) -> Vec<OutputItem> {
    let mut out: Vec<_> = items.iter().flat_map(|it| engine.ingest(it)).collect();
    out.extend(engine.finish());
    out
}

/// Runs `engine` over `stream` (then finishes it), sampling state size
/// every `sample_every` items.
///
/// # Panics
///
/// Panics if `sample_every` is zero.
pub fn run_engine(
    engine: &mut dyn Engine,
    stream: &[StreamItem],
    sample_every: usize,
) -> RunReport {
    assert!(sample_every > 0, "sampling cadence must be positive");
    let mut outputs = Vec::new();
    let mut state = StateSamples::default();
    let start = Instant::now();
    for (i, item) in stream.iter().enumerate() {
        outputs.extend(engine.ingest(item));
        if i % sample_every == 0 {
            state.record(engine.state_size());
        }
    }
    outputs.extend(engine.finish());
    let elapsed_secs = start.elapsed().as_secs_f64();
    state.raise_peak(engine.state_size());
    RunReport::new(stream, elapsed_secs, outputs, state, engine.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequin_netsim::delay_shuffle;
    use sequin_types::Duration;
    use sequin_workload::{Synthetic, SyntheticConfig};

    #[test]
    fn strategy_display() {
        assert_eq!(Strategy::InOrder.to_string(), "in-order");
        assert_eq!(Strategy::Buffered.to_string(), "k-slack-buffer");
        assert_eq!(Strategy::Native.to_string(), "native-ooo");
    }

    #[test]
    fn report_counts_and_latencies() {
        let w = Synthetic::new(SyntheticConfig::default());
        let events = w.generate(2000, 1);
        let stream = delay_shuffle(&events, 0.2, 50, 7);
        let q = w.seq_query(3, 60);
        let mut engine = NativeEngine::new(q, EngineConfig::with_k(Duration::new(60)));
        let report = run_engine(&mut engine, &stream, 16);
        assert_eq!(report.events, 2000);
        assert!(report.throughput_eps > 0.0);
        assert!(report.net_matches() > 0);
        assert!(report.peak_state > 0);
        assert!(report.mean_state > 0.0);
        assert_eq!(report.outputs.len(), report.arrival_latency.len());
        // negation-free native emission is immediate
        assert_eq!(report.arrival_latency.max(), 0);
        // only events of the three queried types enter stacks
        assert!(report.stats.insertions > 0);
        assert!(report.stats.insertions <= 2000);
    }

    #[test]
    #[should_panic(expected = "sampling cadence must be positive")]
    fn zero_cadence_panics() {
        let w = Synthetic::new(SyntheticConfig::default());
        let q = w.seq_query(2, 10);
        let mut engine = NativeEngine::new(q, EngineConfig::default());
        run_engine(&mut engine, &[], 0);
    }
}
