//! Instrumented engine runs.

use std::time::Instant;

use sequin_engine::{Checkpointer, Engine, OutputItem};
use sequin_runtime::RuntimeStats;
use sequin_types::StreamItem;

use crate::histogram::Histogram;

/// Everything measured during one engine run over one stream.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Events ingested (punctuations excluded).
    pub events: usize,
    /// Wall-clock seconds for ingesting the whole stream (+ finish).
    pub elapsed_secs: f64,
    /// Events per wall-clock second.
    pub throughput_eps: f64,
    /// Every output the engine produced (inserts and retracts).
    pub outputs: Vec<OutputItem>,
    /// Per-result arrival latency (ingested items between a match becoming
    /// constructible and its emission).
    pub arrival_latency: Histogram,
    /// Per-result event-time latency (ticks the clock had advanced past
    /// the match's last timestamp at emission).
    pub event_time_latency: Histogram,
    /// Largest state size observed at the sampling cadence.
    pub peak_state: usize,
    /// Mean of the sampled state sizes.
    pub mean_state: f64,
    /// Final operator counters.
    pub stats: RuntimeStats,
}

impl RunReport {
    /// Net inserted matches (inserts minus retractions).
    pub fn net_matches(&self) -> usize {
        crate::compare::net_inserts(&self.outputs).len()
    }
}

/// State-size samples taken during a run.
#[derive(Default)]
struct StateSamples {
    peak: usize,
    sum: u128,
    count: u64,
}

impl StateSamples {
    fn record(&mut self, size: usize) {
        self.peak = self.peak.max(size);
        self.sum += size as u128;
        self.count += 1;
    }
}

fn report(
    events: usize,
    elapsed_secs: f64,
    outputs: Vec<OutputItem>,
    state: StateSamples,
    stats: RuntimeStats,
) -> RunReport {
    let mut arrival_latency = Histogram::new();
    let mut event_time_latency = Histogram::new();
    for o in &outputs {
        arrival_latency.record(o.arrival_latency());
        event_time_latency.record(o.event_time_latency());
    }
    RunReport {
        events,
        elapsed_secs,
        throughput_eps: if elapsed_secs > 0.0 {
            events as f64 / elapsed_secs
        } else {
            0.0
        },
        outputs,
        arrival_latency,
        event_time_latency,
        peak_state: state.peak,
        mean_state: if state.count == 0 {
            0.0
        } else {
            state.sum as f64 / state.count as f64
        },
        stats,
    }
}

fn count_events(stream: &[StreamItem]) -> usize {
    let is_event = |i: &&StreamItem| matches!(i, StreamItem::Event(_));
    stream.iter().filter(is_event).count()
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
    state.peak = state.peak.max(engine.state_size());
    report(
        count_events(stream),
        elapsed_secs,
        outputs,
        state,
        engine.stats(),
    )
}

/// Like [`run_engine`], for the stack `sequin run` evaluates through — a
/// [`Checkpointer`] around its [`sequin_engine::MultiEngine`] host — fed
/// in chunks of `batch` items, sampling state once per chunk. Outputs are
/// identical to an item-by-item run; throughput differs because batched
/// ingestion is what lets a sharded pool use its worker threads.
///
/// # Panics
///
/// Panics if `batch` is zero.
pub fn run_engine_batched(
    stack: &mut Checkpointer,
    stream: &[StreamItem],
    batch: usize,
) -> RunReport {
    assert!(batch > 0, "batch size must be positive");
    let mut outputs = Vec::new();
    let mut state = StateSamples::default();
    let start = Instant::now();
    for chunk in stream.chunks(batch) {
        outputs.extend(stack.ingest_batch(chunk).into_iter().map(|(_, o)| o));
        state.record(stack.host().state_size());
    }
    outputs.extend(stack.finish().into_iter().map(|(_, o)| o));
    let elapsed_secs = start.elapsed().as_secs_f64();
    report(
        count_events(stream),
        elapsed_secs,
        outputs,
        state,
        stack.stats(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequin_engine::{EngineConfig, NativeEngine};
    use sequin_netsim::delay_shuffle;
    use sequin_types::Duration;
    use sequin_workload::{Synthetic, SyntheticConfig};

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
    fn batched_run_produces_identical_outputs() {
        use sequin_engine::{CheckpointPolicy, MultiEngine, Strategy};
        let w = Synthetic::new(SyntheticConfig::default());
        let events = w.generate(1500, 3);
        let stream = delay_shuffle(&events, 0.25, 40, 11);
        let q = w.seq_query(3, 60);
        let cfg = EngineConfig::with_k(Duration::new(60));
        let mut seq = NativeEngine::new(std::sync::Arc::clone(&q), cfg);
        let per_item = run_engine(&mut seq, &stream, 16);
        for shards in [1, 2] {
            let mut host = MultiEngine::new(Strategy::Native, cfg, shards);
            host.register(std::sync::Arc::clone(&q), cfg.policy);
            let mut stack = Checkpointer::new(host, CheckpointPolicy::every(100));
            let batched = run_engine_batched(&mut stack, &stream, 64);
            assert_eq!(batched.outputs, per_item.outputs);
            assert_eq!(batched.events, per_item.events);
            assert_eq!(batched.stats.checkpoints_written, stream.len() as u64 / 100);
        }
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
