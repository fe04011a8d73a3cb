//! Instrumented engine runs.

use std::time::Instant;

use sequin_engine::{Checkpointer, OutputItem};
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
    /// The report of one run over `stream` that took `elapsed_secs`,
    /// produced `outputs`, sampled its state into `state` and ended on
    /// the operator counters `stats`.
    pub fn new(
        stream: &[StreamItem],
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
        let is_event = |i: &&StreamItem| matches!(i, StreamItem::Event(_));
        let events = stream.iter().filter(is_event).count();
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

    /// Net inserted matches (inserts minus retractions).
    pub fn net_matches(&self) -> usize {
        crate::compare::net_inserts(&self.outputs).len()
    }
}

/// State-size samples taken during a run.
#[derive(Debug, Default)]
pub struct StateSamples {
    peak: usize,
    sum: u128,
    count: u64,
}

impl StateSamples {
    /// Records one sample.
    pub fn record(&mut self, size: usize) {
        self.peak = self.peak.max(size);
        self.sum += size as u128;
        self.count += 1;
    }

    /// Counts `size` toward the peak only, not the mean.
    pub fn raise_peak(&mut self, size: usize) {
        self.peak = self.peak.max(size);
    }
}

/// Runs the stack `sequin run` evaluates through — a [`Checkpointer`]
/// around its [`sequin_engine::MultiEngine`] — over `stream` (then
/// finishes it), fed in chunks of `batch` items, sampling state once per
/// chunk. Outputs are identical to an item-by-item run.
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
    RunReport::new(stream, elapsed_secs, outputs, state, stack.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequin_engine::{CheckpointPolicy, EngineConfig, MultiEngine, NativeEngine};
    use sequin_netsim::delay_shuffle;
    use sequin_types::Duration;
    use sequin_workload::{Synthetic, SyntheticConfig};
    use std::sync::Arc;

    #[test]
    fn batched_run_produces_identical_outputs() {
        let w = Synthetic::new(SyntheticConfig::default());
        let events = w.generate(1500, 3);
        let stream = delay_shuffle(&events, 0.25, 40, 11);
        let q = w.seq_query(3, 60);
        let cfg = EngineConfig::with_k(Duration::new(60));
        let mut seq = NativeEngine::new(Arc::clone(&q), cfg);
        let mut per_item: Vec<_> = stream.iter().flat_map(|it| seq.ingest(it)).collect();
        per_item.extend(seq.finish());
        let mut host = MultiEngine::new(cfg);
        host.register(Arc::clone(&q), cfg.policy);
        let mut stack = Checkpointer::new(host, CheckpointPolicy::every(100));
        let batched = run_engine_batched(&mut stack, &stream, 64);
        assert_eq!(batched.outputs, per_item);
        assert_eq!(batched.events, events.len());
        assert_eq!(batched.stats.checkpoints_written, stream.len() as u64 / 100);
        assert!(batched.peak_state > 0 && batched.mean_state > 0.0);
    }
}
