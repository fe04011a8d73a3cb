//! The hot-path recorder the engine core writes into.
//!
//! One [`Recorder`] is owned by the thread that drives evaluation (the
//! server's engine loop, or a CLI run). It accumulates per-query
//! distributions derived from emitted outputs — **detection latency**
//! (arrivals between a match becoming constructible and its emission) and
//! **deferral time** (event-time ticks a match was held past its own span
//! while the watermark caught up) — plus emit/retract counts, and feeds
//! the structured [`TraceRing`].
//!
//! Every method early-returns when the recorder is disabled
//! ([`ObsConfig::disabled`]), which is the "configured off ⇒ zero
//! overhead" guarantee the ledger's `obs.overhead_pct` measures against.

use crate::hist::FixedHistogram;
use crate::trace::{Span, SpanKind, TraceRing, NO_QUERY};

/// Observability configuration for an engine core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Master switch: when false, nothing is recorded and metrics
    /// exposition carries only the always-on operator counters.
    pub enabled: bool,
    /// Trace ring capacity in spans (0 disables tracing while keeping
    /// metrics).
    pub trace_capacity: usize,
    /// Per-output causal provenance: when true, every emitted/retracted
    /// output gets a provenance-id-stamped `Seal`/`Retract`/`Emit` span
    /// with event ids, arrival seqs, and the sealing/contradicting
    /// decision context. When false, outputs record plain `Emit` spans
    /// (the pre-0.10 behaviour).
    pub provenance: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            enabled: true,
            trace_capacity: 256,
            provenance: true,
        }
    }
}

impl ObsConfig {
    /// Everything off: zero recording overhead.
    pub fn disabled() -> ObsConfig {
        ObsConfig {
            enabled: false,
            trace_capacity: 0,
            provenance: false,
        }
    }

    /// Metrics and plain spans on, causal provenance off.
    pub fn without_provenance() -> ObsConfig {
        ObsConfig {
            provenance: false,
            ..ObsConfig::default()
        }
    }
}

/// Per-query accumulated observations.
#[derive(Debug, Clone, Default)]
pub struct QueryObs {
    /// Detection latency (arrival counts), one sample per output item.
    pub detection: FixedHistogram,
    /// Deferral time (event-time ticks), one sample per output item.
    pub deferral: FixedHistogram,
    /// Insert outputs emitted.
    pub emitted: u64,
    /// Retract outputs emitted (speculative disorder policy only).
    pub retracted: u64,
}

/// Accumulates per-query observations and trace spans.
#[derive(Debug)]
pub struct Recorder {
    cfg: ObsConfig,
    queries: Vec<QueryObs>,
    ring: TraceRing,
}

impl Recorder {
    /// Creates a recorder for the given configuration.
    pub fn new(cfg: ObsConfig) -> Recorder {
        let trace_cap = if cfg.enabled { cfg.trace_capacity } else { 0 };
        Recorder {
            cfg,
            queries: Vec::new(),
            ring: TraceRing::new(trace_cap),
        }
    }

    /// Whether recording is on.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Whether per-output causal provenance is on.
    #[inline]
    pub fn provenance(&self) -> bool {
        self.cfg.enabled && self.cfg.provenance
    }

    /// The configuration this recorder was built with.
    pub fn config(&self) -> ObsConfig {
        self.cfg
    }

    fn query_mut(&mut self, query: usize) -> &mut QueryObs {
        if self.queries.len() <= query {
            self.queries.resize_with(query + 1, QueryObs::default);
        }
        &mut self.queries[query]
    }

    /// Records one output item for `query`: its kind (insert vs retract),
    /// detection latency in arrivals, and deferral time in ticks.
    #[inline]
    pub fn record_output(&mut self, query: usize, insert: bool, detection: u64, deferral: u64) {
        if !self.cfg.enabled {
            return;
        }
        let q = self.query_mut(query);
        if insert {
            q.emitted += 1;
        } else {
            q.retracted += 1;
        }
        q.detection.record(detection);
        q.deferral.record(deferral);
    }

    /// For a caller about to record `n` spans in a row: how many of the
    /// leading ones the ring would not keep — all of them when it keeps
    /// none — already accounted for ([`TraceRing::skip`]). The caller
    /// builds and records only the rest.
    pub fn skip_spans(&mut self, n: u64) -> u64 {
        let skip = n.saturating_sub(self.ring.capacity() as u64);
        self.ring.skip(skip);
        skip
    }

    /// Records a pipeline-step span of the whole core (query
    /// [`NO_QUERY`]). No-op when disabled or `count == 0`.
    #[inline]
    pub fn span(&mut self, kind: SpanKind, count: u64, clock: u64, watermark: u64) {
        if self.cfg.enabled && count > 0 {
            self.ring.record(kind, NO_QUERY, count, clock, watermark);
        }
    }

    /// Records an output span (`Emit`/`Seal`/`Retract`) of `query` and
    /// hands it back for the caller to write its provenance into — the
    /// matched event ids, hold time, and with causal provenance on their
    /// arrival seqs, `pid`, `cause` and `bound` — in place, into a slot
    /// whose vectors a full ring reuses ([`TraceRing::record`]). `None`
    /// when disabled or keeping no spans.
    #[inline]
    pub fn output_span(
        &mut self,
        kind: SpanKind,
        query: u64,
        clock: u64,
        watermark: u64,
    ) -> Option<&mut Span> {
        if !self.cfg.enabled {
            return None;
        }
        self.ring.record(kind, query, 1, clock, watermark)
    }

    /// Per-query observations recorded so far (index = query registration
    /// order; may be shorter than the query count if a query has emitted
    /// nothing).
    pub fn query_obs(&self) -> &[QueryObs] {
        &self.queries
    }

    /// The trace ring.
    pub fn trace(&self) -> &TraceRing {
        &self.ring
    }

    /// JSON dump of the trace ring.
    pub fn trace_json(&self) -> String {
        self.ring.to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(ObsConfig::disabled());
        r.record_output(0, true, 5, 9);
        r.span(SpanKind::Route, 3, 10, 4);
        assert!(r.output_span(SpanKind::Emit, 0, 10, 4).is_none());
        assert!(r.query_obs().is_empty());
        assert!(r.trace().is_empty());
        assert_eq!(r.trace().recorded(), 0);
    }

    #[test]
    fn outputs_accumulate_per_query() {
        let mut r = Recorder::new(ObsConfig::default());
        r.record_output(1, true, 0, 2);
        r.record_output(1, false, 4, 8);
        r.record_output(0, true, 1, 1);
        assert_eq!(r.query_obs().len(), 2);
        assert_eq!(r.query_obs()[1].emitted, 1);
        assert_eq!(r.query_obs()[1].retracted, 1);
        assert_eq!(r.query_obs()[1].detection.count(), 2);
        assert_eq!(r.query_obs()[1].deferral.sum(), 10);
        assert_eq!(r.query_obs()[0].emitted, 1);
    }

    #[test]
    fn zero_count_spans_are_suppressed() {
        let mut r = Recorder::new(ObsConfig::default());
        r.span(SpanKind::Purge, 0, 10, 4);
        assert!(r.trace().is_empty());
        r.span(SpanKind::Purge, 2, 10, 4);
        assert_eq!(r.trace().len(), 1);
    }

    #[test]
    fn trace_capacity_zero_keeps_metrics_but_no_spans() {
        let mut r = Recorder::new(ObsConfig {
            trace_capacity: 0,
            ..ObsConfig::default()
        });
        r.record_output(0, true, 1, 1);
        r.span(SpanKind::Route, 1, 1, 0);
        assert_eq!(r.query_obs()[0].emitted, 1);
        assert!(r.trace().is_empty());
    }
}
