//! Engine output items.

use std::fmt;

use sequin_runtime::Match;
use sequin_types::codec::{fnv1a64, Encode, Writer};
use sequin_types::{ArrivalSeq, EventId, Timestamp};

/// Whether an output item asserts or withdraws a match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputKind {
    /// A (believed-)valid match.
    Insert,
    /// Withdrawal of a previously inserted match (speculative negation
    /// emission only).
    Retract,
}

/// One emitted result, annotated with enough bookkeeping to compute the
/// evaluation's latency metrics:
///
/// * **arrival latency** = `emit_seq − match.completion_arrival()` — how
///   many arrivals passed between the match becoming constructible and the
///   engine emitting it (zero for the native engine on negation-free
///   queries; ~K's worth of arrivals for the buffered baseline);
/// * **event-time latency** = `emit_clock − match.last_ts()` — how far the
///   stream's clock had advanced past the match's own span at emission.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputItem {
    /// Insert or retract.
    pub kind: OutputKind,
    /// The match.
    pub m: Match,
    /// Arrival sequence number of the item whose ingestion emitted this.
    pub emit_seq: ArrivalSeq,
    /// The engine clock (max timestamp seen) at emission.
    pub emit_clock: Timestamp,
    /// Causal trigger: the arriving event whose ingestion directly forced
    /// this emission — the match-completing event for an immediate
    /// (non-deferred) insert, or the late negative that contradicted a
    /// speculative insert for a retract. `None` when the release was
    /// decided by the watermark/slack bound alone (sealed drains, lazy
    /// construction, end-of-stream flushes).
    pub cause: Option<EventId>,
}

impl OutputItem {
    /// Arrival latency in ingested items (see type docs).
    pub fn arrival_latency(&self) -> u64 {
        self.emit_seq
            .get()
            .saturating_sub(self.m.completion_arrival().get())
    }

    /// Event-time latency in ticks (see type docs).
    pub fn event_time_latency(&self) -> u64 {
        self.emit_clock
            .ticks()
            .saturating_sub(self.m.last_ts().ticks())
    }

    /// Stable provenance id: FNV-1a over the query's stable id and the
    /// match-key encoding. Kind-independent, so an insert and its later
    /// retraction share an id (that shared id *is* the parent link
    /// between them), and derived purely from the output itself, so it is
    /// identical across backends. Never 0 — lineage
    /// consumers use 0 as "no provenance".
    pub fn provenance_id(&self, stable_query: u64) -> u64 {
        let mut w = Writer::new();
        w.put_u64(stable_query);
        self.m.key().encode(&mut w);
        fnv1a64(&w.into_bytes()).max(1)
    }
}

impl fmt::Display for OutputItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self.kind {
            OutputKind::Insert => "+",
            OutputKind::Retract => "-",
        };
        write!(f, "{tag}{}", self.m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequin_query::parse;
    use sequin_types::{Event, EventId, Timestamp, TypeRegistry, Value, ValueKind};
    use std::sync::Arc;

    #[test]
    fn latency_accessors() {
        let mut reg = TypeRegistry::new();
        let a = reg.declare("A", &[("x", ValueKind::Int)]).unwrap();
        let q = parse("PATTERN SEQ(A a) WITHIN 10", &reg).unwrap();
        let ev = Arc::new(
            Event::builder(a, Timestamp::new(50))
                .id(EventId::new(1))
                .attr(Value::Int(0))
                .build()
                .with_arrival(ArrivalSeq::new(10)),
        );
        let item = OutputItem {
            kind: OutputKind::Insert,
            m: Match::new(&q, vec![ev]),
            emit_seq: ArrivalSeq::new(14),
            emit_clock: Timestamp::new(65),
            cause: Some(EventId::new(1)),
        };
        assert_eq!(item.arrival_latency(), 4);
        assert_eq!(item.event_time_latency(), 15);
        assert!(item.to_string().starts_with('+'));
        // Kind-independent and stable-query-scoped.
        let mut retract = item.clone();
        retract.kind = OutputKind::Retract;
        retract.cause = None;
        assert_eq!(item.provenance_id(7), retract.provenance_id(7));
        assert_ne!(item.provenance_id(7), item.provenance_id(8));
        assert_ne!(item.provenance_id(7), 0);
    }
}
