//! Control 1: the classic engine fed raw arrivals.

use std::sync::Arc;

use sequin_engine::{EngineConfig, OutputItem, OutputKind};
use sequin_query::Query;
use sequin_runtime::{Match, RuntimeStats};
use sequin_types::{ArrivalSeq, StreamItem, Timestamp};

use crate::classic::ClassicSase;
use crate::strategy::Engine;

/// The state-of-the-art baseline: arrivals go straight into the classic
/// SASE pipeline, which *assumes* they are timestamp-ordered.
///
/// On ordered input this is the fastest correct strategy (no disorder tax
/// at all). Under disorder it silently produces the wrong match set —
/// quantified in experiment E1 — which is exactly why it is here.
#[derive(Debug)]
pub struct InOrderEngine {
    inner: ClassicSase,
    query: Arc<Query>,
    next_seq: ArrivalSeq,
    clock: Timestamp,
}

impl InOrderEngine {
    /// Creates the engine. Only the purge settings of `config` apply; the
    /// classic pipeline has no disorder machinery to configure.
    pub fn new(query: Arc<Query>, config: EngineConfig) -> InOrderEngine {
        InOrderEngine {
            inner: ClassicSase::new(Arc::clone(&query), config.purge),
            query,
            next_seq: ArrivalSeq::default(),
            clock: Timestamp::MIN,
        }
    }
}

impl Engine for InOrderEngine {
    fn ingest(&mut self, item: &StreamItem) -> Vec<OutputItem> {
        let event = match item {
            StreamItem::Event(e) => e,
            // the classic pipeline predates punctuation; ignore it
            StreamItem::Punctuation(_) => return Vec::new(),
        };
        self.next_seq = self.next_seq.next();
        let stamped = Arc::new(event.as_ref().clone().with_arrival(self.next_seq));
        self.clock = self.clock.max(stamped.ts());
        self.inner
            .ingest(&stamped)
            .into_iter()
            .map(|events| OutputItem {
                kind: OutputKind::Insert,
                m: Match::new(&self.query, events),
                emit_seq: self.next_seq,
                emit_clock: self.clock,
                cause: Some(stamped.id()),
            })
            .collect()
    }

    fn finish(&mut self) -> Vec<OutputItem> {
        Vec::new()
    }

    fn stats(&self) -> RuntimeStats {
        self.inner.stats()
    }

    fn state_size(&self) -> usize {
        self.inner.state_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::run_to_end;
    use sequin_query::parse;
    use sequin_types::{Event, EventId, TypeRegistry, Value, ValueKind};

    fn setup() -> (TypeRegistry, Arc<Query>) {
        let mut reg = TypeRegistry::new();
        for name in ["A", "B"] {
            reg.declare(name, &[("x", ValueKind::Int)]).unwrap();
        }
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 100", &reg).unwrap();
        (reg, q)
    }

    fn item(reg: &TypeRegistry, ty: &str, id: u64, ts: u64) -> StreamItem {
        StreamItem::Event(Arc::new(
            Event::builder(reg.lookup(ty).unwrap(), Timestamp::new(ts))
                .id(EventId::new(id))
                .attr(Value::Int(0))
                .build(),
        ))
    }

    #[test]
    fn ordered_input_matches_with_zero_arrival_latency() {
        let (reg, q) = setup();
        let mut eng = InOrderEngine::new(q, EngineConfig::default());
        let out = run_to_end(&mut eng, &[item(&reg, "A", 1, 10), item(&reg, "B", 2, 20)]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].arrival_latency(), 0);
        assert_eq!(out[0].kind, OutputKind::Insert);
    }

    #[test]
    fn punctuation_is_ignored() {
        let (reg, q) = setup();
        let mut eng = InOrderEngine::new(q, EngineConfig::default());
        assert!(eng
            .ingest(&StreamItem::Punctuation(Timestamp::new(5)))
            .is_empty());
        let out = run_to_end(&mut eng, &[item(&reg, "A", 1, 10), item(&reg, "B", 2, 20)]);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn disorder_loses_the_match() {
        let (reg, q) = setup();
        let mut eng = InOrderEngine::new(q, EngineConfig::default());
        let out = run_to_end(&mut eng, &[item(&reg, "B", 2, 20), item(&reg, "A", 1, 10)]);
        assert!(out.is_empty());
        assert_eq!(eng.state_size(), 1); // the A sits uselessly in its stack
    }
}
