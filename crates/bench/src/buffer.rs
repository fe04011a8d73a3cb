//! Control 2: K-slack reorder buffer in front of the classic engine.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use sequin_engine::{EngineConfig, OutputItem, OutputKind, WatermarkSource};
use sequin_query::Query;
use sequin_runtime::{Match, RuntimeStats};
use sequin_types::{ArrivalSeq, Duration, EventId, EventRef, StreamItem, Timestamp};

use crate::classic::ClassicSase;
use crate::strategy::Engine;

/// A K-slack reorder buffer: holds events until the watermark
/// (`clock − K`, or a punctuation) passes them, then releases them in
/// timestamp order.
///
/// This is the textbook disorder fix the paper argues against: simple and
/// correct under the bound, but *every* event — in-order or not — waits
/// out the full slack, and the buffer holds the entire `K`-wide stream
/// tail.
#[derive(Debug, Default)]
pub struct KSlackBuffer {
    heap: BinaryHeap<Reverse<HeapEntry>>,
    clock: Timestamp,
}

#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct HeapEntry {
    ts: Timestamp,
    id: EventId,
    seq: ArrivalSeq,
    /// Kept out of the ordering key (events compare by `(ts, id, seq)`).
    event: OrdEvent,
}

/// Wrapper giving `EventRef` a no-op ordering so it can live in the heap
/// entry without affecting comparisons (ts/id/seq decide first and are
/// unique per entry).
#[derive(Debug)]
struct OrdEvent(EventRef);

impl PartialEq for OrdEvent {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl Eq for OrdEvent {}
impl PartialOrd for OrdEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdEvent {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl KSlackBuffer {
    /// Creates an empty buffer.
    pub fn new() -> KSlackBuffer {
        KSlackBuffer::default()
    }

    /// Offers an event; advances the internal clock.
    pub fn push(&mut self, event: EventRef, seq: ArrivalSeq) {
        self.clock = self.clock.max(event.ts());
        self.heap.push(Reverse(HeapEntry {
            ts: event.ts(),
            id: event.id(),
            seq,
            event: OrdEvent(event),
        }));
    }

    /// Releases every buffered event with `ts <= watermark`, in timestamp
    /// order.
    pub fn release(&mut self, watermark: Timestamp) -> Vec<EventRef> {
        let mut out = Vec::new();
        while let Some(Reverse(top)) = self.heap.peek() {
            if top.ts > watermark {
                break;
            }
            let Reverse(entry) = self.heap.pop().expect("peeked");
            out.push(entry.event.0);
        }
        out
    }

    /// Drains the entire buffer in timestamp order.
    pub fn drain_all(&mut self) -> Vec<EventRef> {
        self.release(Timestamp::MAX)
    }

    /// Buffered event count.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The maximum timestamp seen so far.
    pub fn clock(&self) -> Timestamp {
        self.clock
    }
}

/// The buffered strategy: [`KSlackBuffer`] feeding a [`ClassicSase`].
#[derive(Debug)]
pub struct BufferedEngine {
    buffer: KSlackBuffer,
    inner: ClassicSase,
    query: Arc<Query>,
    k: Duration,
    source: WatermarkSource,
    /// The largest punctuation seen.
    punct: Timestamp,
    next_seq: ArrivalSeq,
}

impl BufferedEngine {
    /// Creates the engine with the disorder bound `K`, watermark source
    /// and purge settings from `config` (the bound is always the fixed
    /// `k_slack`: the buffer has no adaptive estimate).
    pub fn new(query: Arc<Query>, config: EngineConfig) -> BufferedEngine {
        BufferedEngine {
            buffer: KSlackBuffer::new(),
            inner: ClassicSase::new(Arc::clone(&query), config.purge),
            query,
            k: config.k_slack,
            source: config.watermark,
            punct: Timestamp::MIN,
            next_seq: ArrivalSeq::default(),
        }
    }

    /// The low-watermark driving buffer release: `clock − K`, the largest
    /// punctuation, or the larger of the two, per the configured source.
    /// Both only grow, so it never retreats.
    pub fn watermark(&self) -> Timestamp {
        self.source
            .watermark(self.buffer.clock(), self.k, self.punct)
    }

    /// Feeds the classic engine every buffered event at or below
    /// `watermark`, in timestamp order.
    fn release(&mut self, watermark: Timestamp) -> Vec<OutputItem> {
        let mut out = Vec::new();
        for ev in self.buffer.release(watermark) {
            for events in self.inner.ingest(&ev) {
                out.push(OutputItem {
                    kind: OutputKind::Insert,
                    m: Match::new(&self.query, events),
                    emit_seq: self.next_seq,
                    emit_clock: self.buffer.clock(),
                    // released by the slack bound, not an arriving event
                    cause: None,
                });
            }
        }
        out
    }
}

impl Engine for BufferedEngine {
    fn ingest(&mut self, item: &StreamItem) -> Vec<OutputItem> {
        match item {
            StreamItem::Event(event) => {
                self.next_seq = self.next_seq.next();
                let stamped = Arc::new(event.as_ref().clone().with_arrival(self.next_seq));
                self.buffer.push(stamped, self.next_seq);
            }
            StreamItem::Punctuation(t) => {
                self.punct = self.punct.max(*t);
            }
        }
        self.release(self.watermark())
    }

    fn finish(&mut self) -> Vec<OutputItem> {
        self.release(Timestamp::MAX)
    }

    fn stats(&self) -> RuntimeStats {
        self.inner.stats()
    }

    fn state_size(&self) -> usize {
        self.inner.state_size() + self.buffer.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::run_to_end;
    use sequin_query::parse;
    use sequin_types::{Event, TypeRegistry, Value, ValueKind};

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
    fn buffer_releases_in_timestamp_order() {
        let mut buf = KSlackBuffer::new();
        for (id, ts) in [(1u64, 30u64), (2, 10), (3, 20)] {
            let e = Arc::new(
                Event::builder(sequin_types::EventTypeId::from_index(0), Timestamp::new(ts))
                    .id(EventId::new(id))
                    .build(),
            );
            buf.push(e, ArrivalSeq::new(id));
        }
        let released = buf.release(Timestamp::new(20));
        let ts: Vec<u64> = released.iter().map(|e| e.ts().ticks()).collect();
        assert_eq!(ts, [10, 20]);
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.drain_all().len(), 1);
        assert!(buf.is_empty());
    }

    #[test]
    fn recovers_match_lost_by_inorder() {
        let (reg, q) = setup();
        let mut eng = BufferedEngine::new(q, EngineConfig::with_k(Duration::new(50)));
        // B(ts=20) arrives before A(ts=10): buffered strategy reorders
        let out = run_to_end(&mut eng, &[item(&reg, "B", 2, 20), item(&reg, "A", 1, 10)]);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn results_wait_out_the_slack() {
        let (reg, q) = setup();
        let mut eng = BufferedEngine::new(q, EngineConfig::with_k(Duration::new(50)));
        let mut out = Vec::new();
        out.extend(eng.ingest(&item(&reg, "A", 1, 10)));
        out.extend(eng.ingest(&item(&reg, "B", 2, 20)));
        assert!(out.is_empty(), "nothing released while clock - K < ts");
        assert_eq!(eng.state_size(), 2);
        // an unrelated event pushes the clock past 20 + K
        out.extend(eng.ingest(&item(&reg, "A", 3, 71)));
        assert_eq!(out.len(), 1);
        assert!(out[0].arrival_latency() >= 1);
    }

    #[test]
    fn punctuation_advances_watermark_when_enabled() {
        let (reg, q) = setup();
        let mut cfg = EngineConfig::with_k(Duration::new(1_000_000));
        cfg.watermark = WatermarkSource::Both;
        let mut eng = BufferedEngine::new(q, cfg);
        let mut out = Vec::new();
        out.extend(eng.ingest(&item(&reg, "A", 1, 10)));
        out.extend(eng.ingest(&item(&reg, "B", 2, 20)));
        assert!(out.is_empty());
        out.extend(eng.ingest(&StreamItem::Punctuation(Timestamp::new(25))));
        assert_eq!(out.len(), 1, "punctuation released the buffered events");
    }

    #[test]
    fn finish_drains_everything() {
        let (reg, q) = setup();
        let mut eng = BufferedEngine::new(q, EngineConfig::with_k(Duration::new(1_000_000)));
        eng.ingest(&item(&reg, "A", 1, 10));
        eng.ingest(&item(&reg, "B", 2, 20));
        let out = eng.finish();
        assert_eq!(out.len(), 1);
        assert_eq!(eng.state_size(), eng.stats().insertions as usize);
    }
}
