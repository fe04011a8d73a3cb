//! Engine output items.

use std::fmt;

use sequin_runtime::Match;
use sequin_types::codec::{fnv1a64, fnv1a64_extend};
use sequin_types::{ArrivalSeq, CodecError, Decode, Encode, EventId, Reader, Timestamp, Writer};

/// Whether an output item asserts or withdraws a match. The discriminant
/// is its tag in an OUTPUT frame and an emission-log record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum OutputKind {
    /// A (believed-)valid match.
    Insert = 0,
    /// Withdrawal of a previously inserted match (speculative negation
    /// emission only).
    Retract = 1,
}

impl Encode for OutputKind {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(*self as u8);
    }
}

impl Decode for OutputKind {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.get_tag(&[OutputKind::Insert, OutputKind::Retract], "OutputKind")
    }
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
    /// match-key encoding (`stable ‖ len ‖ ids`, each a little-endian
    /// `u64`), hashed as it is read, without building either.
    /// Kind-independent, so an insert and its later retraction share an
    /// id (that shared id *is* the parent link between them), and derived
    /// purely from the output itself, so it is identical across backends.
    /// Never 0 — lineage consumers use 0 as "no provenance".
    pub fn provenance_id(&self, stable_query: u64) -> u64 {
        let events = self.m.events();
        let ids = events.iter().map(|e| e.id().get());
        let words = [stable_query, events.len() as u64].into_iter().chain(ids);
        let hash = |h, word: u64| fnv1a64_extend(h, &word.to_le_bytes());
        words.fold(fnv1a64(&[]), hash).max(1)
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

    /// Provenance ids are pinned: bundles already written and pid filters
    /// already shared keep naming the same outputs. The pins are the ids
    /// of matches of 1–4 events under two stable query ids, as hashed from
    /// the encoded `stable ‖ match key` bytes.
    #[test]
    fn provenance_ids_are_pinned() {
        const PINS: [[u64; 4]; 2] = [
            [
                0xc91d_c700_8063_1d84,
                0x8e82_397e_1ee3_c9bc,
                0x073d_c1be_f797_9332,
                0xd1b0_c60a_bca3_2c77,
            ],
            [
                0xc0a0_c3dd_6a78_a145,
                0x6630_a8fe_473e_00b1,
                0x5352_063d_60c7_2f5f,
                0x1b6e_bab9_55e1_f00a,
            ],
        ];
        let mut reg = TypeRegistry::new();
        let a = reg.declare("A", &[("x", ValueKind::Int)]).unwrap();
        let ids = [7, 1 << 40, 3, 12_345_678_901];
        let events: Vec<_> = (0..4)
            .map(|i| {
                let at = Timestamp::new(10 * (i as u64 + 1));
                let ev = Event::builder(a, at).id(EventId::new(ids[i]));
                Arc::new(ev.attr(Value::Int(0)).build())
            })
            .collect();
        let components = ["A a", "A a, A b", "A a, A b, A c", "A a, A b, A c, A d"];
        for (stable, pins) in [0x5EED, 0xDEAD_BEEF_0123_4567].into_iter().zip(PINS) {
            for (n, pin) in pins.into_iter().enumerate() {
                let text = format!("PATTERN SEQ({}) WITHIN 100", components[n]);
                let q = parse(&text, &reg).unwrap();
                let item = OutputItem {
                    kind: OutputKind::Insert,
                    m: Match::new(&q, events[..=n].to_vec()),
                    emit_seq: ArrivalSeq::new(0),
                    emit_clock: Timestamp::new(0),
                    cause: None,
                };
                assert_eq!(
                    item.provenance_id(stable),
                    pin,
                    "{stable:x}, {} events",
                    n + 1
                );
            }
        }
    }
}
