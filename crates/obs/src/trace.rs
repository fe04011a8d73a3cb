//! Structured trace ring buffer.
//!
//! The engine records one [`Span`] per pipeline step it takes — ingest,
//! route, stack-insert, construct, negate, emit, purge — into a bounded
//! [`TraceRing`]. The ring keeps the most recent `capacity` spans and
//! counts what it evicted, so a dump after an error shows the steps
//! leading up to it without unbounded memory.
//!
//! Spans carry only logical quantities (sequence numbers, tick values,
//! event ids), so traces of a fixed-seed run are deterministic.

use std::collections::VecDeque;

use crate::json_escape;

/// The pipeline step a [`Span`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A chunk of items entered the core (count = items).
    Ingest,
    /// Events were routed to operator stacks (count = routed events).
    Route,
    /// Events were pushed onto active-instance stacks (count = insertions).
    StackInsert,
    /// Matches were constructed (count = matches).
    Construct,
    /// Matches were invalidated by negation (count = negated matches).
    Negate,
    /// One output item left the engine (provenance in `events`).
    Emit,
    /// Watermark-safe purge reclaimed state (count = purged instances).
    Purge,
    /// A held match was sealed and released once the watermark (or the
    /// adaptive slack bound) passed its deadline (`bound` = the deadline,
    /// `watermark` = the value that released it).
    Seal,
    /// A speculative insert was contradicted and retracted (`cause` = the
    /// late event that invalidated it).
    Retract,
}

impl SpanKind {
    /// Stable lower-snake name used in JSON dumps.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Ingest => "ingest",
            SpanKind::Route => "route",
            SpanKind::StackInsert => "stack_insert",
            SpanKind::Construct => "construct",
            SpanKind::Negate => "negate",
            SpanKind::Emit => "emit",
            SpanKind::Purge => "purge",
            SpanKind::Seal => "seal",
            SpanKind::Retract => "retract",
        }
    }

    /// True for the per-output kinds (`Emit`, `Seal`, `Retract`) that carry
    /// full causal provenance.
    pub fn is_output(self) -> bool {
        matches!(self, SpanKind::Emit | SpanKind::Seal | SpanKind::Retract)
    }
}

/// Marker for a span that is not attributed to a single query.
pub const NO_QUERY: u64 = u64::MAX;

/// One recorded pipeline step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Monotone sequence number (never reused, survives eviction).
    pub seq: u64,
    /// Which pipeline step this is.
    pub kind: SpanKind,
    /// Query index the step belongs to, or [`NO_QUERY`].
    pub query: u64,
    /// Step magnitude: items ingested, events routed/inserted, matches
    /// constructed/negated/purged; 1 for `Emit`.
    pub count: u64,
    /// Engine clock (max occurrence timestamp seen), in ticks.
    pub clock: u64,
    /// Published watermark, in ticks.
    pub watermark: u64,
    /// Output provenance: ids of the matched events, in positive order.
    pub events: Vec<u64>,
    /// Output spans only: how long the match was held due to disorder —
    /// event-time ticks between the match's own span and its emission.
    pub held: u64,
    /// Stable provenance id of the output this span describes (0 = none).
    /// An insert and its later retraction share a `pid`, which is the
    /// parent link between them.
    pub pid: u64,
    /// Causal link (0 = none): the arriving event id that triggered an
    /// immediate emission, or — for `Retract` — the late event that
    /// contradicted the speculative insert.
    pub cause: u64,
    /// `Seal` only: the deadline in ticks the match had to wait out
    /// before the watermark/slack bound released it.
    pub bound: u64,
    /// Output provenance: arrival sequence numbers of the matched events,
    /// parallel to `events`.
    pub arrivals: Vec<u64>,
}

impl Span {
    /// Renders the span as a JSON object.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"seq\":{},\"kind\":\"{}\",\"query\":{},\"count\":{},\"clock\":{},\"watermark\":{}",
            self.seq,
            json_escape(self.kind.name()),
            if self.query == NO_QUERY {
                "null".to_string()
            } else {
                self.query.to_string()
            },
            self.count,
            self.clock,
            self.watermark,
        );
        if !self.events.is_empty() || self.kind.is_output() {
            s.push_str(",\"events\":[");
            for (i, id) in self.events.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&id.to_string());
            }
            s.push(']');
            if !self.arrivals.is_empty() {
                s.push_str(",\"arrivals\":[");
                for (i, a) in self.arrivals.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str(&a.to_string());
                }
                s.push(']');
            }
            s.push_str(&format!(",\"held\":{}", self.held));
        }
        if self.pid != 0 {
            s.push_str(&format!(",\"pid\":\"{:016x}\"", self.pid));
        }
        if self.cause != 0 {
            s.push_str(&format!(",\"cause\":{}", self.cause));
        }
        if self.kind == SpanKind::Seal {
            s.push_str(&format!(",\"bound\":{}", self.bound));
        }
        s.push('}');
        s
    }
}

/// A bounded ring of the most recent [`Span`]s.
#[derive(Debug, Clone)]
pub struct TraceRing {
    capacity: usize,
    next_seq: u64,
    dropped: u64,
    buf: VecDeque<Span>,
}

impl TraceRing {
    /// Creates a ring keeping at most `capacity` spans (0 disables
    /// recording entirely).
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing {
            capacity,
            next_seq: 0,
            dropped: 0,
            buf: VecDeque::with_capacity(capacity.min(1024)),
        }
    }

    /// Appends a span with the given head, the ring's next `seq` and every
    /// output field zero or empty, and hands it back for the caller to
    /// fill in; `None` when the ring keeps nothing. A full ring evicts its
    /// oldest span and writes the new one into its slot: the evicted
    /// span's `events` and `arrivals` are cleared with their capacity
    /// kept, so recording into a full ring allocates nothing.
    pub fn record(
        &mut self,
        kind: SpanKind,
        query: u64,
        count: u64,
        clock: u64,
        watermark: u64,
    ) -> Option<&mut Span> {
        if self.capacity == 0 {
            return None;
        }
        let (mut events, mut arrivals) = (Vec::new(), Vec::new());
        if self.buf.len() == self.capacity {
            let evicted = self.buf.pop_front().expect("a full ring holds a span");
            self.dropped += 1;
            (events, arrivals) = (evicted.events, evicted.arrivals);
            events.clear();
            arrivals.clear();
        }
        self.buf.push_back(Span {
            seq: self.next_seq,
            kind,
            query,
            count,
            clock,
            watermark,
            events,
            held: 0,
            pid: 0,
            cause: 0,
            bound: 0,
            arrivals,
        });
        self.next_seq += 1;
        self.buf.back_mut()
    }

    /// Accounts for `n` spans that would be pushed and then evicted before
    /// anything reads the ring: their `seq` numbers are spent and they
    /// count as dropped, but nothing is built or stored. A caller about to
    /// push more spans than the capacity skips the leading ones this way,
    /// and the ring ends byte-identical to pushing them all.
    pub fn skip(&mut self, n: u64) {
        if self.capacity == 0 {
            return;
        }
        self.next_seq += n;
        self.dropped += n;
    }

    /// The most spans the ring holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of spans currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no spans are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Number of spans evicted to stay within capacity.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total spans ever recorded (held + evicted).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// The held spans, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.buf.iter()
    }

    /// Dumps the ring as a JSON object: metadata plus the span array,
    /// oldest first.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"capacity\":{},\"recorded\":{},\"dropped\":{},\"spans\":[",
            self.capacity, self.next_seq, self.dropped
        );
        for (i, span) in self.buf.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&span.to_json());
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(ring: &mut TraceRing, kind: SpanKind, count: u64) -> Option<&mut Span> {
        ring.record(kind, 0, count, 10, 5)
    }

    #[test]
    fn ring_keeps_the_most_recent_spans() {
        let mut ring = TraceRing::new(3);
        for i in 0..5 {
            push(&mut ring, SpanKind::Route, i);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.recorded(), 5);
        let counts: Vec<u64> = ring.spans().map(|s| s.count).collect();
        assert_eq!(counts, vec![2, 3, 4]);
        let seqs: Vec<u64> = ring.spans().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    /// Skipping the spans a run of pushes would evict leaves the ring as
    /// pushing them all does, whatever it held before the run.
    #[test]
    fn skipping_what_would_be_evicted_is_pushing_it() {
        for (held, run) in [(0u64, 5u64), (2, 3), (3, 4), (1, 9)] {
            let (mut pushed, mut skipped) = (TraceRing::new(3), TraceRing::new(3));
            for i in 0..held {
                push(&mut pushed, SpanKind::Route, i);
                push(&mut skipped, SpanKind::Route, i);
            }
            let skip = run.saturating_sub(3);
            skipped.skip(skip);
            for i in held..held + run {
                push(&mut pushed, SpanKind::Route, i);
                if i >= held + skip {
                    push(&mut skipped, SpanKind::Route, i);
                }
            }
            assert_eq!(
                skipped.to_json(),
                pushed.to_json(),
                "{held} held, {run} pushed"
            );
        }
    }

    /// A span written into the slot of an evicted output span shows
    /// nothing of it: a plain emit after a seal with provenance renders
    /// no `pid`, `cause`, `bound` or `arrivals`, and its events are its
    /// own.
    #[test]
    fn a_reused_slot_keeps_nothing_of_the_span_it_held() {
        let mut ring = TraceRing::new(1);
        let seal = ring.record(SpanKind::Seal, 3, 1, 40, 30).unwrap();
        seal.events.extend([3, 7, 9]);
        seal.arrivals.extend([1, 4, 6]);
        (seal.held, seal.pid, seal.cause, seal.bound) = (12, 0xABCD, 7, 35);
        let emit = ring.record(SpanKind::Emit, 2, 1, 50, 45).unwrap();
        emit.events.push(11);
        emit.held = 5;
        assert_eq!(
            ring.to_json(),
            "{\"capacity\":1,\"recorded\":2,\"dropped\":1,\"spans\":[\
             {\"seq\":1,\"kind\":\"emit\",\"query\":2,\"count\":1,\"clock\":50,\
             \"watermark\":45,\"events\":[11],\"held\":5}]}"
        );
        let emitted = ring.spans().next().unwrap();
        assert!(emitted.arrivals.is_empty() && emitted.arrivals.capacity() >= 3);
    }

    #[test]
    fn zero_capacity_records_nothing() {
        let mut ring = TraceRing::new(0);
        assert!(push(&mut ring, SpanKind::Ingest, 1).is_none());
        ring.skip(4);
        assert!(ring.is_empty());
        assert_eq!(ring.recorded(), 0);
        assert_eq!(
            ring.to_json(),
            "{\"capacity\":0,\"recorded\":0,\"dropped\":0,\"spans\":[]}"
        );
    }

    #[test]
    fn emit_spans_dump_provenance() {
        let mut ring = TraceRing::new(8);
        let emit = ring.record(SpanKind::Emit, 2, 1, 40, 30).unwrap();
        emit.events.extend([3, 7, 9]);
        emit.arrivals.extend([1, 4, 6]);
        (emit.held, emit.pid, emit.cause) = (12, 0xABCD, 7);
        let json = ring.to_json();
        assert!(json.contains("\"kind\":\"emit\""));
        assert!(json.contains("\"events\":[3,7,9]"));
        assert!(json.contains("\"arrivals\":[1,4,6]"));
        assert!(json.contains("\"held\":12"));
        assert!(json.contains("\"query\":2"));
        assert!(json.contains("\"pid\":\"000000000000abcd\""));
        assert!(json.contains("\"cause\":7"));
    }

    #[test]
    fn seal_and_retract_spans_carry_decision_context() {
        let mut ring = TraceRing::new(8);
        let seal = push(&mut ring, SpanKind::Seal, 1).unwrap();
        (seal.bound, seal.watermark, seal.pid) = (42, 45, 1);
        let retract = push(&mut ring, SpanKind::Retract, 1).unwrap();
        (retract.cause, retract.pid) = (99, 1);
        let json = ring.to_json();
        assert!(json.contains("\"kind\":\"seal\""));
        assert!(json.contains("\"bound\":42"));
        assert!(json.contains("\"kind\":\"retract\""));
        assert!(json.contains("\"cause\":99"));
        assert!(SpanKind::Seal.is_output());
        assert!(SpanKind::Retract.is_output());
        assert!(!SpanKind::Purge.is_output());
    }

    #[test]
    fn whole_core_spans_serialize_query_null() {
        let mut ring = TraceRing::new(2);
        ring.record(SpanKind::Ingest, NO_QUERY, 64, 10, 5);
        assert!(ring.to_json().contains("\"query\":null"));
    }
}
