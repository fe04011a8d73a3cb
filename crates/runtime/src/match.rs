//! Emitted pattern matches.

use std::fmt;

use sequin_query::Query;
use sequin_types::{EventId, EventRef, Timestamp, Value};

/// The identity of a match: the event ids of its positive components, in
/// positive order. Two emissions with equal keys denote the same match
/// (used for deduplication in tests and for pairing `Insert`/`Retract`
/// items under the speculative disorder policy).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MatchKey(Vec<EventId>);

impl MatchKey {
    /// Builds a key from positive-order events.
    pub fn from_events(events: &[EventRef]) -> MatchKey {
        MatchKey(events.iter().map(|e| e.id()).collect())
    }

    /// The component event ids, in positive order.
    pub fn event_ids(&self) -> &[EventId] {
        &self.0
    }
}

impl fmt::Display for MatchKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, id) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{id}")?;
        }
        write!(f, "]")
    }
}

/// A complete pattern match: the positive-component events (in positive
/// order) plus the projected output tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct Match {
    events: Vec<EventRef>,
    output: Vec<Value>,
}

impl Match {
    /// Builds a match from positive-order events, evaluating the query's
    /// projections.
    pub fn new(query: &Query, events: Vec<EventRef>) -> Match {
        let output = query.with_positives(&events, |binding| query.project(binding));
        Match { events, output }
    }

    /// The matched events, in positive order.
    pub fn events(&self) -> &[EventRef] {
        &self.events
    }

    /// The projected output tuple (`RETURN` clause, or event ids).
    pub fn output(&self) -> &[Value] {
        &self.output
    }

    /// The match identity key.
    pub fn key(&self) -> MatchKey {
        MatchKey::from_events(&self.events)
    }

    /// Occurrence timestamp of the first positive component.
    pub fn first_ts(&self) -> Timestamp {
        self.events
            .first()
            .map(|e| e.ts())
            .unwrap_or(Timestamp::MIN)
    }

    /// Occurrence timestamp of the last positive component.
    pub fn last_ts(&self) -> Timestamp {
        self.events.last().map(|e| e.ts()).unwrap_or(Timestamp::MIN)
    }

    /// The latest *arrival* among the constituents — the moment the match
    /// became physically constructible. Latency metrics measure from here.
    pub fn completion_arrival(&self) -> sequin_types::ArrivalSeq {
        self.events
            .iter()
            .map(|e| e.arrival())
            .max()
            .unwrap_or_default()
    }
}

impl fmt::Display for Match {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "match{} -> (", self.key())?;
        for (i, v) in self.output.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl sequin_types::Encode for MatchKey {
    fn encode(&self, w: &mut sequin_types::Writer) {
        self.0.encode(w);
    }
}

impl sequin_types::Decode for MatchKey {
    fn decode(r: &mut sequin_types::Reader<'_>) -> Result<Self, sequin_types::CodecError> {
        Ok(MatchKey(Vec::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequin_query::parse;
    use sequin_types::{ArrivalSeq, Event, Timestamp, TypeRegistry, ValueKind};
    use std::sync::Arc;

    fn setup() -> (TypeRegistry, Vec<EventRef>) {
        let mut reg = TypeRegistry::new();
        let a = reg.declare("A", &[("x", ValueKind::Int)]).unwrap();
        let b = reg.declare("B", &[("x", ValueKind::Int)]).unwrap();
        let e1 = Arc::new(
            Event::builder(a, Timestamp::new(1))
                .id(EventId::new(1))
                .attr(Value::Int(10))
                .build()
                .with_arrival(ArrivalSeq::new(5)),
        );
        let e2 = Arc::new(
            Event::builder(b, Timestamp::new(2))
                .id(EventId::new(2))
                .attr(Value::Int(20))
                .build()
                .with_arrival(ArrivalSeq::new(3)),
        );
        (reg, vec![e1, e2])
    }

    #[test]
    fn match_with_projection() {
        let (reg, events) = setup();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 10 RETURN b.x, a.ts", &reg).unwrap();
        let m = Match::new(&q, events);
        assert_eq!(m.output(), &[Value::Int(20), Value::Int(1)]);
        assert_eq!(m.first_ts(), Timestamp::new(1));
        assert_eq!(m.last_ts(), Timestamp::new(2));
        assert_eq!(m.completion_arrival(), ArrivalSeq::new(5));
    }

    #[test]
    fn default_projection_is_event_ids() {
        let (reg, events) = setup();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 10", &reg).unwrap();
        let m = Match::new(&q, events);
        assert_eq!(m.output(), &[Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn keys_equal_iff_same_events() {
        let (reg, events) = setup();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 10", &reg).unwrap();
        let m1 = Match::new(&q, events.clone());
        let m2 = Match::new(&q, events);
        assert_eq!(m1.key(), m2.key());
        assert_eq!(m1.key().event_ids(), &[EventId::new(1), EventId::new(2)]);
    }

    #[test]
    fn display_nonempty() {
        let (reg, events) = setup();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 10", &reg).unwrap();
        let m = Match::new(&q, events);
        assert!(m.to_string().contains("match"));
        assert!(m.key().to_string().starts_with('['));
    }
}
