//! The event record.

use std::fmt;
use std::sync::Arc;

use crate::schema::{EventTypeId, FieldId, TypeRegistry};
use crate::time::{ArrivalSeq, Timestamp};
use crate::value::Value;

/// A globally unique event identifier, assigned by the source/generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EventId(u64);

impl EventId {
    /// Creates an event id from a raw number.
    #[inline]
    pub const fn new(n: u64) -> Self {
        EventId(n)
    }

    /// Returns the raw number.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Shared handle to an immutable [`Event`].
///
/// Operator state (active instance stacks, reorder buffers, emitted matches)
/// all alias the same allocation.
pub type EventRef = Arc<Event>;

/// An immutable event record: type, occurrence timestamp, attributes, and
/// bookkeeping (id, arrival sequence).
///
/// Up to three attributes live in the record itself, so an `EventRef` is
/// one allocation and an attribute is one pointer hop from it; a type with
/// more spills them to one boxed slice.
///
/// The **occurrence timestamp** (`ts`) is the source-assigned logical time
/// that query semantics — sequencing, windows, negation intervals — are
/// defined over. The **arrival sequence** (`seq`) records the order the
/// engine physically received events in; it is `ArrivalSeq::default()` until
/// ingestion stamps it via [`Event::with_arrival`].
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    id: EventId,
    event_type: EventTypeId,
    ts: Timestamp,
    seq: ArrivalSeq,
    attrs: Attrs,
}

/// How many attributes an [`Event`] holds without a second allocation.
const INLINE_ATTRS: usize = 3;

/// An event's attributes: inline by count, or spilled past
/// [`INLINE_ATTRS`]. Each count is its own variant, so the store needs no
/// length field and the enum is no larger than three values.
#[derive(Clone)]
pub(crate) enum Attrs {
    A0,
    A1([Value; 1]),
    A2([Value; 2]),
    A3([Value; 3]),
    Spilled(Box<[Value]>),
}

impl Attrs {
    fn as_slice(&self) -> &[Value] {
        match self {
            Attrs::A0 => &[],
            Attrs::A1(v) => v,
            Attrs::A2(v) => v,
            Attrs::A3(v) => v,
            Attrs::Spilled(v) => v,
        }
    }

    /// Appends `v`; only a store that is already full moves to the heap.
    fn push(self, v: Value) -> Attrs {
        match self {
            Attrs::A0 => Attrs::A1([v]),
            Attrs::A1([a]) => Attrs::A2([a, v]),
            Attrs::A2([a, b]) => Attrs::A3([a, b, v]),
            Attrs::A3(full) => {
                let mut spill = Vec::with_capacity(INLINE_ATTRS + 1);
                spill.extend(full);
                spill.push(v);
                Attrs::Spilled(spill.into_boxed_slice())
            }
            Attrs::Spilled(spill) => {
                let mut spill = spill.into_vec();
                spill.push(v);
                Attrs::Spilled(spill.into_boxed_slice())
            }
        }
    }

    fn extend(mut self, vs: impl IntoIterator<Item = Value>) -> Attrs {
        for v in vs {
            self = self.push(v);
        }
        self
    }
}

impl From<Vec<Value>> for Attrs {
    fn from(vs: Vec<Value>) -> Attrs {
        if vs.len() > INLINE_ATTRS {
            Attrs::Spilled(vs.into_boxed_slice())
        } else {
            Attrs::A0.extend(vs)
        }
    }
}

impl fmt::Debug for Attrs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl PartialEq for Attrs {
    fn eq(&self, other: &Attrs) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// Reads `n` attributes from `next` straight into their store: inline up to
/// [`INLINE_ATTRS`], one exact-size boxed slice past it.
pub(crate) fn read_attrs<E>(
    n: usize,
    mut next: impl FnMut() -> Result<Value, E>,
) -> Result<Attrs, E> {
    if n <= INLINE_ATTRS {
        let mut attrs = Attrs::A0;
        for _ in 0..n {
            attrs = attrs.push(next()?);
        }
        return Ok(attrs);
    }
    let mut spill = Vec::with_capacity(n);
    for _ in 0..n {
        spill.push(next()?);
    }
    Ok(Attrs::Spilled(spill.into_boxed_slice()))
}

impl Event {
    /// Creates an event with default id/arrival bookkeeping.
    ///
    /// `attrs` must be ordered per the event type's schema; this is not
    /// checked here (the generator and ingestion layers validate against the
    /// registry — see [`Event::validate`]).
    pub fn new(event_type: EventTypeId, ts: Timestamp, attrs: Vec<Value>) -> Event {
        Event {
            id: EventId::default(),
            event_type,
            ts,
            seq: ArrivalSeq::default(),
            attrs: attrs.into(),
        }
    }

    /// Starts building an event with explicit bookkeeping fields.
    pub fn builder(event_type: EventTypeId, ts: Timestamp) -> EventBuilder {
        EventBuilder {
            id: EventId::default(),
            event_type,
            ts,
            attrs: Attrs::A0,
        }
    }

    /// Every field as the codec read it.
    pub(crate) fn decoded(
        id: EventId,
        event_type: EventTypeId,
        ts: Timestamp,
        seq: ArrivalSeq,
        attrs: Attrs,
    ) -> Event {
        Event {
            id,
            event_type,
            ts,
            seq,
            attrs,
        }
    }

    /// Returns a copy stamped with an arrival sequence number. Inline
    /// attributes are copied with the record, so the copy allocates only
    /// when its type has more than three.
    pub fn with_arrival(&self, seq: ArrivalSeq) -> Event {
        let mut e = self.clone();
        e.seq = seq;
        e
    }

    /// Returns this event's identifier.
    #[inline]
    pub fn id(&self) -> EventId {
        self.id
    }

    /// Returns this event's type.
    #[inline]
    pub fn event_type(&self) -> EventTypeId {
        self.event_type
    }

    /// Returns the occurrence timestamp.
    #[inline]
    pub fn ts(&self) -> Timestamp {
        self.ts
    }

    /// Returns the arrival sequence number stamped at ingestion.
    #[inline]
    pub fn arrival(&self) -> ArrivalSeq {
        self.seq
    }

    /// Returns the attribute at field index `ix`, if present.
    #[inline]
    pub fn attr(&self, ix: usize) -> Option<&Value> {
        self.attrs.as_slice().get(ix)
    }

    /// Returns the attribute for `field`, if present.
    #[inline]
    pub fn field(&self, field: FieldId) -> Option<&Value> {
        self.attrs.as_slice().get(field.index())
    }

    /// Returns all attributes in schema order.
    pub fn attrs(&self) -> &[Value] {
        self.attrs.as_slice()
    }

    /// Checks this event against its declared schema in `registry`:
    /// attribute count and kinds must match.
    pub fn validate(&self, registry: &TypeRegistry) -> bool {
        let schema = registry.schema(self.event_type);
        schema.arity() == self.attrs().len()
            && self
                .attrs()
                .iter()
                .enumerate()
                .all(|(ix, v)| schema.field_kind(FieldId::from_index(ix)) == Some(v.kind()))
    }
}

/// Incremental constructor for [`Event`] (see `C-BUILDER`).
///
/// ```
/// use sequin_types::{Event, EventId, Timestamp, TypeRegistry, Value, ValueKind};
/// let mut reg = TypeRegistry::new();
/// let a = reg.declare("A", &[("x", ValueKind::Int)]).unwrap();
/// let ev = Event::builder(a, Timestamp::new(10))
///     .id(EventId::new(3))
///     .attr(Value::Int(5))
///     .build();
/// assert_eq!(ev.id(), EventId::new(3));
/// ```
#[derive(Debug, Clone)]
pub struct EventBuilder {
    id: EventId,
    event_type: EventTypeId,
    ts: Timestamp,
    attrs: Attrs,
}

impl EventBuilder {
    /// Sets the event identifier.
    pub fn id(mut self, id: EventId) -> Self {
        self.id = id;
        self
    }

    /// Appends one attribute (in schema order).
    pub fn attr(mut self, v: Value) -> Self {
        self.attrs = self.attrs.push(v);
        self
    }

    /// Appends several attributes (in schema order).
    pub fn attrs(mut self, vs: impl IntoIterator<Item = Value>) -> Self {
        self.attrs = self.attrs.extend(vs);
        self
    }

    /// Finalizes the event.
    pub fn build(self) -> Event {
        Event {
            id: self.id,
            event_type: self.event_type,
            ts: self.ts,
            seq: ArrivalSeq::default(),
            attrs: self.attrs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ValueKind;

    fn reg() -> (TypeRegistry, EventTypeId) {
        let mut reg = TypeRegistry::new();
        let a = reg
            .declare("A", &[("x", ValueKind::Int), ("s", ValueKind::Str)])
            .unwrap();
        (reg, a)
    }

    #[test]
    fn construction_and_accessors() {
        let (_, a) = reg();
        let e = Event::new(a, Timestamp::new(5), vec![Value::Int(1), Value::str("q")]);
        assert_eq!(e.event_type(), a);
        assert_eq!(e.ts(), Timestamp::new(5));
        assert_eq!(e.attr(0), Some(&Value::Int(1)));
        assert_eq!(e.attr(2), None);
        assert_eq!(e.field(FieldId::from_index(1)), Some(&Value::str("q")));
        assert_eq!(e.attrs().len(), 2);
    }

    #[test]
    fn builder_produces_equivalent_event() {
        let (_, a) = reg();
        let e = Event::builder(a, Timestamp::new(5))
            .id(EventId::new(9))
            .attrs([Value::Int(1), Value::str("q")])
            .build();
        assert_eq!(e.id(), EventId::new(9));
        assert_eq!(e.attrs(), &[Value::Int(1), Value::str("q")]);
    }

    #[test]
    fn arrival_stamping_preserves_payload() {
        let (_, a) = reg();
        let e = Event::new(a, Timestamp::new(5), vec![Value::Int(1), Value::str("q")]);
        let stamped = e.with_arrival(ArrivalSeq::new(17));
        assert_eq!(stamped.arrival(), ArrivalSeq::new(17));
        assert_eq!(stamped.ts(), e.ts());
        assert_eq!(stamped.attrs(), e.attrs());
    }

    #[test]
    fn validate_checks_arity_and_kinds() {
        let (reg, a) = reg();
        let ok = Event::new(a, Timestamp::new(1), vec![Value::Int(1), Value::str("x")]);
        assert!(ok.validate(&reg));
        let wrong_arity = Event::new(a, Timestamp::new(1), vec![Value::Int(1)]);
        assert!(!wrong_arity.validate(&reg));
        let wrong_kind = Event::new(a, Timestamp::new(1), vec![Value::str("x"), Value::str("y")]);
        assert!(!wrong_kind.validate(&reg));
    }

    /// Every way to make an event — `new`, the builder by `attr` and by
    /// `attrs`, a codec round trip, `with_arrival` — gives the same record
    /// on both sides of the inline capacity, and it prints as a `Vec` would.
    #[test]
    fn every_constructor_agrees_across_the_inline_capacity() {
        use crate::codec::{Decode, Encode, Reader, Writer};
        let (_, a) = reg();
        for n in 0..=6usize {
            let vals: Vec<Value> = (0..n)
                .map(|i| match i % 3 {
                    0 => Value::Int(i as i64),
                    1 => Value::str(format!("s{i}")),
                    _ => Value::Float(i as f64 / 2.0),
                })
                .collect();
            let ts = Timestamp::new(5);
            let by_new = Event::new(a, ts, vals.clone());
            let by_attr = vals
                .iter()
                .cloned()
                .fold(Event::builder(a, ts), EventBuilder::attr)
                .build();
            let by_attrs = Event::builder(a, ts).attrs(vals.clone()).build();
            let mut w = Writer::new();
            by_new.encode(&mut w);
            let bytes = w.into_bytes();
            let decoded = Event::decode(&mut Reader::new(&bytes)).unwrap();
            let stamped = by_new.with_arrival(ArrivalSeq::default());
            for e in [&by_new, &by_attr, &by_attrs, &decoded, &stamped] {
                assert_eq!(e.attrs(), &vals[..], "n = {n}");
                for ix in 0..=n {
                    assert_eq!(e.attr(ix), vals.get(ix), "n = {n}, ix = {ix}");
                    assert_eq!(e.field(FieldId::from_index(ix)), vals.get(ix));
                }
                assert_eq!(e, &by_new, "n = {n}");
                assert_eq!(format!("{e:?}"), format!("{by_new:?}"));
            }
            let as_vec = mirror::Event {
                id: EventId::default(),
                event_type: a,
                ts,
                seq: ArrivalSeq::default(),
                attrs: vals.clone(),
            };
            assert_eq!(format!("{by_new:?}"), format!("{as_vec:?}"));
            assert_eq!(format!("{by_new:#?}"), format!("{as_vec:#?}"));
            if n > 0 {
                assert_ne!(by_new, Event::new(a, ts, vals[..n - 1].to_vec()));
            }
        }
    }

    /// The record as it was with a `Vec` of attributes: what `Debug` prints.
    mod mirror {
        use super::*;

        #[derive(Debug)]
        #[allow(dead_code)]
        pub struct Event {
            pub id: EventId,
            pub event_type: EventTypeId,
            pub ts: Timestamp,
            pub seq: ArrivalSeq,
            pub attrs: Vec<Value>,
        }
    }

    #[test]
    fn event_id_display() {
        assert_eq!(EventId::new(12).to_string(), "e12");
    }
}
