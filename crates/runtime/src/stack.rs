//! Order-insensitive active instance stacks.

use sequin_types::{EventId, EventRef, Timestamp};

/// An **active instance stack** that tolerates out-of-order insertion.
///
/// The classic SASE stack is append-only and relies on arrival order for
/// its "everything below me is earlier" invariant. This variant instead
/// maintains the invariant *explicitly*: instances are kept sorted by
/// `(occurrence timestamp, event id)`, so a late event is a binary-searched
/// insertion at its proper position and the predecessor set of any instance
/// is exactly a prefix of the previous stack — recoverable positionally,
/// with no stored pointers to fix up.
///
/// Duplicate event ids are rejected (idempotent re-delivery).
#[derive(Debug, Clone, Default)]
pub struct AisStack {
    events: Vec<EventRef>,
}

impl AisStack {
    /// Creates an empty stack.
    pub const fn new() -> AisStack {
        AisStack { events: Vec::new() }
    }

    /// Number of live instances.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the stack holds no instances.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The instances, sorted by `(ts, id)`.
    pub fn events(&self) -> &[EventRef] {
        &self.events
    }

    /// The instance at `ix`.
    ///
    /// # Panics
    ///
    /// Panics if `ix` is out of bounds.
    pub fn get(&self, ix: usize) -> &EventRef {
        &self.events[ix]
    }

    fn sort_key(e: &EventRef) -> (Timestamp, EventId) {
        (e.ts(), e.id())
    }

    /// Inserts an event at its sorted position, returning the position, or
    /// `None` if an event with the same `(ts, id)` is already present.
    ///
    /// In-order arrivals hit the append fast path ( O(1) ); a late event
    /// costs a binary search plus a `memmove` of the tail — this is the
    /// paper's out-of-order sequence-scan insertion.
    pub fn insert(&mut self, event: EventRef) -> Option<usize> {
        let key = Self::sort_key(&event);
        if let Some(last) = self.events.last() {
            if Self::sort_key(last) < key {
                self.events.push(event);
                return Some(self.events.len() - 1);
            }
        } else {
            self.events.push(event);
            return Some(0);
        }
        match self.events.binary_search_by_key(&key, Self::sort_key) {
            Ok(_) => None,
            Err(pos) => {
                self.events.insert(pos, event);
                Some(pos)
            }
        }
    }

    /// Number of instances with timestamp strictly less than `ts` — the
    /// positional *recent instance in previous stack* bound: instances
    /// `0..first_at_or_after(ts)` of the previous stack are exactly the
    /// candidate predecessors of an instance with timestamp `ts`.
    pub fn first_at_or_after(&self, ts: Timestamp) -> usize {
        self.events.partition_point(|e| e.ts() < ts)
    }

    /// Index of the first instance with timestamp strictly greater than
    /// `ts` (the start of the candidate *successor* range).
    pub fn first_after(&self, ts: Timestamp) -> usize {
        self.events.partition_point(|e| e.ts() <= ts)
    }

    /// The sub-slice of instances with `lo < ts < hi` (both exclusive) —
    /// the window-trimmed candidate range used by the early-cut-off
    /// construction optimization.
    pub fn between_exclusive(&self, lo: Timestamp, hi: Timestamp) -> &[EventRef] {
        let start = self.first_after(lo);
        let end = self.first_at_or_after(hi);
        if start >= end {
            &[]
        } else {
            &self.events[start..end]
        }
    }

    /// The sub-slice of instances with `lo <= ts < hi` (inclusive start,
    /// exclusive end).
    pub fn range(&self, lo: Timestamp, hi: Timestamp) -> &[EventRef] {
        let start = self.first_at_or_after(lo);
        let end = self.first_at_or_after(hi);
        if start >= end {
            &[]
        } else {
            &self.events[start..end]
        }
    }

    /// Removes every instance with timestamp strictly below `threshold`,
    /// returning how many were purged. Instances are a sorted prefix, so
    /// this is a single drain.
    pub fn purge_before(&mut self, threshold: Timestamp) -> usize {
        let k = self.first_at_or_after(threshold);
        self.events.drain(..k);
        k
    }

    /// True if an event with this `(ts, id)` is present.
    pub fn contains(&self, ts: Timestamp, id: EventId) -> bool {
        self.events
            .binary_search_by_key(&(ts, id), Self::sort_key)
            .is_ok()
    }

    /// Iterates the instances in timestamp order.
    pub fn iter(&self) -> impl Iterator<Item = &EventRef> {
        self.events.iter()
    }

    /// Checks the sortedness invariant (used by tests and debug assertions).
    pub fn is_sorted(&self) -> bool {
        self.events
            .windows(2)
            .all(|w| Self::sort_key(&w[0]) < Self::sort_key(&w[1]))
    }
}

impl sequin_types::Encode for AisStack {
    fn encode(&self, w: &mut sequin_types::Writer) {
        self.events.encode(w);
    }
}

impl sequin_types::Decode for AisStack {
    fn decode(r: &mut sequin_types::Reader<'_>) -> Result<Self, sequin_types::CodecError> {
        let events: Vec<EventRef> = Vec::decode(r)?;
        let mut stack = AisStack::new();
        for e in events {
            // re-inserting (rather than trusting the byte order) keeps the
            // sorted-and-deduped invariant unconditionally; snapshots are
            // written in order, so this is the O(1) append fast path
            stack.insert(e);
        }
        Ok(stack)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequin_types::{Event, EventTypeId};
    use std::sync::Arc;

    fn ev(id: u64, ts: u64) -> EventRef {
        Arc::new(
            Event::builder(EventTypeId::from_index(0), Timestamp::new(ts))
                .id(EventId::new(id))
                .build(),
        )
    }

    #[test]
    fn in_order_appends() {
        let mut s = AisStack::new();
        assert_eq!(s.insert(ev(1, 10)), Some(0));
        assert_eq!(s.insert(ev(2, 20)), Some(1));
        assert_eq!(s.insert(ev(3, 30)), Some(2));
        assert!(s.is_sorted());
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn late_event_inserts_at_sorted_position() {
        let mut s = AisStack::new();
        s.insert(ev(1, 10));
        s.insert(ev(3, 30));
        assert_eq!(s.insert(ev(2, 20)), Some(1));
        assert!(s.is_sorted());
        let ts: Vec<u64> = s.iter().map(|e| e.ts().ticks()).collect();
        assert_eq!(ts, [10, 20, 30]);
    }

    #[test]
    fn duplicate_rejected() {
        let mut s = AisStack::new();
        s.insert(ev(1, 10));
        assert_eq!(s.insert(ev(1, 10)), None);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn equal_ts_distinct_ids_ordered_by_id() {
        let mut s = AisStack::new();
        s.insert(ev(5, 10));
        s.insert(ev(2, 10));
        assert!(s.is_sorted());
        assert_eq!(s.get(0).id(), EventId::new(2));
        assert!(s.contains(Timestamp::new(10), EventId::new(5)));
        assert!(!s.contains(Timestamp::new(10), EventId::new(9)));
    }

    #[test]
    fn positional_rip_bounds() {
        let mut s = AisStack::new();
        for (id, ts) in [(1, 10), (2, 20), (3, 30)] {
            s.insert(ev(id, ts));
        }
        assert_eq!(s.first_at_or_after(Timestamp::new(20)), 1);
        assert_eq!(s.first_at_or_after(Timestamp::new(21)), 2);
        assert_eq!(s.first_at_or_after(Timestamp::new(5)), 0);
        assert_eq!(s.first_after(Timestamp::new(20)), 2);
        assert_eq!(s.first_after(Timestamp::new(30)), 3);
    }

    #[test]
    fn between_exclusive_trims_both_ends() {
        let mut s = AisStack::new();
        for (id, ts) in [(1, 10), (2, 20), (3, 30), (4, 40)] {
            s.insert(ev(id, ts));
        }
        let mid: Vec<u64> = s
            .between_exclusive(Timestamp::new(10), Timestamp::new(40))
            .iter()
            .map(|e| e.ts().ticks())
            .collect();
        assert_eq!(mid, [20, 30]);
        assert!(s
            .between_exclusive(Timestamp::new(20), Timestamp::new(20))
            .is_empty());
        assert!(s
            .between_exclusive(Timestamp::new(40), Timestamp::new(10))
            .is_empty());
    }

    #[test]
    fn purge_removes_strict_prefix() {
        let mut s = AisStack::new();
        for (id, ts) in [(1, 10), (2, 20), (3, 30)] {
            s.insert(ev(id, ts));
        }
        assert_eq!(s.purge_before(Timestamp::new(20)), 1);
        assert_eq!(s.len(), 2);
        // threshold equal to an instance ts keeps it
        assert_eq!(s.purge_before(Timestamp::new(20)), 0);
        assert_eq!(s.purge_before(Timestamp::new(100)), 2);
        assert!(s.is_empty());
    }

    #[test]
    fn purge_on_empty_is_noop() {
        let mut s = AisStack::new();
        assert_eq!(s.purge_before(Timestamp::new(5)), 0);
    }
}
