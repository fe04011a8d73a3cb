//! Order-insensitive active instance stacks.

use sequin_types::{EventId, EventRef, Timestamp};

/// The most instances a chunk holds; the newest run holds at most twice as
/// many.
const CAP: usize = 128;

/// The sort key: `(occurrence timestamp, event id)`.
type Key = (Timestamp, EventId);

fn key_of(e: &EventRef) -> Key {
    (e.ts(), e.id())
}

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
/// Lateness is bounded, so a late instance lands near the recent end and a
/// purge removes the old end in bulk; the layout keeps both local. The
/// newest instances are one flat run of at most `2·CAP` (the whole stack,
/// when it fits) and older ones sorted chunks of at most `CAP`, so a late
/// insert moves at most one chunk and a purge drops whole chunks and trims
/// one (DESIGN.md §2). A [`StackRange`] is a short run of slices.
///
/// Duplicate event ids are rejected (idempotent re-delivery).
#[derive(Debug, Clone, Default)]
pub struct AisStack {
    /// The newest instances; empty only when the whole stack is.
    run: Vec<EventRef>,
    /// The instances older than every one in `run`, once there are any:
    /// a stack that fits in its run costs one null pointer more than a
    /// `Vec` (measured on the small-stack workloads).
    older: Option<Box<Older>>,
}

/// The chunks of an [`AisStack`]'s instances older than its run.
#[derive(Debug, Clone, Default)]
struct Older {
    /// Oldest first; never empty, and no chunk is empty.
    chunks: Vec<Chunk>,
    /// `chunks[i]`'s first key.
    firsts: Vec<Key>,
    /// Instances held in `chunks`.
    len: usize,
}

/// A sorted chunk of older instances and their keys.
#[derive(Debug, Clone)]
struct Chunk {
    keys: Vec<Key>,
    events: Vec<EventRef>,
}

impl Older {
    /// Inserts an instance at its sorted position, splitting its chunk
    /// first when that is full; `false` for a duplicate.
    fn insert(&mut self, key: Key, event: EventRef) -> bool {
        // the last chunk starting at or below `key`, or the first chunk
        let mut ix = self.firsts.partition_point(|f| *f <= key).saturating_sub(1);
        let Err(mut pos) = self.chunks[ix].keys.binary_search(&key) else {
            return false;
        };
        if self.chunks[ix].keys.len() == CAP {
            let full = &mut self.chunks[ix];
            let upper = Chunk {
                keys: full.keys.split_off(CAP / 2),
                events: full.events.split_off(CAP / 2),
            };
            self.firsts.insert(ix + 1, upper.keys[0]);
            self.chunks.insert(ix + 1, upper);
            if pos > CAP / 2 {
                ix += 1;
                pos -= CAP / 2;
            }
        }
        let chunk = &mut self.chunks[ix];
        chunk.keys.insert(pos, key);
        chunk.events.insert(pos, event);
        self.firsts[ix] = chunk.keys[0];
        self.len += 1;
        true
    }

    /// Where the first instance with timestamp `>= ts` is, as `(chunk,
    /// offset)`; `None` when every instance is older.
    fn seek(&self, ts: Timestamp) -> Option<(usize, usize)> {
        let at = self.firsts.partition_point(|f| f.0 < ts);
        if at > 0 {
            let keys = &self.chunks[at - 1].keys;
            let off = keys.partition_point(|k| k.0 < ts);
            if off < keys.len() {
                return Some((at - 1, off));
            }
        }
        (at < self.chunks.len()).then_some((at, 0))
    }

    /// Drops the chunks wholly below `threshold` and trims the next one.
    fn purge_before(&mut self, threshold: Timestamp) {
        // of the chunks starting below the threshold, all but the last lie
        // wholly below it
        let below = self.firsts.partition_point(|f| f.0 < threshold);
        let Some(last) = below.checked_sub(1) else {
            return;
        };
        let chunk = &mut self.chunks[last];
        let k = chunk.keys.partition_point(|k| k.0 < threshold);
        let whole = if k == chunk.keys.len() { below } else { last };
        chunk.keys.drain(..k);
        chunk.events.drain(..k);
        let dropped = self.chunks.drain(..whole).map(|c| c.keys.len());
        self.len -= k + dropped.sum::<usize>();
        self.firsts.drain(..whole);
        if let Some(chunk) = self.chunks.first() {
            self.firsts[0] = chunk.keys[0];
        }
    }
}

impl AisStack {
    /// Creates an empty stack.
    pub const fn new() -> AisStack {
        AisStack {
            run: Vec::new(),
            older: None,
        }
    }

    /// Number of live instances.
    pub fn len(&self) -> usize {
        self.run.len() + self.older.as_ref().map_or(0, |o| o.len)
    }

    /// True when the stack holds no instances.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty()
    }

    /// The oldest instance.
    pub fn first(&self) -> Option<&EventRef> {
        self.iter().next()
    }

    /// Inserts an event at its sorted position, returning whether it became
    /// the newest instance, or `None` if an event with the same `(ts, id)`
    /// is already present.
    ///
    /// In-order arrivals are appends ( O(1) amortised ); a late event costs
    /// a binary search plus a move of at most `2·CAP` entries — this is the
    /// paper's out-of-order sequence-scan insertion.
    pub fn insert(&mut self, event: EventRef) -> Option<bool> {
        let key = key_of(&event);
        let newest = self.run.last().is_none_or(|last| key_of(last) < key);
        let below_run = |o: &&mut Older| {
            let last = o.chunks.last().and_then(|c| c.keys.last());
            last.is_some_and(|last| key <= *last)
        };
        if newest {
            self.run.push(event);
        } else if let Some(older) = self.older.as_deref_mut().filter(below_run) {
            return older.insert(key, event).then_some(false);
        } else {
            let pos = self.run.binary_search_by_key(&key, key_of).err()?;
            self.run.insert(pos, event);
        }
        if self.run.len() > 2 * CAP {
            self.spill();
        }
        Some(newest)
    }

    /// Moves the run's oldest `CAP` instances into a new chunk.
    #[inline(never)]
    fn spill(&mut self) {
        let events: Vec<EventRef> = self.run.drain(..CAP).collect();
        let keys: Vec<Key> = events.iter().map(key_of).collect();
        let older = self.older.get_or_insert_with(Box::default);
        older.firsts.push(keys[0]);
        older.chunks.push(Chunk { keys, events });
        older.len += CAP;
    }

    /// The instances with `lo <= ts < hi` (inclusive start, exclusive end),
    /// oldest first. `range(lo, next_ts)` is the positional *recent
    /// instance in previous stack* bound: the candidate predecessors of an
    /// instance with timestamp `next_ts`.
    #[inline]
    pub fn range(&self, lo: Timestamp, hi: Timestamp) -> StackRange<'_> {
        match &self.older {
            Some(older) => self.chunked_range(older, lo, hi),
            None => StackRange::flat(self.run_range(lo, hi)),
        }
    }

    fn run_range(&self, lo: Timestamp, hi: Timestamp) -> &[EventRef] {
        let start = self.run.partition_point(|e| e.ts() < lo);
        let end = self.run.partition_point(|e| e.ts() < hi);
        self.run.get(start..end).unwrap_or_default()
    }

    #[inline(never)]
    fn chunked_range<'a>(&'a self, o: &'a Older, lo: Timestamp, hi: Timestamp) -> StackRange<'a> {
        match (o.seek(lo), o.seek(hi)) {
            (None, _) => StackRange::flat(self.run_range(lo, hi)),
            (Some(start), Some(end)) if start >= end => StackRange::flat(&[]),
            (Some((c0, o0)), Some((c1, o1))) if c0 == c1 => {
                StackRange::flat(&o.chunks[c0].events[o0..o1])
            }
            (Some((c0, o0)), end) => StackRange {
                head: &o.chunks[c0].events[o0..],
                mid: &o.chunks[c0 + 1..end.map_or(o.chunks.len(), |(c1, _)| c1)],
                tail: match end {
                    Some((c1, o1)) => &o.chunks[c1].events[..o1],
                    None => self.run_range(Timestamp::MIN, hi),
                },
            },
        }
    }

    /// Every instance, oldest first.
    pub fn whole(&self) -> StackRange<'_> {
        StackRange {
            head: &[],
            mid: self.older.as_ref().map_or(&[], |o| &o.chunks),
            tail: &self.run,
        }
    }

    /// Removes every instance with timestamp strictly below `threshold`,
    /// returning how many were purged. Instances are a sorted prefix, so
    /// this drops whole chunks and trims one (or, with no chunks left, the
    /// run).
    pub fn purge_before(&mut self, threshold: Timestamp) -> usize {
        let before = self.len();
        if let Some(older) = &mut self.older {
            older.purge_before(threshold);
            if older.chunks.is_empty() {
                self.older = None;
            }
        }
        if self.older.is_none() {
            let k = self.run.partition_point(|e| e.ts() < threshold);
            self.run.drain(..k);
        }
        before - self.len()
    }

    /// Iterates the instances in timestamp order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &EventRef> {
        self.whole().iter()
    }

    /// Checks the sortedness invariant and the layout's bookkeeping (used
    /// by tests and debug assertions).
    pub fn is_sorted(&self) -> bool {
        let older_holds = self.older.as_ref().is_none_or(|o| {
            let lens = o.chunks.iter().map(|c| c.keys.len());
            !self.run.is_empty()
                && o.firsts.len() == o.chunks.len()
                && o.len == lens.sum::<usize>()
                && o.chunks.iter().zip(&o.firsts).all(|(c, first)| {
                    c.keys.len() <= CAP
                        && c.keys.first() == Some(first)
                        && c.keys.iter().copied().eq(c.events.iter().map(key_of))
                })
        });
        let keys: Vec<Key> = self.iter().map(key_of).collect();
        older_holds && self.run.len() <= 2 * CAP && keys.windows(2).all(|w| w[0] < w[1])
    }
}

/// The instances of an [`AisStack`] between two timestamps: a short run of
/// slices, oldest first, so that a scan stays a plain slice iteration.
#[derive(Debug, Clone, Copy)]
pub struct StackRange<'a> {
    head: &'a [EventRef],
    mid: &'a [Chunk],
    tail: &'a [EventRef],
}

impl<'a> StackRange<'a> {
    #[inline]
    fn flat(events: &'a [EventRef]) -> StackRange<'a> {
        StackRange {
            head: events,
            mid: &[],
            tail: &[],
        }
    }

    /// True when the range holds no instances.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head.is_empty() && self.mid.is_empty() && self.tail.is_empty()
    }

    /// The range's slices, oldest first; only the first may be empty.
    #[inline]
    pub fn slices(self) -> impl DoubleEndedIterator<Item = &'a [EventRef]> {
        let mid = self.mid.iter().map(|c| c.events.as_slice());
        let tail = Some(self.tail).filter(|t| !t.is_empty());
        std::iter::once(self.head).chain(mid).chain(tail)
    }

    /// The range's instances, oldest first.
    pub fn iter(self) -> impl DoubleEndedIterator<Item = &'a EventRef> {
        self.slices().flatten()
    }
}

impl sequin_types::Encode for AisStack {
    /// The encoding of the instances as a `Vec<EventRef>`: the length, then
    /// each instance, oldest first.
    fn encode(&self, w: &mut sequin_types::Writer) {
        w.put_u64(self.len() as u64);
        for e in self.iter() {
            e.encode(w);
        }
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

    fn ticks(events: impl Iterator<Item = EventRef>) -> Vec<u64> {
        events.map(|e| e.ts().ticks()).collect()
    }

    #[test]
    fn in_order_appends() {
        let mut s = AisStack::new();
        assert_eq!(s.insert(ev(1, 10)), Some(true));
        assert_eq!(s.insert(ev(2, 20)), Some(true));
        assert_eq!(s.insert(ev(3, 30)), Some(true));
        assert!(s.is_sorted());
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn late_event_inserts_at_sorted_position() {
        let mut s = AisStack::new();
        s.insert(ev(1, 10));
        s.insert(ev(3, 30));
        assert_eq!(s.insert(ev(2, 20)), Some(false));
        assert!(s.is_sorted());
        assert_eq!(ticks(s.iter().cloned()), [10, 20, 30]);
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
        assert_eq!(s.first().map(|e| e.id()), Some(EventId::new(2)));
    }

    #[test]
    fn range_is_the_half_open_interval() {
        let mut s = AisStack::new();
        for (id, ts) in [(1, 10), (2, 20), (3, 30), (4, 40)] {
            s.insert(ev(id, ts));
        }
        let of = |lo, hi| {
            ticks(
                s.range(Timestamp::new(lo), Timestamp::new(hi))
                    .iter()
                    .cloned(),
            )
        };
        assert_eq!(of(20, 40), [20, 30]);
        assert_eq!(of(11, 41), [20, 30, 40]);
        assert!(of(20, 20).is_empty());
        assert!(s.range(Timestamp::new(40), Timestamp::new(10)).is_empty());
    }

    #[test]
    fn deep_stacks_spill_split_and_purge_by_chunk() {
        // 2,000 in order at even ticks, then 500 late at odd ticks spread
        // over the older half: appends spill chunks, late inserts split them
        let mut s = AisStack::new();
        for i in 0..2_000 {
            assert_eq!(s.insert(ev(i, 2 * i)), Some(true));
        }
        assert!(s.older.as_ref().is_some_and(|o| o.chunks.len() > 5) && s.is_sorted());
        for i in 0..500 {
            let ts = 2 * ((i * 7) % 1_000) + 1;
            assert_eq!(s.insert(ev(10_000 + i, ts)), Some(false));
            assert_eq!(s.insert(ev(10_000 + i, ts)), None);
        }
        assert_eq!(s.len(), 2_500);
        assert!(s.is_sorted());
        let range = s.range(Timestamp::new(101), Timestamp::new(3_001));
        assert!(range.slices().count() > 2, "the range crosses chunks");
        let expected: Vec<u64> = s
            .iter()
            .map(|e| e.ts().ticks())
            .filter(|t| (101..3_001).contains(t))
            .collect();
        assert_eq!(ticks(range.iter().cloned()), expected);
        assert_eq!(ticks(range.iter().rev().cloned()).len(), expected.len());
        let below = s.iter().filter(|e| e.ts().ticks() < 1_501).count();
        assert_eq!(s.purge_before(Timestamp::new(1_501)), below);
        assert_eq!(s.first().map(|e| e.ts().ticks()), Some(1_501));
        assert!(s.is_sorted());
        assert_eq!(s.purge_before(Timestamp::MAX), 2_500 - below);
        assert!(s.is_empty() && s.is_sorted());
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
