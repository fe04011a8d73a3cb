//! Key-indexed active instance stacks.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::OnceLock;

use sequin_types::{EventRef, FieldId, Timestamp};

use crate::partition::PartitionKey;
use crate::stack::AisStack;

/// One positive slot's instances: the time-ordered [`AisStack`] and, when
/// the slot has a partition field, the same instances indexed by that
/// field's value — one `AisStack` per live key, in the same `(ts, id)`
/// order.
///
/// The time-ordered stack counts every instance once and drives purge and
/// snapshots; a walk anchored on key `k` scans [`KeyedStack::scan`]`(k)`,
/// which holds exactly the candidates a filter over the time-ordered stack
/// would keep. Purge costs what it removes: each removed instance purges
/// its own key's stack and drops the entry when it empties, so the index
/// never holds more entries than there are live keys.
///
/// A stack without a key field is the flat case: no index, and every scan
/// reads the time-ordered stack.
#[derive(Debug)]
pub struct KeyedStack {
    all: AisStack,
    index: Option<KeyIndex>,
}

#[derive(Debug)]
struct KeyIndex {
    field: FieldId,
    by_key: HashMap<PartitionKey, AisStack, KeyHashBuilder>,
    /// Emptied key stacks, kept for the next new key: where keys hold an
    /// instance or two each, every insert would otherwise allocate a
    /// stack and every purge free one (5 % of `engine-seq3`). Together
    /// with the live entries they never outnumber the most keys that
    /// were live at once, which the table's own capacity retains too.
    spare: Vec<AisStack>,
}

impl KeyIndex {
    fn key_of(&self, event: &EventRef) -> Option<PartitionKey> {
        event.field(self.field).and_then(PartitionKey::from_value)
    }
}

static EMPTY: AisStack = AisStack::new();

impl KeyedStack {
    /// An empty stack, indexed by `key_field` when the slot has one.
    pub fn new(key_field: Option<FieldId>) -> KeyedStack {
        KeyedStack {
            all: AisStack::new(),
            index: key_field.map(|field| KeyIndex {
                field,
                by_key: HashMap::default(),
                spare: Vec::new(),
            }),
        }
    }

    /// `event`'s key under this stack's key field: `None` when the stack
    /// has no key field or the value cannot key (a float, a missing
    /// attribute).
    pub fn key_of(&self, event: &EventRef) -> Option<PartitionKey> {
        self.index.as_ref()?.key_of(event)
    }

    /// Every instance, sorted by `(ts, id)`, each counted once.
    pub fn all(&self) -> &AisStack {
        &self.all
    }

    /// Number of live instances.
    pub fn len(&self) -> usize {
        self.all.len()
    }

    /// True when the stack holds no instances.
    pub fn is_empty(&self) -> bool {
        self.all.is_empty()
    }

    /// Number of live index entries: the distinct keys present (0 without
    /// a key field).
    pub fn keys(&self) -> usize {
        self.index.as_ref().map_or(0, |ix| ix.by_key.len())
    }

    /// The instances carrying `key` (empty when none do, or without a key
    /// field).
    pub fn for_key(&self, key: &PartitionKey) -> &AisStack {
        let stack = self.index.as_ref().and_then(|ix| ix.by_key.get(key));
        stack.unwrap_or(&EMPTY)
    }

    /// The stack a walk anchored on `key` draws this slot's candidates
    /// from: that key's, or the time-ordered one when the slot has no key
    /// field.
    pub fn scan(&self, key: Option<&PartitionKey>) -> &AisStack {
        match (&self.index, key) {
            (Some(_), Some(key)) => self.for_key(key),
            _ => &self.all,
        }
    }

    /// The live keys and their stacks, in no particular order — callers
    /// that write or emit anything from this sort first.
    pub fn iter_keys(&self) -> impl Iterator<Item = (&PartitionKey, &AisStack)> {
        self.index.iter().flat_map(|ix| ix.by_key.iter())
    }

    /// Inserts an instance at its sorted position in the time-ordered
    /// stack and in its key's stack, and returns `(position, depth after
    /// the insert)` in *the stack a walk anchored on it scans* — its key's,
    /// or the time-ordered one without a key field. That pair is the same
    /// whether the slot's keys share this stack with every other key or
    /// with other queries.
    /// `None` when nothing was inserted: a duplicate `(ts, id)`, or an
    /// instance a keyed slot cannot key.
    pub fn insert(&mut self, event: EventRef) -> Option<(usize, usize)> {
        let Some(ix) = &mut self.index else {
            let pos = self.all.insert(event)?;
            return Some((pos, self.all.len()));
        };
        let key = ix.key_of(&event)?;
        self.all.insert(EventRef::clone(&event))?;
        let spare = &mut ix.spare;
        let stack = ix
            .by_key
            .entry(key)
            .or_insert_with(|| spare.pop().unwrap_or_default());
        let pos = stack.insert(event).expect("the stacks hold the same ids");
        Some((pos, stack.len()))
    }

    /// Inserts a batch in `(ts, id)` order, so that loading a snapshot is
    /// appends however its instances were grouped.
    pub fn insert_all(&mut self, mut events: Vec<EventRef>) {
        events.sort_by_key(|e| (e.ts(), e.id()));
        for e in events {
            self.insert(e);
        }
    }

    /// Removes every instance with timestamp strictly below `threshold`,
    /// returning how many were purged. Only the removed instances' keys
    /// are visited.
    pub fn purge_before(&mut self, threshold: Timestamp) -> usize {
        let Some(ix) = &mut self.index else {
            return self.all.purge_before(threshold);
        };
        let k = self.all.first_at_or_after(threshold);
        for event in &self.all.events()[..k] {
            let key = ix.key_of(event);
            let key = key.expect("keyed slots hold only keyable instances");
            // the key's first purged instance empties or trims its stack;
            // the rest find the entry gone or nothing below the threshold
            if let Entry::Occupied(mut entry) = ix.by_key.entry(key) {
                entry.get_mut().purge_before(threshold);
                if entry.get().is_empty() {
                    ix.spare.push(entry.remove());
                }
            }
        }
        self.all.purge_before(threshold)
    }
}

/// The per-process seed of every key index: one `RandomState` draw, so
/// that which client-chosen keys collide cannot be computed ahead of time.
fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| RandomState::new().hash_one(0u8))
}

/// Builds [`KeyHasher`]s from the per-process seed.
#[derive(Debug, Clone, Copy)]
struct KeyHashBuilder(u64);

impl Default for KeyHashBuilder {
    fn default() -> Self {
        KeyHashBuilder(process_seed())
    }
}

impl BuildHasher for KeyHashBuilder {
    type Hasher = KeyHasher;

    fn build_hasher(&self) -> KeyHasher {
        KeyHasher(self.0)
    }
}

/// A seeded multiply-fold hasher for [`PartitionKey`]s: one widening
/// multiply per word, the product's halves folded together so the seed
/// reaches every output bit. A key lookup per insert, per walk level and
/// per purged instance is the whole cost of the index on stacks too small
/// to need it, where SipHash's was measurable.
#[derive(Debug, Clone, Copy)]
struct KeyHasher(u64);

impl KeyHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        let wide = u128::from(self.0 ^ word) * 0x9E37_79B9_7F4A_7C15_u128;
        self.0 = (wide as u64) ^ ((wide >> 64) as u64);
    }
}

impl Hasher for KeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().expect("8 bytes")));
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.mix(u64::from_le_bytes(last));
        }
        self.mix(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequin_prng::Rng;
    use sequin_types::{Event, EventId, EventTypeId, Value};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    const TAG: usize = 0;

    fn ev(id: u64, ts: u64, tag: Value) -> EventRef {
        Arc::new(
            Event::builder(EventTypeId::from_index(0), Timestamp::new(ts))
                .id(EventId::new(id))
                .attr(tag)
                .build(),
        )
    }

    fn keyed() -> KeyedStack {
        KeyedStack::new(Some(FieldId::from_index(TAG)))
    }

    fn same(a: &[EventRef], b: &[&EventRef]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| Arc::ptr_eq(x, y))
    }

    /// The definition: every key's stack is the time-ordered stack
    /// filtered to that key, and the index has no other entries.
    fn check(s: &KeyedStack, lo: Timestamp, hi: Timestamp) {
        assert!(s.all().is_sorted());
        assert_eq!(s.len(), s.all().len());
        let keys: BTreeSet<PartitionKey> = s.all().iter().map(|e| s.key_of(e).unwrap()).collect();
        assert_eq!(s.keys(), keys.len(), "an emptied key's entry is gone");
        assert_eq!(s.iter_keys().count(), keys.len());
        for k in &keys {
            let of_key = |e: &&EventRef| s.key_of(e).as_ref() == Some(k);
            let all: Vec<&EventRef> = s.all().iter().filter(of_key).collect();
            assert!(same(s.for_key(k).events(), &all), "key {k:?}");
            let ranged: Vec<&EventRef> = s.all().range(lo, hi).iter().filter(of_key).collect();
            assert!(same(s.for_key(k).range(lo, hi), &ranged), "range of {k:?}");
            assert!(std::ptr::eq(s.scan(Some(k)), s.for_key(k)));
        }
        assert!(s.for_key(&PartitionKey::Int(-1)).is_empty());
    }

    #[test]
    fn key_stacks_are_the_time_ordered_stack_filtered() {
        for seed in [3, 17, 4242] {
            let mut rng = Rng::seed_from_u64(seed);
            let mut s = keyed();
            let mut inserted: Vec<EventRef> = Vec::new();
            let (mut clock, mut floor, mut next_id) = (0u64, 0u64, 0u64);
            for _ in 0..10_000 {
                let op = rng.gen_range(0..100u32);
                if op < 55 {
                    clock += rng.gen_range(0..3u64);
                }
                if op < 80 {
                    // in order at the clock, or late by up to 40 ticks
                    let late = rng.gen_bool(0.3);
                    let ts = clock.saturating_sub(if late { rng.gen_range(1..40u64) } else { 0 });
                    let tag = match rng.gen_range(0..12u32) {
                        0 => Value::Bool(true),
                        1 => Value::str("s"),
                        t => Value::Int(i64::from(t)),
                    };
                    let e = ev(next_id, ts, tag);
                    next_id += 1;
                    let before = s.len();
                    let (pos, depth) = s.insert(Arc::clone(&e)).expect("a fresh keyable instance");
                    assert_eq!(s.len(), before + 1);
                    let key = s.key_of(&e).unwrap();
                    assert!(Arc::ptr_eq(s.for_key(&key).get(pos), &e));
                    assert_eq!(depth, s.for_key(&key).len());
                    inserted.push(e);
                } else if op < 87 {
                    // a duplicate delivery changes nothing
                    let mut live = inserted.iter().filter(|e| e.ts().ticks() >= floor);
                    if let Some(dup) = live.next_back() {
                        assert_eq!(s.insert(Arc::clone(dup)), None);
                    }
                } else if op < 92 {
                    // an unkeyable instance enters neither side
                    let before = s.len();
                    assert_eq!(s.insert(ev(next_id, clock, Value::Float(1.5))), None);
                    next_id += 1;
                    assert_eq!(s.len(), before);
                } else {
                    floor = floor.max(clock.saturating_sub(rng.gen_range(0..60u64)));
                    let gone = s.all().first_at_or_after(Timestamp::new(floor));
                    assert_eq!(s.purge_before(Timestamp::new(floor)), gone);
                }
                let mid = clock.saturating_sub(rng.gen_range(0..50u64));
                check(&s, Timestamp::new(mid), Timestamp::new(mid + 20));
            }
            assert!(s.keys() > 1, "seed {seed} exercised the index");
            s.purge_before(Timestamp::MAX);
            assert_eq!((s.len(), s.keys()), (0, 0));
        }
    }

    #[test]
    fn a_stack_without_a_key_field_is_the_flat_case() {
        let mut s = KeyedStack::new(None);
        assert_eq!(s.insert(ev(1, 10, Value::Float(0.5))), Some((0, 1)));
        assert_eq!(s.insert(ev(2, 5, Value::Int(7))), Some((0, 2)));
        assert_eq!((s.len(), s.keys()), (2, 0));
        assert!(std::ptr::eq(s.scan(Some(&PartitionKey::Int(7))), s.all()));
        assert!(s.for_key(&PartitionKey::Int(7)).is_empty());
        assert_eq!(s.purge_before(Timestamp::new(8)), 1);
    }

    #[test]
    fn insert_all_sorts_before_inserting() {
        let mut s = keyed();
        let events = [(3, 30, 1), (1, 10, 2), (2, 20, 1), (1, 10, 2)];
        s.insert_all(
            events
                .iter()
                .map(|&(id, ts, tag)| ev(id, ts, Value::Int(tag)))
                .collect(),
        );
        assert_eq!((s.len(), s.keys()), (3, 2));
        check(&s, Timestamp::new(0), Timestamp::new(100));
    }

    #[test]
    fn the_hasher_is_seeded_and_spreads_small_integers() {
        let b = KeyHashBuilder::default();
        assert_eq!(b.0, process_seed(), "one draw per process");
        let low: BTreeSet<u64> = (0..1024i64)
            .map(|i| b.hash_one(PartitionKey::Int(i)) & 1023)
            .collect();
        assert!(low.len() > 512, "low bits collapse: {}", low.len());
        let other = KeyHashBuilder(b.0 ^ 1);
        assert_ne!(
            b.hash_one(PartitionKey::Int(7)),
            other.hash_one(PartitionKey::Int(7))
        );
        assert_ne!(
            b.hash_one(PartitionKey::Str(Arc::from("ab"))),
            b.hash_one(PartitionKey::Str(Arc::from("ba")))
        );
    }
}
