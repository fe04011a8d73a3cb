//! Arrival-driven sequence construction with out-of-order compensation.

use std::sync::Arc;

use sequin_query::Query;
use sequin_types::{Duration, EventRef, FieldId, Timestamp};

use crate::partition::PartitionKey;
use crate::stack::AisStack;
use crate::stats::RuntimeStats;

/// Tunables for [`Constructor`] (the paper's CPU optimizations, each
/// individually switchable for ablation benchmarks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConstructOpts {
    /// Locate each slot's candidate range by binary search on the
    /// window/sequence bounds instead of scanning the whole stack
    /// (the *early window cut-off* optimization).
    pub window_cutoff: bool,
}

impl Default for ConstructOpts {
    fn default() -> Self {
        ConstructOpts {
            window_cutoff: true,
        }
    }
}

impl ConstructOpts {
    /// One level of a walk's descent below the anchor: the half-open
    /// timestamp range `lo..hi` an event bound just under `next_ts` must
    /// fall in (span `<= W` and last `>= anchor` force `>= anchor − W`)
    /// and the slice of `stack` to scan newest-first — all of it without
    /// the cut-off, when the caller applies the range itself.
    pub fn prefix_level(
        self,
        stack: &AisStack,
        window: Duration,
        anchor_ts: Timestamp,
        next_ts: Timestamp,
    ) -> (Timestamp, Timestamp, &[EventRef]) {
        self.level(stack, anchor_ts.saturating_sub(window), next_ts)
    }

    /// One level of a walk's ascent above the anchor, once the prefix is
    /// complete (oldest first): strict sequence order and span `<= W`
    /// give `prev < ts <= first + W`.
    pub fn suffix_level(
        self,
        stack: &AisStack,
        window: Duration,
        first_ts: Timestamp,
        prev_ts: Timestamp,
    ) -> (Timestamp, Timestamp, &[EventRef]) {
        let tick = Duration::new(1);
        let hi = first_ts.saturating_add(window).saturating_add(tick);
        self.level(stack, prev_ts.saturating_add(tick), hi)
    }

    fn level(
        self,
        stack: &AisStack,
        lo: Timestamp,
        hi: Timestamp,
    ) -> (Timestamp, Timestamp, &[EventRef]) {
        let candidates = if self.window_cutoff {
            stack.range(lo, hi)
        } else {
            stack.events()
        };
        (lo, hi, candidates)
    }
}

/// Enumerates pattern matches from a set of active instance stacks.
///
/// The key operation is [`Constructor::matches_with`]: all matches that
/// **contain a given anchor event** at a given positive slot, drawing every
/// other constituent from the current stacks. Invoked on each insertion,
/// this realizes the paper's out-of-order compensation discipline:
///
/// > a match is emitted exactly when its last-arriving constituent is
/// > inserted — at that moment (and no earlier) all of its events are
/// > present, and no later insertion can produce it again because every
/// > match enumerated here contains the *new* event.
///
/// For in-order input, anchoring at the last slot only (as the classic
/// engine does) is equivalent.
#[derive(Debug, Clone)]
pub struct Constructor {
    query: Arc<Query>,
    opts: ConstructOpts,
    /// `0..m`: the slot→stack table of a caller with one stack per slot.
    identity: Vec<usize>,
}

impl Constructor {
    /// Creates a constructor for `query`.
    pub fn new(query: Arc<Query>, opts: ConstructOpts) -> Constructor {
        let identity = (0..query.positive_len()).collect();
        Constructor {
            query,
            opts,
            identity,
        }
    }

    /// The query this constructor evaluates.
    pub fn query(&self) -> &Arc<Query> {
        &self.query
    }

    /// Enumerates every match containing `anchor` at positive slot
    /// `anchor_slot`, with the remaining components drawn from `stacks`
    /// (one stack per positive slot, each sorted by timestamp). Matches are
    /// appended to `out` as positive-order event vectors.
    ///
    /// `stacks[anchor_slot]` may or may not already contain the anchor; it
    /// is never read for the anchor slot.
    ///
    /// # Panics
    ///
    /// Panics if `stacks.len()` differs from the query's positive length or
    /// `anchor_slot` is out of range.
    pub fn matches_with(
        &self,
        stacks: &[AisStack],
        anchor_slot: usize,
        anchor: &EventRef,
        stats: &mut RuntimeStats,
        out: &mut Vec<Vec<EventRef>>,
    ) {
        let m = self.query.positive_len();
        assert_eq!(stacks.len(), m, "one stack per positive slot");
        self.matches_pooled(
            stacks,
            &self.identity,
            false,
            anchor_slot,
            anchor,
            stats,
            out,
        );
    }

    /// [`Constructor::matches_with`] over a pool of stacks shared between
    /// queries: slot `s` reads `pool[slot_stack[s]]`. With `keyed` (and a
    /// query that partitions), a pooled stack holds every partition key,
    /// so only candidates carrying the anchor's key are visited — the
    /// same candidates, in the same order, as the key's own per-slot
    /// stacks would hold, and only those count as DFS steps.
    ///
    /// # Panics
    ///
    /// Panics if `slot_stack.len()` differs from the query's positive
    /// length or `anchor_slot` is out of range.
    #[allow(clippy::too_many_arguments)]
    pub fn matches_pooled(
        &self,
        pool: &[AisStack],
        slot_stack: &[usize],
        keyed: bool,
        anchor_slot: usize,
        anchor: &EventRef,
        stats: &mut RuntimeStats,
        out: &mut Vec<Vec<EventRef>>,
    ) {
        let m = self.query.positive_len();
        assert_eq!(slot_stack.len(), m, "one stack per positive slot");
        assert!(anchor_slot < m, "anchor slot out of range");

        let mut chosen: Vec<Option<EventRef>> = vec![None; m];
        chosen[anchor_slot] = Some(Arc::clone(anchor));

        let scheme = self.query.partition().filter(|_| keyed);
        let key = scheme.and_then(|s| {
            let key = anchor.field(s.fields[anchor_slot])?;
            Some((s.fields.as_slice(), PartitionKey::from_value(key)?))
        });
        let mut walker = Walker {
            query: &self.query,
            pool,
            slot_stack,
            key,
            opts: self.opts,
            anchor_slot,
            window: self.query.window(),
            stats,
            out,
        };
        // Check the anchor's already-decidable predicates before descending.
        if !check_new_binding(&self.query, &chosen, anchor_slot, walker.stats) {
            return;
        }
        walker.extend_prefix(anchor_slot, &mut chosen);
    }
}

struct Walker<'a> {
    query: &'a Query,
    pool: &'a [AisStack],
    slot_stack: &'a [usize],
    /// The query's partition fields and the anchor's key, when the pool
    /// mixes keys.
    key: Option<(&'a [FieldId], PartitionKey)>,
    opts: ConstructOpts,
    anchor_slot: usize,
    window: Duration,
    stats: &'a mut RuntimeStats,
    out: &'a mut Vec<Vec<EventRef>>,
}

impl<'a> Walker<'a> {
    fn stack(&self, slot: usize) -> &'a AisStack {
        &self.pool[self.slot_stack[slot]]
    }

    fn key_match(&self, slot: usize, ev: &EventRef) -> bool {
        match &self.key {
            Some((fields, key)) => {
                ev.field(fields[slot])
                    .and_then(PartitionKey::from_value)
                    .as_ref()
                    == Some(key)
            }
            None => true,
        }
    }

    /// Fills slots `anchor_slot-1 .. 0` (descending), then hands off to
    /// [`Walker::extend_suffix`].
    fn extend_prefix(&mut self, filled_down_to: usize, chosen: &mut [Option<EventRef>]) {
        if filled_down_to == 0 {
            self.extend_suffix(self.anchor_slot, chosen);
            return;
        }
        let slot = filled_down_to - 1;
        let next_ts = chosen[slot + 1].as_ref().expect("slot above is bound").ts();
        let anchor_ts = chosen[self.anchor_slot]
            .as_ref()
            .expect("anchor bound")
            .ts();
        let (lo, hi, candidates) =
            self.opts
                .prefix_level(self.stack(slot), self.window, anchor_ts, next_ts);
        // Iterate newest-first: matches closest to the anchor come out
        // first, matching the classic engine's most-recent-first DFS.
        for ev in candidates.iter().rev() {
            if !self.key_match(slot, ev) {
                continue;
            }
            self.stats.dfs_steps += 1;
            if !self.opts.window_cutoff && (ev.ts() < lo || ev.ts() >= hi) {
                continue;
            }
            let ev = Arc::clone(ev);
            chosen[slot] = Some(ev);
            if check_new_binding(self.query, chosen, slot, self.stats) {
                self.extend_prefix(slot, chosen);
            }
            chosen[slot] = None;
        }
    }

    /// Fills slots `anchor_slot+1 .. m-1` (ascending); emits on completion.
    fn extend_suffix(&mut self, filled_up_to: usize, chosen: &mut [Option<EventRef>]) {
        let m = self.query.positive_len();
        if filled_up_to == m - 1 {
            let events: Vec<EventRef> = chosen
                .iter()
                .map(|c| Arc::clone(c.as_ref().expect("complete")))
                .collect();
            self.stats.matches_constructed += 1;
            self.out.push(events);
            return;
        }
        let slot = filled_up_to + 1;
        let prev_ts = chosen[slot - 1].as_ref().expect("slot below is bound").ts();
        let first_ts = chosen[0].as_ref().expect("prefix complete").ts();
        let (lo, hi, candidates) =
            self.opts
                .suffix_level(self.stack(slot), self.window, first_ts, prev_ts);
        for ev in candidates.iter() {
            if !self.key_match(slot, ev) {
                continue;
            }
            self.stats.dfs_steps += 1;
            if !self.opts.window_cutoff && (ev.ts() < lo || ev.ts() >= hi) {
                continue;
            }
            let ev = Arc::clone(ev);
            chosen[slot] = Some(ev);
            if check_new_binding(self.query, chosen, slot, self.stats) {
                self.extend_suffix(slot, chosen);
            }
            chosen[slot] = None;
        }
    }
}

/// Evaluates, against the current partial assignment, every positive
/// predicate that references the just-bound slot. A predicate whose other
/// references are still unbound reports `None` (undecided) and does not
/// prune; each predicate therefore fires exactly once per complete path —
/// when its last referenced slot binds.
fn check_new_binding(
    query: &Query,
    chosen: &[Option<EventRef>],
    slot: usize,
    stats: &mut RuntimeStats,
) -> bool {
    let comp = query.positive_comp(slot);
    let mut binding: Vec<Option<&EventRef>> = vec![None; query.components().len()];
    for (p, c) in chosen.iter().enumerate() {
        if let Some(ev) = c.as_ref() {
            binding[query.positive_comp(p)] = Some(ev);
        }
    }
    for pred in query.predicates() {
        if pred.mask().contains(comp) {
            stats.predicate_evals += 1;
            if pred.eval(&binding) == Some(false) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequin_query::parse;
    use sequin_types::{Event, EventId, Timestamp, TypeRegistry, Value, ValueKind};

    fn registry() -> TypeRegistry {
        let mut reg = TypeRegistry::new();
        for name in ["A", "B", "C"] {
            reg.declare(name, &[("x", ValueKind::Int)]).unwrap();
        }
        reg
    }

    fn ev(reg: &TypeRegistry, ty: &str, id: u64, ts: u64, x: i64) -> EventRef {
        Arc::new(
            Event::builder(reg.lookup(ty).unwrap(), Timestamp::new(ts))
                .id(EventId::new(id))
                .attr(Value::Int(x))
                .build(),
        )
    }

    fn stacks_for(query: &Query, events: &[EventRef]) -> Vec<AisStack> {
        let mut stacks = vec![AisStack::new(); query.positive_len()];
        for e in events {
            for slot in query.slots_for_type(e.event_type()) {
                stacks[slot].insert(Arc::clone(e));
            }
        }
        stacks
    }

    fn run(
        query: &Arc<Query>,
        stacks: &[AisStack],
        slot: usize,
        anchor: &EventRef,
        cutoff: bool,
    ) -> Vec<Vec<u64>> {
        let ctor = Constructor::new(
            Arc::clone(query),
            ConstructOpts {
                window_cutoff: cutoff,
            },
        );
        let mut stats = RuntimeStats::default();
        let mut out = Vec::new();
        ctor.matches_with(stacks, slot, anchor, &mut stats, &mut out);
        let mut ids: Vec<Vec<u64>> = out
            .iter()
            .map(|m| m.iter().map(|e| e.id().get()).collect())
            .collect();
        ids.sort();
        ids
    }

    #[test]
    fn anchor_at_last_slot_enumerates_prefixes() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 100", &reg).unwrap();
        let a1 = ev(&reg, "A", 1, 10, 0);
        let a2 = ev(&reg, "A", 2, 20, 0);
        let b = ev(&reg, "B", 3, 30, 0);
        let stacks = stacks_for(&q, &[a1, a2, Arc::clone(&b)]);
        assert_eq!(run(&q, &stacks, 1, &b, true), vec![vec![1, 3], vec![2, 3]]);
    }

    #[test]
    fn anchor_in_middle_joins_both_sides() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b, C c) WITHIN 100", &reg).unwrap();
        let a = ev(&reg, "A", 1, 10, 0);
        let b = ev(&reg, "B", 2, 20, 0);
        let c1 = ev(&reg, "C", 3, 30, 0);
        let c2 = ev(&reg, "C", 4, 40, 0);
        let stacks = stacks_for(&q, &[a, Arc::clone(&b), c1, c2]);
        assert_eq!(
            run(&q, &stacks, 1, &b, true),
            vec![vec![1, 2, 3], vec![1, 2, 4]]
        );
    }

    #[test]
    fn window_excludes_wide_spans() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 5", &reg).unwrap();
        let a = ev(&reg, "A", 1, 10, 0);
        let b = ev(&reg, "B", 2, 16, 0); // span 6 > 5
        let stacks = stacks_for(&q, &[a, Arc::clone(&b)]);
        assert!(run(&q, &stacks, 1, &b, true).is_empty());
        // span exactly W is allowed
        let b2 = ev(&reg, "B", 3, 15, 0);
        let a2 = ev(&reg, "A", 4, 10, 0);
        let q2 = parse("PATTERN SEQ(A a, B b) WITHIN 5", &reg).unwrap();
        let stacks2 = stacks_for(&q2, &[a2, Arc::clone(&b2)]);
        assert_eq!(run(&q2, &stacks2, 1, &b2, true), vec![vec![4, 3]]);
    }

    #[test]
    fn strict_timestamp_order_required() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 100", &reg).unwrap();
        let a = ev(&reg, "A", 1, 10, 0);
        let b = ev(&reg, "B", 2, 10, 0); // simultaneous: not a sequence
        let stacks = stacks_for(&q, &[a, Arc::clone(&b)]);
        assert!(run(&q, &stacks, 1, &b, true).is_empty());
    }

    #[test]
    fn predicates_prune_during_walk() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 100", &reg).unwrap();
        let a1 = ev(&reg, "A", 1, 10, 7);
        let a2 = ev(&reg, "A", 2, 20, 9);
        let b = ev(&reg, "B", 3, 30, 7);
        let stacks = stacks_for(&q, &[a1, a2, Arc::clone(&b)]);
        assert_eq!(run(&q, &stacks, 1, &b, true), vec![vec![1, 3]]);
    }

    #[test]
    fn local_predicate_on_anchor_prunes_immediately() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WHERE b.x > 100 WITHIN 100", &reg).unwrap();
        let a = ev(&reg, "A", 1, 10, 0);
        let b = ev(&reg, "B", 2, 20, 5); // fails local predicate
        let stacks = stacks_for(&q, &[a, Arc::clone(&b)]);
        let mut stats = RuntimeStats::default();
        let mut out = Vec::new();
        Constructor::new(Arc::clone(&q), ConstructOpts::default())
            .matches_with(&stacks, 1, &b, &mut stats, &mut out);
        assert!(out.is_empty());
        assert_eq!(stats.dfs_steps, 0, "anchor rejected before any descent");
    }

    #[test]
    fn cutoff_and_full_scan_agree() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b, C c) WHERE a.x < c.x WITHIN 15", &reg).unwrap();
        let mut events = Vec::new();
        let mut id = 0;
        for ts in (0..60).step_by(3) {
            id += 1;
            let ty = ["A", "B", "C"][ts as usize % 3];
            events.push(ev(&reg, ty, id, ts, (ts % 7) as i64));
        }
        let stacks = stacks_for(&q, &events);
        for e in &events {
            for slot in q.slots_for_type(e.event_type()) {
                assert_eq!(
                    run(&q, &stacks, slot, e, true),
                    run(&q, &stacks, slot, e, false),
                    "cutoff changed results for anchor {} slot {slot}",
                    e.id()
                );
            }
        }
    }

    #[test]
    fn cutoff_reduces_dfs_steps() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 5", &reg).unwrap();
        let mut events = Vec::new();
        for i in 0..50 {
            events.push(ev(&reg, "A", i, i * 10, 0));
        }
        let b = ev(&reg, "B", 99, 251, 0);
        events.push(Arc::clone(&b));
        let stacks = stacks_for(&q, &events);
        let mut s1 = RuntimeStats::default();
        let mut s2 = RuntimeStats::default();
        let mut out = Vec::new();
        Constructor::new(
            Arc::clone(&q),
            ConstructOpts {
                window_cutoff: true,
            },
        )
        .matches_with(&stacks, 1, &b, &mut s1, &mut out);
        out.clear();
        Constructor::new(
            Arc::clone(&q),
            ConstructOpts {
                window_cutoff: false,
            },
        )
        .matches_with(&stacks, 1, &b, &mut s2, &mut out);
        assert!(s1.dfs_steps < s2.dfs_steps);
    }

    #[test]
    fn single_component_query_matches_anchor_alone() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a) WHERE a.x > 0 WITHIN 10", &reg).unwrap();
        let a = ev(&reg, "A", 1, 10, 5);
        let stacks = stacks_for(&q, &[]);
        assert_eq!(run(&q, &stacks, 0, &a, true), vec![vec![1]]);
        let bad = ev(&reg, "A", 2, 10, -5);
        assert!(run(&q, &stacks, 0, &bad, true).is_empty());
    }

    #[test]
    fn repeated_type_uses_distinct_events() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a1, A a2) WITHIN 100", &reg).unwrap();
        let a1 = ev(&reg, "A", 1, 10, 0);
        let a2 = ev(&reg, "A", 2, 20, 0);
        let stacks = stacks_for(&q, &[a1, Arc::clone(&a2)]);
        // anchored at slot 1, the only prefix candidate is the earlier A
        assert_eq!(run(&q, &stacks, 1, &a2, true), vec![vec![1, 2]]);
        // anchored at slot 0, the suffix candidate is the later A
        let a1_again = stacks[0].events()[0].clone();
        assert_eq!(run(&q, &stacks, 0, &a1_again, true), vec![vec![1, 2]]);
    }
}
