//! Arrival-driven sequence construction with out-of-order compensation.

use std::sync::Arc;

use sequin_query::{with_binding, Binding, Query};
use sequin_types::{Duration, EventRef, Timestamp};

use crate::keyed::KeyedStack;
use crate::negation::NegationIndex;
use crate::stack::{AisStack, StackRange};
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
    /// The part of `stack` a level bounded by `lo..hi` scans: that range
    /// under the cut-off, else all of it (and the scan applies the bound).
    pub fn candidates(self, stack: &AisStack, lo: Timestamp, hi: Timestamp) -> StackRange<'_> {
        if self.window_cutoff {
            stack.range(lo, hi)
        } else {
            stack.whole()
        }
    }

    /// The level walk, written once: every assignment of `query`'s
    /// positive slots `0..len` that holds `anchor` at `anchor_slot`,
    /// drawing slot `s` from `stack_of(s)` (fetched once per visit of the
    /// slot's level). Slots below the anchor bind in descending order,
    /// newest candidate first — matches closest to the anchor come out
    /// first, as in the classic engine's most-recent-first DFS — then the
    /// slots above it ascending, oldest first. Each level's bounds, before
    /// `negatives` narrows them ([`NegationIndex::narrow`]), come from the
    /// window and sequence order. `bind(binding, slot)` judges each event
    /// just bound (the anchor included) and prunes on `false`;
    /// `complete(binding)` sees each full assignment. `binding` is indexed
    /// by component of `query` and borrows from the stacks. Every
    /// candidate visited adds one to `dfs_steps`; returns the predicate
    /// evaluations the narrowing spent.
    #[allow(clippy::too_many_arguments)]
    pub fn walk_levels<'a>(
        self,
        query: &'a Query,
        len: usize,
        anchor_slot: usize,
        anchor: &'a EventRef,
        stack_of: impl Fn(usize) -> &'a AisStack,
        negatives: Option<&'a NegationIndex>,
        bind: impl FnMut(&[Option<&'a EventRef>], usize) -> bool,
        complete: impl FnMut(&[Option<&'a EventRef>]),
        dfs_steps: &mut u64,
    ) -> u64 {
        assert!(anchor_slot < len, "anchor slot out of range");
        with_binding(query.components().len(), |binding| {
            let mut walk = LevelWalk {
                query,
                opts: self,
                len,
                anchor_slot,
                stack_of,
                negatives,
                bind,
                complete,
                binding,
                dfs_steps,
                narrow_evals: 0,
            };
            // Judge the anchor before descending.
            if walk.bind(anchor_slot, anchor) {
                walk.extend_prefix(anchor_slot);
            }
            walk.narrow_evals
        })
    }
}

/// The bounds of a level above the anchor once the prefix is complete:
/// strict sequence order and span `<= W` give `prev < ts <= first + W`.
pub fn suffix_bounds(
    window: Duration,
    first_ts: Timestamp,
    prev_ts: Timestamp,
) -> (Timestamp, Timestamp) {
    let tick = Duration::new(1);
    let hi = first_ts.saturating_add(window).saturating_add(tick);
    (prev_ts.saturating_add(tick), hi)
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
}

impl Constructor {
    /// Creates a constructor for `query`.
    pub fn new(query: Arc<Query>, opts: ConstructOpts) -> Constructor {
        Constructor { query, opts }
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
        self.walk(|slot| &stacks[slot], None, anchor_slot, anchor, stats, out);
    }

    /// [`Constructor::matches_with`] over a pool of stacks shared between
    /// queries: slot `s` reads `pool[slot_stack[s]]`. The anchor's key is
    /// read once, through its own slot's key field, and each level of the
    /// walk scans that key's stack of the level's slot — the candidates a
    /// per-key set of stacks would hold, in the same order, and only those
    /// count as DFS steps. Slots without a key field are scanned whole.
    /// With the query's `negatives`, no level visits a candidate that a
    /// stored negative already rules out ([`NegationIndex::narrow`]).
    ///
    /// # Panics
    ///
    /// Panics if `slot_stack.len()` differs from the query's positive
    /// length or `anchor_slot` is out of range.
    #[allow(clippy::too_many_arguments)]
    pub fn matches_pooled(
        &self,
        pool: &[KeyedStack],
        slot_stack: &[usize],
        negatives: Option<&NegationIndex>,
        anchor_slot: usize,
        anchor: &EventRef,
        stats: &mut RuntimeStats,
        out: &mut Vec<Vec<EventRef>>,
    ) {
        let m = self.query.positive_len();
        assert_eq!(slot_stack.len(), m, "one stack per positive slot");
        let key = pool[slot_stack[anchor_slot]].key_of(anchor);
        let stack_of = |slot: usize| pool[slot_stack[slot]].scan(key.as_ref());
        self.walk(stack_of, negatives, anchor_slot, anchor, stats, out);
    }

    fn walk<'a>(
        &'a self,
        stack_of: impl Fn(usize) -> &'a AisStack,
        negatives: Option<&'a NegationIndex>,
        anchor_slot: usize,
        anchor: &'a EventRef,
        stats: &mut RuntimeStats,
        out: &mut Vec<Vec<EventRef>>,
    ) {
        let query: &Query = &self.query;
        let m = query.positive_len();
        let RuntimeStats {
            dfs_steps,
            predicate_evals,
            matches_constructed,
            ..
        } = stats;
        // A predicate whose other references are still unbound reports
        // `None` (undecided) and does not prune; each predicate therefore
        // fires exactly once per complete path — when its last referenced
        // slot binds.
        let bind = |binding: &[Option<&EventRef>], slot: usize| {
            let comp = query.positive_comp(slot);
            let preds = query.predicates().iter();
            preds.filter(|p| p.mask().contains(comp)).all(|pred| {
                *predicate_evals += 1;
                pred.eval(binding) != Some(false)
            })
        };
        let complete = |binding: &[Option<&EventRef>]| {
            let bound = |p| binding[query.positive_comp(p)].expect("slot is bound");
            out.push((0..m).map(|p| Arc::clone(bound(p))).collect());
            *matches_constructed += 1;
        };
        let narrow_evals = self.opts.walk_levels(
            query,
            m,
            anchor_slot,
            anchor,
            stack_of,
            negatives,
            bind,
            complete,
            dfs_steps,
        );
        *predicate_evals += narrow_evals;
    }
}

/// The state of one [`ConstructOpts::walk_levels`].
struct LevelWalk<'a, 'c, S, B, C> {
    query: &'a Query,
    opts: ConstructOpts,
    len: usize,
    anchor_slot: usize,
    stack_of: S,
    negatives: Option<&'a NegationIndex>,
    bind: B,
    complete: C,
    /// The partial assignment, by component, borrowed from the stacks.
    binding: &'c mut Binding<'a>,
    dfs_steps: &'c mut u64,
    narrow_evals: u64,
}

impl<'a, S, B, C> LevelWalk<'a, '_, S, B, C>
where
    S: Fn(usize) -> &'a AisStack,
    B: FnMut(&[Option<&'a EventRef>], usize) -> bool,
    C: FnMut(&[Option<&'a EventRef>]),
{
    fn bound(&self, slot: usize) -> &'a EventRef {
        self.binding[self.query.positive_comp(slot)].expect("slot is bound")
    }

    fn bind(&mut self, slot: usize, ev: &'a EventRef) -> bool {
        self.binding[self.query.positive_comp(slot)] = Some(ev);
        (self.bind)(self.binding, slot)
    }

    fn unbind(&mut self, slot: usize) {
        self.binding[self.query.positive_comp(slot)] = None;
    }

    /// One visit of `slot`'s level bounded by `lo..hi`: the bounds narrowed
    /// by the stored negatives, and the part of the slot's stack to scan.
    fn level(
        &mut self,
        slot: usize,
        lo: Timestamp,
        hi: Timestamp,
    ) -> (Timestamp, Timestamp, StackRange<'a>) {
        let (lo, hi) = match self.negatives {
            Some(n) => n.narrow(self.binding, slot, lo, hi, &mut self.narrow_evals),
            None => (lo, hi),
        };
        (lo, hi, self.opts.candidates((self.stack_of)(slot), lo, hi))
    }

    /// Fills slots `anchor_slot-1 .. 0` (descending), then hands off to
    /// [`LevelWalk::extend_suffix`]. A slot bound just under `next` must
    /// fall in `anchor − W .. next` (span `<= W` and last `>= anchor`).
    fn extend_prefix(&mut self, filled_down_to: usize) {
        if filled_down_to == 0 {
            self.extend_suffix(self.anchor_slot);
            return;
        }
        let slot = filled_down_to - 1;
        let next_ts = self.bound(slot + 1).ts();
        let anchor_ts = self.bound(self.anchor_slot).ts();
        let lo = anchor_ts.saturating_sub(self.query.window());
        let (lo, hi, candidates) = self.level(slot, lo, next_ts);
        for part in candidates.slices().rev() {
            for ev in part.iter().rev() {
                *self.dfs_steps += 1;
                if !self.opts.window_cutoff && (ev.ts() < lo || ev.ts() >= hi) {
                    continue;
                }
                if self.bind(slot, ev) {
                    self.extend_prefix(slot);
                }
            }
        }
        self.unbind(slot);
    }

    /// Fills slots `anchor_slot+1 .. len-1` (ascending); completes at the top.
    fn extend_suffix(&mut self, filled_up_to: usize) {
        if filled_up_to == self.len - 1 {
            (self.complete)(self.binding);
            return;
        }
        let slot = filled_up_to + 1;
        let prev_ts = self.bound(slot - 1).ts();
        let first_ts = self.bound(0).ts();
        let (lo, hi) = suffix_bounds(self.query.window(), first_ts, prev_ts);
        let (lo, hi, candidates) = self.level(slot, lo, hi);
        for part in candidates.slices() {
            for ev in part {
                *self.dfs_steps += 1;
                if !self.opts.window_cutoff && (ev.ts() < lo || ev.ts() >= hi) {
                    continue;
                }
                if self.bind(slot, ev) {
                    self.extend_suffix(slot);
                }
            }
        }
        self.unbind(slot);
    }
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
        let a1_again = stacks[0].first().unwrap().clone();
        assert_eq!(run(&q, &stacks, 0, &a1_again, true), vec![vec![1, 2]]);
    }
}
