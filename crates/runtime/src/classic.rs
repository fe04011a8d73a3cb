//! The classic in-order SASE-style pipeline (state of the art circa 2006).
//!
//! This is the engine the paper analyzes as broken under out-of-order
//! arrival, reproduced faithfully:
//!
//! * **append-only stacks**: each arriving event is pushed on top of its
//!   component's stack, annotated with a *recent instance in previous*
//!   (RIP) pointer — the index of the newest instance of the previous
//!   stack at insertion time;
//! * **last-type-triggered construction**: only an arrival of the final
//!   positive component's type starts a DFS down the RIP pointers;
//! * **arrival-driven purge** (`K = 0` watermark): state older than the
//!   window relative to the newest arrival is evicted.
//!
//! With timestamp-ordered input this produces exactly the correct match
//! set. Under disorder it both **misses matches** (a late event is pushed
//! above newer events, so earlier-arrived terminators never see it; RIP
//! pointers misdirect the DFS) and **emits phantoms** (the stack discipline
//! *implies* sequence order instead of checking it, and eager negation
//! checks run before late negatives arrive) — precisely the failure modes
//! quantified in experiment E1.
//!
//! Negation caveat: like other eager in-order engines, a *trailing*
//! negation region extends into the future and is checked here against the
//! negatives seen so far; even on ordered input that can emit matches a
//! later negative invalidates. Conservative/sealed emission (the paper's
//! approach) lives in `sequin-engine`.

use std::sync::Arc;

use sequin_query::{with_binding, Query};
use sequin_types::{EventRef, Timestamp};

use crate::negation::NegationIndex;
use crate::purge::PurgePolicy;
use crate::stats::RuntimeStats;

/// One stack entry: the event plus its RIP pointer into the previous stack.
#[derive(Debug, Clone)]
struct Instance {
    event: EventRef,
    /// Index of the most recent instance of the previous stack at the time
    /// this instance was pushed; `None` for the first stack or when the
    /// previous stack's relevant prefix has been purged away.
    rip: Option<usize>,
}

/// The classic engine. Feed arrivals with [`ClassicSase::ingest`]; each
/// call returns the matches (positive-order event vectors) it triggered.
#[derive(Debug, Clone)]
pub struct ClassicSase {
    query: Arc<Query>,
    /// One append-only stack per positive slot except the last (terminator
    /// arrivals trigger construction and are not retained).
    stacks: Vec<Vec<Instance>>,
    negatives: NegationIndex,
    policy: PurgePolicy,
    clock: Timestamp,
    items_seen: u64,
    stats: RuntimeStats,
}

impl ClassicSase {
    /// Creates an engine for `query` with the given purge cadence.
    pub fn new(query: Arc<Query>, policy: PurgePolicy) -> ClassicSase {
        let m = query.positive_len();
        ClassicSase {
            negatives: NegationIndex::new(Arc::clone(&query)),
            stacks: vec![Vec::new(); m.saturating_sub(1)],
            query,
            policy,
            clock: Timestamp::MIN,
            items_seen: 0,
            stats: RuntimeStats::default(),
        }
    }

    /// The query being evaluated.
    pub fn query(&self) -> &Arc<Query> {
        &self.query
    }

    /// Accumulated operator statistics.
    pub fn stats(&self) -> RuntimeStats {
        self.stats
    }

    /// Total instances currently held (positive stacks + negative index).
    pub fn state_size(&self) -> usize {
        self.stacks.iter().map(Vec::len).sum::<usize>() + self.negatives.len()
    }

    /// Ingests one arrival; returns the positive-order event vectors of
    /// every match it triggered.
    pub fn ingest(&mut self, event: &EventRef) -> Vec<Vec<EventRef>> {
        self.items_seen += 1;
        self.clock = self.clock.max(event.ts());
        let mut out = Vec::new();

        self.negatives.offer(event, &mut self.stats);

        let m = self.query.positive_len();
        // snapshot stack heights first: a repeated-type event entering two
        // stacks in one arrival must not become its own RIP predecessor
        let heights: Vec<usize> = self.stacks.iter().map(Vec::len).collect();
        for slot in self.query.slots_for_type(event.event_type()) {
            if !self.passes_local_predicates(slot, event) {
                continue;
            }
            if slot + 1 == m {
                self.construct(event, &mut out, &heights);
            } else {
                // an instance with no possible predecessor is dead on
                // arrival; classic SASE skips storing it
                let rip = if slot == 0 {
                    None
                } else if heights[slot - 1] == 0 {
                    continue;
                } else {
                    Some(heights[slot - 1] - 1)
                };
                self.stacks[slot].push(Instance {
                    event: Arc::clone(event),
                    rip,
                });
                self.stats.insertions += 1;
            }
        }

        if self.policy.due(self.items_seen) {
            self.purge();
        }
        out
    }

    fn passes_local_predicates(&mut self, slot: usize, event: &EventRef) -> bool {
        with_binding(self.query.components().len(), |binding| {
            binding[self.query.positive_comp(slot)] = Some(event);
            for pred in self.query.local_predicates(slot) {
                self.stats.predicate_evals += 1;
                if pred.eval(binding) != Some(true) {
                    return false;
                }
            }
            true
        })
    }

    /// DFS down the RIP pointers from a terminator arrival. `heights` are
    /// the stack heights before this arrival's insertions, so a
    /// repeated-type terminator cannot chain through its own copy.
    fn construct(
        &mut self,
        terminator: &EventRef,
        out: &mut Vec<Vec<EventRef>>,
        heights: &[usize],
    ) {
        let m = self.query.positive_len();
        let mut chosen: Vec<Option<EventRef>> = vec![None; m];
        chosen[m - 1] = Some(Arc::clone(terminator));
        if !self.check_slot(&chosen, m - 1) {
            return;
        }
        if m == 1 {
            self.emit(&chosen, out);
            return;
        }
        let top = match heights[m - 2].checked_sub(1) {
            Some(top) => top,
            None => return,
        };
        self.descend(m - 2, top, &mut chosen, out);
    }

    fn descend(
        &mut self,
        slot: usize,
        rip: usize,
        chosen: &mut Vec<Option<EventRef>>,
        out: &mut Vec<Vec<EventRef>>,
    ) {
        let anchor_ts = chosen
            .last()
            .and_then(|c| c.as_ref())
            .expect("terminator bound")
            .ts();
        let window = self.query.window();
        // newest-first, as SASE's stack DFS does
        for ix in (0..=rip).rev() {
            let inst = self.stacks[slot][ix].clone();
            self.stats.dfs_steps += 1;
            // window pruning on the *claimed* span; under disorder a
            // candidate "newer" than the anchor slips through (phantom)
            if inst.event.ts().saturating_add(window) < anchor_ts {
                continue;
            }
            chosen[slot] = Some(Arc::clone(&inst.event));
            if self.check_slot(chosen, slot) {
                if slot == 0 {
                    self.emit(chosen, out);
                } else if let Some(prev_rip) = inst.rip {
                    self.descend(slot - 1, prev_rip, chosen, out);
                }
            }
            chosen[slot] = None;
        }
    }

    fn check_slot(&mut self, chosen: &[Option<EventRef>], slot: usize) -> bool {
        let comp = self.query.positive_comp(slot);
        with_binding(self.query.components().len(), |binding| {
            for (p, c) in chosen.iter().enumerate() {
                if let Some(ev) = c.as_ref() {
                    binding[self.query.positive_comp(p)] = Some(ev);
                }
            }
            for pred in self.query.predicates() {
                if pred.mask().contains(comp) {
                    self.stats.predicate_evals += 1;
                    if pred.eval(binding) == Some(false) {
                        return false;
                    }
                }
            }
            true
        })
    }

    fn emit(&mut self, chosen: &[Option<EventRef>], out: &mut Vec<Vec<EventRef>>) {
        let events: Vec<EventRef> = chosen
            .iter()
            .map(|c| Arc::clone(c.as_ref().expect("complete")))
            .collect();
        // window acceptance on the actual timestamps; a disordered (phantom)
        // sequence has last.ts <= first.ts and passes — the stack discipline
        // *implied* the order, it never checked it
        let first = events.first().expect("nonempty").ts();
        let last = events.last().expect("nonempty").ts();
        if last > first && last - first > self.query.window() {
            return;
        }
        if self.query.has_negation() && self.negatives.violates(&events, &mut self.stats) {
            return;
        }
        self.stats.matches_constructed += 1;
        out.push(events);
    }

    /// Arrival-driven purge with `K = 0`: evicts non-final instances with
    /// `ts + W < clock` and rewrites RIP pointers for the shifted indices.
    pub fn purge(&mut self) {
        self.stats.purge_runs += 1;
        let threshold = self.clock.saturating_sub(self.query.window());
        let mut removed_prev = 0usize;
        for slot in 0..self.stacks.len() {
            // fix pointers into the previous stack first
            if removed_prev > 0 {
                for inst in &mut self.stacks[slot] {
                    inst.rip = inst.rip.and_then(|r| r.checked_sub(removed_prev));
                }
            }
            let before = self.stacks[slot].len();
            // append-only stacks are arrival-ordered, not ts-ordered, so
            // the classic purge must scan (it cannot drain a prefix)
            self.stacks[slot].retain(|inst| inst.event.ts() >= threshold);
            removed_prev = before - self.stacks[slot].len();
            self.stats.purged += removed_prev as u64;
        }
        self.negatives.purge_before(threshold, &mut self.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequin_query::parse;
    use sequin_types::{Event, EventId, TypeRegistry, Value, ValueKind};

    fn registry() -> TypeRegistry {
        let mut reg = TypeRegistry::new();
        for name in ["A", "B", "C", "N"] {
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

    fn ids(matches: &[Vec<EventRef>]) -> Vec<Vec<u64>> {
        let mut v: Vec<Vec<u64>> = matches
            .iter()
            .map(|m| m.iter().map(|e| e.id().get()).collect())
            .collect();
        v.sort();
        v
    }

    #[test]
    fn in_order_finds_all_combinations() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 100", &reg).unwrap();
        let mut eng = ClassicSase::new(q, PurgePolicy::NEVER);
        let mut all = Vec::new();
        for e in [
            ev(&reg, "A", 1, 10, 0),
            ev(&reg, "A", 2, 20, 0),
            ev(&reg, "B", 3, 30, 0),
            ev(&reg, "B", 4, 40, 0),
        ] {
            all.extend(eng.ingest(&e));
        }
        assert_eq!(
            ids(&all),
            vec![vec![1, 3], vec![1, 4], vec![2, 3], vec![2, 4]]
        );
    }

    #[test]
    fn in_order_respects_window_and_predicates() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 15", &reg).unwrap();
        let mut eng = ClassicSase::new(q, PurgePolicy::NEVER);
        let mut all = Vec::new();
        for e in [
            ev(&reg, "A", 1, 10, 7),
            ev(&reg, "A", 2, 20, 8),
            ev(&reg, "B", 3, 30, 7), // window excludes A1 (span 20), x excludes A2
            ev(&reg, "B", 4, 34, 8), // x matches A2, span 14 ok
        ] {
            all.extend(eng.ingest(&e));
        }
        assert_eq!(ids(&all), vec![vec![2, 4]]);
    }

    #[test]
    fn late_event_is_missed() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 100", &reg).unwrap();
        let mut eng = ClassicSase::new(q, PurgePolicy::NEVER);
        let mut all = Vec::new();
        // B(ts=30) arrives before A(ts=10): the A is pushed later, and no
        // further B arrival triggers construction -> the (A,B) match is lost
        for e in [ev(&reg, "B", 1, 30, 0), ev(&reg, "A", 2, 10, 0)] {
            all.extend(eng.ingest(&e));
        }
        assert!(all.is_empty());
    }

    #[test]
    fn disorder_can_emit_phantoms() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 100", &reg).unwrap();
        let mut eng = ClassicSase::new(q, PurgePolicy::NEVER);
        let mut all = Vec::new();
        // A(ts=50) arrives first, then B(ts=20): stack discipline implies
        // A-before-B, so a phantom (A@50, B@20) is emitted
        for e in [ev(&reg, "A", 1, 50, 0), ev(&reg, "B", 2, 20, 0)] {
            all.extend(eng.ingest(&e));
        }
        assert_eq!(ids(&all), vec![vec![1, 2]]);
    }

    #[test]
    fn three_component_chain() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b, C c) WITHIN 100", &reg).unwrap();
        let mut eng = ClassicSase::new(q, PurgePolicy::NEVER);
        let mut all = Vec::new();
        for e in [
            ev(&reg, "A", 1, 10, 0),
            ev(&reg, "B", 2, 20, 0),
            ev(&reg, "A", 3, 25, 0),
            ev(&reg, "B", 4, 30, 0),
            ev(&reg, "C", 5, 40, 0),
        ] {
            all.extend(eng.ingest(&e));
        }
        assert_eq!(
            ids(&all),
            vec![vec![1, 2, 5], vec![1, 4, 5], vec![3, 4, 5]] // A3 after B2: no (3,2,5)
        );
    }

    #[test]
    fn negation_blocks_match_in_order() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, !N n, B b) WITHIN 100", &reg).unwrap();
        let mut eng = ClassicSase::new(q, PurgePolicy::NEVER);
        let mut all = Vec::new();
        for e in [
            ev(&reg, "A", 1, 10, 0),
            ev(&reg, "N", 2, 15, 0),
            ev(&reg, "B", 3, 20, 0),
            ev(&reg, "A", 4, 30, 0),
            ev(&reg, "B", 5, 40, 0),
        ] {
            all.extend(eng.ingest(&e));
        }
        // (1,3) blocked by N@15; (1,5) blocked too (N in (10,40)); (4,5) clean
        assert_eq!(ids(&all), vec![vec![4, 5]]);
    }

    #[test]
    fn purge_evicts_expired_state_and_fixes_pointers() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b, C c) WITHIN 10", &reg).unwrap();
        let mut eng = ClassicSase::new(q, PurgePolicy::EAGER);
        let mut all = Vec::new();
        for e in [
            ev(&reg, "A", 1, 10, 0),
            ev(&reg, "B", 2, 15, 0),
            ev(&reg, "A", 3, 100, 0),
            ev(&reg, "B", 4, 105, 0),
            ev(&reg, "C", 5, 108, 0),
        ] {
            all.extend(eng.ingest(&e));
        }
        assert_eq!(ids(&all), vec![vec![3, 4, 5]]);
        assert!(eng.stats().purged >= 2, "old A/B evicted");
        assert!(eng.state_size() <= 2);
    }

    #[test]
    fn purge_never_loses_valid_matches_in_order() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 50", &reg).unwrap();
        let mut eager = ClassicSase::new(Arc::clone(&q), PurgePolicy::EAGER);
        let mut never = ClassicSase::new(q, PurgePolicy::NEVER);
        let mut out_eager = Vec::new();
        let mut out_never = Vec::new();
        for i in 0..200u64 {
            let ty = if i % 3 == 0 { "B" } else { "A" };
            let e = ev(&reg, ty, i, i * 7, 0);
            out_eager.extend(eager.ingest(&e));
            out_never.extend(never.ingest(&e));
        }
        assert_eq!(ids(&out_eager), ids(&out_never));
        assert!(eager.state_size() < never.state_size());
    }

    #[test]
    fn single_component_pattern() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a) WHERE a.x > 0 WITHIN 10", &reg).unwrap();
        let mut eng = ClassicSase::new(q, PurgePolicy::EAGER);
        assert_eq!(eng.ingest(&ev(&reg, "A", 1, 5, 3)).len(), 1);
        assert_eq!(eng.ingest(&ev(&reg, "A", 2, 6, -3)).len(), 0);
        assert_eq!(eng.ingest(&ev(&reg, "B", 3, 7, 1)).len(), 0);
    }

    #[test]
    fn repeated_type_binds_distinct_events() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a1, A a2) WITHIN 100", &reg).unwrap();
        let mut eng = ClassicSase::new(q, PurgePolicy::NEVER);
        let mut all = Vec::new();
        for e in [
            ev(&reg, "A", 1, 10, 0),
            ev(&reg, "A", 2, 20, 0),
            ev(&reg, "A", 3, 30, 0),
        ] {
            all.extend(eng.ingest(&e));
        }
        // an event must never pair with its own copy in the other slot
        assert_eq!(ids(&all), vec![vec![1, 2], vec![1, 3], vec![2, 3]]);
    }

    #[test]
    fn dead_on_arrival_instances_not_stored() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b, C c) WITHIN 100", &reg).unwrap();
        let mut eng = ClassicSase::new(q, PurgePolicy::NEVER);
        // B with no A below it is dropped
        eng.ingest(&ev(&reg, "B", 1, 10, 0));
        assert_eq!(eng.state_size(), 0);
        eng.ingest(&ev(&reg, "A", 2, 20, 0));
        eng.ingest(&ev(&reg, "B", 3, 30, 0));
        assert_eq!(eng.state_size(), 2);
    }
}
