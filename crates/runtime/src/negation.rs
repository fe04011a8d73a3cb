//! Negation regions and the negative-event index.

use std::sync::Arc;

use sequin_query::{with_binding, Binding, Negation, Query};
use sequin_types::{Duration, EventRef, Timestamp};

use crate::stack::AisStack;
use crate::stats::RuntimeStats;

/// The half-open timestamp interval `[start, end)` a negated component
/// guards for one concrete match.
///
/// * between two positives `l`, `r`: `[l.ts + 1, r.ts)` (strictly between);
/// * leading negation: `[first.ts − W, first.ts)` (clamped at 0);
/// * trailing negation: `[last.ts + 1, first.ts + W + 1)`, i.e.
///   `(last.ts, first.ts + W]`.
///
/// A region is **sealed** once the stream's low-watermark (under K-slack:
/// `clock − K`; under punctuation: the punctuation timestamp) reaches
/// `end` — from then on no event that could fall inside it is in flight,
/// and the negation check is final.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// Inclusive start.
    pub start: Timestamp,
    /// Exclusive end.
    pub end: Timestamp,
}

impl Region {
    /// True when the region contains no timestamps at all.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// Computes the negation regions of a match (positive-order `events`),
/// in [`Query::negations`] order.
pub fn regions(query: &Query, events: &[EventRef]) -> Vec<Region> {
    let region = |n| region_of(query, n, events);
    query.negations().iter().map(region).collect()
}

/// The region negation `n` of `query` guards for the match `events`
/// (positive order): one entry of [`regions`], without the vector.
pub fn region_of(query: &Query, n: &Negation, events: &[EventRef]) -> Region {
    let window = query.window();
    let first = events
        .first()
        .expect("match has at least one positive")
        .ts();
    let last = events.last().expect("match has at least one positive").ts();
    match (n.left, n.right) {
        (Some(l), Some(r)) => Region {
            start: events[l].ts().saturating_add(Duration::new(1)),
            end: events[r].ts(),
        },
        (None, Some(r)) => {
            debug_assert_eq!(r, 0);
            Region {
                start: first.saturating_sub(window),
                end: events[r].ts(),
            }
        }
        (Some(_), None) => Region {
            start: last.saturating_add(Duration::new(1)),
            end: first
                .saturating_add(window)
                .saturating_add(Duration::new(1)),
        },
        (None, None) => unreachable!("negation with no positive flank"),
    }
}

/// The latest region end across all negations of a match — the watermark a
/// conservative engine must wait for before emitting the match.
pub fn seal_deadline(query: &Query, events: &[EventRef]) -> Option<Timestamp> {
    let end = |n| region_of(query, n, events).end;
    query.negations().iter().map(end).max()
}

/// Index of candidate *negative* events, one [`AisStack`] per negated
/// component, pre-filtered by the negation's component-local predicates.
#[derive(Debug, Clone)]
pub struct NegationIndex {
    query: Arc<Query>,
    stacks: Vec<AisStack>,
}

impl NegationIndex {
    /// Creates an empty index for `query`.
    pub fn new(query: Arc<Query>) -> NegationIndex {
        let stacks = vec![AisStack::new(); query.negations().len()];
        NegationIndex { query, stacks }
    }

    /// Offers an event to the index; it is stored for every negated
    /// component whose type matches and whose *local* predicates (those
    /// referencing only the negated component) accept it. Returns `true`
    /// if the event was stored anywhere.
    pub fn offer(&mut self, event: &EventRef, stats: &mut RuntimeStats) -> bool {
        let mut stored = false;
        for (ix, neg) in self.query.negations().iter().enumerate() {
            if !neg.matches_type(event.event_type()) {
                continue;
            }
            let locally_ok = with_binding(self.query.components().len(), |binding| {
                binding[neg.comp] = Some(event);
                neg.predicates.iter().all(|p| {
                    // only local predicates are decidable with just the negative
                    match p.eval(binding) {
                        Some(ok) => {
                            stats.predicate_evals += 1;
                            ok
                        }
                        None => true, // involves positives: decide at check time
                    }
                })
            });
            if locally_ok && self.stacks[ix].insert(Arc::clone(event)).is_some() {
                stored = true;
                stats.insertions += 1;
            }
        }
        stored
    }

    /// True when some stored negative event invalidates the match
    /// `events` (positive order): it falls in the negation's region and
    /// satisfies the negation's predicates under the full binding.
    pub fn violates(&self, events: &[EventRef], stats: &mut RuntimeStats) -> bool {
        let query: &Query = &self.query;
        query.with_positives(events, |binding| {
            for (neg, stack) in query.negations().iter().zip(&self.stacks) {
                let region = region_of(query, neg, events);
                if region.is_empty() {
                    continue;
                }
                for part in stack.range(region.start, region.end).slices() {
                    for candidate in part {
                        binding[neg.comp] = Some(candidate);
                        let all_hold = neg.predicates.iter().all(|p| {
                            stats.predicate_evals += 1;
                            p.eval(binding) == Some(true)
                        });
                        if all_hold {
                            stats.negated_matches += 1;
                            return true;
                        }
                    }
                }
                binding[neg.comp] = None;
            }
            false
        })
    }

    /// Narrows the range `lo..hi` a construction walk scans for positive
    /// `slot`, given its partial assignment `binding` (`slot` not yet
    /// bound), to the candidates no stored negative already rules out.
    /// Each negation between two positives, one of them `slot` and the
    /// other bound, whose predicates read nothing else unbound, takes part:
    /// descending to its left flank `l` below a bound `r`, any `l` older
    /// than the newest negative in `(lo, r.ts)` that holds would enclose
    /// it, so `lo` rises to that negative's `ts`; ascending to its right
    /// flank `r` above a bound `l`, `hi` falls to one past the oldest in
    /// `(l.ts, hi)`. Leading and trailing negations narrow nothing. What
    /// is cut, [`NegationIndex::violates`] would reject; the predicate
    /// evaluations of the scan add to `predicate_evals`.
    pub fn narrow<'a>(
        &'a self,
        binding: &mut Binding<'a>,
        slot: usize,
        mut lo: Timestamp,
        mut hi: Timestamp,
        predicate_evals: &mut u64,
    ) -> (Timestamp, Timestamp) {
        let query: &Query = &self.query;
        let tick = Duration::new(1);
        for (neg, stack) in query.negations().iter().zip(&self.stacks) {
            let (Some(l), Some(r)) = (neg.left, neg.right) else {
                continue;
            };
            if slot != l && slot != r {
                continue;
            }
            let descending = slot == l;
            let other = if descending { r } else { l };
            let Some(flank) = binding[query.positive_comp(other)] else {
                continue;
            };
            // a predicate reading another unbound component (`slot`, say)
            // is undecided for every candidate
            let unbound = |c: usize| c != neg.comp && binding[c].is_none();
            if neg
                .predicates
                .iter()
                .any(|p| p.mask().iter_ones().any(unbound))
            {
                continue;
            }
            let mut holds = |n: &'a EventRef| {
                binding[neg.comp] = Some(n);
                neg.predicates.iter().all(|p| {
                    *predicate_evals += 1;
                    p.eval(binding) == Some(true)
                })
            };
            if descending {
                let inside = stack.range(lo.saturating_add(tick), flank.ts());
                if let Some(n) = inside.iter().rev().find(|&n| holds(n)) {
                    lo = n.ts();
                }
            } else {
                let inside = stack.range(flank.ts().saturating_add(tick), hi);
                if let Some(n) = inside.iter().find(|&n| holds(n)) {
                    hi = n.ts().saturating_add(tick);
                }
            }
            binding[neg.comp] = None;
        }
        (lo, hi)
    }

    /// Purges negative events below `threshold` from every stack.
    pub fn purge_before(&mut self, threshold: Timestamp, stats: &mut RuntimeStats) -> usize {
        let purged: usize = self
            .stacks
            .iter_mut()
            .map(|s| s.purge_before(threshold))
            .sum();
        stats.purged += purged as u64;
        purged
    }

    /// Total stored negative events.
    pub fn len(&self) -> usize {
        self.stacks.iter().map(AisStack::len).sum()
    }

    /// True when no negative events are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl NegationIndex {
    /// Serializes the stored negative events (the query itself is not
    /// serialized — restore re-binds to the live query object).
    pub fn snapshot_into(&self, w: &mut sequin_types::Writer) {
        use sequin_types::Encode as _;
        self.stacks.encode(w);
    }

    /// Rebuilds an index for `query` from bytes written by
    /// [`NegationIndex::snapshot_into`]. Rejects snapshots whose stack
    /// count disagrees with the query's negation count.
    pub fn restore(
        query: Arc<Query>,
        r: &mut sequin_types::Reader<'_>,
    ) -> Result<NegationIndex, sequin_types::CodecError> {
        use sequin_types::Decode as _;
        let stacks: Vec<AisStack> = Vec::decode(r)?;
        if stacks.len() != query.negations().len() {
            return Err(sequin_types::CodecError::SnapshotMismatch(
                "query (negation count)",
            ));
        }
        Ok(NegationIndex { query, stacks })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequin_query::parse;
    use sequin_types::{Event, EventId, TypeRegistry, Value, ValueKind};

    fn registry() -> TypeRegistry {
        let mut reg = TypeRegistry::new();
        for name in ["A", "B", "C", "N", "M"] {
            reg.declare(name, &[("x", ValueKind::Int)]).unwrap();
        }
        reg
    }

    /// `idx` narrowing `lo..hi` for `slot`, with the positive slots of
    /// `bound` bound: the bounds and the predicate evaluations spent.
    fn narrowed(
        idx: &NegationIndex,
        slot: usize,
        bound: &[(usize, &EventRef)],
        (lo, hi): (u64, u64),
    ) -> ((u64, u64), u64) {
        let q = &idx.query;
        let mut binding = vec![None; q.components().len()];
        for &(p, e) in bound {
            binding[q.positive_comp(p)] = Some(e);
        }
        let mut evals = 0;
        let (lo, hi) = idx.narrow(
            &mut binding,
            slot,
            Timestamp::new(lo),
            Timestamp::new(hi),
            &mut evals,
        );
        ((lo.ticks(), hi.ticks()), evals)
    }

    fn index_of(reg: &TypeRegistry, text: &str, negatives: &[EventRef]) -> NegationIndex {
        let mut idx = NegationIndex::new(parse(text, reg).unwrap());
        for n in negatives {
            idx.offer(n, &mut RuntimeStats::default());
        }
        idx
    }

    #[test]
    fn narrow_stops_at_the_negative_strictly_between_the_flanks() {
        let reg = registry();
        let q = "PATTERN SEQ(A a, !N n, B b) WITHIN 100";
        let (a, b) = (ev(&reg, "A", 1, 10, 0), ev(&reg, "B", 2, 30, 0));
        // descending to `a` below b@30, lo at 30 − W clamped; ascending to
        // `b` above a@10, from 11 to 10 + W + 1
        let (below_b, above_a) = ([(1, &b)], [(0, &a)]);
        let (down, up) = ((0, 30), (11, 111));
        // a negative at a flank's own timestamp is outside every region
        // that flank bounds
        let at_b = index_of(&reg, q, &[ev(&reg, "N", 3, 30, 0)]);
        assert_eq!(narrowed(&at_b, 0, &below_b, down), (down, 0));
        let at_a = index_of(&reg, q, &[ev(&reg, "N", 3, 10, 0)]);
        assert_eq!(narrowed(&at_a, 1, &above_a, up), (up, 0));
        // N@20 rules out every `a` before it and every `b` after it; an
        // `a` or a `b` at 20 itself still stands
        let mid = index_of(&reg, q, &[ev(&reg, "N", 3, 20, 0)]);
        assert_eq!(narrowed(&mid, 0, &below_b, down), ((20, 30), 0));
        assert_eq!(narrowed(&mid, 1, &above_a, up), ((11, 21), 0));
    }

    #[test]
    fn narrow_decides_only_predicates_on_the_bound_flank() {
        let reg = registry();
        let negatives = [ev(&reg, "N", 3, 20, 5), ev(&reg, "N", 4, 25, 7)];
        let (a, b) = (ev(&reg, "A", 1, 10, 7), ev(&reg, "B", 2, 30, 5));
        let (below_b, above_a) = ([(1, &b)], [(0, &a)]);
        // `n.x == b.x` is decided below b: N@25 fails, N@20 holds, one
        // evaluation each. Above `a` it reads the unbound `b`: nothing is
        // scanned
        let on_b = "PATTERN SEQ(A a, !N n, B b) WHERE n.x == b.x WITHIN 100";
        let idx = index_of(&reg, on_b, &negatives);
        assert_eq!(narrowed(&idx, 0, &below_b, (0, 30)), ((20, 30), 2));
        assert_eq!(narrowed(&idx, 1, &above_a, (11, 111)), ((11, 111), 0));
        // `n.x == a.x` the other way round: N@20 fails, N@25 holds
        let on_a = "PATTERN SEQ(A a, !N n, B b) WHERE n.x == a.x WITHIN 100";
        let idx = index_of(&reg, on_a, &negatives);
        assert_eq!(narrowed(&idx, 0, &below_b, (0, 30)), ((0, 30), 0));
        assert_eq!(narrowed(&idx, 1, &above_a, (11, 111)), ((11, 26), 2));
    }

    #[test]
    fn two_middle_negations_intersect_their_bounds() {
        let reg = registry();
        let q = "PATTERN SEQ(A a, !N n, B b, !M m, C c) WITHIN 100";
        let idx = index_of(&reg, q, &[ev(&reg, "M", 3, 15, 0), ev(&reg, "N", 4, 25, 0)]);
        let (a, c) = (ev(&reg, "A", 1, 10, 0), ev(&reg, "C", 2, 30, 0));
        // `b` between a@10 and c@30: N@25 caps it from above (n's right
        // flank), M@15 from below (m's left flank)
        let both = [(0, &a), (2, &c)];
        assert_eq!(narrowed(&idx, 1, &both, (11, 31)).0, (15, 26));
        // with one flank bound, only the negation it flanks narrows
        assert_eq!(narrowed(&idx, 1, &both[..1], (11, 31)).0, (11, 26));
        assert_eq!(narrowed(&idx, 1, &both[1..], (11, 31)).0, (15, 31));
    }

    #[test]
    fn leading_and_trailing_negations_narrow_nothing() {
        let reg = registry();
        let q = "PATTERN SEQ(!N n1, A a, B b, !N n2) WITHIN 100";
        let negatives: Vec<EventRef> = (0..5).map(|i| ev(&reg, "N", i, 5 + 10 * i, 0)).collect();
        let idx = index_of(&reg, q, &negatives);
        assert_eq!(idx.len(), 10, "each negative stored for both negations");
        let (a, b) = (ev(&reg, "A", 10, 10, 0), ev(&reg, "B", 11, 30, 0));
        assert_eq!(narrowed(&idx, 0, &[(1, &b)], (0, 30)), ((0, 30), 0));
        assert_eq!(narrowed(&idx, 1, &[(0, &a)], (11, 111)), ((11, 111), 0));
    }

    fn ev(reg: &TypeRegistry, ty: &str, id: u64, ts: u64, x: i64) -> EventRef {
        Arc::new(
            Event::builder(reg.lookup(ty).unwrap(), Timestamp::new(ts))
                .id(EventId::new(id))
                .attr(Value::Int(x))
                .build(),
        )
    }

    #[test]
    fn middle_region_strictly_between_flanks() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, !N n, B b) WITHIN 100", &reg).unwrap();
        let events = vec![ev(&reg, "A", 1, 10, 0), ev(&reg, "B", 2, 30, 0)];
        let rs = regions(&q, &events);
        assert_eq!(
            rs,
            vec![Region {
                start: Timestamp::new(11),
                end: Timestamp::new(30)
            }]
        );
        assert_eq!(seal_deadline(&q, &events), Some(Timestamp::new(30)));
    }

    #[test]
    fn leading_and_trailing_regions() {
        let reg = registry();
        let q = parse("PATTERN SEQ(!N n1, A a, B b, !N n2) WITHIN 20", &reg).unwrap();
        let events = vec![ev(&reg, "A", 1, 50, 0), ev(&reg, "B", 2, 60, 0)];
        let rs = regions(&q, &events);
        // leading: [first - W, first)
        assert_eq!(
            rs[0],
            Region {
                start: Timestamp::new(30),
                end: Timestamp::new(50)
            }
        );
        // trailing: (last, first + W]
        assert_eq!(
            rs[1],
            Region {
                start: Timestamp::new(61),
                end: Timestamp::new(71)
            }
        );
        assert_eq!(seal_deadline(&q, &events), Some(Timestamp::new(71)));
    }

    #[test]
    fn leading_region_clamps_at_zero() {
        let reg = registry();
        let q = parse("PATTERN SEQ(!N n, A a) WITHIN 100", &reg).unwrap();
        let events = vec![ev(&reg, "A", 1, 10, 0)];
        let rs = regions(&q, &events);
        assert_eq!(
            rs[0],
            Region {
                start: Timestamp::MIN,
                end: Timestamp::new(10)
            }
        );
    }

    #[test]
    fn a_region_is_empty_when_it_ends_at_its_start() {
        let r = Region {
            start: Timestamp::new(10),
            end: Timestamp::new(20),
        };
        assert!(!r.is_empty());
        assert!(Region {
            start: Timestamp::new(5),
            end: Timestamp::new(5)
        }
        .is_empty());
    }

    #[test]
    fn offer_filters_by_type_and_local_predicate() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, !N n, B b) WHERE n.x > 5 WITHIN 100", &reg).unwrap();
        let mut idx = NegationIndex::new(Arc::clone(&q));
        let mut stats = RuntimeStats::default();
        assert!(
            !idx.offer(&ev(&reg, "A", 1, 10, 0), &mut stats),
            "wrong type ignored"
        );
        assert!(
            !idx.offer(&ev(&reg, "N", 2, 15, 3), &mut stats),
            "fails local predicate"
        );
        assert!(idx.offer(&ev(&reg, "N", 3, 15, 9), &mut stats));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn violates_checks_region_and_predicates() {
        let reg = registry();
        let q = parse(
            "PATTERN SEQ(A a, !N n, B b) WHERE n.x == a.x WITHIN 100",
            &reg,
        )
        .unwrap();
        let mut idx = NegationIndex::new(Arc::clone(&q));
        let mut stats = RuntimeStats::default();
        idx.offer(&ev(&reg, "N", 10, 20, 7), &mut stats);

        let a = ev(&reg, "A", 1, 10, 7);
        let b = ev(&reg, "B", 2, 30, 0);
        assert!(idx.violates(&[Arc::clone(&a), Arc::clone(&b)], &mut stats));

        // different correlation value: no violation
        let a2 = ev(&reg, "A", 3, 10, 8);
        assert!(!idx.violates(&[a2, Arc::clone(&b)], &mut stats));

        // negative outside the region: no violation
        let b_early = ev(&reg, "B", 4, 15, 0);
        assert!(!idx.violates(&[a, b_early], &mut stats));
    }

    #[test]
    fn duplicate_negative_not_stored_twice() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, !N n, B b) WITHIN 100", &reg).unwrap();
        let mut idx = NegationIndex::new(Arc::clone(&q));
        let mut stats = RuntimeStats::default();
        let n = ev(&reg, "N", 1, 20, 0);
        assert!(idx.offer(&n, &mut stats));
        assert!(!idx.offer(&n, &mut stats));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn purge_removes_old_negatives() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, !N n, B b) WITHIN 100", &reg).unwrap();
        let mut idx = NegationIndex::new(Arc::clone(&q));
        let mut stats = RuntimeStats::default();
        idx.offer(&ev(&reg, "N", 1, 10, 0), &mut stats);
        idx.offer(&ev(&reg, "N", 2, 50, 0), &mut stats);
        assert_eq!(idx.purge_before(Timestamp::new(20), &mut stats), 1);
        assert_eq!(idx.len(), 1);
        assert!(!idx.is_empty());
        assert_eq!(stats.purged, 1);
    }
}
