//! The settle path: what happens to a match between construction and
//! delivery.
//!
//! The evaluator ([`crate::SharedMultiEngine`], whatever it hosts)
//! constructs matches and hands them to one [`Settle`] per query. This
//! module alone decides
//! *when* a match leaves: immediately, after its negation regions seal,
//! at the seal drain (lazy), or immediately with a later retraction
//! (speculative). It owns everything that decision needs — the negative
//! index, the pending heap, the emitted-but-unsealed log — and the bytes
//! those take in a checkpoint.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::sync::Arc;

use sequin_query::Query;
use sequin_runtime::{purge, region_of, seal_deadline, Match, NegationIndex, RuntimeStats};
use sequin_types::{
    ArrivalSeq, CodecError, Decode, Duration, Encode, EventId, EventRef, Reader, Timestamp, Writer,
};

use crate::config::DisorderPolicy;
use crate::output::{OutputItem, OutputKind};

/// The stream position an emission is stamped with: the arrival sequence
/// and clock it is attributed to, and the watermark that decides what is
/// sealed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stamp {
    pub(crate) seq: ArrivalSeq,
    pub(crate) clock: Timestamp,
    pub(crate) watermark: Timestamp,
}

/// One query's outputs for one arrival, separated by emission phase:
/// retractions first, then construction-time emissions (by slot), then
/// seal-time emissions (by deadline, then match identity).
#[derive(Debug, Default)]
pub(crate) struct PhasedOutput {
    /// Speculative-mode retractions, keyed by the match's seal deadline.
    pub(crate) retracts: Vec<(Timestamp, OutputItem)>,
    /// Construction-time emissions, keyed by the arrival's positive slot.
    pub(crate) constructed: Vec<(usize, OutputItem)>,
    /// Seal-time emissions, keyed by the match's seal deadline.
    pub(crate) sealed: Vec<(Timestamp, OutputItem)>,
}

fn id_order(a: &[EventRef], b: &[EventRef]) -> Ordering {
    a.iter().map(|e| e.id()).cmp(b.iter().map(|e| e.id()))
}

impl PhasedOutput {
    pub(crate) fn len(&self) -> usize {
        self.retracts.len() + self.constructed.len() + self.sealed.len()
    }

    /// Hands each item to `emit` in the canonical output order. Within a
    /// phase the order is fully determined by data: retractions and sealed
    /// emissions sort by (deadline, event ids) — exactly the order the seal
    /// heap pops them — and construction-time emissions sort (stably) by
    /// slot, each slot's matches in DFS order.
    pub(crate) fn merge_into(mut self, emit: impl FnMut(OutputItem)) {
        let by_deadline = |a: &(Timestamp, OutputItem), b: &(Timestamp, OutputItem)| {
            (a.0.cmp(&b.0)).then_with(|| id_order(a.1.m.events(), b.1.m.events()))
        };
        self.retracts.sort_by(by_deadline);
        self.constructed.sort_by_key(|(slot, _)| *slot);
        self.sealed.sort_by(by_deadline);
        let retracts = self.retracts.into_iter().map(|(_, o)| o);
        let constructed = self.constructed.into_iter().map(|(_, o)| o);
        let sealed = self.sealed.into_iter().map(|(_, o)| o);
        retracts.chain(constructed).chain(sealed).for_each(emit);
    }
}

/// A constructed match and the watermark that settles it: either waiting
/// for that seal deadline to be emitted (conservative negation, or any
/// lazy match), or already emitted speculatively and open to retraction by
/// a late negative until then.
#[derive(Debug, Clone)]
struct Pending {
    deadline: Timestamp,
    events: Vec<EventRef>,
}

impl Encode for Pending {
    fn encode(&self, w: &mut Writer) {
        self.deadline.encode(w);
        self.events.encode(w);
    }
}
impl Decode for Pending {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Pending {
            deadline: Timestamp::decode(r)?,
            events: Vec::decode(r)?,
        })
    }
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.deadline.cmp(&other.deadline)).then_with(|| id_order(&self.events, &other.events))
    }
}

/// One query's settle state (see the module docs). The caller supplies
/// the [`Stamp`] (the query's epoch has it), the [`RuntimeStats`] to
/// charge and the [`PhasedOutput`] to write into; the rules depend on none
/// of them.
#[derive(Debug)]
pub(crate) struct Settle {
    query: Arc<Query>,
    policy: DisorderPolicy,
    negatives: NegationIndex,
    pending: BinaryHeap<Reverse<Pending>>,
    emitted_unsealed: Vec<Pending>,
}

impl Settle {
    pub(crate) fn new(query: Arc<Query>, policy: DisorderPolicy) -> Settle {
        Settle {
            negatives: NegationIndex::new(Arc::clone(&query)),
            query,
            policy,
            pending: BinaryHeap::new(),
            emitted_unsealed: Vec::new(),
        }
    }

    pub(crate) fn policy(&self) -> DisorderPolicy {
        self.policy
    }

    /// The stored negatives, for a query with negation: what construction
    /// narrows its levels by.
    pub(crate) fn negatives(&self) -> Option<&NegationIndex> {
        self.query.has_negation().then_some(&self.negatives)
    }

    /// Everything held: negatives, pending and unsealed matches.
    pub(crate) fn len(&self) -> usize {
        self.negatives.len() + self.pending.len() + self.emitted_unsealed.len()
    }

    /// Forgets all held state (the query was unregistered).
    pub(crate) fn clear(&mut self) {
        self.negatives = NegationIndex::new(Arc::clone(&self.query));
        self.pending.clear();
        self.emitted_unsealed.clear();
    }

    /// Indexes an event of a negated type. Call before routing the same
    /// arrival's positive slots: a negative at the same timestamp as a
    /// positive must be visible to validation.
    pub(crate) fn offer_negative(&mut self, negative: &EventRef, stats: &mut RuntimeStats) {
        self.negatives.offer(negative, stats);
    }

    fn output(
        &self,
        stamp: Stamp,
        kind: OutputKind,
        events: Vec<EventRef>,
        cause: Option<EventId>,
    ) -> OutputItem {
        OutputItem {
            kind,
            m: Match::new(&self.query, events),
            emit_seq: stamp.seq,
            emit_clock: stamp.clock,
            cause,
        }
    }

    /// Decides what to do with a freshly constructed match: emit now,
    /// hold until its negation regions seal, defer wholesale (lazy), or
    /// emit optimistically (speculative). `slot` is the arriving event's
    /// positive slot, the construction-phase order key; `trigger` is the
    /// arriving event, recorded as the cause of an immediate emission.
    /// Returns the match's seal deadline when a record of it is *held* —
    /// pending, or emitted but still retractable — which is when
    /// [`Settle::drain_sealed`] has something to do for it.
    pub(crate) fn route(
        &mut self,
        stamp: Stamp,
        slot: usize,
        events: Vec<EventRef>,
        trigger: EventId,
        stats: &mut RuntimeStats,
        out: &mut PhasedOutput,
    ) -> Option<Timestamp> {
        // without negation the match is final the moment it exists; its
        // lazy deadline is its own newest timestamp
        let guarded = self.query.has_negation();
        let deadline = if guarded {
            seal_deadline(&self.query, &events).expect("query has negation")
        } else {
            events.last().expect("match has events").ts()
        };
        let sealed = !guarded || deadline <= stamp.watermark;
        let emit_now = match self.policy {
            // every lazy emission, sealed or not, leaves via the drain
            DisorderPolicy::Lazy => false,
            DisorderPolicy::Conservative | DisorderPolicy::AdaptiveSlack { .. } => sealed,
            DisorderPolicy::Speculative => true,
        };
        if !emit_now {
            self.pending.push(Reverse(Pending { deadline, events }));
            return Some(deadline);
        }
        if guarded && self.negatives.violates(&events, stats) {
            return None;
        }
        if !sealed {
            // speculative: a late negative may still retract this
            let events = events.clone();
            self.emitted_unsealed.push(Pending { deadline, events });
        }
        let o = self.output(stamp, OutputKind::Insert, events, Some(trigger));
        out.constructed.push((slot, o));
        (!sealed).then_some(deadline)
    }

    /// The earliest seal deadline among the held records, pending and
    /// unsealed: the watermark at which [`Settle::drain_sealed`] next has
    /// something to do. `None` when nothing is held.
    pub(crate) fn earliest_held(&self) -> Option<Timestamp> {
        let pending = self.pending.peek().map(|Reverse(p)| p.deadline);
        let unsealed = self.emitted_unsealed.iter().map(|rec| rec.deadline);
        pending.into_iter().chain(unsealed).min()
    }

    /// A just-arrived negative retracts every emitted, still-unsealed
    /// match it invalidates. Only speculative emission creates such
    /// records, but any policy may inherit them through a policy-changing
    /// restore and retracts them the same way. `swallow` is the unspent
    /// [`crate::EngineConfig::retraction_drop`] sabotage (zero in real use).
    pub(crate) fn retract_invalidated(
        &mut self,
        stamp: Stamp,
        negative: &EventRef,
        swallow: &mut u64,
        stats: &mut RuntimeStats,
        out: &mut PhasedOutput,
    ) {
        if self.emitted_unsealed.is_empty() {
            return;
        }
        let query = &*self.query;
        let mut retracted: Vec<Pending> = Vec::new();
        self.emitted_unsealed.retain(|rec| {
            for neg in query.negations() {
                if !neg.matches_type(negative.event_type()) {
                    continue;
                }
                let region = region_of(query, neg, &rec.events);
                if region.is_empty() || negative.ts() < region.start || negative.ts() >= region.end
                {
                    continue;
                }
                let invalidated = query.with_positives(&rec.events, |binding| {
                    binding[neg.comp] = Some(negative);
                    neg.predicates.iter().all(|p| p.eval(binding) == Some(true))
                });
                if invalidated {
                    retracted.push(rec.clone());
                    return false;
                }
            }
            true
        });
        for rec in retracted {
            stats.negated_matches += 1;
            // sabotage knob: swallow the retraction (the unsealed record is
            // already gone) so the settled output keeps a match the oracle
            // rejects — the differential harness must flag this
            if *swallow > 0 {
                *swallow -= 1;
                continue;
            }
            let o = self.output(stamp, OutputKind::Retract, rec.events, Some(negative.id()));
            out.retracts.push((rec.deadline, o));
        }
    }

    /// Emits pending matches whose deadline the watermark has reached
    /// (re-validated against the now-final negatives), and forgets sealed
    /// speculative records. Returns [`Settle::earliest_held`] of what is
    /// left — above the watermark, so a call before the watermark reaches
    /// it would find nothing.
    pub(crate) fn drain_sealed(
        &mut self,
        stamp: Stamp,
        stats: &mut RuntimeStats,
        out: &mut PhasedOutput,
    ) -> Option<Timestamp> {
        while let Some(Reverse(top)) = self.pending.peek() {
            if top.deadline > stamp.watermark {
                break;
            }
            let Reverse(p) = self.pending.pop().expect("peeked");
            if !self.negatives.violates(&p.events, stats) {
                let o = self.output(stamp, OutputKind::Insert, p.events, None);
                out.sealed.push((p.deadline, o));
            }
        }
        // one pass forgets the sealed records and finds the earliest left
        let mut earliest = self.pending.peek().map(|Reverse(p)| p.deadline);
        self.emitted_unsealed.retain(|rec| {
            let open = rec.deadline > stamp.watermark;
            if open && earliest.is_none_or(|e| rec.deadline < e) {
                earliest = Some(rec.deadline);
            }
            open
        });
        earliest
    }

    /// Purges negatives no open or future match can still need. `skew` is
    /// the simulator's sabotage widening; zero in any real configuration.
    pub(crate) fn purge_negatives(
        &mut self,
        watermark: Timestamp,
        skew: Duration,
        stats: &mut RuntimeStats,
    ) {
        let threshold =
            purge::negative_threshold(watermark, self.query.window()).saturating_add(skew);
        self.negatives.purge_before(threshold, stats);
    }

    /// Writes the settle tail of a checkpoint blob: the negative index,
    /// then pending and unsealed matches, each sorted, so identical state
    /// yields identical bytes whatever its history.
    pub(crate) fn encode(&self, w: &mut Writer) {
        self.negatives.snapshot_into(w);
        let sorted = |mut records: Vec<&Pending>, w: &mut Writer| {
            records.sort();
            w.put_u64(records.len() as u64);
            records.iter().for_each(|p| p.encode(w));
        };
        sorted(self.pending.iter().map(|Reverse(p)| p).collect(), w);
        sorted(self.emitted_unsealed.iter().collect(), w);
    }

    /// Reads a settle tail written by [`Settle::encode`] into a fresh
    /// `Settle` for the same query and policy as `self` (which is left
    /// untouched, so a failed restore changes nothing).
    pub(crate) fn decode(&self, r: &mut Reader<'_>) -> Result<Settle, CodecError> {
        Ok(Settle {
            query: Arc::clone(&self.query),
            policy: self.policy,
            negatives: NegationIndex::restore(Arc::clone(&self.query), r)?,
            pending: Vec::<Pending>::decode(r)?
                .into_iter()
                .map(Reverse)
                .collect(),
            emitted_unsealed: Vec::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequin_query::parse;
    use sequin_types::{Event, TypeRegistry, Value, ValueKind};

    const POLICIES: [DisorderPolicy; 4] = [
        DisorderPolicy::Conservative,
        DisorderPolicy::Speculative,
        DisorderPolicy::Lazy,
        DisorderPolicy::AdaptiveSlack { accuracy: 90 },
    ];

    /// Where [`Settle::route`] puts a freshly constructed match.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Lands {
        /// Emitted at construction, final.
        Now,
        /// Emitted at construction, recorded as retractable.
        NowUnsealed,
        /// Held for the seal drain.
        Pending,
        /// Discarded: a negative already invalidates it.
        Dropped,
    }
    use Lands::*;

    /// The match's negation region against the watermark at construction.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Region {
        /// The query has no negation.
        None,
        /// Seal deadline (20) at or below the watermark.
        Sealed,
        /// Seal deadline above the watermark.
        Open,
    }

    /// The settle rules, one row per (region, a negative already inside
    /// it), one column per policy in [`POLICIES`] order.
    const TABLE: [(Region, bool, [Lands; 4]); 6] = [
        (Region::None, false, [Now, Now, Pending, Now]),
        (Region::None, true, [Now, Now, Pending, Now]),
        (Region::Sealed, false, [Now, Now, Pending, Now]),
        (Region::Sealed, true, [Dropped, Dropped, Pending, Dropped]),
        (
            Region::Open,
            false,
            [Pending, NowUnsealed, Pending, Pending],
        ),
        (Region::Open, true, [Pending, Dropped, Pending, Pending]),
    ];

    struct Cell {
        settle: Settle,
        stats: RuntimeStats,
        out: PhasedOutput,
        negative: EventRef,
        /// What [`Settle::route`] reported holding.
        held: Option<Timestamp>,
    }

    fn stamp(watermark: u64) -> Stamp {
        Stamp {
            seq: ArrivalSeq::default(),
            clock: Timestamp::new(watermark),
            watermark: Timestamp::new(watermark),
        }
    }

    /// Routes the match (A@10, B@20) — region `[11, 20)`, deadline 20 —
    /// through a fresh `Settle`, after N@15 if `violated`.
    fn cell(policy: DisorderPolicy, region: Region, violated: bool) -> Cell {
        let mut reg = TypeRegistry::new();
        for name in ["A", "B", "N"] {
            reg.declare(name, &[("x", ValueKind::Int)]).unwrap();
        }
        let ev = |ty: &str, id: u64, ts: u64| -> EventRef {
            Arc::new(
                Event::builder(reg.lookup(ty).unwrap(), Timestamp::new(ts))
                    .id(EventId::new(id))
                    .attr(Value::Int(0))
                    .build(),
            )
        };
        let text = match region {
            Region::None => "PATTERN SEQ(A a, B b) WITHIN 100",
            _ => "PATTERN SEQ(A a, !N n, B b) WITHIN 100",
        };
        let mut c = Cell {
            settle: Settle::new(parse(text, &reg).unwrap(), policy),
            stats: RuntimeStats::default(),
            out: PhasedOutput::default(),
            negative: ev("N", 3, 15),
            held: None,
        };
        if violated {
            c.settle.offer_negative(&c.negative, &mut c.stats);
        }
        let at = stamp(if region == Region::Sealed { 30 } else { 5 });
        let events = vec![ev("A", 1, 10), ev("B", 2, 20)];
        let trigger = EventId::new(2);
        c.held = c
            .settle
            .route(at, 1, events, trigger, &mut c.stats, &mut c.out);
        c
    }

    impl Cell {
        fn lands(&self) -> Lands {
            let held = (
                self.settle.pending.len(),
                self.settle.emitted_unsealed.len(),
            );
            match (self.out.constructed.len(), held) {
                (1, (0, 0)) => Now,
                (1, (0, 1)) => NowUnsealed,
                (0, (1, 0)) => Pending,
                (0, (0, 0)) => Dropped,
                other => panic!("match landed in two places: {other:?}"),
            }
        }

        /// A negative lands inside the still-open region, with `swallow`
        /// left of the sabotage budget.
        fn late_negative(&mut self, mut swallow: u64) {
            let (negative, at) = (Arc::clone(&self.negative), stamp(6));
            self.settle.offer_negative(&negative, &mut self.stats);
            self.settle.retract_invalidated(
                at,
                &negative,
                &mut swallow,
                &mut self.stats,
                &mut self.out,
            );
        }

        /// The watermark passes every deadline.
        fn advance(&mut self) {
            let left = self
                .settle
                .drain_sealed(stamp(1000), &mut self.stats, &mut self.out);
            assert_eq!(left, None);
            assert_eq!(self.settle.len(), self.settle.negatives.len());
        }

        /// Inserts minus retracts: 1 when the match stands.
        fn net(&self) -> i64 {
            (self.out.constructed.len() + self.out.sealed.len()) as i64
                - self.out.retracts.len() as i64
        }
    }

    #[test]
    fn every_policy_lands_each_match_where_the_table_says() {
        for (region, violated, row) in TABLE {
            for (policy, want) in POLICIES.into_iter().zip(row) {
                let ctx = format!("{policy:?}, region {region:?}, violated {violated}");
                let mut c = cell(policy, region, violated);
                assert_eq!(c.lands(), want, "{ctx}");
                // a held record, and only one, reports its deadline: the
                // seal-deadline index's one source
                let held = matches!(want, Pending | NowUnsealed).then_some(Timestamp::new(20));
                assert_eq!((c.held, c.settle.earliest_held()), (held, held), "{ctx}");
                assert!(c.out.retracts.is_empty() && c.out.sealed.is_empty());
                if let Some((slot, o)) = c.out.constructed.first() {
                    assert_eq!((*slot, o.kind), (1, OutputKind::Insert), "{ctx}");
                    assert_eq!(o.cause, Some(EventId::new(2)), "{ctx}: trigger");
                }
                // a watermark advance releases what was held, unless the
                // now-final negatives invalidate it, and closes the
                // retraction window
                let doomed = violated && region != Region::None;
                c.advance();
                let released = usize::from(want == Pending && !doomed);
                assert_eq!(c.out.sealed.len(), released, "{ctx}: seal drain");
                assert!(c.out.sealed.iter().all(|(deadline, o)| {
                    o.cause.is_none() && o.kind == OutputKind::Insert && deadline.ticks() == 20
                }));
                assert_eq!(c.net(), i64::from(!doomed), "{ctx}: settled");
                assert_eq!(c.stats.negated_matches, u64::from(doomed), "{ctx}");
            }
        }
    }

    #[test]
    fn a_late_negative_settles_every_policy_on_no_match() {
        for policy in POLICIES {
            let mut c = cell(policy, Region::Open, false);
            let speculated = c.lands() == NowUnsealed;
            c.late_negative(0);
            // only an emitted, still-unsealed match has anything to take
            // back; a held one is dropped when its region seals
            assert_eq!(c.out.retracts.len(), usize::from(speculated), "{policy:?}");
            if let Some((deadline, o)) = c.out.retracts.first() {
                assert_eq!((deadline.ticks(), o.kind), (20, OutputKind::Retract));
                assert_eq!(
                    o.cause,
                    Some(c.negative.id()),
                    "retraction names the negative"
                );
            }
            c.advance();
            assert!(
                c.out.sealed.is_empty(),
                "{policy:?}: invalidated while held"
            );
            assert_eq!(c.net(), 0, "{policy:?}");
            assert_eq!(c.stats.negated_matches, 1, "{policy:?}");
        }
        // the sabotage budget swallows exactly the retraction, nothing else
        let mut c = cell(DisorderPolicy::Speculative, Region::Open, false);
        c.late_negative(1);
        assert!(c.out.retracts.is_empty());
        assert_eq!((c.net(), c.stats.negated_matches), (1, 1));
    }
}
