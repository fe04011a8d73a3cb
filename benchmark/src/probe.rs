//! The operator probe: the arrivals replayed through a loop built here
//! from the paper-named public operators — slot by type, `PartitionMap`,
//! `AisStack::insert`, `Constructor::matches_with`, `NegationIndex`, purge
//! at the `purge::*` thresholds — with one span around every call. It
//! times the operators where the engine calls them but cannot be reached
//! from outside; what the engine adds around them (arrival stamping,
//! watermark tracking, output assembly, observability) is what remains.
//! Its settled match set must equal the engine's.

use std::sync::Arc;

use sequin_engine::OutputKind;
use sequin_query::{parse, Query};
use sequin_runtime::purge::{self, PurgePolicy};
use sequin_runtime::{
    regions, seal_deadline, AisStack, ConstructOpts, Constructor, NegationIndex, PartitionKey,
    PartitionMap, RuntimeStats,
};
use sequin_types::{Duration, EventRef, FieldId, StreamItem, Timestamp};

use crate::check::Tally;
use crate::prepare::Prepared;
use crate::trace::Tracer;
use crate::workloads::{Queries, Workload};

pub const ROOT: &str = "probe";
pub const BATCH: &str = "probe.batch";
pub const STACK_INSERT: &str = "probe.stack_insert";
pub const STACK_PURGE: &str = "probe.stack_purge";
pub const CONSTRUCT: &str = "probe.construct";
pub const PARTITION_LOOKUP: &str = "probe.partition_lookup";
pub const PARTITION_SWEEP: &str = "probe.partition_sweep";
pub const NEGATION_OFFER: &str = "probe.negation_offer";
pub const NEGATION_VIOLATES: &str = "probe.negation_violates";
/// Unsealed-emission bookkeeping: retracting on a late negative, sealing
/// against the watermark, purging the index.
pub const NEGATION_UNSEALED: &str = "probe.negation_unsealed";

/// Positive state: one stack per slot, whole or per partition key.
enum Stacks {
    Whole(Vec<AisStack>),
    Keyed {
        fields: Vec<FieldId>,
        map: PartitionMap<Vec<AisStack>>,
    },
}

/// A match emitted while a late negative could still invalidate it.
struct Unsealed {
    deadline: Timestamp,
    events: Vec<EventRef>,
}

pub struct Outcome {
    pub tally: Tally,
    pub stats: RuntimeStats,
    /// Items `purge_before` removed from unpartitioned stacks.
    pub purged_whole: u64,
    /// Partition keys visited by purge rounds.
    pub keys_swept: u64,
}

/// Replays the arrivals; `None` for the query family, which has no
/// single-query operator loop.
pub fn run(w: &Workload, p: &Prepared, t: &mut Tracer) -> Option<Outcome> {
    let Queries::One(text) = w.queries else {
        return None;
    };
    let query: Arc<Query> = parse(text, &p.input.registry).expect("workload query parses");
    let names = [
        ROOT,
        BATCH,
        STACK_INSERT,
        STACK_PURGE,
        CONSTRUCT,
        PARTITION_LOOKUP,
        PARTITION_SWEEP,
        NEGATION_OFFER,
        NEGATION_VIOLATES,
        NEGATION_UNSEALED,
    ]
    .map(|n| t.name(n));
    let [root_n, batch_n, insert_n, purge_n, construct_n, lookup_n, sweep_n, offer_n, violates_n, unsealed_n] =
        names;

    let m = query.positive_len();
    let window = query.window();
    let k = Duration::new(w.k);
    let cadence = PurgePolicy::default();
    let ctor = Constructor::new(Arc::clone(&query), ConstructOpts::default());
    let mut negatives = NegationIndex::new(Arc::clone(&query));
    let mut stacks = match query.partition() {
        Some(scheme) => Stacks::Keyed {
            fields: scheme.fields.clone(),
            map: PartitionMap::new(),
        },
        None => Stacks::Whole(vec![AisStack::new(); m]),
    };
    let mut unsealed: Vec<Unsealed> = Vec::new();
    let mut out = Outcome {
        tally: Tally::default(),
        stats: RuntimeStats::default(),
        purged_whole: 0,
        keys_swept: 0,
    };
    let mut found: Vec<Vec<EventRef>> = Vec::new();
    let mut clock = Timestamp::MIN;
    let mut seen = 0u64;

    let root = t.open(root_n, crate::trace::NO_PARENT, 0);
    for (batch_ix, chunk) in p.input.arrival.chunks(w.batch).enumerate() {
        let batch = batch_ix as u32;
        let b = t.open(batch_n, root, batch);
        for event in chunk.iter().filter_map(StreamItem::as_event) {
            seen += 1;
            clock = clock.max(event.ts());
            let watermark = purge::watermark(clock, k);

            if query
                .negations()
                .iter()
                .any(|n| n.matches_type(event.event_type()))
            {
                let s = t.open(offer_n, b, batch);
                negatives.offer(event, &mut out.stats);
                t.close(s);
                let s = t.open(unsealed_n, b, batch);
                retract(&query, event, clock, &mut unsealed, &mut out);
                t.close(s);
            }

            for slot in query.slots_for_type(event.event_type()) {
                if !passes_local(&query, slot, event) {
                    continue;
                }
                let shard: &mut Vec<AisStack> = match &mut stacks {
                    Stacks::Whole(shard) => shard,
                    Stacks::Keyed { fields, map } => {
                        let s = t.open(lookup_n, b, batch);
                        let key = event.field(fields[slot]).and_then(PartitionKey::from_value);
                        let shard = key.map(|key| map.shard_mut(key, || vec![AisStack::new(); m]));
                        t.close(s);
                        match shard {
                            Some(shard) => shard,
                            None => continue,
                        }
                    }
                };
                let s = t.open(insert_n, b, batch);
                let inserted = shard[slot].insert(Arc::clone(event));
                t.close(s);
                if inserted.is_none() {
                    continue;
                }
                found.clear();
                let s = t.open(construct_n, b, batch);
                ctor.matches_with(shard, slot, event, &mut out.stats, &mut found);
                t.close(s);
                for events in found.drain(..) {
                    if query.has_negation() {
                        let s = t.open(violates_n, b, batch);
                        let violated = negatives.violates(&events, &mut out.stats);
                        t.close(s);
                        if violated {
                            continue;
                        }
                        let deadline =
                            seal_deadline(&query, &events).expect("query has a negation");
                        if deadline > watermark {
                            unsealed.push(Unsealed {
                                deadline,
                                events: events.clone(),
                            });
                        }
                    }
                    out.tally.add(0, OutputKind::Insert, &events, clock);
                }
            }

            if query.has_negation() {
                let s = t.open(unsealed_n, b, batch);
                unsealed.retain(|rec| rec.deadline > watermark);
                t.close(s);
            }
            if cadence.due(seen) {
                let prefix = purge::prefix_threshold(watermark, window);
                let fin = purge::final_threshold(watermark);
                let purge_shard = |shard: &mut Vec<AisStack>| -> u64 {
                    let mut purged = 0;
                    for (slot, stack) in shard.iter_mut().enumerate() {
                        let threshold = if slot + 1 == m { fin } else { prefix };
                        purged += stack.purge_before(threshold) as u64;
                    }
                    purged
                };
                match &mut stacks {
                    Stacks::Whole(shard) => {
                        let s = t.open(purge_n, b, batch);
                        out.purged_whole += purge_shard(shard);
                        t.close(s);
                    }
                    Stacks::Keyed { map, .. } => {
                        let s = t.open(sweep_n, b, batch);
                        out.keys_swept += map.len() as u64;
                        for (_, shard) in map.iter_mut() {
                            purge_shard(shard);
                        }
                        map.retain_live(|shard| shard.iter().all(AisStack::is_empty));
                        t.close(s);
                    }
                }
                if query.has_negation() {
                    let s = t.open(unsealed_n, b, batch);
                    let threshold = purge::negative_threshold(watermark, window);
                    negatives.purge_before(threshold, &mut out.stats);
                    t.close(s);
                }
            }
        }
        t.close(b);
    }
    t.close(root);
    Some(out)
}

fn passes_local(query: &Query, slot: usize, event: &EventRef) -> bool {
    let local = query.local_predicates(slot);
    if local.is_empty() {
        return true;
    }
    let mut binding: Vec<Option<&EventRef>> = vec![None; query.components().len()];
    binding[query.positive_comp(slot)] = Some(event);
    local.iter().all(|p| p.eval(&binding) == Some(true))
}

/// A just-arrived negative withdraws every emitted, still unsealed match
/// it invalidates.
fn retract(
    query: &Query,
    negative: &EventRef,
    clock: Timestamp,
    unsealed: &mut Vec<Unsealed>,
    out: &mut Outcome,
) {
    unsealed.retain(|rec| {
        let rs = regions(query, &rec.events);
        for (ix, neg) in query.negations().iter().enumerate() {
            let region = rs[ix];
            if !neg.matches_type(negative.event_type())
                || region.is_empty()
                || negative.ts() < region.start
                || negative.ts() >= region.end
            {
                continue;
            }
            let mut binding = query.binding_from_positives(&rec.events);
            binding[neg.comp] = Some(negative);
            if neg
                .predicates
                .iter()
                .all(|p| p.eval(&binding) == Some(true))
            {
                out.tally.add(0, OutputKind::Retract, &rec.events, clock);
                return false;
            }
        }
        true
    });
}
