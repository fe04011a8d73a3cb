//! Strategy 3: the paper's native out-of-order engine.
//!
//! [`NativeEngine`] keeps one [`KeyedStack`] per positive slot and drives
//! the pieces it shares with [`crate::SharedMultiEngine`]:
//! [`sequin_runtime::Constructor`] enumerates the matches an arrival
//! completes, [`crate::settle`] decides when each one is emitted, and
//! [`QueryBlob`] is the checkpoint layout both evaluators write. What is
//! specific to this file is the ingest loop, including the lockstep
//! discipline of a [`crate::ShardedEngine`] worker.

use std::collections::BTreeMap;
use std::sync::Arc;

use sequin_query::Query;
use sequin_runtime::{purge, AisStack, Constructor, KeyedStack, PartitionKey, RuntimeStats};
use sequin_types::codec::{fnv1a64, open_envelope, seal_envelope};
use sequin_types::{
    ArrivalSeq, CodecError, Decode, Encode, EventRef, Reader, StreamItem, Timestamp, Writer,
};

use crate::config::EngineConfig;
use crate::output::OutputItem;
use crate::settle::{PhasedOutput, Settle, Stamp};
use crate::traits::Engine;
use crate::watermark::WatermarkTracker;

/// One empty stack per positive slot of `query`, indexed by the slot's
/// partition field when the query shards under `config`.
fn slot_stacks(query: &Query, config: &EngineConfig) -> Vec<KeyedStack> {
    let scheme = query.partition().filter(|_| config.partitioned);
    let stack = |slot: usize| KeyedStack::new(scheme.map(|s| s.fields[slot]));
    (0..query.positive_len()).map(stack).collect()
}

/// Which slice of the partition-key space this engine owns when it runs
/// as one worker of a [`crate::ShardedEngine`]. `None` means the engine
/// owns everything (the ordinary single-threaded configuration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShardSlice {
    /// This worker's index in `0..of`.
    pub(crate) index: u32,
    /// Total number of workers.
    pub(crate) of: u32,
}

impl ShardSlice {
    /// True when `key` routes to this worker.
    pub(crate) fn owns(&self, key: &PartitionKey) -> bool {
        key_hash(key) % u64::from(self.of) == u64::from(self.index)
    }

    /// True when this worker holds `event` in `stack`: its key hashes
    /// here, or there is no key — the slot is unkeyed, or the event is
    /// unkeyable and every engine drops it — and this is the primary,
    /// which performs (and accounts) that work for the pool.
    fn owns_event(&self, stack: &KeyedStack, event: &EventRef) -> bool {
        let key = stack.key_of(event);
        key.map_or(self.primary(), |key| self.owns(&key))
    }

    /// The primary worker (index 0) owns everything that cannot be
    /// keyed — the overflow shard — and is the one that accounts for
    /// work every worker performs in lockstep (watermarks, negatives).
    fn primary(&self) -> bool {
        self.index == 0
    }
}

/// Routing hash: FNV-1a over the key's wire encoding, so placement is
/// stable across processes, platforms, and hash-map seeds (the same
/// fingerprint-stable construction snapshots use). The ingest-edge router
/// in [`crate::ShardedEngine`] uses the same function, so the worker's
/// ownership check and the router's owner computation can never disagree.
pub(crate) fn key_hash(key: &PartitionKey) -> u64 {
    let mut w = Writer::new();
    key.encode(&mut w);
    fnv1a64(&w.into_bytes())
}

/// One pre-routed ingest message, as delivered to a sliced worker by the
/// routing [`crate::ShardedEngine`]: the full event when this worker owns
/// one of its slots (or the event is a negation flank, broadcast to every
/// worker), otherwise a watermark-only advance mirroring the arrival so
/// the worker's sequence number, clock, disorder estimate, and purge
/// cadence stay lockstep with the single-threaded engine.
#[derive(Debug, Clone)]
pub(crate) enum RoutedMsg {
    /// Full event, already stamped with its global arrival sequence.
    Event {
        /// The router's global arrival sequence for this event.
        seq: ArrivalSeq,
        /// The stamped event (one clone at the ingest edge, shared by
        /// every owner).
        event: EventRef,
    },
    /// Arrival metadata only: the event's state belongs to other workers.
    Advance {
        /// The router's global arrival sequence for this event.
        seq: ArrivalSeq,
        /// The event's occurrence timestamp (watermark/clock input).
        ts: Timestamp,
    },
    /// Stream punctuation, broadcast to every worker.
    Punctuation(Timestamp),
}

/// One logical query's checkpoint state. Every evaluator writes this
/// layout — fingerprint, watermark, arrival sequence, counters, stacks,
/// settle tail — whatever its physical one, so a checkpoint restores
/// into a lone engine, a pool of any worker count, or the shared plan.
pub(crate) struct QueryBlob {
    pub(crate) wm: WatermarkTracker,
    pub(crate) seq: ArrivalSeq,
    pub(crate) stats: RuntimeStats,
    /// Per positive slot, every stored instance, whatever key it was
    /// stored under.
    pub(crate) stacks: Vec<Vec<EventRef>>,
    pub(crate) settle: Settle,
}

/// A fingerprint of the query and the semantics-relevant configuration,
/// embedded in blobs so state is never restored into an engine evaluating
/// a different query (or the same query under incompatible settings). The
/// disorder policy is deliberately *not* part of it: blobs are
/// policy-portable, so a subscription can change policy across a
/// checkpoint resume (the carried pending/unsealed records drain
/// correctly under any policy).
fn fingerprint(query: &Query, config: &EngineConfig) -> u64 {
    let desc = format!("{}|{:?}|{}", query, config.watermark, config.partitioned);
    fnv1a64(desc.as_bytes())
}

impl QueryBlob {
    /// Seals one query's state. `stacks` names, per positive slot, the
    /// physical stacks holding that slot's instances (a pool's workers
    /// own disjoint keys, and only its primary holds unkeyed state; none
    /// for a query that holds nothing); `settles` are the parts its settle
    /// state is spread over (see [`Settle::encode`]). The stacks are
    /// written one set per slot (tag `0`), or, when the query shards, one
    /// such set per partition key in key order (tag `1`), so identical
    /// state always yields identical bytes.
    pub(crate) fn encode(
        query: &Query,
        config: &EngineConfig,
        wm: &WatermarkTracker,
        seq: ArrivalSeq,
        stats: &RuntimeStats,
        stacks: &[Vec<&KeyedStack>],
        settles: &[&Settle],
    ) -> Vec<u8> {
        let m = query.positive_len();
        assert_eq!(stacks.len(), m, "one list of stacks per positive slot");
        let empty = AisStack::new();
        let mut w = Writer::new();
        w.put_u64(fingerprint(query, config));
        wm.snapshot_into(&mut w);
        seq.encode(&mut w);
        stats.encode(&mut w);
        if config.partitioned && query.partition().is_some() {
            let mut by_key: BTreeMap<&PartitionKey, Vec<&AisStack>> = BTreeMap::new();
            for (slot, parts) in stacks.iter().enumerate() {
                for (key, stack) in parts.iter().flat_map(|p| p.iter_keys()) {
                    by_key.entry(key).or_insert_with(|| vec![&empty; m])[slot] = stack;
                }
            }
            w.put_u8(1);
            w.put_u64(by_key.len() as u64);
            for (key, slots) in by_key {
                key.encode(&mut w);
                w.put_u64(m as u64);
                slots.iter().for_each(|s| s.encode(&mut w));
            }
        } else {
            w.put_u8(0);
            w.put_u64(m as u64);
            for parts in stacks {
                parts.first().map_or(&empty, |p| p.all()).encode(&mut w);
            }
        }
        Settle::encode(settles, &mut w);
        seal_envelope(&w.into_bytes())
    }

    /// Opens a blob written by [`QueryBlob::encode`] for `query` under
    /// `config`; `settle` supplies the query's policy (see
    /// [`Settle::decode`]). Fails without side effects.
    pub(crate) fn decode(
        query: &Query,
        config: &EngineConfig,
        settle: &Settle,
        bytes: &[u8],
    ) -> Result<QueryBlob, CodecError> {
        let mut r = Reader::new(open_envelope(bytes)?);
        if r.get_u64()? != fingerprint(query, config) {
            return Err(CodecError::SnapshotMismatch(
                "query/configuration fingerprint",
            ));
        }
        let wm = WatermarkTracker::restore_from(config, &mut r)?;
        let seq = ArrivalSeq::decode(&mut r)?;
        let stats = RuntimeStats::decode(&mut r)?;
        let mut stacks: Vec<Vec<EventRef>> = vec![Vec::new(); query.positive_len()];
        let mut read_slots = |r: &mut Reader<'_>| {
            if r.get_u64()? != stacks.len() as u64 {
                return Err(CodecError::SnapshotMismatch("positive slot count"));
            }
            for slot in &mut stacks {
                slot.extend(Vec::<EventRef>::decode(r)?);
            }
            Ok(())
        };
        match r.get_u8()? {
            0 => read_slots(&mut r)?,
            1 => {
                if !(config.partitioned && query.partition().is_some()) {
                    return Err(CodecError::SnapshotMismatch("partitioning scheme"));
                }
                let n = r.get_u64()?;
                if n > r.remaining() as u64 {
                    return Err(CodecError::BadLength);
                }
                for _ in 0..n {
                    PartitionKey::decode(&mut r)?;
                    read_slots(&mut r)?;
                }
            }
            tag => {
                return Err(CodecError::InvalidTag {
                    what: "stack layout",
                    tag,
                })
            }
        }
        let settle = settle.decode(&mut r)?;
        r.finish()?;
        Ok(QueryBlob {
            wm,
            seq,
            stats,
            stacks,
            settle,
        })
    }
}

/// The paper's engine: order-insensitive active instance stacks,
/// arrival-driven construction with out-of-order compensation, and
/// watermark-safe purge.
///
/// * Negation-free matches are emitted the instant their last-arriving
///   constituent is ingested (zero arrival latency, exactly once) — except
///   under [`crate::DisorderPolicy::Lazy`], which defers every emission to the
///   seal drain.
/// * Negation is handled per [`crate::DisorderPolicy`]: conservatively (held
///   until the negation regions seal, then re-validated), speculatively
///   (emitted immediately, retracted if a late negative lands), lazily,
///   or conservatively under an adaptive slack bound.
/// * State is purged against the watermark (`clock − K`, punctuation, or
///   both) using the thresholds derived in [`sequin_runtime::purge`].
/// * With [`EngineConfig::partitioned`] and a query-level equality chain,
///   positive stacks are indexed by the join key; the negative index stays
///   global (negatives filter by predicate at check time).
#[derive(Debug)]
pub struct NativeEngine {
    query: Arc<Query>,
    config: EngineConfig,
    ctor: Constructor,
    /// One per positive slot.
    stacks: Vec<KeyedStack>,
    settle: Settle,
    wm: WatermarkTracker,
    next_seq: ArrivalSeq,
    stats: RuntimeStats,
    scratch: Vec<Vec<EventRef>>,
    slice: Option<ShardSlice>,
    /// Unspent [`EngineConfig::retraction_drop`] sabotage; not snapshotted.
    retraction_drop: u64,
}

impl NativeEngine {
    /// Creates the engine.
    pub fn new(query: Arc<Query>, config: EngineConfig) -> NativeEngine {
        NativeEngine {
            ctor: Constructor::new(Arc::clone(&query), config.construct),
            settle: Settle::new(Arc::clone(&query), config.policy),
            retraction_drop: config.retraction_drop,
            stacks: slot_stacks(&query, &config),
            wm: WatermarkTracker::new(&config),
            query,
            config,
            next_seq: ArrivalSeq::default(),
            stats: RuntimeStats::default(),
            scratch: Vec::new(),
            slice: None,
        }
    }

    /// Creates one worker of a sharded pool, owning only the partition
    /// keys that hash to `slice`. The worker still observes every stream
    /// item (watermarks, sequence numbers, and the negative index advance
    /// in lockstep with the single-threaded engine) but inserts and
    /// constructs only for its own keys.
    pub(crate) fn sliced(
        query: Arc<Query>,
        config: EngineConfig,
        slice: ShardSlice,
    ) -> NativeEngine {
        let mut eng = NativeEngine::new(query, config);
        eng.slice = Some(slice);
        eng
    }

    fn primary(&self) -> bool {
        self.slice.is_none_or(|s| s.primary())
    }

    /// The current (monotone) low-watermark.
    pub fn watermark(&self) -> Timestamp {
        self.wm.current()
    }

    /// The current disorder-bound estimate (`K`, or the adaptive `K̂`).
    pub fn k_hat(&self) -> sequin_types::Duration {
        self.wm.k_hat()
    }

    /// The stream clock: maximum occurrence timestamp observed so far.
    pub fn clock(&self) -> Timestamp {
        self.wm.clock()
    }

    /// Watermark lag: how far the published watermark trails the stream
    /// clock (see [`Engine::clock`]).
    pub fn watermark_lag(&self) -> sequin_types::Duration {
        self.wm.lag()
    }

    /// Minimum occurrence timestamp across every live positive-stack
    /// entry, or `None` when all stacks are empty. Inspection hook for the
    /// purge-invariant property tests; not part of the stable API.
    #[doc(hidden)]
    pub fn oldest_stack_ts(&self) -> Option<Timestamp> {
        let firsts = self.stacks.iter().filter_map(|s| s.all().events().first());
        firsts.map(|e| e.ts()).min()
    }

    /// The position emissions are stamped with right now.
    fn stamp(&self) -> Stamp {
        Stamp {
            seq: self.next_seq,
            clock: self.wm.clock(),
            watermark: self.wm.current(),
        }
    }

    /// True when this worker owns the arriving event for `slot`.
    fn owns_slot(&self, slot: usize, event: &EventRef) -> bool {
        self.slice
            .is_none_or(|slice| slice.owns_event(&self.stacks[slot], event))
    }

    fn process_event(&mut self, event: &EventRef, out: &mut PhasedOutput) {
        if self.wm.observe_event(event.ts()) {
            // disorder bound violated: state this event needed may already
            // be purged; process best-effort and record the violation.
            // Every worker of a sharded pool sees this in lockstep, so
            // only the primary attributes it.
            if self.primary() {
                self.stats.late_drops += 1;
            }
        }

        // negatives first: a negative at the same timestamp as a positive
        // arrival must be visible to validation in this call. Every worker
        // keeps the full negative index (negatives filter at check time);
        // only the primary attributes the duplicated indexing cost.
        let is_negated_type = self
            .query
            .negations()
            .iter()
            .any(|n| n.matches_type(event.event_type()));
        let stamp = self.stamp();
        if is_negated_type {
            let mut lockstep = RuntimeStats::default();
            let index_stats = if self.primary() {
                &mut self.stats
            } else {
                &mut lockstep
            };
            self.settle.offer_negative(event, index_stats);
            let swallow = &mut self.retraction_drop;
            self.settle
                .retract_invalidated(stamp, event, swallow, &mut self.stats, out);
        }

        // positive slots: route, pre-filter, insert, compensate-construct
        let slots = self.query.slots_for_type(event.event_type());
        let mut routed = false;
        for slot in slots {
            if !self.owns_slot(slot, event) {
                continue;
            }
            routed = true;
            if !self.passes_local(slot, event) {
                continue;
            }
            let mut raw = std::mem::take(&mut self.scratch);
            raw.clear();
            // a duplicate delivery, or an event the slot cannot key,
            // enters no stack and completes nothing
            if let Some(at) = self.stacks[slot].insert(Arc::clone(event)) {
                let (pos, depth) = at.keyed;
                let stats = &mut self.stats;
                stats.insertions += 1;
                if pos + 1 != depth {
                    stats.ooo_insertions += 1;
                }
                stats.max_stack_depth = stats.max_stack_depth.max(depth as u64);
                self.ctor
                    .matches_keyed(&self.stacks, slot, event, stats, &mut raw);
            }
            for events in raw.drain(..) {
                self.settle
                    .route(stamp, slot, events, event.id(), &mut self.stats, out);
            }
            self.scratch = raw;
        }
        if routed {
            self.stats.events_routed += 1;
        }
    }

    fn passes_local(&mut self, slot: usize, event: &EventRef) -> bool {
        let mut binding: Vec<Option<&EventRef>> = vec![None; self.query.components().len()];
        binding[self.query.positive_comp(slot)] = Some(event);
        for pred in self.query.local_predicates(slot) {
            self.stats.predicate_evals += 1;
            if pred.eval(&binding) != Some(true) {
                return false;
            }
        }
        true
    }

    fn run_purge(&mut self) {
        // every worker of a sharded pool purges on the same cadence; the
        // pass itself and the (replicated) negative-index purge are
        // attributed by the primary only, while per-stack purges are
        // disjoint and counted locally
        if self.primary() {
            self.stats.purge_runs += 1;
        }
        let watermark = self.watermark();
        let window = self.query.window();
        // purge_horizon_skew is the simulator's sabotage knob: widening the
        // thresholds deletes state that is still needed, which the
        // differential harness must detect. Zero in any real configuration.
        let skew = sequin_types::Duration::new(self.config.purge_horizon_skew);
        let prefix = purge::prefix_threshold(watermark, window).saturating_add(skew);
        let fin = purge::final_threshold(watermark).saturating_add(skew);
        let m = self.stacks.len();
        for (slot, stack) in self.stacks.iter_mut().enumerate() {
            let threshold = if slot + 1 == m { fin } else { prefix };
            self.stats.purged += stack.purge_before(threshold) as u64;
        }
        let mut lockstep = RuntimeStats::default();
        let index_stats = if self.primary() {
            &mut self.stats
        } else {
            &mut lockstep
        };
        self.settle.purge_negatives(watermark, skew, index_stats);
    }

    /// Applies one routed message: the sequence number, watermark, seal
    /// drain, and purge cadence advance as if this engine had ingested
    /// the full stream. [`RoutedMsg::Advance`] is precisely what a full
    /// event does to a worker that owns none of its slots — observe the
    /// timestamp, attribute a late arrival on the primary, drain seals,
    /// check the purge cadence — without the event clone or the per-slot
    /// ownership probes.
    pub(crate) fn apply_routed(&mut self, msg: &RoutedMsg) -> PhasedOutput {
        let mut out = PhasedOutput::default();
        match msg {
            RoutedMsg::Event { seq, event } => {
                self.next_seq = *seq;
                self.process_event(event, &mut out);
            }
            RoutedMsg::Advance { seq, ts } => {
                self.next_seq = *seq;
                if self.wm.observe_event(*ts) && self.primary() {
                    self.stats.late_drops += 1;
                }
            }
            RoutedMsg::Punctuation(t) => {
                self.wm.observe_punctuation(*t);
            }
        }
        self.settle
            .drain_sealed(self.stamp(), &mut self.stats, &mut out);
        if self.config.purge.due(self.next_seq.get()) {
            self.run_purge();
        }
        out
    }

    /// The last arrival sequence this engine stamped (or mirrored). The
    /// router resynchronizes from this after a restore.
    pub(crate) fn seq(&self) -> ArrivalSeq {
        self.next_seq
    }

    /// Number of entries in the (worker-replicated) negative index.
    /// Inspection hook for the broadcast property tests; not part of the
    /// stable API.
    #[doc(hidden)]
    pub fn negative_index_len(&self) -> usize {
        self.settle.negatives_len()
    }

    /// End-of-stream flush in merge-ready form.
    pub(crate) fn finish_phased(&mut self) -> PhasedOutput {
        let mut out = PhasedOutput::default();
        self.wm.seal();
        self.settle
            .drain_sealed(self.stamp(), &mut self.stats, &mut out);
        out
    }

    /// State size excluding the negative index, which sharded pools
    /// replicate on every worker and must count once.
    pub(crate) fn owned_state_size(&self) -> usize {
        self.state_size() - self.settle.negatives_len()
    }

    /// Zeroes the counters (a restored non-primary worker starts from a
    /// clean slate so pool-wide aggregation does not double-count the
    /// snapshot's history).
    pub(crate) fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Serializes the union of a sharded pool's workers (primary first;
    /// a lone engine is a pool of one) as one [`QueryBlob`]: restoring it
    /// into a single engine — or a pool with a *different* worker count —
    /// reproduces the same evaluation state. Lockstep state (watermark,
    /// arrival sequence, negative index) comes from the primary worker;
    /// the workers' keys are disjoint by construction and written as one
    /// sorted map; pending/unsealed matches are the sorted union.
    pub(crate) fn merged_snapshot(parts: &[&NativeEngine]) -> Vec<u8> {
        let primary = parts[0];
        assert!(primary.primary(), "worker 0 is the pool's primary");
        let mut stats = RuntimeStats::default();
        for p in parts {
            stats += p.stats;
        }
        let of_slot = |slot: usize| parts.iter().map(|p| &p.stacks[slot]).collect();
        let stacks: Vec<Vec<&KeyedStack>> = (0..primary.stacks.len()).map(of_slot).collect();
        let settles: Vec<&Settle> = parts.iter().map(|p| &p.settle).collect();
        QueryBlob::encode(
            &primary.query,
            &primary.config,
            &primary.wm,
            primary.next_seq,
            &stats,
            &stacks,
            &settles,
        )
    }
}

impl Engine for NativeEngine {
    fn ingest(&mut self, item: &StreamItem) -> Vec<OutputItem> {
        // a lone engine is its own router: stamp, then apply
        let phased = match item {
            StreamItem::Event(event) => {
                let seq = self.next_seq.next();
                let event = Arc::new(event.with_arrival(seq));
                self.apply_routed(&RoutedMsg::Event { seq, event })
            }
            StreamItem::Punctuation(t) => self.apply_routed(&RoutedMsg::Punctuation(*t)),
        };
        let mut out = Vec::new();
        PhasedOutput::merge_into(vec![phased], &mut out);
        out
    }

    fn finish(&mut self) -> Vec<OutputItem> {
        // end-of-stream seals every region
        let phased = self.finish_phased();
        let mut out = Vec::new();
        PhasedOutput::merge_into(vec![phased], &mut out);
        out
    }

    fn stats(&self) -> RuntimeStats {
        self.stats
    }

    fn state_size(&self) -> usize {
        let stacks: usize = self.stacks.iter().map(KeyedStack::len).sum();
        stacks + self.settle.len()
    }

    fn query(&self) -> &Arc<Query> {
        &self.query
    }

    fn partition_keys(&self) -> usize {
        self.stacks.iter().map(KeyedStack::keys).sum()
    }

    fn watermark(&self) -> Option<Timestamp> {
        Some(self.wm.current())
    }

    fn clock(&self) -> Option<Timestamp> {
        Some(self.wm.clock())
    }

    fn slack_bound(&self) -> Option<sequin_types::Duration> {
        Some(self.wm.k_hat())
    }

    fn snapshot(&self) -> Result<Vec<u8>, CodecError> {
        Ok(NativeEngine::merged_snapshot(&[self]))
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let blob = QueryBlob::decode(&self.query, &self.config, &self.settle, bytes)?;
        // everything decoded cleanly: commit (all-or-nothing — a failure
        // above leaves the current state untouched)
        self.stacks = slot_stacks(&self.query, &self.config);
        self.settle = blob.settle;
        let mut stored = blob.stacks;
        if let Some(slice) = self.slice {
            // a pool's worker keeps what it owns of the positive state —
            // stack instances, and pending / unsealed matches by their
            // first event — and all of the lockstep state (watermark,
            // sequence, negatives)
            for (stack, events) in self.stacks.iter().zip(&mut stored) {
                events.retain(|e| slice.owns_event(stack, e));
            }
            let first = &self.stacks[0];
            self.settle.retain_matches(|events| {
                let owned = events.first().map(|e| slice.owns_event(first, e));
                owned.unwrap_or(slice.primary())
            });
        }
        for (stack, events) in self.stacks.iter_mut().zip(stored) {
            stack.insert_all(events);
        }
        self.wm = blob.wm;
        self.next_seq = blob.seq;
        self.stats = blob.stats;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DisorderPolicy, WatermarkSource};
    use crate::output::OutputKind;
    use crate::traits::run_to_end;
    use sequin_query::parse;
    use sequin_runtime::purge::PurgePolicy;
    use sequin_types::{Duration, Event, EventId, TypeRegistry, Value, ValueKind};

    fn registry() -> TypeRegistry {
        let mut reg = TypeRegistry::new();
        for name in ["A", "B", "C", "N"] {
            reg.declare(name, &[("x", ValueKind::Int), ("tag", ValueKind::Int)])
                .unwrap();
        }
        reg
    }

    fn item(reg: &TypeRegistry, ty: &str, id: u64, ts: u64, x: i64) -> StreamItem {
        StreamItem::Event(Arc::new(
            Event::builder(reg.lookup(ty).unwrap(), Timestamp::new(ts))
                .id(EventId::new(id))
                .attr(Value::Int(x))
                .attr(Value::Int(x))
                .build(),
        ))
    }

    fn keys(out: &[OutputItem]) -> Vec<(bool, Vec<u64>)> {
        let mut v: Vec<(bool, Vec<u64>)> = out
            .iter()
            .map(|o| {
                (
                    o.kind == OutputKind::Insert,
                    o.m.events().iter().map(|e| e.id().get()).collect(),
                )
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn out_of_order_match_recovered_immediately() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 100", &reg).unwrap();
        let mut eng = NativeEngine::new(q, EngineConfig::default());
        let mut out = Vec::new();
        out.extend(eng.ingest(&item(&reg, "B", 1, 20, 0)));
        assert!(out.is_empty());
        out.extend(eng.ingest(&item(&reg, "A", 2, 10, 0)));
        assert_eq!(out.len(), 1, "compensation fired on the late A");
        assert_eq!(out[0].arrival_latency(), 0);
    }

    #[test]
    fn exactly_once_under_shuffle() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b, C c) WITHIN 100", &reg).unwrap();
        let items = [
            item(&reg, "C", 5, 50, 0),
            item(&reg, "A", 1, 10, 0),
            item(&reg, "B", 3, 30, 0),
            item(&reg, "A", 2, 20, 0),
            item(&reg, "C", 6, 60, 0),
        ];
        let mut eng = NativeEngine::new(q, EngineConfig::default());
        let out = run_to_end(&mut eng, &items);
        assert_eq!(
            keys(&out),
            vec![
                (true, vec![1, 3, 5]),
                (true, vec![1, 3, 6]),
                (true, vec![2, 3, 5]),
                (true, vec![2, 3, 6]),
            ]
        );
    }

    #[test]
    fn duplicate_delivery_is_idempotent() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 100", &reg).unwrap();
        let mut eng = NativeEngine::new(q, EngineConfig::default());
        let a = item(&reg, "A", 1, 10, 0);
        let b = item(&reg, "B", 2, 20, 0);
        let mut out = Vec::new();
        out.extend(eng.ingest(&a));
        out.extend(eng.ingest(&b));
        out.extend(eng.ingest(&b));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn speculative_insert_minus_retract_equals_conservative() {
        let reg = registry();
        let text = "PATTERN SEQ(A a, !N n, B b) WHERE a.tag == b.tag WITHIN 50";
        let q = parse(text, &reg).unwrap();
        let items: Vec<StreamItem> = vec![
            item(&reg, "A", 1, 10, 1),
            item(&reg, "B", 2, 30, 1),
            item(&reg, "N", 3, 20, 0), // late negative kills (1,2)
            item(&reg, "A", 4, 40, 2),
            item(&reg, "B", 5, 60, 2),
            item(&reg, "A", 7, 200, 3), // advances watermark far
        ];
        let mut cons = NativeEngine::new(Arc::clone(&q), {
            let mut c = EngineConfig::with_k(Duration::new(30));
            c.policy = DisorderPolicy::Conservative;
            c
        });
        let mut aggr = NativeEngine::new(q, {
            let mut c = EngineConfig::with_k(Duration::new(30));
            c.policy = DisorderPolicy::Speculative;
            c
        });
        let out_c = run_to_end(&mut cons, &items);
        let out_a = run_to_end(&mut aggr, &items);
        // net speculative output (inserts minus retracts) == conservative
        let mut net: std::collections::BTreeMap<Vec<u64>, i64> = Default::default();
        for o in &out_a {
            let k: Vec<u64> = o.m.events().iter().map(|e| e.id().get()).collect();
            *net.entry(k).or_default() += if o.kind == OutputKind::Insert { 1 } else { -1 };
        }
        net.retain(|_, v| *v != 0);
        let mut cons_keys: Vec<Vec<u64>> = out_c
            .iter()
            .map(|o| o.m.events().iter().map(|e| e.id().get()).collect())
            .collect();
        cons_keys.sort();
        let net_keys: Vec<Vec<u64>> = net.keys().cloned().collect();
        assert_eq!(net_keys, cons_keys);
    }

    #[test]
    fn punctuation_seals_regions() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, !N n, B b) WITHIN 100", &reg).unwrap();
        let mut cfg = EngineConfig::with_k(Duration::new(1_000_000));
        cfg.watermark = WatermarkSource::Both;
        let mut eng = NativeEngine::new(q, cfg);
        let mut out = Vec::new();
        out.extend(eng.ingest(&item(&reg, "A", 1, 10, 0)));
        out.extend(eng.ingest(&item(&reg, "B", 2, 20, 0)));
        assert!(out.is_empty());
        out.extend(eng.ingest(&StreamItem::Punctuation(Timestamp::new(25))));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn finish_seals_everything() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, !N n, B b) WITHIN 100", &reg).unwrap();
        let mut eng = NativeEngine::new(q, EngineConfig::with_k(Duration::new(1_000_000)));
        eng.ingest(&item(&reg, "A", 1, 10, 0));
        eng.ingest(&item(&reg, "B", 2, 20, 0));
        let out = eng.finish();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn purge_bounds_state_without_losing_matches() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 20", &reg).unwrap();
        let mut cfg = EngineConfig::with_k(Duration::new(10));
        cfg.purge = PurgePolicy::EAGER;
        let mut purged_eng = NativeEngine::new(Arc::clone(&q), cfg);
        let mut unpurged_cfg = EngineConfig::with_k(Duration::new(10));
        unpurged_cfg.purge = PurgePolicy::NEVER;
        let mut unpurged_eng = NativeEngine::new(q, unpurged_cfg);

        // a long stream with small bounded disorder
        let mut items = Vec::new();
        let mut id = 0;
        for t in 0..500u64 {
            id += 1;
            let ty = if t % 4 == 0 { "B" } else { "A" };
            let ts = if t % 7 == 3 { t.saturating_sub(5) } else { t };
            items.push(item(&reg, ty, id, ts * 3, 0));
        }
        let out_p = run_to_end(&mut purged_eng, &items);
        let out_u = run_to_end(&mut unpurged_eng, &items);
        assert_eq!(keys(&out_p), keys(&out_u));
        assert!(purged_eng.state_size() * 4 < unpurged_eng.state_size());
    }

    #[test]
    fn partitioned_agrees_with_unpartitioned() {
        let reg = registry();
        let text = "PATTERN SEQ(A a, B b, C c) WHERE a.tag == b.tag AND b.tag == c.tag WITHIN 200";
        let q = parse(text, &reg).unwrap();
        assert!(q.partition().is_some());
        let mut part = NativeEngine::new(Arc::clone(&q), EngineConfig::default());
        let flat_cfg = EngineConfig {
            partitioned: false,
            ..EngineConfig::default()
        };
        let mut flat = NativeEngine::new(q, flat_cfg);

        let mut items = Vec::new();
        let mut id = 0;
        for t in 0..300u64 {
            id += 1;
            let ty = ["A", "B", "C"][(t % 3) as usize];
            let tag = (t % 5) as i64;
            let ts = if t % 6 == 2 { t.saturating_sub(4) } else { t };
            items.push(item(&reg, ty, id, ts * 2, tag));
        }
        let out_p = run_to_end(&mut part, &items);
        let out_f = run_to_end(&mut flat, &items);
        assert_eq!(keys(&out_p), keys(&out_f));
        assert!(!out_p.is_empty());
    }

    #[test]
    fn late_beyond_k_is_counted() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 10", &reg).unwrap();
        let mut eng = NativeEngine::new(q, EngineConfig::with_k(Duration::new(5)));
        eng.ingest(&item(&reg, "A", 1, 1000, 0));
        eng.ingest(&item(&reg, "B", 2, 10, 0)); // 990 late, bound is 5
        assert_eq!(eng.stats().late_drops, 1);
    }

    #[test]
    fn adaptive_k_with_adequate_floor_is_exact() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 100", &reg).unwrap();
        // floor covers the real disorder: adaptive must behave like fixed K
        let mut adaptive = NativeEngine::new(
            Arc::clone(&q),
            EngineConfig::with_adaptive_k(Duration::new(50), 2.0),
        );
        let mut fixed = NativeEngine::new(q, EngineConfig::with_k(Duration::new(50)));
        let items = [
            item(&reg, "B", 1, 40, 0),
            item(&reg, "A", 2, 10, 0), // 30 late, within floor
            item(&reg, "A", 3, 50, 0),
            item(&reg, "B", 4, 90, 0),
        ];
        let out_a = run_to_end(&mut adaptive, &items);
        let out_f = run_to_end(&mut fixed, &items);
        assert_eq!(keys(&out_a), keys(&out_f));
        assert_eq!(adaptive.stats().late_drops, 0);
    }

    #[test]
    fn adaptive_k_estimate_grows_with_observed_lateness() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 100", &reg).unwrap();
        let mut eng = NativeEngine::new(q, EngineConfig::with_adaptive_k(Duration::new(5), 2.0));
        eng.ingest(&item(&reg, "A", 1, 100, 0));
        assert_eq!(eng.k_hat(), Duration::new(5));
        eng.ingest(&item(&reg, "B", 2, 60, 0)); // 40 late
        assert_eq!(eng.k_hat(), Duration::new(80));
        // watermark never retreats
        let wm_before = eng.watermark();
        eng.ingest(&item(&reg, "B", 3, 61, 0));
        assert!(eng.watermark() >= wm_before);
    }

    #[test]
    fn state_size_reflects_pending() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, !N n, B b) WITHIN 100", &reg).unwrap();
        let mut eng = NativeEngine::new(q, EngineConfig::with_k(Duration::new(1_000_000)));
        eng.ingest(&item(&reg, "A", 1, 10, 0));
        eng.ingest(&item(&reg, "B", 2, 20, 0));
        assert_eq!(eng.state_size(), 3); // 2 stack instances + 1 pending
    }

    fn policy_cfg(k: u64, policy: DisorderPolicy) -> EngineConfig {
        let mut c = EngineConfig::with_k(Duration::new(k));
        c.policy = policy;
        c
    }

    /// A disordered mixed stream exercising negation, retraction windows,
    /// and plain matches.
    fn mixed_stream(reg: &TypeRegistry) -> Vec<StreamItem> {
        vec![
            item(reg, "A", 1, 10, 1),
            item(reg, "B", 2, 30, 1),
            item(reg, "N", 3, 20, 0), // late negative kills (1,2)
            item(reg, "A", 4, 40, 2),
            item(reg, "B", 5, 60, 2),
            item(reg, "B", 6, 55, 2), // late positive
            item(reg, "A", 7, 200, 3),
            item(reg, "B", 8, 230, 3),
        ]
    }

    fn settled(out: &[OutputItem]) -> Vec<Vec<u64>> {
        let mut net: std::collections::BTreeMap<Vec<u64>, i64> = Default::default();
        for o in out {
            let k: Vec<u64> = o.m.events().iter().map(|e| e.id().get()).collect();
            *net.entry(k).or_default() += if o.kind == OutputKind::Insert { 1 } else { -1 };
        }
        net.retain(|_, v| *v != 0);
        assert!(net.values().all(|v| *v == 1), "no duplicate settles");
        net.into_keys().collect()
    }

    #[test]
    fn every_policy_settles_to_the_conservative_output() {
        let reg = registry();
        for text in [
            "PATTERN SEQ(A a, !N n, B b) WHERE a.tag == b.tag WITHIN 50",
            "PATTERN SEQ(A a, B b) WITHIN 50",
        ] {
            let q = parse(text, &reg).unwrap();
            let items = mixed_stream(&reg);
            let mut cons =
                NativeEngine::new(Arc::clone(&q), policy_cfg(30, DisorderPolicy::Conservative));
            let oracle = settled(&run_to_end(&mut cons, &items));
            for policy in [
                DisorderPolicy::Speculative,
                DisorderPolicy::Lazy,
                DisorderPolicy::AdaptiveSlack { accuracy: 0 },
                DisorderPolicy::AdaptiveSlack { accuracy: 100 },
            ] {
                let mut eng = NativeEngine::new(Arc::clone(&q), policy_cfg(30, policy));
                let got = settled(&run_to_end(&mut eng, &items));
                assert_eq!(got, oracle, "{text} under {policy:?}");
            }
        }
    }

    #[test]
    fn retraction_drop_knob_swallows_exactly_one_retraction() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, !N n, B b) WITHIN 100", &reg).unwrap();
        let mut cfg = policy_cfg(50, DisorderPolicy::Speculative);
        cfg.retraction_drop = 1;
        let mut sabotaged = NativeEngine::new(Arc::clone(&q), cfg);
        let mut honest = NativeEngine::new(q, policy_cfg(50, DisorderPolicy::Speculative));
        let items = [
            item(&reg, "A", 1, 10, 0),
            item(&reg, "B", 2, 20, 0),
            item(&reg, "N", 3, 15, 0), // retracts (1,2)
            item(&reg, "A", 4, 30, 0),
            item(&reg, "B", 5, 40, 0),
            item(&reg, "N", 6, 35, 0), // retracts (4,5)
        ];
        let out_s = run_to_end(&mut sabotaged, &items);
        let out_h = run_to_end(&mut honest, &items);
        let retracts =
            |out: &[OutputItem]| out.iter().filter(|o| o.kind == OutputKind::Retract).count();
        assert_eq!(retracts(&out_h), 2);
        assert_eq!(retracts(&out_s), 1, "first retraction silently dropped");
        // the sabotaged settled output keeps a match the honest one drops
        assert_eq!(settled(&out_s).len(), settled(&out_h).len() + 1);
    }

    #[test]
    fn policy_change_across_snapshot_restores_and_settles_once() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, !N n, B b) WITHIN 100", &reg).unwrap();
        let prefix = [
            item(&reg, "A", 1, 10, 0),
            item(&reg, "B", 2, 20, 0), // speculative: emitted unsealed
        ];
        let suffix = [
            item(&reg, "N", 3, 15, 0), // invalidates (1,2) after the switch
            item(&reg, "A", 4, 200, 0),
            item(&reg, "B", 5, 220, 0),
        ];
        let mut spec =
            NativeEngine::new(Arc::clone(&q), policy_cfg(50, DisorderPolicy::Speculative));
        let mut out = Vec::new();
        for it in &prefix {
            out.extend(spec.ingest(it));
        }
        assert_eq!(keys(&out), vec![(true, vec![1, 2])], "emitted unsealed");
        let snap = spec.snapshot().unwrap();
        // resume the same state under every other policy: the inherited
        // unsealed record must still be retracted by the late negative
        for policy in [
            DisorderPolicy::Conservative,
            DisorderPolicy::Lazy,
            DisorderPolicy::AdaptiveSlack { accuracy: 90 },
        ] {
            let mut resumed = NativeEngine::new(Arc::clone(&q), policy_cfg(50, policy));
            resumed.restore(&snap).unwrap();
            let mut tail = out.clone();
            for it in &suffix {
                tail.extend(resumed.ingest(it));
            }
            tail.extend(resumed.finish());
            assert_eq!(
                settled(&tail),
                vec![vec![4, 5]],
                "resume under {policy:?}: (1,2) retracted exactly once, (4,5) kept"
            );
        }
    }
}
