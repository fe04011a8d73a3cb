//! The evaluator: one ingest loop over a compiled plan.
//!
//! [`MultiEngine`] is the only place in this crate that ingests an
//! arrival. Per arrival it does what the paper describes, once: number
//! the arrival and observe its timestamp, offer it to the negative index
//! of every query that negates its type, insert it at its sorted position
//! in every stack that accepts it, construct the matches it completes
//! anchored at the new instance, hand each to the query's
//! [`crate::settle`] state, drain what the advanced watermark sealed, and
//! purge behind the watermark on the configured cadence.
//!
//! The stacks it inserts into are those of a [`sequin_plan::SharedPlan`]:
//! slots with identical signatures share one physical stack and one
//! insert-time predicate evaluation, queries with a common prefix share
//! one partial-match enumeration forked to every member's final slot, and
//! an event-type routing index means an arrival touches only the plan
//! nodes of interested queries. Every hosting is an instance of it, run
//! inline on the caller's thread:
//!
//! * many queries — the server core, `sequin run`, the simulator's plan
//!   path — run on one of these;
//! * one query — [`crate::NativeEngine`] is a plan of one registration,
//!   where pooling and prefix sharing have nothing to share.
//!
//! Outputs carry [`QueryId`]s, in registration order per arrival, and a
//! snapshot is an envelope of per-query blobs, so a query's blob written by
//! a plan of many restores into a plan of one and back.
//!
//! ## Equivalence contract
//!
//! Per query, the output sequence of a plan of N queries is
//! **byte-identical** to that of N plans of one (the same queries on
//! [`crate::NativeEngine`]s of their own) under the same configuration,
//! for streams whose lateness stays within the disorder bound: pooling
//! and prefix sharing are invisible per query. That is what this file's
//! differential tests, `tests/multi_query.rs` and `sequin sim`'s `plan`
//! path check; that the algorithm itself is right is anchored elsewhere, on
//! the brute-force `sequin_sim::reference_matches` oracle, which shares
//! no code with any engine. Beyond-`K` arrivals are best-effort; a pooled
//! stack's purge threshold (the `min` over referencing queries) retains a
//! superset of each query's state, so a larger plan can only *recover*
//! strictly more of those out-of-contract matches. Per-query
//! [`RuntimeStats`] are faithful for the routing, insertion, emission,
//! and lateness counters — an insert reports its position and depth in
//! the arrival's own key stack, which pooling does not move;
//! the pure cost counters `purged` and `max_stack_depth` describe the
//! shared physical layout, since the pooled purge threshold retains more
//! state than any single query needs.
//!
//! ## Epochs
//!
//! Queries registered at the same stream position share an *epoch*: one
//! watermark tracker and one arrival sequence. A query subscribed
//! mid-stream starts a fresh epoch, so it observes exactly the arrivals
//! a newly constructed evaluator would — stacks never pool across epochs
//! (the epoch is part of the plan's slot signature).
//!
//! Epochs are additionally split by *watermark class*: queries under a
//! fixed disorder bound (conservative, speculative, lazy) pool freely,
//! while each [`DisorderPolicy::AdaptiveSlack`] accuracy level gets its
//! own epoch — an adaptive query's watermark is driven by its lateness
//! sketch and must never be shared with a fixed-bound query (the pooling
//! compatibility rule).
//!
//! ## The tail
//!
//! What ends an arrival — releasing what its watermark sealed, handing
//! back its outputs in registration order — visits the queries the arrival
//! concerns, not the queries registered: each epoch keeps a min-heap of
//! `(seal deadline, query)` over the queries holding a record
//! ([`EpochState::due`]), and a query is listed the first time an arrival
//! gives it output ([`writing`]). After every arrival no query holds a
//! record at or below its watermark, exactly as if each had been asked.
//!
//! ## Owed counters
//!
//! A per-query counter of work a plan node does once for all the queries
//! sharing it is counted once, by the node, and *owed* to them: a pooled
//! stack owes each (query, slot) reading it its offers, pre-filter
//! evaluations, insertions and purges; a prefix group owes each member the
//! steps of its shared walk; an epoch owes each of its queries its purge
//! rounds and late arrivals. [`MultiEngine::fold`] is the one place
//! they meet a query's own [`RuntimeStats`]. What a group walk counts per
//! member — bind checks, a fork's candidates — is tallied for the members
//! it touched and added once per walk. So an arrival costs the nodes it
//! changes, not the queries that share them: a partial is forked only to
//! the group's *live* members, whose final stack holds an instance, and a
//! purge round visits only its epoch's non-empty stacks.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

use sequin_plan::{
    compile, BindEntry, GroupMember, PrefixGroup, QuerySpec, RouteEntry, SharedPlan, SlotSig,
};
use sequin_query::{with_binding, Query};
use sequin_runtime::{
    purge, suffix_bounds, ConstructOpts, Constructor, KeyedStack, PartitionKey, RuntimeStats,
};
use sequin_types::codec::{open_envelope, seal_envelope};
use sequin_types::{
    ArrivalSeq, CodecError, Duration, EventRef, Reader, StreamItem, Timestamp, Writer,
};

use crate::blob::QueryBlob;
use crate::config::{DisorderPolicy, EngineConfig};
use crate::output::OutputItem;
use crate::settle::{PhasedOutput, Settle, Stamp};
use crate::watermark::WatermarkTracker;

/// A registered query's handle within a [`MultiEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(usize);

impl QueryId {
    pub(crate) const fn new(ix: usize) -> QueryId {
        QueryId(ix)
    }

    /// The dense registration index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Seals per-query blobs, in registration order, as the snapshot
/// envelope: `count`, then each blob length-prefixed.
pub(crate) fn write_envelope(blobs: impl ExactSizeIterator<Item = Vec<u8>>) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(blobs.len() as u64);
    for blob in blobs {
        w.put_bytes(&blob);
    }
    seal_envelope(&w.into_bytes())
}

/// The per-query blobs of a [`write_envelope`] envelope holding exactly
/// `queries` of them, borrowed from it.
pub(crate) fn read_envelope(bytes: &[u8], queries: usize) -> Result<Vec<&[u8]>, CodecError> {
    let mut r = Reader::new(open_envelope(bytes)?);
    if r.get_u64()? != queries as u64 {
        return Err(CodecError::SnapshotMismatch("registered query count"));
    }
    let blobs = (0..queries).map(|_| r.get_len().and_then(|len| r.take(len)));
    let blobs = blobs.collect::<Result<Vec<_>, _>>()?;
    r.finish()?;
    Ok(blobs)
}

/// Plan-level evaluation metrics exposed for observability: structural
/// gauges describe the current compiled plan, counters accumulate over
/// the engine's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanMetrics {
    /// Physical pooled stacks in the current plan.
    pub pooled_stacks: u64,
    /// Logical (query, slot) anchors served by those stacks.
    pub stack_refs: u64,
    /// Common-prefix groups in the current plan.
    pub prefix_groups: u64,
    /// Queries whose prefix enumeration is shared with at least one other.
    pub grouped_queries: u64,
    /// Registration epochs.
    pub epochs: u64,
    /// Events the routing index dispatched to at least one plan node.
    pub routed_events: u64,
    /// Events no registered query was interested in.
    pub routing_misses: u64,
    /// Complete prefix partials enumerated once for a whole group.
    pub shared_partials: u64,
    /// Member matches forked out of shared partials.
    pub fanout_outputs: u64,
}

/// The watermark-compatibility class of a [`DisorderPolicy`]: fixed-bound
/// policies share one tracker per registration position; each adaptive
/// accuracy level tracks its own (the sketch-driven bound must not leak
/// between queries with different knobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WmClass {
    Fixed,
    Adaptive(u8),
}

impl WmClass {
    fn of(policy: DisorderPolicy) -> WmClass {
        match policy.adaptive_accuracy() {
            Some(accuracy) => WmClass::Adaptive(accuracy),
            None => WmClass::Fixed,
        }
    }

    /// A representative policy for constructing this class's watermark
    /// tracker (the tracker only consults [`DisorderPolicy::adaptive_params`]).
    fn tracker_policy(self) -> DisorderPolicy {
        match self {
            WmClass::Fixed => DisorderPolicy::Conservative,
            WmClass::Adaptive(accuracy) => DisorderPolicy::AdaptiveSlack { accuracy },
        }
    }
}

/// Per-registration-epoch stream state: one watermark tracker and one
/// arrival sequence shared by every query registered at that position
/// with a compatible watermark class.
struct EpochState {
    wm: WatermarkTracker,
    seq: ArrivalSeq,
    /// Active query indices in this epoch, ascending (a registration
    /// appends, a recompile rebuilds).
    queries: Vec<usize>,
    /// Those of [`EpochState::queries`] that negate a type: whose negative
    /// indexes a purge round purges.
    negating: Vec<usize>,
    /// This epoch's pooled stacks that hold an instance, in no particular
    /// order: what a purge round visits.
    nonempty: Vec<usize>,
    /// Purge rounds, owed to every query of the epoch.
    purge_runs: u64,
    /// Arrivals beyond the disorder bound, owed to every query of the
    /// epoch.
    late_drops: u64,
    /// The seal-deadline index: a min-heap of `(deadline, query)`, in which
    /// every query of this epoch that holds a record — a pending match, or
    /// an emitted one still open to retraction — has one *live* entry, at
    /// or before its earliest held deadline ([`QueryState::due`] says
    /// which). Entries that were superseded by an earlier one, or whose
    /// query was unregistered, stay behind and are skipped when popped.
    due: BinaryHeap<Reverse<(Timestamp, usize)>>,
}

impl EpochState {
    fn new(config: &EngineConfig, class: WmClass) -> EpochState {
        let mut c = *config;
        c.policy = class.tracker_policy();
        EpochState::at(WatermarkTracker::new(&c), ArrivalSeq::default())
    }

    /// An epoch at a given stream position, with no query in it yet.
    fn at(wm: WatermarkTracker, seq: ArrivalSeq) -> EpochState {
        EpochState {
            wm,
            seq,
            queries: Vec::new(),
            negating: Vec::new(),
            nonempty: Vec::new(),
            purge_runs: 0,
            late_drops: 0,
            due: BinaryHeap::new(),
        }
    }

    /// Lists active query `qix` in this epoch.
    fn enter(&mut self, qix: usize, query: &Query) {
        self.queries.push(qix);
        if query.has_negation() {
            self.negating.push(qix);
        }
    }

    /// Query `qix` (state `st`) now holds a record sealing at `deadline`:
    /// enters it in the index unless its live entry is already that early,
    /// so a query costs the heap one push per *decrease* of its earliest
    /// deadline, not one per record.
    fn hold(&mut self, qix: usize, st: &mut QueryState, deadline: Timestamp) {
        if st.due.is_none_or(|due| deadline < due) {
            st.due = Some(deadline);
            self.due.push(Reverse((deadline, qix)));
        }
    }

    /// The position this epoch's emissions are stamped with right now.
    fn stamp(&self) -> Stamp {
        Stamp {
            seq: self.seq,
            clock: self.wm.clock(),
            watermark: self.wm.current(),
        }
    }
}

/// Per-query evaluation state not shareable across queries.
struct QueryState {
    query: Arc<Query>,
    epoch: usize,
    /// The walker for this query's anchors outside any shared prefix
    /// walk, run over the pooled stacks.
    ctor: Constructor,
    /// Emission timing under this query's disorder policy (the watermark
    /// side lives in the epoch's class).
    settle: Settle,
    stats: RuntimeStats,
    /// This arrival's outputs so far; written only through [`writing`].
    phased: PhasedOutput,
    /// The deadline of this query's live entry in its epoch's
    /// [`EpochState::due`]; `None` while it holds nothing.
    due: Option<Timestamp>,
    /// Offers of one arrival to a second (third, …) of this query's slots.
    /// Each slot's pooled stack owes the query its offers, so the fold
    /// subtracts these to keep `events_routed` once per arrival.
    repeat_offers: u64,
    active: bool,
}

impl QueryState {
    fn new(
        query: Arc<Query>,
        epoch: usize,
        policy: DisorderPolicy,
        config: &EngineConfig,
    ) -> QueryState {
        QueryState {
            ctor: Constructor::new(Arc::clone(&query), config.construct),
            settle: Settle::new(Arc::clone(&query), policy),
            query,
            epoch,
            stats: RuntimeStats::default(),
            phased: PhasedOutput::default(),
            due: None,
            repeat_offers: 0,
            active: true,
        }
    }
}

/// What a pooled stack counts once for every (query, slot) reading it.
#[derive(Debug, Default, Clone, Copy)]
struct StackOwed {
    /// Arrivals offered to the stack, each an `events_routed` of the
    /// readers.
    offered: u64,
    /// The pre-filter's `predicate_evals`.
    predicate_evals: u64,
    insertions: u64,
    ooo_insertions: u64,
    max_stack_depth: u64,
    purged: u64,
}

/// A prefix group's run-time state beside its plan node.
#[derive(Debug, Default)]
struct GroupState {
    /// The members whose final stack holds an instance: the only ones a
    /// partial can complete, so the only ones it is forked to.
    live: MemberSet,
    /// The shared walk's `dfs_steps`, owed to every member.
    dfs_steps: u64,
}

/// A set of group member indices, one bit each, iterated ascending.
#[derive(Debug, Default)]
struct MemberSet {
    words: Vec<u64>,
    len: usize,
}

impl MemberSet {
    /// Room for `members` members, without allocating once an arrival
    /// sets one.
    fn fit(&mut self, members: usize) {
        self.words.resize(members.div_ceil(64), 0);
    }

    fn insert(&mut self, mx: usize) {
        let (word, bit) = (&mut self.words[mx / 64], 1 << (mx % 64));
        self.len += usize::from(*word & bit == 0);
        *word |= bit;
    }

    fn remove(&mut self, mx: usize) {
        let (word, bit) = (&mut self.words[mx / 64], 1 << (mx % 64));
        self.len -= usize::from(*word & bit != 0);
        *word &= !bit;
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                let bit = (rest != 0).then(|| rest.trailing_zeros() as usize)?;
                rest &= rest - 1;
                Some(w * 64 + bit)
            })
        })
    }
}

/// One group walk's per-member counts — `[predicate_evals, dfs_steps,
/// matches_constructed]` — and the members that have any. The walk's end
/// adds those members' counts to their counters and re-zeroes only them.
#[derive(Debug, Default)]
struct Tally {
    counts: Vec<[u64; 3]>,
    touched: Vec<usize>,
}

impl Tally {
    /// Member `mx`'s counts, which the caller then adds to.
    fn of(&mut self, mx: usize) -> &mut [u64; 3] {
        if self.counts.len() <= mx {
            self.counts.resize(mx + 1, [0; 3]);
        }
        if self.counts[mx] == [0; 3] {
            self.touched.push(mx);
        }
        &mut self.counts[mx]
    }

    fn drain_into(&mut self, members: &[GroupMember], states: &mut [QueryState]) {
        for mx in self.touched.drain(..) {
            let [evals, dfs, constructed] = std::mem::take(&mut self.counts[mx]);
            let stats = &mut states[members[mx].query].stats;
            stats.predicate_evals += evals;
            stats.dfs_steps += dfs;
            stats.matches_constructed += constructed;
        }
    }
}

/// Runs `write`, one of the writers of `st.phased` (query `qix`'s), and
/// lists the query in `dirty` if that gave it its first output of this
/// arrival: the outputs are then collected from the listed queries, not
/// looked for in every registered one.
fn writing<T>(
    st: &mut QueryState,
    qix: usize,
    dirty: &mut Vec<usize>,
    write: impl FnOnce(&mut QueryState) -> T,
) -> T {
    let was_empty = st.phased.len() == 0;
    let result = write(st);
    if was_empty && st.phased.len() > 0 {
        dirty.push(qix);
    }
    result
}

/// The evaluator of one shared plan (see module docs): fans one arrival
/// stream out to many queries under one shared [`EngineConfig`], each
/// with its own [`DisorderPolicy`], and tags outputs with the originating
/// [`QueryId`].
///
/// The whole of a [`crate::NativeEngine`], and what the server core and
/// `sequin run` evaluate on. Outputs carry the same tags in the same order
/// as the same queries on plans of their own, and snapshots are the same
/// envelope of per-query blobs — a checkpoint taken by any hosting
/// restores into any other.
///
/// ```
/// use sequin_engine::{DisorderPolicy, EngineConfig, MultiEngine};
/// use sequin_query::parse;
/// use sequin_types::{TypeRegistry, ValueKind};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut reg = TypeRegistry::new();
/// reg.declare("A", &[("x", ValueKind::Int)])?;
/// reg.declare("B", &[("x", ValueKind::Int)])?;
/// let mut multi = MultiEngine::new(EngineConfig::default());
/// let q1 = multi.register(
///     parse("PATTERN SEQ(A a, B b) WITHIN 10", &reg)?,
///     DisorderPolicy::Conservative,
/// );
/// let q2 = multi.register(
///     parse("PATTERN SEQ(B b, A a) WITHIN 10", &reg)?,
///     DisorderPolicy::Speculative,
/// );
/// assert_ne!(q1, q2);
/// # Ok(())
/// # }
/// ```
pub struct MultiEngine {
    config: EngineConfig,
    specs: Vec<QuerySpec>,
    plan: SharedPlan,
    /// Physical stacks, parallel to `plan.stacks`, each indexed by its
    /// signature's partition field.
    stacks: Vec<KeyedStack>,
    /// What each of `stacks` owes every (query, slot) reading it.
    owed: Vec<StackOwed>,
    /// Parallel to `plan.groups`.
    groups: Vec<GroupState>,
    states: Vec<QueryState>,
    epochs: Vec<EpochState>,
    /// Epochs accepting same-position registrations, one per watermark
    /// class (cleared once an item has been ingested since the last
    /// registration). Nothing has been inserted into, or owed by, their
    /// stacks and groups yet.
    open_epochs: Vec<(WmClass, usize)>,
    /// Unspent [`EngineConfig::retraction_drop`] sabotage, across all
    /// queries; not snapshotted.
    retraction_drop: u64,
    counters: PlanMetrics,
    scratch_stamped: Vec<EventRef>,
    scratch_raw: Vec<Vec<EventRef>>,
    /// A group walk's bind-check and fork tallies (see `group_construct`).
    scratch_tallies: [Tally; 2],
    scratch_forked: Vec<(usize, Vec<EventRef>)>,
    /// The queries this arrival gave output, in the order it first did
    /// (see [`writing`]); drained, sorted, when the outputs are collected.
    dirty: Vec<usize>,
}

impl std::fmt::Debug for MultiEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiEngine")
            .field("queries", &self.specs.len())
            .field("pooled_stacks", &self.plan.stacks.len())
            .field("groups", &self.plan.groups.len())
            .finish()
    }
}

impl MultiEngine {
    /// The only query of a plan of one: how [`crate::NativeEngine`]
    /// addresses it.
    pub(crate) const ONLY: QueryId = QueryId::new(0);

    /// An empty evaluator: every query registered later runs under
    /// `config`, with its own disorder policy.
    pub fn new(config: EngineConfig) -> MultiEngine {
        MultiEngine {
            config,
            specs: Vec::new(),
            plan: SharedPlan::new(config.partitioned),
            stacks: Vec::new(),
            owed: Vec::new(),
            groups: Vec::new(),
            states: Vec::new(),
            epochs: Vec::new(),
            open_epochs: Vec::new(),
            retraction_drop: config.retraction_drop,
            counters: PlanMetrics::default(),
            scratch_stamped: Vec::new(),
            scratch_raw: Vec::new(),
            scratch_tallies: Default::default(),
            scratch_forked: Vec::new(),
            dirty: Vec::new(),
        }
    }

    /// The shared configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Number of registered queries (including unregistered slots, which
    /// keep their dense ids).
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when no queries are registered.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The query registered under `id`.
    pub fn query(&self, id: QueryId) -> &Arc<Query> {
        &self.states[id.index()].query
    }

    /// Registers a query under `policy`, which overrides the shared
    /// configuration's, at a cost independent of how many are registered:
    /// its nodes are attached to the plan ([`SharedPlan::attach`]), which
    /// moves no existing stack. Queries registered at the same stream
    /// position with a compatible watermark class share an epoch; a query
    /// registered after any ingestion starts a fresh one (it must not see
    /// earlier arrivals).
    pub fn register(&mut self, query: Arc<Query>, policy: DisorderPolicy) -> QueryId {
        let class = WmClass::of(policy);
        let epoch = match self.open_epochs.iter().find(|(c, _)| *c == class) {
            Some(&(_, e)) => e,
            None => {
                self.epochs.push(EpochState::new(&self.config, class));
                let e = self.epochs.len() - 1;
                self.open_epochs.push((class, e));
                e
            }
        };
        let spec = QuerySpec {
            query: Arc::clone(&query),
            epoch,
            active: true,
        };
        let (qix, pooled) = (self.specs.len(), self.plan.stacks.len());
        self.plan.attach(&spec);
        let fresh = self.plan.stacks[pooled..].iter();
        self.stacks
            .extend(fresh.map(|node| KeyedStack::new(node.sig.partition)));
        self.owed
            .resize(self.plan.stacks.len(), StackOwed::default());
        self.groups
            .resize_with(self.plan.groups.len(), GroupState::default);
        // the epoch is open, so its stacks are empty and the member joins
        // its group dead
        if let Some(gix) = self.plan.queries[qix].group {
            self.groups[gix]
                .live
                .fit(self.plan.groups[gix].members.len());
        }
        self.epochs[epoch].enter(qix, &query);
        self.specs.push(spec);
        self.states
            .push(QueryState::new(query, epoch, policy, &self.config));
        QueryId::new(qix)
    }

    /// The policy a query was registered under.
    pub fn query_policy(&self, id: QueryId) -> DisorderPolicy {
        self.states[id.index()].settle.policy()
    }

    /// One query's current disorder-bound estimate (`K`, or the adaptive
    /// `K̂` of its epoch's slack control loop).
    pub fn query_slack(&self, id: QueryId) -> Duration {
        self.epochs[self.states[id.index()].epoch].wm.k_hat()
    }

    /// Unregisters a query. The dense id stays allocated (output tags and
    /// snapshot layout remain aligned) but the query owns no plan nodes
    /// and produces no further output.
    pub fn unregister(&mut self, id: QueryId) {
        let qix = id.index();
        self.specs[qix].active = false;
        let st = &mut self.states[qix];
        st.active = false;
        st.settle.clear();
        st.due = None;
        st.phased = PhasedOutput::default();
        self.recompile();
    }

    /// Recompiles the plan from `specs` — what an unregistration or a
    /// restore needs, since a query's nodes leave or every epoch changes —
    /// and reconciles physical stacks by slot-signature equality (contents
    /// survive; new signatures start empty; orphaned signatures are
    /// dropped).
    fn recompile(&mut self) {
        // what the old plan's nodes owe is paid into each query's own
        // counters first: the nodes, and who reads them, change
        for qix in 0..self.plan.queries.len() {
            self.states[qix].stats = self.fold(qix);
        }
        let plan = compile(&self.specs, self.config.partitioned);
        let old_plan = std::mem::take(&mut self.plan);
        let mut old_stacks: Vec<Option<KeyedStack>> = std::mem::take(&mut self.stacks)
            .into_iter()
            .map(Some)
            .collect();
        let old_ix: HashMap<SlotSig, usize> = old_plan
            .stacks
            .iter()
            .enumerate()
            .map(|(i, n)| (n.sig.clone(), i))
            .collect();
        let mut stacks = Vec::with_capacity(plan.stacks.len());
        for node in &plan.stacks {
            match old_ix.get(&node.sig) {
                Some(&i) => stacks.push(old_stacks[i].take().expect("signatures are unique")),
                None => stacks.push(KeyedStack::new(node.sig.partition)),
            }
        }
        self.plan = plan;
        self.stacks = stacks;
        for ep in &mut self.epochs {
            ep.queries.clear();
            ep.negating.clear();
        }
        for (qix, spec) in self.specs.iter().enumerate() {
            if spec.active {
                self.epochs[spec.epoch].enter(qix, &spec.query);
            }
        }
        self.sync_nodes();
    }

    /// Derives from the stacks as they stand what the evaluator keeps
    /// beside the plan's nodes — each epoch's non-empty stacks, each
    /// group's live members — with nothing owed by any node.
    fn sync_nodes(&mut self) {
        self.owed = vec![StackOwed::default(); self.plan.stacks.len()];
        let fresh = |g: &PrefixGroup| {
            let mut state = GroupState::default();
            state.live.fit(g.members.len());
            state
        };
        self.groups = self.plan.groups.iter().map(fresh).collect();
        for st in &mut self.states {
            st.repeat_offers = 0;
        }
        for ep in &mut self.epochs {
            ep.nonempty.clear();
            (ep.purge_runs, ep.late_drops) = (0, 0);
        }
        for (six, node) in self.plan.stacks.iter().enumerate() {
            if !self.stacks[six].is_empty() {
                self.epochs[node.sig.epoch].nonempty.push(six);
                for &(gix, mx) in &node.finals {
                    self.groups[gix].live.insert(mx);
                }
            }
        }
    }

    /// Query `qix`'s operator counters: what it counts itself, plus what
    /// the plan nodes it reads owe it — each slot's pooled stack, its
    /// group's shared walk, its epoch — less its repeat offers. The one
    /// function owed counters are read through.
    fn fold(&self, qix: usize) -> RuntimeStats {
        let (st, node) = (&self.states[qix], &self.plan.queries[qix]);
        let mut stats = st.stats;
        if !node.active {
            return stats;
        }
        for &six in &node.stack_of_slot {
            let owed = &self.owed[six];
            stats.events_routed += owed.offered;
            stats.predicate_evals += owed.predicate_evals;
            stats.insertions += owed.insertions;
            stats.ooo_insertions += owed.ooo_insertions;
            stats.max_stack_depth = stats.max_stack_depth.max(owed.max_stack_depth);
            stats.purged += owed.purged;
        }
        stats.events_routed -= st.repeat_offers;
        if let Some(gix) = node.group {
            stats.dfs_steps += self.groups[gix].dfs_steps;
        }
        let ep = &self.epochs[st.epoch];
        stats.purge_runs += ep.purge_runs;
        stats.late_drops += ep.late_drops;
        stats
    }

    /// Ingests one arrival into every query; outputs are tagged with the
    /// query that produced them, in registration order.
    pub fn ingest(&mut self, item: &StreamItem) -> Vec<(QueryId, OutputItem)> {
        match item {
            StreamItem::Event(event) => self.on_event(event),
            StreamItem::Punctuation(t) => self.on_punctuation(*t),
        }
        self.collect_outputs()
    }

    /// Ingests a run of arrivals, returning one output vector per input
    /// item with the same tagging and order as item-by-item
    /// [`MultiEngine::ingest`] calls.
    pub fn ingest_batch(&mut self, items: &[StreamItem]) -> Vec<Vec<(QueryId, OutputItem)>> {
        items.iter().map(|it| self.ingest(it)).collect()
    }

    /// End-of-stream: seals every epoch's watermark and flushes pending
    /// matches.
    pub fn finish(&mut self) -> Vec<(QueryId, OutputItem)> {
        for ep in &mut self.epochs {
            ep.wm.seal();
        }
        self.drain_seals();
        self.collect_outputs()
    }

    /// Per-query operator statistics, in registration order.
    pub fn stats(&self) -> Vec<RuntimeStats> {
        (0..self.states.len()).map(|qix| self.fold(qix)).collect()
    }

    /// One query's operator statistics.
    pub fn query_stats(&self, id: QueryId) -> RuntimeStats {
        self.fold(id.index())
    }

    /// Plan metrics (see [`PlanMetrics`]).
    pub fn plan_metrics(&self) -> PlanMetrics {
        PlanMetrics {
            pooled_stacks: self.plan.stacks.len() as u64,
            stack_refs: self.plan.stacks.iter().map(|n| n.refs.len() as u64).sum(),
            prefix_groups: self.plan.groups.len() as u64,
            grouped_queries: self.plan.grouped_queries() as u64,
            epochs: self.epochs.len() as u64,
            ..self.counters
        }
    }

    /// Total physical state held: pooled stack entries (counted once,
    /// however many queries they serve) plus per-query negative/pending/
    /// unsealed state.
    pub fn state_size(&self) -> usize {
        let stacks: usize = self.stacks.iter().map(KeyedStack::len).sum();
        let per_query: usize = self.states.iter().map(|s| s.settle.len()).sum();
        stacks + per_query
    }

    /// One query's logical state size: its slots' stack entries plus its
    /// private state — what it holds as a plan of one, up to the pooled
    /// purge superset.
    pub fn query_state_size(&self, id: QueryId) -> usize {
        let qix = id.index();
        let st = &self.states[qix];
        let stacks: usize = self.plan.queries[qix]
            .stack_of_slot
            .iter()
            .map(|&six| self.stacks[six].len())
            .sum();
        stacks + st.settle.len()
    }

    /// One query's live partition-key index entries, summed over its
    /// slots' pooled stacks: how many per-key stacks it reads right now (0
    /// for an unpartitioned query). Exposed as the `sequin_partition_keys`
    /// gauge.
    pub fn query_partition_keys(&self, id: QueryId) -> usize {
        let pooled = &self.plan.queries[id.index()].stack_of_slot;
        pooled.iter().map(|&six| self.stacks[six].keys()).sum()
    }

    /// The low-watermark the *whole* evaluation has reached: the minimum
    /// over active queries (`None` when there is none).
    /// [`crate::Checkpointer`]'s watermark-advance cadence triggers on it.
    pub fn watermark(&self) -> Option<Timestamp> {
        let live = self.epochs.iter().filter(|ep| !ep.queries.is_empty());
        live.map(|ep| ep.wm.current()).min()
    }

    /// One query's watermark.
    pub fn query_watermark(&self, id: QueryId) -> Timestamp {
        self.epochs[self.states[id.index()].epoch].wm.current()
    }

    /// One query's stream clock (max occurrence timestamp observed since
    /// its registration). `clock − watermark` is the **watermark lag**:
    /// how far behind event time the query's safe horizon sits.
    pub fn query_clock(&self, id: QueryId) -> Timestamp {
        self.epochs[self.states[id.index()].epoch].wm.clock()
    }

    /// Every query's `(stream clock, low-watermark)`, in registration
    /// order: what [`MultiEngine::query_clock`] and
    /// [`MultiEngine::query_watermark`] answer one query at a time.
    pub fn query_positions(&self) -> Vec<(Timestamp, Timestamp)> {
        let of = |st: &QueryState| {
            let wm = &self.epochs[st.epoch].wm;
            (wm.clock(), wm.current())
        };
        self.states.iter().map(of).collect()
    }

    /// How far one query's watermark trails its stream clock.
    pub fn query_watermark_lag(&self, id: QueryId) -> Duration {
        self.epochs[self.states[id.index()].epoch].wm.lag()
    }

    /// Minimum occurrence timestamp across every live stack entry, or
    /// `None` when all stacks are empty. Inspection hook for the
    /// purge-invariant property tests; not part of the stable API.
    #[doc(hidden)]
    pub fn oldest_stack_ts(&self) -> Option<Timestamp> {
        let firsts = self.stacks.iter().filter_map(|s| s.all().first());
        firsts.map(|e| e.ts()).min()
    }

    // ------------------------------------------------------------------
    // ingestion
    // ------------------------------------------------------------------

    /// The one ingest loop, for an event arrival. Every epoch numbers the
    /// arrival itself, counting only items since its registration moment.
    fn on_event(&mut self, event: &EventRef) {
        self.open_epochs.clear();
        // a disorder-bound violation — state the event needed may already
        // be purged — is processed best-effort and recorded
        for ep in &mut self.epochs {
            ep.seq = ep.seq.next();
            if ep.wm.observe_event(event.ts()) {
                ep.late_drops += 1;
            }
        }
        let plan = std::mem::take(&mut self.plan);
        match plan.routing.get(&event.event_type()) {
            Some(entry) => self.route_event(&plan, entry, event),
            None => self.counters.routing_misses += 1,
        }
        self.plan = plan;
        self.settle_and_purge();
    }

    fn on_punctuation(&mut self, t: Timestamp) {
        self.open_epochs.clear();
        for ep in &mut self.epochs {
            ep.wm.observe_punctuation(t);
        }
        self.settle_and_purge();
    }

    /// What every arrival ends with: emit what the watermark it advanced
    /// has sealed, and purge each epoch whose cadence is due.
    fn settle_and_purge(&mut self) {
        self.drain_seals();
        for eix in 0..self.epochs.len() {
            if self.config.purge.due(self.epochs[eix].seq.get()) {
                self.run_purge(eix);
            }
        }
    }

    /// Offers `event`, whose type `entry` says some plan node listens to,
    /// to those nodes: negative indexes first, then each accepting stack —
    /// pre-filter, positional insert, construction anchored at the new
    /// instance.
    fn route_event(&mut self, plan: &SharedPlan, entry: &RouteEntry, event: &EventRef) {
        self.counters.routed_events += 1;
        // one stamped copy per epoch, made only now that the type is routed
        let mut stamped = std::mem::take(&mut self.scratch_stamped);
        let stamp = |ep: &EpochState| Arc::new(event.with_arrival(ep.seq));
        stamped.extend(self.epochs.iter().map(stamp));

        // negatives first: a negative at the same timestamp as a positive
        // arrival must be visible to validation during this call
        for &qix in &entry.neg_queries {
            let st = &mut self.states[qix];
            let (ev, stamp) = (&stamped[st.epoch], self.epochs[st.epoch].stamp());
            st.settle.offer_negative(ev, &mut st.stats);
            let swallow = &mut self.retraction_drop;
            writing(st, qix, &mut self.dirty, |st| {
                st.settle
                    .retract_invalidated(stamp, ev, swallow, &mut st.stats, &mut st.phased)
            });
        }

        for &six in &entry.stacks {
            let node = &plan.stacks[six];
            let ev = &stamped[node.sig.epoch];
            // an arrival that reaches a query's stack counts as routed for
            // that query even if pre-filters reject it. The stack counts
            // for every (query, slot) reading it, and so does predicate
            // pushdown: the slot's local predicates run once
            let owed = &mut self.owed[six];
            owed.offered += 1;
            if !node.local_preds.is_empty() {
                let failed = node.first_failing(ev);
                owed.predicate_evals += failed.map_or(node.local_preds.len(), |ix| ix + 1) as u64;
                if failed.is_some() {
                    continue;
                }
            }
            // a duplicate delivery, or an event a keyed slot cannot key (a
            // float), enters no stack and completes nothing
            let stack = &mut self.stacks[six];
            let was_empty = stack.is_empty();
            let Some((newest, depth)) = stack.insert(Arc::clone(ev)) else {
                continue;
            };
            owed.insertions += 1;
            owed.ooo_insertions += u64::from(!newest);
            owed.max_stack_depth = owed.max_stack_depth.max(depth as u64);
            if was_empty {
                self.epochs[node.sig.epoch].nonempty.push(six);
                for &(gix, mx) in &node.finals {
                    self.groups[gix].live.insert(mx);
                }
            }
            for &(gix, pos) in &node.shared_anchors {
                self.group_construct(plan, gix, pos, ev);
            }
            for r in &node.plain_refs {
                self.plain_construct(plan, r.query, r.slot, ev);
            }
        }
        for (qix, stacks) in &entry.multi_slot {
            self.states[*qix].repeat_offers += (stacks.len() as u64).saturating_sub(1);
        }
        stamped.clear();
        self.scratch_stamped = stamped;
    }

    /// Per-query construction for anchors outside any shared prefix walk:
    /// the query's own [`Constructor`] over the pooled stacks.
    fn plain_construct(
        &mut self,
        plan: &SharedPlan,
        qix: usize,
        anchor_slot: usize,
        anchor: &EventRef,
    ) {
        let st = &mut self.states[qix];
        let mut raw = std::mem::take(&mut self.scratch_raw);
        st.ctor.matches_pooled(
            &self.stacks,
            &plan.queries[qix].stack_of_slot,
            st.settle.negatives(),
            anchor_slot,
            anchor,
            &mut st.stats,
            &mut raw,
        );
        // most anchors complete nothing, and then nothing is left to do
        if !raw.is_empty() {
            let ep = &mut self.epochs[st.epoch];
            let (stamp, trigger) = (ep.stamp(), anchor.id());
            let held = writing(st, qix, &mut self.dirty, |st| {
                let route = |events| {
                    let (stats, out) = (&mut st.stats, &mut st.phased);
                    st.settle
                        .route(stamp, anchor_slot, events, trigger, stats, out)
                };
                raw.drain(..).filter_map(route).min()
            });
            if let Some(deadline) = held {
                ep.hold(qix, st, deadline);
            }
        }
        self.scratch_raw = raw;
    }

    /// One shared enumeration of a group's prefix partials, forked to
    /// every member's final-slot scan. Per member, the emitted matches —
    /// and their order — are exactly what the member's own
    /// [`Constructor`] anchored at `anchor_pos` would produce.
    fn group_construct(
        &mut self,
        plan: &SharedPlan,
        gix: usize,
        anchor_pos: usize,
        anchor: &EventRef,
    ) {
        let g = &plan.groups[gix];
        let stacks: &[KeyedStack] = &self.stacks;
        let key = stacks[g.prefix_stacks[anchor_pos]].key_of(anchor);
        // the tallies and the forked matches live in the engine's scratch,
        // so an anchor allocates nothing the matches do not
        let [mut bind_tally, tally] = std::mem::take(&mut self.scratch_tallies);
        let mut walker = GroupWalker {
            g,
            plan,
            stacks,
            live: &self.groups[gix].live,
            opts: self.config.construct,
            key: key.as_ref(),
            tally,
            partials: 0,
            forked: std::mem::take(&mut self.scratch_forked),
        };
        let mut shared_dfs = 0;
        self.config.construct.walk_levels(
            &g.rep,
            g.prefix_len(),
            anchor_pos,
            anchor,
            |pos| stacks[g.prefix_stacks[pos]].scan(key.as_ref()),
            None,
            |binding, pos| bind_check(g, binding, pos, &mut bind_tally),
            |binding| walker.fork(binding),
            &mut shared_dfs,
        );
        let GroupWalker {
            mut tally,
            partials,
            mut forked,
            ..
        } = walker;
        self.counters.shared_partials += partials;
        self.counters.fanout_outputs += forked.len() as u64;
        self.groups[gix].dfs_steps += shared_dfs;
        bind_tally.drain_into(&g.members, &mut self.states);
        tally.drain_into(&g.members, &mut self.states);
        for (mx, events) in forked.drain(..) {
            let qix = g.members[mx].query;
            let st = &mut self.states[qix];
            let ep = &mut self.epochs[st.epoch];
            let (stamp, trigger) = (ep.stamp(), anchor.id());
            let held = writing(st, qix, &mut self.dirty, |st| {
                let (stats, out) = (&mut st.stats, &mut st.phased);
                st.settle
                    .route(stamp, anchor_pos, events, trigger, stats, out)
            });
            if let Some(deadline) = held {
                ep.hold(qix, st, deadline);
            }
        }
        self.scratch_forked = forked;
        self.scratch_tallies = [bind_tally, tally];
    }

    /// Emits the pending matches whose regions sealed and forgets sealed
    /// speculative records, for the queries whose earliest held deadline
    /// their epoch's watermark has reached — read off the seal-deadline
    /// index, so a query holding nothing, or nothing due, is not visited.
    fn drain_seals(&mut self) {
        for ep in &mut self.epochs {
            let watermark = ep.wm.current();
            while let Some(&Reverse((deadline, qix))) = ep.due.peek() {
                if deadline > watermark {
                    break;
                }
                ep.due.pop();
                let st = &mut self.states[qix];
                if st.due != Some(deadline) {
                    continue; // superseded, or the query was unregistered
                }
                // what is left is due after this watermark: pushed back, it
                // is not popped again by this loop
                let stamp = ep.stamp();
                st.due = writing(st, qix, &mut self.dirty, |st| {
                    st.settle.drain_sealed(stamp, &mut st.stats, &mut st.phased)
                });
                ep.due.extend(st.due.map(|next| Reverse((next, qix))));
            }
        }
    }

    /// Purges one epoch's non-empty pooled stacks and its negating
    /// queries' negative indexes. A pooled stack's threshold is the
    /// minimum over its referencing (query, slot) anchors — its
    /// [`sequin_plan::StackNode::prefix_window`] says which — so it
    /// retains a superset of each query's own state: output-inert for
    /// in-bound streams, since every query's scan ranges stay above its
    /// own threshold. A stack the purge empties leaves the epoch's list
    /// and its final-slot members' groups' live sets.
    fn run_purge(&mut self, eix: usize) {
        let ep = &mut self.epochs[eix];
        ep.purge_runs += 1;
        let wm = ep.wm.current();
        let skew = Duration::new(self.config.purge_horizon_skew);
        let (plan, stacks, owed, groups) = (
            &self.plan,
            &mut self.stacks,
            &mut self.owed,
            &mut self.groups,
        );
        ep.nonempty.retain(|&six| {
            let node = &plan.stacks[six];
            let threshold = match node.prefix_window {
                Some(window) => purge::prefix_threshold(wm, window),
                None => purge::final_threshold(wm),
            };
            let stack = &mut stacks[six];
            owed[six].purged += stack.purge_before(threshold.saturating_add(skew)) as u64;
            if stack.is_empty() {
                for &(gix, mx) in &node.finals {
                    groups[gix].live.remove(mx);
                }
            }
            !stack.is_empty()
        });
        for &qix in &ep.negating {
            let st = &mut self.states[qix];
            st.settle.purge_negatives(wm, skew, &mut st.stats);
        }
    }

    /// Drains this arrival's per-query phase buffers — the queries on the
    /// [`MultiEngine::dirty`] list, sorted — into the canonical
    /// output order, tagged in registration order (the `MultiEngine`
    /// contract).
    fn collect_outputs(&mut self) -> Vec<(QueryId, OutputItem)> {
        let mut out = Vec::new();
        self.dirty.sort_unstable();
        for qix in self.dirty.drain(..) {
            let phased = std::mem::take(&mut self.states[qix].phased);
            phased.merge_into(|o| out.push((QueryId::new(qix), o)));
        }
        out
    }

    // ------------------------------------------------------------------
    // snapshots
    // ------------------------------------------------------------------

    /// Serializes the evaluation as one checksummed envelope of per-query
    /// blobs: plan-shape-agnostic by construction (each blob describes one
    /// logical query, not the pooled layout), so it restores into plans of
    /// one — or into an evaluator compiled from a different registration
    /// history.
    pub fn snapshot(&self) -> Vec<u8> {
        write_envelope((0..self.specs.len()).map(|qix| self.query_blob(qix)))
    }

    /// One query's [`QueryBlob`]: its slots' pooled stacks, written as
    /// the stacks it would hold as a plan of one (identical content,
    /// modulo the pooled purge superset).
    pub(crate) fn query_blob(&self, qix: usize) -> Vec<u8> {
        let st = &self.states[qix];
        let ep = &self.epochs[st.epoch];
        // an unregistered query owns no plan nodes and holds nothing
        let pooled = &self.plan.queries[qix].stack_of_slot;
        let stacks: Vec<&KeyedStack> = pooled.iter().map(|&six| &self.stacks[six]).collect();
        QueryBlob::encode(
            &st.query,
            &self.config,
            &ep.wm,
            ep.seq,
            &self.fold(qix),
            &stacks,
            &st.settle,
        )
    }

    /// Restores from a [`MultiEngine::snapshot`] taken with the same
    /// queries registered in the same order under this configuration,
    /// whatever plan they were pooled in. All-or-nothing: on error the
    /// current state is untouched. Epochs are re-derived by grouping
    /// queries with identical restored (watermark, sequence) stream
    /// positions.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        self.restore_blobs(&read_envelope(bytes, self.specs.len())?)
    }

    /// [`MultiEngine::restore`] from the envelope's per-query blobs,
    /// one per registered query in registration order.
    pub(crate) fn restore_blobs(&mut self, blobs: &[&[u8]]) -> Result<(), CodecError> {
        let mut restored: Vec<QueryBlob> = Vec::with_capacity(self.specs.len());
        for (st, blob) in self.states.iter().zip(blobs) {
            // the tracker's slack parameters derive from the query's
            // *current* policy, not the snapshot (policy changes across a
            // checkpoint take effect on restore)
            let mut qconfig = self.config;
            qconfig.policy = st.settle.policy();
            restored.push(QueryBlob::decode(&st.query, &qconfig, &st.settle, blob)?);
        }
        // regroup epochs: queries at identical stream positions with a
        // compatible watermark class share one
        let mut keys: Vec<(Vec<u8>, u64, WmClass)> = Vec::new();
        let mut epochs: Vec<EpochState> = Vec::new();
        let mut epoch_of: Vec<usize> = Vec::with_capacity(restored.len());
        for (rq, st) in restored.iter().zip(&self.states) {
            let mut w = Writer::new();
            rq.wm.snapshot_into(&mut w);
            let key = (
                w.into_bytes(),
                rq.seq.get(),
                WmClass::of(st.settle.policy()),
            );
            let eix = keys.iter().position(|k| *k == key).unwrap_or(keys.len());
            if eix == keys.len() {
                keys.push(key);
                epochs.push(EpochState::at(rq.wm.clone(), rq.seq));
            }
            epoch_of.push(eix);
        }
        // everything decoded cleanly: commit. No stack survives a restore,
        // so the recompile starts every pooled stack empty, and each then
        // takes the union of what its queries stored
        for (spec, &eix) in self.specs.iter_mut().zip(&epoch_of) {
            spec.epoch = eix;
        }
        self.epochs = epochs;
        self.open_epochs.clear();
        self.plan = SharedPlan::default();
        self.recompile();
        for (qix, rq) in restored.into_iter().enumerate() {
            let pooled = &self.plan.queries[qix].stack_of_slot;
            for (events, &six) in rq.stacks.into_iter().zip(pooled) {
                self.stacks[six].insert_all(events);
            }
            let st = &mut self.states[qix];
            st.epoch = epoch_of[qix];
            st.settle = rq.settle;
            st.stats = rq.stats;
            st.phased = PhasedOutput::default();
            // the seal-deadline index is rebuilt from what each query holds
            st.due = st.settle.earliest_held().filter(|_| st.active);
            let due = &mut self.epochs[st.epoch].due;
            due.extend(st.due.map(|deadline| Reverse((deadline, qix))));
        }
        self.sync_nodes();
        Ok(())
    }
}

// ----------------------------------------------------------------------
// walkers
// ----------------------------------------------------------------------

/// The bind check of a group's shared prefix walk — the constructor's
/// level walk over the prefix positions, whose bounds and order are
/// identical for every member: evaluates the common predicates
/// referencing the just-bound position once, on the representative's
/// binding, then replays the declaration-order short-circuit of each
/// member with predicates there, from the compiled
/// [`sequin_plan::BindPlan`], against the observed first failure, into
/// `tally`.
fn bind_check(
    g: &PrefixGroup,
    binding: &[Option<&EventRef>],
    pos: usize,
    tally: &mut Tally,
) -> bool {
    let bp = &g.binds[pos];
    let touching = bp.common_touching.iter();
    let failed = touching
        .copied()
        .find(|&ci| g.common[ci].eval(binding) == Some(false));
    for (mx, entries) in &bp.per_member {
        let stop = |e: &BindEntry| matches!(e, BindEntry::Common(ci) if failed == Some(*ci));
        let evals = entries
            .iter()
            .position(stop)
            .map_or(entries.len(), |ix| ix + 1);
        tally.of(*mx)[0] += evals as u64;
    }
    failed.is_none()
}

/// Where a group's complete prefix partials go: each is forked to every
/// live member's final-slot scan.
struct GroupWalker<'a> {
    g: &'a PrefixGroup,
    plan: &'a SharedPlan,
    stacks: &'a [KeyedStack],
    live: &'a MemberSet,
    opts: ConstructOpts,
    key: Option<&'a PartitionKey>,
    tally: Tally,
    partials: u64,
    /// `(member index, positive-order events)` in enumeration order.
    forked: Vec<(usize, Vec<EventRef>)>,
}

impl GroupWalker<'_> {
    /// A complete prefix partial, bound by the representative's
    /// components: scan each live member's final-slot stack (the
    /// innermost level of the member's own walk), in member order.
    fn fork(&mut self, partial: &[Option<&EventRef>]) {
        self.partials += 1;
        if self.live.is_empty() {
            return;
        }
        let (g, live) = (self.g, self.live);
        let prefix_len = g.prefix_len();
        let chosen = |p: usize| partial[g.rep_comp_of_pos[p]].expect("prefix complete");
        let (first_ts, prev_ts) = (chosen(0).ts(), chosen(prefix_len - 1).ts());
        for mx in live.iter() {
            // a live member's stack may still hold nothing under this key:
            // decide that before the member's query is touched
            let member = &g.members[mx];
            let stack = self.stacks[member.final_stack].scan(self.key);
            let (lo, hi) = suffix_bounds(g.window, first_ts, prev_ts);
            let candidates = self.opts.candidates(stack, lo, hi);
            if candidates.is_empty() {
                continue;
            }
            let mq = &self.plan.queries[member.query].query;
            let final_comp = mq.positive_comp(prefix_len);
            let [evals, dfs, constructed] = self.tally.of(mx);
            with_binding(mq.components().len(), |binding| {
                for p in 0..prefix_len {
                    binding[mq.positive_comp(p)] = Some(chosen(p));
                }
                for part in candidates.slices() {
                    for ev in part {
                        *dfs += 1;
                        if !self.opts.window_cutoff && (ev.ts() < lo || ev.ts() >= hi) {
                            continue;
                        }
                        binding[final_comp] = Some(ev);
                        let mut pass = true;
                        for pred in mq.predicates() {
                            if pred.mask().contains(final_comp) {
                                *evals += 1;
                                if pred.eval(binding) == Some(false) {
                                    pass = false;
                                    break;
                                }
                            }
                        }
                        if pass {
                            *constructed += 1;
                            let mut events: Vec<EventRef> =
                                (0..prefix_len).map(|p| Arc::clone(chosen(p))).collect();
                            events.push(Arc::clone(ev));
                            self.forked.push((mx, events));
                        }
                    }
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NativeEngine;
    use sequin_prng::Rng;
    use sequin_query::parse;
    use sequin_types::{Event, EventId, TypeRegistry, Value, ValueKind};

    fn registry() -> TypeRegistry {
        let mut reg = TypeRegistry::new();
        for name in ["A", "B", "C", "D", "E", "N"] {
            reg.declare(name, &[("x", ValueKind::Int), ("tag", ValueKind::Int)])
                .unwrap();
        }
        reg
    }

    fn item(reg: &TypeRegistry, ty: &str, id: u64, ts: u64, x: i64, tag: i64) -> StreamItem {
        StreamItem::Event(Arc::new(
            Event::builder(reg.lookup(ty).unwrap(), Timestamp::new(ts))
                .id(EventId::new(id))
                .attr(Value::Int(x))
                .attr(Value::Int(tag))
                .build(),
        ))
    }

    /// The independent reference: every query on a plan of one of its own
    /// — a [`NativeEngine`] — with outputs tagged by its position, and
    /// snapshots the envelope of the engines' blobs.
    #[derive(Default)]
    struct Alone(Vec<NativeEngine>);

    impl Alone {
        fn register(&mut self, query: Arc<Query>, config: EngineConfig) {
            self.0.push(NativeEngine::new(query, config));
        }

        fn tagged(
            &mut self,
            mut of: impl FnMut(&mut NativeEngine) -> Vec<OutputItem>,
        ) -> Vec<(QueryId, OutputItem)> {
            let mut out = Vec::new();
            for (qix, engine) in self.0.iter_mut().enumerate() {
                out.extend(of(engine).into_iter().map(|o| (QueryId(qix), o)));
            }
            out
        }

        fn ingest(&mut self, item: &StreamItem) -> Vec<(QueryId, OutputItem)> {
            self.tagged(|e| e.ingest(item))
        }

        fn finish(&mut self) -> Vec<(QueryId, OutputItem)> {
            self.tagged(NativeEngine::finish)
        }

        fn stats(&self) -> Vec<RuntimeStats> {
            self.0.iter().map(NativeEngine::stats).collect()
        }

        fn snapshot(&self) -> Vec<u8> {
            write_envelope(self.0.iter().map(NativeEngine::snapshot))
        }

        fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
            let blobs = read_envelope(bytes, self.0.len())?;
            let mut both = self.0.iter_mut().zip(blobs);
            both.try_for_each(|(engine, blob)| engine.restore(blob))
        }
    }

    /// Every query alone, each under its own configuration.
    fn independent(queries: &[Arc<Query>], config: impl Fn(usize) -> EngineConfig) -> Alone {
        let mut alone = Alone::default();
        for (ix, q) in queries.iter().enumerate() {
            alone.register(Arc::clone(q), config(ix));
        }
        alone
    }

    /// Every query on one plan, under `config`'s policy.
    fn plan_of(queries: &[Arc<Query>], config: EngineConfig) -> MultiEngine {
        let mut plan = MultiEngine::new(config);
        for q in queries {
            plan.register(Arc::clone(q), config.policy);
        }
        plan
    }

    /// A mixed query set exercising prefix sharing, stack pooling, local
    /// predicates, negation, and partitioning — with `N` one query's
    /// negation and another's (keyed) positive slot — and an arrival
    /// offered to two slots of one query: on one pooled stack, and on two.
    fn query_set(reg: &TypeRegistry) -> Vec<Arc<Query>> {
        [
            "PATTERN SEQ(A a, B b, C c) WITHIN 60",
            "PATTERN SEQ(A a, B b, D d) WITHIN 60",
            "PATTERN SEQ(A a, B b) WITHIN 40",
            "PATTERN SEQ(A a, !N n, B b) WITHIN 50",
            "PATTERN SEQ(A a, B b, C c) WHERE a.tag == b.tag AND b.tag == c.tag WITHIN 60",
            "PATTERN SEQ(A a, B b, D d) WHERE a.tag == b.tag AND b.tag == d.tag WITHIN 60",
            "PATTERN SEQ(A a, B b) WHERE a.x > 400 WITHIN 60",
            "PATTERN SEQ(A p, B q, C r) WITHIN 60",
            "PATTERN SEQ(D d, E e) WHERE d.x < e.x WITHIN 80",
            "PATTERN SEQ(N m, C c) WHERE m.tag == c.tag WITHIN 60",
            "PATTERN SEQ(A a, A b, D d) WITHIN 60",
            "PATTERN SEQ(B|C b, C c) WHERE c.x < 500 WITHIN 40",
        ]
        .iter()
        .map(|t| parse(t, reg).unwrap())
        .collect()
    }

    fn gen_stream(reg: &TypeRegistry, seed: u64, n: usize, max_delay: u64) -> Vec<StreamItem> {
        let mut rng = Rng::seed_from_u64(seed);
        let mut items = Vec::new();
        for i in 0..n {
            let ty = ["A", "B", "C", "D", "E", "N"][rng.gen_range(0..6usize)];
            let base = (i as u64) * 3;
            let ts = base.saturating_sub(rng.gen_range(0..max_delay));
            let x = rng.gen_range(0..1000i64);
            let tag = rng.gen_range(0..4i64);
            items.push(item(reg, ty, i as u64 + 1, ts, x, tag));
            if rng.gen_bool(0.05) {
                items.push(StreamItem::Punctuation(Timestamp::new(
                    base.saturating_sub(max_delay),
                )));
            }
        }
        items
    }

    fn outputs_eq(got: &[(QueryId, OutputItem)], want: &[(QueryId, OutputItem)], context: &str) {
        assert_eq!(got.len(), want.len(), "output count differs at {context}");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.0, w.0, "query tag differs at {context}");
            assert_eq!(g.1, w.1, "output item differs at {context}");
        }
    }

    /// The plan's per-query counters, after checking outputs and counters
    /// against each query alone.
    fn run_differential(config: EngineConfig, seed: u64) -> Vec<RuntimeStats> {
        let reg = registry();
        let queries = query_set(&reg);
        let mut shared = plan_of(&queries, config);
        let mut multi = independent(&queries, |_| config);
        // K = 100 (default) covers max_delay = 90: in-bound stream
        let items = gen_stream(&reg, seed, 400, 90);
        for (ix, it) in items.iter().enumerate() {
            let got = shared.ingest(it);
            let want = multi.ingest(it);
            outputs_eq(&got, &want, &format!("item {ix}"));
        }
        outputs_eq(&shared.finish(), &multi.finish(), "finish");
        // emission-relevant stats must agree exactly
        for (qx, (s, m)) in shared.stats().iter().zip(multi.stats()).enumerate() {
            assert_eq!(s.events_routed, m.events_routed, "events_routed q{qx}");
            assert_eq!(s.insertions, m.insertions, "insertions q{qx}");
            assert_eq!(s.ooo_insertions, m.ooo_insertions, "ooo_insertions q{qx}");
            assert_eq!(
                s.matches_constructed, m.matches_constructed,
                "constructed q{qx}"
            );
            assert_eq!(s.negated_matches, m.negated_matches, "negated q{qx}");
            assert_eq!(s.late_drops, m.late_drops, "late_drops q{qx}");
            assert_eq!(s.predicate_evals, m.predicate_evals, "evals q{qx}");
            assert_eq!(s.purge_runs, m.purge_runs, "purge_runs q{qx}");
            // without the window cutoff a walk visits every instance a
            // stack retains, and the pooled threshold (min over refs)
            // retains more: the caller pins `dfs_steps` then
            if config.construct.window_cutoff {
                assert_eq!(s.dfs_steps, m.dfs_steps, "dfs_steps q{qx}");
            }
            // max_stack_depth may exceed a plan of one's after a purge,
            // for the same reason
            assert!(s.max_stack_depth >= m.max_stack_depth, "max_stack_depth");
        }
        shared.stats()
    }

    #[test]
    fn matches_independent_evaluation_conservative() {
        for seed in 1..=3 {
            run_differential(EngineConfig::default(), seed);
        }
    }

    #[test]
    fn matches_independent_evaluation_speculative() {
        let cfg = EngineConfig {
            policy: DisorderPolicy::Speculative,
            ..EngineConfig::default()
        };
        for seed in 4..=6 {
            run_differential(cfg, seed);
        }
    }

    #[test]
    fn matches_independent_evaluation_lazy() {
        let cfg = EngineConfig {
            policy: DisorderPolicy::Lazy,
            ..EngineConfig::default()
        };
        run_differential(cfg, 4);
    }

    #[test]
    fn matches_independent_evaluation_adaptive() {
        let cfg = EngineConfig {
            policy: DisorderPolicy::AdaptiveSlack { accuracy: 90 },
            ..EngineConfig::default()
        };
        run_differential(cfg, 5);
    }

    /// Per-query policies in one shared plan: every query's output stays
    /// byte-identical to its own independent engine running the same
    /// policy, and fixed-bound queries still pool while adaptive ones get
    /// their own watermark epoch.
    #[test]
    fn mixed_policies_match_independent_evaluation() {
        let reg = registry();
        let queries = query_set(&reg);
        let base = EngineConfig::default();
        let policies = [
            DisorderPolicy::Conservative,
            DisorderPolicy::Speculative,
            DisorderPolicy::Lazy,
            DisorderPolicy::AdaptiveSlack { accuracy: 90 },
        ];
        let policy = |ix: usize| policies[ix % policies.len()];
        let items = gen_stream(&reg, 12, 400, 90);
        let mut shared = MultiEngine::new(base);
        for (ix, q) in queries.iter().enumerate() {
            shared.register(Arc::clone(q), policy(ix));
        }
        let alone = |ix| EngineConfig {
            policy: policy(ix),
            ..base
        };
        let mut multi = independent(&queries, alone);
        assert_eq!(
            shared.plan_metrics().epochs,
            2,
            "one fixed-bound epoch, one adaptive epoch"
        );
        for (ix, it) in items.iter().enumerate() {
            outputs_eq(&shared.ingest(it), &multi.ingest(it), &format!("item {ix}"));
        }
        outputs_eq(&shared.finish(), &multi.finish(), "finish");
    }

    #[test]
    fn matches_independent_evaluation_unpartitioned() {
        let cfg = EngineConfig {
            partitioned: false,
            ..EngineConfig::default()
        };
        run_differential(cfg, 7);
    }

    #[test]
    fn matches_independent_evaluation_without_cutoff() {
        let mut cfg = EngineConfig::default();
        cfg.construct.window_cutoff = false;
        let dfs: Vec<u64> = run_differential(cfg, 8)
            .iter()
            .map(|s| s.dfs_steps)
            .collect();
        // the plan's own values, taken on the evaluator that counted per
        // query (PR 22); those of queries 1, 2, 3, 6 and 10 exceed a plan
        // of one's, which walks only what its own threshold retained
        let pinned = [
            6617, 6006, 1643, 1643, 818, 696, 957, 6617, 1154, 409, 6013, 1605,
        ];
        assert_eq!(dfs, pinned);
    }

    #[test]
    fn plan_actually_shares_state() {
        let reg = registry();
        let queries = query_set(&reg);
        let mut shared = plan_of(&queries, EngineConfig::default());
        let pm = shared.plan_metrics();
        assert!(pm.prefix_groups >= 1, "common prefixes form groups");
        assert!(pm.grouped_queries >= 4, "AB-prefixed queries share");
        assert!(
            pm.stack_refs > pm.pooled_stacks,
            "pooling serves multiple anchors per stack"
        );
        for it in gen_stream(&reg, 9, 200, 50) {
            shared.ingest(&it);
        }
        let pm = shared.plan_metrics();
        assert!(pm.routed_events > 0);
        assert!(pm.shared_partials > 0, "shared prefix walks happened");
        assert!(pm.fanout_outputs > 0, "partials forked to members");
    }

    /// Each query's blob in a plan's envelope restores into a plan of one
    /// of its own, and the plans of one's blobs back into a plan.
    #[test]
    fn snapshots_interchange_with_plans_of_one() {
        let reg = registry();
        let queries = query_set(&reg);
        let config = EngineConfig::default();
        let mut shared = plan_of(&queries, config);
        let mut multi = independent(&queries, |_| config);
        let items = gen_stream(&reg, 10, 300, 90);
        let (head, tail) = items.split_at(200);
        for it in head {
            outputs_eq(&shared.ingest(it), &multi.ingest(it), "head");
        }

        // shared -> independent
        let snap = shared.snapshot();
        let mut multi2 = independent(&queries, |_| config);
        multi2.restore(&snap).unwrap();
        // independent -> shared
        let mut shared2 = plan_of(&queries, config);
        shared2.restore(&multi.snapshot()).unwrap();

        for (ix, it) in tail.iter().enumerate() {
            let want = multi.ingest(it);
            outputs_eq(&shared.ingest(it), &want, &format!("tail {ix} (shared)"));
            outputs_eq(
                &multi2.ingest(it),
                &want,
                &format!("tail {ix} (restored multi)"),
            );
            outputs_eq(
                &shared2.ingest(it),
                &want,
                &format!("tail {ix} (restored shared)"),
            );
        }
        let want = multi.finish();
        outputs_eq(&shared.finish(), &want, "finish (shared)");
        outputs_eq(&multi2.finish(), &want, "finish (restored multi)");
        outputs_eq(&shared2.finish(), &want, "finish (restored shared)");
    }

    #[test]
    fn mid_stream_registration_is_exact() {
        let reg = registry();
        let config = EngineConfig::default();
        // an unpartitionable query, a partitionable one and a negation...
        let early = [
            "PATTERN SEQ(A a, B b, C c) WITHIN 60",
            "PATTERN SEQ(A a, B b, C c) WHERE a.tag == b.tag AND b.tag == c.tag WITHIN 60",
            "PATTERN SEQ(A a, !N n, B b) WITHIN 50",
        ];
        // ...then a prefix sibling, and the negated type as a keyed slot
        let late = [
            "PATTERN SEQ(A a, B b, D d) WITHIN 60",
            "PATTERN SEQ(N m, D d) WHERE m.tag == d.tag WITHIN 60",
        ];
        let items = gen_stream(&reg, 11, 300, 60);
        let (head, tail) = items.split_at(150);
        // a fresh independent engine per query sees only the arrivals after
        // its subscription; the host must agree byte-for-byte
        let mut host = MultiEngine::new(config);
        let mut alone = Alone::default();
        for (texts, items) in [(&early[..], head), (&late[..], tail)] {
            for text in texts {
                let q = parse(text, &reg).unwrap();
                host.register(Arc::clone(&q), config.policy);
                alone.register(q, config);
            }
            for (ix, it) in items.iter().enumerate() {
                outputs_eq(&host.ingest(it), &alone.ingest(it), &format!("item {ix}"));
            }
        }
        outputs_eq(&host.finish(), &alone.finish(), "finish");
        assert_eq!(host.plan_metrics().epochs, 2, "mid-stream epoch split");
        assert_eq!(host.stats().len(), 5);
    }

    /// 64 prefix siblings `SEQ(A a, !N n, B b, C|D|E c)`, each with a floor
    /// of its own under `c.x`. Every match is guarded, so under the
    /// [`HOLDING`] policies each leaves a record behind: a lazy or an
    /// adaptive one waits in the pending heap until its region seals, a
    /// speculative one is emitted and held as retractable.
    fn negated_family(reg: &TypeRegistry) -> Vec<Arc<Query>> {
        let sibling = |i: usize| {
            let (ty, floor) = (["C", "D", "E"][i % 3], 45 * (i / 3));
            let text =
                format!("PATTERN SEQ(A a, !N n, B b, {ty} c) WHERE c.x >= {floor} WITHIN 60");
            parse(&text, reg).unwrap()
        };
        (0..64).map(sibling).collect()
    }

    const HOLDING: [DisorderPolicy; 3] = [
        DisorderPolicy::Lazy,
        DisorderPolicy::Speculative,
        DisorderPolicy::AdaptiveSlack { accuracy: 90 },
    ];

    /// The seal-deadline index and the dirty list where they can go wrong:
    /// queries that hold records under three policies, a second batch of
    /// registrations mid-stream (new epochs with watermarks of their own),
    /// the unregistration of a query that holds records (its index entries
    /// go stale), and a restore into a fresh engine (the index is rebuilt
    /// from what the queries hold). Item by item, `emit_seq` and
    /// `emit_clock` included, the outputs are those of each query alone on
    /// an engine of its own.
    #[test]
    fn held_records_release_as_on_independent_engines() {
        let reg = registry();
        let base = EngineConfig::default();
        let queries = negated_family(&reg);
        let policy = |ix: usize| HOLDING[(ix / 3) % 3];
        let items = gen_stream(&reg, 21, 700, 90);
        let (restore_at, unregister_at) = (items.len() * 3 / 4, items.len() * 5 / 8);
        let second_batch = (40, items.len() / 2);

        let mut shared = MultiEngine::new(base);
        let mut alone = Alone::default();
        let mut gone: Option<QueryId> = None;
        let mut kinds = [0usize; 3]; // construction-time, sealed, retracted
        for (ix, it) in items.iter().enumerate() {
            let batch = match ix {
                0 => 0..second_batch.0,
                _ if ix == second_batch.1 => second_batch.0..queries.len(),
                _ => 0..0,
            };
            for qx in batch {
                shared.register(Arc::clone(&queries[qx]), policy(qx));
                let config = EngineConfig {
                    policy: policy(qx),
                    ..base
                };
                alone.register(Arc::clone(&queries[qx]), config);
            }
            if ix == unregister_at {
                let holding = |st: &QueryState| st.due.is_some() && st.settle.len() > 0;
                let qx = shared.states.iter().position(holding).expect("a holder");
                gone = Some(QueryId::new(qx));
                shared.unregister(QueryId::new(qx));
            }
            if ix == restore_at {
                // every query registered at one position, then regrouped
                // into the snapshot's epochs by the restore
                let snap = shared.snapshot();
                shared = MultiEngine::new(base);
                for (qx, q) in queries.iter().enumerate() {
                    shared.register(Arc::clone(q), policy(qx));
                }
                shared.unregister(gone.expect("unregistered before the restore"));
                shared.restore(&snap).unwrap();
                assert_eq!(shared.plan_metrics().epochs, 4, "two batches, two classes");
            }
            let mut want = alone.ingest(it);
            want.retain(|(q, _)| Some(*q) != gone);
            let got = shared.ingest(it);
            outputs_eq(&got, &want, &format!("item {ix}"));
            // the reference engines are plans of one with an index of their
            // own, so what an arrival must leave behind is also checked
            // outright: nothing the watermark has sealed is still held
            for st in shared.states.iter().filter(|st| st.active) {
                let wm = shared.epochs[st.epoch].wm.current();
                let left = st.settle.earliest_held();
                assert!(left.is_none_or(|d| d > wm), "item {ix}: {left:?} <= {wm:?}");
            }
            for (_, o) in &got {
                let kind = match (o.kind, o.cause) {
                    (crate::OutputKind::Retract, _) => 2,
                    (crate::OutputKind::Insert, None) => 1,
                    (crate::OutputKind::Insert, Some(_)) => 0,
                };
                kinds[kind] += 1;
            }
        }
        let mut want = alone.finish();
        want.retain(|(q, _)| Some(*q) != gone);
        outputs_eq(&shared.finish(), &want, "finish");
        assert!(kinds.iter().all(|&n| n > 20), "every phase ran: {kinds:?}");
        let idle = |ep: &EpochState| ep.due.is_empty();
        assert!(shared.epochs.iter().all(idle), "the end drains the index");
    }

    #[test]
    fn unregister_keeps_ids_and_silences_query() {
        let reg = registry();
        let q1 = parse("PATTERN SEQ(A a, B b) WITHIN 40", &reg).unwrap();
        let q2 = parse("PATTERN SEQ(A a, C c) WITHIN 40", &reg).unwrap();
        let mut shared = MultiEngine::new(EngineConfig::default());
        let id1 = shared.register(q1, DisorderPolicy::Conservative);
        let id2 = shared.register(q2, DisorderPolicy::Speculative);
        assert_eq!(shared.query_policy(id1), DisorderPolicy::Conservative);
        assert_eq!(shared.query_policy(id2), DisorderPolicy::Speculative);
        shared.ingest(&item(&reg, "A", 1, 10, 0, 0));
        shared.unregister(id1);
        let out = shared.ingest(&item(&reg, "B", 2, 20, 0, 0));
        assert!(out.iter().all(|(q, _)| *q != id1), "unregistered is silent");
        let out = shared.ingest(&item(&reg, "C", 3, 21, 0, 0));
        assert!(out.iter().any(|(q, _)| *q == id2), "survivor still fires");
        assert_eq!(shared.len(), 2, "dense ids stay allocated");
    }

    #[test]
    fn restore_rejects_mismatched_fingerprint() {
        let reg = registry();
        let q1 = parse("PATTERN SEQ(A a, B b) WITHIN 40", &reg).unwrap();
        let q2 = parse("PATTERN SEQ(A a, C c) WITHIN 40", &reg).unwrap();
        let config = EngineConfig::default();
        let snap = plan_of(&[q1], config).snapshot();
        assert!(matches!(
            plan_of(&[q2], config).restore(&snap),
            Err(CodecError::SnapshotMismatch(_))
        ));
    }

    const Q_AB: &str = "PATTERN SEQ(A a, B b) WITHIN 100";
    const Q_BA: &str = "PATTERN SEQ(B b, A a) WITHIN 100";
    /// A query with a partition key (an equality chain), negating `N`...
    const Q_PART: &str = "PATTERN SEQ(A a, !N n, B b) WHERE a.x == b.x WITHIN 100";
    /// ...and one where `N` is a keyed positive slot.
    const Q_NB: &str = "PATTERN SEQ(N n, B b) WHERE n.x == b.x WITHIN 100";

    fn parsed(reg: &TypeRegistry, texts: &[&str]) -> Vec<Arc<Query>> {
        texts.iter().map(|t| parse(t, reg).unwrap()).collect()
    }

    fn k50() -> EngineConfig {
        EngineConfig::with_k(Duration::new(50))
    }

    /// 60 lightly disordered arrivals of `A`, `B` and `N`.
    fn short_stream(reg: &TypeRegistry) -> Vec<StreamItem> {
        (0..60u64)
            .map(|t| {
                let ty = match t % 11 {
                    7 => "N",
                    m if m % 3 == 0 => "B",
                    _ => "A",
                };
                let ts = if t % 5 == 2 { t.saturating_sub(3) } else { t };
                item(reg, ty, t + 1, ts * 2, (t as i64 + 1) % 2, 0)
            })
            .collect()
    }

    #[test]
    fn outputs_are_tagged_per_query() {
        let reg = registry();
        let mut multi = plan_of(&parsed(&reg, &[Q_AB, Q_BA]), k50());
        let mut out = Vec::new();
        // A@10, B@20 matches q_ab; B@20, A@30 matches q_ba
        out.extend(multi.ingest(&item(&reg, "A", 1, 10, 0, 0)));
        out.extend(multi.ingest(&item(&reg, "B", 2, 20, 0, 0)));
        out.extend(multi.ingest(&item(&reg, "A", 3, 30, 0, 0)));
        out.extend(multi.finish());
        let of = |ix: usize| out.iter().filter(|(q, _)| q.index() == ix).count();
        assert_eq!((of(0), of(1)), (1, 1));
        assert_eq!(multi.len(), 2);
        assert!(!multi.is_empty());
    }

    #[test]
    fn per_query_stats_and_state() {
        let reg = registry();
        let mut multi = plan_of(&parsed(&reg, &[Q_AB, Q_BA]), k50());
        multi.ingest(&item(&reg, "A", 1, 10, 0, 0));
        assert_eq!(multi.stats().len(), 2);
        assert!(multi.state_size() >= 1);
        assert_eq!(multi.query(QueryId(0)).positive_len(), 2);
        // both queries share K = 50, so the minimum watermark sits at 450
        multi.ingest(&item(&reg, "A", 2, 500, 0, 0));
        assert_eq!(multi.watermark(), Some(Timestamp::new(450)));
        let at = (Timestamp::new(500), Timestamp::new(450));
        assert_eq!(multi.query_positions(), [at, at]);
    }

    #[test]
    fn empty_multi_engine_is_harmless() {
        let reg = registry();
        let mut multi = MultiEngine::new(k50());
        assert!(multi.is_empty());
        assert!(multi.ingest(&item(&reg, "A", 1, 1, 0, 0)).is_empty());
        assert!(multi.finish().is_empty());
        assert_eq!(multi.state_size(), 0);
        assert_eq!(multi.watermark(), None);
    }

    /// Batched on one plan, item by item on plans of one: the same tagged
    /// outputs, and the same counters as each query registered alone.
    #[test]
    fn a_batched_plan_agrees_with_plans_of_one() {
        let reg = registry();
        let items = short_stream(&reg);
        // two queries with the same (A, B) prefix and window but different
        // final components force actual prefix sharing on the plan
        let q_abb = "PATTERN SEQ(A a, B b, B c) WITHIN 12";
        let q_aba = "PATTERN SEQ(A a, B b, A c) WITHIN 12";
        let queries = parsed(&reg, &[Q_AB, Q_PART, Q_BA, q_abb, q_aba, Q_NB]);

        let mut alone = independent(&queries, |_| k50());
        let mut want: Vec<_> = items.iter().flat_map(|it| alone.ingest(it)).collect();
        want.extend(alone.finish());
        for qx in 0..queries.len() {
            assert!(want.iter().any(|(q, _)| q.0 == qx), "query {qx} is idle");
        }
        let mut plan = plan_of(&queries, k50());
        let mut got: Vec<_> = items
            .chunks(13)
            .flat_map(|c| plan.ingest_batch(c))
            .flatten()
            .collect();
        got.extend(plan.finish());
        outputs_eq(&got, &want, "the plan");
        let pm = plan.plan_metrics();
        assert!(pm.prefix_groups >= 1, "AB prefix should group: {pm:?}");
        assert!(pm.routed_events > 0 && pm.routing_misses == 0, "{pm:?}");
        for (q, lone) in queries.iter().zip(alone.stats()) {
            let mut registered = plan_of(&[Arc::clone(q)], k50());
            registered.ingest_batch(&items);
            registered.finish();
            assert!(lone.insertions > 0);
            assert_eq!(registered.stats()[0], lone, "{q:?}");
        }
    }

    /// Short enough that no pooled stack purges more than its queries
    /// would alone: the envelope a plan writes is, byte for byte, the one
    /// its queries' plans of one write, and either restores into the other.
    #[test]
    fn a_plan_writes_the_envelope_of_its_plans_of_one() {
        let reg = registry();
        let items = short_stream(&reg);
        let queries = parsed(&reg, &[Q_AB, Q_PART, Q_BA, Q_NB]);
        let mut alone = independent(&queries, |_| k50());
        let mut want: Vec<_> = items.iter().flat_map(|it| alone.ingest(it)).collect();
        want.extend(alone.finish());

        let (head, tail) = items.split_at(40);
        let mut plan = plan_of(&queries, k50());
        let mut lone = independent(&queries, |_| k50());
        let mut got: Vec<_> = head.iter().flat_map(|it| plan.ingest(it)).collect();
        for it in head {
            lone.ingest(it);
        }
        let snap = plan.snapshot();
        assert!(snap == lone.snapshot(), "the envelope differs");

        let (mut plan, mut lone) = (plan_of(&queries, k50()), independent(&queries, |_| k50()));
        plan.restore(&snap).unwrap();
        lone.restore(&snap).unwrap();
        let mut from_lone = got.clone();
        got.extend(tail.iter().flat_map(|it| plan.ingest(it)));
        got.extend(plan.finish());
        from_lone.extend(tail.iter().flat_map(|it| lone.ingest(it)));
        from_lone.extend(lone.finish());
        outputs_eq(&got, &want, "restored plan");
        outputs_eq(&from_lone, &want, "restored plans of one");
        // a different query count is rejected before anything restores
        let err = plan_of(&queries[..2], k50()).restore(&snap).unwrap_err();
        assert!(matches!(err, CodecError::SnapshotMismatch(_)), "{err:?}");
    }
}
