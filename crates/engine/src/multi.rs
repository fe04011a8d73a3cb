//! The multi-query host: many queries over one shared arrival stream.
//!
//! A [`MultiEngine`] is the one container every multi-query caller uses —
//! the server core, `sequin run`, the simulator's references. It holds a
//! [`SharedMultiEngine`] (the plan `sequin-plan` compiles: pooled AIS
//! stacks, one partial-match walk per common SEQ prefix, an event-type
//! routing index), the engines of queries that run one of their own, and a
//! host table recording, per query in registration order, which of the two
//! hosts it. [`MultiEngine::register`] applies the one rule, which reads
//! only the host's configuration and the query: the control strategies
//! (`Buffered`, `InOrder`) get their own engine because the plan compiler
//! does not cover them; a Native query that sharding can parallelize
//! (`shards > 1` and an equality chain to hash on) gets its own routed
//! [`crate::ShardedEngine`] pool; every other Native query joins the plan.
//! [`MultiEngine::register_engine`] hosts an opaque, pre-built engine.
//!
//! Outputs carry global [`QueryId`]s in registration order per arrival.
//! The plan and a routed pool are the same evaluator — a pool's workers
//! each run a plan of one over a slice of the key space — so they produce
//! byte-identical per-query output and write the same per-logical-query
//! checkpoint blob, and a snapshot taken under one shard count — and so
//! one host per query — restores under any other.

use std::sync::Arc;

use sequin_query::Query;
use sequin_runtime::RuntimeStats;
use sequin_types::codec::{open_envelope, seal_envelope};
use sequin_types::{CodecError, Duration, Reader, StreamItem, Timestamp, Writer};

use crate::config::{DisorderPolicy, EngineConfig};
use crate::output::OutputItem;
use crate::sharded::RouteStats;
use crate::shared::{PlanMetrics, SharedMultiEngine};
use crate::traits::{Engine, Strategy};

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

/// Seals per-query blobs, in registration order, as the multi-query
/// snapshot envelope: `count`, then each blob length-prefixed.
pub(crate) fn write_envelope(
    blobs: impl ExactSizeIterator<Item = Result<Vec<u8>, CodecError>>,
) -> Result<Vec<u8>, CodecError> {
    let mut w = Writer::new();
    w.put_u64(blobs.len() as u64);
    for blob in blobs {
        w.put_bytes(&blob?);
    }
    Ok(seal_envelope(&w.into_bytes()))
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

/// Which side of a [`MultiEngine`] hosts a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Plan,
    Own,
}

/// Fans one arrival stream out to many queries and tags outputs with the
/// originating [`QueryId`] (see the module docs for where a query runs).
///
/// ```
/// use sequin_engine::{DisorderPolicy, EngineConfig, MultiEngine, Strategy};
/// use sequin_query::parse;
/// use sequin_types::{TypeRegistry, ValueKind};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut reg = TypeRegistry::new();
/// reg.declare("A", &[("x", ValueKind::Int)])?;
/// reg.declare("B", &[("x", ValueKind::Int)])?;
/// let mut multi = MultiEngine::new(Strategy::Native, EngineConfig::default(), 1);
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
    strategy: Strategy,
    config: EngineConfig,
    shards: usize,
    plan: SharedMultiEngine,
    own: Vec<Box<dyn Engine>>,
    /// Side and side-local index per query, in registration order. A side
    /// that hosts everything numbers its queries as the host does, so its
    /// outputs and its snapshot blobs pass through untouched.
    hosts: Vec<(Side, usize)>,
    /// Global id per plan-local id.
    plan_globals: Vec<QueryId>,
    /// Global id per own-engine index.
    own_globals: Vec<QueryId>,
}

impl std::fmt::Debug for MultiEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiEngine")
            .field("queries", &self.hosts.len())
            .field("on_plan", &self.plan_globals.len())
            .finish()
    }
}

impl MultiEngine {
    /// An empty host: queries registered later run `strategy` under
    /// `config`, Native ones on `shards` workers where that can help.
    pub fn new(strategy: Strategy, config: EngineConfig, shards: usize) -> MultiEngine {
        MultiEngine {
            strategy,
            config,
            shards,
            plan: SharedMultiEngine::new(config),
            own: Vec::new(),
            hosts: Vec::new(),
            plan_globals: Vec::new(),
            own_globals: Vec::new(),
        }
    }

    /// Registers a query under `policy`, hosted where the configuration
    /// says — a decision that depends only on the configuration and the
    /// query, so a restart re-registering the same queries rebuilds the
    /// same host table.
    pub fn register(&mut self, query: Arc<Query>, policy: DisorderPolicy) -> QueryId {
        // sharding can only parallelize a query with an equality chain to
        // hash on; the rest share the plan instead of each paying for an
        // engine, and the plan compiler does not cover the control strategies
        let routed_pool = self.shards > 1 && self.config.partitioned && query.partition().is_some();
        if self.strategy != Strategy::Native || routed_pool {
            let mut config = self.config;
            config.policy = policy;
            let engine = crate::make_sharded_engine(self.strategy, query, config, self.shards);
            return self.register_engine(engine);
        }
        let id = QueryId(self.hosts.len());
        let local = self.plan.register_with_policy(query, policy);
        self.hosts.push((Side::Plan, local.index()));
        self.plan_globals.push(id);
        id
    }

    /// Hosts a pre-built engine, whatever its strategy or configuration
    /// (tests host plans of one this way: the independent reference a
    /// plan of many is checked against).
    pub fn register_engine(&mut self, engine: Box<dyn Engine>) -> QueryId {
        let id = QueryId(self.hosts.len());
        self.hosts.push((Side::Own, self.own.len()));
        self.own.push(engine);
        self.own_globals.push(id);
        id
    }

    /// Number of registered queries.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// True when no queries are registered.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// One arrival's plan outputs under global ids, interleaved with the
    /// own engines' into registration order (each side already emits in
    /// its local registration order, and a stable sort preserves emission
    /// order within a query).
    fn interleave(
        &self,
        mut plan: Vec<(QueryId, OutputItem)>,
        own: Vec<(QueryId, OutputItem)>,
    ) -> Vec<(QueryId, OutputItem)> {
        if plan.is_empty() {
            return own;
        }
        for (q, _) in &mut plan {
            *q = self.plan_globals[q.index()];
        }
        if !own.is_empty() {
            plan.extend(own);
            plan.sort_by_key(|(q, _)| q.index());
        }
        plan
    }

    /// Ingests one arrival into every query; outputs are tagged with the
    /// query that produced them, in registration order.
    pub fn ingest(&mut self, item: &StreamItem) -> Vec<(QueryId, OutputItem)> {
        let mut per_item = self.ingest_batch(std::slice::from_ref(item));
        per_item.pop().unwrap_or_default()
    }

    /// Ingests a run of arrivals, returning one output vector per input
    /// item with the same tagging and order as item-by-item
    /// [`MultiEngine::ingest`] calls. Engines that fan batches out across
    /// threads (sharded pools) get their parallelism from this entry
    /// point.
    pub fn ingest_batch(&mut self, items: &[StreamItem]) -> Vec<Vec<(QueryId, OutputItem)>> {
        if self.own.is_empty() {
            return self.plan.ingest_batch(items);
        }
        // an engine's outputs arrive grouped by item already; engines are
        // visited in registration order, so each item's vector is too
        let mut own: Vec<Vec<(QueryId, OutputItem)>> = items.iter().map(|_| Vec::new()).collect();
        for (engine, &id) in self.own.iter_mut().zip(&self.own_globals) {
            for (item_ix, o) in engine.ingest_batch(items) {
                own[item_ix].push((id, o));
            }
        }
        if self.plan.is_empty() {
            return own;
        }
        let plan = self.plan.ingest_batch(items);
        let both = plan.into_iter().zip(own);
        both.map(|(p, o)| self.interleave(p, o)).collect()
    }

    /// Finishes every query (see [`Engine::finish`]).
    pub fn finish(&mut self) -> Vec<(QueryId, OutputItem)> {
        let plan = self.plan.finish();
        let mut own = Vec::new();
        for (engine, &id) in self.own.iter_mut().zip(&self.own_globals) {
            own.extend(engine.finish().into_iter().map(|o| (id, o)));
        }
        self.interleave(plan, own)
    }

    /// Per-query operator statistics, in registration order.
    pub fn stats(&self) -> Vec<RuntimeStats> {
        let plan = self.plan.stats();
        let of = |&(side, l): &(Side, usize)| match side {
            Side::Plan => plan[l],
            Side::Own => self.own[l].stats(),
        };
        self.hosts.iter().map(of).collect()
    }

    /// Total state held across all queries (pooled stacks counted once).
    pub fn state_size(&self) -> usize {
        self.plan.state_size() + self.own.iter().map(|e| e.state_size()).sum::<usize>()
    }

    /// The low-watermark the *whole* multi-query evaluation has reached:
    /// the minimum over queries that track one (`None` when none does).
    /// [`crate::Checkpointer`]'s watermark-advance cadence triggers on it.
    pub fn watermark(&self) -> Option<Timestamp> {
        let own = self.own.iter().filter_map(|e| e.watermark());
        own.chain(self.plan.watermark()).min()
    }

    /// Shared-plan structural gauges and sharing counters.
    pub fn plan_metrics(&self) -> PlanMetrics {
        self.plan.plan_metrics()
    }

    /// Asks the query's host: the plan's per-query attribution, or the
    /// query's own engine.
    fn host<'a, T>(
        &'a self,
        id: QueryId,
        plan: impl FnOnce(&'a SharedMultiEngine, QueryId) -> T,
        own: impl FnOnce(&'a dyn Engine) -> T,
    ) -> T {
        match self.hosts[id.0] {
            (Side::Plan, l) => plan(&self.plan, QueryId(l)),
            (Side::Own, l) => own(self.own[l].as_ref()),
        }
    }

    /// The query registered under `id`.
    pub fn query(&self, id: QueryId) -> &Arc<Query> {
        self.host(id, |p, l| p.query(l), |e| e.query())
    }

    /// One query's stream clock, when its host tracks one.
    pub fn query_clock(&self, id: QueryId) -> Option<Timestamp> {
        self.host(id, |p, l| Some(p.query_clock(l)), |e| e.clock())
    }

    /// One query's low-watermark, when its host tracks one.
    pub fn query_watermark(&self, id: QueryId) -> Option<Timestamp> {
        self.host(id, |p, l| Some(p.query_watermark(l)), |e| e.watermark())
    }

    /// One query's live disorder slack bound `k̂` — fixed for the
    /// conservative/speculative/lazy policies, the control loop's current
    /// estimate under adaptive slack. `None` when the hosting engine does
    /// not expose one.
    pub fn query_slack(&self, id: QueryId) -> Option<Duration> {
        self.host(id, |p, l| Some(p.query_slack(l)), |e| e.slack_bound())
    }

    /// One query's logical state size — what its isolated engine reports.
    pub fn query_state_size(&self, id: QueryId) -> usize {
        self.host(id, |p, l| p.query_state_size(l), |e| e.state_size())
    }

    /// One query's live partition-key index entries, summed over its
    /// slots (0 for an unpartitioned query).
    pub fn query_partition_keys(&self, id: QueryId) -> usize {
        self.host(id, |p, l| p.query_partition_keys(l), |e| e.partition_keys())
    }

    /// One query's counters per parallel worker (one entry unless a pool
    /// of its own hosts it).
    pub fn per_shard_stats(&self, id: QueryId) -> Vec<RuntimeStats> {
        let plan = |p: &SharedMultiEngine, l: QueryId| vec![p.query_stats(l)];
        self.host(id, plan, |e| e.per_shard_stats())
    }

    /// Ingest-edge routing counters for one query's sharded pool (`None`
    /// for single-threaded evaluation, including plan-hosted queries).
    pub fn route_stats(&self, id: QueryId) -> Option<RouteStats> {
        self.host(id, |_, _| None, |e| e.route_stats())
    }

    /// Serializes every query's state as one checksummed envelope of
    /// per-logical-query blobs, whichever side hosts each (fails if an
    /// engine lacks snapshot support).
    pub fn snapshot(&self) -> Result<Vec<u8>, CodecError> {
        write_envelope(self.hosts.iter().map(|&(side, l)| match side {
            Side::Plan => Ok(self.plan.query_blob(l)),
            Side::Own => self.own[l].snapshot(),
        }))
    }

    /// Restores every query from a [`MultiEngine::snapshot`] taken with
    /// the same queries registered in the same order, under any shard
    /// count or strategy mix that writes the native blob.
    ///
    /// Not all-or-nothing: queries restored before a failure keep their
    /// restored state, so the caller discards the whole host on error.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let blobs = read_envelope(bytes, self.hosts.len())?;
        let hosts = &self.hosts;
        let of = |side| {
            let mine = hosts.iter().zip(&blobs).filter(move |(h, _)| h.0 == side);
            mine.map(|(_, blob)| *blob)
        };
        self.plan
            .restore_blobs(&of(Side::Plan).collect::<Vec<_>>())?;
        for (engine, blob) in self.own.iter_mut().zip(of(Side::Own)) {
            engine.restore(blob)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequin_query::parse;
    use sequin_types::{Event, EventId, TypeRegistry, Value, ValueKind};

    const Q_AB: &str = "PATTERN SEQ(A a, B b) WITHIN 100";
    const Q_BA: &str = "PATTERN SEQ(B b, A a) WITHIN 100";
    /// The one query here sharding can parallelize (an equality chain).
    const Q_PART: &str = "PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 100";

    fn registry() -> TypeRegistry {
        let mut reg = TypeRegistry::new();
        for name in ["A", "B"] {
            reg.declare(name, &[("x", ValueKind::Int)]).unwrap();
        }
        reg
    }

    fn config() -> EngineConfig {
        EngineConfig::with_k(Duration::new(50))
    }

    /// A host at `shards` with `texts` registered by the one rule.
    fn host(reg: &TypeRegistry, shards: usize, texts: &[&str]) -> MultiEngine {
        let mut multi = MultiEngine::new(Strategy::Native, config(), shards);
        for text in texts {
            multi.register(parse(text, reg).unwrap(), config().policy);
        }
        multi
    }

    /// The independent reference: every query on a plan of one of its own.
    fn independent(reg: &TypeRegistry, texts: &[&str]) -> MultiEngine {
        let mut multi = MultiEngine::new(Strategy::Native, config(), 1);
        for text in texts {
            let q = parse(text, reg).unwrap();
            multi.register_engine(crate::make_engine(Strategy::Native, q, config()));
        }
        multi
    }

    fn item(reg: &TypeRegistry, ty: &str, id: u64, ts: u64) -> StreamItem {
        StreamItem::Event(Arc::new(
            Event::builder(reg.lookup(ty).unwrap(), Timestamp::new(ts))
                .id(EventId::new(id))
                .attr(Value::Int(id as i64 % 2))
                .build(),
        ))
    }

    fn stream(reg: &TypeRegistry) -> Vec<StreamItem> {
        (0..60u64)
            .map(|t| {
                let ty = if t % 3 == 0 { "B" } else { "A" };
                let ts = if t % 5 == 2 { t.saturating_sub(3) } else { t };
                item(reg, ty, t + 1, ts * 2)
            })
            .collect()
    }

    fn run(multi: &mut MultiEngine, items: &[StreamItem]) -> Vec<(QueryId, OutputItem)> {
        let mut out: Vec<_> = items
            .chunks(13)
            .flat_map(|c| multi.ingest_batch(c))
            .flatten()
            .collect();
        out.extend(multi.finish());
        out
    }

    #[test]
    fn outputs_are_tagged_per_query() {
        let reg = registry();
        let mut multi = host(&reg, 1, &[Q_AB, Q_BA]);
        let mut out = Vec::new();
        // A@10, B@20 matches q_ab; B@20, A@30 matches q_ba
        out.extend(multi.ingest(&item(&reg, "A", 1, 10)));
        out.extend(multi.ingest(&item(&reg, "B", 2, 20)));
        out.extend(multi.ingest(&item(&reg, "A", 3, 30)));
        out.extend(multi.finish());
        let of = |ix: usize| out.iter().filter(|(q, _)| q.index() == ix).count();
        assert_eq!((of(0), of(1)), (1, 1));
        assert_eq!(multi.len(), 2);
        assert!(!multi.is_empty());
    }

    #[test]
    fn per_query_stats_and_state() {
        let reg = registry();
        let mut multi = host(&reg, 1, &[Q_AB, Q_BA]);
        multi.ingest(&item(&reg, "A", 1, 10));
        assert_eq!(multi.stats().len(), 2);
        assert!(multi.state_size() >= 1);
        assert_eq!(multi.query(QueryId(0)).positive_len(), 2);
        // both queries share K = 50, so the minimum watermark sits at 450
        multi.ingest(&item(&reg, "A", 2, 500));
        assert_eq!(multi.watermark(), Some(Timestamp::new(450)));
    }

    #[test]
    fn register_engine_hosts_any_strategy_beside_the_plan() {
        let reg = registry();
        let mut multi = host(&reg, 1, &[Q_AB, Q_BA]);
        let q = parse("PATTERN SEQ(A a) WITHIN 5", &reg).unwrap();
        let id = multi.register_engine(crate::make_engine(
            Strategy::InOrder,
            q,
            EngineConfig::default(),
        ));
        assert_eq!(id.index(), 2);
        let out = multi.ingest(&item(&reg, "A", 9, 5));
        assert!(out.iter().any(|(qid, _)| *qid == id));
    }

    #[test]
    fn empty_multi_engine_is_harmless() {
        let mut multi = host(&registry(), 1, &[]);
        assert!(multi.is_empty());
        assert!(multi.finish().is_empty());
        assert_eq!(multi.state_size(), 0);
        assert_eq!(multi.watermark(), None);
    }

    #[test]
    fn every_hosting_agrees_with_the_independent_reference() {
        let reg = registry();
        let items = stream(&reg);
        // two queries with the same (A, B) prefix and window but different
        // final components force actual prefix sharing on the plan
        let q_abb = "PATTERN SEQ(A a, B b, B c) WITHIN 12";
        let q_aba = "PATTERN SEQ(A a, B b, A c) WITHIN 12";
        let texts = [Q_AB, Q_PART, Q_BA, q_abb, q_aba];

        let mut reference = independent(&reg, &texts);
        let want = run(&mut reference, &items);
        assert!(!want.is_empty());
        assert_eq!(
            reference.plan_metrics().pooled_stacks,
            0,
            "nothing on the plan"
        );
        // item by item is the same as batched
        let mut seq = independent(&reg, &texts);
        let mut per_item: Vec<_> = items.iter().flat_map(|it| seq.ingest(it)).collect();
        per_item.extend(seq.finish());
        assert_eq!(per_item, want);

        let mut plan = host(&reg, 1, &texts);
        assert_eq!(run(&mut plan, &items), want, "plan hosts everything");
        let pm = plan.plan_metrics();
        assert!(pm.prefix_groups >= 1, "AB prefix should group: {pm:?}");
        assert!(pm.routed_events > 0);

        // three shards: the partitionable query (id 1) moves to a routed
        // pool of its own, the unpartitionable ones stay on the plan, and
        // outputs interleave back into registration order
        let mut hybrid = host(&reg, 3, &texts);
        assert_eq!(
            run(&mut hybrid, &items),
            want,
            "hybrid must be byte-identical"
        );
        let rs = hybrid.route_stats(QueryId(1)).expect("sharded pool");
        assert_eq!(rs.full_events.len(), 3);
        assert_eq!(hybrid.per_shard_stats(QueryId(1)).len(), 3);
        for plan_hosted in [0, 2, 3, 4] {
            assert!(hybrid.route_stats(QueryId(plan_hosted)).is_none());
            assert_eq!(hybrid.per_shard_stats(QueryId(plan_hosted)).len(), 1);
        }

        // the facade is exactly a plan of one: each query alone — behind
        // `NativeEngine`, registered by the one rule, or on a pool of 1, 2
        // or 3 workers — gives the same outputs *and* the same counters,
        // `ooo_insertions` and `max_stack_depth` included (an insert
        // reports its position in the arrival's key stack everywhere).
        // Only `merge_buffer_peak` describes the hosting, not the query:
        // it gauges a pool's cross-worker merge.
        for (qx, text) in texts.iter().enumerate() {
            let q = parse(text, &reg).unwrap();
            let mut lone = crate::NativeEngine::new(Arc::clone(&q), config());
            let mut want: Vec<_> = items.iter().flat_map(|it| lone.ingest(it)).collect();
            want.extend(lone.finish());
            let of_query = |(id, o): &(QueryId, OutputItem)| (id.0 == qx).then(|| o.clone());
            let from_plan_of_five: Vec<_> = per_item.iter().filter_map(of_query).collect();
            assert_eq!(want, from_plan_of_five, "{text}");
            assert!(lone.stats().insertions > 0, "{text}");

            let mut registered = host(&reg, 1, &[text]);
            let got = run(&mut registered, &items).into_iter().map(|(_, o)| o);
            assert_eq!(got.collect::<Vec<_>>(), want, "{text} registered");
            assert_eq!(registered.stats()[0], lone.stats(), "{text} registered");

            for shards in 1..=3 {
                let mut pool = crate::ShardedEngine::new(Arc::clone(&q), config(), shards);
                let mut got: Vec<_> = items.iter().flat_map(|it| pool.ingest(it)).collect();
                got.extend(pool.finish());
                assert_eq!(got, want, "{text} on {shards} worker(s)");
                let mut stats = pool.stats();
                stats.merge_buffer_peak = 0;
                assert_eq!(stats, lone.stats(), "{text} on {shards} worker(s)");
            }
        }
    }

    #[test]
    fn snapshots_interchange_between_hostings() {
        let reg = registry();
        let items = stream(&reg);
        let texts = [Q_AB, Q_PART, Q_BA];
        let want = run(&mut independent(&reg, &texts), &items);

        type Build = fn(&TypeRegistry, &[&str]) -> MultiEngine;
        let builds: [Build; 3] = [independent, |r, t| host(r, 1, t), |r, t| host(r, 2, t)];
        let mut envelopes = Vec::new();
        for (fx, from) in builds.into_iter().enumerate() {
            let mut writer = from(&reg, &texts);
            let head: Vec<_> = writer
                .ingest_batch(&items[..40])
                .into_iter()
                .flatten()
                .collect();
            let snap = writer.snapshot().unwrap();
            for (tx, to) in builds.into_iter().enumerate() {
                let mut reader = to(&reg, &texts);
                reader.restore(&snap).unwrap();
                let mut out = head.clone();
                out.extend(reader.ingest_batch(&items[40..]).into_iter().flatten());
                out.extend(reader.finish());
                assert_eq!(out, want, "hosting {fx} -> hosting {tx}");
            }
            envelopes.push(snap);
        }
        // a different query count is rejected before anything restores
        let err = host(&reg, 2, &texts[..2])
            .restore(&envelopes[2])
            .unwrap_err();
        assert!(matches!(err, CodecError::SnapshotMismatch(_)), "{err:?}");
    }
}
