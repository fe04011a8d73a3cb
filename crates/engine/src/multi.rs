//! The multi-query host: many queries over one shared arrival stream.
//!
//! A [`MultiEngine`] is the one container every multi-query caller uses —
//! the server core, `sequin run`, the simulator's references. It holds
//! *either* the pool — `shards ≥ 1` workers, each a [`SharedMultiEngine`]
//! evaluating the plan `sequin-plan` compiles from *every* registered
//! query (pooled AIS stacks, one partial-match walk per common SEQ prefix,
//! an event-type routing index) over its slice of the partition-key space
//! — *or* a list of engines, one per query: what the control strategies
//! (`Buffered`, `InOrder`) get, because the plan compiler does not cover
//! them, and what tests build as the independent reference a plan of many
//! is checked against ([`MultiEngine::from_engines`]). Never both: where a
//! query runs depends on the strategy alone, and `shards` only sets how
//! many workers run the plan. A plan is a pool of one — a single worker
//! runs inline, with no thread and no router.
//!
//! Outputs carry [`QueryId`]s in registration order per arrival. Every
//! hosting of a native query is the same evaluator, so they produce
//! byte-identical per-query output and write the same per-logical-query
//! checkpoint blob, and a snapshot taken under one shard count — or by a
//! list of [`crate::NativeEngine`]s — restores under any other.

use std::sync::Arc;

use sequin_query::Query;
use sequin_runtime::RuntimeStats;
use sequin_types::codec::{open_envelope, seal_envelope};
use sequin_types::{CodecError, Duration, Reader, StreamItem, Timestamp, Writer};

use crate::config::{DisorderPolicy, EngineConfig};
use crate::output::OutputItem;
use crate::sharded::{Pool, RouteStats};
use crate::shared::PlanMetrics;
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

/// Where a [`MultiEngine`]'s queries run.
enum Host {
    /// Every query on the plan, on `shards ≥ 1` workers.
    Pool(Pool),
    /// Every query on an engine of its own, in registration order.
    Engines(Vec<Box<dyn Engine>>),
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
    host: Host,
}

impl std::fmt::Debug for MultiEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiEngine")
            .field("queries", &self.len())
            .field("strategy", &self.strategy)
            .finish()
    }
}

impl MultiEngine {
    /// An empty host: queries registered later run `strategy` under
    /// `config` — Native ones on the plan, evaluated by `shards` workers;
    /// the control strategies on an engine each, which `shards` does not
    /// reach (they are inherently sequential).
    pub fn new(strategy: Strategy, config: EngineConfig, shards: usize) -> MultiEngine {
        let host = match strategy {
            Strategy::Native => Host::Pool(Pool::new(config, shards)),
            Strategy::Buffered | Strategy::InOrder => Host::Engines(Vec::new()),
        };
        MultiEngine {
            strategy,
            config,
            host,
        }
    }

    /// Hosts pre-built engines, whatever their strategy or configuration,
    /// one query each in the order given (tests host plans of one this
    /// way: the independent reference a plan of many is checked against).
    /// A query registered later gets a [`crate::NativeEngine`] of its own
    /// under the default configuration.
    pub fn from_engines(engines: Vec<Box<dyn Engine>>) -> MultiEngine {
        MultiEngine {
            strategy: Strategy::Native,
            config: EngineConfig::default(),
            host: Host::Engines(engines),
        }
    }

    /// Registers a query under `policy`.
    pub fn register(&mut self, query: Arc<Query>, policy: DisorderPolicy) -> QueryId {
        match &mut self.host {
            Host::Pool(pool) => pool.register(query, policy),
            Host::Engines(engines) => {
                let mut config = self.config;
                config.policy = policy;
                engines.push(crate::make_engine(self.strategy, query, config));
                QueryId(engines.len() - 1)
            }
        }
    }

    /// Number of registered queries.
    pub fn len(&self) -> usize {
        match &self.host {
            Host::Pool(pool) => pool.len(),
            Host::Engines(engines) => engines.len(),
        }
    }

    /// True when no queries are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ingests one arrival into every query; outputs are tagged with the
    /// query that produced them, in registration order.
    pub fn ingest(&mut self, item: &StreamItem) -> Vec<(QueryId, OutputItem)> {
        let mut per_item = self.ingest_batch(std::slice::from_ref(item));
        per_item.pop().unwrap_or_default()
    }

    /// Ingests a run of arrivals, returning one output vector per input
    /// item with the same tagging and order as item-by-item
    /// [`MultiEngine::ingest`] calls. A pool of several workers gets its
    /// parallelism from this entry point.
    pub fn ingest_batch(&mut self, items: &[StreamItem]) -> Vec<Vec<(QueryId, OutputItem)>> {
        let engines = match &mut self.host {
            Host::Pool(pool) => return pool.ingest_batch(items),
            Host::Engines(engines) => engines,
        };
        // an engine's outputs arrive grouped by item already; engines are
        // visited in registration order, so each item's vector is too
        let mut out: Vec<Vec<(QueryId, OutputItem)>> = items.iter().map(|_| Vec::new()).collect();
        for (qix, engine) in engines.iter_mut().enumerate() {
            for (item_ix, o) in engine.ingest_batch(items) {
                out[item_ix].push((QueryId(qix), o));
            }
        }
        out
    }

    /// Finishes every query (see [`Engine::finish`]).
    pub fn finish(&mut self) -> Vec<(QueryId, OutputItem)> {
        match &mut self.host {
            Host::Pool(pool) => pool.finish(),
            Host::Engines(engines) => {
                let of = |(qix, e): (usize, &mut Box<dyn Engine>)| {
                    e.finish().into_iter().map(move |o| (QueryId(qix), o))
                };
                engines.iter_mut().enumerate().flat_map(of).collect()
            }
        }
    }

    /// Per-query operator statistics, in registration order.
    pub fn stats(&self) -> Vec<RuntimeStats> {
        match &self.host {
            Host::Pool(pool) => pool.stats(),
            Host::Engines(engines) => engines.iter().map(|e| e.stats()).collect(),
        }
    }

    /// Total state held across all queries (pooled stacks counted once).
    pub fn state_size(&self) -> usize {
        match &self.host {
            Host::Pool(pool) => pool.state_size(),
            Host::Engines(engines) => engines.iter().map(|e| e.state_size()).sum(),
        }
    }

    /// The low-watermark the *whole* multi-query evaluation has reached:
    /// the minimum over queries that track one (`None` when none does).
    /// [`crate::Checkpointer`]'s watermark-advance cadence triggers on it.
    pub fn watermark(&self) -> Option<Timestamp> {
        match &self.host {
            Host::Pool(pool) => pool.primary().watermark(),
            Host::Engines(engines) => engines.iter().filter_map(|e| e.watermark()).min(),
        }
    }

    /// Shared-plan structural gauges and sharing counters: the same
    /// gauges at every shard count, all zero for a list of engines.
    pub fn plan_metrics(&self) -> PlanMetrics {
        match &self.host {
            Host::Pool(pool) => pool.plan_metrics(),
            Host::Engines(_) => PlanMetrics::default(),
        }
    }

    /// Asks about one query: the pool's per-query attribution, or the
    /// query's own engine.
    fn ask<'a, T>(
        &'a self,
        id: QueryId,
        pool: impl FnOnce(&'a Pool) -> T,
        own: impl FnOnce(&'a dyn Engine) -> T,
    ) -> T {
        match &self.host {
            Host::Pool(p) => pool(p),
            Host::Engines(engines) => own(engines[id.0].as_ref()),
        }
    }

    /// The query registered under `id`.
    pub fn query(&self, id: QueryId) -> &Arc<Query> {
        self.ask(id, |p| p.query(id), |e| e.query())
    }

    /// One query's stream clock, when its host tracks one.
    pub fn query_clock(&self, id: QueryId) -> Option<Timestamp> {
        self.ask(id, |p| Some(p.primary().query_clock(id)), |e| e.clock())
    }

    /// One query's low-watermark, when its host tracks one.
    pub fn query_watermark(&self, id: QueryId) -> Option<Timestamp> {
        let pool = |p: &Pool| Some(p.primary().query_watermark(id));
        self.ask(id, pool, |e| e.watermark())
    }

    /// Every query's `(stream clock, low-watermark)`, in registration
    /// order: what [`MultiEngine::query_clock`] and
    /// [`MultiEngine::query_watermark`] answer one query at a time, read
    /// under one hold of the pool's lock — for a caller that wants them of
    /// many queries after every batch.
    pub fn query_positions(&self) -> Vec<(Option<Timestamp>, Option<Timestamp>)> {
        match &self.host {
            Host::Pool(pool) => {
                let primary = pool.primary();
                let of = |q| {
                    let id = QueryId(q);
                    let (clock, wm) = (primary.query_clock(id), primary.query_watermark(id));
                    (Some(clock), Some(wm))
                };
                (0..pool.len()).map(of).collect()
            }
            Host::Engines(engines) => {
                let positions = engines.iter().map(|e| (e.clock(), e.watermark()));
                positions.collect()
            }
        }
    }

    /// One query's live disorder slack bound `k̂` — fixed for the
    /// conservative/speculative/lazy policies, the control loop's current
    /// estimate under adaptive slack. `None` when the hosting engine does
    /// not expose one.
    pub fn query_slack(&self, id: QueryId) -> Option<Duration> {
        let pool = |p: &Pool| Some(p.primary().query_slack(id));
        self.ask(id, pool, |e| e.slack_bound())
    }

    /// One query's logical state size — what its isolated engine reports.
    pub fn query_state_size(&self, id: QueryId) -> usize {
        self.ask(id, |p| p.query_state_size(id), |e| e.state_size())
    }

    /// One query's live partition-key index entries, summed over its
    /// slots (0 for an unpartitioned query).
    pub fn query_partition_keys(&self, id: QueryId) -> usize {
        self.ask(id, |p| p.query_partition_keys(id), |e| e.partition_keys())
    }

    /// One query's counters per pool worker — `shards` entries, whether or
    /// not the query has a key to spread (without one its work sits on
    /// worker 0) — or the one entry of its own engine.
    pub fn per_shard_stats(&self, id: QueryId) -> Vec<RuntimeStats> {
        self.ask(id, |p| p.per_shard_stats(id), |e| vec![e.stats()])
    }

    /// The host's ingest-edge routing counters: one router serves every
    /// query. `None` when nothing routes — a list of engines, or a pool of
    /// one.
    pub fn route_stats(&self) -> Option<RouteStats> {
        match &self.host {
            Host::Pool(pool) => pool.route_stats(),
            Host::Engines(_) => None,
        }
    }

    /// Serializes every query's state as one checksummed envelope of
    /// per-logical-query blobs (fails if an engine lacks snapshot support).
    pub fn snapshot(&self) -> Result<Vec<u8>, CodecError> {
        match &self.host {
            Host::Pool(pool) => {
                write_envelope((0..pool.len()).map(|q| Ok(pool.query_blob(QueryId(q)))))
            }
            Host::Engines(engines) => write_envelope(engines.iter().map(|e| e.snapshot())),
        }
    }

    /// Restores every query from a [`MultiEngine::snapshot`] taken with
    /// the same queries registered in the same order, under any shard
    /// count or by any list of engines that write the native blob.
    ///
    /// Not all-or-nothing for a list of engines: those restored before a
    /// failure keep their restored state, so the caller discards the
    /// whole host on error.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let blobs = read_envelope(bytes, self.len())?;
        match &mut self.host {
            Host::Pool(pool) => pool.restore_blobs(&blobs),
            Host::Engines(engines) => {
                let mut both = engines.iter_mut().zip(blobs);
                both.try_for_each(|(engine, blob)| engine.restore(blob))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequin_query::parse;
    use sequin_types::{Event, EventId, TypeRegistry, Value, ValueKind};

    const Q_AB: &str = "PATTERN SEQ(A a, B b) WITHIN 100";
    const Q_BA: &str = "PATTERN SEQ(B b, A a) WITHIN 100";
    /// A query with a key to spread over a pool's workers (an equality
    /// chain), negating `N`...
    const Q_PART: &str = "PATTERN SEQ(A a, !N n, B b) WHERE a.x == b.x WITHIN 100";
    /// ...and one where `N` is a keyed positive slot.
    const Q_NB: &str = "PATTERN SEQ(N n, B b) WHERE n.x == b.x WITHIN 100";

    fn registry() -> TypeRegistry {
        let mut reg = TypeRegistry::new();
        for name in ["A", "B", "N"] {
            reg.declare(name, &[("x", ValueKind::Int)]).unwrap();
        }
        reg
    }

    fn config() -> EngineConfig {
        EngineConfig::with_k(Duration::new(50))
    }

    /// A host at `shards` with `texts` registered.
    fn host(reg: &TypeRegistry, shards: usize, texts: &[&str]) -> MultiEngine {
        let mut multi = MultiEngine::new(Strategy::Native, config(), shards);
        for text in texts {
            multi.register(parse(text, reg).unwrap(), config().policy);
        }
        multi
    }

    /// The independent reference: every query on a plan of one of its own.
    fn independent(reg: &TypeRegistry, texts: &[&str]) -> MultiEngine {
        let alone =
            |text: &&str| crate::make_engine(Strategy::Native, parse(text, reg).unwrap(), config());
        MultiEngine::from_engines(texts.iter().map(alone).collect())
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
                let ty = match t % 11 {
                    7 => "N",
                    m if m % 3 == 0 => "B",
                    _ => "A",
                };
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
    fn a_control_strategy_gets_an_engine_per_query_whatever_the_shards() {
        let reg = registry();
        let mut multi = MultiEngine::new(Strategy::InOrder, EngineConfig::default(), 3);
        let q = parse("PATTERN SEQ(A a) WITHIN 5", &reg).unwrap();
        let id = multi.register(q, DisorderPolicy::Conservative);
        let out = multi.ingest(&item(&reg, "A", 9, 5));
        assert!(out.iter().any(|(qid, _)| *qid == id));
        assert_eq!(multi.per_shard_stats(id).len(), 1);
        assert!(multi.route_stats().is_none());
        assert_eq!(multi.plan_metrics(), PlanMetrics::default());
    }

    #[test]
    fn empty_multi_engine_is_harmless() {
        for shards in 1..=2 {
            let mut multi = host(&registry(), shards, &[]);
            assert!(multi.is_empty());
            assert!(multi.ingest(&item(&registry(), "A", 1, 1)).is_empty());
            assert!(multi.finish().is_empty());
            assert_eq!(multi.state_size(), 0);
            assert_eq!(multi.watermark(), None);
        }
    }

    #[test]
    fn every_hosting_agrees_with_the_independent_reference() {
        let reg = registry();
        let items = stream(&reg);
        // two queries with the same (A, B) prefix and window but different
        // final components force actual prefix sharing on the plan
        let q_abb = "PATTERN SEQ(A a, B b, B c) WITHIN 12";
        let q_aba = "PATTERN SEQ(A a, B b, A c) WITHIN 12";
        let texts = [Q_AB, Q_PART, Q_BA, q_abb, q_aba, Q_NB];

        let mut reference = independent(&reg, &texts);
        let want = run(&mut reference, &items);
        for (qx, text) in texts.iter().enumerate() {
            assert!(want.iter().any(|(q, _)| q.0 == qx), "{text} is idle");
        }
        assert_eq!(reference.plan_metrics(), PlanMetrics::default());
        // item by item is the same as batched
        let mut seq = independent(&reg, &texts);
        let mut per_item: Vec<_> = items.iter().flat_map(|it| seq.ingest(it)).collect();
        per_item.extend(seq.finish());
        assert_eq!(per_item, want);

        // one plan on 1, 2 and 3 workers: the same bytes, the same plan
        // shape and the same per-query counters, whether or not a query
        // has a key to spread — only `merge_buffer_peak` describes the
        // hosting, not the query: it gauges the cross-worker merge
        let mut one = host(&reg, 1, &texts);
        assert_eq!(run(&mut one, &items), want, "a pool of one");
        let pm = one.plan_metrics();
        assert!(pm.prefix_groups >= 1, "AB prefix should group: {pm:?}");
        assert!(pm.routed_events > 0 && pm.routing_misses == 0, "{pm:?}");
        assert!(one.route_stats().is_none(), "a pool of one has no router");
        for shards in 2..=3 {
            let mut pool = host(&reg, shards, &texts);
            assert_eq!(run(&mut pool, &items), want, "{shards} workers");
            assert_eq!(pool.plan_metrics(), pm, "{shards} workers");
            let mut stats = pool.stats();
            stats.iter_mut().for_each(|s| s.merge_buffer_peak = 0);
            assert_eq!(stats, one.stats(), "{shards} workers");
            let events = items.len() as u64;
            let rs = pool.route_stats().expect("one router for the host");
            assert_eq!(rs.broadcast_events, 5, "Q_PART negates N: {rs:?}");
            for shard in 0..shards {
                assert_eq!(rs.full_events[shard] + rs.advances[shard], events);
            }
            for (qx, text) in texts.iter().enumerate() {
                let per = pool.per_shard_stats(QueryId(qx));
                assert_eq!(per.len(), shards);
                let elsewhere: u64 = per[1..].iter().map(|s| s.insertions).sum();
                let keyed = [Q_PART, Q_NB].contains(text);
                assert_eq!(
                    elsewhere > 0,
                    keyed,
                    "{text}: unkeyed work sits on worker 0"
                );
            }
        }

        // the facades are exactly a plan of one: each query alone — behind
        // `NativeEngine`, registered on a host, or behind `ShardedEngine`
        // on 1, 2 or 3 workers — gives the same outputs *and* the same
        // counters, `ooo_insertions` and `max_stack_depth` included (an
        // insert reports its position in the arrival's key stack
        // everywhere)
        for (qx, text) in texts.iter().enumerate() {
            let q = parse(text, &reg).unwrap();
            let mut lone = crate::NativeEngine::new(Arc::clone(&q), config());
            let mut want: Vec<_> = items.iter().flat_map(|it| lone.ingest(it)).collect();
            want.extend(lone.finish());
            let of_query = |(id, o): &(QueryId, OutputItem)| (id.0 == qx).then(|| o.clone());
            let from_plan_of_six: Vec<_> = per_item.iter().filter_map(of_query).collect();
            assert_eq!(want, from_plan_of_six, "{text}");
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
        let texts = [Q_AB, Q_PART, Q_BA, Q_NB];
        let want = run(&mut independent(&reg, &texts), &items);

        type Build = fn(&TypeRegistry, &[&str]) -> MultiEngine;
        let builds: [Build; 4] = [
            independent,
            |r, t| host(r, 1, t),
            |r, t| host(r, 2, t),
            |r, t| host(r, 3, t),
        ];
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
        // the envelope is the same bytes whoever wrote it
        assert!(envelopes.iter().all(|e| *e == envelopes[0]));
        // a different query count is rejected before anything restores
        let err = host(&reg, 2, &texts[..2])
            .restore(&envelopes[2])
            .unwrap_err();
        assert!(matches!(err, CodecError::SnapshotMismatch(_)), "{err:?}");
    }
}
