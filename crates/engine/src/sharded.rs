//! The pool: routed ingestion into `shards ≥ 1` workers — each the plan
//! evaluator ([`SharedMultiEngine`]) holding *every* registered query over
//! its slice of the partition-key space — with a deterministic,
//! watermark-aligned output merge. A plan is a pool of one: a single
//! worker owns every key and runs inline, with no thread, lane or router.
//!
//! ## Routing
//!
//! The router reads an arrival's owner set from the plan's own routing
//! index — the event's type names the stacks it can enter, and each
//! stack's key field places it ([`owner_of`], the same function a
//! worker's ownership test uses, so the two can never disagree). Owners
//! receive the full event over their bounded queue; every other worker
//! receives only a [`RoutedMsg::Advance`] carrying the timestamp, so every
//! worker sees every arrival exactly once and their arrival sequences,
//! watermarks, adaptive disorder estimates and purge cadences advance in
//! lockstep with a pool of one. Two message classes are broadcast in full:
//!
//! * **negation flanks** — every worker replicates the negative index
//!   (negatives filter at check time), so an event of a type *any* query
//!   negates must reach all workers exactly once;
//! * **punctuation** — watermark control, by definition global.
//!
//! Unpartitionable work (stacks with no key field, or unkeyable float
//! attributes) routes to worker 0, the overflow shard.
//!
//! ## Merge determinism
//!
//! Because a match's constituents all share the partition key of the slot
//! they bind, a match is constructed by exactly one worker, and the
//! per-arrival outputs of all workers are disjoint. Each worker returns
//! its outputs per query, separated by emission phase (retractions,
//! construction, seal), and the merge orders them by data-determined keys
//! — seal deadline and event ids, or the arriving event's slot —
//! reproducing a pool of one's order byte-for-byte under every emission
//! policy. The merge aligns phases of the *same* (arrival, query) and
//! never reorders across either. See `DESIGN.md` §12.
//!
//! ## Checkpoints
//!
//! A query's blob is the union of the workers' state for it, in the exact
//! format a pool of one writes, so a checkpoint written with `--shards 2`
//! restores into `--shards 4` (or into a plain [`crate::NativeEngine`])
//! unchanged: every worker restores, of each blob, the slice it owns.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use sequin_query::Query;
use sequin_runtime::RuntimeStats;
use sequin_types::{CodecError, StreamItem, Timestamp};

use crate::config::{DisorderPolicy, EngineConfig};
use crate::multi::QueryId;
use crate::native::untagged;
use crate::output::OutputItem;
use crate::settle::PhasedOutput;
use crate::shared::{owner_of, Phases, PlanMetrics, RoutedMsg, ShardSlice, SharedMultiEngine};
use crate::traits::Engine;

const Q: QueryId = SharedMultiEngine::ONLY;

/// Bound of each worker's job queue, in batches. The engine API is
/// synchronous (a batch's outputs are returned before the next batch is
/// submitted), so one slot is occupancy and the second absorbs the
/// send/recv rendezvous without ever blocking the router.
const JOB_QUEUE_BOUND: usize = 2;

/// Ingest-edge routing counters of a pool of several workers.
///
/// `full_events[i] + advances[i]` equals the number of events routed so
/// far for every shard `i`: each event reaches each worker exactly once,
/// either in full (owner, or broadcast flank) or as a watermark-only
/// advance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteStats {
    /// Per shard: full events delivered (owned slots + broadcasts).
    pub full_events: Vec<u64>,
    /// Per shard: watermark-only advances delivered.
    pub advances: Vec<u64>,
    /// Events broadcast in full to every worker (negation flanks).
    pub broadcast_events: u64,
    /// Punctuations broadcast to every worker.
    pub punctuations: u64,
    /// Largest number of routed messages enqueued to one worker in a
    /// single batch (the per-shard queue's high-water mark).
    pub queue_depth_peak: u64,
}

/// One worker of the pool: the evaluator, and — in a pool of several — the
/// persistent thread that normally drives it over a bounded job queue. The
/// control plane (snapshot, restore, stats, finish, single-item ingest)
/// locks the evaluator directly — safe because the engine API is
/// synchronous, so the thread is idle between batches.
struct Worker {
    engine: Arc<Mutex<SharedMultiEngine>>,
    /// `None` in a pool of one, which runs inline.
    thread: Option<WorkerThread>,
}

struct WorkerThread {
    job_tx: SyncSender<Vec<RoutedMsg>>,
    res_rx: Receiver<Vec<Phases>>,
    join: JoinHandle<()>,
}

impl Worker {
    fn lock(&self) -> MutexGuard<'_, SharedMultiEngine> {
        self.engine.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn thread(&self) -> &WorkerThread {
        self.thread.as_ref().expect("a pool of several has threads")
    }
}

fn spawn(index: usize, engine: Arc<Mutex<SharedMultiEngine>>) -> WorkerThread {
    let (job_tx, job_rx) = sync_channel::<Vec<RoutedMsg>>(JOB_QUEUE_BOUND);
    let (res_tx, res_rx) = sync_channel::<Vec<Phases>>(JOB_QUEUE_BOUND);
    let join = std::thread::Builder::new()
        .name(format!("sequin-shard-{index}"))
        .spawn(move || {
            while let Ok(lane) = job_rx.recv() {
                let outs = engine
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .apply_routed(&lane);
                if res_tx.send(outs).is_err() {
                    break;
                }
            }
        })
        .expect("spawn shard worker");
    WorkerThread {
        job_tx,
        res_rx,
        join,
    }
}

/// The pool's ingest edge: one per host, whatever the query count.
struct Router {
    stats: RouteStats,
    /// Events the routing index had a plan node for, and had none for: the
    /// pool reports these two [`PlanMetrics`] counters from its router,
    /// which sees each event once (a worker counts its deliveries).
    heard: u64,
    unheard: u64,
    /// Reusable owner-set scratch (one flag per shard).
    owners: Vec<bool>,
}

impl Router {
    /// Routes one stream item: pushes exactly one [`RoutedMsg`] onto every
    /// lane (one lane per shard), reading the owner set off the primary
    /// worker's routing index.
    fn route(
        &mut self,
        primary: &SharedMultiEngine,
        item: &StreamItem,
        lanes: &mut [Vec<RoutedMsg>],
    ) {
        let event = match item {
            StreamItem::Punctuation(t) => {
                self.stats.punctuations += 1;
                for lane in lanes.iter_mut() {
                    lane.push(RoutedMsg::Punctuation(*t));
                }
                return;
            }
            StreamItem::Event(event) => event,
        };
        let owners = &mut self.owners;
        match primary.routing(event) {
            None => {
                self.unheard += 1;
                owners.fill(false);
            }
            // a negation flank: any worker may hold a match it invalidates
            Some((entry, _)) if !entry.neg_queries.is_empty() => {
                self.heard += 1;
                self.stats.broadcast_events += 1;
                owners.fill(true);
            }
            Some((entry, stacks)) => {
                self.heard += 1;
                owners.fill(false);
                for &six in &entry.stacks {
                    owners[owner_of(&stacks[six], event, lanes.len() as u32) as usize] = true;
                }
            }
        }
        for (i, lane) in lanes.iter_mut().enumerate() {
            if owners[i] {
                self.stats.full_events[i] += 1;
                lane.push(RoutedMsg::Event(Arc::clone(event)));
            } else {
                self.stats.advances[i] += 1;
                lane.push(RoutedMsg::Advance(event.ts()));
            }
        }
    }
}

/// Every registered query on `shards ≥ 1` key-sliced workers behind one
/// ingest-edge router and one deterministic merge (see the module docs);
/// byte-identical to a pool of one at any worker count.
pub(crate) struct Pool {
    workers: Vec<Worker>,
    /// The registered queries, in registration order (every worker holds
    /// the same list behind its lock).
    queries: Vec<Arc<Query>>,
    router: Router,
    /// Per query, the most phase items one arrival's merge buffered.
    merge_peak: Vec<u64>,
}

impl Pool {
    /// An empty pool of `shards` workers (0 is taken as 1) evaluating
    /// under `config`.
    pub(crate) fn new(config: EngineConfig, shards: usize) -> Pool {
        let n = shards.max(1);
        let worker = |index: usize| {
            let slice = (n > 1).then_some(ShardSlice {
                index: index as u32,
                of: n as u32,
            });
            let engine = Arc::new(Mutex::new(SharedMultiEngine::sliced(config, slice)));
            let thread = slice.map(|_| spawn(index, Arc::clone(&engine)));
            Worker { engine, thread }
        };
        Pool {
            workers: (0..n).map(worker).collect(),
            queries: Vec::new(),
            router: Router {
                stats: RouteStats {
                    full_events: vec![0; n],
                    advances: vec![0; n],
                    ..RouteStats::default()
                },
                heard: 0,
                unheard: 0,
                owners: vec![false; n],
            },
            merge_peak: Vec::new(),
        }
    }

    /// Registers a query under `policy` with every worker; mid-stream, each
    /// opens the same epoch at the same position.
    pub(crate) fn register(&mut self, query: Arc<Query>, policy: DisorderPolicy) -> QueryId {
        for w in &self.workers {
            w.lock().register_with_policy(Arc::clone(&query), policy);
        }
        self.queries.push(query);
        self.merge_peak.push(0);
        QueryId::new(self.queries.len() - 1)
    }

    /// Number of registered queries.
    pub(crate) fn len(&self) -> usize {
        self.queries.len()
    }

    /// The query registered under `id`.
    pub(crate) fn query(&self, id: QueryId) -> &Arc<Query> {
        &self.queries[id.index()]
    }

    /// The primary worker: where the state every worker advances in
    /// lockstep (clocks, watermarks, slack bounds, the plan's shape) is
    /// read.
    pub(crate) fn primary(&self) -> MutexGuard<'_, SharedMultiEngine> {
        self.workers[0].lock()
    }

    /// `f` of every worker, in shard order.
    pub(crate) fn per_worker<T>(&self, f: impl Fn(&SharedMultiEngine) -> T) -> Vec<T> {
        self.workers.iter().map(|w| f(&w.lock())).collect()
    }

    /// The router's counters; `None` for a pool of one, which has no
    /// router.
    pub(crate) fn route_stats(&self) -> Option<RouteStats> {
        (self.workers.len() > 1).then(|| self.router.stats.clone())
    }

    /// Merges the workers' (sparse, ordered) phase sets into one output
    /// vector per item, tagged in registration order: phases of the *same*
    /// (arrival, query) combine, and nothing reorders across either.
    fn merge(&mut self, parts: Vec<Vec<Phases>>, items: usize) -> Vec<Vec<(QueryId, OutputItem)>> {
        let mut out: Vec<Vec<(QueryId, OutputItem)>> = (0..items).map(|_| Vec::new()).collect();
        let mut cursors: Vec<_> = parts
            .into_iter()
            .map(|v| v.into_iter().peekable())
            .collect();
        loop {
            let heads = cursors.iter_mut().filter_map(|c| c.peek());
            let Some(next) = heads.map(|&(item, query, _)| (item, query)).min() else {
                return out;
            };
            let phases = cursors
                .iter_mut()
                .filter_map(|c| c.next_if(|&(item, query, _)| (item, query) == next))
                .map(|(_, _, phased)| phased);
            let (item, query) = (next.0 as usize, next.1 as usize);
            let tagged = |o| out[item].push((QueryId::new(query), o));
            let buffered = PhasedOutput::merge_into(phases, tagged) as u64;
            self.merge_peak[query] = self.merge_peak[query].max(buffered);
        }
    }

    /// Ingests a run of arrivals, returning one output vector per item,
    /// each tagged in registration order. A run of several items is where
    /// a pool of several gets its parallelism.
    pub(crate) fn ingest_batch(&mut self, items: &[StreamItem]) -> Vec<Vec<(QueryId, OutputItem)>> {
        if let [only] = &self.workers[..] {
            return only.lock().ingest_batch(items);
        }
        // route the whole run at the edge, then hand each worker its lane
        let lane = || Vec::with_capacity(items.len());
        let mut lanes: Vec<Vec<RoutedMsg>> = self.workers.iter().map(|_| lane()).collect();
        let primary = self.workers[0].lock();
        for item in items {
            self.router.route(&primary, item, &mut lanes);
        }
        drop(primary);
        let peak = &mut self.router.stats.queue_depth_peak;
        *peak = (*peak).max(items.len() as u64);
        let parts: Vec<Vec<Phases>> = if items.len() == 1 {
            // one arrival: apply inline under each worker's lock — a thread
            // hand-off would only add latency, and the result is identical
            let run = |(w, lane): (&Worker, &Vec<RoutedMsg>)| w.lock().apply_routed(lane);
            self.workers.iter().zip(&lanes).map(run).collect()
        } else {
            for (w, lane) in self.workers.iter().zip(lanes) {
                w.thread().job_tx.send(lane).expect("shard worker alive");
            }
            let done = |w: &Worker| w.thread().res_rx.recv().expect("shard worker alive");
            self.workers.iter().map(done).collect()
        };
        self.merge(parts, items.len())
    }

    /// End-of-stream for every query (see [`Engine::finish`]).
    pub(crate) fn finish(&mut self) -> Vec<(QueryId, OutputItem)> {
        if let [only] = &self.workers[..] {
            return only.lock().finish();
        }
        let parts = self.workers.iter().map(|w| w.lock().finish_phased());
        let parts = parts.collect();
        self.merge(parts, 1).pop().unwrap_or_default()
    }

    /// One query's counters per worker, in shard order (shard 0
    /// additionally carries the costs every worker pays in lockstep:
    /// watermarks, negatives).
    pub(crate) fn per_shard_stats(&self, id: QueryId) -> Vec<RuntimeStats> {
        self.per_worker(|w| w.query_stats(id))
    }

    /// Per-query counters, in registration order, summed over the workers
    /// (one lock each: a recording server reads these around every batch).
    pub(crate) fn stats(&self) -> Vec<RuntimeStats> {
        let mut parts = self.workers.iter().map(|w| w.lock().stats());
        let mut agg = parts.next().expect("a pool has a worker");
        for part in parts {
            agg.iter_mut().zip(part).for_each(|(a, s)| *a += s);
        }
        for (a, peak) in agg.iter_mut().zip(&self.merge_peak) {
            a.merge_buffer_peak = a.merge_buffer_peak.max(*peak);
        }
        agg
    }

    /// `held` summed over the workers, less what the workers past the
    /// primary replicate of it (`replica`: negatives, counted once).
    fn held(
        &self,
        held: impl Fn(&SharedMultiEngine) -> usize,
        replica: impl Fn(&SharedMultiEngine) -> usize,
    ) -> usize {
        let of = |(i, w): (usize, &Worker)| {
            let w = w.lock();
            held(&w) - if i > 0 { replica(&w) } else { 0 }
        };
        self.workers.iter().enumerate().map(of).sum()
    }

    /// Total state held (pooled stacks and replicated negatives counted
    /// once).
    pub(crate) fn state_size(&self) -> usize {
        let negatives = |w: &SharedMultiEngine| {
            let of = |q| w.query_negatives_len(QueryId::new(q));
            (0..w.len()).map(of).sum()
        };
        self.held(|w| w.state_size(), negatives)
    }

    /// One query's logical state size (see
    /// [`SharedMultiEngine::query_state_size`]).
    pub(crate) fn query_state_size(&self, id: QueryId) -> usize {
        self.held(|w| w.query_state_size(id), |w| w.query_negatives_len(id))
    }

    /// One query's live partition-key index entries: workers own disjoint
    /// keys.
    pub(crate) fn query_partition_keys(&self, id: QueryId) -> usize {
        let keys = self.per_worker(|w| w.query_partition_keys(id));
        keys.into_iter().sum()
    }

    /// The plan's metrics: every worker compiles the same plan, so the
    /// structural gauges are the primary's — those of a pool of one — and
    /// the sharing counters, whose work is disjoint across workers, sum.
    pub(crate) fn plan_metrics(&self) -> PlanMetrics {
        let mut pm = self.primary().plan_metrics();
        if self.workers.len() > 1 {
            pm.routed_events = self.router.heard;
            pm.routing_misses = self.router.unheard;
        }
        for w in &self.workers[1..] {
            let part = w.lock().plan_metrics();
            pm.shared_partials += part.shared_partials;
            pm.fanout_outputs += part.fanout_outputs;
        }
        pm
    }

    /// One query's checkpoint blob: the union of the workers' state for
    /// it, in the format a pool of one writes.
    pub(crate) fn query_blob(&self, id: QueryId) -> Vec<u8> {
        let guards: Vec<MutexGuard<'_, SharedMultiEngine>> =
            self.workers.iter().map(Worker::lock).collect();
        let parts: Vec<&SharedMultiEngine> = guards.iter().map(|g| &**g).collect();
        SharedMultiEngine::merged_blob(&parts, id.index())
    }

    /// Restores every query from its blob, in registration order; each
    /// worker keeps the slice it owns. All-or-nothing: every worker decodes
    /// the same blobs before it commits anything, so a bad one fails at the
    /// first worker and leaves the pool untouched.
    pub(crate) fn restore_blobs(&mut self, blobs: &[&[u8]]) -> Result<(), CodecError> {
        self.workers
            .iter()
            .try_for_each(|w| w.lock().restore_blobs(blobs))
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        for w in &mut self.workers {
            // hang up the job queue; the worker loop exits on recv error
            if let Some(WorkerThread { job_tx, join, .. }) = w.thread.take() {
                drop(job_tx);
                let _ = join.join();
            }
        }
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("shards", &self.workers.len())
            .field("queries", &self.queries.len())
            .finish()
    }
}

/// One query on `shards ≥ 1` partition-sliced workers: the pool with
/// exactly one registration, as [`crate::NativeEngine`] is a plan of one.
/// Byte-identical to the single-threaded engine at any worker count; this
/// type only gives the one query the [`Engine`] trait and untagged outputs.
#[derive(Debug)]
pub struct ShardedEngine {
    pool: Pool,
}

impl ShardedEngine {
    /// Creates a pool of `shards` workers (clamped to at least 1).
    pub fn new(query: Arc<Query>, config: EngineConfig, shards: usize) -> ShardedEngine {
        let mut pool = Pool::new(config, shards);
        pool.register(query, config.policy);
        ShardedEngine { pool }
    }

    /// Number of workers in the pool.
    pub fn shard_count(&self) -> usize {
        self.pool.workers.len()
    }

    /// Per-worker counters, in shard order (shard 0 additionally carries
    /// the costs every worker pays in lockstep: watermarks, negatives).
    pub fn per_shard_stats(&self) -> Vec<RuntimeStats> {
        self.pool.per_shard_stats(Q)
    }

    /// The ingest-edge routing counters (full deliveries vs watermark-only
    /// advances per shard, broadcasts, queue high-water mark); all zero in
    /// a pool of one, which does not route.
    pub fn route_stats(&self) -> RouteStats {
        self.pool.router.stats.clone()
    }

    /// Per-worker [`SharedMultiEngine::oldest_stack_ts`], in shard order.
    /// Inspection hook for the purge-invariant property tests; not part of
    /// the stable API.
    #[doc(hidden)]
    pub fn worker_oldest_stack_ts(&self) -> Vec<Option<Timestamp>> {
        self.pool.per_worker(|w| w.oldest_stack_ts())
    }

    /// Per-worker negative-index sizes, in shard order. Inspection hook
    /// for the negation-flank broadcast property tests; not part of the
    /// stable API.
    #[doc(hidden)]
    pub fn worker_negative_lens(&self) -> Vec<usize> {
        self.pool.per_worker(|w| w.query_negatives_len(Q))
    }
}

impl Engine for ShardedEngine {
    fn ingest(&mut self, item: &StreamItem) -> Vec<OutputItem> {
        let mut per_item = self.pool.ingest_batch(std::slice::from_ref(item));
        untagged(per_item.pop().unwrap_or_default())
    }

    fn ingest_batch(&mut self, items: &[StreamItem]) -> Vec<(usize, OutputItem)> {
        let per_item = self.pool.ingest_batch(items).into_iter().enumerate();
        per_item
            .flat_map(|(ix, out)| out.into_iter().map(move |(_, o)| (ix, o)))
            .collect()
    }

    fn finish(&mut self) -> Vec<OutputItem> {
        untagged(self.pool.finish())
    }

    fn stats(&self) -> RuntimeStats {
        self.pool.stats()[Q.index()]
    }

    fn state_size(&self) -> usize {
        self.pool.query_state_size(Q)
    }

    fn query(&self) -> &Arc<Query> {
        self.pool.query(Q)
    }

    fn partition_keys(&self) -> usize {
        self.pool.query_partition_keys(Q)
    }

    // every worker observes every arrival (in full or as an advance), so
    // the primary's clock, watermark and disorder-bound estimate are the
    // pool's

    fn watermark(&self) -> Option<Timestamp> {
        Some(self.pool.primary().query_watermark(Q))
    }

    fn clock(&self) -> Option<Timestamp> {
        Some(self.pool.primary().query_clock(Q))
    }

    fn slack_bound(&self) -> Option<sequin_types::Duration> {
        Some(self.pool.primary().query_slack(Q))
    }

    fn snapshot(&self) -> Result<Vec<u8>, CodecError> {
        Ok(self.pool.query_blob(Q))
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        self.pool.restore_blobs(&[bytes])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DisorderPolicy;
    use crate::native::NativeEngine;
    use crate::traits::run_to_end;
    use sequin_query::parse;
    use sequin_types::{Duration, Event, EventId, TypeRegistry, Value, ValueKind};

    fn registry() -> TypeRegistry {
        let mut reg = TypeRegistry::new();
        for name in ["A", "B", "C", "N"] {
            reg.declare(name, &[("x", ValueKind::Int), ("tag", ValueKind::Int)])
                .unwrap();
        }
        reg
    }

    fn item(reg: &TypeRegistry, ty: &str, id: u64, ts: u64, tag: i64) -> StreamItem {
        StreamItem::Event(Arc::new(
            Event::builder(reg.lookup(ty).unwrap(), Timestamp::new(ts))
                .id(EventId::new(id))
                .attr(Value::Int(tag))
                .attr(Value::Int(tag))
                .build(),
        ))
    }

    fn stream(reg: &TypeRegistry) -> Vec<StreamItem> {
        let mut items = Vec::new();
        let mut id = 0;
        for t in 0..240u64 {
            id += 1;
            // negatives are sparse so some matches survive negation
            let ty = match t % 10 {
                9 => "N",
                0 | 3 | 6 => "A",
                1 | 4 | 7 => "B",
                _ => "C",
            };
            // blocks of four consecutive arrivals share a tag so every
            // block yields correlated A/B/C candidates
            let tag = ((t / 4) % 5) as i64;
            let ts = if t % 5 == 3 { t.saturating_sub(6) } else { t };
            items.push(item(reg, ty, id, ts * 2, tag));
        }
        items
    }

    fn partitioned_query(reg: &TypeRegistry) -> Arc<Query> {
        let q = parse(
            "PATTERN SEQ(A a, !N n, B b, C c) WHERE a.tag == b.tag AND b.tag == c.tag WITHIN 120",
            reg,
        )
        .unwrap();
        assert!(q.partition().is_some());
        q
    }

    #[test]
    fn sharded_outputs_equal_single_threaded_all_policies() {
        let reg = registry();
        let q = partitioned_query(&reg);
        let items = stream(&reg);
        for policy in [
            DisorderPolicy::Conservative,
            DisorderPolicy::Speculative,
            DisorderPolicy::Lazy,
            DisorderPolicy::AdaptiveSlack { accuracy: 90 },
        ] {
            let mut cfg = EngineConfig::with_k(Duration::new(20));
            cfg.policy = policy;
            let mut oracle = NativeEngine::new(Arc::clone(&q), cfg);
            let want = run_to_end(&mut oracle, &items);
            assert!(!want.is_empty());
            for n in [1usize, 2, 3, 5] {
                let mut pool = ShardedEngine::new(Arc::clone(&q), cfg, n);
                let got = run_to_end(&mut pool, &items);
                assert_eq!(got, want, "shards={n} {policy:?}");
            }
        }
    }

    #[test]
    fn batched_ingest_equals_per_item_ingest() {
        let reg = registry();
        let q = partitioned_query(&reg);
        let items = stream(&reg);
        let cfg = EngineConfig::with_k(Duration::new(20));
        let mut per_item = ShardedEngine::new(Arc::clone(&q), cfg, 3);
        let mut want = Vec::new();
        for it in &items {
            want.extend(per_item.ingest(it));
        }
        want.extend(per_item.finish());

        let mut batched = ShardedEngine::new(q, cfg, 3);
        let mut got = Vec::new();
        for chunk in items.chunks(17) {
            got.extend(batched.ingest_batch(chunk).into_iter().map(|(_, o)| o));
        }
        got.extend(batched.finish());
        assert_eq!(got, want);
        assert!(batched.stats().merge_buffer_peak >= 1);
        assert!(batched.route_stats().queue_depth_peak >= 17);
    }

    #[test]
    fn snapshot_interchanges_with_native_and_other_shard_counts() {
        let reg = registry();
        let q = partitioned_query(&reg);
        let items = stream(&reg);
        let cfg = EngineConfig::with_k(Duration::new(20));
        let (head, tail) = items.split_at(items.len() / 2);

        // oracle runs straight through
        let mut oracle = NativeEngine::new(Arc::clone(&q), cfg);
        let mut want = Vec::new();
        for it in head {
            want.extend(oracle.ingest(it));
        }
        let mut tail_want = Vec::new();
        for it in tail {
            tail_want.extend(oracle.ingest(it));
        }
        tail_want.extend(oracle.finish());

        // a 2-worker pool checkpoints mid-stream...
        let mut pool2 = ShardedEngine::new(Arc::clone(&q), cfg, 2);
        let mut got_head = Vec::new();
        for it in head {
            got_head.extend(pool2.ingest(it));
        }
        assert_eq!(got_head, want);
        let snap = pool2.snapshot().unwrap();

        // ...and both a 5-worker pool and a plain single engine resume it
        let mut pool5 = ShardedEngine::new(Arc::clone(&q), cfg, 5);
        pool5.restore(&snap).unwrap();
        let mut got5 = Vec::new();
        for it in tail {
            got5.extend(pool5.ingest(it));
        }
        got5.extend(pool5.finish());
        assert_eq!(got5, tail_want);

        let mut single = NativeEngine::new(Arc::clone(&q), cfg);
        single.restore(&snap).unwrap();
        let mut got1 = Vec::new();
        for it in tail {
            got1.extend(single.ingest(it));
        }
        got1.extend(single.finish());
        assert_eq!(got1, tail_want);

        // and the merged snapshot is byte-identical to what the resumed
        // single engine would itself have written at the same point
        let mut native_half = NativeEngine::new(Arc::clone(&q), cfg);
        for it in head {
            native_half.ingest(it);
        }
        // counters differ in routing-only fields, so compare via restore:
        // restoring the pool snapshot into a fresh single engine and
        // re-snapshotting must be a fixed point
        let mut fixed = NativeEngine::new(q, cfg);
        fixed.restore(&snap).unwrap();
        assert_eq!(fixed.snapshot().unwrap(), snap);
    }

    #[test]
    fn unpartitionable_query_runs_on_overflow_shard() {
        let reg = registry();
        let q = parse("PATTERN SEQ(A a, B b) WITHIN 100", &reg).unwrap();
        assert!(q.partition().is_none());
        let items = stream(&reg);
        let cfg = EngineConfig::with_k(Duration::new(20));
        let mut oracle = NativeEngine::new(Arc::clone(&q), cfg);
        let want = run_to_end(&mut oracle, &items);
        let mut pool = ShardedEngine::new(q, cfg, 4);
        let got = run_to_end(&mut pool, &items);
        assert_eq!(got, want);
        // all positive work landed on shard 0
        let per = pool.per_shard_stats();
        assert!(per[0].insertions > 0);
        assert!(per[1..].iter().all(|s| s.insertions == 0));
        // and the router only delivered full events to shard 0 (the N
        // flank events broadcast; everything else advanced shards 1..)
        let route = pool.route_stats();
        assert!(route.advances[0] < route.advances[1]);
    }

    #[test]
    fn per_shard_counters_sum_to_oracle_totals() {
        let reg = registry();
        let q = partitioned_query(&reg);
        let items = stream(&reg);
        let cfg = EngineConfig::with_k(Duration::new(20));
        let mut oracle = NativeEngine::new(Arc::clone(&q), cfg);
        run_to_end(&mut oracle, &items);
        let mut pool = ShardedEngine::new(q, cfg, 4);
        run_to_end(&mut pool, &items);
        let want = oracle.stats();
        let got = pool.stats();
        assert_eq!(got.insertions, want.insertions);
        assert_eq!(got.matches_constructed, want.matches_constructed);
        assert_eq!(got.negated_matches, want.negated_matches);
        assert_eq!(got.purged, want.purged);
        assert_eq!(got.purge_runs, want.purge_runs);
        assert_eq!(got.late_drops, want.late_drops);
        assert!(got.max_stack_depth <= want.max_stack_depth);
        assert!(got.events_routed >= want.events_routed);
    }

    #[test]
    fn every_event_reaches_every_shard_exactly_once() {
        let reg = registry();
        let q = partitioned_query(&reg);
        let items = stream(&reg);
        let events = items
            .iter()
            .filter(|i| matches!(i, StreamItem::Event(_)))
            .count() as u64;
        let mut pool = ShardedEngine::new(q, EngineConfig::with_k(Duration::new(20)), 4);
        run_to_end(&mut pool, &items);
        let route = pool.route_stats();
        for i in 0..4 {
            assert_eq!(
                route.full_events[i] + route.advances[i],
                events,
                "shard {i}"
            );
            // every negation flank was broadcast in full
            assert!(route.full_events[i] >= route.broadcast_events);
        }
        assert_eq!(route.broadcast_events, 24, "one N per 10 arrivals");
    }
}
