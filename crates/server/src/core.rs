//! The server's single-threaded evaluation core.
//!
//! [`EngineCore`] owns everything the engine thread touches: the
//! evaluation fanning the shared arrival stream out to every registered
//! query, the text→id subscription table, and — when durability is
//! configured — a multi-query adaptation of the checkpoint/exactly-once
//! machinery from [`sequin_engine::Checkpointer`]. Keeping it free of
//! threads and sockets makes the recovery semantics testable in
//! isolation; `server.rs` is then only plumbing.
//!
//! ## Where a query runs
//!
//! The core evaluates through one private `Eval`: a [`SharedMultiEngine`]
//! (the plan `sequin-plan` compiles: pooled AIS stacks, one partial-match
//! walk per common SEQ prefix, insert-time local predicates, an
//! event-type routing index), a [`MultiEngine`] of queries that run an
//! engine of their own, and a host table recording, per query in
//! registration order, which of the two hosts it and under what local id.
//! `host_for` is the only decision, and reads only configuration and the
//! query: the control strategies (`Buffered`, `InOrder`) get their own
//! engine because the plan compiler does not cover them; a Native query
//! that sharding can parallelize (`shards > 1` and an equality chain to
//! hash on) gets its own routed [`sequin_engine::ShardedEngine`] pool;
//! every other Native query joins the plan. Outputs carry global ids and
//! are interleaved back into registration order per arrival; when one
//! side hosts nothing the other's outputs and snapshot pass through
//! untouched.
//!
//! Both hosts produce byte-identical per-query output and write the same
//! per-logical-query checkpoint blob, so a durable restart may change the
//! shard count — and with it a query's host — freely.
//!
//! ## Durability model
//!
//! A checkpoint is one sealed envelope holding the ingest position, the
//! emission-log high-water mark, the registered query *texts*, and the
//! evaluation's snapshot (a [`MultiEngine::snapshot`]-format envelope of
//! per-query blobs, whichever host wrote each). Persisting the texts
//! makes a restart self-contained: resume re-parses and re-registers the
//! same queries in the same order (ids are dense registration indices, so
//! they are stable) before restoring operator state. The emission log
//! records `(query id, output kind, match key)` per delivered output; on
//! resume the suffix past the checkpoint's mark seeds a suppression
//! multiset that swallows replayed duplicates — the same exactly-once
//! construction the single-engine `Checkpointer` uses, extended with the
//! query id.
//!
//! Only canonical texts are persisted: a text that deduplicated onto an
//! existing logical query (see [`EngineCore::subscribe`]) is an alias and
//! is re-derived when its client re-subscribes after a restart.
//!
//! Subscribing a *new* query immediately takes a checkpoint (when durable)
//! so registrations survive a crash even if no event has arrived since.

use std::collections::BTreeMap;
use std::sync::Arc;

use sequin_engine::{
    stable_query_id, CheckpointStore, DisorderPolicy, EngineConfig, MultiEngine, OutputItem,
    OutputKind, PlanMetrics, QueryId, SharedMultiEngine, Strategy,
};
use sequin_obs::{Bundle, MetricsSnapshot, ObsConfig, Recorder, Span, SpanKind};
use sequin_query::{parse, Query, QueryError};
use sequin_runtime::{seal_deadline, MatchKey, RuntimeStats};
use sequin_types::codec::{open_envelope, seal_envelope};
use sequin_types::{
    CodecError, Decode, Encode, Reader, StreamItem, Timestamp, TypeRegistry, Writer,
};

use crate::frame::{kind_tag, policy_from_wire, policy_to_wire, ErrorCode};
use crate::stats::ServerStats;

/// Evaluation settings shared by every query the core registers.
#[derive(Clone)]
pub struct CoreConfig {
    /// Schema the server negotiates with clients (fingerprint) and parses
    /// query texts against.
    pub registry: Arc<TypeRegistry>,
    /// Engine strategy used for every registered query.
    pub strategy: Strategy,
    /// Per-engine configuration (disorder bound, emission policy, ...).
    pub engine: EngineConfig,
    /// `Some(n)` checkpoints every `n` ingested stream items and maintains
    /// the emission log for exactly-once restarts; `None` disables
    /// durability entirely (no log, no suppression).
    pub checkpoint_every: Option<u64>,
    /// Worker shards per Native query engine (1 = plain single-threaded
    /// evaluation; >1 builds a [`sequin_engine::ShardedEngine`] pool).
    /// Snapshots are shard-count-agnostic, so a restart may resume with a
    /// different value.
    pub shards: usize,
    /// Observability: latency/deferral recording and the structured trace
    /// ring. [`ObsConfig::disabled`] turns all recording off (a single
    /// predicted branch per batch — the "configured off ⇒ zero overhead"
    /// path the ledger's `obs.overhead_pct` measures).
    pub obs: ObsConfig,
}

impl CoreConfig {
    /// A volatile (non-durable) core over `registry` with the given
    /// strategy and engine settings.
    pub fn new(
        registry: Arc<TypeRegistry>,
        strategy: Strategy,
        engine: EngineConfig,
    ) -> CoreConfig {
        CoreConfig {
            registry,
            strategy,
            engine,
            checkpoint_every: None,
            shards: 1,
            obs: ObsConfig::default(),
        }
    }
}

/// Why a SUBSCRIBE was rejected, pre-mapped to the wire-level
/// [`ErrorCode`] the server reports: syntax errors are [`BadQuery`]
/// (`ErrorCode::BadQuery`), semantic rejections are
/// [`ErrorCode::BadAnalysis`]. The message carries the analyzer's
/// diagnostic, including the byte offset of the offending construct when
/// one is known (`... (at byte N)`).
///
/// [`BadQuery`]: ErrorCode::BadQuery
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubscribeError {
    /// The wire error code to report.
    pub code: ErrorCode,
    /// Human-readable diagnostic (offset included when known).
    pub message: String,
}

impl From<QueryError> for SubscribeError {
    fn from(e: QueryError) -> SubscribeError {
        let code = match &e {
            QueryError::Parse(_) => ErrorCode::BadQuery,
            QueryError::Analyze(_) => ErrorCode::BadAnalysis,
        };
        SubscribeError {
            code,
            message: e.to_string(),
        }
    }
}

impl std::fmt::Display for SubscribeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for SubscribeError {}

fn encode_log_record(qid: QueryId, kind_tag: u8, key: &MatchKey) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(qid.index() as u64);
    w.put_u8(kind_tag);
    key.encode(&mut w);
    seal_envelope(&w.into_bytes())
}

fn decode_log_record(bytes: &[u8]) -> Result<(u64, u8, MatchKey), CodecError> {
    let payload = open_envelope(bytes)?;
    let mut r = Reader::new(payload);
    let qid = r.get_u64()?;
    let tag = r.get_u8()?;
    if tag > 1 {
        return Err(CodecError::InvalidTag {
            what: "OutputKind",
            tag,
        });
    }
    let key = MatchKey::decode(&mut r)?;
    r.finish()?;
    Ok((qid, tag, key))
}

/// Which side of [`Eval`] hosts a query: the shared plan, or an engine
/// of the query's own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Plan,
    Own,
}

/// The one backend decision. It depends only on configuration and the
/// query, both persisted, so a resume rebuilds the same host table.
fn host_for(cfg: &CoreConfig, q: &Query) -> Side {
    // sharding can only parallelize a query with an equality chain to
    // hash on; the rest share the plan instead of each paying for an
    // engine, and the plan compiler does not cover the control strategies
    let routed_pool = cfg.shards > 1 && cfg.engine.partitioned && q.partition().is_some();
    if cfg.strategy != Strategy::Native || routed_pool {
        Side::Own
    } else {
        Side::Plan
    }
}

/// The per-query blobs of a [`MultiEngine::snapshot`]-format envelope
/// (`count` + length-prefixed blobs), borrowed from it.
fn envelope_blobs(bytes: &[u8]) -> Result<Vec<&[u8]>, CodecError> {
    let mut r = Reader::new(open_envelope(bytes)?);
    let blobs = (0..r.get_len()?).map(|_| r.get_len().and_then(|len| r.take(len)));
    let blobs = blobs.collect::<Result<Vec<_>, _>>()?;
    r.finish()?;
    Ok(blobs)
}

/// The evaluation behind the core (see the module docs): the shared plan,
/// the queries that run engines of their own, and the host table that
/// says which is which. Global query ids are dense registration indices
/// across both sides; each side numbers its own queries densely too.
struct Eval {
    plan: SharedMultiEngine,
    own: MultiEngine,
    /// Side and side-local id per global query, in registration order.
    hosts: Vec<(Side, QueryId)>,
    /// Global id per plan-local id.
    plan_globals: Vec<QueryId>,
    /// Global id per own-local id.
    own_globals: Vec<QueryId>,
}

impl Eval {
    fn new(cfg: &CoreConfig) -> Eval {
        Eval {
            plan: SharedMultiEngine::new(cfg.engine),
            own: MultiEngine::new(),
            hosts: Vec::new(),
            plan_globals: Vec::new(),
            own_globals: Vec::new(),
        }
    }

    fn register(&mut self, cfg: &CoreConfig, q: Arc<Query>, policy: DisorderPolicy) -> QueryId {
        self.register_on(host_for(cfg, &q), cfg, q, policy)
    }

    fn register_on(
        &mut self,
        side: Side,
        cfg: &CoreConfig,
        q: Arc<Query>,
        policy: DisorderPolicy,
    ) -> QueryId {
        let global = QueryId::from_index(self.hosts.len());
        let local = match side {
            Side::Plan => {
                self.plan_globals.push(global);
                self.plan.register_with_policy(q, policy)
            }
            Side::Own => {
                self.own_globals.push(global);
                // a routed pool when `shards > 1` asks for one (and the
                // strategy supports it), a plain engine otherwise
                let mut engine = cfg.engine;
                engine.policy = policy;
                let engine =
                    sequin_engine::make_sharded_engine(cfg.strategy, q, engine, cfg.shards);
                self.own.register_engine(engine)
            }
        };
        self.hosts.push((side, local));
        global
    }

    /// Both sides' outputs for one arrival under global ids, in global
    /// registration order (each side already emits in its local
    /// registration order, and a stable sort preserves emission order
    /// within a query).
    fn merge(
        &self,
        plan: Vec<(QueryId, OutputItem)>,
        own: Vec<(QueryId, OutputItem)>,
    ) -> Vec<(QueryId, OutputItem)> {
        let interleave = !plan.is_empty() && !own.is_empty();
        let plan = plan
            .into_iter()
            .map(|(l, o)| (self.plan_globals[l.index()], o));
        let own = own
            .into_iter()
            .map(|(l, o)| (self.own_globals[l.index()], o));
        let mut out: Vec<_> = plan.chain(own).collect();
        if interleave {
            out.sort_by_key(|(q, _)| q.index());
        }
        out
    }

    // A side that hosts everything numbers its queries as the core does,
    // so its outputs and its snapshot envelope pass through untouched.

    fn ingest_batch(&mut self, items: &[StreamItem]) -> Vec<Vec<(QueryId, OutputItem)>> {
        if self.own.is_empty() {
            return self.plan.ingest_batch(items);
        }
        if self.plan.is_empty() {
            return self.own.ingest_batch(items);
        }
        let plan = self.plan.ingest_batch(items);
        let own = self.own.ingest_batch(items);
        plan.into_iter()
            .zip(own)
            .map(|(p, o)| self.merge(p, o))
            .collect()
    }

    fn finish(&mut self) -> Vec<(QueryId, OutputItem)> {
        let (plan, own) = (self.plan.finish(), self.own.finish());
        self.merge(plan, own)
    }

    fn stats(&self) -> Vec<RuntimeStats> {
        let (plan, own) = (self.plan.stats(), self.own.stats());
        let of = |&(side, l): &(Side, QueryId)| match side {
            Side::Plan => plan[l.index()],
            Side::Own => own[l.index()],
        };
        self.hosts.iter().map(of).collect()
    }

    fn watermark(&self) -> Option<Timestamp> {
        let sides = [self.plan.watermark(), self.own.watermark()];
        sides.into_iter().flatten().min()
    }

    fn snapshot(&self) -> Result<Vec<u8>, CodecError> {
        if self.own.is_empty() {
            return self.plan.snapshot();
        }
        if self.plan.is_empty() {
            return self.own.snapshot();
        }
        // every side writes the same per-logical-query blob; in global
        // order the envelope is indistinguishable from a one-sided one
        let plan = self.plan.snapshot()?;
        let plan = envelope_blobs(&plan)?;
        let mut w = Writer::new();
        w.put_u64(self.hosts.len() as u64);
        for &(side, l) in &self.hosts {
            match side {
                Side::Plan => w.put_bytes(plan[l.index()]),
                Side::Own => w.put_bytes(&self.own.engine(l).snapshot()?),
            }
        }
        Ok(seal_envelope(&w.into_bytes()))
    }

    fn restore(&mut self, blob: &[u8]) -> Result<(), CodecError> {
        if self.own.is_empty() {
            return self.plan.restore(blob);
        }
        if self.plan.is_empty() {
            return self.own.restore(blob);
        }
        let blobs = envelope_blobs(blob)?;
        if blobs.len() != self.hosts.len() {
            return Err(CodecError::SnapshotMismatch("hybrid query count"));
        }
        let envelope_of = |side: Side, count: usize| {
            let mut w = Writer::new();
            w.put_u64(count as u64);
            for (_, b) in self.hosts.iter().zip(&blobs).filter(|(h, _)| h.0 == side) {
                w.put_bytes(b);
            }
            seal_envelope(&w.into_bytes())
        };
        let plan = envelope_of(Side::Plan, self.plan_globals.len());
        let own = envelope_of(Side::Own, self.own_globals.len());
        self.plan.restore(&plan)?;
        self.own.restore(&own)
    }

    /// Asks the query's host: the plan's per-query attribution, or the
    /// query's own engine.
    fn host<T>(
        &self,
        qid: QueryId,
        plan: impl FnOnce(&SharedMultiEngine, QueryId) -> T,
        own: impl FnOnce(&dyn sequin_engine::Engine) -> T,
    ) -> T {
        match self.hosts[qid.index()] {
            (Side::Plan, l) => plan(&self.plan, l),
            (Side::Own, l) => own(self.own.engine(l)),
        }
    }

    fn query_clock(&self, qid: QueryId) -> Option<Timestamp> {
        self.host(qid, |p, l| Some(p.query_clock(l)), |e| e.clock())
    }

    fn query_watermark(&self, qid: QueryId) -> Option<Timestamp> {
        self.host(qid, |p, l| Some(p.query_watermark(l)), |e| e.watermark())
    }

    /// One query's live disorder slack bound `k̂` — fixed for the
    /// conservative/speculative/lazy policies, the control loop's current
    /// estimate under adaptive slack. `None` when the hosting engine does
    /// not expose one.
    fn query_slack(&self, qid: QueryId) -> Option<sequin_types::Duration> {
        self.host(qid, |p, l| Some(p.query_slack(l)), |e| e.slack_bound())
    }

    /// One query's logical state size — what its isolated engine reports.
    fn query_state_size(&self, qid: QueryId) -> usize {
        self.host(qid, |p, l| p.query_state_size(l), |e| e.state_size())
    }

    fn per_shard_stats(&self, qid: QueryId) -> Vec<RuntimeStats> {
        let plan = |p: &SharedMultiEngine, l: QueryId| vec![p.stats()[l.index()]];
        self.host(qid, plan, |e| e.per_shard_stats())
    }

    /// Ingest-edge routing counters for one query's sharded pool (`None`
    /// for single-threaded evaluation, including plan-hosted queries).
    fn route_stats(&self, qid: QueryId) -> Option<sequin_engine::RouteStats> {
        self.host(qid, |_, _| None, |e| e.route_stats())
    }
}

/// The engine thread's state: subscriptions, evaluation, durability.
pub struct EngineCore {
    cfg: CoreConfig,
    eval: Eval,
    /// `(query text, id)` in registration order: one entry per *logical*
    /// query, `queries[i].1.index() == i`.
    queries: Vec<(String, QueryId)>,
    /// Analyzed form of each logical query (same indexing as `queries`) —
    /// the structural-dedup comparison key and the stable-id source.
    parsed: Vec<Arc<Query>>,
    /// Effective disorder policy per logical query (same indexing as
    /// `queries`) — whatever the first subscriber negotiated, persisted in
    /// checkpoints so a resume rebuilds identical engines.
    policies: Vec<DisorderPolicy>,
    /// Retractions delivered per query by *this* process (replayed
    /// duplicates excluded) — the `sequin_retraction_emitted` series.
    retractions: Vec<u64>,
    /// Texts that deduplicated onto an existing logical query. Not
    /// persisted in checkpoints; rebuilt lazily as clients re-subscribe.
    aliases: Vec<(String, QueryId)>,
    store: CheckpointStore,
    /// Stream items ingested so far (the clients' replay cursor).
    position: u64,
    last_ckpt_position: u64,
    /// Replay-dedup multiset: outputs the pre-crash process delivered that
    /// deterministic replay will regenerate.
    suppress: BTreeMap<(u64, u8, MatchKey), u64>,
    /// Checkpoint counters describing *this* process (not the snapshot).
    extra: RuntimeStats,
    /// Set when the log or checkpoints changed since the last
    /// [`EngineCore::take_dirty`] — the server's cue to persist the store.
    dirty: bool,
    drained: bool,
    /// Observability recorder: per-query latency/deferral distributions
    /// and the structured trace ring.
    obs: Recorder,
}

impl std::fmt::Debug for EngineCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineCore")
            .field("queries", &self.queries.len())
            .field("position", &self.position)
            .field("checkpoints", &self.store.checkpoint_count())
            .field("log_len", &self.store.log_len())
            .field("drained", &self.drained)
            .finish()
    }
}

impl EngineCore {
    /// A fresh core with no queries and an empty store.
    pub fn new(cfg: CoreConfig) -> EngineCore {
        let obs = Recorder::new(cfg.obs);
        let eval = Eval::new(&cfg);
        EngineCore {
            cfg,
            eval,
            queries: Vec::new(),
            parsed: Vec::new(),
            policies: Vec::new(),
            retractions: Vec::new(),
            aliases: Vec::new(),
            store: CheckpointStore::new(),
            position: 0,
            last_ckpt_position: 0,
            suppress: BTreeMap::new(),
            extra: RuntimeStats::default(),
            dirty: false,
            drained: false,
            obs,
        }
    }

    /// Recovers from persisted artifacts. Returns the core plus the stream
    /// position clients must replay from (0 on a cold start).
    ///
    /// The fallback ladder mirrors [`sequin_engine::Checkpointer::resume`]:
    /// newest intact checkpoint wins; corrupted, version-skewed, or
    /// unparsable ones are counted in
    /// [`RuntimeStats::checkpoints_rejected`] and skipped; if none survive,
    /// recovery degrades to a cold start. The emission-log suffix past the
    /// accepted checkpoint's mark then seeds replay suppression.
    pub fn resume(cfg: CoreConfig, store: CheckpointStore) -> (EngineCore, u64) {
        let mut rejected = 0u64;
        let mut accepted = None;
        for ckpt in store.checkpoints_newest_first() {
            match Self::open_checkpoint(&cfg, ckpt, store.log_len()) {
                Ok(ok) => {
                    accepted = Some(ok);
                    break;
                }
                Err(_) => rejected += 1,
            }
        }
        let (position, log_mark, eval, queries, parsed, policies) =
            accepted.unwrap_or_else(|| (0, 0, Eval::new(&cfg), Vec::new(), Vec::new(), Vec::new()));
        let mut suppress: BTreeMap<(u64, u8, MatchKey), u64> = BTreeMap::new();
        for rec in store.log_records().skip(log_mark) {
            match decode_log_record(rec) {
                Ok((qid, tag, key)) => *suppress.entry((qid, tag, key)).or_insert(0) += 1,
                Err(_) => rejected += 1, // corrupt log record: cannot dedup it
            }
        }
        let obs = Recorder::new(cfg.obs);
        let core = EngineCore {
            cfg,
            eval,
            queries,
            parsed,
            policies,
            retractions: Vec::new(),
            aliases: Vec::new(),
            store,
            position,
            last_ckpt_position: position,
            suppress,
            extra: RuntimeStats {
                checkpoints_rejected: rejected,
                ..RuntimeStats::default()
            },
            dirty: false,
            drained: false,
            obs,
        };
        (core, position)
    }

    #[allow(clippy::type_complexity)]
    fn open_checkpoint(
        cfg: &CoreConfig,
        bytes: &[u8],
        log_len: usize,
    ) -> Result<
        (
            u64,
            usize,
            Eval,
            Vec<(String, QueryId)>,
            Vec<Arc<Query>>,
            Vec<DisorderPolicy>,
        ),
        CodecError,
    > {
        let payload = open_envelope(bytes)?;
        let mut r = Reader::new(payload);
        let position = r.get_u64()?;
        let log_mark = r.get_u64()? as usize;
        if log_mark > log_len {
            return Err(CodecError::SnapshotMismatch("emission log length"));
        }
        let n = r.get_u64()?;
        if n > r.remaining() as u64 {
            return Err(CodecError::BadLength);
        }
        let mut texts = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let text = r.get_str()?;
            // the effective policy rides along as the same (mode, knob)
            // pair SUBSCRIBE carries; mode 0 never reaches a checkpoint
            let policy = policy_from_wire(r.get_u8()?, r.get_u8()?)?
                .ok_or(CodecError::SnapshotMismatch("persisted query policy"))?;
            texts.push((text, policy));
        }
        let blob = r.get_bytes()?;
        r.finish()?;
        // The blob is host-agnostic (an envelope of per-logical-query
        // blobs), so the resuming core hosts each query where *its* config
        // says and restores into that — a blob the plan wrote restores
        // into a query's own engine and vice versa.
        let mut eval = Eval::new(cfg);
        let mut queries = Vec::with_capacity(texts.len());
        let mut parsed = Vec::with_capacity(texts.len());
        let mut policies = Vec::with_capacity(texts.len());
        for (text, policy) in texts {
            let q = parse(&text, &cfg.registry)
                .map_err(|_| CodecError::SnapshotMismatch("persisted query text"))?;
            let id = eval.register(cfg, q.clone(), policy);
            queries.push((text, id));
            parsed.push(q);
            policies.push(policy);
        }
        eval.restore(&blob)?;
        Ok((position, log_mark, eval, queries, parsed, policies))
    }

    fn durable(&self) -> bool {
        self.cfg.checkpoint_every.is_some()
    }

    /// Registers `text` as a query, or returns the existing id when it
    /// names a query already registered (clients re-subscribing after a
    /// reconnect land on their old query and its retained state).
    ///
    /// Deduplication is *structural*, not textual: the text is parsed and
    /// analyzed, and if the normalized query equals one already registered
    /// — same pattern, predicates, window, and projection, however the
    /// text was spelled — the existing logical query's id is returned and
    /// the new spelling is remembered as an alias. Only genuinely new
    /// queries reach the evaluation (and, when the plan hosts them,
    /// trigger an incremental recompile).
    ///
    /// # Errors
    ///
    /// [`SubscribeError`] with [`ErrorCode::BadQuery`] on a syntax error
    /// or [`ErrorCode::BadAnalysis`] on a semantic one; the message embeds
    /// the byte offset of the offending construct when known.
    pub fn subscribe(&mut self, text: &str) -> Result<QueryId, SubscribeError> {
        self.subscribe_with_policy(text, None).map(|(id, _)| id)
    }

    /// [`EngineCore::subscribe`] with an explicit disorder-policy request:
    /// `None` accepts the server's configured default. Returns the id
    /// *and* the effective policy — when the text lands on an already
    /// registered query (textually, as an alias, or structurally), that
    /// query's policy wins regardless of what was requested, and the
    /// caller learns which one it got. Only a genuinely new registration
    /// binds the requested policy.
    pub fn subscribe_with_policy(
        &mut self,
        text: &str,
        policy: Option<DisorderPolicy>,
    ) -> Result<(QueryId, DisorderPolicy), SubscribeError> {
        if let Some((_, id)) = self.queries.iter().find(|(t, _)| t == text) {
            return Ok((*id, self.policies[id.index()]));
        }
        if let Some((_, id)) = self.aliases.iter().find(|(t, _)| t == text) {
            return Ok((*id, self.policies[id.index()]));
        }
        let q = parse(text, &self.cfg.registry)?;
        if let Some(ix) = self.parsed.iter().position(|p| **p == *q) {
            let id = self.queries[ix].1;
            self.aliases.push((text.to_owned(), id));
            return Ok((id, self.policies[ix]));
        }
        let policy = policy.unwrap_or(self.cfg.engine.policy);
        let id = self.eval.register(&self.cfg, q.clone(), policy);
        self.queries.push((text.to_owned(), id));
        self.parsed.push(q);
        self.policies.push(policy);
        if self.durable() {
            // make the registration itself crash-safe
            self.checkpoint_now();
        }
        Ok((id, policy))
    }

    /// The effective disorder policy of a registered query.
    pub fn query_policy(&self, id: QueryId) -> DisorderPolicy {
        self.policies[id.index()]
    }

    /// Ingests one arrival into every query; returns the outputs to
    /// deliver (replay duplicates already swallowed). Ignored after
    /// [`EngineCore::finish`].
    pub fn ingest(&mut self, item: &StreamItem) -> Vec<(QueryId, OutputItem)> {
        self.ingest_batch(std::slice::from_ref(item))
    }

    /// Ingests a run of arrivals through [`MultiEngine::ingest_batch`] —
    /// the entry point that lets sharded pools use their worker threads.
    ///
    /// Outputs, log records, and checkpoints are identical to item-by-item
    /// [`EngineCore::ingest`] calls: the run is split at checkpoint
    /// boundaries so every checkpoint captures the engine state at exactly
    /// the position it records, never mid-cadence.
    pub fn ingest_batch(&mut self, items: &[StreamItem]) -> Vec<(QueryId, OutputItem)> {
        if self.drained {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut rest = items;
        while !rest.is_empty() {
            let take = match self.cfg.checkpoint_every {
                Some(n) => {
                    let since = self.position.saturating_sub(self.last_ckpt_position);
                    (n.saturating_sub(since).max(1) as usize).min(rest.len())
                }
                None => rest.len(),
            };
            let (chunk, tail) = rest.split_at(take);
            rest = tail;
            let obs_on = self.obs.enabled();
            let before = if obs_on {
                self.eval.stats()
            } else {
                Vec::new()
            };
            let chunk_start = out.len();
            for raw in self.eval.ingest_batch(chunk) {
                self.position += 1;
                let filtered = self.filter_and_log(raw);
                out.extend(filtered);
            }
            if obs_on {
                self.record_chunk_spans(chunk.len() as u64, &before, &out[chunk_start..]);
            }
            if let Some(n) = self.cfg.checkpoint_every {
                if self.position.saturating_sub(self.last_ckpt_position) >= n {
                    self.checkpoint_now();
                }
            }
        }
        out
    }

    /// Flushes every query's held state (end-of-stream) and marks the core
    /// drained; later ingests are dropped.
    pub fn finish(&mut self) -> Vec<(QueryId, OutputItem)> {
        if self.drained {
            return Vec::new();
        }
        let obs_on = self.obs.enabled();
        let before = if obs_on {
            self.eval.stats()
        } else {
            Vec::new()
        };
        let raw = self.eval.finish();
        let out = self.filter_and_log(raw);
        if obs_on {
            self.record_chunk_spans(0, &before, &out);
        }
        self.drained = true;
        if self.durable() {
            self.checkpoint_now();
        }
        out
    }

    fn filter_and_log(&mut self, raw: Vec<(QueryId, OutputItem)>) -> Vec<(QueryId, OutputItem)> {
        if !self.durable() {
            for (qid, o) in &raw {
                if o.kind == OutputKind::Retract {
                    self.bump_retraction(*qid);
                }
            }
            return raw;
        }
        let mut out = Vec::with_capacity(raw.len());
        for (qid, o) in raw {
            let tag = kind_tag(o.kind);
            let key = (qid.index() as u64, tag, o.m.key());
            if let Some(n) = self.suppress.get_mut(&key) {
                *n -= 1;
                if *n == 0 {
                    self.suppress.remove(&key);
                }
                self.extra.replayed_suppressed += 1;
                continue;
            }
            if o.kind == OutputKind::Retract {
                self.bump_retraction(qid);
            }
            self.store.append_log(encode_log_record(qid, tag, &key.2));
            self.dirty = true;
            out.push((qid, o));
        }
        out
    }

    fn bump_retraction(&mut self, qid: QueryId) {
        let ix = qid.index();
        if self.retractions.len() <= ix {
            self.retractions.resize(ix + 1, 0);
        }
        self.retractions[ix] += 1;
    }

    /// Takes a checkpoint immediately (no-op when any engine lacks
    /// snapshot support).
    pub fn checkpoint_now(&mut self) {
        let Ok(blob) = self.eval.snapshot() else {
            return;
        };
        let mut w = Writer::new();
        w.put_u64(self.position);
        w.put_u64(self.store.log_len() as u64);
        w.put_u64(self.queries.len() as u64);
        for ((text, _), policy) in self.queries.iter().zip(&self.policies) {
            w.put_str(text);
            let (mode, knob) = policy_to_wire(Some(*policy));
            w.put_u8(mode);
            w.put_u8(knob);
        }
        w.put_bytes(&blob);
        self.store.push_checkpoint(seal_envelope(&w.into_bytes()));
        self.extra.checkpoints_written += 1;
        self.last_ckpt_position = self.position;
        self.dirty = true;
    }

    /// The durable artifacts (what a crash survives).
    pub fn store(&self) -> &CheckpointStore {
        &self.store
    }

    /// Returns whether the store changed since the last call, clearing the
    /// flag — the engine thread's cue to persist to disk.
    pub fn take_dirty(&mut self) -> bool {
        std::mem::replace(&mut self.dirty, false)
    }

    /// Stream items ingested so far.
    pub fn position(&self) -> u64 {
        self.position
    }

    /// Worker shards each Native query engine evaluates on.
    pub fn shards(&self) -> u64 {
        self.cfg.shards.max(1) as u64
    }

    /// Number of registered queries.
    pub fn query_count(&self) -> u64 {
        self.queries.len() as u64
    }

    /// True once [`EngineCore::finish`] has run.
    pub fn drained(&self) -> bool {
        self.drained
    }

    /// The schema fingerprint this core negotiates sessions against.
    pub fn fingerprint(&self) -> u64 {
        self.cfg.registry.fingerprint()
    }

    /// The minimum low-watermark across registered queries.
    pub fn watermark(&self) -> Option<Timestamp> {
        self.eval.watermark()
    }

    /// Shared-plan structural gauges and sharing counters; `None` under
    /// the control strategies, whose queries the plan never hosts.
    pub fn plan_metrics(&self) -> Option<PlanMetrics> {
        (self.cfg.strategy == Strategy::Native).then(|| self.eval.plan.plan_metrics())
    }

    /// Aggregate operator counters across every query, plus this process's
    /// checkpoint/recovery counters.
    pub fn stats(&self) -> RuntimeStats {
        let mut total = self.extra;
        for s in self.eval.stats() {
            total += s;
        }
        total
    }

    /// Replayed-but-not-yet-seen suppressions still outstanding.
    pub fn pending_suppressions(&self) -> usize {
        self.suppress.values().map(|n| *n as usize).sum()
    }

    /// The stream clock: maximum occurrence timestamp any query engine has
    /// observed, in ticks (0 before the first event).
    fn core_clock(&self) -> u64 {
        self.queries
            .iter()
            .filter_map(|(_, qid)| self.eval.query_clock(*qid))
            .map(|t| t.ticks())
            .max()
            .unwrap_or(0)
    }

    /// Records trace spans for one ingested chunk: an `Ingest` span, then
    /// per-query `Route`/`StackInsert`/`Construct`/`Negate`/`Purge` spans
    /// derived from operator-counter deltas (`before` → now), then one
    /// `Emit` span per delivered output with its event-id provenance and
    /// disorder hold time. Spans are chunk-granular by design: the trace
    /// shows what each batch *did*, not a per-event firehose, which keeps
    /// recording cost a handful of counter reads per batch.
    fn record_chunk_spans(
        &mut self,
        ingested: u64,
        before: &[RuntimeStats],
        outputs: &[(QueryId, OutputItem)],
    ) {
        let after = self.eval.stats();
        let core_clock = self.core_clock();
        let core_wm = self.eval.watermark().map(|t| t.ticks()).unwrap_or(0);
        if ingested > 0 {
            self.obs.ingest_span(ingested, core_clock, core_wm);
        }
        for (i, (_, qid)) in self.queries.iter().enumerate() {
            let prev = before.get(i).copied().unwrap_or_default();
            let Some(now) = after.get(i) else { continue };
            let clock = self
                .eval
                .query_clock(*qid)
                .map(|t| t.ticks())
                .unwrap_or(core_clock);
            let wm = self
                .eval
                .query_watermark(*qid)
                .map(|t| t.ticks())
                .unwrap_or(core_wm);
            let steps = [
                (SpanKind::Route, now.events_routed - prev.events_routed),
                (SpanKind::StackInsert, now.insertions - prev.insertions),
                (
                    SpanKind::Construct,
                    now.matches_constructed - prev.matches_constructed,
                ),
                (SpanKind::Negate, now.negated_matches - prev.negated_matches),
                (SpanKind::Purge, now.purged - prev.purged),
            ];
            for (kind, delta) in steps {
                self.obs.span(kind, i as u64, delta, clock, wm);
            }
        }
        for (qid, o) in outputs {
            let i = qid.index();
            let insert = o.kind == OutputKind::Insert;
            self.obs
                .record_output(i, insert, o.arrival_latency(), o.event_time_latency());
            let events: Vec<u64> = o.m.events().iter().map(|e| e.id().get()).collect();
            let wm = self
                .eval
                .query_watermark(*qid)
                .map(|t| t.ticks())
                .unwrap_or(core_wm);
            if !self.obs.provenance() {
                self.obs.emit_span(
                    i as u64,
                    events,
                    o.event_time_latency(),
                    o.emit_clock.ticks(),
                    wm,
                );
                continue;
            }
            // Full causal provenance. Every field below is derived from
            // the output itself (or from the query text), so the recorded
            // span is byte-identical across backends and shard counts —
            // only the ring-global `seq` may differ, and the lineage
            // renderers drop it.
            let pid = o.provenance_id(stable_query_id(&self.parsed[i]));
            let arrivals: Vec<u64> = o.m.events().iter().map(|e| e.arrival().get()).collect();
            let (kind, cause, bound) = match (o.kind, o.cause) {
                (OutputKind::Retract, c) => {
                    (SpanKind::Retract, c.map(|id| id.get()).unwrap_or(0), 0)
                }
                (OutputKind::Insert, Some(c)) => (SpanKind::Emit, c.get(), 0),
                (OutputKind::Insert, None) => {
                    // Sealed release: record the deadline the watermark (or
                    // adaptive slack bound) had to pass — the negation
                    // region's seal for guarded queries, the match's own
                    // span otherwise.
                    let deadline = seal_deadline(&self.parsed[i], o.m.events())
                        .unwrap_or_else(|| o.m.last_ts());
                    (SpanKind::Seal, 0, deadline.ticks())
                }
            };
            self.obs.output_span(Span {
                seq: 0,
                kind,
                query: i as u64,
                count: 1,
                clock: o.emit_clock.ticks(),
                watermark: wm,
                events,
                held: o.event_time_latency(),
                pid,
                cause,
                bound,
                arrivals,
            });
        }
    }

    /// JSON dump of the structured trace ring (`[]`-bodied object when
    /// tracing is disabled).
    pub fn trace_json(&self) -> String {
        self.obs.trace_json()
    }

    /// Renders the causal lineage of the ring's output spans, optionally
    /// filtered by query index and/or provenance id. `json` selects the
    /// machine rendering; text otherwise. Both renderings omit the
    /// ring-global span `seq`, so a fixed-seed run renders byte-identically
    /// across backends and shard counts.
    pub fn lineage(&self, query: Option<u64>, pid: Option<u64>, json: bool) -> String {
        let spans = sequin_obs::filter_outputs(self.obs.trace().spans(), query, pid);
        if json {
            sequin_obs::lineage_json(&spans)
        } else {
            sequin_obs::lineage_text(&spans)
        }
    }

    /// Captures a self-contained postmortem [`Bundle`]: the current
    /// lineage slice, the rendered metrics snapshot, a description of the
    /// registered queries/policies, and replay parameters (the stream
    /// cursor, shard count, query count) merged with whatever
    /// caller-specific `params` the capturing site supplies (sim seed,
    /// case index, sabotage knobs, …).
    pub fn postmortem_bundle(&self, reason: &str, params: Vec<(String, u64)>) -> Bundle {
        let mut config = String::new();
        for ((text, qid), policy) in self.queries.iter().zip(&self.policies) {
            config.push_str(&format!("q{}: {} policy={:?}\n", qid.index(), text, policy));
        }
        config.push_str(&format!(
            "strategy={:?} shards={} checkpoint_every={:?}",
            self.cfg.strategy, self.cfg.shards, self.cfg.checkpoint_every
        ));
        let mut all_params = vec![
            ("cursor".to_string(), self.position),
            ("shards".to_string(), self.shards()),
            ("queries".to_string(), self.query_count()),
        ];
        all_params.extend(params);
        Bundle {
            reason: reason.to_string(),
            config,
            params: all_params,
            metrics_json: self.metrics_snapshot(None).to_json(),
            spans: self.obs.trace().spans().cloned().collect(),
            recorded: self.obs.trace().recorded(),
            dropped: self.obs.trace().dropped(),
        }
    }

    /// Whether latency/trace recording is on.
    pub fn obs_enabled(&self) -> bool {
        self.obs.enabled()
    }

    /// Assembles the full telemetry snapshot: per-query operator counters,
    /// watermark/clock/lag and state-size gauges, purge reclamation, the
    /// recorder's detection-latency and deferral-time histograms, per-shard
    /// worker counters (sharded pools only), engine-wide totals, and — when
    /// the caller passes them — server counters plus the live ingest-queue
    /// depth.
    ///
    /// Everything recorded is a logical quantity, so a fixed-seed workload
    /// yields a byte-identical rendering, and the output-derived series
    /// (histograms, emitted/retracted counts) are additionally identical
    /// across shard counts. `sequin_purge_reclaimed_bytes` is an estimate:
    /// purged stack instances × the in-memory size of an `Event` record
    /// (attribute payloads not counted).
    pub fn metrics_snapshot(&self, server: Option<(&ServerStats, u64)>) -> MetricsSnapshot {
        const STAT_GAUGES: [&str; 2] = ["max_stack_depth", "merge_buffer_peak"];
        const SERVER_GAUGES: [&str; 3] = ["subscriptions", "engine_shards", "max_engine_batch"];
        let mut b = MetricsSnapshot::builder();

        let per_query = self.eval.stats();
        let empty = sequin_obs::QueryObs::default();
        for (i, (_, qid)) in self.queries.iter().enumerate() {
            let labels = [("query", i.to_string())];
            let Some(stats) = per_query.get(i) else {
                continue;
            };
            for (name, v) in stats.as_pairs() {
                let full = format!("sequin_engine_{name}");
                if STAT_GAUGES.contains(&name) {
                    b.gauge(&full, &labels, v);
                } else {
                    b.counter(&full, &labels, v);
                }
            }
            // a registration-order-independent identity for dashboards
            // that survive restarts with a different subscription order
            let stable = format!("{:016x}", stable_query_id(&self.parsed[i]));
            b.gauge(
                "sequin_query_info",
                &[("query", i.to_string()), ("qid", stable.clone())],
                1,
            );
            if let (Some(clock), Some(wm)) =
                (self.eval.query_clock(*qid), self.eval.query_watermark(*qid))
            {
                let (c, w) = (clock.ticks(), wm.ticks());
                b.gauge("sequin_stream_clock", &labels, c);
                b.gauge("sequin_watermark", &labels, w);
                b.gauge("sequin_watermark_lag", &labels, c.saturating_sub(w));
            }
            b.gauge(
                "sequin_engine_state_size",
                &labels,
                self.eval.query_state_size(*qid) as u64,
            );
            b.counter(
                "sequin_purge_reclaimed_bytes",
                &labels,
                stats.purged * std::mem::size_of::<sequin_types::Event>() as u64,
            );
            // disorder-policy series: retractions this process delivered
            // and the live slack bound k̂ (fixed for conservative /
            // speculative / lazy, the control-loop estimate under
            // adaptive slack)
            b.counter(
                "sequin_retraction_emitted",
                &labels,
                self.retractions.get(i).copied().unwrap_or(0),
            );
            if let Some(k) = self.eval.query_slack(*qid) {
                b.gauge("sequin_slack_bound", &labels, k.ticks());
            }
            let shards = self.eval.per_shard_stats(*qid);
            if shards.len() > 1 {
                for (s_ix, s) in shards.iter().enumerate() {
                    let labels = [("query", i.to_string()), ("shard", s_ix.to_string())];
                    for (name, v) in s.as_pairs() {
                        let full = format!("sequin_shard_{name}");
                        if STAT_GAUGES.contains(&name) {
                            b.gauge(&full, &labels, v);
                        } else {
                            b.counter(&full, &labels, v);
                        }
                    }
                }
            }
            // ingest-edge routing: full deliveries vs watermark-only
            // advances per shard, plus the pool-wide broadcast counters
            // and the per-shard queue's high-water mark
            if let Some(rs) = self.eval.route_stats(*qid) {
                for (s_ix, (full, adv)) in rs.full_events.iter().zip(&rs.advances).enumerate() {
                    let labels = [("query", i.to_string()), ("shard", s_ix.to_string())];
                    b.counter("sequin_route_full_events", &labels, *full);
                    b.counter("sequin_route_advances", &labels, *adv);
                }
                b.counter(
                    "sequin_route_broadcast_events",
                    &labels,
                    rs.broadcast_events,
                );
                b.counter("sequin_route_punctuations", &labels, rs.punctuations);
                b.gauge(
                    "sequin_route_queue_depth_peak",
                    &labels,
                    rs.queue_depth_peak,
                );
            }
            if self.obs.enabled() {
                let qo = self.obs.query_obs().get(i).unwrap_or(&empty);
                let keyed = [("qid", stable), ("query", i.to_string())];
                b.histogram("sequin_detection_latency", &keyed, &qo.detection);
                b.histogram("sequin_deferral_time", &keyed, &qo.deferral);
                b.counter("sequin_outputs_emitted", &keyed, qo.emitted);
                b.counter("sequin_outputs_retracted", &keyed, qo.retracted);
            }
        }

        for (name, v) in self.stats().as_pairs() {
            let full = format!("sequin_engine_{name}_total");
            if STAT_GAUGES.contains(&name) {
                b.gauge(&full, &[], v);
            } else {
                b.counter(&full, &[], v);
            }
        }
        if let Some(pm) = self.plan_metrics() {
            b.gauge("sequin_plan_pooled_stacks", &[], pm.pooled_stacks);
            b.gauge("sequin_plan_stack_refs", &[], pm.stack_refs);
            b.gauge("sequin_plan_prefix_groups", &[], pm.prefix_groups);
            b.gauge("sequin_plan_grouped_queries", &[], pm.grouped_queries);
            b.gauge("sequin_plan_epochs", &[], pm.epochs);
            b.counter("sequin_plan_routed_events", &[], pm.routed_events);
            b.counter("sequin_plan_routing_misses", &[], pm.routing_misses);
            b.counter("sequin_plan_shared_partials", &[], pm.shared_partials);
            b.counter("sequin_plan_fanout_outputs", &[], pm.fanout_outputs);
        }
        b.counter(
            "sequin_retraction_emitted_total",
            &[],
            self.retractions.iter().sum(),
        );
        b.counter("sequin_ingest_position", &[], self.position);
        b.gauge("sequin_queries", &[], self.query_count());
        b.gauge(
            "sequin_pending_suppressions",
            &[],
            self.pending_suppressions() as u64,
        );
        if self.obs.enabled() {
            b.counter(
                "sequin_trace_spans_recorded",
                &[],
                self.obs.trace().recorded(),
            );
            b.counter(
                "sequin_trace_spans_dropped",
                &[],
                self.obs.trace().dropped(),
            );
            b.counter(
                "sequin_trace_evicted_total",
                &[],
                self.obs.trace().dropped(),
            );
        }
        if let Some((stats, queue_depth)) = server {
            for (name, v) in stats.as_pairs() {
                let full = format!("sequin_server_{name}");
                if SERVER_GAUGES.contains(&name) {
                    b.gauge(&full, &[], v);
                } else {
                    b.counter(&full, &[], v);
                }
            }
            b.gauge("sequin_server_queue_depth", &[], queue_depth);
        }
        b.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequin_engine::OutputKind;
    use sequin_types::{Duration, Event, EventId, Value, ValueKind};

    fn registry() -> Arc<TypeRegistry> {
        let mut reg = TypeRegistry::new();
        for name in ["A", "B"] {
            reg.declare(name, &[("x", ValueKind::Int)]).unwrap();
        }
        Arc::new(reg)
    }

    fn cfg(reg: &Arc<TypeRegistry>, every: Option<u64>) -> CoreConfig {
        CoreConfig {
            registry: reg.clone(),
            strategy: Strategy::Native,
            engine: EngineConfig::with_k(Duration::new(10)),
            checkpoint_every: every,
            shards: 1,
            obs: ObsConfig::default(),
        }
    }

    fn item(reg: &TypeRegistry, ty: &str, id: u64, ts: u64) -> StreamItem {
        StreamItem::Event(Arc::new(
            Event::builder(reg.lookup(ty).unwrap(), Timestamp::new(ts))
                .id(EventId::new(id))
                .attr(Value::Int(0))
                .build(),
        ))
    }

    fn stream(reg: &TypeRegistry) -> Vec<StreamItem> {
        let mut items = Vec::new();
        let mut id = 0;
        for t in 0..60u64 {
            id += 1;
            let ty = if t % 3 == 0 { "B" } else { "A" };
            let ts = if t % 5 == 2 { t.saturating_sub(3) } else { t };
            items.push(item(reg, ty, id, ts * 2));
        }
        items
    }

    const Q_AB: &str = "PATTERN SEQ(A a, B b) WITHIN 8";
    const Q_BA: &str = "PATTERN SEQ(B b, A a) WITHIN 8";

    fn net(out: &[(QueryId, OutputItem)]) -> Vec<(usize, bool, Vec<u64>)> {
        let mut v: Vec<(usize, bool, Vec<u64>)> = out
            .iter()
            .map(|(q, o)| {
                (
                    q.index(),
                    o.kind == OutputKind::Insert,
                    o.m.events().iter().map(|e| e.id().get()).collect(),
                )
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn subscribe_dedups_identical_text() {
        let reg = registry();
        let mut core = EngineCore::new(cfg(&reg, None));
        let a = core.subscribe(Q_AB).unwrap();
        let b = core.subscribe(Q_BA).unwrap();
        assert_ne!(a, b);
        assert_eq!(core.subscribe(Q_AB).unwrap(), a, "same text, same id");
        assert_eq!(core.query_count(), 2);
        assert!(core.subscribe("PATTERN nonsense").is_err());
        assert_eq!(core.query_count(), 2, "failed parse registers nothing");
    }

    #[test]
    fn subscribe_dedups_structurally_equal_text() {
        let reg = registry();
        let mut core = EngineCore::new(cfg(&reg, None));
        let a = core.subscribe(Q_AB).unwrap();
        // same query, different spelling: extra whitespace
        let alias = "PATTERN  SEQ( A a ,  B b )  WITHIN 8";
        assert_eq!(core.subscribe(alias).unwrap(), a, "normalized dedup");
        assert_eq!(core.query_count(), 1, "alias registers no new query");
        // the alias is remembered: re-subscribing it is a table hit
        assert_eq!(core.subscribe(alias).unwrap(), a);
        assert_eq!(core.query_count(), 1);
        // a genuinely different query still gets its own id
        assert_ne!(core.subscribe(Q_BA).unwrap(), a);
        assert_eq!(core.query_count(), 2);
    }

    #[test]
    fn subscribe_reports_coded_errors_with_offsets() {
        let reg = registry();
        let mut core = EngineCore::new(cfg(&reg, None));
        let e = core.subscribe("PATTERN nonsense").unwrap_err();
        assert_eq!(e.code, ErrorCode::BadQuery);

        let text = "PATTERN SEQ(A a, Zed z) WITHIN 5";
        let e = core.subscribe(text).unwrap_err();
        assert_eq!(e.code, ErrorCode::BadAnalysis);
        assert!(e.message.contains("unknown event type"), "{e}");
        let off = text.find("Zed").unwrap();
        assert!(
            e.message.contains(&format!("(at byte {off})")),
            "analyzer span missing from {e}"
        );
        assert_eq!(core.query_count(), 0, "failed analysis registers nothing");
    }

    #[test]
    fn shared_and_independent_backends_agree() {
        let reg = registry();
        let items = stream(&reg);
        // two queries with the same (A, B) prefix and window but different
        // final components force actual prefix sharing on the shared
        // backend
        let q_abb = "PATTERN SEQ(A a, B b, B c) WITHIN 12";
        let q_aba = "PATTERN SEQ(A a, B b, A c) WITHIN 12";

        let run = |shared: bool| {
            let mut core = EngineCore::new(cfg(&reg, None));
            for text in [Q_AB, Q_BA, q_abb, q_aba] {
                if shared {
                    core.subscribe(text).unwrap();
                    continue;
                }
                // configuration hosts a Native query on an engine of its
                // own only when it shards; host these there by hand, as
                // the reference the plan evaluator is checked against
                let q = parse(text, &reg).unwrap();
                let policy = core.cfg.engine.policy;
                let id = core
                    .eval
                    .register_on(Side::Own, &core.cfg, q.clone(), policy);
                core.queries.push((text.to_owned(), id));
                core.parsed.push(q);
                core.policies.push(policy);
            }
            let mut out = Vec::new();
            for it in &items {
                out.extend(core.ingest(it));
            }
            out.extend(core.finish());
            (net(&out), core)
        };
        let (with_plan, shared_core) = run(true);
        let (without, independent_core) = run(false);
        assert_eq!(with_plan, without, "backends must agree byte-for-byte");
        let pm = independent_core.plan_metrics().unwrap();
        assert_eq!(
            pm.pooled_stacks, 0,
            "the reference hosts nothing on the plan"
        );
        let pm = shared_core.plan_metrics().unwrap();
        assert!(pm.prefix_groups >= 1, "AB prefix should group: {pm:?}");
        assert!(pm.routed_events > 0);
    }

    #[test]
    fn drained_core_ignores_further_input() {
        let reg = registry();
        let mut core = EngineCore::new(cfg(&reg, None));
        core.subscribe(Q_AB).unwrap();
        let items = stream(&reg);
        let mut out = Vec::new();
        for it in &items {
            out.extend(core.ingest(it));
        }
        out.extend(core.finish());
        assert!(core.drained());
        assert!(!out.is_empty());
        assert!(core.ingest(&items[0]).is_empty());
        assert!(core.finish().is_empty(), "second finish is a no-op");
    }

    #[test]
    fn crash_and_resume_is_exactly_once_across_queries() {
        let reg = registry();
        let items = stream(&reg);

        // oracle: one uninterrupted run
        let mut oracle = EngineCore::new(cfg(&reg, None));
        oracle.subscribe(Q_AB).unwrap();
        oracle.subscribe(Q_BA).unwrap();
        let mut baseline = Vec::new();
        for it in &items {
            baseline.extend(oracle.ingest(it));
        }
        baseline.extend(oracle.finish());

        // durable run, crash after 40 items
        let mut core = EngineCore::new(cfg(&reg, Some(25)));
        core.subscribe(Q_AB).unwrap();
        core.subscribe(Q_BA).unwrap();
        let mut delivered = Vec::new();
        for it in &items[..40] {
            delivered.extend(core.ingest(it));
        }
        let saved = core.store().clone();
        drop(core); // crash

        let (mut core, replay_from) = EngineCore::resume(cfg(&reg, Some(25)), saved);
        assert!(replay_from > 0, "a checkpoint was accepted");
        assert_eq!(core.query_count(), 2, "queries rebuilt from the snapshot");
        for it in &items[replay_from as usize..] {
            delivered.extend(core.ingest(it));
        }
        delivered.extend(core.finish());
        assert_eq!(net(&delivered), net(&baseline));
        assert!(core.stats().replayed_suppressed > 0);
        assert_eq!(core.pending_suppressions(), 0);
    }

    #[test]
    fn corrupted_latest_checkpoint_falls_back_then_cold_start() {
        let reg = registry();
        let items = stream(&reg);

        let mut oracle = EngineCore::new(cfg(&reg, None));
        oracle.subscribe(Q_AB).unwrap();
        let mut baseline = Vec::new();
        for it in &items {
            baseline.extend(oracle.ingest(it));
        }
        baseline.extend(oracle.finish());

        let mut core = EngineCore::new(cfg(&reg, Some(15)));
        core.subscribe(Q_AB).unwrap();
        let mut pre_crash = Vec::new();
        for it in &items[..40] {
            pre_crash.extend(core.ingest(it));
        }
        let mut saved = core.store().clone();
        assert!(saved.checkpoint_count() >= 2);
        saved.checkpoint_mut(0).unwrap()[25] ^= 0x10;
        drop(core);

        let (mut core, replay_from) = EngineCore::resume(cfg(&reg, Some(15)), saved.clone());
        assert_eq!(core.stats().checkpoints_rejected, 1, "latest rejected");
        let mut delivered = pre_crash.clone();
        for it in &items[replay_from as usize..] {
            delivered.extend(core.ingest(it));
        }
        delivered.extend(core.finish());
        assert_eq!(net(&delivered), net(&baseline));

        // now corrupt every checkpoint: cold start, still exactly-once
        let count = saved.checkpoint_count();
        for ix in 0..count {
            let bytes = saved.checkpoint_mut(ix).unwrap();
            let keep = bytes.len() / 2;
            bytes.truncate(keep);
        }
        let (mut core, replay_from) = EngineCore::resume(cfg(&reg, Some(15)), saved);
        assert_eq!(replay_from, 0, "cold start");
        // a cold core has no queries yet; the server re-subscribes
        assert_eq!(core.subscribe(Q_AB).unwrap().index(), 0);
        let mut delivered2 = pre_crash;
        for it in &items {
            delivered2.extend(core.ingest(it));
        }
        delivered2.extend(core.finish());
        assert_eq!(net(&delivered2), net(&baseline));
        assert_eq!(core.pending_suppressions(), 0);
    }

    #[test]
    fn batched_ingest_matches_item_by_item_including_checkpoints() {
        let reg = registry();
        let items = stream(&reg);

        let mut seq = EngineCore::new(cfg(&reg, Some(7)));
        seq.subscribe(Q_AB).unwrap();
        seq.subscribe(Q_BA).unwrap();
        let mut want = Vec::new();
        for it in &items {
            want.extend(seq.ingest(it));
        }
        want.extend(seq.finish());

        let mut bat = EngineCore::new(cfg(&reg, Some(7)));
        bat.subscribe(Q_AB).unwrap();
        bat.subscribe(Q_BA).unwrap();
        let mut got = Vec::new();
        // ragged batch sizes that straddle the checkpoint cadence
        let mut rest = &items[..];
        for size in [1usize, 10, 3, 17, 9].iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let take = (*size).min(rest.len());
            got.extend(bat.ingest_batch(&rest[..take]));
            rest = &rest[take..];
        }
        got.extend(bat.finish());

        assert_eq!(net(&got), net(&want));
        assert_eq!(bat.position(), seq.position());
        assert_eq!(
            bat.stats().checkpoints_written,
            seq.stats().checkpoints_written,
            "batch splitting preserves the checkpoint cadence"
        );
    }

    #[test]
    fn crash_resume_with_different_shard_count_is_exactly_once() {
        let reg = registry();
        let items = stream(&reg);

        let mut oracle = EngineCore::new(cfg(&reg, None));
        oracle.subscribe(Q_AB).unwrap();
        oracle.subscribe(Q_BA).unwrap();
        let mut baseline = Vec::new();
        for it in &items {
            baseline.extend(oracle.ingest(it));
        }
        baseline.extend(oracle.finish());

        let mut two = cfg(&reg, Some(25));
        two.shards = 2;
        let mut core = EngineCore::new(two);
        core.subscribe(Q_AB).unwrap();
        core.subscribe(Q_BA).unwrap();
        assert_eq!(core.shards(), 2);
        let mut delivered = Vec::new();
        delivered.extend(core.ingest_batch(&items[..40]));
        let saved = core.store().clone();
        drop(core); // crash

        // resume on a *different* shard count: snapshots are agnostic
        let mut four = cfg(&reg, Some(25));
        four.shards = 4;
        let (mut core, replay_from) = EngineCore::resume(four, saved);
        assert!(replay_from > 0, "a checkpoint was accepted");
        assert_eq!(core.query_count(), 2);
        delivered.extend(core.ingest_batch(&items[replay_from as usize..]));
        delivered.extend(core.finish());
        assert_eq!(net(&delivered), net(&baseline));
        assert!(core.stats().replayed_suppressed > 0);
        assert_eq!(core.pending_suppressions(), 0);
    }

    #[test]
    fn hybrid_backend_composes_shared_and_sharded() {
        let reg = registry();
        let items = stream(&reg);
        // one query sharding can parallelize (equality chain → partition
        // scheme) and two it cannot (no WHERE clause)
        let q_part = "PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 8";

        let run = |shards: usize| {
            let mut c = cfg(&reg, None);
            c.shards = shards;
            let mut core = EngineCore::new(c);
            for q in [Q_AB, q_part, Q_BA] {
                core.subscribe(q).unwrap();
            }
            let mut out = Vec::new();
            for chunk in items.chunks(13) {
                out.extend(core.ingest_batch(chunk));
            }
            out.extend(core.finish());
            (net(&out), core)
        };

        let (baseline, _) = run(1);
        let (hybrid, core) = run(3);
        assert_eq!(hybrid, baseline, "hybrid must be byte-identical");
        assert!(core.plan_metrics().is_some(), "shared half hosts Q_AB/Q_BA");
        // the partitionable query (global id 1) runs on a routed pool...
        let qids: Vec<QueryId> = (0..3).map(QueryId::from_index).collect();
        let rs = core.eval.route_stats(qids[1]).expect("sharded pool");
        assert_eq!(rs.full_events.len(), 3);
        assert_eq!(core.eval.per_shard_stats(qids[1]).len(), 3);
        // ...and the unpartitionable ones stay on the shared plan
        assert!(core.eval.route_stats(qids[0]).is_none());
        assert!(core.eval.route_stats(qids[2]).is_none());
    }

    #[test]
    fn hybrid_checkpoint_interchanges_with_single_shard_backends() {
        let reg = registry();
        let items = stream(&reg);
        let q_part = "PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 8";

        let mut oracle = EngineCore::new(cfg(&reg, None));
        oracle.subscribe(Q_AB).unwrap();
        oracle.subscribe(q_part).unwrap();
        let mut baseline = Vec::new();
        for it in &items {
            baseline.extend(oracle.ingest(it));
        }
        baseline.extend(oracle.finish());

        // hybrid core (shared + sharded halves) writes the checkpoints...
        let mut hy = cfg(&reg, Some(25));
        hy.shards = 2;
        let mut core = EngineCore::new(hy);
        core.subscribe(Q_AB).unwrap();
        core.subscribe(q_part).unwrap();
        assert_eq!(core.eval.hosts[0].0, Side::Plan);
        assert_eq!(core.eval.hosts[1].0, Side::Own);
        let mut delivered = Vec::new();
        delivered.extend(core.ingest_batch(&items[..40]));
        let saved = core.store().clone();
        drop(core); // crash

        // ...and a single-shard shared core resumes them exactly-once
        let (mut core, replay_from) = EngineCore::resume(cfg(&reg, Some(25)), saved);
        assert!(replay_from > 0, "a checkpoint was accepted");
        assert!(core.eval.own.is_empty(), "one shard: the plan hosts both");
        delivered.extend(core.ingest_batch(&items[replay_from as usize..]));
        delivered.extend(core.finish());
        assert_eq!(net(&delivered), net(&baseline));
        assert_eq!(core.pending_suppressions(), 0);

        // reverse: shared checkpoint resumes on a wider hybrid core
        let mut core = EngineCore::new(cfg(&reg, Some(25)));
        core.subscribe(Q_AB).unwrap();
        core.subscribe(q_part).unwrap();
        let mut delivered = Vec::new();
        delivered.extend(core.ingest_batch(&items[..40]));
        let saved = core.store().clone();
        drop(core); // crash

        let mut four = cfg(&reg, Some(25));
        four.shards = 4;
        let (mut core, replay_from) = EngineCore::resume(four, saved);
        assert!(replay_from > 0);
        assert!(!core.eval.own.is_empty() && !core.eval.plan.is_empty());
        delivered.extend(core.ingest_batch(&items[replay_from as usize..]));
        delivered.extend(core.finish());
        assert_eq!(net(&delivered), net(&baseline));
        assert_eq!(core.pending_suppressions(), 0);
    }

    #[test]
    fn subscription_is_durable_immediately() {
        let reg = registry();
        let mut core = EngineCore::new(cfg(&reg, Some(1000)));
        core.subscribe(Q_AB).unwrap();
        assert!(core.take_dirty());
        let saved = core.store().clone();
        drop(core); // crash before any event

        let (core, replay_from) = EngineCore::resume(cfg(&reg, Some(1000)), saved);
        assert_eq!(replay_from, 0);
        assert_eq!(core.query_count(), 1, "registration survived the crash");
    }
}
