//! The server's single-threaded evaluation core.
//!
//! [`EngineCore`] owns everything the engine thread touches, in three
//! layers of which only the outermost is the server's own. Evaluation is a
//! [`MultiEngine`] — every registered query on one shared plan. Durability
//! is a [`Checkpointer`] around it: position,
//! emission log, the checkpoint cadence, the recovery ladder and replay
//! suppression. The core adds what only a server has: the subscription
//! table with its per-query texts and disorder policies,
//! per-query retraction counts, the observability recorder and the
//! metrics snapshot. Keeping all of it free of threads and sockets makes
//! the recovery semantics testable in isolation; `server.rs` is then only
//! plumbing.
//!
//! ## What the core persists
//!
//! Each checkpoint's header (see [`sequin_engine::Checkpointer`]) holds
//! the registered query *texts* and their effective policies. Persisting
//! the texts makes a restart self-contained: resume re-parses and
//! re-registers the same queries in the same order (ids are dense
//! registration indices, so they are stable) before the host snapshot
//! restores into them.
//!
//! Only the text a query was first subscribed as is persisted; any other
//! spelling of it resolves to the same id (see [`EngineCore::subscribe`]).
//!
//! Subscribing a *new* query immediately takes a checkpoint (when durable)
//! so registrations survive a crash even if no event has arrived since.

use std::sync::Arc;

use sequin_engine::{
    stable_query_id, CheckpointStore, Checkpointer, DisorderPolicy, EngineConfig, MultiEngine,
    OutputItem, OutputKind, PlanMetrics, PlanWork, QueryId, Strategy,
};
use sequin_obs::{Bundle, MetricsSnapshot, ObsConfig, Recorder, SpanKind};
use sequin_query::{parse, Query, QueryError};
use sequin_runtime::{seal_deadline, RuntimeStats};
use sequin_types::{CodecError, Reader, StreamItem, TypeRegistry, Writer};

use crate::frame::{policy_from_wire, policy_to_wire, ErrorCode};
use crate::stats::ServerStats;

/// Evaluation settings shared by every query the core registers.
#[derive(Clone)]
pub struct CoreConfig {
    /// Schema the server negotiates with clients (fingerprint) and parses
    /// query texts against.
    pub registry: Arc<TypeRegistry>,
    /// Per-engine configuration (disorder bound, emission policy, ...).
    pub engine: EngineConfig,
    /// `Some(n)` checkpoints every `n` ingested stream items and maintains
    /// the emission log for exactly-once restarts; `None` disables
    /// durability entirely (no log, no suppression).
    pub checkpoint_every: Option<u64>,
    /// Read by nothing: the plan runs on the engine thread. Kept so
    /// callers that still set it keep building.
    #[doc(hidden)]
    pub shards: usize,
    /// Observability: latency/deferral recording and the structured trace
    /// ring. [`ObsConfig::disabled`] turns all recording off (a single
    /// predicted branch per batch — the "configured off ⇒ zero overhead"
    /// path the ledger's `obs.overhead_pct` measures).
    pub obs: ObsConfig,
}

impl CoreConfig {
    /// A volatile (non-durable) core over `registry` with the given
    /// engine settings, evaluated by the one [`Strategy`].
    pub fn new(registry: Arc<TypeRegistry>, _: Strategy, engine: EngineConfig) -> CoreConfig {
        CoreConfig {
            registry,
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
/// One logical query of the subscription table.
struct Subscription {
    /// The text it was first subscribed as (the persisted spelling).
    text: String,
    id: QueryId,
    /// Whatever the first subscriber negotiated, persisted in checkpoint
    /// headers so a resume rebuilds identical engines.
    policy: DisorderPolicy,
    /// The query's [`stable_query_id`]: what every output's provenance id
    /// is hashed from and what `sequin_query_info` shows. The same for
    /// every spelling and registration order, so a resume rederives it.
    stable: u64,
    /// Retractions delivered by *this* process (replayed duplicates
    /// excluded) — the `sequin_retraction_emitted` series.
    retractions: u64,
}

impl Subscription {
    /// Registers `query` on `host` under `policy`, as the text it came in.
    fn register(
        host: &mut MultiEngine,
        text: String,
        query: Arc<Query>,
        policy: DisorderPolicy,
    ) -> Subscription {
        let stable = stable_query_id(&query);
        Subscription {
            text,
            id: host.register(query, policy),
            policy,
            stable,
            retractions: 0,
        }
    }
}

/// The checkpoint header: how many subscriptions, then each one's text
/// and policy, the policy as the same (mode, knob) pair SUBSCRIBE carries.
fn write_header(subs: &[Subscription]) -> Vec<u8> {
    let mut header = 0u64.to_le_bytes().to_vec();
    subs.iter().for_each(|s| append_to_header(&mut header, s));
    header
}

/// Adds `s` to a [`write_header`] header in place — the leading count (a
/// fixed-width `u64`) goes up by one and the entry is appended — so a
/// SUBSCRIBE encodes its own entry, not every one before it again.
fn append_to_header(header: &mut Vec<u8>, s: &Subscription) {
    let (count, _) = header
        .split_first_chunk_mut::<8>()
        .expect("a header starts with its count");
    *count = (u64::from_le_bytes(*count) + 1).to_le_bytes();
    let mut w = Writer::appending(std::mem::take(header));
    w.put_str(&s.text);
    let (mode, knob) = policy_to_wire(Some(s.policy));
    w.put_u8(mode);
    w.put_u8(knob);
    *header = w.into_bytes();
}

/// Reads a [`write_header`] header, registering its queries on `host` in
/// the persisted order.
fn read_header(
    cfg: &CoreConfig,
    r: &mut Reader<'_>,
    host: &mut MultiEngine,
) -> Result<Vec<Subscription>, CodecError> {
    let n = r.get_u64()?;
    if n > r.remaining() as u64 {
        return Err(CodecError::BadLength);
    }
    let mut subs = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let text = r.get_str()?;
        // mode 0 ("server default") never reaches a checkpoint
        let policy = policy_from_wire(r.get_u8()?, r.get_u8()?)?
            .ok_or(CodecError::SnapshotMismatch("persisted query policy"))?;
        let q = parse(&text, &cfg.registry)
            .map_err(|_| CodecError::SnapshotMismatch("persisted query text"))?;
        subs.push(Subscription::register(host, text, q, policy));
    }
    Ok(subs)
}

/// The engine thread's state: the subscription table and telemetry around
/// one exactly-once evaluation stack.
pub struct EngineCore {
    cfg: CoreConfig,
    /// The multi-query host inside its exactly-once wrapper (volatile —
    /// no log, no suppression — without [`CoreConfig::checkpoint_every`]).
    ck: Checkpointer,
    /// One entry per *logical* query in registration order:
    /// `subs[i].id.index() == i`.
    subs: Vec<Subscription>,
    drained: bool,
    /// Observability recorder: per-query latency/deferral distributions
    /// and the structured trace ring.
    obs: Recorder,
}

impl std::fmt::Debug for EngineCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineCore")
            .field("queries", &self.subs.len())
            .field("exactly_once", &self.ck)
            .field("drained", &self.drained)
            .finish()
    }
}

impl EngineCore {
    fn host(cfg: &CoreConfig) -> MultiEngine {
        MultiEngine::new(cfg.engine)
    }

    fn around(cfg: CoreConfig, mut ck: Checkpointer, subs: Vec<Subscription>) -> EngineCore {
        *ck.header_mut() = write_header(&subs);
        EngineCore {
            obs: Recorder::new(cfg.obs),
            cfg,
            ck,
            subs,
            drained: false,
        }
    }

    /// A fresh core with no queries and an empty store.
    pub fn new(cfg: CoreConfig) -> EngineCore {
        let ck = Checkpointer::new(Self::host(&cfg), cfg.checkpoint_every);
        EngineCore::around(cfg, ck, Vec::new())
    }

    /// Recovers from persisted artifacts through
    /// [`Checkpointer::resume`]'s fallback ladder, rebuilding the
    /// subscription table from the accepted checkpoint's header. Returns
    /// the core plus the stream position clients must replay from (0 on a
    /// cold start, which also has no queries yet).
    pub fn resume(cfg: CoreConfig, store: CheckpointStore) -> (EngineCore, u64) {
        let mut subs = Vec::new();
        let (ck, position) = Checkpointer::resume(cfg.checkpoint_every, store, |header| {
            let mut host = Self::host(&cfg);
            subs = match header {
                Some(r) => read_header(&cfg, r, &mut host)?,
                None => Vec::new(),
            };
            Ok(host)
        });
        (EngineCore::around(cfg, ck, subs), position)
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
    /// text was spelled — the existing logical query's id is returned.
    /// Only genuinely new queries reach the evaluation, attaching their
    /// nodes to the plan.
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
    /// registered query, that query's policy wins regardless of what was
    /// requested, and the caller learns which one it got. Only a genuinely
    /// new registration binds the requested policy.
    pub fn subscribe_with_policy(
        &mut self,
        text: &str,
        policy: Option<DisorderPolicy>,
    ) -> Result<(QueryId, DisorderPolicy), SubscribeError> {
        let q = parse(text, &self.cfg.registry)?;
        let host = self.ck.host();
        if let Some(s) = self.subs.iter().find(|s| **host.query(s.id) == *q) {
            return Ok((s.id, s.policy));
        }
        let policy = policy.unwrap_or(self.cfg.engine.policy);
        let sub = Subscription::register(self.ck.host_mut(), text.to_owned(), q, policy);
        let id = sub.id;
        append_to_header(self.ck.header_mut(), &sub);
        self.subs.push(sub);
        if self.durable() {
            // make the registration itself crash-safe
            self.ck.checkpoint_now();
        }
        Ok((id, policy))
    }

    /// The effective disorder policy of a registered query.
    pub fn query_policy(&self, id: QueryId) -> DisorderPolicy {
        self.subs[id.index()].policy
    }

    /// Ingests one arrival into every query; returns the outputs to
    /// deliver (replay duplicates already swallowed). Ignored after
    /// [`EngineCore::finish`].
    pub fn ingest(&mut self, item: &StreamItem) -> Vec<(QueryId, OutputItem)> {
        self.ingest_batch(std::slice::from_ref(item))
    }

    /// Ingests a run of arrivals through [`Checkpointer::ingest_batch`]:
    /// outputs, log records, and checkpoints are identical to item-by-item
    /// [`EngineCore::ingest`] calls.
    pub fn ingest_batch(&mut self, items: &[StreamItem]) -> Vec<(QueryId, OutputItem)> {
        if self.drained {
            return Vec::new();
        }
        let before = self.ck.host().work();
        let out = self.ck.ingest_batch(items);
        self.account(items.len() as u64, before, &out);
        out
    }

    /// Flushes every query's held state (end-of-stream) and marks the core
    /// drained; later ingests are dropped.
    pub fn finish(&mut self) -> Vec<(QueryId, OutputItem)> {
        if self.drained {
            return Vec::new();
        }
        let before = self.ck.host().work();
        let out = self.ck.finish();
        self.account(0, before, &out);
        self.drained = true;
        if self.durable() {
            self.ck.checkpoint_now();
        }
        out
    }

    /// Counts delivered retractions and, when recording (`before` is the
    /// plan's work from before the call), traces the call.
    fn account(&mut self, ingested: u64, before: PlanWork, out: &[(QueryId, OutputItem)]) {
        for (qid, o) in out {
            if o.kind == OutputKind::Retract {
                self.subs[qid.index()].retractions += 1;
            }
        }
        if self.obs.enabled() {
            self.record_chunk_spans(ingested, before, out);
        }
    }

    /// Takes a checkpoint immediately.
    pub fn checkpoint_now(&mut self) {
        self.ck.checkpoint_now();
    }

    /// The durable artifacts (what a crash survives).
    pub fn store(&self) -> &CheckpointStore {
        self.ck.store()
    }

    /// Returns whether the store changed since the last call, clearing the
    /// flag — the engine thread's cue to persist to disk.
    pub fn take_dirty(&mut self) -> bool {
        self.ck.take_dirty()
    }

    /// Stream items ingested so far (the clients' replay cursor).
    pub fn position(&self) -> u64 {
        self.ck.position()
    }

    /// Number of registered queries.
    pub fn query_count(&self) -> u64 {
        self.subs.len() as u64
    }

    /// True once [`EngineCore::finish`] has run.
    pub fn drained(&self) -> bool {
        self.drained
    }

    /// The schema fingerprint this core negotiates sessions against.
    pub fn fingerprint(&self) -> u64 {
        self.cfg.registry.fingerprint()
    }

    /// Shared-plan structural gauges and sharing counters. Always `Some`:
    /// every query runs on the plan.
    pub fn plan_metrics(&self) -> Option<PlanMetrics> {
        Some(self.ck.host().plan_metrics())
    }

    /// Aggregate operator counters across every query, plus this process's
    /// checkpoint/recovery counters.
    pub fn stats(&self) -> RuntimeStats {
        self.ck.stats()
    }

    /// Replayed-but-not-yet-seen suppressions still outstanding.
    pub fn pending_suppressions(&self) -> usize {
        self.ck.pending_suppressions()
    }

    /// Records trace spans for one engine call: an `Ingest` span, then one
    /// `Route`/`StackInsert`/`Construct`/`Negate`/`Purge` span each for the
    /// whole core (`query: null`) from the plan's work during the call
    /// (`before` → now), then one output span per delivered output with
    /// its event-id provenance and disorder hold time, written in place
    /// into the ring. Spans are call-granular by design: the trace shows
    /// what each batch *did*, not a per-event firehose, and what a query
    /// did is in its `sequin_engine_*` counters. So the cost per call is a
    /// read of the plan's work and of each epoch's position, whatever the
    /// number of queries, plus the outputs. The spans the ring would evict
    /// before the call ends are counted, not built.
    fn record_chunk_spans(
        &mut self,
        ingested: u64,
        before: PlanWork,
        outputs: &[(QueryId, OutputItem)],
    ) {
        let host = self.ck.host();
        let work = host.work().since(before);
        // the stream clock is the largest occurrence timestamp any query
        // has observed, the core's watermark the smallest of the queries'
        let (clock, watermark) = host
            .position()
            .map_or((0, 0), |(c, w)| (c.ticks(), w.ticks()));
        let steps = [
            (SpanKind::Route, work.routed),
            (SpanKind::StackInsert, work.inserted),
            (SpanKind::Construct, work.constructed),
            (SpanKind::Negate, work.negated),
            (SpanKind::Purge, work.purged),
        ];
        // what this call records, in order: the ingest span, every
        // non-zero step, one span per output
        let recorded = u64::from(ingested > 0)
            + steps.iter().filter(|(_, n)| *n > 0).count() as u64
            + outputs.len() as u64;
        let mut skip = self.obs.skip_spans(recorded);
        let mut kept = || {
            let kept = skip == 0;
            skip = skip.saturating_sub(1);
            kept
        };
        if ingested > 0 && kept() {
            self.obs.span(SpanKind::Ingest, ingested, clock, watermark);
        }
        for (kind, n) in steps {
            if n > 0 && kept() {
                self.obs.span(kind, n, clock, watermark);
            }
        }
        let provenance = self.obs.provenance();
        for (qid, o) in outputs {
            let i = qid.index();
            let insert = o.kind == OutputKind::Insert;
            let held = o.event_time_latency();
            self.obs.record_output(i, insert, o.arrival_latency(), held);
            if !kept() {
                continue;
            }
            // With causal provenance, every field is derived from the
            // output itself (or from the query text), so the recorded span
            // is byte-identical across backends — only the ring-global
            // `seq` may differ, and the lineage renderers drop it.
            let (kind, cause, bound) = match (o.kind, o.cause) {
                _ if !provenance => (SpanKind::Emit, 0, 0),
                (OutputKind::Retract, c) => {
                    (SpanKind::Retract, c.map(|id| id.get()).unwrap_or(0), 0)
                }
                (OutputKind::Insert, Some(c)) => (SpanKind::Emit, c.get(), 0),
                (OutputKind::Insert, None) => {
                    // Sealed release: record the deadline the watermark (or
                    // adaptive slack bound) had to pass — the negation
                    // region's seal for guarded queries, the match's own
                    // span otherwise.
                    let deadline = seal_deadline(host.query(*qid), o.m.events())
                        .unwrap_or_else(|| o.m.last_ts());
                    (SpanKind::Seal, 0, deadline.ticks())
                }
            };
            let (emitted, wm) = (o.emit_clock.ticks(), host.query_watermark(*qid).ticks());
            let Some(span) = self.obs.output_span(kind, i as u64, emitted, wm) else {
                continue;
            };
            let events = o.m.events();
            span.events.extend(events.iter().map(|e| e.id().get()));
            span.held = held;
            if provenance {
                span.arrivals
                    .extend(events.iter().map(|e| e.arrival().get()));
                span.pid = o.provenance_id(self.subs[i].stable);
                (span.cause, span.bound) = (cause, bound);
            }
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
    /// across backends.
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
    /// cursor, query count) merged with whatever
    /// caller-specific `params` the capturing site supplies (sim seed,
    /// case index, sabotage knobs, …).
    pub fn postmortem_bundle(&self, reason: &str, params: Vec<(String, u64)>) -> Bundle {
        let mut config = String::new();
        for s in &self.subs {
            let (i, text, policy) = (s.id.index(), &s.text, s.policy);
            config.push_str(&format!("q{i}: {text} policy={policy:?}\n"));
        }
        config.push_str(&format!("checkpoint_every={:?}", self.cfg.checkpoint_every));
        let mut all_params = vec![
            ("cursor".to_string(), self.position()),
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
    /// recorder's detection-latency and deferral-time histograms,
    /// engine-wide totals, and — when the caller passes them — server
    /// counters plus the live ingest-queue depth.
    ///
    /// Everything recorded is a logical quantity, so a fixed-seed workload
    /// yields a byte-identical rendering. `sequin_purge_reclaimed_bytes` is
    /// an estimate:
    /// purged stack instances × the in-memory size of an `Event` record
    /// (attribute payloads not counted).
    pub fn metrics_snapshot(&self, server: Option<(&ServerStats, u64)>) -> MetricsSnapshot {
        const STAT_GAUGES: [&str; 1] = ["max_stack_depth"];
        const SERVER_GAUGES: [&str; 2] = ["subscriptions", "max_engine_batch"];
        let mut b = MetricsSnapshot::builder();

        let host = self.ck.host();
        let per_query = host.stats();
        let positions = host.query_positions();
        let empty = sequin_obs::QueryObs::default();
        for (i, qid) in self.subs.iter().map(|s| s.id).enumerate() {
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
            let stable = format!("{:016x}", self.subs[i].stable);
            b.gauge(
                "sequin_query_info",
                &[("query", i.to_string()), ("qid", stable.clone())],
                1,
            );
            let (c, w) = positions[qid.index()];
            let (c, w) = (c.ticks(), w.ticks());
            b.gauge("sequin_stream_clock", &labels, c);
            b.gauge("sequin_watermark", &labels, w);
            b.gauge("sequin_watermark_lag", &labels, c.saturating_sub(w));
            b.gauge(
                "sequin_engine_state_size",
                &labels,
                host.query_state_size(qid) as u64,
            );
            b.gauge(
                "sequin_partition_keys",
                &labels,
                host.query_partition_keys(qid) as u64,
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
                self.subs[i].retractions,
            );
            b.gauge("sequin_slack_bound", &labels, host.query_slack(qid).ticks());
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
            self.subs.iter().map(|s| s.retractions).sum(),
        );
        b.counter("sequin_ingest_position", &[], self.position());
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
pub(crate) mod tests {
    use super::*;
    use sequin_engine::OutputKind;
    use sequin_obs::Span;
    use sequin_types::{Duration, Event, EventId, Timestamp, Value, ValueKind};

    pub(crate) fn registry() -> Arc<TypeRegistry> {
        let mut reg = TypeRegistry::new();
        for name in ["A", "B"] {
            reg.declare(name, &[("x", ValueKind::Int)]).unwrap();
        }
        Arc::new(reg)
    }

    pub(crate) fn cfg(reg: &Arc<TypeRegistry>, every: Option<u64>) -> CoreConfig {
        CoreConfig {
            registry: reg.clone(),
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

    pub(crate) fn stream(reg: &TypeRegistry) -> Vec<StreamItem> {
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

    pub(crate) const Q_AB: &str = "PATTERN SEQ(A a, B b) WITHIN 8";
    pub(crate) const Q_BA: &str = "PATTERN SEQ(B b, A a) WITHIN 8";

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
        // re-subscribing the respelling lands on the same query again
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
        let q_part = "PATTERN SEQ(A a, B b) WHERE a.x == b.x WITHIN 8";
        let subscribe = |core: &mut EngineCore| {
            for text in [Q_AB, Q_BA, q_part] {
                core.subscribe(text).unwrap();
            }
        };

        // oracle: one uninterrupted run
        let mut oracle = EngineCore::new(cfg(&reg, None));
        subscribe(&mut oracle);
        let mut baseline = Vec::new();
        for it in &items {
            baseline.extend(oracle.ingest(it));
        }
        baseline.extend(oracle.finish());

        // durable run, crash after 40 items
        let mut core = EngineCore::new(cfg(&reg, Some(25)));
        subscribe(&mut core);
        let mut delivered = Vec::new();
        for it in &items[..40] {
            delivered.extend(core.ingest(it));
        }
        let saved = core.store().clone();
        drop(core); // crash

        let (mut core, replay_from) = EngineCore::resume(cfg(&reg, Some(25)), saved);
        assert!(replay_from > 0, "a checkpoint was accepted");
        assert_eq!(core.query_count(), 3, "queries rebuilt from the snapshot");
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

    /// A subscription's cached stable id is what the query's own
    /// `stable_query_id` is, whichever way the subscription came to be:
    /// every output's span carries the provenance id hashed from it, and
    /// `sequin_query_info` shows it.
    #[test]
    fn provenance_ids_and_the_info_label_use_the_querys_stable_id_on_every_path() {
        let reg = registry();
        let items = stream(&reg);
        let traced = |every| CoreConfig {
            obs: ObsConfig {
                trace_capacity: 4096,
                ..ObsConfig::default()
            },
            ..cfg(&reg, every)
        };
        let check = |core: &EngineCore, out: &[(QueryId, OutputItem)], path: &str| {
            assert!(!out.is_empty(), "{path}: no outputs");
            let pids: Vec<u64> = core
                .obs
                .trace()
                .spans()
                .filter(|s| s.pid != 0)
                .map(|s| s.pid)
                .collect();
            let stable = |qid: QueryId| stable_query_id(core.ck.host().query(qid));
            let want: Vec<u64> = out
                .iter()
                .map(|(qid, o)| o.provenance_id(stable(*qid)))
                .collect();
            assert_eq!(pids, want, "{path}: recorded pids");
            let series = core.metrics_snapshot(None).to_prometheus();
            for s in &core.subs {
                let info = series
                    .lines()
                    .find(|l| {
                        l.starts_with("sequin_query_info{")
                            && l.contains(&format!("query=\"{}\"", s.id.index()))
                    })
                    .unwrap_or_else(|| panic!("{path}: no info series for {}", s.text));
                let label = format!("qid=\"{:016x}\"", stable(s.id));
                assert!(info.contains(&label), "{path}: {info} lacks {label}");
            }
        };

        // fresh subscribes
        let mut core = EngineCore::new(traced(None));
        core.subscribe(Q_AB).unwrap();
        core.subscribe(Q_BA).unwrap();
        let out = core.ingest_batch(&items);
        check(&core, &out, "fresh");

        // the same query under another spelling lands on the first's entry
        let mut core = EngineCore::new(traced(None));
        let id = core.subscribe(Q_AB).unwrap();
        assert_eq!(
            core.subscribe("PATTERN  SEQ( A a ,  B b )  WITHIN 8")
                .unwrap(),
            id
        );
        let out = core.ingest_batch(&items);
        check(&core, &out, "alias");

        // subscriptions rebuilt from a store's header
        let mut core = EngineCore::new(traced(Some(25)));
        core.subscribe(Q_AB).unwrap();
        core.subscribe(Q_BA).unwrap();
        core.ingest_batch(&items[..40]);
        let saved = core.store().clone();
        drop(core); // crash
        let (mut core, replay_from) = EngineCore::resume(traced(Some(25)), saved);
        assert!(replay_from > 0, "a checkpoint was accepted");
        let out = core.ingest_batch(&items[replay_from as usize..]);
        check(&core, &out, "resumed");
    }

    /// The spans a call's ring would evict before the call ends are counted,
    /// not built, and no reader can tell: a ring of 8 holds the last 8
    /// spans of a ring larger than the run, `seq` included, with the same
    /// `recorded`; every output is still recorded in the per-query
    /// observations; and a recorder that is off, or keeps no spans, records
    /// no span.
    #[test]
    fn a_small_ring_holds_the_last_spans_of_a_large_one() {
        let reg = registry();
        let items = stream(&reg);
        let run = |obs: ObsConfig| {
            let mut core = EngineCore::new(CoreConfig {
                obs,
                ..cfg(&reg, None)
            });
            core.subscribe(Q_AB).unwrap();
            core.subscribe(Q_BA).unwrap();
            // small calls push fewer spans than the ring holds, the last
            // call many more
            let (head, tail) = items.split_at(30);
            for chunk in head.chunks(7) {
                core.ingest_batch(chunk);
            }
            core.ingest_batch(tail);
            core.finish();
            let emitted: Vec<u64> = core.obs.query_obs().iter().map(|q| q.emitted).collect();
            (core.obs.trace().clone(), emitted)
        };
        let ring = |trace_capacity| {
            run(ObsConfig {
                trace_capacity,
                ..ObsConfig::default()
            })
        };
        let ((small, emitted), (large, all_emitted)) = (ring(8), ring(1 << 20));
        assert!(large.dropped() == 0 && large.recorded() > 80, "{large:?}");
        assert_eq!(small.recorded(), large.recorded());
        assert_eq!(small.dropped(), small.recorded() - 8);
        let last: Vec<&Span> = large.spans().skip(large.len() - 8).collect();
        assert_eq!(small.spans().collect::<Vec<_>>(), last);
        assert_eq!(emitted, all_emitted);
        let (none, emitted) = ring(0);
        assert!(none.is_empty() && none.recorded() == 0 && none.dropped() == 0);
        assert_eq!(emitted, all_emitted, "outputs are observed without a ring");
        let (off, emitted) = run(ObsConfig::disabled());
        assert!(off.is_empty() && off.recorded() == 0 && emitted.is_empty());
    }

    /// `n` events over `types`, each with an `x` in `0..100`, about a
    /// quarter of them up to 9 ticks late: inside the tests' `K` of 10.
    fn disordered(reg: &TypeRegistry, types: &[&str], n: u64) -> Vec<StreamItem> {
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let event = |id: u64| {
            // xorshift64
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let ty = reg.lookup(types[(state % types.len() as u64) as usize]);
            let late = if (state >> 8) % 4 == 0 {
                (state >> 16) % 10
            } else {
                0
            };
            let event = Event::builder(ty.unwrap(), Timestamp::new(2 * id - late))
                .id(EventId::new(id))
                .attr(Value::Int(((state >> 24) % 100) as i64));
            StreamItem::Event(Arc::new(event.build()))
        };
        (1..=n).map(event).collect()
    }

    const OPERATOR_SPANS: [SpanKind; 5] = [
        SpanKind::Route,
        SpanKind::StackInsert,
        SpanKind::Construct,
        SpanKind::Negate,
        SpanKind::Purge,
    ];

    /// Per call of `core` — an `ingest_batch` per chunk of `items`, then
    /// `finish` — the counts of its core-wide operator spans, in
    /// [`OPERATOR_SPANS`] order, beside every query's own counters moved
    /// by the same call, in the same order. A call records at most one
    /// span of each kind.
    fn spans_beside_stats(
        core: &mut EngineCore,
        items: &[StreamItem],
    ) -> Vec<([u64; 5], Vec<[u64; 5]>)> {
        let counted = |s: &RuntimeStats| {
            let n = [s.events_routed, s.insertions, s.matches_constructed];
            [n[0], n[1], n[2], s.negated_matches, s.purged]
        };
        let mut calls = Vec::new();
        for chunk in items.chunks(64).map(Some).chain([None]) {
            let (before, from) = (core.ck.host().stats(), core.obs.trace().recorded());
            match chunk {
                Some(chunk) => core.ingest_batch(chunk),
                None => core.finish(),
            };
            assert!(core.obs.trace().dropped() == 0, "the ring holds the call");
            let mut spans = [0; 5];
            let new = core.obs.trace().spans().filter(|s| s.seq >= from);
            for span in new.filter(|s| s.query == sequin_obs::NO_QUERY) {
                if let Some(k) = OPERATOR_SPANS.iter().position(|&k| k == span.kind) {
                    assert!(spans[k] == 0 && span.count > 0, "{span:?}");
                    spans[k] = span.count;
                }
            }
            let after = core.ck.host().stats();
            let moved = after.iter().zip(&before).map(|(now, then)| {
                let (now, then) = (counted(now), counted(then));
                std::array::from_fn(|k| now[k] - then[k])
            });
            calls.push((spans, moved.collect()));
        }
        calls
    }

    fn traced_core(reg: &Arc<TypeRegistry>) -> EngineCore {
        EngineCore::new(CoreConfig {
            obs: ObsConfig {
                trace_capacity: 1 << 20,
                ..ObsConfig::default()
            },
            ..cfg(reg, None)
        })
    }

    fn family_registry() -> Arc<TypeRegistry> {
        let mut reg = TypeRegistry::new();
        for name in ["T0", "T1", "T2", "T3", "T4", "T5", "N"] {
            reg.declare(name, &[("x", ValueKind::Int)]).unwrap();
        }
        Arc::new(reg)
    }

    /// A plan of one counts what its query counts: per call, each
    /// core-wide operator span equals the query's counter delta — under
    /// the conservative policy (with a negation, so matches are negated at
    /// their seal) and speculative (so retractions negate them), on a
    /// pattern with no repeated event type.
    #[test]
    fn a_plan_of_ones_operator_spans_are_its_querys_counters() {
        let reg = family_registry();
        let items = disordered(&reg, &["T0", "T1", "N"], 3_000);
        let text = "PATTERN SEQ(T0 a, !N n, T1 b) WITHIN 20";
        for policy in [DisorderPolicy::Conservative, DisorderPolicy::Speculative] {
            let mut core = traced_core(&reg);
            core.subscribe_with_policy(text, Some(policy)).unwrap();
            let mut total = [0; 5];
            for (spans, moved) in spans_beside_stats(&mut core, &items) {
                assert_eq!(spans, moved[0], "{policy:?}");
                (0..5).for_each(|k| total[k] += spans[k]);
            }
            assert!(total.iter().all(|&n| n > 0), "{policy:?}: {total:?}");
        }
    }

    /// On a 512-query prefix family, some of it speculative with a
    /// negation: per call, the core-wide `construct` and `negate` spans
    /// are the sum of the queries' own counts, and `stack_insert` — an
    /// insert into a shared stack counted once — lies between the most
    /// one query saw and the sum.
    #[test]
    fn a_familys_operator_spans_count_shared_work_once() {
        let reg = family_registry();
        let items = disordered(&reg, &["T0", "T1", "T2", "T3", "T4", "T5", "N"], 3_000);
        let mut core = traced_core(&reg);
        for i in 0..512 {
            let (band, last) = ((i / 4) % 100, 2 + i % 4);
            let (negated, policy) = match i % 8 {
                0 => ("!N n, ", DisorderPolicy::Speculative),
                _ => ("", DisorderPolicy::Conservative),
            };
            let text = format!(
                "PATTERN SEQ(T0 a, {negated}T1 b, T{last} c) \
                 WHERE c.x >= {band} AND c.x < {} WITHIN 20",
                band + 1
            );
            core.subscribe_with_policy(&text, Some(policy)).unwrap();
        }
        let plan = core.plan_metrics().unwrap();
        assert!(
            plan.prefix_groups > 0 && plan.pooled_stacks < 512,
            "{plan:?}"
        );
        let mut total = [0; 5];
        for (spans, moved) in spans_beside_stats(&mut core, &items) {
            let sum = |k: usize| moved.iter().map(|m| m[k]).sum::<u64>();
            let most = |k: usize| moved.iter().map(|m| m[k]).max().unwrap_or(0);
            assert_eq!((spans[2], spans[3]), (sum(2), sum(3)));
            assert!(most(1) <= spans[1] && spans[1] <= sum(1), "{spans:?}");
            (0..5).for_each(|k| total[k] += spans[k]);
        }
        assert!(total.iter().all(|&n| n > 0), "{total:?}");
    }

    #[test]
    fn subscription_is_durable_immediately() {
        let reg = registry();
        let mut core = EngineCore::new(cfg(&reg, Some(1000)));
        // each SUBSCRIBE appends its entry to the header the checkpointer
        // holds: the bytes are those of encoding the whole table at once
        let whole_table = |subs: &[Subscription]| {
            let mut w = Writer::new();
            w.put_u64(subs.len() as u64);
            for s in subs {
                w.put_str(&s.text);
                let (mode, knob) = policy_to_wire(Some(s.policy));
                w.put_u8(mode);
                w.put_u8(knob);
            }
            w.into_bytes()
        };
        assert_eq!(*core.ck.header_mut(), whole_table(&[]));
        let speculative = Some(DisorderPolicy::Speculative);
        for (text, policy) in [(Q_AB, None), (Q_BA, speculative), (Q_AB, None)] {
            core.subscribe_with_policy(text, policy).unwrap();
            assert_eq!(*core.ck.header_mut(), whole_table(&core.subs), "{text}");
        }
        assert!(core.take_dirty());
        let saved = core.store().clone();
        drop(core); // crash before any event

        let (core, replay_from) = EngineCore::resume(cfg(&reg, Some(1000)), saved);
        assert_eq!(replay_from, 0);
        assert_eq!(core.query_count(), 2, "registrations survived the crash");
        assert_eq!(
            core.query_policy(core.subs[1].id),
            DisorderPolicy::Speculative
        );
    }
}
