//! The server: session readers, one engine thread, bounded backpressure.
//!
//! ## Threading model
//!
//! Each accepted connection gets a **reader thread** that performs the
//! HELLO handshake itself, then decodes frames and forwards work to the
//! single **engine thread** over one bounded `mpsc::sync_channel`. The
//! engine thread is the only code touching [`EngineCore`], so evaluation
//! needs no locks and output order is globally deterministic: every
//! subscriber observes outputs in the exact order the engine produced
//! them.
//!
//! ## The request path
//!
//! An arrival travels as one `Ingest` message per stream item; every
//! other frame a client may send (SUBSCRIBE, STATS_REQ, METRICS_REQ,
//! TRACE_REQ, DRAIN) travels as it was decoded, in one `Request` message.
//! The engine thread turns each message into the outputs it released and,
//! for a request, the one reply `answer` builds — a refused SUBSCRIBE or
//! a second DRAIN is answered by a coded ERROR. Replies therefore come
//! back in request order, and a reply follows every output its request
//! released. An observer session (HELLO with fingerprint 0) negotiated no
//! schema, so it may only ask: STATS_REQ, METRICS_REQ, TRACE_REQ and BYE.
//!
//! ## Egress
//!
//! The engine produces outputs per ingest batch, and they leave per batch:
//! each OUTPUT frame is encoded once, and a subscriber gets all of one
//! engine call's frames for its queries in one write, under one hold of
//! its sink's lock — a session thread's BUSY or ERROR lands between two
//! batches, never between two frames of one. The bytes are those of
//! frame-by-frame sends. [`ServerStats::frames_sent`] counts the frames of
//! every batch whose write succeeded; a subscriber whose write failed is
//! dropped on the spot. The write blocks the engine thread: a subscriber
//! that stops reading still stalls evaluation for everyone.
//!
//! ## Backpressure
//!
//! The queue is bounded. A reader first `try_send`s; on a full queue it
//! counts a [`ServerStats::backpressure_stalls`] and falls back to a
//! *blocking* send — TCP flow control then propagates the stall to the
//! sender. Independently, when the queue depth crosses the configured
//! high-water mark the reader sends the client one BUSY advisory (rearmed
//! once depth falls below half the mark).
//!
//! ## Durability
//!
//! With [`CoreConfig::checkpoint_every`] set and a
//! [`ServerConfig::store_path`], the engine thread saves the checkpoint
//! store whenever a message dirtied it, and saves *before* it sends
//! (output commit, at the one site every message passes): its OUTPUT
//! frames and its reply leave only once the store file holds their log
//! records, so no output a client received is re-delivered after a
//! restart. The window left is the other way round: a crash after the
//! save and before the send loses that batch's outputs, which the restart
//! suppresses as delivered (at-most-once for that sliver).
//! [`Server::crash`] (the fault-injection kill) lands on a message
//! boundary, where no such window is open. A failed save is reported on
//! stderr and the frames still go out. A server without checkpointing
//! never dirties its store, so it saves nothing.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use sequin_engine::{CheckpointStore, OutputItem, QueryId};
use sequin_types::StreamItem;

use crate::bundle::write_bundle;
use crate::core::{CoreConfig, EngineCore};
use crate::frame::{
    append_output_frame, decode_frame, encode_frame, ErrorCode, Frame, MetricsFormat, TraceFormat,
    TRACE_ALL_OUTPUTS, TRACE_ALL_QUERIES,
};
use crate::stats::ServerStats;
use crate::transport::{FrameSink, TcpTransport, Transport};

/// Server deployment settings.
pub struct ServerConfig {
    /// Schema, per-engine settings, durability cadence.
    pub core: CoreConfig,
    /// Queries registered before the first connection is accepted (clients
    /// may SUBSCRIBE more at runtime).
    pub queries: Vec<String>,
    /// Bound of the reader→engine queue.
    pub queue_capacity: usize,
    /// Queue depth at which readers send a BUSY advisory.
    pub busy_high_water: usize,
    /// Where the checkpoint store is persisted (and loaded from at
    /// startup, resuming a previous incarnation). `None` keeps durability
    /// artifacts in memory only.
    pub store_path: Option<PathBuf>,
    /// Flight recorder: when a startup resume has to reject checkpoints
    /// (corrupt or version-skewed snapshots — the recovery fallback
    /// ladder) or the whole store file, a `recovery-fallback.sqpm`
    /// postmortem bundle is written here, best-effort. `None` disables the
    /// capture.
    pub bundle_dir: Option<PathBuf>,
}

impl ServerConfig {
    /// Defaults: 1024-deep queue, BUSY at 768, no persistence.
    pub fn new(core: CoreConfig) -> ServerConfig {
        ServerConfig {
            core,
            queries: Vec::new(),
            queue_capacity: 1024,
            busy_high_water: 768,
            store_path: None,
            bundle_dir: None,
        }
    }
}

enum EngineMsg {
    Ingest(StreamItem),
    /// A request frame of session `conn`, answered on `sink`. Boxed, so
    /// the per-item `Ingest` message stays small.
    Request {
        conn: u64,
        frame: Box<Frame>,
        sink: Arc<dyn FrameSink>,
    },
    Disconnect {
        conn: u64,
    },
    /// Fault injection: die *now*, skipping every persistence path.
    Crash,
    /// Graceful stop: persist, then exit.
    Shutdown,
}

struct Shared {
    tx: SyncSender<EngineMsg>,
    /// Ingest messages currently queued (readers increment, engine
    /// decrements) — the BUSY advisory's trigger.
    depth: AtomicUsize,
    stats: Mutex<ServerStats>,
    /// Mirror of the core's ingest position, served in HELLO_ACK.
    resume_from: AtomicU64,
    /// Mirror of the core's query count, served in HELLO_ACK.
    query_count: AtomicU64,
    fingerprint: u64,
    busy_high_water: usize,
    accepting: AtomicBool,
    next_conn: AtomicU64,
}

impl Shared {
    fn with_stats<T>(&self, f: impl FnOnce(&mut ServerStats) -> T) -> T {
        f(&mut self.stats.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Sends a frame, counting it; delivery failures mean the peer is gone
    /// and are ignored (the reader observes the close independently).
    fn send(&self, sink: &Arc<dyn FrameSink>, frame: &Frame) {
        if sink.send_frame(&encode_frame(frame)).is_ok() {
            self.with_stats(|s| s.frames_sent += 1);
        }
    }
}

/// Handle to a running server (engine thread + optional TCP acceptor).
pub struct Server {
    shared: Arc<Shared>,
    engine: Option<JoinHandle<()>>,
    acceptor: Option<JoinHandle<()>>,
    local_addr: Option<SocketAddr>,
    resumed_at: Option<u64>,
}

impl Server {
    /// Starts the engine thread. If [`ServerConfig::store_path`] names an
    /// existing store, the core resumes from it (replaying clients see the
    /// resulting position in HELLO_ACK); otherwise — or when the file is
    /// unreadable, which is logged to stderr — it starts cold. Either way
    /// it then registers [`ServerConfig::queries`].
    pub fn start(config: ServerConfig) -> Result<Server, String> {
        let (tx, rx) = mpsc::sync_channel::<EngineMsg>(config.queue_capacity.max(1));
        let fingerprint = config.core.registry.fingerprint();

        let mut resumed_at = None;
        let mut core = match &config.store_path {
            Some(path) => {
                let (store, unreadable) = CheckpointStore::load_or_empty(path);
                if let Some(e) = &unreadable {
                    eprintln!("store {} unreadable ({e}): cold start", path.display());
                }
                let stored = store.checkpoint_count() as u64;
                let (core, replay_from) = EngineCore::resume(config.core.clone(), store);
                // flight recorder: a resume that rejected checkpoints, or
                // the whole store, took the recovery fallback ladder —
                // freeze what the degraded core knows into a postmortem
                // bundle (never fail startup over it)
                let rejected = core.stats().checkpoints_rejected;
                resumed_at = (stored > rejected).then_some(replay_from);
                if rejected > 0 || unreadable.is_some() {
                    if let Some(dir) = &config.bundle_dir {
                        let bundle = core.postmortem_bundle(
                            "recovery-fallback",
                            vec![
                                ("checkpoints_rejected".to_owned(), rejected),
                                ("store_unreadable".to_owned(), unreadable.is_some().into()),
                            ],
                        );
                        let _ = write_bundle(dir, "recovery-fallback.sqpm", &bundle);
                    }
                }
                core
            }
            None => EngineCore::new(config.core.clone()),
        };
        for q in &config.queries {
            core.subscribe(q).map_err(|e| format!("query {q:?}: {e}"))?;
        }

        let shared = Arc::new(Shared {
            tx,
            depth: AtomicUsize::new(0),
            stats: Mutex::new(ServerStats::default()),
            resume_from: AtomicU64::new(core.position()),
            query_count: AtomicU64::new(core.query_count()),
            fingerprint,
            busy_high_water: config.busy_high_water.max(1),
            accepting: AtomicBool::new(true),
            next_conn: AtomicU64::new(0),
        });

        let engine = {
            let shared = shared.clone();
            let store_path = config.store_path.clone();
            std::thread::Builder::new()
                .name("sequin-engine".into())
                .spawn(move || engine_loop(core, rx, shared, store_path))
                .map_err(|e| e.to_string())?
        };

        Ok(Server {
            shared,
            engine: Some(engine),
            acceptor: None,
            local_addr: None,
            resumed_at,
        })
    }

    /// The stream position a startup resume restored, or `None` for a
    /// cold start: no store, or none of its checkpoints accepted.
    pub fn resumed_at(&self) -> Option<u64> {
        self.resumed_at
    }

    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and accepts TCP sessions until
    /// shutdown. Returns the bound address.
    pub fn listen(&mut self, addr: &str) -> std::io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = self.shared.clone();
        let acceptor = std::thread::Builder::new()
            .name("sequin-accept".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if !shared.accepting.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let _ = stream.set_nodelay(true);
                    match TcpTransport::new(stream) {
                        Ok(t) => spawn_session(shared.clone(), Box::new(t)),
                        Err(_) => continue,
                    }
                }
            })?;
        self.acceptor = Some(acceptor);
        self.local_addr = Some(local);
        Ok(local)
    }

    /// The TCP address [`Server::listen`] bound, if any.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// Serves one pre-established transport (e.g. a
    /// [`crate::transport::MemTransport`]) as a session.
    pub fn attach(&self, transport: Box<dyn Transport>) {
        spawn_session(self.shared.clone(), transport);
    }

    /// Snapshot of the connection/frame counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.with_stats(|s| *s)
    }

    fn stop_acceptor(&mut self) {
        self.shared.accepting.store(false, Ordering::SeqCst);
        if let Some(addr) = self.local_addr {
            // wake the blocking accept() so the thread observes the flag
            let _ = TcpStream::connect(addr);
        }
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }

    /// Graceful stop: stops accepting, persists durable state, joins the
    /// engine thread. Sessions still open simply find the queue closed.
    pub fn shutdown(&mut self) {
        self.stop_acceptor();
        let _ = self.shared.tx.send(EngineMsg::Shutdown);
        if let Some(h) = self.engine.take() {
            let _ = h.join();
        }
    }

    /// Fault injection: kill the engine thread *without* any final
    /// persistence, simulating a process crash. Whatever the store file
    /// held at the last dirty-save is all a restart gets.
    pub fn crash(&mut self) {
        self.stop_acceptor();
        let _ = self.shared.tx.send(EngineMsg::Crash);
        if let Some(h) = self.engine.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.engine.is_some() {
            self.shutdown();
        }
    }
}

fn persist_if_dirty(core: &mut EngineCore, store_path: &Option<PathBuf>) {
    if core.take_dirty() {
        if let Some(path) = store_path {
            if let Err(e) = core.store().save(path) {
                eprintln!("store {} not saved ({e})", path.display());
            }
        }
    }
}

/// Upper bound on one coalesced ingest batch: keeps delivery latency and
/// the checkpoint-persist cadence bounded even under a saturated queue.
const MAX_ENGINE_BATCH: usize = 256;

/// One subscribed connection, as the engine thread sees it.
struct Subscriber {
    conn: u64,
    sink: Arc<dyn FrameSink>,
    /// Ids of the queries whose outputs it receives.
    queries: Vec<usize>,
    /// The current batch's OUTPUT frames for it, as they go on the wire;
    /// emptied by every [`Egress::deliver`] and kept for its capacity.
    wire: Vec<u8>,
    /// Frames in `wire`.
    frames: u64,
}

/// The engine thread's outbound side: who receives which query's outputs,
/// and one batch of OUTPUT frames on its way to them.
#[derive(Default)]
struct Egress {
    subscribers: Vec<Subscriber>,
    /// Query id → positions in `subscribers` of the connections
    /// subscribed to it.
    by_query: Vec<Vec<usize>>,
    /// One output's frame, encoded once for however many receive it.
    scratch: Vec<u8>,
}

impl Egress {
    fn subscribe(&mut self, conn: u64, sink: &Arc<dyn FrameSink>, query: usize) {
        let at = match self.subscribers.iter().position(|s| s.conn == conn) {
            Some(at) => at,
            None => {
                self.subscribers.push(Subscriber {
                    conn,
                    sink: sink.clone(),
                    queries: Vec::new(),
                    wire: Vec::new(),
                    frames: 0,
                });
                self.subscribers.len() - 1
            }
        };
        if self.by_query.len() <= query {
            self.by_query.resize_with(query + 1, Vec::new);
        }
        if !self.subscribers[at].queries.contains(&query) {
            self.subscribers[at].queries.push(query);
            self.by_query[query].push(at);
        }
    }

    /// Drops the subscribers `gone` names and renumbers the index.
    fn remove_where(&mut self, gone: impl Fn(&Subscriber) -> bool) {
        self.subscribers.retain(|s| !gone(s));
        self.by_query.iter_mut().for_each(Vec::clear);
        for (at, s) in self.subscribers.iter().enumerate() {
            for query in &s.queries {
                self.by_query[*query].push(at);
            }
        }
    }

    fn remove(&mut self, conn: u64) {
        self.remove_where(|s| s.conn == conn);
    }

    /// Sends one engine call's outputs: each is encoded once and appended
    /// to the batch of every connection subscribed to its query, then
    /// every connection gets its batch in one [`FrameSink::send_frames`],
    /// in engine order. Returns the frames that went out. A connection
    /// whose write fails is gone: it is dropped here and now — not when
    /// its session's `Disconnect` comes up behind a full queue of ingests
    /// — and none of its batch counts.
    fn deliver(&mut self, outputs: &[(QueryId, OutputItem)]) -> u64 {
        for (qid, item) in outputs {
            let receivers = self
                .by_query
                .get(qid.index())
                .map_or(&[][..], Vec::as_slice);
            if receivers.is_empty() {
                continue;
            }
            self.scratch.clear();
            // an output over MAX_FRAME_LEN cannot go on the wire: the one
            // frame is left out, as a lone `send_frame` of it always was
            if append_output_frame(&mut self.scratch, qid.index() as u64, item).is_err() {
                continue;
            }
            for at in receivers {
                let to = &mut self.subscribers[*at];
                to.wire.extend_from_slice(&self.scratch);
                to.frames += 1;
            }
        }
        let mut sent = 0;
        let mut gone = Vec::new();
        for to in &mut self.subscribers {
            if to.frames == 0 {
                continue;
            }
            match to.sink.send_frames(&to.wire) {
                Ok(()) => sent += to.frames,
                Err(_) => gone.push(to.conn),
            }
            to.wire.clear();
            to.frames = 0;
        }
        if !gone.is_empty() {
            self.remove_where(|s| gone.contains(&s.conn));
        }
        sent
    }
}

fn engine_loop(
    mut core: EngineCore,
    rx: mpsc::Receiver<EngineMsg>,
    shared: Arc<Shared>,
    store_path: Option<PathBuf>,
) {
    let mut egress = Egress::default();

    // A non-Ingest message pulled off the queue while coalescing a batch;
    // handled on the next loop turn so ordering is preserved.
    let mut pending: Option<EngineMsg> = None;
    loop {
        let msg = match pending.take() {
            Some(m) => m,
            None => match rx.recv() {
                Ok(m) => m,
                Err(_) => break,
            },
        };
        // what the message released, the length of its ingest batch (0
        // for a request), and the reply its session is owed
        let (outputs, batched, reply) = match msg {
            EngineMsg::Ingest(item) => {
                // Coalesce the run of Ingest messages already queued into
                // one batch: delivering per-batch amortizes queue wakeups
                // and egress writes.
                let mut batch = vec![item];
                while batch.len() < MAX_ENGINE_BATCH {
                    match rx.try_recv() {
                        Ok(EngineMsg::Ingest(next)) => batch.push(next),
                        Ok(other) => {
                            pending = Some(other);
                            break;
                        }
                        Err(_) => break,
                    }
                }
                shared.depth.fetch_sub(batch.len(), Ordering::SeqCst);
                let outputs = core.ingest_batch(&batch);
                shared.resume_from.store(core.position(), Ordering::SeqCst);
                (outputs, batch.len() as u64, None)
            }
            EngineMsg::Request { conn, frame, sink } => {
                let (outputs, reply) = answer(&mut core, &shared, &mut egress, conn, &sink, *frame);
                (outputs, 0, Some((sink, reply)))
            }
            EngineMsg::Disconnect { conn } => {
                egress.remove(conn);
                continue;
            }
            EngineMsg::Crash => return,
            EngineMsg::Shutdown => break,
        };
        // output commit: the store holds the message's log records before
        // its outputs or its reply leave
        persist_if_dirty(&mut core, &store_path);
        let sent = egress.deliver(&outputs);
        shared.with_stats(|s| {
            s.frames_sent += sent;
            if batched > 0 {
                s.engine_batches += 1;
                s.max_engine_batch = s.max_engine_batch.max(batched);
            }
        });
        if let Some((sink, reply)) = reply {
            shared.send(&sink, &reply);
        }
    }
    // shutdown, or every sender gone (Server dropped without shutdown)
    persist_if_dirty(&mut core, &store_path);
}

/// Answers one request frame of session `conn`: the outputs it released
/// (a first DRAIN's) and its reply — a coded ERROR for a refused
/// SUBSCRIBE, a second DRAIN or a frame that is no request.
fn answer(
    core: &mut EngineCore,
    shared: &Shared,
    egress: &mut Egress,
    conn: u64,
    sink: &Arc<dyn FrameSink>,
    frame: Frame,
) -> (Vec<(QueryId, OutputItem)>, Frame) {
    let reply = match frame {
        Frame::Subscribe { query, policy } => match core.subscribe_with_policy(&query, policy) {
            Ok((qid, policy)) => {
                shared
                    .query_count
                    .store(core.query_count(), Ordering::SeqCst);
                egress.subscribe(conn, sink, qid.index());
                shared.with_stats(|s| s.subscriptions += 1);
                let query_id = qid.index() as u64;
                Frame::SubAck { query_id, policy }
            }
            Err(e) => {
                shared.with_stats(|s| s.rejected_frames += 1);
                Frame::Error {
                    code: e.code,
                    message: e.message,
                }
            }
        },
        Frame::StatsReq => Frame::StatsReply {
            server: shared.with_stats(|s| *s),
            engine: core.stats(),
        },
        Frame::MetricsReq { format } => {
            let server = shared.with_stats(|s| *s);
            let depth = shared.depth.load(Ordering::SeqCst) as u64;
            let snapshot = || core.metrics_snapshot(Some((&server, depth)));
            let body = match format {
                MetricsFormat::Prometheus => snapshot().to_prometheus(),
                MetricsFormat::Json => snapshot().to_json(),
                MetricsFormat::TraceJson => core.trace_json(),
            };
            Frame::MetricsReply { format, body }
        }
        Frame::TraceReq { format, query, pid } => {
            let query = (query != TRACE_ALL_QUERIES).then_some(query);
            let pid = (pid != TRACE_ALL_OUTPUTS).then_some(pid);
            let body = core.lineage(query, pid, format == TraceFormat::Json);
            Frame::TraceReply { format, body }
        }
        Frame::Drain if !core.drained() => {
            shared.with_stats(|s| s.drains += 1);
            return (core.finish(), Frame::DrainAck);
        }
        Frame::Drain => Frame::Error {
            code: ErrorCode::Draining,
            message: "already drained".into(),
        },
        other => Frame::Error {
            code: ErrorCode::Unexpected,
            message: format!("not a request: {other:?}"),
        },
    };
    (Vec::new(), reply)
}

fn spawn_session(shared: Arc<Shared>, transport: Box<dyn Transport>) {
    let conn = shared.next_conn.fetch_add(1, Ordering::SeqCst);
    let _ = std::thread::Builder::new()
        .name(format!("sequin-session-{conn}"))
        .spawn(move || run_session(shared, conn, transport));
}

/// Enqueues one ingest message with depth accounting and backpressure.
/// Returns false when the engine is gone.
fn enqueue_ingest(
    shared: &Shared,
    sink: &Arc<dyn FrameSink>,
    busy_advised: &mut bool,
    item: StreamItem,
) -> bool {
    let depth = shared.depth.fetch_add(1, Ordering::SeqCst) + 1;
    if depth >= shared.busy_high_water && !*busy_advised {
        *busy_advised = true;
        shared.with_stats(|s| s.busy_frames_sent += 1);
        shared.send(
            sink,
            &Frame::Busy {
                queued: depth as u64,
            },
        );
    } else if depth < shared.busy_high_water / 2 {
        *busy_advised = false;
    }
    match shared.tx.try_send(EngineMsg::Ingest(item)) {
        Ok(()) => true,
        Err(TrySendError::Full(msg)) => {
            shared.with_stats(|s| s.backpressure_stalls += 1);
            if shared.tx.send(msg).is_err() {
                shared.depth.fetch_sub(1, Ordering::SeqCst);
                return false;
            }
            true
        }
        Err(TrySendError::Disconnected(_)) => {
            shared.depth.fetch_sub(1, Ordering::SeqCst);
            false
        }
    }
}

fn run_session(shared: Arc<Shared>, conn: u64, mut transport: Box<dyn Transport>) {
    let sink = transport.sink();
    shared.with_stats(|s| s.connections_opened += 1);

    let (mut hello_done, mut observer) = (false, false);
    let mut busy_advised = false;

    // closes the session with a terminal protocol error
    let refuse = |code: ErrorCode, message: String| {
        shared.with_stats(|s| s.rejected_frames += 1);
        shared.send(&sink, &Frame::Error { code, message });
    };

    loop {
        let sealed = match transport.recv_frame() {
            Ok(Some(sealed)) => sealed,
            Ok(None) => break,
            Err(_) => {
                // torn frame or reset: nothing trustworthy left to read
                shared.with_stats(|s| s.rejected_frames += 1);
                break;
            }
        };
        let frame = match decode_frame(&sealed) {
            Ok(frame) => frame,
            Err(e) => {
                // corruption detected by the envelope: reject and close
                refuse(ErrorCode::BadFrame, e.to_string());
                break;
            }
        };
        shared.with_stats(|s| s.frames_received += 1);

        if !hello_done {
            match frame {
                Frame::Hello { fingerprint, .. } => {
                    // fingerprint 0 is the observer wildcard: a read-only
                    // monitoring client (e.g. `sequin stats`) that never
                    // ingests events and therefore skips schema negotiation
                    if fingerprint != 0 && fingerprint != shared.fingerprint {
                        refuse(
                            ErrorCode::SchemaMismatch,
                            format!(
                                "client schema {fingerprint:#018x} != server {:#018x}",
                                shared.fingerprint
                            ),
                        );
                        break;
                    }
                    (hello_done, observer) = (true, fingerprint == 0);
                    shared.send(
                        &sink,
                        &Frame::HelloAck {
                            fingerprint: shared.fingerprint,
                            resume_from: shared.resume_from.load(Ordering::SeqCst),
                            queries: shared.query_count.load(Ordering::SeqCst),
                        },
                    );
                }
                Frame::Bye => break,
                other => {
                    refuse(
                        ErrorCode::BadHello,
                        format!("HELLO required before {other:?}"),
                    );
                    break;
                }
            }
            continue;
        }

        let asks = matches!(
            frame,
            Frame::StatsReq | Frame::MetricsReq { .. } | Frame::TraceReq { .. } | Frame::Bye
        );
        if observer && !asks {
            let message = "an observer may only ask for stats, metrics or traces";
            refuse(ErrorCode::Unexpected, message.into());
            break;
        }
        match frame {
            Frame::Hello { .. } => {
                refuse(ErrorCode::BadHello, "duplicate HELLO".into());
                break;
            }
            Frame::EventBatch(events) => {
                shared.with_stats(|s| {
                    s.batches_ingested += 1;
                    s.events_ingested += events.len() as u64;
                });
                let mut items = events.into_iter().map(StreamItem::Event);
                if !items.all(|item| enqueue_ingest(&shared, &sink, &mut busy_advised, item)) {
                    break;
                }
            }
            Frame::Punctuation(ts) => {
                shared.with_stats(|s| s.punctuations_ingested += 1);
                let item = StreamItem::Punctuation(ts);
                if !enqueue_ingest(&shared, &sink, &mut busy_advised, item) {
                    break;
                }
            }
            request @ (Frame::Subscribe { .. }
            | Frame::StatsReq
            | Frame::MetricsReq { .. }
            | Frame::TraceReq { .. }
            | Frame::Drain) => {
                let (frame, sink) = (Box::new(request), sink.clone());
                if shared
                    .tx
                    .send(EngineMsg::Request { conn, frame, sink })
                    .is_err()
                {
                    break;
                }
            }
            Frame::Bye => break,
            // server→client frames arriving at the server are a protocol
            // violation
            other @ (Frame::HelloAck { .. }
            | Frame::SubAck { .. }
            | Frame::Output(_)
            | Frame::StatsReply { .. }
            | Frame::MetricsReply { .. }
            | Frame::TraceReply { .. }
            | Frame::DrainAck
            | Frame::Busy { .. }
            | Frame::Error { .. }) => {
                refuse(ErrorCode::Unexpected, format!("client sent {other:?}"));
                break;
            }
        }
    }

    let _ = shared.tx.send(EngineMsg::Disconnect { conn });
    sink.close();
    shared.with_stats(|s| s.connections_closed += 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::tests::{cfg, registry, stream, Q_AB, Q_BA};
    use crate::frame::{write_frame, OutputFrame};
    use sequin_engine::{OutputItem, QueryId};

    /// Records what reaches it; refuses everything once `broken`.
    #[derive(Default)]
    struct CountingSink {
        runs: Mutex<Vec<Vec<u8>>>,
        singles: AtomicU64,
        broken: AtomicBool,
    }

    impl CountingSink {
        fn runs(&self) -> Vec<Vec<u8>> {
            self.runs.lock().unwrap().clone()
        }
    }

    impl FrameSink for CountingSink {
        fn send_frame(&self, _sealed: &[u8]) -> std::io::Result<()> {
            self.singles.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }

        fn send_frames(&self, wire: &[u8]) -> std::io::Result<()> {
            self.runs.lock().unwrap().push(wire.to_vec());
            if self.broken.load(Ordering::SeqCst) {
                return Err(std::io::ErrorKind::BrokenPipe.into());
            }
            Ok(())
        }

        fn close(&self) {}
    }

    /// Two engine calls' outputs of a core with `Q_AB` as query 0 and
    /// `Q_BA` as query 1.
    fn two_calls() -> [Vec<(QueryId, OutputItem)>; 2] {
        let reg = registry();
        let mut core = EngineCore::new(cfg(&reg, None));
        core.subscribe(Q_AB).unwrap();
        core.subscribe(Q_BA).unwrap();
        let items = stream(&reg);
        let calls = [
            core.ingest_batch(&items[..30]),
            core.ingest_batch(&items[30..]),
        ];
        for query in 0..2 {
            for call in &calls {
                let of_query = call.iter().filter(|(q, _)| q.index() == query).count();
                assert!(of_query > 1, "every call needs several outputs per query");
            }
        }
        calls
    }

    /// What frame-by-frame sends of `outputs`' frames for `queries` put on
    /// the wire.
    fn frame_by_frame(outputs: &[(QueryId, OutputItem)], queries: &[usize]) -> (Vec<u8>, u64) {
        let (mut wire, mut frames) = (Vec::new(), 0);
        for (qid, o) in outputs {
            if queries.contains(&qid.index()) {
                let frame = Frame::Output(OutputFrame::of(qid.index() as u64, o));
                write_frame(&mut wire, &encode_frame(&frame)).unwrap();
                frames += 1;
            }
        }
        (wire, frames)
    }

    /// Every arrival is one message, so its size is hot-path cost: a
    /// request's frame (hundreds of bytes inline) stays boxed.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn an_engine_message_stays_small() {
        assert!(std::mem::size_of::<EngineMsg>() <= 56);
    }

    #[test]
    fn one_engine_call_reaches_each_subscriber_as_one_run_of_its_frames() {
        let calls = two_calls();
        let (both, one) = (
            Arc::new(CountingSink::default()),
            Arc::new(CountingSink::default()),
        );
        let mut egress = Egress::default();
        let sink: Arc<dyn FrameSink> = both.clone();
        egress.subscribe(7, &sink, 0);
        egress.subscribe(7, &sink, 1);
        egress.subscribe(7, &sink, 1); // a repeated SUBSCRIBE adds nothing
        let sink: Arc<dyn FrameSink> = one.clone();
        egress.subscribe(9, &sink, 1);

        for (n, call) in calls.iter().enumerate() {
            let sent = egress.deliver(call);
            let (want_both, frames_both) = frame_by_frame(call, &[0, 1]);
            let (want_one, frames_one) = frame_by_frame(call, &[1]);
            assert_eq!(sent, frames_both + frames_one);
            assert_eq!(both.runs().len(), n + 1, "one run per engine call");
            assert_eq!(both.runs()[n], want_both);
            assert_eq!(one.runs()[n], want_one);
        }
        // a call with nothing for anybody writes nothing
        assert_eq!(egress.deliver(&[]), 0);
        assert_eq!(both.runs().len(), 2);
        assert_eq!(both.singles.load(Ordering::SeqCst), 0);
        assert_eq!(one.singles.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_failed_write_drops_that_subscriber_at_once_and_counts_nothing_for_it() {
        let calls = two_calls();
        let (dead, live) = (
            Arc::new(CountingSink::default()),
            Arc::new(CountingSink::default()),
        );
        dead.broken.store(true, Ordering::SeqCst);
        let mut egress = Egress::default();
        let sink: Arc<dyn FrameSink> = dead.clone();
        egress.subscribe(1, &sink, 0);
        egress.subscribe(1, &sink, 1);
        let sink: Arc<dyn FrameSink> = live.clone();
        egress.subscribe(2, &sink, 1);

        let (want, frames) = frame_by_frame(&calls[0], &[1]);
        assert_eq!(egress.deliver(&calls[0]), frames, "only the live one's");
        assert_eq!(live.runs(), [want]);
        let left: Vec<u64> = egress.subscribers.iter().map(|s| s.conn).collect();
        assert_eq!(left, [2], "gone after its first failed write");
        assert_eq!(egress.by_query, [vec![], vec![0]], "and out of the index");

        let (want, frames) = frame_by_frame(&calls[1], &[1]);
        assert_eq!(egress.deliver(&calls[1]), frames);
        assert_eq!(live.runs()[1], want);
        assert_eq!(dead.runs().len(), 1, "nothing more is written to it");
        // its session's Disconnect, when it is finally dequeued, finds nothing
        egress.remove(1);
        assert_eq!(egress.subscribers.len(), 1);
    }
}
