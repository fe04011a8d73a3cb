//! The server: session readers, one engine thread, bounded backpressure.
//!
//! ## Threading model
//!
//! Each accepted connection gets a **reader thread** that performs the
//! HELLO handshake itself, then decodes frames and hands work to the
//! single **engine thread** through its one inbox, bounded in items: an
//! arrival counts its items, a request one, and a disconnect or a stop
//! none, so it never waits. The engine thread is the only code touching
//! [`EngineCore`], so evaluation needs no locks and output order is
//! globally deterministic. It is a driver, `engine_loop`, around a
//! [`Step`]: the step turns each message into its [`Effect`]s in
//! output-commit order, and the driver takes queued arrivals off the inbox
//! in batches and performs the effects. `sequin-sim` drives the same step,
//! and crashes it between two effects.
//!
//! ## The request path
//!
//! An arrival travels as one `Ingest` message per EVENT_BATCH or
//! PUNCTUATION frame, its items in one `Vec`; every other frame a client
//! may send (SUBSCRIBE, STATS_REQ, METRICS_REQ, TRACE_REQ, DRAIN) travels
//! as it was decoded, in one `Request` message, and gets one reply, after
//! every output it released — a refused SUBSCRIBE or a second DRAIN a
//! coded ERROR. After a DRAIN a session answers ingestion with
//! `ERROR[draining]` and closes. An observer session (HELLO with
//! fingerprint 0) negotiated no schema, so it may only ask: STATS_REQ,
//! METRICS_REQ, TRACE_REQ and BYE.
//!
//! The engine thread takes a run of queued frames, whole, into one engine
//! call, then hands each frame's items back to the session that decoded
//! them, in the `Vec` they came in. That session frees them when it
//! handles its next frame, and reuses the `Vec`: an event is allocated
//! and freed on its session's thread, never on the engine thread, which is
//! the one that saturates. A frame whose session has gone is dropped by
//! the engine thread.
//!
//! ## Egress
//!
//! The engine produces outputs per ingest batch, and they leave per batch:
//! each OUTPUT frame is encoded once, and a subscriber gets all of one
//! engine call's frames for its queries in one write, under one hold of
//! its sink's lock — a session thread's BUSY or ERROR lands between two
//! batches, never between two frames of one. The bytes are those of
//! frame-by-frame sends. [`ServerStats::frames_sent`] counts the frames of
//! every run whose write succeeded; a subscriber whose write failed is
//! dropped. The write blocks the engine thread: a subscriber that stops
//! reading still stalls evaluation for everyone.
//!
//! ## Backpressure
//!
//! The queue is bounded in items, not frames: a session waits until its
//! frame's items, or its request's one, fit under
//! [`ServerConfig::queue_capacity`] — a frame larger than the whole bound
//! waits for an empty queue — and counts one
//! [`ServerStats::backpressure_stalls`] per message that waited. A
//! disconnect or a stop counts no item and never waits. TCP flow control
//! then propagates the stall to the sender. Independently, when an
//! arrival takes the queue depth in items across the configured
//! high-water mark the reader sends the client one BUSY advisory (rearmed
//! once depth falls below half the mark).
//!
//! Every rule of the inbox lives in a state machine with no lock and no
//! thread (`inbox.rs`), which returns each wake as a value; [`Shared`] is
//! its shell: it locks, calls the machine, unlocks, then wakes. There are
//! three wake rules: a wake comes after the unlock, so that the woken
//! thread does not block at once on the waker's lock; the engine thread is
//! woken only while it is idle; sessions are woken only when some wait and
//! items were taken. A unit test runs the machine under every interleaving
//! of a few sessions and the engine thread.
//!
//! ## Durability
//!
//! With [`CoreConfig::checkpoint_every`] set and a
//! [`ServerConfig::store_path`], the driver saves the checkpoint store
//! whenever a message dirtied it, and saves *before* it sends (output
//! commit): its OUTPUT frames and its reply leave only once the store
//! file holds their log records, so no output a client received is
//! re-delivered after a restart. The window left is the other way round:
//! a crash after the save and before the send loses that batch's outputs,
//! which the restart suppresses as delivered (at-most-once for that
//! sliver).
//! [`Server::crash`] (the fault-injection kill) lands on a message
//! boundary, where no such window is open. A failed save is reported on
//! stderr and the frames still go out. A server without checkpointing
//! never dirties its store, so it saves nothing.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use sequin_engine::{CheckpointStore, OutputItem, QueryId};
use sequin_types::StreamItem;

use crate::bundle::write_bundle;
use crate::core::{CoreConfig, EngineCore};
use crate::frame::{
    append_output_frame, decode_frame, encode_frame, ErrorCode, Frame, MetricsFormat, TraceFormat,
    TRACE_ALL_OUTPUTS, TRACE_ALL_QUERIES,
};
use crate::inbox::{Inbox, Push, Take};
use crate::stats::ServerStats;
use crate::transport::{FrameSink, TcpTransport, Transport};

/// Server deployment settings.
pub struct ServerConfig {
    /// Schema, per-engine settings, durability cadence.
    pub core: CoreConfig,
    /// Queries registered before the first connection is accepted (clients
    /// may SUBSCRIBE more at runtime).
    pub queries: Vec<String>,
    /// Bound of the engine thread's inbox, in items: an arrival counts
    /// its items and a queued request one.
    pub queue_capacity: usize,
    /// Queue depth, in items, at which an arrival's reader sends a BUSY
    /// advisory.
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
    /// Defaults: a queue of 1024 items, BUSY at 768, no persistence.
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
    /// One EVENT_BATCH or PUNCTUATION frame's items, which go back through
    /// `back` to the session that decoded them once they are ingested.
    Ingest {
        items: Vec<StreamItem>,
        back: Sender<Vec<StreamItem>>,
    },
    /// A request frame of session `conn`, answered on `sink`. Boxed, so
    /// the per-frame `Ingest` message stays small.
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

/// An ingest frame's arrivals, which may join a run of frames, or the
/// message back when it is another.
fn arrivals(msg: EngineMsg) -> Result<Arrivals, EngineMsg> {
    match msg {
        EngineMsg::Ingest { items, back } => Ok((items, back)),
        other => Err(other),
    }
}

/// What the engine thread shares with the session threads — its inbox
/// first: the [`Step`] reads and bumps the rest by reference, so a driver
/// without threads builds a default one of its own.
#[derive(Default)]
pub struct Shared {
    /// The inbox's rules, each wake they call for returned as a value; the
    /// methods below are the shell that locks, calls them, unlocks, and
    /// then wakes.
    inbox: Mutex<Inbox<EngineMsg>>,
    /// Where sessions wait for room.
    room: Condvar,
    /// Where the engine thread waits for work.
    work: Condvar,
    stats: Mutex<ServerStats>,
    /// Mirror of the core's ingest position, served in HELLO_ACK.
    resume_from: AtomicU64,
    /// Mirror of the core's query count, served in HELLO_ACK.
    query_count: AtomicU64,
    /// Set once a DRAIN has been handled: sessions refuse ingestion.
    drained: AtomicBool,
    fingerprint: u64,
    busy_high_water: usize,
    accepting: AtomicBool,
    next_conn: AtomicU64,
}

impl Default for Inbox<EngineMsg> {
    /// A bound of one item, for a [`Shared`] whose inbox is not used.
    fn default() -> Self {
        Inbox::new(1, MAX_ENGINE_BATCH)
    }
}

impl Shared {
    fn inbox(&self) -> MutexGuard<'_, Inbox<EngineMsg>> {
        self.inbox.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queues `msg`, which counts `n` items, waiting for room as long as
    /// the inbox says so, which counts a backpressure stall. Returns the
    /// depth with it, or `None` once the engine thread has stopped.
    fn push(&self, msg: EngineMsg, n: usize) -> Option<usize> {
        let mut q = self.inbox();
        let (mut pushed, mut stalled) = (q.push(msg, n), false);
        while let Push::Wait(msg) = pushed {
            stalled = true;
            q = self.room.wait(q).unwrap_or_else(|e| e.into_inner());
            pushed = q.retry(msg, n);
        }
        // every wake comes after the unlock, so that the woken thread does
        // not block at once on the lock this one holds
        drop(q);
        let (depth, wake_taker) = match pushed {
            Push::Queued { depth, wake_taker } => (Some(depth), wake_taker),
            Push::Wait(_) | Push::Closed => (None, false),
        };
        if wake_taker {
            self.work.notify_one();
        }
        if stalled {
            self.with_stats(|s| s.backpressure_stalls += 1);
        }
        depth
    }

    /// The engine thread's one wait: the next message, or — returning
    /// `None` — a run of whole ingest frames put in `frames`, for one
    /// engine call, which amortises wakeups and egress writes.
    fn next(&self, frames: &mut Vec<(Arrivals, usize)>) -> Option<EngineMsg> {
        let mut q = self.inbox();
        let (msg, wake_room) = loop {
            match q.take(frames, arrivals) {
                Take::Run { wake_room } => break (None, wake_room),
                Take::Msg { msg, wake_room } => break (Some(msg), wake_room),
                Take::Idle => q = self.work.wait(q).unwrap_or_else(|e| e.into_inner()),
            }
        };
        drop(q);
        if wake_room {
            self.room.notify_all();
        }
        msg
    }

    /// The engine thread has stopped: what is queued is dropped, and a
    /// session waiting for room gives up.
    fn close(&self) {
        self.inbox().close();
        self.room.notify_all();
    }

    fn with_stats<T>(&self, f: impl FnOnce(&mut ServerStats) -> T) -> T {
        f(&mut self.stats.lock().unwrap_or_else(|e| e.into_inner()))
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
            resume_from: AtomicU64::new(core.position()),
            query_count: AtomicU64::new(core.query_count()),
            fingerprint: core.fingerprint(),
            inbox: Mutex::new(Inbox::new(config.queue_capacity.max(1), MAX_ENGINE_BATCH)),
            busy_high_water: config.busy_high_water.max(1),
            accepting: AtomicBool::new(true),
            ..Shared::default()
        });

        let engine = {
            let shared = shared.clone();
            let store_path = config.store_path.clone();
            std::thread::Builder::new()
                .name("sequin-engine".into())
                .spawn(move || engine_loop(Step::new(core), shared, store_path))
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

    /// Stops accepting, queues `last` for the engine thread and joins it.
    fn stop(&mut self, last: EngineMsg) {
        self.shared.accepting.store(false, Ordering::SeqCst);
        if let Some(addr) = self.local_addr {
            // wake the blocking accept() so the thread observes the flag
            let _ = TcpStream::connect(addr);
        }
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        self.shared.push(last, 0);
        if let Some(h) = self.engine.take() {
            let _ = h.join();
        }
    }

    /// Graceful stop: stops accepting, persists durable state, joins the
    /// engine thread. Sessions still open simply find the queue closed;
    /// what was queued behind the stop is dropped.
    pub fn shutdown(&mut self) {
        self.stop(EngineMsg::Shutdown);
    }

    /// Fault injection: kill the engine thread *without* any final
    /// persistence, simulating a process crash. Whatever the store file
    /// held at the last dirty-save is all a restart gets.
    pub fn crash(&mut self) {
        self.stop(EngineMsg::Crash);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.engine.is_some() {
            self.shutdown();
        }
    }
}

/// Upper bound on one coalesced ingest batch, passed only by a frame
/// larger on its own: keeps delivery latency and the checkpoint-persist
/// cadence bounded even under a saturated queue.
const MAX_ENGINE_BATCH: usize = 256;

/// One frame's arrivals while the engine thread holds them, and the way
/// back to the session that decoded them.
type Arrivals = (Vec<StreamItem>, Sender<Vec<StreamItem>>);

/// One subscribed connection, as the engine thread sees it.
struct Subscriber {
    conn: u64,
    sink: Arc<dyn FrameSink>,
    /// Ids of the queries whose outputs it receives.
    queries: Vec<usize>,
    /// The current message's OUTPUT frames for it, as they go on the
    /// wire; emptied once sent and kept for its capacity.
    wire: Vec<u8>,
    /// Frames in `wire`.
    frames: u64,
}

/// The engine thread's outbound side: who receives which query's outputs,
/// and one message's OUTPUT frames on their way to them.
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
    /// to the run of every connection subscribed to its query, then every
    /// connection's run is `perform`ed as one [`Effect::Frames`], in
    /// engine order. A connection whose write fails is gone: it is dropped
    /// here and now — not when its session's `Disconnect` comes up behind
    /// a full queue of ingests.
    fn deliver(&mut self, outputs: &[(QueryId, OutputItem)], perform: &mut Perform<'_>) {
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
        let mut gone = Vec::new();
        for to in &mut self.subscribers {
            if to.frames > 0 && !perform(Effect::Frames(&to.sink, &to.wire, to.frames)) {
                gone.push(to.conn);
            }
            to.wire.clear();
            to.frames = 0;
        }
        if !gone.is_empty() {
            self.remove_where(|s| gone.contains(&s.conn));
        }
    }
}

/// One effect of a message, handed to its driver in output-commit order:
/// the save (when the message dirtied the store), each subscriber's run of
/// OUTPUT frames, the reply.
pub enum Effect<'a> {
    /// Save the store.
    Save(&'a CheckpointStore),
    /// Send one subscriber its run of this many frames, as they go on the
    /// wire.
    Frames(&'a Arc<dyn FrameSink>, &'a [u8], u64),
    /// Send a request's reply.
    Reply(&'a Arc<dyn FrameSink>, &'a Frame),
}

/// How a driver performs an [`Effect`], returning whether a write
/// succeeded (a save, the driver's own affair, returns `true`).
pub type Perform<'p> = dyn FnMut(Effect<'_>) -> bool + 'p;

impl Effect<'_> {
    /// Sends a run, in one [`FrameSink::send_frames`], or a reply (a
    /// driver saves itself); its frames count only if the write succeeds.
    /// Returns whether it did.
    pub fn send(&self, shared: &Shared) -> bool {
        let (sent, frames) = match *self {
            Effect::Save(_) => return true,
            Effect::Frames(sink, wire, frames) => (sink.send_frames(wire), frames),
            Effect::Reply(sink, frame) => (sink.send_frame(&encode_frame(frame)), 1),
        };
        if sent.is_ok() {
            shared.with_stats(|s| s.frames_sent += frames);
        }
        sent.is_ok()
    }
}

/// The engine thread's work, with no channel, thread, socket or file
/// around it: it owns the [`EngineCore`] and the subscriber table, and
/// turns each message — an ingest batch, a request frame, a disconnect —
/// into that message's [`Effect`]s, which the caller's `perform` carries
/// out in the order given.
pub struct Step {
    core: EngineCore,
    egress: Egress,
}

impl Step {
    /// A step around `core`, with no subscriber yet.
    pub fn new(core: EngineCore) -> Step {
        let egress = Egress::default();
        Step { core, egress }
    }

    /// Ingests a run of arrivals in one engine call.
    pub fn ingest(&mut self, batch: &[StreamItem], shared: &Shared, perform: &mut Perform<'_>) {
        let outputs = self.core.ingest_batch(batch);
        let position = self.core.position();
        shared.resume_from.store(position, Ordering::SeqCst);
        shared.with_stats(|s| {
            s.engine_batches += 1;
            s.max_engine_batch = s.max_engine_batch.max(batch.len() as u64);
        });
        self.commit(&outputs, None, perform);
    }

    /// Answers a request frame of session `conn`, whose frames go to
    /// `sink`: a coded ERROR for a refused SUBSCRIBE, a second DRAIN or a
    /// frame that is no request; a first DRAIN's reply follows the outputs
    /// it released.
    pub fn request(
        &mut self,
        conn: u64,
        frame: Frame,
        sink: &Arc<dyn FrameSink>,
        shared: &Shared,
        perform: &mut Perform<'_>,
    ) {
        let core = &mut self.core;
        let mut outputs = Vec::new();
        let reply = match frame {
            Frame::Subscribe { query, policy } => {
                match core.subscribe_with_policy(&query, policy) {
                    Ok((qid, policy)) => {
                        let count = core.query_count();
                        shared.query_count.store(count, Ordering::SeqCst);
                        self.egress.subscribe(conn, sink, qid.index());
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
                }
            }
            Frame::StatsReq => Frame::StatsReply {
                server: shared.with_stats(|s| *s),
                engine: core.stats(),
            },
            Frame::MetricsReq { format } => {
                let server = shared.with_stats(|s| *s);
                let depth = shared.inbox().depth() as u64;
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
                shared.drained.store(true, Ordering::SeqCst);
                outputs = core.finish();
                Frame::DrainAck
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
        self.commit(&outputs, Some((sink, &reply)), perform);
    }

    /// Session `conn` has ended: it is sent nothing more.
    pub fn disconnect(&mut self, conn: u64) {
        self.egress.remove(conn);
    }

    /// Hands a message's effects to `perform`. Output commit: the store
    /// holds the message's log records before its outputs or its reply
    /// leave.
    fn commit(
        &mut self,
        outputs: &[(QueryId, OutputItem)],
        reply: Option<(&Arc<dyn FrameSink>, &Frame)>,
        perform: &mut Perform<'_>,
    ) {
        if self.core.take_dirty() {
            perform(Effect::Save(self.core.store()));
        }
        self.egress.deliver(outputs, perform);
        if let Some((sink, frame)) = reply {
            perform(Effect::Reply(sink, frame));
        }
    }
}

/// The engine thread's driver: takes queued arrivals off the inbox in
/// batches, hands every message to `step`, and performs its effects —
/// [`Effect::Save`] as a save of the store file at `store_path`.
fn engine_loop(mut step: Step, shared: Arc<Shared>, store_path: Option<PathBuf>) {
    let mut perform = |effect: Effect<'_>| match (effect, &store_path) {
        (Effect::Save(store), Some(path)) => {
            if let Err(e) = store.save(path) {
                eprintln!("store {} not saved ({e})", path.display());
            }
            true
        }
        (effect, _) => effect.send(&shared),
    };
    // Closes the queue however the loop ends, so that no session waits
    // for room that will never come.
    struct CloseOnExit<'a>(&'a Shared);
    impl Drop for CloseOnExit<'_> {
        fn drop(&mut self) {
            self.0.close();
        }
    }
    let _close = CloseOnExit(&shared);
    let (mut frames, mut batch) = (Vec::new(), Vec::new());
    loop {
        match shared.next(&mut frames) {
            None => ingest_frames(&mut step, &mut frames, &mut batch, &shared, &mut perform),
            Some(EngineMsg::Ingest { .. }) => unreachable!("arrivals come as a run of frames"),
            Some(EngineMsg::Request { conn, frame, sink }) => {
                step.request(conn, *frame, &sink, &shared, &mut perform)
            }
            Some(EngineMsg::Disconnect { conn }) => step.disconnect(conn),
            Some(EngineMsg::Crash) => return,
            Some(EngineMsg::Shutdown) => break,
        }
    }
    // shutdown: what startup registered is unsaved until a message saves it
    if step.core.take_dirty() {
        perform(Effect::Save(step.core.store()));
    }
}

/// Ingests `frames` in one engine call, then hands each frame's items
/// back through its `back`, in the `Vec` they came in, so that the session
/// that decoded them frees them. A session that has gone cannot take them:
/// they are dropped here.
fn ingest_frames(
    step: &mut Step,
    frames: &mut Vec<(Arrivals, usize)>,
    batch: &mut Vec<StreamItem>,
    shared: &Shared,
    perform: &mut Perform<'_>,
) {
    for ((items, _), _) in frames.iter_mut() {
        batch.append(items);
    }
    step.ingest(batch, shared, perform);
    for ((items, _), len) in frames.iter_mut().rev() {
        items.extend(batch.drain(batch.len() - *len..));
    }
    for ((items, back), _) in frames.drain(..) {
        let _ = back.send(items);
    }
}

fn spawn_session(shared: Arc<Shared>, transport: Box<dyn Transport>) {
    let conn = shared.next_conn.fetch_add(1, Ordering::SeqCst);
    let _ = std::thread::Builder::new()
        .name(format!("sequin-session-{conn}"))
        .spawn(move || run_session(shared, conn, transport));
}

/// A `Vec` for a frame's items: one the engine thread handed back, once
/// this thread has freed the items it held, or a new one.
fn recycled(
    returned: &Receiver<Vec<StreamItem>>,
    spare: &mut Vec<Vec<StreamItem>>,
) -> Vec<StreamItem> {
    for mut items in returned.try_iter() {
        items.clear();
        spare.push(items);
    }
    spare.pop().unwrap_or_default()
}

fn run_session(shared: Arc<Shared>, conn: u64, mut transport: Box<dyn Transport>) {
    let sink = transport.sink();
    shared.with_stats(|s| s.connections_opened += 1);

    let (mut hello_done, mut observer) = (false, false);
    let mut busy_advised = false;
    // each frame's items come back here once ingested, to be freed on the
    // thread that decoded them; their `Vec`s are kept for the next frames
    let (back, returned) = mpsc::channel();
    let mut spare = Vec::new();

    // closes the session with a terminal protocol error
    let refuse = |code: ErrorCode, message: String| {
        shared.with_stats(|s| s.rejected_frames += 1);
        Effect::Reply(&sink, &Frame::Error { code, message }).send(&shared);
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
                    let ack = Frame::HelloAck {
                        fingerprint: shared.fingerprint,
                        resume_from: shared.resume_from.load(Ordering::SeqCst),
                        queries: shared.query_count.load(Ordering::SeqCst),
                    };
                    Effect::Reply(&sink, &ack).send(&shared);
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
        let msg = match frame {
            Frame::Hello { .. } => {
                refuse(ErrorCode::BadHello, "duplicate HELLO".into());
                break;
            }
            Frame::EventBatch(_) | Frame::Punctuation(_)
                if shared.drained.load(Ordering::SeqCst) =>
            {
                refuse(ErrorCode::Draining, "drained: no further ingestion".into());
                break;
            }
            Frame::EventBatch(events) => {
                shared.with_stats(|s| {
                    s.batches_ingested += 1;
                    s.events_ingested += events.len() as u64;
                });
                if events.is_empty() {
                    continue;
                }
                let mut items = recycled(&returned, &mut spare);
                items.extend(events.into_iter().map(StreamItem::Event));
                let back = back.clone();
                EngineMsg::Ingest { items, back }
            }
            Frame::Punctuation(ts) => {
                shared.with_stats(|s| s.punctuations_ingested += 1);
                let mut items = recycled(&returned, &mut spare);
                items.push(StreamItem::Punctuation(ts));
                let back = back.clone();
                EngineMsg::Ingest { items, back }
            }
            request @ (Frame::Subscribe { .. }
            | Frame::StatsReq
            | Frame::MetricsReq { .. }
            | Frame::TraceReq { .. }
            | Frame::Drain) => {
                let (frame, sink) = (Box::new(request), sink.clone());
                EngineMsg::Request { conn, frame, sink }
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
        };
        // an arrival counts its items, a request one; only an arrival can
        // take the queue across the BUSY high-water mark
        let arrival = match &msg {
            EngineMsg::Ingest { items, .. } => Some(items.len()),
            _ => None,
        };
        let Some(depth) = shared.push(msg, arrival.unwrap_or(1)) else {
            break;
        };
        if arrival.is_some() {
            if depth >= shared.busy_high_water && !busy_advised {
                busy_advised = true;
                shared.with_stats(|s| s.busy_frames_sent += 1);
                let queued = depth as u64;
                Effect::Reply(&sink, &Frame::Busy { queued }).send(&shared);
            } else if depth < shared.busy_high_water / 2 {
                busy_advised = false;
            }
        }
    }

    shared.push(EngineMsg::Disconnect { conn }, 0);
    sink.close();
    shared.with_stats(|s| s.connections_closed += 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::tests::{cfg, item, registry, stream, Q_AB, Q_BA};
    use crate::frame::{write_frame, OutputFrame};
    use sequin_engine::{OutputItem, QueryId};

    /// Records what reaches it; refuses everything once `broken`.
    #[derive(Default)]
    struct CountingSink {
        runs: Mutex<Vec<Vec<u8>>>,
        /// Each frame sent alone, sealed.
        singles: Mutex<Vec<Vec<u8>>>,
        broken: AtomicBool,
    }

    impl CountingSink {
        fn runs(&self) -> Vec<Vec<u8>> {
            self.runs.lock().unwrap().clone()
        }
    }

    impl FrameSink for CountingSink {
        fn send_frame(&self, sealed: &[u8]) -> std::io::Result<()> {
            self.singles.lock().unwrap().push(sealed.to_vec());
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

    /// One engine call's egress, as the server performs it: the frames
    /// that went out.
    fn deliver(egress: &mut Egress, outputs: &[(QueryId, OutputItem)], shared: &Shared) -> u64 {
        let before = shared.with_stats(|s| s.frames_sent);
        egress.deliver(outputs, &mut |effect| effect.send(shared));
        shared.with_stats(|s| s.frames_sent) - before
    }

    /// Every arrival frame is one message, so its size is hot-path cost: a
    /// request's frame (hundreds of bytes inline) stays boxed.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn an_engine_message_stays_small() {
        assert!(std::mem::size_of::<EngineMsg>() <= 56);
    }

    /// A stacked instance is one block, `Arc` header plus `Event` with its
    /// attributes inline: no larger than the event and attribute blocks
    /// it replaced (80 + 64 bytes).
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn an_event_with_its_attributes_stays_small() {
        assert!(std::mem::size_of::<sequin_types::Event>() <= 112);
    }

    /// Frames go through `engine_loop` whole and come back to the session
    /// that sent them: each sender gets exactly its own items, the same
    /// events in the same `Vec`s, in order. A run of frames stops short of
    /// `MAX_ENGINE_BATCH` unless one frame is larger on its own, and before
    /// the next message that is no arrival, which is handled between the
    /// runs on either side of it; a sender that has gone stalls nothing. A
    /// request counts one item and a disconnect or a stop none, so these
    /// are queued at once into a full queue; a stopped engine thread takes
    /// nothing more.
    #[test]
    fn each_frame_comes_back_whole_to_the_session_that_sent_it() {
        let reg = registry();
        let mut core = EngineCore::new(cfg(&reg, None));
        core.subscribe(Q_AB).unwrap();
        // the bound is what is queued below: 700 items and one request
        let shared = Arc::new(Shared {
            inbox: Mutex::new(Inbox::new(701, MAX_ENGINE_BATCH)),
            ..Shared::default()
        });
        let (backs, mut returned): (Vec<_>, Vec<_>) = (0..3).map(|_| mpsc::channel()).unzip();
        drop(returned.pop());
        let asker = Arc::new(CountingSink::default());
        let stats_req = || EngineMsg::Request {
            conn: 9,
            frame: Box::new(Frame::StatsReq),
            sink: asker.clone(),
        };
        let mut ts = 0;
        // (sender, frame size) in queue order, the request after the
        // second; sender 2 has gone
        let mut sent = [Vec::new(), Vec::new(), Vec::new()];
        let queue = [(0, 100), (1, 100), (2, 50), (0, 100), (1, 300), (0, 50)];
        for (at, (from, n)) in queue.into_iter().enumerate() {
            if at == 2 {
                assert_eq!(shared.push(stats_req(), 1), Some(201));
            }
            let items: Vec<StreamItem> = (0..n)
                .map(|_| {
                    ts += 1;
                    item(&reg, if ts % 3 == 0 { "B" } else { "A" }, ts, ts)
                })
                .collect();
            sent[from].push((items.as_ptr(), items.clone()));
            let back = backs[from].clone();
            let depth = ts as usize + usize::from(at >= 2);
            let msg = EngineMsg::Ingest { items, back };
            assert_eq!(shared.push(msg, n as usize), Some(depth));
        }
        let disconnect = || EngineMsg::Disconnect { conn: 9 };
        assert_eq!(shared.push(disconnect(), 0), Some(701), "no wait");
        assert_eq!(shared.push(EngineMsg::Shutdown, 0), Some(701));
        engine_loop(Step::new(core), shared.clone(), None);

        for (from, returned) in returned.iter().enumerate() {
            let got: Vec<Vec<StreamItem>> = returned.try_iter().collect();
            assert_eq!(
                got.len(),
                sent[from].len(),
                "sender {from}: one Vec per frame"
            );
            for (items, (at, want)) in got.iter().zip(&sent[from]) {
                assert_eq!(items.as_ptr(), *at, "sender {from}: the Vec it sent");
                assert_eq!(items.len(), want.len());
                for (a, b) in items.iter().zip(want) {
                    let (StreamItem::Event(a), StreamItem::Event(b)) = (a, b) else {
                        unreachable!("events only")
                    };
                    assert!(Arc::ptr_eq(a, b), "sender {from}: its own events, in order");
                }
            }
        }
        // 100 + 100, then the request, then 50 + 100 (the next 300 would
        // pass 256), then the 300 alone, then 50
        let replies = asker.singles.lock().unwrap().clone();
        let [reply] = &replies[..] else {
            panic!("{} replies to one request", replies.len())
        };
        let Ok(Frame::StatsReply { server, .. }) = decode_frame(reply) else {
            panic!("not a STATS_REPLY")
        };
        assert_eq!((server.engine_batches, server.max_engine_batch), (1, 200));
        let stats = shared.with_stats(|s| *s);
        assert_eq!((stats.engine_batches, stats.max_engine_batch), (4, 300));
        assert_eq!(
            shared.inbox().depth(),
            0,
            "a stopped engine thread closes the queue"
        );
        let (items, back) = (Vec::new(), backs[0].clone());
        let ingest = EngineMsg::Ingest { items, back };
        for (msg, n) in [(ingest, 1), (stats_req(), 1), (disconnect(), 0)] {
            assert_eq!(shared.push(msg, n), None);
        }
        assert_eq!(shared.push(EngineMsg::Shutdown, 0), None);
    }

    #[test]
    fn one_engine_call_reaches_each_subscriber_as_one_run_of_its_frames() {
        let calls = two_calls();
        let (both, one) = (
            Arc::new(CountingSink::default()),
            Arc::new(CountingSink::default()),
        );
        let shared = Shared::default();
        let mut egress = Egress::default();
        let sink: Arc<dyn FrameSink> = both.clone();
        egress.subscribe(7, &sink, 0);
        egress.subscribe(7, &sink, 1);
        egress.subscribe(7, &sink, 1); // a repeated SUBSCRIBE adds nothing
        let sink: Arc<dyn FrameSink> = one.clone();
        egress.subscribe(9, &sink, 1);

        for (n, call) in calls.iter().enumerate() {
            let sent = deliver(&mut egress, call, &shared);
            let (want_both, frames_both) = frame_by_frame(call, &[0, 1]);
            let (want_one, frames_one) = frame_by_frame(call, &[1]);
            assert_eq!(sent, frames_both + frames_one);
            assert_eq!(both.runs().len(), n + 1, "one run per engine call");
            assert_eq!(both.runs()[n], want_both);
            assert_eq!(one.runs()[n], want_one);
        }
        // a call with nothing for anybody writes nothing
        assert_eq!(deliver(&mut egress, &[], &shared), 0);
        assert_eq!(both.runs().len(), 2);
        assert!(both.singles.lock().unwrap().is_empty());
        assert!(one.singles.lock().unwrap().is_empty());
    }

    #[test]
    fn a_failed_write_drops_that_subscriber_at_once_and_counts_nothing_for_it() {
        let calls = two_calls();
        let (dead, live) = (
            Arc::new(CountingSink::default()),
            Arc::new(CountingSink::default()),
        );
        dead.broken.store(true, Ordering::SeqCst);
        let shared = Shared::default();
        let mut egress = Egress::default();
        let sink: Arc<dyn FrameSink> = dead.clone();
        egress.subscribe(1, &sink, 0);
        egress.subscribe(1, &sink, 1);
        let sink: Arc<dyn FrameSink> = live.clone();
        egress.subscribe(2, &sink, 1);

        let (want, frames) = frame_by_frame(&calls[0], &[1]);
        let sent = deliver(&mut egress, &calls[0], &shared);
        assert_eq!(sent, frames, "only the live one's");
        assert_eq!(live.runs(), [want]);
        let left: Vec<u64> = egress.subscribers.iter().map(|s| s.conn).collect();
        assert_eq!(left, [2], "gone after its first failed write");
        assert_eq!(egress.by_query, [vec![], vec![0]], "and out of the index");

        let (want, frames) = frame_by_frame(&calls[1], &[1]);
        assert_eq!(deliver(&mut egress, &calls[1], &shared), frames);
        assert_eq!(live.runs()[1], want);
        assert_eq!(dead.runs().len(), 1, "nothing more is written to it");
        // its session's Disconnect, when it is finally dequeued, finds nothing
        egress.remove(1);
        assert_eq!(egress.subscribers.len(), 1);
    }

    /// The kinds of the effects `message` hands its `perform`, in order.
    fn kinds(message: impl FnOnce(&mut Perform<'_>)) -> Vec<&'static str> {
        let mut kinds = Vec::new();
        message(&mut |effect| {
            kinds.push(match effect {
                Effect::Save(_) => "save",
                Effect::Frames(..) => "frames",
                Effect::Reply(..) => "reply",
            });
            true
        });
        kinds
    }

    /// Output commit, as the step hands it over: a message that dirtied a
    /// durable store saves first, then each subscriber's run goes out,
    /// then the reply; a message that released nothing has no run.
    #[test]
    fn a_step_hands_over_the_save_first_and_the_reply_last() {
        let reg = registry();
        let mut step = Step::new(EngineCore::new(cfg(&reg, Some(7))));
        let shared = Shared::default();
        let sink: Arc<dyn FrameSink> = Arc::new(CountingSink::default());
        let subscribe = Frame::Subscribe {
            query: Q_AB.to_owned(),
            policy: None,
        };
        let request = |step: &mut Step, frame: &Frame| {
            kinds(|p| step.request(3, frame.clone(), &sink, &shared, p))
        };
        let registered = request(&mut step, &subscribe);
        assert_eq!(registered, ["save", "reply"], "a registration is durable");
        let hit = request(&mut step, &subscribe);
        assert_eq!(hit, ["reply"], "a table hit changes nothing");
        let items = stream(&reg);
        let ingested = kinds(|p| step.ingest(&items, &shared, p));
        assert_eq!(ingested, ["save", "frames"]);
        assert_eq!(
            shared.resume_from.load(Ordering::SeqCst),
            items.len() as u64
        );
        let drained = request(&mut step, &Frame::Drain);
        assert_eq!((drained[0], drained[drained.len() - 1]), ("save", "reply"));
        assert!(shared.drained.load(Ordering::SeqCst));
    }
}
