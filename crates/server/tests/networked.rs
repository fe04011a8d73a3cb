//! End-to-end protocol tests: real sockets, faulty links, crashed servers.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration as StdDuration, Instant};

use sequin_engine::{CheckpointStore, DisorderPolicy, EngineConfig, Strategy};
use sequin_netsim::{delay_shuffle, punctuate, FramePlan};
use sequin_server::frame::{read_frame, write_frame};
use sequin_server::{
    decode_frame, encode_frame, loopback_run, mem_pair, Client, ClientError, CoreConfig,
    EngineCore, ErrorCode, Frame, FrameSink, MemTransport, MetricsFormat, OutputFrame, Server,
    ServerConfig, TraceFormat, Transport, TRACE_ALL_OUTPUTS, TRACE_ALL_QUERIES,
};
use sequin_types::codec::{fnv1a64, open_envelope};
use sequin_types::{Duration, StreamItem, Timestamp, TypeRegistry};
use sequin_workload::{Synthetic, SyntheticConfig};

const Q01: &str = "PATTERN SEQ(T0 a, T1 b) WITHIN 20";
const Q12: &str = "PATTERN SEQ(T1 a, T2 b) WITHIN 20";
const Q02: &str = "PATTERN SEQ(T0 a, T2 b) WITHIN 20";

fn workload(n: usize, seed: u64) -> (Arc<TypeRegistry>, Vec<StreamItem>) {
    let synth = Synthetic::new(SyntheticConfig::default());
    let history = synth.generate(n, seed);
    let stream = delay_shuffle(&history, 0.3, 20, seed ^ 0x5eed);
    (synth.registry().clone(), stream)
}

fn core_config(reg: &Arc<TypeRegistry>, policy: DisorderPolicy) -> CoreConfig {
    let mut engine = EngineConfig::with_k(Duration::new(40));
    engine.policy = policy;
    CoreConfig::new(reg.clone(), Strategy::Native, engine)
}

/// Sorted multiset view of outputs for order-insensitive equivalence.
fn net(outputs: &[sequin_server::OutputFrame]) -> Vec<(u64, bool, Vec<u64>)> {
    let mut v: Vec<(u64, bool, Vec<u64>)> = outputs
        .iter()
        .map(|o| {
            (
                o.query_id,
                o.kind == sequin_engine::OutputKind::Insert,
                o.events.iter().map(|e| e.id().get()).collect(),
            )
        })
        .collect();
    v.sort();
    v
}

fn oracle_net(
    core: CoreConfig,
    queries: &[&str],
    stream: &[StreamItem],
) -> Vec<(u64, bool, Vec<u64>)> {
    let mut oracle = EngineCore::new(CoreConfig {
        checkpoint_every: None,
        ..core
    });
    for q in queries {
        oracle.subscribe(q).unwrap();
    }
    let mut out = Vec::new();
    for item in stream {
        out.extend(oracle.ingest(item));
    }
    out.extend(oracle.finish());
    let mut v: Vec<(u64, bool, Vec<u64>)> = out
        .into_iter()
        .map(|(qid, o)| {
            (
                qid.index() as u64,
                o.kind == sequin_engine::OutputKind::Insert,
                o.m.events().iter().map(|e| e.id().get()).collect(),
            )
        })
        .collect();
    v.sort();
    v
}

fn temp_store(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sequin-test-{tag}-{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn tcp_loopback_is_byte_identical_under_every_disorder_policy() {
    for policy in [
        DisorderPolicy::Conservative,
        DisorderPolicy::Speculative,
        DisorderPolicy::Lazy,
        DisorderPolicy::AdaptiveSlack { accuracy: 90 },
    ] {
        let (reg, stream) = workload(400, 11);
        let stream = punctuate(&stream, 50);
        let queries = [(Q01.to_owned(), None), (Q12.to_owned(), None)];
        let report = loopback_run(core_config(&reg, policy), &queries, &stream, 16)
            .unwrap_or_else(|e| panic!("{policy:?}: {e}"));
        assert!(
            report.outputs > 0,
            "{policy:?}: workload produced no matches — vacuous comparison"
        );
        assert_eq!(report.server.connections_opened, 1);
        assert!(report.server.events_ingested >= 400);
        assert!(report.server.batches_ingested > 0);
        assert_eq!(report.server.drains, 1);
    }
}

#[test]
fn schema_mismatch_and_missing_hello_close_the_session_cleanly() {
    let (reg, _) = workload(1, 1);
    let mut server = Server::start(ServerConfig::new(core_config(
        &reg,
        DisorderPolicy::Conservative,
    )))
    .unwrap();
    let addr = server.listen("127.0.0.1:0").unwrap().to_string();

    // wrong fingerprint: ERROR(schema-mismatch), then the session is dead
    let mut client = Client::connect(&addr).unwrap();
    match client.hello(0xBAD_F00D, "mismatched") {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::SchemaMismatch),
        other => panic!("expected schema-mismatch refusal, got {other:?}"),
    }
    assert!(
        client.hello(reg.fingerprint(), "retry").is_err(),
        "session must be closed after the refusal"
    );
    drop(client);

    // any frame before HELLO: ERROR(bad-hello), session closed
    let mut client = Client::connect(&addr).unwrap();
    match client.subscribe(Q01) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::BadHello),
        other => panic!("expected bad-hello refusal, got {other:?}"),
    }
    drop(client);

    // a well-formed session still works afterwards
    let mut client = Client::connect(&addr).unwrap();
    let (resume_from, _) = client.hello(reg.fingerprint(), "ok").unwrap();
    assert_eq!(resume_from, 0);
    client.bye();

    let deadline = Instant::now() + StdDuration::from_secs(5);
    loop {
        let s = server.stats();
        if s.connections_closed >= 3 {
            assert!(s.rejected_frames >= 2);
            break;
        }
        assert!(Instant::now() < deadline, "sessions never closed: {s:?}");
        std::thread::sleep(StdDuration::from_millis(10));
    }
    server.shutdown();
}

#[test]
fn corrupted_frame_is_rejected_and_kills_only_that_session() {
    let (reg, stream) = workload(50, 7);
    let server = Server::start(ServerConfig::new(core_config(
        &reg,
        DisorderPolicy::Conservative,
    )))
    .unwrap();

    // frame 2 (first event after HELLO + SUBSCRIBE) gets a flipped bit
    let (client_side, server_side) =
        mem_pair(FramePlan::clean().flip_frame(2, 13), FramePlan::clean());
    server.attach(Box::new(server_side));

    let mut client = Client::over(Box::new(client_side));
    client.hello(reg.fingerprint(), "faulty-link").unwrap();
    client.subscribe(Q01).unwrap();

    // keep sending until the teardown propagates back to us
    let mut saw_failure = false;
    for item in stream.iter().cycle().take(10_000) {
        match client.send_item(item) {
            Ok(()) => {}
            Err(_) => {
                saw_failure = true;
                break;
            }
        }
        if client.stats().is_err() {
            saw_failure = true;
            break;
        }
    }
    assert!(saw_failure, "corrupted frame must terminate the session");
    drop(client);

    let stats = {
        let deadline = Instant::now() + StdDuration::from_secs(5);
        loop {
            let s = server.stats();
            if s.connections_closed >= 1 {
                break s;
            }
            assert!(Instant::now() < deadline, "session never closed: {s:?}");
            std::thread::sleep(StdDuration::from_millis(10));
        }
    };
    assert!(stats.rejected_frames >= 1, "corruption must be counted");

    // the server survives: a fresh clean session is accepted and works
    let (client_side, server_side) = mem_pair(FramePlan::clean(), FramePlan::clean());
    server.attach(Box::new(server_side));
    let mut client = Client::over(Box::new(client_side));
    client.hello(reg.fingerprint(), "clean").unwrap();
    client.subscribe(Q01).unwrap();
    for item in &stream {
        client.send_item(item).unwrap();
    }
    client.drain().unwrap();
}

/// `frame` as a client built before envelope version 2 sealed it, by hand
/// per the documented layout: `"SQCK" ‖ 1u16 ‖ len u64 ‖ payload ‖
/// fnv1a64(everything before)`.
fn encode_frame_v1(frame: &Frame) -> Vec<u8> {
    let sealed = encode_frame(frame);
    let payload = open_envelope(&sealed).unwrap();
    let mut v1 = b"SQCK".to_vec();
    v1.extend_from_slice(&1u16.to_le_bytes());
    v1.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    v1.extend_from_slice(payload);
    let sum = fnv1a64(&v1);
    v1.extend_from_slice(&sum.to_le_bytes());
    v1
}

/// The next frame the server sent on `t`, decoded.
fn next_frame(t: &mut MemTransport) -> Frame {
    decode_frame(&t.recv_frame().unwrap().expect("a frame")).unwrap()
}

/// A raw session on `server` whose HELLO, sealed by `seal`, was accepted.
fn raw_session(server: &Server, reg: &TypeRegistry, seal: fn(&Frame) -> Vec<u8>) -> MemTransport {
    let (mut client_side, server_side) = mem_pair(FramePlan::clean(), FramePlan::clean());
    server.attach(Box::new(server_side));
    let hello = Frame::Hello {
        fingerprint: reg.fingerprint(),
        client: "raw".to_owned(),
    };
    client_side.sink().send_frame(&seal(&hello)).unwrap();
    assert!(matches!(
        next_frame(&mut client_side),
        Frame::HelloAck { .. }
    ));
    client_side
}

#[test]
fn an_old_clients_v1_frames_are_ingested() {
    let (reg, stream) = workload(200, 5);
    let core = core_config(&reg, DisorderPolicy::Conservative);
    let expected = oracle_net(core.clone(), &[Q01], &stream);
    let server = Server::start(ServerConfig::new(core)).unwrap();
    let mut t = raw_session(&server, &reg, encode_frame_v1);
    let send = |f: &Frame| t.sink().send_frame(&encode_frame_v1(f)).unwrap();
    send(&Frame::Subscribe {
        query: Q01.to_owned(),
        policy: None,
    });
    let events: Vec<_> = stream
        .iter()
        .map(|it| match it {
            StreamItem::Event(e) => e.clone(),
            StreamItem::Punctuation(_) => panic!("an unpunctuated stream"),
        })
        .collect();
    for batch in events.chunks(32) {
        send(&Frame::EventBatch(batch.to_vec()));
    }
    send(&Frame::Drain);
    let (mut sub_acks, mut outputs) = (0, Vec::new());
    loop {
        match next_frame(&mut t) {
            Frame::SubAck { .. } => sub_acks += 1,
            Frame::Output(o) => outputs.push(o),
            Frame::Busy { .. } => {}
            Frame::DrainAck => break,
            other => panic!("unexpected {other:?}"),
        }
    }
    assert_eq!(sub_acks, 1);
    assert!(!outputs.is_empty());
    assert_eq!(net(&outputs), expected);
    assert_eq!(server.stats().events_ingested, events.len() as u64);
    assert_eq!(server.stats().rejected_frames, 0);
}

#[test]
fn a_length_field_that_is_not_the_payloads_is_a_bad_frame() {
    let (reg, _) = workload(1, 1);
    let server = Server::start(ServerConfig::new(core_config(
        &reg,
        DisorderPolicy::Conservative,
    )))
    .unwrap();
    let sealers: [fn(&Frame) -> Vec<u8>; 2] = [encode_frame, encode_frame_v1];
    let mut refused = 0;
    for seal in sealers {
        let sealed = seal(&Frame::StatsReq);
        let len = (sealed.len() - 22) as u64;
        for field in [u64::MAX, u64::MAX - 21, 1 << 63, len + 1, len - 1] {
            let mut t = raw_session(&server, &reg, seal);
            let mut bad = sealed.clone();
            bad[6..14].copy_from_slice(&field.to_le_bytes());
            t.sink().send_frame(&bad).unwrap();
            match next_frame(&mut t) {
                Frame::Error { code, message } => {
                    assert_eq!(code, ErrorCode::BadFrame, "{field:#x}: {message}")
                }
                other => panic!("{field:#x}: expected ERROR[bad-frame], got {other:?}"),
            }
            assert_eq!(t.recv_frame().unwrap(), None, "{field:#x}: session closed");
            refused += 1;
        }
    }
    assert_eq!(server.stats().rejected_frames, refused);
    // the server survives: a clean session still answers
    let mut client = Client::over(Box::new(raw_session(&server, &reg, encode_frame)));
    assert!(client.stats().is_ok());
}

#[test]
fn link_reordering_is_absorbed_like_any_other_disorder() {
    let (reg, stream) = workload(200, 23);
    // delay several early frames past their successors on the ingest path
    let plan = FramePlan::clean()
        .delay_frame(3, 5)
        .delay_frame(10, 9)
        .delay_frame(40, 3);
    let core = core_config(&reg, DisorderPolicy::Conservative);
    let expected = oracle_net(core.clone(), &[Q01], &stream);

    let server = Server::start(ServerConfig::new(core)).unwrap();
    let (client_side, server_side) = mem_pair(plan, FramePlan::clean());
    server.attach(Box::new(server_side));
    let mut client = Client::over(Box::new(client_side));
    client.hello(reg.fingerprint(), "reorder").unwrap();
    client.subscribe(Q01).unwrap();
    for item in &stream {
        client.send_item(item).unwrap();
    }
    client.drain().unwrap();
    let outputs = client.take_outputs();

    // the link shifted arrival order by < K, so the match set is the
    // oracle's; emission bookkeeping may differ, hence set comparison
    assert_eq!(net(&outputs), expected);
    assert!(!outputs.is_empty());
}

#[test]
fn busy_advisory_fires_at_the_high_water_mark() {
    let (reg, stream) = workload(300, 31);
    let core = core_config(&reg, DisorderPolicy::Conservative);
    let expected = oracle_net(core.clone(), &[Q01], &stream);

    let mut cfg = ServerConfig::new(core);
    // depth is ≥ 1 the instant a reader enqueues, so the advisory is
    // deterministic; capacity 4 also exercises the blocking-send path
    cfg.queue_capacity = 4;
    cfg.busy_high_water = 1;
    let mut server = Server::start(cfg).unwrap();
    let addr = server.listen("127.0.0.1:0").unwrap().to_string();

    let mut client = Client::connect(&addr).unwrap();
    client.hello(reg.fingerprint(), "flood").unwrap();
    client.subscribe(Q01).unwrap();
    for item in &stream {
        client.send_item(item).unwrap();
    }
    client.drain().unwrap();
    let outputs = client.take_outputs();
    assert!(client.busy_seen() >= 1, "BUSY advisory expected");
    assert_eq!(net(&outputs), expected, "backpressure must not drop events");
    client.bye();
    server.shutdown();
    assert!(server.stats().busy_frames_sent >= 1);
}

#[test]
fn crash_restart_resumes_exactly_once_over_tcp() {
    let (reg, stream) = workload(300, 47);
    let store = temp_store("crash-restart");
    let mk_core = || CoreConfig {
        checkpoint_every: Some(25),
        ..core_config(&reg, DisorderPolicy::Conservative)
    };
    let mk_config = || {
        let mut c = ServerConfig::new(mk_core());
        c.queries = vec![Q01.to_owned()];
        c.store_path = Some(store.clone());
        c
    };
    let expected = oracle_net(mk_core(), &[Q01], &stream);

    // incarnation 1: ingest 160 items (checkpoint lands at 150, the last
    // 10 are covered only by the emission log), then die without warning
    let mut server = Server::start(mk_config()).unwrap();
    let addr = server.listen("127.0.0.1:0").unwrap().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let (resume_from, queries) = client.hello(reg.fingerprint(), "phase-1").unwrap();
    assert_eq!((resume_from, queries), (0, 1));
    client.subscribe(Q01).unwrap();
    for item in &stream[..160] {
        client.send_item(item).unwrap();
    }
    // a stats round-trip flushes the FIFO: all 160 are processed after it
    client.stats().unwrap();
    let mut delivered = client.take_outputs();
    drop(client);
    server.crash();

    // incarnation 2: resume from the persisted store; the client replays
    // from the acknowledged position and re-subscribes by text
    let mut server = Server::start(mk_config()).unwrap();
    let addr = server.listen("127.0.0.1:0").unwrap().to_string();
    let mut client = Client::connect(&addr).unwrap();
    let (resume_from, queries) = client.hello(reg.fingerprint(), "phase-2").unwrap();
    assert_eq!(queries, 1, "query rebuilt from the snapshot");
    assert_eq!(resume_from, 150, "replay cursor = last durable checkpoint");
    let qid = client.subscribe(Q01).unwrap();
    assert_eq!(qid, 0, "re-subscribing by text reattaches, not duplicates");
    for item in &stream[resume_from as usize..] {
        client.send_item(item).unwrap();
    }
    client.drain().unwrap();
    delivered.extend(client.take_outputs());
    let (_, engine_stats) = client.stats().unwrap();
    assert!(
        engine_stats.replayed_suppressed > 0,
        "the replayed overlap (items 150..160) must be deduplicated"
    );
    client.bye();
    server.shutdown();
    let _ = std::fs::remove_file(&store);

    assert_eq!(
        net(&delivered),
        expected,
        "union of both incarnations' outputs must be the exactly-once set"
    );
}

/// A session's send half that, handed a run of OUTPUT frames, first
/// loads the store file and notes its log records beside the OUTPUT
/// frames delivered so far, this run included.
struct StoreAtEachRun {
    inner: Arc<dyn FrameSink>,
    store: PathBuf,
    /// `(frames delivered so far, log records in the file)`, per run.
    runs: Mutex<Vec<(usize, usize)>>,
}

impl FrameSink for StoreAtEachRun {
    fn send_frame(&self, sealed: &[u8]) -> std::io::Result<()> {
        self.inner.send_frame(sealed)
    }

    fn send_frames(&self, wire: &[u8]) -> std::io::Result<()> {
        let mut rest = wire;
        let mut frames = 0;
        while read_frame(&mut rest)?.is_some() {
            frames += 1;
        }
        let records = CheckpointStore::load(&self.store).map_or(0, |s| s.log_len());
        let mut runs = self.runs.lock().unwrap();
        let delivered = runs.last().map_or(0, |r| r.0) + frames;
        runs.push((delivered, records));
        drop(runs);
        self.inner.send_frames(wire)
    }

    fn close(&self) {
        self.inner.close()
    }
}

struct CheckedTransport {
    inner: MemTransport,
    sink: Arc<StoreAtEachRun>,
}

impl Transport for CheckedTransport {
    fn recv_frame(&mut self) -> std::io::Result<Option<Vec<u8>>> {
        self.inner.recv_frame()
    }

    fn sink(&self) -> Arc<dyn FrameSink> {
        self.sink.clone()
    }
}

/// Output commit: a durable server saves an output's log record before
/// the output goes out, so each run of OUTPUT frames finds the store file
/// already holding one record per frame delivered so far, its own
/// included.
#[test]
fn outputs_leave_only_after_their_log_records_are_saved() {
    let (reg, stream) = workload(400, 59);
    let store = temp_store("save-before-send");
    let mut config = ServerConfig::new(CoreConfig {
        checkpoint_every: Some(25),
        ..core_config(&reg, DisorderPolicy::Speculative)
    });
    config.store_path = Some(store.clone());
    let mut server = Server::start(config).unwrap();
    let (client_side, server_side) = mem_pair(FramePlan::clean(), FramePlan::clean());
    let sink = Arc::new(StoreAtEachRun {
        inner: server_side.sink(),
        store: store.clone(),
        runs: Mutex::new(Vec::new()),
    });
    server.attach(Box::new(CheckedTransport {
        inner: server_side,
        sink: sink.clone(),
    }));
    let mut client = Client::over(Box::new(client_side));
    client.hello(reg.fingerprint(), "output-commit").unwrap();
    client.subscribe(Q01).unwrap();
    for chunk in stream.chunks(40) {
        client.send_stream(chunk, 16).unwrap();
        // a stats round-trip flushes the FIFO: one engine call per chunk
        client.stats().unwrap();
    }
    client.drain().unwrap();
    let received = client.take_outputs().len();
    client.bye();
    server.shutdown();
    let _ = std::fs::remove_file(&store);

    let runs = sink.runs.lock().unwrap().clone();
    assert!(runs.len() > 5, "{} runs of OUTPUT frames", runs.len());
    assert_eq!(runs.last().unwrap().0, received);
    for (delivered, records) in runs {
        assert_eq!(records, delivered, "log records saved when a run went out");
    }
}

#[test]
fn recovery_fallback_drops_a_postmortem_bundle() {
    let (reg, stream) = workload(300, 53);
    let store = temp_store("recovery-bundle");
    let bundle_dir = {
        let mut p = std::env::temp_dir();
        p.push(format!("sequin-test-bundles-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    };
    let mk_config = || {
        let mut c = ServerConfig::new(CoreConfig {
            checkpoint_every: Some(25),
            ..core_config(&reg, DisorderPolicy::Conservative)
        });
        c.queries = vec![Q01.to_owned()];
        c.store_path = Some(store.clone());
        c.bundle_dir = Some(bundle_dir.clone());
        c
    };

    // incarnation 1: ingest enough to persist checkpoints, then die
    let mut server = Server::start(mk_config()).unwrap();
    let addr = server.listen("127.0.0.1:0").unwrap().to_string();
    let mut client = Client::connect(&addr).unwrap();
    client.hello(reg.fingerprint(), "bundle-phase-1").unwrap();
    client.subscribe(Q01).unwrap();
    for item in &stream[..160] {
        client.send_item(item).unwrap();
    }
    client.stats().unwrap(); // flush the FIFO so checkpoints land
    drop(client);
    server.crash();

    // flip one byte inside the newest checkpoint (store container stays
    // valid): resume must take the fallback ladder, not fail startup
    let mut saved = sequin_engine::CheckpointStore::load(&store).unwrap();
    saved.checkpoint_mut(0).unwrap()[25] ^= 0x10;
    saved.save(&store).unwrap();

    let mut server = Server::start(mk_config()).unwrap();
    let bundle_path = bundle_dir.join("recovery-fallback.sqpm");
    let bytes = std::fs::read(&bundle_path).expect("fallback must freeze a bundle");
    let bundle = sequin_server::decode_bundle(&bytes).unwrap();
    assert_eq!(bundle.reason, "recovery-fallback");
    assert!(
        bundle.param("checkpoints_rejected").unwrap_or(0) >= 1,
        "the rejected-checkpoint count is the bundle's headline param"
    );
    server.shutdown();
    let _ = std::fs::remove_file(&store);
    let _ = std::fs::remove_dir_all(&bundle_dir);
}

#[test]
fn a_torn_store_file_cold_starts_the_server() {
    let (reg, stream) = workload(300, 61);
    let store = temp_store("torn-store");
    let bundle_dir = std::env::temp_dir().join(format!("sequin-torn-{}", std::process::id()));
    let mk_core = || CoreConfig {
        checkpoint_every: Some(25),
        ..core_config(&reg, DisorderPolicy::Conservative)
    };
    let mk_config = || {
        let mut c = ServerConfig::new(mk_core());
        c.queries = vec![Q01.to_owned()];
        c.store_path = Some(store.clone());
        c.bundle_dir = Some(bundle_dir.clone());
        c
    };
    let expected = oracle_net(mk_core(), &[Q01], &stream);

    // incarnation 1 persists a whole store, then dies
    let mut server = Server::start(mk_config()).unwrap();
    let addr = server.listen("127.0.0.1:0").unwrap().to_string();
    let mut client = Client::connect(&addr).unwrap();
    client.hello(reg.fingerprint(), "torn-phase-1").unwrap();
    client.subscribe(Q01).unwrap();
    for item in &stream[..160] {
        client.send_item(item).unwrap();
    }
    client.stats().unwrap(); // flush the FIFO so checkpoints land
    drop(client);
    server.crash();
    let whole = std::fs::read(&store).unwrap();

    // a kill mid-save leaves a prefix of the file: each one cold-starts
    for cut in [0, whole.len() / 2, whole.len() - 1] {
        std::fs::write(&store, &whole[..cut]).unwrap();
        let _ = std::fs::remove_dir_all(&bundle_dir);
        let mut server = Server::start(mk_config())
            .unwrap_or_else(|e| panic!("store cut at {cut} bytes refused startup: {e}"));
        let bundle = std::fs::read(bundle_dir.join("recovery-fallback.sqpm")).unwrap();
        let bundle = sequin_server::decode_bundle(&bundle).unwrap();
        assert_eq!(bundle.param("store_unreadable"), Some(1));
        let addr = server.listen("127.0.0.1:0").unwrap().to_string();
        let mut client = Client::connect(&addr).unwrap();
        let hello = client.hello(reg.fingerprint(), "torn-phase-2").unwrap();
        assert_eq!(
            hello,
            (0, 1),
            "cut at {cut}: cold start with the configured query"
        );
        client.subscribe(Q01).unwrap();
        for item in &stream {
            client.send_item(item).unwrap();
        }
        client.drain().unwrap();
        let delivered = client.take_outputs();
        client.bye();
        server.shutdown();
        assert_eq!(net(&delivered), expected, "cut at {cut}");
    }
    let _ = std::fs::remove_file(&store);
    let _ = std::fs::remove_dir_all(&bundle_dir);
}

#[test]
fn mixed_per_query_policies_negotiate_and_verify_over_loopback() {
    let (reg, stream) = workload(400, 59);
    let stream = punctuate(&stream, 50);
    let queries = vec![
        (Q01.to_owned(), Some(DisorderPolicy::Speculative)),
        (Q12.to_owned(), None), // server default (conservative)
        (
            "PATTERN SEQ(T0 a, T2 b) WITHIN 20".to_owned(),
            Some(DisorderPolicy::AdaptiveSlack { accuracy: 90 }),
        ),
    ];
    let report = loopback_run(
        core_config(&reg, DisorderPolicy::Conservative),
        &queries,
        &stream,
        16,
    )
    .unwrap();
    assert!(report.outputs > 0, "vacuous comparison");
}

#[test]
fn resubscribing_a_query_keeps_its_original_policy() {
    let (reg, _) = workload(1, 1);
    let server = Server::start(ServerConfig::new(core_config(
        &reg,
        DisorderPolicy::Conservative,
    )))
    .unwrap();
    let (client_side, server_side) = mem_pair(FramePlan::clean(), FramePlan::clean());
    server.attach(Box::new(server_side));
    let mut client = Client::over(Box::new(client_side));
    client.hello(reg.fingerprint(), "negotiate").unwrap();

    let (qid, effective) = client
        .subscribe_with_policy(Q01, Some(DisorderPolicy::Lazy))
        .unwrap();
    assert_eq!(effective, DisorderPolicy::Lazy, "first subscriber binds");

    // a second request for the same text cannot flip the policy: the
    // existing query's policy wins and the ack says so
    let (qid2, effective) = client
        .subscribe_with_policy(Q01, Some(DisorderPolicy::Speculative))
        .unwrap();
    assert_eq!(qid2, qid, "same text reattaches");
    assert_eq!(effective, DisorderPolicy::Lazy, "existing policy wins");

    // and a default-policy request on a fresh text binds the server's
    let (_, effective) = client.subscribe_with_policy(Q12, None).unwrap();
    assert_eq!(effective, DisorderPolicy::Conservative);
}

/// The in-process run of `queries` over `stream`: every output as the
/// OUTPUT frame a subscriber of its query must receive, in engine order.
fn oracle_frames(core: CoreConfig, queries: &[&str], stream: &[StreamItem]) -> Vec<OutputFrame> {
    let mut oracle = EngineCore::new(core);
    for q in queries {
        oracle.subscribe(q).unwrap();
    }
    let mut out = Vec::new();
    for item in stream {
        out.extend(oracle.ingest(item));
    }
    out.extend(oracle.finish());
    out.into_iter()
        .map(|(qid, o)| OutputFrame::of(qid.index() as u64, &o))
        .collect()
}

/// A client that keeps the bytes: frames go out and come back as sealed
/// envelopes, so what a subscriber was sent can be compared byte for byte.
struct RawClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl RawClient {
    fn connect(addr: &str, fingerprint: u64) -> RawClient {
        let writer = TcpStream::connect(addr).unwrap();
        writer.set_nodelay(true).unwrap();
        let reader = BufReader::new(writer.try_clone().unwrap());
        let mut c = RawClient { writer, reader };
        let hello = Frame::Hello {
            fingerprint,
            client: "raw".to_owned(),
        };
        assert!(matches!(c.request(&hello), Frame::HelloAck { .. }));
        c
    }

    fn send(&mut self, frame: &Frame) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_frame(frame)).unwrap();
        self.writer.write_all(&wire).unwrap();
    }

    /// One request and its reply, before any output is on its way.
    fn request(&mut self, frame: &Frame) -> Frame {
        self.send(frame);
        decode_frame(&read_frame(&mut self.reader).unwrap().unwrap()).unwrap()
    }

    fn subscribe(&mut self, query: &str) -> u64 {
        let subscribe = Frame::Subscribe {
            query: query.to_owned(),
            policy: None,
        };
        match self.request(&subscribe) {
            Frame::SubAck { query_id, .. } => query_id,
            other => panic!("SUBSCRIBE answered by {other:?}"),
        }
    }

    /// Reads on a thread of its own, so the server never waits for this
    /// client: every sealed frame up to and including the first `last`
    /// accepts.
    fn receive_until(&self, last: fn(&Frame) -> bool) -> JoinHandle<Vec<Vec<u8>>> {
        let mut reader = BufReader::new(self.writer.try_clone().unwrap());
        std::thread::spawn(move || {
            let mut sealed = Vec::new();
            while let Some(frame) = read_frame(&mut reader).unwrap() {
                let done = last(&decode_frame(&frame).unwrap());
                sealed.push(frame);
                if done {
                    break;
                }
            }
            sealed
        })
    }
}

/// The egress contract: a subscriber is sent exactly its queries' OUTPUT
/// frames, in engine order, each the bytes `encode_frame` gives for the
/// in-process run's output — whatever else shares the server, and however
/// the engine's batches fell.
#[test]
fn overlapping_subscribers_each_get_exactly_their_frames_byte_for_byte() {
    let (reg, stream) = workload(3000, 71);
    let core = core_config(&reg, DisorderPolicy::Speculative);
    let expected = oracle_frames(core.clone(), &[Q01, Q12, Q02], &stream);
    let sealed_for = |queries: &[u64]| -> Vec<Vec<u8>> {
        expected
            .iter()
            .filter(|o| queries.contains(&o.query_id))
            .map(|o| encode_frame(&Frame::Output(o.clone())))
            .collect()
    };
    assert!(
        expected.len() > stream.len(),
        "output-heavy: more frames than events"
    );

    let mut server = Server::start(ServerConfig::new(core)).unwrap();
    let addr = server.listen("127.0.0.1:0").unwrap().to_string();
    // one shared query, one private each
    let mut a = RawClient::connect(&addr, reg.fingerprint());
    assert_eq!((a.subscribe(Q01), a.subscribe(Q12)), (0, 1));
    let mut b = RawClient::connect(&addr, reg.fingerprint());
    assert_eq!((b.subscribe(Q01), b.subscribe(Q02)), (0, 2));

    let a_frames = a.receive_until(|f| matches!(f, Frame::DrainAck));
    let b_frames = b.receive_until(|f| matches!(f, Frame::StatsReply { .. }));
    for chunk in stream.chunks(64) {
        let events = chunk
            .iter()
            .filter_map(StreamItem::as_event)
            .cloned()
            .collect();
        a.send(&Frame::EventBatch(events));
    }
    a.send(&Frame::Drain);
    let mut a_frames = a_frames.join().unwrap();
    // BUSY is the sender's session thread's: it may land between two
    // batches, never inside one (every frame above decoded)
    let with_busy = a_frames.len();
    a_frames.retain(|f| !matches!(decode_frame(f), Ok(Frame::Busy { .. })));
    let busy = (with_busy - a_frames.len()) as u64;
    // the ack follows every output the drain released, B's included
    b.send(&Frame::StatsReq);
    let mut b_frames = b_frames.join().unwrap();

    let ack = a_frames.pop().expect("A's stream ends");
    assert_eq!(decode_frame(&ack).unwrap(), Frame::DrainAck, "ack last");
    assert!(a_frames == sealed_for(&[0, 1]), "A: its frames, in order");
    let Frame::StatsReply { server: stats, .. } = decode_frame(&b_frames.pop().unwrap()).unwrap()
    else {
        panic!("B's stream ends with its STATS_REPLY");
    };
    assert!(b_frames == sealed_for(&[0, 2]), "B: its frames, in order");
    // 2 HELLO_ACKs, 4 SUB_ACKs, every OUTPUT, the BUSYs, the DRAIN_ACK
    let outputs = (a_frames.len() + b_frames.len()) as u64;
    assert_eq!(stats.frames_sent, 2 + 4 + outputs + busy + 1);
    server.shutdown();
}

/// A subscriber that goes away while outputs are streaming costs the
/// others nothing: their stream stays complete, in order, and acked.
#[test]
fn a_subscriber_closing_mid_flood_leaves_the_others_stream_whole() {
    let (reg, stream) = workload(3000, 73);
    let core = core_config(&reg, DisorderPolicy::Conservative);
    let expected = oracle_frames(core.clone(), &[Q01], &stream);

    let mut server = Server::start(ServerConfig::new(core)).unwrap();
    let addr = server.listen("127.0.0.1:0").unwrap().to_string();
    let mut a = Client::connect(&addr).unwrap();
    a.hello(reg.fingerprint(), "leaver").unwrap();
    a.subscribe(Q01).unwrap();
    let mut b = Client::connect(&addr).unwrap();
    b.hello(reg.fingerprint(), "stayer").unwrap();
    b.subscribe(Q01).unwrap();

    let (before, after) = stream.split_at(stream.len() / 2);
    for item in before {
        b.send_item(item).unwrap();
    }
    // a round trip through the engine's queue: the first half is delivered
    b.stats().unwrap();
    a.stats().unwrap();
    assert!(!a.take_outputs().is_empty(), "A was receiving");
    drop(a); // closes its socket with the flood half-way
    for item in after {
        b.send_item(item).unwrap();
    }
    b.drain().unwrap();
    let got = b.take_outputs();
    assert!(got == expected, "B: every frame, in engine order");
    b.stats().unwrap();
    assert!(b.take_outputs().is_empty(), "nothing follows the DRAIN_ACK");
    b.bye();
    server.shutdown();
}

/// An observer session (HELLO with fingerprint 0) negotiated no schema, so
/// it may only ask: a batch, a punctuation, a SUBSCRIBE or a DRAIN from it
/// is refused with ERROR[unexpected-frame] and closes the session, and
/// nothing it sent reaches the engine.
#[test]
fn an_observer_session_may_ask_but_never_ingest() {
    let (reg, stream) = workload(60, 3);
    let server = Server::start(ServerConfig::new(core_config(
        &reg,
        DisorderPolicy::Conservative,
    )))
    .unwrap();
    let events: Vec<_> = stream
        .iter()
        .filter_map(StreamItem::as_event)
        .take(50)
        .cloned()
        .collect();
    assert_eq!(events.len(), 50);
    let subscribe = Frame::Subscribe {
        query: Q01.to_owned(),
        policy: None,
    };
    let refused = [
        ("EVENT_BATCH", Frame::EventBatch(events)),
        ("PUNCTUATION", Frame::Punctuation(Timestamp::new(10))),
        ("SUBSCRIBE", subscribe),
        ("DRAIN", Frame::Drain),
    ];
    for (name, frame) in &refused {
        let (mut t, server_side) = mem_pair(FramePlan::clean(), FramePlan::clean());
        server.attach(Box::new(server_side));
        let sink = t.sink();
        let send = |f: &Frame| sink.send_frame(&encode_frame(f)).unwrap();
        send(&Frame::Hello {
            fingerprint: 0,
            client: "observer".to_owned(),
        });
        send(&Frame::StatsReq);
        assert!(matches!(next_frame(&mut t), Frame::HelloAck { .. }));
        let asked = next_frame(&mut t);
        assert!(
            matches!(asked, Frame::StatsReply { .. }),
            "{name}: {asked:?}"
        );
        send(frame);
        // the refusal may already have closed the link
        let _ = sink.send_frame(&encode_frame(&Frame::StatsReq));
        match next_frame(&mut t) {
            Frame::Error { code, .. } => assert_eq!(code, ErrorCode::Unexpected, "{name}"),
            other => panic!("{name} from an observer answered by {other:?}"),
        }
        assert_eq!(t.recv_frame().unwrap(), None, "{name}: session closed");
    }
    let mut client = Client::over(Box::new(raw_session(&server, &reg, encode_frame)));
    let (stats, engine) = client.stats().unwrap();
    assert_eq!(stats.events_ingested, 0);
    assert_eq!(stats.punctuations_ingested, 0);
    assert_eq!((stats.subscriptions, stats.drains), (0, 0));
    assert_eq!(engine.events_routed, 0);
}

/// Requests sent back to back, none waiting for a reply, are answered
/// exactly once each and in the order they were sent: a refused SUBSCRIBE
/// and a second DRAIN by coded ERRORs. Every OUTPUT precedes the
/// DRAIN_ACK and is the in-process run's, frame for frame.
#[test]
fn pipelined_requests_are_answered_once_each_in_order() {
    let (reg, stream) = workload(400, 67);
    let core = core_config(&reg, DisorderPolicy::Conservative);
    let expected = oracle_frames(core.clone(), &[Q01], &stream);
    assert!(!expected.is_empty(), "vacuous comparison");
    let server = Server::start(ServerConfig::new(core)).unwrap();
    let mut t = raw_session(&server, &reg, encode_frame);
    let events: Vec<_> = stream
        .iter()
        .filter_map(StreamItem::as_event)
        .cloned()
        .collect();
    let (head, tail) = events.split_at(events.len() / 2);
    let subscribe = |query: &str| Frame::Subscribe {
        query: query.to_owned(),
        policy: None,
    };
    let trace = Frame::TraceReq {
        format: TraceFormat::Text,
        query: TRACE_ALL_QUERIES,
        pid: TRACE_ALL_OUTPUTS,
    };
    for frame in [
        subscribe(Q01),
        Frame::EventBatch(head.to_vec()),
        Frame::StatsReq,
        Frame::MetricsReq {
            format: MetricsFormat::Prometheus,
        },
        trace,
        subscribe("PATTERN nonsense"),
        Frame::EventBatch(tail.to_vec()),
        Frame::Drain,
        Frame::Drain,
    ] {
        t.sink().send_frame(&encode_frame(&frame)).unwrap();
    }
    let (mut replies, mut outputs) = (Vec::new(), Vec::new());
    while replies.len() < 7 {
        let reply = match next_frame(&mut t) {
            Frame::Output(o) => {
                assert!(
                    !replies.contains(&"DRAIN_ACK".to_owned()),
                    "OUTPUT after ack"
                );
                outputs.push(o);
                continue;
            }
            Frame::Busy { .. } => continue,
            Frame::SubAck { .. } => "SUB_ACK".to_owned(),
            Frame::StatsReply { .. } => "STATS_REPLY".to_owned(),
            Frame::MetricsReply { .. } => "METRICS_REPLY".to_owned(),
            Frame::TraceReply { .. } => "TRACE_REPLY".to_owned(),
            Frame::DrainAck => "DRAIN_ACK".to_owned(),
            Frame::Error { code, .. } => format!("ERROR[{code}]"),
            other => panic!("unexpected {other:?}"),
        };
        replies.push(reply);
    }
    assert_eq!(
        replies,
        [
            "SUB_ACK",
            "STATS_REPLY",
            "METRICS_REPLY",
            "TRACE_REPLY",
            "ERROR[bad-query]",
            "DRAIN_ACK",
            "ERROR[draining]"
        ]
    );
    assert!(outputs == expected, "the oracle's OUTPUT frames, in order");
    t.sink().send_frame(&encode_frame(&Frame::Bye)).unwrap();
    assert_eq!(t.recv_frame().unwrap(), None, "nothing more was owed");
}
