//! Causal provenance end to end: every emitted or retracted output is
//! reconstructible from the trace ring — its constituent events, the
//! arrival that triggered it or the watermark that sealed it, and for
//! retractions the late contradicting event. The rendered lineage is
//! byte-identical run after run, postmortem bundles round-trip and
//! replay, and
//! the live TRACE_REQ/TRACE_REPLY path filters by query and provenance
//! id.

mod common;

use std::sync::Arc;

use common::{ev, stream_of};
use sequin::engine::{DisorderPolicy, EngineConfig, Strategy};
use sequin::netsim::delay_shuffle;
use sequin::obs::ObsConfig;
use sequin::server::{
    decode_bundle, encode_bundle, Client, CoreConfig, EngineCore, Server, ServerConfig, TraceFormat,
};
use sequin::types::{Duration, StreamItem, TypeRegistry, ValueKind};
use sequin::workload::{Synthetic, SyntheticConfig};

// ---------------------------------------------------------- tiny pinned --

/// A three-type schema and a hand-authored stream that exercises all
/// three output span kinds:
///
/// * q0 (conservative negation) holds its matches until the watermark
///   seals them → `Seal` spans;
/// * q1 (speculative negation) emits on arrival → `Emit` spans, and a
///   late negative forces a `Retract`.
fn pinned_core() -> EngineCore {
    let mut reg = TypeRegistry::new();
    for name in ["A", "N", "B"] {
        reg.declare(name, &[("x", ValueKind::Int)]).unwrap();
    }
    let reg = Arc::new(reg);
    let mut cfg = CoreConfig::new(
        Arc::clone(&reg),
        Strategy::Native,
        EngineConfig::with_k(Duration::new(50)),
    );
    cfg.obs = ObsConfig {
        trace_capacity: 1024,
        ..ObsConfig::default()
    };
    let mut core = EngineCore::new(cfg);
    core.subscribe("PATTERN SEQ(A a, !N n, B b) WITHIN 100")
        .unwrap();
    core.subscribe_with_policy(
        "PATTERN SEQ(A a, !N n, B b) WITHIN 101",
        Some(DisorderPolicy::Speculative),
    )
    .unwrap();
    let events = [
        ev(&reg, "A", 1, 10, &[0]),
        ev(&reg, "B", 2, 20, &[0]), // q1 emits [1,2] here
        ev(&reg, "N", 4, 15, &[0]), // late negative: q1 retracts [1,2]
        ev(&reg, "A", 5, 30, &[0]),
        ev(&reg, "B", 6, 40, &[0]),  // q1 emits [5,6]
        ev(&reg, "A", 7, 200, &[0]), // watermark 150 seals [5,6] for q0
    ];
    for item in stream_of(&events) {
        core.ingest(&item);
    }
    core.finish();
    core
}

/// Every decision in the causal chain is in the rendered lineage: the
/// triggering arrival for immediate emissions, the contradicting late
/// event for retractions, and the sealing deadline/watermark pair for
/// conservative holds.
#[test]
fn lineage_reconstructs_the_full_causal_chain() {
    let core = pinned_core();
    let text = core.lineage(None, None, false);
    assert!(
        text.contains("emitted on arrival of event 2"),
        "missing q1 emit cause in:\n{text}"
    );
    assert!(
        text.contains("retracted: contradicted by late event 4"),
        "missing retract cause in:\n{text}"
    );
    assert!(
        text.contains("emitted on arrival of event 6"),
        "missing second emit cause in:\n{text}"
    );
    assert!(
        text.contains("sealed: deadline"),
        "missing seal decision in:\n{text}"
    );
    // the sealed q0 match and the speculative q1 insert/retract pair each
    // share one provenance id per (query, match) identity
    let json = core.lineage(None, None, true);
    assert!(json.contains("\"kind\":\"seal\""), "{json}");
    assert!(json.contains("\"kind\":\"retract\""), "{json}");
    assert!(json.contains("\"kind\":\"emit\""), "{json}");
    // fixed-seed determinism: a second identical run renders byte-identical
    let again = pinned_core();
    assert_eq!(text, again.lineage(None, None, false));
    assert_eq!(json, again.lineage(None, None, true));
}

/// An insert and the retraction that cancels it carry the same
/// provenance id — the implicit parent link — and pid filtering returns
/// exactly that pair.
#[test]
fn insert_and_retract_share_a_provenance_id() {
    let core = pinned_core();
    let json = core.lineage(Some(1), None, true);
    // pull the first pid out of the q1 lineage
    let pid_at = json.find("\"pid\":\"").expect("q1 has outputs") + 7;
    let pid = u64::from_str_radix(&json[pid_at..pid_at + 16], 16).unwrap();
    assert_ne!(pid, 0);
    let filtered = core.lineage(None, Some(pid), false);
    let blocks = filtered.matches("pid=").count();
    assert_eq!(
        blocks, 2,
        "pid filter must return the insert/retract pair:\n{filtered}"
    );
    assert!(filtered.contains("retracted:"), "{filtered}");
}

// ------------------------------------------------------ byte identity --

const PART: &str = "PATTERN SEQ(T0 a, T1 b) WHERE a.tag == b.tag WITHIN 20";
const NEG: &str = "PATTERN SEQ(T0 a, !T1 b, T2 c) WITHIN 20";

fn workload(n: usize, seed: u64) -> (Arc<TypeRegistry>, Vec<StreamItem>) {
    let synth = Synthetic::new(SyntheticConfig::default());
    let history = synth.generate(n, seed);
    let stream = delay_shuffle(&history, 0.3, 20, seed ^ 0x5eed);
    (synth.registry().clone(), stream)
}

fn lineage() -> (String, String) {
    let (reg, stream) = workload(600, 11);
    let mut cfg = CoreConfig::new(
        reg,
        Strategy::Native,
        EngineConfig::with_k(Duration::new(40)),
    );
    cfg.obs = ObsConfig {
        trace_capacity: 16 * 1024,
        ..ObsConfig::default()
    };
    cfg.engine.policy = DisorderPolicy::Speculative;
    let mut core = EngineCore::new(cfg);
    core.subscribe(PART).unwrap();
    core.subscribe(NEG).unwrap();
    for chunk in stream.chunks(64) {
        core.ingest_batch(chunk);
    }
    core.finish();
    (
        core.lineage(None, None, false),
        core.lineage(None, None, true),
    )
}

/// Rendered lineage of a disordered two-query workload is byte-identical
/// run after run: every recorded quantity is logical, so causal
/// provenance depends on the stream alone.
#[test]
fn lineage_is_byte_identical_run_after_run() {
    let (text, json) = lineage();
    assert!(text.contains("pid="), "no outputs traced:\n{text}");
    assert_eq!(lineage(), (text, json));
}

// -------------------------------------------------------------- bundles --

/// A postmortem bundle is deterministic at the byte level (fixed seed,
/// logical timestamps only), survives its own codec, and `sequin trace
/// --bundle` renders it.
#[test]
fn postmortem_bundle_is_deterministic_and_renders() {
    let capture = || {
        pinned_core().postmortem_bundle(
            "pinned-test",
            vec![("seed".to_owned(), 42), ("cursor_check".to_owned(), 6)],
        )
    };
    let a = capture();
    let b = capture();
    assert_eq!(
        encode_bundle(&a),
        encode_bundle(&b),
        "bundle capture is not deterministic"
    );
    let decoded = decode_bundle(&encode_bundle(&a)).unwrap();
    assert_eq!(decoded, a);
    assert_eq!(decoded.param("seed"), Some(42));
    assert_eq!(decoded.param("cursor"), Some(6), "replay cursor recorded");
    let rendered = sequin::cli::render_bundle(&decoded, None, None, false);
    assert!(
        rendered.contains("reason       : pinned-test"),
        "{rendered}"
    );
    assert!(
        rendered.contains("retracted: contradicted by late event 4"),
        "{rendered}"
    );
    let json = sequin::cli::render_bundle(&decoded, None, None, true);
    assert!(json.contains("\"reason\": \"pinned-test\""), "{json}");
    assert!(json.contains("\"lineage\": ["), "{json}");
}

/// The sim flight recorder: a sabotage-injected mismatch auto-produces a
/// bundle whose replay — from the decoded bytes alone — reports the same
/// mismatching paths.
#[test]
fn sim_mismatch_bundle_replays_to_the_same_mismatch() {
    let opts = sequin::sim::SimOptions {
        seeds: vec![0xC0FFEE],
        cases_per_seed: 60,
        shrink: false,
        purge_skew: 40,
        no_loopback: true,
        max_failures: 1,
        ..sequin::sim::SimOptions::default()
    };
    let report = sequin::sim::run(&opts, |_| {});
    let failure = report
        .failures
        .first()
        .expect("purge sabotage must surface a mismatch");
    let decoded = decode_bundle(&encode_bundle(&failure.bundle)).unwrap();
    assert_eq!(decoded.reason, "sim-mismatch");
    let replayed = sequin::sim::replay_bundle(&decoded).expect("replay params present");
    assert_eq!(
        replayed, failure.original,
        "bundle did not reproduce the mismatch"
    );
}

// ------------------------------------------------------------- live wire --

/// TRACE_REQ/TRACE_REPLY over a real socket: an observer (fingerprint-0)
/// client pulls lineage live, filtered by query id and by provenance id.
#[test]
fn live_trace_round_trip_filters_by_query_and_pid() {
    let (reg, stream) = workload(400, 7);
    let mut server = Server::start(ServerConfig::new({
        let mut cfg = CoreConfig::new(
            reg.clone(),
            Strategy::Native,
            EngineConfig::with_k(Duration::new(40)),
        );
        cfg.obs = ObsConfig {
            trace_capacity: 16 * 1024,
            ..ObsConfig::default()
        };
        cfg
    }))
    .unwrap();
    let addr = server.listen("127.0.0.1:0").unwrap().to_string();

    let mut feeder = Client::connect(&addr).unwrap();
    feeder.hello(reg.fingerprint(), "trace-feeder").unwrap();
    feeder.subscribe(PART).unwrap();
    feeder.subscribe(NEG).unwrap();
    for item in &stream {
        feeder.send_item(item).unwrap();
    }
    feeder.drain().unwrap();

    let mut observer = Client::connect(&addr).unwrap();
    observer.hello(0, "trace-observer").unwrap();
    let all = observer.trace(TraceFormat::Text, u64::MAX, 0).unwrap();
    assert!(all.contains("query=0"), "{all}");
    assert!(all.contains("pid="), "{all}");
    // query filter: only query 0 blocks survive
    let q0 = observer.trace(TraceFormat::Text, 0, 0).unwrap();
    assert!(q0.contains("query=0"), "{q0}");
    assert!(!q0.contains("query=1"), "{q0}");
    // pid filter: exactly the outputs of one match identity
    let pid_at = all.find("pid=").unwrap() + 4;
    let pid = u64::from_str_radix(&all[pid_at..pid_at + 16], 16).unwrap();
    let one = observer.trace(TraceFormat::Text, u64::MAX, pid).unwrap();
    assert!(one.contains(&format!("pid={pid:016x}")), "{one}");
    assert!(
        one.matches("pid=").count() < all.matches("pid=").count(),
        "pid filter filtered nothing"
    );
    let json = observer.trace(TraceFormat::Json, u64::MAX, 0).unwrap();
    assert!(json.contains("\"pid\""), "{json}");
    observer.bye();
    feeder.bye();
    server.shutdown();
}
