//! Differential execution of one case across every production path.
//!
//! The reference is each query of the case **alone** on a single-threaded
//! [`NativeEngine`] — the evaluator holding a plan of one — under the
//! *honest* configuration and the query's own policy, fed one item at a
//! time. Every path under test runs the configuration with the
//! [`Sabotage`] knobs applied (all-zero for honest runs) and is compared
//! with that reference per query:
//!
//! * parse — the plan's text through [`parse`] must equal its AST
//!   through [`sequin_query::analyze`];
//! * the plan of N, item by item — output **identical** per query,
//!   including kinds, order and emission bookkeeping; its net settled set
//!   per query is also held against the brute-force oracle, the one
//!   reference that shares no code with the engines, which is where "the
//!   algorithm is right" is anchored (comparing a plan of N with N plans
//!   of one only shows pooling and prefix sharing are invisible);
//! * the server: the engine thread's [`Step`] around a durable core,
//!   driven over one or two in-memory connections (each query's policy
//!   requested at SUBSCRIBE), fed in chunks of the case's batch size, and
//!   crashed at the configured item — at a message boundary, or between
//!   the last message's save and its frames — then restarted from the
//!   saved bytes, resubscribed, replayed and drained. Each connection
//!   gets only its queries' OUTPUT frames; before the crash they are the
//!   reference exactly; before, lost in the crash and after, they are
//!   the reference exactly once (a multiset of `(kind, ids)`); and every
//!   request gets one reply, in order, with each query's policy.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use sequin_engine::{
    CheckpointStore, DisorderPolicy, EngineConfig, MultiEngine, NativeEngine, OutputItem,
    OutputKind, Strategy, WatermarkSource,
};
use sequin_query::{parse, Query};
use sequin_server::frame::read_frame;
use sequin_server::{
    decode_frame, CoreConfig, Effect, EngineCore, ErrorCode, Frame, FrameSink, OutputFrame,
    Perform, Shared, Step,
};
use sequin_types::{Duration, EventRef, StreamItem};

use crate::case::{sim_registry, CaseData};
use crate::oracle::reference_matches;

/// Which production path disagreed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// The parsed text != the analyzed AST of the same plan.
    Parse,
    /// The plan's net settled set for a query != naive oracle match set.
    Oracle,
    /// The plan of N, item by item, != the per-query reference.
    Plan,
    /// The server's step, crashed and restarted: frames or replies !=
    /// the reference's.
    Server,
}

impl std::fmt::Display for Path {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Path::Parse => write!(f, "parse"),
            Path::Oracle => write!(f, "oracle"),
            Path::Plan => write!(f, "plan"),
            Path::Server => write!(f, "server"),
        }
    }
}

/// One disagreement between a production path and its reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// The path that diverged.
    pub path: Path,
    /// Human-readable discrepancy summary.
    pub detail: String,
}

/// The distinct path names among `mismatches`, in the order they ran (a
/// path that disagrees on several queries is named once).
pub fn path_names(mismatches: &[Mismatch]) -> Vec<String> {
    let mut names: Vec<String> = mismatches.iter().map(|m| m.path.to_string()).collect();
    names.dedup();
    names
}

/// Deliberate engine defects injected into the paths under test (never
/// the oracle or the honest reference). A healthy harness must report
/// mismatches whenever any knob is non-zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sabotage {
    /// Widen every purge threshold by this many ticks.
    pub purge_skew: u64,
    /// Silently swallow this many speculative retractions.
    pub retraction_drop: u64,
}

impl Sabotage {
    /// The purge-skew-only sabotage (the original fault knob).
    pub fn purge_skew(ticks: u64) -> Sabotage {
        Sabotage {
            purge_skew: ticks,
            ..Sabotage::default()
        }
    }
}

/// The engine configuration a case prescribes, with the sabotage knobs
/// applied (all-zero for honest runs). Its policy — the host's default —
/// is the first query's.
pub fn engine_config(case: &CaseData, sabotage: Sabotage) -> EngineConfig {
    let config = &case.config;
    EngineConfig {
        k_slack: Duration::new(config.k),
        purge: match config.purge_every {
            Some(n) => sequin_runtime::purge::PurgePolicy::batched(n),
            None => sequin_runtime::purge::PurgePolicy::NEVER,
        },
        policy: case.queries[0].policy,
        watermark: match config.watermark {
            1 => WatermarkSource::Punctuation,
            2 => WatermarkSource::Both,
            _ => WatermarkSource::KSlack,
        },
        purge_horizon_skew: sabotage.purge_skew,
        retraction_drop: sabotage.retraction_drop,
        ..EngineConfig::default()
    }
}

/// A stable, comparable rendering of one output (kind, constituent
/// `(ts, id)` pairs, emission sequence number, emission clock).
type OutputRepr = (u8, Vec<(u64, u64)>, u64, u64);

fn repr(o: &OutputFrame) -> OutputRepr {
    (
        match o.kind {
            OutputKind::Insert => 0,
            OutputKind::Retract => 1,
        },
        o.events
            .iter()
            .map(|e| (e.ts().ticks(), e.id().get()))
            .collect(),
        o.emit_seq.get(),
        o.emit_clock.ticks(),
    )
}

/// The OUTPUT frames a subscriber of query `qx` is sent for `out`.
fn frames(qx: usize, out: &[OutputItem]) -> Vec<OutputFrame> {
    out.iter().map(|o| OutputFrame::of(qx as u64, o)).collect()
}

/// How `got` differs from `want` as an exact output sequence — kinds,
/// order and emission bookkeeping — if it does.
fn exact_diff(want: &[OutputFrame], got: &[OutputFrame]) -> Option<String> {
    if want.len() != got.len() {
        return Some(format!("{} outputs vs {} reference", got.len(), want.len()));
    }
    let pairs = want.iter().map(repr).zip(got.iter().map(repr));
    pairs
        .enumerate()
        .find(|(_, (w, g))| w != g)
        .map(|(ix, (w, g))| format!("output {ix}: {g:?} vs reference {w:?}"))
}

/// Net deliveries: a sorted multiset of `(kind, ids)`, the exactly-once
/// identity across a crash and restart, where emission sequence numbers
/// legitimately differ.
fn deliveries<'a>(out: impl IntoIterator<Item = &'a OutputFrame>) -> Vec<(u8, Vec<u64>)> {
    let mut v: Vec<(u8, Vec<u64>)> = out
        .into_iter()
        .map(repr)
        .map(|(kind, events, ..)| (kind, events.into_iter().map(|(_, id)| id).collect()))
        .collect();
    v.sort();
    v
}

/// How `out`'s net settled match set differs from the naive oracle's over
/// `events` (the deduplicated, sorted history), if it does.
fn oracle_diff(query: &Query, events: &[EventRef], out: &[OutputItem]) -> Option<String> {
    let expected = reference_matches(query, events);
    let got: BTreeSet<Vec<u64>> = sequin_metrics::net_inserts(out)
        .into_iter()
        .map(|k| k.event_ids().iter().map(|id| id.get()).collect())
        .collect();
    if got == expected {
        return None;
    }
    let missing: Vec<_> = expected.difference(&got).take(3).collect();
    let spurious: Vec<_> = got.difference(&expected).take(3).collect();
    Some(format!(
        "{} matches vs oracle {} (missing e.g. {missing:?}, spurious e.g. {spurious:?})",
        got.len(),
        expected.len()
    ))
}

/// Runs every production path for `case`, returning all disagreements
/// (empty = the case is clean). A non-zero [`Sabotage`] knob plants its
/// defect in every engine under test (but never the reference or the
/// oracle), which a correct harness must report as mismatches.
pub fn check_case(case: &CaseData, sabotage: Sabotage) -> Vec<Mismatch> {
    let registry = sim_registry();
    let honest = engine_config(case, Sabotage::default());
    let sut = engine_config(case, sabotage);
    let items = case.stream(&registry);
    let nq = case.queries.len();
    let texts: Vec<String> = case.queries.iter().map(|q| q.plan.text()).collect();
    let mut mismatches = Vec::new();
    let at = |path: Path, qx: usize, detail: String| {
        let policy = case.queries[qx].policy;
        let detail = format!("query {qx} (`{}`, {policy:?}): {detail}", texts[qx]);
        Mismatch { path, detail }
    };

    // front-end cross-check: the parser must read each text as the AST
    // its plan states
    let mut queries: Vec<Arc<Query>> = Vec::with_capacity(nq);
    for (qx, q) in case.queries.iter().enumerate() {
        let built = q.plan.build(&registry).map_err(|e| e.to_string());
        let parsed = parse(&texts[qx], &registry).map_err(|e| e.to_string());
        match (built, parsed) {
            (Ok(built), Ok(parsed)) => {
                if *parsed != *built {
                    let detail = "parsed text and analyzed AST differ".to_owned();
                    mismatches.push(at(Path::Parse, qx, detail));
                }
                queries.push(built);
            }
            (Err(e), _) | (_, Err(e)) => {
                mismatches.push(at(Path::Parse, qx, format!("rejected: {e}")));
            }
        }
    }
    if queries.len() < nq {
        return mismatches;
    }

    // the reference: each query alone on a plan of one, honest
    // configuration, its own policy, one item at a time — as the frames
    // a subscriber of it is sent
    let reference: Vec<Vec<OutputFrame>> = (0..nq)
        .map(|qx| {
            let policy = case.queries[qx].policy;
            let cfg = EngineConfig { policy, ..honest };
            let mut engine = NativeEngine::new(Arc::clone(&queries[qx]), cfg);
            let mut out = Vec::new();
            for item in &items {
                out.extend(engine.ingest(item));
            }
            out.extend(engine.finish());
            frames(qx, &out)
        })
        .collect();
    // the plan of N as the server builds it, item by item: identical
    // per-query output — and each query's net settled set against the
    // oracle
    let mut host = MultiEngine::new(sut);
    for (q, spec) in queries.iter().zip(&case.queries) {
        host.register(Arc::clone(q), spec.policy);
    }
    let mut out: Vec<_> = items.iter().flat_map(|item| host.ingest(item)).collect();
    out.extend(host.finish());
    let mut plan: Vec<Vec<OutputItem>> = vec![Vec::new(); nq];
    for (qid, o) in out {
        plan[qid.index()].push(o);
    }
    for qx in 0..nq {
        if let Some(detail) = exact_diff(&reference[qx], &frames(qx, &plan[qx])) {
            mismatches.push(at(Path::Plan, qx, detail));
        }
    }
    let events = case.unique_events(&registry);
    for qx in 0..nq {
        if let Some(detail) = oracle_diff(&queries[qx], &events, &plan[qx]) {
            mismatches.push(at(Path::Oracle, qx, detail));
        }
    }

    let mut cfg = CoreConfig::new(Arc::clone(&registry), Strategy::Native, sut);
    cfg.checkpoint_every = Some(case.config.ckpt_every.max(1));
    server_path(case, cfg, &items, &reference, &at, &mut mismatches);
    mismatches
}

/// One in-memory connection of the server path: each frame it was sent,
/// decoded, with the phase it came in — 0 before the crash, 1 lost in it,
/// 2 after the restart.
struct Conn {
    phase: Arc<AtomicUsize>,
    got: Mutex<Vec<(usize, Frame)>>,
}

impl FrameSink for Conn {
    fn send_frames(&self, mut wire: &[u8]) -> std::io::Result<()> {
        while let Some(sealed) = read_frame(&mut wire)? {
            let frame = decode_frame(&sealed).unwrap_or_else(|e| Frame::Error {
                code: ErrorCode::BadFrame,
                message: e.to_string(),
            });
            let phase = self.phase.load(Ordering::SeqCst);
            self.got.lock().unwrap().push((phase, frame));
        }
        Ok(())
    }

    fn close(&self) {}
}

/// Hands one message to the step — `message` calls it with a `perform` —
/// and performs its effects as the server's driver does, saving into
/// `saved`. With `crash`, the crash lands right after the first effect:
/// `phase` turns 1, so later runs reach their connections as the sliver
/// the crash loses, and a later save never happens.
fn drive(
    saved: &mut Vec<u8>,
    shared: &Shared,
    phase: &AtomicUsize,
    crash: bool,
    message: impl FnOnce(&mut Perform<'_>),
) {
    let mut performed = 0;
    message(&mut |effect| {
        performed += 1;
        if crash && performed == 2 {
            phase.store(1, Ordering::SeqCst);
        }
        match effect {
            Effect::Save(store) if phase.load(Ordering::SeqCst) != 1 => {
                *saved = store.to_bytes();
                true
            }
            effect => effect.send(shared),
        }
    });
}

/// The server path; the module docs list its checks.
fn server_path(
    case: &CaseData,
    cfg: CoreConfig,
    items: &[StreamItem],
    reference: &[Vec<OutputFrame>],
    at: &dyn Fn(Path, usize, String) -> Mismatch,
    mismatches: &mut Vec<Mismatch>,
) {
    let nq = case.queries.len();
    // odd-indexed queries subscribe on connection 1 when sessions split
    let conn_of = |qx: usize| usize::from(case.config.split_sessions && qx % 2 == 1);
    let phase = Arc::new(AtomicUsize::new(0));
    let conn = || {
        Arc::new(Conn {
            phase: phase.clone(),
            got: Mutex::default(),
        })
    };
    let conns = [conn(), conn()];
    let batch = case.config.batch.max(1);
    // one incarnation: subscribe every query in query order (so ids line
    // up with the reference), ingest `items` in chunks, then crash in the
    // last one — or, after the restart, drain; returns what it saved
    let incarnation =
        |core, policy: &dyn Fn(usize) -> Option<DisorderPolicy>, items: &[StreamItem], crash| {
            let (mut step, shared, mut saved) = (Step::new(core), Shared::default(), Vec::new());
            for (qx, q) in case.queries.iter().enumerate() {
                let frame = Frame::Subscribe {
                    query: q.plan.text(),
                    policy: policy(qx),
                };
                let c = conn_of(qx);
                let sink: Arc<dyn FrameSink> = conns[c].clone();
                drive(&mut saved, &shared, &phase, false, |perform| {
                    step.request(c as u64, frame, &sink, &shared, perform)
                });
            }
            let chunks: Vec<&[StreamItem]> = items.chunks(batch).collect();
            for (n, chunk) in chunks.iter().enumerate() {
                let crash = crash && n + 1 == chunks.len();
                drive(&mut saved, &shared, &phase, crash, |perform| {
                    step.ingest(chunk, &shared, perform)
                });
            }
            // after the restart
            if phase.load(Ordering::SeqCst) == 2 {
                let sink: Arc<dyn FrameSink> = conns[0].clone();
                drive(&mut saved, &shared, &phase, false, |perform| {
                    step.request(0, Frame::Drain, &sink, &shared, perform)
                });
            }
            saved
        };
    let crash_at = (case.config.crash_at as usize).min(items.len());
    let crash = case.config.crash_after_save;
    // the first query takes the host default instead of naming its policy
    let requested = |qx: usize| (qx > 0).then_some(case.queries[qx].policy);
    let saved = incarnation(
        EngineCore::new(cfg.clone()),
        &requested,
        &items[..crash_at],
        crash,
    );
    // the crash: only what was saved survives it (nothing, a cold start)
    let store = CheckpointStore::from_bytes(&saved).unwrap_or_default();
    let (core, replay_from) = EngineCore::resume(cfg, store);
    phase.store(2, Ordering::SeqCst);
    // a restored text is a table hit, which keeps its policy
    let replay = &items[(replay_from as usize).min(items.len())..];
    incarnation(core, &|_| None, replay, false);

    let after_save = if crash { " after its save" } else { "" };
    let context = format!(" (crash at item {crash_at}{after_save}, resumed from {replay_from})");
    let server = |detail: String| Mismatch {
        path: Path::Server,
        detail: detail + &context,
    };
    // each query's OUTPUT frames, by phase
    let mut got: Vec<[Vec<OutputFrame>; 3]> = (0..nq).map(|_| Default::default()).collect();
    for (c, conn) in conns.iter().enumerate() {
        let sent = std::mem::take(&mut *conn.got.lock().unwrap());
        let ack_last = matches!(sent.last(), Some((_, Frame::DrainAck)));
        let mut replies = Vec::new();
        for (phase, frame) in sent {
            match frame {
                Frame::Output(o) if (o.query_id as usize) < nq => {
                    let qx = o.query_id as usize;
                    if conn_of(qx) != c {
                        mismatches.push(at(Path::Server, qx, format!("sent on connection {c}")));
                    }
                    got[qx][phase].push(o);
                }
                reply => replies.push(reply),
            }
        }
        // in each incarnation one SUB_ACK per SUBSCRIBE, with the query's
        // policy, and on connection 0 a DRAIN_ACK after every OUTPUT
        let mine = (0..nq).filter(|&qx| conn_of(qx) == c);
        let acks = mine.map(|qx| Frame::SubAck {
            query_id: qx as u64,
            policy: case.queries[qx].policy,
        });
        let mut want: Vec<Frame> = acks.clone().chain(acks).collect();
        want.extend((c == 0).then_some(Frame::DrainAck));
        if replies != want {
            mismatches.push(server(format!(
                "connection {c}: replies {replies:?}, not {want:?}"
            )));
        } else if c == 0 && !ack_last {
            mismatches.push(server("OUTPUT after DRAIN_ACK".to_owned()));
        }
    }
    for (qx, [before, lost, after]) in got.iter().enumerate() {
        let want = &reference[qx];
        let prefix = &want[..before.len().min(want.len())];
        if let Some(detail) = exact_diff(prefix, before) {
            mismatches.push(at(
                Path::Server,
                qx,
                detail + " before the crash" + &context,
            ));
        }
        let (want, got) = (
            deliveries(want),
            deliveries(before.iter().chain(lost).chain(after)),
        );
        if want != got {
            let detail = format!("{} deliveries vs {} reference", got.len(), want.len());
            mismatches.push(at(Path::Server, qx, detail + &context));
        }
    }
}
