//! Differential execution of one case across every production path.
//!
//! The reference is each query of the case **alone** on a single-threaded
//! [`NativeEngine`] — the evaluator holding a plan of one — under the
//! *honest* configuration and the query's own policy, fed one item at a
//! time. Every path under test runs the configuration with the
//! [`Sabotage`] knobs applied (all-zero for honest runs) and is compared
//! with that reference per query:
//!
//! * builder vs parser — the same plan rendered both ways must produce
//!   equal [`sequin_query::Query`] values;
//! * the plan of N, item by item — output **identical** per query,
//!   including kinds, order and emission bookkeeping; its net settled set
//!   per query is also held against the brute-force oracle, the one
//!   reference that shares no code with the engines, which is where "the
//!   algorithm is right" is anchored (comparing a plan of N with N plans
//!   of one only shows pooling and prefix sharing are invisible);
//! * the plan, batched ingestion — identical output;
//! * a durable [`EngineCore`] crashed at the configured point and resumed
//!   — the union of pre- and post-crash deliveries equals the reference
//!   exactly once per query (a multiset of `(kind, ids)`), and every
//!   query's policy survives the restart;
//! * the networked server loopback with each query's policy requested at
//!   SUBSCRIBE — byte-identical frames, verified by
//!   [`sequin_server::loopback_run`] itself.

use std::collections::BTreeSet;
use std::sync::Arc;

use sequin_engine::{
    DisorderPolicy, EngineConfig, MultiEngine, NativeEngine, OutputItem, OutputKind, QueryId,
    Strategy, WatermarkSource,
};
use sequin_query::{parse, Query};
use sequin_server::{loopback_run, CoreConfig, EngineCore};
use sequin_types::{Duration, EventRef};

use crate::case::{sim_registry, CaseData};
use crate::oracle::reference_matches;

/// Which production path disagreed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// Builder-built query != parser-built query.
    BuilderParser,
    /// The plan's net settled set for a query != naive oracle match set.
    Oracle,
    /// The plan of N, item by item, != the per-query reference.
    Plan,
    /// Batched ingestion output != reference.
    Batched,
    /// Durable crash + resume != reference (exactly-once, policies
    /// restored).
    CrashResume,
    /// Networked loopback frames != in-process frames.
    Loopback,
}

impl std::fmt::Display for Path {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Path::BuilderParser => write!(f, "builder-vs-parser"),
            Path::Oracle => write!(f, "oracle"),
            Path::Plan => write!(f, "plan"),
            Path::Batched => write!(f, "batched"),
            Path::CrashResume => write!(f, "crash-resume"),
            Path::Loopback => write!(f, "loopback"),
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

/// A stable, comparable rendering of one output item (kind, constituent
/// `(ts, id)` pairs, emission sequence number, emission clock).
type OutputRepr = (u8, Vec<(u64, u64)>, u64, u64);

fn repr(o: &OutputItem) -> OutputRepr {
    (
        match o.kind {
            OutputKind::Insert => 0,
            OutputKind::Retract => 1,
        },
        o.m.events()
            .iter()
            .map(|e| (e.ts().ticks(), e.id().get()))
            .collect(),
        o.emit_seq.get(),
        o.emit_clock.ticks(),
    )
}

/// How `got` differs from `want` as an exact output sequence — kinds,
/// order and emission bookkeeping — if it does.
fn exact_diff(want: &[OutputItem], got: &[OutputItem]) -> Option<String> {
    if want.len() != got.len() {
        return Some(format!("{} outputs vs {} reference", got.len(), want.len()));
    }
    let pairs = want.iter().map(repr).zip(got.iter().map(repr));
    pairs
        .enumerate()
        .find(|(_, (w, g))| w != g)
        .map(|(ix, (w, g))| format!("output {ix}: {g:?} vs reference {w:?}"))
}

/// How `got` differs from `want` as net deliveries — a sorted multiset of
/// `(kind, ids)`, the exactly-once identity of the crash/resume path,
/// where emission sequence numbers legitimately differ across the restart.
fn delivery_diff(want: &[OutputItem], got: &[OutputItem]) -> Option<String> {
    let multiset = |out: &[OutputItem]| {
        let mut v: Vec<(u8, Vec<u64>)> = out
            .iter()
            .map(repr)
            .map(|(kind, events, ..)| (kind, events.into_iter().map(|(_, id)| id).collect()))
            .collect();
        v.sort();
        v
    };
    (multiset(want) != multiset(got))
        .then(|| format!("{} deliveries vs {} reference", got.len(), want.len()))
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

    // front-end cross-check: builder and parser must agree
    let mut queries: Vec<Arc<Query>> = Vec::with_capacity(nq);
    for (qx, q) in case.queries.iter().enumerate() {
        let built = q.plan.build(&registry).map_err(|e| e.to_string());
        let parsed = parse(&texts[qx], &registry).map_err(|e| e.to_string());
        match (built, parsed) {
            (Ok(built), Ok(parsed)) => {
                if *parsed != *built {
                    let detail = "builder and parser queries differ".to_owned();
                    mismatches.push(at(Path::BuilderParser, qx, detail));
                }
                queries.push(built);
            }
            (Err(e), _) | (_, Err(e)) => {
                mismatches.push(at(Path::BuilderParser, qx, format!("rejected: {e}")));
            }
        }
    }
    if queries.len() < nq {
        return mismatches;
    }

    // the reference: each query alone on a plan of one, honest
    // configuration, its own policy, one item at a time
    let reference: Vec<Vec<OutputItem>> = (0..nq)
        .map(|qx| {
            let policy = case.queries[qx].policy;
            let cfg = EngineConfig { policy, ..honest };
            let mut engine = NativeEngine::new(Arc::clone(&queries[qx]), cfg);
            let mut out = Vec::new();
            for item in &items {
                out.extend(engine.ingest(item));
            }
            out.extend(engine.finish());
            out
        })
        .collect();
    // splits `out` per query and reports each query `diff` tells apart
    // from its reference
    type Diff = fn(&[OutputItem], &[OutputItem]) -> Option<String>;
    let compare = |mismatches: &mut Vec<Mismatch>,
                   path: Path,
                   out: Vec<(QueryId, OutputItem)>,
                   diff: Diff,
                   context: &str| {
        let mut per: Vec<Vec<OutputItem>> = (0..nq).map(|_| Vec::new()).collect();
        for (qid, o) in out {
            per[qid.index()].push(o);
        }
        for qx in 0..nq {
            if let Some(detail) = diff(&reference[qx], &per[qx]) {
                mismatches.push(at(path, qx, detail + context));
            }
        }
        per
    };

    // the host under test, as the server builds it: every query of the
    // case on one plan, fed in chunks of `batch` items (1 = item by item)
    let host = |batch: usize| {
        let mut host = MultiEngine::new(sut);
        for (q, spec) in queries.iter().zip(&case.queries) {
            host.register(Arc::clone(q), spec.policy);
        }
        let mut out = Vec::new();
        for chunk in items.chunks(batch) {
            out.extend(host.ingest_batch(chunk).into_iter().flatten());
        }
        out.extend(host.finish());
        out
    };

    // the plan of N, item by item: identical per-query output — and each
    // query's net settled set against the oracle
    let found = &mut mismatches;
    let plan = compare(found, Path::Plan, host(1), exact_diff, "");
    let events = case.unique_events(&registry);
    for qx in 0..nq {
        if let Some(detail) = oracle_diff(&queries[qx], &events, &plan[qx]) {
            found.push(at(Path::Oracle, qx, detail));
        }
    }
    let batched = host(case.config.batch.max(1));
    compare(found, Path::Batched, batched, exact_diff, "");

    // subscribe order == query order, so ids line up with the reference;
    // the first query takes the host default instead of naming its policy
    let subs: Vec<(String, Option<DisorderPolicy>)> = (0..nq)
        .map(|qx| (qx > 0).then_some(case.queries[qx].policy))
        .zip(&texts)
        .map(|(request, text)| (text.clone(), request))
        .collect();

    // durable core, crashed mid-stream and resumed: exactly-once
    // deliveries per query, and each query's policy back (policies ride
    // the checkpoint envelope)
    {
        let path = Path::CrashResume;
        let mut cfg = CoreConfig::new(Arc::clone(&registry), Strategy::Native, sut);
        cfg.checkpoint_every = Some(case.config.ckpt_every.max(1));
        let mut core = EngineCore::new(cfg.clone());
        for (qx, (text, request)) in subs.iter().enumerate() {
            let want = Ok(case.queries[qx].policy);
            let got = core.subscribe_with_policy(text, *request).map(|(_, p)| p);
            if got != want {
                mismatches.push(at(path, qx, format!("subscribed {got:?}, not {want:?}")));
            }
        }
        let crash_at = (case.config.crash_at as usize).min(items.len());
        let mut delivered = Vec::new();
        for item in &items[..crash_at] {
            delivered.extend(core.ingest(item));
        }
        let saved = core.store().clone();
        drop(core); // crash: only the persisted store survives
        let (mut core, replay_from) = EngineCore::resume(cfg, saved);
        for (qx, (text, _)) in subs.iter().enumerate() {
            // a restored text is a table hit: nothing is registered
            let want = Ok(case.queries[qx].policy);
            let got = core.subscribe_with_policy(text, None).map(|(_, p)| p);
            if got != want {
                mismatches.push(at(path, qx, format!("resumed with {got:?}, not {want:?}")));
            }
        }
        for item in &items[(replay_from as usize).min(items.len())..] {
            delivered.extend(core.ingest(item));
        }
        delivered.extend(core.finish());
        let context = format!(" (crash at item {crash_at}, resumed from {replay_from})");
        compare(&mut mismatches, path, delivered, delivery_diff, &context);
    }

    // networked loopback: byte-identical frames (verified inside
    // loopback_run); gated per case because it boots a real TCP server
    if case.config.loopback {
        let core = CoreConfig::new(Arc::clone(&registry), Strategy::Native, sut);
        if let Err(detail) = loopback_run(core, &subs, &items, case.config.batch) {
            let path = Path::Loopback;
            mismatches.push(Mismatch { path, detail });
        }
    }

    mismatches
}
