//! Differential execution of one case across every production path.
//!
//! The canonical run is the single-threaded [`NativeEngine`] — the
//! evaluator holding a plan of one — fed one item at a time. It is checked
//! against the naive oracle (exact match set; the one reference that
//! shares no code with the engines), and every other production path is
//! checked against *it*:
//!
//! * routed sharded pools (2 and 7 workers by default; pinnable via
//!   [`check_case_sharded`]) — output must be **identical**, including
//!   kinds, order, and emission bookkeeping;
//! * batched ingestion — identical output;
//! * crash at the configured point + checkpoint resume — the union of
//!   pre- and post-crash deliveries must equal the canonical output
//!   exactly once (as a multiset of `(kind, ids)`);
//! * sharded crash + resume **with a shard-count change** — a pool of
//!   `from` workers writes the checkpoints and a pool of `to` workers
//!   resumes them, exercising the shard-count-agnostic snapshot
//!   guarantee end to end;
//! * the networked server loopback — byte-identical frames, verified by
//!   [`sequin_server::loopback_run`] itself.
//!
//! The builder and parser front ends are also cross-checked: the same
//! plan rendered both ways must produce equal [`sequin_query::Query`]
//! values.

use std::collections::BTreeSet;
use std::sync::Arc;

use sequin_engine::{
    make_engine, CheckpointPolicy, Checkpointer, Engine, EngineConfig, MultiEngine, NativeEngine,
    OutputItem, OutputKind, ShardedEngine, Strategy, WatermarkSource,
};
use sequin_query::{parse, Query};
use sequin_server::{loopback_run, CoreConfig};
use sequin_types::{Duration, EventRef, StreamItem};

use crate::case::{sim_registry, CaseData};
use crate::oracle::reference_matches;

/// Which production path disagreed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// Builder-built query != parser-built query.
    BuilderParser,
    /// Canonical engine output != naive oracle match set.
    Oracle,
    /// Sharded pool (worker count) output != canonical output.
    Sharded(usize),
    /// Batched ingestion output != canonical output.
    Batched,
    /// Crash + resume deliveries != canonical output (exactly-once).
    CrashResume,
    /// Sharded crash + resume with a shard-count change (`from` → `to`
    /// workers) != canonical output (exactly-once).
    ShardedResume(usize, usize),
    /// Networked loopback frames != in-process frames.
    Loopback,
    /// Shared-plan evaluation != independent per-query evaluation.
    SharedPlan,
    /// Shared-plan batched ingestion != independent evaluation.
    SharedBatched,
    /// Shared-plan durable crash + resume != independent evaluation
    /// (exactly-once, including a backend switch on restart).
    SharedCrashResume,
    /// Sharded independent evaluation (worker count) != shared-plan
    /// evaluation of the same query set.
    SharedSharded(usize),
    /// Multi-query networked loopback != its in-process oracle.
    SharedLoopback,
    /// A query's net settled set from the shared plan != naive oracle
    /// match set.
    SharedOracle,
}

impl std::fmt::Display for Path {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Path::BuilderParser => write!(f, "builder-vs-parser"),
            Path::Oracle => write!(f, "oracle"),
            Path::Sharded(n) => write!(f, "sharded({n})"),
            Path::Batched => write!(f, "batched"),
            Path::CrashResume => write!(f, "crash-resume"),
            Path::ShardedResume(a, b) => write!(f, "sharded-resume({a}->{b})"),
            Path::Loopback => write!(f, "loopback"),
            Path::SharedPlan => write!(f, "shared-plan"),
            Path::SharedBatched => write!(f, "shared-batched"),
            Path::SharedCrashResume => write!(f, "shared-crash-resume"),
            Path::SharedSharded(n) => write!(f, "shared-vs-sharded({n})"),
            Path::SharedLoopback => write!(f, "shared-loopback"),
            Path::SharedOracle => write!(f, "shared-oracle"),
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
/// applied (all-zero for honest runs).
pub fn engine_config(case: &CaseData, sabotage: Sabotage) -> EngineConfig {
    engine_config_from(&case.config, sabotage)
}

/// [`engine_config`] from the bare knobs (the multi-query mode has no
/// single [`CaseData`]).
pub fn engine_config_from(config: &crate::case::CaseConfig, sabotage: Sabotage) -> EngineConfig {
    EngineConfig {
        k_slack: Duration::new(config.k),
        purge: match config.purge_every {
            Some(n) => sequin_runtime::purge::PurgePolicy::batched(n),
            None => sequin_runtime::purge::PurgePolicy::NEVER,
        },
        policy: config.policy,
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
pub(crate) type OutputRepr = (u8, Vec<(u64, u64)>, u64, u64);

pub(crate) fn repr(o: &OutputItem) -> OutputRepr {
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

fn reprs(out: &[OutputItem]) -> Vec<OutputRepr> {
    out.iter().map(repr).collect()
}

/// Net deliveries as a sorted multiset of `(kind, ids)` — the
/// exactly-once identity used for the crash/resume path, where emission
/// sequence numbers legitimately differ across the restart.
pub(crate) fn delivery_multiset(out: &[OutputItem]) -> Vec<(u8, Vec<u64>)> {
    let mut v: Vec<(u8, Vec<u64>)> = out
        .iter()
        .map(|o| {
            (
                match o.kind {
                    OutputKind::Insert => 0,
                    OutputKind::Retract => 1,
                },
                o.m.events().iter().map(|e| e.id().get()).collect(),
            )
        })
        .collect();
    v.sort();
    v
}

/// How `out`'s net settled match set differs from the naive oracle's over
/// `events` (the deduplicated, sorted history), if it does. The oracle
/// shares no code with any engine: this is where "the algorithm is right"
/// is anchored, in both modes.
pub(crate) fn oracle_diff(
    query: &Query,
    events: &[EventRef],
    out: &[OutputItem],
) -> Option<String> {
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

fn drive(engine: &mut dyn Engine, items: &[StreamItem]) -> Vec<OutputItem> {
    let mut out = Vec::new();
    for item in items {
        out.extend(engine.ingest(item));
    }
    out.extend(engine.finish());
    out
}

pub(crate) fn first_diff(a: &[OutputRepr], b: &[OutputRepr]) -> String {
    if a.len() != b.len() {
        return format!("{} outputs vs {} canonical", b.len(), a.len());
    }
    for (ix, (x, y)) in a.iter().zip(b).enumerate() {
        if x != y {
            return format!("output {ix}: {y:?} vs canonical {x:?}");
        }
    }
    "identical".to_owned()
}

/// Worker counts the sharded paths run at when none are pinned: one even
/// and one prime count, so slicing artifacts that depend on divisibility
/// surface.
pub const DEFAULT_SHARD_COUNTS: &[usize] = &[2, 7];

/// Runs every production path for `case` at the default shard counts,
/// returning all disagreements (empty = the case is clean).
/// `purge_skew > 0` sabotages purge in every engine under test (but never
/// the oracle), which a correct harness must report as mismatches.
pub fn check_case(case: &CaseData, purge_skew: u64) -> Vec<Mismatch> {
    check_case_sharded(case, Sabotage::purge_skew(purge_skew), DEFAULT_SHARD_COUNTS)
}

/// [`check_case`] with the full [`Sabotage`] bundle and the sharded paths
/// pinned to `shard_counts` worker pools (the `sequin sim --shards`
/// knob). The sharded crash+resume path checkpoints at the first count
/// and resumes at the last (bumped when they coincide, so the shard count
/// always *changes* across the crash).
pub fn check_case_sharded(
    case: &CaseData,
    sabotage: Sabotage,
    shard_counts: &[usize],
) -> Vec<Mismatch> {
    let mut mismatches = Vec::new();
    let registry = sim_registry();
    let cfg = engine_config(case, sabotage);

    // front-end cross-check: builder and parser must agree
    let text = case.query.text();
    let built = match case.query.build(&registry) {
        Ok(q) => q,
        Err(e) => {
            mismatches.push(Mismatch {
                path: Path::BuilderParser,
                detail: format!("builder rejected generated query `{text}`: {e}"),
            });
            return mismatches;
        }
    };
    match parse(&text, &registry) {
        Ok(parsed) => {
            if *parsed != *built {
                mismatches.push(Mismatch {
                    path: Path::BuilderParser,
                    detail: format!("`{text}`: builder and parser queries differ"),
                });
            }
        }
        Err(e) => {
            mismatches.push(Mismatch {
                path: Path::BuilderParser,
                detail: format!("parser rejected generated query `{text}`: {e}"),
            });
        }
    }
    let query = built;
    let items = case.stream(&registry);

    // canonical: single-threaded NativeEngine, one item at a time
    let mut canon_engine = NativeEngine::new(Arc::clone(&query), cfg);
    let mut canonical = Vec::new();
    for item in &items {
        canonical.extend(canon_engine.ingest(item));
    }
    canonical.extend(canon_engine.finish());
    let canon_repr = reprs(&canonical);

    // oracle: exact match set over the deduplicated sorted history
    let events = case.unique_events(&registry);
    if let Some(detail) = oracle_diff(&query, &events, &canonical) {
        let path = Path::Oracle;
        mismatches.push(Mismatch { path, detail });
    }

    // routed sharded pools: identical output, including emission
    // bookkeeping
    for &shards in shard_counts {
        let shards = shards.max(1);
        let mut eng = ShardedEngine::new(Arc::clone(&query), cfg, shards);
        let out = drive(&mut eng, &items);
        let r = reprs(&out);
        if r != canon_repr {
            mismatches.push(Mismatch {
                path: Path::Sharded(shards),
                detail: first_diff(&canon_repr, &r),
            });
        }
    }

    // batched ingestion: identical output
    {
        let mut eng = make_engine(Strategy::Native, Arc::clone(&query), cfg);
        let mut out = Vec::new();
        for chunk in items.chunks(case.config.batch.max(1)) {
            out.extend(eng.ingest_batch(chunk).into_iter().map(|(_, o)| o));
        }
        out.extend(eng.finish());
        let r = reprs(&out);
        if r != canon_repr {
            mismatches.push(Mismatch {
                path: Path::Batched,
                detail: first_diff(&canon_repr, &r),
            });
        }
    }

    // crash + checkpoint resume: the engine `before()` builds writes the
    // checkpoints, the one `after()` builds resumes them; returns every
    // delivery, the crash point and the resume point
    let crash_resume = |before: &dyn Fn() -> Box<dyn Engine>,
                        after: &dyn Fn() -> Box<dyn Engine>| {
        let host = |engine: Box<dyn Engine>| {
            let mut host = MultiEngine::new(Strategy::Native, cfg, 1);
            host.register_engine(engine);
            host
        };
        let policy = CheckpointPolicy::every(case.config.ckpt_every.max(1));
        let mut ck = Checkpointer::new(host(before()), policy);
        let crash_at = (case.config.crash_at as usize).min(items.len());
        let mut delivered = Vec::new();
        for item in &items[..crash_at] {
            delivered.extend(ck.ingest(item));
        }
        let saved = ck.store().clone();
        drop(ck); // crash: only the persisted store survives
        let (mut ck, replay_from) = Checkpointer::resume(policy, saved, |_| Ok(host(after())));
        for item in &items[replay_from as usize..] {
            delivered.extend(ck.ingest(item));
        }
        delivered.extend(ck.finish());
        let delivered: Vec<OutputItem> = delivered.into_iter().map(|(_, o)| o).collect();
        (delivered, crash_at, replay_from)
    };

    // exactly-once deliveries across a crash
    {
        let fresh = || make_engine(Strategy::Native, Arc::clone(&query), cfg);
        let (delivered, crash_at, replay_from) = crash_resume(&fresh, &fresh);
        if delivery_multiset(&delivered) != delivery_multiset(&canonical) {
            mismatches.push(Mismatch {
                path: Path::CrashResume,
                detail: format!(
                    "crash at item {crash_at} (resume from {replay_from}): {} deliveries vs {} canonical",
                    delivered.len(),
                    canonical.len()
                ),
            });
        }
    }

    // sharded crash + resume with a shard-count change: a `from`-worker
    // pool writes the checkpoints and a `to`-worker pool resumes them —
    // the shard-count-agnostic snapshot guarantee, end to end
    {
        let from = shard_counts.first().copied().unwrap_or(2).max(1);
        let mut to = shard_counts.last().copied().unwrap_or(7).max(1);
        if to == from {
            to = from + 3; // always actually change the count
        }
        let pool = |n: usize| -> Box<dyn Engine> {
            Box::new(ShardedEngine::new(Arc::clone(&query), cfg, n))
        };
        let (delivered, crash_at, replay_from) = crash_resume(&|| pool(from), &|| pool(to));
        if delivery_multiset(&delivered) != delivery_multiset(&canonical) {
            mismatches.push(Mismatch {
                path: Path::ShardedResume(from, to),
                detail: format!(
                    "crash at item {crash_at} on {from} shards (resume from {replay_from} on {to}): {} deliveries vs {} canonical",
                    delivered.len(),
                    canonical.len()
                ),
            });
        }
    }

    // networked loopback: byte-identical frames (verified inside
    // loopback_run); gated per case because it boots a real TCP server
    if case.config.loopback {
        let mut core = CoreConfig::new(Arc::clone(&registry), Strategy::Native, cfg);
        core.shards = case.config.loopback_shards;
        if let Err(e) = loopback_run(core, std::slice::from_ref(&text), &items, case.config.batch) {
            mismatches.push(Mismatch {
                path: Path::Loopback,
                detail: e,
            });
        }
    }

    mismatches
}
