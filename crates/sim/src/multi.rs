//! Multi-query differential mode: seed-generated query *sets* with
//! overlapping prefixes, checked as a plan of N queries against N plans
//! of one.
//!
//! Where the single-query mode pins each production path against one
//! canonical engine, this mode pins the shared multi-query compiler
//! (`sequin_engine::SharedMultiEngine` and the server core built on it)
//! against the reference that defines its correctness contract: every
//! query evaluated **independently**, alone on its own single-threaded
//! engine. That engine (`NativeEngine`) is the same evaluator holding a
//! plan of one, so what this comparison establishes is exactly that
//! pooling and prefix sharing are invisible per query — and nothing about
//! whether the evaluator's loop is right, which both sides share. That is
//! anchored separately: each query's net settled set from the shared plan
//! is also compared with the brute-force [`crate::reference_matches`]
//! oracle, which shares no code with any engine ([`Path::SharedOracle`]).
//! Query sets are generated with deliberate prefix overlap — most
//! queries are siblings of an earlier one, differing only in their final
//! component, a local predicate, or the projection — so the shared plan
//! actually pools stacks and forms prefix groups instead of degenerating
//! into disjoint per-query state. Every query additionally draws its own
//! [`DisorderPolicy`], so mixed-policy sets exercise the policy-class
//! pooling rules (fixed-bound queries share a watermark epoch; each
//! adaptive accuracy gets its own).
//!
//! Checked paths, all against the per-query independent reference:
//!
//! * shared-plan item-by-item ingestion — **identical** output per
//!   query, including emission bookkeeping and retractions (and, per
//!   query, the oracle's match set);
//! * shared-plan batched ingestion — identical output;
//! * a durable shared-plan server core crashed mid-stream and resumed at
//!   two shards as the *hybrid* core (the checkpoint interchange
//!   contract) — exactly-once deliveries per query, with every per-query
//!   policy surviving the restart through the checkpoint envelope;
//! * a two-shard hybrid server core — identical output (ties the two
//!   backends together end to end);
//! * the networked loopback with the full query set, each query carrying
//!   its policy request through SUBSCRIBE negotiation — byte-identical
//!   frames, verified inside [`sequin_server::loopback_run_with_policies`].
//!
//! The [`Sabotage`] knobs hit every engine under test but never the
//! reference, so a healthy harness must report mismatches — the same
//! honesty check the single-query mode carries. Multi-query failures are
//! reported unshrunk: the replay pair (`--multi --seed S --case N`)
//! regenerates the exact case.

use std::time::{Duration, Instant};

use sequin_engine::{
    DisorderPolicy, Engine, EngineConfig, NativeEngine, OutputItem, QueryId, SharedMultiEngine,
    Strategy,
};
use sequin_prng::Rng;
use sequin_query::Query;
use sequin_server::{loopback_run_with_policies, CoreConfig, EngineCore};
use sequin_types::{StreamItem, TypeRegistry};
use std::sync::Arc;

use crate::case::{
    case_seed, gen_config, gen_items, gen_policy, gen_query, items_to_stream, sim_registry,
    unique_events, CaseConfig, LocalPred, PredOp, QueryPlan, SimItem, TYPE_NAMES,
};
use crate::diff::{
    delivery_multiset, engine_config_from, first_diff, oracle_diff, repr, Mismatch, Path, Sabotage,
};
use crate::runner::SimOptions;

/// Salt mixed into the case seed so multi-query cases draw from a
/// different stream than single-query cases under the same `--seed`.
const MULTI_SALT: u64 = 0x4D55_4C54_4951_5259; // "MULTIQRY"

/// A fully described multi-query differential case.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiCase {
    /// The generated query set (textually distinct; most entries are
    /// prefix siblings of an earlier one).
    pub queries: Vec<QueryPlan>,
    /// Per-query disorder policies, parallel to `queries`. Drawn
    /// independently so most cases mix policy classes within one shared
    /// plan.
    pub policies: Vec<DisorderPolicy>,
    /// The arrival-ordered stream (disorder, duplicates and
    /// punctuations already applied), shared by every query.
    pub items: Vec<SimItem>,
    /// Engine knobs, shared by every path. `config.policy` is the
    /// server *default* policy; the per-query [`MultiCase::policies`]
    /// override it query by query.
    pub config: CaseConfig,
}

impl MultiCase {
    /// Materializes the item list against the simulation schema.
    pub fn stream(&self, registry: &TypeRegistry) -> Vec<StreamItem> {
        items_to_stream(&self.items, registry)
    }

    /// Generates the case for `(seed, case_ix)`. Deterministic: the
    /// same pair always yields the same case.
    pub fn generate(seed: u64, case_ix: u64) -> MultiCase {
        let mut rng = Rng::seed_from_u64(case_seed(seed, case_ix) ^ MULTI_SALT);
        let (items, measured_lateness) = gen_items(&mut rng);
        let nq = rng.gen_range(2..=4usize);
        let mut queries = vec![gen_query(&mut rng)];
        let mut attempts = 0;
        while queries.len() < nq && attempts < 32 {
            attempts += 1;
            let candidate = if rng.gen_bool(0.7) {
                // prefix sibling: clone an existing query, keep its
                // leading components and window, vary the tail
                let base = queries[rng.gen_range(0..queries.len())].clone();
                derive_sibling(&mut rng, base)
            } else {
                gen_query(&mut rng)
            };
            if queries.iter().all(|q| q.text() != candidate.text()) {
                queries.push(candidate);
            }
        }
        let policies = queries.iter().map(|_| gen_policy(&mut rng)).collect();
        let config = gen_config(&mut rng, &items, measured_lateness);
        MultiCase {
            queries,
            policies,
            items,
            config,
        }
    }
}

/// Derives a sibling that shares `base`'s leading components and window
/// (so the shared plan can pool its prefix) but differs in its tail.
fn derive_sibling(rng: &mut Rng, mut q: QueryPlan) -> QueryPlan {
    let last = q.comps.len() - 1;
    match rng.gen_range(0..3u32) {
        0 => {
            // re-point the final component at a different type
            let cur = q.comps[last].types[0];
            let next = (cur + rng.gen_range(1..TYPE_NAMES.len())) % TYPE_NAMES.len();
            q.comps[last].types = vec![next];
        }
        1 => {
            // replace the final component's local predicate
            let (op, value) = if rng.gen_bool(0.5) {
                (PredOp::Lt, rng.gen_range(5..=18i64))
            } else {
                (PredOp::Ge, rng.gen_range(2..=10i64))
            };
            q.preds.retain(|p| p.comp != last);
            q.preds.push(LocalPred {
                comp: last,
                op,
                value,
            });
        }
        _ => {
            // same pattern, different projection — pools every stack
            q.project_first = !q.project_first;
        }
    }
    q
}

/// Splits an interleaved `(QueryId, output)` sequence into per-query
/// output lists, preserving order.
fn split_outputs(
    nq: usize,
    out: impl IntoIterator<Item = (QueryId, OutputItem)>,
) -> Vec<Vec<OutputItem>> {
    let mut per: Vec<Vec<OutputItem>> = (0..nq).map(|_| Vec::new()).collect();
    for (qid, o) in out {
        per[qid.index()].push(o);
    }
    per
}

/// Runs every shared-plan path for `case`, returning all disagreements
/// against the independent per-query reference (empty = clean). A
/// non-default `sabotage` hits the engines under test (never the
/// reference), which a correct harness must report as mismatches.
pub fn check_multi_case(case: &MultiCase, sabotage: Sabotage) -> Vec<Mismatch> {
    let mut mismatches = Vec::new();
    let registry = sim_registry();
    let honest = engine_config_from(&case.config, Sabotage::default());
    let sut = engine_config_from(&case.config, sabotage);
    let items = case.stream(&registry);

    let queries: Vec<Arc<Query>> = match case
        .queries
        .iter()
        .map(|p| p.build(&registry))
        .collect::<Result<_, _>>()
    {
        Ok(qs) => qs,
        Err(e) => {
            mismatches.push(Mismatch {
                path: Path::SharedPlan,
                detail: format!("builder rejected a generated query: {e}"),
            });
            return mismatches;
        }
    };
    let nq = queries.len();

    // the reference: each query alone on a plan of one with the honest
    // configuration and its own policy
    let mut reference: Vec<Vec<OutputItem>> = Vec::with_capacity(nq);
    for (qx, q) in queries.iter().enumerate() {
        let cfg = EngineConfig {
            policy: case.policies[qx],
            ..honest
        };
        let mut eng = NativeEngine::new(Arc::clone(q), cfg);
        let mut out = Vec::new();
        for it in &items {
            out.extend(eng.ingest(it));
        }
        out.extend(eng.finish());
        reference.push(out);
    }
    let ref_reprs: Vec<Vec<_>> = reference
        .iter()
        .map(|o| o.iter().map(repr).collect())
        .collect();

    let compare_exact = |mismatches: &mut Vec<Mismatch>, path: Path, per: &[Vec<OutputItem>]| {
        for (qx, got) in per.iter().enumerate() {
            let r: Vec<_> = got.iter().map(repr).collect();
            if r != ref_reprs[qx] {
                mismatches.push(Mismatch {
                    path,
                    detail: format!(
                        "query {qx} (`{}`, {:?}): {}",
                        case.queries[qx].text(),
                        case.policies[qx],
                        first_diff(&ref_reprs[qx], &r)
                    ),
                });
            }
        }
    };

    let register_shared = |shared: &mut SharedMultiEngine| {
        for (qx, q) in queries.iter().enumerate() {
            shared.register_with_policy(Arc::clone(q), case.policies[qx]);
        }
    };

    // shared plan, item by item: identical per-query output — and, since
    // the reference above is the same evaluator holding one query, each
    // query's net settled set against the oracle that shares no code with it
    {
        let mut shared = SharedMultiEngine::new(sut);
        register_shared(&mut shared);
        let mut out = Vec::new();
        for it in &items {
            out.extend(shared.ingest(it));
        }
        out.extend(shared.finish());
        let per = split_outputs(nq, out);
        compare_exact(&mut mismatches, Path::SharedPlan, &per);
        let events = unique_events(&case.items, &registry);
        for (qx, got) in per.iter().enumerate() {
            if let Some(diff) = oracle_diff(&queries[qx], &events, got) {
                mismatches.push(Mismatch {
                    path: Path::SharedOracle,
                    detail: format!(
                        "query {qx} (`{}`, {:?}): {diff}",
                        case.queries[qx].text(),
                        case.policies[qx]
                    ),
                });
            }
        }
    }

    // shared plan, batched ingestion: identical per-query output
    {
        let mut shared = SharedMultiEngine::new(sut);
        register_shared(&mut shared);
        let mut out = Vec::new();
        for chunk in items.chunks(case.config.batch.max(1)) {
            out.extend(shared.ingest_batch(chunk).into_iter().flatten());
        }
        out.extend(shared.finish());
        let per = split_outputs(nq, out);
        compare_exact(&mut mismatches, Path::SharedBatched, &per);
    }

    // subscribe order == query order, so QueryId indexes line up with
    // the reference (the generated texts are distinct by construction);
    // each subscription carries its query's policy request
    let texts: Vec<String> = case.queries.iter().map(|p| p.text()).collect();
    let subscribe_all = |core: &mut EngineCore| -> Result<(), String> {
        for (qx, t) in texts.iter().enumerate() {
            let (_, effective) = core
                .subscribe_with_policy(t, Some(case.policies[qx]))
                .map_err(|e| format!("`{t}`: {e}"))?;
            if effective != case.policies[qx] {
                return Err(format!(
                    "`{t}`: negotiated {effective:?}, requested {:?}",
                    case.policies[qx]
                ));
            }
        }
        Ok(())
    };

    // durable shared-plan core, crash mid-stream, resumed at two shards
    // as the hybrid core (which splits the envelope between its shared
    // and sharded halves): exactly-once deliveries per query across the
    // backend switch (policies ride the checkpoint envelope)
    {
        let mut core_cfg = CoreConfig::new(Arc::clone(&registry), Strategy::Native, sut);
        core_cfg.checkpoint_every = Some(case.config.ckpt_every.max(1));
        let mut core = EngineCore::new(core_cfg.clone());
        match subscribe_all(&mut core) {
            Err(e) => mismatches.push(Mismatch {
                path: Path::SharedCrashResume,
                detail: format!("subscribe rejected {e}"),
            }),
            Ok(()) => {
                let crash_at = (case.config.crash_at as usize).min(items.len());
                let mut delivered = Vec::new();
                for it in &items[..crash_at] {
                    delivered.extend(core.ingest(it));
                }
                let saved = core.store().clone();
                drop(core); // crash: only the persisted store survives
                let mut resumed_cfg = core_cfg;
                resumed_cfg.shards = 2;
                let (mut core, replay_from) = EngineCore::resume(resumed_cfg, saved);
                for (qx, (text, want)) in texts.iter().zip(&case.policies).enumerate() {
                    // a restored text is a table hit: nothing is registered
                    let restored = core.subscribe_with_policy(text, None).map(|(_, p)| p);
                    if restored != Ok(*want) {
                        mismatches.push(Mismatch {
                            path: Path::SharedCrashResume,
                            detail: format!(
                                "query {qx} (`{text}`): policy {restored:?} after resume, \
                                 subscribed {want:?}"
                            ),
                        });
                    }
                }
                for it in &items[(replay_from as usize).min(items.len())..] {
                    delivered.extend(core.ingest(it));
                }
                delivered.extend(core.finish());
                let per = split_outputs(nq, delivered);
                for qx in 0..nq {
                    if delivery_multiset(&per[qx]) != delivery_multiset(&reference[qx]) {
                        mismatches.push(Mismatch {
                            path: Path::SharedCrashResume,
                            detail: format!(
                                "query {qx} (`{}`, {:?}): {} deliveries vs {} reference \
                                 (crash at item {crash_at}, resumed from {replay_from})",
                                texts[qx],
                                case.policies[qx],
                                per[qx].len(),
                                reference[qx].len()
                            ),
                        });
                    }
                }
            }
        }
    }

    // hybrid core (two shards) over the same query set: identical
    // per-query output (ties both server backends to the reference)
    {
        let mut two = CoreConfig::new(Arc::clone(&registry), Strategy::Native, sut);
        two.shards = 2;
        let mut core = EngineCore::new(two);
        match subscribe_all(&mut core) {
            Err(e) => mismatches.push(Mismatch {
                path: Path::SharedSharded(2),
                detail: format!("subscribe rejected {e}"),
            }),
            Ok(()) => {
                let mut out = Vec::new();
                for it in &items {
                    out.extend(core.ingest(it));
                }
                out.extend(core.finish());
                let per = split_outputs(nq, out);
                compare_exact(&mut mismatches, Path::SharedSharded(2), &per);
            }
        }
    }

    // networked loopback with the full query set, each query requesting
    // its policy at SUBSCRIBE time: byte-identical frames (verified
    // inside loopback_run_with_policies); gated per case — it boots a
    // real TCP server
    if case.config.loopback {
        let mut core = CoreConfig::new(Arc::clone(&registry), Strategy::Native, sut);
        core.shards = case.config.loopback_shards;
        let pairs: Vec<(String, Option<DisorderPolicy>)> = texts
            .iter()
            .zip(&case.policies)
            .map(|(t, &p)| (t.clone(), Some(p)))
            .collect();
        if let Err(e) = loopback_run_with_policies(core, &pairs, &items, case.config.batch) {
            mismatches.push(Mismatch {
                path: Path::SharedLoopback,
                detail: e,
            });
        }
    }

    mismatches
}

/// One failing multi-query case (reported unshrunk; the replay pair
/// regenerates it exactly).
#[derive(Debug, Clone)]
pub struct MultiFailure {
    /// Base seed of the failing case.
    pub seed: u64,
    /// Case index under that seed (replay: `--multi --seed S --case N`).
    pub case_ix: u64,
    /// All path disagreements of the case.
    pub mismatches: Vec<Mismatch>,
    /// One-line description of the case.
    pub summary: String,
}

/// Outcome of a multi-query simulation run.
#[derive(Debug, Clone, Default)]
pub struct MultiReport {
    /// Cases generated and checked.
    pub cases_run: u64,
    /// Cases in which at least one shared-plan path disagreed.
    pub failures: Vec<MultiFailure>,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// The run stopped early on its time budget.
    pub budget_exhausted: bool,
    /// The run stopped early on `max_failures`.
    pub failure_capped: bool,
}

impl MultiReport {
    /// `true` when every checked case agreed on every path.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Generates the multi-query case for `(seed, case_ix)` with run
/// options applied. A `--policy` pin overrides every query's drawn
/// policy (and the server default), so pinned sweeps stay meaningful in
/// multi mode.
pub fn materialize_multi(seed: u64, case_ix: u64, opts: &SimOptions) -> MultiCase {
    let mut case = MultiCase::generate(seed, case_ix);
    if opts.no_loopback {
        case.config.loopback = false;
    }
    if let Some(policy) = opts.policy {
        case.config.policy = policy;
        for p in &mut case.policies {
            *p = policy;
        }
    }
    case
}

/// Checks one multi-query `(seed, case)` pair. Returns `None` when the
/// case is clean.
pub fn replay_multi(seed: u64, case_ix: u64, opts: &SimOptions) -> Option<MultiFailure> {
    let case = materialize_multi(seed, case_ix, opts);
    let mismatches = check_multi_case(&case, opts.sabotage());
    if mismatches.is_empty() {
        return None;
    }
    Some(MultiFailure {
        seed,
        case_ix,
        summary: describe_multi(&case),
        mismatches,
    })
}

/// One-line description of a multi-query case.
pub fn describe_multi(case: &MultiCase) -> String {
    let texts: Vec<String> = case
        .queries
        .iter()
        .zip(&case.policies)
        .map(|(q, p)| format!("{} [{p:?}]", q.text()))
        .collect();
    format!(
        "{} queries [{}], {} items, K={}",
        case.queries.len(),
        texts.join(" ; "),
        case.items.len(),
        case.config.k,
    )
}

/// Runs the full multi-query matrix described by `opts`, reporting
/// progress through `progress`.
pub fn run_multi(opts: &SimOptions, mut progress: impl FnMut(&str)) -> MultiReport {
    let start = Instant::now();
    let mut report = MultiReport::default();
    'outer: for &seed in &opts.seeds {
        for case_ix in 0..opts.cases_per_seed {
            if let Some(budget) = opts.time_budget {
                if start.elapsed() > budget {
                    report.budget_exhausted = true;
                    progress(&format!(
                        "time budget exhausted after {} cases",
                        report.cases_run
                    ));
                    break 'outer;
                }
            }
            report.cases_run += 1;
            if let Some(failure) = replay_multi(seed, case_ix, opts) {
                progress(&format!(
                    "MISMATCH seed={seed} case={case_ix}: {} ({})",
                    failure
                        .mismatches
                        .iter()
                        .map(|m| m.path.to_string())
                        .collect::<Vec<_>>()
                        .join(", "),
                    failure.summary
                ));
                report.failures.push(failure);
                if report.failures.len() >= opts.max_failures {
                    report.failure_capped = true;
                    progress("failure cap reached; stopping early");
                    break 'outer;
                }
            }
        }
    }
    report.elapsed = start.elapsed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for case_ix in 0..10 {
            assert_eq!(
                MultiCase::generate(5, case_ix),
                MultiCase::generate(5, case_ix)
            );
        }
        assert_ne!(MultiCase::generate(5, 0), MultiCase::generate(5, 1));
    }

    #[test]
    fn query_sets_are_textually_distinct() {
        for case_ix in 0..40 {
            let case = MultiCase::generate(9, case_ix);
            assert!(case.queries.len() >= 2, "case {case_ix} degenerated");
            assert_eq!(case.policies.len(), case.queries.len());
            let texts: std::collections::BTreeSet<String> =
                case.queries.iter().map(|q| q.text()).collect();
            assert_eq!(
                texts.len(),
                case.queries.len(),
                "duplicate text in case {case_ix}"
            );
        }
    }

    #[test]
    fn generated_sets_mix_disorder_policies() {
        // per-query draws must actually produce mixed-policy sets (the
        // point of the multi-mode policy axis); a handful of cases with
        // at least two distinct policies in one set is enough evidence
        let mut mixed = 0u32;
        for case_ix in 0..40 {
            let case = MultiCase::generate(9, case_ix);
            let distinct: std::collections::BTreeSet<String> =
                case.policies.iter().map(|p| format!("{p:?}")).collect();
            if distinct.len() >= 2 {
                mixed += 1;
            }
        }
        assert!(mixed >= 10, "only {mixed}/40 cases mixed policies");
    }

    #[test]
    fn generated_sets_actually_form_prefix_groups() {
        // sibling derivation must produce query sets the shared plan can
        // pool — otherwise this mode tests nothing the single-query
        // mode doesn't
        let registry = sim_registry();
        let mut grouped = 0u32;
        for case_ix in 0..30 {
            let case = MultiCase::generate(3, case_ix);
            let mut shared =
                SharedMultiEngine::new(engine_config_from(&case.config, Sabotage::default()));
            for p in &case.queries {
                shared.register(p.build(&registry).expect("generated queries are valid"));
            }
            if shared.plan_metrics().prefix_groups >= 1 {
                grouped += 1;
            }
        }
        assert!(
            grouped >= 5,
            "only {grouped}/30 cases formed a prefix group"
        );
    }

    #[test]
    fn multi_cases_are_clean() {
        let opts = SimOptions {
            seeds: vec![41],
            cases_per_seed: 25,
            no_loopback: true, // debug-mode: CI covers TCP in release
            ..SimOptions::default()
        };
        let report = run_multi(&opts, |_| {});
        assert_eq!(report.cases_run, 25);
        assert!(
            report.clean(),
            "shared-plan mismatches: {:?}",
            report
                .failures
                .iter()
                .map(|f| (f.seed, f.case_ix, &f.mismatches))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn purge_sabotage_is_detected_in_multi_mode() {
        // the honesty check: a skewed purge horizon hits the engines
        // under test but never the reference, so mismatches must surface
        let opts = SimOptions {
            seeds: vec![1, 2],
            cases_per_seed: 60,
            purge_skew: 2,
            no_loopback: true,
            max_failures: 1,
            ..SimOptions::default()
        };
        let report = run_multi(&opts, |_| {});
        assert!(
            !report.failures.is_empty(),
            "a skewed purge horizon went undetected across {} multi-query cases",
            report.cases_run
        );
        let f = &report.failures[0];
        // replayable: the same (seed, case) pair reproduces the failure
        let again = replay_multi(f.seed, f.case_ix, &opts).expect("replay reproduces");
        assert_eq!(again.mismatches.len(), f.mismatches.len());
        // ... and the honest engine passes the same case
        assert!(check_multi_case(
            &materialize_multi(f.seed, f.case_ix, &opts),
            Sabotage::default()
        )
        .is_empty());
    }

    #[test]
    fn retraction_drop_sabotage_is_detected_in_multi_mode() {
        // the speculative mirror of the purge honesty check: silently
        // swallowing one retraction in the engines under test (never
        // the reference) must surface as a mismatch
        let opts = SimOptions {
            seeds: vec![1, 2],
            cases_per_seed: 60,
            retraction_drop: 1,
            policy: Some(DisorderPolicy::Speculative),
            no_loopback: true,
            max_failures: 1,
            ..SimOptions::default()
        };
        let report = run_multi(&opts, |_| {});
        assert!(
            !report.failures.is_empty(),
            "a dropped retraction went undetected across {} multi-query cases",
            report.cases_run
        );
        let f = &report.failures[0];
        // replayable, and the honest engine passes the same case
        assert!(replay_multi(f.seed, f.case_ix, &opts).is_some());
        assert!(check_multi_case(
            &materialize_multi(f.seed, f.case_ix, &opts),
            Sabotage::default()
        )
        .is_empty());
    }
}
