//! The simulation driver: iterates `(seed, case)` pairs under a time
//! budget, checks each generated case across every production path, and
//! shrinks + renders any failure into a replayable repro.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use sequin_obs::Bundle;
use sequin_server::write_bundle;

use crate::case::{CaseData, DisorderPolicy};
use crate::diff::{check_case, path_names, Mismatch, Sabotage};
use crate::postmortem::{bundle_filename, capture_bundle};
use crate::repro::emit_test;
use crate::shrink::{describe, shrink};

/// Knobs for one simulation run.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Base seeds; each contributes `cases_per_seed` cases.
    pub seeds: Vec<u64>,
    /// Cases generated per seed.
    pub cases_per_seed: u64,
    /// Wall-clock budget; the run stops early (cleanly) when exceeded.
    pub time_budget: Option<Duration>,
    /// Minimize failing cases before reporting them.
    pub shrink: bool,
    /// Fault injection: widen every purge threshold by this many ticks.
    /// Non-zero values sabotage the engines under test (never the
    /// oracle); a healthy harness must then report mismatches.
    pub purge_skew: u64,
    /// Fault injection: silently drop this many speculative retractions
    /// in every engine under test (never the oracle or the reference);
    /// a healthy harness must then report mismatches.
    pub retraction_drop: u64,
    /// Pin every query to one [`DisorderPolicy`] (the `--policy` knob);
    /// `None` lets each query draw its own (`--policy mixed`, the default).
    pub policy: Option<DisorderPolicy>,
    /// Skip the networked loopback path (debug builds, sandboxes
    /// without TCP).
    pub no_loopback: bool,
    /// Stop after this many failures (shrinking is expensive).
    pub max_failures: usize,
    /// Flight recorder: write each failure's postmortem bundle under
    /// this directory (`--bundle-dir`). `None` still captures bundles
    /// in-memory (they ride on [`Failure`]) but writes nothing.
    pub bundle_dir: Option<PathBuf>,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            seeds: vec![0xC0FFEE],
            cases_per_seed: 100,
            time_budget: None,
            shrink: true,
            purge_skew: 0,
            retraction_drop: 0,
            policy: None,
            no_loopback: false,
            max_failures: 3,
            bundle_dir: None,
        }
    }
}

impl SimOptions {
    /// The fixed per-PR CI preset: four pinned seeds, 800 cases (about
    /// two in five hold several queries), an ~80 second ceiling well
    /// under the job timeout.
    pub fn ci() -> Self {
        SimOptions {
            seeds: vec![1, 2, 3, 4],
            cases_per_seed: 200,
            time_budget: Some(Duration::from_secs(80)),
            ..SimOptions::default()
        }
    }

    /// The fault-injection knobs as one [`Sabotage`] bundle.
    pub fn sabotage(&self) -> Sabotage {
        Sabotage {
            purge_skew: self.purge_skew,
            retraction_drop: self.retraction_drop,
        }
    }
}

/// One failing case, shrunk and rendered.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Base seed of the failing case.
    pub seed: u64,
    /// Case index under that seed (replay: `--seed S --case N`).
    pub case_ix: u64,
    /// Mismatches of the *original* generated case.
    pub original: Vec<Mismatch>,
    /// The minimized still-failing case.
    pub shrunk: CaseData,
    /// Mismatches of the minimized case.
    pub mismatches: Vec<Mismatch>,
    /// One-line description of the minimized case.
    pub summary: String,
    /// Self-contained `#[test]` snippet reproducing the failure.
    pub repro: String,
    /// Flight-recorder capture of the *original* failing case: lineage,
    /// metrics, config, and replay parameters
    /// ([`crate::postmortem::replay_bundle`] re-derives the mismatch from
    /// it alone).
    pub bundle: Bundle,
}

/// Outcome of a simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Cases generated and checked.
    pub cases_run: u64,
    /// How many of them held more than one query.
    pub multi_query_cases: u64,
    /// Cases in which at least one production path disagreed.
    pub failures: Vec<Failure>,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// The run stopped early on its time budget.
    pub budget_exhausted: bool,
    /// The run stopped early on `max_failures`.
    pub failure_capped: bool,
}

impl SimReport {
    /// `true` when every checked case agreed on every path.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Generates the case for `(seed, case_ix)` with run options applied.
pub fn materialize(seed: u64, case_ix: u64, opts: &SimOptions) -> CaseData {
    let mut case = CaseData::generate(seed, case_ix);
    if opts.no_loopback {
        case.config.loopback = false;
    }
    if let Some(policy) = opts.policy {
        for q in &mut case.queries {
            q.policy = policy;
        }
    }
    case
}

/// Checks one `(seed, case)` pair and, on failure, shrinks and renders
/// it. Returns `None` when the case is clean.
pub fn replay(seed: u64, case_ix: u64, opts: &SimOptions) -> Option<Failure> {
    check_generated(seed, case_ix, materialize(seed, case_ix, opts), opts)
}

fn check_generated(seed: u64, case_ix: u64, case: CaseData, opts: &SimOptions) -> Option<Failure> {
    let original = check_case(&case, opts.sabotage());
    if original.is_empty() {
        return None;
    }
    let (shrunk, mismatches) = if opts.shrink {
        let s = shrink(&case, opts.sabotage());
        (s.case, s.mismatches)
    } else {
        (case, original.clone())
    };
    let name = format!("sim_seed_{seed}_case_{case_ix}");
    let repro = emit_test(&name, seed, case_ix, &shrunk, &mismatches);
    let bundle = capture_bundle(seed, case_ix, opts, &original);
    Some(Failure {
        seed,
        case_ix,
        original,
        summary: describe(&shrunk),
        shrunk,
        mismatches,
        repro,
        bundle,
    })
}

/// Runs the full matrix described by `opts`, reporting progress through
/// `progress` (one line per event worth narrating).
pub fn run(opts: &SimOptions, mut progress: impl FnMut(&str)) -> SimReport {
    let start = Instant::now();
    let mut report = SimReport::default();
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
            let case = materialize(seed, case_ix, opts);
            let queries = case.queries.len();
            report.multi_query_cases += u64::from(queries > 1);
            if let Some(failure) = check_generated(seed, case_ix, case, opts) {
                progress(&format!(
                    "MISMATCH seed={seed} case={case_ix} ({queries} quer{}): {} (shrunk to: {})",
                    if queries == 1 { "y" } else { "ies" },
                    path_names(&failure.original).join(", "),
                    failure.summary
                ));
                if let Some(dir) = &opts.bundle_dir {
                    match write_bundle(dir, &bundle_filename(seed, case_ix), &failure.bundle) {
                        Ok(path) => progress(&format!("bundle written: {}", path.display())),
                        Err(e) => progress(&format!("bundle write failed: {e}")),
                    }
                }
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
