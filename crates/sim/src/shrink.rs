//! Failing-case minimization.
//!
//! Given a case on which [`check_case`] reports mismatches, the shrinker
//! searches for a smaller case that *still* mismatches: it drops whole
//! queries, drops stream items (ddmin-style chunk removal, then singles),
//! strips each query's terms (predicates, projections, tag joins,
//! negations, alternation arms), shrinks the window, and simplifies the
//! configuration — keeping each mutation only if the failure survives on
//! a path the original case failed on (a mutation that trades the bug
//! for a different one is not a reduction of it).
//! Every candidate is validated through the analyzer first, so shrinking
//! never "fails" by producing an ill-formed query.
//!
//! All mutations preserve replay validity by construction: removing
//! events only raises the true suffix-minimum, so existing punctuations
//! remain safe, and the measured lateness can only decrease, so the
//! stored `K` stays sufficient — and `K` itself is only lowered as far as
//! that lateness (below it the case leaves the disorder contract, where
//! honest engines and the oracle differ too). The shrunk case therefore replays
//! through exactly the same [`check_case`] entry point as the original.

use std::sync::Arc;

use sequin_netsim::measure_disorder;
use sequin_query::Query;

use crate::case::{
    items_to_stream, sim_registry, CaseData, DisorderPolicy, QueryPlan, SimItem, SimQuery,
};
use crate::diff::{check_case, Mismatch, Path, Sabotage};

/// Hard ceiling on [`check_case`] invocations per shrink, so shrinking a
/// pathological case cannot stall the run.
const MAX_CHECKS: usize = 500;

/// Outcome of shrinking one failing case.
#[derive(Debug, Clone)]
pub struct Shrunk {
    /// The minimized case (still failing).
    pub case: CaseData,
    /// The mismatches the minimized case produces.
    pub mismatches: Vec<Mismatch>,
    /// How many [`check_case`] calls the search spent.
    pub checks: usize,
}

/// The search state: the smallest failing case so far and what it fails.
struct Shrinker {
    sabotage: Sabotage,
    /// The paths the unshrunk case failed on.
    failing: Vec<Path>,
    checks: usize,
    best: CaseData,
    mismatches: Vec<Mismatch>,
}

impl Shrinker {
    /// Applies `mutate` to a copy of the best case and keeps the copy if
    /// it changed, is well formed (every query passes the analyzer, and no
    /// two are normalized-equal — the server core would fold those into
    /// one subscription), still fails on one of the [`Shrinker::failing`]
    /// paths, and the check budget is not exhausted.
    fn attempt(&mut self, mutate: impl FnOnce(&mut CaseData)) -> bool {
        let mut candidate = self.best.clone();
        mutate(&mut candidate);
        if candidate == self.best || self.checks >= MAX_CHECKS {
            return false;
        }
        let registry = sim_registry();
        let built: Result<Vec<_>, _> = candidate
            .queries
            .iter()
            .map(|q| q.plan.build(&registry))
            .collect();
        let folds = |qs: &[Arc<Query>]| {
            (1..qs.len()).any(|i| qs[..i].iter().any(|q| q.normalized_eq(&qs[i])))
        };
        if built.map_or(true, |qs| folds(&qs)) {
            return false; // ill-formed candidate; not a real reduction
        }
        self.checks += 1;
        let m = check_case(&candidate, self.sabotage);
        if !m.iter().any(|m| self.failing.contains(&m.path)) {
            return false;
        }
        self.best = candidate;
        self.mismatches = m;
        true
    }

    /// The measure the outer loop must keep lowering to go round again.
    fn size(&self) -> (usize, usize) {
        let comps = |q: &SimQuery| q.plan.comps.len();
        (
            self.best.items.len(),
            self.best.queries.iter().map(comps).sum(),
        )
    }
}

/// Minimizes `case` (which must fail under `sabotage`) and returns the
/// smallest still-failing case found within the check budget. If the
/// input does not actually fail, it is returned unshrunk with its (empty)
/// mismatch list.
pub fn shrink(case: &CaseData, sabotage: Sabotage) -> Shrunk {
    let mismatches = check_case(case, sabotage);
    let mut sh = Shrinker {
        sabotage,
        failing: mismatches.iter().map(|m| m.path).collect(),
        checks: 1,
        best: case.clone(),
        mismatches,
    };
    while !sh.mismatches.is_empty() {
        let before = sh.size();
        shrink_queries(&mut sh);
        shrink_items(&mut sh);
        for qx in 0..sh.best.queries.len() {
            shrink_query(&mut sh, qx);
        }
        shrink_config(&mut sh);
        if sh.size() == before || sh.checks >= MAX_CHECKS {
            break;
        }
    }
    Shrunk {
        case: sh.best,
        mismatches: sh.mismatches,
        checks: sh.checks,
    }
}

/// Drops whole queries while at least one remains.
fn shrink_queries(sh: &mut Shrinker) {
    let mut qx = 0;
    while qx < sh.best.queries.len() && sh.best.queries.len() > 1 {
        let removed = sh.attempt(|c| {
            c.queries.remove(qx);
        });
        if !removed {
            qx += 1;
        }
    }
}

/// ddmin-lite: try removing halves, then quarters, …, then single items.
fn shrink_items(sh: &mut Shrinker) {
    let mut chunk = (sh.best.items.len() / 2).max(1);
    loop {
        let mut start = 0;
        while start < sh.best.items.len() {
            let end = (start + chunk).min(sh.best.items.len());
            // on success keep `start` — the next chunk has shifted into place
            let removed = sh.attempt(|c| {
                c.items.drain(start..end);
            });
            if !removed {
                start = end;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
}

/// Strips query `qx`'s terms one at a time: predicates, projection, tag
/// join, whole components, alternation arms, then window halving.
fn shrink_query(sh: &mut Shrinker, qx: usize) {
    let mut ix = 0;
    while ix < sh.best.queries[qx].plan.preds.len() {
        let removed = sh.attempt(|c| {
            c.queries[qx].plan.preds.remove(ix);
        });
        if !removed {
            ix += 1;
        }
    }
    sh.attempt(|c| c.queries[qx].plan.project_first = false);
    sh.attempt(|c| c.queries[qx].plan.tag_join = false);

    // drop whole components (negations are free; positives only while at
    // least one remains — the analyzer check rejects the rest)
    let mut ix = 0;
    while ix < sh.best.queries[qx].plan.comps.len() {
        if !sh.attempt(|c| remove_comp(&mut c.queries[qx].plan, ix)) {
            ix += 1;
        }
    }

    // collapse alternations to their first arm
    for ix in 0..sh.best.queries[qx].plan.comps.len() {
        sh.attempt(|c| c.queries[qx].plan.comps[ix].types.truncate(1));
    }

    // halve the window toward 1
    while sh.attempt(|c| c.queries[qx].plan.window = (c.queries[qx].plan.window / 2).max(1)) {}
}

/// Simplifies the configuration: one session, a crash at a message
/// boundary, conservative policies, single-item batches, eager
/// checkpoints, no crash, a smaller `K` — but never below the stream's
/// measured lateness.
fn shrink_config(sh: &mut Shrinker) {
    sh.attempt(|c| c.config.split_sessions = false);
    sh.attempt(|c| c.config.crash_after_save = false);
    for qx in 0..sh.best.queries.len() {
        sh.attempt(|c| c.queries[qx].policy = DisorderPolicy::Conservative);
    }
    sh.attempt(|c| c.config.batch = 1);
    sh.attempt(|c| c.config.ckpt_every = 1);
    sh.attempt(|c| c.config.crash_at = c.items.len() as u64);
    let stream = items_to_stream(&sh.best.items, &sim_registry());
    let lateness = measure_disorder(&stream).max_lateness.ticks();
    let halved = |k: u64| (k / 2).max(lateness);
    while sh.best.config.k > lateness && sh.attempt(|c| c.config.k = halved(c.config.k)) {}
}

/// Removes component `ix`, dropping its predicates and re-pointing the
/// survivors. Variable names stay attached to their components, so the
/// plan remains consistent without renaming.
fn remove_comp(plan: &mut QueryPlan, ix: usize) {
    plan.comps.remove(ix);
    plan.preds.retain(|p| p.comp != ix);
    for p in &mut plan.preds {
        if p.comp > ix {
            p.comp -= 1;
        }
    }
}

/// A terse one-line description of a case, for progress lines.
pub fn describe(case: &CaseData) -> String {
    let events = case
        .items
        .iter()
        .filter(|i| matches!(i, SimItem::Event(_)))
        .count();
    let queries: Vec<String> = case
        .queries
        .iter()
        .map(|q| format!("{} [{:?}]", q.plan.text(), q.policy))
        .collect();
    format!(
        "{} ({} events, {} punctuations, K={}, purge={:?})",
        queries.join(" ; "),
        events,
        case.items.len() - events,
        case.config.k,
        case.config.purge_every
    )
}
