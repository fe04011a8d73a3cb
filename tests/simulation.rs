//! Tier-1 smoke tests for the differential simulation harness itself:
//! a clean sweep over generated cases, determinism of generation, and —
//! most importantly — proof that the harness *detects* a deliberately
//! broken engine (purge horizon skewed by one tick) and shrinks the
//! failure to a replayable minimal repro.
//!
//! The loopback path is exercised sparsely here (debug builds); the CI
//! `sim-smoke` job runs the full release-mode matrix via `sequin sim --ci`.

use std::collections::{BTreeMap, BTreeSet};

use sequin::engine::{DisorderPolicy, MultiEngine};
use sequin::sim::case::{sim_registry, CaseData, SimItem};
use sequin::sim::diff::engine_config;
use sequin::sim::{check_case, replay, run, Sabotage, SimOptions};

#[test]
fn generated_cases_are_clean_on_every_path() {
    let opts = SimOptions {
        seeds: vec![21, 22],
        cases_per_seed: 60,
        no_loopback: true, // debug-mode: skip TCP; CI covers it in release
        ..SimOptions::default()
    };
    let report = run(&opts, |_| {});
    assert_eq!(report.cases_run, 120);
    assert!(
        report.clean(),
        "differential mismatches: {:?}",
        report
            .failures
            .iter()
            .map(|f| (f.seed, f.case_ix, &f.mismatches))
            .collect::<Vec<_>>()
    );
}

#[test]
fn a_few_loopback_cases_run_even_in_debug() {
    let opts = SimOptions {
        seeds: vec![31],
        cases_per_seed: 16,
        ..SimOptions::default()
    };
    let report = run(&opts, |_| {});
    assert!(report.clean(), "{:?}", report.failures);
}

#[test]
fn generation_is_deterministic() {
    for case_ix in 0..20 {
        assert_eq!(
            CaseData::generate(5, case_ix),
            CaseData::generate(5, case_ix)
        );
    }
    // distinct indexes actually vary the case — the stream included: with
    // the case seed only mixed, not finalised, neighbouring cases drew one
    // stream shifted by a draw or two, and dozens of pairs among 200 began
    // with the same timestamps
    let first_timestamps = |case_ix| {
        let case = CaseData::generate(5, case_ix);
        let ts = case.items.iter().filter_map(|item| match item {
            SimItem::Event(e) => Some(e.ts),
            SimItem::Punct(_) => None,
        });
        ts.take(8).collect::<Vec<u64>>()
    };
    let mut seen = BTreeMap::new();
    for case_ix in 0..200 {
        if let Some(other) = seen.insert(first_timestamps(case_ix), case_ix) {
            panic!("cases {other} and {case_ix} start on the same timestamps");
        }
    }

    // both shapes appear — one query, the common one, and sets of two to
    // four — and the sets are what makes a plan of N worth checking:
    // textually distinct (the server core folds equal queries into one
    // subscription), prefix siblings the plan can pool, policies mixed
    let registry = sim_registry();
    let (mut single, mut mixed, mut grouped) = (0u32, 0u32, 0u32);
    for case_ix in 0..100 {
        let case = CaseData::generate(9, case_ix);
        let n = case.queries.len();
        assert!((1..=4).contains(&n), "case {case_ix} holds {n} queries");
        single += u32::from(n == 1);
        let texts: BTreeSet<String> = case.queries.iter().map(|q| q.plan.text()).collect();
        assert_eq!(texts.len(), n, "duplicate text in case {case_ix}");
        let policies: BTreeSet<String> = case
            .queries
            .iter()
            .map(|q| format!("{:?}", q.policy))
            .collect();
        mixed += u32::from(policies.len() >= 2);
        let cfg = engine_config(&case, Sabotage::default());
        let mut host = MultiEngine::new(cfg);
        for q in &case.queries {
            let query = q
                .plan
                .build(&registry)
                .expect("generated queries are valid");
            host.register(query, q.policy);
        }
        grouped += u32::from(host.plan_metrics().prefix_groups >= 1);
    }
    assert!(
        (45..=75).contains(&single),
        "{single}/100 single-query cases"
    );
    assert!(mixed >= 20, "only {mixed}/100 cases mixed policies");
    assert!(
        grouped >= 8,
        "only {grouped}/100 cases formed a prefix group"
    );
}

/// The shrinker drops whole queries: a three-query case under a grossly
/// skewed purge horizon comes back with fewer queries, still failing a
/// path the original failed, and honest engines pass what is left.
#[test]
fn shrinker_drops_queries() {
    let opts = SimOptions {
        purge_skew: 50,
        no_loopback: true,
        ..SimOptions::default()
    };
    let (seed, case_ix) = (1, 7);
    let original = CaseData::generate(seed, case_ix);
    assert_eq!(original.queries.len(), 3, "generator drifted");
    let f = replay(seed, case_ix, &opts).expect("a 50-tick purge skew is caught");
    assert!(f.shrunk.queries.len() < original.queries.len());
    let survived = f
        .mismatches
        .iter()
        .any(|m| f.original.iter().any(|o| o.path == m.path));
    assert!(survived, "{:?} vs {:?}", f.mismatches, f.original);
    assert!(f.repro.contains("SimQuery {"), "{}", f.repro);
    assert!(check_case(&f.shrunk, Sabotage::default()).is_empty());
}

/// The acceptance check from the issue: widening the purge horizon by one
/// tick (the `purge_horizon_skew` fault knob) must make the harness fail,
/// and the failure must come back shrunk and replayable.
#[test]
fn purge_sabotage_is_detected_and_shrunk() {
    let opts = SimOptions {
        seeds: vec![1],
        cases_per_seed: 15, // seed 1 is known to expose skew=1 at case 14
        purge_skew: 1,
        no_loopback: true,
        max_failures: 1,
        ..SimOptions::default()
    };
    let report = run(&opts, |_| {});
    assert!(
        !report.failures.is_empty(),
        "a skewed purge horizon went undetected across {} cases",
        report.cases_run
    );
    let f = &report.failures[0];

    // replayable: the same (seed, case) pair reproduces the failure
    let again = replay(f.seed, f.case_ix, &opts).expect("replay reproduces the mismatch");
    assert_eq!(again.original.len(), f.original.len());

    // shrunk: strictly smaller than the generated case, and still failing
    let original = CaseData::generate(f.seed, f.case_ix);
    assert!(
        f.shrunk.items.len() < original.items.len(),
        "shrinker kept all {} items",
        original.items.len()
    );
    assert!(!check_case(&f.shrunk, opts.sabotage()).is_empty());
    // ... while the honest engine passes the same minimal case
    assert!(check_case(&f.shrunk, Sabotage::default()).is_empty());

    // the emitted repro is a self-contained test with the replay pair
    assert!(f.repro.contains("#[test]"), "{}", f.repro);
    assert!(f.repro.contains("check_case"), "{}", f.repro);
    assert!(
        f.repro
            .contains(&format!("--seed {} --case {}", f.seed, f.case_ix)),
        "{}",
        f.repro
    );
}

/// The retraction-drop mirror of the purge test: a speculative engine
/// that silently swallows one RETRACT (the `retraction_drop` fault knob)
/// leaves a phantom match in its settled output, and the oracle diff
/// must catch it. Every query is pinned to the speculative policy so
/// retractions are guaranteed to exist to drop.
#[test]
fn retraction_drop_sabotage_is_detected_and_shrunk() {
    let opts = SimOptions {
        seeds: vec![1, 2],
        cases_per_seed: 60,
        retraction_drop: 1,
        policy: Some(DisorderPolicy::Speculative),
        no_loopback: true,
        max_failures: 1,
        ..SimOptions::default()
    };
    let report = run(&opts, |_| {});
    assert!(
        !report.failures.is_empty(),
        "a dropped retraction went undetected across {} cases",
        report.cases_run
    );
    let f = &report.failures[0];

    // replayable: the same (seed, case) pair reproduces the failure
    let again = replay(f.seed, f.case_ix, &opts).expect("replay reproduces the mismatch");
    assert_eq!(again.original.len(), f.original.len());

    // the shrunk case still fails under sabotage and passes honestly
    assert!(!check_case(&f.shrunk, opts.sabotage()).is_empty());
    assert!(check_case(&f.shrunk, Sabotage::default()).is_empty());
}

/// The two CI sabotage runs: every failure they report comes back shrunk
/// to a case that still fails on a path the generated case failed on, and
/// that honest engines pass — a shrinker that accepted any surviving
/// mismatch, or a `K` below the stream's lateness, could trade the
/// planted defect for another.
#[test]
fn every_ci_sabotage_failure_shrinks_on_a_path_it_failed() {
    let sabotaged = [
        Sabotage::purge_skew(50),
        Sabotage {
            retraction_drop: 1,
            ..Sabotage::default()
        },
    ];
    for sabotage in sabotaged {
        let opts = SimOptions {
            seeds: vec![1, 2],
            cases_per_seed: 60,
            purge_skew: sabotage.purge_skew,
            retraction_drop: sabotage.retraction_drop,
            no_loopback: true,
            ..SimOptions::default()
        };
        let report = run(&opts, |_| {});
        assert!(!report.failures.is_empty(), "{sabotage:?} went undetected");
        for f in &report.failures {
            let kept = f.mismatches.iter().any(|m| {
                let failed = |o: &sequin::sim::Mismatch| o.path == m.path;
                f.original.iter().any(failed)
            });
            assert!(kept, "{sabotage:?} case {}: {:?}", f.case_ix, f.mismatches);
            assert!(check_case(&f.shrunk, sabotage) == f.mismatches);
            let honest = check_case(&f.shrunk, Sabotage::default());
            assert!(
                honest.is_empty(),
                "{sabotage:?} case {}: {honest:?}",
                f.case_ix
            );
        }
    }
}

#[test]
fn time_budget_stops_the_run_cleanly() {
    let opts = SimOptions {
        seeds: vec![77],
        cases_per_seed: 10_000,
        time_budget: Some(std::time::Duration::from_millis(200)),
        no_loopback: true,
        ..SimOptions::default()
    };
    let report = run(&opts, |_| {});
    assert!(report.budget_exhausted);
    assert!(report.cases_run < 10_000);
    assert!(report.clean(), "{:?}", report.failures);
}
