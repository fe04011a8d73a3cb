//! Regression corpus promoted from the differential simulator.
//!
//! Workflow: when `sequin sim` (or the nightly CI job) finds a mismatch,
//! it shrinks the case and emits a self-contained `#[test]` — paste it
//! here, named after its origin, and it pins the fix forever. Each test
//! rebuilds the exact minimal [`CaseData`] and asserts every production
//! path agrees (`check_case` with no sabotage).
//!
//! The harness has not caught a live engine bug yet, so the corpus holds
//! boundary cases promoted from sabotage runs: cases a one-tick purge
//! skew flips, i.e. the tightest inputs the purge rules must survive —
//! one with a single query, one with two queries pooling a stack.

use sequin::engine::DisorderPolicy;
use sequin::sim::case::*;

/// Shrunk from `sequin sim --seed 1 --cases 174` (case 173 of the
/// generator before case seeds were finalised), run with `--purge-skew 1`.
/// The tightest purge boundary: with `WITHIN 25`, the event at `ts 4` is
/// still needed when the terminator arrives exactly at the watermark
/// (`ts 29 − 25 = 4`); a horizon off by one tick purges it and loses the
/// match. The honest engine must keep it.
#[test]
fn sim_seed_1_case_173_purge_boundary() {
    let case = CaseData {
        queries: vec![SimQuery {
            plan: QueryPlan {
                comps: vec![
                    CompPlan {
                        negated: false,
                        types: vec![0, 2],
                        var: "a".into(),
                    },
                    CompPlan {
                        negated: false,
                        types: vec![4],
                        var: "c".into(),
                    },
                ],
                window: 25,
                preds: vec![],
                tag_join: false,
                project_first: false,
            },
            policy: DisorderPolicy::Conservative,
        }],
        items: vec![
            SimItem::Event(SimEvent {
                ty: 2,
                id: 1,
                ts: 4,
                x: 8,
                tag: 0,
            }),
            SimItem::Punct(29),
            SimItem::Event(SimEvent {
                ty: 4,
                id: 16,
                ts: 29,
                x: 2,
                tag: 2,
            }),
        ],
        config: CaseConfig {
            k: 0,
            purge_every: Some(1),
            watermark: 1,
            batch: 1,
            ckpt_every: 1,
            crash_at: 3,
            loopback: false,
        },
    };
    let mismatches = sequin::sim::diff::check_case(&case, Default::default());
    assert!(mismatches.is_empty(), "{mismatches:?}");
}

/// Shrunk from `sequin sim --seed 1 --cases 388` (case 387 of the
/// generator before case seeds were finalised, four prefix siblings), run
/// with `--purge-skew 1` and the shrinker's query-drop step held at two —
/// a purge skew never needs a second query to show, so the shrinker
/// otherwise ends on one. Two queries with different windows pool
/// one stack, purged at the lower of their thresholds: the event at
/// `ts 28` is re-delivered right after a punctuation puts the watermark
/// *at* 28, and only the stacked original tells the duplicate from a new
/// match. A horizon off by one tick purges it and both queries emit twice.
#[test]
fn sim_seed_1_case_387_pooled_duplicate_boundary() {
    let case = CaseData {
        queries: vec![
            SimQuery {
                plan: QueryPlan {
                    comps: vec![CompPlan {
                        negated: false,
                        types: vec![2],
                        var: "b".into(),
                    }],
                    window: 1,
                    preds: vec![],
                    tag_join: false,
                    project_first: false,
                },
                policy: DisorderPolicy::Conservative,
            },
            SimQuery {
                plan: QueryPlan {
                    comps: vec![CompPlan {
                        negated: false,
                        types: vec![2],
                        var: "b".into(),
                    }],
                    window: 2,
                    preds: vec![],
                    tag_join: false,
                    project_first: false,
                },
                policy: DisorderPolicy::Conservative,
            },
        ],
        items: vec![
            SimItem::Event(SimEvent {
                ty: 2,
                id: 17,
                ts: 28,
                x: 19,
                tag: 0,
            }),
            SimItem::Punct(28),
            SimItem::Event(SimEvent {
                ty: 2,
                id: 17,
                ts: 28,
                x: 19,
                tag: 0,
            }),
        ],
        config: CaseConfig {
            k: 0,
            purge_every: Some(1),
            watermark: 1,
            batch: 1,
            ckpt_every: 1,
            crash_at: 3,
            loopback: false,
        },
    };
    let mismatches = sequin::sim::diff::check_case(&case, Default::default());
    assert!(mismatches.is_empty(), "{mismatches:?}");
}
