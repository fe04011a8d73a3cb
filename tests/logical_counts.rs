//! The logical work counters are part of the engine's contract: a change
//! that claims to be "time only" must leave every one of them where it
//! was. One fixed-seed stream per construction shape, each pinned to the
//! counts the evaluator produced when the pins were taken — a moved
//! `predicate_evals` or `dfs_steps` is a changed algorithm, not a faster
//! one.
//!
//! One such change moved the negation pins on purpose: construction now
//! starts each level past the newest stored negative between its flanks,
//! so a match a negative already rules out is never built. On
//! [`speculative_negation`] only the late-`T0` ascent narrows (`n.tag ==
//! a.tag` reads the unbound flank on the descent): `dfs_steps` and
//! `matches_constructed` 62,802 → 62,208, `negated_matches` 7,282 → 6,688,
//! `predicate_evals` 305,101 → 309,904 (the walk's 1,835 fewer, plus the
//! 6,638 the narrowing's scan spends). Without predicates
//! ([`negation_without_predicates`]) every level narrows: `dfs_steps` and
//! `matches_constructed` 62,802 → 6,106, `negated_matches` 57,871 → 1,175.

mod common;

use std::sync::Arc;

use sequin::engine::{DisorderPolicy, EngineConfig, MultiEngine, OutputItem, OutputKind, QueryId};
use sequin::netsim::delay_shuffle;
use sequin::query::{parse, Query};
use sequin::runtime::RuntimeStats;
use sequin::types::codec::fnv1a64;
use sequin::types::{Duration, Encode, Writer};
use sequin::workload::{Synthetic, SyntheticConfig};

/// `[insertions, ooo_insertions, dfs_steps, predicate_evals,
/// matches_constructed, negated_matches, purged]`, summed over queries.
type Counts = [u64; 7];

fn sums(stats: &[RuntimeStats]) -> Counts {
    let mut sum = RuntimeStats::default();
    for s in stats {
        sum += *s;
    }
    [
        sum.insertions,
        sum.ooo_insertions,
        sum.dfs_steps,
        sum.predicate_evals,
        sum.matches_constructed,
        sum.negated_matches,
        sum.purged,
    ]
}

fn counts(
    types: usize,
    events: usize,
    disorder: (f64, u64),
    policy: DisorderPolicy,
    queries: impl Fn(&Synthetic) -> Vec<Arc<Query>>,
) -> Counts {
    counts_and_retractions(types, events, disorder, policy, queries).0
}

/// [`counts`], and the number of RETRACT outputs.
fn counts_and_retractions(
    types: usize,
    events: usize,
    (ooo, max_delay): (f64, u64),
    policy: DisorderPolicy,
    queries: impl Fn(&Synthetic) -> Vec<Arc<Query>>,
) -> (Counts, u64) {
    let w = Synthetic::new(SyntheticConfig {
        num_types: types,
        ..SyntheticConfig::default()
    });
    let stream = delay_shuffle(&w.generate(events, 42), ooo, max_delay, 43);
    let config = EngineConfig {
        policy,
        ..EngineConfig::with_k(Duration::new(max_delay))
    };
    let mut engine = MultiEngine::new(config);
    for q in queries(&w) {
        engine.register(q, policy);
    }
    let mut out: Vec<(QueryId, OutputItem)> = Vec::new();
    for chunk in stream.chunks(256) {
        out.extend(engine.ingest_batch(chunk).into_iter().flatten());
    }
    out.extend(engine.finish());
    let retractions = out.iter().filter(|(_, o)| o.kind == OutputKind::Retract);
    (sums(&engine.stats()), retractions.count() as u64)
}

/// One deep unpartitioned stack: `a.tag + 0` defeats the equality chain,
/// so every `T1` walks the whole window of `T0`s.
#[test]
fn deep_unpartitioned_join() {
    let got = counts(2, 3000, (0.6, 1000), DisorderPolicy::Conservative, |w| {
        let text = "PATTERN SEQ(T0 a, T1 b) WHERE a.tag + 0 == b.tag WITHIN 2000";
        vec![parse(text, w.registry()).unwrap()]
    });
    assert_eq!(got, DEEP);
}

#[test]
fn keyed_seq3() {
    let got = counts(4, 20_000, (0.3, 100), DisorderPolicy::Conservative, |w| {
        vec![w.partitioned_query(3, 100)]
    });
    assert_eq!(got, SEQ3);
}

/// 64 queries sharing the `T0, T1` prefix, each with a unit-wide band on
/// its own final slot: pooled pre-filters, one shared prefix walk, a fork
/// per member.
#[test]
fn prefix_family_of_64() {
    let got = counts(16, 6000, (0.3, 100), DisorderPolicy::Conservative, |w| {
        let member = |i: usize| {
            let (ty, band) = (2 + i % 14, (i / 14) * 20);
            let text = format!(
                "PATTERN SEQ(T0 a, T1 b, T{ty} c) WHERE c.x >= {band} AND c.x < {} WITHIN 100",
                band + 20
            );
            parse(&text, w.registry()).unwrap()
        };
        (0..64).map(member).collect()
    });
    assert_eq!(got, FAMILY);
}

#[test]
fn speculative_negation() {
    let got = counts(4, 20_000, (0.3, 100), DisorderPolicy::Speculative, |w| {
        let text = "PATTERN SEQ(T0 a, !T1 n, T2 c) WHERE n.tag == a.tag WITHIN 100";
        vec![parse(text, w.registry()).unwrap()]
    });
    assert_eq!(got, NEGATION);
}

/// The ledger's negation shape: no predicate, so every level narrows. Under
/// speculative, every negated match is then a retraction — one a negative
/// arriving after it retracted — and none is dropped at construction.
#[test]
fn negation_without_predicates() {
    let run = |policy| {
        counts_and_retractions(4, 20_000, (0.3, 100), policy, |w| {
            let text = "PATTERN SEQ(T0 a, !T1 b, T2 c) WITHIN 100";
            vec![parse(text, w.registry()).unwrap()]
        })
    };
    let (speculative, retractions) = run(DisorderPolicy::Speculative);
    assert_eq!(speculative, BARE_NEGATION_SPECULATIVE);
    assert_eq!(
        speculative[5], retractions,
        "negated_matches == retractions"
    );
    assert_eq!(
        run(DisorderPolicy::Conservative).0,
        BARE_NEGATION_CONSERVATIVE
    );
}

/// Every owner of a shared counter at once, through every change of plan:
/// the banded family (`common::banded_family`), its second part registered
/// mid-stream (a second epoch, a second group), the unregistration of a
/// group member, a snapshot restored into a fresh engine. Pinned: the seven sums, and a hash of every query's whole
/// counter vector, taken on PR 22's evaluator, which counted every shared
/// step for each query as it happened.
#[test]
fn shared_counters_through_every_change_of_plan() {
    let w = Synthetic::new(SyntheticConfig {
        num_types: 16,
        ..SyntheticConfig::default()
    });
    let stream = delay_shuffle(&w.generate(8000, 42), 0.3, 100, 43);
    let queries: Vec<Arc<Query>> = common::banded_family()
        .iter()
        .map(|t| parse(t, w.registry()).unwrap())
        .collect();
    let config = EngineConfig::with_k(Duration::new(100));
    let (second_batch, unregister_at, restore_at) = (3000, 5000, 6000);
    let (first, member) = (40, 7);

    let mut engine = MultiEngine::new(config);
    let ids: Vec<QueryId> = queries[..first]
        .iter()
        .map(|q| engine.register(Arc::clone(q), config.policy))
        .collect();
    let gone = ids[member];
    for (ix, item) in stream.iter().enumerate() {
        if ix == second_batch {
            for q in &queries[first..] {
                engine.register(Arc::clone(q), config.policy);
            }
        }
        if ix == unregister_at {
            engine.unregister(gone);
        }
        if ix == restore_at {
            let snap = engine.snapshot();
            engine = MultiEngine::new(config);
            let ids: Vec<QueryId> = queries
                .iter()
                .map(|q| engine.register(Arc::clone(q), config.policy))
                .collect();
            engine.unregister(ids[member]);
            engine.restore(&snap).unwrap();
        }
        engine.ingest(item);
    }
    engine.finish();
    let stats = engine.stats();
    let mut w = Writer::new();
    stats.iter().for_each(|s| s.encode(&mut w));
    assert_eq!((sums(&stats), fnv1a64(&w.into_bytes())), EVERY_CHANGE);
}

const DEEP: Counts = [3000, 1825, 634_543, 637_543, 12_497, 0, 2031];
const SEQ3: Counts = [15_064, 384, 2552, 23_951, 158, 0, 14_972];
const FAMILY: Counts = [52_690, 9033, 107_720, 58_019, 22_283, 0, 51_469];
const NEGATION: Counts = [15_064, 2720, 62_208, 309_904, 62_208, 6688, 14_960];
const BARE_NEGATION_SPECULATIVE: Counts = [15_064, 2720, 6106, 0, 6106, 1175, 14_960];
const BARE_NEGATION_CONSERVATIVE: Counts = [15_064, 2720, 6106, 0, 6106, 1175, 14_960];
const EVERY_CHANGE: (Counts, u64) = (
    [64_542, 11_525, 142_631, 72_462, 31_844, 0, 63_744],
    7_399_820_516_286_691_320,
);
