//! Cross-engine equivalence: the native out-of-order engine on a
//! disordered stream must produce exactly the match set of (a) the
//! independent brute-force oracle and (b) the classic engine fed the
//! timestamp-sorted stream — across queries, workloads, and disorder
//! levels.

mod common;

use common::{drive, net_keys, reference_matches, stream_of};
use sequin::engine::{DisorderPolicy, EngineConfig};
use sequin::netsim::{delay_shuffle, measure_disorder};
use sequin::query::Query;
use sequin::types::{sort_by_timestamp, Duration, EventRef};
use sequin::workload::{Intrusion, Rfid, Stock, Synthetic, SyntheticConfig};
use sequin_bench::{make_engine, Strategy};
use std::collections::BTreeSet;
use std::sync::Arc;

fn sorted_stream(events: &[EventRef]) -> Vec<sequin::types::StreamItem> {
    let mut s = events.to_vec();
    sort_by_timestamp(&mut s);
    stream_of(&s)
}

/// Runs the full equivalence matrix for one query over one history.
fn check_equivalence(query: &Arc<Query>, events: &[EventRef], tag: &str) {
    let oracle = reference_matches(query, events);

    for (ooo, delay, seed) in [(0.0, 1, 1u64), (0.2, 60, 2), (0.5, 150, 3)] {
        let stream = delay_shuffle(events, ooo, delay, seed);
        let k = measure_disorder(&stream).max_lateness.ticks().max(1);
        let config = EngineConfig::with_k(Duration::new(k));

        for strategy in [Strategy::Buffered, Strategy::Native] {
            let mut engine = make_engine(strategy, Arc::clone(query), config);
            let outputs = drive(engine.as_mut(), &stream);
            let got = net_keys(&outputs);
            assert_eq!(
                got, oracle,
                "{tag}: {strategy} diverged from reference at ooo={ooo} (K={k})"
            );
        }

        // speculative policy nets out to the same set
        let mut cfg = config;
        cfg.policy = DisorderPolicy::Speculative;
        let mut engine = make_engine(Strategy::Native, Arc::clone(query), cfg);
        let got = net_keys(&drive(engine.as_mut(), &stream));
        assert_eq!(got, oracle, "{tag}: speculative net diverged at ooo={ooo}");
    }

    // the classic engine is correct on sorted input
    let mut engine = make_engine(
        Strategy::InOrder,
        Arc::clone(query),
        EngineConfig::with_k(Duration::new(1)),
    );
    let got = net_keys(&drive(engine.as_mut(), &sorted_stream(events)));
    assert_eq!(
        got, oracle,
        "{tag}: classic-on-sorted diverged from reference"
    );
}

fn synthetic() -> Synthetic {
    Synthetic::new(SyntheticConfig {
        num_types: 4,
        tag_cardinality: 5,
        value_range: 20,
        mean_gap: 4,
    })
}

#[test]
fn plain_sequence_len2() {
    let w = synthetic();
    let events = w.generate(80, 11);
    check_equivalence(&w.seq_query(2, 40), &events, "seq2");
}

#[test]
fn plain_sequence_len3() {
    let w = synthetic();
    let events = w.generate(60, 12);
    check_equivalence(&w.seq_query(3, 60), &events, "seq3");
}

#[test]
fn selective_query() {
    let w = synthetic();
    let events = w.generate(80, 13);
    check_equivalence(&w.selective_query(2, 40, 10), &events, "selective");
}

#[test]
fn correlated_query_partitions() {
    let w = synthetic();
    let events = w.generate(70, 14);
    let q = w.partitioned_query(3, 80);
    assert!(q.partition().is_some());
    check_equivalence(&q, &events, "partitioned");

    // and the flat (unpartitioned) configuration agrees too
    let oracle = reference_matches(&q, &events);
    let stream = delay_shuffle(&events, 0.3, 60, 4);
    let k = measure_disorder(&stream).max_lateness.ticks().max(1);
    let mut cfg = EngineConfig::with_k(Duration::new(k));
    cfg.partitioned = false;
    let mut engine = make_engine(Strategy::Native, q, cfg);
    assert_eq!(net_keys(&drive(engine.as_mut(), &stream)), oracle);
}

#[test]
fn negation_middle() {
    let w = synthetic();
    let events = w.generate(80, 15);
    check_equivalence(&w.negation_query(50), &events, "negation");
}

#[test]
fn negation_with_correlation() {
    let w = synthetic();
    let events = w.generate(80, 16);
    let reg = w.registry();
    let q = sequin::query::parse(
        "PATTERN SEQ(T0 a, !T1 n, T2 c) WHERE a.tag == c.tag AND n.tag == a.tag WITHIN 60",
        reg,
    )
    .unwrap();
    check_equivalence(&q, &events, "negation-correlated");
}

#[test]
fn leading_and_trailing_negation() {
    let w = synthetic();
    let events = w.generate(60, 17);
    let reg = w.registry();
    for (tag, text) in [
        ("leading", "PATTERN SEQ(!T1 n, T0 a, T2 c) WITHIN 40"),
        ("trailing", "PATTERN SEQ(T0 a, T2 c, !T1 n) WITHIN 40"),
    ] {
        let q = sequin::query::parse(text, reg).unwrap();
        let oracle = reference_matches(&q, &events);
        // trailing negation cannot be checked eagerly: only the native
        // conservative engine is expected to be exact
        for (ooo, delay, seed) in [(0.0, 1, 1u64), (0.3, 80, 2)] {
            let stream = delay_shuffle(&events, ooo, delay, seed);
            let k = measure_disorder(&stream).max_lateness.ticks().max(1);
            let mut engine = make_engine(
                Strategy::Native,
                Arc::clone(&q),
                EngineConfig::with_k(Duration::new(k)),
            );
            let got = net_keys(&drive(engine.as_mut(), &stream));
            assert_eq!(got, oracle, "{tag} negation diverged at ooo={ooo}");
        }
    }
}

#[test]
fn repeated_type_query() {
    let w = synthetic();
    let events = w.generate(60, 18);
    let reg = w.registry();
    let q = sequin::query::parse("PATTERN SEQ(T0 a1, T0 a2, T1 b) WITHIN 50", reg).unwrap();
    check_equivalence(&q, &events, "repeated-type");
}

#[test]
fn alternation_query_equivalence() {
    let w = synthetic();
    let events = w.generate(70, 25);
    let reg = w.registry();
    for (tag, text) in [
        ("alt-positive", "PATTERN SEQ(T0|T1 ab, T2 c) WITHIN 50"),
        ("alt-negated", "PATTERN SEQ(T0 a, !T1|T3 n, T2 c) WITHIN 50"),
        (
            "alt-predicated",
            "PATTERN SEQ(T0|T1 ab, T2 c) WHERE ab.x == c.x WITHIN 50",
        ),
        ("self-negated", "PATTERN SEQ(T0 a, !T0 n, T1 b) WITHIN 50"),
        (
            "self-negated-adjacent",
            "PATTERN SEQ(T0 a1, !T0 n, T0 a2) WITHIN 50",
        ),
    ] {
        let q = sequin::query::parse(text, reg).unwrap();
        check_equivalence(&q, &events, tag);
    }
}

#[test]
fn rfid_workload_equivalence() {
    let rfid = Rfid::new();
    let (events, _) = rfid.generate(30, 0.3, 19);
    check_equivalence(&rfid.skipped_scan_query(60), &events, "rfid-skip");
    check_equivalence(&rfid.lifecycle_query(60), &events, "rfid-lifecycle");
}

#[test]
fn intrusion_workload_equivalence() {
    let w = Intrusion::new();
    let events = w.generate(50, 4, 3, 20);
    check_equivalence(&w.brute_force_query(30), &events, "intrusion");
}

#[test]
fn stock_workload_equivalence() {
    let w = Stock::new();
    let events = w.generate(60, 3, 21);
    check_equivalence(&w.rising_query(20), &events, "stock-rising");
    check_equivalence(&w.uncorrected_spike_query(25), &events, "stock-spike");
}

#[test]
fn large_scale_engine_vs_engine() {
    // too big for the brute-force oracle: compare native-on-shuffled
    // against classic-on-sorted at scale
    let w = Synthetic::new(SyntheticConfig {
        num_types: 4,
        tag_cardinality: 30,
        value_range: 100,
        mean_gap: 10,
    });
    let events = w.generate(20_000, 22);
    let q = w.partitioned_query(3, 200);
    let mut oracle_engine = make_engine(
        Strategy::InOrder,
        Arc::clone(&q),
        EngineConfig::with_k(Duration::new(1)),
    );
    let oracle = net_keys(&drive(oracle_engine.as_mut(), &sorted_stream(&events)));
    assert!(!oracle.is_empty());

    let stream = delay_shuffle(&events, 0.25, 300, 5);
    let k = measure_disorder(&stream).max_lateness.ticks().max(1);
    for partitioned in [true, false] {
        let mut cfg = EngineConfig::with_k(Duration::new(k));
        cfg.partitioned = partitioned;
        let mut engine = make_engine(Strategy::Native, Arc::clone(&q), cfg);
        let got = net_keys(&drive(engine.as_mut(), &stream));
        assert_eq!(
            got, oracle,
            "native (partitioned={partitioned}) diverged at scale"
        );
    }
}

#[test]
fn in_order_engine_fails_under_disorder() {
    // sanity for E1: the baseline REALLY is broken under disorder
    let w = synthetic();
    let events = w.generate(300, 23);
    let q = w.seq_query(2, 40);
    let oracle: BTreeSet<_> = reference_matches(&q, &events);
    let stream = delay_shuffle(&events, 0.4, 100, 6);
    let mut engine = make_engine(Strategy::InOrder, q, EngineConfig::with_k(Duration::new(1)));
    let got = net_keys(&drive(engine.as_mut(), &stream));
    assert_ne!(
        got, oracle,
        "the classic engine should diverge under heavy disorder"
    );
}
