//! Multi-query evaluation: one stream, many patterns, per-query results
//! identical to standalone evaluation.

mod common;

use common::{drive, net_keys, reference_matches};
use sequin::engine::{make_engine, DisorderPolicy, EngineConfig, MultiEngine, Strategy};
use sequin::netsim::{delay_shuffle, measure_disorder};
use sequin::types::Duration;
use sequin::workload::Rfid;
use std::collections::BTreeSet;
use std::sync::Arc;

#[test]
fn shared_stream_matches_standalone_evaluation() {
    let rfid = Rfid::new();
    // sized for the brute-force oracle below
    let (history, _) = rfid.generate(150, 0.1, 41);
    let stream = delay_shuffle(&history, 0.25, 40, 2);
    let k = measure_disorder(&stream).max_lateness.ticks().max(1);
    let cfg = EngineConfig::with_k(Duration::new(k));

    let queries = [rfid.skipped_scan_query(120), rfid.lifecycle_query(120)];

    // standalone runs
    let standalone: Vec<BTreeSet<Vec<u64>>> = queries
        .iter()
        .map(|q| {
            let mut engine = make_engine(Strategy::Native, Arc::clone(q), cfg);
            net_keys(&drive(engine.as_mut(), &stream))
        })
        .collect();
    assert!(standalone.iter().all(|s| !s.is_empty()));
    // a standalone engine is the evaluator under test holding one query;
    // what anchors it is the oracle, which shares no code with it
    for (q, alone) in queries.iter().zip(&standalone) {
        assert_eq!(
            alone,
            &reference_matches(q, &history),
            "standalone vs oracle"
        );
    }

    // multi-engine run: both queries on one plan — a plan of two against
    // two plans of one
    let mut multi = MultiEngine::new(Strategy::Native, cfg, 1);
    let ids: Vec<_> = queries
        .iter()
        .map(|q| multi.register(Arc::clone(q), cfg.policy))
        .collect();
    let mut tagged = Vec::new();
    for item in &stream {
        tagged.extend(multi.ingest(item));
    }
    tagged.extend(multi.finish());

    for (qx, qid) in ids.iter().enumerate() {
        let outputs: Vec<_> = tagged
            .iter()
            .filter(|(id, _)| id == qid)
            .map(|(_, o)| o.clone())
            .collect();
        assert_eq!(
            net_keys(&outputs),
            standalone[qx],
            "query {qx} diverged under multi"
        );
    }
}

#[test]
fn mixed_strategies_and_policies_coexist() {
    let rfid = Rfid::new();
    let (history, _) = rfid.generate(300, 0.1, 43);
    let stream = delay_shuffle(&history, 0.2, 30, 3);
    let k = measure_disorder(&stream).max_lateness.ticks().max(1);

    let mut multi = MultiEngine::new(Strategy::Native, EngineConfig::default(), 1);
    let conservative = multi.register_engine(make_engine(
        Strategy::Native,
        rfid.skipped_scan_query(100),
        EngineConfig::with_k(Duration::new(k)),
    ));
    let speculative = multi.register_engine(make_engine(
        Strategy::Native,
        rfid.skipped_scan_query(100),
        {
            let mut c = EngineConfig::with_k(Duration::new(k));
            c.policy = DisorderPolicy::Speculative;
            c
        },
    ));
    let buffered = multi.register_engine(make_engine(
        Strategy::Buffered,
        rfid.lifecycle_query(100),
        EngineConfig::with_k(Duration::new(k)),
    ));

    let mut tagged = Vec::new();
    for item in &stream {
        tagged.extend(multi.ingest(item));
    }
    tagged.extend(multi.finish());

    let per = |qid| {
        let outputs: Vec<_> = tagged
            .iter()
            .filter(|(id, _)| *id == qid)
            .map(|(_, o)| o.clone())
            .collect();
        net_keys(&outputs)
    };
    // both disorder policies agree on the net skipped-scan alerts
    assert_eq!(per(conservative), per(speculative));
    assert!(!per(buffered).is_empty());
    assert_eq!(multi.stats().len(), 3);
    assert!(multi.state_size() > 0);
}
