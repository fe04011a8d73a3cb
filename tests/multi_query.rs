//! Multi-query evaluation: one stream, many patterns, per-query results
//! identical to standalone evaluation.

mod common;

use common::{drive, net_keys, reference_matches};
use sequin::engine::{DisorderPolicy, EngineConfig, MultiEngine, NativeEngine};
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
            let mut engine = NativeEngine::new(Arc::clone(q), cfg);
            net_keys(&drive(&mut engine, &stream))
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
    let mut multi = MultiEngine::new(cfg);
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

    // the same query twice on one plan, under two disorder policies
    let mut multi = MultiEngine::new(EngineConfig::with_k(Duration::new(k)));
    let policies = [DisorderPolicy::Conservative, DisorderPolicy::Speculative];
    let ids = policies.map(|p| multi.register(rfid.skipped_scan_query(100), p));

    let mut tagged = Vec::new();
    for item in &stream {
        tagged.extend(multi.ingest(item));
    }
    tagged.extend(multi.finish());

    let [conservative, speculative] = ids.map(|qid| {
        let outputs: Vec<_> = tagged
            .iter()
            .filter(|(id, _)| *id == qid)
            .map(|(_, o)| o.clone())
            .collect();
        net_keys(&outputs)
    });
    // both disorder policies agree on the net skipped-scan alerts
    assert!(!conservative.is_empty());
    assert_eq!(conservative, speculative);
    assert_eq!(multi.stats().len(), 2);
    assert!(multi.state_size() > 0);
}

/// 64 prefix siblings, each with a partition key, stay one plan: the same
/// pooled stacks and the one prefix group, with every query's counters
/// live.
#[test]
fn a_query_family_stays_one_plan() {
    use sequin::query::parse;
    use sequin::workload::{Synthetic, SyntheticConfig};
    let w = Synthetic::new(SyntheticConfig {
        num_types: 16,
        tag_cardinality: 3,
        value_range: 5,
        mean_gap: 2,
    });
    let stream = delay_shuffle(&w.generate(8_000, 5), 0.3, 100, 6);
    let cfg = EngineConfig::with_k(Duration::new(100));
    let family: Vec<_> = (0..64)
        .map(|i| {
            let band = i / 14;
            let text = format!(
                "PATTERN SEQ(T0 a, T1 b, T{} c) WHERE a.tag == b.tag AND b.tag == c.tag \
                 AND c.x >= {band} AND c.x < {} WITHIN 100",
                2 + i % 14,
                band + 1
            );
            let query = parse(&text, w.registry()).unwrap();
            assert!(query.partition().is_some(), "{text}");
            query
        })
        .collect();

    let mut host = MultiEngine::new(cfg);
    for query in &family {
        host.register(Arc::clone(query), cfg.policy);
    }
    let mut outputs: usize = stream
        .chunks(256)
        .map(|c| host.ingest_batch(c).iter().map(Vec::len).sum::<usize>())
        .sum();
    outputs += host.finish().len();
    assert!(outputs > 200, "{outputs} outputs");
    let pm = host.plan_metrics();
    assert_eq!(
        (pm.pooled_stacks, pm.prefix_groups),
        (66, 1),
        "T0, T1 and 64 banded finals; one prefix"
    );
    let stats = host.stats();
    assert!(stats.iter().all(|s| s.insertions > 0 && s.purged > 0));
}

/// The 64 prefix siblings with a negated middle slot — half keyed by an
/// equality chain — under all four policies, so every match is held before
/// it settles: batched ingestion (runs of 17) is item-by-item ingestion on
/// one host that registers queries mid-stream.
#[test]
fn a_holding_family_batched_equals_item_by_item() {
    use sequin::query::parse;
    use sequin::types::{Event, EventId, Timestamp, Value};
    let w = synthetic16();
    let reg = w.registry();
    let policies = [
        DisorderPolicy::Conservative,
        DisorderPolicy::Speculative,
        DisorderPolicy::Lazy,
        DisorderPolicy::AdaptiveSlack { accuracy: 90 },
    ];
    let holding: Vec<_> = (0..64)
        .map(|i| {
            let chain = ["", "a.tag == b.tag AND b.tag == c.tag AND "][i % 2];
            let (floor, window) = (i % 5, 30 + 5 * (i / 10));
            let text = format!(
                "PATTERN SEQ(T0 a, !T3 n, T1 b, T2 c) WHERE {chain}c.x >= {floor} WITHIN {window}"
            );
            (parse(&text, reg).unwrap(), policies[(i / 2) % 4])
        })
        .collect();
    let mut rng = sequin::prng::Rng::seed_from_u64(0x5EED_0015);
    let mut ts = 0u64;
    let events: Vec<_> = (0..600u64)
        .map(|id| {
            let ty = rng.gen_range(0u8..4);
            ts += rng.gen_range(1u64..4);
            let (x, tag) = (rng.gen_range(0i64..5), rng.gen_range(0i64..3));
            let ty = reg.lookup(&format!("T{ty}")).expect("declared");
            let e = Event::builder(ty, Timestamp::new(ts))
                .id(EventId::new(id))
                .attr(Value::Int(x))
                .attr(Value::Int(tag))
                .build();
            Arc::new(e)
        })
        .collect();
    // Two registration positions, times two tracker bounds (adaptive).
    batched_equals_item_by_item(&holding, &delay_shuffle(&events, 0.35, 40, 7), 18 * 17, 4);
}

/// The banded family of `tests/logical_counts.rs` beside a keyed query,
/// whose counters the plan's shared nodes owe their readers: batched
/// ingestion (runs of 17) is item-by-item ingestion, outputs and per-query
/// counters alike, on one host that registers queries mid-stream.
#[test]
fn a_banded_family_batched_equals_item_by_item_with_its_counters() {
    use sequin::query::parse;
    let w = synthetic16();
    let reg = w.registry();
    let mut banded: Vec<_> = common::banded_family();
    banded.push(
        "PATTERN SEQ(T0 a, T1 b, T2 c) WHERE a.tag == b.tag AND b.tag == c.tag WITHIN 100".into(),
    );
    let banded: Vec<_> = banded
        .iter()
        .map(|t| (parse(t, reg).unwrap(), DisorderPolicy::Conservative))
        .collect();
    let stream = delay_shuffle(&w.generate(8000, 42), 0.3, 100, 43);
    // Two registration positions.
    batched_equals_item_by_item(&banded, &stream, 150 * 17, 2);
}

fn synthetic16() -> sequin::workload::Synthetic {
    use sequin::workload::{Synthetic, SyntheticConfig};
    Synthetic::new(SyntheticConfig {
        num_types: 16,
        ..SyntheticConfig::default()
    })
}

/// Runs `family` over `stream` on one host item by item and in runs of
/// 17, registering the first 40 queries up front and the rest at item
/// `second`; outputs, per-query counters and the plan's `epochs` agree.
fn batched_equals_item_by_item(
    family: &[(Arc<sequin::query::Query>, DisorderPolicy)],
    stream: &[sequin::types::StreamItem],
    second: usize,
    epochs: u64,
) {
    let k = measure_disorder(stream).max_lateness.ticks().max(1);
    let cfg = EngineConfig::with_k(Duration::new(k));
    let run = |batch: usize| {
        let mut host = MultiEngine::new(cfg);
        let mut out = Vec::new();
        for (ix, chunk) in stream.chunks(batch).enumerate() {
            let joining = match ix * batch {
                0 => &family[..40],
                at if at == second => &family[40..],
                _ => &[],
            };
            for (q, policy) in joining {
                host.register(Arc::clone(q), *policy);
            }
            out.extend(host.ingest_batch(chunk));
        }
        out.push(host.finish());
        (out, host.stats(), host.plan_metrics().epochs)
    };
    let (item_by_item, batched) = (run(1), run(17));
    let outputs: usize = item_by_item.0.iter().map(Vec::len).sum();
    assert!(outputs > 1000, "the family fires: {outputs}");
    assert!(batched.0 == item_by_item.0, "outputs differ");
    assert_eq!(batched.1, item_by_item.1, "per-query counters");
    assert_eq!((batched.2, item_by_item.2), (epochs, epochs));
}
