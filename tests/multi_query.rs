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

    let config = EngineConfig::with_k(Duration::new(k));
    let speculating = EngineConfig {
        policy: DisorderPolicy::Speculative,
        ..config
    };
    let mut multi = MultiEngine::from_engines(vec![
        make_engine(Strategy::Native, rfid.skipped_scan_query(100), config),
        make_engine(Strategy::Native, rfid.skipped_scan_query(100), speculating),
        make_engine(Strategy::Buffered, rfid.lifecycle_query(100), config),
    ]);
    // ids are dense, in the order given
    let (conservative, speculative, buffered) = (0, 1, 2);

    let mut tagged = Vec::new();
    for item in &stream {
        tagged.extend(multi.ingest(item));
    }
    tagged.extend(multi.finish());

    let per = |qx: usize| {
        let outputs: Vec<_> = tagged
            .iter()
            .filter(|(id, _)| id.index() == qx)
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

/// Live threads of this process named like a pool's workers. No other
/// test in this file may host a pool of several, or the counts below race.
#[cfg(target_os = "linux")]
fn shard_threads() -> usize {
    let tasks = std::fs::read_dir("/proc/self/task").unwrap();
    let names = tasks.filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok());
    names.filter(|n| n.starts_with("sequin-shard-")).count()
}

/// `--shards` sets how many workers run the plan, not where a query runs:
/// 64 prefix siblings, each with a key to spread, stay one plan — the same
/// pooled stacks and the one prefix group — on 1, 2 and 3 workers, and
/// cost `shards` threads, not `shards × queries`.
#[test]
fn a_query_family_stays_one_plan_at_every_shard_count() {
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

    let mut runs = Vec::new();
    for shards in 1..=3 {
        #[cfg(target_os = "linux")]
        let before = shard_threads();
        let mut host = MultiEngine::new(Strategy::Native, cfg, shards);
        for query in &family {
            host.register(Arc::clone(query), cfg.policy);
        }
        let mut out: Vec<_> = stream.chunks(256).map(|c| host.ingest_batch(c)).collect();
        // (counted once every worker has answered, so has named itself)
        #[cfg(target_os = "linux")]
        assert_eq!(
            shard_threads() - before,
            if shards > 1 { shards } else { 0 },
            "{shards} shard(s): one thread per worker, none for a pool of one"
        );
        out.push(vec![host.finish()]);
        let mut stats = host.stats();
        stats.iter_mut().for_each(|s| s.merge_buffer_peak = 0);
        let pm = host.plan_metrics();
        runs.push((out, stats, (pm.pooled_stacks, pm.prefix_groups)));
    }
    let (out, stats, shape) = &runs[0];
    let outputs: usize = out.iter().flatten().map(Vec::len).sum();
    assert!(outputs > 200, "{outputs} outputs");
    assert_eq!(*shape, (66, 1), "T0, T1 and 64 banded finals; one prefix");
    assert!(stats.iter().all(|s| s.insertions > 0 && s.purged > 0));
    for (ix, run) in runs.iter().enumerate().skip(1) {
        let shards = ix + 1;
        assert!(run.0 == *out, "{shards} shards: outputs differ or moved");
        assert_eq!(run.1, *stats, "{shards} shards: per-query counters");
        assert_eq!(run.2, *shape, "{shards} shards: the plan's shape");
    }
}
