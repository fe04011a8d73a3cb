//! Key-indexed stacks end to end, through `EngineCore` on both hosts of a
//! partitionable query (the shared plan at one shard, a routed pool at
//! two): thousands of live keys across a crash that swaps the shard
//! count, and a stream of keys that are never seen twice, whose index
//! must plateau with the window rather than ramp with the stream.

mod common;

use std::sync::Arc;

use sequin::engine::{
    Engine, EngineConfig, MultiEngine, NativeEngine, OutputItem, QueryId, Strategy,
};
use sequin::netsim::{delay_shuffle, measure_disorder};
use sequin::obs::SeriesValue;
use sequin::query::parse;
use sequin::server::{CoreConfig, EngineCore};
use sequin::types::{Duration, StreamItem, TypeRegistry};
use sequin::workload::{Synthetic, SyntheticConfig};

fn core_cfg(registry: &Arc<TypeRegistry>, engine: EngineConfig, shards: usize) -> CoreConfig {
    let mut cfg = CoreConfig::new(Arc::clone(registry), Strategy::Native, engine);
    // durable, and checkpointed only where the test says so
    cfg.checkpoint_every = Some(1 << 40);
    cfg.shards = shards;
    cfg
}

/// A gauge of the core's metrics snapshot, summed over queries.
fn gauge(core: &EngineCore, name: &str) -> u64 {
    let snapshot = core.metrics_snapshot(None);
    let of_name = snapshot.series().iter().filter(|s| s.name == name);
    of_name
        .map(|s| match s.value {
            SeriesValue::Gauge(v) => v,
            _ => panic!("`{name}` is not a gauge"),
        })
        .sum()
}

#[test]
fn two_thousand_keys_survive_a_crash_that_swaps_the_shard_count() {
    let w = Synthetic::new(SyntheticConfig {
        num_types: 3,
        tag_cardinality: 2_000,
        value_range: 10,
        mean_gap: 2,
    });
    // a (type, tag) pair comes back every ~12,000 ticks: the window holds
    // every key several times over
    let texts = [
        "PATTERN SEQ(T0 a, T1 b, T2 c) WHERE a.tag == b.tag AND b.tag == c.tag WITHIN 30000",
        "PATTERN SEQ(T0 a, T2 c) WHERE a.tag == c.tag WITHIN 9000",
    ];
    let events = w.generate(12_000, 77);
    let stream = delay_shuffle(&events, 0.3, 200, 78);
    let disorder = measure_disorder(&stream);
    assert!(disorder.late_events > 3_000, "{disorder:?}");
    let engine = EngineConfig::with_k(Duration::new(disorder.max_lateness.ticks()));

    // the independent reference: every query on a native engine of its own
    let alone = |text| -> Box<dyn Engine> {
        let query = parse(text, w.registry()).unwrap();
        assert!(query.partition().is_some());
        Box::new(NativeEngine::new(query, engine))
    };
    let mut reference = MultiEngine::from_engines(texts.map(alone).into());
    let mut want: Vec<(QueryId, OutputItem)> = reference
        .ingest_batch(&stream)
        .into_iter()
        .flatten()
        .collect();
    want.extend(reference.finish());
    for q in 0..texts.len() {
        let of_q = want.iter().filter(|(id, _)| id.index() == q).count();
        assert!(of_q > 100, "query {q} matched {of_q} times");
    }

    let cut = 7_013;
    for (before, after) in [(1, 2), (2, 1)] {
        let mut core = EngineCore::new(core_cfg(w.registry(), engine, before));
        for text in texts {
            core.subscribe(text).unwrap();
        }
        let mut got = core.ingest_batch(&stream[..cut]);
        let live = gauge(&core, "sequin_partition_keys");
        assert!(live > 2_000, "{before} shard(s): {live} live index entries");
        core.checkpoint_now();
        let store = core.store().clone();
        drop(core); // crash

        let (mut core, from) = EngineCore::resume(core_cfg(w.registry(), engine, after), store);
        assert_eq!(
            from as usize, cut,
            "{before} -> {after}: checkpoint accepted"
        );
        // every live key comes back (and on the plan, which pools the two
        // queries' `T0` and `T2` stacks, each query counts the union)
        let restored = gauge(&core, "sequin_partition_keys");
        assert!(
            restored >= live,
            "{before} -> {after}: {restored} of {live}"
        );
        got.extend(core.ingest_batch(&stream[cut..]));
        got.extend(core.finish());
        assert_eq!(got.len(), want.len(), "{before} -> {after} shard(s)");
        assert!(got == want, "{before} -> {after} shard(s): outputs differ");
    }
}

#[test]
fn keys_never_seen_twice_plateau_with_the_window() {
    let w = Synthetic::new(SyntheticConfig {
        num_types: 3,
        tag_cardinality: 1,
        value_range: 10,
        mean_gap: 1,
    });
    let (window, gap) = (100u64, 2u64);
    let text = "PATTERN SEQ(T0 a, T1 b, T2 c) WHERE a.tag == b.tag AND b.tag == c.tag WITHIN 100";
    // every event its own tag, every event of a type the query stacks
    let events: Vec<_> = (0..100_000u64)
        .map(|i| {
            let ty = ["T0", "T1", "T2"][(i % 3) as usize];
            common::ev(w.registry(), ty, i, i * gap, &[0, i as i64])
        })
        .collect();
    let stream = delay_shuffle(&events, 0.3, 50, 9);
    let k = measure_disorder(&stream).max_lateness.ticks();
    let engine = EngineConfig::with_k(Duration::new(k));
    // what the thresholds keep — one window behind a watermark K behind the
    // clock — plus what arrives between two purge rounds
    let cadence = u64::from(engine.purge.every_n.expect("the default purges"));
    let bound = (window + k) / gap + cadence + 8;

    for shards in [1, 2] {
        let mut core = EngineCore::new(core_cfg(w.registry(), engine, shards));
        core.subscribe(text).unwrap();
        let mut peak = 0;
        for chunk in stream.chunks(1_000) {
            assert!(core.ingest_batch(chunk).is_empty(), "no tag occurs twice");
            let keys = gauge(&core, "sequin_partition_keys");
            let state = gauge(&core, "sequin_engine_state_size");
            assert!(
                keys <= bound && state <= bound,
                "{shards} shard(s): {keys} index entries, {state} items, bound {bound}"
            );
            assert_eq!(keys, state, "one entry per instance, no emptied ones");
            peak = peak.max(keys);
        }
        assert!(peak > window / gap, "{shards} shard(s): the index was used");
    }
}

#[test]
fn an_unpartitioned_query_reports_no_keys() {
    let w = Synthetic::new(SyntheticConfig::default());
    let stream: Vec<StreamItem> = common::stream_of(&w.generate(500, 3));
    for shards in [1, 2] {
        let engine = EngineConfig::default();
        let mut core = EngineCore::new(core_cfg(w.registry(), engine, shards));
        core.subscribe("PATTERN SEQ(T0 a, T1 b) WITHIN 50").unwrap();
        core.ingest_batch(&stream);
        assert!(gauge(&core, "sequin_engine_state_size") > 0);
        assert_eq!(gauge(&core, "sequin_partition_keys"), 0);
    }
}
