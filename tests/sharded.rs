//! Randomized byte-identity tests for the sharded evaluation pool:
//!
//! 1. `ShardedEngine` with N ∈ {1, 2, 7} workers produces *byte-identical*
//!    output (same items, kinds, and emission bookkeeping, in the same
//!    order) to the single-threaded `NativeEngine` on any bounded shuffle
//!    of any history, under every disorder policy;
//! 2. a durable `EngineCore` checkpointed while evaluating on 2 shards
//!    can crash and resume on 4 shards, exactly-once — the checkpoint
//!    format is shard-count-agnostic.
//!
//! Histories are generated from explicit seeds with the workspace's own
//! `sequin::prng::Rng`, so every failing case is reproducible by seed.

mod common;

use common::drive;
use sequin::engine::{
    DisorderPolicy, EngineConfig, MultiEngine, NativeEngine, OutputItem, ShardedEngine,
    Strategy as EngineStrategy,
};
use sequin::netsim::{delay_shuffle, measure_disorder};
use sequin::prng::Rng;
use sequin::query::parse;
use sequin::server::{CoreConfig, EngineCore};
use sequin::types::{
    Duration, Event, EventId, EventRef, StreamItem, Timestamp, TypeRegistry, Value, ValueKind,
};
use sequin::workload::{Synthetic, SyntheticConfig};
use std::sync::Arc;

const CASES: u64 = 32;

fn registry() -> TypeRegistry {
    let mut reg = TypeRegistry::new();
    for name in ["T0", "T1", "T2", "T3"] {
        reg.declare(name, &[("x", ValueKind::Int), ("tag", ValueKind::Int)])
            .unwrap();
    }
    reg
}

/// Query shapes covering partitioned equality chains (shardable), joins
/// the overflow shard must own, negation in every flank position, and
/// disjunctive types.
const QUERIES: &[&str] = &[
    "PATTERN SEQ(T0 a, T1 b) WITHIN 20",
    "PATTERN SEQ(T0 a, T1 b, T2 c) WHERE a.tag == b.tag AND b.tag == c.tag WITHIN 60",
    "PATTERN SEQ(T0 a, T1 b) WHERE a.x == b.x WITHIN 30",
    "PATTERN SEQ(T0 a, !T1 n, T2 c) WITHIN 30",
    "PATTERN SEQ(!T1 n, T0 a) WITHIN 15",
    "PATTERN SEQ(T0 a, T2 c, !T1 n) WITHIN 15",
    "PATTERN SEQ(T0 a, !T3 n, T2 c) WHERE n.x == a.x WITHIN 30",
    "PATTERN SEQ(T0|T1 ab, T2 c) WITHIN 30",
    "PATTERN SEQ(T0 a, !T0 n, T1 b) WITHIN 20",
];

fn gen_history(rng: &mut Rng) -> Vec<(u8, u8, u8, u8)> {
    let n = rng.gen_range(4usize..36);
    (0..n)
        .map(|_| {
            (
                rng.gen_range(0u8..4),
                rng.gen_range(1u8..6),
                rng.gen_range(0u8..5),
                rng.gen_range(0u8..3),
            )
        })
        .collect()
}

fn build_events(reg: &TypeRegistry, raw: &[(u8, u8, u8, u8)]) -> Vec<EventRef> {
    let mut ts = 0u64;
    raw.iter()
        .enumerate()
        .map(|(i, &(ty, gap, x, tag))| {
            ts += u64::from(gap);
            Arc::new(
                Event::builder(
                    reg.lookup(&format!("T{ty}")).expect("declared"),
                    Timestamp::new(ts),
                )
                .id(EventId::new(i as u64))
                .attr(Value::Int(i64::from(x)))
                .attr(Value::Int(i64::from(tag)))
                .build(),
            )
        })
        .collect()
}

#[test]
fn sharded_pool_is_byte_identical_to_native_for_any_shard_count() {
    let reg = registry();
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x5EED_0011 + case);
        let raw = gen_history(&mut rng);
        let events = build_events(&reg, &raw);
        let query = parse(QUERIES[rng.gen_range(0usize..QUERIES.len())], &reg).unwrap();

        let ooo = rng.gen_range(0.0f64..0.6);
        let delay = rng.gen_range(1u64..120);
        let seed = rng.gen_range(0u64..1000);
        let stream = delay_shuffle(&events, ooo, delay, seed);
        let k = measure_disorder(&stream).max_lateness.ticks().max(1);

        for policy in [DisorderPolicy::Conservative, DisorderPolicy::Speculative] {
            let mut cfg = EngineConfig::with_k(Duration::new(k));
            cfg.policy = policy;

            let mut native = NativeEngine::new(Arc::clone(&query), cfg);
            let want: Vec<OutputItem> = drive(&mut native, &stream);

            for shards in [1usize, 2, 7] {
                let mut pool = ShardedEngine::new(Arc::clone(&query), cfg, shards);
                let got = drive(&mut pool, &stream);
                assert_eq!(
                    got, want,
                    "case {case}: shards={shards} policy={policy:?} query {query}"
                );
            }
        }
    }
}

#[test]
fn sharded_batched_ingestion_is_byte_identical_too() {
    let reg = registry();
    for case in 0..CASES / 2 {
        let mut rng = Rng::seed_from_u64(0x5EED_0012 + case);
        let raw = gen_history(&mut rng);
        let events = build_events(&reg, &raw);
        let query = parse(QUERIES[rng.gen_range(0usize..QUERIES.len())], &reg).unwrap();
        let stream = delay_shuffle(&events, 0.4, 80, rng.gen_range(0u64..1000));
        let k = measure_disorder(&stream).max_lateness.ticks().max(1);
        let cfg = EngineConfig::with_k(Duration::new(k));

        let mut native = NativeEngine::new(Arc::clone(&query), cfg);
        let want = drive(&mut native, &stream);

        let batch = rng.gen_range(1usize..17);
        let mut pool = ShardedEngine::new(Arc::clone(&query), cfg, 3);
        let mut got: Vec<OutputItem> = Vec::new();
        for chunk in stream.chunks(batch) {
            got.extend(
                sequin::engine::Engine::ingest_batch(&mut pool, chunk)
                    .into_iter()
                    .map(|(_, o)| o),
            );
        }
        got.extend(sequin::engine::Engine::finish(&mut pool));
        assert_eq!(got, want, "case {case}: batch={batch} query {query}");
    }
}

/// A family of 64 prefix siblings with a negated middle slot — half keyed
/// by an equality chain, so their work spreads over the workers, half not,
/// so it sits on worker 0; the negated type is broadcast — under all four
/// policies, a third of them registered mid-stream. Two workers hand their
/// outputs back per (arrival, query) for the pool to merge: item by item,
/// per-item and batched, they are the outputs of one worker.
#[test]
fn a_holding_family_on_two_workers_equals_one_item_by_item() {
    let reg = registry();
    let policies = [
        DisorderPolicy::Conservative,
        DisorderPolicy::Speculative,
        DisorderPolicy::Lazy,
        DisorderPolicy::AdaptiveSlack { accuracy: 90 },
    ];
    let sibling = |i: usize| {
        let chain = ["", "a.tag == b.tag AND b.tag == c.tag AND "][i % 2];
        let (floor, window) = (i % 5, 30 + 5 * (i / 10));
        let text = format!(
            "PATTERN SEQ(T0 a, !T3 n, T1 b, T2 c) WHERE {chain}c.x >= {floor} WITHIN {window}"
        );
        (parse(&text, &reg).unwrap(), policies[(i / 2) % 4])
    };
    let family: Vec<_> = (0..64).map(sibling).collect();

    let mut rng = Rng::seed_from_u64(0x5EED_0015);
    let raw: Vec<(u8, u8, u8, u8)> = (0..600)
        .map(|_| {
            (
                rng.gen_range(0u8..4),
                rng.gen_range(1u8..4),
                rng.gen_range(0u8..5),
                rng.gen_range(0u8..3),
            )
        })
        .collect();
    let stream = delay_shuffle(&build_events(&reg, &raw), 0.35, 40, 7);
    let k = measure_disorder(&stream).max_lateness.ticks().max(1);
    let cfg = EngineConfig::with_k(Duration::new(k));

    for batch in [1usize, 17] {
        let host = |shards| MultiEngine::new(EngineStrategy::Native, cfg, shards);
        let (mut one, mut two) = (host(1), host(2));
        let (mut outputs, mut ids) = (0, Vec::new());
        for (ix, chunk) in stream.chunks(batch).enumerate() {
            let joining = match ix * batch {
                0 => &family[..40],
                at if (300..300 + batch).contains(&at) => &family[40..],
                _ => &[],
            };
            for (q, policy) in joining {
                one.register(Arc::clone(q), *policy);
                ids.push(two.register(Arc::clone(q), *policy));
            }
            let want = one.ingest_batch(chunk);
            outputs += want.iter().map(Vec::len).sum::<usize>();
            assert_eq!(two.ingest_batch(chunk), want, "batch {ix} of {batch}");
        }
        assert_eq!(two.finish(), one.finish(), "finish, batches of {batch}");
        assert_eq!(one.plan_metrics().epochs, 4, "two batches, two classes");
        assert!(outputs > 1000, "the family fires: {outputs}");
        let spread = two.per_shard_stats(ids[1]);
        assert!(
            spread.iter().all(|s| s.insertions > 0),
            "keyed work spreads"
        );
    }
}

/// The banded family of `tests/logical_counts.rs`, its second part
/// registered mid-stream, beside a keyed query so both workers hold
/// instances: on two workers, item by item, the outputs of one, and every
/// query's counters too — each worker counts once per node of its own
/// slice, and the pool's sum is one worker's count.
#[test]
fn a_banded_family_on_two_workers_equals_one_with_its_counters() {
    let w = Synthetic::new(SyntheticConfig {
        num_types: 16,
        ..SyntheticConfig::default()
    });
    let stream = delay_shuffle(&w.generate(8000, 42), 0.3, 100, 43);
    let mut texts = common::banded_family();
    texts.push(
        "PATTERN SEQ(T0 a, T1 b, T2 c) WHERE a.tag == b.tag AND b.tag == c.tag WITHIN 100".into(),
    );
    let parsed = |t: &String| parse(t, w.registry()).unwrap();
    let queries: Vec<_> = texts.iter().map(parsed).collect();
    let cfg = EngineConfig::with_k(Duration::new(100));
    let host = |shards| MultiEngine::new(EngineStrategy::Native, cfg, shards);
    let (mut one, mut two) = (host(1), host(2));
    let (mut outputs, mut ids) = (0, Vec::new());
    for (ix, chunk) in stream.chunks(17).enumerate() {
        let joining = match ix {
            0 => &queries[..40],
            150 => &queries[40..],
            _ => &[],
        };
        for q in joining {
            one.register(Arc::clone(q), cfg.policy);
            ids.push(two.register(Arc::clone(q), cfg.policy));
        }
        let want = one.ingest_batch(chunk);
        outputs += want.iter().map(Vec::len).sum::<usize>();
        assert_eq!(two.ingest_batch(chunk), want, "batch {ix}");
    }
    assert_eq!(two.finish(), one.finish(), "finish");
    assert!(outputs > 1000, "the family fires: {outputs}");
    let mut stats = two.stats();
    stats.iter_mut().for_each(|s| s.merge_buffer_peak = 0);
    assert_eq!(stats, one.stats());
    let keyed = two.per_shard_stats(*ids.last().expect("registered"));
    assert!(keyed.iter().all(|s| s.insertions > 0), "keyed work spreads");
}

/// Adversarial key skew: a prefix in which *every* event carries the
/// same partition key (so the router must funnel the whole stream to
/// one worker) followed by a uniformly keyed suffix. Output must stay
/// byte-identical to the single-threaded engine at every shard count
/// under both disorder policies, per-item and batched.
#[test]
fn routed_ingestion_survives_adversarial_key_skew() {
    let reg = registry();
    const Q: &str =
        "PATTERN SEQ(T0 a, T1 b, T2 c) WHERE a.tag == b.tag AND b.tag == c.tag WITHIN 60";
    for case in 0..8u64 {
        let mut rng = Rng::seed_from_u64(0x5EED_0014 + case);
        let hot = rng.gen_range(0u8..3);
        let skewed: Vec<(u8, u8, u8, u8)> = (0..50)
            .map(|_| {
                (
                    rng.gen_range(0u8..3),
                    rng.gen_range(1u8..4),
                    rng.gen_range(0u8..5),
                    hot,
                )
            })
            .collect();
        let uniform: Vec<(u8, u8, u8, u8)> = (0..50)
            .map(|_| {
                (
                    rng.gen_range(0u8..3),
                    rng.gen_range(1u8..4),
                    rng.gen_range(0u8..5),
                    rng.gen_range(0u8..3),
                )
            })
            .collect();
        let raw: Vec<_> = skewed.iter().chain(&uniform).copied().collect();
        let events = build_events(&reg, &raw);
        let query = parse(Q, &reg).unwrap();
        let stream = delay_shuffle(&events, 0.35, 50, rng.gen_range(0u64..1000));
        let k = measure_disorder(&stream).max_lateness.ticks().max(1);

        for policy in [DisorderPolicy::Conservative, DisorderPolicy::Speculative] {
            let mut cfg = EngineConfig::with_k(Duration::new(k));
            cfg.policy = policy;

            let mut native = NativeEngine::new(Arc::clone(&query), cfg);
            let want: Vec<OutputItem> = drive(&mut native, &stream);

            for shards in [2usize, 4, 7] {
                let mut pool = ShardedEngine::new(Arc::clone(&query), cfg, shards);
                let got = drive(&mut pool, &stream);
                assert_eq!(got, want, "case {case}: shards={shards} policy={policy:?}");

                let mut pool = ShardedEngine::new(Arc::clone(&query), cfg, shards);
                let mut got: Vec<OutputItem> = Vec::new();
                for chunk in stream.chunks(13) {
                    got.extend(
                        sequin::engine::Engine::ingest_batch(&mut pool, chunk)
                            .into_iter()
                            .map(|(_, o)| o),
                    );
                }
                got.extend(sequin::engine::Engine::finish(&mut pool));
                assert_eq!(
                    got, want,
                    "case {case}: batched shards={shards} policy={policy:?}"
                );
            }
        }
    }
}

/// Routing accounting under total skew: with one hot key and no
/// negation, every keyed event must land fully on exactly one shard,
/// every other shard sees only watermark advances, and nothing is
/// broadcast — i.e. the router does not silently fall back to fan-out.
#[test]
fn single_hot_key_routes_every_event_to_one_shard() {
    let reg = registry();
    let query = parse(
        "PATTERN SEQ(T0 a, T1 b, T2 c) WHERE a.tag == b.tag AND b.tag == c.tag WITHIN 60",
        &reg,
    )
    .unwrap();
    let mut rng = Rng::seed_from_u64(0x5EED_0015);
    let raw: Vec<(u8, u8, u8, u8)> = (0..64)
        .map(|_| {
            (
                rng.gen_range(0u8..3),
                rng.gen_range(1u8..4),
                rng.gen_range(0u8..5),
                7,
            )
        })
        .collect();
    let events = build_events(&reg, &raw);
    let stream = delay_shuffle(&events, 0.3, 40, 99);
    let k = measure_disorder(&stream).max_lateness.ticks().max(1);

    const SHARDS: usize = 4;
    let mut pool = ShardedEngine::new(
        Arc::clone(&query),
        EngineConfig::with_k(Duration::new(k)),
        SHARDS,
    );
    let _ = drive(&mut pool, &stream);

    let rs = pool.route_stats();
    let total = raw.len() as u64;
    assert_eq!(rs.broadcast_events, 0, "no negation, no broadcast");
    let owners: Vec<usize> = (0..SHARDS).filter(|&i| rs.full_events[i] > 0).collect();
    assert_eq!(owners.len(), 1, "one hot key concentrates on one shard");
    assert_eq!(rs.full_events[owners[0]], total);
    for i in 0..SHARDS {
        assert_eq!(
            rs.full_events[i] + rs.advances[i],
            total,
            "shard {i}: every event arrives exactly once (full or advance)"
        );
    }
}

/// Negation-flank broadcast: every event of a negated type must reach
/// *every* shard exactly once as a full event (any shard might host a
/// partial match the flank invalidates), and each worker's negative
/// index must end up identical to the single-shard engine's.
#[test]
fn negation_flank_broadcast_reaches_every_shard_exactly_once() {
    let reg = registry();
    const Q: &str = "PATTERN SEQ(T0 a, !T1 n, T2 c) WHERE a.tag == c.tag WITHIN 30";
    for case in 0..8u64 {
        let mut rng = Rng::seed_from_u64(0x5EED_0016 + case);
        let raw: Vec<(u8, u8, u8, u8)> = (0..48)
            .map(|_| {
                (
                    rng.gen_range(0u8..3),
                    rng.gen_range(1u8..4),
                    rng.gen_range(0u8..5),
                    rng.gen_range(0u8..3),
                )
            })
            .collect();
        let flank = raw.iter().filter(|r| r.0 == 1).count() as u64;
        let events = build_events(&reg, &raw);
        let query = parse(Q, &reg).unwrap();
        let stream = delay_shuffle(&events, 0.3, 40, rng.gen_range(0u64..1000));
        let k = measure_disorder(&stream).max_lateness.ticks().max(1);
        let cfg = EngineConfig::with_k(Duration::new(k));

        let mut native = NativeEngine::new(Arc::clone(&query), cfg);
        let want = drive(&mut native, &stream);

        for shards in [2usize, 5] {
            let mut pool = ShardedEngine::new(Arc::clone(&query), cfg, shards);
            let got = drive(&mut pool, &stream);
            assert_eq!(got, want, "case {case}: shards={shards}");

            let rs = pool.route_stats();
            assert_eq!(
                rs.broadcast_events, flank,
                "case {case}: shards={shards}: each flank event broadcast once"
            );
            for i in 0..shards {
                assert_eq!(
                    rs.full_events[i] + rs.advances[i],
                    raw.len() as u64,
                    "case {case}: shard {i}: exactly one message per event"
                );
                assert!(
                    rs.full_events[i] >= flank,
                    "case {case}: shard {i}: received every flank event in full"
                );
            }
            let lens = pool.worker_negative_lens();
            assert!(
                lens.iter().all(|&l| l == native.negative_index_len()),
                "case {case}: shards={shards}: negative indexes diverge \
                 ({lens:?} vs native {})",
                native.negative_index_len()
            );
        }
    }
}

fn net(out: &[(sequin::engine::QueryId, OutputItem)]) -> Vec<(usize, bool, Vec<u64>)> {
    let mut v: Vec<(usize, bool, Vec<u64>)> = out
        .iter()
        .map(|(q, o)| {
            (
                q.index(),
                o.kind == sequin::engine::OutputKind::Insert,
                o.m.events().iter().map(|e| e.id().get()).collect(),
            )
        })
        .collect();
    v.sort();
    v
}

#[test]
fn checkpoint_on_two_shards_resumes_on_four_exactly_once() {
    let reg = Arc::new(registry());
    const Q_PART: &str =
        "PATTERN SEQ(T0 a, T1 b, T2 c) WHERE a.tag == b.tag AND b.tag == c.tag WITHIN 60";
    const Q_NEG: &str = "PATTERN SEQ(T0 a, !T1 n, T2 c) WITHIN 30";

    for case in 0..8u64 {
        let mut rng = Rng::seed_from_u64(0x5EED_0013 + case);
        let raw: Vec<(u8, u8, u8, u8)> = (0..120)
            .map(|_| {
                (
                    rng.gen_range(0u8..4),
                    rng.gen_range(1u8..4),
                    rng.gen_range(0u8..5),
                    rng.gen_range(0u8..3),
                )
            })
            .collect();
        let events = build_events(&reg, &raw);
        let stream: Vec<StreamItem> = delay_shuffle(&events, 0.3, 40, rng.gen_range(0u64..1000));
        let k = measure_disorder(&stream).max_lateness.ticks().max(1);
        let mk_cfg = |shards: usize, every: Option<u64>| {
            let mut cfg = CoreConfig::new(
                Arc::clone(&reg),
                EngineStrategy::Native,
                EngineConfig::with_k(Duration::new(k)),
            );
            cfg.checkpoint_every = every;
            cfg.shards = shards;
            cfg
        };

        // oracle: one uninterrupted, single-threaded, volatile run
        let mut oracle = EngineCore::new(mk_cfg(1, None));
        oracle.subscribe(Q_PART).unwrap();
        oracle.subscribe(Q_NEG).unwrap();
        let mut baseline = oracle.ingest_batch(&stream);
        baseline.extend(oracle.finish());

        // durable run on 2 shards, killed mid-stream
        let cut = rng.gen_range(40usize..stream.len());
        let mut core = EngineCore::new(mk_cfg(2, Some(25)));
        core.subscribe(Q_PART).unwrap();
        core.subscribe(Q_NEG).unwrap();
        let mut delivered = core.ingest_batch(&stream[..cut]);
        let saved = core.store().clone();
        drop(core); // crash

        // resume on 4 shards: the snapshot is shard-count-agnostic
        let (mut core, replay_from) = EngineCore::resume(mk_cfg(4, Some(25)), saved);
        assert!(replay_from > 0, "case {case}: a checkpoint was accepted");
        assert_eq!(core.query_count(), 2, "case {case}");
        delivered.extend(core.ingest_batch(&stream[replay_from as usize..]));
        delivered.extend(core.finish());

        assert_eq!(net(&delivered), net(&baseline), "case {case}");
        assert_eq!(core.pending_suppressions(), 0, "case {case}");
    }
}
