//! Boundary-condition tests: extreme timestamps, tiny windows, degenerate
//! queries, watermark extremes, and parser robustness against garbage.

mod common;

use common::{drive, ev, net_keys, reference_matches, stream_of};
use sequin::engine::{EngineConfig, NativeEngine};
use sequin::prng::Rng;
use sequin::query::{parse, QueryBuilder};
use sequin::types::{Duration, StreamItem, Timestamp, TypeRegistry, ValueKind};

fn registry() -> TypeRegistry {
    let mut reg = TypeRegistry::new();
    for name in ["A", "B", "N"] {
        reg.declare(name, &[("x", ValueKind::Int)]).unwrap();
    }
    reg
}

#[test]
fn window_of_one_tick_only_adjacent_timestamps() {
    let reg = registry();
    let q = parse("PATTERN SEQ(A a, B b) WITHIN 1", &reg).unwrap();
    let events = vec![
        ev(&reg, "A", 1, 10, &[0]),
        ev(&reg, "B", 2, 11, &[0]), // span 1: ok
        ev(&reg, "B", 3, 12, &[0]), // span 2: out
    ];
    let mut engine = NativeEngine::new(q, EngineConfig::with_k(Duration::new(5)));
    let keys = net_keys(&drive(&mut engine, &stream_of(&events)));
    assert_eq!(keys.len(), 1);
    assert!(keys.contains(&vec![1, 2]));
}

#[test]
fn timestamps_near_u64_max_do_not_overflow() {
    let reg = registry();
    let q = parse("PATTERN SEQ(A a, B b) WITHIN 100", &reg).unwrap();
    let huge = u64::MAX - 50;
    let events = vec![
        ev(&reg, "A", 1, huge, &[0]),
        ev(&reg, "B", 2, huge + 10, &[0]),
    ];
    let mut engine = NativeEngine::new(q, EngineConfig::with_k(Duration::new(1_000)));
    let out = drive(&mut engine, &stream_of(&events));
    assert_eq!(out.len(), 1);
}

#[test]
fn timestamp_zero_events_are_legal() {
    let reg = registry();
    let q = parse("PATTERN SEQ(!N n, A a) WITHIN 100", &reg).unwrap();
    // leading negation region clamps at t0
    let events = vec![ev(&reg, "A", 1, 0, &[0]), ev(&reg, "A", 2, 5, &[0])];
    let oracle = reference_matches(&q, &events);
    let mut engine = NativeEngine::new(q, EngineConfig::with_k(Duration::new(10)));
    assert_eq!(net_keys(&drive(&mut engine, &stream_of(&events))), oracle);
    assert_eq!(oracle.len(), 2);
}

#[test]
fn punctuation_at_max_then_more_events() {
    let reg = registry();
    let q = parse("PATTERN SEQ(A a, B b) WITHIN 100", &reg).unwrap();
    let mut cfg = EngineConfig::with_k(Duration::new(u64::MAX / 2));
    cfg.watermark = sequin::engine::WatermarkSource::Both;
    let mut engine = NativeEngine::new(q, cfg);
    engine.ingest(&StreamItem::Punctuation(Timestamp::MAX));
    // everything after a MAX punctuation is "beyond the bound" by
    // definition; the engine must stay well-defined and count it
    engine.ingest(&StreamItem::Event(ev(&reg, "A", 1, 10, &[0])));
    engine.ingest(&StreamItem::Event(ev(&reg, "B", 2, 20, &[0])));
    assert_eq!(engine.stats().late_drops, 2);
    assert!(engine.finish().len() <= 1);
}

#[test]
fn zero_k_equals_classic_assumption() {
    // K = 0 means "input claims to be ordered": on genuinely ordered input
    // the native engine still produces the exact result
    let reg = registry();
    let q = parse("PATTERN SEQ(A a, B b) WITHIN 50", &reg).unwrap();
    let events = vec![
        ev(&reg, "A", 1, 10, &[0]),
        ev(&reg, "B", 2, 20, &[0]),
        ev(&reg, "A", 3, 30, &[0]),
        ev(&reg, "B", 4, 40, &[0]),
    ];
    let oracle = reference_matches(&q, &events);
    let mut engine = NativeEngine::new(q, EngineConfig::with_k(Duration::ZERO));
    assert_eq!(net_keys(&drive(&mut engine, &stream_of(&events))), oracle);
}

#[test]
fn single_positive_with_both_flank_negations() {
    let reg = registry();
    let q = parse("PATTERN SEQ(!N pre, A a, !N post) WITHIN 20", &reg).unwrap();
    let events = vec![
        ev(&reg, "A", 1, 100, &[0]), // clean
        ev(&reg, "N", 2, 130, &[0]), // post-noise for A@120
        ev(&reg, "A", 3, 120, &[0]), // invalidated by N@130 (region (120,141))
        ev(&reg, "A", 4, 150, &[0]), // N@130 is within [150-20,150): invalidated
        ev(&reg, "A", 5, 200, &[0]), // clean
    ];
    let oracle = reference_matches(&q, &events);
    let mut engine = NativeEngine::new(q, EngineConfig::with_k(Duration::new(50)));
    let got = net_keys(&drive(&mut engine, &stream_of(&events)));
    assert_eq!(got, oracle);
    assert_eq!(oracle.len(), 2);
}

#[test]
fn query_with_max_components_is_accepted_and_beyond_rejected() {
    let mut reg = TypeRegistry::new();
    reg.declare("A", &[]).unwrap();
    let mut builder = QueryBuilder::new();
    for i in 0..64 {
        builder = builder.component("A", &format!("v{i}"));
    }
    assert!(builder.clone().within(10).build(&reg).is_ok());
    let overflow = builder.component("A", "v64").within(10).build(&reg);
    assert!(overflow.is_err());
}

#[test]
fn engine_survives_interleaved_finish_free_streams() {
    // ingesting nothing but punctuations, then finishing twice
    let reg = registry();
    let q = parse("PATTERN SEQ(A a, !N n, B b) WITHIN 10", &reg).unwrap();
    let mut engine = NativeEngine::new(q, EngineConfig::default());
    for t in [5u64, 10, 15] {
        assert!(engine
            .ingest(&StreamItem::Punctuation(Timestamp::new(t)))
            .is_empty());
    }
    assert!(engine.finish().is_empty());
    assert!(engine.finish().is_empty(), "finish is idempotent");
    let _ = reg;
}

/// The query front-end must never panic, whatever bytes arrive.
///
/// Seeded fuzz: 256 random strings mixing query-ish tokens, printable
/// noise, and arbitrary unicode.
#[test]
fn parser_never_panics_on_garbage() {
    let reg = registry();
    const TOKENS: &[&str] = &[
        "PATTERN", "SEQ", "WHERE", "WITHIN", "RETURN", "AND", "OR", "!", "|", "(", ")", ",", ".",
        "==", "<", ">=", "+", "a", "B", "x", "3", "§", "→", "\u{0}", "\t", " ", "\"", "'",
    ];
    let mut rng = Rng::seed_from_u64(0xEDCE_CA5E);
    for case in 0..256 {
        let mut input = String::new();
        let pieces = rng.gen_range(0usize..40);
        for _ in 0..pieces {
            if rng.gen_bool(0.7) {
                input.push_str(TOKENS[rng.gen_range(0usize..TOKENS.len())]);
            } else {
                // arbitrary printable-ish char from a wide scalar range
                if let Some(c) = char::from_u32(rng.gen_range(1u32..0xD7FF)) {
                    input.push(c);
                }
            }
        }
        let _ = parse(&input, &reg); // Ok or Err, never a panic (case {case})
        let _ = case;
    }
}

/// Near-miss queries (valid skeleton, randomized pieces) also never
/// panic and produce position-carrying errors when they fail.
#[test]
fn parser_never_panics_on_near_queries() {
    let reg = registry();
    const OPS: &[&str] = &["==", "<", ">=", "+", "AND"];
    let mut rng = Rng::seed_from_u64(0xEDCE_CA5F);
    for case in 0..256 {
        let ty: String = (0..rng.gen_range(1usize..=3))
            .map(|_| rng.gen_range(b'A'..=b'Z') as char)
            .collect();
        let var: String = (0..rng.gen_range(1usize..=3))
            .map(|_| rng.gen_range(b'a'..=b'z') as char)
            .collect();
        let op = OPS[rng.gen_range(0usize..OPS.len())];
        let w = rng.gen_range(0u64..5);
        let text = format!("PATTERN SEQ({ty} {var}, B b) WHERE {var}.x {op} 3 WITHIN {w}");
        match parse(&text, &reg) {
            Ok(q) => assert_eq!(q.positive_len(), 2, "case {case}: {text}"),
            Err(e) => assert!(!e.to_string().is_empty(), "case {case}: {text}"),
        }
    }
}
