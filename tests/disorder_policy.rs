//! Property tests for the per-query disorder policies (tier 1).
//!
//! Three claims from the design doc are pinned here at integration level:
//!
//! 1. **Monotonicity** — the AdaptiveSlack bound `K̂` tracks a lateness
//!    quantile, so raising the accuracy knob (which raises the tracked
//!    quantile) can only raise the learned bound on the same stream;
//! 2. **Coverage** — under stationary disorder the learned bound never
//!    falls below the stream's observed p99 lateness (the sketch reports
//!    bucket upper edges and applies a ≥1 safety factor, so it can
//!    overestimate but never understate the tracked quantile);
//! 3. **Exactly-once across a policy change** — resuming a checkpoint
//!    under a *different* disorder policy still delivers the oracle match
//!    set exactly once, including retracting speculative matches the
//!    pre-crash process emitted unsealed;
//! 4. **The latency-vs-quality axis** — on a disordered stream the
//!    speculative policy detects a negation match strictly earlier (in
//!    event-time ticks) than the conservative one, pays for it in
//!    retractions, and settles on the same matches.

mod common;

use std::collections::BTreeMap;
use std::sync::Arc;

use common::{host_of, net_keys, reference_matches, untag};
use sequin::engine::{
    CheckpointPolicy, Checkpointer, DisorderPolicy, EngineConfig, NativeEngine, OutputItem,
    OutputKind, Strategy,
};
use sequin::netsim::{delay_shuffle, measure_disorder, Crash};
use sequin::server::{CoreConfig, EngineCore};
use sequin::types::{Duration, StreamItem};
use sequin::workload::{Synthetic, SyntheticConfig};

fn synthetic() -> Synthetic {
    Synthetic::new(SyntheticConfig {
        num_types: 3,
        tag_cardinality: 4,
        value_range: 10,
        mean_gap: 3,
    })
}

/// Arrival lateness per event, mirroring the engine's definition: the
/// stream clock (max occurrence timestamp so far) minus the event's own
/// timestamp, zero for in-order arrivals.
fn lateness_samples(stream: &[StreamItem]) -> Vec<u64> {
    let mut clock = 0u64;
    let mut out = Vec::new();
    for item in stream {
        if let StreamItem::Event(e) = item {
            let ts = e.ts().ticks();
            out.push(clock.saturating_sub(ts));
            clock = clock.max(ts);
        }
    }
    out
}

fn empirical_quantile(samples: &[u64], q: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Runs the whole stream under AdaptiveSlack with the given accuracy and
/// returns the learned bound at end of stream (before the seal).
fn learned_bound(stream: &[StreamItem], accuracy: u8) -> u64 {
    let w = synthetic();
    let query = w.negation_query(40);
    let mut cfg = EngineConfig::with_k(Duration::new(1));
    cfg.policy = DisorderPolicy::AdaptiveSlack { accuracy };
    let mut engine = NativeEngine::new(query, cfg);
    for item in stream {
        engine.ingest(item);
    }
    engine.k_hat().ticks()
}

#[test]
fn adaptive_bound_is_monotone_in_the_lateness_quantile() {
    for seed in [7u64, 8, 9] {
        let w = synthetic();
        let events = w.generate(600, seed);
        let stream = delay_shuffle(&events, 0.3, 60, seed ^ 0xA5A5);
        assert!(measure_disorder(&stream).late_events > 0);

        // the accuracy knob maps monotonically onto the tracked quantile,
        // so the learned bound must be non-decreasing along it
        let bounds: Vec<u64> = [0u8, 25, 50, 75, 90, 100]
            .iter()
            .map(|&a| learned_bound(&stream, a))
            .collect();
        for pair in bounds.windows(2) {
            assert!(
                pair[0] <= pair[1],
                "seed {seed}: bound shrank along the accuracy axis: {bounds:?}"
            );
        }
        // and the axis is not vacuously flat at the floor
        assert!(
            bounds[bounds.len() - 1] > 1,
            "seed {seed}: top accuracy never left the K floor"
        );
    }
}

#[test]
fn adaptive_bound_covers_observed_p99_under_stationary_disorder() {
    for seed in [11u64, 12, 13, 14] {
        let w = synthetic();
        let events = w.generate(1_500, seed);
        // one delay distribution for the whole stream: stationary disorder
        let stream = delay_shuffle(&events, 0.25, 50, seed ^ 0x3C3C);
        let samples = lateness_samples(&stream);
        let p99 = empirical_quantile(&samples, 0.99);
        assert!(
            p99 > 0,
            "seed {seed}: disorder schedule produced no lateness"
        );

        // accuracy 90 tracks the 0.99 lateness quantile
        let bound = learned_bound(&stream, 90);
        assert!(
            bound >= p99,
            "seed {seed}: learned bound {bound} below observed p99 lateness {p99}"
        );
    }
}

/// Every `(kind, match)` pair may be delivered at most once across the
/// whole (pre ∪ post) output — the "no duplicates" half of exactly-once.
fn assert_no_duplicate_deliveries(delivered: &[OutputItem], ctx: &str) {
    let mut counts: BTreeMap<(bool, Vec<u64>), usize> = BTreeMap::new();
    for o in delivered {
        let key: Vec<u64> = o.m.events().iter().map(|e| e.id().get()).collect();
        *counts
            .entry((o.kind == OutputKind::Insert, key))
            .or_insert(0) += 1;
    }
    for ((insert, key), n) in &counts {
        assert_eq!(
            *n,
            1,
            "{ctx}: {} of match {key:?} delivered {n} times",
            if *insert { "insert" } else { "retract" }
        );
    }
}

#[test]
fn policy_change_across_checkpoint_resume_stays_exactly_once() {
    let transitions = [
        (DisorderPolicy::Conservative, DisorderPolicy::Speculative),
        (DisorderPolicy::Speculative, DisorderPolicy::Conservative),
        (DisorderPolicy::Speculative, DisorderPolicy::Lazy),
        (
            DisorderPolicy::Conservative,
            DisorderPolicy::AdaptiveSlack { accuracy: 90 },
        ),
        (
            DisorderPolicy::AdaptiveSlack { accuracy: 50 },
            DisorderPolicy::Speculative,
        ),
    ];
    for (seed, (before, after)) in [51u64, 52, 53, 54, 55].into_iter().zip(transitions) {
        let w = synthetic();
        let events = w.generate(120, seed);
        let query = w.negation_query(40);
        let oracle = reference_matches(&query, &events);
        assert!(!oracle.is_empty(), "seed {seed} must produce matches");
        let stream = delay_shuffle(&events, 0.3, 30, seed ^ 0x5A5A);
        let k = measure_disorder(&stream).max_lateness.ticks().max(1);

        let host_with = |policy: DisorderPolicy| {
            let mut cfg = EngineConfig::with_k(Duration::new(k));
            cfg.policy = policy;
            host_of(&query, cfg)
        };

        // crash at two different depths so the switch lands both before
        // and after most matches have settled
        for frac in [3u64, 2] {
            let ctx = format!("seed {seed}: {before:?} -> {after:?} at 1/{frac}");
            let crash = Crash::AfterEvents(stream.len() as u64 / frac);
            let (pre_items, crash_ix) = crash.split(&stream);

            let mut ck = Checkpointer::new(host_with(before), CheckpointPolicy::default());
            let mut delivered = Vec::new();
            for item in pre_items {
                delivered.extend(untag(ck.ingest(item)));
            }
            let saved = ck.store().clone();
            drop(ck); // the crash: only `saved` survives

            // resume the persisted state under the *other* policy
            let (mut ck, replay_from) =
                Checkpointer::resume(CheckpointPolicy::default(), saved, |_| Ok(host_with(after)));
            assert!(replay_from <= crash_ix, "{ctx}: resume skipped input");
            for item in &stream[replay_from as usize..] {
                delivered.extend(untag(ck.ingest(item)));
            }
            delivered.extend(untag(ck.finish()));

            assert_no_duplicate_deliveries(&delivered, &ctx);
            assert_eq!(
                net_keys(&delivered),
                oracle,
                "{ctx}: settled union of pre/post-crash output"
            );
        }
    }
}

/// Every output of one negation query (sealing the negated interval is
/// where conservative deferral costs latency and speculation risks
/// retractions) over a fixed-seed synthetic stream, through the server's
/// evaluation core under `policy`, K = 100.
fn policy_axis_outputs(ooo: f64, policy: DisorderPolicy) -> Vec<OutputItem> {
    let w = Synthetic::new(SyntheticConfig::default());
    let stream = delay_shuffle(&w.generate(4_000, 42), ooo, 100, 42);
    let mut engine = EngineConfig::with_k(Duration::new(100));
    engine.policy = policy;
    let mut core = EngineCore::new(CoreConfig::new(
        Arc::clone(w.registry()),
        Strategy::Native,
        engine,
    ));
    core.subscribe("PATTERN SEQ(T0 a, !T1 b, T2 c) WITHIN 100")
        .unwrap();
    let mut out = Vec::new();
    for chunk in stream.chunks(64) {
        out.extend(core.ingest_batch(chunk).into_iter().map(|(_, o)| o));
    }
    out.extend(core.finish().into_iter().map(|(_, o)| o));
    out
}

/// Median detection latency of the inserts, in event-time ticks
/// (`emit_clock - last constituent ts`): logical, so exact for a seed.
fn p50_detection_ticks(outputs: &[OutputItem]) -> u64 {
    let ticks: Vec<u64> = outputs
        .iter()
        .filter(|o| o.kind == OutputKind::Insert)
        .map(OutputItem::event_time_latency)
        .collect();
    empirical_quantile(&ticks, 0.5)
}

#[test]
fn speculation_buys_detection_latency_with_retractions() {
    let conservative = policy_axis_outputs(0.3, DisorderPolicy::Conservative);
    let speculative = policy_axis_outputs(0.3, DisorderPolicy::Speculative);
    assert!(!net_keys(&conservative).is_empty());
    assert_eq!(
        net_keys(&speculative),
        net_keys(&conservative),
        "speculation must settle on the conservative match set"
    );
    let (slow, fast) = (
        p50_detection_ticks(&conservative),
        p50_detection_ticks(&speculative),
    );
    assert!(
        fast < slow,
        "speculative p50 {fast} ticks must beat conservative p50 {slow} at 30% disorder"
    );
    let inserts = speculative
        .iter()
        .filter(|o| o.kind == OutputKind::Insert)
        .count();
    let retracts = speculative.len() - inserts;
    assert!(
        0 < retracts && retracts < inserts,
        "retraction rate must lie strictly inside (0, 1): {retracts} of {inserts}"
    );
    assert!(conservative.iter().all(|o| o.kind == OutputKind::Insert));

    // in order, speculation is free: every match is detected the tick it
    // completes and nothing is taken back, while the conservative policy
    // still waits out K before it may seal the negated interval
    let calm = policy_axis_outputs(0.0, DisorderPolicy::Speculative);
    assert!(calm.iter().all(|o| o.kind == OutputKind::Insert));
    assert_eq!(p50_detection_ticks(&calm), 0);
    let calm_conservative = policy_axis_outputs(0.0, DisorderPolicy::Conservative);
    assert_eq!(net_keys(&calm), net_keys(&calm_conservative));
    assert!(p50_detection_ticks(&calm_conservative) >= 100);
}
