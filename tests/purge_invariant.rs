//! Purge-invariant property test (tier 1).
//!
//! Under eager purging, after every ingested item no positive-stack entry
//! older than `watermark − window` may survive — in the single-threaded
//! [`NativeEngine`] or in any worker of a [`ShardedEngine`] pool. The
//! streams come from the simulation generator, so they carry disorder,
//! duplicates and punctuations; the differential harness proves outputs,
//! this test proves the *state bound* the paper's purge rules promise.

use std::collections::BTreeMap;
use std::sync::Arc;

use sequin::engine::{DisorderPolicy, Engine, EngineConfig, NativeEngine, ShardedEngine};
use sequin::netsim::delay_shuffle;
use sequin::sim::case::{sim_registry, CaseData};
use sequin::sim::diff::{engine_config, Sabotage};
use sequin::types::Duration;
use sequin::workload::{Synthetic, SyntheticConfig};
use sequin_runtime::purge::PurgePolicy;

/// `oldest >= watermark − window`, in saturating tick arithmetic.
fn within_horizon(oldest: u64, watermark: u64, window: u64) -> bool {
    oldest + window >= watermark
}

#[test]
fn native_engine_never_holds_state_past_the_horizon() {
    let registry = sim_registry();
    let mut nonvacuous = 0u32;
    for seed in 0..60u64 {
        let mut case = CaseData::generate(0xBEEF, seed);
        case.config.purge_every = Some(1); // eager: the bound must hold per item
        let query = case.queries[0]
            .plan
            .build(&registry)
            .expect("generated queries are valid");
        let mut cfg = engine_config(&case, Sabotage::default());
        cfg.purge = PurgePolicy::EAGER;
        let window = query.window().ticks();
        let mut engine = NativeEngine::new(Arc::clone(&query), cfg);
        for (ix, item) in case.stream(&registry).iter().enumerate() {
            engine.ingest(item);
            let wm = engine.watermark().ticks();
            if let Some(oldest) = engine.oldest_stack_ts() {
                if wm > window {
                    nonvacuous += 1;
                }
                assert!(
                    within_horizon(oldest.ticks(), wm, window),
                    "seed {seed} item {ix}: stack entry at {} survived \
                     watermark {wm} − window {window}",
                    oldest.ticks()
                );
            }
        }
    }
    assert!(
        nonvacuous > 100,
        "the horizon was binding only {nonvacuous} times; generator drifted?"
    );
}

#[test]
fn every_sharded_worker_honors_the_horizon() {
    let registry = sim_registry();
    let mut nonvacuous = 0u32;
    for seed in 0..30u64 {
        let mut case = CaseData::generate(0xFACE, seed);
        case.config.purge_every = Some(1);
        let query = case.queries[0]
            .plan
            .build(&registry)
            .expect("generated queries are valid");
        let mut cfg = engine_config(&case, Sabotage::default());
        cfg.purge = PurgePolicy::EAGER;
        let window = query.window().ticks();
        for shards in [2usize, 5] {
            let mut pool = ShardedEngine::new(Arc::clone(&query), cfg, shards);
            for (ix, item) in case.stream(&registry).iter().enumerate() {
                pool.ingest(item);
                let wm = pool.watermark().map_or(0, |w| w.ticks());
                for (worker, oldest) in pool.worker_oldest_stack_ts().iter().enumerate() {
                    let Some(oldest) = oldest else { continue };
                    if wm > window {
                        nonvacuous += 1;
                    }
                    assert!(
                        within_horizon(oldest.ticks(), wm, window),
                        "seed {seed} shards {shards} worker {worker} item {ix}: \
                         entry at {} survived watermark {wm} − window {window}",
                        oldest.ticks()
                    );
                }
            }
        }
    }
    assert!(
        nonvacuous > 100,
        "the horizon was binding only {nonvacuous} times; generator drifted?"
    );
}

/// The sabotage knob this invariant exists to catch: skewing the purge
/// horizon by one tick must produce a stack entry (or an output) the
/// honest engine would not have — i.e. the property above is tight.
#[test]
fn skewed_purge_horizon_changes_behavior() {
    let registry = sim_registry();
    let mut diverged = false;
    for seed in 0..80u64 {
        let mut case = CaseData::generate(0xD00F, seed);
        case.config.purge_every = Some(1);
        let query = case.queries[0]
            .plan
            .build(&registry)
            .expect("generated queries are valid");
        let honest_cfg = {
            let mut c = engine_config(&case, Sabotage::default());
            c.purge = PurgePolicy::EAGER;
            c
        };
        let skewed_cfg = {
            let mut c = engine_config(&case, Sabotage::purge_skew(1));
            c.purge = PurgePolicy::EAGER;
            c
        };
        let mut honest = NativeEngine::new(Arc::clone(&query), honest_cfg);
        let mut skewed = NativeEngine::new(Arc::clone(&query), skewed_cfg);
        let mut honest_out = Vec::new();
        let mut skewed_out = Vec::new();
        for item in case.stream(&registry) {
            honest_out.extend(honest.ingest(&item));
            skewed_out.extend(skewed.ingest(&item));
            if honest.oldest_stack_ts() != skewed.oldest_stack_ts() {
                diverged = true;
            }
        }
        honest_out.extend(honest.finish());
        skewed_out.extend(skewed.finish());
        if honest_out.len() != skewed_out.len() {
            diverged = true;
        }
    }
    assert!(
        diverged,
        "a one-tick purge skew was invisible across 80 cases"
    );
}

/// Regression for the shrinking-adaptive-bound purge edge: a disorder
/// burst grows the AdaptiveSlack bound `K̂`, then a long in-order run
/// decays it back down. The instantaneous `clock − K̂(t)` jumps *forward*
/// at the shrink, so a purge keyed on it could evict state that was
/// admitted under the larger bound but whose matches have not settled.
/// The engine must instead derive every purge threshold from the
/// published running-max watermark — verified here by demanding the
/// eagerly-purging engine's settled output equals a never-purging one's
/// on the identical stream, and that the watermark never retreats while
/// the bound demonstrably shrinks.
#[test]
fn shrinking_adaptive_bound_never_evicts_unsettled_state() {
    let w = Synthetic::new(SyntheticConfig {
        num_types: 3,
        tag_cardinality: 4,
        value_range: 10,
        mean_gap: 3,
    });
    for seed in [61u64, 62] {
        let events = w.generate(2_000, seed);
        let query = w.negation_query(60);
        // phase 1: heavy disorder (grows K̂); phase 2: a long in-order run
        // (sketch decay shrinks K̂ again)
        let mut stream = delay_shuffle(&events[..400], 0.5, 300, seed ^ 0x77);
        stream.extend(delay_shuffle(&events[400..], 0.0, 1, seed));

        // floor K at the generator's max delay so every arrival stays in
        // contract (the adaptive bound only ever *adds* slack on top);
        // during the burst the learned bound rises well above the floor,
        // then decays back to it — the shrink under test
        let mk = |purge: PurgePolicy| {
            let mut cfg = EngineConfig::with_k(Duration::new(300));
            cfg.policy = DisorderPolicy::AdaptiveSlack { accuracy: 100 };
            cfg.purge = purge;
            NativeEngine::new(Arc::clone(&query), cfg)
        };
        let mut eager = mk(PurgePolicy::EAGER);
        let mut unbounded = mk(PurgePolicy::NEVER);

        let mut peak_bound = 0u64;
        let mut last_wm = 0u64;
        let mut eager_out = Vec::new();
        let mut unbounded_out = Vec::new();
        for item in &stream {
            eager_out.extend(eager.ingest(item));
            unbounded_out.extend(unbounded.ingest(item));
            let bound = eager.slack_bound().expect("adaptive bound").ticks();
            peak_bound = peak_bound.max(bound);
            let wm = eager.watermark().ticks();
            assert!(wm >= last_wm, "seed {seed}: watermark retreated");
            last_wm = wm;
        }
        let final_bound = eager.slack_bound().expect("adaptive bound").ticks();
        assert!(
            final_bound < peak_bound,
            "seed {seed}: the bound never shrank (peak {peak_bound}, final \
             {final_bound}); the regression scenario did not materialize"
        );
        assert!(
            eager.stats().purge_runs > 0,
            "seed {seed}: eager engine never purged"
        );

        eager_out.extend(eager.finish());
        unbounded_out.extend(unbounded.finish());
        let settled = |out: &[sequin::engine::OutputItem]| {
            let mut net: BTreeMap<Vec<u64>, i64> = BTreeMap::new();
            for o in out {
                let k: Vec<u64> = o.m.events().iter().map(|e| e.id().get()).collect();
                *net.entry(k).or_default() += match o.kind {
                    sequin::engine::OutputKind::Insert => 1,
                    sequin::engine::OutputKind::Retract => -1,
                };
            }
            net.retain(|_, v| *v != 0);
            net
        };
        assert_eq!(
            settled(&eager_out),
            settled(&unbounded_out),
            "seed {seed}: purging under a shrinking bound changed the settled output"
        );
    }
}
