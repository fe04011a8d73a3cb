//! Stock-tick monitoring: immediate signals, speculative retraction, and
//! punctuation-sealed conservative alerts.
//!
//! A momentum desk wants signals with minimal delay. Four queries show
//! the disorder-policy spectrum:
//!
//! 1. rising-price streaks (no negation) — fired the instant the third
//!    tick arrives, even when ticks arrive out of order;
//! 2. uncorrected spikes (trailing negation), **speculative**: fired
//!    optimistically, retracted when a late correction tick lands;
//! 3. the same spikes, **conservative** with punctuation-driven sealing:
//!    only confirmed alerts, a little later;
//! 4. the same spikes, **adaptive slack**: the engine learns a lateness
//!    bound from the stream and holds alerts only that long.
//!
//! ```sh
//! cargo run --example stock_monitoring
//! ```

use sequin::engine::{DisorderPolicy, EngineConfig, NativeEngine, OutputKind, WatermarkSource};
use sequin::netsim::{delay_shuffle, punctuate};
use sequin::types::Duration;
use sequin::workload::Stock;

fn main() {
    let market = Stock::new();
    let ticks = market.generate(30_000, 8, 11);
    let stream = delay_shuffle(&ticks, 0.1, 40, 3);
    println!(
        "streaming {} ticks over 8 symbols (10% late, delay <= 40)\n",
        ticks.len()
    );

    // --- 1. rising streaks: negation-free, zero-latency emission ---------
    let rising = market.rising_query(20);
    let mut engine = NativeEngine::new(rising, EngineConfig::with_k(Duration::new(40)));
    let mut signals = 0usize;
    for item in &stream {
        signals += engine.ingest(item).len();
    }
    signals += engine.finish().len();
    println!("rising-streak signals: {signals} (all emitted at completion, no delay)");

    // --- 2. uncorrected spikes, speculative: emit now, retract if wrong --
    let spike = market.uncorrected_spike_query(30);
    let mut cfg = EngineConfig::with_k(Duration::new(40));
    cfg.policy = DisorderPolicy::Speculative;
    let mut engine = NativeEngine::new(spike.clone(), cfg);
    let (mut fired, mut retracted) = (0usize, 0usize);
    for item in &stream {
        for out in engine.ingest(item) {
            match out.kind {
                OutputKind::Insert => fired += 1,
                OutputKind::Retract => retracted += 1,
            }
        }
    }
    for out in engine.finish() {
        if out.kind == OutputKind::Insert {
            fired += 1;
        }
    }
    println!(
        "spike alerts (speculative):  {fired} fired immediately, {retracted} retracted \
         by late corrections, {} stand",
        fired - retracted
    );

    // --- 3. same spikes, conservative + punctuations ----------------------
    let punctuated = punctuate(&stream, 500);
    let mut cfg = EngineConfig::with_k(Duration::new(40));
    cfg.policy = DisorderPolicy::Conservative;
    cfg.watermark = WatermarkSource::Both;
    let mut engine = NativeEngine::new(spike.clone(), cfg);
    let mut alerts = 0usize;
    let mut held = 0u64;
    let mut emitted = 0u64;
    for item in &punctuated {
        for out in engine.ingest(item) {
            alerts += 1;
            held += out.arrival_latency();
            emitted += 1;
        }
    }
    alerts += engine.finish().len();
    let mean_hold = if emitted == 0 {
        0.0
    } else {
        held as f64 / emitted as f64
    };
    println!(
        "spike alerts (conservative): {alerts} confirmed alerts, held {mean_hold:.1} \
         arrivals on average until their negation region sealed"
    );

    // --- 4. same spikes, adaptive slack: learn the lateness bound ---------
    let mut cfg = EngineConfig::with_k(Duration::new(40));
    cfg.policy = DisorderPolicy::AdaptiveSlack { accuracy: 90 };
    let mut engine = NativeEngine::new(spike, cfg);
    let mut alerts = 0usize;
    for item in &stream {
        alerts += engine.ingest(item).len();
    }
    alerts += engine.finish().len();
    println!(
        "spike alerts (adaptive):     {alerts} alerts held behind a learned slack \
         bound of {} ticks",
        engine.k_hat().ticks()
    );
    println!(
        "\nengine state stayed at {} events ({} purge passes)",
        engine.state_size(),
        engine.stats().purge_runs
    );
}
