//! The bounded-memory claim, asserted directly: with eager purge and a
//! disorder bound K, the native engine's live state never exceeds an
//! analytic function of (window, K, event rate) — independent of stream
//! length.

mod common;

use sequin::engine::{EngineConfig, NativeEngine};
use sequin::netsim::delay_shuffle;
use sequin::runtime::purge::PurgePolicy;
use sequin::types::{Duration, StreamItem};
use sequin::workload::{Synthetic, SyntheticConfig};

#[test]
fn state_is_bounded_by_window_plus_slack() {
    let mean_gap = 10u64;
    let w = Synthetic::new(SyntheticConfig {
        num_types: 4,
        tag_cardinality: 20,
        value_range: 50,
        mean_gap,
    });
    let window = 300u64;
    let k = 200u64;
    let events = w.generate(30_000, 99);
    let stream = delay_shuffle(&events, 0.2, k, 5);
    let query = w.seq_query(3, window);

    let mut cfg = EngineConfig::with_k(Duration::new(k));
    cfg.purge = PurgePolicy::EAGER;
    cfg.partitioned = false;
    let mut engine = NativeEngine::new(query, cfg);

    // Only events whose timestamp can still matter are retained:
    // non-final stacks keep ts >= watermark - W, the final stack keeps
    // ts >= watermark, and watermark = clock - K. With gaps averaging
    // `mean_gap` (min 1), at most ~(W + K) / 1 events *exist* in that
    // range in the worst case, but in expectation (W + K) / mean_gap.
    // Use a 4x expectation bound: far below worst case, far above noise.
    let expected_live = (window + k) as f64 / mean_gap as f64;
    let bound = (4.0 * expected_live) as usize + 16;

    let mut peak = 0usize;
    for (i, item) in stream.iter().enumerate() {
        engine.ingest(item);
        let s = engine.state_size();
        peak = peak.max(s);
        assert!(
            s <= bound,
            "state {s} exceeded bound {bound} at item {i} (stream length must not matter)"
        );
    }
    assert!(peak > 0);
}

#[test]
fn watermark_is_monotone_through_public_api() {
    let w = Synthetic::new(SyntheticConfig::default());
    let events = w.generate(5_000, 17);
    let stream = delay_shuffle(&events, 0.4, 150, 9);
    let query = w.seq_query(2, 100);
    let mut engine =
        NativeEngine::new(query, EngineConfig::with_adaptive_k(Duration::new(10), 1.5));
    let mut last = engine.watermark();
    for item in &stream {
        engine.ingest(item);
        let now = engine.watermark();
        assert!(now >= last, "watermark retreated: {last} -> {now}");
        last = now;
    }
}

#[test]
fn never_purge_grows_with_stream_length_as_contrast() {
    // sanity for the bound above: WITHOUT purge, state does scale with
    // the stream, so the bounded-state assertion is not vacuous
    let w = Synthetic::new(SyntheticConfig::default());
    let query = w.seq_query(2, 50);
    let mut cfg = EngineConfig::with_k(Duration::new(50));
    cfg.purge = PurgePolicy::NEVER;
    let mut engine = NativeEngine::new(query, cfg);
    let events = w.generate(4_000, 3);
    for e in events {
        engine.ingest(&StreamItem::Event(e));
    }
    assert!(
        engine.state_size() > 1_000,
        "unpurged state tracks the stream"
    );
}
