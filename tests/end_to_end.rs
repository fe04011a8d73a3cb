//! End-to-end scenario tests: text query → simulated network → engine →
//! projected output, for each application domain.

mod common;

use common::{drive, net_keys, reference_matches};
use sequin::engine::{EngineConfig, OutputKind};
use sequin::metrics::{compare_outputs, Histogram};
use sequin::netsim::{delay_shuffle, measure_disorder};
use sequin::types::{sort_by_timestamp, Duration, StreamItem, Value};
use sequin::workload::{Intrusion, Rfid, Stock, Synthetic, SyntheticConfig};
use sequin_bench::{make_engine, run_engine, Strategy};
use std::sync::Arc;

#[test]
fn rfid_alerts_carry_projected_tag_and_time() {
    let rfid = Rfid::new();
    let (events, skipped) = rfid.generate(300, 0.1, 77);
    // a window comfortably larger than any lifecycle keeps ground truth
    // equal to the generator's skip count
    let q = rfid.skipped_scan_query(500);
    let stream = delay_shuffle(&events, 0.3, 30, 4);
    let k = measure_disorder(&stream).max_lateness.ticks().max(1);
    let mut engine = make_engine(Strategy::Native, q, EngineConfig::with_k(Duration::new(k)));
    let outputs = drive(engine.as_mut(), &stream);
    assert_eq!(outputs.len(), skipped, "one alert per skipped item");
    for o in &outputs {
        assert_eq!(o.kind, OutputKind::Insert);
        // RETURN s.tag, r.ts
        assert_eq!(o.m.output().len(), 2);
        let tag = o.m.output()[0].as_int().expect("tag is Int");
        assert!((0..300).contains(&tag));
        let shipped = &o.m.events()[0];
        let received = &o.m.events()[1];
        assert!(shipped.ts() < received.ts());
        assert_eq!(o.m.output()[1], Value::Int(received.ts().ticks() as i64));
    }
}

#[test]
fn intrusion_alerts_fire_for_injected_attacks() {
    let telemetry = Intrusion::new();
    // few users + many attacks: alerts must exist
    let events = telemetry.generate(2_000, 50, 10, 78);
    let q = telemetry.brute_force_query(40);
    let stream = delay_shuffle(&events, 0.2, 40, 5);
    let k = measure_disorder(&stream).max_lateness.ticks().max(1);
    let mut engine = make_engine(
        Strategy::Native,
        Arc::clone(&q),
        EngineConfig::with_k(Duration::new(k)),
    );
    let outputs = drive(engine.as_mut(), &stream);
    assert!(!outputs.is_empty(), "injected attacks must be detected");
    // every alert's four events belong to one user, in timestamp order
    for o in &outputs {
        let users: Vec<i64> =
            o.m.events()
                .iter()
                .map(|e| e.attr(0).unwrap().as_int().unwrap())
                .collect();
        assert!(
            users.windows(2).all(|w| w[0] == w[1]),
            "correlated on one user"
        );
        assert!(o.m.events().windows(2).all(|w| w[0].ts() < w[1].ts()));
        let span = o.m.last_ts() - o.m.first_ts();
        assert!(span <= Duration::new(40));
    }
}

#[test]
fn stock_signals_are_strictly_rising() {
    let market = Stock::new();
    let ticks = market.generate(5_000, 4, 79);
    let q = market.rising_query(15);
    let stream = delay_shuffle(&ticks, 0.15, 20, 6);
    let k = measure_disorder(&stream).max_lateness.ticks().max(1);
    let mut engine = make_engine(Strategy::Native, q, EngineConfig::with_k(Duration::new(k)));
    let outputs = drive(engine.as_mut(), &stream);
    assert!(!outputs.is_empty());
    for o in &outputs {
        let prices: Vec<i64> =
            o.m.events()
                .iter()
                .map(|e| e.attr(1).unwrap().as_int().unwrap())
                .collect();
        assert!(
            prices.windows(2).all(|w| w[0] < w[1]),
            "prices strictly rise: {prices:?}"
        );
        let syms: Vec<i64> =
            o.m.events()
                .iter()
                .map(|e| e.attr(0).unwrap().as_int().unwrap())
                .collect();
        assert!(
            syms.windows(2).all(|w| w[0] == w[1]),
            "one symbol per signal"
        );
    }
}

#[test]
fn run_report_latency_is_zero_for_native_and_positive_for_buffered() {
    let w = Synthetic::new(SyntheticConfig::default());
    let events = w.generate(3_000, 80);
    let q = w.seq_query(2, 50);
    let stream = delay_shuffle(&events, 0.2, 30, 7);
    let k = measure_disorder(&stream).max_lateness.ticks().max(1);

    let mut native = make_engine(
        Strategy::Native,
        Arc::clone(&q),
        EngineConfig::with_k(Duration::new(k)),
    );
    let native_report = run_engine(native.as_mut(), &stream, 32);
    assert_eq!(native_report.arrival_latency.max(), 0);

    let mut buffered = make_engine(
        Strategy::Buffered,
        q,
        EngineConfig::with_k(Duration::new(k)),
    );
    let buffered_report = run_engine(buffered.as_mut(), &stream, 32);
    assert!(buffered_report.arrival_latency.mean() > 0.0);
    assert_eq!(native_report.net_matches(), buffered_report.net_matches());
}

#[test]
fn accuracy_metrics_match_reference_counts() {
    let w = Synthetic::new(SyntheticConfig {
        num_types: 3,
        tag_cardinality: 4,
        value_range: 10,
        mean_gap: 3,
    });
    let events = w.generate(120, 81);
    let q = w.seq_query(2, 30);
    let oracle_keys = reference_matches(&q, &events);

    let mut sorted = events.clone();
    sort_by_timestamp(&mut sorted);
    let sorted_stream: Vec<StreamItem> = sorted.into_iter().map(StreamItem::Event).collect();
    let mut oracle_engine = make_engine(
        Strategy::Native,
        Arc::clone(&q),
        EngineConfig::with_k(Duration::new(1)),
    );
    let oracle_outputs = drive(oracle_engine.as_mut(), &sorted_stream);
    assert_eq!(net_keys(&oracle_outputs).len(), oracle_keys.len());

    let stream = delay_shuffle(&events, 0.5, 60, 8);
    let mut broken = make_engine(Strategy::InOrder, q, EngineConfig::with_k(Duration::new(1)));
    let broken_outputs = drive(broken.as_mut(), &stream);
    let acc = compare_outputs(&broken_outputs, &oracle_outputs);
    assert_eq!(
        acc.true_positives + acc.false_negatives,
        oracle_keys.len(),
        "accuracy counts partition the oracle set"
    );
    assert_eq!(
        acc.true_positives + acc.false_positives,
        net_keys(&broken_outputs).len()
    );
}

#[test]
fn projection_defaults_to_event_ids() {
    let w = Synthetic::new(SyntheticConfig::default());
    let events = w.generate(200, 82);
    let q = w.seq_query(2, 40); // no RETURN clause
    let stream = delay_shuffle(&events, 0.1, 20, 9);
    let mut engine = make_engine(Strategy::Native, q, EngineConfig::with_k(Duration::new(20)));
    let outputs = drive(engine.as_mut(), &stream);
    for o in &outputs {
        let ids: Vec<Value> =
            o.m.events()
                .iter()
                .map(|e| Value::Int(e.id().get() as i64))
                .collect();
        assert_eq!(o.m.output(), ids.as_slice());
    }
}

#[test]
fn latency_histogram_quantiles_are_monotonic() {
    let w = Synthetic::new(SyntheticConfig::default());
    let events = w.generate(4_000, 83);
    let q = w.seq_query(2, 50);
    let stream = delay_shuffle(&events, 0.3, 100, 10);
    let mut engine = make_engine(
        Strategy::Buffered,
        q,
        EngineConfig::with_k(Duration::new(100)),
    );
    let report = run_engine(engine.as_mut(), &stream, 32);
    // quantiles take &self now (lazy sort behind a dirty flag)
    let h: &Histogram = &report.arrival_latency;
    assert!(h.p50() <= h.p95());
    assert!(h.p95() <= h.p99());
    assert!(h.p99() <= h.max());
}
