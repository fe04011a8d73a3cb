//! Real-time intrusion detection over disordered telemetry.
//!
//! Login telemetry from many collectors arrives with network jitter; the
//! signature is FAIL, FAIL, OK, PRIV_ESC for one user within a short
//! window. The example shows the latency cost of the standard K-slack
//! reorder-buffer fix versus the native engine: both are correct, but the
//! buffered engine only raises alerts after the full slack elapses.
//!
//! ```sh
//! cargo run --example intrusion_detection
//! ```

use sequin::engine::EngineConfig;
use sequin::netsim::{delay_shuffle, measure_disorder};
use sequin::types::Duration;
use sequin::workload::Intrusion;
use sequin_bench::{make_engine, run_engine, Strategy};

fn main() {
    let telemetry = Intrusion::new();
    let history = telemetry.generate(20_000, 200, 25, 99);
    println!(
        "generated {} telemetry events (25 injected attacks)",
        history.len()
    );

    // collectors add jitter: 15% of events are late by up to 120 ticks
    let stream = delay_shuffle(&history, 0.15, 120, 5);
    let disorder = measure_disorder(&stream);
    println!(
        "disorder at the SIEM: {:.1}% late, max lateness {}\n",
        disorder.late_fraction * 100.0,
        disorder.max_lateness
    );

    let query = telemetry.brute_force_query(60);
    println!("query: {query}\n");
    let k = disorder.max_lateness.ticks().max(1);

    println!(
        "{:>16}  {:>7}  {:>14}  {:>13}  {:>10}",
        "strategy", "alerts", "mean delay", "p99 delay", "ev/s"
    );
    for strategy in [Strategy::Buffered, Strategy::Native] {
        let mut engine = make_engine(
            strategy,
            query.clone(),
            EngineConfig::with_k(Duration::new(k)),
        );
        let report = run_engine(engine.as_mut(), &stream, 64);
        println!(
            "{:>16}  {:>7}  {:>10.1} evs  {:>9} evs  {:>10.0}",
            strategy.to_string(),
            report.net_matches(),
            report.arrival_latency.mean(),
            report.arrival_latency.p99(),
            report.throughput_eps,
        );
    }
    println!(
        "\nboth engines raise the same alerts; the buffered engine holds every\n\
         alert until the K={k} slack passes, the native engine fires the moment\n\
         the final event of the signature arrives."
    );
}
