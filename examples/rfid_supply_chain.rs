//! RFID supply-chain monitoring — the paper's lead application.
//!
//! Items are SHIPPED, should be SCANNED at a checkpoint, then RECEIVED.
//! The query finds items that skipped the checkpoint (a negation pattern
//! correlated on the tag id). Reader networks deliver events out of
//! order, so the run compares the classic in-order engine against the
//! native out-of-order engine on the same disordered feed.
//!
//! ```sh
//! cargo run --example rfid_supply_chain
//! ```

use sequin::engine::EngineConfig;
use sequin::metrics::compare_outputs;
use sequin::netsim::{measure_disorder, DelayModel, Network, Source};
use sequin::types::{sort_by_timestamp, Duration, StreamItem};
use sequin::workload::Rfid;
use sequin_bench::{make_engine, run_engine, Strategy};

fn main() {
    let rfid = Rfid::new();
    let (history, truly_skipped) = rfid.generate(2_000, 0.07, 2024);
    println!(
        "generated {} supply-chain events for 2000 tagged items ({truly_skipped} skipped the checkpoint scan)",
        history.len()
    );

    // two reader gateways with different link quality feed one engine
    let mid = history.len() / 2;
    let net = Network::new(
        vec![
            Source::new(
                history[..mid].to_vec(),
                DelayModel::Uniform { lo: 0, hi: 15 },
            ),
            Source::new(
                history[mid..].to_vec(),
                DelayModel::Exponential { mean: 10.0 },
            ),
        ],
        7,
    );
    let stream = net.deliver();
    let disorder = measure_disorder(&stream);
    println!(
        "network disorder: {:.1}% late, max lateness {}, mean {:.1}\n",
        disorder.late_fraction * 100.0,
        disorder.max_lateness,
        disorder.mean_lateness
    );

    let query = rfid.skipped_scan_query(100);
    let k = disorder.max_lateness.ticks().max(1);
    let config = EngineConfig::with_k(Duration::new(k));

    // ground truth: the in-order engine over the timestamp-sorted history
    let mut sorted = history.clone();
    sort_by_timestamp(&mut sorted);
    let oracle_stream: Vec<StreamItem> = sorted.into_iter().map(StreamItem::Event).collect();
    let mut oracle_engine = make_engine(Strategy::Native, query.clone(), config);
    let oracle = run_engine(oracle_engine.as_mut(), &oracle_stream, 64);

    for strategy in [Strategy::InOrder, Strategy::Native] {
        let mut engine = make_engine(strategy, query.clone(), config);
        let report = run_engine(engine.as_mut(), &stream, 64);
        let acc = compare_outputs(&report.outputs, &oracle.outputs);
        println!(
            "{strategy:>16}: {:>4} alerts | precision {:.2} recall {:.2} | {:>7.0} ev/s | peak state {}",
            report.net_matches(),
            acc.precision(),
            acc.recall(),
            report.throughput_eps,
            report.peak_state
        );
    }
    println!(
        "\noracle (sorted feed) alerts: {}  — native matches it on the disordered feed;\n\
         the in-order engine raises wrong alerts and misses real ones.",
        oracle.net_matches()
    );
}
