//! End-to-end observability tests: METRICS exposition over the wire, the
//! fingerprint-0 observer wildcard, fixed-seed determinism, shard
//! invariance of output-derived series, and the configured-off path.

use std::sync::Arc;

use sequin_engine::{EngineConfig, Strategy};
use sequin_netsim::delay_shuffle;
use sequin_obs::ObsConfig;
use sequin_server::{Client, CoreConfig, EngineCore, MetricsFormat, Server, ServerConfig};
use sequin_types::{Duration, StreamItem, TypeRegistry};
use sequin_workload::{Synthetic, SyntheticConfig};

const Q01: &str = "PATTERN SEQ(T0 a, T1 b) WITHIN 20";

fn workload(n: usize, seed: u64) -> (Arc<TypeRegistry>, Vec<StreamItem>) {
    let synth = Synthetic::new(SyntheticConfig::default());
    let history = synth.generate(n, seed);
    let stream = delay_shuffle(&history, 0.3, 20, seed ^ 0x5eed);
    (synth.registry().clone(), stream)
}

fn core_config(reg: &Arc<TypeRegistry>) -> CoreConfig {
    let engine = EngineConfig::with_k(Duration::new(40));
    CoreConfig::new(reg.clone(), Strategy::Native, engine)
}

/// Runs the fixed workload through an in-process core with the given
/// sharding/observability settings and a fixed chunk size, returning the
/// drained core for snapshot/trace inspection.
fn run_core(shards: usize, obs: ObsConfig) -> EngineCore {
    let (reg, stream) = workload(600, 11);
    let mut cfg = core_config(&reg);
    cfg.shards = shards;
    cfg.obs = obs;
    let mut core = EngineCore::new(cfg);
    core.subscribe(Q01).unwrap();
    for chunk in stream.chunks(64) {
        core.ingest_batch(chunk);
    }
    core.finish();
    core
}

/// Checks that every non-comment line of a Prometheus rendering has the
/// `name{labels} value` shape with a parseable numeric value.
fn assert_prometheus_parses(prom: &str) {
    for line in prom.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("no value separator in `{line}`"));
        assert!(
            value.parse::<f64>().is_ok(),
            "unparseable value in `{line}`"
        );
        let name = &series[..series.find('{').unwrap_or(series.len())];
        assert!(
            !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "bad series name in `{line}`"
        );
        if series.contains('{') {
            assert!(series.ends_with('}'), "unterminated labels in `{line}`");
        }
    }
}

#[test]
fn loopback_metrics_expose_histograms_gauges_and_traces() {
    let (reg, stream) = workload(800, 7);
    let mut server = Server::start(ServerConfig::new(core_config(&reg))).unwrap();
    let addr = server.listen("127.0.0.1:0").unwrap().to_string();

    let mut feeder = Client::connect(&addr).unwrap();
    feeder.hello(reg.fingerprint(), "obs-feeder").unwrap();
    feeder.subscribe(Q01).unwrap();
    for item in &stream {
        feeder.send_item(item).unwrap();
    }
    feeder.drain().unwrap();

    // a monitoring-only client: fingerprint 0 is the observer wildcard,
    // so it needs no schema knowledge to scrape (its METRICS round-trips
    // through the engine queue, i.e. it observes the drain above)
    let mut watcher = Client::connect(&addr).unwrap();
    watcher.hello(0, "obs-watcher").unwrap();

    let prom = watcher.metrics(MetricsFormat::Prometheus).unwrap();
    for needle in [
        "# TYPE sequin_detection_latency histogram",
        "sequin_detection_latency_bucket{",
        "sequin_detection_latency_sum{",
        "sequin_deferral_time_bucket{",
        "sequin_watermark_lag{",
        "sequin_watermark{",
        "sequin_stream_clock{",
        "sequin_outputs_emitted{",
        "sequin_engine_insertions{",
        "sequin_engine_purged_total",
        "sequin_engine_state_size{",
        "sequin_partition_keys{",
        "sequin_purge_reclaimed_bytes{",
        "sequin_ingest_position",
        "sequin_trace_spans_recorded",
        "sequin_server_queue_depth",
        "sequin_server_events_ingested",
    ] {
        assert!(prom.contains(needle), "missing `{needle}` in:\n{prom}");
    }
    assert_prometheus_parses(&prom);

    let json = watcher.metrics(MetricsFormat::Json).unwrap();
    assert!(json.contains("\"sequin_detection_latency\""), "{json}");
    assert!(json.contains("\"histogram\""), "{json}");
    assert!(json.contains("\"sequin_server_queue_depth\""), "{json}");

    let trace = watcher.metrics(MetricsFormat::TraceJson).unwrap();
    assert!(trace.contains("\"spans\":["), "{trace}");
    for kind in ["ingest", "route", "stack_insert", "construct", "emit"] {
        assert!(trace.contains(&format!("\"kind\":\"{kind}\"")), "{trace}");
    }
    // emit spans carry event-id provenance
    assert!(trace.contains("\"events\":["), "{trace}");

    watcher.bye();
    feeder.bye();
    server.shutdown();
}

#[test]
fn observer_wildcard_skips_schema_negotiation_but_mismatch_is_refused() {
    let (reg, _) = workload(10, 1);
    let mut server = Server::start(ServerConfig::new(core_config(&reg))).unwrap();
    let addr = server.listen("127.0.0.1:0").unwrap().to_string();

    // a genuinely wrong (nonzero) fingerprint is still a schema mismatch
    let mut wrong = reg.fingerprint() ^ 0xdead_beef;
    if wrong == 0 {
        wrong = 1;
    }
    let mut bad = Client::connect(&addr).unwrap();
    assert!(bad.hello(wrong, "imposter").is_err());

    let mut obs = Client::connect(&addr).unwrap();
    obs.hello(0, "watcher").unwrap();
    let body = obs.metrics(MetricsFormat::Json).unwrap();
    assert!(body.contains("sequin_ingest_position"), "{body}");
    obs.bye();
    server.shutdown();
}

#[test]
fn fixed_seed_snapshots_are_byte_identical() {
    let a = run_core(1, ObsConfig::default());
    let b = run_core(1, ObsConfig::default());
    assert_eq!(
        a.metrics_snapshot(None).to_prometheus(),
        b.metrics_snapshot(None).to_prometheus()
    );
    assert_eq!(
        a.metrics_snapshot(None).to_json(),
        b.metrics_snapshot(None).to_json()
    );
    assert_eq!(a.trace_json(), b.trace_json());
}

/// The series derived purely from the output stream (latency histograms,
/// emit counts) and from the lockstep watermark must not depend on how
/// many worker shards evaluated the query, because sharded output is
/// byte-identical to single-shard output. Operator counters (insertions,
/// dfs steps, purge runs) legitimately differ per shard layout and are
/// not compared.
#[test]
fn output_derived_series_are_shard_invariant() {
    let shard_free = |prom: &str| -> String {
        prom.lines()
            .filter(|l| {
                [
                    "sequin_detection_latency",
                    "sequin_deferral_time",
                    "sequin_outputs_emitted",
                    "sequin_outputs_retracted",
                    "sequin_stream_clock",
                    "sequin_watermark",
                ]
                .iter()
                .any(|p| l.contains(p))
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    let one = shard_free(
        &run_core(1, ObsConfig::default())
            .metrics_snapshot(None)
            .to_prometheus(),
    );
    let four = shard_free(
        &run_core(4, ObsConfig::default())
            .metrics_snapshot(None)
            .to_prometheus(),
    );
    assert!(
        one.contains("sequin_detection_latency_bucket"),
        "filter selected nothing:\n{one}"
    );
    assert_eq!(one, four, "output-derived series diverged across shards");
}

#[test]
fn disabled_obs_drops_recorder_series_but_keeps_operator_counters() {
    let core = run_core(1, ObsConfig::disabled());
    assert!(!core.obs_enabled());
    let prom = core.metrics_snapshot(None).to_prometheus();
    assert!(!prom.contains("sequin_detection_latency"), "{prom}");
    assert!(!prom.contains("sequin_deferral_time"), "{prom}");
    assert!(!prom.contains("sequin_trace_spans"), "{prom}");
    // the always-on operator counters and gauges still expose
    assert!(prom.contains("sequin_engine_insertions{"), "{prom}");
    assert!(prom.contains("sequin_watermark_lag{"), "{prom}");
    assert_prometheus_parses(&prom);
    // and the trace ring is empty
    assert!(
        core.trace_json().contains("\"spans\":[]"),
        "{}",
        core.trace_json()
    );
}

#[test]
fn sharded_server_serves_shard_labelled_series() {
    let (reg, stream) = workload(400, 3);
    let mut cfg = core_config(&reg);
    cfg.shards = 3;
    let mut server = Server::start(ServerConfig::new(cfg)).unwrap();
    let addr = server.listen("127.0.0.1:0").unwrap().to_string();

    let mut client = Client::connect(&addr).unwrap();
    client.hello(reg.fingerprint(), "shard-feeder").unwrap();
    // one with a key to spread (tag equality chain) and one without: the
    // plan holding both runs on all three workers, behind one router
    client
        .subscribe("PATTERN SEQ(T0 a, T1 b) WHERE a.tag == b.tag WITHIN 20")
        .unwrap();
    client
        .subscribe("PATTERN SEQ(T0 a, T2 c) WITHIN 20")
        .unwrap();
    for item in &stream {
        client.send_item(item).unwrap();
    }
    client.drain().unwrap();
    let prom = client.metrics(MetricsFormat::Prometheus).unwrap();
    let count = |needle: &str| prom.lines().filter(|l| l.starts_with(needle)).count();
    for shard in 0..3 {
        // worker counters stay per (query, shard) — an unkeyed query's
        // work visibly sits on worker 0...
        for query in 0..2 {
            let series = format!("sequin_shard_insertions{{query=\"{query}\",shard=\"{shard}\"}}");
            assert_eq!(count(&series), 1, "`{series}` in:\n{prom}");
        }
        let idle = format!("sequin_shard_insertions{{query=\"1\",shard=\"{shard}\"}} 0");
        assert_eq!(count(&idle), usize::from(shard > 0), "`{idle}` in:\n{prom}");
        // ...and ingest-edge routing telemetry is per shard, once for the
        // host whatever the query count
        for name in ["sequin_route_full_events", "sequin_route_advances"] {
            let series = format!("{name}{{shard=\"{shard}\"}}");
            assert_eq!(count(&series), 1, "`{series}` in:\n{prom}");
        }
    }
    for name in [
        "sequin_route_broadcast_events",
        "sequin_route_punctuations",
        "sequin_route_queue_depth_peak",
    ] {
        assert_eq!(count(&format!("{name} ")), 1, "`{name}` in:\n{prom}");
    }
    assert_prometheus_parses(&prom);
    client.bye();
    server.shutdown();
}

/// Pins the disorder-policy metric names: `sequin_retraction_emitted`
/// (per query, plus `sequin_retraction_emitted_total`) and
/// `sequin_slack_bound`. Dashboards key on these exact strings —
/// renaming one is a breaking change, not cosmetics.
#[test]
fn retraction_and_slack_bound_series_are_pinned() {
    use sequin_engine::DisorderPolicy;
    let (reg, stream) = workload(800, 13);
    let mut cfg = core_config(&reg);
    cfg.engine.policy = DisorderPolicy::Speculative;
    let mut core = EngineCore::new(cfg);
    let spec = core
        .subscribe("PATTERN SEQ(T0 a, !T1 b, T2 c) WITHIN 20")
        .unwrap();
    let (adaptive, effective) = core
        .subscribe_with_policy(
            "PATTERN SEQ(T1 a, T2 b) WITHIN 20",
            Some(DisorderPolicy::AdaptiveSlack { accuracy: 90 }),
        )
        .unwrap();
    assert_eq!(effective, DisorderPolicy::AdaptiveSlack { accuracy: 90 });
    for chunk in stream.chunks(64) {
        core.ingest_batch(chunk);
    }
    core.finish();
    let prom = core.metrics_snapshot(None).to_prometheus();
    for needle in [
        "sequin_retraction_emitted{",
        "sequin_retraction_emitted_total",
        "sequin_slack_bound{",
    ] {
        assert!(prom.contains(needle), "missing `{needle}` in:\n{prom}");
    }
    // the speculative negation query actually retracted something...
    let spec_series = format!("sequin_retraction_emitted{{query=\"{}\"}}", spec.index());
    let retracted = prom
        .lines()
        .find(|l| l.starts_with(&spec_series))
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse::<u64>().ok())
        .unwrap_or_else(|| panic!("no `{spec_series}` series in:\n{prom}"));
    assert!(retracted > 0, "speculation never retracted:\n{prom}");
    // ...and the adaptive query exposes a live slack-bound gauge
    let slack_series = format!("sequin_slack_bound{{query=\"{}\"}}", adaptive.index());
    assert!(
        prom.lines().any(|l| l.starts_with(&slack_series)),
        "no `{slack_series}` series in:\n{prom}"
    );
    assert_prometheus_parses(&prom);
}
