//! Every metric the benchmark reports, by name. `BENCHMARK.json` at the
//! repository root is [`describe`]'s output; a test keeps the two equal.

use std::fmt::Write as _;

use crate::workloads::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may get worse before a change counts as a regression.
    pub bound: Option<f64>,
}

impl MetricDef {
    pub const fn gated(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Self {
        MetricDef {
            name,
            unit,
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    pub const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Self {
        MetricDef {
            name,
            unit,
            higher_is_better: higher,
            bound: None,
        }
    }
}

/// Seconds one run spends on timed repetitions.
pub const RUN_SECONDS: u32 = 14;

/// What a user of the system sees. Measured with tracing off; every
/// workload reports every one.
pub const END_TO_END: [MetricDef; 6] = [
    MetricDef::gated("setup_s", "s", false, 0.25),
    MetricDef::gated("throughput_eps", "events/s", true, 0.25),
    MetricDef::gated("latency_p50_us", "us", false, 0.25),
    MetricDef::gated("state_mean_items", "items", false, 0.15),
    MetricDef::gated("detect_ticks_mean", "ticks", false, 0.25),
    MetricDef::gated("insert_precision", "ratio", true, 0.02),
];

const fn low(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef::layer(name, unit, false)
}

const fn high(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef::layer(name, unit, true)
}

/// Single layers, from the traced run. A layer is a crate. Zero means the
/// workload does not reach that layer (the README says which).
pub const PER_LAYER: [MetricDef; 79] = [
    // sequin-types
    low("types.wire_bytes_per_event", "bytes"),
    low("types.event_encode_ns", "ns"),
    low("types.envelope_ns_per_kib", "ns"),
    // sequin-query, sequin-plan
    low("query.parse_us", "us"),
    low("plan.subscribe_ms", "ms"),
    low("plan.compile_ms", "ms"),
    low("plan.pooled_stacks", "count"),
    high("plan.prefix_groups", "count"),
    low("plan.routed_events", "count"),
    low("plan.routing_misses", "count"),
    low("plan.shared_partials", "count"),
    low("plan.fanout_outputs", "count"),
    // sequin-runtime: counts from RuntimeStats
    low("runtime.insertions", "count"),
    low("runtime.ooo_insertions", "count"),
    low("runtime.dfs_steps", "count"),
    low("runtime.predicate_evals", "count"),
    low("runtime.matches_constructed", "count"),
    low("runtime.negated_matches", "count"),
    high("runtime.purged", "count"),
    low("runtime.purge_runs", "count"),
    low("runtime.max_stack_depth", "count"),
    // sequin-runtime: timed by the operator probe
    low("runtime.stack_insert_ns", "ns"),
    low("runtime.stack_purge_ns_per_item", "ns"),
    low("runtime.construct_ns_per_step", "ns"),
    low("runtime.negation_offer_ns", "ns"),
    low("runtime.negation_violates_ns", "ns"),
    low("runtime.partition_lookup_ns", "ns"),
    low("runtime.partition_sweep_ns_per_key", "ns"),
    low("runtime.stack_share", "ratio"),
    low("runtime.construct_share", "ratio"),
    low("runtime.negation_share", "ratio"),
    low("runtime.partition_share", "ratio"),
    // sequin-engine
    low("engine.ingest_ns_per_event", "ns"),
    low("engine.overhead_share", "ratio"),
    low("engine.state_peak_items", "items"),
    low("engine.watermark_lag_ticks", "ticks"),
    high("engine.purge_reclaimed_bytes", "bytes"),
    low("engine.late_drops", "count"),
    high("engine.inserts", "count"),
    low("engine.retractions", "count"),
    low("engine.checkpoint_ms", "ms"),
    low("engine.checkpoint_bytes", "bytes"),
    low("engine.route_full_events", "count"),
    low("engine.route_advances", "count"),
    low("engine.route_broadcasts", "count"),
    low("engine.route_queue_depth_peak", "count"),
    low("engine.shard_skew", "ratio"),
    high("engine.sharded_ratio", "ratio"),
    // sequin-server: timed in the staged pipeline
    low("server.decode_ns_per_event", "ns"),
    low("server.core_ingest_ns_per_event", "ns"),
    low("server.encode_out_ns_per_output", "ns"),
    low("server.sock_write_ns_per_frame", "ns"),
    low("server.sock_read_ns_per_frame", "ns"),
    low("server.unattributed_ns_per_event", "ns"),
    low("server.unattributed_share", "ratio"),
    // sequin-server: counts from ServerStats
    low("server.frames_received", "count"),
    low("server.frames_sent", "count"),
    low("server.batches_ingested", "count"),
    low("server.engine_batches", "count"),
    high("server.max_engine_batch", "count"),
    low("server.backpressure_stalls", "count"),
    low("server.busy_frames_sent", "count"),
    low("server.rejected_frames", "count"),
    // sequin-server: from the untraced wire run
    low("server.outputs_per_event", "ratio"),
    low("server.cpu_s_per_mevent", "s"),
    low("server.latency_p90_us", "us"),
    low("server.latency_p99_us", "us"),
    low("server.latency_max_us", "us"),
    low("server.gen_late_p99_us", "us"),
    low("server.gen_late_share", "ratio"),
    // sequin-obs
    low("obs.overhead_pct", "%"),
    low("obs.provenance_pct", "%"),
    low("obs.snapshot_us", "us"),
    low("obs.trace_spans_dropped", "count"),
    // the benchmark itself
    low("setup.gen_s", "s"),
    low("setup.build_s", "s"),
    low("setup.connect_s", "s"),
    low("trace.overhead_pct", "%"),
    low("trace.reconcile_err_pct", "%"),
];

/// The text of `BENCHMARK.json`.
pub fn describe() -> String {
    let better = |d: &MetricDef| {
        if d.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    };
    let mut s = String::from("{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{}",
            w.name,
            w.why,
            if i + 1 < WORKLOADS.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, d) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{}",
            d.name,
            d.unit,
            better(d),
            d.bound.expect("end-to-end metrics are gated"),
            if i + 1 < END_TO_END.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, d) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{}",
            d.name,
            d.unit,
            better(d),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(n: &str) -> bool {
        let first = n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn benchmark_json_is_what_describe_prints() {
        assert_eq!(include_str!("../../BENCHMARK.json"), describe());
    }

    #[test]
    fn the_description_is_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        assert!(names.iter().all(|n| name_ok(n)));
        names.sort_unstable();
        assert!(
            names.windows(2).all(|w| w[0] != w[1]),
            "a name is used twice"
        );
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(d.unit.len() <= 16, "{}", d.unit);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| (0.0..=0.25).contains(&b))));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && !d.higher_is_better));
        assert!(PER_LAYER.len() <= 128 && (2..=8).contains(&WORKLOADS.len()));
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains(['\n', '"'])));
        assert!((1..=60).contains(&RUN_SECONDS) && describe().len() < 64 * 1024);
    }
}
