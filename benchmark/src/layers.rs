//! The traced run: the per-layer metrics, from passes of their own over
//! the same inputs the end-to-end run uses. A layer is a crate.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use sequin_obs::{MetricsSnapshot, ObsConfig, SeriesValue};
use sequin_plan::{compile, QuerySpec};
use sequin_query::parse;
use sequin_server::{CoreConfig, EngineCore};
use sequin_types::codec::{open_envelope, seal_envelope};
use sequin_types::{Encode, StreamItem, Writer};

use crate::check::Tally;
use crate::e2e::{scaled, verify, wire_failures, wire_run, Options};
use crate::engine_path::{build_core, drive, series, state_stride_batches};
use crate::prepare::{expected, set_up, Expected, Instance, Prepared};
use crate::report::{Failures, Report};
use crate::stats::{mean, median, percentile};
use crate::trace::{self_times, to_json, NameTotal, Tracer};
use crate::workloads::Workload;
use crate::{probe, staged};

/// Spans written to the trace file; the run says how many it recorded.
const TRACE_FILE_SPANS: usize = 100_000;
const TRACE_DIR: &str = "benchmark/out";
/// The stages' self times must add up to the traced wall time within
/// this, or the trace does not describe the run and the command fails.
const MAX_RECONCILE_ERR_PCT: f64 = 5.0;
/// Ingest may not run this much slower under the spans than without.
const MAX_TRACE_OVERHEAD_PCT: f64 = 100.0;

pub fn run(w: &Workload, opt: &Options) -> Result<Report, String> {
    let spec = scaled(&w.input, opt.quick);
    let mut r = Report::default();
    let mut fails = Failures::default();
    let cost = Tracer::calibrate();

    let (p, first, setup) = set_up(w, &spec, opt.seed)?;
    let events = p.input.arrival.len() as f64;
    r.sample("setup.gen_s", setup.gen_s);
    r.sample("setup.build_s", setup.build_s);
    r.sample("setup.connect_s", setup.connect_s);

    // the untraced in-process run everything else is held against; its
    // time is the faster of two passes, the first of which also warms up
    let mut core = build_core(&p.cfg, &p.queries);
    let want = expected(w, &p, &mut core, false);
    verify(w, &p, &want, opt, &mut fails)?;
    engine_counts(&mut r, &core, &want.tally);
    drop(core);
    let again = expected(w, &p, &mut build_core(&p.cfg, &p.queries), false);
    let untraced_ns = want.wall_ns.min(again.wall_ns) as f64;
    r.sample("engine.ingest_ns_per_event", untraced_ns / events);
    drop(again);

    let wire_ns = wire_pass(w, &p, first, &want, &mut r, &mut fails);
    state_pass(w, &p, &mut r);

    // the traced passes
    let mut tracer = Tracer::new();
    let staged = staged::run(w, &p, &mut build_core(&p.cfg, &p.queries), &mut tracer)?;
    fails.attempt(p.input.arrival.len() as u64 + want.tally.outputs());
    fails.add(
        "staged pipeline's outputs differ",
        staged.tally.differs_from(&want.tally) + staged.errors,
    );
    let probed = probe::run(w, &p, &mut tracer);
    if let Some(probed) = &probed {
        fails.attempt(want.tally.settled().unsigned_abs());
        fails.add(
            "operator probe's match set differs from the engine's",
            probed.tally.differs_from(&want.tally),
        );
    }
    let totals = self_times(tracer.spans(), tracer.names().len(), cost);
    let of = |name: &str| -> NameTotal {
        tracer
            .names()
            .iter()
            .position(|n| *n == name)
            .map_or(NameTotal::default(), |ix| totals[ix])
    };
    let server_stages_ns = staged_metrics(&mut r, &staged, &of, events, untraced_ns, &mut fails);
    probe_metrics(&mut r, probed.as_ref(), &of, untraced_ns);
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| e.to_string())?;
    std::fs::write(
        format!("{TRACE_DIR}/trace-{}.json", w.name),
        to_json(w.name, &tracer, cost, TRACE_FILE_SPANS),
    )
    .map_err(|e| e.to_string())?;
    drop(tracer);

    obs_pass(w, &p, &mut r);
    sharded_pass(w, &p, &want.tally, untraced_ns, &mut r, &mut fails);
    micro_pass(&p, &mut r);

    // the wire run's time per event beyond what the server's stages cost
    // when nothing overlaps or interrupts them: queue wait, wake-ups,
    // lock traffic, and the generator's share of the two cores
    let unattributed = wire_ns.map_or(0.0, |wire| wire - server_stages_ns);
    r.sample("server.unattributed_ns_per_event", unattributed);
    r.sample(
        "server.unattributed_share",
        wire_ns.map_or(0.0, |wire| unattributed / wire),
    );
    r.fails = fails;
    Ok(r)
}

fn engine_counts(r: &mut Report, core: &EngineCore, tally: &Tally) {
    let s = core.stats();
    for (name, v) in [
        ("runtime.insertions", s.insertions),
        ("runtime.ooo_insertions", s.ooo_insertions),
        ("runtime.dfs_steps", s.dfs_steps),
        ("runtime.predicate_evals", s.predicate_evals),
        ("runtime.matches_constructed", s.matches_constructed),
        ("runtime.negated_matches", s.negated_matches),
        ("runtime.purged", s.purged),
        ("runtime.purge_runs", s.purge_runs),
        ("runtime.max_stack_depth", s.max_stack_depth),
        ("engine.late_drops", s.late_drops),
        ("engine.inserts", tally.inserts),
        ("engine.retractions", tally.retracts),
    ] {
        r.sample(name, v as f64);
    }
    let pm = core.plan_metrics().unwrap_or_default();
    for (name, v) in [
        ("plan.pooled_stacks", pm.pooled_stacks),
        ("plan.prefix_groups", pm.prefix_groups),
        ("plan.routed_events", pm.routed_events),
        ("plan.routing_misses", pm.routing_misses),
        ("plan.shared_partials", pm.shared_partials),
        ("plan.fanout_outputs", pm.fanout_outputs),
    ] {
        r.sample(name, v as f64);
    }
}

/// Process CPU time so far (user + system), in seconds.
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, in ticks of 1/100 s
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / 100.0
}

/// One untraced run over the wire (wire workloads): the server's counters
/// and what the end-to-end run does not report — tail latency, generator
/// lateness, CPU per event. Returns the run's wall time per event.
fn wire_pass(
    w: &Workload,
    p: &Prepared,
    first: Instance,
    want: &Expected,
    r: &mut Report,
    fails: &mut Failures,
) -> Option<f64> {
    const WIRE: [&str; 15] = [
        "server.frames_received",
        "server.frames_sent",
        "server.batches_ingested",
        "server.engine_batches",
        "server.max_engine_batch",
        "server.backpressure_stalls",
        "server.busy_frames_sent",
        "server.rejected_frames",
        "server.outputs_per_event",
        "server.cpu_s_per_mevent",
        "server.latency_p90_us",
        "server.latency_p99_us",
        "server.latency_max_us",
        "server.gen_late_p99_us",
        "server.gen_late_share",
    ];
    let Instance::Session(mut session) = first else {
        WIRE.iter().for_each(|n| r.sample(n, 0.0));
        return None;
    };
    let events = p.input.arrival.len() as f64;
    let cpu = cpu_seconds();
    let got = wire_run(w, p, &mut session);
    let cpu = cpu_seconds() - cpu;
    let s = session.close();
    fails.attempt(p.input.arrival.len() as u64 + want.tally.outputs());
    fails.add("traced run's wire pass", wire_failures(&got, want));

    let mut lat = got.latencies_ns(w.batch);
    let mut late = got.lateness_ns();
    let wall_ns = got.wall_ns.unwrap_or(0);
    let values = [
        s.frames_received as f64,
        s.frames_sent as f64,
        s.batches_ingested as f64,
        s.engine_batches as f64,
        s.max_engine_batch as f64,
        s.backpressure_stalls as f64,
        s.busy_frames_sent as f64,
        s.rejected_frames as f64,
        got.outputs.len() as f64 / events,
        cpu / (events / 1e6),
        percentile(&mut lat, 90.0) as f64 / 1e3,
        percentile(&mut lat, 99.0) as f64 / 1e3,
        percentile(&mut lat, 100.0) as f64 / 1e3,
        percentile(&mut late, 99.0) as f64 / 1e3,
        got.late_share(),
    ];
    WIRE.iter().zip(values).for_each(|(n, v)| r.sample(n, v));
    Some(wall_ns as f64 / events)
}

fn label<'a>(s: &'a sequin_obs::Series, key: &str) -> Option<&'a str> {
    s.labels
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

/// One pass that samples the engine's own telemetry at the state stride
/// and takes a checkpoint at each quarter.
fn state_pass(w: &Workload, p: &Prepared, r: &mut Report) {
    let stride = state_stride_batches(p.queries.len());
    let batches = p.input.arrival.len().div_ceil(w.batch);
    let quarters = [batches / 4, batches / 2, batches * 3 / 4];
    let (mut state, mut lag, mut snap_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut ckpt_ms, mut ckpt_bytes) = (Vec::new(), Vec::new());
    let mut core = build_core(&p.cfg, &p.queries);
    drive(&mut core, &p.input.arrival, w.batch, |core, ix, _, _| {
        if (ix + 1) % stride == 0 || ix + 1 == batches {
            let t = Instant::now();
            let snapshot = core.metrics_snapshot(None);
            let text = snapshot.to_prometheus();
            snap_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            std::hint::black_box(text);
            state.push(series(&snapshot, "sequin_engine_state_size").sum::<u64>() as f64);
            lag.push(series(&snapshot, "sequin_watermark_lag").max().unwrap_or(0) as f64);
        }
        if quarters.contains(&(ix + 1)) {
            let t = Instant::now();
            core.checkpoint_now();
            ckpt_ms.push(t.elapsed().as_nanos() as f64 / 1e6);
            let newest = core.store().checkpoints_newest_first().next();
            ckpt_bytes.push(newest.map_or(0, <[u8]>::len) as f64);
        }
    });
    let last = core.metrics_snapshot(None);
    r.sample(
        "engine.state_peak_items",
        state.iter().copied().fold(0.0, f64::max),
    );
    r.sample("engine.watermark_lag_ticks", mean(&lag));
    r.sample(
        "engine.purge_reclaimed_bytes",
        series(&last, "sequin_purge_reclaimed_bytes").sum::<u64>() as f64,
    );
    r.sample("engine.checkpoint_ms", mean(&ckpt_ms));
    r.sample("engine.checkpoint_bytes", mean(&ckpt_bytes));
    r.sample("obs.snapshot_us", mean(&snap_us));
    r.sample(
        "obs.trace_spans_dropped",
        series(&last, "sequin_trace_spans_dropped").sum::<u64>() as f64,
    );
}

fn staged_metrics(
    r: &mut Report,
    staged: &staged::Outcome,
    of: &dyn Fn(&str) -> NameTotal,
    events: f64,
    untraced_ns: f64,
    fails: &mut Failures,
) -> f64 {
    let frames_in = staged.batches.max(1) as f64;
    let frames_out = staged.outputs.max(1) as f64;
    let ingest = of(staged::CORE_INGEST).self_ns;
    r.sample(
        "types.wire_bytes_per_event",
        staged.ingress_bytes as f64 / events,
    );
    r.sample(
        "server.decode_ns_per_event",
        of(staged::DECODE).self_ns / events,
    );
    r.sample("server.core_ingest_ns_per_event", ingest / events);
    r.sample(
        "server.encode_out_ns_per_output",
        of(staged::ENCODE_OUT).self_ns / frames_out,
    );
    r.sample(
        "server.sock_write_ns_per_frame",
        (of(staged::SOCK_WRITE).self_ns + of(staged::OUT_WRITE).self_ns) / (frames_in + frames_out),
    );
    r.sample(
        "server.sock_read_ns_per_frame",
        (of(staged::SOCK_READ).self_ns + of(staged::OUT_READ).self_ns) / (frames_in + frames_out),
    );

    let wall = of(staged::ROOT).self_ns
        + of(staged::BATCH).self_ns
        + staged::STAGES.iter().map(|n| of(n).self_ns).sum::<f64>();
    let in_stages: f64 = staged::STAGES.iter().map(|n| of(n).self_ns).sum();
    let reconcile = 100.0 * (wall - in_stages).abs() / wall.max(1.0);
    let overhead = 100.0 * (ingest / untraced_ns - 1.0);
    r.sample("trace.reconcile_err_pct", reconcile);
    r.sample("trace.overhead_pct", overhead);
    fails.attempt(2);
    fails.add(
        "stage self times do not reconcile with the traced wall time",
        u64::from(reconcile > MAX_RECONCILE_ERR_PCT),
    );
    fails.add(
        "ingest under tracing ran too much slower than without",
        u64::from(overhead > MAX_TRACE_OVERHEAD_PCT),
    );
    let server_side = [
        staged::SOCK_READ,
        staged::DECODE,
        staged::CORE_INGEST,
        staged::ENCODE_OUT,
        staged::OUT_WRITE,
    ];
    server_side.iter().map(|n| of(n).self_ns).sum::<f64>() / events
}

fn probe_metrics(
    r: &mut Report,
    probed: Option<&probe::Outcome>,
    of: &dyn Fn(&str) -> NameTotal,
    untraced_ns: f64,
) {
    let per = |total: f64, n: u64| if n == 0 { 0.0 } else { total / n as f64 };
    let per_call = |name: &str| per(of(name).self_ns, of(name).calls);
    let (insert, purge) = (
        of(probe::STACK_INSERT).self_ns,
        of(probe::STACK_PURGE).self_ns,
    );
    let construct = of(probe::CONSTRUCT).self_ns;
    let (lookup, sweep) = (
        of(probe::PARTITION_LOOKUP).self_ns,
        of(probe::PARTITION_SWEEP).self_ns,
    );
    let negation = of(probe::NEGATION_OFFER).self_ns
        + of(probe::NEGATION_VIOLATES).self_ns
        + of(probe::NEGATION_UNSEALED).self_ns;
    let (purged, keys, steps) = probed.map_or((0, 0, 0), |o| {
        (o.purged_whole, o.keys_swept, o.stats.dfs_steps)
    });
    r.sample("runtime.stack_insert_ns", per_call(probe::STACK_INSERT));
    r.sample("runtime.stack_purge_ns_per_item", per(purge, purged));
    r.sample("runtime.construct_ns_per_step", per(construct, steps));
    r.sample("runtime.negation_offer_ns", per_call(probe::NEGATION_OFFER));
    r.sample(
        "runtime.negation_violates_ns",
        per_call(probe::NEGATION_VIOLATES),
    );
    r.sample(
        "runtime.partition_lookup_ns",
        per_call(probe::PARTITION_LOOKUP),
    );
    r.sample("runtime.partition_sweep_ns_per_key", per(sweep, keys));
    let shares = [
        ("runtime.stack_share", (insert + purge) / untraced_ns),
        ("runtime.construct_share", construct / untraced_ns),
        ("runtime.negation_share", negation / untraced_ns),
        ("runtime.partition_share", (lookup + sweep) / untraced_ns),
    ];
    for (name, share) in shares {
        r.sample(name, if probed.is_some() { share } else { 0.0 });
    }
    // what the engine spends around its operators; not measured where
    // the probe does not run
    let around = 1.0 - shares.iter().map(|(_, s)| s).sum::<f64>();
    r.sample(
        "engine.overhead_share",
        if probed.is_some() { around } else { 0.0 },
    );
}

/// The same prefix under three observability settings, interleaved.
fn obs_pass(w: &Workload, p: &Prepared, r: &mut Report) {
    const ROUNDS: usize = 3;
    /// Below this a pass is too short to tell the settings apart.
    const OBS_MIN_EVENTS: usize = 50_000;
    let n = p.input.arrival.len();
    let prefix = &p.input.arrival[..(n / 4).max(OBS_MIN_EVENTS.min(n))];
    let settings = [
        ObsConfig::default(),
        ObsConfig::disabled(),
        ObsConfig::without_provenance(),
    ];
    let mut ns: [Vec<f64>; 3] = Default::default();
    for _ in 0..ROUNDS {
        for (i, obs) in settings.iter().enumerate() {
            let cfg = CoreConfig {
                obs: *obs,
                ..p.cfg.clone()
            };
            let mut core = build_core(&cfg, &p.queries);
            ns[i].push(drive(&mut core, prefix, w.batch, |_, _, out, _| drop(out)) as f64);
        }
    }
    let [on, off, plain] = ns.map(|v| median(&v));
    r.sample("obs.overhead_pct", 100.0 * (on / off - 1.0));
    r.sample("obs.provenance_pct", 100.0 * (on / plain - 1.0));
}

fn by_shard(snapshot: &MetricsSnapshot, name: &str) -> BTreeMap<String, u64> {
    let mut per = BTreeMap::new();
    for s in snapshot.series().iter().filter(|s| s.name == name) {
        if let (Some(shard), SeriesValue::Counter(v) | SeriesValue::Gauge(v)) =
            (label(s, "shard"), &s.value)
        {
            *per.entry(shard.to_owned()).or_insert(0) += v;
        }
    }
    per
}

/// One extra pass with as many shards as cores: what the router did, and
/// how the wall time compares (informational: with the load generator on
/// the same cores, the ratio is not a scaling measurement).
fn sharded_pass(
    w: &Workload,
    p: &Prepared,
    want: &Tally,
    untraced_ns: f64,
    r: &mut Report,
    fails: &mut Failures,
) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = CoreConfig {
        shards: cores,
        ..p.cfg.clone()
    };
    let mut core = build_core(&cfg, &p.queries);
    let mut tally = Tally::default();
    let ns = drive(&mut core, &p.input.arrival, w.batch, |_, _, out, _| {
        tally.add_items(&out)
    });
    fails.attempt(p.input.arrival.len() as u64 + want.outputs());
    fails.add("sharded pass's outputs differ", tally.differs_from(want));
    let snapshot = core.metrics_snapshot(None);
    let full = by_shard(&snapshot, "sequin_route_full_events");
    let total: u64 = full.values().sum();
    let skew = match full.values().max() {
        Some(max) if total > 0 => *max as f64 * full.len() as f64 / total as f64,
        _ => 0.0,
    };
    r.sample("engine.route_full_events", total as f64);
    r.sample(
        "engine.route_advances",
        series(&snapshot, "sequin_route_advances").sum::<u64>() as f64,
    );
    r.sample(
        "engine.route_broadcasts",
        series(&snapshot, "sequin_route_broadcast_events").sum::<u64>() as f64,
    );
    r.sample(
        "engine.route_queue_depth_peak",
        series(&snapshot, "sequin_route_queue_depth_peak")
            .max()
            .unwrap_or(0) as f64,
    );
    r.sample("engine.shard_skew", skew);
    r.sample("engine.sharded_ratio", untraced_ns / ns as f64);
    r.note(format!("sharded pass ran {cores} shards on {cores} cores"));
}

/// Codec, parser and plan compiler, timed on their own.
fn micro_pass(p: &Prepared, r: &mut Report) {
    // Event::encode, one writer for the lot
    let sample: Vec<_> = p
        .input
        .arrival
        .iter()
        .filter_map(StreamItem::as_event)
        .take(100_000)
        .collect();
    let t = Instant::now();
    let mut writer = Writer::new();
    for e in &sample {
        e.encode(&mut writer);
    }
    let encode_ns = t.elapsed().as_nanos() as f64;
    let bytes = writer.into_bytes();
    r.sample(
        "types.event_encode_ns",
        encode_ns / sample.len().max(1) as f64,
    );

    // seal + open, in 4 KiB payloads
    let t = Instant::now();
    let mut opened = 0usize;
    for payload in bytes.chunks(4096) {
        let sealed = seal_envelope(payload);
        opened += open_envelope(&sealed).map_or(0, <[u8]>::len);
    }
    let envelope_ns = t.elapsed().as_nanos() as f64;
    r.sample(
        "types.envelope_ns_per_kib",
        envelope_ns / (opened.max(1) as f64 / 1024.0),
    );

    // parse: every text of the family, or the one text as often
    let reps = if p.queries.len() > 1 { 1 } else { 200 };
    let t = Instant::now();
    let mut parsed = Vec::new();
    for _ in 0..reps {
        parsed = p
            .queries
            .iter()
            .map(|q| parse(q, &p.input.registry).expect("workload query parses"))
            .collect();
    }
    let parse_ns = t.elapsed().as_nanos() as f64;
    r.sample(
        "query.parse_us",
        parse_ns / (reps * p.queries.len()) as f64 / 1e3,
    );

    // subscribe: all of them into a fresh core
    let mut core = EngineCore::new(p.cfg.clone());
    let t = Instant::now();
    for q in &p.queries {
        core.subscribe(q).expect("workload query is accepted");
    }
    r.sample("plan.subscribe_ms", t.elapsed().as_nanos() as f64 / 1e6);

    // one compile over the full set
    let specs: Vec<QuerySpec> = parsed
        .into_iter()
        .map(|query| QuerySpec {
            query: Arc::clone(&query),
            epoch: 0,
            active: true,
        })
        .collect();
    let t = Instant::now();
    let plan = compile(&specs, p.cfg.engine.partitioned);
    r.sample("plan.compile_ms", t.elapsed().as_nanos() as f64 / 1e6);
    std::hint::black_box(plan);
}
