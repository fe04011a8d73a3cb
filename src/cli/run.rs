//! `sequin run` and `sequin replay`: one query over a built-in workload
//! or a text trace, in process.

use std::path::Path;
use std::sync::Arc;

use sequin_engine::{
    CheckpointPolicy, CheckpointStore, Checkpointer, DisorderPolicy, EngineConfig, MultiEngine,
};
use sequin_metrics::run_engine_batched;
use sequin_netsim::{delay_shuffle, measure_disorder, punctuate};
use sequin_query::parse;
use sequin_types::{Duration, EventRef, StreamItem, TypeRegistry};
use sequin_workload::{read_trace, Intrusion, Rfid, Stock, Synthetic, SyntheticConfig};

use super::parse_schema;

/// Options shared by the `run` and `replay` subcommands.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Disorder bound `K` (or adaptive floor).
    pub k: u64,
    /// Use adaptive K̂ estimation with this safety factor.
    pub adaptive: Option<f64>,
    /// Inject a punctuation every `n` events (simulator-omniscient).
    pub punctuate_every: Option<usize>,
    /// Checkpoint the evaluation every `n` events and keep the emission
    /// log (a durable [`Checkpointer`]; volatile without it).
    pub checkpoint_every: Option<u64>,
    /// Path of a checkpoint-store file to resume from and to save new
    /// checkpoints into; needs `checkpoint_every` (the CLI rejects the
    /// path alone). Resuming replays the regenerated stream suffix with
    /// exactly-once dedup, so the same seed/workload must be used.
    pub resume_from: Option<String>,
    /// Per-query disorder policy (latency vs retraction-noise knob).
    pub policy: DisorderPolicy,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            k: 100,
            adaptive: None,
            punctuate_every: None,
            checkpoint_every: None,
            resume_from: None,
            policy: DisorderPolicy::default(),
        }
    }
}

/// Runs `query_text` over a named built-in workload with synthetic
/// disorder, returning a human-readable report.
///
/// `workload` is one of `synthetic`, `rfid`, `intrusion`, `stock`;
/// an empty `query_text` selects the workload's flagship query.
///
/// # Errors
///
/// Reports unknown workloads and schema/query errors as display strings.
pub fn run_workload(
    workload: &str,
    query_text: &str,
    events: usize,
    ooo: f64,
    max_delay: u64,
    seed: u64,
    opts: &RunOptions,
) -> Result<String, String> {
    let (registry, history, default_query) = build_workload(workload, events, seed)?;
    let text = if query_text.trim().is_empty() {
        &default_query
    } else {
        query_text
    };
    let query = parse(text, &registry).map_err(|e| e.to_string())?;
    let stream = delay_shuffle(&history, ooo, max_delay.max(1), seed);
    run_stream(&stream, query, opts)
}

/// Instantiates a named built-in workload: its schema, an in-order event
/// history, and the workload's flagship query.
///
/// # Errors
///
/// Lists the accepted names when `workload` matches none.
pub fn build_workload(
    workload: &str,
    events: usize,
    seed: u64,
) -> Result<(Arc<TypeRegistry>, Vec<EventRef>, String), String> {
    let (registry, history, default_query): (Arc<TypeRegistry>, Vec<EventRef>, String) =
        match workload {
            "synthetic" => {
                let w = Synthetic::new(SyntheticConfig::default());
                let h = w.generate(events, seed);
                (
                    Arc::clone(w.registry()),
                    h,
                    "PATTERN SEQ(T0 a, T1 b, T2 c) WHERE a.tag == b.tag AND b.tag == c.tag \
                     WITHIN 100"
                        .to_owned(),
                )
            }
            "rfid" => {
                let w = Rfid::new();
                let (h, _) = w.generate(events / 3, 0.05, seed);
                (
                    Arc::clone(w.registry()),
                    h,
                    "PATTERN SEQ(SHIPPED s, !SCANNED c, RECEIVED r) \
                     WHERE s.tag == r.tag AND c.tag == s.tag WITHIN 100 RETURN s.tag, r.ts"
                        .to_owned(),
                )
            }
            "intrusion" => {
                let w = Intrusion::new();
                let h = w.generate(events, 100, events / 500 + 1, seed);
                (
                    Arc::clone(w.registry()),
                    h,
                    "PATTERN SEQ(LOGIN_FAIL f1, LOGIN_FAIL f2, LOGIN_OK k, PRIV_ESC p) \
                     WHERE f1.user == f2.user AND f2.user == k.user AND k.user == p.user \
                     WITHIN 60 RETURN k.user, p.ts"
                        .to_owned(),
                )
            }
            "stock" => {
                let w = Stock::new();
                let h = w.generate(events, 8, seed);
                (
                    Arc::clone(w.registry()),
                    h,
                    "PATTERN SEQ(STOCK a, STOCK b, STOCK c) \
                     WHERE a.sym == b.sym AND b.sym == c.sym \
                     AND a.price < b.price AND b.price < c.price WITHIN 30"
                        .to_owned(),
                )
            }
            other => {
                return Err(format!(
                    "unknown workload `{other}` (expected synthetic|rfid|intrusion|stock)"
                ))
            }
        };
    Ok((registry, history, default_query))
}

/// Replays a text trace (see [`sequin_workload::read_trace`]) through a
/// query.
///
/// # Errors
///
/// Reports schema, query, and trace parse failures as display strings.
pub fn run_trace_text(
    schema: &str,
    query_text: &str,
    trace_text: &str,
    opts: &RunOptions,
) -> Result<String, String> {
    let registry = parse_schema(schema)?;
    let query = parse(query_text, &registry).map_err(|e| e.to_string())?;
    let events = read_trace(trace_text.as_bytes(), &registry).map_err(|e| e.to_string())?;
    let stream: Vec<StreamItem> = events.into_iter().map(StreamItem::Event).collect();
    run_stream(&stream, query, opts)
}

fn run_stream(
    stream: &[StreamItem],
    query: Arc<sequin_query::Query>,
    opts: &RunOptions,
) -> Result<String, String> {
    let disorder = measure_disorder(stream);
    let stream_owned;
    let stream = if let Some(n) = opts.punctuate_every {
        stream_owned = punctuate(stream, n.max(1));
        &stream_owned[..]
    } else {
        stream
    };
    let mut config = match opts.adaptive {
        Some(safety) => EngineConfig::with_adaptive_k(Duration::new(opts.k), safety),
        None => EngineConfig::with_k(Duration::new(opts.k)),
    };
    config.policy = opts.policy;
    if opts.punctuate_every.is_some() {
        config.watermark = sequin_engine::WatermarkSource::Both;
    }
    // one stack whatever the flags: the host runs the query's plan, and
    // the exactly-once wrapper around it is volatile without
    // `--checkpoint-every`
    let host = || {
        let mut host = MultiEngine::new(config);
        host.register(Arc::clone(&query), opts.policy);
        host
    };
    let policy = opts
        .checkpoint_every
        .map_or(CheckpointPolicy::never(), CheckpointPolicy::every);
    let mut resume_note = None;
    let (mut stack, replay_from) = match opts.resume_from.as_deref().map(Path::new) {
        Some(path) if path.exists() => match CheckpointStore::load(path) {
            Ok(store) => Checkpointer::resume(policy, store, |_| Ok(host())),
            Err(e) => {
                // graceful degradation: a rotted store file means cold
                // start, never a crash or silently wrong state
                resume_note = Some(format!("checkpoint file unreadable ({e}): cold start"));
                (Checkpointer::new(host(), policy), 0)
            }
        },
        _ => (Checkpointer::new(host(), policy), 0),
    };
    let suffix = &stream[(replay_from as usize).min(stream.len())..];
    let report = run_engine_batched(&mut stack, suffix, 256);
    if replay_from > 0 {
        resume_note = Some(format!("resumed at item {replay_from}"));
    } else if report.stats.checkpoints_rejected > 0 {
        // readable file, unusable contents (another query, another
        // version's format): say so rather than look like a first run
        let n = report.stats.checkpoints_rejected;
        resume_note = Some(format!("{n} stored artifacts rejected: cold start"));
    }
    if let Some(path) = opts.resume_from.as_deref() {
        stack
            .store()
            .save(Path::new(path))
            .map_err(|e| format!("cannot save checkpoint `{path}`: {e}"))?;
    }

    let mut out = String::new();
    out.push_str(&format!(
        "stream       : {} events, {:.1}% late, max lateness {}\n",
        report.events,
        disorder.late_fraction * 100.0,
        disorder.max_lateness
    ));
    out.push_str(&format!("matches      : {} (net)\n", report.net_matches()));
    out.push_str(&format!(
        "throughput   : {:.0} events/s\n",
        report.throughput_eps
    ));
    out.push_str(&format!(
        "latency      : mean {:.1} / p99 {} arrivals\n",
        report.arrival_latency.mean(),
        report.arrival_latency.p99()
    ));
    out.push_str(&format!(
        "state        : peak {} / mean {:.1} events\n",
        report.peak_state, report.mean_state
    ));
    out.push_str(&format!(
        "counters     : {} insertions, {} dfs steps, {} purged, {} beyond-K arrivals\n",
        report.stats.insertions,
        report.stats.dfs_steps,
        report.stats.purged,
        report.stats.late_drops
    ));
    if opts.checkpoint_every.is_some() {
        out.push_str(&format!(
            "checkpoints  : {} written, {} rejected, {} replay-suppressed\n",
            report.stats.checkpoints_written,
            report.stats.checkpoints_rejected,
            report.stats.replayed_suppressed
        ));
        if let Some(note) = resume_note {
            out.push_str(&format!("recovery     : {note}\n"));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_workload_produces_report() {
        let out = run_workload("rfid", "", 3000, 0.2, 50, 7, &RunOptions::default()).unwrap();
        assert!(out.contains("matches"));
        assert!(out.contains("throughput"));
    }

    #[test]
    fn run_workload_rejects_unknown_name() {
        assert!(run_workload("nope", "", 10, 0.0, 1, 1, &RunOptions::default()).is_err());
    }

    #[test]
    fn trace_replay_end_to_end() {
        let schema = "A(x:int) B(x:int)";
        let trace = "10 A 1\n30 B 1\n20 A 2\n";
        let out = run_trace_text(
            schema,
            "PATTERN SEQ(A a, B b) WITHIN 100",
            trace,
            &RunOptions::default(),
        )
        .unwrap();
        assert!(out.contains("matches      : 2"), "{out}");
    }

    #[test]
    fn punctuated_and_adaptive_options() {
        let opts = RunOptions {
            k: 50,
            adaptive: Some(2.0),
            punctuate_every: Some(100),
            ..RunOptions::default()
        };
        let out = run_workload("synthetic", "", 2000, 0.2, 50, 3, &opts).unwrap();
        assert!(out.contains("state"));
    }

    #[test]
    fn checkpointed_run_reports_counters_and_resumes() {
        let path = "target/test-cli-resume.ckpt";
        let _ = std::fs::remove_file(path);
        let opts = RunOptions {
            checkpoint_every: Some(500),
            resume_from: Some(path.to_owned()),
            ..RunOptions::default()
        };
        let out = run_workload("synthetic", "", 2000, 0.2, 50, 9, &opts).unwrap();
        assert!(out.contains("checkpoints  :"), "{out}");
        assert!(!out.contains("0 written"), "{out}");
        assert!(
            std::path::Path::new(path).exists(),
            "store saved for next run"
        );

        // second run with the identical workload resumes from the store
        // and re-delivers nothing that was already delivered
        let out2 = run_workload("synthetic", "", 2000, 0.2, 50, 9, &opts).unwrap();
        assert!(out2.contains("recovery     : resumed at item"), "{out2}");
        assert!(out2.contains("matches      : 0 (net)"), "{out2}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corrupt_checkpoint_file_degrades_to_cold_start() {
        let path = "target/test-cli-corrupt.ckpt";
        std::fs::write(path, b"not a checkpoint store").unwrap();
        let opts = RunOptions {
            checkpoint_every: Some(500),
            resume_from: Some(path.to_owned()),
            ..RunOptions::default()
        };
        let out = run_workload("synthetic", "", 1000, 0.2, 50, 5, &opts).unwrap();
        assert!(out.contains("cold start"), "{out}");
        assert!(
            out.contains("matches"),
            "the run itself still completes: {out}"
        );
        // the run saved a good store over the bad one; a different query
        // can read the file but must use nothing in it
        let other = "PATTERN SEQ(T0 a, T1 b) WHERE a.tag == b.tag WITHIN 50";
        let out = run_workload("synthetic", other, 1000, 0.2, 50, 5, &opts).unwrap();
        assert!(
            out.contains("stored artifacts rejected: cold start"),
            "{out}"
        );
        assert!(!out.contains("matches      : 0 (net)"), "{out}");
        std::fs::remove_file(path).ok();
    }
}
