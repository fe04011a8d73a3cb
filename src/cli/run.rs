//! `sequin run` and `sequin replay`: one query over a built-in workload
//! or a text trace, in process.

use std::path::Path;
use std::sync::Arc;

use sequin_engine::{CheckpointStore, Checkpointer, MultiEngine};
use sequin_metrics::run_engine_batched;
use sequin_netsim::measure_disorder;
use sequin_query::parse;
use sequin_types::{EventRef, TypeRegistry};
use sequin_workload::{Intrusion, Rfid, Stock, Synthetic, SyntheticConfig};

use super::{EvalOptions, StreamSpec};

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

/// `sequin run` and `sequin replay`: evaluates `spec`'s query over its
/// stream in process and returns a human-readable report.
///
/// # Errors
///
/// Reports unknown workloads, schema/query/trace errors and an unsavable
/// store as display strings.
pub fn evaluate(spec: &StreamSpec, opts: &EvalOptions) -> Result<String, String> {
    let (registry, stream, text) = spec.prepare(opts.punctuate_every)?;
    let query = parse(&text, &registry).map_err(|e| e.to_string())?;
    let disorder = measure_disorder(&stream);
    let config = opts.engine_config();
    // one stack whatever the flags: the host runs the query's plan, and
    // the exactly-once wrapper around it is volatile without
    // `--checkpoint-every`
    let host = || {
        let mut host = MultiEngine::new(config);
        host.register(Arc::clone(&query), config.policy);
        host
    };
    let mut resume_note = None;
    let (mut stack, replay_from) = match opts.store.as_deref().map(Path::new) {
        Some(path) => {
            let (store, unreadable) = CheckpointStore::load_or_empty(path);
            resume_note =
                unreadable.map(|e| format!("checkpoint file unreadable ({e}): cold start"));
            Checkpointer::resume(opts.checkpoint_every, store, |_| Ok(host()))
        }
        None => (Checkpointer::new(host(), opts.checkpoint_every), 0),
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
    if let Some(path) = opts.store.as_deref() {
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
        report.arrival_latency.mean, report.arrival_latency.p99
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

    /// A store path of this process's own, so concurrent test runs do not
    /// share one.
    fn temp_store(tag: &str) -> String {
        let name = format!("sequin-cli-{tag}-{}.ckpt", std::process::id());
        let path = std::env::temp_dir().join(name);
        let _ = std::fs::remove_file(&path);
        path.to_string_lossy().into_owned()
    }

    /// `workload`'s stream of `events` at 20 % late by up to 50 ticks.
    fn spec(workload: &str, query: &str, events: usize, seed: u64) -> StreamSpec {
        StreamSpec {
            workload: workload.to_owned(),
            query: query.to_owned(),
            events,
            max_delay: 50,
            seed,
            ..StreamSpec::default()
        }
    }

    #[test]
    fn run_workload_produces_report() {
        let out = evaluate(&spec("rfid", "", 3000, 7), &EvalOptions::default()).unwrap();
        assert!(out.contains("matches"));
        assert!(out.contains("throughput"));
    }

    #[test]
    fn run_workload_rejects_unknown_name() {
        assert!(evaluate(&spec("nope", "", 10, 1), &EvalOptions::default()).is_err());
    }

    #[test]
    fn trace_replay_end_to_end() {
        let spec = StreamSpec {
            trace: Some((
                "A(x:int) B(x:int)".into(),
                "10 A 1\n30 B 1\n20 A 2\n".into(),
            )),
            query: "PATTERN SEQ(A a, B b) WITHIN 100".into(),
            ..StreamSpec::default()
        };
        let out = evaluate(&spec, &EvalOptions::default()).unwrap();
        assert!(out.contains("matches      : 2"), "{out}");
    }

    #[test]
    fn punctuated_and_adaptive_options() {
        let opts = EvalOptions {
            k: 50,
            adaptive: Some(2.0),
            punctuate_every: Some(100),
            ..EvalOptions::default()
        };
        let out = evaluate(&spec("synthetic", "", 2000, 3), &opts).unwrap();
        assert!(out.contains("state"));
    }

    #[test]
    fn checkpointed_run_reports_counters_and_resumes() {
        let path = &temp_store("resume");
        let opts = EvalOptions {
            checkpoint_every: Some(500),
            store: Some(path.to_owned()),
            ..EvalOptions::default()
        };
        let spec = spec("synthetic", "", 2000, 9);
        let out = evaluate(&spec, &opts).unwrap();
        assert!(out.contains("checkpoints  :"), "{out}");
        assert!(!out.contains("0 written"), "{out}");
        assert!(
            std::path::Path::new(path).exists(),
            "store saved for next run"
        );

        // second run with the identical workload resumes from the store
        // and re-delivers nothing that was already delivered
        let out2 = evaluate(&spec, &opts).unwrap();
        assert!(out2.contains("recovery     : resumed at item"), "{out2}");
        assert!(out2.contains("matches      : 0 (net)"), "{out2}");
        std::fs::remove_file(path).ok();
    }

    /// A store resumes only the query that wrote it: the same query with
    /// one more `WHERE` conjunct cold-starts on it and nets what a run
    /// without a store does.
    #[test]
    fn an_edited_where_clause_cold_starts_on_the_store() {
        let path = &temp_store("edited");
        let fresh = EvalOptions {
            checkpoint_every: Some(500),
            ..EvalOptions::default()
        };
        let stored = EvalOptions {
            store: Some(path.to_owned()),
            ..fresh.clone()
        };
        let first = "PATTERN SEQ(T0 a, T1 b, T2 c) WHERE a.tag == b.tag AND b.tag == c.tag \
                     WITHIN 100";
        let edited = "PATTERN SEQ(T0 a, T1 b, T2 c) WHERE a.tag == b.tag AND b.tag == c.tag \
                      AND a.x < c.x WITHIN 100";
        evaluate(&spec("synthetic", first, 3000, 7), &stored).unwrap();
        let out = evaluate(&spec("synthetic", edited, 3000, 7), &stored).unwrap();
        let want = evaluate(&spec("synthetic", edited, 3000, 7), &fresh).unwrap();
        let matches = |out: &str| {
            out.lines()
                .find(|l| l.starts_with("matches"))
                .map(str::to_owned)
        };
        assert!(
            out.contains("stored artifacts rejected: cold start"),
            "{out}"
        );
        assert_eq!(matches(&out), matches(&want), "{out}");
        assert!(!want.contains("matches      : 0 (net)"), "{want}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn corrupt_checkpoint_file_degrades_to_cold_start() {
        let path = &temp_store("corrupt");
        std::fs::write(path, b"not a checkpoint store").unwrap();
        let opts = EvalOptions {
            checkpoint_every: Some(500),
            store: Some(path.to_owned()),
            ..EvalOptions::default()
        };
        let out = evaluate(&spec("synthetic", "", 1000, 5), &opts).unwrap();
        assert!(out.contains("cold start"), "{out}");
        assert!(
            out.contains("matches"),
            "the run itself still completes: {out}"
        );
        // the run saved a good store over the bad one; a different query
        // can read the file but must use nothing in it
        let other = "PATTERN SEQ(T0 a, T1 b) WHERE a.tag == b.tag WITHIN 50";
        let out = evaluate(&spec("synthetic", other, 1000, 5), &opts).unwrap();
        assert!(
            out.contains("stored artifacts rejected: cold start"),
            "{out}"
        );
        assert!(!out.contains("matches      : 0 (net)"), "{out}");
        std::fs::remove_file(path).ok();
    }
}
