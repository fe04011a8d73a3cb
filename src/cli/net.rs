//! The networked subcommands: `serve`, `send`, `netbench` and `stats`.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use sequin_metrics::pairs_table;
use sequin_server::{loopback_run, Client, MetricsFormat, Server, ServerConfig};
use sequin_types::TypeRegistry;

use super::{build_workload, parse_schema, policy_name, EvalOptions, StreamSpec};

/// `sequin netbench`: replays a disordered workload through a loopback
/// TCP server and verifies the streamed outputs byte-for-byte against the
/// in-process oracle. Errors if the comparison diverges, so it doubles as
/// the CI smoke test for the whole server stack.
///
/// # Errors
///
/// Reports workload/query errors, transport failures, and any oracle
/// divergence as display strings.
pub fn run_netbench(spec: &StreamSpec, opts: &EvalOptions) -> Result<String, String> {
    let (registry, stream, text) = spec.prepare(opts.punctuate_every)?;
    let core = opts.core_config(registry);
    let policy = core.engine.policy;
    let batch = opts.batch.max(1);
    let report = loopback_run(core, &[(text, None)], &stream, batch)?;
    let mut out = String::new();
    out.push_str(&format!(
        "stream       : {} items over loopback TCP, batches of {batch}\n",
        report.items
    ));
    out.push_str(&format!(
        "evaluation   : {} policy, K={}\n",
        policy_name(policy),
        opts.k
    ));
    out.push_str(&format!(
        "outputs      : {} frames, byte-identical to the in-process oracle\n",
        report.outputs
    ));
    out.push_str(&format!(
        "throughput   : {:.0} items/s end-to-end ({} busy advisories)\n",
        report.throughput_eps, report.busy
    ));
    out.push_str(&format!(
        "engine       : {} insertions, {} dfs steps, {} purged\n",
        report.engine.insertions, report.engine.dfs_steps, report.engine.purged
    ));
    out.push_str(&format!("{}", pairs_table(report.server.as_pairs())));
    Ok(out)
}

/// Deployment settings for `sequin serve`.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address, e.g. `127.0.0.1:7070` (`:0` picks a free port).
    pub addr: String,
    /// Queries registered before the first connection (clients may
    /// SUBSCRIBE more).
    pub queries: Vec<String>,
    /// Flight recorder directory (`--bundle-dir`): where a
    /// `recovery-fallback.sqpm` postmortem bundle lands when a startup
    /// resume rejects checkpoints. Defaults to the store file's directory
    /// when durability is on.
    pub bundle_dir: Option<String>,
    /// Evaluation settings shared by every registered query, and the
    /// durability ones: `eval.store` is loaded at startup to resume a
    /// previous incarnation and saved on every dirty message.
    pub eval: EvalOptions,
}

/// Resolves the schema a server negotiates: an explicit `--types` DSL
/// string wins; otherwise the named workload's registry (default
/// `synthetic`).
///
/// # Errors
///
/// Reports schema-DSL and unknown-workload errors as display strings.
pub fn serve_registry(
    workload: Option<&str>,
    types: Option<&str>,
) -> Result<Arc<TypeRegistry>, String> {
    match types {
        Some(schema) => Ok(Arc::new(parse_schema(schema)?)),
        None => Ok(build_workload(workload.unwrap_or("synthetic"), 0, 0)?.0),
    }
}

/// `sequin serve`: starts the engine thread and TCP acceptor. Returns the
/// running server (kept alive by the caller), the bound address, and a
/// startup banner; the thin binary prints the banner and parks forever.
///
/// # Errors
///
/// Reports bind failures, unreadable stores, and bad preregistered
/// queries as display strings.
pub fn start_server(
    registry: Arc<TypeRegistry>,
    opts: &ServeOptions,
) -> Result<(Server, std::net::SocketAddr, String), String> {
    let fingerprint = registry.fingerprint();
    let eval = &opts.eval;
    let mut config = ServerConfig::new(eval.core_config(registry));
    config.queries = opts.queries.clone();
    config.store_path = eval.store.as_ref().map(PathBuf::from);
    config.bundle_dir = match (&opts.bundle_dir, &eval.store) {
        (Some(dir), _) => Some(PathBuf::from(dir)),
        // durable servers default the flight recorder next to the store
        (None, Some(store)) => Some(
            Path::new(store)
                .parent()
                .filter(|d| !d.as_os_str().is_empty())
                .unwrap_or(Path::new("."))
                .to_path_buf(),
        ),
        (None, None) => None,
    };
    let policy = config.core.engine.policy;
    let mut server = Server::start(config)?;
    let addr = server.listen(&opts.addr).map_err(|e| e.to_string())?;
    let mut banner = String::new();
    banner.push_str(&format!("listening    : {addr}\n"));
    banner.push_str(&format!("schema       : fingerprint {fingerprint:#018x}\n"));
    banner.push_str(&format!(
        "evaluation   : {} policy, K={}\n",
        policy_name(policy),
        eval.k
    ));
    match (&eval.store, eval.checkpoint_every) {
        (Some(store), Some(n)) => banner.push_str(&format!(
            "durability   : checkpoint every {n} items to `{store}` ({})\n",
            match server.resumed_at() {
                Some(item) => format!("resumed at item {item}"),
                None => "cold start".to_owned(),
            }
        )),
        _ => banner.push_str("durability   : off (volatile)\n"),
    }
    banner.push_str(&format!(
        "queries      : {} preregistered\n",
        opts.queries.len()
    ));
    Ok((server, addr, banner))
}

/// `sequin send`: connects to a running server, subscribes the query
/// (requesting `opts.policy` when set, else taking the server's default),
/// replays the generated stream (honoring the server's `resume_from`
/// replay cursor), and reports what came back. `drain` asks the server to
/// flush end-of-stream state afterwards — leave it off when other senders
/// will keep the stream alive.
///
/// # Errors
///
/// Reports connection, handshake, and protocol failures as display
/// strings.
pub fn send(
    addr: &str,
    spec: &StreamSpec,
    opts: &EvalOptions,
    drain: bool,
) -> Result<String, String> {
    let (registry, stream, text) = spec.prepare(opts.punctuate_every)?;
    let fingerprint = registry.fingerprint();

    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let (resume_from, preregistered) = client
        .hello(fingerprint, "sequin-send")
        .map_err(|e| e.to_string())?;
    let (query_id, policy) = client
        .subscribe_with_policy(&text, opts.policy)
        .map_err(|e| e.to_string())?;

    let suffix = &stream[(resume_from as usize).min(stream.len())..];
    client
        .send_stream(suffix, opts.batch)
        .map_err(|e| e.to_string())?;
    if drain {
        client.drain().map_err(|e| e.to_string())?;
    }
    // stats is a round-trip through the engine queue, so every output the
    // ingests above triggered is banked once it returns
    let (server_stats, engine_stats) = client.stats().map_err(|e| e.to_string())?;
    let outputs = client.take_outputs();
    let busy = client.busy_seen();
    client.bye();

    let mut out = String::new();
    out.push_str(&format!(
        "connected    : {addr}, schema {fingerprint:#018x}\n"
    ));
    out.push_str(&format!(
        "query        : id {query_id} ({preregistered} registered before this session)\n"
    ));
    out.push_str(&format!("policy       : {}\n", policy_name(policy)));
    if resume_from > 0 {
        out.push_str(&format!(
            "recovery     : server resumed at item {resume_from}; sent only the suffix\n"
        ));
    }
    out.push_str(&format!(
        "sent         : {} of {} items{}\n",
        suffix.len(),
        stream.len(),
        if drain { ", then drained" } else { "" }
    ));
    out.push_str(&format!(
        "outputs      : {} frames ({} busy advisories)\n",
        outputs.len(),
        busy
    ));
    out.push_str(&format!(
        "engine       : {} insertions, {} purged, {} replay-suppressed\n",
        engine_stats.insertions, engine_stats.purged, engine_stats.replayed_suppressed
    ));
    out.push_str(&format!("{}", pairs_table(server_stats.as_pairs())));
    Ok(out)
}

/// Parses a metrics-exposition format name.
///
/// # Errors
///
/// Lists the accepted names when `name` matches none.
pub fn parse_metrics_format(name: &str) -> Result<MetricsFormat, String> {
    match name {
        "prom" | "prometheus" => Ok(MetricsFormat::Prometheus),
        "json" => Ok(MetricsFormat::Json),
        "trace" | "trace-json" => Ok(MetricsFormat::TraceJson),
        other => Err(format!(
            "unknown metrics format `{other}` (prom|json|trace)"
        )),
    }
}

/// `sequin stats`: connects to a running server as an observer (the
/// fingerprint-0 wildcard HELLO, so no schema knowledge is needed) and
/// fetches one rendered telemetry document — Prometheus text, the JSON
/// series array, or the structured trace ring. The binary's `--watch`
/// mode calls this in a loop.
///
/// # Errors
///
/// Reports connection, handshake, and protocol failures as display
/// strings.
pub fn fetch_stats(addr: &str, format: MetricsFormat) -> Result<String, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    client.hello(0, "sequin-stats").map_err(|e| e.to_string())?;
    let body = client.metrics(format).map_err(|e| e.to_string())?;
    client.bye();
    Ok(body)
}

/// Renders one `--watch` refresh: every sample of the scraped Prometheus
/// exposition as a `series | labels | value` table, histogram buckets
/// folded away (their `_sum`/`_count` rows stay). Because it is built
/// from the full snapshot rather than a hand-picked allowlist, every
/// series the core exports — including `sequin_retraction_emitted`,
/// `sequin_slack_bound`, and `sequin_trace_spans_dropped` — shows up the
/// moment the engine starts reporting it.
pub fn watch_table(prom: &str) -> String {
    let mut table = sequin_metrics::Table::new(&["series", "labels", "value"]);
    let mut rows = 0usize;
    for line in prom.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let (name, labels) = match series.split_once('{') {
            Some((n, rest)) => (n, rest.trim_end_matches('}')),
            None => (series, ""),
        };
        if name.ends_with("_bucket") {
            continue;
        }
        table.row(&[name.to_owned(), labels.to_owned(), value.to_owned()]);
        rows += 1;
    }
    if rows == 0 {
        return "no series exported yet\n".to_owned();
    }
    table.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequin_engine::DisorderPolicy;

    #[test]
    fn watch_table_surfaces_retraction_and_slack_series() {
        let prom = "\
# HELP sequin_retraction_emitted retractions\n\
# TYPE sequin_retraction_emitted counter\n\
sequin_retraction_emitted{query=\"0\"} 3\n\
sequin_slack_bound{query=\"0\"} 17\n\
sequin_trace_spans_dropped 2\n\
sequin_ingest_latency_ticks_bucket{le=\"1\"} 5\n\
sequin_ingest_latency_ticks_count 5\n";
        let table = watch_table(prom);
        assert!(table.contains("sequin_retraction_emitted"), "{table}");
        assert!(table.contains("sequin_slack_bound"), "{table}");
        assert!(table.contains("sequin_trace_spans_dropped"), "{table}");
        assert!(table.contains("query=\"0\""), "{table}");
        // histogram buckets fold away; their _count rows stay
        assert!(!table.contains("_bucket"), "{table}");
        assert!(
            table.contains("sequin_ingest_latency_ticks_count"),
            "{table}"
        );
        assert_eq!(watch_table("# only comments\n"), "no series exported yet\n");
    }

    #[test]
    fn netbench_verifies_every_policy_against_the_oracle() {
        for policy in [
            DisorderPolicy::Conservative,
            DisorderPolicy::Speculative,
            DisorderPolicy::Lazy,
            DisorderPolicy::AdaptiveSlack { accuracy: 90 },
        ] {
            let spec = StreamSpec {
                events: 600,
                ..StreamSpec::default()
            };
            let opts = EvalOptions {
                policy: Some(policy),
                punctuate_every: Some(100),
                ..EvalOptions::default()
            };
            let out = run_netbench(&spec, &opts).unwrap();
            assert!(out.contains("byte-identical"), "{out}");
            assert!(out.contains("events_ingested"), "{out}");
        }
    }

    fn serve(eval: EvalOptions) -> (Server, String, String) {
        let registry = serve_registry(Some("synthetic"), None).unwrap();
        let opts = ServeOptions {
            addr: "127.0.0.1:0".to_owned(),
            queries: Vec::new(),
            bundle_dir: None,
            eval,
        };
        let (server, addr, banner) = start_server(registry, &opts).unwrap();
        (server, addr.to_string(), banner)
    }

    fn small() -> StreamSpec {
        StreamSpec {
            events: 400,
            ..StreamSpec::default()
        }
    }

    #[test]
    fn serve_and_send_round_trip_over_tcp() {
        let (mut server, addr, banner) = serve(EvalOptions::default());
        assert!(banner.contains("listening"), "{banner}");
        assert!(banner.contains("volatile"), "{banner}");

        let out = send(&addr, &small(), &EvalOptions::default(), true).unwrap();
        assert!(out.contains("sent         : 400 of 400 items"), "{out}");
        assert!(out.contains("policy       : conservative"), "{out}");
        assert!(out.contains("outputs"), "{out}");
        assert!(out.contains("connections_opened"), "{out}");
        server.shutdown();
    }

    #[test]
    fn send_requests_its_policy_and_reports_the_effective_one() {
        let (mut server, addr, banner) = serve(EvalOptions::default());
        assert!(banner.contains("conservative policy"), "{banner}");
        let speculative = EvalOptions {
            policy: Some(DisorderPolicy::Speculative),
            ..EvalOptions::default()
        };
        let out = send(&addr, &small(), &speculative, false).unwrap();
        assert!(out.contains("policy       : speculative"), "{out}");
        // the query is registered now: its policy wins over a new request
        let lazy = EvalOptions {
            policy: Some(DisorderPolicy::Lazy),
            ..EvalOptions::default()
        };
        let out = send(&addr, &small(), &lazy, true).unwrap();
        assert!(out.contains("policy       : speculative"), "{out}");
        server.shutdown();
    }

    #[test]
    fn the_serve_banner_says_what_resume_did() {
        let name = format!("sequin-serve-resume-{}", std::process::id());
        let dir = &std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).unwrap();
        let store = dir.join("srv.ckpt");
        let durable = || EvalOptions {
            checkpoint_every: Some(50),
            store: Some(store.to_string_lossy().into_owned()),
            ..EvalOptions::default()
        };
        let (mut server, addr, banner) = serve(durable());
        assert!(banner.contains("(cold start)"), "no store yet: {banner}");
        send(&addr, &small(), &EvalOptions::default(), false).unwrap();
        server.shutdown();

        let (mut server, _, banner) = serve(durable());
        assert!(banner.contains("(resumed at item 400)"), "{banner}");
        server.shutdown();

        // a store file that exists but holds nothing usable is a cold start
        std::fs::write(&store, b"not a checkpoint store").unwrap();
        let (mut server, _, banner) = serve(durable());
        assert!(banner.contains("(cold start)"), "{banner}");
        server.shutdown();
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn serve_registry_prefers_explicit_schema() {
        let reg = serve_registry(Some("rfid"), Some("A(x:int) B(x:int)")).unwrap();
        assert!(reg.lookup("A").is_some());
        assert!(reg.lookup("SHIPPED").is_none());
        assert!(serve_registry(Some("nope"), None).is_err());
    }
}
