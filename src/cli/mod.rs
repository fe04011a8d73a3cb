//! Logic behind the `sequin` command-line tool (kept in the library so it
//! is unit-testable; `src/bin/sequin.rs` is a thin wrapper). One file per
//! subcommand family — `run` (`run`, `replay`), `net` (`serve`, `send`,
//! `netbench`, `stats`), `trace`, `sim` — with the schema DSL, `explain`
//! and the name parsers they share kept here.

mod net;
mod run;
mod sim;
mod trace;

pub use net::{
    fetch_stats, parse_metrics_format, run_netbench, send, serve_registry, start_server,
    watch_table, ServeOptions,
};
pub use run::{build_workload, evaluate};
pub use sim::{run_sim, SimCliOptions};
pub use trace::{parse_pid, render_bundle, run_trace, TraceOptions};

use std::sync::Arc;

use sequin_engine::{DisorderPolicy, EngineConfig, Strategy, WatermarkSource};
use sequin_netsim::{delay_shuffle, punctuate};
use sequin_obs::ObsConfig;
use sequin_query::parse;
use sequin_server::CoreConfig;
use sequin_types::{Duration, StreamItem, TypeRegistry, ValueKind};
use sequin_workload::read_trace;

/// The evaluation settings of `run`, `replay`, `serve`, `send` and
/// `netbench`, each read once from its flag. A subcommand gets the
/// default of every flag it does not read.
#[derive(Debug, Clone)]
pub struct EvalOptions {
    /// Disorder bound `K` (or adaptive floor).
    pub k: u64,
    /// Estimate `K` from observed lateness with this safety factor.
    pub adaptive: Option<f64>,
    /// Disorder policy. `None` is conservative, except that `send` then
    /// requests nothing and takes the server's default.
    pub policy: Option<DisorderPolicy>,
    /// Inject a punctuation every `n` events; the watermark then also
    /// follows punctuation.
    pub punctuate_every: Option<usize>,
    /// Checkpoint every `n` ingested items and keep the emission log
    /// (volatile without).
    pub checkpoint_every: Option<u64>,
    /// Checkpoint-store file (`--resume-from` of `run`/`replay`, `--store`
    /// of `serve`): resumed from at start, saved with new checkpoints.
    /// Needs `checkpoint_every` (the CLI rejects the path alone); a resume
    /// replays the regenerated stream, so the same seed/workload must be
    /// used.
    pub store: Option<String>,
    /// Events per EVENT_BATCH frame (`<= 1` sends singletons).
    pub batch: usize,
    /// Observability recorder of the server-side engine core
    /// (`ObsConfig::disabled()` removes all instrumentation overhead).
    pub obs: ObsConfig,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            k: 100,
            adaptive: None,
            policy: None,
            punctuate_every: None,
            checkpoint_every: None,
            store: None,
            batch: 64,
            obs: ObsConfig::default(),
        }
    }
}

impl EvalOptions {
    /// The engine configuration these settings describe.
    pub fn engine_config(&self) -> EngineConfig {
        let k = Duration::new(self.k);
        let mut config = match self.adaptive {
            Some(safety) => EngineConfig::with_adaptive_k(k, safety),
            None => EngineConfig::with_k(k),
        };
        config.policy = self.policy.unwrap_or_default();
        if self.punctuate_every.is_some() {
            config.watermark = WatermarkSource::Both;
        }
        config
    }

    /// A server core over `registry` evaluating under these settings.
    fn core_config(&self, registry: Arc<TypeRegistry>) -> CoreConfig {
        let mut core = CoreConfig::new(registry, Strategy::Native, self.engine_config());
        core.checkpoint_every = self.checkpoint_every;
        core.obs = self.obs;
        core
    }
}

/// The arrival stream a subcommand evaluates or ships: a built-in workload
/// under synthetic disorder, or a recorded trace as it arrived.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Built-in workload name (`synthetic`, `rfid`, `intrusion`, `stock`).
    pub workload: String,
    /// A recorded trace replayed instead of the workload: its schema DSL
    /// and its text (see [`sequin_workload::read_trace`]).
    pub trace: Option<(String, String)>,
    /// Query text; empty selects the workload's flagship query.
    pub query: String,
    /// Events to generate before disorder is applied.
    pub events: usize,
    /// Out-of-order fraction in `0..=1`.
    pub ooo: f64,
    /// Maximum lateness in ticks.
    pub max_delay: u64,
    /// Workload/disorder seed.
    pub seed: u64,
}

impl Default for StreamSpec {
    fn default() -> Self {
        StreamSpec {
            workload: "synthetic".to_owned(),
            trace: None,
            query: String::new(),
            events: 10_000,
            ooo: 0.2,
            max_delay: 100,
            seed: 42,
        }
    }
}

impl StreamSpec {
    /// The schema, the arrival stream (with a punctuation every
    /// `punctuate_every` events when given) and the query text.
    ///
    /// # Errors
    ///
    /// Reports unknown workloads and schema or trace errors as display
    /// strings.
    pub fn prepare(
        &self,
        punctuate_every: Option<usize>,
    ) -> Result<(Arc<TypeRegistry>, Vec<StreamItem>, String), String> {
        let (registry, stream, text) = match &self.trace {
            Some((schema, trace)) => {
                let registry = Arc::new(parse_schema(schema)?);
                let events = read_trace(trace.as_bytes(), &registry).map_err(|e| e.to_string())?;
                let stream = events.into_iter().map(StreamItem::Event).collect();
                (registry, stream, self.query.clone())
            }
            None => {
                let (registry, history, flagship) =
                    build_workload(&self.workload, self.events, self.seed)?;
                let stream = delay_shuffle(&history, self.ooo, self.max_delay.max(1), self.seed);
                let text = if self.query.trim().is_empty() {
                    flagship
                } else {
                    self.query.clone()
                };
                (registry, stream, text)
            }
        };
        let stream = match punctuate_every {
            Some(n) => punctuate(&stream, n.max(1)),
            None => stream,
        };
        Ok((registry, stream, text))
    }
}

/// Parses the schema DSL: type declarations `Name(field:kind, ...)`, kinds
/// `int|float|str|bool`, separated by whitespace and at most one `,` or
/// `;` after each `)`, e.g.
///
/// ```text
/// SHIPPED(tag:int,location:int) SCANNED(tag:int), PING()
/// ```
///
/// # Errors
///
/// Returns a human-readable message for malformed declarations, unknown
/// kinds, or duplicate names.
pub fn parse_schema(text: &str) -> Result<TypeRegistry, String> {
    let mut registry = TypeRegistry::new();
    let mut rest = text.trim();
    while !rest.is_empty() {
        let malformed =
            || format!("expected a type declaration like Name(field:kind, …) at `{rest}`");
        let open = rest.find('(').ok_or_else(malformed)?;
        let name = rest[..open].trim();
        if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(malformed());
        }
        let close = rest[open..]
            .find(')')
            .map(|ix| open + ix)
            .ok_or_else(|| format!("missing `)` for type `{name}`"))?;
        let body = rest[open + 1..close].trim();
        let mut fields: Vec<(&str, ValueKind)> = Vec::new();
        if !body.is_empty() {
            for part in body.split(',') {
                let (fname, fkind) = part
                    .split_once(':')
                    .ok_or_else(|| format!("expected `field:kind` in `{part}` of `{name}`"))?;
                let kind = match fkind.trim() {
                    "int" => ValueKind::Int,
                    "float" => ValueKind::Float,
                    "str" => ValueKind::Str,
                    "bool" => ValueKind::Bool,
                    other => return Err(format!("unknown kind `{other}` in `{name}`")),
                };
                fields.push((fname.trim(), kind));
            }
        }
        registry.declare(name, &fields).map_err(|e| e.to_string())?;
        rest = rest[close + 1..].trim_start();
        rest = rest.strip_prefix([',', ';']).unwrap_or(rest).trim_start();
    }
    if registry.is_empty() {
        return Err("schema declared no types".into());
    }
    Ok(registry)
}

/// `sequin explain`: parses a query against a schema and describes the
/// resolved plan.
///
/// # Errors
///
/// Returns schema or query compilation errors as display strings.
pub fn explain(schema: &str, query_text: &str) -> Result<String, String> {
    let registry = parse_schema(schema)?;
    let query = parse(query_text, &registry).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let pattern: Vec<String> = query
        .components()
        .iter()
        .map(|c| {
            let types: Vec<String> = c
                .types
                .iter()
                .map(|&t| registry.schema(t).name().to_owned())
                .collect();
            format!(
                "{}{} {}",
                if c.negated { "!" } else { "" },
                types.join("|"),
                c.var
            )
        })
        .collect();
    out.push_str(&format!("pattern      : SEQ({})\n", pattern.join(", ")));
    out.push_str(&format!("positives    : {}\n", query.positive_len()));
    for p in 0..query.positive_len() {
        let comp = &query.components()[query.positive_comp(p)];
        let types: Vec<String> = comp
            .types
            .iter()
            .map(|&t| registry.schema(t).name().to_owned())
            .collect();
        out.push_str(&format!(
            "  slot {p}     : {} {} ({} insertion-time predicate(s))\n",
            types.join("|"),
            comp.var,
            query.local_predicates(p).len()
        ));
    }
    for neg in query.negations() {
        let types: Vec<String> = neg
            .types
            .iter()
            .map(|&t| registry.schema(t).name().to_owned())
            .collect();
        let place = match (neg.left, neg.right) {
            (None, Some(_)) => "leading".to_owned(),
            (Some(_), None) => "trailing (sealed emission required)".to_owned(),
            (Some(l), Some(r)) => format!("between slots {l} and {r}"),
            (None, None) => unreachable!("analysis guarantees a flank"),
        };
        out.push_str(&format!(
            "negation     : !{} ({place}, {} predicate(s))\n",
            types.join("|"),
            neg.predicates.len()
        ));
    }
    out.push_str(&format!("window       : {}\n", query.window()));
    out.push_str(&format!(
        "predicates   : {} total, {} cross-component\n",
        query.predicates().len(),
        query.join_predicates().len()
    ));
    match query.partition() {
        Some(scheme) => {
            let key = |p: usize| {
                let comp = &query.components()[query.positive_comp(p)];
                let schema = registry.schema(comp.types[0]);
                let field = schema.field_name(scheme.fields[p]).unwrap_or("?");
                format!("{}.{field}", comp.var)
            };
            let keys: Vec<String> = (0..query.positive_len()).map(key).collect();
            out.push_str(&format!(
                "partitioning : available (equality chain covers all slots), by {}\n",
                keys.join(", ")
            ));
        }
        None => out.push_str("partitioning : not available\n"),
    }
    out.push_str(&format!(
        "projection   : {}\n",
        if query.projections().is_empty() {
            "event ids (default)"
        } else {
            "RETURN clause"
        }
    ));
    Ok(out)
}

/// Parses a disorder-policy name: `conservative`, `speculative`
/// (`aggressive` is accepted as a legacy alias), `lazy`, or
/// `adaptive[:ACCURACY]` with accuracy in `0..=100` (default 90).
///
/// # Errors
///
/// Lists the accepted names when `name` matches none.
pub fn parse_policy(name: &str) -> Result<DisorderPolicy, String> {
    if let Some(rest) = name.strip_prefix("adaptive") {
        let accuracy = match rest.strip_prefix(':') {
            Some(n) => n
                .parse::<u8>()
                .ok()
                .filter(|&a| a <= 100)
                .ok_or_else(|| format!("adaptive accuracy must be 0..=100, got `{n}`"))?,
            None if rest.is_empty() => 90,
            None => {
                return Err(format!(
                    "unknown disorder policy `{name}` (try `adaptive` or `adaptive:90`)"
                ))
            }
        };
        return Ok(DisorderPolicy::AdaptiveSlack { accuracy });
    }
    match name {
        "conservative" => Ok(DisorderPolicy::Conservative),
        "speculative" | "aggressive" => Ok(DisorderPolicy::Speculative),
        "lazy" => Ok(DisorderPolicy::Lazy),
        other => Err(format!(
            "unknown disorder policy `{other}` \
             (conservative|speculative|lazy|adaptive[:N])"
        )),
    }
}

fn policy_name(policy: DisorderPolicy) -> String {
    match policy {
        DisorderPolicy::Conservative => "conservative".to_owned(),
        DisorderPolicy::Speculative => "speculative".to_owned(),
        DisorderPolicy::Lazy => "lazy".to_owned(),
        DisorderPolicy::AdaptiveSlack { accuracy } => format!("adaptive:{accuracy}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_dsl_parses_all_kinds() {
        let reg = parse_schema("A(x:int, s:str) B(f:float,ok:bool) PING()").unwrap();
        assert_eq!(reg.len(), 3);
        let a = reg.lookup("A").unwrap();
        assert_eq!(reg.schema(a).field("s").unwrap().1, ValueKind::Str);
        let ping = reg.lookup("PING").unwrap();
        assert_eq!(reg.schema(ping).arity(), 0);
    }

    #[test]
    fn schema_dsl_accepts_one_separator_between_declarations() {
        for text in [
            "A(x:int,tag:int) B(x:int,tag:int)",
            "A(x:int,tag:int), B(x:int,tag:int)",
            "A(x:int,tag:int);B(x:int,tag:int) ;",
        ] {
            let reg = parse_schema(text).unwrap_or_else(|e| panic!("`{text}`: {e}"));
            assert_eq!(reg.len(), 2, "`{text}`");
            assert!(reg.lookup("B").is_some(), "`{text}`");
        }
        for text in ["A(x:int),, B(x:int)", "A(x:int) , ; B(x:int)"] {
            let err = parse_schema(text).unwrap_err();
            let want = "expected a type declaration like Name(field:kind, …)";
            assert!(err.contains(want), "`{text}`: {err}");
        }
    }

    #[test]
    fn schema_dsl_rejects_garbage() {
        assert!(parse_schema("").is_err());
        assert!(parse_schema("A").is_err());
        assert!(parse_schema("A(x)").is_err());
        assert!(parse_schema("A(x:void)").is_err());
        assert!(parse_schema("A(x:int").is_err());
        assert!(parse_schema("A(x:int) A(y:int)").is_err());
        assert!(parse_schema("A-B(x:int)").is_err());
    }

    #[test]
    fn explain_describes_the_plan() {
        let out = explain(
            "SHIPPED(tag:int) SCANNED(tag:int) RECEIVED(tag:int)",
            "PATTERN SEQ(SHIPPED s, !SCANNED c, RECEIVED r) \
             WHERE s.tag == r.tag AND c.tag == s.tag WITHIN 100",
        )
        .unwrap();
        assert!(out.contains("positives    : 2"));
        assert!(out.contains("negation"));
        assert!(out.contains("partitioning : available"));
        assert!(out.contains("by s.tag, r.tag"), "{out}");
    }

    #[test]
    fn explain_reports_query_errors() {
        let err = explain("A(x:int)", "PATTERN SEQ(B b) WITHIN 5").unwrap_err();
        assert!(err.contains("unknown event type"));
    }

    #[test]
    fn policy_names() {
        assert_eq!(
            parse_policy("conservative").unwrap(),
            DisorderPolicy::Conservative
        );
        assert_eq!(
            parse_policy("speculative").unwrap(),
            DisorderPolicy::Speculative
        );
        // legacy alias kept for existing scripts and CI configs
        assert_eq!(
            parse_policy("aggressive").unwrap(),
            DisorderPolicy::Speculative
        );
        assert_eq!(parse_policy("lazy").unwrap(), DisorderPolicy::Lazy);
        assert_eq!(
            parse_policy("adaptive").unwrap(),
            DisorderPolicy::AdaptiveSlack { accuracy: 90 }
        );
        assert_eq!(
            parse_policy("adaptive:50").unwrap(),
            DisorderPolicy::AdaptiveSlack { accuracy: 50 }
        );
        assert!(parse_policy("adaptive:101").is_err());
        assert!(parse_policy("adaptive:x").is_err());
        assert!(parse_policy("eager").is_err());

        assert_eq!(policy_name(DisorderPolicy::Conservative), "conservative");
        assert_eq!(
            policy_name(DisorderPolicy::AdaptiveSlack { accuracy: 75 }),
            "adaptive:75"
        );
    }
}
