//! The `sequin` command-line tool.
//!
//! ```text
//! sequin explain --types 'A(x:int) B(x:int)' 'PATTERN SEQ(A a, B b) WITHIN 10'
//! sequin run --workload rfid --events 50000 --ooo 0.2 --delay 100
//! sequin run --workload stock --policy speculative --k 200
//! sequin replay --types 'A(x:int) B(x:int)' --trace events.txt 'PATTERN SEQ(A a, B b) WITHIN 10'
//! sequin serve --addr 127.0.0.1:7070 --workload synthetic --checkpoint-every 500 --store srv.ckpt
//! sequin send --addr 127.0.0.1:7070 --events 10000 --ooo 0.3
//! sequin netbench --events 20000 --policy speculative
//! sequin stats --addr 127.0.0.1:7070 --format prom
//! sequin stats --addr 127.0.0.1:7070 --watch --interval 2
//! ```

use sequin::cli;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => print!("{output}"),
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    }
}

const USAGE: &str = "usage:
  sequin explain  --types '<schema>' '<query>'
  sequin run      --workload synthetic|rfid|intrusion|stock [stream] [eval]
                  [--checkpoint-every N] [--store FILE] ['<query>']
  sequin replay   --types '<schema>' --trace <file> [eval]
                  [--checkpoint-every N] [--store FILE] '<query>'
  sequin serve    --addr HOST:PORT [--types '<schema>' | --workload NAME]
                  [eval] [--obs on|off] [--checkpoint-every N] [--store FILE]
                  [--bundle-dir DIR] ['<query>' ...]
  sequin send     --addr HOST:PORT [stream] [--policy NAME] [--punctuate N]
                  [--batch N] [--drain yes|no] ['<query>']
  sequin netbench [stream] [eval] [--batch N] [--obs on|off] ['<query>']
  sequin stats    --addr HOST:PORT [--format prom|json|trace]
                  [--watch] [--interval SECS]
  sequin trace    (--addr HOST:PORT | --bundle FILE) [--query N]
                  [--pid HEX] [--format text|json]
  sequin sim      [--ci] [--seeds 1,2,3 | --seed S] [--cases N]
                  [--case N] [--time-budget SECS] [--shrink yes|no]
                  [--emit-repro DIR] [--purge-skew N] [--retraction-drop N]
                  [--policy NAME|mixed] [--no-loopback]
                  [--json FILE] [--bundle-dir DIR]

  stream = [--workload NAME] [--events N] [--ooo F] [--delay D] [--seed S]
  eval   = [--k K] [--adaptive F] [--policy NAME] [--punctuate N]
  A flag a subcommand does not list is an error.

options:
  --events N        events to generate (default 50000; networked 10000)
  --ooo F           out-of-order fraction 0..1 (default 0.2)
  --delay D         max lateness in ticks (default 100)
  --seed S          workload/disorder seed (default 42)
  --k K             disorder bound / adaptive floor (default 100)
  --adaptive F      estimate K from observed lateness, safety factor F
  --punctuate N     inject a punctuation every N events
  --policy NAME     disorder policy: conservative|speculative|lazy|
                    adaptive[:ACCURACY] (accuracy 0-100, default 90;
                    `aggressive` is kept as an alias for speculative;
                    sim also accepts `mixed` to draw one per query;
                    send requests it at SUBSCRIBE, default the server's)
  --batch N         events per EVENT_BATCH frame (default 64)
  --obs on|off      serve/netbench: engine observability recorder
                    (default on; off removes all instrumentation cost)
  --format NAME     stats: exposition format prom|json|trace
                    (default prom); trace: text|json (default text)
  --watch           stats: redraw a curated series table continuously
                    instead of printing the raw exposition once
  --interval S      stats: refresh period in seconds for --watch
                    (default 2)
  --checkpoint-every N  checkpoint engine state every N events
  --store FILE      checkpoint store to resume from and save to; needs
                    --checkpoint-every. run/replay: rerun with the same
                    workload/seed for exactly-once continuation; serve:
                    clients replay from the HELLO_ACK resume cursor
  --cases N         sim: cases generated per seed (default 100)
  --case N          sim: replay one case index and print the verdict
  --time-budget S   sim: stop cleanly after S seconds
  --shrink yes|no   sim: minimize failing cases (default yes)
  --emit-repro DIR  sim: write failure repros as .rs files into DIR
  --purge-skew N    sim: sabotage purge thresholds by N ticks (the
                    harness must then report mismatches)
  --retraction-drop N  sim: sabotage by silently dropping the Nth
                    speculative retraction (the harness must catch it)
  --no-loopback     sim: skip the networked loopback path
  --bundle-dir DIR  sim: write each mismatch's postmortem bundle here;
                    serve: where recovery-fallback bundles land (default:
                    the store file's directory)
  --ci              sim: fixed CI preset (seeds 1-4, 800 cases, 80s
                    budget, SIM_ci.json, repros into sim-repros/,
                    bundles into sim-bundles/)
  --bundle FILE     trace: render an on-disk postmortem bundle (.sqpm)
  --query N         trace: restrict lineage to one query id
  --pid HEX         trace: restrict lineage to one provenance id

schema DSL: 'TYPE(field:kind,...) ...' with kinds int|float|str|bool;
declarations are separated by whitespace, `,` or `;`";

type Flags = std::collections::HashMap<String, String>;

/// Every flag of the usage text and whether it takes a value. Any other
/// `--name` is an error, so a misspelt flag cannot run the defaults and
/// exit 0.
const FLAGS: &[(&str, bool)] = &[
    ("adaptive", true),
    ("addr", true),
    ("batch", true),
    ("bundle", true),
    ("bundle-dir", true),
    ("case", true),
    ("cases", true),
    ("checkpoint-every", true),
    ("ci", false),
    ("delay", true),
    ("drain", true),
    ("emit-repro", true),
    ("events", true),
    ("format", true),
    ("interval", true),
    ("json", true),
    ("k", true),
    ("no-loopback", false),
    ("obs", true),
    ("ooo", true),
    ("pid", true),
    ("policy", true),
    ("punctuate", true),
    ("purge-skew", true),
    ("query", true),
    ("retraction-drop", true),
    ("seed", true),
    ("seeds", true),
    ("shrink", true),
    ("store", true),
    ("time-budget", true),
    ("trace", true),
    ("types", true),
    ("watch", false),
    ("workload", true),
];

/// The flags of the usage text's `stream` and `eval`.
const STREAM: &str = "workload events ooo delay seed";
const EVAL: &str = "k adaptive policy punctuate";

/// Each subcommand and the flags it reads, in space-separated groups. Any
/// other flag is an error before a file or socket is touched, so none is
/// accepted and then ignored.
const COMMANDS: &[(&str, &[&str])] = &[
    ("explain", &["types"]),
    ("run", &[STREAM, EVAL, "checkpoint-every store"]),
    ("replay", &["types trace", EVAL, "checkpoint-every store"]),
    (
        "serve",
        &[
            "addr types workload bundle-dir obs",
            EVAL,
            "checkpoint-every store",
        ],
    ),
    ("send", &["addr drain policy punctuate batch", STREAM]),
    ("netbench", &[STREAM, EVAL, "batch obs"]),
    ("stats", &["addr format watch interval"]),
    ("trace", &["addr bundle query pid format"]),
    (
        "sim",
        &[
            "ci seeds seed cases case time-budget shrink purge-skew",
            "retraction-drop policy no-loopback json emit-repro bundle-dir",
        ],
    ),
];

/// The flags `command` reads, or `None` for an unknown subcommand.
fn flags_of(command: &str) -> Option<Vec<&'static str>> {
    let (_, groups) = COMMANDS.iter().find(|(name, _)| *name == command)?;
    Some(groups.iter().flat_map(|g| g.split(' ')).collect())
}

/// An integer flag, parsed as the unsigned type it feeds: negatives and
/// fractions are errors, and a seed above 2^53 keeps every bit.
fn get_int<T: std::str::FromStr>(flags: &Flags, name: &str) -> Result<Option<T>, String> {
    flags
        .get(name)
        .map(|v| {
            v.parse::<T>()
                .map_err(|_| format!("--{name} expects a non-negative integer, got `{v}`"))
        })
        .transpose()
}

/// A comma-separated list of integers (`sim --seeds 1,2,3`); an empty
/// element, and so an empty list, is an error.
fn get_list<T: std::str::FromStr>(flags: &Flags, name: &str) -> Result<Option<Vec<T>>, String> {
    flags
        .get(name)
        .map(|list| {
            list.split(',')
                .map(|p| {
                    p.trim().parse::<T>().map_err(|_| {
                        format!("--{name} expects integers like `1,2,3`, got `{list}`")
                    })
                })
                .collect()
        })
        .transpose()
}

fn get_float(flags: &Flags, name: &str, default: f64) -> Result<f64, String> {
    match flags.get(name) {
        Some(v) => v
            .parse::<f64>()
            .map_err(|_| format!("--{name} expects a number")),
        None => Ok(default),
    }
}

/// `--ooo`: the share of events delivered late, so a probability.
fn get_ooo(flags: &Flags) -> Result<f64, String> {
    let v = get_float(flags, "ooo", 0.2)?;
    if (0.0..=1.0).contains(&v) {
        Ok(v)
    } else {
        Err(format!(
            "--ooo expects a fraction in 0..=1, got `{}`",
            flags["ooo"]
        ))
    }
}

/// `--checkpoint-every`: a period in events, so at least 1. A `--store`
/// path needs one: without a period nothing would ever be written to it.
fn get_checkpoint_every(flags: &Flags) -> Result<Option<u64>, String> {
    match (
        get_int(flags, "checkpoint-every")?,
        flags.contains_key("store"),
    ) {
        (Some(0), _) => Err("--checkpoint-every expects an integer >= 1, got `0`".to_owned()),
        (None, true) => Err("--store needs --checkpoint-every".to_owned()),
        (every, _) => Ok(every),
    }
}

/// Splits `command`'s arguments into flags and positionals, refusing a
/// flag outside the subcommand's row of [`COMMANDS`].
fn parse(command: &str, args: &[String]) -> Result<(Flags, Vec<String>), String> {
    let reads = flags_of(command).ok_or_else(|| format!("unknown subcommand `{command}`"))?;
    let mut flags = Flags::new();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(name) = a.strip_prefix("--") else {
            positional.push(a.clone());
            continue;
        };
        let &(_, takes_value) = FLAGS
            .iter()
            .find(|(known, _)| *known == name)
            .ok_or_else(|| format!("unknown flag --{name}"))?;
        if !reads.contains(&name) {
            return Err(format!("--{name} is not a flag of `{command}`"));
        }
        let value = if takes_value {
            it.next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?
                .clone()
        } else {
            "true".to_owned()
        };
        flags.insert(name.to_owned(), value);
    }
    Ok((flags, positional))
}

fn run(args: &[String]) -> Result<String, String> {
    let (command, args) = args.split_first().ok_or("missing subcommand")?;
    if matches!(command.as_str(), "help" | "--help" | "-h") {
        return Ok(format!("{USAGE}\n"));
    }
    let (flags, positional) = parse(command, args)?;
    match command.as_str() {
        "explain" => {
            let schema = flags
                .get("types")
                .ok_or("explain needs --types '<schema>'")?;
            let query = positional.first().ok_or("explain needs a query argument")?;
            cli::explain(schema, query)
        }
        "run" => {
            flags.get("workload").ok_or("run needs --workload <name>")?;
            let spec = stream_spec(&flags, &positional, 50_000)?;
            cli::evaluate(&spec, &eval_options(&flags)?)
        }
        "replay" => {
            let schema = flags
                .get("types")
                .ok_or("replay needs --types '<schema>'")?;
            let path = flags.get("trace").ok_or("replay needs --trace <file>")?;
            let query = positional.first().ok_or("replay needs a query argument")?;
            let opts = eval_options(&flags)?;
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read trace `{path}`: {e}"))?;
            let spec = cli::StreamSpec {
                trace: Some((schema.clone(), text)),
                query: query.clone(),
                ..cli::StreamSpec::default()
            };
            cli::evaluate(&spec, &opts)
        }
        "serve" => {
            let registry = cli::serve_registry(
                flags.get("workload").map(String::as_str),
                flags.get("types").map(String::as_str),
            )?;
            let serve_opts = cli::ServeOptions {
                addr: flags
                    .get("addr")
                    .cloned()
                    .ok_or("serve needs --addr <host:port>")?,
                queries: positional,
                bundle_dir: flags.get("bundle-dir").cloned(),
                eval: eval_options(&flags)?,
            };
            let (_server, _addr, banner) = cli::start_server(registry, &serve_opts)?;
            print!("{banner}");
            // serve until the process is killed; durable state persists on
            // every dirty message, so a kill here is the crash-restart path
            loop {
                std::thread::park();
            }
        }
        "send" => {
            let addr = flags.get("addr").ok_or("send needs --addr <host:port>")?;
            let drain = match flags.get("drain").map(String::as_str) {
                None | Some("yes") | Some("true") => true,
                Some("no") | Some("false") => false,
                Some(other) => return Err(format!("--drain expects yes|no, got `{other}`")),
            };
            let spec = stream_spec(&flags, &positional, 10_000)?;
            cli::send(addr, &spec, &eval_options(&flags)?, drain)
        }
        "stats" => {
            let addr = flags.get("addr").ok_or("stats needs --addr <host:port>")?;
            let format = cli::parse_metrics_format(
                flags.get("format").map(String::as_str).unwrap_or("prom"),
            )?;
            if flags.contains_key("watch") {
                let interval = get_float(&flags, "interval", 2.0)?.max(0.1);
                let curated = !flags.contains_key("format");
                loop {
                    // the curated table always renders from the prom
                    // scrape; an explicit --format keeps the raw body
                    let body = if curated {
                        cli::watch_table(&cli::fetch_stats(
                            addr,
                            cli::parse_metrics_format("prom")?,
                        )?)
                    } else {
                        cli::fetch_stats(addr, format)?
                    };
                    // clear screen + home, like `watch(1)`
                    print!("\x1b[2J\x1b[H{body}");
                    use std::io::Write as _;
                    std::io::stdout().flush().ok();
                    std::thread::sleep(std::time::Duration::from_secs_f64(interval));
                }
            }
            cli::fetch_stats(addr, format)
        }
        "netbench" => {
            let spec = stream_spec(&flags, &positional, 10_000)?;
            cli::run_netbench(&spec, &eval_options(&flags)?)
        }
        "sim" => {
            let mut s = if flags.contains_key("ci") {
                cli::SimCliOptions::ci()
            } else {
                cli::SimCliOptions::default()
            };
            if let Some(seeds) = get_list(&flags, "seeds")? {
                s.opts.seeds = seeds;
            }
            if let Some(seed) = get_int(&flags, "seed")? {
                s.opts.seeds = vec![seed];
            }
            if let Some(n) = get_int(&flags, "cases")? {
                s.opts.cases_per_seed = n;
            }
            s.replay_case = get_int(&flags, "case")?;
            if let Some(secs) = flags.get("time-budget") {
                let secs = secs
                    .parse::<f64>()
                    .map_err(|_| "--time-budget expects seconds".to_owned())?;
                s.opts.time_budget = Some(std::time::Duration::from_secs_f64(secs.max(0.0)));
            }
            match flags.get("shrink").map(String::as_str) {
                None | Some("yes") | Some("true") => {}
                Some("no") | Some("false") => s.opts.shrink = false,
                Some(other) => return Err(format!("--shrink expects yes|no, got `{other}`")),
            }
            if let Some(n) = get_int(&flags, "purge-skew")? {
                s.opts.purge_skew = n;
            }
            if let Some(n) = get_int(&flags, "retraction-drop")? {
                s.opts.retraction_drop = n;
            }
            if let Some(name) = flags.get("policy") {
                s.opts.policy = match name.as_str() {
                    "all" | "mixed" => None, // per-query mix (the default)
                    other => Some(cli::parse_policy(other)?),
                };
            }
            s.opts.no_loopback = flags.contains_key("no-loopback");
            if let Some(p) = flags.get("json") {
                s.json_out = Some(p.clone());
            }
            if let Some(p) = flags.get("emit-repro") {
                s.emit_repro = Some(p.clone());
            }
            if let Some(dir) = flags.get("bundle-dir") {
                s.opts.bundle_dir = Some(std::path::PathBuf::from(dir));
            }
            cli::run_sim(&s)
        }
        "trace" => {
            let t = cli::TraceOptions {
                bundle: flags.get("bundle").cloned(),
                addr: flags.get("addr").cloned(),
                query: get_int(&flags, "query")?,
                pid: flags.get("pid").map(|v| cli::parse_pid(v)).transpose()?,
                json: match flags.get("format").map(String::as_str) {
                    None | Some("text") => false,
                    Some("json") => true,
                    Some(other) => {
                        return Err(format!("trace --format expects text|json, got `{other}`"))
                    }
                },
            };
            cli::run_trace(&t)
        }
        other => unreachable!("`{other}` is not a row of COMMANDS"),
    }
}

/// The evaluation settings, each read from its flag once; a flag the
/// subcommand does not read was refused by [`parse`] and keeps its
/// default. `sim` reads `--policy` itself, with a value (`mixed`) this
/// parser rejects.
fn eval_options(flags: &Flags) -> Result<cli::EvalOptions, String> {
    Ok(cli::EvalOptions {
        k: get_int(flags, "k")?.unwrap_or(100),
        adaptive: flags
            .get("adaptive")
            .map(|v| match v.parse::<f64>() {
                Ok(f) if f.is_finite() && f >= 0.0 => Ok(f),
                _ => Err(format!(
                    "--adaptive expects a finite factor >= 0, got `{v}`"
                )),
            })
            .transpose()?,
        policy: flags
            .get("policy")
            .map(|name| cli::parse_policy(name))
            .transpose()?,
        punctuate_every: get_int(flags, "punctuate")?,
        checkpoint_every: get_checkpoint_every(flags)?,
        store: flags.get("store").cloned(),
        batch: get_int(flags, "batch")?.unwrap_or(64),
        obs: match flags.get("obs").map(String::as_str) {
            None | Some("on") | Some("yes") | Some("true") => sequin_obs::ObsConfig::default(),
            Some("off") | Some("no") | Some("false") => sequin_obs::ObsConfig::disabled(),
            Some(other) => return Err(format!("--obs expects on|off, got `{other}`")),
        },
    })
}

/// The generated stream of `run`, `send` and `netbench`; `events` is the
/// subcommand's default length.
fn stream_spec(
    flags: &Flags,
    positional: &[String],
    events: usize,
) -> Result<cli::StreamSpec, String> {
    Ok(cli::StreamSpec {
        workload: flags
            .get("workload")
            .cloned()
            .unwrap_or_else(|| "synthetic".to_owned()),
        trace: None,
        query: positional.first().cloned().unwrap_or_default(),
        events: get_int(flags, "events")?.unwrap_or(events),
        ooo: get_ooo(flags)?,
        max_delay: get_int(flags, "delay")?.unwrap_or(100),
        seed: get_int(flags, "seed")?.unwrap_or(42),
    })
}

#[cfg(test)]
mod tests {
    use super::{eval_options, flags_of, parse, run, COMMANDS, FLAGS};

    fn sequin(args: &[&str]) -> Result<String, String> {
        run(&args.iter().map(|a| (*a).to_owned()).collect::<Vec<_>>())
    }

    const SMALL_RUN: [&str; 5] = ["run", "--workload", "synthetic", "--events", "300"];

    #[test]
    fn misspelt_flags_are_rejected_by_name() {
        assert!(sequin(&SMALL_RUN).is_ok());
        let err = sequin(&[&SMALL_RUN[..], &["--shard", "4"]].concat()).unwrap_err();
        assert_eq!(err, "unknown flag --shard");
        // the plan runs on one thread: the worker-count flag is gone
        let err = sequin(&[&SMALL_RUN[..], &["--shards", "2"]].concat()).unwrap_err();
        assert_eq!(err, "unknown flag --shards");
        // one store flag serves run, replay and serve
        let err = sequin(&[&SMALL_RUN[..], &["--resume-from", "x"]].concat()).unwrap_err();
        assert_eq!(err, "unknown flag --resume-from");
        let err = sequin(&["netbench", "--events", "300", "--polcy", "lazy"]).unwrap_err();
        assert_eq!(err, "unknown flag --polcy");
        // the deleted benchmark took its flags and its subcommand with it
        let err = sequin(&[&SMALL_RUN[..], &["--refresh-baseline"]].concat()).unwrap_err();
        assert_eq!(err, "unknown flag --refresh-baseline");
        let err = sequin(&["bench", "--ci"]).unwrap_err();
        assert_eq!(err, "unknown subcommand `bench`");
        // so did the second sim mode: every case is a query set now
        let err = sequin(&["sim", "--multi", "--cases", "1"]).unwrap_err();
        assert_eq!(err, "unknown flag --multi");
        // boolean flags still take no value, valued flags still need one
        assert!(sequin(&["sim", "--cases", "1", "--no-loopback"]).is_ok());
        // sim's own reading of --policy is not pre-empted by the run/serve
        // parsers
        assert!(sequin(&["sim", "--cases", "1", "--policy", "mixed"]).is_ok());
        let err = sequin(&["run", "--workload"]).unwrap_err();
        assert_eq!(err, "flag --workload needs a value");
        // a query is positional; --query (trace's integer filter) used to
        // be swallowed and the flagship query run in its place
        let query = ["--query", "PATTERN SEQ(T0 a, T1 b) WITHIN 5"];
        let err = sequin(&[&["netbench", "--events", "300"], &query[..]].concat()).unwrap_err();
        assert_eq!(err, "--query is not a flag of `netbench`");
    }

    /// Every (subcommand, flag) pair: a flag in the subcommand's row
    /// parses, any other is refused by name before a file or socket is
    /// touched.
    #[test]
    fn a_flag_a_subcommand_does_not_read_is_an_error() {
        let probe = "target/flag-contract-probe";
        for &(command, _) in COMMANDS {
            let reads = flags_of(command).unwrap();
            for &(flag, takes_value) in FLAGS {
                let mut args = vec![command.to_owned(), format!("--{flag}")];
                if takes_value {
                    args.push(probe.to_owned());
                }
                if reads.contains(&flag) {
                    let parsed = parse(command, &args[1..]);
                    assert!(parsed.is_ok(), "{command} --{flag}: {parsed:?}");
                } else {
                    let want = format!("--{flag} is not a flag of `{command}`");
                    assert_eq!(run(&args), Err(want));
                    assert!(!std::path::Path::new(probe).exists(), "{command} --{flag}");
                }
            }
            // a row names only flags of the usage text
            for flag in reads {
                let known = FLAGS.iter().any(|&(f, _)| f == flag);
                assert!(known, "{command} reads --{flag}, which is not in FLAGS");
            }
        }
        for (flag, _) in FLAGS {
            let read = COMMANDS
                .iter()
                .any(|(c, _)| flags_of(c).unwrap().contains(flag));
            assert!(read, "--{flag} is read by no subcommand");
        }
        assert_eq!(FLAGS.len(), 35);
    }

    #[test]
    fn serve_and_netbench_evaluate_under_the_adaptive_bound() {
        for command in ["serve", "netbench"] {
            let args = ["--adaptive".to_owned(), "2.5".to_owned()];
            let (flags, _) = parse(command, &args).unwrap();
            let config = eval_options(&flags).unwrap().engine_config();
            assert_eq!(config.adaptive_k, Some(2.5), "{command}");
        }
        // and the loopback server still streams the oracle's bytes
        let out = sequin(&["netbench", "--events", "600", "--adaptive", "2"]).unwrap();
        assert!(out.contains("byte-identical"), "{out}");
    }

    #[test]
    fn sim_replays_one_case_and_names_each_failing_query() {
        // seed 1 case 7 holds three queries
        let three = ["sim", "--seed", "1", "--case", "7", "--purge-skew", "50"];
        let report = sequin(&[&three[..], &["--no-loopback", "--shrink", "no"]].concat())
            .expect_err("a 50-tick purge skew must be reported");
        assert!(report.contains("query 2      : "), "{report}");
        for path in ["batched — query 1", "crash-resume — query 2"] {
            assert!(report.contains(path), "no `{path}` in {report}");
        }
    }

    #[test]
    fn integer_flags_reject_negatives_and_fractions_and_keep_every_bit() {
        for (flag, bad) in [
            ("--events", "-5"),
            ("--events", "1e3"),
            ("--delay", "2.5"),
            ("--seed", "-1"),
            ("--k", "1.0"),
            ("--punctuate", "0.5"),
            ("--checkpoint-every", "-1"),
        ] {
            let err = sequin(&[&SMALL_RUN[..], &[flag, bad]].concat()).unwrap_err();
            assert!(
                err.starts_with(&format!("{flag} expects a non-negative integer")),
                "{flag} {bad}: {err}"
            );
        }
        let err = sequin(&["netbench", "--events", "300", "--batch", "-8"]).unwrap_err();
        assert!(err.starts_with("--batch expects"), "{err}");

        // through f64, 2^53 and 2^53 + 1 were the same seed
        let stream = |seed: &str| {
            let out = sequin(&[&SMALL_RUN[..], &["--seed", seed]].concat()).unwrap();
            out.lines()
                .find(|l| l.starts_with("stream"))
                .map(str::to_owned)
        };
        assert_ne!(stream("9007199254740992"), stream("9007199254740993"));
    }

    #[test]
    fn out_of_range_values_are_errors_not_panics_or_unbounded_runs() {
        // each of these used to reach the run: --ooo outside 0..=1
        // panicked in the disorder generator, a negative or non-finite
        // --adaptive disabled purging, --checkpoint-every 0 wrote a
        // checkpoint per event
        let replay = ["replay", "--types", "A(x:int)", "--trace", "/nonexistent"];
        let cases: [(&[&str], &str, &[&str]); 5] = [
            (&SMALL_RUN, "--ooo", &["2", "nan", "-0.5", "inf"]),
            (&["netbench", "--events", "300"], "--ooo", &["-0.5", "1.01"]),
            (&SMALL_RUN, "--adaptive", &["-1", "nan", "inf", "x"]),
            (&SMALL_RUN, "--checkpoint-every", &["0"]),
            (&replay, "--checkpoint-every", &["0"]),
        ];
        for (base, flag, values) in cases {
            for bad in values {
                let err = sequin(&[base, &[flag, bad, "PATTERN SEQ(A a) WITHIN 1"]].concat())
                    .unwrap_err();
                assert!(
                    err.starts_with(&format!("{flag} expects")) && err.contains(bad),
                    "{flag} {bad}: {err}"
                );
            }
        }
        // the networked subcommands validate before they open a socket
        for (command, flag, bad) in [
            ("serve", "--adaptive", "-1"),
            ("serve", "--checkpoint-every", "0"),
            ("send", "--ooo", "2"),
        ] {
            let args = [command, "--addr", "127.0.0.1:1", "--workload", "synthetic"];
            let err = sequin(&[&args[..], &[flag, bad]].concat()).unwrap_err();
            assert!(
                err.starts_with(&format!("{flag} expects")),
                "{command} {flag}: {err}"
            );
        }
        // a store path without a period: `run`/`replay` used to checkpoint
        // on every watermark advance, `serve` never wrote the file
        let replay = ["replay", "--types", "A(x:int)", "--trace", "/nonexistent"];
        let serve = ["serve", "--addr", "127.0.0.1:1", "--workload", "synthetic"];
        for base in [&SMALL_RUN[..], &replay, &serve] {
            let path = ["--store", "target/never-written.ckpt"];
            let err = sequin(&[base, &path, &["PATTERN SEQ(A a) WITHIN 1"]].concat()).unwrap_err();
            assert_eq!(err, "--store needs --checkpoint-every", "{base:?}");
            assert!(!std::path::Path::new(path[1]).exists());
        }
        // the bounds themselves are valid
        let edge = ["--ooo", "1", "--adaptive", "0", "--checkpoint-every", "1"];
        assert!(sequin(&[&SMALL_RUN[..], &edge].concat()).is_ok());
        assert!(sequin(&[&SMALL_RUN[..], &["--ooo", "0"]].concat()).is_ok());
    }
}
