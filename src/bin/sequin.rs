//! The `sequin` command-line tool.
//!
//! ```text
//! sequin explain --types 'A(x:int) B(x:int)' 'PATTERN SEQ(A a, B b) WITHIN 10'
//! sequin run --workload rfid --events 50000 --ooo 0.2 --delay 100
//! sequin run --workload stock --strategy buffered --k 200
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
  sequin run      --workload synthetic|rfid|intrusion|stock [options] ['<query>']
  sequin replay   --types '<schema>' --trace <file> [options] '<query>'
  sequin serve    --addr HOST:PORT [--types '<schema>' | --workload NAME]
                  [--store FILE] [options] ['<query>' ...]
  sequin send     --addr HOST:PORT [--workload NAME] [--drain yes|no]
                  [options] ['<query>']
  sequin netbench [--workload NAME] [options] ['<query>']
  sequin stats    --addr HOST:PORT [--format prom|json|trace]
                  [--watch] [--interval SECS]
  sequin trace    (--addr HOST:PORT | --bundle FILE) [--query N]
                  [--pid HEX] [--format text|json]
  sequin sim      [--ci] [--seeds 1,2,3 | --seed S] [--cases N]
                  [--case N] [--time-budget SECS] [--shrink yes|no]
                  [--emit-repro DIR] [--purge-skew N] [--retraction-drop N]
                  [--policy NAME|mixed] [--no-loopback]
                  [--shards 2,7] [--json FILE] [--bundle-dir DIR]

options:
  --events N        events to generate (default 50000; networked 10000)
  --ooo F           out-of-order fraction 0..1 (default 0.2)
  --delay D         max lateness in ticks (default 100)
  --seed S          workload/disorder seed (default 42)
  --strategy NAME   native|buffered|inorder (default native)
  --k K             disorder bound / adaptive floor (default 100)
  --adaptive F      estimate K from observed lateness, safety factor F
  --punctuate N     inject a punctuation every N events
  --policy NAME     disorder policy: conservative|speculative|lazy|
                    adaptive[:ACCURACY] (accuracy 0-100, default 90;
                    `aggressive` is kept as an alias for speculative;
                    sim also accepts `mixed` to draw one per query)
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
  --resume-from FILE    resume from (and save to) a checkpoint store;
                        needs --checkpoint-every; rerun with the same
                        workload/seed for exactly-once continuation
  --store FILE      serve: checkpoint-store path; needs --checkpoint-every
                    (exactly-once restart: clients replay from the
                    HELLO_ACK resume cursor)
  --shards N        workers running the native plan, N >= 1 (default 1;
                    1 only under --strategy buffered|inorder; sim takes a
                    comma-separated list of counts and runs every
                    case's host at each, with crash+resume changing
                    from the first count to the last)
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
    ("resume-from", true),
    ("retraction-drop", true),
    ("seed", true),
    ("seeds", true),
    ("shards", true),
    ("shrink", true),
    ("store", true),
    ("strategy", true),
    ("time-budget", true),
    ("trace", true),
    ("types", true),
    ("watch", false),
    ("workload", true),
];

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

/// `--checkpoint-every`: a period in events, so at least 1. A store path
/// (`--resume-from`, `--store`) needs one: without a period nothing would
/// ever be written to it, or everything on every event.
fn get_checkpoint_every(flags: &Flags) -> Result<Option<u64>, String> {
    let store = ["resume-from", "store"]
        .into_iter()
        .find(|path| flags.contains_key(*path));
    match (get_int(flags, "checkpoint-every")?, store) {
        (Some(0), _) => Err("--checkpoint-every expects an integer >= 1, got `0`".to_owned()),
        (None, Some(path)) => Err(format!("--{path} needs --checkpoint-every")),
        (every, _) => Ok(every),
    }
}

/// `--shards` for everything but `sim`: how many workers run the plan, so
/// at least one, and more than one only where there is a plan to run.
fn get_shards(flags: &Flags, strategy: sequin::engine::Strategy) -> Result<usize, String> {
    match get_int(flags, "shards")?.unwrap_or(1) {
        0 => Err("--shards expects an integer >= 1, got `0`".to_owned()),
        n if n > 1 && strategy != sequin::engine::Strategy::Native => Err(format!(
            "--shards expects 1 under --strategy buffered|inorder \
             (only the native plan runs on a pool), got `{n}`"
        )),
        n => Ok(n),
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let mut it = args.iter();
    let command = it.next().ok_or("missing subcommand")?;

    // collect flags and positionals
    let mut flags = Flags::new();
    let mut positional: Vec<String> = Vec::new();
    while let Some(a) = it.next() {
        let Some(name) = a.strip_prefix("--") else {
            positional.push(a.clone());
            continue;
        };
        let &(_, takes_value) = FLAGS
            .iter()
            .find(|(known, _)| *known == name)
            .ok_or_else(|| format!("unknown flag --{name}"))?;
        let value = if takes_value {
            it.next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?
                .clone()
        } else {
            "true".to_owned()
        };
        flags.insert(name.to_owned(), value);
    }
    // the flag table is one for every subcommand, and this one name reads
    // like the way to pass a query: the text was dropped and the default
    // query ran
    if command != "trace" && flags.contains_key("query") {
        return Err(format!(
            "--query is `trace`'s query-id filter; `{command}` takes the query \
             text as an argument: sequin {command} [options] '<query>'"
        ));
    }

    match command.as_str() {
        "explain" => {
            let schema = flags
                .get("types")
                .ok_or("explain needs --types '<schema>'")?;
            let query = positional.first().ok_or("explain needs a query argument")?;
            cli::explain(schema, query)
        }
        "run" => {
            let workload = flags.get("workload").ok_or("run needs --workload <name>")?;
            let query = positional.first().map(String::as_str).unwrap_or("");
            cli::run_workload(
                workload,
                query,
                get_int(&flags, "events")?.unwrap_or(50_000),
                get_ooo(&flags)?,
                get_int(&flags, "delay")?.unwrap_or(100),
                get_int(&flags, "seed")?.unwrap_or(42),
                &run_options(&flags)?,
            )
        }
        "replay" => {
            let schema = flags
                .get("types")
                .ok_or("replay needs --types '<schema>'")?;
            let path = flags.get("trace").ok_or("replay needs --trace <file>")?;
            let query = positional.first().ok_or("replay needs a query argument")?;
            let opts = run_options(&flags)?;
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read trace `{path}`: {e}"))?;
            cli::run_trace_text(schema, query, &text, &opts)
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
                queries: positional.clone(),
                checkpoint_every: get_checkpoint_every(&flags)?,
                store: flags.get("store").cloned(),
                bundle_dir: flags.get("bundle-dir").cloned(),
                net: net_options(&flags)?,
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
            cli::send(
                addr,
                &stream_spec(&flags, &positional)?,
                &net_options(&flags)?,
                drain,
            )
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
        "netbench" => cli::run_netbench(&stream_spec(&flags, &positional)?, &net_options(&flags)?),
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
            if let Some(counts) = get_list(&flags, "shards")? {
                s.opts.shard_counts = counts;
            }
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
        "help" | "--help" | "-h" => Ok(format!("{USAGE}\n")),
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

/// The evaluation flags `run`, `replay` and the networked subcommands
/// share. Built only by the arms that use them: `sim` reads `--policy` and
/// `--shards` itself, with values (`mixed`, `2,7`) these parsers reject.
fn run_options(flags: &Flags) -> Result<cli::RunOptions, String> {
    let strategy = cli::parse_strategy(
        flags
            .get("strategy")
            .map(String::as_str)
            .unwrap_or("native"),
    )?;
    Ok(cli::RunOptions {
        strategy,
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
        punctuate_every: get_int(flags, "punctuate")?,
        checkpoint_every: get_checkpoint_every(flags)?,
        resume_from: flags.get("resume-from").cloned(),
        policy: cli::parse_policy(
            flags
                .get("policy")
                .map(String::as_str)
                .unwrap_or("conservative"),
        )?,
        shards: get_shards(flags, strategy)?,
    })
}

fn net_options(flags: &Flags) -> Result<cli::NetOptions, String> {
    let opts = run_options(flags)?;
    Ok(cli::NetOptions {
        k: opts.k,
        strategy: opts.strategy,
        policy: opts.policy,
        batch: get_int(flags, "batch")?.unwrap_or(64),
        punctuate_every: opts.punctuate_every,
        shards: opts.shards,
        obs: match flags.get("obs").map(String::as_str) {
            None | Some("on") | Some("yes") | Some("true") => sequin_obs::ObsConfig::default(),
            Some("off") | Some("no") | Some("false") => sequin_obs::ObsConfig::disabled(),
            Some(other) => return Err(format!("--obs expects on|off, got `{other}`")),
        },
    })
}

fn stream_spec(flags: &Flags, positional: &[String]) -> Result<cli::StreamSpec, String> {
    Ok(cli::StreamSpec {
        workload: flags
            .get("workload")
            .cloned()
            .unwrap_or_else(|| "synthetic".to_owned()),
        query: positional.first().cloned().unwrap_or_default(),
        events: get_int(flags, "events")?.unwrap_or(10_000),
        ooo: get_ooo(flags)?,
        max_delay: get_int(flags, "delay")?.unwrap_or(100),
        seed: get_int(flags, "seed")?.unwrap_or(42),
    })
}

#[cfg(test)]
mod tests {
    use super::run;

    fn sequin(args: &[&str]) -> Result<String, String> {
        run(&args.iter().map(|a| (*a).to_owned()).collect::<Vec<_>>())
    }

    const SMALL_RUN: [&str; 5] = ["run", "--workload", "synthetic", "--events", "300"];

    #[test]
    fn misspelt_flags_are_rejected_by_name() {
        assert!(sequin(&SMALL_RUN).is_ok());
        let err = sequin(&[&SMALL_RUN[..], &["--shard", "4"]].concat()).unwrap_err();
        assert_eq!(err, "unknown flag --shard");
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
        // sim's own readings of --policy and --shards are not pre-empted
        // by the run/serve parsers
        let mixed = [
            "sim", "--cases", "1", "--policy", "mixed", "--shards", "2,3",
        ];
        assert!(sequin(&mixed).is_ok());
        let err = sequin(&["run", "--workload"]).unwrap_err();
        assert_eq!(err, "flag --workload needs a value");
        // a query is positional; --query (trace's integer filter) used to
        // be swallowed and the flagship query run in its place
        let query = ["--query", "PATTERN SEQ(T0 a, T1 b) WITHIN 5"];
        let err = sequin(&[&["netbench", "--events", "300"], &query[..]].concat()).unwrap_err();
        assert!(
            err.starts_with("--query ") && err.contains("netbench [options] '<query>'"),
            "{err}"
        );
    }

    #[test]
    fn sim_runs_every_case_at_the_pinned_shard_counts() {
        // seed 1 case 10 holds three queries; query sets used to run at
        // two workers whatever --shards said
        let three = [
            "sim",
            "--seed",
            "1",
            "--case",
            "10",
            "--shards",
            "3",
            "--purge-skew",
            "50",
        ];
        let report = sequin(&[&three[..], &["--no-loopback", "--shrink", "no"]].concat())
            .expect_err("a 50-tick purge skew must be reported");
        assert!(report.contains("query 2      : "), "{report}");
        for path in ["sharded(3) — query 1", "crash-resume(3->6) — query 1"] {
            assert!(report.contains(path), "no `{path}` in {report}");
        }
        assert!(!report.contains("sharded(2)"), "{report}");
    }

    #[test]
    fn integer_flags_reject_negatives_and_fractions_and_keep_every_bit() {
        for (flag, bad) in [
            ("--events", "-5"),
            ("--events", "1e3"),
            ("--delay", "2.5"),
            ("--seed", "-1"),
            ("--k", "1.0"),
            ("--shards", "-2"),
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
        // checkpoint per event, --shards 0 ran single-threaded, --shards 2
        // under a control strategy ran as if it had not been given
        let replay = ["replay", "--types", "A(x:int)", "--trace", "/nonexistent"];
        let buffered = [&SMALL_RUN[..], &["--strategy", "buffered"]].concat();
        let inorder = ["netbench", "--events", "300", "--strategy", "inorder"];
        let cases: [(&[&str], &str, &[&str]); 9] = [
            (&SMALL_RUN, "--ooo", &["2", "nan", "-0.5", "inf"]),
            (&["netbench", "--events", "300"], "--ooo", &["-0.5", "1.01"]),
            (&SMALL_RUN, "--adaptive", &["-1", "nan", "inf", "x"]),
            (&SMALL_RUN, "--checkpoint-every", &["0"]),
            (&replay, "--checkpoint-every", &["0"]),
            (&SMALL_RUN, "--shards", &["0"]),
            (&["netbench", "--events", "300"], "--shards", &["0"]),
            (&buffered, "--shards", &["2"]),
            (&inorder, "--shards", &["3"]),
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
        for command in ["serve", "send"] {
            for (flag, bad) in [
                ("--ooo", "2"),
                ("--adaptive", "-1"),
                ("--checkpoint-every", "0"),
                ("--shards", "0"),
            ] {
                if (command, flag) == ("serve", "--ooo") {
                    continue; // serve generates no stream
                }
                let args = [command, "--addr", "127.0.0.1:1", "--workload", "synthetic"];
                let err = sequin(&[&args[..], &[flag, bad]].concat()).unwrap_err();
                assert!(
                    err.starts_with(&format!("{flag} expects")),
                    "{command} {flag}: {err}"
                );
            }
        }
        // a store path without a period: `run`/`replay` used to checkpoint
        // on every watermark advance, `serve` never wrote the file
        let replay = ["replay", "--types", "A(x:int)", "--trace", "/nonexistent"];
        let serve = ["serve", "--addr", "127.0.0.1:1", "--workload", "synthetic"];
        let cases: [(&[&str], &str); 3] = [
            (&SMALL_RUN, "--resume-from"),
            (&replay, "--resume-from"),
            (&serve, "--store"),
        ];
        for (base, flag) in cases {
            let path = [flag, "target/never-written.ckpt"];
            let err = sequin(&[base, &path, &["PATTERN SEQ(A a) WITHIN 1"]].concat()).unwrap_err();
            assert_eq!(err, format!("{flag} needs --checkpoint-every"), "{base:?}");
            assert!(!std::path::Path::new(path[1]).exists());
        }
        // the bounds themselves are valid
        let edge = ["--ooo", "1", "--adaptive", "0", "--checkpoint-every", "1"];
        assert!(sequin(&[&SMALL_RUN[..], &edge].concat()).is_ok());
        assert!(sequin(&[&buffered[..], &["--shards", "1"]].concat()).is_ok());
        assert!(sequin(&[&SMALL_RUN[..], &["--ooo", "0"]].concat()).is_ok());
    }
}
