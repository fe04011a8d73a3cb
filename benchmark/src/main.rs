//! The performance ledger: one command that builds the inputs, runs a
//! workload, checks its outputs and prints every metric by name.
//!
//! ```text
//! sequin-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//!                  [--quick] [--repeat-check] [--describe] [--pins]
//! ```
//!
//! Every layer is measured from outside, by timing calls into its public
//! functions; `README.md` lists the items the benchmark depends on.

#![forbid(unsafe_code)]

mod check;
mod e2e;
mod engine_path;
mod gen;
mod layers;
mod metrics;
mod prepare;
mod probe;
mod repeat;
mod report;
mod staged;
mod stats;
mod trace;
mod wire_path;
mod workloads;

use std::process::ExitCode;

use crate::check::PINNED_SEED;
use crate::metrics::{END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::workloads::{Workload, WORKLOADS};

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    repeat_check: bool,
    describe: bool,
    pins: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: PINNED_SEED,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        quick: false,
        repeat_check: false,
        describe: false,
        pins: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(workloads::find(&name).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("no workload {name:?}; there are {}", names.join(", "))
                })?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => args.quick = true,
            "--repeat-check" => args.repeat_check = true,
            "--describe" => args.describe = true,
            "--pins" => args.pins = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Runs one workload and prints its table and its result line. Returns
/// whether every output was correct.
fn run_one(w: &Workload, args: &Args) -> bool {
    println!(
        "{} (seed {}, {}{})",
        w.name,
        args.seed,
        if args.trace { "traced" } else { "end to end" },
        if args.quick { ", quick" } else { "" }
    );
    let opt = e2e::Options {
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
    };
    let (defs, result) = if args.trace {
        (&PER_LAYER[..], layers::run(w, &opt))
    } else {
        (&END_TO_END[..], e2e::run(w, &opt))
    };
    match result {
        Ok(report) => {
            print!("{}", report.table(defs));
            let (correct, line) = report.result_line(defs);
            println!("{line}");
            correct
        }
        Err(e) => {
            eprintln!("{}: {e}", w.name);
            false
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.describe {
        print!("{}", metrics::describe());
        return ExitCode::SUCCESS;
    }
    if args.pins {
        print!("{}", check::pins());
        return ExitCode::SUCCESS;
    }
    let selected: Vec<&Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let ok = if args.repeat_check {
        repeat::check(&selected, args.seed, args.seconds)
    } else {
        // every workload runs even after one has failed
        let results: Vec<bool> = selected.iter().map(|w| run_one(w, &args)).collect();
        results.iter().all(|ok| *ok)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
