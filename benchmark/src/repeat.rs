//! `--repeat-check`: two full sets of end-to-end runs of the same build
//! must agree within the benchmark's own bounds.

use crate::e2e::{self, Options};
use crate::metrics::END_TO_END;
use crate::stats::Quartiles;
use crate::workloads::Workload;

/// Runs of each workload per set; a set's value is their median, as the
/// value a change is judged by is the median of several runs.
const RUNS_PER_SET: usize = 3;

/// Runs every selected workload [`RUNS_PER_SET`] times for each of two
/// sets and prints one ledger row per metric and workload (a Markdown
/// table: the README's first ledger is this output). Fails if a set's
/// median moved by more than its metric's bound between the sets, or if
/// any output was wrong.
pub fn check(workloads: &[&Workload], seed: u64, seconds: f64) -> bool {
    let opt = Options {
        seed,
        seconds,
        quick: false,
    };
    let mut ok = true;
    // sets[set][workload][metric] = the runs' values. The sets' runs
    // alternate, so that a slow quarter of an hour on a shared machine, or
    // this process's ageing heap, falls on both alike.
    let mut sets = vec![vec![vec![Vec::new(); END_TO_END.len()]; workloads.len()]; 2];
    for (i, w) in workloads.iter().enumerate() {
        for run in 1..=RUNS_PER_SET {
            for (set, name) in ["first", "second"].iter().enumerate() {
                eprintln!("{}: run {run} of the {name} set", w.name);
                match e2e::run(w, &opt) {
                    Ok(r) => {
                        ok &= r.result_line(&END_TO_END).0;
                        for (d, v) in END_TO_END.iter().zip(&mut sets[set][i]) {
                            v.extend(r.value(d));
                        }
                    }
                    Err(e) => {
                        eprintln!("{}: {e}", w.name);
                        ok = false;
                    }
                }
            }
        }
    }

    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "seed {seed}, {RUNS_PER_SET} runs per set, {seconds} s of timed repetitions per run, {cores} cores\n"
    );
    println!("| workload | metric | unit | first set: median (lowest – highest) | second set: median | moved | bound | |");
    println!("|---|---|---|---|---|---|---|---|");
    for (i, w) in workloads.iter().enumerate() {
        for (j, d) in END_TO_END.iter().enumerate() {
            let of = |set: usize| Quartiles::of(&sets[set][i][j]).filter(|q| q.n == RUNS_PER_SET);
            let (Some(a), Some(b)) = (of(0), of(1)) else {
                ok = false;
                println!(
                    "| {} | {} | {} | missing | | | | FAIL |",
                    w.name, d.name, d.unit
                );
                continue;
            };
            let moved = (b.median - a.median).abs() / a.median.abs();
            let bound = d.bound.expect("end-to-end metrics are gated");
            let within = moved <= bound;
            ok &= within;
            let lowest = sets[0][i][j].iter().copied().fold(f64::INFINITY, f64::min);
            let highest = sets[0][i][j].iter().copied().fold(0.0, f64::max);
            println!(
                "| {} | {} | {} | {:.4} ({:.4} – {:.4}) | {:.4} | {:.2} % | {:.0} % | {} |",
                w.name,
                d.name,
                d.unit,
                a.median,
                lowest,
                highest,
                b.median,
                moved * 100.0,
                bound * 100.0,
                if within { "ok" } else { "FAIL" }
            );
        }
    }
    ok
}
