//! Runs the ledger (`benchmark/`) of a revision and of the checkout in
//! alternating pairs and judges every end-to-end metric by the paired rule
//! of `sequin_bench::ab`.
//!
//! ```text
//! ab REV [--pairs N] [--seconds S] [--seed N] [--workload W]... [--dir D]
//! ```
//!
//! - REV is any commit git names (`HEAD~1`, a hash). The head side is the
//!   checkout as it stands: its tracked files, staged or not
//!   (`git stash create`), or `HEAD` when nothing differs.
//! - Each side is exported with `git archive` into the same directory,
//!   `D/src`, in turn, and built from there offline into its own target
//!   directory, `D/rev-target` or `D/head-target`. The ledger's crates
//!   are compiled by absolute path, so one source path makes two builds
//!   of one tree the same binary rather than two layouts of it. `D/src`
//!   is removed once both are built; nothing is registered in the
//!   repository.
//! - Each workload (default: every workload `BENCHMARK.json` lists) runs
//!   `N` pairs (default 10), REV first in odd pairs, with
//!   `--workload W --seed N` (default 42) and `--seconds S` when given.
//! - Every run's result line goes to `D/runs.jsonl`; the verdict tables
//!   go to standard output and to `D/verdict.txt`.
//!
//! `D` defaults to `target/ab`. Exit code 1 when a build fails or a run's
//! outputs are wrong; verdicts do not set it.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use sequin_bench::ab::{judge, ledger_spec, render_table, RunResult};

const USAGE: &str =
    "usage: ab REV [--pairs N] [--seconds S] [--seed N] [--workload W]... [--dir D]";

struct Args {
    rev: String,
    pairs: usize,
    seconds: Option<String>,
    seed: String,
    workloads: Vec<String>,
    dir: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        rev: String::new(),
        pairs: 10,
        seconds: None,
        seed: "42".into(),
        workloads: Vec::new(),
        dir: None,
    };
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--pairs" => {
                args.pairs = value("--pairs")?
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or("--pairs: a positive integer")?;
            }
            "--seconds" => args.seconds = Some(value("--seconds")?),
            "--seed" => args.seed = value("--seed")?,
            "--workload" => args.workloads.push(value("--workload")?),
            "--dir" => args.dir = Some(value("--dir")?.into()),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            rev if args.rev.is_empty() => args.rev = rev.to_string(),
            extra => return Err(format!("unexpected argument {extra}")),
        }
    }
    if args.rev.is_empty() {
        return Err("no REV given".into());
    }
    Ok(args)
}

/// Runs `cmd` to completion; its standard output on success.
fn output(cmd: &mut Command) -> Result<String, String> {
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{cmd:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{cmd:?} exited with {}", out.status));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("{cmd:?}: {e}"))
}

/// The directory each side is exported into; removed when dropped,
/// however the tool ends.
struct Export(PathBuf);

impl Export {
    /// Replaces the directory's contents with `commit`'s tree.
    fn checkout(&self, repo: &Path, commit: &str) -> Result<(), String> {
        let _ = std::fs::remove_dir_all(&self.0);
        std::fs::create_dir_all(&self.0).map_err(|e| format!("{}: {e}", self.0.display()))?;
        let mut git = Command::new("git")
            .arg("-C")
            .arg(repo)
            .args(["archive", "--format=tar", commit])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("git archive: {e}"))?;
        // `-m`: every file is as new as the export; with the commit's own
        // times, a side built last from a newer tree would look up to date
        // to cargo, which judges by mtime, and run stale
        let tar = Command::new("tar")
            .arg("-xm")
            .arg("-C")
            .arg(&self.0)
            .stdin(git.stdout.take().expect("stdout is piped"))
            .status();
        match (git.wait(), tar) {
            (Ok(g), Ok(t)) if g.success() && t.success() => Ok(()),
            (g, t) => Err(format!("exporting {commit}: git {g:?}, tar {t:?}")),
        }
    }

    /// Builds `commit`'s ledger into `target`; the built binary.
    fn build(&self, repo: &Path, commit: &str, target: &Path) -> Result<PathBuf, String> {
        self.checkout(repo, commit)?;
        eprintln!("ab: building {commit} into {}", target.display());
        output(
            Command::new("cargo")
                .args([
                    "build",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                ])
                .arg(self.0.join("benchmark/Cargo.toml"))
                .env("CARGO_TARGET_DIR", target),
        )?;
        Ok(target.join("release/sequin-benchmark"))
    }
}

impl Drop for Export {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One run of `bin` from `root`: its result line.
fn run_once(bin: &Path, root: &Path, workload: &str, args: &Args) -> Result<String, String> {
    let mut cmd = Command::new(bin);
    cmd.current_dir(root)
        .args(["--workload", workload, "--seed", &args.seed]);
    if let Some(s) = &args.seconds {
        cmd.args(["--seconds", s]);
    }
    let out = output(&mut cmd)?;
    Ok(out.lines().last().unwrap_or_default().to_string())
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("ab: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let repo =
        PathBuf::from(output(Command::new("git").args(["rev-parse", "--show-toplevel"]))?.trim());
    let git = |cmd: &[&str]| output(Command::new("git").arg("-C").arg(&repo).args(cmd));
    let rev = git(&["rev-parse", "--verify", &format!("{}^{{commit}}", args.rev)])?;
    let rev = rev.trim();
    let stash = git(&["stash", "create"])?;
    let head = match stash.trim() {
        "" => git(&["rev-parse", "HEAD"])?,
        worktree => worktree.to_string(),
    };
    let head = head.trim();
    let spec = std::fs::read_to_string(repo.join("BENCHMARK.json")).map_err(|e| e.to_string())?;
    let (all, metrics) = ledger_spec(&spec)?;
    let workloads = if args.workloads.is_empty() {
        all
    } else {
        args.workloads.clone()
    };
    let dir = args.dir.clone().unwrap_or_else(|| repo.join("target/ab"));
    let dir = std::path::absolute(&dir).map_err(|e| e.to_string())?;

    let export = Export(dir.join("src"));
    let rev_bin = export.build(&repo, rev, &dir.join("rev-target"))?;
    let head_bin = export.build(&repo, head, &dir.join("head-target"))?;
    drop(export);

    let mut jsonl = String::new();
    let mut tables = format!(
        "ab: rev {rev} vs the checkout ({head}), {} pairs, seed {}{}\n\n",
        args.pairs,
        args.seed,
        args.seconds
            .as_ref()
            .map_or(String::new(), |s| format!(", --seconds {s}"))
    );
    let mut all_correct = true;
    for w in &workloads {
        let (mut revs, mut heads) = (Vec::new(), Vec::new());
        for pair in 1..=args.pairs {
            let order = if pair % 2 == 1 {
                [("rev", &rev_bin), ("head", &head_bin)]
            } else {
                [("head", &head_bin), ("rev", &rev_bin)]
            };
            for (name, bin) in order {
                let line = run_once(bin, &repo, w, args)?;
                let result = RunResult::parse(&line).map_err(|e| format!("{w} {name}: {e}"))?;
                all_correct &= result.correct;
                eprintln!(
                    "ab: {w} pair {pair}/{} {name}: correct {} failed {}",
                    args.pairs, result.correct, result.failed
                );
                let _ = writeln!(
                    jsonl,
                    "{{\"workload\": \"{w}\", \"pair\": {pair}, \"side\": \"{name}\", \"result\": {line}}}"
                );
                if name == "rev" {
                    revs.push(result);
                } else {
                    heads.push(result);
                }
            }
        }
        let column = |runs: &[RunResult], m: &str| -> Vec<f64> {
            runs.iter()
                .map(|r| r.value(m).unwrap_or(f64::NAN))
                .collect()
        };
        let rows: Vec<_> = metrics
            .iter()
            .map(|m| {
                let p = judge(
                    &column(&revs, &m.name),
                    &column(&heads, &m.name),
                    m.lower_is_better,
                );
                (m.name.as_str(), p)
            })
            .collect();
        let table = render_table(w, &rows);
        print!("{table}");
        tables.push_str(&table);
        tables.push('\n');
    }
    let write = |name: &str, text: &str| {
        std::fs::write(dir.join(name), text).map_err(|e| format!("{name}: {e}"))
    };
    write("runs.jsonl", &jsonl)?;
    write("verdict.txt", &tables)?;
    if all_correct {
        Ok(())
    } else {
        Err("a run's outputs were wrong: see runs.jsonl".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_are_read_and_unknown_ones_refused() {
        let a = parsed(&["HEAD~1", "--pairs", "3", "--workload", "engine-deep"]).unwrap();
        assert_eq!(
            (a.rev.as_str(), a.pairs, a.seed.as_str()),
            ("HEAD~1", 3, "42")
        );
        assert_eq!(a.workloads, ["engine-deep"]);
        assert!(parsed(&["HEAD", "--pairs", "0"]).is_err());
        assert!(parsed(&["HEAD", "--paris", "3"]).is_err());
        assert!(parsed(&["--pairs", "3"]).is_err());
        assert!(parsed(&["HEAD", "HEAD~1"]).is_err());
    }
}
