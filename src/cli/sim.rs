//! `sequin sim`: the differential simulation harness.

use std::path::PathBuf;

use super::policy_name;

/// Settings for `sequin sim`: the differential simulation harness.
#[derive(Debug, Clone, Default)]
pub struct SimCliOptions {
    /// Harness knobs (seeds, case counts, budget, shrinking, sabotage).
    pub opts: sequin_sim::SimOptions,
    /// Replay exactly one case index (of the first seed) instead of the
    /// full matrix; prints the case and its verdict.
    pub replay_case: Option<u64>,
    /// Write the machine-readable report here (e.g. `SIM_ci.json`).
    pub json_out: Option<String>,
    /// Write each failure's self-contained `#[test]` repro into this
    /// directory (one `.rs` file per failure).
    pub emit_repro: Option<String>,
}

impl SimCliOptions {
    /// The CI preset: pinned seeds 1–4, 800 cases, 80 s budget,
    /// `SIM_ci.json` artifact, repros into `sim-repros/`, postmortem
    /// bundles into `sim-bundles/`.
    pub fn ci() -> SimCliOptions {
        let mut opts = sequin_sim::SimOptions::ci();
        opts.bundle_dir = Some(PathBuf::from("sim-bundles"));
        SimCliOptions {
            opts,
            replay_case: None,
            json_out: Some("SIM_ci.json".to_owned()),
            emit_repro: Some("sim-repros".to_owned()),
        }
    }
}

/// The machine-readable report.
fn sim_json(o: &SimCliOptions, report: &sequin_sim::SimReport) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"sim\": \"sequin\",\n");
    s.push_str(&format!(
        "  \"seeds\": [{}],\n",
        o.opts
            .seeds
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    ));
    s.push_str(&format!(
        "  \"cases_per_seed\": {},\n",
        o.opts.cases_per_seed
    ));
    s.push_str(&format!("  \"purge_skew\": {},\n", o.opts.purge_skew));
    s.push_str(&format!(
        "  \"retraction_drop\": {},\n",
        o.opts.retraction_drop
    ));
    s.push_str(&format!(
        "  \"policy\": {:?},\n",
        o.opts
            .policy
            .map_or_else(|| "mixed".to_owned(), policy_name)
    ));
    s.push_str(&format!("  \"cases_run\": {},\n", report.cases_run));
    s.push_str(&format!(
        "  \"multi_query_cases\": {},\n",
        report.multi_query_cases
    ));
    s.push_str(&format!(
        "  \"elapsed_secs\": {:.1},\n",
        report.elapsed.as_secs_f64()
    ));
    s.push_str(&format!(
        "  \"budget_exhausted\": {},\n",
        report.budget_exhausted
    ));
    s.push_str("  \"failures\": [\n");
    for (ix, f) in report.failures.iter().enumerate() {
        s.push_str(&format!(
            "    {{ \"seed\": {}, \"case\": {}, \"paths\": {:?}, \"summary\": {:?} }}{}\n",
            f.seed,
            f.case_ix,
            sequin_sim::path_names(&f.original),
            f.summary,
            if ix + 1 < report.failures.len() {
                ","
            } else {
                ""
            }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// The sabotage and policy lines printed after the path list.
fn push_knobs(out: &mut String, opts: &sequin_sim::SimOptions) {
    if opts.purge_skew > 0 {
        out.push_str(&format!(
            "sabotage     : purge horizon skewed by {} tick(s); mismatches expected\n",
            opts.purge_skew
        ));
    }
    if opts.retraction_drop > 0 {
        out.push_str(&format!(
            "sabotage     : dropping retraction #{} silently; mismatches expected\n",
            opts.retraction_drop
        ));
    }
    if let Some(p) = opts.policy {
        out.push_str(&format!(
            "policy       : all queries pinned to {}\n",
            policy_name(p)
        ));
    } else {
        out.push_str("policy       : mixed per query (conservative/speculative/lazy/adaptive)\n");
    }
}

/// `sequin sim`: runs the deterministic differential simulation harness —
/// generated query sets (one query, or a few prefix siblings with a
/// policy each) and disorder schedules, each query alone on an honest
/// engine as the reference, and every production path checked against it
/// (the parser against the plan's AST, the plan of N item by item — also
/// against the naive oracle — and the server's step, crashed and
/// restarted). Failures are shrunk to minimal repros and
/// reported with their replayable `--seed`/`--case` pair.
///
/// # Errors
///
/// Returns a summary (after writing any requested artifacts) when any
/// case mismatches, so CI fails loudly; file I/O problems are also
/// reported as display strings.
pub fn run_sim(o: &SimCliOptions) -> Result<String, String> {
    // single-case replay: regenerate, check, and show the verdict
    if let Some(case_ix) = o.replay_case {
        let seed = o.opts.seeds.first().copied().unwrap_or(0);
        let case = sequin_sim::runner::materialize(seed, case_ix, &o.opts);
        let mut out = String::new();
        out.push_str(&format!("case         : seed {seed}, index {case_ix}\n"));
        for (qx, q) in case.queries.iter().enumerate() {
            let (text, policy) = (q.plan.text(), policy_name(q.policy));
            out.push_str(&format!("query {qx}      : {text} [{policy}]\n"));
        }
        out.push_str(&format!(
            "stream       : {} items, K={}, purge={:?}, watermark={}\n",
            case.items.len(),
            case.config.k,
            case.config.purge_every,
            case.config.watermark
        ));
        return match sequin_sim::replay(seed, case_ix, &o.opts) {
            None => {
                out.push_str("verdict      : clean (all paths agree)\n");
                Ok(out)
            }
            Some(f) => {
                for m in &f.mismatches {
                    out.push_str(&format!("mismatch     : {} — {}\n", m.path, m.detail));
                }
                out.push_str(&format!("shrunk to    : {}\n", f.summary));
                out.push('\n');
                out.push_str(&f.repro);
                Err(out)
            }
        };
    }

    let mut progress = String::new();
    let report = sequin_sim::run(&o.opts, |line| {
        progress.push_str(&format!("  {line}\n"));
    });

    let mut out = String::new();
    out.push_str(&format!(
        "sim          : {} cases over {} seed(s), {} checked in {:.1}s{}\n",
        o.opts.seeds.len() as u64 * o.opts.cases_per_seed,
        o.opts.seeds.len(),
        report.cases_run,
        report.elapsed.as_secs_f64(),
        if report.budget_exhausted {
            " (budget exhausted)"
        } else {
            ""
        }
    ));
    out.push_str(&format!(
        "queries      : {} case(s) held one query, {} held two to four\n",
        report.cases_run - report.multi_query_cases,
        report.multi_query_cases
    ));
    out.push_str("paths        : parse, plan, oracle, server\n");
    push_knobs(&mut out, &o.opts);
    if !progress.is_empty() {
        out.push_str(&progress);
    }

    if let Some(path) = &o.json_out {
        std::fs::write(path, sim_json(o, &report))
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        out.push_str(&format!("report       : wrote {path}\n"));
    }
    if let Some(dir) = &o.emit_repro {
        if !report.failures.is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("cannot create `{dir}`: {e}"))?;
            for f in &report.failures {
                let path = format!("{dir}/sim_seed_{}_case_{}.rs", f.seed, f.case_ix);
                std::fs::write(&path, &f.repro)
                    .map_err(|e| format!("cannot write `{path}`: {e}"))?;
                out.push_str(&format!("repro        : wrote {path}\n"));
            }
        }
    }

    if report.clean() {
        out.push_str("verdict      : clean (all paths agree on every case)\n");
        Ok(out)
    } else {
        for f in &report.failures {
            out.push_str(&format!(
                "failure      : seed {} case {} ({}); replay: sequin sim --seed {} --case {}\n",
                f.seed,
                f.case_ix,
                sequin_sim::path_names(&f.mismatches).join(", "),
                f.seed,
                f.case_ix
            ));
        }
        Err(format!(
            "{out}{} of {} cases mismatched",
            report.failures.len(),
            report.cases_run
        ))
    }
}
