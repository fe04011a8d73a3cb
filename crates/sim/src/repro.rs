//! Repro emission: renders a shrunk failing case as a self-contained
//! Rust `#[test]` that rebuilds the exact [`CaseData`] literal and
//! asserts [`crate::diff::check_case`] is clean. The snippet is what the nightly sim
//! job uploads and what `tests/regressions.rs` promotes; the same case
//! also replays live via `sequin sim --seed S --case N`.

use crate::case::CaseData;
use crate::diff::Mismatch;

/// Renders a failing case as a ready-to-paste regression test.
///
/// `seed`/`case_ix` identify the *original* (pre-shrink) case so the
/// header records a live replay command; the emitted literal is the
/// shrunk case itself, which no seed regenerates.
pub fn emit_test(
    name: &str,
    seed: u64,
    case_ix: u64,
    case: &CaseData,
    mismatches: &[Mismatch],
) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "/// Shrunk from `sequin sim --seed {seed} --cases {}` (case {case_ix}).\n",
        case_ix + 1
    ));
    s.push_str("/// Replay the original: `sequin sim --seed ");
    s.push_str(&format!("{seed} --case {case_ix}`.\n"));
    for m in mismatches {
        s.push_str(&format!("/// Failed path: {} — {}\n", m.path, m.detail));
    }
    s.push_str(&format!("#[test]\nfn {name}() {{\n"));
    s.push_str("    use sequin::sim::case::*;\n");
    s.push_str("    let case = CaseData {\n");
    s.push_str("        queries: vec![\n");
    for q in &case.queries {
        s.push_str("            SimQuery {\n");
        s.push_str("                plan: QueryPlan {\n");
        s.push_str("                    comps: vec![\n");
        for c in &q.plan.comps {
            s.push_str(&format!(
                "                        CompPlan {{ negated: {}, types: vec!{:?}, var: {:?}.into() }},\n",
                c.negated, c.types, c.var
            ));
        }
        s.push_str("                    ],\n");
        s.push_str(&format!("                    window: {},\n", q.plan.window));
        s.push_str("                    preds: vec![\n");
        for p in &q.plan.preds {
            s.push_str(&format!(
                "                        LocalPred {{ comp: {}, op: PredOp::{:?}, value: {} }},\n",
                p.comp, p.op, p.value
            ));
        }
        s.push_str("                    ],\n");
        s.push_str(&format!(
            "                    tag_join: {},\n                    project_first: {},\n",
            q.plan.tag_join, q.plan.project_first
        ));
        s.push_str("                },\n");
        s.push_str(&format!(
            "                policy: DisorderPolicy::{:?},\n            }},\n",
            q.policy
        ));
    }
    s.push_str("        ],\n");
    s.push_str("        items: vec![\n");
    for it in &case.items {
        s.push_str(&format!("            SimItem::{it:?},\n"));
    }
    s.push_str("        ],\n");
    s.push_str(&format!("        config: {:?},\n", case.config));
    s.push_str("    };\n");
    s.push_str("    let mismatches = sequin::sim::diff::check_case(&case, Default::default());\n");
    s.push_str("    assert!(mismatches.is_empty(), \"{mismatches:?}\");\n");
    s.push_str("}\n");
    s
}
