//! The sim flight recorder.
//!
//! When a differential case mismatches, [`capture_bundle`] re-drives its
//! whole query set through an observability-enabled
//! [`sequin_server::EngineCore`] and freezes everything a postmortem
//! needs into one self-contained [`Bundle`]: the causal lineage of every
//! output the case produced, a metrics snapshot, the configuration under
//! test, and the exact replay parameters (seed, case index, sabotage
//! knobs, policy pin). [`replay_bundle`] proves a bundle is
//! live by reconstructing the run options from those parameters and
//! re-checking the case — a healthy bundle replays to the same mismatch
//! with no access to the original process.
//!
//! Bundles render through `sequin trace --bundle <path>`.

use std::sync::Arc;

use sequin_engine::Strategy;
use sequin_obs::{Bundle, ObsConfig};
use sequin_server::frame::{policy_from_wire, policy_to_wire};
use sequin_server::{CoreConfig, EngineCore};

use crate::case::sim_registry;
use crate::diff::{check_case, engine_config, Mismatch};
use crate::runner::{materialize, SimOptions};

/// Captures a postmortem bundle for a mismatching `(seed, case)` pair.
///
/// Every query of the case is re-driven on one core's plan with
/// provenance tracing on and a ring large enough to hold every output
/// span, so the bundle's lineage covers the whole run, not
/// just its tail. The sabotage knobs from `opts` are applied exactly as
/// the differential check applied them — the bundle records the *failing*
/// configuration, not a cleaned-up one.
pub fn capture_bundle(
    seed: u64,
    case_ix: u64,
    opts: &SimOptions,
    mismatches: &[Mismatch],
) -> Bundle {
    let case = materialize(seed, case_ix, opts);
    let registry = sim_registry();
    let mut core_cfg = CoreConfig::new(
        Arc::clone(&registry),
        Strategy::Native,
        engine_config(&case, opts.sabotage()),
    );
    core_cfg.obs = ObsConfig {
        trace_capacity: 4096,
        ..ObsConfig::default()
    };
    let mut core = EngineCore::new(core_cfg);
    let subscribed = case.queries.iter().all(|q| {
        core.subscribe_with_policy(&q.plan.text(), Some(q.policy))
            .is_ok()
    });
    if subscribed {
        for item in &case.stream(&registry) {
            core.ingest(item);
        }
        core.finish();
    }
    // the policy pin as it goes on the wire, `mode << 8 | knob`: 0 is no pin
    let (mode, knob) = policy_to_wire(opts.policy);
    let params = vec![
        ("seed".to_owned(), seed),
        ("case".to_owned(), case_ix),
        ("purge_skew".to_owned(), opts.purge_skew),
        ("retraction_drop".to_owned(), opts.retraction_drop),
        ("policy".to_owned(), u64::from(mode) << 8 | u64::from(knob)),
        ("mismatch_count".to_owned(), mismatches.len() as u64),
    ];
    let mut bundle = core.postmortem_bundle("sim-mismatch", params);
    if !bundle.config.is_empty() && !bundle.config.ends_with('\n') {
        bundle.config.push('\n');
    }
    for m in mismatches {
        bundle
            .config
            .push_str(&format!("mismatch {}: {}\n", m.path, m.detail));
    }
    bundle
}

/// Replays a captured bundle: reconstructs the run options from its
/// parameters, regenerates the case, and re-runs the full differential
/// check. Returns `None` when the bundle lacks replay parameters (it was
/// not captured by the sim recorder) or its policy pin does not decode;
/// otherwise the mismatches observed — for a healthy bundle, the same
/// paths that failed at capture time.
pub fn replay_bundle(bundle: &Bundle) -> Option<Vec<Mismatch>> {
    let seed = bundle.param("seed")?;
    let case_ix = bundle.param("case")?;
    let pin = bundle.param("policy").unwrap_or(0);
    let opts = SimOptions {
        seeds: vec![seed],
        cases_per_seed: case_ix + 1,
        shrink: false,
        purge_skew: bundle.param("purge_skew").unwrap_or(0),
        retraction_drop: bundle.param("retraction_drop").unwrap_or(0),
        policy: policy_from_wire((pin >> 8) as u8, pin as u8).ok()?,
        ..SimOptions::default()
    };
    let case = materialize(seed, case_ix, &opts);
    Some(check_case(&case, opts.sabotage()))
}

/// The on-disk name for a mismatch bundle.
pub fn bundle_filename(seed: u64, case_ix: u64) -> String {
    format!("sim-mismatch-seed{seed}-case{case_ix}.sqpm")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequin_server::{decode_bundle, encode_bundle};

    #[test]
    fn clean_case_bundle_replays_clean() {
        // An honest case mismatches nowhere; its bundle replays to the
        // same (empty) verdict, exercising the whole capture → encode →
        // decode → replay loop.
        let bundle = capture_bundle(0xC0FFEE, 0, &SimOptions::default(), &[]);
        assert_eq!(bundle.reason, "sim-mismatch");
        assert_eq!(bundle.param("seed"), Some(0xC0FFEE));
        let decoded = decode_bundle(&encode_bundle(&bundle)).expect("round trip");
        assert_eq!(decoded, bundle);
        assert_eq!(replay_bundle(&decoded), Some(Vec::new()));
    }

    #[test]
    fn sabotaged_bundle_replays_to_the_same_mismatch() {
        // Inject a fault, find a multi-query case it breaks, and check its
        // bundle reproduces the same mismatches — per query — from the
        // decoded bytes alone.
        let opts = SimOptions {
            purge_skew: 40,
            shrink: false,
            ..SimOptions::default()
        };
        let mut found = None;
        for case_ix in 0..60 {
            let case = materialize(0xC0FFEE, case_ix, &opts);
            let mismatches = check_case(&case, opts.sabotage());
            if case.queries.len() > 1 && !mismatches.is_empty() {
                found = Some((case_ix, mismatches));
                break;
            }
        }
        let (case_ix, mismatches) = found.expect("purge sabotage must break some query set");
        let bundle = capture_bundle(0xC0FFEE, case_ix, &opts, &mismatches);
        let decoded = decode_bundle(&encode_bundle(&bundle)).expect("round trip");
        let replayed = replay_bundle(&decoded).expect("sim bundle has replay params");
        assert_eq!(replayed, mismatches);
        assert!(decoded.config.contains("mismatch plan: query "));
    }
}
