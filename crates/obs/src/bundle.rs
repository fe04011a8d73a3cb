//! Postmortem flight-recorder bundles.
//!
//! A [`Bundle`] is a self-contained capture taken at the moment something
//! went wrong — a sim mismatch or a crash-recovery fallback. It packages
//! the trace-ring lineage slice, a rendered metrics
//! snapshot, a human-readable config description, and machine-readable
//! replay parameters (seed, case index, sabotage knobs,
//! replay cursor) so the failure can be re-driven and rendered later with
//! `sequin trace --bundle <path>` — on a different machine, with nothing
//! but the file.
//!
//! It is plain data: like the rest of this crate it depends on nothing and
//! records only logical quantities. Its bytes are a sealed envelope
//! written and read by `sequin_server::{encode_bundle, decode_bundle}`,
//! the codec every frame and store shares.

use crate::trace::Span;

/// A self-contained postmortem capture.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bundle {
    /// Why the capture was taken (e.g. `sim-mismatch`,
    /// `recovery-fallback`).
    pub reason: String,
    /// Human-readable description of the configuration under which the
    /// failure occurred (query texts, policy, backend).
    pub config: String,
    /// Machine-readable replay parameters, in insertion order: `seed`,
    /// `case`, sabotage knobs, `cursor` (events ingested at
    /// capture), … Whatever the capturing site needs to re-drive the run.
    pub params: Vec<(String, u64)>,
    /// Rendered JSON metrics snapshot at capture time.
    pub metrics_json: String,
    /// The lineage slice: the trace ring's spans at capture, oldest first.
    pub spans: Vec<Span>,
    /// Total spans the ring had recorded (held + evicted).
    pub recorded: u64,
    /// Spans the ring had evicted before capture.
    pub dropped: u64,
}

impl Bundle {
    /// Looks up a replay parameter by name.
    pub fn param(&self, name: &str) -> Option<u64> {
        self.params.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }
}
