//! # sequin-obs
//!
//! The observability substrate for the sequin workspace: a dependency-free
//! metrics registry (counters, gauges, fixed-bucket histograms), a bounded
//! structured-trace ring buffer, and text exposition in Prometheus and JSON
//! formats.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** Every recorded quantity is *logical* — arrival
//!    sequence numbers, event-time ticks, operator counters — never wall
//!    clocks. A fixed-seed workload therefore produces byte-identical
//!    snapshots run after run, and the output-derived series (detection
//!    latency, deferral time, emitted/retracted counts) are additionally
//!    byte-identical between single-shard and sharded evaluation, because
//!    sharded output itself is (see `sequin-engine`).
//! 2. **Zero overhead when off.** [`Recorder`] methods early-return behind a
//!    single branch when the recorder is disabled; no allocation, no
//!    formatting, no hashing happens on the hot path. The ledger
//!    (`benchmark/`, `obs.overhead_pct`) prices the overhead when *on*.
//! 3. **No locks, no new deps.** A [`Recorder`] is owned by the single
//!    engine thread that mutates it (the server's engine loop already
//!    serializes all ingestion), so plain `&mut` suffices — "lock-cheap"
//!    here means *no* locks, not clever ones.
//!
//! Exposition is pull-based: callers assemble a [`MetricsSnapshot`] from
//! whatever sources they own (recorder, `RuntimeStats`, `ServerStats`,
//! queue depths) and render it with [`MetricsSnapshot::to_prometheus`] or
//! [`MetricsSnapshot::to_json`]. The snapshot sorts its series by
//! `(name, labels)` so renderings are canonical.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bundle;
mod hist;
mod lineage;
mod recorder;
mod registry;
mod trace;

pub use bundle::{Bundle, BUNDLE_MAGIC, BUNDLE_VERSION};
pub use hist::{FixedHistogram, BUCKET_BOUNDS};
pub use lineage::{filter_outputs, lineage_json, lineage_text};
pub use recorder::{ObsConfig, QueryObs, Recorder};
pub use registry::{MetricsSnapshot, Series, SeriesValue};
pub use trace::{Span, SpanKind, TraceRing, NO_QUERY};

/// Escapes a string for inclusion in a JSON string literal (quotes not
/// included). Shared by the JSON renderers in this crate.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}
