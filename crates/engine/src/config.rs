//! Engine configuration.

use sequin_runtime::purge::PurgePolicy;
use sequin_runtime::ConstructOpts;
use sequin_types::Duration;

/// Per-query disorder-handling policy: when matches leave the engine and
/// how the slack bound that gates them is chosen.
///
/// Every mode's *settled* output — what remains after all retractions once
/// the stream is drained — is identical to [`DisorderPolicy::Conservative`];
/// the modes trade latency, retraction traffic, and buffer depth against
/// each other on the way there. `sequin sim --policy` differentially
/// verifies that equivalence against the naive oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DisorderPolicy {
    /// Hold a match until all of its negation regions are **sealed** by the
    /// watermark, re-validate, then emit. Output is exactly the correct
    /// match set, at the cost of up to `K + region` latency.
    #[default]
    Conservative,
    /// Emit immediately (validated against the negatives seen so far) and
    /// issue a [`crate::OutputKind::Retract`] if a late negative
    /// invalidates an already-emitted match. Minimal latency; consumers
    /// must handle retractions. (The direction the authors' follow-up
    /// ICDE'09 work formalized as the *aggressive* strategy.)
    Speculative,
    /// Build each match on arrival, like every policy, but hold it —
    /// negation or not — until the watermark passes its seal deadline (for
    /// a query without negation, the match's newest event), then emit it
    /// in the seal drain. Output arrives later, in deadline order, and is
    /// never retracted.
    Lazy,
    /// Conservative emission under a slack bound that is a control loop
    /// over *observed* disorder instead of a fixed `K`: the engine keeps a
    /// decayed power-of-two histogram of arrival lateness and sets
    /// `K̂ = max(k_slack, quantile(q) · safety)`, where `q` and `safety`
    /// are derived from `accuracy` when the query's watermark is built.
    ///
    /// `accuracy` is the per-query latency-vs-accuracy knob (`0..=100`,
    /// negotiated at SUBSCRIBE time; larger values act as 100): higher
    /// values track a higher lateness quantile with more safety margin —
    /// fewer late drops, more buffering latency. `accuracy >= 90` tracks at
    /// least the p99.
    AdaptiveSlack {
        /// Latency-vs-accuracy knob, `0..=100`.
        accuracy: u8,
    },
}

/// Where the stream's low-watermark comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WatermarkSource {
    /// `watermark = clock − K` under an a-priori disorder bound `K`.
    #[default]
    KSlack,
    /// Advance only on explicit [`sequin_types::StreamItem::Punctuation`]
    /// items (source-asserted low-watermarks).
    Punctuation,
    /// `max` of both mechanisms.
    Both,
}

/// The evaluation strategy: the paper's native out-of-order engine, the
/// one the product runs. (The in-order and K-slack-buffer baselines its
/// evaluation argues against live in the `sequin-bench` harness.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// The paper's native out-of-order engine.
    Native,
}

/// Tunables shared by every query of an engine.
///
/// The defaults are the paper's recommended configuration: K-slack
/// watermarking, batched purge, early window cut-off, conservative
/// negation, partitioning enabled when the query allows it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// The disorder bound `K`: no event arrives more than `K` ticks behind
    /// the maximum timestamp seen. With [`EngineConfig::adaptive_k`] set,
    /// this is the *floor* of the adaptive estimate instead.
    pub k_slack: Duration,
    /// Estimate `K` from observed disorder instead of trusting `k_slack`:
    /// `K̂ = max(k_slack, ceil(observed_max_lateness · safety))` for this
    /// `safety` (extension; the direction later formalized by
    /// quality-driven K-slack work). The watermark stays **monotone**, so
    /// an event later than the current estimate is beyond the bound:
    /// counted in [`sequin_runtime::RuntimeStats::late_drops`] and
    /// processed best-effort, its matches not guaranteed; a safety above
    /// 1 buys headroom against that.
    pub adaptive_k: Option<f64>,
    /// Purge cadence.
    pub purge: PurgePolicy,
    /// Construction optimizations.
    pub construct: ConstructOpts,
    /// Disorder-handling policy (emission timing + slack-bound source).
    pub policy: DisorderPolicy,
    /// Watermark mechanism.
    pub watermark: WatermarkSource,
    /// Shard state by the query's partition scheme when one exists.
    pub partitioned: bool,
    /// Fault injection: widen every purge threshold by this many ticks,
    /// deliberately deleting state the engine still needs. Exists so the
    /// differential simulator (`sequin sim --purge-skew N`) can prove it
    /// detects purge bugs; must stay `0` in any real configuration.
    #[doc(hidden)]
    pub purge_horizon_skew: u64,
    /// Fault injection: silently swallow the first retraction the engine
    /// would emit, leaving a speculative insert standing that the settled
    /// output should not contain. Exists so the differential simulator
    /// (`sequin sim --retraction-drop 1`) can prove it detects speculative
    /// unsoundness; must stay `0` in any real configuration.
    #[doc(hidden)]
    pub retraction_drop: u64,
}

impl EngineConfig {
    /// Configuration with a specific disorder bound and defaults elsewhere.
    pub fn with_k(k: Duration) -> EngineConfig {
        EngineConfig {
            k_slack: k,
            ..EngineConfig::default()
        }
    }

    /// Configuration with adaptive disorder-bound estimation: `floor` is
    /// the minimum `K̂`, `safety` the multiplier on observed lateness.
    pub fn with_adaptive_k(floor: Duration, safety: f64) -> EngineConfig {
        EngineConfig {
            k_slack: floor,
            adaptive_k: Some(safety),
            ..EngineConfig::default()
        }
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            k_slack: Duration::new(100),
            adaptive_k: None,
            purge: PurgePolicy::default(),
            construct: ConstructOpts::default(),
            policy: DisorderPolicy::Conservative,
            watermark: WatermarkSource::KSlack,
            partitioned: true,
            purge_horizon_skew: 0,
            retraction_drop: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_recommended() {
        let c = EngineConfig::default();
        assert_eq!(c.policy, DisorderPolicy::Conservative);
        assert_eq!(c.watermark, WatermarkSource::KSlack);
        assert!(c.partitioned);
        assert!(c.construct.window_cutoff);
        assert!(c.purge.every_n.is_some());
        assert_eq!(c.retraction_drop, 0);
    }

    #[test]
    fn adaptive_config() {
        let c = EngineConfig::with_adaptive_k(Duration::new(5), 1.5);
        assert_eq!(c.k_slack, Duration::new(5));
        assert_eq!(c.adaptive_k, Some(1.5));
        assert_eq!(EngineConfig::default().adaptive_k, None);
    }

    #[test]
    fn with_k_overrides_only_k() {
        let c = EngineConfig::with_k(Duration::new(7));
        assert_eq!(c.k_slack, Duration::new(7));
        assert_eq!(c.policy, EngineConfig::default().policy);
    }
}
