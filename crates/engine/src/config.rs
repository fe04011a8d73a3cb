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
    /// Defer every match — negation or not — until its window closes under
    /// the watermark or a consumer drains. Cheapest possible consumer
    /// contract: output arrives late but coalesced and never retracted.
    Lazy,
    /// Conservative emission under a slack bound that is a control loop
    /// over *observed* disorder instead of a fixed `K`: the engine keeps a
    /// decayed power-of-two histogram of arrival lateness and sets
    /// `K̂ = max(k_slack, quantile(q) · safety)`, where `q` and `safety`
    /// are derived from `accuracy`.
    ///
    /// `accuracy` is the per-query latency-vs-accuracy knob (`0..=100`,
    /// negotiated at SUBSCRIBE time): higher values track a higher
    /// lateness quantile with more safety margin — fewer late drops, more
    /// buffering latency. `accuracy >= 90` tracks at least the p99.
    AdaptiveSlack {
        /// Latency-vs-accuracy knob, `0..=100`.
        accuracy: u8,
    },
}

impl DisorderPolicy {
    /// Whether this policy can emit [`crate::OutputKind::Retract`] items
    /// for its *own* speculatively-emitted matches. (Any policy will still
    /// retract matches inherited unsealed across a policy-changing
    /// checkpoint resume.)
    pub fn speculates(self) -> bool {
        self == DisorderPolicy::Speculative
    }

    /// The accuracy knob, when the policy is adaptive.
    pub fn adaptive_accuracy(self) -> Option<u8> {
        match self {
            DisorderPolicy::AdaptiveSlack { accuracy } => Some(accuracy),
            _ => None,
        }
    }

    /// The quantile of observed lateness the adaptive bound tracks, and
    /// the safety multiplier applied on top. `accuracy = 0` → (p90, 1.0);
    /// `accuracy = 100` → (max, 2.0); linear in between.
    pub fn adaptive_params(self) -> Option<(f64, f64)> {
        self.adaptive_accuracy().map(|a| {
            let a = f64::from(a.min(100));
            (0.90 + 0.001 * a, 1.0 + a / 100.0)
        })
    }
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

/// Adaptive disorder-bound estimation (extension; the direction later
/// formalized by quality-driven K-slack work). Instead of trusting an
/// a-priori `K`, the engine tracks the maximum lateness observed so far
/// and uses `K̂ = max(floor, ceil(observed_max · safety))`.
///
/// The watermark stays **monotone** (it never retreats when `K̂` grows),
/// so already-purged state and already-sealed regions remain valid; the
/// price is that events later than the current estimate may be lost
/// (counted in [`sequin_runtime::RuntimeStats::late_drops`]). A `safety`
/// factor above 1 buys headroom against that.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveK {
    /// Multiplier applied to the observed maximum lateness.
    pub safety: f64,
}

impl Default for AdaptiveK {
    fn default() -> Self {
        AdaptiveK { safety: 2.0 }
    }
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
    /// Estimate `K` from observed disorder instead of trusting `k_slack`.
    pub adaptive_k: Option<AdaptiveK>,
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
            adaptive_k: Some(AdaptiveK { safety }),
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
    fn adaptive_params_scale_with_accuracy() {
        assert_eq!(DisorderPolicy::Conservative.adaptive_params(), None);
        assert_eq!(DisorderPolicy::Speculative.adaptive_accuracy(), None);
        let (q0, s0) = DisorderPolicy::AdaptiveSlack { accuracy: 0 }
            .adaptive_params()
            .unwrap();
        let (q90, s90) = DisorderPolicy::AdaptiveSlack { accuracy: 90 }
            .adaptive_params()
            .unwrap();
        let (q100, s100) = DisorderPolicy::AdaptiveSlack { accuracy: 100 }
            .adaptive_params()
            .unwrap();
        assert!((q0 - 0.90).abs() < 1e-9 && (s0 - 1.0).abs() < 1e-9);
        assert!(q90 >= 0.99, "accuracy 90 must track at least the p99");
        assert!((q100 - 1.0).abs() < 1e-9 && (s100 - 2.0).abs() < 1e-9);
        assert!(q0 < q90 && q90 < q100 && s0 < s90 && s90 < s100);
        // out-of-range knobs clamp instead of overshooting
        let (qbig, _) = DisorderPolicy::AdaptiveSlack { accuracy: 255 }
            .adaptive_params()
            .unwrap();
        assert!((qbig - 1.0).abs() < 1e-9);
        assert!(DisorderPolicy::Speculative.speculates());
        assert!(!DisorderPolicy::Lazy.speculates());
    }

    #[test]
    fn adaptive_config() {
        let c = EngineConfig::with_adaptive_k(Duration::new(5), 1.5);
        assert_eq!(c.k_slack, Duration::new(5));
        assert_eq!(c.adaptive_k, Some(AdaptiveK { safety: 1.5 }));
        assert_eq!(EngineConfig::default().adaptive_k, None);
        assert_eq!(AdaptiveK::default().safety, 2.0);
    }

    #[test]
    fn with_k_overrides_only_k() {
        let c = EngineConfig::with_k(Duration::new(7));
        assert_eq!(c.k_slack, Duration::new(7));
        assert_eq!(c.policy, EngineConfig::default().policy);
    }
}
