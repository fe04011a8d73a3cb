//! Shared low-watermark tracking (fixed or adaptive K, punctuation).

use sequin_types::{Duration, Timestamp};

use crate::config::{DisorderPolicy, EngineConfig, WatermarkSource};

/// Number of power-of-two lateness buckets: bucket `0` holds in-order
/// arrivals (lateness 0), bucket `i` holds lateness in `[2^(i-1), 2^i)`.
const SKETCH_BUCKETS: usize = 64;
/// Halve every bucket after this many recorded arrivals, so the quantile
/// estimate tracks *recent* disorder (exponential decay with a
/// deterministic, replay-stable schedule).
const SKETCH_DECAY_EVERY: u64 = 256;

/// A decayed power-of-two histogram of arrival lateness.
///
/// This is the sensor of the [`crate::DisorderPolicy::AdaptiveSlack`]
/// control loop: `quantile(q)` returns the **upper edge** of the bucket
/// containing the `q`-quantile, so the reported bound never under-states
/// any recorded sample at or below that rank — the cost of the compact
/// representation is overestimation (at most 2×), never underestimation.
///
/// The sketch is maintained for every policy (one branch per arrival) so
/// engine snapshots are policy-agnostic: a checkpoint taken under a fixed
/// bound carries the disorder history an adaptive resume needs.
#[derive(Debug, Clone)]
pub(crate) struct LatenessSketch {
    counts: [u64; SKETCH_BUCKETS],
    total: u64,
    since_decay: u64,
}

impl LatenessSketch {
    fn new() -> LatenessSketch {
        LatenessSketch {
            counts: [0; SKETCH_BUCKETS],
            total: 0,
            since_decay: 0,
        }
    }

    fn bucket(lateness: Duration) -> usize {
        let t = lateness.ticks();
        if t == 0 {
            0
        } else {
            (64 - t.leading_zeros() as usize).min(SKETCH_BUCKETS - 1)
        }
    }

    /// Upper edge of bucket `i`: the largest lateness it can hold.
    fn upper_edge(i: usize) -> Duration {
        if i == 0 {
            Duration::ZERO
        } else if i >= 63 {
            Duration::MAX
        } else {
            Duration::new((1u64 << i) - 1)
        }
    }

    pub fn record(&mut self, lateness: Duration) {
        self.counts[Self::bucket(lateness)] += 1;
        self.total += 1;
        self.since_decay += 1;
        if self.since_decay >= SKETCH_DECAY_EVERY {
            self.since_decay = 0;
            self.total = 0;
            for c in self.counts.iter_mut() {
                *c >>= 1;
                self.total += *c;
            }
        }
    }

    /// The smallest bucket upper-edge at or above the `q`-quantile of the
    /// recorded (decayed) samples; `ZERO` when nothing is recorded.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.total == 0 {
            return Duration::ZERO;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Self::upper_edge(i);
            }
        }
        Self::upper_edge(SKETCH_BUCKETS - 1)
    }

    pub fn snapshot_into(&self, w: &mut sequin_types::Writer) {
        for &c in &self.counts {
            w.put_u64(c);
        }
        w.put_u64(self.since_decay);
    }

    pub fn restore_from(
        r: &mut sequin_types::Reader<'_>,
    ) -> Result<LatenessSketch, sequin_types::CodecError> {
        let mut s = LatenessSketch::new();
        for c in s.counts.iter_mut() {
            *c = r.get_u64()?;
        }
        s.total = s.counts.iter().sum();
        s.since_decay = r.get_u64()?;
        Ok(s)
    }
}

/// Tracks the stream clock (max occurrence timestamp seen), punctuation
/// assertions, the disorder-bound estimate `K̂`, and the resulting
/// **monotone** low-watermark.
///
/// With a fixed bound, `K̂ = K` always. With
/// [`EngineConfig::adaptive_k`]'s safety `s`,
/// `K̂ = max(floor, ceil(observed_max_lateness · s))`. Under
/// [`DisorderPolicy::AdaptiveSlack`], `K̂` additionally tracks a decayed
/// lateness quantile: `max(floor, ceil(quantile(q) · safety))`.
///
/// **Shrink safety (purge audit):** the adaptive estimates can *shrink* —
/// decay forgets an old disorder burst, so `clock − K̂` can jump forward,
/// and a growing `K̂` would pull it backwards. Both directions are
/// absorbed here: the published watermark is the running maximum of every
/// candidate ever computed ([`WatermarkTracker::republish`]), and every
/// purge/seal threshold in the engine derives from that published value —
/// never from the instantaneous `clock − K̂(t)`. State admitted under a
/// larger bound therefore cannot be evicted before its matches settle,
/// and decisions already taken stay valid.
#[derive(Debug, Clone)]
pub(crate) struct WatermarkTracker {
    source: WatermarkSource,
    bound: Bound,
    clock: Timestamp,
    punct: Timestamp,
    observed_max_lateness: Duration,
    high: Timestamp,
    sketch: LatenessSketch,
}

/// What a tracker's `K̂` is computed from. Two trackers with equal bounds
/// publish the same watermark for the same arrivals, so this is what
/// decides whether two queries can share one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Bound {
    k_floor: Duration,
    /// The multiplier on the observed maximum lateness.
    safety: Option<f64>,
    /// The lateness quantile tracked, and the multiplier on it.
    slack: Option<(f64, f64)>,
}

impl WatermarkTracker {
    /// The tracker of a query running under `policy` in `config`: the one
    /// place a lateness bound is derived. An adaptive `accuracy` (clamped
    /// to `0..=100`) maps linearly from tracking the p90 with no margin to
    /// tracking the maximum with a 2× margin, so `accuracy >= 90` tracks at
    /// least the p99.
    pub fn new(config: &EngineConfig, policy: DisorderPolicy) -> WatermarkTracker {
        let slack = match policy {
            DisorderPolicy::AdaptiveSlack { accuracy } => {
                let a = f64::from(accuracy.min(100));
                Some((0.90 + 0.001 * a, 1.0 + a / 100.0))
            }
            _ => None,
        };
        WatermarkTracker {
            source: config.watermark,
            bound: Bound {
                k_floor: config.k_slack,
                safety: config.adaptive_k,
                slack,
            },
            clock: Timestamp::MIN,
            punct: Timestamp::MIN,
            observed_max_lateness: Duration::ZERO,
            high: Timestamp::MIN,
            sketch: LatenessSketch::new(),
        }
    }

    /// The maximum occurrence timestamp seen.
    pub fn clock(&self) -> Timestamp {
        self.clock
    }

    /// What this tracker's `K̂` is computed from.
    pub fn bound(&self) -> Bound {
        self.bound
    }

    /// The current disorder-bound estimate.
    pub fn k_hat(&self) -> Duration {
        let Bound {
            k_floor,
            safety,
            slack,
        } = self.bound;
        let mut k = match safety {
            None => k_floor,
            Some(safety) => k_floor.max(scale_ticks(self.observed_max_lateness, safety)),
        };
        if let Some((q, safety)) = slack {
            k = k.max(scale_ticks(self.sketch.quantile(q), safety));
        }
        k
    }

    /// The published (monotone) low-watermark.
    pub fn current(&self) -> Timestamp {
        self.high
    }

    /// Accounts for an event arrival. Returns `true` when the event was
    /// later than the watermark published *before* this arrival — i.e. the
    /// engine may already have purged state it needed.
    pub fn observe_event(&mut self, ts: Timestamp) -> bool {
        let was_late = ts < self.high;
        if ts < self.clock {
            self.observed_max_lateness = self.observed_max_lateness.max(self.clock - ts);
            self.sketch.record(self.clock - ts);
        } else {
            self.sketch.record(Duration::ZERO);
        }
        self.clock = self.clock.max(ts);
        self.republish();
        was_late
    }

    /// Accounts for a punctuation.
    pub fn observe_punctuation(&mut self, t: Timestamp) {
        self.punct = self.punct.max(t);
        self.republish();
    }

    /// End-of-stream: pin the watermark at the maximum.
    pub fn seal(&mut self) {
        self.high = Timestamp::MAX;
    }

    /// Serializes the mutable scalars plus the lateness sketch (the bound
    /// is rebuilt from the configuration and policy at restore time). The
    /// sketch is written unconditionally so the format — and the disorder
    /// history it carries — is the same no matter which
    /// [`DisorderPolicy`] took the checkpoint.
    pub fn snapshot_into(&self, w: &mut sequin_types::Writer) {
        use sequin_types::Encode as _;
        self.clock.encode(w);
        self.punct.encode(w);
        self.observed_max_lateness.encode(w);
        self.high.encode(w);
        self.sketch.snapshot_into(w);
    }

    /// Rebuilds a tracker from `config` and `policy`, as
    /// [`WatermarkTracker::new`] does, plus the scalars written by
    /// [`WatermarkTracker::snapshot_into`].
    pub fn restore_from(
        config: &EngineConfig,
        policy: DisorderPolicy,
        r: &mut sequin_types::Reader<'_>,
    ) -> Result<WatermarkTracker, sequin_types::CodecError> {
        use sequin_types::Decode as _;
        let mut wm = WatermarkTracker::new(config, policy);
        wm.clock = Timestamp::decode(r)?;
        wm.punct = Timestamp::decode(r)?;
        wm.observed_max_lateness = Duration::decode(r)?;
        wm.high = Timestamp::decode(r)?;
        wm.sketch = LatenessSketch::restore_from(r)?;
        Ok(wm)
    }

    fn republish(&mut self) {
        let candidate = self.source.watermark(self.clock, self.k_hat(), self.punct);
        // Running max: `candidate` may move backwards when K̂ grows, and
        // jumps forwards when decay shrinks K̂ — publication absorbs both.
        self.high = self.high.max(candidate);
    }
}

/// `ceil(d · f)` saturating at `Duration::MAX`.
fn scale_ticks(d: Duration, f: f64) -> Duration {
    let scaled = (d.ticks() as f64 * f).ceil();
    if scaled.is_finite() && scaled >= 0.0 {
        Duration::new(scaled.min(u64::MAX as f64) as u64)
    } else {
        Duration::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker(cfg: &EngineConfig) -> WatermarkTracker {
        WatermarkTracker::new(cfg, DisorderPolicy::Conservative)
    }

    fn fixed(k: u64) -> WatermarkTracker {
        tracker(&EngineConfig::with_k(Duration::new(k)))
    }

    #[test]
    fn fixed_k_tracks_clock_minus_k() {
        let mut w = fixed(10);
        assert!(!w.observe_event(Timestamp::new(100)));
        assert_eq!(w.current(), Timestamp::new(90));
        assert_eq!(w.clock(), Timestamp::new(100));
        assert_eq!(w.k_hat(), Duration::new(10));
    }

    #[test]
    fn watermark_is_monotone_under_late_events() {
        let mut w = fixed(10);
        w.observe_event(Timestamp::new(100));
        assert!(
            w.observe_event(Timestamp::new(50)),
            "beyond-K arrival flagged"
        );
        assert_eq!(w.current(), Timestamp::new(90), "never retreats");
    }

    #[test]
    fn adaptive_k_grows_with_observed_lateness() {
        let mut w = tracker(&EngineConfig::with_adaptive_k(Duration::new(5), 2.0));
        w.observe_event(Timestamp::new(100));
        assert_eq!(w.k_hat(), Duration::new(5), "floor before any lateness");
        w.observe_event(Timestamp::new(80)); // 20 late
        assert_eq!(w.k_hat(), Duration::new(40));
        // watermark does not retreat from its earlier publication (95)
        assert_eq!(w.current(), Timestamp::new(95));
        // and resumes rising once the clock outruns the larger K̂
        w.observe_event(Timestamp::new(200));
        assert_eq!(w.current(), Timestamp::new(160));
    }

    #[test]
    fn punctuation_sources() {
        let mut cfg = EngineConfig::with_k(Duration::new(1_000));
        cfg.watermark = WatermarkSource::Punctuation;
        let mut w = tracker(&cfg);
        w.observe_event(Timestamp::new(500));
        assert_eq!(w.current(), Timestamp::MIN, "k-slack ignored");
        w.observe_punctuation(Timestamp::new(300));
        assert_eq!(w.current(), Timestamp::new(300));

        let mut cfg = EngineConfig::with_k(Duration::new(100));
        cfg.watermark = WatermarkSource::Both;
        let mut w = tracker(&cfg);
        w.observe_event(Timestamp::new(500));
        w.observe_punctuation(Timestamp::new(450));
        assert_eq!(w.current(), Timestamp::new(450), "max of both");
    }

    #[test]
    fn snapshot_round_trips_all_scalars() {
        let cfg = EngineConfig::with_adaptive_k(Duration::new(5), 2.0);
        let mut w = tracker(&cfg);
        w.observe_event(Timestamp::new(100));
        w.observe_event(Timestamp::new(80));
        w.observe_punctuation(Timestamp::new(60));
        let mut buf = sequin_types::Writer::new();
        w.snapshot_into(&mut buf);
        let bytes = buf.into_bytes();
        let mut r = sequin_types::Reader::new(&bytes);
        let restored =
            WatermarkTracker::restore_from(&cfg, DisorderPolicy::Conservative, &mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored.clock(), w.clock());
        assert_eq!(restored.current(), w.current());
        assert_eq!(restored.k_hat(), w.k_hat());
        assert_eq!(restored.punct, w.punct);
    }

    #[test]
    fn seal_pins_at_max() {
        let mut w = fixed(10);
        w.observe_event(Timestamp::new(7));
        w.seal();
        assert_eq!(w.current(), Timestamp::MAX);
    }

    fn adaptive_slack(k_floor: u64, accuracy: u8) -> WatermarkTracker {
        let cfg = EngineConfig::with_k(Duration::new(k_floor));
        WatermarkTracker::new(&cfg, DisorderPolicy::AdaptiveSlack { accuracy })
    }

    #[test]
    fn adaptive_accuracy_is_clamped_and_keys_the_bound() {
        let cfg = EngineConfig::with_k(Duration::new(5));
        let bound = |policy| WatermarkTracker::new(&cfg, policy).bound();
        let adaptive = |accuracy| bound(DisorderPolicy::AdaptiveSlack { accuracy });
        assert_eq!(
            bound(DisorderPolicy::Speculative),
            bound(DisorderPolicy::Lazy)
        );
        assert_ne!(adaptive(90), bound(DisorderPolicy::Conservative));
        assert_ne!(adaptive(90), adaptive(95));
        assert_eq!(adaptive(255), adaptive(100), "out-of-range knobs clamp");
        let near = |accuracy, (q, s): (f64, f64)| {
            let (got_q, got_s) = adaptive(accuracy).slack.unwrap();
            (got_q - q).abs() < 1e-9 && (got_s - s).abs() < 1e-9
        };
        assert!(near(0, (0.90, 1.0)) && near(100, (1.0, 2.0)));
        assert!(adaptive(90).slack.unwrap().0 >= 0.99, "90 tracks the p99");
    }

    #[test]
    fn sketch_quantile_never_understates_samples() {
        let mut s = LatenessSketch::new();
        for late in [0u64, 0, 1, 3, 3, 7, 12, 40, 100, 900] {
            s.record(Duration::new(late));
        }
        assert!(s.quantile(1.0) >= Duration::new(900), "max covered");
        assert!(s.quantile(0.5) >= Duration::new(3), "median covered");
        assert_eq!(LatenessSketch::new().quantile(0.99), Duration::ZERO);
        // monotone in q
        assert!(s.quantile(0.9) <= s.quantile(0.99));
    }

    #[test]
    fn sketch_decay_forgets_old_bursts() {
        let mut s = LatenessSketch::new();
        for _ in 0..10 {
            s.record(Duration::new(1_000));
        }
        let burst = s.quantile(0.99);
        assert!(burst >= Duration::new(1_000));
        // a long in-order run decays the burst out of the p99
        for _ in 0..4 * SKETCH_DECAY_EVERY {
            s.record(Duration::ZERO);
        }
        assert!(
            s.quantile(0.99) < burst,
            "decay must shrink the tracked quantile"
        );
    }

    #[test]
    fn adaptive_slack_bound_tracks_quantile_and_respects_floor() {
        let mut w = adaptive_slack(5, 100);
        assert_eq!(w.k_hat(), Duration::new(5), "floor before any lateness");
        w.observe_event(Timestamp::new(1_000));
        w.observe_event(Timestamp::new(900)); // 100 late
        assert!(
            w.k_hat() >= Duration::new(100),
            "accuracy=100 covers the max observed lateness, got {:?}",
            w.k_hat()
        );
        // watermark still published monotonically from the clock
        let before = w.current();
        w.observe_event(Timestamp::new(950));
        assert!(w.current() >= before);
    }

    #[test]
    fn adaptive_slack_shrink_never_retreats_watermark() {
        let mut w = adaptive_slack(2, 95);
        let mut clock = 10_000u64;
        w.observe_event(Timestamp::new(clock));
        w.observe_event(Timestamp::new(clock - 2_000)); // huge burst
        let k_burst = w.k_hat();
        assert!(k_burst >= Duration::new(2_000));
        let mut last = w.current();
        // in-order run: decay shrinks K̂; watermark must stay monotone
        for _ in 0..6 * SKETCH_DECAY_EVERY {
            clock += 1;
            w.observe_event(Timestamp::new(clock));
            assert!(w.current() >= last, "watermark retreated");
            last = w.current();
        }
        assert!(w.k_hat() < k_burst, "decay should have shrunk the bound");
    }

    #[test]
    fn sketch_survives_snapshot_round_trip() {
        let cfg = EngineConfig::with_k(Duration::new(3));
        let adaptive = DisorderPolicy::AdaptiveSlack { accuracy: 90 };
        let mut w = WatermarkTracker::new(&cfg, adaptive);
        w.observe_event(Timestamp::new(500));
        for late in [10u64, 20, 30, 40, 450] {
            w.observe_event(Timestamp::new(500 - late));
        }
        let mut buf = sequin_types::Writer::new();
        w.snapshot_into(&mut buf);
        let bytes = buf.into_bytes();
        let mut r = sequin_types::Reader::new(&bytes);
        let restored = WatermarkTracker::restore_from(&cfg, adaptive, &mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored.k_hat(), w.k_hat());
        assert_eq!(restored.current(), w.current());
        // a fixed-policy restore of the same bytes also succeeds (the
        // sketch is policy-agnostic in the format)
        let mut r = sequin_types::Reader::new(&bytes);
        let fixed =
            WatermarkTracker::restore_from(&cfg, DisorderPolicy::Conservative, &mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(fixed.k_hat(), Duration::new(3));
    }
}
