//! K-slack / punctuation-safe purge thresholds.
//!
//! Under a disorder bound `K` (every event arrives at most `K` ticks behind
//! the maximum occurrence timestamp seen so far, the *clock*), the stream's
//! **low-watermark** is `clock − K`: no in-flight event has a smaller
//! timestamp. Punctuations assert a low-watermark directly. All purge
//! safety below is expressed against the watermark:
//!
//! * an instance in a **non-final** stack with timestamp `t` can only join
//!   matches whose last positive has timestamp `≤ t + W`; once
//!   `watermark > t + W` no such terminator can still arrive *and* every
//!   already-arrived terminator has already triggered construction — purge
//!   when `t < watermark − W`;
//! * an instance in the **final** stack only joins matches whose other
//!   constituents have strictly smaller timestamps; once `watermark > t`
//!   none of those can still arrive — purge when `t < watermark`;
//! * a **negative** event with timestamp `t` guards negation regions
//!   `[s, e)` with `e − s ≤ 2W + 1` (the widest is a leading region paired
//!   with a trailing deadline). It is needed while some region containing
//!   it is still unsealed (`e > watermark`), which implies
//!   `t ≥ s > watermark − 2W − 1`; purge when `t < watermark − 2W − 1`.
//!
//! (The in-order baseline in `sequin-bench` purges on arrival with
//! `K = 0`, i.e. `watermark = clock`.)

use sequin_types::{Duration, Timestamp};

/// The low-watermark for a K-slack stream: `clock − K`, clamped at zero.
pub fn watermark(clock: Timestamp, k: Duration) -> Timestamp {
    clock.saturating_sub(k)
}

/// Purge threshold for non-final positive stacks: instances with
/// `ts < watermark − W` are dead.
pub fn prefix_threshold(watermark: Timestamp, window: Duration) -> Timestamp {
    watermark.saturating_sub(window)
}

/// Purge threshold for the final positive stack: instances with
/// `ts < watermark` are dead.
pub fn final_threshold(watermark: Timestamp) -> Timestamp {
    watermark
}

/// Purge threshold for negative-event indexes: negatives with
/// `ts < watermark − (2W + 1)` can no longer fall inside any unsealed
/// negation region (see the module docs for the derivation).
pub fn negative_threshold(watermark: Timestamp, window: Duration) -> Timestamp {
    watermark
        .saturating_sub(window)
        .saturating_sub(window)
        .saturating_sub(Duration::new(1))
}

/// Batching policy for purge passes.
///
/// Purging on every event keeps state minimal but pays a pass per event;
/// batching amortizes the cost (the paper's purge optimization). `every_n =
/// 1` purges per event; `None` disables purging entirely (the memory-blowup
/// baseline for the ablation experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PurgePolicy {
    /// Run a purge pass every `n` ingested items; `None` = never purge.
    pub every_n: Option<u32>,
}

impl PurgePolicy {
    /// Purge on every ingested item.
    pub const EAGER: PurgePolicy = PurgePolicy { every_n: Some(1) };
    /// Never purge (unbounded state).
    pub const NEVER: PurgePolicy = PurgePolicy { every_n: None };

    /// Purge every `n` items.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn batched(n: u32) -> PurgePolicy {
        assert!(n > 0, "batch size must be positive");
        PurgePolicy { every_n: Some(n) }
    }

    /// True when a purge pass is due after `items_seen` ingested items.
    pub fn due(&self, items_seen: u64) -> bool {
        match self.every_n {
            Some(n) => items_seen % u64::from(n) == 0,
            None => false,
        }
    }
}

impl Default for PurgePolicy {
    fn default() -> Self {
        PurgePolicy::batched(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermark_is_clock_minus_k() {
        assert_eq!(
            watermark(Timestamp::new(100), Duration::new(30)),
            Timestamp::new(70)
        );
        assert_eq!(
            watermark(Timestamp::new(10), Duration::new(30)),
            Timestamp::MIN
        );
    }

    #[test]
    fn thresholds() {
        let wm = Timestamp::new(100);
        assert_eq!(prefix_threshold(wm, Duration::new(40)), Timestamp::new(60));
        assert_eq!(final_threshold(wm), wm);
        assert_eq!(
            prefix_threshold(Timestamp::new(5), Duration::new(40)),
            Timestamp::MIN
        );
    }

    #[test]
    fn negative_threshold_reaches_back_two_windows() {
        assert_eq!(
            negative_threshold(Timestamp::new(100), Duration::new(20)),
            Timestamp::new(59)
        );
        assert_eq!(
            negative_threshold(Timestamp::new(10), Duration::new(20)),
            Timestamp::MIN
        );
    }

    #[test]
    fn policy_cadence() {
        let p = PurgePolicy::batched(3);
        assert!(p.due(3));
        assert!(p.due(6));
        assert!(!p.due(4));
        assert!(PurgePolicy::EAGER.due(1));
        assert!(PurgePolicy::EAGER.due(2));
        assert!(!PurgePolicy::NEVER.due(1_000_000));
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_panics() {
        PurgePolicy::batched(0);
    }

    #[test]
    fn default_is_batched() {
        assert_eq!(PurgePolicy::default().every_n, Some(64));
    }
}
