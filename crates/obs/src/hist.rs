//! Fixed-bucket histograms.
//!
//! [`FixedHistogram`] is the workspace's one histogram, built for *live*
//! exposition: constant memory, O(1) record, O(buckets) merge, and a bucket
//! layout that is identical everywhere so that merging across queries or
//! processes is well defined.

use std::fmt;

/// Upper bounds (inclusive) of the finite buckets, in recorded units.
///
/// Powers of two from 1 to 65536: latencies in this workspace are logical
/// (arrival counts or event-time ticks), so the interesting range spans
/// "immediate" (0–1) through "an entire large window" (tens of thousands).
/// Samples above the last bound land in the implicit `+Inf` bucket.
pub const BUCKET_BOUNDS: [u64; 17] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536,
];

/// The bucket `sample` lands in: the first bound `2^i` at or above it, so
/// `i = ⌈log2 sample⌉` — the bit length of `sample − 1` — or the `+Inf`
/// slot past the last bound.
#[inline]
fn bucket_of(sample: u64) -> usize {
    let bits = u64::BITS - sample.saturating_sub(1).leading_zeros();
    (bits as usize).min(BUCKET_BOUNDS.len())
}

/// A fixed-bucket histogram with cumulative-friendly bookkeeping
/// (count/sum/min/max), recording `u64` samples.
///
/// The bucket layout is the crate-wide [`BUCKET_BOUNDS`]; bucket `i` counts
/// samples `<= BUCKET_BOUNDS[i]` that did not fit an earlier bucket, and
/// the final slot counts everything larger (`+Inf`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FixedHistogram {
    counts: [u64; BUCKET_BOUNDS.len() + 1],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for FixedHistogram {
    fn default() -> Self {
        FixedHistogram::new()
    }
}

impl FixedHistogram {
    /// Creates an empty histogram.
    pub fn new() -> FixedHistogram {
        FixedHistogram {
            counts: [0; BUCKET_BOUNDS.len() + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, sample: u64) {
        self.counts[bucket_of(sample)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(sample);
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
    }

    /// Folds another histogram into this one. Well defined because every
    /// `FixedHistogram` shares the same bucket layout.
    pub fn merge(&mut self, other: &FixedHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Per-bucket (non-cumulative) counts; the last entry is the `+Inf`
    /// bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Cumulative counts in Prometheus `le` form: for each bound in
    /// [`BUCKET_BOUNDS`] the number of samples `<=` it, then the total
    /// (`+Inf`).
    pub fn cumulative(&self) -> Vec<u64> {
        let mut acc = 0;
        self.counts
            .iter()
            .map(|c| {
                acc += c;
                acc
            })
            .collect()
    }
}

impl fmt::Display for FixedHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} sum={} min={} max={}",
            self.count,
            self.sum,
            self.min(),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = FixedHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert!(h.bucket_counts().iter().all(|&c| c == 0));
    }

    #[test]
    fn samples_land_in_the_right_buckets() {
        let mut h = FixedHistogram::new();
        h.record(0); // <= 1
        h.record(1); // <= 1
        h.record(2); // <= 2
        h.record(3); // <= 4
        h.record(70_000); // +Inf
        assert_eq!(h.bucket_counts()[0], 2);
        assert_eq!(h.bucket_counts()[1], 1);
        assert_eq!(h.bucket_counts()[2], 1);
        assert_eq!(h.bucket_counts()[BUCKET_BOUNDS.len()], 1);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 70_006);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 70_000);
    }

    /// The bucket taken by arithmetic is the one the scan over the bounds
    /// finds, for every sample up to two past the last bound and the
    /// largest.
    #[test]
    fn the_bucket_is_the_first_bound_at_or_above_the_sample() {
        let scan = |sample: u64| {
            BUCKET_BOUNDS
                .iter()
                .position(|&b| sample <= b)
                .unwrap_or(BUCKET_BOUNDS.len())
        };
        for sample in (0..=131_073).chain([u64::MAX - 1, u64::MAX]) {
            assert_eq!(bucket_of(sample), scan(sample), "{sample}");
        }
    }

    #[test]
    fn cumulative_is_monotone_and_ends_at_count() {
        let mut h = FixedHistogram::new();
        for s in [1, 5, 9, 100, 1_000_000] {
            h.record(s);
        }
        let cum = h.cumulative();
        assert_eq!(cum.len(), BUCKET_BOUNDS.len() + 1);
        assert!(cum.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*cum.last().unwrap(), h.count());
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let mut a = FixedHistogram::new();
        let mut b = FixedHistogram::new();
        let mut both = FixedHistogram::new();
        for s in [0, 3, 17, 4096] {
            a.record(s);
            both.record(s);
        }
        for s in [2, 2, 99_999] {
            b.record(s);
            both.record(s);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = FixedHistogram::new();
        a.record(7);
        let before = a.clone();
        a.merge(&FixedHistogram::new());
        assert_eq!(a, before);
    }
}
