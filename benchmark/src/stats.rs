//! Order statistics over small samples.

/// First quartile, median and third quartile by the rule Python's
/// `statistics.quantiles(values, n=4)` uses (exclusive method: the
/// quantile `q` sits at position `q·(n+1)`, interpolated linearly and
/// clamped to the sample), so a spread computed here is the spread a
/// reader computes there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Quartiles {
    /// Returns `None` for an empty sample. A sample of one is its own
    /// quartiles.
    pub fn of(values: &[f64]) -> Option<Quartiles> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let at = |q: f64| -> f64 {
            let n = v.len();
            if n == 1 {
                return v[0];
            }
            let pos = q * (n as f64 + 1.0);
            let j = (pos.floor() as usize).clamp(1, n - 1);
            let delta = pos - j as f64;
            v[j - 1] + delta * (v[j] - v[j - 1])
        };
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        Some(Quartiles {
            q1: at(0.25),
            median,
            q3: at(0.75),
            n,
        })
    }
}

pub fn median(values: &[f64]) -> f64 {
    Quartiles::of(values).map_or(0.0, |q| q.median)
}

/// Nearest-rank percentile (`p` in 0..=100) of an unsorted sample; sorts
/// in place. Zero for an empty sample.
pub fn percentile(values: &mut [u64], p: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// `reps[r][i]` is how long part `i` of the work took in repetition `r`;
/// every repetition does the same work in the same parts. Returns each
/// part's shortest time over the repetitions (for as many parts as the
/// shortest repetition has).
///
/// On a shared machine the neighbours slow the program by a third and more
/// for anything from milliseconds to seconds at a time, so no whole
/// repetition escapes them, while a part that takes a millisecond now and
/// then falls between their bursts: over ten to forty repetitions its
/// shortest time is close to what it takes on a quiet machine. The machine
/// only ever adds time. A change to the program moves every time of the
/// parts it touches, the shortest too.
pub fn fastest_per_part(reps: &[Vec<u64>]) -> Vec<u64> {
    let parts = reps.iter().map(Vec::len).min().unwrap_or(0);
    (0..parts)
        .map(|i| reps.iter().map(|r| r[i]).min().unwrap_or(0))
        .collect()
}

/// The mean of the best quarter of `values`, the highest or the lowest
/// (of three, if a quarter is fewer; of all, if there are fewer than
/// three). Zero for none.
pub fn mean_of_best_quarter(values: &[f64], higher_is_better: bool) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if higher_is_better {
        v.reverse();
    }
    v.truncate((v.len() / 4).max(3));
    mean(&v)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&v).unwrap();
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = Quartiles::of(&[1.0, 2.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn degenerate_samples() {
        assert_eq!(Quartiles::of(&[]), None);
        let q = Quartiles::of(&[4.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (4.0, 4.0, 4.0));
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn each_part_at_its_fastest() {
        let reps = [vec![5, 9, 7, 1], vec![6, 4, 8], vec![7, 6, 3]];
        assert_eq!(fastest_per_part(&reps), [5, 4, 3]);
        assert_eq!(fastest_per_part(&[]), [0u64; 0]);
    }

    #[test]
    fn best_quarter_in_the_metrics_direction() {
        let v: Vec<f64> = (1..=16).map(f64::from).collect();
        // a quarter of sixteen is four: 16, 15, 14, 13 and 1, 2, 3, 4
        assert_eq!(mean_of_best_quarter(&v, true), 14.5);
        assert_eq!(mean_of_best_quarter(&v, false), 2.5);
        assert_eq!(mean_of_best_quarter(&v[..5], true), 4.0);
        assert_eq!(mean_of_best_quarter(&[9.0, 5.0], false), 7.0);
        assert_eq!(mean_of_best_quarter(&[], true), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 50.0), 50);
        assert_eq!(percentile(&mut v, 99.0), 99);
        assert_eq!(percentile(&mut v, 100.0), 100);
        assert_eq!(percentile(&mut v, 0.0), 1);
        assert_eq!(percentile(&mut [], 50.0), 0);
        assert_eq!(percentile(&mut [7], 90.0), 7);
    }
}
