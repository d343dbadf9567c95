use std::fmt;
use std::iter::FromIterator;

use serde::{Deserialize, Serialize};

/// Numerically stable running statistics (Welford's algorithm).
///
/// Accumulates count, mean, variance, min and max in `O(1)` memory —
/// suitable for the paper's 1000-run experiment averages without
/// storing every sample.
///
/// # Examples
///
/// ```
/// use mwn_metrics::RunningStats;
///
/// let mut stats = RunningStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     stats.push(x);
/// }
/// assert_eq!(stats.mean(), 5.0);
/// assert_eq!(stats.count(), 8);
/// assert_eq!(stats.min(), 2.0);
/// assert_eq!(stats.max(), 9.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (Chan's parallel
    /// combination); used when samples are collected across threads.
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.mean += delta * other.count as f64 / total as f64;
        self.m2 += other.m2 + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (divides by `n - 1`); 0 when fewer than 2 samples.
    fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    fn std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Half-width of the 95% normal-approximation confidence interval
    /// for the mean (`1.96 ·` the standard error of the mean).
    fn ci95_half_width(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            1.96 * self.std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Smallest sample; +∞ when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample; −∞ when empty.
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut stats = RunningStats::new();
        for x in iter {
            stats.push(x);
        }
        stats
    }
}

impl Extend<f64> for RunningStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl fmt::Display for RunningStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.3} ± {:.3} (n={}, min={:.3}, max={:.3})",
            self.mean(),
            self.ci95_half_width(),
            self.count,
            if self.count == 0 { 0.0 } else { self.min },
            if self.count == 0 { 0.0 } else { self.max },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_safe() {
        let stats = RunningStats::new();
        assert_eq!(stats.count(), 0);
        assert_eq!(stats.mean(), 0.0);
        assert_eq!(stats.std_dev(), 0.0);
        assert!(stats.to_string().contains("min=0.000"));
    }

    #[test]
    fn single_sample() {
        let mut stats = RunningStats::new();
        stats.push(3.5);
        assert_eq!(stats.mean(), 3.5);
        assert_eq!(stats.sample_variance(), 0.0);
        assert_eq!(stats.min(), 3.5);
        assert_eq!(stats.max(), 3.5);
    }

    #[test]
    fn welford_matches_two_pass() {
        let xs: Vec<f64> = (0..1000)
            .map(|i| (i as f64 * 0.37).sin() * 5.0 + 2.0)
            .collect();
        let stats: RunningStats = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((stats.mean() - mean).abs() < 1e-10);
        assert!((stats.sample_variance() - var).abs() < 1e-10);
    }

    #[test]
    fn merge_matches_sequential() {
        let xs: Vec<f64> = (0..500).map(|i| i as f64 * 0.01).collect();
        let ys: Vec<f64> = (0..300).map(|i| 100.0 - i as f64).collect();
        let mut a: RunningStats = xs.iter().copied().collect();
        let b: RunningStats = ys.iter().copied().collect();
        a.merge(&b);
        let all: RunningStats = xs.iter().chain(ys.iter()).copied().collect();
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.sample_variance() - all.sample_variance()).abs() < 1e-9);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: RunningStats = [1.0, 2.0].into_iter().collect();
        let before = a;
        a.merge(&RunningStats::new());
        assert_eq!(a, before);
        let mut empty = RunningStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn ci_shrinks_with_samples() {
        let small: RunningStats = (0..10).map(|i| i as f64).collect();
        let large: RunningStats = (0..1000).map(|i| (i % 10) as f64).collect();
        assert!(large.ci95_half_width() < small.ci95_half_width());
    }

    #[test]
    fn display_is_informative() {
        let stats: RunningStats = [1.0, 3.0].into_iter().collect();
        let s = stats.to_string();
        assert!(s.contains("2.000"));
        assert!(s.contains("n=2"));
    }
}
