//! Percentiles: exact (sort-based) and streaming (fixed-bucket).
//!
//! The traffic plane reports delivery-latency percentiles over millions
//! of packets. Two tools cover the two regimes:
//!
//! * [`percentiles`] — exact linearly-interpolated order statistics
//!   over a sample you can afford to hold and sort;
//! * [`LatencyHistogram`] — a fixed-bucket streaming sketch whose hot
//!   path ([`LatencyHistogram::record`]) is allocation-free, with
//!   quantile error bounded by one bucket width.

/// Exact percentiles by sorting `samples` in place.
///
/// Each entry of `qs` is a quantile in `[0, 1]`; the result has one
/// value per quantile, computed with the common linear interpolation
/// between closest order statistics (type R-7, the numpy default).
/// An empty sample yields `NaN` for every quantile. Samples sort by
/// [`f64::total_cmp`], so a (positive) `NaN` sample sorts above every
/// number instead of panicking: it can only move the top quantiles.
///
/// # Examples
///
/// ```
/// use mwn_metrics::percentiles;
///
/// let mut xs = vec![4.0, 1.0, 3.0, 2.0];
/// let ps = percentiles(&mut xs, &[0.0, 0.5, 1.0]);
/// assert_eq!(ps, vec![1.0, 2.5, 4.0]);
/// ```
pub fn percentiles(samples: &mut [f64], qs: &[f64]) -> Vec<f64> {
    if samples.is_empty() {
        return vec![f64::NAN; qs.len()];
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    qs.iter()
        .map(|&q| {
            let q = q.clamp(0.0, 1.0);
            let h = q * (n - 1) as f64;
            let lo = h.floor() as usize;
            let hi = h.ceil() as usize;
            let frac = h - lo as f64;
            samples[lo] + (samples[hi] - samples[lo]) * frac
        })
        .collect()
}

/// A streaming fixed-bucket latency sketch.
///
/// Values land in `buckets` equal-width bins over
/// `[0, buckets × width)`; anything larger is counted in a single
/// overflow bin. [`LatencyHistogram::record`] touches one counter and
/// never allocates, so it is safe inside a per-packet hot loop.
/// [`LatencyHistogram::quantile`] answers with the *upper edge* of the
/// bucket holding the requested rank (conservative: never
/// under-reports), so its error versus the exact sorted percentile is
/// at most one bucket width — unit-tested against [`percentiles`].
///
/// # Examples
///
/// ```
/// use mwn_metrics::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new(1.0, 64);
/// for v in [1.5, 2.5, 3.5, 100.0] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert_eq!(h.quantile(0.5), 3.0); // upper edge of 2.5's bucket
/// assert_eq!(h.quantile(1.0), 100.0); // overflow reports the max
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct LatencyHistogram {
    width: f64,
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
    sum: f64,
    max: f64,
}

impl LatencyHistogram {
    /// A histogram of `buckets` bins of `width` each, covering
    /// `[0, buckets × width)` plus one overflow bin.
    ///
    /// # Panics
    ///
    /// Panics when `width` is not strictly positive or `buckets` is 0.
    pub fn new(width: f64, buckets: usize) -> Self {
        assert!(width > 0.0, "bucket width must be positive");
        assert!(buckets > 0, "need at least one bucket");
        LatencyHistogram {
            width,
            counts: vec![0; buckets],
            overflow: 0,
            total: 0,
            sum: 0.0,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one value (negative values clamp to the first bucket).
    /// Allocation-free.
    #[inline]
    pub fn record(&mut self, v: f64) {
        let v = if v < 0.0 { 0.0 } else { v };
        let idx = (v / self.width) as usize;
        if idx < self.counts.len() {
            self.counts[idx] += 1;
        } else {
            self.overflow += 1;
        }
        self.total += 1;
        self.sum += v;
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Mean of the recorded values (exact, not bucketed). `NaN` when
    /// empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            f64::NAN
        } else {
            self.sum / self.total as f64
        }
    }

    /// Largest recorded value. `NaN` when empty.
    pub fn max(&self) -> f64 {
        if self.total == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// The value at quantile `q ∈ [0, 1]`: the upper edge of the
    /// bucket containing the rank-`⌈q·n⌉` value (clamped to the
    /// recorded max), or the exact max for ranks in the overflow bin.
    /// `NaN` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let edge = (i + 1) as f64 * self.width;
                return if edge > self.max { self.max } else { edge };
            }
        }
        self.max
    }

    /// Merges another histogram of the identical shape into this one.
    ///
    /// # Panics
    ///
    /// Panics when the widths or bucket counts differ.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        assert_eq!(self.width, other.width, "bucket widths differ");
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "bucket counts differ"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.total += other.total;
        self.sum += other.sum;
        if other.max > self.max {
            self.max = other.max;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn percentiles_match_hand_computed_order_stats() {
        let mut xs = vec![10.0, 20.0, 30.0, 40.0, 50.0];
        let ps = percentiles(&mut xs, &[0.0, 0.25, 0.5, 0.75, 1.0]);
        assert_eq!(ps, vec![10.0, 20.0, 30.0, 40.0, 50.0]);
        let mut xs = vec![1.0, 2.0];
        assert_eq!(percentiles(&mut xs, &[0.5]), vec![1.5]);
    }

    #[test]
    fn percentiles_of_empty_sample_are_nan() {
        let ps = percentiles(&mut [], &[0.5, 0.99]);
        assert_eq!(ps.len(), 2);
        assert!(ps.iter().all(|p| p.is_nan()));
    }

    #[test]
    fn a_nan_sample_sorts_last_instead_of_panicking() {
        let mut xs = vec![3.0, f64::NAN, 1.0, 2.0];
        let ps = percentiles(&mut xs, &[0.0, 0.5, 1.0]);
        assert_eq!(ps[..2], [1.0, 2.5]);
        assert!(ps[2].is_nan());
        assert!(xs[3].is_nan(), "{xs:?}");
    }

    #[test]
    fn percentiles_sorts_in_place() {
        let mut xs = vec![3.0, 1.0, 2.0];
        percentiles(&mut xs, &[0.5]);
        assert_eq!(xs, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn histogram_quantiles_within_one_bucket_of_exact_sort() {
        let mut rng = StdRng::seed_from_u64(7);
        let width = 2.0;
        let mut h = LatencyHistogram::new(width, 200);
        let mut exact: Vec<f64> = Vec::new();
        for _ in 0..10_000 {
            // Skewed latencies: mostly small, occasional large.
            let v = if rng.random_bool(0.9) {
                rng.random_range(0.0..50.0)
            } else {
                rng.random_range(50.0..380.0)
            };
            h.record(v);
            exact.push(v);
        }
        let qs = [0.5, 0.95, 0.99];
        let truth = percentiles(&mut exact, &qs);
        for (&q, &t) in qs.iter().zip(&truth) {
            let est = h.quantile(q);
            assert!(
                (est - t).abs() <= width,
                "q={q}: histogram {est} vs exact {t} (width {width})"
            );
            assert!(est >= t - width, "quantile must not under-report");
        }
    }

    #[test]
    fn histogram_overflow_ranks_report_exact_max() {
        let mut h = LatencyHistogram::new(1.0, 4);
        for v in [0.5, 1.5, 9.0, 17.0] {
            h.record(v);
        }
        assert_eq!(h.overflow, 2);
        assert_eq!(h.quantile(1.0), 17.0);
        assert_eq!(h.quantile(0.99), 17.0);
        assert_eq!(h.quantile(0.25), 1.0);
    }

    #[test]
    fn histogram_empty_and_mean_and_merge() {
        let mut a = LatencyHistogram::new(1.0, 8);
        assert!(a.is_empty());
        assert!(a.quantile(0.5).is_nan());
        assert!(a.mean().is_nan());
        a.record(1.0);
        a.record(3.0);
        let mut b = LatencyHistogram::new(1.0, 8);
        b.record(5.0);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert!((a.mean() - 3.0).abs() < 1e-12);
        assert_eq!(a.max(), 5.0);
    }

    #[test]
    fn histogram_is_deterministic_under_merge_order() {
        let vals = [0.3, 4.2, 9.9, 2.2, 7.7, 0.0];
        let mut whole = LatencyHistogram::new(0.5, 32);
        for &v in &vals {
            whole.record(v);
        }
        let mut left = LatencyHistogram::new(0.5, 32);
        let mut right = LatencyHistogram::new(0.5, 32);
        for &v in &vals[..3] {
            left.record(v);
        }
        for &v in &vals[3..] {
            right.record(v);
        }
        left.merge(&right);
        assert_eq!(left, whole);
    }
}
