//! Binomial-proportion confidence intervals for convergence-probability
//! experiments.
//!
//! Weak/probabilistic stabilization experiments (Devismes et al.)
//! estimate "the system stabilizes within k steps with probability p"
//! from Bernoulli trials over seeds. The Wilson score interval is the
//! standard small-sample interval for such proportions: unlike the
//! naive normal approximation it never leaves `[0, 1]` and behaves at
//! p̂ ∈ {0, 1}.

/// The Wilson score confidence interval for a binomial proportion:
/// `successes` out of `trials`, at normal quantile `z` (1.96 ≈ 95%).
///
/// Returns `(low, high)` with `0 ≤ low ≤ high ≤ 1`. With zero trials
/// the interval is the uninformative `(0, 1)`.
///
/// # Examples
///
/// ```
/// use mwn_metrics::wilson_interval;
///
/// let (low, high) = wilson_interval(95, 100, 1.96);
/// assert!(low > 0.88 && low < 0.95);
/// assert!(high > 0.95 && high < 1.0);
/// ```
pub fn wilson_interval(successes: usize, trials: usize, z: f64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// Whether two binomial samples are statistically compatible: their
/// Wilson score intervals (at quantile `z`) overlap.
///
/// This is the acceptance predicate of the cross-driver and
/// gated-vs-eager agreement suites: two implementations that realize
/// the *same* distribution should produce overlapping intervals for
/// any proportion-valued observable (stabilization within `k` steps,
/// per-copy delivery, head agreement). Interval overlap is a
/// deliberately conservative equivalence test — strictly weaker than a
/// two-proportion z-test, so it under-rejects rather than flakes.
///
/// Degenerate samples with zero trials have the uninformative interval
/// `(0, 1)` and therefore overlap everything.
///
/// # Examples
///
/// ```
/// use mwn_metrics::wilson_overlap;
///
/// assert!(wilson_overlap(48, 100, 53, 100, 1.96));
/// assert!(!wilson_overlap(10, 100, 90, 100, 1.96));
/// ```
pub fn wilson_overlap(
    successes_a: usize,
    trials_a: usize,
    successes_b: usize,
    trials_b: usize,
    z: f64,
) -> bool {
    let (lo_a, hi_a) = wilson_interval(successes_a, trials_a, z);
    let (lo_b, hi_b) = wilson_interval(successes_b, trials_b, z);
    lo_a <= hi_b && lo_b <= hi_a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_contains_the_point_estimate() {
        for &(k, n) in &[(0usize, 10usize), (5, 10), (10, 10), (999, 1000)] {
            let (low, high) = wilson_interval(k, n, 1.96);
            let p = k as f64 / n as f64;
            assert!(low <= p + 1e-12 && p <= high + 1e-12, "k={k} n={n}");
            assert!((0.0..=1.0).contains(&low) && (0.0..=1.0).contains(&high));
        }
    }

    #[test]
    fn more_trials_narrow_the_interval() {
        let (l1, h1) = wilson_interval(8, 10, 1.96);
        let (l2, h2) = wilson_interval(800, 1000, 1.96);
        assert!(h2 - l2 < h1 - l1);
    }

    #[test]
    fn degenerate_extremes_stay_in_unit_range() {
        let (low, high) = wilson_interval(0, 20, 1.96);
        assert_eq!(low, 0.0);
        assert!(high > 0.0 && high < 0.3, "upper bound {high}");
        let (low, high) = wilson_interval(20, 20, 1.96);
        assert!(low > 0.7 && low < 1.0, "lower bound {low}");
        assert_eq!(high, 1.0);
    }

    #[test]
    fn zero_trials_is_uninformative() {
        assert_eq!(wilson_interval(0, 0, 1.96), (0.0, 1.0));
    }

    #[test]
    fn overlap_accepts_identical_samples() {
        assert!(wilson_overlap(37, 80, 37, 80, 1.96));
    }

    #[test]
    fn overlap_is_symmetric() {
        for &(a, b) in &[(40usize, 55usize), (5, 90), (0, 100), (100, 0)] {
            assert_eq!(
                wilson_overlap(a, 100, b, 100, 1.96),
                wilson_overlap(b, 100, a, 100, 1.96),
                "a={a} b={b}"
            );
        }
    }

    #[test]
    fn overlap_rejects_clearly_different_proportions() {
        assert!(!wilson_overlap(5, 200, 180, 200, 1.96));
        assert!(!wilson_overlap(0, 100, 100, 100, 1.96));
    }

    #[test]
    fn overlap_accepts_nearby_proportions_at_small_n() {
        // Small samples → wide intervals → 40% vs 60% of 20 overlap.
        assert!(wilson_overlap(8, 20, 12, 20, 1.96));
    }

    #[test]
    fn zero_trials_overlap_everything() {
        assert!(wilson_overlap(0, 0, 0, 150, 1.96));
        assert!(wilson_overlap(0, 0, 150, 150, 1.96));
    }

    #[test]
    fn wider_quantile_overlaps_more() {
        // A borderline pair separated at z = 1 but not at z = 3.
        let (a, na, b, nb) = (30usize, 100usize, 48usize, 100usize);
        assert!(!wilson_overlap(a, na, b, nb, 1.0));
        assert!(wilson_overlap(a, na, b, nb, 3.0));
    }
}
