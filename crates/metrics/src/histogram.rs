use std::fmt;

use serde::{Deserialize, Serialize};

/// A fixed-bin-width histogram over `f64` samples.
///
/// Used to inspect distributions behind the paper's averages (e.g. the
/// distribution of DAG-construction steps behind Table 3, or of cluster
/// sizes behind Table 4).
///
/// # Examples
///
/// ```
/// use mwn_metrics::Histogram;
///
/// let mut h = Histogram::new(0.0, 1.0, 10);
/// h.push(0.05);
/// h.push(0.15);
/// h.push(1.5);
/// assert_eq!(h.total(), 3);
/// assert_eq!(h.overflow(), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram spanning `[lo, hi)` with `bins` equal bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds a sample; values outside `[lo, hi)` land in the
    /// under/overflow counters.
    pub fn push(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = ((x - self.lo) / w) as usize;
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.bins.len()
    }

    /// `[low, high)` bounds of bin `i`.
    fn bin_range(&self, i: usize) -> (f64, f64) {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        (self.lo + i as f64 * w, self.lo + (i + 1) as f64 * w)
    }

    /// Total samples including under/overflow.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Samples at or above the range's upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let peak = self.bins.iter().copied().max().unwrap_or(0).max(1);
        for (i, &count) in self.bins.iter().enumerate() {
            let (lo, hi) = self.bin_range(i);
            let width = (count * 40 / peak) as usize;
            writeln!(f, "[{lo:8.3},{hi:8.3}) {count:8} {}", "#".repeat(width))?;
        }
        if self.underflow > 0 || self.overflow > 0 {
            writeln!(
                f,
                "underflow: {}, overflow: {}",
                self.underflow, self.overflow
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_land_in_correct_bins() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.0, 1.9, 2.0, 9.99] {
            h.push(x);
        }
        assert_eq!(h.bins, [2, 1, 0, 0, 1]);
    }

    #[test]
    fn out_of_range_goes_to_flows() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.push(-0.1);
        h.push(1.0);
        h.push(5.0);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn bin_ranges_tile_the_domain() {
        let h = Histogram::new(-1.0, 1.0, 4);
        assert_eq!(h.bin_range(0), (-1.0, -0.5));
        assert_eq!(h.bin_range(3), (0.5, 1.0));
    }

    #[test]
    fn display_renders_bars() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.push(0.1);
        h.push(0.1);
        h.push(0.9);
        let s = h.to_string();
        assert!(s.contains('#'));
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panics() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }
}
