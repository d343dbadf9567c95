//! Host-speed calibration: what makes a timing taken now comparable
//! with one taken a minute ago.
//!
//! The boxes this benchmark runs on are small shared VMs, and how fast
//! they run a single-threaded job depends on what the neighbours do to
//! the core and to the shared cache: the same rep was seen to take
//! 0.60 s or 0.85 s a minute apart, drifting on a 5–60 s scale. That is
//! too slow for the median of a 15 s run to average away — over two
//! sets of ten runs, the raw medians of identical jobs differed by 17 %
//! (rms) and their inter-quartile spread reached 18–37 % of the median
//! — and far too fast for "parent now, change ten minutes later" to be
//! a fair comparison.
//!
//! So every timed rep is bracketed by two fixed reference kernels, and
//! its timings are reported as *seconds at the reference speed*: host
//! seconds ÷ [`Speed::slowdown`]. One kernel is throughput-bound
//! integer work on a table that fits the core's own cache; the other a
//! latency-bound walk through a table that does not — the two ways a
//! neighbour slows the simulator down. Either alone over- or under-
//! corrects (spreads of 14–20 % and 9–19 % on the same twenty runs);
//! their geometric mean, with no fitted weights, brought every
//! workload's spread to 12–17 % in that disturbed hour. `selftest`
//! prints the raw and the scaled spreads of its runs side by side, so
//! the committed `SELFTEST*.md` say what the scaling is worth now: raw
//! 5–13 %, scaled 3–10 % in a calm hour; raw 6–20 %, scaled 5–13 %
//! with a synthetic neighbour; and 9–29 % between the raw medians of
//! those two hours where the scaled ones differ by at most 14 %.
//!
//! The kernels are the benchmark's, never the program's: no change to
//! the simulator can move them, so a ratio of two reference-speed
//! timings is still the ratio of the program's work.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// What one execution of the compute kernel and of the walk takes on
/// an undisturbed 2.1 GHz vCPU of the sizing box. Only a scale: they
/// make reference seconds read like host seconds there.
const COMPUTE_REFERENCE_S: f64 = 0.0056;
const WALK_REFERENCE_S: f64 = 0.0153;

/// Words of the compute kernel's table: 1 MiB, inside the core's 2 MiB
/// L2.
const TABLE_WORDS: usize = 128 * 1024;
const COMPUTE_ITERATIONS: usize = 1_500_000;
/// Executions of each kernel per sample; their median is the sample,
/// so one interrupt does not pass for a slow host.
const KERNEL_RUNS: usize = 3;

/// Entries of the walk's table: 16 MiB of `u32`, eight times the L2 and
/// past the TLB's reach, like the simulator's own working sets (a
/// 64 MiB table tracked the workloads no better).
const WALK_ENTRIES: usize = 4 * 1024 * 1024;
const WALK_STEPS: usize = 100_000;

/// How fast the host ran the two reference kernels.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Speed {
    pub compute_s: f64,
    pub walk_s: f64,
}

impl Speed {
    /// The speed over an interval bracketed by samples `a` and `b`.
    pub fn between(a: Speed, b: Speed) -> Speed {
        Speed {
            compute_s: (a.compute_s + b.compute_s) / 2.0,
            walk_s: (a.walk_s + b.walk_s) / 2.0,
        }
    }

    /// By what factor the host ran slower than the reference: the
    /// geometric mean of the two kernels' slowdowns.
    pub fn slowdown(self) -> f64 {
        ((self.compute_s / COMPUTE_REFERENCE_S) * (self.walk_s / WALK_REFERENCE_S)).sqrt()
    }
}

/// The reference kernels and their tables.
pub struct Calibrator {
    table: Vec<u64>,
    /// One cycle through every entry, so a walk never settles into a
    /// short loop that fits a cache.
    walk: Vec<u32>,
    at: u32,
}

impl Calibrator {
    pub fn new() -> Self {
        // Sattolo's shuffle: a uniformly random single cycle.
        let mut walk: Vec<u32> = (0..WALK_ENTRIES as u32).collect();
        let mut x = 88_172_645_463_325_252u64;
        for i in (1..WALK_ENTRIES).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            walk.swap(i, (x % i as u64) as usize);
        }
        let mut cal = Calibrator {
            table: vec![0x9E37_79B9_7F4A_7C15; TABLE_WORDS],
            walk,
            at: 0,
        };
        // First touch of the tables is not host speed.
        cal.sample();
        cal
    }

    /// Bytes the tables keep resident from [`Calibrator::new`] on: the
    /// benchmark's own, subtracted from the peak resident set a run
    /// reports.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of_val(&self.table[..]) + std::mem::size_of_val(&self.walk[..])
    }

    /// Four independent xorshift streams indexing the table: as many
    /// integer operations per cycle as the core will issue, which is
    /// what a busy sibling thread or a lowered clock takes away.
    fn compute(&mut self) -> f64 {
        let t = Instant::now();
        let table = &mut self.table[..];
        let mask = TABLE_WORDS - 1;
        let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
        for _ in 0..COMPUTE_ITERATIONS {
            a ^= a << 13;
            a ^= a >> 7;
            a ^= a << 17;
            b ^= b << 13;
            b ^= b >> 7;
            b ^= b << 17;
            c ^= c << 13;
            c ^= c >> 7;
            c ^= c << 17;
            d ^= d << 13;
            d ^= d >> 7;
            d ^= d << 17;
            let (i, j) = ((a as usize) & mask, (b as usize) & mask);
            let (k, l) = ((c as usize) & mask, (d as usize) & mask);
            table[i] = table[i].wrapping_add(table[j] ^ c);
            table[k] = table[k].wrapping_mul(table[l] | 1).wrapping_add(d);
        }
        black_box(&self.table);
        t.elapsed().as_secs_f64()
    }

    /// A dependent random walk: one cache-missing load at a time, which
    /// is what a neighbour thrashing the shared cache slows down.
    fn walk(&mut self) -> f64 {
        let t = Instant::now();
        let mut at = self.at;
        for _ in 0..WALK_STEPS {
            at = self.walk[at as usize];
        }
        self.at = black_box(at);
        t.elapsed().as_secs_f64()
    }

    /// How fast the host runs the reference kernels right now (~65 ms).
    pub fn sample(&mut self) -> Speed {
        let (mut compute, mut walk) = ([0.0; KERNEL_RUNS], [0.0; KERNEL_RUNS]);
        for run in 0..KERNEL_RUNS {
            compute[run] = self.compute();
            walk[run] = self.walk();
        }
        Speed {
            compute_s: median(&compute),
            walk_s: median(&walk),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sample_is_positive_and_both_kernels_do_work() {
        let mut cal = Calibrator::new();
        let (table, at) = (cal.table.clone(), cal.at);
        let speed = cal.sample();
        assert!(speed.compute_s > 0.0 && speed.walk_s > 0.0);
        assert_ne!(
            table, cal.table,
            "the compute kernel must not be optimised away"
        );
        assert_ne!(at, cal.at, "the walk must not be optimised away");
        assert_eq!(cal.resident_bytes(), 17 * 1024 * 1024);
    }

    #[test]
    fn the_walk_is_one_cycle_through_every_entry() {
        let cal = Calibrator::new();
        let (mut at, mut steps) = (0u32, 0usize);
        loop {
            at = cal.walk[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, WALK_ENTRIES);
    }

    #[test]
    fn slowdown_is_the_geometric_mean_of_the_kernels() {
        let reference = Speed {
            compute_s: COMPUTE_REFERENCE_S,
            walk_s: WALK_REFERENCE_S,
        };
        assert!((reference.slowdown() - 1.0).abs() < 1e-12);
        // Compute 4× slow, walk at reference speed: 2× slow overall.
        let busy_sibling = Speed {
            compute_s: 4.0 * COMPUTE_REFERENCE_S,
            ..reference
        };
        assert!((busy_sibling.slowdown() - 2.0).abs() < 1e-12);
        let between = Speed::between(reference, busy_sibling);
        assert!((between.compute_s - 2.5 * COMPUTE_REFERENCE_S).abs() < 1e-15);
        assert_eq!(between.walk_s, WALK_REFERENCE_S);
    }
}
