//! The parallel sweep runner: fan a scenario out over seed ranges and
//! parameter grids.
//!
//! The paper averages every reported statistic "over 1000
//! simulations"; probabilistic-stabilization experiments (Devismes et
//! al.) estimate convergence probabilities the same way. [`Sweep`]
//! owns that fan-out: seeds are derived deterministically from a base
//! seed (SplitMix64), work is spread over the available cores with
//! scoped threads, and results come back **in seed order** — parallel
//! and serial execution produce byte-identical results.
//!
//! `rayon` would be the natural backend, but this build environment
//! has no registry access, so the runner uses `std::thread::scope`
//! with a work-stealing index — the same scheduling, no dependency.
//!
//! # Examples
//!
//! ```
//! use mwn_sim::Sweep;
//!
//! let sweep = Sweep::over(16, 7);
//! let a = sweep.map(|seed| seed.wrapping_mul(3));
//! let b = Sweep::over(16, 7).serial().map(|seed| seed.wrapping_mul(3));
//! assert_eq!(a, b); // parallel == serial, in seed order
//! ```

use mwn_radio::Medium;

use crate::rng::derive_seed;
use crate::{Network, Observable, RunReport, Scenario, SimError, StopWhen};

/// Runs `job(0..tasks)` over a scoped work-stealing thread pool and
/// returns the results **in task order** — the schedule cannot leak
/// into the results. With `threads <= 1` (or a single task) the jobs
/// run inline on the calling thread; the two paths are byte-identical
/// because each job sees only its task index.
fn run_pooled<T, F>(tasks: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || tasks <= 1 {
        return (0..tasks).map(job).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    // Each worker hands back the `(index, result)` pairs it ran; a
    // worker's panic resumes on the calling thread.
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let worker = || {
            let mut ran = Vec::new();
            loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= tasks {
                    return ran;
                }
                ran.push((i, job(i)));
            }
        };
        let workers: Vec<_> = (0..threads.min(tasks))
            .map(|_| scope.spawn(worker))
            .collect();
        let joined = workers.into_iter().map(|w| w.join());
        joined
            .flat_map(|ran| ran.unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, out)| out).collect()
}

/// The outcome of a [`Sweep::convergence`] estimate: how many of the
/// fanned-out runs stabilized.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Convergence {
    /// Runs that satisfied a stability condition.
    pub stabilized: usize,
    /// Total runs.
    pub runs: usize,
}

impl Convergence {
    /// The point estimate of the convergence probability (1.0 for an
    /// empty sweep — nothing failed to stabilize).
    pub fn fraction(&self) -> f64 {
        if self.runs == 0 {
            1.0
        } else {
            self.stabilized as f64 / self.runs as f64
        }
    }
}

/// A deterministic fan-out of independent runs over derived seeds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sweep {
    seeds: Vec<u64>,
    /// Cap on the worker threads; `None`: one per available core.
    threads: Option<usize>,
}

impl Sweep {
    /// `runs` seeds derived from `base_seed` (SplitMix64 — the same
    /// derivation as [`crate::derive_seed`], so sweeps are reproducible
    /// and decorrelated).
    pub fn over(runs: usize, base_seed: u64) -> Self {
        Sweep {
            seeds: (0..runs as u64)
                .map(|i| derive_seed(base_seed, i))
                .collect(),
            threads: None,
        }
    }

    /// An explicit seed list.
    pub fn with_seeds(seeds: Vec<u64>) -> Self {
        Sweep {
            seeds,
            threads: None,
        }
    }

    /// Runs everything on the calling thread — for determinism checks
    /// and wall-clock baselines.
    pub fn serial(self) -> Self {
        self.threads(1)
    }

    /// Caps the worker-thread count.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n.max(1));
        self
    }

    /// The derived seeds, in result order.
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// Number of runs.
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// `true` when no runs are configured.
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }

    /// Runs `job(seed)` for every seed and returns the results in seed
    /// order. The schedule cannot leak into the results: each job sees
    /// only its seed.
    pub fn map<T, F>(&self, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(u64) -> T + Sync,
    {
        let runs = self.seeds.len();
        let threads = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(self.threads.unwrap_or(usize::MAX))
            .min(runs.max(1));
        run_pooled(runs, threads, |i| job(self.seeds[i]))
    }

    /// Fans `job(param, seed)` out over the full `grid × seeds`
    /// product in parallel; returns one result vector per grid point,
    /// each in seed order.
    pub fn map_grid<G, T, F>(&self, grid: &[G], job: F) -> Vec<Vec<T>>
    where
        G: Sync,
        T: Send,
        F: Fn(&G, u64) -> T + Sync,
    {
        let runs = self.seeds.len();
        if grid.is_empty() || runs == 0 {
            return grid.iter().map(|_| Vec::new()).collect();
        }
        // Flatten to one index space so a slow grid point cannot idle
        // the workers assigned to a fast one.
        let flat = Sweep {
            seeds: (0..(grid.len() * runs) as u64).collect(),
            threads: self.threads,
        };
        let mut results = flat
            .map(|flat_idx| {
                let g = flat_idx as usize / runs;
                let s = flat_idx as usize % runs;
                job(&grid[g], self.seeds[s])
            })
            .into_iter();
        grid.iter()
            .map(|_| results.by_ref().take(runs).collect())
            .collect()
    }

    /// Estimates the **convergence probability**: the fraction of
    /// seeds whose run satisfied a stability condition (rather than
    /// timing out on its budget).
    ///
    /// This is the measurement of the weak/probabilistic stabilization
    /// literature (Devismes et al.): "with probability ≥ p, the system
    /// stabilizes within k steps" is estimated by fanning
    /// `StopWhen::stable_for(q).within(k)` over many seeds. Pair the
    /// returned counts with `mwn_metrics::wilson_interval` for a
    /// confidence interval.
    ///
    /// # Errors
    ///
    /// The first [`SimError`] any scenario build produced.
    pub fn convergence<P, M, B>(
        &self,
        scenario: B,
        stop: &StopWhen<P>,
    ) -> Result<Convergence, SimError>
    where
        P: Observable,
        M: Medium,
        B: Fn(u64) -> Scenario<P, M> + Sync,
    {
        let outcomes = self.run(scenario, stop, |report, _| report.is_stable())?;
        Ok(Convergence {
            stabilized: outcomes.iter().filter(|&&ok| ok).count(),
            runs: outcomes.len(),
        })
    }

    /// Builds the scenario for each seed, runs it to `stop`, and
    /// collects `observe(report, &network)` — the one-stop shop for
    /// stabilization-time experiments.
    ///
    /// The factory receives the derived seed and is responsible for
    /// threading it into the scenario (`.seed(seed)`, and into the
    /// deployment when topologies are random).
    ///
    /// # Errors
    ///
    /// The first [`SimError`] any scenario build produced.
    pub fn run<P, M, B, G, T>(
        &self,
        scenario: B,
        stop: &StopWhen<P>,
        observe: G,
    ) -> Result<Vec<T>, SimError>
    where
        P: Observable,
        M: Medium,
        B: Fn(u64) -> Scenario<P, M> + Sync,
        G: Fn(RunReport, &Network<P, M>) -> T + Sync,
        T: Send,
    {
        self.map(|seed| {
            let mut net = scenario(seed).build()?;
            let report = net.run_to(stop);
            Ok(observe(report, &net))
        })
        .into_iter()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Protocol, StopWhen};
    use mwn_graph::{builders, NodeId};
    use rand::rngs::StdRng;

    struct MaxFlood;
    impl Protocol for MaxFlood {
        type State = u32;
        type Beacon = u32;
        fn init(&self, node: NodeId, _rng: &mut StdRng) -> u32 {
            node.value()
        }
        fn beacon(&self, _node: NodeId, state: &u32) -> u32 {
            *state
        }
        fn receive(&self, _node: NodeId, state: &mut u32, _from: NodeId, beacon: &u32, _now: u64) {
            *state = (*state).max(*beacon);
        }
        fn update(&self, _node: NodeId, _state: &mut u32, _now: u64, _rng: &mut StdRng) {}
    }
    impl Observable for MaxFlood {
        type Output = u32;
        fn output(&self, _node: NodeId, state: &u32) -> u32 {
            *state
        }
    }

    #[test]
    fn pooled_results_come_back_in_task_order() {
        let serial = run_pooled(37, 1, |i| i * i);
        let pooled = run_pooled(37, 4, |i| i * i);
        assert_eq!(serial, pooled);
        assert_eq!(pooled[5], 25);
        assert!(run_pooled(0, 4, |i| i).is_empty());
    }

    #[test]
    fn results_come_back_in_seed_order() {
        let out = Sweep::over(100, 0).map(|seed| seed);
        assert_eq!(out, Sweep::over(100, 0).seeds());
    }

    #[test]
    fn parallel_equals_serial() {
        let heavy = |seed: u64| {
            let mut acc = seed;
            for _ in 0..1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        assert_eq!(
            Sweep::over(64, 5).map(heavy),
            Sweep::over(64, 5).serial().map(heavy)
        );
    }

    #[test]
    fn zero_runs_is_empty() {
        let out: Vec<u64> = Sweep::over(0, 1).map(|s| s);
        assert!(out.is_empty());
        assert!(Sweep::over(0, 1).is_empty());
    }

    #[test]
    fn different_bases_derive_different_seeds() {
        assert_ne!(Sweep::over(10, 1).seeds(), Sweep::over(10, 2).seeds());
        let mut dedup = Sweep::over(50, 9).seeds().to_vec();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 50, "derived seeds must be distinct");
    }

    #[test]
    fn grid_results_group_by_parameter() {
        let grid = [1u64, 10, 100];
        let out = Sweep::over(8, 3).map_grid(&grid, |&g, seed| g.wrapping_add(seed));
        assert_eq!(out.len(), 3);
        for (g, results) in grid.iter().zip(&out) {
            let expected: Vec<u64> = Sweep::over(8, 3)
                .seeds()
                .iter()
                .map(|s| g.wrapping_add(*s))
                .collect();
            assert_eq!(results, &expected);
        }
    }

    #[test]
    fn scenario_sweep_reports_stabilization() {
        let stop = StopWhen::stable_for(2).within(100);
        let steps = Sweep::over(4, 11)
            .run(
                |seed| {
                    Scenario::new(MaxFlood)
                        .topology(builders::line(6))
                        .seed(seed)
                },
                &stop,
                |report, net| {
                    assert!(net.states().iter().all(|&s| s == 5));
                    report.expect_stable("line flood stabilizes")
                },
            )
            .expect("all scenarios build");
        // The line(6) flood always stabilizes after 5 steps.
        assert_eq!(steps, vec![5, 5, 5, 5]);
    }

    #[test]
    fn convergence_probability_counts_stabilized_runs() {
        // Within 100 steps every seed stabilizes; within 2 steps none
        // can (the line needs 5 information hops).
        let scenario = |seed| {
            Scenario::new(MaxFlood)
                .topology(builders::line(6))
                .seed(seed)
        };
        let sweep = Sweep::over(8, 3);
        let always = sweep
            .convergence(scenario, &StopWhen::stable_for(2).within(100))
            .expect("builds");
        assert_eq!((always.stabilized, always.runs), (8, 8));
        assert_eq!(always.fraction(), 1.0);
        let never = sweep
            .convergence(scenario, &StopWhen::stable_for(2).within(2))
            .expect("builds");
        assert_eq!(never.stabilized, 0);
        assert_eq!(never.fraction(), 0.0);
        assert_eq!(
            Convergence {
                stabilized: 0,
                runs: 0
            }
            .fraction(),
            1.0
        );
    }

    #[test]
    fn scenario_build_errors_surface() {
        let stop: StopWhen<MaxFlood> = StopWhen::max_steps(1);
        let err = Sweep::over(2, 1)
            .run(
                |_seed| Scenario::new(MaxFlood),
                &stop,
                |_report, _net: &Network<MaxFlood, mwn_radio::PerfectMedium>| (),
            )
            .unwrap_err();
        assert_eq!(err, SimError::MissingTopology);
    }
}
