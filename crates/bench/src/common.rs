//! Shared experiment plumbing: scales and the scenario-driven helpers
//! every table uses.

use mwn_cluster::{
    extract_clustering, extract_dag_ids, oracle, ClusterConfig, Clustering, DagProtocol,
    DagVariant, DensityCluster, NameSpace, OracleConfig,
};
use mwn_graph::Topology;
use mwn_sim::{Scenario, StopWhen};

/// How much work an experiment does.
///
/// The paper averages each statistic "over 1000 simulations"; `Full`
/// matches that, `Default` trades a little precision for minutes of
/// runtime, `Quick` is for smoke tests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExperimentScale {
    /// Independent simulation runs per configuration.
    pub runs: usize,
    /// Poisson intensity of the random deployments (paper: 1000).
    pub lambda: f64,
    /// Grid side (paper: ≈√1000 ⇒ 32).
    pub grid_side: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl ExperimentScale {
    /// The paper's scale: 1000-run averages, λ = 1000, 32×32 grids.
    pub fn full() -> Self {
        ExperimentScale {
            runs: 1000,
            lambda: 1000.0,
            grid_side: 32,
            seed: 20050610,
        }
    }

    /// Default scale: 200-run averages (≈ the paper's numbers to two
    /// digits, minutes of runtime on a laptop).
    pub fn default_scale() -> Self {
        ExperimentScale {
            runs: 200,
            ..Self::full()
        }
    }

    /// Smoke-test scale: a handful of runs on smaller deployments.
    pub fn quick() -> Self {
        ExperimentScale {
            runs: 5,
            lambda: 250.0,
            grid_side: 16,
            seed: 20050610,
        }
    }

    /// The parallel seed fan-out for this scale.
    pub fn sweep(&self) -> mwn_sim::Sweep {
        self.sweep_with(self.seed)
    }

    /// Like [`ExperimentScale::sweep`] with an explicit base seed —
    /// experiments that measure several statistics decorrelate them by
    /// xoring a constant into the base.
    pub fn sweep_with(&self, base_seed: u64) -> mwn_sim::Sweep {
        mwn_sim::Sweep::over(self.runs, base_seed)
    }
}

/// The transmission ranges of the paper's Tables 4 and 5.
pub const TABLE45_RADII: [f64; 3] = [0.05, 0.08, 0.1];

/// The transmission ranges of the paper's Table 3.
pub const TABLE3_RADII: [f64; 6] = [0.05, 0.06, 0.07, 0.08, 0.09, 0.1];

/// Runs the full distributed clustering protocol on a perfect medium
/// until stable; returns the clustering, the stabilized DAG ids and
/// the measured stabilization step count.
///
/// # Panics
///
/// Panics if the configuration is invalid for the topology, or if the
/// protocol fails to stabilize within `max_steps` (which would falsify
/// the paper's Lemma 2 — a test failure, not a runtime condition to
/// handle).
pub fn run_distributed(
    topo: Topology,
    config: ClusterConfig,
    seed: u64,
    max_steps: u64,
) -> (Clustering, Vec<u32>, u64) {
    let mut net = Scenario::new(DensityCluster::new(config))
        .topology(topo)
        .seed(seed)
        .validate(move |t| config.validate_for(t))
        .build()
        .expect("experiment configuration valid for topology");
    let stabilized = net
        .run_to(&StopWhen::stable_for(4).within(max_steps))
        .expect_stable("protocol stabilizes (Lemma 2)");
    let clustering = extract_clustering(net.states()).expect("stable state is clean");
    let dag_ids = extract_dag_ids(net.states());
    (clustering, dag_ids, stabilized)
}

/// Runs only the DAG renaming (algorithm N1) over the name space
/// γ = δ² until stable; returns the names and the stabilization step
/// count — the Table 3 measurement.
pub fn run_dag(topo: Topology, variant: DagVariant, seed: u64, max_steps: u64) -> (Vec<u32>, u64) {
    let gamma = NameSpace::delta_squared(topo.max_degree().max(1));
    let mut net = Scenario::new(DagProtocol::new(gamma, variant, 4))
        .topology(topo)
        .seed(seed)
        .build()
        .expect("valid scenario");
    let stabilized = net
        .run_to(&StopWhen::stable_for(4).within(max_steps))
        .expect_stable("N1 stabilizes (Theorem 1)");
    let names = net.states().iter().map(|s| s.dag_id).collect();
    (names, stabilized)
}

/// The stable clustering whose tie-break ids are the DAG names of a
/// simulated N1 run — the "with DAG" configuration of Tables 4–5 and
/// Figure 3.
pub(crate) fn oracle_with_dag(topo: &Topology, seed: u64) -> Clustering {
    let (names, _) = run_dag(topo.clone(), DagVariant::SmallestIdRedraws, seed, 1000);
    oracle(
        topo,
        &OracleConfig {
            tiebreak: Some(names),
            ..OracleConfig::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwn_cluster::is_locally_unique;
    use mwn_graph::builders;

    #[test]
    fn scales_are_ordered() {
        assert!(ExperimentScale::quick().runs < ExperimentScale::default_scale().runs);
        assert!(ExperimentScale::default_scale().runs < ExperimentScale::full().runs);
        assert_eq!(ExperimentScale::full().runs, 1000);
    }

    #[test]
    fn sweep_matches_scale() {
        let scale = ExperimentScale::quick();
        assert_eq!(scale.sweep().len(), scale.runs);
        assert_ne!(
            scale.sweep().seeds(),
            scale.sweep_with(scale.seed ^ 0xAA).seeds(),
            "xored bases decorrelate the grids"
        );
    }

    #[test]
    fn run_distributed_produces_clean_output() {
        let topo = builders::grid(8, 8, 0.2);
        let (c, ids, steps) = run_distributed(topo, ClusterConfig::default(), 1, 300);
        assert!(c.head_count() >= 1);
        assert_eq!(ids.len(), 64);
        assert!(steps < 300);
    }

    #[test]
    fn run_dag_produces_proper_coloring() {
        let topo = builders::grid(8, 8, 0.2);
        let (names, steps) = run_dag(topo.clone(), DagVariant::SmallestIdRedraws, 2, 300);
        assert!(is_locally_unique(&topo, &names));
        assert!(steps < 50);
    }
}
