//! **Table 4**: cluster features on random geometric graphs — number
//! of clusters, mean cluster-head eccentricity ẽ(H(u)/C(u)) and mean
//! clusterization tree length, with and without the DAG renaming, for
//! λ = 1000 and R ∈ {0.05, 0.08, 0.1}.
//!
//! The paper's observation: on random deployments the DAG brings
//! little (densities are rarely equal, so the id tie-break is rarely
//! exercised) — both columns should be nearly identical.

use mwn_cluster::{oracle, ClusteringStats, OracleConfig};
use mwn_graph::builders;
use mwn_metrics::{RunningStats, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{oracle_with_dag, ExperimentScale, TABLE45_RADII};

/// The three Table 4/5 statistics for one configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ClusterFeatures {
    /// Mean number of clusters.
    pub clusters: f64,
    /// Mean cluster-head eccentricity.
    pub eccentricity: f64,
    /// Mean clusterization tree length.
    pub tree_length: f64,
}

/// Table 4 (or 5) content: per radius, features with and without DAG.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ClusterFeatureTable {
    /// The transmission ranges measured.
    pub radii: Vec<f64>,
    /// Features with the DAG renaming enabled.
    pub with_dag: Vec<ClusterFeatures>,
    /// Features with plain unique-id tie-breaks.
    pub without_dag: Vec<ClusterFeatures>,
}

/// Computes the stable clustering's features for one deployment,
/// optionally running N1 first to obtain DAG tie-break ids.
///
/// The distributed protocol provably stabilizes to the [`oracle`]
/// fixpoint (a tested invariant), so the 1000-run feature averages are
/// computed from the oracle — the DAG renaming, whose outcome is
/// genuinely distributed, *is* simulated.
pub fn features_one_run(
    topo: mwn_graph::Topology,
    with_dag: bool,
    seed: u64,
) -> Option<ClusterFeatures> {
    let clustering = if with_dag {
        oracle_with_dag(&topo, seed)
    } else {
        oracle(&topo, &OracleConfig::default())
    };
    let stats = ClusteringStats::of(&topo, &clustering)?;
    Some(ClusterFeatures {
        clusters: stats.clusters,
        eccentricity: stats.mean_head_eccentricity,
        tree_length: stats.mean_tree_length,
    })
}

/// The per-statistic mean over the runs that produced a clustering.
pub(crate) fn mean_features(runs: Vec<Option<ClusterFeatures>>) -> ClusterFeatures {
    let mut clusters = RunningStats::new();
    let mut ecc = RunningStats::new();
    let mut tree = RunningStats::new();
    for f in runs.into_iter().flatten() {
        clusters.push(f.clusters);
        ecc.push(f.eccentricity);
        tree.push(f.tree_length);
    }
    ClusterFeatures {
        clusters: clusters.mean(),
        eccentricity: ecc.mean(),
        tree_length: tree.mean(),
    }
}

/// Runs the Table 4 experiment.
pub fn run(scale: ExperimentScale) -> ClusterFeatureTable {
    let mut result = ClusterFeatureTable {
        radii: TABLE45_RADII.to_vec(),
        ..ClusterFeatureTable::default()
    };
    for &radius in &TABLE45_RADII {
        for with_dag in [true, false] {
            let runs = scale.sweep_with(scale.seed ^ 0x44AA).map(|seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                let topo = builders::poisson(scale.lambda, radius, &mut rng);
                features_one_run(topo, with_dag, seed)
            });
            let features = mean_features(runs);
            if with_dag {
                result.with_dag.push(features);
            } else {
                result.without_dag.push(features);
            }
        }
    }
    result
}

/// Formats a cluster-feature table in the paper's layout.
pub fn render(title: &str, result: &ClusterFeatureTable) -> Table {
    let mut table = Table::new(title);
    let mut headers = vec!["".to_string()];
    for r in &result.radii {
        headers.push(format!("R={r} DAG"));
        headers.push(format!("R={r} noDAG"));
    }
    table.set_headers(headers);
    let row = |f: fn(&ClusterFeatures) -> f64| -> Vec<f64> {
        result
            .radii
            .iter()
            .enumerate()
            .flat_map(|(i, _)| [f(&result.with_dag[i]), f(&result.without_dag[i])])
            .collect()
    };
    table.add_numeric_row("# clusters", &row(|f| f.clusters), 1);
    table.add_numeric_row("e~(H(u)/C(u))", &row(|f| f.eccentricity), 1);
    table.add_numeric_row("avg tree length", &row(|f| f.tree_length), 1);
    table
}

/// The `repro table4` output.
pub fn report(scale: ExperimentScale) -> String {
    let title = "Table 4: clusters features on a random geometric graph \
                 (paper, R=0.05: 61 clusters, ecc 2.6, tree 2.7)";
    format!("{}\n", render(title, &run(scale)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_geometry_features_have_paper_shape() {
        let result = run(ExperimentScale {
            runs: 8,
            lambda: 500.0,
            ..ExperimentScale::quick()
        });
        for i in 0..result.radii.len() {
            let (w, wo) = (&result.with_dag[i], &result.without_dag[i]);
            // The paper's key observation: on random geometry the DAG
            // changes almost nothing.
            assert!(
                (w.clusters - wo.clusters).abs() <= wo.clusters * 0.25 + 2.0,
                "R={}: DAG {} vs noDAG {} clusters",
                result.radii[i],
                w.clusters,
                wo.clusters
            );
            assert!(w.clusters >= 1.0);
            assert!(w.eccentricity < 10.0, "eccentricity stays small");
            assert!(w.tree_length < 12.0, "tree length stays small");
        }
        // More range ⇒ fewer clusters (paper: 61 → 19 → 12).
        let c: Vec<f64> = result.without_dag.iter().map(|f| f.clusters).collect();
        assert!(
            c[0] > c[1] && c[1] > c[2],
            "clusters must shrink with R: {c:?}"
        );
    }

    #[test]
    fn render_layout() {
        let features = ClusterFeatures {
            clusters: 61.0,
            eccentricity: 2.6,
            tree_length: 2.7,
        };
        let result = ClusterFeatureTable {
            radii: vec![0.05],
            with_dag: vec![features],
            without_dag: vec![features],
        };
        let s = render("Table 4", &result).to_string();
        assert!(s.contains("61.0"));
        assert!(s.contains("# clusters"));
    }
}
