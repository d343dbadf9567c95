//! **Table 5**: cluster characteristics on the adversarial grid — node
//! ids increase left-to-right, bottom-to-top, so all interior nodes
//! share the same density and the identifier alone decides the
//! election. Without the DAG the whole grid collapses into **one**
//! cluster whose tree is as deep as the network; with the DAG renaming
//! the election is local again and many small clusters appear.

use mwn_metrics::Table;

use crate::common::{ExperimentScale, TABLE45_RADII};
use crate::table4::{features_one_run, mean_features, ClusterFeatureTable};

/// Runs the Table 5 experiment.
///
/// The no-DAG configuration is deterministic on a grid (ids and
/// densities are fixed), so it is computed once; the with-DAG rows are
/// averaged over `scale.runs` random renamings.
pub fn run(scale: ExperimentScale) -> ClusterFeatureTable {
    let mut result = ClusterFeatureTable {
        radii: TABLE45_RADII.to_vec(),
        ..ClusterFeatureTable::default()
    };
    for &radius in &TABLE45_RADII {
        // The paper's radii are calibrated for its 32×32 grid (spacing
        // 1/31); scale them with the side so smaller test grids keep
        // the same connectivity pattern.
        let scaled = radius * 31.0 / (scale.grid_side.max(2) - 1) as f64;
        let topo = mwn_graph::builders::grid(scale.grid_side, scale.grid_side, scaled);
        let with_runs = scale.sweep_with(scale.seed ^ 0x55BB).map({
            let topo = topo.clone();
            move |seed| features_one_run(topo.clone(), true, seed)
        });
        result.with_dag.push(mean_features(with_runs));
        result
            .without_dag
            .push(features_one_run(topo, false, 0).expect("grid is non-empty"));
    }
    result
}

/// Formats the result in the paper's layout.
pub fn render(result: &ClusterFeatureTable) -> Table {
    crate::table4::render(
        "Table 5: clusters characteristics on a grid (paper, R=0.05: 52.8 vs 1.0 clusters)",
        result,
    )
}

/// The `repro table5` output.
pub fn report(scale: ExperimentScale) -> String {
    format!("{}\n", render(&run(scale)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_collapse_without_dag_rescued_with_dag() {
        let scale = ExperimentScale {
            runs: 3,
            grid_side: 16,
            ..ExperimentScale::quick()
        };
        let result = run(scale);
        for (i, &radius) in result.radii.iter().enumerate() {
            let (w, wo) = (&result.with_dag[i], &result.without_dag[i]);
            // The paper's headline: exactly one cluster without the DAG…
            assert_eq!(
                wo.clusters, 1.0,
                "R={radius}: adversarial grid must collapse to one cluster"
            );
            // …and several shallow clusters with the DAG (the paper's
            // 32-grid gets 52.8/29.3/18.5 for the three radii; a
            // 16-grid has a quarter of the nodes).
            assert!(
                w.clusters > 2.0,
                "R={radius}: DAG should yield several clusters, got {}",
                w.clusters
            );
            assert!(
                w.tree_length * 2.0 < wo.tree_length,
                "R={radius}: DAG trees ({}) must be far shallower than no-DAG ({})",
                w.tree_length,
                wo.tree_length
            );
        }
        // At the smallest radius (one-cell reach) the single cluster's
        // tree spans the whole grid: depth on the order of the side
        // (paper: tree length 83.4 and eccentricity 29.1 on a 32-grid).
        let wo_smallest = &result.without_dag[0];
        assert!(
            wo_smallest.tree_length >= (scale.grid_side - 1) as f64 * 0.6,
            "R=0.05: no-DAG tree length {} should span the grid",
            wo_smallest.tree_length
        );
    }

    #[test]
    fn render_mentions_paper_numbers() {
        let scale = ExperimentScale {
            runs: 2,
            grid_side: 12,
            ..ExperimentScale::quick()
        };
        let s = render(&run(scale)).to_string();
        assert!(s.contains("52.8"), "title cites the paper's value");
    }
}
