//! **Figures 2 and 3**: the grid clustering drawn with and without the
//! DAG renaming at R = 0.05. Figure 2 (no DAG) shows a single giant
//! cluster spanning the network; Figure 3 (with DAG) shows many small
//! clusters.

use mwn_cluster::{oracle, Clustering, OracleConfig};
use mwn_graph::{builders, Topology};
use mwn_viz::{ascii_grid_clustering, svg_clustering};

use crate::common::{oracle_with_dag, ExperimentScale};

/// Both figures' underlying data.
#[derive(Clone, Debug)]
pub struct FiguresResult {
    /// The grid topology (R = 0.05 scaled to the grid side).
    pub topo: Topology,
    /// Grid side used.
    pub side: usize,
    /// Figure 2: clustering without the DAG (one giant cluster).
    pub fig2: Clustering,
    /// Figure 3: clustering with the DAG (many small clusters).
    pub fig3: Clustering,
}

/// Computes both figures on a `scale.grid_side`² grid.
pub fn run(scale: ExperimentScale) -> FiguresResult {
    // R = 0.05 is calibrated for the paper's 32×32 grid (8-neighbor
    // connectivity); scale it with the side so smaller grids keep the
    // same connectivity pattern.
    let radius = 0.05 * 31.0 / (scale.grid_side.max(2) - 1) as f64;
    let topo = builders::grid(scale.grid_side, scale.grid_side, radius);
    let fig2 = oracle(&topo, &OracleConfig::default());
    let fig3 = oracle_with_dag(&topo, scale.seed);
    FiguresResult {
        side: scale.grid_side,
        topo,
        fig2,
        fig3,
    }
}

/// Renders a figure as SVG.
pub fn svg(result: &FiguresResult, with_dag: bool) -> String {
    svg_clustering(
        &result.topo,
        if with_dag { &result.fig3 } else { &result.fig2 },
    )
}

/// Renders a figure as terminal ASCII art.
pub fn ascii(result: &FiguresResult, with_dag: bool) -> String {
    ascii_grid_clustering(
        if with_dag { &result.fig3 } else { &result.fig2 },
        result.side,
        result.side,
    )
}

/// The `repro figures` output: writes `fig2.svg` / `fig3.svg` into the
/// working directory and returns the cluster counts plus an ASCII
/// preview of Figure 3.
///
/// # Panics
///
/// Panics when the working directory is not writable.
pub fn report(scale: ExperimentScale) -> String {
    let result = run(scale);
    std::fs::write("fig2.svg", svg(&result, false)).expect("write fig2.svg");
    std::fs::write("fig3.svg", svg(&result, true)).expect("write fig3.svg");
    format!(
        "Figure 2 (no DAG): {} cluster(s) — wrote fig2.svg\n\
         Figure 3 (with DAG): {} cluster(s) — wrote fig3.svg\n\n\
         Figure 3 preview (heads upper-case):\n{}",
        result.fig2.head_count(),
        result.fig3.head_count(),
        ascii(&result, true)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_is_one_giant_cluster_fig3_many() {
        let result = run(ExperimentScale::quick());
        assert_eq!(result.fig2.head_count(), 1, "Figure 2: one cluster");
        assert!(
            result.fig3.head_count() >= 5,
            "Figure 3: many clusters, got {}",
            result.fig3.head_count()
        );
    }

    #[test]
    fn renders_are_nonempty() {
        let result = run(ExperimentScale {
            grid_side: 8,
            ..ExperimentScale::quick()
        });
        assert!(svg(&result, false).contains("<svg"));
        assert!(svg(&result, true).contains("<svg"));
        assert_eq!(ascii(&result, true).lines().count(), 8);
    }
}
