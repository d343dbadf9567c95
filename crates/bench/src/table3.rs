//! **Table 3**: mean number of steps needed to build the DAG (run
//! algorithm N1 to a proper coloring) over a 32×32 grid and a Poisson
//! random-geometry deployment of intensity λ = 1000, for transmission
//! ranges R ∈ {0.05 … 0.1}. The paper reports ≈ 2 steps everywhere.

use mwn_cluster::DagVariant;
use mwn_graph::{builders, Topology};
use mwn_metrics::{RunningStats, Table};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{run_dag, ExperimentScale, TABLE3_RADII};

/// Mean DAG-construction steps per radius, for both deployments.
#[derive(Clone, Debug, PartialEq)]
pub struct Table3Result {
    /// The transmission ranges measured.
    pub radii: Vec<f64>,
    /// Mean steps on the grid, per radius.
    pub grid: Vec<f64>,
    /// Mean steps on the Poisson deployment, per radius.
    pub random_geometry: Vec<f64>,
}

/// Mean N1 steps per Table 3 radius over the deployments `deploy`
/// draws: one parallel fan-out over the radius × seed grid, so no
/// radius waits for another to finish.
fn mean_dag_steps(
    scale: ExperimentScale,
    base_seed: u64,
    deploy: impl Fn(f64, u64) -> Topology + Sync,
) -> Vec<f64> {
    scale
        .sweep_with(base_seed)
        .map_grid(&TABLE3_RADII, |&radius, seed| {
            let topo = deploy(radius, seed);
            let (_, steps) = run_dag(topo, DagVariant::SmallestIdRedraws, seed, 500);
            steps as f64
        })
        .into_iter()
        .map(|runs| runs.into_iter().collect::<RunningStats>().mean())
        .collect()
}

/// Runs the Table 3 experiment.
pub fn run(scale: ExperimentScale) -> Table3Result {
    Table3Result {
        radii: TABLE3_RADII.to_vec(),
        grid: mean_dag_steps(scale, scale.seed ^ 0x3A17, |radius, _| {
            builders::grid(scale.grid_side, scale.grid_side, radius)
        }),
        random_geometry: mean_dag_steps(scale, scale.seed ^ 0x9B2D, |radius, seed| {
            builders::poisson(scale.lambda, radius, &mut StdRng::seed_from_u64(seed))
        }),
    }
}

/// Formats the result in the paper's layout.
pub fn render(result: &Table3Result) -> Table {
    let mut table = Table::new(
        "Table 3: steps to build the DAG (paper: grid 2.0-2.2, random geometry 1.9-2.0)",
    );
    let mut headers = vec!["R".to_string()];
    headers.extend(result.radii.iter().map(|r| format!("{r}")));
    table.set_headers(headers);
    table.add_numeric_row("Grid", &result.grid, 2);
    table.add_numeric_row("Random geometry", &result.random_geometry, 2);
    table
}

/// The `repro table3` output.
pub fn report(scale: ExperimentScale) -> String {
    format!("{}\n", render(&run(scale)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dag_builds_in_a_few_steps() {
        let result = run(ExperimentScale::quick());
        for (i, &r) in result.radii.iter().enumerate() {
            assert!(
                result.grid[i] <= 6.0,
                "grid R={r}: {} steps — paper reports ≈2",
                result.grid[i]
            );
            assert!(
                result.random_geometry[i] <= 6.0,
                "random R={r}: {} steps — paper reports ≈2",
                result.random_geometry[i]
            );
            assert!(result.grid[i] >= 0.0);
        }
    }

    #[test]
    fn render_has_one_column_per_radius() {
        let result = Table3Result {
            radii: vec![0.05, 0.1],
            grid: vec![2.2, 2.0],
            random_geometry: vec![2.0, 1.9],
        };
        let s = render(&result).to_string();
        assert!(s.contains("0.05"));
        assert!(s.contains("2.20"));
        assert!(s.contains("1.90"));
    }
}
