//! **Table 2**: the information schedule — what a node has learned
//! after each step (neighbors after 1, density after 2, father after
//! 3, cluster-head within tree-depth more steps). Measured on cold
//! starts over random deployments.

use mwn_cluster::{measure_info_schedule, ClusterConfig, DensityCluster};
use mwn_graph::builders;
use mwn_metrics::{RunningStats, Table};
use mwn_sim::Scenario;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::ExperimentScale;

/// Mean first-step at which each knowledge level is reached.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Table2Result {
    /// Step at which all neighbor tables are complete (paper: 1).
    pub neighbors: f64,
    /// Step at which all densities are correct (paper: 2).
    pub density: f64,
    /// Step at which all fathers are correct (paper: 3).
    pub parent: f64,
    /// Step at which all cluster-heads are correct (paper: bounded by
    /// the clusterization tree depth).
    pub head: f64,
}

/// Measures the schedule over `scale.runs` random deployments.
pub fn run(scale: ExperimentScale) -> Table2Result {
    let results = scale.sweep().map(|seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = builders::poisson(scale.lambda / 4.0, 0.1, &mut rng);
        let mut net = Scenario::new(DensityCluster::new(ClusterConfig::default()))
            .topology(topo)
            .seed(seed)
            .build()
            .expect("valid scenario");
        let schedule = measure_info_schedule(&mut net, 200);
        (
            schedule.neighbors.unwrap_or(u64::MAX) as f64,
            schedule.density.unwrap_or(u64::MAX) as f64,
            schedule.parent.unwrap_or(u64::MAX) as f64,
            schedule.head.unwrap_or(u64::MAX) as f64,
        )
    });
    let collect = |f: fn(&(f64, f64, f64, f64)) -> f64| -> f64 {
        results.iter().map(f).collect::<RunningStats>().mean()
    };
    Table2Result {
        neighbors: collect(|r| r.0),
        density: collect(|r| r.1),
        parent: collect(|r| r.2),
        head: collect(|r| r.3),
    }
}

/// Formats the result in the paper's layout.
pub fn render(result: &Table2Result) -> Table {
    let mut table = Table::new("Table 2: information available after each step (measured)");
    table.set_headers(["knowledge", "mean first step (paper)"]);
    table.add_row(
        "neighborhood table",
        vec![format!("{:.2}  (1)", result.neighbors)],
    );
    table.add_row("its density", vec![format!("{:.2}  (2)", result.density)]);
    table.add_row("its father", vec![format!("{:.2}  (3)", result.parent)]);
    table.add_row(
        "its cluster-head",
        vec![format!("{:.2}  (3 + tree depth)", result.head)],
    );
    table
}

/// The `repro table2` output.
pub fn report(scale: ExperimentScale) -> String {
    format!("{}\n", render(&run(scale)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_1_2_3_on_perfect_medium() {
        let result = run(ExperimentScale::quick());
        assert_eq!(result.neighbors, 1.0);
        assert_eq!(result.density, 2.0);
        assert_eq!(result.parent, 3.0);
        assert!(result.head >= result.parent);
        assert!(result.head < 20.0, "heads converge shortly after fathers");
    }

    #[test]
    fn render_mentions_paper_values() {
        let table = render(&run(ExperimentScale::quick()));
        let s = table.to_string();
        assert!(s.contains("(1)"));
        assert!(s.contains("(3 + tree depth)"));
    }
}
