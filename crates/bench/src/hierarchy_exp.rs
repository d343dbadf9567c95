//! **Hierarchy extension experiment** (paper future work:
//! "hierarchical self-stabilization algorithms"): build the recursive
//! density-cluster hierarchy over a Poisson field and report each
//! level's shape.

use mwn_cluster::{build_hierarchy, Hierarchy, OracleConfig};
use mwn_graph::builders;
use mwn_metrics::{RunningStats, Table};
use mwn_sim::Sweep;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::ExperimentScale;

/// Mean per-level shape of the hierarchy.
#[derive(Clone, Debug, PartialEq)]
pub struct HierarchyResult {
    /// Mean number of participating nodes per level.
    pub nodes_per_level: Vec<f64>,
    /// Mean number of clusters per level.
    pub clusters_per_level: Vec<f64>,
    /// Mean hierarchy depth.
    pub mean_depth: f64,
}

/// Builds hierarchies over `scale.runs` deployments.
pub fn run(scale: ExperimentScale) -> HierarchyResult {
    let results: Vec<Hierarchy> = Sweep::over(scale.runs, scale.seed ^ 0x61AC).map(|seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = builders::poisson(scale.lambda, 0.07, &mut rng);
        build_hierarchy(&topo, &OracleConfig::default(), 10)
    });
    summarize(&results)
}

fn summarize(results: &[Hierarchy]) -> HierarchyResult {
    let max_depth = results.iter().map(Hierarchy::depth).max().unwrap_or(0);
    let mut nodes_per_level = Vec::new();
    let mut clusters_per_level = Vec::new();
    for level in 0..max_depth {
        let mut nodes = RunningStats::new();
        let mut clusters = RunningStats::new();
        for h in results {
            if let Some(l) = h.levels().get(level) {
                nodes.push(l.members.len() as f64);
                clusters.push(l.clustering.head_count() as f64);
            }
        }
        nodes_per_level.push(nodes.mean());
        clusters_per_level.push(clusters.mean());
    }
    let mean_depth = results
        .iter()
        .map(|h| h.depth() as f64)
        .collect::<RunningStats>()
        .mean();
    HierarchyResult {
        nodes_per_level,
        clusters_per_level,
        mean_depth,
    }
}

/// Formats the per-level table.
pub fn render(result: &HierarchyResult) -> Table {
    let mut table = Table::new(format!(
        "Hierarchical clustering (mean depth {:.1} levels)",
        result.mean_depth
    ));
    let mut headers = vec!["level".to_string()];
    headers.extend((0..result.nodes_per_level.len()).map(|l| l.to_string()));
    table.set_headers(headers);
    table.add_numeric_row("nodes", &result.nodes_per_level, 1);
    table.add_numeric_row("clusters", &result.clusters_per_level, 1);
    table
}

/// The `repro hierarchy` output.
pub fn report(scale: ExperimentScale) -> String {
    format!("{}\n", render(&run(scale)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_shrink_monotonically() {
        let result = run(ExperimentScale {
            runs: 4,
            lambda: 300.0,
            ..ExperimentScale::quick()
        });
        assert!(result.mean_depth >= 2.0, "depth {}", result.mean_depth);
        for w in result.nodes_per_level.windows(2) {
            assert!(
                w[1] < w[0],
                "levels must shrink: {:?}",
                result.nodes_per_level
            );
        }
        // Every level has at least one cluster.
        assert!(result.clusters_per_level.iter().all(|&c| c >= 1.0));
    }

    #[test]
    fn render_shows_levels() {
        let result = HierarchyResult {
            nodes_per_level: vec![300.0, 40.0, 8.0],
            clusters_per_level: vec![40.0, 8.0, 2.0],
            mean_depth: 3.0,
        };
        let s = render(&result).to_string();
        assert!(s.contains("depth 3.0"));
        assert!(s.contains("40.0"));
    }
}
