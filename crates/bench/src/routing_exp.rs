//! **Routing experiment**: the path-stretch cost of hierarchical
//! routing over the clustering — the application Section 1 motivates
//! clustering with. Compares the election metrics and the fusion rule
//! (bigger clusters ⇒ more traffic stays intra-cluster ⇒ less
//! stretch).

use mwn_baselines::{highest_degree_config, lowest_id_config};
use mwn_cluster::{
    mean_stretch_over, oracle, FlatRoutes, HeadRule, HierarchicalRoutes, OracleConfig,
};
use mwn_graph::builders;
use mwn_metrics::{RunningStats, Table};
use mwn_sim::Sweep;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::ExperimentScale;

/// Mean hierarchical-routing stretch per clustering policy.
#[derive(Clone, Debug, PartialEq)]
pub struct RoutingResult {
    /// Policy names.
    pub policies: Vec<String>,
    /// Mean stretch (hierarchical hops / shortest hops).
    pub stretch: Vec<f64>,
    /// Mean cluster count (context for the stretch numbers).
    pub clusters: Vec<f64>,
}

/// Runs the stretch comparison over `scale.runs` deployments.
pub fn run(scale: ExperimentScale) -> RoutingResult {
    let policies: Vec<(String, OracleConfig)> = vec![
        ("density (paper)".into(), OracleConfig::default()),
        (
            "density + fusion".into(),
            OracleConfig {
                rule: HeadRule::Fusion,
                ..OracleConfig::default()
            },
        ),
        ("degree".into(), highest_degree_config()),
        ("lowest-id".into(), lowest_id_config()),
    ];
    let mut result = RoutingResult {
        policies: Vec::new(),
        stretch: Vec::new(),
        clusters: Vec::new(),
    };
    for (name, cfg) in policies {
        let runs = Sweep::over(scale.runs, scale.seed ^ 0x207E).map(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let topo = builders::poisson(scale.lambda / 2.0, 0.1, &mut rng);
            let clustering = oracle(&topo, &cfg);
            // Route through the shared RoutingView abstraction — the
            // same view the traffic plane forwards packets over.
            let view = HierarchicalRoutes::new(&topo, clustering.clone());
            let stretch = mean_stretch_over(&topo, &view, 200, &mut rng);
            stretch.map(|s| (s, clustering.head_count() as f64))
        });
        let mut stretch = RunningStats::new();
        let mut clusters = RunningStats::new();
        for (s, c) in runs.into_iter().flatten() {
            stretch.push(s);
            clusters.push(c);
        }
        result.policies.push(name);
        result.stretch.push(stretch.mean());
        result.clusters.push(clusters.mean());
    }

    // Reference row: the flat shortest-path view has stretch exactly 1
    // by definition — it anchors the table and exercises the trait's
    // other implementation.
    let flat = Sweep::over(scale.runs.min(4), scale.seed ^ 0x207E).map(|seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = builders::poisson(scale.lambda / 2.0, 0.1, &mut rng);
        mean_stretch_over(&topo, &FlatRoutes, 200, &mut rng)
    });
    let mut flat_stretch = RunningStats::new();
    for s in flat.into_iter().flatten() {
        flat_stretch.push(s);
    }
    result.policies.push("flat shortest-path".into());
    result.stretch.push(flat_stretch.mean());
    result.clusters.push(f64::NAN);
    result
}

/// Formats the comparison table.
pub fn render(result: &RoutingResult) -> Table {
    let mut table = Table::new("Hierarchical routing stretch by clustering policy");
    table.set_headers(["policy", "mean stretch", "mean #clusters"]);
    for i in 0..result.policies.len() {
        let clusters = if result.clusters[i].is_finite() {
            format!("{:.1}", result.clusters[i])
        } else {
            "—".to_string()
        };
        table.add_row(
            result.policies[i].clone(),
            vec![format!("{:.3}", result.stretch[i]), clusters],
        );
    }
    table
}

/// The `repro routing` output.
pub fn report(scale: ExperimentScale) -> String {
    format!("{}\n", render(&run(scale)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stretch_is_sane_for_all_policies() {
        let result = run(ExperimentScale {
            runs: 4,
            lambda: 500.0,
            ..ExperimentScale::quick()
        });
        assert_eq!(result.policies.len(), 5);
        for (i, p) in result.policies.iter().enumerate() {
            assert!(
                result.stretch[i] >= 1.0 && result.stretch[i] < 3.0,
                "{p}: stretch {}",
                result.stretch[i]
            );
        }
        // The flat baseline is exactly 1 by construction.
        let flat = result
            .policies
            .iter()
            .position(|p| p == "flat shortest-path")
            .unwrap();
        assert!((result.stretch[flat] - 1.0).abs() < 1e-9);
        // Fusion merges clusters: fewer of them than plain density.
        let density = result
            .policies
            .iter()
            .position(|p| p == "density (paper)")
            .unwrap();
        let fusion = result
            .policies
            .iter()
            .position(|p| p.contains("fusion"))
            .unwrap();
        assert!(result.clusters[fusion] <= result.clusters[density] + 0.5);
    }

    #[test]
    fn render_lists_policies() {
        let result = RoutingResult {
            policies: vec!["density".into()],
            stretch: vec![1.25],
            clusters: vec![20.0],
        };
        let s = render(&result).to_string();
        assert!(s.contains("1.250"));
    }
}
