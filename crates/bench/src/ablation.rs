//! **Ablations**: (a) the election-metric comparison behind the
//! paper's Section 3 "Features" claim — the density metric yields
//! fewer, more mobility-stable cluster-heads than the degree and
//! max-min metrics (established in reference \[16\]); (b) the
//! contribution of each Section 4.3 improvement (incumbency, fusion)
//! separately.

use mwn_baselines::{highest_degree_config, lowest_id_config, max_min_clustering};
use mwn_cluster::{oracle, HeadRule, OracleConfig, OrderKind};
use mwn_metrics::Table;

use crate::common::ExperimentScale;
use crate::mobility::{clusterer, persistence_under_mobility, Clusterer};

/// Persistence and cluster-count per clustering policy.
#[derive(Clone, Debug, PartialEq)]
pub struct AblationResult {
    /// Policy names.
    pub policies: Vec<String>,
    /// Mean head persistence (%) per 2 s window under pedestrian
    /// mobility.
    pub persistence: Vec<f64>,
    /// Mean number of clusters.
    pub clusters: Vec<f64>,
}

fn metric_policies() -> Vec<(String, Box<Clusterer>)> {
    vec![
        (
            "density (paper)".to_string(),
            Box::new(|topo: &_, _: Option<&_>| oracle(topo, &OracleConfig::default())),
        ),
        (
            "degree".to_string(),
            Box::new(|topo: &_, _: Option<&_>| oracle(topo, &highest_degree_config())),
        ),
        (
            "lowest-id".to_string(),
            Box::new(|topo: &_, _: Option<&_>| oracle(topo, &lowest_id_config())),
        ),
        (
            "max-min d=2".to_string(),
            Box::new(|topo: &_, _: Option<&_>| max_min_clustering(topo, 2)),
        ),
    ]
}

fn rule_policies() -> Vec<(String, Box<Clusterer>)> {
    vec![
        (
            "basic".to_string(),
            clusterer(OrderKind::Basic, HeadRule::Basic),
        ),
        (
            "+ incumbency".to_string(),
            clusterer(OrderKind::Stable, HeadRule::Basic),
        ),
        (
            "+ fusion".to_string(),
            clusterer(OrderKind::Basic, HeadRule::Fusion),
        ),
        (
            "+ both (4.3)".to_string(),
            clusterer(OrderKind::Stable, HeadRule::Fusion),
        ),
    ]
}

fn run_policies(
    scale: &ExperimentScale,
    policies: Vec<(String, Box<Clusterer>)>,
) -> AblationResult {
    let duration = if scale.runs >= 50 { 120.0 } else { 30.0 };
    let seeds = (scale.runs / 20).clamp(2, 30);
    let mut result = AblationResult {
        policies: Vec::new(),
        persistence: Vec::new(),
        clusters: Vec::new(),
    };
    for (name, policy) in policies {
        let (persistence, clusters) =
            persistence_under_mobility(scale, 1.6, duration, 2.0, seeds, policy.as_ref());
        result.policies.push(name);
        result.persistence.push(persistence);
        result.clusters.push(clusters);
    }
    result
}

/// Ablation (a): election metrics under pedestrian mobility.
fn run_metrics(scale: ExperimentScale) -> AblationResult {
    run_policies(&scale, metric_policies())
}

/// Ablation (b): the Section 4.3 improvements, separately and jointly.
fn run_rules(scale: ExperimentScale) -> AblationResult {
    run_policies(&scale, rule_policies())
}

/// Formats an ablation result.
pub fn render(title: &str, result: &AblationResult) -> Table {
    let mut table = Table::new(title);
    table.set_headers(["policy", "head persistence / 2 s", "mean #clusters"]);
    for i in 0..result.policies.len() {
        table.add_row(
            result.policies[i].clone(),
            vec![
                format!("{:.1}%", result.persistence[i]),
                format!("{:.1}", result.clusters[i]),
            ],
        );
    }
    table
}

/// The `repro ablation` output: ablation (a), then (b).
pub fn report(scale: ExperimentScale) -> String {
    format!(
        "{}\n\n{}\n",
        render(
            "Ablation (a): election metrics under pedestrian mobility",
            &run_metrics(scale)
        ),
        render(
            "Ablation (b): Section 4.3 improvement rules",
            &run_rules(scale)
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentScale {
        ExperimentScale {
            runs: 40,
            lambda: 400.0,
            ..ExperimentScale::quick()
        }
    }

    #[test]
    fn density_is_more_stable_than_degree() {
        let result = run_metrics(quick());
        let idx = |name: &str| {
            result
                .policies
                .iter()
                .position(|p| p.contains(name))
                .unwrap()
        };
        // The paper's Section 3 claim (from [16]): density beats the
        // degree metric on head stability under mobility.
        assert!(
            result.persistence[idx("density")] >= result.persistence[idx("degree")] - 1.0,
            "density {:.1}% vs degree {:.1}%",
            result.persistence[idx("density")],
            result.persistence[idx("degree")]
        );
        assert!(result.persistence.iter().all(|&p| p > 0.0 && p <= 100.0));
    }

    #[test]
    fn both_improvements_beat_basic() {
        let result = run_rules(quick());
        let basic = result.persistence[0];
        let both = *result.persistence.last().unwrap();
        assert!(
            both >= basic - 2.0,
            "4.3 rules ({both:.1}%) should not lose to basic ({basic:.1}%)"
        );
        // Fusion reduces the number of clusters (heads ≥ 3 hops apart).
        assert!(result.clusters[2] <= result.clusters[0] + 0.5);
    }

    #[test]
    fn render_lists_policies() {
        let result = AblationResult {
            policies: vec!["density".into()],
            persistence: vec![80.0],
            clusters: vec![20.0],
        };
        let s = render("Ablation", &result).to_string();
        assert!(s.contains("density"));
        assert!(s.contains("80.0%"));
    }
}
