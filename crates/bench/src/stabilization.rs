//! **Theorem 1 and Lemmas 1–2, quantitatively**: stabilization times
//! that the paper proves constant in expectation, measured.
//!
//! * Theorem 1 — N1 reaches a proper coloring in expected constant
//!   time: DAG steps must not grow with the network size.
//! * Lemma 2 — the election stabilizes in time proportional to the
//!   height of DAG_≺ (constant for fixed δ): cold-start and
//!   post-corruption stabilization steps must not grow with n.
//! * The CSMA hypothesis — convergence survives any τ > 0, with
//!   stabilization time growing as τ falls.

use mwn_cluster::{ClusterConfig, DagVariant, DensityCluster};
use mwn_graph::builders;
use mwn_metrics::{RunningStats, Table};
use mwn_radio::BernoulliLoss;
use mwn_sim::{Scenario, StopWhen, Sweep};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::{run_dag, run_distributed, ExperimentScale};

/// Stabilization-time measurements across network sizes and τ values.
#[derive(Clone, Debug, PartialEq)]
pub struct StabilizationResult {
    /// Network sizes measured (Poisson intensities).
    pub sizes: Vec<usize>,
    /// Mean N1 (DAG) stabilization steps per size.
    pub dag_steps: Vec<f64>,
    /// Mean election stabilization steps from cold start per size.
    pub cold_steps: Vec<f64>,
    /// Mean election re-stabilization steps after corrupting every
    /// node, per size.
    pub corruption_steps: Vec<f64>,
    /// τ values measured.
    pub taus: Vec<f64>,
    /// Mean stabilization steps under Bernoulli loss per τ.
    pub tau_steps: Vec<f64>,
}

fn radius_for(n: usize, degree_target: f64) -> f64 {
    (degree_target / (n as f64 * std::f64::consts::PI)).sqrt()
}

/// Runs the stabilization experiments.
pub fn run(scale: ExperimentScale) -> StabilizationResult {
    // Fixed expected degree: λ·π·R² held constant while λ grows, the
    // regime where the paper's "constant time" claim applies.
    let degree_target = 8.0;
    let sizes: Vec<usize> = if scale.runs >= 50 {
        vec![125, 250, 500, 1000, 2000]
    } else {
        vec![100, 200, 400]
    };
    let per_point = (scale.runs / 10).clamp(3, 100);

    let mut dag_steps = Vec::new();
    let mut cold_steps = Vec::new();
    let mut corruption_steps = Vec::new();
    for &n in &sizes {
        let radius = radius_for(n, degree_target);
        let dag = Sweep::over(per_point, scale.seed ^ n as u64).map(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let topo = builders::poisson(n as f64, radius, &mut rng);
            let (_, steps) = run_dag(topo, DagVariant::Randomized, seed, 2000);
            steps as f64
        });
        dag_steps.push(dag.into_iter().collect::<RunningStats>().mean());

        let cold = Sweep::over(per_point, scale.seed ^ (n as u64) << 1).map(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let topo = builders::poisson(n as f64, radius, &mut rng);
            let (_, _, steps) = run_distributed(topo, ClusterConfig::default(), seed, 2000);
            steps as f64
        });
        cold_steps.push(cold.into_iter().collect::<RunningStats>().mean());

        let corrupted = Sweep::over(per_point, scale.seed ^ (n as u64) << 2).map(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let topo = builders::poisson(n as f64, radius, &mut rng);
            let mut net = Scenario::new(DensityCluster::new(ClusterConfig::default()))
                .topology(topo)
                .seed(seed)
                .build()
                .expect("valid scenario");
            net.run(30);
            net.corrupt_all();
            let start = net.now();
            let report = net.run_to(&StopWhen::stable_for(4).within(2000));
            let stabilized = report.expect_stable("reconverges (self-stabilization)");
            (stabilized.saturating_sub(start)) as f64
        });
        corruption_steps.push(corrupted.into_iter().collect::<RunningStats>().mean());
    }

    // τ sweep on a fixed mid-size deployment.
    let taus = vec![1.0, 0.8, 0.6, 0.4];
    let mut tau_steps = Vec::new();
    for &tau in &taus {
        let steps = Sweep::over(per_point, scale.seed ^ 0x7A07).map(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let topo = builders::poisson(200.0, 0.12, &mut rng);
            let config = ClusterConfig {
                cache_ttl: ttl_for_tau(tau),
                ..ClusterConfig::default()
            };
            let mut net = Scenario::new(DensityCluster::new(config))
                .medium(BernoulliLoss::new(tau))
                .topology(topo)
                .seed(seed)
                .build()
                .expect("valid scenario");
            net.run_to(&StopWhen::stable_for(25).within(20_000))
                .expect_stable("converges for any τ > 0") as f64
        });
        tau_steps.push(steps.into_iter().collect::<RunningStats>().mean());
    }

    StabilizationResult {
        sizes,
        dag_steps,
        cold_steps,
        corruption_steps,
        taus,
        tau_steps,
    }
}

/// Cache TTL (in steps) under which a live neighbor's entry falsely
/// expires with probability below ~1e-7: `(1-τ)^ttl ≤ 1e-7`. Short
/// TTLs at low τ would make neighbor sets — and hence the election
/// output — flicker forever, which is a deployment misconfiguration,
/// not a stabilization failure.
fn ttl_for_tau(tau: f64) -> u64 {
    if tau >= 0.999 {
        return 4;
    }
    let ttl = (1e-7f64.ln() / (1.0 - tau).ln()).ceil() as u64;
    ttl.max(4) + 2
}

/// Formats the scaling table (per network size).
fn render_scaling(result: &StabilizationResult) -> Table {
    let mut table = Table::new(
        "Stabilization steps vs network size at fixed degree \
         (Theorem 1 / Lemma 2: expected constant)",
    );
    let mut headers = vec!["n (λ)".to_string()];
    headers.extend(result.sizes.iter().map(ToString::to_string));
    table.set_headers(headers);
    table.add_numeric_row("N1 (DAG) steps", &result.dag_steps, 2);
    table.add_numeric_row("election, cold start", &result.cold_steps, 2);
    table.add_numeric_row("election, after corruption", &result.corruption_steps, 2);
    table
}

/// Formats the τ-sweep table.
fn render_tau(result: &StabilizationResult) -> Table {
    let mut table = Table::new("Stabilization steps vs per-frame success probability τ");
    let mut headers = vec!["τ".to_string()];
    headers.extend(result.taus.iter().map(|t| format!("{t}")));
    table.set_headers(headers);
    table.add_numeric_row("election steps", &result.tau_steps, 1);
    table
}

/// The `repro stabilization` output: the scaling table, then the τ
/// sweep.
pub fn report(scale: ExperimentScale) -> String {
    let result = run(scale);
    format!("{}\n\n{}\n", render_scaling(&result), render_tau(&result))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stabilization_does_not_grow_with_n() {
        let result = run(ExperimentScale {
            runs: 30,
            ..ExperimentScale::quick()
        });
        // "Constant expected time": the largest network may not take
        // more than a small factor longer than the smallest.
        let first = result.cold_steps.first().copied().unwrap();
        let last = result.cold_steps.last().copied().unwrap();
        assert!(
            last <= first * 3.0 + 5.0,
            "cold-start stabilization grew from {first} to {last} steps"
        );
        let d_first = result.dag_steps.first().copied().unwrap();
        let d_last = result.dag_steps.last().copied().unwrap();
        assert!(
            d_last <= d_first * 3.0 + 5.0,
            "DAG stabilization grew from {d_first} to {d_last} steps"
        );
        assert!(result.corruption_steps.iter().all(|&s| s < 100.0));
    }

    #[test]
    fn lower_tau_is_slower_but_converges() {
        let result = run(ExperimentScale {
            runs: 20,
            ..ExperimentScale::quick()
        });
        let perfect = result.tau_steps[0];
        let lossy = *result.tau_steps.last().unwrap();
        assert!(
            lossy >= perfect,
            "τ=0.4 ({lossy}) should not beat τ=1 ({perfect})"
        );
    }

    #[test]
    fn render_layouts() {
        let result = StabilizationResult {
            sizes: vec![100],
            dag_steps: vec![2.0],
            cold_steps: vec![5.0],
            corruption_steps: vec![6.0],
            taus: vec![1.0],
            tau_steps: vec![5.0],
        };
        assert!(render_scaling(&result).to_string().contains("N1"));
        assert!(render_tau(&result).to_string().contains("τ"));
    }
}
