//! **Section 5 mobility study**: the percentage of cluster-heads that
//! remain cluster-heads across consecutive 2-second windows while
//! nodes move randomly for 15 minutes, with and without the Section
//! 4.3 stability improvements (incumbency tie-break + head fusion).
//!
//! Paper's numbers: pedestrian speeds (0–1.6 m/s) ≈ 82% with the
//! improvements vs 78% without; vehicular (0–10 m/s) ≈ 31% vs 25%.

use mwn_cluster::{oracle, Clustering, HeadRule, OracleConfig, OrderKind};
use mwn_graph::Topology;
use mwn_metrics::{RunningStats, Table};
use mwn_mobility::{meters_per_second, MobileScenario, RandomWaypoint};
use mwn_sim::Sweep;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::ExperimentScale;

/// A clustering policy evaluated under mobility: maps the current
/// topology (and the previous clustering, for incumbency) to the new
/// clustering.
pub type Clusterer = dyn Fn(&Topology, Option<&Clustering>) -> Clustering + Sync;

/// The density clustering under `order` and `rule`: the paper's base
/// variant is (`Basic`, `Basic`), its Section 4.3 improved one
/// (`Stable`, `Fusion`). The incumbency order is the only one that
/// looks at the previous clustering.
pub(crate) fn clusterer(order: OrderKind, rule: HeadRule) -> Box<Clusterer> {
    Box::new(move |topo, prev| {
        let prev_heads = match order {
            OrderKind::Stable => prev.map(|c| topo.nodes().map(|p| c.is_head(p)).collect()),
            OrderKind::Basic => None,
        };
        oracle(
            topo,
            &OracleConfig {
                order,
                rule,
                prev_heads,
                ..OracleConfig::default()
            },
        )
    })
}

/// Mean head persistence (%) with and without the Section 4.3 rules,
/// per top speed in `speeds_mps`, over 2-second windows.
fn improved_and_basic(
    scale: &ExperimentScale,
    speeds_mps: &[f64],
    duration_s: f64,
    seeds: usize,
) -> (Vec<f64>, Vec<f64>) {
    let improved = clusterer(OrderKind::Stable, HeadRule::Fusion);
    let basic = clusterer(OrderKind::Basic, HeadRule::Basic);
    let persistence =
        |v, c: &Clusterer| persistence_under_mobility(scale, v, duration_s, 2.0, seeds, c).0;
    speeds_mps
        .iter()
        .map(|&v| (persistence(v, &improved), persistence(v, &basic)))
        .unzip()
}

/// Head persistence and cluster-count statistics for one policy under
/// random-waypoint mobility.
///
/// `vmax_mps` is the top speed in meters per second (the paper's 1.6
/// for pedestrians, 10 for cars); windows are `tick_s` seconds (paper:
/// 2 s); each of `seeds` runs lasts `duration_s` seconds.
pub fn persistence_under_mobility(
    scale: &ExperimentScale,
    vmax_mps: f64,
    duration_s: f64,
    tick_s: f64,
    seeds: usize,
    clusterer: &Clusterer,
) -> (f64, f64) {
    let results = Sweep::over(seeds, scale.seed ^ 0x3089).map(|seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_hint = (scale.lambda / 2.0).max(50.0);
        let topo = mwn_graph::builders::poisson(n_hint, 0.1, &mut rng);
        let n = topo.len();
        let model = RandomWaypoint::new(n, 0.0..=meters_per_second(vmax_mps), 0.0);
        let mut scenario = MobileScenario::new(topo, model, seed);
        let mut prev = clusterer(scenario.topology(), None);
        let mut persistence = RunningStats::new();
        let mut clusters = RunningStats::new();
        let ticks = (duration_s / tick_s).round() as usize;
        for _ in 0..ticks {
            scenario.advance(tick_s);
            let next = clusterer(scenario.topology(), Some(&prev));
            persistence.push(next.head_persistence_from(&prev) * 100.0);
            clusters.push(next.head_count() as f64);
            prev = next;
        }
        (persistence.mean(), clusters.mean())
    });
    let mut persistence = RunningStats::new();
    let mut clusters = RunningStats::new();
    for (p, c) in results {
        persistence.push(p);
        clusters.push(c);
    }
    (persistence.mean(), clusters.mean())
}

/// Result of the Section 5 mobility experiment.
#[derive(Clone, Debug, PartialEq)]
pub struct MobilityResult {
    /// Speed-range labels.
    pub scenarios: Vec<String>,
    /// Mean head persistence (%) with the Section 4.3 improvements.
    pub improved: Vec<f64>,
    /// Mean head persistence (%) without them.
    pub basic: Vec<f64>,
}

/// Runs the mobility experiment for pedestrian and vehicular speeds.
pub fn run(scale: ExperimentScale) -> MobilityResult {
    let duration = match scale.runs {
        r if r >= 1000 => 900.0, // the paper's 15 minutes
        r if r >= 50 => 240.0,
        _ => 40.0,
    };
    let seeds = (scale.runs / 20).clamp(2, 50);
    let (improved, basic) = improved_and_basic(&scale, &[1.6, 10.0], duration, seeds);
    MobilityResult {
        scenarios: vec!["pedestrian 0-1.6 m/s".into(), "vehicular 0-10 m/s".into()],
        improved,
        basic,
    }
}

/// A persistence-vs-speed sweep — the paper's future-work question
/// ("derive sharp bounds on the stabilization as a function of the
/// mobility, e.g., speed of the nodes").
#[derive(Clone, Debug, PartialEq)]
pub struct SpeedSweep {
    /// Top speeds measured, m/s.
    pub speeds: Vec<f64>,
    /// Mean head persistence (%) with the Section 4.3 rules.
    pub improved: Vec<f64>,
    /// Mean head persistence (%) without them.
    pub basic: Vec<f64>,
}

/// Sweeps head persistence over top speeds from strolling to driving.
fn run_speed_sweep(scale: ExperimentScale) -> SpeedSweep {
    let speeds = vec![0.5, 1.0, 2.0, 4.0, 8.0, 16.0];
    let duration = if scale.runs >= 50 { 120.0 } else { 30.0 };
    let seeds = (scale.runs / 20).clamp(2, 30);
    let (improved, basic) = improved_and_basic(&scale, &speeds, duration, seeds);
    SpeedSweep {
        speeds,
        improved,
        basic,
    }
}

/// Formats the speed sweep.
fn render_speed_sweep(sweep: &SpeedSweep) -> Table {
    let mut table = Table::new("Head persistence per 2 s window vs top speed");
    let mut headers = vec!["vmax (m/s)".to_string()];
    headers.extend(sweep.speeds.iter().map(|v| format!("{v}")));
    table.set_headers(headers);
    table.add_numeric_row("with 4.3 rules (%)", &sweep.improved, 1);
    table.add_numeric_row("without (%)", &sweep.basic, 1);
    table
}

/// Formats the result with the paper's reference numbers.
pub fn render(result: &MobilityResult) -> Table {
    let mut table = Table::new(
        "Mobility: % of cluster-heads re-elected per 2 s window \
         (paper: 82/78 pedestrian, 31/25 vehicular)",
    );
    table.set_headers(["scenario", "with 4.3 rules", "without"]);
    for (i, label) in result.scenarios.iter().enumerate() {
        table.add_row(
            label.clone(),
            vec![
                format!("{:.1}%", result.improved[i]),
                format!("{:.1}%", result.basic[i]),
            ],
        );
    }
    table
}

/// The `repro mobility` output: the Section 5 table, then the speed
/// sweep.
pub fn report(scale: ExperimentScale) -> String {
    format!(
        "{}\n\n{}\n",
        render(&run(scale)),
        render_speed_sweep(&run_speed_sweep(scale))
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvements_increase_persistence() {
        let scale = ExperimentScale {
            runs: 40,
            lambda: 400.0,
            ..ExperimentScale::quick()
        };
        let result = run(scale);
        assert_eq!(result.scenarios.len(), 2);
        for i in 0..2 {
            assert!(
                result.improved[i] >= result.basic[i] - 2.0,
                "{}: improved {:.1}% vs basic {:.1}%",
                result.scenarios[i],
                result.improved[i],
                result.basic[i]
            );
            assert!(result.improved[i] > 0.0 && result.improved[i] <= 100.0);
        }
        // Faster movement must hurt stability (paper: 82% → 31%).
        assert!(
            result.improved[0] > result.improved[1],
            "pedestrian {:.1}% should beat vehicular {:.1}%",
            result.improved[0],
            result.improved[1]
        );
    }

    #[test]
    fn render_shows_percentages() {
        let result = MobilityResult {
            scenarios: vec!["pedestrian".into()],
            improved: vec![82.0],
            basic: vec![78.0],
        };
        let s = render(&result).to_string();
        assert!(s.contains("82.0%"));
        assert!(s.contains("78.0%"));
    }
}
