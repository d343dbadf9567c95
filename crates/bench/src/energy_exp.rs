//! **Energy extension experiment** (paper future work: "consider
//! energy constraints … energy-efficient organization algorithms"):
//! battery-aware head rotation vs the static election — network
//! lifetime and load spreading.

use mwn_cluster::{simulate_rotation, EnergyModel, OracleConfig, RotationOutcome};
use mwn_graph::builders;
use mwn_metrics::{RunningStats, Table};
use mwn_sim::Sweep;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::common::ExperimentScale;

/// Mean longevity statistics, rotating vs static.
#[derive(Clone, Debug, PartialEq)]
pub struct EnergyResult {
    /// Rounds simulated.
    pub rounds: u64,
    /// Mean outcome with battery-aware rotation.
    pub rotating: MeanOutcome,
    /// Mean outcome with the energy-blind election.
    pub fixed: MeanOutcome,
}

/// Averages of a [`RotationOutcome`] over runs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MeanOutcome {
    /// Mean minimum battery at the end.
    pub min_battery: f64,
    /// Mean battery at the end.
    pub mean_battery: f64,
    /// Mean round of the first node death (rounds+1 when nobody died).
    pub first_death: f64,
    /// Mean number of distinct nodes that served as head.
    pub distinct_heads: f64,
}

fn mean_of(outcomes: &[RotationOutcome], rounds: u64) -> MeanOutcome {
    let stat = |f: &dyn Fn(&RotationOutcome) -> f64| -> f64 {
        outcomes.iter().map(f).collect::<RunningStats>().mean()
    };
    MeanOutcome {
        min_battery: stat(&|o| o.min_battery),
        mean_battery: stat(&|o| o.mean_battery),
        first_death: stat(&|o| o.first_death.unwrap_or(rounds + 1) as f64),
        distinct_heads: stat(&|o| o.distinct_heads as f64),
    }
}

/// Runs the lifetime comparison over `scale.runs` deployments.
pub fn run(scale: ExperimentScale) -> EnergyResult {
    let rounds = 400;
    let model = EnergyModel {
        initial: 50.0,
        head_cost: 1.0,
        member_cost: 0.01,
        bands: 25,
    };
    let both: Vec<(RotationOutcome, RotationOutcome)> = Sweep::over(scale.runs, scale.seed ^ 0xE9)
        .map(|seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let topo = builders::poisson(scale.lambda / 4.0, 0.12, &mut rng);
            let rotating = simulate_rotation(&topo, &model, &OracleConfig::default(), rounds, true);
            let fixed = simulate_rotation(&topo, &model, &OracleConfig::default(), rounds, false);
            (rotating, fixed)
        });
    let (rotating, fixed): (Vec<_>, Vec<_>) = both.into_iter().unzip();
    EnergyResult {
        rounds,
        rotating: mean_of(&rotating, rounds),
        fixed: mean_of(&fixed, rounds),
    }
}

/// Formats the comparison table.
pub fn render(result: &EnergyResult) -> Table {
    let mut table = Table::new(format!(
        "Energy-aware head rotation vs static election ({} rounds)",
        result.rounds
    ));
    table.set_headers(["", "rotating", "static"]);
    let row = |label: &str, f: &dyn Fn(&MeanOutcome) -> f64, decimals: usize| {
        (
            label.to_string(),
            vec![
                format!("{:.decimals$}", f(&result.rotating)),
                format!("{:.decimals$}", f(&result.fixed)),
            ],
        )
    };
    for (label, cells) in [
        row("min battery at end", &|o| o.min_battery, 1),
        row("mean battery at end", &|o| o.mean_battery, 1),
        row("first node death (round)", &|o| o.first_death, 0),
        row("distinct heads served", &|o| o.distinct_heads, 1),
    ] {
        table.add_row(label, cells);
    }
    table
}

/// The `repro energy` output.
pub fn report(scale: ExperimentScale) -> String {
    format!("{}\n", render(&run(scale)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_extends_lifetime() {
        let result = run(ExperimentScale {
            runs: 4,
            lambda: 600.0,
            ..ExperimentScale::quick()
        });
        assert!(
            result.rotating.first_death > result.fixed.first_death,
            "rotating {} vs fixed {}",
            result.rotating.first_death,
            result.fixed.first_death
        );
        assert!(result.rotating.distinct_heads > result.fixed.distinct_heads);
        assert!(result.rotating.min_battery >= result.fixed.min_battery);
    }

    #[test]
    fn render_compares_columns() {
        let result = EnergyResult {
            rounds: 400,
            rotating: MeanOutcome {
                min_battery: 30.0,
                mean_battery: 45.0,
                first_death: 401.0,
                distinct_heads: 80.0,
            },
            fixed: MeanOutcome {
                min_battery: 0.0,
                mean_battery: 44.0,
                first_death: 50.0,
                distinct_heads: 12.0,
            },
        };
        let s = render(&result).to_string();
        assert!(s.contains("rotating"));
        assert!(s.contains("first node death"));
    }
}
