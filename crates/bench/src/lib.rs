//! Experiment harness: regenerates **every table and figure** of the
//! paper's evaluation (Section 5) plus the theorems' quantitative
//! claims. [`EXPERIMENTS`] is the list; the one binary runs it:
//!
//! ```text
//! cargo run --release -p mwn-bench --bin repro -- <name>|all|list [--quick|--full] [--runs N]
//! ```
//!
//! Every experiment takes an [`ExperimentScale`]: `--quick` is seconds
//! (smoke tests), `--full` the paper's 1000-run averages. Performance
//! numbers do not come from here — they come from `benchmark/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod common;
pub mod energy_exp;
pub mod figures;
pub mod hierarchy_exp;
pub mod mobility;
pub mod routing_exp;
pub mod stabilization;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;

pub use common::ExperimentScale;

/// One paper-reproduction experiment of the `repro` runner.
pub struct Experiment {
    /// The name `repro` selects it by.
    pub name: &'static str,
    /// The paper artifact it regenerates.
    pub artifact: &'static str,
    /// Runs it and returns what `repro` prints on stdout.
    pub run: fn(ExperimentScale) -> String,
}

/// Every experiment, in the paper's order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        artifact: "Table 1 + Figure 1",
        run: table1::report,
    },
    Experiment {
        name: "table2",
        artifact: "Table 2",
        run: table2::report,
    },
    Experiment {
        name: "table3",
        artifact: "Table 3",
        run: table3::report,
    },
    Experiment {
        name: "table4",
        artifact: "Table 4",
        run: table4::report,
    },
    Experiment {
        name: "table5",
        artifact: "Table 5",
        run: table5::report,
    },
    Experiment {
        name: "figures",
        artifact: "Figures 2 & 3 (writes fig2.svg, fig3.svg)",
        run: figures::report,
    },
    Experiment {
        name: "mobility",
        artifact: "§5 mobility study",
        run: mobility::report,
    },
    Experiment {
        name: "stabilization",
        artifact: "Theorem 1 / Lemmas 1–2",
        run: stabilization::report,
    },
    Experiment {
        name: "ablation",
        artifact: "§3 \"features\" ([16] comparison)",
        run: ablation::report,
    },
    Experiment {
        name: "hierarchy",
        artifact: "hierarchy extension (conclusion)",
        run: hierarchy_exp::report,
    },
    Experiment {
        name: "energy",
        artifact: "energy extension (conclusion)",
        run: energy_exp::report,
    },
    Experiment {
        name: "routing",
        artifact: "hierarchical-routing stretch (§1 motivation)",
        run: routing_exp::report,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_the_experiment_list() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12, "12 unique experiment names");
        // `figures` writes its SVGs into the working directory: keep
        // them out of the checkout.
        let scratch = std::env::temp_dir().join("mwn-bench-registry");
        std::fs::create_dir_all(&scratch).expect("scratch dir");
        std::env::set_current_dir(&scratch).expect("enter scratch dir");
        for e in EXPERIMENTS {
            let text = (e.run)(ExperimentScale::quick());
            assert!(!text.trim().is_empty(), "{} printed nothing", e.name);
        }
    }
}
