//! Experiment harness: regenerates **every table and figure** of the
//! paper's evaluation (Section 5) plus the theorems' quantitative
//! claims, as runnable binaries and Criterion benches.
//!
//! | paper artifact | module | binary |
//! |---|---|---|
//! | Table 1 + Figure 1 | [`table1`] | `cargo run -p mwn-bench --bin table1` |
//! | Table 2 | [`table2`] | `cargo run -p mwn-bench --bin table2` |
//! | Table 3 | [`table3`] | `cargo run -p mwn-bench --bin table3` |
//! | Table 4 | [`table4`] | `cargo run -p mwn-bench --bin table4` |
//! | Table 5 | [`table5`] | `cargo run -p mwn-bench --bin table5` |
//! | Figures 2 & 3 | [`figures`] | `cargo run -p mwn-bench --bin figures` |
//! | §5 mobility study | [`mobility`] | `cargo run -p mwn-bench --bin mobility` |
//! | Theorem 1 / Lemmas 1–2 | [`stabilization`] | `cargo run -p mwn-bench --bin stabilization` |
//! | §3 "features" (\[16\] comparison) | [`ablation`] | `cargo run -p mwn-bench --bin ablation` |
//! | activity-driven engine scaling | [`scaling`] | `cargo run -p mwn-bench --bin scaling` |
//! | actor fabric vs synchronous reference | [`actors`] | `cargo run -p mwn-bench --bin actors` |
//! | hierarchy extension (conclusion) | [`hierarchy_exp`] | `cargo run -p mwn-bench --bin hierarchy` |
//! | energy extension (conclusion) | [`energy_exp`] | `cargo run -p mwn-bench --bin energy` |
//! | hierarchical-routing stretch (§1 motivation) | [`routing_exp`] | `cargo run -p mwn-bench --bin routing` |
//! | traffic plane: throughput / latency / loss under churn | [`traffic`] | `cargo run -p mwn-bench --bin traffic` |
//!
//! Every experiment takes an [`ExperimentScale`]; binaries accept
//! `--quick` (seconds, for smoke tests) and `--runs N` (the paper uses
//! 1000-run averages).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod actors;
pub mod chaos;
pub mod common;
pub mod energy_exp;
pub mod figures;
pub mod hierarchy_exp;
pub mod mobility;
pub mod routing_exp;
pub mod scaling;
pub mod stabilization;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod traffic;

pub use common::ExperimentScale;
