//! Statistics and experiment-harness utilities for the `selfstab-mwn`
//! workspace.
//!
//! The paper's evaluation reports averages "over 1000 simulations"
//! (Section 5). This crate provides the pieces that turn raw simulation
//! outputs into the paper's tables: numerically stable running
//! statistics ([`RunningStats`]), streaming latency quantiles
//! ([`LatencyHistogram`]), Wilson intervals for proportions
//! ([`wilson_interval`]) and paper-style ASCII tables ([`Table`]). The
//! multi-seed parallel fan-out lives with the simulator as
//! `mwn_sim::Sweep`.
//!
//! # Examples
//!
//! ```
//! use mwn_metrics::RunningStats;
//!
//! let stats: RunningStats = (0..100).map(|s| (s % 7) as f64).collect();
//! assert_eq!(stats.count(), 100);
//! assert!(stats.mean() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod percentile;
mod proportion;
mod running;
mod table;

pub use percentile::{percentiles, LatencyHistogram};
pub use proportion::{wilson_interval, wilson_overlap};
pub use running::RunningStats;
pub use table::Table;
