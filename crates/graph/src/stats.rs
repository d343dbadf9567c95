//! Degree statistics for deployed topologies.
//!
//! The paper's model assumes a sparse distribution: "there is some known
//! constant δ such that for any node p, |N_p| ≤ δ", and suggests
//! controlling density "by adjusting their communication range and/or
//! powering off nodes in areas that are too dense". These helpers
//! expose the quantities an operator would use for that control loop.

use serde::{Deserialize, Serialize};

use crate::Topology;

/// Summary of a topology's degree distribution.
///
/// # Examples
///
/// ```
/// use mwn_graph::{builders, stats::DegreeStats};
///
/// let topo = builders::star(5);
/// let s = DegreeStats::of(&topo);
/// assert_eq!(s.max, 4);
/// assert_eq!(s.min, 1);
/// assert!((s.mean - 1.6).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DegreeStats {
    /// Smallest degree.
    pub min: usize,
    /// Largest degree — the constant `δ` of the paper's model.
    pub max: usize,
    /// Mean degree.
    pub mean: f64,
    /// Number of isolated nodes (degree 0).
    pub isolated: usize,
}

impl DegreeStats {
    /// Computes degree statistics for `topo`. For an empty topology all
    /// counts are zero.
    pub fn of(topo: &Topology) -> Self {
        if topo.is_empty() {
            return DegreeStats {
                min: 0,
                max: 0,
                mean: 0.0,
                isolated: 0,
            };
        }
        let degrees: Vec<usize> = topo.nodes().map(|p| topo.degree(p)).collect();
        DegreeStats {
            min: degrees.iter().copied().min().unwrap_or(0),
            max: degrees.iter().copied().max().unwrap_or(0),
            mean: degrees.iter().sum::<usize>() as f64 / degrees.len() as f64,
            isolated: degrees.iter().filter(|&&d| d == 0).count(),
        }
    }
}

/// The expected mean degree of a Poisson(λ) unit-disk deployment with
/// range `R`, ignoring border effects: `λ·π·R²`. Useful to pick λ and
/// `R` so that a target `δ` is respected with high probability.
pub fn expected_poisson_degree(lambda: f64, radius: f64) -> f64 {
    lambda * std::f64::consts::PI * radius * radius
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empty_topology_stats() {
        let topo = Topology::empty(0);
        let s = DegreeStats::of(&topo);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn isolated_nodes_are_counted() {
        let topo = Topology::from_edges(4, &[(0, 1)]).unwrap();
        assert_eq!(DegreeStats::of(&topo).isolated, 2);
    }

    #[test]
    fn expected_degree_matches_simulation() {
        let mut rng = StdRng::seed_from_u64(5);
        let lambda = 1000.0;
        let radius = 0.08;
        let expected = expected_poisson_degree(lambda, radius);
        let mut mean = 0.0;
        let runs = 20;
        for _ in 0..runs {
            mean += builders::poisson(lambda, radius, &mut rng).mean_degree();
        }
        mean /= runs as f64;
        // Border effects push the empirical mean a bit below λπR².
        assert!(
            mean > expected * 0.8 && mean < expected * 1.05,
            "mean {mean} vs {expected}"
        );
    }
}
