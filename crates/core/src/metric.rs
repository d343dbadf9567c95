use mwn_graph::{NodeId, Topology};
use serde::{Deserialize, Serialize};

use crate::{density_of, Density};

/// The election metric a node maximizes to become cluster-head.
///
/// The paper's metric is the 1-density (Definition 1), but its
/// conclusion notes the self-stabilization argument "could be applied
/// to several clusterization metrics as for instance the node's
/// degree". Expressing the metric as an enum lets the same protocol,
/// oracle, proofs-by-test and benches run every variant — including the
/// classical lowest-identifier clustering, which is exactly "everyone
/// has an equal metric, ties broken by smallest id".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricKind {
    /// The paper's density metric `d_p` (Definition 1).
    #[default]
    Density,
    /// The node degree `|N_p|` (Chen & Stojmenovic-style criterion).
    Degree,
    /// A constant metric: the election degenerates to smallest-id wins
    /// (Baker & Ephremides' lowest-identifier clustering).
    Unit,
}

impl MetricKind {
    /// The metric value of `p` with full topology knowledge.
    pub fn value_of(self, topo: &Topology, p: NodeId) -> Density {
        match self {
            MetricKind::Density => density_of(topo, p),
            MetricKind::Degree => Density::integer(topo.degree(p) as u32),
            MetricKind::Unit => Density::zero(),
        }
    }

    /// The metric value computed from distributed knowledge, as counts
    /// the caller already keeps: the neighbor count and the numerator
    /// of Definition 1 (what
    /// [`NeighborCache::neighborhood_links`][crate::NeighborCache::neighborhood_links]
    /// maintains incrementally).
    pub fn value_from_counts(self, degree: u32, links: u32) -> Density {
        match self {
            MetricKind::Density => Density::ratio(links, degree),
            MetricKind::Degree => Density::integer(degree),
            MetricKind::Unit => Density::zero(),
        }
    }

    /// A short name for experiment output.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Density => "density",
            MetricKind::Degree => "degree",
            MetricKind::Unit => "lowest-id",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwn_graph::builders;

    #[test]
    fn density_metric_matches_density_of() {
        let topo = builders::fig1_example();
        for p in topo.nodes() {
            assert_eq!(MetricKind::Density.value_of(&topo, p), density_of(&topo, p));
        }
    }

    #[test]
    fn degree_metric_is_integer_degree() {
        let topo = builders::star(5);
        assert_eq!(
            MetricKind::Degree.value_of(&topo, NodeId::new(0)),
            Density::integer(4)
        );
        assert_eq!(
            MetricKind::Degree.value_of(&topo, NodeId::new(1)),
            Density::integer(1)
        );
    }

    #[test]
    fn unit_metric_is_constant() {
        let topo = builders::star(5);
        for p in topo.nodes() {
            assert_eq!(MetricKind::Unit.value_of(&topo, p), Density::zero());
        }
    }

    #[test]
    fn names_are_distinct() {
        assert_ne!(MetricKind::Density.name(), MetricKind::Degree.name());
        assert_ne!(MetricKind::Degree.name(), MetricKind::Unit.name());
    }
}
