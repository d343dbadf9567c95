use std::cmp::Ordering;
use std::fmt;

use mwn_graph::{NodeId, Topology};
use serde::{Deserialize, Serialize};

/// The paper's density metric (Definition 1) as an **exact rational**:
///
/// > d_p = |{e = (v,w) ∈ E : w ∈ {p} ∪ N_p and v ∈ N_p}| / |N_p|
///
/// i.e. the number of links inside `p`'s closed 1-neighborhood that
/// touch at least one neighbor (each undirected edge counted once: the
/// edges from `p` to its neighbors plus the edges among neighbors),
/// divided by the number of neighbors.
///
/// The cluster-head election compares densities for *equality* when
/// tie-breaking, so the value is kept as a `(links, degree)` integer
/// pair and compared by cross-multiplication — two nodes with the same
/// ratio always compare equal, with no floating-point surprises.
/// Isolated nodes get the canonical zero density `0/1`.
///
/// # Examples
///
/// ```
/// use mwn_cluster::Density;
///
/// let a = Density::ratio(5, 4);   // 1.25
/// let b = Density::ratio(10, 8);  // also 1.25
/// let c = Density::ratio(3, 2);   // 1.5
/// assert_eq!(a, b);
/// assert!(a < c);
/// assert_eq!(a.as_f64(), 1.25);
/// ```
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Density {
    links: u32,
    degree: u32,
}

impl Density {
    /// A density of `links / degree`. A zero degree is normalized to
    /// the canonical zero `0/1` (isolated node).
    pub fn ratio(links: u32, degree: u32) -> Self {
        if degree == 0 {
            Density {
                links: 0,
                degree: 1,
            }
        } else {
            Density { links, degree }
        }
    }

    /// The integer density `k / 1` — used to express other election
    /// metrics (e.g. the node degree, as suggested by the paper's
    /// conclusion) in the same machinery.
    pub fn integer(k: u32) -> Self {
        Density {
            links: k,
            degree: 1,
        }
    }

    /// The canonical zero density.
    pub fn zero() -> Self {
        Density {
            links: 0,
            degree: 1,
        }
    }

    /// Numerator: the link count of Definition 1.
    pub fn links(&self) -> u32 {
        self.links
    }

    /// Denominator: `|N_p|`.
    pub fn degree(&self) -> u32 {
        self.degree
    }

    /// The density as a float (for reporting only — never for
    /// comparisons inside the protocol).
    pub fn as_f64(&self) -> f64 {
        f64::from(self.links) / f64::from(self.degree)
    }
}

impl PartialEq for Density {
    fn eq(&self, other: &Self) -> bool {
        u64::from(self.links) * u64::from(other.degree)
            == u64::from(other.links) * u64::from(self.degree)
    }
}

impl Eq for Density {}

impl PartialOrd for Density {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Density {
    fn cmp(&self, other: &Self) -> Ordering {
        let lhs = u64::from(self.links) * u64::from(other.degree);
        let rhs = u64::from(other.links) * u64::from(self.degree);
        lhs.cmp(&rhs)
    }
}

impl fmt::Display for Density {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}", self.as_f64())
    }
}

/// Computes the density of `p` directly from the topology (the
/// "oracle" view with full knowledge; the distributed protocol computes
/// the same value from its 2-hop caches).
///
/// # Examples
///
/// ```
/// use mwn_cluster::density_of;
/// use mwn_graph::{builders::fig1_example, NodeId};
///
/// // Paper Table 1: node b (id 1) has 4 neighbors, 5 links → 1.25.
/// let topo = fig1_example();
/// let d = density_of(&topo, NodeId::new(1));
/// assert_eq!(d.links(), 5);
/// assert_eq!(d.degree(), 4);
/// ```
pub fn density_of(topo: &Topology, p: NodeId) -> Density {
    Density::ratio(topo.neighborhood_links(p) as u32, topo.degree(p) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwn_graph::builders::{fig1_example, FIG1_LABELS};
    use mwn_graph::Topology;

    fn by_label(c: char) -> NodeId {
        NodeId::new(FIG1_LABELS.iter().position(|&l| l == c).unwrap() as u32)
    }

    #[test]
    fn table1_densities() {
        // Paper Table 1 (all rows except the inconsistent node d):
        // node:      a     b     c     e     f    h    i     j
        // 1-density: 1.0   1.25  1.0   1.0   1.5  1.5  1.25  1.5
        let topo = fig1_example();
        let cases = [
            ('a', 1.0),
            ('b', 1.25),
            ('c', 1.0),
            ('e', 1.0),
            ('f', 1.5),
            ('h', 1.5),
            ('i', 1.25),
            ('j', 1.5),
        ];
        for (label, expected) in cases {
            let d = density_of(&topo, by_label(label));
            assert!(
                (d.as_f64() - expected).abs() < 1e-12,
                "density of {label}: got {d}, want {expected}"
            );
        }
    }

    #[test]
    fn equal_ratios_compare_equal() {
        assert_eq!(Density::ratio(3, 2), Density::ratio(6, 4));
        assert_eq!(Density::ratio(0, 5), Density::zero());
        assert!(Density::ratio(7, 4) > Density::ratio(5, 3));
        assert!(Density::ratio(1, 3) < Density::ratio(1, 2));
    }

    #[test]
    fn zero_degree_is_canonical_zero() {
        let d = Density::ratio(42, 0);
        assert_eq!(d, Density::zero());
        assert_eq!(d.as_f64(), 0.0);
    }

    #[test]
    fn integer_densities() {
        assert_eq!(Density::integer(4).as_f64(), 4.0);
        assert!(Density::integer(4) > Density::ratio(7, 2));
    }

    #[test]
    fn isolated_node_has_zero_density() {
        let topo = Topology::empty(3);
        assert_eq!(density_of(&topo, NodeId::new(0)), Density::zero());
    }

    #[test]
    fn display_shows_decimal() {
        assert_eq!(Density::ratio(5, 4).to_string(), "1.250");
    }
}
