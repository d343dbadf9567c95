use std::collections::BTreeMap;

use mwn_graph::traversal::SearchScratch;
use mwn_graph::{NodeId, Topology};
use serde::{Deserialize, Serialize};

/// A cluster assignment: for every node, its parent `F(p)` and its
/// cluster-head `H(p)`.
///
/// Cluster-heads are exactly the nodes with `H(p) = p` (which also have
/// `F(p) = p`). Every other node joined a parent; parent chains climb
/// the `≺` order and end at the head. Under the Section 4.3 fusion
/// rule, an absorbed local maximum has a *logical* parent two radio
/// hops away (the head that absorbed its cluster, reached through a
/// shared neighbor) — depth computations account for the extra hop.
///
/// # Examples
///
/// ```
/// use mwn_cluster::{oracle, OracleConfig};
/// use mwn_graph::builders::fig1_example;
///
/// let topo = fig1_example();
/// let clustering = oracle(&topo, &OracleConfig::default());
/// assert_eq!(clustering.head_count(), 2); // paper: clusters around h and j
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Clustering {
    parent: Vec<NodeId>,
    head: Vec<NodeId>,
}

impl Clustering {
    /// Builds a clustering from parallel parent/head vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths or reference nodes
    /// out of range.
    pub fn new(parent: Vec<NodeId>, head: Vec<NodeId>) -> Self {
        assert_eq!(parent.len(), head.len(), "parallel vectors required");
        let n = parent.len();
        for v in parent.iter().chain(head.iter()) {
            assert!(v.index() < n, "node {v} out of range");
        }
        Clustering { parent, head }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` when no nodes are covered.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The parent `F(p)`.
    pub fn parent(&self, p: NodeId) -> NodeId {
        self.parent[p.index()]
    }

    /// The cluster-head `H(p)`.
    pub fn head(&self, p: NodeId) -> NodeId {
        self.head[p.index()]
    }

    /// [`Clustering::head`], or `None` for a node the clustering does
    /// not cover.
    pub(crate) fn head_of(&self, p: NodeId) -> Option<NodeId> {
        self.head.get(p.index()).copied()
    }

    /// Whether `p` elected itself (`H(p) = p`).
    pub fn is_head(&self, p: NodeId) -> bool {
        self.head[p.index()] == p
    }

    /// All cluster-heads, sorted by id.
    pub fn heads(&self) -> Vec<NodeId> {
        (0..self.len() as u32)
            .map(NodeId::new)
            .filter(|&p| self.is_head(p))
            .collect()
    }

    /// Number of clusters — the paper's "number of cluster-heads per
    /// surface unit" when deployed in the unit square.
    pub fn head_count(&self) -> usize {
        (0..self.len() as u32)
            .map(NodeId::new)
            .filter(|&p| self.is_head(p))
            .count()
    }

    /// Clusters as `(head, sorted members)` pairs (members include the
    /// head), sorted by head id. Nodes whose head claim dangles (claims
    /// a non-head node — possible only in non-stabilized snapshots) are
    /// grouped under the claimed head anyway.
    pub fn clusters(&self) -> Vec<(NodeId, Vec<NodeId>)> {
        let mut map: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        for i in 0..self.len() as u32 {
            let p = NodeId::new(i);
            map.entry(self.head(p)).or_default().push(p);
        }
        map.into_iter().collect()
    }

    /// Membership vector: `true` for nodes in the cluster of `head`.
    pub fn members_of(&self, head: NodeId) -> Vec<NodeId> {
        (0..self.len() as u32)
            .map(NodeId::new)
            .filter(|&p| self.head(p) == head)
            .collect()
    }

    /// Depth of `p` in its cluster tree, in **radio hops** along the
    /// parent chain (0 for heads). A parent that is not a 1-neighbor in
    /// `topo` (the fusion rule's logical 2-hop edge) counts as 2 hops.
    ///
    /// Returns `None` if the parent chain does not reach the claimed
    /// head within `n` links (a cycle or a dangling claim — impossible
    /// in stabilized configurations, possible in transient snapshots).
    pub fn depth_in_hops(&self, topo: &Topology, p: NodeId) -> Option<u32> {
        let mut cur = p;
        let mut hops = 0u32;
        let mut remaining = self.len() + 1;
        while cur != self.head(p) {
            let next = self.parent(cur);
            if next == cur || remaining == 0 {
                return None; // stuck before reaching the head
            }
            hops += if topo.has_edge(cur, next) { 1 } else { 2 };
            cur = next;
            remaining -= 1;
        }
        Some(hops)
    }

    /// The paper's "clusterization tree length" for one cluster: the
    /// maximum depth (in radio hops) of any member of `head`'s cluster.
    /// `None` if any member's chain is broken.
    pub fn tree_length(&self, topo: &Topology, head: NodeId) -> Option<u32> {
        self.members_of(head)
            .into_iter()
            .map(|p| self.depth_in_hops(topo, p))
            .try_fold(0u32, |acc, d| d.map(|d| acc.max(d)))
    }

    /// Mean tree length over all clusters; `None` if the clustering has
    /// no nodes or a broken chain.
    pub fn mean_tree_length(&self, topo: &Topology) -> Option<f64> {
        let heads = self.heads();
        if heads.is_empty() {
            return None;
        }
        let mut total = 0u64;
        for h in &heads {
            total += u64::from(self.tree_length(topo, *h)?);
        }
        Some(total as f64 / heads.len() as f64)
    }

    /// The paper's cluster-head eccentricity `e(H(u)/C) =
    /// max_{v ∈ C(u)} d(H(u), v)` in hops, measured inside the
    /// cluster's induced subgraph. Members unreachable inside the
    /// cluster (only possible in non-stabilized snapshots) are skipped.
    pub fn head_eccentricity(&self, topo: &Topology, head: NodeId) -> u32 {
        self.head_eccentricity_in(&mut SearchScratch::new(), topo, head)
    }

    /// [`Clustering::head_eccentricity`] on a caller's scratch. The
    /// search is confined to the cluster, so the last member it visits
    /// is a farthest reachable one.
    fn head_eccentricity_in(
        &self,
        scratch: &mut SearchScratch,
        topo: &Topology,
        head: NodeId,
    ) -> u32 {
        scratch.distances(topo, head, |v| self.head(v) == head);
        scratch
            .visited()
            .iter()
            .rev()
            .find(|&&p| self.head(p) == head)
            .and_then(|&p| scratch.distance(p))
            .unwrap_or(0)
    }

    /// Mean head eccentricity over all clusters; `None` when empty.
    pub fn mean_head_eccentricity(&self, topo: &Topology) -> Option<f64> {
        let heads = self.heads();
        if heads.is_empty() {
            return None;
        }
        let mut scratch = SearchScratch::new();
        let total: u64 = heads
            .iter()
            .map(|&h| u64::from(self.head_eccentricity_in(&mut scratch, topo, h)))
            .sum();
        Some(total as f64 / heads.len() as f64)
    }

    /// Mean number of nodes per cluster.
    pub fn mean_cluster_size(&self) -> Option<f64> {
        let heads = self.head_count();
        if heads == 0 {
            None
        } else {
            Some(self.len() as f64 / heads as f64)
        }
    }

    /// Fraction of the cluster-heads of `before` that are still
    /// cluster-heads in `self` — the paper's mobility-stability metric
    /// ("percentage of cluster-heads which remained cluster-heads").
    /// Returns 1.0 when `before` has no heads.
    ///
    /// # Panics
    ///
    /// Panics if the two clusterings cover different node counts.
    pub fn head_persistence_from(&self, before: &Clustering) -> f64 {
        assert_eq!(self.len(), before.len(), "same node set required");
        let prev = before.heads();
        if prev.is_empty() {
            return 1.0;
        }
        let kept = prev.iter().filter(|&&h| self.is_head(h)).count();
        kept as f64 / prev.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwn_graph::builders;

    fn id(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// 0 ← 1 ← 2 (chain into head 0) and singleton 3.
    fn simple() -> Clustering {
        Clustering::new(
            vec![id(0), id(0), id(1), id(3)],
            vec![id(0), id(0), id(0), id(3)],
        )
    }

    #[test]
    fn heads_and_clusters() {
        let c = simple();
        assert_eq!(c.heads(), vec![id(0), id(3)]);
        assert_eq!(c.head_count(), 2);
        let clusters = c.clusters();
        assert_eq!(clusters[0].0, id(0));
        assert_eq!(clusters[0].1, vec![id(0), id(1), id(2)]);
        assert_eq!(clusters[1].1, vec![id(3)]);
        assert_eq!(c.mean_cluster_size(), Some(2.0));
    }

    #[test]
    fn depth_counts_parent_hops() {
        let c = simple();
        let topo = builders::line(4); // 0-1-2-3: all parent links are edges
        assert_eq!(c.depth_in_hops(&topo, id(0)), Some(0));
        assert_eq!(c.depth_in_hops(&topo, id(1)), Some(1));
        assert_eq!(c.depth_in_hops(&topo, id(2)), Some(2));
        assert_eq!(c.tree_length(&topo, id(0)), Some(2));
        assert_eq!(c.tree_length(&topo, id(3)), Some(0));
        assert_eq!(c.mean_tree_length(&topo), Some(1.0));
    }

    #[test]
    fn fusion_edge_counts_two_hops() {
        // Node 2's parent is node 0, two hops away on the line: the
        // logical fusion edge counts double.
        let topo = builders::line(3);
        let c = Clustering::new(vec![id(0), id(0), id(0)], vec![id(0), id(0), id(0)]);
        assert_eq!(c.depth_in_hops(&topo, id(2)), Some(2));
    }

    #[test]
    fn broken_chain_is_detected() {
        // 0 and 1 point at each other but claim head 2: a cycle.
        let c = Clustering::new(vec![id(1), id(0), id(2)], vec![id(2), id(2), id(2)]);
        let topo = builders::line(3);
        assert_eq!(c.depth_in_hops(&topo, id(0)), None);
        assert_eq!(c.tree_length(&topo, id(2)), None);
    }

    #[test]
    fn eccentricity_inside_cluster() {
        // Line 0-1-2-3, all one cluster headed by 0.
        let topo = builders::line(4);
        let c = Clustering::new(vec![id(0), id(0), id(1), id(2)], vec![id(0); 4]);
        assert_eq!(c.head_eccentricity(&topo, id(0)), 3);
        assert_eq!(c.mean_head_eccentricity(&topo), Some(3.0));
    }

    #[test]
    fn eccentricity_does_not_shortcut_through_other_clusters() {
        // Ring of 4: cluster {0,1,3} headed by 0, cluster {2} headed by 2.
        // Inside the cluster, 1 and 3 are adjacent to 0 → ecc 1.
        let topo = builders::ring(4);
        let c = Clustering::new(
            vec![id(0), id(0), id(2), id(0)],
            vec![id(0), id(0), id(2), id(0)],
        );
        assert_eq!(c.head_eccentricity(&topo, id(0)), 1);
    }

    #[test]
    fn head_persistence() {
        let before = simple(); // heads {0, 3}
        let after = Clustering::new(
            vec![id(0), id(0), id(1), id(0)],
            vec![id(0), id(0), id(0), id(0)],
        ); // heads {0}
        assert_eq!(after.head_persistence_from(&before), 0.5);
        assert_eq!(before.head_persistence_from(&before), 1.0);
    }

    #[test]
    fn empty_clustering() {
        let c = Clustering::new(vec![], vec![]);
        assert!(c.is_empty());
        assert_eq!(c.head_count(), 0);
        assert_eq!(c.mean_cluster_size(), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let _ = Clustering::new(vec![id(5)], vec![id(0)]);
    }
}
