//! Hierarchical routing over the clustering — the application the
//! paper builds clusters *for* ("specific routing protocols are used
//! within and between the clusters", Section 1).
//!
//! The scheme is the textbook two-level one:
//!
//! * **intra-cluster**: members of one cluster route directly inside
//!   the cluster's induced subgraph (local routing state only);
//! * **inter-cluster**: the source climbs to its cluster-head, the
//!   packet follows a head-overlay route — each overlay hop expanded
//!   inside the union of the two adjacent clusters — and finally
//!   descends from the destination's head.
//!
//! Consumers (the traffic plane, the routing bench) program against
//! the [`RoutingView`] trait — "give me a route / next hop toward
//! `dst` on this topology" — so hierarchical routes
//! ([`HierarchicalRoutes`]) and the flat shortest-path baseline
//! ([`FlatRoutes`]) are interchangeable. The price of hierarchy is
//! path *stretch* (hierarchical hops divided by the shortest-path
//! hops); [`mean_stretch`] measures it, which is how the routing
//! bench compares election metrics.

use mwn_graph::traversal::{self, SearchScratch};
use mwn_graph::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::Rng;

use crate::hierarchy::head_overlay;
use crate::Clustering;

/// Next-hop routing over a topology: the contract between the
/// stabilized control plane and anything that forwards data.
///
/// A view owns its routing *state* (clustering, overlays, …) but not
/// the topology — the caller passes the topology at lookup time so one
/// view can be queried against the live, churning graph it was built
/// from. After churn, routes a view answers with may no longer be
/// walks in the current topology; forwarding code must re-check each
/// edge at its forwarding instant and rebuild the view from fresh
/// protocol outputs when lookups go stale.
pub trait RoutingView {
    /// Writes the full route from `src` to `dst`, inclusive of both
    /// endpoints, into `route` (cleared first) and answers `true`; or
    /// answers `false` when the view knows no route, leaving `route`
    /// unspecified. Every search runs on the caller's `scratch` and the
    /// route grows in place, so a caller that keeps both across lookups
    /// pays for what each route visits and nothing else.
    fn route_into(
        &self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        scratch: &mut RouteScratch,
        route: &mut Vec<NodeId>,
    ) -> bool;

    /// Full route from `src` to `dst`, inclusive of both endpoints, or
    /// `None` when the view knows no route — [`RoutingView::route_into`]
    /// on fresh buffers.
    fn route(&self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        let mut route = Vec::new();
        self.route_into(topo, src, dst, &mut RouteScratch::new(), &mut route)
            .then_some(route)
    }

    /// The neighbor `at` should forward to next for `dst`. `None` when
    /// unroutable; `at == dst` also answers `None` (nothing to do).
    fn next_hop(&self, topo: &Topology, at: NodeId, dst: NodeId) -> Option<NodeId> {
        self.route(topo, at, dst)?.get(1).copied()
    }
}

/// The buffers a [`RoutingView`] lookup works in, owned by whoever
/// asks for routes (the traffic plane keeps one for its lifetime).
#[derive(Clone, Debug, Default)]
pub struct RouteScratch {
    search: SearchScratch,
    /// The head-overlay path of the route being expanded.
    overlay_path: Vec<NodeId>,
}

impl RouteScratch {
    /// Empty buffers; they size themselves on first use.
    pub fn new() -> Self {
        RouteScratch::default()
    }
}

/// The two-level hierarchical routing state, owned: a snapshot of the
/// clustering plus the derived head overlay. Build one per stable
/// clustering (e.g. from [`crate::extract_clustering`]) and query it
/// through [`RoutingView`].
///
/// # Examples
///
/// ```
/// use mwn_cluster::{oracle, HierarchicalRoutes, OracleConfig, RoutingView};
/// use mwn_graph::{builders, NodeId};
///
/// let topo = builders::grid(6, 6, 0.25);
/// let routes = HierarchicalRoutes::new(&topo, oracle(&topo, &OracleConfig::default()));
/// let route = routes.route(&topo, NodeId::new(0), NodeId::new(35)).unwrap();
/// assert_eq!(route.first(), Some(&NodeId::new(0)));
/// assert_eq!(route.last(), Some(&NodeId::new(35)));
/// ```
#[derive(Clone, Debug)]
pub struct HierarchicalRoutes {
    clustering: Clustering,
    heads: Vec<NodeId>,
    overlay: Topology,
}

impl HierarchicalRoutes {
    /// Prepares routing state (the head overlay) for a stable
    /// clustering of `topo`.
    ///
    /// # Panics
    ///
    /// Panics when the clustering's head claims are inconsistent (a
    /// node names a head that has not elected itself) — snapshots
    /// taken mid-convergence can look like that; use
    /// [`HierarchicalRoutes::try_new`] for those.
    pub fn new(topo: &Topology, clustering: Clustering) -> Self {
        Self::try_new(topo, clustering).expect("consistent head claims in a stable clustering")
    }

    /// Like [`HierarchicalRoutes::new`], but answers `None` instead of
    /// panicking when the clustering is not internally consistent —
    /// the right constructor for view factories sampling a protocol
    /// that may still be converging.
    pub fn try_new(topo: &Topology, clustering: Clustering) -> Option<Self> {
        let consistent = (0..topo.len() as u32)
            .map(NodeId::new)
            .all(|p| clustering.is_head(clustering.head(p)));
        if !consistent {
            return None;
        }
        let (heads, overlay) = head_overlay(topo, &clustering);
        Some(HierarchicalRoutes {
            clustering,
            heads,
            overlay,
        })
    }

    /// The clustering snapshot this view routes over.
    pub fn clustering(&self) -> &Clustering {
        &self.clustering
    }

    fn overlay_id(&self, head: NodeId) -> Option<u32> {
        self.heads.binary_search(&head).ok().map(|i| i as u32)
    }

    /// Membership test of one cluster — the filter of an intra-cluster
    /// search.
    fn within(&self, cluster: NodeId) -> impl Fn(NodeId) -> bool + '_ {
        move |v| self.clustering.head(v) == cluster
    }
}

impl RoutingView for HierarchicalRoutes {
    /// Computes the hierarchical route from `src` to `dst`, inclusive.
    ///
    /// Answers `false` when no route exists (different components) —
    /// also when the hierarchy's overlay is partitioned, which cannot
    /// happen for a stable clustering of a connected graph.
    fn route_into(
        &self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        scratch: &mut RouteScratch,
        route: &mut Vec<NodeId>,
    ) -> bool {
        let RouteScratch {
            search,
            overlay_path,
        } = scratch;
        route.clear();
        route.push(src);
        let h_src = self.clustering.head(src);
        let h_dst = self.clustering.head(dst);
        if h_src == h_dst {
            return search.extend_path(topo, src, dst, self.within(h_src), route);
        }
        // Overlay path between the two heads.
        let (Some(o_src), Some(o_dst)) = (self.overlay_id(h_src), self.overlay_id(h_dst)) else {
            return false;
        };
        let (o_src, o_dst) = (NodeId::new(o_src), NodeId::new(o_dst));
        overlay_path.clear();
        overlay_path.push(o_src);
        if !search.extend_path(&self.overlay, o_src, o_dst, |_| true, overlay_path) {
            return false;
        }
        // Expand: climb to the head, hop cluster to cluster, descend.
        if !search.extend_path(topo, src, h_src, self.within(h_src), route) {
            return false;
        }
        for pair in overlay_path.windows(2) {
            let a = self.heads[pair[0].index()];
            let b = self.heads[pair[1].index()];
            let in_either = |v| {
                let h = self.clustering.head(v);
                h == a || h == b
            };
            if !search.extend_path(topo, a, b, in_either, route) {
                return false;
            }
        }
        search.extend_path(topo, h_dst, dst, self.within(h_dst), route)
    }
}

/// The flat shortest-path baseline: global BFS, no hierarchy, no
/// locality — what the clustered scheme's stretch is measured against.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlatRoutes;

impl RoutingView for FlatRoutes {
    fn route_into(
        &self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        scratch: &mut RouteScratch,
        route: &mut Vec<NodeId>,
    ) -> bool {
        route.clear();
        route.push(src);
        scratch.search.extend_path(topo, src, dst, |_| true, route)
    }
}

/// A router over one topology + clustering — the borrow-based
/// convenience wrapper around [`HierarchicalRoutes`] for callers that
/// route against a fixed topology snapshot.
///
/// # Examples
///
/// ```
/// use mwn_cluster::{oracle, ClusterRouter, OracleConfig};
/// use mwn_graph::{builders, NodeId};
///
/// let topo = builders::grid(6, 6, 0.25);
/// let clustering = oracle(&topo, &OracleConfig::default());
/// let router = ClusterRouter::new(&topo, &clustering);
/// let route = router.route(NodeId::new(0), NodeId::new(35)).unwrap();
/// assert_eq!(route.first(), Some(&NodeId::new(0)));
/// assert_eq!(route.last(), Some(&NodeId::new(35)));
/// ```
#[derive(Debug)]
pub struct ClusterRouter<'a> {
    topo: &'a Topology,
    routes: HierarchicalRoutes,
}

impl<'a> ClusterRouter<'a> {
    /// Prepares routing state (the head overlay) for a stable
    /// clustering.
    pub fn new(topo: &'a Topology, clustering: &Clustering) -> Self {
        ClusterRouter {
            topo,
            routes: HierarchicalRoutes::new(topo, clustering.clone()),
        }
    }

    /// Computes the hierarchical route from `src` to `dst`, inclusive.
    ///
    /// Returns `None` when no route exists (different components) —
    /// also when the hierarchy's overlay is partitioned, which cannot
    /// happen for a stable clustering of a connected graph.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        self.routes.route(self.topo, src, dst)
    }

    /// Route length in hops (`route.len() - 1`), or `None` if
    /// unroutable.
    pub fn hops(&self, src: NodeId, dst: NodeId) -> Option<usize> {
        Some(self.route(src, dst)?.len() - 1)
    }

    /// Validates that `route` is a real walk in the topology.
    pub fn is_valid_route(&self, route: &[NodeId]) -> bool {
        route.windows(2).all(|w| self.topo.has_edge(w[0], w[1]))
    }
}

/// Mean stretch (view hops / shortest hops) of an arbitrary
/// [`RoutingView`] over `samples` random connected pairs. Pairs in
/// different components are skipped; returns `None` when no valid
/// pair was sampled.
pub fn mean_stretch_over<R: RoutingView>(
    topo: &Topology,
    view: &R,
    samples: usize,
    rng: &mut StdRng,
) -> Option<f64> {
    if topo.len() < 2 {
        return None;
    }
    let mut total = 0.0;
    let mut count = 0usize;
    let mut scratch = RouteScratch::new();
    let mut route = Vec::new();
    for _ in 0..samples {
        let src = NodeId::new(rng.random_range(0..topo.len() as u32));
        let dst = NodeId::new(rng.random_range(0..topo.len() as u32));
        if src == dst {
            continue;
        }
        let direct = traversal::bfs_distances(topo, src)[dst.index()];
        let Some(direct) = direct else { continue };
        if !view.route_into(topo, src, dst, &mut scratch, &mut route) {
            continue;
        }
        total += (route.len() - 1) as f64 / f64::from(direct.max(1));
        count += 1;
    }
    (count > 0).then(|| total / count as f64)
}

/// Mean stretch of the two-level hierarchical scheme for `clustering`
/// — [`mean_stretch_over`] specialized to [`HierarchicalRoutes`].
pub fn mean_stretch(
    topo: &Topology,
    clustering: &Clustering,
    samples: usize,
    rng: &mut StdRng,
) -> Option<f64> {
    let view = HierarchicalRoutes::new(topo, clustering.clone());
    mean_stretch_over(topo, &view, samples, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{oracle, OracleConfig};
    use mwn_graph::builders;
    use rand::SeedableRng;

    fn field(seed: u64) -> Topology {
        let mut rng = StdRng::seed_from_u64(seed);
        builders::uniform(250, 0.11, &mut rng)
    }

    #[test]
    fn routes_are_real_walks_with_correct_endpoints() {
        let topo = field(1);
        let clustering = oracle(&topo, &OracleConfig::default());
        let router = ClusterRouter::new(&topo, &clustering);
        let mut rng = StdRng::seed_from_u64(1);
        let mut routed = 0;
        for _ in 0..200 {
            let src = NodeId::new(rng.random_range(0..topo.len() as u32));
            let dst = NodeId::new(rng.random_range(0..topo.len() as u32));
            let direct = traversal::bfs_distances(&topo, src)[dst.index()];
            match router.route(src, dst) {
                Some(route) => {
                    assert_eq!(route.first(), Some(&src));
                    assert_eq!(route.last(), Some(&dst));
                    assert!(router.is_valid_route(&route), "{src}→{dst} not a walk");
                    assert!(direct.is_some(), "routed an unreachable pair");
                    routed += 1;
                }
                None => assert!(direct.is_none() || src == dst, "missed a reachable pair"),
            }
        }
        assert!(routed > 100, "only {routed} pairs routed");
    }

    #[test]
    fn next_hop_agrees_with_route_second_entry() {
        let topo = field(4);
        let clustering = oracle(&topo, &OracleConfig::default());
        let view = HierarchicalRoutes::new(&topo, clustering);
        let mut rng = StdRng::seed_from_u64(4);
        let mut checked = 0;
        for _ in 0..100 {
            let src = NodeId::new(rng.random_range(0..topo.len() as u32));
            let dst = NodeId::new(rng.random_range(0..topo.len() as u32));
            if src == dst {
                continue;
            }
            if let Some(route) = view.route(&topo, src, dst) {
                let hop = view.next_hop(&topo, src, dst).expect("route implies hop");
                assert_eq!(Some(&hop), route.get(1));
                assert!(topo.has_edge(src, hop), "next hop is a neighbor");
                checked += 1;
            }
        }
        assert!(checked > 50, "only {checked} pairs checked");
    }

    #[test]
    fn flat_routes_are_shortest_paths() {
        let topo = field(5);
        let view = FlatRoutes;
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let src = NodeId::new(rng.random_range(0..topo.len() as u32));
            let dst = NodeId::new(rng.random_range(0..topo.len() as u32));
            let direct = traversal::bfs_distances(&topo, src)[dst.index()];
            match (view.route(&topo, src, dst), direct) {
                (Some(route), Some(d)) => assert_eq!(route.len() as u32 - 1, d),
                (None, None) => {}
                (r, d) => panic!("flat route {r:?} vs bfs {d:?}"),
            }
        }
        // Flat stretch is exactly 1 by construction.
        let mut rng = StdRng::seed_from_u64(6);
        let s = mean_stretch_over(&topo, &view, 100, &mut rng).expect("pairs");
        assert!((s - 1.0).abs() < 1e-12, "flat stretch {s} != 1");
    }

    #[test]
    fn intra_cluster_routes_are_shortest_within_the_cluster() {
        let topo = builders::complete(8);
        let clustering = oracle(&topo, &OracleConfig::default());
        let router = ClusterRouter::new(&topo, &clustering);
        // One cluster, complete graph: every route is one hop.
        assert_eq!(router.hops(NodeId::new(1), NodeId::new(5)), Some(1));
    }

    #[test]
    fn self_route_is_trivial() {
        let topo = builders::line(4);
        let clustering = oracle(&topo, &OracleConfig::default());
        let router = ClusterRouter::new(&topo, &clustering);
        assert_eq!(
            router.route(NodeId::new(2), NodeId::new(2)),
            Some(vec![NodeId::new(2)])
        );
        assert_eq!(router.hops(NodeId::new(2), NodeId::new(2)), Some(0));
        let view = HierarchicalRoutes::new(&topo, clustering);
        assert_eq!(view.next_hop(&topo, NodeId::new(2), NodeId::new(2)), None);
    }

    #[test]
    fn cross_component_pairs_are_unroutable() {
        let mut topo = builders::line(6);
        topo.remove_edge(NodeId::new(2), NodeId::new(3));
        let clustering = oracle(&topo, &OracleConfig::default());
        let router = ClusterRouter::new(&topo, &clustering);
        assert_eq!(router.route(NodeId::new(0), NodeId::new(5)), None);
    }

    #[test]
    fn stretch_is_at_least_one_and_moderate() {
        let topo = field(2);
        let clustering = oracle(&topo, &OracleConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        let stretch = mean_stretch(&topo, &clustering, 300, &mut rng).expect("pairs exist");
        assert!(stretch >= 1.0, "stretch {stretch} below 1");
        assert!(
            stretch < 3.0,
            "hierarchical routing should not triple path lengths: {stretch}"
        );
    }

    #[test]
    fn stretch_on_tiny_topologies() {
        let topo = Topology::empty(1);
        let clustering = oracle(&topo, &OracleConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(mean_stretch(&topo, &clustering, 10, &mut rng), None);
    }

    use mwn_graph::Topology;
}
