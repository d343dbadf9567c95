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
//!
//! # Passes
//!
//! Routes share overlay hops: under hot-sink demand a few thousand
//! routes cross the same few thousand directed head-to-head hops tens
//! of thousands of times, and the expansion of one hop `a → b` — the
//! shortest path inside `cluster(a) ∪ cluster(b)` — is a pure function
//! of the view and the topology. So lookups run inside a **pass**
//! ([`RouteScratch::pass`]): a stretch over which the caller holds the
//! same `&view` and `&Topology`. Within it each hop is searched once,
//! stored in the scratch's segment memo, and appended from there by
//! every later route crossing it. A stored segment says nothing about
//! another topology or another view, so the [`RoutePass`] handle
//! borrows both for as long as it lives — a topology delta or a
//! rebuilt view cannot happen before the pass is dropped, and opening
//! the next pass forgets every segment in O(1). In debug builds every
//! memo hit is searched again and compared with the stored segment.
//!
//! The memo holds what the pass expanded and nothing else. Also
//! keeping the overlay BFS tree of each source head was measured and
//! rejected: it halves the remaining cost of a bulk resolve pass again
//! (62 → 31 ms on 4 901 routes over 629 heads) but needs a word per
//! (source head, head) pair — 594 trees × 629 heads = 1.5 MiB there,
//! and quadratic in the head count beyond it.

use mwn_graph::traversal::SearchScratch;
use mwn_graph::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::Rng;

use crate::hierarchy::head_overlay;
use crate::Clustering;

/// Next-hop routing over a topology: the contract between the
/// stabilized control plane and anything that forwards data.
///
/// A view owns its routing *state* (clustering, overlays, …) but not
/// the topology — the caller names the topology when it opens a pass
/// ([`RouteScratch::pass`]) or asks for a single route
/// ([`RoutingView::route`]), so one view can be queried against the
/// live, churning graph it was built from. After churn, routes a view
/// answers with may no longer be walks in the current topology;
/// forwarding code must re-check each edge at its forwarding instant
/// and rebuild the view from fresh protocol outputs when lookups go
/// stale.
pub trait RoutingView {
    /// Writes the full route from `src` to `dst`, inclusive of both
    /// endpoints, into `route` (cleared first) and answers `true`; or
    /// answers `false` when the view knows no route — an endpoint
    /// outside the view or the topology included — leaving `route`
    /// unspecified. Callers reach this through [`RoutePass::route_into`];
    /// every search runs on the pass's buffers and the route grows in
    /// place, so a caller that keeps both across lookups pays for what
    /// each route visits and nothing else.
    fn route_into(
        &self,
        pass: &mut PassScratch<'_>,
        src: NodeId,
        dst: NodeId,
        route: &mut Vec<NodeId>,
    ) -> bool;

    /// Full route from `src` to `dst`, inclusive of both endpoints, or
    /// `None` when the view knows no route — a pass of one lookup on
    /// fresh buffers.
    fn route(&self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        let mut route = Vec::new();
        RouteScratch::new()
            .pass(self, topo)
            .route_into(src, dst, &mut route)
            .then_some(route)
    }

    /// The neighbor `at` should forward to next for `dst`. `None` when
    /// unroutable; `at == dst` also answers `None` (nothing to do).
    fn next_hop(&self, topo: &Topology, at: NodeId, dst: NodeId) -> Option<NodeId> {
        self.route(topo, at, dst)?.get(1).copied()
    }
}

/// The buffers route lookups work in, owned by whoever asks for routes
/// (the traffic plane keeps one for its lifetime): the search state,
/// the overlay path of the route being expanded, and the segment memo
/// of the open pass. Lookups go through [`RouteScratch::pass`]; the
/// buffers keep their high-water capacity from one pass to the next.
///
/// # Examples
///
/// ```
/// use mwn_cluster::{oracle, HierarchicalRoutes, OracleConfig, RouteScratch};
/// use mwn_graph::{builders, NodeId};
///
/// let topo = builders::grid(6, 6, 0.25);
/// let view = HierarchicalRoutes::new(&topo, oracle(&topo, &OracleConfig::default()));
/// let mut scratch = RouteScratch::new();
/// let mut route = Vec::new();
/// // One pass: `view` and `topo` stay borrowed until it is dropped.
/// let mut pass = scratch.pass(&view, &topo);
/// for src in 1..36 {
///     assert!(pass.route_into(NodeId::new(src), NodeId::new(0), &mut route));
///     assert_eq!(route.last(), Some(&NodeId::new(0)));
/// }
/// ```
#[derive(Clone, Debug, Default)]
pub struct RouteScratch {
    search: SearchScratch,
    /// The head-overlay path of the route being expanded.
    overlay_path: Vec<NodeId>,
    memo: SegmentMemo,
}

impl RouteScratch {
    /// Empty buffers; they size themselves on first use.
    pub fn new() -> Self {
        RouteScratch::default()
    }

    /// Opens a pass: lookups of `view` on `topo`, both borrowed until
    /// the handle is dropped, which is what makes a segment searched
    /// for one route valid for the next. Segments of earlier passes are
    /// forgotten here, in O(1).
    pub fn pass<'a, R: RoutingView + ?Sized>(
        &'a mut self,
        view: &'a R,
        topo: &'a Topology,
    ) -> RoutePass<'a, R> {
        self.memo.begin();
        RoutePass {
            view,
            scratch: PassScratch {
                topo,
                buffers: self,
            },
        }
    }

    /// `(overlay hops searched, overlay hops answered from the memo)`
    /// over this scratch's lifetime — how tests see that the memo is on.
    #[doc(hidden)]
    pub fn memo_counts(&self) -> (u64, u64) {
        (self.memo.searched, self.memo.hits)
    }

    /// Moves the memo's generation counter, so a test can reach its
    /// wrap.
    #[doc(hidden)]
    pub fn set_memo_generation(&mut self, generation: u32) {
        self.memo.generation = generation;
    }
}

/// An open pass: one view on one topology, both borrowed for as long
/// as the handle lives (see the module docs). Opened by
/// [`RouteScratch::pass`].
#[derive(Debug)]
pub struct RoutePass<'a, R: ?Sized> {
    view: &'a R,
    scratch: PassScratch<'a>,
}

impl<R: RoutingView + ?Sized> RoutePass<'_, R> {
    /// [`RoutingView::route_into`] of the pass's view on the pass's
    /// topology.
    pub fn route_into(&mut self, src: NodeId, dst: NodeId, route: &mut Vec<NodeId>) -> bool {
        self.view.route_into(&mut self.scratch, src, dst, route)
    }
}

/// What a [`RoutingView`] implementation sees of an open pass: its
/// topology and its buffers. Only [`RoutePass::route_into`] hands one
/// out, so segments stored through it belong to the pass's own view.
#[derive(Debug)]
pub struct PassScratch<'a> {
    topo: &'a Topology,
    buffers: &'a mut RouteScratch,
}

impl<'a> PassScratch<'a> {
    /// The topology the pass routes on.
    pub fn topology(&self) -> &'a Topology {
        self.topo
    }
}

/// The overlay hops expanded in the open pass: each directed hop
/// `from → to` searched once, its path (without `from`, as
/// [`SearchScratch::extend_path`] appends it) stored back to back in
/// `nodes` behind an open-addressing index. An entry is live iff its
/// stamp is the pass's generation, so opening a pass clears nothing,
/// and memory is what one pass expanded.
#[derive(Clone, Debug, Default)]
struct SegmentMemo {
    /// Stamp of the open pass; never 0, the value fresh entries hold.
    generation: u32,
    /// Linear probing over a power-of-two array at most three-quarters
    /// full of live entries.
    index: Vec<Segment>,
    live: usize,
    nodes: Vec<NodeId>,
    searched: u64,
    hits: u64,
}

/// One index entry: `nodes[start..end]` expands `from → to`; an empty
/// range records that the search found no path.
#[derive(Clone, Copy, Debug, Default)]
struct Segment {
    stamp: u32,
    from: u32,
    to: u32,
    start: u32,
    end: u32,
}

impl SegmentMemo {
    /// Opens a pass: every stored segment dies with the old generation.
    fn begin(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: entries of 2^32 passes ago would read as live.
            self.index.fill(Segment::default());
            self.generation = 1;
        }
        self.live = 0;
        self.nodes.clear();
    }

    /// The entry holding `from → to`, or the dead one its probe ends
    /// at; `index` is non-empty and never full of live entries.
    fn probe(&self, from: u32, to: u32) -> usize {
        let mask = self.index.len() - 1;
        // Fibonacci hashing: the top bits of the product mix both ids.
        let key = u64::from(from) << 32 | u64::from(to);
        let shift = 64 - self.index.len().trailing_zeros();
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
        loop {
            let entry = &self.index[i];
            if entry.stamp != self.generation || (entry.from == from && entry.to == to) {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the index (from 16) and re-seats the live entries.
    fn grow(&mut self) {
        let grown = vec![Segment::default(); (self.index.len() * 2).max(16)];
        for entry in std::mem::replace(&mut self.index, grown) {
            if entry.stamp == self.generation {
                let i = self.probe(entry.from, entry.to);
                self.index[i] = entry;
            }
        }
    }

    /// The expansion of the overlay hop `from → to` in this pass:
    /// `expand` appends it to the buffer it is given (nothing, when
    /// there is no path) the first time the pass asks, and the stored
    /// copy answers from then on. Empty when there is no path.
    fn segment(
        &mut self,
        from: NodeId,
        to: NodeId,
        expand: impl FnOnce(&mut Vec<NodeId>),
    ) -> &[NodeId] {
        if (self.live + 1) * 4 > self.index.len() * 3 {
            self.grow();
        }
        let (from, to) = (from.value(), to.value());
        let i = self.probe(from, to);
        if self.index[i].stamp != self.generation {
            self.searched += 1;
            let offset = |len: usize| u32::try_from(len).expect("segment offsets fit 32 bits");
            let start = offset(self.nodes.len());
            expand(&mut self.nodes);
            self.index[i] = Segment {
                stamp: self.generation,
                from,
                to,
                start,
                end: offset(self.nodes.len()),
            };
            self.live += 1;
            return &self.nodes[start as usize..];
        }
        self.hits += 1;
        let stored = self.index[i].start as usize..self.index[i].end as usize;
        if cfg!(debug_assertions) {
            // The reference: search again behind the stored segments
            // and compare.
            let fresh = self.nodes.len();
            expand(&mut self.nodes);
            debug_assert_eq!(
                self.nodes[fresh..],
                self.nodes[stored.clone()],
                "stored expansion of n{from} → n{to} differs from a fresh search"
            );
            self.nodes.truncate(fresh);
        }
        &self.nodes[stored]
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
    /// search. A node the view does not cover (the topology may have
    /// grown since the snapshot) is in no cluster.
    fn within(&self, cluster: NodeId) -> impl Fn(NodeId) -> bool + '_ {
        move |v| self.clustering.head_of(v) == Some(cluster)
    }
}

impl RoutingView for HierarchicalRoutes {
    /// Computes the hierarchical route from `src` to `dst`, inclusive.
    ///
    /// Answers `false` when no route exists (different components, an
    /// endpoint the view does not cover) — also when the hierarchy's
    /// overlay is partitioned, which cannot happen for a stable
    /// clustering of a connected graph.
    fn route_into(
        &self,
        pass: &mut PassScratch<'_>,
        src: NodeId,
        dst: NodeId,
        route: &mut Vec<NodeId>,
    ) -> bool {
        let topo = pass.topo;
        let RouteScratch {
            search,
            overlay_path,
            memo,
        } = &mut *pass.buffers;
        route.clear();
        route.push(src);
        let clustering = &self.clustering;
        let (Some(h_src), Some(h_dst)) = (clustering.head_of(src), clustering.head_of(dst)) else {
            return false;
        };
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
        // Expand: climb to the head, hop cluster to cluster — each hop
        // searched once per pass — and descend.
        if !search.extend_path(topo, src, h_src, self.within(h_src), route) {
            return false;
        }
        for pair in overlay_path.windows(2) {
            let a = self.heads[pair[0].index()];
            let b = self.heads[pair[1].index()];
            let hop = memo.segment(a, b, |out| {
                let in_either = |v| clustering.head_of(v).is_some_and(|h| h == a || h == b);
                search.extend_path(topo, a, b, in_either, out);
            });
            if hop.is_empty() {
                return false;
            }
            route.extend_from_slice(hop);
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
        pass: &mut PassScratch<'_>,
        src: NodeId,
        dst: NodeId,
        route: &mut Vec<NodeId>,
    ) -> bool {
        route.clear();
        route.push(src);
        let search = &mut pass.buffers.search;
        search.extend_path(pass.topo, src, dst, |_| true, route)
    }
}

/// Mean stretch (view hops / shortest hops) of an arbitrary
/// [`RoutingView`] over `samples` random connected pairs. Pairs in
/// different components are skipped; returns `None` when no valid
/// pair was sampled. The samples are one pass on one scratch, the
/// shortest hop counts included: each costs the nodes its searches
/// visit.
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
    let mut pass = scratch.pass(view, topo);
    let mut route = Vec::new();
    let mut direct = Vec::new();
    for _ in 0..samples {
        let src = NodeId::new(rng.random_range(0..topo.len() as u32));
        let dst = NodeId::new(rng.random_range(0..topo.len() as u32));
        if src == dst {
            continue;
        }
        // The shortest hop count: the flat baseline on the pass's own
        // buffers (it stores no segments, so it cannot disturb them).
        if !FlatRoutes.route_into(&mut pass.scratch, src, dst, &mut direct) {
            continue;
        }
        if !pass.route_into(src, dst, &mut route) {
            continue;
        }
        total += (route.len() - 1) as f64 / (direct.len() - 1) as f64;
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
    use mwn_graph::{builders, traversal};
    use rand::SeedableRng;

    fn field(seed: u64) -> Topology {
        let mut rng = StdRng::seed_from_u64(seed);
        builders::uniform(250, 0.11, &mut rng)
    }

    #[test]
    fn routes_are_real_walks_with_correct_endpoints() {
        let topo = field(1);
        let clustering = oracle(&topo, &OracleConfig::default());
        let view = HierarchicalRoutes::new(&topo, clustering);
        let mut rng = StdRng::seed_from_u64(1);
        let mut routed = 0;
        for _ in 0..200 {
            let src = NodeId::new(rng.random_range(0..topo.len() as u32));
            let dst = NodeId::new(rng.random_range(0..topo.len() as u32));
            let direct = traversal::bfs_distances(&topo, src)[dst.index()];
            match view.route(&topo, src, dst) {
                Some(route) => {
                    assert_eq!(route.first(), Some(&src));
                    assert_eq!(route.last(), Some(&dst));
                    let walk = route.windows(2).all(|w| topo.has_edge(w[0], w[1]));
                    assert!(walk, "{src}→{dst} not a walk");
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
        let view = HierarchicalRoutes::new(&topo, clustering);
        // One cluster, complete graph: every route is one hop.
        let route = view.route(&topo, NodeId::new(1), NodeId::new(5));
        assert_eq!(route, Some(vec![NodeId::new(1), NodeId::new(5)]));
    }

    #[test]
    fn self_route_is_trivial() {
        let topo = builders::line(4);
        let clustering = oracle(&topo, &OracleConfig::default());
        let view = HierarchicalRoutes::new(&topo, clustering);
        assert_eq!(
            view.route(&topo, NodeId::new(2), NodeId::new(2)),
            Some(vec![NodeId::new(2)])
        );
        assert_eq!(view.next_hop(&topo, NodeId::new(2), NodeId::new(2)), None);
    }

    #[test]
    fn cross_component_pairs_are_unroutable() {
        let mut topo = builders::line(6);
        topo.remove_edge(NodeId::new(2), NodeId::new(3));
        let clustering = oracle(&topo, &OracleConfig::default());
        let view = HierarchicalRoutes::new(&topo, clustering);
        assert_eq!(view.route(&topo, NodeId::new(0), NodeId::new(5)), None);
    }

    #[test]
    fn endpoints_outside_the_view_are_unroutable() {
        let topo = builders::line(4);
        let hierarchical = HierarchicalRoutes::new(&topo, oracle(&topo, &OracleConfig::default()));
        let views: [&dyn RoutingView; 2] = [&hierarchical, &FlatRoutes];
        let (inside, outside) = (NodeId::new(0), NodeId::new(4));
        for view in views {
            assert_eq!(view.route(&topo, inside, outside), None);
            assert_eq!(view.route(&topo, outside, inside), None);
            assert_eq!(view.route(&topo, outside, outside), None);
            assert_eq!(view.next_hop(&topo, inside, outside), None);
        }
    }

    #[test]
    fn a_view_queried_against_another_size_of_topology_does_not_panic() {
        let (small, large) = (builders::line(4), builders::line(6));
        let ids = |ids: &[u32]| Some(ids.iter().copied().map(NodeId::new).collect::<Vec<_>>());
        // The topology grew: nodes 4 and 5 are in no cluster, so routes
        // neither end at them nor pass through them — the search from 3
        // sees 4 as a neighbor and leaves it alone.
        let view = HierarchicalRoutes::new(&small, oracle(&small, &OracleConfig::default()));
        assert_eq!(
            view.route(&large, NodeId::new(3), NodeId::new(0)),
            ids(&[3, 2, 1, 0])
        );
        assert_eq!(view.route(&large, NodeId::new(0), NodeId::new(5)), None);
        assert_eq!(view.route(&large, NodeId::new(5), NodeId::new(3)), None);
        // The topology shrank: the view still names nodes 4 and 5 (a
        // head among them, possibly), the searches do not reach them.
        let view = HierarchicalRoutes::new(&large, oracle(&large, &OracleConfig::default()));
        assert_eq!(view.route(&small, NodeId::new(0), NodeId::new(5)), None);
        assert_eq!(view.route(&small, NodeId::new(5), NodeId::new(0)), None);
        if let Some(route) = view.route(&small, NodeId::new(0), NodeId::new(3)) {
            assert!(route.windows(2).all(|w| small.has_edge(w[0], w[1])));
        }
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
