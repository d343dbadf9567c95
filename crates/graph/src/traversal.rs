//! Breadth-first traversal utilities: hop distances, components,
//! eccentricities and diameters.
//!
//! The paper's evaluation metrics are hop-based: the cluster-head
//! eccentricity `e(H(u)/C) = max_{v ∈ C(u)} d(H(u), v)` "in number of
//! hops" and the clusterization tree length. These helpers provide the
//! `d(·,·)` primitive, both over the whole graph and restricted to a
//! node subset (a cluster).

use std::collections::VecDeque;

use crate::{NodeId, Topology};

/// Reusable breadth-first search state: a search clears nothing and
/// costs what it visits.
///
/// A node counts as reached by the *current* search when its stamp
/// equals the scratch's generation, and every search starts by taking
/// the next generation — so the `O(n)` arrays are written only where
/// the search goes, and one scratch serves any number of searches over
/// topologies of any size (it grows to the largest seen). Visit order
/// is the plain FIFO order of [`bfs_path_filtered`] and
/// [`bfs_distances_filtered`], which are thin wrappers over a fresh
/// scratch: same paths, tie-breaks included.
///
/// # Examples
///
/// ```
/// use mwn_graph::{builders, traversal::SearchScratch, NodeId};
///
/// let ring = builders::ring(6);
/// let mut scratch = SearchScratch::new();
/// let mut path = vec![NodeId::new(0)];
/// assert!(scratch.extend_path(&ring, NodeId::new(0), NodeId::new(2), |_| true, &mut path));
/// assert!(scratch.extend_path(&ring, NodeId::new(2), NodeId::new(3), |_| true, &mut path));
/// assert_eq!(path, [0, 1, 2, 3].map(NodeId::new));
/// ```
#[derive(Clone, Debug, Default)]
pub struct SearchScratch {
    /// Stamp of the current search; never 0, the value fresh slots hold.
    generation: u32,
    stamp: Vec<u32>,
    /// Per reached node: its predecessor (path search) or its hop
    /// distance (distance search).
    pred: Vec<u32>,
    /// FIFO of reached nodes. Served through a cursor, never popped, so
    /// after a search it holds the visit order.
    queue: Vec<NodeId>,
}

impl SearchScratch {
    /// An empty scratch; it sizes itself on first use.
    pub fn new() -> Self {
        SearchScratch::default()
    }

    /// Starts a search over `n` nodes from `src`.
    fn begin(&mut self, n: usize, src: NodeId) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.pred.resize(n, 0);
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Wrapped: stamps of 2^32 searches ago would read as fresh.
            self.stamp.fill(0);
            self.generation = 1;
        }
        self.queue.clear();
        self.reach(src, 0);
    }

    fn reach(&mut self, v: NodeId, pred: u32) {
        self.stamp[v.index()] = self.generation;
        self.pred[v.index()] = pred;
        self.queue.push(v);
    }

    fn reached(&self, v: NodeId) -> bool {
        self.stamp[v.index()] == self.generation
    }

    /// Appends to `out` the shortest path from `src` to `dst` through
    /// nodes satisfying `allowed` (`dst` is always allowed), **without
    /// its first node** — so consecutive segments chain in place and
    /// `src == dst` appends nothing. Returns `false`, leaving `out`
    /// untouched, when `dst` is unreachable — an endpoint that is not a
    /// node of `topo` is.
    pub fn extend_path<F>(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        allowed: F,
        out: &mut Vec<NodeId>,
    ) -> bool
    where
        F: Fn(NodeId) -> bool,
    {
        if src.index() >= topo.len() || dst.index() >= topo.len() {
            return false;
        }
        if src == dst {
            return true;
        }
        self.begin(topo.len(), src);
        let mut head = 0;
        'search: while let Some(&u) = self.queue.get(head) {
            head += 1;
            for &v in topo.neighbors(u) {
                if !self.reached(v) && (v == dst || allowed(v)) {
                    self.reach(v, u.value());
                    if v == dst {
                        break 'search;
                    }
                }
            }
        }
        if !self.reached(dst) {
            return false;
        }
        let start = out.len();
        let mut cur = dst;
        while cur != src {
            out.push(cur);
            cur = NodeId::new(self.pred[cur.index()]);
        }
        out[start..].reverse();
        true
    }

    /// Searches the whole subgraph reachable from `src` through nodes
    /// satisfying `allowed` (`src` itself is always explored). Read
    /// the result with [`SearchScratch::distance`] and
    /// [`SearchScratch::visited`] before the next search.
    pub fn distances<F>(&mut self, topo: &Topology, src: NodeId, allowed: F)
    where
        F: Fn(NodeId) -> bool,
    {
        self.begin(topo.len(), src);
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            let next = self.pred[u.index()] + 1;
            for &v in topo.neighbors(u) {
                if !self.reached(v) && allowed(v) {
                    self.reach(v, next);
                }
            }
        }
    }

    /// Hop distance of `v` from the source of the last
    /// [`SearchScratch::distances`] search; `None` when it was not
    /// reached.
    pub fn distance(&self, v: NodeId) -> Option<u32> {
        self.reached(v).then(|| self.pred[v.index()])
    }

    /// The nodes the last search reached, in visit order — for a
    /// distance search that is ascending distance, source first.
    pub fn visited(&self) -> &[NodeId] {
        &self.queue
    }
}

/// Hop distances from `src` to every node; `None` for unreachable nodes.
///
/// # Examples
///
/// ```
/// use mwn_graph::{builders, traversal, NodeId};
///
/// let line = builders::line(4);
/// let d = traversal::bfs_distances(&line, NodeId::new(0));
/// assert_eq!(d[3], Some(3));
/// ```
pub fn bfs_distances(topo: &Topology, src: NodeId) -> Vec<Option<u32>> {
    bfs_distances_filtered(topo, src, |_| true)
}

/// Hop distances from `src` restricted to nodes satisfying `allowed`
/// (paths may only pass through allowed nodes; `src` itself is always
/// explored). Used to measure distances *inside* a cluster's induced
/// subgraph.
pub fn bfs_distances_filtered<F>(topo: &Topology, src: NodeId, allowed: F) -> Vec<Option<u32>>
where
    F: Fn(NodeId) -> bool,
{
    let mut scratch = SearchScratch::new();
    scratch.distances(topo, src, allowed);
    let mut dist = vec![None; topo.len()];
    for &v in scratch.visited() {
        dist[v.index()] = scratch.distance(v);
    }
    dist
}

/// Shortest path from `src` to `dst` through nodes satisfying
/// `allowed` (`src` and `dst` are always allowed), inclusive of both
/// endpoints. `None` when unreachable.
///
/// # Examples
///
/// ```
/// use mwn_graph::{builders, traversal, NodeId};
///
/// let ring = builders::ring(6);
/// let path = traversal::bfs_path_filtered(
///     &ring,
///     NodeId::new(0),
///     NodeId::new(3),
///     |_| true,
/// ).unwrap();
/// assert_eq!(path.len(), 4); // 3 hops either way around
/// ```
pub fn bfs_path_filtered<F>(
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    allowed: F,
) -> Option<Vec<NodeId>>
where
    F: Fn(NodeId) -> bool,
{
    let mut path = vec![src];
    SearchScratch::new()
        .extend_path(topo, src, dst, allowed, &mut path)
        .then_some(path)
}

/// Eccentricity of `src`: the maximum hop distance to any reachable
/// node. Returns 0 for an isolated node.
pub fn eccentricity(topo: &Topology, src: NodeId) -> u32 {
    eccentricity_in(&mut SearchScratch::new(), topo, src)
}

/// [`eccentricity`] on a caller's scratch: the last node a full search
/// visits is a farthest one. The search visits the source first, at
/// distance 0, so the fallback is never taken.
fn eccentricity_in(scratch: &mut SearchScratch, topo: &Topology, src: NodeId) -> u32 {
    scratch.distances(topo, src, |_| true);
    let farthest = scratch.visited().last();
    farthest.and_then(|&v| scratch.distance(v)).unwrap_or(0)
}

/// Connected components; each component is a sorted list of nodes, and
/// components are ordered by their smallest member.
pub fn connected_components(topo: &Topology) -> Vec<Vec<NodeId>> {
    let mut seen = vec![false; topo.len()];
    let mut components = Vec::new();
    for start in topo.nodes() {
        if seen[start.index()] {
            continue;
        }
        let mut component = Vec::new();
        let mut queue = VecDeque::new();
        seen[start.index()] = true;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            component.push(u);
            for &v in topo.neighbors(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    queue.push_back(v);
                }
            }
        }
        component.sort_unstable();
        components.push(component);
    }
    components
}

/// `true` when the graph has at most one connected component.
pub fn is_connected(topo: &Topology) -> bool {
    connected_components(topo).len() <= 1
}

/// The diameter of the graph in hops: the largest finite pairwise
/// distance. Returns `None` for an empty graph and ignores pairs in
/// different components (i.e. the diameter of the largest eccentricity
/// over each component).
///
/// Cost is `O(n · m)` — one BFS per node — which is fine at the paper's
/// scales (≈1000 nodes).
pub fn diameter(topo: &Topology) -> Option<u32> {
    if topo.is_empty() {
        return None;
    }
    let mut scratch = SearchScratch::new();
    Some(
        topo.nodes()
            .map(|p| eccentricity_in(&mut scratch, topo, p))
            .max()
            .unwrap_or(0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::VecDeque;

    /// The allocating distance search the scratch replaced, kept as
    /// the reference the scratch is compared against.
    fn reference_distances<F>(topo: &Topology, src: NodeId, allowed: F) -> Vec<Option<u32>>
    where
        F: Fn(NodeId) -> bool,
    {
        let mut dist = vec![None; topo.len()];
        dist[src.index()] = Some(0);
        let mut queue = VecDeque::new();
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()].expect("queued nodes have distances");
            for &v in topo.neighbors(u) {
                if dist[v.index()].is_none() && allowed(v) {
                    dist[v.index()] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// The allocating path search the scratch replaced, likewise.
    fn reference_path<F>(
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        allowed: F,
    ) -> Option<Vec<NodeId>>
    where
        F: Fn(NodeId) -> bool,
    {
        if src == dst {
            return Some(vec![src]);
        }
        let mut pred: Vec<Option<NodeId>> = vec![None; topo.len()];
        let mut seen = vec![false; topo.len()];
        seen[src.index()] = true;
        let mut queue = VecDeque::new();
        queue.push_back(src);
        'search: while let Some(u) = queue.pop_front() {
            for &v in topo.neighbors(u) {
                if !seen[v.index()] && (v == dst || allowed(v)) {
                    seen[v.index()] = true;
                    pred[v.index()] = Some(u);
                    if v == dst {
                        break 'search;
                    }
                    queue.push_back(v);
                }
            }
        }
        if !seen[dst.index()] {
            return None;
        }
        let mut path = vec![dst];
        let mut cur = dst;
        while let Some(p) = pred[cur.index()] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        Some(path)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Many searches on one scratch — path and distance searches
        /// interleaved, over two graphs of different sizes, across a
        /// generation wrap-around — answer exactly what the
        /// allocating reference answers: same path element for
        /// element, `None` ⇔ `None`, same distances.
        #[test]
        fn scratch_searches_match_the_allocating_reference(
            n in 2usize..60,
            r in 10u32..45,
            blocked in 0u32..60,
            seed in 0u64..1_000_000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let big = builders::uniform(n, f64::from(r) / 100.0, &mut rng);
            let small = builders::uniform(n.div_ceil(2), f64::from(r) / 100.0, &mut rng);
            let mut scratch = SearchScratch::new();
            for round in 0..40 {
                if round == 20 {
                    // Jump to the brink: the next searches wrap onto the
                    // generations whose stamps the first twenty rounds left.
                    scratch.generation = u32::MAX - 2;
                }
                let topo = if round % 3 == 2 { &small } else { &big };
                let mask: Vec<bool> = (0..topo.len())
                    .map(|_| !rng.random_bool(f64::from(blocked) / 100.0))
                    .collect();
                let allowed = |v: NodeId| mask[v.index()];
                let src = NodeId::new(rng.random_range(0..topo.len() as u32));
                let dst = NodeId::new(rng.random_range(0..topo.len() as u32));

                let mut path = vec![src];
                let found = scratch.extend_path(topo, src, dst, allowed, &mut path);
                let expected = reference_path(topo, src, dst, allowed);
                prop_assert_eq!(found.then_some(path), expected.clone());
                prop_assert_eq!(bfs_path_filtered(topo, src, dst, allowed), expected);

                scratch.distances(topo, src, allowed);
                let expected = reference_distances(topo, src, allowed);
                for v in topo.nodes() {
                    prop_assert_eq!(scratch.distance(v), expected[v.index()]);
                }
                prop_assert_eq!(
                    scratch.visited().len(),
                    expected.iter().flatten().count()
                );
                prop_assert_eq!(bfs_distances_filtered(topo, src, allowed), expected);
            }
            prop_assert!(scratch.generation < 100, "the wrap-around was crossed");
        }
    }

    #[test]
    fn an_unreachable_target_leaves_the_output_untouched() {
        let topo = Topology::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let mut scratch = SearchScratch::new();
        let mut out = vec![NodeId::new(0)];
        assert!(!scratch.extend_path(&topo, NodeId::new(0), NodeId::new(3), |_| true, &mut out));
        assert_eq!(out, vec![NodeId::new(0)]);
        assert!(scratch.extend_path(&topo, NodeId::new(0), NodeId::new(1), |_| true, &mut out));
        assert_eq!(out, vec![NodeId::new(0), NodeId::new(1)]);
    }

    #[test]
    fn distances_on_a_line() {
        let topo = builders::line(5);
        let d = bfs_distances(&topo, NodeId::new(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn unreachable_nodes_have_no_distance() {
        let topo = Topology::from_edges(3, &[(0, 1)]).unwrap();
        let d = bfs_distances(&topo, NodeId::new(0));
        assert_eq!(d[2], None);
    }

    #[test]
    fn filtered_bfs_respects_the_filter() {
        // 0 - 1 - 2 and 0 - 3 - 2: blocking node 1 forces the long way.
        let topo = Topology::from_edges(4, &[(0, 1), (1, 2), (0, 3), (3, 2)]).unwrap();
        let d = bfs_distances_filtered(&topo, NodeId::new(0), |v| v != NodeId::new(1));
        assert_eq!(d[2], Some(2));
        assert_eq!(d[1], None);
    }

    #[test]
    fn eccentricity_of_ring() {
        let topo = builders::ring(6);
        for p in topo.nodes() {
            assert_eq!(eccentricity(&topo, p), 3);
        }
    }

    #[test]
    fn components_are_found() {
        let topo = Topology::from_edges(5, &[(0, 1), (2, 3)]).unwrap();
        let comps = connected_components(&topo);
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0], vec![NodeId::new(0), NodeId::new(1)]);
        assert_eq!(comps[1], vec![NodeId::new(2), NodeId::new(3)]);
        assert_eq!(comps[2], vec![NodeId::new(4)]);
        assert!(!is_connected(&topo));
        assert!(is_connected(&builders::line(4)));
    }

    #[test]
    fn diameter_of_shapes() {
        assert_eq!(diameter(&builders::line(5)), Some(4));
        assert_eq!(diameter(&builders::ring(8)), Some(4));
        assert_eq!(diameter(&builders::complete(5)), Some(1));
        assert_eq!(diameter(&Topology::empty(0)), None);
        assert_eq!(diameter(&Topology::empty(3)), Some(0));
    }
}
