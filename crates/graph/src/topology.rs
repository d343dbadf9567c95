use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::{GraphError, NodeId, Point2};

/// The edge churn produced by one incremental topology mutation
/// ([`Topology::apply_moves`]): which links appeared, which vanished,
/// and which nodes moved.
///
/// Each undirected edge is reported exactly once as `(u, v)` with
/// `u < v`. Activity-driven simulation drivers consume deltas to wake
/// only the nodes a mobility step actually touched, instead of
/// rescheduling the whole network.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TopologyDelta {
    /// Links that came into radio range, each as `(u, v)` with `u < v`.
    pub added: Vec<(NodeId, NodeId)>,
    /// Links that left radio range, each as `(u, v)` with `u < v`.
    pub removed: Vec<(NodeId, NodeId)>,
    /// Nodes whose position changed (whether or not any link changed).
    pub moved: Vec<NodeId>,
}

impl TopologyDelta {
    /// `true` when no link changed (positions may still have moved).
    pub fn is_quiet(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Every node incident to an added or removed link, sorted and
    /// deduplicated — the set a scheduler must mark dirty.
    pub fn touched(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .added
            .iter()
            .chain(&self.removed)
            .flat_map(|&(u, v)| [u, v])
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Empties the delta while keeping its buffers.
    pub fn clear(&mut self) {
        self.added.clear();
        self.removed.clear();
        self.moved.clear();
    }
}

/// How far from the origin, in cells, a position may lie: far enough
/// that no deployment meets it, near enough that a cell and its 3×3
/// block are exact `i64`s.
const CELL_LIMIT: f64 = (1u64 << 62) as f64;

/// Spatial hash over node positions with cells of side `cell` (the
/// radio range): the 1-neighbors of any point live in the 3×3 block of
/// cells around it. Kept alongside the adjacency lists so moving a few
/// nodes re-bins only those nodes instead of rebuilding the hash. It is
/// built on the first [`Topology::apply_moves`], never by
/// [`Topology::unit_disk`]: a run that never moves a node never pays
/// for it.
#[derive(Clone, Debug)]
struct SpatialGrid {
    cell: f64,
    buckets: HashMap<(i64, i64), Vec<u32>>,
}

impl SpatialGrid {
    /// The cell of `p`: `floor(coordinate / cell)` on each axis. Both
    /// unit-disk paths bin with this function and nothing else.
    fn cell_of(cell: f64, p: Point2) -> (i64, i64) {
        ((p.x / cell).floor() as i64, (p.y / cell).floor() as i64)
    }

    /// The precondition of every unit-disk path: `p` has a cell, and
    /// its 3×3 block is representable. False for an infinite or NaN
    /// coordinate ([`GraphError::InvalidPosition`]).
    fn fits(cell: f64, p: Point2) -> bool {
        (p.x / cell).abs() < CELL_LIMIT && (p.y / cell).abs() < CELL_LIMIT
    }

    fn build(positions: &[Point2], cell: f64) -> Self {
        let mut buckets: HashMap<(i64, i64), Vec<u32>> = HashMap::new();
        for (i, &p) in positions.iter().enumerate() {
            buckets
                .entry(Self::cell_of(cell, p))
                .or_default()
                .push(i as u32);
        }
        SpatialGrid { cell, buckets }
    }

    /// Re-bins node `i` from position `from` to position `to`.
    fn relocate(&mut self, i: u32, from: Point2, to: Point2) {
        let old_cell = Self::cell_of(self.cell, from);
        let new_cell = Self::cell_of(self.cell, to);
        if old_cell == new_cell {
            return;
        }
        if let Some(bucket) = self.buckets.get_mut(&old_cell) {
            if let Some(pos) = bucket.iter().position(|&x| x == i) {
                bucket.swap_remove(pos);
                if bucket.is_empty() {
                    self.buckets.remove(&old_cell);
                }
            }
        }
        self.buckets.entry(new_cell).or_default().push(i);
    }

    /// Replaces `out` with every other node within one cell side (the
    /// radio range) of `node`, sorted.
    fn neighbors_into(&self, positions: &[Point2], node: NodeId, out: &mut Vec<NodeId>) {
        let (p, skip) = (positions[node.index()], node.value());
        let (cx, cy) = Self::cell_of(self.cell, p);
        let r2 = self.cell * self.cell;
        out.clear();
        for dx in -1..=1 {
            for dy in -1..=1 {
                let Some(bucket) = self.buckets.get(&(cx + dx, cy + dy)) else {
                    continue;
                };
                for &j in bucket {
                    if j != skip && p.distance_squared(positions[j as usize]) <= r2 {
                        out.push(NodeId::new(j));
                    }
                }
            }
        }
        out.sort_unstable();
    }
}

/// The unit-disk rows over `positions`: row `i` holds, sorted, every
/// `j ≠ i` whose cell is in the 3×3 block around `i`'s and whose
/// `distance_squared` to `i` is at most `radius²`.
///
/// One sort of the `(cell, id)` keys makes every cell a contiguous run,
/// the runs in (column, row) order. For cell `(cx, cy)`, the candidates
/// in column `cx + d` are the runs from `(cx + d, cy − 1)` through
/// `(cx + d, cy + 1)`: one contiguous range, whose two ends only move
/// forward as the cells are walked in order. So three pairs of cursors,
/// one pair per column, find every block in one pass over the runs.
/// Each node's row is gathered into one scratch buffer and sorted there;
/// then every row is allocated once, at its exact length, in id order.
fn unit_disk_rows(positions: &[Point2], radius: f64) -> Vec<Vec<NodeId>> {
    let mut keyed: Vec<((i64, i64), u32)> = positions
        .iter()
        .enumerate()
        .map(|(i, &p)| (SpatialGrid::cell_of(radius, p), i as u32))
        .collect();
    keyed.sort_unstable();
    // Each distinct cell once, with the index its run starts at.
    let mut cells: Vec<(i64, i64)> = Vec::new();
    let mut starts: Vec<usize> = Vec::new();
    for (k, &(cell, _)) in keyed.iter().enumerate() {
        if cells.last() != Some(&cell) {
            cells.push(cell);
            starts.push(k);
        }
    }
    starts.push(keyed.len());
    let ids: Vec<u32> = keyed.into_iter().map(|(_, i)| i).collect();
    let points: Vec<Point2> = ids.iter().map(|&i| positions[i as usize]).collect();

    let r2 = radius * radius;
    let (mut lo, mut hi) = ([0usize; 3], [0usize; 3]);
    let mut scratch: Vec<NodeId> = Vec::new();
    let mut spans = vec![(0, 0); ids.len()];
    for (c, &(cx, cy)) in cells.iter().enumerate() {
        let mut block = [0..0, 0..0, 0..0];
        for (d, dx) in [-1, 0, 1].into_iter().enumerate() {
            // Checked and saturating: only a position that breaks
            // `SpatialGrid::fits` reaches the ends of `i64`.
            let Some(column) = cx.checked_add(dx) else {
                continue;
            };
            let first = (column, cy.saturating_sub(1));
            let last = (column, cy.saturating_add(1));
            while lo[d] < cells.len() && cells[lo[d]] < first {
                lo[d] += 1;
            }
            while hi[d] < cells.len() && cells[hi[d]] <= last {
                hi[d] += 1;
            }
            block[d] = starts[lo[d]]..starts[hi[d]];
        }
        for k in starts[c]..starts[c + 1] {
            let (i, p) = (ids[k], points[k]);
            let start = scratch.len();
            for range in &block {
                for (&q, &j) in points[range.clone()].iter().zip(&ids[range.clone()]) {
                    if j != i && p.distance_squared(q) <= r2 {
                        scratch.push(NodeId::new(j));
                    }
                }
            }
            scratch[start..].sort_unstable();
            spans[i as usize] = (start, scratch.len());
        }
    }
    spans
        .into_iter()
        .map(|(start, end)| scratch[start..end].to_vec())
        .collect()
}

/// Puts `v` into the sorted row `row`; `false` if it was already there.
fn insert_sorted(row: &mut Vec<NodeId>, v: NodeId) -> bool {
    match row.binary_search(&v) {
        Ok(_) => false,
        Err(pos) => {
            row.insert(pos, v);
            true
        }
    }
}

/// Takes `v` out of the sorted row `row`; `false` if it was not there.
fn remove_sorted(row: &mut Vec<NodeId>, v: NodeId) -> bool {
    match row.binary_search(&v) {
        Ok(pos) => {
            row.remove(pos);
            true
        }
        Err(_) => false,
    }
}

/// An undirected network graph with optional node positions.
///
/// This is the paper's system model (Section 3): a set `V` of nodes,
/// each node `p` with a neighborhood `N_p ⊆ V` determined by radio
/// range, bidirectional links (`q ∈ N_p ⇔ p ∈ N_q`) and no self-loops
/// (`p ∉ N_p`). Adjacency lists are kept sorted so membership tests are
/// logarithmic and iteration order is deterministic.
///
/// # Examples
///
/// ```
/// use mwn_graph::{NodeId, Topology};
///
/// let topo = Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3)])?;
/// assert_eq!(topo.degree(NodeId::new(1)), 2);
/// assert!(topo.has_edge(NodeId::new(2), NodeId::new(1)));
/// assert_eq!(topo.edge_count(), 3);
/// # Ok::<(), mwn_graph::GraphError>(())
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Topology {
    adj: Vec<Vec<NodeId>>,
    positions: Option<Vec<Point2>>,
    radius: Option<f64>,
    /// Cached spatial hash for incremental unit-disk maintenance. Built
    /// by the first `apply_moves` after `unit_disk` or `positions_mut`;
    /// never part of equality or serialization.
    grid: Option<SpatialGrid>,
}

impl PartialEq for Topology {
    fn eq(&self, other: &Self) -> bool {
        // The grid is derived state: two topologies are equal iff their
        // graphs (and geometry) are.
        self.adj == other.adj && self.positions == other.positions && self.radius == other.radius
    }
}

impl Topology {
    /// Creates a topology with `n` nodes and no edges.
    pub fn empty(n: usize) -> Self {
        Topology {
            adj: vec![Vec::new(); n],
            positions: None,
            radius: None,
            grid: None,
        }
    }

    /// Creates a topology from an explicit undirected edge list.
    ///
    /// Duplicate edges are collapsed. The resulting topology has no
    /// positions; attach them later with [`Topology::with_positions`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] if an endpoint is `>= n`
    /// and [`GraphError::SelfLoop`] for an edge `(u, u)`.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Result<Self, GraphError> {
        let mut topo = Topology::empty(n);
        for &(u, v) in edges {
            topo.add_edge(NodeId::new(u), NodeId::new(v))?;
        }
        Ok(topo)
    }

    /// [`Topology::from_edges`] for an edge list valid by construction
    /// — every endpoint below `n`, no self-loop — as the deterministic
    /// builders make them. Debug builds assert both invariants.
    pub(crate) fn from_valid_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        let mut topo = Topology::empty(n);
        for &(u, v) in edges {
            debug_assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u}, {v}) leaves the {n} nodes"
            );
            debug_assert!(u != v, "self-loop at {u}");
            if insert_sorted(&mut topo.adj[u as usize], NodeId::new(v)) {
                insert_sorted(&mut topo.adj[v as usize], NodeId::new(u));
            }
        }
        topo
    }

    /// Creates the unit-disk graph over `positions`: nodes `p` and `q`
    /// are linked iff their Euclidean distance is at most `radius`.
    ///
    /// This is how the paper deploys its simulation topologies: points
    /// in the unit square with transmission ranges `R ∈ [0.05, 0.1]`.
    ///
    /// The build costs one sort of the nodes by cell; see
    /// [`Topology::rebuild_unit_disk_edges`]. The spatial hash that
    /// [`Topology::apply_moves`] maintains is built on the first move.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidRadius`] if `radius` is not finite
    /// and positive, and [`GraphError::InvalidPosition`] for the first
    /// node with an infinite or NaN coordinate (or one more than 2⁶²
    /// radio ranges from the origin).
    pub fn unit_disk(positions: Vec<Point2>, radius: f64) -> Result<Self, GraphError> {
        if !radius.is_finite() || radius <= 0.0 {
            return Err(GraphError::InvalidRadius { radius });
        }
        if let Some(i) = positions
            .iter()
            .position(|&p| !SpatialGrid::fits(radius, p))
        {
            return Err(GraphError::InvalidPosition {
                node: NodeId::new(i as u32),
            });
        }
        Ok(Topology {
            adj: unit_disk_rows(&positions, radius),
            positions: Some(positions),
            radius: Some(radius),
            grid: None,
        })
    }

    /// Attaches positions to an edge-list topology (e.g. for rendering).
    ///
    /// # Panics
    ///
    /// Panics if `positions.len()` differs from the node count.
    pub fn with_positions(mut self, positions: Vec<Point2>) -> Self {
        assert_eq!(
            positions.len(),
            self.adj.len(),
            "positions must cover every node"
        );
        self.positions = Some(positions);
        self.grid = None;
        self
    }

    /// Recomputes all unit-disk edges from the current positions.
    ///
    /// Used by the mobility substrate after moving nodes, and by
    /// [`Topology::unit_disk`].
    ///
    /// # Cost
    ///
    /// Cells of side `radius`, so the neighbours of a point live in the
    /// 3×3 block of cells around it. One sort of the n `(cell, id)`
    /// keys, one pass over the cells to find each block, one distance
    /// test per (node, candidate) pair into a scratch buffer, and one
    /// exact-size allocation per row, in id order: O(n log n) plus the
    /// candidate pairs, with no hash and no per-edge pushes into
    /// growing rows. The spatial hash of [`Topology::apply_moves`] is
    /// left as it is: it is built on the first move, and a rebuild
    /// moves nothing.
    ///
    /// # Exactness
    ///
    /// `q ∈ N_p` iff `q`'s cell (`floor(coordinate / radius)`) is in the
    /// 3×3 block around `p`'s and `p.distance_squared(q) <= radius²`.
    /// The sorted pass tests each pair from both ends, once for each
    /// row, and both ends compute the same bits because IEEE
    /// subtraction gives `a − b = −(b − a)` exactly; so the rows are
    /// symmetric, and equal to a spatial-hash builder's over the same
    /// predicate, points on cell boundaries and at exactly `radius`
    /// included (property-tested in `tests/properties.rs`).
    ///
    /// # Panics
    ///
    /// In debug builds, if the topology has no positions or no radius
    /// (it was not built by [`Topology::unit_disk`]): there is no
    /// unit-disk geometry to rebuild from. Release builds then leave the
    /// edges as they are.
    pub fn rebuild_unit_disk_edges(&mut self) {
        let (Some(radius), Some(positions)) = (self.radius, self.positions.as_deref()) else {
            debug_assert!(
                false,
                "only a unit-disk topology (positions and a radius) has edges to rebuild"
            );
            return;
        };
        debug_assert!(
            positions.iter().all(|&p| SpatialGrid::fits(radius, p)),
            "unit-disk positions must be finite and within 2^62 radio ranges of the origin \
             (GraphError::InvalidPosition)"
        );
        self.adj = unit_disk_rows(positions, radius);
    }

    /// Moves the given nodes and incrementally updates the unit-disk
    /// edge set, re-binning only the moved nodes in the cached spatial
    /// hash. Returns the exact edge churn as a [`TopologyDelta`]. The
    /// first call after [`Topology::unit_disk`] or
    /// [`Topology::positions_mut`] builds the hash, in O(n).
    ///
    /// Only links incident to a moved node can change, so the cost is
    /// proportional to the moved set (and its local density) instead of
    /// the whole network — `rebuild_unit_disk_edges` stays O(n) and is
    /// only needed after wholesale position rewrites.
    ///
    /// The result is always identical to calling
    /// [`Topology::rebuild_unit_disk_edges`] after the same moves
    /// (property-tested in `tests/properties.rs`).
    ///
    /// # Panics
    ///
    /// Panics if a moved node is out of range. In debug builds, also if
    /// the topology has no positions or no radius (it was not built by
    /// [`Topology::unit_disk`]): a move has no link to change there.
    /// Release builds then move nothing and return an empty delta.
    pub fn apply_moves(&mut self, moves: &[(NodeId, Point2)]) -> TopologyDelta {
        let Topology {
            adj,
            positions,
            radius,
            grid,
        } = self;
        let (Some(radius), Some(positions)) = (*radius, positions.as_mut()) else {
            debug_assert!(
                false,
                "only a unit-disk topology (positions and a radius) can move its nodes"
            );
            return TopologyDelta::default();
        };
        debug_assert!(
            moves.iter().all(|&(_, to)| SpatialGrid::fits(radius, to)),
            "moved positions must be finite and within 2^62 radio ranges of the origin \
             (GraphError::InvalidPosition)"
        );
        let mut delta = TopologyDelta::default();
        if moves.is_empty() {
            return delta;
        }
        // No hash since `unit_disk` or a wholesale rewrite
        // (`positions_mut`): pay O(n) once, then go incremental.
        let grid = grid.get_or_insert_with(|| SpatialGrid::build(positions, radius));
        // Phase 1: re-bin every moved node, so neighborhood queries in
        // phase 2 see the final geometry no matter the move order.
        for &(p, to) in moves {
            let from = positions[p.index()];
            if from == to {
                continue;
            }
            grid.relocate(p.value(), from, to);
            positions[p.index()] = to;
            delta.moved.push(p);
        }
        // Phase 2: recompute each moved node's neighborhood, diff it
        // against its row and fix the other endpoint of every link that
        // changed. Links between two unmoved nodes cannot have changed;
        // when both endpoints moved, the first one processed fixes the
        // link and the second finds it already in its row, so each
        // change is reported once.
        let mut want = Vec::new();
        for &p in &delta.moved {
            grid.neighbors_into(positions, p, &mut want);
            let mut row = std::mem::take(&mut adj[p.index()]);
            for &q in &row {
                if want.binary_search(&q).is_err() {
                    let linked = remove_sorted(&mut adj[q.index()], p);
                    debug_assert!(linked, "adjacency lists must stay symmetric");
                    delta.removed.push((p.min(q), p.max(q)));
                }
            }
            for &q in &want {
                if row.binary_search(&q).is_err() {
                    let fresh = insert_sorted(&mut adj[q.index()], p);
                    debug_assert!(fresh, "adjacency lists must stay symmetric");
                    delta.added.push((p.min(q), p.max(q)));
                }
            }
            row.clone_from(&want);
            adj[p.index()] = row;
        }
        delta.added.sort_unstable();
        delta.removed.sort_unstable();
        delta
    }

    /// Adds the undirected edge `(u, v)`; a no-op if already present.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfRange`] or [`GraphError::SelfLoop`].
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<(), GraphError> {
        let n = self.adj.len();
        for node in [u, v] {
            if node.index() >= n {
                return Err(GraphError::NodeOutOfRange { node, len: n });
            }
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        if insert_sorted(&mut self.adj[u.index()], v) {
            let fresh = insert_sorted(&mut self.adj[v.index()], u);
            debug_assert!(fresh, "adjacency lists must stay symmetric");
        }
        Ok(())
    }

    /// Removes the undirected edge `(u, v)`; a no-op if absent.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) {
        if u.index() >= self.adj.len() || v.index() >= self.adj.len() {
            return;
        }
        if remove_sorted(&mut self.adj[u.index()], v) {
            remove_sorted(&mut self.adj[v.index()], u);
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// `true` when the topology has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Iterator over all node identifiers, in increasing order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.adj.len() as u32).map(NodeId::new)
    }

    /// The 1-neighborhood `N_p`, sorted by identifier. `p ∉ N_p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[inline]
    pub fn neighbors(&self, p: NodeId) -> &[NodeId] {
        &self.adj[p.index()]
    }

    /// The degree `|N_p|`.
    #[inline]
    pub fn degree(&self, p: NodeId) -> usize {
        self.adj[p.index()].len()
    }

    /// The maximum degree `δ` over all nodes (0 for an empty graph).
    ///
    /// The paper assumes a known constant `δ` bounding every `|N_p|`;
    /// the DAG name space γ is sized from it (|γ| = δ or δ²).
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Mean degree over all nodes (0 for an empty graph).
    pub fn mean_degree(&self) -> f64 {
        if self.adj.is_empty() {
            return 0.0;
        }
        let total: usize = self.adj.iter().map(Vec::len).sum();
        total as f64 / self.adj.len() as f64
    }

    /// `true` iff `u` and `v` are linked.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.adj[u.index()].binary_search(&v).is_ok()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Iterator over undirected edges, each reported once as `(u, v)`
    /// with `u < v`.
    pub fn edges(&self) -> Edges<'_> {
        Edges {
            topo: self,
            node: 0,
            pos: 0,
        }
    }

    /// The i-neighborhood `N^i_p` of Section 3: all nodes reachable from
    /// `p` in at most `i` hops, excluding `p` itself. Sorted by id.
    ///
    /// # Examples
    ///
    /// ```
    /// use mwn_graph::{NodeId, Topology};
    ///
    /// let line = Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3)])?;
    /// let n2 = line.k_neighborhood(NodeId::new(0), 2);
    /// assert_eq!(n2, vec![NodeId::new(1), NodeId::new(2)]);
    /// # Ok::<(), mwn_graph::GraphError>(())
    /// ```
    pub fn k_neighborhood(&self, p: NodeId, k: usize) -> Vec<NodeId> {
        let mut seen = vec![false; self.adj.len()];
        seen[p.index()] = true;
        let mut frontier = vec![p];
        let mut out = Vec::new();
        for _ in 0..k {
            let mut next = Vec::new();
            for &u in &frontier {
                for &v in self.neighbors(u) {
                    if !seen[v.index()] {
                        seen[v.index()] = true;
                        out.push(v);
                        next.push(v);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        out.sort_unstable();
        out
    }

    /// The 2-neighborhood `N²_p`, used by the fusion rule of
    /// Section 4.3. Equivalent to `k_neighborhood(p, 2)`.
    pub fn two_hop_neighborhood(&self, p: NodeId) -> Vec<NodeId> {
        self.k_neighborhood(p, 2)
    }

    /// Counts the links of Definition 1: edges `(v, w)` with `v ∈ N_p`
    /// and `w ∈ {p} ∪ N_p`, each undirected edge counted once. This is
    /// `deg(p)` plus the number of edges among `p`'s neighbors.
    pub fn neighborhood_links(&self, p: NodeId) -> usize {
        let nbrs = self.neighbors(p);
        let mut count = nbrs.len();
        for (i, &u) in nbrs.iter().enumerate() {
            for &v in &nbrs[i + 1..] {
                if self.has_edge(u, v) {
                    count += 1;
                }
            }
        }
        count
    }

    /// Position of node `p`, if the topology carries positions.
    pub fn position(&self, p: NodeId) -> Option<Point2> {
        self.positions.as_ref().map(|ps| ps[p.index()])
    }

    /// All node positions, if present.
    pub fn positions(&self) -> Option<&[Point2]> {
        self.positions.as_deref()
    }

    /// Mutable access to node positions (used by mobility models).
    /// Call [`Topology::rebuild_unit_disk_edges`] afterwards; prefer
    /// [`Topology::apply_moves`], which re-bins only the moved nodes.
    pub fn positions_mut(&mut self) -> Option<&mut [Point2]> {
        // Arbitrary rewrites invalidate the cached spatial hash.
        self.grid = None;
        self.positions.as_deref_mut()
    }

    /// The radio range, if the topology is a unit-disk graph.
    pub fn radius(&self) -> Option<f64> {
        self.radius
    }
}

/// Iterator over the undirected edges of a [`Topology`], created by
/// [`Topology::edges`]. Each edge appears once as `(u, v)` with `u < v`.
#[derive(Debug)]
pub struct Edges<'a> {
    topo: &'a Topology,
    node: u32,
    pos: usize,
}

impl Iterator for Edges<'_> {
    type Item = (NodeId, NodeId);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if (self.node as usize) >= self.topo.adj.len() {
                return None;
            }
            let u = NodeId::new(self.node);
            let list = &self.topo.adj[u.index()];
            while self.pos < list.len() {
                let v = list[self.pos];
                self.pos += 1;
                if u < v {
                    return Some((u, v));
                }
            }
            self.node += 1;
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize) -> Topology {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        Topology::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn from_edges_builds_symmetric_adjacency() {
        let topo = Topology::from_edges(3, &[(0, 1), (1, 2), (1, 0)]).unwrap();
        assert_eq!(topo.neighbors(NodeId::new(0)), &[NodeId::new(1)]);
        assert_eq!(
            topo.neighbors(NodeId::new(1)),
            &[NodeId::new(0), NodeId::new(2)]
        );
        assert_eq!(topo.edge_count(), 2);
    }

    #[test]
    fn self_loop_is_rejected() {
        assert_eq!(
            Topology::from_edges(2, &[(1, 1)]),
            Err(GraphError::SelfLoop {
                node: NodeId::new(1)
            })
        );
    }

    #[test]
    fn out_of_range_is_rejected() {
        assert!(matches!(
            Topology::from_edges(2, &[(0, 2)]),
            Err(GraphError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn unit_disk_links_by_distance() {
        let positions = vec![
            Point2::new(0.0, 0.0),
            Point2::new(0.05, 0.0),
            Point2::new(0.2, 0.0),
        ];
        let topo = Topology::unit_disk(positions, 0.06).unwrap();
        assert!(topo.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(!topo.has_edge(NodeId::new(0), NodeId::new(2)));
        assert!(!topo.has_edge(NodeId::new(1), NodeId::new(2)));
        assert_eq!(topo.radius(), Some(0.06));
    }

    #[test]
    fn unit_disk_rejects_bad_radius() {
        assert!(matches!(
            Topology::unit_disk(vec![], 0.0),
            Err(GraphError::InvalidRadius { .. })
        ));
        assert!(matches!(
            Topology::unit_disk(vec![], f64::NAN),
            Err(GraphError::InvalidRadius { .. })
        ));
    }

    /// Three good points and one bad one at index 2.
    fn with_bad_third(bad: Point2) -> Result<Topology, GraphError> {
        let positions = vec![
            Point2::new(0.1, 0.1),
            Point2::new(0.15, 0.1),
            bad,
            Point2::new(0.2, 0.1),
        ];
        Topology::unit_disk(positions, 0.1)
    }

    const BAD_THIRD: Result<Topology, GraphError> = Err(GraphError::InvalidPosition {
        node: NodeId::new(2),
    });

    #[test]
    fn unit_disk_rejects_an_infinite_coordinate() {
        assert_eq!(with_bad_third(Point2::new(f64::INFINITY, 0.5)), BAD_THIRD);
    }

    #[test]
    fn unit_disk_rejects_a_negative_infinite_coordinate() {
        assert_eq!(
            with_bad_third(Point2::new(0.5, f64::NEG_INFINITY)),
            BAD_THIRD
        );
    }

    #[test]
    fn unit_disk_rejects_a_nan_coordinate() {
        assert_eq!(with_bad_third(Point2::new(f64::NAN, 0.5)), BAD_THIRD);
        assert_eq!(with_bad_third(Point2::new(0.5, f64::NAN)), BAD_THIRD);
    }

    #[test]
    fn unit_disk_rejects_a_cell_beyond_the_grid() {
        // Finite, but 1e300 / 0.1 has no `i64` cell.
        assert_eq!(with_bad_third(Point2::new(1e300, 0.5)), BAD_THIRD);
        // Far outside the unit square but well inside the grid: fine.
        let topo = with_bad_third(Point2::new(-1e6, 1e6)).unwrap();
        assert!(topo.neighbors(NodeId::new(2)).is_empty());
        assert_eq!(topo.edge_count(), 3);
    }

    #[test]
    fn unit_disk_builds_no_hash_until_the_first_move() {
        let positions = vec![Point2::new(0.1, 0.1), Point2::new(0.15, 0.1)];
        let mut topo = Topology::unit_disk(positions, 0.1).unwrap();
        assert!(topo.grid.is_none());
        topo.rebuild_unit_disk_edges();
        assert!(topo.grid.is_none());
        topo.apply_moves(&[]);
        assert!(topo.grid.is_none());
        topo.apply_moves(&[(NodeId::new(1), Point2::new(0.9, 0.9))]);
        assert!(topo.grid.is_some());
        assert_eq!(topo.edge_count(), 0);
        // A rebuild moves nothing, so it keeps the hash.
        topo.rebuild_unit_disk_edges();
        assert!(topo.grid.is_some());
    }

    #[test]
    fn unit_disk_rows_are_allocated_at_their_exact_length() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let topo = crate::builders::uniform(500, 0.1, &mut rng);
        for row in &topo.adj {
            assert_eq!(row.capacity(), row.len());
        }
    }

    #[test]
    fn remove_edge_is_symmetric() {
        let mut topo = Topology::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        topo.remove_edge(NodeId::new(1), NodeId::new(0));
        assert!(!topo.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(topo.neighbors(NodeId::new(0)).is_empty());
        assert_eq!(topo.edge_count(), 1);
        // removing a missing edge is a no-op
        topo.remove_edge(NodeId::new(0), NodeId::new(2));
        assert_eq!(topo.edge_count(), 1);
    }

    #[test]
    fn k_neighborhood_grows_monotonically() {
        let topo = line(6);
        let p = NodeId::new(0);
        let mut prev = 0;
        for k in 1..=6 {
            let nk = topo.k_neighborhood(p, k).len();
            assert!(nk >= prev);
            prev = nk;
        }
        assert_eq!(topo.k_neighborhood(p, 5).len(), 5);
        assert_eq!(topo.k_neighborhood(p, 50).len(), 5);
    }

    #[test]
    fn neighborhood_links_counts_definition_one() {
        // Triangle plus a pendant: for the pendant node p, N_p = {0},
        // links = just the edge (p, 0).
        let topo = Topology::from_edges(4, &[(0, 1), (1, 2), (0, 2), (0, 3)]).unwrap();
        assert_eq!(topo.neighborhood_links(NodeId::new(3)), 1);
        // For node 0: N_0 = {1, 2, 3}; edges to them = 3, plus (1,2) = 4.
        assert_eq!(topo.neighborhood_links(NodeId::new(0)), 4);
        // For node 1: N_1 = {0, 2}; edges to them = 2, plus (0,2) = 3.
        assert_eq!(topo.neighborhood_links(NodeId::new(1)), 3);
    }

    #[test]
    fn edges_iterator_reports_each_edge_once() {
        let topo = Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 3)]).unwrap();
        let edges: Vec<_> = topo.edges().collect();
        assert_eq!(edges.len(), 4);
        for (u, v) in edges {
            assert!(u < v);
            assert!(topo.has_edge(u, v));
        }
    }

    #[test]
    fn rebuild_after_moving_positions() {
        let positions = vec![Point2::new(0.0, 0.0), Point2::new(1.0, 0.0)];
        let mut topo = Topology::unit_disk(positions, 0.1).unwrap();
        assert_eq!(topo.edge_count(), 0);
        topo.positions_mut().unwrap()[1] = Point2::new(0.05, 0.0);
        topo.rebuild_unit_disk_edges();
        assert_eq!(topo.edge_count(), 1);
    }

    #[test]
    fn apply_moves_matches_full_rebuild() {
        let positions = vec![
            Point2::new(0.1, 0.1),
            Point2::new(0.15, 0.1),
            Point2::new(0.5, 0.5),
            Point2::new(0.55, 0.5),
        ];
        let mut topo = Topology::unit_disk(positions, 0.08).unwrap();
        assert_eq!(topo.edge_count(), 2);
        // Move node 1 next to node 2: loses (0,1), gains (1,2) and (1,3).
        let moves = vec![(NodeId::new(1), Point2::new(0.52, 0.48))];
        let delta = topo.apply_moves(&moves);
        assert_eq!(delta.removed, vec![(NodeId::new(0), NodeId::new(1))]);
        assert_eq!(
            delta.added,
            vec![
                (NodeId::new(1), NodeId::new(2)),
                (NodeId::new(1), NodeId::new(3)),
            ]
        );
        assert_eq!(delta.moved, vec![NodeId::new(1)]);
        let mut reference = topo.clone();
        reference.rebuild_unit_disk_edges();
        assert_eq!(topo, reference, "incremental must equal full rebuild");
    }

    #[test]
    fn apply_moves_of_both_endpoints_reports_each_edge_once() {
        let positions = vec![Point2::new(0.1, 0.1), Point2::new(0.9, 0.9)];
        let mut topo = Topology::unit_disk(positions, 0.1).unwrap();
        let delta = topo.apply_moves(&[
            (NodeId::new(0), Point2::new(0.5, 0.5)),
            (NodeId::new(1), Point2::new(0.52, 0.5)),
        ]);
        assert_eq!(delta.added, vec![(NodeId::new(0), NodeId::new(1))]);
        assert!(delta.removed.is_empty());
        assert_eq!(delta.touched(), vec![NodeId::new(0), NodeId::new(1)]);
        assert!(topo.has_edge(NodeId::new(0), NodeId::new(1)));
    }

    #[test]
    fn apply_moves_without_displacement_is_quiet() {
        let positions = vec![Point2::new(0.2, 0.2), Point2::new(0.25, 0.2)];
        let mut topo = Topology::unit_disk(positions, 0.1).unwrap();
        let delta = topo.apply_moves(&[(NodeId::new(0), Point2::new(0.2, 0.2))]);
        assert!(delta.is_quiet());
        assert!(delta.moved.is_empty());
        let delta = topo.apply_moves(&[]);
        assert!(delta.is_quiet());
    }

    #[test]
    fn apply_moves_after_positions_mut_rebuilds_the_grid() {
        let positions = vec![Point2::new(0.1, 0.1), Point2::new(0.9, 0.9)];
        let mut topo = Topology::unit_disk(positions, 0.1).unwrap();
        // Wholesale rewrite through positions_mut invalidates the hash…
        topo.positions_mut().unwrap()[0] = Point2::new(0.85, 0.9);
        topo.rebuild_unit_disk_edges();
        assert_eq!(topo.edge_count(), 1);
        // …after which incremental maintenance still works.
        let delta = topo.apply_moves(&[(NodeId::new(0), Point2::new(0.1, 0.1))]);
        assert_eq!(delta.removed.len(), 1);
        assert_eq!(topo.edge_count(), 0);
    }

    #[test]
    fn empty_topology_properties() {
        let topo = Topology::empty(0);
        assert!(topo.is_empty());
        assert_eq!(topo.max_degree(), 0);
        assert_eq!(topo.mean_degree(), 0.0);
        assert_eq!(topo.edges().count(), 0);
    }

    #[test]
    fn mean_and_max_degree() {
        let topo = Topology::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        assert_eq!(topo.max_degree(), 3);
        assert!((topo.mean_degree() - 1.5).abs() < 1e-12);
    }
}
