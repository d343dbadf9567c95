//! The node table's **storage order**: where each node's row of every
//! per-node column sits, fixed when the environment is built.
//!
//! Identity is the [`NodeId`]; a [`Slot`] is only a position. For a
//! unit-disk deployment the order is the nodes sorted by (cell, id),
//! with cells of side `radius` — the key `Topology::unit_disk` bins by
//! — so the rows a visit reads (its neighbours' beacons, epochs and
//! states) sit in a few nearby stretches of each column instead of
//! wherever arrival order scattered them. Any other topology is stored
//! in id order. Mobility and rewiring never move a row: the order is a
//! layout, not a semantic.
//!
//! Everything observable stays keyed by id. The state column is the one
//! column handed out whole ([`StateColumn::by_id`]): it is published in
//! id order on the first `&self` read after a mutation, by an in-place
//! permutation along the order's cycles, and moved back by the next
//! `&mut` path that touches a state. Neither direction allocates.

use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

use mwn_graph::{NodeId, Point2, Topology};

/// A row of the node table: the position of one node in every per-node
/// column, in the environment's [`StorageOrder`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Slot(u32);

impl Slot {
    #[inline]
    pub fn new(i: u32) -> Self {
        Slot(i)
    }

    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The bijection between node ids and table slots.
pub(crate) struct StorageOrder {
    /// `ids[slot]`: the node stored at `slot`.
    ids: Vec<NodeId>,
    /// `slots[id]`: where node `id` is stored.
    slots: Vec<Slot>,
    /// The first slot of every cycle of the permutation that moves two
    /// or more rows: where an in-place permutation starts walking.
    /// Found by the first permutation, never by a build.
    leaders: OnceLock<Vec<u32>>,
}

impl StorageOrder {
    /// The order of `topo`: by (cell, id) with cells of side `radius`
    /// when it has positions and a radius, by id otherwise.
    pub fn of(topo: &Topology) -> Self {
        match (topo.positions(), topo.radius()) {
            (Some(positions), Some(radius)) => by_cell(positions, radius),
            _ => Self::from_ids(topo.nodes().collect()),
        }
    }

    /// The order that stores node `ids[s]` at slot `s`; `ids` must be a
    /// permutation of `0..ids.len()`.
    pub fn from_ids(ids: Vec<NodeId>) -> Self {
        let mut slots = vec![Slot(0); ids.len()];
        for (s, id) in (0u32..).zip(&ids) {
            slots[id.index()] = Slot(s);
        }
        Self::new(ids, slots)
    }

    fn new(ids: Vec<NodeId>, slots: Vec<Slot>) -> Self {
        debug_assert!(
            ids.iter()
                .zip(0u32..)
                .all(|(id, s)| slots[id.index()] == Slot(s)),
            "a storage order is a bijection"
        );
        StorageOrder {
            ids,
            slots,
            leaders: OnceLock::new(),
        }
    }

    /// The cycle leaders, found on first use.
    fn leaders(&self) -> &[u32] {
        self.leaders.get_or_init(|| {
            let mut seen = vec![false; self.ids.len()];
            let mut leaders = Vec::new();
            for start in 0..self.ids.len() {
                if seen[start] || self.ids[start].index() == start {
                    continue;
                }
                leaders.push(start as u32);
                let mut at = start;
                while !seen[at] {
                    seen[at] = true;
                    at = self.ids[at].index();
                }
            }
            leaders
        })
    }

    /// Where node `p` is stored.
    #[inline]
    pub fn slot(&self, p: NodeId) -> Slot {
        self.slots[p.index()]
    }

    /// The node stored at slot `s`.
    #[inline]
    pub fn id(&self, s: Slot) -> NodeId {
        self.ids[s.index()]
    }

    /// Every node, in storage order.
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// The nodes stored at `slots`, ascending by id, into `out`
    /// (cleared first).
    pub fn sorted_ids(&self, slots: &[Slot], out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(slots.iter().map(|&s| self.id(s)));
        out.sort_unstable();
    }

    /// Moves `column` from storage order into id order, in place.
    pub fn to_ids<T>(&self, column: &mut [T]) {
        self.permute(column, |s| self.ids[s].index());
    }

    /// Moves `column` from id order into storage order, in place.
    pub fn to_slots<T>(&self, column: &mut [T]) {
        self.permute(column, |p| self.slots[p].index());
    }

    /// Sends the entry at every index `i` to `dest(i)`, one cycle at a
    /// time: the leader's place holds the entry in hand, and each swap
    /// drops it where it belongs and picks up the one it displaced.
    fn permute<T>(&self, column: &mut [T], dest: impl Fn(usize) -> usize) {
        debug_assert_eq!(column.len(), self.ids.len());
        for &leader in self.leaders() {
            let leader = leader as usize;
            let mut from = leader;
            loop {
                let to = dest(from);
                if to == leader {
                    break;
                }
                column.swap(leader, to);
                from = to;
            }
        }
    }
}

/// The order of `positions` by (cell, id), cells of side `radius`: a
/// counting sort over the cells' bounding box when it has no more cells
/// than twice the points (a deployment's), one comparison sort
/// otherwise.
fn by_cell(positions: &[Point2], radius: f64) -> StorageOrder {
    // `floor` without the libm call: truncate, then step down below 0.
    let floor = |v: f64| {
        let t = v as i64;
        t - i64::from((t as f64) > v)
    };
    let cell = |p: &Point2| (floor(p.x / radius), floor(p.y / radius));
    let (lo, hi) = positions.iter().map(cell).fold(
        ((i64::MAX, i64::MAX), (i64::MIN, i64::MIN)),
        |(lo, hi), (x, y)| ((lo.0.min(x), lo.1.min(y)), (hi.0.max(x), hi.1.max(y))),
    );
    let span = |lo: i64, hi: i64| u64::try_from(hi.wrapping_sub(lo)).map_or(u64::MAX, |d| d + 1);
    let (width, height) = (span(lo.0, hi.0), span(lo.1, hi.1));
    let n = positions.len();
    match width.checked_mul(height) {
        Some(area) if n > 0 && area <= 2 * n as u64 => {
            // Each point's cell rank, kept where its slot will go.
            let mut slots: Vec<Slot> = positions
                .iter()
                .map(|p| {
                    let (x, y) = cell(p);
                    Slot(((x - lo.0) as u64 * height + (y - lo.1) as u64) as u32)
                })
                .collect();
            let mut start = vec![0u32; area as usize + 1];
            for rank in &slots {
                start[rank.index() + 1] += 1;
            }
            for k in 1..start.len() {
                start[k] += start[k - 1];
            }
            // Ids are visited ascending, so each cell's run comes out in
            // id order.
            let mut ids = vec![NodeId::new(0); n];
            for (p, slot) in (0u32..).zip(&mut slots) {
                let at = &mut start[slot.index()];
                ids[*at as usize] = NodeId::new(p);
                *slot = Slot(*at);
                *at += 1;
            }
            StorageOrder::new(ids, slots)
        }
        _ => {
            let ids = (0u32..).map(NodeId::new);
            let mut keyed: Vec<((i64, i64), NodeId)> =
                positions.iter().map(cell).zip(ids).collect();
            keyed.sort_unstable();
            StorageOrder::from_ids(keyed.into_iter().map(|(_, p)| p).collect())
        }
    }
}

/// The protocol-state column: worked on in storage order, handed out in
/// id order.
///
/// `&mut` paths reach the working column through
/// [`StateColumn::slots_mut`] — `Mutex::get_mut`, no locking — which
/// first moves a published column back. `&self` reads that want the
/// whole column by id go through [`StateColumn::by_id`], which moves
/// the working column out into the published one; reads that visit
/// states one at a time go through [`StateColumn::read`] and publish
/// nothing.
pub(crate) struct StateColumn<S> {
    /// Storage order; empty while the column is published.
    working: Mutex<Vec<S>>,
    /// Id order, from the first `&self` read after a mutation until
    /// the next `&mut` path that touches a state.
    published: OnceLock<Vec<S>>,
}

impl<S> StateColumn<S> {
    /// The column, given in storage order.
    pub fn new(states: Vec<S>) -> Self {
        StateColumn {
            working: Mutex::new(states),
            published: OnceLock::new(),
        }
    }

    /// The working column, locked: a `&self` path reads it without
    /// racing a publish. Whole between mutations, so a poisoned lock
    /// loses nothing.
    fn lock(&self) -> MutexGuard<'_, Vec<S>> {
        self.working.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The column in storage order, to write.
    #[inline]
    pub fn slots_mut(&mut self, order: &StorageOrder) -> &mut [S] {
        let working = self
            .working
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(mut by_id) = self.published.take() {
            order.to_slots(&mut by_id);
            *working = by_id;
        }
        working
    }

    /// The column in id order, published if it is not yet.
    pub fn by_id(&self, order: &StorageOrder) -> &[S] {
        self.published.get_or_init(|| {
            let mut column = std::mem::take(&mut *self.lock());
            order.to_ids(&mut column);
            column
        })
    }

    /// Calls `f` with a view of the states that publishes nothing.
    pub fn read<R>(&self, order: &StorageOrder, f: impl FnOnce(States<'_, S>) -> R) -> R {
        let working = self.lock();
        match self.published.get() {
            Some(by_id) => f(States::ById(by_id, order)),
            None => f(States::BySlot(&working, order)),
        }
    }
}

/// The states, wherever [`StateColumn::read`] found them, beside the
/// order that relates ids and slots.
pub(crate) enum States<'a, S> {
    /// Published: indexed by id.
    ById(&'a [S], &'a StorageOrder),
    /// Working: indexed by slot.
    BySlot(&'a [S], &'a StorageOrder),
}

impl<S> States<'_, S> {
    /// The node stored at slot `s`, and its state.
    #[inline]
    pub fn at(&self, s: Slot) -> (NodeId, &S) {
        match *self {
            States::ById(by_id, order) => (order.id(s), &by_id[order.id(s).index()]),
            States::BySlot(by_slot, order) => (order.id(s), &by_slot[s.index()]),
        }
    }

    /// Calls `f(p, state)` for every node, in the order the states sit.
    pub fn for_each(&self, mut f: impl FnMut(NodeId, &S)) {
        match *self {
            States::ById(by_id, _) => {
                for (i, s) in (0u32..).zip(by_id) {
                    f(NodeId::new(i), s);
                }
            }
            States::BySlot(by_slot, order) => {
                for (&p, s) in order.ids.iter().zip(by_slot) {
                    f(p, s);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwn_graph::builders;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn is_bijection(order: &StorageOrder, n: usize) -> bool {
        let ids = order.ids();
        ids.len() == n
            && (0..n as u32).all(|s| order.slot(order.id(Slot(s))) == Slot(s))
            && (0..n as u32).all(|i| order.id(order.slot(NodeId::new(i))) == NodeId::new(i))
    }

    #[test]
    fn the_order_of_a_deployment_is_a_bijection_that_keeps_each_cell_together() {
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let radius = rng.random_range(0.05..0.4);
            let topo = builders::poisson(rng.random_range(20.0..400.0), radius, &mut rng);
            let order = StorageOrder::of(&topo);
            assert!(is_bijection(&order, topo.len()), "seed {seed}");
            let positions = topo.positions().expect("a deployment");
            let cell = |p: NodeId| {
                let at = positions[p.index()];
                (
                    (at.x / radius).floor() as i64,
                    (at.y / radius).floor() as i64,
                )
            };
            // Sorted by (cell, id), so each cell's nodes are one run.
            for pair in order.ids().windows(2) {
                let key = |p: NodeId| (cell(p), p);
                assert!(
                    key(pair[0]) < key(pair[1]),
                    "seed {seed}: sorted by (cell, id)"
                );
            }
            let mut runs: Vec<(i64, i64)> = order.ids().iter().map(|&p| cell(p)).collect();
            runs.dedup();
            let cells: std::collections::BTreeSet<_> = runs.iter().copied().collect();
            assert_eq!(
                runs.len(),
                cells.len(),
                "seed {seed}: a cell's nodes are contiguous"
            );
        }
    }

    #[test]
    fn a_topology_without_a_radius_is_stored_in_id_order() {
        let line = builders::line(9);
        let order = StorageOrder::of(&line);
        assert!(is_bijection(&order, 9));
        assert!(order.ids().iter().copied().eq(line.nodes()));
        assert!(order.leaders().is_empty(), "nothing to permute");
        // Positions alone do not make a cell order.
        let mut rng = StdRng::seed_from_u64(3);
        let uniform = builders::uniform(30, 0.3, &mut rng);
        let edges: Vec<(u32, u32)> = uniform
            .edges()
            .map(|(u, v)| (u.value(), v.value()))
            .collect();
        let bare = Topology::from_edges(30, &edges).expect("valid edges");
        let drawn = bare.with_positions(uniform.positions().expect("placed").to_vec());
        assert!(StorageOrder::of(&drawn)
            .ids()
            .iter()
            .copied()
            .eq(drawn.nodes()));
    }

    #[test]
    fn permutations_move_a_column_between_the_two_orders_and_back() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [0usize, 1, 2, 7, 64, 300] {
            let mut ids: Vec<NodeId> = (0..n as u32).map(NodeId::new).collect();
            for i in (1..n).rev() {
                ids.swap(i, rng.random_range(0..=i));
            }
            let order = StorageOrder::from_ids(ids);
            assert!(is_bijection(&order, n));
            let by_slot: Vec<NodeId> = order.ids().to_vec();
            let mut column = by_slot.clone();
            order.to_ids(&mut column);
            assert!(
                column.iter().copied().eq((0..n as u32).map(NodeId::new)),
                "n = {n}"
            );
            order.to_slots(&mut column);
            assert_eq!(column, by_slot, "n = {n}: and back");
        }
    }

    #[test]
    fn a_state_column_publishes_by_id_and_works_by_slot() {
        let order = StorageOrder::from_ids([2u32, 0, 3, 1].map(NodeId::new).to_vec());
        // The state of node p is 10 · p, stored at p's slot.
        let by_slot: Vec<u32> = order.ids().iter().map(|p| 10 * p.value()).collect();
        let mut column = StateColumn::new(by_slot);
        let expect = [0, 10, 20, 30];
        let read = |column: &StateColumn<u32>| {
            column.read(&order, |states| {
                let mut seen = [0; 4];
                states.for_each(|p, &s| seen[p.index()] = s);
                let at = |s: u32| *states.at(Slot(s)).1;
                assert!((0..4).all(|s| at(s) == 10 * order.id(Slot(s)).value()));
                seen
            })
        };
        assert_eq!(read(&column), expect, "read in storage order");
        assert_eq!(column.by_id(&order), expect);
        assert_eq!(read(&column), expect, "read while published");
        column.slots_mut(&order)[order.slot(NodeId::new(3)).index()] = 31;
        assert!(
            column.published.get().is_none(),
            "a write moves the column back"
        );
        assert_eq!(column.by_id(&order), [0, 10, 20, 31]);
    }
}
