//! The constant-height DAG construction of Section 4.1 (algorithm
//! **N1**): randomized renaming into a constant name space γ so that
//! adjacent nodes get distinct "colors". Orienting edges from higher
//! to lower name yields a DAG of height at most |γ| + 1 (Theorem 1),
//! which bounds the stabilization time of the subsequent election even
//! when the globally unique identifiers are adversarially distributed.

use mwn_graph::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use mwn_sim::{Corruptible, Protocol};

use crate::{Key, OrderKind};

/// How conflicts are resolved when re-drawing a DAG identifier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum DagVariant {
    /// The paper's algorithm N1 as specified: *every* node whose name
    /// collides with a cached neighbor name redraws
    /// (`Id_p := random(γ \ Cids_p)`). Converges with probability 1 in
    /// expected constant time.
    #[default]
    Randomized,
    /// The variant used in the paper's Section 5 simulations: "If DAG
    /// Ids are the same, the node with the smallest *normal* Id chooses
    /// another DAG Id" — only the smaller-id endpoint of a conflicting
    /// pair redraws, so exactly one party moves.
    SmallestIdRedraws,
}

/// The name space γ the DAG identifiers are drawn from.
///
/// The paper: "|γ| equals δ⁶ in \[11\], while δ² or even δ is sufficient
/// in our case"; Section 5 simulates with δ². Larger spaces converge
/// faster; smaller spaces give lower DAG heights.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NameSpace {
    size: u32,
}

impl NameSpace {
    /// γ of explicit size.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`.
    pub fn of_size(size: u32) -> Self {
        assert!(size > 0, "the name space must be non-empty");
        NameSpace { size }
    }

    /// γ = δ², the paper's simulated choice, floored at δ + 2.
    ///
    /// The floor matters for very sparse graphs: with only δ + 1 names
    /// a conflicting pair under [`DagVariant::Randomized`] can be left
    /// with a *single* free name each — both deterministically swap
    /// into it and oscillate forever. One extra name restores the
    /// coin-flip that makes N1 converge with probability 1.
    pub fn delta_squared(delta: usize) -> Self {
        NameSpace::of_size((delta * delta).max(delta + 2) as u32)
    }

    /// |γ|.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// `true` iff `id` lies inside γ.
    pub fn contains(&self, id: u32) -> bool {
        id < self.size
    }
}

/// The paper's `newId` function: keep the current name if no cached
/// neighbor uses it (and it is a legal name at all); otherwise draw
/// uniformly from `γ \ used`. If every name is used (degree ≥ |γ| —
/// a misconfiguration), the current name is kept so the system keeps
/// running.
pub fn new_id(current: u32, used: &[u32], gamma: NameSpace, rng: &mut StdRng) -> u32 {
    let conflict = !gamma.contains(current) || used.contains(&current);
    if !conflict {
        return current;
    }
    let used_in_gamma = {
        let mut u: Vec<u32> = used
            .iter()
            .copied()
            .filter(|&x| gamma.contains(x))
            .collect();
        u.sort_unstable();
        u.dedup();
        u
    };
    let free = gamma.size() as usize - used_in_gamma.len();
    if free == 0 {
        return current;
    }
    // Pick the k-th name of γ that is not in `used_in_gamma`.
    let k = rng.random_range(0..free);
    let mut skipped = 0usize;
    let mut candidate = 0u32;
    let mut used_iter = used_in_gamma.iter().peekable();
    loop {
        if used_iter.peek() == Some(&&candidate) {
            used_iter.next();
            candidate += 1;
            continue;
        }
        if skipped == k {
            return candidate;
        }
        skipped += 1;
        candidate += 1;
    }
}

/// `true` iff the name assignment is a proper coloring of the graph
/// (no two adjacent nodes share a name) — N1's legitimacy predicate.
pub fn is_locally_unique(topo: &Topology, names: &[u32]) -> bool {
    topo.edges()
        .all(|(u, v)| names[u.index()] != names[v.index()])
}

/// Height of the DAG obtained by orienting edges from higher to lower
/// name: the number of nodes on the longest strictly decreasing path.
/// Edges between equal names (not yet stabilized) are ignored.
pub fn name_dag_height(topo: &Topology, names: &[u32]) -> u32 {
    longest_path(topo, |p, q| names[p.index()] > names[q.index()])
}

/// Height of DAG_≺ (Lemma 2): the number of nodes on the longest path
/// that strictly descends the `≺` order between adjacent nodes. The
/// stabilization time of the election is proportional to this height.
pub fn order_dag_height(topo: &Topology, keys: &[Key], order: OrderKind) -> u32 {
    longest_path(topo, |p, q| {
        keys[q.index()].precedes(&keys[p.index()], order)
    })
}

/// Longest directed path (in nodes) where `dominates(p, q)` orients the
/// edge `p → q`. `dominates` must be acyclic on adjacent pairs.
fn longest_path<F>(topo: &Topology, dominates: F) -> u32
where
    F: Fn(NodeId, NodeId) -> bool,
{
    fn visit<F: Fn(NodeId, NodeId) -> bool>(
        topo: &Topology,
        dominates: &F,
        memo: &mut [u32],
        p: NodeId,
    ) -> u32 {
        if memo[p.index()] != 0 {
            return memo[p.index()];
        }
        let mut best = 1;
        for &q in topo.neighbors(p) {
            if dominates(p, q) {
                best = best.max(1 + visit(topo, dominates, memo, q));
            }
        }
        memo[p.index()] = best;
        best
    }
    let mut memo = vec![0u32; topo.len()];
    topo.nodes()
        .map(|p| visit(topo, &dominates, &mut memo, p))
        .max()
        .unwrap_or(0)
}

/// The standalone distributed DAG-renaming protocol (algorithm N1),
/// used to reproduce Table 3 ("number of steps needed to build the
/// DAG") in isolation from the election.
///
/// Each node's shared variable is its DAG identifier; caches of
/// neighbor identifiers (`Cids_p`) are refreshed by beacons and expire
/// after `cache_ttl` logical time units.
///
/// # Examples
///
/// ```
/// use mwn_cluster::{is_locally_unique, DagProtocol, DagVariant, NameSpace};
/// use mwn_graph::builders;
/// use mwn_sim::{Scenario, StopWhen};
///
/// let topo = builders::grid(8, 8, 0.2);
/// let gamma = NameSpace::delta_squared(topo.max_degree());
/// let protocol = DagProtocol::new(gamma, DagVariant::SmallestIdRedraws, 4);
/// let mut net = Scenario::new(protocol)
///     .topology(topo)
///     .seed(1)
///     .build()
///     .expect("valid scenario");
/// net.run_to(&StopWhen::stable_for(3).within(200)).expect_stable("N1 converges");
/// let names: Vec<u32> = net.states().iter().map(|s| s.dag_id).collect();
/// assert!(is_locally_unique(net.topology(), &names));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DagProtocol {
    gamma: NameSpace,
    variant: DagVariant,
    cache_ttl: u64,
    event_driven: bool,
}

impl DagProtocol {
    /// Creates the protocol. `cache_ttl` is how long (in steps) a
    /// cached neighbor name survives without being refreshed.
    pub fn new(gamma: NameSpace, variant: DagVariant, cache_ttl: u64) -> Self {
        DagProtocol {
            gamma,
            variant,
            cache_ttl: cache_ttl.max(1),
            event_driven: false,
        }
    }

    /// The event-driven variant: receiving an unchanged name is a
    /// no-op, cached names never expire by age (only future-stamped
    /// forgeries are purged, and the link layer evicts departed
    /// neighbors). This satisfies the silence contract under both
    /// clocks, so the protocol declares [`mwn_sim::Activity::Gated`]:
    /// a stabilized DAG costs the round driver zero messages and zero
    /// guard runs, and the continuous-time `EventDriver` stops
    /// scheduling its beacon slots entirely.
    pub fn event_driven(gamma: NameSpace, variant: DagVariant) -> Self {
        DagProtocol {
            gamma,
            variant,
            cache_ttl: 1,
            event_driven: true,
        }
    }

    /// The configured name space.
    pub fn gamma(&self) -> NameSpace {
        self.gamma
    }
}

/// Per-node state of [`DagProtocol`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DagState {
    /// The node's current DAG identifier (shared variable `Id_p`).
    pub dag_id: u32,
    /// Cached neighbor identifiers as `(neighbor, name, last
    /// refresh)`, sorted by neighbor: a clone is one `memcpy`, a lookup
    /// a binary search, and iteration ascends by neighbor id.
    pub cache: Vec<(NodeId, u32, u64)>,
}

/// Writes `entry` into the sorted `cache`, replacing the previous
/// entry of its neighbor.
fn put(cache: &mut Vec<(NodeId, u32, u64)>, entry: (NodeId, u32, u64)) {
    match cache.binary_search_by_key(&entry.0, |e| e.0) {
        Ok(i) => cache[i] = entry,
        Err(i) => cache.insert(i, entry),
    }
}

impl Protocol for DagProtocol {
    type State = DagState;
    type Beacon = u32;

    fn init(&self, _node: NodeId, rng: &mut StdRng) -> DagState {
        // "each node randomly chooses a DAG Id" (Section 5).
        DagState {
            dag_id: rng.random_range(0..self.gamma.size()),
            cache: Vec::new(),
        }
    }

    fn beacon(&self, _node: NodeId, state: &DagState) -> u32 {
        state.dag_id
    }

    fn receive(&self, _node: NodeId, state: &mut DagState, from: NodeId, beacon: &u32, now: u64) {
        if self.event_driven {
            // Silence contract: an unchanged name must be a state
            // no-op — not even a timestamp refresh.
            let known = state.cache.binary_search_by_key(&from, |e| e.0);
            if known.is_ok_and(|i| state.cache[i].1 == *beacon) {
                return;
            }
        }
        put(&mut state.cache, (from, *beacon, now));
    }

    fn update(&self, node: NodeId, state: &mut DagState, now: u64, rng: &mut StdRng) {
        // Expire stale entries; timestamps from the future are
        // corrupted state and expire immediately. The event-driven
        // variant keeps entries alive through silence and only purges
        // forgeries.
        let ttl = self.cache_ttl;
        if self.event_driven {
            state.cache.retain(|&(_, _, seen)| seen <= now);
        } else {
            state
                .cache
                .retain(|&(_, _, seen)| seen <= now && now - seen < ttl);
        }
        let used: Vec<u32> = state.cache.iter().map(|&(_, id, _)| id).collect();
        let conflicted = !self.gamma.contains(state.dag_id) || used.contains(&state.dag_id);
        if !conflicted {
            return;
        }
        let must_redraw = match self.variant {
            DagVariant::Randomized => true,
            DagVariant::SmallestIdRedraws => {
                // Out-of-γ names always redraw; otherwise only the
                // smaller-unique-id endpoint of a conflict moves.
                !self.gamma.contains(state.dag_id)
                    || state
                        .cache
                        .iter()
                        .any(|&(q, id, _)| id == state.dag_id && node < q)
            }
        };
        if must_redraw {
            state.dag_id = new_id(state.dag_id, &used, self.gamma, rng);
        }
    }

    fn activity(&self) -> mwn_sim::Activity {
        if self.event_driven {
            mwn_sim::Activity::Gated
        } else {
            mwn_sim::Activity::Eager
        }
    }

    fn beacon_changed(&self, old: &u32, new: &u32) -> bool {
        old != new
    }

    fn link_down(&self, _node: NodeId, state: &mut DagState, peer: NodeId) {
        if let Ok(i) = state.cache.binary_search_by_key(&peer, |e| e.0) {
            state.cache.remove(i);
        }
    }
}

impl mwn_sim::Observable for DagProtocol {
    /// The DAG identifier `Id_p` — N1's only shared variable, and the
    /// projection the Table 3 stabilization measurements quiesce on.
    type Output = u32;

    fn output(&self, _node: NodeId, state: &DagState) -> u32 {
        state.dag_id
    }
}

impl Corruptible for DagProtocol {
    fn corrupt(&self, _node: NodeId, state: &mut DagState, rng: &mut StdRng) {
        // Arbitrary name (possibly outside γ), arbitrary ghost cache
        // entries with arbitrary (possibly future) timestamps.
        state.dag_id = rng.random_range(0..u32::MAX);
        state.cache.clear();
        for _ in 0..rng.random_range(0..6) {
            let ghost = NodeId::new(rng.random_range(0..10_000));
            let name = rng.random_range(0..u32::MAX);
            let seen = rng.random_range(0..u64::MAX);
            put(&mut state.cache, (ghost, name, seen));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwn_graph::builders;
    use mwn_radio::BernoulliLoss;
    use mwn_sim::{Network, Scenario, StopWhen};
    use rand::SeedableRng;

    fn names_of(net: &Network<DagProtocol, impl mwn_radio::Medium>) -> Vec<u32> {
        net.states().iter().map(|s| s.dag_id).collect()
    }

    #[test]
    fn event_driven_dag_goes_silent_once_colored() {
        let topo = builders::grid(8, 8, 0.2);
        let gamma = NameSpace::delta_squared(topo.max_degree());
        let mut net = Scenario::new(DagProtocol::event_driven(
            gamma,
            DagVariant::SmallestIdRedraws,
        ))
        .topology(topo.clone())
        .seed(3)
        .build()
        .expect("valid scenario");
        assert!(net.is_gated());
        net.run_to(&mwn_sim::StopWhen::stable_for(3).within(300))
            .expect_stable("N1 converges");
        assert!(is_locally_unique(&topo, &names_of(&net)));
        net.run(20);
        assert_eq!(
            net.last_activity().senders,
            0,
            "a proper coloring is silent"
        );
        assert_eq!(net.last_activity().updates, 0);
    }

    #[test]
    fn new_id_keeps_free_names() {
        let mut rng = StdRng::seed_from_u64(0);
        let gamma = NameSpace::of_size(8);
        assert_eq!(new_id(3, &[1, 2, 4], gamma, &mut rng), 3);
    }

    #[test]
    fn new_id_redraws_conflicts_outside_used_set() {
        let mut rng = StdRng::seed_from_u64(1);
        let gamma = NameSpace::of_size(8);
        for _ in 0..50 {
            let fresh = new_id(3, &[1, 2, 3], gamma, &mut rng);
            assert!(gamma.contains(fresh));
            assert!(![1, 2, 3].contains(&fresh));
        }
    }

    #[test]
    fn new_id_redraws_out_of_range_names() {
        let mut rng = StdRng::seed_from_u64(2);
        let gamma = NameSpace::of_size(4);
        let fresh = new_id(99, &[], gamma, &mut rng);
        assert!(gamma.contains(fresh));
    }

    #[test]
    fn new_id_with_full_namespace_keeps_current() {
        let mut rng = StdRng::seed_from_u64(3);
        let gamma = NameSpace::of_size(2);
        assert_eq!(new_id(0, &[0, 1], gamma, &mut rng), 0);
    }

    #[test]
    fn new_id_ignores_out_of_gamma_used_entries() {
        let mut rng = StdRng::seed_from_u64(4);
        let gamma = NameSpace::of_size(2);
        // `used` mentions 700 (outside γ): only 0 is truly taken.
        let fresh = new_id(0, &[0, 700], gamma, &mut rng);
        assert_eq!(fresh, 1);
    }

    #[test]
    fn both_variants_converge_on_grid() {
        for variant in [DagVariant::Randomized, DagVariant::SmallestIdRedraws] {
            let topo = builders::grid(10, 10, 0.15);
            let gamma = NameSpace::delta_squared(topo.max_degree());
            let mut net = Scenario::new(DagProtocol::new(gamma, variant, 4))
                .topology(topo)
                .seed(7)
                .build()
                .expect("valid scenario");
            let report = net.run_to(&StopWhen::stable_for(3).within(500));
            assert!(report.is_stable(), "{variant:?} did not converge");
            assert!(is_locally_unique(net.topology(), &names_of(&net)));
        }
    }

    #[test]
    fn converges_from_corrupted_state() {
        let topo = builders::grid(8, 8, 0.2);
        let gamma = NameSpace::delta_squared(topo.max_degree());
        let mut net = Scenario::new(DagProtocol::new(gamma, DagVariant::Randomized, 4))
            .topology(topo)
            .seed(8)
            .build()
            .expect("valid scenario");
        net.run(20);
        net.corrupt_all();
        net.run_to(&StopWhen::stable_for(5).within(500))
            .expect_stable("reconvergence after corruption");
        let names = names_of(&net);
        assert!(is_locally_unique(net.topology(), &names));
        assert!(names.iter().all(|&x| gamma.contains(x)), "names back in γ");
    }

    #[test]
    fn converges_under_lossy_medium() {
        let topo = builders::grid(6, 6, 0.25);
        let gamma = NameSpace::delta_squared(topo.max_degree());
        let mut net = Scenario::new(DagProtocol::new(gamma, DagVariant::Randomized, 10))
            .medium(BernoulliLoss::new(0.5))
            .topology(topo)
            .seed(9)
            .build()
            .expect("valid scenario");
        net.run_to(&StopWhen::stable_for(10).within(2000))
            .expect_stable("N1 converges despite τ = 0.5");
        assert!(is_locally_unique(net.topology(), &names_of(&net)));
    }

    #[test]
    fn grid_converges_in_about_two_steps() {
        // Table 3: ~2 steps on average with γ = δ² at these densities.
        let mut total = 0u64;
        let runs = 30;
        for seed in 0..runs {
            let topo = builders::grid(10, 10, 0.12);
            let gamma = NameSpace::delta_squared(topo.max_degree());
            let mut net = Scenario::new(DagProtocol::new(gamma, DagVariant::SmallestIdRedraws, 4))
                .topology(topo)
                .seed(seed)
                .build()
                .expect("valid scenario");
            let t = net
                .run_to(&StopWhen::stable_for(5).within(200))
                .expect_stable("converges");
            total += t;
        }
        let mean = total as f64 / runs as f64;
        assert!(mean < 5.0, "expected ≈2 steps, measured {mean}");
    }

    #[test]
    fn name_dag_height_is_bounded_by_gamma() {
        let topo = builders::grid(12, 12, 0.1);
        let gamma = NameSpace::delta_squared(topo.max_degree());
        let mut net = Scenario::new(DagProtocol::new(gamma, DagVariant::Randomized, 4))
            .topology(topo)
            .seed(11)
            .build()
            .expect("valid scenario");
        net.run_to(&StopWhen::stable_for(3).within(500))
            .expect_stable("converges");
        let names = names_of(&net);
        let height = name_dag_height(net.topology(), &names);
        assert!(height >= 1);
        assert!(
            height <= gamma.size() + 1,
            "Theorem 1: height {height} exceeds |γ|+1 = {}",
            gamma.size() + 1
        );
    }

    #[test]
    fn longest_path_on_a_line() {
        let topo = builders::line(5);
        let names = vec![4, 3, 2, 1, 0];
        assert_eq!(name_dag_height(&topo, &names), 5);
        let flat = vec![0, 0, 0, 0, 0];
        assert_eq!(name_dag_height(&topo, &flat), 1);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_namespace_rejected() {
        let _ = NameSpace::of_size(0);
    }
}
