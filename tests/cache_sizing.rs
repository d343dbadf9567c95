//! Neighbor caches are sized once, from the reception rows, at the
//! first frame — and the size is a hint, not a bound.
//!
//! At the silent fixpoint a node's cache holds one slot per neighbor
//! and one view id per neighbor of a neighbor, sizes the topology
//! fixes. The engine hands both to the protocol right before frames
//! may land at a node (`Protocol::reserve`, on all three drivers), and
//! `DensityCluster` reserves exactly that much in a cache that has
//! never allocated, so a cold start no longer reallocates each cache
//! once per neighbor learned. The first test pins the allocations a
//! cold start performs per node, on every driver; without the hook
//! they are several times higher.
//!
//! The other tests hold the hint to being only a hint: a neighborhood
//! that grows past it under mobility, and a cache a fault forged past
//! it, keep every entry and stay `check()`-clean, and the gated event
//! clock still walks its eager twin's trajectory through the moves.
//!
//! Allocations are counted per thread, so the tests of this file may
//! run side by side; every counted run is single-threaded.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mwn_cluster::{NeighborEntry, PeerSummary};
use rand::rngs::StdRng;
use rand::SeedableRng;
use selfstab::prelude::*;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread tearing down its locals may still allocate.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn protocol() -> DensityCluster {
    DensityCluster::new(ClusterConfig::default().event_driven())
}

fn stop() -> StopWhen<DensityCluster> {
    StopWhen::stable_for(3).within(200)
}

/// Cold start to a stable clustering; returns the allocations and
/// reallocations it performed on this thread, per node.
fn cold_start<C: Clock<DensityCluster>>(mut driver: Sim<DensityCluster, C>) -> f64 {
    let n = driver.topology().len();
    let before = ALLOCS.with(Cell::get);
    let report = driver.run_to(&stop());
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(report.stabilized.is_some(), "the clustering converges");
    allocs as f64 / n as f64
}

#[test]
fn a_cold_start_allocates_each_cache_once() {
    let mut rng = StdRng::seed_from_u64(2038);
    // About 2 000 nodes of mean degree about 8, as in the benchmark's
    // deployments.
    let topo = builders::poisson(2_000.0, 0.036, &mut rng);
    let scenario = || Scenario::new(protocol()).topology(topo.clone()).seed(5);
    let measured = [
        (
            "rounds",
            cold_start(scenario().shards(1).build().expect("valid scenario")),
        ),
        (
            "events",
            cold_start(
                scenario()
                    .build_events(EventConfig::default())
                    .expect("valid event scenario"),
            ),
        ),
        (
            "actors",
            cold_start(scenario().build_actors(1).expect("valid actor scenario")),
        ),
    ];
    // Measured per node on rounds, events and actors; debug builds
    // allocate a little more for their reference copies. Caches grown
    // one entry at a time read 16.96 / 24.10 / 19.20 (debug) and
    // 16.95 / 24.05 / 19.19 (release); with one `Vec` per actor's
    // mailbox, grown by its first frames, actors read 6.060 / 6.046.
    let pins = if cfg!(debug_assertions) {
        [3.821, 4.521, 3.842]
    } else {
        [3.807, 4.462, 3.828]
    };
    let over: Vec<String> = measured
        .iter()
        .zip(pins)
        .filter(|&(&(_, got), pin)| got > pin)
        .map(|((driver, got), pin)| format!("{driver}: {got:.3} per node, pinned at {pin}"))
        .collect();
    assert!(over.is_empty(), "a cold start allocates more: {over:?}");
}

/// Two groups of `k` nodes each, every group a clique of radius 0.1:
/// nodes `0..k` around (0.2, 0.2), nodes `k..2k` around (0.7, 0.7),
/// out of each other's range.
fn two_groups(k: u32) -> Topology {
    let at = |i: u32, base: f64| Point2::new(base + 0.01 * f64::from(i), base);
    let positions = (0..k).map(|i| at(i, 0.2)).chain((0..k).map(|i| at(i, 0.7)));
    Topology::unit_disk(positions.collect(), 0.1).expect("a valid unit-disk deployment")
}

/// The second group's moves next to the first: every node's degree
/// grows from `k − 1` to `2k − 1`, past the hint its first frame gave.
fn merge_moves(k: u32) -> Vec<(NodeId, Point2)> {
    let to = |i: u32| Point2::new(0.2 + 0.01 * f64::from(i), 0.25);
    (0..k).map(|i| (NodeId::new(k + i), to(i))).collect()
}

/// At a clean fixpoint every cache is its node's neighborhood: one
/// entry per neighbor, each entry's view that neighbor's neighborhood.
fn assert_caches_are_neighborhoods(topo: &Topology, states: &[ClusterState]) {
    for p in topo.nodes() {
        let cache = &states[p.index()].cache;
        cache.check().expect("a consistent cache");
        let keys: Vec<NodeId> = cache.keys().copied().collect();
        assert_eq!(keys, topo.neighbors(p), "node {p} lost or kept an entry");
        for (slot, view) in cache.iter() {
            assert_eq!(
                view,
                topo.neighbors(slot.id),
                "node {p}'s view of {}",
                slot.id
            );
        }
    }
}

/// Converges, merges the groups, converges again; checks the caches
/// after both.
fn grow_past_the_hint<C: Clock<DensityCluster>>(mut driver: Sim<DensityCluster, C>, k: u32) {
    assert!(driver.run_to(&stop()).stabilized.is_some());
    assert_caches_are_neighborhoods(driver.topology(), driver.states());
    let delta = driver.apply_moves(&merge_moves(k));
    assert_eq!(
        delta.added.len(),
        (k * k) as usize,
        "every pair across is linked"
    );
    assert!(driver.run_to(&stop()).stabilized.is_some());
    let grown = driver.topology().degree(NodeId::new(0));
    assert_eq!(grown, 2 * k as usize - 1);
    assert_caches_are_neighborhoods(driver.topology(), driver.states());
}

#[test]
fn a_neighborhood_grown_past_its_first_frame_hint_keeps_every_entry() {
    let k = 6;
    let scenario = || Scenario::new(protocol()).topology(two_groups(k)).seed(3);
    grow_past_the_hint(scenario().build().expect("valid scenario"), k);
    let events = scenario().build_events(EventConfig::default());
    grow_past_the_hint(events.expect("valid event scenario"), k);
    grow_past_the_hint(scenario().build_actors(1).expect("valid actor scenario"), k);
}

#[test]
fn the_gated_event_clock_walks_its_eager_twin_through_the_moves() {
    let k = 6;
    let build = |eager: bool| {
        let mut driver = Scenario::new(protocol())
            .topology(two_groups(k))
            .seed(9)
            .build_events(EventConfig::default())
            .expect("valid event scenario");
        driver.set_eager(eager);
        driver
    };
    let (mut gated, mut eager) = (build(false), build(true));
    for period in 1..=30 {
        if period == 8 {
            let moves = merge_moves(k);
            assert_eq!(gated.apply_moves(&moves), eager.apply_moves(&moves));
        }
        gated.step();
        eager.step();
        assert!(
            gated.states() == eager.states(),
            "trajectories diverged in period {period}"
        );
    }
    assert_eq!(gated.run_to(&stop()), eager.run_to(&stop()));
    assert_caches_are_neighborhoods(gated.topology(), gated.states());
    assert!(gated.states() == eager.states(), "one end state");
}

/// The actor fabric through the same moves, period by period, beside
/// the round driver: degrees grow from 5 to 11, past the reception
/// rows' slack, so the reception arena — and the mailbox arena laid out
/// over it — is re-laid out between two periods. `DensityCluster`'s
/// receives commute, so every thread count must walk the rounds'
/// trajectory exactly: states and delivered frames, every period.
#[test]
fn the_actor_fabric_walks_the_rounds_through_a_mailbox_re_layout() {
    let k = 6;
    let scenario = || Scenario::new(protocol()).topology(two_groups(k)).seed(8);
    for threads in [1, 4] {
        let mut rounds = scenario().build().expect("valid scenario");
        let mut actors = scenario()
            .build_actors(threads)
            .expect("valid actor scenario");
        for period in 1..=30 {
            if period == 8 {
                let moves = merge_moves(k);
                assert_eq!(rounds.apply_moves(&moves), actors.apply_moves(&moves));
                assert_eq!(actors.topology().degree(NodeId::new(0)), 2 * k as usize - 1);
            }
            rounds.step();
            actors.step();
            let (r, a) = (rounds.last_activity(), actors.last_activity());
            assert_eq!(
                r.frames_delivered, a.frames_delivered,
                "threads {threads}, period {period}"
            );
            assert!(
                rounds.states() == actors.states(),
                "threads {threads}: trajectories diverged in period {period}"
            );
        }
        assert_eq!(rounds.run_to(&stop()), actors.run_to(&stop()));
        assert_caches_are_neighborhoods(actors.topology(), actors.states());
    }
}

/// A forged entry whose view is longer than any hint: `len` ids.
fn forged(len: u32) -> NeighborEntry {
    let summary = |i: u32| PeerSummary {
        id: NodeId::new(500 + i),
        dag_id: i,
        density: Density::integer(i),
        head: NodeId::new(500 + i),
    };
    NeighborEntry {
        last_seen: 0,
        dag_id: 1,
        density: Density::integer(2),
        head: NodeId::new(3),
        view: (0..len).map(summary).collect(),
    }
}

#[test]
fn a_cache_forged_past_its_hint_keeps_every_entry() {
    let k = 6;
    let (sized, early) = (NodeId::new(0), NodeId::new(k));
    let mut net = Scenario::new(protocol())
        .topology(two_groups(k))
        .seed(4)
        .build()
        .expect("valid scenario");
    // Node `early` is forged before any frame lands, so its cache has
    // allocated and the hint passes it by; node `sized` takes its hint
    // at the first frame and is forged past it afterwards.
    net.corrupt(early);
    net.step();
    net.step();
    net.corrupt(sized);
    let ghosts: Vec<NodeId> = (0..3 * k).map(|g| NodeId::new(100 + g)).collect();
    for p in [sized, early] {
        let cache = &mut net.state_mut(p).cache;
        for &g in &ghosts {
            cache.insert(g, forged(40));
        }
        cache.check().expect("a consistent forged cache");
        for &g in &ghosts {
            let (_, view) = cache.get(&g).expect("every ghost is kept");
            assert_eq!(view.len(), 40, "with its whole view");
        }
    }
    // The real neighbors join the ghosts as their frames land; past
    // stamps keep the ghosts (the event-driven ghost-entry gap).
    assert!(net.run_to(&stop()).stabilized.is_some());
    for p in [sized, early] {
        let cache = &net.state(p).cache;
        cache.check().expect("a consistent cache");
        for &q in net.topology().neighbors(p) {
            let (_, view) = cache.get(&q).expect("every neighbor is cached");
            assert_eq!(view, net.topology().neighbors(q));
        }
        for &g in &ghosts {
            assert_eq!(cache.get(&g).map(|(_, view)| view.len()), Some(40));
        }
    }
}
