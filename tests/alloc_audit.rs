//! Steady-state allocation audit for the engine's hot loops.
//!
//! The kernel layer's pooling claim, in numbers: once every reusable
//! buffer has reached its high-water mark (one cold-start pass sizes
//! them), the round driver's step loop performs **zero heap
//! allocations** — converging storm and quiet phase alike — and the
//! sharded pass allocates only its shard list and the constant
//! thread-spawn overhead, independent of network size; the automatic
//! shard policy adds nothing to the count it resolves to.
//!
//! The audit covers the paper's own protocol too: with the pooled
//! `beacon_into` rebuild, a `DensityCluster` converging wave (states
//! scrambled, caches intact) re-runs N1/R1/R2 across the whole grid
//! without touching the heap. Only cache *re-discovery* — a cleared
//! cache re-learning its neighborhood — may allocate, which is why the
//! protocol phase perturbs states directly instead of `corrupt_all`.
//!
//! The actor fabric is audited on the same wave: its senders encode
//! into per-worker byte arenas, its receivers decode into one pooled
//! beacon and mutate their states in place, so a one-thread period
//! allocates nothing however many actors run and however many frames
//! fly.
//!
//! So is the event driver, again on the same wave. Each
//! transmission's beacon is copied once into a pooled entry that all
//! its frame copies share, a frame is a plain `Copy` record in a
//! sorted lane, and change detection asks the protocol instead of
//! snapshotting — so a beacon period allocates nothing, however many
//! frames land in it.
//!
//! The contention media ride the same wave on both clocks, gated and
//! eager. Slotted CSMA keeps its slot claims, tallies and participant
//! lists in a generation-stamped scratch it owns, and capture CSMA its
//! slot marks and ranked contenders, so neither a storm round over
//! every sender — folded or eager — nor a one-sender call on the event
//! clock allocates.
//!
//! The audit installs a counting [`GlobalAlloc`] wrapper around the
//! system allocator. All phases run inside a single `#[test]` so no
//! concurrent test pollutes the process-wide counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mwn_sim::Activity;
use rand::rngs::StdRng;
use selfstab::prelude::*;

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocations performed while stepping `net` for `steps` steps.
fn allocs_during<P, M>(net: &mut mwn_sim::Network<P, M>, steps: u64) -> usize
where
    P: Protocol,
    M: Medium,
{
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..steps {
        net.step();
    }
    ALLOCS.load(Ordering::Relaxed) - before
}

/// One storm's worth of wrong shared variables for node `i` of `nodes`
/// — wrong density, wrong head, wrong dag id — with the neighbor cache
/// left intact, so the re-convergence re-runs N1/R1/R2 everywhere
/// without any cache having to re-learn (and re-allocate) its entries.
fn scramble(state: &mut ClusterState, i: u32, nodes: u32, round: u32) {
    state.dag_id = u32::MAX - round;
    state.density = Density::integer(round);
    state.head = NodeId::new((i + 7 * (round + 1)) % nodes);
}

/// A heap-free gated max-flood: plain `u32` state and beacon, so every
/// allocation the audit sees belongs to the engine, not the protocol.
struct GatedFlood;

impl Protocol for GatedFlood {
    type State = u32;
    type Beacon = u32;
    fn init(&self, node: NodeId, _rng: &mut StdRng) -> u32 {
        node.value()
    }
    fn beacon(&self, _node: NodeId, state: &u32) -> u32 {
        *state
    }
    fn receive(&self, _node: NodeId, state: &mut u32, _from: NodeId, beacon: &u32, _now: u64) {
        *state = (*state).max(*beacon);
    }
    fn update(&self, node: NodeId, state: &mut u32, _now: u64, _rng: &mut StdRng) {
        *state = (*state).max(node.value());
    }
    fn activity(&self) -> Activity {
        Activity::Gated
    }
    fn beacon_changed(&self, old: &u32, new: &u32) -> bool {
        old != new
    }
}

impl Corruptible for GatedFlood {
    fn corrupt(&self, _node: NodeId, state: &mut u32, _rng: &mut StdRng) {
        *state = 0;
    }
}

impl Observable for GatedFlood {
    type Output = u32;
    fn output(&self, _node: NodeId, state: &u32) -> u32 {
        *state
    }
}

/// Builds an 8-neighborhood grid network with every buffer warmed: one
/// full converge (cold start activates every node, so the dirty sets,
/// delivery rows and visit buffers all reach their high-water marks).
fn warmed(side: usize, shards: Option<usize>) -> mwn_sim::Network<GatedFlood, PerfectMedium> {
    let mut net = Scenario::new(GatedFlood)
        .topology(builders::grid(side, side, 1.45 / (side - 1) as f64))
        .seed(7)
        .build()
        .expect("valid scenario");
    net.set_shards(shards);
    net.run_to(&StopWhen::stable_for(3).within(10_000))
        .expect_stable("the flood converges");
    net.run(3); // drain the last pending beacons
    net
}

#[test]
fn steady_state_loops_do_not_allocate() {
    // --- Serial, converging storm -----------------------------------
    // corrupt_all wakes every node; the re-convergence that follows is
    // exactly the cold-start converging phase, but with warmed buffers:
    // it must run allocation-free, step after step.
    let mut net = warmed(40, Some(1));
    net.corrupt_all();
    assert!(
        allocs_during(&mut net, 2) < 50,
        "warmup steps right after corruption stay near-free"
    );
    let storm = allocs_during(&mut net, 25);
    assert_eq!(
        storm, 0,
        "serial converging loop must not allocate ({storm} allocs in 25 storm steps)"
    );
    assert!(
        net.last_activity().updates > 0,
        "the audit window must actually cover converging work"
    );

    // --- Serial, eager (every node active every step) ---------------
    // Eager mode is the cost model of the converging phase: the whole
    // network runs receives + updates each step, forever.
    net.set_eager(true);
    net.run(2);
    let eager = allocs_during(&mut net, 10);
    assert_eq!(eager, 0, "eager full-network steps must not allocate");
    net.set_eager(false);

    // --- Serial, quiet ----------------------------------------------
    net.run_to(&StopWhen::stable_for(3).within(10_000))
        .expect_stable("re-converges");
    net.run(3);
    let quiet = allocs_during(&mut net, 50);
    assert_eq!(quiet, 0, "quiet steps must not allocate");

    // --- Sharded: constant overhead, independent of network size ----
    // The shards work in place, so the sharded pass's only
    // steady-state allocations are its shard list and the
    // scoped-thread spawns: a per-step constant. An O(active)
    // allocation pattern would scale ~16× between these sizes; the
    // spawn overhead does not scale at all.
    let steps = 12u64;
    let per_step = |side: usize, shards: Option<usize>| {
        let mut net = warmed(side, shards);
        net.set_eager(true); // full active set every step
        net.run(2);
        allocs_during(&mut net, steps) as f64 / steps as f64
    };
    let small = per_step(10, Some(4)); // n = 100
    let large = per_step(40, Some(4)); // n = 1600
    assert!(
        large <= small + 2.0,
        "sharded per-step allocations must not grow with n \
         (n=100: {small:.1}/step, n=1600: {large:.1}/step)"
    );
    // The automatic policy resolves its shard count once, when the
    // network is built: with 1 600 nodes active it shards by the core
    // count, and a step costs what that count costs when forced —
    // asking the OS again every step (cgroup file reads) would show.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (auto, forced) = (per_step(40, None), per_step(40, Some(cores)));
    assert!(
        auto <= forced,
        "the automatic shard policy must add no per-step allocation \
         (auto: {auto:.1}/step, {cores} forced shards: {forced:.1}/step)"
    );

    // --- DensityCluster: converging phase, caches intact ------------
    // The paper's protocol under the gated engine. Repeated rounds of
    // state scrambling (wrong density, wrong head, wrong dag id on
    // every node) kick off genuine converging waves: the polluted
    // beacons propagate, neighbors overwrite cache entries in place,
    // elections re-run — and with `beacon_into` pooling the view
    // rebuild, none of it allocates. Cache *structure* never changes,
    // so every view buffer keeps its settled capacity.
    let mut net = Scenario::new(DensityCluster::new(ClusterConfig::default().event_driven()))
        .topology(builders::grid(20, 20, 1.45 / 19.0))
        .seed(7)
        .build()
        .expect("valid scenario");
    net.set_shards(Some(1));
    net.run_to(&StopWhen::stable_for(3).within(10_000))
        .expect_stable("the clustering converges");
    net.run(3);
    let nodes = net.states().len() as u32;
    let scramble_all = |net: &mut mwn_sim::Network<DensityCluster, PerfectMedium>, round: u32| {
        for i in 0..nodes {
            scramble(net.state_mut(NodeId::new(i)), i, nodes, round);
        }
    };
    // Warmup storms: the swapped beacon buffers circulate between
    // nodes, so each one's view capacity climbs to the global maximum
    // over a few storms (~1 realloc per step while climbing).
    for round in 0..5u32 {
        scramble_all(&mut net, round);
        assert!(
            allocs_during(&mut net, 5) < 50,
            "protocol warmup storms stay near-free"
        );
    }
    // Measured storms: every buffer is at its high-water mark; the
    // full N1/R1/R2 re-convergence must not touch the heap.
    let mut converging_steps = 0usize;
    for round in 5..9u32 {
        scramble_all(&mut net, round);
        for _ in 0..4 {
            let before = ALLOCS.load(Ordering::Relaxed);
            net.step();
            let during = ALLOCS.load(Ordering::Relaxed) - before;
            if net.last_activity().updates > 0 {
                converging_steps += 1;
            }
            assert_eq!(
                during, 0,
                "DensityCluster converging step allocated {during} times"
            );
        }
    }
    assert!(
        converging_steps >= 10,
        "the protocol audit window must cover real converging work \
         ({converging_steps} active steps seen)"
    );

    // --- Actor fabric: the same converging wave as message passing --
    // Every frame is encoded into a send worker's byte arena and
    // decoded into a receive worker's pooled beacon; every woken actor
    // mutates its state in place; one worker runs on the calling
    // thread, so nothing is left to allocate per period, whatever the
    // grid side and however many frames fly.
    let per_period = |side: usize| {
        let mut actors =
            Scenario::new(DensityCluster::new(ClusterConfig::default().event_driven()))
                .topology(builders::grid(side, side, 1.45 / (side - 1) as f64))
                .seed(7)
                .build_actors(1)
                .expect("valid actor scenario");
        actors
            .run_to(&StopWhen::stable_for(3).within(10_000))
            .expect_stable("the clustering converges on the actor fabric");
        actors.run(3);
        let nodes = actors.states().len() as u32;
        let (mut allocs, mut periods, mut frames) = (0usize, 0usize, 0usize);
        for round in 0..12u32 {
            for i in 0..nodes {
                scramble(actors.state_mut(NodeId::new(i)), i, nodes, round);
            }
            for _ in 0..4 {
                let before = ALLOCS.load(Ordering::Relaxed);
                actors.step();
                let during = ALLOCS.load(Ordering::Relaxed) - before;
                // Rounds 0–7 warm up: arenas, mailboxes and the pooled
                // views climb to their high-water marks (the swapped
                // beacon buffers circulate, as in the phase above).
                if round >= 8 && actors.last_activity().updates > 0 {
                    allocs += during;
                    periods += 1;
                    frames += actors.last_activity().frames_delivered;
                }
            }
        }
        assert!(
            periods >= 10 && frames > 20 * nodes as usize,
            "the actor audit window must cover real converging work \
             ({periods} active periods, {frames} frames at side {side})"
        );
        allocs as f64 / periods as f64
    };
    let small = per_period(10); // n = 100
    let large = per_period(20); // n = 400
    assert!(
        small == 0.0 && large == 0.0,
        "a steady-state actor period must not allocate \
         (n=100: {small:.1}/period, n=400: {large:.1}/period)"
    );

    // --- Event driver: the same wave on the continuous clock --------
    // One pooled beacon per transmission, `Copy` frames in a sorted
    // lane, change reports instead of snapshots: once the pool, the
    // lane and the views have reached their high-water marks, nothing
    // in a beacon period touches the heap — whatever the grid side and
    // however many frames land.
    let per_period = |side: usize| {
        let mut events =
            Scenario::new(DensityCluster::new(ClusterConfig::default().event_driven()))
                .topology(builders::grid(side, side, 1.45 / (side - 1) as f64))
                .seed(7)
                .build_events(EventConfig::default())
                .expect("valid event scenario");
        events
            .run_to(&StopWhen::stable_for(3).within(10_000))
            .expect_stable("the clustering converges on the event clock");
        let nodes = events.states().len() as u32;
        let (mut allocs, mut periods, mut frames) = (0usize, 0usize, 0u64);
        for round in 0..16u32 {
            for i in 0..nodes {
                scramble(events.state_mut(NodeId::new(i)), i, nodes, round);
            }
            for _ in 0..4 {
                let (before, landed) = (ALLOCS.load(Ordering::Relaxed), events.frames_delivered());
                events.step();
                let during = ALLOCS.load(Ordering::Relaxed) - before;
                let landed = events.frames_delivered() - landed;
                // Rounds 0–7 warm up, as in the phases above.
                if round >= 8 && landed > 0 {
                    allocs += during;
                    periods += 1;
                    frames += landed;
                }
            }
        }
        assert!(
            periods >= 10 && frames > 20 * u64::from(nodes),
            "the event audit window must cover real converging work \
             ({periods} active periods, {frames} frames at side {side})"
        );
        allocs as f64 / periods as f64
    };
    let small = per_period(10); // n = 100
    let large = per_period(20); // n = 400
    assert!(
        small <= 1.0 && large <= 1.0,
        "a steady-state event-driver period must not allocate per frame \
         (n=100: {small:.1}/period, n=400: {large:.1}/period)"
    );

    // --- Contention media: the wave under CSMA, both clocks ---------
    contention_steps_do_not_allocate(SlottedCsma::new(8));
    contention_steps_do_not_allocate(CaptureCsma::new(8, 1.5));
}

/// The contention phase of the audit, on one medium.
fn contention_steps_do_not_allocate<M: Medium + Clone>(medium: M) {
    let name = medium.name();
    // A 4-neighborhood grid, so a delivery row's first allocation (four
    // entries) already holds every frame a node can hear in one round:
    // what is left to warm is the medium's own scratch, which a storm
    // over all senders and a tail among mostly-occupied neighbors bring
    // to their high-water marks. Every step of a re-convergence is then
    // audited: the storm (most nodes sending, exact race among them),
    // the sparse tail (few senders, phantoms materialized around them)
    // and the quiet steps after it.
    let csma_scenario = || {
        Scenario::new(DensityCluster::new(ClusterConfig::default().event_driven()))
            .topology(builders::grid(20, 20, 1.05 / 19.0))
            .medium(medium.clone())
            .seed(7)
    };
    let mut net = csma_scenario().build().expect("valid scenario");
    net.set_shards(Some(1));
    net.run_to(&StopWhen::stable_for(10).within(10_000))
        .expect_stable(&format!("the clustering converges under {name}"));
    let nodes = net.states().len() as u32;
    let (mut storm, mut tail, mut quiet) = (0usize, 0usize, 0usize);
    for round in 0..9u32 {
        for i in 0..nodes {
            scramble(net.state_mut(NodeId::new(i)), i, nodes, round);
        }
        // A wave under loss runs some 70–90 steps before it falls quiet.
        for _ in 0..120 {
            let before = ALLOCS.load(Ordering::Relaxed);
            net.step();
            let during = ALLOCS.load(Ordering::Relaxed) - before;
            if round < 6 {
                continue; // warm-up waves, as in the phases above
            }
            assert_eq!(
                during,
                0,
                "{name} step with {} senders allocated {during} times",
                net.last_activity().senders
            );
            match net.last_activity().senders as u32 {
                0 => quiet += 1,
                senders if senders < nodes / 10 => tail += 1,
                senders if senders > nodes / 2 => storm += 1,
                _ => {}
            }
        }
    }
    assert!(
        storm >= 10 && tail >= 10 && quiet >= 10,
        "the {name} audit window must cover storm, tail and quiet steps \
         ({storm} storm, {tail} tail, {quiet} quiet seen)"
    );

    // Eager scheduling: every node sends every step, so each step is
    // one all-sender round on the sequential medium stream
    // (`Medium::deliver_into`), never the occupancy fold. Every step
    // then has the same senders; the wave's phases show in how many
    // outputs a step moved instead (read outside the audited call).
    net.set_eager(true);
    let (mut storm, mut tail, mut quiet) = (0usize, 0usize, 0usize);
    let (mut was, mut now) = (net.outputs(), Vec::new());
    for round in 0..9u32 {
        for i in 0..nodes {
            scramble(net.state_mut(NodeId::new(i)), i, nodes, round);
        }
        for _ in 0..120 {
            let before = ALLOCS.load(Ordering::Relaxed);
            net.step();
            let during = ALLOCS.load(Ordering::Relaxed) - before;
            net.outputs_into(&mut now);
            let moved = was.iter().zip(&now).filter(|(a, b)| a != b).count() as u32;
            std::mem::swap(&mut was, &mut now);
            if round < 6 {
                continue;
            }
            assert_eq!(
                during, 0,
                "{name} eager step moving {moved} outputs allocated {during} times"
            );
            match moved {
                0 => quiet += 1,
                moved if moved < nodes / 10 => tail += 1,
                moved if moved > nodes / 4 => storm += 1,
                _ => {}
            }
        }
    }
    assert!(
        storm >= 10 && tail >= 10 && quiet >= 10,
        "the {name} eager audit window must cover storm, tail and quiet \
         steps ({storm} storm, {tail} tail, {quiet} quiet seen)"
    );

    // On the event clock every transmission is a one-sender call
    // against the full population: its cost — and its allocations —
    // must be its 2-hop neighborhood's, not n's. Rounds 0–7 warm up, as
    // in the event driver's phase above: the pool of transmissions in
    // flight grows to its high-water mark (under capture CSMA the
    // seventh wave still adds entries).
    let mut events = csma_scenario()
        .build_events(EventConfig::default())
        .expect("valid event scenario");
    events
        .run_to(&StopWhen::stable_for(10).within(10_000))
        .expect_stable(&format!("{name} converges on the event clock"));
    let (mut periods, mut frames) = (0usize, 0u64);
    for round in 0..12u32 {
        for i in 0..nodes {
            scramble(events.state_mut(NodeId::new(i)), i, nodes, round);
        }
        for _ in 0..30 {
            let (before, landed) = (ALLOCS.load(Ordering::Relaxed), events.frames_delivered());
            events.step();
            let during = ALLOCS.load(Ordering::Relaxed) - before;
            let landed = events.frames_delivered() - landed;
            if round >= 8 && landed > 0 {
                assert_eq!(
                    during, 0,
                    "a {name} beacon period landing {landed} frames allocated {during} times"
                );
                periods += 1;
                frames += landed;
            }
        }
    }
    assert!(
        periods >= 10 && frames > 10 * u64::from(nodes),
        "the {name} event audit window must cover real converging work \
         ({periods} active periods, {frames} frames)"
    );
}
