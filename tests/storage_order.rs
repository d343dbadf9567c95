//! The node table's storage order is a layout, not a semantic.
//!
//! A unit-disk deployment is stored by radio cell: every per-node
//! column of the engine — states, beacons, epochs, reception rows,
//! dirty sets — is indexed by a node's slot in that order, and only the
//! boundary (protocol calls, stream keys, faults, media, outputs)
//! speaks in ids. A topology built from the same edge list has no
//! positions, so it is stored by id. Run side by side, the two must be
//! indistinguishable through everything a driver lets a caller see —
//! states by id, outputs, activity counts, the changed list, message
//! totals and reports — on every driver, medium, shard count and
//! scheduling mode, through faults of every kind that rewires, silences
//! or forges.
//!
//! And reading the states — which publishes the state column in id
//! order, to be moved back by the next step that touches a state — must
//! leave no trace either.

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfstab::prelude::*;
use selfstab::sim::{ActorDriver, EventDriver, Network};

fn protocol() -> DensityCluster {
    DensityCluster::new(ClusterConfig::default().event_driven())
}

/// A Poisson deployment, stored by cell, and the same graph built from
/// its edge list, stored by id.
fn twins(lambda: f64, radius: f64, seed: u64) -> (Topology, Topology) {
    let placed = builders::poisson(lambda, radius, &mut StdRng::seed_from_u64(seed));
    let edges: Vec<(u32, u32)> = placed
        .edges()
        .map(|(u, v)| (u.value(), v.value()))
        .collect();
    let bare = Topology::from_edges(placed.len(), &edges).expect("the deployment's own edges");
    assert!(placed.radius().is_some() && bare.positions().is_none());
    assert_eq!(placed.edge_count(), bare.edge_count());
    (placed, bare)
}

/// Every kind of fault the engine applies, spread over the first steps:
/// corruption, isolation, a crash that recovers, a partition that heals
/// and Byzantine beacons of both kinds.
fn faults(n: usize) -> FaultPlan {
    let node = |i: usize| NodeId::new((i * 7919 % n) as u32);
    let mut plan = FaultPlan::new();
    plan.at(3, Fault::CorruptNode(node(1)))
        .at(5, Fault::Isolate(node(2)))
        .at(
            6,
            Fault::CrashRecover {
                node: node(3),
                dark_for: 4,
            },
        )
        .at(
            8,
            Fault::PartitionHeal {
                cut: (0..n as u32 / 3).map(NodeId::new).collect(),
                heal_at: 13,
            },
        )
        .at(
            9,
            Fault::ByzantineBeacon {
                node: node(4),
                lie: Lie::Forged,
                until: 14,
            },
        )
        .at(
            10,
            Fault::ByzantineBeacon {
                node: node(5),
                lie: Lie::Replayed,
                until: 12,
            },
        )
        .at(16, Fault::CorruptFraction(0.2));
    plan
}

fn scenario(topo: &Topology, seed: u64, plan: &FaultPlan) -> Scenario<DensityCluster> {
    Scenario::new(protocol())
        .topology(topo.clone())
        .seed(seed)
        .faults(plan.clone())
}

/// Steps the cell-ordered and the id-ordered round driver side by
/// side: `mode` 0 gated, 1 pinned eager, 2 eager for 11 steps then
/// gated.
fn rounds_agree<M: Medium + Clone>(medium: M, shards: usize, mode: u8, seed: u64) {
    let (placed, bare) = twins(220.0, 0.14, seed);
    let plan = faults(placed.len());
    let build = |topo: &Topology| -> Network<DensityCluster, M> {
        let mut net = scenario(topo, seed, &plan)
            .medium(medium.clone())
            .build()
            .expect("a valid scenario");
        net.set_shards(Some(shards));
        net.set_eager(mode > 0);
        net
    };
    let (mut cells, mut ids) = (build(&placed), build(&bare));
    let at = |step: u64| {
        format!(
            "{}, {shards} shards, mode {mode}, step {step}",
            medium.name()
        )
    };
    for step in 0..30 {
        if mode == 2 && step == 11 {
            cells.set_eager(false);
            ids.set_eager(false);
        }
        assert_eq!(cells.step(), ids.step());
        assert_eq!(cells.outputs(), ids.outputs(), "{}", at(step));
        assert_eq!(cells.last_activity(), ids.last_activity(), "{}", at(step));
        assert_eq!(cells.last_changed(), ids.last_changed(), "{}", at(step));
        assert_eq!(cells.messages_total(), ids.messages_total(), "{}", at(step));
        assert_eq!(cells.states(), ids.states(), "{}", at(step));
    }
    let stop = StopWhen::stable_for(3).within(400);
    assert_eq!(cells.run_to(&stop), ids.run_to(&stop), "{}", at(30));
    assert_eq!(cells.states(), ids.states(), "{}", at(cells.now()));
}

#[test]
fn the_round_driver_cannot_tell_the_orders_apart() {
    for shards in [1, 2, 4, 7] {
        for mode in 0..3 {
            rounds_agree(PerfectMedium, shards, mode, 11);
        }
    }
    for (shards, mode) in [(1, 0), (4, 0), (2, 2), (7, 1)] {
        rounds_agree(BernoulliLoss::new(0.7), shards, mode, 12);
    }
}

#[test]
fn gated_contention_cannot_tell_the_orders_apart() {
    for shards in [1, 4] {
        rounds_agree(SlottedCsma::new(8), shards, 0, 13);
    }
}

#[test]
fn the_event_driver_cannot_tell_the_orders_apart() {
    for (medium, eager) in [(0.75, false), (1.0, false), (0.75, true)] {
        let (placed, bare) = twins(160.0, 0.15, 21);
        let plan = faults(placed.len());
        let build = |topo: &Topology| -> EventDriver<DensityCluster, BernoulliLoss> {
            let mut d = scenario(topo, 21, &plan)
                .medium(BernoulliLoss::new(medium))
                .build_events(EventConfig::default())
                .expect("a valid event scenario");
            d.set_eager(eager);
            d
        };
        let (mut cells, mut ids) = (build(&placed), build(&bare));
        let counts = |d: &EventDriver<DensityCluster, BernoulliLoss>| {
            let frames = (d.frames_attempted(), d.frames_delivered());
            (
                d.messages_total(),
                d.events_processed(),
                d.updates(),
                frames,
            )
        };
        for period in 0..25 {
            assert_eq!(cells.step(), ids.step());
            let at = format!("τ = {medium}, eager {eager}, period {period}");
            assert_eq!(cells.outputs(), ids.outputs(), "{at}");
            assert_eq!(counts(&cells), counts(&ids), "{at}");
            assert_eq!(cells.states(), ids.states(), "{at}");
        }
        let stop = StopWhen::stable_for(3).within(300);
        assert_eq!(cells.run_to(&stop), ids.run_to(&stop));
        assert_eq!(cells.states(), ids.states());
    }
}

#[test]
fn the_actor_fabric_cannot_tell_the_orders_apart() {
    for threads in [1, 3] {
        let (placed, bare) = twins(220.0, 0.14, 31);
        let plan = faults(placed.len());
        let build = |topo: &Topology| -> ActorDriver<DensityCluster, BernoulliLoss> {
            scenario(topo, 31, &plan)
                .medium(BernoulliLoss::new(0.8))
                .build_actors(threads)
                .expect("a valid actor scenario")
        };
        let (mut cells, mut ids) = (build(&placed), build(&bare));
        for period in 0..30 {
            assert_eq!(cells.step(), ids.step());
            let at = format!("{threads} threads, period {period}");
            assert_eq!(cells.outputs(), ids.outputs(), "{at}");
            assert_eq!(cells.last_activity(), ids.last_activity(), "{at}");
            assert_eq!(cells.messages_total(), ids.messages_total(), "{at}");
            assert_eq!(cells.states(), ids.states(), "{at}");
        }
        let stop = StopWhen::stable_for(3).within(300);
        assert_eq!(cells.run_to(&stop), ids.run_to(&stop), "{threads} threads");
        assert_eq!(cells.states(), ids.states(), "{threads} threads");
    }
}

/// The perturbation both runs of the reading test get: `p` forgets its
/// head.
fn perturb(state: &mut ClusterState, p: NodeId) {
    state.head = p;
    state.parent = p;
}

#[test]
fn reading_states_leaves_no_trace() {
    let (placed, _) = twins(260.0, 0.13, 41);
    let n = placed.len();
    let plan = faults(n);
    let victim = |step: u64| NodeId::new((step * 31 % n as u64) as u32);
    // The round driver, gated and eager.
    for eager in [false, true] {
        let build = || {
            let mut net = scenario(&placed, 41, &plan)
                .build()
                .expect("a valid scenario");
            net.set_eager(eager);
            net
        };
        let (mut reader, mut quiet) = (build(), build());
        for step in 0..40 {
            if step % 5 == 2 {
                perturb(reader.state_mut(victim(step)), victim(step));
                perturb(quiet.state_mut(victim(step)), victim(step));
            }
            reader.step();
            quiet.step();
            // Whole column, then one node, then the whole column again.
            let before = reader.states().to_vec();
            assert_eq!(reader.state(victim(step)), &before[victim(step).index()]);
            assert_eq!(reader.states(), before);
            assert_eq!(reader.last_activity(), quiet.last_activity(), "step {step}");
        }
        let stop = StopWhen::stable_for(3).within(300);
        assert_eq!(reader.run_to(&stop), quiet.run_to(&stop));
        assert_eq!(reader.outputs(), quiet.outputs());
        assert_eq!(reader.messages_total(), quiet.messages_total());
        assert_eq!(reader.states(), quiet.states(), "eager {eager}");
    }
    // The event driver and the actor fabric.
    let build = || {
        let d = scenario(&placed, 42, &plan);
        d.build_events(EventConfig::default())
            .expect("a valid event scenario")
    };
    let (mut reader, mut quiet) = (build(), build());
    for period in 0..30 {
        if period % 4 == 1 {
            perturb(reader.state_mut(victim(period)), victim(period));
            perturb(quiet.state_mut(victim(period)), victim(period));
        }
        reader.step();
        quiet.step();
        let before = reader.states().to_vec();
        assert_eq!(
            reader.state(victim(period)),
            &before[victim(period).index()]
        );
    }
    assert_eq!(reader.messages_total(), quiet.messages_total());
    assert_eq!(reader.events_processed(), quiet.events_processed());
    assert_eq!(reader.states(), quiet.states());
    for threads in [1, 2] {
        let build = || {
            let d = scenario(&placed, 43, &plan);
            d.build_actors(threads).expect("a valid actor scenario")
        };
        let (mut reader, mut quiet) = (build(), build());
        for period in 0..30 {
            if period % 4 == 3 {
                perturb(reader.state_mut(victim(period)), victim(period));
                perturb(quiet.state_mut(victim(period)), victim(period));
            }
            reader.step();
            quiet.step();
            assert_eq!(reader.states()[0], *reader.state(NodeId::new(0)));
            assert_eq!(reader.last_activity(), quiet.last_activity());
        }
        assert_eq!(reader.states(), quiet.states(), "{threads} threads");
    }
}

/// The counters the gate and the settle rule feed: a gated storm over a
/// deployment holds frames and settles passes, an eager one neither.
#[test]
fn held_frames_and_settled_passes_are_counted_under_gating_only() {
    let (placed, _) = twins(300.0, 0.12, 51);
    for eager in [false, true] {
        let mut net = Scenario::new(protocol())
            .topology(placed.clone())
            .seed(51)
            .build()
            .expect("a valid scenario");
        net.set_eager(eager);
        let (mut held, mut settled) = (0, 0);
        for _ in 0..40 {
            net.step();
            let a = net.last_activity();
            held += a.held;
            settled += a.settled;
            assert!(a.settled <= a.held, "a settled pass follows a held frame");
        }
        if eager {
            assert_eq!((held, settled), (0, 0));
        } else {
            assert!(held > 0 && settled > 0, "held {held}, settled {settled}");
        }
    }
}
