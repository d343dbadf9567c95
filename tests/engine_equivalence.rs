//! The activity-driven engine's contract, end to end: **gated
//! execution is unobservable**. For every protocol that declares
//! `Activity::Gated`, running with dirty-set scheduling (quiescent
//! nodes skipped, silent senders muted) must produce byte-identical
//! states, observable outputs, and `RunReport`s to eager execution
//! (every guard re-run, every beacon re-broadcast, every step) — across
//! seeds, topologies, media, faults and mobility.
//!
//! This is what makes the near-zero cost of stable regions a pure
//! optimization rather than a semantic change, and it is only possible
//! because every random stream is derived per (step, node) /
//! (step, sender): a skipped node consumes no randomness.

use mwn_sim::kernels;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selfstab::prelude::*;

mod testkit;
use testkit::first_divergence;

/// Steps a gated and a pinned-eager twin in lockstep for `steps`
/// steps, asserting byte-identical state trajectories (a divergence
/// names its step and its first node), then returns both end states.
fn lockstep<M, F>(build: F, steps: u64) -> Vec<(NodeId, NodeId)>
where
    M: Medium,
    F: Fn() -> mwn_sim::Network<DensityCluster, M>,
{
    let mut gated = build();
    let mut eager = build();
    eager.set_eager(true);
    assert!(!eager.is_gated());
    for s in 0..steps {
        gated.step();
        eager.step();
        if let Some(node) = first_divergence(gated.states(), eager.states()) {
            panic!("trajectories diverged at step {s} (left gated, right eager) at {node}");
        }
    }
    gated
        .states()
        .iter()
        .map(|st| (st.head, st.parent))
        .collect()
}

fn event_driven_config() -> ClusterConfig {
    ClusterConfig::default().event_driven()
}

#[test]
fn gated_equals_eager_on_perfect_medium_trajectories() {
    for seed in 0..4 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let topo = builders::uniform(60, 0.16, &mut rng);
        lockstep(
            || {
                Scenario::new(DensityCluster::new(event_driven_config()))
                    .topology(topo.clone())
                    .seed(seed)
                    .build()
                    .expect("valid scenario")
            },
            40,
        );
    }
}

#[test]
fn gated_equals_eager_under_bernoulli_loss() {
    for seed in 0..4 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(100 + seed);
        let topo = builders::uniform(50, 0.18, &mut rng);
        lockstep(
            || {
                Scenario::new(DensityCluster::new(event_driven_config()))
                    .medium(BernoulliLoss::new(0.6))
                    .topology(topo.clone())
                    .seed(seed)
                    .build()
                    .expect("valid scenario")
            },
            60,
        );
    }
}

#[test]
fn gated_equals_eager_under_distance_fading() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let topo = builders::uniform(50, 0.18, &mut rng);
    lockstep(
        || {
            Scenario::new(DensityCluster::new(event_driven_config()))
                .medium(DistanceFading::new(2.0, 0.3))
                .topology(topo.clone())
                .seed(9)
                .build()
                .expect("valid scenario")
        },
        60,
    );
}

#[test]
fn contention_media_gate_through_statistical_occupancy() {
    // Since the gated-contention contract, CSMA fates fold silent
    // in-range transmitters in statistically, so the engine gates them
    // too. The claim is distributional (see `tests/gated_csma.rs`),
    // not byte-identical, so here we only pin the wiring: gating is on,
    // every node retires (and so occupies its slot statistically), and
    // a stabilized network really does go silent.
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let topo = builders::uniform(40, 0.2, &mut rng);
    let build = || {
        Scenario::new(DensityCluster::new(event_driven_config()))
            .medium(SlottedCsma::new(16))
            .topology(topo.clone())
            .seed(4)
            .build()
            .expect("valid scenario")
    };
    let mut net = build();
    assert!(
        net.is_gated(),
        "gated contention must extend dirty-set gating to CSMA"
    );
    let report = net.run_to(&StopWhen::stable_for(10).within(800));
    report.expect_stable("CSMA run stabilizes");
    let (pending, _, _) = net.retirement_audit();
    assert!(
        pending.is_empty(),
        "after stabilization no node is send-pending: every node is statistically occupied"
    );
    let msgs = net.messages_total();
    for _ in 0..20 {
        net.step();
    }
    assert_eq!(
        net.messages_total(),
        msgs,
        "quiet CSMA steps must send nothing"
    );
}

#[test]
fn gated_equals_eager_with_scripted_faults() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(21);
    let topo = builders::uniform(45, 0.18, &mut rng);
    let build = || {
        let mut plan = FaultPlan::new();
        plan.at(10, Fault::CorruptFraction(0.4))
            .at(20, Fault::Isolate(NodeId::new(3)))
            .at(30, Fault::CorruptAll)
            .at(
                38,
                Fault::CrashRecover {
                    node: NodeId::new(7),
                    dark_for: 6,
                },
            )
            .at(
                46,
                Fault::ByzantineBeacon {
                    node: NodeId::new(11),
                    lie: Lie::Forged,
                    until: 50,
                },
            )
            .at(
                54,
                Fault::PartitionHeal {
                    cut: (0..20).map(NodeId::new).collect(),
                    heal_at: 60,
                },
            )
            .at(
                64,
                Fault::Jam {
                    region: Region::Disk {
                        x: 0.5,
                        y: 0.5,
                        r: 0.2,
                    },
                    until: 68,
                },
            );
        Scenario::new(DensityCluster::new(event_driven_config()))
            .topology(topo.clone())
            .seed(6)
            .faults(plan)
            .build()
            .expect("valid scenario")
    };
    lockstep(build, 85);
}

#[test]
fn gated_equals_eager_under_mobility_deltas() {
    let build = |seed: u64| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let topo = builders::uniform(50, 0.18, &mut rng);
        let model = RandomWaypoint::new(topo.len(), 0.0..=meters_per_second(25.0), 0.5);
        let dynamics = MobileScenario::new(topo.clone(), model, 5).into_dynamics(2.0);
        Scenario::new(DensityCluster::new(event_driven_config()))
            .topology(topo)
            .seed(seed)
            .mobility(dynamics)
            .build()
            .expect("valid scenario")
    };
    let mut gated = build(8);
    let mut eager = build(8);
    eager.set_eager(true);
    for s in 0..50 {
        gated.step();
        eager.step();
        assert_eq!(
            gated.topology(),
            eager.topology(),
            "mobility deltas diverged at step {s}"
        );
        assert_eq!(
            gated.states(),
            eager.states(),
            "states diverged under mobility at step {s}"
        );
    }
}

#[test]
fn gated_equals_eager_run_reports() {
    // The full run_to pipeline: identical RunReports (stabilization
    // step, steps executed, timeout flags) under composite conditions.
    for seed in 0..5 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(300 + seed);
        let topo = builders::uniform(55, 0.17, &mut rng);
        let run = |eager: bool| {
            let mut net = Scenario::new(DensityCluster::new(event_driven_config()))
                .topology(topo.clone())
                .seed(seed)
                .build()
                .expect("valid scenario");
            net.set_eager(eager);
            let first = net.run_to(&StopWhen::stable_for(4).within(500));
            net.inject(&Fault::CorruptAll).expect("a valid fault");
            let healed = net.run_to(
                &StopWhen::stable_for(3)
                    .and(StopWhen::max_steps(5))
                    .within(500),
            );
            (first, healed, net.outputs(), net.now())
        };
        assert_eq!(run(false), run(true), "seed {seed}");
    }
}

#[test]
fn gated_equals_eager_for_the_dag_protocol() {
    for seed in 0..4 {
        let topo = builders::grid(9, 9, 0.2);
        let gamma = NameSpace::delta_squared(topo.max_degree());
        let run = |eager: bool| {
            let mut net = Scenario::new(DagProtocol::event_driven(
                gamma,
                DagVariant::SmallestIdRedraws,
            ))
            .topology(topo.clone())
            .seed(seed)
            .build()
            .expect("valid scenario");
            net.set_eager(eager);
            let report = net.run_to(&StopWhen::stable_for(3).within(400));
            (report, net.outputs())
        };
        assert_eq!(run(false), run(true), "seed {seed}");
    }
}

#[test]
fn silence_is_total_after_stabilization() {
    // The acceptance criterion in numbers: once the output stabilizes,
    // active nodes and messages drop to exactly zero and stay there.
    let mut rng = rand::rngs::StdRng::seed_from_u64(41);
    let topo = builders::uniform(80, 0.15, &mut rng);
    let mut net = Scenario::new(DensityCluster::new(event_driven_config()))
        .topology(topo)
        .seed(12)
        .build()
        .expect("valid scenario");
    net.run_to(&StopWhen::stable_for(2).within(500))
        .expect_stable("stabilizes");
    // One or two more steps may drain the last pending beacons (quiet
    // output does not instantly imply every neighbor caught up).
    net.run(3);
    let frozen = net.messages_total();
    for _ in 0..50 {
        net.step();
        let a = net.last_activity();
        assert_eq!(a.senders, 0);
        assert_eq!(a.updates, 0);
        assert_eq!(a.frames_attempted, 0);
        assert_eq!(a.changed, 0);
    }
    assert_eq!(net.messages_total(), frozen);
}

#[test]
fn sharded_equals_serial_across_shard_counts() {
    // The deterministic owner-computes partition of the active-set
    // pass: every forced shard count must reproduce the serial
    // trajectory byte for byte — states, outputs, RunReports — through
    // loss, scripted faults and re-stabilization. This is what makes
    // the converging-phase parallelism testable on a 1-CPU container.
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let topo = builders::uniform(60, 0.16, &mut rng);
    let run = |shards: Option<usize>, eager: bool| {
        let mut plan = FaultPlan::new();
        plan.at(12, Fault::CorruptFraction(0.5))
            .at(25, Fault::CorruptAll);
        let mut net = Scenario::new(DensityCluster::new(event_driven_config()))
            .medium(BernoulliLoss::new(0.7))
            .topology(topo.clone())
            .seed(5)
            .faults(plan)
            .build()
            .expect("valid scenario");
        net.set_eager(eager);
        net.set_shards(shards);
        let report = net.run_to(&StopWhen::stable_for(6).within(800));
        (report, net.outputs(), net.messages_total(), net.now())
    };
    for eager in [false, true] {
        let serial = run(Some(1), eager);
        for shards in [2, 4, 7] {
            assert_eq!(
                serial,
                run(Some(shards), eager),
                "{shards} shards diverged from serial (eager = {eager})"
            );
        }
        assert_eq!(serial, run(None, eager), "auto sharding diverged");
    }
}

#[test]
fn sharded_equals_serial_while_mobility_relays_out_the_reception_arena() {
    // The shards write their nodes' reception rows in place, in runs
    // cut from one arena — and mobility re-aligns rows between steps.
    // A node whose degree outgrows its row's slack (`ROW_SLACK` = 2
    // spare entries) re-lays the whole arena out, so the next step's
    // runs are cut from different offsets. A crash-recover on top
    // severs and restores a node's links through the same path.
    let run = |shards: usize, eager: bool| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let topo = builders::uniform(50, 0.18, &mut rng);
        let initial: Vec<usize> = topo.nodes().map(|p| topo.degree(p)).collect();
        let model = RandomWaypoint::new(topo.len(), 0.0..=meters_per_second(25.0), 0.5);
        let dynamics = MobileScenario::new(topo.clone(), model, 5).into_dynamics(2.0);
        let mut plan = FaultPlan::new();
        plan.at(
            20,
            Fault::CrashRecover {
                node: NodeId::new(7),
                dark_for: 6,
            },
        );
        let mut net = Scenario::new(DensityCluster::new(event_driven_config()))
            .topology(topo)
            .seed(8)
            .faults(plan)
            .mobility(dynamics)
            .build()
            .expect("valid scenario");
        net.set_eager(eager);
        net.set_shards(Some(shards));
        let (mut grown, mut activity) = (0, Vec::new());
        for _ in 0..50 {
            net.step();
            activity.push(net.last_activity());
            let topo = net.topology();
            let growth = topo
                .nodes()
                .map(|p| topo.degree(p).saturating_sub(initial[p.index()]));
            grown = grown.max(growth.max().expect("50 nodes"));
        }
        assert!(grown > 2, "some row must outgrow its slack (grew {grown})");
        (activity, net.states().to_vec(), net.messages_total())
    };
    for eager in [false, true] {
        let serial = run(1, eager);
        for shards in [2, 4, 7] {
            assert!(
                serial == run(shards, eager),
                "{shards} shards diverged from serial under mobility (eager = {eager})"
            );
        }
    }
}

/// The paper's improved rules (Section 4.3): incumbency order and the
/// fusion head rule, under event-driven freshness — the one
/// configuration whose caches keep a claim per view, so the only one
/// that fills `NeighborCache`'s claims column. Gated beside eager
/// through a corruption of every node and an isolation: the round
/// driver step by step, the event clock at the end of each settled
/// stretch.
#[test]
fn gated_equals_eager_under_the_improved_rules() {
    let config = ClusterConfig {
        order: OrderKind::Stable,
        rule: HeadRule::Fusion,
        ..event_driven_config()
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(35);
    let topo = builders::uniform(60, 0.17, &mut rng);
    let scenario = || {
        let mut plan = FaultPlan::new();
        plan.at(20, Fault::CorruptAll)
            .at(40, Fault::Isolate(NodeId::new(9)));
        Scenario::new(DensityCluster::new(config))
            .topology(topo.clone())
            .seed(12)
            .faults(plan)
    };
    lockstep(|| scenario().build().expect("valid scenario"), 60);
    let events = |eager: bool| {
        let mut d = scenario()
            .build_events(EventConfig::default())
            .expect("valid event scenario");
        d.set_eager(eager);
        d
    };
    let (mut gated, mut eager) = (events(false), events(true));
    assert!(gated.is_gated() && !eager.is_gated());
    let mut relayed = 0;
    for t in [19.5, 39.5, 70.0] {
        gated.run_until_time(t);
        eager.run_until_time(t);
        assert_eq!(gated.states(), eager.states(), "t = {t}");
        let claims = |s: &ClusterState| s.cache.relayed_claims().count();
        relayed += gated.states().iter().map(claims).sum::<usize>();
    }
    assert!(relayed > 0, "the claims column was filled");
    assert!(gated.updates() < eager.updates());
}

#[test]
fn event_driver_gated_equals_eager_trajectories() {
    // The continuous-time counterpart of the round-driver equivalence:
    // on an independent-fates medium, muting silent senders (gated)
    // must be unobservable against the sequential eager reference that
    // transmits at every beacon slot — same states, same outputs, same
    // stabilization times, across seeds and media.
    for seed in 0..3 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(500 + seed);
        let topo = builders::uniform(45, 0.18, &mut rng);
        let run = |eager: bool| {
            let mut driver = Scenario::new(DensityCluster::new(event_driven_config()))
                .medium(BernoulliLoss::new(0.75))
                .topology(topo.clone())
                .seed(seed)
                .build_events(EventConfig::default())
                .expect("valid event scenario");
            driver.set_eager(eager);
            assert_eq!(driver.is_gated(), !eager);
            let first = driver.run_until_output_stable(1.0, 5, 600.0);
            driver.inject(&Fault::CorruptAll).expect("a valid fault");
            let healed = driver.run_until_output_stable(1.0, 5, 600.0);
            let outputs: Vec<_> = driver.states().iter().map(|s| (s.head, s.parent)).collect();
            (first, healed, outputs)
        };
        let gated = run(false);
        let eager = run(true);
        if let Some(node) = first_divergence(&gated.2, &eager.2) {
            panic!("seed {seed}: outputs diverged (left gated, right eager) at {node}");
        }
        assert_eq!((gated.0, gated.1), (eager.0, eager.1), "seed {seed}");
        assert!(
            gated.0.is_some() && gated.1.is_some(),
            "both phases stabilize"
        );
    }
}

#[test]
fn event_driver_silence_is_total_after_stabilization() {
    // The acceptance criterion for the continuous clock: once a gated
    // network stabilizes, the event queue drains — a long quiet
    // interval processes zero events and sends zero messages, so its
    // cost is O(1), not O(n · periods).
    let mut rng = rand::rngs::StdRng::seed_from_u64(91);
    let topo = builders::uniform(70, 0.15, &mut rng);
    let mut driver = Scenario::new(DensityCluster::new(event_driven_config()))
        .topology(topo)
        .seed(4)
        .build_events(EventConfig::default())
        .expect("valid event scenario");
    assert!(driver.is_gated());
    driver
        .run_until_output_stable(1.0, 5, 600.0)
        .expect("stabilizes");
    // Let the last pending beacons retire.
    driver.run_until_time(driver.time() + 20.0);
    let (messages, events) = (driver.messages_total(), driver.events_processed());
    driver.run_until_time(driver.time() + 10_000.0);
    assert_eq!(driver.messages_total(), messages, "silence must be total");
    assert_eq!(driver.events_processed(), events, "no events while quiet");
    // And the network is still awake: a corruption re-floods.
    driver.inject(&Fault::CorruptAll).expect("a valid fault");
    driver
        .run_until_output_stable(1.0, 5, 600.0)
        .expect("heals after the quiet eon");
    assert!(driver.messages_total() > messages);
}

#[test]
fn event_driver_gated_equals_eager_under_mobility() {
    // Mobility in continuous time (the last PR-1 open item): dynamics
    // tick at logical-step boundaries in both modes, apply incremental
    // deltas and fire link_down — and gating stays unobservable while
    // the topology churns.
    let run = |eager: bool| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let topo = builders::uniform(50, 0.18, &mut rng);
        let model = RandomWaypoint::new(topo.len(), 0.0..=meters_per_second(20.0), 0.5);
        let dynamics = MobileScenario::new(topo.clone(), model, 5).into_dynamics(2.0);
        let mut driver = Scenario::new(DensityCluster::new(event_driven_config()))
            .topology(topo)
            .seed(8)
            .mobility(dynamics)
            .build_events(EventConfig::default())
            .expect("valid event scenario");
        driver.set_eager(eager);
        driver.run_until_time(40.0);
        let outputs: Vec<_> = driver.states().iter().map(|s| (s.head, s.parent)).collect();
        (
            driver.topology().edges().collect::<Vec<_>>(),
            outputs,
            driver.time(),
        )
    };
    assert_eq!(run(false), run(true), "mobility must not break equivalence");
}

#[test]
fn event_driver_mobility_then_settlement_stabilizes() {
    // After the nodes stop moving, the protocol settles on the final
    // topology and the gated driver goes silent on it.
    let mut rng = rand::rngs::StdRng::seed_from_u64(47);
    let topo = builders::uniform(40, 0.2, &mut rng);
    let model = RandomWaypoint::new(topo.len(), 0.0..=meters_per_second(15.0), 0.5);
    let dynamics = MobileScenario::new(topo.clone(), model, 9).into_dynamics(2.0);
    let mut driver = Scenario::new(DensityCluster::new(event_driven_config()))
        .topology(topo)
        .seed(10)
        .mobility(dynamics)
        .build_events(EventConfig::default())
        .expect("valid event scenario");
    driver.run_until_time(30.0);
    assert!(driver.stop_dynamics(), "dynamics were attached");
    driver
        .run_until_output_stable(1.0, 5, 600.0)
        .expect("settles once the nodes stop moving");
    let clustering = extract_clustering(driver.states()).expect("clean fixpoint");
    assert!(clustering.head_count() > 0);
}

/// Twin event drivers, one sampled by `run_until_output_stable` at
/// interval = period, one stepped by `run_to`: the same loop.
fn sampled_and_stepped_twins_agree<M: Medium>(medium: impl Fn() -> M, topo: &Topology, seed: u64) {
    let build = || {
        Scenario::new(DensityCluster::new(event_driven_config()))
            .medium(medium())
            .topology(topo.clone())
            .seed(seed)
            .build_events(EventConfig::default())
            .expect("valid event scenario")
    };
    let (mut sampled, mut stepped) = (build(), build());
    let time = sampled.run_until_output_stable(1.0, 5, 600.0);
    let report = stepped.run_to(&StopWhen::stable_for(5).within(600));
    assert!(time.is_some(), "seed {seed} stabilizes");
    assert_eq!(report.stabilized.map(|k| k as f64), time, "seed {seed}");
    assert_eq!(report.end_step, stepped.now());
    assert_eq!(sampled.time(), stepped.time(), "seed {seed}");
    assert_eq!(sampled.states(), stepped.states(), "seed {seed}");
    assert_eq!(sampled.messages_total(), stepped.messages_total());
    assert_eq!(sampled.events_processed(), stepped.events_processed());
}

#[test]
fn event_clock_stop_when_is_the_sampling_loop() {
    // The event clock reaches its stop rule through the one
    // `engine::run_to`: `run_until_output_stable` is that loop with a
    // free sampling interval, so at interval = period the two spell
    // the same run — trajectory, message and event counts, and the
    // stabilization instant.
    for seed in 0..4 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(700 + seed);
        let topo = builders::uniform(45, 0.18, &mut rng);
        sampled_and_stepped_twins_agree(|| PerfectMedium, &topo, seed);
        sampled_and_stepped_twins_agree(|| BernoulliLoss::new(0.7), &topo, seed);
    }
}

#[test]
fn event_driver_gated_equals_eager_run_reports() {
    // `gated_equals_eager_run_reports` on the continuous clock, with
    // the case `Cursor::Stable` documents: under `and(max_steps)` the
    // run continues past the first quiet streak, the scripted
    // corruption at step 40 (fired as the driver enters period 40, so
    // seen at step 41) un-satisfies the stability leaf, and the
    // report must carry the *second* stabilization — identically
    // whether the observations are O(changed) deltas (gated) or full
    // projections (eager).
    for seed in 0..3 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(800 + seed);
        let topo = builders::uniform(45, 0.18, &mut rng);
        let run = |eager: bool, corrupt: bool| {
            let mut plan = FaultPlan::new();
            if corrupt {
                plan.at(40, Fault::CorruptAll);
            }
            let mut driver = Scenario::new(DensityCluster::new(event_driven_config()))
                .medium(BernoulliLoss::new(0.75))
                .topology(topo.clone())
                .seed(seed)
                .faults(plan)
                .build_events(EventConfig::default())
                .expect("valid event scenario");
            driver.set_eager(eager);
            let stop = StopWhen::stable_for(4)
                .and(StopWhen::max_steps(41))
                .within(600);
            (driver.run_to(&stop), driver.outputs(), driver.now())
        };
        let undisturbed = run(false, false).0;
        assert!(
            undisturbed.expect_stable("quiet before the fault") + 4 < 40,
            "seed {seed}: the leaf must be satisfied before step 40"
        );
        let (gated, eager) = (run(false, true), run(true, true));
        assert_eq!(gated, eager, "seed {seed}");
        assert!(
            gated.0.expect_stable("heals") >= 40,
            "seed {seed}: the corruption restarted the clock"
        );
        assert!(gated.0.satisfied && !gated.0.timed_out);
    }
}

/// Everything a generic consumer does, through the `Sim` surface
/// alone: stabilize, corrupt, re-stabilize, read the fixpoint.
fn exercise<C: Clock<DensityCluster>>(mut d: Sim<DensityCluster, C>) -> Clustering {
    let stop = StopWhen::stable_for(5).within(600);
    d.run_to(&stop).expect_stable("cold start stabilizes");
    let sent = d.messages_total();
    d.inject(&Fault::CorruptAll).expect("a valid fault");
    let healed = d.run_to(&stop);
    healed.expect_stable("heals");
    assert_eq!(healed.end_step, d.now());
    assert!(d.messages_total() > sent, "healing requires traffic");
    assert_eq!(d.outputs().len(), d.topology().len());
    extract_clustering(d.states()).expect("clean fixpoint")
}

#[test]
fn one_generic_consumer_runs_on_all_three_drivers() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(900);
    let topo = builders::uniform(50, 0.18, &mut rng);
    let scenario = || {
        Scenario::new(DensityCluster::new(event_driven_config()))
            .topology(topo.clone())
            .seed(3)
    };
    let reference = exercise(scenario().build().expect("valid scenario"));
    assert!(reference.head_count() > 0);
    let events = scenario().build_events(EventConfig::default());
    assert_eq!(reference, exercise(events.expect("valid event scenario")));
    for threads in [1, 4] {
        let actors = scenario().build_actors(threads);
        assert_eq!(reference, exercise(actors.expect("valid actor scenario")));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The kernelized active pass — word-at-a-time dirty-set drains,
    /// sorted-join receive loop, CSR reception rows, pooled shard
    /// arenas — is byte-identical to the scalar reference across shard
    /// counts {1, 2, 4, 7} on both clocks.
    ///
    /// Two legs close the chain. (1) The join kernel is pinned
    /// against a naive linear scan on join shapes sampled from the
    /// *actual* adjacency lists of the generated topology. (2) Whole-trajectory
    /// equivalence: on the round clock every shard count must
    /// reproduce the serial trajectory (reports, outputs, message
    /// totals) through corruption and healing, gated and eager; on the
    /// continuous clock, where the same kernelized reception path
    /// feeds the event loop, gated ≡ eager pins it against the
    /// scalar-semantics reference.
    #[test]
    fn kernelized_pass_equals_scalar_across_shards_and_clocks(
        n in 30usize..60,
        r in 15u32..21,
        tau_pct in 55u32..96,
        seed in 0u64..1_000_000,
    ) {
        let mut trng = StdRng::seed_from_u64(seed ^ 0xBEEF);
        let topo = builders::uniform(n, f64::from(r) / 100.0, &mut trng);

        // Leg 1: join kernels vs a naive scan on real adjacency rows.
        let mut krng = StdRng::seed_from_u64(seed ^ 0xD00D);
        for p in topo.nodes() {
            let neighbors = topo.neighbors(p);
            let mut senders: Vec<NodeId> = neighbors
                .iter()
                .copied()
                .filter(|_| krng.random_bool(0.6))
                .collect();
            senders.sort_unstable();
            let slot = |s: &NodeId| neighbors.iter().position(|n| n == s).expect("a neighbor");
            let naive: Vec<(usize, NodeId)> = senders.iter().map(|s| (slot(s), *s)).collect();
            let mut joined = Vec::new();
            kernels::sorted_positions(neighbors, &senders, |idx, s| joined.push((idx, s)));
            prop_assert_eq!(&joined, &naive, "join diverged at node {}", p);
        }

        // Leg 2a: round clock, every shard count, gated and eager.
        let run = |shards: Option<usize>, eager: bool| {
            let mut net = Scenario::new(DensityCluster::new(event_driven_config()))
                .medium(BernoulliLoss::new(f64::from(tau_pct) / 100.0))
                .topology(topo.clone())
                .seed(seed)
                .build()
                .expect("valid scenario");
            net.set_eager(eager);
            net.set_shards(shards);
            let report = net.run_to(&StopWhen::stable_for(3).within(400));
            net.inject(&Fault::CorruptAll).expect("a valid fault");
            let healed = net.run_to(&StopWhen::stable_for(3).within(400));
            (report, healed, net.outputs(), net.messages_total(), net.now())
        };
        for eager in [false, true] {
            let serial = run(Some(1), eager);
            for shards in [2usize, 4, 7] {
                let forced = run(Some(shards), eager);
                prop_assert_eq!(&serial, &forced, "{} shards, eager = {}", shards, eager);
            }
        }

        // Leg 2b: the continuous clock over the same kernel substrate.
        let run_events = |eager: bool| {
            let mut driver = Scenario::new(DensityCluster::new(event_driven_config()))
                .medium(BernoulliLoss::new(f64::from(tau_pct) / 100.0))
                .topology(topo.clone())
                .seed(seed)
                .build_events(EventConfig::default())
                .expect("valid event scenario");
            driver.set_eager(eager);
            let stable = driver.run_until_output_stable(1.0, 4, 400.0);
            let outputs: Vec<_> = driver.states().iter().map(|s| (s.head, s.parent)).collect();
            // (messages_total is *not* compared: sending less is the
            // entire point of gating — states and outputs are.)
            (stable, outputs)
        };
        prop_assert_eq!(run_events(false), run_events(true));
    }
}

#[test]
fn wilson_convergence_probability_pipeline() {
    // The Sweep::convergence + mwn_metrics::wilson_interval pairing
    // the weak-stabilization experiments use.
    let estimate = mwn_sim::Sweep::over(12, 5)
        .convergence(
            |seed| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let topo = builders::uniform(40, 0.2, &mut rng);
                Scenario::new(DensityCluster::new(event_driven_config()))
                    .topology(topo)
                    .seed(seed)
            },
            &StopWhen::stable_for(3).within(300),
        )
        .expect("all scenarios build");
    assert_eq!(estimate.stabilized, estimate.runs, "Lemma 2 at work");
    let (low, high) = mwn_metrics::wilson_interval(estimate.stabilized, estimate.runs, 1.96);
    assert!(low > 0.7, "12/12 successes put the 95% lower bound high");
    assert_eq!(high, 1.0);
}
