//! Pins the **fault clock** of [`Sim`] — where it is stated once — on
//! all three drivers. A state that differs from the expected one is
//! named by driver, step and node ([`testkit::first_divergence`]).
//!
//! Scripted faults are timestamped in logical steps (beacon periods)
//! and fire as the driver enters their period, before any of its
//! frames. On the [`EventDriver`] the equal-instant priority is
//! dynamics ≤ faults ≤ events, and a beacon frame already *in flight*
//! across a link the fault severs is dead air (the receive handler
//! re-checks the link at arrival time). On the period clocks the
//! topology is constant within a period, so no frame can be evaluated
//! against a pre-fault topology.
//!
//! Without this ordering, an `Isolate` delivered mid-slot could race
//! the beacon already in flight and leak one frame across a severed
//! link — observable as a flood value crossing a cut that was supposed
//! to be closed.

use selfstab::prelude::*;

mod testkit;
use testkit::first_divergence;

/// Max-flood over `u32` beacons: any frame leaking across a cut is
/// permanently visible in the receiver's state.
struct MaxFlood;

impl Protocol for MaxFlood {
    type State = u32;
    type Beacon = u32;
    fn init(&self, node: NodeId, _rng: &mut rand::rngs::StdRng) -> u32 {
        node.value()
    }
    fn beacon(&self, _node: NodeId, state: &u32) -> u32 {
        *state
    }
    fn receive(&self, _node: NodeId, state: &mut u32, _from: NodeId, beacon: &u32, _now: u64) {
        *state = (*state).max(*beacon);
    }
    fn update(&self, node: NodeId, state: &mut u32, _now: u64, _rng: &mut rand::rngs::StdRng) {
        *state = (*state).max(node.value());
    }
    fn activity(&self) -> selfstab::sim::Activity {
        selfstab::sim::Activity::Gated
    }
    fn beacon_changed(&self, old: &u32, new: &u32) -> bool {
        old != new
    }
}

impl Observable for MaxFlood {
    type Output = u32;
    fn output(&self, _node: NodeId, state: &u32) -> u32 {
        *state
    }
}

impl Corruptible for MaxFlood {
    fn corrupt(&self, _node: NodeId, state: &mut u32, _rng: &mut rand::rngs::StdRng) {
        *state = 0;
    }
}

/// Frames slower than the beacon period: every first-period frame is
/// still in flight when the step-1 fault boundary arrives.
fn slow_frames() -> EventConfig {
    EventConfig {
        jitter: 0.0,
        frame_time: 2.0,
    }
}

#[test]
fn event_driver_drops_in_flight_frames_across_a_severed_link() {
    // Two nodes, one link. With frame_time = 2 every period-0 beacon
    // arrives during (2, 3); the Isolate fires at the step-1 boundary
    // (t = 1), strictly before any of those arrivals. The frames were
    // genuinely sent — and must all be dead air.
    let mut plan = FaultPlan::new();
    plan.at(1, Fault::Isolate(NodeId::new(1)));
    let mut driver = Scenario::new(MaxFlood)
        .topology(builders::line(2))
        .seed(5)
        .faults(plan)
        .build_events(slow_frames())
        .expect("valid event scenario");
    driver.run_until_time(20.0);
    assert!(
        driver.messages_total() > 0,
        "beacons must actually have been sent before the cut"
    );
    assert_eq!(
        *driver.state(NodeId::new(0)),
        0,
        "an in-flight frame leaked across the severed link"
    );
    assert_eq!(*driver.state(NodeId::new(1)), 1);
}

#[test]
fn event_driver_without_the_fault_delivers_the_same_frames() {
    // The control group for the in-flight drop: identical scenario,
    // no fault — the slow frames arrive and the flood crosses.
    let mut driver = Scenario::new(MaxFlood)
        .topology(builders::line(2))
        .seed(5)
        .build_events(slow_frames())
        .expect("valid event scenario");
    driver.run_until_time(20.0);
    assert_eq!(
        *driver.state(NodeId::new(0)),
        1,
        "without the fault the very same frames must deliver"
    );
}

/// What these tests ask of a driver, on every clock: one list holds
/// the three drivers side by side.
trait Faulted {
    fn step(&mut self) -> u64;
    fn now(&self) -> u64;
    fn topology(&self) -> &Topology;
    fn states(&self) -> &[u32];
    fn inject(&mut self, fault: &Fault) -> Result<(), SimError>;
    fn run_to(&mut self, stop: &StopWhen<MaxFlood>) -> RunReport;
}

impl<C: Clock<MaxFlood>> Faulted for Sim<MaxFlood, C> {
    fn step(&mut self) -> u64 {
        Sim::step(self)
    }
    fn now(&self) -> u64 {
        Sim::now(self)
    }
    fn topology(&self) -> &Topology {
        Sim::topology(self)
    }
    fn states(&self) -> &[u32] {
        Sim::states(self)
    }
    fn inject(&mut self, fault: &Fault) -> Result<(), SimError> {
        Sim::inject(self, fault)
    }
    fn run_to(&mut self, stop: &StopWhen<MaxFlood>) -> RunReport {
        Sim::run_to(self, stop)
    }
}

/// Every driver deployed on `topo` with the faults `plan` scripts:
/// rounds, events and actors × {1, 2, 4} threads.
fn all_drivers(topo: &Topology, plan: impl Fn() -> FaultPlan) -> Vec<(String, Box<dyn Faulted>)> {
    let scenario = || {
        Scenario::new(MaxFlood)
            .topology(topo.clone())
            .seed(3)
            .faults(plan())
    };
    let events = scenario().build_events(EventConfig::default());
    let mut drivers: Vec<(String, Box<dyn Faulted>)> = vec![
        (
            "round".into(),
            Box::new(scenario().build().expect("valid scenario")),
        ),
        (
            "events".into(),
            Box::new(events.expect("valid event scenario")),
        ),
    ];
    for threads in [1, 2, 4] {
        let actors = scenario().build_actors(threads);
        let actors = actors.expect("valid actor scenario");
        drivers.push((format!("actors×{threads}"), Box::new(actors)));
    }
    drivers
}

/// Steps `driver` until its clock reads `step`: what is due at `step`
/// itself has not fired yet.
fn run_to_step(driver: &mut dyn Faulted, step: u64) {
    while driver.now() < step {
        driver.step();
    }
}

/// Panics unless `driver`'s states are `expected`, naming the driver
/// `label`, its step and the first node that differs.
fn assert_states(label: &str, driver: &dyn Faulted, expected: &[u32], what: &str) {
    if let Some(node) = first_divergence(driver.states(), expected) {
        let now = driver.now();
        panic!("{label}, step {now}: {what} (left the driver, right expected) at {node}");
    }
}

#[test]
fn equal_timestamp_faults_precede_sends_on_both_drivers() {
    // CorruptAll and Isolate(2) share timestamp 6, landing mid-run on
    // an already-stabilized line (everyone holds 4). The contract:
    // both faults apply before any period-6 beacon, so re-convergence
    // happens on the post-cut fragments {0,1} | {2} | {3,4} — the old
    // maximum must not leak out of a period-6 frame sent pre-fault.
    let plan = || {
        let mut plan = FaultPlan::new();
        plan.at(6, Fault::CorruptAll)
            .at(6, Fault::Isolate(NodeId::new(2)));
        plan
    };
    for (label, mut driver) in all_drivers(&builders::line(5), plan) {
        driver
            .run_to(&StopWhen::stable_for(4).within(200))
            .expect_stable("the driver re-stabilizes");
        let fragments = [1, 1, 2, 4, 4];
        assert_states(&label, &*driver, &fragments, "the fragments re-flood alone");
    }
}

#[test]
fn partition_heal_keeps_the_cut_closed_until_the_heal_on_all_drivers() {
    // CorruptAll and a {0,1}-cut land together at step 5 on a
    // stabilized line; the heal is scripted for step 15. The contract
    // under test: the cut applies before any step-5 beacon (no stale
    // maximum leaks into the left fragment), and the healed link is
    // only usable from step 15 on (the flood crosses exactly then).
    let plan = || {
        let mut plan = FaultPlan::new();
        plan.at(
            5,
            Fault::PartitionHeal {
                cut: vec![NodeId::new(0), NodeId::new(1)],
                heal_at: 15,
            },
        )
        .at(5, Fault::CorruptAll);
        plan
    };
    for (label, mut driver) in all_drivers(&builders::line(5), plan) {
        run_to_step(&mut *driver, 14);
        let pre_heal = [1, 1, 4, 4, 4];
        assert_states(&label, &*driver, &pre_heal, "each side re-floods alone");
        driver
            .run_to(&StopWhen::stable_for(4).within(200))
            .expect_stable("the driver re-stabilizes after the heal");
        assert_states(&label, &*driver, &[4; 5], "the heal reconnects the flood");
    }
}

#[test]
fn crash_recover_resurrects_stale_pre_crash_state_on_all_drivers() {
    // Node 0 crashes at step 5 holding the stabilized maximum 4, then
    // CorruptAll zeroes every *live* state. The survivors re-flood to
    // 4 among themselves while the dark node sits at its corrupted 0 —
    // and at step 15 it must resurrect with the STALE pre-crash 4 and
    // its links restored, not with whatever its live state decayed to.
    let plan = || {
        let mut plan = FaultPlan::new();
        plan.at(
            5,
            Fault::CrashRecover {
                node: NodeId::new(0),
                dark_for: 10,
            },
        )
        .at(5, Fault::CorruptAll);
        plan
    };
    for (label, mut driver) in all_drivers(&builders::line(5), plan) {
        run_to_step(&mut *driver, 14);
        let dark = [0, 4, 4, 4, 4];
        let what = "the dark node keeps its corrupted state, the survivors re-flood";
        assert_states(&label, &*driver, &dark, what);
        driver
            .run_to(&StopWhen::stable_for(4).within(200))
            .expect_stable("the driver re-stabilizes after resurrection");
        assert_states(&label, &*driver, &[4; 5], "resurrected and re-joined");
    }
}

#[test]
fn actor_isolation_applies_before_the_same_periods_frames() {
    // The actor-fabric version of the in-flight question: a fault and
    // a beacon slot land on the same period. If the beacon slot could
    // fire first, node 2's period-0 frame would leak its value across
    // the about-to-vanish links. The governor orders fault ≤ send, so
    // nothing ever crosses.
    for threads in [1, 4] {
        let mut plan = FaultPlan::new();
        plan.at(0, Fault::Isolate(NodeId::new(2)));
        let mut actors = Scenario::new(MaxFlood)
            .topology(builders::line(5))
            .seed(9)
            .faults(plan)
            .build_actors(threads)
            .expect("valid actor scenario");
        actors
            .run_to(&StopWhen::stable_for(4).within(200))
            .expect_stable("fragments settle");
        assert_eq!(*actors.state(NodeId::new(0)), 1, "threads={threads}");
        assert_eq!(*actors.state(NodeId::new(1)), 1, "threads={threads}");
        assert_eq!(*actors.state(NodeId::new(2)), 2, "threads={threads}");
        assert_eq!(*actors.state(NodeId::new(4)), 4, "threads={threads}");
    }
}

#[test]
fn overlapping_severs_keep_the_cut_closed_on_all_drivers() {
    // An edge comes back only when the LAST fault holding it down ends.
    // Jam{2} (steps 3–8) severs (1,2) and (2,3); the {0,1} cut (steps
    // 5–30) covers the already-absent (1,2). The jam's restore at step
    // 8 must re-open (2,3) only — not the cut, 22 steps early.
    let jam_inside_a_cut = || {
        let mut plan = FaultPlan::new();
        plan.at(
            3,
            Fault::Jam {
                region: Region::Nodes(vec![NodeId::new(2)]),
                until: 8,
            },
        )
        .at(
            5,
            Fault::PartitionHeal {
                cut: vec![NodeId::new(0), NodeId::new(1)],
                heal_at: 30,
            },
        )
        .at(11, Fault::CorruptAll);
        plan
    };
    // The same with a crash: node 1 is already dark (links (0,1) and
    // (1,2) held down) when the cut lands, and resurrects at step 10
    // inside the cut window — with its link to 0, not the cut link.
    let crash_inside_a_cut = || {
        let mut plan = FaultPlan::new();
        plan.at(
            4,
            Fault::CrashRecover {
                node: NodeId::new(1),
                dark_for: 6,
            },
        )
        .at(
            5,
            Fault::PartitionHeal {
                cut: vec![NodeId::new(0), NodeId::new(1)],
                heal_at: 30,
            },
        )
        .at(11, Fault::CorruptAll);
        plan
    };
    let (n1, n2, n3) = (NodeId::new(1), NodeId::new(2), NodeId::new(3));
    for (schedule, plan) in [
        ("jam", &jam_inside_a_cut as &dyn Fn() -> FaultPlan),
        ("crash", &crash_inside_a_cut),
    ] {
        for (label, mut driver) in all_drivers(&builders::line(5), plan) {
            let label = format!("{schedule}/{label}");
            run_to_step(&mut *driver, 12);
            let topo = driver.topology();
            assert!(!topo.has_edge(n1, n2), "{label}: the cut re-opened early");
            assert!(
                topo.has_edge(NodeId::new(0), n1),
                "{label}: inner link is back"
            );
            assert!(topo.has_edge(n2, n3), "{label}: the jammed link is back");
            run_to_step(&mut *driver, 30);
            assert!(
                !driver.topology().has_edge(n1, n2),
                "{label}: closed to the end"
            );
            let what = "the step-11 corruption re-floods each side alone";
            assert_states(&label, &*driver, &[1, 1, 4, 4, 4], what);
            run_to_step(&mut *driver, 45);
            assert!(driver.topology().has_edge(n1, n2), "{label}: healed at 30");
            assert_states(&label, &*driver, &[4; 5], "the flood crosses");
        }
    }
}

#[test]
fn inject_rejects_malformed_faults_without_panicking_on_all_drivers() {
    let victim = NodeId::new(99);
    let bad_victims = [
        Fault::CorruptNode(victim),
        Fault::Isolate(victim),
        Fault::CrashRecover {
            node: victim,
            dark_for: 3,
        },
        Fault::ByzantineBeacon {
            node: victim,
            lie: Lie::Forged,
            until: 9,
        },
        Fault::PartitionHeal {
            cut: vec![NodeId::new(0), victim],
            heal_at: 9,
        },
        Fault::Jam {
            region: Region::Nodes(vec![victim]),
            until: 9,
        },
        // The deployment carries no positions: a disk region cannot
        // resolve.
        Fault::Jam {
            region: Region::Disk {
                x: 0.5,
                y: 0.5,
                r: 0.2,
            },
            until: 9,
        },
    ];
    let path = Topology::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).expect("a path");
    for (label, mut driver) in all_drivers(&path, FaultPlan::new) {
        run_to_step(&mut *driver, 8);
        for fault in &bad_victims {
            let err = driver.inject(fault).expect_err("malformed fault");
            assert!(
                matches!(err, SimError::InvalidConfig(_)),
                "{label}: {fault:?} gave {err}"
            );
        }
        assert_eq!(
            driver.inject(&Fault::SetTopology(builders::line(7))),
            Err(SimError::NodeCountMismatch {
                expected: 5,
                got: 7
            }),
            "{label}"
        );
        // Nothing changed, and the driver is still usable.
        assert_eq!(driver.topology(), &path, "{label}");
        assert_states(&label, &*driver, &[4; 5], "nothing changed");
        driver.inject(&Fault::CorruptAll).expect("a valid fault");
        run_to_step(&mut *driver, 30);
        assert_states(&label, &*driver, &[4; 5], "heals after the rejects");
    }
}

/// On the clock `build` deploys: each shared mutator of [`Sim`], beside
/// the [`Fault`] it is the twin of, injected on a twin driver — both
/// fired on a stabilized path of six, then run to stability again. A
/// flood whose maximum already reached everyone may not move a state
/// after a cut, so the twins must also agree on the broadcasts the
/// mutation woke.
fn mutators_equal_their_fault_twins<C: Clock<MaxFlood>>(
    label: &str,
    build: impl Fn(&Topology) -> Sim<MaxFlood, C>,
) {
    type Mutator<C> = Box<dyn Fn(&mut Sim<MaxFlood, C>)>;
    let (p, ring) = (NodeId::new(2), builders::ring(6));
    let swapped = ring.clone();
    let twins: [(Fault, Mutator<C>); 4] = [
        (Fault::Isolate(p), Box::new(move |d| d.isolate(p))),
        (
            Fault::SetTopology(ring),
            Box::new(move |d| d.set_topology(swapped.clone()).expect("six nodes")),
        ),
        (Fault::CorruptNode(p), Box::new(move |d| d.corrupt(p))),
        (
            Fault::CorruptFraction(0.5),
            Box::new(|d| {
                d.corrupt_fraction(0.5);
            }),
        ),
    ];
    let stop = StopWhen::stable_for(4).within(200);
    for (fault, mutate) in &twins {
        let (mut mutated, mut injected) = (build(&builders::line(6)), build(&builders::line(6)));
        mutated.run_to(&stop).expect_stable("the path stabilizes");
        injected.run_to(&stop).expect_stable("the path stabilizes");
        mutate(&mut mutated);
        injected.inject(fault).expect("a valid fault");
        let at = format!("{label}: {}", fault.kind_name());
        assert_eq!(mutated.run_to(&stop), injected.run_to(&stop), "{at}");
        if let Some(node) = first_divergence(mutated.states(), injected.states()) {
            let now = mutated.now();
            panic!("{at}, step {now}: states differ (left mutated, right injected) at {node}");
        }
        assert_eq!(mutated.outputs(), injected.outputs(), "{at}");
        assert_eq!(mutated.messages_total(), injected.messages_total(), "{at}");
    }
}

/// On the clock `build` deploys: two unit-disk components, {0, 1, 2}
/// and {3, 4, 5}, settle on their own maxima; moving node 0 into the
/// gap joins them, and everyone ends at the joined maximum.
fn a_move_that_joins_two_components_floods_the_joined_maximum<C: Clock<MaxFlood>>(
    label: &str,
    build: impl Fn(&Topology) -> Sim<MaxFlood, C>,
) {
    let at = |x: f64| Point2::new(x, 0.5);
    let positions = [0.1, 0.2, 0.3, 0.7, 0.8, 0.9].map(at).to_vec();
    let topo = Topology::unit_disk(positions, 0.25).expect("a valid deployment");
    let mut d = build(&topo);
    let stop = StopWhen::stable_for(4).within(200);
    d.run_to(&stop).expect_stable("both components settle");
    assert_states(label, &d, &[2, 2, 2, 5, 5, 5], "apart");
    let delta = d.apply_moves(&[(NodeId::new(0), at(0.5))]);
    assert!(!delta.added.is_empty(), "{label}: the move adds links");
    d.run_to(&stop).expect_stable("the joined path settles");
    assert_states(label, &d, &[5; 6], "joined");
}

#[test]
fn the_shared_mutators_act_alike_on_every_clock() {
    let scenario = |topo: &Topology| Scenario::new(MaxFlood).topology(topo.clone()).seed(3);
    let rounds = |topo: &Topology| scenario(topo).build().expect("valid scenario");
    let events = |topo: &Topology| {
        let events = scenario(topo).build_events(EventConfig::default());
        events.expect("valid event scenario")
    };
    mutators_equal_their_fault_twins("round", rounds);
    a_move_that_joins_two_components_floods_the_joined_maximum("round", rounds);
    mutators_equal_their_fault_twins("events", events);
    a_move_that_joins_two_components_floods_the_joined_maximum("events", events);
    for threads in [1, 4] {
        let actors = |topo: &Topology| {
            let actors = scenario(topo).build_actors(threads);
            actors.expect("valid actor scenario")
        };
        let label = format!("actors×{threads}");
        mutators_equal_their_fault_twins(&label, actors);
        a_move_that_joins_two_components_floods_the_joined_maximum(&label, actors);
    }
}

/// On the clock `build` deploys: a stabilized path of six, pinned
/// eager, one node corrupted and one step taken. Eager scheduling
/// tracks no change, so that step reports none — and the same fault
/// between two gated steps is reported by the second.
fn eager_step_reports_no_change<C: Clock<MaxFlood>>(
    label: &str,
    build: impl Fn(&Topology) -> Sim<MaxFlood, C>,
) {
    let (p, stop) = (NodeId::new(2), StopWhen::stable_for(4).within(200));
    let mut d = build(&builders::line(6));
    d.run_to(&stop).expect_stable("the path stabilizes");
    d.set_eager(true);
    d.corrupt(p);
    d.step();
    assert_eq!(d.last_changed(), [], "{label}: eager");
    assert_eq!(d.last_activity().changed, 0, "{label}: eager");
    d.set_eager(false);
    d.run_to(&stop).expect_stable("the path stabilizes again");
    d.corrupt(p);
    d.step();
    assert!(d.last_changed().contains(&p), "{label}: gated");
    assert_eq!(d.last_activity().changed, d.last_changed().len(), "{label}");
}

#[test]
fn eager_steps_report_no_change_on_every_clock() {
    let scenario = |topo: &Topology| Scenario::new(MaxFlood).topology(topo.clone()).seed(3);
    eager_step_reports_no_change("round", |topo| {
        scenario(topo).build().expect("valid scenario")
    });
    eager_step_reports_no_change("events", |topo| {
        let events = scenario(topo).build_events(EventConfig::default());
        events.expect("valid event scenario")
    });
    for threads in [1, 4] {
        eager_step_reports_no_change(&format!("actors×{threads}"), |topo| {
            let actors = scenario(topo).build_actors(threads);
            actors.expect("valid actor scenario")
        });
    }
}

/// A run's totals so far, read the same way on every clock: broadcasts,
/// frames attempted and delivered, receives, holds, guard passes and
/// settled passes.
fn totals<C: Clock<MaxFlood>>(d: &Sim<MaxFlood, C>) -> [u64; 7] {
    [
        d.messages_total(),
        d.frames_attempted(),
        d.frames_delivered(),
        d.receives(),
        d.held(),
        d.updates(),
        d.settled(),
    ]
}

/// Over `steps` steps of `d`, corrupted at the tenth and pinned eager
/// from the twentieth to the thirtieth, the counts of the steps add up
/// to the growth of the run's [`totals`].
fn step_counts_add_up_to_the_totals<C: Clock<MaxFlood>>(
    label: &str,
    d: &mut Sim<MaxFlood, C>,
    steps: u64,
) {
    let (before, mut sums) = (totals(d), [0u64; 7]);
    for step in 0..steps {
        match step {
            10 => d.corrupt_all(),
            20 => d.set_eager(true),
            30 => d.set_eager(false),
            _ => {}
        }
        d.step();
        let a = d.last_activity();
        let counts = [
            a.senders,
            a.frames_attempted,
            a.frames_delivered,
            a.receives,
            a.held,
            a.updates,
            a.settled,
        ];
        for (sum, count) in sums.iter_mut().zip(counts) {
            *sum += count as u64;
        }
    }
    let grown: Vec<u64> = totals(d).iter().zip(before).map(|(a, b)| a - b).collect();
    assert_eq!(grown, sums, "{label}");
    assert!(
        sums[0] > 0 && sums[2] > 0 && sums[5] > 0,
        "{label}: {sums:?}"
    );
}

#[test]
fn one_tally_read_one_way_on_every_clock() {
    let scenario = || {
        let scenario = Scenario::new(MaxFlood).topology(builders::grid(5, 5, 0.3));
        scenario.seed(3).medium(BernoulliLoss::new(0.7))
    };
    let mut rounds = scenario().build().expect("valid scenario");
    step_counts_add_up_to_the_totals("round", &mut rounds, 60);
    for threads in [1, 4] {
        let mut actors = scenario().build_actors(threads);
        let actors = actors.as_mut().expect("valid actor scenario");
        step_counts_add_up_to_the_totals(&format!("actors×{threads}"), actors, 60);
    }
    // Also after a run to an instant in the middle of a period.
    for lead in [None, Some(2.5)] {
        let mut events = scenario().build_events(EventConfig::default());
        let events = events.as_mut().expect("valid event scenario");
        if let Some(t) = lead {
            events.run_until_time(t);
        }
        step_counts_add_up_to_the_totals(&format!("events, lead {lead:?}"), events, 60);
    }
}

#[test]
fn rounds_and_actors_count_every_lossless_step_alike() {
    let mut plan = FaultPlan::new();
    plan.at(12, Fault::CorruptNode(NodeId::new(7)))
        .at(20, Fault::Isolate(NodeId::new(11)));
    let scenario = || {
        let topo = builders::grid(6, 6, 0.22);
        Scenario::new(MaxFlood)
            .topology(topo)
            .seed(3)
            .faults(plan.clone())
    };
    for threads in [1, 4] {
        let mut rounds = scenario().build().expect("valid scenario");
        let mut actors = scenario().build_actors(threads).expect("valid scenario");
        for step in 0..40 {
            rounds.step();
            actors.step();
            let at = format!("actors×{threads}, step {step}");
            assert_eq!(rounds.last_activity(), actors.last_activity(), "{at}");
            assert_eq!(rounds.last_changed(), actors.last_changed(), "{at}");
        }
        assert!(rounds.messages_total() > 0);
    }
}
