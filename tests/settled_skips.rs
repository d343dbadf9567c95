//! The settled-pass skip all three drivers share, on the paper's own
//! protocol.
//!
//! Under gating, a node whose last guard pass changed nothing is
//! settled: on the event clock a frame whose receive changes nothing
//! there, and a beacon slot of it, run no guard pass at all; on the
//! period clocks a visit that nothing but frames scheduled, and that
//! received none of them, runs none. `Sim::updates` and
//! `StepActivity::updates` count the passes that do run. On a
//! converging 2 000-node deployment this checks both halves of the
//! claim: the skip is wired in (fewer passes than the one per arrival
//! plus one per broadcast the event clock ran before it; a pinned count
//! on the period clocks), and it is exact (the eager twin, which runs
//! every pass, walks the same trajectory period by period).

use rand::rngs::StdRng;
use rand::SeedableRng;
use selfstab::prelude::*;

#[test]
fn a_converging_event_clock_skips_settled_passes_on_the_eager_trajectory() {
    let mut rng = StdRng::seed_from_u64(2028);
    // Mean degree ≈ 8, as in the benchmark's deployments.
    let topo = builders::uniform(2_000, 0.036, &mut rng);
    let build = |eager: bool| {
        let mut driver =
            Scenario::new(DensityCluster::new(ClusterConfig::default().event_driven()))
                .topology(topo.clone())
                .seed(5)
                .build_events(EventConfig::default())
                .expect("valid event scenario");
        driver.set_eager(eager);
        driver
    };
    let (mut gated, mut eager) = (build(false), build(true));
    assert!(gated.is_gated() && !eager.is_gated());
    // The storm, period by period.
    for period in 1..=12 {
        gated.step();
        eager.step();
        assert!(
            gated.states() == eager.states(),
            "trajectories diverged in period {period}"
        );
    }
    // The tail, to the same stabilization.
    let stop = StopWhen::stable_for(3).within(200);
    let report = gated.run_to(&stop);
    assert_eq!(report, eager.run_to(&stop));
    assert!(report.stabilized.is_some(), "the clustering converges");
    assert!(gated.states() == eager.states(), "and ends in one state");
    let (passes, arrivals, broadcasts) = (
        gated.updates(),
        gated.frames_delivered(),
        gated.messages_total(),
    );
    assert!(
        passes < arrivals + broadcasts,
        "{passes} guard passes against {arrivals} arrivals and {broadcasts} broadcasts"
    );
    assert!(eager.updates() > passes);
}

/// The event clock's counters, beside the period clocks' `StepActivity`:
/// every delivered copy is received, held or stale, so receives and
/// holds never exceed the deliveries; eager scheduling receives every
/// copy, holds none and skips no pass.
#[test]
fn the_event_clock_counts_receives_holds_and_settled_passes() {
    let mut rng = StdRng::seed_from_u64(2029);
    let topo = builders::uniform(600, 0.066, &mut rng);
    let run = |eager: bool| {
        let mut driver =
            Scenario::new(DensityCluster::new(ClusterConfig::default().event_driven()))
                .topology(topo.clone())
                .seed(7)
                .build_events(EventConfig::default())
                .expect("valid event scenario");
        driver.set_eager(eager);
        let report = driver.run_to(&StopWhen::stable_for(3).within(200));
        assert!(report.stabilized.is_some(), "the clustering converges");
        driver
    };
    let (gated, eager) = (run(false), run(true));
    assert!(gated.states() == eager.states(), "one end state");
    let delivered = gated.frames_delivered();
    assert!(gated.receives() + gated.held() <= delivered);
    assert!(gated.held() > 0 && gated.settled() <= gated.held());
    assert!(gated.receives() < eager.receives());
    assert_eq!((eager.held(), eager.settled()), (0, 0));
    assert_eq!(eager.receives(), eager.frames_delivered());
}

/// A gated period-clock driver beside its eager twin, both from cold
/// start to a stable clustering: the same report, and equal states
/// after every step of a second, stepped run. Returns the gated
/// driver's guard passes in that run, summed.
fn beside_eager<C: Clock<DensityCluster>>(build: impl Fn(bool) -> Sim<DensityCluster, C>) -> usize {
    let stop = StopWhen::stable_for(3).within(200);
    let (mut gated, mut eager) = (build(false), build(true));
    let report = gated.run_to(&stop);
    assert_eq!(report, eager.run_to(&stop));
    assert!(report.stabilized.is_some(), "the clustering converges");
    assert!(gated.states() == eager.states(), "and ends in one state");
    let (mut gated, mut eager) = (build(false), build(true));
    let mut passes = 0;
    for step in 1..=report.end_step {
        gated.step();
        eager.step();
        assert!(
            gated.states() == eager.states(),
            "trajectories diverged in step {step}"
        );
        passes += gated.last_activity().updates;
    }
    assert_eq!(
        gated.last_activity().updates,
        0,
        "the storm and its tail are over"
    );
    passes
}

#[test]
fn converging_period_clocks_skip_held_only_passes_on_the_eager_trajectory() {
    // A node that nothing but frames scheduled, and that received none
    // of them (every one stale or held), runs no guard pass. Exact: the
    // eager twin runs every pass. Wired: the summed passes are pinned,
    // and the round driver and the actor fabric skip the same ones.
    let mut rng = StdRng::seed_from_u64(2028);
    let topo = builders::uniform(2_000, 0.036, &mut rng);
    let scenario = || {
        Scenario::new(DensityCluster::new(ClusterConfig::default().event_driven()))
            .topology(topo.clone())
            .seed(5)
    };
    let rounds = |eager: bool| {
        let mut net = scenario().build().expect("valid scenario");
        net.set_eager(eager);
        net
    };
    let passes = beside_eager(rounds);
    assert_eq!(passes, PASSES, "round driver");
    let actors = |eager: bool| {
        let mut actors = scenario().build_actors(2).expect("valid actor scenario");
        actors.set_eager(eager);
        actors
    };
    let passes = beside_eager(actors);
    assert_eq!(passes, PASSES, "actor fabric");
}

/// Guard passes of the gated storm above, measured: 13 572 when a
/// visit whose frames were all held still ran its pass.
const PASSES: usize = 12_403;
