//! The event clock's settled-node skip on the paper's own protocol.
//!
//! Under gating, a node whose last guard pass changed nothing is
//! settled: a frame whose receive changes nothing there, and a beacon
//! slot of it, run no guard pass at all. `EventDriver::updates` counts
//! the passes that do run. On a converging 2 000-node deployment this
//! checks both halves of the claim: the skip is wired in (fewer passes
//! than the one per arrival plus one per broadcast the clock ran before
//! it), and it is exact (the eager twin, which runs every pass, walks
//! the same trajectory period by period).

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
