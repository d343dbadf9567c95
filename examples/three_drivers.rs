//! One scenario, three drivers: the same deployment, seed and lossy
//! medium run on synchronous rounds, the continuous-time clock, and
//! real message-passing actor processes — and all three agree.
//!
//! ```sh
//! cargo run --release --example three_drivers
//! ```

use rand::SeedableRng;
use selfstab::prelude::*;

/// Runs `driver` to stability — the same code on every clock.
fn stabilize<C: Clock<DensityCluster>>(
    label: &str,
    driver: &mut Sim<DensityCluster, C>,
) -> RunReport {
    let report = driver.run_to(&StopWhen::stable_for(4).within(2_000));
    let steps = report.expect_stable(label);
    let sent = driver.messages_total();
    println!("{label}: stabilized after {steps} steps, {sent} broadcasts");
    report
}

fn main() {
    // One deployment, one lossy medium, one seed.
    let mut rng = rand::rngs::StdRng::seed_from_u64(2005);
    let topo = builders::poisson(600.0, 0.12, &mut rng);
    println!(
        "deployed {} nodes, {} links over a Bernoulli(τ = 0.7) medium",
        topo.len(),
        topo.edge_count()
    );
    let scenario = || {
        Scenario::new(DensityCluster::new(ClusterConfig::default().event_driven()))
            .medium(BernoulliLoss::new(0.7))
            .topology(topo.clone())
            .seed(7)
    };

    // Synchronous rounds — the paper's model, the reference; the
    // continuous clock — jittered beacon slots, frames with airtime,
    // one step per beacon period; the actor fabric — every node a
    // concurrent process over bounded mailboxes (4 threads), wired
    // through the same medium decisions.
    let mut rounds = scenario().build().expect("valid scenario");
    let mut events = scenario()
        .build_events(EventConfig::default())
        .expect("valid event scenario");
    let mut actors = scenario().build_actors(4).expect("valid actor scenario");
    let round_report = stabilize("rounds", &mut rounds);
    stabilize("events", &mut events);
    let actor_report = stabilize("actors", &mut actors);

    // The agreement claims. Rounds and actors replay the same derived
    // randomness and the protocol's receives commute, so they agree
    // byte for byte; the continuous clock agrees on the fixpoint.
    assert_eq!(round_report, actor_report, "reports must agree exactly");
    assert_eq!(
        rounds.states(),
        actors.states(),
        "states must agree byte for byte"
    );
    assert_eq!(
        rounds.messages_total(),
        actors.messages_total(),
        "message totals must agree"
    );
    let reference = extract_clustering(rounds.states()).expect("stable");
    let continuous = extract_clustering(events.states()).expect("stable");
    assert_eq!(
        reference, continuous,
        "the continuous clock reaches the same clustering fixpoint"
    );
    println!(
        "all three drivers agree: {} clusters, identical head sets",
        reference.head_count()
    );
}
