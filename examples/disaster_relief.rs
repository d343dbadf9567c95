//! Disaster-relief scenario (the paper's introduction motivates
//! "spontaneous networks in case of natural disasters where the
//! infrastructure has been totally destroyed"): responders' radios
//! self-organize into clusters; a second shock corrupts a third of
//! the devices mid-operation and the network heals itself — the
//! self-stabilization property in action.
//!
//! ```sh
//! cargo run --example disaster_relief
//! ```

use rand::SeedableRng;
use selfstab::prelude::*;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(911);
    // 600 responders over the operations area, 80 m radios.
    let topo = builders::poisson(600.0, 0.08, &mut rng);
    println!(
        "field network: {} radios, {} links",
        topo.len(),
        topo.edge_count()
    );

    // Harsher assumptions than the quickstart: a CSMA medium with
    // hidden terminals, so beacons genuinely collide (τ < 1).
    let config = ClusterConfig {
        rule: HeadRule::Fusion, // keep heads ≥ 3 hops apart
        cache_ttl: 16,
        ..ClusterConfig::default()
    };
    let mut net = Scenario::new(DensityCluster::new(config))
        .medium(SlottedCsma::new(24))
        .topology(topo)
        .seed(1)
        .build()
        .expect("valid scenario");
    let stop = StopWhen::stable_for(20).within(20_000);
    let stabilized = net
        .run_to(&stop)
        .expect_stable("stabilizes despite collisions");
    let before = extract_clustering(net.states()).expect("clean");
    println!(
        "organized into {} clusters after {} steps over a colliding medium",
        before.head_count(),
        stabilized
    );

    // Aftershock: a third of the devices reboot with garbage state.
    let fraction = 0.33;
    net.inject(&Fault::CorruptFraction(fraction))
        .expect("a valid fault");
    println!(
        "aftershock: about {:.0}% of devices corrupted",
        fraction * 100.0
    );

    let healed = net.run_to(&stop);
    let healed_at = healed.expect_stable("self-stabilization: the network heals");
    let after = extract_clustering(net.states()).expect("clean");
    println!(
        "healed after {} further steps; {} clusters ({}% of heads kept)",
        healed_at.saturating_sub(stabilized),
        after.head_count(),
        (after.head_persistence_from(&before) * 100.0).round()
    );

    let stats = ClusteringStats::of(net.topology(), &after).expect("non-empty");
    println!(
        "final organization: {} clusters, mean tree length {:.2}, mean head eccentricity {:.2}",
        stats.clusters, stats.mean_tree_length, stats.mean_head_eccentricity
    );
}
