//! Traffic over a healing network: the headline number for the
//! traffic plane. A relief deployment self-organizes, data flows over
//! the stabilized overlay, then the most popular sink goes dark for
//! longer than the packets' TTL. Every byte lost while the structure
//! re-stabilizes is accounted for — the `loss_during_restabilization`
//! column — and delivery resumes once the protocol heals.
//!
//! ```sh
//! cargo run --release --example traffic_relief
//! ```

use rand::SeedableRng;
use selfstab::graph::traversal::connected_components;
use selfstab::prelude::*;
use selfstab::traffic::hottest_sink;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2005);
    let topo = builders::poisson(600.0, 0.08, &mut rng);
    println!(
        "relief network: {} radios, {} links",
        topo.len(),
        topo.edge_count()
    );

    // Self-organize first: traffic rides *on* the stabilized overlay.
    let mut net = Scenario::new(DensityCluster::new(ClusterConfig::default().event_driven()))
        .topology(topo.clone())
        .seed(7)
        .build()
        .expect("valid scenario");
    let steps = net
        .run_to(&StopWhen::stable_for(5).within(20_000))
        .expect_stable("stabilizes");
    println!("overlay stable after {steps} steps");

    // Heavy-tailed demand (Zipf sinks × Pareto flow sizes), confined
    // to the giant component so every flow is routable when quiet.
    let component = connected_components(&topo)
        .into_iter()
        .max_by_key(|c| c.len())
        .expect("non-empty");
    let model = DemandModel {
        flows: 48,
        mean_packets: 300.0,
        max_packets: 2_000,
        start_spread: 500,
        ..DemandModel::default()
    };
    let flows: Vec<FlowSpec> = model
        .generate(component.len(), 42)
        .into_iter()
        .map(|f| FlowSpec {
            src: component[f.src.index()],
            dst: component[f.dst.index()],
            ..f
        })
        .collect();
    let hot = hottest_sink(&flows).expect("non-empty workload");
    println!(
        "workload: {} flows, hottest sink is node {hot}",
        flows.len()
    );

    let mut plane = TrafficPlane::new(
        topo.len(),
        TrafficConfig {
            ttl: 64,
            ..TrafficConfig::default()
        },
    );
    plane.add_flows(&flows);
    let view = |topo: &Topology, states: &[ClusterState]| {
        extract_clustering(states).and_then(|c| HierarchicalRoutes::try_new(topo, c))
    };

    // Phase 1 — quiet operation.
    let quiet = run_rounds(&mut net, &mut plane, 200, view);
    println!(
        "quiet:  {} delivered / {} injected, p50 latency {:.0} steps, {:.1} mean hops",
        quiet.delivered, quiet.injected, quiet.latency_p50, quiet.mean_hops
    );

    // Phase 2 — the hottest sink goes dark for longer than the TTL.
    net.inject(&Fault::Isolate(hot)).expect("a valid fault");
    let outage = run_rounds(&mut net, &mut plane, 150, view);
    println!(
        "outage: node {hot} dark for 150 steps (TTL 64): {} packets stranded so far",
        outage.dropped_stranded
    );

    // Phase 3 — links restored; the protocol re-stabilizes and the
    // backlog drains.
    net.inject(&Fault::SetTopology(topo))
        .expect("same node count");
    let healed = run_rounds(&mut net, &mut plane, 100_000, view);
    println!(
        "healed: {} delivered / {} injected ({:.1}% delivery), p99 latency {:.0} steps",
        healed.delivered,
        healed.injected,
        100.0 * healed.delivered_fraction,
        healed.latency_p99
    );
    println!(
        "\nheadline — loss during restabilization: {:.3}% of injected packets ({} stranded)",
        100.0 * healed.loss_during_restabilization,
        healed.dropped_stranded
    );
    assert!(
        healed.dropped_stranded > 0,
        "the outage outlives the TTL, so some loss is structural"
    );
}
