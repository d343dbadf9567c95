//! Traffic-plane integration properties over the whole stack:
//!
//! * **no phantom edges** — no packet ever traverses an edge that is
//!   absent from the topology at its forwarding instant, under random
//!   link churn and under mobility on position-carrying grids;
//! * **sharded ≡ serial** — the full control-plane + data-plane
//!   pipeline produces byte-identical traffic reports regardless of
//!   the forwarding shard count;
//! * **both clocks** — a quiet stabilized network delivers 100% under
//!   the synchronous round driver *and* the continuous-time event
//!   driver.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use selfstab::prelude::*;
use selfstab::traffic::hottest_sink;

fn oracle_view(topo: &Topology) -> HierarchicalRoutes {
    HierarchicalRoutes::new(topo, oracle(topo, &OracleConfig::default()))
}

fn workload(n: usize, flows: usize, seed: u64) -> Vec<FlowSpec> {
    DemandModel {
        flows,
        mean_packets: 12.0,
        max_packets: 60,
        ..DemandModel::default()
    }
    .generate(n, seed)
}

/// Asserts every audited traversal `(step, u, v)` used an edge present
/// in `topo` (the topology in force at that step).
fn assert_no_phantom_edges(audit: &[(u64, NodeId, NodeId)], topo: &Topology) {
    for &(step, u, v) in audit {
        assert!(
            topo.has_edge(u, v),
            "step {step}: packet traversed missing edge {u}→{v}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random link churn: each step may sever a random present edge
    /// or restore the original topology wholesale. Forwarding must
    /// only ever use edges present at that exact step.
    #[test]
    fn no_phantom_edges_under_link_churn(
        n in 8usize..40,
        r in 15u32..35,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let original = {
            let mut trng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
            builders::uniform(n, f64::from(r) / 100.0, &mut trng)
        };
        let mut topo = original.clone();
        let mut plane = TrafficPlane::new(n, TrafficConfig {
            ttl: 20,
            ..TrafficConfig::default()
        });
        plane.set_audit(true);
        plane.add_flows(&workload(n, 6, seed));

        for _ in 0..60 {
            // Churn: sever a random present edge, sometimes heal all.
            if rng.random_bool(0.3) {
                let edges: Vec<(NodeId, NodeId)> = topo.edges().collect();
                if let Some(&(u, v)) = edges.get(rng.random_range(0..edges.len().max(1)).min(edges.len().saturating_sub(1))) {
                    if !edges.is_empty() {
                        topo.remove_edge(u, v);
                    }
                }
            } else if rng.random_bool(0.1) {
                topo = original.clone();
            }
            // Routes answered from the *current* topology's oracle;
            // stale cache entries from earlier topologies are exactly
            // what the per-hop edge check must catch.
            let view = oracle_view(&topo);
            plane.on_step(&topo, Some(&view));
            assert_no_phantom_edges(&plane.take_audit(), &topo);
        }
    }

    /// Mobility churn: random-waypoint movement over a
    /// position-carrying grid continuously rewires the topology while
    /// packets are in flight.
    #[test]
    fn no_phantom_edges_under_mobility_grids(
        side in 4usize..8,
        seed in 0u64..1_000_000,
    ) {
        let topo = builders::grid(side, side, 0.3);
        let n = topo.len();
        let model = RandomWaypoint::new(n, 0.0..=meters_per_second(40.0), 0.5);
        let mut scenario = MobileScenario::new(topo, model, seed);
        let mut plane = TrafficPlane::new(n, TrafficConfig {
            ttl: 20,
            ..TrafficConfig::default()
        });
        plane.set_audit(true);
        plane.add_flows(&workload(n, 5, seed));

        for _ in 0..50 {
            scenario.advance(1.0);
            let view = oracle_view(scenario.topology());
            plane.on_step(scenario.topology(), Some(&view));
            assert_no_phantom_edges(&plane.take_audit(), scenario.topology());
        }
    }
}

/// The full pipeline — DensityCluster control plane, hierarchical
/// routes, heavy-tailed flows — as a function of the shard count:
/// byte-identical reports, serial vs any sharding, on both the
/// network's active pass and the plane's forwarding pass.
#[test]
fn sharded_traffic_pipeline_is_byte_identical_to_serial() {
    let run = |shards: usize| {
        let mut rng = StdRng::seed_from_u64(9);
        let topo = builders::poisson(400.0, 0.09, &mut rng);
        let mut net = Scenario::new(DensityCluster::new(ClusterConfig::default().event_driven()))
            .topology(topo.clone())
            .seed(9)
            .shards(shards)
            .build()
            .expect("valid scenario");
        net.run_to(&StopWhen::stable_for(5).within(5_000))
            .expect_stable("stabilizes");
        let mut plane = TrafficPlane::new(topo.len(), TrafficConfig::default());
        plane.set_shards(Some(shards));
        plane.add_flows(&workload(topo.len(), 24, 9));
        let report = run_rounds(&mut net, &mut plane, 500, |topo, states| {
            extract_clustering(states).and_then(|c| HierarchicalRoutes::try_new(topo, c))
        });
        report.to_json()
    };
    let serial = run(1);
    for shards in [2, 4, 7] {
        assert_eq!(run(shards), serial, "shards={shards} diverged");
    }
}

/// Quiet delivery on the synchronous clock: a stabilized connected
/// network delivers every injected packet.
#[test]
fn round_clock_quiet_network_delivers_everything() {
    let topo = builders::grid(7, 7, 0.3);
    let mut net = Scenario::new(DensityCluster::new(ClusterConfig::default()))
        .topology(topo.clone())
        .seed(3)
        .build()
        .expect("valid scenario");
    net.run_to(&StopWhen::stable_for(5).within(2_000))
        .expect_stable("stabilizes");
    let mut plane = TrafficPlane::new(
        topo.len(),
        TrafficConfig {
            queue_capacity: 1 << 16,
            ttl: 1 << 30,
            ..TrafficConfig::default()
        },
    );
    plane.add_flows(&workload(topo.len(), 10, 4));
    let report = run_rounds(&mut net, &mut plane, 5_000, |topo, states| {
        extract_clustering(states).and_then(|c| HierarchicalRoutes::try_new(topo, c))
    });
    assert_eq!(report.delivered, report.injected, "{report:?}");
    assert_eq!(report.delivered_fraction, 1.0);
    assert_eq!(report.dropped_stranded, 0);
    assert!(report.latency_p50 <= report.latency_p99);
}

/// Quiet delivery on the continuous-time clock: the same guarantee
/// from the same `run_rounds`, one traffic step per beacon period.
#[test]
fn event_clock_quiet_network_delivers_everything() {
    let topo = builders::grid(6, 6, 0.3);
    let mut driver = Scenario::new(DensityCluster::new(ClusterConfig::default().event_driven()))
        .topology(topo.clone())
        .seed(5)
        .build_events(EventConfig::default())
        .expect("valid scenario");
    // Stabilize the election before traffic starts.
    driver.run_until_time(60.0);
    let mut plane = TrafficPlane::new(
        topo.len(),
        TrafficConfig {
            queue_capacity: 1 << 16,
            ttl: 1 << 30,
            ..TrafficConfig::default()
        },
    );
    plane.add_flows(&workload(topo.len(), 8, 6));
    let report = run_rounds(&mut driver, &mut plane, 4_000, |topo, states| {
        extract_clustering(states).and_then(|c| HierarchicalRoutes::try_new(topo, c))
    });
    assert_eq!(report.delivered, report.injected, "{report:?}");
    assert_eq!(report.delivered_fraction, 1.0);
}

/// Severing the hottest sink for longer than the TTL must show up as
/// non-zero stranded loss, and healing must restore delivery.
#[test]
fn fault_burst_strands_packets_then_recovers() {
    let topo = builders::grid(7, 7, 0.3);
    // Heavy enough that flows are still injecting when the outage
    // starts (the quick default drains in ~20 steps).
    let flows = DemandModel {
        flows: 12,
        mean_packets: 150.0,
        max_packets: 400,
        start_spread: 60,
        ..DemandModel::default()
    }
    .generate(topo.len(), 8);
    let hot = hottest_sink(&flows).expect("non-empty");
    let mut net = Scenario::new(DensityCluster::new(ClusterConfig::default().event_driven()))
        .topology(topo.clone())
        .seed(8)
        .build()
        .expect("valid scenario");
    net.run_to(&StopWhen::stable_for(5).within(2_000))
        .expect_stable("stabilizes");
    let mut plane = TrafficPlane::new(
        topo.len(),
        TrafficConfig {
            ttl: 24,
            ..TrafficConfig::default()
        },
    );
    plane.add_flows(&flows);
    let view = |topo: &Topology, states: &[ClusterState]| {
        extract_clustering(states).and_then(|c| HierarchicalRoutes::try_new(topo, c))
    };
    run_rounds(&mut net, &mut plane, 40, view);
    net.isolate(hot);
    let mid = run_rounds(&mut net, &mut plane, 80, view);
    assert!(
        mid.dropped_stranded > 0,
        "no stranded loss during the outage: {mid:?}"
    );
    net.set_topology(topo.clone()).expect("same node count");
    let end = run_rounds(&mut net, &mut plane, 4_000, view);
    assert!(
        end.delivered > mid.delivered,
        "delivery did not resume after healing"
    );
    assert!(end.loss_during_restabilization > 0.0);
}
