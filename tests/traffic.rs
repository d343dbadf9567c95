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

/// Random link churn over a uniform deployment: each step may sever a
/// random present edge or restore the original topology wholesale,
/// and routes are answered from the *current* topology's oracle —
/// stale table entries from earlier topologies are exactly what the
/// per-hop edge check must catch. Asserts, step by step, that
/// forwarding only used edges present at that step; returns the final
/// report and the digest of the whole audit trail.
fn link_churn_run(n: usize, r: u32, seed: u64, shards: Option<usize>) -> (String, String) {
    let mut rng = StdRng::seed_from_u64(seed);
    let original = {
        let mut trng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
        builders::uniform(n, f64::from(r) / 100.0, &mut trng)
    };
    let mut topo = original.clone();
    let mut plane = audited_plane(n, 20, shards);
    plane.add_flows(&workload(n, 6, seed));
    let mut trail = Vec::new();
    for _ in 0..60 {
        if rng.random_bool(0.3) {
            let edges: Vec<(NodeId, NodeId)> = topo.edges().collect();
            if !edges.is_empty() {
                let (u, v) = edges[rng.random_range(0..edges.len())];
                topo.remove_edge(u, v);
            }
        } else if rng.random_bool(0.1) {
            topo = original.clone();
        }
        let view = oracle_view(&topo);
        plane.on_step(&topo, Some(&view));
        let audit = plane.take_audit();
        assert_no_phantom_edges(&audit, &topo);
        trail.extend(audit);
    }
    (plane.report().to_json(), audit_digest(&trail))
}

/// Mobility churn: random-waypoint movement over a position-carrying
/// grid continuously rewires the topology while packets are in
/// flight. Same checks and results as [`link_churn_run`].
fn mobility_grid_run(side: usize, seed: u64, shards: Option<usize>) -> (String, String) {
    let topo = builders::grid(side, side, 0.3);
    let n = topo.len();
    let model = RandomWaypoint::new(n, 0.0..=meters_per_second(40.0), 0.5);
    let mut scenario = MobileScenario::new(topo, model, seed);
    let mut plane = audited_plane(n, 20, shards);
    plane.add_flows(&workload(n, 5, seed));
    let mut trail = Vec::new();
    for _ in 0..50 {
        scenario.advance(1.0);
        let view = oracle_view(scenario.topology());
        plane.on_step(scenario.topology(), Some(&view));
        let audit = plane.take_audit();
        assert_no_phantom_edges(&audit, scenario.topology());
        trail.extend(audit);
    }
    (plane.report().to_json(), audit_digest(&trail))
}

/// An audited plane with the given TTL (short enough, in the churn
/// and outage scenarios, to strand packets); `shards: None` keeps the
/// automatic policy and the `MWN_FORCE_SHARDS` override.
fn audited_plane(n: usize, ttl: u64, shards: Option<usize>) -> TrafficPlane {
    let mut plane = TrafficPlane::new(
        n,
        TrafficConfig {
            ttl,
            ..TrafficConfig::default()
        },
    );
    if shards.is_some() {
        plane.set_shards(shards);
    }
    plane.set_audit(true);
    plane
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn no_phantom_edges_under_link_churn(
        n in 8usize..40,
        r in 15u32..35,
        seed in 0u64..1_000_000,
    ) {
        link_churn_run(n, r, seed, None);
    }

    #[test]
    fn no_phantom_edges_under_mobility_grids(
        side in 4usize..8,
        seed in 0u64..1_000_000,
    ) {
        mobility_grid_run(side, seed, None);
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
/// non-zero stranded loss, and healing must restore delivery. Asserts
/// both; returns the final report and the audit trail's digest.
/// `shards: None` keeps the automatic policy of network and plane.
fn fault_burst_run(shards: Option<usize>) -> (String, String) {
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
    let mut scenario = Scenario::new(DensityCluster::new(ClusterConfig::default().event_driven()))
        .topology(topo.clone())
        .seed(8);
    if let Some(k) = shards {
        scenario = scenario.shards(k);
    }
    let mut net = scenario.build().expect("valid scenario");
    net.run_to(&StopWhen::stable_for(5).within(2_000))
        .expect_stable("stabilizes");
    let mut plane = audited_plane(topo.len(), 24, shards);
    plane.add_flows(&flows);
    let view = |topo: &Topology, states: &[ClusterState]| {
        extract_clustering(states).and_then(|c| HierarchicalRoutes::try_new(topo, c))
    };
    run_rounds(&mut net, &mut plane, 40, view);
    net.inject(&Fault::Isolate(hot)).expect("a valid fault");
    let mid = run_rounds(&mut net, &mut plane, 80, view);
    assert!(
        mid.dropped_stranded > 0,
        "no stranded loss during the outage: {mid:?}"
    );
    net.inject(&Fault::SetTopology(topo.clone()))
        .expect("same node count");
    let end = run_rounds(&mut net, &mut plane, 4_000, view);
    assert!(
        end.delivered > mid.delivered,
        "delivery did not resume after healing"
    );
    assert!(end.loss_during_restabilization > 0.0);
    (end.to_json(), audit_digest(&plane.take_audit()))
}

#[test]
fn fault_burst_strands_packets_then_recovers() {
    fault_burst_run(None);
}

// ------------------------------------------------------------------
// Byte-identity pins. `traffic_quiet` never breaks a link, so it never
// reaches stale-hop eviction, re-resolution of pending keys, the
// per-pass failed-destination skip, the usable-hop classification of
// an expiry, or overflow. Each pin below drives those paths and
// compares the full report and the full forwarding audit trail with
// what the `HashMap`-backed plane of PR 15 produced, at every shard
// count: a next-hop store that diverges fails here by name.

/// `"<traversals>:<FNV-1a of every (step, from, to)>"`.
fn audit_digest(audit: &[(u64, NodeId, NodeId)]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &(step, u, v) in audit {
        for word in [step, u64::from(u.value()), u64::from(v.value())] {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    format!("{}:{h:016x}", audit.len())
}

/// Runs `scenario` at shards {1, 2, 4, 7} and compares each outcome
/// with the pinned `(report JSON, audit digest)`.
fn assert_pinned(name: &str, pin: (&str, &str), scenario: impl Fn(usize) -> (String, String)) {
    for shards in [1, 2, 4, 7] {
        let (report, audit) = scenario(shards);
        assert_eq!(report, pin.0, "{name}: report diverged at shards={shards}");
        assert_eq!(
            audit, pin.1,
            "{name}: audit trail diverged at shards={shards}"
        );
    }
}

/// Many flows into few sinks over two-slot queues: overflow at the
/// relays, deferral at the sources, expiry behind a usable hop.
fn overflow_case(shards: usize) -> (String, String) {
    let topo = builders::grid(6, 6, 0.3);
    let mut plane = TrafficPlane::new(
        topo.len(),
        TrafficConfig {
            queue_capacity: 2,
            service_rate: 1,
            ttl: 5,
            inject_rate: 2,
        },
    );
    plane.set_shards(Some(shards));
    plane.set_audit(true);
    plane.add_flows(
        &DemandModel {
            flows: 30,
            mean_packets: 20.0,
            max_packets: 80,
            zipf_exponent: 1.4,
            ..DemandModel::default()
        }
        .generate(topo.len(), 31),
    );
    let view = oracle_view(&topo);
    for _ in 0..400 {
        plane.on_step(&topo, Some(&view));
    }
    (plane.report().to_json(), audit_digest(&plane.take_audit()))
}

const PIN_FAULT_BURST: (&str, &str) = (
    r#"{"nodes":49,"flows":12,"steps":287,"injected":1005,"delivered":895,"in_flight":0,"deferred":0,"dropped_overflow":0,"dropped_stranded":109,"dropped_expired":1,"delivered_fraction":0.890547,"throughput":3.118467,"latency_p50":5.000000,"latency_p95":5.000000,"latency_p99":19.000000,"latency_mean":3.322905,"mean_hops":4.024581,"max_hops":5,"loss_during_restabilization":0.108458,"route_resolutions":14}"#,
    "4042:6a564377eaa61e0e",
);
const PIN_LINK_CHURN: (&str, &str) = (
    r#"{"nodes":38,"flows":6,"steps":60,"injected":73,"delivered":46,"in_flight":0,"deferred":0,"dropped_overflow":0,"dropped_stranded":27,"dropped_expired":0,"delivered_fraction":0.630137,"throughput":0.766667,"latency_p50":5.000000,"latency_p95":7.000000,"latency_p99":7.000000,"latency_mean":3.543478,"mean_hops":4.521739,"max_hops":7,"loss_during_restabilization":0.369863,"route_resolutions":6}"#,
    "208:cd8476d07093abed",
);
const PIN_MOBILITY_GRID: (&str, &str) = (
    r#"{"nodes":49,"flows":5,"steps":50,"injected":93,"delivered":90,"in_flight":3,"deferred":0,"dropped_overflow":0,"dropped_stranded":0,"dropped_expired":0,"delivered_fraction":0.967742,"throughput":1.800000,"latency_p50":4.000000,"latency_p95":9.000000,"latency_p99":11.000000,"latency_mean":3.311111,"mean_hops":3.944444,"max_hops":10,"loss_during_restabilization":0.000000,"route_resolutions":24}"#,
    "361:e29fe0b8d1d50f8d",
);
const PIN_OVERFLOW: (&str, &str) = (
    r#"{"nodes":36,"flows":30,"steps":400,"injected":439,"delivered":188,"in_flight":0,"deferred":743,"dropped_overflow":216,"dropped_stranded":0,"dropped_expired":35,"delivered_fraction":0.428246,"throughput":0.470000,"latency_p50":4.000000,"latency_p95":5.000000,"latency_p99":5.000000,"latency_mean":3.276596,"mean_hops":2.702128,"max_hops":5,"loss_during_restabilization":0.000000,"route_resolutions":27}"#,
    "742:25d9aadbdba0bf03",
);

#[test]
fn report_and_audit_are_byte_identical_to_pr15_fault_burst() {
    assert_pinned("fault_burst", PIN_FAULT_BURST, |shards| {
        fault_burst_run(Some(shards))
    });
}

#[test]
fn report_and_audit_are_byte_identical_to_pr15_link_churn() {
    assert_pinned("link_churn", PIN_LINK_CHURN, |shards| {
        link_churn_run(38, 30, 8, Some(shards))
    });
}

#[test]
fn report_and_audit_are_byte_identical_to_pr15_mobility_grid() {
    assert_pinned("mobility_grid", PIN_MOBILITY_GRID, |shards| {
        mobility_grid_run(7, 2, Some(shards))
    });
}

#[test]
fn report_and_audit_are_byte_identical_to_pr15_overflow() {
    assert_pinned("overflow", PIN_OVERFLOW, overflow_case);
}
