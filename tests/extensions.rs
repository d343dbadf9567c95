//! Integration tests for the future-work extensions (hierarchy,
//! energy) and the refined media (fading, capture, thinning) — the
//! full stack must keep its guarantees under all of them.

use rand::SeedableRng;
use selfstab::prelude::*;

fn field(seed: u64) -> Topology {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    builders::poisson(350.0, 0.09, &mut rng)
}

#[test]
fn hierarchy_addresses_every_node_to_a_top_root() {
    let topo = field(1);
    let h = build_hierarchy(&topo, &OracleConfig::default(), 10);
    let roots = h.top_heads();
    assert!(!roots.is_empty());
    for p in topo.nodes() {
        let root = h.head_of(p, h.depth() - 1).expect("walks to the top");
        assert!(
            roots.contains(&root),
            "{p}'s top-level address {root} is not a root"
        );
    }
}

#[test]
fn hierarchy_over_distributed_level0() {
    // Level 0 computed by the *distributed* protocol, upper levels by
    // the recursive construction: must agree with the all-oracle
    // hierarchy since the distributed fixpoint equals the oracle.
    let topo = field(2);
    let mut net = Scenario::new(DensityCluster::new(ClusterConfig::default()))
        .topology(topo.clone())
        .seed(2)
        .build()
        .expect("valid scenario");
    net.run_to(&StopWhen::stable_for(3).within(500))
        .expect_stable("stabilizes");
    let distributed = extract_clustering(net.states()).unwrap();
    let all_oracle = build_hierarchy(&topo, &OracleConfig::default(), 10);
    assert_eq!(
        distributed,
        all_oracle.levels()[0].clustering,
        "level 0 must be the same fixpoint"
    );
}

#[test]
fn energy_rotation_preserves_election_invariants() {
    let topo = field(3);
    let model = EnergyModel::default();
    let mut batteries: Vec<f64> = topo
        .nodes()
        .map(|p| 10.0 + f64::from(p.value() % 90))
        .collect();
    for _ in 0..10 {
        let clustering =
            energy_aware_clustering(&topo, &batteries, &model, &OracleConfig::default());
        // Still a valid clustering: heads non-adjacent, chains intact.
        for h in clustering.heads() {
            for &q in topo.neighbors(h) {
                assert!(!clustering.is_head(q));
            }
        }
        for p in topo.nodes() {
            assert!(clustering.depth_in_hops(&topo, p).is_some());
        }
        selfstab::cluster::charge_round(&mut batteries, &clustering, &model);
    }
}

#[test]
fn protocol_stabilizes_over_fading_and_capture_media() {
    let topo = field(4);
    let want = oracle(&topo, &OracleConfig::default());
    let config = ClusterConfig {
        cache_ttl: 40,
        ..ClusterConfig::default()
    };
    let stop = StopWhen::stable_for(45).within(60_000);

    let mut net = Scenario::new(DensityCluster::new(config))
        .medium(DistanceFading::new(2.0, 0.3))
        .topology(topo.clone())
        .seed(4)
        .build()
        .expect("valid scenario");
    net.run_to(&stop).expect_stable("stabilizes under fading");
    assert_eq!(extract_clustering(net.states()).unwrap(), want);

    let mut net = Scenario::new(DensityCluster::new(config))
        .medium(CaptureCsma::new(24, 1.5))
        .topology(topo)
        .seed(4)
        .build()
        .expect("valid scenario");
    net.run_to(&stop)
        .expect_stable("stabilizes under capture CSMA");
    assert_eq!(extract_clustering(net.states()).unwrap(), want);
}

#[test]
fn fault_plan_scripts_a_full_robustness_scenario() {
    let topo = field(5);
    let hub = topo
        .nodes()
        .max_by_key(|&p| topo.degree(p))
        .expect("non-empty");
    let mut plan = FaultPlan::new();
    plan.at(20, Fault::CorruptFraction(0.5))
        .at(40, Fault::Isolate(hub))
        .at(60, Fault::SetTopology(topo.clone()))
        .at(80, Fault::CorruptAll);
    // The plan rides inside the scenario: the driver fires each fault
    // right before its step, whatever run method is used.
    let mut net = Scenario::new(DensityCluster::new(ClusterConfig::default()))
        .topology(topo.clone())
        .seed(5)
        .faults(plan)
        .build()
        .expect("valid scenario");
    net.run(120);
    // After the last fault at 80 we ran 40 more steps: converged again.
    net.run_to(&StopWhen::stable_for(4).within(5000))
        .expect_stable("stabilizes after the scripted faults");
    assert_eq!(
        extract_clustering(net.states()).unwrap(),
        oracle(&topo, &OracleConfig::default())
    );
}

#[test]
fn hierarchy_renders_at_every_level() {
    // The overlay carries positions, so any level can be drawn.
    let topo = field(7);
    let h = build_hierarchy(&topo, &OracleConfig::default(), 10);
    for level in h.levels() {
        if level.topology.positions().is_some() {
            let svg = svg_clustering(&level.topology, &level.clustering);
            assert!(svg.contains("<circle"));
        }
    }
}
