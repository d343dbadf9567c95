//! Dynamics integration tests: the protocol running *while* the
//! topology changes under it — mobility re-convergence, incremental
//! link churn, and the stability benefit of the Section 4.3 rules.

use rand::SeedableRng;
use selfstab::mobility::MobilityModel;
use selfstab::prelude::*;

mod testkit;
use testkit::first_divergence;

#[test]
fn protocol_restabilizes_after_each_mobility_burst() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let topo = builders::poisson(200.0, 0.12, &mut rng);
    let n = topo.len();
    let model = RandomWaypoint::new(n, 0.0..=meters_per_second(10.0), 0.0);
    let mut scenario = MobileScenario::new(topo.clone(), model, 11);
    let mut net = Scenario::new(DensityCluster::new(ClusterConfig::default()))
        .topology(topo)
        .seed(11)
        .build()
        .expect("valid scenario");
    net.run(25);
    let stop = StopWhen::stable_for(4).within(50_000);
    for burst in 0..6 {
        // 10 seconds of vehicular movement, then let the protocol run.
        scenario.advance(10.0);
        net.set_topology(scenario.topology().clone())
            .expect("mobility keeps the node count");
        let report = net.run_to(&stop);
        assert!(report.is_stable(), "burst {burst}: no restabilization");
        let got = extract_clustering(net.states()).expect("clean");
        let want = oracle(net.topology(), &OracleConfig::default());
        assert_eq!(got, want, "burst {burst}");
    }
}

#[test]
fn continuous_small_churn_keeps_output_near_fixpoint() {
    // One link flap per step: the protocol chases the moving fixpoint;
    // when churn stops it must land exactly on it.
    let mut rng = rand::rngs::StdRng::seed_from_u64(12);
    let base = builders::uniform(60, 0.18, &mut rng);
    let mut net = Scenario::new(DensityCluster::new(ClusterConfig::default()))
        .topology(base.clone())
        .seed(12)
        .build()
        .expect("valid scenario");
    net.run(20);
    let edges: Vec<(NodeId, NodeId)> = base.edges().collect();
    for (i, &(u, v)) in edges.iter().take(30).enumerate() {
        let mut topo = net.topology().clone();
        if i % 2 == 0 {
            topo.remove_edge(u, v);
        } else {
            topo.add_edge(u, v).unwrap();
        }
        net.set_topology(topo).expect("same node count");
        net.run(1);
    }
    // Restore the exact original topology and settle.
    net.set_topology(base).expect("same node count");
    net.run_to(&StopWhen::stable_for(4).within(5000))
        .expect_stable("settles after churn stops");
    let got = extract_clustering(net.states()).expect("clean");
    assert_eq!(got, oracle(net.topology(), &OracleConfig::default()));
}

#[test]
fn incumbency_reduces_reelections_under_mobility() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let topo = builders::poisson(300.0, 0.1, &mut rng);
    let n = topo.len();

    let measure = |improved: bool| -> f64 {
        let model = RandomWaypoint::new(n, 0.0..=meters_per_second(1.6), 0.0);
        let mut scenario = MobileScenario::new(topo.clone(), model, 13);
        let mut prev = oracle(scenario.topology(), &OracleConfig::default());
        let mut persistence = RunningStats::new();
        for _ in 0..40 {
            scenario.advance(2.0);
            let cfg = if improved {
                OracleConfig {
                    order: OrderKind::Stable,
                    rule: HeadRule::Fusion,
                    prev_heads: Some(
                        scenario
                            .topology()
                            .nodes()
                            .map(|p| prev.is_head(p))
                            .collect(),
                    ),
                    ..OracleConfig::default()
                }
            } else {
                OracleConfig::default()
            };
            let next = oracle(scenario.topology(), &cfg);
            persistence.push(next.head_persistence_from(&prev));
            prev = next;
        }
        persistence.mean()
    };

    let with_rules = measure(true);
    let without = measure(false);
    assert!(
        with_rules >= without - 0.02,
        "4.3 rules: {with_rules:.3} vs basic {without:.3}"
    );
}

#[test]
fn mobile_scenario_with_live_protocol_round_per_tick() {
    // The fully coupled loop through the scenario builder: the
    // attached mobility dynamics move the nodes before every protocol
    // step (1 s per step at pedestrian speed — the paper's mobility
    // study setting, finely discretized). The clustering must remain
    // structurally sane throughout: head claims resolve to nodes that
    // claim themselves once the network quiesces at the end.
    let mut rng = rand::rngs::StdRng::seed_from_u64(14);
    let topo = builders::poisson(150.0, 0.12, &mut rng);
    let n = topo.len();
    let model = RandomWaypoint::new(n, 0.0..=meters_per_second(1.6), 0.0);
    let mobile = MobileScenario::new(topo.clone(), model, 14);
    let mut net = Scenario::new(DensityCluster::new(ClusterConfig {
        cache_ttl: 3,
        ..ClusterConfig::default()
    }))
    .topology(topo)
    .seed(14)
    .mobility(mobile.into_dynamics(1.0))
    .build()
    .expect("valid scenario");
    net.run(70); // ~70 seconds of movement with the protocol live
                 // Movement continues, but the protocol must keep its output
                 // structurally clean modulo the churn: the live snapshot's claims
                 // stay in range.
    let clustering = extract_clustering(net.states());
    assert!(
        clustering.is_some(),
        "claims stay in range while the network moves"
    );
    // Movement stops: detach the dynamics and let the *live* network
    // — churned caches, mid-flight election and all — settle. It must
    // stabilize to the oracle of wherever the nodes ended up.
    assert!(net.stop_dynamics(), "mobility was attached");
    net.run_to(&StopWhen::stable_for(4).within(5000))
        .expect_stable("stabilizes once movement stops");
    let got = extract_clustering(net.states()).expect("clean");
    assert_eq!(got, oracle(net.topology(), &OracleConfig::default()));
}

/// Steps of the runs below, and seconds the nodes move per step.
const FOLLOWED_STEPS: u64 = 30;
const SECONDS_PER_STEP: f64 = 2.0;

/// Steps `driver`, which moves by the dynamics of a scenario twin of
/// `reference`, beside `reference`'s own advances: after its step `k`
/// the driver's topology — positions included — is the one
/// `reference` reaches after `k` calls to `advance`.
fn follows_its_scenario<C: Clock<DensityCluster>, M: MobilityModel>(
    label: &str,
    mut driver: Sim<DensityCluster, C>,
    mut reference: MobileScenario<M>,
) {
    let mut churn = 0;
    for k in 1..=FOLLOWED_STEPS {
        driver.step();
        let delta = reference.advance(SECONDS_PER_STEP);
        churn += delta.added.len() + delta.removed.len();
        let (topo, want) = (driver.topology(), reference.topology());
        let (at, wanted) = (topo.positions(), want.positions());
        let (at, wanted) = (at.expect("unit-disk"), wanted.expect("unit-disk"));
        if let Some(node) = first_divergence(at, wanted) {
            panic!("{label}, step {k}: positions differ (left driver, right scenario) at {node}");
        }
        assert!(topo == want, "{label}, step {k}: the links differ");
    }
    assert!(churn > 0, "{label}: the moves changed some links");
}

/// [`follows_its_scenario`] on rounds, events and actors at one worker,
/// each deployed on `topo` and moved by `model`.
fn follows_on_every_clock<M>(label: &str, topo: &Topology, model: impl Fn() -> M)
where
    M: MobilityModel + Send + 'static,
{
    let seed = 15;
    let scenario = || {
        let mobile = MobileScenario::new(topo.clone(), model(), seed);
        Scenario::new(DensityCluster::new(ClusterConfig::default().event_driven()))
            .topology(topo.clone())
            .seed(seed)
            .mobility(mobile.into_dynamics(SECONDS_PER_STEP))
    };
    let reference = || MobileScenario::new(topo.clone(), model(), seed);
    let rounds = scenario().build().expect("valid scenario");
    follows_its_scenario(&format!("{label}, rounds"), rounds, reference());
    let events = scenario().build_events(EventConfig::default());
    let events = events.expect("valid event scenario");
    follows_its_scenario(&format!("{label}, events"), events, reference());
    let actors = scenario().build_actors(1).expect("valid actor scenario");
    follows_its_scenario(&format!("{label}, actors"), actors, reference());
}

#[test]
fn mobility_dynamics_follow_their_scenario_on_every_clock() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(15);
    let topo = builders::poisson(120.0, 0.12, &mut rng);
    let n = topo.len();
    let speed = 0.0..=meters_per_second(10.0);
    follows_on_every_clock("random waypoint", &topo, || {
        RandomWaypoint::new(n, speed.clone(), 0.0)
    });
    follows_on_every_clock("random direction", &topo, || {
        RandomDirection::new(n, speed.clone(), 10.0)
    });
}
