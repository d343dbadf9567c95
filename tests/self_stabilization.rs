//! Self-stabilization integration tests: convergence from arbitrary
//! configurations and closure of legitimate ones, under every fault
//! scenario the drivers can express (total corruption, partial
//! corruption, repeated corruption mid-convergence, link failures,
//! corruption under a lossy medium).

use rand::SeedableRng;
use selfstab::prelude::*;

fn field(seed: u64) -> Topology {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    builders::poisson(250.0, 0.12, &mut rng)
}

fn default_scenario(seed: u64) -> Scenario<DensityCluster> {
    Scenario::new(DensityCluster::new(ClusterConfig::default()))
        .topology(field(seed))
        .seed(seed)
}

#[test]
fn total_corruption_reconverges_to_the_same_fixpoint() {
    let mut net = default_scenario(1).build().expect("valid scenario");
    net.run(25);
    let fixpoint = extract_clustering(net.states()).expect("stabilized");
    let stop = StopWhen::stable_for(3).within(10_000);
    for round in 0..5 {
        net.inject(&Fault::CorruptAll).expect("a valid fault");
        let report = net.run_to(&stop);
        assert!(report.is_stable(), "round {round}: no reconvergence");
        assert_eq!(
            extract_clustering(net.states()).expect("clean"),
            fixpoint,
            "round {round}"
        );
    }
}

#[test]
fn partial_corruption_reconverges() {
    let stop = StopWhen::stable_for(3).within(10_000);
    for fraction in [0.1, 0.5, 0.9] {
        let mut net = default_scenario(2).build().expect("valid scenario");
        net.run(25);
        let fixpoint = extract_clustering(net.states()).expect("stabilized");
        net.inject(&Fault::CorruptFraction(fraction))
            .expect("a valid fault");
        net.run_to(&stop).expect_stable("reconverges");
        assert_eq!(extract_clustering(net.states()).expect("clean"), fixpoint);
    }
}

#[test]
fn corruption_during_convergence_is_harmless() {
    // Corrupt before the system ever stabilizes — the definition of
    // self-stabilization makes no assumption about when faults stop.
    // The scripted fault plan fires inside the driver itself.
    let mut plan = FaultPlan::new();
    for step in [1, 3, 6, 11] {
        plan.at(step, Fault::CorruptFraction(0.4));
    }
    let mut net = default_scenario(3)
        .faults(plan)
        .build()
        .expect("valid scenario");
    net.run(12); // all scripted faults have fired by now
    net.run_to(&StopWhen::stable_for(3).within(10_000))
        .expect_stable("still converges");
    check_legitimate(&net).expect("legitimate after turbulent start");
}

#[test]
fn closure_holds_for_thousands_of_steps() {
    let mut net = default_scenario(4).build().expect("valid scenario");
    net.run(30);
    let fixpoint = extract_clustering(net.states()).expect("stabilized");
    for _ in 0..20 {
        net.run(100);
        assert_eq!(
            extract_clustering(net.states()).expect("clean"),
            fixpoint,
            "output drifted without any fault"
        );
    }
}

#[test]
fn corruption_under_lossy_medium_reconverges() {
    let mut net = Scenario::new(DensityCluster::new(ClusterConfig {
        cache_ttl: 30,
        ..ClusterConfig::default()
    }))
    .medium(BernoulliLoss::new(0.6))
    .topology(field(5))
    .seed(5)
    .build()
    .expect("valid scenario");
    net.run_to(&StopWhen::stable_for(25).within(20_000))
        .expect_stable("initial convergence");
    let fixpoint = extract_clustering(net.states()).expect("stabilized");
    net.inject(&Fault::CorruptAll).expect("a valid fault");
    net.run_to(&StopWhen::stable_for(25).within(40_000))
        .expect_stable("reconvergence under loss");
    assert_eq!(extract_clustering(net.states()).expect("clean"), fixpoint);
}

#[test]
fn dag_names_self_heal_with_the_full_protocol() {
    let topo = builders::grid(8, 8, 0.2);
    let gamma = NameSpace::delta_squared(topo.max_degree());
    let config = ClusterConfig {
        dag: Some(DagConfig {
            gamma,
            variant: DagVariant::Randomized,
        }),
        ..ClusterConfig::default()
    };
    let mut net = Scenario::new(DensityCluster::new(config))
        .topology(topo)
        .seed(6)
        .validate(move |t| config.validate_for(t))
        .build()
        .expect("valid scenario");
    let stop = StopWhen::stable_for(4).within(1000);
    net.run_to(&stop).expect_stable("stabilizes");
    net.inject(&Fault::CorruptAll).expect("a valid fault");
    net.run_to(&stop).expect_stable("reconverges");
    check_legitimate(&net).expect("names and election both legitimate");
}

#[test]
fn link_failure_and_recovery_restabilizes() {
    let topo = field(7);
    let mut net = Scenario::new(DensityCluster::new(ClusterConfig::default()))
        .topology(topo.clone())
        .seed(7)
        .build()
        .expect("valid scenario");
    net.run(25);
    let before = extract_clustering(net.states()).expect("stabilized");

    // Kill the busiest node's radio.
    let busiest = topo
        .nodes()
        .max_by_key(|&p| topo.degree(p))
        .expect("non-empty");
    net.inject(&Fault::Isolate(busiest)).expect("a valid fault");
    let stop = StopWhen::stable_for(5).within(5000);
    net.run_to(&stop)
        .expect_stable("restabilizes without the hub");
    let during = extract_clustering(net.states()).expect("clean");
    assert!(during.is_head(busiest), "an isolated node heads itself");

    // Radio comes back: the network returns to the original fixpoint.
    net.inject(&Fault::SetTopology(topo))
        .expect("same node count");
    net.run_to(&stop)
        .expect_stable("restabilizes after recovery");
    assert_eq!(extract_clustering(net.states()).expect("clean"), before);
}

#[test]
fn event_driver_corruption_reconverges() {
    let mut driver = Scenario::new(DensityCluster::new(ClusterConfig {
        cache_ttl: 25,
        ..ClusterConfig::default()
    }))
    .topology(field(8))
    .seed(8)
    .build_events(EventConfig::default())
    .expect("valid event scenario");
    // The quiet window must outlast the cache TTL (25 periods):
    // corrupted ghost entries influence the output *constantly* until
    // they expire, so a shorter window could report them as "stable".
    driver
        .run_until_output_stable(1.0, 30, 3000.0)
        .expect("initial convergence");
    let fixpoint = extract_clustering(driver.states()).expect("stabilized");
    driver.inject(&Fault::CorruptAll).expect("a valid fault");
    driver
        .run_until_output_stable(1.0, 30, 6000.0)
        .expect("reconvergence");
    assert_eq!(
        extract_clustering(driver.states()).expect("clean"),
        fixpoint
    );
}
