//! Whole-stack reproducibility: every pipeline in the repository is a
//! pure function of its seed. This is what makes the 1000-run
//! experiment averages, the regression tests and the EXPERIMENTS.md
//! numbers meaningful.

use rand::SeedableRng;
use selfstab::prelude::*;

fn pipeline(seed: u64) -> (Vec<NodeId>, Vec<u32>, String) {
    // deploy → DAG-enabled clustering over CSMA → render
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let topo = builders::poisson(200.0, 0.12, &mut rng);
    let gamma = NameSpace::delta_squared(topo.max_degree().max(1));
    let config = ClusterConfig {
        dag: Some(DagConfig {
            gamma,
            variant: DagVariant::Randomized,
        }),
        cache_ttl: 16,
        ..ClusterConfig::default()
    };
    let mut net = Scenario::new(DensityCluster::new(config))
        .medium(SlottedCsma::new(16))
        .topology(topo)
        .seed(seed)
        .build()
        .expect("valid scenario");
    net.run_to(&StopWhen::stable_for(20).within(20_000))
        .expect_stable("stabilizes");
    let clustering = extract_clustering(net.states()).expect("clean");
    let svg = svg_clustering(net.topology(), &clustering);
    (clustering.heads(), extract_dag_ids(net.states()), svg)
}

#[test]
fn full_pipeline_is_a_function_of_the_seed() {
    let a = pipeline(77);
    let b = pipeline(77);
    assert_eq!(a.0, b.0, "heads differ across identical runs");
    assert_eq!(a.1, b.1, "DAG names differ across identical runs");
    assert_eq!(a.2, b.2, "even the SVG bytes must match");
    let c = pipeline(78);
    assert_ne!(a.1, c.1, "different seeds explore different randomness");
}

#[test]
fn mobility_pipeline_is_deterministic() {
    let run = |seed: u64| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let topo = builders::poisson(150.0, 0.1, &mut rng);
        let n = topo.len();
        let model = RandomWaypoint::new(n, 0.0..=meters_per_second(5.0), 1.0);
        let mut scenario = MobileScenario::new(topo, model, seed);
        let mut persistence = Vec::new();
        let mut prev = oracle(scenario.topology(), &OracleConfig::default());
        for _ in 0..20 {
            scenario.advance(2.0);
            let next = oracle(scenario.topology(), &OracleConfig::default());
            persistence.push((next.head_persistence_from(&prev) * 1e6) as u64);
            prev = next;
        }
        persistence
    };
    assert_eq!(run(5), run(5));
}

#[test]
fn sweep_parallel_equals_serial_on_oracle_pipelines() {
    // The same experiment through Sweep twice — thread scheduling
    // must not leak into results.
    let experiment = |seed: u64| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let topo = builders::poisson(120.0, 0.12, &mut rng);
        oracle(&topo, &OracleConfig::default()).head_count()
    };
    let parallel = Sweep::over(24, 9).map(experiment);
    let again = Sweep::over(24, 9).map(experiment);
    let serial = Sweep::over(24, 9).serial().map(experiment);
    assert_eq!(parallel, again);
    assert_eq!(
        parallel, serial,
        "parallel and serial sweeps must agree exactly"
    );
}

#[test]
fn sweep_parallel_equals_serial_on_full_scenario_runs() {
    // Determinism of the whole Scenario → run_to → observe pipeline
    // under the parallel runner: byte-identical stabilization steps,
    // head lists and DAG names for the same seed grid, regardless of
    // scheduling.
    type RunRecord = (Option<u64>, Vec<NodeId>, Vec<u32>);
    let run_grid = |sweep: Sweep| -> Vec<RunRecord> {
        let stop = StopWhen::stable_for(4).within(2000);
        sweep
            .run(
                |seed| {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                    let topo = builders::poisson(150.0, 0.12, &mut rng);
                    let gamma = NameSpace::delta_squared(topo.max_degree().max(1));
                    let config = ClusterConfig {
                        dag: Some(DagConfig {
                            gamma,
                            variant: DagVariant::Randomized,
                        }),
                        ..ClusterConfig::default()
                    };
                    Scenario::new(DensityCluster::new(config))
                        .topology(topo)
                        .seed(seed)
                },
                &stop,
                |report, net| {
                    let clustering =
                        extract_clustering(net.states()).expect("stable state is clean");
                    (
                        report.stabilized,
                        clustering.heads(),
                        extract_dag_ids(net.states()),
                    )
                },
            )
            .expect("every scenario builds")
    };
    let parallel = run_grid(Sweep::over(16, 2005));
    let serial = run_grid(Sweep::over(16, 2005).serial());
    assert_eq!(
        parallel, serial,
        "parallel sweep must be byte-identical to the serial loop"
    );
    assert!(
        parallel
            .iter()
            .all(|(stabilized, _, _)| stabilized.is_some()),
        "every seed stabilizes"
    );
}

#[test]
fn forced_shards_replay_the_unsharded_pipeline() {
    // The full deploy → cluster → extract pipeline is a pure function
    // of its seed regardless of how many worker shards the active-set
    // pass uses: the owner-computes partition and ordered merge keep
    // thread scheduling out of the results.
    let run = |shards: Option<usize>| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(64);
        let topo = builders::poisson(150.0, 0.12, &mut rng);
        let mut net = Scenario::new(DensityCluster::new(ClusterConfig::default().event_driven()))
            .topology(topo)
            .seed(64)
            .build()
            .expect("valid scenario");
        net.set_shards(shards);
        let report = net.run_to(&StopWhen::stable_for(4).within(2000));
        let clustering = extract_clustering(net.states()).expect("clean");
        (report, clustering.heads())
    };
    let baseline = run(Some(1));
    for shards in [2, 4] {
        assert_eq!(baseline, run(Some(shards)), "shards = {shards}");
    }
}

#[test]
fn event_driver_mobility_replays_exactly() {
    // Continuous-time mobility (dynamics ticking at logical-step
    // boundaries) is reproducible from the seed pair.
    let run = || {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let topo = builders::uniform(60, 0.16, &mut rng);
        let model = RandomWaypoint::new(topo.len(), 0.0..=meters_per_second(10.0), 1.0);
        let dynamics = MobileScenario::new(topo.clone(), model, 3).into_dynamics(2.0);
        let mut driver =
            Scenario::new(DensityCluster::new(ClusterConfig::default().event_driven()))
                .topology(topo)
                .seed(12)
                .mobility(dynamics)
                .build_events(EventConfig::default())
                .expect("valid event scenario");
        driver.run_until_time(35.0);
        (
            driver.topology().edges().collect::<Vec<_>>(),
            driver
                .states()
                .iter()
                .map(|s| s.output())
                .collect::<Vec<_>>(),
            driver.messages_total(),
        )
    };
    assert_eq!(run(), run());
}

/// What one run is pinned by: its report, its broadcasts, the frame
/// copies it delivered and a digest of its final outputs.
type Pin = (RunReport, u64, u64, u64);

/// FNV-1a over every node's `(density, head, parent)` output.
fn digest(outputs: &[(u32, NodeId, NodeId)]) -> u64 {
    outputs
        .iter()
        .flat_map(|&(density, head, parent)| [density, head.value(), parent.value()])
        .fold(0xcbf2_9ce4_8422_2325, |h, x| {
            (h ^ u64::from(x)).wrapping_mul(0x0100_0000_01b3)
        })
}

/// A run's pin, read off the driver after it settles.
fn pin<C: Clock<DensityCluster>>(d: &mut Sim<DensityCluster, C>) -> Pin {
    let report = d.run_to(&StopWhen::stable_for(4).within(400));
    let outputs = digest(&d.outputs());
    (report, d.messages_total(), d.frames_delivered(), outputs)
}

/// The deployment every pinned run shares, over `medium`.
fn pinned<M: Medium>(medium: M) -> Scenario<DensityCluster, M> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(29);
    Scenario::new(DensityCluster::new(ClusterConfig::default().event_driven()))
        .medium(medium)
        .topology(builders::uniform(40, 0.2, &mut rng))
        .seed(5)
}

/// One run on each clock that takes any medium: the round driver gated
/// and pinned eager, and the event clock.
fn clock_pins<M: Medium + Clone>(medium: &M) -> [Pin; 3] {
    let rounds = |eager: bool| {
        let mut net = pinned(medium.clone()).build().expect("valid scenario");
        net.set_eager(eager);
        pin(&mut net)
    };
    let events = pinned(medium.clone()).build_events(EventConfig::default());
    let events = pin(&mut events.expect("valid event scenario"));
    [rounds(false), rounds(true), events]
}

/// [`clock_pins`], then the actor fabric on one thread.
fn pins<M: Medium + Sync + Clone>(medium: M) -> [Pin; 4] {
    let [gated, eager, events] = clock_pins(&medium);
    let actors = pinned(medium).build_actors(1);
    let actors = pin(&mut actors.expect("valid actor scenario"));
    [gated, eager, events, actors]
}

#[test]
fn lossy_fates_replay_their_pins_on_all_three_drivers() {
    // Recorded at PR 24, before the per-sender fate entry points were
    // folded into `Medium::fates`. The equivalence suites compare the
    // drivers with each other, so a draw reordered the same way on all
    // of them passes there; it cannot pass here.
    let settled = |stabilized: u64| RunReport {
        stabilized: Some(stabilized),
        steps: stabilized + 4,
        end_step: stabilized + 4,
        satisfied: true,
        timed_out: false,
    };
    // Every run settles on the same clustering; the draws decide how.
    let out = 16_840_706_550_354_590_634;
    assert_eq!(
        pins(BernoulliLoss::new(0.6)),
        [
            (settled(11), 427, 1048, out),
            (settled(11), 600, 1309, out),
            (settled(9), 362, 890, out),
            (settled(11), 427, 1048, out),
        ],
        "bernoulli: [gated rounds, eager rounds, events, actors]"
    );
    assert_eq!(
        pins(DistanceFading::new(2.0, 0.3)),
        [
            (settled(19), 563, 1313, out),
            (settled(19), 920, 1923, out),
            (settled(17), 523, 1244, out),
            (settled(19), 563, 1313, out),
        ],
        "fading: [gated rounds, eager rounds, events, actors]"
    );
}

#[test]
fn contention_draws_replay_their_pins_on_the_round_and_event_clocks() {
    // Recorded on the tree before the capture medium kept its ranked
    // contenders between calls. Gated and eager rounds agree on these
    // media only in distribution (`tests/gated_csma.rs`), so only a
    // pin holds their draws still. The actor fabric takes no
    // contention medium.
    let settled = |stabilized: u64| RunReport {
        stabilized: Some(stabilized),
        steps: stabilized + 4,
        end_step: stabilized + 4,
        satisfied: true,
        timed_out: false,
    };
    let out = 16_840_706_550_354_590_634;
    assert_eq!(
        clock_pins(&SlottedCsma::new(8)),
        [
            (settled(11), 392, 1030, out),
            (settled(9), 520, 1292, out),
            (settled(12), 317, 842, out),
        ],
        "slotted CSMA: [gated rounds, eager rounds, events]"
    );
    assert_eq!(
        clock_pins(&SlottedCsma::new(8).without_carrier_sense()),
        [
            (settled(17), 527, 1198, out),
            (settled(23), 1080, 2179, out),
            (settled(16), 469, 1080, out),
        ],
        "slotted ALOHA: [gated rounds, eager rounds, events]"
    );
    assert_eq!(
        clock_pins(&CaptureCsma::new(8, 1.5)),
        [
            (settled(14), 472, 1199, out),
            (settled(12), 640, 1490, out),
            (settled(9), 354, 903, out),
        ],
        "capture CSMA: [gated rounds, eager rounds, events]"
    );
}

#[test]
fn event_driver_trajectories_replay_exactly() {
    let run = |seed: u64| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let topo = builders::poisson(100.0, 0.12, &mut rng);
        let mut driver = Scenario::new(DensityCluster::new(ClusterConfig {
            cache_ttl: 10,
            ..ClusterConfig::default()
        }))
        .topology(topo)
        .seed(seed)
        .build_events(EventConfig::default())
        .expect("valid event scenario");
        driver.run_until_time(40.0);
        (
            driver.measured_tau(),
            driver
                .states()
                .iter()
                .map(|s| s.output())
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(3), run(3));
}
