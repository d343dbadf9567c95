//! The paper's running example (Figure 1 / Table 1), end to end over
//! every medium and driver: the distributed protocol must always
//! recover the two clusters headed by `h` and `j`.

use selfstab::prelude::*;

fn paper_heads() -> Vec<NodeId> {
    // Label mapping (builders::FIG1_LABELS): j = 5, h = 7.
    vec![NodeId::new(5), NodeId::new(7)]
}

fn assert_paper_clustering(clustering: &Clustering) {
    assert_eq!(clustering.heads(), paper_heads());
    // Cluster membership from the paper's walkthrough: c joins b joins
    // h; f and g join j.
    let by_label =
        |c: char| NodeId::new(builders::FIG1_LABELS.iter().position(|&l| l == c).unwrap() as u32);
    let h = by_label('h');
    let j = by_label('j');
    for member in ['a', 'b', 'c', 'd', 'e', 'i'] {
        assert_eq!(clustering.head(by_label(member)), h, "member {member}");
    }
    for member in ['f', 'g'] {
        assert_eq!(clustering.head(by_label(member)), j, "member {member}");
    }
}

#[test]
fn table1_densities_match_the_paper() {
    let topo = builders::fig1_example();
    let expect = [
        ('a', 1.0),
        ('b', 1.25),
        ('c', 1.0),
        ('e', 1.0),
        ('f', 1.5),
        ('h', 1.5),
        ('i', 1.25),
        ('j', 1.5),
    ];
    for (label, value) in expect {
        let p = NodeId::new(
            builders::FIG1_LABELS
                .iter()
                .position(|&l| l == label)
                .unwrap() as u32,
        );
        assert!(
            (density_of(&topo, p).as_f64() - value).abs() < 1e-12,
            "density of {label}"
        );
    }
}

#[test]
fn centralized_oracle_reproduces_figure_1() {
    let clustering = oracle(&builders::fig1_example(), &OracleConfig::default());
    assert_paper_clustering(&clustering);
}

#[test]
fn distributed_over_perfect_medium_reproduces_figure_1() {
    let mut net = Scenario::new(DensityCluster::new(ClusterConfig::default()))
        .topology(builders::fig1_example())
        .seed(1)
        .build()
        .expect("valid scenario");
    net.run_to(&StopWhen::stable_for(3).within(100))
        .expect_stable("stabilizes");
    assert_paper_clustering(&extract_clustering(net.states()).unwrap());
}

#[test]
fn distributed_over_csma_reproduces_figure_1() {
    let stop = StopWhen::stable_for(20).within(5000);
    for seed in 0..5 {
        let mut net = Scenario::new(DensityCluster::new(ClusterConfig {
            cache_ttl: 16,
            ..ClusterConfig::default()
        }))
        .medium(SlottedCsma::new(12))
        .topology(builders::fig1_example())
        .seed(seed)
        .build()
        .expect("valid scenario");
        net.run_to(&stop)
            .expect_stable("stabilizes under collisions");
        assert_paper_clustering(&extract_clustering(net.states()).unwrap());
    }
}

#[test]
fn distributed_over_bernoulli_loss_reproduces_figure_1() {
    let stop = StopWhen::stable_for(30).within(10_000);
    for seed in 0..5 {
        let mut net = Scenario::new(DensityCluster::new(ClusterConfig {
            cache_ttl: 24,
            ..ClusterConfig::default()
        }))
        .medium(BernoulliLoss::new(0.4))
        .topology(builders::fig1_example())
        .seed(seed)
        .build()
        .expect("valid scenario");
        net.run_to(&stop).expect_stable("stabilizes at τ = 0.4");
        assert_paper_clustering(&extract_clustering(net.states()).unwrap());
    }
}

#[test]
fn sweep_reproduces_figure_1_across_seeds() {
    // The Sweep runner fans the Figure-1 run over a seed grid; every
    // seed must land on the same two clusters.
    let stop = StopWhen::stable_for(3).within(100);
    let heads = Sweep::over(8, 42)
        .run(
            |seed| {
                Scenario::new(DensityCluster::new(ClusterConfig::default()))
                    .topology(builders::fig1_example())
                    .seed(seed)
            },
            &stop,
            |report, net| {
                assert!(report.is_stable());
                extract_clustering(net.states()).unwrap().heads()
            },
        )
        .expect("every scenario builds");
    for h in heads {
        assert_eq!(h, paper_heads());
    }
}

#[test]
fn event_driver_reproduces_figure_1() {
    let mut driver = Scenario::new(DensityCluster::new(ClusterConfig {
        cache_ttl: 20,
        ..ClusterConfig::default()
    }))
    .topology(builders::fig1_example())
    .seed(2)
    .build_events(EventConfig::default())
    .expect("valid event scenario");
    driver
        .run_until_output_stable(1.0, 10, 1000.0)
        .expect("stabilizes in continuous time");
    assert_paper_clustering(&extract_clustering(driver.states()).unwrap());
}

#[test]
fn corrupting_the_example_always_heals_back() {
    let mut net = Scenario::new(DensityCluster::new(ClusterConfig::default()))
        .topology(builders::fig1_example())
        .seed(5)
        .build()
        .expect("valid scenario");
    let stop = StopWhen::stable_for(3).within(200);
    for _ in 0..10 {
        net.inject(&Fault::CorruptAll).expect("a valid fault");
        net.run_to(&stop).expect_stable("heals after corruption");
        assert_paper_clustering(&extract_clustering(net.states()).unwrap());
    }
}
