//! The cross-driver agreement suite — the headline artifact of the
//! actor driver: **one scenario, three drivers, one answer**.
//!
//! Three claims, in increasing strength:
//!
//! 1. **RoundDriver ≡ EventDriver** byte-identical gated-vs-eager
//!    behavior is pinned elsewhere (`engine_equivalence.rs`); here the
//!    invariant is re-checked through the actor comparison fixtures so
//!    a regression in either driver trips this suite too.
//! 2. **ActorDriver ≡ RoundDriver, byte for byte**, for protocols
//!    whose per-period receives commute (each sender writes its own
//!    cache entry — true of `DensityCluster` and the flooding test
//!    protocols): per-seed frame fates and update draws live on the
//!    same derived streams, so states, outputs, message totals and
//!    `RunReport`s must agree exactly — at **every** thread count,
//!    because arrival-order nondeterminism cannot reach the period
//!    outcome.
//! 3. **ActorDriver ≈ RoundDriver distributionally** in general:
//!    stabilization-time statistics over seed sweeps fall inside the
//!    round-driver reference's Wilson intervals, across thread counts
//!    {1, 2, 4}, media and τ.

use mwn_metrics::wilson_overlap;
use proptest::prelude::*;
use rand::SeedableRng;
use selfstab::prelude::*;

fn event_driven_config() -> ClusterConfig {
    ClusterConfig::default().event_driven()
}

/// Builds the round-driver reference and the actor driver from one
/// scenario recipe and asserts exact agreement end to end: lockstep
/// state trajectories, then a corruption storm, then healed reports.
fn assert_exact_agreement<M, F>(build: F, threads: usize, label: &str)
where
    M: Medium + Sync + Clone,
    F: Fn() -> Scenario<DensityCluster, M>,
{
    let mut net = build().build().expect("round driver builds");
    let mut actors = build().build_actors(threads).expect("actor driver builds");
    for period in 0..30 {
        net.step();
        actors.step();
        assert_eq!(
            net.states(),
            actors.states(),
            "{label}: trajectories diverged at period {period} (threads={threads})"
        );
        assert_eq!(
            net.last_activity(),
            actors.last_activity(),
            "{label}: activity counters diverged at period {period} (threads={threads})"
        );
    }
    let stop = StopWhen::stable_for(4).within(400);
    let net_report = net.run_to(&stop);
    let actor_report = actors.run_to(&stop);
    assert_eq!(net_report, actor_report, "{label}: reports diverged");
    net.inject(&Fault::CorruptAll).expect("a valid fault");
    actors.inject(&Fault::CorruptAll).expect("a valid fault");
    let net_healed = net.run_to(&stop);
    let actor_healed = actors.run_to(&stop);
    assert_eq!(net_healed, actor_healed, "{label}: healed reports diverged");
    assert_eq!(net.outputs(), actors.outputs(), "{label}: outputs diverged");
    assert_eq!(
        net.messages_total(),
        actors.messages_total(),
        "{label}: message totals diverged"
    );
}

#[test]
fn actors_equal_rounds_on_perfect_medium() {
    for threads in [1, 2, 4] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3 + threads as u64);
        let topo = builders::uniform(50, 0.17, &mut rng);
        assert_exact_agreement(
            || {
                Scenario::new(DensityCluster::new(event_driven_config()))
                    .topology(topo.clone())
                    .seed(7)
            },
            threads,
            "perfect",
        );
    }
    // Worker counts that do not divide the work: uneven sender chunks,
    // state runs of different lengths, and (n + 1) more threads than
    // there are actors — on a deployment and on a 5-node line, where
    // most periods have fewer candidates than workers.
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    for topo in [builders::line(5), builders::uniform(50, 0.17, &mut rng)] {
        for threads in [3, 7, topo.len() + 1] {
            assert_exact_agreement(
                || {
                    Scenario::new(DensityCluster::new(event_driven_config()))
                        .topology(topo.clone())
                        .seed(7)
                },
                threads,
                "perfect, uneven shards",
            );
        }
    }
}

#[test]
fn actors_equal_rounds_under_bernoulli_loss() {
    for threads in [1, 2, 4] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let topo = builders::uniform(45, 0.18, &mut rng);
        assert_exact_agreement(
            || {
                Scenario::new(DensityCluster::new(event_driven_config()))
                    .medium(BernoulliLoss::new(0.65))
                    .topology(topo.clone())
                    .seed(4)
            },
            threads,
            "bernoulli",
        );
    }
}

#[test]
fn actors_equal_rounds_under_distance_fading() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(19);
    let topo = builders::uniform(45, 0.18, &mut rng);
    assert_exact_agreement(
        || {
            Scenario::new(DensityCluster::new(event_driven_config()))
                .medium(DistanceFading::new(2.0, 0.35))
                .topology(topo.clone())
                .seed(2)
        },
        4,
        "fading",
    );
}

#[test]
fn actors_equal_rounds_with_scripted_faults() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(23);
    let topo = builders::uniform(40, 0.19, &mut rng);
    for threads in [1, 4] {
        assert_exact_agreement(
            || {
                let mut plan = FaultPlan::new();
                plan.at(8, Fault::CorruptFraction(0.4))
                    .at(15, Fault::Isolate(NodeId::new(5)))
                    .at(22, Fault::CorruptAll);
                Scenario::new(DensityCluster::new(event_driven_config()))
                    .topology(topo.clone())
                    .seed(6)
                    .faults(plan)
            },
            threads,
            "faults",
        );
    }
}

#[test]
fn actors_equal_rounds_under_mobility() {
    let build = || {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let topo = builders::uniform(45, 0.18, &mut rng);
        let model = RandomWaypoint::new(topo.len(), 0.0..=meters_per_second(20.0), 0.5);
        let dynamics = MobileScenario::new(topo.clone(), model, 5).into_dynamics(2.0);
        Scenario::new(DensityCluster::new(event_driven_config()))
            .topology(topo)
            .seed(8)
            .mobility(dynamics)
    };
    let mut net = build().build().expect("round driver builds");
    let mut actors = build().build_actors(4).expect("actor driver builds");
    for period in 0..40 {
        net.step();
        actors.step();
        assert_eq!(
            net.topology(),
            actors.topology(),
            "mobility deltas diverged at period {period}"
        );
        assert_eq!(
            net.states(),
            actors.states(),
            "states diverged under mobility at period {period}"
        );
    }
}

/// The distributional leg: over a seed sweep, the proportion of runs
/// stabilizing within a budget — and within the *reference's own
/// stabilization horizon* — must land inside the round driver's 95%
/// Wilson band, at every thread count. For commutative protocols the
/// agreement is exact, so this also certifies the statistical harness
/// itself against a known-zero-divergence baseline.
#[test]
fn stabilization_distributions_fall_inside_wilson_bands() {
    const SEEDS: u64 = 24;
    const Z: f64 = 1.96;
    let topo_for = |seed: u64| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1000 + seed);
        builders::uniform(40, 0.19, &mut rng)
    };
    let stop = || StopWhen::stable_for(4).within(300);

    // Reference: round-driver stabilization outcomes per seed.
    let reference: Vec<Option<u64>> = (0..SEEDS)
        .map(|seed| {
            let mut net = Scenario::new(DensityCluster::new(event_driven_config()))
                .medium(BernoulliLoss::new(0.7))
                .topology(topo_for(seed))
                .seed(seed)
                .build()
                .expect("round driver builds");
            net.run_to(&stop()).stabilized
        })
        .collect();
    let ref_successes = reference.iter().filter(|s| s.is_some()).count();
    // The horizon: a generous per-seed bound derived from the
    // reference sample (its max stabilization period, doubled).
    let horizon = reference.iter().flatten().max().copied().unwrap_or(0) * 2 + 8;

    for threads in [1usize, 2, 4] {
        let actor_outcomes: Vec<Option<u64>> = (0..SEEDS)
            .map(|seed| {
                let mut actors = Scenario::new(DensityCluster::new(event_driven_config()))
                    .medium(BernoulliLoss::new(0.7))
                    .topology(topo_for(seed))
                    .seed(seed)
                    .build_actors(threads)
                    .expect("actor driver builds");
                actors.run_to(&stop()).stabilized
            })
            .collect();
        let successes = actor_outcomes.iter().filter(|s| s.is_some()).count();
        assert!(
            wilson_overlap(successes, SEEDS as usize, ref_successes, SEEDS as usize, Z),
            "threads={threads}: actor stabilization proportion {successes}/{SEEDS} \
             is Wilson-incompatible with the reference {ref_successes}/{SEEDS}"
        );
        let within_horizon = actor_outcomes
            .iter()
            .flatten()
            .filter(|&&t| t <= horizon)
            .count();
        assert!(
            wilson_overlap(
                within_horizon,
                SEEDS as usize,
                ref_successes,
                SEEDS as usize,
                Z
            ),
            "threads={threads}: stabilization times escaped the reference \
             horizon {horizon} ({within_horizon}/{SEEDS} vs {ref_successes}/{SEEDS})"
        );
        // Commutative receives ⇒ the distributions are not merely
        // close, they are the same sample.
        assert_eq!(
            actor_outcomes, reference,
            "threads={threads}: per-seed stabilization periods diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized sweep of the exact-agreement claim: seeds ×
    /// topologies × τ × thread counts. The actor fabric must reproduce
    /// the round driver's states, outputs and reports byte for byte.
    #[test]
    fn actor_agreement_sweep(
        n in 30usize..55,
        r in 16u32..21,
        tau_pct in 55u32..96,
        seed in 0u64..1_000_000,
        threads in 1usize..5,
    ) {
        let mut trng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xACE);
        let topo = builders::uniform(n, f64::from(r) / 100.0, &mut trng);
        let build = || {
            Scenario::new(DensityCluster::new(event_driven_config()))
                .medium(BernoulliLoss::new(f64::from(tau_pct) / 100.0))
                .topology(topo.clone())
                .seed(seed)
        };
        let mut net = build().build().expect("round driver builds");
        let mut actors = build().build_actors(threads).expect("actor driver builds");
        let stop = StopWhen::stable_for(3).within(300);
        let net_report = net.run_to(&stop);
        let actor_report = actors.run_to(&stop);
        prop_assert_eq!(net_report, actor_report);
        prop_assert_eq!(net.states(), actors.states());
        prop_assert_eq!(net.messages_total(), actors.messages_total());
    }
}
