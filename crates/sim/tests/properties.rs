//! Property-based tests of the execution substrate: information speed,
//! driver determinism, and fault-plan correctness, checked with a
//! reference protocol whose fixpoint is known exactly (self-stabilizing
//! max-flood: every node learns the maximum id in its component).

use mwn_graph::{builders, traversal, NodeId, Point2, Topology};
use mwn_radio::{BernoulliLoss, Medium, PerfectMedium, SlottedCsma};
use mwn_sim::{
    Activity, Corruptible, EventConfig, Fault, FaultPlan, Lie, Observable, Protocol, Region,
    Scenario, StopWhen,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct MaxFlood;
impl Protocol for MaxFlood {
    type State = u32;
    type Beacon = u32;
    fn init(&self, node: NodeId, _rng: &mut StdRng) -> u32 {
        node.value()
    }
    fn beacon(&self, _node: NodeId, state: &u32) -> u32 {
        *state
    }
    fn receive(&self, _node: NodeId, state: &mut u32, _from: NodeId, beacon: &u32, _now: u64) {
        *state = (*state).max(*beacon);
    }
    fn update(&self, node: NodeId, state: &mut u32, _now: u64, _rng: &mut StdRng) {
        *state = (*state).max(node.value());
    }
}
impl Observable for MaxFlood {
    type Output = u32;
    fn output(&self, _node: NodeId, state: &u32) -> u32 {
        *state
    }
}
impl Corruptible for MaxFlood {
    /// Max-flooding is monotone, so it can only heal *undershooting*
    /// corruption (an overshooting value would be a different, larger
    /// "max" forever — max-flood alone is not self-stabilizing against
    /// it, which is precisely why the paper's protocol re-derives all
    /// shared variables from scratch instead of folding them).
    fn corrupt(&self, node: NodeId, state: &mut u32, rng: &mut StdRng) {
        use rand::Rng;
        *state = rng.random_range(0..=node.value());
    }
}

/// Gated max-flood: same fixpoint as [`MaxFlood`], but silent once a
/// node's beacon stops changing — the shape that exercises retirement
/// under CSMA.
struct GatedFlood;
impl Protocol for GatedFlood {
    type State = u32;
    type Beacon = u32;
    fn init(&self, node: NodeId, _rng: &mut StdRng) -> u32 {
        node.value()
    }
    fn beacon(&self, _node: NodeId, state: &u32) -> u32 {
        *state
    }
    fn receive(&self, _node: NodeId, state: &mut u32, _from: NodeId, beacon: &u32, _now: u64) {
        *state = (*state).max(*beacon);
    }
    fn update(&self, node: NodeId, state: &mut u32, _now: u64, _rng: &mut StdRng) {
        *state = (*state).max(node.value());
    }
    fn activity(&self) -> Activity {
        Activity::Gated
    }
    fn beacon_changed(&self, old: &u32, new: &u32) -> bool {
        old != new
    }
}
impl Observable for GatedFlood {
    type Output = u32;
    fn output(&self, _node: NodeId, state: &u32) -> u32 {
        *state
    }
}
impl Corruptible for GatedFlood {
    fn corrupt(&self, _node: NodeId, state: &mut u32, _rng: &mut StdRng) {
        *state = 0;
    }
}

/// One perturbation of a running gated-CSMA network, for interleaving
/// with steps in the retirement-under-churn property.
#[derive(Clone, Debug)]
enum Disturbance {
    Step(u8),
    Corrupt(u32),
    CorruptFraction(f64),
    Isolate(u32),
    Jitter { node: u32, dx: f64, dy: f64 },
    Crash { node: u32, dark_for: u64 },
    Byzantine { node: u32, window: u64 },
    Partition { prefix: u32, window: u64 },
    JamOne { node: u32, window: u64 },
}

fn disturbance_strategy() -> impl Strategy<Value = Disturbance> {
    // The vendored proptest subset has no `prop_oneof!`; a discriminant
    // plus a payload tuple selects the variant just as uniformly.
    (
        0u8..9,
        0u32..1024,
        0.05f64..1.0,
        -0.15f64..0.15,
        -0.15f64..0.15,
    )
        .prop_map(|(kind, node, fraction, dx, dy)| {
            let window = u64::from(node % 7) + 1;
            match kind {
                0 => Disturbance::Step((node % 5) as u8 + 1),
                1 => Disturbance::Corrupt(node),
                2 => Disturbance::CorruptFraction(fraction),
                3 => Disturbance::Isolate(node),
                4 => Disturbance::Jitter { node, dx, dy },
                5 => Disturbance::Crash {
                    node,
                    dark_for: window,
                },
                6 => Disturbance::Byzantine { node, window },
                7 => Disturbance::Partition {
                    prefix: node,
                    window,
                },
                _ => Disturbance::JamOne { node, window },
            }
        })
}

fn topo_strategy() -> impl Strategy<Value = Topology> {
    (2usize..40, 10u32..35, 0u64..u64::MAX).prop_map(|(n, r, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        builders::uniform(n, f64::from(r) / 100.0, &mut rng)
    })
}

/// The exact fixpoint: every node holds the max id of its component.
fn component_max(topo: &Topology) -> Vec<u32> {
    let mut expected = vec![0u32; topo.len()];
    for component in traversal::connected_components(topo) {
        let max = component.iter().map(|p| p.value()).max().unwrap();
        for p in component {
            expected[p.index()] = max;
        }
    }
    expected
}

/// Steps a gated flood over `medium` through `plan`, holding the
/// retirement bookkeeping against a from-scratch recount after every
/// step: the pending senders are exactly the nodes some neighbor has
/// yet to catch up with, and the step retired without consulting a
/// reception row (the shortcut) if and only if it had senders and lost
/// no frame copy. Returns how many steps took the shortcut.
fn check_retirement<M: Medium>(
    medium: M,
    topo: &Topology,
    seed: u64,
    plan: &FaultPlan,
) -> Result<u64, TestCaseError> {
    let mut net = Scenario::new(GatedFlood)
        .medium(medium)
        .topology(topo.clone())
        .seed(seed)
        .faults(plan.clone())
        .build()
        .expect("the plan names nodes of the field");
    prop_assert!(net.is_gated());
    let mut fired = 0;
    for step in 0..45 {
        net.step();
        let activity = net.last_activity();
        let (pending, behind, shortcuts) = net.retirement_audit();
        prop_assert_eq!(pending, behind, "step {}: {:?}", step, activity);
        let lossless =
            activity.senders > 0 && activity.frames_delivered == activity.frames_attempted;
        prop_assert_eq!(
            shortcuts - fired,
            u64::from(lossless),
            "step {}: {:?}",
            step,
            activity
        );
        fired = shortcuts;
    }
    Ok(fired)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Retirement by count ≡ retirement by asking, release builds
    /// included (debug builds also assert it sender by sender inside
    /// the driver): on perfect, lossy and contention media, and on a
    /// Bernoulli medium that loses nothing but is not lossless,
    /// through isolations, crash-recoveries and partitions healing
    /// mid-run.
    #[test]
    fn retirement_shortcut_equals_the_full_check(
        topo in topo_strategy(),
        seed in 0u64..10_000,
        faults in proptest::collection::vec((0u8..3, 0u32..1024, 1u64..30, 1u64..9), 0..6),
    ) {
        let n = topo.len() as u32;
        let mut plan = FaultPlan::new();
        for (kind, node, at, window) in faults {
            let node = NodeId::new(node % n);
            plan.at(at, match kind {
                0 => Fault::Isolate(node),
                1 => Fault::CrashRecover { node, dark_for: window },
                _ => Fault::PartitionHeal {
                    cut: (0..=node.value()).map(NodeId::new).collect(),
                    heal_at: at + window,
                },
            });
        }
        // Nothing is ever lost: the shortcut carries every busy step.
        for fired in [
            check_retirement(PerfectMedium, &topo, seed, &plan)?,
            check_retirement(BernoulliLoss::new(1.0), &topo, seed, &plan)?,
        ] {
            prop_assert!(fired > 0, "the cold-start step loses nothing");
        }
        check_retirement(BernoulliLoss::new(0.3), &topo, seed, &plan)?;
        check_retirement(BernoulliLoss::new(0.7), &topo, seed, &plan)?;
        check_retirement(SlottedCsma::new(8), &topo, seed, &plan)?;
    }

    /// The round driver moves information exactly one hop per step:
    /// after k steps a node knows the max id within its k-ball.
    #[test]
    fn round_driver_information_speed(topo in topo_strategy(), k in 1u64..6) {
        let mut net = Scenario::new(MaxFlood).topology(topo.clone()).seed(1).build().expect("builds");
        net.run(k);
        for p in topo.nodes() {
            let mut ball = topo.k_neighborhood(p, k as usize);
            ball.push(p);
            let expected = ball.iter().map(|q| q.value()).max().unwrap();
            prop_assert_eq!(*net.state(p), expected, "node {} after {} steps", p, k);
        }
    }

    /// Both drivers converge to the identical, exact fixpoint — from
    /// cold start and after corrupting every node.
    #[test]
    fn drivers_agree_on_the_fixpoint(topo in topo_strategy(), seed in 0u64..10_000) {
        let expected = component_max(&topo);
        let scenario = || Scenario::new(MaxFlood).topology(topo.clone()).seed(seed);
        let mut net = scenario().build().expect("builds");
        net.run_to(&StopWhen::stable_for(3).within(500)).expect_stable("round driver converges");
        prop_assert_eq!(net.states(), expected.as_slice());
        net.inject(&Fault::CorruptAll).expect("a valid fault");
        net.run_to(&StopWhen::stable_for(3).within(500)).expect_stable("round driver reconverges");
        prop_assert_eq!(net.states(), expected.as_slice());

        let mut driver = scenario()
            .build_events(EventConfig::default())
            .expect("valid configuration");
        driver.run_to(&StopWhen::stable_for(8).within(2000)).expect_stable("event driver converges");
        prop_assert_eq!(driver.states(), expected.as_slice());
    }

    /// Loss only delays convergence; it never changes the fixpoint.
    #[test]
    fn lossy_runs_reach_the_same_fixpoint(
        topo in topo_strategy(),
        seed in 0u64..10_000,
        tau_percent in 25u32..95,
    ) {
        let expected = component_max(&topo);
        let mut net = Scenario::new(MaxFlood)
            .medium(BernoulliLoss::new(f64::from(tau_percent) / 100.0))
            .topology(topo)
            .seed(seed)
            .build()
            .expect("builds");
        net.run_to(&StopWhen::stable_for(10).within(20_000)).expect_stable("converges");
        prop_assert_eq!(net.states(), expected.as_slice());
    }

    /// A fault plan never prevents eventual convergence once its last
    /// fault has fired (convergence property under transient faults).
    #[test]
    fn fault_plans_end_in_convergence(
        topo in topo_strategy(),
        seed in 0u64..10_000,
        fault_step in 1u64..20,
        fraction in 0.1f64..1.0,
    ) {
        let expected = component_max(&topo);
        let mut plan = FaultPlan::new();
        plan.at(fault_step, Fault::CorruptFraction(fraction))
            .at(fault_step + 3, Fault::CorruptAll);
        let mut net = Scenario::new(MaxFlood)
            .topology(topo)
            .seed(seed)
            .faults(plan)
            .build()
            .expect("well-formed plan");
        net.run(fault_step + 4);
        net.run_to(&StopWhen::stable_for(3).within(1000)).expect_stable("converges after faults");
        prop_assert_eq!(net.states(), expected.as_slice());
    }

    /// After every step the pending senders are exactly the nodes some
    /// neighbor has yet to catch up with, through *arbitrary*
    /// interleavings of steps, state corruption, node isolation,
    /// mobility jitter, and the full adversary model (crash-recover,
    /// Byzantine beacons, partition/heal, regional jam — including
    /// their delayed healing followups firing mid-script). Gated CSMA
    /// folds the nodes that are not pending into its collisions as the
    /// retired population, so this is the invariant that makes its
    /// statistical fold trustworthy under churn.
    #[test]
    fn retirement_holds_under_arbitrary_churn(
        topo in topo_strategy(),
        seed in 0u64..10_000,
        script in proptest::collection::vec(disturbance_strategy(), 1..25),
    ) {
        let n = topo.len() as u32;
        let mut net = Scenario::new(GatedFlood)
            .medium(SlottedCsma::new(8))
            .topology(topo)
            .seed(seed)
            .build()
            .expect("builds");
        prop_assert!(net.is_gated(), "gated CSMA must gate");
        for disturbance in script {
            let (now, node) = (net.now(), |p: u32| NodeId::new(p % n));
            let fault = match disturbance {
                Disturbance::Step(k) => {
                    for _ in 0..k {
                        net.step();
                        let (pending, behind, _) = net.retirement_audit();
                        prop_assert_eq!(pending, behind, "step {}", net.now());
                    }
                    continue;
                }
                Disturbance::Jitter { node: p, dx, dy } => {
                    let p = node(p);
                    let pos = net.topology().positions().expect("uniform topos have positions")
                        [p.index()];
                    let moved = Point2::new(
                        (pos.x + dx).clamp(0.0, 1.0),
                        (pos.y + dy).clamp(0.0, 1.0),
                    );
                    net.apply_moves(&[(p, moved)]);
                    continue;
                }
                Disturbance::Corrupt(p) => Fault::CorruptNode(node(p)),
                Disturbance::CorruptFraction(f) => Fault::CorruptFraction(f),
                Disturbance::Isolate(p) => Fault::Isolate(node(p)),
                Disturbance::Crash { node: p, dark_for } => Fault::CrashRecover {
                    node: node(p),
                    dark_for,
                },
                Disturbance::Byzantine { node: p, window } => Fault::ByzantineBeacon {
                    node: node(p),
                    lie: if p % 2 == 0 { Lie::Forged } else { Lie::Replayed },
                    until: now + window,
                },
                Disturbance::Partition { prefix, window } => Fault::PartitionHeal {
                    cut: (0..1 + prefix % n.max(2).saturating_sub(1)).map(NodeId::new).collect(),
                    heal_at: now + window,
                },
                Disturbance::JamOne { node: p, window } => Fault::Jam {
                    region: Region::Nodes(vec![node(p)]),
                    until: now + window,
                },
            };
            net.inject(&fault).expect("a valid fault");
        }
    }

    /// Runs are bit-identical across repeats with the same seed, for
    /// both drivers (the reproducibility contract).
    #[test]
    fn drivers_are_deterministic(topo in topo_strategy(), seed in 0u64..10_000) {
        let scenario = |topo: &Topology| Scenario::new(MaxFlood).topology(topo.clone()).seed(seed);
        let round = |topo: &Topology| {
            let mut net = scenario(topo).medium(BernoulliLoss::new(0.6)).build().expect("builds");
            net.run(15);
            net.states().to_vec()
        };
        prop_assert_eq!(round(&topo), round(&topo));
        let event = |topo: &Topology| {
            let mut d = scenario(topo)
                .build_events(EventConfig::default())
                .expect("valid configuration");
            d.run_until_time(10.0);
            d.states().to_vec()
        };
        prop_assert_eq!(event(&topo), event(&topo));
    }
}
