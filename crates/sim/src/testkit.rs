//! The flooding fixtures the unit tests of every driver share, the
//! slow-settling adversary of the settled-pass skip, the adversary of
//! the read-part skip (both skips all three drivers share), the
//! mobility those adversaries run under, and the medium wrapper the
//! round driver's two kinds of step are compared through.

use std::sync::atomic::{AtomicUsize, Ordering};

use mwn_graph::{NodeId, Point2, Topology};
use mwn_radio::{ContentionStreams, Delivery, Medium, MediumKind, OccupancyView};
use rand::rngs::StdRng;
use rand::Rng;

use crate::{Activity, Corruptible, Observable, Protocol, TopologyDynamics};

/// Stabilizes to the maximum id seen. Re-asserting the node's own id
/// in `update` is what makes the flood self-stabilizing: corrupted
/// state (zeroed) cannot erase the source. Eager contract.
#[derive(Debug)]
pub(crate) struct MaxFlood;

/// The same flood with the silence contract declared: receive of an
/// already-incorporated beacon and update at a fixpoint are no-ops.
#[derive(Debug)]
pub(crate) struct GatedFlood;

macro_rules! flood {
    ($name:ident, $activity:expr) => {
        impl Protocol for $name {
            type State = u32;
            type Beacon = u32;
            fn init(&self, node: NodeId, _rng: &mut StdRng) -> u32 {
                node.value()
            }
            fn beacon(&self, _node: NodeId, state: &u32) -> u32 {
                *state
            }
            fn receive(
                &self,
                _node: NodeId,
                state: &mut u32,
                _from: NodeId,
                beacon: &u32,
                _now: u64,
            ) {
                *state = (*state).max(*beacon);
            }
            fn update(&self, node: NodeId, state: &mut u32, _now: u64, _rng: &mut StdRng) {
                *state = (*state).max(node.value());
            }
            fn activity(&self) -> Activity {
                $activity
            }
            fn beacon_changed(&self, old: &u32, new: &u32) -> bool {
                // The eager flood keeps the conservative default.
                $activity == Activity::Eager || old != new
            }
        }
        impl Corruptible for $name {
            fn corrupt(&self, _node: NodeId, state: &mut u32, _rng: &mut StdRng) {
                *state = 0;
            }
        }
        impl Observable for $name {
            type Output = u32;
            fn output(&self, _node: NodeId, state: &u32) -> u32 {
                *state
            }
        }
    };
}

flood!(MaxFlood, Activity::Eager);
flood!(GatedFlood, Activity::Gated);

/// [`GatedFlood`] that counts the event clock's look-ahead reads — the
/// only way to see a pass that must not be observable.
#[derive(Debug, Default)]
pub(crate) struct PeekFlood {
    /// [`Protocol::peek_state`] calls, every level counted.
    pub state_peeks: AtomicUsize,
}

impl Protocol for PeekFlood {
    type State = u32;
    type Beacon = u32;
    fn init(&self, node: NodeId, rng: &mut StdRng) -> u32 {
        GatedFlood.init(node, rng)
    }
    fn beacon(&self, node: NodeId, state: &u32) -> u32 {
        GatedFlood.beacon(node, state)
    }
    fn receive(&self, node: NodeId, state: &mut u32, from: NodeId, beacon: &u32, now: u64) {
        GatedFlood.receive(node, state, from, beacon, now);
    }
    fn update(&self, node: NodeId, state: &mut u32, now: u64, rng: &mut StdRng) {
        GatedFlood.update(node, state, now, rng);
    }
    const PEEK_LEVELS: u8 = 2;
    fn peek_state(&self, state: &u32, from: NodeId, level: u8) -> u64 {
        self.state_peeks.fetch_add(1, Ordering::Relaxed);
        u64::from(*state) + u64::from(from.value()) + u64::from(level)
    }
    fn activity(&self) -> Activity {
        Activity::Gated
    }
    fn beacon_changed(&self, old: &u32, new: &u32) -> bool {
        old != new
    }
}

impl Corruptible for PeekFlood {
    fn corrupt(&self, node: NodeId, state: &mut u32, rng: &mut StdRng) {
        GatedFlood.corrupt(node, state, rng);
    }
}

/// [`GatedFlood`] that also folds every `receive` it is handed — from
/// whom, what, when, in the order handed — into a running hash, so two
/// runs agree on their states only if they agree on every frame. The
/// hash is not on the air: a node that merely heard something changes,
/// re-runs its guards once, and goes quiet.
#[derive(Debug)]
pub(crate) struct TraceFlood;

impl Protocol for TraceFlood {
    type State = (u32, u64);
    type Beacon = u32;
    fn init(&self, node: NodeId, _rng: &mut StdRng) -> (u32, u64) {
        (node.value(), 0)
    }
    fn beacon(&self, _node: NodeId, state: &(u32, u64)) -> u32 {
        state.0
    }
    fn receive(&self, _node: NodeId, state: &mut (u32, u64), from: NodeId, beacon: &u32, now: u64) {
        state.0 = state.0.max(*beacon);
        for word in [u64::from(from.value()), u64::from(*beacon), now] {
            state.1 = (state.1 ^ word)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(29);
        }
    }
    fn update(&self, node: NodeId, state: &mut (u32, u64), _now: u64, _rng: &mut StdRng) {
        state.0 = state.0.max(node.value());
    }
    fn activity(&self) -> Activity {
        Activity::Gated
    }
    fn beacon_changed(&self, old: &u32, new: &u32) -> bool {
        old != new
    }
}

impl Corruptible for TraceFlood {
    fn corrupt(&self, _node: NodeId, state: &mut (u32, u64), _rng: &mut StdRng) {
        state.0 = 0;
    }
}

impl Observable for TraceFlood {
    type Output = (u32, u64);
    fn output(&self, _node: NodeId, state: &(u32, u64)) -> (u32, u64) {
        *state
    }
}

/// A flood whose guard pass needs many passes to settle — the
/// adversary of the settled-pass skip (`engine::settle`). `receive` records
/// the largest value heard; each `update` moves the node's value one
/// unit toward the larger of that and its own id, and draws from its
/// stream only when it moves. A node still on its way is one pass from
/// a different state, so a driver that skips a pass there leaves it
/// short of its target for good.
#[derive(Debug)]
pub(crate) struct Climb;

/// [`Climb`]'s per-node state.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Climber {
    /// The value on the air.
    pub value: u32,
    /// The largest value heard.
    pub heard: u32,
    /// Passes that moved the value.
    pub moves: u32,
    /// Every draw folded in, so what a pass drew is part of the state.
    pub noise: u64,
}

impl Protocol for Climb {
    type State = Climber;
    type Beacon = u32;
    fn init(&self, _node: NodeId, _rng: &mut StdRng) -> Climber {
        Climber {
            value: 0,
            heard: 0,
            moves: 0,
            noise: 0,
        }
    }
    fn beacon(&self, _node: NodeId, state: &Climber) -> u32 {
        state.value
    }
    fn receive(&self, _node: NodeId, state: &mut Climber, _from: NodeId, beacon: &u32, _now: u64) {
        state.heard = state.heard.max(*beacon);
    }
    fn update(&self, node: NodeId, state: &mut Climber, _now: u64, rng: &mut StdRng) {
        if state.value < state.heard.max(node.value()) {
            state.value += 1;
            state.moves += 1;
            state.noise = state.noise.rotate_left(7) ^ rng.random::<u64>();
        }
    }
    fn activity(&self) -> Activity {
        Activity::Gated
    }
    fn beacon_changed(&self, old: &u32, new: &u32) -> bool {
        old != new
    }
}

/// Knocks the climb back near the bottom; `moves` keeps counting.
impl Corruptible for Climb {
    fn corrupt(&self, _node: NodeId, state: &mut Climber, rng: &mut StdRng) {
        state.value = rng.random_range(0..4);
        state.heard = rng.random_range(0..4);
        state.noise = rng.random();
    }
}

impl Observable for Climb {
    type Output = u32;
    fn output(&self, _node: NodeId, state: &Climber) -> u32 {
        state.value
    }
}

/// A flood whose beacon also carries a relay word no `receive` reads —
/// the adversary of the read-part skip. The beacon packs the flooded
/// value (high half, what `receive` reads) over the relay word (low
/// half); each pass that finds the relay word below the value moves it
/// up one unit, and draws, so while it climbs every pass puts a beacon
/// on the air that tells a receiver nothing new. With `by_value` its
/// [`Protocol::read_changed`] compares the value only; without, it is
/// the provided default — the twin that receives every fresh frame.
/// `receives` counts every `receive` call, those debug builds make on a
/// copy included.
#[derive(Debug)]
pub(crate) struct Relay {
    pub by_value: bool,
    pub receives: AtomicUsize,
}

impl Relay {
    pub fn new(by_value: bool) -> Self {
        Relay {
            by_value,
            receives: AtomicUsize::new(0),
        }
    }
}

/// [`Relay`]'s per-node state.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Relayer {
    /// The flooded value: the largest id heard.
    pub value: u32,
    /// The word relayed on the air and never read.
    pub relay: u32,
    /// Every draw folded in, so what a pass drew is part of the state.
    pub noise: u64,
}

impl Protocol for Relay {
    type State = Relayer;
    type Beacon = u64;
    fn init(&self, node: NodeId, _rng: &mut StdRng) -> Relayer {
        Relayer {
            value: node.value(),
            relay: 0,
            noise: 0,
        }
    }
    fn beacon(&self, _node: NodeId, state: &Relayer) -> u64 {
        (u64::from(state.value) << 32) | u64::from(state.relay)
    }
    fn receive(&self, _node: NodeId, state: &mut Relayer, _from: NodeId, beacon: &u64, _now: u64) {
        self.receives.fetch_add(1, Ordering::Relaxed);
        state.value = state.value.max((beacon >> 32) as u32);
    }
    fn update(&self, node: NodeId, state: &mut Relayer, _now: u64, rng: &mut StdRng) {
        state.value = state.value.max(node.value());
        if state.relay < state.value {
            state.relay += 1;
            state.noise = state.noise.rotate_left(7) ^ rng.random::<u64>();
        }
    }
    fn activity(&self) -> Activity {
        Activity::Gated
    }
    fn beacon_changed(&self, old: &u64, new: &u64) -> bool {
        old != new
    }
    fn read_changed(&self, old: &u64, new: &u64) -> bool {
        if self.by_value {
            old >> 32 != new >> 32
        } else {
            self.beacon_changed(old, new)
        }
    }
}

/// Knocks the value down and throws the relay word anywhere, above the
/// largest id of a small field included, so a relay word may sit still
/// while the value under it moves.
impl Corruptible for Relay {
    fn corrupt(&self, _node: NodeId, state: &mut Relayer, rng: &mut StdRng) {
        state.value = rng.random_range(0..4);
        state.relay = rng.random_range(0..64);
        state.noise = rng.random();
    }
}

impl Observable for Relay {
    type Output = (u32, u32);
    fn output(&self, _node: NodeId, state: &Relayer) -> (u32, u32) {
        (state.value, state.relay)
    }
}

/// Moves three nodes of a 0.2-spaced grid per logical step, during
/// `steps`, to `home ± 0.1` along x: at radius 0.25 a move cuts a link
/// on one side and keeps the other three.
pub(crate) struct Drift {
    home: Vec<Point2>,
    steps: std::ops::Range<u64>,
    moves: Vec<(NodeId, Point2)>,
}

impl Drift {
    /// Drift around `topo`'s positions during `steps`.
    pub fn new(topo: &Topology, steps: std::ops::Range<u64>) -> Self {
        let home = topo.positions().expect("a unit-disk grid").to_vec();
        Drift {
            home,
            steps,
            moves: Vec::new(),
        }
    }
}

impl TopologyDynamics for Drift {
    fn next_moves(&mut self, step: u64) -> &[(NodeId, Point2)] {
        self.moves.clear();
        if self.steps.contains(&step) {
            let n = self.home.len() as u64;
            for k in 0..3 {
                let p = (step * 7 + k * 11) % n;
                let home = self.home[p as usize];
                let dx = if (step + k).is_multiple_of(2) {
                    0.1
                } else {
                    -0.1
                };
                let to = Point2::new(home.x + dx, home.y);
                self.moves.push((NodeId::new(p as u32), to));
            }
        }
        &self.moves
    }
}

/// `M` with its [`MediumKind::Lossless`] promise withheld and everything
/// else forwarded: the round driver asks a `Pushed<PerfectMedium>` for
/// the very deliveries it reads off the topology under `PerfectMedium`.
#[derive(Clone, Debug)]
pub(crate) struct Pushed<M>(pub M);

impl<M: Medium> Medium for Pushed<M> {
    fn kind(&self) -> MediumKind {
        match self.0.kind() {
            MediumKind::Lossless => MediumKind::Independent,
            kind => kind,
        }
    }
    fn deliver_into(
        &mut self,
        topo: &Topology,
        senders: &[NodeId],
        rng: &mut StdRng,
        out: &mut Delivery,
    ) {
        self.0.deliver_into(topo, senders, rng, out);
    }
    fn fates(
        &self,
        topo: &Topology,
        sender: NodeId,
        rng: &mut StdRng,
        heard: &mut Vec<NodeId>,
    ) -> usize {
        self.0.fates(topo, sender, rng, heard)
    }
    fn deliver_occupied_into(
        &mut self,
        topo: &Topology,
        senders: &[NodeId],
        occupancy: &dyn OccupancyView,
        streams: &ContentionStreams,
        out: &mut Delivery,
    ) {
        self.0
            .deliver_occupied_into(topo, senders, occupancy, streams, out);
    }
    fn name(&self) -> &'static str {
        self.0.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        ActorDriver, Actors, Clock, EventConfig, EventDriver, Events, Network, Rounds, Sim,
    };
    use crate::{Fault, FaultPlan, Lie, Scenario, StopWhen};
    use mwn_graph::builders;
    use mwn_radio::{BernoulliLoss, PerfectMedium, SlottedCsma};

    /// Logical steps a relay run takes: six faults sixty steps apart,
    /// then mobility, then a settled tail.
    const STEPS: u64 = 540;

    /// The ends of settled stretches: just before each fault, just
    /// before the drift, and the end of the run.
    const SETTLED: [u64; 8] = [59, 119, 179, 239, 299, 359, 419, STEPS];

    /// The relay on a 6 × 6 grid, through every fault class a driver
    /// wakes on and then mobility.
    fn relay<M: Medium>(by_value: bool, medium: M) -> Scenario<Relay, M> {
        let topo = builders::grid(6, 6, 0.25);
        let node = NodeId::new;
        let mut plan = FaultPlan::new();
        plan.at(60, Fault::CorruptNode(node(8)))
            .at(60, Fault::CorruptNode(node(27)))
            .at(120, Fault::Isolate(node(14)))
            .at(
                180,
                Fault::CrashRecover {
                    node: node(21),
                    dark_for: 10,
                },
            )
            .at(
                240,
                Fault::ByzantineBeacon {
                    node: node(3),
                    lie: Lie::Forged,
                    until: 250,
                },
            )
            .at(
                300,
                Fault::ByzantineBeacon {
                    node: node(30),
                    lie: Lie::Replayed,
                    until: 310,
                },
            )
            .at(
                360,
                Fault::PartitionHeal {
                    cut: (0..12).map(node).collect(),
                    heal_at: 370,
                },
            );
        Scenario::new(Relay::new(by_value))
            .medium(medium)
            .topology(topo.clone())
            .seed(17)
            .faults(plan)
            .mobility(Drift::new(&topo, 420..480))
    }

    /// The clock's passes: the event clock runs them at events, not
    /// visits.
    trait Passes: Clock<Relay> {
        const EVENTS: bool = false;
    }

    impl<M: Medium> Passes for Rounds<M> {}

    impl<M: Medium + Sync> Passes for Actors<M> {}

    impl<M: Medium> Passes for Events<Relay, M> {
        const EVENTS: bool = true;
    }

    /// Frames delivered, guard passes and receives of the last step.
    fn counts<C: Clock<Relay>>(d: &Sim<Relay, C>) -> [u64; 3] {
        let a = d.last_activity();
        [a.frames_delivered, a.updates, a.receives].map(|c| c as u64)
    }

    /// The relay whose `read_changed` compares the value, beside the
    /// twin that keeps the default: step by step the same states,
    /// outputs, broadcasts and frames delivered, the same report, and
    /// fewer receives. On the event clock the same guard passes too; on
    /// the period clocks a visit whose frames were all held runs none
    /// where the twin's receives make it run one, so fewer.
    fn beside_its_twin<C: Passes>(build: impl Fn(bool) -> Sim<Relay, C>, label: &str) {
        let (mut skips, mut twin) = (build(true), build(false));
        assert!(skips.protocol().by_value && !twin.protocol().by_value);
        let (mut passes, mut receives) = ([0u64; 2], [0u64; 2]);
        for step in 1..=STEPS {
            skips.step();
            twin.step();
            let at = format!("{label}, step {step}");
            assert!(skips.states() == twin.states(), "{at}: states");
            assert_eq!(skips.outputs(), twin.outputs(), "{at}");
            assert_eq!(skips.messages_total(), twin.messages_total(), "{at}");
            let (mine, theirs) = (counts(&skips), counts(&twin));
            assert_eq!(mine[0], theirs[0], "{at}: frames");
            if C::EVENTS {
                assert_eq!(mine[1], theirs[1], "{at}: passes");
            } else {
                assert!(mine[1] <= theirs[1], "{at}: {mine:?} against {theirs:?}");
            }
            assert!(mine[2] <= theirs[2], "{at}: {mine:?} against {theirs:?}");
            passes = [passes[0] + mine[1], passes[1] + theirs[1]];
            receives = [receives[0] + mine[2], receives[1] + theirs[2]];
        }
        assert!(
            C::EVENTS || passes[0] < passes[1],
            "{label}: {passes:?} passes"
        );
        let stop = StopWhen::stable_for(3).within(100);
        let report = skips.run_to(&stop);
        assert_eq!(report, twin.run_to(&stop), "{label}");
        assert!(report.stabilized.is_some(), "{label}: the relay settles");
        assert!(skips.states() == twin.states(), "{label}");
        assert!(
            receives[0] < receives[1] || receives[1] == 0,
            "{label}: {receives:?} receives"
        );
        // The protocol also counts what debug builds receive on a copy:
        // exactly one call per receive the driver skipped.
        let calls = |d: &Sim<Relay, C>| d.protocol().receives.load(Ordering::Relaxed);
        let (mine, theirs) = (calls(&skips), calls(&twin));
        if cfg!(debug_assertions) {
            assert_eq!(mine, theirs, "{label}: every skip was checked");
        } else {
            assert!(mine < theirs, "{label}: {mine} receives against {theirs}");
        }
    }

    /// The relay that skips, gated beside eager: byte for byte after
    /// every step on a period clock. The event clock's eager twin runs
    /// its passes at other events (it hears every neighbour every
    /// period), so there the outputs agree at the ends of settled
    /// stretches, where every climb is over.
    fn gated_like_eager<C: Clock<Relay>>(
        build: impl Fn() -> Sim<Relay, C>,
        every_step: bool,
        label: &str,
    ) {
        let (mut gated, mut eager) = (build(), build());
        eager.set_eager(true);
        for step in 1..=STEPS {
            gated.step();
            eager.step();
            if every_step {
                assert!(gated.states() == eager.states(), "{label}, step {step}");
            }
            if SETTLED.contains(&step) {
                assert_eq!(gated.outputs(), eager.outputs(), "{label}, step {step}");
                let over = |s: &Relayer| s.relay >= s.value;
                assert!(gated.states().iter().all(over), "{label}, step {step}");
            }
        }
        assert!(gated.messages_total() < eager.messages_total(), "{label}");
    }

    /// The read-part skip is unobservable on every driver, medium and
    /// fault class: a relay word no receive reads, changing on every
    /// pass of a climb, costs receivers no receive, and nothing else
    /// moves — against the twin that receives it, and against eager.
    /// Debug builds run each skipped receive on a copy and name the
    /// node whose state it would have changed.
    #[test]
    fn a_relay_word_nobody_reads_is_skipped_unobserved_on_every_driver() {
        fn rounds<M: Medium>(by_value: bool, medium: M) -> Network<Relay, M> {
            relay(by_value, medium).build().expect("a valid scenario")
        }
        fn events<M: Medium>(by_value: bool, medium: M) -> EventDriver<Relay, M> {
            let scenario = relay(by_value, medium);
            scenario
                .build_events(EventConfig::default())
                .expect("a valid scenario")
        }
        fn actors<M: Medium + Sync>(by_value: bool, medium: M) -> ActorDriver<Relay, M> {
            relay(by_value, medium)
                .build_actors(3)
                .expect("a valid scenario")
        }
        let lossy = || BernoulliLoss::new(0.7);
        let csma = || SlottedCsma::new(8);
        beside_its_twin(|v| rounds(v, PerfectMedium), "rounds, perfect");
        beside_its_twin(|v| rounds(v, lossy()), "rounds, lossy");
        beside_its_twin(|v| rounds(v, csma()), "rounds, slotted CSMA");
        beside_its_twin(|v| events(v, PerfectMedium), "events, perfect");
        beside_its_twin(|v| events(v, lossy()), "events, lossy");
        beside_its_twin(|v| events(v, csma()), "events, slotted CSMA");
        beside_its_twin(|v| actors(v, PerfectMedium), "actors, perfect");
        beside_its_twin(|v| actors(v, lossy()), "actors, lossy");
        gated_like_eager(|| rounds(true, PerfectMedium), true, "rounds, perfect");
        gated_like_eager(|| rounds(true, lossy()), true, "rounds, lossy");
        gated_like_eager(|| actors(true, PerfectMedium), true, "actors, perfect");
        gated_like_eager(|| actors(true, lossy()), true, "actors, lossy");
        gated_like_eager(|| events(true, PerfectMedium), false, "events, perfect");
        gated_like_eager(|| events(true, lossy()), false, "events, lossy");
    }

    /// The event clock's `Climb` test on the period clocks: gated and
    /// eager byte for byte after every step, through corruption,
    /// isolation, crash-recover and mobility. A hearer whose receive
    /// raised its target must still run its pass: a skip rule that
    /// passed it over would leave it short, and debug builds would name
    /// it.
    #[test]
    fn a_slow_settling_protocol_is_gated_like_its_eager_twin_on_the_period_clocks() {
        fn climb<M: Medium>(medium: M) -> Scenario<Climb, M> {
            let topo = builders::grid(6, 6, 0.25);
            let mut plan = FaultPlan::new();
            plan.at(60, Fault::CorruptAll)
                .at(120, Fault::Isolate(NodeId::new(14)))
                .at(
                    180,
                    Fault::CrashRecover {
                        node: NodeId::new(21),
                        dark_for: 10,
                    },
                )
                .at(260, Fault::CorruptNode(NodeId::new(8)));
            Scenario::new(Climb)
                .medium(medium)
                .topology(topo.clone())
                .seed(11)
                .faults(plan)
                .mobility(Drift::new(&topo, 240..300))
        }
        fn lockstep<C: Clock<Climb>>(build: impl Fn() -> Sim<Climb, C>, label: &str) {
            let (mut gated, mut eager) = (build(), build());
            eager.set_eager(true);
            for step in 1..=340 {
                gated.step();
                eager.step();
                assert!(gated.states() == eager.states(), "{label}, step {step}");
            }
            let climbed: u32 = gated.states().iter().map(|s| s.moves).sum();
            assert!(climbed > 2 * 36 * 30, "{label}: {climbed} moves");
            assert!(gated.messages_total() < eager.messages_total(), "{label}");
        }
        let lossy = || BernoulliLoss::new(0.7);
        lockstep(
            || climb(PerfectMedium).build().expect("valid"),
            "rounds, perfect",
        );
        lockstep(|| climb(lossy()).build().expect("valid"), "rounds, lossy");
        lockstep(
            || climb(PerfectMedium).build_actors(3).expect("valid"),
            "actors",
        );
    }
}
