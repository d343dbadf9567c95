//! The flooding fixtures the unit tests of every driver share, the
//! slow-settling adversary of the event clock's settled-node skip, and
//! the medium wrapper the round driver's two kinds of step are compared
//! through.

use std::sync::atomic::{AtomicUsize, Ordering};

use mwn_graph::{NodeId, Topology};
use mwn_radio::{ContentionStreams, Delivery, Medium, OccupancyView};
use rand::rngs::StdRng;
use rand::Rng;

use crate::{Activity, Corruptible, Observable, Protocol};

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

/// [`GatedFlood`] that counts the look-ahead reads the driver asks of
/// it — the only way to see a pass that must not be observable.
#[derive(Debug, Default)]
pub(crate) struct PeekFlood {
    pub peeks: AtomicUsize,
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
    fn peek(&self, beacon: &u32) -> u64 {
        self.peeks.fetch_add(1, Ordering::Relaxed);
        u64::from(*beacon)
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
/// adversary of the event clock's settled-node skip. `receive` records
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

/// `M` with its [`Medium::lossless`] promise withheld and everything
/// else forwarded: the round driver asks a `Pushed<PerfectMedium>` for
/// the very deliveries it reads off the topology under `PerfectMedium`.
#[derive(Clone, Debug)]
pub(crate) struct Pushed<M>(pub M);

impl<M: Medium> Medium for Pushed<M> {
    fn deliver_into(
        &mut self,
        topo: &Topology,
        senders: &[NodeId],
        rng: &mut StdRng,
        out: &mut Delivery,
    ) {
        self.0.deliver_into(topo, senders, rng, out);
    }
    fn deliver(&mut self, topo: &Topology, senders: &[NodeId], rng: &mut StdRng) -> Delivery {
        self.0.deliver(topo, senders, rng)
    }
    fn independent_fates(&self) -> bool {
        self.0.independent_fates()
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
    fn gated_contention(&self) -> bool {
        self.0.gated_contention()
    }
    fn lossless(&self) -> bool {
        false
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
