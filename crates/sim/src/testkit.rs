//! The flooding fixtures the unit tests of every driver share.

use std::sync::atomic::{AtomicUsize, Ordering};

use mwn_graph::NodeId;
use rand::rngs::StdRng;

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
