//! The flooding fixtures the unit tests of every driver share.

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
