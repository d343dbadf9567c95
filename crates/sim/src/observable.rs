//! The canonical output projection of a protocol.

use mwn_graph::NodeId;

use crate::Protocol;

/// A protocol with a canonical **observable output** — the part of the
/// node state that defines stabilization.
///
/// The paper distinguishes a protocol's *output* (the cluster-head and
/// parent choice, the DAG name) from its *mechanism* (neighbor caches,
/// timestamps): a configuration is stable when the output stops
/// changing, even while caches keep refreshing. Implementing
/// `Observable` once per protocol lets the drivers and the
/// [`crate::Sweep`] runner use [`crate::StopWhen`] stop conditions with
/// no per-call-site projection closures.
pub trait Observable: Protocol {
    /// The projected output of one node.
    type Output: Clone + PartialEq + std::fmt::Debug + Send;

    /// Projects the observable output out of `state`.
    fn output(&self, node: NodeId, state: &Self::State) -> Self::Output;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;

    struct Echo;
    impl Protocol for Echo {
        type State = u32;
        type Beacon = u32;
        fn init(&self, node: NodeId, _rng: &mut StdRng) -> u32 {
            node.value()
        }
        fn beacon(&self, _node: NodeId, state: &u32) -> u32 {
            *state
        }
        fn receive(&self, _n: NodeId, _s: &mut u32, _f: NodeId, _b: &u32, _now: u64) {}
        fn update(&self, _n: NodeId, _s: &mut u32, _now: u64, _rng: &mut StdRng) {}
    }
    impl Observable for Echo {
        type Output = u32;
        fn output(&self, _node: NodeId, state: &u32) -> u32 {
            *state
        }
    }

    #[test]
    fn output_projects_state() {
        assert_eq!(Echo.output(NodeId::new(3), &7), 7);
    }
}
