use mwn_graph::{NodeId, Topology};
use rand::rngs::StdRng;

use crate::{Medium, MediumKind};

/// The collision-free medium: every broadcast reaches every 1-neighbor.
///
/// This realizes the paper's Section 5 simulation abstraction: "in a
/// bounded time Δ(τ), each node is able to locally broadcast one frame
/// and then receive all packets sent by its 1-neighbors. Such a Δ(τ)
/// time unit is called a *step*." With this medium one driver round is
/// exactly one such step, and τ = 1.
///
/// "Receive **all** packets sent by its 1-neighbors" is also the
/// promise behind [`MediumKind::Lossless`], which this medium alone
/// makes: the round driver takes the sentence at its word and reads a
/// node's frames off its adjacency list instead of asking
/// [`Medium::fates`] once per sender.
///
/// # Examples
///
/// ```
/// use mwn_graph::{builders, NodeId};
/// use mwn_radio::{Medium, PerfectMedium};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let topo = builders::line(3);
/// let mut rng = StdRng::seed_from_u64(0);
/// let d = PerfectMedium.deliver(&topo, &[NodeId::new(1)], &mut rng);
/// assert_eq!(d.heard[0], vec![NodeId::new(1)]);
/// assert_eq!(d.heard[2], vec![NodeId::new(1)]);
/// assert!(d.heard[1].is_empty()); // nodes do not hear themselves
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PerfectMedium;

impl Medium for PerfectMedium {
    fn kind(&self) -> MediumKind {
        MediumKind::Lossless
    }

    fn fates(
        &self,
        topo: &Topology,
        sender: NodeId,
        _rng: &mut StdRng,
        heard: &mut Vec<NodeId>,
    ) -> usize {
        heard.extend_from_slice(topo.neighbors(sender));
        topo.degree(sender)
    }

    fn name(&self) -> &'static str {
        "perfect"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwn_graph::builders;
    use rand::SeedableRng;

    #[test]
    fn all_neighbor_copies_delivered() {
        let topo = builders::complete(5);
        let senders: Vec<NodeId> = topo.nodes().collect();
        let mut rng = StdRng::seed_from_u64(0);
        let d = PerfectMedium.deliver(&topo, &senders, &mut rng);
        assert_eq!(d.attempted, 20); // 5 senders × 4 neighbors
        assert_eq!(d.delivered, 20);
        for r in topo.nodes() {
            assert_eq!(d.heard[r.index()].len(), 4);
            assert!(!d.heard[r.index()].contains(&r));
        }
    }

    #[test]
    fn non_senders_send_nothing() {
        let topo = builders::line(4);
        let mut rng = StdRng::seed_from_u64(0);
        let d = PerfectMedium.deliver(&topo, &[], &mut rng);
        assert_eq!(d.attempted, 0);
        assert!(d.heard.iter().all(Vec::is_empty));
    }

    #[test]
    fn delivery_respects_radio_range() {
        let topo = builders::line(4); // 0-1-2-3
        let mut rng = StdRng::seed_from_u64(0);
        let d = PerfectMedium.deliver(&topo, &[NodeId::new(0)], &mut rng);
        assert_eq!(d.heard[1], vec![NodeId::new(0)]);
        assert!(d.heard[2].is_empty());
        assert!(d.heard[3].is_empty());
    }
}
