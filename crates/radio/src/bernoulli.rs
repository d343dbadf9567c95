use mwn_graph::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::Rng;

use crate::{Medium, MediumKind};

/// The memoryless lossy medium of the paper's proofs: each
/// (sender, receiver) frame copy is delivered independently with
/// probability exactly `tau`.
///
/// Section 4's hypothesis is that "the probability of a frame
/// transmission without collision is at least τ", with independence
/// across frames (a memoryless Markov model). This medium realizes the
/// bound with equality, which makes it the *worst* medium consistent
/// with the hypothesis — convergence observed here validates the
/// self-stabilization argument under maximal allowed loss.
///
/// # Examples
///
/// ```
/// use mwn_radio::BernoulliLoss;
///
/// let m = BernoulliLoss::new(0.8);
/// assert_eq!(m.tau(), 0.8);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BernoulliLoss {
    tau: f64,
}

impl BernoulliLoss {
    /// Creates the medium with per-frame success probability `tau`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < tau <= 1` (the paper requires τ > 0; with
    /// τ = 0 nothing ever converges).
    pub fn new(tau: f64) -> Self {
        assert!(tau > 0.0 && tau <= 1.0, "τ must be in (0, 1], got {tau}");
        BernoulliLoss { tau }
    }

    /// The configured per-frame success probability.
    pub fn tau(&self) -> f64 {
        self.tau
    }
}

impl Medium for BernoulliLoss {
    fn kind(&self) -> MediumKind {
        MediumKind::Independent
    }

    fn fates(
        &self,
        topo: &Topology,
        sender: NodeId,
        rng: &mut StdRng,
        heard: &mut Vec<NodeId>,
    ) -> usize {
        // One coin per copy, in neighbor order.
        for &r in topo.neighbors(sender) {
            if rng.random_bool(self.tau) {
                heard.push(r);
            }
        }
        topo.degree(sender)
    }

    fn name(&self) -> &'static str {
        "bernoulli-loss"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure_tau;
    use mwn_graph::builders;
    use rand::SeedableRng;

    #[test]
    fn tau_one_behaves_like_perfect() {
        let topo = builders::complete(6);
        let senders: Vec<NodeId> = topo.nodes().collect();
        let mut rng = StdRng::seed_from_u64(1);
        let d = BernoulliLoss::new(1.0).deliver(&topo, &senders, &mut rng);
        assert_eq!(d.attempted, d.delivered);
    }

    #[test]
    fn empirical_rate_matches_tau() {
        let topo = builders::complete(10);
        let mut rng = StdRng::seed_from_u64(2);
        let tau = measure_tau(&mut BernoulliLoss::new(0.35), &topo, 300, &mut rng);
        assert!((tau - 0.35).abs() < 0.03, "measured {tau}");
    }

    #[test]
    fn losses_are_per_receiver() {
        // One broadcast to many receivers must be able to reach only a
        // strict subset (independent per-copy losses).
        let topo = builders::star(40);
        let mut rng = StdRng::seed_from_u64(3);
        let mut medium = BernoulliLoss::new(0.5);
        let mut saw_partial = false;
        for _ in 0..50 {
            let d = medium.deliver(&topo, &[NodeId::new(0)], &mut rng);
            let reached = d.delivered;
            if reached > 0 && reached < 39 {
                saw_partial = true;
                break;
            }
        }
        assert!(saw_partial, "expected partial deliveries with τ = 0.5");
    }

    #[test]
    #[should_panic(expected = "τ must be in (0, 1]")]
    fn zero_tau_is_rejected() {
        let _ = BernoulliLoss::new(0.0);
    }
}
