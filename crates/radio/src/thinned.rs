use mwn_graph::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::Rng;

use crate::{Delivery, Medium};

/// Composes an inner medium with independent per-copy Bernoulli
/// thinning: a frame must survive the inner medium (e.g. CSMA
/// collisions) *and* an extra coin flip (e.g. ambient interference).
///
/// If the inner medium guarantees per-frame success ≥ τ₁ and the
/// thinning keeps copies with probability τ₂, the composition
/// guarantees ≥ τ₁·τ₂ > 0 — still within the paper's hypothesis.
///
/// # Examples
///
/// ```
/// use mwn_radio::{SlottedCsma, Thinned};
///
/// let medium = Thinned::new(SlottedCsma::new(16), 0.9);
/// assert_eq!(medium.survival(), 0.9);
/// ```
#[derive(Clone, Debug)]
pub struct Thinned<M> {
    inner: M,
    survival: f64,
    /// Reused inner-round buffer: whole-round thinning must not touch
    /// copies a previous append already placed in the caller's
    /// delivery, and reusing the staging area keeps `deliver_into`
    /// allocation-free in steady state.
    scratch: Delivery,
}

impl<M: Medium> Thinned<M> {
    /// Wraps `inner`, keeping each delivered copy with probability
    /// `survival`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < survival <= 1`.
    pub fn new(inner: M, survival: f64) -> Self {
        assert!(
            survival > 0.0 && survival <= 1.0,
            "survival must be in (0, 1]"
        );
        Thinned {
            inner,
            survival,
            scratch: Delivery::empty(0),
        }
    }

    /// The thinning survival probability.
    pub fn survival(&self) -> f64 {
        self.survival
    }

    /// The wrapped medium.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Unwraps the inner medium.
    pub fn into_inner(self) -> M {
        self.inner
    }
}

impl<M: Medium> Medium for Thinned<M> {
    fn deliver_into(
        &mut self,
        topo: &Topology,
        senders: &[NodeId],
        rng: &mut StdRng,
        out: &mut Delivery,
    ) {
        // Stage the inner round separately so thinning never touches
        // copies a previous append already placed in `out`.
        let mut inner = std::mem::take(&mut self.scratch);
        inner.reset(topo.len());
        self.inner.deliver_into(topo, senders, rng, &mut inner);
        for &r in &inner.touched {
            inner.heard[r.index()].retain(|_| rng.random_bool(self.survival));
        }
        out.attempted += inner.attempted;
        for &r in &inner.touched {
            for i in 0..inner.heard[r.index()].len() {
                let s = inner.heard[r.index()][i];
                out.record(r, s);
            }
        }
        self.scratch = inner;
    }

    fn independent_fates(&self) -> bool {
        self.inner.independent_fates()
    }

    // `lossless` keeps its `false` default whatever the inner medium
    // answers: even at survival 1.0 a coin is drawn per delivered copy,
    // and "draws nothing" is half of that promise.

    /// The inner medium decides its fates first, then one thinning coin
    /// per *delivered* copy in neighbor order. (A whole round through
    /// [`Medium::deliver_into`] draws its coins per receiver instead.)
    fn fates(
        &self,
        topo: &Topology,
        sender: NodeId,
        rng: &mut StdRng,
        heard: &mut Vec<NodeId>,
    ) -> usize {
        let start = heard.len();
        let attempted = self.inner.fates(topo, sender, rng, heard);
        let mut keep = start;
        for i in start..heard.len() {
            let r = heard[i];
            if rng.random_bool(self.survival) {
                heard[keep] = r;
                keep += 1;
            }
        }
        heard.truncate(keep);
        attempted
    }

    fn name(&self) -> &'static str {
        "thinned"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{measure_tau, PerfectMedium, SlottedCsma};
    use mwn_graph::builders;
    use rand::SeedableRng;

    #[test]
    fn thinning_perfect_medium_yields_the_survival_rate() {
        let mut rng = StdRng::seed_from_u64(1);
        let topo = builders::complete(10);
        let tau = measure_tau(&mut Thinned::new(PerfectMedium, 0.6), &topo, 200, &mut rng);
        assert!((tau - 0.6).abs() < 0.03, "measured {tau}");
    }

    #[test]
    fn composition_multiplies_losses() {
        let mut rng = StdRng::seed_from_u64(2);
        let topo = builders::uniform(60, 0.15, &mut rng);
        let inner_tau = measure_tau(&mut SlottedCsma::new(8), &topo, 60, &mut rng);
        let composed_tau = measure_tau(
            &mut Thinned::new(SlottedCsma::new(8), 0.7),
            &topo,
            60,
            &mut rng,
        );
        let expected = inner_tau * 0.7;
        assert!(
            (composed_tau - expected).abs() < 0.08,
            "composed {composed_tau} vs expected ≈ {expected}"
        );
    }

    #[test]
    fn survival_one_is_transparent() {
        let mut rng = StdRng::seed_from_u64(3);
        let topo = builders::star(12);
        let senders: Vec<NodeId> = topo.nodes().collect();
        let d = Thinned::new(PerfectMedium, 1.0).deliver(&topo, &senders, &mut rng);
        assert_eq!(d.attempted, d.delivered);
    }

    #[test]
    fn accessors_roundtrip() {
        let t = Thinned::new(PerfectMedium, 0.5);
        assert_eq!(*t.inner(), PerfectMedium);
        assert_eq!(t.into_inner(), PerfectMedium);
    }

    #[test]
    #[should_panic(expected = "survival must be in (0, 1]")]
    fn zero_survival_rejected() {
        let _ = Thinned::new(PerfectMedium, 0.0);
    }
}
