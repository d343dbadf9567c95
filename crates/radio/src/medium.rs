use mwn_graph::{NodeId, Topology};
use rand::rngs::StdRng;

use crate::{ContentionStreams, OccupancyView};

/// The outcome of one broadcast round over a medium.
///
/// `heard[r]` lists the senders whose frame node `r` received this
/// round, in delivery order. `attempted` counts every (sender,
/// 1-neighbor) frame copy that could have been received; `delivered`
/// counts those that were. Their ratio is the empirical τ of the round.
///
/// `touched` lists the receivers whose `heard` list is non-empty, so a
/// driver can walk the round's recipients in O(deliveries) instead of
/// scanning all n nodes — the activity-driven engine's hot path.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Delivery {
    /// Per-receiver list of heard senders.
    pub heard: Vec<Vec<NodeId>>,
    /// Receivers with at least one [`Delivery::record`] call this
    /// round, in first-hear order, duplicate-free.
    pub touched: Vec<NodeId>,
    /// Number of (sender, neighbor) frame copies that were in range.
    pub attempted: usize,
    /// Number of frame copies actually received.
    pub delivered: usize,
    /// O(1) membership mirror of `touched`.
    seen: Vec<bool>,
    /// [`Delivery::record_fates`]' reused receiver list; empty between
    /// calls.
    fates: Vec<NodeId>,
}

impl Delivery {
    /// Creates an empty delivery for `n` receivers.
    pub fn empty(n: usize) -> Self {
        Delivery {
            heard: vec![Vec::new(); n],
            touched: Vec::new(),
            attempted: 0,
            delivered: 0,
            seen: vec![false; n],
            fates: Vec::new(),
        }
    }

    /// Empties the delivery for `n` receivers while keeping its
    /// buffers: per-step reuse allocates nothing in steady state (only
    /// the receivers actually touched last round are cleared).
    pub fn reset(&mut self, n: usize) {
        if self.heard.len() == n {
            for &r in &self.touched {
                self.heard[r.index()].clear();
                self.seen[r.index()] = false;
            }
        } else {
            self.heard.iter_mut().for_each(Vec::clear);
            self.heard.resize_with(n, Vec::new);
            self.seen.clear();
            self.seen.resize(n, false);
        }
        self.touched.clear();
        self.attempted = 0;
        self.delivered = 0;
    }

    /// Records that `receiver` heard the frame of `sender`, maintaining
    /// the `touched` index and the `delivered` count. Media use this
    /// instead of pushing into `heard` directly.
    #[inline]
    pub fn record(&mut self, receiver: NodeId, sender: NodeId) {
        if !self.seen[receiver.index()] {
            self.seen[receiver.index()] = true;
            self.touched.push(receiver);
        }
        self.heard[receiver.index()].push(sender);
        self.delivered += 1;
    }

    /// Appends the frame copies of `sender` that `medium` decides
    /// arrive ([`Medium::fates`]): one entry point for a medium's whole
    /// rounds and for a driver's per-sender streams, allocation-free
    /// once the reused receiver list has reached the largest degree.
    pub fn record_fates<M: Medium + ?Sized>(
        &mut self,
        medium: &M,
        topo: &Topology,
        sender: NodeId,
        rng: &mut StdRng,
    ) {
        let mut fates = std::mem::take(&mut self.fates);
        self.attempted += medium.fates(topo, sender, rng, &mut fates);
        for r in fates.drain(..) {
            self.record(r, sender);
        }
        self.fates = fates;
    }
}

/// How a medium meets the paper's τ > 0 hypothesis, which decides how
/// every driver asks it for frames. Each kind names the entry point
/// that serves it, and every kind supports gated scheduling on the
/// clocks that accept it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MediumKind {
    /// Every in-range copy of every sender is delivered, exactly once,
    /// through every entry point, and no randomness is drawn doing so
    /// ([`crate::PerfectMedium`]). A round is then a fact the topology
    /// already states — a node heard exactly its sending 1-neighbors —
    /// so the synchronous round driver does not ask such a medium to
    /// deliver at all: it reads a node's frames off its adjacency list
    /// and the set of senders, and counts `attempted = delivered =
    /// Σ degree(sender)`. Nothing can tell the difference: the same
    /// frames reach the same receivers in the same (ascending sender)
    /// order, and the untouched RNG stream is the one a call would have
    /// handed back. The event driver and the actor fabric ask
    /// [`Medium::fates`], as for [`MediumKind::Independent`]. The
    /// promise is about the medium as a whole, not about a parameter
    /// value: [`crate::BernoulliLoss`] at τ = 1 still draws a coin per
    /// copy. Held to its word by `crates/radio/tests/properties.rs`.
    Lossless,
    /// Each (sender, receiver) copy's fate is its own, with no
    /// cross-sender contention, and [`Medium::fates`] decides one
    /// sender's copies through a shared reference
    /// ([`crate::BernoulliLoss`], [`crate::DistanceFading`]). That one
    /// function is the medium's per-copy draw for every driver — the
    /// round driver on a per-(step, sender) stream, the event clock per
    /// transmission, the actor fabric on its worker threads — which is
    /// what lets quiescent senders be skipped without perturbing anyone
    /// else's frames: gated and eager runs are byte-identical.
    Independent,
    /// Fates are contention-coupled ([`crate::SlottedCsma`],
    /// [`crate::CaptureCsma`]): an eager round evaluates the whole
    /// sender set at once ([`Medium::deliver_into`]), and
    /// [`Medium::deliver_occupied_into`] folds a silent-but-transmitting
    /// population ([`OccupancyView`]) into the collision draws
    /// statistically, for a sender set or for one sender alone, so a
    /// driver may gate quiescent senders. The agreement claim is
    /// **distributional** (per-frame marginals match the eager
    /// reference; Wilson-band equivalence on stabilization time,
    /// delivery ratio and outputs), not byte-identical. The actor fabric
    /// rejects this kind: it replays senders concurrently, and a
    /// contention round serializes them through one channel state.
    Contention,
}

/// A broadcast wireless medium.
///
/// Given the topology and the set of nodes that broadcast during one
/// step, a medium decides which neighbor actually receives which frame.
/// Implementations must only ever deliver frames between 1-neighbors
/// (radio range is a hard constraint in the unit-disk model).
///
/// The RNG is the concrete [`StdRng`] used across the workspace so that
/// media can be used as trait objects and every run stays reproducible
/// from a seed.
///
/// A medium is one of three kinds ([`Medium::kind`]), and each kind
/// implements its own entry point: [`Medium::fates`] for the lossless
/// and independent kinds, [`Medium::deliver_into`] and
/// [`Medium::deliver_occupied_into`] for contention. A whole round
/// through [`Medium::deliver_into`] is, unless a contention medium
/// overrides it, its senders' [`Medium::fates`] in turn;
/// [`Medium::deliver`] is a convenience wrapper.
pub trait Medium {
    /// Which of the three kinds this medium is — the one answer every
    /// driver dispatches on.
    fn kind(&self) -> MediumKind;

    /// Delivers one round of broadcasts from `senders`, **appending**
    /// into `out` (the caller resets and sizes it), so a driver can
    /// accumulate several partial rounds into one `Delivery`.
    ///
    /// The provided round is each sender's [`Medium::fates`] in turn on
    /// the one stream ([`Delivery::record_fates`]); contention media
    /// override it.
    fn deliver_into(
        &mut self,
        topo: &Topology,
        senders: &[NodeId],
        rng: &mut StdRng,
        out: &mut Delivery,
    ) {
        for &s in senders {
            out.record_fates(&*self, topo, s, rng);
        }
    }

    /// Delivers one round of broadcasts from `senders` into a fresh
    /// [`Delivery`].
    fn deliver(&mut self, topo: &Topology, senders: &[NodeId], rng: &mut StdRng) -> Delivery {
        let mut out = Delivery::empty(topo.len());
        self.deliver_into(topo, senders, rng, &mut out);
        out
    }

    /// Decides which neighbors hear one frame of `sender`, appending
    /// them to `heard` in neighbor order and returning the number of
    /// copies attempted (the sender's degree for a broadcast medium).
    ///
    /// The shared reference is what lets the actor fabric hand one
    /// medium to many worker threads; the per-(slot, sender) `rng` is
    /// what makes a copy's fate a function of `(seed, slot, sender)`
    /// alone, so every driver that derives the same stream drops the
    /// same copies. Lossless and independent media implement it; the
    /// default, for contention media, delivers nothing and reports zero
    /// attempts.
    fn fates(
        &self,
        topo: &Topology,
        sender: NodeId,
        rng: &mut StdRng,
        heard: &mut Vec<NodeId>,
    ) -> usize {
        let _ = (topo, sender, rng, heard);
        debug_assert!(
            self.kind() == MediumKind::Contention,
            "lossless and independent media must override fates"
        );
        0
    }

    /// Delivers one round of broadcasts from the *active* `senders`
    /// while folding the occupied (silent-but-transmitting) population
    /// into the contention draws statistically, appending into `out`.
    ///
    /// Active–active interactions are simulated exactly; each occupied
    /// node contributes its marginal collision probability through
    /// draws on the derived [`ContentionStreams`] — per
    /// (tick, receiver, sender) for frame copies, per (tick, sender)
    /// for the sender's own slot and carrier-sense fate. The event
    /// driver calls it once per transmission, with that one sender and
    /// [`crate::FullOccupancy`] (on the continuous clock every other
    /// radio beacons each period and therefore contends).
    ///
    /// Cost: O(Σ degree over the round's participants) — the active
    /// senders plus whatever occupied nodes the medium materializes in
    /// their 2-hop neighborhood. Nothing is proportional to n or to
    /// the silent population, allocation included (the shipped media
    /// keep their per-node tables in generation-stamped scratch they
    /// own); a fully quiet round (`senders` empty) costs nothing.
    ///
    /// Contention media implement it; the default delivers nothing.
    fn deliver_occupied_into(
        &mut self,
        topo: &Topology,
        senders: &[NodeId],
        occupancy: &dyn OccupancyView,
        streams: &ContentionStreams,
        out: &mut Delivery,
    ) {
        let _ = (topo, senders, occupancy, streams, out);
        debug_assert!(
            self.kind() != MediumKind::Contention,
            "contention media must override deliver_occupied_into"
        );
    }

    /// A short human-readable name used in experiment output.
    fn name(&self) -> &'static str;
}

/// Empirically measures the per-frame success probability τ of a
/// medium over `steps` rounds in which *every* node broadcasts — the
/// worst-case contention the paper's Δ(τ) step must absorb.
///
/// Returns 1.0 if the topology has no edges (no frame can fail).
///
/// # Examples
///
/// ```
/// use mwn_graph::builders;
/// use mwn_radio::{measure_tau, BernoulliLoss};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(3);
/// let topo = builders::complete(10);
/// let tau = measure_tau(&mut BernoulliLoss::new(0.7), &topo, 200, &mut rng);
/// assert!((tau - 0.7).abs() < 0.05);
/// ```
pub fn measure_tau<M: Medium + ?Sized>(
    medium: &mut M,
    topo: &Topology,
    steps: usize,
    rng: &mut StdRng,
) -> f64 {
    let senders: Vec<NodeId> = topo.nodes().collect();
    let mut attempted = 0usize;
    let mut delivered = 0usize;
    let mut d = Delivery::empty(topo.len());
    for _ in 0..steps {
        d.reset(topo.len());
        medium.deliver_into(topo, &senders, rng, &mut d);
        attempted += d.attempted;
        delivered += d.delivered;
    }
    if attempted == 0 {
        1.0
    } else {
        delivered as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_maintains_touched_and_counts() {
        let mut d = Delivery::empty(3);
        d.attempted += 2;
        d.record(NodeId::new(1), NodeId::new(0));
        d.record(NodeId::new(1), NodeId::new(2));
        assert_eq!(d.touched, vec![NodeId::new(1)]);
        assert_eq!(d.delivered, 2);
        d.reset(3);
        assert!(d.heard.iter().all(Vec::is_empty));
        assert!(d.touched.is_empty());
        assert_eq!((d.attempted, d.delivered), (0, 0));
    }
}
