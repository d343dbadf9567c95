//! Statistical slot occupancy: the contract that lets contention media
//! gate silent senders.
//!
//! Under CSMA a node cannot simply stop being simulated when it goes
//! quiet — its transmissions were part of every neighbor's collision
//! odds. The gated-contention mode keeps those odds without any
//! per-silent-node work: the driver hands the medium an
//! [`OccupancyView`] of who is silent-but-transmitting — on the round
//! clock exactly the nodes that are not send-pending, read off the
//! engine's pending set, so nothing is kept beside it — and the medium
//! folds that population into its collision/capture draws
//! *statistically*, on derived per-(tick, receiver, sender) streams
//! ([`ContentionStreams`]).
//!
//! The fold preserves the per-frame marginal collision probabilities of
//! the eager reference; joint slot correlations across copies are not
//! preserved, so the gated ≡ eager claim for contention media is
//! distributional (Wilson-band agreement on stabilization time,
//! delivery ratio and outputs), not byte-identical.

use mwn_graph::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// SplitMix64 finalizer — the same mixer `mwn-sim` uses for its derived
/// streams, duplicated here because the dependency points the other way
/// (mwn-sim depends on mwn-radio). Drivers hand this module already
/// derived base seeds; the mixer only splits them further.
#[inline]
fn mix(base: u64, stream: u64) -> u64 {
    let mut z = base.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Read-only view of the silent-but-transmitting population that a
/// gated-contention medium folds into its draws.
///
/// Three implementations ship: the round driver's view of its retired
/// senders (occupied = not send-pending, read off the engine's pending
/// set), [`FullOccupancy`] (event clock: every other radio beacons
/// each period, so every neighbor is a statistical contender) and an
/// explicit [`Occupancy`] flag per node, for tests and probes.
pub trait OccupancyView {
    /// Whether `q` is silent-but-transmitting (a statistical contender).
    fn is_occupied(&self, q: NodeId) -> bool;
}

/// An explicit occupancy: one flag per node, set and cleared by hand.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Occupancy {
    occupied: Vec<bool>,
}

impl Occupancy {
    /// Creates an empty occupancy for `n` nodes (nobody occupied).
    pub fn new(n: usize) -> Self {
        Occupancy {
            occupied: vec![false; n],
        }
    }

    /// Marks `q` occupied. `topo` is unused: a flag has no neighbor
    /// counts to keep, and the signature is the one callers link to.
    pub fn occupy(&mut self, q: NodeId, _topo: &Topology) {
        self.occupied[q.index()] = true;
    }

    /// Clears `q`'s occupancy. `topo` is unused, as in
    /// [`Occupancy::occupy`].
    pub fn release(&mut self, q: NodeId, _topo: &Topology) {
        self.occupied[q.index()] = false;
    }
}

impl OccupancyView for Occupancy {
    #[inline]
    fn is_occupied(&self, q: NodeId) -> bool {
        self.occupied[q.index()]
    }
}

/// The event clock's view: **every** other radio is a statistical
/// contender.
///
/// On the continuous clock the eager reference transmits at every
/// beacon period, so whether a node is currently gated or not, its
/// frames contend against the full in-range population. Using the same
/// per-frame law in both modes is what makes gated ≡ eager tight there
/// — and it needs no maintenance at all.
#[derive(Clone, Copy, Debug, Default)]
pub struct FullOccupancy;

impl OccupancyView for FullOccupancy {
    #[inline]
    fn is_occupied(&self, _q: NodeId) -> bool {
        true
    }
}

/// Derived per-(tick, entity) RNG streams for one gated-contention
/// delivery round.
///
/// A frame copy's fate must depend only on `(seed, tick, receiver,
/// sender)` — never on how many *other* silent nodes exist or in which
/// order they were folded — so a medium draws every statistical
/// decision off these streams instead of a shared sequential RNG:
///
/// * [`ContentionStreams::sender`] — per-(tick, sender): the sender's
///   own slot pick and its phantom carrier-sense fate (all its copies
///   defer consistently).
/// * [`ContentionStreams::copy`] — per-(tick, receiver, sender): the
///   statistical collision/capture fold for one frame copy.
/// * [`ContentionStreams::round`] — per-tick: the active-active
///   channel-race order (shared by the whole round).
#[derive(Clone, Copy, Debug)]
pub struct ContentionStreams {
    sender_base: u64,
    copy_base: u64,
    tick: u64,
}

impl ContentionStreams {
    /// Creates the streams for one delivery tick. `sender_base` and
    /// `copy_base` are driver-derived stream bases (decorrelated from
    /// each other and from every other stream the driver splits).
    pub fn new(sender_base: u64, copy_base: u64, tick: u64) -> Self {
        ContentionStreams {
            sender_base,
            copy_base,
            tick,
        }
    }

    /// The delivery tick these streams are keyed by.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Per-(tick, sender) stream.
    pub fn sender(&self, s: NodeId) -> StdRng {
        StdRng::seed_from_u64(mix(mix(self.sender_base, self.tick), s.index() as u64))
    }

    /// Per-(tick, receiver, sender) stream for one frame copy.
    pub fn copy(&self, r: NodeId, s: NodeId) -> StdRng {
        StdRng::seed_from_u64(mix(
            mix(mix(self.copy_base, self.tick), r.index() as u64),
            s.index() as u64,
        ))
    }

    /// Per-tick stream shared by the whole round (channel-race order).
    pub fn round(&self) -> StdRng {
        StdRng::seed_from_u64(mix(mix(self.sender_base, self.tick), u64::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwn_graph::builders;
    use rand::Rng;

    #[test]
    fn occupy_and_release_set_one_flag() {
        let topo = builders::star(4);
        let mut occ = Occupancy::new(4);
        occ.occupy(NodeId::new(1), &topo);
        occ.occupy(NodeId::new(1), &topo); // idempotent
        assert!(occ.is_occupied(NodeId::new(1)));
        assert!(
            !occ.is_occupied(NodeId::new(0)),
            "a neighbor is not occupied"
        );
        occ.release(NodeId::new(1), &topo);
        assert_eq!(occ, Occupancy::new(4));
        assert!(FullOccupancy.is_occupied(NodeId::new(3)));
    }

    #[test]
    fn contention_streams_are_reproducible_and_distinct() {
        let st = ContentionStreams::new(7, 11, 3);
        let a: u64 = st.copy(NodeId::new(1), NodeId::new(2)).random();
        let b: u64 = st.copy(NodeId::new(1), NodeId::new(2)).random();
        assert_eq!(a, b, "same coordinates, same stream");
        let swapped: u64 = st.copy(NodeId::new(2), NodeId::new(1)).random();
        assert_ne!(a, swapped, "receiver/sender coordinates are ordered");
        let other_tick: u64 = ContentionStreams::new(7, 11, 4)
            .copy(NodeId::new(1), NodeId::new(2))
            .random();
        assert_ne!(a, other_tick);
        let s: u64 = st.sender(NodeId::new(1)).random();
        let round: u64 = st.round().random();
        assert_ne!(s, round);
    }
}
