use mwn_graph::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::Rng;

use crate::marks::SlotMarks;
use crate::{ContentionStreams, Delivery, Medium, MediumKind, OccupancyView};

/// Slotted medium with the **capture effect**: when two frames collide
/// at a receiver, the much-closer (much-stronger) transmitter can still
/// be decoded.
///
/// Senders pick a uniform slot, as in [`crate::SlottedCsma`] without
/// carrier sensing. At receiver `r` in slot `t` with transmitting
/// neighbors `T`:
///
/// * `|T| = 1` → the frame is received (unless `r` itself transmitted
///   in `t`, half-duplex);
/// * `|T| ≥ 2` → the nearest transmitter `s*` is *captured* iff
///   `d(s*, r) · capture_ratio ≤ d(s₂, r)` where `s₂` is the
///   second-nearest; everything else is lost.
///
/// `capture_ratio ≥ 1` maps to the usual SINR threshold under a
/// power-law path loss: ratio `c` ≈ threshold^(1/α).
///
/// Both paths keep their senders' slots in stamped marks the medium
/// owns (as [`crate::SlottedCsma`] does), and a receiver's contenders
/// in a list it reuses, so a round allocates nothing once warm; the
/// type is `Clone`, not `Copy`, and compares by configuration.
///
/// # Examples
///
/// ```
/// use mwn_radio::CaptureCsma;
///
/// let m = CaptureCsma::new(8, 2.0);
/// assert_eq!(m.slots(), 8);
/// ```
#[derive(Clone, Debug)]
pub struct CaptureCsma {
    slots: usize,
    capture_ratio: f64,
    marks: SlotMarks,
    /// The contenders one receiver hears, as (slot, distance, id):
    /// every transmitting neighbor on the eager path, one copy's slot
    /// on the gated fold.
    ranked: Vec<(usize, f64, NodeId)>,
}

impl PartialEq for CaptureCsma {
    fn eq(&self, other: &Self) -> bool {
        (self.slots, self.capture_ratio) == (other.slots, other.capture_ratio)
    }
}

impl CaptureCsma {
    /// Creates the medium.
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0` (or does not fit 32 bits) or
    /// `capture_ratio < 1`.
    pub fn new(slots: usize, capture_ratio: f64) -> Self {
        assert!(slots > 0, "need at least one slot per step");
        assert!(u32::try_from(slots).is_ok(), "slot indices are 32-bit");
        assert!(
            capture_ratio >= 1.0,
            "a capture ratio below 1 would capture the weaker frame"
        );
        CaptureCsma {
            slots,
            capture_ratio,
            marks: SlotMarks::default(),
            ranked: Vec::new(),
        }
    }

    /// Number of mini-slots per step.
    pub fn slots(&self) -> usize {
        self.slots
    }
}

/// Orders contenders by slot, then by received power — nearest first,
/// exactly equal powers by node id, so the winner is deterministic on
/// every driver (whether such a tie can satisfy the capture condition
/// is the ratio's call).
fn rank(contenders: &mut [(usize, f64, NodeId)]) {
    contenders.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2)));
}

/// The frame a receiver decodes among one slot's `contenders`, ranked:
/// a lone transmitter's, or the nearest one's if it is `capture_ratio`
/// times closer than the second nearest.
fn captured(contenders: &[(usize, f64, NodeId)], capture_ratio: f64) -> Option<NodeId> {
    match *contenders {
        [] => None,
        [(.., only)] => Some(only),
        [(_, d1, nearest), (_, d2, _), ..] => (d1 * capture_ratio <= d2).then_some(nearest),
    }
}

impl Medium for CaptureCsma {
    /// Each sender draws its slot off `rng` in the order given; then
    /// every receiver, ascending, decodes at most one frame per slot
    /// it hears, ascending: the lone transmitter, or the one the
    /// capture rule picks.
    ///
    /// # Panics
    ///
    /// Panics if the topology carries no positions (capture needs
    /// distances; build it with [`Topology::unit_disk`]).
    fn deliver_into(
        &mut self,
        topo: &Topology,
        senders: &[NodeId],
        rng: &mut StdRng,
        delivery: &mut Delivery,
    ) {
        let positions = topo
            .positions()
            .expect("the capture effect requires node positions");
        let (marks, ranked) = (&mut self.marks, &mut self.ranked);
        marks.begin(topo.len());
        for &s in senders {
            marks.claim(s, rng.random_range(0..self.slots));
            delivery.attempted += topo.degree(s);
        }
        for r in topo.nodes() {
            let distance = |q: NodeId| positions[q.index()].distance(positions[r.index()]);
            ranked.clear();
            for &q in topo.neighbors(r) {
                if let Some(slot) = marks.slot(q) {
                    ranked.push((slot, distance(q), q));
                }
            }
            rank(ranked);
            for contenders in ranked.chunk_by(|a, b| a.0 == b.0) {
                if marks.holds(r, contenders[0].0) {
                    continue; // half-duplex
                }
                if let Some(s) = captured(contenders, self.capture_ratio) {
                    delivery.record(r, s);
                }
            }
        }
    }

    fn kind(&self) -> MediumKind {
        MediumKind::Contention
    }

    /// Exact slots for the active `senders` (per-sender streams, no
    /// carrier sense), statistical contenders from the occupied
    /// population: for a copy `s → r`, each occupied `q ∈ N(r) \ {s}`
    /// lands in `s`'s slot with probability `1/slots` (one Bernoulli
    /// per phantom off the per-(tick, r, s) copy stream, drawn in
    /// sorted-neighbor order), and an occupied `r` is itself
    /// transmitting over `s` with probability `1/slots`. The winner
    /// among `{s}` ∪ exact in-slot actives ∪ drawn phantoms is ranked
    /// by (distance, node id); the copy is recorded iff `s` wins *and*
    /// clears the capture ratio. A winning phantom delivers nothing —
    /// its beacon is stale by definition of being silent.
    fn deliver_occupied_into(
        &mut self,
        topo: &Topology,
        senders: &[NodeId],
        occupancy: &dyn OccupancyView,
        streams: &ContentionStreams,
        delivery: &mut Delivery,
    ) {
        if senders.is_empty() {
            return; // the quiet path: zero work, zero draws
        }
        let positions = topo
            .positions()
            .expect("the capture effect requires node positions");
        let p_slot = 1.0 / self.slots as f64;
        let (marks, ranked) = (&mut self.marks, &mut self.ranked);
        marks.begin(topo.len());
        for &s in senders {
            marks.claim(s, streams.sender(s).random_range(0..self.slots));
            delivery.attempted += topo.degree(s);
        }
        for &s in senders {
            let Some(slot) = marks.slot(s) else {
                debug_assert!(false, "the claim loop above gave {s} a slot");
                continue;
            };
            for &r in topo.neighbors(s) {
                if marks.holds(r, slot) {
                    continue; // half-duplex among actives (exact)
                }
                let mut rng = streams.copy(r, s);
                if occupancy.is_occupied(r) && rng.random::<f64>() < p_slot {
                    continue; // half-duplex against the phantom r
                }
                let distance = |q: NodeId| positions[q.index()].distance(positions[r.index()]);
                ranked.clear();
                ranked.push((slot, distance(s), s));
                for &q in topo.neighbors(r) {
                    if q == s {
                        continue;
                    }
                    let in_slot = match marks.slot(q) {
                        Some(claimed) => claimed == slot, // exact active contender
                        None => occupancy.is_occupied(q) && rng.random::<f64>() < p_slot,
                    };
                    if in_slot {
                        ranked.push((slot, distance(q), q));
                    }
                }
                rank(ranked);
                if captured(ranked, self.capture_ratio) == Some(s) {
                    delivery.record(r, s);
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "capture-csma"
    }
}

/// The eager kernel this file shipped before it kept its slots in
/// stamped marks: a length-n slot table and a per-receiver map of
/// slots, all freshly allocated. Kept verbatim as the oracle the
/// stamped kernel must equal draw for draw.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn deliver_into(
        medium: &CaptureCsma,
        topo: &Topology,
        senders: &[NodeId],
        rng: &mut StdRng,
        delivery: &mut Delivery,
    ) {
        let positions = topo
            .positions()
            .expect("the capture effect requires node positions");
        let mut slot_of = vec![usize::MAX; topo.len()];
        for &s in senders {
            slot_of[s.index()] = rng.random_range(0..medium.slots);
            delivery.attempted += topo.degree(s);
        }
        for r in topo.nodes() {
            // Group transmitting neighbors of r by slot.
            let mut by_slot: std::collections::BTreeMap<usize, Vec<NodeId>> =
                std::collections::BTreeMap::new();
            for &q in topo.neighbors(r) {
                let slot = slot_of[q.index()];
                if slot != usize::MAX {
                    by_slot.entry(slot).or_default().push(q);
                }
            }
            for (slot, txs) in by_slot {
                if slot_of[r.index()] == slot {
                    continue; // half-duplex
                }
                let winner = match txs.as_slice() {
                    [] => continue,
                    [only] => Some(*only),
                    _ => {
                        let mut ranked: Vec<(f64, NodeId)> = txs
                            .iter()
                            .map(|&q| (positions[q.index()].distance(positions[r.index()]), q))
                            .collect();
                        // Exactly equal received powers are broken by
                        // node id, so the winner is deterministic on
                        // every driver (whether such a tie can satisfy
                        // the capture condition is the ratio's call).
                        ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                        let (d1, nearest) = ranked[0];
                        let (d2, _) = ranked[1];
                        (d1 * medium.capture_ratio <= d2).then_some(nearest)
                    }
                };
                if let Some(s) = winner {
                    delivery.record(r, s);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{measure_tau, SlottedCsma};
    use mwn_graph::{builders, Point2, Topology};
    use rand::SeedableRng;

    #[test]
    fn capture_saves_the_near_frame() {
        // Receiver 0 with a very close sender 1 and a far sender 2,
        // one slot (guaranteed collision): 1 must be captured.
        let positions = vec![
            Point2::new(0.5, 0.5),
            Point2::new(0.505, 0.5),
            Point2::new(0.59, 0.5),
        ];
        let topo = Topology::unit_disk(positions, 0.1).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut medium = CaptureCsma::new(1, 3.0);
        let d = medium.deliver(&topo, &[NodeId::new(1), NodeId::new(2)], &mut rng);
        assert_eq!(d.heard[0], vec![NodeId::new(1)]);
    }

    #[test]
    fn equal_distances_are_never_captured() {
        let positions = vec![
            Point2::new(0.5, 0.5),
            Point2::new(0.55, 0.5),
            Point2::new(0.45, 0.5),
        ];
        let topo = Topology::unit_disk(positions, 0.1).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut medium = CaptureCsma::new(1, 1.5);
        let d = medium.deliver(&topo, &[NodeId::new(1), NodeId::new(2)], &mut rng);
        assert!(d.heard[0].is_empty(), "symmetric collision destroys both");
    }

    #[test]
    fn capture_improves_on_plain_slotted_aloha() {
        let mut rng = StdRng::seed_from_u64(3);
        let topo = builders::uniform(80, 0.15, &mut rng);
        let plain = measure_tau(
            &mut SlottedCsma::new(8).without_carrier_sense(),
            &topo,
            60,
            &mut rng,
        );
        let capture = measure_tau(&mut CaptureCsma::new(8, 1.5), &topo, 60, &mut rng);
        assert!(
            capture > plain,
            "capture τ = {capture} should beat plain τ = {plain}"
        );
    }

    #[test]
    fn lone_sender_always_heard() {
        let topo = builders::star(6);
        let mut rng = StdRng::seed_from_u64(4);
        let d = CaptureCsma::new(4, 2.0).deliver(&topo, &[NodeId::new(0)], &mut rng);
        assert_eq!(d.delivered, 5);
    }

    #[test]
    #[should_panic(expected = "capture ratio below 1")]
    fn sub_one_ratio_rejected() {
        let _ = CaptureCsma::new(4, 0.5);
    }

    /// Nodes 1 and 2 exactly equidistant from receiver 0. The
    /// coordinates are dyadic rationals, so both distances are the
    /// *same* float (0.25) — a true tie, not an epsilon apart.
    fn symmetric_pair() -> Topology {
        let positions = vec![
            Point2::new(0.5, 0.5),
            Point2::new(0.75, 0.5),
            Point2::new(0.25, 0.5),
        ];
        Topology::unit_disk(positions, 0.3).unwrap()
    }

    #[test]
    fn equal_powers_capture_the_lowest_id_on_the_eager_path() {
        // Regression: exactly equal received powers must resolve by
        // node id, not by slot-draw order or HashMap/seed accidents.
        // One slot forces the collision; ratio 1.0 lets the tie pass
        // the capture condition, so the winner is purely the
        // tie-break's pick — and it must be node 1 for every seed.
        let topo = symmetric_pair();
        for seed in 0..16 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut medium = CaptureCsma::new(1, 1.0);
            let d = medium.deliver(&topo, &[NodeId::new(1), NodeId::new(2)], &mut rng);
            assert_eq!(
                d.heard[0],
                vec![NodeId::new(1)],
                "seed {seed}: the lower id must win the power tie"
            );
        }
    }

    #[test]
    fn equal_powers_capture_the_lowest_id_on_the_gated_path() {
        // The same tie-break pins the statistical-occupancy path: two
        // exact actives collide in the single slot, and only node 1's
        // copy may be captured at the symmetric receiver.
        let topo = symmetric_pair();
        let occupancy = crate::Occupancy::new(topo.len());
        for tick in 0..16 {
            let streams = ContentionStreams::new(7, 11, tick);
            let mut medium = CaptureCsma::new(1, 1.0);
            let mut d = crate::Delivery::empty(topo.len());
            medium.deliver_occupied_into(
                &topo,
                &[NodeId::new(1), NodeId::new(2)],
                &occupancy,
                &streams,
                &mut d,
            );
            assert_eq!(
                d.heard[0],
                vec![NodeId::new(1)],
                "tick {tick}: the lower id must win the power tie"
            );
        }
    }

    #[test]
    fn equal_powers_break_ties_by_id_against_phantoms_too() {
        // An equidistant *occupied* contender enters the same ranking:
        // with one slot it always contends, so an active node 2 loses
        // the tie to phantom node 1 (nothing delivered — the phantom's
        // beacon is stale), while an active node 1 beats phantom 2.
        let topo = symmetric_pair();
        let mut occupancy = crate::Occupancy::new(topo.len());
        occupancy.occupy(NodeId::new(2), &topo);
        let streams = ContentionStreams::new(7, 11, 3);
        let mut medium = CaptureCsma::new(1, 1.0);
        let mut d = crate::Delivery::empty(topo.len());
        medium.deliver_occupied_into(&topo, &[NodeId::new(1)], &occupancy, &streams, &mut d);
        assert_eq!(d.heard[0], vec![NodeId::new(1)], "active 1 beats phantom 2");

        let mut occupancy = crate::Occupancy::new(topo.len());
        occupancy.occupy(NodeId::new(1), &topo);
        let mut d = crate::Delivery::empty(topo.len());
        medium.deliver_occupied_into(&topo, &[NodeId::new(2)], &occupancy, &streams, &mut d);
        assert!(
            d.heard[0].is_empty(),
            "phantom 1 wins the tie and delivers nothing"
        );
    }

    mod kernel {
        use super::super::*;
        use mwn_graph::builders;
        use proptest::prelude::*;
        use rand::SeedableRng;

        /// One eager round: a deployment, its senders and the stream's seed.
        #[derive(Clone, Debug)]
        struct Round {
            topo: Topology,
            senders: Vec<NodeId>,
            seed: u64,
        }

        /// Poisson / grid / star / path deployments over a few sizes
        /// (so consecutive rounds meet both a different n and the same
        /// n under a different graph), sender subsets from empty to
        /// everyone.
        fn round() -> impl Strategy<Value = Round> {
            (0u8..4, 0usize..4, 0u8..5, any::<u64>()).prop_map(|(shape, size, send, seed)| {
                let n = [2, 5, 13, 30][size];
                let mut rng = StdRng::seed_from_u64(seed);
                let topo = match shape {
                    0 => builders::poisson(n as f64, 0.3, &mut rng),
                    1 => builders::grid(n, 2, 1.05 / (n - 1) as f64),
                    2 => builders::star(n),
                    _ => builders::line(n),
                };
                let share = [0.0, 0.1, 0.5, 0.9, 1.0][usize::from(send)];
                let senders = topo
                    .nodes()
                    .filter(|_| rng.random::<f64>() < share)
                    .collect();
                Round {
                    topo,
                    senders,
                    seed,
                }
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The stamped eager kernel equals the allocating one it
            /// replaced — every draw, every `record` call, in order —
            /// on one medium value reused across rounds, so no stamp
            /// may leak from call to call; and both leave the stream in
            /// the same state.
            #[test]
            fn kernel_equals_reference(
                slots in 0usize..3,
                ratio in 0usize..3,
                rounds in proptest::collection::vec(round(), 1..5),
            ) {
                let mut medium = CaptureCsma::new([1, 2, 8][slots], [1.0, 1.5, 3.0][ratio]);
                for Round { topo, senders, seed } in &rounds {
                    let mut rng = StdRng::seed_from_u64(*seed);
                    let mut ref_rng = rng.clone();
                    let (mut got, mut want) =
                        (Delivery::empty(topo.len()), Delivery::empty(topo.len()));
                    medium.deliver_into(topo, senders, &mut rng, &mut got);
                    reference::deliver_into(&medium, topo, senders, &mut ref_rng, &mut want);
                    prop_assert_eq!(&got, &want);
                    prop_assert_eq!(&rng, &ref_rng, "the stream moved differently");
                }
            }
        }
    }
}
