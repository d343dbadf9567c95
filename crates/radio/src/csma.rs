use std::fmt;

use mwn_graph::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::Rng;

use crate::marks::SlotMarks;
use crate::{ContentionStreams, Delivery, Medium, MediumKind, OccupancyView};

/// A slotted CSMA/CA-like medium with hidden terminals and half-duplex
/// radios: τ is *emergent* rather than assumed.
///
/// Each step is divided into `slots` mini-slots. Every sender picks a
/// slot uniformly at random (its randomized backoff). With
/// `carrier_sense` enabled (the CA part), a sender defers — loses its
/// whole step, as a real backoff-overrun would — when a 1-hop neighbor
/// already claimed the same slot; deferral is decided in random order,
/// mimicking who wins the channel race. A receiver `r` hears the frame
/// of sender `s` iff:
///
/// * `s` transmitted in some slot `t`,
/// * no *other* neighbor of `r` transmitted in slot `t` (collision —
///   this includes hidden terminals that `s` could not sense), and
/// * `r` itself did not transmit in slot `t` (half-duplex).
///
/// The three rules are decided by tally, not by search: after the race
/// every transmitter bumps a counter at `(r, t)` for its slot `t` and
/// every radio `r` it reaches — each neighbor, and itself — and the
/// copy `s → r` is heard iff the tally at `(r, t)` is exactly 1: that
/// one is `s` (as `s ∈ N(r)`), so no other neighbor of `r` and not `r`
/// itself transmitted in `t`. A round therefore costs the summed degree
/// of its participants, not a walk of `N(r)` per copy.
///
/// The paper's hypothesis — a memoryless per-frame success probability
/// ≥ τ > 0 — holds mechanically: with `k` slots and maximum degree δ,
/// a frame copy survives with probability at least
/// `((k-1)/k)^(δ+1) > 0`, independent across steps.
///
/// The medium owns its working memory (slot claims, tallies, the
/// participant lists, the memoized phantom fixed points), so a call
/// allocates nothing. The per-node tables are never cleared: an entry
/// is live iff its stamp equals the call's generation, which is what
/// lets a one-sender call on the event clock cost its 2-hop
/// neighborhood instead of n. The tally is one byte per (node, slot).
/// Owning buffers is why the type is `Clone` but not `Copy`; two
/// values compare equal iff their configuration does.
///
/// # Examples
///
/// ```
/// use mwn_graph::builders;
/// use mwn_radio::{measure_tau, SlottedCsma};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(9);
/// let topo = builders::uniform(50, 0.15, &mut rng);
/// let coarse = measure_tau(&mut SlottedCsma::new(4), &topo, 40, &mut rng);
/// let fine = measure_tau(&mut SlottedCsma::new(64), &topo, 40, &mut rng);
/// assert!(fine > coarse, "more slots, fewer collisions");
/// ```
#[derive(Clone)]
pub struct SlottedCsma {
    slots: usize,
    carrier_sense: bool,
    scratch: Scratch,
}

impl PartialEq for SlottedCsma {
    fn eq(&self, other: &Self) -> bool {
        (self.slots, self.carrier_sense) == (other.slots, other.carrier_sense)
    }
}

impl Eq for SlottedCsma {}

impl fmt::Debug for SlottedCsma {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SlottedCsma")
            .field("slots", &self.slots)
            .field("carrier_sense", &self.carrier_sense)
            .finish_non_exhaustive()
    }
}

impl SlottedCsma {
    /// Creates the medium with `slots` mini-slots per step and carrier
    /// sensing enabled.
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0` (or does not fit 32 bits).
    pub fn new(slots: usize) -> Self {
        assert!(slots > 0, "need at least one slot per step");
        assert!(u32::try_from(slots).is_ok(), "slot indices are 32-bit");
        SlottedCsma {
            slots,
            carrier_sense: true,
            scratch: Scratch::default(),
        }
    }

    /// Disables carrier sensing (pure slotted-ALOHA behaviour); exposes
    /// the contribution of the CA part in ablation benches.
    pub fn without_carrier_sense(mut self) -> Self {
        self.carrier_sense = false;
        self.scratch.ptx.clear(); // memoized per (slots, carrier_sense)
        self
    }

    /// Number of mini-slots per step.
    pub fn slots(&self) -> usize {
        self.slots
    }
}

/// Marginal transmit probability of an occupied (silent) node of
/// degree `degree`: with carrier sense it defers when some neighbor
/// claimed its slot earlier in the channel race — but a neighbor
/// only *claims* a slot if it transmits itself, so `P` solves the
/// mean-field fixed point `P = (1 − P/(2·slots))^degree` (each of
/// the `degree` neighbors blocks with probability `P·1/slots·1/2`:
/// it transmits, picked the same slot, and drew the earlier turn).
/// The first-order `(1 − 1/(2·slots))^degree` lets deferred
/// neighbors block and so underestimates `P` badly under heavy
/// contention (m = 4, degree ≈ 7: 0.37 vs the true ≈ 0.57),
/// inflating the folded delivery ratio outside the eager Wilson
/// band. `(1 − P/(2m))^degree − P` is strictly decreasing in `P`
/// with a sign change on [0, 1], so bisection to the unique root
/// is unconditionally convergent (the naive fixed-point iteration
/// is not when `degree > 2·slots`). Without carrier sense the
/// phantom always transmits.
fn phantom_tx_probability(slots: usize, carrier_sense: bool, degree: usize) -> f64 {
    if !carrier_sense {
        return 1.0;
    }
    #[cfg(test)]
    BISECTIONS.with(|count| count.set(count.get() + 1));
    let m = slots as f64;
    let claims = |p: f64| (1.0 - p / (2.0 * m)).powi(degree as i32);
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..48 {
        let mid = 0.5 * (lo + hi);
        if claims(mid) > mid {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
thread_local! {
    /// Fixed points solved on this thread — the memo test's probe.
    static BISECTIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Working memory of a delivery call; see [`SlottedCsma`] for why it
/// is stamped rather than cleared.
#[derive(Clone, Default)]
struct Scratch {
    /// This call's cohort (marked) and the race's winners (claims).
    claims: SlotMarks,
    /// Stamp per receiver: its neighborhood was searched for phantoms.
    walked: Vec<u32>,
    tally: Tally,
    /// `(node, slot, pre-deferred)` per gated participant: the active
    /// senders, then the phantoms in id order.
    participants: Vec<(NodeId, usize, bool)>,
    phantoms: Vec<NodeId>,
    /// The race's turn order, as indices into the participants.
    order: Vec<usize>,
    /// [`phantom_tx_probability`] by degree, NaN where not yet solved:
    /// pure in the configuration, so it outlives the call.
    ptx: Vec<f64>,
}

impl Scratch {
    /// Opens a call over `n` nodes; returns its generation.
    fn begin(&mut self, n: usize, slots: usize) -> u32 {
        let generation = self.claims.begin(n);
        if generation == 1 {
            for stamps in [&mut self.walked, &mut self.tally.stamps] {
                stamps.clear();
                stamps.resize(n, 0);
            }
            let cells = n.checked_mul(slots).expect("a tally byte per (node, slot)");
            self.tally.counts.resize(cells, 0);
            self.tally.slots = slots;
        }
        self.tally.generation = generation;
        generation
    }
}

/// Transmitters in range of a radio — its neighbors and itself — per
/// (radio, slot). A row is zeroed when the call first touches it;
/// counts saturate, since only "exactly one" is ever asked.
#[derive(Clone, Default)]
struct Tally {
    slots: usize,
    generation: u32,
    stamps: Vec<u32>,
    counts: Vec<u8>,
}

impl Tally {
    /// Every transmitter among `nodes` is counted at itself and at
    /// each neighbor.
    fn count(&mut self, claims: &SlotMarks, topo: &Topology, nodes: impl Iterator<Item = NodeId>) {
        for p in nodes {
            let Some(slot) = claims.slot(p) else { continue };
            self.bump(p, slot);
            for &r in topo.neighbors(p) {
                self.bump(r, slot);
            }
        }
    }

    #[inline]
    fn bump(&mut self, r: NodeId, slot: usize) {
        let row = r.index() * self.slots;
        if self.stamps[r.index()] != self.generation {
            self.stamps[r.index()] = self.generation;
            self.counts[row..row + self.slots].fill(0);
        }
        let count = &mut self.counts[row + slot];
        *count = count.saturating_add(1);
    }

    /// Whether `slot` carries exactly one transmission at `r`; asked
    /// only where a counted transmitter is in range of `r`.
    #[inline]
    fn sole(&self, r: NodeId, slot: usize) -> bool {
        self.counts[r.index() * self.slots + slot] == 1
    }
}

/// The channel race: `count` participants take their turns in a random
/// order off `rng`; `turn` names the participant of an index and draws
/// its slot, or returns `None` for one that sits the race out. With
/// carrier sense a participant defers — its frame is lost for this
/// step — when a 1-hop neighbor already holds its slot.
fn race(
    claims: &mut SlotMarks,
    order: &mut Vec<usize>,
    topo: &Topology,
    carrier_sense: bool,
    count: usize,
    rng: &mut StdRng,
    mut turn: impl FnMut(usize, &mut StdRng) -> Option<(NodeId, usize)>,
) {
    order.clear();
    order.extend(0..count);
    for i in (1..count).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
    for &idx in order.iter() {
        let Some((p, slot)) = turn(idx, rng) else {
            continue;
        };
        debug_assert!(claims.slot(p).is_none(), "senders must be distinct");
        let busy = carrier_sense && topo.neighbors(p).iter().any(|&q| claims.holds(q, slot));
        if !busy {
            claims.claim(p, slot);
        }
    }
}

/// Reception of the active frames, sender by sender: exact against
/// every claim of the race — a sole transmission at `r` means no other
/// neighbor collided and `r` was not talking over it (half-duplex).
/// `fold` is the slotted-ALOHA occupancy fold: every occupied
/// `q ∈ N(r) \ {s}`, and an occupied `r` itself, hits the copy's slot
/// with probability `1/slots`, one Bernoulli per copy off the
/// per-(tick, r, s) stream.
fn receive(
    Scratch { claims, tally, .. }: &Scratch,
    topo: &Topology,
    senders: &[NodeId],
    fold: Option<(&dyn OccupancyView, &ContentionStreams)>,
    delivery: &mut Delivery,
) {
    let miss = 1.0 - 1.0 / tally.slots as f64;
    for &s in senders {
        let Some(slot) = claims.slot(s) else { continue };
        for &r in topo.neighbors(s) {
            if !tally.sole(r, slot) {
                continue;
            }
            if let Some((occupancy, streams)) = fold {
                let mut survive = if occupancy.is_occupied(r) { miss } else { 1.0 };
                for &q in topo.neighbors(r) {
                    if q != s && occupancy.is_occupied(q) {
                        survive *= miss;
                    }
                }
                if survive < 1.0 && streams.copy(r, s).random::<f64>() >= survive {
                    continue;
                }
            }
            delivery.record(r, s);
        }
    }
}

impl Medium for SlottedCsma {
    fn deliver_into(
        &mut self,
        topo: &Topology,
        senders: &[NodeId],
        rng: &mut StdRng,
        delivery: &mut Delivery,
    ) {
        if senders.is_empty() {
            return;
        }
        let (slots, carrier_sense) = (self.slots, self.carrier_sense);
        self.scratch.begin(topo.len(), slots);
        let Scratch {
            claims,
            tally,
            order,
            ..
        } = &mut self.scratch;
        // Attempted = every in-range copy from every sender, including
        // those whose frame was deferred by carrier sense.
        delivery.attempted += senders.iter().map(|&s| topo.degree(s)).sum::<usize>();
        // Each sender draws its slot when its turn in the race comes,
        // off the same sequential stream as the turn order.
        let draw = |idx: usize, rng: &mut StdRng| Some((senders[idx], rng.random_range(0..slots)));
        race(claims, order, topo, carrier_sense, senders.len(), rng, draw);
        tally.count(claims, topo, senders.iter().copied());
        receive(&self.scratch, topo, senders, None, delivery);
    }

    fn kind(&self) -> MediumKind {
        MediumKind::Contention
    }

    /// Exact contention among the active `senders`, statistical
    /// contention from the occupied population.
    ///
    /// Without carrier sense (slotted ALOHA) transmissions are
    /// independent, so the fold is closed-form and **exact in
    /// marginal**: every occupied `q ∈ N(r) \ {s}` collides with
    /// probability `1/slots` and an occupied receiver is half-duplex
    /// busy with probability `1/slots`, folded into one Bernoulli per
    /// copy off the per-(tick, r, s) stream.
    ///
    /// With carrier sense the channel race correlates everyone within
    /// two hops (earlier winners defer later claimants, deferred nodes
    /// block nobody), and no closed-form per-copy factor reproduces the
    /// eager marginals — first-order folds sit well outside the eager
    /// Wilson band at m = 4. Instead, the occupied nodes whose claims
    /// can actually reach an active frame — those audible to a sender
    /// or to one of its receivers, a cohort bounded by the active
    /// 2-hop neighborhood, *not* by the occupied population — are
    /// materialized for this tick: each draws a slot from its
    /// per-(tick, node) stream and joins the exact channel race next
    /// to the active senders. Occupied radios audible to a cohort
    /// member but outside the cohort cannot be materialized without
    /// walking the whole silent graph; their claims fold into one
    /// pre-deferral Bernoulli per cohort phantom at the mean-field
    /// rate `p_tx(q)/(2·slots)` (a boundary term two hops removed
    /// from any delivery). The quiet path is untouched: no senders,
    /// no cohort, zero draws.
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
        let (slots, carrier_sense) = (self.slots, self.carrier_sense);
        let generation = self.scratch.begin(topo.len(), slots);
        let Scratch {
            claims,
            walked,
            tally,
            participants,
            phantoms,
            order,
            ptx,
        } = &mut self.scratch;
        // Participants: every active sender, plus (under carrier sense)
        // the materialized occupied cohort.
        participants.clear();
        for &s in senders {
            delivery.attempted += topo.degree(s);
            claims.mark(s);
            let slot = streams.sender(s).random_range(0..slots);
            participants.push((s, slot, false));
        }
        if carrier_sense {
            // Each receiver is searched once however many senders it
            // hears. Discovery order is unobservable: the cohort is
            // sorted before any draw, so the race shuffle cannot depend
            // on it.
            phantoms.clear();
            let mut join = |q: NodeId| {
                if !claims.is_marked(q) && occupancy.is_occupied(q) {
                    claims.mark(q);
                    phantoms.push(q);
                }
            };
            for &s in senders {
                for &r in topo.neighbors(s) {
                    if std::mem::replace(&mut walked[r.index()], generation) == generation {
                        continue;
                    }
                    join(r);
                    topo.neighbors(r).iter().for_each(|&q| join(q));
                }
            }
            phantoms.sort_unstable();
            // `skip` pre-defers a phantom to its out-of-cohort blockers.
            let m = slots as f64;
            for &q in phantoms.iter() {
                let mut rng = streams.sender(q);
                let slot = rng.random_range(0..slots);
                let mut survive = 1.0f64;
                for &w in topo.neighbors(q) {
                    if !claims.is_marked(w) && occupancy.is_occupied(w) {
                        let degree = topo.degree(w);
                        if ptx.len() <= degree {
                            ptx.resize(degree + 1, f64::NAN);
                        }
                        if ptx[degree].is_nan() {
                            ptx[degree] = phantom_tx_probability(slots, carrier_sense, degree);
                        }
                        survive *= 1.0 - ptx[degree] / (2.0 * m);
                    }
                }
                let skip = survive < 1.0 && rng.random::<f64>() >= survive;
                participants.push((q, slot, skip));
            }
        }
        // The joint channel race, exactly as in the eager path; the
        // order comes off the round stream.
        let drawn = |idx: usize, _: &mut StdRng| {
            let (p, slot, skip) = participants[idx];
            (!skip).then_some((p, slot))
        };
        let (count, mut rng) = (participants.len(), streams.round());
        race(claims, order, topo, carrier_sense, count, &mut rng, drawn);
        tally.count(claims, topo, participants.iter().map(|&(p, ..)| p));
        // Under ALOHA nobody was materialized: the occupied population
        // folds into one Bernoulli per copy instead.
        let fold = (!carrier_sense).then_some((occupancy, streams));
        receive(&self.scratch, topo, senders, fold, delivery);
    }

    fn name(&self) -> &'static str {
        "slotted-csma"
    }
}

/// The kernel this file shipped before tallies and stamps: two walks of
/// `N(N(s))` per sender over three freshly allocated length-n vectors.
/// Kept verbatim as the oracle the stamped kernel must equal draw for
/// draw.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn deliver_into(
        medium: &SlottedCsma,
        topo: &Topology,
        senders: &[NodeId],
        rng: &mut StdRng,
        delivery: &mut Delivery,
    ) {
        let n = topo.len();
        // Slot choice per sender (usize::MAX = not transmitting).
        let mut slot_of = vec![usize::MAX; n];
        // Random contention order for the carrier-sense race.
        let mut order: Vec<usize> = (0..senders.len()).collect();
        for i in (1..order.len()).rev() {
            let j = rng.random_range(0..=i);
            order.swap(i, j);
        }
        for &idx in &order {
            let s = senders[idx];
            let slot = rng.random_range(0..medium.slots);
            if medium.carrier_sense {
                let busy = topo
                    .neighbors(s)
                    .iter()
                    .any(|&q| slot_of[q.index()] == slot);
                if busy {
                    // Channel sensed busy for the chosen backoff: the
                    // frame is deferred past the step boundary (lost
                    // for this step).
                    continue;
                }
            }
            slot_of[s.index()] = slot;
        }
        // Attempted = every in-range copy from every sender, including
        // those whose frame was deferred by carrier sense.
        for &s in senders {
            delivery.attempted += topo.degree(s);
        }
        // Reception: per receiver and slot, exactly one transmitting
        // neighbor and the receiver itself silent in that slot.
        for &s in senders {
            let slot = slot_of[s.index()];
            if slot == usize::MAX {
                continue;
            }
            for &r in topo.neighbors(s) {
                if slot_of[r.index()] == slot {
                    continue; // half-duplex: r was talking over s
                }
                let collided = topo
                    .neighbors(r)
                    .iter()
                    .any(|&q| q != s && slot_of[q.index()] == slot);
                if !collided {
                    delivery.record(r, s);
                }
            }
        }
    }

    pub(super) fn deliver_occupied_into(
        medium: &SlottedCsma,
        topo: &Topology,
        senders: &[NodeId],
        occupancy: &dyn OccupancyView,
        streams: &ContentionStreams,
        delivery: &mut Delivery,
    ) {
        if senders.is_empty() {
            return; // the quiet path: zero work, zero draws
        }
        let m = medium.slots as f64;
        // The fixed-point solve is pure in the degree; memoize it per
        // call so the boundary fold stays O(deg) draws, not O(deg)
        // bisections.
        let mut ptx_cache: Vec<f64> = Vec::new();
        fn ptx(cache: &mut Vec<f64>, medium: &SlottedCsma, degree: usize) -> f64 {
            if cache.len() <= degree {
                cache.resize(degree + 1, f64::NAN);
            }
            if cache[degree].is_nan() {
                cache[degree] = phantom_tx_probability(medium.slots, medium.carrier_sense, degree);
            }
            cache[degree]
        }
        // Participants: every active sender, plus (under carrier sense)
        // the materialized occupied cohort. `skip` pre-defers a phantom
        // to its out-of-cohort blockers.
        let mut in_cohort = vec![false; topo.len()];
        let mut participants: Vec<(NodeId, usize, bool)> = Vec::with_capacity(senders.len());
        for &s in senders {
            delivery.attempted += topo.degree(s);
            in_cohort[s.index()] = true;
            let slot = streams.sender(s).random_range(0..medium.slots);
            participants.push((s, slot, false));
        }
        if medium.carrier_sense {
            let mut phantoms: Vec<NodeId> = Vec::new();
            for &s in senders {
                for &r in topo.neighbors(s) {
                    if !in_cohort[r.index()] && occupancy.is_occupied(r) {
                        in_cohort[r.index()] = true;
                        phantoms.push(r);
                    }
                    for &q in topo.neighbors(r) {
                        if !in_cohort[q.index()] && occupancy.is_occupied(q) {
                            in_cohort[q.index()] = true;
                            phantoms.push(q);
                        }
                    }
                }
            }
            // Canonical order: the race shuffle must not depend on the
            // cohort's discovery order.
            phantoms.sort_unstable();
            for &q in &phantoms {
                let mut rng = streams.sender(q);
                let slot = rng.random_range(0..medium.slots);
                let mut survive = 1.0f64;
                for &w in topo.neighbors(q) {
                    if !in_cohort[w.index()] && occupancy.is_occupied(w) {
                        survive *= 1.0 - ptx(&mut ptx_cache, medium, topo.degree(w)) / (2.0 * m);
                    }
                }
                let skip = survive < 1.0 && rng.random::<f64>() >= survive;
                participants.push((q, slot, skip));
            }
        }
        // The joint channel race, exactly as in the eager path; the
        // order comes off the round stream.
        let mut slot_of = vec![usize::MAX; topo.len()];
        let mut order: Vec<usize> = (0..participants.len()).collect();
        let mut race = streams.round();
        for i in (1..order.len()).rev() {
            let j = race.random_range(0..=i);
            order.swap(i, j);
        }
        for &idx in &order {
            let (p, slot, skip) = participants[idx];
            if skip {
                continue;
            }
            if medium.carrier_sense {
                let busy = topo
                    .neighbors(p)
                    .iter()
                    .any(|&q| slot_of[q.index()] == slot);
                if busy {
                    continue;
                }
            }
            slot_of[p.index()] = slot;
        }
        // Reception for the active frames only: exact against every
        // materialized slot claim; under ALOHA the occupied population
        // folds into one Bernoulli per copy instead.
        for &s in senders {
            let slot = slot_of[s.index()];
            if slot == usize::MAX {
                continue;
            }
            'copies: for &r in topo.neighbors(s) {
                if slot_of[r.index()] == slot {
                    continue; // half-duplex: r was talking over s
                }
                let mut survive = if !medium.carrier_sense && occupancy.is_occupied(r) {
                    1.0 - 1.0 / m // ALOHA half-duplex phantom receiver
                } else {
                    1.0
                };
                for &q in topo.neighbors(r) {
                    if q == s {
                        continue;
                    }
                    if slot_of[q.index()] == slot {
                        continue 'copies; // exact collision
                    }
                    if !medium.carrier_sense && occupancy.is_occupied(q) {
                        survive *= 1.0 - 1.0 / m;
                    }
                }
                if survive >= 1.0 || streams.copy(r, s).random::<f64>() < survive {
                    delivery.record(r, s);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{measure_tau, FullOccupancy, Occupancy};
    use mwn_graph::{builders, Topology};
    use proptest::prelude::*;
    use rand::SeedableRng;

    const SLOT_AXIS: [usize; 5] = [1, 2, 8, 64, 300];

    /// One delivery round of the equality property: a deployment, who
    /// sends on it, and who is silent-but-transmitting around them.
    #[derive(Debug)]
    struct Round {
        topo: Topology,
        senders: Vec<NodeId>,
        /// `None` is [`FullOccupancy`]; otherwise random `occupy` calls
        /// on non-senders.
        occupancy: Option<Occupancy>,
        seed: u64,
    }

    /// Poisson / star / complete / path deployments over a few sizes
    /// (so consecutive rounds meet both a different n and the same n
    /// under a different graph); sender subsets from empty to everyone;
    /// occupancy from nobody to every non-sender, or the event clock's
    /// full view.
    fn round() -> impl Strategy<Value = Round> {
        (0u8..4, 0usize..4, 0u8..5, 0u8..5, any::<u64>()).prop_map(
            |(shape, size, send, occupy, seed)| {
                let n = [2, 5, 13, 30][size];
                let mut rng = StdRng::seed_from_u64(seed);
                let topo = match shape {
                    0 => builders::poisson(n as f64, 0.25, &mut rng),
                    1 => builders::star(n),
                    2 => builders::complete(n),
                    _ => builders::line(n),
                };
                let share = |level: u8| [0.0, 0.1, 0.5, 0.9, 1.0][usize::from(level)];
                let senders: Vec<NodeId> = topo
                    .nodes()
                    .filter(|_| rng.random::<f64>() < share(send))
                    .collect();
                let occupancy = (occupy > 0).then(|| {
                    let mut occupancy = Occupancy::new(topo.len());
                    for q in topo.nodes() {
                        if !senders.contains(&q) && rng.random::<f64>() < share(occupy) {
                            occupancy.occupy(q, &topo);
                        }
                    }
                    occupancy
                });
                Round {
                    topo,
                    senders,
                    occupancy,
                    seed,
                }
            },
        )
    }

    /// Runs `round` through both entry points of `medium` and of the
    /// reference: whole `Delivery` values must be equal, and so must
    /// the next word off the shared stream after the eager call.
    fn check_round(medium: &mut SlottedCsma, round: &Round) -> Result<(), TestCaseError> {
        let Round {
            topo,
            senders,
            occupancy,
            seed,
        } = round;
        let (mut rng, mut ref_rng) = (StdRng::seed_from_u64(*seed), StdRng::seed_from_u64(*seed));
        let (mut got, mut want) = (Delivery::empty(topo.len()), Delivery::empty(topo.len()));
        medium.deliver_into(topo, senders, &mut rng, &mut got);
        reference::deliver_into(medium, topo, senders, &mut ref_rng, &mut want);
        prop_assert_eq!(&got, &want, "eager delivery");
        prop_assert_eq!(rng.random::<u64>(), ref_rng.random::<u64>(), "eager stream");

        let occupancy: &dyn OccupancyView = match occupancy {
            Some(occupancy) => occupancy,
            None => &FullOccupancy,
        };
        let streams = ContentionStreams::new(seed ^ 0xA5, seed ^ 0x5A, seed % 97);
        let (mut got, mut want) = (Delivery::empty(topo.len()), Delivery::empty(topo.len()));
        medium.deliver_occupied_into(topo, senders, occupancy, &streams, &mut got);
        reference::deliver_occupied_into(medium, topo, senders, occupancy, &streams, &mut want);
        prop_assert_eq!(&got, &want, "gated delivery");
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The stamped tally kernel equals the scanning kernel it
        /// replaced — every draw, every `record` call, in order — on
        /// one medium value reused across rounds on deployments of
        /// different sizes, so no stamp may leak from call to call.
        #[test]
        fn kernel_equals_reference(
            slots in 0usize..SLOT_AXIS.len(),
            carrier_sense in any::<bool>(),
            rounds in proptest::collection::vec(round(), 1..5),
        ) {
            let mut medium = SlottedCsma::new(SLOT_AXIS[slots]);
            if !carrier_sense {
                medium = medium.without_carrier_sense();
            }
            for round in &rounds {
                check_round(&mut medium, round)?;
            }
        }

        /// The same equality across the generation counter's wrap: one
        /// deployment throughout, since a different size restarts the
        /// counter by itself.
        #[test]
        fn kernel_equals_reference_across_the_generation_wrap(
            carrier_sense in any::<bool>(),
            round in round(),
        ) {
            let mut medium = SlottedCsma::new(8);
            if !carrier_sense {
                medium = medium.without_carrier_sense();
            }
            check_round(&mut medium, &round)?;
            // Two calls per check: the counter wraps inside the second.
            medium.scratch.claims.set_generation(u32::MAX - 3);
            for _ in 0..3 {
                check_round(&mut medium, &round)?;
            }
        }
    }

    #[test]
    fn phantom_fixed_points_are_solved_once_per_medium() {
        // 0 sends on a path whose other nodes are all occupied: the
        // cohort is {1, 2}, and phantom 2 folds its out-of-cohort
        // neighbor 3 at the mean-field rate — one fixed point, degree 2.
        let topo = builders::line(8);
        let mut occupancy = Occupancy::new(8);
        for q in 1..8 {
            occupancy.occupy(NodeId::new(q), &topo);
        }
        let mut medium = SlottedCsma::new(4);
        let call = |medium: &mut SlottedCsma, tick| {
            let before = BISECTIONS.with(|count| count.get());
            let streams = ContentionStreams::new(3, 5, tick);
            let mut d = Delivery::empty(8);
            medium.deliver_occupied_into(&topo, &[NodeId::new(0)], &occupancy, &streams, &mut d);
            BISECTIONS.with(|count| count.get()) - before
        };
        let bits = |medium: &SlottedCsma| -> Vec<u64> {
            medium.scratch.ptx.iter().map(|p| p.to_bits()).collect()
        };
        assert_eq!(call(&mut medium, 0), 1, "degree 2, solved on first use");
        let solved = bits(&medium);
        assert_eq!(
            solved[2],
            phantom_tx_probability(4, true, 2).to_bits(),
            "the memo holds the solver's value bit for bit"
        );
        assert_eq!(call(&mut medium, 1), 0, "the memo outlives the call");
        assert_eq!(bits(&medium), solved);
        assert_eq!(medium, SlottedCsma::new(4), "equality is configuration");
        let aloha = medium.without_carrier_sense();
        assert!(
            aloha.scratch.ptx.is_empty(),
            "memoized per carrier-sense mode"
        );
        assert_ne!(aloha, SlottedCsma::new(4));
    }

    #[test]
    fn lone_sender_is_always_heard() {
        let topo = builders::star(10);
        let mut rng = StdRng::seed_from_u64(4);
        let mut medium = SlottedCsma::new(8);
        for _ in 0..20 {
            let d = medium.deliver(&topo, &[NodeId::new(0)], &mut rng);
            assert_eq!(d.delivered, 9, "no contention, no loss");
        }
    }

    #[test]
    fn hidden_terminals_collide_at_common_receiver() {
        // 0 - 1 - 2: 0 and 2 cannot hear each other (hidden terminals),
        // so with a single slot their frames always collide at 1.
        let topo = Topology::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut medium = SlottedCsma::new(1);
        let d = medium.deliver(&topo, &[NodeId::new(0), NodeId::new(2)], &mut rng);
        assert!(d.heard[1].is_empty(), "both frames must collide at node 1");
    }

    #[test]
    fn half_duplex_blocks_reception_in_same_slot() {
        // Two linked nodes, one slot: both transmit in that slot, so
        // neither can hear the other.
        let topo = Topology::from_edges(2, &[(0, 1)]).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let mut medium = SlottedCsma::new(1).without_carrier_sense();
        let d = medium.deliver(&topo, &[NodeId::new(0), NodeId::new(1)], &mut rng);
        assert_eq!(d.delivered, 0);
    }

    #[test]
    fn carrier_sense_defers_audible_conflicts() {
        // With carrier sense and one slot, two linked senders cannot
        // both transmit: one defers, the other is received... but the
        // receiver is the deferring node itself, which stays silent and
        // therefore hears the winner.
        let topo = Topology::from_edges(2, &[(0, 1)]).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut medium = SlottedCsma::new(1);
        let d = medium.deliver(&topo, &[NodeId::new(0), NodeId::new(1)], &mut rng);
        assert_eq!(d.delivered, 1, "exactly the channel-race winner is heard");
    }

    #[test]
    fn more_slots_improve_tau() {
        let mut rng = StdRng::seed_from_u64(8);
        let topo = builders::uniform(80, 0.15, &mut rng);
        let t4 = measure_tau(&mut SlottedCsma::new(4), &topo, 30, &mut rng);
        let t64 = measure_tau(&mut SlottedCsma::new(64), &topo, 30, &mut rng);
        assert!(t64 > t4, "τ(64 slots)={t64} vs τ(4 slots)={t4}");
    }

    #[test]
    fn carrier_sense_beats_aloha_on_dense_graphs() {
        let mut rng = StdRng::seed_from_u64(10);
        let topo = builders::complete(20);
        let with = measure_tau(&mut SlottedCsma::new(16), &topo, 60, &mut rng);
        let without = measure_tau(
            &mut SlottedCsma::new(16).without_carrier_sense(),
            &topo,
            60,
            &mut rng,
        );
        assert!(
            with > without,
            "carrier sense should help: with={with} without={without}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_is_rejected() {
        let _ = SlottedCsma::new(0);
    }
}
