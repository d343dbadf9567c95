//! The shared activity-driven scheduling core behind **every** clock.
//!
//! The paper's protocols are *silent*: once the legitimate
//! configuration is reached, no shared variable changes any more. All
//! three drivers exploit that through the same machinery, extracted
//! here so every scheduling model pays the same near-zero stable-state
//! cost:
//!
//! * [`NodeSet`] — the dirty sets: one bit per table slot plus a member
//!   count ([`kernels`]); O(1) insert/membership, collection in storage
//!   order, nothing to pay for an empty set, allocation-free after
//!   construction;
//! * [`NodeTable`] — the columnar per-node hot state (protocol states,
//!   beacon snapshots, beacon and read epochs, per-edge reception
//!   epochs and the neighbor slots beside them) plus the scheduling
//!   sets, every column indexed by [`Slot`] in the table's
//!   [`StorageOrder`] (`order` module): by radio cell for a unit-disk
//!   deployment, by id otherwise. Ids stay at the boundary — protocol
//!   calls, stream keys, faults, media, outputs — and the state column
//!   is handed out in id order ([`StateColumn`]);
//! * `Env` (the private `env` module) — the one environment all three
//!   drivers run in: protocol, topology, node table, derived-stream
//!   bases ([`crate::split_rng`]), fault script, followup queue and
//!   dynamics, with the single implementation of fault dispatch,
//!   sever/restore, the observe loop and the wakeup rules every driver
//!   shares: what to invalidate when a fault mutates a node, when a
//!   topology delta rewires links, when a beacon is recomputed;
//! * [`gate`] — the one place a frame copy's fate at its receiver is
//!   decided, on every driver: stale, held (recorded, not received) or
//!   received;
//! * [`settle`] — the one place a gated visit's guard pass is skipped,
//!   on every driver: when the node's last pass changed nothing,
//!   nothing woke it since, and no frame of the visit was received;
//! * [`reserve`] — the one place a node is handed the sizing hint of
//!   its reception row, on every driver, before frames land at it;
//! * [`SlotClock`] — the continuous-time beacon schedule as a *pure
//!   function* of `(seed, node, slot index)`, so a node skipped while
//!   silent consumes no randomness and its future transmission times
//!   are independent of how long it slept;
//! * [`run_sharded`] — the allocation-free scoped-thread pass backing
//!   the per-node visits of both period-clocked drivers, the actor
//!   fabric's send phase and the traffic plane's batch forwarding:
//!   workers write into caller-owned, reused slots instead of
//!   returning fresh `Vec`s; [`ShardPolicy`] decides how many;
//! * `visit` (private module) — the per-node visit those two drivers
//!   share: the partition of the sorted candidates, the state column
//!   and the reception arena into disjoint in-place runs, the
//!   snapshot-and-compare change rule, and the scheduling of changed
//!   nodes in worker order;
//! * [`kernels`] — the word-at-a-time kernels and columnar layouts
//!   ([`NodeSet`], [`kernels::HeardTable`], the sorted join and epoch
//!   compares) the structures above are built on; their cost is the
//!   benchmark's `sim.kernels.*` layer metrics.
//!
//! The three clocks of the one driver ([`crate::Sim`]) — rounds,
//! continuous-time events, the actor fabric — are thin scheduling
//! disciplines over this core: they differ in their schedule and their
//! delivery loop — but dirtiness, epochs, frame gating, settled passes,
//! stream derivation, wakeup rules and the fault clock are identical.

mod env;
pub mod kernels;
mod order;
mod visit;

pub(crate) use env::{run_to, Corruptor, Env};
pub(crate) use order::{Slot, StateColumn, States, StorageOrder};
pub(crate) use visit::chunk;
use visit::VisitScratch;

use mwn_graph::{NodeId, Topology};
use mwn_radio::OccupancyView;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::rng::{derive_seed, split_rng, streams};
use crate::Protocol;

use kernels::HeardTable;
pub(crate) use kernels::NodeSet;

/// Beacon-epoch sentinel meaning "never received anything from this
/// neighbor" — forces the neighbor to (re-)broadcast at least once.
pub(crate) const NEVER: u32 = u32::MAX;

/// Epoch bump that never lands on the [`NEVER`] sentinel.
#[inline]
pub(crate) fn bump_epoch(e: u32) -> u32 {
    let next = e.wrapping_add(1);
    if next == NEVER {
        0
    } else {
        next
    }
}

/// Whether a receiver that holds epoch `held` of a sender's beacon
/// already holds everything [`Protocol::receive`] reads of it: `held`
/// is an epoch (not [`NEVER`]) on the arc `[read, epoch)` of the epoch
/// cycle, where `epoch` is the beacon's current epoch and `read` the
/// epoch of its last change in what [`Protocol::read_changed`]
/// compares. Every bump since `held` then left that part alone. The
/// cycle skips [`NEVER`], so distances are taken modulo `NEVER`.
#[inline]
pub(crate) fn read_part_held(held: u32, read: u32, epoch: u32) -> bool {
    // Bumps from `from` to `to` around the cycle.
    let bumps = |from: u32, to: u32| {
        if to >= from {
            to - from
        } else {
            to.wrapping_sub(from).wrapping_sub(1)
        }
    };
    held != NEVER && bumps(read, held) < bumps(read, epoch)
}

/// What a receiver does with one frame copy, as [`gate`] decides it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Fate {
    /// Gated, and the row already holds the frame's epoch: nothing
    /// happens.
    Stale,
    /// Gated, and the row held what a receive reads of the beacon: the
    /// epoch is recorded, no receive runs.
    Held,
    /// The epoch is recorded and the frame goes to [`Protocol::receive`].
    Receive,
}

/// The one place a frame copy's fate at its receiver is decided, on
/// every driver. `held` is the receiver's reception-row entry for the
/// sender; `[read, epoch]` are the read and beacon epochs the frame
/// carries. Eager scheduling receives every frame. Under gating a frame
/// of the epoch the row holds is [`Fate::Stale`]; any other frame's
/// epoch goes into the row, and the frame is [`Fate::Held`] when the
/// row held its read part ([`read_part_held`]). The silence contract
/// makes both skips state no-ops.
///
/// `reference` is the receiver's state, a pooled copy slot and the
/// receive a held frame skips: debug builds run that receive on a copy
/// and assert it changes nothing, naming receiver `r` and sender `s`.
#[inline]
pub(crate) fn gate<S: Clone + PartialEq>(
    gated: bool,
    held: &mut u32,
    [read, epoch]: [u32; 2],
    (r, s): (NodeId, NodeId),
    reference: (&S, &mut Option<S>, impl FnOnce(&mut S)),
) -> Fate {
    let was = *held;
    if gated && was == epoch {
        return Fate::Stale;
    }
    *held = epoch;
    if !gated || !read_part_held(was, read, epoch) {
        return Fate::Receive;
    }
    if cfg!(debug_assertions) {
        let (state, copy, receive) = reference;
        crate::protocol::snapshot(copy, state);
        if let Some(copy) = copy.as_mut() {
            receive(copy);
            debug_assert!(
                copy == state,
                "node {r} skipped a receive from {s} that changes its state \
                 (held epoch {was}, read epoch {read}, epoch {epoch})"
            );
        }
    }
    Fate::Held
}

/// The one place a gated visit's guard pass is skipped, on every
/// driver: the pass runs when node `p` is `dirty` — its last pass
/// changed its state, or something outside the protocol woke it since —
/// or when `received` says a receive of this visit may have changed it.
/// Otherwise the node's state is one its last pass left unchanged,
/// touched since by no receive (or, on the event clock, by receives
/// that reported no change), so by the silence contract the pass would
/// be a no-op that draws nothing. Returns whether the pass runs.
///
/// `reference` is `p`'s state, a pooled copy slot and the pass the rule
/// skips: debug builds run that pass on a copy and assert it changes
/// nothing, naming `p`.
#[inline]
pub(crate) fn settle<S: Clone + PartialEq>(
    dirty: bool,
    received: bool,
    p: NodeId,
    reference: (&S, &mut Option<S>, impl FnOnce(&mut S)),
) -> bool {
    if dirty || received {
        return true;
    }
    if cfg!(debug_assertions) {
        let (state, copy, pass) = reference;
        crate::protocol::snapshot(copy, state);
        if let Some(copy) = copy.as_mut() {
            pass(copy);
            debug_assert!(
                copy == state,
                "node {p} skipped a guard pass that changes its state"
            );
        }
    }
    false
}

/// The one place the engine hands a node its sizing hint
/// ([`Protocol::reserve`]), on every driver, right before frames may
/// land at it: its degree is the length of its reception row
/// (`neighbors`, the slots the row names), its two-hop count the sum of
/// those neighbors' row lengths (`degrees`, indexed by slot), summed
/// only if the protocol asks.
#[inline]
pub(crate) fn reserve<P: Protocol>(
    protocol: &P,
    state: &mut P::State,
    neighbors: &[Slot],
    degrees: &[u32],
) {
    let two_hop = || neighbors.iter().map(|q| degrees[q.index()] as usize).sum();
    protocol.reserve(state, neighbors.len(), two_hop);
}

/// The columnar node table: every per-node column the hot loops read
/// or write, plus the scheduling sets. Every column and set is indexed
/// by [`Slot`] in `order`; the ids are at the boundary.
pub(crate) struct NodeTable<P: Protocol> {
    /// Where each node's row sits, fixed at build.
    pub order: StorageOrder,
    /// Protocol state per node, published in id order on demand.
    pub states: StateColumn<P::State>,
    /// The beacon each node currently broadcasts (recomputed only when
    /// the node's state changed).
    pub beacons: Vec<P::Beacon>,
    /// Beacon version per node: bumped whenever the recomputed beacon
    /// differs ([`Protocol::beacon_changed`]) from the previous one.
    pub epoch: Vec<u32>,
    /// Per node, the epoch at which what [`Protocol::receive`] reads of
    /// its beacon last changed ([`Protocol::read_changed`]); a forged
    /// beacon always counts as a change. `read_epoch[p] == epoch[p]`
    /// unless `p`'s last bumps changed only parts no receive reads; a
    /// frame carries both, and [`gate`] records it without a receive at
    /// a gated receiver whose row holds an epoch in `[read_epoch, epoch)`.
    pub read_epoch: Vec<u32>,
    /// `heard.get(r, k)`: the epoch of the `k`-th neighbor (in id
    /// order) of the node at slot `r` that it last incorporated
    /// ([`NEVER`] if none), and `heard.slots(r)[k]` that neighbor's
    /// slot — the table's adjacency. Realigned with the topology on
    /// every adjacency change ([`NodeTable::reset_heard_row`],
    /// [`NodeTable::mark_all`]); one contiguous CSR arena rather than
    /// a `Vec` per node (see `kernels::HeardTable`).
    pub heard: HeardTable,
    /// Nodes whose beacon must be recomputed next step (state changed).
    pub beacon_stale: NodeSet,
    /// Nodes whose guards may still move their state: a pass that
    /// changed the state, or any wake ([`NodeTable::mark_node`],
    /// [`NodeTable::mark_all`]), sets the bit, and a pass that changed
    /// nothing leaves it clear. A clear bit means the state equals,
    /// under `PartialEq`, one that `update` has already left unchanged
    /// — the `dirty` input of [`settle`]. The period clocks drain the
    /// set into a period's candidates, after adding the `hearers`.
    pub update_dirty: NodeSet,
    /// The period clocks' candidates that nothing but a frame
    /// scheduled — every neighbor of a sender, whatever it heard
    /// (`Env::mark_hearers`, the one hearer rule) — recorded as they
    /// join `update_dirty` and cleared when the period's visits are
    /// over.
    pub hearers: NodeSet,
    /// Nodes with at least one neighbor that has not yet received their
    /// current beacon epoch. Its complement is the retired population:
    /// under a gated contention medium a node that is not pending still
    /// occupies its slot statistically ([`Retired`]), so this set is
    /// the one record of who is silent.
    pub send_pending: NodeSet,
    /// The one change set, on every clock: the nodes whose state
    /// changed since the last step ended — mutated outside the protocol
    /// ([`NodeTable::mark_node`]: faults, `link_down`, manual
    /// corruption) or seen to change by the clock's change rule. Every
    /// step ends by draining it (`Env::end_step`).
    pub changes: NodeSet,
    /// Nodes whose state changed during the last executed step, by
    /// slot, in storage order — what the observe loop projects.
    pub changed: Vec<Slot>,
    /// The same nodes by id, ascending — what a driver's
    /// `last_changed()` hands out.
    pub changed_ids: Vec<NodeId>,
    /// Nodes currently broadcasting a *forged* beacon
    /// ([`Fault::ByzantineBeacon`](crate::Fault::ByzantineBeacon)): the
    /// lie sits in their `beacons` column and
    /// `Env::refresh_beacon` refuses to overwrite it until
    /// the lie is cleared. Almost always empty, so the hot-path guard
    /// is a single `is_empty` test.
    pub lies: Vec<NodeId>,
    /// Scratch: pre-visit snapshot of the node being processed — the
    /// slot [`crate::protocol::snapshot`] fills for the provided
    /// `*_changed` bodies on the event clock, and where debug builds
    /// run what [`gate`] and [`settle`] skip there (the period-clocked
    /// drivers use their workers' own buffers).
    pub scratch_state: Option<P::State>,
    /// Scratch: pooled beacon buffer for `Env::refresh_beacon`.
    /// Refreshing computes into this buffer ([`Protocol::beacon_into`])
    /// and swaps it with the node's column slot, so a protocol that
    /// reuses the buffer's capacity (e.g. `DensityCluster`'s `view`
    /// vec) refreshes without allocating.
    pub scratch_beacon: Option<P::Beacon>,
}

impl<P: Protocol> NodeTable<P> {
    /// The table of `topo` in `order`: every node's state made by
    /// `init` where it is stored and its beacon computed beside it, so
    /// nothing is built in id order and moved.
    pub fn new(
        protocol: &P,
        topo: &Topology,
        order: StorageOrder,
        init: impl FnMut(NodeId) -> P::State,
    ) -> Self {
        let n = topo.len();
        let states: Vec<P::State> = order.ids().iter().copied().map(init).collect();
        let beacons = order.ids().iter().zip(&states);
        let beacons = beacons.map(|(&p, s)| protocol.beacon(p, s)).collect();
        let heard = reception_arena(&order, topo);
        let mut table = NodeTable {
            beacons,
            states: StateColumn::new(states),
            order,
            epoch: vec![0; n],
            read_epoch: vec![0; n],
            heard,
            beacon_stale: NodeSet::new(n),
            update_dirty: NodeSet::new(n),
            hearers: NodeSet::new(n),
            send_pending: NodeSet::new(n),
            changes: NodeSet::new(n),
            changed: Vec::new(),
            changed_ids: Vec::new(),
            lies: Vec::new(),
            scratch_state: None,
            scratch_beacon: None,
        };
        // Cold start: everything is dirty — nobody has heard anyone.
        table.update_dirty.insert_all();
        table.send_pending.insert_all();
        table
    }

    /// The state of node `p`, to write.
    #[inline]
    pub fn state_mut(&mut self, p: NodeId) -> &mut P::State {
        let s = self.order.slot(p);
        &mut self.states.slots_mut(&self.order)[s.index()]
    }

    /// Every node's state, by id — published if it is not yet.
    pub fn states_by_id(&self) -> &[P::State] {
        self.states.by_id(&self.order)
    }

    /// Marks `p` for rescheduling: its state may have changed outside
    /// the regular pass (fault, manual mutation, link event).
    pub fn mark_node(&mut self, p: Slot) {
        self.update_dirty.insert(p);
        self.beacon_stale.insert(p);
        self.changes.insert(p);
    }

    /// Conservative full invalidation, for the one change no topology
    /// delta describes: re-enabling gating after an eager stretch
    /// (`Env::set_eager`).
    pub fn mark_all(&mut self, topo: &Topology) {
        self.update_dirty.insert_all();
        self.beacon_stale.insert_all();
        self.send_pending.insert_all();
        let (order, rows) = (&self.order, topo.len());
        let row = |r: usize| neighbor_slots(order, topo, order.ids()[r]);
        self.heard.reset_all(rows, row);
    }

    /// Re-aligns `r`'s reception row after its adjacency list changed,
    /// conservatively forgetting what it had heard: every current
    /// neighbor is forced to re-broadcast.
    pub fn reset_heard_row(&mut self, r: NodeId, topo: &Topology) {
        let row = neighbor_slots(&self.order, topo, r);
        self.heard.reset_row(self.order.slot(r).index(), row);
        for &q in topo.neighbors(r) {
            self.send_pending.insert(self.order.slot(q));
        }
        // r's own beacon must reach any new neighbor too.
        self.send_pending.insert(self.order.slot(r));
    }
}

/// The retired population as a gated contention medium reads it: a
/// node occupies its slot statistically exactly when it is not
/// send-pending — it has retired, every neighbor holding its beacon,
/// and its transmissions now only shape the odds of the active frames.
/// A view of the pending set, not a copy of it.
pub(crate) struct Retired<'a> {
    pub pending: &'a NodeSet,
    pub order: &'a StorageOrder,
}

impl OccupancyView for Retired<'_> {
    #[inline]
    fn is_occupied(&self, q: NodeId) -> bool {
        !self.pending.contains(self.order.slot(q))
    }
}

/// Whether `row`, the neighbor slots of node `p`'s reception row, names
/// exactly `p`'s adjacency in `topo`, in id order — the invariant every
/// visit reads its neighbors' columns through, asserted there in debug
/// builds.
pub(crate) fn row_is_adjacency(
    order: &StorageOrder,
    row: &[Slot],
    topo: &Topology,
    p: NodeId,
) -> bool {
    let named = row.iter().map(|&q| order.id(q));
    named.eq(topo.neighbors(p).iter().copied())
}

/// The reception arena of `topo` in `order`: laid out in storage order,
/// its rows sized and named in id order — the adjacency is read as it
/// sits, and only the writes land out of order.
fn reception_arena(order: &StorageOrder, topo: &Topology) -> HeardTable {
    let mut degrees = vec![0; topo.len()];
    for p in topo.nodes() {
        degrees[order.slot(p).index()] = topo.degree(p) as u32;
    }
    let mut heard = HeardTable::with_degrees(degrees);
    for p in topo.nodes() {
        heard.write_row(order.slot(p).index(), neighbor_slots(order, topo, p));
    }
    heard
}

/// The slots of `p`'s neighbors in `topo`, in neighbor-id order: the
/// row of the table's adjacency for `p`.
fn neighbor_slots<'a>(
    order: &'a StorageOrder,
    topo: &'a Topology,
    p: NodeId,
) -> impl ExactSizeIterator<Item = Slot> + 'a {
    topo.neighbors(p).iter().map(|&q| order.slot(q))
}

/// The continuous-time beacon schedule as a pure function of
/// `(seed, node, slot index)`.
///
/// Node `p`'s `k`-th beacon opportunity ("slot") fires at
///
/// ```text
/// slot_time(p, k) = k + phase_p + jitter · (u_{p,k} − ½)
/// ```
///
/// with `phase_p ~ U(0, 1)` a fixed per-node desynchronization offset
/// and `u_{p,k} ~ U(0, 1)` a fresh per-slot draw — Herman & Tixeuil's
/// randomized timing discipline, reparameterized so the whole schedule
/// is *stateless*: consecutive slots are `1 ± jitter` apart (mean
/// exactly one beacon period, the event clock's unit of time), and the
/// time of any slot can be computed without replaying the slots before
/// it. That statelessness is what
/// lets the event driver skip a silent node entirely and still wake it
/// on exactly the schedule its always-transmitting twin would follow.
pub(crate) struct SlotClock {
    jitter: f64,
    phase: Vec<f64>,
    jitter_base: u64,
}

impl SlotClock {
    /// Derives the schedule for `n` nodes from the master seed.
    pub fn new(seed: u64, jitter: f64, n: usize) -> Self {
        let phase_base = derive_seed(seed, streams::PHASE);
        let phase = (0..n as u64)
            .map(|p| StdRng::seed_from_u64(derive_seed(phase_base, p)).random_range(0.0..1.0))
            .collect();
        SlotClock {
            jitter,
            phase,
            jitter_base: derive_seed(seed, streams::TIMING),
        }
    }

    /// The absolute time of node `p`'s `k`-th slot.
    pub fn slot_time(&self, p: NodeId, k: u64) -> f64 {
        let u: f64 = split_rng(self.jitter_base, k, u64::from(p.value())).random_range(0.0..1.0);
        k as f64 + self.phase[p.index()] + self.jitter * (u - 0.5)
    }

    /// The first slot of `p` at or after time `from`:
    /// `(slot index, slot time)`.
    ///
    /// Slot times are strictly increasing in `k` (gaps are at least
    /// `1 − jitter > 0`), so a short forward scan from the
    /// arithmetic lower bound finds it in O(1).
    pub fn next_at(&self, p: NodeId, from: f64) -> (u64, f64) {
        let x = (from - self.phase[p.index()] - self.jitter).floor();
        let mut k = if x > 0.0 { x as u64 } else { 0 };
        loop {
            let t = self.slot_time(p, k);
            if t >= from {
                return (k, t);
            }
            k += 1;
        }
    }
}

/// Runs `job(i, &mut scratch[i])` for every scratch slot, one scoped
/// worker thread per slot — the allocation-free pass for callers that
/// own reusable per-task arenas.
///
/// Workers write directly into the caller's pre-sized scratch slots:
/// in steady state the only cost beyond the job itself is thread
/// spawn, and with a single slot the job runs inline with no cost at
/// all. Slot index order is the task order — the schedule cannot leak
/// into the results, because each worker owns exactly one slot.
pub fn run_sharded<S, F>(scratch: &mut [S], job: F)
where
    S: Send,
    F: Fn(usize, &mut S) + Sync,
{
    if scratch.len() <= 1 {
        for (i, slot) in scratch.iter_mut().enumerate() {
            job(i, slot);
        }
        return;
    }
    std::thread::scope(|scope| {
        for (i, slot) in scratch.iter_mut().enumerate() {
            let job = &job;
            scope.spawn(move || job(i, slot));
        }
    });
}

/// How many shards a [`run_sharded`] pass is cut into — the one policy
/// behind [`crate::Network::set_shards`] and the traffic plane's knob of
/// the same name. Shard counts only move wall-clock time: every sharded
/// pass is byte-identical to its one-shard run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardPolicy {
    /// `Some(k)`: exactly `k` shards, however small the pass.
    forced: Option<usize>,
    /// `available_parallelism`, asked once — std re-reads the cgroup
    /// files on every call, which has no place in a step loop.
    cores: usize,
}

/// Below this much work a pass is not worth the scoped-thread round
/// trip; the automatic policy stays at one shard.
const AUTO_SHARD_MIN_LOAD: usize = 1024;

impl ShardPolicy {
    /// The policy a fresh driver starts with: the shard count the
    /// `MWN_FORCE_SHARDS` environment variable forces (the CI
    /// forced-shards leg sets 4), otherwise automatic.
    pub fn from_env() -> Self {
        let forced = std::env::var("MWN_FORCE_SHARDS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok());
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        ShardPolicy { forced, cores }
    }

    /// `Some(k)` forces exactly `k` shards for every pass; `None`
    /// restores the automatic choice — one shard per core once a pass
    /// is large enough to amortize thread spawn.
    pub fn set(&mut self, shards: Option<usize>) {
        self.forced = shards;
    }

    /// The shard count for a pass of `load` units of work (active
    /// nodes, packets in flight) over `items` splittable items: never
    /// more shards than items, never fewer than one.
    pub fn count(&self, load: usize, items: usize) -> usize {
        let wanted = match self.forced {
            Some(k) => k,
            None if load < AUTO_SHARD_MIN_LOAD => 1,
            None => self.cores,
        };
        wanted.clamp(1, items.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_set_insert_remove_collect() {
        let mut s = NodeSet::new(5);
        s.insert(Slot::new(3));
        s.insert(Slot::new(1));
        s.insert(Slot::new(3));
        assert!(s.contains(Slot::new(3)));
        s.remove(Slot::new(3));
        assert!(!s.contains(Slot::new(3)));
        let mut out = Vec::new();
        s.drain_sorted_into(&mut out);
        assert_eq!(out, vec![Slot::new(1)]);
        assert!(!s.contains(Slot::new(1)));
    }

    #[test]
    fn node_set_bulk_fill_and_dense_drain() {
        let mut s = NodeSet::new(133);
        s.insert_all();
        assert!(s.contains(Slot::new(0)) && s.contains(Slot::new(132)));
        s.remove(Slot::new(7));
        s.insert(Slot::new(7));
        s.remove(Slot::new(70));
        let mut out = Vec::new();
        s.drain_sorted_into(&mut out);
        assert_eq!(out.len(), 132, "all but the removed node");
        assert!(out.windows(2).all(|w| w[0] < w[1]), "sorted, deduplicated");
        assert!(!out.contains(&Slot::new(70)));
        assert!(!s.contains(Slot::new(0)), "drain empties the set");
        // The set keeps working after a drain.
        s.insert(Slot::new(5));
        s.collect_sorted_into(&mut out);
        assert_eq!(out, vec![Slot::new(5)]);
    }

    #[test]
    fn node_set_equals_a_btree_set_and_counts_its_members() {
        use std::collections::BTreeSet;
        let ids = |set: &BTreeSet<u32>| set.iter().map(|&i| Slot::new(i)).collect::<Vec<_>>();
        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.random_range(1..=150usize);
            let mut s = NodeSet::new(n);
            let mut model = BTreeSet::new();
            let mut out = Vec::new();
            for op in 0..600 {
                let p = rng.random_range(0..n as u32);
                match rng.random_range(0..100) {
                    0..=39 => assert_eq!(s.insert(Slot::new(p)), model.insert(p)),
                    40..=74 => {
                        s.remove(Slot::new(p));
                        model.remove(&p);
                    }
                    75..=76 => {
                        s.insert_all();
                        model.extend(0..n as u32);
                    }
                    77..=84 => {
                        s.collect_sorted_into(&mut out);
                        assert_eq!(out, ids(&model), "seed {seed}, op {op}");
                    }
                    85..=92 => {
                        s.drain_sorted_into(&mut out);
                        assert_eq!(out, ids(&model), "seed {seed}, op {op}");
                        model.clear();
                    }
                    93..=94 => {
                        s.clear();
                        model.clear();
                    }
                    _ => {
                        // A node the event clock settles and wakes over
                        // and over, with nothing collecting in between.
                        for _ in 0..10 * n {
                            s.remove(Slot::new(p));
                            s.insert(Slot::new(p));
                        }
                        model.insert(p);
                    }
                }
                assert_eq!(s.contains(Slot::new(p)), model.contains(&p));
                assert_eq!(s.len(), model.len(), "seed {seed}, op {op}");
            }
            s.collect_sorted_into(&mut out);
            assert_eq!(out, ids(&model), "seed {seed}, final collect");
        }
    }

    #[test]
    fn node_set_clear_after_bulk_fill() {
        let mut s = NodeSet::new(90);
        s.insert_all();
        s.clear();
        let mut out = Vec::new();
        s.collect_sorted_into(&mut out);
        assert!(out.is_empty());
        assert!(!s.contains(Slot::new(89)));
    }

    #[test]
    fn bump_epoch_skips_the_sentinel() {
        assert_eq!(bump_epoch(0), 1);
        assert_eq!(bump_epoch(NEVER - 1), 0);
    }

    /// Runs [`gate`] on a row holding `held` against a frame of
    /// `[read, epoch]`, with a receive that changes nothing; returns
    /// the fate and what the row holds afterwards.
    fn gate_row(gated: bool, held: u32, frame: [u32; 2]) -> (Fate, u32) {
        let mut row = held;
        let ids = (NodeId::new(0), NodeId::new(1));
        let fate = gate(gated, &mut row, frame, ids, (&7u8, &mut None, |_| {}));
        (fate, row)
    }

    #[test]
    fn read_part_held_is_the_arc_from_the_read_epoch_to_the_epoch() {
        // Every epoch `held` reached by `k` bumps from `read`, against a
        // beacon `n` bumps from `read`: held iff `k < n`.
        for read in [0, 1, 7, NEVER - 3, NEVER - 2, NEVER - 1] {
            for n in 0..6u32 {
                let mut epochs = vec![read];
                for _ in 0..n + 3 {
                    epochs.push(bump_epoch(*epochs.last().expect("seeded")));
                }
                let epoch = epochs[n as usize];
                for (k, &held) in epochs.iter().enumerate() {
                    let want = (k as u32) < n;
                    let got = read_part_held(held, read, epoch);
                    let at = format!("read {read}, {n} bumps, held after {k}");
                    assert_eq!(got, want, "{at}");
                    // The gate over the same frame: eager always
                    // receives; gated, the row's own epoch is stale, an
                    // epoch on the arc is held, the rest are received.
                    // Every fate but stale writes the epoch into the
                    // row, and a stale row already holds it.
                    let gated = if held == epoch {
                        Fate::Stale
                    } else if want {
                        Fate::Held
                    } else {
                        Fate::Receive
                    };
                    let frame = [read, epoch];
                    assert_eq!(gate_row(false, held, frame), (Fate::Receive, epoch), "{at}");
                    assert_eq!(gate_row(true, held, frame), (gated, epoch), "{at}");
                }
                // A row that holds nothing never holds the read part.
                assert!(!read_part_held(NEVER, read, epoch));
                for gated in [false, true] {
                    let fate = gate_row(gated, NEVER, [read, epoch]);
                    assert_eq!(fate, (Fate::Receive, epoch));
                }
            }
            // Nothing is held when the last bump changed the read part.
            assert!(!read_part_held(read, read, read));
        }
        // Arcs across the wrap: NEVER − 2 → NEVER − 1 → 0 → 1.
        let (read, epoch) = (NEVER - 2, 1);
        for held in [NEVER - 2, NEVER - 1, 0] {
            assert!(read_part_held(held, read, epoch), "{held}");
        }
        for held in [1, 2, NEVER - 3, NEVER] {
            assert!(!read_part_held(held, read, epoch), "{held}");
        }
    }

    /// Asks [`settle`] about node 0 in state 7, whose pass adds `step`.
    fn settle_with(dirty: bool, received: bool, step: u8) -> bool {
        let pass = |copy: &mut u8| *copy += step;
        settle(dirty, received, NodeId::new(0), (&7u8, &mut None, pass))
    }

    #[test]
    fn settle_runs_the_pass_of_a_dirty_or_receiving_node_and_skips_the_rest() {
        // Truth table: a pass runs unless the node is neither dirty nor
        // received anything, whatever the pass would do.
        for step in [0, 1] {
            assert!(settle_with(true, false, step), "dirty → run");
            assert!(settle_with(false, true, step), "received → run");
            assert!(settle_with(true, true, step), "both → run");
        }
        assert!(!settle_with(false, false, 0), "neither → skip");
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "node n0 skipped a guard pass that changes its state")
    )]
    fn settle_checks_the_pass_it_skips_in_debug_builds() {
        // A skipped pass that would move the state: release builds take
        // the rule's word for it, debug builds run it on a copy.
        assert!(!settle_with(false, false, 1));
    }

    #[test]
    fn slot_clock_is_monotone_and_stateless() {
        let clock = SlotClock::new(7, 0.5, 4);
        let p = NodeId::new(2);
        let mut prev = f64::NEG_INFINITY;
        for k in 0..200 {
            let t = clock.slot_time(p, k);
            assert!(t > prev, "slot {k} not after slot {}", k - 1);
            // Stateless: recomputing any slot gives the same time.
            assert_eq!(t, clock.slot_time(p, k));
            prev = t;
        }
        // Mean spacing is the period.
        let span = clock.slot_time(p, 200) - clock.slot_time(p, 0);
        assert!(
            (span / 200.0 - 1.0).abs() < 0.05,
            "mean gap {}",
            span / 200.0
        );
    }

    #[test]
    fn slot_clock_next_at_finds_the_first_slot() {
        let clock = SlotClock::new(3, 0.8, 3);
        let p = NodeId::new(1);
        for probe in [0.0, 0.1, 5.0, 17.3, 400.0] {
            let (k, t) = clock.next_at(p, probe);
            assert!(t >= probe, "slot at {t} before probe {probe}");
            if k > 0 {
                assert!(
                    clock.slot_time(p, k - 1) < probe,
                    "slot {} already satisfied probe {probe}",
                    k - 1
                );
            }
        }
    }

    #[test]
    fn shard_policy_clamps_forced_counts_and_gates_the_automatic_one() {
        let mut policy = ShardPolicy {
            forced: None,
            cores: 8,
        };
        assert_eq!(policy.count(1023, 5000), 1, "too little work to spawn for");
        assert_eq!(policy.count(1024, 5000), 8);
        assert_eq!(policy.count(4096, 3), 3, "never more shards than items");
        policy.set(Some(0));
        assert_eq!(policy.count(0, 0), 1, "never fewer than one");
        policy.set(Some(4));
        assert_eq!(policy.count(2, 100), 4, "forced whatever the load");
        assert_eq!(policy.count(2, 2), 2);
        policy.set(None);
        assert_eq!(policy.count(2, 100), 1);
    }

    #[test]
    fn sharded_arenas_fill_in_slot_order() {
        for slots in [0usize, 1, 3, 7] {
            let mut scratch = vec![0usize; slots];
            run_sharded(&mut scratch, |i, slot| *slot = i * i + 1);
            let expect: Vec<usize> = (0..slots).map(|i| i * i + 1).collect();
            assert_eq!(scratch, expect, "{slots} slots");
        }
    }
}
