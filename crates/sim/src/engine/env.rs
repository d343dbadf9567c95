//! The one **environment** all three drivers run in, and the single
//! place a fault is applied.
//!
//! [`Env`] owns everything the round, event and actor drivers share —
//! protocol, [`Topology`], the columnar [`NodeTable`], the bases of the
//! derived streams, the fault-site stream, the scripted-fault cursor,
//! the `(due, seq)` followup queue, the corruption hook, topology
//! dynamics — and holds the only implementation of the wakeup rules
//! (what to invalidate when a fault mutates a node, when a topology
//! delta rewires links, when a beacon is recomputed), fault dispatch,
//! sever/restore, followup firing and the dynamics tick. For a silent
//! protocol this is the only code that ever wakes a stabilized network.
//!
//! Owning the stream bases is what keeps every clock byte-compatible
//! with its own eager reference: every random draw is (re-)derived from
//! `(base, tick, node)` at the point of use, so a node skipped by
//! activity gating consumes no randomness.
//!
//! The driver ([`crate::Sim`]) owns one, beside its clock. The clock
//! tells the environment what logical step it is, lets it run a batch,
//! and then reacts to what the batch left behind: [`Env::env_changed`]
//! (the stop conditions read it) and the table's `forced_changed` set
//! of touched nodes (the event clock folds it into its change set and
//! re-arms the woken senders, [`crate::Clock::sync`]).

use mwn_graph::{NodeId, Point2, Topology, TopologyDelta};
use mwn_radio::ContentionStreams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{bump_epoch, NodeTable, Slot, States, StorageOrder, VisitScratch};
use crate::faults::{Fault, Lie};
use crate::rng::{derive_seed, split_rng, streams};
use crate::scenario::TopologyDynamics;
use crate::stop::{Obs, RunReport, StopWhen};
use crate::{Activity, Clock, Corruptible, Observable, Protocol, Sim, SimError};

/// The boxed corruption hook installed by [`crate::Scenario::faults`]:
/// it captures the [`Corruptible`] capability so scripted faults can
/// fire inside a driver's step without bounding every driver method.
pub(crate) type Corruptor<P> =
    Box<dyn Fn(&P, NodeId, &mut <P as Protocol>::State, &mut StdRng) + Send + Sync>;

/// A timed second phase of a fault, executed at a later logical-step
/// boundary — before that boundary's scripted faults, which fire
/// before its sends.
enum Followup<P: Protocol> {
    /// End of a [`Fault::CrashRecover`] darkness: restore the stale
    /// pre-crash state and release the node's recorded links.
    Resurrect {
        node: NodeId,
        state: P::State,
        edges: Vec<(NodeId, NodeId)>,
    },
    /// End of a [`Fault::PartitionHeal`] / [`Fault::Jam`]: release the
    /// recorded severed edges.
    RestoreEdges { edges: Vec<(NodeId, NodeId)> },
    /// End of a [`Fault::ByzantineBeacon`] window: drop the lie and
    /// wake the node so the truth re-propagates.
    ClearLie { node: NodeId },
}

/// Scrambles `state` through the installed corruption hook.
fn scramble<P: Protocol>(
    corruptor: &Option<Corruptor<P>>,
    protocol: &P,
    p: NodeId,
    state: &mut P::State,
    rng: &mut StdRng,
) {
    match corruptor {
        Some(corrupt) => corrupt(protocol, p, state, rng),
        None => debug_assert!(
            false,
            "a corruption fired without its hook: Scenario::faults and the \
             Corruptible entry points install it before any fault can fire"
        ),
    }
}

/// `(u, v)` in the `u < v` orientation every edge list uses.
fn ordered(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
    (u.min(v), u.max(v))
}

/// See the module docs.
pub(crate) struct Env<P: Protocol> {
    pub protocol: P,
    pub topo: Topology,
    /// The columnar hot state and the dirty sets.
    pub table: NodeTable<P>,
    /// Base of the per-(tick, node) [`Protocol::update`] streams: the
    /// stream of node `p` at scheduler tick `tick` (the period count
    /// on the period clocks, the event-time bit pattern on the
    /// continuous clock) is `split_rng(update_base, tick, p)`.
    pub update_base: u64,
    /// Base of the per-(tick, sender) frame-fate streams.
    pub medium_base: u64,
    /// Base of the per-corruption-event state-scrambling streams.
    corrupt_base: u64,
    /// Bases of the gated-contention per-(tick, sender) and
    /// per-(tick, receiver, sender) frame-copy streams.
    contend_bases: (u64, u64),
    /// Corruption events so far — each gets its own derived stream.
    corrupt_events: u64,
    /// The topology changed or a fault fired since the driver last
    /// cleared the flag: memoized predicate verdicts over
    /// `(topology, states)` are stale.
    pub env_changed: bool,
    /// The user pinned eager scheduling ([`Env::set_eager`]).
    force_eager: bool,
    /// Gated periods with senders that lost no frame copy, so
    /// [`Env::retire_caught_up`] retired them without asking.
    pub lossless_periods: u64,
    /// Beacon broadcasts so far, counted by the driver's clock.
    pub messages: u64,
    /// Sequential stream for fault-site selection, so fault injection
    /// never perturbs timing or frame-fate randomness.
    fault_rng: StdRng,
    /// Scenario-scripted faults in logical-step order.
    scripted: Vec<(u64, Fault)>,
    next_scripted: usize,
    /// Pending followups as `(due, seq, followup)`, sorted descending
    /// so the earliest `(due, seq)` pops off the end.
    followups: Vec<(u64, u64, Followup<P>)>,
    followup_seq: u64,
    /// How many active faults hold each severed edge down, sorted by
    /// edge and searched by binary search. An edge comes back only when
    /// the last of them ends. Ordered, so the edge lists derived from
    /// it are reproducible.
    held: Vec<((NodeId, NodeId), u32)>,
    corruptor: Option<Corruptor<P>>,
    dynamics: Option<Box<dyn TopologyDynamics + Send>>,
    scratch_nodes: Vec<NodeId>,
    scratch_slots: Vec<Slot>,
    /// Per-worker buffers of [`Env::visit`], one per worker ever used.
    pub(super) visit_pool: Vec<VisitScratch<P>>,
}

impl<P: Protocol + std::fmt::Debug> std::fmt::Debug for Env<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Env")
            .field("protocol", &self.protocol)
            .field("topo", &self.topo)
            .field("states", &self.table.states_by_id())
            .field("scripted", &self.scripted.len())
            .field("dynamics", &self.dynamics.is_some())
            .finish_non_exhaustive()
    }
}

impl<P: Protocol> Env<P> {
    /// Cold-starts the environment over `topo`: per-node derived init
    /// streams, everything dirty. `fault_stream` is the owning driver's
    /// [`crate::rng::streams`] tag for fault-site selection. The node
    /// table takes the topology's storage order, and every state is
    /// initialized where it is stored.
    pub fn new(protocol: P, topo: Topology, seed: u64, fault_stream: u64) -> Self {
        let init_base = derive_seed(seed, streams::INIT);
        let init = |p: NodeId| {
            let mut rng = StdRng::seed_from_u64(derive_seed(init_base, u64::from(p.value())));
            protocol.init(p, &mut rng)
        };
        let order = StorageOrder::of(&topo);
        Env {
            table: NodeTable::new(&protocol, &topo, order, init),
            update_base: derive_seed(seed, streams::UPDATE),
            medium_base: derive_seed(seed, streams::MEDIUM),
            corrupt_base: derive_seed(seed, streams::CORRUPT),
            contend_bases: (
                derive_seed(seed, streams::CONTEND_SENDER),
                derive_seed(seed, streams::CONTEND_COPY),
            ),
            corrupt_events: 0,
            protocol,
            topo,
            env_changed: false,
            force_eager: false,
            lossless_periods: 0,
            messages: 0,
            fault_rng: StdRng::seed_from_u64(derive_seed(seed, fault_stream)),
            scripted: Vec::new(),
            next_scripted: 0,
            followups: Vec::new(),
            followup_seq: 0,
            held: Vec::new(),
            corruptor: None,
            dynamics: None,
            scratch_nodes: Vec::new(),
            scratch_slots: Vec::new(),
            visit_pool: Vec::new(),
        }
    }

    /// Installs what [`crate::Scenario`] scripted: the sorted,
    /// validated fault script with its corruption hook, and the
    /// topology dynamics.
    pub fn install(
        &mut self,
        scripted: Vec<(u64, Fault)>,
        corruptor: Option<Corruptor<P>>,
        dynamics: Option<Box<dyn TopologyDynamics + Send>>,
    ) {
        self.scripted = scripted;
        self.next_scripted = 0;
        self.corruptor = corruptor;
        self.dynamics = dynamics;
    }

    /// `true` when silent nodes may be muted as far as the protocol
    /// and the user are concerned: the [`Activity::Gated`] contract and
    /// no eager pin. Whether the medium permits it is the driver's call.
    pub fn gated(&self) -> bool {
        !self.force_eager && self.protocol.activity() == Activity::Gated
    }

    /// Pins eager scheduling (`true`) or restores the automatic choice
    /// (`false`).
    pub fn set_eager(&mut self, eager: bool) {
        if self.force_eager && !eager {
            // Re-enabling gating after an eager stretch: the dirty
            // bookkeeping was degenerate, resynchronize conservatively.
            self.table.mark_all(&self.topo);
        }
        self.force_eager = eager;
    }

    /// Detaches the topology dynamics; returns whether any were
    /// attached.
    pub fn stop_dynamics(&mut self) -> bool {
        self.dynamics.take().is_some()
    }

    pub fn has_dynamics(&self) -> bool {
        self.dynamics.is_some()
    }

    /// The gated-contention stream bundle for one delivery tick.
    #[inline]
    pub fn contention_streams(&self, tick: u64) -> ContentionStreams {
        ContentionStreams::new(self.contend_bases.0, self.contend_bases.1, tick)
    }

    /// The frame-fate stream of sender `p` at scheduler tick `tick`.
    #[inline]
    pub fn medium_rng(&self, tick: u64, p: NodeId) -> StdRng {
        split_rng(self.medium_base, tick, u64::from(p.value()))
    }

    /// A fresh stream for the next corruption event against `p`:
    /// however much randomness the corruptor consumes, no node's other
    /// streams move.
    pub fn corrupt_rng(&mut self, p: NodeId) -> StdRng {
        let event = self.corrupt_events;
        self.corrupt_events += 1;
        split_rng(self.corrupt_base, event, u64::from(p.value()))
    }

    /// Rescheduling for an externally mutated node: besides waking it,
    /// its reception bookkeeping must be forgotten — a corrupted cache
    /// can no longer claim to have incorporated anyone's beacon, so its
    /// neighbors are forced to re-broadcast (exactly what an eager
    /// engine's unconditional beacons would have repaired implicitly).
    pub fn wake_mutated(&mut self, p: NodeId) {
        self.table.mark_node(self.table.order.slot(p));
        self.table.reset_heard_row(p, &self.topo);
    }

    /// Every node's state, by id — published if it is not yet.
    pub fn states(&self) -> &[P::State] {
        self.table.states_by_id()
    }

    /// Recomputes the beacon of the node at slot `p` from its current
    /// state; if the content changed ([`Protocol::beacon_changed`]) the
    /// epoch is bumped and the node becomes send-pending (waking it
    /// from statistical occupancy if it had retired), and if what a
    /// receive reads changed too ([`Protocol::read_changed`]) the new
    /// epoch is also its read epoch. Returns whether the beacon changed.
    pub fn refresh_beacon(&mut self, p: Slot) -> bool {
        let table = &mut self.table;
        let (i, id) = (p.index(), table.order.id(p));
        // A lying node's column holds its forged beacon; refreshing
        // must not launder it back to the truth until the lie clears.
        if !table.lies.is_empty() && table.lies.contains(&id) {
            return false;
        }
        // The pooled scratch buffer circulates: beacon_into overwrites
        // it in place, then it swaps with the node's column slot, so
        // refreshing never constructs a beacon from nothing once the
        // buffer capacities have reached their high-water marks.
        let scratch = table
            .scratch_beacon
            .get_or_insert_with(|| table.beacons[i].clone());
        let states = table.states.slots_mut(&table.order);
        self.protocol.beacon_into(id, &states[i], scratch);
        let old = &table.beacons[i];
        let changed = self.protocol.beacon_changed(old, scratch);
        if changed {
            let epoch = bump_epoch(table.epoch[i]);
            table.epoch[i] = epoch;
            if self.protocol.read_changed(old, scratch) {
                table.read_epoch[i] = epoch;
            }
            table.send_pending.insert(p);
            if let Some(occ) = &mut table.occupancy {
                occ.release(id, &self.topo);
            }
        }
        std::mem::swap(&mut table.beacons[i], scratch);
        changed
    }

    /// The event clock's refresh rule, the one [`Env::release_slots`]
    /// applies on the period clocks: the beacon of the node at slot `p`
    /// is rebuilt ([`Env::refresh_beacon`]) only when it is stale, or
    /// `always`: under eager scheduling, where changes go untracked, or
    /// for a state the caller just saw change. Returns whether the
    /// beacon changed. Debug builds rebuild a
    /// skipped beacon into the scratch and assert that it is unchanged.
    pub fn refresh_stale_beacon(&mut self, p: Slot, always: bool) -> bool {
        let table = &mut self.table;
        if always || table.beacon_stale.contains(p) {
            table.beacon_stale.remove(p);
            return self.refresh_beacon(p);
        }
        let (i, id) = (p.index(), table.order.id(p));
        // A lying node's column holds its forged beacon, not a rebuild.
        if cfg!(debug_assertions) && !table.lies.contains(&id) {
            let scratch = table
                .scratch_beacon
                .get_or_insert_with(|| table.beacons[i].clone());
            let rebuilt = |states: States<'_, P::State>| {
                self.protocol.beacon_into(id, states.at(p).1, scratch);
                !self.protocol.beacon_changed(&table.beacons[i], scratch)
            };
            debug_assert!(
                table.states.read(&table.order, rebuilt),
                "node {id} skipped a beacon rebuild that changes its beacon"
            );
        }
        false
    }

    /// `true` when every neighbor of the node at slot `s` has
    /// incorporated its current beacon epoch — the retirement condition
    /// for a pending sender. Read off the reception rows and the slots
    /// they name: each neighbor's row is searched for `s` by id.
    pub fn all_caught_up(&self, s: Slot) -> bool {
        let (table, id) = (&self.table, self.table.order.id(s));
        let epoch = table.epoch[s.index()];
        table.heard.slots(s.index()).iter().all(|&r| {
            let row = table.heard.slots(r.index());
            row.binary_search_by_key(&id, |&q| table.order.id(q))
                .map(|idx| table.heard.get(r.index(), idx) == epoch)
                .unwrap_or(true)
        })
    }

    /// Everything that precedes the sends of round-clocked step `now`:
    /// the topology moves, then due followups (resurrections,
    /// healings), then scripted faults. Clears [`Env::env_changed`]
    /// first, so afterwards it describes this step alone.
    pub fn begin_step(&mut self, now: u64) {
        self.env_changed = false;
        self.tick_dynamics(now);
        self.fire_followups(now);
        while self.next_scripted().is_some_and(|due| due <= now) {
            self.fire_next_scripted(now);
        }
    }

    /// What follows [`Env::begin_step`] on both period-clocked drivers:
    /// under `eager` scheduling everyone beacons, hears and runs (the
    /// degenerate dirty sets every gated run is tested against); then
    /// the beacons of state-changed nodes are refreshed and the
    /// period's senders collected into `senders`, by slot.
    pub fn release_slots(&mut self, eager: bool, senders: &mut Vec<Slot>) {
        let table = &mut self.table;
        if eager {
            table.update_dirty.insert_all();
            table.beacon_stale.insert_all();
            table.send_pending.insert_all();
            if let Some(occ) = &mut table.occupancy {
                // Everyone transmits for real: nobody occupies
                // statistically (O(1) once drained).
                occ.release_all();
            }
        }
        let mut stale = std::mem::take(&mut self.scratch_slots);
        table.beacon_stale.drain_sorted_into(&mut stale);
        for &p in &stale {
            self.refresh_beacon(p);
        }
        self.scratch_slots = stale;
        self.table.send_pending.collect_sorted_into(senders);
    }

    /// Schedules every neighbor of a sender for a visit, recording as
    /// hearers those nothing but a frame scheduled — their visit runs
    /// no guard pass unless it receives a frame ([`super::settle`]).
    /// Returns the senders' summed degree, the copies in range. Costs
    /// that many bit operations; nothing here is proportional to n.
    /// The neighbors are the slots the senders' rows name.
    pub fn mark_hearers(&mut self, senders: &[Slot]) -> usize {
        let table = &mut self.table;
        let mut in_range = 0;
        for &s in senders {
            let heard_by = table.heard.slots(s.index());
            in_range += heard_by.len();
            for &r in heard_by {
                if table.update_dirty.insert(r) {
                    table.hearers.insert(r);
                }
            }
        }
        in_range
    }

    /// The tail of a gated period: senders every neighbor has caught
    /// up with leave the pending set — so lossy media keep re-beaconing
    /// until the frame lands (the paper's τ > 0 hypothesis at work) —
    /// and, under a gated contention medium, start occupying their slot
    /// statistically instead of transmitting for real.
    ///
    /// `delivered` is the period's count of frame copies received. When
    /// it equals the senders' summed degree the reception rows are not
    /// consulted at all, and every sender retires:
    ///
    /// 1. a medium records a (sender, 1-neighbor) pair at most once, so
    ///    `delivered == Σ degree(s)` means *every* neighbor of every
    ///    sender heard it (`crates/radio/tests/properties.rs`) — and a
    ///    round-driver step over a lossless medium, which is not asked
    ///    to record anything, reports that sum because it is that fact;
    /// 2. a receiver that heard a beacon epoch it had not incorporated
    ///    was visited, and the visit wrote that epoch into its row;
    /// 3. a receiver that was not visited already held it — so after
    ///    the visits every row agrees with every sender's epoch, which
    ///    is what [`Env::all_caught_up`] would have read back.
    ///
    /// A period that lost a single copy asks per sender, as ever. Debug
    /// builds ask both ways and assert that they agree.
    pub fn retire_caught_up(&mut self, senders: &[Slot], delivered: usize) {
        if senders.is_empty() {
            return;
        }
        let degree = |s: Slot| self.table.heard.slots(s.index()).len();
        let in_range: usize = senders.iter().map(|&s| degree(s)).sum();
        let lossless = delivered == in_range;
        self.lossless_periods += u64::from(lossless);
        for &s in senders {
            if lossless {
                debug_assert!(
                    self.all_caught_up(s),
                    "a period that delivered every copy left {} with a neighbor behind",
                    self.table.order.id(s)
                );
            } else if !self.all_caught_up(s) {
                continue;
            }
            self.table.send_pending.remove(s);
            if let Some(occ) = &mut self.table.occupancy {
                occ.occupy(self.table.order.id(s), &self.topo);
            }
        }
    }

    /// One tick of the topology dynamics, for logical step `step`.
    pub fn tick_dynamics(&mut self, step: u64) {
        let Some(mut dynamics) = self.dynamics.take() else {
            return;
        };
        if let Some(moves) = dynamics.next_moves(step) {
            if !moves.is_empty() {
                self.apply_moves(moves);
            }
        } else if let Some(topo) = dynamics.next_topology(step) {
            assert_eq!(
                topo.len(),
                self.topo.len(),
                "topology dynamics must preserve the node count"
            );
            // clone_from reuses the existing adjacency buffers where
            // possible.
            self.topo.clone_from(topo);
            self.topology_swapped();
        }
        self.dynamics = Some(dynamics);
    }

    /// The logical step of the next unfired scripted fault.
    pub fn next_scripted(&self) -> Option<u64> {
        self.scripted.get(self.next_scripted).map(|&(step, _)| step)
    }

    /// Fires the next scripted fault at logical step `now`.
    pub fn fire_next_scripted(&mut self, now: u64) {
        let Some((_, fault)) = self.scripted.get(self.next_scripted).cloned() else {
            return;
        };
        self.next_scripted += 1;
        let fired = self.dispatch_fault(now, &fault);
        debug_assert!(
            fired.is_ok(),
            "fault plans are validated before installation: {fired:?}"
        );
    }

    /// The due step of the earliest pending followup.
    pub fn next_followup(&self) -> Option<u64> {
        self.followups.last().map(|&(due, _, _)| due)
    }

    /// Fires every followup due by `now`, in ascending `(due, seq)`
    /// order.
    pub fn fire_followups(&mut self, now: u64) {
        while let Some((_, _, followup)) = self.followups.pop_if(|&mut (due, _, _)| due <= now) {
            self.apply_followup(followup);
        }
    }

    fn push_followup(&mut self, due: u64, followup: Followup<P>) {
        let seq = self.followup_seq;
        self.followup_seq += 1;
        let at = self
            .followups
            .partition_point(|&(d, s, _)| (d, s) > (due, seq));
        self.followups.insert(at, (due, seq, followup));
    }

    fn apply_followup(&mut self, followup: Followup<P>) {
        self.env_changed = true;
        match followup {
            Followup::Resurrect { node, state, edges } => {
                *self.table.state_mut(node) = state;
                self.wake_mutated(node);
                self.restore_edges(&edges);
            }
            Followup::RestoreEdges { edges } => self.restore_edges(&edges),
            Followup::ClearLie { node } => {
                // The override lifts and the node wakes as an
                // externally-mutated one: its refresh recomputes the
                // honest beacon (epoch-bumped past the lie), and its
                // poisoned neighbors are forced to hear the retraction.
                self.table.lies.retain(|q| *q != node);
                self.wake_mutated(node);
                self.refresh_beacon(self.table.order.slot(node));
            }
        }
    }

    /// Applies one fault at logical step `now`. Shared by the scripted
    /// stream and [`Env::inject`], both of which validate first.
    fn dispatch_fault(&mut self, now: u64, fault: &Fault) -> Result<(), SimError> {
        self.env_changed = true;
        let due = fault.settles_by(now);
        match fault {
            Fault::CorruptNode(p) => self.corrupt_scripted(*p),
            Fault::CorruptAll => {
                for i in 0..self.topo.len() {
                    self.corrupt_scripted(NodeId::new(i as u32));
                }
            }
            Fault::CorruptFraction(f) => {
                self.pick_fraction(*f);
            }
            Fault::Isolate(p) => self.isolate(*p),
            Fault::SetTopology(topo) => return self.set_topology(topo.clone()),
            Fault::CrashRecover { node, .. } => self.crash(*node, due),
            Fault::ByzantineBeacon { node, lie, .. } => self.byzantine(*node, *lie, due),
            Fault::PartitionHeal { cut, .. } => {
                let side = self.mask(cut);
                self.sever_edges(|u, v| side[u.index()] != side[v.index()], due);
            }
            Fault::Jam { region, .. } => {
                let jammed = self.mask(&region.members(&self.topo));
                self.sever_edges(|u, v| jammed[u.index()] || jammed[v.index()], due);
            }
        }
        Ok(())
    }

    fn mask(&self, nodes: &[NodeId]) -> Vec<bool> {
        let mut mask = vec![false; self.topo.len()];
        for &p in nodes {
            mask[p.index()] = true;
        }
        mask
    }

    /// Scrambles `p`'s state on a fresh per-event stream — however
    /// much randomness the corruptor consumes, no other stream moves —
    /// and reschedules it.
    fn corrupt_scripted(&mut self, p: NodeId) {
        let mut rng = self.corrupt_rng(p);
        let state = self.table.state_mut(p);
        scramble(&self.corruptor, &self.protocol, p, state, &mut rng);
        self.wake_mutated(p);
    }

    /// Corrupts ≈ `fraction` of the nodes, picked from the dedicated
    /// fault stream into the reused scratch buffer; returns how many.
    fn pick_fraction(&mut self, fraction: f64) -> usize {
        let mut picks = std::mem::take(&mut self.scratch_nodes);
        picks.clear();
        let fraction = fraction.clamp(0.0, 1.0);
        for p in self.topo.nodes() {
            if self.fault_rng.random_bool(fraction) {
                picks.push(p);
            }
        }
        for &p in &picks {
            self.corrupt_scripted(p);
        }
        self.scratch_nodes = picks;
        self.scratch_nodes.len()
    }

    /// [`Fault::CrashRecover`]: snapshot state + links, go dark, hold
    /// the links down until the resurrection at step `due`.
    fn crash(&mut self, p: NodeId, due: u64) {
        let state = self.table.state_mut(p).clone();
        let mut edges = self.shadowed(|u, v| u == p || v == p);
        edges.extend(self.topo.neighbors(p).iter().map(|&q| ordered(p, q)));
        self.isolate(p);
        self.hold(&edges);
        let node = p;
        self.push_followup(due, Followup::Resurrect { node, state, edges });
    }

    /// [`Fault::ByzantineBeacon`]: the lie replaces `p`'s broadcast
    /// column, the epoch bump makes every neighbor "behind" — and, a
    /// lie always being read, the new epoch is also the read epoch —
    /// and `p` rejoins the pending senders (waking from statistical
    /// occupancy if retired) so the lie actually hits the air. `p`'s
    /// true state is untouched; [`Env::refresh_beacon`] refuses to
    /// overwrite the column until the lie expires at step `due`. The
    /// forged content draws on the dedicated per-corruption-event
    /// stream.
    fn byzantine(&mut self, p: NodeId, lie: Lie, due: u64) {
        let i = self.table.order.slot(p).index();
        let beacon = match lie {
            Lie::Forged => {
                let mut rng = self.corrupt_rng(p);
                let mut fake = self.table.state_mut(p).clone();
                scramble(&self.corruptor, &self.protocol, p, &mut fake, &mut rng);
                self.protocol.beacon(p, &fake)
            }
            Lie::Replayed => self.table.beacons[i].clone(),
        };
        let table = &mut self.table;
        table.beacons[i] = beacon;
        let epoch = bump_epoch(table.epoch[i]);
        table.epoch[i] = epoch;
        table.read_epoch[i] = epoch;
        table.send_pending.insert(table.order.slot(p));
        if let Some(occ) = &mut table.occupancy {
            occ.release(p, &self.topo);
        }
        if !table.lies.contains(&p) {
            table.lies.push(p);
        }
        self.push_followup(due, Followup::ClearLie { node: p });
    }

    /// [`Fault::PartitionHeal`] / [`Fault::Jam`]: removes every present
    /// edge `hit` selects through the incremental delta path —
    /// occupancy adjusted edge-wise, `link_down` fired, touched nodes
    /// woken — and holds them down until step `due`.
    fn sever_edges(&mut self, hit: impl Fn(NodeId, NodeId) -> bool, due: u64) {
        let mut edges = self.shadowed(&hit);
        let removed: Vec<_> = self.topo.edges().filter(|&(u, v)| hit(u, v)).collect();
        for &(u, v) in &removed {
            self.topo.remove_edge(u, v);
        }
        let delta = TopologyDelta {
            removed,
            ..TopologyDelta::default()
        };
        self.apply_delta(&delta);
        edges.extend(delta.removed);
        if !edges.is_empty() {
            self.hold(&edges);
            self.push_followup(due, Followup::RestoreEdges { edges });
        }
    }

    /// The absent edges `hit` selects that an earlier, still active
    /// fault holds down. A new fault covering them must keep them
    /// closed after the earlier one ends, so it holds them too.
    fn shadowed(&self, hit: impl Fn(NodeId, NodeId) -> bool) -> Vec<(NodeId, NodeId)> {
        let absent = |&(u, v): &(NodeId, NodeId)| hit(u, v) && !self.topo.has_edge(u, v);
        self.held
            .iter()
            .map(|&(edge, _)| edge)
            .filter(absent)
            .collect()
    }

    /// Where `edge` is, or would be, in `held`.
    fn held_at(&self, edge: (NodeId, NodeId)) -> Result<usize, usize> {
        self.held.binary_search_by_key(&edge, |&(e, _)| e)
    }

    /// Registers one more active fault holding each of `edges` down.
    fn hold(&mut self, edges: &[(NodeId, NodeId)]) {
        for &edge in edges {
            match self.held_at(edge) {
                Ok(i) => self.held[i].1 += 1,
                Err(i) => self.held.insert(i, (edge, 1)),
            }
        }
    }

    /// One fault holding `edges` down has ended. An edge no other
    /// fault still holds is re-added if it is still absent (mobility
    /// may already have restored it), again through the incremental
    /// delta path.
    fn restore_edges(&mut self, edges: &[(NodeId, NodeId)]) {
        let mut added = Vec::new();
        for &(u, v) in edges {
            match self.held_at((u, v)) {
                Ok(i) if self.held[i].1 > 1 => {
                    self.held[i].1 -= 1;
                    continue;
                }
                Ok(i) => {
                    self.held.remove(i);
                }
                Err(_) => {}
            }
            if !self.topo.has_edge(u, v) && self.topo.add_edge(u, v).is_ok() {
                added.push((u, v));
            }
        }
        let delta = TopologyDelta {
            added,
            ..TopologyDelta::default()
        };
        self.apply_delta(&delta);
    }

    /// Processes an incremental topology change: notify the protocol of
    /// vanished links, wake the touched nodes, and realign their
    /// reception bookkeeping.
    fn apply_delta(&mut self, delta: &TopologyDelta) {
        // Even a link-preserving move changes the topology's geometry.
        self.env_changed |= !delta.moved.is_empty() || !delta.is_quiet();
        if delta.is_quiet() {
            return;
        }
        // Occupancy counts are adjusted edge-wise against the *new*
        // adjacency before any touched-node release walks it, so the
        // per-receiver counts stay exact through rewires.
        if let Some(occ) = &mut self.table.occupancy {
            for &(u, v) in &delta.removed {
                occ.edge_removed(u, v);
            }
            for &(u, v) in &delta.added {
                occ.edge_added(u, v);
            }
        }
        let (protocol, table) = (&self.protocol, &mut self.table);
        for &(u, v) in &delta.removed {
            protocol.link_down(u, table.state_mut(u), v);
            protocol.link_down(v, table.state_mut(v), u);
        }
        for p in delta.touched() {
            self.wake_mutated(p);
        }
    }

    /// A wholesale swap carries no link-level delta: conservatively
    /// reschedule every node (no [`Protocol::link_down`] fires, no
    /// state changes).
    fn topology_swapped(&mut self) {
        self.table.mark_all(&self.topo);
        self.env_changed = true;
    }

    /// Replaces the topology (same node count).
    ///
    /// # Errors
    ///
    /// [`SimError::NodeCountMismatch`] if the node count changes:
    /// protocol state is indexed by node.
    pub fn set_topology(&mut self, topo: Topology) -> Result<(), SimError> {
        if topo.len() != self.topo.len() {
            return Err(SimError::NodeCountMismatch {
                expected: self.topo.len(),
                got: topo.len(),
            });
        }
        self.topo = topo;
        self.topology_swapped();
        Ok(())
    }

    /// Applies incremental node moves (unit-disk only), waking exactly
    /// the nodes whose links changed. Returns the link churn.
    pub fn apply_moves(&mut self, moves: &[(NodeId, Point2)]) -> TopologyDelta {
        let delta = self.topo.apply_moves(moves);
        self.apply_delta(&delta);
        delta
    }

    /// Severs every link of `p` by removing its edges — the node's
    /// radio goes dark but its state survives (crash of the *link*
    /// layer) — firing [`Protocol::link_down`] on both endpoints of
    /// every cut link and waking everyone touched.
    pub fn isolate(&mut self, p: NodeId) {
        let mut nbrs = std::mem::take(&mut self.scratch_nodes);
        nbrs.clear();
        nbrs.extend_from_slice(self.topo.neighbors(p));
        for &q in &nbrs {
            self.topo.remove_edge(p, q);
            if let Some(occ) = &mut self.table.occupancy {
                occ.edge_removed(p, q);
            }
        }
        for &q in &nbrs {
            let (protocol, table) = (&self.protocol, &mut self.table);
            protocol.link_down(p, table.state_mut(p), q);
            protocol.link_down(q, table.state_mut(q), p);
            self.wake_mutated(q);
        }
        self.wake_mutated(p);
        self.env_changed = true;
        self.scratch_nodes = nbrs;
    }
}

impl<P: Observable> Env<P> {
    /// Projects every node's observable output into `buf` (cleared
    /// first), by id. The states are read where they sit and nothing is
    /// published: from the working column, the outputs are projected in
    /// storage order and then moved into id order in place.
    pub fn outputs_into(&self, buf: &mut Vec<P::Output>) {
        let (protocol, table) = (&self.protocol, &self.table);
        buf.clear();
        table.states.read(&table.order, |states| match states {
            States::ById(by_id, _) => {
                let ids = (0u32..).map(NodeId::new);
                buf.extend(ids.zip(by_id).map(|(p, s)| protocol.output(p, s)));
            }
            States::BySlot(by_slot, order) => {
                let ids = order.ids().iter();
                buf.extend(ids.zip(by_slot).map(|(&p, s)| protocol.output(p, s)));
                order.to_ids(buf);
            }
        });
    }
}

impl<P: Corruptible> Env<P> {
    /// Unscripted corruption needs the hook [`crate::Scenario::faults`]
    /// would have installed.
    fn arm_corruptor(&mut self) {
        self.corruptor.get_or_insert_with(|| {
            Box::new(|protocol, p, state, rng| protocol.corrupt(p, state, rng))
        });
    }

    /// Corrupts the state of one node arbitrarily.
    pub fn corrupt(&mut self, p: NodeId) {
        self.arm_corruptor();
        self.corrupt_scripted(p);
    }

    /// Corrupts a deterministic pseudo-random ≈ `fraction` of the
    /// nodes; returns how many.
    pub fn corrupt_fraction(&mut self, fraction: f64) -> usize {
        self.arm_corruptor();
        self.pick_fraction(fraction)
    }

    /// Applies one [`Fault`] at logical step `now`.
    ///
    /// # Errors
    ///
    /// Whatever [`Fault::validate_for`] rejects on the current
    /// topology; a rejected fault changes nothing.
    pub fn inject(&mut self, now: u64, fault: &Fault) -> Result<(), SimError> {
        fault.validate_for(&self.topo)?;
        self.arm_corruptor();
        self.dispatch_fault(now, fault)
    }
}

/// The one observe loop behind every driver's `run_to`: steps `sim`
/// (whose logical clock reads `start`) until `stop` is satisfied.
/// `step` advances it by one observation interval and returns the new
/// clock reading, leaving the nodes whose state it changed in
/// `table.changed`.
///
/// The condition is checked before the first step and after every
/// step. Stability is fed as a change flag on both scheduling modes:
/// the projection of every node that may have changed — `table.changed`
/// under gated scheduling, everyone under eager — is compared with the
/// kept `outputs` and overwritten. A quiescent gated step therefore
/// extends stability streaks and reuses memoized predicate verdicts
/// without projecting a single output.
pub(crate) fn run_to<P: Observable, C: Clock<P>>(
    sim: &mut Sim<P, C>,
    stop: &StopWhen<P>,
    start: u64,
    mut step: impl FnMut(&mut Sim<P, C>) -> u64,
) -> RunReport {
    let (mut cursor, gated) = (stop.cursor(), sim.is_gated());
    // Only project outputs when a StableFor leaf will read them;
    // predicate/budget-only stops skip the per-step O(n) pass.
    let needs_outputs = stop.needs_outputs();
    let e = &sim.env;
    let mut outputs: Vec<P::Output> = Vec::with_capacity(e.topo.len());
    if needs_outputs {
        e.outputs_into(&mut outputs);
    }
    // The first observation is a change: there is nothing to be equal
    // to yet, and no verdict to reuse.
    let first = Obs {
        output_changed: true,
        state_changed: true,
        env_changed: true,
    };
    let mut verdict = cursor.observe(start, 0, &e.topo, &|| e.states(), &first);
    let mut now = start;
    while !verdict.satisfied {
        now = step(sim);
        let e = &sim.env;
        let table = &e.table;
        let mut output_changed = false;
        if needs_outputs {
            let mut project = |p: NodeId, state: &P::State| {
                let fresh = e.protocol.output(p, state);
                if outputs[p.index()] != fresh {
                    outputs[p.index()] = fresh;
                    output_changed = true;
                }
            };
            table.states.read(&table.order, |states| {
                if gated {
                    for &p in &table.changed {
                        let (id, state) = states.at(p);
                        project(id, state);
                    }
                } else {
                    states.for_each(project);
                }
            });
        }
        let obs = Obs {
            output_changed,
            // Eager steps track no change: predicates re-run every step.
            state_changed: !gated || !table.changed.is_empty(),
            env_changed: e.env_changed,
        };
        verdict = cursor.observe(now, now - start, &e.topo, &|| e.states(), &obs);
    }
    RunReport {
        stabilized: cursor.stabilized(),
        steps: now - start,
        end_step: now,
        satisfied: !verdict.budget_only,
        timed_out: verdict.budget_only,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::GatedFlood;
    use mwn_graph::builders;
    use mwn_radio::Occupancy;

    fn id(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn line_env(n: usize) -> Env<GatedFlood> {
        Env::new(GatedFlood, builders::line(n), 7, streams::ROUND_FAULT)
    }

    fn jam(node: u32, until: u64) -> Fault {
        Fault::Jam {
            region: crate::Region::Nodes(vec![id(node)]),
            until,
        }
    }

    #[test]
    fn followups_fire_in_ascending_due_then_seq_order() {
        let mut env = line_env(3);
        let resurrect = |state| Followup::Resurrect {
            node: id(0),
            state,
            edges: Vec::new(),
        };
        env.push_followup(5, resurrect(50));
        env.push_followup(3, resurrect(30));
        env.push_followup(5, resurrect(51));
        env.push_followup(4, resurrect(40));
        let queued: Vec<_> = env.followups.iter().map(|&(d, s, _)| (d, s)).collect();
        assert_eq!(queued, [(5, 2), (5, 0), (4, 3), (3, 1)], "earliest last");
        assert_eq!(env.next_followup(), Some(3));
        env.fire_followups(2);
        assert_eq!(env.states()[0], 0, "nothing due yet");
        env.fire_followups(4);
        assert_eq!(env.states()[0], 40, "due 3 fired before due 4");
        assert_eq!(env.next_followup(), Some(5));
        env.fire_followups(9);
        assert_eq!(env.states()[0], 51, "equal dues fire in push order");
        assert_eq!(env.next_followup(), None);
    }

    #[test]
    fn restore_skips_an_edge_mobility_already_re_added_and_occupancy_stays_exact() {
        let mut env = line_env(5);
        let mut occ = Occupancy::new(5);
        for q in [id(0), id(3)] {
            env.table.send_pending.remove(env.table.order.slot(q));
            occ.occupy(q, &env.topo);
        }
        env.table.occupancy = Some(occ);
        let recounted = |env: &Env<GatedFlood>| {
            let occ = env.table.occupancy.as_ref().expect("installed above");
            assert_eq!(occ, &occ.recount(&env.topo), "occupancy diverged");
        };
        env.inject(3, &jam(2, 8)).expect("valid fault");
        assert!(!env.topo.has_edge(id(1), id(2)) && !env.topo.has_edge(id(2), id(3)));
        recounted(&env);
        // "Mobility" brings one of the two severed links back early.
        env.topo.add_edge(id(1), id(2)).expect("in range");
        let delta = TopologyDelta {
            added: vec![(id(1), id(2))],
            ..TopologyDelta::default()
        };
        env.apply_delta(&delta);
        recounted(&env);
        env.begin_step(8);
        assert!(env.env_changed, "the restore is an environment change");
        assert_eq!(env.topo.neighbors(id(2)), [id(1), id(3)], "no duplicate");
        assert!(env.held.is_empty(), "every hold released");
        recounted(&env);
    }

    #[test]
    fn a_step_with_nothing_due_touches_nothing() {
        let mut env = line_env(4);
        env.table.forced_changed.clear();
        let (queue, hits) = (env.followups.capacity(), env.corrupt_events);
        for now in 0..50 {
            env.begin_step(now);
        }
        assert!(!env.env_changed);
        assert_eq!(env.followups.capacity(), queue, "the queue never grew");
        assert_eq!(env.corrupt_events, hits);
        let mut touched = Vec::new();
        env.table.forced_changed.drain_sorted_into(&mut touched);
        assert!(touched.is_empty(), "no node was woken");
    }
}
