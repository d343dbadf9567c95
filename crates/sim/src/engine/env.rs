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
//! The driver ([`crate::Sim`]) owns one, beside its clock. Every clock
//! enters a step the same way: it asks when the environment acts next
//! ([`Env::next_due`]), lets it run that step's batch
//! ([`Env::begin_step`]), and then reacts to what the batch left
//! behind: [`Env::env_changed`] (the stop conditions read it) and the
//! touched nodes in the table's one change set, `changes` (the event
//! clock re-arms the woken senders, [`crate::Clock::sync`]). Every
//! clock ends a step the same way too ([`Env::end_step`]), and counts
//! what it did into one running [`StepActivity`], [`Env::tally`].

use mwn_graph::{NodeId, Point2, Topology, TopologyDelta};
use mwn_radio::ContentionStreams;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{bump_epoch, NodeTable, Slot, States, StorageOrder, VisitScratch};
use crate::faults::{Fault, Lie};
use crate::rng::{derive_seed, split_rng, streams};
use crate::scenario::TopologyDynamics;
use crate::stop::{Obs, RunReport, StopWhen};
use crate::{Activity, Clock, Corruptible, Observable, Protocol, Sim, SimError, StepActivity};

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
    /// What every step so far did, counted where the work happens:
    /// the clock counts senders and frames, the visits count receives,
    /// holds and passes. [`Env::end_step`] counts the changed nodes.
    pub tally: StepActivity,
    /// What the last [`Sim::step`] added to `tally`.
    pub last_step: StepActivity,
    /// Sequential stream for fault-site selection, so fault injection
    /// never perturbs timing or frame-fate randomness.
    fault_rng: StdRng,
    /// Scenario-scripted faults in logical-step order.
    scripted: Vec<(u64, Fault)>,
    next_scripted: usize,
    /// The next logical step whose mobility tick (if dynamics are
    /// attached) has not fired yet.
    dynamics_step: u64,
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
            tally: StepActivity::default(),
            last_step: StepActivity::default(),
            fault_rng: StdRng::seed_from_u64(derive_seed(seed, fault_stream)),
            scripted: Vec::new(),
            next_scripted: 0,
            dynamics_step: 0,
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

    /// `true` when silent nodes are muted: the [`Activity::Gated`]
    /// contract and no eager pin. Every medium permits it.
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
    /// epoch is bumped and the node becomes send-pending (no longer
    /// retired, so no longer a statistical contender), and if what a
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

    /// The earliest logical step at which [`Env::begin_step`] has
    /// something to fire — a mobility tick, a followup, a scripted
    /// fault — if any.
    pub fn next_due(&self) -> Option<u64> {
        let tick = self.dynamics.is_some().then_some(self.dynamics_step);
        let due = [tick, self.next_followup(), self.next_scripted()];
        due.into_iter().flatten().min()
    }

    /// Everything that precedes the sends of logical step `now`, in the
    /// one within-step order of every clock: the topology moves, then
    /// due followups (resurrections, healings), then scripted faults.
    /// Sets [`Env::env_changed`] if anything changed; the clock clears
    /// it where its step begins.
    pub fn begin_step(&mut self, now: u64) {
        self.tick_dynamics(now);
        self.fire_followups(now);
        while self.next_scripted().is_some_and(|due| due <= now) {
            self.fire_next_scripted(now);
        }
    }

    /// Ends a step the same way on every clock: under `gated`
    /// scheduling the change set is drained into the table's `changed`
    /// (by slot and by id) and counted; eager scheduling tracks no
    /// change, and clears it. Costs O(1) when nothing changed, and
    /// otherwise a scan of n/512 cache lines and a sort of the changed
    /// ids.
    pub fn end_step(&mut self, gated: bool) {
        let table = &mut self.table;
        if gated {
            table.changes.drain_sorted_into(&mut table.changed);
        } else {
            table.changes.clear();
            table.changed.clear();
        }
        table
            .order
            .sorted_ids(&table.changed, &mut table.changed_ids);
        self.tally.changed += table.changed.len();
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
        }
        let mut stale = std::mem::take(&mut self.scratch_slots);
        table.beacon_stale.drain_sorted_into(&mut stale);
        for &p in &stale {
            self.refresh_beacon(p);
        }
        self.scratch_slots = stale;
        self.table.send_pending.collect_sorted_into(senders);
    }

    /// The one hearer rule of the period clocks: every neighbor of a
    /// sender is scheduled for a visit, whatever the medium made of the
    /// frame, and those nothing but a frame scheduled are recorded as
    /// hearers — their visit runs no guard pass unless it receives a
    /// frame ([`super::settle`]), so a hearer whose frames were lost,
    /// stale or held costs a visit and nothing else. Costs the senders'
    /// summed degree in bit operations; nothing here is proportional to
    /// n. The neighbors are the slots the senders' rows name.
    pub fn mark_hearers(&mut self, senders: &[Slot]) {
        let table = &mut self.table;
        for &s in senders {
            for &r in table.heard.slots(s.index()) {
                if table.update_dirty.insert(r) {
                    table.hearers.insert(r);
                }
            }
        }
    }

    /// The senders' summed degree: the frame copies in range.
    pub fn in_range(&self, senders: &[Slot]) -> usize {
        let degree = |s: &Slot| self.table.heard.slots(s.index()).len();
        senders.iter().map(degree).sum()
    }

    /// The tail of a gated period: senders every neighbor has caught
    /// up with leave the pending set — so lossy media keep re-beaconing
    /// until the frame lands (the paper's τ > 0 hypothesis at work) —
    /// and, under a gated contention medium, occupy their slot
    /// statistically from then on ([`super::Retired`]) instead of
    /// transmitting for real.
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
    /// builds ask both ways and assert that they agree. The count is
    /// speed only; what it moves is `converge_rounds`' and
    /// `restab_chaos`' `wall_s` (ROADMAP negative (xlv)).
    pub fn retire_caught_up(&mut self, senders: &[Slot], delivered: usize) {
        if senders.is_empty() {
            return;
        }
        let lossless = delivered == self.in_range(senders);
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
        }
    }

    /// The ticks of the topology dynamics due by logical step `now`,
    /// one per step.
    fn tick_dynamics(&mut self, now: u64) {
        let Some(mut dynamics) = self.dynamics.take() else {
            return;
        };
        while self.dynamics_step <= now {
            let step = self.dynamics_step;
            self.dynamics_step += 1;
            let moves = dynamics.next_moves(step);
            if !moves.is_empty() {
                self.apply_moves(moves);
            }
        }
        self.dynamics = Some(dynamics);
    }

    /// The logical step of the next unfired scripted fault.
    fn next_scripted(&self) -> Option<u64> {
        self.scripted.get(self.next_scripted).map(|&(step, _)| step)
    }

    /// Fires the next scripted fault at logical step `now`.
    fn fire_next_scripted(&mut self, now: u64) {
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
    fn next_followup(&self) -> Option<u64> {
        self.followups.last().map(|&(due, _, _)| due)
    }

    /// Fires every followup due by `now`, in ascending `(due, seq)`
    /// order.
    fn fire_followups(&mut self, now: u64) {
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
            Fault::Isolate(p) => {
                self.isolate(*p);
            }
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
        edges.extend(self.isolate(p));
        self.hold(&edges);
        let node = p;
        self.push_followup(due, Followup::Resurrect { node, state, edges });
    }

    /// [`Fault::ByzantineBeacon`]: the lie replaces `p`'s broadcast
    /// column, the epoch bump makes every neighbor "behind" — and, a
    /// lie always being read, the new epoch is also the read epoch —
    /// and `p` rejoins the pending senders (no longer retired, if it
    /// was) so the lie actually hits the air. `p`'s
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
        if !table.lies.contains(&p) {
            table.lies.push(p);
        }
        self.push_followup(due, Followup::ClearLie { node: p });
    }

    /// [`Fault::PartitionHeal`] / [`Fault::Jam`]: cuts every present
    /// edge `hit` selects and holds them down until step `due`.
    fn sever_edges(&mut self, hit: impl Fn(NodeId, NodeId) -> bool, due: u64) {
        let mut edges = self.shadowed(&hit);
        let present = self.topo.edges().filter(|&(u, v)| hit(u, v)).collect();
        edges.extend(self.cut(present));
        if !edges.is_empty() {
            self.hold(&edges);
            self.push_followup(due, Followup::RestoreEdges { edges });
        }
    }

    /// Removes the present edges `removed` (sorted, each `u < v`)
    /// through the delta path — [`Protocol::link_down`] fired, touched
    /// nodes woken — and hands them back.
    fn cut(&mut self, removed: Vec<(NodeId, NodeId)>) -> Vec<(NodeId, NodeId)> {
        for &(u, v) in &removed {
            self.topo.remove_edge(u, v);
        }
        let delta = TopologyDelta {
            removed,
            ..TopologyDelta::default()
        };
        self.apply_delta(&delta);
        delta.removed
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

    /// Processes a topology change — every rewiring, moves, cuts,
    /// restores and swaps alike, enters here: notify the protocol of
    /// vanished links, wake the touched nodes, and realign their
    /// reception bookkeeping.
    fn apply_delta(&mut self, delta: &TopologyDelta) {
        // Even a link-preserving move changes the topology's geometry.
        self.env_changed |= !delta.moved.is_empty() || !delta.is_quiet();
        if delta.is_quiet() {
            return;
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

    /// Replaces the topology (same node count) through the delta path:
    /// [`Protocol::link_down`] fires on every link the swap cut, and
    /// exactly the nodes whose links changed wake.
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
        let delta = self.topo.replace(topo);
        self.env_changed = true;
        self.apply_delta(&delta);
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
    /// layer) — through [`Env::cut`]; returns the cut links.
    pub fn isolate(&mut self, p: NodeId) -> Vec<(NodeId, NodeId)> {
        let links = self.topo.neighbors(p).iter().map(|&q| ordered(p, q));
        let cut = self.cut(links.collect());
        // The victim counts as mutated even with no link left to cut
        // (a crash inside a jammed region).
        self.wake_mutated(p);
        self.env_changed = true;
        cut
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
    fn restore_skips_an_edge_mobility_already_re_added() {
        let mut env = line_env(5);
        env.inject(3, &jam(2, 8)).expect("valid fault");
        assert!(!env.topo.has_edge(id(1), id(2)) && !env.topo.has_edge(id(2), id(3)));
        // "Mobility" brings one of the two severed links back early.
        env.topo.add_edge(id(1), id(2)).expect("in range");
        let delta = TopologyDelta {
            added: vec![(id(1), id(2))],
            ..TopologyDelta::default()
        };
        env.apply_delta(&delta);
        env.begin_step(8);
        assert!(env.env_changed, "the restore is an environment change");
        assert_eq!(env.topo.neighbors(id(2)), [id(1), id(3)], "no duplicate");
        assert!(env.held.is_empty(), "every hold released");
    }

    #[test]
    fn isolating_a_node_with_no_link_left_still_wakes_it() {
        let mut env = line_env(3);
        env.inject(0, &jam(1, 8)).expect("valid fault");
        assert!(
            env.topo.neighbors(id(1)).is_empty(),
            "the jam cut both links"
        );
        env.end_step(true);
        env.table.send_pending.clear();
        env.env_changed = false;
        assert!(env.isolate(id(1)).is_empty(), "no link left to cut");
        assert!(env.env_changed);
        let slot = env.table.order.slot(id(1));
        assert!(
            env.table.send_pending.contains(slot),
            "the victim is pending"
        );
        env.end_step(true);
        assert_eq!(env.table.changed_ids, [id(1)], "the victim changed");
    }

    #[test]
    fn a_step_with_nothing_due_touches_nothing() {
        let mut env = line_env(4);
        env.table.changes.clear();
        let (queue, hits) = (env.followups.capacity(), env.corrupt_events);
        for now in 0..50 {
            env.begin_step(now);
        }
        assert!(!env.env_changed);
        assert_eq!(env.followups.capacity(), queue, "the queue never grew");
        assert_eq!(env.corrupt_events, hits);
        let mut touched = Vec::new();
        env.table.changes.drain_sorted_into(&mut touched);
        assert!(touched.is_empty(), "no node was woken");
    }
}
