use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use mwn_graph::{NodeId, Topology};
use mwn_radio::{Delivery, Medium, MediumKind, PerfectMedium};

use crate::driver::Sealed;
use crate::engine::{self, Env, Fate, NodeSet, Slot, SlotClock};
use crate::rng::{split_rng, streams};
use crate::stop::StopWhen;
use crate::{Clock, Observable, Protocol, Sim, SimError};

/// Parameters of the continuous-time execution model.
///
/// Nodes rebroadcast their shared variables at randomized intervals
/// (the timed discipline with "randomization to avoid collision" of
/// Herman & Tixeuil \[11\], which the paper adopts in Section 4). Frames
/// have a positive duration; which copies arrive is the driver's
/// [`Medium`]'s decision.
///
/// The unit of time is the beacon period, the mean time between two
/// beacon opportunities of the same node: logical step `k` begins at
/// time `k`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EventConfig {
    /// Relative jitter: consecutive beacon slots of a node are
    /// `1 ± jitter` periods apart (mean exactly one period).
    pub jitter: f64,
    /// Time a frame occupies the channel at a receiver, in periods.
    pub frame_time: f64,
}

impl Default for EventConfig {
    fn default() -> Self {
        EventConfig {
            jitter: 0.5,
            frame_time: 0.02,
        }
    }
}

impl EventConfig {
    /// Checks every parameter's range.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint (frame time
    /// not positive — NaN included —, jitter outside `[0, 1)`).
    pub fn check(&self) -> Result<(), String> {
        // Asked as "is it positive", so a NaN answers no.
        let positive = |x: f64| x > 0.0;
        if !positive(self.frame_time) {
            return Err("frame time must be positive".to_string());
        }
        if !(0.0..1.0).contains(&self.jitter) {
            return Err("jitter must be in [0, 1)".to_string());
        }
        Ok(())
    }
}

/// One transmission in flight: its copies land at `time` on the
/// receivers its pool entry lists, in receiver-id order.
#[derive(Clone, Copy, Debug)]
struct Transmission {
    time: f64,
    sender: NodeId,
    /// The sender's beacon epoch, which the receivers' rows record.
    tx_epoch: u32,
    entry: u32,
}

/// What one transmission in flight shares with all its copies.
struct InFlight<B> {
    beacon: B,
    /// The sender's read epoch at transmission time.
    read: u32,
    /// The sender's table slot.
    from: Slot,
    /// The copies' receivers, `(id, table slot)`, ascending by id.
    receivers: Vec<(NodeId, Slot)>,
}

/// The event queue: beacon slots in a heap, transmissions in flight in
/// a lane sorted by arrival time, and a pool of what they share (see
/// [`EventDriver`]'s "O(active) scheduling"). The transmissions landing
/// at the lane's front instant are opened, their copies handed out one
/// by one ([`Lanes::copy`]), and closed together: their entries are
/// freed for a later [`Lanes::hold`] to overwrite. Only a beacon slot
/// transmits, and none fires while an instant is open.
struct Lanes<B> {
    /// One key per armed node, `(time bits, node id)`, least first:
    /// a slot time is never negative, so its bits order like the time.
    slots: BinaryHeap<Reverse<(u64, u32)>>,
    /// The number of each node's queued slot, by node id.
    numbers: Vec<u64>,
    transmissions: VecDeque<Transmission>,
    entries: Vec<InFlight<B>>,
    free: Vec<u32>,
    /// The copies of an open instant that several transmissions land
    /// at, as `(receiver, sender, transmission, copy)`, sorted; empty
    /// when one transmission lands alone.
    merged: Vec<(u32, u32, u32, u32)>,
}

impl<B: Clone> Lanes<B> {
    /// An empty queue for nodes `0..n`.
    fn new(n: usize) -> Self {
        Lanes {
            slots: BinaryHeap::new(),
            numbers: vec![0; n],
            transmissions: VecDeque::new(),
            entries: Vec::new(),
            free: Vec::new(),
            merged: Vec::new(),
        }
    }

    /// Queues slot number `k` of node `p`, which has none queued, at
    /// `time`. A node has at most one slot queued, so neither the slot
    /// number nor anything else breaks a tie on `(time, p)`.
    fn push_slot(&mut self, time: f64, p: NodeId, k: u64) {
        // `-0.0 + 0.0` is `+0.0`: no key carries a sign bit.
        let bits = (time + 0.0).to_bits();
        debug_assert!(bits >> 63 == 0, "slot time {time} is negative");
        self.numbers[p.index()] = k;
        self.slots.push(Reverse((bits, p.value())));
    }

    /// When the next event is due (never, if both lanes are empty), and
    /// whether it is an arrival instant: at one instant the arrivals
    /// land before the slots fire — a state change carried by a frame
    /// is visible to a same-instant broadcast.
    fn next_event(&self) -> (f64, bool) {
        let (slot, front) = (self.slots.peek(), self.transmissions.front());
        let slot = slot.map_or(f64::INFINITY, |&Reverse((bits, _))| f64::from_bits(bits));
        let arrival = front.map_or(f64::INFINITY, |tx| tx.time);
        (slot.min(arrival), arrival <= slot)
    }

    /// Removes the next beacon slot: its node and its number.
    fn pop_slot(&mut self) -> Option<(NodeId, u64)> {
        let Reverse((_, p)) = self.slots.pop()?;
        let p = NodeId::new(p);
        Some((p, self.numbers[p.index()]))
    }

    /// Copies `source`, the beacon of the node at slot `from` with read
    /// epoch `read`, into a free pool entry with no receivers yet;
    /// returns the entry's index.
    fn hold(&mut self, source: &B, read: u32, from: Slot) -> u32 {
        let Some(i) = self.free.pop() else {
            self.entries.push(InFlight {
                beacon: source.clone(),
                read,
                from,
                receivers: Vec::new(),
            });
            return (self.entries.len() - 1) as u32;
        };
        let entry = &mut self.entries[i as usize];
        entry.beacon.clone_from(source);
        (entry.read, entry.from) = (read, from);
        entry.receivers.clear();
        i
    }

    /// Files `tx`, whose pool entry lists its receivers, at the back:
    /// arrival times never decrease in push order.
    fn push_transmission(&mut self, tx: Transmission) {
        let back = self.transmissions.back();
        debug_assert!(back.is_none_or(|b| b.time <= tx.time), "in time order");
        let receivers = &self.entries[tx.entry as usize].receivers;
        debug_assert!(!receivers.is_empty() && receivers.is_sorted(), "ascending");
        self.transmissions.push_back(tx);
    }

    /// Opens the lane's front instant: returns how many transmissions
    /// land at it — the first that many of the lane — and how many
    /// copies. Copy `i` is the `i`-th least `(receiver, sender)` among
    /// them, which is the front's `i`-th receiver when it lands alone;
    /// several are merged into that order once, here.
    fn open_instant(&mut self) -> (usize, usize) {
        let (txs, entries) = (&self.transmissions, &self.entries);
        let Some(front) = txs.front() else {
            return (0, 0);
        };
        if txs.get(1).is_none_or(|tx| tx.time != front.time) {
            return (1, entries[front.entry as usize].receivers.len());
        }
        let landing = txs.iter().take_while(|tx| tx.time == front.time).count();
        for (j, tx) in txs.range(..landing).enumerate() {
            let receivers = &entries[tx.entry as usize].receivers;
            let copies = receivers.iter().enumerate();
            let at = |(i, &(r, _)): (usize, &(NodeId, Slot))| {
                (r.value(), tx.sender.value(), j as u32, i as u32)
            };
            self.merged.extend(copies.map(at));
        }
        self.merged.sort_unstable();
        (landing, self.merged.len())
    }

    /// Copy `i` of the open instant: its transmission, its receiver and
    /// the receiver's table slot.
    fn copy(&self, i: usize) -> (Transmission, NodeId, Slot) {
        let (j, i) = match self.merged.get(i) {
            Some(&(.., j, i)) => (j as usize, i as usize),
            None => (0, i),
        };
        let tx = self.transmissions[j];
        let (receiver, at) = self.entries[tx.entry as usize].receivers[i];
        (tx, receiver, at)
    }

    /// Closes the open instant, of `landing` transmissions: they leave
    /// the lane, and their entries the pool.
    fn close_instant(&mut self, landing: usize) {
        for tx in self.transmissions.drain(..landing) {
            self.free.push(tx.entry);
        }
        self.merged.clear();
    }
}

/// The continuous-time discrete-event driver, a [`Sim`] on the
/// [`Events`] clock, over the shared activity engine (the crate's
/// `engine` module).
///
/// This realizes the asynchronous execution model under which the
/// paper's expected-constant-time results (Theorem 1, Lemmas 1–2) are
/// stated: beacons at randomized intervals, frames with real duration,
/// and a channel in which the per-frame success probability is some
/// τ > 0 — exactly the paper's hypothesis (read it off
/// [`Sim::measured_tau`]). The [`Medium`] decides each copy's
/// fate from a derived per-(slot, sender) stream, and when the protocol
/// declares [`crate::Activity::Gated`], silent nodes stop scheduling beacon
/// slots altogether.
///
/// # O(active) scheduling
///
/// The event queue holds one beacon-slot key per **armed** node plus
/// one entry per transmission in flight — never one entry per node of
/// a quiescent network — in two lanes:
///
/// * **Beacon slots** sit in a binary heap of 16-byte integer keys,
///   `(time bits, node id)`: a slot time is never negative, so its bits
///   order like the time, and a node has at most one slot queued (the
///   `armed` set), so nothing else ever breaks a tie. The slot number
///   sits in a column by node. Slots come from the engine's
///   `SlotClock`: node `p`'s `k`-th opportunity is a pure function of
///   `(seed, p, k)`, so a silent node consumes no randomness and no
///   queue space, and when something wakes it the next slot is found
///   arithmetically — exactly the schedule its always-transmitting
///   eager twin follows.
/// * **Transmissions in flight** sit in a deque, one 24-byte entry
///   each (arrival time, sender, beacon epoch, pool entry), pushed at
///   the back: arrivals are `t + frame_time` of slots that pop in time
///   order.
/// * **What a transmission shares** sits in a pool entry: the sender's
///   beacon, copied in once, its read epoch, and the receivers the
///   medium let through as `(id, table slot)`, resolved once at send
///   time from the sender's reception row. The entry is freed, buffers
///   intact, once its instant has landed.
///
/// **One pass per arrival instant.** When the front of the deque is the
/// next event, every copy landing at that instant lands in one loop, in
/// `(receiver, sender)` order: the front's receiver list as it stands,
/// or — when several transmissions land at the very same instant — the
/// merge of their lists, sorted once. That is the order of one heap over
/// every copy's key, and nothing can come between two of them: landing
/// only wakes slots, which fire at the instant at the earliest and
/// after its arrivals, and only a slot transmits. So the logical clock
/// is read once per instant, and a copy costs its receive and at most
/// one guard pass. [`EventDriver::events_processed`] still counts each
/// copy.
///
/// The queue speaks ids — a key's tie-break is intrinsic identity — and
/// everything behind it speaks storage slots, the engine's order (by
/// radio cell, for a deployment). A slot rebuilds its node's beacon
/// only when it is stale, the period clocks' rule.
///
/// **Look-ahead.** A transmission's copies land at one instant on
/// scattered receivers, each on a state nothing has touched since that
/// receiver's last event. Before its instant lands, the driver walks
/// the receivers' reception rows, then the receivers once per level of
/// [`Protocol::peek_state`] (none for a protocol that declares no
/// levels): the reads each copy's `receive` and `update` would pay for
/// down a chain of dependent loads are asked for together, level by
/// level, so the cache misses overlap. Reads only, folded into a
/// [`std::hint::black_box`]: no state, count or digest can see them.
///
/// The next event is the earlier of the two lane heads, an arrival
/// before a slot at the same instant. Ties break on intrinsic identity,
/// never on insertion order: a gated execution schedules fewer events
/// than its eager twin, so an insertion-sequence tiebreak would let the
/// *schedule* leak into the trajectory. Every draw other than the slot
/// schedule (guard execution, frame fates, corruption) is derived per
/// (event, node) the same way, which makes gated and eager execution
/// **byte-identical** on independent-fates media — the continuous-time
/// counterpart of the round driver's equivalence, property-tested in
/// `tests/engine_equivalence.rs`. After stabilization both lanes drain
/// to empty: a quiet interval costs zero messages and O(1) work.
///
/// **A frame that changes nothing costs at most one receive.** A
/// node's visit here is one frame, so under gating the driver asks the
/// protocol itself whether a guard changed the state
/// ([`Protocol::receive_changed`], [`Protocol::update_changed`]) where
/// the period-clocked drivers snapshot and compare once per visit. It
/// also remembers the answer in the table's `update_dirty` bit, the
/// `dirty` input of the skip rule all three drivers share
/// (`engine::settle`): an arrival whose receive changes nothing at a
/// node whose last pass changed nothing — or a beacon slot of one —
/// runs no guard pass. [`Sim::updates`] counts the passes that
/// do run. An arrival whose receiver already holds what a receive
/// reads of it — the sender's beacon has changed since the epoch the
/// receiver holds, but only in parts [`Protocol::read_changed`] does
/// not compare, as of the read epoch the transmission carries in its
/// pool entry — costs no receive either, and the rule runs as after a
/// receive that changed nothing. Eager scheduling runs every receive
/// and every pass and stays the reference.
///
/// Scripted faults, their followups and [`crate::TopologyDynamics`]
/// (mobility) fire at logical-step boundaries (whole beacon periods),
/// interleaved with the event queue in time order, on the fault clock
/// of [`Sim`]: at the boundary of the step the
/// environment is next due at, what is due fires through the one
/// within-step order of every clock (`Env::begin_step`: mobility, then
/// followups, then scripted faults), before that instant's events.
/// [`EventDriver::step`] stops short of the boundary it reaches, so
/// what is due there fires as the next step begins.
///
/// # Examples
///
/// ```
/// use mwn_graph::builders;
/// use mwn_sim::{EventConfig, Protocol, Scenario};
/// use mwn_graph::NodeId;
/// use rand::rngs::StdRng;
///
/// struct MaxFlood;
/// impl Protocol for MaxFlood {
///     type State = u32;
///     type Beacon = u32;
///     fn init(&self, node: NodeId, _rng: &mut StdRng) -> u32 { node.value() }
///     fn beacon(&self, _node: NodeId, state: &u32) -> u32 { *state }
///     fn receive(&self, _n: NodeId, state: &mut u32, _f: NodeId, beacon: &u32, _now: u64) {
///         *state = (*state).max(*beacon);
///     }
///     fn update(&self, _n: NodeId, _s: &mut u32, _now: u64, _rng: &mut StdRng) {}
/// }
///
/// let mut driver = Scenario::new(MaxFlood)
///     .topology(builders::line(5))
///     .seed(3)
///     .build_events(EventConfig::default())
///     .expect("valid configuration");
/// driver.run_until_time(30.0);
/// assert!(driver.states().iter().all(|&s| s == 4));
/// ```
pub type EventDriver<P, M = PerfectMedium> = Sim<P, Events<P, M>>;

/// The event clock of an [`EventDriver`]: the simulation time, the
/// stateless beacon-slot schedule and the event queue. One logical
/// step is one beacon period.
pub struct Events<P: Protocol, M> {
    config: EventConfig,
    /// The stateless beacon-slot schedule.
    schedule: SlotClock,
    medium: M,
    lanes: Lanes<P::Beacon>,
    /// The nodes with a beacon slot in the queue (one each at most),
    /// by table slot.
    armed: NodeSet,
    /// Scratch delivery for the contention media's one-sender call.
    delivery: Delivery,
    /// The receivers of the transmission being sent.
    heard: Vec<NodeId>,
    /// Scratch slot list (wake batches).
    scratch_slots: Vec<Slot>,
    time: f64,
    /// Events processed so far: slots fired, copies landed.
    events: u64,
}

impl<P: Protocol, M> Sealed for Events<P, M> {}

impl<P: Protocol, M: Medium> Clock<P> for Events<P, M> {
    /// Advances to the next beacon-period boundary — one logical step,
    /// the event clock's counterpart of [`crate::Network::step`].
    /// Everything before the boundary runs; what is due on it waits for
    /// the next step (the fault clock of [`Sim`]).
    fn step(sim: &mut Sim<P, Self>) -> u64 {
        let next = sim.clock.now() + 1;
        let boundary = next as f64;
        sim.advance_to(boundary.next_down());
        sim.clock.time = boundary;
        next
    }

    /// The paper-comparable logical clock: whole beacon periods
    /// elapsed — what [`crate::Network::now`] counts in steps.
    fn now(&self) -> u64 {
        // The largest k whose boundary, time k, has been reached.
        self.time as u64
    }

    /// The woken senders are re-armed — under eager scheduling, which
    /// fires every node's every slot, the whole population (retired
    /// nodes included).
    fn sync(sim: &mut Sim<P, Self>) {
        if sim.is_gated() {
            sim.arm_pending();
        } else {
            for i in 0..sim.env.topo.len() {
                sim.arm(Slot::new(i as u32));
            }
        }
    }
}

impl<P: Protocol, M: Medium> EventDriver<P, M> {
    /// Creates the driver with cold-start states and the frame fates
    /// decided by `medium`; the first beacon slot of each node falls at
    /// a random phase within one period (nodes are *not* synchronized).
    ///
    /// Every medium is evaluated once per transmission, by its
    /// [`mwn_radio::MediumKind`]: lossless and independent media through
    /// [`Medium::fates`] on a derived per-(slot, sender) stream, which
    /// is what permits activity gating; contention media the same way
    /// through [`Medium::deliver_occupied_into`], with every other radio
    /// folded in as a statistical contender
    /// ([`mwn_radio::FullOccupancy`]) — on the continuous clock the
    /// eager twin beacons every period, so the full in-range population
    /// always contends, and gating extends to them too.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] when a parameter of `config` is out
    /// of range ([`EventConfig::check`]).
    pub(crate) fn new(
        protocol: P,
        medium: M,
        topo: Topology,
        config: EventConfig,
        seed: u64,
    ) -> Result<Self, SimError> {
        config.check().map_err(SimError::InvalidConfig)?;
        let n = topo.len();
        let clock = Events {
            config,
            schedule: SlotClock::new(seed, config.jitter, n),
            medium,
            lanes: Lanes::new(n),
            armed: NodeSet::new(n),
            delivery: Delivery::empty(0),
            heard: Vec::new(),
            scratch_slots: Vec::new(),
            time: 0.0,
            events: 0,
        };
        let env = Env::new(protocol, topo, seed, streams::EVENT_FAULT);
        let mut driver = Sim { env, clock };
        // Cold start: everyone has something to say (the table marks
        // all nodes send-pending), so everyone gets a first slot.
        driver.arm_pending();
        Ok(driver)
    }

    /// Schedules the next beacon slot of the node at table slot `p` at
    /// or after the current time, unless one is already queued. The
    /// schedule and the queue key are the node's id.
    fn arm(&mut self, p: Slot) {
        let clock = &mut self.clock;
        if clock.armed.insert(p) {
            let id = self.env.table.order.id(p);
            let (slot, t) = clock.schedule.next_at(id, clock.time);
            clock.lanes.push_slot(t, id, slot);
        }
    }

    /// Arms every node currently marked send-pending — after any wake
    /// batch (cold start, faults, topology deltas, mode switches) a
    /// pending sender always has a slot queued.
    fn arm_pending(&mut self) {
        let mut buf = std::mem::take(&mut self.clock.scratch_slots);
        self.env.table.send_pending.collect_sorted_into(&mut buf);
        for &p in &buf {
            self.arm(p);
        }
        self.clock.scratch_slots = buf;
    }

    /// When the environment acts next (never, if nothing is due).
    fn next_boundary(&self) -> f64 {
        let due = self.env.next_due();
        due.map_or(f64::INFINITY, |k| k as f64)
    }

    /// Enters the logical step at `boundary`: the clock advances to it,
    /// the environment fires what is due there ([`Env::begin_step`]),
    /// and the clock takes in the effects.
    fn fire_boundary(&mut self, boundary: f64) {
        self.clock.time = self.clock.time.max(boundary);
        self.env.begin_step(self.now());
        Events::sync(self);
    }

    /// Processes events up to (and including) time `t`; scripted
    /// faults and mobility ticks due in the interval fire at their
    /// scheduled times, interleaved correctly with the event queue.
    /// With an empty queue (a stabilized, gated network) the clock
    /// jumps straight to `t`: a quiet interval costs O(1). A NaN `t`
    /// processes nothing and leaves the clock where it was.
    pub fn run_until_time(&mut self, t: f64) {
        // The environment's schedule moves only when a boundary fires:
        // asked here and after each one, not once per event.
        let mut boundary = self.next_boundary();
        loop {
            let (event_time, arrival) = self.clock.lanes.next_event();
            let next = event_time.min(boundary);
            // Asked as "is it due", not "is it late": a NaN horizon
            // answers no to both. Nothing is ever due at infinity.
            let due = next <= t && next < f64::INFINITY;
            if !due {
                break;
            }
            // At equal instants the environment goes before the
            // protocol events.
            if boundary <= event_time {
                self.fire_boundary(boundary);
                boundary = self.next_boundary();
                continue;
            }
            if arrival {
                self.land_instant(event_time);
                continue;
            }
            let Some((p, k)) = self.clock.lanes.pop_slot() else {
                debug_assert!(false, "a peeked slot is still queued");
                break;
            };
            self.clock.time = event_time;
            self.clock.events += 1;
            self.handle_tx(p, k);
        }
        self.clock.time = self.clock.time.max(t);
    }

    /// Reads ahead for the copies of transmission `entry`, which are
    /// about to land: what [`EventDriver::incorporate`] searches and
    /// reads of each receiver's reception row, then one pass per level
    /// of [`Protocol::peek_state`] over the receivers' states. A pass per
    /// level, not a walk per copy: the loads of one level do not wait
    /// on each other, and the next level finds its addresses in cache.
    fn look_ahead(&mut self, entry: u32, sender: NodeId) {
        let (protocol, table) = (&self.env.protocol, &mut self.env.table);
        let receivers = &self.clock.lanes.entries[entry as usize].receivers;
        let mut sum = receivers.iter().fold(0u64, |sum, &(_, at)| {
            let (slots, row) = (table.heard.slots(at.index()), table.heard.row(at.index()));
            let adjacent = slots.first().map_or(0, |q| q.index() as u64);
            let heard = row.first().map_or(0, |&epoch| u64::from(epoch));
            sum.wrapping_add(adjacent).wrapping_add(heard)
        });
        let states = table.states.slots_mut(&table.order);
        for level in 0..P::PEEK_LEVELS {
            sum = receivers.iter().fold(sum, |sum, &(_, at)| {
                sum.wrapping_add(protocol.peek_state(&states[at.index()], sender, level))
            });
        }
        // Loads nothing depends on; the black box keeps them.
        std::hint::black_box(sum);
    }

    fn handle_tx(&mut self, p: NodeId, slot: u64) {
        let at = self.env.table.order.slot(p);
        let armed = &self.clock.armed;
        debug_assert!(armed.contains(at), "a queued slot is an armed one");
        let gated = self.is_gated();
        if gated && !self.env.table.send_pending.contains(at) {
            // Nothing to say and nobody waiting: the slot lapses and
            // the node goes silent until something wakes it.
            self.clock.armed.remove(at);
            return;
        }
        let (now, t) = (self.now(), self.clock.time);
        // The guarded-command loop runs continuously; executing the
        // guards right before snapshotting the shared variables gives
        // the freshest beacon — unless, under gating, the node is
        // settled and the pass could change nothing. The draw is
        // derived per (instant, node), so a muted slot consumes nothing.
        let state_changed = self.update(p, at, now, false, false);
        if state_changed {
            self.env.table.changes.insert(at);
        }
        let beacon_changed = self.env.refresh_stale_beacon(at, !gated || state_changed);
        if gated && !state_changed && !beacon_changed && self.env.all_caught_up(at) {
            // Retire: state at a fixpoint, beacon content unchanged,
            // every neighbor has incorporated it. The eager twin keeps
            // broadcasting here — pure no-ops by the silence contract.
            self.env.table.send_pending.remove(at);
            self.clock.armed.remove(at);
            return;
        }
        // Broadcast.
        let Sim { env, clock } = self;
        env.tally.senders += 1;
        // The row names exactly the node's neighbors.
        env.tally.frames_attempted += env.table.heard.slots(at.index()).len();
        // One derived stream per (slot, sender) decides every copy's
        // fate — independent of who else is transmitting, which is what
        // keeps muted senders unobservable. Gated-contention media fold
        // the full in-range population in as statistical contenders
        // (FullOccupancy): the eager twin beacons every period, so
        // using the same per-frame law in both modes keeps gating
        // unobservable there too.
        let heard = &mut clock.heard;
        heard.clear();
        match clock.medium.kind() {
            MediumKind::Contention => {
                let streams = env.contention_streams(slot);
                clock.delivery.reset(env.topo.len());
                clock.medium.deliver_occupied_into(
                    &env.topo,
                    &[p],
                    &mwn_radio::FullOccupancy,
                    &streams,
                    &mut clock.delivery,
                );
                // One sender: the receivers are the ones it touched,
                // sorted into the neighbor-id order `fates` lists its
                // receivers in.
                heard.extend_from_slice(&clock.delivery.touched);
                heard.sort_unstable();
            }
            MediumKind::Lossless | MediumKind::Independent => {
                let mut rng = env.medium_rng(slot, p);
                clock.medium.fates(&env.topo, p, &mut rng, heard);
            }
        }
        // The copies that made it share one pool entry, their receivers
        // read off the sender's row (both in neighbor-id order).
        if !heard.is_empty() {
            let (table, i) = (&env.table, at.index());
            let entry = clock.lanes.hold(&table.beacons[i], table.read_epoch[i], at);
            let receivers = &mut clock.lanes.entries[entry as usize].receivers;
            let row = env.topo.neighbors(p).iter().zip(table.heard.slots(i));
            let mut heard = heard.iter().peekable();
            let through = row.filter(|(q, _)| heard.next_if_eq(q).is_some());
            receivers.extend(through.map(|(&q, &slot)| (q, slot)));
            debug_assert!(heard.next().is_none(), "every receiver is a neighbor");
            clock.lanes.push_transmission(Transmission {
                time: t + clock.config.frame_time,
                sender: p,
                tx_epoch: table.epoch[i],
                entry,
            });
        }
        // Schedule the next slot (the node stays armed); under gating
        // a later pop decides whether it still has anything to say.
        let next = clock.schedule.slot_time(p, slot + 1);
        clock.lanes.push_slot(next, p, slot + 1);
    }

    /// Lands every copy arriving at `t`, the arrival lane's front
    /// instant, in `(receiver, sender)` order, after reading ahead once
    /// per transmission. Nothing a copy does can come between: a woken
    /// receiver's slot fires at `t` at the earliest, after the
    /// arrivals, and only a slot transmits.
    fn land_instant(&mut self, t: f64) {
        self.clock.time = t;
        let now = self.now();
        let (landing, copies) = self.clock.lanes.open_instant();
        if P::PEEK_LEVELS > 0 {
            for j in 0..landing {
                let tx = self.clock.lanes.transmissions[j];
                self.look_ahead(tx.entry, tx.sender);
            }
        }
        self.clock.events += copies as u64;
        for i in 0..copies {
            let (tx, r, at) = self.clock.lanes.copy(i);
            if self.incorporate(&tx, r, at, now) {
                let table = &mut self.env.table;
                table.changes.insert(at);
                table.beacon_stale.insert(at);
                // The state moved: r may have a new beacon to announce
                // — wake its slot schedule (its next pop decides).
                table.send_pending.insert(at);
                self.arm(at);
            }
        }
        self.clock.lanes.close_instant(landing);
    }

    /// Lands one frame copy at its receiver: the receive guard — none
    /// for a gated receiver that already holds what it would read
    /// ([`engine::gate`], against the sender's read epoch when it
    /// transmitted) — then one pass of the guarded assignments
    /// ([`EventDriver::update`]), at logical step `now`. Returns
    /// whether, under gating, the receiver's state changed.
    fn incorporate(&mut self, tx: &Transmission, r: NodeId, at: Slot, now: u64) -> bool {
        let (s, gated) = (tx.sender, self.is_gated());
        let (protocol, table) = (&self.env.protocol, &mut self.env.table);
        let row = table.heard.slots(at.index());
        debug_assert!(
            engine::row_is_adjacency(&table.order, row, &self.env.topo, r),
            "the reception row of {r} names another adjacency"
        );
        // The link may have vanished while the frame was in flight
        // (mobility, isolation): radio range is a hard constraint, and
        // a frame whose link vanished mid-flight never counts as
        // delivered. A scan of the row's slots finds the sender without
        // reading an id.
        let InFlight {
            beacon, read, from, ..
        } = &self.clock.lanes.entries[tx.entry as usize];
        let Some(idx) = row.iter().position(|q| q == from) else {
            return false;
        };
        self.env.tally.frames_delivered += 1;
        let state = &mut table.states.slots_mut(&table.order)[at.index()];
        engine::reserve(protocol, state, row, table.heard.degrees());
        let skipped = |copy: &mut P::State| protocol.receive(r, copy, s, beacon, now);
        let reference = (&*state, &mut table.scratch_state, skipped);
        let held = table.heard.get_mut(at.index(), idx);
        let fate = engine::gate(gated, held, [*read, tx.tx_epoch], (r, s), reference);
        // Gated, two exact reports: together they can only err towards
        // "changed" (an update that undoes the receive), and a wake
        // that finds nothing to say retires at its slot.
        let scratch = &mut table.scratch_state;
        let received = match fate {
            Fate::Stale => return false, // the pass after it would be a no-op too
            Fate::Held => false,
            Fate::Receive if gated => protocol.receive_changed(r, state, s, beacon, now, scratch),
            Fate::Receive => {
                protocol.receive(r, state, s, beacon, now);
                false
            }
        };
        self.env.tally.receives += usize::from(fate == Fate::Receive);
        self.env.tally.held += usize::from(fate == Fate::Held);
        let moved = self.update(r, at, now, received, fate == Fate::Held);
        received || moved
    }

    /// One pass of `p`'s guarded assignments at this event — under
    /// gating, only where [`engine::settle`] lets it run: `p`'s
    /// `update_dirty` bit is set, or `received` says a receive just
    /// changed its state. A pass skipped at an arrival whose frame was
    /// `held` counts as settled. Returns whether, under gating, the
    /// pass changed the state, and leaves the bit saying so.
    ///
    /// A skipped pass would have drawn from a stream derived for this
    /// (instant, node) alone, so skipping it moves no other draw. `at`
    /// is `p`'s table slot.
    fn update(&mut self, p: NodeId, at: Slot, now: u64, received: bool, held: bool) -> bool {
        let (tick, gated, env) = (self.clock.time.to_bits(), self.is_gated(), &mut self.env);
        let (protocol, table, base) = (&env.protocol, &mut env.table, env.update_base);
        let rng = || split_rng(base, tick, u64::from(p.value()));
        let state = &mut table.states.slots_mut(&table.order)[at.index()];
        if !gated {
            protocol.update(p, state, now, &mut rng());
            env.tally.updates += 1;
            return false;
        }
        let dirty = table.update_dirty.contains(at);
        let pass = |copy: &mut P::State| protocol.update(p, copy, now, &mut rng());
        let reference = (&*state, &mut table.scratch_state, pass);
        if !engine::settle(dirty, received, p, reference) {
            env.tally.settled += usize::from(held);
            return false;
        }
        env.tally.updates += 1;
        let moved = protocol.update_changed(p, state, now, &mut rng(), &mut table.scratch_state);
        if moved {
            table.update_dirty.insert(at);
        } else {
            table.update_dirty.remove(at);
        }
        moved
    }

    /// Advances to time `t` as one observation step of the shared run
    /// loop: afterwards the environment-change flag and the table's
    /// `changed` column describe this step alone ([`Env::end_step`]).
    fn advance_to(&mut self, t: f64) {
        self.env.env_changed = false;
        self.run_until_time(t);
        let gated = self.is_gated();
        self.env.end_step(gated);
    }

    /// Current simulation time.
    pub fn time(&self) -> f64 {
        self.clock.time
    }

    /// Events processed so far (beacon slots fired plus frame
    /// copies landed). For a stabilized, gated network this freezes: a
    /// quiet interval processes no events at all.
    pub fn events_processed(&self) -> u64 {
        self.clock.events
    }
}

impl<P: Observable, M: Medium> EventDriver<P, M> {
    /// [`EventDriver::run_to`] with a free sampling interval: runs until
    /// the output is unchanged for `quiet_samples` consecutive samples
    /// taken at `start + k · sample_interval`, or until `max_time` has
    /// elapsed from the current simulation time.
    ///
    /// Returns the elapsed time at which the output last changed, or
    /// `None` on timeout.
    pub fn run_until_output_stable(
        &mut self,
        sample_interval: f64,
        quiet_samples: u64,
        max_time: f64,
    ) -> Option<f64> {
        assert!(sample_interval > 0.0, "sample interval must be positive");
        let (t0, mut k) = (self.clock.time, 0);
        let stop = StopWhen::stable_for(quiet_samples).within((max_time / sample_interval) as u64);
        let sample = |d: &mut Self| {
            k += 1;
            d.advance_to(t0 + k as f64 * sample_interval);
            k
        };
        let report = engine::run_to(self, &stop, 0, sample);
        report.stabilized.map(|k| k as f64 * sample_interval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{GatedFlood, MaxFlood, PeekFlood};
    use crate::{Fault, Scenario};
    use mwn_graph::builders;
    use mwn_radio::{BernoulliLoss, SlottedCsma};
    use std::cmp::Ordering;

    fn driver<P: Protocol, M: Medium>(protocol: P, medium: M, topo: Topology) -> EventDriver<P, M> {
        EventDriver::new(protocol, medium, topo, EventConfig::default(), 3)
            .expect("valid configuration")
    }

    /// The order the lanes replace, kept as their reference: a totally
    /// ordered key over every event, the earliest smallest.
    ///
    /// Ties at the same instant break on **intrinsic identity** (frame
    /// arrivals before beacon slots, then node ids), never on insertion
    /// order: a gated execution schedules fewer events than its eager
    /// twin, so an insertion-sequence tiebreak would let the *schedule*
    /// leak into the trajectory.
    #[derive(Clone, Copy, Debug)]
    struct EventKey {
        time: f64,
        /// [`ARRIVAL`] or [`SLOT`]: a state change carried by a frame is
        /// visible to a same-instant broadcast.
        class: u8,
        /// An arrival's receiver, or the slot's node.
        a: u32,
        /// An arrival's sender, or the slot's number.
        b: u64,
    }

    const ARRIVAL: u8 = 0;
    const SLOT: u8 = 1;

    impl PartialEq for EventKey {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }
    impl Eq for EventKey {}
    impl PartialOrd for EventKey {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for EventKey {
        fn cmp(&self, other: &Self) -> Ordering {
            self.time
                .total_cmp(&other.time)
                .then_with(|| self.class.cmp(&other.class))
                .then_with(|| self.a.cmp(&other.a))
                .then_with(|| self.b.cmp(&other.b))
        }
    }

    /// The lanes next to the reference order: every key, slots and
    /// frame copies alike, in one min-heap.
    struct LanesAndHeap {
        lanes: Lanes<()>,
        heap: BinaryHeap<Reverse<EventKey>>,
        /// The number of each node's queued slot, if any.
        armed: [Option<u64>; 6],
        /// Slots pushed so far: each gets its own number.
        pushed: u64,
    }

    impl LanesAndHeap {
        /// A node has at most one slot queued, as in the driver.
        fn arm(&mut self, time: f64, p: NodeId) {
            if self.armed[p.index()].is_none() {
                let k = self.pushed;
                self.pushed += 1;
                self.armed[p.index()] = Some(k);
                self.lanes.push_slot(time, p, k);
                let (class, a, b) = (SLOT, p.value(), k);
                self.heap.push(Reverse(EventKey { time, class, a, b }));
            }
        }

        /// A transmission of `sender` landing at `time` on `receivers`,
        /// ascending; each receiver's slot is its id.
        fn send(&mut self, time: f64, sender: NodeId, receivers: &[NodeId]) {
            let entry = self.lanes.hold(&(), 0, Slot::new(sender.value()));
            for &r in receivers {
                let (class, a, b) = (ARRIVAL, r.value(), u64::from(sender.value()));
                self.heap.push(Reverse(EventKey { time, class, a, b }));
                let pooled = &mut self.lanes.entries[entry as usize];
                pooled.receivers.push((r, Slot::new(r.value())));
            }
            let tx_epoch = 0;
            let tx = Transmission {
                time,
                sender,
                tx_epoch,
                entry,
            };
            self.lanes.push_transmission(tx);
        }
    }

    #[test]
    fn two_lane_pop_order_equals_one_heap_over_all_keys() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const FRAME_TIME: f64 = 0.25;
        assert_eq!(std::mem::size_of::<Transmission>(), 24);
        let (mut merged, mut alone) = (0, 0);
        for seed in 0..300 {
            let mut rng = StdRng::seed_from_u64(seed);
            // Every time is a multiple of the frame time, so instants
            // collide all the time: transmissions landing at one instant
            // on overlapping receivers, slots falling on an arrival
            // instant.
            let mut draw = |max: u32| rng.random_range(0..=max);
            let mut q = LanesAndHeap {
                lanes: Lanes::new(6),
                heap: BinaryHeap::new(),
                armed: [None; 6],
                pushed: 0,
            };
            let nodes = q.armed.len() as u32;
            for p in 0..nodes {
                q.arm(f64::from(draw(3)) * FRAME_TIME, NodeId::new(p));
            }
            let mut popped = 0u32;
            while !q.heap.is_empty() {
                let at = format!("seed {seed}");
                let (time, arrival) = q.lanes.next_event();
                if arrival {
                    // The whole instant lands, copy by copy, each the
                    // next key of the reference.
                    let (landing, copies) = q.lanes.open_instant();
                    let (free, entries) = (q.lanes.free.len(), q.lanes.entries.len());
                    (merged, alone) = if landing > 1 {
                        (merged + 1, alone)
                    } else {
                        (merged, alone + 1)
                    };
                    for i in 0..copies {
                        let Reverse(want) = q.heap.pop().expect("the heap holds each copy");
                        let (tx, r, slot) = q.lanes.copy(i);
                        assert_eq!(tx.time.to_bits(), want.time.to_bits(), "{at}");
                        let got = (ARRIVAL, r.value(), u64::from(tx.sender.value()));
                        assert_eq!((want.class, want.a, want.b), got, "{at}");
                        assert_eq!(slot, Slot::new(r.value()), "{at}");
                        popped += 1;
                        if popped < 200 && draw(1) > 0 {
                            // A woken receiver's slot may fall on this
                            // very instant.
                            q.arm(tx.time + f64::from(draw(2)) * FRAME_TIME, r);
                        }
                    }
                    q.lanes.close_instant(landing);
                    // Every entry of the instant is freed, and no other.
                    assert_eq!(q.lanes.free.len(), free + landing, "{at}");
                    assert_eq!(q.lanes.entries.len(), entries, "{at}");
                    continue;
                }
                let Reverse(want) = q.heap.pop().expect("not empty");
                let (p, k) = q
                    .lanes
                    .pop_slot()
                    .expect("the lanes hold what the heap holds");
                assert_eq!(time.to_bits(), want.time.to_bits(), "{at}");
                assert_eq!((want.class, want.a, want.b), (SLOT, p.value(), k), "{at}");
                assert_eq!(q.armed[p.index()].take(), Some(k), "{at}: the k pushed");
                popped += 1;
                if popped >= 200 {
                    continue;
                }
                // A transmission to a random set of receivers, then
                // maybe the next slot.
                let heard: Vec<NodeId> = (0..nodes)
                    .filter(|_| draw(1) > 0)
                    .map(NodeId::new)
                    .collect();
                if !heard.is_empty() {
                    q.send(time + FRAME_TIME, p, &heard);
                }
                if draw(2) > 0 {
                    q.arm(time + f64::from(1 + draw(3)) * FRAME_TIME, p);
                }
            }
            let (drained, _) = q.lanes.next_event();
            assert_eq!(drained, f64::INFINITY, "seed {seed}: the lanes drained too");
            assert!(popped > 100, "seed {seed}: only {popped} events");
            let entries = q.lanes.entries.len();
            assert_eq!(
                q.lanes.free.len(),
                entries,
                "seed {seed}: every entry freed"
            );
        }
        // Both ways an instant opens were taken, many times over.
        assert!(
            merged > 1000 && alone > 1000,
            "{merged} merged, {alone} alone"
        );
    }

    #[test]
    fn a_nan_horizon_processes_nothing_and_leaves_the_clock_alone() {
        fn stays_put<P: Protocol, M: Medium>(d: &mut EventDriver<P, M>) {
            let before = (d.time(), d.events_processed(), d.messages_total());
            d.run_until_time(f64::NAN);
            let after = (d.time(), d.events_processed(), d.messages_total());
            assert_eq!(before, after);
        }
        // A drained queue (the old loop popped from it and panicked)…
        let mut drained = driver(GatedFlood, PerfectMedium, builders::line(4));
        drained.run_until_time(60.0);
        let (next, _) = drained.clock.lanes.next_event();
        assert_eq!(next, f64::INFINITY, "stabilized and silent");
        stays_put(&mut drained);
        // …and one that never drains (the old loop never left).
        let mut eager = driver(MaxFlood, PerfectMedium, builders::line(4));
        eager.run_until_time(5.0);
        stays_put(&mut eager);
        // Nor is anything due at infinity once the queue is empty.
        let events = drained.events_processed();
        drained.run_until_time(f64::INFINITY);
        assert_eq!(drained.events_processed(), events);
    }

    #[test]
    fn the_look_ahead_pass_reads_every_arrival_at_every_level_and_nothing_sees_it() {
        use std::sync::atomic::Ordering::Relaxed;
        fn counts<P: Protocol, M: Medium>(d: &EventDriver<P, M>) -> [u64; 4] {
            [
                d.messages_total(),
                d.events_processed(),
                d.frames_attempted(),
                d.frames_delivered(),
            ]
        }
        let topo = builders::grid(6, 6, 0.22);
        let medium = || BernoulliLoss::new(0.6);
        let mut d = driver(PeekFlood::default(), medium(), topo.clone());
        let mut twin = driver(GatedFlood, medium(), topo);
        assert!(d.is_gated() && twin.is_gated());
        let victim = NodeId::new(14);
        // The copies of the transmissions in flight that `of` selects
        // whose receiver `to` passes. An instant lands whole, so none
        // of them has begun to land.
        fn copies<P: Protocol, M: Medium>(
            d: &EventDriver<P, M>,
            of: impl Fn(&Transmission) -> bool,
            to: impl Fn(NodeId) -> bool,
        ) -> u64 {
            let lanes = &d.clock.lanes;
            let left = |tx: &Transmission| {
                let receivers = &lanes.entries[tx.entry as usize].receivers;
                receivers.iter().filter(|&&(r, _)| to(r)).count()
            };
            lanes
                .transmissions
                .iter()
                .filter(|tx| of(tx))
                .map(left)
                .sum::<usize>() as u64
        }
        let touching = |d: &EventDriver<PeekFlood, BernoulliLoss>| {
            let from_victim = copies(d, |tx| tx.sender == victim, |_| true);
            from_victim + copies(d, |tx| tx.sender != victim, |r| r == victim)
        };
        let mut severed = 0;
        for period in 0..60 {
            if period == 12 {
                d.inject(&Fault::CorruptAll).expect("valid fault");
                twin.inject(&Fault::CorruptAll).expect("valid fault");
                // Wait until copies to or from the victim are in the
                // air, then cut its links under them.
                while touching(&d) == 0 {
                    assert!(d.time() < 14.0, "the re-flood reaches the victim");
                    let t = d.time() + 0.005;
                    d.run_until_time(t);
                    twin.run_until_time(t);
                }
                severed = touching(&d);
                let landing = copies(&d, |_| true, |_| true) - severed;
                let delivered = d.frames_delivered();
                d.inject(&Fault::Isolate(victim)).expect("valid fault");
                twin.inject(&Fault::Isolate(victim)).expect("valid fault");
                let t = d.time() + EventConfig::default().frame_time;
                d.run_until_time(t);
                twin.run_until_time(t);
                // A copy whose link vanished mid-flight lands (and is
                // read ahead for, below) but never counts as delivered.
                assert_eq!(d.frames_delivered() - delivered, landing);
            }
            d.step();
            twin.step();
            // Inert: the twin that declares no level is indistinguishable.
            assert_eq!(d.states(), twin.states(), "period {period}");
            assert_eq!(counts(&d), counts(&twin), "period {period}");
            // Wired: every copy that has landed was read once per
            // level — no more.
            let arrivals = d.frames_delivered() + severed;
            let peeks = d.env.protocol.state_peeks.load(Relaxed) as u64;
            let levels = u64::from(PeekFlood::PEEK_LEVELS);
            assert_eq!(peeks, levels * arrivals, "period {period}");
        }
        assert!(severed > 0 && d.frames_delivered() > 0);
        let healed = |(i, &s): (usize, &u32)| i == victim.index() || s == 35;
        assert!(d.states().iter().enumerate().all(healed), "around the cut");
    }

    #[test]
    fn flood_converges_in_continuous_time() {
        let mut d = driver(MaxFlood, PerfectMedium, builders::line(6));
        d.run_until_time(40.0);
        assert!(d.states().iter().all(|&s| s == 5));
        assert!(d.measured_tau() > 0.5);
    }

    #[test]
    fn stabilization_time_scales_with_distance() {
        // Information needs ~1 beacon period per hop: a longer line
        // takes proportionally longer.
        let mut short = driver(MaxFlood, PerfectMedium, builders::line(4));
        let mut long = driver(MaxFlood, PerfectMedium, builders::line(30));
        let t_short = short
            .run_until_output_stable(0.5, 10, 500.0)
            .expect("short line converges");
        let t_long = long
            .run_until_output_stable(0.5, 10, 500.0)
            .expect("long line converges");
        assert!(
            t_long > t_short,
            "30-hop line ({t_long}) should take longer than 4-hop ({t_short})"
        );
    }

    #[test]
    fn collisions_occur_on_dense_graphs() {
        // Eleven contenders over eight slots: the per-frame clear
        // probability on K12 keeps τ bounded away from both 0 and 1
        // regardless of the RNG stream.
        let mut d = driver(MaxFlood, SlottedCsma::new(8), builders::complete(12));
        d.run_until_time(30.0);
        assert!(
            d.measured_tau() < 0.9,
            "eight slots on K12 must collide, τ = {}",
            d.measured_tau()
        );
        assert!(d.measured_tau() > 0.0);
    }

    #[test]
    fn corruption_then_reconvergence() {
        let mut d = driver(MaxFlood, PerfectMedium, builders::ring(8));
        d.run_until_time(20.0);
        d.inject(&Fault::CorruptAll).expect("a valid fault");
        assert!(d.states().iter().all(|&s| s == 0));
        d.run_until_time(60.0);
        assert!(d.states().iter().all(|&s| s == 7));
    }

    #[test]
    fn loss_slows_but_does_not_stop_convergence() {
        let mut d = driver(MaxFlood, BernoulliLoss::new(0.4), builders::line(5));
        d.run_until_time(200.0);
        assert!(d.states().iter().all(|&s| s == 4));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let cfg = EventConfig::default();
            let mut d = EventDriver::new(MaxFlood, PerfectMedium, builders::ring(10), cfg, seed)
                .expect("valid configuration");
            d.run_until_time(15.0);
            d.states().to_vec()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn scripted_faults_fire_at_logical_steps() {
        use crate::FaultPlan;
        // Corrupt everyone at logical step 20 (t = 20 beacon periods):
        // by then the line has converged, so the fault visibly knocks
        // the states down before the flood heals them again.
        let mut plan = FaultPlan::new();
        plan.at(20, Fault::CorruptAll);
        let mut driver = Scenario::new(MaxFlood)
            .topology(builders::line(5))
            .seed(6)
            .faults(plan)
            .build_events(EventConfig::default())
            .expect("event scenario with faults builds");
        driver.run_until_time(19.5);
        assert!(
            driver.states().iter().all(|&s| s == 4),
            "converged before the fault"
        );
        driver.run_until_time(20.0);
        assert!(
            driver.states().iter().any(|&s| s < 4),
            "corruption at step 20 must be visible at t = 20"
        );
        driver.run_until_time(60.0);
        assert!(
            driver.states().iter().all(|&s| s == 4),
            "self-stabilization heals the scripted fault"
        );
    }

    #[test]
    fn scripted_isolation_cuts_the_event_driver_topology() {
        use crate::FaultPlan;
        let mut plan = FaultPlan::new();
        plan.at(0, Fault::Isolate(NodeId::new(2)));
        let mut driver = Scenario::new(MaxFlood)
            .topology(builders::line(5))
            .seed(7)
            .faults(plan)
            .build_events(EventConfig::default())
            .expect("builds");
        driver.run_until_time(50.0);
        assert_eq!(
            *driver.state(NodeId::new(0)),
            1,
            "max id cannot cross the cut"
        );
    }

    #[test]
    fn scripted_fault_injection_preserves_beacon_timing() {
        use crate::FaultPlan;
        // A zero-effect fault script must not perturb the trajectory:
        // CorruptFraction draws from the dedicated fault stream.
        let run = |script: bool| {
            let mut scenario = Scenario::new(MaxFlood).topology(builders::ring(8)).seed(9);
            if script {
                let mut plan = FaultPlan::new();
                plan.at(5, Fault::CorruptFraction(0.0));
                scenario = scenario.faults(plan);
            }
            let mut driver = scenario
                .build_events(EventConfig::default())
                .expect("builds");
            driver.run_until_time(30.0);
            (driver.states().to_vec(), driver.measured_tau())
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn gated_event_driver_goes_silent_after_stabilization() {
        let mut d = driver(GatedFlood, PerfectMedium, builders::line(6));
        assert!(d.is_gated());
        d.run_until_time(40.0);
        assert!(d.states().iter().all(|&s| s == 5));
        // Let the last pending beacons retire, then measure silence.
        d.run_until_time(45.0);
        let (msgs, events) = (d.messages_total(), d.events_processed());
        d.run_until_time(1045.0);
        assert_eq!(d.messages_total(), msgs, "silent network must not send");
        assert_eq!(
            d.events_processed(),
            events,
            "a quiet interval processes zero events"
        );
        // Waking one node re-floods without a full restart.
        d.inject(&Fault::CorruptAll).expect("a valid fault");
        d.run_until_time(1100.0);
        assert!(d.states().iter().all(|&s| s == 5), "healed after wake");
        assert!(d.messages_total() > msgs, "healing requires traffic");
    }

    #[test]
    fn gated_equals_eager_in_continuous_time() {
        // The continuous-time equivalence: muting silent senders on an
        // independent-fates medium is unobservable in the trajectory.
        let run = |eager: bool| {
            let mut d = driver(GatedFlood, BernoulliLoss::new(0.7), builders::ring(9));
            d.set_eager(eager);
            d.run_until_time(25.0);
            d.inject(&Fault::CorruptAll).expect("a valid fault");
            let stable = d.run_until_output_stable(0.5, 6, 400.0);
            (d.states().to_vec(), stable)
        };
        assert_eq!(run(true), run(false));
    }

    /// Gated ≡ eager for a protocol that takes many guard passes to
    /// settle, through corruption, isolation, crash-recover and
    /// mobility. The two disciplines run their passes at different
    /// events (the eager twin hears every neighbor every period), so a
    /// node's climb takes a different path, and the draws folded into
    /// `noise` differ; everything else is a function of where the climb
    /// ends. A driver that skipped a pass at a node still climbing would
    /// leave it short, and debug builds would name the node.
    #[test]
    fn a_slow_settling_protocol_is_gated_like_its_eager_twin() {
        use crate::testkit::{Climb, Climber, Drift};
        use crate::FaultPlan;
        fn ends(d: &EventDriver<Climb, impl Medium>) -> Vec<(u32, u32, u32)> {
            let end = |s: &Climber| (s.value, s.heard, s.moves);
            d.states().iter().map(end).collect()
        }
        fn run<M: Medium + Clone>(medium: M) {
            let topo = builders::grid(6, 6, 0.25);
            let build = |eager: bool| {
                let mut plan = FaultPlan::new();
                plan.at(60, Fault::CorruptAll)
                    .at(120, Fault::Isolate(NodeId::new(14)))
                    .at(
                        180,
                        Fault::CrashRecover {
                            node: NodeId::new(21),
                            dark_for: 10,
                        },
                    )
                    .at(260, Fault::CorruptNode(NodeId::new(8)));
                let mut d = Scenario::new(Climb)
                    .medium(medium.clone())
                    .topology(topo.clone())
                    .seed(11)
                    .faults(plan)
                    .mobility(Drift::new(&topo, 240..300))
                    .build_events(EventConfig::default())
                    .expect("valid event scenario");
                d.set_eager(eager);
                d
            };
            let (mut gated, mut eager) = (build(false), build(true));
            assert!(gated.is_gated() && !eager.is_gated());
            // Each checkpoint ends a settled stretch, just before the
            // next fault.
            for t in [59.5, 119.5, 179.5, 239.5, 400.0] {
                gated.run_until_time(t);
                eager.run_until_time(t);
                let name = gated.clock.medium.name();
                assert_eq!(ends(&gated), ends(&eager), "{name}, t = {t}");
                assert_eq!(gated.outputs(), eager.outputs(), "{name}, t = {t}");
                let arrived = |(i, s): (usize, &Climber)| s.value == s.heard.max(i as u32);
                assert!(
                    gated.states().iter().enumerate().all(arrived),
                    "{name}, t = {t}: every climb has ended"
                );
            }
            // From the bottom to 35, twice over for everyone.
            let climbed: u32 = gated.states().iter().map(|s| s.moves).sum();
            assert!(
                climbed > 2 * 36 * 30,
                "the climbs were long: {climbed} moves"
            );
            assert!(gated.updates() < eager.updates());
        }
        run(PerfectMedium);
        run(BernoulliLoss::new(0.7));
    }

    #[test]
    fn gated_contention_media_gate_in_continuous_time() {
        // Under the statistical-occupancy contract both shipped CSMA
        // media gate silent senders: a stabilized CSMA network drains
        // its queue like Bernoulli does.
        let mut d = driver(GatedFlood, SlottedCsma::new(8), builders::line(4));
        assert!(d.is_gated(), "gated contention extends to the event clock");
        d.run_until_time(40.0);
        assert!(d.states().iter().all(|&s| s == 3));
        d.run_until_time(60.0);
        let (msgs, events) = (d.messages_total(), d.events_processed());
        d.run_until_time(1060.0);
        assert_eq!(d.messages_total(), msgs, "stabilized CSMA goes silent");
        assert_eq!(d.events_processed(), events, "quiet eon processes nothing");
    }

    #[test]
    fn invalid_config_rejected() {
        let cfg = EventConfig {
            frame_time: 0.0,
            ..EventConfig::default()
        };
        let result = EventDriver::new(MaxFlood, PerfectMedium, builders::line(2), cfg, 0);
        let Err(SimError::InvalidConfig(text)) = result else {
            panic!("a zero frame time must be rejected");
        };
        assert_eq!(text, "frame time must be positive");
        // NaN fails every comparison, so it must fail "positive" and the
        // jitter's range too: a NaN frame time would land no frame, a
        // NaN jitter hang the slot search. Asked of the check alone,
        // which cannot hang.
        let nan_frame = EventConfig {
            frame_time: f64::NAN,
            ..EventConfig::default()
        };
        let nan_jitter = EventConfig {
            jitter: f64::NAN,
            ..EventConfig::default()
        };
        let (frame, jitter) = ("frame time must be positive", "jitter must be in [0, 1)");
        assert_eq!(nan_frame.check(), Err(frame.to_string()));
        assert_eq!(nan_jitter.check(), Err(jitter.to_string()));
    }
}
