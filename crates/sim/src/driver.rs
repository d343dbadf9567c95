//! The one driver: an environment and a clock.

use mwn_graph::{NodeId, Point2, Topology, TopologyDelta};

use crate::engine::{self, Env, Slot};
use crate::{
    Corruptible, Fault, Observable, Protocol, RunReport, SimError, StepActivity, StopWhen,
};

/// A simulation: the one environment every execution model runs in —
/// protocol, topology, the columnar node table, fault script, followup
/// queue and dynamics — advanced by a clock `C`. The clock is the
/// execution model, and all a clock adds is its schedule and its frame
/// transport:
///
/// * [`Rounds`](crate::Rounds) — the synchronous round ([`Network`](crate::Network));
/// * [`Events`](crate::Events) — randomized continuous-time beacons
///   ([`EventDriver`](crate::EventDriver));
/// * [`Actors`](crate::Actors) — message-passing processes over a
///   worker pool ([`ActorDriver`](crate::ActorDriver)).
///
/// Everything else is written once, here: reads, mutators, faults,
/// the `run_to` observe loop. Logical time is the paper-comparable
/// clock — steps on the round clock, beacon periods on the other two.
pub struct Sim<P: Protocol, C> {
    /// Protocol, topology, node table and the one fault path.
    pub(crate) env: Env<P>,
    pub(crate) clock: C,
}

mod sealed {
    pub trait Sealed {}
}
pub(crate) use sealed::Sealed;

/// The execution model a [`Sim`] runs under: [`Rounds`](crate::Rounds),
/// [`Events`](crate::Events) or [`Actors`](crate::Actors), and no
/// other (the trait is sealed).
pub trait Clock<P: Protocol>: Sized + Sealed {
    /// Advances `sim` by one logical step — a round, a beacon period —
    /// and returns the new step count.
    fn step(sim: &mut Sim<P, Self>) -> u64;

    /// The logical time: whole steps elapsed.
    fn now(&self) -> u64;

    /// Whether `sim` mutes silent nodes now: the protocol's
    /// [`crate::Activity::Gated`] contract, no eager pin, and a medium
    /// this clock can gate.
    fn is_gated(sim: &Sim<P, Self>) -> bool;

    /// Runs after every change made to the environment between steps —
    /// a fault, a mutator, an eager switch. The period clocks read the
    /// environment afresh at every step and do nothing; the event clock
    /// takes the touched nodes into its change set and re-arms the
    /// senders the change woke.
    fn sync(_sim: &mut Sim<P, Self>) {}
}

impl<P: Protocol + std::fmt::Debug, C: Clock<P>> std::fmt::Debug for Sim<P, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("env", &self.env)
            .field("now", &self.now())
            .finish_non_exhaustive()
    }
}

impl<P: Protocol, C: Clock<P>> Sim<P, C> {
    /// Advances logical time by one step; returns the new step count.
    /// What is due at that step (faults, followups, mobility) fires as
    /// the next step begins — the fault clock of [`Driver`].
    pub fn step(&mut self) -> u64 {
        C::step(self)
    }

    /// Runs `steps` logical steps.
    pub fn run(&mut self, steps: u64) {
        for _ in 0..steps {
            self.step();
        }
    }

    /// The current logical time.
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// `true` when the driver is currently using dirty-set (gated)
    /// scheduling: the protocol declared [`crate::Activity::Gated`],
    /// the user did not pin eager scheduling, and the clock can gate
    /// the medium — on the round clock, independent frame fates
    /// (byte-identical gating) or the gated-contention contract
    /// (distributional gating via statistical slot occupancy).
    pub fn is_gated(&self) -> bool {
        C::is_gated(self)
    }

    /// Pins the driver to eager scheduling (`true`) or restores the
    /// automatic choice (`false`). Used by equivalence tests, audits
    /// and before/after benchmarks; both modes are byte-identical for
    /// protocols honoring the [`crate::Activity::Gated`] contract on
    /// independent-fates media.
    pub fn set_eager(&mut self, eager: bool) {
        self.env.set_eager(eager);
        C::sync(self);
    }

    /// The topology being simulated.
    pub fn topology(&self) -> &Topology {
        &self.env.topo
    }

    /// All node states, indexed by [`NodeId`].
    ///
    /// The node table works on its state column in storage order (by
    /// radio cell, for a unit-disk deployment); this read publishes it
    /// in id order first, unless nothing has touched a state since the
    /// last read did. Publishing is an in-place O(n) permutation with
    /// no allocation, undone by the next step that touches a state:
    /// a run that reads states every step pays two of them per step.
    /// [`Sim::outputs_into`] never publishes, and [`Sim::run_to`] only
    /// to evaluate a [`StopWhen::predicate`] leaf.
    pub fn states(&self) -> &[P::State] {
        self.env.states()
    }

    /// The state of one node — read through the same publish as
    /// [`Sim::states`].
    pub fn state(&self, p: NodeId) -> &P::State {
        &self.env.states()[p.index()]
    }

    /// Mutable state access (used by hand-written fault scenarios).
    /// The node is rescheduled — external mutation is a fault — and so
    /// are the neighbors that must re-announce themselves to it.
    pub fn state_mut(&mut self, p: NodeId) -> &mut P::State {
        self.env.wake_mutated(p);
        C::sync(self);
        self.env.table.state_mut(p)
    }

    /// The protocol instance.
    pub fn protocol(&self) -> &P {
        &self.env.protocol
    }

    /// Beacon broadcasts since construction — the message-count metric
    /// of the communication-efficiency literature (Devismes et al.):
    /// for a silent protocol under gated scheduling this stops growing
    /// once the network stabilizes.
    pub fn messages_total(&self) -> u64 {
        self.env.messages
    }

    /// Nodes whose state changed during the last step, in ascending id.
    /// Tracked under gated scheduling only: eager scheduling does not
    /// track changes.
    pub fn last_changed(&self) -> &[NodeId] {
        &self.env.table.changed_ids
    }

    /// Detaches any topology dynamics attached by
    /// [`crate::Scenario::mobility`] — "the nodes stop moving" — so
    /// the protocol can settle on the final topology. Returns whether
    /// dynamics were attached.
    pub fn stop_dynamics(&mut self) -> bool {
        self.env.stop_dynamics()
    }

    /// Severs every link of `p` by removing its edges — the node's
    /// radio goes dark but its state survives (crash of the *link*
    /// layer). Fires [`Protocol::link_down`] on both endpoints of every
    /// severed link. Use [`Sim::set_topology`] to restore
    /// connectivity.
    pub fn isolate(&mut self, p: NodeId) {
        self.env.isolate(p);
        C::sync(self);
    }

    /// Replaces the topology (same node count), e.g. after a mobility
    /// tick moved nodes. States are preserved: the protocol must cope
    /// with neighbors appearing and disappearing — that is the point.
    ///
    /// A wholesale swap carries no link-level delta, so it conservatively
    /// reschedules every node (and fires no [`Protocol::link_down`]
    /// notifications); incremental paths — mobility moves, scripted
    /// isolation — stay surgical.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NodeCountMismatch`] if the node count
    /// changes: protocol state is indexed by node, so nodes cannot be
    /// added or removed mid-run.
    pub fn set_topology(&mut self, topo: Topology) -> Result<(), SimError> {
        self.env.set_topology(topo)?;
        C::sync(self);
        Ok(())
    }

    /// Applies incremental node moves to the simulated topology
    /// (unit-disk only), waking exactly the nodes whose links changed.
    /// Returns the link churn.
    pub fn apply_moves(&mut self, moves: &[(NodeId, Point2)]) -> TopologyDelta {
        let delta = self.env.apply_moves(moves);
        C::sync(self);
        delta
    }
}

impl<P: Observable, C: Clock<P>> Sim<P, C> {
    /// Projects every node's observable output into `buf` (cleared
    /// first); the buffer can be reused across steps.
    pub fn outputs_into(&self, buf: &mut Vec<P::Output>) {
        self.env.outputs_into(buf);
    }

    /// The observable output of every node.
    pub fn outputs(&self) -> Vec<P::Output> {
        let mut buf = Vec::with_capacity(self.env.topo.len());
        self.outputs_into(&mut buf);
        buf
    }

    /// Runs until `stop` is satisfied and reports what happened — the
    /// primary run method of the [`crate::Scenario`] API, in logical
    /// steps on every clock.
    ///
    /// The condition is checked before the first step and after every
    /// step. A condition with no [`StopWhen::MaxSteps`] budget that
    /// never holds runs forever; every long-running experiment should
    /// carry a budget (see [`StopWhen::within`]).
    ///
    /// Under gated scheduling the per-step evaluation is incremental: a
    /// quiescent step extends stability streaks and reuses memoized
    /// predicate verdicts without projecting a single output —
    /// [`StopWhen::StableFor`] effectively reads "dirty set empty".
    ///
    /// # Examples
    ///
    /// See the crate-level example.
    pub fn run_to(&mut self, stop: &StopWhen<P>) -> RunReport {
        let start = self.now();
        engine::run_to(self, stop, start, Self::step)
    }
}

impl<P: Corruptible, C: Clock<P>> Sim<P, C> {
    /// Corrupts the state of one node arbitrarily.
    pub fn corrupt(&mut self, p: NodeId) {
        self.env.corrupt(p);
        C::sync(self);
    }

    /// Corrupts every node: the adversarial "arbitrary initial
    /// configuration" of the self-stabilization definition.
    pub fn corrupt_all(&mut self) {
        for p in 0..self.env.topo.len() as u32 {
            self.env.corrupt(NodeId::new(p));
        }
        C::sync(self);
    }

    /// Corrupts a deterministic pseudo-random subset of about
    /// `fraction` of the nodes; returns how many were corrupted.
    ///
    /// The subset is drawn from a dedicated fault stream, and every
    /// corruption from a stream derived per event: injecting faults
    /// never perturbs frame delivery or beacon timing, so two runs with
    /// the same seed see identical deliveries whether or not one of
    /// them injects faults.
    pub fn corrupt_fraction(&mut self, fraction: f64) -> usize {
        let corrupted = self.env.corrupt_fraction(fraction);
        C::sync(self);
        corrupted
    }

    /// Applies one [`Fault`] right now — the entry point the chaos
    /// harness uses to drive unscripted campaigns. Timed second phases
    /// (resurrection, healing, lie expiry) are scheduled as followups
    /// and fire as their due step begins, before that step's scripted
    /// faults and sends.
    ///
    /// An edge severed by several overlapping faults comes back only
    /// when the last fault holding it down ends.
    ///
    /// # Errors
    ///
    /// Whatever [`crate::FaultPlan::validate_for`] rejects — an
    /// out-of-range victim, a [`Fault::SetTopology`] that changes the
    /// node count, a disk region on an unpositioned topology. A
    /// rejected fault changes nothing.
    pub fn inject(&mut self, fault: &Fault) -> Result<(), SimError> {
        self.env.inject(self.now(), fault)?;
        C::sync(self);
        Ok(())
    }
}

/// What the two period clocks ([`Rounds`](crate::Rounds) and
/// [`Actors`](crate::Actors)) keep between steps.
#[derive(Default)]
pub(crate) struct Period {
    /// Periods run so far.
    pub now: u64,
    /// The period's senders, by slot.
    pub senders: Vec<Slot>,
    /// The period's candidates, by slot, ascending.
    pub candidates: Vec<Slot>,
    /// What the last period did.
    pub last_activity: StepActivity,
}

/// How a period clock moves its frames — the one thing the round clock
/// and the actor fabric differ in: the rest of a period is
/// [`period_step`].
pub(crate) trait Transport<P: Protocol> {
    /// What the clock keeps between periods.
    fn period(&mut self) -> &mut Period;

    /// Sends the period's frames from `senders` and schedules their
    /// receivers: a receiver joins `update_dirty` (and `hearers`, if
    /// nothing else scheduled it) as `Env::mark_hearers` marks it.
    /// Returns the copies in range and the copies delivered.
    fn send(&mut self, env: &mut Env<P>, now: u64, eager: bool, senders: &[Slot])
        -> (usize, usize);

    /// Visits the period's `candidates` ([`Env::visit`]) with this
    /// transport's frame loop; returns what the visits counted.
    fn visit(
        &mut self,
        env: &mut Env<P>,
        now: u64,
        eager: bool,
        candidates: &[Slot],
    ) -> StepActivity;
}

/// One period of a period clock, the skeleton both share: the
/// environment's batch ([`Env::begin_step`]), slot release, the
/// transport's frames, the candidates drained in storage order, their
/// visits, retirement of the senders every neighbor caught up with,
/// and the period's tally. Returns the new period count.
pub(crate) fn period_step<P: Protocol, C: Clock<P> + Transport<P>>(sim: &mut Sim<P, C>) -> u64 {
    let now = sim.clock.period().now;
    sim.env.table.clear_changed();
    // Mobility, due followups, then scripted faults — all before the
    // period's sends (fault ≤ send, `tests/fault_ordering.rs`), so no
    // frame is evaluated against a pre-fault topology.
    sim.env.begin_step(now);
    let eager = !C::is_gated(sim);
    let Sim { env, clock } = sim;
    let period = clock.period();
    let mut senders = std::mem::take(&mut period.senders);
    let mut candidates = std::mem::take(&mut period.candidates);

    // Refresh the beacons of nodes whose state changed, pick the
    // senders; their frames fly and schedule their receivers.
    env.release_slots(eager, &mut senders);
    let (attempted, delivered) = clock.send(env, now, eager, &senders);

    // Per-node execution, on the candidates: nodes already dirty plus
    // the receivers the frames scheduled.
    env.table.update_dirty.drain_sorted_into(&mut candidates);
    let visited = clock.visit(env, now, eager, &candidates);

    // Retire the senders every neighbor has caught up with — all of
    // them, unasked, when the period delivered every copy.
    if !eager {
        env.retire_caught_up(&senders, delivered);
    }
    env.messages += senders.len() as u64;
    let period = clock.period();
    period.last_activity = StepActivity {
        senders: senders.len(),
        frames_attempted: attempted,
        frames_delivered: delivered,
        changed: env.table.changed.len(),
        ..visited
    };
    (period.senders, period.candidates) = (senders, candidates);
    period.now += 1;
    period.now
}

/// What a consumer that is generic over the execution model needs from
/// a driver, as an object-safe trait: traffic, the chaos certifier and
/// the CLI are each written once against it, and a test can box the
/// three drivers side by side. Its one implementation is [`Sim`]'s, on
/// every [`Clock`]; every method is the inherent method of the same
/// name.
///
/// Logical time is the paper-comparable clock: steps on the round
/// driver, beacon periods on the other two.
///
/// **The fault clock**, the same on all three: a fault or followup
/// scripted at step `k`, and a mobility tick at `k`, fires as the
/// driver enters period `k`, before any of that period's frames. So
/// after [`Driver::step`] returns `k`, nothing due at `k` has fired
/// yet: the next step fires it first. [`Driver::inject`] fires at
/// once, and schedules its timed second phase (resurrection, healing,
/// lie expiry) on the same clock.
pub trait Driver {
    /// The protocol being executed.
    type Protocol: Observable + Corruptible;

    /// Advances logical time by one step, period `now()`; returns the
    /// new step count.
    fn step(&mut self) -> u64;

    /// The current logical time.
    fn now(&self) -> u64;

    /// The topology being simulated.
    fn topology(&self) -> &Topology;

    /// All node states, indexed by [`mwn_graph::NodeId`], published in
    /// id order on this read ([`Sim::states`]).
    fn states(&self) -> &[<Self::Protocol as Protocol>::State];

    /// Pins (`true`) or unpins (`false`) eager scheduling.
    fn set_eager(&mut self, eager: bool);

    /// Applies one fault at the current logical instant.
    ///
    /// # Errors
    ///
    /// Whatever [`crate::FaultPlan::validate_for`] rejects; a rejected
    /// fault changes nothing.
    fn inject(&mut self, fault: &Fault) -> Result<(), SimError>;

    /// The observable output of every node.
    fn outputs(&self) -> Vec<<Self::Protocol as Observable>::Output>;

    /// Runs until `stop` is satisfied and reports what happened.
    fn run_to(&mut self, stop: &StopWhen<Self::Protocol>) -> RunReport;

    /// Beacon broadcasts since construction.
    fn messages_total(&self) -> u64;
}

impl<P: Observable + Corruptible, C: Clock<P>> Driver for Sim<P, C> {
    type Protocol = P;

    fn step(&mut self) -> u64 {
        Sim::step(self)
    }
    fn now(&self) -> u64 {
        Sim::now(self)
    }
    fn topology(&self) -> &Topology {
        Sim::topology(self)
    }
    fn states(&self) -> &[P::State] {
        Sim::states(self)
    }
    fn set_eager(&mut self, eager: bool) {
        Sim::set_eager(self, eager);
    }
    fn inject(&mut self, fault: &Fault) -> Result<(), SimError> {
        Sim::inject(self, fault)
    }
    fn outputs(&self) -> Vec<P::Output> {
        Sim::outputs(self)
    }
    fn run_to(&mut self, stop: &StopWhen<P>) -> RunReport {
        Sim::run_to(self, stop)
    }
    fn messages_total(&self) -> u64 {
        Sim::messages_total(self)
    }
}
