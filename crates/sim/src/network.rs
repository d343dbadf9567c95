use mwn_graph::{NodeId, Topology};
use mwn_radio::{Delivery, Medium, MediumKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::driver::{period_step, Period, Sealed, Transport};
use crate::engine::{self, kernels, Env, NodeSet, Retired, ShardPolicy, Slot, StorageOrder};
use crate::rng::{derive_seed, streams};
use crate::{Clock, Corruptible, Protocol, Sim};

/// What one step actually did, on any clock ([`Sim::last_activity`]) —
/// the activity counters of the dirty-set engine.
///
/// For a *silent* protocol under gated scheduling, every field except
/// `updates`/`receives` drops to zero once the network stabilizes: no
/// node broadcasts, no frame flies, no guard runs. Under eager
/// scheduling `senders` and `updates` are always the node count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepActivity {
    /// Nodes that broadcast a beacon this step.
    pub senders: usize,
    /// (sender, 1-neighbor) frame copies that were in range.
    pub frames_attempted: usize,
    /// Frame copies actually received.
    pub frames_delivered: usize,
    /// [`Protocol::receive`] invocations.
    pub receives: usize,
    /// Frame copies recorded without a receive: under gating, fresh
    /// frames whose receiver already held what a receive reads of them
    /// (`engine::gate`'s held fate).
    pub held: usize,
    /// [`Protocol::update`] invocations.
    pub updates: usize,
    /// Guard passes skipped (`engine::settle`): under gating, visits of
    /// nodes nothing but frames scheduled that held a frame and
    /// received none — the passes the held frames saved.
    pub settled: usize,
    /// Nodes whose state changed (tracked under gated scheduling only;
    /// 0 under eager scheduling).
    pub changed: usize,
}

impl StepActivity {
    /// What was counted since `earlier`, a reading of the same tally.
    pub(crate) fn since(self, earlier: Self) -> Self {
        StepActivity {
            senders: self.senders - earlier.senders,
            frames_attempted: self.frames_attempted - earlier.frames_attempted,
            frames_delivered: self.frames_delivered - earlier.frames_delivered,
            receives: self.receives - earlier.receives,
            held: self.held - earlier.held,
            updates: self.updates - earlier.updates,
            settled: self.settled - earlier.settled,
            changed: self.changed - earlier.changed,
        }
    }
}

/// The synchronous round driver, a [`Sim`] on the [`Rounds`] clock:
/// one call to [`Network::step`] is one of the paper's Δ(τ) "steps"
/// (Section 5).
///
/// Within a step, in order:
///
/// 1. if the scenario attached mobility dynamics, the topology moves
///    (incrementally via [`Topology::apply_moves`] when the dynamics
///    provide per-step moves);
/// 2. scripted faults due at this step fire;
/// 3. every *scheduled* node snapshots its shared variables
///    ([`Protocol::beacon`]) — simultaneous, so information moves at
///    most one hop per step, exactly as in the paper's Table 2;
/// 4. the [`Medium`] decides which frame copies arrive, and the
///    senders' neighbors join the scheduled ones (`Env::mark_hearers`,
///    the one hearer rule of every period clock);
/// 5. receivers process arrivals ([`Protocol::receive`]) and
///    scheduled nodes execute their enabled guarded assignments
///    ([`Protocol::update`]). Under gating a receiver is handed only
///    the frames of an epoch it has not incorporated yet, and of those
///    only the ones whose sender changed what a receive reads
///    ([`Protocol::read_changed`]) since the epoch the receiver holds;
///    the others are recorded in its reception row unread. A node that
///    nothing but frames scheduled, and that received none of them,
///    runs no guard pass (`engine::settle`);
/// 6. under gated scheduling, senders every neighbor has caught up
///    with retire: by count alone on a step that lost no frame copy,
///    by consulting the reception rows otherwise.
///
/// A medium that loses nothing ([`MediumKind::Lossless`] — the step the
/// paper simulates) is not asked at 4: what it would have recorded is
/// what the topology already states, *a node heard exactly its sending
/// neighbors, in adjacency order*. The step marks the senders'
/// neighbors as candidates instead (bit inserts, no per-receiver list),
/// and a visit at 5 reads its frames off the node's reception row —
/// whose entries name their senders' table slots, in id order —
/// against the frozen set of senders: the row entry is the loop index,
/// not a search. Both steps schedule the same hearers; one that holds
/// every epoch it heard is visited, but its frames come back stale and
/// it runs no pass. That is the same
/// guard passes, the same frames and the same (ascending sender)
/// receive order the delivered lists produce, so nothing observable
/// moves: states, [`StepActivity`], reports and digests are
/// byte-identical, gated or eager, on any shard count
/// (`pulled_steps_equal_pushed_steps` in this module's tests).
///
/// # Activity-driven scheduling
///
/// The paper's algorithms are **silent**: in the legitimate
/// configuration nothing changes any more. The driver exploits this
/// through the shared `engine` core (dirty sets, beacon
/// epochs, per-edge reception tracking): when the protocol opts in
/// ([`Activity::Gated`](crate::Activity::Gated)), a node is scheduled
/// only if its state changed last round, a beacon it heard
/// changed, a topology delta touched it, or a fault hit it — quiescent
/// regions cost (near) zero work and zero messages.
///
/// Every [`MediumKind`] gates. Lossless and independent media: all
/// randomness is derived per (step, node) / (step, sender) from the
/// constructor seed ([`crate::split_rng`]), so skipping an idle node
/// consumes no randomness and gated and eager execution are
/// **byte-identical** (property-tested in
/// `tests/engine_equivalence.rs`). Contention media: retired senders
/// keep *occupying* their slot statistically — the medium is handed a
/// view of the pending-sender set whose occupied nodes are the ones
/// not in it, so who is silent is recorded once —, active frames fold
/// that population into their collision draws, and gated ≡ eager holds
/// **distributionally** — Wilson-band agreement on stabilization time,
/// delivery ratio and outputs (`tests/gated_csma.rs`). Fault injection
/// draws from a dedicated stream and never perturbs frame delivery.
///
/// # Sharded execution
///
/// The per-node pass of a step (phase 5) only ever writes a node's own
/// state and reception row while reading frozen beacon columns, so it
/// is embarrassingly parallel. [`Network::set_shards`] cuts the sorted
/// active set into contiguous chunks and, at the same slot boundaries,
/// the state column and the reception arena into disjoint runs; each
/// worker visits its chunk **in place** — no per-shard arenas, no
/// ordered state merge, and one shard is the same body on the calling
/// thread. Sharded and serial execution are byte-identical for every
/// shard count (states, outputs, `RunReport`s), which is what makes
/// the parallelism testable on any machine. The `MWN_FORCE_SHARDS`
/// environment variable forces a shard count at construction (a CI
/// leg replays the equivalence suites with 4).
///
/// # Storage order
///
/// The node table stores a unit-disk deployment by radio cell — the
/// nodes sorted by (cell, id), cells of side `radius` — and any other
/// topology by id. Every per-node column is indexed by that slot, and a
/// node's reception row names its neighbors' slots, so the reads of a
/// visit land in a few nearby stretches of each column wherever
/// arrival order put the ids. Ids stay at the boundary: protocol calls,
/// stream keys, faults, media, [`Network::last_changed`], outputs and
/// reports, so nothing observable depends on the order
/// (`tests/storage_order.rs`). [`Network::states`] publishes the state
/// column in id order when asked.
///
/// Networks are normally built through [`crate::Scenario`]; the
/// constructor remains available as the low-level interface.
pub type Network<P, M> = Sim<P, Rounds<M>>;

/// The round clock of a [`Network`]: the period count, the medium and
/// the step's buffers.
pub struct Rounds<M> {
    period: Period,
    medium: M,
    /// Sequential stream for eager contention rounds (evaluated with
    /// the full sender set in one call).
    medium_rng: StdRng,
    /// How the per-step active pass is split across workers.
    shards: ShardPolicy,
    /// The step's senders by id, for an asked medium.
    sender_ids: Vec<NodeId>,
    /// Sized by the first step that asks the medium to deliver; a
    /// lossless medium is never asked.
    delivery: Delivery,
}

/// Where the visits of a step read their frames from — the one thing
/// the two kinds of step differ in.
#[derive(Clone, Copy)]
enum Frames<'a> {
    /// The medium was asked: node `p` heard `heard[p]` (by id), each
    /// sender located in `p`'s reception row by one binary search over
    /// the ids of the slots it names.
    Pushed(&'a Delivery),
    /// A lossless medium was not: `p` heard exactly its sending
    /// neighbors, in adjacency order — its reception row, whose entries
    /// name their slots. Speed only; what it moves is `converge_rounds`'
    /// and `restab_chaos`' `wall_s` and `peak_rss_mb` (ROADMAP negative
    /// (xliv)).
    Pulled(&'a NodeSet),
}

impl Frames<'_> {
    /// Calls `f(idx, slot, sender)` for every frame node `p` heard this
    /// step, in ascending sender id: `idx` is the sender's entry in
    /// `p`'s reception row, `row` the slots that row names.
    #[inline]
    fn each(
        self,
        p: NodeId,
        row: &[Slot],
        order: &StorageOrder,
        mut f: impl FnMut(usize, Slot, NodeId),
    ) {
        match self {
            Frames::Pushed(delivery) => {
                let heard = &delivery.heard[p.index()];
                let id = |&q: &Slot| order.id(q);
                kernels::sorted_positions_by(row, id, heard, |idx, s| f(idx, row[idx], s));
            }
            Frames::Pulled(sending) => {
                for (idx, &s) in row.iter().enumerate() {
                    if sending.contains(s) {
                        f(idx, s, order.id(s));
                    }
                }
            }
        }
    }
}

impl<M> Sealed for Rounds<M> {}

impl<P: Protocol, M: Medium> Clock<P> for Rounds<M> {
    fn step(sim: &mut Sim<P, Self>) -> u64 {
        period_step(sim)
    }

    fn now(&self) -> u64 {
        self.period.now
    }
}

impl<P: Protocol, M: Medium> Transport<P> for Rounds<M> {
    fn period(&mut self) -> &mut Period {
        &mut self.period
    }

    /// Phase 4: frame delivery, by the medium's kind. A lossless medium
    /// is not asked: every copy in range arrives, and the visits read
    /// them off the senders' rows. Otherwise the frame copies that
    /// arrive land in `delivery`. Independent media get one derived
    /// stream per (step, sender), so a frame's fate can never depend on
    /// who else transmitted. A gated contention round delivers the
    /// active set exactly while folding the retired population in
    /// statistically (per-(step, sender) and per-(step, receiver,
    /// sender) streams); an eager one evaluates the full sender set on
    /// the sequential medium stream. Media are handed the senders in id
    /// order, and record by id.
    fn send(
        &mut self,
        env: &mut Env<P>,
        now: u64,
        eager: bool,
        senders: &[Slot],
    ) -> (usize, usize) {
        let topo = &env.topo;
        match self.medium.kind() {
            MediumKind::Lossless => {
                let in_range = env.in_range(senders);
                return (in_range, in_range);
            }
            MediumKind::Independent => {
                let ids = ask(env, senders, &mut self.sender_ids, &mut self.delivery);
                for &s in ids {
                    let mut rng = env.medium_rng(now, s);
                    self.delivery.record_fates(&self.medium, topo, s, &mut rng);
                }
            }
            MediumKind::Contention if !eager => {
                let ids = ask(env, senders, &mut self.sender_ids, &mut self.delivery);
                let streams = env.contention_streams(now);
                let retired = Retired {
                    pending: &env.table.send_pending,
                    order: &env.table.order,
                };
                self.medium.deliver_occupied_into(
                    topo,
                    ids,
                    &retired,
                    &streams,
                    &mut self.delivery,
                );
            }
            MediumKind::Contention => {
                let ids = ask(env, senders, &mut self.sender_ids, &mut self.delivery);
                self.medium
                    .deliver_into(topo, ids, &mut self.medium_rng, &mut self.delivery);
            }
        }
        (self.delivery.attempted, self.delivery.delivered)
    }

    /// Phase 5: per-node execution — cached-copy refresh for heard
    /// frames, then one pass of guarded assignments. Nodes only ever
    /// touch their own state and read frozen beacons, so per-node
    /// processing is equivalent to the classic all-receives-then-
    /// all-updates phasing — and embarrassingly parallel: each shard
    /// visits its chunk of the active set in place.
    fn visit(&mut self, env: &mut Env<P>, now: u64, eager: bool, candidates: &[Slot]) {
        let active = candidates.len();
        let shards = self.shards.count(active, active);
        let lossless = self.medium.kind() == MediumKind::Lossless;
        let delivery = (!lossless).then_some(&self.delivery);
        env.visit(now, !eager, candidates, shards, |shard| {
            let (beacons, epoch, read) = (shard.beacons, shard.epoch, shard.read_epoch);
            let (protocol, order) = (shard.protocol, shard.order);
            let frames = delivery.map_or(Frames::Pulled(shard.sending), Frames::Pushed);
            for &p in shard.candidates {
                let id = order.id(p);
                let (state, row, neighbors, scratch) = shard.open(p);
                let mut received = false;
                frames.each(id, neighbors, order, |idx, s, from| {
                    let (i, beacon) = (s.index(), &beacons[s.index()]);
                    let skipped =
                        |copy: &mut P::State| protocol.receive(id, copy, from, beacon, now);
                    let reference = (&*state, &mut scratch.held_check, skipped);
                    let frame = [read[i], epoch[i]];
                    let fate = engine::gate(!eager, &mut row[idx], frame, (id, from), reference);
                    if scratch.admit(fate, state, &mut received) {
                        protocol.receive(id, state, from, beacon, now);
                    }
                });
                shard.update(p, received);
            }
        });
    }
}

/// Readies a step whose medium is asked: `delivery` reset, and the
/// step's senders listed by id into `ids`.
fn ask<'a, P: Protocol>(
    env: &Env<P>,
    senders: &[Slot],
    ids: &'a mut Vec<NodeId>,
    delivery: &mut Delivery,
) -> &'a [NodeId] {
    env.table.order.sorted_ids(senders, ids);
    delivery.reset(env.topo.len());
    ids
}

impl<P: Protocol, M: Medium> Network<P, M> {
    /// Creates a network of cold-start nodes over `topo`.
    pub fn new(protocol: P, medium: M, topo: Topology, seed: u64) -> Self {
        let env = Env::new(protocol, topo, seed, streams::ROUND_FAULT);
        // The node count is fixed for a driver's life: what a lossless
        // step writes is sized here, so no step is the one that allocates.
        let n = match medium.kind() {
            MediumKind::Lossless => env.topo.len(),
            MediumKind::Independent | MediumKind::Contention => 0,
        };
        let clock = Rounds {
            period: Period {
                candidates: Vec::with_capacity(n),
                ..Period::default()
            },
            medium,
            medium_rng: StdRng::seed_from_u64(derive_seed(seed, streams::ROUND_MEDIUM)),
            shards: ShardPolicy::from_env(),
            sender_ids: Vec::new(),
            delivery: Delivery::empty(0),
        };
        Sim { env, clock }
    }

    /// Retirement bookkeeping, exposed for its property tests: the
    /// members of the pending-sender set — whose complement is the
    /// population a gated contention medium reads as occupied — next
    /// to a from-scratch recount of the nodes
    /// some neighbor has yet to catch up with (equal after every gated
    /// step), and how many gated steps lost no frame copy and so
    /// retired their senders without consulting a reception row.
    #[doc(hidden)]
    pub fn retirement_audit(&self) -> (Vec<NodeId>, Vec<NodeId>, u64) {
        let (env, topo, order) = (&self.env, &self.env.topo, &self.env.table.order);
        let pending = |&s: &NodeId| env.table.send_pending.contains(order.slot(s));
        let behind = |&s: &NodeId| !env.all_caught_up(order.slot(s));
        (
            topo.nodes().filter(pending).collect(),
            topo.nodes().filter(behind).collect(),
            self.env.lossless_periods,
        )
    }

    /// Overrides how the per-step active pass is split across worker
    /// threads: `Some(k)` forces exactly `k` shards for every step
    /// (even tiny ones — what the equivalence tests rely on), `None`
    /// restores the automatic policy (shard by `available_parallelism`
    /// once the active set is large enough to amortize thread spawn).
    ///
    /// Sharded and serial execution are byte-identical for every shard
    /// count; this knob only moves wall-clock time.
    pub fn set_shards(&mut self, shards: Option<usize>) {
        self.clock.shards.set(shards);
    }
}

impl<P: Corruptible, M: Medium> Network<P, M> {
    /// Corrupts `p` **without** waking it — a deliberately broken wake
    /// rule. Exists only so the certifier's liveness audit can be
    /// demonstrated to catch exactly this class of engine bug; never
    /// use it to model a fault.
    #[doc(hidden)]
    pub fn corrupt_silently(&mut self, p: NodeId) {
        let mut rng = self.env.corrupt_rng(p);
        let (protocol, table) = (&self.env.protocol, &mut self.env.table);
        protocol.corrupt(p, table.state_mut(p), &mut rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{GatedFlood, MaxFlood, Pushed, TraceFlood};
    use crate::{Fault, FaultPlan, Lie, Scenario, SimError, StopWhen};
    use mwn_graph::Point2;
    use mwn_graph::{builders, traversal};
    use mwn_radio::{BernoulliLoss, PerfectMedium};
    use proptest::prelude::*;

    #[test]
    fn max_flood_converges_on_a_line() {
        let mut net = Network::new(MaxFlood, PerfectMedium, builders::line(6), 1);
        let report = net.run_to(&StopWhen::stable_for(3).within(100));
        assert!(net.states().iter().all(|&s| s == 5));
        // Information moves one hop per step: node 0 is 5 hops from node 5.
        assert_eq!(report.expect_stable("converges"), 5);
        assert!(!report.timed_out);
    }

    #[test]
    fn one_hop_per_step_information_speed() {
        let mut net = Network::new(MaxFlood, PerfectMedium, builders::line(10), 1);
        net.run(3);
        // After 3 steps the max id (9) can have travelled exactly 3 hops.
        assert_eq!(*net.state(NodeId::new(6)), 9);
        assert_eq!(*net.state(NodeId::new(5)), 8);
    }

    #[test]
    fn lossy_medium_still_converges() {
        let mut net = Network::new(MaxFlood, BernoulliLoss::new(0.3), builders::line(6), 3);
        let report = net.run_to(&StopWhen::stable_for(10).within(2000));
        assert!(report.is_stable(), "τ = 0.3 must still converge w.p. 1");
        assert!(net.states().iter().all(|&s| s == 5));
    }

    #[test]
    fn corruption_then_reconvergence() {
        let mut net = Network::new(MaxFlood, PerfectMedium, builders::ring(8), 4);
        net.run(10);
        net.corrupt_all();
        assert!(net.states().iter().all(|&s| s == 0));
        net.run(10);
        assert!(net.states().iter().all(|&s| s == 7));
    }

    #[test]
    fn corrupt_fraction_reports_count() {
        let mut net = Network::new(MaxFlood, PerfectMedium, builders::ring(50), 5);
        let corrupted = net.corrupt_fraction(0.5);
        assert!(corrupted > 5 && corrupted < 45, "got {corrupted}");
    }

    #[test]
    fn fault_stream_is_independent_of_delivery_stream() {
        // Regression: corrupt_fraction used to draw from the medium's
        // stream, so "same seed + one corruption call" changed which
        // frames were later lost. With a dedicated fault stream, a run
        // that injects (zero-effect) faults sees identical deliveries.
        let run = |inject: bool| {
            let mut net = Network::new(MaxFlood, BernoulliLoss::new(0.5), builders::ring(16), 9);
            net.run(3);
            if inject {
                // Draws from the fault stream but corrupts nobody.
                assert_eq!(net.corrupt_fraction(0.0), 0);
            }
            net.run(12);
            net.states().to_vec()
        };
        assert_eq!(
            run(true),
            run(false),
            "fault injection must not perturb delivery randomness"
        );
    }

    #[test]
    fn isolation_stops_information_flow() {
        let mut net = Network::new(MaxFlood, PerfectMedium, builders::line(5), 6);
        net.isolate(NodeId::new(2)); // cut the middle
        net.run(20);
        // Max id 4 cannot cross the cut.
        assert_eq!(*net.state(NodeId::new(0)), 1);
        assert_eq!(*net.state(NodeId::new(1)), 1);
    }

    #[test]
    fn runs_are_reproducible_from_seed() {
        let run = |seed| {
            let mut net = Network::new(MaxFlood, BernoulliLoss::new(0.5), builders::ring(12), seed);
            net.run(7);
            net.states().to_vec()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn run_to_predicate() {
        let mut net = Network::new(MaxFlood, PerfectMedium, builders::line(4), 1);
        let report = net
            .run_to(&StopWhen::predicate(|_, states| states.iter().all(|&s| s == 3)).within(100));
        assert!(report.satisfied && !report.timed_out);
        assert_eq!(report.end_step, 3);
    }

    #[test]
    fn run_to_budget_reports_timeout() {
        // A predicate that can never hold: only the budget fires.
        let mut net = Network::new(MaxFlood, PerfectMedium, builders::line(4), 1);
        let report = net.run_to(&StopWhen::predicate(|_, states| states.contains(&99)).within(10));
        assert!(report.timed_out);
        assert!(!report.satisfied);
        assert_eq!(report.steps, 10);
        assert_eq!(report.stabilized, None);
    }

    #[test]
    fn run_to_composes_all_and_any() {
        let mut net = Network::new(MaxFlood, PerfectMedium, builders::line(6), 2);
        // Stable AND at least 8 steps executed: forces the run past the
        // 5-step stabilization point.
        let report = net.run_to(
            &StopWhen::stable_for(2)
                .and(StopWhen::max_steps(8))
                .within(100),
        );
        assert_eq!(report.expect_stable("line flood stabilizes"), 5);
        assert!(report.steps >= 8);
    }

    #[test]
    fn stability_streak_spans_run_to_restarts() {
        let mut net = Network::new(MaxFlood, PerfectMedium, builders::line(6), 3);
        net.run_to(&StopWhen::stable_for(3).within(100));
        // Re-arming on an already-stable network satisfies quickly and
        // reports the (unchanged-since) current step as last change.
        let report = net.run_to(&StopWhen::stable_for(2).within(10));
        assert!(report.is_stable());
        assert_eq!(report.steps, 2);
    }

    #[test]
    fn set_topology_rejects_resize() {
        let mut net = Network::new(MaxFlood, PerfectMedium, builders::line(4), 1);
        let err = net.set_topology(builders::line(5)).unwrap_err();
        assert_eq!(
            err,
            SimError::NodeCountMismatch {
                expected: 4,
                got: 5
            }
        );
        // The rejected swap left the network untouched.
        assert_eq!(net.topology().len(), 4);
        assert!(net.set_topology(builders::line(4)).is_ok());
    }

    #[test]
    fn gated_flood_goes_silent_after_stabilization() {
        let mut net = Network::new(GatedFlood, PerfectMedium, builders::line(6), 1);
        assert!(net.is_gated());
        let report = net.run_to(&StopWhen::stable_for(3).within(100));
        assert_eq!(report.expect_stable("converges"), 5);
        let sent_before = net.messages_total();
        net.run(25);
        let tail = net.last_activity();
        assert_eq!(tail.senders, 0, "silent network must not broadcast");
        assert_eq!(tail.updates, 0, "silent network must not run guards");
        assert_eq!(tail.frames_attempted, 0);
        assert_eq!(
            net.messages_total(),
            sent_before,
            "message count frozen after stabilization"
        );
    }

    #[test]
    fn gated_equals_eager_on_perfect_medium() {
        let run = |eager: bool| {
            let mut net = Network::new(GatedFlood, PerfectMedium, builders::ring(9), 5);
            net.set_eager(eager);
            let report = net.run_to(&StopWhen::stable_for(4).within(200));
            (report, net.states().to_vec())
        };
        assert_eq!(run(true), run(false), "gating must be unobservable");
    }

    #[test]
    fn gated_equals_eager_under_loss_and_corruption() {
        let run = |eager: bool| {
            let mut net = Network::new(GatedFlood, BernoulliLoss::new(0.6), builders::ring(10), 13);
            net.set_eager(eager);
            net.run(5);
            net.corrupt_all();
            let report = net.run_to(&StopWhen::stable_for(8).within(1000));
            (report, net.states().to_vec(), net.now())
        };
        assert_eq!(run(true), run(false));
    }

    /// A gated contention step hands its medium the retired population:
    /// exactly the nodes that are not send-pending. Each step's delivery
    /// is replayed through `deliver_occupied_into` with an explicit
    /// `Occupancy` of the nodes that did not send, and must equal it;
    /// some steps — with and without carrier sense — must also deliver
    /// differently from the same call with nobody occupied, so a view
    /// that folds no retired node fails here.
    #[test]
    fn a_gated_contention_step_folds_exactly_the_nodes_that_are_not_pending() {
        use mwn_radio::{Occupancy, SlottedCsma};
        let topo = connected_uniform(60, 0.25, 3);
        let n = topo.len();
        for medium in [
            SlottedCsma::new(4),
            SlottedCsma::new(4).without_carrier_sense(),
        ] {
            let mut net = Network::new(GatedFlood, medium.clone(), topo.clone(), 9);
            assert!(net.is_gated());
            let (mut steps, mut folded) = (0, 0);
            for round in 0..120u32 {
                if round % 30 == 29 {
                    net.corrupt(NodeId::new(round % n as u32));
                }
                let now = net.now();
                net.step();
                let mut senders = Vec::new();
                net.env
                    .table
                    .order
                    .sorted_ids(&net.clock.period.senders, &mut senders);
                if senders.is_empty() {
                    continue;
                }
                let streams = net.env.contention_streams(now);
                let replay = |occupancy: &Occupancy| {
                    let mut out = Delivery::empty(n);
                    let mut medium = medium.clone();
                    medium.deliver_occupied_into(&topo, &senders, occupancy, &streams, &mut out);
                    out
                };
                let mut retired = Occupancy::new(n);
                for q in topo.nodes().filter(|q| senders.binary_search(q).is_err()) {
                    retired.occupy(q, &topo);
                }
                let step = &net.clock.delivery;
                assert_eq!(step, &replay(&retired), "step {now}: not the retired fold");
                steps += 1;
                folded += usize::from(step != &replay(&Occupancy::new(n)));
            }
            assert!(steps > 3, "{medium:?}: too few sending steps ({steps})");
            assert!(folded > 0, "{medium:?}: no step told the fold from none");
        }
    }

    #[test]
    fn eager_protocols_never_gate() {
        let net = Network::new(MaxFlood, PerfectMedium, builders::line(3), 0);
        assert!(!net.is_gated(), "Activity::Eager is the default contract");
    }

    #[test]
    fn gated_wakes_up_after_corruption() {
        let mut net = Network::new(GatedFlood, PerfectMedium, builders::line(5), 2);
        net.run_to(&StopWhen::stable_for(2).within(100));
        net.run(3);
        assert_eq!(net.last_activity().senders, 0);
        net.corrupt(NodeId::new(4));
        assert_eq!(*net.state(NodeId::new(4)), 0);
        let report = net.run_to(&StopWhen::stable_for(2).within(100));
        assert!(report.is_stable());
        assert!(net.states().iter().all(|&s| s == 4), "re-flooded the max");
    }

    #[test]
    fn a_fault_inside_an_eager_stretch_is_not_reported_by_the_next_gated_step() {
        // Regression: the forced-change mark of a fault was consumed by
        // gated steps only, so one set while the driver was pinned
        // eager outlived the stretch and the first gated step after it
        // reported the node as changed although its state stood still.
        let mut net = Network::new(GatedFlood, PerfectMedium, builders::grid(6, 6, 0.22), 7);
        net.run_to(&StopWhen::stable_for(3).within(100))
            .expect_stable("the flood converges");
        net.set_eager(true);
        net.corrupt(NodeId::new(14));
        net.run(30);
        net.set_eager(false);
        let before = net.states().to_vec();
        net.step();
        assert_eq!(net.states(), before, "the eager stretch had repaired it");
        assert!(net.last_changed().is_empty(), "{:?}", net.last_changed());
        assert_eq!(net.last_activity().changed, 0);
        // A fault between gated steps is still reported, exactly once.
        net.corrupt(NodeId::new(14));
        net.step();
        assert_eq!(net.last_changed(), [NodeId::new(14)]);
        net.run_to(&StopWhen::stable_for(3).within(100))
            .expect_stable("and repaired");
        assert!(net.last_changed().is_empty());
    }

    #[test]
    fn step_activity_counts_the_cold_start() {
        let mut net = Network::new(GatedFlood, PerfectMedium, builders::line(4), 3);
        net.step();
        let first = net.last_activity();
        assert_eq!(first.senders, 4, "cold start: everyone broadcasts");
        assert_eq!(first.updates, 4);
        assert_eq!(first.frames_attempted, 6, "2·|E| in-range copies");
        assert_eq!(net.messages_total(), 4);
    }

    #[test]
    fn sharded_steps_equal_serial_steps() {
        // The deterministic owner-computes partition: every forced
        // shard count must reproduce the serial trajectory byte for
        // byte, through corruption and re-stabilization.
        let run = |shards: Option<usize>| {
            let mut net = Network::new(GatedFlood, BernoulliLoss::new(0.7), builders::ring(24), 8);
            net.set_shards(shards);
            net.run(6);
            net.corrupt_all();
            let report = net.run_to(&StopWhen::stable_for(5).within(500));
            (report, net.states().to_vec(), net.messages_total())
        };
        let serial = run(Some(1));
        for shards in [2, 3, 4, 7] {
            assert_eq!(serial, run(Some(shards)), "{shards} shards diverged");
        }
        assert_eq!(serial, run(None));
    }

    /// A uniform deployment of `n` nodes that is connected: the first
    /// of the seeds `seed, seed + 1, …` to yield one.
    fn connected_uniform(n: usize, radius: f64, seed: u64) -> Topology {
        (seed..)
            .map(|seed| builders::uniform(n, radius, &mut StdRng::seed_from_u64(seed)))
            .find(traversal::is_connected)
            .expect("some seed connects a field this dense")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// A lossless step, which reads its frames off the topology,
        /// against the same step asked of the medium: indistinguishable
        /// step by step — on every shard count, gated, pinned eager and
        /// switching between the two, through scripted faults of every
        /// kind that rewires, silences or forges, and through mobility.
        /// `TraceFlood` hashes each receive in order, so equal states
        /// mean equal frames in equal order.
        #[test]
        fn pulled_steps_equal_pushed_steps(
            deployment in (8usize..40, 30u32..45, 0u64..1_000),
            seed in 0u64..10_000,
            mode in 0u8..3,
            faults in proptest::collection::vec((0u8..5, 0u32..1024, 1u64..25, 1u64..9), 0..7),
            moves in proptest::collection::vec((1u64..25, 0u32..1024, -0.2f64..0.2, -0.2f64..0.2), 0..5),
        ) {
            let (n, radius, topo_seed) = deployment;
            let topo = connected_uniform(n, f64::from(radius) / 100.0, topo_seed);
            let n = n as u32;
            let mut plan = FaultPlan::new();
            for &(kind, node, at, window) in &faults {
                let node = NodeId::new(node % n);
                plan.at(at, match kind {
                    0 => Fault::CorruptNode(node),
                    1 => Fault::Isolate(node),
                    2 => Fault::CrashRecover { node, dark_for: window },
                    3 => Fault::ByzantineBeacon {
                        node,
                        lie: if window % 2 == 0 { Lie::Forged } else { Lie::Replayed },
                        until: at + window,
                    },
                    _ => Fault::PartitionHeal {
                        cut: (0..=node.value()).map(NodeId::new).collect(),
                        heal_at: at + window,
                    },
                });
            }
            for shards in [1, 2, 3, 4, 7] {
                let scenario = || Scenario::new(TraceFlood)
                    .topology(topo.clone())
                    .seed(seed)
                    .faults(plan.clone());
                let mut pulled = scenario().medium(PerfectMedium).build().expect("a valid plan");
                let mut pushed = scenario()
                    .medium(Pushed(PerfectMedium))
                    .build()
                    .expect("a valid plan");
                pulled.set_shards(Some(shards));
                pushed.set_shards(Some(shards));
                pulled.set_eager(mode > 0);
                pushed.set_eager(mode > 0);
                for step in 0..34 {
                    if mode == 2 && step == 13 {
                        pulled.set_eager(false);
                        pushed.set_eager(false);
                    }
                    for &(_, node, dx, dy) in moves.iter().filter(|m| m.0 == step) {
                        let p = NodeId::new(node % n);
                        let at = pulled.topology().positions().expect("a deployment")[p.index()];
                        let to = Point2::new(
                            (at.x + dx).clamp(0.0, 1.0),
                            (at.y + dy).clamp(0.0, 1.0),
                        );
                        prop_assert_eq!(pulled.apply_moves(&[(p, to)]), pushed.apply_moves(&[(p, to)]));
                    }
                    prop_assert_eq!(pulled.step(), pushed.step());
                    let context = format!("step {step}, {shards} shards, mode {mode}");
                    prop_assert_eq!(pulled.states(), pushed.states(), "{}", context);
                    prop_assert_eq!(pulled.last_activity(), pushed.last_activity(), "{}", context);
                    prop_assert_eq!(pulled.last_changed(), pushed.last_changed(), "{}", context);
                    prop_assert_eq!(pulled.messages_total(), pushed.messages_total(), "{}", context);
                    prop_assert_eq!(pulled.retirement_audit(), pushed.retirement_audit(), "{}", context);
                }
                let stop = StopWhen::stable_for(3).within(40);
                prop_assert_eq!(pulled.run_to(&stop), pushed.run_to(&stop));
                prop_assert_eq!(pulled.states(), pushed.states());
                // One of the two was never asked to deliver anything.
                prop_assert!(pulled.clock.delivery.heard.is_empty());
                prop_assert_eq!(pushed.clock.delivery.heard.len(), n as usize);
            }
        }
    }

    /// `TraceFlood` hashes every receive in the order it is handed, so
    /// a deployment — stored by cell — and the same graph built from its
    /// edge list — stored by id — agree on their states only if every
    /// receiver heard the same frames in the same, ascending-sender,
    /// order: on the pulled and the pushed step, gated and eager, on one
    /// shard and on three, on the event clock and on the actor fabric.
    #[test]
    fn receivers_hear_their_senders_in_id_order_whatever_the_storage_order() {
        let placed = connected_uniform(60, 0.22, 3);
        let edges: Vec<(u32, u32)> = placed
            .edges()
            .map(|(u, v)| (u.value(), v.value()))
            .collect();
        let bare = Topology::from_edges(placed.len(), &edges).expect("its own edges");
        let mut plan = FaultPlan::new();
        plan.at(6, Fault::CorruptNode(NodeId::new(7)))
            .at(9, Fault::Isolate(NodeId::new(11)));
        let scenario = |topo: &Topology| {
            let scenario = Scenario::new(TraceFlood).topology(topo.clone()).seed(5);
            scenario.faults(plan.clone())
        };
        let ids = StorageOrder::of(&placed);
        assert!(
            ids.ids().windows(2).any(|w| w[0] > w[1]),
            "a cell order, not id order"
        );
        for (shards, eager) in [(1, false), (3, false), (1, true), (3, true)] {
            let build = |topo: &Topology| {
                let mut pulled = scenario(topo).build().expect("a valid plan");
                let pushed = scenario(topo).medium(Pushed(PerfectMedium));
                let mut pushed = pushed.build().expect("a valid plan");
                pulled.set_eager(eager);
                pushed.set_eager(eager);
                pulled.set_shards(Some(shards));
                pushed.set_shards(Some(shards));
                (pulled, pushed)
            };
            let ((mut a, mut b), (mut c, mut d)) = (build(&placed), build(&bare));
            for step in 0..20 {
                a.step();
                b.step();
                c.step();
                d.step();
                let at = format!("step {step}, {shards} shards, eager {eager}");
                assert_eq!(a.states(), c.states(), "pulled: {at}");
                assert_eq!(b.states(), d.states(), "pushed: {at}");
                assert_eq!(a.last_activity(), c.last_activity(), "{at}");
                assert_eq!(b.last_activity(), d.last_activity(), "{at}");
            }
        }
        let events = |topo: &Topology| {
            let mut d = scenario(topo)
                .medium(BernoulliLoss::new(0.8))
                .build_events(crate::EventConfig::default())
                .expect("a valid plan");
            d.run_until_time(25.0);
            d.states().to_vec()
        };
        assert_eq!(events(&placed), events(&bare));
        let actors = |topo: &Topology| {
            let mut d = scenario(topo).build_actors(1).expect("a valid plan");
            d.run(20);
            d.states().to_vec()
        };
        assert_eq!(actors(&placed), actors(&bare));
    }

    #[test]
    fn sharded_eager_equals_serial_eager() {
        let run = |shards: usize| {
            let mut net = Network::new(MaxFlood, BernoulliLoss::new(0.5), builders::ring(17), 21);
            net.set_shards(Some(shards));
            net.run(25);
            net.states().to_vec()
        };
        assert_eq!(run(1), run(4));
    }
}
