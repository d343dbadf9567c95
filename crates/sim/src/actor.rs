//! The **actor driver**: the protocol as real message-passing
//! processes — the third execution substrate next to the synchronous
//! [`crate::Network`] and the continuous-time [`crate::EventDriver`].
//!
//! Every claim the repo makes elsewhere is measured on *simulated*
//! clocks; this driver is the validation harness that runs the same
//! protocol as genuinely concurrent actors. Each node is an actor: a
//! bounded multi-producer mailbox plus its protocol state. Actors are
//! multiplexed over a small pool of OS worker threads (`threads`), and
//! they exchange **serialized beacon frames** ([`crate::WireBeacon`])
//! whose fates the scenario's [`Medium`] decides through
//! [`Medium::fates`] on the same split-RNG streams the round driver
//! uses — so for a given seed, exactly the same frame copies are
//! dropped on both drivers.
//!
//! # The virtual-time token governor
//!
//! Real concurrency over 10⁴–10⁵ nodes cannot mean 10⁵ OS threads.
//! Instead every actor holds a logical clock (the beacon period `k`),
//! and the driver releases beacon slots one period at a time:
//!
//! 1. **Slot release** — mobility ticks and scripted faults for period
//!    `k` fire first (the *fault ≤ send* ordering contract), then every
//!    send-pending actor's beacon slot is released at once.
//! 2. **Send phase** — the released actors run concurrently: the
//!    sender list is cut into one contiguous chunk per worker, and each
//!    worker asks the shared medium for its senders' frame fates
//!    ([`Medium::fates`]), encodes every beacon **once** into its own
//!    byte arena (cleared at the start of the period, capacity kept), and
//!    pushes one small `Copy` frame header — sender, epoch, read epoch
//!    (when what a receive reads of the beacon last changed), and where
//!    the payload sits (`arena`, `off`, `len`) — into each lucky
//!    receiver's bounded mailbox.
//! 3. **Quiescence barrier** — the governor waits until every released
//!    slot has quiesced (all sends delivered), then releases the
//!    receive side. The candidates (actors with pending guards and the
//!    senders' neighbors, marked as the round driver marks them) are
//!    sorted by table slot, so contiguous candidate chunks cover
//!    disjoint contiguous runs of the state column: the column is split with
//!    `split_at_mut`, each worker owns its run, and its actors drain
//!    their mailboxes **in arrival order**, decode every fresh frame
//!    from the sender's arena into the worker's one pooled beacon,
//!    receive, and run one pass of guarded assignments — all **in
//!    place**, no state is copied out or moved back. Each frame's fate
//!    is the engine's frame gate's (`engine::gate`), as on the other
//!    drivers: under gating a fresh frame whose header says the actor
//!    already holds what a receive reads (its row's epoch lies between
//!    the frame's read epoch and its epoch) is neither decoded nor
//!    received, and an actor that only frames woke runs its guards
//!    only if it received one (`engine::settle`, the skip rule of all
//!    three drivers). The reception arena is split at the same slot
//!    boundaries, so an actor writes the epoch of every fresh frame
//!    straight into its own reception row, found by the sender's id
//!    among the neighbors the row names. This is the round driver's
//!    phase 5 with a different frame loop: the partition, the change
//!    rule (a scratch snapshot taken before the first mutation,
//!    compared after the update) and the scheduling of changed actors
//!    in worker order — storage order — are the engine's, shared by
//!    both (`engine::visit`). Mailboxes, like every per-node column,
//!    are laid out in storage order (by radio cell, for a deployment);
//!    senders are taken, and frames pushed, in id order.
//!
//! Every buffer either phase writes is owned by a worker and reused
//! across periods, so a steady-state period allocates nothing per
//! sender, per frame or per actor — at `threads > 1` what is left is
//! the period's list of receive shards, at one thread nothing
//! (`tests/alloc_audit.rs`). The worker count is `min(threads, work
//! items)`, so a quiet period spawns nothing.
//!
//! Within a slot the interleaving is genuinely nondeterministic: with
//! `threads > 1` the OS scheduler decides how the send workers'
//! pushes interleave in every mailbox (each worker walks its own chunk
//! in ascending sender order; across workers anything goes), and
//! receivers process frames in exactly that order. Which worker runs
//! an actor, and in which arena a payload sits, never reaches the
//! outcome. Across slots the governor keeps the run aligned with the
//! synchronous rounds, which is what keeps huge actor counts feasible
//! and the comparison against the other drivers meaningful:
//!
//! - **`threads == 1`** — arrival order degenerates to sorted sender
//!   order and the whole run is deterministic.
//! - **`threads > 1`** — per-seed frame fates, update randomness, and
//!   fault timing are still byte-reproducible (they live on derived
//!   streams), but arrival order varies run to run. For protocols whose
//!   per-period receives commute (each sender touches its own cache
//!   entry — true of `DensityCluster` and the flooding test protocols)
//!   the period outcome is order-independent and the actor run tracks
//!   the round driver **exactly**; in general the agreement is
//!   distributional (see `tests/actor_equivalence.rs`).

use std::sync::{Mutex, MutexGuard, PoisonError};

use mwn_graph::{NodeId, Topology};
use mwn_radio::{Medium, PerfectMedium};

use crate::driver::{period_step, Period, Sealed, Transport};
use crate::engine::{self, chunk, run_sharded, Env, Slot};
use crate::error::SimError;
use crate::protocol::Protocol;
use crate::rng::{split_rng, streams};
use crate::wire::WireBeacon;
use crate::{Clock, Sim};

/// One serialized beacon in flight: the routing metadata a link layer
/// would carry in the frame header — the sender, its beacon epoch and
/// the epoch at which what a receive reads of that beacon last changed
/// — plus where the wire bytes sit: `bytes[off..off + len]` of send
/// worker `arena`'s byte arena, written once per sender and read by
/// every receiver of the period.
#[derive(Clone, Copy)]
struct ActorFrame {
    sender: NodeId,
    epoch: u32,
    read_epoch: u32,
    arena: u32,
    off: u32,
    len: u32,
}

/// A multi-producer mailbox: the channel end of one actor.
///
/// It is bounded by the actor's in-degree — the protocol sends at most
/// one beacon per neighbor per period, so a push can never block and an
/// overflow is a driver bug, not backpressure.
#[derive(Default)]
struct Mailbox(Mutex<Vec<ActorFrame>>);

impl Mailbox {
    /// The queue, even if a worker panicked while holding it: that
    /// panic already propagates out of the worker's `thread::scope`, and
    /// a frame list is whole between pushes, so nothing is lost by
    /// reading it.
    fn lock(&self) -> MutexGuard<'_, Vec<ActorFrame>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// One send worker's reusable buffers. `bytes` is the worker's byte
/// arena: every beacon it encodes this period, back to back, addressed
/// by the [`ActorFrame`]s it pushed. `align(64)` keeps two workers'
/// counters off one cache line.
#[repr(align(64))]
#[derive(Default)]
struct SendScratch {
    heard: Vec<NodeId>,
    bytes: Vec<u8>,
    attempted: usize,
    delivered: usize,
}

/// The actor driver, a [`Sim`] on the [`Actors`] clock. Build one
/// through [`Scenario::build_actors`](crate::Scenario::build_actors).
pub type ActorDriver<P, M = PerfectMedium> = Sim<P, Actors<M>>;

/// The actor clock of an [`ActorDriver`]: one step is one governor
/// cycle, and the logical time is the governor's period count.
pub struct Actors<M> {
    period: Period,
    medium: M,
    threads: usize,
    /// One per actor, in storage order.
    mailboxes: Vec<Mailbox>,
    /// The period's senders by id, for the send phase.
    sender_ids: Vec<NodeId>,
    /// Per-worker buffers of the send phase, one slot per pool thread.
    send_scratch: Vec<SendScratch>,
}

impl<M> Sealed for Actors<M> {}

impl<P, M> Clock<P> for Actors<M>
where
    P: Protocol,
    P::Beacon: WireBeacon,
    M: Medium + Sync,
{
    fn step(sim: &mut Sim<P, Self>) -> u64 {
        period_step(sim)
    }

    fn now(&self) -> u64 {
        self.period.now
    }

    /// Every medium the constructor accepts has independent fates.
    fn is_gated(sim: &Sim<P, Self>) -> bool {
        sim.env.gated()
    }
}

impl<P, M> Transport<P> for Actors<M>
where
    P: Protocol,
    P::Beacon: WireBeacon,
    M: Medium + Sync,
{
    fn period(&mut self) -> &mut Period {
        &mut self.period
    }

    /// Send phase: released actors broadcast concurrently, one
    /// contiguous chunk of the id-ordered sender list per worker — so a
    /// worker pushes in ascending sender id. Each sender's fates come
    /// from the shared medium, on the stream the round driver derives
    /// for the same (period, sender); its beacon is encoded once into
    /// the worker's byte arena and one frame header pushed per lucky
    /// receiver. How the workers' pushes interleave in a mailbox is
    /// whatever the OS scheduler makes of it — the genuine
    /// nondeterminism this driver exists to exercise.
    ///
    /// Then the quiescence barrier: `run_sharded` joined its workers,
    /// so every released slot has delivered, and the receive side is
    /// released — the senders' neighbors join the candidates (under
    /// gating a hearer runs its guards only when its mail holds a frame
    /// it receives, as on the round driver).
    fn send(&mut self, env: &mut Env<P>, period: u64, _: bool, senders: &[Slot]) -> (usize, usize) {
        env.table.order.sorted_ids(senders, &mut self.sender_ids);
        let send_workers = self.threads.min(senders.len());
        let (medium, table, topo) = (&self.medium, &env.table, &env.topo);
        // The workers derive each sender's stream as `Env::medium_rng`
        // does, from the base: the environment itself (its dynamics
        // hook) is not `Sync`.
        let medium_base = env.medium_base;
        let mailboxes = &self.mailboxes;
        let senders_by_id = &self.sender_ids[..];
        let span = |v: usize| u32::try_from(v).expect("a period's frames fit 4 GiB");
        run_sharded(&mut self.send_scratch[..send_workers], |w, sc| {
            sc.bytes.clear();
            (sc.attempted, sc.delivered) = (0, 0);
            for &s in &senders_by_id[chunk(senders_by_id.len(), send_workers, w)] {
                sc.heard.clear();
                let mut rng = split_rng(medium_base, period, u64::from(s.value()));
                sc.attempted += medium.fates(topo, s, &mut rng, &mut sc.heard);
                if sc.heard.is_empty() {
                    continue;
                }
                let i = table.order.slot(s).index();
                let off = sc.bytes.len();
                table.beacons[i].encode(&mut sc.bytes);
                let frame = ActorFrame {
                    sender: s,
                    epoch: table.epoch[i],
                    read_epoch: table.read_epoch[i],
                    arena: w as u32,
                    off: span(off),
                    len: span(sc.bytes.len() - off),
                };
                for &r in &sc.heard {
                    let mut mail = mailboxes[table.order.slot(r).index()].lock();
                    debug_assert!(
                        mail.len() < topo.degree(r),
                        "mailbox overflow at {r}: more frames than its in-degree \
                         (one per neighbor per period)"
                    );
                    mail.push(frame);
                }
                sc.delivered += sc.heard.len();
            }
        });
        let sent = &self.send_scratch[..send_workers];
        let attempted = sent.iter().map(|sc| sc.attempted).sum();
        let delivered = sent.iter().map(|sc| sc.delivered).sum();
        env.mark_hearers(senders);
        (attempted, delivered)
    }

    /// Receive phase: every worker owns one contiguous run of the state
    /// column and of the reception arena and executes its candidates in
    /// place; the engine schedules the changed actors once the workers
    /// have joined.
    fn visit(&mut self, env: &mut Env<P>, period: u64, eager: bool, candidates: &[Slot]) {
        let recv_workers = self.threads.min(candidates.len());
        let (mailboxes, arenas) = (&self.mailboxes, &self.send_scratch);
        env.visit(period, !eager, candidates, recv_workers, |shard| {
            let (beacons, protocol, order) = (shard.beacons, shard.protocol, shard.order);
            for &at in shard.candidates {
                let r = order.id(at);
                let (state, row, neighbors, sc) = shard.open(at);
                let mut received = false;
                for frame in mailboxes[at.index()].lock().drain(..) {
                    let s = frame.sender;
                    // A frame whose link a fault severed at this very
                    // timestamp is dead air (fault ≤ delivery). The row
                    // is in neighbor-id order: searched by the ids of
                    // the slots it names.
                    let Ok(idx) = neighbors.binary_search_by_key(&s, |&q| order.id(q)) else {
                        continue;
                    };
                    // The debug reference of a held frame reads the
                    // beacon column, which is what the sender encoded.
                    let beacon = &beacons[neighbors[idx].index()];
                    let skipped =
                        |copy: &mut P::State| protocol.receive(r, copy, s, beacon, period);
                    let reference = (&*state, &mut sc.held_check, skipped);
                    let frame_epochs = [frame.read_epoch, frame.epoch];
                    let fate = engine::gate(!eager, &mut row[idx], frame_epochs, (r, s), reference);
                    if !sc.admit(fate, state, &mut received) {
                        continue; // neither decoded nor received
                    }
                    let (off, len) = (frame.off as usize, frame.len as usize);
                    let bytes = &arenas[frame.arena as usize].bytes[off..off + len];
                    // The pool starts from any beacon at all: the decode
                    // overwrites it and keeps its buffers.
                    let pooled = sc.beacon.get_or_insert_with(|| beacon.clone());
                    assert!(
                        P::Beacon::decode_into(bytes, pooled),
                        "wire beacons round-trip losslessly"
                    );
                    protocol.receive(r, state, s, pooled, period);
                }
                shard.update(at, received);
            }
        });
    }
}

impl<P, M> ActorDriver<P, M>
where
    P: Protocol,
    P::Beacon: WireBeacon,
    M: Medium + Sync,
{
    /// Creates the actor fabric over `topo` with `threads` worker
    /// threads (clamped to at least 1).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] unless the medium decides
    /// frame fates per sender ([`Medium::independent_fates`]) —
    /// contention-coupled media (CSMA) serialize all senders through
    /// one channel state and cannot be replayed concurrently. The
    /// message names the medium and its gated-contention status, so a
    /// user who just watched CSMA gate on the round/event drivers
    /// learns that the statistical-occupancy contract does *not* carry
    /// over to message-passing actors.
    pub fn new(
        protocol: P,
        medium: M,
        topo: Topology,
        seed: u64,
        threads: usize,
    ) -> Result<Self, SimError> {
        if !medium.independent_fates() {
            let status = if medium.gated_contention() {
                "its gated-contention contract (statistical slot occupancy) \
                 covers the round and event drivers only"
            } else {
                "it offers no gated-contention contract either"
            };
            return Err(SimError::InvalidConfig(format!(
                "medium `{}` cannot back the actor driver: per-sender frame \
                 fates must be evaluable through a shared reference \
                 (Medium::fates), and {status}",
                medium.name()
            )));
        }
        let threads = threads.max(1);
        let clock = Actors {
            period: Period::default(),
            medium,
            threads,
            mailboxes: topo.nodes().map(|_| Mailbox::default()).collect(),
            sender_ids: Vec::new(),
            send_scratch: (0..threads).map(|_| SendScratch::default()).collect(),
        };
        let env = Env::new(protocol, topo, seed, streams::ROUND_FAULT);
        Ok(Sim { env, clock })
    }

    /// The worker-thread count the actor pool multiplexes over.
    pub fn threads(&self) -> usize {
        self.clock.threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, TopologyDynamics};
    use crate::stop::StopWhen;
    use crate::testkit::GatedFlood;
    use crate::Fault;
    use mwn_graph::builders;
    use mwn_radio::{BernoulliLoss, SlottedCsma, Thinned};

    fn flood_actors(n: usize, threads: usize) -> ActorDriver<GatedFlood> {
        Scenario::new(GatedFlood)
            .topology(builders::line(n))
            .seed(9)
            .build_actors(threads)
            .expect("valid actor scenario")
    }

    #[test]
    fn flood_converges_and_goes_silent() {
        for threads in [1, 2, 4] {
            let mut driver = flood_actors(12, threads);
            let report = driver.run_to(&StopWhen::stable_for(3).within(200));
            report.expect_stable("the flood converges on the actor fabric");
            assert!(driver.states().iter().all(|&s| s == 11));
            // Silence: a stabilized gated run sends nothing more.
            let before = driver.messages_total();
            driver.run(20);
            assert_eq!(driver.messages_total(), before, "threads={threads}");
            assert_eq!(driver.last_activity().updates, 0);
        }
    }

    #[test]
    fn actor_run_matches_round_driver_byte_for_byte() {
        // GatedFlood receives commute, so each period's outcome is
        // arrival-order independent: the actor fabric must track the
        // synchronous rounds exactly — states, messages and report.
        for (seed, threads) in [(1u64, 1usize), (1, 4), (5, 2), (9, 4)] {
            let topo = builders::grid(6, 6, 1.1 / 5.0);
            let mut net = Scenario::new(GatedFlood)
                .topology(topo.clone())
                .seed(seed)
                .build()
                .unwrap();
            let mut actors = Scenario::new(GatedFlood)
                .topology(topo)
                .seed(seed)
                .build_actors(threads)
                .unwrap();
            let stop = StopWhen::stable_for(3).within(300);
            let net_report = net.run_to(&stop);
            let actor_report = actors.run_to(&stop);
            assert_eq!(net_report, actor_report, "seed={seed} threads={threads}");
            assert_eq!(net.states(), actors.states());
            assert_eq!(net.messages_total(), actors.messages_total());
        }
    }

    #[test]
    fn lossy_medium_replays_the_round_driver_fates() {
        let topo = builders::grid(5, 5, 1.1 / 4.0);
        let mut net = Scenario::new(GatedFlood)
            .medium(BernoulliLoss::new(0.6))
            .topology(topo.clone())
            .seed(3)
            .build()
            .unwrap();
        let mut actors = Scenario::new(GatedFlood)
            .medium(BernoulliLoss::new(0.6))
            .topology(topo)
            .seed(3)
            .build_actors(4)
            .unwrap();
        for _ in 0..40 {
            net.step();
            actors.step();
            let n = net.last_activity();
            let a = actors.last_activity();
            assert_eq!(n.frames_attempted, a.frames_attempted);
            assert_eq!(n.frames_delivered, a.frames_delivered);
        }
        assert_eq!(net.states(), actors.states());
    }

    #[test]
    fn a_fault_inside_an_eager_stretch_is_not_reported_by_the_next_gated_period() {
        // The round driver's regression of the same name, on the fabric.
        for threads in [1, 4] {
            let mut driver = Scenario::new(GatedFlood)
                .topology(builders::grid(6, 6, 0.22))
                .seed(7)
                .build_actors(threads)
                .expect("valid actor scenario");
            driver
                .run_to(&StopWhen::stable_for(3).within(100))
                .expect_stable("the flood converges");
            driver.set_eager(true);
            driver.corrupt(NodeId::new(14));
            driver.run(30);
            driver.set_eager(false);
            let before = driver.states().to_vec();
            driver.step();
            assert_eq!(driver.states(), before, "the eager stretch had repaired it");
            assert_eq!(driver.last_activity().changed, 0, "threads={threads}");
            driver.corrupt(NodeId::new(14));
            driver.step();
            assert_eq!(driver.last_activity().changed, 1, "a gated fault still is");
        }
    }

    #[test]
    fn contention_media_are_rejected() {
        let result = Scenario::new(GatedFlood)
            .medium(SlottedCsma::new(8))
            .topology(builders::line(4))
            .seed(1)
            .build_actors(2);
        let Err(err) = result else {
            panic!("contention-coupled media must be rejected");
        };
        assert!(matches!(err, SimError::InvalidConfig(_)));
        // The error must name the offending medium AND its
        // gated-contention status — pinned verbatim so the message
        // cannot silently regress into something less actionable.
        let text = err.to_string();
        assert!(text.contains("actor driver"), "text: {text}");
        assert!(text.contains("medium `slotted-csma`"), "text: {text}");
        assert!(
            text.contains(
                "its gated-contention contract (statistical slot occupancy) \
                 covers the round and event drivers only"
            ),
            "text: {text}"
        );
    }

    #[test]
    fn non_gating_contention_media_are_rejected_with_their_status() {
        let result = Scenario::new(GatedFlood)
            .medium(Thinned::new(SlottedCsma::new(8), 0.9))
            .topology(builders::line(4))
            .seed(1)
            .build_actors(2);
        let Err(err) = result else {
            panic!("wrapped contention media must be rejected");
        };
        let text = err.to_string();
        assert!(text.contains("medium `thinned`"), "text: {text}");
        assert!(
            text.contains("no gated-contention contract either"),
            "text: {text}"
        );
    }

    #[test]
    fn scripted_isolation_cuts_the_actor_topology() {
        use crate::faults::FaultPlan;

        let mut plan = FaultPlan::new();
        plan.at(0, Fault::Isolate(NodeId::new(2)));
        let mut driver = Scenario::new(GatedFlood)
            .topology(builders::line(5))
            .seed(2)
            .faults(plan)
            .build_actors(2)
            .expect("valid actor scenario");
        driver
            .run_to(&StopWhen::stable_for(3).within(100))
            .expect_stable("both fragments settle");
        // The isolate fired before period 0's slots: node 2 never
        // beaconed across the severed links, so the left fragment's
        // maximum is 1, not 4.
        assert_eq!(*driver.state(NodeId::new(0)), 1);
        assert_eq!(*driver.state(NodeId::new(1)), 1);
        assert_eq!(*driver.state(NodeId::new(4)), 4);
    }

    #[test]
    fn mobility_ticks_fire_at_period_boundaries() {
        // Two disconnected halves; at period 5 a bridge appears via a
        // scripted topology swap driven through the dynamics hook.
        struct Bridge {
            before: Topology,
            after: Topology,
        }
        impl TopologyDynamics for Bridge {
            fn next_topology(&mut self, step: u64) -> Option<&Topology> {
                Some(if step >= 5 { &self.after } else { &self.before })
            }
        }
        let before = Topology::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let after = Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut driver = ActorDriver::new(GatedFlood, PerfectMedium, before.clone(), 4, 2)
            .expect("valid actor driver");
        driver
            .env
            .install(Vec::new(), None, Some(Box::new(Bridge { before, after })));
        // Before the bridge: the fragments converge separately.
        driver.run(5);
        assert_eq!(*driver.state(NodeId::new(0)), 1, "no link yet");
        // After the bridge the flood crosses it.
        driver
            .run_to(&StopWhen::stable_for(3).within(100))
            .expect_stable("the bridged flood settles");
        assert!(driver.states().iter().all(|&s| s == 3));
    }
}
