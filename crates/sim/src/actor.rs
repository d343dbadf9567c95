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
//!    byte arena (cleared at the start of the period, capacity kept),
//!    and writes **one record per transmission** beside it — sender,
//!    epoch, read epoch (when what a receive reads of the beacon last
//!    changed), and where the payload sits. A frame copy is then one
//!    4-byte entry naming the record, pushed into each lucky receiver's
//!    mailbox: the cost of a beacon is paid once per transmission, only
//!    delivery once per copy. All mailboxes live in **one arena**,
//!    laid out over the reception rows' capacity regions (an actor's
//!    mailbox is its reception row's region, so it holds at least its
//!    in-degree), with a fill count per actor beside it. One send
//!    worker owns the arena and pushes with plain stores; several claim
//!    entries with an atomic increment of the receiver's fill count.
//! 3. **Quiescence barrier** — the governor waits until every released
//!    slot has quiesced (all sends delivered), then releases the
//!    receive side. The candidates (actors with pending guards and the
//!    senders' neighbors, marked as the round driver marks them) are
//!    sorted by table slot, so contiguous candidate chunks cover
//!    disjoint contiguous runs of the state column: the column is split
//!    with `split_at_mut`, each worker owns its run, and its actors
//!    drain their mailboxes **in arrival order** (a load and a store of
//!    their own fill count), decode every fresh frame from its record's
//!    byte arena into the worker's one pooled beacon, receive, and run
//!    one pass of guarded assignments — all **in place**, no state is
//!    copied out or moved back. Each frame's fate is the engine's frame
//!    gate's (`engine::gate`), as on the other drivers: under gating a
//!    fresh frame whose record says the actor already holds what a
//!    receive reads (its row's epoch lies between the frame's read
//!    epoch and its epoch) is neither decoded nor received, and an
//!    actor that only frames woke runs its guards only if it received
//!    one (`engine::settle`, the skip rule of all three drivers). The
//!    reception arena is split at the same slot boundaries, so an actor
//!    writes the epoch of every fresh frame straight into its own
//!    reception row, found by the sender's id among the neighbors the
//!    row names. This is the round driver's phase 5 with a different
//!    frame loop: the partition, the change rule (a scratch snapshot
//!    taken before the first mutation, compared after the update) and
//!    the scheduling of changed actors in worker order — storage order
//!    — are the engine's, shared by both (`engine::visit`). Mailboxes,
//!    like every per-node column, are laid out in storage order (by
//!    radio cell, for a deployment); senders are taken, and frames
//!    pushed, in id order.
//!
//! Every buffer either phase writes is owned by a worker or the fabric
//! and reused across periods, and the mailbox arena is re-laid out only
//! when the reception arena is (a length compare per period), so a
//! steady-state period allocates nothing per sender, per frame or per
//! actor — at `threads > 1` what is left is the period's list of
//! receive shards, at one thread nothing (`tests/alloc_audit.rs`). The
//! worker count is `min(threads, work items)`, so a quiet period spawns
//! nothing.
//!
//! Within a slot the interleaving is genuinely nondeterministic: with
//! `threads > 1` the OS scheduler decides how the send workers'
//! claims interleave in every mailbox (each worker walks its own chunk
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

use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

use mwn_graph::{NodeId, Topology};
use mwn_radio::{Medium, MediumKind, PerfectMedium};

use crate::driver::{period_step, Period, Sealed, Transport};
use crate::engine::kernels::HeardTable;
use crate::engine::{self, chunk, run_sharded, Env, NodeTable, Slot};
use crate::error::SimError;
use crate::protocol::Protocol;
use crate::rng::{split_rng, streams};
use crate::wire::WireBeacon;
use crate::{Clock, Sim};

/// One serialized beacon in flight, written once per transmission: the
/// routing metadata a link layer would carry in the frame header — the
/// sender, its beacon epoch and the epoch at which what a receive reads
/// of that beacon last changed — plus where the wire bytes sit:
/// `bytes[off..off + len]` of the byte arena of the send worker whose
/// [`SendScratch`] holds the record, read by every receiver of the
/// period.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Record {
    sender: NodeId,
    epoch: u32,
    read_epoch: u32,
    off: usize,
    len: usize,
}

/// Every actor's mailbox, in one arena of 4-byte entries laid out over
/// the reception rows: the mailbox of the actor at slot `a` starts at
/// its row's capacity region ([`engine::kernels::HeardTable::start`]),
/// so it holds at least the actor's in-degree — the protocol sends at
/// most one beacon per neighbor per period, so a push never blocks and
/// an overflow is a driver bug, not backpressure. An entry names one
/// [`Record`] of the period by its index; `fill[a]` counts the entries
/// the mailbox holds.
#[derive(Default)]
struct Mailboxes {
    entries: Vec<AtomicU32>,
    fill: Vec<AtomicU32>,
}

impl Mailboxes {
    /// Lays the arena out over `heard` again if that was re-laid out
    /// since — a length compare per period. Every mailbox is empty
    /// between periods, so the entries carry nothing over, and the
    /// regions are read off the rows at every push and drain.
    fn fit(&mut self, heard: &HeardTable) {
        debug_assert!(
            self.fill.iter_mut().all(|f| *f.get_mut() == 0),
            "a mailbox still holds entries of the last period, whose \
             records and byte arenas are gone"
        );
        if self.entries.len() != heard.capacity() {
            self.entries
                .resize_with(heard.capacity(), AtomicU32::default);
        }
        if self.fill.len() != heard.rows() {
            self.fill.resize_with(heard.rows(), AtomicU32::default);
        }
    }

    /// Empties the mailbox of the actor at `slot`, which starts at
    /// arena entry `start`: its record indices, in arrival order.
    fn drain(&self, slot: usize, start: usize) -> impl Iterator<Item = usize> + '_ {
        let fill = &self.fill[slot];
        let count = fill.load(Relaxed) as usize;
        fill.store(0, Relaxed);
        let entries = &self.entries[start..start + count];
        entries.iter().map(|e| e.load(Relaxed) as usize)
    }
}

/// How a send worker puts a record's index into a mailbox — the one
/// part of a send that depends on how many workers run it.
trait Push {
    /// Appends `record` to the mailbox of the actor at `slot`, which
    /// starts at arena entry `start`; returns the entries it held
    /// before.
    fn push(&mut self, slot: usize, start: usize, record: u32) -> u32;
}

/// One send worker owns the arena: a push is two plain stores.
impl Push for &mut Mailboxes {
    #[inline]
    fn push(&mut self, slot: usize, start: usize, record: u32) -> u32 {
        let held = *self.fill[slot].get_mut();
        *self.entries[start + held as usize].get_mut() = record;
        *self.fill[slot].get_mut() = held + 1;
        held
    }
}

/// Several send workers share the arena: each claims its entry with an
/// atomic increment of the fill count, so arrival order is whatever the
/// OS scheduler makes of the workers. `Relaxed` is enough: increments
/// of one count are totally ordered, so no two claims meet, and nothing
/// reads the arena before the send workers' scope has joined, which
/// orders every store before the receive side's loads.
impl Push for &Mailboxes {
    #[inline]
    fn push(&mut self, slot: usize, start: usize, record: u32) -> u32 {
        let held = self.fill[slot].fetch_add(1, Relaxed);
        self.entries[start + held as usize].store(record, Relaxed);
        held
    }
}

/// One send worker's reusable buffers. `records` holds one
/// [`Record`] per sender of the worker's chunk, the period's records
/// `first..first + records.len()`; `bytes` is the worker's byte arena:
/// every beacon it encodes this period, back to back. `align(64)` keeps
/// two workers' counters off one cache line.
#[repr(align(64))]
#[derive(Default)]
struct SendScratch {
    heard: Vec<NodeId>,
    first: usize,
    records: Vec<Record>,
    bytes: Vec<u8>,
    attempted: usize,
    delivered: usize,
}

/// What every send worker of a period reads: frozen while they run.
struct Outbox<'a, P: Protocol, M> {
    medium: &'a M,
    table: &'a NodeTable<P>,
    topo: &'a Topology,
    /// The workers derive each sender's stream as `Env::medium_rng`
    /// does, from the base: the environment itself (its dynamics hook)
    /// is not `Sync`.
    medium_base: u64,
    period: u64,
    /// The period's senders by id; record `i` is `senders[i]`'s.
    senders: &'a [NodeId],
    workers: usize,
}

impl<P, M> Outbox<'_, P, M>
where
    P: Protocol,
    P::Beacon: WireBeacon,
    M: Medium,
{
    /// Worker `w`'s send, written once for every worker count: each
    /// sender of its chunk, in ascending id, gets its fates from the
    /// medium on the stream the round driver derives for the same
    /// (period, sender), one record, its beacon encoded once into the
    /// worker's byte arena, and the record's index pushed through
    /// `push` into each lucky receiver's mailbox.
    fn send(&self, w: usize, sc: &mut SendScratch, mut push: impl Push) {
        let (table, topo) = (self.table, self.topo);
        let mine = chunk(self.senders.len(), self.workers, w);
        debug_assert!(
            u32::try_from(self.senders.len()).is_ok(),
            "a record index is below the period's sender count, which fits a NodeId"
        );
        sc.first = mine.start;
        sc.records.clear();
        sc.bytes.clear();
        (sc.attempted, sc.delivered) = (0, 0);
        for &s in &self.senders[mine] {
            let record = (sc.first + sc.records.len()) as u32;
            sc.heard.clear();
            let mut rng = split_rng(self.medium_base, self.period, u64::from(s.value()));
            sc.attempted += self.medium.fates(topo, s, &mut rng, &mut sc.heard);
            let i = table.order.slot(s).index();
            let off = sc.bytes.len();
            if !sc.heard.is_empty() {
                table.beacons[i].encode(&mut sc.bytes);
            }
            sc.records.push(Record {
                sender: s,
                epoch: table.epoch[i],
                read_epoch: table.read_epoch[i],
                off,
                len: sc.bytes.len() - off,
            });
            for &r in &sc.heard {
                let at = table.order.slot(r).index();
                let held = push.push(at, table.heard.start(at), record);
                debug_assert!(
                    held < table.heard.degrees()[at],
                    "mailbox overflow at {r}: more frames than its in-degree \
                     (one per neighbor per period)"
                );
            }
            sc.delivered += sc.heard.len();
        }
    }
}

/// The period's records, read by index: record `i` sits with the send
/// worker whose chunk of the `senders` holds `i`.
#[derive(Clone, Copy)]
struct Records<'a> {
    sent: &'a [SendScratch],
    senders: usize,
}

impl<'a> Records<'a> {
    /// Record `i` and its payload.
    #[inline]
    fn get(self, i: usize) -> (&'a Record, &'a [u8]) {
        let sc = &self.sent[owner(self.senders, self.sent.len(), i)];
        let record = &sc.records[i - sc.first];
        (record, &sc.bytes[record.off..record.off + record.len])
    }
}

/// The chunk of `0..len` cut into `parts` ([`chunk`]) that holds `i`.
#[inline]
fn owner(len: usize, parts: usize, i: usize) -> usize {
    if parts == 1 {
        0
    } else {
        ((i + 1) * parts - 1) / len
    }
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
    /// Every actor's mailbox, laid out over the reception rows.
    mail: Mailboxes,
    /// The period's senders by id; record `i` is `sender_ids[i]`'s.
    sender_ids: Vec<NodeId>,
    /// Per-worker buffers of the send phase, one slot per pool thread.
    send_scratch: Vec<SendScratch>,
    /// How many of them the period's send ran on.
    send_workers: usize,
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
    /// worker pushes in ascending sender id ([`Outbox::send`]). One
    /// worker pushes through the mailbox arena it owns; several share
    /// it, and how their pushes interleave in a mailbox is whatever the
    /// OS scheduler makes of it — the genuine nondeterminism this
    /// driver exists to exercise.
    ///
    /// Then the quiescence barrier: `run_sharded` joined its workers,
    /// so every released slot has delivered before the period step
    /// schedules the senders' neighbors (under gating a hearer runs its
    /// guards only when its mail holds a frame it receives, as on the
    /// round driver).
    fn send(&mut self, env: &mut Env<P>, period: u64, _: bool, senders: &[Slot]) -> (usize, usize) {
        self.mail.fit(&env.table.heard);
        env.table.order.sorted_ids(senders, &mut self.sender_ids);
        self.send_workers = self.threads.min(senders.len());
        let outbox = Outbox {
            medium: &self.medium,
            table: &env.table,
            topo: &env.topo,
            medium_base: env.medium_base,
            period,
            senders: &self.sender_ids,
            workers: self.send_workers,
        };
        let sent = &mut self.send_scratch[..self.send_workers];
        if let [sc] = sent {
            outbox.send(0, sc, &mut self.mail);
        } else {
            let mail = &self.mail;
            run_sharded(sent, |w, sc| outbox.send(w, sc, mail));
        }
        let sent = &self.send_scratch[..self.send_workers];
        let attempted = sent.iter().map(|sc| sc.attempted).sum();
        let delivered = sent.iter().map(|sc| sc.delivered).sum();
        (attempted, delivered)
    }

    /// Receive phase: every worker owns one contiguous run of the state
    /// column and of the reception arena and executes its candidates in
    /// place; the engine schedules the changed actors once the workers
    /// have joined.
    fn visit(&mut self, env: &mut Env<P>, period: u64, eager: bool, candidates: &[Slot]) {
        let recv_workers = self.threads.min(candidates.len());
        let mail = &self.mail;
        let records = Records {
            sent: &self.send_scratch[..self.send_workers],
            senders: self.sender_ids.len(),
        };
        env.visit(period, !eager, candidates, recv_workers, |shard| {
            let (beacons, protocol, order) = (shard.beacons, shard.protocol, shard.order);
            for &at in shard.candidates {
                let r = order.id(at);
                let start = shard.row_start(at);
                let (state, row, neighbors, sc) = shard.open(at);
                let mut received = false;
                for index in mail.drain(at.index(), start) {
                    let (frame, bytes) = records.get(index);
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
    /// Returns [`SimError::InvalidConfig`] for a
    /// [`MediumKind::Contention`] medium, naming it: the fabric asks
    /// [`Medium::fates`] per sender from its worker threads, and a
    /// contention round serializes all senders through one channel
    /// state, which cannot be replayed concurrently. The statistical
    /// occupancy fold that lets such a medium gate on the round and
    /// event clocks does not carry over to message-passing actors.
    pub(crate) fn new(
        protocol: P,
        medium: M,
        topo: Topology,
        seed: u64,
        threads: usize,
    ) -> Result<Self, SimError> {
        match medium.kind() {
            MediumKind::Lossless | MediumKind::Independent => {}
            MediumKind::Contention => {
                return Err(SimError::InvalidConfig(format!(
                    "medium `{}` cannot back the actor driver: it is a \
                     contention medium, whose frame fates are coupled \
                     across senders; the actor fabric needs per-sender \
                     fates (Medium::fates) it can evaluate concurrently",
                    medium.name()
                )));
            }
        }
        let threads = threads.max(1);
        let clock = Actors {
            period: Period::default(),
            medium,
            threads,
            mail: Mailboxes::default(),
            sender_ids: Vec::new(),
            send_scratch: (0..threads).map(|_| SendScratch::default()).collect(),
            send_workers: 0,
        };
        let env = Env::new(protocol, topo, seed, streams::ROUND_FAULT);
        let mut sim = Sim { env, clock };
        sim.clock.mail.fit(&sim.env.table.heard);
        Ok(sim)
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
    use mwn_graph::{builders, Point2};
    use mwn_radio::{BernoulliLoss, CaptureCsma, SlottedCsma};

    fn flood_actors(n: usize, threads: usize) -> ActorDriver<GatedFlood> {
        Scenario::new(GatedFlood)
            .topology(builders::line(n))
            .seed(9)
            .build_actors(threads)
            .expect("valid actor scenario")
    }

    #[test]
    fn chunk_owners_invert_chunks() {
        for len in 1..40 {
            for parts in 1..=len {
                for w in 0..parts {
                    for i in chunk(len, parts, w) {
                        assert_eq!(owner(len, parts, i), w, "len={len} parts={parts} i={i}");
                    }
                }
            }
        }
    }

    #[test]
    fn the_exclusive_and_shared_pushers_leave_identical_mailboxes_for_one_worker() {
        let driver = Scenario::new(GatedFlood)
            .medium(BernoulliLoss::new(0.3))
            .topology(builders::grid(7, 7, 0.25))
            .seed(11)
            .build_actors(1)
            .expect("valid actor scenario");
        let (env, clock) = (&driver.env, &driver.clock);
        let senders: Vec<NodeId> = env.topo.nodes().collect();
        let outbox = Outbox {
            medium: &clock.medium,
            table: &env.table,
            topo: &env.topo,
            medium_base: env.medium_base,
            period: 3,
            senders: &senders,
            workers: 1,
        };
        let heard = &env.table.heard;
        let (mut exclusive, mut shared) = (Mailboxes::default(), Mailboxes::default());
        exclusive.fit(heard);
        shared.fit(heard);
        let (mut a, mut b) = (SendScratch::default(), SendScratch::default());
        outbox.send(0, &mut a, &mut exclusive);
        outbox.send(0, &mut b, &shared);
        assert!(
            a.delivered > 0 && a.delivered < a.attempted,
            "a lossy period"
        );
        assert_eq!((a.attempted, a.delivered), (b.attempted, b.delivered));
        assert_eq!(a.records, b.records);
        assert_eq!(a.bytes, b.bytes);
        let mut copies = 0;
        for slot in 0..heard.rows() {
            let mail: Vec<usize> = exclusive.drain(slot, heard.start(slot)).collect();
            let twin: Vec<usize> = shared.drain(slot, heard.start(slot)).collect();
            assert_eq!(mail, twin, "slot {slot}");
            // One worker pushes in ascending sender id, each a neighbor.
            let from: Vec<NodeId> = mail.iter().map(|&i| a.records[i].sender).collect();
            assert!(
                from.windows(2).all(|w| w[0] < w[1]),
                "slot {slot}: {from:?}"
            );
            let at = env.table.order.id(Slot::new(slot as u32));
            assert!(from.iter().all(|s| env.topo.neighbors(at).contains(s)));
            copies += mail.len();
        }
        assert_eq!(copies, a.delivered);
        for m in [&mut exclusive, &mut shared] {
            assert!(m.fill.iter_mut().all(|f| *f.get_mut() == 0), "drained");
        }
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
            driver
                .inject(&Fault::CorruptNode(NodeId::new(14)))
                .expect("a valid fault");
            driver.run(30);
            driver.set_eager(false);
            let before = driver.states().to_vec();
            driver.step();
            assert_eq!(driver.states(), before, "the eager stretch had repaired it");
            assert_eq!(driver.last_activity().changed, 0, "threads={threads}");
            driver
                .inject(&Fault::CorruptNode(NodeId::new(14)))
                .expect("a valid fault");
            driver.step();
            assert_eq!(driver.last_activity().changed, 1, "a gated fault still is");
        }
    }

    #[test]
    fn contention_media_are_rejected_by_name() {
        fn rejection<M: Medium + Sync>(medium: M) -> String {
            let result = Scenario::new(GatedFlood)
                .medium(medium)
                .topology(builders::line(4))
                .seed(1)
                .build_actors(2);
            let Err(SimError::InvalidConfig(text)) = result else {
                panic!("contention media must be rejected");
            };
            text
        }
        // Pinned verbatim, so the message cannot silently regress into
        // something less actionable.
        assert_eq!(
            rejection(SlottedCsma::new(8)),
            "medium `slotted-csma` cannot back the actor driver: it is a \
             contention medium, whose frame fates are coupled across \
             senders; the actor fabric needs per-sender fates \
             (Medium::fates) it can evaluate concurrently"
        );
        let text = rejection(CaptureCsma::new(8, 1.5));
        assert!(text.starts_with("medium `capture-csma` cannot back the actor driver"));
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
        // Two disconnected halves of a unit-disk line; at period 5 the
        // right half moves one unit left and a bridge link appears.
        struct Bridge(Vec<(NodeId, Point2)>);
        impl TopologyDynamics for Bridge {
            fn next_moves(&mut self, step: u64) -> &[(NodeId, Point2)] {
                if step == 5 {
                    &self.0
                } else {
                    &[]
                }
            }
        }
        let at = |x| Point2::new(x, 0.0);
        let line = Topology::unit_disk(vec![at(0.0), at(1.0), at(3.0), at(4.0)], 1.5).unwrap();
        let bridge = Bridge(vec![(NodeId::new(2), at(2.0)), (NodeId::new(3), at(3.0))]);
        let mut driver =
            ActorDriver::new(GatedFlood, PerfectMedium, line, 4, 2).expect("valid actor driver");
        driver.env.install(Vec::new(), None, Some(Box::new(bridge)));
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
