//! The per-node **visit** of a period — the paper's Δ(τ) move — as both
//! period-clocked drivers run it: refresh the cached copies that
//! arrived, run the guards, decide whether the node changed.
//!
//! A visit writes only its node's own state and reception row and reads
//! only frozen columns, so [`partition`] cuts the sorted candidates
//! into contiguous chunks and, at the same slot boundaries, the state
//! column and the reception arena into disjoint runs. Everything here
//! is in storage order: candidates, columns and rows are indexed by
//! slot, a row names its neighbors' slots, and ids appear only where a
//! protocol call, a stream key or a message needs one. Every worker
//! mutates its [`Shard`] in place — nothing is copied out or merged
//! back — and one worker is simply the calling thread. What differs
//! between the drivers is the frame loop inside a visit (a `Delivery`
//! join, the reception row read against the frozen set of senders, a
//! mailbox drain): the closure they hand to [`Env::visit`].
//!
//! Both frame loops leave each frame's fate to [`super::gate`], the
//! one place it is decided on every driver: under gating a fresh frame
//! goes to [`Protocol::receive`] only if the receiver does not already
//! hold what `receive` reads of it; either way the frame's epoch goes
//! into the reception row. The guard pass that closes the visit is
//! [`super::settle`]'s to skip, as on the event clock: a *hearer* —
//! a candidate nothing but a frame scheduled, so its last pass changed
//! nothing — whose frames all came back stale or held runs none. The
//! change rule's snapshot waits for the visit's first receive, or for a
//! pass that runs, so a skipped visit copies nothing.
//!
//! A visit also settles what the period's tail may assume: every frame
//! copy a visited node heard is written into its reception row, and a
//! node that was not visited held every epoch it heard — the two facts
//! `Env::retire_caught_up` rests on when a period loses no copy. The
//! nodes the change rule saw change join the table's one change set
//! when the workers have joined.

use mwn_graph::Topology;

use super::kernels::HeardRun;
use super::{
    reserve, row_is_adjacency, run_sharded, settle, Env, Fate, NodeSet, Slot, StorageOrder,
};
use crate::network::StepActivity;
use crate::protocol::snapshot;
use crate::rng::split_rng;
use crate::Protocol;

/// The `i`-th of `parts` balanced contiguous chunks of `0..len`.
pub(crate) fn chunk(len: usize, parts: usize, i: usize) -> std::ops::Range<usize> {
    i * len / parts..(i + 1) * len / parts
}

/// Splits a period's visits `workers` ways: chunk `i` of the sorted
/// `candidates`, and with it the run of `states` and of reception rows
/// (both indexed by slot) from the chunk's first candidate up to the
/// next chunk's — the first run starts at slot 0, the last ends with
/// the column. The runs are disjoint, in order and cover both columns,
/// so each worker can mutate its nodes in place; yields
/// `(base, chunk, states, rows)`.
pub(crate) fn partition<'a, S>(
    candidates: &'a [Slot],
    mut states: &'a mut [S],
    mut heard: HeardRun<'a>,
    workers: usize,
) -> impl Iterator<Item = (usize, &'a [Slot], &'a mut [S], HeardRun<'a>)> {
    let mut base = 0;
    (0..workers).map(move |i| {
        let mine = chunk(candidates.len(), workers, i);
        let end = match candidates.get(mine.end) {
            Some(next) if i + 1 < workers => next.index(),
            _ => base + states.len(),
        };
        let run;
        (run, states) = std::mem::take(&mut states).split_at_mut(end - base);
        let rows;
        (rows, heard) = std::mem::take(&mut heard).split_at(end - base);
        let shard = (base, &candidates[mine], run, rows);
        base = end;
        shard
    })
}

/// One visit worker's reusable buffers. `align(64)` keeps two workers'
/// counters off one cache line.
#[repr(align(64))]
pub(crate) struct VisitScratch<P: Protocol> {
    /// Whether this period tracks change (gated scheduling).
    gated: bool,
    /// The visited node's state before the visit first mutated it.
    before: Option<P::State>,
    /// Slots of the nodes this worker's visits changed, ascending.
    changed: Vec<Slot>,
    /// What the worker's visits did: receives, frames held, guard
    /// passes run and passes settled.
    tally: StepActivity,
    /// Whether the open visit held a frame.
    holding: bool,
    /// Pooled decode target for a frame loop whose beacons arrive
    /// serialized (the actor fabric); starts from any beacon at all.
    pub beacon: Option<P::Beacon>,
    /// Where debug builds run each receive [`super::gate`] and each
    /// pass [`super::settle`] skipped.
    pub held_check: Option<P::State>,
}

impl<P: Protocol> VisitScratch<P> {
    fn new() -> Self {
        VisitScratch {
            gated: false,
            before: None,
            changed: Vec::new(),
            tally: StepActivity::default(),
            holding: false,
            beacon: None,
            held_check: None,
        }
    }

    /// Records `state` as the "before" of the change rule. Free under
    /// eager scheduling, which tracks no change.
    #[inline]
    fn snapshot(&mut self, state: &P::State) {
        if self.gated {
            snapshot(&mut self.before, state);
        }
    }

    /// Counts a frame by the fate [`super::gate`] gave it and says
    /// whether the open visit hands it to [`Protocol::receive`]. A
    /// frame received is counted right before its receive, and the
    /// visit's first — `received` is still false — snapshots `state`
    /// for the change rule and sets it; a held frame is counted as
    /// held, and marks the visit as one that held a frame.
    #[inline]
    pub fn admit(&mut self, fate: Fate, state: &P::State, received: &mut bool) -> bool {
        match fate {
            Fate::Receive => {
                if !*received {
                    *received = true;
                    self.snapshot(state);
                }
                self.tally.receives += 1;
                true
            }
            Fate::Held => {
                self.tally.held += 1;
                self.holding = true;
                false
            }
            Fate::Stale => false,
        }
    }
}

/// One worker's share of a period: its chunk of the sorted candidates,
/// the frozen columns every worker reads, and the runs of the state
/// column and the reception arena that contain its candidates — its
/// own to write. Everything is indexed by slot; `order` names the node
/// at each.
pub(crate) struct Shard<'a, P: Protocol> {
    pub candidates: &'a [Slot],
    pub protocol: &'a P,
    /// Read only by the debug check that a row names its node's
    /// adjacency.
    topo: &'a Topology,
    pub order: &'a StorageOrder,
    pub beacons: &'a [P::Beacon],
    pub epoch: &'a [u32],
    pub read_epoch: &'a [u32],
    /// The period's senders. Frozen like the columns: slot release
    /// wrote it before the visits, retirement writes it after them.
    pub sending: &'a NodeSet,
    /// The period's candidates nothing but a frame scheduled.
    hearers: &'a NodeSet,
    update_base: u64,
    now: u64,
    /// The slot `states[0]` and the first reception row belong to.
    base: usize,
    states: &'a mut [P::State],
    heard: HeardRun<'a>,
    scratch: &'a mut VisitScratch<P>,
}

impl<'a, P: Protocol> Shard<'a, P> {
    /// Opens the visit of candidate `p`: its state, handed its sizing
    /// hint ([`reserve`]), its reception row (one epoch per neighbor, in
    /// neighbor-id order), the slots of the neighbors the row names and
    /// the worker's buffers. Debug builds assert that the row names
    /// exactly `p`'s adjacency. Always inlined into the frame loop it
    /// opens: out of line, its return of four parts goes through memory
    /// at every visit.
    #[inline(always)]
    pub fn open(
        &mut self,
        p: Slot,
    ) -> (&mut P::State, &mut [u32], &'a [Slot], &mut VisitScratch<P>) {
        let i = p.index() - self.base;
        let degrees = self.heard.degrees;
        let (row, neighbors) = self.heard.row_mut(i);
        debug_assert!(
            row_is_adjacency(self.order, neighbors, self.topo, self.order.id(p)),
            "the reception row of {} names another adjacency",
            self.order.id(p)
        );
        let state = &mut self.states[i];
        reserve(self.protocol, state, neighbors, degrees);
        (state, row, neighbors, &mut *self.scratch)
    }

    /// Where `p`'s reception row's capacity region starts in the
    /// arena: the start of `p`'s region in any arena laid out over the
    /// rows (the actor fabric's mailboxes).
    #[inline]
    pub fn row_start(&self, p: Slot) -> usize {
        self.heard.start(p.index() - self.base)
    }

    /// Closes the visit of `p`, `received` saying whether a frame of it
    /// went to [`Protocol::receive`]: one pass of guarded assignments on
    /// the node's own `(period, node)` stream — unless [`settle`] skips
    /// it: `p` is a hearer and received nothing — then the change rule:
    /// `p` changed iff its state differs from the snapshot. (A node
    /// something outside the protocol mutated is in the change set
    /// already.)
    ///
    /// A skipped pass counts as settled when the visit held a frame:
    /// the pass the gate's holds saved. A hearer whose frames were all
    /// stale or lost — every period step visits one, since every
    /// neighbor of a sender is a hearer — saves nothing and counts
    /// nothing, so the count is the same whichever way a step gets its
    /// frames.
    #[inline]
    pub fn update(&mut self, p: Slot, received: bool) {
        let (protocol, now, base) = (self.protocol, self.now, self.update_base);
        let id = self.order.id(p);
        let rng = || split_rng(base, now, u64::from(id.value()));
        let dirty = !self.hearers.contains(p);
        let (state, sc) = (&mut self.states[p.index() - self.base], &mut *self.scratch);
        let held = std::mem::take(&mut sc.holding);
        let pass = |copy: &mut P::State| protocol.update(id, copy, now, &mut rng());
        if !settle(dirty, received, id, (&*state, &mut sc.held_check, pass)) {
            sc.tally.settled += usize::from(held);
            return;
        }
        if !received {
            sc.snapshot(state);
        }
        protocol.update(id, state, now, &mut rng());
        sc.tally.updates += 1;
        if sc.gated && sc.before.as_ref() != Some(&*state) {
            sc.changed.push(p);
        }
    }
}

impl<P: Protocol> Env<P> {
    /// Runs period `now`'s visits on `workers` workers: `body` walks
    /// its shard's candidates — [`Shard::open`], the driver's frame
    /// loop, [`Shard::update`] — on a scoped thread per shard, or
    /// inline when there is one. Afterwards the changed nodes join the
    /// change set, the period's hearers are consumed, and the visits'
    /// receives, held frames, guard passes and settled passes are
    /// counted into [`Env::tally`].
    pub fn visit(
        &mut self,
        now: u64,
        gated: bool,
        candidates: &[Slot],
        workers: usize,
        body: impl Fn(&mut Shard<'_, P>) + Sync,
    ) {
        if candidates.is_empty() {
            return; // a quiet period costs nothing here
        }
        if self.visit_pool.len() < workers {
            self.visit_pool.resize_with(workers, VisitScratch::new);
        }
        let (table, pool) = (&mut self.table, &mut self.visit_pool[..workers]);
        let states = table.states.slots_mut(&table.order);
        let runs = partition(candidates, states, table.heard.run_mut(), workers);
        let shards = runs.zip(pool.iter_mut()).map(|(run, scratch)| {
            scratch.gated = gated;
            scratch.changed.clear();
            scratch.tally = StepActivity::default();
            let (base, candidates, states, heard) = run;
            Shard {
                candidates,
                protocol: &self.protocol,
                topo: &self.topo,
                order: &table.order,
                beacons: &table.beacons,
                epoch: &table.epoch,
                read_epoch: &table.read_epoch,
                sending: &table.send_pending,
                hearers: &table.hearers,
                update_base: self.update_base,
                now,
                base,
                states,
                heard,
                scratch,
            }
        });
        if workers <= 1 {
            shards.for_each(|mut shard| body(&mut shard));
        } else {
            let mut shards: Vec<_> = shards.collect();
            run_sharded(&mut shards, |_, shard| body(shard));
        }
        let tally = &mut self.tally;
        for sc in pool.iter() {
            tally.receives += sc.tally.receives;
            tally.held += sc.tally.held;
            tally.updates += sc.tally.updates;
            tally.settled += sc.tally.settled;
            for &p in &sc.changed {
                table.changes.insert(p);
            }
        }
        table.hearers.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::kernels::HeardTable;

    /// A table whose row `r` names `degrees[r]` neighbors.
    fn heard_table(degrees: impl IntoIterator<Item = u32>) -> HeardTable {
        let degrees: Vec<u32> = degrees.into_iter().collect();
        HeardTable::new(degrees.len(), |r| (0..degrees[r]).map(Slot::new))
    }
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Checks one partition over `heard`'s nodes: the state runs and
    /// the reception runs are disjoint, in order and cover their
    /// columns, both cut at the same nodes; the chunks cover the
    /// candidates in order; and every candidate indexes its own state
    /// and its own reception row inside its shard's runs.
    fn assert_partition(nodes: &[u32], heard: &mut HeardTable, workers: usize) {
        let n = heard.rows();
        let candidates: Vec<Slot> = nodes.iter().map(|&p| Slot::new(p)).collect();
        // states[i] == i, so a run's content names the nodes it covers.
        let mut states: Vec<usize> = (0..n).collect();
        let arena = heard.run_mut().span();
        let (mut shards, mut next, mut seen, mut entries) = (0, 0, 0, 0);
        let runs = partition(&candidates, &mut states, heard.run_mut(), workers);
        for (base, chunk, run, mut rows) in runs {
            assert_eq!(base, next, "runs are contiguous and in order");
            assert_eq!(rows.span().0, entries, "reception runs tile the arena");
            assert_eq!(chunk, &candidates[seen..seen + chunk.len()]);
            assert!(run.iter().copied().eq(base..base + run.len()));
            // Stamp every row through its run; read back through the table.
            for i in 0..run.len() {
                rows.row_mut(i).0.fill((base + i) as u32);
            }
            for &r in chunk {
                assert!(base <= r.index() && r.index() < base + run.len(), "{r:?}");
            }
            (shards, next, seen) = (shards + 1, next + run.len(), seen + chunk.len());
            entries += rows.span().1;
        }
        assert_eq!((shards, next, seen), (workers, n, nodes.len()), "{nodes:?}");
        assert_eq!((0, entries), arena, "the runs cover the arena");
        for r in 0..n {
            let own = heard.row(r).iter().all(|&e| e == r as u32);
            assert!(own, "row {r} was written through another node's run");
        }
    }

    #[test]
    fn partition_splits_the_state_column_at_candidate_boundaries() {
        // Edge cases: first node, last node, both, everyone, no one.
        let mut six = heard_table([2, 0, 3, 1, 4, 2]);
        for workers in 1..=8 {
            assert_partition(&[], &mut six, workers);
            assert_partition(&[0], &mut six, workers);
            assert_partition(&[5], &mut six, workers);
            assert_partition(&[0, 5], &mut six, workers);
            assert_partition(&[0, 1, 2, 3, 4, 5], &mut six, workers);
            assert_partition(&[0], &mut heard_table([3]), workers);
        }
        // A quiet period has no candidates and asks for no workers.
        let mut states = [0usize; 6];
        assert_eq!(partition(&[], &mut states, six.run_mut(), 0).count(), 0);
        // Random sorted candidate sets, including fewer candidates than
        // workers and chunk sizes that do not divide — before and after
        // a row outgrows its slack and the arena is laid out afresh.
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..300 {
            let n = rng.random_range(1..40usize);
            let mut heard = heard_table(
                (0..n)
                    .map(|_| rng.random_range(0..9u32))
                    .collect::<Vec<_>>(),
            );
            let density = rng.random_range(0.0..1.0);
            let nodes: Vec<u32> = (0..n as u32).filter(|_| rng.random_bool(density)).collect();
            for grown in [false, true] {
                if grown {
                    let r = rng.random_range(0..n);
                    let (_, before) = heard.run_mut().span();
                    let grown = heard.row(r).len() as u32 + 5;
                    heard.reset_row(r, (0..grown).map(Slot::new));
                    assert!(heard.run_mut().span().1 > before, "re-laid out");
                }
                for workers in 1..=8 {
                    assert_partition(&nodes, &mut heard, workers);
                }
            }
        }
        // The balanced chunks never differ by more than one candidate.
        for (len, parts) in [(5, 3), (7, 7), (8, 3), (100, 7)] {
            let sizes: Vec<usize> = (0..parts).map(|i| chunk(len, parts, i).len()).collect();
            assert_eq!(sizes.iter().sum::<usize>(), len);
            assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
        }
    }
}
