//! Branch-lean, word-at-a-time kernels behind the converging-phase hot
//! loop, plus the cache-engineered columnar layouts they operate on.
//!
//! The quiet path costs (near) zero by construction — dirty sets empty,
//! event queue drained — so the engine's remaining cost center is the
//! **converging phase**: every node active, every beacon flying, every
//! step a full pass over the dirty bitsets, the per-edge reception
//! epochs and the delivered-frame lists. This module extracts those
//! inner loops into standalone kernels with three properties:
//!
//! * **word-at-a-time** — dirty sets (`NodeSet`) are one bit per
//!   table slot in cache-line-aligned u64 words plus a member count;
//!   membership is a bit test, collection decodes set bits with
//!   `trailing_zeros` (with an all-ones fast path that turns the
//!   cold-start storm into a near-memcpy) and skips zero lines, and
//!   never sorts — bit order *is* storage order; the count makes an
//!   empty set free to collect, drain or clear;
//! * **contiguous rows** — the per-frame joins ([`sorted_positions`],
//!   [`any_fresh`]) probe a receiver's sorted adjacency slice with one
//!   binary search per delivered sender: at radio degrees (tens of
//!   neighbors) a handful of well-predicted probes over one or two
//!   cache lines (a step over a lossless medium needs neither — it
//!   walks the reception row, whose entries name their senders' slots);
//! * **one arena** — `HeardTable` flattens the per-node reception
//!   rows (`Vec<Vec<u32>>`, one heap allocation per node) into one CSR
//!   arena: each row is a contiguous `&[u32]` slice beside the slots of
//!   the neighbors it names, rows are laid out back-to-back in storage
//!   order (the order the pass visits them), and wholesale invalidation
//!   is a single bulk fill instead of n re-allocations.
//!
//! # Alignment and padding audit
//!
//! The crate forbids `unsafe`, so heap alignment is obtained by
//! construction rather than by custom allocation: a `NodeSet` is a
//! `Vec<BitLine>` with `#[repr(align(64))] BitLine([u64; 8])`, so
//! every line of dirty bits starts on a cache-line boundary and the
//! decode loop streams whole lines, testing each for zero at once. The
//! `u32` epoch columns (`HeardTable::row`, `NodeTable::epoch`) rely
//! on autovectorization with unaligned loads (peeled prologues) —
//! measured on par with aligned access on current x86-64. Cross-thread false sharing: the
//! per-worker visit buffers are `#[repr(align(64))]`-padded
//! (`VisitScratch` in `engine/visit.rs`), so no two workers' counters
//! share a line; the workers' runs of the state column and of the
//! reception arena are contiguous, so two workers can meet only on the
//! one line straddling each cut — at most `workers − 1` lines per
//! column, each written by its two neighbours' edge nodes only.
//!
//! The *scatter* of a visit's reads is the storage order's to fix, not
//! a kernel's: every column is indexed by table slot, and a unit-disk
//! deployment is stored by radio cell, so the neighbours a node hears
//! sit in a few nearby stretches of each column wherever deployment
//! order put their ids (`engine/order.rs`). What is left — a beacon
//! that owns a heap buffer is one dependent load further — the round
//! driver's look-ahead pass overlaps: it reads one word per line of
//! every heard beacon ([`crate::Protocol::peek`]) before the first
//! `receive` of the visit, so the misses are in flight together instead
//! of queueing behind one another.
//!
//! `NodeSet`'s collections are checked against a per-bit reference
//! (`collect_scalar`, test-only), the joins against naive linear scans,
//! in this module's tests.

use mwn_graph::NodeId;

use super::Slot;

/// Beacon-epoch sentinel meaning "never received anything from this
/// neighbor" (mirrored from the engine so the kernels are
/// self-contained).
const NEVER: u32 = u32::MAX;

/// Bits per bitset word.
const WORD_BITS: usize = 64;

/// Words per cache line.
const WORDS_PER_LINE: usize = 8;

/// One cache line of bitset words: the backing unit of [`NodeSet`].
/// The `align(64)` guarantees every line — and therefore the whole
/// heap buffer — starts on a cache-line boundary.
#[derive(Clone, Copy, Default)]
#[repr(align(64))]
struct BitLine([u64; WORDS_PER_LINE]);

/// A set of table slots over `0..n`: one bit per slot in cache-line
/// aligned u64 words, plus the member count. Insert, remove and
/// membership are one bit operation each; collections decode the words
/// in slot order, skipping zero lines, so they come out sorted without
/// a sort; an empty set is collected, drained or cleared without a
/// scan. Allocation-free after construction.
pub(crate) struct NodeSet {
    lines: Vec<BitLine>,
    /// Capacity: the slots are `0..n`.
    n: usize,
    /// Members: the set bits.
    len: usize,
}

impl NodeSet {
    /// An empty set over `n` nodes.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(WORD_BITS);
        NodeSet {
            lines: vec![BitLine::default(); words.div_ceil(WORDS_PER_LINE)],
            n,
            len: 0,
        }
    }

    /// The line, word and bit mask of slot `p`.
    #[inline]
    fn bit(p: Slot) -> (usize, usize, u64) {
        let i = p.index();
        let word = i / WORD_BITS;
        (
            word / WORDS_PER_LINE,
            word % WORDS_PER_LINE,
            1u64 << (i % WORD_BITS),
        )
    }

    /// Inserts `p`; returns `true` when it was not a member yet.
    #[inline]
    pub fn insert(&mut self, p: Slot) -> bool {
        let (l, w, m) = Self::bit(p);
        let word = &mut self.lines[l].0[w];
        let fresh = *word & m == 0;
        *word |= m;
        self.len += usize::from(fresh);
        fresh
    }

    #[inline]
    pub fn remove(&mut self, p: Slot) {
        let (l, w, m) = Self::bit(p);
        let word = &mut self.lines[l].0[w];
        self.len -= usize::from(*word & m != 0);
        *word &= !m;
    }

    #[inline]
    pub fn contains(&self, p: Slot) -> bool {
        let (l, w, m) = Self::bit(p);
        self.lines[l].0[w] & m != 0
    }

    /// Empties the set: one bulk zero, none when it is empty already.
    pub fn clear(&mut self) {
        if self.len != 0 {
            self.lines.fill(BitLine::default());
            self.len = 0;
        }
    }

    /// Every slot becomes a member in one word fill, the tail word
    /// masked so slots past `n` stay clear.
    pub fn insert_all(&mut self) {
        self.lines.fill(BitLine([u64::MAX; WORDS_PER_LINE]));
        let (full, rem) = (self.n / WORD_BITS, self.n % WORD_BITS);
        let mut words = self.lines.iter_mut().flat_map(|line| line.0.iter_mut());
        if let Some(tail) = words.nth(full) {
            *tail = if rem == 0 { 0 } else { (1u64 << rem) - 1 };
        }
        words.for_each(|w| *w = 0);
        self.len = self.n;
    }

    /// Copies the members into `out` (cleared first), in slot order.
    pub fn collect_sorted_into(&self, out: &mut Vec<Slot>) {
        self.decode_into(out);
    }

    /// Copies the members into `out` (cleared first), in slot order,
    /// then empties the set.
    pub fn drain_sorted_into(&mut self, out: &mut Vec<Slot>) {
        let scanned = self.decode_into(out);
        self.lines[..scanned].fill(BitLine::default());
        self.len = 0;
    }

    /// The members, as a test compares them to a model.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// The bitset-scan kernel: clears `out`, then appends every member
    /// in slot order. Zero lines are skipped; each other word decodes
    /// with `trailing_zeros`, and an all-ones word (the converging-phase
    /// common case) takes a straight-line fast path. The scan stops at
    /// the line holding the last member; returns how many lines it read.
    fn decode_into(&self, out: &mut Vec<Slot>) -> usize {
        out.clear();
        if self.len == 0 {
            return 0;
        }
        for (li, line) in self.lines.iter().enumerate() {
            if line.0 == [0u64; WORDS_PER_LINE] {
                continue;
            }
            for (wi, &w) in line.0.iter().enumerate() {
                decode_word(w, ((li * WORDS_PER_LINE + wi) * WORD_BITS) as u32, out);
            }
            if out.len() == self.len {
                return li + 1;
            }
        }
        debug_assert!(false, "the count says {} members, the bits fewer", self.len);
        self.lines.len()
    }

    /// Per-bit reference for the collections.
    #[cfg(test)]
    fn collect_scalar(&self, out: &mut Vec<Slot>) {
        out.clear();
        for p in (0..self.n as u32).map(Slot::new) {
            if self.contains(p) {
                out.push(p);
            }
        }
    }
}

/// Decodes one bitset word into `out` (bit `b` → `base + b`).
#[inline]
fn decode_word(w: u64, base: u32, out: &mut Vec<Slot>) {
    if w == u64::MAX {
        // Dense fast path: the converging storm sets whole words.
        for b in 0..WORD_BITS as u32 {
            out.push(Slot::new(base + b));
        }
    } else {
        let mut m = w;
        while m != 0 {
            out.push(Slot::new(base + m.trailing_zeros()));
            m &= m - 1;
        }
    }
}

/// For every `key` (in order), finds its position in the sorted
/// `haystack` and calls `f(position, key)` — the join of the per-node
/// receive loop, matching the delivered-sender list of a receiver
/// against its sorted adjacency list with one binary search per key.
/// Keys may arrive in any order (contention media own their push
/// order).
///
/// Media may deliver only between 1-neighbors, so an absent key is a
/// broken [`mwn_radio::Medium`]: debug builds panic naming the
/// invariant, release builds drop the frame — out of range, never
/// heard — rather than take the engine down mid-step.
#[inline]
pub fn sorted_positions<F: FnMut(usize, NodeId)>(haystack: &[NodeId], keys: &[NodeId], f: F) {
    sorted_positions_by(haystack, |&q| q, keys, f);
}

/// [`sorted_positions`] over a haystack sorted by `id(entry)` — how the
/// engine joins against a reception row, whose entries name slots in
/// neighbor-id order.
#[inline]
pub(crate) fn sorted_positions_by<T>(
    haystack: &[T],
    id: impl Fn(&T) -> NodeId,
    keys: &[NodeId],
    mut f: impl FnMut(usize, NodeId),
) {
    for &s in keys {
        if let Some(idx) = position(haystack, &id, s) {
            f(idx, s);
        }
    }
}

/// Where sender `s` sits in the `id`-sorted `haystack`, or `None` — and
/// a debug panic — when a medium delivered it from out of range.
#[inline]
fn position<T>(haystack: &[T], id: impl Fn(&T) -> NodeId, s: NodeId) -> Option<usize> {
    let found = haystack.binary_search_by_key(&s, id).ok();
    debug_assert!(
        found.is_some(),
        "media deliver only between 1-neighbors, {s} is none"
    );
    found
}

/// `true` when any delivered sender's current beacon epoch differs
/// from what the receiver last incorporated — the epoch/heard
/// comparison kernel of the wakeup scan (phase 4).
///
/// `heard_row` is the receiver's contiguous reception row
/// (`HeardTable::row`), `epochs` the beacon-epoch column indexed by
/// sender, `neighbors` the receiver's sorted adjacency list and
/// `senders` the delivered-frame senders.
///
/// Early-exits on the first fresh epoch: during converging the very
/// first delivered frame is almost always fresh, so bailing out there
/// beats OR-accumulating the whole row. A sender that is no neighbor
/// is never fresh — [`sorted_positions`] will drop its frame.
#[inline]
pub fn any_fresh(
    heard_row: &[u32],
    epochs: &[u32],
    neighbors: &[NodeId],
    senders: &[NodeId],
) -> bool {
    let epoch = |idx: usize| epochs[neighbors[idx].index()];
    any_fresh_by(heard_row, neighbors, |&q| q, senders, epoch)
}

/// [`any_fresh`] over a row whose entries `haystack` are sorted by
/// `id(entry)`, the epoch of the sender at entry `idx` read by
/// `epoch(idx)` — how the engine asks it, through the slots a reception
/// row names.
#[inline]
pub(crate) fn any_fresh_by<T>(
    heard_row: &[u32],
    haystack: &[T],
    id: impl Fn(&T) -> NodeId,
    senders: &[NodeId],
    epoch: impl Fn(usize) -> u32,
) -> bool {
    senders
        .iter()
        .any(|&s| position(haystack, &id, s).is_some_and(|idx| heard_row[idx] != epoch(idx)))
}

/// Per-row slack kept by [`HeardTable`] so mobility-driven degree
/// growth rarely forces a re-layout.
const ROW_SLACK: u32 = 2;

/// The per-edge reception epochs as one contiguous CSR arena: row `r`
/// holds, for each neighbor in its node's sorted adjacency list, the
/// epoch of that neighbor's beacon the node last incorporated
/// ([`NEVER`] if none), and beside it the neighbor's table slot. Rows
/// are indexed by slot and laid out back-to-back in slot order (the
/// order the pass visits them); the entries of a row stay in
/// neighbor-id order, so a receiver walking its row hears its senders
/// in ascending id. Wholesale invalidation is a single bulk fill.
///
/// The slots are the table's adjacency: a visit reads its neighbors'
/// columns through them and never through the id-keyed topology. They
/// are rewritten wherever a row is — [`HeardTable::reset_row`] and
/// [`HeardTable::reset_all`], on every adjacency change.
///
/// Rows carry [`ROW_SLACK`] spare capacity so a link appearing under
/// mobility updates in place; only growth past the slack re-layouts
/// the arena (amortized, rare).
#[derive(Clone, Debug, Default)]
pub(crate) struct HeardTable {
    /// `off[r]..off[r + 1]` is row `r`'s capacity region in `data`.
    off: Vec<u32>,
    /// Live prefix of each row (the node's current degree).
    len: Vec<u32>,
    /// The epoch entries; [`NEVER`] everywhere outside live prefixes.
    data: Vec<u32>,
    /// The neighbor slot of each entry, laid out like `data`.
    slots: Vec<Slot>,
}

impl HeardTable {
    /// Builds the arena for `rows` rows, row `r` naming the neighbor
    /// slots `row(r)`, every entry [`NEVER`].
    pub fn new<R: ExactSizeIterator<Item = Slot>>(rows: usize, row: impl Fn(usize) -> R) -> Self {
        let mut table = HeardTable::with_degrees((0..rows).map(|r| row(r).len() as u32).collect());
        for r in 0..rows {
            table.write_row(r, row(r));
        }
        table
    }

    /// Lays the arena out for rows of the given degrees, every entry
    /// [`NEVER`]: each row is then named once by
    /// [`HeardTable::write_row`], in whatever order the caller reads
    /// its adjacency fastest.
    pub fn with_degrees(len: Vec<u32>) -> Self {
        let mut off = Vec::with_capacity(len.len() + 1);
        off.push(0u32);
        let mut total = 0u32;
        for &deg in &len {
            total += deg + ROW_SLACK;
            off.push(total);
        }
        HeardTable {
            off,
            len,
            data: vec![NEVER; total as usize],
            slots: vec![Slot::default(); total as usize],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.len.len()
    }

    /// The length of every row (its node's degree), indexed by row.
    #[inline]
    pub fn degrees(&self) -> &[u32] {
        &self.len
    }

    /// Row `r` as a contiguous slice (one entry per adjacency slot).
    #[inline]
    pub fn row(&self, r: usize) -> &[u32] {
        let lo = self.off[r] as usize;
        &self.data[lo..lo + self.len[r] as usize]
    }

    /// The slots of the neighbors row `r` names, in neighbor-id order.
    #[inline]
    pub fn slots(&self, r: usize) -> &[Slot] {
        let lo = self.off[r] as usize;
        &self.slots[lo..lo + self.len[r] as usize]
    }

    /// The entry at adjacency slot `idx` of row `r`.
    #[inline]
    pub fn get(&self, r: usize, idx: usize) -> u32 {
        debug_assert!(idx < self.len[r] as usize);
        self.data[self.off[r] as usize + idx]
    }

    /// The entry at adjacency slot `idx` of row `r`, to write.
    #[inline]
    pub fn get_mut(&mut self, r: usize, idx: usize) -> &mut u32 {
        debug_assert!(idx < self.len[r] as usize);
        &mut self.data[self.off[r] as usize + idx]
    }

    /// Realigns row `r` to the neighbors `row` names, every entry
    /// [`NEVER`] — the conservative forget used when a node's adjacency
    /// list changed.
    pub fn reset_row(&mut self, r: usize, row: impl ExactSizeIterator<Item = Slot>) {
        let deg = row.len();
        if self.off[r + 1] - self.off[r] < deg as u32 {
            self.grow_row(r, deg);
        }
        let (lo, hi) = (self.off[r] as usize, self.off[r + 1] as usize);
        // Fill the whole capacity region so slack never holds stale
        // epochs when a later growth exposes it.
        self.data[lo..hi].fill(NEVER);
        self.write_row(r, row);
    }

    /// Names the neighbors of row `r`, whose capacity holds them.
    pub fn write_row(&mut self, r: usize, row: impl ExactSizeIterator<Item = Slot>) {
        let lo = self.off[r] as usize;
        self.len[r] = row.len() as u32;
        self.slots[lo..]
            .iter_mut()
            .zip(row)
            .for_each(|(to, s)| *to = s);
    }

    /// Realigns all `rows` rows to the neighbors `row(r)` names, every
    /// entry [`NEVER`] — wholesale invalidation as one bulk fill when
    /// the capacities still fit.
    pub fn reset_all<R: ExactSizeIterator<Item = Slot>>(
        &mut self,
        rows: usize,
        row: impl Fn(usize) -> R,
    ) {
        let cap = |r: usize| self.off[r + 1] - self.off[r];
        let fits = rows == self.rows() && (0..rows).all(|r| cap(r) >= row(r).len() as u32);
        if !fits {
            *self = HeardTable::new(rows, row);
            return;
        }
        self.data.fill(NEVER);
        for r in 0..rows {
            self.write_row(r, row(r));
        }
    }

    /// The whole arena as one exclusive run of rows — what a sharded
    /// pass cuts with [`HeardRun::split_at`] so that every worker
    /// writes its own nodes' rows in place.
    pub(crate) fn run_mut(&mut self) -> HeardRun<'_> {
        HeardRun {
            off: &self.off,
            len: &self.len,
            degrees: &self.len,
            slots: &self.slots,
            data: &mut self.data,
        }
    }

    /// Re-layouts the arena so row `r` can hold `deg` entries,
    /// preserving every other row's live prefix. Rare: only mobility
    /// that grows a node's degree past its slack lands here.
    fn grow_row(&mut self, r: usize, deg: usize) {
        let rows = self.rows();
        let (mut off, mut total) = (Vec::with_capacity(rows + 1), 0u32);
        off.push(total);
        for i in 0..rows {
            let keep = (self.off[i + 1] - self.off[i]).max(self.len[i] + ROW_SLACK);
            let cap = if i == r {
                keep.max(deg as u32 + ROW_SLACK)
            } else {
                keep
            };
            total += cap;
            off.push(total);
        }
        let mut data = vec![NEVER; total as usize];
        let mut slots = vec![Slot::default(); total as usize];
        #[allow(clippy::needless_range_loop)] // i indexes four parallel arenas
        for i in 0..rows {
            let (src, dst) = (self.off[i] as usize, off[i] as usize);
            let live = self.len[i] as usize;
            data[dst..dst + live].copy_from_slice(&self.data[src..src + live]);
            slots[dst..dst + live].copy_from_slice(&self.slots[src..src + live]);
        }
        self.off = off;
        self.data = data;
        self.slots = slots;
    }
}

/// Exclusive access to a contiguous run of [`HeardTable`] rows: the
/// offsets and the neighbor slots stay shared, the entries are a
/// `split_at_mut` piece of the arena, so two runs cut at a row boundary
/// can be written by two workers at once.
#[derive(Default)]
pub(crate) struct HeardRun<'a> {
    /// Arena offsets of the run's rows plus the one closing the last;
    /// `off[0]` is where `data` starts.
    off: &'a [u32],
    len: &'a [u32],
    /// The whole arena's row lengths, indexed by row
    /// ([`HeardTable::degrees`]).
    pub degrees: &'a [u32],
    /// The whole arena's neighbor slots, indexed by arena offset.
    slots: &'a [Slot],
    data: &'a mut [u32],
}

impl<'a> HeardRun<'a> {
    /// Cuts the run before its `row`-th row.
    pub fn split_at(self, row: usize) -> (HeardRun<'a>, HeardRun<'a>) {
        let (head, tail) = self
            .data
            .split_at_mut((self.off[row] - self.off[0]) as usize);
        let head = HeardRun {
            off: &self.off[..=row],
            len: &self.len[..row],
            degrees: self.degrees,
            slots: self.slots,
            data: head,
        };
        let tail = HeardRun {
            off: &self.off[row..],
            len: &self.len[row..],
            degrees: self.degrees,
            slots: self.slots,
            data: tail,
        };
        (head, tail)
    }

    /// Where the run sits in the arena: `(first entry, entries)`.
    #[cfg(test)]
    pub fn span(&self) -> (usize, usize) {
        (self.off[0] as usize, self.data.len())
    }

    /// The run's `i`-th row (one entry per adjacency slot) and the
    /// slots of the neighbors it names.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> (&mut [u32], &'a [Slot]) {
        let (at, n) = (self.off[i] as usize, self.len[i] as usize);
        let lo = at - self.off[0] as usize;
        (&mut self.data[lo..lo + n], &self.slots[at..at + n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_set(n: usize, density: f64, seed: u64) -> NodeSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = NodeSet::new(n);
        for i in 0..n as u32 {
            if rng.random_bool(density) {
                s.insert(Slot::new(i));
            }
        }
        s
    }

    #[test]
    fn bitline_is_cache_line_sized_and_aligned() {
        assert_eq!(std::mem::size_of::<BitLine>(), 64);
        assert_eq!(std::mem::align_of::<BitLine>(), 64);
    }

    #[test]
    fn collections_match_the_per_bit_reference_across_densities() {
        for (density, seed) in [(0.0, 1), (0.01, 2), (0.5, 3), (0.97, 4), (1.0, 5)] {
            for n in [0usize, 1, 63, 64, 65, 511, 512, 700] {
                let mut s = random_set(n, density, seed);
                let (mut fast, mut scalar) = (Vec::new(), Vec::new());
                s.collect_scalar(&mut scalar);
                s.collect_sorted_into(&mut fast);
                assert_eq!(fast, scalar, "n = {n}, density = {density}");
                assert_eq!(s.len(), scalar.len(), "n = {n}, density = {density}");
                s.drain_sorted_into(&mut fast);
                assert_eq!(fast, scalar, "n = {n}, density = {density}: drain");
                s.collect_scalar(&mut scalar);
                assert!(scalar.is_empty(), "n = {n}: drain must clear every bit");
                assert_eq!(s.len(), 0);
            }
        }
    }

    #[test]
    fn insert_all_masks_the_tail() {
        for n in [0usize, 1, 63, 64, 65, 127, 128, 129, 512, 513] {
            let mut s = NodeSet::new(n);
            s.insert_all();
            let mut out = Vec::new();
            s.collect_sorted_into(&mut out);
            assert_eq!(out.len(), n, "n = {n}");
            assert_eq!(s.len(), n, "n = {n}");
            assert_eq!(out.last().map(|p| p.index()), n.checked_sub(1));
            // Every bit below n is set, none at or past it.
            for (wi, w) in s.lines.iter().flat_map(|line| line.0).enumerate() {
                let live = n.saturating_sub(wi * WORD_BITS).min(WORD_BITS);
                let want = u64::MAX.checked_shr((WORD_BITS - live) as u32).unwrap_or(0);
                assert_eq!(w, want, "n = {n}, word {wi}");
            }
            s.clear();
            s.collect_scalar(&mut out);
            assert!(out.is_empty());
        }
    }

    #[test]
    fn sorted_join_finds_every_key_in_key_order_on_narrow_and_wide_rows() {
        let mut rng = StdRng::seed_from_u64(17);
        for width in [1usize, 7, 31, 600] {
            // Strictly increasing ids with random gaps.
            let mut next = 0u32;
            let haystack: Vec<NodeId> = (0..width)
                .map(|_| {
                    next += rng.random_range(1..5u32);
                    NodeId::new(next)
                })
                .collect();
            for sorted in [true, false] {
                // Densely hit: about as many keys as the row is wide.
                let mut keys: Vec<NodeId> = (0..width.max(4))
                    .map(|_| haystack[rng.random_range(0..width)])
                    .collect();
                if sorted {
                    keys.sort_unstable();
                }
                let mut seen = Vec::new();
                sorted_positions(&haystack, &keys, |idx, s| {
                    assert_eq!(haystack[idx], s, "width {width}: wrong slot");
                    seen.push(s);
                });
                assert_eq!(seen, keys, "width {width}: one call per key, in key order");
            }
        }
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "1-neighbors"))]
    fn the_joins_name_an_out_of_range_frame_in_debug_and_drop_it_in_release() {
        let haystack = [NodeId::new(1), NodeId::new(4)];
        let keys = [NodeId::new(4), NodeId::new(2), NodeId::new(1)];
        let mut joined = Vec::new();
        sorted_positions(&haystack, &keys, |idx, s| joined.push((idx, s)));
        assert_eq!(joined, [(1, NodeId::new(4)), (0, NodeId::new(1))]);
        // Row and epochs agree on both neighbors: the stranger alone
        // must not read as fresh.
        assert!(!any_fresh(&[7, 7], &[0, 7, 9, 0, 7], &haystack, &keys));
    }

    #[test]
    fn any_fresh_matches_a_naive_scan() {
        let mut rng = StdRng::seed_from_u64(23);
        for deg in [1usize, 7, 31, 600] {
            for _ in 0..15 {
                let neighbors: Vec<NodeId> = (0..deg as u32).map(|i| NodeId::new(i * 3)).collect();
                let epochs: Vec<u32> = (0..deg * 3).map(|_| rng.random_range(0..4)).collect();
                // Neighbor `k` is stored at slot `deg - 1 - k`, where a
                // second copy of the epoch column sits.
                let slots: Vec<Slot> = (0..deg as u32).rev().map(Slot::new).collect();
                let mut by_slot = vec![0; deg];
                for (s, q) in slots.iter().zip(&neighbors) {
                    by_slot[s.index()] = epochs[q.index()];
                }
                // Mostly up to date, so both answers occur.
                let heard_row: Vec<u32> = neighbors
                    .iter()
                    .map(|s| match rng.random_range(0..20u32) {
                        0 => NEVER,
                        1 => rng.random_range(0..4),
                        _ => epochs[s.index()],
                    })
                    .collect();
                let senders: Vec<NodeId> = neighbors
                    .iter()
                    .copied()
                    .filter(|_| rng.random_bool(0.6))
                    .collect();
                let naive = senders.iter().any(|s| {
                    let idx = neighbors.iter().position(|n| n == s).expect("a neighbor");
                    heard_row[idx] != epochs[s.index()]
                });
                assert_eq!(
                    any_fresh(&heard_row, &epochs, &neighbors, &senders),
                    naive,
                    "degree {deg}"
                );
                let through_slots = |idx: usize| by_slot[slots[idx].index()];
                let id = |&s: &Slot| neighbors[deg - 1 - s.index()];
                assert_eq!(
                    any_fresh_by(&heard_row, &slots, id, &senders, through_slots),
                    naive,
                    "degree {deg}, read through the slots"
                );
            }
        }
    }

    /// A table whose row `r` names the slots `0..degrees[r]`.
    fn heard_table(degrees: &[u32]) -> HeardTable {
        HeardTable::new(degrees.len(), |r| (0..degrees[r]).map(Slot::new))
    }

    fn slots(range: std::ops::Range<u32>) -> Vec<Slot> {
        range.map(Slot::new).collect()
    }

    #[test]
    fn heard_table_rows_and_writes() {
        let rows = [vec![Slot::new(4), Slot::new(9)], vec![], slots(0..3)];
        let mut t = HeardTable::new(3, |r| rows[r].iter().copied());
        assert_eq!(t.rows(), 3);
        assert_eq!(t.row(0), &[NEVER, NEVER]);
        assert_eq!(t.slots(0), &[Slot::new(4), Slot::new(9)]);
        assert_eq!(t.row(1), &[] as &[u32]);
        *t.get_mut(2, 1) = 7;
        assert_eq!(t.get(2, 1), 7);
        assert_eq!(t.row(2), &[NEVER, 7, NEVER]);
        assert_eq!(t.slots(2), slots(0..3));
    }

    #[test]
    fn heard_table_reset_row_realigns_and_forgets() {
        let mut t = heard_table(&[2, 2]);
        *t.get_mut(0, 0) = 5;
        *t.get_mut(1, 1) = 6;
        // Shrink, grow within slack, grow past slack: all forget.
        for deg in [1u32, 4, 11] {
            t.reset_row(0, (10..10 + deg).map(Slot::new));
            assert_eq!(t.row(0).len(), deg as usize);
            assert!(t.row(0).iter().all(|&e| e == NEVER));
            assert_eq!(
                t.slots(0),
                slots(10..10 + deg),
                "the row names its neighbors"
            );
            assert_eq!(t.row(1), &[NEVER, 6], "other rows must be preserved");
            assert_eq!(t.slots(1), slots(0..2));
        }
    }

    #[test]
    fn heard_table_reset_all_bulk_fills() {
        let mut t = heard_table(&[3, 1]);
        *t.get_mut(0, 2) = 9;
        let row = |r: usize| (0..[3, 1][r]).rev().map(Slot::new);
        t.reset_all(2, row);
        assert!(t.row(0).iter().all(|&e| e == NEVER));
        assert_eq!(t.slots(0), [Slot::new(2), Slot::new(1), Slot::new(0)]);
        // Degree growth past every slack forces the rebuild path.
        t.reset_all(2, |r| (0..[10, 1][r]).map(Slot::new));
        assert_eq!(t.row(0).len(), 10);
        assert!(t.row(0).iter().all(|&e| e == NEVER));
        assert_eq!(t.slots(0), slots(0..10));
        assert_eq!(t.slots(1), slots(0..1));
    }
}
