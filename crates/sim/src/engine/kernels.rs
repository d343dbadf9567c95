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
//! * **word-at-a-time** — dirty sets live in u64 words ([`BitWords`],
//!   backed by cache-line-aligned [`BitLine`]s); membership is a bit
//!   test, dense iteration decodes set bits with `trailing_zeros` (with
//!   an all-ones fast path that turns the cold-start storm into a
//!   near-memcpy), and draining never sorts — bit order *is* node
//!   order, so the sort the list-backed set needed disappears;
//! * **contiguous rows** — the per-frame joins ([`sorted_positions`],
//!   [`any_fresh`]) probe a receiver's sorted adjacency slice with one
//!   binary search per delivered sender: at radio degrees (tens of
//!   neighbors) a handful of well-predicted probes over one or two
//!   cache lines (a step over a lossless medium needs neither — it
//!   reads the row and the adjacency list side by side, the slot being
//!   the loop index);
//! * **one arena** — [`HeardTable`] flattens the per-node reception
//!   rows (`Vec<Vec<u32>>`, one heap allocation per node) into one CSR
//!   arena: each row is a contiguous `&[u32]` slice, rows are laid out
//!   back-to-back in node order (the order the pass visits them), and
//!   wholesale invalidation is a single bulk fill instead of n
//!   re-allocations.
//!
//! # Alignment and padding audit
//!
//! The crate forbids `unsafe`, so heap alignment is obtained by
//! construction rather than by custom allocation: the bitset columns
//! are `Vec<BitLine>` with `#[repr(align(64))] BitLine([u64; 8])`, so
//! every line of dirty bits starts on a cache-line boundary and the
//! decode loop streams whole lines. The `u32` epoch columns
//! ([`HeardTable::row`], `NodeTable::epoch`) rely on autovectorization
//! with unaligned loads (peeled prologues) — measured on par with
//! aligned access on current x86-64. Cross-thread false sharing: the
//! per-worker visit buffers are `#[repr(align(64))]`-padded
//! (`VisitScratch` in `engine/visit.rs`), so no two workers' counters
//! share a line; the workers' runs of the state column and of the
//! reception arena are contiguous, so two workers can meet only on the
//! one line straddling each cut — at most `workers − 1` lines per
//! column, each written by its two neighbours' edge nodes only.
//!
//! What no layout here fixes is the *scatter* of a visit's reads: a
//! node's neighbours are wherever deployment order put them, so the
//! beacons it hears sit on unrelated lines (and, for a beacon that owns
//! a heap buffer, one dependent load further). The crate has no
//! prefetch intrinsic to reach for; the sanctioned form is batched safe
//! loads — the round driver's look-ahead pass reads one word per line
//! of every heard beacon ([`crate::Protocol::peek`]) before the first
//! `receive` of the visit, so the misses overlap instead of queueing
//! behind one another.
//!
//! [`BitWords::decode_into`] keeps its per-bit reference
//! (`decode_into_scalar`, test-only); the joins are checked against
//! naive linear scans in this module's tests.

use mwn_graph::NodeId;

/// Beacon-epoch sentinel meaning "never received anything from this
/// neighbor" (mirrored from the engine so the kernels are
/// self-contained).
const NEVER: u32 = u32::MAX;

/// Bits per bitset word.
const WORD_BITS: usize = 64;

/// Words per cache line.
const WORDS_PER_LINE: usize = 8;

/// One cache line of bitset words: the backing unit of [`BitWords`].
/// The `align(64)` guarantees every line — and therefore the whole
/// heap buffer — starts on a cache-line boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[repr(align(64))]
pub struct BitLine([u64; WORDS_PER_LINE]);

/// A fixed-capacity bitset over node indices, stored in cache-line
/// aligned u64 words. All hot operations are O(1) bit ops; dense
/// iteration is a word scan with `trailing_zeros` decode.
#[derive(Clone, Debug, Default)]
pub struct BitWords {
    lines: Vec<BitLine>,
    nbits: usize,
}

impl BitWords {
    /// An empty set over `n` indices.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(WORD_BITS);
        BitWords {
            lines: vec![BitLine::default(); words.div_ceil(WORDS_PER_LINE)],
            nbits: n,
        }
    }

    /// Capacity in bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.nbits
    }

    /// `true` when the set holds no indices at all capacity 0.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nbits == 0
    }

    #[inline]
    fn slot(i: usize) -> (usize, usize, u64) {
        let word = i / WORD_BITS;
        (
            word / WORDS_PER_LINE,
            word % WORDS_PER_LINE,
            1u64 << (i % WORD_BITS),
        )
    }

    /// Tests bit `i`.
    #[inline]
    pub fn test(&self, i: usize) -> bool {
        let (l, w, m) = Self::slot(i);
        self.lines[l].0[w] & m != 0
    }

    /// Sets bit `i`; returns `true` when it was previously clear.
    #[inline]
    pub fn set(&mut self, i: usize) -> bool {
        let (l, w, m) = Self::slot(i);
        let word = &mut self.lines[l].0[w];
        let fresh = *word & m == 0;
        *word |= m;
        fresh
    }

    /// Clears bit `i`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        let (l, w, m) = Self::slot(i);
        self.lines[l].0[w] &= !m;
    }

    /// Sets every bit in `0..len()` (bulk fill, tail word masked so
    /// out-of-range bits stay clear).
    pub fn fill_all(&mut self) {
        self.lines.fill(BitLine([u64::MAX; WORDS_PER_LINE]));
        self.mask_tail();
    }

    /// Clears every bit.
    pub fn zero_all(&mut self) {
        self.lines.fill(BitLine::default());
    }

    /// Zeroes the bits past `nbits` that the bulk fill set.
    fn mask_tail(&mut self) {
        let full_words = self.nbits / WORD_BITS;
        let rem = self.nbits % WORD_BITS;
        let total_words = self.lines.len() * WORDS_PER_LINE;
        if rem != 0 {
            let (l, w, _) = Self::slot(self.nbits);
            self.lines[l].0[w] &= (1u64 << rem) - 1;
        }
        let first_dead = full_words + usize::from(rem != 0);
        for word in first_dead..total_words {
            self.lines[word / WORDS_PER_LINE].0[word % WORDS_PER_LINE] = 0;
        }
    }

    /// Appends every set bit to `out` in ascending index order — the
    /// bitset-scan kernel. Each word decodes with `trailing_zeros`;
    /// an all-ones word (the converging-phase common case) takes a
    /// straight-line fast path.
    pub fn decode_into(&self, out: &mut Vec<NodeId>) {
        for (li, line) in self.lines.iter().enumerate() {
            if line.0 == [0u64; WORDS_PER_LINE] {
                continue;
            }
            for (wi, &w) in line.0.iter().enumerate() {
                decode_word(w, ((li * WORDS_PER_LINE + wi) * WORD_BITS) as u32, out);
            }
        }
    }

    /// [`BitWords::decode_into`] that also clears the set: the drain
    /// used by the per-step dirty-set collection.
    pub fn decode_and_zero_into(&mut self, out: &mut Vec<NodeId>) {
        for (li, line) in self.lines.iter_mut().enumerate() {
            if line.0 == [0u64; WORDS_PER_LINE] {
                continue;
            }
            for (wi, w) in line.0.iter_mut().enumerate() {
                decode_word(*w, ((li * WORDS_PER_LINE + wi) * WORD_BITS) as u32, out);
                *w = 0;
            }
        }
    }

    /// Scalar reference for [`BitWords::decode_into`]: per-bit test
    /// loop.
    #[cfg(test)]
    fn decode_into_scalar(&self, out: &mut Vec<NodeId>) {
        for i in 0..self.nbits {
            if self.test(i) {
                out.push(NodeId::new(i as u32));
            }
        }
    }
}

/// Decodes one bitset word into `out` (bit `b` → `base + b`).
#[inline]
fn decode_word(w: u64, base: u32, out: &mut Vec<NodeId>) {
    if w == u64::MAX {
        // Dense fast path: the converging storm sets whole words.
        for b in 0..WORD_BITS as u32 {
            out.push(NodeId::new(base + b));
        }
    } else {
        let mut m = w;
        while m != 0 {
            out.push(NodeId::new(base + m.trailing_zeros()));
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
pub fn sorted_positions<F: FnMut(usize, NodeId)>(haystack: &[NodeId], keys: &[NodeId], mut f: F) {
    for &s in keys {
        let Ok(idx) = haystack.binary_search(&s) else {
            debug_assert!(false, "media deliver only between 1-neighbors, {s} is none");
            continue;
        };
        f(idx, s);
    }
}

/// `true` when any delivered sender's current beacon epoch differs
/// from what the receiver last incorporated — the epoch/heard
/// comparison kernel of the wakeup scan (phase 4).
///
/// `heard_row` is the receiver's contiguous reception row
/// ([`HeardTable::row`]), `epochs` the global beacon-epoch column,
/// `neighbors` the receiver's sorted adjacency list and `senders` the
/// delivered-frame senders.
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
    senders.iter().any(|&s| {
        let Ok(idx) = neighbors.binary_search(&s) else {
            debug_assert!(false, "media deliver only between 1-neighbors, {s} is none");
            return false;
        };
        heard_row[idx] != epochs[s.index()]
    })
}

/// Per-row slack kept by [`HeardTable`] so mobility-driven degree
/// growth rarely forces a re-layout.
const ROW_SLACK: u32 = 2;

/// The per-edge reception epochs as one contiguous CSR arena: row `r`
/// holds, for each neighbor in `r`'s sorted adjacency list, the epoch
/// of that neighbor's beacon `r` last incorporated ([`NEVER`] if
/// none). Replaces the `Vec<Vec<u32>>`-of-rows layout (one heap
/// allocation and one pointer chase per node) with offset-indexed
/// slices: rows are contiguous, laid out in node order, and wholesale
/// invalidation is a single bulk fill.
///
/// Rows carry [`ROW_SLACK`] spare capacity so a link appearing under
/// mobility updates in place; only growth past the slack re-layouts
/// the arena (amortized, rare).
#[derive(Clone, Debug, Default)]
pub struct HeardTable {
    /// `off[r]..off[r + 1]` is row `r`'s capacity region in `data`.
    off: Vec<u32>,
    /// Live prefix of each row (the node's current degree).
    len: Vec<u32>,
    /// The epoch entries; [`NEVER`] everywhere outside live prefixes.
    data: Vec<u32>,
}

impl HeardTable {
    /// Builds the arena for the given per-node degrees, every entry
    /// [`NEVER`].
    pub fn new<I: IntoIterator<Item = usize>>(degrees: I) -> Self {
        let mut off = vec![0u32];
        let mut len = Vec::new();
        for deg in degrees {
            let last = *off.last().expect("off starts non-empty");
            off.push(last + deg as u32 + ROW_SLACK);
            len.push(deg as u32);
        }
        let total = *off.last().expect("off starts non-empty") as usize;
        HeardTable {
            off,
            len,
            data: vec![NEVER; total],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.len.len()
    }

    /// Row `r` as a contiguous slice (one entry per adjacency slot).
    #[inline]
    pub fn row(&self, r: usize) -> &[u32] {
        let lo = self.off[r] as usize;
        &self.data[lo..lo + self.len[r] as usize]
    }

    /// The entry at adjacency slot `idx` of row `r`.
    #[inline]
    pub fn get(&self, r: usize, idx: usize) -> u32 {
        debug_assert!(idx < self.len[r] as usize);
        self.data[self.off[r] as usize + idx]
    }

    /// The entry at adjacency slot `idx` of row `r`, to write.
    #[inline]
    pub(crate) fn get_mut(&mut self, r: usize, idx: usize) -> &mut u32 {
        debug_assert!(idx < self.len[r] as usize);
        &mut self.data[self.off[r] as usize + idx]
    }

    /// Realigns row `r` to `deg` entries, all [`NEVER`] — the
    /// conservative forget used when a node's adjacency list changed.
    pub fn reset_row(&mut self, r: usize, deg: usize) {
        if self.off[r + 1] - self.off[r] < deg as u32 {
            self.grow_row(r, deg);
        }
        let (lo, hi) = (self.off[r] as usize, self.off[r + 1] as usize);
        // Fill the whole capacity region so slack never holds stale
        // epochs when a later growth exposes it.
        self.data[lo..hi].fill(NEVER);
        self.len[r] = deg as u32;
        debug_assert!(self.data[lo..hi].iter().all(|&e| e == NEVER));
    }

    /// Realigns every row to the given degrees, all entries [`NEVER`]
    /// — wholesale invalidation as one bulk fill when the capacities
    /// still fit.
    pub fn reset_all<I: IntoIterator<Item = usize>>(&mut self, degrees: I) {
        let mut lens = std::mem::take(&mut self.len);
        lens.clear();
        lens.extend(degrees.into_iter().map(|d| d as u32));
        let fits = lens.len() == self.off.len() - 1
            && lens
                .iter()
                .enumerate()
                .all(|(r, &d)| self.off[r + 1] - self.off[r] >= d);
        if fits {
            self.data.fill(NEVER);
            self.len = lens;
        } else {
            *self = HeardTable::new(lens.iter().map(|&d| d as usize));
        }
    }

    /// The whole arena as one exclusive run of rows — what a sharded
    /// pass cuts with [`HeardRun::split_at`] so that every worker
    /// writes its own nodes' rows in place.
    pub(crate) fn run_mut(&mut self) -> HeardRun<'_> {
        HeardRun {
            off: &self.off,
            len: &self.len,
            data: &mut self.data,
        }
    }

    /// Re-layouts the arena so row `r` can hold `deg` entries,
    /// preserving every other row's live prefix. Rare: only mobility
    /// that grows a node's degree past its slack lands here.
    fn grow_row(&mut self, r: usize, deg: usize) {
        let rows = self.rows();
        let mut off = Vec::with_capacity(rows + 1);
        off.push(0u32);
        for i in 0..rows {
            let keep = (self.off[i + 1] - self.off[i]).max(self.len[i] + ROW_SLACK);
            let cap = if i == r {
                keep.max(deg as u32 + ROW_SLACK)
            } else {
                keep
            };
            off.push(off[i] + cap);
        }
        let mut data = vec![NEVER; *off.last().expect("off non-empty") as usize];
        #[allow(clippy::needless_range_loop)] // i indexes four parallel arenas
        for i in 0..rows {
            let (src, dst) = (self.off[i] as usize, off[i] as usize);
            let live = self.len[i] as usize;
            data[dst..dst + live].copy_from_slice(&self.data[src..src + live]);
        }
        self.off = off;
        self.data = data;
    }
}

/// Exclusive access to a contiguous run of [`HeardTable`] rows: the
/// offsets stay shared, the entries are a `split_at_mut` piece of the
/// arena, so two runs cut at a row boundary can be written by two
/// workers at once.
pub(crate) struct HeardRun<'a> {
    /// Arena offsets of the run's rows plus the one closing the last;
    /// `off[0]` is where `data` starts.
    off: &'a [u32],
    len: &'a [u32],
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
            data: head,
        };
        let tail = HeardRun {
            off: &self.off[row..],
            len: &self.len[row..],
            data: tail,
        };
        (head, tail)
    }

    /// Where the run sits in the arena: `(first entry, entries)`.
    #[cfg(test)]
    pub fn span(&self) -> (usize, usize) {
        (self.off[0] as usize, self.data.len())
    }

    /// The run's `i`-th row (one entry per adjacency slot).
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [u32] {
        let lo = (self.off[i] - self.off[0]) as usize;
        &mut self.data[lo..lo + self.len[i] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_bits(n: usize, density: f64, seed: u64) -> BitWords {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut w = BitWords::new(n);
        for i in 0..n {
            if rng.random_bool(density) {
                w.set(i);
            }
        }
        w
    }

    #[test]
    fn bitline_is_cache_line_sized_and_aligned() {
        assert_eq!(std::mem::size_of::<BitLine>(), 64);
        assert_eq!(std::mem::align_of::<BitLine>(), 64);
    }

    #[test]
    fn bit_ops_roundtrip() {
        let mut w = BitWords::new(200);
        assert!(w.set(3));
        assert!(!w.set(3), "second set reports already-present");
        assert!(w.test(3));
        w.clear(3);
        assert!(!w.test(3));
        assert_eq!(w.len(), 200);
    }

    #[test]
    fn decode_matches_scalar_across_densities() {
        for (density, seed) in [(0.0, 1), (0.01, 2), (0.5, 3), (0.97, 4), (1.0, 5)] {
            for n in [0usize, 1, 63, 64, 65, 511, 512, 700] {
                let w = random_bits(n, density, seed);
                let (mut fast, mut scalar) = (Vec::new(), Vec::new());
                w.decode_into(&mut fast);
                w.decode_into_scalar(&mut scalar);
                assert_eq!(fast, scalar, "n = {n}, density = {density}");
            }
        }
    }

    #[test]
    fn decode_and_zero_drains() {
        let mut w = random_bits(300, 0.4, 9);
        let mut expect = Vec::new();
        w.decode_into(&mut expect);
        let mut got = Vec::new();
        w.decode_and_zero_into(&mut got);
        assert_eq!(got, expect);
        let mut empty = Vec::new();
        w.decode_into(&mut empty);
        assert!(empty.is_empty(), "drain must clear every bit");
    }

    #[test]
    fn fill_all_masks_the_tail() {
        for n in [1usize, 63, 64, 65, 127, 128, 129, 513] {
            let mut w = BitWords::new(n);
            w.fill_all();
            let mut out = Vec::new();
            w.decode_into(&mut out);
            assert_eq!(out.len(), n, "n = {n}");
            assert_eq!(out.last().map(|p| p.index()), Some(n - 1));
            w.zero_all();
            out.clear();
            w.decode_into(&mut out);
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
            }
        }
    }

    #[test]
    fn heard_table_rows_and_writes() {
        let mut t = HeardTable::new([2usize, 0, 3]);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.row(0), &[NEVER, NEVER]);
        assert_eq!(t.row(1), &[] as &[u32]);
        *t.get_mut(2, 1) = 7;
        assert_eq!(t.get(2, 1), 7);
        assert_eq!(t.row(2), &[NEVER, 7, NEVER]);
    }

    #[test]
    fn heard_table_reset_row_realigns_and_forgets() {
        let mut t = HeardTable::new([2usize, 2]);
        *t.get_mut(0, 0) = 5;
        *t.get_mut(1, 1) = 6;
        // Shrink, grow within slack, grow past slack: all forget.
        for deg in [1usize, 4, 11] {
            t.reset_row(0, deg);
            assert_eq!(t.row(0).len(), deg);
            assert!(t.row(0).iter().all(|&e| e == NEVER));
            assert_eq!(t.row(1), &[NEVER, 6], "other rows must be preserved");
        }
    }

    #[test]
    fn heard_table_reset_all_bulk_fills() {
        let mut t = HeardTable::new([3usize, 1]);
        *t.get_mut(0, 2) = 9;
        t.reset_all([3usize, 1]);
        assert!(t.row(0).iter().all(|&e| e == NEVER));
        // Degree growth past every slack forces the rebuild path.
        t.reset_all([10usize, 1]);
        assert_eq!(t.row(0).len(), 10);
        assert!(t.row(0).iter().all(|&e| e == NEVER));
    }
}
