use mwn_graph::NodeId;

/// Per-node slot claims of one delivery call, forgotten in O(1).
///
/// A slotted medium needs "which slot, if any, does `p` transmit in"
/// for every node its active frames can reach — a length-n table of
/// which a sparse round reads a handful of entries. Clearing (or
/// allocating) it per call makes every call cost n; instead each entry
/// carries the generation of the call that wrote it, and an entry is
/// live iff that stamp equals the current generation (the
/// `SearchScratch` idiom of `mwn-graph`). Stamp and slot share one
/// word, so "does `q` hold slot `t`" is a single load and compare.
#[derive(Clone, Debug, Default)]
pub(crate) struct SlotMarks {
    generation: u32,
    /// `stamp << 32 | slot`; [`NO_SLOT`] marks a node without a claim.
    marks: Vec<u64>,
}

const NO_SLOT: u64 = u32::MAX as u64;

impl SlotMarks {
    /// Starts a call over `n` nodes: every earlier mark is dead.
    /// Returns the call's generation (never 0); `1` says the table was
    /// re-zeroed — first call, a different `n`, or the counter wrapped
    /// — so stamp vectors keyed by the same generation must be too.
    pub(crate) fn begin(&mut self, n: usize) -> u32 {
        if self.marks.len() != n || self.generation == u32::MAX {
            self.marks.clear();
            self.marks.resize(n, 0);
            self.generation = 0;
        }
        self.generation += 1;
        self.generation
    }

    #[inline]
    fn live(&self) -> u64 {
        u64::from(self.generation) << 32
    }

    /// Marks `p` as seen by this call without a slot claim.
    #[inline]
    pub(crate) fn mark(&mut self, p: NodeId) {
        self.marks[p.index()] = self.live() | NO_SLOT;
    }

    /// Whether this call marked `p` (with or without a claim).
    #[inline]
    pub(crate) fn is_marked(&self, p: NodeId) -> bool {
        self.marks[p.index()] >> 32 == u64::from(self.generation)
    }

    /// Records that `p` transmits in `slot` (below `u32::MAX`, which
    /// the media's constructors guarantee).
    #[inline]
    pub(crate) fn claim(&mut self, p: NodeId, slot: usize) {
        debug_assert!((slot as u64) < NO_SLOT);
        self.marks[p.index()] = self.live() | slot as u64;
    }

    /// Whether `p` transmits in `slot` in this call.
    #[inline]
    pub(crate) fn holds(&self, p: NodeId, slot: usize) -> bool {
        self.marks[p.index()] == self.live() | slot as u64
    }

    /// The slot `p` transmits in, if it does in this call.
    #[inline]
    pub(crate) fn slot(&self, p: NodeId) -> Option<usize> {
        let mark = self.marks[p.index()];
        (mark >> 32 == u64::from(self.generation) && mark & NO_SLOT != NO_SLOT)
            .then_some((mark & NO_SLOT) as usize)
    }

    /// Moves the generation counter, so a test can reach its wrap.
    #[cfg(test)]
    pub(crate) fn set_generation(&mut self, generation: u32) {
        self.generation = generation;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_die_with_their_call() {
        let (p, q) = (NodeId::new(1), NodeId::new(2));
        let mut marks = SlotMarks::default();
        assert_eq!(marks.begin(4), 1);
        marks.claim(p, 3);
        marks.mark(q);
        assert!(marks.holds(p, 3) && !marks.holds(p, 0) && !marks.holds(q, 3));
        assert_eq!((marks.slot(p), marks.slot(q)), (Some(3), None));
        assert!(marks.is_marked(p) && marks.is_marked(q));
        assert!(!marks.is_marked(NodeId::new(0)));
        assert_eq!(marks.begin(4), 2);
        assert!(!marks.is_marked(p) && !marks.is_marked(q));
        assert_eq!(marks.slot(p), None);
    }

    #[test]
    fn wrap_and_resize_restart_at_generation_one() {
        let p = NodeId::new(0);
        let mut marks = SlotMarks::default();
        marks.begin(2);
        marks.set_generation(u32::MAX - 1);
        assert_eq!(marks.begin(2), u32::MAX);
        marks.claim(p, 0);
        assert_eq!(marks.begin(2), 1, "the counter wrapped: table re-zeroed");
        assert_eq!(marks.slot(p), None);
        marks.claim(p, 1);
        assert_eq!(marks.begin(3), 1, "a different n re-zeroes too");
        assert_eq!(marks.slot(p), None);
    }
}
