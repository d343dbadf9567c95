//! The benchmark's own in-memory span recorder.
//!
//! A traced rep wraps every call into a layer's public functions in a
//! span — name, start, end, parent, counts — kept in memory and written
//! out when the run ends. Nothing inside the program is instrumented:
//! all spans open and close in the benchmark's own files, at the layer
//! boundaries it can see from outside.

use std::time::Instant;

use crate::json::Value;

/// Index of a span in its [`Recorder`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that was open when this one began.
    pub parent: Option<SpanId>,
    /// Work done inside the span, counted where it happened.
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn count(&self, key: &str) -> u64 {
        self.counts
            .iter()
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| v)
            .sum()
    }
}

/// Records spans on one thread; the open spans form a stack, so a
/// span's parent is whatever was open when it began.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let id = SpanId(self.spans.len() as u32);
        let parent = self.open.last().copied();
        self.open.push(id);
        // The clock is read last, so the recorder's own bookkeeping
        // falls outside the span.
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            counts: Vec::new(),
        });
        id
    }

    /// Closes `id`.
    ///
    /// # Panics
    ///
    /// Panics when `id` is not the innermost open span: spans on one
    /// thread nest, and a crossed pair is a bug in the tracing code.
    pub fn exit(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id.0 as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Attaches a count to a span (open or closed).
    pub fn count(&mut self, id: SpanId, key: &'static str, value: u64) {
        self.spans[id.0 as usize].counts.push((key, value));
    }

    /// Records a hand-placed interval as a child of `parent`, so the
    /// self-time arithmetic can be tested without a clock.
    #[cfg(test)]
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
    ) -> SpanId {
        let id = SpanId(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            counts: Vec::new(),
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Every closed span called `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// The first span called `name`.
    pub fn find(&self, name: &str) -> Option<SpanId> {
        self.spans
            .iter()
            .position(|s| s.name == name)
            .map(|i| SpanId(i as u32))
    }

    pub fn get(&self, id: SpanId) -> &Span {
        &self.spans[id.0 as usize]
    }

    /// Every span called `name` that lies inside `outer`'s interval, in
    /// recording order.
    pub fn inside<'a>(
        &'a self,
        outer: SpanId,
        name: &'a str,
    ) -> impl Iterator<Item = &'a Span> + 'a {
        let (lo, hi) = {
            let outer = self.get(outer);
            (outer.start_ns, outer.end_ns)
        };
        self.named(name)
            .filter(move |s| s.start_ns >= lo && s.end_ns <= hi)
    }

    /// Total duration of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.named(name).map(Span::duration_ns).sum()
    }

    /// Sum of a count over every span called `name`.
    pub fn total_count(&self, name: &str, key: &str) -> u64 {
        self.named(name).map(|s| s.count(key)).sum()
    }

    /// Every span's self time, indexed like [`Recorder::spans`]: its
    /// duration minus the part of that interval its direct children
    /// cover. Children are clipped to the parent and their union is
    /// taken, so overlapping children (possible once spans are merged
    /// in from parallel work) are not subtracted twice.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(SpanId(p)) = span.parent {
                let parent = &self.spans[p as usize];
                let lo = span.start_ns.clamp(parent.start_ns, parent.end_ns);
                let hi = span.end_ns.clamp(parent.start_ns, parent.end_ns);
                if hi > lo {
                    children[p as usize].push((lo, hi));
                }
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(parent, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = parent.start_ns;
                for &(lo, hi) in kids.iter() {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                parent.duration_ns() - covered
            })
            .collect()
    }

    /// One span's self time; see [`Recorder::self_times`].
    pub fn self_ns(&self, id: SpanId) -> u64 {
        self.self_times()[id.0 as usize]
    }

    /// Per-name totals — calls, total and self nanoseconds — in order
    /// of first appearance: the layer table of a traced rep.
    pub fn summary(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times()) {
            match rows.iter_mut().find(|r| r.0 == span.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += span.duration_ns();
                    row.3 += self_ns;
                }
                None => rows.push((span.name, 1, span.duration_ns(), self_ns)),
            }
        }
        rows
    }

    /// The whole recording as JSON: the per-name summary, then every
    /// span as `[name index, start, end, parent, counts]` rows against
    /// a name table (a traced rep records tens of thousands of spans).
    pub fn to_json(&self) -> Value {
        let summary = self.summary();
        let names: Vec<&'static str> = summary.iter().map(|r| r.0).collect();
        let rows = self
            .spans
            .iter()
            .map(|s| {
                let name = names.iter().position(|n| *n == s.name).unwrap_or(0);
                let counts = Value::Obj(
                    s.counts
                        .iter()
                        .map(|(k, v)| (k.to_string(), Value::from(*v)))
                        .collect(),
                );
                Value::Arr(vec![
                    Value::from(name),
                    Value::from(s.start_ns),
                    Value::from(s.end_ns),
                    s.parent.map_or(Value::Null, |p| Value::from(p.0 as u64)),
                    counts,
                ])
            })
            .collect::<Vec<_>>();
        Value::obj()
            .with(
                "summary",
                Value::Arr(
                    summary
                        .iter()
                        .map(|&(name, calls, total_ns, self_ns)| {
                            Value::obj()
                                .with("name", name)
                                .with("calls", calls)
                                .with("total_ns", total_ns)
                                .with("self_ns", self_ns)
                        })
                        .collect(),
                ),
            )
            .with(
                "names",
                Value::Arr(names.iter().map(|n| Value::from(*n)).collect()),
            )
            .with(
                "columns",
                Value::Arr(
                    ["name", "start_ns", "end_ns", "parent", "counts"]
                        .iter()
                        .map(|c| Value::from(*c))
                        .collect(),
                ),
            )
            .with("spans", Value::Arr(rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder with hand-placed intervals, so the arithmetic is
    /// checked without a clock.
    fn manual(parent: (u64, u64), children: &[(u64, u64)]) -> (Recorder, SpanId) {
        let mut rec = Recorder::new();
        let root = rec.record("root", parent.0, parent.1, None);
        for &(lo, hi) in children {
            rec.record("child", lo, hi, Some(root));
        }
        (rec, root)
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let (rec, root) = manual((100, 200), &[(110, 130), (150, 160)]);
        assert_eq!(rec.self_ns(root), 100 - 20 - 10);
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        // [110,150] ∪ [130,170] ∪ [140,145] covers 60, not 85.
        let (rec, root) = manual((100, 200), &[(130, 170), (110, 150), (140, 145)]);
        assert_eq!(rec.self_ns(root), 100 - 60);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let (rec, root) = manual((100, 200), &[(50, 120), (190, 400), (300, 310)]);
        assert_eq!(rec.self_ns(root), 100 - 20 - 10);
        let (rec, root) = manual((100, 200), &[(0, 1000)]);
        assert_eq!(rec.self_ns(root), 0);
    }

    #[test]
    fn grandchildren_do_not_count_against_the_grandparent() {
        let mut rec = Recorder::new();
        let root = rec.record("root", 0, 100, None);
        let child = rec.record("child", 10, 60, Some(root));
        rec.record("grandchild", 20, 30, Some(child));
        assert_eq!(rec.self_ns(root), 50);
        assert_eq!(rec.self_ns(child), 40);
    }

    #[test]
    fn enter_exit_nest_and_carry_counts() {
        let mut rec = Recorder::new();
        let outer = rec.enter("outer");
        let inner = rec.scope("inner", |rec| {
            let id = rec.enter("leaf");
            rec.count(id, "receives", 7);
            rec.count(id, "receives", 3);
            rec.exit(id);
            id
        });
        rec.exit(outer);
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.spans()[0].parent, None);
        assert_eq!(rec.spans()[1].parent, Some(outer));
        assert_eq!(rec.spans()[inner.0 as usize].parent, Some(SpanId(1)));
        assert_eq!(rec.total_count("leaf", "receives"), 10);
        let s = &rec.spans()[0];
        assert!(s.end_ns >= s.start_ns);
        assert!(rec.self_ns(outer) <= s.duration_ns());
        let summary = rec.summary();
        assert_eq!(
            summary.iter().map(|r| (r.0, r.1)).collect::<Vec<_>>(),
            vec![("outer", 1), ("inner", 1), ("leaf", 1)]
        );
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn crossed_spans_are_a_bug() {
        let mut rec = Recorder::new();
        let a = rec.enter("a");
        let _b = rec.enter("b");
        rec.exit(a);
    }

    #[test]
    fn json_lists_every_span_against_the_name_table() {
        let (rec, _) = manual((0, 10), &[(1, 2), (3, 4)]);
        let json = rec.to_json();
        let text = json.to_line();
        let back = crate::json::parse(&text).expect("span file parses");
        assert_eq!(back, json);
        assert_eq!(
            json.get("names").map(|n| n.to_line()).unwrap(),
            "[\"root\",\"child\"]"
        );
        match json.get("spans") {
            Some(Value::Arr(rows)) => assert_eq!(rows.len(), 3),
            other => panic!("spans missing: {other:?}"),
        }
    }
}
