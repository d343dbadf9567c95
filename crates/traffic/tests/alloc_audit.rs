//! Allocation audit for the data plane (the counting allocator of the
//! workspace's `tests/alloc_audit.rs`, in a test binary of its own).
//!
//! The plane's cost claim, in numbers: once every reusable buffer has
//! reached its high-water mark, a step that only forwards performs
//! **zero heap allocations** at one shard — verdicts go to the reused
//! per-shard arena, packets move by value between queues that have
//! already grown — and a resolve pass allocates only where a
//! forwarding table grows (and, the first time, where the segment memo
//! of a hierarchical view does), because every route search runs on
//! the plane's own scratch instead of allocating per-search `O(n)`
//! arrays: the same keys resolved again allocate nothing.
//!
//! Both phases run inside a single `#[test]` so no concurrent test
//! pollutes the process-wide counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mwn_cluster::{oracle, FlatRoutes, HierarchicalRoutes, OracleConfig, RoutingView};
use mwn_graph::{builders, NodeId, Topology};
use mwn_traffic::{FlowSpec, TrafficConfig, TrafficPlane};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// `(allocations, bytes requested)` while `work` runs.
fn allocated_during(work: impl FnOnce()) -> (usize, usize) {
    let before = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    work();
    (
        ALLOCS.load(Ordering::Relaxed) - before.0,
        BYTES.load(Ordering::Relaxed) - before.1,
    )
}

/// `count` long-lived flows criss-crossing a `side × side` grid.
fn crossing_flows(side: usize, count: usize, packets: u64) -> Vec<FlowSpec> {
    let n = (side * side) as u32;
    (0..count as u32)
        .map(|i| FlowSpec {
            src: NodeId::new((i * 37) % n),
            dst: NodeId::new((i * 101 + n / 2 + 1) % n),
            packets,
            start: 0,
        })
        .filter(|f| f.src != f.dst)
        .collect()
}

#[test]
fn steady_state_forwarding_does_not_allocate() {
    // --- Forward-only steps -----------------------------------------
    // Forty flows that outlast the audit, on fixed routes: after the
    // warm-up every route is installed and every queue and arena has
    // seen its deepest backlog.
    let side = 12;
    let topo = builders::grid(side, side, 1.45 / (side - 1) as f64);
    let mut plane = TrafficPlane::new(topo.len(), TrafficConfig::default());
    plane.set_shards(Some(1));
    plane.add_flows(&crossing_flows(side, 40, 5_000));
    for _ in 0..400 {
        plane.on_step(&topo, Some(&FlatRoutes));
    }
    assert!(!plane.needs_routes(), "warm-up resolves every route");
    let before = plane.report();
    let (allocs, _) = allocated_during(|| {
        for _ in 0..200 {
            plane.on_step::<FlatRoutes>(&topo, None);
        }
    });
    let after = plane.report();
    assert!(
        plane.in_flight() > 100 && after.delivered > before.delivered + 1_000,
        "the audit window must cover real forwarding \
         ({} in flight, {} delivered in the window)",
        plane.in_flight(),
        after.delivered - before.delivered
    );
    assert_eq!(
        allocs, 0,
        "steady-state forward-only steps must not allocate ({allocs} allocations in 200 steps)"
    );

    // --- Resolve passes over k pending keys --------------------------
    let side = 60;
    let topo = builders::grid(side, side, 1.45 / (side - 1) as f64);
    audit_resolve_passes(&topo, &FlatRoutes);
    // The regular grid elects one head; a random field of the same size
    // has well over a hundred, so its routes cross overlay hops.
    let field = builders::uniform(topo.len(), 0.03, &mut StdRng::seed_from_u64(3));
    let view = HierarchicalRoutes::new(&field, oracle(&field, &OracleConfig::default()));
    assert!(view.clustering().head_count() > 100);
    audit_resolve_passes(&field, &view);
}

/// On a network large enough that per-search O(n) arrays would show:
/// one flow first, so the plane's search scratch is sized; then k more,
/// all resolved by the next step. What that step allocates is
/// forwarding-table growth along k routes plus, under a hierarchical
/// view, the segment memo of the pass — below one byte per key per
/// node, where the two O(n) arrays per search of an allocating BFS come
/// to nine.
///
/// Then the same k keys again, on warmed buffers. Each flow has two
/// packets that live for one step, and a source queue holds one, so
/// they are born at steps 3 and 5. Those steps are dark (no link, no
/// view): every source finds its cached link gone, evicts it and asks
/// again. Steps 4 and 6 answer with the routes of step 2 — entries are
/// overwritten or put back, the memo refills to its high-water mark —
/// and the packets expire instead of moving, so no queue grows. A table
/// may still double when an entry is overwritten at its load limit,
/// which step 4 gets out of the way: step 6 allocates nothing.
fn audit_resolve_passes<R: RoutingView>(topo: &Topology, view: &R) {
    let n = topo.len();
    let k = 100;
    let flows: Vec<FlowSpec> = crossing_flows(60, k + 1, 2)
        .into_iter()
        .map(|f| FlowSpec { start: 3, ..f })
        .collect();
    let cfg = TrafficConfig {
        ttl: 0,
        queue_capacity: 1,
        ..TrafficConfig::default()
    };
    let mut plane = TrafficPlane::new(n, cfg);
    plane.set_shards(Some(1));
    plane.add_flow(FlowSpec {
        packets: 0,
        ..flows[0]
    });
    plane.on_step(topo, Some(view));
    plane.add_flows(&flows[1..]);
    let resolve_pass = |plane: &mut TrafficPlane| {
        let before = plane.report().route_resolutions;
        let (allocs, bytes) = allocated_during(|| plane.on_step(topo, Some(view)));
        let resolved = (plane.report().route_resolutions - before) as usize;
        (resolved, allocs, bytes)
    };
    let (resolved, _, bytes) = resolve_pass(&mut plane);
    assert!(
        resolved >= k * 9 / 10,
        "only {resolved} of {k} keys resolved"
    );
    assert!(
        bytes < resolved * n,
        "a resolve pass over {resolved} keys on {n} nodes allocated {bytes} bytes"
    );

    let dark = Topology::empty(n);
    plane.on_step::<R>(&dark, None);
    let (again, ..) = resolve_pass(&mut plane);
    plane.on_step::<R>(&dark, None);
    let (third, allocs, bytes) = resolve_pass(&mut plane);
    assert_eq!((again, third), (resolved, resolved), "same keys each pass");
    assert_eq!(
        allocs, 0,
        "a resolve pass on warmed buffers allocated {bytes} bytes in {allocs} allocations"
    );
    let report = plane.report();
    assert_eq!(
        (report.injected, report.dropped_expired, report.delivered),
        (2 * k as u64, 2 * k as u64, 0),
        "every packet was born in the dark and expired where it stood"
    );
}
