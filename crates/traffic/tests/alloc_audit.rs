//! Allocation audit for the data plane (the counting allocator of the
//! workspace's `tests/alloc_audit.rs`, in a test binary of its own).
//!
//! The plane's cost claim, in numbers: once every reusable buffer has
//! reached its high-water mark, a step that only forwards performs
//! **zero heap allocations** at one shard — verdicts go to the reused
//! per-shard arena, packets move by value between queues that have
//! already grown — and a resolve pass allocates only where a
//! forwarding table grows, because every route search runs on the
//! plane's own scratch instead of allocating per-search `O(n)` arrays.
//!
//! Both phases run inside a single `#[test]` so no concurrent test
//! pollutes the process-wide counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mwn_cluster::FlatRoutes;
use mwn_graph::{builders, NodeId};
use mwn_traffic::{FlowSpec, TrafficConfig, TrafficPlane};

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

    // --- One resolve pass over k pending keys -----------------------
    // On a network large enough that per-search O(n) arrays would show:
    // one flow first, so the plane's search scratch is sized; then k
    // more, all resolved by the next step. What that step allocates is
    // forwarding-table growth along k routes — below one byte per key
    // per node, where the two O(n) arrays per search of an allocating
    // BFS come to nine.
    let side = 60;
    let topo = builders::grid(side, side, 1.45 / (side - 1) as f64);
    let n = topo.len();
    let k = 100;
    let flows = crossing_flows(side, k + 1, 1);
    let mut plane = TrafficPlane::new(n, TrafficConfig::default());
    plane.set_shards(Some(1));
    plane.add_flow(flows[0]);
    plane.on_step(&topo, Some(&FlatRoutes));
    plane.add_flows(&flows[1..]);
    let resolved_before = plane.report().route_resolutions;
    let (_, bytes) = allocated_during(|| plane.on_step(&topo, Some(&FlatRoutes)));
    let resolved = (plane.report().route_resolutions - resolved_before) as usize;
    assert!(
        resolved >= k * 9 / 10,
        "only {resolved} of {k} keys resolved"
    );
    assert!(
        bytes < resolved * n,
        "a resolve pass over {resolved} keys on {n} nodes allocated {bytes} bytes"
    );
}
