//! Property-based tests of the topology substrate: the structural
//! invariants of the paper's system model (Section 3) must hold for any
//! generated topology.

use std::collections::HashMap;

use mwn_graph::{builders, traversal, NodeId, Point2, Topology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy producing a random unit-disk topology.
fn unit_disk_strategy() -> impl Strategy<Value = Topology> {
    (1usize..80, 2u64..u64::MAX, 2u32..15).prop_map(|(n, seed, r)| {
        let mut rng = StdRng::seed_from_u64(seed);
        builders::uniform(n, f64::from(r) / 100.0, &mut rng)
    })
}

/// The reference unit-disk builder that `Topology::unit_disk`'s one
/// sort must equal row for row: a SipHash map from cell to ids, the 3×3
/// block of buckets around each node, every pair `i < j` within range
/// pushed onto both rows, and the rows sorted at the end.
fn hash_rows(positions: &[Point2], radius: f64) -> Vec<Vec<NodeId>> {
    let cell_of = |p: Point2| ((p.x / radius).floor() as i64, (p.y / radius).floor() as i64);
    let mut buckets: HashMap<(i64, i64), Vec<u32>> = HashMap::new();
    for (i, &p) in positions.iter().enumerate() {
        buckets.entry(cell_of(p)).or_default().push(i as u32);
    }
    let r2 = radius * radius;
    let mut adj = vec![Vec::new(); positions.len()];
    for (i, &p) in positions.iter().enumerate() {
        let (cx, cy) = cell_of(p);
        for dx in -1..=1 {
            for dy in -1..=1 {
                let Some(bucket) = buckets.get(&(cx + dx, cy + dy)) else {
                    continue;
                };
                for &j in bucket {
                    if (j as usize) > i && p.distance_squared(positions[j as usize]) <= r2 {
                        adj[i].push(NodeId::new(j));
                        adj[j as usize].push(NodeId::new(i as u32));
                    }
                }
            }
        }
    }
    for row in &mut adj {
        row.sort_unstable();
    }
    adj
}

/// Asserts that `topo` is a unit-disk graph whose every row equals the
/// hash builder's over the same positions and radius.
fn assert_rows_match_the_hash_builder(topo: &Topology) {
    let radius = topo.radius().expect("a unit-disk topology");
    let positions = topo.positions().expect("a unit-disk topology");
    let reference = hash_rows(positions, radius);
    assert_eq!(topo.len(), reference.len());
    for p in topo.nodes() {
        assert_eq!(
            topo.neighbors(p),
            reference[p.index()].as_slice(),
            "row of {p} at {} (radius {radius}, {} nodes)",
            positions[p.index()],
            topo.len()
        );
    }
}

/// Builds the unit-disk graph over `positions` and checks it row for
/// row against the hash builder.
fn check_unit_disk(positions: Vec<Point2>, radius: f64) {
    let topo = Topology::unit_disk(positions, radius).expect("valid positions and radius");
    assert_rows_match_the_hash_builder(&topo);
}

/// Uniform points over `[lo, hi)²`.
fn scatter(n: usize, lo: f64, hi: f64, rng: &mut StdRng) -> Vec<Point2> {
    (0..n)
        .map(|_| Point2::new(rng.random_range(lo..hi), rng.random_range(lo..hi)))
        .collect()
}

/// Strategy producing a random G(n,p) topology (non-geometric).
fn gnp_strategy() -> impl Strategy<Value = Topology> {
    (1usize..60, 2u64..u64::MAX, 0.0f64..1.0).prop_map(|(n, seed, p)| {
        let mut rng = StdRng::seed_from_u64(seed);
        builders::gnp(n, p, &mut rng)
    })
}

proptest! {
    /// Links are bidirectional: q ∈ N_p ⇔ p ∈ N_q.
    #[test]
    fn adjacency_is_symmetric(topo in unit_disk_strategy()) {
        for p in topo.nodes() {
            for &q in topo.neighbors(p) {
                prop_assert!(topo.neighbors(q).contains(&p));
            }
        }
    }

    /// p ∉ N_p: the model forbids self-loops.
    #[test]
    fn no_self_loops(topo in gnp_strategy()) {
        for p in topo.nodes() {
            prop_assert!(!topo.neighbors(p).contains(&p));
        }
    }

    /// Unit-disk edges exist exactly when distance ≤ R.
    #[test]
    fn unit_disk_edge_iff_in_range(topo in unit_disk_strategy()) {
        let radius = topo.radius().unwrap();
        let positions = topo.positions().unwrap();
        for p in topo.nodes() {
            for q in topo.nodes() {
                if p == q { continue; }
                let within = positions[p.index()].distance(positions[q.index()]) <= radius;
                prop_assert_eq!(topo.has_edge(p, q), within);
            }
        }
    }

    /// N^i_p is monotone in i and N^1_p = N_p.
    #[test]
    fn k_neighborhood_monotone(topo in gnp_strategy()) {
        for p in topo.nodes() {
            let n1 = topo.k_neighborhood(p, 1);
            prop_assert_eq!(n1.as_slice(), topo.neighbors(p));
            let mut prev = n1;
            for k in 2..5 {
                let nk = topo.k_neighborhood(p, k);
                for q in &prev {
                    prop_assert!(nk.contains(q));
                }
                prev = nk;
            }
        }
    }

    /// The i-neighborhood definition agrees with BFS distances:
    /// q ∈ N^i_p ⇔ 1 ≤ d(p, q) ≤ i.
    #[test]
    fn k_neighborhood_matches_bfs(topo in gnp_strategy(), k in 1usize..5) {
        for p in topo.nodes() {
            let nk = topo.k_neighborhood(p, k);
            let dist = traversal::bfs_distances(&topo, p);
            for q in topo.nodes() {
                let expected = match dist[q.index()] {
                    Some(d) => d >= 1 && d as usize <= k,
                    None => false,
                };
                prop_assert_eq!(nk.contains(&q), expected);
            }
        }
    }

    /// Definition-1 link counts: deg(p) ≤ links(p) ≤ deg(p)·(deg(p)+1)/2.
    #[test]
    fn neighborhood_links_bounds(topo in unit_disk_strategy()) {
        for p in topo.nodes() {
            let deg = topo.degree(p);
            let links = topo.neighborhood_links(p);
            prop_assert!(links >= deg);
            prop_assert!(links <= deg + deg * deg.saturating_sub(1) / 2);
        }
    }

    /// Edges iterator agrees with edge_count and has_edge.
    #[test]
    fn edges_iterator_consistent(topo in gnp_strategy()) {
        let edges: Vec<_> = topo.edges().collect();
        prop_assert_eq!(edges.len(), topo.edge_count());
        for (u, v) in edges {
            prop_assert!(u < v);
            prop_assert!(topo.has_edge(u, v));
            prop_assert!(topo.has_edge(v, u));
        }
    }

    /// Components partition the node set.
    #[test]
    fn components_partition_nodes(topo in gnp_strategy()) {
        let comps = traversal::connected_components(&topo);
        let mut seen = vec![false; topo.len()];
        for comp in &comps {
            for q in comp {
                prop_assert!(!seen[q.index()], "node in two components");
                seen[q.index()] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// Removing an edge then re-adding it restores the topology.
    #[test]
    fn edge_removal_roundtrip(topo in gnp_strategy()) {
        let mut edited = topo.clone();
        let edges: Vec<_> = topo.edges().collect();
        if let Some(&(u, v)) = edges.first() {
            edited.remove_edge(u, v);
            prop_assert!(!edited.has_edge(u, v));
            edited.add_edge(u, v).unwrap();
            prop_assert_eq!(edited, topo);
        }
    }

    /// Incremental unit-disk maintenance is exact: after any sequence
    /// of random moves, `apply_moves` leaves the same graph as
    /// `Topology::unit_disk` over the moved positions, and the reported
    /// delta is the symmetric difference of the before/after edge sets.
    /// Swapping the before topology for the after one (`replace`)
    /// reports the same two differences, sorted, and leaves the after
    /// topology.
    #[test]
    fn apply_moves_equals_full_rebuild(
        topo in unit_disk_strategy(),
        seed in 0u64..u64::MAX,
        rounds in 1usize..4,
    ) {
        use mwn_graph::Point2;
        use rand::Rng;
        let mut incremental = topo.clone();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..rounds {
            let n = incremental.len();
            let movers = rng.random_range(0..=n.min(10));
            let moves: Vec<(NodeId, Point2)> = (0..movers)
                .map(|_| {
                    let p = NodeId::new(rng.random_range(0..n as u32));
                    (p, Point2::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
                })
                .collect();
            let mut swapped = incremental.clone();
            let before: Vec<_> = incremental.edges().collect();
            let delta = incremental.apply_moves(&moves);
            let after: Vec<_> = incremental.edges().collect();
            let only = |a: &[(NodeId, NodeId)], b: &[(NodeId, NodeId)]| -> Vec<_> {
                a.iter().filter(|e| !b.contains(e)).copied().collect()
            };
            let swap = swapped.replace(incremental.clone());
            prop_assert_eq!(&swap.removed, &only(&before, &after));
            prop_assert_eq!(&swap.added, &only(&after, &before));
            prop_assert_eq!(&swapped, &incremental);
            // The delta is exactly the symmetric difference.
            for e in &delta.added {
                prop_assert!(!before.contains(e) && after.contains(e));
            }
            for e in &delta.removed {
                prop_assert!(before.contains(e) && !after.contains(e));
            }
            let churn = delta.added.len() + delta.removed.len();
            let sym_diff = before.iter().filter(|e| !after.contains(e)).count()
                + after.iter().filter(|e| !before.contains(e)).count();
            prop_assert_eq!(churn, sym_diff);
            // And the incremental graph matches a from-scratch build.
            let positions = incremental.positions().unwrap().to_vec();
            let radius = incremental.radius().unwrap();
            let reference = Topology::unit_disk(positions, radius).unwrap();
            prop_assert_eq!(&incremental, &reference);
        }
    }

    /// BFS distances satisfy the triangle property along edges:
    /// |d(s,u) - d(s,v)| ≤ 1 for every edge (u,v) in the same component.
    #[test]
    fn bfs_is_metric_along_edges(topo in unit_disk_strategy()) {
        let src = NodeId::new(0);
        let dist = traversal::bfs_distances(&topo, src);
        for (u, v) in topo.edges() {
            if let (Some(du), Some(dv)) = (dist[u.index()], dist[v.index()]) {
                prop_assert!(du.abs_diff(dv) <= 1);
            }
        }
    }

    /// A scratch carries nothing from one search into the next: on
    /// random unit-disk graphs with random `allowed` masks, many
    /// searches on one scratch answer what a fresh scratch answers
    /// (the free functions), `None` ⇔ `false`, and every path found is
    /// a walk through allowed nodes of exactly the filtered distance.
    /// (Element-for-element equality with the allocating search this
    /// replaced, across a generation wrap-around, is checked next to
    /// that private reference in `traversal.rs`.)
    #[test]
    fn one_scratch_answers_like_a_fresh_one(
        topo in unit_disk_strategy(),
        picks in proptest::collection::vec((any::<u64>(), any::<u64>(), any::<u64>()), 1..24),
    ) {
        let n = topo.len() as u64;
        let mut scratch = traversal::SearchScratch::new();
        for (s, d, mask) in picks {
            let (src, dst) = (NodeId::new((s % n) as u32), NodeId::new((d % n) as u32));
            // Blocks about a quarter of the nodes, differently per pick.
            let allowed =
                |v: NodeId| (u64::from(v.value()) ^ mask).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 62 != 0;

            let mut path = vec![src];
            let found = scratch.extend_path(&topo, src, dst, allowed, &mut path);
            prop_assert_eq!(
                found.then(|| path.clone()),
                traversal::bfs_path_filtered(&topo, src, dst, allowed)
            );

            scratch.distances(&topo, src, allowed);
            let dist = traversal::bfs_distances_filtered(&topo, src, allowed);
            for v in topo.nodes() {
                prop_assert_eq!(scratch.distance(v), dist[v.index()]);
            }

            if found {
                prop_assert!(path.windows(2).all(|w| topo.has_edge(w[0], w[1])));
                prop_assert!(path[1..path.len().max(2) - 1].iter().all(|&v| allowed(v)));
                if dst == src || allowed(dst) {
                    prop_assert_eq!(Some(path.len() as u32 - 1), dist[dst.index()]);
                }
            } else {
                prop_assert_eq!(dist[dst.index()], None);
            }
        }
    }

    /// The sorted builder equals the hash builder row for row on the
    /// paper's deployments: uniform and Poisson fields of up to a few
    /// thousand nodes at small radii (mean degree up to ~25), and up to
    /// a few hundred at large ones (a block covers most of the square).
    #[test]
    fn unit_disk_rows_equal_the_hash_builder_on_random_fields(
        n in 0usize..3000,
        seed in any::<u64>(),
        large in any::<bool>(),
        r in 0.0f64..1.0,
        poisson in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (n, radius) = if large { (n / 10, 0.05 + 0.6 * r) } else { (n, 0.003 + 0.05 * r) };
        let topo = if poisson {
            builders::poisson(n as f64, radius, &mut rng)
        } else {
            builders::uniform(n, radius, &mut rng)
        };
        assert_rows_match_the_hash_builder(&topo);
    }

    /// Points snapped to multiples of a fraction of the radius sit on
    /// cell boundaries and at exactly the radio range from each other,
    /// where `floor(x / radius)` and `distance_squared(..) <= r2` are
    /// decided by the last bit; fields reaching below 0 and above 1,
    /// with repeated points.
    #[test]
    fn unit_disk_rows_equal_the_hash_builder_on_cell_boundaries(
        n in 0usize..400,
        seed in any::<u64>(),
        radius_pick in 0usize..5,
        step_pick in 0usize..3,
    ) {
        let radius = [0.25, 0.1, 0.05, 0.3, 1.0 / 3.0][radius_pick];
        let step = radius / [1.0, 2.0, 3.0][step_pick];
        let mut rng = StdRng::seed_from_u64(seed);
        let positions = (0..n)
            .map(|_| {
                let (i, j) = (rng.random_range(0..24u32), rng.random_range(0..24u32));
                Point2::new((f64::from(i) - 4.0) * step, (f64::from(j) - 4.0) * step)
            })
            .collect();
        check_unit_disk(positions, radius);
    }
}

#[test]
fn unit_disk_rows_equal_the_hash_builder_on_lattices_at_multiples_of_the_radius() {
    for radius in [0.25, 0.125, 0.1, 0.05, 0.3] {
        for (lo, hi) in [(0, 8), (-5, 3)] {
            let positions: Vec<Point2> = (lo..hi)
                .flat_map(|i| {
                    (lo..hi).map(move |j| Point2::new(f64::from(i) * radius, f64::from(j) * radius))
                })
                .collect();
            // With a dyadic radius the lattice spacing is exactly the
            // radio range, so every lattice neighbour is a tie.
            if radius == 0.25 || radius == 0.125 {
                let topo = Topology::unit_disk(positions.clone(), radius).unwrap();
                let interior = NodeId::new((3 * (hi - lo) + 3) as u32);
                assert_eq!(topo.degree(interior), 4, "radius {radius}");
            }
            check_unit_disk(positions, radius);
        }
    }
}

#[test]
fn unit_disk_rows_equal_the_hash_builder_on_duplicate_points() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut positions = scatter(50, 0.0, 1.0, &mut rng);
    // Every point twice, plus a stack of five on a cell corner.
    positions.extend(positions.clone());
    positions.extend([Point2::new(0.2, 0.2); 5]);
    let topo = Topology::unit_disk(positions.clone(), 0.1).unwrap();
    assert!(topo.has_edge(NodeId::new(0), NodeId::new(50)));
    for k in 101..105 {
        assert!(topo.has_edge(NodeId::new(100), NodeId::new(k)));
    }
    check_unit_disk(positions, 0.1);
}

#[test]
fn unit_disk_rows_equal_the_hash_builder_outside_the_unit_square() {
    for seed in 0..8 {
        let mut rng = StdRng::seed_from_u64(seed);
        check_unit_disk(scatter(1500, -3.0, 4.0, &mut rng), 0.15);
        check_unit_disk(scatter(300, -1e4, -1e4 + 1.0, &mut rng), 0.07);
    }
}

#[test]
fn unit_disk_rows_equal_the_hash_builder_in_a_single_cell() {
    let mut rng = StdRng::seed_from_u64(5);
    // Radius at least the extent: every node in one cell (or two, at
    // the far edge), and the graph complete.
    let positions = scatter(200, 0.0, 1.0, &mut rng);
    let topo = Topology::unit_disk(positions.clone(), 2.0).unwrap();
    assert_eq!(topo.edge_count(), 200 * 199 / 2);
    check_unit_disk(positions.clone(), 2.0);
    check_unit_disk(positions, 1.0);
}

#[test]
fn unit_disk_rows_equal_the_hash_builder_on_a_sparse_field_of_a_million_cells() {
    let mut rng = StdRng::seed_from_u64(17);
    let radius = 0.0005;
    // 2000² cells; 400 points, plus a close partner for every fourth.
    let mut positions = scatter(400, 0.0, 1.0, &mut rng);
    let partners: Vec<Point2> = positions
        .iter()
        .step_by(4)
        .map(|p| Point2::new(p.x + 0.0003, p.y - 0.0002))
        .collect();
    positions.extend(partners);
    let topo = Topology::unit_disk(positions.clone(), radius).unwrap();
    assert!(topo.edge_count() >= 100);
    check_unit_disk(positions, radius);
}

#[test]
fn unit_disk_rows_equal_the_hash_builder_on_zero_and_one_nodes() {
    check_unit_disk(Vec::new(), 0.1);
    check_unit_disk(vec![Point2::new(0.5, 0.5)], 0.1);
    check_unit_disk(vec![Point2::new(-7.0, 1e9)], 0.1);
    assert_eq!(Topology::unit_disk(Vec::new(), 0.1).unwrap().len(), 0);
}
