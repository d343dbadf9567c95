//! Property-based tests of the topology substrate: the structural
//! invariants of the paper's system model (Section 3) must hold for any
//! generated topology.

use mwn_graph::{builders, traversal, NodeId, Topology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy producing a random unit-disk topology.
fn unit_disk_strategy() -> impl Strategy<Value = Topology> {
    (1usize..80, 2u64..u64::MAX, 2u32..15).prop_map(|(n, seed, r)| {
        let mut rng = StdRng::seed_from_u64(seed);
        builders::uniform(n, f64::from(r) / 100.0, &mut rng)
    })
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
    /// of random moves, `apply_moves` leaves the same edge set as a
    /// full `rebuild_unit_disk_edges`, and the reported delta is the
    /// symmetric difference of the before/after edge sets.
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
            let before: Vec<_> = incremental.edges().collect();
            let delta = incremental.apply_moves(&moves);
            let after: Vec<_> = incremental.edges().collect();
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
            // And the incremental graph matches a from-scratch rebuild.
            let mut reference = incremental.clone();
            reference.rebuild_unit_disk_edges();
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
}
