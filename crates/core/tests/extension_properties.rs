//! Property-based tests for the extension modules: hierarchy, energy
//! rotation, routing and gateway analysis keep their invariants on any
//! topology.

use mwn_cluster::{
    build_hierarchy, energy_aware_clustering, gateway_report, mean_stretch, oracle, EnergyModel,
    HierarchicalRoutes, OracleConfig, RouteScratch, RoutingView,
};
use mwn_graph::{builders, traversal, NodeId, Topology};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn topo_strategy() -> impl Strategy<Value = Topology> {
    (2usize..70, 8u32..30, 0u64..u64::MAX).prop_map(|(n, r, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        builders::uniform(n, f64::from(r) / 100.0, &mut rng)
    })
}

/// Routes looked up inside one pass on `scratch` — overlay hops shared
/// through its segment memo — against single lookups on fresh buffers.
fn pass_equals_fresh_lookups(
    scratch: &mut RouteScratch,
    topo: &Topology,
    view: &HierarchicalRoutes,
    pairs: &[(NodeId, NodeId)],
) -> Result<(), TestCaseError> {
    let mut pass = scratch.pass(view, topo);
    let mut route = Vec::new();
    for &(src, dst) in pairs {
        let found = pass.route_into(src, dst, &mut route);
        let fresh = view.route(topo, src, dst);
        prop_assert_eq!(found.then_some(&route), fresh.as_ref(), "{}→{}", src, dst);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Hierarchies strictly shrink per level, keep one root per
    /// connected component at the top, and address every node.
    #[test]
    fn hierarchy_invariants(topo in topo_strategy()) {
        let h = build_hierarchy(&topo, &OracleConfig::default(), 16);
        prop_assert!(h.depth() >= 1);
        for w in h.levels().windows(2) {
            prop_assert!(w[1].members.len() < w[0].members.len());
            prop_assert_eq!(w[1].members.len(), w[0].clustering.head_count());
        }
        let components = traversal::connected_components(&topo);
        prop_assert_eq!(h.top_heads().len(), components.len());
        for p in topo.nodes() {
            let root = h.head_of(p, h.depth() - 1).expect("addressable");
            // The root lives in p's component.
            let d = traversal::bfs_distances(&topo, p);
            prop_assert!(d[root.index()].is_some(), "{} routed out of component", p);
        }
    }

    /// Energy-aware elections remain valid clusterings for arbitrary
    /// battery vectors, and nodes in the lowest band never beat a
    /// full-battery neighbor.
    #[test]
    fn energy_election_invariants(
        topo in topo_strategy(),
        seed in 0u64..u64::MAX,
    ) {
        use rand::Rng;
        let model = EnergyModel::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let batteries: Vec<f64> = topo
            .nodes()
            .map(|_| rng.random_range(0.0..=model.initial))
            .collect();
        let c = energy_aware_clustering(&topo, &batteries, &model, &OracleConfig::default());
        for h in c.heads() {
            for &q in topo.neighbors(h) {
                prop_assert!(!c.is_head(q), "adjacent heads");
            }
        }
        for p in topo.nodes() {
            prop_assert!(c.is_head(c.head(p)));
            prop_assert!(c.depth_in_hops(&topo, p).is_some());
        }
        // A bottom-band head implies no higher-band neighbor exists.
        for h in c.heads() {
            if model.band_of(batteries[h.index()]) == 0 {
                for &q in topo.neighbors(h) {
                    prop_assert!(
                        model.band_of(batteries[q.index()]) == 0,
                        "empty head {} beat charged neighbor {}", h, q
                    );
                }
            }
        }
    }

    /// Every routable pair gets a real walk with stretch ≥ 1; pairs in
    /// different components are never routed.
    #[test]
    fn routing_invariants(topo in topo_strategy(), seed in 0u64..u64::MAX) {
        let clustering = oracle(&topo, &OracleConfig::default());
        let view = HierarchicalRoutes::new(&topo, clustering.clone());
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        for _ in 0..30 {
            let src = NodeId::new(rng.random_range(0..topo.len() as u32));
            let dst = NodeId::new(rng.random_range(0..topo.len() as u32));
            let direct = traversal::bfs_distances(&topo, src)[dst.index()];
            match (view.route(&topo, src, dst), direct) {
                (Some(route), Some(d)) => {
                    prop_assert!(route.windows(2).all(|w| topo.has_edge(w[0], w[1])));
                    prop_assert_eq!(route.first(), Some(&src));
                    prop_assert_eq!(route.last(), Some(&dst));
                    prop_assert!(route.len() as u32 > d, "shorter than shortest");
                }
                (None, None) => {}
                (Some(_), None) => prop_assert!(false, "routed across components"),
                (None, Some(_)) => {
                    prop_assert!(src != dst, "missed a reachable pair");
                    prop_assert!(false, "missed a reachable pair {src}→{dst}");
                }
            }
        }
        // Aggregate stretch, when defined, is finite and ≥ 1.
        if let Some(s) = mean_stretch(&topo, &clustering, 50, &mut rng) {
            prop_assert!(s >= 1.0 && s.is_finite());
        }
    }

    /// The segment memo is invisible: every route of a pass equals the
    /// route a fresh lookup finds, and nothing survives the pass — after
    /// links that stored segments ran over are cut and the field is
    /// clustered again, a new pass on the same scratch is exact too,
    /// also when opening it wraps the memo's generation counter back
    /// onto the first pass's stamp.
    #[test]
    fn routes_in_a_pass_equal_fresh_lookups(
        field in (60usize..200, 10u32..20, 0u64..u64::MAX),
        seed in 0u64..u64::MAX,
        wrap in any::<bool>(),
    ) {
        use rand::Rng;
        let (n, r, field_seed) = field;
        let mut field_rng = StdRng::seed_from_u64(field_seed);
        let mut topo = builders::uniform(n, f64::from(r) / 100.0, &mut field_rng);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut node = || NodeId::new(rng.random_range(0..n as u32));
        let pairs: Vec<_> = (0..60).map(|_| (node(), node())).collect();
        let mut scratch = RouteScratch::new();

        let view = HierarchicalRoutes::new(&topo, oracle(&topo, &OracleConfig::default()));
        pass_equals_fresh_lookups(&mut scratch, &topo, &view, &pairs)?;

        // Cut the middle link of the first few routes found.
        let cuts: Vec<_> = pairs
            .iter()
            .filter_map(|&(src, dst)| view.route(&topo, src, dst))
            .filter(|route| route.len() > 1)
            .map(|route| (route[route.len() / 2 - 1], route[route.len() / 2]))
            .take(4)
            .collect();
        for (u, v) in cuts {
            topo.remove_edge(u, v);
        }
        if wrap {
            scratch.set_memo_generation(u32::MAX);
        }
        let view = HierarchicalRoutes::new(&topo, oracle(&topo, &OracleConfig::default()));
        pass_equals_fresh_lookups(&mut scratch, &topo, &view, &pairs)?;
    }

    /// Gateway bookkeeping is exact: border flags and per-pair link
    /// counts match a direct edge scan.
    #[test]
    fn gateway_report_is_exact(topo in topo_strategy()) {
        let clustering = oracle(&topo, &OracleConfig::default());
        let report = gateway_report(&topo, &clustering);
        let mut expected_borders = vec![false; topo.len()];
        let mut cross = 0usize;
        for (u, v) in topo.edges() {
            if clustering.head(u) != clustering.head(v) {
                expected_borders[u.index()] = true;
                expected_borders[v.index()] = true;
                cross += 1;
            }
        }
        prop_assert_eq!(&report.is_border, &expected_borders);
        prop_assert_eq!(report.links_between.values().sum::<usize>(), cross);
        for (&(a, b), &count) in &report.links_between {
            prop_assert!(a < b);
            prop_assert!(clustering.is_head(a) && clustering.is_head(b));
            prop_assert!(count >= 1);
        }
    }
}
