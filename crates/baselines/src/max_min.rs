//! The max-min d-cluster heuristic of Amis, Prakash, Vuong & Huynh
//! (INFOCOM 2000) — the paper's reference \[1\].
//!
//! The heuristic elects cluster-heads such that every node is within
//! `d` hops of its head, using `2d` synchronous flooding rounds:
//!
//! 1. **Floodmax** (`d` rounds): each node repeatedly adopts the
//!    largest id heard in its closed neighborhood; after `d` rounds it
//!    knows the largest id within `d` hops.
//! 2. **Floodmin** (`d` rounds): starting from the floodmax winner,
//!    each node adopts the *smallest* value heard — giving smaller ids
//!    that "won" some region a chance to reclaim their territory.
//! 3. **Election rules** per node `p` with round logs `W` (floodmax)
//!    and `M` (floodmin):
//!    * Rule 1 — if `p`'s own id appears in `M`, `p` is a head;
//!    * Rule 2 — else, among ids appearing in both `W` and `M`
//!      (*node pairs*), pick the smallest as head;
//!    * Rule 3 — else adopt the floodmax winner `W[d]`.

use std::collections::BTreeSet;

use mwn_cluster::Clustering;
use mwn_graph::{traversal, NodeId, Topology};

/// Runs the max-min d-cluster election synchronously and returns the
/// resulting clustering. Parent pointers follow shortest paths toward
/// the elected head (ties to the smallest id), so tree metrics are
/// comparable with the density clustering's.
///
/// # Panics
///
/// Panics if `d == 0`.
///
/// # Examples
///
/// ```
/// use mwn_baselines::max_min_clustering;
/// use mwn_graph::builders;
///
/// let topo = builders::line(9);
/// let c = max_min_clustering(&topo, 2);
/// // Every node is within d = 2 hops of its head.
/// for p in topo.nodes() {
///     let d = mwn_graph::traversal::bfs_distances(&topo, c.head(p));
///     assert!(d[p.index()].unwrap() <= 2);
/// }
/// ```
pub fn max_min_clustering(topo: &Topology, d: usize) -> Clustering {
    assert!(d > 0, "max-min requires d ≥ 1");
    let n = topo.len();
    if n == 0 {
        return Clustering::new(Vec::new(), Vec::new());
    }

    // Floodmax (adopt the largest value in the closed neighborhood),
    // then floodmin (the smallest) from its winner. Each log holds
    // rounds 1..=d; the current round is kept beside it.
    let flood = |prev: &[u32], pick: fn(u32, u32) -> u32| {
        let mut next = prev.to_vec();
        for p in topo.nodes() {
            for &q in topo.neighbors(p) {
                next[p.index()] = pick(next[p.index()], prev[q.index()]);
            }
        }
        next
    };
    let (mut w, mut w_log) = ((0..n as u32).collect::<Vec<u32>>(), Vec::with_capacity(d));
    for _ in 0..d {
        w = flood(&w, u32::max);
        w_log.push(w.clone());
    }
    let (mut m, mut m_log) = (w.clone(), Vec::with_capacity(d));
    for _ in 0..d {
        m = flood(&m, u32::min);
        m_log.push(m.clone());
    }

    // Election rules.
    let mut head_id: Vec<u32> = vec![0; n];
    for p in topo.nodes() {
        let i = p.index();
        let my = p.value();
        let w_seen: BTreeSet<u32> = w_log.iter().map(|round| round[i]).collect();
        let m_seen: BTreeSet<u32> = m_log.iter().map(|round| round[i]).collect();
        head_id[i] = if m_seen.contains(&my) {
            my // Rule 1: reclaimed own id
        } else if let Some(&pair) = w_seen.intersection(&m_seen).next() {
            pair // Rule 2: smallest node pair
        } else {
            w[i] // Rule 3: the floodmax winner
        };
    }
    // A node elected by others must itself be a head even if its own
    // rules chose differently (the standard max-min consolidation).
    let elected: BTreeSet<u32> = head_id.iter().copied().collect();
    for p in topo.nodes() {
        if elected.contains(&p.value()) {
            head_id[p.index()] = p.value();
        }
    }

    // Parent pointers: shortest path toward the head; if the elected
    // head is unreachable (disconnected corner case), fall back to
    // self-head.
    let mut parent: Vec<NodeId> = (0..n as u32).map(NodeId::new).collect();
    let mut head: Vec<NodeId> = (0..n as u32).map(NodeId::new).collect();
    let heads: BTreeSet<u32> = head_id
        .iter()
        .enumerate()
        .filter(|&(i, &h)| h == i as u32)
        .map(|(_, &h)| h)
        .collect();
    for &h in &heads {
        let h = NodeId::new(h);
        let dist = traversal::bfs_distances(topo, h);
        for p in topo.nodes() {
            if head_id[p.index()] == h.value() && p != h {
                // A node at BFS distance dp ≥ 1 has a neighbor at dp − 1.
                let up = dist[p.index()].and_then(|dp| {
                    let neighbors = topo.neighbors(p).iter().copied();
                    let up = neighbors.filter(|&q| dist[q.index()] == Some(dp - 1)).min();
                    debug_assert!(
                        up.is_some(),
                        "{p} at distance {dp} has no neighbor at {}",
                        dp - 1
                    );
                    up
                });
                (parent[p.index()], head[p.index()]) = up.map_or((p, p), |up| (up, h));
            }
        }
    }
    Clustering::new(parent, head)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwn_graph::builders;
    use rand::SeedableRng;

    #[test]
    fn every_node_within_d_hops_of_head() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for d in 1..=3 {
            let topo = builders::uniform(100, 0.15, &mut rng);
            let c = max_min_clustering(&topo, d);
            for p in topo.nodes() {
                let dist = traversal::bfs_distances(&topo, c.head(p));
                let hops = dist[p.index()].expect("head reachable");
                assert!(
                    hops as usize <= d,
                    "node {p} is {hops} hops from its head (d = {d})"
                );
            }
        }
    }

    #[test]
    fn heads_claim_themselves() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        let topo = builders::uniform(80, 0.15, &mut rng);
        let c = max_min_clustering(&topo, 2);
        for p in topo.nodes() {
            assert!(c.is_head(c.head(p)), "head claim of {p} dangles");
            assert!(c.depth_in_hops(&topo, p).is_some(), "chain of {p} broken");
        }
    }

    #[test]
    fn isolated_nodes_head_themselves() {
        let topo = Topology::empty(4);
        let c = max_min_clustering(&topo, 2);
        assert_eq!(c.head_count(), 4);
    }

    #[test]
    fn complete_graph_elects_one_head() {
        let topo = builders::complete(10);
        let c = max_min_clustering(&topo, 1);
        assert_eq!(c.head_count(), 1, "K10 needs a single head");
    }

    #[test]
    fn line_with_d1_matches_structure() {
        let topo = builders::line(5);
        let c = max_min_clustering(&topo, 1);
        // d = 1: every node adjacent to its head.
        for p in topo.nodes() {
            let h = c.head(p);
            assert!(h == p || topo.has_edge(p, h));
        }
    }

    #[test]
    fn larger_d_never_increases_heads_much() {
        // More flooding rounds cover more ground: head count shrinks
        // (weakly) as d grows on connected graphs.
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        let topo = builders::uniform(120, 0.2, &mut rng);
        let h1 = max_min_clustering(&topo, 1).head_count();
        let h3 = max_min_clustering(&topo, 3).head_count();
        assert!(h3 <= h1, "d=3 gave {h3} heads vs {h1} at d=1");
    }

    #[test]
    #[should_panic(expected = "d ≥ 1")]
    fn zero_d_rejected() {
        let _ = max_min_clustering(&builders::line(3), 0);
    }

    use mwn_graph::Topology;
}
