//! Topology generators: the deployments used in the paper's Section 5
//! (Poisson fields and grids over the unit square) plus standard shapes
//! used by the test suite (lines, rings, stars, complete graphs,
//! Erdős–Rényi) and the hand-reconstructed Figure 1 example.

use rand::Rng;

use crate::{Point2, Topology};

/// Samples a Poisson(λ) count exactly.
///
/// Knuth's product-of-uniforms method underflows for large λ, so the
/// draw is split into chunks of intensity ≤ 16; a Poisson variable is
/// the sum of independent Poisson variables of partial intensity. Cost
/// is `O(λ)`, which is fine for the paper's λ = 1000.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let n = mwn_graph::builders::poisson_count(1000.0, &mut rng);
/// assert!((800..1200).contains(&n));
/// ```
pub fn poisson_count<R: Rng>(lambda: f64, rng: &mut R) -> usize {
    assert!(lambda >= 0.0, "Poisson intensity must be non-negative");
    let mut remaining = lambda;
    let mut total = 0usize;
    while remaining > 0.0 {
        let chunk = remaining.min(16.0);
        remaining -= chunk;
        let limit = (-chunk).exp();
        let mut product = 1.0f64;
        let mut k = 0usize;
        loop {
            product *= rng.random_range(0.0..1.0f64);
            if product < limit {
                break;
            }
            k += 1;
        }
        total += k;
    }
    total
}

/// Deploys a Poisson point process of intensity `lambda` over the unit
/// square and links nodes within `radius` (the random geometric graphs
/// of Table 3 and Table 4).
///
/// # Panics
///
/// Panics if `radius` is not finite and positive.
pub fn poisson<R: Rng>(lambda: f64, radius: f64, rng: &mut R) -> Topology {
    let n = poisson_count(lambda, rng);
    uniform(n, radius, rng)
}

/// Deploys exactly `n` uniformly random points in the unit square and
/// links nodes within `radius`.
///
/// # Panics
///
/// Panics if `radius` is not finite and positive.
pub fn uniform<R: Rng>(n: usize, radius: f64, rng: &mut R) -> Topology {
    let positions = (0..n)
        .map(|_| Point2::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
        .collect();
    Topology::unit_disk(positions, radius).expect("radius validated by caller contract")
}

/// Deploys an `nx × ny` grid spanning the unit square and links nodes
/// within `radius`.
///
/// Identifiers increase "from left to right and from the bottom to the
/// top" exactly as in the paper's adversarial Table 5 scenario: node
/// `(x, y)` gets id `y*nx + x`, with `y = 0` the bottom row. With
/// `32 × 32 ≈ 1000` nodes and `R = 0.05`, interior nodes see their 8
/// surrounding grid points and all interior densities are equal, so the
/// id distribution alone decides the election — the worst case the DAG
/// renaming is designed to fix.
///
/// # Panics
///
/// Panics if `nx * ny == 0` or `radius` is not finite and positive.
pub fn grid(nx: usize, ny: usize, radius: f64) -> Topology {
    assert!(nx > 0 && ny > 0, "grid dimensions must be positive");
    let sx = if nx > 1 { 1.0 / (nx - 1) as f64 } else { 0.0 };
    let sy = if ny > 1 { 1.0 / (ny - 1) as f64 } else { 0.0 };
    let mut positions = Vec::with_capacity(nx * ny);
    for y in 0..ny {
        for x in 0..nx {
            positions.push(Point2::new(x as f64 * sx, y as f64 * sy));
        }
    }
    Topology::unit_disk(positions, radius).expect("radius validated by caller contract")
}

/// A path of `n` nodes: `0 — 1 — … — n-1`, positioned along the unit
/// segment.
pub fn line(n: usize) -> Topology {
    let edges: Vec<(u32, u32)> = (1..n as u32).map(|i| (i - 1, i)).collect();
    let positions = (0..n)
        .map(|i| {
            let t = if n > 1 {
                i as f64 / (n - 1) as f64
            } else {
                0.5
            };
            Point2::new(t, 0.5)
        })
        .collect();
    Topology::from_valid_edges(n, &edges).with_positions(positions)
}

/// A cycle of `n ≥ 3` nodes positioned on a circle.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn ring(n: usize) -> Topology {
    assert!(n >= 3, "a ring needs at least 3 nodes");
    let mut edges: Vec<(u32, u32)> = (1..n as u32).map(|i| (i - 1, i)).collect();
    edges.push((n as u32 - 1, 0));
    let positions = (0..n)
        .map(|i| {
            let a = i as f64 / n as f64 * std::f64::consts::TAU;
            Point2::new(0.5 + 0.4 * a.cos(), 0.5 + 0.4 * a.sin())
        })
        .collect();
    Topology::from_valid_edges(n, &edges).with_positions(positions)
}

/// A star: node 0 at the center linked to `n - 1` leaves.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn star(n: usize) -> Topology {
    assert!(n >= 1, "a star needs at least its center");
    let edges: Vec<(u32, u32)> = (1..n as u32).map(|i| (0, i)).collect();
    let mut positions = vec![Point2::new(0.5, 0.5)];
    for i in 1..n {
        let a = i as f64 / (n - 1).max(1) as f64 * std::f64::consts::TAU;
        positions.push(Point2::new(0.5 + 0.4 * a.cos(), 0.5 + 0.4 * a.sin()));
    }
    Topology::from_valid_edges(n, &edges).with_positions(positions)
}

/// The complete graph `K_n` (every pair linked).
pub fn complete(n: usize) -> Topology {
    let mut edges = Vec::with_capacity(n * (n - 1) / 2);
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            edges.push((u, v));
        }
    }
    Topology::from_valid_edges(n, &edges)
}

/// An Erdős–Rényi graph `G(n, p)`: each pair linked independently with
/// probability `p`. No positions (not a geometric graph); used by
/// property tests to exercise non-geometric topologies.
///
/// # Panics
///
/// Panics if `p` is not within `[0, 1]`.
pub fn gnp<R: Rng>(n: usize, p: f64, rng: &mut R) -> Topology {
    assert!(
        (0.0..=1.0).contains(&p),
        "edge probability must be in [0, 1]"
    );
    let mut edges = Vec::new();
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            if rng.random_range(0.0..1.0) < p {
                edges.push((u, v));
            }
        }
    }
    Topology::from_valid_edges(n, &edges)
}

/// Labels of the ten nodes of the paper's Figure 1 example, indexed by
/// [`crate::NodeId`]. See [`fig1_example`].
pub const FIG1_LABELS: [char; 10] = ['a', 'b', 'c', 'd', 'e', 'j', 'g', 'h', 'i', 'f'];

/// The illustrative example of the paper's Figure 1 / Table 1.
///
/// The graph is reconstructed from Table 1's per-node neighbor and link
/// counts (the original figure is only available as a drawing). Letters
/// map to identifiers such that `j` has a smaller id than `f`, because
/// the paper stipulates "let's assume that node j has the smallest Id"
/// for the `d_j = d_f` tie-break. The mapping is given by
/// [`FIG1_LABELS`]: `a=0, b=1, c=2, d=3, e=4, j=5, g=6, h=7, i=8, f=9`.
///
/// Every row of Table 1 is reproduced by this reconstruction except
/// node `d` (the printed figure and table are mutually inconsistent for
/// that row — see EXPERIMENTS.md); the resulting clustering is exactly
/// the paper's: two clusters, headed by `h` and `j`.
///
/// # Examples
///
/// ```
/// use mwn_graph::builders::{fig1_example, FIG1_LABELS};
/// use mwn_graph::NodeId;
///
/// let topo = fig1_example();
/// let h = NodeId::new(7);
/// assert_eq!(FIG1_LABELS[h.index()], 'h');
/// assert_eq!(topo.degree(h), 2); // Table 1: node h has 2 neighbors
/// assert_eq!(topo.neighborhood_links(h), 3); // and 3 links
/// ```
pub fn fig1_example() -> Topology {
    // ids: a=0, b=1, c=2, d=3, e=4, j=5, g=6, h=7, i=8, f=9
    let (a, b, c, d, e, j, g, h, i, f) = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9);
    let edges = [
        (a, d),
        (a, i),
        (b, c),
        (b, d),
        (b, h),
        (b, i),
        (h, i),
        (d, e),
        (f, j),
        (f, g),
        (j, g),
        (g, i),
    ];
    let positions = vec![
        Point2::new(0.10, 0.55), // a
        Point2::new(0.30, 0.45), // b
        Point2::new(0.22, 0.20), // c
        Point2::new(0.18, 0.75), // d
        Point2::new(0.38, 0.90), // e
        Point2::new(0.80, 0.30), // j
        Point2::new(0.68, 0.52), // g
        Point2::new(0.45, 0.30), // h
        Point2::new(0.40, 0.62), // i
        Point2::new(0.90, 0.55), // f
    ];
    Topology::from_valid_edges(10, &edges).with_positions(positions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn poisson_count_matches_intensity() {
        let mut rng = StdRng::seed_from_u64(1);
        let runs = 200;
        let mean: f64 = (0..runs)
            .map(|_| poisson_count(50.0, &mut rng) as f64)
            .sum::<f64>()
            / runs as f64;
        assert!((mean - 50.0).abs() < 3.0, "mean {mean} too far from 50");
    }

    #[test]
    fn poisson_count_zero_intensity() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(poisson_count(0.0, &mut rng), 0);
    }

    #[test]
    fn grid_ids_increase_left_to_right_bottom_to_top() {
        let topo = grid(4, 3, 0.35);
        // node (x=2, y=1) has id 1*4 + 2 = 6
        let p = topo.position(NodeId::new(6)).unwrap();
        assert!((p.x - 2.0 / 3.0).abs() < 1e-12);
        assert!((p.y - 0.5).abs() < 1e-12);
    }

    #[test]
    fn grid_interior_has_eight_neighbors_at_r005() {
        // 32×32 grid: spacing 1/31 ≈ 0.0323; R = 0.05 covers the 8
        // surrounding points (diagonal ≈ 0.0456) but not distance-2.
        let topo = grid(32, 32, 0.05);
        let interior = NodeId::new((16 * 32 + 16) as u32);
        assert_eq!(topo.degree(interior), 8);
        let corner = NodeId::new(0);
        assert_eq!(topo.degree(corner), 3);
    }

    #[test]
    fn line_ring_star_complete_shapes() {
        assert_eq!(line(5).edge_count(), 4);
        assert_eq!(ring(5).edge_count(), 5);
        assert_eq!(star(5).edge_count(), 4);
        assert_eq!(star(5).degree(NodeId::new(0)), 4);
        assert_eq!(complete(5).edge_count(), 10);
        assert_eq!(complete(5).max_degree(), 4);
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(gnp(10, 0.0, &mut rng).edge_count(), 0);
        assert_eq!(gnp(10, 1.0, &mut rng).edge_count(), 45);
    }

    #[test]
    fn uniform_respects_count_and_square() {
        let mut rng = StdRng::seed_from_u64(4);
        let topo = uniform(100, 0.1, &mut rng);
        assert_eq!(topo.len(), 100);
        for p in topo.positions().unwrap() {
            assert!(p.in_unit_square());
        }
    }

    #[test]
    fn fig1_matches_table1_neighbor_and_link_counts() {
        let topo = fig1_example();
        let by_label =
            |c: char| NodeId::new(FIG1_LABELS.iter().position(|&l| l == c).unwrap() as u32);
        // Table 1 (all rows except the inconsistent node d):
        // node:       a  b  c  d  e  f  h  i  j
        // #neighbors: 2  4  1  4  1  2  2  4  2
        // #links:     2  5  1  5  1  3  3  5  3
        let expect = [
            ('a', 2, 2),
            ('b', 4, 5),
            ('c', 1, 1),
            ('e', 1, 1),
            ('f', 2, 3),
            ('h', 2, 3),
            ('i', 4, 5),
            ('j', 2, 3),
        ];
        for (label, deg, links) in expect {
            let p = by_label(label);
            assert_eq!(topo.degree(p), deg, "degree of {label}");
            assert_eq!(topo.neighborhood_links(p), links, "links of {label}");
        }
        // Our reading of the figure gives d three neighbors {a, b, e}.
        assert_eq!(topo.degree(by_label('d')), 3);
    }

    #[test]
    fn fig1_j_has_smaller_id_than_f() {
        let j = FIG1_LABELS.iter().position(|&l| l == 'j').unwrap();
        let f = FIG1_LABELS.iter().position(|&l| l == 'f').unwrap();
        assert!(j < f, "the paper assumes Id(j) < Id(f)");
    }
}
