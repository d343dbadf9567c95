use mwn_graph::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::Rng;

use crate::{Medium, MediumKind};

/// A distance-dependent lossy medium: frame copies to nearby neighbors
/// almost always arrive, copies near the edge of the radio range fade.
///
/// The per-copy success probability over a link of length `d` in a
/// unit-disk topology of range `R` is
///
/// `p(d) = max(floor, 1 − (d/R)^alpha)`
///
/// so `alpha` controls how sharply the edge of coverage degrades and
/// `floor > 0` preserves the paper's hypothesis (every frame succeeds
/// with probability at least τ = `floor`).
///
/// # Examples
///
/// ```
/// use mwn_radio::DistanceFading;
///
/// let m = DistanceFading::new(2.0, 0.2);
/// assert!(m.success_probability(0.0) > 0.99);
/// assert_eq!(m.success_probability(1.0), 0.2); // at the range edge
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DistanceFading {
    alpha: f64,
    floor: f64,
}

impl DistanceFading {
    /// Creates the medium with path-loss exponent `alpha` and minimum
    /// success probability `floor` (the τ of the paper's hypothesis).
    ///
    /// # Panics
    ///
    /// Panics unless `alpha > 0` and `0 < floor <= 1`.
    pub fn new(alpha: f64, floor: f64) -> Self {
        assert!(alpha > 0.0, "path-loss exponent must be positive");
        assert!(
            floor > 0.0 && floor <= 1.0,
            "the success floor must be in (0, 1] to satisfy τ > 0"
        );
        DistanceFading { alpha, floor }
    }

    /// The success probability at normalized distance `d_over_r`
    /// (link length divided by the radio range).
    pub fn success_probability(&self, d_over_r: f64) -> f64 {
        (1.0 - d_over_r.clamp(0.0, 1.0).powf(self.alpha)).max(self.floor)
    }
}

impl Medium for DistanceFading {
    fn kind(&self) -> MediumKind {
        MediumKind::Independent
    }

    /// # Panics
    ///
    /// Panics if the topology carries no positions or radius (fading
    /// needs link lengths; build the topology with
    /// [`Topology::unit_disk`]), and so does every round through it.
    fn fates(
        &self,
        topo: &Topology,
        sender: NodeId,
        rng: &mut StdRng,
        heard: &mut Vec<NodeId>,
    ) -> usize {
        let positions = topo
            .positions()
            .expect("distance fading requires node positions");
        let radius = topo
            .radius()
            .expect("distance fading requires a radio range");
        for &r in topo.neighbors(sender) {
            let d = positions[sender.index()].distance(positions[r.index()]);
            if rng.random_bool(self.success_probability(d / radius)) {
                heard.push(r);
            }
        }
        topo.degree(sender)
    }

    fn name(&self) -> &'static str {
        "distance-fading"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure_tau;
    use mwn_graph::{builders, Point2};
    use rand::SeedableRng;

    #[test]
    fn close_links_beat_far_links() {
        // Three collinear nodes: 1 is close to 0, 2 is at the edge.
        let positions = vec![
            Point2::new(0.0, 0.5),
            Point2::new(0.01, 0.5),
            Point2::new(0.099, 0.5),
        ];
        let topo = Topology::unit_disk(positions, 0.1).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut medium = DistanceFading::new(2.0, 0.05);
        let mut near = 0;
        let mut far = 0;
        for _ in 0..500 {
            let d = medium.deliver(&topo, &[NodeId::new(0)], &mut rng);
            if d.heard[1].contains(&NodeId::new(0)) {
                near += 1;
            }
            if d.heard[2].contains(&NodeId::new(0)) {
                far += 1;
            }
        }
        assert!(near > 450, "near link should almost always work: {near}");
        assert!(far < near, "edge link must fade: far={far} near={near}");
        assert!(far > 0, "the τ floor keeps the edge link alive");
    }

    #[test]
    fn measured_tau_respects_the_floor() {
        let mut rng = StdRng::seed_from_u64(2);
        let topo = builders::uniform(80, 0.12, &mut rng);
        let tau = measure_tau(&mut DistanceFading::new(2.0, 0.3), &topo, 60, &mut rng);
        assert!(tau >= 0.3, "τ = {tau} below the configured floor");
        assert!(tau < 1.0, "some fading must occur");
    }

    #[test]
    fn probability_curve_shape() {
        let m = DistanceFading::new(2.0, 0.1);
        assert!(m.success_probability(0.2) > m.success_probability(0.8));
        assert_eq!(m.success_probability(2.0), 0.1); // clamped past range
    }

    #[test]
    #[should_panic(expected = "requires node positions")]
    fn positionless_topology_panics() {
        let topo = Topology::from_edges(2, &[(0, 1)]).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let _ = DistanceFading::new(2.0, 0.5).deliver(&topo, &[NodeId::new(0)], &mut rng);
    }

    #[test]
    #[should_panic(expected = "τ > 0")]
    fn zero_floor_rejected() {
        let _ = DistanceFading::new(2.0, 0.0);
    }

    use mwn_graph::Topology;
}
