use mwn_graph::{NodeId, Point2, Topology, TopologyDelta};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::MobilityModel;

/// A mobile network: a unit-disk topology whose nodes move under a
/// [`MobilityModel`], with links updated after every advance.
///
/// # Examples
///
/// ```
/// use mwn_graph::builders;
/// use mwn_mobility::{MobileScenario, RandomDirection};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let topo = builders::uniform(50, 0.1, &mut rng);
/// let model = RandomDirection::new(50, 0.0..=0.01, 10.0);
/// let mut scenario = MobileScenario::new(topo, model, 2);
/// let edges_before = scenario.topology().edge_count();
/// for _ in 0..60 {
///     scenario.advance(1.0);
/// }
/// // The topology is still a valid unit-disk graph of the same nodes.
/// assert_eq!(scenario.topology().len(), 50);
/// let _ = edges_before;
/// ```
#[derive(Debug)]
pub struct MobileScenario<M> {
    topo: Topology,
    mover: Mover<M>,
    elapsed: f64,
}

impl<M: MobilityModel> MobileScenario<M> {
    /// Wraps a unit-disk topology and a model.
    ///
    /// # Panics
    ///
    /// Panics if `topo` carries no positions or no radius (it must be
    /// built by [`Topology::unit_disk`]).
    pub fn new(topo: Topology, model: M, seed: u64) -> Self {
        assert!(
            topo.positions().is_some() && topo.radius().is_some(),
            "mobility requires a unit-disk topology with positions"
        );
        MobileScenario {
            topo,
            mover: Mover {
                model,
                rng: StdRng::seed_from_u64(seed),
                scratch: Vec::new(),
                moves: Vec::new(),
            },
            elapsed: 0.0,
        }
    }

    /// Moves all nodes forward `dt` seconds and incrementally updates
    /// the links ([`Topology::apply_moves`]): only nodes that actually
    /// moved are re-binned, and the returned delta names exactly the
    /// links that changed — what an activity-driven driver needs to
    /// wake the right nodes.
    pub fn advance(&mut self, dt: f64) -> TopologyDelta {
        let positions = self
            .topo
            .positions()
            .expect("constructor checked positions");
        let moves = self.mover.tick(positions, dt);
        self.elapsed += dt;
        self.topo.apply_moves(moves)
    }

    /// The current topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Seconds simulated so far.
    pub fn elapsed(&self) -> f64 {
        self.elapsed
    }

    /// The mobility model.
    pub fn model(&self) -> &M {
        &self.mover.model
    }

    /// Turns the scenario into a per-step source of moves for the
    /// simulators: each protocol step advances the nodes by
    /// `seconds_per_step` and hands the driver that tick's move list,
    /// the one [`MobileScenario::advance`] computes. The dynamics keeps
    /// the positions only; the driver applies the moves to its own
    /// topology, the only graph of the run — the links a tick cuts fire
    /// `link_down`, and only their endpoints wake. Plug the result into
    /// `mwn_sim::Scenario::mobility` to run a protocol over a moving
    /// network — under the round driver or the actor fabric (one tick
    /// per step) or the continuous-time event driver (one tick per
    /// beacon period, at logical-step boundaries).
    pub fn into_dynamics(self, seconds_per_step: f64) -> MobilityDynamics<M> {
        assert!(seconds_per_step > 0.0, "seconds per step must be positive");
        let positions = self
            .topo
            .positions()
            .expect("constructor checked positions");
        MobilityDynamics {
            positions: positions.to_vec(),
            mover: self.mover,
            seconds_per_step,
        }
    }
}

/// What moves the nodes: the model, its random stream and a tick's
/// buffers. A [`MobileScenario`] and its [`MobilityDynamics`] compute a
/// tick's move list through it alike.
#[derive(Debug)]
struct Mover<M> {
    model: M,
    rng: StdRng,
    /// The positions the model advances.
    scratch: Vec<Point2>,
    /// The last tick's moves: the nodes whose position changed, and
    /// where to.
    moves: Vec<(NodeId, Point2)>,
}

impl<M: MobilityModel> Mover<M> {
    /// Advances a copy of `positions` by `dt` seconds and returns the
    /// nodes whose position changed, with their new positions, in id
    /// order.
    fn tick(&mut self, positions: &[Point2], dt: f64) -> &[(NodeId, Point2)] {
        self.scratch.clear();
        self.scratch.extend_from_slice(positions);
        self.model.step(&mut self.scratch, dt, &mut self.rng);
        self.moves.clear();
        for (i, (&old, &new)) in positions.iter().zip(&self.scratch).enumerate() {
            if old != new {
                self.moves.push((NodeId::new(i as u32), new));
            }
        }
        &self.moves
    }
}

/// Adapter driving a [`MobileScenario`]'s moves from a simulator's
/// step clock; see [`MobileScenario::into_dynamics`].
#[derive(Debug)]
pub struct MobilityDynamics<M> {
    /// Where every node is: the positions of the driver's topology.
    positions: Vec<Point2>,
    mover: Mover<M>,
    seconds_per_step: f64,
}

impl<M: MobilityModel> mwn_sim::TopologyDynamics for MobilityDynamics<M> {
    fn next_moves(&mut self, _step: u64) -> &[(NodeId, Point2)] {
        let moves = self.mover.tick(&self.positions, self.seconds_per_step);
        for &(p, to) in moves {
            self.positions[p.index()] = to;
        }
        moves
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{meters_per_second, RandomWaypoint};
    use mwn_graph::builders;

    #[test]
    fn advancing_changes_edges_eventually() {
        let mut rng = StdRng::seed_from_u64(4);
        let topo = builders::uniform(80, 0.1, &mut rng);
        let before = topo.clone();
        let model = RandomWaypoint::new(80, 0.0..=meters_per_second(10.0), 0.0);
        let mut scenario = MobileScenario::new(topo, model, 4);
        for _ in 0..120 {
            scenario.advance(2.0);
        }
        assert_ne!(
            before.edges().collect::<Vec<_>>(),
            scenario.topology().edges().collect::<Vec<_>>(),
            "4 minutes at vehicular speed must change some links"
        );
        assert!((scenario.elapsed() - 240.0).abs() < 1e-9);
    }

    #[test]
    fn static_model_preserves_topology() {
        let mut rng = StdRng::seed_from_u64(5);
        let topo = builders::uniform(40, 0.1, &mut rng);
        let before = topo.clone();
        let model = RandomWaypoint::new(40, 0.0..=0.0, 0.0);
        let mut scenario = MobileScenario::new(topo, model, 5);
        scenario.advance(100.0);
        assert_eq!(before, *scenario.topology());
    }

    #[test]
    #[should_panic(expected = "unit-disk topology")]
    fn edge_list_topology_rejected() {
        let topo = Topology::from_edges(3, &[(0, 1)]).unwrap();
        let model = RandomWaypoint::new(3, 0.0..=0.0, 0.0);
        let _ = MobileScenario::new(topo, model, 0);
    }
}
