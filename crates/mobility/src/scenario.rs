use mwn_graph::{NodeId, Point2, Topology, TopologyDelta};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::MobilityModel;

/// A mobile network: a unit-disk topology whose nodes move under a
/// [`MobilityModel`], with links rebuilt after every advance.
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
    model: M,
    rng: StdRng,
    elapsed: f64,
    /// Scratch position buffer the model advances.
    scratch: Vec<Point2>,
    /// The most recent tick's move list (nodes that actually moved).
    moves: Vec<(NodeId, Point2)>,
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
            model,
            rng: StdRng::seed_from_u64(seed),
            elapsed: 0.0,
            scratch: Vec::new(),
            moves: Vec::new(),
        }
    }

    /// Moves all nodes forward `dt` seconds and incrementally updates
    /// the links ([`Topology::apply_moves`]): only nodes that actually
    /// moved are re-binned, and the returned delta names exactly the
    /// links that changed — what an activity-driven driver needs to
    /// wake the right nodes.
    pub fn advance(&mut self, dt: f64) -> TopologyDelta {
        // The model advances a scratch copy, so the topology's spatial
        // hash is updated through the move list instead of being
        // invalidated by in-place mutation.
        self.scratch.clear();
        self.scratch.extend_from_slice(
            self.topo
                .positions()
                .expect("constructor checked positions"),
        );
        self.model.step(&mut self.scratch, dt, &mut self.rng);
        self.moves.clear();
        let positions = self
            .topo
            .positions()
            .expect("constructor checked positions");
        for (i, (&old, &new)) in positions.iter().zip(&self.scratch).enumerate() {
            if old != new {
                self.moves.push((NodeId::new(i as u32), new));
            }
        }
        self.elapsed += dt;
        self.topo.apply_moves(&self.moves)
    }

    /// The move list of the most recent [`MobileScenario::advance`]
    /// tick (already applied to this scenario's topology).
    pub fn last_moves(&self) -> &[(NodeId, Point2)] {
        &self.moves
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
        &self.model
    }

    /// Turns the scenario into a per-step source of moves for the
    /// simulators: each protocol step advances the nodes by
    /// `seconds_per_step` and hands the driver that tick's move list,
    /// which it applies to its own topology copy — the links a tick
    /// cuts fire `link_down`, and only their endpoints wake. Plug the
    /// result into `mwn_sim::Scenario::mobility` to run a protocol over
    /// a moving network — under the round driver or the actor fabric
    /// (one tick per step) or the continuous-time event driver (one
    /// tick per beacon period, at logical-step boundaries).
    pub fn into_dynamics(self, seconds_per_step: f64) -> MobilityDynamics<M> {
        assert!(seconds_per_step > 0.0, "seconds per step must be positive");
        MobilityDynamics {
            scenario: self,
            seconds_per_step,
        }
    }
}

/// Adapter driving a [`MobileScenario`] from the round simulator's
/// step clock; see [`MobileScenario::into_dynamics`].
#[derive(Debug)]
pub struct MobilityDynamics<M> {
    scenario: MobileScenario<M>,
    seconds_per_step: f64,
}

impl<M: MobilityModel> mwn_sim::TopologyDynamics for MobilityDynamics<M> {
    fn next_moves(&mut self, _step: u64) -> &[(NodeId, Point2)] {
        // Advance our own topology copy with the same move list the
        // driver will apply to its copy: both evolve identically, and
        // the driver wakes only the nodes the tick touched.
        self.scenario.advance(self.seconds_per_step);
        self.scenario.last_moves()
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
