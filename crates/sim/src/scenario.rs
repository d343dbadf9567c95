//! The fluent, typed scenario builder — the single front door for
//! every experiment, example and test in the workspace.
//!
//! A scenario owns the wiring of a run — the only way to build one:
//! protocol, medium, topology, seed, plus the optional
//! moving parts (a mobility model driving the topology, a scripted
//! fault plan). Building returns a `Result` with a typed
//! [`SimError`] instead of panicking.
//!
//! # Examples
//!
//! ```
//! use mwn_graph::{builders, NodeId};
//! use mwn_radio::BernoulliLoss;
//! use mwn_sim::{Observable, Protocol, Scenario, StopWhen};
//! use rand::rngs::StdRng;
//!
//! struct MaxFlood;
//! impl Protocol for MaxFlood {
//!     type State = u32;
//!     type Beacon = u32;
//!     fn init(&self, node: NodeId, _rng: &mut StdRng) -> u32 { node.value() }
//!     fn beacon(&self, _node: NodeId, state: &u32) -> u32 { *state }
//!     fn receive(&self, _n: NodeId, state: &mut u32, _f: NodeId, beacon: &u32, _now: u64) {
//!         *state = (*state).max(*beacon);
//!     }
//!     fn update(&self, _n: NodeId, _s: &mut u32, _now: u64, _rng: &mut StdRng) {}
//! }
//! impl Observable for MaxFlood {
//!     type Output = u32;
//!     fn output(&self, _node: NodeId, state: &u32) -> u32 { *state }
//! }
//!
//! let mut net = Scenario::new(MaxFlood)
//!     .medium(BernoulliLoss::new(0.5))
//!     .topology(builders::line(5))
//!     .seed(7)
//!     .build()
//!     .expect("valid scenario");
//! // The quiet window must cover the expected gap between successful
//! // deliveries at τ = 0.5, or stability is declared prematurely.
//! let report = net.run_to(&StopWhen::stable_for(20).within(2000));
//! assert!(report.is_stable());
//! assert!(net.states().iter().all(|&s| s == 4));
//! ```

use mwn_graph::{NodeId, Point2, Topology};
use mwn_radio::{Medium, PerfectMedium};

use crate::engine::{Corruptor, Env};
use crate::{
    ActorDriver, Corruptible, EventConfig, EventDriver, FaultPlan, Network, Protocol, Sim,
    SimError, WireBeacon,
};

/// A source of node moves applied before each step — the hook
/// mobility models plug into (see `mwn_mobility`'s
/// `MobileScenario::into_dynamics`).
pub trait TopologyDynamics {
    /// The position moves for the step about to execute; empty when
    /// nothing moves. The driver applies them to its unit-disk
    /// topology, the only graph of the run, through
    /// [`Topology::apply_moves`], so every cut link fires
    /// [`Protocol::link_down`] and only the nodes whose links changed
    /// wake.
    fn next_moves(&mut self, step: u64) -> &[(NodeId, Point2)];
}

type Validator = Box<dyn FnOnce(&Topology) -> Result<(), String>>;

/// Fluent builder for simulation runs; see the module docs.
///
/// The generic parameters are the protocol and the medium; the medium
/// defaults to [`PerfectMedium`] and is replaced by
/// [`Scenario::medium`].
pub struct Scenario<P: Protocol, M: Medium = PerfectMedium> {
    protocol: P,
    medium: M,
    topology: Option<Topology>,
    seed: u64,
    faults: Option<(FaultPlan, Corruptor<P>)>,
    dynamics: Option<Box<dyn TopologyDynamics + Send>>,
    validators: Vec<Validator>,
    shards: Option<usize>,
}

impl<P: Protocol> Scenario<P, PerfectMedium> {
    /// Starts a scenario for `protocol` over a perfect medium, seed 0
    /// and no topology (one must be supplied before building).
    pub fn new(protocol: P) -> Self {
        Scenario {
            protocol,
            medium: PerfectMedium,
            topology: None,
            seed: 0,
            faults: None,
            dynamics: None,
            validators: Vec::new(),
            shards: None,
        }
    }
}

impl<P: Protocol, M: Medium> Scenario<P, M> {
    /// Replaces the medium (default: [`PerfectMedium`]).
    pub fn medium<M2: Medium>(self, medium: M2) -> Scenario<P, M2> {
        Scenario {
            protocol: self.protocol,
            medium,
            topology: self.topology,
            seed: self.seed,
            faults: self.faults,
            dynamics: self.dynamics,
            validators: self.validators,
            shards: self.shards,
        }
    }

    /// Sets the topology the nodes are deployed on. Required.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Sets the master seed every random stream derives from
    /// (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Scripts a reproducible fault plan: each fault fires right
    /// before its step executes, inside the driver — composable with
    /// mobility and any stop condition.
    pub fn faults(mut self, plan: FaultPlan) -> Self
    where
        P: Corruptible,
    {
        self.faults = Some((plan, Env::corruptor()));
        self
    }

    /// Forces the round driver's sharded active pass to exactly `k`
    /// shards (`k = 1` forces the serial path), overriding the
    /// automatic policy and the `MWN_FORCE_SHARDS` environment
    /// variable. Sharded and serial execution are byte-identical, so
    /// this is a performance knob, not a semantics knob. Ignored by
    /// [`Scenario::build_events`] and [`Scenario::build_actors`].
    pub fn shards(mut self, k: usize) -> Self {
        self.shards = Some(k);
        self
    }

    /// Attaches topology dynamics — typically a mobility model — that
    /// move the nodes before every step.
    pub fn mobility<D: TopologyDynamics + Send + 'static>(mut self, dynamics: D) -> Self {
        self.dynamics = Some(Box::new(dynamics));
        self
    }

    /// Registers a configuration check run against the topology at
    /// build time (e.g. `ClusterConfig::validate_for`); a failing
    /// check turns into [`SimError::InvalidConfig`].
    pub fn validate<F>(mut self, check: F) -> Self
    where
        F: FnOnce(&Topology) -> Result<(), String> + 'static,
    {
        self.validators.push(Box::new(check));
        self
    }

    /// The preamble all three builders share: the topology is present
    /// and passes every registered check and the fault plan; `make`
    /// constructs the driver; the script and the dynamics are installed
    /// into its environment.
    fn assemble<C>(
        self,
        make: impl FnOnce(P, M, Topology, u64) -> Result<Sim<P, C>, SimError>,
    ) -> Result<Sim<P, C>, SimError> {
        let topology = self.topology.ok_or(SimError::MissingTopology)?;
        for check in self.validators {
            check(&topology).map_err(SimError::InvalidConfig)?;
        }
        if let Some((plan, _)) = &self.faults {
            plan.validate_for(&topology)?;
        }
        let (script, hook) = self
            .faults
            .map(|(plan, hook)| (plan.into_events(), hook))
            .unzip();
        let mut driver = make(self.protocol, self.medium, topology, self.seed)?;
        driver
            .env
            .install(script.unwrap_or_default(), hook, self.dynamics);
        Ok(driver)
    }

    /// Builds the synchronous round driver.
    ///
    /// # Errors
    ///
    /// [`SimError::MissingTopology`] when no topology was supplied;
    /// [`SimError::InvalidConfig`] when a [`Scenario::validate`] check
    /// fails.
    pub fn build(self) -> Result<Network<P, M>, SimError> {
        let shards = self.shards;
        let mut net = self.assemble(|p, m, t, seed| Ok(Network::new(p, m, t, seed)))?;
        if shards.is_some() {
            net.set_shards(shards);
        }
        Ok(net)
    }

    /// Builds the continuous-time event driver instead of the round
    /// driver.
    ///
    /// The scenario's medium decides each frame copy's fate from a
    /// derived per-(slot, sender) stream, by its
    /// [`mwn_radio::MediumKind`]: lossless and independent media
    /// (perfect, Bernoulli, fading) through [`Medium::fates`],
    /// contention media (the shipped CSMA variants) with the in-range
    /// population folded in statistically. Every kind permits activity
    /// gating for [`crate::Activity::Gated`] protocols, whose silent
    /// nodes then stop scheduling beacon events altogether.
    ///
    /// Scripted [`FaultPlan`]s carry over: a fault scheduled at step
    /// `k` fires once the clock reaches `k` beacon periods. Mobility
    /// dynamics tick once per beacon period at logical-step
    /// boundaries, with [`crate::Protocol::link_down`] fired for every
    /// severed link.
    ///
    /// # Errors
    ///
    /// [`SimError::MissingTopology`]; [`SimError::InvalidConfig`] when
    /// validation fails or an event parameter is out of range.
    pub fn build_events(self, config: EventConfig) -> Result<EventDriver<P, M>, SimError> {
        self.assemble(|p, m, t, seed| EventDriver::new(p, m, t, config, seed))
    }

    /// Builds the **actor driver**: every node a real message-passing
    /// process over `threads` worker threads, exchanging serialized
    /// beacon frames ([`WireBeacon`]) under the virtual-time token
    /// governor — the third driver the same scenario can run on.
    ///
    /// The medium must be lossless or independent, not a
    /// [`mwn_radio::MediumKind::Contention`] medium: the actor fabric's
    /// workers ask [`Medium::fates`] on the round driver's
    /// per-(period, sender) streams, so a given seed drops the same
    /// frame copies on both drivers.
    /// Scripted [`FaultPlan`]s fire at period boundaries *before* that
    /// period's beacon slots are released (fault ≤ send); mobility
    /// dynamics tick once per period at the same boundary. The
    /// [`Scenario::shards`] knob is ignored — `threads` is the actor
    /// fabric's own parallelism control.
    ///
    /// # Errors
    ///
    /// [`SimError::MissingTopology`]; [`SimError::InvalidConfig`] when
    /// a [`Scenario::validate`] check fails or the medium is a
    /// contention medium — the message names it.
    pub fn build_actors(self, threads: usize) -> Result<ActorDriver<P, M>, SimError>
    where
        P::Beacon: WireBeacon,
        M: Sync,
    {
        self.assemble(|p, m, t, seed| ActorDriver::new(p, m, t, seed, threads))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::MaxFlood;
    use crate::{Fault, StopWhen};
    use mwn_graph::{builders, NodeId};
    use mwn_radio::BernoulliLoss;

    #[test]
    fn missing_topology_is_a_typed_error() {
        assert_eq!(
            Scenario::new(MaxFlood).build().unwrap_err(),
            SimError::MissingTopology
        );
    }

    #[test]
    fn validation_failure_is_reported() {
        let err = Scenario::new(MaxFlood)
            .topology(builders::line(3))
            .validate(|_| Err("γ too small".to_string()))
            .build()
            .unwrap_err();
        assert_eq!(err, SimError::InvalidConfig("γ too small".to_string()));
    }

    #[test]
    fn builder_defaults_run_end_to_end() {
        let mut net = Scenario::new(MaxFlood)
            .topology(builders::line(4))
            .build()
            .expect("builds");
        let report = net.run_to(&StopWhen::stable_for(2).within(50));
        assert_eq!(report.expect_stable("stabilizes"), 3);
    }

    #[test]
    fn medium_and_seed_thread_through() {
        let run = |seed| {
            let mut net = Scenario::new(MaxFlood)
                .medium(BernoulliLoss::new(0.5))
                .topology(builders::ring(10))
                .seed(seed)
                .build()
                .expect("builds");
            net.run(6);
            net.states().to_vec()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn scripted_faults_fire_inside_the_driver() {
        let mut plan = FaultPlan::new();
        plan.at(10, Fault::CorruptAll);
        let mut net = Scenario::new(MaxFlood)
            .topology(builders::line(5))
            .faults(plan)
            .build()
            .expect("builds");
        // run_to sees the corruption and keeps going until re-stable.
        // The quiet window (8) outlasts the pre-fault stable stretch
        // (steps 4–10), so stability can only be declared after the
        // fault has fired and healed.
        let report = net.run_to(&StopWhen::stable_for(8).within(100));
        assert!(
            report.expect_stable("heals") >= 10,
            "corruption restarted the clock"
        );
        assert!(net.states().iter().all(|&s| s == 4));
    }

    #[test]
    fn scripted_topology_faults_apply() {
        let mut plan = FaultPlan::new();
        plan.at(0, Fault::Isolate(NodeId::new(2)));
        let mut net = Scenario::new(MaxFlood)
            .topology(builders::line(5))
            .faults(plan)
            .build()
            .expect("builds");
        net.run(20);
        assert_eq!(*net.state(NodeId::new(0)), 1, "max id cannot cross the cut");
    }

    #[test]
    fn event_driver_builds_from_the_same_scenario() {
        let mut driver = Scenario::new(MaxFlood)
            .topology(builders::line(5))
            .seed(2)
            .build_events(EventConfig::default())
            .expect("builds");
        driver.run_until_time(40.0);
        assert!(driver.states().iter().all(|&s| s == 4));
    }

    #[test]
    fn event_driver_rejects_bad_config_without_panicking() {
        let result = Scenario::new(MaxFlood)
            .topology(builders::line(2))
            .build_events(EventConfig {
                frame_time: 0.0,
                ..EventConfig::default()
            });
        assert!(matches!(result, Err(SimError::InvalidConfig(_))));
    }
}
