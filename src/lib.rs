//! **selfstab** — self-stabilizing density-driven clustering for
//! multihop wireless networks.
//!
//! A complete, tested reproduction of
//!
//! > N. Mitton, E. Fleury, I. Guérin Lassous, S. Tixeuil.
//! > *Self-stabilization in self-organized multihop wireless networks.*
//! > ICDCS 2005 / INRIA RR-5426.
//!
//! This facade re-exports the workspace crates under stable module
//! names:
//!
//! * [`graph`] — topologies, deployments, neighborhoods;
//! * [`radio`] — wireless media (perfect / Bernoulli-τ / slotted CSMA);
//! * [`sim`] — the `Scenario` builder, guarded-command drivers
//!   (synchronous steps, events, message-passing actors), `StopWhen`
//!   stop conditions and the parallel `Sweep` runner;
//! * [`mobility`] — random-waypoint / random-direction movement;
//! * [`cluster`] — the paper's protocol, DAG renaming, oracle, metrics;
//! * [`baselines`] — lowest-id, highest-degree, max-min d-cluster;
//! * [`metrics`] — statistics and experiment tables;
//! * [`traffic`] — the data plane: flow workloads forwarded over the
//!   stabilized overlay, with loss accounting under churn;
//! * [`chaos`] — randomized adversary campaigns and the stabilization
//!   certifier (closure, convergence, gated-liveness audit);
//! * [`viz`] — SVG / ASCII rendering of clusterings.
//!
//! # Quickstart
//!
//! ```
//! use selfstab::prelude::*;
//! use rand::SeedableRng;
//!
//! // Deploy a 1000-intensity Poisson field with 100 m radio range
//! // (the paper's Section 5 setting) …
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let topo = builders::poisson(1000.0, 0.1, &mut rng);
//!
//! // … describe the run as a scenario over a perfect medium …
//! let mut net = Scenario::new(DensityCluster::new(ClusterConfig::default()))
//!     .topology(topo)
//!     .seed(1)
//!     .build()
//!     .expect("valid scenario");
//!
//! // … run until the election output is stable …
//! let report = net.run_to(&StopWhen::stable_for(3).within(500));
//! assert!(report.is_stable(), "the protocol stabilizes (Lemma 2)");
//!
//! // … and read off the clusters.
//! let clustering = extract_clustering(net.states()).expect("stable");
//! assert!(clustering.head_count() > 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mwn_baselines as baselines;
pub use mwn_chaos as chaos;
pub use mwn_cluster as cluster;
pub use mwn_graph as graph;
pub use mwn_metrics as metrics;
pub use mwn_mobility as mobility;
pub use mwn_radio as radio;
pub use mwn_sim as sim;
pub use mwn_traffic as traffic;
pub use mwn_viz as viz;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use mwn_chaos::{
        certify, liveness_audit, CampaignSpec, Certificate, CertifyConfig, ChaosHarness, FaultKind,
    };
    pub use mwn_cluster::{
        build_hierarchy, check_legitimate, density_of, energy_aware_clustering, extract_clustering,
        extract_dag_ids, oracle, simulate_rotation, ClusterConfig, ClusterState, ClusterView,
        Clustering, ClusteringStats, DagConfig, DagProtocol, DagVariant, Density, DensityCluster,
        EnergyModel, FlatRoutes, FreshnessPolicy, HeadRule, HierarchicalRoutes, Hierarchy,
        MetricKind, NameSpace, OracleConfig, OrderKind, RoutingView,
    };
    pub use mwn_graph::{builders, NodeId, Point2, Topology};
    pub use mwn_metrics::{wilson_overlap, RunningStats, Table};
    pub use mwn_mobility::{
        meters_per_second, MobileScenario, MobilityDynamics, RandomDirection, RandomWaypoint,
    };
    pub use mwn_radio::{
        measure_tau, BernoulliLoss, CaptureCsma, ContentionStreams, DistanceFading, FullOccupancy,
        Medium, MediumKind, Occupancy, OccupancyView, PerfectMedium, SlottedCsma,
    };
    pub use mwn_sim::{
        ActorDriver, Clock, Corruptible, EventConfig, EventDriver, Fault, FaultPlan, Lie, Network,
        Observable, Protocol, Region, RunReport, Scenario, Sim, SimError, StopWhen, Sweep,
        TopologyDynamics, WireBeacon,
    };
    pub use mwn_traffic::{
        run_rounds, DemandModel, FlowSpec, TrafficConfig, TrafficPlane, TrafficReport,
    };
    pub use mwn_viz::{ascii_grid_clustering, svg_clustering, write_svg_clustering};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_reexports() {
        use crate::prelude::*;
        let topo = builders::line(3);
        let c = oracle(&topo, &OracleConfig::default());
        assert!(c.head_count() >= 1);
    }
}
