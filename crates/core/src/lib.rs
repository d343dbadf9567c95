//! Self-stabilizing density-driven clustering for multihop wireless
//! networks — a faithful implementation of
//!
//! > N. Mitton, E. Fleury, I. Guérin Lassous, S. Tixeuil.
//! > *Self-stabilization in self-organized multihop wireless networks.*
//! > ICDCS 2005 / INRIA Research Report RR-5426.
//!
//! Large flat ad-hoc networks do not scale; the paper organizes them
//! into clusters by having each node compute a **density** value
//! (Definition 1 — the ratio of links to nodes in its 1-neighborhood),
//! join its strongest neighbor under a total order `≺`, and elect the
//! `≺`-maximal nodes as cluster-heads. The paper's contributions, all
//! implemented here:
//!
//! * a proof (reproduced as executable property tests) that the
//!   election is **self-stabilizing** under a lossy, collision-prone
//!   radio model in expected constant time ([`DensityCluster`],
//!   [`check_legitimate`]);
//! * a **constant-height DAG renaming** (algorithm N1) bounding
//!   stabilization time regardless of identifier distribution
//!   ([`DagProtocol`], [`NameSpace`], [`new_id`]);
//! * two **stability refinements**: incumbency tie-breaks
//!   ([`OrderKind::Stable`]) and 2-hop head fusion
//!   ([`HeadRule::Fusion`]).
//!
//! The [`oracle()`] computes the unique stable clustering centrally so
//! distributed runs can be verified against it, and [`ClusteringStats`]
//! provides the evaluation metrics of the paper's Tables 4–5.
//!
//! # Examples
//!
//! End to end: deploy, cluster, verify, measure — through the
//! `mwn_sim::Scenario` builder, which every experiment in the
//! workspace goes through.
//!
//! ```
//! use mwn_cluster::{
//!     extract_clustering, oracle, ClusterConfig, ClusteringStats, DensityCluster,
//!     OracleConfig,
//! };
//! use mwn_graph::builders;
//! use mwn_sim::{Scenario, StopWhen};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let topo = builders::uniform(120, 0.15, &mut rng);
//! let mut net = Scenario::new(DensityCluster::new(ClusterConfig::default()))
//!     .topology(topo)
//!     .seed(7)
//!     .build()
//!     .expect("valid scenario");
//! net.run_to(&StopWhen::stable_for(3).within(500)).expect_stable("stabilizes");
//! let clustering = extract_clustering(net.states()).expect("clean output");
//! assert_eq!(clustering, oracle(net.topology(), &OracleConfig::default()));
//! let stats = ClusteringStats::of(net.topology(), &clustering).unwrap();
//! assert!(stats.clusters >= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod clustering;
mod dag;
mod density;
mod energy;
mod gateways;
mod hierarchy;
mod metric;
mod metrics;
mod oracle;
mod order;
mod protocol;
mod routing;
mod stabilization;

pub use cache::{NeighborCache, NeighborSlot};
pub use clustering::Clustering;
pub use dag::{
    is_locally_unique, name_dag_height, new_id, order_dag_height, DagProtocol, DagState,
    DagVariant, NameSpace,
};
pub use density::{density_of, Density};
pub use energy::{
    charge_round, energy_aware_clustering, simulate_rotation, EnergyModel, RotationOutcome,
};
pub use gateways::{gateway_report, GatewayReport};
pub use hierarchy::{build_hierarchy, head_overlay, Hierarchy, HierarchyLevel};
pub use metric::MetricKind;
pub use metrics::{head_persistence_series, ClusteringStats};
pub use oracle::{keys_of, locally_maximal, oracle, oracle_with_keys, HeadRule, OracleConfig};
pub use order::{max_key, Key, OrderKind};
pub use protocol::{
    extract_clustering, extract_dag_ids, ClusterBeacon, ClusterConfig, ClusterState, ClusterView,
    DagConfig, DensityCluster, FreshnessPolicy, NeighborEntry, PeerSummary,
};
pub use routing::{
    mean_stretch, mean_stretch_over, FlatRoutes, HierarchicalRoutes, PassScratch, RoutePass,
    RouteScratch, RoutingView,
};
pub use stabilization::{check_legitimate, measure_info_schedule, Illegitimacy, InfoSchedule};
