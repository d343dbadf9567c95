//! The traffic plane: data flows over the stabilized overlay.
//!
//! The paper's clustering machinery exists to *carry traffic*; this
//! crate asks the production question the control-plane benches
//! cannot: **how much data does the network lose while
//! re-stabilizing?** It injects heavy-tailed flow workloads
//! ([`DemandModel`]: Zipf sink popularity × Pareto flow sizes),
//! forwards packets hop-by-hop over routes answered by the stabilized
//! structure (any [`mwn_cluster::RoutingView`] — hierarchical
//! cluster routes or the flat BFS baseline), and accounts for every
//! packet in a [`TrafficReport`]: throughput, latency percentiles,
//! hop counts, and a three-way drop taxonomy that separates
//! congestion from control-plane unavailability.
//!
//! Mechanically it is a batch engine in the workspace house style:
//! bounded per-node FIFO queues holding their packets by value,
//! per-node forwarding tables, and a forwarding pass that runs
//! read-only examination shards over [`mwn_sim::run_sharded`] into
//! reused arenas followed by a serial merge — so sharded and serial
//! execution are byte-identical, the same discipline the round
//! driver's active pass follows, and a steady-state step does not
//! allocate. It
//! interoperates with all three drivers via [`run_rounds`], which takes
//! any [`mwn_sim::Sim`]: one traffic step per logical step.
//!
//! # Example: loss under a scripted fault
//!
//! ```
//! use mwn_cluster::{extract_clustering, ClusterConfig, DensityCluster, HierarchicalRoutes};
//! use mwn_graph::builders;
//! use mwn_sim::{Scenario, StopWhen};
//! use mwn_traffic::{run_rounds, DemandModel, TrafficConfig, TrafficPlane};
//!
//! let topo = builders::grid(8, 8, 0.3);
//! let mut net = Scenario::new(DensityCluster::new(ClusterConfig::default()))
//!     .topology(topo.clone())
//!     .seed(1)
//!     .build()
//!     .unwrap();
//! net.run_to(&StopWhen::stable_for(5).within(500));
//!
//! let mut plane = TrafficPlane::new(topo.len(), TrafficConfig::default());
//! plane.add_flows(&DemandModel { flows: 8, ..DemandModel::default() }.generate(topo.len(), 2));
//! let report = run_rounds(&mut net, &mut plane, 2_000, |topo, states| {
//!     extract_clustering(states).and_then(|c| HierarchicalRoutes::try_new(topo, c))
//! });
//! assert_eq!(report.delivered, report.injected); // quiet network: 100%
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod demand;
mod plane;
mod report;
mod run;

pub use demand::{hottest_sink, DemandModel, FlowSpec};
pub use plane::{TrafficConfig, TrafficPlane};
pub use report::TrafficReport;
pub use run::run_rounds;
