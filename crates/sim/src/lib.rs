//! Execution substrate for self-stabilizing wireless protocols.
//!
//! The paper describes its algorithms as **guarded assignments** over
//! **shared variables** (Section 4): each node infinitely re-evaluates
//! guards `G → S`; shared variables are propagated to neighbors by
//! periodic local broadcast with randomized timing (the discipline of
//! Herman & Tixeuil \[11\]); neighbors keep *cached copies* of each
//! other's shared variables.
//!
//! This crate turns that model into a layered, scenario-driven
//! simulator:
//!
//! * [`Scenario`] — the fluent builder every experiment goes through:
//!   protocol, medium, topology, seed, scripted [`FaultPlan`]s and
//!   mobility dynamics, with typed [`SimError`]s instead of panics.
//! * [`Network`] — the synchronous **round driver**. One round is the
//!   paper's Δ(τ) "step" (Section 5). Step counts measured here are
//!   directly comparable to the paper's Tables 2, 3 and 5.
//! * [`EventDriver`] — the **continuous-time driver**: randomized
//!   beacons, frames with duration, medium-decided frame fates — the
//!   execution model of the paper's "expected constant time" claims.
//! * [`ActorDriver`] — the **actor driver**: every node a real
//!   message-passing process multiplexed over a worker-thread pool,
//!   exchanging serialized beacon frames ([`WireBeacon`]) under a
//!   virtual-time token governor — genuine concurrency validating that
//!   the simulated drivers' claims survive real interleaving.
//! * [`Driver`] — the one trait over all three, for consumers that are
//!   generic over the execution model.
//!
//! All three run on one shared activity core (the private `engine`
//! module): columnar per-node state, dirty-set scheduling, beacon
//! epochs, per-(tick, node) derived randomness and a common worker
//! pool — so silent stabilized regions cost (near) zero work under
//! either clock, gated execution is byte-identical to eager execution,
//! and the round driver's per-step active pass can be sharded across
//! threads without changing a single byte of output.
//! * [`StopWhen`] / [`RunReport`] — first-class stop conditions
//!   (stability streaks, step budgets, predicates, combinators) and
//!   structured run outcomes, replacing per-call-site projection
//!   closures and magic numbers. Protocols expose their canonical
//!   projection through [`Observable`].
//! * [`Sweep`] — the parallel seed/parameter fan-out behind every
//!   1000-run experiment average, with deterministic, schedule-independent
//!   results.
//!
//! Self-stabilization is exercised through [`Corruptible`]: a protocol
//! that can have its state arbitrarily corrupted, after which the
//! drivers verify re-convergence (convergence) and that legitimate
//! configurations persist (closure).
//!
//! # Examples
//!
//! A tiny flooding protocol that stabilizes to the maximum node id:
//!
//! ```
//! use mwn_graph::{builders, NodeId};
//! use mwn_sim::{Observable, Protocol, Scenario, StopWhen};
//! use rand::rngs::StdRng;
//!
//! struct MaxFlood;
//! impl Protocol for MaxFlood {
//!     type State = u32;
//!     type Beacon = u32;
//!     fn init(&self, node: NodeId, _rng: &mut StdRng) -> u32 { node.value() }
//!     fn beacon(&self, _node: NodeId, state: &u32) -> u32 { *state }
//!     fn receive(&self, _node: NodeId, state: &mut u32, _from: NodeId, beacon: &u32, _now: u64) {
//!         *state = (*state).max(*beacon);
//!     }
//!     fn update(&self, _node: NodeId, _state: &mut u32, _now: u64, _rng: &mut StdRng) {}
//! }
//! impl Observable for MaxFlood {
//!     type Output = u32;
//!     fn output(&self, _node: NodeId, state: &u32) -> u32 { *state }
//! }
//!
//! let mut net = Scenario::new(MaxFlood)
//!     .topology(builders::line(5))
//!     .seed(7)
//!     .build()
//!     .expect("valid scenario");
//! let report = net.run_to(&StopWhen::stable_for(1).within(50));
//! assert!(net.states().iter().all(|&s| s == 4));
//! assert_eq!(report.expect_stable("flood stabilizes"), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actor;
mod convergence;
mod driver;
mod engine;
mod error;
mod events;
mod faults;
mod network;
mod observable;
mod protocol;
mod rng;
mod scenario;
mod stop;
mod sweep;
#[cfg(test)]
mod testkit;
mod wire;

pub use actor::ActorDriver;
pub use convergence::StabilityTracker;
pub use driver::Driver;
pub use engine::kernels;
pub use engine::{run_sharded, ShardPolicy};
pub use error::SimError;
pub use events::{EventConfig, EventDriver};
pub use faults::{Fault, FaultPlan, Lie, Region};
pub use network::{Network, StepActivity};
pub use observable::Observable;
pub use protocol::{Activity, Corruptible, Protocol};
pub use rng::{derive_seed, derive_seed3, node_streams, split_rng};
pub use scenario::{Scenario, TopologyDynamics};
pub use stop::{RunReport, StopWhen};
pub use sweep::{Convergence, Sweep};
pub use wire::{put_u32, put_u64, take_u32, take_u64, WireBeacon};
