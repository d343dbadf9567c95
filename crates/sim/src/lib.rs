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
//! * [`Sim`] — the one driver: that environment (protocol, topology,
//!   node table, fault script, dynamics) advanced by a [`Clock`], the
//!   execution model. Its surface — reads, mutators, faults, `run_to`
//!   — is written once and is the same on every clock:
//!   * [`Network`] = `Sim<P, Rounds<M>>`, the synchronous **round
//!     driver**: one round is the paper's Δ(τ) "step" (Section 5), so
//!     its step counts compare directly with Tables 2, 3 and 5;
//!   * [`EventDriver`] = `Sim<P, Events<P, M>>`, the **continuous-time
//!     driver**: randomized beacons, frames with duration, medium-decided
//!     fates — the model of the paper's "expected constant time" claims;
//!   * [`ActorDriver`] = `Sim<P, Actors<M>>`, the **actor driver**:
//!     every node a message-passing process over a worker pool,
//!     exchanging serialized frames ([`WireBeacon`]) under a virtual-time
//!     token governor — the simulated clocks' claims under real
//!     interleaving.
//!
//!   A consumer that is generic over the execution model takes a
//!   `&mut Sim<P, C>` with `C: Clock<P>`.
//! * [`StopWhen`] / [`RunReport`] — first-class stop conditions
//!   (stability streaks, step budgets, predicates, combinators) and
//!   structured run outcomes, replacing per-call-site projection
//!   closures and magic numbers. Protocols expose their canonical
//!   projection through [`Observable`].
//! * [`Sweep`] — the parallel seed/parameter fan-out behind every
//!   1000-run experiment average, with deterministic, schedule-independent
//!   results.
//!
//! Under every clock runs one activity core (the private `engine`
//! module): columnar per-node state, dirty-set scheduling, beacon
//! epochs, per-(tick, node) derived randomness and a common worker
//! pool — so silent stabilized regions cost (near) zero work under
//! any clock, gated execution is byte-identical to eager execution,
//! and the round driver's per-step pass can be sharded across threads
//! without changing a single byte of output. The two period clocks
//! share one period skeleton and differ only in their frame transport.
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

pub use actor::{ActorDriver, Actors};
pub use convergence::StabilityTracker;
pub use driver::{Clock, Sim};
pub use engine::kernels;
pub use engine::{run_sharded, ShardPolicy};
pub use error::SimError;
pub use events::{EventConfig, EventDriver, Events};
pub use faults::{Fault, FaultPlan, Lie, Region};
pub use network::{Network, Rounds, StepActivity};
pub use observable::Observable;
pub use protocol::{Activity, Corruptible, Protocol};
pub use rng::{derive_seed, split_rng};
pub use scenario::{Scenario, TopologyDynamics};
pub use stop::{RunReport, StopWhen};
pub use sweep::{Convergence, Sweep};
pub use wire::{put_u32, put_u64, take_u32, take_u64, WireBeacon};
