//! Wireless medium models for multihop network simulation.
//!
//! The paper's only assumption about the radio layer is: *"there exists
//! a constant τ > 0 such that the probability of a frame transmission
//! without collision is at least τ"* (Section 4), with independent,
//! memoryless frame outcomes. This crate provides three media that
//! satisfy (or mechanically produce) that assumption:
//!
//! * [`PerfectMedium`] — every broadcast reaches every 1-neighbor
//!   (τ = 1); this is the paper's Section 5 "step" abstraction where a
//!   step is long enough for each node to broadcast once and hear all
//!   its neighbors.
//! * [`BernoulliLoss`] — each (sender, receiver) frame copy succeeds
//!   independently with probability exactly τ; the proofs' abstraction.
//! * [`SlottedCsma`] — senders pick a random slot inside the step;
//!   a receiver loses every frame in a slot where two or more of its
//!   neighbors transmit (hidden terminals included) or where it was
//!   itself transmitting (half-duplex). Here τ is *emergent*; measure
//!   it with [`measure_tau`].
//!
//! Two refinements refine those models: [`DistanceFading`] (per-link
//! loss growing with distance, floored at τ) and [`CaptureCsma`]
//! (collisions can still deliver the much-closer frame).
//!
//! Every medium is one of three [`MediumKind`]s — lossless (perfect),
//! independent per-copy fates (Bernoulli, fading), or contention with
//! a statistical fold of the silent radios (the two CSMA media) — and
//! every driver dispatches on that one answer.
//!
//! # Examples
//!
//! ```
//! use mwn_graph::builders;
//! use mwn_radio::{measure_tau, Medium, PerfectMedium, SlottedCsma};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let topo = builders::uniform(60, 0.2, &mut rng);
//! let tau = measure_tau(&mut SlottedCsma::new(16), &topo, 50, &mut rng);
//! assert!(tau > 0.5, "CSMA with 16 slots should deliver most frames");
//! let tau1 = measure_tau(&mut PerfectMedium, &topo, 5, &mut rng);
//! assert_eq!(tau1, 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bernoulli;
mod capture;
mod csma;
mod fading;
mod marks;
mod medium;
mod occupancy;
mod perfect;

pub use bernoulli::BernoulliLoss;
pub use capture::CaptureCsma;
pub use csma::SlottedCsma;
pub use fading::DistanceFading;
pub use medium::{measure_tau, Delivery, Medium, MediumKind};
pub use occupancy::{ContentionStreams, FullOccupancy, Occupancy, OccupancyView};
pub use perfect::PerfectMedium;
