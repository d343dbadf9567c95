//! Mobility models for multihop wireless network simulation.
//!
//! The paper's stability experiment (Section 5) moves nodes "randomly
//! at a randomly chosen speed during 15 minutes" and measures how many
//! cluster-heads survive each 2-second window, for pedestrian
//! (0–1.6 m/s) and vehicular (0–10 m/s) speed ranges. This crate
//! provides the two standard models matching that description —
//! [`RandomWaypoint`] and [`RandomDirection`] — plus the unit mapping
//! (the 1×1 simulation square is read as 1 km × 1 km, so `R = 0.05`
//! is a 50 m radio range) and a [`MobileScenario`] that moves nodes
//! and updates the unit-disk links.
//!
//! # Examples
//!
//! ```
//! use mwn_mobility::{meters_per_second, MobileScenario, RandomWaypoint};
//! use mwn_graph::builders;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(5);
//! let topo = builders::uniform(100, 0.05, &mut rng);
//! let model = RandomWaypoint::new(100, meters_per_second(0.0)..=meters_per_second(1.6), 0.0);
//! let mut scenario = MobileScenario::new(topo, model, 5);
//! scenario.advance(2.0); // one 2-second window
//! assert_eq!(scenario.topology().len(), 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod direction;
mod model;
mod scenario;
mod waypoint;

pub use direction::RandomDirection;
pub use model::{meters_per_second, MobilityModel, UNIT_SQUARE_METERS};
pub use scenario::{MobileScenario, MobilityDynamics};
pub use waypoint::RandomWaypoint;
