//! Adversary campaigns and the stabilization certifier.
//!
//! The paper's fault model is the strongest possible — the adversary
//! may place the system in *any* configuration — and the engine's
//! incremental machinery (dirty-set wake rules, statistical slot
//! occupancy) is exactly the code most likely to break silently under
//! a fault shape it was never driven through: a gated node that never
//! wakes after a fault is a safety violation no convergence test can
//! see, because the run simply stabilizes to the wrong fixpoint.
//!
//! This crate turns "self-stabilizing" from a narrative claim into a
//! machine-checkable certificate:
//!
//! * [`ChaosHarness`] — exactly what the certifier needs: inject a
//!   fault, advance logical time, project outputs, pin eager
//!   scheduling. One blanket impl covers every [`mwn_sim::Driver`]
//!   (round, event, actor).
//! * [`CampaignSpec`] — a compact, seed-deterministic description of a
//!   randomized adversary schedule over fault kinds × victims ×
//!   timing. The same spec replays the same campaign on any driver.
//! * [`certify()`] — runs a campaign and emits a [`Certificate`] per
//!   (protocol, medium, driver) cell: **closure** (once legitimate,
//!   stays legitimate absent faults), **convergence**
//!   (restabilization-time distribution with Wilson bounds per fault
//!   class), and the hard **liveness audit** ([`liveness_audit`]).
//!
//! # The liveness audit
//!
//! A configuration of a *silent* protocol is legitimate exactly when
//! it is a fixpoint of eager re-execution: every guard re-run and
//! every beacon re-delivered must change nothing. So after a campaign
//! heals, the auditor pins the driver eager, sweeps a few periods, and
//! compares outputs: any node whose output moves was **gated-asleep
//! with stale state** — a wake-rule bug, not a protocol property. The
//! check is sound on every medium, including contention media whose
//! gating is only distributional: delivery randomness differs under
//! the eager pin, but received beacons are state no-ops by the silence
//! contract, so a clean engine's outputs cannot move.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
mod certify;
mod harness;

pub use campaign::{CampaignSpec, FaultKind};
pub use certify::{certify, liveness_audit, Certificate, CertifyConfig, ClassStats};
pub use harness::ChaosHarness;
