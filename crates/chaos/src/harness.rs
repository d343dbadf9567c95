//! One trait over all three execution drivers.

use mwn_sim::{Clock, Corruptible, Fault, Observable, Sim};

/// The driver surface the certifier needs. Every [`Sim`] — the round
/// driver, the continuous-time driver and the actor fabric — has it
/// through the blanket impl below, so one campaign runs unchanged on
/// all three; wrappers (tracing, fault shims) implement it directly.
///
/// Logical time is the driver's paper-comparable clock: steps on the
/// round driver, beacon periods on the other two.
pub trait ChaosHarness {
    /// The protocol's observable output per node.
    type Output: Clone + PartialEq + std::fmt::Debug;

    /// Applies one fault at the current logical instant.
    ///
    /// # Panics
    ///
    /// Panics on a malformed fault (campaigns generated by
    /// [`crate::CampaignSpec`] are always well-formed for their
    /// deployment).
    fn inject(&mut self, fault: &Fault);

    /// Advances logical time by `steps`.
    fn advance(&mut self, steps: u64);

    /// Projects every node's observable output.
    fn outputs(&self) -> Vec<Self::Output>;

    /// Pins (`true`) or unpins (`false`) eager scheduling — the lever
    /// of the [`crate::liveness_audit`].
    fn set_eager(&mut self, eager: bool);

    /// The current logical time.
    fn now(&self) -> u64;
}

impl<P: Observable + Corruptible, C: Clock<P>> ChaosHarness for Sim<P, C> {
    type Output = P::Output;

    fn inject(&mut self, fault: &Fault) {
        Sim::inject(self, fault).expect("campaign faults keep the node count");
    }

    fn advance(&mut self, steps: u64) {
        self.run(steps);
    }

    fn outputs(&self) -> Vec<Self::Output> {
        Sim::outputs(self)
    }

    fn set_eager(&mut self, eager: bool) {
        Sim::set_eager(self, eager);
    }

    fn now(&self) -> u64 {
        Sim::now(self)
    }
}
