//! The one surface the three drivers share.

use mwn_graph::Topology;
use mwn_radio::Medium;

use crate::{
    ActorDriver, Corruptible, EventDriver, Fault, Network, Observable, Protocol, RunReport,
    SimError, StopWhen, WireBeacon,
};

/// What a consumer that is generic over the execution model needs from
/// a driver: the round driver ([`Network`]), the continuous-time driver
/// ([`EventDriver`]) and the actor fabric ([`ActorDriver`]) differ only
/// in their clock and their delivery loop, so traffic, the chaos
/// certifier and the CLI are each written once against this trait.
///
/// Logical time is the paper-comparable clock: steps on the round
/// driver, beacon periods on the other two. Every method is the
/// driver's inherent method of the same name.
///
/// **The fault clock**, the same on all three: a fault or followup
/// scripted at step `k`, and a mobility tick at `k`, fires as the
/// driver enters period `k`, before any of that period's frames. So
/// after [`Driver::step`] returns `k`, nothing due at `k` has fired
/// yet: the next step fires it first. [`Driver::inject`] fires at
/// once, and schedules its timed second phase (resurrection, healing,
/// lie expiry) on the same clock.
pub trait Driver {
    /// The protocol being executed.
    type Protocol: Observable + Corruptible;

    /// Advances logical time by one step, period `now()`; returns the
    /// new step count.
    fn step(&mut self) -> u64;

    /// The current logical time.
    fn now(&self) -> u64;

    /// The topology being simulated.
    fn topology(&self) -> &Topology;

    /// All node states, indexed by [`mwn_graph::NodeId`]. Every driver
    /// works on its state column in storage order (by radio cell, for a
    /// deployment) and publishes it in id order on this read: an
    /// in-place O(n) permutation, with no allocation, unless nothing
    /// has touched a state since the last read; the next step that
    /// touches one moves it back. [`Driver::outputs`] never publishes,
    /// and [`Driver::run_to`] only to evaluate a
    /// [`StopWhen::predicate`] leaf.
    fn states(&self) -> &[<Self::Protocol as Protocol>::State];

    /// Pins (`true`) or unpins (`false`) eager scheduling.
    fn set_eager(&mut self, eager: bool);

    /// Applies one fault at the current logical instant.
    ///
    /// # Errors
    ///
    /// Whatever [`crate::FaultPlan::validate_for`] rejects; a rejected
    /// fault changes nothing.
    fn inject(&mut self, fault: &Fault) -> Result<(), SimError>;

    /// The observable output of every node.
    fn outputs(&self) -> Vec<<Self::Protocol as Observable>::Output>;

    /// Runs until `stop` is satisfied and reports what happened.
    fn run_to(&mut self, stop: &StopWhen<Self::Protocol>) -> RunReport;

    /// Beacon broadcasts since construction.
    fn messages_total(&self) -> u64;
}

macro_rules! impl_driver {
    ($driver:ident, $($bounds:tt)*) => {
        impl<P: Observable + Corruptible, M> Driver for $driver<P, M>
        where
            $($bounds)*
        {
            type Protocol = P;

            fn step(&mut self) -> u64 {
                $driver::step(self)
            }
            fn now(&self) -> u64 {
                $driver::now(self)
            }
            fn topology(&self) -> &Topology {
                $driver::topology(self)
            }
            fn states(&self) -> &[P::State] {
                $driver::states(self)
            }
            fn set_eager(&mut self, eager: bool) {
                $driver::set_eager(self, eager);
            }
            fn inject(&mut self, fault: &Fault) -> Result<(), SimError> {
                $driver::inject(self, fault)
            }
            fn outputs(&self) -> Vec<P::Output> {
                $driver::outputs(self)
            }
            fn run_to(&mut self, stop: &StopWhen<P>) -> RunReport {
                $driver::run_to(self, stop)
            }
            fn messages_total(&self) -> u64 {
                $driver::messages_total(self)
            }
        }
    };
}

impl_driver!(Network, M: Medium);
impl_driver!(EventDriver, M: Medium);
impl_driver!(ActorDriver, M: Medium + Sync, P::Beacon: WireBeacon);
