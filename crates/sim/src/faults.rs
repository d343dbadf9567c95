//! Scheduled fault injection: declarative "at step k, break X" plans
//! for reproducible robustness experiments.
//!
//! Self-stabilization's fault model is the strongest possible — the
//! adversary may place the system in *any* configuration — but real
//! experiments need orchestrated, reproducible sequences of faults. A
//! [`FaultPlan`] is a script of [`Fault`]s executed while a driver
//! runs.
//!
//! Beyond the benign verbs (corrupt, isolate, set-topology), the model
//! speaks the classic adversary shapes:
//!
//! * [`Fault::CrashRecover`] — a node goes dark (all links severed),
//!   then resurrects with its **stale pre-crash state**: the transient
//!   fault self-stabilization is defined against.
//! * [`Fault::ByzantineBeacon`] — a node broadcasts forged or replayed
//!   beacons for a window while its true state stays intact: the
//!   poison propagates exactly as far as the epoch gating lets it.
//! * [`Fault::PartitionHeal`] — the topology is bisected along a cut,
//!   later restored: both fragments must converge separately and then
//!   merge.
//! * [`Fault::Jam`] — a regional medium blackout (every link touching
//!   the region severed), lifted at a deadline.
//!
//! The timed second phases (resurrection, healing, lie expiry) are
//! scheduled as followups by the one environment every driver runs in
//! (`engine::env`, the single place a fault is applied) and fire at
//! logical-step boundaries **before** scripted faults, which fire
//! before sends — the same `fault ≤ send` ordering
//! `tests/fault_ordering.rs` pins. Overlapping severs compose: an edge
//! comes back only when the last fault holding it down ends.
//!
//! Malformed plans (out-of-range victims, node-count-changing
//! topologies, position-free deployments with disk regions) are
//! rejected **before the run starts** by [`FaultPlan::validate_for`],
//! which the [`crate::Scenario`] builders and [`FaultPlan::run`] call —
//! a bad campaign fails the run with a typed [`SimError`], not the
//! process.

use mwn_graph::{NodeId, Topology};

use crate::error::SimError;
use crate::{Clock, Corruptible, Sim};

/// What a Byzantine node puts on the air instead of its true beacon.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lie {
    /// A beacon forged from an adversarially corrupted clone of the
    /// node's state (drawn on the dedicated corruption stream); the
    /// true state is untouched.
    Forged,
    /// The node's beacon frozen at fault time and retransmitted
    /// verbatim for the whole window — a stale-retransmission replay
    /// that masks every genuine change until the window closes.
    Replayed,
}

/// The victims of a [`Fault::Jam`].
#[derive(Clone, Debug)]
pub enum Region {
    /// An explicit node set.
    Nodes(Vec<NodeId>),
    /// Every node within distance `r` of `(x, y)` — requires a
    /// positioned topology (checked by [`FaultPlan::validate_for`]).
    Disk {
        /// Center x coordinate.
        x: f64,
        /// Center y coordinate.
        y: f64,
        /// Radius.
        r: f64,
    },
}

impl Region {
    /// Resolves the region to its member nodes on `topo`. A disk has
    /// none on a topology without positions, which
    /// [`FaultPlan::validate_for`] rejects before any fault can fire.
    pub fn members(&self, topo: &Topology) -> Vec<NodeId> {
        match self {
            Region::Nodes(nodes) => nodes.clone(),
            Region::Disk { x, y, r } => {
                let Some(positions) = topo.positions() else {
                    debug_assert!(
                        false,
                        "disk regions require positioned topologies (validate_for)"
                    );
                    return Vec::new();
                };
                topo.nodes()
                    .filter(|p| {
                        let d = positions[p.index()];
                        let (dx, dy) = (d.x - x, d.y - y);
                        dx * dx + dy * dy <= r * r
                    })
                    .collect()
            }
        }
    }
}

/// One scheduled fault.
#[derive(Clone, Debug)]
pub enum Fault {
    /// Corrupt the state of one node arbitrarily.
    CorruptNode(NodeId),
    /// Corrupt every node (restart the self-stabilization clock).
    CorruptAll,
    /// Corrupt approximately this fraction of nodes.
    CorruptFraction(f64),
    /// Sever all links of a node (its radio goes dark).
    Isolate(NodeId),
    /// Replace the topology (e.g. restore links, or apply a mobility
    /// snapshot). Must keep the node count.
    SetTopology(Topology),
    /// The node crashes (all links severed) and resurrects `dark_for`
    /// steps later with its **stale pre-crash state** and its
    /// still-present pre-crash links restored.
    CrashRecover {
        /// The crashing node.
        node: NodeId,
        /// Logical steps of darkness (clamped to at least 1).
        dark_for: u64,
    },
    /// The node broadcasts a [`Lie`] instead of its true beacon until
    /// logical step `until` (exclusive window end; clamped to fire at
    /// least one step after injection). Its true state is intact the
    /// whole time.
    ByzantineBeacon {
        /// The lying node.
        node: NodeId,
        /// What it puts on the air.
        lie: Lie,
        /// Logical step at which the lie expires.
        until: u64,
    },
    /// Sever every edge with exactly one endpoint in `cut` (a
    /// bisection), then restore the severed edges at step `heal_at`.
    PartitionHeal {
        /// One side of the bisection.
        cut: Vec<NodeId>,
        /// Logical step at which the severed edges are restored.
        heal_at: u64,
    },
    /// Regional medium blackout: sever every edge touching the region,
    /// restore the severed edges at step `until`.
    Jam {
        /// The jammed nodes.
        region: Region,
        /// Logical step at which the severed edges are restored.
        until: u64,
    },
}

impl Fault {
    /// Stable snake-case class label, for per-fault-class statistics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Fault::CorruptNode(_) => "corrupt-node",
            Fault::CorruptAll => "corrupt-all",
            Fault::CorruptFraction(_) => "corrupt-fraction",
            Fault::Isolate(_) => "isolate",
            Fault::SetTopology(_) => "set-topology",
            Fault::CrashRecover { .. } => "crash-recover",
            Fault::ByzantineBeacon { .. } => "byzantine-beacon",
            Fault::PartitionHeal { .. } => "partition-heal",
            Fault::Jam { .. } => "jam",
        }
    }

    /// The logical step by which this fault's scripted after-effects
    /// (resurrection, healing, lie expiry) have fired, given that the
    /// fault itself fired at step `fired_at`. Immediate faults settle
    /// at `fired_at`.
    pub fn settles_by(&self, fired_at: u64) -> u64 {
        match self {
            Fault::CrashRecover { dark_for, .. } => fired_at + (*dark_for).max(1),
            Fault::ByzantineBeacon { until, .. } => (*until).max(fired_at + 1),
            Fault::PartitionHeal { heal_at, .. } => (*heal_at).max(fired_at + 1),
            Fault::Jam { until, .. } => (*until).max(fired_at + 1),
            _ => fired_at,
        }
    }

    /// Checks this fault against the deployment it will be applied to.
    ///
    /// # Errors
    ///
    /// See [`FaultPlan::validate_for`].
    pub(crate) fn validate_for(&self, topo: &Topology) -> Result<(), SimError> {
        let n = topo.len();
        let check_node = |p: NodeId, role: &str| {
            if p.index() >= n {
                return Err(SimError::InvalidConfig(format!(
                    "fault plan names {role} node {p} but the deployment has {n} nodes"
                )));
            }
            Ok(())
        };
        match self {
            Fault::CorruptNode(p) => check_node(*p, "corruption victim"),
            Fault::Isolate(p) => check_node(*p, "isolation victim"),
            Fault::CrashRecover { node, .. } => check_node(*node, "crash victim"),
            Fault::ByzantineBeacon { node, .. } => check_node(*node, "Byzantine"),
            Fault::SetTopology(t) if t.len() != n => Err(SimError::NodeCountMismatch {
                expected: n,
                got: t.len(),
            }),
            Fault::PartitionHeal { cut, .. } => {
                cut.iter().try_for_each(|p| check_node(*p, "partition-cut"))
            }
            Fault::Jam { region, .. } => match region {
                Region::Nodes(nodes) => nodes.iter().try_for_each(|p| check_node(*p, "jam-region")),
                Region::Disk { .. } if topo.positions().is_none() => Err(SimError::InvalidConfig(
                    "a disk jam region requires a positioned topology".to_string(),
                )),
                Region::Disk { .. } => Ok(()),
            },
            Fault::SetTopology(_) | Fault::CorruptAll | Fault::CorruptFraction(_) => Ok(()),
        }
    }
}

/// A reproducible script of faults, each fired *before* the given step
/// executes.
///
/// # Examples
///
/// ```
/// use mwn_graph::{builders, NodeId};
/// use mwn_radio::PerfectMedium;
/// use mwn_sim::{Fault, FaultPlan, Network, Protocol};
/// use rand::rngs::StdRng;
///
/// # struct Noop;
/// # impl Protocol for Noop {
/// #     type State = u32; type Beacon = u32;
/// #     fn init(&self, n: NodeId, _: &mut StdRng) -> u32 { n.value() }
/// #     fn beacon(&self, _: NodeId, s: &u32) -> u32 { *s }
/// #     fn receive(&self, _: NodeId, s: &mut u32, _: NodeId, b: &u32, _: u64) { *s = (*s).max(*b); }
/// #     fn update(&self, n: NodeId, s: &mut u32, _: u64, _: &mut StdRng) { *s = (*s).max(n.value()); }
/// # }
/// # impl mwn_sim::Corruptible for Noop {
/// #     fn corrupt(&self, _: NodeId, s: &mut u32, _: &mut StdRng) { *s = 0; }
/// # }
/// let mut plan = FaultPlan::new();
/// plan.at(5, Fault::CorruptAll).at(10, Fault::Isolate(NodeId::new(0)));
/// let mut net = Network::new(Noop, PerfectMedium, builders::line(4), 1);
/// plan.run(&mut net, 20).expect("valid plan");
/// assert_eq!(net.now(), 20);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    events: Vec<(u64, Fault)>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules `fault` to fire right before step `step` executes.
    /// Multiple faults may share a step; they fire in insertion order.
    ///
    /// Insertion is O(1): the script is built unsorted and sorted once
    /// (stably, so same-step insertion order survives) when the plan
    /// is installed into a driver or run.
    pub fn at(&mut self, step: u64, fault: Fault) -> &mut Self {
        self.events.push((step, fault));
        self
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Consumes the plan into its sorted `(step, fault)` script — the
    /// form [`crate::Scenario`] installs into the driver. The sort is
    /// stable: faults sharing a step keep their insertion order.
    pub(crate) fn into_events(self) -> Vec<(u64, Fault)> {
        let mut events = self.events;
        events.sort_by_key(|(step, _)| *step);
        events
    }

    /// `true` when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Checks every scheduled fault against the deployment it will run
    /// on, so a malformed campaign fails at build time with a typed
    /// error instead of panicking mid-run.
    ///
    /// # Errors
    ///
    /// [`SimError::NodeCountMismatch`] for a [`Fault::SetTopology`]
    /// that changes the node count; [`SimError::InvalidConfig`] for
    /// out-of-range victims or a [`Region::Disk`] over a topology
    /// without positions.
    pub fn validate_for(&self, topo: &Topology) -> Result<(), SimError> {
        self.events
            .iter()
            .try_for_each(|(_, f)| f.validate_for(topo))
    }

    /// Runs `net` — on any clock — until `until_step`, firing scheduled
    /// faults along the way. Faults scheduled before the current step
    /// fire immediately; faults due exactly at `until_step` fire too
    /// (the caller observes the post-fault state), later ones do not.
    ///
    /// # Errors
    ///
    /// Everything [`FaultPlan::validate_for`] rejects — the plan is
    /// validated against `net`'s topology before any step executes.
    pub fn run<P: Corruptible, C: Clock<P>>(
        &self,
        net: &mut Sim<P, C>,
        until_step: u64,
    ) -> Result<(), SimError> {
        self.validate_for(net.topology())?;
        let mut script: Vec<&(u64, Fault)> = self.events.iter().collect();
        script.sort_by_key(|(step, _)| *step);
        let mut pending = script.into_iter().peekable();
        loop {
            while let Some((_, fault)) = pending.next_if(|(step, _)| *step <= net.now()) {
                net.inject(fault)?;
            }
            if net.now() >= until_step {
                return Ok(());
            }
            net.step();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::MaxFlood;
    use crate::Network;
    use mwn_graph::builders;
    use mwn_radio::PerfectMedium;
    use rand::rngs::StdRng;

    #[test]
    fn faults_fire_in_order_and_heal() {
        let mut plan = FaultPlan::new();
        plan.at(10, Fault::CorruptAll);
        let mut net = Network::new(MaxFlood, PerfectMedium, builders::line(5), 1);
        plan.run(&mut net, 30).expect("valid plan");
        assert_eq!(net.now(), 30);
        // 20 steps after the corruption: flood reconverged.
        assert!(net.states().iter().all(|&s| s == 4));
    }

    #[test]
    fn isolation_fault_cuts_traffic() {
        let mut plan = FaultPlan::new();
        plan.at(0, Fault::Isolate(NodeId::new(2)));
        let mut net = Network::new(MaxFlood, PerfectMedium, builders::line(5), 2);
        plan.run(&mut net, 20).expect("valid plan");
        assert_eq!(*net.state(NodeId::new(0)), 1, "max id cannot cross the cut");
    }

    #[test]
    fn set_topology_fault_restores_links() {
        let topo = builders::line(5);
        let mut plan = FaultPlan::new();
        plan.at(0, Fault::Isolate(NodeId::new(2)))
            .at(10, Fault::SetTopology(topo.clone()));
        let mut net = Network::new(MaxFlood, PerfectMedium, topo, 3);
        plan.run(&mut net, 30).expect("valid plan");
        assert!(net.states().iter().all(|&s| s == 4), "healed after re-link");
    }

    #[test]
    fn fraction_and_single_node_faults() {
        let mut plan = FaultPlan::new();
        plan.at(5, Fault::CorruptFraction(0.5))
            .at(6, Fault::CorruptNode(NodeId::new(0)));
        let mut net = Network::new(MaxFlood, PerfectMedium, builders::ring(8), 4);
        plan.run(&mut net, 40).expect("valid plan");
        assert!(net.states().iter().all(|&s| s == 7));
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
    }

    #[test]
    fn empty_plan_is_plain_run() {
        let plan = FaultPlan::new();
        let mut net = Network::new(MaxFlood, PerfectMedium, builders::line(3), 5);
        plan.run(&mut net, 7).expect("valid plan");
        assert_eq!(net.now(), 7);
        assert!(plan.is_empty());
    }

    #[test]
    fn insertion_is_unsorted_and_the_script_sorts_stably() {
        // Regression for the old `at` that re-sorted the whole script
        // on every insertion: building is push-only now, and the final
        // sort must keep same-step faults in insertion order.
        let mut plan = FaultPlan::new();
        plan.at(5, Fault::CorruptNode(NodeId::new(10)))
            .at(3, Fault::CorruptAll)
            .at(5, Fault::CorruptNode(NodeId::new(20)))
            .at(1, Fault::Isolate(NodeId::new(0)))
            .at(5, Fault::CorruptNode(NodeId::new(30)));
        let events = plan.into_events();
        let steps: Vec<u64> = events.iter().map(|(s, _)| *s).collect();
        assert_eq!(steps, vec![1, 3, 5, 5, 5], "sorted by step");
        let same_step: Vec<u32> = events
            .iter()
            .filter_map(|(s, f)| match (s, f) {
                (5, Fault::CorruptNode(p)) => Some(p.value()),
                _ => None,
            })
            .collect();
        assert_eq!(same_step, vec![10, 20, 30], "insertion order preserved");
    }

    #[test]
    fn malformed_plans_fail_the_run_not_the_process() {
        // Node-count-changing topology: a typed error, not a panic.
        let mut plan = FaultPlan::new();
        plan.at(2, Fault::SetTopology(builders::line(7)));
        let mut net = Network::new(MaxFlood, PerfectMedium, builders::line(5), 1);
        assert_eq!(
            plan.run(&mut net, 10),
            Err(SimError::NodeCountMismatch {
                expected: 5,
                got: 7
            })
        );
        assert_eq!(net.now(), 0, "nothing ran");

        // Out-of-range victims are named in the error.
        let mut plan = FaultPlan::new();
        plan.at(
            0,
            Fault::CrashRecover {
                node: NodeId::new(99),
                dark_for: 3,
            },
        );
        let err = plan.run(&mut net, 10).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
        assert!(err.to_string().contains("99"), "err: {err}");

        // Disk jam regions need positions (G(n, p) topologies have
        // none).
        let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(7);
        let unpositioned = builders::gnp(5, 0.5, &mut rng);
        let mut net = Network::new(MaxFlood, PerfectMedium, unpositioned, 1);
        let mut plan = FaultPlan::new();
        plan.at(
            0,
            Fault::Jam {
                region: Region::Disk {
                    x: 0.5,
                    y: 0.5,
                    r: 0.2,
                },
                until: 5,
            },
        );
        let err = plan.run(&mut net, 10).unwrap_err();
        assert!(err.to_string().contains("positioned"), "err: {err}");
    }

    #[test]
    fn settles_by_covers_every_timed_kind() {
        assert_eq!(Fault::CorruptAll.settles_by(7), 7);
        assert_eq!(
            Fault::CrashRecover {
                node: NodeId::new(0),
                dark_for: 4
            }
            .settles_by(10),
            14
        );
        // Zero-length windows still settle strictly after injection.
        assert_eq!(
            Fault::CrashRecover {
                node: NodeId::new(0),
                dark_for: 0
            }
            .settles_by(10),
            11
        );
        assert_eq!(
            Fault::ByzantineBeacon {
                node: NodeId::new(1),
                lie: Lie::Forged,
                until: 3
            }
            .settles_by(10),
            11
        );
        assert_eq!(
            Fault::PartitionHeal {
                cut: vec![NodeId::new(0)],
                heal_at: 25
            }
            .settles_by(10),
            25
        );
        assert_eq!(
            Fault::Jam {
                region: Region::Nodes(vec![NodeId::new(0)]),
                until: 30
            }
            .settles_by(10),
            30
        );
    }
}
