//! First-class stop conditions and run reports, shared by all three
//! drivers ([`crate::Sim::run_to`]).
//!
//! [`StopWhen`] names the semantics every experiment needs once,
//! instead of a projection closure plus two magic numbers per call
//! site:
//!
//! * [`StopWhen::StableFor`] — the observable output unchanged for a
//!   quiet streak (the paper's stabilization measurement);
//! * [`StopWhen::MaxSteps`] — a step budget (relative to the start of
//!   the run, so re-arming after a corruption needs no arithmetic);
//! * [`StopWhen::Predicate`] — an arbitrary condition over the
//!   topology and states (e.g. Lemma 1's "all densities correct");
//! * [`StopWhen::All`] / [`StopWhen::Any`] — combinators, usually via
//!   the fluent [`StopWhen::within`] / [`StopWhen::or`] / [`StopWhen::and`].
//!
//! Runs return a [`RunReport`] instead of a bare `Option<u64>`: the
//! stabilization step, the number of steps executed, and whether the
//! run hit its budget without satisfying any other condition.

use mwn_graph::Topology;

use crate::{Observable, StabilityTracker};

/// A declarative stop condition for [`crate::Sim::run_to`] and the
/// [`crate::Sweep`] runner.
///
/// Weak-stabilization experiments (Devismes et al.) ask "did the run
/// reach a legitimate output within a budget?" over many seeds —
/// exactly `StopWhen::stable_for(q).within(n)` fanned out by a sweep.
pub enum StopWhen<P: Observable> {
    /// The projected output of every node unchanged for this many
    /// consecutive steps.
    StableFor {
        /// Required quiet streak (clamped to at least 1).
        quiet: u64,
    },
    /// This many steps executed since the current run began.
    MaxSteps(u64),
    /// An arbitrary condition over the topology and the node states,
    /// checked before the first step and after every step.
    Predicate(fn(&Topology, &[P::State]) -> bool),
    /// Every sub-condition holds simultaneously.
    All(Vec<StopWhen<P>>),
    /// At least one sub-condition holds.
    Any(Vec<StopWhen<P>>),
}

impl<P: Observable> StopWhen<P> {
    /// Stop once the output is unchanged for `quiet` consecutive steps.
    pub fn stable_for(quiet: u64) -> Self {
        StopWhen::StableFor { quiet }
    }

    /// Stop after `n` executed steps.
    pub fn max_steps(n: u64) -> Self {
        StopWhen::MaxSteps(n)
    }

    /// Stop once `pred(topology, states)` holds.
    pub fn predicate(pred: fn(&Topology, &[P::State]) -> bool) -> Self {
        StopWhen::Predicate(pred)
    }

    /// This condition, or a step budget of `n` — the idiom replacing
    /// the old `(quiet, max_steps)` pair. A run that ends on the
    /// budget alone reports [`RunReport::timed_out`].
    pub fn within(self, n: u64) -> Self {
        self.or(StopWhen::MaxSteps(n))
    }

    /// Either condition.
    pub fn or(self, other: Self) -> Self {
        match self {
            StopWhen::Any(mut xs) => {
                xs.push(other);
                StopWhen::Any(xs)
            }
            x => StopWhen::Any(vec![x, other]),
        }
    }

    /// Both conditions.
    pub fn and(self, other: Self) -> Self {
        match self {
            StopWhen::All(mut xs) => {
                xs.push(other);
                StopWhen::All(xs)
            }
            x => StopWhen::All(vec![x, other]),
        }
    }

    /// `true` when the tree contains a [`StopWhen::StableFor`] leaf —
    /// i.e. evaluation needs the per-step output projection.
    pub(crate) fn needs_outputs(&self) -> bool {
        match self {
            StopWhen::StableFor { .. } => true,
            StopWhen::MaxSteps(_) | StopWhen::Predicate(_) => false,
            StopWhen::All(xs) | StopWhen::Any(xs) => xs.iter().any(StopWhen::needs_outputs),
        }
    }

    pub(crate) fn cursor(&self) -> Cursor<P> {
        match self {
            StopWhen::StableFor { quiet } => Cursor::Stable {
                tracker: StabilityTracker::new(*quiet),
                done: false,
            },
            StopWhen::MaxSteps(n) => Cursor::Max(*n),
            StopWhen::Predicate(f) => Cursor::Pred {
                pred: *f,
                last: None,
            },
            StopWhen::All(xs) => Cursor::All(xs.iter().map(StopWhen::cursor).collect()),
            StopWhen::Any(xs) => Cursor::Any(xs.iter().map(StopWhen::cursor).collect()),
        }
    }
}

impl<P: Observable> Clone for StopWhen<P> {
    fn clone(&self) -> Self {
        match self {
            StopWhen::StableFor { quiet } => StopWhen::StableFor { quiet: *quiet },
            StopWhen::MaxSteps(n) => StopWhen::MaxSteps(*n),
            StopWhen::Predicate(f) => StopWhen::Predicate(*f),
            StopWhen::All(xs) => StopWhen::All(xs.clone()),
            StopWhen::Any(xs) => StopWhen::Any(xs.clone()),
        }
    }
}

impl<P: Observable> std::fmt::Debug for StopWhen<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopWhen::StableFor { quiet } => write!(f, "StableFor {{ quiet: {quiet} }}"),
            StopWhen::MaxSteps(n) => write!(f, "MaxSteps({n})"),
            StopWhen::Predicate(_) => write!(f, "Predicate(..)"),
            StopWhen::All(xs) => f.debug_tuple("All").field(xs).finish(),
            StopWhen::Any(xs) => f.debug_tuple("Any").field(xs).finish(),
        }
    }
}

/// What one run did: how long it ran, whether a stability condition
/// fired, and whether only the step budget ended it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunReport {
    /// The step after which the observable output last changed — the
    /// measured stabilization time — when a [`StopWhen::StableFor`]
    /// condition was satisfied. Comparable to the paper's Tables 2–5
    /// step counts.
    pub stabilized: Option<u64>,
    /// Steps executed during this run.
    pub steps: u64,
    /// Absolute step count of the network when the run ended.
    pub end_step: u64,
    /// `true` when a non-budget condition was satisfied.
    pub satisfied: bool,
    /// `true` when only [`StopWhen::MaxSteps`] ended the run — the
    /// replacement for the old `None` timeout.
    pub timed_out: bool,
}

impl RunReport {
    /// The stabilization step, or a panic with `msg`.
    ///
    /// # Panics
    ///
    /// Panics with `msg` if no stability condition was satisfied.
    #[track_caller]
    pub fn expect_stable(&self, msg: &str) -> u64 {
        match self.stabilized {
            Some(step) => step,
            None => panic!(
                "{msg} (ran {} steps, timed out: {})",
                self.steps, self.timed_out
            ),
        }
    }

    /// `true` when a stability condition fired.
    pub fn is_stable(&self) -> bool {
        self.stabilized.is_some()
    }
}

/// One per-step observation fed to a [`Cursor`]: what the driver's
/// dirty-set bookkeeping and the run loop's projection compare already
/// know about the step, so a quiescent step is evaluated in O(tree)
/// instead of O(n).
pub(crate) struct Obs {
    /// Some node's observable output changed this step.
    pub output_changed: bool,
    /// Some node's state changed this step (always set under eager
    /// scheduling, which tracks no change).
    pub state_changed: bool,
    /// The topology changed or a fault fired this step.
    pub env_changed: bool,
}

/// Per-run evaluation state mirroring a [`StopWhen`] tree.
pub(crate) enum Cursor<P: Observable> {
    Stable {
        tracker: StabilityTracker<P::Output>,
        done: bool,
    },
    Max(u64),
    Pred {
        pred: fn(&Topology, &[P::State]) -> bool,
        /// Memoized verdict: predicates are pure functions of
        /// `(topology, states)`, so a step that changed neither can
        /// reuse the previous evaluation.
        last: Option<bool>,
    },
    All(Vec<Cursor<P>>),
    Any(Vec<Cursor<P>>),
}

/// One evaluation outcome: is the subtree satisfied, and was the
/// satisfaction produced by step budgets alone?
#[derive(Clone, Copy)]
pub(crate) struct Verdict {
    pub satisfied: bool,
    pub budget_only: bool,
}

impl<P: Observable> Cursor<P> {
    /// Feeds one observation (absolute step `now`, `steps` executed so
    /// far this run) and reports whether the subtree is satisfied.
    /// Every leaf is always evaluated so stability trackers see every
    /// step. `states` hands out the states by id; it is asked only by a
    /// predicate that cannot reuse its verdict.
    pub(crate) fn observe<'a>(
        &mut self,
        now: u64,
        steps: u64,
        topo: &Topology,
        states: &dyn Fn() -> &'a [P::State],
        obs: &Obs,
    ) -> Verdict {
        match self {
            Cursor::Stable { tracker, done } => {
                // `done` tracks *current* stability, not a latch: under
                // an `and()` composition the run continues past the
                // first quiet streak, and a fault that restarts churn
                // must un-satisfy this leaf (and invalidate its
                // stabilization step) until the output quiesces again.
                *done = tracker.observe_flag(now, obs.output_changed);
                Verdict {
                    satisfied: *done,
                    budget_only: false,
                }
            }
            Cursor::Max(n) => Verdict {
                satisfied: steps >= *n,
                budget_only: true,
            },
            Cursor::Pred { pred, last } => {
                let satisfied = match *last {
                    Some(prev) if !obs.state_changed && !obs.env_changed => prev,
                    _ => pred(topo, states()),
                };
                *last = Some(satisfied);
                Verdict {
                    satisfied,
                    budget_only: false,
                }
            }
            // Both combinators fold without short-circuiting: every
            // child is evaluated each step so stability trackers see
            // every observation, and nothing is allocated in the
            // per-step hot loop.
            Cursor::All(children) => children
                .iter_mut()
                .map(|c| c.observe(now, steps, topo, states, obs))
                .fold(
                    Verdict {
                        satisfied: true,
                        budget_only: true,
                    },
                    |acc, v| Verdict {
                        satisfied: acc.satisfied && v.satisfied,
                        budget_only: acc.budget_only && v.budget_only,
                    },
                ),
            Cursor::Any(children) => {
                // The run "timed out" only when every satisfied limb
                // is a budget.
                let (satisfied, satisfied_all_budget) = children
                    .iter_mut()
                    .map(|c| c.observe(now, steps, topo, states, obs))
                    .fold((false, true), |(any_sat, all_budget), v| {
                        (
                            any_sat || v.satisfied,
                            all_budget && (!v.satisfied || v.budget_only),
                        )
                    });
                Verdict {
                    satisfied,
                    budget_only: satisfied && satisfied_all_budget,
                }
            }
        }
    }

    /// The stabilization step of the first satisfied stability leaf.
    pub(crate) fn stabilized(&self) -> Option<u64> {
        match self {
            Cursor::Stable { tracker, done } => done.then(|| tracker.last_change()),
            Cursor::Max(_) | Cursor::Pred { .. } => None,
            Cursor::All(children) | Cursor::Any(children) => {
                children.iter().find_map(Cursor::stabilized)
            }
        }
    }
}
