//! Clock glue: one traffic step per control-plane step, on any driver.
//!
//! The data plane is deliberately clock-agnostic — it only ever sees
//! "a topology, right now, and maybe a routing view". [`run_rounds`]
//! binds it to any [`Sim`], whatever its [`Clock`]: one
//! [`crate::TrafficPlane::on_step`] after every logical step — a
//! synchronous round, a governor period of the actor fabric, or a
//! beacon period of the continuous-time driver — so packet TTLs and
//! latencies are measured in the paper's Δ(τ) steps on all three.
//!
//! It takes a **view factory** `FnMut(&Topology, &[State]) ->
//! Option<R>`: the bridge from protocol outputs to routes. Return
//! `None` while the protocol is mid-restabilization (e.g.
//! [`mwn_cluster::extract_clustering`] on a transient state) and the
//! plane will queue, age and strand packets accordingly — that is the
//! loss-during-restabilization measurement. The factory is only
//! invoked when the plane actually has unresolved routes, so a quiet
//! stable network pays nothing.

use mwn_cluster::RoutingView;
use mwn_graph::Topology;
use mwn_sim::{Clock, Protocol, Sim};

use crate::plane::TrafficPlane;
use crate::report::TrafficReport;

/// Runs traffic over `net`: `steps` logical steps, or until the
/// workload drains, whichever comes first. Returns the plane's report
/// at exit.
pub fn run_rounds<P, C, R, F>(
    net: &mut Sim<P, C>,
    plane: &mut TrafficPlane,
    steps: u64,
    mut view: F,
) -> TrafficReport
where
    P: Protocol,
    C: Clock<P>,
    R: RoutingView,
    F: FnMut(&Topology, &[P::State]) -> Option<R>,
{
    for _ in 0..steps {
        net.step();
        let v = if plane.needs_routes() {
            view(net.topology(), net.states())
        } else {
            None
        };
        plane.on_step(net.topology(), v.as_ref());
        if plane.is_drained() {
            break;
        }
    }
    plane.report()
}
