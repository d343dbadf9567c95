//! `traffic_quiet`: the data plane over a silent, stabilized control
//! plane, from the first packet injected to the last delivered.

use std::time::Instant;

use mwn_cluster::{extract_clustering, ClusterState, HierarchicalRoutes};
use mwn_graph::{traversal, NodeId, Topology};
use mwn_sim::StopWhen;
use mwn_traffic::{run_rounds, DemandModel, FlowSpec, TrafficConfig, TrafficPlane};

use super::converge::{activity_counts, build_rounds, step_span, STEP_BUDGET};
use super::{close_window, open_window, spanned, traced_deployment, Job, RepOutcome, Tracer};

/// Quiet streak the control plane must hold before traffic starts, and
/// the steps then spent draining trailing beacons, so that the measured
/// window begins on a silent network.
const QUIET_BEFORE_TRAFFIC: u64 = 5;
const DRAIN_STEPS: u64 = 5;

/// The demand: the repo's traffic bench's own shape — Zipf 0.9 sinks,
/// Pareto 1.5 flow sizes clipped at 20× the mean, so a few hot sinks
/// queue deep — drawn as many small flows instead of few large ones,
/// so that the work moves less with the seed: packet hops spread 7.3 %
/// over ten seeds with component/4 flows of mean 40, 4.8 % with
/// component/2 of mean 16. What is left is where the hottest sinks
/// happen to sit in the deployment (4.2 % even at one flow per node),
/// which no flow count averages away.
fn demand(component: usize, quick: bool) -> DemandModel {
    DemandModel {
        flows: (component / 2).max(8),
        zipf_exponent: 0.9,
        pareto_shape: 1.5,
        mean_packets: 16.0,
        max_packets: 320,
        start_spread: if quick { 100 } else { 400 },
    }
}

/// Effectively unbounded queues and TTL: the only loss left possible is
/// control-plane loss, and a quiet control plane has none. (The bounded
/// TTL = 64 of `BENCH_traffic.json` measured TTL against diameter, not
/// the plane.)
pub const CONFIG: TrafficConfig = TrafficConfig {
    queue_capacity: 1 << 20,
    service_rate: 16,
    ttl: u64::MAX / 4,
    inject_rate: 1,
};

/// Everything a traffic rep prepares before its measured window.
pub struct Prepared {
    pub net: mwn_sim::Network<mwn_cluster::DensityCluster, mwn_radio::PerfectMedium>,
    pub plane: TrafficPlane,
    pub flows: Vec<FlowSpec>,
    pub budget: u64,
    pub nodes: usize,
    pub edges: usize,
    /// Whether the control plane stabilized during set-up.
    pub stabilized: bool,
}

/// Routes exist when the clustering snapshot is extractable and
/// consistent — always, on a stabilized network.
pub fn cluster_view(topo: &Topology, states: &[ClusterState]) -> Option<HierarchicalRoutes> {
    extract_clustering(states).and_then(|c| HierarchicalRoutes::try_new(topo, c))
}

/// The set-up a user of the traffic plane pays before the first packet:
/// deployment, giant component, cold start → stabilized control plane,
/// demand, plane.
pub fn prepare(job: &Job, rec: &mut Tracer<'_>) -> Prepared {
    let topo = traced_deployment(rec, job.nodes, job.seed);
    let (nodes, edges) = (topo.len(), topo.edge_count());

    let component: Vec<NodeId> = spanned(rec, "graph.components", || {
        traversal::connected_components(&topo)
            .into_iter()
            .max_by_key(Vec::len)
            .unwrap_or_default()
    });
    assert!(component.len() >= 16, "degenerate giant component");

    let mut net = build_rounds(rec, mwn_radio::PerfectMedium, topo, job);
    let stabilized = match rec {
        None => {
            let report =
                net.run_to(&StopWhen::stable_for(QUIET_BEFORE_TRAFFIC).within(STEP_BUDGET));
            net.run(DRAIN_STEPS);
            report.is_stable()
        }
        Some(rec) => {
            // The same cold start, one step per span, so set-up time is
            // attributed to the control plane it is spent in.
            let id = rec.enter("setup.stabilize");
            let stabilized = super::converge::drive_stepwise(
                rec,
                &mut net,
                QUIET_BEFORE_TRAFFIC,
                "sim.network.step",
                |net, _| {
                    net.step();
                    activity_counts(net.last_activity())
                },
                |net, buf| net.outputs_into(buf),
            );
            for _ in 0..DRAIN_STEPS {
                step_span(rec, "sim.network.step", || {
                    net.step();
                    activity_counts(net.last_activity())
                });
            }
            rec.exit(id);
            stabilized
        }
    };

    let model = demand(component.len(), job.quick);
    let flows: Vec<FlowSpec> = spanned(rec, "traffic.demand.generate", || {
        model
            .generate(component.len(), job.seed ^ 0x7AFF)
            .into_iter()
            // The model draws over giant-component indices; map them to
            // real node ids so every flow is routable.
            .map(|f| FlowSpec {
                src: component[f.src.index()],
                dst: component[f.dst.index()],
                ..f
            })
            .collect()
    });

    let mut plane = TrafficPlane::new(nodes, CONFIG);
    plane.set_shards(Some(job.shards));
    spanned(rec, "traffic.plane.add_flows", || plane.add_flows(&flows));

    Prepared {
        net,
        plane,
        flows,
        budget: model.max_packets + model.start_spread + 50_000,
        nodes,
        edges,
        stabilized,
    }
}

pub fn rep(job: &Job, mut rec: Tracer<'_>) -> RepOutcome {
    let t0 = Instant::now();
    let Prepared {
        mut net,
        mut plane,
        budget,
        nodes,
        edges,
        stabilized,
        ..
    } = prepare(job, &mut rec);
    let mut out = RepOutcome {
        nodes,
        edges,
        setup_s: t0.elapsed().as_secs_f64(),
        ..RepOutcome::default()
    };
    let beacons_before = net.messages_total();

    let window = open_window(&mut rec);
    let w0 = Instant::now();
    let report = match &mut rec {
        None => run_rounds(&mut net, &mut plane, budget, cluster_view),
        Some(rec) => {
            // `run_rounds`, restated so each call sits in its own span.
            for _ in 0..budget {
                step_span(rec, "sim.network.step", || {
                    net.step();
                    activity_counts(net.last_activity())
                });
                let view = if plane.needs_routes() {
                    let clustering = rec.scope("core.clustering.extract", |_| {
                        extract_clustering(net.states())
                    });
                    rec.scope("core.routing.view_build", |_| {
                        clustering.and_then(|c| HierarchicalRoutes::try_new(net.topology(), c))
                    })
                } else {
                    None
                };
                // A step handed a view resolves routes before it
                // forwards; one without only forwards.
                let name = if view.is_some() {
                    "traffic.plane.on_step.resolve"
                } else {
                    "traffic.plane.on_step.forward"
                };
                rec.scope(name, |_| plane.on_step(net.topology(), view.as_ref()));
                if plane.is_drained() {
                    break;
                }
            }
            plane.report()
        }
    };
    out.wall_s = w0.elapsed().as_secs_f64();
    close_window(&mut rec, window);

    out.msgs_total = net.messages_total() - beacons_before;
    out.sim_steps = report.steps;
    let packet_hops = (report.mean_hops * report.delivered as f64).round() as u64;
    out.transmissions = out.msgs_total + packet_hops;
    out.attempted = report.injected.max(1);
    if !stabilized {
        out.fail(1, "control plane did not stabilize in set-up".to_string());
    }
    let lost = report.injected - report.delivered;
    if lost > 0 || !plane.is_drained() {
        out.fail(
            lost.max(1),
            format!(
                "{} of {} packets undelivered ({} overflow, {} stranded, {} expired, {} in flight)",
                lost,
                report.injected,
                report.dropped_overflow,
                report.dropped_stranded,
                report.dropped_expired,
                report.in_flight
            ),
        );
    }
    out.digest = report.to_json();
    out
}
