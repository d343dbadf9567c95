//! Per-layer metrics, measured from outside.
//!
//! Three sources, none of them inside the program: spans the traced rep
//! recorded around calls into public functions ([`from_trace`]),
//! differential runs (the same job with one thing changed) and direct
//! calls into a layer on data captured from a run ([`probes`]).

pub mod probes;

use crate::json::{self, Value};
use crate::span::{Recorder, Span};
use crate::spec::PER_LAYER;
use crate::stats::percentile_u64;
use crate::workloads::RepOutcome;

/// The value of every per-layer metric, in catalogue order. Starts at
/// 0 everywhere: a layer a workload never enters did no work and took
/// no time.
#[derive(Clone, Debug)]
pub struct Layers(Vec<(&'static str, f64)>);

impl Default for Layers {
    fn default() -> Self {
        Layers(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }
}

impl Layers {
    /// Sets a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name that is not in [`PER_LAYER`]: the catalogue is
    /// the contract, and a metric outside it would be silently dropped.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .iter_mut()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"));
        slot.1 = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().copied()
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// `num / den`, or 0 when the layer did no such work.
fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn total_ns(spans: &[&Span]) -> u64 {
    spans.iter().map(|s| s.duration_ns()).sum()
}

fn total_count(spans: &[&Span], key: &str) -> u64 {
    spans.iter().map(|s| s.count(key)).sum()
}

fn durations(spans: &[&Span]) -> Vec<u64> {
    spans.iter().map(|s| s.duration_ns()).collect()
}

/// Fills every metric that the traced rep's spans determine.
pub fn from_trace(rec: &Recorder, traced: &RepOutcome, untraced_wall_s: f64, layers: &mut Layers) {
    let window = rec.find("window").expect("a traced rep records its window");
    let window_ns = rec.get(window).duration_ns();
    let n = traced.nodes as f64;

    layers.set("run.msgs_total", traced.msgs_total as f64);
    layers.set("run.sim_steps", traced.sim_steps as f64);
    layers.set("trace.overhead_ratio", per(traced.wall_s, untraced_wall_s));

    layers.set("graph.poisson_s", secs(rec.total_ns("graph.poisson")));
    layers.set("graph.components_s", secs(rec.total_ns("graph.components")));
    layers.set(
        "graph.nodes",
        rec.total_count("graph.poisson", "nodes") as f64,
    );
    layers.set(
        "graph.edges",
        rec.total_count("graph.poisson", "edges") as f64,
    );
    layers.set(
        "sim.scenario.build_s",
        secs(rec.total_ns("sim.scenario.build")),
    );
    layers.set(
        "core.clustering.extract_s",
        secs(rec.total_ns("core.clustering.extract")),
    );
    layers.set(
        "core.routing.view_build_s",
        secs(rec.total_ns("core.routing.view_build")),
    );
    layers.set(
        "core.routing.view_builds",
        rec.named("core.routing.view_build").count() as f64,
    );

    // The round driver, inside the measured window. The forced-eager
    // audit steps of `certify` are kept apart: they cost O(n) by design.
    let gated: Vec<&Span> = rec.inside(window, "sim.network.step").collect();
    let eager: Vec<&Span> = rec.inside(window, "sim.network.step.eager").collect();
    let all: Vec<&Span> = gated.iter().chain(&eager).copied().collect();
    layers.set("sim.network.steps", all.len() as f64);
    layers.set("sim.network.step_s_total", secs(total_ns(&all)));
    layers.set(
        "sim.network.step_ns_p50",
        percentile_u64(&durations(&gated), 0.5) as f64,
    );
    layers.set(
        "sim.network.step_ns_max",
        durations(&gated).into_iter().max().unwrap_or(0) as f64,
    );
    for key in [
        "senders",
        "frames_attempted",
        "frames_delivered",
        "receives",
        "updates",
        "changed",
    ] {
        layers.set(&format!("sim.network.{key}"), total_count(&all, key) as f64);
    }
    let ns_per_receive = |steps: &[&Span]| {
        per(
            total_ns(steps) as f64,
            total_count(steps, "receives") as f64,
        )
    };
    layers.set("sim.network.ns_per_receive", ns_per_receive(&gated));
    let storm: Vec<&Span> = gated
        .iter()
        .filter(|s| s.count("updates") as f64 >= n / 2.0)
        .copied()
        .collect();
    let tail: Vec<&Span> = gated
        .iter()
        .filter(|s| (s.count("updates") as f64) < n / 10.0)
        .copied()
        .collect();
    layers.set("sim.network.storm_ns_per_receive", ns_per_receive(&storm));
    layers.set("sim.network.tail_ns_per_receive", ns_per_receive(&tail));
    layers.set(
        "sim.network.eager_ns_per_node",
        per(
            total_ns(&eager) as f64,
            total_count(&eager, "updates") as f64,
        ),
    );

    // The continuous-time driver.
    let periods: Vec<&Span> = rec.inside(window, "sim.events.period").collect();
    layers.set(
        "sim.events.events_processed",
        total_count(&periods, "events") as f64,
    );
    layers.set(
        "sim.events.frames_attempted",
        total_count(&periods, "frames_attempted") as f64,
    );
    layers.set(
        "sim.events.frames_delivered",
        total_count(&periods, "frames_delivered") as f64,
    );
    layers.set(
        "sim.events.ns_per_event",
        per(
            total_ns(&periods) as f64,
            total_count(&periods, "events") as f64,
        ),
    );
    layers.set(
        "sim.events.period_ns_p50",
        percentile_u64(&durations(&periods), 0.5) as f64,
    );
    layers.set(
        "sim.events.period_ns_max",
        durations(&periods).into_iter().max().unwrap_or(0) as f64,
    );

    // The actor fabric.
    let actor_steps: Vec<&Span> = rec.inside(window, "sim.actor.step").collect();
    layers.set("sim.actor.ns_per_receive", ns_per_receive(&actor_steps));

    traffic_from_trace(rec, traced, &all, window_ns, layers);
    chaos_from_trace(rec, traced, &gated, &eager, window_ns, layers);
}

fn traffic_from_trace(
    rec: &Recorder,
    traced: &RepOutcome,
    net_steps: &[&Span],
    window_ns: u64,
    layers: &mut Layers,
) {
    let resolve: Vec<&Span> = rec.named("traffic.plane.on_step.resolve").collect();
    let forward: Vec<&Span> = rec.named("traffic.plane.on_step.forward").collect();
    if resolve.is_empty() && forward.is_empty() {
        return;
    }
    layers.set(
        "traffic.demand.generate_s",
        secs(rec.total_ns("traffic.demand.generate")),
    );
    layers.set(
        "traffic.plane.add_flows_s",
        secs(rec.total_ns("traffic.plane.add_flows")),
    );
    let on_step_ns = total_ns(&resolve) + total_ns(&forward);
    layers.set("traffic.plane.on_step_s_total", secs(on_step_ns));
    layers.set(
        "traffic.plane.resolve_step_ns_p50",
        percentile_u64(&durations(&resolve), 0.5) as f64,
    );
    layers.set(
        "traffic.plane.forward_step_ns_p50",
        percentile_u64(&durations(&forward), 0.5) as f64,
    );
    layers.set(
        "traffic.plane.control_share",
        per(total_ns(net_steps) as f64, window_ns as f64),
    );
    // The rep's digest is the plane's own report; read the layer's
    // counts from it rather than widening the rep's result.
    let report = json::parse(&traced.digest).expect("TrafficReport::to_json is JSON");
    let field = |key: &str| report.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    let packet_hops = (field("mean_hops") * field("delivered")).round();
    layers.set("traffic.plane.steps", field("steps"));
    layers.set("traffic.plane.injected", field("injected"));
    layers.set("traffic.plane.delivered", field("delivered"));
    layers.set("traffic.plane.packet_hops", packet_hops);
    layers.set(
        "traffic.plane.route_resolutions",
        field("route_resolutions"),
    );
    layers.set(
        "traffic.plane.ns_per_packet_hop",
        per(on_step_ns as f64, packet_hops),
    );
    layers.set("traffic.plane.latency_p50_steps", field("latency_p50"));
    layers.set("traffic.plane.latency_p99_steps", field("latency_p99"));
}

fn chaos_from_trace(
    rec: &Recorder,
    traced: &RepOutcome,
    gated: &[&Span],
    eager: &[&Span],
    window_ns: u64,
    layers: &mut Layers,
) {
    let Some(certify) = rec.find("chaos.certify") else {
        return;
    };
    let injects: Vec<&Span> = rec.named("sim.faults.inject").collect();
    layers.set(
        "sim.faults.inject_ns",
        per(total_ns(&injects) as f64, injects.len() as f64),
    );
    layers.set("chaos.certify.injections", injects.len() as f64);
    let cert = json::parse(&traced.digest).expect("Certificate::to_json is JSON");
    let restabilized: f64 = match cert.get("classes") {
        Some(Value::Arr(classes)) => classes
            .iter()
            .filter_map(|c| c.get("restabilized").and_then(Value::as_f64))
            .sum(),
        _ => 0.0,
    };
    layers.set("chaos.certify.restabilized", restabilized);

    // Restabilization time per injection, read off the span stream:
    // steps from an injection to the last step before the next one in
    // which any node's state changed.
    let mut restab_steps: Vec<u64> = Vec::new();
    let mut since_inject: Option<(u64, u64)> = None; // (steps seen, last changed)
    for span in rec.spans() {
        match span.name {
            "sim.faults.inject" => {
                restab_steps.extend(since_inject.map(|(_, last)| last));
                since_inject = Some((0, 0));
            }
            "sim.network.step" => {
                if let Some((seen, last)) = &mut since_inject {
                    *seen += 1;
                    if span.count("changed") > 0 {
                        *last = *seen;
                    }
                }
            }
            "sim.network.step.eager" => {
                restab_steps.extend(since_inject.take().map(|(_, last)| last));
            }
            _ => {}
        }
    }
    restab_steps.extend(since_inject.map(|(_, last)| last));
    layers.set(
        "chaos.certify.restab_steps_p50",
        percentile_u64(&restab_steps, 0.5) as f64,
    );
    layers.set(
        "chaos.certify.restab_steps_p95",
        percentile_u64(&restab_steps, 0.95) as f64,
    );
    layers.set(
        "chaos.certify.active_share",
        per(
            total_count(gated, "updates") as f64,
            gated.len() as f64 * traced.nodes as f64,
        ),
    );
    layers.set(
        "chaos.certify.ns_per_msg",
        per(window_ns as f64, traced.msgs_total as f64),
    );
    layers.set("chaos.certify.self_s", secs(rec.self_ns(certify)));
    layers.set("chaos.certify.audit_s", secs(total_ns(eager)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_start_at_zero_and_cover_the_catalogue() {
        let mut layers = Layers::default();
        assert_eq!(layers.iter().count(), PER_LAYER.len());
        assert!(layers.iter().all(|(_, v)| v == 0.0));
        layers.set("trace.spans", 3.0);
        assert_eq!(layers.get("trace.spans"), 3.0);
    }

    #[test]
    #[should_panic(expected = "is not a per-layer metric")]
    fn unknown_names_are_refused() {
        Layers::default().set("made.up", 1.0);
    }

    #[test]
    fn per_guards_the_empty_layer() {
        assert_eq!(per(10.0, 0.0), 0.0);
        assert_eq!(per(10.0, 4.0), 2.5);
    }
}
