//! The benchmark's contract: every metric it reports, with unit,
//! direction and regression bound, and the `BENCHMARK.json` built from
//! the same tables — so the file the acceptance driver reads and the
//! numbers the program prints cannot drift apart.

use crate::json::Value;
use crate::workloads::Workload;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// An end-to-end metric: one a user of the system would see, gated by
/// `bound` — the share of the parent's median by which it may worsen.
#[derive(Clone, Copy, Debug)]
pub struct Gated {
    pub metric: Metric,
    pub bound: f64,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// How long one run measures, in seconds (`--seconds`' default and the
/// `run_seconds` the driver passes).
pub const RUN_SECONDS: u64 = 15;

/// The end-to-end metrics, every workload reporting all of them.
///
/// Timings are medians over the timed reps of a run, in seconds at the
/// reference speed (`calib.rs`). No metric derived from another
/// (`ns_per_op` beside the `wall_s` it was computed from) is gated:
/// per-unit costs live in the per-layer set.
///
/// The memory and count bounds are a little over three times the widest
/// spread (inter-quartile range over median of ten runs on ten seeds)
/// `selftest` saw for the metric on the sizing box. The timing bounds
/// cannot be: on that shared 2-vCPU VM a timing spreads 4–10 % in a
/// calm hour and 17 % in a busy one, and 0.25 is the most a bound may
/// be. `SELFTEST.md` and `SELFTEST-disturbed.md` have the numbers.
pub const END_TO_END: [Gated; 4] = [
    Gated {
        metric: lower("setup_s", "s"),
        bound: 0.25,
    },
    Gated {
        metric: lower("wall_s", "s"),
        bound: 0.25,
    },
    // Moves with the seed only through the Poisson node count and
    // where `Vec` capacities happen to double: spreads of 1–4 %.
    Gated {
        metric: lower("peak_rss_mb", "MiB"),
        bound: 0.12,
    },
    // A simulated count: it repeats exactly for one seed (and is
    // pinned in `golden.json` for the default one), so between two
    // commits it moves only when the simulation itself changes — the
    // guard against a "speed-up" that works by simulating something
    // else. Across seeds it spreads 0.5–5 % (widest on `traffic_quiet`,
    // where the hottest sinks' positions set the path lengths).
    Gated {
        metric: lower("transmissions", "count"),
        bound: 0.20,
    },
];

/// The per-layer metrics of a traced run (`--trace 1`). A layer a
/// workload never enters reports 0 work and 0 time there. The README's
/// interaction table says which end-to-end metric each should move, on
/// which workload.
pub const PER_LAYER: [Metric; 86] = [
    // The run itself: the simulated counts every rep must reproduce.
    lower("run.msgs_total", "count"),
    lower("run.sim_steps", "count"),
    // … and what the end-to-end timings were scaled from: the median
    // untraced window as the host's clock read it, and by what factor
    // the host ran the reference kernels slower (`calib.rs`).
    lower("run.host_wall_s", "s"),
    lower("run.host_slowdown", "ratio"),
    // graph
    lower("graph.poisson_s", "s"),
    lower("graph.components_s", "s"),
    lower("graph.nodes", "count"),
    lower("graph.edges", "count"),
    // sim.scenario
    lower("sim.scenario.build_s", "s"),
    lower("sim.scenario.bytes_per_node", "B"),
    // sim.network — the round driver
    lower("sim.network.steps", "count"),
    lower("sim.network.step_s_total", "s"),
    lower("sim.network.step_ns_p50", "ns"),
    lower("sim.network.step_ns_max", "ns"),
    lower("sim.network.senders", "count"),
    lower("sim.network.frames_attempted", "count"),
    lower("sim.network.frames_delivered", "count"),
    lower("sim.network.receives", "count"),
    lower("sim.network.updates", "count"),
    lower("sim.network.changed", "count"),
    lower("sim.network.ns_per_receive", "ns"),
    lower("sim.network.storm_ns_per_receive", "ns"),
    lower("sim.network.tail_ns_per_receive", "ns"),
    lower("sim.network.null_ns_per_receive", "ns"),
    lower("sim.network.protocol_share", "ratio"),
    lower("sim.network.quiet_ns_per_step", "ns"),
    lower("sim.network.eager_ns_per_node", "ns"),
    lower("sim.network.shard2_ratio", "ratio"),
    // core.protocol — DensityCluster called directly
    lower("core.protocol.receive_ns", "ns"),
    lower("core.protocol.update_ns", "ns"),
    lower("core.protocol.beacon_into_ns", "ns"),
    lower("core.protocol.receive_ns_small", "ns"),
    lower("core.protocol.locality_ratio", "ratio"),
    // core.clustering / core.routing
    lower("core.clustering.extract_s", "s"),
    lower("core.routing.view_build_s", "s"),
    lower("core.routing.view_builds", "count"),
    lower("core.routing.route_ns", "ns"),
    // radio
    lower("radio.perfect.deliver_ns_per_frame", "ns"),
    lower("radio.csma.deliver_ns_per_frame", "ns"),
    higher("radio.csma.delivered_share", "ratio"),
    lower("radio.csma.vs_perfect_ratio", "ratio"),
    lower("radio.occupancy.occupy_release_ns", "ns"),
    // sim.events — the continuous-time driver
    lower("sim.events.events_processed", "count"),
    lower("sim.events.frames_attempted", "count"),
    lower("sim.events.frames_delivered", "count"),
    lower("sim.events.ns_per_event", "ns"),
    lower("sim.events.period_ns_p50", "ns"),
    lower("sim.events.period_ns_max", "ns"),
    lower("sim.events.quiet_jump_ns", "ns"),
    lower("sim.events.vs_rounds_ratio", "ratio"),
    // sim.actor / sim.wire — the actor fabric and its codec
    lower("sim.actor.ns_per_receive", "ns"),
    lower("sim.actor.vs_rounds_ratio", "ratio"),
    lower("sim.actor.quiet_ns_per_step", "ns"),
    lower("sim.actor.threads2_ratio", "ratio"),
    lower("sim.wire.encode_ns", "ns"),
    lower("sim.wire.decode_ns", "ns"),
    lower("sim.wire.frame_bytes", "B"),
    // sim.kernels
    lower("sim.kernels.sorted_positions_ns", "ns"),
    // traffic
    lower("traffic.demand.generate_s", "s"),
    lower("traffic.plane.add_flows_s", "s"),
    lower("traffic.plane.steps", "count"),
    lower("traffic.plane.injected", "count"),
    higher("traffic.plane.delivered", "count"),
    lower("traffic.plane.packet_hops", "count"),
    lower("traffic.plane.route_resolutions", "count"),
    lower("traffic.plane.on_step_s_total", "s"),
    lower("traffic.plane.ns_per_packet_hop", "ns"),
    lower("traffic.plane.resolve_step_ns_p50", "ns"),
    lower("traffic.plane.forward_step_ns_p50", "ns"),
    lower("traffic.plane.control_share", "ratio"),
    lower("traffic.plane.latency_p50_steps", "steps"),
    lower("traffic.plane.latency_p99_steps", "steps"),
    lower("traffic.plane.shard2_ratio", "ratio"),
    // chaos / sim.faults
    lower("chaos.campaign.schedule_s", "s"),
    lower("sim.faults.inject_ns", "ns"),
    lower("chaos.certify.injections", "count"),
    higher("chaos.certify.restabilized", "count"),
    lower("chaos.certify.restab_steps_p50", "steps"),
    lower("chaos.certify.restab_steps_p95", "steps"),
    lower("chaos.certify.active_share", "ratio"),
    lower("chaos.certify.ns_per_msg", "ns"),
    lower("chaos.certify.self_s", "s"),
    lower("chaos.certify.audit_s", "s"),
    // the tracer itself
    lower("trace.overhead_ratio", "ratio"),
    lower("trace.spans", "count"),
    lower("trace.probes_s", "s"),
];

/// The benchmark's own directory, relative to the repository root.
pub const PATH: &str = "benchmark";

/// `BENCHMARK.json`, built from the tables above.
pub fn manifest() -> Value {
    let metric = |m: &Metric| {
        Value::obj()
            .with("name", m.name)
            .with("unit", m.unit)
            .with("better", m.better.as_str())
    };
    Value::obj()
        .with(
            "command",
            Value::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .iter()
                .map(|s| Value::from(*s))
                .collect(),
            ),
        )
        .with("paths", Value::Arr(vec![Value::from(PATH)]))
        .with("run_seconds", RUN_SECONDS)
        .with(
            "workloads",
            Value::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| Value::obj().with("name", w.name()).with("why", w.why()))
                    .collect(),
            ),
        )
        .with(
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|g| metric(&g.metric).with("bound", g.bound))
                    .collect(),
            ),
        )
        .with(
            "per_layer",
            Value::Arr(PER_LAYER.iter().map(metric).collect()),
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn every_name_is_well_formed_and_used_once() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|g| g.metric.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(Workload::ALL.iter().map(|w| w.name()));
        for name in names {
            assert!(well_formed(name), "`{name}` is not [A-Za-z0-9_.-]+");
            assert!(seen.insert(name), "`{name}` is used twice");
        }
    }

    #[test]
    fn units_are_well_formed() {
        for m in END_TO_END.iter().map(|g| &g.metric).chain(PER_LAYER.iter()) {
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit `{}` of `{}`",
                m.unit,
                m.name
            );
        }
    }

    #[test]
    fn counts_stay_inside_the_contract() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&Workload::ALL.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(manifest().to_pretty().len() <= 64 * 1024);
    }

    #[test]
    fn bounds_follow_the_rules() {
        let setup = END_TO_END
            .iter()
            .find(|g| g.metric.name == "setup_s")
            .expect("setup_s is mandatory");
        assert_eq!(
            (setup.metric.unit, setup.metric.better),
            ("s", Better::Lower)
        );
        for g in &END_TO_END {
            assert!(g.bound > 0.0 && g.bound <= 0.25, "{}", g.metric.name);
            assert!(
                g.bound <= setup.bound,
                "setup_s carries the largest bound, not {}",
                g.metric.name
            );
        }
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let committed = include_str!("../../BENCHMARK.json");
        // Not `assert_eq!`: two 300-line values side by side help nobody.
        assert!(
            crate::json::parse(committed).expect("BENCHMARK.json parses") == manifest(),
            "BENCHMARK.json is stale: regenerate with `benchmark manifest > BENCHMARK.json`"
        );
    }
}
