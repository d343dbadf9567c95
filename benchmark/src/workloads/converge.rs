//! The four `converge_*` workloads: cold start → stabilized, on each
//! driver.

use std::time::Instant;

use mwn_cluster::{extract_clustering, ClusterState, DensityCluster};
use mwn_graph::Topology;
use mwn_radio::{Medium, PerfectMedium, SlottedCsma};
use mwn_sim::{
    EventConfig, Network, Observable, Scenario, StabilityTracker, StepActivity, StopWhen,
};

use super::{
    close_window, open_window, protocol, spanned, traced_deployment, Digest, Job, RepOutcome,
    Tracer,
};
use crate::span::Recorder;

/// Step budget of every stop condition: far past any convergence seen,
/// so hitting it means "did not stabilize", not "ran out of time".
pub const STEP_BUDGET: u64 = 10_000;

/// Quiet streak that counts as stabilized, per driver (the values the
/// repo's own scaling benches use).
pub const QUIET_ROUNDS: u64 = 2;
pub const QUIET_EVENTS: u64 = 3;
pub const QUIET_ACTORS: u64 = 3;

/// CSMA mini-slots of `converge_csma`.
pub const CSMA_SLOTS: usize = 8;

/// The medium of a round-driver workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Radio {
    Perfect,
    Csma,
}

/// The observable output of one node: `(Id_p, H(p), F(p))`.
pub type Output = <DensityCluster as Observable>::Output;

/// The counts a step span carries.
pub type Counts = Vec<(&'static str, u64)>;

/// A step's activity counters, as span counts.
pub fn activity_counts(a: StepActivity) -> Counts {
    vec![
        ("senders", a.senders as u64),
        ("frames_attempted", a.frames_attempted as u64),
        ("frames_delivered", a.frames_delivered as u64),
        ("receives", a.receives as u64),
        ("updates", a.updates as u64),
        ("changed", a.changed as u64),
    ]
}

/// Runs one driver step inside a span named `name` and attaches the
/// counts it returns.
pub fn step_span(rec: &mut Recorder, name: &'static str, step: impl FnOnce() -> Counts) {
    let id = rec.enter(name);
    let counts = step();
    rec.exit(id);
    for (key, value) in counts {
        rec.count(id, key, value);
    }
}

/// Builds the round driver with the job's shard pin, inside a
/// `sim.scenario.build` span.
pub fn build_rounds<M: Medium>(
    rec: &mut Tracer<'_>,
    medium: M,
    topo: Topology,
    job: &Job,
) -> Network<DensityCluster, M> {
    let scenario = Scenario::new(protocol())
        .medium(medium)
        .topology(topo)
        .seed(job.seed)
        .shards(job.shards);
    spanned(rec, "sim.scenario.build", || {
        scenario
            .build()
            .expect("a generated deployment is a valid scenario")
    })
}

/// Drives `driver` one logical step at a time until its output has
/// been unchanged for `quiet` consecutive steps — the stop rule of
/// `StopWhen::stable_for(quiet).within(budget)` (and of the event
/// driver's `run_until_output_stable`) re-stated outside the driver, so
/// each step can sit in its own span. Returns whether it stabilized.
///
/// `step` performs step number `k` (1-based) and returns its counts; it
/// runs inside a span named `span`. The output projection and
/// comparison run in a `bench.stop_check` span so their cost is never
/// charged to a layer.
pub fn drive_stepwise<D>(
    rec: &mut Recorder,
    driver: &mut D,
    quiet: u64,
    span: &'static str,
    mut step: impl FnMut(&mut D, u64) -> Counts,
    mut outputs: impl FnMut(&D, &mut Vec<Output>),
) -> bool {
    let mut tracker: StabilityTracker<Output> = StabilityTracker::new(quiet);
    let mut buf: Vec<Output> = Vec::new();
    outputs(driver, &mut buf);
    let mut done = tracker.observe_slice(0, &buf);
    let mut k = 0u64;
    while !done && k < STEP_BUDGET {
        k += 1;
        step_span(rec, span, || step(driver, k));
        let check = rec.enter("bench.stop_check");
        outputs(driver, &mut buf);
        done = tracker.observe_slice(k, &buf);
        rec.exit(check);
    }
    done
}

/// Digest of a clustering output: every node's `(Id, H, F)`.
pub fn digest_states(states: &[ClusterState]) -> String {
    let mut d = Digest::default();
    for s in states {
        d.word(u64::from(s.dag_id));
        d.word(u64::from(s.head.value()));
        d.word(u64::from(s.parent.value()));
    }
    d.hex()
}

/// The output check every `converge_*` rep ends with: it stabilized and
/// the states it stabilized to are a clustering.
fn check_converged(
    rec: &mut Tracer<'_>,
    out: &mut RepOutcome,
    stabilized: bool,
    states: &[ClusterState],
) {
    out.attempted = 1;
    if !stabilized {
        out.fail(1, format!("no stabilization within {STEP_BUDGET} steps"));
    }
    let clustering = spanned(rec, "core.clustering.extract", || {
        extract_clustering(states)
    });
    if clustering.is_none() && stabilized {
        out.fail(1, "stabilized states are not a clustering".to_string());
    }
    out.digest = digest_states(states);
}

/// `converge_rounds` / `converge_csma`: the round driver from cold
/// start to `StopWhen::stable_for(2)`.
pub fn rounds(job: &Job, radio: Radio, mut rec: Tracer<'_>) -> RepOutcome {
    let t0 = Instant::now();
    let topo = traced_deployment(&mut rec, job.nodes, job.seed);
    match radio {
        Radio::Perfect => rounds_on(PerfectMedium, topo, job, t0, rec),
        Radio::Csma => rounds_on(SlottedCsma::new(CSMA_SLOTS), topo, job, t0, rec),
    }
}

fn rounds_on<M: Medium>(
    medium: M,
    topo: Topology,
    job: &Job,
    t0: Instant,
    mut rec: Tracer<'_>,
) -> RepOutcome {
    let mut out = RepOutcome {
        nodes: topo.len(),
        edges: topo.edge_count(),
        ..RepOutcome::default()
    };
    let mut net = build_rounds(&mut rec, medium, topo, job);
    assert!(net.is_gated(), "the workload measures the gated engine");
    out.setup_s = t0.elapsed().as_secs_f64();

    let window = open_window(&mut rec);
    let w0 = Instant::now();
    let stabilized = match &mut rec {
        None => net
            .run_to(&StopWhen::stable_for(QUIET_ROUNDS).within(STEP_BUDGET))
            .is_stable(),
        Some(rec) => drive_stepwise(
            rec,
            &mut net,
            QUIET_ROUNDS,
            "sim.network.step",
            |net, _| {
                net.step();
                activity_counts(net.last_activity())
            },
            |net, buf| net.outputs_into(buf),
        ),
    };
    out.wall_s = w0.elapsed().as_secs_f64();
    close_window(&mut rec, window);

    out.msgs_total = net.messages_total();
    out.sim_steps = net.now();
    out.transmissions = out.msgs_total;
    check_converged(&mut rec, &mut out, stabilized, net.states());
    out
}

/// `converge_events`: the continuous-time driver from cold start to
/// `run_until_output_stable(1.0, 3, …)`.
pub fn events(job: &Job, mut rec: Tracer<'_>) -> RepOutcome {
    let t0 = Instant::now();
    let topo = traced_deployment(&mut rec, job.nodes, job.seed);
    let mut out = RepOutcome {
        nodes: topo.len(),
        edges: topo.edge_count(),
        ..RepOutcome::default()
    };
    let scenario = Scenario::new(protocol()).topology(topo).seed(job.seed);
    let mut driver = spanned(&mut rec, "sim.scenario.build", || {
        scenario
            .build_events(EventConfig::default())
            .expect("a generated deployment is a valid event scenario")
    });
    assert!(driver.is_gated(), "the workload measures the gated engine");
    out.setup_s = t0.elapsed().as_secs_f64();

    let window = open_window(&mut rec);
    let w0 = Instant::now();
    let stabilized = match &mut rec {
        None => driver
            .run_until_output_stable(1.0, QUIET_EVENTS, STEP_BUDGET as f64)
            .is_some(),
        Some(rec) => drive_stepwise(
            rec,
            &mut driver,
            QUIET_EVENTS,
            "sim.events.period",
            |driver, k| {
                let (events, attempted, delivered) = (
                    driver.events_processed(),
                    driver.frames_attempted(),
                    driver.frames_delivered(),
                );
                driver.run_until_time(k as f64);
                vec![
                    ("events", driver.events_processed() - events),
                    ("frames_attempted", driver.frames_attempted() - attempted),
                    ("frames_delivered", driver.frames_delivered() - delivered),
                ]
            },
            |driver, buf| driver.outputs_into(buf),
        ),
    };
    out.wall_s = w0.elapsed().as_secs_f64();
    close_window(&mut rec, window);

    out.msgs_total = driver.messages_total();
    out.sim_steps = driver.time().round() as u64;
    out.transmissions = out.msgs_total;
    check_converged(&mut rec, &mut out, stabilized, driver.states());
    out
}

/// `converge_actors`: the actor fabric from cold start to
/// `StopWhen::stable_for(3)`.
pub fn actors(job: &Job, mut rec: Tracer<'_>) -> RepOutcome {
    let t0 = Instant::now();
    let topo = traced_deployment(&mut rec, job.nodes, job.seed);
    let mut out = RepOutcome {
        nodes: topo.len(),
        edges: topo.edge_count(),
        ..RepOutcome::default()
    };
    let scenario = Scenario::new(protocol()).topology(topo).seed(job.seed);
    let mut driver = spanned(&mut rec, "sim.scenario.build", || {
        scenario
            .build_actors(job.actor_threads)
            .expect("the perfect medium is proxyable")
    });
    assert!(driver.is_gated(), "the workload measures the gated engine");
    out.setup_s = t0.elapsed().as_secs_f64();

    let window = open_window(&mut rec);
    let w0 = Instant::now();
    let stabilized = match &mut rec {
        None => driver
            .run_to(&StopWhen::stable_for(QUIET_ACTORS).within(STEP_BUDGET))
            .is_stable(),
        Some(rec) => drive_stepwise(
            rec,
            &mut driver,
            QUIET_ACTORS,
            "sim.actor.step",
            |driver, _| {
                driver.step();
                activity_counts(driver.last_activity())
            },
            |driver, buf| driver.outputs_into(buf),
        ),
    };
    out.wall_s = w0.elapsed().as_secs_f64();
    close_window(&mut rec, window);

    out.msgs_total = driver.messages_total();
    out.sim_steps = driver.now();
    out.transmissions = out.msgs_total;
    check_converged(&mut rec, &mut out, stabilized, driver.states());
    out
}
