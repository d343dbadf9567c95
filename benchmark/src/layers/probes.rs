//! Differential runs and direct calls: the per-layer metrics a span
//! around a public function cannot give.
//!
//! * **Differential** — the same job with one thing changed (two shards,
//!   two actor threads, the perfect medium, the round driver, a null
//!   protocol), timed against the untraced median.
//! * **Direct** — a layer's public functions called in a loop on data
//!   captured from a run (protocol states and beacons snapshotted at
//!   step 3, the deployment's adjacency rows, a stabilized driver).
//!
//! Each probe runs only for the workloads whose `wall_s` or `setup_s`
//! its layer can move; elsewhere its metrics stay 0.

use std::hint::black_box;
use std::time::Instant;

use mwn_cluster::{ClusterBeacon, ClusterState};
use mwn_graph::{NodeId, Topology};
use mwn_radio::{Delivery, Medium, Occupancy, PerfectMedium, SlottedCsma};
use mwn_sim::{
    kernels, Activity, EventConfig, Observable, Protocol, Scenario, StopWhen, WireBeacon,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{per, Layers};
use crate::span::Recorder;
use crate::workloads::converge::{CSMA_SLOTS, QUIET_ACTORS, QUIET_EVENTS, STEP_BUDGET};
use crate::workloads::{chaos, deployment, protocol, run_rep, traffic, Job, RepOutcome, Workload};

/// What the probes compare against: the untraced reps of the same run.
#[derive(Clone, Copy, Debug)]
pub struct Baseline<'a> {
    /// Median untraced `wall_s`.
    pub wall_s: f64,
    /// Any one of those reps: they all produced the same output.
    pub rep: &'a RepOutcome,
}

impl Baseline<'_> {
    fn s_per_msg(&self) -> f64 {
        per(self.wall_s, self.rep.msgs_total as f64)
    }

    /// A differential rep that only changes how the work is spread over
    /// threads must be the same simulation, output included.
    fn assert_same_run(&self, other: &RepOutcome, claim: &str) {
        let key = |r: &RepOutcome| (r.msgs_total, r.sim_steps, r.transmissions);
        assert!(
            key(self.rep) == key(other) && self.rep.digest == other.digest,
            "{claim}: (msgs, steps, transmissions) {:?} vs {:?}",
            key(other),
            key(self.rep),
        );
    }
}

fn ns(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64
}

/// Runs every probe that applies to `job`'s workload, each inside a
/// `probe.*` span.
pub fn run(job: &Job, base: Baseline<'_>, rec: &mut Recorder, layers: &mut Layers) {
    let all = rec.enter("probes");
    match job.workload {
        Workload::ConvergeRounds => {
            rec.scope("probe.null_protocol", |_| {
                null_protocol(job, PerfectMedium, layers)
            });
            rec.scope("probe.shard2", |_| {
                shard2(job, base, "sim.network.shard2_ratio", layers)
            });
            rec.scope("probe.protocol", |_| protocol_direct(job, layers));
            rec.scope("probe.radio", |_| radio_perfect(job, layers));
        }
        Workload::ConvergeCsma => {
            rec.scope("probe.null_protocol", |_| {
                null_protocol(job, SlottedCsma::new(CSMA_SLOTS), layers)
            });
            rec.scope("probe.shard2", |_| {
                shard2(job, base, "sim.network.shard2_ratio", layers)
            });
            rec.scope("probe.protocol", |_| protocol_direct(job, layers));
            rec.scope("probe.radio", |_| {
                radio_perfect(job, layers);
                radio_csma(job, base, layers);
            });
        }
        Workload::ConvergeEvents => {
            rec.scope("probe.protocol", |_| protocol_direct(job, layers));
            rec.scope("probe.events", |_| events(job, base, layers));
        }
        Workload::ConvergeActors => {
            rec.scope("probe.protocol", |_| protocol_direct(job, layers));
            rec.scope("probe.actors", |_| actors(job, base, layers));
        }
        Workload::TrafficQuiet => {
            rec.scope("probe.traffic", |_| traffic_direct(job, layers));
            rec.scope("probe.shard2", |_| {
                shard2(job, base, "traffic.plane.shard2_ratio", layers)
            });
        }
        Workload::RestabChaos => {
            rec.scope("probe.protocol", |_| protocol_direct(job, layers));
            rec.scope("probe.chaos", |_| chaos_direct(job, layers));
        }
    }
    rec.exit(all);
    layers.set("trace.probes_s", rec.get(all).duration_ns() as f64 / 1e9);
    layers.set("trace.spans", rec.len() as f64);
}

// ---------------------------------------------------------------- engine

/// The permanent null-protocol row: a gated `u32` max-flood whose
/// `receive` and `update` cost next to nothing, so a step's time is the
/// engine's and the medium's alone.
struct NullFlood;

impl Protocol for NullFlood {
    type State = u32;
    type Beacon = u32;

    fn init(&self, node: NodeId, _rng: &mut StdRng) -> u32 {
        node.value()
    }
    fn beacon(&self, _node: NodeId, state: &u32) -> u32 {
        *state
    }
    fn receive(&self, _node: NodeId, state: &mut u32, _from: NodeId, beacon: &u32, _now: u64) {
        *state = (*state).max(*beacon);
    }
    fn update(&self, _node: NodeId, _state: &mut u32, _now: u64, _rng: &mut StdRng) {}
    fn activity(&self) -> Activity {
        Activity::Gated
    }
    fn beacon_changed(&self, old: &u32, new: &u32) -> bool {
        old != new
    }
}

impl Observable for NullFlood {
    type Output = u32;
    fn output(&self, _node: NodeId, state: &u32) -> u32 {
        *state
    }
}

/// Steps of the null-protocol run: long enough to cover the storm and a
/// stretch of the sparse tail, like the real protocol's convergence.
const NULL_STEPS: u64 = 40;

/// `sim.network.null_ns_per_receive` and `.protocol_share`: the same
/// deployment and medium under [`NullFlood`]. What is left of the
/// traced rep's ns per receive after subtracting this is the protocol's.
fn null_protocol<M: Medium>(job: &Job, medium: M, layers: &mut Layers) {
    let mut net = Scenario::new(NullFlood)
        .medium(medium)
        .topology(deployment(job.nodes, job.seed))
        .seed(job.seed)
        .shards(1)
        .build()
        .expect("a generated deployment is a valid scenario");
    let (mut step_ns, mut receives) = (0.0, 0u64);
    for _ in 0..NULL_STEPS {
        let t = Instant::now();
        net.step();
        step_ns += ns(t);
        receives += net.last_activity().receives as u64;
    }
    let null = per(step_ns, receives as f64);
    layers.set("sim.network.null_ns_per_receive", null);
    let full = layers.get("sim.network.ns_per_receive");
    if full > 0.0 {
        layers.set("sim.network.protocol_share", 1.0 - null / full);
    }
}

/// `*.shard2_ratio`: the untraced rep at two shards over the untraced
/// median at one — what pinning `.shards(1)` hides (or, on a 2-vCPU
/// shared box, what it spares the numbers).
fn shard2(job: &Job, base: Baseline<'_>, metric: &str, layers: &mut Layers) {
    let sharded = run_rep(&Job { shards: 2, ..*job }, None);
    base.assert_same_run(&sharded, "sharded and serial execution are byte-identical");
    layers.set(metric, per(sharded.wall_s, base.wall_s));
}

// -------------------------------------------------------------- protocol

/// Protocol states and the beacons they broadcast, snapshotted from a
/// round-driver run at step 3 — mid-storm, caches filling, which is
/// where the converging phase spends its time.
struct Snapshot {
    topo: Topology,
    states: Vec<ClusterState>,
    beacons: Vec<ClusterBeacon>,
}

const SNAPSHOT_STEP: u64 = 3;

fn snapshot(n: usize, seed: u64) -> Snapshot {
    let topo = deployment(n, seed);
    let mut net = Scenario::new(protocol())
        .topology(topo.clone())
        .seed(seed)
        .shards(1)
        .build()
        .expect("a generated deployment is a valid scenario");
    net.run(SNAPSHOT_STEP);
    let states = net.states().to_vec();
    let beacons = states
        .iter()
        .enumerate()
        .map(|(i, s)| net.protocol().beacon(NodeId::new(i as u32), s))
        .collect();
    Snapshot {
        topo,
        states,
        beacons,
    }
}

/// One pass of `receive` over every (node, neighbor) pair of the
/// snapshot, in the engine's order; returns (ns, calls).
fn receive_pass(snap: &Snapshot, states: &mut [ClusterState]) -> (f64, u64) {
    let p = protocol();
    let now = SNAPSHOT_STEP + 1;
    let mut calls = 0u64;
    let t = Instant::now();
    for (i, state) in states.iter_mut().enumerate() {
        let node = NodeId::new(i as u32);
        for &from in snap.topo.neighbors(node) {
            p.receive(node, state, from, &snap.beacons[from.index()], now);
            calls += 1;
        }
    }
    (ns(t), calls)
}

/// Node count of the cache-resident twin the locality ratio divides by.
const SMALL_NODES: usize = 1_000;

/// `core.protocol.*`, `sim.wire.*` and `sim.kernels.*`: direct calls on
/// a snapshot of the workload's own deployment.
fn protocol_direct(job: &Job, layers: &mut Layers) {
    let snap = snapshot(job.nodes, job.seed);
    let p = protocol();
    let now = SNAPSHOT_STEP + 1;
    let n = snap.states.len() as f64;

    let mut states = snap.states.clone();
    let (receive_ns, calls) = receive_pass(&snap, &mut states);
    layers.set("core.protocol.receive_ns", per(receive_ns, calls as f64));

    // `update` on states that have just received, as in a step.
    let mut rng = StdRng::seed_from_u64(job.seed);
    let t = Instant::now();
    for (i, state) in states.iter_mut().enumerate() {
        p.update(NodeId::new(i as u32), state, now, &mut rng);
    }
    layers.set("core.protocol.update_ns", per(ns(t), n));

    let mut scratch = snap.beacons[0].clone();
    let t = Instant::now();
    for (i, state) in states.iter().enumerate() {
        p.beacon_into(NodeId::new(i as u32), state, &mut scratch);
        black_box(&scratch);
    }
    layers.set("core.protocol.beacon_into_ns", per(ns(t), n));

    // The same receive loop where everything fits in L2: the ratio is
    // the price of the working set, the ROADMAP's "7× from 1k to 1M".
    let small = snapshot(SMALL_NODES.min(job.nodes), job.seed);
    let passes = (calls / (small.topo.edge_count() as u64 * 2).max(1)).clamp(1, 200);
    let (mut small_ns, mut small_calls) = (0.0, 0u64);
    for _ in 0..passes {
        let mut states = small.states.clone();
        let (pass_ns, pass_calls) = receive_pass(&small, &mut states);
        small_ns += pass_ns;
        small_calls += pass_calls;
    }
    let receive_small = per(small_ns, small_calls as f64);
    layers.set("core.protocol.receive_ns_small", receive_small);
    layers.set(
        "core.protocol.locality_ratio",
        per(layers.get("core.protocol.receive_ns"), receive_small),
    );

    wire(&snap.beacons, layers);
    sorted_positions(&snap.topo, layers);
}

/// `sim.wire.*`: the actor fabric's codec on real beacons.
fn wire(beacons: &[ClusterBeacon], layers: &mut Layers) {
    let n = beacons.len() as f64;
    let mut frame = Vec::new();
    let mut bytes = 0usize;
    let t = Instant::now();
    for beacon in beacons {
        frame.clear();
        beacon.encode(&mut frame);
        bytes += black_box(&frame).len();
    }
    layers.set("sim.wire.encode_ns", per(ns(t), n));
    layers.set("sim.wire.frame_bytes", per(bytes as f64, n));

    let frames: Vec<Vec<u8>> = beacons
        .iter()
        .map(|b| {
            let mut frame = Vec::new();
            b.encode(&mut frame);
            frame
        })
        .collect();
    let t = Instant::now();
    for (frame, beacon) in frames.iter().zip(beacons) {
        let decoded = ClusterBeacon::decode(frame).expect("an encoded beacon decodes");
        debug_assert_eq!(&decoded, beacon);
        black_box(decoded);
    }
    layers.set("sim.wire.decode_ns", per(ns(t), n));
}

/// `sim.kernels.sorted_positions_ns`: the delivery join on the
/// deployment's own adjacency rows (mean degree 8), every neighbor a
/// sender — one call per receiver, as in a storm step.
fn sorted_positions(topo: &Topology, layers: &mut Layers) {
    let mut acc = 0usize;
    let t = Instant::now();
    for node in topo.nodes() {
        let row = topo.neighbors(node);
        kernels::sorted_positions(row, row, |position, _| acc += position);
    }
    let elapsed = ns(t);
    black_box(acc);
    layers.set(
        "sim.kernels.sorted_positions_ns",
        per(elapsed, topo.len() as f64),
    );
}

// ----------------------------------------------------------------- radio

/// Delivery passes per medium probe: every node sends in each.
const RADIO_PASSES: usize = 5;

/// Times `Medium::deliver_into` with every node sending; returns
/// (ns per frame copy attempted, delivered ÷ attempted).
fn deliver_all<M: Medium>(mut medium: M, topo: &Topology, seed: u64) -> (f64, f64) {
    let senders: Vec<NodeId> = topo.nodes().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Delivery::empty(topo.len());
    let (mut total_ns, mut attempted, mut delivered) = (0.0, 0usize, 0usize);
    for _ in 0..RADIO_PASSES {
        out.reset(topo.len());
        let t = Instant::now();
        medium.deliver_into(topo, &senders, &mut rng, &mut out);
        total_ns += ns(t);
        attempted += out.attempted;
        delivered += out.delivered;
    }
    (
        per(total_ns, attempted as f64),
        per(delivered as f64, attempted as f64),
    )
}

fn radio_perfect(job: &Job, layers: &mut Layers) {
    let topo = deployment(job.nodes, job.seed);
    let (ns_per_frame, _) = deliver_all(PerfectMedium, &topo, job.seed);
    layers.set("radio.perfect.deliver_ns_per_frame", ns_per_frame);
}

fn radio_csma(job: &Job, base: Baseline<'_>, layers: &mut Layers) {
    let topo = deployment(job.nodes, job.seed);
    let (ns_per_frame, share) = deliver_all(SlottedCsma::new(CSMA_SLOTS), &topo, job.seed);
    layers.set("radio.csma.deliver_ns_per_frame", ns_per_frame);
    layers.set("radio.csma.delivered_share", share);

    // The bookkeeping that lets a contention medium gate silent senders.
    let nodes: Vec<NodeId> = topo.nodes().collect();
    let mut occupancy = Occupancy::new(topo.len());
    let t = Instant::now();
    for &q in &nodes {
        occupancy.occupy(q, &topo);
    }
    for &q in &nodes {
        occupancy.release(q, &topo);
    }
    let elapsed = ns(t);
    black_box(&occupancy);
    layers.set(
        "radio.occupancy.occupy_release_ns",
        per(elapsed, 2.0 * nodes.len() as f64),
    );

    // Cost of one beacon broadcast under CSMA over the same under the
    // perfect medium, same deployment, same driver.
    let perfect = run_rep(
        &Job {
            workload: Workload::ConvergeRounds,
            ..*job
        },
        None,
    );
    layers.set(
        "radio.csma.vs_perfect_ratio",
        per(
            base.s_per_msg(),
            per(perfect.wall_s, perfect.msgs_total as f64),
        ),
    );
}

// ------------------------------------------------------- events / actors

/// Host seconds per beacon broadcast of the round driver on `job`'s
/// deployment: the denominator of the `vs_rounds_ratio`s.
fn rounds_s_per_msg(job: &Job) -> f64 {
    let rounds = run_rep(
        &Job {
            workload: Workload::ConvergeRounds,
            ..*job
        },
        None,
    );
    per(rounds.wall_s, rounds.msgs_total as f64)
}

/// Simulated periods of the quiet jump.
const QUIET_JUMP_PERIODS: f64 = 1_000.0;

fn events(job: &Job, base: Baseline<'_>, layers: &mut Layers) {
    layers.set(
        "sim.events.vs_rounds_ratio",
        per(base.s_per_msg(), rounds_s_per_msg(job)),
    );

    // One clock jump across a silent stretch of a stabilized driver:
    // O(1) by design. (BENCH_events.json divided this by the jump's
    // length and called it "periods per second".)
    let mut driver = Scenario::new(protocol())
        .topology(deployment(job.nodes, job.seed))
        .seed(job.seed)
        .build_events(EventConfig::default())
        .expect("a generated deployment is a valid event scenario");
    driver
        .run_until_output_stable(1.0, QUIET_EVENTS, STEP_BUDGET as f64)
        .expect("the workload's own rep stabilized on this deployment");
    driver.run_until_time(driver.time() + 20.0);
    let target = driver.time() + QUIET_JUMP_PERIODS;
    let t = Instant::now();
    driver.run_until_time(target);
    layers.set("sim.events.quiet_jump_ns", ns(t));
}

/// Quiet periods timed on the stabilized actor fabric.
const ACTOR_QUIET_STEPS: u64 = 2_000;

fn actors(job: &Job, base: Baseline<'_>, layers: &mut Layers) {
    layers.set(
        "sim.actor.vs_rounds_ratio",
        per(base.s_per_msg(), rounds_s_per_msg(job)),
    );

    let two = run_rep(
        &Job {
            actor_threads: 2,
            ..*job
        },
        None,
    );
    base.assert_same_run(
        &two,
        "the actor fabric replays the same run on any thread count",
    );
    layers.set("sim.actor.threads2_ratio", per(two.wall_s, base.wall_s));

    // Stabilized and gated, a period is pure governor bookkeeping.
    let mut driver = Scenario::new(protocol())
        .topology(deployment(job.nodes, job.seed))
        .seed(job.seed)
        .build_actors(job.actor_threads)
        .expect("the perfect medium is proxyable");
    let report = driver.run_to(&StopWhen::stable_for(QUIET_ACTORS).within(STEP_BUDGET));
    assert!(report.is_stable(), "the workload's own rep stabilized here");
    driver.run(20);
    let t = Instant::now();
    driver.run(ACTOR_QUIET_STEPS);
    layers.set(
        "sim.actor.quiet_ns_per_step",
        per(ns(t), ACTOR_QUIET_STEPS as f64),
    );
}

// ------------------------------------------------------- traffic / chaos

/// Gated steps timed on the stabilized control plane.
const QUIET_STEPS: u64 = 10_000;
/// Source/destination pairs the routing probe resolves.
const ROUTE_PAIRS: usize = 1_000;

fn traffic_direct(job: &Job, layers: &mut Layers) {
    use mwn_cluster::RoutingView;

    let prepared = traffic::prepare(job, &mut None);
    let mut net = prepared.net;

    // What the silent control plane costs the data plane per step: it
    // must stay ≈ 0 for "protocol changes show no change here" to hold.
    let t = Instant::now();
    net.run(QUIET_STEPS);
    layers.set(
        "sim.network.quiet_ns_per_step",
        per(ns(t), QUIET_STEPS as f64),
    );

    let view = traffic::cluster_view(net.topology(), net.states())
        .expect("a stabilized network has a consistent clustering");
    let pairs = &prepared.flows[..ROUTE_PAIRS.min(prepared.flows.len())];
    let mut hops = 0usize;
    let t = Instant::now();
    for flow in pairs {
        hops += view
            .route(net.topology(), flow.src, flow.dst)
            .map_or(0, |route| route.len());
    }
    let elapsed = ns(t);
    black_box(hops);
    layers.set("core.routing.route_ns", per(elapsed, pairs.len() as f64));
}

fn chaos_direct(job: &Job, layers: &mut Layers) {
    let topo = deployment(job.nodes, job.seed);
    let spec = chaos::campaign(job.quick);
    let t = Instant::now();
    let schedule = spec.schedule(&topo);
    let elapsed = ns(t);
    black_box(schedule);
    layers.set("chaos.campaign.schedule_s", elapsed / 1e9);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwn_graph::builders;

    #[test]
    fn null_flood_honours_the_silence_contract_and_floods_the_max() {
        let mut net = Scenario::new(NullFlood)
            .topology(builders::line(6))
            .build()
            .expect("builds");
        assert!(net.is_gated());
        let report = net.run_to(&StopWhen::stable_for(2).within(50));
        assert!(report.is_stable());
        assert!(net.states().iter().all(|&s| s == 5));
        net.run(3);
        assert_eq!(net.last_activity().senders, 0, "silent once stable");
    }

    #[test]
    fn snapshot_is_mid_storm_and_receive_pass_counts_every_pair() {
        let snap = snapshot(300, 5);
        assert_eq!(snap.states.len(), snap.topo.len());
        assert_eq!(snap.beacons.len(), snap.topo.len());
        assert!(snap.beacons.iter().any(|b| !b.view.is_empty()));
        let mut states = snap.states.clone();
        let (_, calls) = receive_pass(&snap, &mut states);
        assert_eq!(calls as usize, snap.topo.edge_count() * 2);
    }

    #[test]
    fn direct_probes_fill_their_metrics() {
        let job = Job::new(Workload::ConvergeCsma, 9, true);
        let mut layers = Layers::default();
        protocol_direct(&job, &mut layers);
        radio_perfect(&job, &mut layers);
        for name in [
            "core.protocol.receive_ns",
            "core.protocol.update_ns",
            "core.protocol.beacon_into_ns",
            "core.protocol.receive_ns_small",
            "core.protocol.locality_ratio",
            "sim.wire.encode_ns",
            "sim.wire.decode_ns",
            "sim.wire.frame_bytes",
            "sim.kernels.sorted_positions_ns",
            "radio.perfect.deliver_ns_per_frame",
        ] {
            assert!(layers.get(name) > 0.0, "`{name}` was not measured");
        }
    }
}
