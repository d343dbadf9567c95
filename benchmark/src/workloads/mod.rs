//! The six workloads: what each runs, how big, and why it exists.
//!
//! A *rep* is one complete seeded job — deployment, set-up, measured
//! window, output check — and every rep of a run is the identical job,
//! so its simulated counts must repeat exactly and only host time may
//! differ. Each workload offers the same rep twice: untraced (the
//! library's own run loops, what a user calls) and traced (the
//! benchmark drives the driver one step at a time and wraps every call
//! in a span); both must agree on every simulated count.

pub mod chaos;
pub mod converge;
pub mod traffic;

use mwn_cluster::{ClusterConfig, DensityCluster};
use mwn_graph::{builders, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::span::{Recorder, SpanId};

/// The seed every committed number was measured with (the paper's
/// conference date).
pub const DEFAULT_SEED: u64 = 20_050_610;

/// `--quick` divides every deployment by this.
pub const QUICK_DIVISOR: usize = 50;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ConvergeRounds,
    ConvergeCsma,
    ConvergeEvents,
    ConvergeActors,
    TrafficQuiet,
    RestabChaos,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::ConvergeRounds,
        Workload::ConvergeCsma,
        Workload::ConvergeEvents,
        Workload::ConvergeActors,
        Workload::TrafficQuiet,
        Workload::RestabChaos,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ConvergeRounds => "converge_rounds",
            Workload::ConvergeCsma => "converge_csma",
            Workload::ConvergeEvents => "converge_events",
            Workload::ConvergeActors => "converge_actors",
            Workload::TrafficQuiet => "traffic_quiet",
            Workload::RestabChaos => "restab_chaos",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line for `BENCHMARK.json`; the long form is in the README.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ConvergeRounds => {
                "Round driver, perfect medium, cold start to stabilized: protocol- and memory-bound dense storm, the ROADMAP headline"
            }
            Workload::ConvergeCsma => {
                "Same under SlottedCsma(8): the only workload where the radio layer does most of the work, with a long sparse tail"
            }
            Workload::ConvergeEvents => {
                "Same protocol on the continuous clock: event queue and per-frame scheduling dominate; bypasses the round driver"
            }
            Workload::ConvergeActors => {
                "Actor fabric: token governor, WireBeacon codec and mailboxes carry the cost; every other workload bypasses them"
            }
            Workload::TrafficQuiet => {
                "Data plane over a silent stabilized control plane, first packet to last: protocol and engine changes must show no change here"
            }
            Workload::RestabChaos => {
                "mwn_chaos::certify on a stabilized round driver: sparse fault-woken dirty sets plus forced-eager audit sweeps"
            }
        }
    }

    /// Mean deployment size. `converge_rounds` is sized for its regime:
    /// 290 MiB of per-node caches, past the sizing box's 260 MiB shared
    /// L3, so the headline stays memory-bound. The others are sized so
    /// one rep takes 1–2 s on a 2.1 GHz shared vCPU (a 15 s run then
    /// holds 7–12 timed reps for its median) and the simulated counts
    /// move under 5 % with the seed; `traffic_quiet` keeps the traffic
    /// bench's n = 10 000.
    pub fn nodes(self, quick: bool) -> usize {
        let full = match self {
            Workload::ConvergeRounds => 100_000,
            Workload::ConvergeCsma => 20_000,
            Workload::ConvergeEvents => 16_000,
            Workload::ConvergeActors => 32_000,
            Workload::TrafficQuiet => 10_000,
            Workload::RestabChaos => 30_000,
        };
        if quick {
            full / QUICK_DIVISOR
        } else {
            full
        }
    }
}

/// One seeded job: everything a rep is a function of.
#[derive(Clone, Copy, Debug)]
pub struct Job {
    pub workload: Workload,
    pub seed: u64,
    /// Mean deployment size; [`Workload::nodes`] unless a probe runs
    /// another driver on this workload's deployment.
    pub nodes: usize,
    pub quick: bool,
    /// Shards of the round driver's active pass and of the traffic
    /// plane's forwarding pass. Every timed rep pins 1, so a measured
    /// window runs on one thread and measures the program, not the
    /// scheduler of a shared 2-core box; the `*.shard2_ratio` probes
    /// run 2 to show what the pin hides.
    pub shards: usize,
    /// Worker threads of the actor fabric; pinned to 1 for the same
    /// reason, and because at 2 the peak resident set depends on the
    /// scheduler: over ten seeds it ranged 250–321 MiB (spread 0.115)
    /// against 161–165 MiB (0.020) at 1. `sim.actor.threads2_ratio`
    /// runs 2.
    pub actor_threads: usize,
}

impl Job {
    /// The job every timed rep runs.
    pub fn new(workload: Workload, seed: u64, quick: bool) -> Self {
        Job {
            workload,
            seed,
            nodes: workload.nodes(quick),
            quick,
            shards: 1,
            actor_threads: 1,
        }
    }
}

/// What one rep measured and produced.
#[derive(Clone, Debug, Default)]
pub struct RepOutcome {
    /// Host seconds before the measured window.
    pub setup_s: f64,
    /// Host seconds of the measured window.
    pub wall_s: f64,
    /// Beacons broadcast inside the measured window (simulated).
    pub msgs_total: u64,
    /// Simulated time to the stop condition: rounds, beacon periods or
    /// plane steps.
    pub sim_steps: u64,
    /// Simulated transmissions inside the measured window: beacons
    /// broadcast plus packet hops forwarded. Never zero, on any
    /// workload.
    pub transmissions: u64,
    /// Operations the rep attempted: one stabilization, every packet
    /// injected, every fault injected.
    pub attempted: u64,
    /// Operations that failed, with one line each in `failures`.
    pub failed: u64,
    pub failures: Vec<String>,
    /// A digest of the rep's complete output; every rep of a run must
    /// produce the same one.
    pub digest: String,
    pub nodes: usize,
    pub edges: usize,
}

impl RepOutcome {
    pub fn fail(&mut self, count: u64, why: String) {
        self.failed += count;
        self.failures.push(why);
    }
}

/// The tracer a rep is handed: `None` for a timed rep.
pub type Tracer<'a> = Option<&'a mut Recorder>;

/// Runs `f` inside a span when tracing, bare otherwise.
pub fn spanned<T>(rec: &mut Tracer<'_>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match rec {
        Some(rec) => {
            let id = rec.enter(name);
            let out = f();
            rec.exit(id);
            out
        }
        None => f(),
    }
}

/// Radius giving a Poisson unit-disk deployment of intensity `n` a mean
/// degree of 8.
pub fn radius_for(n: usize) -> f64 {
    (8.0 / (std::f64::consts::PI * n as f64)).sqrt()
}

/// The deployment every workload runs on: Poisson unit-disk, mean
/// degree 8.
pub fn deployment(n: usize, seed: u64) -> Topology {
    let mut rng = StdRng::seed_from_u64(seed);
    builders::poisson(n as f64, radius_for(n), &mut rng)
}

/// Opens the `window` span a traced rep's measured window runs in, so
/// layer metrics can tell work inside the window from set-up.
pub fn open_window(rec: &mut Tracer<'_>) -> Option<SpanId> {
    rec.as_mut().map(|rec| rec.enter("window"))
}

pub fn close_window(rec: &mut Tracer<'_>, window: Option<SpanId>) {
    if let (Some(rec), Some(id)) = (rec.as_mut(), window) {
        rec.exit(id);
    }
}

/// [`deployment`] inside a `graph.poisson` span carrying its size.
pub fn traced_deployment(rec: &mut Tracer<'_>, n: usize, seed: u64) -> Topology {
    let Some(rec) = rec else {
        return deployment(n, seed);
    };
    let id = rec.enter("graph.poisson");
    let topo = deployment(n, seed);
    rec.exit(id);
    rec.count(id, "nodes", topo.len() as u64);
    rec.count(id, "edges", topo.edge_count() as u64);
    topo
}

/// The protocol every workload runs: the paper's density clustering in
/// its silent (gateable) configuration.
pub fn protocol() -> DensityCluster {
    DensityCluster::new(ClusterConfig::default().event_driven())
}

/// FNV-1a over a stream of words: the output digest reps are compared
/// by.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Runs one rep of `job`, traced when `rec` is given.
///
/// # Panics
///
/// Panics if `MWN_FORCE_SHARDS` is set: every driver here is pinned to
/// one shard, and the variable would override the traffic plane's pin.
pub fn run_rep(job: &Job, rec: Tracer<'_>) -> RepOutcome {
    assert!(
        std::env::var_os("MWN_FORCE_SHARDS").is_none(),
        "unset MWN_FORCE_SHARDS: the benchmark pins every driver to one shard"
    );
    match job.workload {
        Workload::ConvergeRounds => converge::rounds(job, converge::Radio::Perfect, rec),
        Workload::ConvergeCsma => converge::rounds(job, converge::Radio::Csma, rec),
        Workload::ConvergeEvents => converge::events(job, rec),
        Workload::ConvergeActors => converge::actors(job, rec),
        Workload::TrafficQuiet => traffic::rep(job, rec),
        Workload::RestabChaos => chaos::rep(job, rec),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_whys_fit_one_line() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
            assert!(w.nodes(true) * QUICK_DIVISOR == w.nodes(false));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn deployment_is_a_function_of_its_seed() {
        let a = deployment(400, 3);
        let b = deployment(400, 3);
        let c = deployment(400, 4);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.edge_count(), b.edge_count());
        assert!(a.len() != c.len() || a.edge_count() != c.edge_count());
        let degree = a.mean_degree();
        assert!((5.0..11.0).contains(&degree), "mean degree {degree}");
    }

    #[test]
    fn digest_separates_inputs() {
        let mut a = Digest::default();
        a.word(1);
        a.word(2);
        let mut b = Digest::default();
        b.word(2);
        b.word(1);
        assert_ne!(a.hex(), b.hex());
        assert_eq!(a.hex().len(), 16);
    }
}
