//! `restab_chaos`: `mwn_chaos::certify` on a stabilized round driver.

use std::time::Instant;

use mwn_chaos::{certify, CampaignSpec, Certificate, CertifyConfig, ChaosHarness, FaultKind};
use mwn_cluster::DensityCluster;
use mwn_graph::Topology;
use mwn_radio::PerfectMedium;
use mwn_sim::{Fault, Network, StopWhen};

use super::converge::{activity_counts, build_rounds, step_span, Output, STEP_BUDGET};
use super::{close_window, open_window, traced_deployment, Job, RepOutcome, Tracer};
use crate::span::Recorder;

type Net = Network<DensityCluster, PerfectMedium>;

const QUIET_BEFORE_CAMPAIGN: u64 = 5;
const DRAIN_STEPS: u64 = 5;

/// Seed of the campaign's *composition* — which fault kinds, how large,
/// for how long. It is deliberately not the run's seed: one corrupt-
/// fraction or jam costs a thousand single-node faults, so a campaign
/// redrawn per seed would make the work itself, not its cost, the thing
/// that varies between runs. The run's seed still decides where every
/// fault lands: victims, cuts and jam centres are drawn against the
/// seeded deployment.
pub const CAMPAIGN_SEED: u64 = 0x000C_4A05;

/// The campaign: healing faults only, so every injection must
/// restabilize.
pub fn campaign(quick: bool) -> CampaignSpec {
    CampaignSpec {
        seed: CAMPAIGN_SEED,
        injections: if quick { 6 } else { 12 },
        spacing: 12,
        max_window: 5,
        kinds: FaultKind::healing(),
    }
}

pub fn certify_config() -> CertifyConfig {
    CertifyConfig {
        horizon: 600,
        ..CertifyConfig::default()
    }
}

/// A stabilized, drained round driver and the deployment it runs on.
pub struct Prepared {
    pub net: Net,
    pub topo: Topology,
    pub stabilized: bool,
}

pub fn prepare(job: &Job, rec: &mut Tracer<'_>) -> Prepared {
    let topo = traced_deployment(rec, job.nodes, job.seed);
    let mut net = build_rounds(rec, PerfectMedium, topo.clone(), job);
    let stabilized = super::spanned(rec, "setup.stabilize", || {
        let report = net.run_to(&StopWhen::stable_for(QUIET_BEFORE_CAMPAIGN).within(STEP_BUDGET));
        net.run(DRAIN_STEPS);
        report.is_stable()
    });
    Prepared {
        net,
        topo,
        stabilized,
    }
}

/// The round driver seen through [`ChaosHarness`] with every call in a
/// span: `certify` drives this wrapper exactly as it would the bare
/// network, so the certifier's own bookkeeping is what is left as the
/// self time of `chaos.certify`.
pub struct TracedHarness<'a> {
    pub net: &'a mut Net,
    pub rec: &'a mut Recorder,
    eager: bool,
}

impl<'a> TracedHarness<'a> {
    pub fn new(net: &'a mut Net, rec: &'a mut Recorder) -> Self {
        TracedHarness {
            net,
            rec,
            eager: false,
        }
    }
}

impl ChaosHarness for TracedHarness<'_> {
    type Output = Output;

    fn inject(&mut self, fault: &Fault) {
        let net = &mut *self.net;
        self.rec.scope("sim.faults.inject", |_| {
            ChaosHarness::inject(net, fault);
        });
    }

    fn advance(&mut self, steps: u64) {
        // Steps of the forced-eager audit sweep get their own name: they
        // cost O(n) by design and would drown the sparse steps' stats.
        let name = if self.eager {
            "sim.network.step.eager"
        } else {
            "sim.network.step"
        };
        for _ in 0..steps {
            let net = &mut *self.net;
            step_span(self.rec, name, || {
                net.step();
                activity_counts(net.last_activity())
            });
        }
    }

    fn outputs(&self) -> Vec<Output> {
        // `&self`: the projection cannot open a span. It is the
        // certifier's per-step O(n) cost and stays in `chaos.certify`'s
        // self time, which is where it belongs.
        self.net.outputs()
    }

    fn set_eager(&mut self, eager: bool) {
        self.eager = eager;
        self.net.set_eager(eager);
    }

    fn now(&self) -> u64 {
        self.net.now()
    }
}

/// Runs the certification, traced or not.
pub fn run_certify(
    net: &mut Net,
    topo: &Topology,
    quick: bool,
    rec: &mut Tracer<'_>,
) -> Certificate {
    let spec = campaign(quick);
    let cfg = certify_config();
    let labels = ("density-cluster", "perfect", "round");
    match rec {
        None => certify(net, labels.0, labels.1, labels.2, &spec, topo, &cfg),
        Some(rec) => {
            let id = rec.enter("chaos.certify");
            let mut harness = TracedHarness::new(net, rec);
            let cert = certify(
                &mut harness,
                labels.0,
                labels.1,
                labels.2,
                &spec,
                topo,
                &cfg,
            );
            rec.exit(id);
            cert
        }
    }
}

pub fn rep(job: &Job, mut rec: Tracer<'_>) -> RepOutcome {
    let t0 = Instant::now();
    let Prepared {
        mut net,
        topo,
        stabilized,
    } = prepare(job, &mut rec);
    let mut out = RepOutcome {
        nodes: topo.len(),
        edges: topo.edge_count(),
        setup_s: t0.elapsed().as_secs_f64(),
        ..RepOutcome::default()
    };
    let (beacons_before, step_before) = (net.messages_total(), net.now());

    let window = open_window(&mut rec);
    let w0 = Instant::now();
    let cert = run_certify(&mut net, &topo, job.quick, &mut rec);
    out.wall_s = w0.elapsed().as_secs_f64();
    close_window(&mut rec, window);

    out.msgs_total = net.messages_total() - beacons_before;
    out.sim_steps = net.now() - step_before;
    out.transmissions = out.msgs_total;
    out.attempted = cert.injections.max(1) as u64;
    if !stabilized {
        out.fail(1, "round driver did not stabilize in set-up".to_string());
    }
    let restabilized: usize = cert.classes.iter().map(|c| c.restabilized).sum();
    if restabilized < cert.injections {
        out.fail(
            (cert.injections - restabilized) as u64,
            format!(
                "{} of {} injections did not restabilize",
                cert.injections - restabilized,
                cert.injections
            ),
        );
    }
    if !cert.is_clean() && restabilized == cert.injections {
        out.fail(1, format!("certificate not clean: {}", cert.headline()));
    }
    out.digest = cert.to_json();
    out
}
