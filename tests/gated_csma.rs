//! The gated-contention agreement suite: **gated CSMA ≡ eager CSMA,
//! distributionally**.
//!
//! Contention-coupled media cannot be gated byte-identically (muting a
//! silent sender changes everyone else's collision draws), so the
//! statistical-occupancy contract makes a weaker, still falsifiable
//! claim: folding the silent population into the collision draws — as
//! per-copy Bernoulli phantoms (ALOHA, capture) or a materialized
//! local cohort in the channel race (carrier sense) — reproduces the
//! *distribution* of every observable the paper reports. This suite pins that claim with
//! two-sample Wilson bands ([`wilson_overlap`]) over seed sweeps, per
//! cell of the {medium} × {contention level / τ} × {clock} grid:
//!
//! 1. **Delivery ratio** — the sharpest check, at the medium level:
//!    with half the population active and half occupied, the active
//!    frames' pooled delivery ratio under the statistical fold must
//!    match the same senders' ratio in an eager round where the other
//!    half *really* transmits. (Whole-run pooled ratios are *not*
//!    comparable: the entire point of gating is that the gated run
//!    never sends most of the eager run's frames, so the two
//!    populations differ by construction.)
//! 2. **Stabilization time**: the fraction of seeds stabilizing within
//!    a fixed budget must agree, per cell, on both clocks.
//! 3. **Cluster structure**: the pooled fraction of nodes electing
//!    themselves cluster-head at the end of the run must agree.
//!
//! Slot counts span the paper's τ ∈ [0.55, 0.95] contention range
//! (few slots → heavy contention, many slots → light), and both the
//! synchronous round clock and the continuous event clock are covered.

use mwn_metrics::wilson_overlap;
use rand::SeedableRng;
use selfstab::prelude::*;

const Z: f64 = 1.96;
/// The medium-level marginal leg pools per-copy outcomes, but copies
/// within one round share a single channel-race configuration, so the
/// binomial Wilson bands are narrower than the true sampling spread by
/// an (unknown) design effect. A wider quantile absorbs it; the
/// systematic model error this leg exists to catch is an order of
/// magnitude larger than the band either way.
const Z_MARGINAL: f64 = 3.0;

fn event_driven_config() -> ClusterConfig {
    ClusterConfig::default().event_driven()
}

fn topo_for(seed: u64) -> Topology {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC5AA ^ seed);
    builders::uniform(42, 0.2, &mut rng)
}

/// What one protocol run contributes to a cell's pooled comparisons.
#[derive(Clone, Copy, Debug, Default)]
struct RunStats {
    stabilized: bool,
    heads: usize,
    nodes: usize,
}

/// Asserts the Wilson-band agreements between a gated and an eager
/// sample of the same protocol cell.
fn assert_cell_agreement(label: &str, gated: &[RunStats], eager: &[RunStats]) {
    let pool = |runs: &[RunStats]| {
        runs.iter().fold((0usize, 0usize, 0usize), |acc, r| {
            (
                acc.0 + usize::from(r.stabilized),
                acc.1 + r.heads,
                acc.2 + r.nodes,
            )
        })
    };
    let (g_stab, g_heads, g_nodes) = pool(gated);
    let (e_stab, e_heads, e_nodes) = pool(eager);
    assert!(
        wilson_overlap(g_stab, gated.len(), e_stab, eager.len(), Z),
        "{label}: stabilization proportions diverged \
         (gated {g_stab}/{} vs eager {e_stab}/{})",
        gated.len(),
        eager.len()
    );
    assert!(
        wilson_overlap(g_heads, g_nodes, e_heads, e_nodes, Z),
        "{label}: cluster-head proportions diverged \
         (gated {g_heads}/{g_nodes} vs eager {e_heads}/{e_nodes})"
    );
}

/// One round-clock run to output stability (or the step budget).
fn run_round<M: Medium>(medium: M, seed: u64, eager: bool) -> RunStats {
    let mut net = Scenario::new(DensityCluster::new(event_driven_config()))
        .medium(medium)
        .topology(topo_for(seed))
        .seed(seed)
        .build()
        .expect("valid scenario");
    net.set_eager(eager);
    assert_eq!(
        net.is_gated(),
        !eager,
        "gated contention must enable round-driver gating"
    );
    let stabilized = net
        .run_to(&StopWhen::stable_for(6).within(400))
        .stabilized
        .is_some();
    let heads = net
        .topology()
        .nodes()
        .filter(|&p| net.state(p).head == p)
        .count();
    RunStats {
        stabilized,
        heads,
        nodes: net.topology().len(),
    }
}

/// One event-clock run: gated and eager twins evaluate the same medium
/// (gating only decides whether silent beacons are scheduled at all),
/// so the same distributional claim applies.
fn run_event<M: Medium>(medium: M, seed: u64, eager: bool) -> RunStats {
    let mut driver = Scenario::new(DensityCluster::new(event_driven_config()))
        .medium(medium)
        .topology(topo_for(seed))
        .seed(seed)
        .build_events(EventConfig::default())
        .expect("valid scenario");
    driver.set_eager(eager);
    assert_eq!(
        driver.is_gated(),
        !eager,
        "gated contention must enable event-driver gating"
    );
    let stabilized = driver.run_until_output_stable(1.0, 8, 250.0).is_some();
    let heads = driver
        .topology()
        .nodes()
        .filter(|&p| driver.state(p).head == p)
        .count();
    RunStats {
        stabilized,
        heads,
        nodes: driver.topology().len(),
    }
}

/// Fans a cell out over seeds with [`Sweep`], gated and eager twins on
/// identical derived seeds.
fn sweep_cell<M, F, R>(
    runs: usize,
    base_seed: u64,
    medium: F,
    run: R,
) -> (Vec<RunStats>, Vec<RunStats>)
where
    M: Medium,
    F: Fn() -> M + Sync,
    R: Fn(M, u64, bool) -> RunStats + Sync,
{
    let sweep = Sweep::over(runs, base_seed);
    let gated = sweep.map(|seed| run(medium(), seed, false));
    let eager = sweep.map(|seed| run(medium(), seed, true));
    (gated, eager)
}

/// The delivery-ratio leg, on identical frame populations: the even
/// nodes transmit, the odd nodes are silent — *really* transmitting in
/// the eager reference, statistically occupied in the gated sample —
/// and the even senders' pooled per-copy delivery ratio must fall in
/// one Wilson band across both.
fn assert_active_marginals_agree<M: Medium>(label: &str, mut medium: M, rounds: u64) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xF01D);
    let topo = builders::uniform(60, 0.2, &mut rng);
    let active: Vec<NodeId> = topo.nodes().filter(|p| p.index() % 2 == 0).collect();
    let all: Vec<NodeId> = topo.nodes().collect();
    let mut occupancy = Occupancy::new(topo.len());
    for p in topo.nodes().filter(|p| p.index() % 2 == 1) {
        occupancy.occupy(p, &topo);
    }

    let mut gated = (0u64, 0u64); // (delivered, attempted) for active
    let mut out = selfstab::radio::Delivery::empty(topo.len());
    for tick in 0..rounds {
        let streams = ContentionStreams::new(3, 5, tick);
        out.reset(topo.len());
        medium.deliver_occupied_into(&topo, &active, &occupancy, &streams, &mut out);
        gated.0 += out.delivered as u64;
        gated.1 += out.attempted as u64;
    }

    let mut eager = (0u64, 0u64);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xEA6E);
    for _ in 0..rounds {
        out.reset(topo.len());
        medium.deliver_into(&topo, &all, &mut rng, &mut out);
        for r in topo.nodes() {
            eager.0 += out.heard[r.index()]
                .iter()
                .filter(|s| s.index() % 2 == 0)
                .count() as u64;
        }
    }
    // Attempted copies of the active half are deterministic: their
    // total degree, per round.
    eager.1 = rounds * active.iter().map(|&s| topo.degree(s) as u64).sum::<u64>();
    assert_eq!(gated.1, eager.1, "{label}: active populations must match");

    assert!(
        wilson_overlap(
            gated.0 as usize,
            gated.1 as usize,
            eager.0 as usize,
            eager.1 as usize,
            Z_MARGINAL
        ),
        "{label}: active-sender delivery ratios diverged \
         (gated {}/{} = {:.4} vs eager {}/{} = {:.4})",
        gated.0,
        gated.1,
        gated.0 as f64 / gated.1 as f64,
        eager.0,
        eager.1,
        eager.0 as f64 / eager.1 as f64
    );
}

#[test]
fn statistical_fold_matches_eager_delivery_marginals() {
    for slots in [4usize, 8, 16] {
        assert_active_marginals_agree(
            &format!("slotted-csma/slots={slots}"),
            SlottedCsma::new(slots),
            200,
        );
    }
    assert_active_marginals_agree("capture-csma", CaptureCsma::new(8, 1.5), 200);
    assert_active_marginals_agree(
        "slotted-aloha/slots=8",
        SlottedCsma::new(8).without_carrier_sense(),
        200,
    );
}

#[test]
fn round_clock_slotted_csma_agrees_across_contention_levels() {
    // Slot counts bracket the paper's τ range: 4 slots is heavy
    // contention (τ near the low end), 16 slots light (τ near 0.95).
    for slots in [4usize, 16] {
        let (gated, eager) =
            sweep_cell(16, 7 + slots as u64, || SlottedCsma::new(slots), run_round);
        assert_cell_agreement(&format!("round/slotted-csma/slots={slots}"), &gated, &eager);
    }
}

#[test]
fn round_clock_capture_csma_agrees() {
    let (gated, eager) = sweep_cell(16, 23, || CaptureCsma::new(8, 1.5), run_round);
    assert_cell_agreement("round/capture-csma", &gated, &eager);
}

#[test]
fn event_clock_slotted_csma_agrees() {
    for slots in [4usize, 16] {
        let (gated, eager) =
            sweep_cell(10, 37 + slots as u64, || SlottedCsma::new(slots), run_event);
        assert_cell_agreement(&format!("event/slotted-csma/slots={slots}"), &gated, &eager);
    }
}

#[test]
fn event_clock_capture_csma_agrees() {
    let (gated, eager) = sweep_cell(10, 41, || CaptureCsma::new(8, 1.5), run_event);
    assert_cell_agreement("event/capture-csma", &gated, &eager);
}

#[test]
fn gated_csma_is_totally_silent_after_stabilization() {
    // The point of the whole exercise: a stabilized gated-CSMA network
    // runs quiet steps at zero messages, zero frames, zero guards —
    // where the eager fallback used to re-broadcast every beacon every
    // step forever.
    let mut net = Scenario::new(DensityCluster::new(event_driven_config()))
        .medium(SlottedCsma::new(8))
        .topology(topo_for(99))
        .seed(99)
        .build()
        .expect("valid scenario");
    net.run_to(&StopWhen::stable_for(10).within(800))
        .expect_stable("CSMA run stabilizes");
    // A few more steps may drain the last pending beacons (quiet
    // output does not instantly imply every neighbor caught up).
    net.run(5);
    let msgs = net.messages_total();
    for _ in 0..50 {
        net.step();
        let a = net.last_activity();
        assert_eq!(a.senders, 0, "quiet step must broadcast nothing");
        assert_eq!(a.frames_attempted, 0);
        assert_eq!(a.updates, 0, "quiet step must run no guards");
    }
    assert_eq!(net.messages_total(), msgs);
    // And no node is send-pending — every node is statistically
    // occupied —, so the phantom fold would still cost nothing: zero
    // senders short-circuits the draw.
    let (pending, _, _) = net.retirement_audit();
    assert!(pending.is_empty(), "no node is send-pending: {pending:?}");
}
