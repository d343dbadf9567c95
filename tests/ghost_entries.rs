//! Regression pin for the [`FreshnessPolicy::EventDriven`] **ghost
//! entry gap** — the documented trade-off of silent freshness.
//!
//! Under `EventDriven` freshness the update pass only purges cache
//! entries whose timestamp lies in the *future* (`last_seen > now`):
//! live entries must survive arbitrarily long silence, so there is no
//! wall-clock sweep to kill a **past-stamped** forgery. A corrupted
//! ghost entry naming a node that is not (and never was) a neighbor
//! therefore survives until update pressure from the real neighborhood
//! overwrites whatever the ghost influenced — the entry itself is never
//! evicted.
//!
//! These tests pin the *current, documented* behavior on both the
//! round driver and the actor driver, so the future purge PR flips
//! exactly one assertion per driver
//! (`past_stamped_ghost_survives_silence*`) instead of discovering the
//! gap by accident.
//!
//! A *topology swap* must not open the gap either: every link it cuts
//! fires `link_down`, which evicts the departed neighbor's entry, so a
//! swapped, restabilized network holds no entry naming a non-neighbor
//! (`a_swap_leaves_no_ghost_neighbours_on_every_clock`).

use mwn_cluster::NeighborEntry;
use rand::SeedableRng;
use selfstab::prelude::*;

fn event_driven_config() -> ClusterConfig {
    ClusterConfig::default().event_driven()
}

/// The forged cache entry: a never-existing neighbor with a timestamp
/// `stamp` and an absurd density claim.
fn ghost(stamp: u64) -> NeighborEntry {
    NeighborEntry {
        last_seen: stamp,
        dag_id: 0,
        density: Density::integer(99),
        head: NodeId::new(999),
        view: Vec::new(),
    }
}

#[test]
fn future_stamped_ghost_is_purged_immediately() {
    // The half of the contract that DOES hold under EventDriven: a
    // forged timestamp from the future is swept on the next update.
    let mut net = Scenario::new(DensityCluster::new(event_driven_config()))
        .topology(builders::line(3))
        .seed(13)
        .build()
        .expect("valid scenario");
    net.run(5);
    net.state_mut(NodeId::new(0))
        .cache
        .insert(NodeId::new(999), ghost(u64::MAX));
    net.run(2);
    assert!(
        !net.state(NodeId::new(0))
            .cache
            .contains_key(&NodeId::new(999)),
        "future-stamped ghost must be expired"
    );
}

#[test]
fn past_stamped_ghost_survives_silence() {
    // The gap itself: `retain(|_, e| e.last_seen <= now)` keeps any
    // entry whose stamp is in the past, and silence means no other
    // mechanism ever touches it. When a purge lands (e.g. evicting
    // cache keys outside the adjacency list), flip this assertion.
    let mut net = Scenario::new(DensityCluster::new(event_driven_config()))
        .topology(builders::line(3))
        .seed(13)
        .build()
        .expect("valid scenario");
    net.run_to(&StopWhen::stable_for(4).within(200))
        .expect_stable("clean stabilization before the forgery");
    let stamp = net.now().saturating_sub(1);
    net.state_mut(NodeId::new(0))
        .cache
        .insert(NodeId::new(999), ghost(stamp));
    // Long quiet stretch: neighbors re-beacon (the mutation reset the
    // node's reception row), states re-settle — the ghost stays.
    net.run(100);
    assert!(
        net.state(NodeId::new(0))
            .cache
            .contains_key(&NodeId::new(999)),
        "documented gap: past-stamped ghosts survive silence — if this \
         fails, the purge PR landed and this test should assert eviction"
    );
}

#[test]
fn past_stamped_ghost_survives_silence_on_the_actor_driver() {
    // Same pin on the actor fabric: the gap is a protocol property, so
    // every driver must exhibit it identically.
    let mut actors = Scenario::new(DensityCluster::new(event_driven_config()))
        .topology(builders::line(3))
        .seed(13)
        .build_actors(2)
        .expect("valid actor scenario");
    actors
        .run_to(&StopWhen::stable_for(4).within(200))
        .expect_stable("clean stabilization before the forgery");
    let stamp = actors.now().saturating_sub(1);
    actors
        .state_mut(NodeId::new(0))
        .cache
        .insert(NodeId::new(999), ghost(stamp));
    actors.run(100);
    assert!(
        actors
            .state(NodeId::new(0))
            .cache
            .contains_key(&NodeId::new(999)),
        "the ghost gap must be driver-independent"
    );
}

#[test]
fn ttl_sweep_still_purges_past_stamped_ghosts() {
    // The legacy policy has no such gap: the TTL sweep kills any entry
    // older than cache_ttl, forged or not — the control group showing
    // the gap is specific to EventDriven freshness.
    let mut net = Scenario::new(DensityCluster::new(ClusterConfig::default()))
        .topology(builders::line(3))
        .seed(13)
        .build()
        .expect("valid scenario");
    net.run(10);
    let stamp = net.now().saturating_sub(1);
    net.state_mut(NodeId::new(0))
        .cache
        .insert(NodeId::new(999), ghost(stamp));
    net.run(ClusterConfig::default().cache_ttl + 2);
    assert!(
        !net.state(NodeId::new(0))
            .cache
            .contains_key(&NodeId::new(999)),
        "TtlSweep must expire stale entries regardless of origin"
    );
}

/// Cache entries, over all nodes, that name a node outside the owner's
/// 1-neighborhood.
fn ghosts(states: &[ClusterState], topo: &Topology) -> usize {
    let named = |(p, s): (usize, &ClusterState)| {
        let p = NodeId::new(p as u32);
        s.cache.keys().filter(|&&q| !topo.has_edge(p, q)).count()
    };
    states.iter().enumerate().map(named).sum()
}

/// On the clock `build` deploys: a gated `EventDriven` clustering of 60
/// nodes stabilizes, then the topology is swapped for one without every
/// 7th link and with a few new ones, by an injected
/// [`Fault::SetTopology`]. After restabilizing, no cache entry may name a non-neighbor (the cache has
/// no TTL to age one out) and the clustering must be the oracle's.
fn swap_leaves_no_ghosts<C: Clock<DensityCluster>>(
    label: &str,
    build: impl Fn(&Topology) -> Sim<DensityCluster, C>,
) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let topo = builders::uniform(60, 0.2, &mut rng);
    let mut swapped = topo.clone();
    for (u, v) in topo.edges().step_by(7) {
        swapped.remove_edge(u, v);
    }
    for p in (0..30).step_by(5).map(NodeId::new) {
        swapped
            .add_edge(p, NodeId::new(p.value() + 30))
            .expect("in range");
    }
    assert!(topo.edges().any(|(u, v)| !swapped.has_edge(u, v)));
    assert!(swapped.edges().any(|(u, v)| !topo.has_edge(u, v)));
    let stop = StopWhen::stable_for(4).within(2000);
    let mut d = build(&topo);
    d.run_to(&stop).expect_stable("the deployment stabilizes");
    d.inject(&Fault::SetTopology(swapped.clone()))
        .expect("same node count");
    d.run_to(&stop)
        .expect_stable("the swapped deployment stabilizes");
    assert_eq!(ghosts(d.states(), &swapped), 0, "{label}: ghost entries");
    let got = extract_clustering(d.states()).expect("a clean clustering");
    assert_eq!(got, oracle(&swapped, &OracleConfig::default()), "{label}");
}

#[test]
fn a_swap_leaves_no_ghost_neighbours_on_every_clock() {
    let scenario = |topo: &Topology| {
        Scenario::new(DensityCluster::new(event_driven_config()))
            .topology(topo.clone())
            .seed(7)
    };
    swap_leaves_no_ghosts("rounds", |t| scenario(t).build().expect("valid"));
    swap_leaves_no_ghosts("events", |t| {
        let events = scenario(t).build_events(EventConfig::default());
        events.expect("valid event scenario")
    });
    swap_leaves_no_ghosts("actors", |t| {
        scenario(t).build_actors(1).expect("valid actor scenario")
    });
}
