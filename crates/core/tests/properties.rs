//! Property-based tests: the paper's theorems and structural claims,
//! checked on randomized topologies and adversarial states.

use std::collections::BTreeMap;

use mwn_cluster::{
    check_legitimate, density_of, extract_clustering, extract_dag_ids, is_locally_unique, keys_of,
    new_id, oracle, ClusterBeacon, ClusterConfig, ClusterState, DagConfig, DagProtocol, DagVariant,
    Density, DensityCluster, FreshnessPolicy, HeadRule, Key, MetricKind, NameSpace, NeighborCache,
    NeighborEntry, OracleConfig, OrderKind, PeerSummary,
};
use mwn_graph::{builders, NodeId, Topology};
use mwn_radio::BernoulliLoss;
use mwn_sim::{
    put_u32, Activity, Corruptible, EventConfig, EventDriver, Fault, FaultPlan, Protocol, Scenario,
    StopWhen, WireBeacon,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn unit_disk(n: usize, r_percent: u32, seed: u64) -> Topology {
    let mut rng = StdRng::seed_from_u64(seed);
    builders::uniform(n, f64::from(r_percent) / 100.0, &mut rng)
}

fn topo_strategy() -> impl Strategy<Value = Topology> {
    (5usize..60, 8u32..30, 0u64..u64::MAX).prop_map(|(n, r, s)| unit_disk(n, r, s))
}

/// Definition 1 from distributed knowledge: the node's sorted neighbor
/// set and, for each neighbor, that neighbor's own neighbor set (what
/// beacons carry after two steps — the paper's Table 2). `tables[i]`
/// is the neighbor table of `neighbors[i]`.
fn density_from_tables(me: NodeId, neighbors: &[NodeId], tables: &[&[NodeId]]) -> Density {
    assert_eq!(neighbors.len(), tables.len());
    density_from_rows(
        me,
        neighbors.len() as u32,
        neighbors
            .iter()
            .copied()
            .zip(tables.iter().map(|t| t.iter().copied())),
        |r| neighbors.binary_search(&r).is_ok(),
    )
}

/// [`density_from_tables`] off any iterator of `(neighbor, its
/// neighbor ids)` rows plus a membership test for the node's own
/// neighbor set: the recount the cache model checks
/// `NeighborCache::neighborhood_links` against (the protocol itself
/// reads that count through `MetricKind::value_from_counts`).
///
/// `rows` must yield neighbors in ascending order and `contains` must
/// answer membership in exactly that neighbor set.
fn density_from_rows<I, J, F>(me: NodeId, degree: u32, rows: I, contains: F) -> Density
where
    I: IntoIterator<Item = (NodeId, J)>,
    J: IntoIterator<Item = NodeId>,
    F: Fn(NodeId) -> bool,
{
    let mut links = degree; // edges from me to each neighbor
    for (q, row) in rows {
        for r in row {
            // Count each among-neighbor edge (q, r) once: q < r, and r
            // must also be my neighbor (not me, handled by r != me).
            if r != me && q < r && contains(r) {
                links += 1;
            }
        }
    }
    Density::ratio(links, degree)
}

fn key_strategy() -> impl Strategy<Value = Key> {
    (0u32..20, 1u32..8, any::<bool>(), 0u32..12, 0u32..40).prop_map(
        |(links, deg, is_head, tb, id)| {
            Key::new(Density::ratio(links, deg), is_head, tb, NodeId::new(id))
        },
    )
}

fn beacon_strategy() -> impl Strategy<Value = ClusterBeacon> {
    let word = || 0u32..=u32::MAX;
    let summary = (word(), word(), word(), 1u32..=u32::MAX, word()).prop_map(
        |(id, dag_id, links, degree, head)| PeerSummary {
            id: NodeId::new(id),
            dag_id,
            density: Density::ratio(links, degree),
            head: NodeId::new(head),
        },
    );
    (
        word(),
        word(),
        1u32..=u32::MAX,
        word(),
        proptest::collection::vec(summary, 0..12),
    )
        .prop_map(|(dag_id, links, degree, head, view)| ClusterBeacon {
            dag_id,
            density: Density::ratio(links, degree),
            head: NodeId::new(head),
            view,
        })
}

/// `decode_into` against `decode` on one byte string, for a pooled
/// beacon holding anything: same verdict, same beacon on success, the
/// pool untouched on failure.
fn check_codec_agreement(bytes: &[u8], pooled: &ClusterBeacon) -> Result<(), TestCaseError> {
    let mut out = pooled.clone();
    let accepted = ClusterBeacon::decode_into(bytes, &mut out);
    match ClusterBeacon::decode(bytes) {
        Some(decoded) => {
            prop_assert!(
                accepted,
                "decode accepts {} bytes, decode_into does not",
                bytes.len()
            );
            prop_assert_eq!(&out, &decoded);
        }
        None => {
            prop_assert!(
                !accepted,
                "decode rejects {} bytes, decode_into does not",
                bytes.len()
            );
            prop_assert_eq!(&out, pooled);
        }
    }
    Ok(())
}

/// Ids of the cache and report properties: a space small enough that
/// keys, view entries and the node's own id collide all the time.
const SMALL_IDS: u32 = 10;

fn small_id(rng: &mut StdRng) -> NodeId {
    NodeId::new(rng.random_range(0..SMALL_IDS))
}

/// A density out of a handful of values, each in several bitwise
/// different spellings (`1/2`, `2/4`, `3/6`).
fn small_density(rng: &mut StdRng) -> Density {
    let k: u32 = rng.random_range(1..4);
    Density::ratio(k * rng.random_range(0..4u32), k * rng.random_range(1..3u32))
}

/// A view of `len` summaries: ids repeated and unsorted, the way
/// `Corruptible::corrupt` leaves them.
fn small_view(rng: &mut StdRng, len: usize) -> Vec<PeerSummary> {
    let summary = |rng: &mut StdRng| PeerSummary {
        id: small_id(rng),
        dag_id: rng.random_range(0..4),
        density: small_density(rng),
        head: small_id(rng),
    };
    (0..len).map(|_| summary(rng)).collect()
}

fn small_entry(rng: &mut StdRng, view_len: usize) -> NeighborEntry {
    NeighborEntry {
        last_seen: rng.random_range(0..8),
        dag_id: rng.random_range(0..4),
        density: small_density(rng),
        head: small_id(rng),
        view: small_view(rng, view_len),
    }
}

/// A head claim as a slot keeps one, or none.
fn small_claim(rng: &mut StdRng) -> Option<Key> {
    if rng.random_range(0..2) == 0 {
        return None;
    }
    let density = small_density(rng);
    Some(Key::new(
        density,
        true,
        rng.random_range(0..4),
        small_id(rng),
    ))
}

/// The model of a cache: entries in full, each with the claim its
/// slot was given.
type CacheModel = BTreeMap<NodeId, (NeighborEntry, Option<Key>)>;

/// What a cache keeps of one model entry: its header, its claim and
/// its view's ids.
type Kept = (NodeId, u64, u32, Density, NodeId, Option<Key>, Vec<NodeId>);

/// What a cache keeps of its model, in the order a cache compares it.
fn kept(model: &CacheModel) -> Vec<Kept> {
    let ids = |e: &NeighborEntry| e.view.iter().map(|s| s.id).collect();
    let row = |(&q, (e, claim)): (&NodeId, &(NeighborEntry, Option<Key>))| {
        (q, e.last_seen, e.dag_id, e.density, e.head, *claim, ids(e))
    };
    model.iter().map(row).collect()
}

/// The cache against its model: same entries in the same order (the
/// densities bit for bit), each view kept as its ids, consistent
/// offsets and counts, and R1's numerator equal to
/// [`density_from_rows`] over the model — as seen from every node of
/// the id space, cached ones included.
fn check_cache_against_model(
    cache: &NeighborCache,
    model: &CacheModel,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(cache.check(), Ok(()));
    prop_assert_eq!(cache.len(), model.len());
    prop_assert_eq!(cache.is_empty(), model.is_empty());
    prop_assert!(cache.keys().eq(model.keys()));
    prop_assert!(cache.slots().iter().map(|s| &s.id).eq(model.keys()));
    let exact = |d: Density| (d.links(), d.degree());
    for ((slot, view), (&id, (want, claim))) in cache.iter().zip(model) {
        let got = (
            slot.id,
            slot.last_seen,
            slot.dag_id,
            slot.head,
            cache.claim(&slot.id),
        );
        prop_assert_eq!(got, (id, want.last_seen, want.dag_id, want.head, *claim));
        prop_assert_eq!(exact(slot.density), exact(want.density));
        prop_assert!(view.iter().eq(want.view.iter().map(|s| &s.id)));
        let (found, found_view) = cache.get(&id).expect("a model key is cached");
        prop_assert_eq!((found.id, found_view), (id, view));
    }
    for me in (0..=SMALL_IDS).map(NodeId::new) {
        prop_assert_eq!(cache.contains_key(&me), model.contains_key(&me));
        prop_assert_eq!(cache.get(&me).is_some(), model.contains_key(&me));
        let rows = model
            .iter()
            .map(|(&q, (e, _))| (q, e.view.iter().map(|s| s.id)));
        let want = density_from_rows(me, model.len() as u32, rows, |r| model.contains_key(&r));
        let got = Density::ratio(cache.neighborhood_links(me), cache.len() as u32);
        prop_assert_eq!(exact(got), exact(want), "R1 as seen from {}", me);
    }
    Ok(())
}

/// [`DensityCluster`] with the change reports left at their provided
/// bodies — the reference its overrides must agree with.
struct ProvidedReports(DensityCluster);

impl Protocol for ProvidedReports {
    type State = ClusterState;
    type Beacon = ClusterBeacon;
    fn init(&self, node: NodeId, rng: &mut StdRng) -> ClusterState {
        self.0.init(node, rng)
    }
    fn beacon(&self, node: NodeId, state: &ClusterState) -> ClusterBeacon {
        self.0.beacon(node, state)
    }
    fn receive(&self, p: NodeId, s: &mut ClusterState, from: NodeId, b: &ClusterBeacon, now: u64) {
        self.0.receive(p, s, from, b, now);
    }
    fn update(&self, node: NodeId, state: &mut ClusterState, now: u64, rng: &mut StdRng) {
        self.0.update(node, state, now, rng);
    }
}

/// [`DensityCluster`] delegated to for everything, its look-ahead
/// levels left undeclared: what the event driver runs when it reads
/// nothing ahead.
struct NoPeekLevels(DensityCluster);

impl Protocol for NoPeekLevels {
    type State = ClusterState;
    type Beacon = ClusterBeacon;
    fn init(&self, node: NodeId, rng: &mut StdRng) -> ClusterState {
        self.0.init(node, rng)
    }
    fn beacon(&self, node: NodeId, state: &ClusterState) -> ClusterBeacon {
        self.0.beacon(node, state)
    }
    fn beacon_into(&self, node: NodeId, state: &ClusterState, out: &mut ClusterBeacon) {
        self.0.beacon_into(node, state, out);
    }
    fn receive(&self, p: NodeId, s: &mut ClusterState, from: NodeId, b: &ClusterBeacon, now: u64) {
        self.0.receive(p, s, from, b, now);
    }
    fn update(&self, node: NodeId, state: &mut ClusterState, now: u64, rng: &mut StdRng) {
        self.0.update(node, state, now, rng);
    }
    fn receive_changed(
        &self,
        p: NodeId,
        s: &mut ClusterState,
        from: NodeId,
        b: &ClusterBeacon,
        now: u64,
        scratch: &mut Option<ClusterState>,
    ) -> bool {
        self.0.receive_changed(p, s, from, b, now, scratch)
    }
    fn update_changed(
        &self,
        node: NodeId,
        state: &mut ClusterState,
        now: u64,
        rng: &mut StdRng,
        scratch: &mut Option<ClusterState>,
    ) -> bool {
        self.0.update_changed(node, state, now, rng, scratch)
    }
    fn activity(&self) -> Activity {
        self.0.activity()
    }
    fn beacon_changed(&self, old: &ClusterBeacon, new: &ClusterBeacon) -> bool {
        self.0.beacon_changed(old, new)
    }
    fn read_changed(&self, old: &ClusterBeacon, new: &ClusterBeacon) -> bool {
        self.0.read_changed(old, new)
    }
    fn link_down(&self, node: NodeId, state: &mut ClusterState, peer: NodeId) {
        self.0.link_down(node, state, peer);
    }
}

impl Corruptible for NoPeekLevels {
    fn corrupt(&self, node: NodeId, state: &mut ClusterState, rng: &mut StdRng) {
        self.0.corrupt(node, state, rng);
    }
}

/// The event driver's look-ahead pass is unobservable: `DensityCluster`
/// (three levels) and its twin that declares none run the same events
/// to the same states, counts and τ — on a lossy Poisson deployment,
/// through a scripted corruption, an isolation and a crash with stale
/// recovery.
#[test]
fn the_event_clock_runs_the_same_with_and_without_peek_levels() {
    fn run<P: Corruptible<State = ClusterState>>(
        protocol: P,
        seed: u64,
    ) -> EventDriver<P, BernoulliLoss> {
        let mut rng = StdRng::seed_from_u64(seed);
        let topo = builders::poisson(220.0, 0.12, &mut rng);
        let (a, b) = (NodeId::new(3), NodeId::new(topo.len() as u32 / 2));
        let mut plan = FaultPlan::new();
        plan.at(4, Fault::CorruptFraction(0.3))
            .at(7, Fault::Isolate(a))
            .at(
                9,
                Fault::CrashRecover {
                    node: b,
                    dark_for: 3,
                },
            );
        Scenario::new(protocol)
            .medium(BernoulliLoss::new(0.8))
            .topology(topo)
            .seed(seed)
            .faults(plan)
            .build_events(EventConfig::default())
            .expect("valid scenario")
    }
    fn counts<P: Protocol>(d: &EventDriver<P, BernoulliLoss>) -> [u64; 5] {
        [
            d.messages_total(),
            d.events_processed(),
            d.frames_attempted(),
            d.frames_delivered(),
            d.measured_tau().to_bits(),
        ]
    }
    const { assert!(DensityCluster::PEEK_LEVELS == 3 && NoPeekLevels::PEEK_LEVELS == 0) };
    for seed in [1, 2, 3] {
        let protocol = DensityCluster::new(ClusterConfig::default().event_driven());
        let mut peeking = run(protocol, seed);
        let mut twin = run(NoPeekLevels(protocol), seed);
        assert!(peeking.is_gated() && twin.is_gated());
        for period in 0..40 {
            peeking.step();
            twin.step();
            assert_eq!(
                peeking.states(),
                twin.states(),
                "seed {seed}, period {period}"
            );
            assert_eq!(
                counts(&peeking),
                counts(&twin),
                "seed {seed}, period {period}"
            );
        }
        assert!(peeking.frames_delivered() > 1000, "seed {seed}: a real run");
    }
}

/// A node of the clustering protocol as it ran with a cache of full
/// summaries: every view kept as the beacon relayed it, every claim
/// in the 2-hop window collected on each guard pass. The reference
/// `NeighborCache`'s ids-and-claim views are checked against.
#[derive(Clone, Debug)]
struct FullViews {
    dag_id: u32,
    density: Density,
    head: NodeId,
    parent: NodeId,
    cache: BTreeMap<NodeId, NeighborEntry>,
}

impl FullViews {
    fn shared(&self) -> (u32, Density, NodeId, NodeId) {
        (self.dag_id, self.density, self.head, self.parent)
    }

    /// The receive guard; returns whether the state changed.
    fn receive(
        &mut self,
        cfg: &ClusterConfig,
        node: NodeId,
        from: NodeId,
        b: &ClusterBeacon,
        now: u64,
    ) -> bool {
        if from == node {
            return false;
        }
        let event_driven = cfg.freshness == FreshnessPolicy::EventDriven;
        let changed = match self.cache.get(&from) {
            Some(e) => {
                let same = (event_driven || e.last_seen == now)
                    && (e.dag_id, e.density, e.head) == (b.dag_id, b.density, b.head)
                    && e.view == b.view;
                if event_driven && same {
                    return false;
                }
                !same
            }
            None => true,
        };
        let entry = NeighborEntry {
            last_seen: now,
            dag_id: b.dag_id,
            density: b.density,
            head: b.head,
            view: b.view.clone(),
        };
        self.cache.insert(from, entry);
        changed
    }

    /// One pass of N1, R1, R2 after the sweep; returns whether it
    /// swept an entry or moved a shared variable.
    fn guards(&mut self, cfg: &ClusterConfig, node: NodeId, now: u64, rng: &mut StdRng) -> bool {
        let before = self.shared();
        let cached = self.cache.len();
        self.cache.retain(|_, e| match cfg.freshness {
            FreshnessPolicy::TtlSweep => e.last_seen <= now && now - e.last_seen < cfg.cache_ttl,
            FreshnessPolicy::EventDriven => e.last_seen <= now,
        });
        let swept = self.cache.len() != cached;
        match &cfg.dag {
            Some(dag) => {
                let used: Vec<u32> = self.cache.values().map(|e| e.dag_id).collect();
                let (mine, out) = (self.dag_id, !dag.gamma.contains(self.dag_id));
                let redraw = match dag.variant {
                    DagVariant::Randomized => out || used.contains(&mine),
                    DagVariant::SmallestIdRedraws => {
                        out || self
                            .cache
                            .iter()
                            .any(|(&q, e)| e.dag_id == mine && node < q)
                    }
                };
                if redraw {
                    self.dag_id = new_id(mine, &used, dag.gamma, rng);
                }
            }
            None => self.dag_id = node.value(),
        }
        let rows = self
            .cache
            .iter()
            .map(|(&q, e)| (q, e.view.iter().map(|s| s.id)));
        self.density = density_from_rows(node, self.cache.len() as u32, rows, |r| {
            self.cache.contains_key(&r)
        });
        let order = cfg.order;
        let key =
            |q: NodeId, d: Density, head: NodeId, dag_id: u32| Key::new(d, head == q, dag_id, q);
        let my_key = key(node, self.density, self.head, self.dag_id);
        let strongest = self
            .cache
            .iter()
            .map(|(&q, e)| (q, e.head, key(q, e.density, e.head, e.dag_id)))
            .max_by(|a, b| a.2.cmp_under(&b.2, order));
        let head = match strongest {
            Some((q, head, k)) if !k.precedes(&my_key, order) => {
                self.parent = q;
                self.head = head;
                return swept || before != self.shared();
            }
            _ if cfg.rule == HeadRule::Basic => node,
            _ => {
                let mut claims = Vec::new();
                for (&q, e) in &self.cache {
                    if e.head == q {
                        claims.push(key(q, e.density, e.head, e.dag_id));
                    }
                    for s in e.view.iter().filter(|s| s.id != node && s.head == s.id) {
                        claims.push(key(s.id, s.density, s.head, s.dag_id));
                    }
                }
                let blocking = claims
                    .iter()
                    .filter(|c| my_key.precedes(c, order))
                    .max_by(|a, b| a.cmp_under(b, order));
                blocking.map_or(node, |c| c.id)
            }
        };
        self.head = head;
        self.parent = head;
        swept || before != self.shared()
    }

    /// `DensityCluster::corrupt`, draw for draw, keeping full views.
    fn corrupt(&mut self, rng: &mut StdRng) {
        self.dag_id = rng.random_range(0..u32::MAX);
        self.density = Density::ratio(rng.random_range(0..100), rng.random_range(0..16));
        self.head = NodeId::new(rng.random_range(0..10_000));
        self.parent = NodeId::new(rng.random_range(0..10_000));
        self.cache.clear();
        for _ in 0..rng.random_range(0..5) {
            let ghost = NodeId::new(rng.random_range(0..10_000));
            let view = (0..rng.random_range(0..4))
                .map(|_| PeerSummary {
                    id: NodeId::new(rng.random_range(0..10_000)),
                    dag_id: rng.random_range(0..u32::MAX),
                    density: Density::ratio(rng.random_range(0..50), rng.random_range(0..8)),
                    head: NodeId::new(rng.random_range(0..10_000)),
                })
                .collect();
            let entry = NeighborEntry {
                last_seen: rng.random_range(0..u64::MAX),
                dag_id: rng.random_range(0..u32::MAX),
                density: Density::ratio(rng.random_range(0..50), rng.random_range(0..8)),
                head: NodeId::new(rng.random_range(0..10_000)),
                view,
            };
            self.cache.insert(ghost, entry);
        }
    }
}

/// The cache of `state` against the full views of `reference` at time
/// `now`: the four shared variables bit for bit, the same neighbors
/// with the same headers, each view kept as exactly the reference
/// view's ids.
///
/// A receive that changed only 2-hop content is a no-op now, where the
/// full views restamped the entry and took the beacon's spelling of
/// the same density. So headers compare densities by value and, under
/// `EventDriven` freshness — whose guards read a stamp only as
/// `last_seen <= now`, with `now` never going back — any past stamp
/// reads as `now`.
fn check_against_full_views(
    state: &ClusterState,
    reference: &FullViews,
    cfg: &ClusterConfig,
    now: u64,
) -> Result<(), TestCaseError> {
    let exact = |d: Density| (d.links(), d.degree());
    let shared = |s: (u32, Density, NodeId, NodeId)| (s.0, exact(s.1), s.2, s.3);
    let got = (state.dag_id, state.density, state.head, state.parent);
    prop_assert_eq!(
        shared(got),
        shared(reference.shared()),
        "{:?} at {}",
        cfg,
        now
    );
    prop_assert_eq!(state.cache.check(), Ok(()));
    prop_assert!(state.cache.keys().eq(reference.cache.keys()));
    let event_driven = cfg.freshness == FreshnessPolicy::EventDriven;
    let stamp = |t: u64| if event_driven && t <= now { now } else { t };
    for ((slot, ids), e) in state.cache.iter().zip(reference.cache.values()) {
        let header = |t: u64, dag: u32, d: Density, h: NodeId| (stamp(t), dag, d, h);
        prop_assert_eq!(
            header(slot.last_seen, slot.dag_id, slot.density, slot.head),
            header(e.last_seen, e.dag_id, e.density, e.head)
        );
        prop_assert!(ids.iter().eq(e.view.iter().map(|s| &s.id)));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A cache that keeps each view as its ids plus its strongest
    /// relayed head claim runs like one that keeps full summaries: on
    /// random receive / update / `link_down` / `corrupt` sequences,
    /// under {Basic, Fusion} × {`OrderKind::Basic`, `Stable`} ×
    /// {no DAG, `SmallestIdRedraws`} × {`EventDriven`, `TtlSweep`},
    ///
    /// * the four shared variables (and the headers and view ids)
    ///   agree after every call, and so do the update reports;
    /// * a receive the new cache reports as no change while the full
    ///   views changed touched no guard input: a guard pass from the
    ///   reference's state before it and one from its state after it
    ///   move the same way, and the reference's next guard pass after a
    ///   pass that moved nothing, in the same step, moves nothing.
    #[test]
    fn cached_views_keep_what_the_guards_read(seed in 0u64..u64::MAX) {
        // [new cache said "no change", full views said "changed"], and
        // settled guard passes re-run after such a receive.
        let mut witnessed = [0u32; 2];
        for config_bits in 0..16u32 {
            let bit = |b: u32| config_bits >> b & 1 == 1;
            let cfg = ClusterConfig {
                rule: if bit(0) { HeadRule::Fusion } else { HeadRule::Basic },
                order: if bit(1) { OrderKind::Stable } else { OrderKind::Basic },
                dag: bit(2).then_some(DagConfig {
                    gamma: NameSpace::of_size(3),
                    variant: DagVariant::SmallestIdRedraws,
                }),
                freshness: if bit(3) { FreshnessPolicy::EventDriven } else { FreshnessPolicy::TtlSweep },
                ..ClusterConfig::default()
            };
            let protocol = DensityCluster::new(cfg);
            let mut rng = StdRng::seed_from_u64(seed ^ u64::from(config_bits));
            let node = small_id(&mut rng);
            let mut state = protocol.init(node, &mut rng);
            let mut reference = FullViews {
                dag_id: state.dag_id,
                density: state.density,
                head: state.head,
                parent: state.parent,
                cache: BTreeMap::new(),
            };
            let mut sent: BTreeMap<NodeId, ClusterBeacon> = BTreeMap::new();
            // `Some(now)`: the reference's last guard pass ran at `now`
            // and moved nothing, and nothing it reads has moved since —
            // `diverged`: though a receive changed its full views.
            let mut settled: Option<u64> = None;
            let mut diverged = false;
            let mut now = 1u64;
            for op in 0..150u64 {
                now += u64::from(rng.random_range(0..4) == 0);
                match rng.random_range(0..20) {
                    0..=10 => {
                        let from = small_id(&mut rng);
                        let beacon = next_beacon(&mut rng, sent.get(&from));
                        sent.insert(from, beacon.clone());
                        let before = reference.clone();
                        let got = protocol.receive_changed(node, &mut state, from, &beacon, now, &mut None);
                        let want = reference.receive(&cfg, node, from, &beacon, now);
                        prop_assert!(want || !got, "{:?}: a change the full views did not see", cfg);
                        if want && !got {
                            witnessed[0] += 1;
                            diverged = true;
                            let pass = |mut s: FullViews| {
                                let moved = s.guards(&cfg, node, now, &mut StdRng::seed_from_u64(op));
                                (moved, s.shared(), s.cache.keys().copied().collect::<Vec<_>>())
                            };
                            prop_assert_eq!(pass(before), pass(reference.clone()), "{:?}", cfg);
                        } else if got {
                            settled = None;
                        }
                    }
                    11..=17 => {
                        let rngs = || StdRng::seed_from_u64(seed ^ op);
                        let got = protocol.update_changed(node, &mut state, now, &mut rngs(), &mut None);
                        let want = reference.guards(&cfg, node, now, &mut rngs());
                        prop_assert_eq!(got, want, "{:?}: update at {}", cfg, now);
                        if settled == Some(now) {
                            prop_assert!(!want, "{:?}: a settled node moved at {}", cfg, now);
                            witnessed[1] += u32::from(diverged);
                        }
                        settled = (!want).then_some(now);
                        diverged = false;
                    }
                    18 => {
                        let peer = small_id(&mut rng);
                        protocol.link_down(node, &mut state, peer);
                        if reference.cache.remove(&peer).is_some() {
                            settled = None;
                        }
                    }
                    _ => {
                        let mut twin = rng.clone();
                        protocol.corrupt(node, &mut state, &mut rng);
                        reference.corrupt(&mut twin);
                        settled = None;
                    }
                }
                check_against_full_views(&state, &reference, &cfg, now)?;
            }
        }
        prop_assert!(witnessed.iter().all(|&n| n > 0), "both cases occur: {:?}", witnessed);
    }
}

/// The next beacon of a sender whose last one was `last`: often the
/// same ids saying something new (another density spelling, other
/// heads and densities two hops out), otherwise a fresh one in which
/// every other relayed entry claims headship.
fn next_beacon(rng: &mut StdRng, last: Option<&ClusterBeacon>) -> ClusterBeacon {
    fn fresh_view(rng: &mut StdRng, len: usize) -> Vec<PeerSummary> {
        let mut view = small_view(rng, len);
        for s in view.iter_mut().filter(|_| rng.random_range(0..2) == 0) {
            s.head = s.id;
        }
        view
    }
    match (last, rng.random_range(0..3)) {
        (Some(last), 0..=1) => {
            let mut beacon = last.clone();
            let d = last.density;
            beacon.density = Density::ratio(2 * d.links(), 2 * d.degree());
            let len = beacon.view.len();
            for (s, fresh) in beacon.view.iter_mut().zip(fresh_view(rng, len)) {
                if rng.random_range(0..2) == 0 {
                    *s = PeerSummary { id: s.id, ..fresh };
                }
            }
            beacon
        }
        _ => {
            let len = rng.random_range(0..6);
            ClusterBeacon {
                dag_id: rng.random_range(0..4),
                density: small_density(rng),
                head: small_id(rng),
                view: fresh_view(rng, len),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `NeighborCache` is a `BTreeMap<NodeId, NeighborEntry>` that
    /// keeps each view as its ids, with a claim per slot and a running
    /// density numerator: under random inserts, receive-style rewrites
    /// (same ids, same length, longer, shorter, empty view), removals,
    /// sweeps, clears and `clone_from` between two caches of different
    /// sizes, it iterates like the map and counts like Definition 1,
    /// and two caches are equal exactly when what they keep is.
    #[test]
    fn neighbor_cache_matches_a_btreemap_model(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut caches = [NeighborCache::new(), NeighborCache::new()];
        let mut models = [CacheModel::new(), CacheModel::new()];
        for _ in 0..60 {
            let side: usize = rng.random_range(0..2);
            let (cache, model) = (&mut caches[side], &mut models[side]);
            match rng.random_range(0..10) {
                0..=2 => {
                    let (id, len) = (small_id(&mut rng), rng.random_range(0..6));
                    let entry = small_entry(&mut rng, len);
                    cache.insert(id, entry.clone());
                    model.insert(id, (entry, None));
                }
                3..=5 => {
                    // What `receive` does to a known neighbor (or to a
                    // new one, when nothing is cached yet).
                    let known = model.keys().nth(rng.random_range(0..SMALL_IDS as usize));
                    let id = known.copied().unwrap_or_else(|| small_id(&mut rng));
                    let old = model.get(&id).map_or(0, |(e, _)| e.view.len());
                    let kind = rng.random_range(0..5);
                    let len = match kind {
                        0 | 1 => old,
                        2 => old + rng.random_range(1..4usize),
                        3 => old.saturating_sub(rng.random_range(1..4usize)),
                        _ => 0,
                    };
                    let mut e = small_entry(&mut rng, len);
                    if let (0, Some((cached, _))) = (kind, model.get(&id)) {
                        // The steady-state rewrite: the same ids saying
                        // something new (the path that keeps `links`).
                        for (fresh, was) in e.view.iter_mut().zip(&cached.view) {
                            fresh.id = was.id;
                        }
                    }
                    let peer = PeerSummary { id, dag_id: e.dag_id, density: e.density, head: e.head };
                    let claim = small_claim(&mut rng);
                    cache.store(e.last_seen, peer, claim, &e.view);
                    model.insert(id, (e, claim));
                }
                6 => {
                    let id = small_id(&mut rng);
                    prop_assert_eq!(cache.remove(&id), model.remove(&id).is_some());
                }
                7 => {
                    let horizon = rng.random_range(0..9);
                    let before = model.len();
                    model.retain(|_, (e, _)| e.last_seen <= horizon);
                    let dropped = cache.retain(|s| s.last_seen <= horizon);
                    prop_assert_eq!(dropped, model.len() != before);
                }
                8 => {
                    if rng.random_range(0..4) == 0 {
                        cache.clear();
                        model.clear();
                    }
                }
                _ => {
                    let [a, b] = &mut caches;
                    let (dst, src) = if side == 0 { (a, &*b) } else { (b, &*a) };
                    dst.clone_from(src);
                    prop_assert!(&*dst == src);
                    models[side] = models[1 - side].clone();
                }
            }
            check_cache_against_model(&caches[side], &models[side])?;
            prop_assert_eq!(caches[0] == caches[1], kept(&models[0]) == kept(&models[1]));
        }
    }

    /// A new key updates the link counts instead of recounting them:
    /// after every insert — into views that name the new id once, twice
    /// or not at all, with a view of its own that may name itself, and
    /// into caches that hold their owner's id — every count equals a
    /// recount (`check`) and R1 equals Definition 1 over the model.
    #[test]
    fn incremental_link_counts_equal_a_recount_after_every_insert(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cache = NeighborCache::new();
        let mut model = CacheModel::new();
        for _ in 0..40 {
            if model.len() == SMALL_IDS as usize {
                cache.clear();
                model.clear();
            }
            let fresh = (0..SMALL_IDS).map(NodeId::new).filter(|q| !model.contains_key(q));
            let fresh: Vec<NodeId> = fresh.collect();
            let q = fresh[rng.random_range(0..fresh.len())];
            // Some cached view names `q` twice before `q` arrives.
            let known: Vec<NodeId> = model.keys().copied().collect();
            if !known.is_empty() && rng.random_range(0..2) == 0 {
                let id = known[rng.random_range(0..known.len())];
                let mut e = small_entry(&mut rng, 4);
                e.view[1].id = q;
                e.view[3].id = q;
                let peer = PeerSummary { id, dag_id: e.dag_id, density: e.density, head: e.head };
                cache.store(e.last_seen, peer, None, &e.view);
                model.insert(id, (e, None));
                check_cache_against_model(&cache, &model)?;
            }
            let len = rng.random_range(0..6);
            let mut e = small_entry(&mut rng, len);
            if len > 0 && rng.random_range(0..3) == 0 {
                e.view[0].id = q;
            }
            let peer = PeerSummary { id: q, dag_id: e.dag_id, density: e.density, head: e.head };
            cache.store(e.last_seen, peer, None, &e.view);
            model.insert(q, (e, None));
            check_cache_against_model(&cache, &model)?;
        }
    }

    /// Claims on only some slots: the column, allocated by the first
    /// claim stored, follows its model through stores, inserts,
    /// removals, sweeps, clears and `clone_from` into scratches with
    /// and without a column of their own; a cache that never stored a
    /// claim equals the same content with a column of `None`s.
    #[test]
    fn the_claims_column_matches_its_model_on_some_slots(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cache = NeighborCache::new();
        let mut model = CacheModel::new();
        let mut scratch = NeighborCache::new();
        for _ in 0..60 {
            match rng.random_range(0..10) {
                0..=4 => {
                    let (id, len) = (small_id(&mut rng), rng.random_range(0..5));
                    let e = small_entry(&mut rng, len);
                    let claim = if rng.random_range(0..3) == 0 { small_claim(&mut rng) } else { None };
                    let peer = PeerSummary { id, dag_id: e.dag_id, density: e.density, head: e.head };
                    cache.store(e.last_seen, peer, claim, &e.view);
                    model.insert(id, (e, claim));
                }
                5 => {
                    let (id, len) = (small_id(&mut rng), rng.random_range(0..5));
                    let e = small_entry(&mut rng, len);
                    cache.insert(id, e.clone());
                    model.insert(id, (e, None));
                }
                6 => {
                    let id = small_id(&mut rng);
                    prop_assert_eq!(cache.remove(&id), model.remove(&id).is_some());
                }
                7 => {
                    let horizon = rng.random_range(0..9);
                    model.retain(|_, (e, _)| e.last_seen <= horizon);
                    cache.retain(|s| s.last_seen <= horizon);
                }
                8 => {
                    if rng.random_range(0..3) == 0 {
                        cache.clear();
                        model.clear();
                    }
                }
                _ => {
                    // Round trip through a scratch that has seen other
                    // caches, with claims or without.
                    scratch.clone_from(&cache);
                    prop_assert!(scratch == cache);
                    cache = NeighborCache::new();
                    cache.clone_from(&scratch);
                }
            }
            check_cache_against_model(&cache, &model)?;
            let claims = model.values().filter_map(|(_, claim)| *claim);
            prop_assert!(cache.relayed_claims().eq(claims));
            let mut bare = NeighborCache::new();
            for (&id, (e, _)) in &model {
                let peer = PeerSummary { id, dag_id: e.dag_id, density: e.density, head: e.head };
                bare.store(e.last_seen, peer, None, &e.view);
            }
            let unclaimed = model.values().all(|(_, claim)| claim.is_none());
            prop_assert_eq!(bare == cache, unclaimed);
            prop_assert_eq!(cache == bare, unclaimed);
        }
    }

    /// The exactness contract of `receive_changed` / `update_changed`:
    /// on random and `corrupt`-ed states, under both freshness
    /// policies, DAG on and off, Basic and Fusion, `DensityCluster`'s
    /// overrides return what the provided snapshot-and-compare bodies
    /// return and leave the same state, bit for bit — through echoes of
    /// the node itself, replays of the sender's last beacon in another
    /// spelling of the same density (some saying something new about
    /// the same ids), repeats within one logical step and
    /// future-stamped ghosts the update sweeps.
    #[test]
    fn change_reports_agree_with_the_provided_reference(
        seed in 0u64..u64::MAX,
        event_driven in any::<bool>(),
        dag in any::<bool>(),
        fusion in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = ClusterConfig {
            rule: if fusion { HeadRule::Fusion } else { HeadRule::Basic },
            dag: dag.then_some(DagConfig {
                gamma: NameSpace::of_size(3),
                variant: DagVariant::SmallestIdRedraws,
            }),
            freshness: if event_driven { FreshnessPolicy::EventDriven } else { FreshnessPolicy::TtlSweep },
            ..ClusterConfig::default()
        };
        let protocol = DensityCluster::new(config);
        let reference = ProvidedReports(protocol);
        let node = small_id(&mut rng);
        let mut state = protocol.init(node, &mut rng);
        if rng.random_range(0..3) == 0 {
            protocol.corrupt(node, &mut state, &mut rng);
        }
        state.head = small_id(&mut rng);
        state.density = small_density(&mut rng);
        for _ in 0..rng.random_range(0..6) {
            let len = rng.random_range(0..5);
            // Stamps up to 7 against `now` below 6: some are ghosts
            // from the future.
            state.cache.insert(small_id(&mut rng), small_entry(&mut rng, len));
        }
        let mut mirror = state.clone();
        let (mut scratch, mut unused) = (None, None);
        let mut reports = [0u32; 2];
        let mut sent: BTreeMap<NodeId, ClusterBeacon> = BTreeMap::new();
        for frame in 0..12u64 {
            let now = rng.random_range(2..6);
            let from = small_id(&mut rng);
            let len = rng.random_range(0..5);
            let mut beacon = ClusterBeacon {
                dag_id: rng.random_range(0..4),
                density: small_density(&mut rng),
                head: small_id(&mut rng),
                view: small_view(&mut rng, len),
            };
            if let (Some(last), 0..=1) = (sent.get(&from), rng.random_range(0..3)) {
                // A replay of the sender's last beacon, its density
                // respelled; every other replay says something new
                // about the same ids.
                let d = last.density;
                let mut view = last.view.clone();
                if frame % 2 == 0 {
                    for (s, fresh) in view.iter_mut().zip(small_view(&mut rng, len)) {
                        *s = PeerSummary { id: s.id, ..fresh };
                    }
                }
                beacon = ClusterBeacon {
                    density: Density::ratio(2 * d.links(), 2 * d.degree()),
                    view,
                    ..last.clone()
                };
            }
            sent.insert(from, beacon.clone());
            // Twice in a row: the second is a repeat within one step.
            for _ in 0..2 {
                let got = protocol.receive_changed(node, &mut state, from, &beacon, now, &mut unused);
                let want = reference.receive_changed(node, &mut mirror, from, &beacon, now, &mut scratch);
                prop_assert_eq!(got, want, "receive from {} at {}", from, now);
                prop_assert_eq!(format!("{state:?}"), format!("{mirror:?}"));
                reports[usize::from(got)] += 1;
            }
            let rngs = || StdRng::seed_from_u64(seed ^ frame);
            let got = protocol.update_changed(node, &mut state, now, &mut rngs(), &mut unused);
            let want = reference.update_changed(node, &mut mirror, now, &mut rngs(), &mut scratch);
            prop_assert_eq!(got, want, "update at {}", now);
            prop_assert_eq!(format!("{state:?}"), format!("{mirror:?}"));
            prop_assert_eq!(state.cache.check(), Ok(()));
            reports[usize::from(got)] += 1;
        }
        prop_assert!(unused.is_none(), "the overrides need no snapshot");
        prop_assert!(reports[0] > 0 && reports[1] > 0, "both answers occur: {:?}", reports);
    }
}

/// The next beacon of a sender whose last one was `last`, for the
/// read-part properties: often the same beacon, or what `receive` reads
/// of it in other words — the density respelled, every relayed entry
/// rewritten but for its id and, under fusion, its claim and a
/// claimer's `dag_id` and density (respelled) — otherwise
/// [`next_beacon`]'s.
fn next_in_other_words(rng: &mut StdRng, last: &ClusterBeacon, fusion: bool) -> ClusterBeacon {
    let respell = |rng: &mut StdRng, d: Density| {
        let k: u32 = rng.random_range(1..4);
        Density::ratio(k * d.links(), k * d.degree())
    };
    match rng.random_range(0..5) {
        0 => last.clone(),
        1 | 2 => {
            let mut beacon = last.clone();
            beacon.density = respell(rng, last.density);
            for s in &mut beacon.view {
                if fusion && s.head == s.id {
                    s.density = respell(rng, s.density);
                    continue;
                }
                s.dag_id = rng.random_range(0..4);
                s.density = small_density(rng);
                s.head = small_id(rng);
                if fusion && s.head == s.id {
                    // Stays a non-claimer.
                    s.head = NodeId::new(s.id.value() + SMALL_IDS);
                }
            }
            beacon
        }
        _ => next_beacon(rng, Some(last)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `DensityCluster::read_changed` under the event-driven policy, basic
    /// rule and fusion, DAG on and off, on a sender's beacons as they
    /// change over time:
    ///
    /// * it compares a projection: `false` on a beacon and itself,
    ///   `true` only where `beacon_changed` is, symmetric, and two
    ///   `false` answers chain into a third;
    /// * a `false` answer is a no-op receive: a receiver that missed
    ///   some beacons and incorporated an earlier one, whose read part
    ///   no later beacon has changed — the epoch arc the drivers skip
    ///   on — reports no change on `receive_changed` and keeps a state
    ///   equal to the one it had, through other senders' frames, guard
    ///   passes and corruption in between.
    #[test]
    fn read_changed_is_a_projection_whose_false_answers_are_no_op_receives(
        seed in 0u64..u64::MAX,
        dag in any::<bool>(),
        fusion in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = ClusterConfig {
            rule: if fusion { HeadRule::Fusion } else { HeadRule::Basic },
            dag: dag.then_some(DagConfig {
                gamma: NameSpace::of_size(3),
                variant: DagVariant::SmallestIdRedraws,
            }),
            ..ClusterConfig::default().event_driven()
        };
        let protocol = DensityCluster::new(config);
        let node = small_id(&mut rng);
        let from = NodeId::new((node.value() + rng.random_range(1..SMALL_IDS)) % SMALL_IDS);
        // The sender's beacons in order, and after each the index of
        // the last one whose read part changed — its read epoch.
        let mut sent = vec![next_beacon(&mut rng, None)];
        let mut read = vec![0usize];
        for i in 1..16 {
            let next = next_in_other_words(&mut rng, &sent[i - 1], fusion);
            let moved = protocol.read_changed(&sent[i - 1], &next);
            read.push(if moved { i } else { read[i - 1] });
            sent.push(next);
        }
        for a in &sent {
            prop_assert!(!protocol.read_changed(a, a));
            prop_assert!(!protocol.read_changed(a, &a.clone()));
            for b in &sent {
                let ab = protocol.read_changed(a, b);
                prop_assert_eq!(ab, protocol.read_changed(b, a), "symmetric");
                prop_assert!(!ab || protocol.beacon_changed(a, b));
                for c in &sent {
                    let chained = !ab && !protocol.read_changed(b, c);
                    prop_assert!(!chained || !protocol.read_changed(a, c), "chains");
                }
            }
        }
        // A receiver that hears some of them.
        let mut state = protocol.init(node, &mut rng);
        if rng.random_range(0..3) == 0 {
            protocol.corrupt(node, &mut state, &mut rng);
        }
        for _ in 0..rng.random_range(0..5) {
            let len = rng.random_range(0..5);
            let mut entry = small_entry(&mut rng, len);
            entry.last_seen = rng.random_range(0..3);
            state.cache.insert(small_id(&mut rng), entry);
        }
        let (mut held, mut now, mut unused) = (None::<usize>, 3u64, None);
        let mut seen = [0u32; 2];
        for (i, beacon) in sent.iter().enumerate() {
            now += rng.random_range(0..2u64);
            match rng.random_range(0..8) {
                0 => continue, // lost
                1 => {
                    // A corrupted receiver forgets what it held.
                    protocol.corrupt(node, &mut state, &mut rng);
                    held = None;
                }
                2 => {
                    // Another sender's frame, and a guard pass.
                    let other = small_id(&mut rng);
                    let len = rng.random_range(0..5);
                    let noise = ClusterBeacon {
                        dag_id: rng.random_range(0..4),
                        density: small_density(&mut rng),
                        head: small_id(&mut rng),
                        view: small_view(&mut rng, len),
                    };
                    if other != from {
                        protocol.receive(node, &mut state, other, &noise, now);
                    }
                    protocol.update(node, &mut state, now, &mut StdRng::seed_from_u64(seed ^ now));
                }
                _ => {}
            }
            if held.is_some_and(|h| read[i] <= h && h < i) {
                let h = held.expect("held");
                prop_assert!(!protocol.read_changed(&sent[h], beacon), "{} to {}", h, i);
                let before = state.clone();
                let changed = protocol.receive_changed(node, &mut state, from, beacon, now, &mut unused);
                prop_assert!(!changed, "beacon {} over {} changed the receiver", i, h);
                prop_assert!(state == before);
                seen[0] += 1;
            } else {
                protocol.receive(node, &mut state, from, beacon, now);
                seen[1] += 1;
            }
            held = Some(i);
        }
        prop_assert!(unused.is_none());
        prop_assert!(seen[0] > 0 && seen[1] > 0, "both branches occur: {:?}", seen);
    }
}

/// The field-by-field encoder the one-pass `ClusterBeacon::encode`
/// replaced, kept as its reference: one `put_u32` per word, in wire
/// order.
fn reference_encode(beacon: &ClusterBeacon, out: &mut Vec<u8>) {
    put_u32(out, beacon.dag_id);
    put_u32(out, beacon.density.links());
    put_u32(out, beacon.density.degree());
    put_u32(out, beacon.head.value());
    put_u32(out, beacon.view.len() as u32);
    for p in &beacon.view {
        put_u32(out, p.id.value());
        put_u32(out, p.dag_id);
        put_u32(out, p.density.links());
        put_u32(out, p.density.degree());
        put_u32(out, p.head.value());
    }
}

/// The wire format, byte for byte, on a hand-built beacon: every word
/// distinct, so two fields swapped in both `encode` and `decode` — which
/// the round-trip test cannot see — fail here.
#[test]
fn a_hand_built_beacon_encodes_to_its_pinned_frame() {
    let beacon = ClusterBeacon {
        dag_id: 0x0403_0201,
        density: Density::ratio(0x0807_0605, 0x0C0B_0A09),
        head: NodeId::new(0x100F_0E0D),
        view: vec![
            PeerSummary {
                id: NodeId::new(0x1413_1211),
                dag_id: 0x1817_1615,
                density: Density::ratio(0x1C1B_1A19, 0x201F_1E1D),
                head: NodeId::new(0x2423_2221),
            },
            PeerSummary {
                id: NodeId::new(u32::MAX),
                dag_id: 0,
                density: Density::ratio(7, 9),
                head: NodeId::new(0xA0B0_C0D0),
            },
        ],
    };
    #[rustfmt::skip]
    let pinned: [u8; 60] = [
        // header: dag id, density links / degree, head, view length
        0x01, 0x02, 0x03, 0x04,  0x05, 0x06, 0x07, 0x08,  0x09, 0x0A, 0x0B, 0x0C,
        0x0D, 0x0E, 0x0F, 0x10,  0x02, 0x00, 0x00, 0x00,
        // view[0]: id, dag id, density links / degree, head
        0x11, 0x12, 0x13, 0x14,  0x15, 0x16, 0x17, 0x18,  0x19, 0x1A, 0x1B, 0x1C,
        0x1D, 0x1E, 0x1F, 0x20,  0x21, 0x22, 0x23, 0x24,
        // view[1]
        0xFF, 0xFF, 0xFF, 0xFF,  0x00, 0x00, 0x00, 0x00,  0x07, 0x00, 0x00, 0x00,
        0x09, 0x00, 0x00, 0x00,  0xD0, 0xC0, 0xB0, 0xA0,
    ];
    // Appended after whatever the buffer holds, as into a byte arena.
    let mut frame = vec![0xEE; 3];
    beacon.encode(&mut frame);
    assert_eq!(&frame[..3], &[0xEE; 3], "the arena's earlier bytes stay");
    assert_eq!(&frame[3..], &pinned[..]);
    assert_eq!(ClusterBeacon::decode(&pinned), Some(beacon));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The one-pass encoder writes what the field-by-field reference
    /// writes — on random beacons, on an empty and a 40-entry view, and
    /// on every word at `u32::MAX` — appended after the same bytes.
    #[test]
    fn the_one_pass_encoder_equals_the_field_by_field_reference(
        beacon in beacon_strategy(),
        entries in proptest::collection::vec(beacon_strategy(), 4..5),
        prefix in proptest::collection::vec(0u8..=255, 0..24),
    ) {
        let saturated = PeerSummary {
            id: NodeId::new(u32::MAX),
            dag_id: u32::MAX,
            density: Density::ratio(u32::MAX, u32::MAX),
            head: NodeId::new(u32::MAX),
        };
        let max = ClusterBeacon {
            dag_id: u32::MAX,
            density: Density::ratio(u32::MAX, u32::MAX),
            head: NodeId::new(u32::MAX),
            view: vec![saturated; 3],
        };
        let cases = [
            ClusterBeacon { view: Vec::new(), ..beacon.clone() },
            // Every summary the four beacons hold, padded to 40.
            ClusterBeacon {
                view: entries
                    .iter()
                    .flat_map(|b| b.view.iter().copied())
                    .chain(std::iter::repeat(saturated))
                    .take(40)
                    .collect(),
                ..beacon.clone()
            },
            beacon,
            max,
        ];
        for b in &cases {
            let (mut fast, mut reference) = (prefix.clone(), prefix.clone());
            b.encode(&mut fast);
            reference_encode(b, &mut reference);
            prop_assert_eq!(&fast, &reference, "view of {}", b.view.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The wire codec under garbage: on the exact frame, every
    /// truncation, extensions, forged length prefixes and random byte
    /// strings, `decode` and `decode_into` never panic and always
    /// agree — whatever the pooled beacon held before (a longer view, a
    /// shorter one, another head).
    #[test]
    fn codec_survives_garbage_and_decode_into_agrees(
        beacon in beacon_strategy(),
        pooled in beacon_strategy(),
        tail in proptest::collection::vec(0u8..=255, 1..48),
        noise in proptest::collection::vec(0u8..=255, 0..160),
        forged_len in 0u32..=u32::MAX,
    ) {
        let mut frame = Vec::new();
        beacon.encode(&mut frame);
        prop_assert_eq!(ClusterBeacon::decode(&frame), Some(beacon.clone()));
        let empty = ClusterBeacon { view: Vec::new(), ..pooled.clone() };
        for pooled in [&pooled, &empty, &beacon] {
            for cut in 0..=frame.len() {
                check_codec_agreement(&frame[..cut], pooled)?;
            }
            check_codec_agreement(&[&frame[..], &tail[..]].concat(), pooled)?;
            check_codec_agreement(&noise, pooled)?;
            // A forged prefix: the byte count it promises may be far
            // past the frame, or wrap a 32-bit `usize` (k · 2³² / 20).
            for len in [forged_len, u32::MAX, 0xCCCC_CCCD, 0x3333_3334, beacon.view.len() as u32 + 1] {
                let mut forged = frame.clone();
                forged[16..20].copy_from_slice(&len.to_le_bytes());
                if len as usize != beacon.view.len() {
                    prop_assert_eq!(ClusterBeacon::decode(&forged), None);
                }
                check_codec_agreement(&forged, pooled)?;
            }
        }
    }

    /// The state-side look-ahead read is inert whatever the cache
    /// holds — built by random inserts, removals and sweeps or forged
    /// by `Corruptible::corrupt` — for a cached `from`, an unknown one,
    /// the node itself and ids past every key, at every level and past
    /// the last: it returns, the cache still passes `check()` and
    /// equals its copy, and it read what it says it reads — for a
    /// cached sender, that sender's view, found without a search.
    #[test]
    fn cache_peek_returns_on_any_cache_and_reads_the_senders_view(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let protocol = DensityCluster::new(ClusterConfig::default());
        let node = small_id(&mut rng);
        let mut state = protocol.init(node, &mut rng);
        // One 4-byte id of every 64-byte line, and the last.
        let strided = |view: &[NodeId]| {
            let last = view.last().map_or(0, |r| u64::from(r.value()));
            view.iter().step_by(16).map(|r| u64::from(r.value())).sum::<u64>() + last
        };
        for _ in 0..30 {
            let cache = &mut state.cache;
            match rng.random_range(0..6) {
                0..=2 => {
                    // Up to 35 entries: views past one stride of 16.
                    let len = rng.random_range(0..8usize) * rng.random_range(1..6usize);
                    cache.insert(small_id(&mut rng), small_entry(&mut rng, len));
                }
                3 => {
                    cache.remove(&small_id(&mut rng));
                }
                4 => {
                    let horizon = rng.random_range(0..9);
                    cache.retain(|s| s.last_seen <= horizon);
                }
                _ => protocol.corrupt(node, &mut state, &mut rng),
            }
            let cache = &state.cache;
            let before = cache.clone();
            let ids: u64 = cache.keys().map(|q| u64::from(q.value())).sum();
            let entries: usize = cache.iter().map(|(_, view)| view.len()).sum();
            let ghosts = cache.keys().copied().collect::<Vec<_>>();
            let froms = (0..=SMALL_IDS).map(NodeId::new).chain(ghosts).chain([node, NodeId::new(u32::MAX)]);
            for from in froms {
                prop_assert_eq!(cache.peek(from, 0), (cache.len() + entries) as u64);
                prop_assert_eq!(cache.peek(from, 1), ids);
                // An unknown sender reads the view its entry would
                // displace: the next key's, or nothing past the last.
                let at = cache.iter().find(|(slot, _)| slot.id >= from);
                prop_assert_eq!(cache.peek(from, 2), at.map_or(0, |(_, view)| strided(view)));
                for level in [3, 4, u8::MAX] {
                    prop_assert_eq!(cache.peek(from, level), 0);
                }
                for level in 0..=DensityCluster::PEEK_LEVELS {
                    prop_assert_eq!(protocol.peek_state(&state, from, level), cache.peek(from, level));
                }
            }
            prop_assert!(*cache == before);
            prop_assert_eq!(cache.check(), Ok(()));
        }
    }

    /// ≺ is a strict total order on keys with distinct unique ids.
    #[test]
    fn order_is_strict_and_total(
        mut keys in proptest::collection::vec(key_strategy(), 2..8),
    ) {
        // Force distinct unique ids.
        for (i, k) in keys.iter_mut().enumerate() {
            k.id = NodeId::new(i as u32);
        }
        for order in [OrderKind::Basic, OrderKind::Stable] {
            for a in &keys {
                prop_assert!(!a.precedes(a, order));
                for b in &keys {
                    if a.id != b.id {
                        prop_assert!(a.precedes(b, order) ^ b.precedes(a, order));
                    }
                    for c in &keys {
                        if a.precedes(b, order) && b.precedes(c, order) {
                            prop_assert!(a.precedes(c, order));
                        }
                    }
                }
            }
        }
    }

    /// Rational densities order exactly like their float values (when
    /// the floats are distinguishable).
    #[test]
    fn density_matches_float_order(
        a in (0u32..1000, 1u32..100),
        b in (0u32..1000, 1u32..100),
    ) {
        let da = Density::ratio(a.0, a.1);
        let db = Density::ratio(b.0, b.1);
        let fa = da.as_f64();
        let fb = db.as_f64();
        if (fa - fb).abs() > 1e-9 {
            prop_assert_eq!(da < db, fa < fb);
        } else {
            prop_assert_eq!(da, db);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Definition 1 computed from 2-hop tables equals the full-known
    /// ledge value, on any topology.
    #[test]
    fn distributed_density_equals_oracle_density(topo in topo_strategy()) {
        for p in topo.nodes() {
            let neighbors = topo.neighbors(p).to_vec();
            let tables: Vec<&[NodeId]> =
                neighbors.iter().map(|&q| topo.neighbors(q)).collect();
            prop_assert_eq!(
                density_from_tables(p, &neighbors, &tables),
                density_of(&topo, p)
            );
        }
    }

    /// Basic rule: cluster-heads are never adjacent; fusion rule:
    /// never within two hops. Clusters partition the node set and all
    /// parent chains climb ≺ to their head.
    #[test]
    fn oracle_structural_invariants(topo in topo_strategy()) {
        for rule in [HeadRule::Basic, HeadRule::Fusion] {
            let cfg = OracleConfig { rule, ..OracleConfig::default() };
            let c = oracle(&topo, &cfg);
            let keys = keys_of(&topo, &cfg);
            for h in c.heads() {
                let exclusion = match rule {
                    HeadRule::Basic => topo.neighbors(h).to_vec(),
                    HeadRule::Fusion => topo.two_hop_neighborhood(h),
                };
                for q in exclusion {
                    prop_assert!(!c.is_head(q), "{rule:?}: heads {h} and {q} too close");
                }
            }
            for p in topo.nodes() {
                prop_assert!(c.is_head(c.head(p)));
                prop_assert!(c.depth_in_hops(&topo, p).is_some());
                let f = c.parent(p);
                if f != p {
                    prop_assert!(keys[p.index()].precedes(&keys[f.index()], cfg.order));
                }
            }
        }
    }

    /// The distributed protocol stabilizes to exactly the oracle
    /// clustering (basic order/rule) on a perfect medium.
    #[test]
    fn distributed_equals_oracle(topo in topo_strategy(), seed in 0u64..1000) {
        let mut net = Scenario::new(DensityCluster::new(ClusterConfig::default()))
            .topology(topo)
            .seed(seed)
            .build()
            .expect("valid scenario");
        net.run_to(&StopWhen::stable_for(3).within(400)).expect_stable("stabilizes");
        let got = extract_clustering(net.states()).expect("clean");
        let want = oracle(net.topology(), &OracleConfig::default());
        prop_assert_eq!(got, want);
        prop_assert_eq!(check_legitimate(&net), Ok(()));
    }

    /// Self-stabilization (convergence + closure): from arbitrary
    /// corrupted state the system returns to the same legitimate
    /// configuration and stays there.
    #[test]
    fn corruption_reconverges_to_fixpoint(topo in topo_strategy(), seed in 0u64..1000) {
        let mut net = Scenario::new(DensityCluster::new(ClusterConfig::default()))
            .topology(topo)
            .seed(seed)
            .build()
            .expect("valid scenario");
        net.run(30);
        let fixpoint = extract_clustering(net.states()).expect("stabilized");
        net.corrupt_all();
        net.run_to(&StopWhen::stable_for(3).within(600)).expect_stable("reconverges");
        prop_assert_eq!(extract_clustering(net.states()).expect("clean"), fixpoint.clone());
        // Closure: keep running, nothing moves.
        net.run(25);
        prop_assert_eq!(extract_clustering(net.states()).expect("clean"), fixpoint);
    }

    /// Theorem 1: N1 stabilizes to locally unique names inside γ, from
    /// cold start and from corrupted state, for both variants.
    #[test]
    fn n1_always_stabilizes(
        topo in topo_strategy(),
        seed in 0u64..1000,
        randomized in any::<bool>(),
    ) {
        let variant = if randomized {
            DagVariant::Randomized
        } else {
            DagVariant::SmallestIdRedraws
        };
        let gamma = NameSpace::delta_squared(topo.max_degree().max(1));
        let mut net = Scenario::new(DagProtocol::new(gamma, variant, 4))
            .topology(topo)
            .seed(seed)
            .build()
            .expect("valid scenario");
        let stop = StopWhen::stable_for(4).within(800);
        net.run_to(&stop).expect_stable("N1 converges");
        net.corrupt_all();
        net.run_to(&stop).expect_stable("N1 reconverges");
        let names: Vec<u32> = net.states().iter().map(|s| s.dag_id).collect();
        prop_assert!(is_locally_unique(net.topology(), &names));
        prop_assert!(names.iter().all(|&x| gamma.contains(x)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Convergence holds under the worst medium consistent with the
    /// paper's hypothesis (Bernoulli loss at exactly τ).
    #[test]
    fn stabilizes_under_bernoulli_loss(
        seed in 0u64..1000,
        tau_percent in 30u32..90,
    ) {
        let topo = unit_disk(25, 20, seed);
        let tau = f64::from(tau_percent) / 100.0;
        // The TTL must make false cache expiries negligible:
        // (1-τ)^ttl ≤ 1e-7, else neighbor sets flap forever.
        let cache_ttl = ((1e-7f64.ln() / (1.0 - tau).ln()).ceil() as u64).max(4) + 2;
        let config = ClusterConfig { cache_ttl, ..ClusterConfig::default() };
        let mut net = Scenario::new(DensityCluster::new(config))
            .medium(BernoulliLoss::new(tau))
            .topology(topo)
            .seed(seed)
            .build()
            .expect("valid scenario");
        // With losses the *caches* keep churning; the quiet window must
        // outlast the worst plausible loss streak.
        net.run_to(&StopWhen::stable_for(cache_ttl + 10).within(20_000))
            .expect_stable("stabilizes");
        let got = extract_clustering(net.states()).expect("clean");
        let want = oracle(net.topology(), &OracleConfig::default());
        prop_assert_eq!(got, want);
    }

    /// The full protocol with DAG renaming stabilizes and matches the
    /// oracle under the stabilized names (fusion + DAG — the most
    /// feature-complete configuration).
    #[test]
    fn dag_plus_fusion_matches_oracle(seed in 0u64..1000) {
        let topo = unit_disk(40, 18, seed);
        let gamma = NameSpace::delta_squared(topo.max_degree().max(1));
        let config = ClusterConfig {
            rule: HeadRule::Fusion,
            dag: Some(DagConfig { gamma, variant: DagVariant::Randomized }),
            ..ClusterConfig::default()
        };
        prop_assume!(config.validate_for(&topo).is_ok());
        let mut net = Scenario::new(DensityCluster::new(config))
            .topology(topo)
            .seed(seed)
            .build()
            .expect("valid scenario");
        net.run_to(&StopWhen::stable_for(5).within(1000))
            .expect_stable("stabilizes");
        let got = extract_clustering(net.states()).expect("clean");
        let want = oracle(
            net.topology(),
            &OracleConfig {
                rule: HeadRule::Fusion,
                tiebreak: Some(extract_dag_ids(net.states())),
                ..OracleConfig::default()
            },
        );
        prop_assert_eq!(got.heads(), want.heads());
    }

    /// The degree metric (conclusion's suggestion) also stabilizes to
    /// its oracle.
    #[test]
    fn degree_metric_also_stabilizes(seed in 0u64..1000) {
        let topo = unit_disk(35, 20, seed);
        let config = ClusterConfig {
            metric: MetricKind::Degree,
            ..ClusterConfig::default()
        };
        let mut net = Scenario::new(DensityCluster::new(config))
            .topology(topo)
            .seed(seed)
            .build()
            .expect("valid scenario");
        net.run_to(&StopWhen::stable_for(3).within(400)).expect_stable("stabilizes");
        let got = extract_clustering(net.states()).expect("clean");
        let want = oracle(
            net.topology(),
            &OracleConfig { metric: MetricKind::Degree, ..OracleConfig::default() },
        );
        prop_assert_eq!(got, want);
    }
}
