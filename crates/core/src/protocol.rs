//! The distributed, self-stabilizing density-driven clustering
//! protocol — the composition of the paper's guarded assignments:
//!
//! * **N1** (Section 4.1): DAG renaming into the constant space γ;
//! * **R1** (Section 4.2): `d_p := density` from the cached 2-hop view;
//! * **R2** (Section 4.2/4.3): `H(p) := clusterHead` under the
//!   configured order (basic or incumbency-aware) and head rule (basic
//!   or 2-hop fusion).
//!
//! One beacon carries the node's shared variables *plus its cached
//! neighbor summaries*, which is exactly the information schedule of
//! the paper's Table 2: after one step a node knows its 1-neighbors,
//! after two it can compute its density, after three its parent, and
//! its cluster-head after a number of steps bounded by the tree depth.

use mwn_graph::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use mwn_sim::{put_u32, Corruptible, Observable, Protocol, WireBeacon};

use crate::dag::new_id;
use crate::{
    Clustering, DagVariant, Density, HeadRule, Key, MetricKind, NameSpace, NeighborCache,
    NeighborSlot, OrderKind,
};

/// DAG-renaming configuration (Section 4.1), when enabled.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DagConfig {
    /// The name space γ.
    pub gamma: NameSpace,
    /// Conflict-resolution variant of N1.
    pub variant: DagVariant,
}

/// How cached neighbor entries are kept fresh — and, dually, how the
/// engine may schedule the protocol.
///
/// The paper keeps caches alive through *periodic* beacons and expires
/// entries by timeout; that requires every node to broadcast every
/// step forever. The communication-efficiency literature on silent
/// protocols (Devismes–Masuzawa–Tixeuil) observes that once the
/// configuration is legitimate nothing needs to be sent at all — but
/// then freshness cannot come from timeouts. The two policies embody
/// that trade-off.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum FreshnessPolicy {
    /// Legacy timed discipline: every received beacon stamps its cache
    /// entry, and entries older than `cache_ttl` steps are swept on
    /// every update. Requires eager scheduling (periodic beacons are
    /// what keeps live entries alive), which the protocol declares via
    /// [`mwn_sim::Activity::Eager`].
    #[default]
    TtlSweep,
    /// Event-driven freshness: receiving a beacon identical to the
    /// cached copy is a no-op, entries never age out, and departed
    /// neighbors are evicted by the link-layer
    /// ([`mwn_sim::Protocol::link_down`]) instead of by timeout.
    /// Satisfies the silence contract — under **both clocks**: no
    /// guard here depends on wall-clock aging, so the protocol
    /// declares [`mwn_sim::Activity::Gated`] and the round driver
    /// skips stabilized regions while the continuous-time
    /// `EventDriver` stops scheduling their beacon slots entirely
    /// (arbitrarily long quiet intervals with zero `update` calls are
    /// safe).
    ///
    /// Known trade-off (inherent to silent communication-efficiency):
    /// a corrupted ghost entry whose forged timestamp lies in the past
    /// is only healed by update pressure from its owner's neighborhood,
    /// not by a wall-clock sweep; future-stamped forgeries are still
    /// purged immediately.
    EventDriven,
}

/// Full configuration of the clustering protocol.
///
/// # Examples
///
/// ```
/// use mwn_cluster::{ClusterConfig, DagConfig, DagVariant, NameSpace};
///
/// // The paper's Section 5 configuration for the grid experiments:
/// // density metric, DAG enabled with γ = δ², basic order and rule.
/// let cfg = ClusterConfig {
///     dag: Some(DagConfig {
///         gamma: NameSpace::delta_squared(8),
///         variant: DagVariant::SmallestIdRedraws,
///     }),
///     ..ClusterConfig::default()
/// };
/// assert!(cfg.dag.is_some());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Election metric (the paper's density by default).
    pub metric: MetricKind,
    /// Tie-break order: basic, or the Section 4.3 incumbency variant.
    pub order: OrderKind,
    /// Head condition: basic, or the Section 4.3 fusion variant.
    pub rule: HeadRule,
    /// Constant-height DAG renaming; `None` ties break on unique ids.
    pub dag: Option<DagConfig>,
    /// Steps a cached neighbor entry survives without a fresh beacon.
    /// Must cover the expected beacon loss run-length (≥ 2 for lossy
    /// media; 2 suffices for the perfect medium). Only meaningful under
    /// [`FreshnessPolicy::TtlSweep`].
    pub cache_ttl: u64,
    /// Cache freshness discipline; [`FreshnessPolicy::EventDriven`]
    /// additionally unlocks activity-driven (gated) scheduling.
    pub freshness: FreshnessPolicy,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            metric: MetricKind::Density,
            order: OrderKind::Basic,
            rule: HeadRule::Basic,
            dag: None,
            cache_ttl: 4,
            freshness: FreshnessPolicy::TtlSweep,
        }
    }
}

impl ClusterConfig {
    /// This configuration with [`FreshnessPolicy::EventDriven`] — the
    /// silence-compatible variant the activity-driven engine can gate.
    pub fn event_driven(self) -> Self {
        ClusterConfig {
            freshness: FreshnessPolicy::EventDriven,
            ..self
        }
    }
}

impl ClusterConfig {
    /// Checks the configuration against a concrete topology: the name
    /// space must exceed the maximum degree, otherwise `γ \ Cids_p`
    /// can be empty and N1 cannot terminate.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violated constraint.
    pub fn validate_for(&self, topo: &Topology) -> Result<(), String> {
        if let Some(dag) = &self.dag {
            let delta = topo.max_degree();
            if (dag.gamma.size() as usize) <= delta {
                return Err(format!(
                    "name space |γ| = {} must exceed the maximum degree δ = {delta}",
                    dag.gamma.size()
                ));
            }
        }
        if self.cache_ttl == 0 {
            return Err("cache TTL must be at least 1 step".to_string());
        }
        Ok(())
    }
}

/// What a node knows (and re-broadcasts) about one cached neighbor.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PeerSummary {
    /// The neighbor's unique identifier.
    pub id: NodeId,
    /// Its DAG identifier (shared variable `Id_q` of Section 4.1).
    pub dag_id: u32,
    /// Its density (shared variable `d_q`).
    pub density: Density,
    /// Its cluster-head claim (shared variable `H(q)`).
    pub head: NodeId,
}

/// A cached neighbor entry in owned form — what
/// [`NeighborCache::insert`] takes. The cache itself stores entries
/// flat ([`NeighborSlot`] headers over one shared buffer of view ids)
/// and keeps of `view` only its ids.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NeighborEntry {
    /// Logical time the last beacon from this neighbor arrived.
    pub last_seen: u64,
    /// Cached copy of the neighbor's DAG identifier.
    pub dag_id: u32,
    /// Cached copy of the neighbor's density.
    pub density: Density,
    /// Cached copy of the neighbor's head claim.
    pub head: NodeId,
    /// The neighbor's own neighbor summaries — `p`'s window onto its
    /// 2-neighborhood, as a beacon relays it.
    pub view: Vec<PeerSummary>,
}

/// Per-node state: shared variables plus the neighbor cache.
///
/// `PartialEq` compares exactly what the guards read: the four shared
/// variables and, per cached neighbor, its header, the strongest head
/// claim its view relays and its view's ids — not the rest of the 2-hop
/// summaries a beacon carries.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct ClusterState {
    /// DAG identifier (equals the unique id when the DAG is disabled).
    pub dag_id: u32,
    /// Current density value (shared variable `d_p`).
    pub density: Density,
    /// Current cluster-head choice (shared variable `H(p)`).
    pub head: NodeId,
    /// Current parent `F(p)`.
    pub parent: NodeId,
    /// Cached neighbor state, keyed by neighbor id: `Copy` headers
    /// sorted by id over one buffer of view ids ([`NeighborCache`]).
    /// The converging phase clones, compares and rewrites it for every
    /// active node. Each header carries its share of the density
    /// numerator (`links`), and under the fusion rule a claims column
    /// beside the headers keeps each view's strongest head claim, so
    /// R1 and R2 read the headers alone.
    pub cache: NeighborCache,
}

/// `clone_from` forwards to the cache's buffer-reusing `clone_from` —
/// the engine's scratch-state clone is allocation-free at steady
/// state.
impl Clone for ClusterState {
    fn clone(&self) -> Self {
        ClusterState {
            dag_id: self.dag_id,
            density: self.density,
            head: self.head,
            parent: self.parent,
            cache: self.cache.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.dag_id = source.dag_id;
        self.density = source.density;
        self.head = source.head;
        self.parent = source.parent;
        self.cache.clone_from(&source.cache);
    }
}

impl ClusterState {
    /// The node's election key as it would enter a comparison now.
    pub fn key(&self, me: NodeId) -> Key {
        Key::new(self.density, self.head == me, self.dag_id, me)
    }

    /// The (head, parent) pair — the protocol's observable output.
    pub fn output(&self) -> (NodeId, NodeId) {
        (self.head, self.parent)
    }
}

/// The beacon: the node's shared variables and its neighbor summaries.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct ClusterBeacon {
    /// Sender's DAG identifier.
    pub dag_id: u32,
    /// Sender's density.
    pub density: Density,
    /// Sender's head claim.
    pub head: NodeId,
    /// Sender's cached neighbor summaries (its 1-hop view).
    pub view: Vec<PeerSummary>,
}

/// `clone_from` reuses the `view` buffer: the event driver copies each
/// transmission's beacon into a pooled entry, which stops allocating
/// once the pool has seen the largest neighbourhood.
impl Clone for ClusterBeacon {
    fn clone(&self) -> Self {
        ClusterBeacon {
            dag_id: self.dag_id,
            density: self.density,
            head: self.head,
            view: self.view.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.dag_id = source.dag_id;
        self.density = source.density;
        self.head = source.head;
        self.view.clone_from(&source.view);
    }
}

/// The actor driver's wire format for one beacon frame: the sender's
/// shared variables followed by its length-prefixed neighbor view, all
/// little-endian `u32`s. [`Density`] crosses the wire as its exact
/// `(links, degree)` pair, so `decode(encode(b)) == b` — the
/// losslessness the cross-driver agreement suite relies on.
impl WireBeacon for ClusterBeacon {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.dag_id);
        put_u32(out, self.density.links());
        put_u32(out, self.density.degree());
        put_u32(out, self.head.value());
        put_u32(out, self.view.len() as u32);
        for p in &self.view {
            put_u32(out, p.id.value());
            put_u32(out, p.dag_id);
            put_u32(out, p.density.links());
            put_u32(out, p.density.degree());
            put_u32(out, p.head.value());
        }
    }

    fn decode(bytes: &[u8]) -> Option<Self> {
        let mut beacon = ClusterBeacon {
            dag_id: 0,
            density: Density::zero(),
            head: NodeId::new(0),
            view: Vec::new(),
        };
        Self::decode_into(bytes, &mut beacon).then_some(beacon)
    }

    /// The one parser: refills `out.view` in place, so a receiver that
    /// decodes every frame into the same pooled beacon stops allocating
    /// once the view has reached the largest neighbourhood it has seen.
    fn decode_into(bytes: &[u8], out: &mut Self) -> bool {
        let word = |words: &[u8], i: usize| {
            u32::from_le_bytes([
                words[4 * i],
                words[4 * i + 1],
                words[4 * i + 2],
                words[4 * i + 3],
            ])
        };
        let Some((header, body)) = bytes.split_first_chunk::<HEADER_BYTES>() else {
            return false;
        };
        // The length prefix must account for exactly the rest of the
        // frame. Checked before `out` is touched or any memory is
        // reserved, and overflow-proof: a hostile prefix whose byte
        // count wraps `usize` is malformed, not a small number.
        let expected = usize::try_from(word(header, 4))
            .ok()
            .and_then(|len| len.checked_mul(PEER_SUMMARY_BYTES));
        if expected != Some(body.len()) {
            return false;
        }
        out.dag_id = word(header, 0);
        out.density = Density::ratio(word(header, 1), word(header, 2));
        out.head = NodeId::new(word(header, 3));
        out.view.clear();
        out.view.extend(
            body.chunks_exact(PEER_SUMMARY_BYTES)
                .map(|entry| PeerSummary {
                    id: NodeId::new(word(entry, 0)),
                    dag_id: word(entry, 1),
                    density: Density::ratio(word(entry, 2), word(entry, 3)),
                    head: NodeId::new(word(entry, 4)),
                }),
        );
        true
    }
}

/// Wire size of the frame header: the sender's four shared-variable
/// words and the view's length prefix.
const HEADER_BYTES: usize = 20;

/// Wire size of one [`PeerSummary`]: five little-endian `u32`s.
const PEER_SUMMARY_BYTES: usize = 20;

/// The self-stabilizing density-driven clustering protocol.
///
/// # Examples
///
/// ```
/// use mwn_cluster::{extract_clustering, ClusterConfig, DensityCluster};
/// use mwn_graph::builders::fig1_example;
/// use mwn_graph::NodeId;
/// use mwn_sim::{Scenario, StopWhen};
///
/// let topo = fig1_example();
/// let protocol = DensityCluster::new(ClusterConfig::default());
/// let mut net = Scenario::new(protocol)
///     .topology(topo)
///     .seed(1)
///     .build()
///     .expect("valid scenario");
/// net.run_to(&StopWhen::stable_for(3).within(100)).expect_stable("stabilizes");
/// let clustering = extract_clustering(net.states()).expect("clean output");
/// // The paper's example: two clusters, headed by h (id 7) and j (id 5).
/// assert_eq!(clustering.heads(), vec![NodeId::new(5), NodeId::new(7)]);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DensityCluster {
    config: ClusterConfig,
}

impl DensityCluster {
    /// Creates the protocol with `config`.
    pub fn new(config: ClusterConfig) -> Self {
        DensityCluster { config }
    }

    /// The protocol configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    fn key_of_summary(s: &PeerSummary) -> Key {
        Key::new(s.density, s.head == s.id, s.dag_id, s.id)
    }

    /// The strongest head claim `view` relays, `me`'s own excluded —
    /// what a [`NeighborSlot`] keeps of a view for the fusion rule.
    /// `None` under [`HeadRule::Basic`], whose guards read no claim.
    fn relayed_claim(&self, me: NodeId, view: &[PeerSummary]) -> Option<Key> {
        if self.config.rule != HeadRule::Fusion {
            return None;
        }
        view.iter()
            .filter(|s| s.id != me && s.head == s.id)
            .map(Self::key_of_summary)
            .max_by(|a, b| a.cmp_under(b, self.config.order))
    }

    /// The strongest cluster-head claim visible in `p`'s 2-hop window:
    /// direct neighbors claiming headship plus the claim each slot
    /// keeps of its view. Used by the fusion rule.
    fn strongest_two_hop_claim(&self, state: &ClusterState) -> Option<Key> {
        let slots = state.cache.slots();
        let direct = slots
            .iter()
            .filter(|e| e.head == e.id)
            .map(|e| Self::key_of_summary(&e.summary()));
        let relayed = state.cache.relayed_claims();
        direct
            .chain(relayed)
            .max_by(|a, b| a.cmp_under(b, self.config.order))
    }

    /// The receive guard. Returns whether `state` changed under
    /// `PartialEq` — exactly: the cached copy of `from` was created, or
    /// rewritten with a different header, claim, view ids or stamp.
    fn refresh_cached_copy(
        &self,
        node: NodeId,
        state: &mut ClusterState,
        from: NodeId,
        beacon: &ClusterBeacon,
        now: u64,
    ) -> bool {
        if from == node {
            return false; // a radio echo of ourselves carries no information
        }
        let event_driven = self.config.freshness == FreshnessPolicy::EventDriven;
        let claim = self.relayed_claim(node, &beacon.view);
        let changed = match state.cache.get(&from) {
            Some((e, ids)) => {
                // Under TtlSweep a rewrite moves the stamp unless the
                // sender was already heard this very step, so the
                // content is only compared then.
                let same = (event_driven || e.last_seen == now)
                    && e.dag_id == beacon.dag_id
                    && e.density == beacon.density
                    && e.head == beacon.head
                    && state.cache.claim(&from) == claim
                    && ids.len() == beacon.view.len()
                    && ids.iter().zip(&beacon.view).all(|(&r, s)| r == s.id);
                // Silence contract: an already-incorporated beacon must
                // be a state no-op — not even a timestamp refresh.
                if event_driven && same {
                    return false;
                }
                !same
            }
            None => true,
        };
        // A known neighbor is overwritten in place: a refresh never
        // allocates once its view has reached the neighborhood's size.
        let peer = PeerSummary {
            id: from,
            dag_id: beacon.dag_id,
            density: beacon.density,
            head: beacon.head,
        };
        state.cache.store(now, peer, claim, &beacon.view);
        changed
    }

    /// One pass of the guarded assignments N1, R1, R2 after the cache
    /// sweep. Returns whether the sweep dropped an entry — the only way
    /// this pass changes the cache.
    fn run_guards(
        &self,
        node: NodeId,
        state: &mut ClusterState,
        now: u64,
        rng: &mut StdRng,
    ) -> bool {
        // Cache hygiene. TtlSweep: drop entries that are stale or carry
        // a timestamp from the future (corrupted state must die out).
        // EventDriven: only future-stamped forgeries are swept — live
        // entries must survive arbitrarily long silence, and departed
        // neighbors are evicted by `link_down` instead.
        let ttl = self.config.cache_ttl;
        let swept = match self.config.freshness {
            FreshnessPolicy::TtlSweep => state
                .cache
                .retain(|e| e.last_seen <= now && now - e.last_seen < ttl),
            FreshnessPolicy::EventDriven => state.cache.retain(|e| e.last_seen <= now),
        };
        let cached = state.cache.slots();

        // --- N1: DAG renaming (Section 4.1) --------------------------
        match &self.config.dag {
            Some(dag) => {
                let conflicted = !dag.gamma.contains(state.dag_id)
                    || cached.iter().any(|e| e.dag_id == state.dag_id);
                if conflicted {
                    let must_redraw = match dag.variant {
                        DagVariant::Randomized => true,
                        DagVariant::SmallestIdRedraws => {
                            !dag.gamma.contains(state.dag_id)
                                || cached
                                    .iter()
                                    .any(|e| e.dag_id == state.dag_id && node < e.id)
                        }
                    };
                    if must_redraw {
                        // The used-name list is only materialized on an
                        // actual redraw — conflict-free steps (the
                        // overwhelming majority) stay allocation-free.
                        let used: Vec<u32> = cached.iter().map(|e| e.dag_id).collect();
                        state.dag_id = new_id(state.dag_id, &used, dag.gamma, rng);
                    }
                }
            }
            None => {
                // Without the DAG the tie-break id *is* the unique id;
                // re-asserting it heals corrupted state.
                state.dag_id = node.value();
            }
        }

        // --- R1: density (Section 4.2) --------------------------------
        // Each cached neighbor carries its share of the numerator
        // (`NeighborCache`'s `links` invariant), so the value is a sum
        // over the headers: no view is read.
        state.density = self
            .config
            .metric
            .value_from_counts(cached.len() as u32, state.cache.neighborhood_links(node));

        // --- R2: cluster-head choice (Sections 4.2 / 4.3) -------------
        let my_key = state.key(node);
        let order = self.config.order;
        let strongest_neighbor = cached
            .iter()
            .map(|e| (*e, Self::key_of_summary(&e.summary())))
            .max_by(|(_, a), (_, b)| a.cmp_under(b, order));
        let follow = match strongest_neighbor {
            Some((q, k)) if !k.precedes(&my_key, order) => Some(q),
            _ => None,
        };
        match (follow, self.config.rule) {
            (Some(q), _) => {
                state.parent = q.id;
                state.head = q.head;
            }
            (None, HeadRule::Basic) => {
                state.head = node;
                state.parent = node;
            }
            (None, HeadRule::Fusion) => {
                // `≺` is total, so the strongest claim that beats
                // `my_key` is the strongest claim, if it beats `my_key`.
                let blocking = self
                    .strongest_two_hop_claim(state)
                    .filter(|c| my_key.precedes(c, order));
                // Locally maximal, yet a stronger head sits within two
                // hops: abdicate and merge into it (logical 2-hop
                // parent).
                let head = blocking.map_or(node, |absorber| absorber.id);
                state.head = head;
                state.parent = head;
            }
        }
        swept
    }
}

impl Protocol for DensityCluster {
    type State = ClusterState;
    type Beacon = ClusterBeacon;

    fn init(&self, node: NodeId, rng: &mut StdRng) -> ClusterState {
        let dag_id = match &self.config.dag {
            Some(dag) => rng.random_range(0..dag.gamma.size()),
            None => node.value(),
        };
        ClusterState {
            dag_id,
            density: Density::zero(),
            head: node,
            parent: node,
            cache: NeighborCache::new(),
        }
    }

    fn beacon(&self, node: NodeId, state: &ClusterState) -> ClusterBeacon {
        let mut beacon = ClusterBeacon {
            dag_id: 0,
            density: Density::zero(),
            head: node,
            view: Vec::new(),
        };
        self.beacon_into(node, state, &mut beacon);
        beacon
    }

    fn beacon_into(&self, _node: NodeId, state: &ClusterState, out: &mut ClusterBeacon) {
        // Pooled rebuild: the engine hands back the same scratch beacon
        // every refresh, so the `view` vec's capacity is reused and the
        // per-beacon rebuild — the last protocol-side allocation on the
        // converging path — costs no heap traffic at steady state.
        out.dag_id = state.dag_id;
        out.density = state.density;
        out.head = state.head;
        out.view.clear();
        out.view
            .extend(state.cache.slots().iter().map(NeighborSlot::summary));
    }

    fn receive(
        &self,
        node: NodeId,
        state: &mut ClusterState,
        from: NodeId,
        beacon: &ClusterBeacon,
        now: u64,
    ) {
        self.refresh_cached_copy(node, state, from, beacon, now);
    }

    fn update(&self, node: NodeId, state: &mut ClusterState, now: u64, rng: &mut StdRng) {
        self.run_guards(node, state, now, rng);
    }

    /// Sizes a never-allocated cache for the whole neighborhood at once
    /// ([`NeighborCache::reserve`]): one slot per neighbor, one view id
    /// per neighbor of a neighbor.
    #[inline]
    fn reserve(&self, state: &mut ClusterState, degree: usize, two_hop: impl FnOnce() -> usize) {
        state.cache.reserve(degree, two_hop);
    }

    /// Exact without a snapshot: the guard itself knows whether it
    /// rewrote the cached copy.
    fn receive_changed(
        &self,
        node: NodeId,
        state: &mut ClusterState,
        from: NodeId,
        beacon: &ClusterBeacon,
        now: u64,
        _scratch: &mut Option<ClusterState>,
    ) -> bool {
        self.refresh_cached_copy(node, state, from, beacon, now)
    }

    /// Exact without a snapshot: the pass writes the four shared
    /// variables (compared the way `ClusterState: PartialEq` compares
    /// them — [`Density`] by ratio) and touches the cache only by
    /// sweeping entries out of it.
    fn update_changed(
        &self,
        node: NodeId,
        state: &mut ClusterState,
        now: u64,
        rng: &mut StdRng,
        _scratch: &mut Option<ClusterState>,
    ) -> bool {
        let shared = |s: &ClusterState| (s.dag_id, s.density, s.head, s.parent);
        let before = shared(state);
        let swept = self.run_guards(node, state, now, rng);
        swept || before != shared(state)
    }

    /// The header word, then every cache line of the view: one word of
    /// every third entry and of the last, summed (wrapping). A
    /// [`PeerSummary`] is 20 bytes, so a stride of three (60 bytes)
    /// lands on every 64-byte line of the view whatever its alignment.
    #[inline]
    fn peek(&self, beacon: &ClusterBeacon) -> u64 {
        let view = &beacon.view;
        let strided = view.iter().step_by(3).map(|s| u64::from(s.dag_id));
        let last = view.last().map_or(0, |s| u64::from(s.head.value()));
        strided.fold(
            u64::from(beacon.dag_id).wrapping_add(last),
            u64::wrapping_add,
        )
    }

    const PEEK_LEVELS: u8 = NeighborCache::PEEK_LEVELS;

    /// Everything a receive and its guard pass reach behind the state
    /// column belongs to the cache ([`NeighborCache::peek`]).
    #[inline]
    fn peek_state(&self, state: &ClusterState, from: NodeId, level: u8) -> u64 {
        state.cache.peek(from, level)
    }

    fn activity(&self) -> mwn_sim::Activity {
        match self.config.freshness {
            FreshnessPolicy::TtlSweep => mwn_sim::Activity::Eager,
            FreshnessPolicy::EventDriven => mwn_sim::Activity::Gated,
        }
    }

    fn beacon_changed(&self, old: &ClusterBeacon, new: &ClusterBeacon) -> bool {
        old != new
    }

    /// What the receive guard compares before it rewrites a cached
    /// copy, as a projection. Under [`FreshnessPolicy::EventDriven`]:
    /// the sender's header (`dag_id`, `density` by ratio, `head`) and
    /// its view's ids; under [`HeadRule::Fusion`] also which view
    /// entries claim headship (`head == id`) and those entries'
    /// `dag_id` and `density` — everything the relayed head claim is
    /// computed from, whoever the receiver is. Under
    /// [`FreshnessPolicy::TtlSweep`] every receive restamps its entry,
    /// so every change is read.
    fn read_changed(&self, old: &ClusterBeacon, new: &ClusterBeacon) -> bool {
        if self.config.freshness == FreshnessPolicy::TtlSweep {
            return old != new;
        }
        let fusion = self.config.rule == HeadRule::Fusion;
        let claims = |s: &PeerSummary| s.head == s.id;
        let claim_changed = |a: &PeerSummary, b: &PeerSummary| {
            claims(a) != claims(b) || (claims(a) && (a.dag_id, a.density) != (b.dag_id, b.density))
        };
        let entry_changed =
            |(a, b): (&PeerSummary, &PeerSummary)| a.id != b.id || (fusion && claim_changed(a, b));
        old.dag_id != new.dag_id
            || old.density != new.density
            || old.head != new.head
            || old.view.len() != new.view.len()
            || old.view.iter().zip(&new.view).any(entry_changed)
    }

    fn link_down(&self, _node: NodeId, state: &mut ClusterState, peer: NodeId) {
        // The link layer knows the neighbor is gone: evict immediately
        // instead of waiting out a TTL (and instead of never noticing,
        // under the event-driven policy).
        state.cache.remove(&peer);
    }
}

impl Observable for DensityCluster {
    /// The full shared-variable fixpoint `(Id_p, H(p), F(p))`: the DAG
    /// name, the cluster-head and the parent. With the DAG disabled
    /// the name is the (re-asserted, constant) unique id, so the
    /// projection degenerates to the election output `(H(p), F(p))` —
    /// one canonical projection serves every configuration, replacing
    /// the per-call-site closures the experiments used to carry.
    type Output = (u32, NodeId, NodeId);

    fn output(&self, _node: NodeId, state: &ClusterState) -> (u32, NodeId, NodeId) {
        (state.dag_id, state.head, state.parent)
    }
}

impl Corruptible for DensityCluster {
    fn corrupt(&self, node: NodeId, state: &mut ClusterState, rng: &mut StdRng) {
        state.dag_id = rng.random_range(0..u32::MAX);
        state.density = Density::ratio(rng.random_range(0..100), rng.random_range(0..16));
        state.head = NodeId::new(rng.random_range(0..10_000));
        state.parent = NodeId::new(rng.random_range(0..10_000));
        state.cache.clear();
        for _ in 0..rng.random_range(0..5) {
            let ghost = NodeId::new(rng.random_range(0..10_000));
            let view: Vec<PeerSummary> = (0..rng.random_range(0..4))
                .map(|_| PeerSummary {
                    id: NodeId::new(rng.random_range(0..10_000)),
                    dag_id: rng.random_range(0..u32::MAX),
                    density: Density::ratio(rng.random_range(0..50), rng.random_range(0..8)),
                    head: NodeId::new(rng.random_range(0..10_000)),
                })
                .collect();
            // Drawn in the order a `NeighborEntry` literal draws them.
            let last_seen = rng.random_range(0..u64::MAX);
            let peer = PeerSummary {
                id: ghost,
                dag_id: rng.random_range(0..u32::MAX),
                density: Density::ratio(rng.random_range(0..50), rng.random_range(0..8)),
                head: NodeId::new(rng.random_range(0..10_000)),
            };
            let claim = self.relayed_claim(node, &view);
            state.cache.store(last_seen, peer, claim, &view);
        }
    }
}

/// Anything that exposes a node's cluster-head and parent claim:
/// full [`ClusterState`]s and the protocol's
/// [`mwn_sim::Observable`] outputs both qualify, so
/// [`extract_clustering`] works off either.
pub trait ClusterView {
    /// The claimed cluster-head `H(p)`.
    fn head_claim(&self) -> NodeId;
    /// The claimed parent `F(p)`.
    fn parent_claim(&self) -> NodeId;
}

impl ClusterView for ClusterState {
    fn head_claim(&self) -> NodeId {
        self.head
    }
    fn parent_claim(&self) -> NodeId {
        self.parent
    }
}

/// The [`mwn_sim::Observable`] output of [`DensityCluster`]:
/// `(Id_p, H(p), F(p))`.
impl ClusterView for (u32, NodeId, NodeId) {
    fn head_claim(&self) -> NodeId {
        self.1
    }
    fn parent_claim(&self) -> NodeId {
        self.2
    }
}

/// Extracts the clustering from stabilized protocol states or
/// observable outputs (anything implementing [`ClusterView`]).
///
/// Returns `None` if any head or parent pointer references a node
/// outside the network — possible only in non-stabilized snapshots
/// (e.g. right after a corruption), never in a legitimate
/// configuration.
pub fn extract_clustering<V: ClusterView>(views: &[V]) -> Option<Clustering> {
    let n = views.len();
    let mut parent = Vec::with_capacity(n);
    let mut head = Vec::with_capacity(n);
    for v in views {
        if v.parent_claim().index() >= n || v.head_claim().index() >= n {
            return None;
        }
        parent.push(v.parent_claim());
        head.push(v.head_claim());
    }
    Some(Clustering::new(parent, head))
}

/// The stabilized DAG identifiers, for feeding the oracle's tiebreak.
pub fn extract_dag_ids(states: &[ClusterState]) -> Vec<u32> {
    states.iter().map(|s| s.dag_id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwn_graph::builders;
    use mwn_radio::{BernoulliLoss, PerfectMedium, SlottedCsma};
    use mwn_sim::{Network, Scenario, StopWhen};

    use crate::{oracle, OracleConfig};

    fn stabilize<M: mwn_radio::Medium>(
        config: ClusterConfig,
        medium: M,
        topo: mwn_graph::Topology,
        seed: u64,
        max_steps: u64,
    ) -> Network<DensityCluster, M> {
        let mut net = Scenario::new(DensityCluster::new(config))
            .medium(medium)
            .topology(topo)
            .seed(seed)
            .validate(move |t| config.validate_for(t))
            .build()
            .expect("valid scenario");
        net.run_to(&StopWhen::stable_for(5).within(max_steps))
            .expect_stable("protocol stabilizes");
        net
    }

    #[test]
    fn fig1_reaches_the_paper_clustering() {
        let net = stabilize(
            ClusterConfig::default(),
            PerfectMedium,
            builders::fig1_example(),
            3,
            100,
        );
        let c = extract_clustering(net.states()).unwrap();
        assert_eq!(c.heads(), vec![NodeId::new(5), NodeId::new(7)]); // j and h
    }

    #[test]
    fn distributed_fixpoint_matches_oracle_basic() {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(10);
        for seed in 0..5 {
            let topo = builders::uniform(80, 0.15, &mut rng);
            let net = stabilize(ClusterConfig::default(), PerfectMedium, topo, seed, 300);
            let c = extract_clustering(net.states()).unwrap();
            let want = oracle(net.topology(), &OracleConfig::default());
            assert_eq!(c, want, "seed {seed}");
        }
    }

    #[test]
    fn distributed_fixpoint_matches_oracle_fusion() {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(11);
        let config = ClusterConfig {
            rule: HeadRule::Fusion,
            ..ClusterConfig::default()
        };
        for seed in 0..5 {
            let topo = builders::uniform(80, 0.15, &mut rng);
            let net = stabilize(config, PerfectMedium, topo, seed, 500);
            let c = extract_clustering(net.states()).unwrap();
            let want = oracle(
                net.topology(),
                &OracleConfig {
                    rule: HeadRule::Fusion,
                    ..OracleConfig::default()
                },
            );
            assert_eq!(c.heads(), want.heads(), "seed {seed}");
        }
    }

    #[test]
    fn information_schedule_matches_table2() {
        // Paper Table 2: neighbors after step 1, density after step 2,
        // father after step 3.
        let topo = builders::fig1_example();
        let mut net = Scenario::new(DensityCluster::new(ClusterConfig::default()))
            .topology(topo.clone())
            .seed(5)
            .build()
            .expect("valid scenario");
        // Step 1: neighbor tables complete.
        net.step();
        for p in topo.nodes() {
            let cached: Vec<NodeId> = net.state(p).cache.keys().copied().collect();
            assert_eq!(cached.as_slice(), topo.neighbors(p), "step 1 neighbors");
        }
        // Step 2: densities correct.
        net.step();
        for p in topo.nodes() {
            assert_eq!(
                net.state(p).density,
                crate::density_of(&topo, p),
                "step 2 density of {p}"
            );
        }
        // Step 3: parents correct.
        net.step();
        let want = oracle(&topo, &OracleConfig::default());
        for p in topo.nodes() {
            assert_eq!(net.state(p).parent, want.parent(p), "step 3 parent of {p}");
        }
    }

    #[test]
    fn self_stabilizes_from_arbitrary_corruption() {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(12);
        let topo = builders::uniform(60, 0.18, &mut rng);
        let mut net = Scenario::new(DensityCluster::new(ClusterConfig::default()))
            .topology(topo)
            .seed(6)
            .build()
            .expect("valid scenario");
        net.run(20);
        let before = extract_clustering(net.states()).unwrap();
        net.corrupt_all();
        net.run_to(&StopWhen::stable_for(5).within(500))
            .expect_stable("reconverges after corruption");
        let after = extract_clustering(net.states()).unwrap();
        assert_eq!(before, after, "convergence must restore the fixpoint");
    }

    #[test]
    fn closure_fixpoint_does_not_drift() {
        let topo = builders::fig1_example();
        let mut net = Scenario::new(DensityCluster::new(ClusterConfig::default()))
            .topology(topo)
            .seed(7)
            .build()
            .expect("valid scenario");
        net.run(20);
        let fixed = extract_clustering(net.states()).unwrap();
        net.run(50);
        assert_eq!(extract_clustering(net.states()).unwrap(), fixed);
    }

    #[test]
    fn stabilizes_over_lossy_medium() {
        let config = ClusterConfig {
            cache_ttl: 10,
            ..ClusterConfig::default()
        };
        let net = stabilize(
            config,
            BernoulliLoss::new(0.5),
            builders::fig1_example(),
            8,
            3000,
        );
        let c = extract_clustering(net.states()).unwrap();
        assert_eq!(c.heads(), vec![NodeId::new(5), NodeId::new(7)]);
    }

    #[test]
    fn stabilizes_over_csma_medium() {
        let config = ClusterConfig {
            cache_ttl: 12,
            ..ClusterConfig::default()
        };
        let net = stabilize(
            config,
            SlottedCsma::new(16),
            builders::fig1_example(),
            9,
            3000,
        );
        let c = extract_clustering(net.states()).unwrap();
        assert_eq!(c.heads(), vec![NodeId::new(5), NodeId::new(7)]);
    }

    #[test]
    fn dag_mode_produces_locally_unique_tiebreaks() {
        let topo = builders::grid(8, 8, 0.2);
        let gamma = NameSpace::delta_squared(topo.max_degree());
        let config = ClusterConfig {
            dag: Some(DagConfig {
                gamma,
                variant: DagVariant::SmallestIdRedraws,
            }),
            ..ClusterConfig::default()
        };
        let net = stabilize(config, PerfectMedium, topo, 10, 500);
        let ids = extract_dag_ids(net.states());
        assert!(crate::is_locally_unique(net.topology(), &ids));
        // And the clustering matches the oracle under those very ids.
        let c = extract_clustering(net.states()).unwrap();
        let want = oracle(
            net.topology(),
            &OracleConfig {
                tiebreak: Some(ids),
                ..OracleConfig::default()
            },
        );
        assert_eq!(c, want);
    }

    #[test]
    fn incumbency_order_stabilizes() {
        let config = ClusterConfig {
            order: OrderKind::Stable,
            ..ClusterConfig::default()
        };
        let net = stabilize(config, PerfectMedium, builders::fig1_example(), 11, 300);
        let c = extract_clustering(net.states()).unwrap();
        // Densities are distinct enough here that incumbency does not
        // change the winners.
        assert_eq!(c.heads(), vec![NodeId::new(5), NodeId::new(7)]);
    }

    #[test]
    fn isolated_node_is_its_own_head() {
        let topo = mwn_graph::Topology::empty(1);
        let net = stabilize(ClusterConfig::default(), PerfectMedium, topo, 12, 50);
        let c = extract_clustering(net.states()).unwrap();
        assert!(c.is_head(NodeId::new(0)));
    }

    #[test]
    fn ghost_cache_entries_expire() {
        let topo = builders::line(3);
        let mut net = Scenario::new(DensityCluster::new(ClusterConfig::default()))
            .topology(topo)
            .seed(13)
            .build()
            .expect("valid scenario");
        net.run(5);
        // Plant a ghost neighbor with a *future* timestamp.
        net.state_mut(NodeId::new(0)).cache.insert(
            NodeId::new(999),
            NeighborEntry {
                last_seen: u64::MAX,
                dag_id: 0,
                density: Density::integer(99),
                head: NodeId::new(999),
                view: Vec::new(),
            },
        );
        net.run(2);
        assert!(
            !net.state(NodeId::new(0))
                .cache
                .contains_key(&NodeId::new(999)),
            "future-stamped ghost must be expired"
        );
    }

    #[test]
    fn event_driven_freshness_matches_ttl_sweep_fixpoint() {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(14);
        for seed in 0..3 {
            let topo = builders::uniform(70, 0.16, &mut rng);
            let legacy = stabilize(
                ClusterConfig::default(),
                PerfectMedium,
                topo.clone(),
                seed,
                400,
            );
            let silent = stabilize(
                ClusterConfig::default().event_driven(),
                PerfectMedium,
                topo,
                seed,
                400,
            );
            assert_eq!(
                extract_clustering(legacy.states()).unwrap(),
                extract_clustering(silent.states()).unwrap(),
                "seed {seed}: both freshness policies reach the oracle fixpoint"
            );
        }
    }

    #[test]
    fn event_driven_cluster_goes_silent() {
        let mut net = stabilize(
            ClusterConfig::default().event_driven(),
            PerfectMedium,
            builders::fig1_example(),
            15,
            200,
        );
        assert!(net.is_gated(), "EventDriven unlocks gated scheduling");
        let frozen = net.messages_total();
        net.run(30);
        assert_eq!(net.last_activity().senders, 0, "stable clusters are silent");
        assert_eq!(net.last_activity().updates, 0);
        assert_eq!(net.messages_total(), frozen);
        // And the output is still the paper's clustering.
        let c = extract_clustering(net.states()).unwrap();
        assert_eq!(c.heads(), vec![NodeId::new(5), NodeId::new(7)]);
    }

    #[test]
    fn event_driven_cluster_self_stabilizes_after_corruption() {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(16);
        let topo = builders::uniform(60, 0.18, &mut rng);
        let mut net = Scenario::new(DensityCluster::new(ClusterConfig::default().event_driven()))
            .topology(topo)
            .seed(17)
            .build()
            .expect("valid scenario");
        net.run(25);
        let before = extract_clustering(net.states()).unwrap();
        net.corrupt_all();
        net.run_to(&StopWhen::stable_for(5).within(1000))
            .expect_stable("reconverges after corruption");
        let after = extract_clustering(net.states()).unwrap();
        assert_eq!(before, after, "convergence must restore the fixpoint");
        net.run(10);
        assert_eq!(net.last_activity().senders, 0, "silent again after healing");
    }

    #[test]
    fn event_driven_survives_isolation_via_link_down() {
        // Under EventDriven freshness there is no TTL: the link-down
        // notification is what evicts a severed neighbor.
        let mut net = Scenario::new(DensityCluster::new(ClusterConfig::default().event_driven()))
            .topology(builders::line(5))
            .seed(18)
            .build()
            .expect("valid scenario");
        net.run(15);
        net.isolate(NodeId::new(2));
        assert!(
            net.state(NodeId::new(1)).cache.is_empty()
                || !net
                    .state(NodeId::new(1))
                    .cache
                    .contains_key(&NodeId::new(2)),
            "link_down evicts the severed neighbor immediately"
        );
        net.run_to(&StopWhen::stable_for(4).within(200))
            .expect_stable("re-stabilizes on the cut topology");
        let c = extract_clustering(net.states()).unwrap();
        assert!(c.is_head(NodeId::new(2)), "an isolated node heads itself");
    }

    #[test]
    fn config_validation_catches_small_gamma() {
        let topo = builders::star(10); // δ = 9
        let config = ClusterConfig {
            dag: Some(DagConfig {
                gamma: NameSpace::of_size(4),
                variant: DagVariant::Randomized,
            }),
            ..ClusterConfig::default()
        };
        assert!(config.validate_for(&topo).is_err());
    }

    #[test]
    fn extract_rejects_out_of_range_claims() {
        let state = ClusterState {
            dag_id: 0,
            density: Density::zero(),
            head: NodeId::new(42),
            parent: NodeId::new(0),
            cache: NeighborCache::new(),
        };
        assert!(extract_clustering(&[state]).is_none());
    }
}
