//! The traffic plane: bounded per-node FIFO queues, per-node
//! forwarding tables, and a batch forwarding pass sharded over
//! [`mwn_sim::run_sharded`].
//!
//! # Execution model
//!
//! One [`TrafficPlane::on_step`] call advances the data plane by one
//! logical step, in three sub-phases:
//!
//! 1. **inject** — every active flow feeds up to `inject_rate` packets
//!    into its source's queue (full queues defer, never drop, at the
//!    source);
//! 2. **resolve** — pending `(node, dst)` next-hop lookups are answered
//!    from the supplied [`RoutingView`] (one full-route resolution
//!    seeds the forwarding table of every node along the path), in
//!    ascending key order: a later route overwrites the entries of an
//!    earlier one where they cross, so the order is observable. The
//!    whole phase is one routing pass ([`RouteScratch::pass`]): view
//!    and topology are pinned from its first key to its last;
//! 3. **forward** — each node serves up to `service_rate` packets from
//!    its queue head: deliver when the next hop is the destination,
//!    forward otherwise, and stop (head-of-line) when the next hop is
//!    unknown or its link is gone *right now* — every traversal
//!    re-checks [`Topology::has_edge`] at the forwarding instant.
//!
//! # Determinism
//!
//! The forward pass runs in two phases so it can use the shared worker
//! pool without losing the workspace's sharded ≡ serial discipline:
//! workers get read-only access to the frozen queues/tables/topology
//! and emit per-node verdicts into their own arena; a single-threaded
//! merge then applies pops, pushes, capacity checks and drop
//! accounting in ascending node order. Each node's verdicts depend
//! only on its own queue plus the frozen shared state, so the shard
//! count — [`ShardPolicy`]'s automatic choice, forced via
//! [`TrafficPlane::set_shards`] or the `MWN_FORCE_SHARDS` environment
//! variable — cannot leak into any observable outcome.
//!
//! # Cost
//!
//! A step costs what it touches. Route searches run on one
//! [`RouteScratch`] the plane owns, so a resolution pays for the nodes
//! its searches visit, not for the network, and a resolve pass pays
//! once for what its routes share: under a hierarchical view each
//! overlay hop is searched the first time a route of the pass crosses
//! it and copied from the scratch's segment memo after that (hot sinks
//! make that the common case); a next-hop lookup probes
//! the forwarding node's own `dst → next` table, one cache line
//! however many destinations the node relays for; packets sit by
//! value in the queue of the node holding them, so serving a queue is
//! one sequential read; the examine phase appends verdicts to
//! per-shard arenas that are reused across steps; and injection walks
//! only the flows that still have packets to send. Once every buffer
//! has reached its high-water mark, a step without a resolve pass
//! performs no heap allocation at one shard, and a resolve pass
//! allocates only where a forwarding table grows
//! (`tests/alloc_audit.rs` of this crate).
//!
//! # Drop taxonomy
//!
//! * **overflow** — next hop's queue was full at merge time
//!   (congestion);
//! * **stranded** — TTL expired while the packet had no usable next
//!   hop (unknown route or broken link): this is the
//!   *loss-during-restabilization* the benches report;
//! * **expired** — TTL expired while a usable next hop existed
//!   (starved by congestion, not by the control plane).

use std::collections::{BTreeSet, VecDeque};

use mwn_cluster::{RouteScratch, RoutingView};
use mwn_graph::{NodeId, Topology};
use mwn_metrics::{LatencyHistogram, RunningStats};
use mwn_sim::{run_sharded, ShardPolicy};

use crate::demand::FlowSpec;
use crate::report::TrafficReport;

/// Data-plane tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct TrafficConfig {
    /// Per-node queue bound; a forward into a full queue drops the
    /// packet (overflow).
    pub queue_capacity: usize,
    /// Packets one node may move (deliver or forward) per step.
    pub service_rate: usize,
    /// Steps a packet may live after injection before it is dropped.
    pub ttl: u64,
    /// Packets each active flow injects per step.
    pub inject_rate: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            queue_capacity: 64,
            service_rate: 4,
            ttl: 64,
            inject_rate: 1,
        }
    }
}

/// Per-node verdicts from the read-only examine phase. The pop-ing
/// variants (`Deliver`/`Forward`/`Expired`) always describe a prefix
/// of the node's queue, in order; a `Stuck*` verdict is terminal for
/// its node.
#[derive(Clone, Copy, Debug)]
enum Emit {
    /// Head packet's next hop is its destination: pop and deliver.
    Deliver,
    /// Pop and append to this neighbor's queue (capacity checked at
    /// merge).
    Forward(u32),
    /// Pop and drop: outlived its TTL.
    Expired,
    /// No cached next hop toward this destination — head-of-line
    /// blocked, request a route.
    StuckNoRoute(u32),
    /// The cached next hop's link is gone — evict the cache entry and
    /// request a route.
    StuckBroken(u32, u32),
}

/// One node's memoized next hops, `dst → next` — the shape of a
/// per-node routing table, so a lookup touches only the forwarding
/// node's own entries. Open addressing with linear probing over a
/// power-of-two slot array at most three-quarters full: a lookup reads
/// one cache line however many destinations the node relays for
/// (a binary search over a busy relay's ~150 sorted entries read four).
/// Nothing ever iterates a table, so slot order is not observable.
#[derive(Clone, Debug, Default)]
struct NodeTable {
    /// `(dst, next)`; `dst == VACANT` marks a free slot.
    slots: Vec<(u32, u32)>,
    len: usize,
}

/// No destination: [`TrafficPlane::new`] keeps node ids below it.
const VACANT: u32 = u32::MAX;

impl NodeTable {
    /// Where the probe sequence of `dst` starts; `slots` is non-empty.
    fn home(&self, dst: u32) -> usize {
        // Fibonacci hashing: the top bits of the product mix all of
        // `dst`; the slot count is a power of two, at least 4.
        (dst.wrapping_mul(0x9E37_79B9) >> (32 - self.slots.len().trailing_zeros())) as usize
    }

    /// The slot holding `dst`, or the vacant slot its probe ends at.
    fn probe(&self, dst: u32) -> usize {
        let mut i = self.home(dst);
        while self.slots[i].0 != dst && self.slots[i].0 != VACANT {
            i = (i + 1) & (self.slots.len() - 1);
        }
        i
    }

    fn get(&self, dst: u32) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let (d, next) = self.slots[self.probe(dst)];
        (d == dst).then_some(next)
    }

    fn insert(&mut self, dst: u32, next: u32) {
        if (self.len + 1) * 4 > self.slots.len() * 3 {
            let grown = vec![(VACANT, 0); (self.slots.len() * 2).max(4)];
            for (d, v) in std::mem::replace(&mut self.slots, grown) {
                if d != VACANT {
                    let i = self.probe(d);
                    self.slots[i] = (d, v);
                }
            }
        }
        let i = self.probe(dst);
        if self.slots[i].0 == VACANT {
            self.len += 1;
        }
        self.slots[i] = (dst, next);
    }

    fn remove(&mut self, dst: u32) {
        if self.slots.is_empty() {
            return;
        }
        let mask = self.slots.len() - 1;
        let mut hole = self.probe(dst);
        if self.slots[hole].0 == VACANT {
            return;
        }
        // Backward-shift deletion: close the hole with every later
        // entry of the run whose probe sequence passes through it.
        let mut j = hole;
        loop {
            j = (j + 1) & mask;
            let d = self.slots[j].0;
            if d == VACANT {
                break;
            }
            let from_home = j.wrapping_sub(self.home(d)) & mask;
            if from_home >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = self.slots[j];
                hole = j;
            }
        }
        self.slots[hole] = (VACANT, 0);
        self.len -= 1;
    }
}

/// One in-flight packet. It lives in the queue of the node holding it
/// and moves by value, so serving a queue reads its packets in one
/// sequential sweep and there is no packet table to chase ids into.
#[derive(Clone, Copy, Debug)]
struct Packet {
    /// Step it was injected at.
    born: u64,
    flow: u32,
    /// Links traversed so far.
    hops: u32,
}

/// One examine shard's reusable output: the verdicts of its nodes back
/// to back, and where each node's run ends.
#[derive(Debug, Default)]
struct ShardArena {
    emits: Vec<Emit>,
    /// `(node, end of its run in emits)`, ascending by node; a run
    /// starts where the previous one ends.
    runs: Vec<(u32, u32)>,
}

/// The traffic-plane state machine; see the module docs.
///
/// # Examples
///
/// ```
/// use mwn_cluster::FlatRoutes;
/// use mwn_graph::{builders, NodeId};
/// use mwn_traffic::{FlowSpec, TrafficConfig, TrafficPlane};
///
/// let topo = builders::line(4);
/// let mut plane = TrafficPlane::new(topo.len(), TrafficConfig::default());
/// plane.add_flow(FlowSpec {
///     src: NodeId::new(0),
///     dst: NodeId::new(3),
///     packets: 5,
///     start: 0,
/// });
/// for _ in 0..20 {
///     plane.on_step(&topo, Some(&FlatRoutes));
/// }
/// assert!(plane.is_drained());
/// assert_eq!(plane.report().delivered, 5);
/// ```
#[derive(Debug)]
pub struct TrafficPlane {
    cfg: TrafficConfig,
    nodes: usize,
    // Flow table (SoA).
    flow_src: Vec<u32>,
    flow_dst: Vec<u32>,
    flow_size: Vec<u64>,
    flow_start: Vec<u64>,
    flow_injected: Vec<u64>,
    flow_delivered: Vec<u64>,
    // Flows that still have packets to inject, in flow order.
    unfinished: Vec<u32>,
    // Per-node bounded FIFO queues, and the packets across all of them.
    queues: Vec<VecDeque<Packet>>,
    live: usize,
    // Memoized next hops per node, plus the deterministic worklist of
    // `(node, dst)` lookups awaiting the control plane.
    next_hop: Vec<NodeTable>,
    pending: BTreeSet<(u32, u32)>,
    // Buffers reused across steps: the resolve pass's snapshot of
    // `pending`, its search state and the route being installed; the
    // forward pass's per-shard verdict arenas.
    resolve_keys: Vec<(u32, u32)>,
    route_scratch: RouteScratch,
    route: Vec<NodeId>,
    arenas: Vec<ShardArena>,
    // Accounting.
    steps: u64,
    injected: u64,
    delivered: u64,
    deferred: u64,
    dropped_overflow: u64,
    dropped_stranded: u64,
    dropped_expired: u64,
    latency: LatencyHistogram,
    hop_stats: RunningStats,
    max_hops: u64,
    route_resolutions: u64,
    shards: ShardPolicy,
    audit: Option<Vec<(u64, u32, u32)>>,
}

impl TrafficPlane {
    /// A traffic plane over `nodes` nodes. Honors the
    /// `MWN_FORCE_SHARDS` environment variable exactly like the round
    /// driver; [`TrafficPlane::set_shards`] overrides both.
    ///
    /// # Panics
    ///
    /// Panics when `nodes` exceeds `u32::MAX`, the id space.
    pub fn new(nodes: usize, cfg: TrafficConfig) -> Self {
        assert!(nodes <= VACANT as usize, "node ids are 32-bit");
        TrafficPlane {
            cfg,
            nodes,
            flow_src: Vec::new(),
            flow_dst: Vec::new(),
            flow_size: Vec::new(),
            flow_start: Vec::new(),
            flow_injected: Vec::new(),
            flow_delivered: Vec::new(),
            unfinished: Vec::new(),
            queues: vec![VecDeque::new(); nodes],
            live: 0,
            next_hop: vec![NodeTable::default(); nodes],
            pending: BTreeSet::new(),
            resolve_keys: Vec::new(),
            route_scratch: RouteScratch::new(),
            route: Vec::new(),
            arenas: Vec::new(),
            steps: 0,
            injected: 0,
            delivered: 0,
            deferred: 0,
            dropped_overflow: 0,
            dropped_stranded: 0,
            dropped_expired: 0,
            // One-step buckets up to the TTL, capped: latencies past
            // the cap land in the overflow bin, whose quantiles report
            // the exact max.
            latency: LatencyHistogram::new(
                1.0,
                (cfg.ttl.saturating_add(2) as usize).clamp(16, 4096),
            ),
            hop_stats: RunningStats::new(),
            max_hops: 0,
            route_resolutions: 0,
            shards: ShardPolicy::from_env(),
            audit: None,
        }
    }

    /// Registers one flow; its `(src, dst)` route request is queued
    /// immediately so the first resolve pass can warm the cache.
    ///
    /// # Panics
    ///
    /// Panics when the endpoints coincide or are out of range.
    pub fn add_flow(&mut self, flow: FlowSpec) {
        assert!(flow.src != flow.dst, "flow endpoints must differ");
        assert!(
            flow.src.index() < self.nodes && flow.dst.index() < self.nodes,
            "flow endpoints out of range"
        );
        self.flow_src.push(flow.src.value());
        self.flow_dst.push(flow.dst.value());
        self.flow_size.push(flow.packets);
        self.flow_start.push(flow.start);
        self.flow_injected.push(0);
        self.flow_delivered.push(0);
        if flow.packets > 0 {
            self.unfinished.push((self.flow_src.len() - 1) as u32);
        }
        self.pending.insert((flow.src.value(), flow.dst.value()));
    }

    /// Registers a whole workload.
    pub fn add_flows(&mut self, flows: &[FlowSpec]) {
        for &f in flows {
            self.add_flow(f);
        }
    }

    /// Forces the forward pass to exactly `Some(k)` shards (1 = the
    /// serial path), or restores the automatic policy with `None`.
    /// Sharded and serial execution are byte-identical; this is a
    /// performance knob only.
    pub fn set_shards(&mut self, shards: Option<usize>) {
        self.shards.set(shards);
    }

    /// Turns the forwarding audit trail on or off. While on, every
    /// edge traversal is recorded as `(step, from, to)` for
    /// [`TrafficPlane::take_audit`] — test instrumentation, off by
    /// default.
    pub fn set_audit(&mut self, on: bool) {
        self.audit = if on { Some(Vec::new()) } else { None };
    }

    /// Drains the audit trail recorded since the last call.
    pub fn take_audit(&mut self) -> Vec<(u64, NodeId, NodeId)> {
        self.audit
            .as_mut()
            .map(|log| {
                std::mem::take(log)
                    .into_iter()
                    .map(|(t, u, v)| (t, NodeId::new(u), NodeId::new(v)))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// `true` when a resolve pass has work — the caller can skip
    /// building a [`RoutingView`] (often the expensive part) when this
    /// is `false`.
    pub fn needs_routes(&self) -> bool {
        !self.pending.is_empty()
    }

    /// `true` once every flow has injected its full size and no packet
    /// is in flight.
    pub fn is_drained(&self) -> bool {
        self.live == 0 && self.unfinished.is_empty()
    }

    /// Packets currently queued somewhere in the network.
    pub fn in_flight(&self) -> usize {
        self.live
    }

    /// Logical steps executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Advances the data plane one step against the *current* topology
    /// (inject → resolve → forward, see the module docs). `view` is
    /// the control plane's answer for this step; pass `None` while the
    /// protocol is re-stabilizing and routes cannot be extracted —
    /// blocked packets then wait (and age) until a view returns.
    pub fn on_step<R: RoutingView>(&mut self, topo: &Topology, view: Option<&R>) {
        assert_eq!(topo.len(), self.nodes, "topology size changed");
        self.steps += 1;
        let now = self.steps;
        self.inject(now);
        if let Some(view) = view {
            if !self.pending.is_empty() {
                self.resolve(topo, view);
            }
        }
        self.forward(topo, now);
    }

    /// Phase 1: flows feed their source queues, in flow order. Only
    /// flows with packets left are visited; one that injects its last
    /// packet leaves the list.
    fn inject(&mut self, now: u64) {
        let mut unfinished = std::mem::take(&mut self.unfinished);
        unfinished.retain(|&f| self.inject_flow(f as usize, now));
        self.unfinished = unfinished;
    }

    /// Feeds one unfinished flow; `false` once it has injected its
    /// full size.
    fn inject_flow(&mut self, f: usize, now: u64) -> bool {
        if now < self.flow_start[f].max(1) {
            return true;
        }
        let remaining = self.flow_size[f] - self.flow_injected[f];
        let src = self.flow_src[f] as usize;
        let burst = self.cfg.inject_rate.min(remaining);
        for _ in 0..burst {
            if self.queues[src].len() >= self.cfg.queue_capacity {
                self.deferred += 1;
                break;
            }
            self.queues[src].push_back(Packet {
                born: now,
                flow: f as u32,
                hops: 0,
            });
            self.injected += 1;
            self.flow_injected[f] += 1;
            self.live += 1;
        }
        self.flow_injected[f] < self.flow_size[f]
    }

    /// Phase 2: answer pending `(node, dst)` lookups from the view, in
    /// key order, inside one routing pass — `view` and `topo` are
    /// borrowed for the whole phase, so an overlay hop searched for one
    /// key serves every later key whose route crosses it. One successful
    /// full-route resolution seeds the table of every node along the
    /// path. A destination that fails once is
    /// skipped for the rest of this pass (unreachable for one node
    /// usually means unreachable for all), and stays pending for the
    /// next.
    fn resolve<R: RoutingView>(&mut self, topo: &Topology, view: &R) {
        let mut keys = std::mem::take(&mut self.resolve_keys);
        keys.clear();
        keys.extend(self.pending.iter().copied());
        let mut failed_dsts: BTreeSet<u32> = BTreeSet::new();
        let mut pass = self.route_scratch.pass(view, topo);
        for &(u, dst) in &keys {
            if failed_dsts.contains(&dst) {
                continue;
            }
            if self.next_hop[u as usize].get(dst).is_some() {
                // Seeded by an earlier resolution in this pass.
                self.pending.remove(&(u, dst));
                continue;
            }
            let (src, to) = (NodeId::new(u), NodeId::new(dst));
            if pass.route_into(src, to, &mut self.route) {
                self.route_resolutions += 1;
                for w in self.route.windows(2) {
                    self.next_hop[w[0].index()].insert(dst, w[1].value());
                }
                self.pending.remove(&(u, dst));
            } else {
                failed_dsts.insert(dst);
            }
        }
        self.resolve_keys = keys;
    }

    /// Phase 3: the batch forwarding pass — read-only sharded examine
    /// into the per-shard arenas, then a serial merge in node order.
    fn forward(&mut self, topo: &Topology, now: u64) {
        if self.live == 0 {
            return;
        }
        let shards = self.shards.count(self.live, self.nodes);
        let chunk = self.nodes.div_ceil(shards);
        let mut arenas = std::mem::take(&mut self.arenas);
        arenas.resize_with(shards, ShardArena::default);
        {
            let plane = &*self;
            run_sharded(&mut arenas, |s, arena| {
                arena.emits.clear();
                arena.runs.clear();
                let lo = (s * chunk).min(plane.nodes);
                let hi = ((s + 1) * chunk).min(plane.nodes);
                for u in lo..hi {
                    if plane.queues[u].is_empty() {
                        continue;
                    }
                    let before = arena.emits.len();
                    plane.examine_node(topo, now, u as u32, &mut arena.emits);
                    if arena.emits.len() > before {
                        arena.runs.push((u as u32, arena.emits.len() as u32));
                    }
                }
            });
        }
        for arena in &arenas {
            let mut start = 0;
            for &(u, end) in &arena.runs {
                self.merge_node(topo, now, u, &arena.emits[start..end as usize]);
                start = end as usize;
            }
        }
        self.arenas = arenas;
    }

    /// The read-only per-node examine step: serves up to
    /// `service_rate` packets from the queue front, stopping at the
    /// first head-of-line blockage. Reads only state that is frozen
    /// for the whole pass — this is what makes the sharded pass
    /// trivially deterministic.
    fn examine_node(&self, topo: &Topology, now: u64, u: u32, out: &mut Vec<Emit>) {
        let mut credits = self.cfg.service_rate;
        for pkt in &self.queues[u as usize] {
            if credits == 0 {
                break;
            }
            let dst = self.flow_dst[pkt.flow as usize];
            if now - pkt.born > self.cfg.ttl {
                // Expiry frees the slot without consuming a service credit.
                out.push(Emit::Expired);
                continue;
            }
            match self.next_hop[u as usize].get(dst) {
                None => {
                    out.push(Emit::StuckNoRoute(dst));
                    break;
                }
                Some(v) => {
                    if !topo.has_edge(NodeId::new(u), NodeId::new(v)) {
                        out.push(Emit::StuckBroken(dst, v));
                        break;
                    }
                    if v == dst {
                        out.push(Emit::Deliver);
                    } else {
                        out.push(Emit::Forward(v));
                    }
                    credits -= 1;
                }
            }
        }
    }

    /// Applies one node's verdicts: pops its served prefix, routes
    /// packets to their fates, and does all drop accounting.
    fn merge_node(&mut self, topo: &Topology, now: u64, u: u32, emits: &[Emit]) {
        for &e in emits {
            match e {
                Emit::Deliver => {
                    let pkt = self.pop(u);
                    let f = pkt.flow as usize;
                    let dst = self.flow_dst[f];
                    let hops = u64::from(pkt.hops) + 1;
                    self.delivered += 1;
                    self.flow_delivered[f] += 1;
                    self.latency.record((now - pkt.born) as f64);
                    self.hop_stats.push(hops as f64);
                    self.max_hops = self.max_hops.max(hops);
                    if let Some(log) = self.audit.as_mut() {
                        log.push((now, u, dst));
                    }
                    self.live -= 1;
                }
                Emit::Forward(v) => {
                    let mut pkt = self.pop(u);
                    if self.queues[v as usize].len() >= self.cfg.queue_capacity {
                        self.dropped_overflow += 1;
                        self.live -= 1;
                    } else {
                        pkt.hops += 1;
                        self.queues[v as usize].push_back(pkt);
                        if let Some(log) = self.audit.as_mut() {
                            log.push((now, u, v));
                        }
                    }
                }
                Emit::Expired => {
                    let pkt = self.pop(u);
                    let dst = self.flow_dst[pkt.flow as usize];
                    let usable = self.next_hop[u as usize]
                        .get(dst)
                        .is_some_and(|v| topo.has_edge(NodeId::new(u), NodeId::new(v)));
                    if usable {
                        self.dropped_expired += 1;
                    } else {
                        self.dropped_stranded += 1;
                    }
                    self.live -= 1;
                }
                Emit::StuckNoRoute(dst) => {
                    self.pending.insert((u, dst));
                }
                Emit::StuckBroken(dst, v) => {
                    debug_assert_eq!(self.next_hop[u as usize].get(dst), Some(v));
                    self.next_hop[u as usize].remove(dst);
                    self.pending.insert((u, dst));
                }
            }
        }
    }

    /// Takes the head of `u`'s queue, for a verdict that serves it.
    fn pop(&mut self, u: u32) -> Packet {
        self.queues[u as usize]
            .pop_front()
            .expect("a serving verdict describes a queued packet")
    }

    /// Snapshot of the accounting so far, as a [`TrafficReport`].
    pub fn report(&self) -> TrafficReport {
        let delivered_fraction = if self.injected == 0 {
            1.0
        } else {
            self.delivered as f64 / self.injected as f64
        };
        TrafficReport {
            nodes: self.nodes,
            flows: self.flow_src.len(),
            steps: self.steps,
            injected: self.injected,
            delivered: self.delivered,
            in_flight: self.live as u64,
            deferred: self.deferred,
            dropped_overflow: self.dropped_overflow,
            dropped_stranded: self.dropped_stranded,
            dropped_expired: self.dropped_expired,
            delivered_fraction,
            throughput: if self.steps == 0 {
                0.0
            } else {
                self.delivered as f64 / self.steps as f64
            },
            latency_p50: self.latency.quantile(0.50),
            latency_p95: self.latency.quantile(0.95),
            latency_p99: self.latency.quantile(0.99),
            latency_mean: self.latency.mean(),
            mean_hops: self.hop_stats.mean(),
            max_hops: self.max_hops,
            loss_during_restabilization: if self.injected == 0 {
                0.0
            } else {
                self.dropped_stranded as f64 / self.injected as f64
            },
            route_resolutions: self.route_resolutions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwn_cluster::FlatRoutes;
    use mwn_graph::builders;

    fn line_plane(n: usize, cfg: TrafficConfig) -> (Topology, TrafficPlane) {
        let topo = builders::line(n);
        let plane = TrafficPlane::new(topo.len(), cfg);
        (topo, plane)
    }

    #[test]
    fn line_delivery_latency_equals_distance() {
        let (topo, mut plane) = line_plane(5, TrafficConfig::default());
        plane.add_flow(FlowSpec {
            src: NodeId::new(0),
            dst: NodeId::new(4),
            packets: 1,
            start: 0,
        });
        for _ in 0..10 {
            plane.on_step(&topo, Some(&FlatRoutes));
        }
        let r = plane.report();
        assert_eq!(r.delivered, 1);
        assert_eq!(r.max_hops, 4);
        // Injected (and first forwarded) at step 1, one hop per step,
        // delivered into node 4 at step 4: latency 3 steps.
        assert!((r.latency_mean - 3.0).abs() < 1e-9, "{}", r.latency_mean);
        assert!(plane.is_drained());
    }

    #[test]
    fn packets_without_routes_strand_after_ttl() {
        let cfg = TrafficConfig {
            ttl: 3,
            ..TrafficConfig::default()
        };
        let (topo, mut plane) = line_plane(3, cfg);
        plane.add_flow(FlowSpec {
            src: NodeId::new(0),
            dst: NodeId::new(2),
            packets: 2,
            start: 0,
        });
        // No view ever: routes stay pending, packets age out.
        for _ in 0..10 {
            plane.on_step::<FlatRoutes>(&topo, None);
        }
        let r = plane.report();
        assert_eq!(r.delivered, 0);
        assert_eq!(r.dropped_stranded, 2);
        assert_eq!(r.dropped_expired, 0);
        assert!(r.loss_during_restabilization > 0.0);
        assert!(plane.is_drained());
    }

    #[test]
    fn full_queue_overflows_on_forward_and_defers_at_source() {
        let cfg = TrafficConfig {
            queue_capacity: 1,
            service_rate: 1,
            inject_rate: 4,
            ..TrafficConfig::default()
        };
        let (topo, mut plane) = line_plane(4, cfg);
        plane.add_flow(FlowSpec {
            src: NodeId::new(0),
            dst: NodeId::new(3),
            packets: 8,
            start: 0,
        });
        for _ in 0..40 {
            plane.on_step(&topo, Some(&FlatRoutes));
        }
        let r = plane.report();
        // Capacity 1 forces deferrals at the source but the pipeline
        // still drains everything injected.
        assert!(r.deferred > 0, "no deferrals with capacity 1");
        assert_eq!(r.injected, 8);
        assert_eq!(r.delivered + r.dropped_overflow + r.dropped_expired, 8);
        assert!(plane.is_drained());
    }

    #[test]
    fn broken_link_evicts_cache_and_packet_waits() {
        let cfg = TrafficConfig {
            ttl: 100,
            ..TrafficConfig::default()
        };
        let (topo, mut plane) = line_plane(3, cfg);
        plane.add_flow(FlowSpec {
            src: NodeId::new(0),
            dst: NodeId::new(2),
            packets: 1,
            start: 0,
        });
        // Step 1 against the intact line: the route resolves and the
        // packet advances 0 → 1, leaving it at the relay with cached
        // next hop 2.
        plane.on_step(&topo, Some(&FlatRoutes));
        // Now sever 1–2. The cached hop is stale; forwarding must not
        // traverse the missing edge.
        let mut cut = topo.clone();
        cut.remove_edge(NodeId::new(1), NodeId::new(2));
        plane.set_audit(true);
        for _ in 0..5 {
            plane.on_step::<FlatRoutes>(&cut, None);
        }
        for (_, u, v) in plane.take_audit() {
            assert!(cut.has_edge(u, v), "traversed missing edge {u}→{v}");
        }
        assert_eq!(plane.report().delivered, 0);
        // Repair: with the link back and a view supplied, it delivers.
        for _ in 0..5 {
            plane.on_step(&topo, Some(&FlatRoutes));
        }
        assert_eq!(plane.report().delivered, 1);
    }

    #[test]
    fn sharded_and_serial_forwarding_are_byte_identical() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let topo = builders::uniform(80, 0.2, &mut rng);
        let flows: Vec<FlowSpec> = crate::DemandModel {
            flows: 40,
            mean_packets: 30.0,
            ..crate::DemandModel::default()
        }
        .generate(topo.len(), 5);
        let run = |shards: usize| {
            let mut plane = TrafficPlane::new(topo.len(), TrafficConfig::default());
            plane.set_shards(Some(shards));
            plane.add_flows(&flows);
            for _ in 0..200 {
                plane.on_step(&topo, Some(&FlatRoutes));
            }
            plane.report()
        };
        let serial = run(1);
        for shards in [2, 3, 8] {
            assert_eq!(run(shards), serial, "shards={shards} diverged");
        }
    }

    /// One resolve pass is one routing pass: sixty flows into three
    /// sinks cross the same overlay hops again and again, and each
    /// directed hop is searched once — the rest come from the segment
    /// memo. Fails if a refactor stops opening the pass around the
    /// whole key loop, or switches the memo off.
    #[test]
    fn a_resolve_pass_searches_each_overlay_hop_once() {
        use mwn_cluster::{head_overlay, oracle, HierarchicalRoutes, OracleConfig};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let topo = builders::uniform(400, 0.09, &mut rng);
        let clustering = oracle(&topo, &OracleConfig::default());
        let overlay_edges = head_overlay(&topo, &clustering).1.edge_count() as u64;
        let view = HierarchicalRoutes::new(&topo, clustering);
        let mut plane = TrafficPlane::new(topo.len(), TrafficConfig::default());
        let sinks = [0, 200, 398];
        for i in 0..60 {
            plane.add_flow(FlowSpec {
                src: NodeId::new(1 + i * 6),
                dst: NodeId::new(sinks[i as usize % 3]),
                packets: 1,
                start: 0,
            });
        }
        plane.on_step(&topo, Some(&view));
        let resolved = plane.report().route_resolutions;
        let (searched, hits) = plane.route_scratch.memo_counts();
        assert!(resolved >= 40, "only {resolved} routes resolved");
        assert!(
            0 < searched && searched <= 2 * overlay_edges,
            "{searched} overlay hops searched over {overlay_edges} overlay edges"
        );
        assert!(
            hits > searched,
            "{hits} memo hits against {searched} searches on {resolved} routes"
        );
    }

    /// The store the per-node tables replaced — one `HashMap` keyed by
    /// `(node, dst)` — kept as the model they are checked against:
    /// random inserts, overwrites, evictions and lookups over a few
    /// nodes, with destinations drawn from a small range so probe runs
    /// collide, wrap around the slot array and get holes punched in
    /// their middles.
    #[test]
    fn node_tables_behave_like_the_global_hash_map() {
        use rand::Rng;
        use std::collections::HashMap;
        for seed in 0..20 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut tables = vec![NodeTable::default(); 3];
            let mut model: HashMap<(u32, u32), u32> = HashMap::new();
            let dsts = rng.random_range(4..200u32);
            for _ in 0..2_000 {
                let (u, dst) = (rng.random_range(0..3u32), rng.random_range(0..dsts));
                match rng.random_range(0..3u32) {
                    0 => {
                        model.remove(&(u, dst));
                        tables[u as usize].remove(dst);
                    }
                    _ => {
                        let next = rng.random_range(0..1_000u32);
                        model.insert((u, dst), next);
                        tables[u as usize].insert(dst, next);
                    }
                }
                let probe = rng.random_range(0..dsts);
                assert_eq!(
                    tables[u as usize].get(probe),
                    model.get(&(u, probe)).copied(),
                    "seed {seed}: node {u}, dst {probe}"
                );
            }
            for u in 0..3u32 {
                let held = model.keys().filter(|k| k.0 == u).count();
                assert_eq!(tables[u as usize].len, held);
                for dst in 0..dsts {
                    assert_eq!(tables[u as usize].get(dst), model.get(&(u, dst)).copied());
                }
            }
        }
    }

    /// A packet shuttled between two relays by a link that keeps
    /// moving: the hop count it is delivered with is the number of
    /// links it crossed, also past 65 535 (the old `u16` column
    /// saturated there, under-reporting `mean_hops` and `max_hops`).
    #[test]
    fn hop_counts_past_the_old_u16_cap_are_exact() {
        // 0 - 1 - 2, and the same line with the last link moved to
        // 0 - 2. Whichever relay holds the packet, two steps on the
        // other layout take its cached link toward 2 away, then hand
        // the packet to the other relay: one hop per two steps.
        let near = builders::line(3);
        let mut far = near.clone();
        far.remove_edge(NodeId::new(1), NodeId::new(2));
        far.add_edge(NodeId::new(0), NodeId::new(2))
            .expect("in range");
        let cfg = TrafficConfig {
            ttl: u64::MAX / 4,
            ..TrafficConfig::default()
        };
        let mut plane = TrafficPlane::new(3, cfg);
        plane.set_shards(Some(1)); // 140 000 steps: no thread spawn per step
        plane.set_audit(true);
        plane.add_flow(FlowSpec {
            src: NodeId::new(0),
            dst: NodeId::new(2),
            packets: 1,
            start: 0,
        });
        plane.on_step(&near, Some(&FlatRoutes)); // 0 → 1, next hop 2 cached
        for _ in 0..35_000 {
            for topo in [&far, &far, &near, &near] {
                plane.on_step(topo, Some(&FlatRoutes));
            }
        }
        assert_eq!(plane.report().delivered, 0, "still shuttling");
        for _ in 0..4 {
            plane.on_step(&near, Some(&FlatRoutes));
        }
        let report = plane.report();
        let crossed = plane.take_audit().len() as u64;
        assert_eq!(report.delivered, 1);
        assert!(crossed > 70_000, "only {crossed} links crossed");
        assert_eq!(report.max_hops, crossed);
        assert_eq!(report.mean_hops, crossed as f64);
    }

    use rand::SeedableRng;
}
