//! The flat neighbor cache of a [`crate::ClusterState`].
//!
//! A node's cache holds one entry per radio neighbor: the neighbor's
//! shared variables plus what the guards read of its own neighbor
//! summaries (its *view*). The converging phase clones, compares and
//! rewrites these entries for every active node, so the whole cache
//! lives in **two** buffers — one vector of `Copy` headers
//! ([`NeighborSlot`]) sorted by neighbor id, and one vector holding
//! every view back to back. A clone is two `memcpy`s, equality two
//! linear scans, a refresh from a known neighbor an in-place overwrite.
//!
//! # What a view keeps
//!
//! A beacon relays full [`PeerSummary`]s, but the guards read two
//! things of them only:
//!
//! * rule R1 (Section 4.2) counts links among neighbors, which needs
//!   the view's **ids** — so the view buffer holds one [`NodeId`] per
//!   entry, four bytes instead of twenty;
//! * the fusion rule (Section 4.3) needs the 2-hop **head claims** —
//!   so each slot has a claim, the strongest claim its view relays (an
//!   entry `s` with `s.head == s.id`), the owner's own id excluded
//!   ([`NeighborCache::claim`]). [`crate::DensityCluster`] computes it
//!   on receive under [`crate::HeadRule::Fusion`] and stores `None`
//!   under `Basic`, whose guards read no claim. The claims sit in a
//!   side column, not in the slot headers: it stays unallocated until
//!   the first claim is stored — so under `Basic` it never is, and a
//!   header is 40 bytes instead of 56 — and from then on runs parallel
//!   to the slots. An unallocated column reads as `None` everywhere.
//!
//! # Why the run is unchanged
//!
//! * **One claim per slot is enough.** Every relayed claim has
//!   `is_head = true`, so [`crate::OrderKind::Basic`] and `Stable` rank
//!   claims the same way, and [`crate::Key::cmp_under`] is a total
//!   order. "The strongest claim that beats `my_key`" is therefore the
//!   strongest claim overall if it beats `my_key`, and nobody
//!   otherwise — and the strongest overall is the strongest of the
//!   per-slot strongest.
//! * **A receive that now reports "no change" triggered no-ops
//!   before.** Such a receive only rewrote 2-hop content no guard
//!   reads. A cache of full summaries reported it as a change, which
//!   (a) refreshed a beacon that came out identical — beacons are
//!   built from slot headers — so nothing was sent, and (b) re-ran, in
//!   the next step, a guard pass that had just moved nothing on the
//!   same inputs. That re-run is a no-op under every configuration,
//!   `Stable` order and DAG redraws included, because a conflicted N1
//!   pass always changes `dag_id` (and so already re-runs on its own).
//!   Under `EventDriven` freshness such a receive also restamped the
//!   entry; those guards read a stamp only as `last_seen <= now`,
//!   which a past stamp and `now` answer alike. Frames and outputs are
//!   the same; only the change and update counts drop.
//! * **Fault draws are unchanged.** Corruption still draws whole
//!   summaries ([`crate::NeighborEntry`] keeps `Vec<PeerSummary>`), so
//!   the same seed forges the same ghosts.
//!
//! `crates/core/tests/properties.rs` drives this cache beside a
//! reference that keeps full summaries and checks the first two.
//!
//! # The `links` invariant
//!
//! Each slot carries its share of the density numerator of
//! Definition 1: `links = |{r ∈ view : id < r ∧ r cached}|`, the
//! among-neighbor edges `(id, r)` this neighbor reports, each edge
//! counted at its smaller endpoint. Rule R1 is then
//! `degree + Σ links` over the slot headers — it never re-reads a view.
//! The count of a slot depends on its own view and on the cached key
//! set, so it is
//!
//! * **recounted for that slot** when a rewrite of its view changes the
//!   view's ids (a rewrite that says something new about the same ids —
//!   every rewrite once neighborhoods are known — leaves the count
//!   alone);
//! * **updated** when a new key `q` is inserted: only `r = q` became
//!   cached, so each slot below `q` gains the number of times its view
//!   names `q`, and the new slot is counted afresh;
//! * **recounted for every slot** when a key leaves (a removal, a
//!   `retain` that dropped something).
//!
//! Debug builds compare every count with a recount after each update.
//!
//! Iteration is ascending by neighbor id — the `BTreeMap` order the
//! protocol has always observed.
//!
//! # Sized once
//!
//! At the silent fixpoint a cache holds one slot per radio neighbor
//! and, in its views, one id per neighbor of each neighbor — sizes the
//! topology fixes. The engine hands both over right before a node's
//! first frame lands ([`mwn_sim::Protocol::reserve`], read off the
//! reception rows), and a cache that has never allocated reserves
//! exactly that much ([`NeighborCache::reserve`]), so a neighborhood
//! learned one entry at a time — in random arrival order on the event
//! clock — is not reallocated one entry at a time. Nothing is left as
//! slack: the reservation is the size a cold start ends with. It is a
//! hint, not a bound: whatever outgrows it (mobility, forged entries,
//! oversized views) takes [`NeighborCache::store`]'s exact growth.

use mwn_graph::NodeId;
use serde::{Deserialize, Serialize};

use crate::{Density, Key, NeighborEntry, PeerSummary};

/// The header of one cached neighbor: its shared variables as last
/// heard, and the bookkeeping that locates its view and its share of
/// the density numerator. The strongest head claim its view relays is
/// in the cache's claims column ([`NeighborCache::claim`]).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct NeighborSlot {
    /// Logical time the last beacon from this neighbor arrived.
    pub last_seen: u64,
    /// The neighbor's unique identifier (the cache key).
    pub id: NodeId,
    /// Cached copy of the neighbor's DAG identifier.
    pub dag_id: u32,
    /// Cached copy of the neighbor's density.
    pub density: Density,
    /// Cached copy of the neighbor's head claim.
    pub head: NodeId,
    /// Exclusive end of this neighbor's view in the shared view buffer;
    /// it starts where the previous slot's view ends.
    end: u32,
    /// `|{r ∈ view : id < r ∧ r cached}|` — see the module docs.
    links: u32,
}

impl NeighborSlot {
    /// This neighbor's share of the density numerator: the `links`
    /// invariant of the module docs.
    pub(crate) fn links(&self) -> u32 {
        self.links
    }

    /// What a beacon relays about this neighbor.
    pub fn summary(&self) -> PeerSummary {
        PeerSummary {
            id: self.id,
            dag_id: self.dag_id,
            density: self.density,
            head: self.head,
        }
    }
}

/// A node's neighbor cache: [`NeighborSlot`]s sorted by neighbor id
/// over one shared buffer of views, each view kept as its ids, with
/// the claims column beside the slots once a claim has been stored.
///
/// # Examples
///
/// ```
/// use mwn_cluster::{Density, NeighborCache, NeighborEntry};
/// use mwn_graph::NodeId;
///
/// let entry = |head| NeighborEntry {
///     last_seen: 3,
///     dag_id: 0,
///     density: Density::zero(),
///     head: NodeId::new(head),
///     view: Vec::new(),
/// };
/// let mut cache = NeighborCache::new();
/// cache.insert(NodeId::new(7), entry(7));
/// cache.insert(NodeId::new(2), entry(9));
/// // Iteration is always ascending by neighbor id.
/// let ids: Vec<u32> = cache.keys().map(|q| q.value()).collect();
/// assert_eq!(ids, [2, 7]);
/// let (slot, view) = cache.get(&NodeId::new(2)).expect("cached");
/// assert_eq!((slot.head, view.len()), (NodeId::new(9), 0));
/// assert_eq!(cache.claim(&NodeId::new(2)), None);
/// ```
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct NeighborCache {
    slots: Vec<NeighborSlot>,
    views: Vec<NodeId>,
    /// `claims[i]`: the strongest head claim slot `i`'s view relays —
    /// see the module docs. `None` until the first claim is stored,
    /// then exactly as long as `slots`. Boxed, so an unallocated column
    /// costs a [`crate::ClusterState`] one word.
    #[allow(clippy::box_collection)] // one word, not three: see above
    claims: Option<Box<Vec<Option<Key>>>>,
}

impl NeighborCache {
    /// An empty cache.
    pub fn new() -> Self {
        NeighborCache::default()
    }

    /// Number of cached neighbors.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no neighbor is cached.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    fn pos(&self, id: NodeId) -> Result<usize, usize> {
        self.slots.binary_search_by(|s| s.id.cmp(&id))
    }

    /// Where slot `i`'s view starts in the shared buffer.
    fn start(&self, i: usize) -> usize {
        i.checked_sub(1)
            .map_or(0, |prev| self.slots[prev].end as usize)
    }

    fn view(&self, i: usize) -> &[NodeId] {
        &self.views[self.start(i)..self.slots[i].end as usize]
    }

    /// Whether `id` has an entry.
    pub fn contains_key(&self, id: &NodeId) -> bool {
        self.pos(*id).is_ok()
    }

    /// The entry for `id`: its header and its view's ids.
    pub fn get(&self, id: &NodeId) -> Option<(&NeighborSlot, &[NodeId])> {
        let i = self.pos(*id).ok()?;
        Some((&self.slots[i], self.view(i)))
    }

    /// The strongest head claim `id`'s view relays, the owner's own
    /// excluded: what the fusion rule reads of the view. `None` when
    /// `id` is not cached, when its view relays no claim, or when the
    /// protocol stores none (see the module docs).
    pub fn claim(&self, id: &NodeId) -> Option<Key> {
        let claims = self.claims.as_deref()?;
        claims[self.pos(*id).ok()?]
    }

    /// The claims the slots carry, ascending by neighbor id; slots
    /// without one are skipped.
    pub fn relayed_claims(&self) -> impl Iterator<Item = Key> + '_ {
        self.claims
            .iter()
            .flat_map(|claims| claims.iter().flatten().copied())
    }

    /// The claim of slot `i`.
    fn claim_at(&self, i: usize) -> Option<Key> {
        self.claims.as_deref().and_then(|claims| claims[i])
    }

    /// The cached neighbor ids, ascending.
    pub fn keys(&self) -> impl Iterator<Item = &NodeId> {
        self.slots.iter().map(|s| &s.id)
    }

    /// The headers alone, ascending by neighbor id — what N1, R1 and R2
    /// read.
    pub fn slots(&self) -> &[NeighborSlot] {
        &self.slots
    }

    /// Every entry as `(header, view ids)`, ascending by neighbor id.
    pub fn iter(&self) -> impl Iterator<Item = (&NeighborSlot, &[NodeId])> {
        let mut start = 0;
        self.slots.iter().map(move |s| {
            let view = &self.views[start..s.end as usize];
            start = s.end as usize;
            (s, view)
        })
    }

    /// Sizes a cache that has never allocated for `degree` neighbors
    /// whose views name `two_hop()` ids in all — the neighborhood a
    /// cold start ends with — so it is allocated once instead of once
    /// per neighbor learned. A cache that has allocated (it has been
    /// sized already, has held an entry, or a fault forged one) is left
    /// alone and `two_hop` is not called. Capacity only: nothing any
    /// reader sees changes, and [`NeighborCache::store`] still grows a
    /// cache past the hint.
    ///
    /// The engine asks at every visit, so the check is inlined and the
    /// sizing, once per cache, is not: the visit it sits in stays small
    /// enough to inline.
    #[inline]
    pub fn reserve(&mut self, degree: usize, two_hop: impl FnOnce() -> usize) {
        #[cold]
        #[inline(never)]
        fn size(cache: &mut NeighborCache, degree: usize, two_hop: impl FnOnce() -> usize) {
            cache.slots.reserve_exact(degree);
            cache.views.reserve_exact(two_hop());
        }
        if self.slots.capacity() == 0 {
            size(self, degree, two_hop);
        }
    }

    /// Inserts `entry` under `id`, replacing any previous entry. The
    /// cache keeps the ids of `entry.view`; the slot relays no claim
    /// (only [`NeighborCache::store`] takes one).
    pub fn insert(&mut self, id: NodeId, entry: NeighborEntry) {
        let peer = PeerSummary {
            id,
            dag_id: entry.dag_id,
            density: entry.density,
            head: entry.head,
        };
        self.store(entry.last_seen, peer, None, &entry.view);
    }

    /// [`NeighborCache::insert`] from borrowed parts — the receive
    /// path: `peer` is the sender's shared variables, `claim` the
    /// strongest head claim its view relays (see the module docs),
    /// `view` its neighbor summaries, of which the ids are kept. A
    /// refresh from a known neighbor overwrites its slot and view in
    /// place, and recounts that slot's `links` only if the view's ids
    /// moved — once neighborhoods are known, beacons change in what
    /// they say about the same ids. A new neighbor changes the key set,
    /// so the slots below it count it in their views and it is counted
    /// afresh (see the module docs). A cache the engine has sized
    /// ([`NeighborCache::reserve`]) takes its neighborhood without
    /// reallocating; past that size — an unsized cache, a neighborhood
    /// that grew under mobility, forged entries — buffers grow by
    /// exactly what is missing, since amortized growth would leave
    /// slack in every node's cache (`converge_rounds`' peak RSS reads
    /// about a tenth higher with it).
    pub fn store(
        &mut self,
        last_seen: u64,
        peer: PeerSummary,
        claim: Option<Key>,
        view: &[PeerSummary],
    ) {
        let known = self.pos(peer.id);
        let (Ok(i) | Err(i)) = known;
        let start = self.start(i);
        let header = |end: u32, links: u32| NeighborSlot {
            last_seen,
            id: peer.id,
            dag_id: peer.dag_id,
            density: peer.density,
            head: peer.head,
            end,
            links,
        };
        match known {
            Ok(_) => self.slots[i] = header(self.slots[i].end, self.slots[i].links),
            Err(_) => {
                self.slots.reserve_exact(1);
                self.slots.insert(i, header(start as u32, 0));
            }
        }
        match (self.claims.as_deref_mut(), known) {
            (Some(claims), Ok(_)) => claims[i] = claim,
            (Some(claims), Err(_)) => {
                claims.reserve_exact(1);
                claims.insert(i, claim);
            }
            // The first claim: the column starts out parallel to the
            // slots, the new one included.
            (None, _) if claim.is_some() => {
                let mut claims = vec![None; self.slots.len()];
                claims[i] = claim;
                self.claims = Some(Box::new(claims));
            }
            (None, _) => {}
        }
        let old = self.slots[i].end as usize - start;
        let mut same_ids = false;
        if view.len() == old {
            let cached = &mut self.views[start..start + old];
            same_ids = cached.iter().zip(view).all(|(&r, s)| r == s.id);
            if !same_ids {
                for (r, s) in cached.iter_mut().zip(view) {
                    *r = s.id;
                }
            }
        } else {
            self.views.reserve_exact(view.len().saturating_sub(old));
            self.views
                .splice(start..start + old, view.iter().map(|s| s.id));
            for s in &mut self.slots[i..] {
                s.end = (s.end as usize + view.len() - old) as u32;
            }
        }
        match known {
            Ok(_) if same_ids => {}
            Ok(_) => self.slots[i].links = self.count_links(i),
            Err(_) => self.count_new_key(i),
        }
    }

    /// Brings `links` up to date after slot `i`'s key joined the cache:
    /// each slot below it gains the times its view names the key, and
    /// slot `i` is counted afresh. Views of the slots below `i` are the
    /// buffer up to `i`'s own, so this reads each of them once and
    /// searches nothing.
    fn count_new_key(&mut self, i: usize) {
        let q = self.slots[i].id;
        let mut start = 0;
        for slot in &mut self.slots[..i] {
            let end = slot.end as usize;
            let named = self.views[start..end].iter().filter(|&&r| r == q).count();
            slot.links += named as u32;
            start = end;
        }
        self.slots[i].links = self.count_links(i);
        debug_assert!(
            (0..self.slots.len()).all(|j| self.slots[j].links == self.count_links(j)),
            "an insert of {q} left a link count that a recount does not give"
        );
    }

    /// Removes `id`'s entry; returns whether there was one.
    pub fn remove(&mut self, id: &NodeId) -> bool {
        let Ok(i) = self.pos(*id) else {
            return false;
        };
        let span = self.start(i)..self.slots[i].end as usize;
        self.slots.remove(i);
        if let Some(claims) = self.claims.as_deref_mut() {
            claims.remove(i);
        }
        for s in &mut self.slots[i..] {
            s.end -= span.len() as u32;
        }
        self.views.drain(span);
        self.recount_all();
        true
    }

    /// Keeps only the entries whose header `keep` accepts; returns
    /// whether any entry was dropped. A sweep that drops nothing writes
    /// nothing.
    pub fn retain(&mut self, mut keep: impl FnMut(&NeighborSlot) -> bool) -> bool {
        let (mut kept, mut read, mut write) = (0usize, 0usize, 0usize);
        for i in 0..self.slots.len() {
            let mut slot = self.slots[i];
            let end = slot.end as usize;
            if keep(&slot) {
                if kept != i {
                    self.views.copy_within(read..end, write);
                    slot.end = (write + end - read) as u32;
                    self.slots[kept] = slot;
                    if let Some(claims) = self.claims.as_deref_mut() {
                        claims[kept] = claims[i];
                    }
                }
                write += end - read;
                kept += 1;
            }
            read = end;
        }
        let dropped = kept != self.slots.len();
        if dropped {
            self.slots.truncate(kept);
            self.views.truncate(write);
            if let Some(claims) = self.claims.as_deref_mut() {
                claims.truncate(kept);
            }
            self.recount_all();
        }
        dropped
    }

    /// Drops every entry (keeping the buffers).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.views.clear();
        if let Some(claims) = self.claims.as_deref_mut() {
            claims.clear();
        }
    }

    /// The numerator of Definition 1 as seen from node `me`: one link
    /// to each cached neighbor plus every among-neighbor edge the views
    /// report, each counted once — `degree + Σ links`.
    pub fn neighborhood_links(&self, me: NodeId) -> u32 {
        let among: u32 = self.slots.iter().map(|s| s.links).sum();
        let mut links = self.slots.len() as u32 + among;
        if self.contains_key(&me) {
            // Only a corrupted cache holds an entry for its own node.
            // Definition 1 excludes `r = p`, so the pairs `(q, me)` the
            // slots counted are taken back.
            let ending_at_me = |(s, view): (&NeighborSlot, &[NodeId])| {
                let mine = view.iter().filter(|&&r| r == me).count();
                if s.id < me {
                    mine as u32
                } else {
                    0
                }
            };
            links -= self.iter().map(ending_at_me).sum::<u32>();
        }
        links
    }

    /// How many levels [`NeighborCache::peek`] answers: the inline
    /// words, the slot block, the view block.
    pub const PEEK_LEVELS: u8 = 3;

    /// The look-ahead read behind [`mwn_sim::Protocol::peek_state`]:
    /// one word of every cache line a [`NeighborCache::store`] of
    /// `from` and the guard pass after it reach through `level`
    /// dependent loads from the cache's own words. Writes nothing and
    /// panics on no cache — `check()`-clean or not — for any `from`,
    /// known or unknown, and any `level` (past the last: nothing).
    ///
    /// * 0 — the inline words: both buffer lengths.
    /// * 1 — one word of every slot header: what the search for
    ///   `from`, R1 and R2 read.
    /// * 2 — every cache line of `from`'s view (every sixteenth id and
    ///   the last). Its slot is found by *counting* the ids below
    ///   `from`, not by searching: the count is branch-free, so the
    ///   view's loads wait on the slot block alone, not on a
    ///   mispredicted search over it.
    ///   An unknown `from` reads the view its entry would displace.
    #[inline]
    pub fn peek(&self, from: NodeId, level: u8) -> u64 {
        match level {
            0 => (self.slots.len() as u64).wrapping_add(self.views.len() as u64),
            1 => {
                let ids = self.slots.iter().map(|s| u64::from(s.id.value()));
                ids.fold(0, u64::wrapping_add)
            }
            2 => {
                // `i <= len`, so `start(i)` indexes a slot that exists.
                let i = self.slots.iter().filter(|s| s.id < from).count();
                let start = self.start(i);
                let end = self.slots.get(i).map_or(start, |s| s.end as usize);
                let view = self.views.get(start..end).unwrap_or_default();
                // A 4-byte id, so a stride of sixteen (64 bytes) lands
                // on every line of the view whatever its alignment.
                let strided = view.iter().step_by(16).map(|r| u64::from(r.value()));
                let last = view.last().map_or(0, |r| u64::from(r.value()));
                strided.fold(last, u64::wrapping_add)
            }
            _ => 0,
        }
    }

    fn count_links(&self, i: usize) -> u32 {
        let q = self.slots[i].id;
        let cached = |r: &&NodeId| q < **r && self.contains_key(r);
        self.view(i).iter().filter(cached).count() as u32
    }

    fn recount_all(&mut self) {
        for i in 0..self.slots.len() {
            self.slots[i].links = self.count_links(i);
        }
    }

    /// Verifies the internal invariants — ids strictly ascending, view
    /// offsets monotone and covering the view buffer exactly, a claims
    /// column (if any) as long as the slots, every slot's `links` equal
    /// to a fresh count. For tests.
    ///
    /// # Errors
    ///
    /// Describes the first violated invariant.
    pub fn check(&self) -> Result<(), String> {
        if !self.slots.windows(2).all(|w| w[0].id < w[1].id) {
            return Err("slot ids are not strictly ascending".to_string());
        }
        if !self.slots.windows(2).all(|w| w[0].end <= w[1].end) {
            return Err("view offsets are not monotone".to_string());
        }
        let covered = self.slots.last().map_or(0, |s| s.end as usize);
        if covered != self.views.len() {
            return Err(format!(
                "slots cover {covered} view entries, the buffer holds {}",
                self.views.len()
            ));
        }
        if let Some(claims) = self.claims.as_deref() {
            if claims.len() != self.slots.len() {
                let (c, n) = (claims.len(), self.slots.len());
                return Err(format!("{c} claims beside {n} slots"));
            }
        }
        match (0..self.slots.len()).find(|&i| self.slots[i].links != self.count_links(i)) {
            Some(i) => Err(format!(
                "slot {} carries links = {}, a recount says {}",
                self.slots[i].id,
                self.slots[i].links,
                self.count_links(i)
            )),
            None => Ok(()),
        }
    }
}

/// Content equality, entry by entry in key order: derived bookkeeping
/// (`links`) is a function of the content and is not compared; equal
/// view offsets make the flat view compare an entry-wise one; claims
/// compare per slot, an unallocated column as all `None`. What is
/// compared is exactly what the guards read.
impl PartialEq for NeighborCache {
    fn eq(&self, other: &Self) -> bool {
        let same_header = |(a, b): (&NeighborSlot, &NeighborSlot)| {
            a.last_seen == b.last_seen
                && a.id == b.id
                && a.dag_id == b.dag_id
                && a.density == b.density
                && a.head == b.head
                && a.end == b.end
        };
        let no_claims = self.claims.is_none() && other.claims.is_none();
        self.slots.len() == other.slots.len()
            && self.slots.iter().zip(&other.slots).all(same_header)
            && self.views == other.views
            && (no_claims || (0..self.slots.len()).all(|i| self.claim_at(i) == other.claim_at(i)))
    }
}

/// `clone_from` reuses every buffer, so the engines' scratch-state
/// clones across nodes of different degrees stop allocating once the
/// scratch has seen the largest neighborhood; it grows them by exactly
/// what is missing, like [`NeighborCache::store`]. A scratch column
/// stays allocated over a source without one and is filled with `None`.
impl Clone for NeighborCache {
    fn clone(&self) -> Self {
        NeighborCache {
            slots: self.slots.clone(),
            views: self.views.clone(),
            claims: self.claims.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        fn refill<T: Copy>(dst: &mut Vec<T>, src: &[T]) {
            dst.clear();
            dst.reserve_exact(src.len());
            dst.extend_from_slice(src);
        }
        refill(&mut self.slots, &source.slots);
        refill(&mut self.views, &source.views);
        match (self.claims.as_deref_mut(), source.claims.as_deref()) {
            (Some(claims), Some(from)) => refill(claims, from),
            (Some(claims), None) => {
                claims.clear();
                claims.reserve_exact(source.len());
                claims.resize(source.len(), None);
            }
            (None, from) => self.claims = from.map(|from| Box::new(from.clone())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn peer(i: u32) -> PeerSummary {
        PeerSummary {
            id: id(i),
            dag_id: i,
            density: Density::integer(i),
            head: id(i),
        }
    }

    fn view(ids: &[u32]) -> Vec<PeerSummary> {
        ids.iter().map(|&i| peer(i)).collect()
    }

    #[test]
    fn store_keeps_views_aligned_through_growth_and_shrinkage() {
        let mut cache = NeighborCache::new();
        cache.store(1, peer(5), None, &view(&[1, 9]));
        cache.store(1, peer(2), None, &view(&[5]));
        cache.store(1, peer(9), None, &view(&[]));
        cache.check().expect("consistent after inserts");
        cache.store(2, peer(2), None, &view(&[5, 9, 11]));
        cache.store(2, peer(5), None, &view(&[9]));
        cache.check().expect("consistent after rewrites");
        let got: Vec<(u32, Vec<u32>)> = cache
            .iter()
            .map(|(s, v)| (s.id.value(), v.iter().map(|r| r.value()).collect()))
            .collect();
        assert_eq!(
            got,
            [(2, vec![5, 9, 11]), (5, vec![9]), (9, vec![])],
            "each slot still owns exactly its own view"
        );
        // Edges (2,5), (2,9), (5,9) among three neighbors: 3 + 3.
        assert_eq!(cache.neighborhood_links(id(0)), 6);
    }

    #[test]
    fn retain_and_remove_recount_the_survivors() {
        let mut cache = NeighborCache::new();
        for (q, v) in [(1, vec![2, 3]), (2, vec![1, 3]), (3, vec![1, 2])] {
            cache.store(q as u64, peer(q), None, &view(&v));
        }
        assert_eq!(cache.neighborhood_links(id(0)), 6, "a triangle");
        assert!(!cache.retain(|_| true), "nothing dropped");
        assert!(cache.retain(|s| s.last_seen != 2));
        cache.check().expect("consistent after the sweep");
        assert_eq!(cache.neighborhood_links(id(0)), 3, "edge (1,3) is left");
        assert!(cache.remove(&id(1)) && !cache.remove(&id(1)));
        cache.check().expect("consistent after the removal");
        assert_eq!(cache.neighborhood_links(id(0)), 1);
    }

    #[test]
    fn a_self_entry_does_not_count_pairs_ending_at_the_node() {
        let mut cache = NeighborCache::new();
        cache.store(0, peer(1), None, &view(&[4, 4, 6]));
        cache.store(0, peer(4), None, &view(&[6]));
        cache.store(0, peer(6), None, &view(&[]));
        // Seen from node 4 (its own id is cached): (1,4) twice is out,
        // (1,6) and (4,6) stay.
        assert_eq!(cache.neighborhood_links(id(4)), 3 + 2);
        assert_eq!(cache.neighborhood_links(id(0)), 3 + 4);
    }

    #[test]
    fn clone_from_matches_across_sizes_and_equality_ignores_capacity() {
        let mut big = NeighborCache::new();
        for q in 0..6 {
            big.store(7, peer(q), None, &view(&[q + 1, q + 2]));
        }
        let mut small = NeighborCache::new();
        small.store(7, peer(3), None, &view(&[1]));
        let mut scratch = small.clone();
        for source in [&big, &small, &big] {
            scratch.clone_from(source);
            assert_eq!(&scratch, source);
            scratch.check().expect("a clone carries consistent counts");
        }
        assert_ne!(big, small);
    }

    #[test]
    fn reserve_sizes_a_fresh_cache_once_and_never_bounds_it() {
        let mut cache = NeighborCache::new();
        cache.reserve(2, || 3);
        assert_eq!((cache.slots.capacity(), cache.views.capacity()), (2, 3));
        // A sized cache is left alone, and `two_hop` is not asked.
        cache.reserve(9, || unreachable!("a sized cache asks for nothing"));
        assert_eq!(cache.slots.capacity(), 2);
        // Past the hint: five neighbors with four-id views.
        for q in 0..5 {
            cache.store(1, peer(q), None, &view(&[q + 1, q + 2, q + 3, q + 4]));
        }
        cache.check().expect("consistent past the hint");
        assert_eq!(cache.len(), 5);
        assert!(cache.iter().all(|(_, v)| v.len() == 4), "every view kept");
        // Nothing a reader sees depends on the reservation.
        let mut unsized_twin = NeighborCache::new();
        for q in 0..5 {
            unsized_twin.store(1, peer(q), None, &view(&[q + 1, q + 2, q + 3, q + 4]));
        }
        assert_eq!(cache, unsized_twin);
        assert_eq!(
            cache.neighborhood_links(id(9)),
            unsized_twin.neighborhood_links(id(9))
        );
    }

    #[test]
    fn a_slot_fits_a_cache_line_and_a_view_entry_is_an_id() {
        fn entry_size<T>(_: &[T]) -> usize {
            std::mem::size_of::<T>()
        }
        assert_eq!(std::mem::size_of::<NeighborSlot>(), 40);
        assert!(std::mem::size_of::<crate::ClusterState>() <= 80);
        let mut cache = NeighborCache::new();
        cache.store(0, peer(1), None, &view(&[2, 3]));
        // What `peek`'s stride of sixteen entries per line assumes.
        assert_eq!(entry_size(&cache.views), 4);
    }

    #[test]
    fn the_claim_is_content_and_a_rewrite_replaces_it() {
        let claim = |d| Some(Key::new(Density::integer(d), true, 3, id(3)));
        let mut a = NeighborCache::new();
        a.store(0, peer(1), claim(2), &view(&[3]));
        let mut b = a.clone();
        assert_eq!(a, b);
        b.store(0, peer(1), claim(5), &view(&[3]));
        assert_ne!(a, b, "same ids, another claim");
        assert_eq!(b.claim(&id(1)), claim(5));
        b.store(0, peer(1), None, &view(&[3]));
        assert_ne!(a, b);
        a.store(0, peer(1), None, &view(&[3]));
        assert_eq!(a, b);
        b.check().expect("a claim rewrite keeps the counts");
    }
}
