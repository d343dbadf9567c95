use mwn_graph::NodeId;
use rand::rngs::StdRng;

/// How the round driver may schedule a protocol.
///
/// The paper's algorithms are *silent*: once the legitimate
/// configuration is reached, no shared variable changes any more. A
/// protocol that additionally satisfies the **silence contract** below
/// can declare [`Activity::Gated`], letting [`crate::Network`] skip
/// quiescent nodes entirely (dirty-set scheduling) while staying
/// byte-identical to running every guard every step.
///
/// The silence contract:
///
/// 1. [`Protocol::receive`] of a beacon whose content equals, in
///    everything [`Protocol::read_changed`] compares, what the receiver
///    already incorporated from that sender is a state no-op;
/// 2. [`Protocol::update`] on a state equal under `PartialEq` to one it
///    has already fixed (and with no new receptions since) is a state
///    no-op, *regardless of `now`* — in particular no wall-clock cache
///    expiry while the network is silent;
/// 3. randomness is only consumed on state-changing transitions (the
///    driver's per-(step, node) derived streams make stray draws
///    harmless, but drawing must not be the only side effect).
///
/// All three drivers rely on clause 1 as written: under gating, a
/// fresh frame whose sender's beacon has not changed in anything
/// `read_changed` compares since the epoch the receiver holds is not
/// handed to `receive` at all — the reception row still records it,
/// and the visit goes on as after a receive that changed nothing.
///
/// All three drivers rely on clause 2 as written, through one skip
/// rule: a node whose last guard pass changed nothing, and that no
/// receive has changed since (on the period clocks: that received no
/// frame since), runs no further pass until something wakes it, so
/// `PartialEq` must compare everything the guards read.
///
/// **The contract spans both clocks.** Under the synchronous round
/// driver a gated node is skipped for a *step*; under the continuous
/// [`crate::EventDriver`] a gated node stops scheduling beacon events
/// altogether until something wakes it — so clause 2's
/// "regardless of `now`" matters doubly there: between a node's last
/// event and its wakeup, arbitrarily much simulated time passes without
/// a single `update` call. Protocols with wall-clock cache expiry
/// (TTL sweeps) must stay [`Activity::Eager`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Activity {
    /// Run every node every step (the conservative default, always
    /// correct).
    #[default]
    Eager,
    /// The protocol satisfies the silence contract: the driver may use
    /// dirty-set scheduling and communication gating.
    Gated,
}

/// A distributed protocol in the paper's guarded-command,
/// shared-variable model (Section 4).
///
/// A protocol is the *program text* shared by every node; all per-node
/// data lives in [`Protocol::State`]. The division of labour mirrors
/// the paper's execution semantics:
///
/// * [`Protocol::beacon`] — the snapshot of the node's **shared
///   variables** that the timed discipline of Herman & Tixeuil
///   periodically broadcasts to 1-neighbors;
/// * [`Protocol::receive`] — the atomic event-guard executed "upon the
///   event of receiving a message": updating the **cached copies**
///   (`⌣Id_q`, `⌣d_q`, …) of the sender's shared variables;
/// * [`Protocol::update`] — one pass executing every enabled guarded
///   assignment (e.g. the paper's `N1`, `R1`, `R2`), in program order.
///
/// Protocol implementations must be deterministic given the RNG stream
/// they are handed, so whole-network runs are reproducible from a seed.
///
/// The `Sync` supertrait and the `Send + Sync` bounds on the associated
/// types exist for the sharded active-set pass: the round driver may
/// split one step's active nodes across worker threads (an
/// owner-computes partition with an ordered merge — byte-identical to
/// the serial pass), and the workers share the protocol and read the
/// frozen beacon columns. Protocols are plain data in practice, so the
/// bounds are auto-satisfied.
pub trait Protocol: Sync {
    /// Per-node state: shared variables plus neighbor caches.
    ///
    /// `PartialEq` is what lets the activity-driven driver detect "this
    /// node's execution was a no-op" and retire it from the dirty set.
    type State: Clone + std::fmt::Debug + PartialEq + Send + Sync;
    /// Snapshot of the shared variables carried by one frame.
    type Beacon: Clone + std::fmt::Debug + Send + Sync;

    /// Cold-start state for `node`. Self-stabilization must not depend
    /// on this being the actual initial state — see [`Corruptible`].
    fn init(&self, node: NodeId, rng: &mut StdRng) -> Self::State;

    /// The shared-variable snapshot `node` broadcasts.
    fn beacon(&self, node: NodeId, state: &Self::State) -> Self::Beacon;

    /// Recomputes `node`'s beacon **into** a pooled buffer.
    ///
    /// The engine refreshes beacons through this hook with a scratch
    /// beacon it keeps alive across refreshes, so protocols whose
    /// beacons own heap buffers (neighbor views, digests) can overwrite
    /// them in place and keep the converging-phase hot path
    /// allocation-free. The default just delegates to
    /// [`Protocol::beacon`] and assigns — correct for any protocol,
    /// without the pooling benefit.
    fn beacon_into(&self, node: NodeId, state: &Self::State, out: &mut Self::Beacon) {
        *out = self.beacon(node, state);
    }

    /// Handles reception of `beacon` from 1-neighbor `from` at time
    /// `now` (round number or event-driver tick): refresh caches.
    fn receive(
        &self,
        node: NodeId,
        state: &mut Self::State,
        from: NodeId,
        beacon: &Self::Beacon,
        now: u64,
    );

    /// Executes every enabled guarded assignment of `node` once.
    fn update(&self, node: NodeId, state: &mut Self::State, now: u64, rng: &mut StdRng);

    /// [`Protocol::receive`] that also reports whether it changed the
    /// state. **Exactness contract:** the result is `true` if and only
    /// if `state` afterwards differs, under `State: PartialEq`, from
    /// `state` before — no false alarms, no misses.
    ///
    /// The event clock's visit to a node is a single frame, so the
    /// snapshot-and-compare the period-clocked drivers pay once per
    /// visit would cost it a whole state copy per frame; a protocol
    /// that knows what its guard wrote overrides this and answers
    /// without one. The provided body is the reference every override
    /// must agree with: copy `state` into `scratch` (a caller-owned
    /// slot whose buffers are reused from call to call), run the guard,
    /// compare. An override may leave `scratch` untouched.
    ///
    /// Overriding it (and [`Protocol::update_changed`]) is speed only,
    /// and what it moves is `converge_events`; the period clocks do not
    /// call it. ROADMAP negatives (iv) and (xliii) hold the numbers.
    fn receive_changed(
        &self,
        node: NodeId,
        state: &mut Self::State,
        from: NodeId,
        beacon: &Self::Beacon,
        now: u64,
        scratch: &mut Option<Self::State>,
    ) -> bool {
        snapshot(scratch, state);
        self.receive(node, state, from, beacon, now);
        scratch.as_ref() != Some(&*state)
    }

    /// [`Protocol::update`] that also reports whether it changed the
    /// state, under the exactness contract and with the reference body
    /// of [`Protocol::receive_changed`].
    fn update_changed(
        &self,
        node: NodeId,
        state: &mut Self::State,
        now: u64,
        rng: &mut StdRng,
        scratch: &mut Option<Self::State>,
    ) -> bool {
        snapshot(scratch, state);
        self.update(node, state, now, rng);
        scratch.as_ref() != Some(&*state)
    }

    /// How many levels of [`Protocol::peek_state`] this protocol
    /// answers: the depth of the chain of dependent loads from the
    /// state column to the deepest heap block a `receive` reads. `0`
    /// (the default) means the state is a few inline words and the
    /// event driver runs no look-ahead pass at all.
    const PEEK_LEVELS: u8 = 0;

    /// The look-ahead read of a receiver's state: level `k` (below
    /// [`Protocol::PEEK_LEVELS`]) loads one word of every cache line
    /// that a [`Protocol::receive`] from `from`, and the
    /// [`Protocol::update`] after it, reach through `k` dependent loads
    /// from the state column, and returns their (wrapping) sum.
    /// **Contract:** writes nothing, never panics — whatever a fault
    /// forged into the state, whether or not `from` is known to it,
    /// for any `level` — and is unobservable: no state, output or count
    /// may depend on it.
    ///
    /// The event driver calls it for the receivers of the next few
    /// frames of its arrival lane, one **pass per level** over all of
    /// them. On that clock every frame lands on another node's state,
    /// cold, and reaches what it rewrites through a chain (state column
    /// → slot block → the sender's entry); handled one frame at a time
    /// the misses of each chain, and of one chain after another, are
    /// paid in series. Levels are separate passes because a single pass
    /// that walks each chain to its end would put the chain's own
    /// data-dependent branches (a search for `from` among the slots)
    /// behind its own miss, and little would overlap; level by level,
    /// the loads of one level are independent of each other and in
    /// flight together, and the next level finds its addresses in
    /// cache. So a level must not branch on what it loads: reach
    /// `from`'s entry by counting, not by searching. These are ordinary
    /// loads in safe Rust, no prefetch intrinsic — which is why a
    /// checksum comes back: the driver folds it into a
    /// [`std::hint::black_box`], the one thing that keeps the compiler
    /// from deleting loads nobody reads.
    ///
    /// It is a speed-only hook, and it moves `converge_events` alone:
    /// ROADMAP negatives (xxxiv) and (xlii) hold what the event clock
    /// reads without it.
    #[inline]
    fn peek_state(&self, state: &Self::State, from: NodeId, level: u8) -> u64 {
        let _ = (state, from, level);
        0
    }

    /// Sizing hint for `state`'s neighbor-keyed buffers, from the
    /// reception row the engine holds for the node: `degree` neighbors,
    /// and `two_hop()` — the sum of those neighbors' degrees, computed
    /// only if called — entries one hop behind them.
    ///
    /// The engine calls it right before it may land frames at the node:
    /// at every visit on the period clocks ([`crate::Network`],
    /// [`crate::ActorDriver`]), at every delivered frame on the event
    /// clock, and never anywhere else. So it runs once per visit or
    /// arrival and must return at once when there is nothing to size;
    /// the intended use is to size, at the first frame, a buffer that
    /// has never allocated, so that a neighborhood learned one entry at
    /// a time is not reallocated one entry at a time.
    ///
    /// **Contract:** capacity only. It must leave `state` equal under
    /// `PartialEq` and every later answer of every other method as it
    /// was — a hint is a hint, not a bound: content past it (mobility,
    /// corruption) must still be kept. The default does nothing.
    #[inline]
    fn reserve(&self, state: &mut Self::State, degree: usize, two_hop: impl FnOnce() -> usize) {
        let _ = (state, degree, two_hop);
    }

    /// Declares the scheduling contract this protocol supports; see
    /// [`Activity`]. Conservative default: [`Activity::Eager`] — every
    /// node runs every step, exactly the classic semantics.
    fn activity(&self) -> Activity {
        Activity::Eager
    }

    /// Whether a freshly computed beacon differs from the previous one.
    ///
    /// The activity-driven driver re-broadcasts a node's shared
    /// variables only when they changed; this hook is the change
    /// detector. The conservative default reports every beacon as
    /// changed (the node keeps broadcasting while scheduled — correct
    /// for any protocol, just without communication savings).
    /// Protocols whose beacon type is `PartialEq` typically implement
    /// this as `old != new`.
    fn beacon_changed(&self, old: &Self::Beacon, new: &Self::Beacon) -> bool {
        let _ = (old, new);
        true
    }

    /// Whether anything [`Protocol::receive`] reads of a beacon differs
    /// between `old` and `new`. Asked only of a beacon that
    /// [`Protocol::beacon_changed`] reports as changed; the engine
    /// records the epoch of the last change it reports, and a gated
    /// driver does not hand a receiver a frame whose read part it
    /// already holds (clause 1 of the [`Activity`] silence contract).
    ///
    /// **Projection contract:** there is a fixed projection `π` of the
    /// beacon onto what `receive` reads such that a `false` answer
    /// means `π(old) == π(new)`, and a receiver whose cached copy of
    /// the sender came from `receive` of a beacon `b` is left equal
    /// under `PartialEq`, drawing nothing, by `receive` of any beacon
    /// with `b`'s projection. A `true` answer may be conservative (it
    /// costs one receive). An exact override is `π(old) != π(new)`:
    /// `false` on equal beacons, symmetric, and two `false` answers in
    /// a row (`a` to `b`, `b` to `c`) mean a `false` from `a` to `c` —
    /// which is what lets the engine chain them across epochs.
    ///
    /// The default is `beacon_changed`: everything on the air is read,
    /// and no receive is ever skipped for it.
    fn read_changed(&self, old: &Self::Beacon, new: &Self::Beacon) -> bool {
        self.beacon_changed(old, new)
    }

    /// Link-layer notification: the link between `node` and `peer`
    /// disappeared (mobility, isolation fault, or a scripted topology
    /// change that severed it). Default: no-op.
    ///
    /// Protocols that rely on beacon-timeout cache expiry to forget
    /// departed neighbors can evict here instead — the eviction path
    /// that stays available once gated scheduling silences the periodic
    /// beacons a TTL sweep would need.
    fn link_down(&self, node: NodeId, state: &mut Self::State, peer: NodeId) {
        let _ = (node, state, peer);
    }
}

/// Copies `state` into the reusable `slot` — the "before" of every
/// snapshot-and-compare change detector (the round driver's and the
/// actor fabric's per-visit one, the provided `*_changed` bodies
/// above). Allocation-free once the slot's buffers have grown.
pub(crate) fn snapshot<S: Clone>(slot: &mut Option<S>, state: &S) {
    match slot {
        Some(s) => s.clone_from(state),
        None => *slot = Some(state.clone()),
    }
}

/// A protocol whose state can be *arbitrarily* corrupted, for
/// self-stabilization testing.
///
/// Self-stabilization means: started from **any** state (not just
/// [`Protocol::init`]'s), the system reaches a legitimate configuration
/// and stays there. Implementations should generate genuinely hostile
/// states: ghost neighbors, stale density values, bogus cluster-head
/// claims, out-of-range DAG identifiers.
pub trait Corruptible: Protocol {
    /// Overwrites `state` with arbitrary (adversarial) content.
    fn corrupt(&self, node: NodeId, state: &mut Self::State, rng: &mut StdRng);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A protocol is usable as a trait object over its own types.
    #[test]
    fn protocol_trait_is_implementable() {
        struct Noop;
        impl Protocol for Noop {
            type State = ();
            type Beacon = ();
            fn init(&self, _: NodeId, _: &mut StdRng) {}
            fn beacon(&self, _: NodeId, _: &()) {}
            fn receive(&self, _: NodeId, _: &mut (), _: NodeId, _: &(), _: u64) {}
            fn update(&self, _: NodeId, _: &mut (), _: u64, _: &mut StdRng) {}
        }
        impl Corruptible for Noop {
            fn corrupt(&self, _: NodeId, _: &mut (), _: &mut StdRng) {}
        }
        // Nothing to assert beyond "it compiles and can be invoked".
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(0);
        let p = Noop;
        #[allow(clippy::let_unit_value)]
        let mut s = p.init(NodeId::new(0), &mut rng);
        p.receive(NodeId::new(0), &mut s, NodeId::new(1), &(), 0);
        p.update(NodeId::new(0), &mut s, 0, &mut rng);
        p.corrupt(NodeId::new(0), &mut s, &mut rng);
    }
}
