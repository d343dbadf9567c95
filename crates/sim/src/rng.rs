use rand::rngs::StdRng;
use rand::SeedableRng;

/// Derives a decorrelated 64-bit seed from a base seed and a stream
/// index (SplitMix64 finalizer). Identical inputs always yield the
/// identical seed, so simulations are reproducible however many RNG
/// streams they split off.
///
/// # Examples
///
/// ```
/// use mwn_sim::derive_seed;
///
/// assert_eq!(derive_seed(42, 3), derive_seed(42, 3));
/// assert_ne!(derive_seed(42, 3), derive_seed(42, 4));
/// ```
pub fn derive_seed(base: u64, stream: u64) -> u64 {
    let mut z = base.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Creates `n` independent per-node RNG streams from one base seed.
///
/// Each node gets its own stream so that the randomness a node consumes
/// (e.g. the DAG renaming draws of algorithm N1) does not depend on how
/// many other nodes acted before it in the round — a requirement for
/// meaningful fault-injection experiments, where re-running with the
/// same seed must replay identical node-local choices.
pub fn node_streams(base: u64, n: usize) -> Vec<StdRng> {
    (0..n as u64)
        .map(|i| StdRng::seed_from_u64(derive_seed(base, i)))
        .collect()
}

/// Derives a decorrelated seed from a base seed and **two** stream
/// coordinates — the splittable scheme behind per-(step, node) random
/// streams.
///
/// # Examples
///
/// ```
/// use mwn_sim::derive_seed3;
///
/// assert_eq!(derive_seed3(42, 3, 9), derive_seed3(42, 3, 9));
/// assert_ne!(derive_seed3(42, 3, 9), derive_seed3(42, 9, 3));
/// ```
pub fn derive_seed3(base: u64, a: u64, b: u64) -> u64 {
    derive_seed(derive_seed(base, a), b)
}

/// Reserved stream tags for the round driver's derived streams. Kept
/// far above any realistic step count so per-step streams can never
/// collide with them.
///
/// The actor driver deliberately reuses the round driver's
/// [`UPDATE`](streams::UPDATE) and [`MEDIUM`](streams::MEDIUM) bases:
/// per (period, node) its frame fates and update draws come off the
/// *same* derived streams, so for a given seed the two drivers consume
/// identical randomness — the foundation of the cross-driver agreement
/// suite.
pub(crate) mod streams {
    /// Tag for the round driver's sequential medium stream
    /// (contention-coupled media evaluate the full sender set on it).
    pub const ROUND_MEDIUM: u64 = u64::MAX;
    /// Tag for the round and actor drivers' fault-site stream.
    pub const ROUND_FAULT: u64 = u64::MAX - 2;
    /// Tag for [`crate::Protocol::init`] draws.
    pub const INIT: u64 = u64::MAX - 8;
    /// Tag for per-(step, node) [`crate::Protocol::update`] draws
    /// (shared by the round and actor drivers).
    pub const UPDATE: u64 = u64::MAX - 9;
    /// Tag for per-(step, sender) frame-fate draws on media with
    /// independent fates (shared by the round and actor drivers).
    pub const MEDIUM: u64 = u64::MAX - 10;
    /// Tag for per-corruption-event state-scrambling draws.
    pub const CORRUPT: u64 = u64::MAX - 11;
    /// Tag for the event driver's scripted-fault stream.
    pub const EVENT_FAULT: u64 = u64::MAX - 12;
    /// Tag for the event driver's fixed per-node phase offsets.
    pub const PHASE: u64 = u64::MAX - 13;
    /// Tag for the event driver's per-(slot, node) beacon jitter.
    pub const TIMING: u64 = u64::MAX - 14;
    /// Tag for gated-contention per-(tick, sender) draws (slot pick,
    /// phantom carrier-sense fate).
    pub const CONTEND_SENDER: u64 = u64::MAX - 16;
    /// Tag for gated-contention per-(tick, receiver, sender) frame-copy
    /// draws (the statistical collision/capture fold).
    pub const CONTEND_COPY: u64 = u64::MAX - 17;
}

/// The RNG handed to one node for one activity: a fresh [`StdRng`]
/// seeded from `(base, stream, index)`.
///
/// Because the stream is (re-)derived at every use, a node that is
/// *skipped* by the activity-driven scheduler consumes no randomness —
/// the key property that makes dirty-set gated execution byte-identical
/// to running every node every step.
///
/// # Examples
///
/// ```
/// use mwn_sim::split_rng;
/// use rand::Rng;
///
/// let mut a = split_rng(7, 3, 12);
/// let mut b = split_rng(7, 3, 12);
/// assert_eq!(a.random::<u64>(), b.random::<u64>());
/// ```
pub fn split_rng(base: u64, stream: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(derive_seed3(base, stream, index))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn streams_are_reproducible() {
        let mut a = node_streams(9, 4);
        let mut b = node_streams(9, 4);
        for (x, y) in a.iter_mut().zip(b.iter_mut()) {
            assert_eq!(x.random::<u64>(), y.random::<u64>());
        }
    }

    #[test]
    fn streams_differ_between_nodes() {
        let mut streams = node_streams(9, 8);
        let firsts: Vec<u64> = streams.iter_mut().map(|r| r.random()).collect();
        let mut dedup = firsts.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), firsts.len());
    }

    #[test]
    fn derive_seed_avalanches() {
        // Adjacent stream indices should produce wildly different seeds.
        let a = derive_seed(0, 0);
        let b = derive_seed(0, 1);
        assert!((a ^ b).count_ones() > 10);
    }

    #[test]
    fn stream_tags_are_pairwise_distinct() {
        use streams::*;
        let mut tags = vec![
            ROUND_MEDIUM,
            ROUND_FAULT,
            INIT,
            UPDATE,
            MEDIUM,
            CORRUPT,
            EVENT_FAULT,
            PHASE,
            TIMING,
            CONTEND_SENDER,
            CONTEND_COPY,
        ];
        let declared = tags.len();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), declared, "two streams share a tag");
    }

    #[test]
    fn split_streams_are_coordinate_wise_distinct() {
        let firsts: Vec<u64> = (0..4u64)
            .flat_map(|step| (0..4u64).map(move |node| (step, node)))
            .map(|(step, node)| split_rng(9, step, node).random())
            .collect();
        let mut dedup = firsts.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), firsts.len(), "all (step, node) streams differ");
    }
}
