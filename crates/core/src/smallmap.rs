//! A sorted-vector map for a small, hot, per-node neighbor cache.
//!
//! [`crate::DagState`]'s cache holds one `Copy` entry per radio
//! neighbor — a handful of entries, read and rewritten for every
//! active node on every step of the converging phase.
//! ([`crate::ClusterState`], whose entries own a view each, has its
//! own flat layout: [`crate::NeighborCache`].) A `BTreeMap` pays pointer-chasing, per-node heap blocks and
//! an allocating `clone` for that working set; a single sorted vector
//! makes the clone one contiguous `memcpy`, equality a linear scan,
//! and lookups a branch-light binary search over one cache line or
//! two. Iteration order is ascending by key — exactly the `BTreeMap`
//! order — so swapping the backing store is observationally invisible
//! to the protocol (the determinism suites verify byte-identical
//! outputs).
//!
//! The API is the subset of `BTreeMap` the protocols use, plus a
//! capacity-reusing `Clone::clone_from` so the engine's scratch-state
//! cloning settles into zero steady-state allocation.

use serde::{Deserialize, Serialize};

/// A map backed by a vector of entries sorted by key.
///
/// Designed for small key counts (a node's radio degree). All query
/// methods are `O(log n)`; `insert`/`remove` shift the tail, which for
/// degree-sized maps is cheaper than touching a tree node.
///
/// # Examples
///
/// ```
/// use mwn_cluster::SmallMap;
///
/// let mut m: SmallMap<u32, &str> = SmallMap::new();
/// m.insert(3, "c");
/// m.insert(1, "a");
/// assert_eq!(m.get(&3), Some(&"c"));
/// // Iteration is always in ascending key order.
/// assert_eq!(m.keys().copied().collect::<Vec<_>>(), vec![1, 3]);
/// ```
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SmallMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K: Ord, V> SmallMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        SmallMap {
            entries: Vec::new(),
        }
    }

    fn pos(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value for `key`, if present.
    pub fn get(&self, key: &K) -> Option<&V> {
        match self.pos(key) {
            Ok(i) => Some(&self.entries[i].1),
            Err(_) => None,
        }
    }

    /// Mutable access to the value for `key`, if present.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self.pos(key) {
            Ok(i) => Some(&mut self.entries[i].1),
            Err(_) => None,
        }
    }

    /// Whether `key` has an entry.
    pub fn contains_key(&self, key: &K) -> bool {
        self.pos(key).is_ok()
    }

    /// Inserts `value` under `key`, returning the previous value if
    /// the key was already present.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.pos(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// Removes `key`, returning its value if it was present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        match self.pos(key) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// Drops every entry (keeping the allocation).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Keeps only the entries for which `f` returns `true`. Order is
    /// preserved, so the map stays sorted.
    pub fn retain(&mut self, mut f: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| f(k, v));
    }

    /// The keys, in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// The values, in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Iterates `(key, value)` pairs in ascending key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        Iter(self.entries.iter())
    }
}

impl<K: Ord, V> Default for SmallMap<K, V> {
    fn default() -> Self {
        SmallMap::new()
    }
}

/// `clone_from` reuses the destination's entry buffer (and, through
/// each value's own `clone_from`, any heap the values hold).
impl<K: Clone, V: Clone> Clone for SmallMap<K, V> {
    fn clone(&self) -> Self {
        SmallMap {
            entries: self.entries.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.entries.clone_from(&source.entries);
    }
}

/// Borrowing iterator over a [`SmallMap`], yielding `(&K, &V)` in
/// ascending key order (the `BTreeMap` iteration contract).
pub struct Iter<'a, K, V>(std::slice::Iter<'a, (K, V)>);

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<(&'a K, &'a V)> {
        self.0.next().map(|(k, v)| (k, v))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl<K, V> ExactSizeIterator for Iter<'_, K, V> {}

impl<'a, K, V> IntoIterator for &'a SmallMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = Iter<'a, K, V>;

    fn into_iter(self) -> Iter<'a, K, V> {
        Iter(self.entries.iter())
    }
}

impl<K: Ord, V> FromIterator<(K, V)> for SmallMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut m = SmallMap::new();
        for (k, v) in iter {
            m.insert(k, v);
        }
        m
    }
}

impl<K: Ord, V> std::ops::Index<&K> for SmallMap<K, V> {
    type Output = V;

    fn index(&self, key: &K) -> &V {
        self.get(key).expect("no entry found for key")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = SmallMap::new();
        assert_eq!(m.insert(5u32, "five"), None);
        assert_eq!(m.insert(2, "two"), None);
        assert_eq!(m.insert(9, "nine"), None);
        assert_eq!(m.insert(5, "FIVE"), Some("five"));
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(&5), Some(&"FIVE"));
        assert_eq!(m.get(&7), None);
        assert!(m.contains_key(&2));
        assert_eq!(m.remove(&2), Some("two"));
        assert_eq!(m.remove(&2), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn iteration_is_sorted_like_btreemap() {
        use std::collections::BTreeMap;
        let pairs = [(7u32, 'a'), (1, 'b'), (4, 'c'), (2, 'd'), (9, 'e')];
        let small: SmallMap<u32, char> = pairs.iter().copied().collect();
        let tree: BTreeMap<u32, char> = pairs.iter().copied().collect();
        assert!(small.iter().eq(tree.iter()));
        assert!(small.keys().eq(tree.keys()));
        assert!(small.values().eq(tree.values()));
        assert!((&small).into_iter().eq(tree.iter()));
    }

    #[test]
    fn retain_preserves_order_and_mutates() {
        let mut m: SmallMap<u32, u32> = (0..10u32).map(|k| (k, k * 10)).collect();
        m.retain(|&k, v| {
            *v += 1;
            k % 2 == 0
        });
        assert_eq!(m.keys().copied().collect::<Vec<_>>(), vec![0, 2, 4, 6, 8]);
        assert_eq!(m.get(&4), Some(&41));
    }

    #[test]
    fn clone_from_reuses_and_matches() {
        let source: SmallMap<u32, Vec<u32>> = (0..8u32).map(|k| (k, vec![k; 4])).collect();
        let mut dst = SmallMap::new();
        dst.insert(99u32, vec![1, 2, 3]);
        dst.clone_from(&source);
        assert_eq!(dst, source);
        // A second clone_from of an equal-shape map must not change
        // anything (and in the hot loop it also must not allocate).
        dst.clone_from(&source);
        assert_eq!(dst, source);
    }

    #[test]
    fn index_panics_on_missing_key() {
        let m: SmallMap<u32, u32> = [(1u32, 10u32)].into_iter().collect();
        assert_eq!(m[&1], 10);
        let missing = std::panic::catch_unwind(|| m[&2]);
        assert!(missing.is_err());
    }

    #[test]
    fn clear_and_empty() {
        let mut m: SmallMap<u32, u32> = [(1u32, 1u32), (2, 2)].into_iter().collect();
        assert!(!m.is_empty());
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert_eq!(m.get(&1), None);
    }
}
