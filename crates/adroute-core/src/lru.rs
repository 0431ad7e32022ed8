//! A small least-recently-used cache.
//!
//! Used by Route Servers (route cache) and Policy Gateways (handle cache,
//! whose bounded size is the "policy gateway state management" concern of
//! the paper's Section 6). Deterministic: eviction order depends only on
//! the access sequence.
//!
//! The entries live in one dense slab, doubly linked by slot index in
//! recency order, with one key → slot map beside it; a hit, an insert, a
//! removal and an eviction are each O(1). The map hashes with the crate's
//! fixed Fx hasher (`fxhash`): a gateway's handle lookup is the per-hop
//! cost of every data packet.

use std::hash::Hash;

use crate::fxhash::FxHashMap;

/// The end of a recency link.
const NIL: usize = usize::MAX;

#[derive(Clone, Debug)]
struct Node<K, V> {
    key: K,
    value: V,
    /// Slot of the next less recently used entry (`NIL` at the LRU end).
    older: usize,
    /// Slot of the next more recently used entry (`NIL` at the MRU end).
    newer: usize,
}

/// A bounded map with least-recently-used eviction.
#[derive(Clone, Debug)]
pub(crate) struct LruCache<K, V> {
    capacity: usize,
    /// Key → slot in `nodes`.
    map: FxHashMap<K, usize>,
    /// The entries, one per slot with no holes, linked in recency order.
    nodes: Vec<Node<K, V>>,
    /// Slot of the least recently used entry (`NIL` when empty).
    lru: usize,
    /// Slot of the most recently used entry (`NIL` when empty).
    mru: usize,
    /// Number of entries evicted over the cache's lifetime.
    pub evictions: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// A cache holding at most `capacity` entries. Capacity 0 disables
    /// storage entirely (every insert is dropped).
    pub(crate) fn new(capacity: usize) -> LruCache<K, V> {
        LruCache {
            capacity,
            map: FxHashMap::default(),
            nodes: Vec::new(),
            lru: NIL,
            mru: NIL,
            evictions: 0,
        }
    }

    /// Current number of entries.
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Maximum number of entries.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks up `key`, refreshing its recency. Misses leave the recency
    /// order untouched.
    pub(crate) fn get(&mut self, key: &K) -> Option<&V> {
        let i = *self.map.get(key)?;
        self.touch(i);
        Some(&self.nodes[i].value)
    }

    /// Looks up without refreshing recency (for inspection).
    pub(crate) fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&i| &self.nodes[i].value)
    }

    /// Inserts `key -> value`, evicting the least recently used entry if
    /// over capacity. Returns the evicted key, if any, so callers keeping
    /// secondary indexes over the cached entries can stay exact.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<K> {
        if self.capacity == 0 {
            return None;
        }
        if let Some(&i) = self.map.get(&key) {
            self.nodes[i].value = value;
            self.touch(i);
            return None;
        }
        let evicted = (self.nodes.len() == self.capacity).then(|| {
            self.evictions += 1;
            let (victim, _) = self.take(self.lru);
            self.map.remove(&victim);
            victim
        });
        self.map.insert(key.clone(), self.nodes.len());
        self.nodes.push(Node {
            key,
            value,
            older: NIL,
            newer: NIL,
        });
        self.link_mru(self.nodes.len() - 1);
        evicted
    }

    /// Removes a single entry.
    pub(crate) fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.map.remove(key)?;
        Some(self.take(i).1)
    }

    /// Removes every entry for which the predicate holds.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) {
        let doomed: Vec<K> = self
            .iter_recency()
            .filter(|(k, v)| !keep(k, v))
            .map(|(k, _)| k.clone())
            .collect();
        for k in &doomed {
            self.remove(k);
        }
    }

    /// Drops all entries.
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.lru = NIL;
        self.mru = NIL;
    }

    /// Iterates over entries least-recently-used first. The order is a
    /// pure function of the access sequence, so snapshots taken from it
    /// (e.g. a warm standby syncing a Route Server's cache) are
    /// deterministic.
    pub(crate) fn iter_recency(&self) -> impl Iterator<Item = (&K, &V)> {
        let mut i = self.lru;
        std::iter::from_fn(move || {
            let node = self.nodes.get(i)?;
            i = node.newer;
            Some((&node.key, &node.value))
        })
    }

    /// Makes slot `i` the most recently used.
    fn touch(&mut self, i: usize) {
        if i != self.mru {
            self.unlink(i);
            self.link_mru(i);
        }
    }

    /// Detaches slot `i` from the recency list, joining its neighbours.
    fn unlink(&mut self, i: usize) {
        let Node { older, newer, .. } = self.nodes[i];
        match older {
            NIL => self.lru = newer,
            o => self.nodes[o].newer = newer,
        }
        match newer {
            NIL => self.mru = older,
            n => self.nodes[n].older = older,
        }
    }

    /// Points slot `i`'s neighbours (or the list ends) back at `i`.
    fn relink(&mut self, i: usize) {
        let Node { older, newer, .. } = self.nodes[i];
        match older {
            NIL => self.lru = i,
            o => self.nodes[o].newer = i,
        }
        match newer {
            NIL => self.mru = i,
            n => self.nodes[n].older = i,
        }
    }

    /// Appends the detached slot `i` at the most recently used end.
    fn link_mru(&mut self, i: usize) {
        self.nodes[i].older = self.mru;
        self.nodes[i].newer = NIL;
        self.relink(i);
    }

    /// Unlinks slot `i` and takes its entry out of the slab, moving the
    /// last slot into the hole. The caller unmaps the taken key.
    fn take(&mut self, i: usize) -> (K, V) {
        self.unlink(i);
        let node = self.nodes.swap_remove(i);
        if i < self.nodes.len() {
            self.relink(i);
            *self
                .map
                .get_mut(&self.nodes[i].key)
                .expect("every entry is mapped") = i;
        }
        (node.key, node.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_insert_get() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.peek(&"b"), Some(&2));
        assert_eq!(c.len(), 2);
        assert!(!c.nodes.is_empty());
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        let _ = c.get(&"a"); // refresh a; b is now LRU
        c.insert("c", 3);
        assert_eq!(c.peek(&"b"), None, "b should be evicted");
        assert_eq!(c.peek(&"a"), Some(&1));
        assert_eq!(c.evictions, 1);
    }

    #[test]
    fn reinsert_updates_value_without_growth() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        c.insert("a", 9);
        assert_eq!(c.len(), 1);
        assert_eq!(c.peek(&"a"), Some(&9));
        assert_eq!(c.evictions, 0);
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let mut c = LruCache::new(0);
        c.insert("a", 1);
        assert!(c.nodes.is_empty());
        assert_eq!(c.get(&"a"), None);
    }

    #[test]
    fn remove_retain_clear() {
        let mut c = LruCache::new(8);
        for i in 0..6 {
            c.insert(i, i * 10);
        }
        assert_eq!(c.remove(&3), Some(30));
        assert_eq!(c.remove(&3), None);
        c.retain(|&k, _| k % 2 == 0);
        assert_eq!(c.len(), 3); // 0, 2, 4
        assert!(c.peek(&5).is_none());
        assert_eq!(c.iter_recency().count(), 3);
        c.clear();
        assert!(c.nodes.is_empty());
    }

    #[test]
    fn misses_leave_recency_unchanged() {
        let mut c = LruCache::new(3);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("c", 3);
        let before: Vec<_> = c.iter_recency().map(|(k, _)| *k).collect();
        for _ in 0..100 {
            assert_eq!(c.get(&"zzz"), None);
        }
        let after: Vec<_> = c.iter_recency().map(|(k, _)| *k).collect();
        assert_eq!(after, before, "misses must not reorder entries");
        assert_eq!(c.insert("d", 4), Some("a"), "the LRU entry is still next");
    }

    #[test]
    fn insert_reports_evicted_key() {
        let mut c = LruCache::new(2);
        assert_eq!(c.insert("a", 1), None);
        assert_eq!(c.insert("b", 2), None);
        let _ = c.get(&"a"); // b is now LRU
        assert_eq!(c.insert("c", 3), Some("b"));
        assert_eq!(c.insert("a", 9), None, "re-insert evicts nothing");
        let mut zero = LruCache::new(0);
        assert_eq!(zero.insert("x", 1), None);
    }

    #[test]
    fn iter_recency_is_lru_first() {
        let mut c = LruCache::new(4);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("c", 3);
        let _ = c.get(&"a"); // a is now the most recent
        let keys: Vec<_> = c.iter_recency().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec!["b", "c", "a"]);
        let again: Vec<_> = c.iter_recency().map(|(k, _)| *k).collect();
        assert_eq!(keys, again, "iteration must not perturb recency");
    }

    #[test]
    fn eviction_order_is_deterministic() {
        let run = || {
            let mut c = LruCache::new(3);
            for i in 0..10 {
                c.insert(i, i);
                if i % 3 == 0 {
                    let _ = c.get(&(i / 2));
                }
            }
            let keys: Vec<_> = c.iter_recency().map(|(k, _)| *k).collect();
            (keys, c.evictions)
        };
        assert_eq!(run(), run());
    }
}

/// The cache against a stamp-ordered reference implementation.
#[cfg(test)]
mod model {
    use super::LruCache;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap};
    use std::hash::Hash;

    /// The reference: every entry carries a recency stamp from a clock
    /// that hits and inserts advance, and a `BTreeMap` orders the stamps.
    /// O(log n) per refresh, and obviously least-recently-used.
    struct Reference<K, V> {
        capacity: usize,
        map: HashMap<K, (V, u64)>,
        order: BTreeMap<u64, K>,
        stamp: u64,
        evictions: u64,
    }

    impl<K: Eq + Hash + Clone, V> Reference<K, V> {
        fn new(capacity: usize) -> Reference<K, V> {
            Reference {
                capacity,
                map: HashMap::new(),
                order: BTreeMap::new(),
                stamp: 0,
                evictions: 0,
            }
        }

        fn len(&self) -> usize {
            self.map.len()
        }

        fn get(&mut self, key: &K) -> Option<&V> {
            if let Some((_, old)) = self.map.get(key) {
                self.stamp += 1;
                let stamp = self.stamp;
                let old = *old;
                self.order.remove(&old);
                self.order.insert(stamp, key.clone());
                let entry = self.map.get_mut(key).expect("present above");
                entry.1 = stamp;
                Some(&entry.0)
            } else {
                None
            }
        }

        fn peek(&self, key: &K) -> Option<&V> {
            self.map.get(key).map(|(v, _)| v)
        }

        fn insert(&mut self, key: K, value: V) -> Option<K> {
            if self.capacity == 0 {
                return None;
            }
            self.stamp += 1;
            if let Some((_, old)) = self.map.insert(key.clone(), (value, self.stamp)) {
                self.order.remove(&old);
            }
            self.order.insert(self.stamp, key);
            let mut evicted = None;
            while self.map.len() > self.capacity {
                let (&oldest, _) = self.order.iter().next().expect("non-empty over capacity");
                let victim = self.order.remove(&oldest).expect("key present");
                self.map.remove(&victim);
                self.evictions += 1;
                evicted = Some(victim);
            }
            evicted
        }

        fn remove(&mut self, key: &K) -> Option<V> {
            let (v, stamp) = self.map.remove(key)?;
            self.order.remove(&stamp);
            Some(v)
        }

        fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) {
            let doomed: Vec<u64> = self
                .order
                .iter()
                .filter(|(_, k)| {
                    let (v, _) = &self.map[*k];
                    !keep(k, v)
                })
                .map(|(&s, _)| s)
                .collect();
            for s in doomed {
                if let Some(k) = self.order.remove(&s) {
                    self.map.remove(&k);
                }
            }
        }

        fn clear(&mut self) {
            self.map.clear();
            self.order.clear();
        }

        fn iter_recency(&self) -> impl Iterator<Item = (&K, &V)> {
            self.order.values().map(move |k| (k, &self.map[k].0))
        }
    }

    /// Keys drawn per operation: few enough that hits, re-inserts and
    /// evictions are all common at every capacity.
    const KEYS: u32 = 12;

    fn capacity() -> impl Strategy<Value = usize> {
        prop_oneof![Just(0usize), Just(1), Just(2), Just(3), Just(8)]
    }

    proptest! {
        /// Any sequence of operations returns the same values, evicts the
        /// same keys and leaves the same recency order as the reference,
        /// after every operation. An operation is `op / KEYS` (insert,
        /// get, peek, remove, retain, clear, weighted 8:6:2:2:1:1) on key
        /// `op % KEYS`; inserted values are the operation's index.
        #[test]
        fn lru_matches_reference_model(
            cap in capacity(),
            ops in proptest::collection::vec(0..20 * KEYS, 0..160),
        ) {
            let mut lru = LruCache::new(cap);
            let mut model = Reference::new(cap);
            for (i, &op) in ops.iter().enumerate() {
                let key = op % KEYS;
                match op / KEYS {
                    0..=7 => prop_assert_eq!((i, lru.insert(key, i)), (i, model.insert(key, i))),
                    8..=13 => prop_assert_eq!((i, lru.get(&key)), (i, model.get(&key))),
                    14 | 15 => prop_assert_eq!((i, lru.peek(&key)), (i, model.peek(&key))),
                    16 | 17 => prop_assert_eq!((i, lru.remove(&key)), (i, model.remove(&key))),
                    18 => {
                        // Drop about a third, and check the predicate sees
                        // the entries in the same (recency) order.
                        let doomed = |k: &u32, v: &usize| (*k as usize + v) % 3 == key as usize % 3;
                        let (mut seen, mut want) = (Vec::new(), Vec::new());
                        lru.retain(|k, v| {
                            seen.push(*k);
                            !doomed(k, v)
                        });
                        model.retain(|k, v| {
                            want.push(*k);
                            !doomed(k, v)
                        });
                        prop_assert_eq!((i, seen), (i, want), "retain visit order");
                    }
                    _ => {
                        lru.clear();
                        model.clear();
                    }
                }
                prop_assert_eq!((i, lru.len()), (i, model.len()));
                prop_assert_eq!((i, lru.evictions), (i, model.evictions));
                let got: Vec<(u32, usize)> = lru.iter_recency().map(|(k, v)| (*k, *v)).collect();
                let want: Vec<(u32, usize)> = model.iter_recency().map(|(k, v)| (*k, *v)).collect();
                prop_assert_eq!((i, got), (i, want));
            }
        }
    }
}
