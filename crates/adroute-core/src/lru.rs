//! A small least-recently-used cache.
//!
//! Used by Route Servers (route cache) and Policy Gateways (handle cache,
//! whose bounded size is the "policy gateway state management" concern of
//! the paper's Section 6). Deterministic: eviction order depends only on
//! the access sequence.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;

/// A bounded map with least-recently-used eviction.
#[derive(Clone, Debug)]
pub struct LruCache<K, V> {
    capacity: usize,
    map: HashMap<K, (V, u64)>,
    order: BTreeMap<u64, K>,
    stamp: u64,
    /// Number of entries evicted over the cache's lifetime.
    pub evictions: u64,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// A cache holding at most `capacity` entries. Capacity 0 disables
    /// storage entirely (every insert is dropped).
    pub fn new(capacity: usize) -> LruCache<K, V> {
        LruCache {
            capacity,
            map: HashMap::new(),
            order: BTreeMap::new(),
            stamp: 0,
            evictions: 0,
        }
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up `key`, refreshing its recency. Misses leave the recency
    /// clock untouched, so miss-heavy workloads cannot skew the spacing
    /// between surviving entries.
    pub fn get(&mut self, key: &K) -> Option<&V> {
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

    /// Looks up without refreshing recency (for inspection).
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|(v, _)| v)
    }

    /// Inserts `key -> value`, evicting the least recently used entry if
    /// over capacity. Returns the evicted key, if any, so callers keeping
    /// secondary indexes over the cached entries can stay exact.
    pub fn insert(&mut self, key: K, value: V) -> Option<K> {
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

    /// Removes a single entry.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (v, stamp) = self.map.remove(key)?;
        self.order.remove(&stamp);
        Some(v)
    }

    /// Removes every entry for which the predicate holds.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &V) -> bool) {
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

    /// Drops all entries.
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }

    /// Iterates over entries in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.map.iter().map(|(k, (v, _))| (k, v))
    }

    /// Iterates over entries least-recently-used first. The order is a
    /// pure function of the access sequence, so snapshots taken from it
    /// (e.g. a warm standby syncing a Route Server's cache) are
    /// deterministic.
    pub fn iter_recency(&self) -> impl Iterator<Item = (&K, &V)> {
        self.order.values().map(move |k| (k, &self.map[k].0))
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
        assert!(!c.is_empty());
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
        assert!(c.is_empty());
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
        assert_eq!(c.iter().count(), 3);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn miss_does_not_advance_recency_clock() {
        let mut c = LruCache::new(2);
        c.insert("a", 1);
        let before = c.stamp;
        for _ in 0..100 {
            assert_eq!(c.get(&"zzz"), None);
        }
        assert_eq!(c.stamp, before, "misses must not advance the clock");
        let _ = c.get(&"a");
        assert_eq!(c.stamp, before + 1, "hits advance it by exactly one");
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
            let mut keys: Vec<_> = c.iter().map(|(k, _)| *k).collect();
            keys.sort_unstable();
            (keys, c.evictions)
        };
        assert_eq!(run(), run());
    }
}
