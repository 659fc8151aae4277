//! A small stamp-based LRU map for the L1 answer cache.

use std::collections::HashMap;
use std::hash::Hash;

/// Least-recently-used map with a fixed capacity.
///
/// Each entry carries a monotonically increasing access stamp; on insert at
/// capacity the minimum-stamp entry is evicted. `get` refreshes the stamp.
/// A capacity of `0` disables the cache entirely (every `get` misses, every
/// `insert` is dropped).
///
/// Lookup is `O(1)`, insert-at-capacity is `O(n)` for the eviction scan —
/// fine for the hundreds-of-entries answer cache this backs, and it keeps
/// the structure to one `HashMap` with no unsafe pointer juggling.
pub(crate) struct Lru<K, V> {
    capacity: usize,
    clock: u64,
    map: HashMap<K, (u64, V)>,
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    /// Create a cache holding at most `capacity` entries.
    pub(crate) fn new(capacity: usize) -> Self {
        Lru { capacity, clock: 0, map: HashMap::new() }
    }

    /// Number of entries currently held.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Look up `key`, refreshing its recency on hit.
    pub(crate) fn get(&mut self, key: &K) -> Option<&V> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(key).map(|slot| {
            slot.0 = clock;
            &slot.1
        })
    }

    /// Insert (or replace) `key`, evicting the least-recently-used entry if
    /// the cache is full.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.clock += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            if let Some(oldest) =
                self.map.iter().min_by_key(|(_, (stamp, _))| *stamp).map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, (self.clock, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = Lru::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        assert_eq!(c.get(&"a"), Some(&1)); // refresh "a": "b" is now LRU
        c.insert("c", 3);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.get(&"a"), Some(&1));
        assert_eq!(c.get(&"c"), Some(&3));
    }

    #[test]
    fn replacing_existing_key_does_not_evict() {
        let mut c = Lru::new(2);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("a", 10);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&"a"), Some(&10));
        assert_eq!(c.get(&"b"), Some(&2));
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let mut c = Lru::new(0);
        c.insert("a", 1);
        assert_eq!(c.len(), 0);
        assert_eq!(c.get(&"a"), None);
    }
}
