//! Generic sharded in-memory LRU — the one cache structure of the
//! workspace. Serve's hot cache (`CacheKey → latency`), serve's resolve
//! memo (`Arc` identity → graph hash) and the predictor's
//! [`crate::EmbedCache`] are all instances of it.
//!
//! Shards keep lock contention local: two requests for different keys
//! almost never serialize on the same mutex. Within a shard the LRU list
//! is intrusive over a slab (`Vec` of entries linked by index), so
//! promotion on hit and eviction on insert are O(1) with no per-entry
//! allocation.

use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

const NIL: usize = usize::MAX;

struct Entry<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

enum Inserted {
    Refreshed,
    Added,
    Evicted,
}

struct Shard<K, V> {
    map: HashMap<K, usize>,
    slab: Vec<Entry<K, V>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> Shard<K, V> {
    fn new(capacity: usize) -> Self {
        Shard {
            map: HashMap::with_capacity(capacity),
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn detach(&mut self, i: usize) {
        let (prev, next) = (self.slab[i].prev, self.slab[i].next);
        match prev {
            NIL => self.head = next,
            p => self.slab[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n].prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slab[i].prev = NIL;
        self.slab[i].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn get(&mut self, key: &K) -> Option<V> {
        let &i = self.map.get(key)?;
        self.detach(i);
        self.push_front(i);
        Some(self.slab[i].value.clone())
    }

    fn insert(&mut self, key: K, value: V) -> Inserted {
        if let Some(&i) = self.map.get(&key) {
            self.slab[i].value = value;
            self.detach(i);
            self.push_front(i);
            return Inserted::Refreshed;
        }
        let mut outcome = Inserted::Added;
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            self.detach(victim);
            self.map.remove(&self.slab[victim].key);
            self.free.push(victim);
            outcome = Inserted::Evicted;
        }
        let entry = Entry {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(i) => {
                self.slab[i] = entry;
                i
            }
            None => {
                self.slab.push(entry);
                self.slab.len() - 1
            }
        };
        self.push_front(slot);
        self.map.insert(key, slot);
        outcome
    }
}

/// Thread-safe sharded LRU of `K → V`. `get` hands out a clone of the
/// value, so `V` should be cheap to clone (a number, an `Arc`).
pub struct ShardedLru<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    /// Entries across all shards, maintained on insert so `len` takes no
    /// lock. A statistic: it publishes no other data.
    len: AtomicUsize,
    evictions: AtomicU64,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedLru<K, V> {
    /// `capacity` total entries spread over `shards` independent LRUs
    /// (shard count is rounded up to a power of two).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        let per_shard = capacity.div_ceil(shards).max(1);
        ShardedLru {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard::new(per_shard)))
                .collect(),
            len: AtomicUsize::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &K) -> &Mutex<Shard<K, V>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) & (self.shards.len() - 1)]
    }

    /// Look up and promote to most-recently-used.
    pub fn get(&self, key: &K) -> Option<V> {
        self.shard_of(key).lock().get(key)
    }

    /// Insert or refresh; evicts the shard's LRU entry when full.
    pub fn insert(&self, key: K, value: V) {
        match self.shard_of(&key).lock().insert(key, value) {
            Inserted::Refreshed => {}
            Inserted::Added => {
                self.len.fetch_add(1, Ordering::Relaxed);
            }
            Inserted::Evicted => {
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Entries currently cached. O(1), no shard lock; may trail a
    /// concurrent insert by a moment.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime evictions across all shards.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn get_promotes_and_insert_evicts_lru() {
        // Single shard of capacity 2 makes the eviction order observable.
        let cache = ShardedLru::new(2, 1);
        cache.insert(1u64, 10.0);
        cache.insert(2, 20.0);
        assert_eq!(cache.get(&1), Some(10.0)); // 1 is now MRU
        cache.insert(3, 30.0); // evicts 2, the LRU
        assert_eq!(cache.get(&2), None);
        assert_eq!(cache.get(&1), Some(10.0));
        assert_eq!(cache.get(&3), Some(30.0));
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_value_without_eviction() {
        let cache = ShardedLru::new(2, 1);
        cache.insert(1u64, 10.0);
        cache.insert(1, 11.0);
        assert_eq!(cache.get(&1), Some(11.0));
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn len_counts_every_shard_through_fills_and_evictions() {
        // 4 shards x 2 entries: overfill, then compare the O(1) counter
        // with a walk over the keys that are still resident.
        let cache = ShardedLru::new(8, 4);
        assert!(cache.is_empty());
        for k in 0..100u64 {
            cache.insert(k, k);
            cache.insert(k, k + 1); // refresh: must not count twice
        }
        let resident = (0..100u64).filter(|k| cache.get(k).is_some()).count();
        assert_eq!(cache.len(), resident);
        assert_eq!(cache.len() as u64 + cache.evictions(), 100);
        assert!(cache.len() <= 8);
    }

    #[test]
    fn shards_stay_consistent_under_concurrency() {
        // Capacity 2048 over 8 shards = 256 per shard: even a worst-case
        // skew of the 200 distinct keys cannot overflow one shard.
        let cache = Arc::new(ShardedLru::new(2048, 8));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    for i in 0..200u64 {
                        let k = t * 1000 + i % 50;
                        cache.insert(k, i);
                        let _ = cache.get(&k);
                    }
                });
            }
        });
        // 4 threads x 50 distinct keys: nothing evicted.
        assert_eq!(cache.len(), 200);
        assert_eq!(cache.evictions(), 0);
        for t in 0..4u64 {
            for i in 0..50u64 {
                assert!(cache.get(&(t * 1000 + i)).is_some());
            }
        }
    }
}
