//! Generic sharded in-memory LRU — the one cache structure of the
//! workspace. Serve's hot cache (`CacheKey → latency`), serve's resolve
//! memo (`Arc` identity → graph hash) and the predictor's
//! [`crate::EmbedCache`] are all instances of it.
//!
//! Shards keep lock contention local: two requests for different keys
//! almost never serialize on the same mutex. Within a shard the LRU list
//! is intrusive over a slab (`Vec` of entries linked by index), so
//! promotion on hit and eviction on insert are O(1) with no per-entry
//! allocation. The slab is found through the shard's own open-addressed
//! index, keyed by the one hash the probe computed, so a probe hashes its
//! key once and allocates nothing.

use nnlqp_hash::BuildWordHasher;
use nnlqp_obs::Recover;
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

const NIL: usize = usize::MAX;
/// An unoccupied bucket of a shard's index.
const EMPTY: u32 = u32::MAX;

struct Entry<K, V> {
    key: K,
    value: V,
    /// The key's [`BuildWordHasher`] hash, computed once per probe by
    /// [`ShardedLru`] and kept so that the index never hashes again.
    hash: u64,
    prev: usize,
    next: usize,
}

enum Inserted {
    Refreshed,
    Added,
    Evicted,
}

struct Shard<K, V> {
    /// Open-addressed, linearly probed index of slab slots, addressed by
    /// the hash's low bits (the shard came from its high bits). At least
    /// twice the capacity, so a probe is short and always meets an empty
    /// bucket.
    index: Box<[u32]>,
    slab: Vec<Entry<K, V>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
}

impl<K: Eq, V: Clone> Shard<K, V> {
    fn new(capacity: usize) -> Self {
        assert!(
            capacity < EMPTY as usize,
            "a shard indexes its slots in u32"
        );
        Shard {
            index: vec![EMPTY; (2 * capacity).next_power_of_two()].into_boxed_slice(),
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    fn home(&self, hash: u64) -> usize {
        hash as usize & (self.index.len() - 1)
    }

    /// The bucket holding `key`, or the empty bucket that ends its probe.
    fn find(&self, hash: u64, key: &K) -> Result<usize, usize> {
        let mask = self.index.len() - 1;
        let mut b = self.home(hash);
        loop {
            match self.index[b] {
                EMPTY => return Err(b),
                slot => {
                    let e = &self.slab[slot as usize];
                    if e.hash == hash && e.key == *key {
                        return Ok(b);
                    }
                }
            }
            b = (b + 1) & mask;
        }
    }

    /// Empty the bucket holding slot `slot`, shifting later members of its
    /// probe run back so that every lookup still reaches its entry.
    fn unindex(&mut self, slot: usize) {
        let mask = self.index.len() - 1;
        let mut hole = self.home(self.slab[slot].hash);
        while self.index[hole] as usize != slot {
            hole = (hole + 1) & mask;
        }
        let mut b = hole;
        loop {
            b = (b + 1) & mask;
            let moved = self.index[b];
            if moved == EMPTY {
                break;
            }
            // The entry at `b` may fill the hole only if the hole lies
            // between its home bucket and `b`.
            let home = self.home(self.slab[moved as usize].hash);
            if (b.wrapping_sub(home) & mask) >= (b.wrapping_sub(hole) & mask) {
                self.index[hole] = moved;
                hole = b;
            }
        }
        self.index[hole] = EMPTY;
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

    fn get(&mut self, hash: u64, key: &K) -> Option<V> {
        let i = self.index[self.find(hash, key).ok()?] as usize;
        self.detach(i);
        self.push_front(i);
        Some(self.slab[i].value.clone())
    }

    /// [`Shard::get`] that reads the value through `read` instead of
    /// cloning it. `get` keeps its own body: routed through this closure
    /// it cost `predict-cached` 2–3 % (EXPERIMENTS.md, "What a hit pays
    /// for its bookkeeping").
    fn get_with<R>(&mut self, hash: u64, key: &K, read: impl FnOnce(&V) -> R) -> Option<R> {
        let i = self.index[self.find(hash, key).ok()?] as usize;
        self.detach(i);
        self.push_front(i);
        Some(read(&self.slab[i].value))
    }

    fn insert(&mut self, hash: u64, key: K, value: V) -> Inserted {
        let mut bucket = match self.find(hash, &key) {
            Ok(b) => {
                let i = self.index[b] as usize;
                self.slab[i].value = value;
                self.detach(i);
                self.push_front(i);
                return Inserted::Refreshed;
            }
            Err(b) => b,
        };
        let mut outcome = Inserted::Added;
        if self.len() >= self.capacity {
            let victim = self.tail;
            self.detach(victim);
            self.unindex(victim);
            self.free.push(victim);
            outcome = Inserted::Evicted;
            // The shift may have moved the run `bucket` ended.
            bucket = self.find(hash, &key).unwrap_err();
        }
        let entry = Entry {
            key,
            value,
            hash,
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
        self.index[bucket] = slot as u32;
        outcome
    }
}

/// Thread-safe sharded LRU of `K → V`. `get` hands out a clone of the
/// value, so `V` should be cheap to clone (a number, an `Arc`).
///
/// A probe hashes its key once, with [`BuildWordHasher`]: the hash's high
/// bits pick the shard, its low bits the bucket of the shard's index. The
/// hasher is unkeyed; keys crafted to collide lengthen a probe to at most
/// the shard's capacity, since a shard never holds more.
pub struct ShardedLru<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    /// Entries across all shards, maintained on insert so `len` takes no
    /// lock. A statistic: it publishes no other data.
    len: AtomicUsize,
    evictions: AtomicU64,
}

impl<K: Hash + Eq, V: Clone> ShardedLru<K, V> {
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

    /// The key's hash and its shard. The shard index is taken from the
    /// upper half, which a shard's index (sized far below 2^32) never reads.
    fn shard_of(&self, key: &K) -> (u64, &Mutex<Shard<K, V>>) {
        let hash = BuildWordHasher.hash_one(key);
        let shard = (hash >> 32) as usize & (self.shards.len() - 1);
        (hash, &self.shards[shard])
    }

    /// Look up and promote to most-recently-used.
    pub fn get(&self, key: &K) -> Option<V> {
        let (hash, shard) = self.shard_of(key);
        shard.lock().recover().get(hash, key)
    }

    /// [`ShardedLru::get`] that reads the value through `read` under the
    /// shard's lock, for a caller that needs a part of a value whose
    /// clone is not free (one holding a `Weak`, say).
    pub fn get_with<R>(&self, key: &K, read: impl FnOnce(&V) -> R) -> Option<R> {
        let (hash, shard) = self.shard_of(key);
        shard.lock().recover().get_with(hash, key, read)
    }

    /// Insert or refresh; evicts the shard's LRU entry when full.
    pub fn insert(&self, key: K, value: V) {
        let (hash, shard) = self.shard_of(&key);
        match shard.lock().recover().insert(hash, key, value) {
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

    /// Entries per shard, locking each in turn: how evenly the hasher
    /// spreads a key set (a shard evicts once it holds its share of the
    /// capacity, however empty the others are).
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.lock().recover().len())
            .collect()
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

    #[test]
    fn index_agrees_with_a_reference_lru_through_every_eviction() {
        // One shard of 16 over 40 keys: the index's probe runs collide,
        // and every eviction shifts one. The reference is a plain list,
        // most recently used first.
        let cache = ShardedLru::new(16, 1);
        let mut reference: Vec<(u64, u64)> = Vec::new();
        let mut rng = nnlqp_ir::Rng64::new(0x1A7);
        for step in 0..20_000u64 {
            let k = rng.below(40) as u64;
            let at = reference.iter().position(|&(rk, _)| rk == k);
            if rng.below(2) == 0 {
                let want = at.map(|i| reference.remove(i));
                if let Some(entry) = want {
                    reference.insert(0, entry);
                }
                assert_eq!(cache.get(&k), want.map(|(_, v)| v), "step {step}");
            } else {
                if let Some(i) = at {
                    reference.remove(i);
                }
                reference.insert(0, (k, step));
                reference.truncate(16);
                cache.insert(k, step);
            }
            assert_eq!(cache.len(), reference.len());
        }
        for k in 0..40u64 {
            let want = reference.iter().find(|&&(rk, _)| rk == k).map(|&(_, v)| v);
            assert_eq!(cache.get(&k), want, "key {k}");
        }
    }
}
