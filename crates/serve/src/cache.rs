//! Sharded in-memory LRU hot cache in front of the evolving database.
//!
//! The database answers every repeat query, but each lookup pays a write
//! to nothing and a read under the store's `RwLock` plus (in the paper's
//! deployment) a network round trip. Hot keys — the same model queried by
//! many clients — are instead pinned in a small sharded LRU keyed by
//! `(graph_hash, platform, batch)`: the workspace's generic
//! [`nnlqp::ShardedLru`] (O(1) promote/evict, per-shard mutexes).

use std::sync::Arc;

/// Cache identity of a served latency: graph structure (by hash), target
/// platform (canonical name) and batch size.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// `nnlqp_hash::graph_hash` of the effective (rebatched) graph.
    pub graph_hash: u64,
    /// Canonical platform name (shared, not copied, across the service).
    pub platform: Arc<str>,
    /// Batch size.
    pub batch: u32,
}

/// Thread-safe sharded LRU of `CacheKey → latency_ms`.
pub type ShardedLru = nnlqp::ShardedLru<CacheKey, f64>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_platform_or_batch_is_a_distinct_key() {
        let cache = ShardedLru::new(8, 2);
        let base = CacheKey {
            graph_hash: 7,
            platform: Arc::from("gpu-T4-trt7.1-fp32"),
            batch: 1,
        };
        let other_platform = CacheKey {
            platform: Arc::from("cpu-openppl-fp32"),
            ..base.clone()
        };
        let other_batch = CacheKey {
            batch: 8,
            ..base.clone()
        };
        cache.insert(base.clone(), 1.0);
        cache.insert(other_platform.clone(), 2.0);
        cache.insert(other_batch.clone(), 3.0);
        assert_eq!(cache.get(&base), Some(1.0));
        assert_eq!(cache.get(&other_platform), Some(2.0));
        assert_eq!(cache.get(&other_batch), Some(3.0));
    }

    /// Largest shard over the mean shard, after inserting every key into
    /// an 8-shard LRU too large to evict.
    fn imbalance<K: std::hash::Hash + Eq>(keys: impl ExactSizeIterator<Item = K>) -> f64 {
        let n = keys.len();
        let lru = nnlqp::ShardedLru::new(8 * n, 8);
        for k in keys {
            lru.insert(k, ());
        }
        let lens = lru.shard_lens();
        assert_eq!(lens.iter().sum::<usize>(), n, "no key may collide or evict");
        *lens.iter().max().unwrap() as f64 / (n as f64 / 8.0)
    }

    #[test]
    fn the_hasher_spreads_served_keys_evenly_over_shards() {
        // A store-sized corpus on eight platform/batch columns (six at
        // batch 1, two at 8), and the resolve memo's (address, batch)
        // keys over the same graphs. A weak hasher would overflow one
        // 128-slot shard of the default 1024-entry cache with query-hot's
        // 512 keys and turn its hot hits into db hits. `BuildWordHasher`
        // reads 1.06× for both key sets; an xor-only hasher puts every
        // memo key of one heap region in one shard (8×).
        const COLUMNS: [(&str, u32); 8] = [
            ("gpu-T4-trt7.1-fp32", 1),
            ("gpu-T4-trt7.1-int8", 1),
            ("gpu-P4-trt7.1-fp32", 1),
            ("hi3559A-nnie11-int8", 1),
            ("cpu-openppl-fp32", 1),
            ("atlas300-acl-fp16", 1),
            ("gpu-P4-trt7.1-int8", 8),
            ("mlu270-neuware-int8", 8),
        ];
        let spec = nnlqp_models::DatasetSpec {
            per_family: 64,
            seed: 2022,
        };
        let mut seen = std::collections::HashSet::new();
        let graphs: Vec<Arc<nnlqp_ir::Graph>> = nnlqp_models::generate_dataset(&spec)
            .into_iter()
            .filter(|m| seen.insert(nnlqp_hash::graph_hash(&m.graph)))
            .take(512)
            .map(|m| Arc::new(m.graph))
            .collect();
        assert_eq!(graphs.len(), 512);
        let hashes: Vec<[u64; 2]> = graphs
            .iter()
            .map(|g| {
                let at8 = g.rebatch(8).expect("store graphs rebatch");
                [nnlqp_hash::graph_hash(g), nnlqp_hash::graph_hash(&at8)]
            })
            .collect();
        let platforms = COLUMNS.map(|(name, _)| Arc::<str>::from(name));
        let cache_keys = hashes.iter().flat_map(|h| {
            COLUMNS
                .iter()
                .zip(&platforms)
                .map(move |(&(_, batch), platform)| CacheKey {
                    graph_hash: h[usize::from(batch == 8)],
                    platform: Arc::clone(platform),
                    batch,
                })
        });
        let cache_keys: Vec<CacheKey> = cache_keys.collect();
        let memo_keys: Vec<(usize, u32)> = graphs
            .iter()
            .flat_map(|g| (1..=8).map(move |batch| (Arc::as_ptr(g) as usize, batch)))
            .collect();
        assert_eq!((cache_keys.len(), memo_keys.len()), (4096, 4096));
        for (what, ratio) in [
            ("cache keys", imbalance(cache_keys.into_iter())),
            ("memo keys", imbalance(memo_keys.into_iter())),
        ] {
            assert!(ratio <= 1.5, "{what}: largest shard {ratio:.3}× the mean");
        }
    }
}
