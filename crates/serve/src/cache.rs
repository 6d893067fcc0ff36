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
}
