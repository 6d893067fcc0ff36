//! Sharded LRU cache of graph embeddings for the NNLP fast path.
//!
//! The expensive half of a prediction — feature extraction plus the full
//! GraphSAGE backbone — depends only on the effective graph, never on the
//! platform head. Serve's degrade mode, NAS-style sweeps and multi-
//! platform queries all re-predict the same graph, so the pooled
//! embedding is cached here keyed by `(graph_hash, batch, predictor
//! stamp, architecture)` and repeat predictions pay only the cheap MLP
//! head.
//!
//! The predictor stamp is part of the key: `train_predictor` /
//! `set_predictor` hot-swaps draw a fresh one, so an embedding computed
//! by a previous model can never be served — stale entries simply stop
//! being addressable and age out of the LRU. The architecture id
//! (`PredictorKind::id`) is part of the key too: a `set_predictor` swap
//! between architectures (GraphSAGE ↔ transformer) can never resolve a
//! stale cross-architecture embedding, even if stamps were ever to
//! collide.
//!
//! Storage is the workspace's generic [`ShardedLru`].

use crate::lru::ShardedLru;
use std::sync::Arc;

/// Identity of a cached embedding.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EmbedKey {
    /// `nnlqp_hash::graph_fingerprint` of the effective (rebatched) graph.
    pub graph_hash: u64,
    /// Batch size the graph was rebatched to (part of the hash already,
    /// but kept explicit so keys are self-describing in debug output).
    pub batch: u32,
    /// Predictor generation stamp that produced the embedding.
    pub version: u64,
    /// Architecture id (`PredictorKind::id`) of the producing
    /// predictor — embeddings are never interchangeable across
    /// architectures.
    pub arch: u64,
}

/// A cached embedding: the pooled graph vector (static features appended),
/// shared rather than copied between the cache and in-flight predictions.
pub type SharedEmbedding = Arc<Vec<f32>>;

/// Thread-safe sharded LRU of `EmbedKey → SharedEmbedding`. A capacity of
/// zero disables the cache entirely (every `get` misses, `insert` is a
/// no-op) — the knob the benchmark baseline uses.
pub struct EmbedCache(Option<ShardedLru<EmbedKey, SharedEmbedding>>);

impl EmbedCache {
    /// `capacity` total entries spread over `shards` independent LRUs
    /// (shard count is rounded up to a power of two). `capacity == 0`
    /// disables caching.
    pub fn new(capacity: usize, shards: usize) -> Self {
        EmbedCache((capacity > 0).then(|| ShardedLru::new(capacity, shards)))
    }

    /// Whether caching is disabled (capacity 0).
    pub fn is_disabled(&self) -> bool {
        self.0.is_none()
    }

    /// Look up and promote to most-recently-used.
    pub fn get(&self, key: &EmbedKey) -> Option<SharedEmbedding> {
        self.0.as_ref()?.get(key)
    }

    /// Insert or refresh; evicts the shard's LRU entry when full.
    pub fn insert(&self, key: EmbedKey, value: SharedEmbedding) {
        if let Some(lru) = &self.0 {
            lru.insert(key, value);
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, ShardedLru::len)
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(hash: u64, version: u64) -> EmbedKey {
        EmbedKey {
            graph_hash: hash,
            batch: 1,
            version,
            arch: 1,
        }
    }

    fn emb(v: f32) -> SharedEmbedding {
        Arc::new(vec![v; 4])
    }

    #[test]
    fn version_is_part_of_the_key() {
        let cache = EmbedCache::new(8, 2);
        cache.insert(key(7, 0), emb(1.0));
        assert!(cache.get(&key(7, 1)).is_none(), "new version must miss");
        assert!(cache.get(&key(7, 0)).is_some());
    }

    #[test]
    fn architecture_is_part_of_the_key() {
        // Regression: a `set_predictor` swap between architectures must never
        // serve a stale cross-architecture embedding, even when the
        // graph, batch and stamp all coincide.
        let cache = EmbedCache::new(8, 2);
        let sage = EmbedKey {
            graph_hash: 7,
            batch: 1,
            version: 3,
            arch: 1,
        };
        let transformer = EmbedKey {
            arch: 2,
            ..sage.clone()
        };
        cache.insert(sage.clone(), emb(1.0));
        assert!(
            cache.get(&transformer).is_none(),
            "other architecture must miss"
        );
        cache.insert(transformer.clone(), emb(2.0));
        assert_eq!(cache.get(&sage).unwrap()[0], 1.0);
        assert_eq!(cache.get(&transformer).unwrap()[0], 2.0);
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = EmbedCache::new(0, 8);
        assert!(cache.is_disabled());
        cache.insert(key(1, 0), emb(1.0));
        assert!(cache.get(&key(1, 0)).is_none());
        assert!(cache.is_empty());
    }
}
