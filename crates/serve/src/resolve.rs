//! Request resolution: `(model, batch)` → the effective graph and its
//! Merkle hash — and a memo so a repeat submitter pays for neither.
//!
//! Hashing is O(graph) (and rebatching clones the graph first), yet all a
//! hot or database hit needs is the 8-byte hash. Callers that matter —
//! NAS loops scoring one candidate on many platforms and batch sizes —
//! resubmit the *same* `Arc<Graph>`, so the hash is memoised by identity:
//! `(Arc::as_ptr(model), batch)` → `graph_hash(effective graph)`.
//!
//! # Why an address is a sound key
//!
//! Every entry holds a `Weak<Graph>` to the allocation whose address it
//! is keyed by. While any `Weak` exists:
//!
//! - the allocation is not freed, so the address cannot be handed to a
//!   different `Arc<Graph>` — a caller presenting that address presents
//!   *that* `Arc`;
//! - `Arc::get_mut` returns `None`, and `Arc::make_mut` moves the graph
//!   into a fresh allocation (a new address, a memo miss) instead of
//!   mutating in place — so the graph behind the address is the graph
//!   that was hashed.
//!
//! (`Graph` has no interior mutability; only `unsafe` code could break
//! this, and it would break `Arc`'s own contract first.) A dropped graph
//! leaves its entry pinning an empty `ArcInner` shell until the LRU
//! evicts it; the graph's nodes are freed at drop as usual.
//!
//! Only successes are memoised: `batch == 0` and graphs that cannot be
//! rebatched take the full path, and return the same error, every time.

use crate::service::ServeError;
use nnlqp::ShardedLru;
use nnlqp_ir::Graph;
use std::sync::{Arc, Weak};

/// Memo entries. A constant, not a knob: an entry is ~50 bytes and covers
/// every platform of its `(graph, batch)`, so 8192 of them (under 1 MiB
/// even with every graph dropped and its shell pinned) outlast any
/// working set the 1024-entry hot cache or the database tier can serve
/// from, with room for shard imbalance.
const MEMO_CAPACITY: usize = 8192;
const MEMO_SHARDS: usize = 8;

#[derive(Clone)]
struct Memoised {
    hash: u64,
    /// Keeps the keyed address allocated (see the module docs).
    _pin: Weak<Graph>,
}

/// Bounded identity memo of effective-graph hashes.
pub(crate) struct ResolveMemo(ShardedLru<(usize, u32), Memoised>);

impl ResolveMemo {
    pub(crate) fn new() -> Self {
        ResolveMemo(ShardedLru::new(MEMO_CAPACITY, MEMO_SHARDS))
    }

    fn key(model: &Arc<Graph>, batch: u32) -> (usize, u32) {
        (Arc::as_ptr(model) as usize, batch)
    }

    /// The hash of `model` rebatched to `batch`, if this very `Arc` was
    /// resolved at this batch before.
    pub(crate) fn get(&self, model: &Arc<Graph>, batch: u32) -> Option<u64> {
        // The hash alone: cloning the entry would touch its `Weak`'s count.
        self.0.get_with(&Self::key(model, batch), |m| m.hash)
    }

    /// Remember `hash` as the effective-graph hash of `(model, batch)`.
    pub(crate) fn insert(&self, model: &Arc<Graph>, batch: u32, hash: u64) {
        let entry = Memoised {
            hash,
            _pin: Arc::downgrade(model),
        };
        self.0.insert(Self::key(model, batch), entry);
    }
}

/// `model` at `batch`: shared as is when that is its native batch,
/// otherwise a rebatched copy.
pub(crate) fn effective_graph(model: &Arc<Graph>, batch: u32) -> Result<Arc<Graph>, ServeError> {
    if batch == 0 {
        return Err(ServeError::BadBatch("batch must be at least 1".to_string()));
    }
    if model.input_shape.batch() == batch as usize {
        Ok(Arc::clone(model))
    } else {
        model
            .rebatch(batch as usize)
            .map(Arc::new)
            .map_err(|e| ServeError::BadBatch(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnlqp_hash::graph_hash;
    use nnlqp_models::ModelFamily;

    #[test]
    fn memo_is_keyed_by_identity_and_batch() {
        let memo = ResolveMemo::new();
        let g = Arc::new(ModelFamily::SqueezeNet.canonical().unwrap());
        assert_eq!(memo.get(&g, 1), None);
        memo.insert(&g, 1, 11);
        memo.insert(&g, 8, 88);
        assert_eq!(memo.get(&g, 1), Some(11));
        assert_eq!(memo.get(&g, 8), Some(88));
        assert_eq!(memo.get(&g, 4), None);
        // A structurally equal graph behind another `Arc` is another key.
        let twin = Arc::new((*g).clone());
        assert_eq!(graph_hash(&twin), graph_hash(&g));
        assert_eq!(memo.get(&twin, 1), None);
    }

    #[test]
    fn an_entry_pins_its_address_and_forces_copy_on_write() {
        let memo = ResolveMemo::new();
        let mut g = Arc::new(ModelFamily::SqueezeNet.canonical().unwrap());
        memo.insert(&g, 1, graph_hash(&g));
        let addr = Arc::as_ptr(&g);
        // In-place mutation is refused while the entry lives ...
        assert!(Arc::get_mut(&mut g).is_none());
        // ... and copy-on-write moves the graph to a new address, so the
        // mutated graph can never be served the old hash.
        Arc::make_mut(&mut g).name.push_str("-edited");
        assert_ne!(Arc::as_ptr(&g), addr);
        assert_eq!(memo.get(&g, 1), None);
        // The old address stays allocated: fresh `Arc`s cannot land on it.
        for _ in 0..64 {
            let fresh = Arc::new(ModelFamily::SqueezeNet.canonical().unwrap());
            assert_ne!(Arc::as_ptr(&fresh), addr);
        }
    }
}
