//! # nnlqp-hash
//!
//! Graph hash encoding for fast model retrieval (paper §5.2, Eqs. 1–2).
//!
//! Each node's hash is computed from its attribute values and the *sorted*
//! hashes of its successors, walking the DAG in reverse topological order:
//!
//! ```text
//! H_v = f_hash( f_sort(A_v) ⊕ f_sort({H_u | u ∈ Suc(v)}) )      (Eq. 1)
//! H_G = f_hash( f_sort({H_u | Pre(u) = ∅}) )                    (Eq. 2)
//! ```
//!
//! The whole-graph key is a single `u64` — the paper's "graph hash key is
//! always stored with 8 bytes" — and because successor hashes are sorted,
//! two models that differ only in the insertion order of parallel branches
//! hash identically. Equal node hashes imply equal descendant sub-graphs,
//! which is what makes the database cache sound.
//!
//! Implementation notes (documented deviations):
//! * `A_v` includes the operator code, the fixed-length attribute vector and
//!   the node's output shape; the graph input shape is folded into `H_G`.
//!   Output shapes must participate: two models that differ only in input
//!   resolution have different latencies and must be distinct cache keys.
//! * `f_hash` is FNV-1a over little-endian words (see [`fnv`]).
//!
//! The crate also holds the hasher of the workspace's in-memory tables
//! ([`word`]): not a graph hash, a cheap `std::hash::Hasher` for keys that
//! already are one.

pub mod fingerprint;
pub mod fnv;
pub mod graph_hash;
pub mod word;

pub use fingerprint::graph_fingerprint;
pub use fnv::StreamHasher;
pub use graph_hash::{graph_hash, node_hashes};
pub use word::{BuildWordHasher, WordHasher};
