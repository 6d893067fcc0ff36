//! # nnlqp-ir
//!
//! Graph intermediate representation for the NNLQP reproduction.
//!
//! A deep neural network is modelled as a directed acyclic graph (DAG) of
//! operator nodes, exactly as the paper treats ONNX models: each node carries
//! an operator type, a set of numeric attributes and an inferred output
//! shape. The crate provides:
//!
//! * the operator taxonomy ([`OpType`]) restricted to the 14 kernel families
//!   the paper's fusion rules produce (Appendix D),
//! * tensor [`Shape`]s (at most [`MAX_RANK`] dims, inline and `Copy`) and
//!   [`DType`]s; a node's input list is a [`NodeIds`] (inline up to four
//!   ids), so a pass over a graph allocates nothing per node,
//! * the [`Graph`] container whose node list ([`Nodes`]) is always a valid
//!   topological order (enforced by [`GraphBuilder`] and
//!   [`validate::validate`]) and memoises a digest of itself,
//! * shape inference ([`infer`]), FLOPs / parameter / memory-access
//!   accounting ([`cost`]),
//! * compact binary serialization ([`serialize`]) used by the evolving
//!   database, and the JSON model files that stand in for ONNX,
//! * the one checked little-endian codec ([`codec`]) that graph blobs and
//!   every record of the durable store are written and read through,
//! * the JSON codec ([`json`](mod@json) and the [`json!`] macro) behind
//!   those model files, the predictor checkpoints and the reports, and
//! * a small deterministic RNG ([`rng`]) shared by the generators and the
//!   simulator so every experiment is reproducible from a seed.

pub mod attrs;
pub mod builder;
pub mod codec;
pub mod cost;
pub mod dot;
pub mod error;
pub mod graph;
pub mod infer;
pub mod json;
pub mod node;
pub mod nodes;
pub mod op;
pub mod rng;
pub mod serialize;
pub mod shape;
pub mod summary;
pub mod validate;

pub use attrs::Attrs;
pub use builder::GraphBuilder;
pub use cost::{GraphCost, NodeCost};
pub use error::{IrError, IrResult};
pub use graph::Graph;
pub use node::{Node, NodeId, NodeIds};
pub use nodes::{digests_computed, Nodes};
pub use op::OpType;
pub use rng::Rng64;
pub use shape::{DType, Shape, MAX_RANK};
