//! Error type shared by all IR operations.

use std::fmt;

/// Errors raised while constructing, validating or (de)serializing graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IrError {
    /// A node references an input id that does not precede it (or does not
    /// exist). The node vector must be a topological order.
    BadTopology { node: u32, input: u32 },
    /// Shape inference failed for a node.
    ShapeMismatch { node: u32, detail: String },
    /// An operator received the wrong number of inputs.
    Arity {
        node: u32,
        op: &'static str,
        expected: &'static str,
        got: usize,
    },
    /// An attribute value is invalid for the operator (e.g. zero stride).
    BadAttr { node: u32, detail: String },
    /// The graph is structurally empty or has no output.
    Empty,
    /// Binary decoding failed.
    Decode(String),
    /// A value too wide for its field in a stored record
    /// ([`crate::codec::narrow`]); `node` is `None` for fields that are
    /// not a node's.
    DoesNotFit {
        node: Option<u32>,
        field: &'static str,
        value: u64,
        width: &'static str,
    },
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::BadTopology { node, input } => {
                write!(
                    f,
                    "node {node} references input {input} that is not an earlier node"
                )
            }
            IrError::ShapeMismatch { node, detail } => {
                write!(f, "shape inference failed at node {node}: {detail}")
            }
            IrError::Arity {
                node,
                op,
                expected,
                got,
            } => {
                write!(f, "node {node} ({op}) expects {expected} inputs, got {got}")
            }
            IrError::BadAttr { node, detail } => {
                write!(f, "invalid attribute at node {node}: {detail}")
            }
            IrError::Empty => write!(f, "graph has no nodes"),
            IrError::Decode(d) => write!(f, "decode error: {d}"),
            IrError::DoesNotFit {
                node,
                field,
                value,
                width,
            } => {
                if let Some(n) = node {
                    write!(f, "node {n}: ")?;
                }
                write!(f, "{field} {value} overflows the stored {width}")
            }
        }
    }
}

impl std::error::Error for IrError {}

/// A store reader's error as I/O: `InvalidData`, worded as the codec
/// worded it, so the store's decoders keep `?`.
impl From<IrError> for std::io::Error {
    fn from(e: IrError) -> Self {
        let msg = match e {
            IrError::Decode(d) => d,
            e => e.to_string(),
        };
        std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
    }
}

/// Convenience alias used across the crate.
pub type IrResult<T> = Result<T, IrError>;
