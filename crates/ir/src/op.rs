//! Operator taxonomy.
//!
//! The set is exactly the operators the paper's dataset exercises: every op
//! here lands in one of the 14 kernel families of Appendix D after fusion
//! (Conv, Conv+Relu, Conv+Add, Conv+Add+Relu, Conv+Clip, Sigmoid+Mul,
//! Concat, MaxPool, AveragePool, GlobalAveragePool, Gemm, Flatten,
//! ReduceMean, Relu). BatchNorm is assumed folded into the preceding
//! convolution, as deployment toolchains (TensorRT et al.) do before
//! measurement.

use std::fmt;

/// An ONNX-style operator type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum OpType {
    /// 2-D convolution (grouped / depthwise via `groups`).
    Conv = 0,
    /// Rectified linear unit.
    Relu = 1,
    /// Clip to `[min, max]` — ReLU6 in the mobile families.
    Clip = 2,
    /// Logistic sigmoid (combined with Mul it forms the Swish kernel).
    Sigmoid = 3,
    /// Element-wise multiplication (two inputs).
    Mul = 4,
    /// Element-wise addition (two inputs) — residual connections.
    Add = 5,
    /// Channel-axis concatenation (two or more inputs).
    Concat = 6,
    /// 2-D max pooling.
    MaxPool = 7,
    /// 2-D average pooling.
    AveragePool = 8,
    /// Global average pooling to 1x1.
    GlobalAveragePool = 9,
    /// Fully-connected layer (matrix multiply + bias).
    Gemm = 10,
    /// Collapse CHW into a single axis.
    Flatten = 11,
    /// Mean over spatial axes (keepdims) — squeeze-and-excite pooling.
    ReduceMean = 12,
}

/// Number of distinct operator types; the width of the one-hot block in the
/// node feature vector (Eq. 3).
pub const NUM_OP_TYPES: usize = 13;

/// All operator types in `op_code` order.
pub const ALL_OPS: [OpType; NUM_OP_TYPES] = [
    OpType::Conv,
    OpType::Relu,
    OpType::Clip,
    OpType::Sigmoid,
    OpType::Mul,
    OpType::Add,
    OpType::Concat,
    OpType::MaxPool,
    OpType::AveragePool,
    OpType::GlobalAveragePool,
    OpType::Gemm,
    OpType::Flatten,
    OpType::ReduceMean,
];

impl OpType {
    /// Dense integer code, `0..NUM_OP_TYPES`.
    #[inline]
    pub fn code(self) -> usize {
        self as usize
    }

    /// Inverse of [`OpType::code`].
    pub fn from_code(code: u8) -> Option<Self> {
        ALL_OPS.get(code as usize).copied()
    }

    /// Canonical ONNX-style name.
    pub fn name(self) -> &'static str {
        match self {
            OpType::Conv => "Conv",
            OpType::Relu => "Relu",
            OpType::Clip => "Clip",
            OpType::Sigmoid => "Sigmoid",
            OpType::Mul => "Mul",
            OpType::Add => "Add",
            OpType::Concat => "Concat",
            OpType::MaxPool => "MaxPool",
            OpType::AveragePool => "AveragePool",
            OpType::GlobalAveragePool => "GlobalAveragePool",
            OpType::Gemm => "Gemm",
            OpType::Flatten => "Flatten",
            OpType::ReduceMean => "ReduceMean",
        }
    }

    /// Parse the canonical name.
    pub fn parse(s: &str) -> Option<Self> {
        ALL_OPS.iter().copied().find(|op| op.name() == s)
    }

    /// True for ops carrying learned weights (contribute parameters).
    #[inline]
    pub fn has_weights(self) -> bool {
        matches!(self, OpType::Conv | OpType::Gemm)
    }

    /// True for element-wise ops that preserve the input shape.
    #[inline]
    pub fn is_elementwise(self) -> bool {
        matches!(
            self,
            OpType::Relu | OpType::Clip | OpType::Sigmoid | OpType::Mul | OpType::Add
        )
    }

    /// Expected input arity: `(min, max)`; `usize::MAX` means unbounded.
    pub fn arity(self) -> (usize, usize) {
        match self {
            // A parameterless-input node consumes the graph input, so the
            // minimum arity of unary ops is 0 (first node of the graph).
            OpType::Conv
            | OpType::Relu
            | OpType::Clip
            | OpType::Sigmoid
            | OpType::MaxPool
            | OpType::AveragePool
            | OpType::GlobalAveragePool
            | OpType::Gemm
            | OpType::Flatten
            | OpType::ReduceMean => (0, 1),
            OpType::Mul | OpType::Add => (2, 2),
            OpType::Concat => (2, usize::MAX),
        }
    }
}

impl fmt::Display for OpType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_dense_and_roundtrip() {
        for (i, op) in ALL_OPS.iter().enumerate() {
            assert_eq!(op.code(), i);
            assert_eq!(OpType::from_code(i as u8), Some(*op));
        }
        assert_eq!(OpType::from_code(NUM_OP_TYPES as u8), None);
    }

    #[test]
    fn names_roundtrip() {
        for op in ALL_OPS {
            assert_eq!(OpType::parse(op.name()), Some(op));
        }
        assert_eq!(OpType::parse("Softmax"), None);
    }

    #[test]
    fn weights_flags() {
        assert!(OpType::Conv.has_weights());
        assert!(OpType::Gemm.has_weights());
        assert!(!OpType::Relu.has_weights());
        assert!(!OpType::Concat.has_weights());
    }

    #[test]
    fn arity_sanity() {
        assert_eq!(OpType::Add.arity(), (2, 2));
        assert_eq!(OpType::Concat.arity().0, 2);
        assert_eq!(OpType::Conv.arity(), (0, 1));
    }

    #[test]
    fn elementwise_flags() {
        assert!(OpType::Add.is_elementwise());
        assert!(OpType::Mul.is_elementwise());
        assert!(!OpType::Conv.is_elementwise());
        assert!(!OpType::GlobalAveragePool.is_elementwise());
    }
}
