//! Tensor shapes and data types.

use crate::error::{IrError, IrResult};
use std::fmt;

/// Numeric precision a platform executes a model in.
///
/// Mirrors Table 1 of the paper: GPUs run fp32/fp16/int8, the CPU runs fp32,
/// and the ASIC families run int16/int8 or fp16/int8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    F32,
    F16,
    I16,
    I8,
}

impl DType {
    /// Bytes per element.
    #[inline]
    pub fn bytes(self) -> usize {
        match self {
            DType::F32 => 4,
            DType::F16 | DType::I16 => 2,
            DType::I8 => 1,
        }
    }

    /// Stable short name used in platform identifiers ("fp32", "int8", ...).
    pub fn name(self) -> &'static str {
        match self {
            DType::F32 => "fp32",
            DType::F16 => "fp16",
            DType::I16 => "int16",
            DType::I8 => "int8",
        }
    }

    /// Parse the short name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "fp32" => Some(DType::F32),
            "fp16" => Some(DType::F16),
            "int16" => Some(DType::I16),
            "int8" => Some(DType::I8),
            _ => None,
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Most dimensions a [`Shape`] holds. Shape inference produces rank 4
/// (NCHW activations) and rank 2 (fully-connected outputs) and nothing else.
pub const MAX_RANK: usize = 4;

/// A tensor shape. Activations are NCHW (rank 4); fully-connected outputs
/// are rank 2 `(N, C)`.
///
/// Stored inline (no heap), so a shape is `Copy` and a graph walk never
/// allocates for one. Invariant: `dims[rank..]` is all zero, which is what
/// lets the derived `PartialEq`/`Hash` compare whole arrays.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: [usize; MAX_RANK],
    rank: u8,
}

impl Shape {
    /// Rank-4 NCHW shape.
    pub fn nchw(n: usize, c: usize, h: usize, w: usize) -> Self {
        Shape {
            dims: [n, c, h, w],
            rank: 4,
        }
    }

    /// Rank-2 `(N, C)` shape.
    pub fn nc(n: usize, c: usize) -> Self {
        Shape {
            dims: [n, c, 0, 0],
            rank: 2,
        }
    }

    /// Shape from a dimension list read from outside the program (a stored
    /// blob, a JSON file). More than [`MAX_RANK`] dimensions is a decode
    /// error: no operator accepts or produces such a tensor.
    pub fn from_dims(dims: &[usize]) -> IrResult<Self> {
        Self::check_rank(dims.len())?;
        let mut s = Shape {
            dims: [0; MAX_RANK],
            rank: dims.len() as u8,
        };
        s.dims[..dims.len()].copy_from_slice(dims);
        Ok(s)
    }

    /// The error [`Shape::from_dims`] gives for a rank it cannot hold, for a
    /// decoder that reads the rank before the dimensions.
    pub(crate) fn check_rank(rank: usize) -> IrResult<()> {
        if rank > MAX_RANK {
            return Err(IrError::Decode(format!(
                "shape rank {rank} exceeds the supported maximum {MAX_RANK}"
            )));
        }
        Ok(())
    }

    /// The dimensions, outermost first.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims[..self.rank as usize]
    }

    /// Number of dimensions.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank as usize
    }

    /// Total number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.dims().iter().product()
    }

    /// Batch dimension (first axis); 1 for rank-0 shapes.
    #[inline]
    pub fn batch(&self) -> usize {
        self.dims().first().copied().unwrap_or(1)
    }

    /// Channel dimension (second axis); 1 if absent.
    #[inline]
    pub fn channels(&self) -> usize {
        self.dims().get(1).copied().unwrap_or(1)
    }

    /// Spatial height; 1 for rank-2 shapes.
    #[inline]
    pub fn height(&self) -> usize {
        self.dims().get(2).copied().unwrap_or(1)
    }

    /// Spatial width; 1 for rank-2 shapes.
    #[inline]
    pub fn width(&self) -> usize {
        self.dims().get(3).copied().unwrap_or(1)
    }

    /// Bytes occupied at a given precision.
    #[inline]
    pub fn bytes(&self, dt: DType) -> usize {
        self.numel() * dt.bytes()
    }

    /// A copy with the batch dimension replaced.
    pub fn with_batch(&self, n: usize) -> Shape {
        let mut s = *self;
        if s.rank > 0 {
            s.dims[0] = n;
        }
        s
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Shape").field(&self.dims()).finish()
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.dims().iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_bytes() {
        assert_eq!(DType::F32.bytes(), 4);
        assert_eq!(DType::F16.bytes(), 2);
        assert_eq!(DType::I16.bytes(), 2);
        assert_eq!(DType::I8.bytes(), 1);
    }

    #[test]
    fn dtype_roundtrip_names() {
        for dt in [DType::F32, DType::F16, DType::I16, DType::I8] {
            assert_eq!(DType::parse(dt.name()), Some(dt));
        }
        assert_eq!(DType::parse("bf16"), None);
    }

    #[test]
    fn shape_accessors() {
        let s = Shape::nchw(2, 64, 56, 56);
        assert_eq!(s.rank(), 4);
        assert_eq!(s.batch(), 2);
        assert_eq!(s.channels(), 64);
        assert_eq!(s.height(), 56);
        assert_eq!(s.width(), 56);
        assert_eq!(s.numel(), 2 * 64 * 56 * 56);
        assert_eq!(s.bytes(DType::F16), s.numel() * 2);
    }

    #[test]
    fn shape_nc() {
        let s = Shape::nc(8, 1000);
        assert_eq!(s.rank(), 2);
        assert_eq!(s.numel(), 8000);
        assert_eq!(s.height(), 1);
        assert_eq!(s.width(), 1);
    }

    #[test]
    fn with_batch_replaces_first_dim() {
        let s = Shape::nchw(1, 3, 224, 224).with_batch(16);
        assert_eq!(s.batch(), 16);
        assert_eq!(s.channels(), 3);
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::nchw(1, 3, 224, 224).to_string(), "(1x3x224x224)");
        assert_eq!(format!("{:?}", Shape::nc(8, 10)), "Shape([8, 10])");
    }

    #[test]
    fn from_dims_accepts_up_to_four_and_names_a_larger_rank() {
        assert_eq!(
            Shape::from_dims(&[2, 3, 4, 5]).unwrap(),
            Shape::nchw(2, 3, 4, 5)
        );
        assert_eq!(Shape::from_dims(&[2, 3]).unwrap(), Shape::nc(2, 3));
        let scalar = Shape::from_dims(&[]).unwrap();
        assert_eq!((scalar.rank(), scalar.numel(), scalar.batch()), (0, 1, 1));
        match Shape::from_dims(&[1; 5]) {
            Err(IrError::Decode(d)) => assert!(d.contains("rank 5"), "{d}"),
            other => panic!("expected a decode error, got {other:?}"),
        }
    }

    #[test]
    fn equal_dims_of_different_rank_are_different_shapes() {
        // (2, 3) against (2, 3, 0, 0): the same storage, told apart by rank.
        assert_ne!(Shape::nc(2, 3), Shape::nchw(2, 3, 0, 0));
        assert_eq!(Shape::nc(2, 3).with_batch(2), Shape::nc(2, 3));
    }
}
