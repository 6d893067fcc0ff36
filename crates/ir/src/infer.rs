//! Shape inference for every operator.

use crate::attrs::Attrs;
use crate::error::{IrError, IrResult};
use crate::node::NodeId;
use crate::op::OpType;
use crate::shape::Shape;

/// Spatial output size of a convolution/pooling window.
#[inline]
fn conv_out(dim: usize, kernel: u32, stride: u32, pad: u32, dilation: u32) -> IrResult<usize> {
    let eff_k = (dilation as usize) * (kernel as usize).saturating_sub(1) + 1;
    let padded = dim + 2 * pad as usize;
    if kernel == 0 || stride == 0 || padded < eff_k {
        return Err(IrError::Decode(format!(
            "window does not fit: dim={dim} k={kernel} s={stride} p={pad} d={dilation}"
        )));
    }
    Ok((padded - eff_k) / stride as usize + 1)
}

/// Infer the output shape of a node.
///
/// `node` is used only for error messages. `inputs` are the node's
/// predecessors and `shape_of` yields the output shape of one of them (the
/// caller has checked the ids are in range); a node with no predecessors
/// consumes `graph_input`. Taking the ids and a lookup, not a slice of
/// shapes, lets every caller walk a graph without collecting anything.
pub fn infer_shape(
    node: u32,
    op: OpType,
    attrs: &Attrs,
    inputs: &[NodeId],
    shape_of: impl Fn(NodeId) -> Shape,
    graph_input: &Shape,
) -> IrResult<Shape> {
    let err = |detail: String| IrError::ShapeMismatch { node, detail };
    let arity_err = |expected: &'static str, got: usize| IrError::Arity {
        node,
        op: op.name(),
        expected,
        got,
    };

    // The effective input list: the predecessors, or the graph input alone.
    let n_in = inputs.len().max(1);
    let input = |k: usize| {
        if inputs.is_empty() {
            *graph_input
        } else {
            shape_of(inputs[k])
        }
    };

    match op {
        OpType::Conv => {
            if n_in != 1 {
                return Err(arity_err("1", n_in));
            }
            let s = input(0);
            if s.rank() != 4 {
                return Err(err(format!("Conv needs rank-4 input, got {s}")));
            }
            if attrs.groups == 0 || attrs.out_channels == 0 {
                return Err(IrError::BadAttr {
                    node,
                    detail: "Conv needs groups >= 1 and out_channels >= 1".into(),
                });
            }
            if !s.channels().is_multiple_of(attrs.groups as usize)
                || !(attrs.out_channels as usize).is_multiple_of(attrs.groups as usize)
            {
                return Err(err(format!(
                    "channels {} / out {} not divisible by groups {}",
                    s.channels(),
                    attrs.out_channels,
                    attrs.groups
                )));
            }
            let h = conv_out(
                s.height(),
                attrs.kernel[0],
                attrs.stride[0],
                attrs.pad[0],
                attrs.dilation[0],
            )
            .map_err(|_| err(format!("conv window H does not fit: in {s}")))?;
            let w = conv_out(
                s.width(),
                attrs.kernel[1],
                attrs.stride[1],
                attrs.pad[1],
                attrs.dilation[1],
            )
            .map_err(|_| err(format!("conv window W does not fit: in {s}")))?;
            Ok(Shape::nchw(s.batch(), attrs.out_channels as usize, h, w))
        }
        OpType::MaxPool | OpType::AveragePool => {
            if n_in != 1 {
                return Err(arity_err("1", n_in));
            }
            let s = input(0);
            if s.rank() != 4 {
                return Err(err(format!("pool needs rank-4 input, got {s}")));
            }
            let h = conv_out(
                s.height(),
                attrs.kernel[0],
                attrs.stride[0],
                attrs.pad[0],
                1,
            )
            .map_err(|_| err(format!("pool window H does not fit: in {s}")))?;
            let w = conv_out(s.width(), attrs.kernel[1], attrs.stride[1], attrs.pad[1], 1)
                .map_err(|_| err(format!("pool window W does not fit: in {s}")))?;
            Ok(Shape::nchw(s.batch(), s.channels(), h, w))
        }
        OpType::GlobalAveragePool | OpType::ReduceMean => {
            if n_in != 1 {
                return Err(arity_err("1", n_in));
            }
            let s = input(0);
            if s.rank() != 4 {
                return Err(err(format!("global pool needs rank-4 input, got {s}")));
            }
            Ok(Shape::nchw(s.batch(), s.channels(), 1, 1))
        }
        OpType::Relu | OpType::Clip | OpType::Sigmoid => {
            if n_in != 1 {
                return Err(arity_err("1", n_in));
            }
            Ok(input(0))
        }
        OpType::Add | OpType::Mul => {
            if n_in != 2 {
                return Err(arity_err("2", n_in));
            }
            // Allow NCHW x NC11 broadcast (squeeze-excite scaling).
            let (a, b) = (input(0), input(1));
            if a == b {
                return Ok(a);
            }
            let broadcast = |big: &Shape, small: &Shape| {
                big.rank() == 4
                    && small.rank() == 4
                    && big.batch() == small.batch()
                    && big.channels() == small.channels()
                    && small.height() == 1
                    && small.width() == 1
            };
            if broadcast(&a, &b) {
                Ok(a)
            } else if broadcast(&b, &a) {
                Ok(b)
            } else {
                Err(err(format!("binary op shapes differ: {a} vs {b}")))
            }
        }
        OpType::Concat => {
            if n_in < 2 {
                return Err(arity_err("2+", n_in));
            }
            if attrs.axis != 1 {
                return Err(IrError::BadAttr {
                    node,
                    detail: format!(
                        "only channel-axis concat supported, got axis {}",
                        attrs.axis
                    ),
                });
            }
            let first = input(0);
            if first.rank() != 4 {
                return Err(err(format!("concat needs rank-4 inputs, got {first}")));
            }
            let mut c = 0usize;
            for s in (0..n_in).map(&input) {
                if s.rank() != 4
                    || s.batch() != first.batch()
                    || s.height() != first.height()
                    || s.width() != first.width()
                {
                    return Err(err(format!("concat input mismatch: {first} vs {s}")));
                }
                c += s.channels();
            }
            Ok(Shape::nchw(first.batch(), c, first.height(), first.width()))
        }
        OpType::Gemm => {
            if n_in != 1 {
                return Err(arity_err("1", n_in));
            }
            let s = input(0);
            if attrs.out_channels == 0 {
                return Err(IrError::BadAttr {
                    node,
                    detail: "Gemm needs out_channels >= 1".into(),
                });
            }
            match s.rank() {
                2 => Ok(Shape::nc(s.batch(), attrs.out_channels as usize)),
                // Allow NCHW input with H=W=1 (after a global pool).
                4 if s.height() == 1 && s.width() == 1 => {
                    Ok(Shape::nc(s.batch(), attrs.out_channels as usize))
                }
                _ => Err(err(format!("Gemm needs rank-2 or NC11 input, got {s}"))),
            }
        }
        OpType::Flatten => {
            if n_in != 1 {
                return Err(arity_err("1", n_in));
            }
            let s = input(0);
            let per_batch = s.numel() / s.batch().max(1);
            Ok(Shape::nc(s.batch(), per_batch))
        }
    }
}

/// Input features a Gemm weight matrix spans, given the producing shape.
pub fn gemm_in_features(input: &Shape) -> usize {
    match input.rank() {
        2 => input.channels(),
        _ => input.numel() / input.batch().max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Infer over literal input shapes: input `k` is "node" `k`.
    fn infer(op: OpType, attrs: &Attrs, ins: &[&Shape]) -> IrResult<Shape> {
        let ids: Vec<NodeId> = (0..ins.len() as u32).map(NodeId).collect();
        infer_shape(
            0,
            op,
            attrs,
            &ids,
            |id| *ins[id.index()],
            &Shape::nchw(1, 3, 224, 224),
        )
    }

    #[test]
    fn conv_same_padding() {
        let a = Attrs::conv(64, 3, 1, 1, 1);
        let s = Shape::nchw(1, 3, 224, 224);
        assert_eq!(
            infer(OpType::Conv, &a, &[&s]).unwrap(),
            Shape::nchw(1, 64, 224, 224)
        );
    }

    #[test]
    fn conv_stride2_halves() {
        let a = Attrs::conv(32, 3, 2, 1, 1);
        let s = Shape::nchw(1, 16, 56, 56);
        assert_eq!(
            infer(OpType::Conv, &a, &[&s]).unwrap(),
            Shape::nchw(1, 32, 28, 28)
        );
    }

    #[test]
    fn conv_7x7_s2_p3_imagenet_stem() {
        let a = Attrs::conv(64, 7, 2, 3, 1);
        let s = Shape::nchw(1, 3, 224, 224);
        assert_eq!(
            infer(OpType::Conv, &a, &[&s]).unwrap(),
            Shape::nchw(1, 64, 112, 112)
        );
    }

    #[test]
    fn dilated_conv_shrinks_more() {
        // Dilation 2 on a 3x3 kernel: effective window 5.
        let a = Attrs {
            dilation: [2, 2],
            ..Attrs::conv(8, 3, 1, 0, 1)
        };
        let s = Shape::nchw(1, 4, 16, 16);
        assert_eq!(
            infer(OpType::Conv, &a, &[&s]).unwrap(),
            Shape::nchw(1, 8, 12, 12)
        );
    }

    #[test]
    fn conv_group_mismatch_rejected() {
        let a = Attrs::conv(64, 3, 1, 1, 5);
        let s = Shape::nchw(1, 16, 8, 8);
        assert!(infer(OpType::Conv, &a, &[&s]).is_err());
    }

    #[test]
    fn conv_window_too_large_rejected() {
        let a = Attrs::conv(8, 11, 1, 0, 1);
        let s = Shape::nchw(1, 3, 4, 4);
        assert!(infer(OpType::Conv, &a, &[&s]).is_err());
        // A zero-sized window is refused too, not an underflow.
        assert!(infer(OpType::Conv, &Attrs::conv(8, 0, 1, 0, 1), &[&s]).is_err());
    }

    #[test]
    fn maxpool_imagenet_stem() {
        let a = Attrs::pool(3, 2, 1);
        let s = Shape::nchw(1, 64, 112, 112);
        assert_eq!(
            infer(OpType::MaxPool, &a, &[&s]).unwrap(),
            Shape::nchw(1, 64, 56, 56)
        );
    }

    #[test]
    fn global_pool_to_1x1() {
        let s = Shape::nchw(2, 512, 7, 7);
        assert_eq!(
            infer(OpType::GlobalAveragePool, &Attrs::default(), &[&s]).unwrap(),
            Shape::nchw(2, 512, 1, 1)
        );
    }

    #[test]
    fn elementwise_preserves_shape() {
        let s = Shape::nchw(1, 32, 14, 14);
        assert_eq!(infer(OpType::Relu, &Attrs::default(), &[&s]).unwrap(), s);
        assert_eq!(infer(OpType::Sigmoid, &Attrs::default(), &[&s]).unwrap(), s);
    }

    #[test]
    fn add_requires_matching_shapes() {
        let a = Shape::nchw(1, 32, 14, 14);
        let b = Shape::nchw(1, 32, 7, 7);
        assert!(infer(OpType::Add, &Attrs::default(), &[&a, &b]).is_err());
        assert_eq!(infer(OpType::Add, &Attrs::default(), &[&a, &a]).unwrap(), a);
    }

    #[test]
    fn mul_broadcast_se_scaling() {
        let act = Shape::nchw(1, 128, 28, 28);
        let gate = Shape::nchw(1, 128, 1, 1);
        assert_eq!(
            infer(OpType::Mul, &Attrs::default(), &[&act, &gate]).unwrap(),
            act
        );
        assert_eq!(
            infer(OpType::Mul, &Attrs::default(), &[&gate, &act]).unwrap(),
            act
        );
    }

    #[test]
    fn concat_sums_channels() {
        let a = Shape::nchw(1, 64, 28, 28);
        let b = Shape::nchw(1, 32, 28, 28);
        let c = Shape::nchw(1, 16, 28, 28);
        assert_eq!(
            infer(OpType::Concat, &Attrs::default(), &[&a, &b, &c]).unwrap(),
            Shape::nchw(1, 112, 28, 28)
        );
    }

    #[test]
    fn concat_spatial_mismatch_rejected() {
        let a = Shape::nchw(1, 64, 28, 28);
        let b = Shape::nchw(1, 32, 14, 14);
        assert!(infer(OpType::Concat, &Attrs::default(), &[&a, &b]).is_err());
    }

    #[test]
    fn gemm_from_flatten_and_nc11() {
        let a = Attrs::gemm(1000);
        assert_eq!(
            infer(OpType::Gemm, &a, &[&Shape::nc(4, 512)]).unwrap(),
            Shape::nc(4, 1000)
        );
        assert_eq!(
            infer(OpType::Gemm, &a, &[&Shape::nchw(4, 512, 1, 1)]).unwrap(),
            Shape::nc(4, 1000)
        );
        assert!(infer(OpType::Gemm, &a, &[&Shape::nchw(4, 512, 7, 7)]).is_err());
    }

    #[test]
    fn flatten_collapses() {
        assert_eq!(
            infer(
                OpType::Flatten,
                &Attrs::default(),
                &[&Shape::nchw(2, 256, 6, 6)]
            )
            .unwrap(),
            Shape::nc(2, 256 * 36)
        );
    }

    #[test]
    fn empty_inputs_consume_graph_input() {
        let a = Attrs::conv(16, 3, 1, 1, 1);
        let no_node = |_| unreachable!("no predecessors to look up");
        let out = infer_shape(
            0,
            OpType::Conv,
            &a,
            &[],
            no_node,
            &Shape::nchw(1, 3, 32, 32),
        )
        .unwrap();
        assert_eq!(out, Shape::nchw(1, 16, 32, 32));
    }

    #[test]
    fn gemm_in_features_helper() {
        assert_eq!(gemm_in_features(&Shape::nc(1, 512)), 512);
        assert_eq!(gemm_in_features(&Shape::nchw(1, 256, 6, 6)), 256 * 36);
    }
}
