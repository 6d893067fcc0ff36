//! Operator attributes.
//!
//! A single flat attribute record is shared by all operators; fields that do
//! not apply to an op are left at their defaults. This mirrors how the
//! paper's predictor consumes attributes: `F_v^attr` is a fixed-length
//! numeric vector regardless of operator type (Eq. 3).

/// Flat attribute record attached to every node.
#[derive(Debug, Clone, PartialEq)]
pub struct Attrs {
    /// Kernel size `[kh, kw]` (Conv, MaxPool, AveragePool).
    pub kernel: [u32; 2],
    /// Stride `[sh, sw]`.
    pub stride: [u32; 2],
    /// Symmetric padding `[ph, pw]`.
    pub pad: [u32; 2],
    /// Dilation `[dh, dw]` (Conv only).
    pub dilation: [u32; 2],
    /// Convolution groups; `groups == in_channels == out_channels` is a
    /// depthwise convolution.
    pub groups: u32,
    /// Output channels (Conv) or output features (Gemm).
    pub out_channels: u32,
    /// Concat axis (only 1, the channel axis, is produced by the builders).
    pub axis: u32,
    /// Clip lower bound.
    pub clip_min: f32,
    /// Clip upper bound.
    pub clip_max: f32,
}

impl Default for Attrs {
    fn default() -> Self {
        Attrs {
            kernel: [0, 0],
            stride: [1, 1],
            pad: [0, 0],
            dilation: [1, 1],
            groups: 1,
            out_channels: 0,
            axis: 1,
            clip_min: 0.0,
            clip_max: 6.0,
        }
    }
}

/// Length of the numeric attribute vector produced by [`Attrs::to_vec`].
pub const ATTR_VEC_LEN: usize = 12;

impl Attrs {
    /// Attributes for a convolution.
    pub fn conv(out_channels: u32, kernel: u32, stride: u32, pad: u32, groups: u32) -> Self {
        Attrs {
            kernel: [kernel, kernel],
            stride: [stride, stride],
            pad: [pad, pad],
            groups,
            out_channels,
            ..Default::default()
        }
    }

    /// Attributes for a pooling op.
    pub fn pool(kernel: u32, stride: u32, pad: u32) -> Self {
        Attrs {
            kernel: [kernel, kernel],
            stride: [stride, stride],
            pad: [pad, pad],
            ..Default::default()
        }
    }

    /// Attributes for a fully-connected layer.
    pub fn gemm(out_features: u32) -> Self {
        Attrs {
            out_channels: out_features,
            ..Default::default()
        }
    }

    /// Attributes for a Clip (ReLU6 uses `[0, 6]`).
    pub fn clip(min: f32, max: f32) -> Self {
        Attrs {
            clip_min: min,
            clip_max: max,
            ..Default::default()
        }
    }

    /// The fixed-length numeric encoding used both by the graph hash and by
    /// the node feature extractor.
    pub fn to_vec(&self) -> [f32; ATTR_VEC_LEN] {
        [
            self.kernel[0] as f32,
            self.kernel[1] as f32,
            self.stride[0] as f32,
            self.stride[1] as f32,
            self.pad[0] as f32,
            self.pad[1] as f32,
            self.dilation[0] as f32,
            self.dilation[1] as f32,
            self.groups as f32,
            self.out_channels as f32,
            self.axis as f32,
            self.clip_max - self.clip_min,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_constructor() {
        let a = Attrs::conv(64, 3, 2, 1, 1);
        assert_eq!(a.kernel, [3, 3]);
        assert_eq!(a.stride, [2, 2]);
        assert_eq!(a.pad, [1, 1]);
        assert_eq!(a.out_channels, 64);
        assert_eq!(a.groups, 1);
    }

    #[test]
    fn depthwise_groups() {
        let a = Attrs::conv(128, 3, 1, 1, 128);
        assert_eq!(a.groups, 128);
    }

    #[test]
    fn attr_vec_length_and_content() {
        let a = Attrs::conv(32, 5, 1, 2, 1);
        let v = a.to_vec();
        assert_eq!(v.len(), ATTR_VEC_LEN);
        assert_eq!(v[0], 5.0);
        assert_eq!(v[9], 32.0);
    }

    #[test]
    fn default_is_neutral() {
        let a = Attrs::default();
        assert_eq!(a.stride, [1, 1]);
        assert_eq!(a.groups, 1);
        assert_eq!(a.out_channels, 0);
    }

    #[test]
    fn clip_range_encoded() {
        let a = Attrs::clip(0.0, 6.0);
        assert_eq!(a.to_vec()[11], 6.0);
    }
}
