//! # nnlqp-nn
//!
//! A minimal, self-contained deep-learning framework — the substrate that
//! replaces PyTorch for the NNLP predictor (the Rust ecosystem offers no
//! GNN training stack, so it is built here from scratch):
//!
//! * dense f32 [`Matrix`] math on one register-tile GEMM micro-kernel
//!   (scalar, AVX2 and AVX-512 instantiations, see [`simd`]), plus fused
//!   GEMM+bias+activation entry points and a [`Scratch`] arena that the
//!   inference path and the training step both run out of,
//! * purely-functional layers with hand-derived backward passes
//!   ([`Linear`], [`relu_inplace`], [`Dropout`],
//!   [`l2_normalize_rows_inplace`]): they borrow the model immutably, and
//!   per-sample gradients are summed afterwards in sample order,
//! * the GraphSAGE convolution of Eq. 4 over [`Csr`] adjacency,
//! * multi-head self-attention with an adjacency-derived bias
//!   ([`AttnLayer`]), the transformer-encoder counterpart of the SAGE
//!   layer,
//! * the [`Adam`] optimizer (Kingma & Ba, 2014) keyed per tensor,
//! * classic estimators for the paper's baselines: closed-form ridge
//!   [`LinearRegression`] (FLOPs / FLOPs+MAC) and a CART-based
//!   [`RandomForest`] (nn-Meter's kernel regressor).
//!
//! Every backward pass is validated against finite differences in the unit
//! tests.

pub mod adam;
pub mod attention;
pub mod csr;
pub mod forest;
pub mod layers;
pub mod linreg;
pub mod sage;
pub mod simd;
pub mod tensor;
pub mod tree;

pub use adam::Adam;
pub use attention::{attention_bias, AttnGrad, AttnLayer, ATTN_NONEDGE_BIAS};
pub use csr::Csr;
pub use forest::{RandomForest, RandomForestConfig};
pub use layers::{
    l2_normalize_rows_backward_inplace, l2_normalize_rows_inplace, relu_backward_inplace,
    relu_inplace, Dropout, Linear, LinearGrad,
};
pub use linreg::LinearRegression;
pub use sage::{SageGrad, SageLayer};
pub use simd::{kernel, set_simd_enabled, simd_available, Kernel};
pub use tensor::{Activation, Matrix, Scratch};
pub use tree::{RegressionTree, TreeConfig};
