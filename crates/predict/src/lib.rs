//! # nnlqp-predict
//!
//! NNLP — the neural-network latency predictor (paper §6):
//!
//! * the **unified graph embedding**: node features (one-hot operator ⊕
//!   attribute vector ⊕ output-shape encoding, Eq. 3), GraphSAGE node
//!   embeddings (Eq. 4) and the graph-level embedding with its four static
//!   features (batch, FLOPs, params, memory access, Eq. 5);
//! * the **multi-platform predictor**: a shared GNN backbone with one MLP
//!   head per platform, trained with Adam/MSE per Algorithm 1;
//! * **transfer learning** for unseen structures, unseen platforms and new
//!   tasks (§6.2, Figs. 6–8);
//! * the **baselines** of Table 3: FLOPs / FLOPs+MAC linear regression,
//!   nn-Meter (random forests over fused kernels + corrected summation),
//!   TPU (learned kernel model + corrected summation) and BRP-NAS (GCN
//!   without static features);
//! * the evaluation **metrics**: MAPE, error-bound accuracy Acc(δ)
//!   (Appendix C) and Kendall's tau for the NAS study.
//!
//! Deviation note: training minimizes MSE in `ln(1+ms)` space rather than
//! raw milliseconds. The paper's corpus spans three orders of magnitude of
//! latency; raw-MSE training lets the largest models dominate the loss,
//! and the log transform is the standard remedy (it is monotone, so MAPE /
//! Acc(δ) comparisons are unaffected in kind).

pub mod baselines;
pub mod features;
pub mod kernels;
pub mod metrics;
pub mod model;
pub mod predictor;
pub mod train;
pub mod transfer;
pub mod transformer;

pub use features::{
    extract_features, extract_kernel_features, GraphFeatures, Normalizer, NODE_FEAT_DIM, STATIC_DIM,
};
pub use metrics::{acc_at, kendall_tau, mape};
pub use model::{Head, NnlpConfig, NnlpModel};
pub use nnlqp_nn::Scratch;
pub use predictor::{predictor_from_json, Predictor, PredictorKind};
pub use train::{train, Dataset, Sample, TrainConfig, TrainReport, Trainable};
pub use transformer::{TransformerConfig, TransformerModel};
