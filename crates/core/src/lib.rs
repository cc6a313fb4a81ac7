//! # sesr-core
//!
//! The core of the reproduction of *"Collapsible Linear Blocks for
//! Super-Efficient Super Resolution"* (Bhardwaj et al., MLSys 2022):
//! collapsible linear blocks, the analytic collapse algorithms, the SESR
//! model family, the efficient training methodology, and the paper's
//! theoretical gradient-update analysis.
//!
//! ## Map to the paper
//!
//! | Paper | Module |
//! |---|---|
//! | Sec. 3.1 linear blocks, Fig. 2(b) | [`block`] |
//! | Algorithm 1 (collapse linear block) | [`collapse::collapse_linear_chain`] |
//! | Algorithm 2 (collapse residual) | [`collapse::residual_weight`] |
//! | Sec. 3.1–3.2 SESR architecture, Fig. 2(a)/(d) | [`model`], [`collapsed`] |
//! | Sec. 3.3 efficient training | [`model::Sesr::forward_train`] (collapsed-space forward), [`train`] |
//! | Sec. 3.2 #params / #MACs closed forms | [`macs`] |
//! | Sec. 4 gradient updates (Eqs. 3–5) | [`theory`] |
//! | Layer IR consumed by the NPU simulator | [`ir`] |
//!
//! ## Quickstart
//!
//! ```
//! use sesr_core::model::{Sesr, SesrConfig};
//! use sesr_tensor::Tensor;
//!
//! // SESR-M3 for x2 SISR (f = 16, m = 3).
//! let model = Sesr::new(SesrConfig::m(3));
//! let collapsed = model.collapse();
//! let lr = Tensor::rand_uniform(&[1, 24, 24], 0.0, 1.0, 1);
//! let sr = collapsed.run(&lr);
//! assert_eq!(sr.shape(), &[1, 48, 48]);
//! ```

pub mod block;
pub mod checkpoint;
pub mod collapse;
pub mod collapsed;
pub mod crc32;
pub mod infer_plan;
pub mod ir;
pub mod macs;
pub mod model;
pub mod model_io;
pub mod theory;
pub mod theory_matrix;
pub mod tiling;
pub mod train;

pub use block::LinearBlock;
pub use checkpoint::{
    decode_checkpoint, encode_checkpoint, load_checkpoint, save_checkpoint, Checkpoint,
    CheckpointError,
};
pub use collapsed::CollapsedSesr;
pub use infer_plan::{CollapsedKernels, Datapath, InferPlan, LayerGraph, Plan, TilePlanner};
pub use model::{Activation, BlockKind, Sesr, SesrConfig};
pub use model_io::{decode_model, encode_model, load_model, save_model};
pub use tiling::{TileError, TilePlan, TileRect, TileSpec};
pub use train::{
    DivergenceGuard, FaultInjection, RecoveryEvent, RecoveryKind, SrNetwork, StepOutcome,
    TrainConfig, TrainError, TrainLoop, TrainReport, Trainer,
};
