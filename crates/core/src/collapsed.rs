//! The inference-time SESR network (paper Fig. 2(d)).
//!
//! After collapse, SESR is a VGG-like stack of `m + 2` narrow convolutions
//! with two long residuals and a final depth-to-space — no linear blocks,
//! no short skips, no extra feature-map traffic. This module executes that
//! network with plain tensor ops (no tape), which is what a deployment
//! runtime would ship.

use crate::infer_plan::{CollapsedKernels, InferPlan};
use crate::tiling::{run_tiles, TileError, TilePlan};
use serde::{Deserialize, Serialize};
use sesr_tensor::activations::{prelu_inplace, relu_inplace};
use sesr_tensor::conv::Conv2dParams;
use sesr_tensor::pixel_shuffle::depth_to_space;
use sesr_tensor::winograd::conv2d_auto;
use sesr_tensor::Tensor;
use std::sync::Arc;

/// Activation attached to a collapsed layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Act {
    /// Parametric ReLU with stored per-channel slopes.
    PRelu(Tensor),
    /// Plain ReLU.
    Relu,
}

/// One collapsed convolution layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollapsedLayer {
    /// OIHW weight of the single narrow convolution.
    pub weight: Tensor,
    /// Per-output-channel bias.
    pub bias: Tensor,
    /// Optional activation applied after the convolution.
    pub act: Option<Act>,
}

impl CollapsedLayer {
    fn apply(&self, x: &Tensor) -> Tensor {
        // Winograd F(2x2, 3x3) for the 3x3 layers (6x+ faster than the
        // GEMM lowering on SESR's shapes), GEMM for everything else.
        let mut y = conv2d_auto(x, &self.weight, Some(&self.bias), Conv2dParams::same());
        match &self.act {
            Some(Act::PRelu(alpha)) => prelu_inplace(&mut y, alpha),
            Some(Act::Relu) => relu_inplace(&mut y),
            None => {}
        }
        y
    }
}

/// The collapsed, deployment-ready SESR network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollapsedSesr {
    layers: Vec<CollapsedLayer>,
    scale: usize,
    feature_residual: bool,
    input_residual: bool,
}

impl CollapsedSesr {
    /// Assembles a collapsed network. `layers` must contain the first 5x5
    /// stage, the intermediate stages, and the head, in execution order.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two layers are supplied or the scale is not 2
    /// or 4.
    pub fn new(
        layers: Vec<CollapsedLayer>,
        scale: usize,
        feature_residual: bool,
        input_residual: bool,
    ) -> Self {
        assert!(layers.len() >= 2, "need at least first and last stages");
        assert!(scale == 2 || scale == 4, "scale must be 2 or 4");
        Self {
            layers,
            scale,
            feature_residual,
            input_residual,
        }
    }

    /// The collapsed layers.
    pub fn layers(&self) -> &[CollapsedLayer] {
        &self.layers
    }

    /// The upscaling factor.
    pub fn scale(&self) -> usize {
        self.scale
    }

    /// Whether the input-to-output residual is present (absent in the
    /// hardware-efficient variant).
    pub fn has_input_residual(&self) -> bool {
        self.input_residual
    }

    /// Whether the long feature residual (first stage output added before
    /// the head) is present.
    pub fn has_feature_residual(&self) -> bool {
        self.feature_residual
    }

    /// The layer-level IR for an `h x w` input, read from this network's
    /// own layer shapes and residual flags (what `sesr simulate` prices).
    pub fn ir(&self, h: usize, w: usize) -> crate::ir::NetworkIr {
        let convs: Vec<crate::ir::ChainConv> = self
            .layers
            .iter()
            .map(|l| {
                let s = l.weight.shape();
                (s[1], s[0], s[2], s[3])
            })
            .collect();
        crate::ir::sesr_chain_ir(
            &convs,
            self.scale,
            self.feature_residual,
            self.input_residual,
            h,
            w,
        )
    }

    /// Total parameter count of the collapsed network, weights plus biases
    /// and PReLU slopes.
    pub fn num_params(&self) -> usize {
        self.layers
            .iter()
            .map(|l| {
                l.weight.len()
                    + l.bias.len()
                    + match &l.act {
                        Some(Act::PRelu(a)) => a.len(),
                        _ => 0,
                    }
            })
            .sum()
    }

    /// Weight-only parameter count — the paper's closed-form `P`
    /// (Sec. 3.2) counts convolution weights only.
    pub fn num_weight_params(&self) -> usize {
        self.layers.iter().map(|l| l.weight.len()).sum()
    }

    /// Super-resolves a batch `[N, 1, h, w]` → `[N, 1, h*scale, w*scale]`
    /// through a compiled [`InferPlan`]: one plan and one buffer arena are
    /// built for the batch shape and reused across all `N` images.
    /// Bit-identical to [`CollapsedSesr::run_batch_reference`].
    ///
    /// Callers with a plan cache (e.g. the serving engine) should run
    /// their cached [`InferPlan`] directly to also skip the plan build.
    ///
    /// # Panics
    ///
    /// Panics if the input is not single-channel NCHW.
    pub fn run_batch(&self, input: &Tensor) -> Tensor {
        let (_, c, h, w) = input.shape_obj().as_nchw();
        assert_eq!(c, 1, "SESR operates on the Y channel (1 input channel)");
        let mut plan = InferPlan::new(Arc::new(CollapsedKernels::new(self)), h, w);
        plan.run_batch(input)
    }

    /// Super-resolves a single `[1, h, w]` luma image.
    ///
    /// # Panics
    ///
    /// Panics if the input is not a single-channel `[1, h, w]` tensor.
    pub fn run(&self, lr: &Tensor) -> Tensor {
        let dims = lr.shape();
        assert_eq!(dims.len(), 3, "expected [1, H, W]");
        assert_eq!(dims[0], 1, "expected a luma image");
        let batched = lr.reshape(&[1, 1, dims[1], dims[2]]);
        let out = self.run_batch(&batched);
        out.reshape(&[1, dims[1] * self.scale, dims[2] * self.scale])
    }

    /// The original unfused, allocating execution path: layer-by-layer
    /// tensor ops, separate activation passes, separate residual adds, and
    /// standalone depth-to-space. Kept as the reference the planner is
    /// proven bit-identical against (and as a fallback executor).
    ///
    /// # Panics
    ///
    /// Panics if the input is not single-channel NCHW.
    pub fn run_batch_reference(&self, input: &Tensor) -> Tensor {
        let (n, c, h, w) = input.shape_obj().as_nchw();
        assert_eq!(c, 1, "SESR operates on the Y channel (1 input channel)");
        let mut x = self.layers[0].apply(input);
        let first = x.clone();
        for layer in &self.layers[1..self.layers.len() - 1] {
            x = layer.apply(&x);
        }
        if self.feature_residual {
            x = x.add(&first);
        }
        x = self.layers[self.layers.len() - 1].apply(&x);
        if self.input_residual {
            x = sesr_autograd::tape::add_broadcast_channel_forward(&x, input);
        }
        x = depth_to_space(&x, 2);
        if self.scale == 4 {
            x = depth_to_space(&x, 2);
        }
        debug_assert_eq!(x.shape(), &[n, 1, h * self.scale, w * self.scale]);
        x
    }

    /// Single-image [`CollapsedSesr::run_batch_reference`].
    ///
    /// # Panics
    ///
    /// Panics if the input is not a single-channel `[1, h, w]` tensor.
    pub fn run_reference(&self, lr: &Tensor) -> Tensor {
        let dims = lr.shape();
        assert_eq!(dims.len(), 3, "expected [1, H, W]");
        assert_eq!(dims[0], 1, "expected a luma image");
        let batched = lr.reshape(&[1, 1, dims[1], dims[2]]);
        let out = self.run_batch_reference(&batched);
        out.reshape(&[1, dims[1] * self.scale, dims[2] * self.scale])
    }

    /// Receptive-field radius of the collapsed network in LR pixels: the
    /// sum of each layer's kernel half-width. An output pixel depends only
    /// on LR pixels within this radius, which is exactly the halo a tiled
    /// run needs for seam-exact output.
    pub fn receptive_field_radius(&self) -> usize {
        self.layers
            .iter()
            .map(|l| {
                let s = l.weight.shape();
                s[2].max(s[3]).saturating_sub(1) / 2
            })
            .sum()
    }

    /// Builds a [`TilePlan`] for an `h x w` LR image, enforcing that the
    /// halo covers this network's receptive field.
    ///
    /// # Errors
    ///
    /// [`TileError::ZeroTile`] for a zero tile side;
    /// [`TileError::OverlapTooSmall`] when `overlap` is below
    /// [`CollapsedSesr::receptive_field_radius`] (which would produce
    /// silent seams).
    pub fn plan_tiles(
        &self,
        h: usize,
        w: usize,
        tile: usize,
        overlap: usize,
    ) -> Result<TilePlan, TileError> {
        let required = self.receptive_field_radius();
        if overlap < required {
            return Err(TileError::OverlapTooSmall {
                required,
                got: overlap,
            });
        }
        TilePlan::new(h, w, tile, overlap)
    }

    /// Super-resolves a large image tile by tile (the paper's DRAM
    /// optimization, Sec. 5.6): plans the tiles and runs them through
    /// [`run_tiles`] (fanned across the intra-op thread pool), each
    /// writing its interior into the output. `tile` is the LR tile side
    /// length; tiles at the right/bottom edges may be smaller. `overlap`
    /// LR pixels of halo are read around every tile and only its interior
    /// is written; with the plan's receptive-field and alignment
    /// guarantees the result is bit-identical to [`CollapsedSesr::run`]
    /// at any thread count.
    ///
    /// # Errors
    ///
    /// See [`CollapsedSesr::plan_tiles`].
    ///
    /// # Panics
    ///
    /// Panics if the input is not a `[1, H, W]` tensor.
    pub fn run_tiled(&self, lr: &Tensor, tile: usize, overlap: usize) -> Result<Tensor, TileError> {
        let dims = lr.shape();
        assert_eq!(dims.len(), 3, "expected [1, H, W]");
        let plan = self.plan_tiles(dims[1], dims[2], tile, overlap)?;
        let kernels = Arc::new(CollapsedKernels::new(self));
        Ok(run_tiles(&kernels, lr, &plan))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Sesr, SesrConfig};

    fn tiny_collapsed() -> CollapsedSesr {
        Sesr::new(SesrConfig::m(2).with_expanded(8).with_seed(3)).collapse()
    }

    #[test]
    fn run_shapes() {
        let net = tiny_collapsed();
        let lr = Tensor::rand_uniform(&[1, 9, 13], 0.0, 1.0, 1);
        let sr = net.run(&lr);
        assert_eq!(sr.shape(), &[1, 18, 26]);
    }

    #[test]
    fn batch_and_single_agree() {
        let net = tiny_collapsed();
        let lr = Tensor::rand_uniform(&[1, 8, 8], 0.0, 1.0, 2);
        let single = net.run(&lr);
        let batched = net.run_batch(&lr.reshape(&[1, 1, 8, 8]));
        assert!(single.approx_eq(&batched.reshape(&[1, 16, 16]), 1e-6));
    }

    #[test]
    fn weight_param_count_matches_closed_form() {
        // P = 25f + m * 9f^2 + 100f for x2 (paper Sec. 3.2).
        let f = 16;
        for m in [3usize, 5, 7, 11] {
            let net = Sesr::new(SesrConfig::m(m).with_expanded(8)).collapse();
            let expected = 25 * f + m * 9 * f * f + 100 * f;
            assert_eq!(net.num_weight_params(), expected, "m={m}");
        }
    }

    #[test]
    fn receptive_field_radius_matches_kernel_stack() {
        // SESR-M2 collapsed: 5x5 + 2x 3x3 + 5x5 -> 2 + 1 + 1 + 2 = 6.
        assert_eq!(tiny_collapsed().receptive_field_radius(), 6);
    }

    #[test]
    fn tiled_is_bit_identical_with_sufficient_overlap() {
        let net = tiny_collapsed();
        let lr = sesr_data::synth::generate(sesr_data::Family::Mixed, 24, 24, 5);
        let whole = net.run(&lr);
        let tiled = net.run_tiled(&lr, 12, 8).unwrap();
        assert_eq!(
            whole.max_abs_diff(&tiled),
            0.0,
            "tiled output must be bit-exact"
        );
    }

    #[test]
    fn overlap_below_receptive_field_is_a_typed_error() {
        let net = tiny_collapsed();
        let lr = sesr_data::synth::generate(sesr_data::Family::Urban, 24, 24, 6);
        let err = net.run_tiled(&lr, 12, 0).unwrap_err();
        assert_eq!(
            err,
            crate::tiling::TileError::OverlapTooSmall {
                required: 6,
                got: 0
            }
        );
        let err = net.run_tiled(&lr, 12, 5).unwrap_err();
        assert_eq!(
            err,
            crate::tiling::TileError::OverlapTooSmall {
                required: 6,
                got: 5
            }
        );
        assert_eq!(
            net.run_tiled(&lr, 0, 8).unwrap_err(),
            crate::tiling::TileError::ZeroTile
        );
    }

    #[test]
    fn uneven_tiles_cover_whole_image() {
        let net = tiny_collapsed();
        let lr = Tensor::rand_uniform(&[1, 17, 23], 0.0, 1.0, 7);
        let tiled = net.run_tiled(&lr, 10, 6).unwrap();
        assert_eq!(tiled.shape(), &[1, 34, 46]);
        let whole = net.run(&lr);
        assert_eq!(whole.max_abs_diff(&tiled), 0.0);
    }

    #[test]
    fn parallel_tiled_is_bit_identical_across_configs() {
        // Three distinct collapsed architectures: the default PReLU x2, the
        // hardware-efficient ReLU variant (no input residual), and an x4
        // head — the tile fan-out must be bit-exact on all of them.
        let configs = [
            SesrConfig::m(2).with_expanded(8).with_seed(3),
            SesrConfig::m(3)
                .with_expanded(8)
                .with_seed(4)
                .hardware_efficient(),
            SesrConfig::m(2).with_expanded(8).with_seed(5).with_scale(4),
        ];
        for (i, cfg) in configs.iter().enumerate() {
            let net = Sesr::new(*cfg).collapse();
            let lr = Tensor::rand_uniform(&[1, 21, 27], 0.0, 1.0, 40 + i as u64);
            let whole = net.run(&lr);
            let overlap = net.receptive_field_radius() + (i % 2);
            let tiled = net.run_tiled(&lr, 9, overlap).unwrap();
            assert_eq!(
                whole.max_abs_diff(&tiled),
                0.0,
                "config {i}: tiled output must be bit-exact"
            );
        }
    }

    #[test]
    fn run_batch_equals_independent_runs() {
        // Guards the serving engine's micro-batching path: a batch of N
        // images must produce exactly the same bits as N single runs.
        let net = tiny_collapsed();
        let images: Vec<Tensor> = (0..4)
            .map(|i| Tensor::rand_uniform(&[1, 10, 14], 0.0, 1.0, 60 + i))
            .collect();
        let batch = Tensor::stack(&images.iter().collect::<Vec<_>>());
        let out = net.run_batch(&batch);
        let outs = out.unstack();
        assert_eq!(outs.len(), 4);
        for (i, (img, got)) in images.iter().zip(&outs).enumerate() {
            let single = net.run(img);
            let got = got.reshape(single.shape());
            assert_eq!(
                single.max_abs_diff(&got),
                0.0,
                "image {i} diverged from batched run"
            );
        }
    }

    #[test]
    fn binary_roundtrip_preserves_function() {
        // Models must survive serialization (deployment artifact).
        let net = tiny_collapsed();
        let bytes = crate::model_io::encode_model(&net);
        let decoded = crate::model_io::decode_model(&bytes).expect("decode");
        let lr = Tensor::rand_uniform(&[1, 8, 8], 0.0, 1.0, 8);
        assert!(net.run(&lr).approx_eq(&decoded.run(&lr), 0.0));
    }
}
