//! Planned, zero-allocation execution of the collapsed network, at either
//! precision.
//!
//! After collapse, SESR is one linear chain: a first 5x5 conv, `m` 3x3
//! convs under a long residual, a 5x5 head, then depth-to-space. This
//! module compiles that chain once per `(model, input shape)` into a
//! [`Plan`], built from two halves:
//!
//! * **The skeleton**, shared by both precisions. A [`LayerGraph`] holds
//!   each layer's shape, the step list (source and destination buffer,
//!   fused residual flags) and the head's depth-to-space scatter map.
//!   [`Plan`] sizes one arena from it — the staged input (if the datapath
//!   stages one), the long-residual buffer, two ping-pong feature buffers,
//!   and one scratch slab per row band — and runs the one step loop: each
//!   step splits its output rows into bands fixed at build (`make_bands`)
//!   and runs them on the persistent pool. The timed run charges each step
//!   the time since the previous mark. [`TilePlanner`] caches one
//!   single-band plan per tile shape in a bounded LRU.
//! * **The datapath** ([`Datapath`]), which supplies only what differs
//!   between precisions: the arena element, buffer and slab lengths, the
//!   per-layer tap-offset table, input staging, and the band runner with
//!   its fused epilogue. [`CollapsedKernels`] below is the f32 datapath
//!   ([`InferPlan`]); `sesr_quant::QuantKernels` is the int8 one
//!   (`sesr_quant::QuantPlan`).
//!
//! `Plan` is monomorphized per datapath. Steady-state
//! [`Plan::run_image_into`] touches only the arena: zero heap allocations
//! after the plan is built (at one thread; with a pool, `parallel_for`
//! posts one job header per layer — see DESIGN.md Sec. 11). Bands are
//! aligned to Winograd tile rows (2 rows), and every per-element
//! accumulation order is independent of the band split, so output is
//! bit-identical from 1 to N threads.
//!
//! # The f32 datapath
//!
//! [`crate::collapsed::CollapsedSesr::run_reference`] executes layer by
//! layer with a fresh tensor per op, a separate activation pass, a separate
//! residual add, and a standalone depth-to-space. The f32 datapath fixes
//! all of that while producing **bit-identical** output:
//!
//! * **Fused epilogues.** Bias, PReLU/ReLU, the long feature residual, the
//!   input residual, and the depth-to-space permutation are folded into
//!   the producing conv's output-row write (including after the Winograd
//!   output transform), eliminating whole-tensor passes. Epilogue passes
//!   run row-at-a-time with the variant dispatch hoisted out of the inner
//!   loops, so they vectorize.
//! * **Direct blocked convolution.** The 5x5 layers skip im2col entirely.
//!   The reference path's `im2col + gemm` materializes a `cin*kh*kw x h*w`
//!   column matrix (tens of MB at video sizes) just to stream it through
//!   the GEMM once; the direct kernel instead stages, per output row, the
//!   `kh` input rows of every channel as zero-padded rows in the band's
//!   slab, so every tap reads the slab at an offset fixed at plan build.
//!   [`Microkernel::conv_taps4`] then loads each tap segment once for
//!   four output channels x 16 columns of register accumulators.
//!   Accumulation mimics [`sesr_tensor::gemm::KC`]-block grouping, so the
//!   bits match the packed GEMM exactly (see below).
//!
//! Why bit-identical (and not merely close): the packed GEMM accumulates
//! each output element as one chain per `KC`-sized k-block (each chain
//! starts from 0.0, blocks combine in order), and the direct convolution
//! reproduces exactly that grouping with taps visited in ascending k
//! order — padding taps read the staged rows' `0.0` columns and multiply
//! `0.0`, exactly as im2col + GEMM do. Winograd tiles are
//! arithmetically independent, so any tile partition is exact; and the
//! fused epilogue performs the same per-element operations in the same
//! order as the separate passes it replaces. See DESIGN.md Sec. 11 for
//! the full argument.

use crate::collapsed::{Act, CollapsedSesr};
use crate::tiling::TileSpec;
use sesr_tensor::autotune::{pick, time_ns};
use sesr_tensor::conv::Conv2dParams;
use sesr_tensor::gemm::KC;
use sesr_tensor::parallel::{num_threads, parallel_for, SendPtr};
use sesr_tensor::simd::{
    detected_variants, kernel_variant, microkernel, wino_pack_u, wino_scratch_len, KernelVariant,
    Microkernel, RowAct, WinoRow,
};
use sesr_tensor::winograd::kernel_transform;
use sesr_tensor::Tensor;
use std::fmt::Debug;
use std::sync::Arc;
use std::time::Instant;

/// Shape of one collapsed convolution (stride 1, same padding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerShape {
    /// Input channels.
    pub cin: usize,
    /// Output channels.
    pub cout: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
}

/// Which logical buffer a step reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Buf {
    /// The LR input plane (the caller's, or the datapath's staged copy).
    Input,
    /// Layer 0's output, kept live for the long feature residual.
    First,
    /// Ping-pong feature buffer A.
    Ping,
    /// Ping-pong feature buffer B.
    Pong,
    /// The caller's HR output plane (written via depth-to-space scatter).
    Output,
}

/// One planned layer execution.
#[derive(Debug, Clone, Copy)]
struct Step {
    layer: usize,
    src: Buf,
    dst: Buf,
    /// Fuse the long feature residual (`+ first`) into this step's write.
    add_first: bool,
    /// Degenerate 2-layer network with a feature residual: the head input
    /// is `first + first`, fused here as a doubled write.
    double_output: bool,
}

/// The collapsed chain as both datapaths execute it, built once per
/// model: layer shapes, the step list, and the head's scatter map.
#[derive(Debug, Clone)]
pub struct LayerGraph {
    layers: Vec<LayerShape>,
    scale: usize,
    input_residual: bool,
    steps: Vec<Step>,
    /// `head_scatter[ci]` is the `(row, col)` offset inside each
    /// `scale x scale` output cell written by head channel `ci` —
    /// the composition of the model's depth-to-space permutations.
    head_scatter: Vec<(usize, usize)>,
}

impl LayerGraph {
    /// Builds the graph of a chain of `layers` with a `scale` head. Steps
    /// assign each layer a source and destination buffer plus its fused
    /// residual flags, mirroring the reference dataflow exactly.
    ///
    /// # Panics
    ///
    /// Panics on fewer than two layers or a head that does not emit
    /// `scale * scale` channels.
    pub fn new(
        layers: Vec<LayerShape>,
        scale: usize,
        feature_residual: bool,
        input_residual: bool,
    ) -> Self {
        let ll = layers.len();
        assert!(ll >= 2, "a planned network needs a first layer and a head");
        let head_cout = layers[ll - 1].cout;
        assert_eq!(head_cout, scale * scale, "head must emit scale^2 channels");
        let mut steps = Vec::with_capacity(ll);
        steps.push(Step {
            layer: 0,
            src: Buf::Input,
            dst: Buf::First,
            add_first: false,
            double_output: ll == 2 && feature_residual,
        });
        let mut cur = Buf::First;
        for i in 1..ll - 1 {
            let dst = if cur == Buf::Ping {
                Buf::Pong
            } else {
                Buf::Ping
            };
            steps.push(Step {
                layer: i,
                src: cur,
                dst,
                add_first: feature_residual && i == ll - 2,
                double_output: false,
            });
            cur = dst;
        }
        steps.push(Step {
            layer: ll - 1,
            src: cur,
            dst: Buf::Output,
            add_first: false,
            double_output: false,
        });
        // x2 is one depth-to-space (r = 2); x4 composes two of them. Both
        // reduce to a per-channel (row, col) offset in the output cell.
        let head_scatter = (0..head_cout)
            .map(|ci| {
                if scale == 2 {
                    (ci / 2, ci % 2)
                } else {
                    (2 * ((ci % 4) / 2) + ci / 8, 2 * (ci % 2) + (ci / 4) % 2)
                }
            })
            .collect();
        Self {
            layers,
            scale,
            input_residual,
            steps,
            head_scatter,
        }
    }

    /// Each layer's shape, in execution order.
    pub fn layers(&self) -> &[LayerShape] {
        &self.layers
    }

    /// The upscaling factor.
    pub fn scale(&self) -> usize {
        self.scale
    }

    /// The head's per-channel offsets inside each output cell.
    pub fn head_scatter(&self) -> &[(usize, usize)] {
        &self.head_scatter
    }
}

/// What differs between the f32 and the int8 planned executor; [`Plan`]
/// owns everything else. Implementations are immutable, preprocessed
/// kernels shared (`Arc`) across plans, threads, and tile shapes.
pub trait Datapath: Debug + Send + Sync + 'static {
    /// Arena element: `f32`, or two `i16` channel levels packed in an
    /// `i32`.
    type Elem: Copy + Default + Debug + Send + Sync + 'static;

    /// Whether step 0 reads a copy of the input staged in the arena
    /// (written by [`Datapath::stage_input`]) rather than the caller's
    /// plane.
    const STAGES_INPUT: bool;

    /// The chain this datapath executes.
    fn graph(&self) -> &LayerGraph;

    /// Arena elements of one buffer holding `c` channels of an `h x w`
    /// activation.
    fn buffer_len(c: usize, h: usize, w: usize) -> usize;

    /// Elements of one band's scratch slab, enough for every layer.
    fn slab_len(&self, h: usize, w: usize) -> usize;

    /// Layer `layer`'s tap-offset table at `h x w`, fixed at plan build.
    fn tap_offsets(&self, layer: usize, h: usize, w: usize) -> Vec<usize>;

    /// Step 0's source planes for `input`: the caller's plane itself, or
    /// its staged copy, written into `staged` row band by row band.
    /// `staged` is the arena's input region, `buffer_len(1, h, w)`
    /// elements when [`Datapath::STAGES_INPUT`] and empty otherwise.
    fn stage_input<'a>(
        &self,
        mk: &dyn Microkernel,
        input: &'a [f32],
        staged: &'a mut [Self::Elem],
        bands: &[(usize, usize)],
        w: usize,
    ) -> &'a [Self::Elem];

    /// Runs output rows `[y0, y1)` of one step, fused epilogue included,
    /// with `slab` as band-private scratch.
    fn run_band(
        &self,
        mk: &dyn Microkernel,
        io: &StepIo<'_, Self::Elem>,
        y0: usize,
        y1: usize,
        slab: &mut [Self::Elem],
    );
}

/// One step's operands, handed by [`Plan`] to every band of the step.
pub struct StepIo<'a, E> {
    /// Index of the layer the step runs.
    pub layer: usize,
    /// Planned LR height.
    pub h: usize,
    /// Planned LR width.
    pub w: usize,
    /// The step's source planes.
    pub src: &'a [E],
    /// The layer's tap-offset table ([`Datapath::tap_offsets`]).
    pub offs: &'a [usize],
    /// Layer 0's output planes, when the step fuses the long feature
    /// residual.
    pub first: Option<&'a [E]>,
    /// Step 0's source planes, when the step (the head) fuses the input
    /// residual.
    pub input: Option<&'a [E]>,
    /// Fuse `first + first` as a doubled write (a two-layer network with a
    /// feature residual).
    pub double_output: bool,
    /// The plan's arena.
    pub arena: SendPtr<E>,
    /// Arena offset of the destination planes; `None` for the head, which
    /// scatters into `out`.
    pub dst: Option<usize>,
    /// The caller's HR output plane.
    pub out: SendPtr<f32>,
}

/// A compiled execution plan for one `(kernels, input shape)` pair.
///
/// Building the plan allocates the arena; [`Plan::run_image_into`] then
/// runs the full network without touching the heap. Reuse a plan for
/// every same-shaped input (batches, repeated requests, same-shaped
/// tiles).
#[derive(Debug)]
pub struct Plan<D: Datapath> {
    kernels: Arc<D>,
    h: usize,
    w: usize,
    /// Microkernel variant every step dispatches through. Defaults to the
    /// process-global [`kernel_variant`]; [`Plan::autotune_variant`]
    /// measures and pins the fastest one for this plan's shapes. Within a
    /// variant, f32 output is bit-identical to the reference path run on
    /// the same variant; *between* variants, FMA contraction changes bits.
    /// Int8 output is the same on every variant.
    variant: KernelVariant,
    bands: Vec<(usize, usize)>,
    /// Per-layer tap-offset tables ([`Datapath::tap_offsets`]).
    tap_offs: Vec<Vec<usize>>,
    /// The staged input (`input_len` elements, possibly none), `first`,
    /// ping, pong, then one slab per band.
    arena: Vec<D::Elem>,
    input_len: usize,
    off_first: usize,
    first_len: usize,
    off_ping: usize,
    off_pong: usize,
    off_slabs: usize,
    slab_len: usize,
}

/// The f32 planned executor.
pub type InferPlan = Plan<CollapsedKernels>;

impl<D: Datapath> Plan<D> {
    /// Compiles a plan for an `h x w` LR input, with one row band per
    /// available worker thread (fixed at build time).
    ///
    /// # Panics
    ///
    /// As [`Plan::with_bands`].
    pub fn new(kernels: Arc<D>, h: usize, w: usize) -> Self {
        let n = num_threads();
        Self::with_bands(kernels, h, w, n)
    }

    /// Compiles a plan with an explicit band count (1 disables intra-layer
    /// parallelism — used by tile executors that parallelize over tiles).
    ///
    /// # Panics
    ///
    /// Panics on a degenerate shape or zero bands.
    pub fn with_bands(kernels: Arc<D>, h: usize, w: usize, nbands: usize) -> Self {
        assert!(h > 0 && w > 0, "degenerate input {h}x{w}");
        assert!(nbands > 0, "need at least one band");
        let bands = make_bands(h, nbands);
        let layers = kernels.graph().layers();
        let tap_offs = (0..layers.len())
            .map(|l| kernels.tap_offsets(l, h, w))
            .collect();
        let input_len = if D::STAGES_INPUT {
            D::buffer_len(1, h, w)
        } else {
            0
        };
        let first_len = D::buffer_len(layers[0].cout, h, w);
        let mid_len = layers[1..layers.len() - 1]
            .iter()
            .map(|l| D::buffer_len(l.cout, h, w))
            .max()
            .unwrap_or(0);
        let slab_len = kernels.slab_len(h, w);
        let off_first = input_len;
        let off_ping = off_first + first_len;
        let off_pong = off_ping + mid_len;
        let off_slabs = off_pong + mid_len;
        // Zero-filled: buffers are overwritten every run, except the int8
        // planes' halo rings, which stay zero forever — the int8 padding
        // argument.
        let arena = vec![D::Elem::default(); off_slabs + bands.len() * slab_len];
        Self {
            kernels,
            h,
            w,
            variant: kernel_variant(),
            bands,
            tap_offs,
            arena,
            input_len,
            off_first,
            first_len,
            off_ping,
            off_pong,
            off_slabs,
            slab_len,
        }
    }

    /// The `(h, w)` LR shape this plan was compiled for.
    pub fn shape(&self) -> (usize, usize) {
        (self.h, self.w)
    }

    /// The microkernel variant this plan dispatches through.
    pub fn variant(&self) -> KernelVariant {
        self.variant
    }

    /// Pins the plan to `v` (degraded to the best available variant if `v`
    /// cannot run here) and returns the effective choice. Callers that
    /// need bit-identity with another f32 executor (the reference path, a
    /// whole-frame plan next to tile plans) must pin both sides to the
    /// same variant.
    pub fn set_variant(&mut self, v: KernelVariant) -> KernelVariant {
        self.variant = microkernel(v).variant();
        self.variant
    }

    /// Measures one full planned run per detected variant (twice, scored
    /// by minimum wall time; ties resolve toward detection order, i.e.
    /// the fastest-assumed variant) and pins the winner. Runs on a
    /// synthetic input and allocates scratch — call at plan-compile time,
    /// never in steady state. Deterministic given the measurements; see
    /// [`pick`].
    pub fn autotune_variant(&mut self) -> KernelVariant {
        let cands = detected_variants();
        if cands.len() > 1 {
            let s = self.kernels.graph().scale();
            let input = vec![0.25f32; self.h * self.w];
            let mut out = vec![0.0f32; self.h * s * self.w * s];
            let (winner, _costs) = pick(cands, 2, |&v| {
                self.variant = v;
                time_ns(|| self.run_image_into(&input, &mut out))
            });
            self.variant = cands[winner];
        } else {
            self.variant = cands[0];
        }
        self.variant
    }

    /// Total bytes of the preallocated arena — the plan's entire
    /// steady-state working set besides input and output.
    pub fn arena_bytes(&self) -> usize {
        self.arena.len() * std::mem::size_of::<D::Elem>()
    }

    /// Number of planned layer executions (= collapsed layers) — the
    /// length [`Plan::run_image_into_timed`] expects.
    pub fn num_steps(&self) -> usize {
        self.kernels.graph().steps.len()
    }

    fn buf_off(&self, buf: Buf) -> usize {
        match buf {
            Buf::First => self.off_first,
            Buf::Ping => self.off_ping,
            Buf::Pong => self.off_pong,
            Buf::Input | Buf::Output => unreachable!("not an arena buffer"),
        }
    }

    /// Runs the planned network on one LR plane (`h * w` floats) into a
    /// preallocated HR plane (`h*scale * w*scale` floats). Performs zero
    /// heap allocations (one pool-job header per layer when running on
    /// more than one thread).
    ///
    /// # Panics
    ///
    /// Panics if slice lengths disagree with the planned shape.
    pub fn run_image_into(&mut self, input: &[f32], out: &mut [f32]) {
        self.run_steps(input, out, None);
    }

    /// [`Plan::run_image_into`] with per-layer wall-time accumulation
    /// (nanoseconds added to `layer_nanos[i]` for step `i`; step 0 also
    /// carries the input staging it consumes). Bench-only; same output
    /// bits.
    ///
    /// # Panics
    ///
    /// Panics if `layer_nanos` does not have one slot per step.
    pub fn run_image_into_timed(
        &mut self,
        input: &[f32],
        out: &mut [f32],
        layer_nanos: &mut [u64],
    ) {
        assert_eq!(layer_nanos.len(), self.num_steps(), "one slot per layer");
        self.run_steps(input, out, Some(layer_nanos));
    }

    fn run_steps(&mut self, input: &[f32], out: &mut [f32], mut timings: Option<&mut [u64]>) {
        let (h, w) = (self.h, self.w);
        let kernels = &*self.kernels;
        let graph = kernels.graph();
        let s = graph.scale();
        assert_eq!(input.len(), h * w, "input plane size");
        assert_eq!(out.len(), h * s * w * s, "output plane size");
        // Each step's slot gets the time since the previous mark, so step 0
        // also carries the input staging.
        let mut mark = timings.is_some().then(Instant::now);
        let mk = microkernel(self.variant);
        let arena = SendPtr(self.arena.as_mut_ptr());
        let out_ptr = SendPtr(out.as_mut_ptr());
        // SAFETY: the input region `[0, input_len)` is disjoint from every
        // other buffer and written only here, before any step reads it.
        let staged = unsafe { arena.slice_mut(0, self.input_len) };
        let input = kernels.stage_input(mk, input, staged, &self.bands, w);

        for (si, step) in graph.steps.iter().enumerate() {
            let cin = graph.layers()[step.layer].cin;
            let io = StepIo {
                layer: step.layer,
                h,
                w,
                src: match step.src {
                    Buf::Input => input,
                    // SAFETY: the source buffer was fully written by a
                    // previous step (steps are separated by parallel_for
                    // joins) and no band writes it during this step —
                    // ping-pong assignment keeps src and dst disjoint.
                    b => unsafe { arena.slice(self.buf_off(b), D::buffer_len(cin, h, w)) },
                },
                offs: &self.tap_offs[step.layer],
                // SAFETY: `first` was written by step 0 and is never a
                // destination afterwards.
                first: step
                    .add_first
                    .then(|| unsafe { arena.slice(self.off_first, self.first_len) }),
                input: (step.dst == Buf::Output && graph.input_residual).then_some(input),
                double_output: step.double_output,
                arena,
                dst: (step.dst != Buf::Output).then(|| self.buf_off(step.dst)),
                out: out_ptr,
            };
            let bands = &self.bands;
            let (off_slabs, slab_len) = (self.off_slabs, self.slab_len);
            parallel_for(bands.len(), 1, |b0, b1| {
                for (bi, &(y0, y1)) in bands.iter().enumerate().take(b1).skip(b0) {
                    // SAFETY: slabs are disjoint per band and bands are
                    // assigned whole to closure calls.
                    let slab = unsafe { arena.slice_mut(off_slabs + bi * slab_len, slab_len) };
                    kernels.run_band(mk, &io, y0, y1, slab);
                }
            });
            if let (Some(t), Some(m)) = (timings.as_deref_mut(), mark.as_mut()) {
                let now = Instant::now();
                t[si] += (now - *m).as_nanos() as u64;
                *m = now;
            }
        }
    }

    /// Super-resolves a `[1, h, w]` luma image through the plan. Allocates
    /// only the returned tensor; all intermediates live in the arena.
    ///
    /// # Panics
    ///
    /// Panics if the input shape disagrees with the planned shape.
    pub fn run(&mut self, lr: &Tensor) -> Tensor {
        let dims = lr.shape();
        assert_eq!(dims, &[1, self.h, self.w], "input must match plan shape");
        let s = self.kernels.graph().scale();
        let mut out = Tensor::zeros(&[1, self.h * s, self.w * s]);
        self.run_image_into(lr.data(), out.data_mut());
        out
    }

    /// Super-resolves a `[N, 1, h, w]` batch, reusing this plan's single
    /// arena across all `N` images.
    ///
    /// # Panics
    ///
    /// Panics if the input is not single-channel NCHW of the planned
    /// shape.
    pub fn run_batch(&mut self, input: &Tensor) -> Tensor {
        let (n, c, h, w) = input.shape_obj().as_nchw();
        assert_eq!(c, 1, "SESR operates on the Y channel (1 input channel)");
        assert_eq!((h, w), (self.h, self.w), "input must match plan shape");
        let s = self.kernels.graph().scale();
        let (oh, ow) = (h * s, w * s);
        let mut out = Tensor::zeros(&[n, 1, oh, ow]);
        let out_data = out.data_mut();
        for ni in 0..n {
            self.run_image_into(
                &input.data()[ni * h * w..(ni + 1) * h * w],
                &mut out_data[ni * oh * ow..(ni + 1) * oh * ow],
            );
        }
        out
    }
}

/// Splits `0..h` into at most `nbands` contiguous row bands aligned to
/// Winograd tile rows: every band start is even, and band ends are even
/// or `h`. Band boundaries are a pure function of `(h, nbands)` — fixed
/// band order is part of the determinism argument.
fn make_bands(h: usize, nbands: usize) -> Vec<(usize, usize)> {
    let pairs = h.div_ceil(2);
    let nb = nbands.min(pairs).max(1);
    let base = pairs / nb;
    let rem = pairs % nb;
    let mut bands = Vec::with_capacity(nb);
    let mut p = 0usize;
    for i in 0..nb {
        let take = base + usize::from(i < rem);
        let (p0, p1) = (p, p + take);
        bands.push((2 * p0, (2 * p1).min(h)));
        p = p1;
    }
    bands
}

/// Lazily builds and caches one [`Plan`] per tile shape. Tile executors
/// parallelize over tiles, so cached plans use a single band. Int8
/// quantization parameters are fixed per model (calibrated once), so int8
/// tiles composite exactly like f32 ones.
///
/// The cache is bounded: at most [`TilePlanner::DEFAULT_CAP`] shapes are
/// kept (override with [`TilePlanner::with_capacity`]), evicting the
/// least-recently-used plan once full. An image run sees a handful of
/// shapes (interior, right edge, bottom edge, corner) and never evicts;
/// long-lived video sessions with varying frame sizes would otherwise
/// grow the cache without bound. Eviction only costs a rebuild on the
/// next use of that shape — plans are caches of geometry, not state —
/// so it can never change output bits.
#[derive(Debug)]
pub struct TilePlanner<D: Datapath = CollapsedKernels> {
    kernels: Arc<D>,
    /// Most-recently-used first.
    plans: Vec<Plan<D>>,
    cap: usize,
    evictions: u64,
}

impl<D: Datapath> TilePlanner<D> {
    /// Default bound on cached tile shapes. A single frame size needs at
    /// most four (interior / right edge / bottom edge / corner); eight
    /// leaves headroom for one resolution change without thrash.
    pub const DEFAULT_CAP: usize = 8;

    /// Creates an empty planner over shared kernels.
    pub fn new(kernels: Arc<D>) -> Self {
        Self::with_capacity(kernels, Self::DEFAULT_CAP)
    }

    /// Creates an empty planner holding at most `cap` tile shapes.
    ///
    /// # Panics
    ///
    /// When `cap` is zero — a planner that cannot hold any plan would
    /// rebuild on every call.
    pub fn with_capacity(kernels: Arc<D>, cap: usize) -> Self {
        assert!(cap > 0, "tile-plan cache capacity must be positive");
        Self {
            kernels,
            plans: Vec::new(),
            cap,
            evictions: 0,
        }
    }

    /// The plan for an `h x w` tile, building it on first use. Moves the
    /// plan to the front of the LRU order; evicts the least-recently-used
    /// shape when inserting past capacity.
    pub fn plan_for(&mut self, h: usize, w: usize) -> &mut Plan<D> {
        if let Some(i) = self.plans.iter().position(|p| p.shape() == (h, w)) {
            let plan = self.plans.remove(i);
            self.plans.insert(0, plan);
        } else {
            if self.plans.len() == self.cap {
                self.plans.pop();
                self.evictions += 1;
            }
            self.plans
                .insert(0, Plan::with_bands(self.kernels.clone(), h, w, 1));
        }
        &mut self.plans[0]
    }

    /// How many plans have been evicted over the planner's lifetime.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Number of currently cached tile shapes.
    pub fn cached_plans(&self) -> usize {
        self.plans.len()
    }

    /// Crops the halo-expanded patch of `spec` and runs it through the
    /// cached plan for that patch shape.
    pub fn run_tile(&mut self, lr: &Tensor, spec: &TileSpec) -> Tensor {
        let patch = lr.crop_hw(spec.ey0, spec.ey1, spec.ex0, spec.ex1);
        let dims = patch.shape();
        self.plan_for(dims[1], dims[2]).run(&patch)
    }

    /// Largest arena across the cached plans (telemetry).
    pub fn max_arena_bytes(&self) -> usize {
        self.plans.iter().map(Plan::arena_bytes).max().unwrap_or(0)
    }
}

// ---------------------------------------------------------------------------
// The f32 datapath
// ---------------------------------------------------------------------------

/// Activation of one planned layer, with slopes flattened out of tensors.
#[derive(Debug, Clone)]
enum ActKind {
    /// No activation (the collapsed head).
    None,
    /// Plain ReLU.
    Relu,
    /// Parametric ReLU with one slope per output channel.
    PRelu(Vec<f32>),
}

/// One collapsed convolution's weights, preprocessed for planned
/// execution (its shape lives in the [`LayerGraph`]).
#[derive(Debug, Clone)]
struct KernelLayer {
    /// Direct-convolution weights, present iff the kernel is not 3x3:
    /// output channels packed in groups of four, tap-major inside a group
    /// (`taps4[(g * k + p) * 4 + c]` is the weight of channel `4g + c` at
    /// im2col row `p`, `k = cin * kh * kw`), with zeros for the missing
    /// channels of a last partial group — the operand layout of
    /// [`Microkernel::conv_taps4`].
    taps4: Option<Vec<f32>>,
    /// Per-output-channel bias.
    bias: Vec<f32>,
    /// Winograd-transformed kernels (`G g Gᵀ` per `(cout, cin)` pair),
    /// present iff the kernel is 3x3, laid out `[k][cin][cout4]` for
    /// [`Microkernel::wino_tile_row`]. Computed once here instead of per
    /// call inside `winograd_conv3x3`.
    wino_u: Option<Vec<f32>>,
    /// Activation fused into this layer's output write.
    act: ActKind,
}

/// Shape-independent planned form of a [`CollapsedSesr`] — the f32
/// datapath: flattened weights, pre-transformed Winograd kernels, and the
/// layer graph. Immutable and `Sync`; share one `Arc` across plans,
/// worker threads, and tile planners.
#[derive(Debug, Clone)]
pub struct CollapsedKernels {
    layers: Vec<KernelLayer>,
    graph: LayerGraph,
}

impl CollapsedKernels {
    /// Preprocesses a collapsed network for planned execution.
    ///
    /// # Panics
    ///
    /// Panics if the head does not emit `scale * scale` channels.
    pub fn new(model: &CollapsedSesr) -> Self {
        let mut shapes = Vec::with_capacity(model.layers().len());
        let layers = model
            .layers()
            .iter()
            .map(|l| {
                let s = l.weight.shape();
                let (o, i, kh, kw) = (s[0], s[1], s[2], s[3]);
                shapes.push(LayerShape {
                    cin: i,
                    cout: o,
                    kh,
                    kw,
                });
                let wino_u = (kh == 3 && kw == 3).then(|| {
                    let tiles: Vec<[f32; 16]> = l
                        .weight
                        .data()
                        .chunks_exact(9)
                        .map(kernel_transform)
                        .collect();
                    wino_pack_u(&tiles, o, i)
                });
                let taps4 = wino_u.is_none().then(|| {
                    let k = i * kh * kw;
                    let mut packed = vec![0.0f32; o.div_ceil(4) * k * 4];
                    for (oo, wrow) in l.weight.data().chunks_exact(k).enumerate() {
                        for (p, &wv) in wrow.iter().enumerate() {
                            packed[((oo / 4) * k + p) * 4 + oo % 4] = wv;
                        }
                    }
                    packed
                });
                KernelLayer {
                    bias: l.bias.data().to_vec(),
                    wino_u,
                    taps4,
                    act: match &l.act {
                        None => ActKind::None,
                        Some(Act::Relu) => ActKind::Relu,
                        Some(Act::PRelu(a)) => ActKind::PRelu(a.data().to_vec()),
                    },
                }
            })
            .collect();
        let graph = LayerGraph::new(
            shapes,
            model.scale(),
            model.has_feature_residual(),
            model.has_input_residual(),
        );
        Self { layers, graph }
    }

    /// Each layer's shape, in execution order.
    pub fn layers(&self) -> &[LayerShape] {
        self.graph.layers()
    }
}

impl Datapath for CollapsedKernels {
    type Elem = f32;
    const STAGES_INPUT: bool = false;

    fn graph(&self) -> &LayerGraph {
        &self.graph
    }

    fn buffer_len(c: usize, h: usize, w: usize) -> usize {
        c * h * w
    }

    /// Winograd layers keep a four-row ring of split input rows per
    /// input channel, the tile-row kernel's scratch, and two raw output
    /// rows per output channel; direct-conv layers keep one padded output
    /// row per channel plus the `kh` padded input rows of every input
    /// channel for the current output row.
    fn slab_len(&self, _h: usize, w: usize) -> usize {
        self.layers
            .iter()
            .zip(self.graph.layers())
            .map(|(l, s)| {
                if l.wino_u.is_some() {
                    let (tiles, sw) = wino_row_geometry(w);
                    4 * s.cin * 2 * sw + wino_scratch_len(s.cin) + s.cout * 2 * 2 * tiles
                } else {
                    s.cout * w.next_multiple_of(8) + s.cin * s.kh * padded_stride(w, s.kw)
                }
            })
            .max()
            .unwrap_or(0)
    }

    /// The staging-slab offset of every tap of a direct-conv layer in
    /// im2col row order (`KC`-sized blocks are contiguous slices); empty
    /// for Winograd layers. Padded rows make the offsets independent of
    /// the output row.
    fn tap_offsets(&self, layer: usize, _h: usize, w: usize) -> Vec<usize> {
        if self.layers[layer].wino_u.is_some() {
            return Vec::new();
        }
        let s = self.graph.layers()[layer];
        let stride = padded_stride(w, s.kw);
        (0..s.cin * s.kh * s.kw)
            .map(|p| {
                let (row, kx) = (p / s.kw, p % s.kw);
                row * stride + kx
            })
            .collect()
    }

    /// Step 0 reads the caller's plane directly.
    fn stage_input<'a>(
        &self,
        _mk: &dyn Microkernel,
        input: &'a [f32],
        _staged: &'a mut [f32],
        _bands: &[(usize, usize)],
        _w: usize,
    ) -> &'a [f32] {
        input
    }

    fn run_band(
        &self,
        mk: &dyn Microkernel,
        io: &StepIo<'_, f32>,
        y0: usize,
        y1: usize,
        slab: &mut [f32],
    ) {
        let (layer, shape) = (&self.layers[io.layer], self.graph.layers()[io.layer]);
        let (h, w, s) = (io.h, io.w, self.graph.scale());
        let epi = Epilogue {
            mk,
            bias: &layer.bias,
            act: &layer.act,
            double_output: io.double_output,
            add_first: io.first,
            input_plane: io.input,
            dst: match io.dst {
                Some(off) => Dst::Plane { ptr: io.arena, off },
                None => Dst::Scatter {
                    ptr: io.out,
                    scale: s,
                    out_w: w * s,
                    map: self.graph.head_scatter(),
                },
            },
        };
        if layer.wino_u.is_some() {
            wino_band(mk, layer, shape, io.src, h, w, y0, y1, slab, &epi);
        } else {
            conv_band(mk, layer, shape, io.offs, io.src, h, w, y0, y1, slab, &epi);
        }
    }
}

/// Everything the fused output write of one band needs. `emit` performs
/// exactly the per-element operations of the unfused path, in the same
/// order: `+ bias`, activation, residuals, destination permutation.
struct Epilogue<'a> {
    mk: &'a dyn Microkernel,
    bias: &'a [f32],
    act: &'a ActKind,
    double_output: bool,
    add_first: Option<&'a [f32]>,
    input_plane: Option<&'a [f32]>,
    dst: Dst<'a>,
}

enum Dst<'a> {
    /// Plane-major CHW write at `off` in the arena.
    Plane { ptr: SendPtr, off: usize },
    /// Depth-to-space scatter into the HR output.
    Scatter {
        ptr: SendPtr,
        scale: usize,
        out_w: usize,
        map: &'a [(usize, usize)],
    },
}

impl Epilogue<'_> {
    /// Applies the fused tail to one raw output row (in place) and writes
    /// it to the destination. Each pass applies one per-element op over
    /// the whole row with the variant dispatch hoisted outside the loop,
    /// so the loops vectorize; the op *order* per element is exactly that
    /// of the unfused path: `+ bias`, activation, doubling, `+ first`,
    /// `+ input`, destination permutation.
    fn emit_row(&self, co: usize, y: usize, raw: &mut [f32], h: usize, w: usize) {
        debug_assert_eq!(raw.len(), w);
        let act = match self.act {
            ActKind::None => RowAct::Linear,
            ActKind::Relu => RowAct::Relu,
            ActKind::PRelu(ref a) => RowAct::PRelu(a[co]),
        };
        self.mk.bias_act_row(raw, self.bias[co], act);
        if self.double_output {
            self.mk.double_row(raw);
        }
        if let Some(first) = self.add_first {
            self.mk.add_row(raw, &first[co * h * w + y * w..][..w]);
        }
        if let Some(inp) = self.input_plane {
            self.mk.add_row(raw, &inp[y * w..][..w]);
        }
        match &self.dst {
            // SAFETY (both arms): bands write disjoint row ranges of the
            // destination — `parallel_for` hands each band to one closure
            // call, and the plan's band list partitions `0..h`.
            Dst::Plane { ptr, off } => {
                let base = off + co * h * w + y * w;
                let dstrow = unsafe { ptr.slice_mut(base, raw.len()) };
                dstrow.copy_from_slice(raw);
            }
            Dst::Scatter {
                ptr,
                scale,
                out_w,
                map,
            } => {
                let (ry, rx) = map[co];
                let base = (scale * y + ry) * out_w + rx;
                for (x, &v) in raw.iter().enumerate() {
                    unsafe { ptr.write(base + scale * x, v) }
                }
            }
        }
    }
}

/// Row stride of the staged input rows of a `kw`-wide direct convolution
/// over `w` columns: the output row rounded up to whole 8-lane vectors,
/// plus the `kw - 1` columns its taps reach past it. Columns outside the
/// input row hold `0.0`.
fn padded_stride(w: usize, kw: usize) -> usize {
    w.next_multiple_of(8) + kw - 1
}

/// Executes output rows `[y0, y1)` of a non-3x3 layer as a direct blocked
/// convolution with the epilogue fused into the row write. No im2col, no
/// GEMM call — yet bit-identical to `im2col + gemm`. Per output row, the
/// `kh` input rows of every channel are staged as zero-padded rows, so
/// tap `p` of the im2col order reads the slab at the fixed offset
/// `offs[p]`, and padding taps multiply `0.0` exactly as im2col's zero
/// entries do. Taps are grouped into the same [`KC`]-sized k-blocks as
/// the packed GEMM; each block's chain starts from `+0.0` in ascending k
/// order, and blocks combine in order (the first by plain write).
#[allow(clippy::too_many_arguments)]
fn conv_band(
    mk: &dyn Microkernel,
    layer: &KernelLayer,
    shape: LayerShape,
    offs: &[usize],
    src: &[f32],
    h: usize,
    w: usize,
    y0: usize,
    y1: usize,
    slab: &mut [f32],
    epi: &Epilogue<'_>,
) {
    let (pt, _pb, pl, _pr) = Conv2dParams::same().resolve_padding(shape.kh, shape.kw);
    let k = shape.cin * shape.kh * shape.kw;
    let taps4 = layer.taps4.as_ref().expect("direct-conv layer");
    let (npad, stride) = (w.next_multiple_of(8), padded_stride(w, shape.kw));
    let (totals, rest) = slab.split_at_mut(shape.cout * npad);
    let stage = &mut rest[..shape.cin * shape.kh * stride];
    for y in y0..y1 {
        for (r, row) in stage.chunks_exact_mut(stride).enumerate() {
            let (cc, ky) = (r / shape.kh, r % shape.kh);
            match (y + ky).checked_sub(pt).filter(|&iy| iy < h) {
                Some(iy) => {
                    row[..pl].fill(0.0);
                    row[pl..pl + w].copy_from_slice(&src[cc * h * w + iy * w..][..w]);
                    row[pl + w..].fill(0.0);
                }
                None => row.fill(0.0),
            }
        }
        for (acc, wg) in totals.chunks_mut(4 * npad).zip(taps4.chunks_exact(4 * k)) {
            for k0 in (0..k).step_by(KC) {
                let k1 = (k0 + KC).min(k);
                mk.conv_taps4(acc, npad, &wg[4 * k0..4 * k1], &offs[k0..k1], stage, k0 > 0);
            }
        }
        for co in 0..shape.cout {
            epi.emit_row(co, y, &mut totals[co * npad..][..w], h, w);
        }
    }
}

/// Executes output rows `[y0, y1)` of a 3x3 layer with the Winograd
/// `F(2x2, 3x3)` pipeline, one tile row at a time, epilogue fused into
/// the row write. Each input row is split once per band into zero-padded
/// even/odd columns and kept in a four-row ring (a tile row reads input
/// rows `oy - 1 ..= oy + 2`, so consecutive tile rows share two), then
/// [`Microkernel::wino_tile_row`] runs the whole row and writes both raw
/// output rows of every channel for the epilogue. Rows and columns
/// outside the plane stage as `0.0`, the zero padding of the reference's
/// per-tile gather. Tiles are independent, so running the band's tile
/// rows is arithmetically identical to the whole-image kernel; bands are
/// 2-row aligned so no tile straddles a band boundary.
#[allow(clippy::too_many_arguments)]
fn wino_band(
    mk: &dyn Microkernel,
    layer: &KernelLayer,
    shape: LayerShape,
    src: &[f32],
    h: usize,
    w: usize,
    y0: usize,
    y1: usize,
    slab: &mut [f32],
    epi: &Epilogue<'_>,
) {
    let (cin, cout) = (shape.cin, shape.cout);
    let u = layer.wino_u.as_ref().expect("wino layer");
    let (tiles, sw) = wino_row_geometry(w);
    let (ring, rest) = slab.split_at_mut(4 * cin * 2 * sw);
    let (scratch, rest) = rest.split_at_mut(wino_scratch_len(cin));
    let ostride = 2 * tiles;
    let rowbuf = &mut rest[..cout * 2 * ostride];
    let slot_len = cin * 2 * sw;
    for ty in y0 / 2..y1.div_ceil(2) {
        let oy = 2 * ty;
        // Input row `oy - 1 + r` lives in ring slot `(oy + r) % 4`; a
        // band's first tile row stages all four, later ones the two new.
        let fresh = if ty == y0 / 2 { 0 } else { 2 };
        for r in fresh..4 {
            let slot = &mut ring[(oy + r) % 4 * slot_len..][..slot_len];
            let iy = (oy + r).checked_sub(1).filter(|&iy| iy < h);
            for (cc, halves) in slot.chunks_exact_mut(2 * sw).enumerate() {
                match iy {
                    Some(iy) => split_row(halves, &src[cc * h * w + iy * w..][..w]),
                    None => halves.fill(0.0),
                }
            }
        }
        let row = WinoRow {
            rows: std::array::from_fn(|r| &ring[(oy + r) % 4 * slot_len..][..slot_len]),
            sw,
            tiles,
            u,
            cin,
            cout,
        };
        mk.wino_tile_row(&row, scratch, rowbuf, ostride);
        for oo in 0..cout {
            for dy in 0..2 {
                let yy = oy + dy;
                if yy < h {
                    epi.emit_row(oo, yy, &mut rowbuf[(oo * 2 + dy) * ostride..][..w], h, w);
                }
            }
        }
    }
}

/// Tiles per Winograd tile row at width `w`, and the length of one
/// even/odd half of a split input row (`tiles + 1`: tile `t` reads
/// columns `t` and `t + 1` of each half).
fn wino_row_geometry(w: usize) -> (usize, usize) {
    let tiles = w.div_ceil(2);
    (tiles, tiles + 1)
}

/// Splits input row `x` into the zero-padded halves of a
/// [`WinoRow`] row: `e[t] = x[2t - 1]` then `o[t] = x[2t]`, `0.0`
/// outside the row.
fn split_row(halves: &mut [f32], x: &[f32]) {
    let (e, o) = halves.split_at_mut(halves.len() / 2);
    let pairs = x.chunks_exact(2);
    let (half, tail) = (x.len() / 2, pairs.remainder());
    for ((p, ot), et) in pairs.zip(o.iter_mut()).zip(&mut e[1..]) {
        *ot = p[0];
        *et = p[1];
    }
    e[0] = 0.0;
    e[half + 1..].fill(0.0);
    o[half..].fill(0.0);
    if let [last] = tail {
        o[half] = *last;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Sesr, SesrConfig};

    fn collapsed(cfg: SesrConfig) -> CollapsedSesr {
        Sesr::new(cfg).collapse()
    }

    fn plan_of(net: &CollapsedSesr, h: usize, w: usize, bands: usize) -> InferPlan {
        InferPlan::with_bands(Arc::new(CollapsedKernels::new(net)), h, w, bands)
    }

    #[test]
    fn planned_run_is_bit_identical_to_reference() {
        let net = collapsed(SesrConfig::m(2).with_expanded(8).with_seed(3));
        let lr = Tensor::rand_uniform(&[1, 9, 13], 0.0, 1.0, 1);
        let reference = net.run_reference(&lr);
        for bands in [1usize, 2, 3, 5] {
            let mut plan = plan_of(&net, 9, 13, bands);
            let planned = plan.run(&lr);
            assert_eq!(
                reference.max_abs_diff(&planned),
                0.0,
                "{bands} bands diverged"
            );
            assert_eq!(planned.shape(), reference.shape());
        }
    }

    #[test]
    fn planned_matches_reference_across_variants() {
        // Hardware-efficient (ReLU, no input residual) and an x4 head.
        let configs = [
            SesrConfig::m(3)
                .with_expanded(8)
                .with_seed(4)
                .hardware_efficient(),
            SesrConfig::m(2).with_expanded(8).with_seed(5).with_scale(4),
        ];
        for (i, cfg) in configs.iter().enumerate() {
            let net = collapsed(*cfg);
            let lr = Tensor::rand_uniform(&[1, 11, 7], 0.0, 1.0, 70 + i as u64);
            let reference = net.run_reference(&lr);
            let mut plan = plan_of(&net, 11, 7, 3);
            assert_eq!(
                reference.max_abs_diff(&plan.run(&lr)),
                0.0,
                "variant {i} diverged"
            );
        }
    }

    #[test]
    fn degenerate_two_layer_network_with_feature_residual_matches() {
        // No middle layers: the reference computes head(first + first),
        // which the plan fuses as a doubled write on step 0.
        use crate::collapsed::CollapsedLayer;
        let f = 6;
        let l0 = CollapsedLayer {
            weight: Tensor::randn(&[f, 1, 5, 5], 0.0, 0.3, 90),
            bias: Tensor::randn(&[f], 0.0, 0.1, 91),
            act: Some(Act::PRelu(Tensor::rand_uniform(&[f], -0.3, 0.3, 92))),
        };
        let head = CollapsedLayer {
            weight: Tensor::randn(&[4, f, 5, 5], 0.0, 0.3, 93),
            bias: Tensor::randn(&[4], 0.0, 0.1, 94),
            act: None,
        };
        let net = CollapsedSesr::new(vec![l0, head], 2, true, true);
        let lr = Tensor::rand_uniform(&[1, 9, 11], 0.0, 1.0, 95);
        let reference = net.run_reference(&lr);
        let mut plan = plan_of(&net, 9, 11, 2);
        assert_eq!(reference.max_abs_diff(&plan.run(&lr)), 0.0);
    }

    #[test]
    fn plan_reuse_does_not_leak_state_between_images() {
        let net = collapsed(SesrConfig::m(2).with_expanded(8).with_seed(3));
        let mut plan = plan_of(&net, 8, 8, 2);
        let a = Tensor::rand_uniform(&[1, 8, 8], 0.0, 1.0, 2);
        let b = Tensor::rand_uniform(&[1, 8, 8], -1.0, 1.0, 9);
        let first_a = plan.run(&a);
        let _ = plan.run(&b);
        let again_a = plan.run(&a);
        assert_eq!(first_a.max_abs_diff(&again_a), 0.0, "arena state leaked");
        assert_eq!(
            net.run_reference(&a).max_abs_diff(&again_a),
            0.0,
            "reuse diverged from reference"
        );
    }

    #[test]
    fn arena_size_is_fixed_after_build() {
        let net = collapsed(SesrConfig::m(2).with_expanded(8).with_seed(3));
        let mut plan = plan_of(&net, 16, 16, 4);
        let before = plan.arena_bytes();
        assert!(before > 0);
        let lr = Tensor::rand_uniform(&[1, 16, 16], 0.0, 1.0, 3);
        for _ in 0..3 {
            let _ = plan.run(&lr);
        }
        assert_eq!(plan.arena_bytes(), before, "arena must never grow");
    }

    #[test]
    fn batch_run_reuses_one_arena() {
        let net = collapsed(SesrConfig::m(2).with_expanded(8).with_seed(3));
        let images: Vec<Tensor> = (0..3)
            .map(|i| Tensor::rand_uniform(&[1, 10, 14], 0.0, 1.0, 80 + i))
            .collect();
        let batch = Tensor::stack(&images.iter().collect::<Vec<_>>());
        let mut plan = plan_of(&net, 10, 14, 2);
        let out = plan.run_batch(&batch);
        for (i, (img, got)) in images.iter().zip(out.unstack()).enumerate() {
            let single = net.run_reference(img);
            assert_eq!(
                single.max_abs_diff(&got.reshape(single.shape())),
                0.0,
                "image {i}"
            );
        }
    }

    #[test]
    fn tile_planner_caches_by_shape() {
        let net = collapsed(SesrConfig::m(2).with_expanded(8).with_seed(3));
        let mut planner = TilePlanner::new(Arc::new(CollapsedKernels::new(&net)));
        let _ = planner.plan_for(8, 8);
        let _ = planner.plan_for(8, 8);
        let _ = planner.plan_for(8, 6);
        assert_eq!(planner.plans.len(), 2, "same shape must share one plan");
        assert!(planner.max_arena_bytes() > 0);
        assert_eq!(planner.evictions(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn tile_planner_rejects_zero_capacity() {
        let net = collapsed(SesrConfig::m(2).with_expanded(8).with_seed(3));
        let _ = TilePlanner::with_capacity(Arc::new(CollapsedKernels::new(&net)), 0);
    }

    #[test]
    fn bands_are_even_aligned_and_cover_rows() {
        for h in [1usize, 2, 3, 7, 8, 17] {
            for nb in [1usize, 2, 4, 13] {
                let bands = make_bands(h, nb);
                assert_eq!(bands[0].0, 0);
                assert_eq!(bands.last().unwrap().1, h);
                for win in bands.windows(2) {
                    assert_eq!(win[0].1, win[1].0, "bands must be contiguous");
                }
                for &(y0, y1) in &bands {
                    assert!(y0 % 2 == 0, "band start must be tile-aligned");
                    assert!(y1 % 2 == 0 || y1 == h);
                    assert!(y1 > y0, "empty band");
                }
            }
        }
    }
}
