//! Planned, zero-allocation execution of the collapsed network.
//!
//! [`crate::collapsed::CollapsedSesr::run`] executes layer by layer with a
//! fresh tensor per op, a separate activation pass, a separate residual
//! add, and a standalone depth-to-space — and the per-layer kernels are
//! single-threaded for a single image. This module compiles the collapsed
//! network once per `(model, input shape)` into an [`InferPlan`] that
//! fixes all of that while producing **bit-identical** output:
//!
//! * **Buffer arena.** One `Vec<f32>` sized from the layer graph holds the
//!   long-residual buffer, two ping-pong feature buffers, and one small
//!   scratch slab per row band (accumulator rows, Winograd tile scratch).
//!   Steady-state [`InferPlan::run_image_into`] touches only the
//!   arena: zero heap allocations after the plan is built (at one thread;
//!   with a pool, `parallel_for` posts one job header per layer — see
//!   DESIGN.md Sec. 11).
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
//! * **Row-band parallelism.** Each layer is split over output-row bands
//!   executed on the persistent pool. Bands are fixed at plan build and
//!   aligned to Winograd tile rows (2 rows), and every per-element
//!   accumulation order is unchanged from the unfused kernels, so output
//!   is bit-identical from 1 to N threads and to the reference path
//!   ([`crate::collapsed::CollapsedSesr::run_batch_reference`]).
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
use sesr_tensor::autotune::{pick, time_ns};
use sesr_tensor::conv::Conv2dParams;
use sesr_tensor::gemm::KC;
use sesr_tensor::parallel::{num_threads, parallel_for, SendPtr};
use sesr_tensor::simd::{
    detected_variants, kernel_variant, microkernel, KernelVariant, Microkernel, RowAct,
};
use sesr_tensor::winograd::kernel_transform;
use sesr_tensor::Tensor;
use std::sync::Arc;
use std::time::Instant;

/// Activation of one planned layer, with slopes flattened out of tensors.
#[derive(Debug, Clone)]
pub enum ActKind {
    /// No activation (the collapsed head).
    None,
    /// Plain ReLU.
    Relu,
    /// Parametric ReLU with one slope per output channel.
    PRelu(Vec<f32>),
}

/// One collapsed convolution, preprocessed for planned execution.
#[derive(Debug, Clone)]
pub struct KernelLayer {
    /// Input channels.
    pub cin: usize,
    /// Output channels.
    pub cout: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Direct-convolution weights, present iff the kernel is not 3x3:
    /// output channels packed in groups of four, tap-major inside a group
    /// (`taps4[(g * k + p) * 4 + c]` is the weight of channel `4g + c` at
    /// im2col row `p`, `k = cin * kh * kw`), with zeros for the missing
    /// channels of a last partial group — the operand layout of
    /// [`Microkernel::conv_taps4`].
    pub taps4: Option<Vec<f32>>,
    /// Per-output-channel bias.
    pub bias: Vec<f32>,
    /// Winograd-transformed kernels (`G g Gᵀ` per `(cout, cin)` pair),
    /// present iff the kernel is 3x3. Computed once here instead of per
    /// call inside `winograd_conv3x3`.
    pub wino_u: Option<Vec<[f32; 16]>>,
    /// Activation fused into this layer's output write.
    pub act: ActKind,
}

/// Shape-independent planned form of a [`CollapsedSesr`]: flattened
/// weights, pre-transformed Winograd kernels, and the depth-to-space
/// scatter map. Immutable and `Sync`; share one `Arc` across plans,
/// worker threads, and tile planners.
#[derive(Debug, Clone)]
pub struct CollapsedKernels {
    layers: Vec<KernelLayer>,
    scale: usize,
    feature_residual: bool,
    input_residual: bool,
    /// `head_scatter[ci]` is the `(row, col)` offset inside each
    /// `scale x scale` output cell written by head channel `ci` —
    /// the composition of the model's depth-to-space permutations.
    head_scatter: Vec<(usize, usize)>,
}

impl CollapsedKernels {
    /// Preprocesses a collapsed network for planned execution.
    ///
    /// # Panics
    ///
    /// Panics if the head does not emit `scale * scale` channels.
    pub fn new(model: &CollapsedSesr) -> Self {
        let layers: Vec<KernelLayer> = model
            .layers()
            .iter()
            .map(|l| {
                let s = l.weight.shape();
                let (o, i, kh, kw) = (s[0], s[1], s[2], s[3]);
                let wino_u = (kh == 3 && kw == 3).then(|| {
                    let mut u = vec![[0.0f32; 16]; o * i];
                    for oo in 0..o {
                        for ii in 0..i {
                            let base = (oo * i + ii) * 9;
                            u[oo * i + ii] = kernel_transform(&l.weight.data()[base..base + 9]);
                        }
                    }
                    u
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
                    cin: i,
                    cout: o,
                    kh,
                    kw,
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
        let scale = model.scale();
        let head_cout = layers.last().expect("collapsed model has layers").cout;
        assert_eq!(head_cout, scale * scale, "head must emit scale^2 channels");
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
            feature_residual: model.has_feature_residual(),
            input_residual: model.has_input_residual(),
            head_scatter,
        }
    }

    /// The planned layers, in execution order.
    pub fn layers(&self) -> &[KernelLayer] {
        &self.layers
    }

    /// The upscaling factor.
    pub fn scale(&self) -> usize {
        self.scale
    }
}

/// Which logical buffer a step reads or writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Buf {
    /// The caller's LR input plane.
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

/// A compiled execution plan for one `(model, input shape)` pair.
///
/// Building the plan allocates the arena; [`InferPlan::run_image_into`]
/// then runs the full network without touching the heap. Reuse a plan for
/// every same-shaped input (batches, repeated requests, same-shaped
/// tiles).
#[derive(Debug)]
pub struct InferPlan {
    kernels: Arc<CollapsedKernels>,
    h: usize,
    w: usize,
    /// Microkernel variant every step dispatches through. Defaults to the
    /// process-global [`kernel_variant`]; [`InferPlan::autotune_variant`]
    /// measures and pins the fastest one for this plan's shapes. Within a
    /// variant, output is bit-identical to the reference path run on the
    /// same variant; *between* variants, FMA contraction changes bits.
    variant: KernelVariant,
    bands: Vec<(usize, usize)>,
    steps: Vec<Step>,
    /// Per direct-conv layer, the staging-slab offset of every tap in
    /// im2col row order (`KC`-sized blocks are contiguous slices); empty
    /// for Winograd layers. Padded rows make the offsets independent of
    /// the output row, so they are fixed here once.
    tap_offs: Vec<Vec<usize>>,
    arena: Vec<f32>,
    off_first: usize,
    first_len: usize,
    off_ping: usize,
    off_pong: usize,
    off_slabs: usize,
    slab_len: usize,
}

impl InferPlan {
    /// Compiles a plan for an `h x w` LR input, with one row band per
    /// available worker thread (fixed at build time).
    pub fn new(kernels: Arc<CollapsedKernels>, h: usize, w: usize) -> Self {
        let n = num_threads();
        Self::with_bands(kernels, h, w, n)
    }

    /// Compiles a plan with an explicit band count (1 disables intra-layer
    /// parallelism — used by tile executors that parallelize over tiles).
    ///
    /// # Panics
    ///
    /// Panics on a degenerate shape or zero bands.
    pub fn with_bands(kernels: Arc<CollapsedKernels>, h: usize, w: usize, nbands: usize) -> Self {
        assert!(h > 0 && w > 0, "degenerate input {h}x{w}");
        assert!(nbands > 0, "need at least one band");
        let bands = make_bands(h, nbands);
        let steps = make_steps(&kernels);
        let tap_offs = kernels
            .layers
            .iter()
            .map(|l| {
                if l.wino_u.is_some() {
                    return Vec::new();
                }
                let stride = padded_stride(w, l.kw);
                (0..l.cin * l.kh * l.kw)
                    .map(|p| {
                        let (row, kx) = (p / l.kw, p % l.kw);
                        row * stride + kx
                    })
                    .collect()
            })
            .collect();

        let first_len = kernels.layers[0].cout * h * w;
        let mid_len = kernels.layers[1..kernels.layers.len() - 1]
            .iter()
            .map(|l| l.cout * h * w)
            .max()
            .unwrap_or(0);
        // Winograd layers keep one gathered and one transformed input
        // tile set, one accumulated m-tile plus one 2x2 output tile per
        // output channel, and two output rows per channel; direct-conv
        // layers keep one padded output row per channel plus the `kh`
        // padded input rows of every input channel for the current
        // output row.
        let slab_len = kernels
            .layers
            .iter()
            .map(|l| {
                if l.wino_u.is_some() {
                    2 * l.cin * 16 + l.cout * 16 + l.cout * 4 + l.cout * 2 * w
                } else {
                    l.cout * w.next_multiple_of(8) + l.cin * l.kh * padded_stride(w, l.kw)
                }
            })
            .max()
            .unwrap_or(0);

        let off_first = 0;
        let off_ping = off_first + first_len;
        let off_pong = off_ping + mid_len;
        let off_slabs = off_pong + mid_len;
        let arena = vec![0.0f32; off_slabs + bands.len() * slab_len];
        Self {
            kernels,
            h,
            w,
            variant: kernel_variant(),
            bands,
            steps,
            tap_offs,
            arena,
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
    /// need bit-identity with another executor (the reference path, a
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
            let s = self.kernels.scale;
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

    /// The shared preprocessed kernels.
    pub fn kernels(&self) -> &Arc<CollapsedKernels> {
        &self.kernels
    }

    /// Total bytes of the preallocated arena — the plan's entire
    /// steady-state working set besides input and output.
    pub fn arena_bytes(&self) -> usize {
        self.arena.len() * std::mem::size_of::<f32>()
    }

    /// Number of planned layer executions (= collapsed layers).
    pub fn num_steps(&self) -> usize {
        self.steps.len()
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

    /// [`InferPlan::run_image_into`] with per-layer wall-time accumulation
    /// (nanoseconds added to `layer_nanos[i]` for step `i`). Bench-only;
    /// same output bits.
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
        assert_eq!(layer_nanos.len(), self.steps.len(), "one slot per layer");
        self.run_steps(input, out, Some(layer_nanos));
    }

    fn run_steps(&mut self, input: &[f32], out: &mut [f32], mut timings: Option<&mut [u64]>) {
        let (h, w) = (self.h, self.w);
        let s = self.kernels.scale;
        assert_eq!(input.len(), h * w, "input plane size");
        assert_eq!(out.len(), h * s * w * s, "output plane size");
        let arena_ptr = SendPtr(self.arena.as_mut_ptr());
        let out_ptr = SendPtr(out.as_mut_ptr());
        let mk = microkernel(self.variant);

        for (si, step) in self.steps.iter().enumerate() {
            let t0 = timings.is_some().then(Instant::now);
            let layer = &self.kernels.layers[step.layer];
            let src: &[f32] = match step.src {
                Buf::Input => input,
                b => {
                    // SAFETY: the source buffer was fully written by a
                    // previous step (steps are separated by parallel_for
                    // joins) and no band writes it during this step —
                    // ping-pong assignment keeps src and dst disjoint.
                    unsafe {
                        std::slice::from_raw_parts(
                            arena_ptr.0.add(self.buf_off(b)),
                            layer.cin * h * w,
                        )
                    }
                }
            };
            let first: Option<&[f32]> = step.add_first.then(|| {
                // SAFETY: `first` was written by step 0 and is never a
                // destination afterwards.
                unsafe {
                    std::slice::from_raw_parts(arena_ptr.0.add(self.off_first), self.first_len)
                }
            });
            let dst = match step.dst {
                Buf::Output => Dst::Scatter {
                    ptr: out_ptr,
                    scale: s,
                    out_w: w * s,
                    map: &self.kernels.head_scatter,
                },
                b => Dst::Plane {
                    ptr: arena_ptr,
                    off: self.buf_off(b),
                },
            };
            let epi = Epilogue {
                mk,
                bias: &layer.bias,
                act: &layer.act,
                double_output: step.double_output,
                add_first: first,
                input_plane: (step.dst == Buf::Output && self.kernels.input_residual)
                    .then_some(input),
                dst,
            };
            let bands = &self.bands;
            let (off_slabs, slab_len) = (self.off_slabs, self.slab_len);
            let offs = &self.tap_offs[step.layer];
            parallel_for(bands.len(), 1, |b0, b1| {
                for (bi, &(y0, y1)) in bands.iter().enumerate().take(b1).skip(b0) {
                    // SAFETY: slabs are disjoint per band and bands are
                    // assigned whole to closure calls.
                    let slab = unsafe { arena_ptr.slice_mut(off_slabs + bi * slab_len, slab_len) };
                    if layer.wino_u.is_some() {
                        wino_band(mk, layer, src, h, w, y0, y1, slab, &epi);
                    } else {
                        conv_band(mk, layer, offs, src, h, w, y0, y1, slab, &epi);
                    }
                }
            });
            if let Some(t) = timings.as_deref_mut() {
                t[si] += t0.expect("timer started").elapsed().as_nanos() as u64;
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
        let s = self.kernels.scale;
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
        let s = self.kernels.scale;
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
/// band order is part of the determinism argument. Public so the
/// quantized planned executor (`sesr-quant`) bands identically.
pub fn make_bands(h: usize, nbands: usize) -> Vec<(usize, usize)> {
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

/// Assigns each layer a source and destination buffer plus its fused
/// residual flags, mirroring the reference dataflow exactly.
fn make_steps(kernels: &CollapsedKernels) -> Vec<Step> {
    let ll = kernels.layers.len();
    let mut steps = Vec::with_capacity(ll);
    steps.push(Step {
        layer: 0,
        src: Buf::Input,
        dst: Buf::First,
        add_first: false,
        double_output: ll == 2 && kernels.feature_residual,
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
            add_first: kernels.feature_residual && i == ll - 2,
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
    steps
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
    offs: &[usize],
    src: &[f32],
    h: usize,
    w: usize,
    y0: usize,
    y1: usize,
    slab: &mut [f32],
    epi: &Epilogue<'_>,
) {
    let (pt, _pb, pl, _pr) = Conv2dParams::same().resolve_padding(layer.kh, layer.kw);
    let k = layer.cin * layer.kh * layer.kw;
    let taps4 = layer.taps4.as_ref().expect("direct-conv layer");
    let (npad, stride) = (w.next_multiple_of(8), padded_stride(w, layer.kw));
    let (totals, rest) = slab.split_at_mut(layer.cout * npad);
    let stage = &mut rest[..layer.cin * layer.kh * stride];
    for y in y0..y1 {
        for (r, row) in stage.chunks_exact_mut(stride).enumerate() {
            let (cc, ky) = (r / layer.kh, r % layer.kh);
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
        for co in 0..layer.cout {
            epi.emit_row(co, y, &mut totals[co * npad..][..w], h, w);
        }
    }
}

/// Executes output rows `[y0, y1)` of a 3x3 layer with the Winograd
/// `F(2x2, 3x3)` pipeline, epilogue fused into the output transform's
/// tile write. Tiles are independent, so running the band's tile rows is
/// arithmetically identical to the whole-image kernel; bands are 2-row
/// aligned so no tile straddles a band boundary.
#[allow(clippy::too_many_arguments)]
fn wino_band(
    mk: &dyn Microkernel,
    layer: &KernelLayer,
    src: &[f32],
    h: usize,
    w: usize,
    y0: usize,
    y1: usize,
    slab: &mut [f32],
    epi: &Epilogue<'_>,
) {
    let (cin, cout) = (layer.cin, layer.cout);
    let u = layer.wino_u.as_ref().expect("wino layer");
    let (d_slab, rest) = slab.split_at_mut(cin * 16);
    let (v_slab, rest) = rest.split_at_mut(cin * 16);
    // Accumulated m-tiles are staged here between the channel-reduction
    // loop and the output transform. The store keeps the two loops
    // separate in codegen: letting the compiler fuse the reduction into
    // the transform's butterfly trades the clean 8-wide accumulation for
    // a shuffle-bound hybrid (measurably slower).
    let (m_slab, rest) = rest.split_at_mut(cout * 16);
    let (y_slab, rest) = rest.split_at_mut(cout * 4);
    // Two raw output rows per channel, filled tile by tile, then flushed
    // through the fused epilogue row-at-a-time.
    let rowbuf = &mut rest[..cout * 2 * w];
    let tiles_x = w.div_ceil(2);
    for ty in y0 / 2..y1.div_ceil(2) {
        let oy = 2 * ty;
        for tx in 0..tiles_x {
            let ox = 2 * tx;
            // A tile is interior when its 4x4 input window (offset -1)
            // lies fully inside the plane; the hot path then gathers with
            // four straight row copies and no bounds checks.
            let interior = oy >= 1 && oy + 3 <= h && ox >= 1 && ox + 3 <= w;
            if interior {
                let base = (oy - 1) * w + (ox - 1);
                mk.wino_input_transform_interior(src, h * w, base, w, v_slab, cin);
            } else {
                d_slab.fill(0.0);
                for cc in 0..cin {
                    let plane = &src[cc * h * w..(cc + 1) * h * w];
                    let d = &mut d_slab[cc * 16..cc * 16 + 16];
                    for dy in 0..4 {
                        let iy = oy as isize + dy as isize - 1;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for dx in 0..4 {
                            let ix = ox as isize + dx as isize - 1;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            d[4 * dy + dx] = plane[iy as usize * w + ix as usize];
                        }
                    }
                }
                mk.wino_input_transform_many(d_slab, v_slab, cin);
            }
            mk.wino_channel_reduce(m_slab, u, v_slab, cout, cin);
            mk.wino_output_transform_many(m_slab, y_slab, cout);
            for oo in 0..cout {
                let yv = &y_slab[oo * 4..oo * 4 + 4];
                for dy in 0..2 {
                    for dx in 0..2 {
                        let xx = ox + dx;
                        if xx < w {
                            rowbuf[(oo * 2 + dy) * w + xx] = yv[2 * dy + dx];
                        }
                    }
                }
            }
        }
        for oo in 0..cout {
            for dy in 0..2 {
                let yy = oy + dy;
                if yy >= h {
                    continue;
                }
                epi.emit_row(oo, yy, &mut rowbuf[(oo * 2 + dy) * w..][..w], h, w);
            }
        }
    }
}

/// Lazily builds and caches one [`InferPlan`] per tile shape. Tile
/// executors parallelize over tiles, so cached plans use a single band.
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
pub struct TilePlanner {
    kernels: Arc<CollapsedKernels>,
    /// Most-recently-used first.
    plans: Vec<InferPlan>,
    cap: usize,
    evictions: u64,
}

impl TilePlanner {
    /// Default bound on cached tile shapes. A single frame size needs at
    /// most four (interior / right edge / bottom edge / corner); eight
    /// leaves headroom for one resolution change without thrash.
    pub const DEFAULT_CAP: usize = 8;

    /// Creates an empty planner over shared kernels.
    pub fn new(kernels: Arc<CollapsedKernels>) -> Self {
        Self::with_capacity(kernels, Self::DEFAULT_CAP)
    }

    /// Creates an empty planner holding at most `cap` tile shapes.
    ///
    /// # Panics
    ///
    /// When `cap` is zero — a planner that cannot hold any plan would
    /// rebuild on every call.
    pub fn with_capacity(kernels: Arc<CollapsedKernels>, cap: usize) -> Self {
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
    pub fn plan_for(&mut self, h: usize, w: usize) -> &mut InferPlan {
        if let Some(i) = self.plans.iter().position(|p| p.shape() == (h, w)) {
            let plan = self.plans.remove(i);
            self.plans.insert(0, plan);
        } else {
            if self.plans.len() == self.cap {
                self.plans.pop();
                self.evictions += 1;
            }
            self.plans
                .insert(0, InferPlan::with_bands(self.kernels.clone(), h, w, 1));
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
    pub fn run_tile(&mut self, lr: &Tensor, spec: &crate::tiling::TileSpec) -> Tensor {
        let patch = lr.crop_hw(spec.ey0, spec.ey1, spec.ex0, spec.ex1);
        let dims = patch.shape();
        self.plan_for(dims[1], dims[2]).run(&patch)
    }

    /// Largest arena across the cached plans (telemetry).
    pub fn max_arena_bytes(&self) -> usize {
        self.plans
            .iter()
            .map(InferPlan::arena_bytes)
            .max()
            .unwrap_or(0)
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
    fn tile_planner_evicts_lru_and_stays_correct() {
        let net = collapsed(SesrConfig::m(2).with_expanded(8).with_seed(3));
        let kernels = Arc::new(CollapsedKernels::new(&net));
        let mut planner = TilePlanner::with_capacity(kernels, 2);
        let shapes = [(8usize, 8usize), (8, 6), (6, 8), (8, 8), (6, 6)];
        for &(h, w) in &shapes {
            // Every call — hit, miss, or post-eviction rebuild — must
            // produce exactly the reference bits.
            let lr = Tensor::rand_uniform(&[1, h, w], 0.0, 1.0, (h * 31 + w) as u64);
            let got = planner.plan_for(h, w).run(&lr);
            let want = net.run_reference(&lr);
            assert_eq!(
                want.max_abs_diff(&got.reshape(want.shape())),
                0.0,
                "{h}x{w}"
            );
            assert!(planner.cached_plans() <= 2, "capacity bound violated");
        }
        // 5 distinct-shape misses into a cap of 2 ⇒ at least one eviction;
        // exact count: misses at (8,8),(8,6),(6,8)[evict],(8,8)[evict],(6,6)[evict].
        assert_eq!(planner.evictions(), 3);
        // Re-touching a shape must move it to the front: (6,6) and (8,8)
        // are resident; touching (6,6) then inserting a new shape must
        // evict (8,8), not (6,6).
        let _ = planner.plan_for(6, 6);
        let _ = planner.plan_for(10, 10);
        assert_eq!(planner.evictions(), 4);
        let _ = planner.plan_for(6, 6); // still resident: no eviction
        assert_eq!(planner.evictions(), 4);
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
