//! Planned int8 execution: the quantized counterpart of
//! `sesr_core::infer_plan`.
//!
//! [`QuantKernels`] preprocesses a [`QuantizedSesr`] once (weight packing,
//! wire-parameter chaining, scatter map); [`QuantPlan`] then executes it
//! with a single pre-sized `i32` arena and zero steady-state allocations,
//! banded over rows exactly like the float plan ([`make_bands`] is
//! shared, so band boundaries agree for any `(h, nbands)`).
//!
//! # Integer datapath
//!
//! Activation planes live in the arena as **zero-point-subtracted**
//! levels: each `i32` element packs two adjacent channels as `i16` lanes
//! (channel `2c` in the low half, `2c + 1` in the high half). Subtracting
//! the wire's zero point at store time has two payoffs:
//!
//! - the convolution becomes a plain integer dot product
//!   `acc += (q - zp) * w` with no per-tap zero-point correction, exactly
//!   the oracle's accumulation, and
//! - zero padding is *universally* the value `0` for every wire, so each
//!   plane carries a [`HALO`]-wide ring of zeros written once at
//!   construction. Border taps read the ring and contribute exactly `0`
//!   to the `i32` accumulator — bit-identical to the oracle's
//!   skip-out-of-bounds loop, with no branches in the hot path.
//!
//! No kernel is taller or wider than `2 * HALO + 1`, so every tap of
//! every output pixel — border rows included — lands in the plane or in
//! its zero ring. The whole `kh x cpin x kw` window therefore runs from
//! one row base plus a per-layer tap-offset table built once at plan
//! compile, with no per-row gather and no border special case: a ring tap
//! adds exactly `0`, which is what the oracle's skipped tap adds. The
//! per-row kernel is [`Microkernel::qmadd_taps4`], fed weights packed
//! tap-major four output channels at a time: it writes four output
//! channels' accumulator rows from one shared set of tap loads. Each tap
//! maps onto one AVX2 `vpmaddwd` or AVX-512 VNNI `vpdpwssd`, exact for
//! these operand ranges (see `sesr_tensor::simd`), and integer addition is
//! associative, so every kernel variant and body, band count, and column
//! blocking produces identical accumulators.
//!
//! # Requantization epilogues
//!
//! Everything after the accumulator — `v = s_in * s_w[o] * acc + bias`,
//! activation, requantize-to-wire, the two long residual additions, and
//! the head's dequantize + depth-to-space scatter — replicates
//! [`QuantizedSesr::run`] operation for operation through the
//! `Microkernel` row epilogues (`qrequant_pack_row`, `qresidual_pack_row`,
//! `qhead_row`, `qquantize_row`). Their SIMD implementations are
//! bit-identical to the scalar chain *by construction*, not empirically:
//! every step is an exact per-lane IEEE op (convert, unfused mul/add,
//! div, min/max select), and scalar `f32::round` (half away from zero) is
//! reproduced as `trunc(f + copysign(0.5, f))`, exact for `|f| < 2^22`
//! with both paths saturating to the same `[0, 255]` clamp bound beyond —
//! see the `sesr_tensor::simd` trait docs for the full argument. That is
//! what lets the float tail vectorize without giving up the oracle
//! equality the proptest sweep enforces.

use crate::execute::QuantizedSesr;
use crate::qtensor::AffineParams;
use sesr_core::collapsed::Act;
use sesr_core::infer_plan::make_bands;
use sesr_tensor::parallel::{num_threads, parallel_for, SendPtr};
use sesr_tensor::simd::{
    kernel_variant, microkernel, KernelVariant, Microkernel, QuantEpilogue, RowAct,
};
use sesr_tensor::Tensor;
use std::sync::Arc;
use std::time::Instant;

/// Zero ring width around every activation plane. Two rows/columns cover
/// the widest SESR tap (5x5, pad 2), so no supported kernel (at most
/// `2 * HALO + 1` on a side) ever reads past the ring.
const HALO: usize = 2;

/// Channel pairs needed to hold `c` channels (odd counts pad the high
/// lane with zeros).
#[inline]
fn pairs(c: usize) -> usize {
    c.div_ceil(2)
}

/// Packs two zero-point-subtracted levels into one arena element.
#[inline]
fn pack_pair(lo: i32, hi: i32) -> i32 {
    (lo & 0xffff) | (hi << 16)
}

/// Per-layer activation with slopes flattened for scalar epilogues.
#[derive(Debug, Clone)]
enum QAct {
    None,
    Relu,
    /// Per-output-channel negative slopes.
    PRelu(Vec<f32>),
}

/// One layer, preprocessed for planned integer execution.
#[derive(Debug, Clone)]
struct QKernelLayer {
    cin: usize,
    cout: usize,
    kh: usize,
    kw: usize,
    /// Input channel pairs (`pairs(cin)`).
    cpin: usize,
    /// Packed i16-pair weights for [`Microkernel::qmadd_taps4`], four
    /// output channels at a time, tap-major: group `g`, tap `t = (ky, cp,
    /// kx)` and channel `4g + c` sit at `(g * taps + t) * 4 + c`, holding
    /// input channels `2cp` (low lane) and `2cp + 1` (high lane, zero when
    /// `cin` is odd). The last group's missing channels are zero.
    taps4: Vec<i32>,
    /// `in_scale * weight_scale[o]` — the accumulator-to-real factor.
    scale_io: Vec<f32>,
    bias: Vec<f32>,
    act: QAct,
    /// Outgoing wire. (The incoming wire is folded into `scale_io`: its
    /// scale is the only part the datapath needs — zero-point-subtracted
    /// planes already absorb the offset.)
    out_params: AffineParams,
}

/// A quantized network preprocessed for planned execution: packed
/// weights, chained wire parameters, and the depth-to-space scatter map.
/// Immutable and shared (`Arc`) across plans, threads, and tile shapes.
#[derive(Debug)]
pub struct QuantKernels {
    layers: Vec<QKernelLayer>,
    scale: usize,
    feature_residual: bool,
    input_residual: bool,
    input_params: AffineParams,
    /// `head_scatter[ci]` = `(row, col)` offset inside each
    /// `scale x scale` output cell written by head channel `ci` — same
    /// permutation as the float plan's.
    head_scatter: Vec<(usize, usize)>,
    model_bytes: usize,
}

impl QuantKernels {
    /// Preprocesses a quantized network for planned execution.
    ///
    /// # Panics
    ///
    /// Panics on shapes the planner does not support: fewer than three
    /// layers, a first layer that is not single-channel, a head that does
    /// not emit `scale * scale` channels, kernels larger than 5x5, or a
    /// feature residual whose endpoints disagree on width.
    pub fn new(qnet: &QuantizedSesr) -> Self {
        let qlayers = qnet.layers();
        let ll = qlayers.len();
        assert!(
            ll >= 3,
            "planned int8 execution needs first/middle/head layers (got {ll})"
        );
        let scale = qnet.scale();
        let input_params = qnet.input_params();

        // Chain wire parameters: layer i consumes layer i-1's output
        // wire, except the head after a feature residual, which consumes
        // the residual sum on the incoming wire widened by 2x range
        // (mirrors the oracle's requantization of `first + last`).
        let mut in_params = Vec::with_capacity(ll);
        in_params.push(input_params);
        for i in 1..ll {
            let prev = qlayers[i - 1].out_params;
            if i == ll - 1 && qnet.has_feature_residual() {
                in_params.push(AffineParams {
                    scale: prev.scale * 2.0,
                    zero_point: prev.zero_point,
                });
            } else {
                in_params.push(prev);
            }
        }

        let layers: Vec<QKernelLayer> = qlayers
            .iter()
            .zip(in_params)
            .map(|(l, inp)| {
                let dims = &l.weight.shape;
                let (cout, cin, kh, kw) = (dims[0], dims[1], dims[2], dims[3]);
                assert!(
                    kh <= 2 * HALO + 1 && kw <= 2 * HALO + 1,
                    "kernel too large: {kh}x{kw}"
                );
                let cpin = pairs(cin);
                let taps = kh * cpin * kw;
                let mut taps4 = vec![0i32; cout.div_ceil(4) * taps * 4];
                for o in 0..cout {
                    for ky in 0..kh {
                        for cp in 0..cpin {
                            for kx in 0..kw {
                                let at = |c: usize| {
                                    l.weight.data[((o * cin + c) * kh + ky) * kw + kx] as i32
                                };
                                let lo = at(2 * cp);
                                let hi = if 2 * cp + 1 < cin { at(2 * cp + 1) } else { 0 };
                                let t = (ky * cpin + cp) * kw + kx;
                                taps4[((o / 4) * taps + t) * 4 + o % 4] = pack_pair(lo, hi);
                            }
                        }
                    }
                }
                let scale_io = l.weight.scales.iter().map(|&ws| inp.scale * ws).collect();
                let act = match &l.act {
                    None => QAct::None,
                    Some(Act::Relu) => QAct::Relu,
                    Some(Act::PRelu(a)) => QAct::PRelu(a.data().to_vec()),
                };
                QKernelLayer {
                    cin,
                    cout,
                    kh,
                    kw,
                    cpin,
                    taps4,
                    scale_io,
                    bias: l.bias.clone(),
                    act,
                    out_params: l.out_params,
                }
            })
            .collect();

        assert_eq!(layers[0].cin, 1, "SESR consumes the Y channel");
        let head_cout = layers[ll - 1].cout;
        assert_eq!(head_cout, scale * scale, "head must emit scale^2 channels");
        if qnet.has_feature_residual() {
            assert_eq!(
                layers[ll - 2].cout,
                layers[0].cout,
                "feature residual endpoints must agree on width"
            );
        }
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
            feature_residual: qnet.has_feature_residual(),
            input_residual: qnet.has_input_residual(),
            input_params,
            head_scatter,
            model_bytes: qnet.model_bytes(),
        }
    }

    /// The upscaling factor.
    pub fn scale(&self) -> usize {
        self.scale
    }

    /// Deployed parameter bytes of the underlying quantized model.
    pub fn model_bytes(&self) -> usize {
        self.model_bytes
    }
}

/// Raw `i32` arena pointer shareable across [`parallel_for`] bands.
///
/// # Safety contract
///
/// Same as `sesr_tensor::parallel::SendPtr`: concurrent users must touch
/// disjoint ranges, which the row-band partition guarantees.
#[derive(Clone, Copy)]
struct QSendPtr(*mut i32);

// SAFETY: only used with `parallel_for`, whose bands index disjoint rows.
unsafe impl Send for QSendPtr {}
unsafe impl Sync for QSendPtr {}

impl QSendPtr {
    /// Reborrows `offset..offset + len` as a mutable slice.
    ///
    /// # Safety
    ///
    /// The range must be in bounds and not concurrently accessed.
    #[inline]
    unsafe fn slice_mut<'a>(self, offset: usize, len: usize) -> &'a mut [i32] {
        // SAFETY: range validity and non-aliasing are the caller's
        // contract.
        unsafe { std::slice::from_raw_parts_mut(self.0.add(offset), len) }
    }

    /// Reborrows `offset..offset + len` as a shared slice.
    ///
    /// # Safety
    ///
    /// The range must be in bounds and not concurrently written.
    #[inline]
    unsafe fn slice<'a>(self, offset: usize, len: usize) -> &'a [i32] {
        // SAFETY: range validity and absence of writers are the caller's
        // contract.
        unsafe { std::slice::from_raw_parts(self.0.add(offset), len) }
    }
}

/// Arena buffers, mirroring the float plan's ping-pong dataflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QBuf {
    Input,
    First,
    Ping,
    Pong,
    Output,
}

/// One layer's execution assignment.
#[derive(Debug, Clone, Copy)]
struct QStep {
    layer: usize,
    src: QBuf,
    dst: QBuf,
    /// Fuse the long feature residual (`+ first` on the widened wire)
    /// into this step's requantization.
    add_first: bool,
}

fn make_qsteps(ll: usize, feature_residual: bool) -> Vec<QStep> {
    let mut steps = Vec::with_capacity(ll);
    steps.push(QStep {
        layer: 0,
        src: QBuf::Input,
        dst: QBuf::First,
        add_first: false,
    });
    let mut cur = QBuf::First;
    for i in 1..ll - 1 {
        let dst = if cur == QBuf::Ping {
            QBuf::Pong
        } else {
            QBuf::Ping
        };
        steps.push(QStep {
            layer: i,
            src: cur,
            dst,
            add_first: feature_residual && i == ll - 2,
        });
        cur = dst;
    }
    steps.push(QStep {
        layer: ll - 1,
        src: cur,
        dst: QBuf::Output,
        add_first: false,
    });
    steps
}

/// Where a band's requantized rows go.
enum QSink<'a> {
    /// Pack into an arena plane buffer at `off`.
    Plane { arena: QSendPtr, off: usize },
    /// Pack into `off`, fusing `+ first` on the widened wire first.
    ResidualPlane {
        arena: QSendPtr,
        off: usize,
        first_off: usize,
        /// Layer-0 output wire scale (dequantizes the stored levels).
        first_scale: f32,
        /// The widened wire the residual sum is requantized to.
        wide: AffineParams,
    },
    /// Head: dequantize and depth-to-space scatter into the output image.
    Head {
        out: SendPtr,
        arena: QSendPtr,
        /// Input plane offset when the model adds the input residual.
        input_off: Option<usize>,
        input_scale: f32,
        map: &'a [(usize, usize)],
        scale: usize,
        out_w: usize,
    },
}

/// A compiled, reusable execution plan for one quantized network at one
/// input shape. See the module docs for the datapath and the bit-identity
/// argument; `run*` outputs equal [`QuantizedSesr::run`] exactly.
#[derive(Debug)]
pub struct QuantPlan {
    kernels: Arc<QuantKernels>,
    h: usize,
    w: usize,
    variant: KernelVariant,
    bands: Vec<(usize, usize)>,
    steps: Vec<QStep>,
    /// Per-layer tap offsets for [`Microkernel::qmadd_taps4`], in
    /// `taps4`'s `(ky, cp, kx)` order, relative to padded-plane row `y`
    /// for output row `y` (the kernel centered inside the `HALO` ring).
    tap_offs: Vec<Vec<usize>>,
    /// Single arena: four packed pair-plane buffers (with zeroed halo
    /// rings) followed by per-band accumulator slabs.
    arena: Vec<i32>,
    off_input: usize,
    off_first: usize,
    off_ping: usize,
    off_pong: usize,
    off_slabs: usize,
    /// Five `w`-wide i32 rows per band: four accumulators (one
    /// `qmadd_taps4` output-channel group) plus the head sink's
    /// dequantized-value scratch (reused as f32 bits).
    slab_len: usize,
}

impl QuantPlan {
    /// Compiles a plan using one band per configured thread.
    ///
    /// # Panics
    ///
    /// As [`QuantPlan::with_bands`].
    pub fn new(kernels: Arc<QuantKernels>, h: usize, w: usize) -> Self {
        let n = num_threads();
        Self::with_bands(kernels, h, w, n)
    }

    /// Compiles a plan with an explicit band count (1 disables intra-layer
    /// parallelism — used by tile executors that parallelize over tiles).
    ///
    /// # Panics
    ///
    /// Panics on a degenerate shape or zero bands.
    pub fn with_bands(kernels: Arc<QuantKernels>, h: usize, w: usize, nbands: usize) -> Self {
        assert!(h > 0 && w > 0, "degenerate input {h}x{w}");
        assert!(nbands > 0, "need at least one band");
        let bands = make_bands(h, nbands);
        let ll = kernels.layers.len();
        let steps = make_qsteps(ll, kernels.feature_residual);
        let plane = (h + 2 * HALO) * (w + 2 * HALO);
        let first_pairs = pairs(kernels.layers[0].cout);
        let mid_pairs = kernels.layers[1..ll - 1]
            .iter()
            .map(|l| pairs(l.cout))
            .max()
            .expect("at least one middle layer");
        let slab_len = 5 * w;
        let pw = w + 2 * HALO;
        let tap_offs = kernels
            .layers
            .iter()
            .map(|l| {
                let (top, left) = (HALO - (l.kh - 1) / 2, HALO - (l.kw - 1) / 2);
                let mut offs = Vec::with_capacity(l.kh * l.cpin * l.kw);
                for ky in 0..l.kh {
                    for cp in 0..l.cpin {
                        for kx in 0..l.kw {
                            offs.push(cp * plane + (ky + top) * pw + kx + left);
                        }
                    }
                }
                offs
            })
            .collect();
        let off_input = 0;
        let off_first = off_input + plane;
        let off_ping = off_first + first_pairs * plane;
        let off_pong = off_ping + mid_pairs * plane;
        let off_slabs = off_pong + mid_pairs * plane;
        let total = off_slabs + bands.len() * slab_len;
        Self {
            kernels,
            h,
            w,
            variant: kernel_variant(),
            bands,
            steps,
            tap_offs,
            // Zero-filled arena: plane interiors are overwritten every
            // run; the halo rings stay zero forever — that is the
            // padding argument.
            arena: vec![0i32; total],
            off_input,
            off_first,
            off_ping,
            off_pong,
            off_slabs,
            slab_len,
        }
    }

    /// The planned `(h, w)` input shape.
    pub fn shape(&self) -> (usize, usize) {
        (self.h, self.w)
    }

    /// The kernel variant this plan dispatches to.
    pub fn variant(&self) -> KernelVariant {
        self.variant
    }

    /// Pins the kernel variant (testing / variant sweeps), returning the
    /// previous one. Any variant produces identical output bits: the
    /// integer kernel is exact and the epilogues reproduce the scalar
    /// chain by construction.
    pub fn set_variant(&mut self, v: KernelVariant) -> KernelVariant {
        std::mem::replace(&mut self.variant, v)
    }

    /// The shared preprocessed kernels.
    pub fn kernels(&self) -> &Arc<QuantKernels> {
        &self.kernels
    }

    /// Arena footprint in bytes (telemetry).
    pub fn arena_bytes(&self) -> usize {
        self.arena.len() * std::mem::size_of::<i32>()
    }

    /// Number of row bands.
    pub fn num_bands(&self) -> usize {
        self.bands.len()
    }

    fn buf_off(&self, b: QBuf) -> usize {
        match b {
            QBuf::Input => self.off_input,
            QBuf::First => self.off_first,
            QBuf::Ping => self.off_ping,
            QBuf::Pong => self.off_pong,
            QBuf::Output => unreachable!("output is not an arena buffer"),
        }
    }

    /// Number of execution steps (one per layer) — the length
    /// [`QuantPlan::run_image_into_timed`] expects.
    pub fn num_steps(&self) -> usize {
        self.steps.len()
    }

    /// Super-resolves one `h x w` luma plane into `out` (length
    /// `h*s * w*s`), allocating nothing.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths disagree with the planned shape.
    pub fn run_image_into(&mut self, input: &[f32], out: &mut [f32]) {
        self.run_steps(input, out, None);
    }

    /// [`QuantPlan::run_image_into`] with per-layer wall-time accumulation
    /// (nanoseconds added to `layer_nanos[i]` for step `i`; step 0 also
    /// carries the input quantization it consumes). Bench-only; same
    /// output bits.
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
        // Each step's slot gets the time since the previous mark, so step 0
        // also carries the input quantization.
        let mut mark = timings.is_some().then(Instant::now);
        let mk = microkernel(self.variant);
        let arena = QSendPtr(self.arena.as_mut_ptr());
        let out_ptr = SendPtr(out.as_mut_ptr());
        let pw = w + 2 * HALO;
        let plane = (h + 2 * HALO) * pw;
        let bands = &self.bands;
        let ip = self.kernels.input_params;
        let off_input = self.off_input;

        // Quantize the input onto its wire, zero-point subtracted, into
        // the low lane of the single input pair-plane (high lane zero:
        // there is no channel 1).
        parallel_for(bands.len(), 1, |b0, b1| {
            for &(y0, y1) in &bands[b0..b1] {
                for y in y0..y1 {
                    // SAFETY: bands partition rows; each row has one writer.
                    let drow = unsafe { arena.slice_mut(off_input + (y + HALO) * pw + HALO, w) };
                    mk.qquantize_row(&input[y * w..(y + 1) * w], drow, ip.scale, ip.zero_point);
                }
            }
        });

        let (off_slabs, slab_len) = (self.off_slabs, self.slab_len);
        for (si, step) in self.steps.iter().enumerate() {
            let lay = &self.kernels.layers[step.layer];
            let offs = &self.tap_offs[step.layer];
            let src_off = self.buf_off(step.src);
            let src_len = lay.cpin * plane;
            let sink = match step.dst {
                QBuf::Output => QSink::Head {
                    out: out_ptr,
                    arena,
                    input_off: self.kernels.input_residual.then_some(self.off_input),
                    input_scale: ip.scale,
                    map: &self.kernels.head_scatter,
                    scale: s,
                    out_w: w * s,
                },
                b if step.add_first => QSink::ResidualPlane {
                    arena,
                    off: self.buf_off(b),
                    first_off: self.off_first,
                    first_scale: self.kernels.layers[0].out_params.scale,
                    wide: AffineParams {
                        scale: lay.out_params.scale * 2.0,
                        zero_point: lay.out_params.zero_point,
                    },
                },
                b => QSink::Plane {
                    arena,
                    off: self.buf_off(b),
                },
            };
            parallel_for(bands.len(), 1, |b0, b1| {
                // SAFETY: the source buffer was fully written by a
                // previous step (steps are separated by parallel_for
                // joins) and no band writes it during this step — the
                // ping-pong assignment keeps src and dst disjoint.
                let src = unsafe { arena.slice(src_off, src_len) };
                for (bi, &(y0, y1)) in bands.iter().enumerate().take(b1).skip(b0) {
                    // SAFETY: slabs are disjoint per band and bands are
                    // assigned whole to closure calls.
                    let slab = unsafe { arena.slice_mut(off_slabs + bi * slab_len, slab_len) };
                    qconv_band(mk, lay, offs, src, w, plane, y0, y1, slab, &sink);
                }
            });
            if let (Some(t), Some(m)) = (timings.as_deref_mut(), mark.as_mut()) {
                let now = Instant::now();
                t[si] += (now - *m).as_nanos() as u64;
                *m = now;
            }
        }
    }

    /// Super-resolves a `[1, h, w]` luma image through the plan.
    /// Allocates only the returned tensor.
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

    /// Super-resolves a `[N, 1, h, w]` batch, reusing the single arena
    /// across all `N` images.
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

/// The requantize-to-wire constants for output channel `o` — the values
/// the scalar epilogue closures historically read, handed to the
/// `Microkernel` row epilogues verbatim.
fn epilogue(lay: &QKernelLayer, o: usize) -> QuantEpilogue {
    QuantEpilogue {
        scale_io: lay.scale_io[o],
        bias: lay.bias[o],
        act: match &lay.act {
            QAct::None => RowAct::Linear,
            QAct::Relu => RowAct::Relu,
            QAct::PRelu(a) => RowAct::PRelu(a[o]),
        },
        out_scale: lay.out_params.scale,
        zero_point: lay.out_params.zero_point,
    }
}

/// Runs one layer over one row band: integer accumulation via
/// [`Microkernel::qmadd_taps4`] — one whole-window call per output row and
/// four-channel group, reading the taps at `offs` from the row's base in
/// the padded planes — then the vectorized requantization row epilogue
/// selected by `sink`, one output-channel pair at a time so plane sinks
/// write whole packed words.
#[allow(clippy::too_many_arguments)]
fn qconv_band(
    mk: &dyn Microkernel,
    lay: &QKernelLayer,
    offs: &[usize],
    src: &[i32],
    w: usize,
    plane: usize,
    y0: usize,
    y1: usize,
    slab: &mut [i32],
    sink: &QSink<'_>,
) {
    let pw = w + 2 * HALO;
    let (accs, vals_raw) = slab.split_at_mut(4 * w);
    // The head sink's dequantized-value scratch, reinterpreted as f32.
    // SAFETY: i32 and f32 share size and alignment; the slab is
    // band-private and `vals_raw` is never read as i32.
    let vals: &mut [f32] =
        unsafe { std::slice::from_raw_parts_mut(vals_raw.as_mut_ptr() as *mut f32, w) };

    for y in y0..y1 {
        // Every tap of row `y` lies in the plane or its zero ring (see the
        // module docs), so the whole window runs from the row base; ring
        // taps add exactly 0, as the oracle's skipped taps do.
        let row = &src[y * pw..];
        for (g, ws) in lay.taps4.chunks_exact(4 * offs.len()).enumerate() {
            let lanes = (lay.cout - 4 * g).min(4);
            let acc = &mut accs[..lanes * w];
            mk.qmadd_taps4(acc, w, ws, offs, row);
            for p in (0..lanes).step_by(2) {
                let oi = 4 * g + p;
                let acc0 = &acc[p * w..(p + 1) * w];
                // A lone trailing channel packs a zero high lane and never
                // reads `acc1`.
                let (acc1, e1) = if p + 1 < lanes {
                    (&acc[(p + 1) * w..(p + 2) * w], Some(epilogue(lay, oi + 1)))
                } else {
                    (acc0, None)
                };
                let e0 = epilogue(lay, oi);
                match *sink {
                    QSink::Plane { arena, off } => {
                        // SAFETY: bands partition rows, one writer per row.
                        let drow = unsafe {
                            arena.slice_mut(off + (oi / 2) * plane + (y + HALO) * pw + HALO, w)
                        };
                        mk.qrequant_pack_row(acc0, acc1, drow, &e0, e1.as_ref());
                    }
                    QSink::ResidualPlane {
                        arena,
                        off,
                        first_off,
                        first_scale,
                        wide,
                    } => {
                        // SAFETY: `first` was written by step 0 and is never
                        // a destination afterwards; `dst` rows have one
                        // writer.
                        let frow = unsafe {
                            arena.slice(first_off + (oi / 2) * plane + (y + HALO) * pw + HALO, w)
                        };
                        let drow = unsafe {
                            arena.slice_mut(off + (oi / 2) * plane + (y + HALO) * pw + HALO, w)
                        };
                        // Residual at wire precision: dequantize both
                        // operands, add, requantize to the widened wire —
                        // the oracle's `a.add(&b)` path, lane for lane.
                        mk.qresidual_pack_row(
                            acc0,
                            acc1,
                            frow,
                            drow,
                            &e0,
                            e1.as_ref(),
                            first_scale,
                            wide.scale,
                            wide.zero_point,
                        );
                    }
                    QSink::Head {
                        out,
                        arena,
                        input_off,
                        input_scale,
                        map,
                        scale,
                        out_w,
                    } => {
                        // SAFETY: the input plane was written before step 0
                        // and never again.
                        let irow = input_off
                            .map(|io| unsafe { arena.slice(io + (y + HALO) * pw + HALO, w) });
                        for (o, acc, e) in [(oi, acc0, Some(e0)), (oi + 1, acc1, e1)] {
                            let Some(e) = e else { continue };
                            // Output leaves on the head wire: quantize, then
                            // hand callers the dequantized levels — exactly
                            // the oracle's `qy.dequantize()`.
                            mk.qhead_row(acc, irow.map(|ir| (ir, input_scale)), vals, &e);
                            let (ry, rx) = map[o];
                            let row_base = (scale * y + ry) * out_w + rx;
                            for (x, &outv) in vals.iter().enumerate() {
                                // SAFETY: bands are disjoint in y, so output
                                // rows `scale*y + ry` are disjoint too.
                                unsafe { out.write(row_base + scale * x, outv) };
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Lazily builds and caches one [`QuantPlan`] per tile shape — the int8
/// counterpart of `sesr_core::infer_plan::TilePlanner`, with the same
/// bounded LRU policy. Tile executors parallelize over tiles, so cached
/// plans use a single band. Quantization parameters are fixed per model
/// (calibrated once), so tiles composite exactly like the float path.
#[derive(Debug)]
pub struct QuantTilePlanner {
    kernels: Arc<QuantKernels>,
    /// Most-recently-used first.
    plans: Vec<QuantPlan>,
    cap: usize,
    evictions: u64,
}

impl QuantTilePlanner {
    /// Default bound on cached tile shapes (matches the float planner).
    pub const DEFAULT_CAP: usize = 8;

    /// Creates an empty planner over shared kernels.
    pub fn new(kernels: Arc<QuantKernels>) -> Self {
        Self::with_capacity(kernels, Self::DEFAULT_CAP)
    }

    /// Creates an empty planner holding at most `cap` tile shapes.
    ///
    /// # Panics
    ///
    /// When `cap` is zero.
    pub fn with_capacity(kernels: Arc<QuantKernels>, cap: usize) -> Self {
        assert!(cap > 0, "tile-plan cache capacity must be positive");
        Self {
            kernels,
            plans: Vec::new(),
            cap,
            evictions: 0,
        }
    }

    /// The plan for an `h x w` tile, building it on first use (LRU).
    pub fn plan_for(&mut self, h: usize, w: usize) -> &mut QuantPlan {
        if let Some(i) = self.plans.iter().position(|p| p.shape() == (h, w)) {
            let plan = self.plans.remove(i);
            self.plans.insert(0, plan);
        } else {
            if self.plans.len() == self.cap {
                self.plans.pop();
                self.evictions += 1;
            }
            self.plans
                .insert(0, QuantPlan::with_bands(self.kernels.clone(), h, w, 1));
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
    pub fn run_tile(&mut self, lr: &Tensor, spec: &sesr_core::TileSpec) -> Tensor {
        let patch = lr.crop_hw(spec.ey0, spec.ey1, spec.ex0, spec.ex1);
        let dims = patch.shape();
        self.plan_for(dims[1], dims[2]).run(&patch)
    }

    /// Largest arena across the cached plans (telemetry).
    pub fn max_arena_bytes(&self) -> usize {
        self.plans
            .iter()
            .map(QuantPlan::arena_bytes)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::calibrate;
    use sesr_core::collapsed::CollapsedSesr;
    use sesr_core::model::{Sesr, SesrConfig};
    use sesr_data::synth::{generate, Family};
    use sesr_tensor::simd::detected_variants;

    fn quantized(m: usize, scale: usize, seed: u64) -> (CollapsedSesr, QuantizedSesr) {
        let expanded = if scale == 4 { 4 } else { 8 };
        let net = Sesr::new(
            SesrConfig::m(m)
                .with_expanded(expanded)
                .with_scale(scale)
                .with_seed(seed),
        )
        .collapse();
        let calib: Vec<Tensor> = (0..3)
            .map(|i| generate(Family::Mixed, 24, 20, 90 + i))
            .collect();
        let profile = calibrate(&net, &calib);
        let qnet = QuantizedSesr::quantize(&net, &profile);
        (net, qnet)
    }

    /// Synthetic LR at arbitrary (possibly < 16 or odd) dims.
    fn lr_image(family: Family, h: usize, w: usize, seed: u64) -> Tensor {
        generate(family, h.max(16), w.max(16), seed).crop_hw(0, h, 0, w)
    }

    fn assert_bit_identical(qnet: &QuantizedSesr, h: usize, w: usize, nbands: usize, seed: u64) {
        let lr = lr_image(Family::Urban, h, w, seed);
        let want = qnet.run(&lr);
        let kernels = Arc::new(QuantKernels::new(qnet));
        let mut plan = QuantPlan::with_bands(kernels, h, w, nbands);
        let got = plan.run(&lr);
        assert_eq!(want.shape(), got.shape());
        let exact = want
            .data()
            .iter()
            .zip(got.data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(exact, "planned int8 output diverged from the oracle");
    }

    #[test]
    fn plan_matches_oracle_x2() {
        let (_, qnet) = quantized(2, 2, 7);
        assert_bit_identical(&qnet, 17, 13, 1, 1);
        assert_bit_identical(&qnet, 24, 31, 3, 2);
    }

    #[test]
    fn plan_matches_oracle_x4() {
        let (_, qnet) = quantized(1, 4, 11);
        assert_bit_identical(&qnet, 19, 23, 2, 3);
    }

    #[test]
    fn plan_matches_oracle_across_band_counts_and_variants() {
        let (_, qnet) = quantized(2, 2, 5);
        let kernels = Arc::new(QuantKernels::new(&qnet));
        let lr = generate(Family::Detail, 21, 18, 4);
        let want = qnet.run(&lr);
        for nbands in [1, 2, 5, 16] {
            let mut plan = QuantPlan::with_bands(kernels.clone(), 21, 18, nbands);
            for &v in detected_variants() {
                plan.set_variant(v);
                let got = plan.run(&lr);
                let exact = want
                    .data()
                    .iter()
                    .zip(got.data())
                    .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(exact, "bands={nbands} variant={v:?} diverged");
            }
        }
    }

    #[test]
    fn batch_reuses_arena_and_matches_oracle() {
        let (_, qnet) = quantized(1, 2, 9);
        let kernels = Arc::new(QuantKernels::new(&qnet));
        let mut plan = QuantPlan::new(kernels, 12, 14);
        let imgs: Vec<Tensor> = (0..3)
            .map(|i| lr_image(Family::Smooth, 12, 14, 40 + i))
            .collect();
        let refs: Vec<&Tensor> = imgs.iter().collect();
        let batch = Tensor::stack(&refs);
        let out = plan.run_batch(&batch);
        assert_eq!(out.shape(), &[3, 1, 24, 28]);
        for (i, img) in imgs.iter().enumerate() {
            let want = qnet.run(img);
            let got = &out.data()[i * 24 * 28..(i + 1) * 24 * 28];
            assert!(want
                .data()
                .iter()
                .zip(got)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn tile_planner_composites_bitwise() {
        let (net, qnet) = quantized(2, 2, 13);
        let kernels = Arc::new(QuantKernels::new(&qnet));
        let lr = generate(Family::Natural, 33, 29, 6);
        let want = qnet.run(&lr);
        let overlap = net.receptive_field_radius();
        let plan = net.plan_tiles(33, 29, 16, overlap).unwrap();
        let mut tp = QuantTilePlanner::new(kernels);
        let mut out = Tensor::zeros(&[1, 66, 58]);
        let s = 2;
        for spec in plan.tiles() {
            let sr = tp.run_tile(&lr, spec);
            let sr_w = spec.patch_w() * s;
            for y in spec.y0 * s..spec.y1 * s {
                let py = y - spec.ey0 * s;
                for x in spec.x0 * s..spec.x1 * s {
                    let px = x - spec.ex0 * s;
                    out.data_mut()[y * 58 + x] = sr.data()[py * sr_w + px];
                }
            }
        }
        let exact = want
            .data()
            .iter()
            .zip(out.data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(
            exact,
            "tiled int8 output diverged from the whole-image oracle"
        );
    }

    #[test]
    fn tile_planner_lru_evicts_like_float_planner() {
        let (_, qnet) = quantized(1, 2, 3);
        let kernels = Arc::new(QuantKernels::new(&qnet));
        let mut tp = QuantTilePlanner::with_capacity(kernels, 2);
        tp.plan_for(8, 8);
        tp.plan_for(8, 10);
        tp.plan_for(8, 8); // refresh
        tp.plan_for(8, 12); // evicts (8, 10)
        assert_eq!(tp.cached_plans(), 2);
        assert_eq!(tp.evictions(), 1);
        tp.plan_for(8, 10); // rebuild after eviction
        assert_eq!(tp.evictions(), 2);
    }

    #[test]
    fn timed_run_matches_untimed_and_fills_every_slot() {
        let (_, qnet) = quantized(2, 2, 17);
        let kernels = Arc::new(QuantKernels::new(&qnet));
        let lr = lr_image(Family::Urban, 15, 19, 8);
        let mut plan = QuantPlan::with_bands(kernels, 15, 19, 2);
        assert_eq!(plan.num_steps(), qnet.layers().len());
        let want = plan.run(&lr);
        let mut out = vec![0.0f32; want.data().len()];
        let mut nanos = vec![0u64; plan.num_steps()];
        plan.run_image_into_timed(lr.data(), &mut out, &mut nanos);
        assert!(want
            .data()
            .iter()
            .zip(&out)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(nanos.iter().all(|&n| n > 0), "{nanos:?}");
        // Slots accumulate across runs.
        let first = nanos.clone();
        plan.run_image_into_timed(lr.data(), &mut out, &mut nanos);
        assert!(nanos.iter().zip(&first).all(|(b, a)| b > a));
    }

    #[test]
    #[should_panic(expected = "one slot per layer")]
    fn timed_run_rejects_a_wrong_slot_count() {
        let (_, qnet) = quantized(1, 2, 19);
        let mut plan = QuantPlan::with_bands(Arc::new(QuantKernels::new(&qnet)), 8, 8, 1);
        let mut out = vec![0.0f32; 16 * 16];
        plan.run_image_into_timed(&[0.5; 64], &mut out, &mut [0u64; 1]);
    }

    #[test]
    fn arena_is_single_allocation_sized_to_shape() {
        let (_, qnet) = quantized(1, 2, 21);
        let kernels = Arc::new(QuantKernels::new(&qnet));
        let plan = QuantPlan::with_bands(kernels.clone(), 16, 16, 2);
        let bigger = QuantPlan::with_bands(kernels, 32, 32, 2);
        assert!(plan.arena_bytes() > 0);
        assert!(bigger.arena_bytes() > plan.arena_bytes());
    }
}
