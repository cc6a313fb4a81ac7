//! The int8 datapath of the planned executor.
//!
//! [`QuantKernels`] preprocesses a [`QuantizedSesr`] once (weight packing,
//! wire-parameter chaining, layer graph) and implements [`Datapath`], so
//! [`QuantPlan`] and [`QuantTilePlanner`] are the `sesr_core::infer_plan`
//! skeleton — row bands, steps, arena, timing hook, tile LRU — over a
//! pre-sized `i32` arena with zero steady-state allocations. This module
//! supplies only the integer parts: packed-pair planes with a zero ring,
//! input quantization, and the band kernel with its requantizing sinks.
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
use sesr_core::infer_plan::{Datapath, LayerGraph, LayerShape, Plan, StepIo, TilePlanner};
use sesr_tensor::parallel::{parallel_for, SendPtr};
use sesr_tensor::simd::{Microkernel, QuantEpilogue, RowAct};

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

/// Elements of one padded pair-plane of an `h x w` activation.
fn plane_len(h: usize, w: usize) -> usize {
    (h + 2 * HALO) * (w + 2 * HALO)
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

/// One layer, preprocessed for planned integer execution (its shape lives
/// in the [`LayerGraph`]).
#[derive(Debug, Clone)]
struct QKernelLayer {
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

/// A quantized network preprocessed for planned execution — the int8
/// datapath: packed weights, chained wire parameters, and the layer
/// graph. Immutable and shared (`Arc`) across plans, threads, and tile
/// shapes.
#[derive(Debug)]
pub struct QuantKernels {
    layers: Vec<QKernelLayer>,
    graph: LayerGraph,
    input_params: AffineParams,
}

/// The int8 planned executor. See the module docs for the datapath and
/// the bit-identity argument; `run*` outputs equal [`QuantizedSesr::run`]
/// exactly, on every kernel variant.
pub type QuantPlan = Plan<QuantKernels>;

/// The int8 tile planner: one cached single-band [`QuantPlan`] per tile
/// shape, under the same bounded LRU as the f32 planner.
pub type QuantTilePlanner = TilePlanner<QuantKernels>;

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

        let mut shapes = Vec::with_capacity(ll);
        let layers = qlayers
            .iter()
            .zip(in_params)
            .map(|(l, inp)| {
                let dims = &l.weight.shape;
                let (cout, cin, kh, kw) = (dims[0], dims[1], dims[2], dims[3]);
                assert!(
                    kh <= 2 * HALO + 1 && kw <= 2 * HALO + 1,
                    "kernel too large: {kh}x{kw}"
                );
                shapes.push(LayerShape { cin, cout, kh, kw });
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
                    taps4,
                    scale_io,
                    bias: l.bias.clone(),
                    act,
                    out_params: l.out_params,
                }
            })
            .collect();

        assert_eq!(shapes[0].cin, 1, "SESR consumes the Y channel");
        if qnet.has_feature_residual() {
            assert_eq!(
                shapes[ll - 2].cout,
                shapes[0].cout,
                "feature residual endpoints must agree on width"
            );
        }
        let graph = LayerGraph::new(
            shapes,
            qnet.scale(),
            qnet.has_feature_residual(),
            qnet.has_input_residual(),
        );
        Self {
            layers,
            graph,
            input_params,
        }
    }
}

impl Datapath for QuantKernels {
    type Elem = i32;
    const STAGES_INPUT: bool = true;

    fn graph(&self) -> &LayerGraph {
        &self.graph
    }

    /// Packed channel pairs, each a padded plane with its zero ring.
    fn buffer_len(c: usize, h: usize, w: usize) -> usize {
        pairs(c) * plane_len(h, w)
    }

    /// Five `w`-wide rows: four accumulators (one `qmadd_taps4`
    /// output-channel group) plus the head sink's dequantized-value
    /// scratch (reused as f32 bits).
    fn slab_len(&self, _h: usize, w: usize) -> usize {
        5 * w
    }

    /// Tap offsets for [`Microkernel::qmadd_taps4`], in `taps4`'s
    /// `(ky, cp, kx)` order, relative to padded-plane row `y` for output
    /// row `y` (the kernel centered inside the `HALO` ring).
    fn tap_offsets(&self, layer: usize, h: usize, w: usize) -> Vec<usize> {
        let l = self.graph.layers()[layer];
        let (plane, pw, cpin) = (plane_len(h, w), w + 2 * HALO, pairs(l.cin));
        let (top, left) = (HALO - (l.kh - 1) / 2, HALO - (l.kw - 1) / 2);
        let mut offs = Vec::with_capacity(l.kh * cpin * l.kw);
        for ky in 0..l.kh {
            for cp in 0..cpin {
                for kx in 0..l.kw {
                    offs.push(cp * plane + (ky + top) * pw + kx + left);
                }
            }
        }
        offs
    }

    /// Quantizes the input onto its wire, zero-point subtracted, into the
    /// low lane of the single input pair-plane (high lane zero: there is
    /// no channel 1).
    fn stage_input<'a>(
        &self,
        mk: &dyn Microkernel,
        input: &'a [f32],
        staged: &'a mut [i32],
        bands: &[(usize, usize)],
        w: usize,
    ) -> &'a [i32] {
        let ip = self.input_params;
        let pw = w + 2 * HALO;
        let dst = SendPtr(staged.as_mut_ptr());
        parallel_for(bands.len(), 1, |b0, b1| {
            for &(y0, y1) in &bands[b0..b1] {
                for y in y0..y1 {
                    // SAFETY: bands partition rows; each row has one writer.
                    let drow = unsafe { dst.slice_mut((y + HALO) * pw + HALO, w) };
                    mk.qquantize_row(&input[y * w..(y + 1) * w], drow, ip.scale, ip.zero_point);
                }
            }
        });
        staged
    }

    fn run_band(
        &self,
        mk: &dyn Microkernel,
        io: &StepIo<'_, i32>,
        y0: usize,
        y1: usize,
        slab: &mut [i32],
    ) {
        let lay = &self.layers[io.layer];
        let s = self.graph.scale();
        let sink = match (io.dst, io.first) {
            (None, _) => QSink::Head {
                out: io.out,
                input: io.input,
                input_scale: self.input_params.scale,
                map: self.graph.head_scatter(),
                scale: s,
                out_w: io.w * s,
            },
            (Some(off), Some(first)) => QSink::ResidualPlane {
                arena: io.arena,
                off,
                first,
                first_scale: self.layers[0].out_params.scale,
                wide: AffineParams {
                    scale: lay.out_params.scale * 2.0,
                    zero_point: lay.out_params.zero_point,
                },
            },
            (Some(off), None) => QSink::Plane {
                arena: io.arena,
                off,
            },
        };
        let cout = self.graph.layers()[io.layer].cout;
        let plane = plane_len(io.h, io.w);
        qconv_band(
            mk, lay, cout, io.offs, io.src, io.w, plane, y0, y1, slab, &sink,
        );
    }
}

/// Where a band's requantized rows go.
enum QSink<'a> {
    /// Pack into an arena plane buffer at `off`.
    Plane { arena: SendPtr<i32>, off: usize },
    /// Pack into `off`, fusing `+ first` on the widened wire first.
    ResidualPlane {
        arena: SendPtr<i32>,
        off: usize,
        /// Layer 0's output planes.
        first: &'a [i32],
        /// Layer-0 output wire scale (dequantizes the stored levels).
        first_scale: f32,
        /// The widened wire the residual sum is requantized to.
        wide: AffineParams,
    },
    /// Head: dequantize and depth-to-space scatter into the output image.
    Head {
        out: SendPtr,
        /// The staged input plane when the model adds the input residual.
        input: Option<&'a [i32]>,
        input_scale: f32,
        map: &'a [(usize, usize)],
        scale: usize,
        out_w: usize,
    },
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
    cout: usize,
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
            let lanes = (cout - 4 * g).min(4);
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
                        first,
                        first_scale,
                        wide,
                    } => {
                        let frow = &first[(oi / 2) * plane + (y + HALO) * pw + HALO..][..w];
                        // SAFETY: bands partition rows, one writer per row.
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
                        input,
                        input_scale,
                        map,
                        scale,
                        out_w,
                    } => {
                        let irow = input.map(|inp| &inp[(y + HALO) * pw + HALO..][..w]);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::calibrate;
    use sesr_core::collapsed::CollapsedSesr;
    use sesr_core::model::{Sesr, SesrConfig};
    use sesr_core::tiling::paste_interior;
    use sesr_data::synth::{generate, Family};
    use sesr_tensor::simd::detected_variants;
    use sesr_tensor::Tensor;
    use std::sync::Arc;

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
        for spec in plan.tiles() {
            paste_interior(&mut out, &tp.run_tile(&lr, spec), spec, 2);
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
    fn arena_is_single_allocation_sized_to_shape() {
        let (_, qnet) = quantized(1, 2, 21);
        let kernels = Arc::new(QuantKernels::new(&qnet));
        let plan = QuantPlan::with_bands(kernels.clone(), 16, 16, 2);
        let bigger = QuantPlan::with_bands(kernels, 32, 32, 2);
        assert!(plan.arena_bytes() > 0);
        assert!(bigger.arena_bytes() > plan.arena_bytes());
    }
}
