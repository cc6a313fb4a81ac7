//! The int8 datapath of the planned executor.
//!
//! [`QuantKernels`] preprocesses a [`QuantizedSesr`] once (weight packing,
//! wire-parameter chaining, layer graph) and implements [`Datapath`], so
//! [`QuantPlan`] and [`QuantTilePlanner`] are the `sesr_core::infer_plan`
//! skeleton — depth-first row groups, row rings, bands, timing hook, tile
//! LRU — over a pre-sized `i32` arena with zero steady-state allocations.
//! This module supplies only the integer parts: packed-pair rings with
//! zero borders, input quantization into the input ring, and the band
//! kernel with its requantizing sinks.
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
//! - zero padding is *universally* the value `0` for every wire, so every
//!   stored row carries [`HALO`] zero columns on either side, written
//!   once at construction, and the rows past the image's top and bottom
//!   edges are stored as zero rows, rewritten each run by the bands that
//!   touch those edges. Border taps read them and contribute exactly `0`
//!   to the `i32` accumulator — bit-identical to the oracle's
//!   skip-out-of-bounds loop, with no branches in the hot path.
//!
//! Each activation is a rolling ring of such padded rows per channel pair
//! (see `QRing`): the plan streams the chain a row group at a time, so
//! a ring holds only the rows its consumers still read. The ring's lowest
//! `window - 1` slots are mirrored past its period, so every consumer
//! window is contiguous from its first slot wherever the ring wraps. No
//! kernel is taller or wider than `2 * HALO + 1`, so every tap of every
//! output pixel — border rows included — lands on an image row or a zero
//! row and column. The whole `kh x cpin x kw` window therefore runs from
//! one row base plus a per-layer tap-offset table built once at plan
//! compile, with no per-row gather and no border special case: a zero tap
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
//! the head's dequantize + depth-to-space interleave — replicates
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
use sesr_core::infer_plan::{
    depth_to_space_row, Band, Datapath, LayerGraph, LayerShape, Plan, Ring, RingRef, StepIo,
    TilePlanner,
};
use sesr_tensor::parallel::SendPtr;
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
    const ZERO_ROWS: usize = HALO;

    fn graph(&self) -> &LayerGraph {
        &self.graph
    }

    /// Packed channel pairs, each a ring of padded rows with its zero
    /// columns and mirrored window rows ([`QRing`]).
    fn ring_len(c: usize, period: usize, window: usize, w: usize) -> usize {
        pairs(c) * ring_plane(period, window, w)
    }

    /// Four `w`-wide accumulator rows (one `qmadd_taps4` output-channel
    /// group) plus the head's dequantized rows, one per head channel
    /// (reused as f32 bits).
    fn slab_len(&self, w: usize) -> usize {
        let head = self.graph.layers().last().map_or(0, |l| l.cout);
        (4 + head) * w
    }

    fn state_len(&self, _layer: usize, _w: usize) -> usize {
        0
    }

    fn input_rows<'a>(_input: &'a [f32], staged: &'a [i32]) -> &'a [i32] {
        staged
    }

    /// Tap offsets for [`Microkernel::qmadd_taps4`], in `taps4`'s
    /// `(ky, cp, kx)` order, relative to the first padded row of the
    /// output row's window in a source ring of `period` rows read through
    /// `window`-row windows.
    fn tap_offsets(&self, layer: usize, period: usize, window: usize, w: usize) -> Vec<usize> {
        let l = self.graph.layers()[layer];
        let (plane, pw, cpin) = (ring_plane(period, window, w), w + 2 * HALO, pairs(l.cin));
        let left = HALO - (l.kw - 1) / 2;
        let mut offs = Vec::with_capacity(l.kh * cpin * l.kw);
        for ky in 0..l.kh {
            for cp in 0..cpin {
                for kx in 0..l.kw {
                    offs.push(cp * plane + ky * pw + kx + left);
                }
            }
        }
        offs
    }

    /// Quantizes input rows onto the input wire, zero-point subtracted,
    /// into the low lane of the input ring's single pair plane (high lane
    /// zero: there is no channel 1).
    fn stage_rows(
        &self,
        mk: &dyn Microkernel,
        input: &[f32],
        arena: SendPtr<i32>,
        ring: Ring,
        h: usize,
        w: usize,
        y0: usize,
        y1: usize,
    ) {
        let ip = self.input_params;
        let dst = QRing::new(arena, ring, w);
        for y in y0..y1 {
            // SAFETY: bands partition rows, and a group's rows land on
            // distinct ring slots; each row has one writer.
            unsafe {
                dst.put(0, y, |drow| {
                    mk.qquantize_row(&input[y * w..][..w], drow, ip.scale, ip.zero_point)
                });
            }
        }
        // SAFETY: as above; only the bands touching an image edge write
        // the zero rows past it.
        unsafe { dst.zero_edges(1, y0, y1, h) };
    }

    fn run_band(
        &self,
        mk: &dyn Microkernel,
        io: &StepIo<'_, i32>,
        band: Band,
        slab: &mut [i32],
        _state: &mut [i32],
    ) {
        let lay = &self.layers[io.layer];
        let s = self.graph.scale();
        let dst = io.dst.map(|ring| QRing::new(io.arena, ring, io.w));
        let sink = match (dst, io.first) {
            (None, _) => QSink::Head {
                out: io.out,
                input: io.input,
                input_scale: self.input_params.scale,
                graph: &self.graph,
                out_w: io.w * s,
            },
            (Some(ring), Some(first)) => QSink::ResidualPlane {
                ring,
                first,
                first_scale: self.layers[0].out_params.scale,
                wide: AffineParams {
                    scale: lay.out_params.scale * 2.0,
                    zero_point: lay.out_params.zero_point,
                },
            },
            (Some(ring), None) => QSink::Plane { ring },
        };
        let shape = self.graph.layers()[io.layer];
        qconv_band(mk, lay, shape, io.offs, &io.src, io.w, band, slab, &sink);
        if let Some(ring) = dst {
            // SAFETY: only the bands touching an image edge write the
            // zero rows past it, on slots no other band of the group
            // writes.
            unsafe { ring.zero_edges(pairs(shape.cout), band.y0, band.y1, io.h) };
        }
    }
}

/// Elements of one pair plane of an int8 ring: `period` padded rows plus
/// `window - 1` mirrored ones, each `w + 2 * HALO` wide.
fn ring_plane(period: usize, window: usize, w: usize) -> usize {
    (period + window - 1) * (w + 2 * HALO)
}

/// Row `y`'s `w` interior levels in pair plane `cp` of an int8 ring.
fn qrow<'a>(r: &RingRef<'a, i32>, cp: usize, y: usize, w: usize) -> &'a [i32] {
    let plane = ring_plane(r.period, r.window, w);
    &r.data[cp * plane + ((y + HALO) % r.period) * (w + 2 * HALO) + HALO..][..w]
}

/// Write access to an int8 ring in the arena. Padded row `py = y + HALO`
/// lives in slot `py % period`; the `window - 1` lowest slots are
/// mirrored past `period`, so the rows of every window lie contiguous
/// from its first slot and one tap-offset table serves every output row.
/// Rows past the image edges are stored as zero rows, and every row's
/// `HALO` columns on either side stay zero from construction.
#[derive(Clone, Copy)]
struct QRing {
    arena: SendPtr<i32>,
    ring: Ring,
    pw: usize,
    plane: usize,
}

impl QRing {
    fn new(arena: SendPtr<i32>, ring: Ring, w: usize) -> Self {
        Self {
            arena,
            ring,
            pw: w + 2 * HALO,
            plane: ring_plane(ring.period, ring.window, w),
        }
    }

    /// The `len` elements at column `x` of slot `slot` of pair plane
    /// `cp`, and those of its mirror slot when it has one.
    ///
    /// # Safety
    ///
    /// No other thread touches those elements while the slices live.
    unsafe fn slot<'a>(
        self,
        cp: usize,
        slot: usize,
        x: usize,
        len: usize,
    ) -> (&'a mut [i32], Option<&'a mut [i32]>) {
        let at = |s: usize| {
            let off = self.ring.off + cp * self.plane + s * self.pw + x;
            // SAFETY: in bounds by the ring's layout; exclusive by the
            // caller's contract.
            unsafe { self.arena.slice_mut(off, len) }
        };
        let mirrored = slot + 1 < self.ring.window;
        (at(slot), mirrored.then(|| at(slot + self.ring.period)))
    }

    /// Lets `f` write image row `y`'s interior in pair plane `cp`, then
    /// copies it to the mirror slot.
    ///
    /// # Safety
    ///
    /// As [`QRing::slot`].
    unsafe fn put(&self, cp: usize, y: usize, f: impl FnOnce(&mut [i32])) {
        let w = self.pw - 2 * HALO;
        // SAFETY: the caller's contract.
        let (row, mirror) = unsafe { self.slot(cp, (y + HALO) % self.ring.period, HALO, w) };
        f(row);
        if let Some(mirror) = mirror {
            mirror.copy_from_slice(row);
        }
    }

    /// Zeroes the stored rows past the image edges that rows `[y0, y1)`
    /// of an `h`-row image border, in the first `pairs` planes.
    ///
    /// # Safety
    ///
    /// As [`QRing::slot`], for those rows.
    unsafe fn zero_edges(&self, pairs: usize, y0: usize, y1: usize, h: usize) {
        let top = if y0 == 0 { 0..HALO } else { 0..0 };
        let bottom = if y1 == h {
            h + HALO..h + 2 * HALO
        } else {
            0..0
        };
        for py in top.chain(bottom) {
            for cp in 0..pairs {
                // SAFETY: the caller's contract.
                let (row, mirror) = unsafe { self.slot(cp, py % self.ring.period, 0, self.pw) };
                row.fill(0);
                if let Some(mirror) = mirror {
                    mirror.fill(0);
                }
            }
        }
    }
}

/// Where a band's requantized rows go.
enum QSink<'a> {
    /// Pack into a ring.
    Plane { ring: QRing },
    /// Pack into a ring, fusing `+ first` on the widened wire first.
    ResidualPlane {
        ring: QRing,
        /// Layer 0's output ring.
        first: RingRef<'a, i32>,
        /// Layer-0 output wire scale (dequantizes the stored levels).
        first_scale: f32,
        /// The widened wire the residual sum is requantized to.
        wide: AffineParams,
    },
    /// Head: dequantize, then depth-to-space into the output image.
    Head {
        out: SendPtr,
        /// The staged input ring when the model adds the input residual.
        input: Option<RingRef<'a, i32>>,
        input_scale: f32,
        graph: &'a LayerGraph,
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
/// four-channel group, reading the taps at `offs` from the first slot of
/// the row's window in the source ring — then the vectorized
/// requantization row epilogue selected by `sink`, one output-channel
/// pair at a time so ring sinks write whole packed words. The head
/// dequantizes every channel's row, then interleaves the `scale` rows of
/// each output row in one pass.
#[allow(clippy::too_many_arguments)]
fn qconv_band(
    mk: &dyn Microkernel,
    lay: &QKernelLayer,
    shape: LayerShape,
    offs: &[usize],
    src: &RingRef<'_, i32>,
    w: usize,
    band: Band,
    slab: &mut [i32],
    sink: &QSink<'_>,
) {
    let (pw, cout, up) = (w + 2 * HALO, shape.cout, shape.reach().0);
    let (accs, vals_raw) = slab.split_at_mut(4 * w);
    // The head sink's dequantized-value scratch, reinterpreted as f32.
    // SAFETY: i32 and f32 share size and alignment; the slab is
    // band-private and `vals_raw` is never read as i32.
    let vals: &mut [f32] = unsafe {
        std::slice::from_raw_parts_mut(vals_raw.as_mut_ptr() as *mut f32, vals_raw.len())
    };

    for y in band.y0..band.y1 {
        // Every tap of row `y` lies in the ring's window rows — image rows
        // or stored zero rows — and its zero columns (see the module
        // docs), so the whole window runs from its first slot; zero taps
        // add exactly 0, as the oracle's skipped taps do.
        let row = &src.data[((y + HALO - up) % src.period) * pw..];
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
                match sink {
                    // SAFETY: bands partition rows, and a group's rows
                    // land on distinct ring slots.
                    QSink::Plane { ring } => unsafe {
                        ring.put(oi / 2, y, |drow| {
                            mk.qrequant_pack_row(acc0, acc1, drow, &e0, e1.as_ref())
                        });
                    },
                    QSink::ResidualPlane {
                        ring,
                        first,
                        first_scale,
                        wide,
                    } => {
                        let frow = qrow(first, oi / 2, y, w);
                        // Residual at wire precision: dequantize both
                        // operands, add, requantize to the widened wire —
                        // the oracle's `a.add(&b)` path, lane for lane.
                        // SAFETY: as for the plane arm.
                        unsafe {
                            ring.put(oi / 2, y, |drow| {
                                mk.qresidual_pack_row(
                                    acc0,
                                    acc1,
                                    frow,
                                    drow,
                                    &e0,
                                    e1.as_ref(),
                                    *first_scale,
                                    wide.scale,
                                    wide.zero_point,
                                )
                            });
                        }
                    }
                    QSink::Head {
                        input, input_scale, ..
                    } => {
                        let irow = input.as_ref().map(|inp| (qrow(inp, 0, y, w), *input_scale));
                        for (o, acc, e) in [(oi, acc0, Some(e0)), (oi + 1, acc1, e1)] {
                            let Some(e) = e else { continue };
                            // Output leaves on the head wire: quantize, then
                            // hand callers the dequantized levels — exactly
                            // the oracle's `qy.dequantize()`.
                            mk.qhead_row(acc, irow, &mut vals[o * w..][..w], &e);
                        }
                    }
                }
            }
        }
        if let QSink::Head {
            out, graph, out_w, ..
        } = *sink
        {
            let s = graph.scale();
            for ry in 0..s {
                let chans = graph.head_row(ry);
                let rows: [&[f32]; 4] = std::array::from_fn(|rx| {
                    chans.get(rx).map_or(&[][..], |&c| &vals[c * w..][..w])
                });
                // SAFETY: bands are disjoint in y, so output rows
                // `s * y + ry` are disjoint too.
                let dst = unsafe { out.slice_mut((s * y + ry) * out_w, out_w) };
                depth_to_space_row(dst, &rows[..s]);
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
    fn streamed_plan_matches_oracle_on_tall_images() {
        let (_, qnet) = quantized(2, 2, 17);
        let kernels = Arc::new(QuantKernels::new(&qnet));
        let w = 11;
        let group = QuantPlan::with_bands(kernels.clone(), 1, w, 1).group_rows();
        for h in [group - 1, group + 1, 3 * group + 5] {
            for nbands in [1, 3] {
                assert_bit_identical(&qnet, h, w, nbands, h as u64);
            }
        }
    }

    #[test]
    fn arena_is_bounded_by_width_not_height() {
        let (_, qnet) = quantized(3, 2, 19);
        let kernels = Arc::new(QuantKernels::new(&qnet));
        let w = 24;
        let group = QuantPlan::with_bands(kernels.clone(), 1, w, 2).group_rows();
        let bytes =
            |h: usize, w: usize| QuantPlan::with_bands(kernels.clone(), h, w, 2).arena_bytes();
        let h = 12 * group;
        assert_eq!(bytes(h, w), bytes(2 * h, w));
        assert_eq!(bytes(h, w), bytes(2 * h + 3, w));
        assert!(bytes(h, 2 * w) > bytes(h, w));
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
