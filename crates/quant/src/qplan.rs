//! The int8 datapath of the planned executor.
//!
//! [`QuantKernels`] preprocesses a [`QuantizedSesr`] once (weight packing,
//! wire-parameter chaining, layer graph) and implements [`Datapath`], so
//! [`QuantPlan`] and [`QuantTilePlanner`] are the `sesr_core::infer_plan`
//! skeleton — depth-first row groups on the calling thread, row rings,
//! windows and the head's store, timing hook, tile LRU — over a pre-sized
//! `i32` arena with zero steady-state allocations.
//! This module supplies only the integer parts: rings of packed `u8`
//! levels with zero-point borders, quantization of the input window's
//! rows into the input ring, and the band kernel with its requantizing
//! sinks.
//!
//! # Integer datapath
//!
//! Activation planes live in the arena as the **raw `u8` wire levels**
//! the oracle stores, one byte per activation: each `i32` word packs four
//! adjacent channels (channel `4c + b` in byte `b`). The input ring holds
//! the single input channel as **kx quads** instead: the word at padded
//! column `p` holds the levels of columns `p..p + 4`, so the first layer's
//! 5x5 window runs as 5 rows of 2 packed taps rather than 25 taps with
//! three empty bytes each.
//!
//! The oracle accumulates `Σ (q - zp) * w` over the in-bounds taps only.
//! The plan instead runs every tap of the window and folds the zero point
//! into the accumulator's seed:
//!
//! - every stored row carries `HALO` pad columns on either side, and
//!   the rows past the image's top and bottom edges are stored as pad
//!   rows; all of them hold the ring's wire zero point `zp` in every
//!   byte. `QRing::put` writes a row's pad columns with the row, and the
//!   band (one step's rows in one row group) that touches an image edge
//!   rewrites its pad rows, every run:
//!   one-group plans reuse their ping-pong buffers across wires with
//!   different zero points, so nothing relies on the arena's initial
//!   contents;
//! - each output channel's accumulator starts from the integer
//!   `-zp * Σw[o]`, summed over the whole window. Then
//!   `-zp * Σw + Σ_all q * w = Σ_in (q - zp) * w`, because each pad tap
//!   adds `zp * w`, which its share of the seed cancels exactly. The fold
//!   stays in integers: folding it into the float bias would round
//!   differently from the oracle.
//!
//! The epilogues that read stored levels back — the residual sink's
//! `first` operand and the head's input residual — take `q - zp` in
//! integers before converting, as the oracle's dequantization does.
//!
//! Each activation is a rolling ring of such padded rows per channel quad
//! (see `QRing`): the plan streams the chain a row group at a time, so
//! a ring holds only the rows its consumers still read. The ring's lowest
//! `window - 1` slots are mirrored past its period, so every consumer
//! window is contiguous from its first slot wherever the ring wraps. No
//! kernel is taller or wider than `2 * HALO + 1`, so every tap of every
//! output pixel — border rows included — lands on an image row or a pad
//! row and column. The whole window therefore runs from one row base plus
//! a per-layer tap-offset table built once at plan compile, with no
//! per-row gather and no border special case. The per-row kernel is
//! [`Microkernel::qmadd_taps4`], fed weights packed tap-major four output
//! channels at a time: it writes four output channels' accumulator rows
//! from one shared set of tap loads. Each tap maps onto one AVX-512 VNNI
//! `vpdpbusd` (four `u8 x i8` products per lane) or two AVX2 `vpmaddwd` on
//! the split bytes, exact for these operand ranges (see
//! `sesr_tensor::simd`), and integer addition is associative, so every
//! kernel variant and body, row-group split, and column blocking produces
//! identical accumulators.
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
    Datapath, HrWindow, LayerGraph, LayerShape, Plan, Ring, RingRef, StepIo, TilePlanner,
};
use sesr_tensor::parallel::SendPtr;
use sesr_tensor::simd::{Microkernel, QuantEpilogue, QuantWire, RowAct};
use std::ops::Range;

/// Pad width around every activation plane. Two rows/columns cover the
/// widest SESR tap (5x5, pad 2), so no supported kernel (at most
/// `2 * HALO + 1` on a side) ever reads past the ring.
const HALO: usize = 2;

/// Words needed to hold `c` channels, four `u8` levels each (a trailing
/// quad's missing channels meet zero weights).
#[inline]
fn quads(c: usize) -> usize {
    c.div_ceil(4)
}

/// A word with the level `zp` in every byte: a pad column of any ring.
#[inline]
fn pad_word(zp: i32) -> i32 {
    i32::from_le_bytes([zp as u8; 4])
}

fn wire(p: AffineParams) -> QuantWire {
    QuantWire {
        scale: p.scale,
        zero_point: p.zero_point,
    }
}

/// How a layer's packed taps walk its source ring: `(planes, cols,
/// stride)`. Taps run `(ky, plane, col)` and read the word `stride * col`
/// columns into the window. Layer 0 reads the input's kx quads (one
/// plane, a word per four kernel columns); every other layer reads
/// channel quads (a plane per four channels, a word per kernel column).
fn tap_grid(layer: usize, l: LayerShape) -> (usize, usize, usize) {
    if layer == 0 {
        (1, l.kw.div_ceil(4), 4)
    } else {
        (quads(l.cin), l.kw, 1)
    }
}

/// One layer, preprocessed for planned integer execution (its shape lives
/// in the [`LayerGraph`]).
#[derive(Debug, Clone)]
struct QKernelLayer {
    /// Packed weights for [`Microkernel::qmadd_taps4`], four output
    /// channels at a time, tap-major in [`tap_grid`] order: group `g`, tap
    /// `t` and channel `4g + c` sit at `(g * taps + t) * 4 + c`. Byte `b`
    /// of a word weighs byte `b` of the source word: input channel
    /// `4 * plane + b` at kernel column `col`, or, for layer 0's kx quads,
    /// kernel column `4 * col + b`. Missing bytes and the last group's
    /// missing channels are zero.
    taps4: Vec<i32>,
    /// Per group, each channel's accumulator seed `-zp_in * Σw[o]`.
    seeds: Vec<[i32; 4]>,
    /// Per output channel, the requantize-to-wire constants.
    epilogues: Vec<QuantEpilogue>,
    /// Outgoing wire: its zero point fills the destination ring's pads.
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

/// The int8 tile planner: one cached [`QuantPlan`] per tile shape, under
/// the same bounded LRU as the f32 planner.
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
            .enumerate()
            .map(|(i, (l, inp))| {
                let dims = &l.weight.shape;
                let (cout, cin, kh, kw) = (dims[0], dims[1], dims[2], dims[3]);
                assert!(
                    kh <= 2 * HALO + 1 && kw <= 2 * HALO + 1,
                    "kernel too large: {kh}x{kw}"
                );
                let shape = LayerShape { cin, cout, kh, kw };
                shapes.push(shape);
                let (planes, cols, stride) = tap_grid(i, shape);
                let taps = kh * planes * cols;
                let mut taps4 = vec![0i32; cout.div_ceil(4) * taps * 4];
                let mut seeds = vec![[0i32; 4]; cout.div_ceil(4)];
                for o in 0..cout {
                    let w = |c: usize, ky: usize, kx: usize| {
                        l.weight.data[((o * cin + c) * kh + ky) * kw + kx]
                    };
                    for ky in 0..kh {
                        for p in 0..planes {
                            for col in 0..cols {
                                let bytes: [u8; 4] = std::array::from_fn(|b| {
                                    let (c, kx) = if stride == 4 {
                                        (0, 4 * col + b)
                                    } else {
                                        (4 * p + b, col)
                                    };
                                    if c < cin && kx < kw {
                                        w(c, ky, kx) as u8
                                    } else {
                                        0
                                    }
                                });
                                let t = (ky * planes + p) * cols + col;
                                taps4[((o / 4) * taps + t) * 4 + o % 4] = i32::from_le_bytes(bytes);
                            }
                        }
                    }
                    let wsum: i32 = l.weight.data[o * cin * kh * kw..][..cin * kh * kw]
                        .iter()
                        .map(|&q| q as i32)
                        .sum();
                    seeds[o / 4][o % 4] = -inp.zero_point * wsum;
                }
                let epilogues = (0..cout)
                    .map(|o| QuantEpilogue {
                        scale_io: inp.scale * l.weight.scales[o],
                        bias: l.bias[o],
                        act: match &l.act {
                            None => RowAct::Linear,
                            Some(Act::Relu) => RowAct::Relu,
                            Some(Act::PRelu(a)) => RowAct::PRelu(a.data()[o]),
                        },
                        out_scale: l.out_params.scale,
                        zero_point: l.out_params.zero_point,
                    })
                    .collect();
                QKernelLayer {
                    taps4,
                    seeds,
                    epilogues,
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

    /// Packed channel quads, each a ring of padded rows with its pad
    /// columns and mirrored window rows (`QRing`).
    fn ring_len(c: usize, period: usize, window: usize, w: usize) -> usize {
        quads(c) * ring_plane(period, window, w)
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
    /// `tap_grid` order, relative to the first padded row of the output
    /// row's window in a source ring of `period` rows read through
    /// `window`-row windows.
    fn tap_offsets(&self, layer: usize, period: usize, window: usize, w: usize) -> Vec<usize> {
        let l = self.graph.layers()[layer];
        let (plane, pw) = (ring_plane(period, window, w), w + 2 * HALO);
        let (planes, cols, stride) = tap_grid(layer, l);
        let left = HALO - (l.kw - 1) / 2;
        let mut offs = Vec::with_capacity(l.kh * planes * cols);
        for ky in 0..l.kh {
            for p in 0..planes {
                for col in 0..cols {
                    offs.push(p * plane + ky * pw + stride * col + left);
                }
            }
        }
        offs
    }

    /// Quantizes rows of the caller's input window onto the input wire
    /// as the input ring's kx quads.
    fn stage_rows(
        &self,
        mk: &dyn Microkernel,
        input: &[f32],
        stride: usize,
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
            // SAFETY: a group's rows land on distinct ring slots, which no
            // ring view of this group's staging reads.
            unsafe {
                dst.put(0, y, ip.zero_point, |row| {
                    let levels = &mut row[HALO..][..w];
                    mk.qquantize_row(&input[y * stride..][..w], levels, ip.scale, ip.zero_point);
                    kx_quads(row, ip.zero_point);
                });
            }
        }
        // SAFETY: as above, for the pad rows past an image edge.
        unsafe { dst.pad_edges(1, y0, y1, h, ip.zero_point) };
    }

    fn run_band(
        &self,
        mk: &dyn Microkernel,
        io: &StepIo<'_, i32>,
        rows: Range<usize>,
        slab: &mut [i32],
        _state: &mut [i32],
    ) {
        let lay = &self.layers[io.layer];
        let dst = io.dst.map(|ring| QRing::new(io.arena, ring, io.w));
        let sink = match (dst, io.first) {
            (None, _) => QSink::Head {
                out: io.out,
                input: io.input,
                input_wire: wire(self.input_params),
            },
            (Some(ring), Some(first)) => QSink::ResidualPlane {
                ring,
                first,
                first_wire: wire(self.layers[0].out_params),
                wide: QuantWire {
                    scale: lay.out_params.scale * 2.0,
                    zero_point: lay.out_params.zero_point,
                },
            },
            (Some(ring), None) => QSink::Plane { ring },
        };
        let shape = self.graph.layers()[io.layer];
        let (y0, y1) = (rows.start, rows.end);
        qconv_band(mk, lay, shape, io.offs, &io.src, io.w, rows, slab, &sink);
        if let Some(ring) = dst {
            // SAFETY: the pad rows past an image edge sit on slots no
            // ring view of this step reads.
            let zp = lay.out_params.zero_point;
            unsafe { ring.pad_edges(quads(shape.cout), y0, y1, io.h, zp) };
        }
    }
}

/// Turns a padded row of levels, one per word, into kx quads in place:
/// word `p` becomes the levels of columns `p..p + 4` in bytes 0 to 3,
/// with `zp` past the row's end. Ascending `p` reads each word before it
/// is rewritten.
fn kx_quads(row: &mut [i32], zp: i32) {
    let n = row.len();
    for p in 0..n - 3 {
        row[p] =
            row[p] & 0xff | (row[p + 1] & 0xff) << 8 | (row[p + 2] & 0xff) << 16 | row[p + 3] << 24;
    }
    for p in n - 3..n {
        let mut word = 0;
        for b in (0..4).rev() {
            word = word << 8 | row.get(p + b).map_or(zp, |&v| v & 0xff);
        }
        row[p] = word;
    }
}

/// Words of one quad plane of an int8 ring: `period` padded rows plus
/// `window - 1` mirrored ones, each `w + 2 * HALO` wide.
fn ring_plane(period: usize, window: usize, w: usize) -> usize {
    (period + window - 1) * (w + 2 * HALO)
}

/// Row `y`'s `w` interior words in quad plane `cq` of an int8 ring.
fn qrow<'a>(r: &RingRef<'a, i32>, cq: usize, y: usize, w: usize) -> &'a [i32] {
    let plane = ring_plane(r.period, r.window, w);
    &r.data[cq * plane + ((y + HALO) % r.period) * (w + 2 * HALO) + HALO..][..w]
}

/// Write access to an int8 ring in the arena. Padded row `py = y + HALO`
/// lives in slot `py % period`; the `window - 1` lowest slots are
/// mirrored past `period`, so the rows of every window lie contiguous
/// from its first slot and one tap-offset table serves every output row.
/// Rows past the image edges are stored as pad rows, and every row has
/// `HALO` pad columns on either side, all holding the ring's zero point.
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

    /// The padded row in slot `slot` of quad plane `cq`, and its mirror
    /// slot's when it has one.
    ///
    /// # Safety
    ///
    /// No other thread touches those words while the slices live.
    unsafe fn slot<'a>(self, cq: usize, slot: usize) -> (&'a mut [i32], Option<&'a mut [i32]>) {
        let at = |s: usize| {
            let off = self.ring.off + cq * self.plane + s * self.pw;
            // SAFETY: in bounds by the ring's layout; exclusive by the
            // caller's contract.
            unsafe { self.arena.slice_mut(off, self.pw) }
        };
        let mirrored = slot + 1 < self.ring.window;
        (at(slot), mirrored.then(|| at(slot + self.ring.period)))
    }

    /// Fills image row `y`'s pad columns in quad plane `cq` with `zp`,
    /// lets `f` write the row's interior (`HALO..HALO + w`; `f` gets the
    /// whole padded row), then copies the row to its mirror slot.
    ///
    /// # Safety
    ///
    /// As [`QRing::slot`].
    unsafe fn put(&self, cq: usize, y: usize, zp: i32, f: impl FnOnce(&mut [i32])) {
        // SAFETY: the caller's contract.
        let (row, mirror) = unsafe { self.slot(cq, (y + HALO) % self.ring.period) };
        let pad = pad_word(zp);
        row[..HALO].fill(pad);
        row[self.pw - HALO..].fill(pad);
        f(row);
        if let Some(mirror) = mirror {
            mirror.copy_from_slice(row);
        }
    }

    /// Fills the stored rows past the image edges that rows `[y0, y1)` of
    /// an `h`-row image border with `zp`, in the first `quads` planes.
    ///
    /// # Safety
    ///
    /// As [`QRing::slot`], for those rows.
    unsafe fn pad_edges(&self, quads: usize, y0: usize, y1: usize, h: usize, zp: i32) {
        let top = if y0 == 0 { 0..HALO } else { 0..0 };
        let bottom = if y1 == h {
            h + HALO..h + 2 * HALO
        } else {
            0..0
        };
        let pad = pad_word(zp);
        for py in top.chain(bottom) {
            for cq in 0..quads {
                // SAFETY: the caller's contract.
                let (row, mirror) = unsafe { self.slot(cq, py % self.ring.period) };
                row.fill(pad);
                if let Some(mirror) = mirror {
                    mirror.fill(pad);
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
        /// Layer 0's output wire (dequantizes the stored levels).
        first_wire: QuantWire,
        /// The widened wire the residual sum is requantized to.
        wide: QuantWire,
    },
    /// Head: dequantize, then depth-to-space into the window's interior
    /// of the output image.
    Head {
        out: HrWindow<'a>,
        /// The staged input ring when the model adds the input residual.
        input: Option<RingRef<'a, i32>>,
        input_wire: QuantWire,
    },
}

/// Runs one layer over one band of rows: integer accumulation via
/// [`Microkernel::qmadd_taps4`] — one whole-window call per output row and
/// four-channel group, reading the taps at `offs` from the first slot of
/// the row's window in the source ring — then the vectorized
/// requantization row epilogue selected by `sink`, one group at a time so
/// ring sinks write whole packed words. The head dequantizes every
/// channel's row, then stores the output row through [`HrWindow::store`].
#[allow(clippy::too_many_arguments)]
fn qconv_band(
    mk: &dyn Microkernel,
    lay: &QKernelLayer,
    shape: LayerShape,
    offs: &[usize],
    src: &RingRef<'_, i32>,
    w: usize,
    rows: Range<usize>,
    slab: &mut [i32],
    sink: &QSink<'_>,
) {
    let (pw, cout, up) = (w + 2 * HALO, shape.cout, shape.reach().0);
    let zp = lay.out_params.zero_point;
    let (accs, vals_raw) = slab.split_at_mut(4 * w);
    // The head sink's dequantized-value scratch, reinterpreted as f32.
    // SAFETY: i32 and f32 share size and alignment; the slab is the
    // plan's private scratch and `vals_raw` is never read as i32.
    let vals: &mut [f32] = unsafe {
        std::slice::from_raw_parts_mut(vals_raw.as_mut_ptr() as *mut f32, vals_raw.len())
    };

    for y in rows {
        // Every tap of row `y` lies in the ring's window rows — image rows
        // or stored pad rows — and its pad columns (see the module docs),
        // so the whole window runs from its first slot; the seed cancels
        // the pad taps.
        let row = &src.data[((y + HALO - up) % src.period) * pw..];
        for (g, ws) in lay.taps4.chunks_exact(4 * offs.len()).enumerate() {
            let lanes = (cout - 4 * g).min(4);
            let acc = &mut accs[..lanes * w];
            mk.qmadd_taps4(acc, w, ws, offs, row, lay.seeds[g]);
            let acc = &*acc;
            let es = &lay.epilogues[4 * g..][..lanes];
            match sink {
                // SAFETY: a group's rows land on distinct ring slots,
                // which no ring view of this step reads.
                QSink::Plane { ring } => unsafe {
                    ring.put(g, y, zp, |prow| {
                        mk.qrequant_pack_row(acc, es, &mut prow[HALO..][..w])
                    });
                },
                QSink::ResidualPlane {
                    ring,
                    first,
                    first_wire,
                    wide,
                } => {
                    let frow = qrow(first, g, y, w);
                    // Residual at wire precision: dequantize both
                    // operands, add, requantize to the widened wire —
                    // the oracle's `a.add(&b)` path, lane for lane.
                    // SAFETY: as for the plane arm.
                    unsafe {
                        ring.put(g, y, wide.zero_point, |prow| {
                            let dst = &mut prow[HALO..][..w];
                            mk.qresidual_pack_row(acc, es, frow, dst, *first_wire, *wide)
                        });
                    }
                }
                QSink::Head {
                    input, input_wire, ..
                } => {
                    let irow = input.as_ref().map(|inp| (qrow(inp, 0, y, w), *input_wire));
                    for (c, e) in es.iter().enumerate() {
                        // Output leaves on the head wire: quantize, then
                        // hand callers the dequantized levels — exactly
                        // the oracle's `qy.dequantize()`.
                        let o = 4 * g + c;
                        mk.qhead_row(&acc[c * w..][..w], irow, &mut vals[o * w..][..w], e);
                    }
                }
            }
        }
        if let QSink::Head { out, .. } = *sink {
            // SAFETY: the head's band stores its rows on the plan's thread
            // during the run.
            unsafe { out.store(y, vals, w) };
        }
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

    fn assert_bit_identical(qnet: &QuantizedSesr, h: usize, w: usize, seed: u64) {
        let lr = lr_image(Family::Urban, h, w, seed);
        let want = qnet.run(&lr);
        let kernels = Arc::new(QuantKernels::new(qnet));
        let mut plan = QuantPlan::new(kernels, h, w);
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
        assert_bit_identical(&qnet, 17, 13, 1);
        assert_bit_identical(&qnet, 24, 31, 2);
    }

    #[test]
    fn plan_matches_oracle_x4() {
        let (_, qnet) = quantized(1, 4, 11);
        assert_bit_identical(&qnet, 19, 23, 3);
    }

    #[test]
    fn plan_matches_oracle_across_variants() {
        let (_, qnet) = quantized(2, 2, 5);
        let kernels = Arc::new(QuantKernels::new(&qnet));
        let lr = generate(Family::Detail, 21, 18, 4);
        let want = qnet.run(&lr);
        let mut plan = QuantPlan::new(kernels, 21, 18);
        for &v in detected_variants() {
            plan.set_variant(v);
            let got = plan.run(&lr);
            let exact = want
                .data()
                .iter()
                .zip(got.data())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(exact, "variant={v:?} diverged");
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
        let mut out = vec![0.0f32; 66 * 58];
        for spec in plan.tiles() {
            let tile = tp.plan_for(spec.patch_h(), spec.patch_w());
            tile.run_tile_into(lr.data(), 29, spec, &mut out);
        }
        let exact = want
            .data()
            .iter()
            .zip(&out)
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
        let group = QuantPlan::new(kernels, 1, w).group_rows();
        for h in [group - 1, group + 1, 3 * group + 5] {
            assert_bit_identical(&qnet, h, w, h as u64);
        }
    }

    #[test]
    fn arena_is_bounded_by_width_not_height() {
        let (_, qnet) = quantized(3, 2, 19);
        let kernels = Arc::new(QuantKernels::new(&qnet));
        let w = 24;
        let group = QuantPlan::new(kernels.clone(), 1, w).group_rows();
        let bytes = |h: usize, w: usize| QuantPlan::new(kernels.clone(), h, w).arena_bytes();
        let h = 12 * group;
        assert_eq!(bytes(h, w), bytes(2 * h, w));
        assert_eq!(bytes(h, w), bytes(2 * h + 3, w));
        assert!(bytes(h, 2 * w) > bytes(h, w));
    }

    #[test]
    fn arena_is_single_allocation_sized_to_shape() {
        let (_, qnet) = quantized(1, 2, 21);
        let kernels = Arc::new(QuantKernels::new(&qnet));
        let plan = QuantPlan::new(kernels.clone(), 16, 16);
        let bigger = QuantPlan::new(kernels, 32, 32);
        assert!(plan.arena_bytes() > 0);
        assert!(bigger.arena_bytes() > plan.arena_bytes());
    }
}
