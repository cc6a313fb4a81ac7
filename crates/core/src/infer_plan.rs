//! Planned, zero-allocation execution of the collapsed network, at either
//! precision.
//!
//! After collapse, SESR is one linear chain: a first 5x5 conv, `m` 3x3
//! convs under a long residual, a 5x5 head, then depth-to-space. This
//! module compiles that chain once per `(model, input shape)` into a
//! [`Plan`], built from two halves:
//!
//! * **The skeleton**, shared by both precisions. A [`LayerGraph`] holds
//!   each layer's shape, the step list (fused residual flags) and the
//!   head's depth-to-space map. [`Plan`] runs the chain **depth-first** on
//!   the calling thread: output rows advance in row groups, and in each
//!   group every step produces just the rows its consumer's window needs
//!   next. Each step writes its own rolling row ring, so the arena — the
//!   staged input ring (if the datapath stages one), one ring per non-head
//!   step, the per-step state and one scratch slab — grows with the width,
//!   not the height. The group height is derived at build from the graph
//!   and the width ([`Plan::group_rows`]), unless one group's
//!   layer-at-a-time planes would take less memory than the rings; when
//!   the group covers the whole image the plan is the layer-at-a-time run,
//!   and alternate middle rings share two buffers as ping-pong planes.
//!   The timed run charges each step the time since the previous mark.
//!   Every run is a window ([`Plan::run_tile_into`]): step 0 reads the
//!   window's rows and columns of the caller's LR plane in place, and the
//!   head writes only the window's interior into the caller's HR plane
//!   through one store ([`HrWindow::store`]); a whole-image run is the
//!   window that covers the image. [`TilePlanner`] caches one plan per
//!   tile shape in a bounded LRU. A plan never touches the thread pool: a
//!   frame spreads over cores as vertical strips, each a window of its own
//!   plan writing into the one HR plane ([`crate::TilePlan::strips`]
//!   through [`crate::tiling::run_tiles`]).
//! * **The datapath** ([`Datapath`]), which supplies only what differs
//!   between precisions: the arena element, ring, state and slab lengths,
//!   the per-layer tap-offset table, input staging, and the band runner
//!   with its fused epilogue. [`CollapsedKernels`] below is the f32
//!   datapath ([`InferPlan`]); `sesr_quant::QuantKernels` is the int8 one
//!   (`sesr_quant::QuantPlan`).
//!
//! `Plan` is monomorphized per datapath. A steady-state run, whole image
//! or window, touches only the arena: zero heap allocations after the
//! plan is built. Rows are kept in the rings rather than recomputed, and
//! every per-element accumulation order is independent of the row-group
//! split, so output is bit-identical to the layer-at-a-time run.
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
//!   output transform), eliminating whole-tensor passes. Each output row
//!   of each channel takes one [`epilogue_row`] call that applies the
//!   whole chain and writes straight to the ring row; the head
//!   interleaves the `scale` channel rows that share an output row in one
//!   contiguous store.
//! * **Direct blocked convolution.** The 5x5 layers skip im2col entirely.
//!   The reference path's `im2col + gemm` materializes a `cin*kh*kw x h*w`
//!   column matrix (tens of MB at video sizes) just to stream it through
//!   the GEMM once; the direct kernel instead keeps the `kh` input rows
//!   of every channel that an output row reads as zero-padded rows in a
//!   per-channel ring in the band's slab (each input row staged once per
//!   band), so every tap reads the slab at an offset fixed at plan build
//!   for the row's ring phase. [`Microkernel::conv_taps4`] then loads each
//!   tap segment once for four output channels x 64 columns (16-lane
//!   bodies) or x 16 columns (8-lane) of register accumulators.
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
use sesr_tensor::parallel::SendPtr;
use sesr_tensor::simd::{
    detected_variants, epilogue_row, kernel_variant, microkernel, split_row, wino_pack_u,
    wino_scratch_len, KernelVariant, Microkernel, RowAct, RowEpilogue, WinoRow,
};
use sesr_tensor::winograd::kernel_transform;
use sesr_tensor::Tensor;
use std::fmt::Debug;
use std::ops::Range;
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

impl LayerShape {
    /// Rows of its input the layer reads above and below each output
    /// row (same padding).
    pub fn reach(&self) -> (usize, usize) {
        let (up, down, _, _) = Conv2dParams::same().resolve_padding(self.kh, self.kw);
        (up, down)
    }
}

/// One planned layer execution. Step `s` runs layer `s`: it reads step
/// `s - 1`'s ring (step 0 reads the input) and writes its own ring (the
/// head writes the caller's output plane).
#[derive(Debug, Clone, Copy)]
struct Step {
    /// Fuse the long feature residual (`+ first`) into this step's write.
    add_first: bool,
    /// Degenerate 2-layer network with a feature residual: the head input
    /// is `first + first`, fused here as a doubled write.
    double_output: bool,
}

/// The collapsed chain as both datapaths execute it, built once per
/// model: layer shapes, the step list, and the head's depth-to-space map.
#[derive(Debug, Clone)]
pub struct LayerGraph {
    layers: Vec<LayerShape>,
    scale: usize,
    input_residual: bool,
    steps: Vec<Step>,
    /// `head_gather[ry * scale + rx]` is the head channel written at
    /// `(ry, rx)` inside each `scale x scale` output cell — the inverse of
    /// the composition of the model's depth-to-space permutations.
    head_gather: Vec<usize>,
}

impl LayerGraph {
    /// Builds the graph of a chain of `layers` with a `scale` head. Steps
    /// carry their fused residual flags, mirroring the reference dataflow
    /// exactly.
    ///
    /// # Panics
    ///
    /// Panics on fewer than two layers, a scale other than 2 or 4, or a
    /// head that does not emit `scale * scale` channels.
    pub fn new(
        layers: Vec<LayerShape>,
        scale: usize,
        feature_residual: bool,
        input_residual: bool,
    ) -> Self {
        let ll = layers.len();
        assert!(ll >= 2, "a planned network needs a first layer and a head");
        assert!(scale == 2 || scale == 4, "planned heads are x2 or x4");
        let head_cout = layers[ll - 1].cout;
        assert_eq!(head_cout, scale * scale, "head must emit scale^2 channels");
        let steps = (0..ll)
            .map(|i| Step {
                add_first: feature_residual && ll > 2 && i == ll - 2,
                double_output: feature_residual && ll == 2 && i == 0,
            })
            .collect();
        // x2 is one depth-to-space (r = 2); x4 composes two of them. Both
        // reduce to a per-channel (row, col) offset in the output cell.
        let mut head_gather = vec![0; head_cout];
        for ci in 0..head_cout {
            let (ry, rx) = if scale == 2 {
                (ci / 2, ci % 2)
            } else {
                (2 * ((ci % 4) / 2) + ci / 8, 2 * (ci % 2) + (ci / 4) % 2)
            };
            head_gather[ry * scale + rx] = ci;
        }
        Self {
            layers,
            scale,
            input_residual,
            steps,
            head_gather,
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

    /// The head channels of output sub-row `ry` of every output cell, in
    /// column order.
    pub fn head_row(&self, ry: usize) -> &[usize] {
        &self.head_gather[ry * self.scale..][..self.scale]
    }

    /// Who reads ring `col` (column 0 is the input, column `s + 1` step
    /// `s`'s output): `(consumer column, rows above, rows below)`.
    fn consumers(&self, col: usize) -> Vec<(usize, usize, usize)> {
        let n = self.layers.len();
        let (up, down) = self.layers[col].reach();
        let mut out = vec![(col + 1, up, down)];
        if col == 0 && self.input_residual {
            out.push((n, 0, 0));
        }
        if col == 1 {
            out.extend(
                (0..n)
                    .filter(|&s| self.steps[s].add_first)
                    .map(|s| (s + 1, 0, 0)),
            );
        }
        out
    }
}

/// Writes one output row of the depth-to-space cell rows: `dst[x * s +
/// rx] = src[rx][x]` for `s = src.len()` (2 or 4) — the `s` channel rows
/// that share the output row, interleaved in one contiguous pass.
///
/// # Panics
///
/// Panics unless `src` holds 2 or 4 rows.
fn depth_to_space_row(dst: &mut [f32], src: &[&[f32]]) {
    match *src {
        [a, b] => {
            for ((d, &x0), &x1) in dst.chunks_exact_mut(2).zip(a).zip(b) {
                d[0] = x0;
                d[1] = x1;
            }
        }
        [a, b, c, e] => {
            for ((((d, &x0), &x1), &x2), &x3) in dst.chunks_exact_mut(4).zip(a).zip(b).zip(c).zip(e)
            {
                d.copy_from_slice(&[x0, x1, x2, x3]);
            }
        }
        _ => panic!("depth-to-space interleaves 2 or 4 rows, got {}", src.len()),
    }
}

/// What differs between the f32 and the int8 planned executor; [`Plan`]
/// owns everything else. Implementations are immutable, preprocessed
/// kernels shared (`Arc`) across plans, threads, and tile shapes.
pub trait Datapath: Debug + Send + Sync + 'static {
    /// Arena element: `f32`, or four raw `u8` channel levels packed in an
    /// `i32` (byte `b` is channel `b` of a four-channel group).
    type Elem: Copy + Default + Debug + Send + Sync + 'static;

    /// Whether step 0 reads a copy of the input staged in the arena's
    /// input ring (written by [`Datapath::stage_rows`]) rather than the
    /// caller's plane.
    const STAGES_INPUT: bool;

    /// Rows outside the image a ring stores on either side (the int8
    /// planes' zero rows); 0 when the kernels test the image bounds.
    const ZERO_ROWS: usize;

    /// The chain this datapath executes.
    fn graph(&self) -> &LayerGraph;

    /// Arena elements of one ring holding `c` channels of `period` rows
    /// of a `w`-wide activation, read through windows up to `window` rows
    /// tall.
    fn ring_len(c: usize, period: usize, window: usize, w: usize) -> usize;

    /// Elements of the plan's scratch slab, enough for every layer.
    fn slab_len(&self, w: usize) -> usize;

    /// Elements of the state a step of `layer` carries from one row group
    /// to the next (0 when it carries none).
    fn state_len(&self, layer: usize, w: usize) -> usize;

    /// Step 0's source rows: the caller's `input` window itself, or the
    /// staged input ring `staged` when [`Datapath::STAGES_INPUT`].
    fn input_rows<'a>(input: &'a [f32], staged: &'a [Self::Elem]) -> &'a [Self::Elem];

    /// Layer `layer`'s tap-offset table at width `w` for a source ring of
    /// `period` rows read through `window`-row windows, fixed at plan
    /// build.
    fn tap_offsets(&self, layer: usize, period: usize, window: usize, w: usize) -> Vec<usize>;

    /// Stages rows `[y0, y1)` of the caller's `input` window (row `y`
    /// is `input[y * stride..][..w]`) into the input ring `ring` of
    /// `arena`. Called only when [`Datapath::STAGES_INPUT`].
    #[allow(clippy::too_many_arguments)]
    fn stage_rows(
        &self,
        mk: &dyn Microkernel,
        input: &[f32],
        stride: usize,
        arena: SendPtr<Self::Elem>,
        ring: Ring,
        h: usize,
        w: usize,
        y0: usize,
        y1: usize,
    );

    /// Runs output rows `rows` of one step in one row group, fused
    /// epilogue included, with `slab` as scratch and `state` as the step's
    /// carried state. A band with `rows.start > 0` resumes: `state` holds
    /// what the step's previous band, which ended at `rows.start`, left.
    fn run_band(
        &self,
        mk: &dyn Microkernel,
        io: &StepIo<'_, Self::Elem>,
        rows: Range<usize>,
        slab: &mut [Self::Elem],
        state: &mut [Self::Elem],
    );
}

/// Where one rolling row ring lives in the arena. Row `y` lives in slot
/// `(y + ZERO_ROWS) % period`; the datapath lays the slots out so that
/// every window up to `window` rows tall is addressable from its first
/// slot.
#[derive(Debug, Clone, Copy)]
pub struct Ring {
    /// Arena offset.
    pub off: usize,
    /// Arena elements.
    pub len: usize,
    /// Rows held before the ring wraps.
    pub period: usize,
    /// Tallest window its consumers read, in rows.
    pub window: usize,
}

/// A read view of a ring: the arena's elements of a [`Ring`], or the
/// caller's input window as a ring whose period is the window height.
#[derive(Debug, Clone, Copy)]
pub struct RingRef<'a, E> {
    /// The ring's elements.
    pub data: &'a [E],
    /// Rows held before the ring wraps.
    pub period: usize,
    /// Tallest window its consumers read, in rows.
    pub window: usize,
    /// Elements from one row to the next: the caller's plane width for
    /// the input window, the planned width `w` for an arena ring (whose
    /// datapath may pad its rows and then derives its own layout).
    pub stride: usize,
}

/// One step's operands, handed by [`Plan`] to the step's band.
pub struct StepIo<'a, E> {
    /// Index of the layer the step runs.
    pub layer: usize,
    /// Planned LR height.
    pub h: usize,
    /// Planned LR width.
    pub w: usize,
    /// The step's source ring.
    pub src: RingRef<'a, E>,
    /// The layer's tap-offset table ([`Datapath::tap_offsets`]).
    pub offs: &'a [usize],
    /// Layer 0's output ring, when the step fuses the long feature
    /// residual.
    pub first: Option<RingRef<'a, E>>,
    /// Step 0's source ring, when the step (the head) fuses the input
    /// residual.
    pub input: Option<RingRef<'a, E>>,
    /// Fuse `first + first` as a doubled write (a two-layer network with a
    /// feature residual).
    pub double_output: bool,
    /// The plan's arena.
    pub arena: SendPtr<E>,
    /// The destination ring; `None` for the head, which writes `out`.
    pub dst: Option<Ring>,
    /// The window's interior in the caller's HR output plane.
    pub out: HrWindow<'a>,
}

/// Where the head writes: the interior of one window in the caller's HR
/// plane. Patch row `y` is LR row `origin.0 + y` of the image, and only
/// the interior's patch rows `rows` and columns `cols` are stored, so
/// windows with disjoint interiors write disjoint HR regions.
#[derive(Clone, Copy)]
pub struct HrWindow<'a> {
    graph: &'a LayerGraph,
    ptr: SendPtr<f32>,
    /// HR plane width (`lr_w * scale`).
    width: usize,
    /// LR row and column of the patch origin (`ey0`, `ex0`).
    origin: (usize, usize),
    /// Interior patch rows, `[y0 - ey0, y1 - ey0)`.
    rows: (usize, usize),
    /// Interior patch columns, `[x0 - ex0, x1 - ex0)`.
    cols: (usize, usize),
}

impl HrWindow<'_> {
    /// The head's store, shared by both datapaths: interleaves patch row
    /// `y` of the head's channels (channel `c`'s row starts at
    /// `chans[c * stride]`) into the `scale` HR rows it covers, interior
    /// columns only. A row outside the interior stores nothing.
    ///
    /// # Safety
    ///
    /// Call only as the head of the run that handed out this window, on
    /// the thread running it: the plane outlives that run, and nothing
    /// else touches the window's interior while it lasts.
    pub unsafe fn store(&self, y: usize, chans: &[f32], stride: usize) {
        if !(self.rows.0..self.rows.1).contains(&y) {
            return;
        }
        let s = self.graph.scale();
        let (c0, c1) = self.cols;
        for ry in 0..s {
            let head = self.graph.head_row(ry);
            let src: [&[f32]; 4] = std::array::from_fn(|rx| {
                head.get(rx)
                    .map_or(&[][..], |&c| &chans[c * stride..][c0..c1])
            });
            let at = ((self.origin.0 + y) * s + ry) * self.width + (self.origin.1 + c0) * s;
            // SAFETY: the row lies in the caller's plane (`Plan::run_window`
            // checks the window against it), and the caller's contract
            // makes the interior ours for the call.
            let dst = unsafe { self.ptr.slice_mut(at, (c1 - c0) * s) };
            depth_to_space_row(dst, &src[..s]);
        }
    }
}

/// Working-set bytes one row group aims at: the rows of a group's
/// widest step, source plus destination, should stay in a core's L2.
const GROUP_BYTES: usize = 512 << 10;

/// Tallest row group. Past it, per-group overhead is already amortized
/// and taller groups only grow the rings; images up to it (small
/// requests, video tiles) run as one group, layer at a time.
const MAX_GROUP: usize = 64;

/// Byte alignment of every arena region (rings, step states, slab): one
/// cache line, so a vector row access that starts a region or a 64-byte
/// row never splits a line.
const ARENA_ALIGN: usize = 64;

/// `len` elements rounded up to whole [`ARENA_ALIGN`]-byte lines.
fn aligned<D: Datapath>(len: usize) -> usize {
    len.next_multiple_of(ARENA_ALIGN / std::mem::size_of::<D::Elem>())
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
    /// Head rows per row group.
    group: usize,
    /// `targets[g * (n + 1) + c]`: rows producer column `c` has written
    /// once group `g` ran. Column 0 stages the input, column `s + 1` runs
    /// step `s` (the head is column `n`).
    targets: Vec<usize>,
    /// The ring each producer column below the head writes (column 0's is
    /// empty unless the datapath stages the input).
    rings: Vec<Ring>,
    /// Per-layer tap-offset tables ([`Datapath::tap_offsets`]).
    tap_offs: Vec<Vec<usize>>,
    /// Per step: arena offset and length of its carried state.
    states: Vec<(usize, usize)>,
    /// The rings, then the per-step states, then the slab, from the first
    /// [`ARENA_ALIGN`]-byte boundary at `arena[base]`, each region on such
    /// a boundary.
    arena: Vec<D::Elem>,
    base: usize,
    off_slab: usize,
    slab_len: usize,
}

/// The f32 planned executor.
pub type InferPlan = Plan<CollapsedKernels>;

impl<D: Datapath> Plan<D> {
    /// Compiles a plan for an `h x w` LR input. The plan runs on the
    /// calling thread; to spread one frame over the pool, run it as strips
    /// ([`crate::TilePlan::strips`], [`crate::tiling::run_tiles`]).
    ///
    /// # Panics
    ///
    /// Panics on a degenerate shape.
    pub fn new(kernels: Arc<D>, h: usize, w: usize) -> Self {
        assert!(h > 0 && w > 0, "degenerate input {h}x{w}");
        let graph = kernels.graph();
        let n = graph.layers().len();
        // Streaming pays only when its rings take less memory than one
        // group's layer-at-a-time planes: a short image whose planes are
        // smaller runs as one group.
        let (group, (rings, mut off)) = [group_rows::<D>(graph, w), h]
            .into_iter()
            .map(|g| (g, ring_layout::<D>(graph, h, w, g)))
            .min_by_key(|(_, (_, end))| *end)
            .expect("two candidate groups");
        let targets = schedule(graph, h, group);
        let tap_offs = (0..n)
            .map(|l| kernels.tap_offsets(l, rings[l].period, rings[l].window, w))
            .collect();
        // One group never resumes, so its steps (which run one after
        // another) share one state region.
        let lens: Vec<usize> = (0..n)
            .map(|l| aligned::<D>(kernels.state_len(l, w)))
            .collect();
        let states = if h <= group {
            let base = off;
            off += lens.iter().max().unwrap_or(&0);
            lens.iter().map(|&len| (base, len)).collect()
        } else {
            lens.iter()
                .map(|&len| {
                    off += len;
                    (off - len, len)
                })
                .collect()
        };
        let slab_len = aligned::<D>(kernels.slab_len(w));
        // Zero-filled, but nothing relies on it: every run rewrites the
        // rings (the int8 pads with each wire's zero point) before it
        // reads them.
        let arena = vec![D::Elem::default(); aligned::<D>(1) + off + slab_len];
        let base = arena.as_ptr().align_offset(ARENA_ALIGN);
        Self {
            kernels,
            h,
            w,
            variant: kernel_variant(),
            group,
            targets,
            rings,
            tap_offs,
            states,
            arena,
            base,
            off_slab: off,
            slab_len,
        }
    }

    /// [`Plan::new`], for callers written when a plan split its rows into
    /// sub-bands on the pool. Plans now run on the calling thread, so one
    /// band is the only count left.
    ///
    /// # Panics
    ///
    /// Panics unless `nbands` is 1, and as [`Plan::new`].
    pub fn with_bands(kernels: Arc<D>, h: usize, w: usize, nbands: usize) -> Self {
        assert_eq!(
            nbands, 1,
            "a plan runs one band; use strips to run a frame in parallel"
        );
        Self::new(kernels, h, w)
    }

    /// The `(h, w)` LR shape this plan was compiled for.
    pub fn shape(&self) -> (usize, usize) {
        (self.h, self.w)
    }

    /// Head rows per row group, derived at build from the layer graph
    /// and the width — or `h` when the image is short enough that its
    /// layer-at-a-time planes take less memory than the rings. A plan
    /// whose group covers `h` runs layer at a time.
    pub fn group_rows(&self) -> usize {
        self.group
    }

    /// Rows the tallest ring holds before it wraps.
    pub fn ring_rows(&self) -> usize {
        self.rings.iter().map(|r| r.period).max().unwrap_or(0)
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

    /// Runs the planned network on one LR plane (`h * w` floats) into a
    /// preallocated HR plane (`h*scale * w*scale` floats) on the calling
    /// thread: [`Plan::run_tile_into`] with the whole image as the
    /// window. Performs zero heap allocations.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths disagree with the planned shape.
    pub fn run_image_into(&mut self, input: &[f32], out: &mut [f32]) {
        self.run_image(input, out, None);
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
        self.run_image(input, out, Some(layer_nanos));
    }

    fn run_image(&mut self, input: &[f32], out: &mut [f32], timings: Option<&mut [u64]>) {
        assert_eq!(input.len(), self.h * self.w, "input plane size");
        let whole = TileSpec {
            y0: 0,
            y1: self.h,
            x0: 0,
            x1: self.w,
            ey0: 0,
            ey1: self.h,
            ex0: 0,
            ex1: self.w,
        };
        let hr = SendPtr(out.as_mut_ptr());
        // SAFETY: `out` is borrowed exclusively for the call.
        unsafe { self.run_window(input, self.w, &whole, hr, out.len(), timings) };
    }

    /// Runs the window `spec` of the caller's LR plane `lr` (`lr_w`
    /// wide) and writes its interior into the caller's HR plane `hr`
    /// (`lr_w * scale` wide) at `(y0 * scale, x0 * scale)`; nothing else
    /// of `hr` is touched. Step 0 reads rows `ey0..ey1` and columns
    /// `ex0..ex1` of `lr` in place, and the pixels outside the window read
    /// as zero, exactly as in a cropped patch, so the interior holds the
    /// bits a whole-image run writes there (the seam-exact argument of
    /// [`crate::tiling`]). Performs zero heap allocations.
    ///
    /// # Panics
    ///
    /// Panics unless the plan's shape is the window's patch shape, the
    /// window lies inside `lr` and its interior inside the window, and
    /// `hr` holds `lr.len() * scale^2` floats.
    pub fn run_tile_into(&mut self, lr: &[f32], lr_w: usize, spec: &TileSpec, hr: &mut [f32]) {
        // SAFETY: `hr` is borrowed exclusively for the call.
        unsafe { self.run_window(lr, lr_w, spec, SendPtr(hr.as_mut_ptr()), hr.len(), None) };
    }

    /// The one step loop behind every run: the window `spec` of `lr`
    /// through the chain, its interior into the `hr_len`-float HR plane
    /// at `hr`.
    ///
    /// # Safety
    ///
    /// `hr` must point to `hr_len` floats that outlive the call, whose
    /// region under the interior of `spec` no one else accesses during
    /// it.
    pub(crate) unsafe fn run_window(
        &mut self,
        lr: &[f32],
        lr_w: usize,
        spec: &TileSpec,
        hr: SendPtr<f32>,
        hr_len: usize,
        mut timings: Option<&mut [u64]>,
    ) {
        let (h, w) = (self.h, self.w);
        let kernels = &*self.kernels;
        let graph = kernels.graph();
        let cols = graph.steps.len() + 1;
        let s = graph.scale();
        assert_eq!(hr_len, lr.len() * s * s, "output plane size");
        assert_eq!((spec.patch_h(), spec.patch_w()), (h, w), "window shape");
        assert!(lr_w > 0 && lr.len().is_multiple_of(lr_w), "LR plane width");
        assert!(
            spec.ey1 * lr_w <= lr.len() && spec.ex1 <= lr_w,
            "window outside the LR plane"
        );
        assert!(
            spec.ey0 <= spec.y0
                && spec.y1 <= spec.ey1
                && spec.ex0 <= spec.x0
                && spec.x1 <= spec.ex1,
            "interior outside the window"
        );
        let input = &lr[spec.ey0 * lr_w + spec.ex0..];
        let out = HrWindow {
            graph,
            ptr: hr,
            width: lr_w * s,
            origin: (spec.ey0, spec.ex0),
            rows: (spec.y0 - spec.ey0, spec.y1 - spec.ey0),
            cols: (spec.x0 - spec.ex0, spec.x1 - spec.ex0),
        };
        // Each step's slot gets the time since the previous mark, so step 0
        // also carries the input staging of every group.
        let mut mark = timings.is_some().then(Instant::now);
        let mk = microkernel(self.variant);
        let arena = SendPtr(self.arena[self.base..].as_mut_ptr());
        // SAFETY: the slab lies past every ring and state, and nothing
        // else borrows it while the step loop runs.
        let slab = unsafe { arena.slice_mut(self.off_slab, self.slab_len) };
        // SAFETY (every ring view below): a step reads only rings other
        // than the one it writes, and each ring's rows were written by an
        // earlier step or group; steps run one after another on this
        // thread. Ring periods cover every row still read (`ring_periods`).
        let view = |c: usize| {
            let r = self.rings[c];
            let data = unsafe { arena.slice(r.off, r.len) };
            RingRef {
                data: if c == 0 {
                    D::input_rows(input, data)
                } else {
                    data
                },
                period: r.period,
                window: r.window,
                stride: if c == 0 && !D::STAGES_INPUT { lr_w } else { w },
            }
        };
        for (g, row) in self.targets.chunks_exact(cols).enumerate() {
            for (c, &y1) in row.iter().enumerate() {
                let y0 = if g == 0 {
                    0
                } else {
                    self.targets[(g - 1) * cols + c]
                };
                if c == 0 {
                    if D::STAGES_INPUT && y0 < y1 {
                        kernels.stage_rows(mk, input, lr_w, arena, self.rings[0], h, w, y0, y1);
                    }
                    continue;
                }
                let si = c - 1;
                if y0 < y1 {
                    let step = graph.steps[si];
                    let head = c == cols - 1;
                    let io = StepIo {
                        layer: si,
                        h,
                        w,
                        src: view(si),
                        offs: &self.tap_offs[si],
                        first: step.add_first.then(|| view(1)),
                        input: (head && graph.input_residual).then(|| view(0)),
                        double_output: step.double_output,
                        arena,
                        dst: (!head).then(|| self.rings[c]),
                        out,
                    };
                    let (state_off, state_len) = self.states[si];
                    // SAFETY: the state region is disjoint from the rings
                    // and the slab, and only this step borrows it now (a
                    // one-group plan's steps share it, one after another).
                    let state = unsafe { arena.slice_mut(state_off, state_len) };
                    kernels.run_band(mk, &io, y0..y1, &mut *slab, state);
                }
                if let (Some(t), Some(m)) = (timings.as_deref_mut(), mark.as_mut()) {
                    let now = Instant::now();
                    t[si] += (now - *m).as_nanos() as u64;
                    *m = now;
                }
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

/// The rings of an `h x w` plan streaming `group`-row groups, each
/// producer column's at its arena offset, and the arena offset past them:
/// the input and `first` rings, then the middle steps' rings. A one-group
/// plan runs layer at a time, so alternate middle rings are never live
/// together and share two buffers (ping-pong).
fn ring_layout<D: Datapath>(
    graph: &LayerGraph,
    h: usize,
    w: usize,
    group: usize,
) -> (Vec<Ring>, usize) {
    let layers = graph.layers();
    let periods = ring_periods(graph, h, group, D::ZERO_ROWS);
    let mut rings: Vec<Ring> = (0..layers.len())
        .map(|c| {
            let window = graph
                .consumers(c)
                .iter()
                .map(|&(_, up, down)| up + down + 1)
                .max()
                .unwrap_or(1);
            // Column 0 without staging is the caller's plane: a ring that
            // never wraps and takes no arena.
            let (period, len) = match c {
                0 if !D::STAGES_INPUT => (h, 0),
                0 => (periods[0], D::ring_len(1, periods[0], window, w)),
                _ => (
                    periods[c],
                    D::ring_len(layers[c - 1].cout, periods[c], window, w),
                ),
            };
            Ring {
                off: 0,
                len,
                period,
                window,
            }
        })
        .collect();
    let mut off = 0;
    let (ends, middles) = rings.split_at_mut(2);
    for r in ends {
        r.off = off;
        off += aligned::<D>(r.len);
    }
    if h <= group {
        let len = aligned::<D>(middles.iter().map(|r| r.len).max().unwrap_or(0));
        for (i, r) in middles.iter_mut().enumerate() {
            r.off = off + (i % 2) * len;
        }
        off += middles.len().min(2) * len;
    } else {
        for r in middles {
            r.off = off;
            off += aligned::<D>(r.len);
        }
    }
    (rings, off)
}

/// Head rows per group for `graph` at width `w`: as many as keep the
/// widest step's source and destination rows within [`GROUP_BYTES`],
/// even (Winograd tile rows), between 2 and [`MAX_GROUP`].
fn group_rows<D: Datapath>(graph: &LayerGraph, w: usize) -> usize {
    let row_bytes = graph
        .layers()
        .iter()
        .map(|l| D::ring_len(l.cin + l.cout, 1, 1, w))
        .max()
        .unwrap_or(1)
        * std::mem::size_of::<D::Elem>();
    (GROUP_BYTES / row_bytes.max(1)).clamp(2, MAX_GROUP) & !1
}

/// The depth-first schedule of an `h`-row image: per row group, how many
/// rows each producer column (0 = input staging, `s + 1` = step `s`) has
/// written once the group ran. The head advances `group` rows; every
/// other column runs ahead to the last row its consumer's window reads,
/// rounded up to a whole Winograd tile row.
fn schedule(graph: &LayerGraph, h: usize, group: usize) -> Vec<usize> {
    let n = graph.layers().len();
    let mut targets = vec![0; h.div_ceil(group) * (n + 1)];
    for (g, row) in targets.chunks_exact_mut(n + 1).enumerate() {
        row[n] = ((g + 1) * group).min(h);
        for c in (0..n).rev() {
            let (_, down) = graph.layers()[c].reach();
            row[c] = (row[c + 1] + down).next_multiple_of(2).min(h);
        }
    }
    targets
}

/// Rows each ring must hold under `schedule(graph, h, group)`: per group,
/// from the lowest row any consumer still reads (or the producer writes)
/// to the highest row written, counting `zero_rows` stored rows past
/// either image edge. A group's writes thus never land on a slot a
/// consumer still reads.
fn ring_spans(graph: &LayerGraph, h: usize, group: usize, zero_rows: usize) -> Vec<usize> {
    let n = graph.layers().len();
    let targets = schedule(graph, h, group);
    let zr = zero_rows as isize;
    let mut spans = vec![0; n];
    for (c, span) in spans.iter_mut().enumerate() {
        let consumers = graph.consumers(c);
        let mut done = 0isize;
        for g in 0..targets.len() / (n + 1) {
            let range = |col: usize| {
                let lo = if g == 0 {
                    0
                } else {
                    targets[(g - 1) * (n + 1) + col]
                };
                (lo as isize, targets[g * (n + 1) + col] as isize)
            };
            let (w0, w1) = range(c);
            if w1 > w0 {
                done = if w1 == h as isize { w1 + zr } else { w1 };
            }
            // The lowest row this group writes or still reads.
            let written = (w0 < w1).then_some(if w0 == 0 { -zr } else { w0 });
            let read = consumers.iter().filter_map(|&(cc, up, _)| {
                let (c0, c1) = range(cc);
                (c0 < c1).then_some((c0 - up as isize).max(-zr))
            });
            if let Some(lo) = written.into_iter().chain(read).min() {
                *span = (*span).max((done - lo) as usize);
            }
        }
    }
    spans
}

/// Ring periods for an `h`-row image. They cover this schedule and every
/// tall image's (the row patterns of images taller than `base` repeat
/// with period `group`), so a plan's arena stops growing with `h` once
/// `h` passes a few row groups; no ring holds more rows than exist.
fn ring_periods(graph: &LayerGraph, h: usize, group: usize, zero_rows: usize) -> Vec<usize> {
    let base = group * (graph.layers().len() + 3);
    let mut periods = ring_spans(graph, h, group, zero_rows);
    // One group: nothing wraps, and every period is already the cap.
    let tall = if h > group { base..base + group } else { 0..0 };
    for hv in tall {
        for (p, s) in periods
            .iter_mut()
            .zip(ring_spans(graph, hv, group, zero_rows))
        {
            *p = (*p).max(s);
        }
    }
    for p in &mut periods {
        *p = (*p).min(h + 2 * zero_rows);
    }
    periods
}

/// Lazily builds and caches one [`Plan`] per tile shape. Int8
/// quantization parameters are fixed per model (calibrated once), so int8
/// tiles composite exactly like f32 ones.
///
/// The cache is bounded: at most [`TilePlanner::DEFAULT_CAP`] shapes are
/// kept (override with [`TilePlanner::with_capacity`]), evicting the
/// least-recently-used plan once full. An image run sees up to nine
/// shapes (see [`TilePlanner::DEFAULT_CAP`]); long-lived video sessions
/// with varying frame sizes would otherwise grow the cache without
/// bound. Eviction only costs a rebuild on the
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
    /// Default bound on cached tile shapes. A tiled run of one frame size
    /// touches up to nine: the halo is clamped at the image border, so
    /// the first, interior and last tiles differ on each axis, and a
    /// walk over all nine through one planner evicts. Video sessions run
    /// dirty rectangles instead ([`crate::TilePlan::dirty_rects`]): a
    /// steady pan touches two or three rectangle shapes plus the whole
    /// frame, well inside the bound.
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
            self.plans.insert(0, Plan::new(self.kernels.clone(), h, w));
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
    /// cached plan for that patch shape, returning the whole SR patch.
    /// Tiled runs write interiors in place instead
    /// ([`Plan::run_tile_into`] on [`TilePlanner::plan_for`]'s plan).
    pub fn run_tile(&mut self, lr: &Tensor, spec: &TileSpec) -> Tensor {
        let patch = lr.crop_hw(spec.ey0, spec.ey1, spec.ex0, spec.ex1);
        let dims = patch.shape();
        self.plan_for(dims[1], dims[2]).run(&patch)
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
    const ZERO_ROWS: usize = 0;

    fn graph(&self) -> &LayerGraph {
        &self.graph
    }

    fn ring_len(c: usize, period: usize, _window: usize, w: usize) -> usize {
        c * period * w
    }

    /// Winograd layers keep the tile-row kernel's scratch and two raw
    /// output rows per output channel; direct-conv layers keep one padded
    /// output row per channel plus the `kh` padded input rows of every
    /// input channel for the current output row.
    fn slab_len(&self, w: usize) -> usize {
        self.layers
            .iter()
            .zip(self.graph.layers())
            .map(|(l, s)| {
                if l.wino_u.is_some() {
                    let (tiles, _) = wino_row_geometry(w);
                    wino_scratch_len(s.cin) + s.cout * 2 * 2 * tiles
                } else {
                    s.cout * w.next_multiple_of(8) + s.cin * s.kh * padded_stride(w, s.kw)
                }
            })
            .max()
            .unwrap_or(0)
    }

    /// A Winograd step carries its four-row ring of split input rows from
    /// one row group to the next, so each input row is split once.
    fn state_len(&self, layer: usize, w: usize) -> usize {
        if self.layers[layer].wino_u.is_some() {
            4 * self.graph.layers()[layer].cin * 2 * wino_row_geometry(w).1
        } else {
            0
        }
    }

    /// The staging-slab offset of every tap of a direct-conv layer in
    /// im2col row order (`KC`-sized blocks are contiguous slices), once
    /// per output-row phase `y % kh`: `kh` tables of `cin * kh * kw`
    /// offsets. Each channel's `kh` staged rows are a ring (input row `iy`
    /// in slot `(iy + pt) % kh`), so tap `(cc, ky, kx)` of output row `y`
    /// reads slot `(y + ky) % kh`. Empty for Winograd layers. Padded rows
    /// make the offsets independent of the source ring.
    fn tap_offsets(&self, layer: usize, _period: usize, _window: usize, w: usize) -> Vec<usize> {
        if self.layers[layer].wino_u.is_some() {
            return Vec::new();
        }
        let s = self.graph.layers()[layer];
        let stride = padded_stride(w, s.kw);
        (0..s.kh * s.cin * s.kh * s.kw)
            .map(|i| {
                let (phase, p) = (i / (s.cin * s.kh * s.kw), i % (s.cin * s.kh * s.kw));
                let (cc, ky, kx) = (p / (s.kh * s.kw), p / s.kw % s.kh, p % s.kw);
                (cc * s.kh + (phase + ky) % s.kh) * stride + kx
            })
            .collect()
    }

    fn input_rows<'a>(input: &'a [f32], _staged: &'a [f32]) -> &'a [f32] {
        input
    }

    /// Step 0 reads the caller's plane directly; nothing is staged.
    fn stage_rows(
        &self,
        _mk: &dyn Microkernel,
        _input: &[f32],
        _stride: usize,
        _arena: SendPtr<f32>,
        _ring: Ring,
        _h: usize,
        _w: usize,
        _y0: usize,
        _y1: usize,
    ) {
        unreachable!("the f32 datapath reads the caller's input plane")
    }

    fn run_band(
        &self,
        mk: &dyn Microkernel,
        io: &StepIo<'_, f32>,
        rows: Range<usize>,
        slab: &mut [f32],
        state: &mut [f32],
    ) {
        let (layer, shape) = (&self.layers[io.layer], self.graph.layers()[io.layer]);
        let w = io.w;
        let epi = Epilogue {
            bias: &layer.bias,
            act: &layer.act,
            double_output: io.double_output,
            add_first: io.first,
            input_plane: io.input,
            dst: match io.dst {
                Some(ring) => Dst::Ring {
                    ptr: io.arena,
                    off: ring.off,
                    period: ring.period,
                },
                None => Dst::DepthToSpace(io.out),
            },
        };
        if layer.wino_u.is_some() {
            wino_band(mk, layer, shape, &io.src, io.h, w, rows, slab, state, &epi);
        } else {
            conv_band(
                mk, layer, shape, io.offs, &io.src, io.h, w, rows, slab, &epi,
            );
        }
    }
}

/// Row `y` of channel `c` of an f32 ring, or of the caller's input
/// window (`w` floats).
fn ring_row<'a>(r: &RingRef<'a, f32>, c: usize, y: usize, w: usize) -> &'a [f32] {
    &r.data[(c * r.period + y % r.period) * r.stride..][..w]
}

/// Everything the fused output write of one band needs. `emit` performs
/// exactly the per-element operations of the unfused path, in the same
/// order: `+ bias`, activation, residuals, destination permutation.
struct Epilogue<'a> {
    bias: &'a [f32],
    act: &'a ActKind,
    double_output: bool,
    add_first: Option<RingRef<'a, f32>>,
    input_plane: Option<RingRef<'a, f32>>,
    dst: Dst<'a>,
}

enum Dst<'a> {
    /// Channel-major rows of the ring at `off` in the arena.
    Ring {
        ptr: SendPtr,
        off: usize,
        period: usize,
    },
    /// Depth-to-space into the window's interior of the HR output.
    DepthToSpace(HrWindow<'a>),
}

impl Epilogue<'_> {
    /// Applies the fused tail to output row `y` of every channel — raw
    /// rows `raw[co * stride..][..w]` — in one [`epilogue_row`] call per
    /// row, which keeps the unfused path's per-element op order
    /// (`+ bias`, activation, doubling, `+ first`, `+ input`) and writes
    /// straight to the ring row, or back into the raw row for the head.
    /// The head's store ([`HrWindow::store`]) then interleaves the
    /// `scale` channel rows of each output row in one pass.
    fn emit(&self, y: usize, raw: &mut [f32], stride: usize, w: usize) {
        for (co, &bias) in self.bias.iter().enumerate() {
            let e = RowEpilogue {
                bias,
                act: match self.act {
                    ActKind::None => RowAct::Linear,
                    ActKind::Relu => RowAct::Relu,
                    ActKind::PRelu(ref a) => RowAct::PRelu(a[co]),
                },
                double: self.double_output,
                first: self.add_first.as_ref().map(|f| ring_row(f, co, y, w)),
                input: self.input_plane.as_ref().map(|i| ring_row(i, 0, y, w)),
            };
            let out = match self.dst {
                // SAFETY: a group's rows land on distinct ring slots
                // (`ring_periods`), which no ring view of this step reads.
                Dst::Ring { ptr, off, period } => {
                    Some(unsafe { ptr.slice_mut(off + (co * period + y % period) * w, w) })
                }
                Dst::DepthToSpace(_) => None,
            };
            epilogue_row(&mut raw[co * stride..][..w], out, &e);
        }
        if let Dst::DepthToSpace(out) = self.dst {
            // SAFETY: the head's band stores its rows on the plan's thread
            // during the run.
            unsafe { out.store(y, raw, stride) };
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

/// Executes output rows `rows` of a non-3x3 layer as a
/// direct blocked convolution with the epilogue fused into the row write.
/// No im2col, no GEMM call — yet bit-identical to `im2col + gemm`. The
/// `kh` input rows of every channel that an output row reads are staged
/// from the source ring as zero-padded rows in a per-channel ring of `kh`
/// slots: the band's first row stages all of them, every later row only
/// the one new row, in the slot the row `kh` above it held. Tap `p` of
/// the im2col order then reads the slab at the fixed offset
/// `offs[phase * k + p]` for the row's phase `y % kh`, and padding taps
/// multiply `0.0` exactly as im2col's zero entries do. Taps are grouped
/// into the same [`KC`]-sized k-blocks as the packed GEMM; each block's
/// chain starts from `+0.0` in ascending k order, and blocks combine in
/// order (the first by plain write).
#[allow(clippy::too_many_arguments)]
fn conv_band(
    mk: &dyn Microkernel,
    layer: &KernelLayer,
    shape: LayerShape,
    offs: &[usize],
    src: &RingRef<'_, f32>,
    h: usize,
    w: usize,
    rows: Range<usize>,
    slab: &mut [f32],
    epi: &Epilogue<'_>,
) {
    let kh = shape.kh;
    let (pt, _pb, pl, _pr) = Conv2dParams::same().resolve_padding(kh, shape.kw);
    let k = shape.cin * kh * shape.kw;
    let taps4 = layer.taps4.as_ref().expect("direct-conv layer");
    let (npad, stride) = (w.next_multiple_of(8), padded_stride(w, shape.kw));
    let (totals, rest) = slab.split_at_mut(shape.cout * npad);
    let stage = &mut rest[..shape.cin * kh * stride];
    for y in rows.clone() {
        let fresh = if y == rows.start { 0 } else { kh - 1 };
        for (cc, slots) in stage.chunks_exact_mut(kh * stride).enumerate() {
            for ky in fresh..kh {
                let row = &mut slots[(y + ky) % kh * stride..][..stride];
                match (y + ky).checked_sub(pt).filter(|&iy| iy < h) {
                    Some(iy) => {
                        row[..pl].fill(0.0);
                        row[pl..pl + w].copy_from_slice(ring_row(src, cc, iy, w));
                        row[pl + w..].fill(0.0);
                    }
                    None => row.fill(0.0),
                }
            }
        }
        let offs = &offs[y % kh * k..][..k];
        for (acc, wg) in totals.chunks_mut(4 * npad).zip(taps4.chunks_exact(4 * k)) {
            for k0 in (0..k).step_by(KC) {
                let k1 = (k0 + KC).min(k);
                mk.conv_taps4(acc, npad, &wg[4 * k0..4 * k1], &offs[k0..k1], stage, k0 > 0);
            }
        }
        epi.emit(y, totals, npad, w);
    }
}

/// Executes output rows `rows` of a 3x3 layer with the Winograd
/// `F(2x2, 3x3)` pipeline, one tile row at a time, epilogue fused into the
/// row write. Each input row is split once into zero-padded even/odd
/// columns and kept in `ring`, the step's four-row ring (a tile row reads
/// input rows `oy - 1 ..= oy + 2`, so consecutive tile rows share two,
/// also across row groups), then [`Microkernel::wino_tile_row`] runs the
/// whole row and writes both raw output rows of every channel for the
/// epilogue. Rows and columns outside the plane stage as `0.0`, the zero
/// padding of the reference's per-tile gather. Tiles are independent, so
/// running the band's tile rows is arithmetically identical to the
/// whole-image kernel; bands start on even rows so no tile straddles two.
#[allow(clippy::too_many_arguments)]
fn wino_band(
    mk: &dyn Microkernel,
    layer: &KernelLayer,
    shape: LayerShape,
    src: &RingRef<'_, f32>,
    h: usize,
    w: usize,
    rows: Range<usize>,
    slab: &mut [f32],
    ring: &mut [f32],
    epi: &Epilogue<'_>,
) {
    let (cin, cout) = (shape.cin, shape.cout);
    let u = layer.wino_u.as_ref().expect("wino layer");
    let (tiles, sw) = wino_row_geometry(w);
    let (scratch, rest) = slab.split_at_mut(wino_scratch_len(cin));
    let ostride = 2 * tiles;
    let rowbuf = &mut rest[..cout * 2 * ostride];
    let slot_len = cin * 2 * sw;
    for ty in rows.start / 2..rows.end.div_ceil(2) {
        let oy = 2 * ty;
        // Input row `oy - 1 + r` lives in ring slot `(oy + r) % 4`; the
        // image's first tile row stages all four, every later one (in
        // this band or resumed from the step's previous one) the two new.
        let fresh = if oy == 0 { 0 } else { 2 };
        for r in fresh..4 {
            let slot = &mut ring[(oy + r) % 4 * slot_len..][..slot_len];
            let iy = (oy + r).checked_sub(1).filter(|&iy| iy < h);
            for (cc, halves) in slot.chunks_exact_mut(2 * sw).enumerate() {
                match iy {
                    Some(iy) => split_row(halves, ring_row(src, cc, iy, w)),
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
        for dy in 0..2 {
            if oy + dy < h {
                epi.emit(oy + dy, &mut rowbuf[dy * ostride..], 2 * ostride, w);
            }
        }
    }
}

/// Tiles per Winograd tile row at width `w`, and the length of one
/// even/odd half of a split input row: `tiles + 1` (tile `t` reads
/// columns `t` and `t + 1` of each half), rounded up to whole 16-float
/// lines so every half starts on one.
fn wino_row_geometry(w: usize) -> (usize, usize) {
    let tiles = w.div_ceil(2);
    (tiles, (tiles + 1).next_multiple_of(16))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Sesr, SesrConfig};

    fn collapsed(cfg: SesrConfig) -> CollapsedSesr {
        Sesr::new(cfg).collapse()
    }

    fn plan_of(net: &CollapsedSesr, h: usize, w: usize) -> InferPlan {
        InferPlan::new(Arc::new(CollapsedKernels::new(net)), h, w)
    }

    #[test]
    fn planned_run_is_bit_identical_to_reference() {
        let net = collapsed(SesrConfig::m(2).with_expanded(8).with_seed(3));
        let lr = Tensor::rand_uniform(&[1, 9, 13], 0.0, 1.0, 1);
        let reference = net.run_reference(&lr);
        let planned = plan_of(&net, 9, 13).run(&lr);
        assert_eq!(reference.max_abs_diff(&planned), 0.0);
        assert_eq!(planned.shape(), reference.shape());
    }

    #[test]
    #[should_panic(expected = "a plan runs one band")]
    fn with_bands_accepts_only_one_band() {
        let net = collapsed(SesrConfig::m(2).with_expanded(8).with_seed(3));
        let _ = InferPlan::with_bands(Arc::new(CollapsedKernels::new(&net)), 8, 8, 2);
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
            let mut plan = plan_of(&net, 11, 7);
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
        let mut plan = plan_of(&net, 9, 11);
        assert_eq!(reference.max_abs_diff(&plan.run(&lr)), 0.0);
    }

    #[test]
    fn plan_reuse_does_not_leak_state_between_images() {
        let net = collapsed(SesrConfig::m(2).with_expanded(8).with_seed(3));
        let mut plan = plan_of(&net, 8, 8);
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
        let mut plan = plan_of(&net, 16, 16);
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
        let mut plan = plan_of(&net, 10, 14);
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
        assert_eq!(planner.evictions(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn tile_planner_rejects_zero_capacity() {
        let net = collapsed(SesrConfig::m(2).with_expanded(8).with_seed(3));
        let _ = TilePlanner::with_capacity(Arc::new(CollapsedKernels::new(&net)), 0);
    }

    #[test]
    fn schedule_runs_every_step_ahead_of_its_consumer() {
        let net = collapsed(SesrConfig::m(3).with_expanded(8).with_seed(3));
        let kernels = CollapsedKernels::new(&net);
        let graph = kernels.graph();
        let n = graph.layers().len();
        for h in [1usize, 5, 16, 37] {
            let t = schedule(graph, h, 4);
            assert_eq!(t.len(), h.div_ceil(4) * (n + 1));
            for row in t.chunks_exact(n + 1) {
                for c in 0..n {
                    let (_, down) = graph.layers()[c].reach();
                    assert!(row[c] >= (row[c + 1] + down).min(h), "column {c} behind");
                    assert!(row[c] % 2 == 0 || row[c] == h);
                }
            }
            assert!(t[t.len() - (n + 1)..].iter().all(|&r| r == h));
        }
    }

    #[test]
    fn streamed_plan_matches_reference_on_tall_images() {
        let net = collapsed(SesrConfig::m(2).with_expanded(8).with_seed(6));
        let w = 9;
        let group = plan_of(&net, 1, w).group_rows();
        for h in [group - 1, group + 1, 3 * group + 5] {
            let lr = Tensor::rand_uniform(&[1, h, w], 0.0, 1.0, h as u64);
            let reference = net.run_reference(&lr);
            let planned = plan_of(&net, h, w).run(&lr);
            assert_eq!(reference.max_abs_diff(&planned), 0.0, "h={h} diverged");
        }
    }

    #[test]
    fn arena_is_bounded_by_width_not_height() {
        let net = collapsed(SesrConfig::m(3).with_expanded(8).with_seed(3));
        let w = 24;
        let group = plan_of(&net, 1, w).group_rows();
        let h = 12 * group;
        let short = plan_of(&net, h, w).arena_bytes();
        assert_eq!(short, plan_of(&net, 2 * h, w).arena_bytes());
        assert_eq!(short, plan_of(&net, 2 * h + 3, w).arena_bytes());
        assert!(plan_of(&net, h, 2 * w).arena_bytes() > short);
    }
}
