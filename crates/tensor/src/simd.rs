//! Runtime-dispatched CPU microkernels: scalar, AVX2, and AVX2+FMA.
//!
//! Every hot inner loop of the planned executor — the packed GEMM's 8x8
//! register tile, the direct convolution's tap-accumulate, the Winograd
//! `F(2x2, 3x3)` tile row (and the per-tile transforms and channel
//! reduction of the reference) — dispatches through one [`Microkernel`]
//! trait object picked
//! at runtime with `is_x86_feature_detected!`. Three x86 variants exist:
//!
//! * [`KernelVariant::Scalar`] — the reference implementation; plain Rust
//!   with no intrinsics, auto-vectorized by the compiler. Always available.
//! * [`KernelVariant::Avx2`] — explicit 8-lane `std::arch` intrinsics with
//!   *separate* multiply and add. Rust never enables floating-point
//!   contraction, so `mul` + `add` round twice exactly like the scalar
//!   code: this variant is **bit-identical to `Scalar`** on every input
//!   (the identity proptests assert it).
//! * [`KernelVariant::Avx2Fma`] — same lane structure with single-rounding
//!   `fmadd`. Output bits *differ* from `Scalar`/`Avx2` (they are more
//!   accurate), but the variant is self-consistent: every multiply-add in
//!   both the planned and the reference path funnels through this module,
//!   so planned-vs-reference and 1-vs-N-thread bit identity hold *within*
//!   the variant. Scalar remainder lanes use [`f32::mul_add`], which the
//!   probe tests prove bit-equal to `vfmadd`.
//!
//! Vector width is not part of that contract — a lane runs the same op at
//! any width — so some methods carry a wider body *inside* the AVX2
//! variants, probed once per process and never a [`KernelVariant`] of its
//! own:
//!
//! * The f32 plan's two compute kernels — [`Microkernel::conv_taps4`] (4
//!   channels x 64 columns in zmm, the last `n % 16` columns on the 8-lane
//!   body) and [`Microkernel::wino_tile_row`] (an 8-channel x 2-vector
//!   register block where the 8-lane body holds 4 x 2) — and the int8
//!   epilogues ([`Microkernel::qrequant_pack_row`],
//!   [`Microkernel::qresidual_pack_row`], [`Microkernel::qhead_row`]) run
//!   16-lane AVX-512F bodies when the CPU has AVX-512F, with the variant's
//!   own madd (`Avx2` stays unfused, `Avx2Fma` fused) and masked tails. [`conv_taps4_bodies`] and
//!   [`wino_tile_row_bodies`] hand out every f32 body the CPU can run.
//! * The quantized executor's integer tap kernel,
//!   [`Microkernel::qmadd_taps4`], has no madd flavor, so both AVX2
//!   variants share it: on CPUs with AVX-512F and AVX-512 VNNI it runs
//!   `vpdpbusd` on zmm (four `u8 x i8` products per lane, 4 channels x 64
//!   columns, masked tail), otherwise it splits each word into its even
//!   and odd bytes and runs two `vpmaddwd` on ymm (4 channels x 16
//!   columns, scalar tail). Integer accumulation under the executor's
//!   operand bounds is exact and associative, so every body, like the
//!   scalar reference, yields the same bits. [`Microkernel::int8_body`]
//!   names the body that runs; [`int8_bodies`] hands each one out.
//!
//! The operations with no multiply-add pairs — the Winograd input/output
//! transforms (pure add/sub) and the activations of the int8 epilogues —
//! are bit-identical across *all* variants: vectorizing changes which
//! lane computes an element, never the operand pair. The one subtle case
//! is ReLU: `_mm256_max_ps(t, +0.0)` with the zero in the second operand
//! returns `+0.0` for `t ∈ {-0.0, +0.0, NaN}` exactly like
//! `f32::max(t, 0.0)` in an optimized build (unit-tested below).
//!
//! The f32 plan's row passes that do next to no arithmetic — the fused
//! epilogue row ([`epilogue_row`]) and the Winograd input split
//! ([`split_row`]) — are plain Rust the compiler vectorizes, with no
//! variant: they are bound by memory, and explicit 8- and 16-lane bodies
//! measured no faster inside an m5 frame (EXPERIMENTS.md E30).
//!
//! The process default is chosen once by [`kernel_variant`] and can be
//! overridden with [`set_kernel_variant`] (benches align the global to a
//! plan's tuned variant before running the reference oracle). Building
//! with `--features force-scalar` pins the scalar path: detection reports
//! only `Scalar` and overrides are clamped to it, so a CI leg can prove
//! the non-SIMD path end to end.

use std::sync::atomic::{AtomicU8, Ordering};

/// Identifies one microkernel implementation. The variant is part of the
/// *numeric contract*: all kernels run under the same variant produce
/// outputs that are reproducible bit-for-bit across thread counts and
/// across the planned/reference executors; `Avx2Fma` outputs differ from
/// the two-rounding variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelVariant {
    /// Plain Rust, no intrinsics. Always available; pinned by the
    /// `force-scalar` cargo feature.
    Scalar,
    /// AVX2 intrinsics, separate multiply and add (bit-identical to
    /// `Scalar`).
    Avx2,
    /// AVX2 + FMA intrinsics, single-rounding multiply-add.
    Avx2Fma,
}

impl KernelVariant {
    /// Stable lowercase name, used in telemetry, bench JSON, and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            KernelVariant::Scalar => "scalar",
            KernelVariant::Avx2 => "avx2",
            KernelVariant::Avx2Fma => "avx2fma",
        }
    }

    /// Parses [`KernelVariant::name`] output (CLI `--variant` flag).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "scalar" => Some(KernelVariant::Scalar),
            "avx2" => Some(KernelVariant::Avx2),
            "avx2fma" => Some(KernelVariant::Avx2Fma),
            _ => None,
        }
    }

    /// Whether this variant's kernels can run on the current CPU (and are
    /// not pinned away by `force-scalar`).
    pub fn available(self) -> bool {
        detected_variants().contains(&self)
    }

    /// Whether the variant fuses multiply-add (single rounding). Variants
    /// that do NOT fuse are bit-identical to `Scalar`; variants that do
    /// are only self-consistent.
    pub fn fused_madd(self) -> bool {
        matches!(self, KernelVariant::Avx2Fma)
    }

    fn to_u8(self) -> u8 {
        match self {
            KernelVariant::Scalar => 0,
            KernelVariant::Avx2 => 1,
            KernelVariant::Avx2Fma => 2,
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            1 => KernelVariant::Avx2,
            2 => KernelVariant::Avx2Fma,
            _ => KernelVariant::Scalar,
        }
    }
}

/// The variants usable on this CPU, scalar first, fastest-candidate last.
/// Under `--features force-scalar` this is exactly `[Scalar]`. The list
/// (not just the best pick) is public so autotuners can enumerate
/// candidates deterministically.
pub fn detected_variants() -> &'static [KernelVariant] {
    if cfg!(feature = "force-scalar") {
        return &[KernelVariant::Scalar];
    }
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            if is_x86_feature_detected!("fma") {
                return &[
                    KernelVariant::Scalar,
                    KernelVariant::Avx2,
                    KernelVariant::Avx2Fma,
                ];
            }
            return &[KernelVariant::Scalar, KernelVariant::Avx2];
        }
    }
    &[KernelVariant::Scalar]
}

/// Sentinel meaning "not chosen yet" in [`GLOBAL_VARIANT`].
const VARIANT_UNSET: u8 = u8::MAX;

/// Process-wide default variant, `VARIANT_UNSET` until first use.
static GLOBAL_VARIANT: AtomicU8 = AtomicU8::new(VARIANT_UNSET);

/// The process-default kernel variant: the last detected variant (the
/// fastest candidate) on first call, or whatever [`set_kernel_variant`]
/// pinned. Everything that does not carry an explicit variant — the
/// packed GEMM, the reference Winograd — reads this, which is what keeps
/// the reference and planned executors on the same arithmetic.
pub fn kernel_variant() -> KernelVariant {
    let raw = GLOBAL_VARIANT.load(Ordering::Relaxed);
    if raw != VARIANT_UNSET {
        return KernelVariant::from_u8(raw);
    }
    let v = *detected_variants().last().expect("scalar always present");
    // Racing first calls write the same detected value; either wins.
    GLOBAL_VARIANT.store(v.to_u8(), Ordering::Relaxed);
    v
}

/// Overrides the process-default variant, returning the previous value
/// (restore it when done — benches align the global to a tuned plan's
/// variant around a reference run). Requests for an unavailable variant
/// (or any non-scalar variant under `force-scalar`) degrade to the best
/// available one.
pub fn set_kernel_variant(v: KernelVariant) -> KernelVariant {
    let prev = kernel_variant();
    let eff = if v.available() {
        v
    } else {
        *detected_variants().last().expect("scalar always present")
    };
    GLOBAL_VARIANT.store(eff.to_u8(), Ordering::Relaxed);
    prev
}

/// Per-channel activation applied by [`epilogue_row`],
/// mirroring the planner's `ActKind` with the slope flattened to the one
/// channel the row belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RowAct {
    /// No activation.
    Linear,
    /// `max(t, 0.0)`.
    Relu,
    /// `if t >= 0 { t } else { slope * t }`.
    PRelu(f32),
}

/// The per-row operands of [`epilogue_row`]: one output channel's
/// constants and the residual rows of the same output row.
#[derive(Debug, Clone, Copy)]
pub struct RowEpilogue<'a> {
    /// Per-channel bias.
    pub bias: f32,
    /// Activation applied after the bias.
    pub act: RowAct,
    /// Degenerate 2-layer feature residual: the activated row is added to
    /// itself.
    pub double: bool,
    /// The long feature residual's row (the first layer's output).
    pub first: Option<&'a [f32]>,
    /// The input residual's row.
    pub input: Option<&'a [f32]>,
}

/// Per-channel constants of the quantized executor's requantize-to-wire
/// epilogue. One output channel's pipeline, applied to each `i32`
/// accumulator `acc`:
///
/// ```text
/// v = scale_io * (acc as f32) + bias      (unfused mul, then add)
/// v = act(v)
/// q = ((v / out_scale).round() as i32 + zero_point).clamp(0, 255)
/// ```
///
/// `q` is the raw `u8` wire level the rings store. `round` is Rust's
/// `f32::round` — half away from zero. SIMD implementations must
/// reproduce this chain bit for bit; see
/// [`Microkernel::qrequant_pack_row`] for why that is possible.
#[derive(Debug, Clone, Copy)]
pub struct QuantEpilogue {
    /// Accumulator-to-real factor (`input_scale * weight_scale[o]`).
    pub scale_io: f32,
    /// Per-channel bias, in real units.
    pub bias: f32,
    /// Activation applied between bias and requantization.
    pub act: RowAct,
    /// Outgoing wire step size.
    pub out_scale: f32,
    /// Outgoing wire zero point (in `[0, 255]`).
    pub zero_point: i32,
}

/// An 8-bit activation wire whose stored levels an int8 epilogue reads
/// back: `real = scale * (q - zero_point)`, with `q - zero_point` taken in
/// integers before the conversion, as the oracle's dequantization does.
#[derive(Debug, Clone, Copy)]
pub struct QuantWire {
    /// Step size between adjacent levels.
    pub scale: f32,
    /// The level of real zero (in `[0, 255]`).
    pub zero_point: i32,
}

/// The microkernel surface: every hot per-element loop of the GEMM, the
/// direct convolution, the Winograd pipeline, and the fused epilogues.
///
/// Implementations must preserve the per-element *operand order* of the
/// scalar reference (taps in ascending k, channels in ascending c, the
/// epilogue op sequence) — lane assignment is free, association is not.
/// That is what makes `Avx2` bit-identical to `Scalar` and `Avx2Fma`
/// self-consistent.
pub trait Microkernel: Sync {
    /// Which variant this implementation realizes.
    fn variant(&self) -> KernelVariant;

    /// Rank-1-update GEMM register tile:
    /// `acc[i][j] += sum_p apanel[p*8+i] * bstrip[p*8+j]` with `p`
    /// ascending. Panels are packed p-major, 8-wide, `>= kc * 8` floats
    /// each.
    fn gemm_8x8(&self, apanel: &[f32], bstrip: &[f32], kc: usize, acc: &mut [[f32; 8]; 8]);

    /// `acc[x] += c * src[x]`. Slices must be equal length.
    fn axpy(&self, acc: &mut [f32], src: &[f32], c: f32);

    /// Four-output-channel tap kernel — the direct convolution's hot
    /// loop. `acc` holds `acc.len() / n` rows (1 to 4) of `n` columns,
    /// one per output channel `c`; `ws` holds four weights per tap,
    /// tap-major (`ws[4 * t + c]`); tap `t` reads `src[offs[t] + x]` at
    /// column `x`. Per element the chain is
    /// `s = 0.0; for t ascending: s = madd(ws[4 * t + c], src[offs[t] + x], s)`
    /// — exactly `offs.len()` successive [`Microkernel::axpy`] calls onto
    /// a zeroed row — and the row is then overwritten with `s`, or
    /// updated to `acc + s` when `accumulate` is set. That is the packed
    /// GEMM's per-`KC`-block chain and block combine. Wide
    /// implementations load each tap segment once for all four channels.
    ///
    /// # Panics
    ///
    /// Unless `n > 0`, `acc` holds 1 to 4 whole rows, `ws.len() >= 4 *
    /// offs.len()`, and `offs[t] + n <= src.len()` for every tap.
    fn conv_taps4(
        &self,
        acc: &mut [f32],
        n: usize,
        ws: &[f32],
        offs: &[usize],
        src: &[f32],
        accumulate: bool,
    );

    /// Four-output-channel integer tap kernel — the quantized planned
    /// executor's hot loop and the integer twin of
    /// [`Microkernel::conv_taps4`]. Every `src` word packs four raw `u8`
    /// levels (byte `b` is lane `b`) and every weight word four `i8`
    /// weights for the same lanes. `acc` holds `acc.len() / n` rows (1 to
    /// 4) of `n` columns, one per output channel `c`; `ws` holds four
    /// packed weights per tap, tap-major (`ws[4 * t + c]`); tap `t` reads
    /// `src[offs[t] + x]` at column `x`. Each row is overwritten with
    /// `acc[c * n + x] = seed[c] + sum_t sum_b u8(s, b) * i8(w, b)` where
    /// `s = src[offs[t] + x]` and `w = ws[4 * t + c]`. Wide
    /// implementations load each tap segment once for all four channels.
    ///
    /// Each tap is one AVX-512 VNNI `vpdpbusd` per lane group — the
    /// non-saturating form — or, on AVX2 alone, two `vpmaddwd` on the
    /// word's even and odd bytes widened to `i16` (`vpmaddubsw` would
    /// saturate at `2 * 255 * 127`). A tap adds at most `4 * 255 * 128`
    /// in magnitude, so for any window up to 2,000 taps and a seed of the
    /// same order nothing wraps (a 16-channel 5x5 layer runs 100 taps).
    /// Integer addition is associative, so every implementation and
    /// every column or tap blocking is **bit-identical**.
    ///
    /// # Panics
    ///
    /// Unless `n > 0`, `acc` holds 1 to 4 whole rows, `ws.len() >= 4 *
    /// offs.len()`, and `offs[t] + n <= src.len()` for every tap.
    fn qmadd_taps4(
        &self,
        acc: &mut [i32],
        n: usize,
        ws: &[i32],
        offs: &[usize],
        src: &[i32],
        seed: [i32; 4],
    ) {
        scalar::qmadd_taps4(acc, n, ws, offs, src, seed);
    }

    /// Which body [`Microkernel::qmadd_taps4`] runs on: `"scalar"`,
    /// `"avx2"`, or `"avx512vnni"`. The AVX2 variants share one integer
    /// kernel and pick its body once per process from CPUID; the choice
    /// cannot change a bit (see `qmadd_taps4`), only the speed.
    fn int8_body(&self) -> &'static str {
        "scalar"
    }

    /// Requantize-to-wire for one four-channel group: applies
    /// [`QuantEpilogue`] `es[c]` to accumulator row `c` (`acc[c * n..][..n]`,
    /// `n = dst.len()`) and packs the levels as bytes,
    /// `dst[x] = q0 | q1 << 8 | q2 << 16 | q3 << 24`; lanes past
    /// `es.len()` (a trailing group of fewer than four channels) are 0.
    ///
    /// SIMD implementations are **bit-identical** to the scalar chain:
    /// `i32 -> f32` conversion, multiply, add, divide, and the activation
    /// select are all exact per-lane IEEE ops, and `f32::round` (half away
    /// from zero) equals `trunc(f + copysign(0.5, f))` exactly for
    /// `|f| < 2^22` — `f + copysign(0.5, f)` is exact there because
    /// `ulp(f) <= 0.25`. Beyond that magnitude both paths saturate to the
    /// same clamp bound (`|q - zero_point| <= 255 << 2^22`), so the packed
    /// result agrees for every finite input.
    ///
    /// # Panics
    ///
    /// Unless `es` holds 1 to 4 epilogues and `acc` at least
    /// `es.len() * dst.len()` accumulators.
    fn qrequant_pack_row(&self, acc: &[i32], es: &[QuantEpilogue], dst: &mut [i32]) {
        check_group(acc, es, dst.len());
        scalar::qrequant_pack_row(acc, es, dst);
    }

    /// [`Microkernel::qrequant_pack_row`] fused with the long feature
    /// residual: each lane is requantized to its own wire, dequantized
    /// (`out_scale * (q - zero_point)`), added to the same lane of the
    /// layer-0 level `first[x]` dequantized on `first_wire`, and the sum is
    /// requantized onto the widened wire `wide` before packing — the
    /// oracle's `a.add(&b)` path. Same per-lane exactness argument as
    /// `qrequant_pack_row`.
    ///
    /// # Panics
    ///
    /// As [`Microkernel::qrequant_pack_row`], or when `first` is shorter
    /// than `dst`.
    fn qresidual_pack_row(
        &self,
        acc: &[i32],
        es: &[QuantEpilogue],
        first: &[i32],
        dst: &mut [i32],
        first_wire: QuantWire,
        wide: QuantWire,
    ) {
        check_group(acc, es, dst.len());
        assert!(first.len() >= dst.len(), "first shorter than dst");
        scalar::qresidual_pack_row(acc, es, first, dst, first_wire, wide);
    }

    /// Head epilogue for one output channel row: the `qrequant` chain plus
    /// an optional input residual (`v += scale * (q - zero_point)` for the
    /// level `q` in byte 0 of each `input` word, applied after the
    /// activation), emitting **dequantized** levels `vals[x] = out_scale *
    /// (q - zero_point)` instead of packed integers — the head leaves on
    /// its wire and callers scatter real values. Same exactness argument
    /// as [`Microkernel::qrequant_pack_row`]. `acc` (and the input row,
    /// when present) must be at least `vals.len()` long.
    fn qhead_row(
        &self,
        acc: &[i32],
        input: Option<(&[i32], QuantWire)>,
        vals: &mut [f32],
        e: &QuantEpilogue,
    ) {
        scalar::qhead_row(acc, input, vals, e);
    }

    /// Input quantization for the quantized executor: `dst[x] =
    /// clamp(round(src[x] / scale) + zp, 0, 255)`, the raw wire level,
    /// one per word. Same rounding-emulation exactness as
    /// [`Microkernel::qrequant_pack_row`]. `src` must be at least
    /// `dst.len()` long.
    fn qquantize_row(&self, src: &[f32], dst: &mut [i32], scale: f32, zp: i32) {
        scalar::qquantize_row(src, dst, scale, zp);
    }

    /// Winograd `Bᵀ d B` on one 4x4 tile. Pure add/sub: bit-identical
    /// across all variants.
    fn wino_input_transform(&self, d: &[f32; 16]) -> [f32; 16];

    /// Winograd `Aᵀ m A`, producing the 2x2 output tile. Pure add/sub.
    fn wino_output_transform(&self, m: &[f32; 16]) -> [f32; 4];

    /// The Winograd channel reduction: for each output channel `oo`,
    /// `m_slab[oo*16 + k] = sum_cc u[oo*cin + cc][k] * v_slab[cc*16 + k]`
    /// with `cc` ascending. `m_slab` is `cout * 16`, `v_slab` is
    /// `cin * 16`, `u` holds at least `cout * cin` tiles.
    fn wino_channel_reduce(
        &self,
        m_slab: &mut [f32],
        u: &[[f32; 16]],
        v_slab: &[f32],
        cout: usize,
        cin: usize,
    );

    /// One Winograd `F(2x2, 3x3)` tile row — the planned executor's 3x3
    /// hot loop. Tile `t` reads the 4x4 window whose row `r` is
    /// `[e_r[t], o_r[t], e_r[t + 1], o_r[t + 1]]` of every channel (see
    /// [`WinoRow`]) and writes its 2x2 output tile of channel `oo` to
    /// `out[(2 * oo + dy) * ostride + 2 * t + dx]`.
    ///
    /// Per tile the arithmetic is exactly [`Microkernel::wino_input_transform`],
    /// then [`Microkernel::wino_channel_reduce`] (each of the 16 chains
    /// starts from `0.0` and takes `cc` ascending with this variant's
    /// madd), then [`Microkernel::wino_output_transform`], so the output
    /// is bit-identical to that per-tile pipeline on the same variant.
    /// Implementations run the tiles [`WINO_CHUNK`] at a time: `V` is laid
    /// out `[k][cin][tiles]` in `scratch`, the reduction is sixteen small
    /// GEMMs `M_k = U_kᵀ V_k` with `u` broadcast and tiles in vector
    /// lanes, and the output transform interleaves each tile pair's
    /// columns straight into `out`. A narrower last chunk runs narrower
    /// (masked vector lanes), it is not padded.
    ///
    /// # Panics
    ///
    /// Unless the lengths [`WinoRow`] documents hold, `scratch` holds
    /// [`wino_scratch_len`]`(cin)` floats, `ostride >= 2 * tiles`, and
    /// `out` holds `2 * cout` rows of `ostride` (the last needs only
    /// `2 * tiles` floats).
    fn wino_tile_row(
        &self,
        row: &WinoRow<'_>,
        scratch: &mut [f32],
        out: &mut [f32],
        ostride: usize,
    ) {
        check_wino_row(row, scratch, out, ostride);
        scalar::wino_tile_row(row, scratch, out, ostride);
    }
}

/// The implementation for `v`, falling back to the best available variant
/// when `v` cannot run here (wrong arch, missing CPU features, or pinned
/// by `force-scalar`). The returned reference is `'static`: hoist it out
/// of loops and reuse it freely.
pub fn microkernel(v: KernelVariant) -> &'static dyn Microkernel {
    let eff = if v.available() {
        v
    } else {
        *detected_variants().last().expect("scalar always present")
    };
    match eff {
        KernelVariant::Scalar => &ScalarKernel,
        #[cfg(target_arch = "x86_64")]
        KernelVariant::Avx2 => &Avx2Kernel,
        #[cfg(target_arch = "x86_64")]
        KernelVariant::Avx2Fma => &Avx2FmaKernel,
        #[allow(unreachable_patterns)]
        _ => &ScalarKernel,
    }
}

/// Asserts the [`Microkernel::conv_taps4`] / [`Microkernel::qmadd_taps4`]
/// length contract, which the SIMD implementations' unchecked loads rely
/// on.
fn check_taps4<T>(acc: &[T], n: usize, ws: &[T], offs: &[usize], src: &[T]) {
    assert!(
        n > 0 && acc.len().is_multiple_of(n) && (1..=4).contains(&(acc.len() / n)),
        "acc must hold 1 to 4 rows of n columns"
    );
    assert!(ws.len() >= 4 * offs.len(), "four weights per tap");
    if let Some(&last) = offs.iter().max() {
        assert!(
            last.checked_add(n).is_some_and(|end| end <= src.len()),
            "tap segment runs past the end of src"
        );
    }
}

/// Asserts the length contract of the four-channel int8 epilogues
/// ([`Microkernel::qrequant_pack_row`], [`Microkernel::qresidual_pack_row`]),
/// which the SIMD bodies' unchecked loads rely on.
fn check_group(acc: &[i32], es: &[QuantEpilogue], n: usize) {
    assert!((1..=4).contains(&es.len()), "1 to 4 epilogues per group");
    assert!(acc.len() >= es.len() * n, "acc shorter than its rows");
}

/// Splits input row `x` into the zero-padded halves of a [`WinoRow`]
/// row: `halves` holds `e` then `o`, `sw = halves.len() / 2` floats each,
/// with `e[t] = x[2t - 1]` and `o[t] = x[2t]`, and `0.0` for every index
/// outside `x`. Plain Rust the compiler vectorizes (every slice below has
/// the loop's length), as fast in an m5 body layer as an AVX-512
/// `vpermt2ps` pair (EXPERIMENTS.md E30); pure data movement, so the same
/// on every variant.
///
/// # Panics
///
/// Unless `halves.len()` is even and `sw > x.len() / 2`.
pub fn split_row(halves: &mut [f32], x: &[f32]) {
    assert!(
        halves.len().is_multiple_of(2) && halves.len() / 2 > x.len() / 2,
        "a split half needs x.len() / 2 + 1 floats"
    );
    let (e, o) = halves.split_at_mut(halves.len() / 2);
    let half = x.len() / 2;
    for ((p, ot), et) in x.chunks_exact(2).zip(&mut o[..half]).zip(&mut e[1..=half]) {
        *ot = p[0];
        *et = p[1];
    }
    e[0] = 0.0;
    e[half + 1..].fill(0.0);
    o[half..].fill(0.0);
    if x.len() % 2 == 1 {
        o[half] = x[x.len() - 1];
    }
}

/// The fused f32 epilogue of one output row. Per element the chain is, in
/// this order,
///
/// ```text
/// t = row[x] + bias
/// t = act(t)                    (RowAct; ReLU is t.max(0.0))
/// t = t + t                     (if double)
/// t = t + first[x]              (if first)
/// t = t + input[x]              (if input)
/// ```
///
/// — the reference's `+ bias`, activation, doubled write, feature
/// residual and input residual. The result goes to `out` when given
/// (`row` is then only read), otherwise back into `row`. Each op is its
/// own pass over the row with the branches outside the loops, so every
/// pass vectorizes; the first reads `row` and writes the destination,
/// the others run on the destination while it is in L1.
///
/// # Panics
///
/// If `out`, `first` or `input` is shorter than `row`.
pub fn epilogue_row(row: &mut [f32], out: Option<&mut [f32]>, e: &RowEpilogue<'_>) {
    let n = row.len();
    assert!(
        out.as_ref().is_none_or(|o| o.len() >= n),
        "out shorter than row"
    );
    assert!(
        [e.first, e.input].iter().flatten().all(|r| r.len() >= n),
        "residual row shorter than row"
    );
    let (dst, src) = match out {
        Some(o) => (&mut o[..n], Some(&*row)),
        None => (row, None),
    };
    let bias = e.bias;
    match e.act {
        RowAct::Linear => map_row(dst, src, |v| v + bias),
        RowAct::Relu => map_row(dst, src, |v| (v + bias).max(0.0)),
        RowAct::PRelu(al) => map_row(dst, src, |v| {
            let t = v + bias;
            if t >= 0.0 {
                t
            } else {
                al * t
            }
        }),
    }
    if e.double {
        for v in dst.iter_mut() {
            *v += *v;
        }
    }
    for residual in [e.first, e.input].into_iter().flatten() {
        for (v, &r) in dst.iter_mut().zip(residual) {
            *v += r;
        }
    }
}

/// `dst[x] = f(src[x])`, or `dst[x] = f(dst[x])` in place.
#[inline]
fn map_row(dst: &mut [f32], src: Option<&[f32]>, f: impl Fn(f32) -> f32) {
    match src {
        Some(src) => {
            for (d, &v) in dst.iter_mut().zip(src) {
                *d = f(v);
            }
        }
        None => {
            for d in dst.iter_mut() {
                *d = f(*d);
            }
        }
    }
}

/// One [`Microkernel::qmadd_taps4`] body, with the trait method's
/// arguments and length checks.
pub type QmaddBody = fn(&mut [i32], usize, &[i32], &[usize], &[i32], [i32; 4]);

/// Every [`Microkernel::qmadd_taps4`] body this CPU can run, named as
/// [`Microkernel::int8_body`] names them, scalar first. The list follows
/// the CPU alone — not the dispatch, nor `force-scalar` — so an identity
/// test reaches the AVX2 body on a machine whose dispatch picks VNNI.
pub fn int8_bodies() -> Vec<(&'static str, QmaddBody)> {
    #[allow(unused_mut)]
    let mut bodies: Vec<(&'static str, QmaddBody)> = vec![("scalar", scalar::qmadd_taps4)];
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            bodies.push(("avx2", x86::qmadd_taps4_avx2_checked));
        }
        if x86::has_vnni() {
            bodies.push(("avx512vnni", x86::qmadd_taps4_vnni_checked));
        }
    }
    bodies
}

/// One [`Microkernel::conv_taps4`] body, with the trait method's
/// arguments and length checks.
pub type ConvTaps4Body = fn(&mut [f32], usize, &[f32], &[usize], &[f32], bool);

/// One [`Microkernel::wino_tile_row`] body, with the trait method's
/// arguments and length checks.
pub type WinoTileRowBody = fn(&WinoRow<'_>, &mut [f32], &mut [f32], usize);

/// A body of one f32 plan kernel: its name, whether it fuses
/// multiply-add (the `Avx2Fma` flavor, whose chains round once), and the
/// body itself.
pub type F32Body<B> = (&'static str, bool, B);

/// Every [`Microkernel::conv_taps4`] body this CPU can run, scalar first:
/// the 8-lane AVX2 body of each madd flavor and, with AVX-512F, the
/// 16-lane one. Like [`int8_bodies`] the list follows the CPU alone — not
/// the dispatch, nor `force-scalar` — so identity tests and the
/// throughput probe reach every body whichever one the dispatch picks.
pub fn conv_taps4_bodies() -> Vec<F32Body<ConvTaps4Body>> {
    #[allow(unused_mut)]
    let mut bodies: Vec<F32Body<ConvTaps4Body>> =
        vec![("scalar", false, scalar::conv_taps4 as ConvTaps4Body)];
    #[cfg(target_arch = "x86_64")]
    {
        use x86::{fused, two_round};
        if two_round::detected() {
            bodies.push(("avx2 8-lane", false, two_round::conv_taps4_checked));
        }
        if fused::detected() {
            bodies.push(("avx2fma 8-lane", true, fused::conv_taps4_checked));
        }
        if x86::has_avx512() {
            if two_round::detected() {
                bodies.push(("avx512 16-lane", false, two_round::conv_taps4_512_checked));
            }
            if fused::detected() {
                bodies.push(("avx512fma 16-lane", true, fused::conv_taps4_512_checked));
            }
        }
    }
    bodies
}

/// Every [`Microkernel::wino_tile_row`] body this CPU can run, scalar
/// first: the 8-lane AVX2 body (4 output channels x 2 vectors of tiles
/// per register block) of each madd flavor and, with AVX-512F, the
/// 16-lane one (8 x 2). Follows the CPU alone, as [`conv_taps4_bodies`].
pub fn wino_tile_row_bodies() -> Vec<F32Body<WinoTileRowBody>> {
    #[allow(unused_mut)]
    let mut bodies: Vec<F32Body<WinoTileRowBody>> = vec![(
        "scalar",
        false,
        scalar::wino_tile_row_checked as WinoTileRowBody,
    )];
    #[cfg(target_arch = "x86_64")]
    {
        use x86::{fused, two_round};
        if two_round::detected() {
            bodies.push(("avx2 4x2", false, two_round::wino_tile_row_checked));
        }
        if fused::detected() {
            bodies.push(("avx2fma 4x2", true, fused::wino_tile_row_checked));
        }
        if x86::has_avx512() {
            if two_round::detected() {
                bodies.push(("avx512 8x2", false, two_round::wino_tile_row_512_checked));
            }
            if fused::detected() {
                bodies.push(("avx512fma 8x2", true, fused::wino_tile_row_512_checked));
            }
        }
    }
    bodies
}

/// Tiles per chunk of [`Microkernel::wino_tile_row`]: two 16-lane or four
/// 8-lane vectors, so a chunk's transformed input stays in L1 at 16
/// channels.
pub const WINO_CHUNK: usize = 32;

/// The read-only operands of one [`Microkernel::wino_tile_row`] call.
#[derive(Debug, Clone, Copy)]
pub struct WinoRow<'a> {
    /// The tile row's four input rows, top to bottom, each split into
    /// zero-padded even/odd columns for every channel: channel `cc` of
    /// row `r` holds `e_r[t] = x[2t - 1]` at `rows[r][cc * 2 * sw + t]`
    /// and `o_r[t] = x[2t]` at `rows[r][cc * 2 * sw + sw + t]`, with
    /// `0.0` for every column (or whole row) outside the plane. Each
    /// slice holds at least `cin * 2 * sw` floats.
    pub rows: [&'a [f32]; 4],
    /// Length of one even or odd half; at least `tiles + 1`.
    pub sw: usize,
    /// Tiles in the row (at least one).
    pub tiles: usize,
    /// Transformed kernels laid out `[k][cin][cout4]` by
    /// [`wino_pack_u`].
    pub u: &'a [f32],
    /// Input channels (at least one).
    pub cin: usize,
    /// Output channels (at least one).
    pub cout: usize,
}

/// Floats of scratch [`Microkernel::wino_tile_row`] needs at `cin` input
/// channels: one chunk's `V` (sixteen planes, each padded by 16 floats)
/// plus the `M` of one register block of up to eight output channels,
/// and 16 floats of slack to start both on a 64-byte boundary.
pub fn wino_scratch_len(cin: usize) -> usize {
    16 * (cin * WINO_CHUNK + 16) + 16 * 8 * WINO_CHUNK + 16
}

/// Re-lays per-`(cout, cin)` transformed kernels (`u[oo * cin + cc]`, as
/// [`crate::winograd::kernel_transform`] makes them) as the `[k][cin][cout4]`
/// operand of [`Microkernel::wino_tile_row`]: element `k` of tile
/// `(oo, cc)` at `(k * cin + cc) * cout4 + oo`, where `cout4` rounds
/// `cout` up to a multiple of four and the padding channels hold `0.0`.
///
/// # Panics
///
/// If `u` does not hold exactly `cout * cin` tiles.
pub fn wino_pack_u(u: &[[f32; 16]], cout: usize, cin: usize) -> Vec<f32> {
    assert_eq!(u.len(), cout * cin, "one tile per (cout, cin) pair");
    let cout4 = cout.next_multiple_of(4);
    let mut packed = vec![0.0f32; 16 * cin * cout4];
    for (i, tile) in u.iter().enumerate() {
        let (oo, cc) = (i / cin, i % cin);
        for (k, &x) in tile.iter().enumerate() {
            packed[(k * cin + cc) * cout4 + oo] = x;
        }
    }
    packed
}

/// Asserts the [`Microkernel::wino_tile_row`] length contract, which the
/// SIMD implementations' unchecked loads and stores rely on.
fn check_wino_row(row: &WinoRow<'_>, scratch: &[f32], out: &[f32], ostride: usize) {
    let WinoRow {
        rows,
        sw,
        tiles,
        u,
        cin,
        cout,
    } = *row;
    assert!(tiles > 0 && cin > 0 && cout > 0, "empty tile row");
    assert!(sw > tiles, "a split half needs tiles + 1 columns");
    assert!(
        rows.iter().all(|r| r.len() >= cin * 2 * sw),
        "input row shorter than cin split rows"
    );
    assert!(
        u.len() >= 16 * cin * cout.next_multiple_of(4),
        "u shorter than [16][cin][cout4]"
    );
    assert!(scratch.len() >= wino_scratch_len(cin), "scratch too short");
    assert!(
        ostride >= 2 * tiles,
        "output stride narrower than the tiles"
    );
    assert!(
        out.len() >= (2 * cout - 1) * ostride + 2 * tiles,
        "out shorter than 2 * cout rows"
    );
}

/// Shorthand for `microkernel(kernel_variant())`.
pub fn default_microkernel() -> &'static dyn Microkernel {
    microkernel(kernel_variant())
}

/// Serializes tests that mutate the process-global variant against tests
/// whose assertions compare bitwise outputs of repeated kernel calls (a
/// mid-test variant flip would make those flaky). Test support only; not
/// part of the public API.
#[doc(hidden)]
pub fn variant_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Scalar reference implementation
// ---------------------------------------------------------------------------

/// Scalar ops shared by [`ScalarKernel`], the NEON stub, and the SIMD
/// variants' remainder lanes. These are the bit-exact reference: the GEMM
/// tile matches `gemm.rs`'s historic microkernel, the epilogue ops match
/// the planner's unfused `emit_row`, and `axpy` matches the direct
/// convolution's historic tap loop.
mod scalar {
    use super::{QuantEpilogue, QuantWire, RowAct};

    pub fn gemm_8x8(apanel: &[f32], bstrip: &[f32], kc: usize, acc: &mut [[f32; 8]; 8]) {
        for p in 0..kc {
            let av: &[f32; 8] = apanel[p * 8..p * 8 + 8].try_into().expect("panel row");
            let bv: &[f32; 8] = bstrip[p * 8..p * 8 + 8].try_into().expect("strip row");
            for (accrow, &aval) in acc.iter_mut().zip(av.iter()) {
                for (slot, &bval) in accrow.iter_mut().zip(bv.iter()) {
                    *slot += aval * bval;
                }
            }
        }
    }

    pub fn axpy(acc: &mut [f32], src: &[f32], c: f32) {
        for (a, &v) in acc.iter_mut().zip(src) {
            *a += c * v;
        }
    }

    /// Scalar [`super::Microkernel::conv_taps4`]: 16-column blocks of
    /// four channel chains, so the compiler can keep them in registers.
    pub fn conv_taps4(
        acc: &mut [f32],
        n: usize,
        ws: &[f32],
        offs: &[usize],
        src: &[f32],
        accumulate: bool,
    ) {
        super::check_taps4(acc, n, ws, offs, src);
        let mut x = 0usize;
        while x < n {
            let bw = 16.min(n - x);
            let mut s = [[0.0f32; 16]; 4];
            for (&off, wt) in offs.iter().zip(ws.chunks_exact(4)) {
                let seg = &src[off + x..][..bw];
                for (sc, &wc) in s.iter_mut().zip(wt) {
                    for (a, &v) in sc[..bw].iter_mut().zip(seg) {
                        *a += wc * v;
                    }
                }
            }
            for (row, sc) in acc.chunks_exact_mut(n).zip(&s) {
                let out = &mut row[x..x + bw];
                if accumulate {
                    for (o, &v) in out.iter_mut().zip(&sc[..bw]) {
                        *o += v;
                    }
                } else {
                    out.copy_from_slice(&sc[..bw]);
                }
            }
            x += bw;
        }
    }

    /// One packed tap — the scalar model of a `vpdpbusd` lane: the four
    /// unsigned bytes of `s` times the four signed bytes of `w`, summed.
    #[inline]
    pub fn dot4(s: i32, w: i32) -> i32 {
        let (s, w) = (s.to_le_bytes(), w.to_le_bytes());
        s.iter()
            .zip(w)
            .map(|(&s, w)| s as i32 * w as i8 as i32)
            .sum()
    }

    /// Scalar [`super::Microkernel::qmadd_taps4`]: 16-column blocks of
    /// four channel sums, so the compiler can keep them in registers.
    pub fn qmadd_taps4(
        acc: &mut [i32],
        n: usize,
        ws: &[i32],
        offs: &[usize],
        src: &[i32],
        seed: [i32; 4],
    ) {
        super::check_taps4(acc, n, ws, offs, src);
        let mut x = 0usize;
        while x < n {
            let bw = 16.min(n - x);
            let mut s = seed.map(|c| [c; 16]);
            for (&off, wt) in offs.iter().zip(ws.chunks_exact(4)) {
                let seg = &src[off + x..][..bw];
                for (sc, &wc) in s.iter_mut().zip(wt) {
                    for (a, &v) in sc[..bw].iter_mut().zip(seg) {
                        *a += dot4(v, wc);
                    }
                }
            }
            for (row, sc) in acc.chunks_exact_mut(n).zip(&s) {
                row[x..x + bw].copy_from_slice(&sc[..bw]);
            }
            x += bw;
        }
    }

    /// `act(scale_io * acc + bias)` — the epilogue chain up to the
    /// rounding.
    fn dequant_act(e: &QuantEpilogue, acc: i32) -> f32 {
        let v = e.scale_io * acc as f32 + e.bias;
        match e.act {
            RowAct::Linear => v,
            RowAct::Relu => v.max(0.0),
            RowAct::PRelu(a) => {
                if v >= 0.0 {
                    v
                } else {
                    a * v
                }
            }
        }
    }

    /// `v` rounded onto the wire `(scale, zp)`: its clamped `u8` level.
    fn level(v: f32, scale: f32, zp: i32) -> i32 {
        ((v / scale).round() as i32 + zp).clamp(0, 255)
    }

    /// The scalar requantize-to-wire reference for one lane — the chain
    /// documented on [`QuantEpilogue`], verbatim.
    pub fn quant_level(e: &QuantEpilogue, acc: i32) -> i32 {
        level(dequant_act(e, acc), e.out_scale, e.zero_point)
    }

    /// Column `x` of [`qrequant_pack_row`]: the group's levels packed
    /// into one word, from accumulator rows `n` apart.
    pub fn requant_word(acc: &[i32], n: usize, es: &[QuantEpilogue], x: usize) -> i32 {
        es.iter().enumerate().fold(0, |word, (c, e)| {
            word | quant_level(e, acc[c * n + x]) << (8 * c)
        })
    }

    pub fn qrequant_pack_row(acc: &[i32], es: &[QuantEpilogue], dst: &mut [i32]) {
        let n = dst.len();
        for (x, d) in dst.iter_mut().enumerate() {
            *d = requant_word(acc, n, es, x);
        }
    }

    /// Column `x` of [`qresidual_pack_row`], whose `first` word is `f`.
    pub fn residual_word(
        acc: &[i32],
        n: usize,
        es: &[QuantEpilogue],
        f: i32,
        first_wire: QuantWire,
        wide: QuantWire,
        x: usize,
    ) -> i32 {
        es.iter().enumerate().fold(0, |word, (c, e)| {
            let a = e.out_scale * (quant_level(e, acc[c * n + x]) - e.zero_point) as f32;
            let fq = (f >> (8 * c)) & 0xff;
            let b = first_wire.scale * (fq - first_wire.zero_point) as f32;
            word | level(a + b, wide.scale, wide.zero_point) << (8 * c)
        })
    }

    pub fn qresidual_pack_row(
        acc: &[i32],
        es: &[QuantEpilogue],
        first: &[i32],
        dst: &mut [i32],
        first_wire: QuantWire,
        wide: QuantWire,
    ) {
        let n = dst.len();
        for (x, d) in dst.iter_mut().enumerate() {
            *d = residual_word(acc, n, es, first[x], first_wire, wide, x);
        }
    }

    pub fn qhead_row(
        acc: &[i32],
        input: Option<(&[i32], QuantWire)>,
        vals: &mut [f32],
        e: &QuantEpilogue,
    ) {
        for (x, out) in vals.iter_mut().enumerate() {
            let mut v = dequant_act(e, acc[x]);
            if let Some((ir, wire)) = input {
                v += wire.scale * ((ir[x] & 0xff) - wire.zero_point) as f32;
            }
            *out = e.out_scale * (level(v, e.out_scale, e.zero_point) - e.zero_point) as f32;
        }
    }

    pub fn qquantize_row(src: &[f32], dst: &mut [i32], scale: f32, zp: i32) {
        for (x, d) in dst.iter_mut().enumerate() {
            *d = level(src[x], scale, zp);
        }
    }

    pub fn wino_channel_reduce(
        m_slab: &mut [f32],
        u: &[[f32; 16]],
        v_slab: &[f32],
        cout: usize,
        cin: usize,
    ) {
        for oo in 0..cout {
            let mut m = [0.0f32; 16];
            for cc in 0..cin {
                let ut = &u[oo * cin + cc];
                let vc = &v_slab[cc * 16..cc * 16 + 16];
                for k in 0..16 {
                    m[k] += ut[k] * vc[k];
                }
            }
            m_slab[oo * 16..oo * 16 + 16].copy_from_slice(&m);
        }
    }

    /// Scalar [`super::Microkernel::wino_tile_row`]: the per-tile
    /// transforms themselves around a reduction whose loops run over
    /// tiles innermost, so the compiler can vectorize it.
    pub fn wino_tile_row(
        row: &super::WinoRow<'_>,
        scratch: &mut [f32],
        out: &mut [f32],
        ostride: usize,
    ) {
        use crate::winograd::{input_transform, output_transform};
        let super::WinoRow {
            rows,
            sw,
            tiles,
            u,
            cin,
            cout,
        } = *row;
        let cout4 = cout.next_multiple_of(4);
        let (vs, ms) = scratch.split_at_mut(16 * cin * super::WINO_CHUNK);
        for t0 in (0..tiles).step_by(super::WINO_CHUNK) {
            let nt = super::WINO_CHUNK.min(tiles - t0);
            for cc in 0..cin {
                let (e, o) = (cc * 2 * sw + t0, cc * 2 * sw + sw + t0);
                for j in 0..nt {
                    let mut d = [0.0f32; 16];
                    for (r, src) in rows.iter().enumerate() {
                        d[4 * r..4 * r + 4].copy_from_slice(&[
                            src[e + j],
                            src[o + j],
                            src[e + j + 1],
                            src[o + j + 1],
                        ]);
                    }
                    for (k, &v) in input_transform(&d).iter().enumerate() {
                        vs[(k * cin + cc) * nt + j] = v;
                    }
                }
            }
            for g in 0..cout4 / 4 {
                for k in 0..16 {
                    let m = &mut ms[k * 4 * nt..(k + 1) * 4 * nt];
                    m.fill(0.0);
                    for cc in 0..cin {
                        let v = &vs[(k * cin + cc) * nt..][..nt];
                        let uk = &u[(k * cin + cc) * cout4 + 4 * g..][..4];
                        for (mc, &uc) in m.chunks_exact_mut(nt).zip(uk) {
                            for (a, &vv) in mc.iter_mut().zip(v) {
                                *a += uc * vv;
                            }
                        }
                    }
                }
                for c in 0..4.min(cout - 4 * g) {
                    let oo = 4 * g + c;
                    for j in 0..nt {
                        let mut m = [0.0f32; 16];
                        for (k, mk) in m.iter_mut().enumerate() {
                            *mk = ms[(k * 4 + c) * nt + j];
                        }
                        let y = output_transform(&m);
                        let x = 2 * (t0 + j);
                        out[2 * oo * ostride + x..][..2].copy_from_slice(&y[..2]);
                        out[(2 * oo + 1) * ostride + x..][..2].copy_from_slice(&y[2..]);
                    }
                }
            }
        }
    }

    /// [`wino_tile_row`] behind the trait method's length checks — the
    /// first entry of [`super::wino_tile_row_bodies`].
    pub fn wino_tile_row_checked(
        row: &super::WinoRow<'_>,
        scratch: &mut [f32],
        out: &mut [f32],
        ostride: usize,
    ) {
        super::check_wino_row(row, scratch, out, ostride);
        wino_tile_row(row, scratch, out, ostride);
    }
}

/// [`KernelVariant::Scalar`]: the always-available reference.
struct ScalarKernel;

impl Microkernel for ScalarKernel {
    fn variant(&self) -> KernelVariant {
        KernelVariant::Scalar
    }

    fn gemm_8x8(&self, apanel: &[f32], bstrip: &[f32], kc: usize, acc: &mut [[f32; 8]; 8]) {
        scalar::gemm_8x8(apanel, bstrip, kc, acc)
    }

    fn axpy(&self, acc: &mut [f32], src: &[f32], c: f32) {
        scalar::axpy(acc, src, c)
    }

    fn conv_taps4(
        &self,
        acc: &mut [f32],
        n: usize,
        ws: &[f32],
        offs: &[usize],
        src: &[f32],
        accumulate: bool,
    ) {
        scalar::conv_taps4(acc, n, ws, offs, src, accumulate)
    }

    fn wino_input_transform(&self, d: &[f32; 16]) -> [f32; 16] {
        crate::winograd::input_transform(d)
    }

    fn wino_output_transform(&self, m: &[f32; 16]) -> [f32; 4] {
        crate::winograd::output_transform(m)
    }

    fn wino_channel_reduce(
        &self,
        m_slab: &mut [f32],
        u: &[[f32; 16]],
        v_slab: &[f32],
        cout: usize,
        cin: usize,
    ) {
        scalar::wino_channel_reduce(m_slab, u, v_slab, cout, cin)
    }
}

// ---------------------------------------------------------------------------
// x86-64 AVX2 / AVX2+FMA implementations
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::scalar;
    use super::RowAct;
    use std::arch::x86_64::*;

    /// Two-rounding multiply-add lane op, shared with the remainder
    /// helpers below so the non-FMA variant is bit-identical to scalar.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn madd_two_round(a: __m256, b: __m256, c: __m256) -> __m256 {
        _mm256_add_ps(c, _mm256_mul_ps(a, b))
    }

    /// Single-rounding fused multiply-add lane op.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 and FMA support.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn madd_fused(a: __m256, b: __m256, c: __m256) -> __m256 {
        _mm256_fmadd_ps(a, b, c)
    }

    /// [`madd_two_round`] on 16 lanes.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX-512F support.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn madd512_two_round(a: __m512, b: __m512, c: __m512) -> __m512 {
        _mm512_add_ps(c, _mm512_mul_ps(a, b))
    }

    /// [`madd_fused`] on 16 lanes.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX-512F support.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn madd512_fused(a: __m512, b: __m512, c: __m512) -> __m512 {
        _mm512_fmadd_ps(a, b, c)
    }

    /// Whether the AVX2 variants run their AVX-512 bodies (the f32 tile
    /// row and the int8 epilogues): probed once per process, then cached.
    /// A lane computes the same operation at any vector width, so the
    /// answer changes speed, never bits.
    pub fn has_avx512() -> bool {
        static AVX512: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *AVX512.get_or_init(|| is_x86_feature_detected!("avx512f"))
    }

    /// The width-independent vector operations `wino_tile_row_kernel!` is
    /// written against, expanded inside [`l256`] and [`l512`] on top of
    /// each module's own `mask`, `maskload`, `maskstore` and `zip`. `n`
    /// counts the valid lanes of a possibly partial vector: masked-out
    /// lanes load `0.0` and are never stored, and their addresses are
    /// never accessed.
    macro_rules! lane_ops {
        ($feat:literal, $v:ty, $n:literal, load: $ld:path, store: $st:path,
         add: $add:path, sub: $sub:path, splat: $splat:path, zero: $zero:path) => {
            pub type V = $v;
            pub const N: usize = $n;

            /// Loads `min(n, N)` lanes at `p`, zero in the rest.
            ///
            /// # Safety
            ///
            /// Caller must have verified the `$feat` CPU features, and the
            /// first `min(n, N)` floats at `p` must be readable.
            #[inline]
            #[target_feature(enable = $feat)]
            pub unsafe fn load(p: *const f32, n: usize) -> V {
                // SAFETY: the caller guarantees the valid lanes are
                // readable; masked-out lanes are never accessed.
                unsafe {
                    if n >= N {
                        $ld(p)
                    } else {
                        maskload(p, mask(n))
                    }
                }
            }

            /// Stores all `N` lanes at `p`.
            ///
            /// # Safety
            ///
            /// Caller must have verified the `$feat` CPU features, and `N`
            /// floats at `p` must be writable.
            #[inline]
            #[target_feature(enable = $feat)]
            pub unsafe fn store(p: *mut f32, v: V) {
                // SAFETY: guaranteed by the caller.
                unsafe { $st(p, v) }
            }

            /// Stores the first `n` lanes of `a` and `b` interleaved (`a0
            /// b0 a1 b1 ...`, `2 * min(n, N)` floats) at `p`.
            ///
            /// # Safety
            ///
            /// Caller must have verified the `$feat` CPU features, and
            /// `2 * min(n, N)` floats at `p` must be writable.
            #[inline]
            #[target_feature(enable = $feat)]
            pub unsafe fn store_zip(p: *mut f32, a: V, b: V, n: usize) {
                let (lo, hi) = zip(a, b);
                let n2 = 2 * n.min(N);
                // SAFETY: each store touches only lanes below `n2`, which
                // the caller guarantees writable; masked-out lanes are
                // never accessed.
                unsafe {
                    if n2 == 2 * N {
                        $st(p, lo);
                        $st(p.add(N), hi);
                    } else {
                        maskstore(p, mask(n2), lo);
                        if n2 > N {
                            maskstore(p.add(N), mask(n2 - N), hi);
                        }
                    }
                }
            }

            #[inline]
            #[target_feature(enable = $feat)]
            pub fn add(a: V, b: V) -> V {
                $add(a, b)
            }

            #[inline]
            #[target_feature(enable = $feat)]
            pub fn sub(a: V, b: V) -> V {
                $sub(a, b)
            }

            #[inline]
            #[target_feature(enable = $feat)]
            pub fn splat(x: f32) -> V {
                $splat(x)
            }

            #[inline]
            #[target_feature(enable = $feat)]
            pub fn zero() -> V {
                $zero()
            }

            /// The Winograd input transform's row pass (`Bᵀ ·` on one
            /// column class) over `min(n, N)` tiles: rows `p[0..4]` map
            /// to `[x0 - x2, x1 + x2, x2 - x1, x1 - x3]`, the scalar
            /// transform's operand order.
            ///
            /// # Safety
            ///
            /// As [`load`], for each of the four rows.
            #[inline]
            #[target_feature(enable = $feat)]
            pub unsafe fn row_pass(p: [*const f32; 4], n: usize) -> [V; 4] {
                // SAFETY: forwarded from the caller.
                let (x0, x1, x2, x3) =
                    unsafe { (load(p[0], n), load(p[1], n), load(p[2], n), load(p[3], n)) };
                [sub(x0, x2), add(x1, x2), sub(x2, x1), sub(x1, x3)]
            }
        };
    }

    /// 8-lane vectors for the AVX2 tile-row bodies.
    mod l256 {
        use std::arch::x86_64::*;

        /// Lane mask with the first `min(n, 8)` lanes set.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn mask(n: usize) -> __m256i {
            _mm256_cmpgt_epi32(
                _mm256_set1_epi32(n.min(8) as i32),
                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            )
        }

        /// # Safety
        ///
        /// AVX2, and the lanes `m` selects must be readable at `p`.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn maskload(p: *const f32, m: __m256i) -> __m256 {
            // SAFETY: guaranteed by the caller.
            unsafe { _mm256_maskload_ps(p, m) }
        }

        /// # Safety
        ///
        /// AVX2, and the lanes `m` selects must be writable at `p`.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn maskstore(p: *mut f32, m: __m256i, v: __m256) {
            // SAFETY: guaranteed by the caller.
            unsafe { _mm256_maskstore_ps(p, m, v) }
        }

        /// `(a0 b0 .. a3 b3, a4 b4 .. a7 b7)`.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn zip(a: __m256, b: __m256) -> (__m256, __m256) {
            let (lo, hi) = (_mm256_unpacklo_ps(a, b), _mm256_unpackhi_ps(a, b));
            (
                _mm256_permute2f128_ps::<0x20>(lo, hi),
                _mm256_permute2f128_ps::<0x31>(lo, hi),
            )
        }

        lane_ops!(
            "avx2", __m256, 8,
            load: _mm256_loadu_ps,
            store: _mm256_storeu_ps,
            add: _mm256_add_ps,
            sub: _mm256_sub_ps,
            splat: _mm256_set1_ps,
            zero: _mm256_setzero_ps
        );
    }

    /// 16-lane vectors for the AVX-512 tile-row bodies.
    mod l512 {
        use std::arch::x86_64::*;

        /// Lane mask with the first `min(n, 16)` lanes set.
        #[inline]
        #[target_feature(enable = "avx512f")]
        pub fn mask(n: usize) -> __mmask16 {
            ((1u32 << n.min(16)) - 1) as __mmask16
        }

        /// # Safety
        ///
        /// AVX-512F, and the lanes `m` selects must be readable at `p`.
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn maskload(p: *const f32, m: __mmask16) -> __m512 {
            // SAFETY: guaranteed by the caller.
            unsafe { _mm512_maskz_loadu_ps(m, p) }
        }

        /// # Safety
        ///
        /// AVX-512F, and the lanes `m` selects must be writable at `p`.
        #[inline]
        #[target_feature(enable = "avx512f")]
        unsafe fn maskstore(p: *mut f32, m: __mmask16, v: __m512) {
            // SAFETY: guaranteed by the caller.
            unsafe { _mm512_mask_storeu_ps(p, m, v) }
        }

        /// `(a0 b0 .. a7 b7, a8 b8 .. a15 b15)`.
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn zip(a: __m512, b: __m512) -> (__m512, __m512) {
            let lo = _mm512_setr_epi32(0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23);
            let hi =
                _mm512_setr_epi32(8, 24, 9, 25, 10, 26, 11, 27, 12, 28, 13, 29, 14, 30, 15, 31);
            (
                _mm512_permutex2var_ps(a, lo, b),
                _mm512_permutex2var_ps(a, hi, b),
            )
        }

        lane_ops!(
            "avx512f", __m512, 16,
            load: _mm512_loadu_ps,
            store: _mm512_storeu_ps,
            add: _mm512_add_ps,
            sub: _mm512_sub_ps,
            splat: _mm512_set1_ps,
            zero: _mm512_setzero_ps
        );
    }

    /// Generates one body of [`super::Microkernel::wino_tile_row`] over the
    /// lane module `$l` with the multiply-add `$madd`. Per chunk of at
    /// most [`super::WINO_CHUNK`] tiles: the input transform, `N` tiles
    /// per vector, into `V[k][cc][np]` (each `k` plane padded by 16
    /// floats); per register block of `$cb` output channels (8 on 16
    /// lanes, 4 on 8 lanes, whose 16 registers hold no more), sixteen
    /// GEMMs of `[$cb x cin] x [cin x np]` with two vectors of tiles x
    /// `$cb` channels of chains in registers into
    /// `M[k][c][np]`; then the output transform, interleaved into `out`.
    /// An 8-channel body runs a `cout4 % 8 == 4` tail as one 4-channel
    /// block. `np` rounds the chunk up to whole vectors; the extra lanes
    /// carry the zeros their masked loads read and are never stored.
    ///
    /// `V` and `M` start on a 64-byte boundary of the scratch, so no
    /// vector access to them splits a cache line, and the plane padding
    /// keeps the sixteen `V` stores of a tile vector off the same 4 KiB
    /// offsets (EXPERIMENTS.md E30 measures both).
    macro_rules! wino_tile_row_kernel {
        ($name:ident, $feat:literal, $l:ident, $madd:path, $cb:literal) => {
            /// A [`super::Microkernel::wino_tile_row`] body (see
            /// `wino_tile_row_kernel!`).
            ///
            /// # Safety
            ///
            /// Caller must have verified the `$feat` CPU features and the
            /// length contract `check_wino_row` asserts.
            #[target_feature(enable = $feat)]
            pub unsafe fn $name(
                row: &super::super::WinoRow<'_>,
                scratch: &mut [f32],
                out: &mut [f32],
                ostride: usize,
            ) {
                use super::$l::{add, load, row_pass, store, store_zip, sub, zero, N};

                /// `M_k = U_kᵀ V_k` for the `C` output channels from `g0`,
                /// every `k`: each chain starts from 0.0 and takes `cc`
                /// ascending.
                ///
                /// # Safety
                ///
                /// As the enclosing body; `V` holds 16 planes of `cin *
                /// np` floats, `vstride` apart, at `vp`, `M` `16 * C * np`
                /// floats at `mp`, and `g0 + C <= cout4`.
                #[inline]
                #[target_feature(enable = $feat)]
                #[allow(clippy::too_many_arguments)]
                unsafe fn reduce<const C: usize>(
                    vp: *const f32,
                    vstride: usize,
                    up: *const f32,
                    mp: *mut f32,
                    cin: usize,
                    cout4: usize,
                    np: usize,
                    g0: usize,
                ) {
                    use super::$l::{load, splat, store, zero, N};
                    // SAFETY: forwarded from the caller's contract.
                    unsafe {
                        for k in 0..16 {
                            let vk = vp.add(k * vstride);
                            let uk = up.add(k * cin * cout4 + g0);
                            let mk = mp.add(k * C * np);
                            let mut j = 0;
                            while j + 2 * N <= np {
                                let mut a = [[zero(); 2]; C];
                                for cc in 0..cin {
                                    let v0 = load(vk.add(cc * np + j), N);
                                    let v1 = load(vk.add(cc * np + j + N), N);
                                    let w = uk.add(cc * cout4);
                                    for (c, ac) in a.iter_mut().enumerate() {
                                        let wc = splat(*w.add(c));
                                        ac[0] = $madd(wc, v0, ac[0]);
                                        ac[1] = $madd(wc, v1, ac[1]);
                                    }
                                }
                                for (c, ac) in a.iter().enumerate() {
                                    store(mk.add(c * np + j), ac[0]);
                                    store(mk.add(c * np + j + N), ac[1]);
                                }
                                j += 2 * N;
                            }
                            if j < np {
                                let mut a = [zero(); C];
                                for cc in 0..cin {
                                    let v0 = load(vk.add(cc * np + j), N);
                                    let w = uk.add(cc * cout4);
                                    for (c, ac) in a.iter_mut().enumerate() {
                                        *ac = $madd(splat(*w.add(c)), v0, *ac);
                                    }
                                }
                                for (c, ac) in a.iter().enumerate() {
                                    store(mk.add(c * np + j), *ac);
                                }
                            }
                        }
                    }
                }

                let super::super::WinoRow {
                    rows,
                    sw,
                    tiles,
                    u,
                    cin,
                    cout,
                } = *row;
                let cout4 = cout.next_multiple_of(4);
                let chunk = super::super::WINO_CHUNK;
                let align = scratch.as_ptr().align_offset(64).min(16);
                let (vs, ms) = scratch[align..].split_at_mut(16 * (cin * chunk + 16));
                let (vp, mp) = (vs.as_mut_ptr(), ms.as_mut_ptr());
                let (up, op) = (u.as_ptr(), out.as_mut_ptr());
                let at = |p: [*const f32; 4], d: usize| p.map(|q| q.wrapping_add(d));
                // SAFETY: (whole body) `check_wino_row` bounds every
                // access: split-row loads read columns `t0 + j ..= t0 + j
                // + n` of halves holding `sw > tiles` floats; `V` and `M`
                // indices stay below `16 * (cin * np + 16)` and `16 * $cb
                // * np` with `np <= WINO_CHUNK` (`wino_scratch_len` holds
                // eight channels of `M` after the alignment slack); `u`
                // reads stay below `16 * cin * cout4`; `out` stores cover
                // columns `< 2 * tiles` of rows `< 2 * cout`.
                unsafe {
                    for t0 in (0..tiles).step_by(chunk) {
                        let nt = chunk.min(tiles - t0);
                        let np = nt.next_multiple_of(N);
                        let vstride = cin * np + 16;
                        // Bᵀ d B: the row pass per column class, then the
                        // column pass, in the scalar transform's order.
                        for cc in 0..cin {
                            let base = at(rows.map(|r| r.as_ptr()), cc * 2 * sw + t0);
                            for j in (0..nt).step_by(N) {
                                let n = nt - j;
                                let ea = row_pass(at(base, j), n);
                                let oa = row_pass(at(base, sw + j), n);
                                let eb = row_pass(at(base, j + 1), n);
                                let ob = row_pass(at(base, sw + j + 1), n);
                                for r in 0..4 {
                                    let v = [
                                        sub(ea[r], eb[r]),
                                        add(oa[r], eb[r]),
                                        sub(eb[r], oa[r]),
                                        sub(oa[r], ob[r]),
                                    ];
                                    for (c, vv) in v.into_iter().enumerate() {
                                        store(vp.add((4 * r + c) * vstride + cc * np + j), vv);
                                    }
                                }
                            }
                        }
                        let mut g0 = 0;
                        while g0 < cout4 {
                            let cb = if cout4 - g0 >= $cb { $cb } else { 4 };
                            if cb == 8 {
                                reduce::<8>(vp, vstride, up, mp, cin, cout4, np, g0);
                            } else {
                                reduce::<4>(vp, vstride, up, mp, cin, cout4, np, g0);
                            }
                            // Aᵀ m A, both output rows interleaved.
                            for c in 0..cb.min(cout - g0) {
                                let oo = g0 + c;
                                for j in (0..nt).step_by(N) {
                                    let mut m = [zero(); 16];
                                    for (k, mk) in m.iter_mut().enumerate() {
                                        *mk = load(mp.add((k * cb + c) * np + j), N);
                                    }
                                    let (mut t, mut b) = ([zero(); 4], [zero(); 4]);
                                    for i in 0..4 {
                                        t[i] = add(add(m[i], m[4 + i]), m[8 + i]);
                                        b[i] = sub(sub(m[4 + i], m[8 + i]), m[12 + i]);
                                    }
                                    let x = 2 * (t0 + j);
                                    store_zip(
                                        op.add(2 * oo * ostride + x),
                                        add(add(t[0], t[1]), t[2]),
                                        sub(sub(t[1], t[2]), t[3]),
                                        nt - j,
                                    );
                                    store_zip(
                                        op.add((2 * oo + 1) * ostride + x),
                                        add(add(b[0], b[1]), b[2]),
                                        sub(sub(b[1], b[2]), b[3]),
                                        nt - j,
                                    );
                                }
                            }
                            g0 += cb;
                        }
                    }
                }
            }
        };
    }

    /// Stores 8 finished chains at `p`, or adds them to what is there
    /// (`acc + s`, the GEMM's k-block combine) when `accumulate` is set.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support; `p` must be valid for
    /// reading and writing 8 floats.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn put8(p: *mut f32, v: __m256, accumulate: bool) {
        // SAFETY: the caller guarantees 8 readable, writable floats at p.
        unsafe {
            let v = if accumulate {
                _mm256_add_ps(_mm256_loadu_ps(p), v)
            } else {
                v
            };
            _mm256_storeu_ps(p, v);
        }
    }

    /// Generates the arithmetic kernel set once per madd flavor. `$madd`
    /// is the 8-lane multiply-add and `$smadd` its scalar-remainder twin;
    /// the pair must round identically (`mul`+`add` / `f32::mul_add`, as
    /// probe-tested) so remainder columns match their vector lanes'
    /// variant semantics.
    macro_rules! madd_kernels {
        ($modname:ident, $feat:literal, $detect:expr, $madd:path, $smadd:expr, $madd512:path) => {
            pub mod $modname {
                use super::*;

                /// Whether this CPU has the `$feat` features this flavor's
                /// bodies need (its 16-lane bodies need [`has_avx512`]
                /// too).
                pub fn detected() -> bool {
                    $detect
                }

                wino_tile_row_kernel!(wino_tile_row, $feat, l256, $madd, 4);
                wino_tile_row_kernel!(wino_tile_row_512, "avx512f", l512, $madd512, 8);

                /// [`wino_tile_row`] behind its feature and length checks
                /// — an entry of [`super::super::wino_tile_row_bodies`].
                pub fn wino_tile_row_checked(
                    row: &super::super::WinoRow<'_>,
                    scratch: &mut [f32],
                    out: &mut [f32],
                    ostride: usize,
                ) {
                    super::super::check_wino_row(row, scratch, out, ostride);
                    assert!(detected(), "the 8-lane body needs {}", $feat);
                    // SAFETY: the features and the length contract
                    // asserted just above.
                    unsafe { wino_tile_row(row, scratch, out, ostride) }
                }

                /// [`wino_tile_row_512`] behind its feature and length
                /// checks.
                pub fn wino_tile_row_512_checked(
                    row: &super::super::WinoRow<'_>,
                    scratch: &mut [f32],
                    out: &mut [f32],
                    ostride: usize,
                ) {
                    super::super::check_wino_row(row, scratch, out, ostride);
                    assert!(has_avx512(), "the 16-lane body needs AVX-512F");
                    // SAFETY: AVX-512F and the length contract asserted
                    // just above.
                    unsafe { wino_tile_row_512(row, scratch, out, ostride) }
                }

                /// 8x8 register-tile GEMM update (see the trait doc).
                ///
                /// # Safety
                ///
                /// Caller must have verified the `$feat` CPU features, and
                /// `apanel`/`bstrip` must hold at least `kc * 8` floats.
                #[target_feature(enable = $feat)]
                pub unsafe fn gemm_8x8(
                    apanel: &[f32],
                    bstrip: &[f32],
                    kc: usize,
                    acc: &mut [[f32; 8]; 8],
                ) {
                    debug_assert!(apanel.len() >= kc * 8 && bstrip.len() >= kc * 8);
                    let ap = apanel.as_ptr();
                    let bp = bstrip.as_ptr();
                    // SAFETY: acc rows are contiguous [f32; 8]; loads and
                    // the final stores stay inside the 8x8 array.
                    unsafe {
                        let mut c: [__m256; 8] = [
                            _mm256_loadu_ps(acc[0].as_ptr()),
                            _mm256_loadu_ps(acc[1].as_ptr()),
                            _mm256_loadu_ps(acc[2].as_ptr()),
                            _mm256_loadu_ps(acc[3].as_ptr()),
                            _mm256_loadu_ps(acc[4].as_ptr()),
                            _mm256_loadu_ps(acc[5].as_ptr()),
                            _mm256_loadu_ps(acc[6].as_ptr()),
                            _mm256_loadu_ps(acc[7].as_ptr()),
                        ];
                        // SAFETY: p < kc, so the 8-float rows at p*8 are in
                        // bounds per this function's length contract.
                        for p in 0..kc {
                            let bv = _mm256_loadu_ps(bp.add(p * 8));
                            let arow = ap.add(p * 8);
                            for (i, ci) in c.iter_mut().enumerate() {
                                let av = _mm256_broadcast_ss(&*arow.add(i));
                                *ci = $madd(av, bv, *ci);
                            }
                        }
                        for (i, ci) in c.iter().enumerate() {
                            _mm256_storeu_ps(acc[i].as_mut_ptr(), *ci);
                        }
                    }
                }

                /// `acc += c * src` over equal-length slices.
                ///
                /// # Safety
                ///
                /// Caller must have verified the `$feat` CPU features;
                /// `src.len() >= acc.len()` must hold.
                #[target_feature(enable = $feat)]
                pub unsafe fn axpy(acc: &mut [f32], src: &[f32], cval: f32) {
                    debug_assert!(src.len() >= acc.len());
                    let n = acc.len();
                    let ap = acc.as_mut_ptr();
                    let sp = src.as_ptr();
                    let cv = _mm256_set1_ps(cval);
                    let mut x = 0usize;
                    // SAFETY: x + 8 <= n, so all lane loads/stores are in
                    // bounds for both slices.
                    unsafe {
                        while x + 8 <= n {
                            let a = _mm256_loadu_ps(ap.add(x));
                            let s = _mm256_loadu_ps(sp.add(x));
                            _mm256_storeu_ps(ap.add(x), $madd(cv, s, a));
                            x += 8;
                        }
                    }
                    // Remainder columns use the scalar twin of $madd so
                    // their rounding matches the vector lanes.
                    for i in x..n {
                        // SAFETY: i < n <= src.len().
                        unsafe {
                            let a = *ap.add(i);
                            let s = *sp.add(i);
                            *ap.add(i) = $smadd(cval, s, a);
                        }
                    }
                }

                /// Four-channel tap kernel (see the trait doc): 4 channels
                /// x 16 columns of chains in eight registers, each tap's
                /// segment loaded once and its four weights broadcast.
                ///
                /// # Safety
                ///
                /// Caller must have verified the `$feat` CPU features and
                /// the length contract `check_taps4` asserts.
                #[target_feature(enable = $feat)]
                pub unsafe fn conv_taps4(
                    acc: &mut [f32],
                    n: usize,
                    ws: &[f32],
                    offs: &[usize],
                    src: &[f32],
                    accumulate: bool,
                ) {
                    // SAFETY: forwarded from the caller.
                    unsafe { conv_taps4_from(0, acc, n, ws, offs, src, accumulate) }
                }

                /// [`conv_taps4`] behind its feature and length checks —
                /// an entry of [`super::super::conv_taps4_bodies`].
                pub fn conv_taps4_checked(
                    acc: &mut [f32],
                    n: usize,
                    ws: &[f32],
                    offs: &[usize],
                    src: &[f32],
                    accumulate: bool,
                ) {
                    super::super::check_taps4(acc, n, ws, offs, src);
                    assert!(detected(), "the 8-lane body needs {}", $feat);
                    // SAFETY: the features and the length contract
                    // asserted just above.
                    unsafe { conv_taps4(acc, n, ws, offs, src, accumulate) }
                }

                /// The 16-lane [`conv_taps4`]: 4 channels x 64 columns of
                /// chains in sixteen zmm registers (each tap: four segment
                /// loads, four broadcasts, sixteen madds), then one
                /// 32-column and one 16-column block; the last `n % 16`
                /// columns run on the 8-lane body and its scalar twin.
                /// Every column's chain is the same at any width.
                ///
                /// # Safety
                ///
                /// Caller must have verified the `$feat` CPU features,
                /// AVX-512F ([`has_avx512`]) and the length contract
                /// `check_taps4` asserts.
                #[target_feature(enable = "avx512f")]
                pub unsafe fn conv_taps4_512(
                    acc: &mut [f32],
                    n: usize,
                    ws: &[f32],
                    offs: &[usize],
                    src: &[f32],
                    accumulate: bool,
                ) {
                    /// Columns `x .. x + 16 * V` of every row.
                    ///
                    /// # Safety
                    ///
                    /// As the enclosing body, with `x + 16 * V <= n`.
                    #[inline]
                    #[target_feature(enable = "avx512f")]
                    #[allow(clippy::too_many_arguments)]
                    unsafe fn block<const V: usize>(
                        ap: *mut f32,
                        n: usize,
                        rows: usize,
                        x: usize,
                        wp: *const f32,
                        offs: &[usize],
                        sp: *const f32,
                        accumulate: bool,
                    ) {
                        let mut a = [[_mm512_setzero_ps(); V]; 4];
                        // SAFETY: x + 16 * V <= n and every offs[t] + n
                        // <= src.len(), so segment loads are in bounds;
                        // ws holds 4 weights per tap; stores go to rows
                        // c < rows, each n floats of `acc`.
                        unsafe {
                            for (t, &off) in offs.iter().enumerate() {
                                let s = sp.add(off + x);
                                let mut v = [_mm512_setzero_ps(); V];
                                for (i, vi) in v.iter_mut().enumerate() {
                                    *vi = _mm512_loadu_ps(s.add(16 * i));
                                }
                                let w = wp.add(4 * t);
                                for (c, ac) in a.iter_mut().enumerate() {
                                    let wc = _mm512_set1_ps(*w.add(c));
                                    for (aci, &vi) in ac.iter_mut().zip(&v) {
                                        *aci = $madd512(wc, vi, *aci);
                                    }
                                }
                            }
                            for (c, ac) in a.iter().enumerate().take(rows) {
                                for (i, &aci) in ac.iter().enumerate() {
                                    let p = ap.add(c * n + x + 16 * i);
                                    let v = if accumulate {
                                        _mm512_add_ps(_mm512_loadu_ps(p), aci)
                                    } else {
                                        aci
                                    };
                                    _mm512_storeu_ps(p, v);
                                }
                            }
                        }
                    }

                    let rows = acc.len() / n;
                    let (ap, wp, sp) = (acc.as_mut_ptr(), ws.as_ptr(), src.as_ptr());
                    let mut x = 0usize;
                    // SAFETY: each block stays below column n, and the
                    // tail is the 8-lane body's contract from column x.
                    unsafe {
                        while x + 64 <= n {
                            block::<4>(ap, n, rows, x, wp, offs, sp, accumulate);
                            x += 64;
                        }
                        if x + 32 <= n {
                            block::<2>(ap, n, rows, x, wp, offs, sp, accumulate);
                            x += 32;
                        }
                        if x + 16 <= n {
                            block::<1>(ap, n, rows, x, wp, offs, sp, accumulate);
                            x += 16;
                        }
                        if x < n {
                            conv_taps4_from(x, acc, n, ws, offs, src, accumulate);
                        }
                    }
                }

                /// [`conv_taps4_512`] behind its feature and length checks.
                pub fn conv_taps4_512_checked(
                    acc: &mut [f32],
                    n: usize,
                    ws: &[f32],
                    offs: &[usize],
                    src: &[f32],
                    accumulate: bool,
                ) {
                    super::super::check_taps4(acc, n, ws, offs, src);
                    assert!(
                        detected() && has_avx512(),
                        "the 16-lane body needs {} and AVX-512F",
                        $feat
                    );
                    // SAFETY: the features and the length contract
                    // asserted just above.
                    unsafe { conv_taps4_512(acc, n, ws, offs, src, accumulate) }
                }

                /// Columns `x0..n` of [`conv_taps4`]: the 8-lane body, and
                /// the 16-lane body's tail.
                ///
                /// # Safety
                ///
                /// As [`conv_taps4`], with `x0 <= n`.
                #[target_feature(enable = $feat)]
                unsafe fn conv_taps4_from(
                    x0: usize,
                    acc: &mut [f32],
                    n: usize,
                    ws: &[f32],
                    offs: &[usize],
                    src: &[f32],
                    accumulate: bool,
                ) {
                    let rows = acc.len() / n;
                    let ap = acc.as_mut_ptr();
                    let wp = ws.as_ptr();
                    let sp = src.as_ptr();
                    let mut x = x0;
                    // SAFETY: x + 16 (resp. 8) <= n and every offs[t] + n
                    // <= src.len(), so segment loads are in bounds; ws
                    // holds 4 weights per tap; stores go to rows c < rows,
                    // each n floats of `acc`.
                    unsafe {
                        while x + 16 <= n {
                            let (mut a00, mut a01) = (_mm256_setzero_ps(), _mm256_setzero_ps());
                            let (mut a10, mut a11) = (_mm256_setzero_ps(), _mm256_setzero_ps());
                            let (mut a20, mut a21) = (_mm256_setzero_ps(), _mm256_setzero_ps());
                            let (mut a30, mut a31) = (_mm256_setzero_ps(), _mm256_setzero_ps());
                            for (t, &off) in offs.iter().enumerate() {
                                let s = sp.add(off + x);
                                let (v0, v1) = (_mm256_loadu_ps(s), _mm256_loadu_ps(s.add(8)));
                                let w = wp.add(4 * t);
                                let w0 = _mm256_broadcast_ss(&*w);
                                let w1 = _mm256_broadcast_ss(&*w.add(1));
                                let w2 = _mm256_broadcast_ss(&*w.add(2));
                                let w3 = _mm256_broadcast_ss(&*w.add(3));
                                a00 = $madd(w0, v0, a00);
                                a01 = $madd(w0, v1, a01);
                                a10 = $madd(w1, v0, a10);
                                a11 = $madd(w1, v1, a11);
                                a20 = $madd(w2, v0, a20);
                                a21 = $madd(w2, v1, a21);
                                a30 = $madd(w3, v0, a30);
                                a31 = $madd(w3, v1, a31);
                            }
                            let chains = [[a00, a01], [a10, a11], [a20, a21], [a30, a31]];
                            for (c, pair) in chains.iter().enumerate().take(rows) {
                                let p = ap.add(c * n + x);
                                put8(p, pair[0], accumulate);
                                put8(p.add(8), pair[1], accumulate);
                            }
                            x += 16;
                        }
                        if x + 8 <= n {
                            let (mut a0, mut a1) = (_mm256_setzero_ps(), _mm256_setzero_ps());
                            let (mut a2, mut a3) = (_mm256_setzero_ps(), _mm256_setzero_ps());
                            for (t, &off) in offs.iter().enumerate() {
                                let v = _mm256_loadu_ps(sp.add(off + x));
                                let w = wp.add(4 * t);
                                a0 = $madd(_mm256_broadcast_ss(&*w), v, a0);
                                a1 = $madd(_mm256_broadcast_ss(&*w.add(1)), v, a1);
                                a2 = $madd(_mm256_broadcast_ss(&*w.add(2)), v, a2);
                                a3 = $madd(_mm256_broadcast_ss(&*w.add(3)), v, a3);
                            }
                            for (c, v) in [a0, a1, a2, a3].into_iter().enumerate().take(rows) {
                                put8(ap.add(c * n + x), v, accumulate);
                            }
                            x += 8;
                        }
                        // Remainder columns use the scalar twin of $madd
                        // so their rounding matches the vector lanes.
                        for xi in x..n {
                            for c in 0..rows {
                                let mut s = 0.0f32;
                                for (t, &off) in offs.iter().enumerate() {
                                    s = $smadd(*wp.add(4 * t + c), *sp.add(off + xi), s);
                                }
                                let a = ap.add(c * n + xi);
                                *a = if accumulate { *a + s } else { s };
                            }
                        }
                    }
                }

                /// Winograd channel reduction with the two 8-lane m-tile
                /// accumulators register-resident across the whole `cin`
                /// loop, output channels blocked by four to share each
                /// `v` load.
                ///
                /// # Safety
                ///
                /// Caller must have verified the `$feat` CPU features;
                /// `m_slab.len() >= cout * 16`, `v_slab.len() >= cin * 16`
                /// and `u.len() >= cout * cin` must hold.
                #[target_feature(enable = $feat)]
                pub unsafe fn wino_channel_reduce(
                    m_slab: &mut [f32],
                    u: &[[f32; 16]],
                    v_slab: &[f32],
                    cout: usize,
                    cin: usize,
                ) {
                    debug_assert!(m_slab.len() >= cout * 16);
                    debug_assert!(v_slab.len() >= cin * 16);
                    debug_assert!(u.len() >= cout * cin);
                    let vp = v_slab.as_ptr();
                    let mp = m_slab.as_mut_ptr();
                    let up = u.as_ptr() as *const f32;
                    let mut oo = 0usize;
                    // SAFETY: (whole body) all tile indices stay below the
                    // bounds asserted above; every load/store touches one
                    // 16-float tile at tile-index * 16.
                    unsafe {
                        while oo + 4 <= cout {
                            let mut m00 = _mm256_setzero_ps();
                            let mut m01 = _mm256_setzero_ps();
                            let mut m10 = _mm256_setzero_ps();
                            let mut m11 = _mm256_setzero_ps();
                            let mut m20 = _mm256_setzero_ps();
                            let mut m21 = _mm256_setzero_ps();
                            let mut m30 = _mm256_setzero_ps();
                            let mut m31 = _mm256_setzero_ps();
                            for cc in 0..cin {
                                let v0 = _mm256_loadu_ps(vp.add(cc * 16));
                                let v1 = _mm256_loadu_ps(vp.add(cc * 16 + 8));
                                let u0 = up.add((oo * cin + cc) * 16);
                                let u1 = up.add(((oo + 1) * cin + cc) * 16);
                                let u2 = up.add(((oo + 2) * cin + cc) * 16);
                                let u3 = up.add(((oo + 3) * cin + cc) * 16);
                                m00 = $madd(_mm256_loadu_ps(u0), v0, m00);
                                m01 = $madd(_mm256_loadu_ps(u0.add(8)), v1, m01);
                                m10 = $madd(_mm256_loadu_ps(u1), v0, m10);
                                m11 = $madd(_mm256_loadu_ps(u1.add(8)), v1, m11);
                                m20 = $madd(_mm256_loadu_ps(u2), v0, m20);
                                m21 = $madd(_mm256_loadu_ps(u2.add(8)), v1, m21);
                                m30 = $madd(_mm256_loadu_ps(u3), v0, m30);
                                m31 = $madd(_mm256_loadu_ps(u3.add(8)), v1, m31);
                            }
                            _mm256_storeu_ps(mp.add(oo * 16), m00);
                            _mm256_storeu_ps(mp.add(oo * 16 + 8), m01);
                            _mm256_storeu_ps(mp.add((oo + 1) * 16), m10);
                            _mm256_storeu_ps(mp.add((oo + 1) * 16 + 8), m11);
                            _mm256_storeu_ps(mp.add((oo + 2) * 16), m20);
                            _mm256_storeu_ps(mp.add((oo + 2) * 16 + 8), m21);
                            _mm256_storeu_ps(mp.add((oo + 3) * 16), m30);
                            _mm256_storeu_ps(mp.add((oo + 3) * 16 + 8), m31);
                            oo += 4;
                        }
                        while oo < cout {
                            let mut m0 = _mm256_setzero_ps();
                            let mut m1 = _mm256_setzero_ps();
                            for cc in 0..cin {
                                let ut = up.add((oo * cin + cc) * 16);
                                let v0 = _mm256_loadu_ps(vp.add(cc * 16));
                                let v1 = _mm256_loadu_ps(vp.add(cc * 16 + 8));
                                m0 = $madd(_mm256_loadu_ps(ut), v0, m0);
                                m1 = $madd(_mm256_loadu_ps(ut.add(8)), v1, m1);
                            }
                            _mm256_storeu_ps(mp.add(oo * 16), m0);
                            _mm256_storeu_ps(mp.add(oo * 16 + 8), m1);
                            oo += 1;
                        }
                    }
                }
            }
        };
    }

    madd_kernels!(
        two_round,
        "avx2",
        is_x86_feature_detected!("avx2"),
        madd_two_round,
        |a: f32, b: f32, c: f32| c + a * b,
        madd512_two_round
    );
    madd_kernels!(
        fused,
        "avx2,fma",
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
        madd_fused,
        |a: f32, b: f32, c: f32| a.mul_add(b, c),
        madd512_fused
    );

    // --- madd-free kernels, shared by both AVX2 variants ------------------

    /// Whether the AVX2 variants' [`super::Microkernel::qmadd_taps4`] runs
    /// the AVX-512 VNNI body: probed once per process, then cached.
    pub fn has_vnni() -> bool {
        static VNNI: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *VNNI.get_or_init(|| {
            is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vnni")
        })
    }

    /// A tap's four weight words split for `vpmaddwd`: per channel, the
    /// sign-extended bytes (w0, w2) and (w1, w3) as `i16` pairs, each
    /// broadcast to every 32-bit lane.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support; `w` must point at four
    /// readable words.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn split_weights(w: *const i32) -> ([__m256i; 4], [__m256i; 4]) {
        // SAFETY: the caller's contract.
        let w4 = unsafe { _mm_loadu_si128(w as *const __m128i) };
        let even = _mm256_broadcastsi128_si256(_mm_srai_epi16::<8>(_mm_slli_epi16::<8>(w4)));
        let odd = _mm256_broadcastsi128_si256(_mm_srai_epi16::<8>(w4));
        let lanes = |v: __m256i| {
            [
                _mm256_shuffle_epi32::<0x00>(v),
                _mm256_shuffle_epi32::<0x55>(v),
                _mm256_shuffle_epi32::<0xAA>(v),
                _mm256_shuffle_epi32::<0xFF>(v),
            ]
        };
        (lanes(even), lanes(odd))
    }

    /// `acc + (even . we) + (odd . wo)` per 32-bit lane: one packed tap
    /// of a split body.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn madd_split(acc: __m256i, even: __m256i, odd: __m256i, we: __m256i, wo: __m256i) -> __m256i {
        _mm256_add_epi32(
            acc,
            _mm256_add_epi32(_mm256_madd_epi16(even, we), _mm256_madd_epi16(odd, wo)),
        )
    }

    /// Four-channel integer tap kernel, AVX2 body (see the trait doc).
    /// AVX2 has no exact `u8 x i8` dot product (`vpmaddubsw` saturates),
    /// so each tap's words split into their even bytes (`and 0x00ff`) and
    /// odd bytes (`srli 8`) as `i16` lanes, and two `vpmaddwd` take them
    /// against the weights split the same way ([`split_weights`]). 4
    /// channels x 16 columns of `i32` sums live in eight registers, each
    /// tap's segment loaded and split once; then an 8-column block and
    /// scalar remainder columns. Exact integer arithmetic, so
    /// bit-identical to [`scalar::qmadd_taps4`] under any blocking.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support and the length contract
    /// `check_taps4` asserts.
    #[target_feature(enable = "avx2")]
    pub unsafe fn qmadd_taps4_avx2(
        acc: &mut [i32],
        n: usize,
        ws: &[i32],
        offs: &[usize],
        src: &[i32],
        seed: [i32; 4],
    ) {
        let rows = acc.len() / n;
        let ap = acc.as_mut_ptr();
        let wp = ws.as_ptr();
        let sp = src.as_ptr();
        let lo = _mm256_set1_epi16(0x00ff);
        let mut x = 0usize;
        // SAFETY: x + 16 (resp. 8) <= n and every offs[t] + n <=
        // src.len(), so segment loads are in bounds; ws holds 4 weights
        // per tap; stores go to rows c < rows, each n words of `acc`.
        unsafe {
            while x + 16 <= n {
                let mut a = [[_mm256_setzero_si256(); 2]; 4];
                for (ac, &s) in a.iter_mut().zip(&seed) {
                    *ac = [_mm256_set1_epi32(s); 2];
                }
                for (t, &off) in offs.iter().enumerate() {
                    let s = sp.add(off + x);
                    let v0 = _mm256_loadu_si256(s as *const __m256i);
                    let v1 = _mm256_loadu_si256(s.add(8) as *const __m256i);
                    let (e0, o0) = (_mm256_and_si256(v0, lo), _mm256_srli_epi16::<8>(v0));
                    let (e1, o1) = (_mm256_and_si256(v1, lo), _mm256_srli_epi16::<8>(v1));
                    let (we, wo) = split_weights(wp.add(4 * t));
                    for c in 0..4 {
                        a[c][0] = madd_split(a[c][0], e0, o0, we[c], wo[c]);
                        a[c][1] = madd_split(a[c][1], e1, o1, we[c], wo[c]);
                    }
                }
                for (c, pair) in a.iter().enumerate().take(rows) {
                    let p = ap.add(c * n + x);
                    _mm256_storeu_si256(p as *mut __m256i, pair[0]);
                    _mm256_storeu_si256(p.add(8) as *mut __m256i, pair[1]);
                }
                x += 16;
            }
            if x + 8 <= n {
                let mut a = seed.map(|s| _mm256_set1_epi32(s));
                for (t, &off) in offs.iter().enumerate() {
                    let v = _mm256_loadu_si256(sp.add(off + x) as *const __m256i);
                    let (e, o) = (_mm256_and_si256(v, lo), _mm256_srli_epi16::<8>(v));
                    let (we, wo) = split_weights(wp.add(4 * t));
                    for c in 0..4 {
                        a[c] = madd_split(a[c], e, o, we[c], wo[c]);
                    }
                }
                for (c, v) in a.into_iter().enumerate().take(rows) {
                    _mm256_storeu_si256(ap.add(c * n + x) as *mut __m256i, v);
                }
                x += 8;
            }
            for xi in x..n {
                for (c, &s) in seed.iter().enumerate().take(rows) {
                    let mut sum = s;
                    for (t, &off) in offs.iter().enumerate() {
                        sum += scalar::dot4(*sp.add(off + xi), *wp.add(4 * t + c));
                    }
                    *ap.add(c * n + xi) = sum;
                }
            }
        }
    }

    /// Four-channel integer tap kernel, AVX-512 VNNI body: 4 channels x
    /// 64 columns of `i32` sums in sixteen zmm registers — enough
    /// independent chains to cover `vpdpbusd`'s latency — with one
    /// `vpdpbusd` (four `u8 x i8` products summed into each lane) per
    /// channel per 16 columns per tap; then one 32-column block, and the
    /// last columns 16 at a time with masked loads and stores instead of
    /// a scalar remainder. `vpdpbusd` (unlike `vpdpbusds`) wraps rather
    /// than saturates, and under the trait's operand bounds nothing wraps,
    /// so this is bit-identical to [`scalar::qmadd_taps4`].
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX-512F and AVX-512 VNNI support
    /// ([`has_vnni`]) and the length contract `check_taps4` asserts.
    #[target_feature(enable = "avx512f,avx512vnni")]
    pub unsafe fn qmadd_taps4_vnni(
        acc: &mut [i32],
        n: usize,
        ws: &[i32],
        offs: &[usize],
        src: &[i32],
        seed: [i32; 4],
    ) {
        let rows = acc.len() / n;
        let ap = acc.as_mut_ptr();
        let wp = ws.as_ptr();
        let sp = src.as_ptr();
        let s4 = seed.map(|s| _mm512_set1_epi32(s));
        let mut x = 0usize;
        // SAFETY: x + 32 <= n in the wide block and every offs[t] + n <=
        // src.len(), so its loads are in bounds; the tail block's masked
        // loads and stores touch only columns x..n (masked-out lanes are
        // never accessed, and x < n keeps the base pointers in bounds);
        // ws holds 4 weights per tap; stores go to rows c < rows.
        unsafe {
            while x + 64 <= n {
                let mut a = s4.map(|s| [s; 4]);
                for (t, &off) in offs.iter().enumerate() {
                    let s = sp.add(off + x);
                    let mut v = [_mm512_setzero_si512(); 4];
                    for (j, vj) in v.iter_mut().enumerate() {
                        *vj = _mm512_loadu_si512(s.add(16 * j) as *const __m512i);
                    }
                    for (c, ac) in a.iter_mut().enumerate() {
                        let wc = _mm512_set1_epi32(*wp.add(4 * t + c));
                        for (acj, &vj) in ac.iter_mut().zip(&v) {
                            *acj = _mm512_dpbusd_epi32(*acj, vj, wc);
                        }
                    }
                }
                for (c, ac) in a.iter().enumerate().take(rows) {
                    for (j, &acj) in ac.iter().enumerate() {
                        _mm512_storeu_si512(ap.add(c * n + x + 16 * j) as *mut __m512i, acj);
                    }
                }
                x += 64;
            }
            if x + 32 <= n {
                let (mut a00, mut a01, mut a10, mut a11) = (s4[0], s4[0], s4[1], s4[1]);
                let (mut a20, mut a21, mut a30, mut a31) = (s4[2], s4[2], s4[3], s4[3]);
                for (t, &off) in offs.iter().enumerate() {
                    let s = sp.add(off + x);
                    let v0 = _mm512_loadu_si512(s as *const __m512i);
                    let v1 = _mm512_loadu_si512(s.add(16) as *const __m512i);
                    let w = wp.add(4 * t);
                    let w0 = _mm512_set1_epi32(*w);
                    let w1 = _mm512_set1_epi32(*w.add(1));
                    let w2 = _mm512_set1_epi32(*w.add(2));
                    let w3 = _mm512_set1_epi32(*w.add(3));
                    a00 = _mm512_dpbusd_epi32(a00, v0, w0);
                    a01 = _mm512_dpbusd_epi32(a01, v1, w0);
                    a10 = _mm512_dpbusd_epi32(a10, v0, w1);
                    a11 = _mm512_dpbusd_epi32(a11, v1, w1);
                    a20 = _mm512_dpbusd_epi32(a20, v0, w2);
                    a21 = _mm512_dpbusd_epi32(a21, v1, w2);
                    a30 = _mm512_dpbusd_epi32(a30, v0, w3);
                    a31 = _mm512_dpbusd_epi32(a31, v1, w3);
                }
                let sums = [[a00, a01], [a10, a11], [a20, a21], [a30, a31]];
                for (c, pair) in sums.iter().enumerate().take(rows) {
                    let p = ap.add(c * n + x);
                    _mm512_storeu_si512(p as *mut __m512i, pair[0]);
                    _mm512_storeu_si512(p.add(16) as *mut __m512i, pair[1]);
                }
                x += 32;
            }
            while x < n {
                let m = l512::mask(n - x);
                let [mut a0, mut a1, mut a2, mut a3] = s4;
                for (t, &off) in offs.iter().enumerate() {
                    let v = _mm512_maskz_loadu_epi32(m, sp.add(off + x));
                    let w = wp.add(4 * t);
                    a0 = _mm512_dpbusd_epi32(a0, v, _mm512_set1_epi32(*w));
                    a1 = _mm512_dpbusd_epi32(a1, v, _mm512_set1_epi32(*w.add(1)));
                    a2 = _mm512_dpbusd_epi32(a2, v, _mm512_set1_epi32(*w.add(2)));
                    a3 = _mm512_dpbusd_epi32(a3, v, _mm512_set1_epi32(*w.add(3)));
                }
                for (c, v) in [a0, a1, a2, a3].into_iter().enumerate().take(rows) {
                    _mm512_mask_storeu_epi32(ap.add(c * n + x), m, v);
                }
                x += 16;
            }
        }
    }

    /// [`qmadd_taps4_avx2`] behind its feature and length checks — the
    /// AVX2 variants' body on CPUs without VNNI, and an entry of
    /// [`super::int8_bodies`].
    pub fn qmadd_taps4_avx2_checked(
        acc: &mut [i32],
        n: usize,
        ws: &[i32],
        offs: &[usize],
        src: &[i32],
        seed: [i32; 4],
    ) {
        super::check_taps4(acc, n, ws, offs, src);
        assert!(is_x86_feature_detected!("avx2"), "the AVX2 body needs AVX2");
        // SAFETY: AVX2 and the length contract asserted just above.
        unsafe { qmadd_taps4_avx2(acc, n, ws, offs, src, seed) }
    }

    /// [`qmadd_taps4_vnni`] behind its feature and length checks.
    pub fn qmadd_taps4_vnni_checked(
        acc: &mut [i32],
        n: usize,
        ws: &[i32],
        offs: &[usize],
        src: &[i32],
        seed: [i32; 4],
    ) {
        super::check_taps4(acc, n, ws, offs, src);
        assert!(has_vnni(), "the VNNI body needs AVX-512F and AVX-512 VNNI");
        // SAFETY: AVX-512F + VNNI and the length contract asserted just
        // above.
        unsafe { qmadd_taps4_vnni(acc, n, ws, offs, src, seed) }
    }

    /// `f32::round` (half away from zero) on 8 lanes, then clamp to the
    /// wire range `[-zp, 255 - zp]`, returned as *integral floats*.
    ///
    /// `trunc(f + copysign(0.5, f))` equals `f.round()` exactly for
    /// `|f| < 2^22` (the add is exact: `ulp(f) <= 0.25` there); larger
    /// magnitudes land outside the clamp bounds (`<= 255`) on both paths,
    /// so the clamped result is bit-identical to the scalar chain
    /// `((f.round() as i32 + zp).clamp(0, 255) - zp)` for every value the
    /// quantized executor can produce (finite, `|round| < i32::MAX`).
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn round_clamp_wire8(f: __m256, zp: i32) -> __m256 {
        let half = _mm256_or_ps(_mm256_and_ps(f, _mm256_set1_ps(-0.0)), _mm256_set1_ps(0.5));
        let t =
            _mm256_round_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(_mm256_add_ps(f, half));
        let lo = _mm256_set1_ps(-(zp as f32));
        let hi = _mm256_set1_ps((255 - zp) as f32);
        _mm256_min_ps(_mm256_max_ps(t, lo), hi)
    }

    /// The [`super::QuantEpilogue`] chain on 8 accumulator lanes, up to
    /// and including the wire clamp — returned as integral floats (the
    /// level minus the zero point; still to be converted or rescaled by
    /// the caller). Multiply and add are separate (unfused) ops mirroring
    /// the scalar reference; see [`x86::round_clamp_wire8`] for the
    /// rounding argument.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn requant_wire8(acc: __m256i, e: &super::QuantEpilogue) -> __m256 {
        // SAFETY: pure register ops.
        unsafe {
            let af = _mm256_cvtepi32_ps(acc);
            let mut v = _mm256_add_ps(
                _mm256_mul_ps(af, _mm256_set1_ps(e.scale_io)),
                _mm256_set1_ps(e.bias),
            );
            v = match e.act {
                RowAct::Linear => v,
                RowAct::Relu => _mm256_max_ps(v, _mm256_setzero_ps()),
                RowAct::PRelu(a) => {
                    let neg = _mm256_mul_ps(_mm256_set1_ps(a), v);
                    let keep = _mm256_cmp_ps::<_CMP_GE_OQ>(v, _mm256_setzero_ps());
                    _mm256_blendv_ps(neg, v, keep)
                }
            };
            round_clamp_wire8(_mm256_div_ps(v, _mm256_set1_ps(e.out_scale)), e.zero_point)
        }
    }

    /// An integral-float wire vector (level minus `zp`) as its `u8`
    /// levels, shifted into byte `c` of each word. `cvtps_epi32` is exact
    /// on integral values in `[-255, 255]` regardless of rounding mode.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn level_byte8(wire: __m256, zp: i32, c: usize) -> __m256i {
        let q = _mm256_add_epi32(_mm256_cvtps_epi32(wire), _mm256_set1_epi32(zp));
        _mm256_sll_epi32(q, _mm_cvtsi32_si128(8 * c as i32))
    }

    /// Byte `c` of each word of `v` minus `zp`, as exact floats.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn byte_ps8(v: __m256i, c: usize, zp: i32) -> __m256 {
        let b = _mm256_srl_epi32(v, _mm_cvtsi32_si128(8 * c as i32));
        let q = _mm256_and_si256(b, _mm256_set1_epi32(0xff));
        _mm256_cvtepi32_ps(_mm256_sub_epi32(q, _mm256_set1_epi32(zp)))
    }

    /// Vectorized [`scalar::qrequant_pack_row`], 8 columns at a time.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support and the length contract
    /// `check_group` asserts.
    #[target_feature(enable = "avx2")]
    pub unsafe fn qrequant_pack_row(acc: &[i32], es: &[super::QuantEpilogue], dst: &mut [i32]) {
        let n = dst.len();
        let mut x = 0usize;
        // SAFETY: x + 8 <= n, and row c < es.len() of acc holds n columns
        // from c * n.
        unsafe {
            while x + 8 <= n {
                let mut word = _mm256_setzero_si256();
                for (c, e) in es.iter().enumerate() {
                    let a = _mm256_loadu_si256(acc.as_ptr().add(c * n + x) as *const __m256i);
                    word = _mm256_or_si256(word, level_byte8(requant_wire8(a, e), e.zero_point, c));
                }
                _mm256_storeu_si256(dst.as_mut_ptr().add(x) as *mut __m256i, word);
                x += 8;
            }
        }
        for (xi, d) in dst.iter_mut().enumerate().skip(x) {
            *d = scalar::requant_word(acc, n, es, xi);
        }
    }

    /// Vectorized [`scalar::qresidual_pack_row`]: requantize each lane,
    /// dequantize, add the dequantized `first` byte, requantize onto the
    /// widened wire, pack. All float steps are unfused per-lane ops.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support and the length contract
    /// `check_group` asserts; `first` must be at least `dst.len()` long.
    #[target_feature(enable = "avx2")]
    pub unsafe fn qresidual_pack_row(
        acc: &[i32],
        es: &[super::QuantEpilogue],
        first: &[i32],
        dst: &mut [i32],
        first_wire: super::QuantWire,
        wide: super::QuantWire,
    ) {
        let n = dst.len();
        let mut x = 0usize;
        // SAFETY: x + 8 <= n, every row and `first` hold n columns.
        unsafe {
            let vfirst = _mm256_set1_ps(first_wire.scale);
            let vwide = _mm256_set1_ps(wide.scale);
            while x + 8 <= n {
                let fv = _mm256_loadu_si256(first.as_ptr().add(x) as *const __m256i);
                let mut word = _mm256_setzero_si256();
                for (c, e) in es.iter().enumerate() {
                    let a = _mm256_mul_ps(
                        _mm256_set1_ps(e.out_scale),
                        requant_wire8(
                            _mm256_loadu_si256(acc.as_ptr().add(c * n + x) as *const __m256i),
                            e,
                        ),
                    );
                    let f = byte_ps8(fv, c, first_wire.zero_point);
                    let s = _mm256_div_ps(_mm256_add_ps(a, _mm256_mul_ps(vfirst, f)), vwide);
                    let q = round_clamp_wire8(s, wide.zero_point);
                    word = _mm256_or_si256(word, level_byte8(q, wide.zero_point, c));
                }
                _mm256_storeu_si256(dst.as_mut_ptr().add(x) as *mut __m256i, word);
                x += 8;
            }
        }
        for (xi, d) in dst.iter_mut().enumerate().skip(x) {
            *d = scalar::residual_word(acc, n, es, first[xi], first_wire, wide, xi);
        }
    }

    /// Vectorized [`scalar::qhead_row`]: the requant chain with an
    /// optional input residual, emitting dequantized levels.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support; `acc` (and the input row,
    /// when present) must be at least `vals.len()` long.
    #[target_feature(enable = "avx2")]
    pub unsafe fn qhead_row(
        acc: &[i32],
        input: Option<(&[i32], super::QuantWire)>,
        vals: &mut [f32],
        e: &super::QuantEpilogue,
    ) {
        let n = vals.len();
        let mut x = 0usize;
        // SAFETY: x + 8 <= n and every source is at least n long.
        unsafe {
            while x + 8 <= n {
                let af =
                    _mm256_cvtepi32_ps(_mm256_loadu_si256(acc.as_ptr().add(x) as *const __m256i));
                let mut v = _mm256_add_ps(
                    _mm256_mul_ps(af, _mm256_set1_ps(e.scale_io)),
                    _mm256_set1_ps(e.bias),
                );
                v = match e.act {
                    RowAct::Linear => v,
                    RowAct::Relu => _mm256_max_ps(v, _mm256_setzero_ps()),
                    RowAct::PRelu(a) => {
                        let neg = _mm256_mul_ps(_mm256_set1_ps(a), v);
                        let keep = _mm256_cmp_ps::<_CMP_GE_OQ>(v, _mm256_setzero_ps());
                        _mm256_blendv_ps(neg, v, keep)
                    }
                };
                if let Some((ir, wire)) = input {
                    let iv = _mm256_loadu_si256(ir.as_ptr().add(x) as *const __m256i);
                    let il = byte_ps8(iv, 0, wire.zero_point);
                    v = _mm256_add_ps(v, _mm256_mul_ps(_mm256_set1_ps(wire.scale), il));
                }
                let wire =
                    round_clamp_wire8(_mm256_div_ps(v, _mm256_set1_ps(e.out_scale)), e.zero_point);
                // Round-trip through integer lanes like the scalar chain's
                // `as i32` / `as f32` pair: exact for integral |wire| <=
                // 255, and it canonicalizes a rounded `-0.0` to `+0.0` so
                // the dequantized output is bit-identical.
                let wi = _mm256_cvtepi32_ps(_mm256_cvtps_epi32(wire));
                _mm256_storeu_ps(
                    vals.as_mut_ptr().add(x),
                    _mm256_mul_ps(_mm256_set1_ps(e.out_scale), wi),
                );
                x += 8;
            }
        }
        scalar::qhead_row(
            &acc[x..],
            input.map(|(ir, wire)| (&ir[x..], wire)),
            &mut vals[x..],
            e,
        );
    }

    // --- AVX-512 bodies of the int8 epilogues -----------------------------
    //
    // The same per-lane ops as the 8-lane bodies above, in the same order
    // and unfused, on 16 lanes; the last `n % 16` columns run masked
    // instead of through the scalar remainder. Masked-out lanes compute on
    // zeros and are never stored, so every output is bit-identical to the
    // scalar chain.

    /// [`round_clamp_wire8`] on 16 lanes. AVX-512F has no float `and`/`or`,
    /// so `copysign(0.5, f)` is built on the integer view.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX-512F support.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn round_clamp_wire16(f: __m512, zp: i32) -> __m512 {
        let sign = _mm512_and_si512(_mm512_castps_si512(f), _mm512_set1_epi32(i32::MIN));
        let half = _mm512_castsi512_ps(_mm512_or_si512(
            sign,
            _mm512_castps_si512(_mm512_set1_ps(0.5)),
        ));
        let t = _mm512_roundscale_ps::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(_mm512_add_ps(
            f, half,
        ));
        let lo = _mm512_set1_ps(-(zp as f32));
        let hi = _mm512_set1_ps((255 - zp) as f32);
        _mm512_min_ps(_mm512_max_ps(t, lo), hi)
    }

    /// `act(scale_io * acc + bias)` on 16 lanes, as [`requant_wire8`]
    /// computes it before the rounding.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX-512F support.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn dequant_act16(acc: __m512i, e: &super::QuantEpilogue) -> __m512 {
        let af = _mm512_cvtepi32_ps(acc);
        let v = _mm512_add_ps(
            _mm512_mul_ps(af, _mm512_set1_ps(e.scale_io)),
            _mm512_set1_ps(e.bias),
        );
        match e.act {
            RowAct::Linear => v,
            RowAct::Relu => _mm512_max_ps(v, _mm512_setzero_ps()),
            RowAct::PRelu(a) => {
                let neg = _mm512_mul_ps(_mm512_set1_ps(a), v);
                let keep = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(v, _mm512_setzero_ps());
                _mm512_mask_blend_ps(keep, neg, v)
            }
        }
    }

    /// [`requant_wire8`] on 16 lanes.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX-512F support.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn requant_wire16(acc: __m512i, e: &super::QuantEpilogue) -> __m512 {
        // SAFETY: pure register ops under the caller's AVX-512F check.
        unsafe {
            let v = dequant_act16(acc, e);
            round_clamp_wire16(_mm512_div_ps(v, _mm512_set1_ps(e.out_scale)), e.zero_point)
        }
    }

    /// [`level_byte8`] on 16 lanes.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn level_byte16(wire: __m512, zp: i32, c: usize) -> __m512i {
        let q = _mm512_add_epi32(_mm512_cvtps_epi32(wire), _mm512_set1_epi32(zp));
        _mm512_sll_epi32(q, _mm_cvtsi32_si128(8 * c as i32))
    }

    /// [`byte_ps8`] on 16 lanes.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn byte_ps16(v: __m512i, c: usize, zp: i32) -> __m512 {
        let b = _mm512_srl_epi32(v, _mm_cvtsi32_si128(8 * c as i32));
        let q = _mm512_and_si512(b, _mm512_set1_epi32(0xff));
        _mm512_cvtepi32_ps(_mm512_sub_epi32(q, _mm512_set1_epi32(zp)))
    }

    /// AVX-512 body of [`qrequant_pack_row`].
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX-512F support ([`has_avx512`]) and
    /// the length contract `check_group` asserts.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn qrequant_pack_row_512(acc: &[i32], es: &[super::QuantEpilogue], dst: &mut [i32]) {
        let n = dst.len();
        // SAFETY: the masked loads and stores touch only columns x..n of
        // `dst` and of each row c < es.len() of `acc` (n columns from
        // c * n); masked-out lanes are never accessed.
        unsafe {
            for x in (0..n).step_by(16) {
                let k = l512::mask(n - x);
                let mut word = _mm512_setzero_si512();
                for (c, e) in es.iter().enumerate() {
                    let a = _mm512_maskz_loadu_epi32(k, acc.as_ptr().add(c * n + x));
                    word =
                        _mm512_or_si512(word, level_byte16(requant_wire16(a, e), e.zero_point, c));
                }
                _mm512_mask_storeu_epi32(dst.as_mut_ptr().add(x), k, word);
            }
        }
    }

    /// AVX-512 body of [`qresidual_pack_row`].
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX-512F support ([`has_avx512`]) and
    /// the length contract `check_group` asserts; `first` must be at
    /// least `dst.len()` long.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn qresidual_pack_row_512(
        acc: &[i32],
        es: &[super::QuantEpilogue],
        first: &[i32],
        dst: &mut [i32],
        first_wire: super::QuantWire,
        wide: super::QuantWire,
    ) {
        let n = dst.len();
        let (vfirst, vwide) = (_mm512_set1_ps(first_wire.scale), _mm512_set1_ps(wide.scale));
        // SAFETY: as in `qrequant_pack_row_512`; `first` is at least n
        // long.
        unsafe {
            for x in (0..n).step_by(16) {
                let k = l512::mask(n - x);
                let fv = _mm512_maskz_loadu_epi32(k, first.as_ptr().add(x));
                let mut word = _mm512_setzero_si512();
                for (c, e) in es.iter().enumerate() {
                    let acc = _mm512_maskz_loadu_epi32(k, acc.as_ptr().add(c * n + x));
                    let a = _mm512_mul_ps(_mm512_set1_ps(e.out_scale), requant_wire16(acc, e));
                    let f = byte_ps16(fv, c, first_wire.zero_point);
                    let s = _mm512_div_ps(_mm512_add_ps(a, _mm512_mul_ps(vfirst, f)), vwide);
                    let q = round_clamp_wire16(s, wide.zero_point);
                    word = _mm512_or_si512(word, level_byte16(q, wide.zero_point, c));
                }
                _mm512_mask_storeu_epi32(dst.as_mut_ptr().add(x), k, word);
            }
        }
    }

    /// AVX-512 body of [`qhead_row`].
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX-512F support ([`has_avx512`]); `acc`
    /// (and the input row, when present) must be at least `vals.len()`
    /// long.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn qhead_row_512(
        acc: &[i32],
        input: Option<(&[i32], super::QuantWire)>,
        vals: &mut [f32],
        e: &super::QuantEpilogue,
    ) {
        let n = vals.len();
        // SAFETY: as in `qrequant_pack_row_512`; every source is at least
        // n long.
        unsafe {
            for x in (0..n).step_by(16) {
                let k = l512::mask(n - x);
                let mut v = dequant_act16(_mm512_maskz_loadu_epi32(k, acc.as_ptr().add(x)), e);
                if let Some((ir, wire)) = input {
                    let il = byte_ps16(
                        _mm512_maskz_loadu_epi32(k, ir.as_ptr().add(x)),
                        0,
                        wire.zero_point,
                    );
                    v = _mm512_add_ps(v, _mm512_mul_ps(_mm512_set1_ps(wire.scale), il));
                }
                let wire =
                    round_clamp_wire16(_mm512_div_ps(v, _mm512_set1_ps(e.out_scale)), e.zero_point);
                // The integer round trip canonicalizes -0.0, as in
                // `qhead_row`.
                let wi = _mm512_cvtepi32_ps(_mm512_cvtps_epi32(wire));
                _mm512_mask_storeu_ps(
                    vals.as_mut_ptr().add(x),
                    k,
                    _mm512_mul_ps(_mm512_set1_ps(e.out_scale), wi),
                );
            }
        }
    }

    /// Vectorized [`scalar::qquantize_row`]: quantize real inputs to their
    /// raw wire levels.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support; `src.len() >= dst.len()`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn qquantize_row(src: &[f32], dst: &mut [i32], scale: f32, zp: i32) {
        let n = dst.len();
        let mut x = 0usize;
        // SAFETY: x + 8 <= n <= src.len() for every lane access.
        unsafe {
            let vscale = _mm256_set1_ps(scale);
            while x + 8 <= n {
                let f = _mm256_div_ps(_mm256_loadu_ps(src.as_ptr().add(x)), vscale);
                let level = level_byte8(round_clamp_wire8(f, zp), zp, 0);
                _mm256_storeu_si256(dst.as_mut_ptr().add(x) as *mut __m256i, level);
                x += 8;
            }
        }
        scalar::qquantize_row(&src[x..], &mut dst[x..], scale, zp);
    }

    /// Winograd input transform, SSE 4-lane over the row/column
    /// butterflies (pure add/sub: bit-identical to the scalar transform
    /// under any lane arrangement).
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 (implies SSE) support.
    #[target_feature(enable = "avx2")]
    pub unsafe fn wino_input_transform(d: &[f32; 16]) -> [f32; 16] {
        let mut out = [0.0f32; 16];
        // SAFETY: all loads/stores address one of the four 4-float rows of
        // the 16-float tiles.
        unsafe {
            let p = d.as_ptr();
            let d0 = _mm_loadu_ps(p);
            let d1 = _mm_loadu_ps(p.add(4));
            let d2 = _mm_loadu_ps(p.add(8));
            let d3 = _mm_loadu_ps(p.add(12));
            // Row pass (Bᵀ · d), 4 columns per op.
            let t0 = _mm_sub_ps(d0, d2);
            let t1 = _mm_add_ps(d1, d2);
            let t2 = _mm_sub_ps(d2, d1);
            let t3 = _mm_sub_ps(d1, d3);
            // Column pass (· B) via transpose, the same butterflies, and
            // transpose back: per-element operand pairs are unchanged.
            let (c0, c1, c2, c3) = transpose4(t0, t1, t2, t3);
            let o0 = _mm_sub_ps(c0, c2);
            let o1 = _mm_add_ps(c1, c2);
            let o2 = _mm_sub_ps(c2, c1);
            let o3 = _mm_sub_ps(c1, c3);
            let (r0, r1, r2, r3) = transpose4(o0, o1, o2, o3);
            let q = out.as_mut_ptr();
            _mm_storeu_ps(q, r0);
            _mm_storeu_ps(q.add(4), r1);
            _mm_storeu_ps(q.add(8), r2);
            _mm_storeu_ps(q.add(12), r3);
        }
        out
    }

    /// Winograd output transform (2x2 from the 4x4 m-tile). Pure add/sub.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 (implies SSE) support.
    #[target_feature(enable = "avx2")]
    pub unsafe fn wino_output_transform(m: &[f32; 16]) -> [f32; 4] {
        // SAFETY: loads address the four 4-float rows of the tile.
        unsafe {
            let p = m.as_ptr();
            let m0 = _mm_loadu_ps(p);
            let m1 = _mm_loadu_ps(p.add(4));
            let m2 = _mm_loadu_ps(p.add(8));
            let m3 = _mm_loadu_ps(p.add(12));
            // Row pass (Aᵀ · m): two 4-wide rows.
            let t0 = _mm_add_ps(_mm_add_ps(m0, m1), m2);
            let t1 = _mm_sub_ps(_mm_sub_ps(m1, m2), m3);
            // Column pass: scalar butterflies on the 8 staged values, the
            // same operand pairs as the scalar transform.
            let mut t = [0.0f32; 8];
            _mm_storeu_ps(t.as_mut_ptr(), t0);
            _mm_storeu_ps(t.as_mut_ptr().add(4), t1);
            [
                t[0] + t[1] + t[2],
                t[1] - t[2] - t[3],
                t[4] + t[5] + t[6],
                t[5] - t[6] - t[7],
            ]
        }
    }

    /// 4x4 transpose of four SSE rows.
    ///
    /// # Safety
    ///
    /// Caller must have verified SSE support (implied by AVX2).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn transpose4(
        r0: __m128,
        r1: __m128,
        r2: __m128,
        r3: __m128,
    ) -> (__m128, __m128, __m128, __m128) {
        let lo01 = _mm_unpacklo_ps(r0, r1);
        let hi01 = _mm_unpackhi_ps(r0, r1);
        let lo23 = _mm_unpacklo_ps(r2, r3);
        let hi23 = _mm_unpackhi_ps(r2, r3);
        (
            _mm_movelh_ps(lo01, lo23),
            _mm_movehl_ps(lo23, lo01),
            _mm_movelh_ps(hi01, hi23),
            _mm_movehl_ps(hi23, hi01),
        )
    }
}

/// Implements the trait for one AVX2 flavor by delegating every method to
/// the matching `x86` free functions. Both structs are only ever handed
/// out by [`microkernel`] after `is_x86_feature_detected!` confirmed the
/// features, which is the safety argument each `unsafe` block relies on.
#[cfg(target_arch = "x86_64")]
macro_rules! avx2_trait_impl {
    ($name:ident, $variant:expr, $madd_mod:ident) => {
        struct $name;

        impl Microkernel for $name {
            fn variant(&self) -> KernelVariant {
                $variant
            }

            fn gemm_8x8(&self, apanel: &[f32], bstrip: &[f32], kc: usize, acc: &mut [[f32; 8]; 8]) {
                assert!(apanel.len() >= kc * 8, "A panel too short");
                assert!(bstrip.len() >= kc * 8, "B strip too short");
                // SAFETY: features verified at dispatch (see macro doc);
                // panel lengths asserted above.
                unsafe { x86::$madd_mod::gemm_8x8(apanel, bstrip, kc, acc) }
            }

            fn axpy(&self, acc: &mut [f32], src: &[f32], c: f32) {
                assert!(src.len() >= acc.len(), "src shorter than acc");
                // SAFETY: features verified at dispatch; lengths asserted.
                unsafe { x86::$madd_mod::axpy(acc, src, c) }
            }

            fn conv_taps4(
                &self,
                acc: &mut [f32],
                n: usize,
                ws: &[f32],
                offs: &[usize],
                src: &[f32],
                accumulate: bool,
            ) {
                check_taps4(acc, n, ws, offs, src);
                // SAFETY: the AVX2 features verified at dispatch, AVX-512F
                // by `has_avx512`; lengths checked.
                unsafe {
                    if x86::has_avx512() {
                        x86::$madd_mod::conv_taps4_512(acc, n, ws, offs, src, accumulate)
                    } else {
                        x86::$madd_mod::conv_taps4(acc, n, ws, offs, src, accumulate)
                    }
                }
            }

            fn qmadd_taps4(
                &self,
                acc: &mut [i32],
                n: usize,
                ws: &[i32],
                offs: &[usize],
                src: &[i32],
                seed: [i32; 4],
            ) {
                // Integer kernel shared by both AVX2 variants (there is no
                // madd flavor to differ on); the body is picked once per
                // process and cannot change a bit.
                if x86::has_vnni() {
                    x86::qmadd_taps4_vnni_checked(acc, n, ws, offs, src, seed)
                } else {
                    x86::qmadd_taps4_avx2_checked(acc, n, ws, offs, src, seed)
                }
            }

            fn int8_body(&self) -> &'static str {
                if x86::has_vnni() {
                    "avx512vnni"
                } else {
                    "avx2"
                }
            }

            fn qrequant_pack_row(&self, acc: &[i32], es: &[QuantEpilogue], dst: &mut [i32]) {
                check_group(acc, es, dst.len());
                // Shared by both AVX2 variants: the epilogue mirrors the
                // scalar chain with unfused mul/add, so there is no madd
                // flavor to diverge on.
                // SAFETY: AVX2 verified at dispatch, AVX-512F by
                // `has_avx512`; lengths checked.
                unsafe {
                    if x86::has_avx512() {
                        x86::qrequant_pack_row_512(acc, es, dst)
                    } else {
                        x86::qrequant_pack_row(acc, es, dst)
                    }
                }
            }

            fn qresidual_pack_row(
                &self,
                acc: &[i32],
                es: &[QuantEpilogue],
                first: &[i32],
                dst: &mut [i32],
                first_wire: QuantWire,
                wide: QuantWire,
            ) {
                check_group(acc, es, dst.len());
                assert!(first.len() >= dst.len(), "first shorter than dst");
                // SAFETY: AVX2 verified at dispatch, AVX-512F by
                // `has_avx512`; lengths checked.
                unsafe {
                    if x86::has_avx512() {
                        x86::qresidual_pack_row_512(acc, es, first, dst, first_wire, wide)
                    } else {
                        x86::qresidual_pack_row(acc, es, first, dst, first_wire, wide)
                    }
                }
            }

            fn qhead_row(
                &self,
                acc: &[i32],
                input: Option<(&[i32], QuantWire)>,
                vals: &mut [f32],
                e: &QuantEpilogue,
            ) {
                assert!(acc.len() >= vals.len(), "acc shorter than vals");
                if let Some((ir, _)) = input {
                    assert!(ir.len() >= vals.len(), "input row shorter than vals");
                }
                // SAFETY: AVX2 verified at dispatch, AVX-512F by
                // `has_avx512`; lengths asserted.
                unsafe {
                    if x86::has_avx512() {
                        x86::qhead_row_512(acc, input, vals, e)
                    } else {
                        x86::qhead_row(acc, input, vals, e)
                    }
                }
            }

            fn qquantize_row(&self, src: &[f32], dst: &mut [i32], scale: f32, zp: i32) {
                assert!(src.len() >= dst.len(), "src shorter than dst");
                // SAFETY: features verified at dispatch; lengths asserted.
                unsafe { x86::qquantize_row(src, dst, scale, zp) }
            }

            fn wino_input_transform(&self, d: &[f32; 16]) -> [f32; 16] {
                // SAFETY: features verified at dispatch.
                unsafe { x86::wino_input_transform(d) }
            }

            fn wino_output_transform(&self, m: &[f32; 16]) -> [f32; 4] {
                // SAFETY: features verified at dispatch.
                unsafe { x86::wino_output_transform(m) }
            }

            fn wino_channel_reduce(
                &self,
                m_slab: &mut [f32],
                u: &[[f32; 16]],
                v_slab: &[f32],
                cout: usize,
                cin: usize,
            ) {
                assert!(m_slab.len() >= cout * 16, "m slab too short");
                assert!(v_slab.len() >= cin * 16, "v slab too short");
                assert!(u.len() >= cout * cin, "u tile table too short");
                // SAFETY: features verified at dispatch; lengths asserted.
                unsafe { x86::$madd_mod::wino_channel_reduce(m_slab, u, v_slab, cout, cin) }
            }

            fn wino_tile_row(
                &self,
                row: &WinoRow<'_>,
                scratch: &mut [f32],
                out: &mut [f32],
                ostride: usize,
            ) {
                check_wino_row(row, scratch, out, ostride);
                // SAFETY: the AVX2 features verified at dispatch, AVX-512F
                // by `has_avx512`; lengths checked.
                unsafe {
                    if x86::has_avx512() {
                        x86::$madd_mod::wino_tile_row_512(row, scratch, out, ostride)
                    } else {
                        x86::$madd_mod::wino_tile_row(row, scratch, out, ostride)
                    }
                }
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
avx2_trait_impl!(Avx2Kernel, KernelVariant::Avx2, two_round);
#[cfg(target_arch = "x86_64")]
avx2_trait_impl!(Avx2FmaKernel, KernelVariant::Avx2Fma, fused);

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded(n: usize, seed: u64) -> Vec<f32> {
        crate::Tensor::randn(&[n.max(1)], 0.0, 1.0, seed).into_vec()[..n].to_vec()
    }

    /// Rough per-kernel GFLOP/s probe for hand-tuning; run with
    /// `cargo test --release -- --ignored --nocapture kernel_throughput`.
    #[test]
    #[ignore]
    fn kernel_throughput_probe() {
        use std::time::Instant;
        let mk = default_microkernel();
        println!("variant: {}", mk.variant().name());
        // conv_taps4, every body: the m5 x2 head at 640 columns — 4 output
        // channels, 16 x 5 x 5 = 400 taps over 5 padded rows per input
        // channel, run as the planner does: a 256-tap k-block, then an
        // accumulating 144-tap one — and the first layer's 25 taps.
        let (n, kw) = (640usize, 5usize);
        let stride = n + kw - 1;
        let mut acc = seeded(4 * n, 3);
        for (layer, nt, reps) in [("head", 400usize, 1000), ("first", 25, 10_000)] {
            let ws = seeded(4 * nt, 1);
            let offs: Vec<usize> = (0..nt).map(|p| (p / kw) * stride + p % kw).collect();
            let src = seeded(nt / kw * stride, 2);
            let k0 = nt.min(256);
            for (name, _, body) in conv_taps4_bodies() {
                let t0 = Instant::now();
                for _ in 0..reps {
                    body(&mut acc, n, &ws[..4 * k0], &offs[..k0], &src, false);
                    if nt > k0 {
                        body(&mut acc, n, &ws[4 * k0..], &offs[k0..], &src, true);
                    }
                }
                let el = t0.elapsed().as_secs_f64();
                println!(
                    "conv_taps4 ({name}) {layer} 4x{nt}x{n}: {:.1} GMAC/s",
                    (4.0 * nt as f64 * n as f64 * reps as f64) / el / 1e9
                );
            }
        }
        // wino_channel_reduce: 16x16 channels (the m5 feature layers).
        let (cout, cin) = (16usize, 16usize);
        let uflat = seeded(cout * cin * 16, 4);
        let u: Vec<[f32; 16]> = uflat
            .chunks_exact(16)
            .map(|c| c.try_into().unwrap())
            .collect();
        let v = seeded(cin * 16, 5);
        let mut m = vec![0.0f32; cout * 16];
        let reps = 100_000;
        let t0 = Instant::now();
        for _ in 0..reps {
            mk.wino_channel_reduce(&mut m, &u, &v, cout, cin);
        }
        let el = t0.elapsed().as_secs_f64();
        println!(
            "wino_channel_reduce {}x{}: {:.1} GFLOP/s",
            cout,
            cin,
            (2.0 * cout as f64 * cin as f64 * 16.0 * reps as f64) / el / 1e9
        );
        // qmadd_taps4: an m5 3x3 body layer's row at 320 columns — 4
        // output channels, 4 input channel quads x 3 x 3 = 36 packed taps,
        // rows `pw` apart inside planes of three padded rows.
        let (nt, n, pw) = (36usize, 320usize, 324usize);
        let offs: Vec<usize> = (0..nt)
            .map(|t| (t / 9) * 3 * pw + (t % 9 / 3) * pw + t % 3)
            .collect();
        let byte = |i: usize| (i.wrapping_mul(2_654_435_761) >> 7) as u8;
        let word = |i: usize| {
            i32::from_le_bytes([
                byte(4 * i),
                byte(4 * i + 1),
                byte(4 * i + 2),
                byte(4 * i + 3),
            ])
        };
        let qsrc: Vec<i32> = (0..4 * 3 * pw).map(word).collect();
        let qws: Vec<i32> = (0..4 * nt).map(|i| word(i + 99_991)).collect();
        let mut qacc = vec![0i32; 4 * n];
        let reps = 20_000;
        // Every body this CPU runs, not just the one the dispatch picks
        // (`int8_body` names that one).
        println!("qmadd_taps4 dispatches to {}", mk.int8_body());
        for (name, body) in int8_bodies() {
            let t0 = Instant::now();
            for _ in 0..reps {
                body(&mut qacc, n, &qws, &offs, &qsrc, [1, 2, 3, 4]);
            }
            let el = t0.elapsed().as_secs_f64();
            println!(
                "qmadd_taps4 ({name}) 4x{nt}x{n}: {:.1} GMAC/s (int8 MACs, four per packed tap)",
                (4.0 * 4.0 * nt as f64 * n as f64 * reps as f64) / el / 1e9
            );
        }
        // qrequant_pack_row: the same group's epilogue, four PReLU
        // channels requantized and packed into one row of words.
        let es = [0.01f32, 0.02, 0.03, 0.04].map(|s| QuantEpilogue {
            scale_io: s * 1e-3,
            bias: 0.1,
            act: RowAct::PRelu(0.25),
            out_scale: 0.02,
            zero_point: 17,
        });
        let mut words = vec![0i32; n];
        let t0 = Instant::now();
        for _ in 0..reps {
            mk.qrequant_pack_row(&qacc, &es, &mut words);
        }
        let el = t0.elapsed().as_secs_f64();
        println!(
            "qrequant_pack_row 4x{}: {:.2} ns/level",
            n,
            el * 1e9 / (4.0 * n as f64 * reps as f64)
        );
        // wino_tile_row, every body: one m5 body layer, 16 -> 16 channels
        // over a 360x640 plane — 180 tile rows of 320 tiles — as the
        // planner runs it (split and epilogue excluded). The reduction
        // does 16 * cin * cout MACs per tile.
        let (cin, cout, tiles, trows) = (16usize, 16usize, 320usize, 180usize);
        let sw = tiles + 1;
        let rows: Vec<Vec<f32>> = (0..4).map(|r| seeded(cin * 2 * sw, 6 + r)).collect();
        let tiles_u: Vec<[f32; 16]> = (0..cout * cin)
            .map(|i| seeded(16, 10 + i as u64).try_into().unwrap())
            .collect();
        let packed = wino_pack_u(&tiles_u, cout, cin);
        let row = WinoRow {
            rows: [&rows[0], &rows[1], &rows[2], &rows[3]],
            sw,
            tiles,
            u: &packed,
            cin,
            cout,
        };
        let mut scratch = vec![0.0f32; wino_scratch_len(cin)];
        let mut out = vec![0.0f32; 2 * cout * 2 * tiles];
        let reps = 10;
        for (name, _, body) in wino_tile_row_bodies() {
            let t0 = Instant::now();
            for _ in 0..reps * trows {
                body(&row, &mut scratch, &mut out, 2 * tiles);
            }
            let el = t0.elapsed().as_secs_f64() / reps as f64;
            println!(
                "wino_tile_row ({name}) {cout}x{cin} 360x640: {:.3} ms/layer, reduce {:.1} GMAC/s",
                el * 1e3,
                ((cin * cout * 16 * tiles * trows) as f64) / el / 1e9
            );
        }
        // epilogue_row and split_row: one 640-column row of a body layer's
        // output (PReLU, the feature residual, written to a ring row) and
        // one input row split for the tile row.
        let (n, reps) = (640usize, 200_000);
        let (mut raw, first) = (seeded(n, 20), seeded(n, 21));
        let mut ring = vec![0.0f32; n];
        let e = RowEpilogue {
            bias: 0.1,
            act: RowAct::PRelu(0.25),
            double: false,
            first: Some(&first),
            input: None,
        };
        let t0 = Instant::now();
        for _ in 0..reps {
            epilogue_row(&mut raw, Some(&mut ring), &e);
        }
        let el = t0.elapsed().as_secs_f64();
        println!(
            "epilogue_row {n}: {:.3} ns/element",
            el * 1e9 / (n * reps) as f64
        );
        let mut halves = vec![0.0f32; 2 * (n / 2 + 1)];
        let t0 = Instant::now();
        for _ in 0..reps {
            split_row(&mut halves, &raw);
        }
        let el = t0.elapsed().as_secs_f64();
        println!(
            "split_row {n}: {:.3} ns/element",
            el * 1e9 / (n * reps) as f64
        );
        assert!(acc[0].is_finite() && m[0].is_finite() && out[0].is_finite());
        std::hint::black_box((&qacc, &words, &ring, &halves));
    }

    /// Variants whose arithmetic must equal scalar bit-for-bit.
    fn two_round_variants() -> Vec<KernelVariant> {
        detected_variants()
            .iter()
            .copied()
            .filter(|v| !v.fused_madd())
            .collect()
    }

    #[test]
    fn scalar_is_always_detected_and_first() {
        let vs = detected_variants();
        assert_eq!(vs[0], KernelVariant::Scalar);
        assert!(KernelVariant::Scalar.available());
    }

    #[test]
    fn names_round_trip() {
        for v in [
            KernelVariant::Scalar,
            KernelVariant::Avx2,
            KernelVariant::Avx2Fma,
        ] {
            assert_eq!(KernelVariant::parse(v.name()), Some(v));
        }
        assert_eq!(KernelVariant::parse("mmx"), None);
    }

    #[test]
    fn set_variant_returns_previous_and_degrades() {
        let _guard = variant_test_lock();
        let base = kernel_variant();
        let prev = set_kernel_variant(KernelVariant::Scalar);
        assert_eq!(prev, base);
        assert_eq!(kernel_variant(), KernelVariant::Scalar);
        // Avx2 is unavailable under force-scalar and off x86: requesting
        // it must degrade to the best available variant, not panic.
        set_kernel_variant(KernelVariant::Avx2);
        assert!(kernel_variant().available());
        if KernelVariant::Avx2.available() {
            assert_eq!(kernel_variant(), KernelVariant::Avx2);
        }
        set_kernel_variant(base);
    }

    #[test]
    fn unavailable_variant_dispatches_to_available_kernel() {
        // Under force-scalar (or off x86) Avx2 is unavailable and must
        // dispatch to the scalar kernel; where it runs, to itself.
        let mk = microkernel(KernelVariant::Avx2);
        assert!(mk.variant().available());
        if !KernelVariant::Avx2.available() {
            assert_eq!(mk.variant(), KernelVariant::Scalar);
        }
    }

    #[test]
    fn gemm_tile_two_round_variants_match_scalar_bitwise() {
        for kc in [1usize, 2, 7, 64, 256] {
            let a = seeded(kc * 8, 11 + kc as u64);
            let b = seeded(kc * 8, 23 + kc as u64);
            let mut want = [[0.1f32; 8]; 8];
            microkernel(KernelVariant::Scalar).gemm_8x8(&a, &b, kc, &mut want);
            for v in two_round_variants() {
                let mut got = [[0.1f32; 8]; 8];
                microkernel(v).gemm_8x8(&a, &b, kc, &mut got);
                for i in 0..8 {
                    for j in 0..8 {
                        assert_eq!(
                            want[i][j].to_bits(),
                            got[i][j].to_bits(),
                            "{} kc={kc} ({i},{j})",
                            v.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fma_gemm_tile_is_close_and_self_consistent() {
        if !KernelVariant::Avx2Fma.available() {
            return;
        }
        let kc = 96;
        let a = seeded(kc * 8, 31);
        let b = seeded(kc * 8, 37);
        let mut sc = [[0.0f32; 8]; 8];
        microkernel(KernelVariant::Scalar).gemm_8x8(&a, &b, kc, &mut sc);
        let mut f1 = [[0.0f32; 8]; 8];
        let mut f2 = [[0.0f32; 8]; 8];
        let mk = microkernel(KernelVariant::Avx2Fma);
        mk.gemm_8x8(&a, &b, kc, &mut f1);
        mk.gemm_8x8(&a, &b, kc, &mut f2);
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(f1[i][j].to_bits(), f2[i][j].to_bits(), "not deterministic");
                assert!(
                    (f1[i][j] - sc[i][j]).abs() < 1e-3 * (kc as f32).sqrt(),
                    "fma too far from scalar at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn conv_taps4_matches_sequential_axpy_per_variant() {
        // Each channel row must equal T successive axpy calls of the same
        // variant onto a zeroed row — written, or added to the old row
        // when accumulating (the direct convolution's k-block contract).
        for v in detected_variants().iter().copied() {
            let mk = microkernel(v);
            for (n, t, rows) in [
                (1usize, 1usize, 1usize),
                (7, 3, 2),
                (33, 5, 4),
                (64, 25, 3),
                (100, 2, 4),
            ] {
                let ws = seeded(4 * t, 41 + n as u64);
                let src = seeded(n + 3 * t, 100 + n as u64);
                let offs: Vec<usize> = (0..t).map(|i| 3 * i).collect();
                let old = seeded(rows * n, 7);
                for accumulate in [false, true] {
                    let mut got = old.clone();
                    mk.conv_taps4(&mut got, n, &ws, &offs, &src, accumulate);
                    for c in 0..rows {
                        let mut chain = vec![0.0f32; n];
                        for (i, &off) in offs.iter().enumerate() {
                            mk.axpy(&mut chain, &src[off..off + n], ws[4 * i + c]);
                        }
                        for x in 0..n {
                            let want = if accumulate {
                                old[c * n + x] + chain[x]
                            } else {
                                chain[x]
                            };
                            assert_eq!(
                                want.to_bits(),
                                got[c * n + x].to_bits(),
                                "{} n={n} t={t} c={c} x={x} accumulate={accumulate}",
                                v.name()
                            );
                        }
                    }
                }
            }
        }
    }

    /// Packs four lanes into one word the way the quantized executor does:
    /// `u8` levels or `i8` weights, lane `b` in byte `b`.
    fn quad(lanes: [i32; 4]) -> i32 {
        i32::from_le_bytes(lanes.map(|v| v as u8))
    }

    #[test]
    fn qmadd_taps4_known_answer() {
        // Two taps over two rows, seeded; levels are unsigned (200 and 255
        // must not read as negative), weights signed, and the rows are
        // overwritten, not accumulated. Tap 0 reads (5, 200, 0, 255), tap
        // 1 reads (1, 2, 3, 4); channel 0 weighs them (2, -1, 7, 1) and
        // (1, 1, 1, 1) from seed 100, channel 1 (-3, 0, 0, -2) and (0, 0,
        // 0, 127) from seed -7; channels 2 and 3 are padding.
        let src = [quad([5, 200, 0, 255]), quad([1, 2, 3, 4])];
        let ws = [
            quad([2, -1, 7, 1]),
            quad([-3, 0, 0, -2]),
            0,
            0,
            quad([1, 1, 1, 1]),
            quad([0, 0, 0, 127]),
            0,
            0,
        ];
        for &v in detected_variants() {
            let mut acc = [99i32, 99];
            microkernel(v).qmadd_taps4(&mut acc, 1, &ws, &[0, 1], &src, [100, -7, 5, 5]);
            assert_eq!(acc, [100 + 65 + 10, -7 - 525 + 508], "{}", v.name());
        }
    }

    #[test]
    fn qmadd_taps4_names_its_integer_body() {
        assert_eq!(microkernel(KernelVariant::Scalar).int8_body(), "scalar");
        let bodies: Vec<&str> = int8_bodies().iter().map(|&(name, _)| name).collect();
        assert_eq!(bodies[0], "scalar");
        for &v in detected_variants() {
            let body = microkernel(v).int8_body();
            assert!(bodies.contains(&body), "{body} not in {bodies:?}");
        }
    }

    /// A deterministic stream of integers in `[-m, m]`.
    fn draws(seed: u64) -> impl FnMut(i32) -> i32 {
        let mut state = seed;
        move |m: i32| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as i32 % (2 * m + 1)) - m
        }
    }

    /// Four channels' epilogue constants over one zero point and
    /// activation: channel 0 lands odd accumulators exactly on `x.5` ties
    /// (`scale_io` 1 against `out_scale` 2), the others mix scales and
    /// zero points.
    fn group_epilogues(zp: i32, act: RowAct, out_scale: f32) -> [QuantEpilogue; 4] {
        let e = |scale_io: f32, bias: f32, out_scale: f32, zero_point: i32| QuantEpilogue {
            scale_io,
            bias,
            act,
            out_scale,
            zero_point,
        };
        [
            e(1.0, 0.25, 2.0, zp),
            e(3.1e-4, -0.125, out_scale, zp),
            e(2.7e-3, 0.5, out_scale, 255 - zp),
            e(1.9e-5, 0.0, 0.0173, (zp + 97) % 256),
        ]
    }

    /// Adversarial epilogue sweep: every variant's requantization row ops
    /// must equal the scalar reference bit for bit — at every group width
    /// 1 to 4, including round half-ties, clamp saturation from huge
    /// accumulators, zero-point extremes, PRelu with negative slopes, tiny
    /// negative values whose rounding produces `-0.0`, and stored levels
    /// on both rails.
    #[test]
    fn quant_epilogues_match_scalar_exactly_for_all_variants() {
        let mut next = draws(0x8091_A2B3_C4D5_E6F7);
        let sc = microkernel(KernelVariant::Scalar);
        let first_wire = QuantWire {
            scale: 0.021,
            zero_point: 116,
        };
        let wide = QuantWire {
            scale: 0.044,
            zero_point: 3,
        };
        for n in [1usize, 5, 8, 13, 24, 100] {
            for (zp, out_scale) in [(0i32, 2.0f32), (128, 0.0173), (255, 0.5), (37, 3.25e-3)] {
                for act in [
                    RowAct::Linear,
                    RowAct::Relu,
                    RowAct::PRelu(-0.7),
                    RowAct::PRelu(0.4),
                ] {
                    let es = group_epilogues(zp, act, out_scale);
                    // Mix huge magnitudes (clamp saturation on both
                    // sides) with small ones (tie and -0.0 territory).
                    let acc: Vec<i32> = (0..4 * n)
                        .map(|i| if i % 3 == 0 { next(2_000_000) } else { next(7) })
                        .collect();
                    let first: Vec<i32> = (0..n)
                        .map(|_| quad([0, 255, next(127) + 128, next(127) + 128]))
                        .collect();
                    let input_wire = QuantWire {
                        scale: 0.013,
                        zero_point: zp,
                    };
                    let floats: Vec<f32> = (0..n).map(|_| next(1000) as f32 * 0.37e-2).collect();
                    let run = |mk: &dyn Microkernel, lanes: usize| {
                        let es = &es[..lanes];
                        let (mut q, mut r) = (vec![0i32; n], vec![0i32; n]);
                        mk.qrequant_pack_row(&acc, es, &mut q);
                        mk.qresidual_pack_row(&acc, es, &first, &mut r, first_wire, wide);
                        let (mut hd, mut plain) = (vec![0f32; n], vec![0f32; n]);
                        mk.qhead_row(&acc, Some((&first, input_wire)), &mut hd, &es[0]);
                        mk.qhead_row(&acc[n..], None, &mut plain, &es[lanes - 1]);
                        let mut quant = vec![0i32; n];
                        mk.qquantize_row(&floats, &mut quant, 0.01937, zp);
                        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        (q, r, bits(&hd), bits(&plain), quant)
                    };
                    for lanes in 1..=4 {
                        let want = run(sc, lanes);
                        for &v in detected_variants() {
                            let got = run(microkernel(v), lanes);
                            assert!(
                                got == want,
                                "variant {} n={n} zp={zp} act={act:?} lanes={lanes}",
                                v.name()
                            );
                        }
                    }
                }
            }
        }
    }

    /// Both x86 bodies of the three fused int8 epilogues — the 8-lane
    /// AVX2 one and the 16-lane AVX-512 one, called directly whichever the
    /// trait would pick here — equal the scalar chain bit for bit at every
    /// length 1..=40 (full vectors, masked and scalar tails), on clamp
    /// saturation, half-ties and `-0.0`.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn int8_epilogue_bodies_match_scalar_exactly() {
        if !is_x86_feature_detected!("avx2") {
            return;
        }
        let mut next = draws(0x1234_5678_9ABC_DEF1);
        let first_wire = QuantWire {
            scale: 0.021,
            zero_point: 116,
        };
        let wide = QuantWire {
            scale: 0.044,
            zero_point: 200,
        };
        let input_wire = QuantWire {
            scale: 0.013,
            zero_point: 9,
        };
        for n in 1..=40usize {
            for (zp, act) in [
                (0, RowAct::Linear),
                (128, RowAct::Relu),
                (37, RowAct::PRelu(-0.7)),
            ] {
                let es = group_epilogues(zp, act, 0.0173);
                let acc: Vec<i32> = (0..4 * n)
                    .map(|i| if i % 3 == 0 { next(2_000_000) } else { next(7) })
                    .collect();
                let first: Vec<i32> = (0..n)
                    .map(|_| quad([next(127) + 128, next(127) + 128, 0, 255]))
                    .collect();
                let mut want = vec![0i32; n];
                scalar::qrequant_pack_row(&acc, &es, &mut want);
                let mut want_res = vec![0i32; n];
                scalar::qresidual_pack_row(&acc, &es, &first, &mut want_res, first_wire, wide);
                let mut want_head = vec![0f32; n];
                scalar::qhead_row(&acc, Some((&first, input_wire)), &mut want_head, &es[0]);
                let want_head: Vec<u32> = want_head.iter().map(|x| x.to_bits()).collect();
                for wide_body in [false, true] {
                    if wide_body && !x86::has_avx512() {
                        continue;
                    }
                    let ctx = format!("n={n} zp={zp} act={act:?} avx512={wide_body}");
                    let (mut got, mut got_res, mut got_head) =
                        (vec![0i32; n], vec![0i32; n], vec![0f32; n]);
                    // SAFETY: AVX2 detected above, AVX-512F by has_avx512
                    // for the wide bodies; `acc` holds four rows of n and
                    // every other source is n long.
                    unsafe {
                        if wide_body {
                            x86::qrequant_pack_row_512(&acc, &es, &mut got);
                            x86::qresidual_pack_row_512(
                                &acc,
                                &es,
                                &first,
                                &mut got_res,
                                first_wire,
                                wide,
                            );
                            x86::qhead_row_512(
                                &acc,
                                Some((&first, input_wire)),
                                &mut got_head,
                                &es[0],
                            );
                        } else {
                            x86::qrequant_pack_row(&acc, &es, &mut got);
                            x86::qresidual_pack_row(
                                &acc,
                                &es,
                                &first,
                                &mut got_res,
                                first_wire,
                                wide,
                            );
                            x86::qhead_row(&acc, Some((&first, input_wire)), &mut got_head, &es[0]);
                        }
                    }
                    assert_eq!(got, want, "qrequant_pack_row {ctx}");
                    assert_eq!(got_res, want_res, "qresidual_pack_row {ctx}");
                    let got_head: Vec<u32> = got_head.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(got_head, want_head, "qhead_row {ctx}");
                }
            }
        }
    }

    #[test]
    fn axpy_two_round_variants_match_scalar_bitwise() {
        for n in [1usize, 5, 8, 17, 64, 129] {
            let src = seeded(n, 3 + n as u64);
            let mut want = seeded(n, 5);
            microkernel(KernelVariant::Scalar).axpy(&mut want, &src, 0.37);
            for v in two_round_variants() {
                let mut got = seeded(n, 5);
                microkernel(v).axpy(&mut got, &src, 0.37);
                assert_eq!(
                    want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "{} n={n}",
                    v.name()
                );
            }
        }
    }

    #[test]
    fn wino_transforms_match_scalar_bitwise_for_all_variants() {
        // Transforms are pure add/sub: exact for every variant, fused or
        // not.
        for seed in 0..8u64 {
            let d: [f32; 16] = seeded(16, 60 + seed).try_into().unwrap();
            let want_in = crate::winograd::input_transform(&d);
            let want_out = crate::winograd::output_transform(&d);
            for v in detected_variants().iter().copied() {
                let mk = microkernel(v);
                let got_in = mk.wino_input_transform(&d);
                let got_out = mk.wino_output_transform(&d);
                for k in 0..16 {
                    assert_eq!(want_in[k].to_bits(), got_in[k].to_bits(), "{}", v.name());
                }
                for k in 0..4 {
                    assert_eq!(want_out[k].to_bits(), got_out[k].to_bits(), "{}", v.name());
                }
            }
        }
    }

    #[test]
    fn wino_channel_reduce_two_round_matches_scalar_bitwise() {
        for (cout, cin) in [(1usize, 1usize), (4, 3), (16, 16), (5, 7), (3, 16)] {
            let u: Vec<[f32; 16]> = (0..cout * cin)
                .map(|i| seeded(16, 200 + i as u64).try_into().unwrap())
                .collect();
            let v_slab = seeded(cin * 16, 300 + (cout * cin) as u64);
            let mut want = vec![0.0f32; cout * 16];
            microkernel(KernelVariant::Scalar)
                .wino_channel_reduce(&mut want, &u, &v_slab, cout, cin);
            for v in two_round_variants() {
                let mut got = vec![1.0f32; cout * 16];
                microkernel(v).wino_channel_reduce(&mut got, &u, &v_slab, cout, cin);
                assert_eq!(
                    want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "{} {cout}x{cin}",
                    v.name()
                );
            }
        }
    }

    #[test]
    fn fma_scalar_remainder_matches_vector_lanes() {
        // One value processed in a vector lane (index 0 of a 9-long
        // buffer) and the same value in the scalar remainder (index 8)
        // must round identically under the fused variant.
        if !KernelVariant::Avx2Fma.available() {
            return;
        }
        let mk = microkernel(KernelVariant::Avx2Fma);
        let val = 3.000_000_4f32;
        let mut acc = vec![-3.0f32; 9];
        let src = vec![val; 9];
        mk.axpy(&mut acc, &src, 1.000_000_1);
        assert_eq!(acc[0].to_bits(), acc[8].to_bits());
        assert_eq!(
            acc[0].to_bits(),
            1.000_000_1f32.mul_add(val, -3.0).to_bits()
        );
    }
}
