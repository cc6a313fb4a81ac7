//! Property-based identity sweep for the SIMD microkernels.
//!
//! Every detected variant is checked bitwise against a reference chain
//! built from the documented per-element contract: non-fusing variants
//! (`scalar`, `avx2`, the NEON stub) must match the two-rounding chain
//! `c + a*b`, the fusing variant (`avx2fma`) must match the
//! single-rounding chain `a.mul_add(b, c)` — same taps, same ascending
//! order, only the rounding of the multiply-add pair differs. Pure
//! add/sub kernels (the Winograd transforms) must be bit-identical across
//! *all* variants.
//!
//! The f32 `*_bodies_*` tests call every body of the f32 plan's two
//! compute kernels this CPU can run directly — `conv_taps4` at 8 and 16
//! lanes, `wino_tile_row` with its 4x2 and 8x2 register blocks, each madd
//! flavor — whichever one the dispatch picks, so they cover the SIMD
//! bodies under `force-scalar` too.
//!
//! Shapes, lengths, slice offsets (alignment), and remainder columns are
//! all drawn randomly, so the vector-body/remainder seams of the AVX2
//! kernels are exercised at every width. On a machine without AVX2 (or
//! under `--features force-scalar`) `detected_variants()` is just
//! `[scalar]` and the sweep degenerates to checking the reference against
//! itself — the CI scalar leg still compiles and runs every property.
//!
//! The autotuner properties pin the other satellite guarantee: `pick` is
//! a pure function of the measured costs (argmin, first-index tiebreak),
//! so a pinned measurement sequence yields a pinned choice.

use proptest::prelude::*;
use sesr_tensor::autotune::{gemm_blocking_with, pick, GemmBlocking};
use sesr_tensor::simd::{
    conv_taps4_bodies, detected_variants, epilogue_row, int8_bodies, microkernel, wino_pack_u,
    wino_scratch_len, wino_tile_row_bodies, KernelVariant, Microkernel, QuantEpilogue, QuantWire,
    RowAct, RowEpilogue, WinoRow,
};
use sesr_tensor::winograd::{input_transform, output_transform};

/// One multiply-add with the variant's documented rounding behavior.
fn madd(fused: bool, a: f32, b: f32, c: f32) -> f32 {
    if fused {
        a.mul_add(b, c)
    } else {
        c + a * b
    }
}

/// Element values including exact zeros of both signs (ReLU boundaries,
/// padding) alongside the generic range.
fn elem() -> impl Strategy<Value = f32> {
    prop_oneof![
        8 => -2.0f32..2.0,
        1 => Just(0.0f32),
        1 => Just(-0.0f32),
    ]
}

fn buf(n: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(elem(), n)
}

fn row_act() -> impl Strategy<Value = RowAct> {
    prop_oneof![
        Just(RowAct::Linear),
        Just(RowAct::Relu),
        (-1.5f32..1.5).prop_map(RowAct::PRelu),
    ]
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The per-tile Winograd pipeline a `wino_tile_row` body must reproduce:
/// gather each tile's 4x4 window from the split rows, the scalar input
/// transform (pure add/sub, so exact on every variant), the channel
/// reduction as chains from `+0.0` with `cc` ascending in the body's madd
/// flavor, then the scalar output transform, written at `ostride`.
fn wino_oracle(row: &WinoRow<'_>, u: &[[f32; 16]], fused: bool, ostride: usize) -> Vec<f32> {
    let WinoRow {
        rows,
        sw,
        tiles,
        cin,
        cout,
        ..
    } = *row;
    let mut out = vec![f32::NAN; 2 * cout * ostride];
    let mut v = vec![[0.0f32; 16]; cin];
    for t in 0..tiles {
        for (cc, vc) in v.iter_mut().enumerate() {
            let mut d = [0.0f32; 16];
            for (r, src) in rows.iter().enumerate() {
                let (e, o) = (cc * 2 * sw + t, cc * 2 * sw + sw + t);
                d[4 * r..4 * r + 4].copy_from_slice(&[src[e], src[o], src[e + 1], src[o + 1]]);
            }
            *vc = input_transform(&d);
        }
        for oo in 0..cout {
            let mut m = [0.0f32; 16];
            for (cc, vc) in v.iter().enumerate() {
                for k in 0..16 {
                    m[k] = madd(fused, u[oo * cin + cc][k], vc[k], m[k]);
                }
            }
            let y = output_transform(&m);
            for dy in 0..2 {
                let at = (2 * oo + dy) * ostride + 2 * t;
                out[at..at + 2].copy_from_slice(&y[2 * dy..2 * dy + 2]);
            }
        }
    }
    out
}

/// The epilogue as the separate per-op row passes it replaced: `+ bias`
/// and the activation, the doubled write, the feature residual, then the
/// input residual.
fn per_op_chain(row: &[f32], e: &RowEpilogue<'_>) -> Vec<f32> {
    let mut r: Vec<f32> = row
        .iter()
        .map(|&v| {
            let t = v + e.bias;
            match e.act {
                RowAct::Linear => t,
                RowAct::Relu => t.max(0.0),
                RowAct::PRelu(a) => {
                    if t >= 0.0 {
                        t
                    } else {
                        a * t
                    }
                }
            }
        })
        .collect();
    if e.double {
        for v in r.iter_mut() {
            *v += *v;
        }
    }
    for residual in [e.first, e.input].into_iter().flatten() {
        for (v, &o) in r.iter_mut().zip(residual) {
            *v += o;
        }
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The 8x8 GEMM register tile equals the reference rank-1-update
    /// chain (p ascending, accumulator carried across p) for every
    /// variant, at random depths including non-multiple-of-4 remainders.
    #[test]
    fn gemm_tile_matches_reference_chain(
        kc in 1usize..48,
        seed_a in buf(48 * 8),
        seed_b in buf(48 * 8),
        init in buf(64),
    ) {
        let apanel = &seed_a[..kc * 8];
        let bstrip = &seed_b[..kc * 8];
        for &v in detected_variants() {
            let mut acc = [[0.0f32; 8]; 8];
            let mut want = [[0.0f32; 8]; 8];
            for i in 0..8 {
                for j in 0..8 {
                    acc[i][j] = init[i * 8 + j];
                    want[i][j] = init[i * 8 + j];
                }
            }
            microkernel(v).gemm_8x8(apanel, bstrip, kc, &mut acc);
            let fused = v.fused_madd();
            for p in 0..kc {
                for i in 0..8 {
                    for j in 0..8 {
                        want[i][j] =
                            madd(fused, apanel[p * 8 + i], bstrip[p * 8 + j], want[i][j]);
                    }
                }
            }
            for i in 0..8 {
                prop_assert_eq!(
                    bits(&acc[i]), bits(&want[i]),
                    "gemm_8x8 row {} diverged on {}", i, v.name()
                );
            }
        }
    }

    /// `axpy` equals the reference chain at every length and slice
    /// offset (the offset shifts the 32-byte alignment of both slices,
    /// covering unaligned loads and every remainder width).
    #[test]
    fn axpy_matches_reference_chain(
        len in 0usize..130,
        off in 0usize..8,
        acc0 in buf(138),
        src in buf(138),
        c in elem(),
    ) {
        for &v in detected_variants() {
            let mut acc = acc0.clone();
            microkernel(v).axpy(&mut acc[off..off + len], &src[off..off + len], c);
            let mut want = acc0.clone();
            let fused = v.fused_madd();
            for x in 0..len {
                want[off + x] = madd(fused, c, src[off + x], want[off + x]);
            }
            prop_assert_eq!(bits(&acc), bits(&want), "axpy diverged on {}", v.name());
        }
    }

    /// `conv_taps4` keeps the documented contract: each of its 1–4
    /// channel rows is bit-identical to `offs.len()` successive `axpy`
    /// calls of the *same* variant onto a zeroed row, then written or
    /// added to the old row — at ragged lengths (every vector-body /
    /// remainder seam) and arbitrary, unordered tap offsets.
    #[test]
    fn conv_taps4_equals_sequential_axpy(
        len in 1usize..100,
        nt in 1usize..12,
        rows in 1usize..5,
        accumulate in any::<bool>(),
        offs in proptest::collection::vec(0usize..40, 12),
        acc0 in buf(400),
        ws in buf(48),
        src in buf(140),
    ) {
        let offs = &offs[..nt];
        for &v in detected_variants() {
            let mk = microkernel(v);
            let mut got = acc0[..rows * len].to_vec();
            mk.conv_taps4(&mut got, len, &ws[..4 * nt], offs, &src, accumulate);
            for c in 0..rows {
                let mut chain = vec![0.0f32; len];
                for (t, &off) in offs.iter().enumerate() {
                    mk.axpy(&mut chain, &src[off..off + len], ws[4 * t + c]);
                }
                let old = &acc0[c * len..(c + 1) * len];
                let want: Vec<f32> = if accumulate {
                    old.iter().zip(&chain).map(|(a, s)| a + s).collect()
                } else {
                    chain
                };
                prop_assert_eq!(
                    bits(&got[c * len..(c + 1) * len]), bits(&want),
                    "conv_taps4 row {} != sequential axpy on {}", c, v.name()
                );
            }
        }
    }

    /// The Winograd input/output transforms are pure add/sub and must be
    /// bit-identical across ALL variants, fused or not.
    #[test]
    fn wino_transforms_identical_across_variants(d in buf(16), m in buf(16)) {
        let d: [f32; 16] = d.try_into().unwrap();
        let m: [f32; 16] = m.try_into().unwrap();
        let vin = microkernel(KernelVariant::Scalar).wino_input_transform(&d);
        let vout = microkernel(KernelVariant::Scalar).wino_output_transform(&m);
        for &v in detected_variants() {
            prop_assert_eq!(
                bits(&microkernel(v).wino_input_transform(&d)), bits(&vin),
                "input transform diverged on {}", v.name()
            );
            prop_assert_eq!(
                bits(&microkernel(v).wino_output_transform(&m)), bits(&vout),
                "output transform diverged on {}", v.name()
            );
        }
    }

    /// `wino_tile_row` equals the per-tile pipeline of the same variant —
    /// gather each tile's window from the split rows, then
    /// `wino_input_transform`, `wino_channel_reduce` and
    /// `wino_output_transform` — bit for bit, at tile counts that cross
    /// the 32-tile chunk and every vector seam, 1–20 output channels (every
    /// 4- and 8-channel register block and their tails), slack past the
    /// split halves, and signed zeros.
    #[test]
    fn wino_tile_row_matches_per_tile_pipeline(
        tiles in 1usize..80,
        slack in 1usize..4,
        cin in 1usize..7,
        cout in 1usize..21,
        rseed in buf(4 * 6 * 2 * 83),
        useed in buf(20 * 6 * 16),
    ) {
        let sw = tiles + slack;
        let len = cin * 2 * sw;
        let rows: Vec<&[f32]> = (0..4).map(|r| &rseed[r * len..(r + 1) * len]).collect();
        let u: Vec<[f32; 16]> = (0..cout * cin)
            .map(|t| useed[t * 16..t * 16 + 16].try_into().unwrap())
            .collect();
        let packed = wino_pack_u(&u, cout, cin);
        let row = WinoRow {
            rows: [rows[0], rows[1], rows[2], rows[3]],
            sw,
            tiles,
            u: &packed,
            cin,
            cout,
        };
        let ostride = 2 * tiles + slack;
        for &v in detected_variants() {
            let mk = microkernel(v);
            let mut want = vec![f32::NAN; 2 * cout * ostride];
            let (mut vt, mut m) = (vec![0.0f32; 16 * cin], vec![0.0f32; 16 * cout]);
            for t in 0..tiles {
                for cc in 0..cin {
                    let mut d = [0.0f32; 16];
                    for (r, src) in rows.iter().enumerate() {
                        let (e, o) = (cc * 2 * sw + t, cc * 2 * sw + sw + t);
                        d[4 * r..4 * r + 4]
                            .copy_from_slice(&[src[e], src[o], src[e + 1], src[o + 1]]);
                    }
                    vt[16 * cc..16 * cc + 16].copy_from_slice(&mk.wino_input_transform(&d));
                }
                mk.wino_channel_reduce(&mut m, &u, &vt, cout, cin);
                for oo in 0..cout {
                    let y = mk.wino_output_transform(m[16 * oo..16 * oo + 16].try_into().unwrap());
                    for dy in 0..2 {
                        let at = (2 * oo + dy) * ostride + 2 * t;
                        want[at..at + 2].copy_from_slice(&y[2 * dy..2 * dy + 2]);
                    }
                }
            }
            let mut got = vec![f32::NAN; 2 * cout * ostride];
            let mut scratch = vec![f32::NAN; wino_scratch_len(cin)];
            mk.wino_tile_row(&row, &mut scratch, &mut got, ostride);
            prop_assert_eq!(bits(&got), bits(&want), "wino_tile_row diverged on {}", v.name());
        }
    }

    /// The Winograd channel reduction equals the reference chain
    /// (channels ascending, 16 independent per-element chains starting
    /// at +0.0) for every variant and shape.
    #[test]
    fn wino_channel_reduce_matches_reference_chain(
        cout in 1usize..6,
        cin in 1usize..9,
        useed in buf(6 * 9 * 16),
        vseed in buf(9 * 16),
    ) {
        let u: Vec<[f32; 16]> = (0..cout * cin)
            .map(|t| useed[t * 16..t * 16 + 16].try_into().unwrap())
            .collect();
        let v_slab = &vseed[..cin * 16];
        for &v in detected_variants() {
            let mut m_slab = vec![f32::NAN; cout * 16]; // must be overwritten, not accumulated
            microkernel(v).wino_channel_reduce(&mut m_slab, &u, v_slab, cout, cin);
            let fused = v.fused_madd();
            let mut want = vec![0.0f32; cout * 16];
            for oo in 0..cout {
                for cc in 0..cin {
                    for k in 0..16 {
                        want[oo * 16 + k] =
                            madd(fused, u[oo * cin + cc][k], v_slab[cc * 16 + k], want[oo * 16 + k]);
                    }
                }
            }
            prop_assert_eq!(
                bits(&m_slab), bits(&want),
                "channel reduce diverged on {}", v.name()
            );
        }
    }

    /// The fused int8 epilogues (requantize-and-pack, the residual fuse,
    /// the head row) equal the scalar chain bit for bit on every variant
    /// at lengths 1..=40 and group widths 1 to 4 — the 16-lane bodies'
    /// full vectors and masked tails where AVX-512 runs, the 8-lane
    /// bodies' scalar tails where it does not — with stored levels and
    /// zero points anywhere in `[0, 255]`.
    #[test]
    fn int8_epilogues_match_scalar(
        n in 1usize..41,
        lanes in 1usize..5,
        zp in 0i32..256,
        first_zp in 0i32..256,
        wide_zp in 0i32..256,
        act in row_act(),
        out_scale in prop_oneof![Just(2.0f32), 0.002f32..0.5],
        accs in proptest::collection::vec(-3_000_000i32..3_000_000, 160),
        levels in proptest::collection::vec(0u8..=255, 160),
    ) {
        let es: Vec<QuantEpilogue> = (0..lanes)
            .map(|c| QuantEpilogue {
                scale_io: [1.0, 3.1e-4, 2.7e-3, 1.9e-5][c],
                bias: [0.25, -0.125, 0.5, 0.0][c],
                act,
                out_scale,
                zero_point: (zp + 61 * c as i32) % 256,
            })
            .collect();
        let acc = &accs[..4 * n];
        let first: Vec<i32> = levels[..4 * n]
            .chunks_exact(4)
            .map(|b| i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        let first_wire = QuantWire { scale: 0.021, zero_point: first_zp };
        let wide = QuantWire { scale: 0.044, zero_point: wide_zp };
        let run = |mk: &dyn Microkernel| {
            let (mut q, mut r, mut hd) = (vec![0i32; n], vec![0i32; n], vec![0f32; n]);
            mk.qrequant_pack_row(acc, &es, &mut q);
            mk.qresidual_pack_row(acc, &es, &first, &mut r, first_wire, wide);
            mk.qhead_row(acc, Some((&first, first_wire)), &mut hd, &es[0]);
            (q, r, bits(&hd))
        };
        let want = run(microkernel(KernelVariant::Scalar));
        for &v in detected_variants() {
            prop_assert_eq!(run(microkernel(v)), want.clone(), "int8 epilogue diverged on {}", v.name());
        }
    }

    /// `pick` is argmin with first-index tiebreak over the per-candidate
    /// minimum — a pure function of the measurement sequence, so the same
    /// costs always produce the same winner.
    #[test]
    fn pick_is_pure_argmin_of_measurements(
        costs in proptest::collection::vec(0u64..1000, 1..10),
        reps in 1usize..4,
    ) {
        let cands: Vec<usize> = (0..costs.len()).collect();
        let run = || pick(&cands, reps, |&c| costs[c]);
        let (w1, best1) = run();
        let (w2, best2) = run();
        prop_assert_eq!(w1, w2, "same measurements must pick the same winner");
        prop_assert_eq!(&best1, &best2);
        prop_assert_eq!(&best1, &costs, "constant measurer: best == cost table");
        for (i, &c) in costs.iter().enumerate() {
            let beats = c < costs[w1] || (c == costs[w1] && i < w1);
            prop_assert!(!beats, "candidate {} beats declared winner {}", i, w1);
        }
    }

    /// The GEMM blocking tuner is deterministic given the measurements:
    /// an injected cost model (pinned "seed") always yields the same
    /// clamped choice, across repeated calls and the cache-hit path.
    #[test]
    fn gemm_blocking_choice_is_deterministic(
        m in 32usize..128,
        n in 512usize..2048,
        bias in 0u64..100,
    ) {
        let k = 300usize;
        let model = move |b: &GemmBlocking| bias + b.nc as u64 + b.mc_blocks as u64 * 7;
        let first = gemm_blocking_with(m, k, n, model);
        let second = gemm_blocking_with(m, k, n, model);
        prop_assert_eq!(first, second);
        prop_assert!(first.nc >= 8 && first.nc % 8 == 0, "nc must be a clamped strip multiple");
        prop_assert!(first.mc_blocks >= 1);
    }
}

/// A deterministic stream of words: each call draws a fresh 64-bit LCG
/// state.
fn lcg(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 11
    }
}

/// The integer tap kernel's identity: every `qmadd_taps4` body this CPU
/// runs — scalar, the AVX2 split body, the AVX-512 VNNI body, whichever
/// the dispatch would pick (`int8_bodies`, so under `force-scalar` too) —
/// equals the scalar body bit for bit at every width 1..=70 (every
/// 32-column zmm block and masked tail, every 16- and 8-column ymm block
/// and scalar tail), 1 to 400 taps, 1 to 4 rows, and nonzero seeds, with
/// operands at the extremes: levels on the `{0, 255}` rails against
/// weights at `{-127, 127}` (all-max sums of both signs, then random
/// rails), and uniform bytes. A body that read levels as signed, or
/// saturated, would diverge on the rails.
#[test]
fn qmadd_taps4_bodies_match_scalar_at_the_extremes() {
    let bodies = int8_bodies();
    let mut next = lcg(0x9E37_79B9_7F4A_7C15);
    let max = 400 * 4 * 255 * 127;
    for n in 1..=70usize {
        let rows = 1 + n % 4;
        for nt in [1usize, 10, 36, 100, 400] {
            let offs: Vec<usize> = (0..nt).map(|t| (5 * t) % 97).collect();
            for mode in 0..4 {
                let mut level = || match mode {
                    0 | 1 => 255u8,
                    2 => [0, 255][(next() & 1) as usize],
                    _ => next() as u8,
                };
                let src: Vec<i32> = (0..n + 97)
                    .map(|_| i32::from_le_bytes([level(), level(), level(), level()]))
                    .collect();
                let mut weight = || match mode {
                    0 => 127i8,
                    1 => -127,
                    2 => [-127, 127][(next() & 1) as usize],
                    _ => next() as i8,
                };
                let ws: Vec<i32> = (0..4 * nt)
                    .map(|_| {
                        i32::from_le_bytes(
                            [weight(), weight(), weight(), weight()].map(|w| w as u8),
                        )
                    })
                    .collect();
                let seed = [max / 4, -max / 4, 1, -(next() as i32 % 1000)];
                let mut want = vec![0i32; rows * n];
                (bodies[0].1)(&mut want, n, &ws, &offs, &src, seed);
                for &(name, body) in &bodies[1..] {
                    let mut got = vec![7i32; rows * n];
                    body(&mut got, n, &ws, &offs, &src, seed);
                    assert_eq!(got, want, "{name} n={n} taps={nt} rows={rows} mode={mode}");
                }
            }
        }
    }
}

/// A deterministic stream of floats in `[-2, 2]` with exact zeros of both
/// signs mixed in (ReLU boundaries, padding).
fn floats(seed: u64) -> impl FnMut() -> f32 {
    let mut next = lcg(seed);
    move || match next() % 16 {
        0 => 0.0,
        1 => -0.0,
        r => ((r * 7919 + next() % 4001) % 4001) as f32 / 1000.0 - 2.0,
    }
}

/// The f32 tap kernel's identity: every `conv_taps4` body this CPU runs —
/// scalar, the 8-lane AVX2 body and, with AVX-512F, the 16-lane one, in
/// both madd flavors — equals the documented chain of its flavor (`s =
/// 0.0; s = madd(w, x, s)` per tap in list order, then written or added
/// to the old row) bit for bit, at every width 1..=200 (every 64-, 32-
/// and 16-column zmm block, the 8-lane tail and its scalar twin), 1–4
/// rows, accumulate on and off, and a tap list run as two k-blocks the
/// way the planner splits one at `KC` (the first written, the second
/// accumulated).
#[test]
fn conv_taps4_bodies_match_the_reference_chain() {
    let bodies = conv_taps4_bodies();
    let mut draw = floats(0x5EED_F00D_1234_5678);
    let src: Vec<f32> = (0..200 + 97).map(|_| draw()).collect();
    let ws: Vec<f32> = (0..4 * 40).map(|_| draw()).collect();
    let old: Vec<f32> = (0..4 * 200).map(|_| draw()).collect();
    // Unordered, repeating offsets: the chain follows the list, not the
    // addresses.
    let offs: Vec<usize> = (0..40).map(|t| (37 * t + 11) % 97).collect();
    let chain = |fused: bool, taps: std::ops::Range<usize>, c: usize, x: usize| {
        taps.fold(0.0f32, |s, t| {
            madd(fused, ws[4 * t + c], src[offs[t] + x], s)
        })
    };
    for n in 1..=200usize {
        let rows = 1 + n % 4;
        let old = &old[..rows * n];
        for &(name, fused, body) in &bodies {
            for (taps, accumulate) in [(0..1, false), (0..9, false), (0..9, true)] {
                let mut got = old.to_vec();
                body(
                    &mut got,
                    n,
                    &ws[4 * taps.start..4 * taps.end],
                    &offs[taps.clone()],
                    &src,
                    accumulate,
                );
                for c in 0..rows {
                    for x in 0..n {
                        let s = chain(fused, taps.clone(), c, x);
                        let want = if accumulate { old[c * n + x] + s } else { s };
                        assert_eq!(
                            got[c * n + x].to_bits(),
                            want.to_bits(),
                            "{name} n={n} rows={rows} taps={taps:?} accumulate={accumulate} c={c} x={x}"
                        );
                    }
                }
            }
            // A 40-tap list as two k-blocks, 25 then 15.
            let mut got = old.to_vec();
            body(&mut got, n, &ws[..4 * 25], &offs[..25], &src, false);
            body(&mut got, n, &ws[4 * 25..], &offs[25..], &src, true);
            for c in 0..rows {
                for x in 0..n {
                    let want = chain(fused, 0..25, c, x) + chain(fused, 25..40, c, x);
                    assert_eq!(
                        got[c * n + x].to_bits(),
                        want.to_bits(),
                        "{name} n={n} rows={rows} k-blocks c={c} x={x}"
                    );
                }
            }
        }
    }
}

/// Every `wino_tile_row` body this CPU runs — scalar, the 8-lane AVX2
/// body (4 output channels x 2 vectors per register block) and, with
/// AVX-512F, the 16-lane one (8 x 2, with a 4-channel block for a
/// `cout4 % 8 == 4` tail), in both madd flavors — equals the per-tile
/// pipeline of its flavor bit for bit, over tile counts that cross chunk
/// and vector seams, every output-channel count from one partial 4-block
/// to two 8-blocks and a 4-block tail, a NaN-filled scratch, signed-zero
/// inputs and an output stride with slack it must not write.
#[test]
fn wino_tile_row_bodies_match_per_tile_pipeline() {
    let bodies = wino_tile_row_bodies();
    let mut draw = floats(0xC0FF_EE00_BEEF_0001);
    for cout in [1usize, 3, 4, 5, 8, 12, 16, 20] {
        for (tiles, cin) in [(1usize, 1usize), (7, 3), (17, 16), (33, 2), (74, 16)] {
            let sw = tiles + 2;
            let rows: Vec<Vec<f32>> = (0..4)
                .map(|_| (0..cin * 2 * sw).map(|_| draw()).collect())
                .collect();
            let u: Vec<[f32; 16]> = (0..cout * cin)
                .map(|_| std::array::from_fn(|_| draw()))
                .collect();
            let packed = wino_pack_u(&u, cout, cin);
            let row = WinoRow {
                rows: [&rows[0], &rows[1], &rows[2], &rows[3]],
                sw,
                tiles,
                u: &packed,
                cin,
                cout,
            };
            let ostride = 2 * tiles + 3;
            for &(name, fused, body) in &bodies {
                let want = wino_oracle(&row, &u, fused, ostride);
                let mut scratch = vec![f32::NAN; wino_scratch_len(cin)];
                let mut got = vec![f32::NAN; 2 * cout * ostride];
                body(&row, &mut scratch, &mut got, ostride);
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{name} tiles={tiles} cin={cin} cout={cout}"
                );
            }
        }
    }
}

/// The fused epilogue row equals the per-op passes it replaced (`+ bias`
/// and the activation, doubling, `+ first`, `+ input`) bit for bit, at
/// every length 1..=70, every activation, doubling and each residual on
/// and off, in place and into a separate row, over signed zeros, NaN and
/// values the bias flips.
#[test]
fn epilogue_row_matches_the_per_op_chain() {
    let mut draw = floats(0xE91_0605_0000_0001);
    for n in 1..=70usize {
        let mut raw: Vec<f32> = (0..n).map(|_| draw()).collect();
        raw[0] = f32::NAN;
        let first: Vec<f32> = (0..n).map(|_| draw()).collect();
        let input: Vec<f32> = (0..n).map(|_| draw()).collect();
        for act in [
            RowAct::Linear,
            RowAct::Relu,
            RowAct::PRelu(-0.7),
            RowAct::PRelu(0.4),
        ] {
            for flags in 0..8usize {
                let e = RowEpilogue {
                    bias: [0.0, -0.0, -0.25, 0.5][n % 4],
                    act,
                    double: flags & 1 == 1,
                    first: (flags & 2 == 2).then_some(&first[..]),
                    input: (flags & 4 == 4).then_some(&input[..]),
                };
                let want = bits(&per_op_chain(&raw, &e));
                let ctx = format!("n={n} act={act:?} flags={flags}");
                let mut row = raw.clone();
                epilogue_row(&mut row, None, &e);
                assert_eq!(bits(&row), want, "in place: {ctx}");
                let (mut row, mut out) = (raw.clone(), vec![7.0f32; n]);
                epilogue_row(&mut row, Some(&mut out), &e);
                assert_eq!(bits(&out), want, "into out: {ctx}");
                assert_eq!(bits(&row), bits(&raw), "source written: {ctx}");
            }
        }
    }
}
