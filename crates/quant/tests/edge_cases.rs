//! Edge cases of the int8 scheme at its numeric boundaries: hard
//! saturation of both grids (u8 activations at 0/255, i8 weights at
//! ±127), zero-variance wires from degenerate calibration sets, and
//! quantize→dequantize round-trip error bounds. These are the regimes a
//! deployed model actually hits — outlier pixels beyond the calibrated
//! range, dead channels, constant inputs — and each must degrade
//! gracefully rather than wrap, overflow, or diverge from the planned
//! executor.

use std::sync::Arc;

use sesr_core::model::{Sesr, SesrConfig};
use sesr_quant::qtensor::{AffineParams, QTensorU8, QWeightI8};
use sesr_quant::{calibrate, QuantKernels, QuantPlan, QuantizedSesr};
use sesr_tensor::Tensor;

fn bits_equal(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn activations_saturate_at_grid_edges() {
    // Calibrated for [0, 1], fed ±10: levels must clamp to 0 and 255,
    // never wrap.
    let params = AffineParams::from_range_u8(0.0, 1.0);
    let t = Tensor::from_vec(vec![-10.0, 0.0, 0.5, 1.0, 10.0], &[1, 1, 5]);
    let q = QTensorU8::quantize(&t, params);
    assert_eq!(q.data[0], 0, "below-range must clamp to level 0");
    assert_eq!(q.data[4], 255, "above-range must clamp to level 255");
    // Dequantized saturated values sit exactly on the grid edges.
    let back = q.dequantize();
    assert_eq!(back.data()[0], params.dequantize(0));
    assert_eq!(back.data()[4], params.dequantize(255));
    // In-range values survive within half a step.
    for (&orig, &rt) in t.data()[1..4].iter().zip(&back.data()[1..4]) {
        assert!((orig - rt).abs() <= params.scale * 0.5 + f32::EPSILON);
    }
}

#[test]
fn weights_saturate_at_plus_minus_127() {
    // One channel dominated by a huge outlier, one tiny channel: the
    // outlier maps to exactly ±127 and nothing exceeds the symmetric
    // grid.
    let w = Tensor::from_vec(
        vec![100.0, -100.0, 0.01, -0.005, 1e-30, 0.0, 0.0, 0.0],
        &[2, 1, 2, 2],
    );
    let q = QWeightI8::quantize(&w);
    assert_eq!(q.data[0], 127, "amax must map to +127");
    assert_eq!(q.data[1], -127, "-amax must map to -127");
    assert!(q.data.iter().all(|&v| (-127..=127).contains(&v)));
    // Per-channel round trip bounded by half that channel's step.
    let back = q.dequantize();
    for o in 0..2 {
        for i in 0..4 {
            let idx = o * 4 + i;
            let err = (w.data()[idx] - back.data()[idx]).abs();
            assert!(
                err <= q.scales[o] * 0.5 + f32::EPSILON,
                "channel {o} element {i}: error {err} vs step {}",
                q.scales[o]
            );
        }
    }
}

#[test]
fn u8_roundtrip_error_bounded_by_half_step_across_range() {
    let params = AffineParams::from_range_u8(-0.3, 1.7);
    let vals: Vec<f32> = (0..=200).map(|i| -0.3 + i as f32 * 0.01).collect();
    let n = vals.len();
    let t = Tensor::from_vec(vals, &[1, 1, n]);
    let rt = QTensorU8::quantize(&t, params).dequantize();
    for (&orig, &back) in t.data().iter().zip(rt.data()) {
        assert!(
            (orig - back).abs() <= params.scale * 0.5 + 1e-6,
            "round-trip error {} exceeds half-step {}",
            (orig - back).abs(),
            params.scale * 0.5
        );
    }
}

#[test]
fn zero_variance_calibration_yields_finite_network() {
    // Constant calibration images: every wire sees a single value, so
    // every observed range is zero-width. `from_range_u8` must widen the
    // degenerate range (and keep zero representable); the quantized net
    // must stay finite on real inputs afterwards.
    let net = Sesr::new(SesrConfig::m(1).with_expanded(4).with_seed(41)).collapse();
    let flat = vec![Tensor::from_vec(vec![0.5; 16 * 16], &[1, 16, 16])];
    let profile = calibrate(&net, &flat);
    assert!(profile.input.scale >= f32::EPSILON);
    for p in &profile.layer_outputs {
        assert!(p.scale >= f32::EPSILON, "degenerate wire must be widened");
        assert!((0..=255).contains(&p.zero_point) || p.zero_point.unsigned_abs() < 1 << 16);
    }
    let qnet = QuantizedSesr::quantize(&net, &profile);
    let lr = Tensor::rand_uniform(&[1, 16, 16], 0.0, 1.0, 9);
    let out = qnet.run(&lr);
    assert!(out.data().iter().all(|v| v.is_finite()));
}

#[test]
fn plan_matches_oracle_under_saturating_input_and_degenerate_profile() {
    // The planned executor must stay bit-identical to the oracle even in
    // the pathological corner: a profile calibrated on constant images
    // (zero-variance wires) driven with out-of-range inputs that saturate
    // the input grid.
    let net = Sesr::new(SesrConfig::m(1).with_expanded(4).with_seed(41)).collapse();
    let flat = vec![Tensor::from_vec(vec![0.5; 16 * 16], &[1, 16, 16])];
    let profile = calibrate(&net, &flat);
    let qnet = QuantizedSesr::quantize(&net, &profile);
    let mut wild = Tensor::rand_uniform(&[1, 18, 15], -4.0, 4.0, 13);
    // Pin a few exact extremes.
    wild.data_mut()[0] = 1000.0;
    wild.data_mut()[1] = -1000.0;
    let want = qnet.run(&wild);
    let kernels = Arc::new(QuantKernels::new(&qnet));
    let got = QuantPlan::new(kernels, 18, 15).run(&wild);
    assert!(
        bits_equal(&want, &got),
        "saturating/degenerate case diverged from the oracle"
    );
}
