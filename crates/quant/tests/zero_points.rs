//! Planned int8 ≡ the `QuantizedSesr` oracle, bit for bit, whatever the
//! wires' zero points. The plan stores raw `u8` levels, fills every pad
//! column and pad row with its ring's zero point, and seeds each
//! accumulator with `-zp * Σw`; a pad filled with the wrong level, or a
//! seed taken from the wrong wire, shows only when the zero points are
//! far from the calibrated ones. So each test here hand-builds an
//! `ActivationProfile` that forces every wire — the input, each layer's
//! output and, through the last body layer's, the widened residual wire —
//! onto the rails and the middle of `[0, 255]`: all wires at one of 0, 1,
//! 128, 254 and 255, and then the five cycled across the wires, so that
//! the ping-pong buffers a one-group plan reuses across layers hold a
//! different zero point on each layer.

use std::sync::Arc;

use sesr_core::model::{Sesr, SesrConfig};
use sesr_core::CollapsedSesr;
use sesr_quant::{calibrate, ActivationProfile, QuantKernels, QuantPlan, QuantizedSesr};
use sesr_tensor::simd::detected_variants;
use sesr_tensor::Tensor;

const ZERO_POINTS: [i32; 5] = [0, 1, 128, 254, 255];

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// An m3 x2 network (both long residuals, three body layers so a
/// one-group plan's ping-pong buffers are each reused) and its calibrated
/// profile.
fn network() -> (CollapsedSesr, ActivationProfile) {
    let net = Sesr::new(SesrConfig::m(3).with_expanded(8).with_seed(47)).collapse();
    let calib: Vec<Tensor> = (0..3)
        .map(|i| Tensor::rand_uniform(&[1, 20, 20], 0.0, 1.0, 80 + i))
        .collect();
    let profile = calibrate(&net, &calib);
    (net, profile)
}

/// The calibrated profile with wire `i` (0 = input, then each layer's
/// output) moved to zero point `zps(i)`, scales kept.
fn forced(profile: &ActivationProfile, zps: impl Fn(usize) -> i32) -> ActivationProfile {
    let mut p = profile.clone();
    p.input.zero_point = zps(0);
    for (i, out) in p.layer_outputs.iter_mut().enumerate() {
        out.zero_point = zps(i + 1);
    }
    p
}

/// Every forced profile: all wires at each zero point, then the five
/// zero points cycled across the wires at each offset.
fn profiles(profile: &ActivationProfile) -> Vec<(String, ActivationProfile)> {
    let uniform = ZERO_POINTS
        .iter()
        .map(|&zp| (format!("all wires at {zp}"), forced(profile, |_| zp)));
    let cycled = (0..ZERO_POINTS.len()).map(|k| {
        let zp = move |i: usize| ZERO_POINTS[(i + k) % ZERO_POINTS.len()];
        (format!("cycled from offset {k}"), forced(profile, zp))
    });
    uniform.chain(cycled).collect()
}

/// Heights 1 to 6 run as one group, layer at a time through ping-pong
/// buffers, and every output row reads a pad row of some layer.
#[test]
fn one_group_plans_match_the_oracle_at_every_zero_point() {
    let (net, profile) = network();
    for (name, p) in profiles(&profile) {
        let qnet = QuantizedSesr::quantize(&net, &p);
        let kernels = Arc::new(QuantKernels::new(&qnet));
        for h in 1..=6usize {
            for w in [1usize, 7, 37] {
                let lr = Tensor::rand_uniform(&[1, h, w], -0.2, 1.2, (h * 100 + w) as u64);
                let want = bits(&qnet.run(&lr));
                let mut plan = QuantPlan::new(kernels.clone(), h, w);
                assert!(plan.group_rows() >= h, "{h} rows must run as one group");
                for &v in detected_variants() {
                    plan.set_variant(v);
                    assert_eq!(
                        want,
                        bits(&plan.run(&lr)),
                        "{name}: {h}x{w} one-group plan diverged on {}",
                        v.name()
                    );
                }
            }
        }
    }
}

/// Three rings + 1 rows always stream: the rings wrap, and the pad rows
/// past the top and bottom edges land in wrapped slots.
#[test]
fn streamed_plans_match_the_oracle_at_every_zero_point() {
    let (net, profile) = network();
    let w = 5;
    for (name, p) in profiles(&profile) {
        let qnet = QuantizedSesr::quantize(&net, &p);
        let kernels = Arc::new(QuantKernels::new(&qnet));
        let h = 3 * QuantPlan::new(kernels.clone(), 400, w).ring_rows() + 1;
        let lr = Tensor::rand_uniform(&[1, h, w], -0.2, 1.2, 7);
        let want = bits(&qnet.run(&lr));
        let mut plan = QuantPlan::new(kernels, h, w);
        assert!(plan.group_rows() < h, "{h} rows must stream");
        for &v in detected_variants() {
            plan.set_variant(v);
            assert_eq!(
                want,
                bits(&plan.run(&lr)),
                "{name}: {h}x{w} streamed plan diverged on {}",
                v.name()
            );
        }
    }
}
