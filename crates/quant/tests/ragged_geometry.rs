//! Planned int8 ≡ the `QuantizedSesr` oracle, bit for bit, on every
//! detected kernel variant across the ragged geometries of the integer
//! tap kernel: widths 1..=70 (64- and 32-column zmm blocks, AVX2 16- and
//! 8-column blocks, masked and scalar tails, widths below the 5x5
//! kernel), one to six rows (every row a border row of some tap), `f` of
//! 4 to 7 feature channels (each remainder 0 to 3 of the channel quads a
//! ring word packs, and of the four-channel output groups), and both x2
//! and x4 heads.
//!
//! The oracle runs plain scalar code, and each plan pins its own variant,
//! so nothing here touches the process-global variant.

use std::sync::Arc;

use sesr_core::model::{Sesr, SesrConfig};
use sesr_quant::{calibrate, QuantKernels, QuantPlan, QuantizedSesr};
use sesr_tensor::simd::detected_variants;
use sesr_tensor::Tensor;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn planned_int8_matches_oracle_on_ragged_geometry_for_every_variant() {
    for f in [4usize, 5, 6, 7] {
        for scale in [2usize, 4] {
            let cfg = SesrConfig {
                f,
                ..SesrConfig::m(1)
                    .with_expanded(8)
                    .with_seed(43)
                    .with_scale(scale)
            };
            let net = Sesr::new(cfg).collapse();
            let calib: Vec<Tensor> = (0..3)
                .map(|i| Tensor::rand_uniform(&[1, 20, 20], 0.0, 1.0, 70 + i))
                .collect();
            let qnet = QuantizedSesr::quantize(&net, &calibrate(&net, &calib));
            let kernels = Arc::new(QuantKernels::new(&qnet));
            for h in 1..=6usize {
                for w in 1..=70usize {
                    let seed = (f * 10_000 + scale * 1000 + h * 97 + w) as u64;
                    let lr = Tensor::rand_uniform(&[1, h, w], 0.0, 1.0, seed);
                    let want = bits(&qnet.run(&lr));
                    let mut plan = QuantPlan::new(kernels.clone(), h, w);
                    for &v in detected_variants() {
                        plan.set_variant(v);
                        assert_eq!(
                            want,
                            bits(&plan.run(&lr)),
                            "f={f} x{scale} {h}x{w} diverged on {}",
                            v.name()
                        );
                    }
                }
            }
        }
    }
}
