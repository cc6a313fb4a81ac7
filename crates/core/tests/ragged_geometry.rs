//! Planned ≡ reference, bit for bit, on every detected kernel variant
//! across the ragged geometries of the direct 5x5 path: widths below the
//! kernel width and off the 8-lane grid (`w` in 1..=17), one to six rows,
//! `f = 6` feature channels (one group of four output channels plus a
//! remainder group of two in the first layer), and both x2 and x4 heads.
//!
//! The reference GEMM dispatches through the process-global variant, so
//! the sweep pins it per variant. That is why this is its own test binary
//! holding a single test: no other test can observe the flips.

use std::sync::Arc;

use sesr_core::infer_plan::{CollapsedKernels, InferPlan};
use sesr_core::model::{Sesr, SesrConfig};
use sesr_tensor::simd::{detected_variants, kernel_variant, set_kernel_variant};
use sesr_tensor::Tensor;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn planned_matches_reference_on_ragged_geometry_for_every_variant() {
    let base = kernel_variant();
    for scale in [2usize, 4] {
        let cfg = SesrConfig {
            f: 6,
            ..SesrConfig::m(1)
                .with_expanded(8)
                .with_seed(41)
                .with_scale(scale)
        };
        let net = Sesr::new(cfg).collapse();
        let kernels = Arc::new(CollapsedKernels::new(&net));
        for &v in detected_variants() {
            set_kernel_variant(v);
            for h in 1..=6usize {
                for w in 1..=17usize {
                    let seed = (scale * 1000 + h * 31 + w) as u64;
                    let lr = Tensor::rand_uniform(&[1, h, w], -1.0, 1.0, seed);
                    let want = net.run_reference(&lr);
                    let mut plan = InferPlan::new(kernels.clone(), h, w);
                    plan.set_variant(v);
                    assert_eq!(
                        bits(&want),
                        bits(&plan.run(&lr)),
                        "x{scale} {h}x{w} diverged on {}",
                        v.name()
                    );
                }
            }
        }
    }
    set_kernel_variant(base);
}
