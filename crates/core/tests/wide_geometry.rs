//! Planned ≡ reference, bit for bit, on every detected kernel variant at
//! widths that cross the Winograd tile-row kernel's 32-tile chunks and
//! vector seams: `w` in {33, 64, 75, 97, 148} (17 to 74 tiles per row,
//! full and narrower tail chunks, odd widths with a half tile), odd
//! heights (a half tile row at the bottom), m3, m5 and m11, x2 and x4
//! heads.
//!
//! The reference dispatches through the process-global variant, so the
//! sweep pins it per variant. That is why this is its own test binary
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
fn planned_matches_reference_on_wide_geometry_for_every_variant() {
    let base = kernel_variant();
    for m in [3usize, 5, 11] {
        for scale in [2usize, 4] {
            let cfg = SesrConfig::m(m)
                .with_expanded(8)
                .with_seed(53 + m as u64)
                .with_scale(scale);
            let net = Sesr::new(cfg).collapse();
            let kernels = Arc::new(CollapsedKernels::new(&net));
            for &v in detected_variants() {
                set_kernel_variant(v);
                for (h, w) in [(5usize, 33usize), (3, 64), (7, 75), (5, 97), (3, 148)] {
                    let seed = (m * 1000 + scale * 100 + w) as u64;
                    let lr = Tensor::rand_uniform(&[1, h, w], -1.0, 1.0, seed);
                    let want = bits(&net.run_reference(&lr));
                    let mut plan = InferPlan::new(kernels.clone(), h, w);
                    plan.set_variant(v);
                    assert_eq!(
                        want,
                        bits(&plan.run(&lr)),
                        "m{m} x{scale} {h}x{w} diverged on {}",
                        v.name()
                    );
                }
            }
        }
    }
    set_kernel_variant(base);
}
