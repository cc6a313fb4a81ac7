//! Property-based equivalence of planned inference: for every SESR size
//! (M3/M5/M7/M11/XL), both scales (x2/x4), arbitrary (odd included) input
//! sizes, and a pool of 1 vs 4 threads, [`InferPlan`] output must be
//! **bit-identical** to the unfused reference executor
//! [`CollapsedSesr::run_batch_reference`]. Fused epilogues and row-group
//! streaming change where and when values are computed, never the
//! per-element arithmetic or its order — so even the floating-point
//! rounding matches exactly.
//!
//! [`InferPlan`]: sesr::core::InferPlan
//! [`CollapsedSesr::run_batch_reference`]: sesr::core::CollapsedSesr

use proptest::prelude::*;
use sesr::core::infer_plan::{CollapsedKernels, InferPlan};
use sesr::core::model::{Sesr, SesrConfig};
use sesr::core::CollapsedSesr;
use sesr::tensor::parallel::{num_threads, set_num_threads};
use sesr::tensor::Tensor;
use std::sync::{Arc, Mutex, OnceLock};

const ARCHS: [&str; 5] = ["m3", "m5", "m7", "m11", "xl"];

fn config(arch: &str) -> SesrConfig {
    let cfg = match arch {
        "m3" => SesrConfig::m(3),
        "m5" => SesrConfig::m(5),
        "m7" => SesrConfig::m(7),
        "m11" => SesrConfig::m(11),
        "xl" => SesrConfig::xl(),
        other => unreachable!("unknown arch {other}"),
    };
    cfg.with_expanded(8).with_seed(23)
}

/// Models are expensive to collapse; build each (arch, scale) once per
/// process.
fn model(arch_idx: usize, scale: usize) -> &'static CollapsedSesr {
    static CACHE: OnceLock<Vec<OnceLock<CollapsedSesr>>> = OnceLock::new();
    let cells = CACHE.get_or_init(|| (0..ARCHS.len() * 2).map(|_| OnceLock::new()).collect());
    let slot = arch_idx * 2 + usize::from(scale == 4);
    cells[slot].get_or_init(|| Sesr::new(config(ARCHS[arch_idx]).with_scale(scale)).collapse())
}

/// Serializes the thread-count override (it is process-global) and pins
/// it to `n` for the duration of `f`.
fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    static LOCK: Mutex<()> = Mutex::new(());
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let before = num_threads();
    set_num_threads(n);
    let out = f();
    set_num_threads(before);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The planned executor reproduces the reference bits for every model
    /// size, scale, input shape, and pool size.
    #[test]
    fn planned_inference_is_bit_identical_to_reference(
        arch_idx in 0usize..ARCHS.len(),
        scale_x4 in any::<bool>(),
        h in 5usize..22,
        w in 5usize..22,
        seed in 0u64..1000,
    ) {
        let scale = if scale_x4 { 4 } else { 2 };
        let net = model(arch_idx, scale);
        let lr = Tensor::rand_uniform(&[1, h, w], 0.0, 1.0, seed);
        let reference = net.run_batch_reference(&lr.reshape(&[1, 1, h, w]))
            .reshape(&[1, h * scale, w * scale]);
        let kernels = Arc::new(CollapsedKernels::new(net));

        let one = with_threads(1, || {
            InferPlan::new(kernels.clone(), h, w).run(&lr)
        });
        let four = with_threads(4, || {
            InferPlan::new(kernels.clone(), h, w).run(&lr)
        });

        prop_assert_eq!(one.shape(), reference.shape());
        prop_assert!(
            reference.max_abs_diff(&one) == 0.0,
            "{} x{} {}x{} diverged at 1 thread",
            ARCHS[arch_idx], scale, h, w
        );
        prop_assert!(
            reference.max_abs_diff(&four) == 0.0,
            "{} x{} {}x{} diverged at 4 threads",
            ARCHS[arch_idx], scale, h, w
        );
    }

    /// `CollapsedSesr::run` (now plan-backed) also matches the reference,
    /// including odd sizes and the batch path's arena reuse.
    #[test]
    fn public_run_paths_match_reference(
        arch_idx in 0usize..ARCHS.len(),
        h in 5usize..18,
        w in 5usize..18,
        n in 1usize..4,
        seed in 0u64..1000,
    ) {
        let net = model(arch_idx, 2);
        let images: Vec<Tensor> = (0..n)
            .map(|i| Tensor::rand_uniform(&[1, h, w], 0.0, 1.0, seed + i as u64))
            .collect();
        let batch = Tensor::stack(&images.iter().collect::<Vec<_>>());
        let planned = net.run_batch(&batch);
        let reference = net.run_batch_reference(&batch);
        prop_assert!(
            planned.max_abs_diff(&reference) == 0.0,
            "{} batch n={} {}x{} diverged", ARCHS[arch_idx], n, h, w
        );
        let single = net.run(&images[0]);
        let single_ref = net.run_reference(&images[0]);
        prop_assert!(single.max_abs_diff(&single_ref) == 0.0);
    }
}
