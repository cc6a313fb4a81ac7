//! Property-based equivalence of planned int8 inference: for every SESR
//! size (M3/M5/M7/M11), both scales (x2/x4), arbitrary (odd included)
//! input sizes, and a pool of 1 vs 4 threads, [`QuantPlan`] output
//! must be **bit-identical** to the integer-accumulation oracle
//! [`QuantizedSesr::run`]. The integer datapath is exact under any
//! reassociation and the requantization epilogues are scalar f32
//! replicating the oracle's expressions — so even the float rounding
//! matches exactly.
//!
//! [`QuantPlan`]: sesr::quant::QuantPlan
//! [`QuantizedSesr::run`]: sesr::quant::QuantizedSesr

use proptest::prelude::*;
use sesr::core::model::{Sesr, SesrConfig};
use sesr::quant::{calibrate, QuantKernels, QuantPlan, QuantizedSesr};
use sesr::tensor::parallel::{num_threads, set_num_threads};
use sesr::tensor::Tensor;
use std::sync::{Arc, Mutex, OnceLock};

const ARCHS: [&str; 4] = ["m3", "m5", "m7", "m11"];

fn config(arch: &str) -> SesrConfig {
    let cfg = match arch {
        "m3" => SesrConfig::m(3),
        "m5" => SesrConfig::m(5),
        "m7" => SesrConfig::m(7),
        "m11" => SesrConfig::m(11),
        other => unreachable!("unknown arch {other}"),
    };
    cfg.with_expanded(8).with_seed(23)
}

/// One lazily built model per (arch, scale) pair.
type ModelSlots = Vec<OnceLock<(QuantizedSesr, Arc<QuantKernels>)>>;

/// Models are expensive to collapse and calibrate; build each
/// (arch, scale) pair once per process.
fn model(arch_idx: usize, scale: usize) -> &'static (QuantizedSesr, Arc<QuantKernels>) {
    static CACHE: OnceLock<ModelSlots> = OnceLock::new();
    let cells = CACHE.get_or_init(|| (0..ARCHS.len() * 2).map(|_| OnceLock::new()).collect());
    let slot = arch_idx * 2 + usize::from(scale == 4);
    cells[slot].get_or_init(|| {
        let net = Sesr::new(config(ARCHS[arch_idx]).with_scale(scale)).collapse();
        let calib: Vec<Tensor> = (0..3)
            .map(|i| Tensor::rand_uniform(&[1, 20, 20], 0.0, 1.0, 60 + i))
            .collect();
        let profile = calibrate(&net, &calib);
        let qnet = QuantizedSesr::quantize(&net, &profile);
        let kernels = Arc::new(QuantKernels::new(&qnet));
        (qnet, kernels)
    })
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

fn assert_bits_equal(want: &Tensor, got: &Tensor, what: &str) {
    assert_eq!(want.shape(), got.shape(), "{what}: shape mismatch");
    let exact = want
        .data()
        .iter()
        .zip(got.data())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(exact, "{what}: planned int8 bits diverged from the oracle");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The planned int8 executor reproduces the oracle bits for every
    /// model size, scale, input shape, and pool size.
    #[test]
    fn planned_int8_is_bit_identical_to_oracle(
        arch_idx in 0usize..ARCHS.len(),
        scale_x4 in any::<bool>(),
        h in 5usize..22,
        w in 5usize..22,
        seed in 0u64..1000,
    ) {
        let scale = if scale_x4 { 4 } else { 2 };
        let (qnet, kernels) = model(arch_idx, scale);
        let lr = Tensor::rand_uniform(&[1, h, w], 0.0, 1.0, seed);
        let want = qnet.run(&lr);

        let one = with_threads(1, || {
            QuantPlan::new(kernels.clone(), h, w).run(&lr)
        });
        let four = with_threads(4, || {
            QuantPlan::new(kernels.clone(), h, w).run(&lr)
        });
        assert_bits_equal(&want, &one, "1 thread");
        assert_bits_equal(&want, &four, "4 threads");
    }
}
