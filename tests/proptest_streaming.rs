//! Property-based proof that depth-first streaming changes no bits, on
//! both datapaths. A plan runs its chain in row groups through rolling
//! row rings; at heights that wrap every ring several times (and at the
//! edge heights 1, 2, 3 and one ring ± 1), odd widths, and a pool of 1
//! or 4 threads, [`InferPlan`] output must equal the unfused reference
//! executor bit for bit, and [`QuantPlan`] output the integer oracle —
//! for x2 and x4 heads, the hardware-efficient variant, and (f32 only;
//! the int8 planner needs a middle layer) the degenerate two-layer
//! network.
//!
//! [`InferPlan`]: sesr::core::InferPlan
//! [`QuantPlan`]: sesr::quant::QuantPlan

use proptest::prelude::*;
use sesr::core::collapsed::{Act, CollapsedLayer};
use sesr::core::infer_plan::{CollapsedKernels, InferPlan};
use sesr::core::model::{Sesr, SesrConfig};
use sesr::core::CollapsedSesr;
use sesr::quant::{calibrate, QuantKernels, QuantPlan, QuantizedSesr};
use sesr::tensor::parallel::{num_threads, set_num_threads};
use sesr::tensor::Tensor;
use std::sync::{Arc, Mutex, OnceLock};

/// Model kinds under test: x2, x4, hardware-efficient x2, and the
/// two-layer network (f32 only).
const KINDS: usize = 4;

/// The two-layer network: no middle layers, so the head reads
/// `first + first`, fused as a doubled write on step 0.
fn two_layer() -> CollapsedSesr {
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
    CollapsedSesr::new(vec![l0, head], 2, true, true)
}

fn build(kind: usize) -> CollapsedSesr {
    let cfg = match kind {
        0 => SesrConfig::m(3).with_expanded(8).with_seed(31),
        1 => SesrConfig::m(5)
            .with_expanded(4)
            .with_seed(32)
            .with_scale(4),
        2 => SesrConfig::m(3)
            .with_expanded(8)
            .with_seed(33)
            .hardware_efficient(),
        _ => return two_layer(),
    };
    Sesr::new(cfg).collapse()
}

type Models = (CollapsedSesr, Option<(QuantizedSesr, Arc<QuantKernels>)>);

/// Each kind's network and, when the int8 planner supports it, its
/// quantized form; built once per process.
fn model(kind: usize) -> &'static Models {
    static CACHE: OnceLock<Vec<OnceLock<Models>>> = OnceLock::new();
    let cells = CACHE.get_or_init(|| (0..KINDS).map(|_| OnceLock::new()).collect());
    cells[kind].get_or_init(|| {
        let net = build(kind);
        let quant = (net.layers().len() >= 3).then(|| {
            let calib: Vec<Tensor> = (0..3)
                .map(|i| Tensor::rand_uniform(&[1, 20, 20], 0.0, 1.0, 60 + i))
                .collect();
            let qnet = QuantizedSesr::quantize(&net, &calibrate(&net, &calib));
            let kernels = Arc::new(QuantKernels::new(&qnet));
            (qnet, kernels)
        });
        (net, quant)
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

/// A height past which ring sizes no longer depend on the height.
const TALL: usize = 400;

/// The heights that stress a plan of width `w` whose tallest ring holds
/// `ring` rows: 1, 2, 3, one ring ± 1, and three rings + 1 — the last
/// always streams; the shorter ones may run as one group when that takes
/// less memory.
fn height(pick: usize, ring: usize) -> usize {
    [1, 2, 3, ring - 1, ring + 1, 3 * ring + 1][pick]
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Streamed f32 plans reproduce the reference bits.
    #[test]
    fn streamed_f32_plan_is_bit_identical_to_reference(
        kind in 0usize..KINDS,
        pick in 0usize..6,
        half_w in 0usize..12,
        threads in prop::sample::select(vec![1usize, 4]),
        seed in 0u64..1000,
    ) {
        let (net, _) = model(kind);
        let w = 2 * half_w + 1;
        let kernels = Arc::new(CollapsedKernels::new(net));
        let ring = InferPlan::new(kernels.clone(), TALL, w).ring_rows();
        let h = height(pick, ring);
        let lr = Tensor::rand_uniform(&[1, h, w], 0.0, 1.0, seed);
        let mut plan = InferPlan::new(kernels, h, w);
        prop_assert!(pick < 5 || plan.group_rows() < h, "{} rows must stream", h);
        let got = with_threads(threads, || plan.run(&lr));
        prop_assert_eq!(
            bits(&got),
            bits(&net.run_reference(&lr)),
            "kind {} {}x{} threads={} diverged",
            kind, h, w, threads
        );
    }

    /// Streamed int8 plans reproduce the integer oracle's bits.
    #[test]
    fn streamed_int8_plan_is_bit_identical_to_oracle(
        kind in 0usize..KINDS - 1,
        pick in 0usize..6,
        half_w in 0usize..12,
        threads in prop::sample::select(vec![1usize, 4]),
        seed in 0u64..1000,
    ) {
        let (_, quant) = model(kind);
        let (qnet, kernels) = quant.as_ref().expect("three or more layers quantize");
        let w = 2 * half_w + 1;
        let ring = QuantPlan::new(kernels.clone(), TALL, w).ring_rows();
        let h = height(pick, ring);
        let lr = Tensor::rand_uniform(&[1, h, w], 0.0, 1.0, seed);
        let mut plan = QuantPlan::new(kernels.clone(), h, w);
        prop_assert!(pick < 5 || plan.group_rows() < h, "{} rows must stream", h);
        let got = with_threads(threads, || plan.run(&lr));
        prop_assert_eq!(
            bits(&got),
            bits(&qnet.run(&lr)),
            "kind {} {}x{} threads={} diverged",
            kind, h, w, threads
        );
    }
}
