//! The planned executor's shared skeleton, checked once per datapath.
//! Each check is one generic function over [`Datapath`], instantiated for
//! the f32 kernels ([`InferPlan`]) and the int8 kernels ([`QuantPlan`]):
//! the tile-plan LRU, the per-step timing hook, and the variant pin all
//! live in `Plan`/`TilePlanner`, so both precisions must pass the same
//! assertions. Whole-network identity sweeps stay in the per-precision
//! proptests.
//!
//! [`Datapath`]: sesr::core::Datapath
//! [`InferPlan`]: sesr::core::InferPlan
//! [`QuantPlan`]: sesr::quant::QuantPlan

use sesr::core::model::{Sesr, SesrConfig};
use sesr::core::{CollapsedKernels, CollapsedSesr, Datapath, Plan, TilePlanner};
use sesr::quant::{calibrate, QuantKernels, QuantizedSesr};
use sesr::tensor::simd::KernelVariant;
use sesr::tensor::Tensor;
use std::sync::Arc;

fn collapsed() -> CollapsedSesr {
    Sesr::new(SesrConfig::m(2).with_expanded(8).with_seed(3)).collapse()
}

/// The f32 datapath and its oracle, the reference path.
fn f32_case() -> (Arc<CollapsedKernels>, impl Fn(&Tensor) -> Tensor) {
    let net = collapsed();
    let kernels = Arc::new(CollapsedKernels::new(&net));
    (kernels, move |lr: &Tensor| net.run_reference(lr))
}

/// The int8 datapath and its oracle, the integer-accumulation network.
fn int8_case() -> (Arc<QuantKernels>, impl Fn(&Tensor) -> Tensor) {
    let net = collapsed();
    let calib: Vec<Tensor> = (0..3)
        .map(|i| Tensor::rand_uniform(&[1, 20, 20], 0.0, 1.0, 60 + i))
        .collect();
    let qnet = QuantizedSesr::quantize(&net, &calibrate(&net, &calib));
    let kernels = Arc::new(QuantKernels::new(&qnet));
    (kernels, move |lr: &Tensor| qnet.run(lr))
}

fn assert_same_bits(want: &[f32], got: &[f32], what: &str) {
    assert_eq!(want.len(), got.len(), "{what}: length");
    assert!(
        want.iter()
            .zip(got)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "{what}: bits differ"
    );
}

/// Every call — hit, miss, or rebuild after eviction — returns the
/// oracle's bits; the cache never exceeds its capacity; eviction is
/// least-recently-used, and a hit refreshes a shape's place.
fn tile_planner_evicts_lru<D: Datapath>(kernels: Arc<D>, oracle: impl Fn(&Tensor) -> Tensor) {
    let mut planner = TilePlanner::with_capacity(kernels, 2);
    for (h, w) in [(8usize, 8usize), (8, 6), (6, 8), (8, 8), (6, 6)] {
        let lr = Tensor::rand_uniform(&[1, h, w], 0.0, 1.0, (h * 31 + w) as u64);
        let got = planner.plan_for(h, w).run(&lr);
        assert_same_bits(oracle(&lr).data(), got.data(), &format!("{h}x{w}"));
        assert!(planner.cached_plans() <= 2, "capacity bound violated");
    }
    // Misses at (8,8), (8,6), (6,8)[evict], (8,8)[evict], (6,6)[evict].
    assert_eq!(planner.evictions(), 3);
    // (6,6) and (8,8) are resident; touching (6,6) then inserting a new
    // shape must evict (8,8), not (6,6).
    planner.plan_for(6, 6);
    planner.plan_for(10, 10);
    assert_eq!(planner.evictions(), 4);
    planner.plan_for(6, 6);
    assert_eq!(planner.evictions(), 4, "(6,6) must still be resident");
}

/// The timed run writes the untimed run's bits, charges every step a
/// non-zero time, and accumulates into the caller's slots.
fn timed_run_matches_untimed<D: Datapath>(kernels: Arc<D>) {
    let layers = kernels.graph().layers().len();
    let mut plan = Plan::with_bands(kernels, 15, 19, 2);
    assert_eq!(plan.num_steps(), layers);
    let lr = Tensor::rand_uniform(&[1, 15, 19], 0.0, 1.0, 8);
    let want = plan.run(&lr);
    let mut out = vec![0.0f32; want.data().len()];
    let mut nanos = vec![0u64; plan.num_steps()];
    plan.run_image_into_timed(lr.data(), &mut out, &mut nanos);
    assert_same_bits(want.data(), &out, "timed run");
    assert!(nanos.iter().all(|&n| n > 0), "{nanos:?}");
    let first = nanos.clone();
    plan.run_image_into_timed(lr.data(), &mut out, &mut nanos);
    assert!(
        nanos.iter().zip(&first).all(|(b, a)| b > a),
        "slots must accumulate: {first:?} then {nanos:?}"
    );
}

fn timed_run_with_one_slot<D: Datapath>(kernels: Arc<D>) {
    let s = kernels.graph().scale();
    let mut plan = Plan::with_bands(kernels, 8, 8, 1);
    let mut out = vec![0.0f32; 64 * s * s];
    plan.run_image_into_timed(&[0.5; 64], &mut out, &mut [0u64; 1]);
}

/// `set_variant` returns the variant the plan will actually run, which
/// is the requested one whenever this CPU can run it.
fn set_variant_pins_an_available_variant<D: Datapath>(kernels: Arc<D>) {
    let mut plan = Plan::with_bands(kernels, 8, 8, 1);
    for v in [
        KernelVariant::Scalar,
        KernelVariant::Avx2,
        KernelVariant::Avx2Fma,
        KernelVariant::Neon,
    ] {
        let pinned = plan.set_variant(v);
        assert_eq!(pinned, plan.variant(), "{v:?}");
        assert!(plan.variant().available(), "{v:?} pinned {pinned:?}");
        if v.available() {
            assert_eq!(pinned, v);
        }
    }
}

#[test]
fn tile_planner_evicts_lru_f32() {
    let (kernels, oracle) = f32_case();
    tile_planner_evicts_lru(kernels, oracle);
}

#[test]
fn tile_planner_evicts_lru_int8() {
    let (kernels, oracle) = int8_case();
    tile_planner_evicts_lru(kernels, oracle);
}

#[test]
fn timed_run_matches_untimed_f32() {
    timed_run_matches_untimed(f32_case().0);
}

#[test]
fn timed_run_matches_untimed_int8() {
    timed_run_matches_untimed(int8_case().0);
}

#[test]
#[should_panic(expected = "one slot per layer")]
fn timed_run_rejects_a_wrong_slot_count_f32() {
    timed_run_with_one_slot(f32_case().0);
}

#[test]
#[should_panic(expected = "one slot per layer")]
fn timed_run_rejects_a_wrong_slot_count_int8() {
    timed_run_with_one_slot(int8_case().0);
}

#[test]
fn set_variant_pins_an_available_variant_f32() {
    set_variant_pins_an_available_variant(f32_case().0);
}

#[test]
fn set_variant_pins_an_available_variant_int8() {
    set_variant_pins_an_available_variant(int8_case().0);
}
