//! The planned executor's shared skeleton, checked once per datapath.
//! Each check is one generic function over [`Datapath`], instantiated for
//! the f32 kernels ([`InferPlan`]) and the int8 kernels ([`QuantPlan`]):
//! the tile-plan LRU, the per-step timing hook, windows through
//! `run_tile_into`, strips and tiles through `run_tiles`, and the variant
//! pin all live in `Plan`/`TilePlanner`/`tiling`, so both precisions must
//! pass the same assertions.
//! Whole-network identity sweeps stay in the per-precision proptests.
//!
//! [`Datapath`]: sesr::core::Datapath
//! [`InferPlan`]: sesr::core::InferPlan
//! [`QuantPlan`]: sesr::quant::QuantPlan

use sesr::core::model::{Sesr, SesrConfig};
use sesr::core::tiling::run_tiles;
use sesr::core::{CollapsedKernels, CollapsedSesr, Datapath, Plan, TilePlan, TilePlanner};
use sesr::quant::{calibrate, QuantKernels, QuantizedSesr};
use sesr::tensor::parallel::set_num_threads;
use sesr::tensor::simd::KernelVariant;
use sesr::tensor::Tensor;
use std::sync::Arc;
use std::time::Instant;

/// The pool's default size (what `num_threads` starts at), independent
/// of any override a test left behind.
fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(16))
}

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

/// Every other way to run a frame writes the untimed sequential plan's
/// bits: the timed run, which also charges every step a non-zero time and
/// accumulates into the caller's slots, and the frame cut into two strips
/// through `run_tiles`, at a pool of 1 and at the default size. The
/// widths are odd: at 17 the second strip starts at column 9, so its halo
/// origin must be rounded down to an even column, and 3 is below twice
/// the strip count, so a strip is a single column.
fn timed_run_matches_untimed<D: Datapath>(kernels: Arc<D>) {
    let layers = kernels.graph().layers().len();
    let radius = collapsed().receptive_field_radius();
    for (h, w) in [(15, 17), (15, 3)] {
        let mut plan = Plan::new(kernels.clone(), h, w);
        assert_eq!(plan.num_steps(), layers);
        let lr = Tensor::rand_uniform(&[1, h, w], 0.0, 1.0, 8);
        let want = plan.run(&lr);
        let strips = TilePlan::strips(h, w, 2, radius);
        for threads in [1, default_threads()] {
            set_num_threads(threads);
            let got = run_tiles(&kernels, &lr, &strips);
            let what = format!("{} strips of {h}x{w} at a pool of {threads}", strips.len());
            assert_same_bits(want.data(), got.data(), &what);
        }
        set_num_threads(default_threads());
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
}

/// A window writes exactly its interior. Each tile of a square tiling
/// (an odd side, so interiors start on odd columns while halo origins
/// round down to even ones) and of a strip tiling (the second strip starts
/// at column 9) runs alone through `run_tile_into` into an HR plane
/// prefilled with a NaN sentinel: its interior must hold the whole-frame
/// plan's bits and every other element the sentinel. `run_tiles` over
/// either tiling must write the whole frame's bits.
fn window_writes_exactly_its_interior<D: Datapath>(kernels: Arc<D>) {
    let s = kernels.graph().scale();
    let radius = collapsed().receptive_field_radius();
    let (h, w) = (19, 17);
    let lr = Tensor::rand_uniform(&[1, h, w], 0.0, 1.0, 12);
    let want = Plan::new(kernels.clone(), h, w).run(&lr);
    let sentinel = f32::from_bits(0x7fc0_beef);
    let mut planner = TilePlanner::new(kernels.clone());
    let tilings = [
        TilePlan::new(h, w, 5, radius).unwrap(),
        TilePlan::strips(h, w, 2, radius),
    ];
    for tiling in &tilings {
        for spec in tiling.tiles() {
            let mut hr = vec![sentinel; want.data().len()];
            let plan = planner.plan_for(spec.patch_h(), spec.patch_w());
            plan.run_tile_into(lr.data(), w, spec, &mut hr);
            for (i, (got, whole)) in hr.iter().zip(want.data()).enumerate() {
                let (y, x) = (i / (w * s) / s, i % (w * s) / s);
                let inside = (spec.y0..spec.y1).contains(&y) && (spec.x0..spec.x1).contains(&x);
                let expect = if inside { whole } else { &sentinel };
                assert_eq!(got.to_bits(), expect.to_bits(), "{spec:?} at LR ({y}, {x})");
            }
        }
        let got = run_tiles(&kernels, &lr, tiling);
        assert_same_bits(want.data(), got.data(), &format!("{} tiles", tiling.len()));
    }
}

fn timed_run_with_one_slot<D: Datapath>(kernels: Arc<D>) {
    let s = kernels.graph().scale();
    let mut plan = Plan::new(kernels, 8, 8);
    let mut out = vec![0.0f32; 64 * s * s];
    plan.run_image_into_timed(&[0.5; 64], &mut out, &mut [0u64; 1]);
}

/// `set_variant` returns the variant the plan will actually run, which
/// is the requested one whenever this CPU can run it.
fn set_variant_pins_an_available_variant<D: Datapath>(kernels: Arc<D>) {
    let mut plan = Plan::new(kernels, 8, 8);
    for v in [
        KernelVariant::Scalar,
        KernelVariant::Avx2,
        KernelVariant::Avx2Fma,
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
fn window_writes_exactly_its_interior_f32() {
    window_writes_exactly_its_interior(f32_case().0);
}

#[test]
fn window_writes_exactly_its_interior_int8() {
    window_writes_exactly_its_interior(int8_case().0);
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

/// Median wall time of `f` over five runs after one warm-up, in ms.
fn median_ms(mut f: impl FnMut()) -> f64 {
    f();
    let mut ms: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    ms[2]
}

/// One probe row per pool size: a frame through the sequential plan, and
/// through one strip per pool thread (strip plans and the HR plane
/// included, as `sesr upscale` pays them).
fn probe_frame<D: Datapath>(name: &str, kernels: &Arc<D>, lr: &Tensor, radius: usize) {
    let (h, w) = (lr.shape()[1], lr.shape()[2]);
    for threads in [1, 2] {
        set_num_threads(threads);
        let mut plan = Plan::new(kernels.clone(), h, w);
        let sequential = median_ms(|| {
            std::hint::black_box(plan.run(lr));
        });
        let strips = TilePlan::strips(h, w, threads, radius);
        let striped = median_ms(|| {
            std::hint::black_box(run_tiles(kernels, lr, &strips));
        });
        println!(
            "{name} {h}x{w} pool {threads}: sequential plan {sequential:.2} ms, {} strip(s) {striped:.2} ms",
            strips.len()
        );
    }
}

/// How one frame scales over threads: m5 at 180x320 and 360x640, f32 and
/// int8, 1 and 2 threads. Run it in release, once per repetition:
/// `cargo test --release --test plan_datapaths -- --ignored --nocapture
/// strip_scaling_probe`.
#[test]
#[ignore = "timing probe; prints, asserts nothing"]
fn strip_scaling_probe() {
    let net = Sesr::new(SesrConfig::m(5).with_expanded(16).with_seed(0)).collapse();
    let radius = net.receptive_field_radius();
    let calib: Vec<Tensor> = (0..3)
        .map(|i| Tensor::rand_uniform(&[1, 32, 32], 0.0, 1.0, 60 + i))
        .collect();
    let qnet = QuantizedSesr::quantize(&net, &calibrate(&net, &calib));
    let f32_kernels = Arc::new(CollapsedKernels::new(&net));
    let int8_kernels = Arc::new(QuantKernels::new(&qnet));
    for (h, w) in [(180, 320), (360, 640)] {
        let lr = Tensor::rand_uniform(&[1, h, w], 0.0, 1.0, 5);
        probe_frame("f32", &f32_kernels, &lr, radius);
        probe_frame("int8", &int8_kernels, &lr, radius);
    }
    set_num_threads(default_threads());
}
