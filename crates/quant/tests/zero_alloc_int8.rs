//! Proves the planned int8 path's zero-allocation claim with a counting
//! global allocator: after the plan is built and warmed up,
//! `QuantPlan::run_image_into` must not touch the heap, and neither must
//! a warm `QuantTilePlanner` window run (`Plan::run_tile_into`). Row-tap
//! descriptors live in fixed stack arrays and all intermediates —
//! packed activation planes and i32 accumulator slabs — live in the
//! single arena sized at compile time of the plan.
//!
//! Mirrors `crates/core/tests/zero_alloc.rs`: its own integration binary
//! so the counting allocator observes only this test, checked at pools of
//! 1 and 2 (a plan runs on its caller's thread at any pool size).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sesr_core::model::{Sesr, SesrConfig};
use sesr_core::TilePlan;
use sesr_quant::{calibrate, QuantKernels, QuantPlan, QuantTilePlanner, QuantizedSesr};
use sesr_tensor::parallel::set_num_threads;
use sesr_tensor::Tensor;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn planned_int8_run_is_allocation_free_after_warmup() {
    let net = Sesr::new(SesrConfig::m(3).with_expanded(8).with_seed(7)).collapse();
    let calib: Vec<Tensor> = (0..3)
        .map(|i| Tensor::rand_uniform(&[1, 20, 20], 0.0, 1.0, 30 + i))
        .collect();
    let profile = calibrate(&net, &calib);
    let qnet = QuantizedSesr::quantize(&net, &profile);
    let kernels = Arc::new(QuantKernels::new(&qnet));
    // Tall enough that the plan streams several row groups through its
    // rings, wrapping them.
    let (h, w) = (160, 40);
    let lr = Tensor::rand_uniform(&[1, h, w], 0.0, 1.0, 1);
    let oracle = qnet.run(&lr);
    let scale = net.scale();
    for threads in [1, 2] {
        set_num_threads(threads);
        let mut plan = QuantPlan::new(kernels.clone(), h, w);
        assert!(2 * plan.group_rows() < h, "the plan must stream");
        let mut out = vec![0.0f32; h * scale * w * scale];

        // Warmup (first run touches nothing lazily today, but keep the
        // claim honest about "steady state").
        plan.run_image_into(lr.data(), &mut out);

        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for _ in 0..3 {
            plan.run_image_into(lr.data(), &mut out);
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        assert_eq!(
            after - before,
            0,
            "steady-state planned int8 run must not allocate at a pool of {threads}"
        );

        // The allocation-free path still produces the exact oracle bits.
        assert_eq!(oracle.data(), out.as_slice());

        // A warm tile planner's window at a non-zero origin: the plan
        // reads the tile's halo region of `lr` in place and writes its
        // interior into the preallocated HR plane, which already holds
        // those bits.
        let tiling = TilePlan::new(h, w, 24, net.receptive_field_radius()).unwrap();
        let spec = *tiling
            .tiles()
            .iter()
            .find(|t| t.ey0 > 0 && t.ex0 > 0)
            .expect("an inner tile");
        let mut planner = QuantTilePlanner::new(kernels.clone());
        let mut window = |out: &mut [f32]| {
            let plan = planner.plan_for(spec.patch_h(), spec.patch_w());
            plan.run_tile_into(lr.data(), w, &spec, out);
        };
        window(&mut out);
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for _ in 0..3 {
            window(&mut out);
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        assert_eq!(
            after - before,
            0,
            "a warm window run must not allocate at a pool of {threads}"
        );
        assert_eq!(oracle.data(), out.as_slice());
    }
}
