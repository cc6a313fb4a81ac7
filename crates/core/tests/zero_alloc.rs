//! Proves the planned execution path's zero-allocation claim with a
//! counting global allocator: after the plan is built and warmed up,
//! `InferPlan::run_image_into` must not touch the heap.
//!
//! This is its own integration binary (not a unit test) so the counting
//! allocator observes only this test's allocations, and the pool size can
//! be pinned without racing other tests. A plan runs on its caller's
//! thread, so the claim holds at every pool size; the check runs at pools
//! of 1 and 2.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sesr_core::infer_plan::{CollapsedKernels, InferPlan, TilePlanner};
use sesr_core::model::{Sesr, SesrConfig};
use sesr_core::TilePlan;
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
fn planned_run_is_allocation_free_after_warmup() {
    let net = Sesr::new(SesrConfig::m(3).with_expanded(8).with_seed(7)).collapse();
    let kernels = Arc::new(CollapsedKernels::new(&net));
    // Tall enough that the plan streams several row groups through its
    // rings, wrapping them.
    let (h, w) = (160, 40);
    let lr = Tensor::rand_uniform(&[1, h, w], 0.0, 1.0, 1);
    let reference = net.run_reference(&lr);
    let scale = net.scale();
    for threads in [1, 2] {
        set_num_threads(threads);
        let mut plan = InferPlan::new(kernels.clone(), h, w);
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
            "steady-state planned run must not allocate at a pool of {threads}"
        );

        // The allocation-free path still produces the exact reference bits.
        assert_eq!(reference.data(), out.as_slice());

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
        let mut planner = TilePlanner::new(kernels.clone());
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
        assert_eq!(reference.data(), out.as_slice());
    }
}
