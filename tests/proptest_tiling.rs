//! Property-based seam correctness of tiled inference: for *any* tile
//! size, and *any* overlap at or above the receptive-field radius, the
//! tiled executor must be **bit-identical** to whole-image
//! [`CollapsedSesr::run`], whether its tiles run inline on one thread or
//! fan across the pool — the halo alignment in `TilePlan` guarantees even
//! the floating-point rounding matches. Overlaps below the radius are
//! rejected with a typed error instead of silently producing seams.
//!
//! [`CollapsedSesr::run`]: sesr::core::CollapsedSesr

use proptest::prelude::*;
use sesr::core::model::{Sesr, SesrConfig};
use sesr::core::tiling::TileError;
use sesr::core::CollapsedSesr;
use sesr::tensor::parallel::set_num_threads;
use sesr::tensor::Tensor;
use std::sync::OnceLock;

/// The pool's default size (what `num_threads` starts at), independent
/// of any override a test left behind.
fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(16))
}

/// Models are expensive to collapse; build each config once per process.
fn model(scale: usize) -> &'static CollapsedSesr {
    static X2: OnceLock<CollapsedSesr> = OnceLock::new();
    static X4: OnceLock<CollapsedSesr> = OnceLock::new();
    let cell = if scale == 2 { &X2 } else { &X4 };
    cell.get_or_init(|| {
        Sesr::new(
            SesrConfig::m(2)
                .with_expanded(8)
                .with_seed(17)
                .with_scale(scale),
        )
        .collapse()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sweep tile sizes and overlaps ≥ the receptive-field radius: the
    /// tiled executor reproduces the whole-image result bit-for-bit at one
    /// thread (tiles inline) and at the default thread count (tiles
    /// fanned across the pool).
    #[test]
    fn tiled_inference_is_seam_free_and_bit_identical(
        tile in 4usize..20,
        extra in 0usize..4,
        h in 13usize..28,
        w in 13usize..28,
        scale_x4 in any::<bool>(),
        seed in 0u64..1000,
    ) {
        let model = model(if scale_x4 { 4 } else { 2 });
        let radius = model.receptive_field_radius();
        let overlap = radius + extra;
        let lr = Tensor::rand_uniform(&[1, h, w], 0.0, 1.0, seed);
        let whole = model.run(&lr);
        for threads in [1, default_threads()] {
            set_num_threads(threads);
            let tiled = model.run_tiled(&lr, tile, overlap).unwrap();
            prop_assert_eq!(whole.shape(), tiled.shape());
            prop_assert!(
                whole.max_abs_diff(&tiled) == 0.0,
                "tiled path differs at {} thread(s) (tile {}, overlap {})",
                threads, tile, overlap
            );
        }
    }

    /// Any overlap below the receptive-field radius is a typed error
    /// carrying the required minimum, never a silently seamed image.
    #[test]
    fn insufficient_overlap_is_rejected(
        tile in 4usize..20,
        short in 1usize..7,
        seed in 0u64..1000,
    ) {
        let model = model(2);
        let radius = model.receptive_field_radius();
        prop_assert!(short <= radius);
        let overlap = radius - short;
        let lr = Tensor::rand_uniform(&[1, 16, 16], 0.0, 1.0, seed);
        let err = model.run_tiled(&lr, tile, overlap).unwrap_err();
        prop_assert_eq!(
            err,
            TileError::OverlapTooSmall { required: radius, got: overlap }
        );
    }
}
