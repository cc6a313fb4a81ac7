//! Seam-exact tiled inference: tile-plan geometry and the one tiled
//! executor.
//!
//! The paper's DRAM optimization (Sec. 5.6) splits a large LR image into
//! tiles, runs the collapsed network per tile with a halo of `overlap`
//! pixels, and crops the halo after upscaling. This module extracts that
//! geometry into a first-class [`TilePlan`] and runs it in two phases that
//! every caller shares — `CollapsedSesr::run_tiled`, the serving engine's
//! tiled path and the video session's dirty-tile recompute:
//!
//! * **Compute** ([`run_tiles`]): the plan's tiles fan over
//!   `sesr_tensor::parallel::parallel_for` chunks on the persistent pool,
//!   one [`TilePlanner`] per chunk, each tile through the same
//!   single-band plan; the result is every tile's SR patch plus the peak
//!   arena size. At one thread the fan-out runs inline on the caller.
//! * **Composite** ([`TiledRun::composite`]): one [`paste_interior`] per
//!   tile, built on `Tensor::copy_region_hw`.
//!
//! Which thread runs a tile never changes its arithmetic, so the
//! composite stays bit-identical to whole-image execution at any thread
//! count, on either datapath. Two properties make tiling exact rather
//! than merely approximate:
//!
//! 1. **Halo ≥ receptive-field radius.** Every output pixel of the
//!    collapsed network depends on LR pixels within the network's
//!    receptive-field radius; a halo at least that wide means every
//!    interior output sees exactly the pixels it would see in a
//!    whole-image run. Plans with a smaller overlap are rejected with
//!    [`TileError::OverlapTooSmall`] instead of silently producing seams.
//! 2. **Even-aligned tile origins.** The Winograd `F(2x2, 3x3)` kernel
//!    computes 2x2 output tiles anchored at the patch origin; an output
//!    pixel's floating-point expression depends on its parity relative to
//!    that origin. [`TilePlan`] therefore rounds every halo origin down to
//!    an even coordinate (growing the halo by at most one pixel), keeping
//!    each patch phase-aligned with the full image so the arithmetic — and
//!    hence the bits — match exactly.

use crate::infer_plan::{Datapath, TilePlanner};
use sesr_tensor::parallel::parallel_for;
use sesr_tensor::Tensor;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Typed failure modes of tile-plan construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TileError {
    /// The tile side length was zero.
    ZeroTile,
    /// The requested halo is smaller than the collapsed network's
    /// receptive-field radius, which would produce silent seams.
    OverlapTooSmall {
        /// Minimum halo for seam-exact output (the receptive-field radius).
        required: usize,
        /// The halo that was requested.
        got: usize,
    },
}

impl fmt::Display for TileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TileError::ZeroTile => write!(f, "tile size must be positive"),
            TileError::OverlapTooSmall { required, got } => write!(
                f,
                "tile overlap {got} is below the receptive-field radius {required}; \
                 output would have visible seams"
            ),
        }
    }
}

impl std::error::Error for TileError {}

/// One tile of a [`TilePlan`]: the interior region this tile is
/// responsible for, plus the halo-expanded region that is actually run
/// through the network. All coordinates are LR-space, half-open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileSpec {
    /// Interior rows `[y0, y1)` — the output region this tile owns.
    pub y0: usize,
    /// Interior row end (exclusive).
    pub y1: usize,
    /// Interior columns `[x0, x1)`.
    pub x0: usize,
    /// Interior column end (exclusive).
    pub x1: usize,
    /// Halo-expanded row start (even-aligned; see module docs).
    pub ey0: usize,
    /// Halo-expanded row end (exclusive, clamped to the image).
    pub ey1: usize,
    /// Halo-expanded column start (even-aligned).
    pub ex0: usize,
    /// Halo-expanded column end (exclusive, clamped to the image).
    pub ex1: usize,
}

impl TileSpec {
    /// Height of the halo-expanded patch fed to the network.
    pub fn patch_h(&self) -> usize {
        self.ey1 - self.ey0
    }

    /// Width of the halo-expanded patch fed to the network.
    pub fn patch_w(&self) -> usize {
        self.ex1 - self.ex0
    }
}

/// The full tiling of an `h x w` LR image: a set of non-overlapping
/// interior regions covering the image, each with its halo-expanded run
/// region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TilePlan {
    tiles: Vec<TileSpec>,
    h: usize,
    w: usize,
    tile: usize,
    overlap: usize,
}

impl TilePlan {
    /// Plans tiles of side `tile` with `overlap` halo pixels over an
    /// `h x w` image. Validates only the geometry; use
    /// `CollapsedSesr::plan_tiles` to also enforce the receptive-field
    /// bound for a specific network.
    ///
    /// # Errors
    ///
    /// [`TileError::ZeroTile`] when `tile == 0`.
    pub fn new(h: usize, w: usize, tile: usize, overlap: usize) -> Result<Self, TileError> {
        if tile == 0 {
            return Err(TileError::ZeroTile);
        }
        let mut tiles = Vec::new();
        let mut y0 = 0;
        while y0 < h {
            let y1 = (y0 + tile).min(h);
            let mut x0 = 0;
            while x0 < w {
                let x1 = (x0 + tile).min(w);
                // Halo, clamped to the image and rounded down to an even
                // origin so Winograd tile phase matches the whole image
                // (bit-identity; see module docs). Extra halo is harmless.
                let ey0 = y0.saturating_sub(overlap) & !1;
                let ex0 = x0.saturating_sub(overlap) & !1;
                let ey1 = (y1 + overlap).min(h);
                let ex1 = (x1 + overlap).min(w);
                tiles.push(TileSpec {
                    y0,
                    y1,
                    x0,
                    x1,
                    ey0,
                    ey1,
                    ex0,
                    ex1,
                });
                x0 = x1;
            }
            y0 = y1;
        }
        Ok(Self {
            tiles,
            h,
            w,
            tile,
            overlap,
        })
    }

    /// The planned tiles, row-major over the image.
    pub fn tiles(&self) -> &[TileSpec] {
        &self.tiles
    }

    /// Number of tiles.
    pub fn len(&self) -> usize {
        self.tiles.len()
    }

    /// True when the plan covers a degenerate (empty) image.
    pub fn is_empty(&self) -> bool {
        self.tiles.is_empty()
    }

    /// LR image height this plan was built for.
    pub fn image_h(&self) -> usize {
        self.h
    }

    /// LR image width this plan was built for.
    pub fn image_w(&self) -> usize {
        self.w
    }

    /// The requested tile side length.
    pub fn tile(&self) -> usize {
        self.tile
    }

    /// The requested halo width.
    pub fn overlap(&self) -> usize {
        self.overlap
    }

    /// Dirty-rectangle planning for temporal tile reuse: given which
    /// tiles' *interiors* changed since the previous frame, returns which
    /// tiles must be recomputed so the composite stays bit-identical to a
    /// whole-image run.
    ///
    /// Tile `T` must be recomputed exactly when its halo-expanded run
    /// region `[ey0, ey1) x [ex0, ex1)` intersects some changed tile's
    /// interior: `T`'s output depends on precisely the pixels in its
    /// expanded region, so if none of them changed, the previous output
    /// bits are still exact and can be reused verbatim. The converse
    /// direction is what makes naive "recompute only changed tiles" wrong
    /// — a change in a neighbour's interior leaks into `T` through the
    /// halo.
    ///
    /// # Panics
    ///
    /// When `changed.len() != self.len()`.
    pub fn recompute_mask(&self, changed: &[bool]) -> Vec<bool> {
        assert_eq!(
            changed.len(),
            self.tiles.len(),
            "changed mask must have one entry per tile"
        );
        // O(tiles^2) pairwise intersection. Tile counts are small (a
        // 1080p frame at tile=96 is 12x20 = 240 tiles, ~58k cheap
        // comparisons) so this stays well under a microsecond; a sweep
        // over the changed bounding rows would only obscure the rule.
        self.tiles
            .iter()
            .map(|t| {
                self.tiles.iter().zip(changed).any(|(u, &dirty)| {
                    dirty && t.ey0 < u.y1 && u.y0 < t.ey1 && t.ex0 < u.x1 && u.x0 < t.ex1
                })
            })
            .collect()
    }
}

/// Every tile's output from one [`run_tiles`] call.
#[derive(Debug)]
pub struct TiledRun {
    /// Each tile's SR patch, halo included, in [`TilePlan::tiles`] order.
    pub patches: Vec<Tensor>,
    /// Largest arena any chunk's planner ran in, in bytes (telemetry).
    pub peak_arena_bytes: usize,
    scale: usize,
}

impl TiledRun {
    /// The composite phase: pastes every patch's interior into a fresh
    /// `[1, h * scale, w * scale]` plane.
    ///
    /// # Panics
    ///
    /// When `plan` is not the plan these patches were computed for.
    pub fn composite(&self, plan: &TilePlan) -> Tensor {
        assert_eq!(self.patches.len(), plan.len(), "one patch per tile");
        let s = self.scale;
        let mut out = Tensor::zeros(&[1, plan.image_h() * s, plan.image_w() * s]);
        for (spec, sr) in plan.tiles().iter().zip(&self.patches) {
            paste_interior(&mut out, sr, spec, s);
        }
        out
    }
}

/// The compute phase: runs every tile of `plan` over `lr` (`[1, H, W]`)
/// on `kernels`' datapath. Tiles fan over `parallel_for` chunks, one
/// [`TilePlanner`] per chunk, so same-shaped tiles in a chunk reuse one
/// compiled single-band plan and its arena. A panic in any tile reaches
/// the caller (`parallel_for` re-raises it on the submitting thread).
pub fn run_tiles<D: Datapath>(kernels: &Arc<D>, lr: &Tensor, plan: &TilePlan) -> TiledRun {
    let tiles = plan.tiles();
    let slots: Vec<OnceLock<Tensor>> = tiles.iter().map(|_| OnceLock::new()).collect();
    let peak = AtomicUsize::new(0);
    parallel_for(tiles.len(), 1, |a, b| {
        let mut planner = TilePlanner::new(kernels.clone());
        for (slot, spec) in slots[a..b].iter().zip(&tiles[a..b]) {
            let _ = slot.set(planner.run_tile(lr, spec));
        }
        peak.fetch_max(planner.max_arena_bytes(), Ordering::Relaxed);
    });
    TiledRun {
        patches: slots
            .into_iter()
            .map(|s| s.into_inner().expect("every tile ran"))
            .collect(),
        peak_arena_bytes: peak.into_inner(),
        scale: kernels.graph().scale(),
    }
}

/// Pastes the interior of tile `spec`'s halo-expanded SR patch `sr` into
/// the HR plane `out`; `s` is the upscaling factor.
pub fn paste_interior(out: &mut Tensor, sr: &Tensor, spec: &TileSpec, s: usize) {
    out.copy_region_hw(
        sr,
        (spec.y0 - spec.ey0) * s,
        (spec.x0 - spec.ex0) * s,
        (spec.y1 - spec.y0) * s,
        (spec.x1 - spec.x0) * s,
        spec.y0 * s,
        spec.x0 * s,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_tile_is_rejected() {
        assert_eq!(TilePlan::new(8, 8, 0, 2).unwrap_err(), TileError::ZeroTile);
    }

    #[test]
    fn interiors_partition_the_image() {
        let plan = TilePlan::new(17, 23, 6, 4).unwrap();
        let mut covered = vec![0u8; 17 * 23];
        for t in plan.tiles() {
            assert!(t.ey0 <= t.y0 && t.y1 <= t.ey1);
            assert!(t.ex0 <= t.x0 && t.x1 <= t.ex1);
            for y in t.y0..t.y1 {
                for x in t.x0..t.x1 {
                    covered[y * 23 + x] += 1;
                }
            }
        }
        assert!(
            covered.iter().all(|&c| c == 1),
            "interiors must tile the image exactly once"
        );
    }

    #[test]
    fn halo_origins_are_even_aligned() {
        for (h, w, tile, overlap) in [(24, 24, 7, 3), (31, 19, 5, 6), (16, 16, 4, 1)] {
            let plan = TilePlan::new(h, w, tile, overlap).unwrap();
            for t in plan.tiles() {
                assert_eq!(t.ey0 % 2, 0, "{t:?}");
                assert_eq!(t.ex0 % 2, 0, "{t:?}");
                // Even-alignment may grow the halo, never shrink it.
                assert!(t.y0 - t.ey0 >= overlap.min(t.y0));
                assert!(t.x0 - t.ex0 >= overlap.min(t.x0));
            }
        }
    }

    #[test]
    fn recompute_mask_static_frame_recomputes_nothing() {
        let plan = TilePlan::new(32, 32, 8, 2).unwrap();
        let none = vec![false; plan.len()];
        assert!(plan.recompute_mask(&none).iter().all(|&r| !r));
        let all = vec![true; plan.len()];
        assert!(plan.recompute_mask(&all).iter().all(|&r| r));
    }

    #[test]
    fn recompute_mask_expands_changes_by_the_halo() {
        // 32x32 image, 8px tiles, 2px halo: a change in tile (1,1)'s
        // interior must recompute (1,1) and every neighbour whose
        // expanded region reaches into it — with a 2px halo (even-aligned
        // origins can grow it to 3) that is exactly the 8 surrounding
        // tiles — but not tiles two steps away.
        let plan = TilePlan::new(32, 32, 8, 2).unwrap();
        let cols = 4;
        let mut changed = vec![false; plan.len()];
        changed[cols + 1] = true; // tile (row 1, col 1)
        let mask = plan.recompute_mask(&changed);
        for (i, t) in plan.tiles().iter().enumerate() {
            let row = t.y0 / 8;
            let col = t.x0 / 8;
            let near = row.abs_diff(1) <= 1 && col.abs_diff(1) <= 1;
            assert_eq!(mask[i], near, "tile ({row},{col})");
        }
    }

    #[test]
    fn recompute_mask_is_monotone_in_the_changed_set() {
        // More dirt can only recompute more tiles, never fewer.
        let plan = TilePlan::new(17, 23, 6, 4).unwrap();
        let mut a = vec![false; plan.len()];
        a[0] = true;
        let mut b = a.clone();
        b[plan.len() - 1] = true;
        let ma = plan.recompute_mask(&a);
        let mb = plan.recompute_mask(&b);
        for i in 0..plan.len() {
            assert!(!ma[i] || mb[i]);
        }
    }

    #[test]
    #[should_panic(expected = "one entry per tile")]
    fn recompute_mask_rejects_wrong_length() {
        let plan = TilePlan::new(16, 16, 8, 2).unwrap();
        let _ = plan.recompute_mask(&[true]);
    }

    #[test]
    fn error_messages_are_actionable() {
        let e = TileError::OverlapTooSmall {
            required: 9,
            got: 2,
        };
        let msg = e.to_string();
        assert!(msg.contains('9') && msg.contains('2'), "{msg}");
    }
}
