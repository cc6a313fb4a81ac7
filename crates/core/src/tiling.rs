//! Seam-exact tiled inference: tile-plan geometry and the one tiled
//! executor.
//!
//! The paper's DRAM optimization (Sec. 5.6) splits a large LR image into
//! tiles, runs the collapsed network per tile with a halo of `overlap`
//! pixels, and crops the halo after upscaling. This module extracts that
//! geometry into a first-class [`TilePlan`] and runs it for
//! `CollapsedSesr::run_tiled` (and `sesr upscale --tile N` through it).
//! [`TilePlan::strips`] cuts a frame into full-height vertical strips
//! instead, one per pool thread: that is how one frame spreads over
//! cores (`sesr upscale` without `--tile`), since a
//! [`crate::infer_plan::Plan`] runs on its caller's thread. Video
//! sessions hash tiles for CRC reuse, merge the dirty ones into
//! rectangles ([`TilePlan::dirty_rects`]), and run each rectangle as a
//! window into the session's HR frame. Whole frames no longer need
//! tiling to bound memory: a plan streams the chain depth-first through
//! row rings, so its arena grows with the width only, and the serving
//! engine runs large frames whole.
//!
//! There is one phase, compute ([`run_tiles`]): the plan's tiles fan over
//! `sesr_tensor::parallel::parallel_for` chunks on the persistent pool,
//! one [`TilePlanner`] per chunk. Each tile is a window of its shape's
//! plan ([`crate::infer_plan::Plan::run_tile_into`]): step 0 reads the
//! tile's halo-expanded region of the caller's LR plane in place, and the
//! head writes only the tile's interior, straight into the one HR plane.
//! Nothing is cropped, no per-tile SR patch exists, and nothing is
//! pasted. At one thread the fan-out runs inline on the caller.
//!
//! Which thread runs a tile never changes its arithmetic, so the output
//! stays bit-identical to whole-image execution at any thread count, on
//! either datapath. Two properties make tiling exact rather than merely
//! approximate:
//!
//! 1. **Halo ≥ receptive-field radius.** Every output pixel of the
//!    collapsed network depends on LR pixels within the network's
//!    receptive-field radius; a halo at least that wide means every
//!    interior output sees exactly the pixels it would see in a
//!    whole-image run. A window reads as zero outside its halo-expanded
//!    region, exactly as a cropped patch would. Plans with a smaller
//!    overlap are rejected with [`TileError::OverlapTooSmall`] instead of
//!    silently producing seams.
//! 2. **Even-aligned tile origins.** The Winograd `F(2x2, 3x3)` kernel
//!    computes 2x2 output tiles anchored at the patch origin; an output
//!    pixel's floating-point expression depends on its parity relative to
//!    that origin. [`TilePlan`] therefore rounds every halo origin down to
//!    an even coordinate (growing the halo by at most one pixel), keeping
//!    each patch phase-aligned with the full image so the arithmetic — and
//!    hence the bits — match exactly.

use crate::infer_plan::{Datapath, TilePlanner};
use sesr_tensor::parallel::{parallel_for, SendPtr};
use sesr_tensor::Tensor;
use std::fmt;
use std::sync::Arc;

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
    /// Interior height and width of a full (not edge-clipped) tile.
    tile: (usize, usize),
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
        Ok(Self::grid(h, w, (tile, tile), overlap))
    }

    /// Plans at most `n` full-height vertical strips with `overlap` halo
    /// pixels over an `h x w` image: the way one frame runs on `n`
    /// threads. Every strip but the last is `ceil(w / n)` columns wide, so
    /// none is empty: a width below `n` gets `w` one-column strips.
    /// Halos and origins follow [`TilePlan::new`]'s rules.
    pub fn strips(h: usize, w: usize, n: usize, overlap: usize) -> Self {
        Self::grid(h, w, (h.max(1), w.div_ceil(n.max(1)).max(1)), overlap)
    }

    /// The row-major grid of `(th, tw)` interiors (both positive) over an
    /// `h x w` image, edge tiles clipped, each with its halo.
    fn grid(h: usize, w: usize, (th, tw): (usize, usize), overlap: usize) -> Self {
        let mut tiles = Vec::new();
        let mut y0 = 0;
        while y0 < h {
            let y1 = (y0 + th).min(h);
            let mut x0 = 0;
            while x0 < w {
                let x1 = (x0 + tw).min(w);
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
        Self {
            tiles,
            h,
            w,
            tile: (th, tw),
            overlap,
        }
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

    /// Interior height and width of a full tile: `(tile, tile)` for
    /// [`TilePlan::new`], `(h, strip width)` for [`TilePlan::strips`].
    pub fn tile(&self) -> (usize, usize) {
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

    /// Merges the `dirty` tiles (one entry per tile, e.g. from
    /// [`TilePlan::recompute_mask`]) into rectangles that each run once
    /// with one halo, instead of one halo per tile.
    ///
    /// Each tile row's maximal runs of dirty tiles are found first; runs
    /// in consecutive tile rows with identical column spans then stack
    /// into one rectangle. A rectangle's [`TileSpec`] is the union of its
    /// members' specs — `ey0`/`ex0` from the first tile, `ey1`/`ex1` from
    /// the last — so its origin stays even and its halo covers the same
    /// radius on every side: the seam-exact argument of the module docs
    /// holds unchanged. A rectangle never includes a clean tile, and its
    /// patch is never larger than the sum of its members' patches.
    /// Rectangles come in row-major order of their first tile.
    ///
    /// # Panics
    ///
    /// When `dirty.len() != self.len()`.
    pub fn dirty_rects(&self, dirty: &[bool]) -> Vec<TileRect> {
        assert_eq!(
            dirty.len(),
            self.tiles.len(),
            "dirty mask must have one entry per tile"
        );
        if self.tiles.is_empty() {
            return Vec::new();
        }
        let cols = self.w.div_ceil(self.tile.1);
        let rows = self.tiles.len() / cols;
        // Open rectangles as (first row, column span), extended while the
        // next tile row has a run with the same span. Row `rows` has no
        // runs, so it closes every rectangle still open.
        let mut open: Vec<(usize, usize, usize)> = Vec::new();
        let mut done: Vec<(usize, usize, usize, usize)> = Vec::new();
        for r in 0..=rows {
            let row = dirty.get(r * cols..(r + 1) * cols).unwrap_or_default();
            let mut next = Vec::new();
            let mut c0 = 0;
            for run in row.chunk_by(|a, b| a == b) {
                let c1 = c0 + run.len();
                if run[0] {
                    let r0 = match open.iter().position(|&(_, a, b)| (a, b) == (c0, c1)) {
                        Some(i) => open.swap_remove(i).0,
                        None => r,
                    };
                    next.push((r0, c0, c1));
                }
                c0 = c1;
            }
            done.extend(open.drain(..).map(|(r0, c0, c1)| (r0, r, c0, c1)));
            open = next;
        }
        done.sort_unstable_by_key(|&(r0, _, c0, _)| (r0, c0));
        done.into_iter()
            .map(|(r0, r1, c0, c1)| {
                let first = &self.tiles[r0 * cols + c0];
                let last = &self.tiles[(r1 - 1) * cols + c1 - 1];
                TileRect {
                    spec: TileSpec {
                        y0: first.y0,
                        y1: last.y1,
                        x0: first.x0,
                        x1: last.x1,
                        ey0: first.ey0,
                        ey1: last.ey1,
                        ex0: first.ex0,
                        ex1: last.ex1,
                    },
                    tiles: (r0..r1)
                        .flat_map(|r| (c0..c1).map(move |c| r * cols + c))
                        .collect(),
                }
            })
            .collect()
    }
}

/// A block of whole tiles from [`TilePlan::dirty_rects`], run as one
/// patch with one halo.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileRect {
    /// The union of the member tiles' specs (even origin, one halo).
    pub spec: TileSpec,
    /// Member tile indices into [`TilePlan::tiles`], row-major.
    pub tiles: Vec<usize>,
}

/// Runs every tile of `plan` over `lr` (`[1, H, W]`) on `kernels`'
/// datapath and returns the `[1, H * scale, W * scale]` HR plane. Tiles
/// fan over `parallel_for` chunks, one [`TilePlanner`] per chunk, so
/// same-shaped tiles in a chunk reuse one compiled plan and its arena;
/// each tile reads its window of `lr` in place and writes its interior
/// straight into the HR plane. A panic in any tile reaches the caller
/// (`parallel_for` re-raises it on the submitting thread).
///
/// # Panics
///
/// When `lr` is not the `[1, H, W]` image `plan` was built for.
pub fn run_tiles<D: Datapath>(kernels: &Arc<D>, lr: &Tensor, plan: &TilePlan) -> Tensor {
    let (h, w) = (plan.image_h(), plan.image_w());
    assert_eq!(lr.shape(), &[1, h, w], "image must match the tile plan");
    let s = kernels.graph().scale();
    let mut hr = Tensor::zeros(&[1, h * s, w * s]);
    let len = hr.data().len();
    let out = SendPtr(hr.data_mut().as_mut_ptr());
    let tiles = plan.tiles();
    parallel_for(tiles.len(), 1, |a, b| {
        let mut planner = TilePlanner::new(kernels.clone());
        for spec in &tiles[a..b] {
            let tile = planner.plan_for(spec.patch_h(), spec.patch_w());
            // SAFETY: `hr` is the `h*s x w*s` plane of `lr` and outlives
            // `parallel_for`, which returns only after every chunk ran.
            // A tile writes only its interior's HR region, and the
            // interiors partition the image (`interiors_partition_the_image`
            // below), so no two tiles, in any chunk, write the same float.
            unsafe { tile.run_window(lr.data(), w, spec, out, len, None) };
        }
    });
    hr
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_tile_is_rejected() {
        assert_eq!(TilePlan::new(8, 8, 0, 2).unwrap_err(), TileError::ZeroTile);
    }

    /// Square tiles, and strips with their `n` — below, at and above the
    /// width.
    fn plans() -> Vec<(TilePlan, Option<usize>)> {
        let mut plans = vec![(TilePlan::new(17, 23, 6, 4).unwrap(), None)];
        for (h, w, n) in [(17, 23, 2), (17, 23, 4), (9, 3, 2), (5, 7, 7), (5, 7, 16)] {
            plans.push((TilePlan::strips(h, w, n, 4), Some(n)));
        }
        plans
    }

    #[test]
    fn interiors_partition_the_image() {
        for (plan, n) in plans() {
            let (h, w) = (plan.image_h(), plan.image_w());
            let mut covered = vec![0u8; h * w];
            for t in plan.tiles() {
                assert!(t.ey0 <= t.y0 && t.y1 <= t.ey1);
                assert!(t.ex0 <= t.x0 && t.x1 <= t.ex1);
                assert!(t.y0 < t.y1 && t.x0 < t.x1, "empty tile {t:?}");
                for y in t.y0..t.y1 {
                    for x in t.x0..t.x1 {
                        covered[y * w + x] += 1;
                    }
                }
            }
            assert!(
                covered.iter().all(|&c| c == 1),
                "interiors must tile the image exactly once"
            );
            if let Some(n) = n {
                assert!(plan.len() <= n, "{} strips for n = {n}", plan.len());
                assert!(plan.tiles().iter().all(|t| (t.ey0, t.ey1) == (0, h)));
            }
        }
    }

    #[test]
    fn halo_origins_are_even_aligned() {
        let square = [(24, 24, 7, 3), (31, 19, 5, 6), (16, 16, 4, 1)]
            .map(|(h, w, tile, overlap)| TilePlan::new(h, w, tile, overlap).unwrap());
        let strips = [(31, 19, 3, 6), (16, 16, 4, 1)]
            .map(|(h, w, n, overlap)| TilePlan::strips(h, w, n, overlap));
        for plan in square.iter().chain(&strips) {
            let overlap = plan.overlap();
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

    /// Grid `(row, col)` spans of each rectangle, for readable asserts.
    fn spans(plan: &TilePlan, rects: &[TileRect]) -> Vec<((usize, usize), (usize, usize))> {
        let (t, _) = plan.tile();
        rects
            .iter()
            .map(|r| {
                let s = r.spec;
                ((s.y0 / t, s.y1.div_ceil(t)), (s.x0 / t, s.x1.div_ceil(t)))
            })
            .collect()
    }

    #[test]
    fn dirty_rects_partition_exactly_the_dirty_interiors() {
        for (h, w, tile, overlap) in [(17, 23, 6, 4), (96, 160, 32, 15), (31, 19, 5, 6)] {
            let plan = TilePlan::new(h, w, tile, overlap).unwrap();
            let mut state = 0x9E37_79B9u64 ^ (h * w) as u64;
            for _ in 0..64 {
                let dirty: Vec<bool> = (0..plan.len())
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        !(state >> 33).is_multiple_of(3)
                    })
                    .collect();
                let rects = plan.dirty_rects(&dirty);
                let mut covered = vec![0u8; h * w];
                let mut members = vec![0u8; plan.len()];
                for r in &rects {
                    let s = r.spec;
                    assert_eq!((s.ey0 % 2, s.ex0 % 2), (0, 0), "{s:?}");
                    let summed: usize = r
                        .tiles
                        .iter()
                        .map(|&i| plan.tiles()[i].patch_h() * plan.tiles()[i].patch_w())
                        .sum();
                    assert!(s.patch_h() * s.patch_w() <= summed, "{s:?}");
                    for &i in &r.tiles {
                        assert!(dirty[i], "clean tile {i} inside {s:?}");
                        members[i] += 1;
                    }
                    for y in s.y0..s.y1 {
                        for x in s.x0..s.x1 {
                            covered[y * w + x] += 1;
                        }
                    }
                }
                for (i, t) in plan.tiles().iter().enumerate() {
                    assert_eq!(members[i], u8::from(dirty[i]), "tile {i}");
                    for y in t.y0..t.y1 {
                        for x in t.x0..t.x1 {
                            assert_eq!(covered[y * w + x], u8::from(dirty[i]), "({y},{x})");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn dirty_rects_keep_every_member_halo() {
        // A rectangle's halo-expanded region covers each member tile's:
        // every member output sees the pixels it would see alone.
        let plan = TilePlan::new(40, 52, 8, 5).unwrap();
        let rects = plan.dirty_rects(&vec![true; plan.len()]);
        assert_eq!(rects.len(), 1);
        let s = rects[0].spec;
        assert_eq!((s.y0, s.y1, s.x0, s.x1), (0, 40, 0, 52));
        assert_eq!((s.ey0, s.ey1, s.ex0, s.ex1), (0, 40, 0, 52));
        for (i, t) in plan.tiles().iter().enumerate() {
            assert!(s.ey0 <= t.ey0 && t.ey1 <= s.ey1, "tile {i}");
            assert!(s.ex0 <= t.ex0 && t.ex1 <= s.ex1, "tile {i}");
        }
        assert!(plan.dirty_rects(&vec![false; plan.len()]).is_empty());
    }

    #[test]
    fn dirty_rects_split_an_l_shape_into_two() {
        // 4x4 grid: column 0 dirty in rows 0-3, plus row 3 columns 1-2.
        // Rows 0-2 share the span [0, 1); row 3's run [0, 3) differs.
        let plan = TilePlan::new(32, 32, 8, 2).unwrap();
        let mut dirty = vec![false; plan.len()];
        for r in 0..4 {
            dirty[r * 4] = true;
        }
        dirty[13] = true;
        dirty[14] = true;
        let rects = plan.dirty_rects(&dirty);
        assert_eq!(
            spans(&plan, &rects),
            vec![((0, 3), (0, 1)), ((3, 4), (0, 3))]
        );
        assert_eq!(rects[0].tiles, vec![0, 4, 8]);
        assert_eq!(rects[1].tiles, vec![12, 13, 14]);
    }

    #[test]
    fn dirty_rects_merge_the_pan_into_one_rectangle() {
        // 96x160 LR, 32 px tiles, an m11-radius (15 px) halo: a sprite
        // stepping from tile (1, 1) to (1, 2) changes two tiles, which
        // dirties 12 (every row, columns 0-3) — one 96x143 rectangle.
        let plan = TilePlan::new(96, 160, 32, 15).unwrap();
        let mut changed = vec![false; plan.len()];
        changed[5 + 1] = true;
        changed[5 + 2] = true;
        let rects = plan.dirty_rects(&plan.recompute_mask(&changed));
        assert_eq!(spans(&plan, &rects), vec![((0, 3), (0, 4))]);
        assert_eq!(rects[0].tiles.len(), 12);
        let s = rects[0].spec;
        assert_eq!((s.patch_h(), s.patch_w()), (96, 143));
        // The step from (1, 2) to (1, 3) gives columns 1-4: 96x144.
        let mut changed = vec![false; plan.len()];
        changed[5 + 2] = true;
        changed[5 + 3] = true;
        let rects = plan.dirty_rects(&plan.recompute_mask(&changed));
        assert_eq!(spans(&plan, &rects), vec![((0, 3), (1, 5))]);
        let s = rects[0].spec;
        assert_eq!((s.ex0, s.patch_h(), s.patch_w()), (16, 96, 144));
        // Per-tile patches would have summed to far more work.
        let summed: usize = rects[0]
            .tiles
            .iter()
            .map(|&i| plan.tiles()[i].patch_h() * plan.tiles()[i].patch_w())
            .sum();
        assert!(summed > 2 * s.patch_h() * s.patch_w(), "{summed}");
    }

    #[test]
    #[should_panic(expected = "one entry per tile")]
    fn dirty_rects_rejects_wrong_length() {
        let plan = TilePlan::new(16, 16, 8, 2).unwrap();
        let _ = plan.dirty_rects(&[true]);
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
