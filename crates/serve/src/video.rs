//! Streaming video SR sessions: temporal tile reuse, dirty-rect
//! planning, and any-time deadline-adaptive quality.
//!
//! The paper's x2 FHD→UHD accounting targets *video*, where consecutive
//! frames are mostly identical. This module exploits that redundancy on
//! top of the existing seam-exact tile machinery:
//!
//! * **Temporal tile reuse.** A [`VideoSession`] keeps one CRC32 content
//!   hash per [`TilePlan`] tile (interior LR bytes) plus the previous
//!   frame's composited HR plane. A tile whose halo-expanded input is
//!   unchanged since the last frame keeps its cached HR bits verbatim —
//!   zero compute, one blit.
//! * **Dirty-rect planning.** Changed tiles are expanded by the halo
//!   radius through [`TilePlan::recompute_mask`]: tile `T` recomputes
//!   exactly when some changed interior intersects `T`'s run region.
//!   Because `T`'s output depends on precisely its expanded region, the
//!   reused+recomputed composite is **bit-identical** to a whole-frame
//!   run (enforced by proptest in `tests/video.rs`).
//! * **Any-time quality ladder.** Under deadline pressure the session
//!   degrades PSNR instead of latency (after "ARM: Any-Time
//!   Super-Resolution Method"): each dirty tile picks a rung of the
//!   M3/M5/M7/M11 ladder from a cheap edge-energy difficulty estimate,
//!   then rungs are walked down when the per-rung EWMA cost model says
//!   the remaining deadline cannot fit the remaining tiles. Hard tiles
//!   are computed first at high rungs so the cheap rungs land on flat
//!   tiles, where the PSNR loss is smallest.
//!
//! The session itself is a pure state machine — hashing, planning,
//! compositing — with no threads or queues; `engine::Engine` wires it
//! into the worker pool as a new request kind (create/feed/close with
//! idempotent frame settlement), and `router::Router` adds per-tenant
//! session caps and shard pinning on top.

// Video sessions always serve f32 (`PlanCache::tile_planner_for` is
// f32-only): temporal tile reuse composites cached HR tiles across
// frames, and mixing precisions within one session would break its
// bit-consistency guarantees (a composited frame must equal the
// whole-frame run).
use crate::plan_cache::PlanCache;
use crate::registry::ModelKey;
use sesr_core::crc32::Crc32;
use sesr_core::tiling::paste_interior;
use sesr_core::{CollapsedSesr, TileError, TilePlan, TileSpec};
use sesr_tensor::Tensor;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Ladder histogram buckets tracked per session (rungs past the last
/// bucket clamp into it, like the engine's `video_rung_3` counter).
pub const RUNG_BUCKETS: usize = 4;

/// Typed failure modes of the video-session layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VideoError {
    /// The model ladder was empty.
    EmptyLadder,
    /// Ladder rungs disagree on the upscale factor; a session composites
    /// into one HR plane, so every rung must share a scale.
    MixedScale {
        /// Scale of the first rung.
        expected: usize,
        /// The offending rung's key.
        offender: ModelKey,
    },
    /// Frame height or width was zero.
    ZeroDim,
    /// Tile geometry was invalid.
    Tile(TileError),
    /// A model in the ladder could not be resolved.
    ModelLoad(String),
    /// A fed frame's shape did not match the session's `[1, H, W]`.
    FrameShape {
        /// Shape the session was opened with.
        expected: [usize; 3],
        /// Shape of the offending frame.
        got: Vec<usize>,
    },
    /// The frame sequence number is older than the last settled frame.
    StaleFrame {
        /// The rejected sequence number.
        seq: u64,
        /// The newest settled sequence number.
        last: u64,
    },
    /// No session with this id (never opened, or already closed).
    UnknownSession(u64),
    /// The tenant is at its concurrent-session cap.
    SessionLimit {
        /// The configured cap.
        limit: usize,
    },
    /// The shard a session was pinned to was replaced; its state is gone.
    SessionLost,
    /// The engine (or router) is draining; no new sessions or frames.
    Draining,
}

impl fmt::Display for VideoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VideoError::EmptyLadder => write!(f, "video session needs at least one ladder rung"),
            VideoError::MixedScale { expected, offender } => write!(
                f,
                "ladder rung {offender} does not match session scale x{expected}"
            ),
            VideoError::ZeroDim => write!(f, "frame dimensions must be positive"),
            VideoError::Tile(e) => write!(f, "tile plan: {e}"),
            VideoError::ModelLoad(m) => write!(f, "ladder model load failed: {m}"),
            VideoError::FrameShape { expected, got } => write!(
                f,
                "frame shape {got:?} does not match session shape {expected:?}"
            ),
            VideoError::StaleFrame { seq, last } => {
                write!(f, "frame seq {seq} is older than settled seq {last}")
            }
            VideoError::UnknownSession(id) => write!(f, "no video session with id {id}"),
            VideoError::SessionLimit { limit } => {
                write!(f, "tenant is at its session cap of {limit}")
            }
            VideoError::SessionLost => {
                write!(f, "session shard was replaced; reopen the session")
            }
            VideoError::Draining => write!(f, "draining: no new video work admitted"),
        }
    }
}

impl std::error::Error for VideoError {}

impl From<TileError> for VideoError {
    fn from(e: TileError) -> Self {
        VideoError::Tile(e)
    }
}

/// Configuration of one video session.
#[derive(Debug, Clone)]
pub struct VideoSessionSpec {
    /// LR frame height.
    pub height: usize,
    /// LR frame width.
    pub width: usize,
    /// Tile side length of the reuse grid.
    pub tile: usize,
    /// Quality ladder, cheapest rung first (e.g. m3, m5, m7, m11). The
    /// last rung is the full-quality reference; with `anytime` off every
    /// dirty tile runs there.
    pub ladder: Vec<ModelKey>,
    /// Enable the any-time difficulty/deadline rung policy.
    pub anytime: bool,
    /// Edge-energy cutoffs (ascending, `ladder.len() - 1` entries): a
    /// tile with mean-gradient energy below `thresholds[i]` is capped at
    /// rung `i`. Extra entries are ignored; missing entries push easy
    /// tiles to the top rung.
    pub difficulty_thresholds: Vec<f32>,
    /// Temporal tile reuse. Off forces every tile dirty each frame — the
    /// full-recompute baseline the bench compares against.
    pub reuse: bool,
}

impl VideoSessionSpec {
    /// A reuse-enabled spec with `anytime` off and default tile size.
    pub fn new(height: usize, width: usize, ladder: Vec<ModelKey>) -> Self {
        let thresholds = Self::default_thresholds(ladder.len());
        Self {
            height,
            width,
            tile: 32,
            ladder,
            anytime: false,
            difficulty_thresholds: thresholds,
            reuse: true,
        }
    }

    /// Default edge-energy cutoffs for an `n`-rung ladder.
    pub fn default_thresholds(n: usize) -> Vec<f32> {
        let base = [0.015f32, 0.04, 0.09];
        base.iter().copied().take(n.saturating_sub(1)).collect()
    }
}

/// Per-session monotonic counters, mirrored into the engine telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Frames accepted (including duplicates).
    pub frames_in: u64,
    /// Frames settled with a fresh composite.
    pub frames_completed: u64,
    /// Duplicate submissions settled idempotently from the cache.
    pub frames_duplicate: u64,
    /// Tiles whose cached HR output was reused verbatim.
    pub tiles_skipped: u64,
    /// Tiles recomputed through the ladder.
    pub tiles_recomputed: u64,
    /// Recomputed tiles that ran below the top rung.
    pub tiles_degraded: u64,
    /// Ladder histogram (rung index, clamped into the last bucket).
    pub rungs: [u64; RUNG_BUCKETS],
    /// Frames that finished after their deadline.
    pub deadline_misses: u64,
}

/// Per-frame outcome statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrameStats {
    /// The settled sequence number.
    pub seq: u64,
    /// Tiles in the session grid.
    pub tiles_total: u64,
    /// Tiles reused from the cache this frame.
    pub tiles_skipped: u64,
    /// Tiles recomputed this frame.
    pub tiles_recomputed: u64,
    /// Recomputed tiles below the top rung.
    pub tiles_degraded: u64,
    /// Ladder histogram for this frame.
    pub rungs: [u64; RUNG_BUCKETS],
    /// This submission was an idempotent duplicate.
    pub duplicate: bool,
    /// Processing finished after the deadline.
    pub deadline_missed: bool,
}

/// A settled frame: the composited HR output plus its statistics.
#[derive(Debug, Clone)]
pub struct FrameResult {
    /// The `[1, H*scale, W*scale]` super-resolved frame.
    pub output: Tensor,
    /// What happened while producing it.
    pub stats: FrameStats,
}

/// One dirty tile scheduled for recompute, ordered hardest-first.
struct DirtyTile {
    index: usize,
    difficulty: f64,
    desired_rung: usize,
    patch_px: f64,
}

/// The per-session state machine: content hashes, the cached HR plane,
/// the idempotency watermark, and the any-time cost model. Pure logic —
/// callers own locking and thread placement.
#[derive(Debug)]
pub struct VideoSession {
    spec: VideoSessionSpec,
    plan: TilePlan,
    scale: usize,
    halo: usize,
    /// CRC32 per tile interior of the last settled frame (empty before).
    prev_hashes: Vec<u32>,
    /// The last settled composite, reused for skipped tiles and
    /// duplicate settlement.
    hr: Option<Tensor>,
    last_seq: Option<u64>,
    /// EWMA nanoseconds per halo-expanded LR pixel, one slot per rung.
    ewma_ns_per_px: Vec<Option<f64>>,
    stats: SessionStats,
}

impl VideoSession {
    /// Opens a session. `models` must align with `spec.ladder`; they are
    /// only inspected for geometry (scale, receptive-field radius) — the
    /// per-frame path re-resolves models so registry reloads take effect.
    pub fn new(spec: VideoSessionSpec, models: &[Arc<CollapsedSesr>]) -> Result<Self, VideoError> {
        if spec.ladder.is_empty() || models.is_empty() {
            return Err(VideoError::EmptyLadder);
        }
        if spec.height == 0 || spec.width == 0 {
            return Err(VideoError::ZeroDim);
        }
        let scale = models[0].scale();
        for (key, model) in spec.ladder.iter().zip(models) {
            if model.scale() != scale {
                return Err(VideoError::MixedScale {
                    expected: scale,
                    offender: key.clone(),
                });
            }
        }
        // One halo wide enough for every rung keeps the dirty expansion
        // valid no matter which rung a tile lands on.
        let halo = models
            .iter()
            .map(|m| m.receptive_field_radius())
            .max()
            .unwrap_or(0);
        let plan = TilePlan::new(spec.height, spec.width, spec.tile, halo)?;
        let rungs = spec.ladder.len();
        Ok(Self {
            spec,
            plan,
            scale,
            halo,
            prev_hashes: Vec::new(),
            hr: None,
            last_seq: None,
            ewma_ns_per_px: vec![None; rungs],
            stats: SessionStats::default(),
        })
    }

    /// The session spec.
    pub fn spec(&self) -> &VideoSessionSpec {
        &self.spec
    }

    /// The tile grid the session reuses over.
    pub fn plan(&self) -> &TilePlan {
        &self.plan
    }

    /// The upscale factor shared by every ladder rung.
    pub fn scale(&self) -> usize {
        self.scale
    }

    /// The halo radius (max receptive-field radius across the ladder).
    pub fn halo(&self) -> usize {
        self.halo
    }

    /// Lifetime counters.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// The newest settled sequence number.
    pub fn last_seq(&self) -> Option<u64> {
        self.last_seq
    }

    /// Precompiles every (rung, tile shape) plan this session can touch
    /// by running each grid tile once per ladder rung against a zero
    /// frame. A long-lived session reaches this state on its own within
    /// a few frames; a caller that must hold per-frame deadlines from
    /// the start pays the compile cost here instead of inside a
    /// deadline window. Session state and the EWMA cost model are
    /// untouched — warming runs are not load-representative samples.
    pub fn warm_plans(&self, models: &[Arc<CollapsedSesr>], plans: &mut PlanCache) {
        let frame = Tensor::zeros(&[1, self.spec.height, self.spec.width]);
        for (key, model) in self.spec.ladder.iter().zip(models) {
            let (planner, _) = plans.tile_planner_for(key, model);
            for &spec in self.plan.tiles() {
                planner.run_tile(&frame, &spec);
            }
        }
    }

    /// Settles one frame: hashes tiles, plans the dirty set, recomputes
    /// it through the ladder, and composites into the cached HR plane.
    ///
    /// Settlement is **idempotent**: re-feeding the settled `seq`
    /// returns the cached composite without recompute (the retry path
    /// after a worker crash), while an older `seq` is a typed
    /// [`VideoError::StaleFrame`]. Sequence gaps are fine — correctness
    /// derives from content hashes, not continuity.
    ///
    /// State is committed only after every tile has computed, so a panic
    /// mid-frame (chaos, poisoned model) leaves the session exactly as
    /// it was — the caller can retry the same frame.
    ///
    /// `models` must align with `spec.ladder` and share the session
    /// scale; `plans` is the worker-local plan cache.
    pub fn process_frame(
        &mut self,
        seq: u64,
        frame: &Tensor,
        deadline: Option<Instant>,
        models: &[Arc<CollapsedSesr>],
        plans: &mut PlanCache,
    ) -> Result<FrameResult, VideoError> {
        let expected = [1, self.spec.height, self.spec.width];
        if frame.shape() != expected {
            return Err(VideoError::FrameShape {
                expected,
                got: frame.shape().to_vec(),
            });
        }
        assert_eq!(models.len(), self.spec.ladder.len(), "ladder misaligned");
        self.stats.frames_in += 1;

        if let Some(last) = self.last_seq {
            if seq == last {
                let output = self.hr.clone().expect("settled seq implies cached output");
                self.stats.frames_duplicate += 1;
                let stats = FrameStats {
                    seq,
                    tiles_total: self.plan.len() as u64,
                    duplicate: true,
                    ..FrameStats::default()
                };
                return Ok(FrameResult { output, stats });
            }
            if seq < last {
                return Err(VideoError::StaleFrame { seq, last });
            }
        }

        let (h, w, s) = (self.spec.height, self.spec.width, self.scale);
        let keys = self.spec.ladder.clone();
        let top = keys.len() - 1;

        // Pass 1: per-tile content hashes of the new frame.
        let hashes = hash_tiles(frame, self.plan.tiles());

        // Pass 2: dirty planning. The first frame (no previous hashes)
        // and reuse-off sessions recompute everything.
        let recompute: Vec<bool> = if self.prev_hashes.len() != hashes.len() || !self.spec.reuse {
            vec![true; hashes.len()]
        } else {
            let changed: Vec<bool> = hashes
                .iter()
                .zip(&self.prev_hashes)
                .map(|(a, b)| a != b)
                .collect();
            self.plan.recompute_mask(&changed)
        };

        // Pass 3: rung selection. Hardest tiles first, so that when the
        // deadline budget runs low it is the flat tiles that degrade.
        let mut dirty: Vec<DirtyTile> = self
            .plan
            .tiles()
            .iter()
            .enumerate()
            .filter(|&(i, _)| recompute[i])
            .map(|(i, t)| {
                let difficulty = edge_energy(frame, t);
                let desired_rung = if self.spec.anytime {
                    self.spec
                        .difficulty_thresholds
                        .iter()
                        .take(top)
                        .filter(|&&th| difficulty >= f64::from(th))
                        .count()
                } else {
                    top
                };
                DirtyTile {
                    index: i,
                    difficulty,
                    desired_rung,
                    patch_px: (t.patch_h() * t.patch_w()) as f64,
                }
            })
            .collect();
        dirty.sort_by(|a, b| {
            b.difficulty
                .partial_cmp(&a.difficulty)
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        // Pass 4: compute dirty tiles into a fresh copy of the plane
        // (commit-at-end keeps a mid-frame panic from corrupting state).
        let mut out = match &self.hr {
            Some(prev) => prev.clone(),
            None => Tensor::zeros(&[1, h * s, w * s]),
        };
        let mut frame_stats = FrameStats {
            seq,
            tiles_total: self.plan.len() as u64,
            tiles_skipped: (recompute.len() - dirty.len()) as u64,
            ..FrameStats::default()
        };
        let mut ewma = self.ewma_ns_per_px.clone();
        // LR pixels still queued behind the current tile; with the live
        // cheapest-rung estimate this prices the floor cost of finishing
        // the frame, which the deadline fit reserves room for.
        let mut suffix_px: f64 = dirty.iter().map(|d| d.patch_px).sum();
        for d in &dirty {
            suffix_px -= d.patch_px;
            let rung = if self.spec.anytime {
                fit_rung(d, deadline, &ewma, ewma[0].unwrap_or(0.0) * suffix_px)
            } else {
                top
            };
            let spec = self.plan.tiles()[d.index];
            let started = Instant::now();
            let (planner, _) = plans.tile_planner_for(&keys[rung], &models[rung]);
            let sr = planner.run_tile(frame, &spec);
            let elapsed = started.elapsed().as_nanos() as f64;
            let sample = elapsed / d.patch_px.max(1.0);
            ewma[rung] = Some(match ewma[rung] {
                Some(prev) => 0.7 * prev + 0.3 * sample,
                None => sample,
            });
            paste_interior(&mut out, &sr, &spec, s);
            frame_stats.tiles_recomputed += 1;
            frame_stats.rungs[rung.min(RUNG_BUCKETS - 1)] += 1;
            if rung < top {
                frame_stats.tiles_degraded += 1;
            }
        }
        if let Some(d) = deadline {
            frame_stats.deadline_missed = Instant::now() > d;
        }

        // Commit.
        self.prev_hashes = hashes;
        self.hr = Some(out.clone());
        self.last_seq = Some(seq);
        self.ewma_ns_per_px = ewma;
        self.stats.frames_completed += 1;
        self.stats.tiles_skipped += frame_stats.tiles_skipped;
        self.stats.tiles_recomputed += frame_stats.tiles_recomputed;
        self.stats.tiles_degraded += frame_stats.tiles_degraded;
        for (acc, n) in self.stats.rungs.iter_mut().zip(frame_stats.rungs) {
            *acc += n;
        }
        if frame_stats.deadline_missed {
            self.stats.deadline_misses += 1;
        }
        Ok(FrameResult {
            output: out,
            stats: frame_stats,
        })
    }
}

/// Fraction of the remaining deadline the rung walk plans against. The
/// EWMA estimates trail the true cost on a machine whose speed shifts
/// under load, and planning to land exactly on the deadline converts
/// every positive estimate error into a miss; reserving slack degrades
/// a rung earlier instead — the cheap direction, since the contract is
/// "degrade PSNR, not latency". The margin matters more the faster the
/// kernels get: a fixed scheduler hiccup is a larger share of a smaller
/// frame budget.
const DEADLINE_SLACK: f64 = 0.8;

/// Picks the best rung ≤ `desired` whose estimated cost, plus a
/// cheapest-rung floor for the tiles still queued behind this one, fits
/// the slack-adjusted remaining deadline. Unknown costs are treated as
/// fitting (the first frame is exploratory — its samples train the
/// EWMA).
fn fit_rung(
    d: &DirtyTile,
    deadline: Option<Instant>,
    ewma: &[Option<f64>],
    floor_rest_ns: f64,
) -> usize {
    let Some(deadline) = deadline else {
        return d.desired_rung;
    };
    let remaining = deadline
        .checked_duration_since(Instant::now())
        .map_or(0.0, |r| r.as_nanos() as f64 * DEADLINE_SLACK);
    let mut rung = d.desired_rung;
    while rung > 0 {
        match ewma[rung] {
            Some(cost) if cost * d.patch_px + floor_rest_ns > remaining => rung -= 1,
            _ => break,
        }
    }
    rung
}

/// CRC32 of each tile's interior LR bytes (exact bits — `-0.0` and
/// `0.0` hash differently, which is what bit-identity needs).
fn hash_tiles(frame: &Tensor, tiles: &[TileSpec]) -> Vec<u32> {
    let w = frame.shape()[2];
    let data = frame.data();
    tiles
        .iter()
        .map(|t| {
            let mut h = Crc32::new();
            for y in t.y0..t.y1 {
                h.update_f32(&data[y * w + t.x0..y * w + t.x1]);
            }
            h.finish()
        })
        .collect()
}

/// Mean absolute gradient (horizontal + vertical) over a tile interior:
/// the cheap difficulty proxy behind the any-time rung choice. Flat
/// tiles score near zero; textured tiles score high.
fn edge_energy(frame: &Tensor, t: &TileSpec) -> f64 {
    let w = frame.shape()[2];
    let data = frame.data();
    let mut sum = 0.0f64;
    let mut n = 0u64;
    for y in t.y0..t.y1 {
        for x in t.x0..t.x1 {
            let v = data[y * w + x];
            if x + 1 < t.x1 {
                sum += f64::from((data[y * w + x + 1] - v).abs());
                n += 1;
            }
            if y + 1 < t.y1 {
                sum += f64::from((data[(y + 1) * w + x] - v).abs());
                n += 1;
            }
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesr_core::model::{Sesr, SesrConfig};
    use std::sync::OnceLock;

    fn ladder() -> &'static Vec<(ModelKey, Arc<CollapsedSesr>)> {
        static LADDER: OnceLock<Vec<(ModelKey, Arc<CollapsedSesr>)>> = OnceLock::new();
        LADDER.get_or_init(|| {
            [(1usize, "m1"), (2, "m2")]
                .iter()
                .map(|&(m, name)| {
                    let cfg = SesrConfig::m(m).with_expanded(8).with_seed(7 + m as u64);
                    (ModelKey::new(name, 2), Arc::new(Sesr::new(cfg).collapse()))
                })
                .collect()
        })
    }

    fn spec_of(h: usize, w: usize, tile: usize) -> VideoSessionSpec {
        let keys = ladder().iter().map(|(k, _)| k.clone()).collect();
        let mut spec = VideoSessionSpec::new(h, w, keys);
        spec.tile = tile;
        spec
    }

    fn models() -> Vec<Arc<CollapsedSesr>> {
        ladder().iter().map(|(_, m)| m.clone()).collect()
    }

    fn reference(frame: &Tensor) -> Tensor {
        let (_, top) = &ladder()[ladder().len() - 1];
        top.run(frame)
    }

    #[test]
    fn first_frame_matches_whole_frame_run() {
        let mut sess = VideoSession::new(spec_of(24, 20, 8), &models()).unwrap();
        let frame = Tensor::rand_uniform(&[1, 24, 20], 0.0, 1.0, 11);
        let mut plans = PlanCache::new();
        let r = sess
            .process_frame(0, &frame, None, &models(), &mut plans)
            .unwrap();
        assert_eq!(reference(&frame).max_abs_diff(&r.output), 0.0);
        assert_eq!(r.stats.tiles_skipped, 0);
        assert_eq!(r.stats.tiles_recomputed, sess.plan().len() as u64);
    }

    #[test]
    fn static_frame_skips_every_tile_and_is_bit_identical() {
        let mut sess = VideoSession::new(spec_of(24, 20, 8), &models()).unwrap();
        let frame = Tensor::rand_uniform(&[1, 24, 20], 0.0, 1.0, 12);
        let mut plans = PlanCache::new();
        let first = sess
            .process_frame(0, &frame, None, &models(), &mut plans)
            .unwrap();
        let second = sess
            .process_frame(1, &frame, None, &models(), &mut plans)
            .unwrap();
        assert_eq!(second.stats.tiles_recomputed, 0);
        assert_eq!(second.stats.tiles_skipped, sess.plan().len() as u64);
        assert_eq!(first.output.max_abs_diff(&second.output), 0.0);
        assert_eq!(reference(&frame).max_abs_diff(&second.output), 0.0);
    }

    #[test]
    fn partial_change_recomputes_dirty_rect_only_and_stays_exact() {
        let mut sess = VideoSession::new(spec_of(32, 32, 8), &models()).unwrap();
        let f0 = Tensor::rand_uniform(&[1, 32, 32], 0.0, 1.0, 13);
        let mut plans = PlanCache::new();
        sess.process_frame(0, &f0, None, &models(), &mut plans)
            .unwrap();
        // Poke one pixel in the middle of tile (1,1).
        let mut f1 = f0.clone();
        f1.data_mut()[12 * 32 + 12] += 0.5;
        let r = sess
            .process_frame(1, &f1, None, &models(), &mut plans)
            .unwrap();
        assert!(r.stats.tiles_recomputed > 0);
        assert!(
            r.stats.tiles_skipped > 0,
            "far tiles must reuse cached output"
        );
        assert_eq!(reference(&f1).max_abs_diff(&r.output), 0.0);
    }

    #[test]
    fn duplicate_seq_settles_idempotently_and_stale_seq_is_typed() {
        let mut sess = VideoSession::new(spec_of(16, 16, 8), &models()).unwrap();
        let f0 = Tensor::rand_uniform(&[1, 16, 16], 0.0, 1.0, 14);
        let f1 = Tensor::rand_uniform(&[1, 16, 16], 0.0, 1.0, 15);
        let mut plans = PlanCache::new();
        sess.process_frame(0, &f0, None, &models(), &mut plans)
            .unwrap();
        let settled = sess
            .process_frame(5, &f1, None, &models(), &mut plans)
            .unwrap();
        let dup = sess
            .process_frame(5, &f1, None, &models(), &mut plans)
            .unwrap();
        assert!(dup.stats.duplicate);
        assert_eq!(dup.stats.tiles_recomputed, 0);
        assert_eq!(settled.output.max_abs_diff(&dup.output), 0.0);
        let err = sess
            .process_frame(3, &f1, None, &models(), &mut plans)
            .unwrap_err();
        assert_eq!(err, VideoError::StaleFrame { seq: 3, last: 5 });
        assert_eq!(sess.stats().frames_duplicate, 1);
    }

    #[test]
    fn anytime_degrades_under_an_impossible_deadline() {
        let mut spec = spec_of(32, 32, 8);
        spec.anytime = true;
        // Force the difficulty policy to want the top rung everywhere so
        // any degradation observed comes from the deadline fit.
        spec.difficulty_thresholds = vec![0.0];
        let mut sess = VideoSession::new(spec, &models()).unwrap();
        let mut plans = PlanCache::new();
        let f0 = Tensor::rand_uniform(&[1, 32, 32], 0.0, 1.0, 16);
        // Frame 0 trains the EWMA cost model (no deadline).
        sess.process_frame(0, &f0, None, &models(), &mut plans)
            .unwrap();
        // Frame 1: everything dirty, deadline already unreachable — every
        // tile must fall to rung 0 instead of blowing the latency budget
        // at the top rung.
        let f1 = Tensor::rand_uniform(&[1, 32, 32], 0.0, 1.0, 17);
        let deadline = Instant::now() + std::time::Duration::from_nanos(1);
        let r = sess
            .process_frame(1, &f1, Some(deadline), &models(), &mut plans)
            .unwrap();
        assert_eq!(r.stats.tiles_degraded, r.stats.tiles_recomputed);
        assert_eq!(r.stats.rungs[0], r.stats.tiles_recomputed);
    }

    #[test]
    fn anytime_without_pressure_stays_at_desired_rungs() {
        let mut spec = spec_of(16, 16, 8);
        spec.anytime = true;
        spec.difficulty_thresholds = vec![0.0]; // everything is "hard"
        let mut sess = VideoSession::new(spec, &models()).unwrap();
        let mut plans = PlanCache::new();
        let f0 = Tensor::rand_uniform(&[1, 16, 16], 0.0, 1.0, 18);
        let r = sess
            .process_frame(0, &f0, None, &models(), &mut plans)
            .unwrap();
        assert_eq!(r.stats.tiles_degraded, 0);
        assert_eq!(reference(&f0).max_abs_diff(&r.output), 0.0);
    }

    #[test]
    fn open_rejects_bad_specs() {
        let ms = models();
        let empty = VideoSessionSpec::new(16, 16, Vec::new());
        assert_eq!(
            VideoSession::new(empty, &[]).unwrap_err(),
            VideoError::EmptyLadder
        );
        let zero = spec_of(0, 16, 8);
        assert_eq!(
            VideoSession::new(zero, &ms).unwrap_err(),
            VideoError::ZeroDim
        );
        let mut sess = VideoSession::new(spec_of(16, 16, 8), &ms).unwrap();
        let bad = Tensor::zeros(&[1, 8, 8]);
        let mut plans = PlanCache::new();
        match sess.process_frame(0, &bad, None, &ms, &mut plans) {
            Err(VideoError::FrameShape { .. }) => {}
            other => panic!("expected FrameShape, got {other:?}"),
        }
    }
}
