//! The four workloads: what each sends, on which schedule, and how the
//! system under test is built and warmed for it.
//!
//! The workload seed drives only inputs and arrival times; model weights
//! are fixed, so two seeds exercise the same system on different traffic.

use crate::stats::Rng;
use sesr_core::{CollapsedSesr, Sesr};
use sesr_data::synth::{generate, Family};
use sesr_serve::bench::arch_config;
use sesr_serve::{
    EngineConfig, ModelKey, ModelRegistry, PrecisionPolicy, Priority, Router, RouterConfig,
    RouterTicket, VideoSessionSpec,
};
use sesr_tensor::Tensor;
use std::sync::Arc;
use std::time::Duration;

pub const SCALE: usize = 2;
/// Training-time width of every model before collapse.
const EXPANDED: usize = 16;
/// Every architecture the fleet serves: the degrade chain (m11 → m5 →
/// m3) and the video ladder (m3, m5, m7, m11), cheapest first.
pub const ARCHS: [&str; 4] = ["m3", "m5", "m7", "m11"];
/// Weight seed of `ARCHS[i]` is `MODEL_SEED + i`; never the workload seed.
const MODEL_SEED: u64 = 0x5E5B_0000;

/// Small interactive requests: 16 distinct 64x112 LR images.
pub const SMALL: (usize, usize) = (64, 112);
const SMALL_IMAGES: usize = 16;
const TENANTS: usize = 64;
const INTERACTIVE_RATE_HZ: f64 = 40.0;
const INTERACTIVE_LIMIT: Duration = Duration::from_millis(50);
/// Router deadline of small requests and video frames, well past their
/// latency limits: a slow phase of a shared host then shows as missed
/// limits and lower goodput, not as requests dropped at dequeue.
const DEADLINE: Duration = Duration::from_secs(1);
/// Large frames: above the engine's 65536 px tile threshold, so they run
/// on the tiled path.
pub const FRAME: (usize, usize) = (360, 640);
const FRAME_LIMIT: Duration = Duration::from_secs(3);
/// Video: 96x160 LR, a 24 px sprite stepping one 32 px session tile per
/// frame, bouncing over 64 px, so a session cycles through 3 distinct
/// frames. The sprite always sits inside one tile, so every frame changes
/// the same number of tiles and costs the same. (A 4 px step made a
/// frame's cost depend on how the sprite straddled tile edges, from 50 to
/// 110 ms, and the median jumped between those costs from run to run.)
/// The path is the same for every seed (the seed picks the textures), so
/// every seed does the same work per frame.
pub const VIDEO: (usize, usize) = (96, 160);
const SPRITE: usize = 24;
const SPRITE_STEP: usize = 32;
const SPRITE_TRAVEL: usize = 64;
/// A frame takes about 100 ms of one core on the recording host, so at
/// 4 fps a session keeps up while the host runs up to 2.5 times slower.
/// At 6 fps a slow phase of the host pushed the sessions past their
/// period and the latency grew with the backlog.
const VIDEO_FPS: f64 = 4.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Interactive,
    BulkF32,
    BulkInt8,
    Video,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Interactive,
        Workload::BulkF32,
        Workload::BulkInt8,
        Workload::Video,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Interactive => "interactive",
            Workload::BulkF32 => "bulk_f32",
            Workload::BulkInt8 => "bulk_int8",
            Workload::Video => "video",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn precision(self) -> PrecisionPolicy {
        match self {
            Workload::BulkInt8 => PrecisionPolicy::Int8 { psnr_budget: 1.0 },
            _ => PrecisionPolicy::F32,
        }
    }

    /// Counted completions per second: exact for the open-loop schedules,
    /// the recording host's unscaled throughput for the closed loops. It
    /// only fixes which percentile `tail_ms` reports for a window length,
    /// so every run of a workload reports the same statistic however fast
    /// the host ran.
    pub fn nominal_rate(self) -> f64 {
        match self {
            Workload::Interactive => INTERACTIVE_RATE_HZ,
            Workload::BulkF32 => 5.0,
            Workload::BulkInt8 => 9.0,
            Workload::Video => 2.0 * VIDEO_FPS,
        }
    }

    /// The architecture whose plan does most of this workload's work.
    pub fn main_arch(self) -> &'static str {
        match self {
            Workload::Video => "m11",
            _ => "m5",
        }
    }
}

/// One request of a workload. `due` is the offset from the window start
/// on open-loop schedules (closed loops set it when a slot frees).
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub tenant: usize,
    pub class: Priority,
    pub arch: &'static str,
    /// Index into [`Plan::images`].
    pub input: usize,
    pub due: Duration,
    /// Latency limit: a completion later than this misses goodput.
    pub limit: Duration,
    /// Deadline handed to the router (relative to the send).
    pub deadline: Duration,
    /// `(session index, sequence number)` for video frames.
    pub frame: Option<(usize, u64)>,
}

impl Request {
    pub fn key(&self) -> ModelKey {
        ModelKey::new(self.arch, SCALE)
    }
}

#[derive(Debug, Clone)]
pub enum Mode {
    /// Requests sent on their `due` schedule, sorted by `due`.
    Open(Vec<Request>),
    /// `cycles[k]` is the request stream of client slot `k`, repeated;
    /// each slot keeps one request in flight.
    Closed { cycles: Vec<Vec<Request>> },
}

/// Everything a workload sends: distinct inputs, tenant names, schedule.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub images: Vec<Tensor>,
    pub tenants: Vec<String>,
    pub mode: Mode,
    /// Video sessions (tenant index of each); empty for image workloads.
    pub sessions: Vec<usize>,
}

impl Plan {
    /// Builds the inputs and schedule of `workload` for a `seconds`-long
    /// window. Deterministic in `seed`.
    pub fn build(workload: Workload, seed: u64, seconds: f64) -> Self {
        let mut rng = Rng::new(seed ^ (workload as u64) << 56);
        let tenants: Vec<String> = (0..TENANTS).map(|t| format!("t{t:02}")).collect();
        match workload {
            Workload::Interactive => {
                let images = small_images(&mut rng);
                let requests = poisson_stream(&mut rng, seconds);
                Self {
                    workload,
                    seed,
                    seconds,
                    images,
                    tenants,
                    mode: Mode::Open(requests),
                    sessions: Vec::new(),
                }
            }
            Workload::BulkF32 | Workload::BulkInt8 => {
                // Two clients, one frame in flight each; their tenants are
                // pinned to different shards once a router exists.
                let cycles = (0..2)
                    .map(|k| {
                        vec![Request {
                            tenant: k,
                            class: Priority::Batch,
                            arch: "m5",
                            input: k,
                            due: Duration::ZERO,
                            limit: FRAME_LIMIT,
                            deadline: FRAME_LIMIT,
                            frame: None,
                        }]
                    })
                    .collect();
                Self {
                    workload,
                    seed,
                    seconds,
                    images: frames(&mut rng, 2),
                    tenants: vec!["bulk-a".to_string(), "bulk-b".to_string()],
                    mode: Mode::Closed { cycles },
                    sessions: Vec::new(),
                }
            }
            Workload::Video => {
                let images = pan_frames(&mut rng);
                let period = Duration::from_secs_f64(1.0 / VIDEO_FPS);
                let frames_per_session = (seconds * VIDEO_FPS).ceil() as u64;
                let mut requests = Vec::new();
                for s in 0..2usize {
                    // The second session runs half a cycle and half a
                    // period behind the first: different content, and its
                    // frames fall between the first session's.
                    let phase = s as u64 * (images.len() as u64 - 1);
                    for seq in 0..frames_per_session {
                        requests.push(Request {
                            tenant: s,
                            class: Priority::Interactive,
                            arch: "m11",
                            input: pan_position(seq + phase, images.len()),
                            due: period * seq as u32 + period / 2 * s as u32,
                            limit: period,
                            deadline: DEADLINE,
                            frame: Some((s, seq)),
                        });
                    }
                }
                requests.sort_by_key(|r| r.due);
                Self {
                    workload,
                    seed,
                    seconds,
                    images,
                    tenants: vec!["video-a".to_string(), "video-b".to_string()],
                    mode: Mode::Open(requests),
                    sessions: vec![0, 1],
                }
            }
        }
    }

    /// Every request the schedule can send (each closed-loop cycle once).
    pub fn all_requests(&self) -> Vec<&Request> {
        match &self.mode {
            Mode::Open(r) => r.iter().collect(),
            Mode::Closed { cycles } => cycles.iter().flatten().collect(),
        }
    }

    /// Renames the tenants of bulk and video clients so client `k` lands
    /// on shard `k`, as the workloads require one client per shard.
    pub fn pin_tenants(&mut self, router: &Router) -> Result<(), String> {
        let (prefix, arch) = match self.workload {
            Workload::BulkF32 | Workload::BulkInt8 => ("bulk", "m5"),
            Workload::Video => ("video", "m11"),
            _ => return Ok(()),
        };
        let key = ModelKey::new(arch, SCALE);
        for (shard, tenant) in self.tenants.iter_mut().enumerate() {
            *tenant = (0..1000)
                .map(|i| format!("{prefix}-{i}"))
                .find(|t| router.route_of(t, &key) == Some(shard))
                .ok_or_else(|| format!("no {prefix} tenant routes to shard {shard}"))?;
        }
        Ok(())
    }

    /// The first of `requests` for each distinct (class, input shape): the
    /// kinds of work a warm-up has to cover.
    pub fn distinct_kinds<'a>(
        &self,
        requests: impl IntoIterator<Item = &'a Request>,
    ) -> Vec<&'a Request> {
        let mut kinds: Vec<&Request> = Vec::new();
        for r in requests {
            let shape = self.images[r.input].shape();
            if !kinds
                .iter()
                .any(|k| k.class == r.class && self.images[k.input].shape() == shape)
            {
                kinds.push(r);
            }
        }
        kinds
    }

    /// The video session spec every session of the workload opens.
    pub fn session_spec(&self) -> VideoSessionSpec {
        let ladder = ARCHS.iter().map(|a| ModelKey::new(a, SCALE)).collect();
        VideoSessionSpec::new(VIDEO.0, VIDEO.1, ladder)
    }
}

fn small_images(rng: &mut Rng) -> Vec<Tensor> {
    (0..SMALL_IMAGES)
        .map(|i| {
            let family = Family::ALL[i % Family::ALL.len()];
            generate(family, SMALL.0, SMALL.1, rng.next_u64())
        })
        .collect()
}

fn frames(rng: &mut Rng, n: usize) -> Vec<Tensor> {
    (0..n)
        .map(|_| generate(Family::Mixed, FRAME.0, FRAME.1, rng.next_u64()))
        .collect()
}

/// Poisson arrivals at `INTERACTIVE_RATE_HZ` over `seconds`, conditioned
/// on the expected count: given the count, Poisson arrival times are
/// independent and uniform, so the count (and with it the goodput
/// ceiling) is the same for every seed while the times are not.
fn poisson_stream(rng: &mut Rng, seconds: f64) -> Vec<Request> {
    let n = (INTERACTIVE_RATE_HZ * seconds).round() as usize;
    let mut due: Vec<f64> = (0..n).map(|_| rng.unit() * seconds).collect();
    due.sort_by(f64::total_cmp);
    due.into_iter()
        .map(|t| Request {
            tenant: rng.below(TENANTS),
            class: Priority::Interactive,
            arch: "m5",
            input: rng.below(SMALL_IMAGES),
            due: Duration::from_secs_f64(t),
            limit: INTERACTIVE_LIMIT,
            deadline: DEADLINE,
            frame: None,
        })
        .collect()
}

/// The distinct frames of the pan: a static background with the sprite
/// at each of its positions along one row.
fn pan_frames(rng: &mut Rng) -> Vec<Tensor> {
    let (h, w) = VIDEO;
    let background = generate(Family::Smooth, h, w, rng.next_u64());
    let sprite = generate(Family::Urban, SPRITE, SPRITE, rng.next_u64());
    let (y, x0) = ((h - SPRITE) / 2, (w - SPRITE - SPRITE_TRAVEL) / 2);
    (0..=SPRITE_TRAVEL / SPRITE_STEP)
        .map(|p| {
            let mut f = background.clone();
            f.blit_hw(&sprite, y, x0 + p * SPRITE_STEP);
            f
        })
        .collect()
}

/// Frame index of sequence number `n` on a path that bounces between the
/// first and last of `positions` frames.
fn pan_position(n: u64, positions: usize) -> usize {
    let period = 2 * (positions as u64 - 1);
    let k = n % period;
    (if k < positions as u64 { k } else { period - k }) as usize
}

/// Warm-up rounds and burst size for one input: bursts of 16 small
/// requests fill micro-batches on both of a shard's workers, while a tiled
/// frame holds a worker to itself, so two per round reach both.
pub fn warm_bursts(image: &Tensor) -> (usize, usize) {
    if image.len() > EngineConfig::default().tile_threshold_px {
        (2, 2)
    } else {
        (3, 16)
    }
}

/// The fixed model set, built and collapsed.
fn models() -> Result<Vec<CollapsedSesr>, String> {
    ARCHS
        .iter()
        .enumerate()
        .map(|(i, arch)| {
            arch_config(arch, SCALE, EXPANDED, MODEL_SEED + i as u64)
                .map(|cfg| Sesr::new(cfg).collapse())
        })
        .collect()
}

/// The system under test, ready for the timed window.
pub struct Live {
    pub router: Router,
    pub models: Vec<Arc<CollapsedSesr>>,
    /// Router-level ids of the workload's open video sessions.
    pub sessions: Vec<u64>,
}

impl Live {
    /// Builds the models and the default router, pins the plan's client
    /// tenants, warms every shard on every shape and class the workload
    /// sends (which pays int8 grading), and opens the video sessions.
    pub fn start(plan: &mut Plan) -> Result<Self, String> {
        let models: Vec<Arc<CollapsedSesr>> = models()?.into_iter().map(Arc::new).collect();
        let registry = Arc::new(ModelRegistry::new(ARCHS.len()));
        for (arch, model) in ARCHS.iter().zip(&models) {
            registry.insert(ModelKey::new(arch, SCALE), (**model).clone());
        }
        let cfg = RouterConfig {
            engine: EngineConfig {
                precision: plan.workload.precision(),
                ..EngineConfig::default()
            },
            ..RouterConfig::default()
        };
        let router = Router::new(cfg, registry);
        plan.pin_tenants(&router)?;
        let mut live = Self {
            router,
            models,
            sessions: Vec::new(),
        };
        live.warm(plan)?;
        if !plan.sessions.is_empty() {
            for &tenant in &plan.sessions {
                let id = live
                    .router
                    .open_video_session(&plan.tenants[tenant], plan.session_spec())
                    .map_err(|e| format!("open video session: {e}"))?;
                live.sessions.push(id);
            }
        }
        Ok(live)
    }

    pub fn model(&self, arch: &str) -> &Arc<CollapsedSesr> {
        let i = ARCHS.iter().position(|a| *a == arch).expect("arch served");
        &self.models[i]
    }

    /// Sends every distinct (class, arch, shape) the plan uses to every
    /// shard, in bursts wide enough that both workers of a shard compile
    /// their plans, so no cold compile lands inside the window.
    fn warm(&self, plan: &Plan) -> Result<(), String> {
        let shards = self.router.shard_count();
        if plan.workload == Workload::Video {
            return self.warm_video(plan);
        }
        for kind in plan.distinct_kinds(plan.all_requests()) {
            let key = kind.key();
            let (rounds, burst) = warm_bursts(&plan.images[kind.input]);
            for shard in 0..shards {
                let tenant = (0..1000)
                    .map(|i| format!("warm-{i}"))
                    .find(|t| self.router.route_of(t, &key) == Some(shard))
                    .ok_or("no warm-up tenant for a shard")?;
                for _ in 0..rounds {
                    let tickets: Vec<RouterTicket> = (0..burst)
                        .map(|_| {
                            self.router
                                .submit(
                                    &tenant,
                                    kind.class,
                                    &key,
                                    plan.images[kind.input].clone(),
                                    None,
                                )
                                .map_err(|e| format!("warm-up refused: {e}"))
                        })
                        .collect::<Result<_, _>>()?;
                    for t in tickets {
                        t.wait().map_err(|e| format!("warm-up failed: {e}"))?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Video warm-up: a throwaway session per client tenant (so it lands
    /// on the same shard as the timed one) fed distinct frames until the
    /// shard's workers have compiled the top rung's tile plans. Frames go
    /// one at a time: two frames of a session queued together can be
    /// taken by both workers and settle out of order.
    fn warm_video(&self, plan: &Plan) -> Result<(), String> {
        for &tenant in &plan.sessions {
            let id = self
                .router
                .open_video_session(&plan.tenants[tenant], plan.session_spec())
                .map_err(|e| format!("open warm-up session: {e}"))?;
            for seq in 0..6u64 {
                let frame = plan.images[seq as usize % plan.images.len()].clone();
                self.router
                    .feed_video_frame(id, seq, frame, None)
                    .map_err(|e| format!("warm-up frame refused: {e}"))?
                    .wait()
                    .map_err(|e| format!("warm-up frame failed: {e}"))?;
            }
            self.router
                .close_video_session(id)
                .map_err(|e| format!("close warm-up session: {e}"))?;
        }
        Ok(())
    }

    pub fn shutdown(&self) {
        self.router.shutdown(Duration::from_secs(60));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(plan: &Plan) -> Vec<(Duration, usize, usize)> {
        plan.all_requests()
            .iter()
            .map(|r| (r.due, r.tenant, r.input))
            .collect()
    }

    /// Every workload's inputs and schedule repeat for a seed, and its
    /// inputs change with the seed. Only the Poisson stream's times and
    /// tenants move too: the bulk loop and the video path are the same
    /// for every seed, so every seed does the same work.
    #[test]
    fn schedule_is_a_function_of_the_seed() {
        for w in Workload::ALL {
            let a = Plan::build(w, 7, 2.0);
            let b = Plan::build(w, 7, 2.0);
            let c = Plan::build(w, 8, 2.0);
            assert_eq!(
                schedule(&a),
                schedule(&b),
                "{}: same seed differs",
                w.name()
            );
            assert_eq!(a.images, b.images, "{}", w.name());
            assert_ne!(a.images, c.images, "{}: inputs ignore the seed", w.name());
            if w == Workload::Interactive {
                assert_ne!(schedule(&a), schedule(&c), "{}: seeds agree", w.name());
            }
        }
    }

    #[test]
    fn poisson_stream_has_the_rate_and_spreads_tenants() {
        let plan = Plan::build(Workload::Interactive, 3, 10.0);
        let Mode::Open(reqs) = &plan.mode else {
            panic!("interactive is open loop");
        };
        assert_eq!(reqs.len(), 400);
        assert!(reqs.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(reqs.last().unwrap().due < Duration::from_secs(10));
        let mut seen = [false; TENANTS];
        for r in reqs {
            seen[r.tenant] = true;
        }
        assert!(
            seen.iter().filter(|&&s| s).count() > 60,
            "tenants not spread"
        );
        // Exponential gaps: the coefficient of variation of a Poisson
        // process's gaps is 1.
        let gaps: Vec<f64> = reqs
            .windows(2)
            .map(|w| (w[1].due - w[0].due).as_secs_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((0.85..1.15).contains(&cv), "gap cv {cv}");
    }

    #[test]
    fn pan_bounces_over_its_frames() {
        let seq: Vec<usize> = (0..20).map(|n| pan_position(n, 5)).collect();
        assert_eq!(
            seq,
            [0, 1, 2, 3, 4, 3, 2, 1, 0, 1, 2, 3, 4, 3, 2, 1, 0, 1, 2, 3]
        );
        let plan = Plan::build(Workload::Video, 1, 2.0);
        assert_eq!(plan.images.len(), SPRITE_TRAVEL / SPRITE_STEP + 1);
        assert!(plan.images.windows(2).all(|w| w[0] != w[1]));
        // Every sprite position lies inside one session tile, in both
        // directions, so every frame changes the same number of tiles.
        let tile = plan.session_spec().tile;
        assert_eq!(SPRITE_STEP, tile);
        let (y, x0) = (
            (VIDEO.0 - SPRITE) / 2,
            (VIDEO.1 - SPRITE - SPRITE_TRAVEL) / 2,
        );
        assert_eq!(y / tile, (y + SPRITE - 1) / tile);
        for p in 0..plan.images.len() {
            let x = x0 + p * SPRITE_STEP;
            assert_eq!(
                x / tile,
                (x + SPRITE - 1) / tile,
                "position {p} straddles a tile edge"
            );
        }
    }
}
