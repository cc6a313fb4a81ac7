//! `sesr-serve` — an in-process, multi-threaded batched inference engine
//! for collapsed SESR models.
//!
//! The training-time story of this workspace ends with
//! [`CollapsedSesr`](sesr_core::CollapsedSesr): a short stack of plain
//! convolutions cheap enough to run anywhere. This crate answers the next
//! question — how those models behave *as a service* under concurrent
//! load — without any network stack, so every queueing and batching
//! effect measured is the engine's own.
//!
//! Architecture (request path, left to right):
//!
//! ```text
//! submit() ──► BoundedQueue ──► worker pool ──► micro-batch / tiles ──► Ticket
//!   │             │                 │                  │
//!   reject     deadline          registry           telemetry
//!   (full)     (expired at      (LRU, lazy       (per-stage latency
//!              dequeue)          load)            histograms)
//! ```
//!
//! * [`queue`] — bounded MPSC queue; `push` fails fast with a typed
//!   reason (explicit backpressure), `pop_group` batches same-key
//!   requests under one lock.
//! * [`engine`] — supervised worker pool; same-shape requests run as one
//!   `run_batch` forward pass, oversized single images take the
//!   halo-tiled path: `sesr_core::tiling::run_tiles` fans the tiles
//!   across the intra-op thread pool (bit-identical to whole-image
//!   inference). Worker
//!   panics are caught and converted to per-request typed errors; crashed
//!   workers are respawned with backoff under a restart budget; requests
//!   retry retryable failures; `shutdown(deadline)` drains gracefully.
//! * [`plan_cache`] — per-worker LRU levels of precision decisions (the
//!   f32 or int8 kernels a model serves with, made once per model and
//!   replicated across shards) and of compiled plans per datapath.
//! * [`registry`] — models keyed by `(arch, scale)`, lazily loaded from
//!   `model_io` artifacts, LRU-bounded residency.
//! * [`telemetry`] — log-scale latency histograms per pipeline stage
//!   (queue wait, batch assembly, compute, reassembly) plus throughput
//!   and rejection counters; exportable as JSON.
//! * [`loadgen`] — deterministic closed/open-loop load generation and a
//!   paused-engine burst that demonstrates the rejection path.
//! * [`bench`] — the `serve-bench` harness emitting `BENCH_serve.json`.
//! * [`chaos`] — deterministic seed-driven fault injection (panics, slow
//!   models, load failures, clock skew) for the `serve-chaos` harness and
//!   the chaos soak test, plus shard-level faults (kill / wedge / failed
//!   respawn) for the router's fleet-scope chaos.
//! * [`router`] — the fleet front door: N supervised engine shards
//!   behind consistent-hash routing, per-tenant token buckets,
//!   two-priority weighted-fair queues, and priority-ordered load
//!   shedding (shed batch, degrade interactive, reject last).
//! * [`supervisor`] — per-shard health probing, circuit breaking with
//!   half-open probing, wedge detection, and budgeted respawn.
//! * [`autoscale`] — consistent-hash ring with bounded rebalancing and
//!   the hysteresis/cooldown controller that drives elastic scale-up /
//!   scale-down of the router's shard fleet.
//! * [`router_bench`] — the `router-bench` harness emitting
//!   `BENCH_router.json` (multi-tenant open-loop mix, shard scaling, and
//!   the overload/shedding phase).
//! * [`json`] — minimal JSON emission + strict validation (the offline
//!   workspace has no real serde).
//! * [`video`] — stateful streaming-SR sessions: per-tile CRC32 content
//!   hashes skip unchanged tiles (cached HR bits blitted back), dirty
//!   rects expand by the halo radius so composites stay bit-identical
//!   to whole-frame runs, and an any-time M3/M5/M7/M11 ladder degrades
//!   PSNR instead of latency under deadline pressure.
//! * [`video_bench`] — the `video-bench` harness emitting
//!   `BENCH_video.json` (frames/sec and PSNR-vs-deadline on synthetic
//!   static/pan/scene-cut sequences).

pub mod autoscale;
pub mod bench;
pub mod chaos;
pub mod engine;
pub mod json;
pub mod loadgen;
pub mod plan_cache;
pub mod queue;
pub mod registry;
pub mod router;
pub mod router_bench;
pub mod supervisor;
pub mod telemetry;
pub mod video;
pub mod video_bench;

pub use autoscale::{AutoscaleConfig, AutoscaleController, HashRing, ScaleSignal};
pub use bench::{bench_report_json, run_bench, BenchConfig, BenchOutcome};
pub use chaos::{Chaos, ChaosConfig, FaultPoint, ShardChaos, ShardChaosConfig, ShardFaultPoint};
pub use engine::{
    Completion, Engine, EngineConfig, Health, ServeError, ShutdownReport, SubmitError, Ticket,
};
pub use loadgen::{run_load, LoadMode, LoadReport, LoadSpec};
pub use plan_cache::{
    DecisionSource, PlanCache, PrecisionDecision, PrecisionPolicy, ServingKernels, SharedPlanCache,
};
pub use queue::{BoundedQueue, PushError};
pub use registry::{ModelKey, ModelRegistry, RegistryError, RegistryStats};
pub use router::{
    BreakerState, Priority, RateLimit, Router, RouterConfig, RouterCounters, RouterServeError,
    RouterShutdownReport, RouterSnapshot, RouterSubmitError, RouterTelemetry, RouterTicket,
    ShardStatus, TenantPolicy, TenantSummary,
};
pub use telemetry::{Snapshot, Stage, StageSummary, Telemetry};
pub use video::{
    FrameResult, FrameStats, SessionStats, VideoError, VideoSession, VideoSessionSpec,
};
pub use video_bench::{
    run_video_bench, video_bench_report_json, VideoBenchConfig, VideoBenchReport,
};
