//! The serving engine: supervised worker pool + bounded queue + batcher.
//!
//! Requests enter through one admission path with three fronts:
//! [`Engine::submit`] and [`Engine::feed_video_frame`] return a
//! [`Ticket`] immediately or a typed [`SubmitError`], and
//! [`Engine::submit_with`] settles every outcome, rejections included,
//! through a completion hook. The path checks, in order, that the engine
//! is not draining, that the input is valid at the boundary
//! (NaN/Inf/zero-dim tensors are rejected before touching the queue),
//! the front's own checks (a registered model, or an open session of
//! the frame's shape) and the queue's bound, and counts every outcome.
//! Worker threads pull *groups* of same-model, same-shape requests from
//! the queue. Every group passes one preamble (queue wait, retry
//! backoff, deadlines) and one model resolution, then runs: an image
//! group as one batched forward pass through a cached plan, a video
//! session's frames one by one. Large frames take the same path: plans
//! stream the chain depth-first through row rings, so a whole-frame
//! plan's arena grows with the width, not the height, and a 360x640
//! frame runs whole instead of as halo tiles. Each request's journey is
//! timed per stage (queue wait → batch assembly → compute → reassembly)
//! into the shared [`Telemetry`].
//!
//! **Fault model.** A panicking forward pass no longer aborts the
//! process: batched-path panics are caught per group, the in-flight
//! requests are retried (bounded, with exponential backoff, honoring
//! their deadlines) or answered with [`ServeError::WorkerCrashed`], and
//! the dead worker thread is respawned by a supervisor under an
//! exponential-backoff restart budget. A panic on a lone large frame
//! (above [`EngineConfig::tile_threshold_px`]) is caught the same way but
//! does not kill the worker, which keeps its warm plans. Transient
//! model-load failures follow the same retry path. A request that crashes every attempt exhausts its retries and
//! is quarantined — a poison-pill input cannot crash-loop the pool
//! beyond its retry budget. Result delivery is idempotent: a ticket's
//! slot accepts only the first terminal outcome, so a late duplicate
//! fulfillment (e.g. after a shutdown-deadline race) is a no-op.
//!
//! **Shutdown** is drain-based and explicit: [`Engine::shutdown`] stops
//! admissions (submitters get [`SubmitError::Draining`]), flushes the
//! queue, joins the supervisor and workers within a deadline, and
//! answers anything left with typed errors so no caller ever hangs.
//! Dropping the engine without calling `shutdown` performs the same
//! drain. [`Engine::health`] reports `Healthy`/`Degraded`/`Draining`
//! derived from restart-budget consumption and queue depth.
//!
//! Deterministic fault injection for all of the above lives in
//! [`crate::chaos`] and is enabled through [`EngineConfig::chaos`].

use crate::chaos::{Chaos, ChaosConfig, FaultPoint};
use crate::plan_cache::{
    DecisionSource, PlanCache, PrecisionPolicy, ServedDatapath, ServingKernels,
};
use crate::queue::{BoundedQueue, PushError};
use crate::registry::{ModelKey, ModelRegistry};
use crate::telemetry::{Counters, Stage, Telemetry};
use crate::video::{SessionStats, VideoError, VideoSession, VideoSessionSpec};
use sesr_core::CollapsedSesr;
use sesr_tensor::Tensor;
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Engine sizing, batching, and fault-tolerance policy.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads consuming the queue.
    pub workers: usize,
    /// Bound on admitted-but-unstarted requests.
    pub queue_capacity: usize,
    /// Largest micro-batch a worker will assemble.
    pub max_batch: usize,
    /// Pixel count above which a lone request is a large frame. It no
    /// longer routes anything: large frames run whole through the same
    /// cached streamed plan as any batch. It only decides that a panic
    /// in a large frame's forward pass is contained — the request is
    /// retried and the worker survives with its warm plans — where any
    /// other group's panic exits the worker for the supervisor to respawn.
    pub tile_threshold_px: usize,
    /// Halo-tile side the engine used to cut large frames into. Unused
    /// by the engine since plans stream whole frames; kept for configs
    /// and reports that still read it. Video sessions take their tile
    /// from [`VideoSessionSpec`].
    pub tile: usize,
    /// Re-enqueue attempts per request after a retryable failure
    /// (worker crash, transient model-load failure).
    pub max_retries: u32,
    /// Total worker respawns the supervisor will perform before giving
    /// up on a crashed slot.
    pub restart_budget: u32,
    /// First retry/respawn backoff; doubles per consecutive failure.
    pub backoff_base: Duration,
    /// Upper bound on any single backoff sleep.
    pub backoff_cap: Duration,
    /// Seed for backoff jitter. Each backoff sleeps a deterministic
    /// fraction in `[0.5, 1.0)` of its exponential value, so retries and
    /// respawns de-synchronize instead of stampeding a recovering shard
    /// in lockstep. Same seed → same jitter sequence.
    pub jitter_seed: u64,
    /// Deterministic fault injection (`None` = no faults).
    pub chaos: Option<ChaosConfig>,
    /// Process-wide store of precision decisions (and the kernels they
    /// carry) that worker plan caches consult on a local miss and publish
    /// to. `None` gives every worker a private store; the router injects
    /// one store across its whole fleet so freshly spawned shards start
    /// warm.
    pub shared_plans: Option<Arc<crate::plan_cache::SharedPlanCache>>,
    /// Serving-precision policy. Under `Int8 { psnr_budget }` every
    /// model is graded once at first use (calibrate → quantize → ΔPSNR
    /// vs f32 on a fixed synthetic scene) and served from planned int8
    /// kernels when the loss fits the budget; models that exceed it
    /// silently fall back to f32 (`precision_fallbacks` counts them).
    /// Video sessions always serve f32: temporal tile reuse composites
    /// cached tiles across frames, and mixing precisions there would
    /// break the session's bit-consistency guarantees.
    pub precision: PrecisionPolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            max_batch: 8,
            tile_threshold_px: 256 * 256,
            tile: 128,
            max_retries: 2,
            restart_budget: 16,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(100),
            jitter_seed: 0x5E5E_B0FF,
            chaos: None,
            shared_plans: None,
            precision: PrecisionPolicy::F32,
        }
    }
}

/// Why a request was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at its bound; shed load or retry later.
    QueueFull {
        /// The configured bound.
        capacity: usize,
    },
    /// No model is registered under this key.
    UnknownModel(ModelKey),
    /// The input failed boundary validation (shape or non-finite data).
    InvalidInput {
        /// What the validator objected to.
        reason: String,
    },
    /// The engine is draining: shutdown has begun (or completed) and no
    /// new work is admitted.
    Draining,
    /// The engine is shutting down.
    ShuttingDown,
    /// No open video session with this id (never opened, or closed).
    UnknownSession(u64),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "rejected: queue full (capacity {capacity})")
            }
            SubmitError::UnknownModel(k) => write!(f, "rejected: model {k} is not registered"),
            SubmitError::InvalidInput { reason } => {
                write!(f, "rejected: invalid input: {reason}")
            }
            SubmitError::Draining => write!(f, "rejected: engine draining"),
            SubmitError::ShuttingDown => write!(f, "rejected: engine shutting down"),
            SubmitError::UnknownSession(id) => {
                write!(f, "rejected: no open video session with id {id}")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why an admitted request did not produce an output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The deadline passed before a worker started the request.
    DeadlineExpired,
    /// The model failed to load from its registered artifact.
    ModelLoad(String),
    /// The forward pass panicked on every attempt; the request was
    /// quarantined after exhausting its retry budget.
    WorkerCrashed(String),
    /// The engine shut down before the request ran.
    ShuttingDown,
    /// The request was rejected at admission. Only produced on the
    /// [`Engine::submit_with`] path, where rejections are delivered
    /// through the completion hook so every submission settles exactly
    /// once through one channel.
    Rejected(SubmitError),
    /// A video-session frame failed with a typed session error (stale
    /// sequence, closed session, shape mismatch discovered at compute).
    Video(VideoError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::DeadlineExpired => write!(f, "deadline expired before compute started"),
            ServeError::ModelLoad(m) => write!(f, "model load failed: {m}"),
            ServeError::WorkerCrashed(m) => {
                write!(f, "worker crashed while serving this request: {m}")
            }
            ServeError::ShuttingDown => write!(f, "engine shut down before the request ran"),
            ServeError::Rejected(e) => write!(f, "rejected at admission: {e}"),
            ServeError::Video(e) => write!(f, "video session: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Engine liveness as seen by a load balancer or health probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Serving normally.
    Healthy,
    /// Still serving, but the restart budget is half spent or the queue
    /// is ≥ 80% full — route new traffic elsewhere if possible.
    Degraded,
    /// Not admitting work: shutdown has begun (or the worker pool died).
    Draining,
}

/// What [`Engine::shutdown`] accomplished within its deadline.
#[derive(Debug, Clone, Copy)]
pub struct ShutdownReport {
    /// Queued requests answered with [`ServeError::ShuttingDown`]
    /// because they could not be flushed in time.
    pub dropped: u64,
    /// Queued requests whose deadline had already expired at drain time,
    /// answered with [`ServeError::DeadlineExpired`].
    pub expired: u64,
    /// True when the supervisor and every worker joined in time; false
    /// when the deadline passed first (threads are left detached and the
    /// remaining queue was answered with typed errors regardless).
    pub joined: bool,
    /// Wall-clock time the shutdown took.
    pub elapsed: Duration,
}

/// Terminal-outcome callback for [`Engine::submit_with`]. Invoked exactly
/// once per submission, outside any engine lock, on whichever thread
/// produces the outcome (a worker, the supervisor, or — for synchronous
/// admission rejections — the submitting thread itself).
pub type Completion = Box<dyn FnOnce(Result<Tensor, ServeError>) + Send + 'static>;

enum SlotState {
    /// No outcome yet; a [`Ticket::wait`] will collect it.
    Pending,
    /// Outcome stored, waiting for the ticket.
    Done(Result<Tensor, ServeError>),
    /// No outcome yet; deliver it to this hook instead of storing it.
    /// (`Option` so the hook can be taken under the lock and run after
    /// releasing it.)
    Hooked(Option<Completion>),
    /// Outcome already delivered (waited on, or handed to the hook).
    Delivered,
}

/// One-shot response slot shared between a worker and a waiting caller
/// (or a completion hook). Fulfillment is idempotent: only the first
/// terminal outcome is delivered; late duplicates are dropped.
struct Slot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(SlotState::Pending),
            ready: Condvar::new(),
        })
    }

    fn hooked(done: Completion) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(SlotState::Hooked(Some(done))),
            ready: Condvar::new(),
        })
    }

    fn fulfill(&self, result: Result<Tensor, ServeError>) {
        let mut g = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        match &mut *g {
            SlotState::Pending => {
                *g = SlotState::Done(result);
                drop(g);
                self.ready.notify_all();
            }
            SlotState::Hooked(hook) => {
                let hook = hook.take();
                *g = SlotState::Delivered;
                // The hook runs without the slot lock: it may be slow or
                // re-enter the engine (e.g. a router rerouting the job).
                drop(g);
                if let Some(hook) = hook {
                    hook(result);
                }
            }
            // Duplicate fulfillment (shutdown races a worker): first wins.
            SlotState::Done(_) | SlotState::Delivered => {}
        }
    }

    fn wait(&self) -> Result<Tensor, ServeError> {
        let mut g = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if matches!(*g, SlotState::Done(_)) {
                let SlotState::Done(v) = std::mem::replace(&mut *g, SlotState::Delivered) else {
                    unreachable!("matched Done above");
                };
                return v;
            }
            g = self.ready.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Handle to an admitted request. Obtain the result with [`Ticket::wait`].
pub struct Ticket {
    /// Engine-unique request id (submission order).
    pub id: u64,
    slot: Arc<Slot>,
}

impl fmt::Debug for Ticket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ticket").field("id", &self.id).finish()
    }
}

impl Ticket {
    /// Blocks until the request completes, returning the upscaled tensor
    /// or the typed reason it was dropped.
    ///
    /// # Errors
    ///
    /// See [`ServeError`].
    pub fn wait(self) -> Result<Tensor, ServeError> {
        self.slot.wait()
    }
}

/// Shared handle to one open video session. Workers lock `state` only
/// while settling a frame; admission reads the immutable geometry
/// (`ladder`, `height`, `width`) without touching the lock.
struct SessionHandle {
    id: u64,
    /// Ladder keys, cheapest first — re-resolved per group so registry
    /// reloads take effect mid-session.
    ladder: Vec<ModelKey>,
    height: usize,
    width: usize,
    /// Set by `close_video_session`; queued frames observing it settle
    /// as [`VideoError::UnknownSession`] instead of computing.
    closed: AtomicBool,
    state: Mutex<VideoSession>,
}

impl SessionHandle {
    fn stats(&self) -> SessionStats {
        self.state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .stats()
    }
}

enum JobKind {
    /// A stateless single-image request.
    Image,
    /// One frame of an open video session.
    Frame {
        session: Arc<SessionHandle>,
        seq: u64,
    },
}

/// When an admitted request must be answered.
enum Due {
    /// Within this long of admission ([`Engine::submit`],
    /// [`Engine::feed_video_frame`]).
    Within(Option<Duration>),
    /// By this instant ([`Engine::submit_with`]); one already past is
    /// refused at admission.
    By(Option<Instant>),
}

struct Job {
    key: ModelKey,
    input: Tensor,
    deadline: Option<Instant>,
    enqueued: Instant,
    slot: Arc<Slot>,
    /// Re-enqueues consumed so far (0 on first admission).
    retries: u32,
    /// Retry backoff: not eligible for execution before this instant.
    not_before: Option<Instant>,
    kind: JobKind,
}

const STATE_RUNNING: u8 = 0;
const STATE_DRAINING: u8 = 1;
const STATE_STOPPED: u8 = 2;

struct Shared {
    queue: BoundedQueue<Job>,
    registry: Arc<ModelRegistry>,
    telemetry: Arc<Telemetry>,
    cfg: EngineConfig,
    ids: AtomicU64,
    chaos: Option<Chaos>,
    state: AtomicU8,
    restarts_used: AtomicU64,
    jitter_draws: AtomicU64,
    /// Open video sessions by id. Ids start at 1; 0 is the batch-key
    /// sentinel for stateless image requests.
    videos: Mutex<HashMap<u64, Arc<SessionHandle>>>,
    session_ids: AtomicU64,
}

impl Shared {
    /// True until shutdown begins or the worker pool dies.
    fn running(&self) -> bool {
        self.state.load(Ordering::Acquire) == STATE_RUNNING
    }

    /// Stops admissions and closes the queue: shutdown, or a dead pool.
    fn stop_admitting(&self) {
        let _ = self.state.compare_exchange(
            STATE_RUNNING,
            STATE_DRAINING,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        self.queue.close();
    }

    /// Takes every job left in the closed queue, oldest first.
    fn drain(&self) -> impl Iterator<Item = Job> + '_ {
        std::iter::from_fn(|| self.queue.pop_group(usize::MAX, |_| 0u8)).flatten()
    }

    fn count_fault(&self, point: FaultPoint) {
        self.telemetry.counters(|c| {
            c.faults_injected += 1;
            match point {
                FaultPoint::PanicInForward => c.faults_panic += 1,
                FaultPoint::SlowModel => c.faults_slow += 1,
                FaultPoint::RegistryLoad => c.faults_load += 1,
                FaultPoint::ClockSkew => c.faults_skew += 1,
            }
        });
    }

    fn backoff(&self, consecutive: u32) -> Duration {
        let draw = self.jitter_draws.fetch_add(1, Ordering::Relaxed);
        jittered_backoff(
            self.cfg.backoff_base,
            self.cfg.backoff_cap,
            consecutive,
            self.cfg.jitter_seed,
            draw,
        )
    }
}

/// Exponential backoff with deterministic decorrelation jitter: the
/// `consecutive`-th failure sleeps a seeded fraction in `[0.5, 1.0)` of
/// `min(base * 2^(consecutive-1), cap)`. Jitter keeps simultaneous
/// retriers (or a fleet of respawning shards) from hammering a
/// recovering dependency in lockstep, while the seed keeps tests and
/// chaos runs reproducible: the `draw` index selects the position in the
/// seed's jitter stream.
pub(crate) fn jittered_backoff(
    base: Duration,
    cap: Duration,
    consecutive: u32,
    seed: u64,
    draw: u64,
) -> Duration {
    let exp = consecutive.saturating_sub(1).min(16);
    let full = base.saturating_mul(1 << exp).min(cap);
    let h = crate::chaos::splitmix64(seed ^ draw.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // Top 53 bits → uniform in [0, 1), mapped to a factor in [0.5, 1.0).
    let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
    full.mul_f64(0.5 + 0.5 * unit)
}

/// Multi-threaded batched inference engine over a [`ModelRegistry`],
/// with supervised (crash-respawning) workers.
pub struct Engine {
    shared: Arc<Shared>,
    /// The supervisor thread handle; taken (under the lock) by the first
    /// `shutdown`, which also serializes concurrent shutdown calls.
    supervisor: Mutex<Option<JoinHandle<()>>>,
}

impl Engine {
    /// Starts `cfg.workers` worker threads over `registry`, supervised
    /// for crash recovery.
    ///
    /// `workers == 0` is allowed (useful in tests: requests queue but
    /// nothing consumes them until the engine shuts down).
    pub fn new(cfg: EngineConfig, registry: Arc<ModelRegistry>) -> Self {
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(cfg.queue_capacity),
            registry,
            telemetry: Arc::new(Telemetry::new()),
            chaos: cfg.chaos.clone().map(Chaos::new),
            cfg,
            ids: AtomicU64::new(0),
            state: AtomicU8::new(STATE_RUNNING),
            restarts_used: AtomicU64::new(0),
            jitter_draws: AtomicU64::new(0),
            videos: Mutex::new(HashMap::new()),
            session_ids: AtomicU64::new(1),
        });
        let supervisor = (shared.cfg.workers > 0).then(|| {
            let (tx, rx) = channel();
            let handles: Vec<Option<JoinHandle<()>>> = (0..shared.cfg.workers)
                .map(|i| Some(spawn_worker(&shared, i, 0, &tx)))
                .collect();
            let sup_shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("sesr-serve-supervisor".to_string())
                .spawn(move || supervisor_loop(&sup_shared, &rx, &tx, handles))
                .expect("spawn serve supervisor")
        });
        Self {
            shared,
            supervisor: Mutex::new(supervisor),
        }
    }

    /// Admits a `[1, H, W]` request for `key`, to be answered within
    /// `deadline` of now (if given). Returns immediately.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Draining`] once shutdown began,
    /// [`SubmitError::InvalidInput`] for malformed tensors,
    /// [`SubmitError::UnknownModel`] before touching the queue,
    /// [`SubmitError::QueueFull`] at the bound, and
    /// [`SubmitError::ShuttingDown`] when the queue closed mid-submit.
    pub fn submit(
        &self,
        key: &ModelKey,
        input: Tensor,
        deadline: Option<Duration>,
    ) -> Result<Ticket, SubmitError> {
        self.admit_ticket(input, deadline, |_| self.image_job(key))
    }

    /// Lifecycle-hook submission: like [`Engine::submit`], but the
    /// terminal outcome is delivered to `done` (exactly once, outside any
    /// engine lock) instead of through a [`Ticket`]. Admission rejections
    /// are delivered synchronously on the calling thread as
    /// [`ServeError::Rejected`], so every call settles through the same
    /// single channel — the property the router's fleet-level
    /// exactly-one-outcome ledger is built on. `deadline` is absolute;
    /// an already-expired deadline settles as
    /// [`ServeError::DeadlineExpired`] without touching the queue.
    pub fn submit_with(
        &self,
        key: &ModelKey,
        input: Tensor,
        deadline: Option<Instant>,
        done: Completion,
    ) {
        let slot = Slot::hooked(done);
        if let Err(e) = self.admit(input, Due::By(deadline), &slot, |_| self.image_job(key)) {
            slot.fulfill(Err(e));
        }
    }

    /// Feeds frame `seq` to session `session_id`, to be settled within
    /// `deadline` of now (if given). Returns a [`Ticket`] immediately;
    /// waiting on it yields the composited HR frame. Settlement is
    /// idempotent per `seq` — re-feeding a settled frame returns the
    /// cached output, and an older `seq` settles as a typed
    /// [`VideoError::StaleFrame`] through the ticket.
    ///
    /// # Errors
    ///
    /// [`SubmitError::UnknownSession`] for closed or never-opened ids,
    /// plus every rejection [`Engine::submit`] can produce.
    pub fn feed_video_frame(
        &self,
        session_id: u64,
        seq: u64,
        frame: Tensor,
        deadline: Option<Duration>,
    ) -> Result<Ticket, SubmitError> {
        self.admit_ticket(frame, deadline, |frame| {
            let session = self
                .session(session_id)
                .ok_or(SubmitError::UnknownSession(session_id))?;
            let shape = frame.shape();
            if shape[1] != session.height || shape[2] != session.width {
                return Err(SubmitError::InvalidInput {
                    reason: format!(
                        "frame shape {shape:?} does not match session shape [1, {}, {}]",
                        session.height, session.width
                    ),
                });
            }
            // Grouped under the top rung: the queue batches frames per
            // session (the id is in the batch key), and the key only has
            // to be a registered model for admission.
            let key = session
                .ladder
                .last()
                .cloned()
                .expect("open session has a non-empty ladder");
            Ok((key, JobKind::Frame { session, seq }))
        })
    }

    /// The one admission path; [`Engine::submit`],
    /// [`Engine::submit_with`] and [`Engine::feed_video_frame`] are its
    /// fronts. In order: the lifecycle check, a [`Due::By`] deadline
    /// already past, boundary validation, the front's own checks (`front`
    /// names the job's key and kind), then one `offer`. Every outcome is
    /// counted here; the front delivers a refusal through its own
    /// channel. Returns the request id.
    fn admit(
        &self,
        input: Tensor,
        due: Due,
        slot: &Arc<Slot>,
        front: impl FnOnce(&Tensor) -> Result<(ModelKey, JobKind), SubmitError>,
    ) -> Result<u64, ServeError> {
        let shared = &self.shared;
        if !shared.running() {
            shared.telemetry.counters(|c| c.rejected_draining += 1);
            return Err(ServeError::Rejected(SubmitError::Draining));
        }
        if let Due::By(Some(d)) = due {
            if Instant::now() >= d {
                shared.telemetry.counters(|c| c.rejected_deadline += 1);
                return Err(ServeError::DeadlineExpired);
            }
        }
        let checked = validate_input(&input)
            .map_err(|reason| SubmitError::InvalidInput { reason })
            .and_then(|()| front(&input));
        let (key, kind) = checked.map_err(|e| {
            if matches!(e, SubmitError::InvalidInput { .. }) {
                shared.telemetry.counters(|c| c.rejected_invalid += 1);
            }
            ServeError::Rejected(e)
        })?;
        let now = Instant::now();
        let id = shared.ids.fetch_add(1, Ordering::Relaxed);
        let frame = matches!(kind, JobKind::Frame { .. });
        let job = Job {
            key,
            input,
            deadline: match due {
                Due::Within(d) => d.map(|d| now + d),
                Due::By(d) => d,
            },
            enqueued: now,
            slot: Arc::clone(slot),
            retries: 0,
            not_before: None,
            kind,
        };
        let refusal = match shared.queue.offer(job) {
            Ok(()) => {
                shared.telemetry.counters(|c| {
                    c.submitted += 1;
                    c.video_frames_in += u64::from(frame);
                });
                return Ok(id);
            }
            Err((PushError::Full { capacity }, _)) => {
                shared.telemetry.counters(|c| c.rejected_queue_full += 1);
                SubmitError::QueueFull { capacity }
            }
            Err((PushError::Closed, _)) => {
                shared.telemetry.counters(|c| c.rejected_shutdown += 1);
                SubmitError::ShuttingDown
            }
        };
        Err(ServeError::Rejected(refusal))
    }

    /// [`Engine::admit`] for the two fronts that answer through a
    /// [`Ticket`]. Their deadlines are relative, so none is past at
    /// admission.
    fn admit_ticket(
        &self,
        input: Tensor,
        deadline: Option<Duration>,
        front: impl FnOnce(&Tensor) -> Result<(ModelKey, JobKind), SubmitError>,
    ) -> Result<Ticket, SubmitError> {
        let slot = Slot::new();
        match self.admit(input, Due::Within(deadline), &slot, front) {
            Ok(id) => Ok(Ticket { id, slot }),
            Err(ServeError::Rejected(e)) => Err(e),
            Err(e) => unreachable!("a relative deadline is never past at admission: {e}"),
        }
    }

    /// The image fronts' own check: `key` must be registered.
    fn image_job(&self, key: &ModelKey) -> Result<(ModelKey, JobKind), SubmitError> {
        if self.shared.registry.contains(key) {
            Ok((key.clone(), JobKind::Image))
        } else {
            Err(SubmitError::UnknownModel(key.clone()))
        }
    }

    /// Opens a streaming video session over `spec` and returns its id.
    /// The ladder is resolved once here to validate geometry (uniform
    /// scale, halo radius); the per-frame path re-resolves models so
    /// registry reloads take effect mid-session.
    ///
    /// # Errors
    ///
    /// [`VideoError::Draining`] once shutdown began,
    /// [`VideoError::ModelLoad`] for unknown or unloadable ladder keys,
    /// and the [`VideoSession::new`] geometry errors.
    pub fn open_video_session(&self, spec: VideoSessionSpec) -> Result<u64, VideoError> {
        if !self.shared.running() {
            return Err(VideoError::Draining);
        }
        let models = spec
            .ladder
            .iter()
            .map(|key| self.shared.registry.get(key))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| VideoError::ModelLoad(e.to_string()))?;
        Ok(self.insert_session(VideoSession::new(spec, &models)?))
    }

    /// Closes a video session, returning its lifetime stats. Frames
    /// still queued settle as [`VideoError::UnknownSession`] when a
    /// worker reaches them. Closing twice is a typed error, not a hang.
    ///
    /// # Errors
    ///
    /// [`VideoError::UnknownSession`] when no session has this id.
    pub fn close_video_session(&self, session_id: u64) -> Result<SessionStats, VideoError> {
        Ok(self.remove_session(session_id)?.stats())
    }

    /// Removes session `session_id` and hands its state (tile hashes,
    /// cached HR plane, stats) to the caller, for migration onto another
    /// engine via [`Engine::import_video_session`]. Frames still queued
    /// for it settle as [`VideoError::UnknownSession`], exactly like a
    /// close. The extraction only succeeds when no worker holds the
    /// session mid-frame; a contended handle is a typed error (the
    /// migrator settles the session as lost instead of stalling a
    /// scale-down on a busy session).
    ///
    /// # Errors
    ///
    /// [`VideoError::UnknownSession`] when no session has this id;
    /// [`VideoError::SessionLost`] when the state is pinned by an
    /// in-flight frame.
    pub fn export_video_session(&self, session_id: u64) -> Result<VideoSession, VideoError> {
        match Arc::try_unwrap(self.remove_session(session_id)?) {
            Ok(h) => Ok(h.state.into_inner().unwrap_or_else(PoisonError::into_inner)),
            // A queued frame still holds the handle; its worker will see
            // `closed` and settle it typed. The state itself cannot be
            // moved out, so the migration reports the session lost.
            Err(_) => Err(VideoError::SessionLost),
        }
    }

    /// Installs a migrated [`VideoSession`] (from another engine's
    /// [`Engine::export_video_session`]) under a fresh id, preserving
    /// its temporal-reuse state and lifetime stats.
    ///
    /// # Errors
    ///
    /// [`VideoError::Draining`] once shutdown began.
    pub fn import_video_session(&self, session: VideoSession) -> Result<u64, VideoError> {
        if !self.shared.running() {
            return Err(VideoError::Draining);
        }
        Ok(self.insert_session(session))
    }

    /// Lifetime stats of an open session.
    ///
    /// # Errors
    ///
    /// [`VideoError::UnknownSession`] when no session has this id.
    pub fn video_session_stats(&self, session_id: u64) -> Result<SessionStats, VideoError> {
        self.session(session_id)
            .map(|s| s.stats())
            .ok_or(VideoError::UnknownSession(session_id))
    }

    /// Number of currently open video sessions.
    pub fn open_video_sessions(&self) -> usize {
        self.sessions().len()
    }

    /// The session table, locked.
    fn sessions(&self) -> MutexGuard<'_, HashMap<u64, Arc<SessionHandle>>> {
        self.shared
            .videos
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The open session with this id.
    fn session(&self, session_id: u64) -> Option<Arc<SessionHandle>> {
        self.sessions().get(&session_id).cloned()
    }

    /// The one insert into the session table, for an opened or an
    /// imported session.
    fn insert_session(&self, session: VideoSession) -> u64 {
        let id = self.shared.session_ids.fetch_add(1, Ordering::Relaxed);
        let handle = Arc::new(SessionHandle {
            id,
            ladder: session.spec().ladder.clone(),
            height: session.spec().height,
            width: session.spec().width,
            closed: AtomicBool::new(false),
            state: Mutex::new(session),
        });
        self.sessions().insert(id, handle);
        self.shared
            .telemetry
            .counters(|c| c.video_sessions_opened += 1);
        id
    }

    /// The one remove from the session table, for a close or an export.
    /// The handle is marked `closed`, so frames still queued for it
    /// settle typed.
    fn remove_session(&self, session_id: u64) -> Result<Arc<SessionHandle>, VideoError> {
        let handle = self
            .sessions()
            .remove(&session_id)
            .ok_or(VideoError::UnknownSession(session_id))?;
        handle.closed.store(true, Ordering::Release);
        self.shared
            .telemetry
            .counters(|c| c.video_sessions_closed += 1);
        Ok(handle)
    }

    /// Stops workers from consuming (producers still admit up to the
    /// bound) — used to demonstrate backpressure deterministically.
    pub fn pause(&self) {
        self.shared.queue.set_paused(true);
    }

    /// Resumes consumption after [`Engine::pause`].
    pub fn resume(&self) {
        self.shared.queue.set_paused(false);
    }

    /// Requests currently admitted but not yet claimed by a worker.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.len()
    }

    /// The engine's telemetry sink.
    pub fn telemetry(&self) -> Arc<Telemetry> {
        Arc::clone(&self.shared.telemetry)
    }

    /// The model registry this engine serves from.
    pub fn registry(&self) -> Arc<ModelRegistry> {
        Arc::clone(&self.shared.registry)
    }

    /// Worker respawns performed so far (bounded by the restart budget).
    pub fn restarts_used(&self) -> u64 {
        self.shared.restarts_used.load(Ordering::Relaxed)
    }

    /// Readiness derived from restart-budget consumption and queue
    /// depth; `Draining` once shutdown began or the worker pool died.
    pub fn health(&self) -> Health {
        if !self.shared.running() {
            return Health::Draining;
        }
        let used = self.shared.restarts_used.load(Ordering::Relaxed);
        let budget = u64::from(self.shared.cfg.restart_budget);
        let budget_strained =
            (budget == 0 && used > 0) || (budget > 0 && used.saturating_mul(2) >= budget);
        let queue_strained = self.shared.queue.len().saturating_mul(5)
            >= self.shared.cfg.queue_capacity.saturating_mul(4);
        if budget_strained || queue_strained {
            Health::Degraded
        } else {
            Health::Healthy
        }
    }

    /// Graceful drain: stops admissions (submitters see
    /// [`SubmitError::Draining`]), flushes already-admitted work, and
    /// joins the supervisor and workers. If `deadline` passes first, the
    /// remaining queue is answered with typed errors (expired deadlines
    /// as [`ServeError::DeadlineExpired`], the rest as
    /// [`ServeError::ShuttingDown`]) so no caller hangs, and the still
    /// busy threads are left detached. Idempotent; concurrent callers
    /// serialize and later ones observe an already-drained engine.
    pub fn shutdown(&self, deadline: Duration) -> ShutdownReport {
        let start = Instant::now();
        let mut guard = self
            .supervisor
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.shared.stop_admitting();
        let mut joined = true;
        if let Some(h) = guard.take() {
            loop {
                if h.is_finished() {
                    let _ = h.join();
                    break;
                }
                if start.elapsed() >= deadline {
                    joined = false;
                    drop(h); // detach: threads cannot be killed
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        // Anything still queued (zero workers, or the deadline cut the
        // drain short) is answered here so no ticket waits forever.
        let (mut dropped, mut expired) = (0u64, 0u64);
        let now = Instant::now();
        for job in self.shared.drain() {
            if job.deadline.is_some_and(|d| now >= d) {
                expired += 1;
                self.shared.telemetry.counters(|c| c.rejected_deadline += 1);
                job.slot.fulfill(Err(ServeError::DeadlineExpired));
            } else {
                dropped += 1;
                self.shared.telemetry.counters(|c| c.dropped_in_drain += 1);
                job.slot.fulfill(Err(ServeError::ShuttingDown));
            }
        }
        self.shared.state.store(STATE_STOPPED, Ordering::Release);
        drop(guard);
        ShutdownReport {
            dropped,
            expired,
            joined,
            elapsed: start.elapsed(),
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        if self.shared.state.load(Ordering::Acquire) != STATE_STOPPED {
            let _ = self.shutdown(Duration::from_secs(60));
        }
    }
}

/// Boundary validation: shape `[1, H, W]` with H, W ≥ 1 and finite data.
/// Shared with the router, which validates at *its* admission edge so a
/// malformed tensor is rejected before it costs a routing decision.
pub(crate) fn validate_input(t: &Tensor) -> Result<(), String> {
    let s = t.shape();
    if s.len() != 3 || s[0] != 1 {
        return Err(format!("expected input shape [1, H, W], got {s:?}"));
    }
    if s[1] == 0 || s[2] == 0 {
        return Err(format!("zero-sized input dimension: {s:?}"));
    }
    if let Some(bad) = t.data().iter().find(|v| !v.is_finite()) {
        return Err(format!("non-finite input value {bad}"));
    }
    Ok(())
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// How a worker announced its exit to the supervisor.
struct WorkerExit {
    index: usize,
    crashed: bool,
}

fn spawn_worker(
    shared: &Arc<Shared>,
    index: usize,
    generation: u64,
    tx: &Sender<WorkerExit>,
) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    let tx = tx.clone();
    std::thread::Builder::new()
        .name(format!("sesr-serve-{index}-g{generation}"))
        .spawn(move || {
            let crashed = matches!(worker_loop(&shared), LoopEnd::Crashed);
            let _ = tx.send(WorkerExit { index, crashed });
        })
        .expect("spawn serve worker")
}

/// The supervisor: joins exiting workers, respawns crashed ones with
/// exponential backoff while the restart budget lasts, and — if the
/// whole pool dies with the budget spent — fails everything still
/// queued so no caller hangs on a ticket.
fn supervisor_loop(
    shared: &Arc<Shared>,
    rx: &Receiver<WorkerExit>,
    tx: &Sender<WorkerExit>,
    mut handles: Vec<Option<JoinHandle<()>>>,
) {
    let mut live = handles.iter().filter(|h| h.is_some()).count();
    let mut consecutive = vec![0u32; handles.len()];
    let mut generation = 0u64;
    while live > 0 {
        let Ok(exit) = rx.recv() else { break };
        if let Some(h) = handles[exit.index].take() {
            let _ = h.join();
        }
        if !exit.crashed {
            live -= 1;
            continue;
        }
        let used = shared.restarts_used.load(Ordering::Relaxed);
        if used >= u64::from(shared.cfg.restart_budget) {
            live -= 1;
            if live == 0 {
                fail_pending_after_pool_death(shared);
            }
            continue;
        }
        shared.restarts_used.store(used + 1, Ordering::Relaxed);
        consecutive[exit.index] += 1;
        // While draining, respawn immediately: queued work still needs a
        // consumer, and the backoff only protects a live engine from a
        // hot crash loop.
        if shared.running() {
            std::thread::sleep(shared.backoff(consecutive[exit.index]));
        }
        shared.telemetry.counters(|c| c.worker_restarts += 1);
        generation += 1;
        handles[exit.index] = Some(spawn_worker(shared, exit.index, generation, tx));
    }
}

/// Terminal path for a dead pool: close the queue and answer everything
/// still in it. The engine stops admitting (submitters see `Draining`).
fn fail_pending_after_pool_death(shared: &Shared) {
    shared.stop_admitting();
    for job in shared.drain() {
        shared.telemetry.counters(|c| c.requests_quarantined += 1);
        job.slot.fulfill(Err(ServeError::WorkerCrashed(
            "worker pool dead: restart budget exhausted".to_string(),
        )));
    }
}

enum LoopEnd {
    Clean,
    Crashed,
}

enum GroupOutcome {
    Done,
    WorkerCrashed,
}

fn worker_loop(shared: &Shared) -> LoopEnd {
    // Session id joins the batch key (0 = stateless image) so frames of
    // one session form their own groups, in FIFO (= sequence) order, and
    // never mix with image batches.
    let batch_key = |j: &Job| -> (ModelKey, Vec<usize>, u64) {
        let sid = match &j.kind {
            JobKind::Image => 0,
            JobKind::Frame { session, .. } => session.id,
        };
        (j.key.clone(), j.input.shape().to_vec(), sid)
    };
    // Worker-local: plans survive across groups, die with the worker.
    // Precision decisions are drawn from (and published to) the store,
    // shared per process when the router injects one, so a respawned
    // worker or a freshly scaled-up shard starts from warm kernels; the
    // plan arenas themselves stay worker-local (sharing them would
    // serialize compute on a lock).
    let mut plans = PlanCache::with_shared(shared.cfg.shared_plans.clone().unwrap_or_default());
    while let Some(group) = shared.queue.pop_group(shared.cfg.max_batch, batch_key) {
        let live = dequeue(shared, group);
        if live.is_empty() {
            continue;
        }
        let outcome = if matches!(live[0].kind, JobKind::Frame { .. }) {
            process_video_group(shared, &mut plans, live)
        } else {
            process_group(shared, &mut plans, live)
        };
        if matches!(outcome, GroupOutcome::WorkerCrashed) {
            return LoopEnd::Crashed;
        }
    }
    LoopEnd::Clean
}

/// The group preamble both group paths share: records each job's queue
/// wait, honours retry backoff and settles the jobs whose deadline has
/// passed. Returns the jobs still live.
fn dequeue(shared: &Shared, group: Vec<Job>) -> Vec<Job> {
    let dequeued = Instant::now();
    // Queue wait is per-request: admission to first worker attention.
    for job in &group {
        shared
            .telemetry
            .record(Stage::QueueWait, dequeued.duration_since(job.enqueued));
    }
    // Honor retry backoff: the group waits for its latest eligible time
    // (bounded by backoff_cap, so this is a short sleep).
    if let Some(nb) = group.iter().filter_map(|j| j.not_before).max() {
        if let Some(d) = nb.checked_duration_since(dequeued) {
            std::thread::sleep(d);
        }
    }
    // Deadline check happens at dequeue: a request that waited past its
    // deadline is dropped *before* spending compute on it (the any-time
    // ladder governs frames that are only *near* theirs). Chaos can skew
    // the observed clock forward, making deadlines fire early.
    let mut now = Instant::now();
    if let Some(skew) = shared.chaos.as_ref().and_then(|c| c.deadline_skew()) {
        shared.count_fault(FaultPoint::ClockSkew);
        now += skew;
    }
    let (live, expired): (Vec<Job>, Vec<Job>) = group
        .into_iter()
        .partition(|j| j.deadline.is_none_or(|d| now < d));
    for job in expired {
        shared.telemetry.counters(|c| c.rejected_deadline += 1);
        job.slot.fulfill(Err(ServeError::DeadlineExpired));
    }
    live
}

/// Model resolution for a group: one key for an image group, the whole
/// ladder for a frame group (re-resolved per group, so registry reloads
/// take effect mid-session). Chaos-injected load failures are transient
/// and retryable; real registry errors retry too (a second attempt may
/// hit a repaired artifact), terminal after the budget. On a failure the
/// jobs go to [`retry_or_fail`] and `None` is returned.
fn load_models(
    shared: &Shared,
    keys: &[ModelKey],
    jobs: &mut Vec<Job>,
) -> Option<Vec<Arc<CollapsedSesr>>> {
    let loaded = if shared.chaos.as_ref().is_some_and(Chaos::fail_registry_load) {
        shared.count_fault(FaultPoint::RegistryLoad);
        Err("chaos: injected transient registry load failure".to_string())
    } else {
        keys.iter()
            .map(|k| shared.registry.get(k).map_err(|e| e.to_string()))
            .collect()
    };
    let models = match loaded {
        Ok(m) => m,
        Err(msg) => {
            shared.telemetry.counters(|c| c.model_load_failures += 1);
            retry_or_fail(shared, std::mem::take(jobs), &FailureKind::ModelLoad, &msg);
            return None;
        }
    };
    if let Some(delay) = shared.chaos.as_ref().and_then(Chaos::slow_model) {
        shared.count_fault(FaultPoint::SlowModel);
        std::thread::sleep(delay);
    }
    Some(models)
}

fn process_group(shared: &Shared, plans: &mut PlanCache, mut live: Vec<Job>) -> GroupOutcome {
    let key = live[0].key.clone();
    let Some(models) = load_models(shared, std::slice::from_ref(&key), &mut live) else {
        return GroupOutcome::Done;
    };
    // Resolve the serving precision once per group. Under the f32 policy
    // the first group for a model pays the flatten; under int8 it pays
    // the grading (calibrate → quantize → ΔPSNR). Either may be warmed
    // from the store, and every later group hits the worker-local entry.
    let policy = shared.cfg.precision;
    let (decision, source) = plans.decision(&key, &models[0], policy);
    if source == DecisionSource::Computed
        && matches!(policy, PrecisionPolicy::Int8 { .. })
        && !decision.is_int8()
    {
        // Graded here and the budget lost: one fallback per fresh
        // measurement, not per request.
        shared.telemetry.counters(|c| c.precision_fallbacks += 1);
    }
    match &decision.kernels {
        ServingKernels::F32(k) => run_batch_jobs(shared, plans, k, live),
        ServingKernels::Int8(k) => run_batch_jobs(shared, plans, k, live),
    }
}

/// Video-session group: frames of one session, dequeued in FIFO (=
/// sequence) order. Each frame locks the session state machine and
/// settles independently. Panics are contained per frame — like a large
/// frame's, a crash fails (retryably) only that frame, never the worker
/// thread — and because the session commits state only after a
/// frame fully computes, the retry replays against unchanged state.
fn process_video_group(shared: &Shared, plans: &mut PlanCache, mut live: Vec<Job>) -> GroupOutcome {
    let JobKind::Frame { session, .. } = &live[0].kind else {
        unreachable!("video groups hold only frame jobs");
    };
    let session = Arc::clone(session);
    if session.closed.load(Ordering::Acquire) {
        for job in live {
            job.slot
                .fulfill(Err(ServeError::Video(VideoError::UnknownSession(
                    session.id,
                ))));
        }
        return GroupOutcome::Done;
    }
    let Some(models) = load_models(shared, &session.ladder, &mut live) else {
        return GroupOutcome::Done;
    };
    for job in live {
        let seq = match &job.kind {
            JobKind::Frame { seq, .. } => *seq,
            JobKind::Image => unreachable!("video groups hold only frame jobs"),
        };
        let t0 = Instant::now();
        let outcome = {
            let mut state = session.state.lock().unwrap_or_else(PoisonError::into_inner);
            // The panic is caught *inside* the block holding the lock,
            // so the guard drops normally and the mutex is not poisoned.
            catch_unwind(AssertUnwindSafe(|| {
                if shared.chaos.as_ref().is_some_and(Chaos::panic_in_forward) {
                    shared.count_fault(FaultPoint::PanicInForward);
                    panic!("chaos: injected panic in frame settle");
                }
                state.process_frame(seq, &job.input, job.deadline, &models, plans)
            }))
        };
        match outcome {
            Ok(Ok(res)) => {
                shared.telemetry.record(Stage::Compute, t0.elapsed());
                let fs = res.stats;
                shared.telemetry.complete(job.enqueued.elapsed());
                shared.telemetry.counters(|c| {
                    if fs.duplicate {
                        c.video_frames_duplicate += 1;
                    } else {
                        c.video_frames_completed += 1;
                    }
                    c.video_tiles_skipped += fs.tiles_skipped;
                    c.video_tiles_recomputed += fs.tiles_recomputed;
                    c.video_tiles_degraded += fs.tiles_degraded;
                    c.video_rung_0 += fs.rungs[0];
                    c.video_rung_1 += fs.rungs[1];
                    c.video_rung_2 += fs.rungs[2];
                    c.video_rung_3 += fs.rungs[3];
                    if fs.deadline_missed {
                        c.video_deadline_misses += 1;
                    }
                });
                job.slot.fulfill(Ok(res.output));
            }
            // Typed session errors (stale seq, shape drift) are terminal
            // for the frame, not for the session or the worker.
            Ok(Err(e)) => job.slot.fulfill(Err(ServeError::Video(e))),
            Err(p) => {
                let msg = panic_message(p.as_ref());
                shared.telemetry.counters(|c| c.worker_crashes += 1);
                retry_or_fail(shared, vec![job], &FailureKind::Crash, &msg);
            }
        }
    }
    GroupOutcome::Done
}

/// Retryable-failure settlement: each job is re-enqueued with backoff
/// (if its deadline and retry budget allow, and the queue accepts it) or
/// answered with the terminal typed error for `kind`.
fn retry_or_fail(shared: &Shared, jobs: Vec<Job>, kind: &FailureKind, msg: &str) {
    let now = Instant::now();
    for mut job in jobs {
        let retryable =
            job.retries < shared.cfg.max_retries && job.deadline.is_none_or(|d| now < d);
        if retryable {
            job.retries += 1;
            job.not_before = Some(now + shared.backoff(job.retries));
            match shared.queue.offer(job) {
                Ok(()) => {
                    shared.telemetry.counters(|c| c.requests_retried += 1);
                }
                Err((_, returned)) => terminal_failure(shared, &returned, kind, msg),
            }
        } else {
            terminal_failure(shared, &job, kind, msg);
        }
    }
}

enum FailureKind {
    /// The forward pass panicked.
    Crash,
    /// The model failed to load.
    ModelLoad,
}

fn terminal_failure(shared: &Shared, job: &Job, kind: &FailureKind, msg: &str) {
    match kind {
        FailureKind::Crash => {
            shared.telemetry.counters(|c| c.requests_quarantined += 1);
            job.slot.fulfill(Err(ServeError::WorkerCrashed(format!(
                "{msg} (after {} attempt(s))",
                job.retries + 1
            ))));
        }
        FailureKind::ModelLoad => {
            job.slot
                .fulfill(Err(ServeError::ModelLoad(msg.to_string())));
        }
    }
}

/// Counts one plan-cache lookup (a hit, or a miss that compiled) and
/// the arena it ran in.
fn count_plan_lookup<D: ServedDatapath>(c: &mut Counters, hit: bool, arena: u64) {
    if hit {
        c.plan_cache_hits += 1;
        c.int8_plan_cache_hits += u64::from(D::INT8);
    } else {
        c.plan_cache_misses += 1;
        c.int8_plans_active += u64::from(D::INT8);
    }
    c.peak_arena_bytes = c.peak_arena_bytes.max(arena);
}

/// Same-shape batch: stack → one `run_batch` forward → unstack. A panic
/// anywhere in the pass is caught; the batch's requests are retried or
/// answered with [`ServeError::WorkerCrashed`], and the worker thread
/// exits to be respawned by the supervisor — except after a lone large
/// frame (see [`EngineConfig::tile_threshold_px`]), where the worker
/// carries on. An unwound run leaves its plan reusable: every run
/// rewrites the rows it reads before reading them.
fn run_batch_jobs<D: ServedDatapath>(
    shared: &Shared,
    plans: &mut PlanCache,
    kernels: &Arc<D>,
    jobs: Vec<Job>,
) -> GroupOutcome {
    let t0 = Instant::now();
    // The queue groups same-key same-shape requests, so one cached plan
    // serves the whole batch (its arena is reused image by image).
    let shape = jobs[0].input.shape();
    let (plan, plan_hit) = plans.plan_for(&jobs[0].key, kernels, shape[1], shape[2]);
    let arena = plan.arena_bytes() as u64;
    shared
        .telemetry
        .counters(|c| count_plan_lookup::<D>(c, plan_hit, arena));
    let compute = {
        let inputs: Vec<&Tensor> = jobs.iter().map(|j| &j.input).collect();
        catch_unwind(AssertUnwindSafe(|| {
            if shared.chaos.as_ref().is_some_and(Chaos::panic_in_forward) {
                shared.count_fault(FaultPoint::PanicInForward);
                panic!("chaos: injected panic in forward");
            }
            let batch = Tensor::stack(&inputs);
            let t1 = Instant::now();
            let sr = plan.run_batch(&batch);
            let t2 = Instant::now();
            (t1, t2, sr.unstack())
        }))
    };
    let (t1, t2, outputs) = match compute {
        Ok(parts) => parts,
        Err(p) => {
            let msg = panic_message(p.as_ref());
            let large = jobs.len() == 1 && shape[1] * shape[2] > shared.cfg.tile_threshold_px;
            shared.telemetry.counters(|c| c.worker_crashes += 1);
            retry_or_fail(shared, jobs, &FailureKind::Crash, &msg);
            return if large {
                GroupOutcome::Done
            } else {
                GroupOutcome::WorkerCrashed
            };
        }
    };
    shared.telemetry.record(Stage::BatchAssembly, t1 - t0);
    shared.telemetry.record(Stage::Compute, t2 - t1);
    shared.telemetry.counters(|c| {
        c.batches += 1;
        c.batched_requests += jobs.len() as u64;
        c.max_batch = c.max_batch.max(jobs.len() as u64);
    });
    for (job, out) in jobs.into_iter().zip(outputs) {
        // Single-lock completion per request (counter + Total histogram
        // together), so a snapshot taken mid-batch never sees them torn.
        shared.telemetry.complete(job.enqueued.elapsed());
        job.slot.fulfill(Ok(out));
    }
    shared.telemetry.record(Stage::Reassembly, t2.elapsed());
    GroupOutcome::Done
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesr_core::model::{Sesr, SesrConfig};
    use std::sync::mpsc::channel as mpsc_channel;

    #[test]
    fn jittered_backoff_is_deterministic_and_bounded() {
        let base = Duration::from_millis(5);
        let cap = Duration::from_millis(100);
        for consecutive in 1..=8u32 {
            let exp = consecutive.saturating_sub(1).min(16);
            let full = base.saturating_mul(1 << exp).min(cap);
            for draw in 0..64u64 {
                let a = jittered_backoff(base, cap, consecutive, 0xBEEF, draw);
                let b = jittered_backoff(base, cap, consecutive, 0xBEEF, draw);
                assert_eq!(a, b, "same (seed, draw) must give the same sleep");
                assert!(a >= full.mul_f64(0.5), "below jitter floor: {a:?}");
                assert!(a < full, "at or above the un-jittered value: {a:?}");
            }
        }
    }

    #[test]
    fn jitter_streams_differ_by_seed_and_draw() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_secs(1);
        let stream = |seed: u64| -> Vec<Duration> {
            (0..32)
                .map(|d| jittered_backoff(base, cap, 3, seed, d))
                .collect()
        };
        assert_ne!(stream(1), stream(2), "different seeds must decorrelate");
        let s = stream(7);
        assert!(
            s.windows(2).any(|w| w[0] != w[1]),
            "draw index must advance the stream"
        );
    }

    fn tiny_engine(workers: usize) -> (Engine, ModelKey) {
        let model = Sesr::new(SesrConfig::m(1).with_expanded(4).with_seed(1)).collapse();
        let key = ModelKey::new("m1", 2);
        let registry = Arc::new(ModelRegistry::new(2));
        registry.insert(key.clone(), model);
        let cfg = EngineConfig {
            workers,
            queue_capacity: 8,
            ..EngineConfig::default()
        };
        (Engine::new(cfg, registry), key)
    }

    #[test]
    fn submit_with_delivers_success_through_the_hook() {
        let (engine, key) = tiny_engine(1);
        let (tx, rx) = mpsc_channel();
        let input = Tensor::rand_uniform(&[1, 8, 8], 0.0, 1.0, 3);
        engine.submit_with(&key, input, None, Box::new(move |r| tx.send(r).unwrap()));
        let out = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("hook must fire")
            .expect("tiny model must serve");
        assert_eq!(out.shape(), &[1, 16, 16]);
    }

    #[test]
    fn submit_with_rejections_settle_synchronously() {
        let (engine, key) = tiny_engine(1);
        // Unknown model: rejected before touching the queue.
        let (tx, rx) = mpsc_channel();
        engine.submit_with(
            &ModelKey::new("ghost", 2),
            Tensor::rand_uniform(&[1, 4, 4], 0.0, 1.0, 0),
            None,
            Box::new(move |r| tx.send(r).unwrap()),
        );
        let r = rx.try_recv().expect("rejection must be synchronous");
        assert!(matches!(
            r,
            Err(ServeError::Rejected(SubmitError::UnknownModel(_)))
        ));
        // Expired deadline: settles typed without queueing.
        let (tx, rx) = mpsc_channel();
        engine.submit_with(
            &key,
            Tensor::rand_uniform(&[1, 4, 4], 0.0, 1.0, 1),
            Some(Instant::now() - Duration::from_millis(1)),
            Box::new(move |r| tx.send(r).unwrap()),
        );
        assert!(matches!(
            rx.try_recv().unwrap(),
            Err(ServeError::DeadlineExpired)
        ));
        // After shutdown: Draining, synchronously.
        engine.shutdown(Duration::from_secs(5));
        let (tx, rx) = mpsc_channel();
        engine.submit_with(
            &key,
            Tensor::rand_uniform(&[1, 4, 4], 0.0, 1.0, 2),
            None,
            Box::new(move |r| tx.send(r).unwrap()),
        );
        assert!(matches!(
            rx.try_recv().unwrap(),
            Err(ServeError::Rejected(SubmitError::Draining))
        ));
    }

    #[test]
    fn hooked_jobs_settle_as_shutting_down_in_drain() {
        // Zero workers: the job sits in the queue until shutdown answers
        // it through the hook — the exactly-once channel under drain.
        let (engine, key) = tiny_engine(0);
        let (tx, rx) = mpsc_channel();
        engine.submit_with(
            &key,
            Tensor::rand_uniform(&[1, 4, 4], 0.0, 1.0, 5),
            None,
            Box::new(move |r| tx.send(r).unwrap()),
        );
        assert!(rx.try_recv().is_err(), "must not settle before drain");
        let report = engine.shutdown(Duration::from_secs(5));
        assert_eq!(report.dropped, 1);
        assert!(matches!(
            rx.try_recv().unwrap(),
            Err(ServeError::ShuttingDown)
        ));
    }
}
