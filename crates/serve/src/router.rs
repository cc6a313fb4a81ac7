//! Sharded multi-tenant front door for a fleet of [`Engine`] shards.
//!
//! One engine is one queue and one worker pool: a stuck or crashed engine
//! takes its whole front door with it. The [`Router`] makes the *fleet*
//! fault-tolerant. It owns N supervised shards and is the only public
//! entry point:
//!
//! ```text
//! submit(tenant, class, key) ──► admission ──► shard queue ──► dispatcher ──► Engine
//!        │                         │              │                │
//!     validate              token bucket      two-band DRR      completion
//!     + registry            + shed/degrade    (weighted fair)   hook settles
//!                                                               or reroutes
//! ```
//!
//! * **Routing** — consistent hash of `(tenant, model)` over a ring of
//!   virtual nodes picks the primary shard; when its circuit breaker is
//!   open, a rendezvous (highest-random-weight) draw over the remaining
//!   live shards picks a stable fallback, so only the failed shard's keys
//!   move.
//! * **Admission** — per-tenant token buckets, separately for the
//!   interactive and batch priority classes. Overload is shed by
//!   priority: batch is rejected once the target shard's router queue is
//!   half full; interactive work is *degraded* to a cheaper architecture
//!   (M11 → M5 → M3, the any-time move — lower quality beats a timeout)
//!   once it is three-quarters full; interactive is rejected only at the
//!   hard bound.
//! * **Fairness** — each shard queue is a two-band deficit-round-robin:
//!   the interactive band drains strictly before the batch band, and
//!   within a band tenants are served in proportion to their configured
//!   weight, so one flooding tenant cannot starve another.
//! * **Exactly one outcome** — every admitted request is settled exactly
//!   once through an idempotent slot: served, or failed with a typed
//!   [`RouterServeError`]. Engine-side outcomes arrive through
//!   [`Engine::submit_with`] completion hooks; a shard death turns into a
//!   reroute (bounded by `reroute_budget`), not a lost request. The
//!   router's own counters are incremented only by the slot transition
//!   that wins, so `admitted == completed + Σ failed` is checkable after
//!   any chaos schedule.
//!
//! Supervision (health probes, circuit breaking, budgeted respawn, wedge
//! detection, shard-level chaos) lives in [`crate::supervisor`].

use crate::autoscale::{AutoscaleConfig, HashRing};
use crate::chaos::{splitmix64, ShardChaos, ShardChaosConfig};
use crate::engine::{
    jittered_backoff, validate_input, Completion, Engine, EngineConfig, Health, ServeError,
    ShutdownReport, SubmitError, Ticket,
};
use crate::plan_cache::SharedPlanCache;
use crate::registry::{ModelKey, ModelRegistry};
use crate::supervisor::supervisor_loop;
use crate::telemetry::Histogram;
use crate::video::{SessionStats, VideoError, VideoSessionSpec};
use sesr_tensor::Tensor;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Policy types
// ---------------------------------------------------------------------------

/// Request priority class. Interactive traffic is dequeued strictly
/// before batch traffic and is degraded rather than rejected under
/// overload; batch traffic is the first to be shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Latency-sensitive: a user is waiting on the result.
    Interactive,
    /// Throughput work: bulk upscaling, re-encodes, backfills.
    Batch,
}

impl Priority {
    fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Batch => 1,
        }
    }
}

/// Token-bucket rate limit. The default is unlimited (`rate_per_sec`
/// infinite), which admits everything.
#[derive(Debug, Clone, Copy)]
pub struct RateLimit {
    /// Sustained admissions per second.
    pub rate_per_sec: f64,
    /// Bucket capacity: the largest burst admitted at once.
    pub burst: f64,
}

impl Default for RateLimit {
    fn default() -> Self {
        Self {
            rate_per_sec: f64::INFINITY,
            burst: f64::INFINITY,
        }
    }
}

/// Per-tenant admission and fairness policy.
#[derive(Debug, Clone)]
pub struct TenantPolicy {
    /// Deficit-round-robin weight within a priority band (≥ 1; larger is
    /// a larger share of dequeues when the shard is contended).
    pub weight: u32,
    /// Token bucket for the interactive class.
    pub interactive: RateLimit,
    /// Token bucket for the batch class.
    pub batch: RateLimit,
}

impl Default for TenantPolicy {
    fn default() -> Self {
        Self {
            weight: 1,
            interactive: RateLimit::default(),
            batch: RateLimit::default(),
        }
    }
}

/// Router sizing and overload policy.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Number of engine shards the router owns.
    pub shards: usize,
    /// Configuration applied to every shard's engine (and to respawned
    /// replacements).
    pub engine: EngineConfig,
    /// Bound on each shard's *router-side* queue (ahead of the engine's
    /// own bounded queue).
    pub shard_queue_capacity: usize,
    /// Router-queue fill fraction at which batch admissions are shed.
    pub batch_shed_at: f64,
    /// Router-queue fill fraction at which interactive admissions start
    /// degrading down `degrade_chain`.
    pub degrade_at: f64,
    /// Architectures from most to least expensive; an interactive
    /// request for a chain member is stepped down it under overload
    /// (deeper into the degrade band steps further).
    pub degrade_chain: Vec<String>,
    /// Policy applied to tenants without an explicit entry.
    pub default_policy: TenantPolicy,
    /// Per-tenant policy overrides.
    pub policies: Vec<(String, TenantPolicy)>,
    /// How many times a request may be rerouted to another shard after
    /// its current shard dies under it before it fails as
    /// [`RouterServeError::ShardLost`].
    pub reroute_budget: u32,
    /// Virtual nodes per shard on the consistent-hash ring.
    pub virtual_nodes: usize,
    /// Supervisor probe cadence.
    pub probe_interval: Duration,
    /// Consecutive probes with queued work and no completions before a
    /// shard is declared wedged and drain-and-replaced. Size this well
    /// above the longest legitimate single-request compute time divided
    /// by `probe_interval`, or slow-but-healthy shards will be replaced.
    pub stall_ticks: u32,
    /// Total shard respawns the supervisor will perform per shard.
    pub respawn_budget: u32,
    /// First respawn backoff; doubles per consecutive failed attempt,
    /// with deterministic jitter off `engine.jitter_seed`.
    pub respawn_backoff: Duration,
    /// Upper bound on any single respawn backoff.
    pub respawn_backoff_cap: Duration,
    /// Completions a respawned (half-open) shard must serve before its
    /// breaker closes and it rejoins the ring.
    pub half_open_successes: u64,
    /// Concurrent open video sessions allowed per tenant; the cap
    /// behind [`VideoError::SessionLimit`].
    pub max_sessions_per_tenant: usize,
    /// Shard-level fault injection (`None` = no faults).
    pub shard_chaos: Option<ShardChaosConfig>,
    /// Elastic fleet sizing (`None` = the fixed-`shards` fleet). When
    /// set, the router allocates `max_shards` slots up front, starts
    /// `shards` of them (clamped into `[min_shards, max_shards]`), and
    /// the supervisor grows or shrinks the active set under the
    /// [`AutoscaleConfig`]'s hysteresis/cooldown policy.
    pub autoscale: Option<AutoscaleConfig>,
}

impl RouterConfig {
    /// How long an injected wedge lasts before it auto-releases (if the
    /// stall detector has not replaced the shard first).
    pub(crate) fn shard_chaos_wedge(&self) -> Duration {
        self.shard_chaos
            .as_ref()
            .map(|c| c.wedge)
            .unwrap_or(Duration::from_millis(200))
    }
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            shards: 2,
            engine: EngineConfig::default(),
            shard_queue_capacity: 128,
            batch_shed_at: 0.5,
            degrade_at: 0.75,
            degrade_chain: vec!["m11".to_string(), "m5".to_string(), "m3".to_string()],
            default_policy: TenantPolicy::default(),
            policies: Vec::new(),
            reroute_budget: 3,
            virtual_nodes: 32,
            probe_interval: Duration::from_millis(5),
            stall_ticks: 400,
            respawn_budget: 8,
            respawn_backoff: Duration::from_millis(5),
            respawn_backoff_cap: Duration::from_millis(200),
            half_open_successes: 1,
            max_sessions_per_tenant: 4,
            shard_chaos: None,
            autoscale: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Error types
// ---------------------------------------------------------------------------

/// Why the router refused a request at admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouterSubmitError {
    /// The router is draining: shutdown has begun and no shard admits
    /// new work.
    Draining,
    /// The tenant's token bucket for this class is empty.
    Throttled {
        /// The throttled tenant.
        tenant: String,
    },
    /// Batch-class request shed because the target shard is past
    /// `batch_shed_at` (or its queue is full).
    ShedBatch,
    /// Interactive-class request rejected because the target shard's
    /// queue is at its hard bound — the last resort after degrading.
    Overloaded,
    /// No model is registered under this key.
    UnknownModel(ModelKey),
    /// The input failed boundary validation.
    InvalidInput {
        /// What the validator objected to.
        reason: String,
    },
    /// Every shard's circuit breaker is open.
    NoHealthyShard,
    /// A video-session request failed with a typed session error
    /// (unknown or lost session, per-tenant cap, bad ladder geometry).
    Video(VideoError),
}

impl fmt::Display for RouterSubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouterSubmitError::Draining => write!(f, "rejected: router draining"),
            RouterSubmitError::Throttled { tenant } => {
                write!(f, "rejected: tenant {tenant} over its rate limit")
            }
            RouterSubmitError::ShedBatch => {
                write!(f, "rejected: batch load shed (shard over threshold)")
            }
            RouterSubmitError::Overloaded => {
                write!(f, "rejected: shard queue full (after degrade)")
            }
            RouterSubmitError::UnknownModel(k) => {
                write!(f, "rejected: model {k} is not registered")
            }
            RouterSubmitError::InvalidInput { reason } => {
                write!(f, "rejected: invalid input: {reason}")
            }
            RouterSubmitError::NoHealthyShard => {
                write!(f, "rejected: no healthy shard (all breakers open)")
            }
            RouterSubmitError::Video(e) => write!(f, "rejected: video session: {e}"),
        }
    }
}

impl std::error::Error for RouterSubmitError {}

/// Why an admitted request did not produce an output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouterServeError {
    /// The deadline passed before a worker started the request.
    DeadlineExpired,
    /// The model failed to load on the serving shard.
    ModelLoad(String),
    /// The forward pass crashed on every attempt on the serving shard.
    WorkerCrashed(String),
    /// The serving shard died and the reroute budget (or the supply of
    /// live shards) ran out before another shard could take the request.
    ShardLost(String),
    /// The router shut down before the request ran.
    ShuttingDown,
}

impl fmt::Display for RouterServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouterServeError::DeadlineExpired => {
                write!(f, "deadline expired before compute started")
            }
            RouterServeError::ModelLoad(m) => write!(f, "model load failed: {m}"),
            RouterServeError::WorkerCrashed(m) => write!(f, "worker crashed: {m}"),
            RouterServeError::ShardLost(m) => write!(f, "shard lost: {m}"),
            RouterServeError::ShuttingDown => {
                write!(f, "router shut down before the request ran")
            }
        }
    }
}

impl std::error::Error for RouterServeError {}

// ---------------------------------------------------------------------------
// Slot / ticket
// ---------------------------------------------------------------------------

enum RSlotState {
    Pending,
    Done(Result<Tensor, RouterServeError>),
    Taken,
}

/// Idempotent outcome slot: the first `claim` wins, later settles are
/// dropped. The winner updates the fleet counters *before* publishing
/// the outcome, so a waiter that returns can immediately read a
/// telemetry snapshot that already includes its own request — which is
/// what makes the fleet ledger exact at every observation point.
pub(crate) struct RouterSlot {
    claimed: std::sync::atomic::AtomicBool,
    state: Mutex<RSlotState>,
    ready: Condvar,
}

impl RouterSlot {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            claimed: std::sync::atomic::AtomicBool::new(false),
            state: Mutex::new(RSlotState::Pending),
            ready: Condvar::new(),
        })
    }

    /// Atomically claims the right to settle this request. Exactly one
    /// caller ever gets `true`.
    fn claim(&self) -> bool {
        !self.claimed.swap(true, Ordering::AcqRel)
    }

    /// Publishes the outcome. Must only be called by the claim winner.
    fn publish(&self, res: Result<Tensor, RouterServeError>) {
        let mut g = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        debug_assert!(matches!(*g, RSlotState::Pending), "publish without claim");
        *g = RSlotState::Done(res);
        drop(g);
        self.ready.notify_all();
    }

    fn wait(&self) -> Result<Tensor, RouterServeError> {
        let mut g = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            match std::mem::replace(&mut *g, RSlotState::Taken) {
                RSlotState::Done(res) => return res,
                prev @ RSlotState::Pending => {
                    *g = prev;
                    g = self.ready.wait(g).unwrap_or_else(PoisonError::into_inner);
                }
                RSlotState::Taken => unreachable!("RouterTicket::wait consumed twice"),
            }
        }
    }
}

/// Handle for one admitted request; `wait` blocks for its single
/// terminal outcome.
pub struct RouterTicket {
    id: u64,
    slot: Arc<RouterSlot>,
}

impl fmt::Debug for RouterTicket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RouterTicket")
            .field("id", &self.id)
            .finish()
    }
}

impl RouterTicket {
    /// The router-assigned request id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the request settles.
    pub fn wait(self) -> Result<Tensor, RouterServeError> {
        self.slot.wait()
    }
}

// ---------------------------------------------------------------------------
// Router job + shard queue (two-band weighted-fair)
// ---------------------------------------------------------------------------

pub(crate) struct RouterJob {
    pub(crate) tenant: Arc<str>,
    pub(crate) class: Priority,
    /// Effective key after any admission-time degrade.
    pub(crate) key: ModelKey,
    pub(crate) degraded: bool,
    /// Kept by the router (the engine gets a clone) so a shard death can
    /// reroute the request instead of losing it.
    pub(crate) input: Tensor,
    pub(crate) deadline: Option<Instant>,
    pub(crate) submitted: Instant,
    pub(crate) point: u64,
    pub(crate) reroutes: u32,
    pub(crate) slot: Arc<RouterSlot>,
}

struct TenantLanes {
    weight: u32,
    lanes: [VecDeque<RouterJob>; 2],
    credit: [f64; 2],
}

struct SqInner {
    tenants: HashMap<Arc<str>, TenantLanes>,
    /// Per band: tenants with a non-empty lane in that band, in DRR
    /// order. Invariant (under the queue lock): a tenant is in `ring[b]`
    /// iff its `lanes[b]` is non-empty.
    rings: [VecDeque<Arc<str>>; 2],
    len: usize,
    closed: bool,
}

pub(crate) enum Popped {
    Job(Box<RouterJob>),
    Empty,
    Closed,
}

/// Outcome of a bounded push.
pub(crate) enum SqPush {
    Full,
    Closed,
}

/// Two-band (interactive strictly before batch) deficit-round-robin
/// queue, bounded, with a capacity-exempt `push_front` for requeues and
/// reroutes (bounded externally by the reroute budget).
pub(crate) struct ShardQueue {
    inner: Mutex<SqInner>,
    ready: Condvar,
    capacity: usize,
}

impl ShardQueue {
    fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(SqInner {
                tenants: HashMap::new(),
                rings: [VecDeque::new(), VecDeque::new()],
                len: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SqInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn len(&self) -> usize {
        self.lock().len
    }

    fn enqueue(g: &mut SqInner, job: RouterJob, weight: u32, front: bool) {
        let band = job.class.index();
        let tenant = Arc::clone(&job.tenant);
        let lanes = g
            .tenants
            .entry(Arc::clone(&tenant))
            .or_insert_with(|| TenantLanes {
                weight: weight.max(1),
                lanes: [VecDeque::new(), VecDeque::new()],
                credit: [0.0, 0.0],
            });
        let was_empty = lanes.lanes[band].is_empty();
        if front {
            lanes.lanes[band].push_front(job);
        } else {
            lanes.lanes[band].push_back(job);
        }
        if was_empty {
            if front {
                g.rings[band].push_front(tenant);
            } else {
                g.rings[band].push_back(tenant);
            }
        }
        g.len += 1;
    }

    /// Bounded admission-side push. On failure the job is handed back
    /// (boxed, to keep the `Err` variant pointer-sized) so the caller
    /// can settle or reject it.
    fn push(&self, job: Box<RouterJob>, weight: u32) -> Result<(), (SqPush, Box<RouterJob>)> {
        let mut g = self.lock();
        if g.closed {
            return Err((SqPush::Closed, job));
        }
        if g.len >= self.capacity {
            return Err((SqPush::Full, job));
        }
        Self::enqueue(&mut g, *job, weight, false);
        drop(g);
        self.ready.notify_one();
        Ok(())
    }

    /// Capacity-exempt head-of-line requeue, used for backpressure
    /// requeues and reroutes of already-admitted work (which must not be
    /// double-penalized by the admission bound). Fails only when the
    /// queue is closed.
    fn push_front(&self, job: Box<RouterJob>, weight: u32) -> Result<(), Box<RouterJob>> {
        let mut g = self.lock();
        if g.closed {
            return Err(job);
        }
        Self::enqueue(&mut g, *job, weight, true);
        drop(g);
        self.ready.notify_one();
        Ok(())
    }

    /// Pops the next job by two-band DRR: the interactive band drains
    /// strictly first; within a band, tenants are served round-robin
    /// with per-visit credit proportional to their weight. Once closed,
    /// remaining jobs are still handed out; `Closed` is returned only
    /// when closed *and* empty.
    pub(crate) fn pop(&self, timeout: Duration) -> Popped {
        let start = Instant::now();
        let mut g = self.lock();
        loop {
            for band in 0..2 {
                let SqInner {
                    tenants,
                    rings,
                    len,
                    ..
                } = &mut *g;
                if let Some(job) = Self::take_band(tenants, &mut rings[band], band) {
                    *len -= 1;
                    return Popped::Job(Box::new(job));
                }
            }
            if g.closed {
                return Popped::Closed;
            }
            let waited = start.elapsed();
            if waited >= timeout {
                return Popped::Empty;
            }
            let (ng, _) = self
                .ready
                .wait_timeout(g, timeout - waited)
                .unwrap_or_else(PoisonError::into_inner);
            g = ng;
        }
    }

    fn take_band(
        tenants: &mut HashMap<Arc<str>, TenantLanes>,
        ring: &mut VecDeque<Arc<str>>,
        band: usize,
    ) -> Option<RouterJob> {
        loop {
            let head = ring.front()?.clone();
            let Some(l) = tenants.get_mut(&head) else {
                ring.pop_front();
                continue;
            };
            if l.lanes[band].is_empty() {
                l.credit[band] = 0.0;
                ring.pop_front();
                continue;
            }
            let w = f64::from(l.weight.max(1));
            if l.credit[band] < 1.0 {
                l.credit[band] += w;
            }
            l.credit[band] -= 1.0;
            let job = l.lanes[band].pop_front().expect("lane checked non-empty");
            if l.lanes[band].is_empty() {
                l.credit[band] = 0.0;
                ring.pop_front();
            } else if l.credit[band] < 1.0 {
                let t = ring.pop_front().expect("ring checked non-empty");
                ring.push_back(t);
            }
            return Some(job);
        }
    }

    fn close(&self) {
        let mut g = self.lock();
        g.closed = true;
        drop(g);
        self.ready.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

/// Fleet-scope event counters. The ledger invariant —
/// `admitted_interactive + admitted_batch == completed + Σ failed_*` —
/// holds after any chaos schedule because every admitted request settles
/// its idempotent slot exactly once and only the winning transition
/// counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterCounters {
    /// Interactive requests admitted (queued on a shard).
    pub admitted_interactive: u64,
    /// Batch requests admitted.
    pub admitted_batch: u64,
    /// Rejections because the router was draining.
    pub rejected_draining: u64,
    /// Rejections by a tenant token bucket.
    pub throttled: u64,
    /// Batch requests shed by the overload policy.
    pub shed_batch: u64,
    /// Interactive requests rejected at the hard queue bound.
    pub rejected_interactive: u64,
    /// Rejections because every breaker was open.
    pub rejected_no_shard: u64,
    /// Rejections by input validation.
    pub rejected_invalid: u64,
    /// Rejections for unregistered models.
    pub rejected_unknown_model: u64,
    /// Interactive admissions degraded to a cheaper architecture.
    pub degraded: u64,
    /// Requests served (including degraded ones).
    pub completed: u64,
    /// Served requests that had been degraded at admission.
    pub degraded_completed: u64,
    /// Admitted requests whose deadline expired before compute.
    pub failed_deadline: u64,
    /// Admitted requests that failed on model load.
    pub failed_model_load: u64,
    /// Admitted requests that crashed workers past the retry budget.
    pub failed_crashed: u64,
    /// Admitted requests that ran out of shards or reroute budget.
    pub failed_shard_lost: u64,
    /// Admitted requests overtaken by router shutdown.
    pub failed_shutdown: u64,
    /// Requests moved to another shard after their shard died.
    pub rerouted: u64,
    /// Head-of-line requeues after an engine-side queue-full race.
    pub requeued_backpressure: u64,
    /// Whole-shard kills injected by chaos.
    pub shard_kills: u64,
    /// Shard wedges injected by chaos.
    pub shard_wedges: u64,
    /// Wedges detected by the stall probe (drain-and-replace).
    pub wedges_detected: u64,
    /// Respawn attempts that failed (chaos-injected).
    pub respawn_failures: u64,
    /// Successful shard respawns.
    pub shard_respawns: u64,
    /// Breaker transitions to open.
    pub breaker_opens: u64,
    /// Breaker transitions to half-open (respawn completed).
    pub breaker_half_opens: u64,
    /// Breaker transitions back to closed (half-open probe succeeded).
    pub breaker_closes: u64,
    /// Autoscale scale-up transitions executed (a dormant slot spawned
    /// and joined the ring).
    pub scale_up_events: u64,
    /// Autoscale scale-down transitions completed (a drained slot
    /// retired off the ring).
    pub scale_down_events: u64,
    /// Keys (out of a fixed deterministic sample) observed to change
    /// owner across ring edits — the measured bounded-rebalance cost.
    pub keys_rebalanced: u64,
    /// Precision decisions (kernel flattening, int8 grading) avoided
    /// because the shared per-process store already held them (how warm
    /// replication made fresh shards).
    pub replication_warm_hits: u64,
    /// Sustained-pressure windows that wanted one more shard while the
    /// fleet was already at `max_shards`.
    pub autoscale_blocked_at_max: u64,
}

impl RouterCounters {
    /// Admissions (terminal outcomes owed).
    pub fn admitted(&self) -> u64 {
        self.admitted_interactive + self.admitted_batch
    }

    /// Terminal outcomes delivered.
    pub fn settled(&self) -> u64 {
        self.completed
            + self.failed_deadline
            + self.failed_model_load
            + self.failed_crashed
            + self.failed_shard_lost
            + self.failed_shutdown
    }
}

struct TenantStats {
    latency: Histogram,
    completed: u64,
    failed: u64,
}

struct RtInner {
    counters: RouterCounters,
    tenants: HashMap<Arc<str>, TenantStats>,
    started: Instant,
}

/// Single-lock fleet telemetry: every snapshot reads all counters and
/// per-tenant stats in one pass, so concurrent snapshots are never torn.
pub struct RouterTelemetry {
    inner: Mutex<RtInner>,
}

impl RouterTelemetry {
    fn new() -> Self {
        Self {
            inner: Mutex::new(RtInner {
                counters: RouterCounters::default(),
                tenants: HashMap::new(),
                started: Instant::now(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RtInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `f` with the counters under the lock.
    pub fn counters<R>(&self, f: impl FnOnce(&mut RouterCounters) -> R) -> R {
        f(&mut self.lock().counters)
    }

    /// Records a terminal outcome (counters + per-tenant stats) in one
    /// locked pass. Called only by the winning slot transition.
    fn settle_outcome(
        &self,
        tenant: &Arc<str>,
        outcome: &SettleKind,
        latency: Duration,
        degraded: bool,
    ) {
        let mut g = self.lock();
        let t = g
            .tenants
            .entry(Arc::clone(tenant))
            .or_insert_with(|| TenantStats {
                latency: Histogram::new(),
                completed: 0,
                failed: 0,
            });
        match outcome {
            SettleKind::Ok => {
                t.completed += 1;
                t.latency.record(latency);
            }
            _ => t.failed += 1,
        }
        match outcome {
            SettleKind::Ok => {
                g.counters.completed += 1;
                if degraded {
                    g.counters.degraded_completed += 1;
                }
            }
            SettleKind::Deadline => g.counters.failed_deadline += 1,
            SettleKind::ModelLoad => g.counters.failed_model_load += 1,
            SettleKind::Crashed => g.counters.failed_crashed += 1,
            SettleKind::ShardLost => g.counters.failed_shard_lost += 1,
            SettleKind::Shutdown => g.counters.failed_shutdown += 1,
        }
    }

    /// One consistent read of everything.
    pub fn snapshot(&self) -> RouterSnapshot {
        let g = self.lock();
        let mut tenants: Vec<TenantSummary> = g
            .tenants
            .iter()
            .map(|(name, s)| TenantSummary {
                tenant: name.to_string(),
                completed: s.completed,
                failed: s.failed,
                mean_ms: s.latency.mean_ms(),
                p50_ms: s.latency.quantile_ms(0.50),
                p95_ms: s.latency.quantile_ms(0.95),
                p99_ms: s.latency.quantile_ms(0.99),
            })
            .collect();
        tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        RouterSnapshot {
            elapsed: g.started.elapsed(),
            counters: g.counters,
            tenants,
        }
    }
}

enum SettleKind {
    Ok,
    Deadline,
    ModelLoad,
    Crashed,
    ShardLost,
    Shutdown,
}

/// Per-tenant latency/outcome summary inside a [`RouterSnapshot`].
#[derive(Debug, Clone)]
pub struct TenantSummary {
    /// Tenant name.
    pub tenant: String,
    /// Requests served for this tenant.
    pub completed: u64,
    /// Requests failed for this tenant.
    pub failed: u64,
    /// Mean end-to-end latency of completions, ms.
    pub mean_ms: f64,
    /// Median latency, ms.
    pub p50_ms: f64,
    /// 95th percentile latency, ms.
    pub p95_ms: f64,
    /// 99th percentile latency, ms.
    pub p99_ms: f64,
}

/// A consistent point-in-time read of the router's telemetry.
#[derive(Debug, Clone)]
pub struct RouterSnapshot {
    /// Time since the router started.
    pub elapsed: Duration,
    /// Fleet counters.
    pub counters: RouterCounters,
    /// Per-tenant summaries, sorted by tenant name.
    pub tenants: Vec<TenantSummary>,
}

impl RouterSnapshot {
    /// Checks the fleet ledger: every admission settled exactly once.
    /// Returns human-readable problems (empty = consistent).
    pub fn reconcile(&self) -> Vec<String> {
        let c = &self.counters;
        let mut problems = Vec::new();
        if c.admitted() != c.settled() {
            problems.push(format!(
                "admitted {} != settled {} (completed {} + deadline {} + model_load {} + crashed {} + shard_lost {} + shutdown {})",
                c.admitted(),
                c.settled(),
                c.completed,
                c.failed_deadline,
                c.failed_model_load,
                c.failed_crashed,
                c.failed_shard_lost,
                c.failed_shutdown,
            ));
        }
        if c.degraded_completed > c.completed {
            problems.push(format!(
                "degraded_completed {} > completed {}",
                c.degraded_completed, c.completed
            ));
        }
        let tenant_completed: u64 = self.tenants.iter().map(|t| t.completed).sum();
        if tenant_completed != c.completed {
            problems.push(format!(
                "per-tenant completed {} != fleet completed {}",
                tenant_completed, c.completed
            ));
        }
        problems
    }

    /// Serializes counters and per-tenant summaries as JSON.
    pub fn to_json(&self) -> String {
        let c = &self.counters;
        let counters = crate::json::JsonObject::new()
            .int("admitted_interactive", c.admitted_interactive)
            .int("admitted_batch", c.admitted_batch)
            .int("rejected_draining", c.rejected_draining)
            .int("throttled", c.throttled)
            .int("shed_batch", c.shed_batch)
            .int("rejected_interactive", c.rejected_interactive)
            .int("rejected_no_shard", c.rejected_no_shard)
            .int("rejected_invalid", c.rejected_invalid)
            .int("rejected_unknown_model", c.rejected_unknown_model)
            .int("degraded", c.degraded)
            .int("completed", c.completed)
            .int("degraded_completed", c.degraded_completed)
            .int("failed_deadline", c.failed_deadline)
            .int("failed_model_load", c.failed_model_load)
            .int("failed_crashed", c.failed_crashed)
            .int("failed_shard_lost", c.failed_shard_lost)
            .int("failed_shutdown", c.failed_shutdown)
            .int("rerouted", c.rerouted)
            .int("requeued_backpressure", c.requeued_backpressure)
            .int("shard_kills", c.shard_kills)
            .int("shard_wedges", c.shard_wedges)
            .int("wedges_detected", c.wedges_detected)
            .int("respawn_failures", c.respawn_failures)
            .int("shard_respawns", c.shard_respawns)
            .int("breaker_opens", c.breaker_opens)
            .int("breaker_half_opens", c.breaker_half_opens)
            .int("breaker_closes", c.breaker_closes)
            .int("scale_up_events", c.scale_up_events)
            .int("scale_down_events", c.scale_down_events)
            .int("keys_rebalanced", c.keys_rebalanced)
            .int("replication_warm_hits", c.replication_warm_hits)
            .int("autoscale_blocked_at_max", c.autoscale_blocked_at_max)
            .finish();
        let tenants: Vec<String> = self
            .tenants
            .iter()
            .map(|t| {
                crate::json::JsonObject::new()
                    .str("tenant", &t.tenant)
                    .int("completed", t.completed)
                    .int("failed", t.failed)
                    .num("mean_ms", t.mean_ms)
                    .num("p50_ms", t.p50_ms)
                    .num("p95_ms", t.p95_ms)
                    .num("p99_ms", t.p99_ms)
                    .finish()
            })
            .collect();
        crate::json::JsonObject::new()
            .num("elapsed_s", self.elapsed.as_secs_f64())
            .raw("counters", &counters)
            .raw("tenants", &crate::json::array(tenants))
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Shard + core
// ---------------------------------------------------------------------------

pub(crate) const BREAKER_CLOSED: u8 = 0;
pub(crate) const BREAKER_OPEN: u8 = 1;
pub(crate) const BREAKER_HALF_OPEN: u8 = 2;

/// Circuit-breaker state of one shard, for introspection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Serving; on the ring.
    Closed,
    /// Dead or dying; all its keys route elsewhere.
    Open,
    /// Freshly respawned; takes traffic, closes after
    /// `half_open_successes` completions.
    HalfOpen,
}

fn breaker_state(v: u8) -> BreakerState {
    match v {
        BREAKER_OPEN => BreakerState::Open,
        BREAKER_HALF_OPEN => BreakerState::HalfOpen,
        _ => BreakerState::Closed,
    }
}

/// Point-in-time view of one shard, for tests and operators.
#[derive(Debug, Clone)]
pub struct ShardStatus {
    /// Shard index.
    pub index: usize,
    /// Circuit-breaker state.
    pub breaker: BreakerState,
    /// Engine-reported health.
    pub health: Health,
    /// Jobs waiting in the router-side queue.
    pub queued: usize,
    /// Jobs waiting in the engine's own queue.
    pub engine_depth: usize,
    /// Respawns performed on this shard so far.
    pub respawns_used: u32,
    /// Engine generation (bumped on every replace).
    pub generation: u64,
    /// True while the autoscaler is draining this shard for retirement.
    pub draining: bool,
}

/// One fleet slot. `engine: None` means the slot is dormant — allocated
/// for elastic headroom but not running; its breaker is held open so no
/// routing path considers it. `draining` marks a scale-down victim that
/// is still flushing work: it stays off the ring and out of rendezvous
/// fallbacks, but its breaker stays closed so its own dispatcher keeps
/// feeding its engine.
pub(crate) struct Shard {
    pub(crate) engine: RwLock<Option<Arc<Engine>>>,
    pub(crate) queue: ShardQueue,
    pub(crate) breaker: AtomicU8,
    pub(crate) draining: AtomicBool,
    pub(crate) respawns_used: AtomicU64,
    pub(crate) generation: AtomicU64,
}

impl Shard {
    /// The slot's engine, if it is running one.
    pub(crate) fn engine(&self) -> Option<Arc<Engine>> {
        self.engine
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }
}

struct Bucket {
    tokens: f64,
    last: Instant,
}

impl Bucket {
    fn try_take(&mut self, limit: &RateLimit, now: Instant) -> bool {
        if limit.rate_per_sec.is_infinite() {
            return true;
        }
        let dt = now.saturating_duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + dt * limit.rate_per_sec).min(limit.burst.max(1.0));
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

const ROUTER_RUNNING: u8 = 0;
const ROUTER_DRAINING: u8 = 1;
const ROUTER_STOPPED: u8 = 2;

const RDV_SALT: u64 = 0xB01D_FACE_CAFE_D00D;

pub(crate) struct RouterCore {
    pub(crate) cfg: RouterConfig,
    pub(crate) registry: Arc<ModelRegistry>,
    pub(crate) shards: Vec<Shard>,
    /// The consistent-hash ring of *active* shards. Behind a lock so the
    /// autoscaler can edit membership; reads are lock-then-lookup.
    pub(crate) ring: RwLock<HashRing>,
    pub(crate) state: AtomicU8,
    drain_deadline: Mutex<Option<Instant>>,
    pub(crate) telemetry: RouterTelemetry,
    pub(crate) chaos: Option<ShardChaos>,
    pub(crate) jitter_draws: AtomicU64,
    /// The process-wide decision store every shard engine warms from
    /// (hot-plan replication; `replication_warm_hits`).
    pub(crate) shared_plans: Arc<SharedPlanCache>,
    buckets: Mutex<HashMap<(Arc<str>, usize), Bucket>>,
    policies: HashMap<String, TenantPolicy>,
    ids: AtomicU64,
    /// Open video sessions: router-level id → shard pin. Sessions are
    /// pinned to the shard (and engine generation) that opened them; a
    /// replaced shard loses its session state, surfaced as
    /// [`VideoError::SessionLost`] on next touch. A scale-down instead
    /// *migrates* pinned sessions (state and all) to a live shard before
    /// the victim retires — see `crate::supervisor`.
    pub(crate) video_sessions: Mutex<HashMap<u64, VideoPin>>,
    video_ids: AtomicU64,
}

/// Where one video session lives in the fleet.
pub(crate) struct VideoPin {
    pub(crate) tenant: Arc<str>,
    pub(crate) shard: usize,
    /// Shard generation at open; a mismatch means the engine (and the
    /// session state inside it) was replaced.
    pub(crate) generation: u64,
    /// The session's id inside that shard's engine.
    pub(crate) engine_session: u64,
}

impl RouterCore {
    pub(crate) fn running(&self) -> bool {
        self.state.load(Ordering::Acquire) == ROUTER_RUNNING
    }

    fn drain_deadline_passed(&self) -> bool {
        if self.running() {
            return false;
        }
        let g = self
            .drain_deadline
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        g.is_some_and(|d| Instant::now() >= d)
    }

    fn policy_for(&self, tenant: &str) -> &TenantPolicy {
        self.policies
            .get(tenant)
            .unwrap_or(&self.cfg.default_policy)
    }

    /// Whether slot `i` may take *new* routing decisions: breaker not
    /// open and not a scale-down victim mid-drain.
    fn routable(&self, i: usize) -> bool {
        self.shards[i].breaker.load(Ordering::Acquire) != BREAKER_OPEN
            && !self.shards[i].draining.load(Ordering::Acquire)
    }

    /// Ring successor of `point` (the consistent-hash primary), or
    /// `None` on an empty ring.
    fn primary_shard(&self, point: u64) -> Option<usize> {
        self.ring
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .owner(point)
    }

    /// Rendezvous (highest-random-weight) draw over routable shards,
    /// optionally excluding one. Stable per `point`: the same request
    /// keys keep landing on the same fallback.
    pub(crate) fn rendezvous(&self, point: u64, exclude: Option<usize>) -> Option<usize> {
        (0..self.shards.len())
            .filter(|&i| Some(i) != exclude)
            .filter(|&i| self.routable(i))
            .max_by_key(|&i| splitmix64(point ^ splitmix64(RDV_SALT ^ i as u64)))
    }

    fn pick_shard(&self, point: u64) -> Option<usize> {
        let primary = self.primary_shard(point)?;
        if self.routable(primary) {
            return Some(primary);
        }
        self.rendezvous(point, Some(primary))
    }

    /// Resolves a video-session pin to `(shard, engine_session)`. A pin
    /// whose shard generation moved on is pruned here: the replacement
    /// engine never held the session's hashes or HR plane, so the
    /// session is typed-lost rather than silently restarted.
    fn resolve_video_pin(&self, id: u64) -> Result<(usize, u64), VideoError> {
        let mut sessions = self
            .video_sessions
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let pin = sessions.get(&id).ok_or(VideoError::UnknownSession(id))?;
        let live = self.shards[pin.shard].generation.load(Ordering::Acquire) == pin.generation;
        if !live {
            sessions.remove(&id);
            return Err(VideoError::SessionLost);
        }
        Ok((pin.shard, pin.engine_session))
    }

    fn shard_engine(&self, idx: usize) -> Option<Arc<Engine>> {
        self.shards[idx].engine()
    }

    /// Steps `key` down the degrade chain in proportion to how deep into
    /// the degrade band the shard's queue is. Returns the first cheaper
    /// registered architecture, or `None` when the key is not on the
    /// chain (or nothing cheaper is registered).
    fn degrade_key(&self, key: &ModelKey, fill: f64) -> Option<ModelKey> {
        let chain = &self.cfg.degrade_chain;
        let pos = chain.iter().position(|a| *a == key.arch)?;
        let steps_available = chain.len() - 1 - pos;
        if steps_available == 0 {
            return None;
        }
        let span = (1.0 - self.cfg.degrade_at).max(f64::EPSILON);
        let frac = ((fill - self.cfg.degrade_at) / span).clamp(0.0, 1.0);
        let step = ((frac * steps_available as f64).ceil() as usize).clamp(1, steps_available);
        // Walk from the proportional target further down until a
        // registered architecture is found.
        for arch in &chain[pos + step..] {
            let candidate = ModelKey::new(arch, key.scale);
            if self.registry.contains(&candidate) {
                return Some(candidate);
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Settle / dispatch / reroute
// ---------------------------------------------------------------------------

fn settle(core: &RouterCore, job: &RouterJob, res: Result<Tensor, RouterServeError>) {
    let kind = match &res {
        Ok(_) => SettleKind::Ok,
        Err(RouterServeError::DeadlineExpired) => SettleKind::Deadline,
        Err(RouterServeError::ModelLoad(_)) => SettleKind::ModelLoad,
        Err(RouterServeError::WorkerCrashed(_)) => SettleKind::Crashed,
        Err(RouterServeError::ShardLost(_)) => SettleKind::ShardLost,
        Err(RouterServeError::ShuttingDown) => SettleKind::Shutdown,
    };
    if !job.slot.claim() {
        return;
    }
    core.telemetry
        .settle_outcome(&job.tenant, &kind, job.submitted.elapsed(), job.degraded);
    job.slot.publish(res);
}

/// Moves a job whose shard died to a live shard, or fails it with a
/// typed error. Never called while the router is running normally and
/// the shard is healthy.
fn reroute_or_fail(core: &Arc<RouterCore>, from: usize, mut job: RouterJob) {
    if !core.running() {
        settle(core, &job, Err(RouterServeError::ShuttingDown));
        return;
    }
    if job.reroutes >= core.cfg.reroute_budget {
        settle(
            core,
            &job,
            Err(RouterServeError::ShardLost(format!(
                "reroute budget ({}) exhausted",
                core.cfg.reroute_budget
            ))),
        );
        return;
    }
    job.reroutes += 1;
    let target = core.rendezvous(job.point, Some(from)).or_else(|| {
        // Last resort: the original shard, if it came back.
        core.routable(from).then_some(from)
    });
    let Some(target) = target else {
        settle(
            core,
            &job,
            Err(RouterServeError::ShardLost(
                "no live shard to reroute to".to_string(),
            )),
        );
        return;
    };
    let weight = core.policy_for(&job.tenant).weight;
    core.telemetry.counters(|c| c.rerouted += 1);
    if let Err(job) = core.shards[target].queue.push_front(Box::new(job), weight) {
        settle(core, &job, Err(RouterServeError::ShuttingDown));
    }
}

/// Terminal-outcome hook invoked by the engine for every forwarded job.
fn on_engine_done(
    core: &Arc<RouterCore>,
    shard_idx: usize,
    job: RouterJob,
    res: Result<Tensor, ServeError>,
) {
    match res {
        Ok(t) => settle(core, &job, Ok(t)),
        Err(ServeError::DeadlineExpired) => {
            settle(core, &job, Err(RouterServeError::DeadlineExpired))
        }
        Err(ServeError::ModelLoad(m)) => settle(core, &job, Err(RouterServeError::ModelLoad(m))),
        Err(ServeError::WorkerCrashed(m)) => {
            settle(core, &job, Err(RouterServeError::WorkerCrashed(m)))
        }
        Err(
            ServeError::ShuttingDown
            | ServeError::Rejected(SubmitError::Draining | SubmitError::ShuttingDown),
        ) => {
            // The shard died (or was killed) under this request: move it,
            // don't lose it.
            reroute_or_fail(core, shard_idx, job);
        }
        Err(ServeError::Rejected(SubmitError::QueueFull { .. })) => {
            // Lost the depth-check race against other dispatch paths;
            // requeue at the head and let the dispatcher pace on depth.
            core.telemetry.counters(|c| c.requeued_backpressure += 1);
            let weight = core.policy_for(&job.tenant).weight;
            if let Err(job) = core.shards[shard_idx]
                .queue
                .push_front(Box::new(job), weight)
            {
                settle(core, &job, Err(RouterServeError::ShuttingDown));
            }
        }
        Err(ServeError::Rejected(
            e @ (SubmitError::UnknownModel(_)
            | SubmitError::InvalidInput { .. }
            | SubmitError::UnknownSession(_)),
        )) => {
            // All validated at router admission (and image jobs never
            // carry a session), so this is unreachable unless the
            // registry changed underneath; fail typed rather than panic
            // so no ticket ever hangs.
            settle(
                core,
                &job,
                Err(RouterServeError::ShardLost(format!("unroutable: {e}"))),
            );
        }
        Err(ServeError::Video(e)) => {
            // Image jobs never produce video-session errors; treat an
            // impossible outcome as a lost shard, typed.
            settle(
                core,
                &job,
                Err(RouterServeError::ShardLost(format!("unroutable: {e}"))),
            );
        }
    }
}

fn dispatch_one(core: &Arc<RouterCore>, shard_idx: usize, job: RouterJob) {
    if job.deadline.is_some_and(|d| Instant::now() >= d) {
        settle(core, &job, Err(RouterServeError::DeadlineExpired));
        return;
    }
    let shard = &core.shards[shard_idx];
    if shard.breaker.load(Ordering::Acquire) == BREAKER_OPEN {
        reroute_or_fail(core, shard_idx, job);
        return;
    }
    // Backpressure pacing: wait for engine-queue headroom instead of
    // hammering its admission edge.
    let engine = loop {
        let Some(engine) = shard.engine() else {
            // The slot retired (scale-down) with this job still queued.
            reroute_or_fail(core, shard_idx, job);
            return;
        };
        if engine.queue_depth() < core.cfg.engine.queue_capacity {
            break engine;
        }
        if job.deadline.is_some_and(|d| Instant::now() >= d) {
            settle(core, &job, Err(RouterServeError::DeadlineExpired));
            return;
        }
        if shard.breaker.load(Ordering::Acquire) == BREAKER_OPEN {
            reroute_or_fail(core, shard_idx, job);
            return;
        }
        if core.drain_deadline_passed() {
            settle(core, &job, Err(RouterServeError::ShuttingDown));
            return;
        }
        std::thread::sleep(Duration::from_micros(500));
    };
    if core.drain_deadline_passed() {
        settle(core, &job, Err(RouterServeError::ShuttingDown));
        return;
    }
    let key = job.key.clone();
    let input = job.input.clone();
    let deadline = job.deadline;
    let core2 = Arc::clone(core);
    let hook: Completion = Box::new(move |r| on_engine_done(&core2, shard_idx, job, r));
    engine.submit_with(&key, input, deadline, hook);
}

fn dispatcher_loop(core: Arc<RouterCore>, shard_idx: usize) {
    loop {
        match core.shards[shard_idx].queue.pop(Duration::from_millis(5)) {
            Popped::Empty => continue,
            Popped::Closed => break,
            Popped::Job(job) => dispatch_one(&core, shard_idx, *job),
        }
    }
}

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

/// What [`Router::shutdown`] accomplished within its deadline.
#[derive(Debug, Clone, Copy)]
pub struct RouterShutdownReport {
    /// Router-queued jobs answered with [`RouterServeError::ShuttingDown`]
    /// by the shutdown path itself (drained dispatchers settle their own).
    pub dropped: u64,
    /// True when the supervisor and every dispatcher joined in time.
    pub joined: bool,
    /// Wall-clock time the shutdown took.
    pub elapsed: Duration,
}

struct RouterThreads {
    dispatchers: Vec<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
}

/// The fleet front door. See the module docs for the architecture.
pub struct Router {
    core: Arc<RouterCore>,
    threads: Mutex<Option<RouterThreads>>,
}

impl Router {
    /// Builds the shard fleet and starts one dispatcher per slot plus
    /// the shard supervisor. With `cfg.autoscale` set, `max_shards`
    /// slots are allocated (each with its queue and dispatcher, so
    /// scale-up never spawns threads) but only the initial `shards` run
    /// engines; the rest stay dormant behind open breakers.
    pub fn new(cfg: RouterConfig, registry: Arc<ModelRegistry>) -> Self {
        let mut cfg = cfg;
        cfg.shards = cfg.shards.max(1);
        cfg.virtual_nodes = cfg.virtual_nodes.max(1);
        cfg.batch_shed_at = cfg.batch_shed_at.clamp(0.0, 1.0);
        cfg.degrade_at = cfg.degrade_at.clamp(0.0, 1.0);
        cfg.autoscale = cfg.autoscale.map(|a| {
            crate::autoscale::AutoscaleController::new(a)
                .config()
                .clone()
        });
        let mut slots = cfg.shards;
        if let Some(a) = &cfg.autoscale {
            cfg.shards = cfg.shards.clamp(a.min_shards, a.max_shards);
            slots = a.max_shards.max(cfg.shards);
        }
        // Hot-plan replication: every shard engine (initial, respawned,
        // or scaled-up) warms its precision decisions from one shared
        // per-process store unless the caller injected their own.
        let shared_plans = cfg
            .engine
            .shared_plans
            .clone()
            .unwrap_or_else(|| Arc::new(SharedPlanCache::new()));
        cfg.engine.shared_plans = Some(Arc::clone(&shared_plans));
        let shards: Vec<Shard> =
            (0..slots)
                .map(|i| {
                    let active = i < cfg.shards;
                    Shard {
                        engine: RwLock::new(active.then(|| {
                            Arc::new(Engine::new(cfg.engine.clone(), Arc::clone(&registry)))
                        })),
                        queue: ShardQueue::new(cfg.shard_queue_capacity),
                        breaker: AtomicU8::new(if active { BREAKER_CLOSED } else { BREAKER_OPEN }),
                        draining: AtomicBool::new(false),
                        respawns_used: AtomicU64::new(0),
                        generation: AtomicU64::new(0),
                    }
                })
                .collect();
        let mut ring = HashRing::new(cfg.virtual_nodes);
        for s in 0..cfg.shards {
            ring.add_shard(s);
        }
        let policies = cfg
            .policies
            .iter()
            .map(|(t, p)| (t.clone(), p.clone()))
            .collect();
        let chaos = cfg.shard_chaos.clone().map(ShardChaos::new);
        let core = Arc::new(RouterCore {
            cfg,
            registry,
            shards,
            ring: RwLock::new(ring),
            state: AtomicU8::new(ROUTER_RUNNING),
            drain_deadline: Mutex::new(None),
            telemetry: RouterTelemetry::new(),
            chaos,
            jitter_draws: AtomicU64::new(0),
            shared_plans,
            buckets: Mutex::new(HashMap::new()),
            policies,
            ids: AtomicU64::new(0),
            video_sessions: Mutex::new(HashMap::new()),
            video_ids: AtomicU64::new(1),
        });
        let dispatchers = (0..core.shards.len())
            .map(|i| {
                let c = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("router-dispatch-{i}"))
                    .spawn(move || dispatcher_loop(c, i))
                    .expect("spawn dispatcher")
            })
            .collect();
        let sup = {
            let c = Arc::clone(&core);
            std::thread::Builder::new()
                .name("router-supervisor".to_string())
                .spawn(move || supervisor_loop(c))
                .expect("spawn supervisor")
        };
        Router {
            core,
            threads: Mutex::new(Some(RouterThreads {
                dispatchers,
                supervisor: Some(sup),
            })),
        }
    }

    /// Admits one request for `tenant` at priority `class`, or rejects
    /// it with a typed reason. `deadline` is relative to now. On success
    /// the returned ticket settles exactly once.
    pub fn submit(
        &self,
        tenant: &str,
        class: Priority,
        key: &ModelKey,
        input: Tensor,
        deadline: Option<Duration>,
    ) -> Result<RouterTicket, RouterSubmitError> {
        let core = &self.core;
        if !core.running() {
            core.telemetry.counters(|c| c.rejected_draining += 1);
            return Err(RouterSubmitError::Draining);
        }
        if let Err(reason) = validate_input(&input) {
            core.telemetry.counters(|c| c.rejected_invalid += 1);
            return Err(RouterSubmitError::InvalidInput { reason });
        }
        if !core.registry.contains(key) {
            core.telemetry.counters(|c| c.rejected_unknown_model += 1);
            return Err(RouterSubmitError::UnknownModel(key.clone()));
        }
        let tenant: Arc<str> = Arc::from(tenant);
        let policy = core.policy_for(&tenant).clone();
        let now = Instant::now();
        let limit = match class {
            Priority::Interactive => policy.interactive,
            Priority::Batch => policy.batch,
        };
        {
            let mut buckets = core.buckets.lock().unwrap_or_else(PoisonError::into_inner);
            let bucket = buckets
                .entry((Arc::clone(&tenant), class.index()))
                .or_insert_with(|| Bucket {
                    tokens: limit.burst,
                    last: now,
                });
            if !bucket.try_take(&limit, now) {
                drop(buckets);
                core.telemetry.counters(|c| c.throttled += 1);
                return Err(RouterSubmitError::Throttled {
                    tenant: tenant.to_string(),
                });
            }
        }
        let point = route_point(&tenant, key);
        let Some(shard_idx) = core.pick_shard(point) else {
            core.telemetry.counters(|c| c.rejected_no_shard += 1);
            return Err(RouterSubmitError::NoHealthyShard);
        };
        let shard = &core.shards[shard_idx];
        let fill = shard.queue.len() as f64 / core.cfg.shard_queue_capacity as f64;
        let mut effective = key.clone();
        let mut degraded = false;
        match class {
            Priority::Batch => {
                if fill >= core.cfg.batch_shed_at {
                    core.telemetry.counters(|c| c.shed_batch += 1);
                    return Err(RouterSubmitError::ShedBatch);
                }
            }
            Priority::Interactive => {
                if fill >= core.cfg.degrade_at {
                    if let Some(cheaper) = core.degrade_key(key, fill) {
                        effective = cheaper;
                        degraded = true;
                    }
                }
            }
        }
        let id = core.ids.fetch_add(1, Ordering::Relaxed);
        let slot = RouterSlot::new();
        let job = RouterJob {
            tenant: Arc::clone(&tenant),
            class,
            key: effective,
            degraded,
            input,
            deadline: deadline.map(|d| now + d),
            submitted: now,
            point,
            reroutes: 0,
            slot: Arc::clone(&slot),
        };
        match shard.queue.push(Box::new(job), policy.weight) {
            Ok(()) => {
                core.telemetry.counters(|c| {
                    match class {
                        Priority::Interactive => c.admitted_interactive += 1,
                        Priority::Batch => c.admitted_batch += 1,
                    }
                    if degraded {
                        c.degraded += 1;
                    }
                });
                Ok(RouterTicket { id, slot })
            }
            Err((SqPush::Closed, _)) => {
                core.telemetry.counters(|c| c.rejected_draining += 1);
                Err(RouterSubmitError::Draining)
            }
            Err((SqPush::Full, _)) => match class {
                Priority::Batch => {
                    core.telemetry.counters(|c| c.shed_batch += 1);
                    Err(RouterSubmitError::ShedBatch)
                }
                Priority::Interactive => {
                    core.telemetry.counters(|c| c.rejected_interactive += 1);
                    Err(RouterSubmitError::Overloaded)
                }
            },
        }
    }

    /// Opens a streaming video session for `tenant`, pinned to the shard
    /// its `(tenant, top rung)` pair routes to. Frames fed to the
    /// returned id land on that shard for the session's lifetime —
    /// temporal reuse state (tile hashes, the cached HR plane) lives in
    /// exactly one engine. If the shard is later replaced, the state is
    /// gone and the session settles as [`VideoError::SessionLost`] on
    /// its next touch; reopen to continue.
    ///
    /// # Errors
    ///
    /// [`RouterSubmitError::Video`] wrapping [`VideoError::SessionLimit`]
    /// at the per-tenant cap or the session geometry errors;
    /// [`RouterSubmitError::NoHealthyShard`] / `Draining` for fleet
    /// conditions.
    pub fn open_video_session(
        &self,
        tenant: &str,
        spec: VideoSessionSpec,
    ) -> Result<u64, RouterSubmitError> {
        let core = &self.core;
        if !core.running() {
            core.telemetry.counters(|c| c.rejected_draining += 1);
            return Err(RouterSubmitError::Draining);
        }
        let Some(top) = spec.ladder.last().cloned() else {
            return Err(RouterSubmitError::Video(VideoError::EmptyLadder));
        };
        let tenant: Arc<str> = Arc::from(tenant);
        {
            // Per-tenant cap. Pins whose shard was replaced are pruned
            // first — dead sessions must not hold cap space.
            let mut sessions = core
                .video_sessions
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            sessions.retain(|_, pin| {
                core.shards[pin.shard].generation.load(Ordering::Acquire) == pin.generation
            });
            let open = sessions.values().filter(|p| p.tenant == tenant).count();
            let limit = core.cfg.max_sessions_per_tenant;
            if open >= limit {
                return Err(RouterSubmitError::Video(VideoError::SessionLimit { limit }));
            }
        }
        let point = route_point(&tenant, &top);
        let Some(shard_idx) = core.pick_shard(point) else {
            core.telemetry.counters(|c| c.rejected_no_shard += 1);
            return Err(RouterSubmitError::NoHealthyShard);
        };
        let generation = core.shards[shard_idx].generation.load(Ordering::Acquire);
        let Some(engine) = core.shard_engine(shard_idx) else {
            // pick_shard only returns routable slots; losing the engine
            // between pick and open is a retire race.
            core.telemetry.counters(|c| c.rejected_no_shard += 1);
            return Err(RouterSubmitError::NoHealthyShard);
        };
        let engine_session = engine
            .open_video_session(spec)
            .map_err(RouterSubmitError::Video)?;
        let id = core.video_ids.fetch_add(1, Ordering::Relaxed);
        core.video_sessions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(
                id,
                VideoPin {
                    tenant,
                    shard: shard_idx,
                    generation,
                    engine_session,
                },
            );
        Ok(id)
    }

    /// Feeds frame `seq` to an open session. Frames bypass the weighted
    /// fair queue — they are pinned to one shard and settle through the
    /// engine's own bounded queue (backpressure surfaces as
    /// [`RouterSubmitError::Overloaded`]). The returned [`Ticket`]
    /// yields the composited HR frame; settlement is idempotent per
    /// `seq`.
    ///
    /// # Errors
    ///
    /// [`RouterSubmitError::Video`] wrapping
    /// [`VideoError::UnknownSession`] / [`VideoError::SessionLost`],
    /// plus the fleet-level rejections.
    pub fn feed_video_frame(
        &self,
        session_id: u64,
        seq: u64,
        frame: Tensor,
        deadline: Option<Duration>,
    ) -> Result<Ticket, RouterSubmitError> {
        let core = &self.core;
        if !core.running() {
            core.telemetry.counters(|c| c.rejected_draining += 1);
            return Err(RouterSubmitError::Draining);
        }
        let (shard_idx, engine_session) = core
            .resolve_video_pin(session_id)
            .map_err(RouterSubmitError::Video)?;
        let engine = core
            .shard_engine(shard_idx)
            .ok_or(RouterSubmitError::Video(VideoError::SessionLost))?;
        engine
            .feed_video_frame(engine_session, seq, frame, deadline)
            .map_err(|e| match e {
                SubmitError::QueueFull { .. } => RouterSubmitError::Overloaded,
                SubmitError::Draining | SubmitError::ShuttingDown => RouterSubmitError::Draining,
                SubmitError::InvalidInput { reason } => RouterSubmitError::InvalidInput { reason },
                SubmitError::UnknownModel(k) => RouterSubmitError::UnknownModel(k),
                // The pin resolved but the engine lost the session: only
                // possible across a replace race — typed, not hung.
                SubmitError::UnknownSession(_) => RouterSubmitError::Video(VideoError::SessionLost),
            })
    }

    /// Closes a video session and returns its lifetime stats. Closing a
    /// session whose shard was replaced returns
    /// [`VideoError::SessionLost`] (the pin is pruned either way).
    ///
    /// # Errors
    ///
    /// [`VideoError::UnknownSession`] / [`VideoError::SessionLost`].
    pub fn close_video_session(&self, session_id: u64) -> Result<SessionStats, VideoError> {
        let core = &self.core;
        let (shard_idx, engine_session) = core.resolve_video_pin(session_id)?;
        core.video_sessions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&session_id);
        core.shard_engine(shard_idx)
            .ok_or(VideoError::SessionLost)?
            .close_video_session(engine_session)
    }

    /// Lifetime stats of an open video session.
    ///
    /// # Errors
    ///
    /// [`VideoError::UnknownSession`] / [`VideoError::SessionLost`].
    pub fn video_session_stats(&self, session_id: u64) -> Result<SessionStats, VideoError> {
        let (shard_idx, engine_session) = self.core.resolve_video_pin(session_id)?;
        self.core
            .shard_engine(shard_idx)
            .ok_or(VideoError::SessionLost)?
            .video_session_stats(engine_session)
    }

    /// The fleet telemetry sink. Syncs the shared plan store's warm-hit
    /// count into the counters first, so every snapshot carries the
    /// current replication effectiveness.
    pub fn telemetry(&self) -> RouterSnapshot {
        let warm = self.core.shared_plans.warm_hits();
        self.core
            .telemetry
            .counters(|c| c.replication_warm_hits = warm);
        self.core.telemetry.snapshot()
    }

    /// The model registry all shards serve from.
    pub fn registry(&self) -> Arc<ModelRegistry> {
        Arc::clone(&self.core.registry)
    }

    /// Number of shards currently running an engine (active fleet size;
    /// includes draining scale-down victims until they retire).
    pub fn shard_count(&self) -> usize {
        self.core
            .shards
            .iter()
            .filter(|s| {
                s.engine
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .is_some()
            })
            .count()
    }

    /// Total slots allocated (the elastic headroom ceiling).
    pub fn slot_count(&self) -> usize {
        self.core.shards.len()
    }

    /// Which shard the given (tenant, model) currently routes to, if any
    /// breaker admits it. Stable under a healthy fleet.
    pub fn route_of(&self, tenant: &str, key: &ModelKey) -> Option<usize> {
        self.core.pick_shard(route_point(tenant, key))
    }

    /// A point-in-time view of each *active* shard (dormant slots are
    /// omitted; `index` identifies the slot).
    pub fn shard_statuses(&self) -> Vec<ShardStatus> {
        self.core
            .shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                let engine = s.engine()?;
                Some(ShardStatus {
                    index: i,
                    breaker: breaker_state(s.breaker.load(Ordering::Acquire)),
                    health: engine.health(),
                    queued: s.queue.len(),
                    engine_depth: engine.queue_depth(),
                    respawns_used: s.respawns_used.load(Ordering::Relaxed) as u32,
                    generation: s.generation.load(Ordering::Relaxed),
                    draining: s.draining.load(Ordering::Acquire),
                })
            })
            .collect()
    }

    /// Graceful fleet drain: stops admissions (submitters see
    /// [`RouterSubmitError::Draining`] on every shard), flushes queued
    /// work through the engines, then drains each engine. If `deadline`
    /// passes first, remaining work is answered with
    /// [`RouterServeError::ShuttingDown`] so no ticket hangs. Idempotent.
    pub fn shutdown(&self, deadline: Duration) -> RouterShutdownReport {
        let start = Instant::now();
        let mut threads_guard = self.threads.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = self.core.state.compare_exchange(
            ROUTER_RUNNING,
            ROUTER_DRAINING,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        *self
            .core
            .drain_deadline
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(start + deadline);
        let mut joined = true;
        if let Some(threads) = threads_guard.take() {
            // Supervisor first, so no fault injection or respawn races
            // the drain.
            if let Some(sup) = threads.supervisor {
                if wait_past(&sup, start, deadline) {
                    let _ = sup.join();
                } else {
                    joined = false; // detach: threads cannot be killed
                }
            }
            for shard in &self.core.shards {
                shard.queue.close();
            }
            // Dispatchers are waited for, never detached: past the drain
            // deadline every dispatcher path settles without blocking
            // (`dispatch_one` checks it in its backpressure wait), so a
            // job a dispatcher holds is settled before this returns.
            for d in threads.dispatchers {
                joined &= wait_past(&d, start, deadline);
                let _ = d.join();
            }
        } else {
            for shard in &self.core.shards {
                shard.queue.close();
            }
        }
        // Backstop: settle anything a panicked dispatcher left queued.
        let mut dropped = 0u64;
        for shard in &self.core.shards {
            while let Popped::Job(job) = shard.queue.pop(Duration::ZERO) {
                dropped += 1;
                settle(&self.core, &job, Err(RouterServeError::ShuttingDown));
            }
        }
        // Drain the engines; their hooks settle every in-flight request.
        for shard in &self.core.shards {
            let Some(engine) = shard.engine() else {
                continue;
            };
            let remaining = deadline.saturating_sub(start.elapsed());
            let _report: ShutdownReport = engine.shutdown(remaining);
        }
        self.core.state.store(ROUTER_STOPPED, Ordering::Release);
        drop(threads_guard);
        RouterShutdownReport {
            dropped,
            joined,
            elapsed: start.elapsed(),
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        if self.core.state.load(Ordering::Acquire) != ROUTER_STOPPED {
            let _ = self.shutdown(Duration::from_secs(60));
        }
    }
}

/// Waits until `h` finishes or `deadline` (from `start`) passes; true
/// when it finished in time.
fn wait_past(h: &JoinHandle<()>, start: Instant, deadline: Duration) -> bool {
    while !h.is_finished() {
        if start.elapsed() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// Consistent-hash point for a (tenant, model) pair.
fn route_point(tenant: &str, key: &ModelKey) -> u64 {
    let t = fnv1a(tenant.as_bytes());
    let m = fnv1a(key.to_string().as_bytes());
    splitmix64(t.wrapping_mul(3).wrapping_add(m))
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Supervisor-facing respawn backoff: exponential with deterministic
/// jitter, sharing the engine's jitter machinery.
pub(crate) fn respawn_backoff(core: &RouterCore, consecutive_failures: u32) -> Duration {
    let draw = core.jitter_draws.fetch_add(1, Ordering::Relaxed);
    jittered_backoff(
        core.cfg.respawn_backoff,
        core.cfg.respawn_backoff_cap,
        consecutive_failures.max(1),
        core.cfg.engine.jitter_seed ^ 0x5A5A_0F0F_55AA_33CC,
        draw,
    )
}
