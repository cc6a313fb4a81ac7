//! Per-stage latency histograms, throughput and rejection counters.
//!
//! Every request that moves through the engine is timed at four stages —
//! queue wait, batch assembly, compute, reassembly — plus end-to-end
//! total. Latencies land in log-scale histograms (8 sub-buckets per
//! power of two, ≤ 12.5% relative quantile error, fixed 512-slot
//! footprint, no allocation on the record path beyond the initial
//! vector), from which p50/p95/p99 are read out. Counters track
//! submissions, completions, and each distinct rejection reason, so a
//! load run can show its backpressure behavior, not just its happy path.

use crate::json::{array, JsonObject};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Pipeline stages measured per request (or per batch where noted).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Submit → dequeue by a worker.
    QueueWait,
    /// Grouping and stacking same-shape requests into one NCHW batch
    /// (recorded per batch).
    BatchAssembly,
    /// Forward pass (recorded per batch).
    Compute,
    /// Splitting batched output and fulfilling tickets (recorded per
    /// batch).
    Reassembly,
    /// Submit → response fulfilled (per request).
    Total,
}

/// All stages, in display order.
pub const STAGES: [Stage; 5] = [
    Stage::QueueWait,
    Stage::BatchAssembly,
    Stage::Compute,
    Stage::Reassembly,
    Stage::Total,
];

impl Stage {
    /// Snake-case stage name used in JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::BatchAssembly => "batch_assembly",
            Stage::Compute => "compute",
            Stage::Reassembly => "reassembly",
            Stage::Total => "total",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::QueueWait => 0,
            Stage::BatchAssembly => 1,
            Stage::Compute => 2,
            Stage::Reassembly => 3,
            Stage::Total => 4,
        }
    }
}

const SUB_BITS: u32 = 3; // 8 sub-buckets per octave
const BUCKETS: usize = 512;

fn bucket_index(v: u64) -> usize {
    if v < (1 << SUB_BITS) {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let sub = ((v >> (exp - SUB_BITS)) & ((1 << SUB_BITS) - 1)) as usize;
    let idx = ((exp - SUB_BITS + 1) as usize) << SUB_BITS;
    (idx + sub).min(BUCKETS - 1)
}

fn bucket_upper(idx: usize) -> u64 {
    if idx < (1 << SUB_BITS) {
        return idx as u64;
    }
    let exp = (idx >> SUB_BITS) as u32 + SUB_BITS - 1;
    let sub = (idx & ((1 << SUB_BITS) - 1)) as u64;
    (1u64 << exp) + (sub + 1) * (1u64 << (exp - SUB_BITS)) - 1
}

/// Log-scale latency histogram over nanoseconds.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    total_ns: u128,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; BUCKETS],
            count: 0,
            total_ns: 0,
            max_ns: 0,
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, d: Duration) {
        self.record_ns(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Records one latency sample in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.buckets[bucket_index(ns)] += 1;
        self.count += 1;
        self.total_ns += u128::from(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in milliseconds (0 when empty).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.total_ns as f64 / self.count as f64 / 1e6
    }

    /// Maximum recorded latency in milliseconds.
    pub fn max_ms(&self) -> f64 {
        self.max_ns as f64 / 1e6
    }

    /// The `q`-quantile (`0 < q <= 1`) in milliseconds, as the upper bound
    /// of the bucket holding that rank (≤ 12.5% overestimate). Returns 0
    /// for an empty histogram.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The top bucket is open-ended; report the true max there.
                let ub = bucket_upper(i).min(self.max_ns);
                return ub as f64 / 1e6;
            }
        }
        self.max_ms()
    }
}

/// Monotonic event counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests fulfilled with an output image.
    pub completed: u64,
    /// Requests rejected at submit because the queue was at capacity.
    pub rejected_queue_full: u64,
    /// Requests dropped at dequeue because their deadline had passed.
    pub rejected_deadline: u64,
    /// Requests rejected because the engine was shutting down.
    pub rejected_shutdown: u64,
    /// Requests rejected at submit by input boundary validation
    /// (NaN/Inf values, zero dimensions, wrong rank).
    pub rejected_invalid: u64,
    /// Requests rejected at submit because the engine was draining.
    pub rejected_draining: u64,
    /// Requests failed because their model could not be loaded.
    pub model_load_failures: u64,
    /// Forward-pass panics caught (a batch: the worker dies and is
    /// respawned; a lone large frame or a video frame: contained, the
    /// worker survives).
    pub worker_crashes: u64,
    /// Workers respawned by the supervisor after a crash.
    pub worker_restarts: u64,
    /// Requests re-enqueued after a retryable failure (worker crash or
    /// transient model-load failure).
    pub requests_retried: u64,
    /// Requests terminally failed after exhausting their retry budget on
    /// crashes — the poison-pill quarantine path.
    pub requests_quarantined: u64,
    /// Requests still queued when a shutdown deadline expired, answered
    /// with `ShuttingDown` instead of being run.
    pub dropped_in_drain: u64,
    /// Total chaos faults injected (sum of the four per-point counters).
    pub faults_injected: u64,
    /// Injected panic-in-forward faults.
    pub faults_panic: u64,
    /// Injected slow-model faults.
    pub faults_slow: u64,
    /// Injected registry-load faults.
    pub faults_load: u64,
    /// Injected clock-skew faults.
    pub faults_skew: u64,
    /// Micro-batches executed.
    pub batches: u64,
    /// Requests executed inside micro-batches (avg batch = this/batches).
    pub batched_requests: u64,
    /// Largest micro-batch executed.
    pub max_batch: u64,
    /// Requests the engine cut into halo tiles. Always 0 since large
    /// frames run whole through streamed plans; kept for reports that
    /// still read it.
    pub tiled_requests: u64,
    /// Halo tiles the engine ran for whole-frame requests. Always 0, as
    /// `tiled_requests`; video tiles are counted by the `video_tiles_*`
    /// counters.
    pub tiles_run: u64,
    /// Requests served from an already-compiled inference plan (per-worker
    /// plan cache hit on `(model, shape)`).
    pub plan_cache_hits: u64,
    /// Requests that had to compile a fresh inference plan (cache miss or
    /// eviction).
    pub plan_cache_misses: u64,
    /// Largest plan buffer arena used by any single request, in bytes
    /// (max semantics, not a sum).
    pub peak_arena_bytes: u64,
    /// Int8 plans brought into service (fresh quantized plan or tile
    /// planner compilations under an in-budget precision decision).
    /// Cumulative, so a value > 0 proves the engine actually served
    /// int8 rather than silently falling back.
    pub int8_plans_active: u64,
    /// Plan-cache hits served by an int8 plan (subset of
    /// `plan_cache_hits`).
    pub int8_plan_cache_hits: u64,
    /// Models graded under an `Int8` policy whose measured ΔPSNR
    /// exceeded the budget, falling back to f32. Counted once per fresh
    /// grading, not per request.
    pub precision_fallbacks: u64,
    /// Video sessions opened.
    pub video_sessions_opened: u64,
    /// Video sessions closed.
    pub video_sessions_closed: u64,
    /// Video frames accepted into sessions.
    pub video_frames_in: u64,
    /// Video frames settled with a composited output.
    pub video_frames_completed: u64,
    /// Duplicate frame submissions settled idempotently from the cached
    /// output (no recompute).
    pub video_frames_duplicate: u64,
    /// Tiles skipped because their halo-expanded input was unchanged —
    /// cached HR output blitted back verbatim.
    pub video_tiles_skipped: u64,
    /// Dirty tiles recomputed through the model ladder.
    pub video_tiles_recomputed: u64,
    /// Dirty tiles run below the ladder's top rung (by difficulty or
    /// deadline pressure) — the any-time degradation count.
    pub video_tiles_degraded: u64,
    /// Ladder histogram: tiles computed at rung 0 (cheapest model).
    pub video_rung_0: u64,
    /// Tiles computed at rung 1.
    pub video_rung_1: u64,
    /// Tiles computed at rung 2.
    pub video_rung_2: u64,
    /// Tiles computed at rung 3 and above (clamped into this bucket).
    pub video_rung_3: u64,
    /// Frames whose processing finished after their deadline.
    pub video_deadline_misses: u64,
}

struct Inner {
    stages: [Histogram; 5],
    counters: Counters,
    started: Instant,
}

/// Thread-safe telemetry hub shared by the engine's workers.
pub struct Telemetry {
    inner: Mutex<Inner>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// Fresh telemetry with the epoch set to now.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(Inner {
                stages: [
                    Histogram::new(),
                    Histogram::new(),
                    Histogram::new(),
                    Histogram::new(),
                    Histogram::new(),
                ],
                counters: Counters::default(),
                started: Instant::now(),
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Records a latency sample for one stage.
    pub fn record(&self, stage: Stage, d: Duration) {
        self.lock().stages[stage.index()].record(d);
    }

    /// Applies a mutation to the counters (e.g. bump a rejection reason).
    pub fn counters<R>(&self, f: impl FnOnce(&mut Counters) -> R) -> R {
        f(&mut self.lock().counters)
    }

    /// Records one completed request: bumps `completed` *and* the `Total`
    /// histogram under a single lock acquisition, so a concurrent
    /// [`Telemetry::snapshot`] can never observe one without the other
    /// (a torn snapshot would make `completed` and the total-stage count
    /// disagree mid-drain).
    pub fn complete(&self, total: Duration) {
        let mut g = self.lock();
        g.counters.completed += 1;
        g.stages[Stage::Total.index()].record(total);
    }

    /// A point-in-time copy of every stage histogram and counter, plus
    /// the process-global kernel state (active SIMD variant, tuned GEMM
    /// shape count) so a telemetry dump records which arithmetic served
    /// the traffic.
    pub fn snapshot(&self) -> Snapshot {
        let g = self.lock();
        Snapshot {
            stages: STAGES
                .iter()
                .map(|s| (s.name(), StageSummary::of(&g.stages[s.index()])))
                .collect(),
            counters: g.counters,
            elapsed_ms: g.started.elapsed().as_secs_f64() * 1e3,
            kernel_variant: sesr_tensor::simd::kernel_variant().name(),
            gemm_shapes_tuned: sesr_tensor::autotune::cached_gemm_choices() as u64,
        }
    }
}

/// Latency summary of one stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageSummary {
    /// Samples recorded.
    pub count: u64,
    /// Mean latency (ms).
    pub mean_ms: f64,
    /// Median latency (ms).
    pub p50_ms: f64,
    /// 95th percentile (ms).
    pub p95_ms: f64,
    /// 99th percentile (ms).
    pub p99_ms: f64,
    /// Maximum (ms).
    pub max_ms: f64,
}

impl StageSummary {
    fn of(h: &Histogram) -> Self {
        Self {
            count: h.count(),
            mean_ms: h.mean_ms(),
            p50_ms: h.quantile_ms(0.50),
            p95_ms: h.quantile_ms(0.95),
            p99_ms: h.quantile_ms(0.99),
            max_ms: h.max_ms(),
        }
    }

    fn to_json(self, name: &str) -> String {
        JsonObject::new()
            .str("stage", name)
            .int("count", self.count)
            .num("mean_ms", self.mean_ms)
            .num("p50_ms", self.p50_ms)
            .num("p95_ms", self.p95_ms)
            .num("p99_ms", self.p99_ms)
            .num("max_ms", self.max_ms)
            .finish()
    }
}

/// A point-in-time view of the engine's telemetry.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// `(stage name, summary)` in pipeline order.
    pub stages: Vec<(&'static str, StageSummary)>,
    /// Counter values at snapshot time.
    pub counters: Counters,
    /// Milliseconds since the telemetry epoch.
    pub elapsed_ms: f64,
    /// Name of the process-global microkernel variant that compute ran
    /// on ([`sesr_tensor::simd::kernel_variant`]); serve pins one
    /// variant process-wide (Detect policy), so a single field suffices.
    pub kernel_variant: &'static str,
    /// Distinct GEMM shapes with a cached autotuned blocking choice
    /// ([`sesr_tensor::autotune::cached_gemm_choices`]).
    pub gemm_shapes_tuned: u64,
}

impl Snapshot {
    /// Completed requests per second since the epoch.
    pub fn throughput_rps(&self) -> f64 {
        if self.elapsed_ms <= 0.0 {
            return 0.0;
        }
        self.counters.completed as f64 / (self.elapsed_ms / 1e3)
    }

    /// Serializes the snapshot as a JSON object.
    pub fn to_json(&self) -> String {
        let c = self.counters;
        let counters = JsonObject::new()
            .int("submitted", c.submitted)
            .int("completed", c.completed)
            .int("rejected_queue_full", c.rejected_queue_full)
            .int("rejected_deadline", c.rejected_deadline)
            .int("rejected_shutdown", c.rejected_shutdown)
            .int("rejected_invalid", c.rejected_invalid)
            .int("rejected_draining", c.rejected_draining)
            .int("model_load_failures", c.model_load_failures)
            .int("worker_crashes", c.worker_crashes)
            .int("worker_restarts", c.worker_restarts)
            .int("requests_retried", c.requests_retried)
            .int("requests_quarantined", c.requests_quarantined)
            .int("dropped_in_drain", c.dropped_in_drain)
            .int("faults_injected", c.faults_injected)
            .int("faults_panic", c.faults_panic)
            .int("faults_slow", c.faults_slow)
            .int("faults_load", c.faults_load)
            .int("faults_skew", c.faults_skew)
            .int("batches", c.batches)
            .int("batched_requests", c.batched_requests)
            .int("max_batch", c.max_batch)
            .int("tiled_requests", c.tiled_requests)
            .int("tiles_run", c.tiles_run)
            .int("plan_cache_hits", c.plan_cache_hits)
            .int("plan_cache_misses", c.plan_cache_misses)
            .int("peak_arena_bytes", c.peak_arena_bytes)
            .int("int8_plans_active", c.int8_plans_active)
            .int("int8_plan_cache_hits", c.int8_plan_cache_hits)
            .int("precision_fallbacks", c.precision_fallbacks)
            .int("video_sessions_opened", c.video_sessions_opened)
            .int("video_sessions_closed", c.video_sessions_closed)
            .int("video_frames_in", c.video_frames_in)
            .int("video_frames_completed", c.video_frames_completed)
            .int("video_frames_duplicate", c.video_frames_duplicate)
            .int("video_tiles_skipped", c.video_tiles_skipped)
            .int("video_tiles_recomputed", c.video_tiles_recomputed)
            .int("video_tiles_degraded", c.video_tiles_degraded)
            .int("video_rung_0", c.video_rung_0)
            .int("video_rung_1", c.video_rung_1)
            .int("video_rung_2", c.video_rung_2)
            .int("video_rung_3", c.video_rung_3)
            .int("video_deadline_misses", c.video_deadline_misses)
            .finish();
        JsonObject::new()
            .num("elapsed_ms", self.elapsed_ms)
            .num("throughput_rps", self.throughput_rps())
            .str("kernel_variant", self.kernel_variant)
            .int("gemm_shapes_tuned", self.gemm_shapes_tuned)
            .raw(
                "stages",
                &array(self.stages.iter().map(|(n, s)| s.to_json(n))),
            )
            .raw("counters", &counters)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_mapping_is_monotonic_and_tight() {
        let mut prev = 0;
        for v in [0u64, 1, 7, 8, 9, 100, 1_000, 65_535, 1 << 30, u64::MAX / 2] {
            let idx = bucket_index(v);
            assert!(idx >= prev || v < 8, "indices must not decrease");
            prev = idx;
            let ub = bucket_upper(idx);
            assert!(ub >= v, "upper bound {ub} must cover {v}");
            // ≤ 12.5% relative error beyond the exact range.
            if v >= 8 && idx < BUCKETS - 1 {
                assert!((ub - v) as f64 <= v as f64 / 8.0 + 1.0, "v={v} ub={ub}");
            }
        }
    }

    #[test]
    fn quantiles_of_uniform_ramp() {
        let mut h = Histogram::new();
        for ms in 1..=1000u64 {
            h.record_ns(ms * 1_000_000);
        }
        let p50 = h.quantile_ms(0.5);
        let p99 = h.quantile_ms(0.99);
        assert!((p50 - 500.0).abs() / 500.0 < 0.15, "p50={p50}");
        assert!((p99 - 990.0).abs() / 990.0 < 0.15, "p99={p99}");
        assert!(p50 <= p99);
        assert_eq!(h.count(), 1000);
        assert!((h.mean_ms() - 500.5).abs() < 0.01);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.quantile_ms(0.99), 0.0);
        assert_eq!(h.mean_ms(), 0.0);
        assert_eq!(h.max_ms(), 0.0);
    }

    #[test]
    fn concurrent_snapshots_are_never_torn() {
        // A writer settles requests through the single-lock `complete`
        // path while a reader snapshots continuously: in every snapshot
        // the `completed` counter and the total-stage sample count must
        // agree exactly — the satellite guarantee that drain-time
        // snapshots are internally consistent.
        let t = std::sync::Arc::new(Telemetry::new());
        let writer = {
            let t = std::sync::Arc::clone(&t);
            std::thread::spawn(move || {
                for i in 0..20_000u64 {
                    t.complete(Duration::from_nanos(i));
                }
            })
        };
        let total_count = |s: &Snapshot| {
            s.stages
                .iter()
                .find(|(n, _)| *n == "total")
                .map(|(_, st)| st.count)
                .unwrap()
        };
        while !writer.is_finished() {
            let s = t.snapshot();
            assert_eq!(
                s.counters.completed,
                total_count(&s),
                "torn snapshot: completed != total-stage count"
            );
        }
        writer.join().unwrap();
        let s = t.snapshot();
        assert_eq!(s.counters.completed, 20_000);
        assert_eq!(total_count(&s), 20_000);
    }

    #[test]
    fn snapshot_serializes_to_valid_json() {
        let t = Telemetry::new();
        t.record(Stage::Compute, Duration::from_millis(3));
        t.record(Stage::Total, Duration::from_millis(5));
        t.counters(|c| {
            c.submitted = 2;
            c.completed = 1;
            c.rejected_queue_full = 1;
            c.plan_cache_hits = 3;
            c.plan_cache_misses = 1;
            c.peak_arena_bytes = 4096;
            c.int8_plans_active = 2;
            c.int8_plan_cache_hits = 1;
            c.precision_fallbacks = 1;
        });
        let snap = t.snapshot();
        let json = snap.to_json();
        crate::json::validate(&json).unwrap();
        assert!(json.contains("\"queue_wait\""));
        assert!(json.contains("\"p99_ms\""));
        // The active microkernel variant is serialized by its stable name.
        let variant = sesr_tensor::simd::kernel_variant().name();
        assert!(json.contains(&format!("\"kernel_variant\":\"{variant}\"")));
        assert!(json.contains("\"gemm_shapes_tuned\""));
        assert!(json.contains("\"rejected_queue_full\":1"));
        for fault_counter in [
            "\"worker_restarts\":0",
            "\"requests_retried\":0",
            "\"faults_injected\":0",
            "\"rejected_draining\":0",
        ] {
            assert!(json.contains(fault_counter), "missing {fault_counter}");
        }
        for plan_counter in [
            "\"plan_cache_hits\":3",
            "\"plan_cache_misses\":1",
            "\"peak_arena_bytes\":4096",
            "\"int8_plans_active\":2",
            "\"int8_plan_cache_hits\":1",
            "\"precision_fallbacks\":1",
        ] {
            assert!(json.contains(plan_counter), "missing {plan_counter}");
        }
    }

    #[test]
    fn video_counters_round_trip_through_json() {
        let t = Telemetry::new();
        t.counters(|c| {
            c.video_sessions_opened = 2;
            c.video_sessions_closed = 1;
            c.video_frames_in = 30;
            c.video_frames_completed = 29;
            c.video_frames_duplicate = 3;
            c.video_tiles_skipped = 500;
            c.video_tiles_recomputed = 77;
            c.video_tiles_degraded = 12;
            c.video_rung_0 = 1;
            c.video_rung_1 = 2;
            c.video_rung_3 = 2;
            c.video_deadline_misses = 1;
        });
        let json = t.snapshot().to_json();
        crate::json::validate(&json).unwrap();
        let v = crate::json::JsonValue::parse(&json).unwrap();
        let counter = |name: &str| {
            v.get(&["counters", name])
                .and_then(crate::json::JsonValue::as_f64)
                .unwrap_or(-1.0)
        };
        assert_eq!(counter("video_sessions_opened"), 2.0);
        assert_eq!(counter("video_sessions_closed"), 1.0);
        assert_eq!(counter("video_frames_in"), 30.0);
        assert_eq!(counter("video_frames_completed"), 29.0);
        assert_eq!(counter("video_frames_duplicate"), 3.0);
        assert_eq!(counter("video_tiles_skipped"), 500.0);
        assert_eq!(counter("video_tiles_recomputed"), 77.0);
        assert_eq!(counter("video_tiles_degraded"), 12.0);
        assert_eq!(counter("video_rung_0"), 1.0);
        assert_eq!(counter("video_rung_1"), 2.0);
        assert_eq!(counter("video_rung_2"), 0.0);
        assert_eq!(counter("video_rung_3"), 2.0);
        assert_eq!(counter("video_deadline_misses"), 1.0);
    }
}
