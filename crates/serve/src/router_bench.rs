//! The `router-bench` harness: a deterministic multi-tenant open-loop
//! mix driven at the [`Router`], emitting `BENCH_router.json`.
//!
//! What it measures — and why the shard-scaling number is honest on a
//! small box: the mix pairs a heavy batch tenant (large whole-image
//! requests that occupy a one-worker shard for hundreds of
//! milliseconds) with several interactive tenants (small requests under
//! a tight deadline). On one shard the heavy tenant's requests park at
//! the head of the only queue and every interactive request that
//! arrives behind them expires — classic head-of-line blocking. With
//! four shards, consistent hashing isolates the heavy tenant on its own
//! shard and the interactive tenants' goodput (completions per second
//! of wall clock; expired requests do not count) recovers. The ≥3×
//! scaling is *queue-structural* — it comes from eliminating
//! head-of-line blocking, not from multiplying CPU — so it reproduces
//! on a single-core runner.
//!
//! The overload phase then drives the same fleet at a multiple of the
//! sustainable rate and checks the shedding order: batch is shed
//! (`shed_batch > 0`) while no interactive request is ever *rejected*
//! (`rejected_interactive == 0`; under pressure interactive work is
//! degraded to a cheaper architecture instead — the any-time move).
//!
//! The autoscale phase starts at the *low* shard count with the
//! elastic controller enabled and drives interactive-only traffic at a
//! rate one shard cannot sustain (`autoscale_hz` per tenant): deadline
//! misses saturate the pressure signal continuously — unlike the heavy
//! mix, whose multi-second head-of-line requests make the miss counter
//! bursty and leave an undrainable batch backlog in the quiet tail —
//! so the fleet grows toward the high count (bounded rebalancing: only
//! sampled ring keys that must move do), fresh shards draw collapsed
//! plans from the shared per-process store (`replication_warm_hits >
//! 0`, no re-collapse on first request), and the quiet tail drains in
//! milliseconds, letting the controller scale back down. The phase
//! fails if the fleet never scales up, never scales down, serves a
//! cold first request, or rejects interactive work while elastic.

use crate::autoscale::AutoscaleConfig;
use crate::bench::arch_config;
use crate::engine::EngineConfig;
use crate::json::JsonObject;
use crate::registry::{ModelKey, ModelRegistry};
use crate::router::{
    Priority, RateLimit, Router, RouterConfig, RouterServeError, RouterSnapshot, RouterSubmitError,
    RouterTicket, TenantPolicy,
};
use sesr_core::model::Sesr;
use sesr_tensor::Tensor;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Router-bench knobs. The defaults are the committed-baseline
/// configuration; `scripts/bench_gate.sh` re-runs them exactly.
#[derive(Debug, Clone)]
pub struct RouterBenchConfig {
    /// Seed for model init and input tensors.
    pub seed: u64,
    /// Open-loop traffic window per phase.
    pub phase: Duration,
    /// Shard counts for the two scaling phases (low, high).
    pub shard_counts: (usize, usize),
    /// Number of interactive tenants.
    pub interactive_tenants: usize,
    /// Per-tenant interactive arrival rate, requests/s.
    pub interactive_hz: f64,
    /// Interactive deadline; arrivals that cannot start in time expire.
    pub interactive_deadline: Duration,
    /// Interactive input size (h, w).
    pub small: (usize, usize),
    /// Heavy-tenant (batch-class) arrival rate, requests/s.
    pub heavy_hz: f64,
    /// Heavy-tenant deadline (generous; batch work queues, not expires).
    pub heavy_deadline: Duration,
    /// Heavy-tenant input size (h, w) — large enough that one request
    /// occupies a one-worker shard for hundreds of milliseconds. Sized
    /// against the SIMD kernels: when the kernels speed up, this must
    /// grow with them or head-of-line blocking quietly stops being
    /// exercised and the scaling phase measures nothing.
    pub big: (usize, usize),
    /// Rate multiplier for the interactive side of the overload phase.
    pub overload_factor: f64,
    /// Heavy-tenant rate, requests/s, during the overload phase (driven
    /// far past the sustainable rate so shedding must engage within the
    /// window).
    pub overload_heavy_hz: f64,
    /// Architecture served (degradable down the chain under overload).
    pub arch: String,
    /// Upscale factor.
    pub scale: usize,
    /// Expanded (training-time) channel width for model init.
    pub expanded: usize,
    /// Per-tenant interactive rate during the autoscale phase. Sized
    /// so the tenants together exceed one shard's small-image service
    /// capacity (sustained deadline misses drive scale-up) while each
    /// tenant alone fits comfortably on its own shard.
    pub autoscale_hz: f64,
    /// Quiet tail after the autoscale phase's traffic window: no
    /// arrivals, long enough for the controller's cold streak to drain
    /// the fleet back down at least once.
    pub autoscale_quiet: Duration,
}

impl Default for RouterBenchConfig {
    fn default() -> Self {
        Self {
            seed: 0xB0A7,
            phase: Duration::from_millis(3000),
            shard_counts: (1, 4),
            interactive_tenants: 3,
            interactive_hz: 30.0,
            interactive_deadline: Duration::from_millis(40),
            small: (24, 24),
            heavy_hz: 12.0,
            heavy_deadline: Duration::from_secs(3),
            big: (432, 576),
            overload_factor: 2.0,
            overload_heavy_hz: 16.0,
            arch: "m5".to_string(),
            scale: 2,
            expanded: 16,
            autoscale_hz: 600.0,
            autoscale_quiet: Duration::from_millis(1500),
        }
    }
}

/// The elastic-controller settings the autoscale phase runs under:
/// bounds = the two scaling-phase shard counts, a fast hot streak (any
/// deadline miss saturates pressure, so four 5 ms ticks suffice), and a
/// cold streak long enough that scale-down needs sustained quiet.
fn autoscale_for(cfg: &RouterBenchConfig) -> AutoscaleConfig {
    AutoscaleConfig {
        min_shards: cfg.shard_counts.0,
        max_shards: cfg.shard_counts.1,
        scale_up_fill: 0.60,
        scale_down_fill: 0.05,
        up_ticks: 4,
        down_ticks: 60,
        cooldown_ticks: 40,
        drain_grace: Duration::from_millis(300),
    }
}

/// One phase's results.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Shards in this phase's fleet.
    pub shards: usize,
    /// Length of the traffic window.
    pub window: Duration,
    /// Completions inside the window (goodput numerator).
    pub completed_in_window: u64,
    /// Goodput: completions in window / window seconds.
    pub rps: f64,
    /// Which shard each tenant routed to.
    pub assignments: Vec<(String, usize)>,
    /// Final telemetry after drain (ledger source of truth).
    pub snapshot: RouterSnapshot,
}

/// The full bench outcome.
#[derive(Debug, Clone)]
pub struct RouterBenchReport {
    /// Phase at `shard_counts.0`.
    pub low: PhaseReport,
    /// Phase at `shard_counts.1`.
    pub high: PhaseReport,
    /// `high.rps / low.rps`.
    pub scaling_x: f64,
    /// The overload/shedding phase (at `shard_counts.1`).
    pub overload: PhaseReport,
    /// The elastic phase: starts at `shard_counts.0` with the autoscale
    /// controller bounded by `shard_counts`, under the overload mix.
    pub autoscale: PhaseReport,
    /// Ledger problems across all phases (must be empty).
    pub problems: Vec<String>,
}

struct TenantSpec {
    name: String,
    class: Priority,
    hz: f64,
    deadline: Duration,
    hw: (usize, usize),
}

fn registry_for(cfg: &RouterBenchConfig) -> Result<Arc<ModelRegistry>, String> {
    // The served arch plus everything below it on the degrade chain, so
    // the overload phase has somewhere cheaper to step down to.
    let registry = Arc::new(ModelRegistry::new(8));
    for (i, arch) in ["m11", "m5", "m3"].iter().enumerate() {
        let sc = arch_config(arch, cfg.scale, cfg.expanded, cfg.seed + i as u64)?;
        registry.insert(ModelKey::new(arch, cfg.scale), Sesr::new(sc).collapse());
    }
    if !registry.contains(&ModelKey::new(&cfg.arch, cfg.scale)) {
        return Err(format!("arch {} not in the degrade-chain set", cfg.arch));
    }
    Ok(registry)
}

fn router_for(
    shards: usize,
    registry: Arc<ModelRegistry>,
    autoscale: Option<AutoscaleConfig>,
) -> Router {
    // The elastic phase starts at one shard under the full mix, so the
    // router queue must absorb the pre-scale-up backlog (deadline
    // misses drive the controller; queue-full rejections would fail the
    // phase). The fixed-fleet phases keep the small queue that makes
    // the shed/degrade thresholds engage.
    let shard_queue_capacity = if autoscale.is_some() { 256 } else { 16 };
    Router::new(
        RouterConfig {
            shards,
            engine: EngineConfig {
                workers: 1,
                // Small engine queue: backlog accumulates in the router
                // queue, where the shed/degrade thresholds read it.
                queue_capacity: 4,
                ..EngineConfig::default()
            },
            shard_queue_capacity,
            default_policy: TenantPolicy {
                weight: 1,
                interactive: RateLimit::default(),
                batch: RateLimit::default(),
            },
            autoscale,
            ..RouterConfig::default()
        },
        registry,
    )
}

/// Drives one tenant open-loop for `window`, then waits out its
/// tickets. Returns nothing: all accounting is read from the router's
/// own telemetry, which is the ledger under test.
fn drive_tenant(router: &Router, key: &ModelKey, spec: &TenantSpec, window: Duration, seed: u64) {
    let input = Tensor::rand_uniform(&[1, spec.hw.0, spec.hw.1], 0.0, 1.0, seed);
    let start = Instant::now();
    let period = Duration::from_secs_f64(1.0 / spec.hz.max(0.001));
    let mut tickets: Vec<RouterTicket> = Vec::new();
    let mut i = 0u32;
    loop {
        let due = period.mul_f64(f64::from(i));
        if due >= window {
            break;
        }
        let now = start.elapsed();
        if due > now {
            std::thread::sleep(due - now);
        }
        i += 1;
        match router.submit(
            &spec.name,
            spec.class,
            key,
            input.clone(),
            Some(spec.deadline),
        ) {
            Ok(t) => tickets.push(t),
            // Open loop: rejections are the router's decision to
            // record; the generator just keeps to its schedule.
            Err(
                RouterSubmitError::ShedBatch
                | RouterSubmitError::Overloaded
                | RouterSubmitError::Throttled { .. }
                | RouterSubmitError::NoHealthyShard
                | RouterSubmitError::Draining,
            ) => {}
            Err(e) => panic!("router-bench: unexpected rejection: {e}"),
        }
    }
    for t in tickets {
        match t.wait() {
            Ok(_) | Err(RouterServeError::DeadlineExpired | RouterServeError::ShuttingDown) => {}
            Err(e) => panic!("router-bench: unexpected failure: {e}"),
        }
    }
}

fn run_phase(
    cfg: &RouterBenchConfig,
    shards: usize,
    specs: &[TenantSpec],
    autoscale: Option<AutoscaleConfig>,
    quiet: Duration,
    problems: &mut Vec<String>,
) -> Result<PhaseReport, String> {
    let registry = registry_for(cfg)?;
    let router = Arc::new(router_for(shards, registry, autoscale));
    let key = ModelKey::new(&cfg.arch, cfg.scale);
    let assignments: Vec<(String, usize)> = specs
        .iter()
        .map(|s| {
            (
                s.name.clone(),
                router.route_of(&s.name, &key).unwrap_or(usize::MAX),
            )
        })
        .collect();
    let window = cfg.phase;
    let start = Instant::now();
    let handles: Vec<_> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let router = Arc::clone(&router);
            let key = key.clone();
            let spec = TenantSpec {
                name: spec.name.clone(),
                class: spec.class,
                hz: spec.hz,
                deadline: spec.deadline,
                hw: spec.hw,
            };
            let seed = cfg.seed ^ (0xBEEF << i);
            std::thread::spawn(move || drive_tenant(&router, &key, &spec, window, seed))
        })
        .collect();
    // Goodput is read exactly at the end of the traffic window, while
    // stragglers are still settling — completions after the window are
    // the drain's business, not the workload's.
    let remaining = window.saturating_sub(start.elapsed());
    std::thread::sleep(remaining);
    let at_window = router.telemetry();
    let completed_in_window = at_window.counters.completed;
    let rps = completed_in_window as f64 / window.as_secs_f64();
    // Quiet tail (autoscale phase only): no arrivals, so the elastic
    // controller's cold streak can drain the fleet back down.
    if !quiet.is_zero() {
        std::thread::sleep(quiet);
    }
    router.shutdown(Duration::from_millis(500));
    for h in handles {
        h.join()
            .map_err(|_| "generator thread panicked".to_string())?;
    }
    let snapshot = router.telemetry();
    for p in snapshot.reconcile() {
        problems.push(format!("shards={shards}: {p}"));
    }
    Ok(PhaseReport {
        shards,
        window,
        completed_in_window,
        rps,
        assignments,
        snapshot,
    })
}

/// Picks a heavy-tenant name that lands on a shard none of the
/// interactive tenants use at the high shard count, when one exists —
/// the balanced placement an operator would choose. Falls back to the
/// first candidate.
fn place_heavy_tenant(cfg: &RouterBenchConfig, interactive: &[String]) -> String {
    let Ok(registry) = registry_for(cfg) else {
        return "bulk-0".to_string();
    };
    let probe = router_for(cfg.shard_counts.1, registry, None);
    let key = ModelKey::new(&cfg.arch, cfg.scale);
    let taken: Vec<usize> = interactive
        .iter()
        .filter_map(|t| probe.route_of(t, &key))
        .collect();
    let name = (0..16)
        .map(|i| format!("bulk-{i}"))
        .find(|n| probe.route_of(n, &key).is_some_and(|s| !taken.contains(&s)))
        .unwrap_or_else(|| "bulk-0".to_string());
    probe.shutdown(Duration::from_secs(2));
    name
}

/// Runs the three phases: low-shard scaling, high-shard scaling, and
/// overload/shedding.
///
/// # Errors
///
/// Returns a message when the configuration is unusable (unknown arch)
/// or a generator thread panics.
pub fn run_router_bench(cfg: &RouterBenchConfig) -> Result<RouterBenchReport, String> {
    // Single-threaded compute: the scaling claim is queue-structural
    // and must not depend on intra-op parallelism.
    sesr_tensor::parallel::set_num_threads(1);
    let interactive: Vec<String> = (0..cfg.interactive_tenants)
        .map(|i| format!("int-{i}"))
        .collect();
    let heavy = place_heavy_tenant(cfg, &interactive);
    let specs = |int_hz: f64, heavy_hz: f64| -> Vec<TenantSpec> {
        let mut v: Vec<TenantSpec> = interactive
            .iter()
            .map(|name| TenantSpec {
                name: name.clone(),
                class: Priority::Interactive,
                hz: int_hz,
                deadline: cfg.interactive_deadline,
                hw: cfg.small,
            })
            .collect();
        v.push(TenantSpec {
            name: heavy.clone(),
            class: Priority::Batch,
            hz: heavy_hz,
            deadline: cfg.heavy_deadline,
            hw: cfg.big,
        });
        v
    };
    let mut problems = Vec::new();
    let steady = specs(cfg.interactive_hz, cfg.heavy_hz);
    let low = run_phase(
        cfg,
        cfg.shard_counts.0,
        &steady,
        None,
        Duration::ZERO,
        &mut problems,
    )?;
    let high = run_phase(
        cfg,
        cfg.shard_counts.1,
        &steady,
        None,
        Duration::ZERO,
        &mut problems,
    )?;
    let scaling_x = if low.rps > 0.0 {
        high.rps / low.rps
    } else {
        0.0
    };
    let over = specs(
        cfg.interactive_hz * cfg.overload_factor,
        cfg.overload_heavy_hz,
    );
    let overload = run_phase(
        cfg,
        cfg.shard_counts.1,
        &over,
        None,
        Duration::ZERO,
        &mut problems,
    )?;
    if overload.snapshot.counters.shed_batch == 0 {
        problems.push("overload phase: batch shedding never engaged".to_string());
    }
    if overload.snapshot.counters.rejected_interactive > 0 {
        problems.push(format!(
            "overload phase: {} interactive requests rejected (must shed batch first)",
            overload.snapshot.counters.rejected_interactive
        ));
    }
    // Elastic phase: interactive-only pressure aimed at a fleet that
    // starts at the low count and must grow its way out of it.
    let elastic: Vec<TenantSpec> = interactive
        .iter()
        .map(|name| TenantSpec {
            name: name.clone(),
            class: Priority::Interactive,
            hz: cfg.autoscale_hz,
            deadline: cfg.interactive_deadline,
            hw: cfg.small,
        })
        .collect();
    let autoscale = run_phase(
        cfg,
        cfg.shard_counts.0,
        &elastic,
        Some(autoscale_for(cfg)),
        cfg.autoscale_quiet,
        &mut problems,
    )?;
    let ac = &autoscale.snapshot.counters;
    if ac.scale_up_events == 0 {
        problems.push("autoscale phase: fleet never scaled up under overload".to_string());
    }
    if ac.scale_down_events == 0 {
        problems
            .push("autoscale phase: fleet never drained back down in the quiet tail".to_string());
    }
    if ac.replication_warm_hits == 0 {
        problems.push(
            "autoscale phase: no shared-plan warm hit (new shards re-collapsed plans)".to_string(),
        );
    }
    if ac.rejected_interactive > 0 {
        problems.push(format!(
            "autoscale phase: {} interactive requests rejected while elastic",
            ac.rejected_interactive
        ));
    }
    Ok(RouterBenchReport {
        low,
        high,
        scaling_x,
        overload,
        autoscale,
        problems,
    })
}

fn phase_json(p: &PhaseReport) -> String {
    let assignments: Vec<String> = p
        .assignments
        .iter()
        .map(|(t, s)| {
            JsonObject::new()
                .str("tenant", t)
                .int("shard", *s as u64)
                .finish()
        })
        .collect();
    JsonObject::new()
        .int("shards", p.shards as u64)
        .num("window_s", p.window.as_secs_f64())
        .int("completed_in_window", p.completed_in_window)
        .num("rps", p.rps)
        .raw("assignments", &crate::json::array(assignments))
        .raw("telemetry", &p.snapshot.to_json())
        .finish()
}

/// Serializes the report (with its configuration) as the
/// `BENCH_router.json` document.
pub fn router_bench_report_json(cfg: &RouterBenchConfig, r: &RouterBenchReport) -> String {
    let config = JsonObject::new()
        .int("seed", cfg.seed)
        .num("phase_s", cfg.phase.as_secs_f64())
        .int("shards_low", cfg.shard_counts.0 as u64)
        .int("shards_high", cfg.shard_counts.1 as u64)
        .int("interactive_tenants", cfg.interactive_tenants as u64)
        .num("interactive_hz", cfg.interactive_hz)
        .num(
            "interactive_deadline_ms",
            cfg.interactive_deadline.as_secs_f64() * 1e3,
        )
        .str("small_hw", &format!("{}x{}", cfg.small.0, cfg.small.1))
        .num("heavy_hz", cfg.heavy_hz)
        .str("big_hw", &format!("{}x{}", cfg.big.0, cfg.big.1))
        .num("overload_factor", cfg.overload_factor)
        .num("overload_heavy_hz", cfg.overload_heavy_hz)
        .str("arch", &cfg.arch)
        .int("scale", cfg.scale as u64)
        .int("expanded", cfg.expanded as u64)
        .num("autoscale_hz", cfg.autoscale_hz)
        .num("autoscale_quiet_s", cfg.autoscale_quiet.as_secs_f64())
        .finish();
    let problems: Vec<String> = r
        .problems
        .iter()
        .map(|p| JsonObject::new().str("problem", p).finish())
        .collect();
    let results = JsonObject::new()
        .raw(&format!("shards_{}", r.low.shards), &phase_json(&r.low))
        .raw(&format!("shards_{}", r.high.shards), &phase_json(&r.high))
        .num("scaling_x", r.scaling_x)
        .raw("overload", &phase_json(&r.overload))
        .raw("autoscale", &phase_json(&r.autoscale))
        .raw("problems", &crate::json::array(problems))
        .finish();
    JsonObject::new()
        .str("bench", "sesr-router")
        .raw("config", &config)
        .raw("results", &results)
        .finish()
}
