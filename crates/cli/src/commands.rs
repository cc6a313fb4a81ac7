//! The `sesr` subcommands.

use crate::args::{ArgError, Args};
use crate::pgm;
use sesr_core::ir::sesr_ir;
use sesr_core::model::{Sesr, SesrConfig};
use sesr_core::model_io::{load_model, save_model};
use sesr_core::tiling::TileError;
use sesr_core::train::{DivergenceGuard, TrainConfig, TrainError, Trainer};
use sesr_core::CollapsedSesr;
use sesr_data::TrainSet;
use sesr_npu::{simulate, EthosN78Like};
use std::fmt;
use std::path::Path;

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// Missing/invalid options.
    Args(ArgError),
    /// Unknown or missing subcommand; carries the usage text.
    Usage(String),
    /// I/O or decode failure.
    Io(std::io::Error),
    /// Training failed: divergence-guard abort or a bad checkpoint.
    Train(TrainError),
    /// Invalid tiling geometry (zero tile, or overlap below the
    /// receptive-field radius).
    Tile(TileError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::Usage(u) => write!(f, "{u}"),
            CliError::Io(e) => write!(f, "{e}"),
            CliError::Train(e) => write!(f, "{e}"),
            CliError::Tile(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<TrainError> for CliError {
    fn from(e: TrainError) -> Self {
        CliError::Train(e)
    }
}

impl From<TileError> for CliError {
    fn from(e: TileError) -> Self {
        CliError::Tile(e)
    }
}

/// Usage text shown for bad invocations.
pub const USAGE: &str = "\
sesr — Super-Efficient Super Resolution (MLSys 2022 reproduction)

USAGE:
  sesr train    --out <model.sesr> [--m 5] [--f 16] [--scale 2] [--steps 500]
                [--expanded 64] [--batch 8] [--lr 5e-4] [--relu] [--seed N]
                [--ckpt <run.ckpt>] [--ckpt-every 50] [--resume <run.ckpt>]
                [--clip <max-grad-norm>] [--guard]
  sesr upscale  --model <model.sesr> --in <image.pgm> --out <sr.pgm> [--tile N]
  sesr simulate --model <model.sesr> [--height 1080] [--width 1920] [--tops 4]
  sesr info     --model <model.sesr>
  sesr serve-bench [--arch m5] [--scale 2] [--expanded 32] [--seed 0]
                [--workers 2] [--queue-cap 64] [--max-batch 8]
                [--requests 64] [--height 64] [--width 64]
                [--mode closed|open] [--concurrency 4] [--rate-hz 50]
                [--deadline-ms N] [--burst N] [--load-seed 0]
                [--intra-threads N] [--out BENCH_serve.json]
  sesr train-bench [--archs m5,m11] [--scale 2] [--expanded 16] [--seed 0]
                [--steps 10] [--warmup 2] [--batch 8] [--hr-patch 32]
                [--threads N] [--out BENCH_train.json]
  sesr infer-bench [--archs m5,m11] [--scale 2] [--expanded 16] [--seed 0]
                [--iters 30] [--warmup 5] [--height 180] [--width 320]
                [--threads N] [--variant scalar|avx2|avx2fma|neon]
                [--int8 on|off] [--psnr-budget 1.0] [--out BENCH_infer.json]
  sesr serve-chaos [--seed 0xC4A05] [--requests 400] [--workers 3]
                [--concurrency 12] [--height 8] [--width 8]
                [--panic-per-mille 150] [--slow-per-mille 150]
                [--load-fail-per-mille 200] [--skew-per-mille 50]
                [--min-faults N]
  sesr router-bench [--seed 0xB0A7] [--phase-ms 3000] [--shards-low 1]
                [--shards-high 4] [--tenants 3] [--interactive-hz 30]
                [--deadline-ms 40] [--heavy-hz 12] [--big-height 432]
                [--big-width 576] [--overload-factor 2]
                [--overload-heavy-hz 16] [--autoscale-hz 600]
                [--autoscale-quiet-ms 1500] [--out BENCH_router.json]
  sesr router-chaos [--seed 0xF1EE7] [--requests 450] [--shards 3]
                [--concurrency 24] [--kill-per-mille 12]
                [--wedge-per-mille 12] [--respawn-fail-per-mille 500]
                [--timeout-s 120]
  sesr video-bench [--height 96] [--width 96] [--tile 24] [--frames 24]
                [--scale 2] [--expanded 16] [--seed 7] [--overload 2]
                [--ladder m3,m5,m7,m11] [--out BENCH_video.json]
  sesr bench-gate --baseline <BENCH_x.json> --fresh <BENCH_x.json>
                [--max-regress 0.25]

Crash safety: with --ckpt, training state is checkpointed atomically every
--ckpt-every steps; after an interruption, rerun the same command with
--resume <run.ckpt> (and identical hyper-parameters) to continue
bit-identically. --guard enables divergence detection with automatic
rollback and learning-rate backoff.

Fault tolerance: serve-chaos drives seeded fault injection (worker
panics, slow forwards, registry load failures, clock-skewed deadlines)
through the serving engine under load, then fails unless every request
got exactly one terminal outcome and the fault/restart/retry counters
reconcile. router-chaos does the same at fleet scope: whole-shard kills,
wedged-slow shards, and failed respawns against the sharded router.

Multi-tenant serving: router-bench drives a deterministic tenant mix
(interactive small-image tenants under tight deadlines plus one heavy
batch tenant) at 1 vs N shards, measuring goodput scaling from
head-of-line-blocking elimination, then an overload phase checking that
batch is shed before any interactive request is rejected, then an
elastic phase starting at the low shard count with the autoscale
controller enabled: it must scale up under pressure (warm shards via
the shared plan store), reject no interactive work, and drain back down
in the quiet tail.

Streaming video: video-bench measures temporal tile reuse on synthetic
static/pan/scene-cut sequences (frames/sec vs a full-recompute
baseline, bit-identity checked) plus the any-time ladder under a 2x
overloaded per-frame deadline (miss rate, rung histogram, PSNR vs the
top-rung composite).
";

/// Runs the CLI and returns its textual report.
///
/// # Errors
///
/// Returns [`CliError`] on bad arguments, unknown subcommands, or I/O
/// failure.
pub fn run(args: &Args) -> Result<String, CliError> {
    match args.subcommand() {
        Some("train") => train(args),
        Some("upscale") => upscale(args),
        Some("simulate") => simulate_cmd(args),
        Some("info") => info(args),
        Some("serve-bench") => serve_bench(args),
        Some("serve-chaos") => serve_chaos(args),
        Some("router-bench") => router_bench(args),
        Some("router-chaos") => router_chaos(args),
        Some("video-bench") => video_bench(args),
        Some("train-bench") => train_bench(args),
        Some("infer-bench") => infer_bench(args),
        Some("bench-gate") => bench_gate(args),
        _ => Err(CliError::Usage(USAGE.to_string())),
    }
}

fn train(args: &Args) -> Result<String, CliError> {
    let out = args.required("out")?.to_string();
    let m = args.parsed_or("m", 5usize)?;
    let f = args.parsed_or("f", 16usize)?;
    let scale = args.parsed_or("scale", 2usize)?;
    let steps = args.parsed_or("steps", 500usize)?;
    let expanded = args.parsed_or("expanded", 64usize)?;
    let batch = args.parsed_or("batch", 8usize)?;
    let lr = args.parsed_or("lr", 5e-4f32)?;
    let seed = args.parsed_or("seed", 0x5E5Eu64)?;
    let images = args.parsed_or("images", 12usize)?;
    let ckpt_every = args.parsed_or("ckpt-every", 50usize)?;
    let resume = args
        .get("resume")
        .filter(|v| !v.is_empty())
        .map(String::from);
    let ckpt = args
        .get("ckpt")
        .filter(|v| !v.is_empty())
        .map(String::from)
        .or_else(|| resume.clone());
    let grad_clip = match args.get("clip") {
        None => None,
        Some(_) => Some(args.parsed_or("clip", 1.0f32)?),
    };

    let mut config = SesrConfig {
        f,
        m,
        ..SesrConfig::m(m).with_expanded(expanded).with_seed(seed)
    }
    .with_scale(scale);
    if args.has("relu") {
        config = config.hardware_efficient();
    }
    let mut model = Sesr::new(config);
    let set = TrainSet::synthetic(images, 96, scale, seed ^ 0xDA7A);
    let trainer = Trainer::new(TrainConfig {
        steps,
        batch,
        hr_patch: 32,
        lr,
        log_every: (steps / 10).max(1),
        seed: seed ^ 0x57E9,
        grad_clip,
        guard: args.has("guard").then(DivergenceGuard::default),
        ..TrainConfig::default()
    });
    let report = match &ckpt {
        Some(path) => trainer.try_train_checkpointed(
            &mut model,
            &set,
            Path::new(path),
            ckpt_every,
            resume.is_some(),
        )?,
        None => trainer.try_train(&mut model, &set)?,
    };
    let collapsed = model.collapse();
    save_model(&collapsed, Path::new(&out))?;
    let mut summary = format!(
        "trained {} for {steps} steps (final L1 loss {:.4});\ncollapsed to {} layers / {} weight params;\nsaved to {out}",
        config.name(),
        report.final_loss,
        collapsed.layers().len(),
        collapsed.num_weight_params()
    );
    if let Some(step) = report.resumed_at {
        summary.push_str(&format!("\nresumed from checkpoint at step {step}"));
    }
    if !report.recoveries.is_empty() {
        summary.push_str(&format!(
            "\nrecovered from {} divergence event(s)",
            report.recoveries.len()
        ));
    }
    if let Some(path) = &ckpt {
        summary.push_str(&format!("\ncheckpoint: {path}"));
    }
    Ok(summary)
}

/// LR pixel count above which `upscale` switches to the tiled path on its
/// own: beyond this, the whole-image im2col buffer for the 5x5 stages gets
/// large enough (~25x the image) to dominate memory.
const AUTO_TILE_PIXELS: usize = 256 * 256;

/// Tile side used when auto-tiling kicks in.
const AUTO_TILE_SIDE: usize = 128;

fn upscale(args: &Args) -> Result<String, CliError> {
    let model_path = args.required("model")?.to_string();
    let input = args.required("in")?.to_string();
    let output = args.required("out")?.to_string();
    let model = load_model(Path::new(&model_path))?;
    let lr = pgm::read(Path::new(&input))?;
    // Explicit --tile N tiles at that size; --tile 0 forces whole-image;
    // no flag picks automatically so large inputs never allocate a
    // full-image im2col buffer.
    let tile = match args.get("tile") {
        Some(_) => args.parsed_or("tile", 0usize)?,
        None if lr.shape()[1] * lr.shape()[2] > AUTO_TILE_PIXELS => AUTO_TILE_SIDE,
        None => 0,
    };
    let (sr, how) = if tile > 0 {
        let radius = model.receptive_field_radius();
        (
            model.run_tiled(&lr, tile, radius)?,
            format!("tiled {tile}px"),
        )
    } else {
        (model.run(&lr), "whole-image".to_string())
    };
    pgm::write(&sr, Path::new(&output))?;
    Ok(format!(
        "upscaled {}x{} -> {}x{} (x{}, {how}), wrote {output}",
        lr.shape()[1],
        lr.shape()[2],
        sr.shape()[1],
        sr.shape()[2],
        model.scale()
    ))
}

fn model_dims(model: &CollapsedSesr) -> (usize, usize) {
    // (f, m): middle layers have f output channels.
    let f = model.layers()[0].weight.shape()[0];
    let m = model.layers().len() - 2;
    (f, m)
}

fn simulate_cmd(args: &Args) -> Result<String, CliError> {
    let model_path = args.required("model")?.to_string();
    let h = args.parsed_or("height", 1080usize)?;
    let w = args.parsed_or("width", 1920usize)?;
    let tops = args.parsed_or("tops", 4.0f64)?;
    let model = load_model(Path::new(&model_path))?;
    let (f, m) = model_dims(&model);
    let mut cfg = EthosN78Like::default().0;
    cfg.peak_tops = tops;
    let ir = sesr_ir(f, m, model.scale(), model.has_input_residual(), h, w);
    let report = simulate(&ir, &cfg);
    let mut out = format!(
        "{} on a {tops}-TOP/s NPU, {h}x{w} input (x{}):\n  {:.2} GMACs, {:.1} MB DRAM, {:.2} ms -> {:.1} FPS ({:.0}% memory-bound)\n",
        ir.name,
        model.scale(),
        report.total_macs() as f64 / 1e9,
        report.dram_mb(),
        report.total_ms(),
        report.fps(),
        report.memory_bound_fraction() * 100.0
    );
    for l in &report.layers {
        out.push_str(&format!(
            "  {:<24} {:>7.3} ms {}\n",
            l.label,
            l.time_ms,
            if l.is_memory_bound() {
                "[mem]"
            } else {
                "[mac]"
            }
        ));
    }
    Ok(out)
}

fn info(args: &Args) -> Result<String, CliError> {
    let model_path = args.required("model")?.to_string();
    let model = load_model(Path::new(&model_path))?;
    let (f, m) = model_dims(&model);
    let mut out = format!(
        "SESR collapsed model: x{} SISR, {} layers (f = {f}, m = {m}), {} weight params ({} total)\nresiduals: feature={}, input={}\n",
        model.scale(),
        model.layers().len(),
        model.num_weight_params(),
        model.num_params(),
        model.has_feature_residual(),
        model.has_input_residual()
    );
    for (i, layer) in model.layers().iter().enumerate() {
        let s = layer.weight.shape();
        out.push_str(&format!(
            "  layer {i}: conv {}->{} {}x{} {}\n",
            s[1],
            s[0],
            s[2],
            s[3],
            match &layer.act {
                None => "(linear)",
                Some(sesr_core::collapsed::Act::Relu) => "+ ReLU",
                Some(sesr_core::collapsed::Act::PRelu(_)) => "+ PReLU",
            }
        ));
    }
    Ok(out)
}

fn serve_bench(args: &Args) -> Result<String, CliError> {
    use sesr_serve::engine::EngineConfig;
    use sesr_serve::loadgen::{LoadMode, LoadSpec};
    use sesr_serve::BenchConfig;

    let queue_cap = args.parsed_or("queue-cap", 64usize)?;
    let mode = match args.get("mode").unwrap_or("closed") {
        "closed" => LoadMode::Closed {
            concurrency: args.parsed_or("concurrency", 4usize)?,
        },
        "open" => LoadMode::Open {
            rate_hz: args.parsed_or("rate-hz", 50.0f64)?,
        },
        other => {
            return Err(CliError::Args(ArgError::Invalid {
                key: "mode".to_string(),
                value: other.to_string(),
            }))
        }
    };
    let deadline = match args.get("deadline-ms") {
        None => None,
        Some(_) => Some(std::time::Duration::from_millis(
            args.parsed_or("deadline-ms", 50u64)?,
        )),
    };
    let intra_op_threads = match args.get("intra-threads") {
        None => None,
        Some(_) => Some(args.parsed_or("intra-threads", 1usize)?),
    };
    let cfg = BenchConfig {
        arch: args.get("arch").unwrap_or("m5").to_string(),
        scale: args.parsed_or("scale", 2usize)?,
        expanded: args.parsed_or("expanded", 32usize)?,
        seed: args.parsed_or("seed", 0u64)?,
        engine: EngineConfig {
            workers: args.parsed_or("workers", 2usize)?,
            queue_capacity: queue_cap,
            max_batch: args.parsed_or("max-batch", 8usize)?,
            ..EngineConfig::default()
        },
        load: LoadSpec {
            requests: args.parsed_or("requests", 64usize)?,
            mode,
            height: args.parsed_or("height", 64usize)?,
            width: args.parsed_or("width", 64usize)?,
            seed: args.parsed_or("load-seed", 0u64)?,
            deadline,
            // The default burst oversubscribes the queue against a paused
            // engine, so every report demonstrates the rejection path.
            burst: args.parsed_or("burst", queue_cap + 16)?,
        },
        intra_op_threads,
        model_dir: None,
    };
    let out_path = args.get("out").unwrap_or("BENCH_serve.json").to_string();

    let outcome =
        sesr_serve::run_bench(&cfg).map_err(|e| CliError::Io(std::io::Error::other(e)))?;
    let json = sesr_serve::bench_report_json(&cfg, &outcome);
    sesr_serve::json::validate(&json)
        .map_err(|e| CliError::Io(std::io::Error::other(format!("malformed report: {e}"))))?;
    std::fs::write(Path::new(&out_path), &json)?;

    let r = &outcome.report;
    let mut summary = format!(
        "serve-bench {}x{}: {} requests ({} completed, {} rejected, {} expired)\n  throughput {:.1} req/s, {:.2} MP/s output; burst: {}/{} rejected\n",
        cfg.arch,
        cfg.scale,
        r.submitted,
        r.completed,
        r.rejected,
        r.deadline_expired,
        r.throughput_rps,
        r.output_megapixels_per_s,
        r.burst_rejected,
        r.burst_rejected + r.burst_admitted,
    );
    for (name, s) in &outcome.snapshot.stages {
        if s.count > 0 {
            summary.push_str(&format!(
                "  {name:<15} p50 {:>8.3} ms  p95 {:>8.3} ms  p99 {:>8.3} ms  (n={})\n",
                s.p50_ms, s.p95_ms, s.p99_ms, s.count
            ));
        }
    }
    summary.push_str(&format!("wrote {out_path}"));
    Ok(summary)
}

/// The chaos soak: drive seeded fault injection through the serving
/// engine under closed-loop load, then reconcile the client's view of
/// outcomes against the engine's fault/restart/retry ledger. Returns an
/// error (failing the CI step) if any request is lost, any counter
/// disagrees, or the drain misses its deadline.
fn serve_chaos(args: &Args) -> Result<String, CliError> {
    use sesr_serve::chaos::ChaosConfig;
    use sesr_serve::engine::{Engine, EngineConfig, ServeError, Ticket};
    use sesr_serve::registry::{ModelKey, ModelRegistry};
    use std::collections::VecDeque;
    use std::sync::Arc;
    use std::time::Duration;

    let requests = args.parsed_or("requests", 400u64)?;
    let seed = parse_seed(args, "seed", 0xC4A05)?;
    let workers = args.parsed_or("workers", 3usize)?;
    let concurrency = args.parsed_or("concurrency", 12usize)?.max(1);
    let height = args.parsed_or("height", 8usize)?;
    let width = args.parsed_or("width", 8usize)?;
    let min_faults = args.parsed_or("min-faults", requests / 8)?;
    let chaos = ChaosConfig {
        seed,
        panic_per_mille: args.parsed_or("panic-per-mille", 150u32)?,
        slow_per_mille: args.parsed_or("slow-per-mille", 150u32)?,
        load_fail_per_mille: args.parsed_or("load-fail-per-mille", 200u32)?,
        skew_per_mille: args.parsed_or("skew-per-mille", 50u32)?,
        slow: Duration::from_millis(args.parsed_or("slow-ms", 1u64)?),
        // Far beyond the request deadline: a skewed clock expires its
        // whole batch deterministically.
        skew: Duration::from_secs(60),
    };

    let model = Sesr::new(SesrConfig::m(2).with_expanded(8).with_seed(seed)).collapse();
    let key = ModelKey::new("m2", 2);
    let registry = Arc::new(ModelRegistry::new(4));
    registry.insert(key.clone(), model);
    let cfg = EngineConfig {
        workers,
        queue_capacity: 256,
        max_batch: 3,
        max_retries: 3,
        restart_budget: 10_000,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(4),
        chaos: Some(chaos),
        ..EngineConfig::default()
    };
    let batch_path_only = height * width <= cfg.tile_threshold_px;
    let engine = Engine::new(cfg, registry);

    let deadline = Some(Duration::from_secs(30));
    let (mut ok, mut expired, mut load_failed, mut crashed, mut other) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut resolve = |t: Ticket| match t.wait() {
        Ok(_) => ok += 1,
        Err(ServeError::DeadlineExpired) => expired += 1,
        Err(ServeError::ModelLoad(_)) => load_failed += 1,
        Err(ServeError::WorkerCrashed(_)) => crashed += 1,
        Err(_) => other += 1,
    };
    let mut inflight: VecDeque<Ticket> = VecDeque::new();
    for i in 0..requests {
        while inflight.len() >= concurrency {
            if let Some(t) = inflight.pop_front() {
                resolve(t);
            }
        }
        let input = sesr_tensor::Tensor::rand_uniform(&[1, height, width], 0.0, 1.0, i);
        match engine.submit(&key, input, deadline) {
            Ok(t) => inflight.push_back(t),
            Err(e) => {
                return Err(CliError::Io(std::io::Error::other(format!(
                    "submission rejected under soak load: {e}"
                ))))
            }
        }
    }
    for t in inflight {
        resolve(t);
    }
    let drain = engine.shutdown(Duration::from_secs(10));
    let c = engine.telemetry().snapshot().counters;

    let outcomes = ok + expired + load_failed + crashed + other;
    let fault_sum = c.faults_panic + c.faults_slow + c.faults_load + c.faults_skew;
    let mut problems: Vec<String> = Vec::new();
    if outcomes != requests {
        problems.push(format!(
            "lost requests: {outcomes} terminal outcomes for {requests} submissions"
        ));
    }
    if other != 0 {
        problems.push(format!("{other} request(s) saw an unexpected error kind"));
    }
    if c.faults_injected != fault_sum {
        problems.push(format!(
            "faults_injected {} != per-point sum {fault_sum}",
            c.faults_injected
        ));
    }
    if c.faults_injected < min_faults {
        problems.push(format!(
            "only {} faults injected (need >= {min_faults}; raise rates or requests)",
            c.faults_injected
        ));
    }
    if c.completed != ok {
        problems.push(format!(
            "engine completed {} but client saw {ok}",
            c.completed
        ));
    }
    if c.requests_quarantined != crashed {
        problems.push(format!(
            "quarantined {} but client saw {crashed} crash errors",
            c.requests_quarantined
        ));
    }
    if batch_path_only && c.worker_restarts != c.faults_panic {
        problems.push(format!(
            "{} worker restarts for {} injected panics",
            c.worker_restarts, c.faults_panic
        ));
    }
    if c.requests_retried + c.requests_quarantined + load_failed < c.faults_panic + c.faults_load {
        problems.push(format!(
            "retries {} + quarantined {} + load failures {load_failed} do not cover panic {} + load {} faults",
            c.requests_retried, c.requests_quarantined, c.faults_panic, c.faults_load
        ));
    }
    if !drain.joined {
        problems.push("shutdown failed to join workers within its deadline".to_string());
    }
    if drain.dropped != 0 {
        problems.push(format!(
            "{} settled requests were re-dropped in drain",
            drain.dropped
        ));
    }

    let summary = format!(
        "serve-chaos seed {seed:#x}: {requests} requests ({height}x{width}), {workers} workers\n\
         \x20 outcomes: {ok} ok, {expired} expired, {load_failed} load-failed, {crashed} crashed\n\
         \x20 faults injected: {} (panic {}, slow {}, load {}, skew {})\n\
         \x20 recovery: {} worker restarts, {} retries, {} quarantined\n\
         \x20 drain: joined={} in {:.0} ms, {} dropped",
        c.faults_injected,
        c.faults_panic,
        c.faults_slow,
        c.faults_load,
        c.faults_skew,
        c.worker_restarts,
        c.requests_retried,
        c.requests_quarantined,
        drain.joined,
        drain.elapsed.as_secs_f64() * 1e3,
        drain.dropped,
    );
    if problems.is_empty() {
        Ok(format!(
            "{summary}\nchaos soak reconciled: zero lost requests"
        ))
    } else {
        Err(CliError::Io(std::io::Error::other(format!(
            "{summary}\nchaos reconciliation FAILED:\n  {}",
            problems.join("\n  ")
        ))))
    }
}

/// Parses a seed option; seeds are conventionally written in hex, so
/// both `0x…` and decimal are accepted.
fn parse_seed(args: &Args, key: &str, default: u64) -> Result<u64, CliError> {
    match args.get(key) {
        None => Ok(default),
        Some(s) => s
            .strip_prefix("0x")
            .or_else(|| s.strip_prefix("0X"))
            .map_or_else(
                || s.parse::<u64>().ok(),
                |hex| u64::from_str_radix(hex, 16).ok(),
            )
            .ok_or_else(|| {
                CliError::Args(ArgError::Invalid {
                    key: key.to_string(),
                    value: s.to_string(),
                })
            }),
    }
}

/// The multi-tenant router bench: shard-scaling goodput plus the
/// overload/shedding phase, written to `BENCH_router.json`.
fn router_bench(args: &Args) -> Result<String, CliError> {
    use sesr_serve::router_bench::{router_bench_report_json, run_router_bench, RouterBenchConfig};
    use std::time::Duration;

    let d = RouterBenchConfig::default();
    let cfg = RouterBenchConfig {
        seed: parse_seed(args, "seed", d.seed)?,
        phase: Duration::from_millis(args.parsed_or("phase-ms", d.phase.as_millis() as u64)?),
        shard_counts: (
            args.parsed_or("shards-low", d.shard_counts.0)?.max(1),
            args.parsed_or("shards-high", d.shard_counts.1)?.max(1),
        ),
        interactive_tenants: args.parsed_or("tenants", d.interactive_tenants)?.max(1),
        interactive_hz: args.parsed_or("interactive-hz", d.interactive_hz)?,
        interactive_deadline: Duration::from_millis(
            args.parsed_or("deadline-ms", d.interactive_deadline.as_millis() as u64)?,
        ),
        heavy_hz: args.parsed_or("heavy-hz", d.heavy_hz)?,
        big: (
            args.parsed_or("big-height", d.big.0)?,
            args.parsed_or("big-width", d.big.1)?,
        ),
        overload_factor: args.parsed_or("overload-factor", d.overload_factor)?,
        overload_heavy_hz: args.parsed_or("overload-heavy-hz", d.overload_heavy_hz)?,
        autoscale_hz: args.parsed_or("autoscale-hz", d.autoscale_hz)?,
        autoscale_quiet: Duration::from_millis(
            args.parsed_or("autoscale-quiet-ms", d.autoscale_quiet.as_millis() as u64)?,
        ),
        ..d
    };
    let out_path = args.get("out").unwrap_or("BENCH_router.json").to_string();

    let report = run_router_bench(&cfg).map_err(|e| CliError::Io(std::io::Error::other(e)))?;
    let json = router_bench_report_json(&cfg, &report);
    sesr_serve::json::validate(&json)
        .map_err(|e| CliError::Io(std::io::Error::other(format!("malformed report: {e}"))))?;
    std::fs::write(Path::new(&out_path), &json)?;

    let mut summary = format!(
        "router-bench seed {:#x}: goodput {:.1} rps @ {} shard(s) -> {:.1} rps @ {} shards ({:.2}x)\n",
        cfg.seed,
        report.low.rps,
        report.low.shards,
        report.high.rps,
        report.high.shards,
        report.scaling_x,
    );
    let oc = &report.overload.snapshot.counters;
    summary.push_str(&format!(
        "  overload ({}x interactive, heavy {} rps): {} completed, {} batch shed, {} degraded, {} interactive rejected\n",
        cfg.overload_factor, cfg.overload_heavy_hz, oc.completed, oc.shed_batch, oc.degraded, oc.rejected_interactive,
    ));
    for t in &report.overload.snapshot.tenants {
        summary.push_str(&format!(
            "  {:<10} {:>5} completed  p50 {:>8.2} ms  p95 {:>8.2} ms  p99 {:>8.2} ms\n",
            t.tenant, t.completed, t.p50_ms, t.p95_ms, t.p99_ms
        ));
    }
    let sc = &report.autoscale.snapshot.counters;
    summary.push_str(&format!(
        "  autoscale (start {} shard(s), bound {}): {:.1} rps, {} up / {} down, {} keys rebalanced, {} warm plan hits, {} interactive rejected\n",
        cfg.shard_counts.0,
        cfg.shard_counts.1,
        report.autoscale.rps,
        sc.scale_up_events,
        sc.scale_down_events,
        sc.keys_rebalanced,
        sc.replication_warm_hits,
        sc.rejected_interactive,
    ));
    summary.push_str(&format!("wrote {out_path}"));
    if report.problems.is_empty() {
        Ok(summary)
    } else {
        Err(CliError::Io(std::io::Error::other(format!(
            "{summary}\nrouter-bench FAILED:\n  {}",
            report.problems.join("\n  ")
        ))))
    }
}

/// The streaming-video bench: temporal tile reuse fps/speedup plus the
/// any-time deadline phase on synthetic sequences, written to
/// `BENCH_video.json`.
fn video_bench(args: &Args) -> Result<String, CliError> {
    use sesr_serve::video_bench::{run_video_bench, video_bench_report_json, VideoBenchConfig};

    let d = VideoBenchConfig::default();
    let ladder = match args.get("ladder") {
        Some(list) => list
            .split(',')
            .map(|a| a.trim().to_string())
            .filter(|a| !a.is_empty())
            .collect(),
        None => d.ladder.clone(),
    };
    let cfg = VideoBenchConfig {
        height: args.parsed_or("height", d.height)?,
        width: args.parsed_or("width", d.width)?,
        tile: args.parsed_or("tile", d.tile)?.max(1),
        frames: args.parsed_or("frames", d.frames)?.max(2),
        scale: args.parsed_or("scale", d.scale)?,
        expanded: args.parsed_or("expanded", d.expanded)?,
        seed: parse_seed(args, "seed", d.seed)?,
        overload: args.parsed_or("overload", d.overload)?,
        ladder,
    };
    let out_path = args.get("out").unwrap_or("BENCH_video.json").to_string();

    let report = run_video_bench(&cfg).map_err(|e| CliError::Io(std::io::Error::other(e)))?;
    let json = video_bench_report_json(&report);
    sesr_serve::json::validate(&json)
        .map_err(|e| CliError::Io(std::io::Error::other(format!("malformed report: {e}"))))?;
    std::fs::write(Path::new(&out_path), &json)?;

    let mut summary = format!(
        "video-bench {}x{} tile {} frames {} seed {:#x}:\n",
        cfg.height, cfg.width, cfg.tile, cfg.frames, cfg.seed
    );
    for s in &report.sequences {
        summary.push_str(&format!(
            "  {:<7} reuse {:>7.1} fps vs full {:>6.1} fps ({:.1}x), {} skipped / {} recomputed\n",
            s.name, s.reuse_fps, s.full_fps, s.speedup_x, s.tiles_skipped, s.tiles_recomputed,
        ));
        summary.push_str(&format!(
            "          anytime @ {:.2} ms: miss {:.0}%, {} degraded, rungs {:?}, {:.1} dB vs top\n",
            s.anytime.deadline_ms,
            s.anytime.miss_rate * 100.0,
            s.anytime.tiles_degraded,
            s.anytime.rungs,
            s.anytime.mean_psnr_db_vs_top,
        ));
    }
    summary.push_str(&format!("wrote {out_path}"));
    if report.problems.is_empty() {
        Ok(summary)
    } else {
        Err(CliError::Io(std::io::Error::other(format!(
            "{summary}\nvideo-bench FAILED:\n  {}",
            report.problems.join("\n  ")
        ))))
    }
}

/// The fleet-scope chaos soak: whole-shard kills, wedged-slow shards,
/// and failed respawns against the sharded router under closed-loop
/// multi-tenant load; fails unless every admitted request got exactly
/// one terminal outcome and the fleet ledger reconciles.
fn router_chaos(args: &Args) -> Result<String, CliError> {
    use sesr_serve::chaos::ShardChaosConfig;
    use std::time::Duration;

    let requests = args.parsed_or("requests", 450u64)?;
    let seed = parse_seed(args, "seed", 0xF1EE7)?;
    let shards = args.parsed_or("shards", 3usize)?.max(1);
    let concurrency = args.parsed_or("concurrency", 24usize)?.max(1);
    let timeout = Duration::from_secs(args.parsed_or("timeout-s", 120u64)?);
    let base_chaos = ShardChaosConfig {
        seed,
        kill_per_mille: args.parsed_or("kill-per-mille", 12u32)?,
        wedge_per_mille: args.parsed_or("wedge-per-mille", 12u32)?,
        respawn_fail_per_mille: args.parsed_or("respawn-fail-per-mille", 500u32)?,
        max_kills: 2,
        max_wedges: 2,
        max_respawn_fails: 2,
        // Far beyond the stall detector: the wedge must be *detected*
        // and drain-and-replaced, not sat out.
        wedge: Duration::from_secs(30),
        // Scaling-event faults stay off here: this harness runs a
        // fixed-size fleet; the autoscale soak test owns those points.
        ..ShardChaosConfig::default()
    };

    // The fault *schedule* is seeded, but whether e.g. a kill intersects
    // queued work (forcing a reroute) depends on wall-clock interleaving
    // between the load loop and the supervisor. A schedule miss — a
    // fault kind that never fired, or a kill that found an empty queue —
    // says nothing about the router, so it re-rolls with a perturbed
    // seed. Invariant violations (lost requests, ledger mismatches)
    // fail immediately on any attempt.
    const ATTEMPTS: u64 = 4;
    let mut last = String::new();
    for attempt in 0..ATTEMPTS {
        let shard_chaos = ShardChaosConfig {
            seed: seed.wrapping_add(attempt.wrapping_mul(0x9E37_79B9)),
            ..base_chaos
        };
        let shard_seed = shard_chaos.seed;
        let (summary, schedule_misses, invariants) =
            run_router_chaos_soak(requests, shards, concurrency, timeout, shard_chaos)?;
        if !invariants.is_empty() {
            return Err(CliError::Io(std::io::Error::other(format!(
                "{summary}\nfleet chaos reconciliation FAILED:\n  {}",
                invariants.join("\n  ")
            ))));
        }
        if schedule_misses.is_empty() {
            let note = if attempt == 0 {
                String::new()
            } else {
                format!(" (fault schedule re-rolled {attempt}x)")
            };
            return Ok(format!(
                "{summary}\nfleet chaos soak reconciled: zero lost requests{note}"
            ));
        }
        last = format!(
            "{summary}\nattempt {attempt} (seed {shard_seed:#x}) missed:\n  {}",
            schedule_misses.join("\n  ")
        );
    }
    Err(CliError::Io(std::io::Error::other(format!(
        "{last}\nfault schedule never hit every kind in {ATTEMPTS} attempts (raise rates or requests)"
    ))))
}

/// One soak run. Returns `(summary, schedule_misses, invariant_problems)`:
/// the former are retryable properties of the seeded fault schedule, the
/// latter are real router bugs.
#[allow(clippy::type_complexity)]
fn run_router_chaos_soak(
    requests: u64,
    shards: usize,
    concurrency: usize,
    timeout: std::time::Duration,
    shard_chaos: sesr_serve::chaos::ShardChaosConfig,
) -> Result<(String, Vec<String>, Vec<String>), CliError> {
    use sesr_serve::chaos::ChaosConfig;
    use sesr_serve::engine::EngineConfig;
    use sesr_serve::registry::{ModelKey, ModelRegistry};
    use sesr_serve::{
        Priority, Router, RouterConfig, RouterServeError, RouterSubmitError, RouterTicket,
    };
    use std::collections::VecDeque;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let seed = shard_chaos.seed;
    let model = Sesr::new(SesrConfig::m(2).with_expanded(8).with_seed(seed)).collapse();
    let key = ModelKey::new("m2", 2);
    let registry = Arc::new(ModelRegistry::new(4));
    registry.insert(key.clone(), model);
    let router = Router::new(
        RouterConfig {
            shards,
            engine: EngineConfig {
                workers: 1,
                queue_capacity: 16,
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(4),
                // Engine-level faults run concurrently with the shard
                // faults: panics exercise in-shard retry/respawn, and
                // slow-model delays keep queues non-empty so shard kills
                // intersect queued work (forcing reroutes). The seed is
                // fixed so --seed varies only the shard-fault schedule
                // against a stable slow/panic background.
                chaos: Some(ChaosConfig {
                    seed: 0xD15EA5E,
                    panic_per_mille: 15,
                    slow_per_mille: 150,
                    slow: Duration::from_millis(8),
                    load_fail_per_mille: 0,
                    skew_per_mille: 0,
                    ..ChaosConfig::default()
                }),
                ..EngineConfig::default()
            },
            shard_queue_capacity: 64,
            probe_interval: Duration::from_millis(2),
            stall_ticks: 100,
            respawn_budget: 32,
            reroute_budget: 8,
            respawn_backoff: Duration::from_millis(2),
            respawn_backoff_cap: Duration::from_millis(10),
            shard_chaos: Some(shard_chaos),
            ..RouterConfig::default()
        },
        registry,
    );

    let mut in_flight: VecDeque<RouterTicket> = VecDeque::new();
    let (mut ok, mut failed) = (0u64, 0u64);
    let resolve = |t: RouterTicket, ok: &mut u64, failed: &mut u64| match t.wait() {
        Ok(_) => *ok += 1,
        Err(
            RouterServeError::DeadlineExpired
            | RouterServeError::WorkerCrashed(_)
            | RouterServeError::ModelLoad(_)
            | RouterServeError::ShardLost(_)
            | RouterServeError::ShuttingDown,
        ) => *failed += 1,
    };
    let mut admitted = 0u64;
    let mut i = 0u64;
    let start = Instant::now();
    while admitted < requests {
        if start.elapsed() >= timeout {
            let snap = router.telemetry();
            return Err(CliError::Io(std::io::Error::other(format!(
                "router-chaos wedged: {admitted}/{requests} admitted after {}s\ncounters: {:?}",
                timeout.as_secs(),
                snap.counters
            ))));
        }
        i += 1;
        let tenant = format!("tenant-{}", i % 6);
        let class = if i.is_multiple_of(4) {
            Priority::Batch
        } else {
            Priority::Interactive
        };
        let input = sesr_tensor::Tensor::rand_uniform(&[1, 10, 10], 0.0, 1.0, i);
        match router.submit(&tenant, class, &key, input, Some(Duration::from_secs(20))) {
            Ok(t) => {
                admitted += 1;
                in_flight.push_back(t);
                if in_flight.len() >= concurrency {
                    if let Some(t) = in_flight.pop_front() {
                        resolve(t, &mut ok, &mut failed);
                    }
                }
            }
            Err(
                RouterSubmitError::ShedBatch
                | RouterSubmitError::Overloaded
                | RouterSubmitError::Throttled { .. }
                | RouterSubmitError::NoHealthyShard,
            ) => std::thread::sleep(Duration::from_millis(2)),
            Err(e) => {
                return Err(CliError::Io(std::io::Error::other(format!(
                    "unexpected rejection under chaos: {e}"
                ))))
            }
        }
    }
    while let Some(t) = in_flight.pop_front() {
        resolve(t, &mut ok, &mut failed);
    }
    let snap = router.telemetry();
    let c = snap.counters;
    let mut invariants = snap.reconcile();
    let mut schedule_misses = Vec::new();
    for (fired, what) in [
        (c.shard_kills >= 1, "no whole-shard kill fired"),
        (c.shard_wedges >= 1, "no shard wedge fired"),
        (c.respawn_failures >= 1, "no respawn failure fired"),
        (c.shard_respawns >= 1, "no shard respawned"),
        (c.wedges_detected >= 1, "stall probe never detected a wedge"),
        (c.rerouted >= 1, "no request was rerouted"),
        (
            c.breaker_opens >= 1 && c.breaker_half_opens >= 1,
            "circuit breaker never cycled open -> half-open",
        ),
    ] {
        if !fired {
            schedule_misses.push(what.to_string());
        }
    }
    if ok + failed != admitted {
        invariants.push(format!(
            "lost requests: client saw {ok}+{failed} outcomes for {admitted} admissions"
        ));
    }
    if c.admitted() != admitted {
        invariants.push(format!(
            "router admitted {} != client {admitted}",
            c.admitted()
        ));
    }
    if c.completed != ok {
        invariants.push(format!(
            "router completed {} != client ok {ok}",
            c.completed
        ));
    }
    if ok <= admitted / 2 {
        invariants.push(format!("chaos failed the majority: ok={ok} of {admitted}"));
    }
    let report = router.shutdown(Duration::from_secs(10));
    if !report.joined {
        invariants.push("shutdown failed to join within its deadline".to_string());
    }
    for p in router.telemetry().reconcile() {
        invariants.push(format!("post-shutdown: {p}"));
    }

    let summary = format!(
        "router-chaos seed {seed:#x}: {requests} requests, {shards} shards\n\
         \x20 outcomes: {ok} ok, {failed} failed; rerouted {}, requeued {}\n\
         \x20 shard faults: {} kills, {} wedges ({} detected), {} respawn failures, {} respawns\n\
         \x20 breaker: {} opens, {} half-opens, {} closes\n\
         \x20 drain: joined={} in {:.0} ms",
        c.rerouted,
        c.requeued_backpressure,
        c.shard_kills,
        c.shard_wedges,
        c.wedges_detected,
        c.respawn_failures,
        c.shard_respawns,
        c.breaker_opens,
        c.breaker_half_opens,
        c.breaker_closes,
        report.joined,
        report.elapsed.as_secs_f64() * 1e3,
    );
    Ok((summary, schedule_misses, invariants))
}

fn train_bench(args: &Args) -> Result<String, CliError> {
    use sesr_bench::TrainBenchConfig;

    let threads = match args.get("threads") {
        None => None,
        Some(_) => Some(args.parsed_or("threads", 4usize)?),
    };
    let cfg = TrainBenchConfig {
        archs: args
            .get("archs")
            .unwrap_or("m5,m11")
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect(),
        scale: args.parsed_or("scale", 2usize)?,
        expanded: args.parsed_or("expanded", 16usize)?,
        seed: args.parsed_or("seed", 0u64)?,
        steps: args.parsed_or("steps", 10usize)?,
        warmup: args.parsed_or("warmup", 2usize)?,
        batch: args.parsed_or("batch", 8usize)?,
        hr_patch: args.parsed_or("hr-patch", 32usize)?,
        threads,
    };
    let out_path = args.get("out").unwrap_or("BENCH_train.json").to_string();

    let results =
        sesr_bench::run_train_bench(&cfg).map_err(|e| CliError::Io(std::io::Error::other(e)))?;
    let json = sesr_bench::train_bench_report_json(&cfg, &results);
    sesr_serve::json::validate(&json)
        .map_err(|e| CliError::Io(std::io::Error::other(format!("malformed report: {e}"))))?;
    std::fs::write(Path::new(&out_path), &json)?;

    let mut summary = String::new();
    for r in &results {
        summary.push_str(&format!(
            "train-bench {}x{} (expanded {}): {:.3} steps/s over {} steps ({:.0} ms)\n  phases: sample {:.0} ms, forward {:.0} ms, backward {:.0} ms, update {:.0} ms\n",
            r.arch,
            cfg.scale,
            cfg.expanded,
            r.steps_per_sec,
            r.steps,
            r.wall_ms,
            r.phases.sample,
            r.phases.forward,
            r.phases.backward,
            r.phases.update,
        ));
        let mut ops: Vec<_> = r.profile.entries().collect();
        ops.sort_by_key(|e| std::cmp::Reverse(e.1.nanos));
        for (name, stat) in ops.iter().take(5) {
            summary.push_str(&format!(
                "  {name:<22} {:>8.1} ms  ({} calls)\n",
                stat.nanos as f64 / 1e6,
                stat.calls
            ));
        }
    }
    summary.push_str(&format!("wrote {out_path}"));
    Ok(summary)
}

fn infer_bench(args: &Args) -> Result<String, CliError> {
    use sesr_bench::InferBenchConfig;

    let threads = match args.get("threads") {
        None => None,
        Some(_) => Some(args.parsed_or("threads", 4usize)?),
    };
    let cfg = InferBenchConfig {
        archs: args
            .get("archs")
            .unwrap_or("m5,m11")
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect(),
        scale: args.parsed_or("scale", 2usize)?,
        expanded: args.parsed_or("expanded", 16usize)?,
        seed: args.parsed_or("seed", 0u64)?,
        iters: args.parsed_or("iters", 30usize)?,
        warmup: args.parsed_or("warmup", 5usize)?,
        h: args.parsed_or("height", 180usize)?,
        w: args.parsed_or("width", 320usize)?,
        threads,
        variant: args.get("variant").map(str::to_string),
        int8: args.get("int8").map(|v| v != "off").unwrap_or(true),
        psnr_budget: args.parsed_or("psnr-budget", 1.0f64)?,
    };
    let out_path = args.get("out").unwrap_or("BENCH_infer.json").to_string();

    let results =
        sesr_bench::run_infer_bench(&cfg).map_err(|e| CliError::Io(std::io::Error::other(e)))?;
    let json = sesr_bench::infer_bench_report_json(&cfg, &results);
    sesr_serve::json::validate(&json)
        .map_err(|e| CliError::Io(std::io::Error::other(format!("malformed report: {e}"))))?;
    std::fs::write(Path::new(&out_path), &json)?;

    let mut summary = String::new();
    for r in &results {
        summary.push_str(&format!(
            "infer-bench {}x{} {}x{}: planned {:.2} img/s vs reference {:.2} img/s ({:.2}x), arena {} KiB, variant {}
",
            r.arch,
            cfg.scale,
            cfg.h,
            cfg.w,
            r.planned_images_per_sec,
            r.reference_images_per_sec,
            r.speedup,
            r.arena_bytes / 1024,
            r.variant,
        ));
        if let Some(q) = &r.int8 {
            summary.push_str(&format!(
                "  int8 {:.2} img/s ({:.2}x vs planned), dPSNR {:+.3} dB (budget {:.2}), arena {} KiB, int8 body {}
",
                q.int8_images_per_sec,
                q.speedup_vs_planned,
                q.delta_psnr_db,
                cfg.psnr_budget,
                q.arena_bytes / 1024,
                q.body,
            ));
        }
        for (i, ms) in r.layer_ms.iter().enumerate() {
            let int8 = r.int8.as_ref().map_or(String::new(), |q| {
                format!(", int8 {:.3} ms/run", q.layer_ms[i] / r.iters as f64)
            });
            summary.push_str(&format!(
                "  layer {i:<2} {:>8.2} ms total ({:.3} ms/run{int8})
",
                ms,
                ms / r.iters as f64
            ));
        }
    }
    summary.push_str(&format!("wrote {out_path}"));
    Ok(summary)
}

/// Keys the bench gate knows how to compare, per report kind
/// (identified by the top-level `"bench"` tag).
fn gate_metric_paths(kind: &str) -> Result<Vec<&'static [&'static str]>, CliError> {
    match kind {
        "sesr-serve" => Ok(vec![&["results", "throughput_rps"]]),
        "sesr-router" => Ok(vec![
            &["results", "shards_4", "rps"],
            &["results", "scaling_x"],
            &["results", "autoscale", "rps"],
        ]),
        // Only the absolute fps numbers are gated. speedup_x is a ratio
        // of two measurements whose denominator (static full_fps, a
        // short run) wobbles run to run — the bench's own `problems`
        // check enforces the absolute 5x floor instead. PSNR-vs-top is
        // not gated either: with seeded (untrained) ladder weights it
        // can sit below zero, where the multiplicative regression floor
        // inverts; the miss-rate `problems` check covers the any-time
        // contract.
        "sesr-video" => Ok(vec![
            &["results", "static", "reuse_fps"],
            &["results", "pan", "reuse_fps"],
            &["results", "cut", "reuse_fps"],
        ]),
        "sesr-train" | "sesr-infer" => Ok(vec![]), // resolved per-arch below
        other => Err(CliError::Io(std::io::Error::other(format!(
            "unknown bench kind {other:?} (expected sesr-serve|sesr-router|sesr-video|sesr-train|sesr-infer)"
        )))),
    }
}

/// Throughput metric name for report kinds whose `results` object is
/// keyed by architecture label.
fn per_arch_metric(kind: &str) -> Option<&'static str> {
    match kind {
        "sesr-train" => Some("steps_per_sec"),
        "sesr-infer" => Some("planned_images_per_sec"),
        _ => None,
    }
}

fn bench_gate(args: &Args) -> Result<String, CliError> {
    use sesr_serve::json::JsonValue;

    let baseline_path = args.required("baseline")?.to_string();
    let fresh_path = args.required("fresh")?.to_string();
    let max_regress = args.parsed_or("max-regress", 0.25f64)?;

    let load = |path: &str| -> Result<JsonValue, CliError> {
        let text = std::fs::read_to_string(Path::new(path))?;
        JsonValue::parse(&text)
            .map_err(|e| CliError::Io(std::io::Error::other(format!("{path}: {e}"))))
    };
    let baseline = load(&baseline_path)?;
    let fresh = load(&fresh_path)?;

    let kind = baseline
        .get(&["bench"])
        .and_then(JsonValue::as_str)
        .ok_or_else(|| CliError::Io(std::io::Error::other("baseline missing \"bench\" tag")))?
        .to_string();
    if fresh.get(&["bench"]).and_then(JsonValue::as_str) != Some(&kind) {
        return Err(CliError::Io(std::io::Error::other(
            "baseline and fresh reports are different bench kinds",
        )));
    }

    // Train/infer reports key their throughput metric under
    // results.<arch>.<metric>; compare every arch in the baseline.
    let mut metrics: Vec<(String, f64, f64)> = Vec::new();
    if let Some(metric) = per_arch_metric(&kind) {
        let archs = baseline
            .get(&["results"])
            .and_then(JsonValue::as_object_keys)
            .ok_or_else(|| CliError::Io(std::io::Error::other("baseline missing results")))?;
        for arch in archs {
            let path = ["results", arch.as_str(), metric];
            let b = baseline.get(&path).and_then(JsonValue::as_f64);
            let f = fresh.get(&path).and_then(JsonValue::as_f64);
            match (b, f) {
                (Some(b), Some(f)) => metrics.push((format!("{arch}.{metric}"), b, f)),
                _ => {
                    return Err(CliError::Io(std::io::Error::other(format!(
                        "missing results.{arch}.{metric} in baseline or fresh report"
                    ))))
                }
            }
            // Infer reports also carry an int8 lane when the baseline ran
            // with int8 enabled; once gated, a fresh report may not
            // silently drop it (e.g. by benching with --int8 off).
            if kind == "sesr-infer" {
                let path = ["results", arch.as_str(), "int8_images_per_sec"];
                let b = baseline.get(&path).and_then(JsonValue::as_f64);
                let f = fresh.get(&path).and_then(JsonValue::as_f64);
                match (b, f) {
                    (Some(b), Some(f)) => {
                        metrics.push((format!("{arch}.int8_images_per_sec"), b, f))
                    }
                    (None, _) => {} // baseline predates the int8 lane
                    (Some(_), None) => {
                        return Err(CliError::Io(std::io::Error::other(format!(
                            "baseline gates results.{arch}.int8_images_per_sec but the fresh report has no int8 lane"
                        ))))
                    }
                }
            }
        }
    } else {
        for path in gate_metric_paths(&kind)? {
            let b = baseline.get(path).and_then(JsonValue::as_f64);
            let f = fresh.get(path).and_then(JsonValue::as_f64);
            let label = path.join(".");
            match (b, f) {
                (Some(b), Some(f)) => metrics.push((label, b, f)),
                _ => {
                    return Err(CliError::Io(std::io::Error::other(format!(
                        "missing {label} in baseline or fresh report"
                    ))))
                }
            }
        }
    }
    if metrics.is_empty() {
        return Err(CliError::Io(std::io::Error::other(
            "no comparable metrics found",
        )));
    }

    let mut summary = format!(
        "bench-gate {kind} (max regression {:.0}%)\n",
        max_regress * 100.0
    );
    let mut failed = Vec::new();
    for (label, base, fresh) in &metrics {
        let floor = base * (1.0 - max_regress);
        let verdict = if *fresh >= floor { "ok" } else { "REGRESSED" };
        summary.push_str(&format!(
            "  {label:<24} baseline {base:>10.3}  fresh {fresh:>10.3}  floor {floor:>10.3}  {verdict}\n"
        ));
        if *fresh < floor {
            failed.push(label.clone());
        }
    }
    if !failed.is_empty() {
        return Err(CliError::Io(std::io::Error::other(format!(
            "{summary}throughput regressed beyond {:.0}%: {}",
            max_regress * 100.0,
            failed.join(", ")
        ))));
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesr_tensor::Tensor;

    fn args(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from))
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("sesr_cli_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn full_train_upscale_info_simulate_pipeline() {
        let model_path = tmp("pipeline.sesr");
        let report = run(&args(&format!(
            "train --out {} --m 1 --steps 2 --expanded 4 --batch 2 --images 2",
            model_path.display()
        )))
        .unwrap();
        assert!(report.contains("saved to"));

        // Write a tiny input image.
        let img_path = tmp("in.pgm");
        let img = Tensor::rand_uniform(&[1, 16, 16], 0.0, 1.0, 1);
        pgm::write(&img, &img_path).unwrap();
        let out_path = tmp("out.pgm");
        let report = run(&args(&format!(
            "upscale --model {} --in {} --out {}",
            model_path.display(),
            img_path.display(),
            out_path.display()
        )))
        .unwrap();
        assert!(report.contains("16x16 -> 32x32"));
        let sr = pgm::read(&out_path).unwrap();
        assert_eq!(sr.shape(), &[1, 32, 32]);

        let report = run(&args(&format!("info --model {}", model_path.display()))).unwrap();
        assert!(report.contains("x2 SISR"));
        assert!(report.contains("layer 0"));

        let report = run(&args(&format!(
            "simulate --model {} --height 270 --width 480",
            model_path.display()
        )))
        .unwrap();
        assert!(report.contains("FPS"));
    }

    #[test]
    fn tiled_upscale_matches_whole() {
        let model_path = tmp("tiled.sesr");
        run(&args(&format!(
            "train --out {} --m 1 --steps 1 --expanded 4 --batch 2 --images 2",
            model_path.display()
        )))
        .unwrap();
        let img_path = tmp("tin.pgm");
        pgm::write(&Tensor::rand_uniform(&[1, 24, 24], 0.0, 1.0, 2), &img_path).unwrap();
        let whole_path = tmp("whole.pgm");
        let tiled_path = tmp("tiled.pgm");
        run(&args(&format!(
            "upscale --model {} --in {} --out {}",
            model_path.display(),
            img_path.display(),
            whole_path.display()
        )))
        .unwrap();
        run(&args(&format!(
            "upscale --model {} --in {} --out {} --tile 12",
            model_path.display(),
            img_path.display(),
            tiled_path.display()
        )))
        .unwrap();
        let whole = pgm::read(&whole_path).unwrap();
        let tiled = pgm::read(&tiled_path).unwrap();
        // 8-bit quantization allows at most one level of difference.
        assert!(whole.max_abs_diff(&tiled) <= 1.5 / 255.0);
    }

    #[test]
    fn checkpointed_train_writes_and_resumes() {
        let model_path = tmp("ckpt_train.sesr");
        let ckpt_path = tmp("ckpt_train.ckpt");
        std::fs::remove_file(&ckpt_path).ok();
        let flags =
            "--m 1 --steps 4 --expanded 4 --batch 2 --images 2 --ckpt-every 2 --guard --clip 5";
        let report = run(&args(&format!(
            "train --out {} --ckpt {} {flags}",
            model_path.display(),
            ckpt_path.display()
        )))
        .unwrap();
        assert!(report.contains("checkpoint:"));
        assert!(ckpt_path.exists());
        // Resuming the completed run is a no-op that reports its origin.
        let report = run(&args(&format!(
            "train --out {} --resume {} {flags}",
            model_path.display(),
            ckpt_path.display()
        )))
        .unwrap();
        assert!(report.contains("resumed from checkpoint at step 4"));
    }

    #[test]
    fn resume_with_different_config_is_rejected() {
        let model_path = tmp("mismatch.sesr");
        let ckpt_path = tmp("mismatch.ckpt");
        std::fs::remove_file(&ckpt_path).ok();
        run(&args(&format!(
            "train --out {} --ckpt {} --m 1 --steps 2 --expanded 4 --batch 2 --images 2",
            model_path.display(),
            ckpt_path.display()
        )))
        .unwrap();
        let err = run(&args(&format!(
            "train --out {} --resume {} --m 1 --steps 9 --expanded 4 --batch 2 --images 2",
            model_path.display(),
            ckpt_path.display()
        )))
        .unwrap_err();
        assert!(matches!(err, CliError::Train(_)), "{err:?}");
        assert!(err.to_string().contains("different run"));
    }

    #[test]
    fn resume_from_corrupt_checkpoint_is_a_typed_error() {
        let model_path = tmp("corrupt.sesr");
        let ckpt_path = tmp("corrupt.ckpt");
        std::fs::remove_file(&ckpt_path).ok();
        run(&args(&format!(
            "train --out {} --ckpt {} --m 1 --steps 2 --expanded 4 --batch 2 --images 2",
            model_path.display(),
            ckpt_path.display()
        )))
        .unwrap();
        let mut bytes = std::fs::read(&ckpt_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&ckpt_path, &bytes).unwrap();
        let err = run(&args(&format!(
            "train --out {} --resume {} --m 1 --steps 2 --expanded 4 --batch 2 --images 2",
            model_path.display(),
            ckpt_path.display()
        )))
        .unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn serve_bench_writes_valid_report_with_rejections() {
        let out_path = tmp("bench_serve_test.json");
        std::fs::remove_file(&out_path).ok();
        let report = run(&args(&format!(
            "serve-bench --arch m3 --expanded 8 --workers 1 --queue-cap 4 \
             --requests 6 --height 16 --width 16 --concurrency 2 --burst 8 \
             --out {}",
            out_path.display()
        )))
        .unwrap();
        assert!(report.contains("serve-bench m3x2"));
        assert!(report.contains("p50"));
        let json = std::fs::read_to_string(&out_path).unwrap();
        sesr_serve::json::validate(&json).unwrap();
        assert!(json.contains("\"throughput_rps\""));
        assert!(json.contains("\"burst_rejected\":4"), "{json}");
    }

    #[test]
    fn serve_chaos_soak_reconciles_with_zero_lost_requests() {
        let report = run(&args(
            "serve-chaos --requests 160 --seed 7 --workers 2 --concurrency 8",
        ))
        .unwrap();
        assert!(report.contains("chaos soak reconciled"), "{report}");
        assert!(report.contains("faults injected"), "{report}");
        assert!(report.contains("0 dropped"), "{report}");
    }

    #[test]
    fn serve_chaos_with_zero_rates_injects_nothing_and_still_reconciles() {
        let report = run(&args(
            "serve-chaos --requests 40 --workers 2 --panic-per-mille 0 \
             --slow-per-mille 0 --load-fail-per-mille 0 --skew-per-mille 0 \
             --min-faults 0",
        ))
        .unwrap();
        assert!(report.contains("faults injected: 0"), "{report}");
        assert!(report.contains("40 ok"), "{report}");
    }

    #[test]
    fn serve_bench_rejects_unknown_arch_and_mode() {
        let err = run(&args("serve-bench --arch nope")).unwrap_err();
        assert!(err.to_string().contains("unknown arch"));
        let err = run(&args("serve-bench --mode sideways")).unwrap_err();
        assert!(matches!(err, CliError::Args(_)));
    }

    #[test]
    fn train_bench_writes_valid_report() {
        let out_path = tmp("bench_train_test.json");
        std::fs::remove_file(&out_path).ok();
        let report = run(&args(&format!(
            "train-bench --archs m5 --expanded 4 --steps 2 --warmup 1 \
             --batch 2 --hr-patch 16 --threads 1 --out {}",
            out_path.display()
        )))
        .unwrap();
        assert!(report.contains("train-bench m5x2"));
        assert!(report.contains("steps/s"));
        assert!(report.contains("backward"));
        let json = std::fs::read_to_string(&out_path).unwrap();
        sesr_serve::json::validate(&json).unwrap();
        assert!(json.contains("\"steps_per_sec\""));
        assert!(json.contains("\"conv2d.bwd\""));
    }

    #[test]
    fn infer_bench_writes_valid_report() {
        // infer-bench pins the process-global kernel variant around its
        // bit-identity gate; keep other bitwise tests out of that window.
        let _guard = sesr_tensor::simd::variant_test_lock();
        let out_path = tmp("bench_infer_test.json");
        std::fs::remove_file(&out_path).ok();
        let report = run(&args(&format!(
            "infer-bench --archs m3 --expanded 4 --iters 2 --warmup 1 \
             --height 16 --width 20 --threads 1 --out {}",
            out_path.display()
        )))
        .unwrap();
        assert!(report.contains("infer-bench m3x2"));
        assert!(report.contains("img/s"));
        assert!(report.contains("arena"));
        assert!(report.contains("variant"));
        let json = std::fs::read_to_string(&out_path).unwrap();
        sesr_serve::json::validate(&json).unwrap();
        assert!(json.contains("\"bench\":\"sesr-infer\""));
        assert!(json.contains("\"planned_images_per_sec\""));
        assert!(json.contains("\"layer_ms\""));
        assert!(json.contains("\"variant\""));
        // The int8 lane runs by default and shows up in both outputs.
        assert!(report.contains("int8"));
        assert!(report.contains("dPSNR"));
        assert!(json.contains("\"int8_images_per_sec\""));
        assert!(json.contains("\"int8_delta_psnr_db\""));
        assert!(report.contains("int8 body"));
        assert!(report.contains(", int8 ") && report.contains("ms/run"));
        assert!(json.contains("\"int8_layer_ms\""));
        assert!(json.contains("\"int8_body\""));

        // --int8 off drops the lane from report and summary.
        let report = run(&args(&format!(
            "infer-bench --archs m3 --expanded 4 --iters 1 --warmup 0 \
             --height 16 --width 20 --threads 1 --int8 off --out {}",
            out_path.display()
        )))
        .unwrap();
        assert!(!report.contains("dPSNR"));
        let json = std::fs::read_to_string(&out_path).unwrap();
        assert!(!json.contains("\"int8_images_per_sec\""));

        // An explicit pin round-trips into the report.
        let report = run(&args(&format!(
            "infer-bench --archs m3 --expanded 4 --iters 1 --warmup 0 \
             --height 16 --width 20 --threads 1 --variant scalar --out {}",
            out_path.display()
        )))
        .unwrap();
        assert!(report.contains("variant scalar"));
        let json = std::fs::read_to_string(&out_path).unwrap();
        assert!(json.contains("\"variant\":\"scalar\""));
        let best = *sesr_tensor::simd::detected_variants().last().unwrap();
        sesr_tensor::simd::set_kernel_variant(best);
    }

    #[test]
    fn bench_gate_handles_infer_reports_per_arch() {
        let mk = |name: &str, ips: f64| {
            let path = tmp(name);
            let results = sesr_serve::json::JsonObject::new()
                .raw(
                    "m5",
                    &sesr_serve::json::JsonObject::new()
                        .num("planned_images_per_sec", ips)
                        .finish(),
                )
                .finish();
            let doc = sesr_serve::json::JsonObject::new()
                .str("bench", "sesr-infer")
                .raw("results", &results)
                .finish();
            std::fs::write(&path, doc).unwrap();
            path
        };
        let baseline = mk("gate_infer_base.json", 100.0);
        let ok = mk("gate_infer_ok.json", 90.0);
        let bad = mk("gate_infer_bad.json", 40.0);
        let report = run(&args(&format!(
            "bench-gate --baseline {} --fresh {}",
            baseline.display(),
            ok.display()
        )))
        .unwrap();
        assert!(report.contains("m5.planned_images_per_sec"));
        let err = run(&args(&format!(
            "bench-gate --baseline {} --fresh {}",
            baseline.display(),
            bad.display()
        )))
        .unwrap_err();
        assert!(err.to_string().contains("REGRESSED"), "{err}");
    }

    #[test]
    fn bench_gate_covers_the_int8_lane_when_the_baseline_has_it() {
        let mk = |name: &str, planned: f64, int8: Option<f64>| {
            let path = tmp(name);
            let mut arch =
                sesr_serve::json::JsonObject::new().num("planned_images_per_sec", planned);
            if let Some(v) = int8 {
                arch = arch.num("int8_images_per_sec", v);
            }
            let results = sesr_serve::json::JsonObject::new()
                .raw("m5", &arch.finish())
                .finish();
            let doc = sesr_serve::json::JsonObject::new()
                .str("bench", "sesr-infer")
                .raw("results", &results)
                .finish();
            std::fs::write(&path, doc).unwrap();
            path
        };
        let baseline = mk("gate_int8_base.json", 100.0, Some(150.0));
        // Both lanes healthy.
        let ok = mk("gate_int8_ok.json", 95.0, Some(140.0));
        let report = run(&args(&format!(
            "bench-gate --baseline {} --fresh {}",
            baseline.display(),
            ok.display()
        )))
        .unwrap();
        assert!(report.contains("m5.int8_images_per_sec"));
        // int8 lane regressed while f32 held: the gate still fails.
        let bad = mk("gate_int8_bad.json", 100.0, Some(60.0));
        let err = run(&args(&format!(
            "bench-gate --baseline {} --fresh {}",
            baseline.display(),
            bad.display()
        )))
        .unwrap_err();
        assert!(err.to_string().contains("int8_images_per_sec"), "{err}");
        // Fresh report silently dropped the lane: also an error.
        let dropped = mk("gate_int8_dropped.json", 100.0, None);
        let err = run(&args(&format!(
            "bench-gate --baseline {} --fresh {}",
            baseline.display(),
            dropped.display()
        )))
        .unwrap_err();
        assert!(err.to_string().contains("no int8 lane"), "{err}");
    }

    #[test]
    fn bench_gate_passes_and_fails_on_regression() {
        let mk = |name: &str, sps: f64| {
            let path = tmp(name);
            let results = sesr_serve::json::JsonObject::new()
                .raw(
                    "m5",
                    &sesr_serve::json::JsonObject::new()
                        .num("steps_per_sec", sps)
                        .finish(),
                )
                .finish();
            let doc = sesr_serve::json::JsonObject::new()
                .str("bench", "sesr-train")
                .raw("results", &results)
                .finish();
            std::fs::write(&path, doc).unwrap();
            path
        };
        let baseline = mk("gate_base.json", 10.0);
        let ok = mk("gate_ok.json", 8.0); // -20%: within the 25% budget
        let bad = mk("gate_bad.json", 5.0); // -50%: regressed
        let report = run(&args(&format!(
            "bench-gate --baseline {} --fresh {}",
            baseline.display(),
            ok.display()
        )))
        .unwrap();
        assert!(report.contains("ok"));
        let err = run(&args(&format!(
            "bench-gate --baseline {} --fresh {}",
            baseline.display(),
            bad.display()
        )))
        .unwrap_err();
        assert!(err.to_string().contains("REGRESSED"), "{err}");
        // Tightening the tolerance flips the passing pair too.
        let err = run(&args(&format!(
            "bench-gate --baseline {} --fresh {} --max-regress 0.1",
            baseline.display(),
            ok.display()
        )))
        .unwrap_err();
        assert!(err.to_string().contains("regressed beyond 10%"), "{err}");
    }

    #[test]
    fn bench_gate_rejects_mismatched_kinds() {
        let a = tmp("gate_kind_a.json");
        let b = tmp("gate_kind_b.json");
        std::fs::write(&a, r#"{"bench":"sesr-train","results":{}}"#).unwrap();
        std::fs::write(
            &b,
            r#"{"bench":"sesr-serve","results":{"throughput_rps":1}}"#,
        )
        .unwrap();
        let err = run(&args(&format!(
            "bench-gate --baseline {} --fresh {}",
            a.display(),
            b.display()
        )))
        .unwrap_err();
        assert!(err.to_string().contains("different bench kinds"), "{err}");
    }

    #[test]
    fn unknown_subcommand_yields_usage() {
        let err = run(&args("frobnicate")).unwrap_err();
        assert!(err.to_string().contains("USAGE"));
    }

    #[test]
    fn missing_model_is_reported() {
        let err = run(&args("info --model /nonexistent/x.sesr")).unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
    }
}
