//! The `sesr` subcommands.

use crate::args::{ArgError, Args};
use crate::gate::{gate, host_has_avx2, Lane};
use crate::pgm;
use sesr_bench::{InferBenchConfig, TrainBenchConfig};
use sesr_core::model::{Sesr, SesrConfig};
use sesr_core::model_io::{load_model, save_model};
use sesr_core::tiling::{run_tiles, TileError};
use sesr_core::train::{DivergenceGuard, TrainConfig, TrainError, Trainer};
use sesr_core::{CollapsedKernels, CollapsedSesr, TilePlan};
use sesr_data::TrainSet;
use sesr_npu::{simulate, EthosN78Like};
use sesr_serve::json::JsonValue;
use sesr_serve::router_bench::{
    router_bench_report_json, run_router_bench, RouterBenchConfig, RouterBenchReport,
};
use sesr_serve::video_bench::{
    run_video_bench, video_bench_report_json, VideoBenchConfig, VideoBenchReport,
};
use sesr_tensor::parallel::num_threads;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

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
                [--images 12] [--ckpt <run.ckpt>] [--ckpt-every 50]
                [--resume <run.ckpt>] [--clip <max-grad-norm>] [--guard]
  sesr upscale  --model <model.sesr> --in <image.pgm> --out <sr.pgm> [--tile N]
  sesr simulate --model <model.sesr> [--height 1080] [--width 1920] [--tops 4]
  sesr info     --model <model.sesr>
  sesr train-bench [--archs m5,m11] [--scale 2] [--expanded 16] [--seed 0]
                [--steps 10] [--warmup 2] [--batch 8] [--hr-patch 32]
                [--threads N] [--out BENCH_train.json]
  sesr infer-bench [--archs m5,m11] [--scale 2] [--expanded 16] [--seed 0]
                [--iters 30] [--warmup 5] [--height 180] [--width 320]
                [--threads N] [--variant scalar|avx2|avx2fma]
                [--int8 on|off] [--psnr-budget 1.0] [--out BENCH_infer.json]
  sesr router-bench [--seed 0xB0A7] [--phase-ms 3000] [--shards-low 1]
                [--shards-high 4] [--tenants 3] [--interactive-hz 30]
                [--deadline-ms 40] [--heavy-hz 12] [--big-height 432]
                [--big-width 576] [--overload-factor 2]
                [--overload-heavy-hz 16] [--autoscale-hz 600]
                [--autoscale-quiet-ms 1500] [--out BENCH_router.json]
  sesr video-bench [--height 96] [--width 96] [--tile 24] [--frames 24]
                [--scale 2] [--expanded 16] [--seed 7] [--overload 2]
                [--ladder m3,m5,m7,m11] [--out BENCH_video.json]
  sesr bench-gate --baseline <BENCH_x.json>

A subcommand refuses any option its line above does not name.

Crash safety: with --ckpt, training state is checkpointed atomically every
--ckpt-every steps; after an interruption, rerun the same command with
--resume <run.ckpt> (and identical hyper-parameters) to continue
bit-identically. --guard enables divergence detection with automatic
rollback and learning-rate backoff.

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

Performance gate: bench-gate re-runs a lane from its baseline's own
`config` block and fails on a throughput regression or a failed check.
";

/// The options subcommand `sub` takes: every `--flag` its [`USAGE`] entry
/// names (its `sesr sub` line and the indented lines under it).
fn usage_flags(sub: &str) -> Vec<&'static str> {
    let head = format!("  sesr {sub} ");
    let mut entry = USAGE.lines().skip_while(|l| !l.starts_with(&head));
    entry
        .next()
        .into_iter()
        .chain(entry.take_while(|l| l.starts_with("   ")))
        .flat_map(str::split_whitespace)
        .filter_map(|t| t.trim_start_matches('[').strip_prefix("--"))
        .map(|t| t.trim_end_matches(']'))
        .collect()
}

/// Runs the CLI and returns its textual report.
///
/// # Errors
///
/// Returns [`CliError`] on bad arguments (an option the subcommand does
/// not take among them, checked before anything runs), unknown
/// subcommands, or I/O failure.
pub fn run(args: &Args) -> Result<String, CliError> {
    if let Some(sub) = args.subcommand() {
        let flags = usage_flags(sub);
        if let Some(bad) = args.keys().find(|k| !flags.contains(k)) {
            return Err(CliError::Usage(format!(
                "sesr {sub} does not take --{bad}\n\n{USAGE}"
            )));
        }
    }
    match args.subcommand() {
        Some("train") => train(args),
        Some("upscale") => upscale(args),
        Some("simulate") => simulate_cmd(args),
        Some("info") => info(args),
        Some("router-bench") => router_bench(args),
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

fn upscale(args: &Args) -> Result<String, CliError> {
    let model_path = args.required("model")?.to_string();
    let input = args.required("in")?.to_string();
    let output = args.required("out")?.to_string();
    let model = load_model(Path::new(&model_path))?;
    let lr = pgm::read(Path::new(&input))?;
    // `--tile N` tiles at that size; without it (or with 0) the image runs
    // as one full-height strip per pool thread, each streamed through its
    // own plan, whose arena grows with the width only.
    let tile = args.parsed_or("tile", 0usize)?;
    let radius = model.receptive_field_radius();
    let (sr, how) = if tile > 0 {
        (
            model.run_tiled(&lr, tile, radius)?,
            format!("tiled {tile}px"),
        )
    } else {
        let dims = lr.shape();
        let plan = TilePlan::strips(dims[1], dims[2], num_threads(), radius);
        let kernels = Arc::new(CollapsedKernels::new(&model));
        (
            run_tiles(&kernels, &lr, &plan),
            format!("{} strip(s)", plan.len()),
        )
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
    let mut cfg = EthosN78Like::default().0;
    cfg.peak_tops = tops;
    let ir = model.ir(h, w);
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

/// A runtime failure with a message (exit code 1).
fn failure(msg: impl Into<String>) -> CliError {
    CliError::Io(std::io::Error::other(msg.into()))
}

/// Runs one bench lane in-process: the run-and-report path that the lane
/// subcommands and `bench-gate` share. The report is checked to be
/// well-formed JSON and written to `out`, if given, also when the lane's
/// own checks failed, so the failing run can be read; those checks then
/// fail the call. Returns the report and a human summary.
fn run_lane(lane: &Lane, out: Option<&str>) -> Result<(String, String), CliError> {
    let (json, mut summary, problems) = match lane {
        Lane::Train(cfg) => {
            let results = sesr_bench::run_train_bench(cfg).map_err(failure)?;
            let json = sesr_bench::train_bench_report_json(cfg, &results);
            (json, train_summary(cfg, &results), Vec::new())
        }
        Lane::Infer(cfg) => {
            let results = sesr_bench::run_infer_bench(cfg).map_err(failure)?;
            let json = sesr_bench::infer_bench_report_json(cfg, &results);
            (json, infer_summary(cfg, &results), Vec::new())
        }
        Lane::Video(cfg) => {
            let report = run_video_bench(cfg).map_err(failure)?;
            let json = video_bench_report_json(&report);
            (json, video_summary(&report), report.problems)
        }
        Lane::Router(cfg) => {
            let report = run_router_bench(cfg).map_err(failure)?;
            let json = router_bench_report_json(cfg, &report);
            let summary = router_summary(cfg, &report);
            (json, summary, report.problems)
        }
    };
    sesr_serve::json::validate(&json).map_err(|e| failure(format!("malformed report: {e}")))?;
    if let Some(path) = out {
        std::fs::write(Path::new(path), &json)?;
        summary.push_str(&format!("wrote {path}"));
    }
    if !problems.is_empty() {
        let problems = problems.join("\n  ");
        return Err(failure(format!("{summary}\nFAILED:\n  {problems}")));
    }
    Ok((json, summary))
}

/// A lane subcommand: run the lane and write its report to `--out`.
fn lane_cmd(args: &Args, lane: Lane, default_out: &str) -> Result<String, CliError> {
    let out = args.get("out").unwrap_or(default_out);
    Ok(run_lane(&lane, Some(out))?.1)
}

/// The multi-tenant router bench: shard-scaling goodput plus the
/// overload/shedding phase, written to `BENCH_router.json`.
fn router_bench(args: &Args) -> Result<String, CliError> {
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
    lane_cmd(args, Lane::Router(cfg), "BENCH_router.json")
}

fn router_summary(cfg: &RouterBenchConfig, report: &RouterBenchReport) -> String {
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
    summary
}

/// The streaming-video bench: temporal tile reuse fps/speedup plus the
/// any-time deadline phase on synthetic sequences, written to
/// `BENCH_video.json`.
fn video_bench(args: &Args) -> Result<String, CliError> {
    let d = VideoBenchConfig::default();
    let cfg = VideoBenchConfig {
        height: args.parsed_or("height", d.height)?,
        width: args.parsed_or("width", d.width)?,
        tile: args.parsed_or("tile", d.tile)?.max(1),
        frames: args.parsed_or("frames", d.frames)?.max(2),
        scale: args.parsed_or("scale", d.scale)?,
        expanded: args.parsed_or("expanded", d.expanded)?,
        seed: parse_seed(args, "seed", d.seed)?,
        overload: args.parsed_or("overload", d.overload)?,
        ladder: args.get("ladder").map_or(d.ladder, arch_list),
    };
    lane_cmd(args, Lane::Video(cfg), "BENCH_video.json")
}

fn video_summary(report: &VideoBenchReport) -> String {
    let cfg = &report.config;
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
    summary
}

/// A comma-separated architecture list (`--archs`, `--ladder`).
fn arch_list(list: &str) -> Vec<String> {
    list.split(',')
        .map(|a| a.trim().to_string())
        .filter(|a| !a.is_empty())
        .collect()
}

/// `--threads N`, or `None` to autodetect.
fn threads(args: &Args) -> Result<Option<usize>, CliError> {
    match args.get("threads") {
        None => Ok(None),
        Some(_) => Ok(Some(args.parsed_or("threads", 4usize)?)),
    }
}

fn train_bench(args: &Args) -> Result<String, CliError> {
    let cfg = TrainBenchConfig {
        archs: arch_list(args.get("archs").unwrap_or("m5,m11")),
        scale: args.parsed_or("scale", 2usize)?,
        expanded: args.parsed_or("expanded", 16usize)?,
        seed: args.parsed_or("seed", 0u64)?,
        steps: args.parsed_or("steps", 10usize)?,
        warmup: args.parsed_or("warmup", 2usize)?,
        batch: args.parsed_or("batch", 8usize)?,
        hr_patch: args.parsed_or("hr-patch", 32usize)?,
        threads: threads(args)?,
    };
    lane_cmd(args, Lane::Train(cfg), "BENCH_train.json")
}

fn train_summary(cfg: &TrainBenchConfig, results: &[sesr_bench::ArchResult]) -> String {
    let mut summary = String::new();
    for r in results {
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
    summary
}

fn infer_bench(args: &Args) -> Result<String, CliError> {
    let cfg = InferBenchConfig {
        archs: arch_list(args.get("archs").unwrap_or("m5,m11")),
        scale: args.parsed_or("scale", 2usize)?,
        expanded: args.parsed_or("expanded", 16usize)?,
        seed: args.parsed_or("seed", 0u64)?,
        iters: args.parsed_or("iters", 30usize)?,
        warmup: args.parsed_or("warmup", 5usize)?,
        h: args.parsed_or("height", 180usize)?,
        w: args.parsed_or("width", 320usize)?,
        threads: threads(args)?,
        variant: args.get("variant").map(str::to_string),
        int8: args.get("int8").map(|v| v != "off").unwrap_or(true),
        psnr_budget: args.parsed_or("psnr-budget", 1.0f64)?,
    };
    lane_cmd(args, Lane::Infer(cfg), "BENCH_infer.json")
}

fn infer_summary(cfg: &InferBenchConfig, results: &[sesr_bench::InferArchResult]) -> String {
    let mut summary = String::new();
    for r in results {
        summary.push_str(&format!(
            "infer-bench {}x{} {}x{}: planned {:.2} img/s vs reference {:.2} img/s ({:.2}x), arena {} KiB, variant {}\n",
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
                "  int8 {:.2} img/s ({:.2}x vs planned), dPSNR {:+.3} dB (budget {:.2}), arena {} KiB, int8 body {}\n",
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
                "  layer {i:<2} {:>8.2} ms total ({:.3} ms/run{int8})\n",
                ms,
                ms / r.iters as f64
            ));
        }
    }
    summary
}

/// `bench-gate --baseline BENCH_x.json`: rebuild the lane from the
/// baseline's own `config` block, re-run it in-process, and gate the
/// fresh report against the baseline.
fn bench_gate(args: &Args) -> Result<String, CliError> {
    let path = args.required("baseline")?.to_string();
    let baseline = JsonValue::parse(&std::fs::read_to_string(Path::new(&path))?)
        .map_err(|e| failure(format!("{path}: {e}")))?;
    let lane = Lane::from_report(&baseline).map_err(|e| failure(format!("{path}: {e}")))?;
    let (json, summary) = run_lane(&lane, None)?;
    let fresh = JsonValue::parse(&json).map_err(failure)?;
    let table =
        gate(&baseline, &fresh, host_has_avx2()).map_err(|e| failure(format!("{summary}{e}")))?;
    Ok(format!("{summary}{table}"))
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
    fn bench_gate_reruns_the_baselines_own_config() {
        let baseline = |name: &str, steps_per_sec: f64, extra: &str| {
            let path = tmp(name);
            std::fs::write(
                &path,
                format!(
                    r#"{{"bench":"sesr-train","archs":["m5"],"config":{{"scale":2,"expanded":4,"seed":0,"steps":2,"warmup":1,"batch":2,"hr_patch":16,"threads":1{extra}}},"results":{{"m5":{{"steps_per_sec":{steps_per_sec}}}}}}}"#
                ),
            )
            .unwrap();
            path
        };
        let gate_on = |path: std::path::PathBuf| {
            run(&args(&format!("bench-gate --baseline {}", path.display())))
        };
        // The fresh run used the baseline's config, not the flag defaults.
        let report = gate_on(baseline("gate_ok.json", 1e-6, "")).unwrap();
        assert!(report.contains("train-bench m5x2 (expanded 4)"), "{report}");
        assert!(report.contains("m5.steps_per_sec") && report.contains("ok"));
        let err = gate_on(baseline("gate_slow.json", 1e12, "")).unwrap_err();
        assert!(matches!(err, CliError::Io(_)), "{err:?}");
        assert!(err.to_string().contains("REGRESSED"), "{err}");
        // A setting the lane does not know is refused before anything runs.
        let err = gate_on(baseline("gate_key.json", 1e-6, r#","tuner_file":"""#)).unwrap_err();
        assert!(err.to_string().contains("unknown key"), "{err}");
        let err = gate_on(tmp("gate_absent.json")).unwrap_err();
        assert!(matches!(err, CliError::Io(_)), "{err:?}");
    }

    #[test]
    fn each_subcommand_takes_the_options_its_usage_entry_names() {
        let subs = [
            "train",
            "upscale",
            "simulate",
            "info",
            "train-bench",
            "infer-bench",
            "router-bench",
            "video-bench",
            "bench-gate",
        ];
        for sub in subs {
            assert!(!usage_flags(sub).is_empty(), "{sub} has no usage entry");
        }
        let train = usage_flags("train");
        for flag in ["out", "m", "images", "ckpt-every", "clip", "guard"] {
            assert!(train.contains(&flag), "train lost --{flag}: {train:?}");
        }
        // The entry ends where the next one starts.
        assert!(!train.contains(&"archs"), "{train:?}");
        assert_eq!(usage_flags("bench-gate"), ["baseline"]);
        let err = run(&args("info --model m.sesr --tile 4")).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        assert!(err.to_string().contains("--tile"), "{err}");
    }

    #[test]
    fn unknown_subcommand_yields_usage() {
        let err = run(&args("frobnicate")).unwrap_err();
        assert!(err.to_string().contains("USAGE"));
    }

    #[test]
    fn retired_harness_subcommands_yield_usage() {
        // The engine and fleet chaos soaks live in sesr-serve's chaos and
        // router tests; engine serving throughput is measured by
        // router-bench and the repository benchmark.
        for sub in ["serve-bench", "serve-chaos", "router-chaos"] {
            let err = run(&args(sub)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{sub}: {err:?}");
            assert!(
                !err.to_string().contains(sub),
                "{sub} still in the usage text"
            );
        }
    }

    #[test]
    fn missing_model_is_reported() {
        let err = run(&args("info --model /nonexistent/x.sesr")).unwrap_err();
        assert!(matches!(err, CliError::Io(_)));
    }
}
