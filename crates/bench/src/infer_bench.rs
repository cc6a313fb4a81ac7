//! The `infer-bench` harness: measure collapsed-model inference with the
//! planned executor ([`InferPlan`]) against the unfused reference path,
//! and emit the `BENCH_infer.json` report.
//!
//! This is the inference-side sibling of `train-bench`
//! (`crates/bench/src/train_bench.rs`): same report discipline — one
//! JSON object, checked with [`sesr_serve::json::validate`] before it
//! touches disk — but pointed at the deployment hot path: the collapsed
//! net the paper ships (Sec. 3.2). For each architecture the harness
//! builds the collapsed model once, compiles one plan per input shape,
//! and times `iters` end-to-end runs of both executors over the same
//! input. The planned path also reports a per-layer wall-clock breakdown
//! (from [`InferPlan::run_image_into_timed`]) and its fixed arena
//! footprint, and the harness asserts the two executors agree **bit for
//! bit** before any number is reported — a bench that silently measured
//! a divergent fast path would be worse than no bench.

use sesr_core::infer_plan::{CollapsedKernels, InferPlan};
use sesr_core::model::Sesr;
use sesr_quant::{calibrate, QuantKernels, QuantPlan, QuantizedSesr};
use sesr_serve::bench::{arch_config, report_archs, ReportConfig};
use sesr_serve::json::{array, JsonObject, JsonValue};
use sesr_tensor::simd::{microkernel, set_kernel_variant, KernelVariant};
use sesr_tensor::Tensor;
use std::sync::Arc;
use std::time::Instant;

/// Calibration-image geometry for the int8 lane (synthetic Mixed scene).
const INT8_CALIB_TILE: usize = 24;
/// LR side of the tile the ΔPSNR budget check is measured on.
const INT8_PSNR_TILE: usize = 48;

/// Everything an infer-bench run needs, with reproducible defaults.
#[derive(Debug, Clone)]
pub struct InferBenchConfig {
    /// Architecture labels to benchmark.
    pub archs: Vec<String>,
    /// Upscaling factor (2 or 4).
    pub scale: usize,
    /// Overparameterized width used to build (then collapse) the model;
    /// affects only the collapsed weights' values, not their shape.
    pub expanded: usize,
    /// Weight-initialization and input seed.
    pub seed: u64,
    /// Timed end-to-end runs per architecture per executor.
    pub iters: usize,
    /// Untimed warmup runs (pool spin-up, cache warming).
    pub warmup: usize,
    /// LR input height.
    pub h: usize,
    /// LR input width.
    pub w: usize,
    /// Cap the intra-op thread pool; `None` = autodetect.
    pub threads: Option<usize>,
    /// Pin the microkernel variant by name (`scalar`, `avx2`,
    /// `avx2fma`); `None` runs the plan-level autotuner (Measure policy) and
    /// reports what it picked. Either way the process-global variant is
    /// pinned to the same choice so the reference path — the bit-identity
    /// gate's other side — runs the same arithmetic.
    pub variant: Option<String>,
    /// Run the int8 lane: calibrate + quantize each model, verify the
    /// planned int8 executor bit-identical to the quantized oracle, and
    /// time it against the f32 planned path.
    pub int8: bool,
    /// Largest acceptable int8 PSNR loss versus f32 in dB, measured on a
    /// fixed synthetic tile. The harness **refuses to emit a report** if
    /// any architecture exceeds it — a bench that advertised int8
    /// throughput at unacceptable quality would be worse than no bench.
    pub psnr_budget: f64,
}

impl Default for InferBenchConfig {
    fn default() -> Self {
        Self {
            archs: vec!["m5".to_string(), "m11".to_string()],
            scale: 2,
            expanded: 16,
            seed: 0,
            iters: 30,
            warmup: 5,
            h: 180,
            w: 320,
            threads: None,
            variant: None,
            int8: true,
            psnr_budget: 1.0,
        }
    }
}

impl InferBenchConfig {
    /// Rebuilds the configuration a `BENCH_infer.json` report was
    /// recorded with: its `archs` list and its `config` block (see
    /// [`ReportConfig`]).
    ///
    /// # Errors
    ///
    /// A `config` key is missing, unknown, or not reproducible, or the
    /// report has no `archs` list.
    pub fn from_report(report: &JsonValue) -> Result<Self, String> {
        let c = ReportConfig::of(report)?;
        let cfg = Self {
            archs: report_archs(report)?,
            scale: c.num("scale")? as usize,
            expanded: c.num("expanded")? as usize,
            seed: c.num("seed")? as u64,
            iters: c.num("iters")? as usize,
            warmup: c.num("warmup")? as usize,
            h: c.num("h")? as usize,
            w: c.num("w")? as usize,
            threads: Some(c.num("threads")? as usize),
            variant: match c.str("variant")? {
                "auto" => None,
                pinned => Some(pinned.to_string()),
            },
            int8: c.bool("int8")?,
            psnr_budget: c.num("psnr_budget")?,
        };
        c.matches(&cfg.config_json())?;
        Ok(cfg)
    }

    /// The report's `config` block (`threads` resolved to the pool size
    /// the run used, an unpinned variant written as `auto`).
    pub fn config_json(&self) -> String {
        JsonObject::new()
            .int("scale", self.scale as u64)
            .int("expanded", self.expanded as u64)
            .int("seed", self.seed)
            .int("iters", self.iters as u64)
            .int("warmup", self.warmup as u64)
            .int("h", self.h as u64)
            .int("w", self.w as u64)
            .int(
                "threads",
                self.threads
                    .unwrap_or_else(sesr_tensor::parallel::num_threads) as u64,
            )
            .str("variant", self.variant.as_deref().unwrap_or("auto"))
            .bool("int8", self.int8)
            .num("psnr_budget", self.psnr_budget)
            .finish()
    }
}

/// The int8 lane's measurements for one architecture.
#[derive(Debug, Clone)]
pub struct Int8LaneResult {
    /// Total wall-clock ms across the planned-int8 runs.
    pub int8_ms: f64,
    /// Planned-int8 throughput (images/sec) — the gated metric.
    pub int8_images_per_sec: f64,
    /// `planned_ms / int8_ms`: how much faster int8 is than the f32
    /// planned path on the same input.
    pub speedup_vs_planned: f64,
    /// Measured PSNR cost of int8 versus f32 on the budget tile, in dB
    /// (positive = int8 is worse). Always within `psnr_budget`, or the
    /// harness refused to report.
    pub delta_psnr_db: f64,
    /// The quantized plan's fixed i32 arena footprint.
    pub arena_bytes: usize,
    /// Per-layer planned-int8 wall-clock ms, summed over the timed runs
    /// (same indexing as [`InferArchResult::layer_ms`]; the first layer
    /// also carries the input quantization).
    pub layer_ms: Vec<f64>,
    /// Which integer tap-kernel body ran: `scalar`, `avx2`, or
    /// `avx512vnni`.
    pub body: &'static str,
}

/// One architecture's measured result.
#[derive(Debug, Clone)]
pub struct InferArchResult {
    /// Architecture label (`m5`, `m11`, …).
    pub arch: String,
    /// Timed runs per executor.
    pub iters: usize,
    /// Total wall-clock ms across the reference runs.
    pub reference_ms: f64,
    /// Total wall-clock ms across the planned runs.
    pub planned_ms: f64,
    /// Reference throughput (images/sec).
    pub reference_images_per_sec: f64,
    /// Planned throughput (images/sec) — the gated metric.
    pub planned_images_per_sec: f64,
    /// `reference_ms / planned_ms`.
    pub speedup: f64,
    /// The plan's fixed scratch footprint (allocated once at build).
    pub arena_bytes: usize,
    /// Stable name of the microkernel variant the planned path ran on
    /// (pinned by config or chosen by the plan autotuner).
    pub variant: &'static str,
    /// Per-layer planned wall-clock ms, summed over the timed runs
    /// (index = execution order: 5x5 head conv, 3x3 middles, 5x5 tail).
    pub layer_ms: Vec<f64>,
    /// Int8 lane measurements (`None` when the lane is disabled).
    pub int8: Option<Int8LaneResult>,
}

/// Runs the configured benchmark: for each architecture, collapse the
/// model, verify planned output is bit-identical to the reference, then
/// time both executors.
///
/// # Errors
///
/// Returns a message for an unknown architecture label.
pub fn run_infer_bench(cfg: &InferBenchConfig) -> Result<Vec<InferArchResult>, String> {
    if let Some(n) = cfg.threads {
        sesr_tensor::parallel::set_num_threads(n);
    }
    let mut out = Vec::with_capacity(cfg.archs.len());
    for arch in &cfg.archs {
        out.push(bench_arch(cfg, arch)?);
    }
    Ok(out)
}

fn bench_arch(cfg: &InferBenchConfig, arch: &str) -> Result<InferArchResult, String> {
    let model_cfg = arch_config(arch, cfg.scale, cfg.expanded, cfg.seed)?;
    let net = Sesr::new(model_cfg).collapse();
    let lr = Tensor::rand_uniform(&[1, cfg.h, cfg.w], 0.0, 1.0, cfg.seed ^ 0x1F);
    let kernels = Arc::new(CollapsedKernels::new(&net));
    let mut plan = InferPlan::new(kernels, cfg.h, cfg.w);
    let s = net.scale();
    let mut out = vec![0.0f32; cfg.h * s * cfg.w * s];
    let layers = plan.num_steps();
    let mut layer_nanos = vec![0u64; layers];

    // Variant selection: honor an explicit pin, otherwise let the plan
    // autotuner measure the detected candidates on this exact workload.
    let variant = match cfg.variant.as_deref() {
        Some(name) => {
            let v = KernelVariant::parse(name)
                .ok_or_else(|| format!("unknown kernel variant '{name}'"))?;
            // set_variant falls back to the best available implementation
            // when `v` cannot run here (e.g. avx2 requested on aarch64).
            plan.set_variant(v)
        }
        None => plan.autotune_variant(),
    };
    // The reference path's GEMM runs the process-global variant; pin it
    // to the plan's choice so the bit-identity gate below compares like
    // arithmetic (avx2fma chains differ from scalar chains by design).
    set_kernel_variant(variant);

    // Correctness gate: the fast path must reproduce the reference bits.
    plan.run_image_into(lr.data(), &mut out);
    let reference = net.run_reference(&lr);
    if reference.data() != out.as_slice() {
        return Err(format!(
            "planned output diverged from reference for {arch} — refusing to benchmark"
        ));
    }

    for _ in 0..cfg.warmup {
        let _ = net.run_reference(&lr);
        plan.run_image_into(lr.data(), &mut out);
    }

    let t0 = Instant::now();
    for _ in 0..cfg.iters {
        let _ = net.run_reference(&lr);
    }
    let reference_ms = ms_since(t0);

    let t0 = Instant::now();
    for _ in 0..cfg.iters {
        plan.run_image_into_timed(lr.data(), &mut out, &mut layer_nanos);
    }
    let planned_ms = ms_since(t0);

    let per_sec = |ms: f64| {
        if ms > 0.0 {
            cfg.iters as f64 / (ms / 1e3)
        } else {
            f64::NAN
        }
    };

    let int8 = if cfg.int8 {
        Some(bench_int8_lane(cfg, arch, &net, &lr, planned_ms)?)
    } else {
        None
    };
    Ok(InferArchResult {
        arch: arch.to_string(),
        iters: cfg.iters,
        reference_ms,
        planned_ms,
        reference_images_per_sec: per_sec(reference_ms),
        planned_images_per_sec: per_sec(planned_ms),
        speedup: reference_ms / planned_ms,
        arena_bytes: plan.arena_bytes(),
        variant: variant.name(),
        layer_ms: layer_nanos.iter().map(|&n| n as f64 / 1e6).collect(),
        int8,
    })
}

/// The int8 side of one architecture's bench: calibrate + quantize,
/// enforce the ΔPSNR budget, prove the planned int8 executor
/// bit-identical to the integer-accumulation oracle on the bench input,
/// then time it. Runs after the process-global variant is pinned, so the
/// quantized plan compiles against the same microkernel family as the
/// f32 plan it is compared to.
fn bench_int8_lane(
    cfg: &InferBenchConfig,
    arch: &str,
    net: &sesr_core::CollapsedSesr,
    lr: &Tensor,
    planned_ms: f64,
) -> Result<Int8LaneResult, String> {
    let calib: Vec<Tensor> = (0..3)
        .map(|i| {
            sesr_quant::calibration_pair(
                net.scale(),
                INT8_CALIB_TILE,
                INT8_CALIB_TILE,
                cfg.seed ^ (0xCA11B + i),
            )
            .1
        })
        .collect();
    let profile = calibrate(net, &calib);
    let qnet = QuantizedSesr::quantize(net, &profile);

    // Quality gate: refuse to report int8 throughput past the budget.
    let delta_psnr_db = sesr_quant::delta_psnr(
        net,
        &qnet,
        INT8_PSNR_TILE,
        INT8_PSNR_TILE,
        cfg.seed ^ 0x5EED,
    );
    // Negated on purpose: a NaN delta must refuse, not pass.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(delta_psnr_db <= cfg.psnr_budget) {
        return Err(format!(
            "int8 ΔPSNR {delta_psnr_db:.3} dB exceeds the {:.3} dB budget for {arch} — refusing to emit the report",
            cfg.psnr_budget
        ));
    }

    let kernels = Arc::new(QuantKernels::new(&qnet));
    let mut qplan = QuantPlan::new(kernels, cfg.h, cfg.w);
    let s = net.scale();
    let mut out = vec![0.0f32; cfg.h * s * cfg.w * s];

    // Correctness gate: planned int8 must reproduce the oracle bits.
    qplan.run_image_into(lr.data(), &mut out);
    let oracle = qnet.run(lr);
    if oracle.data() != out.as_slice() {
        return Err(format!(
            "planned int8 output diverged from the quantized oracle for {arch} — refusing to benchmark"
        ));
    }

    for _ in 0..cfg.warmup {
        qplan.run_image_into(lr.data(), &mut out);
    }
    let mut layer_nanos = vec![0u64; qplan.num_steps()];
    let t0 = Instant::now();
    for _ in 0..cfg.iters {
        qplan.run_image_into_timed(lr.data(), &mut out, &mut layer_nanos);
    }
    let int8_ms = ms_since(t0);

    Ok(Int8LaneResult {
        int8_ms,
        int8_images_per_sec: if int8_ms > 0.0 {
            cfg.iters as f64 / (int8_ms / 1e3)
        } else {
            f64::NAN
        },
        speedup_vs_planned: planned_ms / int8_ms,
        delta_psnr_db,
        arena_bytes: qplan.arena_bytes(),
        layer_ms: layer_nanos.iter().map(|&n| n as f64 / 1e6).collect(),
        body: microkernel(qplan.variant()).int8_body(),
    })
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Serializes a bench run into the `BENCH_infer.json` document. The
/// `results` object is keyed by architecture label so the bench gate can
/// address `results.<arch>.planned_images_per_sec` directly.
pub fn infer_bench_report_json(cfg: &InferBenchConfig, results: &[InferArchResult]) -> String {
    let mut results_obj = JsonObject::new();
    for r in results {
        let mut arch = JsonObject::new()
            .int("iters", r.iters as u64)
            .num("reference_ms", r.reference_ms)
            .num("planned_ms", r.planned_ms)
            .num("reference_images_per_sec", r.reference_images_per_sec)
            .num("planned_images_per_sec", r.planned_images_per_sec)
            .num("speedup", r.speedup)
            .int("arena_bytes", r.arena_bytes as u64)
            .str("variant", r.variant)
            .raw(
                "layer_ms",
                &array(r.layer_ms.iter().map(|ms| format!("{ms:.6}"))),
            );
        if let Some(q) = &r.int8 {
            arch = arch
                .num("int8_ms", q.int8_ms)
                .num("int8_images_per_sec", q.int8_images_per_sec)
                .num("int8_speedup_vs_planned", q.speedup_vs_planned)
                .num("int8_delta_psnr_db", q.delta_psnr_db)
                .int("int8_arena_bytes", q.arena_bytes as u64)
                .raw(
                    "int8_layer_ms",
                    &array(q.layer_ms.iter().map(|ms| format!("{ms:.6}"))),
                )
                .str("int8_body", q.body);
        }
        results_obj = results_obj.raw(&r.arch, &arch.finish());
    }
    JsonObject::new()
        .str("bench", "sesr-infer")
        .raw(
            "archs",
            &array(results.iter().map(|r| format!("\"{}\"", r.arch))),
        )
        .raw("config", &cfg.config_json())
        .raw("results", &results_obj.finish())
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> InferBenchConfig {
        InferBenchConfig {
            archs: vec!["m3".to_string()],
            expanded: 4,
            iters: 2,
            warmup: 1,
            h: 16,
            w: 20,
            threads: Some(1),
            ..InferBenchConfig::default()
        }
    }

    #[test]
    fn runs_and_reports_valid_json() {
        // bench_arch pins the process-global variant; serialize against
        // other tests whose assertions are bitwise.
        let _guard = sesr_tensor::simd::variant_test_lock();
        let cfg = tiny();
        let results = run_infer_bench(&cfg).unwrap();
        assert_eq!(results.len(), 1);
        let r = &results[0];
        assert_eq!(r.iters, 2);
        assert!(r.planned_images_per_sec.is_finite() && r.planned_images_per_sec > 0.0);
        assert!(r.speedup.is_finite() && r.speedup > 0.0);
        assert!(r.arena_bytes > 0);
        // m3 collapses to 5 layers: 5x5 + 3x3 x3 + 5x5.
        assert_eq!(r.layer_ms.len(), 5);
        let json = infer_bench_report_json(&cfg, &results);
        sesr_serve::json::validate(&json).expect("report must be well-formed");
        assert!(json.contains("\"bench\":\"sesr-infer\""));
        assert!(json.contains("\"planned_images_per_sec\""));
        assert!(json.contains("\"layer_ms\""));
        // The autotuned choice is serialized per arch; the config echoes
        // that no pin was requested.
        assert!(json.contains(&format!("\"variant\":\"{}\"", r.variant)));
        assert!(json.contains("\"variant\":\"auto\""));
        // int8 lane runs by default, passed its PSNR gate, and serializes.
        let q = r.int8.as_ref().expect("int8 lane enabled by default");
        assert!(q.int8_images_per_sec.is_finite() && q.int8_images_per_sec > 0.0);
        assert!(q.speedup_vs_planned.is_finite() && q.speedup_vs_planned > 0.0);
        assert!(q.delta_psnr_db <= cfg.psnr_budget);
        assert!(q.arena_bytes > 0);
        // One int8 timing slot per layer, next to the f32 ones, and the
        // integer body that ran.
        assert_eq!(q.layer_ms.len(), r.layer_ms.len());
        assert!(q.layer_ms.iter().all(|&ms| ms > 0.0));
        assert!(["scalar", "avx2", "avx512vnni"].contains(&q.body));
        assert!(json.contains("\"int8_layer_ms\""));
        assert!(json.contains(&format!("\"int8_body\":\"{}\"", q.body)));
        assert!(json.contains("\"int8_images_per_sec\""));
        assert!(json.contains("\"int8_delta_psnr_db\""));
        assert!(json.contains("\"psnr_budget\""));
    }

    #[test]
    fn int8_lane_can_be_disabled() {
        let _guard = sesr_tensor::simd::variant_test_lock();
        let cfg = InferBenchConfig {
            int8: false,
            ..tiny()
        };
        let results = run_infer_bench(&cfg).unwrap();
        assert!(results[0].int8.is_none());
        let json = infer_bench_report_json(&cfg, &results);
        sesr_serve::json::validate(&json).unwrap();
        assert!(!json.contains("\"int8_images_per_sec\""));
        assert!(json.contains("\"int8\":false"));
    }

    #[test]
    fn impossible_psnr_budget_refuses_to_emit() {
        let _guard = sesr_tensor::simd::variant_test_lock();
        let cfg = InferBenchConfig {
            // No finite quantization error measures at or below -100 dB,
            // so the gate must trip before any report is produced.
            psnr_budget: -100.0,
            ..tiny()
        };
        let err = run_infer_bench(&cfg).unwrap_err();
        assert!(err.contains("refusing to emit"), "{err}");
    }

    #[test]
    fn pinned_variant_is_honored_and_reported() {
        let _guard = sesr_tensor::simd::variant_test_lock();
        let cfg = InferBenchConfig {
            variant: Some("scalar".to_string()),
            ..tiny()
        };
        let results = run_infer_bench(&cfg).unwrap();
        assert_eq!(results[0].variant, "scalar");
        let json = infer_bench_report_json(&cfg, &results);
        sesr_serve::json::validate(&json).unwrap();
        assert!(json.contains("\"variant\":\"scalar\""));
        // Restore the detected default (detection order ends at the best
        // available variant) for any later test in this binary.
        let best = *sesr_tensor::simd::detected_variants()
            .last()
            .expect("non-empty");
        sesr_tensor::simd::set_kernel_variant(best);
    }

    #[test]
    fn unknown_variant_is_an_error() {
        let cfg = InferBenchConfig {
            variant: Some("mmx".to_string()),
            ..tiny()
        };
        let err = run_infer_bench(&cfg).unwrap_err();
        assert!(err.contains("unknown kernel variant"), "{err}");
    }

    #[test]
    fn unknown_arch_is_an_error() {
        let cfg = InferBenchConfig {
            archs: vec!["m99".to_string()],
            ..tiny()
        };
        assert!(run_infer_bench(&cfg).is_err());
    }
}
