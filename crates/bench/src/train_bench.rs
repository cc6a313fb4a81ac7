//! The `train-bench` harness: drive real expanded-training steps for the
//! SESR architectures the paper trains (M5, M11), measure steps/sec with
//! a per-phase and per-op wall-clock breakdown, and emit the
//! `BENCH_train.json` report.
//!
//! It shares the report discipline of the other `sesr` bench harnesses
//! (`router-bench`, `video-bench`, `infer-bench`) — one JSON object,
//! checked with [`sesr_serve::json::validate`] before it touches disk —
//! but is pointed at the hot path the paper says dominates (Fig. 3:
//! overparameterized training costs 10–20x the MACs of the collapsed
//! net). Each timed step mirrors `TrainLoop::step_once` exactly: sample a
//! batch, build a tape, forward, L1 loss, backward, Adam update. Phases
//! are timed with a monotonic clock; the per-op breakdown comes from the
//! tape's opt-in profiler ([`sesr_autograd::OpProfile`]), which observes
//! without changing what is computed.

use sesr_autograd::{Adam, AdamConfig, OpProfile, Tape};
use sesr_core::model::Sesr;
use sesr_core::train::SrNetwork;
use sesr_data::{PatchSampler, TrainSet};
use sesr_serve::bench::{arch_config, report_archs, ReportConfig};
use sesr_serve::json::{array, JsonObject, JsonValue};
use sesr_tensor::Tensor;
use std::time::Instant;

/// Everything a train-bench run needs, with reproducible defaults.
#[derive(Debug, Clone)]
pub struct TrainBenchConfig {
    /// Architecture labels to benchmark (paper training configs).
    pub archs: Vec<String>,
    /// Upscaling factor (2 or 4).
    pub scale: usize,
    /// Overparameterized training width (this IS the expensive path).
    pub expanded: usize,
    /// Weight-initialization and sampling seed.
    pub seed: u64,
    /// Timed optimization steps per architecture.
    pub steps: usize,
    /// Untimed warmup steps (pool spin-up, cache warming).
    pub warmup: usize,
    /// Batch size.
    pub batch: usize,
    /// HR patch side length.
    pub hr_patch: usize,
    /// Cap the intra-op (GEMM/conv) thread pool; `None` = autodetect.
    pub threads: Option<usize>,
}

impl Default for TrainBenchConfig {
    fn default() -> Self {
        Self {
            archs: vec!["m5".to_string(), "m11".to_string()],
            scale: 2,
            expanded: 16,
            seed: 0,
            steps: 10,
            warmup: 2,
            batch: 8,
            hr_patch: 32,
            threads: None,
        }
    }
}

impl TrainBenchConfig {
    /// Rebuilds the configuration a `BENCH_train.json` report was
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
            steps: c.num("steps")? as usize,
            warmup: c.num("warmup")? as usize,
            batch: c.num("batch")? as usize,
            hr_patch: c.num("hr_patch")? as usize,
            threads: Some(c.num("threads")? as usize),
        };
        c.matches(&cfg.config_json())?;
        Ok(cfg)
    }

    /// The report's `config` block (`threads` resolved to the pool size
    /// the run used).
    pub fn config_json(&self) -> String {
        JsonObject::new()
            .int("scale", self.scale as u64)
            .int("expanded", self.expanded as u64)
            .int("seed", self.seed)
            .int("steps", self.steps as u64)
            .int("warmup", self.warmup as u64)
            .int("batch", self.batch as u64)
            .int("hr_patch", self.hr_patch as u64)
            .int(
                "threads",
                self.threads
                    .unwrap_or_else(sesr_tensor::parallel::num_threads) as u64,
            )
            .finish()
    }
}

/// Wall-clock milliseconds per training-step phase, summed over the
/// timed steps.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseMillis {
    /// Patch sampling (data side).
    pub sample: f64,
    /// Tape forward pass (leaf + network + loss value).
    pub forward: f64,
    /// Reverse-mode sweep.
    pub backward: f64,
    /// Gradient extraction + Adam update.
    pub update: f64,
}

/// One architecture's measured result.
#[derive(Debug, Clone)]
pub struct ArchResult {
    /// Architecture label (`m5`, `m11`, …).
    pub arch: String,
    /// Timed steps executed.
    pub steps: usize,
    /// Wall-clock milliseconds across the timed steps.
    pub wall_ms: f64,
    /// Training throughput over the timed steps.
    pub steps_per_sec: f64,
    /// L1 loss after the final timed step (sanity anchor: the bench runs
    /// real training, and determinism checks can compare this).
    pub final_loss: f64,
    /// Per-phase breakdown.
    pub phases: PhaseMillis,
    /// Per-op breakdown aggregated across the timed steps' tapes.
    pub profile: OpProfile,
}

/// Runs the configured benchmark: for each architecture, build the
/// expanded model, train `warmup + steps` real steps on a synthetic
/// training set, and time the last `steps` of them.
///
/// # Errors
///
/// Returns a message for an unknown architecture label.
pub fn run_train_bench(cfg: &TrainBenchConfig) -> Result<Vec<ArchResult>, String> {
    if let Some(n) = cfg.threads {
        sesr_tensor::parallel::set_num_threads(n);
    }
    let mut out = Vec::with_capacity(cfg.archs.len());
    for arch in &cfg.archs {
        out.push(bench_arch(cfg, arch)?);
    }
    Ok(out)
}

fn bench_arch(cfg: &TrainBenchConfig, arch: &str) -> Result<ArchResult, String> {
    let model_cfg = arch_config(arch, cfg.scale, cfg.expanded, cfg.seed)?;
    let mut model = Sesr::new(model_cfg);
    let set = TrainSet::synthetic(4, cfg.hr_patch * 2, cfg.scale, cfg.seed ^ 0x5E5E);
    let mut sampler = PatchSampler::new(cfg.hr_patch, cfg.scale, cfg.seed);
    let mut opt = Adam::new(AdamConfig::with_lr(5e-4));
    let mut params = model.parameters();

    let mut phases = PhaseMillis::default();
    let mut profile = OpProfile::default();
    let mut wall_ms = 0.0;
    let mut final_loss = f64::NAN;

    for step in 0..cfg.warmup + cfg.steps {
        let timed = step >= cfg.warmup;
        let t_step = Instant::now();

        let t0 = Instant::now();
        let (lr_batch, hr_batch) = sampler.sample_batch(&set, cfg.batch);
        let sample_ms = ms_since(t0);

        let t0 = Instant::now();
        model.set_parameters(&params);
        let mut tape = Tape::new();
        if timed {
            tape.enable_profiling();
        }
        let x = tape.leaf(lr_batch, false);
        let (y, param_ids) = model.forward(&mut tape, x);
        let loss_id = tape.l1_loss(y, &hr_batch);
        let loss = f64::from(tape.value(loss_id).data()[0]);
        let forward_ms = ms_since(t0);

        let t0 = Instant::now();
        tape.backward(loss_id);
        let backward_ms = ms_since(t0);

        let t0 = Instant::now();
        let grads: Vec<Tensor> = param_ids
            .iter()
            .zip(params.iter())
            .map(|(id, p)| {
                tape.grad(*id)
                    .cloned()
                    .unwrap_or_else(|| Tensor::zeros(p.shape()))
            })
            .collect();
        opt.step(&mut params, &grads);
        let update_ms = ms_since(t0);

        if timed {
            phases.sample += sample_ms;
            phases.forward += forward_ms;
            phases.backward += backward_ms;
            phases.update += update_ms;
            profile.merge(tape.profile());
            wall_ms += ms_since(t_step);
            final_loss = loss;
        }
    }

    let steps_per_sec = if wall_ms > 0.0 {
        cfg.steps as f64 / (wall_ms / 1e3)
    } else {
        f64::NAN
    };
    Ok(ArchResult {
        arch: arch.to_string(),
        steps: cfg.steps,
        wall_ms,
        steps_per_sec,
        final_loss,
        phases,
        profile,
    })
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Serializes a bench run into the `BENCH_train.json` document. The
/// `results` object is keyed by architecture label so the bench gate can
/// address `results.<arch>.steps_per_sec` directly.
pub fn train_bench_report_json(cfg: &TrainBenchConfig, results: &[ArchResult]) -> String {
    let mut results_obj = JsonObject::new();
    for r in results {
        let phases = JsonObject::new()
            .num("sample_ms", r.phases.sample)
            .num("forward_ms", r.phases.forward)
            .num("backward_ms", r.phases.backward)
            .num("update_ms", r.phases.update)
            .finish();
        let mut ops = JsonObject::new();
        for (name, stat) in r.profile.entries() {
            let entry = JsonObject::new()
                .int("calls", stat.calls)
                .num("ms", stat.nanos as f64 / 1e6)
                .finish();
            ops = ops.raw(name, &entry);
        }
        let arch = JsonObject::new()
            .int("steps", r.steps as u64)
            .num("wall_ms", r.wall_ms)
            .num("steps_per_sec", r.steps_per_sec)
            .num("final_loss", r.final_loss)
            .raw("phases", &phases)
            .raw("ops", &ops.finish())
            .finish();
        results_obj = results_obj.raw(&r.arch, &arch);
    }
    JsonObject::new()
        .str("bench", "sesr-train")
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

    fn tiny() -> TrainBenchConfig {
        TrainBenchConfig {
            archs: vec!["m5".to_string()],
            expanded: 4,
            steps: 2,
            warmup: 1,
            batch: 2,
            hr_patch: 16,
            threads: Some(1),
            ..TrainBenchConfig::default()
        }
    }

    #[test]
    fn runs_and_reports_valid_json() {
        let cfg = tiny();
        let results = run_train_bench(&cfg).unwrap();
        assert_eq!(results.len(), 1);
        let r = &results[0];
        assert_eq!(r.steps, 2);
        assert!(r.steps_per_sec.is_finite() && r.steps_per_sec > 0.0);
        assert!(r.final_loss.is_finite());
        assert!(!r.profile.is_empty(), "per-op breakdown must be populated");
        let json = train_bench_report_json(&cfg, &results);
        sesr_serve::json::validate(&json).expect("report must be well-formed");
        assert!(json.contains("\"steps_per_sec\""));
        assert!(json.contains("\"conv2d.fwd\""));
        assert!(json.contains("\"conv2d.bwd\""));
    }

    #[test]
    fn unknown_arch_is_an_error() {
        let cfg = TrainBenchConfig {
            archs: vec!["m99".to_string()],
            ..tiny()
        };
        assert!(run_train_bench(&cfg).is_err());
    }

    #[test]
    fn training_actually_learns_under_the_bench() {
        // The harness runs real steps: loss after several steps should
        // move from the first recorded value.
        let mut cfg = tiny();
        cfg.steps = 6;
        let a = run_train_bench(&cfg).unwrap()[0].final_loss;
        cfg.steps = 1;
        let b = run_train_bench(&cfg).unwrap()[0].final_loss;
        assert_ne!(a, b);
    }
}
