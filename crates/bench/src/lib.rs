//! # sesr-bench
//!
//! Regeneration harness for every table and figure in the SESR paper's
//! evaluation, plus the `train-bench` and `infer-bench` throughput
//! harnesses behind the `sesr` CLI.
//!
//! One binary per experiment (see DESIGN.md's per-experiment index):
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table1` | Table 1 — ×2 PSNR/SSIM across six benchmarks |
//! | `table2` | Table 2 — ×4 PSNR/SSIM across six benchmarks |
//! | `table3` | Table 3 — NPU MACs / DRAM / runtime / FPS incl. tiling |
//! | `fig1a` | Fig. 1(a) — PSNR-vs-MACs Pareto frontier |
//! | `fig1b` | Fig. 1(b) — theoretical FPS on the 4-TOP/s NPU |
//! | `fig3_training` | Sec. 3.3 / Fig. 3 — expanded vs collapsed training MACs |
//! | `ablation_overparam` | Sec. 5.4 — SESR vs ExpandNet vs RepVGG vs VGG |
//! | `ablation_residual_prelu` | Sec. 5.5 — residual/linear-block/PReLU ablations |
//! | `fig9_nas` | Sec. 5.6 / Fig. 9 — NAS with even/asymmetric kernels |
//! | `theory_updates` | Sec. 4 — closed-form vs empirical gradient updates |
//!
//! Training binaries accept `--steps N` (default: a CPU-friendly budget)
//! and `--full` (the paper's protocol scale); every run prints the paper's
//! published row next to the measured one.

pub mod harness;
pub mod infer_bench;
pub mod train_bench;

pub use harness::{parse_args, print_table, train_and_eval, BenchArgs, EvalRow};
pub use infer_bench::{
    infer_bench_report_json, run_infer_bench, InferArchResult, InferBenchConfig, Int8LaneResult,
};
pub use train_bench::{
    run_train_bench, train_bench_report_json, ArchResult, PhaseMillis, TrainBenchConfig,
};
