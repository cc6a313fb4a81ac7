//! # sesr-cli
//!
//! Library backing the `sesr` command-line tool: a tiny argument parser
//! (the workspace's offline dependency set has no clap), the four model
//! subcommands — `train`, `upscale`, `simulate`, `info` — and the bench
//! lanes with the gate that re-runs them against their baselines.
//!
//! The command surface mirrors the deployment story of the paper:
//!
//! ```text
//! sesr train   --out model.sesr [--m 5] [--scale 2] [--steps 500] ...
//! sesr upscale --model model.sesr --in image.pgm --out sr.pgm [--tile N]
//! sesr simulate --model model.sesr [--height 1080] [--width 1920]
//! sesr info    --model model.sesr
//! ```
//!
//! Images are 8-bit PGM (luma), matching the paper's Y-channel pipeline.
//!
//! Error handling policy: user-facing code never panics on bad input —
//! every failure surfaces as a typed [`CliError`] mapped to a non-zero
//! exit code. The lint gate below enforces it.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod args;
pub mod commands;
mod gate;
pub mod pgm;

pub use args::{ArgError, Args};
pub use commands::{run, CliError};
