//! The performance gate behind `sesr bench-gate`: a committed baseline
//! report is the only description of its lane. The gate rebuilds the
//! lane's configuration from the baseline's `config` block ([`Lane`]),
//! re-runs it, and compares the fresh report to the baseline ([`gate`]).

use sesr_bench::{InferBenchConfig, TrainBenchConfig};
use sesr_serve::json::JsonValue;
use sesr_serve::router_bench::RouterBenchConfig;
use sesr_serve::video_bench::VideoBenchConfig;

/// Largest tolerated throughput drop of a fresh run against its baseline.
pub const MAX_REGRESS: f64 = 0.25;

/// The infer lane's wider throughput tolerance: the shared recording box
/// swings up to ~45% between load phases, which the standard 25% rule
/// would flag as a regression half the time. The committed baseline is a
/// slow-phase recording (EXPERIMENTS.md E22: m5 planned 21.9 img/s, about
/// half of what a fast phase reads) that predates the tile-row Winograd
/// body, so this floor sits far below today's throughput and only
/// catches catastrophic breakage — the sharp check for a broken SIMD path
/// is the autotuned-variant check, which has no tolerance at all.
pub const MAX_REGRESS_INFER: f64 = 0.50;

/// The int8 lane's absolute floor: the quantized plan must run at least
/// this many times as fast as the f32 planned path on every architecture.
/// The ratio is measured within one run on one box, so unlike raw
/// throughput it does not swing with background load; a drop below the
/// floor means the int8 path itself slowed down (or the lane vanished) —
/// or that the f32 denominator sped up: a faster f32 plan lowers the
/// ratio with no change to int8, so an f32 speed-up must bring int8 work
/// that keeps the ratio above the floor, not a lower floor.
pub const INT8_SPEEDUP_FLOOR: f64 = 1.4;

/// One bench lane's configuration: what a lane subcommand builds from its
/// flags and what the gate rebuilds from a baseline.
#[derive(Debug)]
pub enum Lane {
    /// `train-bench`, `BENCH_train.json`.
    Train(TrainBenchConfig),
    /// `infer-bench`, `BENCH_infer.json`.
    Infer(InferBenchConfig),
    /// `video-bench`, `BENCH_video.json`.
    Video(VideoBenchConfig),
    /// `router-bench`, `BENCH_router.json`.
    Router(RouterBenchConfig),
}

impl Lane {
    /// Rebuilds the lane a report was recorded by, from its `bench` tag
    /// and its recorded configuration.
    ///
    /// # Errors
    ///
    /// An unknown `bench` tag, or a configuration the lane cannot rebuild
    /// exactly (missing, unknown or mistyped key).
    pub fn from_report(report: &JsonValue) -> Result<Lane, String> {
        match report.get(&["bench"]).and_then(JsonValue::as_str) {
            Some("sesr-train") => TrainBenchConfig::from_report(report).map(Lane::Train),
            Some("sesr-infer") => InferBenchConfig::from_report(report).map(Lane::Infer),
            Some("sesr-video") => VideoBenchConfig::from_report(report).map(Lane::Video),
            Some("sesr-router") => RouterBenchConfig::from_report(report).map(Lane::Router),
            other => Err(format!(
                "unknown bench kind {other:?} (expected sesr-train|sesr-infer|sesr-video|sesr-router)"
            )),
        }
    }
}

/// Whether this host's CPU advertises AVX2, where the infer lane's
/// autotuner must not settle on the scalar kernels.
pub fn host_has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Compares a fresh report with its baseline and returns the verdict
/// table. Every lane's headline throughput may fall at most
/// [`MAX_REGRESS`] ([`MAX_REGRESS_INFER`] for infer) below the baseline.
/// The infer lane also holds every architecture to the int8 floor
/// ([`INT8_SPEEDUP_FLOOR`]) and to a reported autotuned variant that is
/// not `scalar` when `host_avx2`.
///
/// # Errors
///
/// The table plus every failed check.
pub fn gate(baseline: &JsonValue, fresh: &JsonValue, host_avx2: bool) -> Result<String, String> {
    let kind = baseline
        .get(&["bench"])
        .and_then(JsonValue::as_str)
        .ok_or("baseline has no \"bench\" tag")?;
    let archs = baseline
        .get(&["results"])
        .and_then(JsonValue::as_object_keys)
        .unwrap_or_default();
    let per_arch = |metrics: &[&'static str]| -> Vec<Vec<&str>> {
        archs
            .iter()
            .flat_map(|a| metrics.iter().map(move |m| vec!["results", a.as_str(), m]))
            .collect()
    };
    let (max_regress, paths) = match kind {
        "sesr-train" => (MAX_REGRESS, per_arch(&["steps_per_sec"])),
        "sesr-infer" => (
            MAX_REGRESS_INFER,
            per_arch(&["planned_images_per_sec", "int8_images_per_sec"]),
        ),
        // Only the absolute fps numbers are gated. speedup_x is a ratio
        // of two measurements whose denominator (static full_fps, a
        // short run) wobbles run to run — the bench's own `problems`
        // check enforces the absolute 5x floor instead. PSNR-vs-top is
        // not gated either: with seeded (untrained) ladder weights it
        // can sit below zero, where the multiplicative regression floor
        // inverts; the miss-rate `problems` check covers the any-time
        // contract.
        "sesr-video" => (
            MAX_REGRESS,
            ["static", "pan", "cut"]
                .iter()
                .map(|s| vec!["results", s, "reuse_fps"])
                .collect(),
        ),
        "sesr-router" => (
            MAX_REGRESS,
            vec![
                vec!["results", "shards_4", "rps"],
                vec!["results", "scaling_x"],
                vec!["results", "autoscale", "rps"],
            ],
        ),
        other => return Err(format!("unknown bench kind {other:?}")),
    };
    let num = |doc: &JsonValue, path: &[&str]| doc.get(path).and_then(JsonValue::as_f64);

    let mut table = format!(
        "bench-gate {kind} (max regression {:.0}%)\n",
        max_regress * 100.0
    );
    let mut failed = Vec::new();
    for path in &paths {
        let label = path[1..].join(".");
        let (Some(base), Some(new)) = (num(baseline, path), num(fresh, path)) else {
            failed.push(format!(
                "{label} missing from the baseline or the fresh report"
            ));
            continue;
        };
        let floor = base * (1.0 - max_regress);
        let ok = new >= floor;
        table.push_str(&format!(
            "  {label:<24} baseline {base:>10.3}  fresh {new:>10.3}  floor {floor:>10.3}  {}\n",
            if ok { "ok" } else { "REGRESSED" }
        ));
        if !ok {
            failed.push(format!(
                "{label} regressed beyond {:.0}%",
                max_regress * 100.0
            ));
        }
    }
    if kind == "sesr-infer" {
        for arch in &archs {
            match num(fresh, &["results", arch, "int8_speedup_vs_planned"]) {
                Some(s) => {
                    table.push_str(&format!(
                        "  {arch}: int8 {s:.2}x vs planned (floor {INT8_SPEEDUP_FLOOR}x)\n"
                    ));
                    if s < INT8_SPEEDUP_FLOOR {
                        failed.push(format!(
                            "{arch}: int8 speedup {s:.2}x below the {INT8_SPEEDUP_FLOOR}x floor"
                        ));
                    }
                }
                None => failed.push(format!("{arch}: fresh report has no int8 lane")),
            }
            match fresh
                .get(&["results", arch, "variant"])
                .and_then(JsonValue::as_str)
            {
                None => failed.push(format!("{arch}: fresh report has no autotuned variant")),
                Some("scalar") if host_avx2 => {
                    failed.push(format!("{arch}: autotuner chose scalar on an AVX2 host"))
                }
                Some(v) => table.push_str(&format!("  {arch}: autotuned variant {v}\n")),
            }
        }
    }
    if failed.is_empty() {
        Ok(table)
    } else {
        Err(format!(
            "{table}bench-gate FAILED:\n  {}",
            failed.join("\n  ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesr_serve::bench::report_archs;
    use sesr_serve::json::JsonObject;

    const BASELINES: [(&str, &str); 4] = [
        (
            "BENCH_train.json",
            include_str!("../../../BENCH_train.json"),
        ),
        (
            "BENCH_infer.json",
            include_str!("../../../BENCH_infer.json"),
        ),
        (
            "BENCH_video.json",
            include_str!("../../../BENCH_video.json"),
        ),
        (
            "BENCH_router.json",
            include_str!("../../../BENCH_router.json"),
        ),
    ];

    fn config_json(lane: &Lane) -> String {
        match lane {
            Lane::Train(c) => c.config_json(),
            Lane::Infer(c) => c.config_json(),
            Lane::Video(c) => c.config_json(),
            Lane::Router(c) => c.config_json(),
        }
    }

    #[test]
    fn committed_baselines_round_trip_their_config() {
        for (name, text) in BASELINES {
            let doc = JsonValue::parse(text).unwrap();
            let lane = Lane::from_report(&doc).unwrap_or_else(|e| panic!("{name}: {e}"));
            let config = JsonValue::parse(&config_json(&lane)).unwrap();
            assert_eq!(Some(&config), doc.get(&["config"]), "{name}");
            if let Lane::Train(TrainBenchConfig { archs, .. })
            | Lane::Infer(InferBenchConfig { archs, .. }) = &lane
            {
                assert_eq!(*archs, report_archs(&doc).unwrap(), "{name}");
            }
        }
    }

    /// `doc` with its `config` members edited.
    fn edit_config(doc: &JsonValue, edit: impl FnOnce(&mut Vec<(String, JsonValue)>)) -> JsonValue {
        let mut doc = doc.clone();
        if let JsonValue::Object(members) = &mut doc {
            if let Some((_, JsonValue::Object(config))) =
                members.iter_mut().find(|(k, _)| k == "config")
            {
                edit(config);
            }
        }
        doc
    }

    #[test]
    fn a_config_the_lane_cannot_rerun_exactly_is_an_error() {
        for (name, text) in BASELINES {
            let doc = JsonValue::parse(text).unwrap();
            let missing = edit_config(&doc, |c| {
                c.pop();
            });
            let err = Lane::from_report(&missing).unwrap_err();
            assert!(err.contains("missing"), "{name}: {err}");
            let unknown = edit_config(&doc, |c| {
                c.push(("tuner_file".to_string(), JsonValue::String(String::new())));
            });
            let err = Lane::from_report(&unknown).unwrap_err();
            assert!(err.contains("unknown key \"tuner_file\""), "{name}: {err}");
            // Every baseline's first key is a count: 2.5 cannot be re-run.
            let fractional = edit_config(&doc, |c| c[0].1 = JsonValue::Number(2.5));
            let err = Lane::from_report(&fractional).unwrap_err();
            assert!(err.contains("reads back as"), "{name}: {err}");
        }
    }

    #[test]
    fn unknown_bench_kind_is_an_error() {
        let doc = JsonValue::parse(r#"{"bench":"sesr-serve","config":{}}"#).unwrap();
        assert!(Lane::from_report(&doc)
            .unwrap_err()
            .contains("unknown bench kind"));
    }

    fn report(kind: &str, results: String) -> JsonValue {
        JsonValue::parse(
            &JsonObject::new()
                .str("bench", kind)
                .raw("results", &results)
                .finish(),
        )
        .unwrap()
    }

    fn train(steps_per_sec: f64) -> JsonValue {
        let m5 = JsonObject::new()
            .num("steps_per_sec", steps_per_sec)
            .finish();
        report("sesr-train", JsonObject::new().raw("m5", &m5).finish())
    }

    /// An infer report for one arch: planned and int8 throughput, the
    /// int8 speedup (no int8 lane when `None`), and the autotuned variant
    /// (none when empty).
    fn infer(planned: f64, int8: f64, speedup: Option<f64>, variant: &str) -> JsonValue {
        let mut m5 = JsonObject::new().num("planned_images_per_sec", planned);
        if !variant.is_empty() {
            m5 = m5.str("variant", variant);
        }
        if let Some(s) = speedup {
            m5 = m5
                .num("int8_images_per_sec", int8)
                .num("int8_speedup_vs_planned", s);
        }
        report(
            "sesr-infer",
            JsonObject::new().raw("m5", &m5.finish()).finish(),
        )
    }

    #[test]
    fn a_regression_just_past_25_percent_fails() {
        let base = train(100.0);
        let table = gate(&base, &train(75.0), true).unwrap();
        assert!(
            table.contains("m5.steps_per_sec") && table.contains("ok"),
            "{table}"
        );
        let err = gate(&base, &train(74.99), true).unwrap_err();
        assert!(
            err.contains("REGRESSED") && err.contains("beyond 25%"),
            "{err}"
        );
    }

    #[test]
    fn the_other_lanes_hold_25_percent_too() {
        let video = |fps: f64| {
            let seq = JsonObject::new().num("reuse_fps", fps).finish();
            let results = JsonObject::new()
                .raw("static", &seq)
                .raw("pan", &seq)
                .raw("cut", &seq)
                .finish();
            report("sesr-video", results)
        };
        gate(&video(100.0), &video(75.0), true).unwrap();
        assert!(gate(&video(100.0), &video(74.99), true).is_err());
        let router = |rps: f64| {
            let phase = JsonObject::new().num("rps", rps).finish();
            let results = JsonObject::new()
                .raw("shards_4", &phase)
                .num("scaling_x", 3.0)
                .raw("autoscale", &phase)
                .finish();
            report("sesr-router", results)
        };
        gate(&router(100.0), &router(75.0), true).unwrap();
        assert!(gate(&router(100.0), &router(74.99), true).is_err());
    }

    #[test]
    fn infer_regressions_just_past_50_percent_fail() {
        let base = infer(100.0, 200.0, Some(2.0), "avx2fma");
        gate(&base, &infer(50.0, 100.0, Some(2.0), "avx2fma"), true).unwrap();
        let err = gate(&base, &infer(49.99, 200.0, Some(2.0), "avx2fma"), true).unwrap_err();
        assert!(
            err.contains("m5.planned_images_per_sec regressed beyond 50%"),
            "{err}"
        );
        let err = gate(&base, &infer(100.0, 99.99, Some(2.0), "avx2fma"), true).unwrap_err();
        assert!(
            err.contains("m5.int8_images_per_sec regressed beyond 50%"),
            "{err}"
        );
    }

    #[test]
    fn an_int8_speedup_below_the_floor_fails() {
        let base = infer(100.0, 200.0, Some(2.0), "avx2fma");
        gate(&base, &infer(100.0, 200.0, Some(1.4), "avx2fma"), true).unwrap();
        let err = gate(&base, &infer(100.0, 200.0, Some(1.39), "avx2fma"), true).unwrap_err();
        assert!(
            err.contains("int8 speedup 1.39x below the 1.4x floor"),
            "{err}"
        );
        // A non-finite ratio is written as null: no int8 lane either.
        let err = gate(&base, &infer(100.0, 200.0, Some(f64::NAN), "avx2fma"), true);
        assert!(err.unwrap_err().contains("no int8 lane"));
    }

    #[test]
    fn a_dropped_int8_lane_fails() {
        let base = infer(100.0, 200.0, Some(2.0), "avx2fma");
        let err = gate(&base, &infer(100.0, 200.0, None, "avx2fma"), true).unwrap_err();
        assert!(err.contains("no int8 lane"), "{err}");
    }

    #[test]
    fn a_scalar_variant_on_an_avx2_host_fails() {
        let base = infer(100.0, 200.0, Some(2.0), "avx2fma");
        let scalar = infer(100.0, 200.0, Some(2.0), "scalar");
        let err = gate(&base, &scalar, true).unwrap_err();
        assert!(
            err.contains("autotuner chose scalar on an AVX2 host"),
            "{err}"
        );
        // Without AVX2 the scalar kernels are the right pick.
        let table = gate(&base, &scalar, false).unwrap();
        assert!(table.contains("autotuned variant scalar"), "{table}");
        // A report that names no variant at all fails on any host.
        let err = gate(&base, &infer(100.0, 200.0, Some(2.0), ""), false).unwrap_err();
        assert!(err.contains("no autotuned variant"), "{err}");
    }
}
