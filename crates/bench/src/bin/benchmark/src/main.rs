//! The repository benchmark: one workload per run, driven through
//! router → engine → plan, every output checked, every metric printed by
//! name with its unit. See `README.md` next to this crate.
//!
//! ```text
//! benchmark [run] --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//!                 [--out <report.json>] [--spans <spans.jsonl>] [--smoke]
//! benchmark compare --a <report.json>... --b <report.json>... [--bench BENCHMARK.json]
//! ```
//!
//! The last line of stdout is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer ones). End-to-end timings are scaled to full
//! host speed by the host-speed reference, sampled through the set-ups
//! and the window ([`host::Reference`], [`host::HostClock`]); the full
//! report keeps them unscaled too. A failed output check, a ledger
//! mismatch or an invalid generator exits 1 without that line.

mod host;
mod layers;
mod loadgen;
mod report;
mod stats;
mod trace;
mod verify;
mod workload;

use host::{Host, HostClock};
use layers::LiveView;
use loadgen::{Record, Window};
use report::Metrics;
use sesr_serve::json::JsonObject;
use stats::{median, Summary};
use std::path::PathBuf;
use std::time::Instant;
use trace::SpanLog;
use workload::{Live, Mode, Plan, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Length of the slices whose median latencies `p50_ms` averages.
const SLICE_S: f64 = 1.0;
/// A run whose generator sent its tail request later than this after its
/// due time measured the generator, not the system, and is invalid.
const GEN_LATE_BOUND_MS: f64 = 20.0;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub setup_reps: usize,
    pub spans: Option<PathBuf>,
}

pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    /// Scaled to full host speed: every interval measured on the
    /// [`HostClock`] of the run.
    pub end_to_end: Metrics,
    pub unscaled: Metrics,
    /// The window's wall time over its time at full host speed.
    pub slowdown: f64,
    /// Pooled latency of the window, unscaled: median and rule-chosen tail.
    pub latency: Summary,
    pub per_layer: Option<Metrics>,
    pub host: Host,
    pub details: String,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("compare") => report::compare_cmd(&args[1..]),
        Some("run") => run_cmd(&args[1..]),
        _ => run_cmd(&args),
    };
    std::process::exit(code);
}

fn run_usage(msg: &str) -> i32 {
    eprintln!("benchmark: {msg}");
    eprintln!(
        "usage: benchmark [run] --workload <{}> --seed <n> [--seconds <s>] [--trace 0|1] \
         [--out <report.json>] [--spans <spans.jsonl>] [--smoke]",
        Workload::ALL.map(Workload::name).join("|")
    );
    2
}

fn run_cmd(args: &[String]) -> i32 {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 20.0f64, false);
    let (mut out, mut spans, mut smoke) = (None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let Some(value) = it.next() else {
            return run_usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return run_usage(&format!("unknown workload {value:?}")),
            },
            "--seed" => match value.parse() {
                Ok(v) => seed = v,
                Err(_) => return run_usage(&format!("bad seed {value:?}")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v.is_finite() && (0.5..=600.0).contains(&v) => seconds = v,
                _ => return run_usage(&format!("bad --seconds {value:?} (0.5 to 600)")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return run_usage("--trace takes 0 or 1"),
            },
            "--out" => out = Some(PathBuf::from(value)),
            "--spans" => spans = Some(PathBuf::from(value)),
            other => return run_usage(&format!("unknown flag {other}")),
        }
    }
    let Some(workload) = workload else {
        return run_usage("--workload is required");
    };
    if smoke {
        seconds = 1.0;
    }
    let spans = spans.or_else(|| {
        trace.then(|| {
            PathBuf::from(format!(
                ".bench_out/spans-{}-s{seed}.jsonl",
                workload.name()
            ))
        })
    });
    let cfg = RunConfig {
        workload,
        seed,
        seconds,
        trace,
        setup_reps: if smoke { 1 } else { SETUP_REPS },
        spans,
    };
    match run(&cfg).and_then(|o| emit(&cfg, &o, out.as_deref())) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("benchmark: {e}");
            1
        }
    }
}

/// Prints the human summary and the result line, and writes the full
/// report when asked.
fn emit(cfg: &RunConfig, o: &RunOutput, out: Option<&std::path::Path>) -> Result<(), String> {
    let shown = match &o.per_layer {
        Some(p) if cfg.trace => p,
        _ => &o.end_to_end,
    };
    let line = report::checked(report::result_line(o.attempted, o.failed, shown))?;
    if let Some(path) = out {
        let full = report::FullReport {
            workload: cfg.workload.name(),
            seed: cfg.seed,
            seconds: cfg.seconds,
            trace: cfg.trace,
            attempted: o.attempted,
            failed: o.failed,
            host: o.host.to_json(),
            end_to_end: &o.end_to_end,
            per_layer: o.per_layer.as_ref(),
            details: o.details.clone(),
        };
        let doc = report::checked(full.to_json())?;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, doc + "\n").map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!(
        "workload {} seed {} ({} s window): {} attempted, {} failed, outputs verified",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        o.attempted,
        o.failed
    );
    println!(
        "host: {} cores, {}, kernels {}, peak {:.1} GFLOP/s fma, {:.1} GB/s copy",
        o.host.nproc, o.host.cpu_model, o.host.kernel_variant, o.host.fma_gflops, o.host.copy_gbs
    );
    println!(
        "end to end, scaled to full host speed (host slowdown {:.4}):",
        o.slowdown
    );
    print!("{}", report::human(&o.end_to_end));
    println!("unscaled:");
    print!("{}", report::human(&o.unscaled));
    let lat = &o.latency;
    println!(
        "  pooled over the window, unscaled: p50 {:.4} ms, p{} {:.4} ms ({} samples, {} beyond; no bound)",
        lat.p50,
        lat.tail_permille as f64 / 10.0,
        lat.tail,
        lat.n,
        lat.beyond()
    );
    if let Some(p) = &o.per_layer {
        print!("{}", report::human(p));
    }
    println!("{line}");
    Ok(())
}

/// Runs one workload: set up (several times), drive the timed window,
/// check every output, then (traced) measure each layer.
pub fn run(cfg: &RunConfig) -> Result<RunOutput, String> {
    let nproc = host::nproc();
    if loadgen::GENERATOR_THREADS > nproc {
        return Err(format!(
            "the load generator needs {} threads but this box has {nproc}",
            loadgen::GENERATOR_THREADS
        ));
    }
    sesr_tensor::parallel::set_num_threads(1);
    let mut plan = Plan::build(cfg.workload, cfg.seed, cfg.seconds);
    // Samples the host's speed through the set-ups and the window.
    let sampler = host::RefSampler::start();
    let mut setups = Vec::new();
    let mut live: Option<Live> = None;
    for _ in 0..cfg.setup_reps.max(1) {
        if let Some(previous) = live.take() {
            previous.shutdown();
        }
        let t = Instant::now();
        live = Some(Live::start(&mut plan)?);
        setups.push((t, Instant::now()));
    }
    let setup_s: Vec<f64> = setups
        .iter()
        .map(|(a, b)| (*b - *a).as_secs_f64())
        .collect();
    let live = live.expect("at least one set-up ran");
    let log = cfg.trace.then(|| SpanLog::new(Instant::now()));
    let before = live.router.telemetry();
    let window = loadgen::drive(&live, &plan, log.as_ref());
    let after = live.router.telemetry();
    let ref_samples = sampler.finish();
    // Peak memory is read before any reference output is computed.
    let rss = host::peak_rss_mb();
    let on_shard0: Vec<bool> = window
        .records
        .iter()
        .map(|r| layers::router_shard(&live.router, &plan, &r.request) == Some(0))
        .collect();
    let session_stats: Vec<_> = live
        .sessions
        .iter()
        .map(|&id| live.router.video_session_stats(id))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("video session stats: {e}"))?;
    live.shutdown();

    let problems = after.reconcile();
    if !problems.is_empty() {
        return Err(format!("router ledger: {}", problems.join("; ")));
    }
    let verdict = verify::verify(&plan, &live, &window.records)?;
    let degraded = after.counters.degraded_completed - before.counters.degraded_completed;
    if verdict.degraded != degraded {
        return Err(format!(
            "{} outputs matched a degraded architecture but the router completed {degraded} degraded requests",
            verdict.degraded
        ));
    }
    let late = layers::late_summary(&window.records);
    if late.tail > GEN_LATE_BOUND_MS {
        return Err(format!(
            "invalid run: the generator sent its p{} request {:.2} ms late (bound {GEN_LATE_BOUND_MS} ms)",
            late.tail_permille as f64 / 10.0,
            late.tail
        ));
    }

    let ref_ms = median(&ref_samples.iter().map(|s| s.ms).collect::<Vec<_>>());
    let Some(clock) = HostClock::from_samples(&ref_samples) else {
        return Err(format!(
            "no usable host-speed reference ({} samples, median {ref_ms} ms)",
            ref_samples.len()
        ));
    };
    let slowdown =
        (window.end - window.start).as_secs_f64() / clock.seconds(window.start, window.end);
    let (end_to_end, raw, latency) = end_to_end(&plan, &window, &setups, &clock);
    let host = Host::probe();
    let per_layer = match &log {
        Some(log) => {
            let view = LiveView {
                plan: &plan,
                live: &live,
                window_start: window.start,
                records: &window.records,
                on_shard0: &on_shard0,
                before: &before,
                after: &after,
                ref_ms,
            };
            let m = layers::measure(&view, &host, log)?;
            if let Some(path) = &cfg.spans {
                log.write(path)?;
            }
            Some(m)
        }
        None => None,
    };
    for m in end_to_end
        .0
        .iter()
        .chain(per_layer.iter().flat_map(|p| &p.0))
    {
        if !m.value.is_finite() {
            return Err(format!(
                "metric {} is not a finite number ({})",
                m.name, m.value
            ));
        }
    }
    let failed = window.records.iter().filter(|r| !r.is_ok()).count() as u64;
    let skipped: u64 = session_stats.iter().map(|s| s.tiles_skipped).sum();
    let recomputed: u64 = session_stats.iter().map(|s| s.tiles_recomputed).sum();
    let details = JsonObject::new()
        .num("host_slowdown", slowdown)
        .num("host_slowdown_median", clock.overall())
        .num("ref_ms", ref_ms)
        .int("ref_samples", ref_samples.len() as u64)
        .raw("unscaled", &raw.to_json())
        .int("latency_samples", latency.n as u64)
        .num("p50_pooled_ms", latency.p50)
        .num("tail_ms", latency.tail)
        .num("tail_percentile", latency.tail_permille as f64 / 10.0)
        .int("tail_samples_beyond", latency.beyond() as u64)
        .raw(
            "setup_s",
            &sesr_serve::json::array(setup_s.iter().map(|s| format!("{s}"))),
        )
        .num("peak_rss_mb", rss)
        .num("gen_late_ms_tail", late.tail)
        .num("gen_late_percentile", late.tail_permille as f64 / 10.0)
        .num("gen_late_frac", layers::late_frac(&window.records))
        .int("outputs_checked", verdict.checked)
        .int("outputs_degraded", verdict.degraded)
        .int("references", verdict.references)
        .int("video_tiles_skipped", skipped)
        .int("video_tiles_recomputed", recomputed)
        .raw("router", &after.to_json())
        .finish();
    Ok(RunOutput {
        attempted: window.records.len() as u64,
        failed,
        end_to_end,
        unscaled: raw,
        slowdown,
        latency,
        per_layer,
        host,
        details,
    })
}

/// The end-to-end metrics of a window, scaled to full host speed, then
/// the same unscaled, then the pooled unscaled latency (median and the
/// rule-chosen tail) for the report's details: the tail follows the
/// slowest phases of a shared host too closely to carry a regression
/// bound (see the README).
fn end_to_end(
    plan: &Plan,
    window: &Window,
    setups: &[(Instant, Instant)],
    clock: &HostClock,
) -> (Metrics, Metrics, Summary) {
    let latencies: Vec<f64> = window
        .records
        .iter()
        .filter(|r| r.is_ok())
        .filter_map(Record::latency_ms)
        .collect();
    let nominal = (plan.workload.nominal_rate() * plan.seconds).round() as usize;
    let lat = Summary::at(&latencies, stats::tail_permille(nominal));
    (
        scaled_metrics(plan, window, setups, clock),
        scaled_metrics(plan, window, setups, &HostClock::constant(1.0)),
        lat,
    )
}

/// The end-to-end metrics with every interval measured on `clock`.
/// Latency runs from each request's due time. `setup_s` is the median
/// set-up. `p50_ms` is the median latency of each [`SLICE_S`] slice of
/// the window (by due time), averaged over the slices. Goodput counts
/// completions within the latency limit, per second of the open-loop
/// schedule (the offered load, which no host speed changes), or per
/// second up to the last in-window completion of a closed loop (which
/// removes the partly finished request at the window's end from the
/// rate).
fn scaled_metrics(
    plan: &Plan,
    window: &Window,
    setups: &[(Instant, Instant)],
    clock: &HostClock,
) -> Metrics {
    let served: Vec<(f64, f64, &Record)> = window
        .records
        .iter()
        .filter(|r| r.is_ok())
        .filter_map(|r| {
            let at = r.due.saturating_duration_since(window.start).as_secs_f64();
            r.done.map(|d| (at, clock.seconds(r.due, d) * 1e3, r))
        })
        .collect();
    let good: Vec<Instant> = served
        .iter()
        .filter(|(_, l, r)| *l <= r.request.limit.as_secs_f64() * 1e3)
        .filter_map(|(_, _, r)| r.done)
        .collect();
    let goodput = match plan.mode {
        Mode::Open(_) => good.len() as f64 / plan.seconds,
        Mode::Closed { .. } => {
            let inside: Vec<Instant> = good.into_iter().filter(|&d| d <= window.end).collect();
            let last = inside.iter().max().copied().unwrap_or(window.end);
            inside.len() as f64 / clock.seconds(window.start, last)
        }
    };
    let setup_s: Vec<f64> = setups.iter().map(|&(a, b)| clock.seconds(a, b)).collect();
    let latencies: Vec<(f64, f64)> = served.iter().map(|&(at, l, _)| (at, l)).collect();
    let mut m = Metrics::default();
    m.push("setup_s", median(&setup_s), "s");
    m.push(
        "p50_ms",
        stats::mean_of_slice_medians(&latencies, SLICE_S, plan.seconds),
        "ms",
    );
    m.push("goodput_rps", goodput, "req/s");
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesr_serve::json::JsonValue;

    /// `(name, unit)` of every entry of one `BENCHMARK.json` list.
    fn listed(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let doc = JsonValue::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let Some(JsonValue::Array(items)) = doc.get(&[section]) else {
            panic!("BENCHMARK.json has no {section} list");
        };
        let field = |i: &JsonValue, k: &str| {
            i.get(&[k])
                .and_then(JsonValue::as_str)
                .unwrap_or_default()
                .to_string()
        };
        items
            .iter()
            .map(|i| (field(i, "name"), field(i, "unit")))
            .collect()
    }

    fn reported(m: &Metrics) -> Vec<(String, String)> {
        m.0.iter()
            .map(|x| (x.name.clone(), x.unit.to_string()))
            .collect()
    }

    fn value(m: &Metrics, name: &str) -> f64 {
        m.0.iter().find(|x| x.name == name).expect("metric").value
    }

    /// On a clock at a slowdown of 2 every time halves: set-up, latency,
    /// and the closed loop's busy time, so its rate doubles. An open
    /// loop's goodput stays the offered load, but its limit applies to the
    /// scaled latency.
    #[test]
    fn end_to_end_times_are_divided_by_the_slowdown() {
        use std::time::Duration;
        let start = Instant::now();
        let served = |plan: &Plan, latency: Duration| -> Vec<Record> {
            plan.all_requests()
                .into_iter()
                .enumerate()
                .map(|(i, r)| {
                    let due = start + Duration::from_millis(100 * i as u64);
                    Record {
                        request: r.clone(),
                        due,
                        sent: due,
                        admitted: due,
                        done: Some(due + latency),
                        outcome: loadgen::Outcome::Ok(0),
                        span: 0,
                    }
                })
                .collect()
        };
        let setups = [2, 4, 6].map(|s| (start, start + Duration::from_secs(s)));
        let slow = HostClock::constant(2.0);

        let bulk = Plan::build(Workload::BulkF32, 1, 1.0);
        let window = Window {
            start,
            end: start + Duration::from_secs(1),
            records: served(&bulk, Duration::from_millis(400)),
        };
        let (scaled, raw, _) = end_to_end(&bulk, &window, &setups, &slow);
        assert_eq!(value(&raw, "setup_s"), 4.0);
        assert_eq!(value(&scaled, "setup_s"), 2.0);
        assert!((value(&raw, "p50_ms") - 400.0).abs() < 1e-6);
        assert!((value(&scaled, "p50_ms") - 200.0).abs() < 1e-6);
        // Two frames done 0.4 and 0.5 s into the window.
        assert!((value(&raw, "goodput_rps") - 4.0).abs() < 1e-6);
        assert!((value(&scaled, "goodput_rps") - 8.0).abs() < 1e-6);

        let interactive = Plan::build(Workload::Interactive, 1, 1.0);
        let window = Window {
            start,
            end: start + Duration::from_secs(1),
            records: served(&interactive, Duration::from_millis(60)),
        };
        let (scaled, raw, _) = end_to_end(&interactive, &window, &setups, &slow);
        // 60 ms misses the 50 ms limit; 30 ms scaled meets it.
        assert_eq!(value(&raw, "goodput_rps"), 0.0);
        assert_eq!(value(&scaled, "goodput_rps"), 40.0);
    }

    #[test]
    fn benchmark_json_lists_every_workload() {
        let names: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, Workload::ALL.map(|w| w.name().to_string()));
    }

    /// Every workload, about a second each, passes its output checks and
    /// reports exactly the end-to-end metrics `BENCHMARK.json` lists, none
    /// of them zero. An open-loop, a closed-loop and the video workload
    /// also run the traced layer pass, which must report exactly the
    /// listed per-layer metrics in their units.
    #[test]
    fn smoke_run_of_every_workload_passes_its_checks() {
        for w in Workload::ALL {
            let trace = matches!(
                w,
                Workload::Interactive | Workload::BulkInt8 | Workload::Video
            );
            let cfg = RunConfig {
                workload: w,
                seed: 11,
                seconds: 1.0,
                trace,
                setup_reps: 1,
                spans: None,
            };
            let o = run(&cfg).unwrap_or_else(|e| panic!("{} smoke run failed: {e}", w.name()));
            assert!(o.attempted > 0, "{}: nothing attempted", w.name());
            assert_eq!(o.failed, 0, "{}: failures in a smoke run", w.name());
            assert_eq!(
                reported(&o.end_to_end),
                listed("end_to_end"),
                "{}",
                w.name()
            );
            assert!(
                o.end_to_end.0.iter().all(|m| m.value > 0.0),
                "{}: zero metric",
                w.name()
            );
            if trace {
                let p = o.per_layer.expect("a traced run reports layers");
                assert_eq!(reported(&p), listed("per_layer"), "{}", w.name());
            }
        }
    }
}
