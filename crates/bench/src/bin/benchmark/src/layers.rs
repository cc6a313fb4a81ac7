//! The traced run's per-layer measurements.
//!
//! After the system under test has shut down, the workload's inputs are
//! replayed through each layer's public entry point, one layer at a time
//! on one compute thread, with a span around every call:
//!
//! | layer | entry point |
//! |---|---|
//! | `serve::router` | the live window's `Router::submit` calls and telemetry |
//! | `serve::engine` | shard 0's share, replayed into a standalone `Engine` |
//! | `serve::plan_cache`, `quant::precision` | `PlanCache::decision_for` under int8 |
//! | `core::infer_plan`, `tensor::simd` | `InferPlan::run_image_into_timed` |
//! | `quant::qplan` | `QuantPlan::run_image_into` (int8 has no per-step hook) |
//! | `core::tiling` | `TilePlanner::run_tile` / `QuantTilePlanner::run_tile` |
//! | `serve::video` | `VideoSession::process_frame` |
//!
//! A layer reached only by other workloads (int8 plans, video sessions)
//! is measured on this workload's plan shape or on the video workload's
//! frames for the same seed, so every traced run reports every metric.

use crate::host::Host;
use crate::loadgen::{Outcome, Record};
use crate::report::Metrics;
use crate::stats::{hash_f32, median, Summary};
use crate::trace::{SpanLog, SpanSink};
use crate::workload::{
    warm_bursts, Live, Mode, Plan, Request, Workload, ARCHS, FRAME, SCALE, SMALL, VIDEO,
};
use sesr_core::{CollapsedKernels, CollapsedSesr, InferPlan, TilePlan, TilePlanner};
use sesr_quant::{QuantKernels, QuantPlan, QuantTilePlanner};
use sesr_serve::{
    Engine, EngineConfig, ModelKey, PlanCache, RouterSnapshot, Snapshot, VideoSession,
};
use sesr_tensor::Tensor;
use std::hint::black_box;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Seconds of shard 0's traffic the engine replay re-sends.
const REPLAY_SECONDS: f64 = 4.0;
/// Minimum measuring time and repetitions per timed plan call.
const MIN_TIME: Duration = Duration::from_millis(150);
const MIN_REPS: usize = 5;
/// Frames of the video probe (about two sprite sweeps).
const VIDEO_FRAMES: u64 = 24;
/// A send later than this past its due time counts toward `gen.late_frac`.
const LATE_MS: f64 = 1.0;

/// Everything the per-layer pass needs from the live run.
pub struct LiveView<'a> {
    pub plan: &'a Plan,
    pub live: &'a Live,
    pub window_start: Instant,
    pub records: &'a [Record],
    /// Which records went to shard 0 (computed while the router ran).
    pub on_shard0: &'a [bool],
    pub before: &'a RouterSnapshot,
    pub after: &'a RouterSnapshot,
    /// Median host-speed reference sample of the run, ms.
    pub ref_ms: f64,
}

/// Runs every per-layer measurement and returns the metrics in the order
/// `BENCHMARK.json` lists them.
pub fn measure(view: &LiveView, host: &Host, log: &SpanLog) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    let mut sink = log.sink();
    let engine = engine_replay(view, &mut sink)?;
    router_metrics(view, &engine, &mut m);
    engine_metrics(&engine, &mut m);
    plan_metrics(view, host, &mut sink, &mut m);
    tiling_metrics(view, &mut sink, &mut m);
    video_metrics(view, &mut sink, &mut m)?;
    m.push("gen.late_ms.tail", late_summary(view.records).tail, "ms");
    m.push("gen.late_frac", late_frac(view.records), "fraction");
    m.push(
        "trace.overhead_frac",
        trace_overhead(view.records),
        "fraction",
    );
    m.push("host.fma_gflops", host.fma_gflops, "GFLOP/s");
    m.push("host.copy_gbs", host.copy_gbs, "GB/s");
    m.push("host.ref_ms", view.ref_ms, "ms");
    log.merge(Some(sink));
    Ok(m)
}

pub fn late_summary(records: &[Record]) -> Summary {
    let late: Vec<f64> = records.iter().map(Record::late_ms).collect();
    Summary::of(&late)
}

pub fn late_frac(records: &[Record]) -> f64 {
    let late = records.iter().filter(|r| r.late_ms() > LATE_MS).count();
    late as f64 / records.len().max(1) as f64
}

/// Median latency of the traced (odd-numbered) requests over that of the
/// untraced ones, minus one.
fn trace_overhead(records: &[Record]) -> f64 {
    let p50 = |traced: bool| {
        let v: Vec<f64> = records
            .iter()
            .filter(|r| r.is_ok() && (r.span != 0) == traced)
            .filter_map(Record::latency_ms)
            .collect();
        median(&v)
    };
    p50(true) / p50(false) - 1.0
}

// ---------------------------------------------------------------------------
// serve::router and serve::engine
// ---------------------------------------------------------------------------

struct EngineReplay {
    /// Indices (into the live records) of the requests replayed.
    replayed: Vec<usize>,
    records: Vec<Record>,
    snapshot: Snapshot,
}

fn router_metrics(view: &LiveView, engine: &EngineReplay, m: &mut Metrics) {
    let submit_us: Vec<f64> = view
        .records
        .iter()
        .map(|r| r.admitted.saturating_duration_since(r.sent).as_secs_f64() * 1e6)
        .collect();
    let s = Summary::of(&submit_us);
    m.push("router.submit_us.p50", s.p50, "us");
    m.push("router.submit_us.tail", s.tail, "us");
    let router_p50 = median(
        &engine
            .replayed
            .iter()
            .map(|&i| &view.records[i])
            .filter(|r| r.is_ok())
            .filter_map(Record::latency_ms)
            .collect::<Vec<_>>(),
    );
    m.push(
        "router.added_ms.p50",
        router_p50 - replay_latency(engine).p50,
        "ms",
    );
    let (b, a) = (&view.before.counters, &view.after.counters);
    m.push("router.degraded", (a.degraded - b.degraded) as f64, "count");
    m.push(
        "router.shed_batch",
        (a.shed_batch - b.shed_batch) as f64,
        "count",
    );
    m.push(
        "router.failed_deadline",
        (a.failed_deadline - b.failed_deadline) as f64,
        "count",
    );
}

fn replay_latency(engine: &EngineReplay) -> Summary {
    let v: Vec<f64> = engine
        .records
        .iter()
        .filter(|r| r.is_ok())
        .filter_map(Record::latency_ms)
        .collect();
    Summary::of(&v)
}

fn engine_metrics(engine: &EngineReplay, m: &mut Metrics) {
    let lat = replay_latency(engine);
    m.push("engine.p50_ms", lat.p50, "ms");
    m.push("engine.tail_ms", lat.tail, "ms");
    let stage = |name: &str| {
        engine
            .snapshot
            .stages
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |(_, s)| s.mean_ms)
    };
    // Stage means, not the histogram's p50: the histogram reports bucket
    // edges, which would read the same on every run.
    m.push("engine.queue_wait_ms.mean", stage("queue_wait"), "ms");
    m.push("engine.compute_ms.mean", stage("compute"), "ms");
    let c = &engine.snapshot.counters;
    let single = c.tiled_requests + c.video_frames_completed;
    let calls = c.batches + single;
    m.push(
        "engine.batch_mean",
        (c.batched_requests + single) as f64 / calls.max(1) as f64,
        "req",
    );
    let lookups = c.plan_cache_hits + c.plan_cache_misses;
    // Video frames use per-session tile planners, which count no plan
    // lookups; no lookup means nothing missed.
    let hit = if lookups == 0 {
        1.0
    } else {
        c.plan_cache_hits as f64 / lookups as f64
    };
    m.push("engine.plan_hit_frac", hit, "fraction");
}

/// Replays shard 0's share of the first `REPLAY_SECONDS` of the window
/// into a standalone engine with the fleet's engine configuration, on the
/// same schedule (open loop) or with the same per-shard concurrency
/// (closed loop). Image requests complete through `submit_with` hooks, so
/// their completion times are exact; video frames of one session settle
/// in order, so an in-order waiter is exact for them too.
fn engine_replay(view: &LiveView, sink: &mut SpanSink) -> Result<EngineReplay, String> {
    let plan = view.plan;
    let horizon = Duration::from_secs_f64(REPLAY_SECONDS.min(plan.seconds));
    let replayed: Vec<usize> = (0..view.records.len())
        .filter(|&i| {
            let r = &view.records[i];
            view.on_shard0[i] && r.due.saturating_duration_since(view.window_start) < horizon
        })
        .collect();
    let engine = Engine::new(
        EngineConfig {
            precision: plan.workload.precision(),
            ..EngineConfig::default()
        },
        view.live.router.registry(),
    );
    warm_engine(&engine, plan, view, &replayed)?;
    let records = match (&plan.mode, plan.workload) {
        (_, Workload::Video) => replay_frames(&engine, view, &replayed, sink)?,
        (Mode::Open(_), _) => replay_open(&engine, view, &replayed, sink),
        (Mode::Closed { cycles }, _) => replay_closed(&engine, view, cycles, horizon, sink),
    };
    let snapshot = engine.telemetry().snapshot();
    engine.shutdown(Duration::from_secs(60));
    crate::verify::verify(plan, view.live, &records).map_err(|e| format!("engine replay: {e}"))?;
    Ok(EngineReplay {
        replayed,
        records,
        snapshot,
    })
}

fn warm_engine(
    engine: &Engine,
    plan: &Plan,
    view: &LiveView,
    replayed: &[usize],
) -> Result<(), String> {
    if plan.workload == Workload::Video {
        let id = engine
            .open_video_session(plan.session_spec())
            .map_err(|e| format!("open replay warm-up session: {e}"))?;
        for seq in 0..4u64 {
            let frame = plan.images[seq as usize % plan.images.len()].clone();
            engine
                .feed_video_frame(id, seq, frame, None)
                .map_err(|e| format!("replay warm-up frame: {e}"))?
                .wait()
                .map_err(|e| format!("replay warm-up frame: {e}"))?;
        }
        return engine
            .close_video_session(id)
            .map(|_| ())
            .map_err(|e| format!("close replay warm-up session: {e}"));
    }
    for r in plan.distinct_kinds(replayed.iter().map(|&i| &view.records[i].request)) {
        let (rounds, burst) = warm_bursts(&plan.images[r.input]);
        for _ in 0..rounds {
            let tickets = (0..burst)
                .map(|_| engine.submit(&r.key(), plan.images[r.input].clone(), None))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("replay warm-up refused: {e}"))?;
            for t in tickets {
                t.wait()
                    .map_err(|e| format!("replay warm-up failed: {e}"))?;
            }
        }
    }
    Ok(())
}

type Done = (usize, Instant, Result<u64, String>);

fn hook(tx: &mpsc::Sender<Done>, idx: usize) -> sesr_serve::Completion {
    let tx = tx.clone();
    Box::new(move |res| {
        let done = Instant::now();
        let res = res
            .map(|out| hash_f32(out.data()))
            .map_err(|e| e.to_string());
        // The receiver lives until every hook has fired.
        let _ = tx.send((idx, done, res));
    })
}

fn replay_record(req: &Request, due: Instant, sent: Instant, done: Done) -> Record {
    let (_, at, res) = done;
    Record {
        request: req.clone(),
        due,
        sent,
        admitted: sent,
        done: Some(at),
        outcome: match res {
            Ok(h) => Outcome::Ok(h),
            Err(e) => Outcome::Failed(e),
        },
        span: 0,
    }
}

fn replay_open(
    engine: &Engine,
    view: &LiveView,
    replayed: &[usize],
    sink: &mut SpanSink,
) -> Vec<Record> {
    let plan = view.plan;
    let start = Instant::now() + Duration::from_millis(20);
    let (tx, rx) = mpsc::channel::<Done>();
    let mut sent = Vec::with_capacity(replayed.len());
    for (k, &i) in replayed.iter().enumerate() {
        let live = &view.records[i];
        let due = start + live.due.saturating_duration_since(view.window_start);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let at = Instant::now();
        let r = &live.request;
        engine.submit_with(
            &r.key(),
            plan.images[r.input].clone(),
            Some(at + r.deadline),
            hook(&tx, k),
        );
        sent.push((due, at));
    }
    drop(tx);
    let mut records: Vec<Option<Record>> = vec![None; replayed.len()];
    for done in rx {
        let k = done.0;
        let (due, at) = sent[k];
        let rec = replay_record(&view.records[replayed[k]].request, due, at, done);
        if let Some(end) = rec.done {
            let id = sink.reserve();
            sink.record_root("engine.request", due, end, id);
        }
        records[k] = Some(rec);
    }
    records.into_iter().flatten().collect()
}

fn replay_closed(
    engine: &Engine,
    view: &LiveView,
    cycles: &[Vec<Request>],
    horizon: Duration,
    sink: &mut SpanSink,
) -> Vec<Record> {
    let plan = view.plan;
    let router = &view.live.router;
    // Shard 0's request stream and its share of the client slots.
    let stream: Vec<&Request> = cycles
        .iter()
        .flatten()
        .filter(|r| router_shard(router, plan, r) == Some(0))
        .collect();
    let slots = (cycles.len() * stream.len())
        .div_ceil(cycles.iter().map(Vec::len).sum::<usize>().max(1))
        .max(1);
    let start = Instant::now();
    let end = start + horizon;
    let (tx, rx) = mpsc::channel::<Done>();
    let mut sent: Vec<(Instant, Instant)> = Vec::new();
    let send = |k: usize, due: Instant, sent: &mut Vec<(Instant, Instant)>| {
        let r = stream[k % stream.len()];
        let at = Instant::now();
        engine.submit_with(
            &r.key(),
            plan.images[r.input].clone(),
            Some(at + r.deadline),
            hook(&tx, k),
        );
        sent.push((due, at));
    };
    for k in 0..slots {
        send(k, start, &mut sent);
    }
    let mut records = Vec::new();
    let mut outstanding = slots;
    while outstanding > 0 {
        let Ok(done) = rx.recv() else { break };
        outstanding -= 1;
        let k = done.0;
        let (due, at) = sent[k];
        let rec = replay_record(stream[k % stream.len()], due, at, done);
        let freed = rec.done.expect("replay records are stamped");
        let id = sink.reserve();
        sink.record_root("engine.request", due, freed, id);
        records.push(rec);
        if freed < end {
            send(sent.len(), freed, &mut sent);
            outstanding += 1;
        }
    }
    records
}

fn replay_frames(
    engine: &Engine,
    view: &LiveView,
    replayed: &[usize],
    sink: &mut SpanSink,
) -> Result<Vec<Record>, String> {
    let plan = view.plan;
    let id = engine
        .open_video_session(plan.session_spec())
        .map_err(|e| format!("open replay session: {e}"))?;
    let start = Instant::now() + Duration::from_millis(20);
    let (tx, rx) = mpsc::channel::<(usize, Instant, sesr_serve::Ticket)>();
    let records = std::thread::scope(|s| {
        let waiter = s.spawn(move || {
            rx.into_iter()
                .map(|(k, due, ticket)| {
                    let res = ticket.wait();
                    (k, due, Instant::now(), res.map(|t| hash_f32(t.data())))
                })
                .collect::<Vec<_>>()
        });
        for (k, &i) in replayed.iter().enumerate() {
            let live = &view.records[i];
            let due = start + live.due.saturating_duration_since(view.window_start);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let (_, seq) = live.request.frame.expect("video requests are frames");
            match engine.feed_video_frame(
                id,
                seq,
                plan.images[live.request.input].clone(),
                Some(live.request.deadline),
            ) {
                Ok(t) => tx.send((k, due, t)).expect("waiter outlives the sender"),
                Err(e) => return Err(format!("replay frame refused: {e}")),
            }
        }
        drop(tx);
        Ok(waiter.join().expect("replay waiter panicked"))
    })?;
    Ok(records
        .into_iter()
        .map(|(k, due, done, res)| {
            let id = sink.reserve();
            sink.record_root("engine.frame", due, done, id);
            Record {
                request: view.records[replayed[k]].request.clone(),
                due,
                sent: due,
                admitted: due,
                done: Some(done),
                outcome: match res {
                    Ok(h) => Outcome::Ok(h),
                    Err(e) => Outcome::Failed(e.to_string()),
                },
                span: 0,
            }
        })
        .collect())
}

/// The shard `req` routes to on the live router.
pub fn router_shard(router: &sesr_serve::Router, plan: &Plan, req: &Request) -> Option<usize> {
    match req.frame {
        // Client `k`'s session was pinned to shard `k`.
        Some((session, _)) => Some(session),
        None => router.route_of(&plan.tenants[req.tenant], &req.key()),
    }
}

// ---------------------------------------------------------------------------
// core::infer_plan, quant::qplan, serve::plan_cache
// ---------------------------------------------------------------------------

/// Median seconds per call of `f(i)` for each `i < n`, over at least
/// `MIN_REPS` calls each and `MIN_TIME` per callee. The callees run in
/// turn, so every one samples the same stretches of host time and their
/// ratios hold even while the host's speed drifts.
fn time_calls(n: usize, mut f: impl FnMut(usize)) -> Vec<f64> {
    let mut samples = vec![Vec::new(); n];
    let start = Instant::now();
    while samples[0].len() < MIN_REPS || start.elapsed() < MIN_TIME * n as u32 {
        for (i, s) in samples.iter_mut().enumerate() {
            let t = Instant::now();
            f(i);
            s.push(t.elapsed().as_secs_f64());
        }
    }
    samples.iter().map(|s| median(s)).collect()
}

/// The shape the plan layer executes most in this workload, and inputs
/// of that shape cut from the workload's own images.
fn plan_inputs(plan: &Plan, live: &Live) -> (usize, usize, Vec<Tensor>) {
    let arch = plan.workload.main_arch();
    let model = live.model(arch);
    match plan.workload {
        Workload::Interactive => {
            let small: Vec<Tensor> = plan
                .images
                .iter()
                .filter(|i| i.shape() == [1, SMALL.0, SMALL.1])
                .cloned()
                .collect();
            (SMALL.0, SMALL.1, small)
        }
        Workload::BulkF32 | Workload::BulkInt8 | Workload::Video => {
            let (frame, tile) = tiling_frame(plan);
            let tiles = model
                .plan_tiles(frame.0, frame.1, tile, halo(plan, live))
                .expect("tile geometry is valid");
            let (h, w) = common_patch(&tiles);
            let spec = tiles
                .tiles()
                .iter()
                .find(|t| (t.patch_h(), t.patch_w()) == (h, w))
                .expect("the common patch shape occurs");
            let crops = plan
                .images
                .iter()
                .map(|i| i.crop_hw(spec.ey0, spec.ey1, spec.ex0, spec.ex1))
                .collect();
            (h, w, crops)
        }
    }
}

/// The frame the tiling layer replays and the tile side the system uses
/// on it: the engine's tile for large frames, the session tile for video.
fn tiling_frame(plan: &Plan) -> ((usize, usize), usize) {
    match plan.workload {
        Workload::Video => (VIDEO, plan.session_spec().tile),
        Workload::BulkF32 | Workload::BulkInt8 => (FRAME, EngineConfig::default().tile),
        Workload::Interactive => (SMALL, EngineConfig::default().tile),
    }
}

/// The halo the system runs tiles with: the receptive field of the
/// served model, or of the whole ladder for video sessions.
fn halo(plan: &Plan, live: &Live) -> usize {
    match plan.workload {
        Workload::Video => live
            .models
            .iter()
            .map(|m| m.receptive_field_radius())
            .max()
            .unwrap_or(0),
        w => live.model(w.main_arch()).receptive_field_radius(),
    }
}

fn common_patch(tiles: &TilePlan) -> (usize, usize) {
    let mut counts: Vec<((usize, usize), usize)> = Vec::new();
    for t in tiles.tiles() {
        let shape = (t.patch_h(), t.patch_w());
        match counts.iter_mut().find(|(s, _)| *s == shape) {
            Some((_, n)) => *n += 1,
            None => counts.push((shape, 1)),
        }
    }
    counts
        .into_iter()
        .max_by_key(|&(_, n)| n)
        .map(|(s, _)| s)
        .expect("a tile plan has tiles")
}

/// Multiply-accumulates of each layer at an `h x w` input (same padding,
/// stride 1; Winograd layers counted as their direct-convolution MACs).
fn layer_macs(kernels: &CollapsedKernels, h: usize, w: usize) -> Vec<f64> {
    kernels
        .layers()
        .iter()
        .map(|l| (l.cout * l.cin * l.kh * l.kw * h * w) as f64)
        .collect()
}

fn plan_metrics(view: &LiveView, host: &Host, sink: &mut SpanSink, m: &mut Metrics) {
    let plan = view.plan;
    let live = view.live;
    let arch = plan.workload.main_arch();
    let model = live.model(arch);
    let (h, w, inputs) = plan_inputs(plan, live);
    let peak = host.peak_gmac_s();

    let key = ModelKey::new(arch, SCALE);
    let grade_s = time_calls(1, |_| {
        let t = Instant::now();
        let mut cache = PlanCache::new();
        black_box(cache.decision_for(&key, model, 1.0));
        sink.record("plan_cache.decision_for", t, Instant::now(), 0, 0);
    })[0];
    m.push("plan_cache.grade_ms", grade_s * 1e3, "ms");
    let f32_compile = time_calls(1, |_| {
        let k = Arc::new(CollapsedKernels::new(model));
        black_box(InferPlan::new(k, h, w));
    })[0];
    m.push("plan.f32.compile_ms", f32_compile * 1e3, "ms");
    let qnets: Vec<_> = live
        .models
        .iter()
        .map(|m| crate::verify::engine_quantized(m))
        .collect();
    let main = ARCHS
        .iter()
        .position(|a| *a == arch)
        .expect("main arch served");
    let int8_compile = time_calls(1, |_| {
        let k = Arc::new(QuantKernels::new(&qnets[main]));
        black_box(QuantPlan::new(k, h, w));
    })[0];
    m.push("plan.int8.compile_ms", int8_compile * 1e3, "ms");

    // f32 whole plan and its steps, grouped by role: the first 5x5, the
    // 3x3 body, and the 5x5 head that feeds depth-to-space.
    let kernels = Arc::new(CollapsedKernels::new(model));
    let macs = layer_macs(&kernels, h, w);
    let mut p = InferPlan::new(kernels.clone(), h, w);
    let mut out = vec![0.0f32; h * w * SCALE * SCALE];
    let steps = p.num_steps();
    let mut per_step: Vec<Vec<f64>> = vec![Vec::new(); steps];
    let mut k = 0usize;
    let whole = time_calls(1, |_| {
        let input = &inputs[k % inputs.len()];
        k += 1;
        let mut nanos = vec![0u64; steps];
        let t = Instant::now();
        p.run_image_into_timed(input.data(), &mut out, &mut nanos);
        let end = Instant::now();
        let run = sink.record("plan.f32.run", t, end, 0, 0);
        let mut at = t;
        for (i, ns) in nanos.iter().enumerate() {
            let next = at + Duration::from_nanos(*ns);
            sink.record(format!("plan.f32.step{i}"), at, next, run, 0);
            per_step[i].push(*ns as f64 * 1e-9);
            at = next;
        }
    })[0];
    let total_macs: f64 = macs.iter().sum();
    m.push("plan.f32.ms", whole * 1e3, "ms");
    m.push("plan.f32.gmac_s", total_macs / whole / 1e9, "GMAC/s");
    m.push(
        "plan.f32.pct_peak",
        total_macs / whole / 1e9 / peak * 100.0,
        "%",
    );
    let step_s: Vec<f64> = per_step.iter().map(|v| median(v)).collect();
    let roles = [
        ("first", 0..1),
        ("body", 1..steps - 1),
        ("head", steps - 1..steps),
    ];
    for (role, range) in roles {
        let secs: f64 = step_s[range.clone()].iter().sum();
        let role_macs: f64 = macs[range].iter().sum();
        m.push(format!("plan.f32.{role}.ms"), secs * 1e3, "ms");
        m.push(
            format!("plan.f32.{role}.gmac_s"),
            role_macs / secs / 1e9,
            "GMAC/s",
        );
        m.push(
            format!("plan.f32.{role}.pct_peak"),
            role_macs / secs / 1e9 / peak * 100.0,
            "%",
        );
    }
    let mut plans: Vec<InferPlan> = live
        .models
        .iter()
        .map(|model| InferPlan::new(Arc::new(CollapsedKernels::new(model)), h, w))
        .collect();
    let secs = time_calls(plans.len(), |i| {
        plans[i].run_image_into(inputs[0].data(), &mut out)
    });
    for (a, s) in ARCHS.iter().zip(secs) {
        m.push(
            format!("plan.f32.{a}.mpix_s"),
            (h * w) as f64 / s / 1e6,
            "Mpix/s",
        );
    }

    let mut q = QuantPlan::new(Arc::new(QuantKernels::new(&qnets[main])), h, w);
    let mut k = 0usize;
    let int8 = time_calls(1, |_| {
        let input = &inputs[k % inputs.len()];
        k += 1;
        let t = Instant::now();
        q.run_image_into(input.data(), &mut out);
        sink.record("plan.int8.run", t, Instant::now(), 0, 0);
    })[0];
    m.push("plan.int8.ms", int8 * 1e3, "ms");
    m.push("plan.int8.gmac_s", total_macs / int8 / 1e9, "GMAC/s");
    m.push(
        "plan.int8.pct_peak",
        total_macs / int8 / 1e9 / peak * 100.0,
        "%",
    );
    let mut qplans: Vec<QuantPlan> = qnets
        .iter()
        .map(|qnet| QuantPlan::new(Arc::new(QuantKernels::new(qnet)), h, w))
        .collect();
    let secs = time_calls(qplans.len(), |i| {
        qplans[i].run_image_into(inputs[0].data(), &mut out)
    });
    for (a, s) in ARCHS.iter().zip(secs) {
        m.push(
            format!("plan.int8.{a}.mpix_s"),
            (h * w) as f64 / s / 1e6,
            "Mpix/s",
        );
    }
}

// ---------------------------------------------------------------------------
// core::tiling
// ---------------------------------------------------------------------------

fn tiling_metrics(view: &LiveView, sink: &mut SpanSink, m: &mut Metrics) {
    let plan = view.plan;
    let live = view.live;
    let model: &Arc<CollapsedSesr> = live.model(plan.workload.main_arch());
    let (frame, tile) = tiling_frame(plan);
    let image = plan
        .images
        .iter()
        .find(|i| i.shape() == [1, frame.0, frame.1])
        .expect("the workload has a frame of its tiling shape");
    let tiles = model
        .plan_tiles(frame.0, frame.1, tile, halo(plan, live))
        .expect("tile geometry is valid");
    let patch_px: usize = tiles
        .tiles()
        .iter()
        .map(|t| t.patch_h() * t.patch_w())
        .sum();
    let halo_frac = (patch_px - frame.0 * frame.1) as f64 / patch_px as f64;

    // Whole frame and tiles are timed in turn, so the ratio holds while
    // the host's speed drifts.
    let kernels = Arc::new(CollapsedKernels::new(model));
    let mut whole = InferPlan::with_bands(kernels.clone(), frame.0, frame.1, 1);
    let mut planner = TilePlanner::new(kernels.clone());
    let f32_s = time_calls(2, |i| {
        if i == 0 {
            black_box(whole.run(image));
            return;
        }
        let frame_start = Instant::now();
        let parent = sink.reserve();
        for spec in tiles.tiles() {
            let t = Instant::now();
            black_box(planner.run_tile(image, spec));
            sink.record("tiling.f32.tile", t, Instant::now(), parent, parent);
        }
        sink.record_root("tiling.f32.frame", frame_start, Instant::now(), parent);
    });
    m.push("tiling.f32.overhead_x", f32_s[1] / f32_s[0], "x");

    let qk = Arc::new(QuantKernels::new(&crate::verify::engine_quantized(model)));
    let mut qwhole = QuantPlan::with_bands(qk.clone(), frame.0, frame.1, 1);
    let mut qplanner = QuantTilePlanner::new(qk);
    let int8_s = time_calls(2, |i| {
        if i == 0 {
            black_box(qwhole.run(image));
            return;
        }
        for spec in tiles.tiles() {
            black_box(qplanner.run_tile(image, spec));
        }
    });
    m.push("tiling.int8.overhead_x", int8_s[1] / int8_s[0], "x");
    m.push("tiling.halo_frac", halo_frac, "fraction");

    // The engine builds a fresh planner for every tiled request; its
    // first tile pays the plan compile.
    let first = tiles.tiles()[0];
    let cold = time_calls(1, |_| {
        let mut p = TilePlanner::new(kernels.clone());
        black_box(p.plan_for(first.patch_h(), first.patch_w()));
    })[0];
    m.push("tiling.planner_cold_ms", cold * 1e3, "ms");
}

// ---------------------------------------------------------------------------
// serve::video
// ---------------------------------------------------------------------------

fn video_metrics(view: &LiveView, sink: &mut SpanSink, m: &mut Metrics) -> Result<(), String> {
    let video = Plan::build(Workload::Video, view.plan.seed, 4.0);
    let ladder: Vec<Arc<CollapsedSesr>> = view.live.models.clone();
    let mut session = VideoSession::new(video.session_spec(), &ladder)
        .map_err(|e| format!("video probe session: {e}"))?;
    let mut cache = PlanCache::new();
    session.warm_plans(&ladder, &mut cache);
    let Mode::Open(requests) = &video.mode else {
        unreachable!("video is open loop");
    };
    let frames: Vec<&Request> = requests
        .iter()
        .filter(|r| r.frame.is_some_and(|(s, seq)| s == 0 && seq < VIDEO_FRAMES))
        .collect();
    let mut frame_ms = Vec::new();
    let (mut skipped, mut total, mut recomputed) = (0u64, 0u64, 0u64);
    for r in &frames {
        let (_, seq) = r.frame.expect("filtered to frames");
        let t = Instant::now();
        let res = session
            .process_frame(seq, &video.images[r.input], None, &ladder, &mut cache)
            .map_err(|e| format!("video probe frame {seq}: {e}"))?;
        let end = Instant::now();
        sink.record("video.process_frame", t, end, 0, 0);
        frame_ms.push((end - t).as_secs_f64() * 1e3);
        skipped += res.stats.tiles_skipped;
        recomputed += res.stats.tiles_recomputed;
        total += res.stats.tiles_total;
    }
    m.push("video.frame_ms.p50", median(&frame_ms), "ms");
    m.push(
        "video.skip_frac",
        skipped as f64 / total.max(1) as f64,
        "fraction",
    );
    m.push(
        "video.recomputed_per_frame",
        recomputed as f64 / frames.len().max(1) as f64,
        "tiles",
    );
    Ok(())
}
