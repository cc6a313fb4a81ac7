//! End-to-end tests of the serving engine: correctness of batched and
//! large-frame execution against direct `CollapsedSesr::run`, the typed
//! backpressure and deadline paths, registry LRU behavior through the
//! engine, and telemetry export.

use sesr_core::model::{Sesr, SesrConfig};
use sesr_core::model_io::save_model;
use sesr_core::CollapsedSesr;
use sesr_serve::engine::{Engine, EngineConfig, Health, ServeError, SubmitError, Ticket};
use sesr_serve::registry::{ModelKey, ModelRegistry};
use sesr_tensor::Tensor;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn tiny_model(seed: u64) -> CollapsedSesr {
    Sesr::new(SesrConfig::m(2).with_expanded(8).with_seed(seed)).collapse()
}

fn registry_with(key: &ModelKey, model: CollapsedSesr) -> Arc<ModelRegistry> {
    let r = Arc::new(ModelRegistry::new(4));
    r.insert(key.clone(), model);
    r
}

fn img(seed: u64, h: usize, w: usize) -> Tensor {
    Tensor::rand_uniform(&[1, h, w], 0.0, 1.0, seed)
}

#[test]
fn batched_results_equal_individual_runs() {
    let key = ModelKey::new("m2", 2);
    let model = tiny_model(1);
    let registry = registry_with(&key, tiny_model(1));
    let engine = Engine::new(
        EngineConfig {
            workers: 1,
            max_batch: 4,
            ..EngineConfig::default()
        },
        registry,
    );
    // Pause so all four requests are queued together, guaranteeing the
    // worker assembles them into one micro-batch.
    engine.pause();
    let inputs: Vec<Tensor> = (0..4).map(|i| img(10 + i, 12, 16)).collect();
    let tickets: Vec<_> = inputs
        .iter()
        .map(|x| engine.submit(&key, x.clone(), None).unwrap())
        .collect();
    engine.resume();
    for (x, t) in inputs.iter().zip(tickets) {
        let served = t.wait().unwrap();
        let direct = model.run(x);
        assert_eq!(served.shape(), direct.shape());
        let diff = served
            .data()
            .iter()
            .zip(direct.data())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert_eq!(diff, 0.0, "batched result must be bit-identical");
    }
    let c = engine.telemetry().snapshot().counters;
    assert_eq!(c.completed, 4);
    assert!(c.batches >= 1);
    assert_eq!(c.batched_requests, 4);
    assert_eq!(c.max_batch, 4, "paused submissions must form one batch");
}

#[test]
fn queue_full_is_an_explicit_rejection() {
    let key = ModelKey::new("m2", 2);
    let registry = registry_with(&key, tiny_model(2));
    let engine = Engine::new(
        EngineConfig {
            workers: 1,
            queue_capacity: 3,
            ..EngineConfig::default()
        },
        registry,
    );
    engine.pause();
    for i in 0..3 {
        engine.submit(&key, img(i, 8, 8), None).unwrap();
    }
    let err = engine.submit(&key, img(9, 8, 8), None).unwrap_err();
    assert_eq!(err, SubmitError::QueueFull { capacity: 3 });
    assert_eq!(engine.queue_depth(), 3);
    engine.resume();
    let c = engine.telemetry().snapshot().counters;
    assert_eq!(c.rejected_queue_full, 1);
    assert_eq!(c.submitted, 3);
}

#[test]
fn expired_deadlines_are_dropped_before_compute() {
    let key = ModelKey::new("m2", 2);
    let registry = registry_with(&key, tiny_model(3));
    let engine = Engine::new(
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
        registry,
    );
    engine.pause();
    let doomed = engine
        .submit(&key, img(1, 8, 8), Some(Duration::from_millis(1)))
        .unwrap();
    let fine = engine
        .submit(&key, img(2, 8, 8), Some(Duration::from_secs(3600)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(20));
    engine.resume();
    assert_eq!(doomed.wait().unwrap_err(), ServeError::DeadlineExpired);
    fine.wait().unwrap();
    let c = engine.telemetry().snapshot().counters;
    assert_eq!(c.rejected_deadline, 1);
    assert_eq!(c.completed, 1);
}

#[test]
fn unknown_model_is_rejected_at_submit() {
    let registry = Arc::new(ModelRegistry::new(2));
    let engine = Engine::new(EngineConfig::default(), registry);
    let key = ModelKey::new("nope", 2);
    let err = engine.submit(&key, img(0, 8, 8), None).unwrap_err();
    assert_eq!(err, SubmitError::UnknownModel(key));
}

#[test]
fn large_frames_run_whole_through_a_streamed_plan_and_stay_bit_exact() {
    let key = ModelKey::new("m2", 2);
    let model = tiny_model(4);
    let registry = registry_with(&key, tiny_model(4));
    let engine = Engine::new(
        EngineConfig {
            workers: 1,
            tile_threshold_px: 24 * 24, // low threshold: the request is a large frame
            ..EngineConfig::default()
        },
        registry,
    );
    // Tall enough that the plan streams row groups through its rings.
    let x = img(7, 150, 26);
    let served = engine
        .submit(&key, x.clone(), None)
        .unwrap()
        .wait()
        .unwrap();
    let direct = model.run(&x);
    let diff = served
        .data()
        .iter()
        .zip(direct.data())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert_eq!(diff, 0.0, "large-frame serving must match whole-image run");
    let c = engine.telemetry().snapshot().counters;
    assert_eq!(
        (c.batches, c.tiled_requests, c.tiles_run),
        (1, 0, 0),
        "{c:?}"
    );
    assert!(c.peak_arena_bytes > 0, "{c:?}");
}

#[test]
fn lazy_load_and_lru_eviction_through_the_engine() {
    let dir = std::env::temp_dir().join("sesr_engine_lru_test");
    std::fs::create_dir_all(&dir).unwrap();
    let registry = Arc::new(ModelRegistry::new(2));
    let keys: Vec<ModelKey> = (0..3)
        .map(|i| {
            let key = ModelKey::new(&format!("m2v{i}"), 2);
            let path: PathBuf = dir.join(format!("{key}.sesr"));
            save_model(&tiny_model(20 + i as u64), &path).unwrap();
            registry.register_path(key.clone(), path);
            key
        })
        .collect();
    let engine = Engine::new(
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
        Arc::clone(&registry),
    );
    for key in &keys {
        engine
            .submit(key, img(1, 8, 8), None)
            .unwrap()
            .wait()
            .unwrap();
    }
    let s = registry.stats();
    assert_eq!(s.loads, 3, "each model lazily loads on first use");
    assert_eq!(s.evictions, 1, "capacity 2 must evict once for 3 models");
    assert_eq!(s.resident, 2);
    // Re-serving the evicted model reloads it.
    engine
        .submit(&keys[0], img(2, 8, 8), None)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(registry.stats().loads, 4);
}

#[test]
fn load_failure_surfaces_as_serve_error() {
    let registry = Arc::new(ModelRegistry::new(2));
    let key = ModelKey::new("ghost", 2);
    registry.register_path(key.clone(), PathBuf::from("/nonexistent/ghost.sesr"));
    let engine = Engine::new(
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
        registry,
    );
    let err = engine
        .submit(&key, img(0, 8, 8), None)
        .unwrap()
        .wait()
        .unwrap_err();
    assert!(matches!(err, ServeError::ModelLoad(_)));
    // Load failures are retryable: the request is re-attempted
    // max_retries times before the typed error becomes terminal.
    let c = engine.telemetry().snapshot().counters;
    let attempts = 1 + u64::from(EngineConfig::default().max_retries);
    assert_eq!(c.model_load_failures, attempts);
    assert_eq!(c.requests_retried, attempts - 1);
}

#[test]
fn invalid_inputs_are_rejected_before_enqueue() {
    let key = ModelKey::new("m2", 2);
    let registry = registry_with(&key, tiny_model(8));
    let engine = Engine::new(
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
        registry,
    );
    let nan = {
        let mut t = img(1, 8, 8);
        t.data_mut()[3] = f32::NAN;
        t
    };
    let inf = {
        let mut t = img(2, 8, 8);
        t.data_mut()[0] = f32::INFINITY;
        t
    };
    // Zero-dim tensors are unconstructible (Shape asserts on them), so
    // the engine's zero-dim check is pure defense-in-depth; the shape
    // cases reachable from outside are wrong rank and a batch dim != 1.
    let bad_rank = Tensor::zeros(&[8, 8]);
    let bad_batch = Tensor::zeros(&[2, 8, 8]);
    for bad in [nan, inf, bad_rank, bad_batch] {
        let err = engine.submit(&key, bad, None).unwrap_err();
        assert!(
            matches!(err, SubmitError::InvalidInput { .. }),
            "expected InvalidInput, got {err:?}"
        );
    }
    assert_eq!(engine.telemetry().snapshot().counters.rejected_invalid, 4);
    // A well-formed input is still admitted and served.
    engine
        .submit(&key, img(3, 8, 8), None)
        .unwrap()
        .wait()
        .unwrap();
}

#[test]
fn corrupted_checkpoint_yields_model_load_error_not_panic() {
    let dir = std::env::temp_dir().join("sesr_engine_corrupt_test");
    std::fs::create_dir_all(&dir).unwrap();
    let key = ModelKey::new("m2c", 2);
    let path: PathBuf = dir.join(format!("{key}.sesr"));
    save_model(&tiny_model(30), &path).unwrap();
    // Flip a payload byte: the model_io v2 trailing CRC must now mismatch.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    let registry = Arc::new(ModelRegistry::new(2));
    registry.register_path(key.clone(), path);
    let engine = Engine::new(
        EngineConfig {
            workers: 1,
            max_retries: 0, // corruption is not transient; fail on first attempt
            ..EngineConfig::default()
        },
        registry,
    );
    let err = engine
        .submit(&key, img(0, 8, 8), None)
        .unwrap()
        .wait()
        .unwrap_err();
    assert!(matches!(err, ServeError::ModelLoad(_)), "got {err:?}");
    assert_eq!(
        engine.telemetry().snapshot().counters.model_load_failures,
        1
    );
}

#[test]
fn shutdown_drains_and_joins_within_deadline() {
    let key = ModelKey::new("m2", 2);
    let registry = registry_with(&key, tiny_model(9));
    let engine = Engine::new(
        EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        },
        registry,
    );
    assert_eq!(engine.health(), Health::Healthy);
    let tickets: Vec<_> = (0..12)
        .map(|i| engine.submit(&key, img(i, 8, 8), None).unwrap())
        .collect();
    let report = engine.shutdown(Duration::from_secs(30));
    assert!(report.joined, "workers must join within the deadline");
    assert!(report.elapsed < Duration::from_secs(30));
    assert_eq!(report.dropped, 0, "admitted work is flushed, not dropped");
    assert_eq!(report.expired, 0);
    for t in tickets {
        t.wait().unwrap();
    }
    assert_eq!(engine.health(), Health::Draining);
    let err = engine.submit(&key, img(99, 8, 8), None).unwrap_err();
    assert_eq!(err, SubmitError::Draining);
    assert_eq!(engine.telemetry().snapshot().counters.rejected_draining, 1);
    // Idempotent: a second shutdown observes an already-drained engine.
    let again = engine.shutdown(Duration::from_secs(1));
    assert!(again.joined);
    assert_eq!(again.dropped, 0);
}

#[test]
fn shutdown_fails_expired_queued_items_with_deadline_error() {
    let key = ModelKey::new("m2", 2);
    let registry = registry_with(&key, tiny_model(10));
    let engine = Engine::new(
        EngineConfig {
            workers: 0, // nothing consumes: items expire inside the queue
            ..EngineConfig::default()
        },
        registry,
    );
    let doomed = engine
        .submit(&key, img(1, 8, 8), Some(Duration::from_millis(1)))
        .unwrap();
    let fresh = engine
        .submit(&key, img(2, 8, 8), Some(Duration::from_secs(3600)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(20));
    let report = engine.shutdown(Duration::from_secs(1));
    assert_eq!(report.expired, 1, "the expired item gets DeadlineExpired");
    assert_eq!(report.dropped, 1, "the live item gets ShuttingDown");
    assert_eq!(doomed.wait().unwrap_err(), ServeError::DeadlineExpired);
    assert_eq!(fresh.wait().unwrap_err(), ServeError::ShuttingDown);
    let c = engine.telemetry().snapshot().counters;
    assert_eq!(c.dropped_in_drain, 1);
    assert_eq!(c.rejected_deadline, 1);
}

#[test]
fn drop_drains_queue_instead_of_hanging_callers() {
    let key = ModelKey::new("m2", 2);
    let registry = registry_with(&key, tiny_model(5));
    let engine = Engine::new(
        EngineConfig {
            workers: 0, // nothing consumes; Drop must fulfill the tickets
            ..EngineConfig::default()
        },
        registry,
    );
    let t = engine.submit(&key, img(0, 8, 8), None).unwrap();
    drop(engine);
    assert_eq!(t.wait().unwrap_err(), ServeError::ShuttingDown);
}

#[test]
fn telemetry_snapshot_exports_valid_json_with_stage_quantiles() {
    let key = ModelKey::new("m2", 2);
    let registry = registry_with(&key, tiny_model(6));
    let engine = Engine::new(
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
        registry,
    );
    for i in 0..6 {
        engine
            .submit(&key, img(i, 10, 10), None)
            .unwrap()
            .wait()
            .unwrap();
    }
    let snap = engine.telemetry().snapshot();
    let json = snap.to_json();
    sesr_serve::json::validate(&json).expect("telemetry JSON must be well-formed");
    for stage in ["queue_wait", "compute", "total"] {
        assert!(json.contains(stage), "snapshot must report {stage}");
    }
    let total = &snap
        .stages
        .iter()
        .find(|(name, _)| *name == "total")
        .expect("total stage present")
        .1;
    assert_eq!(total.count, 6);
    assert!(total.p50_ms > 0.0);
    assert!(total.p99_ms >= total.p50_ms);
}

#[test]
fn more_workers_increase_throughput_on_multicore_hosts() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        eprintln!("skipping multi-worker throughput test on a single-core host");
        return;
    }
    let key = ModelKey::new("m2", 2);
    let run = |workers: usize| -> f64 {
        let registry = registry_with(&key, tiny_model(7));
        let engine = Engine::new(
            EngineConfig {
                workers,
                queue_capacity: 256,
                max_batch: 1, // force per-request dispatch so workers parallelize
                ..EngineConfig::default()
            },
            registry,
        );
        // Closed loop: keep `concurrency` requests in flight, submitting
        // the next one as the oldest completes; every request must succeed.
        const REQUESTS: usize = 48;
        let concurrency = workers.max(2) * 2;
        let inputs: Vec<Tensor> = (0..8).map(|i| img(11 + i, 48, 48)).collect();
        let mut inflight = std::collections::VecDeque::<Ticket>::new();
        let started = std::time::Instant::now();
        for i in 0..REQUESTS {
            if inflight.len() >= concurrency {
                let t = inflight.pop_front().expect("inflight non-empty");
                t.wait().expect("request completes");
            }
            let input = inputs[i % inputs.len()].clone();
            inflight.push_back(engine.submit(&key, input, None).expect("admitted"));
        }
        for t in inflight {
            t.wait().expect("request completes");
        }
        REQUESTS as f64 / started.elapsed().as_secs_f64()
    };
    let single = run(1);
    let multi = run(cores.min(4));
    assert!(
        multi > single,
        "expected multi-worker throughput ({multi:.1} rps) to beat single-worker ({single:.1} rps)"
    );
}

#[test]
fn plan_cache_counters_track_hits_misses_and_arena() {
    let key = ModelKey::new("m2", 2);
    let registry = registry_with(&key, tiny_model(11));
    let engine = Engine::new(
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
        registry,
    );
    // Same model + shape every time: the single worker compiles one plan
    // on the first request and reuses it for the rest.
    for i in 0..5 {
        engine
            .submit(&key, img(40 + i, 12, 16), None)
            .unwrap()
            .wait()
            .unwrap();
    }
    let c = engine.telemetry().snapshot().counters;
    assert_eq!(
        c.plan_cache_hits + c.plan_cache_misses,
        5,
        "every batch group performs exactly one plan lookup"
    );
    assert!(c.plan_cache_misses >= 1, "first request must compile");
    assert!(c.plan_cache_hits >= 4, "steady state must reuse the plan");
    assert!(c.peak_arena_bytes > 0, "planned runs must report arena use");

    // A new shape is a plan miss but not a recompile of the kernels.
    engine
        .submit(&key, img(50, 9, 9), None)
        .unwrap()
        .wait()
        .unwrap();
    let c = engine.telemetry().snapshot().counters;
    assert_eq!(c.plan_cache_misses, 2);
}

// ---------------------------------------------------------------------------
// Int8 serving precision policy
// ---------------------------------------------------------------------------

/// Derives the int8 oracle exactly as the engine's load-time grading
/// does: same deterministic calibration scene, same packed kernels.
/// Panics unless the budget resolves to int8.
fn int8_oracle(key: &ModelKey, model: CollapsedSesr, budget: f64) -> Arc<sesr_quant::QuantKernels> {
    let mut cache = sesr_serve::PlanCache::new();
    let (d, _) = cache.decision_for(key, &Arc::new(model), budget);
    match &d.kernels {
        sesr_serve::ServingKernels::Int8(qk) => qk.clone(),
        sesr_serve::ServingKernels::F32(_) => panic!("budget {budget} did not resolve to int8"),
    }
}

#[test]
fn int8_policy_serves_the_quantized_plan_bit_exactly() {
    use sesr_quant::QuantPlan;
    use sesr_serve::PrecisionPolicy;

    let key = ModelKey::new("m2", 2);
    let registry = registry_with(&key, tiny_model(1));
    // A generous budget: every calibrated model loses far less than
    // 100 dB, so the decision must resolve to int8.
    let oracle = int8_oracle(&key, tiny_model(1), 100.0);
    let engine = Engine::new(
        EngineConfig {
            workers: 1,
            precision: PrecisionPolicy::Int8 { psnr_budget: 100.0 },
            ..EngineConfig::default()
        },
        registry,
    );
    let x = img(3, 12, 16);
    let mut plan = QuantPlan::new(oracle, 12, 16);
    let want = plan.run(&x);
    for _ in 0..2 {
        let served = engine
            .submit(&key, x.clone(), None)
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(served.shape(), want.shape());
        let exact = served
            .data()
            .iter()
            .zip(want.data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(
            exact,
            "served int8 output must match the quantized plan bits"
        );
    }
    let c = engine.telemetry().snapshot().counters;
    assert_eq!(c.int8_plans_active, 1, "one int8 plan compiled: {c:?}");
    assert_eq!(c.int8_plan_cache_hits, 1, "second request hits it: {c:?}");
    assert_eq!(
        c.precision_fallbacks, 0,
        "in-budget model must not fall back"
    );
}

#[test]
fn impossible_budget_falls_back_to_f32_and_counts_once() {
    use sesr_serve::PrecisionPolicy;

    let key = ModelKey::new("m2", 2);
    let model = tiny_model(4);
    let registry = registry_with(&key, tiny_model(4));
    // No finite measurement satisfies a -100 dB budget: the engine must
    // grade the model once, fall back, and serve plain f32 plans.
    let engine = Engine::new(
        EngineConfig {
            workers: 1,
            precision: PrecisionPolicy::Int8 {
                psnr_budget: -100.0,
            },
            ..EngineConfig::default()
        },
        registry,
    );
    let x = img(8, 10, 14);
    let want = model.run(&x);
    for _ in 0..3 {
        let served = engine
            .submit(&key, x.clone(), None)
            .unwrap()
            .wait()
            .unwrap();
        let exact = served
            .data()
            .iter()
            .zip(want.data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(exact, "fallback must serve the f32 bits");
    }
    let c = engine.telemetry().snapshot().counters;
    assert_eq!(
        c.precision_fallbacks, 1,
        "one fallback per grading, not per request: {c:?}"
    );
    assert_eq!(
        c.int8_plans_active, 0,
        "no int8 plan may be compiled: {c:?}"
    );
    assert_eq!(c.int8_plan_cache_hits, 0, "{c:?}");
    assert!(
        c.plan_cache_hits >= 2,
        "f32 plans still cache normally: {c:?}"
    );
}

#[test]
fn large_int8_frame_matches_the_whole_frame_quantized_plan() {
    use sesr_quant::QuantPlan;
    use sesr_serve::PrecisionPolicy;

    let key = ModelKey::new("m2", 2);
    let registry = registry_with(&key, tiny_model(1));
    let oracle = int8_oracle(&key, tiny_model(1), 100.0);
    let engine = Engine::new(
        EngineConfig {
            workers: 1,
            // 150x24 = 3600 px exceeds the threshold: a large frame, tall
            // enough to stream row groups.
            tile_threshold_px: 256,
            precision: PrecisionPolicy::Int8 { psnr_budget: 100.0 },
            ..EngineConfig::default()
        },
        registry,
    );
    let x = img(6, 150, 24);
    let mut plan = QuantPlan::new(oracle, 150, 24);
    let want = plan.run(&x);
    let served = engine.submit(&key, x, None).unwrap().wait().unwrap();
    let exact = served
        .data()
        .iter()
        .zip(want.data())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(
        exact,
        "served int8 frame must equal the single-band whole-frame quantized plan"
    );
    let c = engine.telemetry().snapshot().counters;
    assert_eq!((c.batches, c.tiled_requests), (1, 0), "{c:?}");
    assert_eq!(c.int8_plans_active, 1, "{c:?}");
    assert_eq!(c.precision_fallbacks, 0, "{c:?}");
}

/// Two same-shape large frames on one worker: the first compiles its
/// plan (a plan-cache miss), the second reuses it (a hit).
fn large_frame_plan_cache_accounting(precision: sesr_serve::PrecisionPolicy) {
    let key = ModelKey::new("m2", 2);
    let registry = registry_with(&key, tiny_model(1));
    let engine = Engine::new(
        EngineConfig {
            workers: 1,
            tile_threshold_px: 256,
            precision,
            ..EngineConfig::default()
        },
        registry,
    );
    for seed in 0..2 {
        engine
            .submit(&key, img(seed, 150, 24), None)
            .unwrap()
            .wait()
            .unwrap();
    }
    let c = engine.telemetry().snapshot().counters;
    assert_eq!((c.batches, c.tiled_requests), (2, 0), "{c:?}");
    assert_eq!(c.plan_cache_misses, 1, "{c:?}");
    assert_eq!(c.plan_cache_hits, 1, "{c:?}");
    if precision != sesr_serve::PrecisionPolicy::F32 {
        assert_eq!(c.int8_plans_active, 1, "{c:?}");
        assert_eq!(c.int8_plan_cache_hits, 1, "{c:?}");
    }
}

#[test]
fn large_frame_plan_cache_accounting_f32() {
    large_frame_plan_cache_accounting(sesr_serve::PrecisionPolicy::F32);
}

#[test]
fn large_frame_plan_cache_accounting_int8() {
    large_frame_plan_cache_accounting(sesr_serve::PrecisionPolicy::Int8 { psnr_budget: 100.0 });
}
