//! Fault-injection tests: targeted crash-recovery scenarios plus the
//! chaos soak, which drives seeded mixed faults (panic / slow / load
//! failure / clock skew) through the engine under load and proves that
//! (a) the process never aborts, (b) every submitted request receives
//! exactly one terminal outcome, and (c) the fault, restart, retry, and
//! rejection counters reconcile.

use sesr_core::model::{Sesr, SesrConfig};
use sesr_core::CollapsedSesr;
use sesr_serve::chaos::{Chaos, ChaosConfig};
use sesr_serve::engine::{Engine, EngineConfig, Health, ServeError, SubmitError, Ticket};
use sesr_serve::registry::{ModelKey, ModelRegistry};
use sesr_tensor::Tensor;
use std::collections::VecDeque;
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

/// Finds a seed whose *first* panic decision fires and whose next
/// `clear` decisions don't, so a test can inject exactly one panic at a
/// known point. Decisions are pure functions of the seed, so the search
/// is deterministic.
fn seed_with_single_leading_panic(per_mille: u32, clear: usize) -> u64 {
    (0u64..10_000)
        .find(|&seed| {
            let probe = Chaos::new(ChaosConfig {
                seed,
                panic_per_mille: per_mille,
                ..ChaosConfig::default()
            });
            probe.panic_in_forward() && (0..clear).all(|_| !probe.panic_in_forward())
        })
        .expect("a suitable seed exists in the first 10k")
}

#[test]
fn batch_panic_is_retried_and_the_worker_respawned() {
    let seed = seed_with_single_leading_panic(500, 8);
    let key = ModelKey::new("m2", 2);
    let registry = registry_with(&key, tiny_model(2));
    let engine = Engine::new(
        EngineConfig {
            workers: 1,
            max_retries: 2,
            restart_budget: 2,
            backoff_base: Duration::from_millis(1),
            chaos: Some(ChaosConfig {
                seed,
                panic_per_mille: 500,
                ..ChaosConfig::default()
            }),
            ..EngineConfig::default()
        },
        registry,
    );
    // The first forward panics (killing the worker); the supervisor
    // respawns it and the retried request succeeds.
    let out = engine.submit(&key, img(3, 8, 8), None).unwrap().wait();
    assert!(out.is_ok(), "retry after a crash must succeed: {out:?}");
    let c = engine.telemetry().snapshot().counters;
    assert_eq!(c.worker_crashes, 1);
    assert_eq!(c.worker_restarts, 1);
    assert_eq!(c.requests_retried, 1);
    assert_eq!(c.faults_panic, 1);
    assert_eq!(c.completed, 1);
    assert_eq!(engine.restarts_used(), 1);
    // One of two budgeted respawns is spent: half the budget => Degraded.
    assert_eq!(engine.health(), Health::Degraded);
}

#[test]
fn large_frame_panic_is_contained_and_retried_without_killing_the_worker() {
    let seed = seed_with_single_leading_panic(500, 8);
    let key = ModelKey::new("m2", 2);
    let model = tiny_model(4);
    let registry = registry_with(&key, tiny_model(4));
    let engine = Engine::new(
        EngineConfig {
            workers: 1,
            tile_threshold_px: 24 * 24, // low threshold: the request is a large frame
            max_retries: 1,
            // Zero budget: if the panic escaped its containment the
            // lone worker would die unrecoverably and this test would
            // observe WorkerCrashed instead of a result.
            restart_budget: 0,
            chaos: Some(ChaosConfig {
                seed,
                panic_per_mille: 500,
                ..ChaosConfig::default()
            }),
            ..EngineConfig::default()
        },
        registry,
    );
    let x = img(7, 150, 26);
    let served = engine
        .submit(&key, x.clone(), None)
        .unwrap()
        .wait()
        .unwrap();
    let direct = model.run(&x);
    assert_eq!(
        served.data(),
        direct.data(),
        "the retried large frame must stay bit-identical"
    );
    let c = engine.telemetry().snapshot().counters;
    assert_eq!(c.worker_crashes, 1, "the injected panic was captured");
    assert_eq!(
        c.worker_restarts, 0,
        "the worker must survive a large-frame panic"
    );
    assert_eq!(c.requests_retried, 1);
    assert_eq!(c.completed, 1);
    assert_eq!(engine.health(), Health::Healthy);
}

/// The client's view of a soak: one terminal outcome per request.
#[derive(Debug, Default)]
struct Outcomes {
    ok: u64,
    expired: u64,
    load_failed: u64,
    crashed: u64,
}

/// Drives `requests` 8x8 requests through `workers` workers under
/// `chaos`, 12 in flight at all times, then drains. Checks what holds at
/// any fault rate: the drain joins and re-drops nothing, every request
/// gets exactly one terminal outcome (none sees a shutdown error), and
/// the engine's ledger matches the client's.
fn soak(requests: u64, workers: usize, chaos: ChaosConfig) -> (Engine, Outcomes) {
    let key = ModelKey::new("m2", 2);
    let registry = registry_with(&key, tiny_model(1));
    let engine = Engine::new(
        EngineConfig {
            workers,
            queue_capacity: 256,
            max_batch: 3,
            max_retries: 3,
            restart_budget: 10_000,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(4),
            chaos: Some(chaos),
            ..EngineConfig::default()
        },
        registry,
    );

    let deadline = Some(Duration::from_secs(30));
    let mut o = Outcomes::default();
    let mut other = 0u64;
    let mut resolve = |t: Ticket| match t.wait() {
        Ok(_) => o.ok += 1,
        Err(ServeError::DeadlineExpired) => o.expired += 1,
        Err(ServeError::ModelLoad(_)) => o.load_failed += 1,
        Err(ServeError::WorkerCrashed(_)) => o.crashed += 1,
        Err(_) => other += 1,
    };

    // Closed-loop client: 12 requests in flight at all times.
    let mut inflight: VecDeque<Ticket> = VecDeque::new();
    for i in 0..requests {
        while inflight.len() >= 12 {
            let t = inflight.pop_front().expect("inflight non-empty");
            resolve(t);
        }
        match engine.submit(&key, img(i, 8, 8), deadline) {
            Ok(t) => inflight.push_back(t),
            Err(e) => panic!("unexpected rejection under soak load: {e}"),
        }
    }
    for t in inflight {
        resolve(t);
    }

    // Graceful drain: everything already settled, so nothing drops and
    // the supervisor + workers join well within the deadline.
    let report = engine.shutdown(Duration::from_secs(10));
    assert!(report.joined, "shutdown must join within its deadline");
    assert_eq!(report.dropped, 0, "no settled request may be re-dropped");

    // Exactly one terminal outcome per submitted request; the process
    // never aborted (we are still here) and nothing saw ShuttingDown.
    assert_eq!(
        o.ok + o.expired + o.load_failed + o.crashed + other,
        requests,
        "every request gets exactly one terminal outcome"
    );
    assert_eq!(other, 0, "no request may observe a shutdown error mid-soak");

    // Reconciliation: the engine's ledger must match the client's.
    let c = engine.telemetry().snapshot().counters;
    assert_eq!(c.submitted, requests);
    assert_eq!(c.completed, o.ok);
    assert_eq!(c.rejected_deadline, o.expired);
    assert_eq!(c.requests_quarantined, o.crashed);
    let fault_sum = c.faults_panic + c.faults_slow + c.faults_load + c.faults_skew;
    assert_eq!(c.faults_injected, fault_sum);
    (engine, o)
}

#[test]
fn chaos_soak_survives_injected_faults_with_zero_lost_requests() {
    let (engine, o) = soak(
        400,
        3,
        ChaosConfig {
            seed: 0xC4A05,
            panic_per_mille: 150,
            slow_per_mille: 150,
            load_fail_per_mille: 200,
            skew_per_mille: 50,
            slow: Duration::from_millis(1),
            // Far beyond the request deadline: a skewed clock expires its
            // whole batch.
            skew: Duration::from_secs(60),
        },
    );
    let c = engine.telemetry().snapshot().counters;
    assert!(
        c.faults_injected >= 50,
        "the soak must inject >= 50 faults, got {}",
        c.faults_injected
    );
    assert!(
        c.faults_panic > 0 && c.faults_slow > 0 && c.faults_load > 0 && c.faults_skew > 0,
        "all four fault points must fire: {:?}",
        [c.faults_panic, c.faults_slow, c.faults_load, c.faults_skew]
    );
    // Every batch-path panic kills exactly one worker, and the ample
    // restart budget means the supervisor respawned each of them.
    assert_eq!(c.worker_crashes, c.faults_panic);
    assert_eq!(c.worker_restarts, c.faults_panic);
    // Each panic/load fault hits at least one request, which is then
    // either retried or terminally failed with the matching typed error.
    assert!(c.requests_retried > 0, "some faults must have been retried");
    assert!(
        c.requests_retried + c.requests_quarantined + o.load_failed
            >= c.faults_panic + c.faults_load,
        "retries ({}) + quarantined ({}) + terminal load failures ({}) must cover panic ({}) + load ({}) faults",
        c.requests_retried,
        c.requests_quarantined,
        o.load_failed,
        c.faults_panic,
        c.faults_load
    );

    // Post-shutdown: draining state, admissions rejected with Draining.
    let key = ModelKey::new("m2", 2);
    assert_eq!(engine.health(), Health::Draining);
    assert_eq!(
        engine.submit(&key, img(0, 8, 8), None).unwrap_err(),
        SubmitError::Draining
    );
    assert_eq!(engine.telemetry().snapshot().counters.rejected_draining, 1);

    // The same soak with every rate at zero injects nothing, so every
    // request succeeds and no worker restarts.
    let (engine, o) = soak(
        40,
        2,
        ChaosConfig {
            seed: 0xC4A05,
            ..ChaosConfig::default()
        },
    );
    let c = engine.telemetry().snapshot().counters;
    assert_eq!(c.faults_injected, 0);
    assert_eq!(o.ok, 40);
    assert_eq!(c.worker_restarts + c.requests_retried, 0);
}
