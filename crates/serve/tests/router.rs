//! Router (fleet) tests: routing stability, weighted-fair dequeue,
//! priority-ordered shedding, any-time degrade, the shutdown/submit
//! race, and the fleet-scope chaos soak — whole-shard kills, wedges,
//! and failed respawns under load, reconciled to zero lost requests and
//! exactly one terminal outcome per request.

use sesr_core::model::{Sesr, SesrConfig};
use sesr_serve::chaos::ShardChaosConfig;
use sesr_serve::engine::EngineConfig;
use sesr_serve::registry::{ModelKey, ModelRegistry};
use sesr_serve::router::{
    BreakerState, Priority, RateLimit, Router, RouterConfig, RouterServeError, RouterSubmitError,
    RouterTicket, TenantPolicy,
};
use sesr_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn registry_with_archs(archs: &[(&str, usize)]) -> Arc<ModelRegistry> {
    let r = Arc::new(ModelRegistry::new(8));
    for (i, &(arch, m)) in archs.iter().enumerate() {
        let model = Sesr::new(SesrConfig::m(m).with_expanded(8).with_seed(7 + i as u64)).collapse();
        r.insert(ModelKey::new(arch, 2), model);
    }
    r
}

fn tiny_registry() -> Arc<ModelRegistry> {
    registry_with_archs(&[("m2", 2)])
}

fn img(seed: u64, h: usize, w: usize) -> Tensor {
    Tensor::rand_uniform(&[1, h, w], 0.0, 1.0, seed)
}

fn fast_engine(workers: usize) -> EngineConfig {
    EngineConfig {
        workers,
        queue_capacity: 32,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(5),
        ..EngineConfig::default()
    }
}

#[test]
fn requests_are_served_across_shards_and_ledger_reconciles() {
    let registry = tiny_registry();
    let router = Router::new(
        RouterConfig {
            shards: 3,
            engine: fast_engine(1),
            ..RouterConfig::default()
        },
        registry,
    );
    let key = ModelKey::new("m2", 2);
    let mut tickets = Vec::new();
    for i in 0..60u64 {
        let tenant = format!("tenant-{}", i % 5);
        let class = if i % 3 == 0 {
            Priority::Batch
        } else {
            Priority::Interactive
        };
        tickets.push(
            router
                .submit(&tenant, class, &key, img(i, 12, 12), None)
                .expect("healthy fleet admits"),
        );
    }
    for t in tickets {
        let out = t.wait().expect("healthy fleet serves");
        assert_eq!(out.shape(), &[1, 24, 24]);
    }
    let snap = router.telemetry();
    assert_eq!(snap.counters.completed, 60);
    assert_eq!(snap.reconcile(), Vec::<String>::new());
    router.shutdown(Duration::from_secs(5));
}

#[test]
fn routing_is_stable_and_spreads_tenants() {
    let registry = tiny_registry();
    let router = Router::new(
        RouterConfig {
            shards: 4,
            engine: fast_engine(1),
            ..RouterConfig::default()
        },
        registry,
    );
    let key = ModelKey::new("m2", 2);
    let mut seen = std::collections::HashSet::new();
    for i in 0..64 {
        let tenant = format!("tenant-{i}");
        let a = router.route_of(&tenant, &key).unwrap();
        let b = router.route_of(&tenant, &key).unwrap();
        assert_eq!(a, b, "routing must be deterministic");
        seen.insert(a);
    }
    assert!(
        seen.len() >= 3,
        "64 tenants over 4 shards must hit at least 3 shards, hit {seen:?}"
    );
    router.shutdown(Duration::from_secs(5));
}

#[test]
fn token_bucket_throttles_per_tenant_and_class() {
    let registry = tiny_registry();
    let limited = TenantPolicy {
        weight: 1,
        interactive: RateLimit {
            rate_per_sec: 0.001,
            burst: 3.0,
        },
        batch: RateLimit::default(),
    };
    let router = Router::new(
        RouterConfig {
            shards: 1,
            engine: fast_engine(1),
            policies: vec![("metered".to_string(), limited)],
            ..RouterConfig::default()
        },
        registry,
    );
    let key = ModelKey::new("m2", 2);
    let mut tickets = Vec::new();
    let mut throttled = 0;
    for i in 0..6u64 {
        match router.submit("metered", Priority::Interactive, &key, img(i, 8, 8), None) {
            Ok(t) => tickets.push(t),
            Err(RouterSubmitError::Throttled { tenant }) => {
                assert_eq!(tenant, "metered");
                throttled += 1;
            }
            Err(e) => panic!("unexpected rejection: {e}"),
        }
    }
    assert_eq!(tickets.len(), 3, "burst of 3 admits exactly 3");
    assert_eq!(throttled, 3);
    // The same tenant's *batch* bucket is untouched, and other tenants
    // are unaffected.
    router
        .submit("metered", Priority::Batch, &key, img(9, 8, 8), None)
        .expect("batch class has its own bucket")
        .wait()
        .unwrap();
    router
        .submit("other", Priority::Interactive, &key, img(10, 8, 8), None)
        .expect("other tenants unaffected")
        .wait()
        .unwrap();
    for t in tickets {
        t.wait().unwrap();
    }
    assert_eq!(router.telemetry().counters.throttled, 3);
    router.shutdown(Duration::from_secs(5));
}

/// With the engines paused, queue 20 jobs from a flooding tenant and 2
/// from a light tenant into one shard, then resume: the light tenant's
/// jobs must not all be served last (weighted-fair, not FIFO), and
/// interactive must dequeue strictly before batch.
#[test]
fn weighted_fair_dequeue_prevents_starvation() {
    let registry = tiny_registry();
    let router = Router::new(
        RouterConfig {
            shards: 1,
            engine: EngineConfig {
                // Engine queue of 1: the dispatcher forwards one job at
                // a time, so completion order tracks DRR dequeue order
                // instead of collapsing into the engine's FIFO.
                queue_capacity: 1,
                ..fast_engine(1)
            },
            shard_queue_capacity: 64,
            ..RouterConfig::default()
        },
        registry,
    );
    let key = ModelKey::new("m2", 2);
    let order: Arc<std::sync::Mutex<Vec<String>>> = Arc::new(std::sync::Mutex::new(Vec::new()));
    let mut handles = Vec::new();
    // Flood: 20 batch jobs from "hog", then 2 batch jobs from "mouse",
    // then 2 interactive jobs from "vip" — submitted last, served first.
    let mut submit = |tenant: &str, class: Priority, n: usize, seed0: u64| {
        for i in 0..n {
            let t = router
                .submit(tenant, class, &key, img(seed0 + i as u64, 10, 10), None)
                .expect("within queue bound");
            let order = Arc::clone(&order);
            let name = tenant.to_string();
            handles.push(std::thread::spawn(move || {
                t.wait().unwrap();
                order.lock().unwrap().push(name);
            }));
        }
    };
    submit("hog", Priority::Batch, 20, 100);
    submit("mouse", Priority::Batch, 2, 200);
    submit("vip", Priority::Interactive, 2, 300);
    for h in handles {
        h.join().unwrap();
    }
    let order = order.lock().unwrap();
    assert_eq!(order.len(), 24);
    let pos_last = |name: &str| order.iter().rposition(|t| t == name).unwrap();
    // DRR alternates hog/mouse instead of serving all 20 hog jobs
    // first: mouse's last job lands well before hog's last job.
    assert!(
        pos_last("mouse") < pos_last("hog"),
        "mouse starved: order = {order:?}"
    );
    assert!(
        pos_last("mouse") < 10,
        "mouse should finish in the first half, order = {order:?}"
    );
    // Interactive band drains strictly before remaining batch work.
    // A few batch jobs were already dispatched (engine queue of 1 plus
    // one in flight) before vip submitted; allow those, but vip must
    // jump the remaining ~20-job batch backlog.
    let pos_first_vip = order.iter().position(|t| t == "vip").unwrap();
    assert!(
        pos_first_vip <= 6,
        "interactive must jump the batch backlog, order = {order:?}"
    );
    router.shutdown(Duration::from_secs(10));
}

/// Fill a shard's router queue past each threshold with the engine
/// paused and watch the policy engage in priority order: batch shed
/// first, interactive degraded next, interactive rejected only at the
/// hard bound.
#[test]
fn overload_sheds_batch_then_degrades_interactive_then_rejects() {
    let registry = registry_with_archs(&[("m11", 11), ("m5", 5), ("m3", 3)]);
    let cap = 16;
    let router = Router::new(
        RouterConfig {
            shards: 1,
            engine: EngineConfig {
                workers: 0, // nothing consumes: queue depth is fully ours
                ..fast_engine(0)
            },
            shard_queue_capacity: cap,
            batch_shed_at: 0.5,
            degrade_at: 0.75,
            ..RouterConfig::default()
        },
        registry,
    );
    let key = ModelKey::new("m11", 2);
    let mut tickets = Vec::new();
    let mut batch_shed_seen_at = None;
    let mut interactive_rejected_at = None;
    // Interleave batch and interactive admissions until both phases
    // have engaged. The shard queue only grows (workers=0, and the
    // dispatcher forwards at most engine queue_capacity=32 > cap).
    for i in 0..(3 * cap as u64) {
        match router.submit("b", Priority::Batch, &key, img(i, 8, 8), None) {
            Ok(t) => tickets.push(t),
            Err(RouterSubmitError::ShedBatch) => {
                batch_shed_seen_at.get_or_insert(i);
            }
            Err(e) => panic!("unexpected batch rejection: {e}"),
        }
        match router.submit("i", Priority::Interactive, &key, img(i, 8, 8), None) {
            Ok(t) => tickets.push(t),
            Err(RouterSubmitError::Overloaded) => {
                interactive_rejected_at.get_or_insert(i);
                break;
            }
            Err(e) => panic!("unexpected interactive rejection: {e}"),
        }
    }
    let snap = router.telemetry();
    assert!(
        snap.counters.shed_batch > 0,
        "batch shedding never engaged: {:?}",
        snap.counters
    );
    assert!(
        snap.counters.degraded > 0,
        "interactive degrade never engaged: {:?}",
        snap.counters
    );
    // Ordering: batch shed strictly before any interactive rejection,
    // and degrade before rejection too.
    let shed_at = batch_shed_seen_at.expect("batch shed must engage");
    if let Some(rej_at) = interactive_rejected_at {
        assert!(
            shed_at < rej_at,
            "batch must shed (at {shed_at}) before interactive rejects (at {rej_at})"
        );
    }
    assert_eq!(snap.counters.rejected_draining, 0);
    // Shutdown settles the queued-but-never-run work as ShuttingDown;
    // nothing hangs and the ledger still reconciles.
    router.shutdown(Duration::from_secs(5));
    let snap = router.telemetry();
    assert_eq!(snap.reconcile(), Vec::<String>::new());
    for t in tickets {
        match t.wait() {
            Err(RouterServeError::ShuttingDown) => {}
            other => panic!("expected ShuttingDown for queued work, got {other:?}"),
        }
    }
}

/// The overload scenario again, drained with a deadline so short that
/// the dispatcher is still holding a job in its backpressure wait when
/// it passes: `shutdown` must not return before that job is settled, so
/// the ledger reconciles the moment it returns. Repeated because the
/// dispatcher and the shutdown path race on every drain.
#[test]
fn short_drain_deadline_settles_dispatcher_held_jobs_before_shutdown_returns() {
    let registry = registry_with_archs(&[("m11", 11), ("m5", 5), ("m3", 3)]);
    let key = ModelKey::new("m11", 2);
    for round in 0..40u64 {
        let router = Router::new(
            RouterConfig {
                shards: 1,
                engine: EngineConfig {
                    workers: 0, // nothing consumes: the dispatcher blocks on depth
                    ..fast_engine(0)
                },
                shard_queue_capacity: 16,
                batch_shed_at: 0.5,
                degrade_at: 0.75,
                ..RouterConfig::default()
            },
            Arc::clone(&registry),
        );
        let mut tickets = Vec::new();
        for i in 0..48u64 {
            for class in [Priority::Batch, Priority::Interactive] {
                if let Ok(t) = router.submit("t", class, &key, img(i, 8, 8), None) {
                    tickets.push(t);
                }
            }
        }
        router.shutdown(Duration::from_millis(10));
        let snap = router.telemetry();
        assert_eq!(snap.reconcile(), Vec::<String>::new(), "round {round}");
        for t in tickets {
            match t.wait() {
                Err(RouterServeError::ShuttingDown) => {}
                other => panic!("round {round}: expected ShuttingDown, got {other:?}"),
            }
        }
    }
}

/// Degraded interactive requests actually run the cheaper architecture
/// and still return a correctly-shaped output.
#[test]
fn degraded_requests_serve_with_cheaper_arch() {
    let registry = registry_with_archs(&[("m11", 11), ("m5", 5), ("m3", 3)]);
    let cap = 8;
    let router = Router::new(
        RouterConfig {
            shards: 1,
            engine: fast_engine(1),
            shard_queue_capacity: cap,
            degrade_at: 0.25, // degrade early so a small backlog triggers it
            batch_shed_at: 1.0,
            ..RouterConfig::default()
        },
        registry,
    );
    let key = ModelKey::new("m11", 2);
    // Build a backlog so later admissions land in the degrade band.
    let mut tickets: Vec<RouterTicket> = Vec::new();
    for i in 0..3 * cap as u64 {
        if let Ok(t) = router.submit("t", Priority::Interactive, &key, img(i, 16, 16), None) {
            tickets.push(t);
        }
    }
    for t in tickets {
        let out = t.wait().expect("all admitted work serves");
        assert_eq!(out.shape(), &[1, 32, 32], "scale preserved across degrade");
    }
    let snap = router.telemetry();
    assert!(
        snap.counters.degraded > 0 && snap.counters.degraded_completed > 0,
        "expected degraded completions, got {:?}",
        snap.counters
    );
    assert_eq!(snap.reconcile(), Vec::<String>::new());
    router.shutdown(Duration::from_secs(5));
}

/// Satellite: `shutdown(deadline)` racing `submit()`. Submitter threads
/// hammer the router while it drains; every admission after drain start
/// must fail `Draining` (never hang, never panic), every pre-drain
/// ticket settles exactly once, and the ledger reconciles.
#[test]
fn shutdown_racing_submit_rejects_draining_and_loses_nothing() {
    let registry = tiny_registry();
    let router = Arc::new(Router::new(
        RouterConfig {
            shards: 2,
            engine: fast_engine(1),
            ..RouterConfig::default()
        },
        registry,
    ));
    let key = ModelKey::new("m2", 2);
    let stop = Arc::new(AtomicBool::new(false));
    let drained = Arc::new(AtomicBool::new(false));
    let admitted = Arc::new(AtomicU64::new(0));
    let post_drain_admits = Arc::new(AtomicU64::new(0));
    let settled = Arc::new(AtomicU64::new(0));
    let mut submitters = Vec::new();
    for s in 0..3u64 {
        let router = Arc::clone(&router);
        let key = key.clone();
        let stop = Arc::clone(&stop);
        let drained = Arc::clone(&drained);
        let admitted = Arc::clone(&admitted);
        let post_drain_admits = Arc::clone(&post_drain_admits);
        let settled = Arc::clone(&settled);
        submitters.push(std::thread::spawn(move || {
            let tenant = format!("tenant-{s}");
            let mut i = 0u64;
            while !stop.load(Ordering::Acquire) {
                i += 1;
                let was_drained = drained.load(Ordering::Acquire);
                match router.submit(
                    &tenant,
                    Priority::Interactive,
                    &key,
                    img(s * 1_000_003 + i, 10, 10),
                    Some(Duration::from_secs(10)),
                ) {
                    Ok(t) => {
                        admitted.fetch_add(1, Ordering::AcqRel);
                        if was_drained {
                            post_drain_admits.fetch_add(1, Ordering::AcqRel);
                        }
                        let _ = t.wait(); // settles Ok or ShuttingDown — never hangs
                        settled.fetch_add(1, Ordering::AcqRel);
                    }
                    Err(RouterSubmitError::Draining) => {
                        if was_drained {
                            // Expected after drain; spin down quickly.
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                    Err(e) => panic!("unexpected rejection mid-race: {e}"),
                }
            }
        }));
    }
    // Let traffic flow, then drain mid-flight.
    std::thread::sleep(Duration::from_millis(100));
    drained.store(true, Ordering::Release);
    let report = router.shutdown(Duration::from_secs(10));
    // After shutdown returns, every future submit must reject Draining.
    for i in 0..20u64 {
        match router.submit("late", Priority::Interactive, &key, img(i, 8, 8), None) {
            Err(RouterSubmitError::Draining) => {}
            other => panic!("post-drain submit must fail Draining, got {other:?}"),
        }
    }
    stop.store(true, Ordering::Release);
    for h in submitters {
        h.join().expect("submitter must not panic");
    }
    assert!(report.joined, "drain must join within a generous deadline");
    assert_eq!(
        post_drain_admits.load(Ordering::Acquire),
        0,
        "no admission may succeed after drain start was observed"
    );
    assert_eq!(
        admitted.load(Ordering::Acquire),
        settled.load(Ordering::Acquire),
        "every admitted ticket settles exactly once"
    );
    let snap = router.telemetry();
    assert_eq!(snap.reconcile(), Vec::<String>::new());
}

/// The fleet-scope chaos soak and the tentpole's acceptance proof:
/// ≥400 requests through 3 shards while chaos kills a shard, wedges a
/// shard (detected by the stall probe and drain-and-replaced), and
/// fails a respawn — and the ledger still shows exactly one terminal
/// outcome per admitted request, zero lost.
///
/// The fault *schedule* is seeded, but whether a kill intersects queued
/// work (forcing a reroute) depends on wall-clock interleaving between
/// the load loop and the supervisor. A schedule miss says nothing about
/// the router, so the test re-rolls the schedule with a perturbed seed;
/// invariant violations panic immediately on any attempt.
#[test]
fn fleet_chaos_soak_loses_nothing() {
    let mut last = Vec::new();
    for attempt in 0..4u64 {
        let shard_seed = 0xF1EE7u64.wrapping_add(attempt.wrapping_mul(0x9E37_79B9));
        match run_fleet_soak(shard_seed) {
            Ok(()) => return,
            Err(misses) => last = misses,
        }
    }
    panic!("fault schedule never hit every kind in 4 attempts; last misses: {last:?}");
}

/// One soak run: panics on invariant violations, returns `Err(misses)`
/// when the seeded fault schedule did not exercise every fault kind.
fn run_fleet_soak(shard_seed: u64) -> Result<(), Vec<String>> {
    let registry = tiny_registry();
    let router = Arc::new(Router::new(
        RouterConfig {
            shards: 3,
            engine: EngineConfig {
                workers: 1,
                queue_capacity: 16,
                backoff_base: Duration::from_millis(1),
                backoff_cap: Duration::from_millis(4),
                // Engine-level faults run *concurrently* with the shard
                // faults: panics exercise retry/respawn inside a shard,
                // and slow-model delays keep queues non-empty so shard
                // kills actually intersect queued work (reroutes).
                chaos: Some(sesr_serve::chaos::ChaosConfig {
                    seed: 0xD15EA5E,
                    panic_per_mille: 15,
                    slow_per_mille: 150,
                    slow: Duration::from_millis(8),
                    ..sesr_serve::chaos::ChaosConfig::default()
                }),
                ..EngineConfig::default()
            },
            shard_queue_capacity: 64,
            probe_interval: Duration::from_millis(2),
            // 200ms of queued-but-zero-progress on a µs-fast model =
            // wedged. Generous enough that OS scheduling jitter on a
            // small box does not read as a wedge.
            stall_ticks: 100,
            respawn_budget: 32,
            reroute_budget: 8,
            respawn_backoff: Duration::from_millis(2),
            respawn_backoff_cap: Duration::from_millis(10),
            shard_chaos: Some(ShardChaosConfig {
                seed: shard_seed,
                kill_per_mille: 12,
                wedge_per_mille: 12,
                respawn_fail_per_mille: 500,
                max_kills: 2,
                max_wedges: 2,
                max_respawn_fails: 2,
                // Far beyond the stall detector: the wedge must be
                // *detected* and drain-and-replaced, not sit out the
                // injection window.
                wedge: Duration::from_secs(30),
                // Scaling faults stay off: this soak runs a fixed-size
                // fleet; tests/autoscale.rs owns the scaling points.
                ..ShardChaosConfig::default()
            }),
            ..RouterConfig::default()
        },
        registry,
    ));
    let key = ModelKey::new("m2", 2);
    let total = 450u64;
    let concurrency = 24;
    let mut in_flight: VecDeque<RouterTicket> = VecDeque::new();
    let (mut ok, mut failed) = (0u64, 0u64);
    let mut client_outcomes = std::collections::HashMap::new();
    let mut resolve = |t: RouterTicket, ok: &mut u64, failed: &mut u64| {
        let entry: &mut u64 = match t.wait() {
            Ok(_) => {
                *ok += 1;
                client_outcomes.entry("ok").or_default()
            }
            Err(e) => {
                *failed += 1;
                match e {
                    RouterServeError::DeadlineExpired => {
                        client_outcomes.entry("deadline").or_default()
                    }
                    RouterServeError::WorkerCrashed(_) => {
                        client_outcomes.entry("crashed").or_default()
                    }
                    RouterServeError::ModelLoad(_) => {
                        client_outcomes.entry("model_load").or_default()
                    }
                    RouterServeError::ShardLost(_) => {
                        client_outcomes.entry("shard_lost").or_default()
                    }
                    RouterServeError::ShuttingDown => {
                        client_outcomes.entry("shutdown").or_default()
                    }
                }
            }
        };
        *entry += 1;
    };
    let mut admitted = 0u64;
    let mut i = 0u64;
    let start = Instant::now();
    while admitted < total {
        if start.elapsed() >= Duration::from_secs(120) {
            let snap = router.telemetry();
            panic!(
                "soak wedged: {admitted}/{total} admitted after 120s\ncounters: {:?}\nshards: {:?}",
                snap.counters,
                router.shard_statuses()
            );
        }
        i += 1;
        let tenant = format!("tenant-{}", i % 6);
        let class = if i.is_multiple_of(4) {
            Priority::Batch
        } else {
            Priority::Interactive
        };
        match router.submit(
            &tenant,
            class,
            &key,
            img(i, 10, 10),
            Some(Duration::from_secs(20)),
        ) {
            Ok(t) => {
                admitted += 1;
                in_flight.push_back(t);
                if in_flight.len() >= concurrency {
                    let t = in_flight.pop_front().unwrap();
                    resolve(t, &mut ok, &mut failed);
                }
            }
            Err(
                RouterSubmitError::ShedBatch
                | RouterSubmitError::Overloaded
                | RouterSubmitError::Throttled { .. }
                | RouterSubmitError::NoHealthyShard,
            ) => {
                // Transient overload (e.g. both live shards saturated
                // mid-kill): back off and retry.
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => panic!("unexpected rejection under chaos: {e}"),
        }
    }
    while let Some(t) = in_flight.pop_front() {
        resolve(t, &mut ok, &mut failed);
    }
    let snap = router.telemetry();
    let c = snap.counters;
    // Exactly one terminal outcome per admitted request, zero lost:
    // client-side tally == router admission count == router settle count.
    assert_eq!(
        ok + failed,
        admitted,
        "client saw {ok}+{failed} != {admitted}"
    );
    assert_eq!(
        c.admitted(),
        admitted,
        "router admitted {} != {admitted}",
        c.admitted()
    );
    assert_eq!(snap.reconcile(), Vec::<String>::new());
    assert_eq!(
        c.completed, ok,
        "router completed {} != client ok {ok}",
        c.completed
    );
    assert!(
        ok > admitted / 2,
        "chaos should not fail the majority: ok={ok} of {admitted}, outcomes={client_outcomes:?}"
    );
    let report = router.shutdown(Duration::from_secs(10));
    assert!(report.joined);
    let snap = router.telemetry();
    assert_eq!(snap.reconcile(), Vec::<String>::new());
    // A killed shard's breaker reopened (and possibly closed again);
    // whatever the final state, every shard is introspectable.
    for s in router.shard_statuses() {
        let _ = matches!(
            s.breaker,
            BreakerState::Closed | BreakerState::Open | BreakerState::HalfOpen
        );
    }
    // The chaos schedule must actually have fired all three fault kinds
    // and forced at least one reroute — retryable when it did not.
    let mut misses = Vec::new();
    for (fired, what) in [
        (c.shard_kills >= 1, "no shard kill fired"),
        (c.shard_wedges >= 1, "no wedge fired"),
        (c.respawn_failures >= 1, "no respawn failure fired"),
        (c.shard_respawns >= 1, "no shard respawned"),
        (c.wedges_detected >= 1, "stall probe never detected a wedge"),
        (c.rerouted >= 1, "no request was rerouted"),
        (
            c.breaker_opens >= 1 && c.breaker_half_opens >= 1,
            "breaker never cycled open -> half-open",
        ),
    ] {
        if !fired {
            misses.push(format!("{what} (seed {shard_seed:#x}, counters {c:?})"));
        }
    }
    if misses.is_empty() {
        Ok(())
    } else {
        Err(misses)
    }
}
