//! Video-session integration tests.
//!
//! The load-bearing property is the **reuse invariant**: a composite
//! assembled from skipped (cached) and recomputed tiles must be
//! bit-identical to running the whole frame through the top-rung model,
//! across arbitrary frame-to-frame diffs — all-static, all-dirty, and
//! changes hugging tile/halo boundaries included. The proptest below
//! enforces it; the remaining tests cover the engine wiring (open /
//! feed / close, idempotent duplicate settlement, typed errors, chaos
//! containment) and the router layer (per-tenant caps, shard pinning).

use proptest::prelude::*;
use sesr_core::model::{Sesr, SesrConfig};
use sesr_core::CollapsedSesr;
use sesr_serve::chaos::ChaosConfig;
use sesr_serve::engine::{Engine, EngineConfig, ServeError, SubmitError};
use sesr_serve::registry::{ModelKey, ModelRegistry};
use sesr_serve::video::{VideoError, VideoSession, VideoSessionSpec};
use sesr_serve::{PlanCache, Router, RouterConfig, RouterSubmitError};
use sesr_tensor::Tensor;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Two-rung ladder shared by every test (collapse is expensive).
fn ladder() -> &'static Vec<(ModelKey, Arc<CollapsedSesr>)> {
    static LADDER: OnceLock<Vec<(ModelKey, Arc<CollapsedSesr>)>> = OnceLock::new();
    LADDER.get_or_init(|| {
        [(1usize, "m1"), (2, "m2")]
            .iter()
            .map(|&(m, name)| {
                let cfg = SesrConfig::m(m).with_expanded(8).with_seed(40 + m as u64);
                (ModelKey::new(name, 2), Arc::new(Sesr::new(cfg).collapse()))
            })
            .collect()
    })
}

fn ladder_keys() -> Vec<ModelKey> {
    ladder().iter().map(|(k, _)| k.clone()).collect()
}

fn registry() -> Arc<ModelRegistry> {
    let r = Arc::new(ModelRegistry::new(4));
    for (k, m) in ladder() {
        r.insert(k.clone(), (**m).clone());
    }
    r
}

/// Whole-frame run through the top rung: the bit-identity reference.
fn reference(frame: &Tensor) -> Tensor {
    let (_, top) = &ladder()[ladder().len() - 1];
    top.run(frame)
}

fn frame(seed: u64, h: usize, w: usize) -> Tensor {
    Tensor::rand_uniform(&[1, h, w], 0.0, 1.0, seed)
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One randomized frame sequence for the reuse invariant.
#[derive(Debug, Clone)]
struct ReuseCase {
    h: usize,
    w: usize,
    tile: usize,
    n_pokes: usize,
    poke_seed: u64,
    scramble: bool,
    frames: usize,
}

/// Feeds `case`'s frames through a session with `spec`'s settings and
/// checks every composite against the whole-frame top-rung run.
fn check_reuse_case(case: &ReuseCase, mut spec: VideoSessionSpec) {
    let ReuseCase {
        h,
        w,
        tile,
        n_pokes,
        poke_seed,
        scramble,
        frames,
    } = *case;
    spec.tile = tile;
    let models: Vec<Arc<CollapsedSesr>> = ladder().iter().map(|(_, m)| Arc::clone(m)).collect();
    let mut sess = VideoSession::new(spec, &models).unwrap();
    let mut plans = PlanCache::new();
    let mut cur = frame(poke_seed ^ 0xF00D, h, w);
    let first = sess
        .process_frame(0, &cur, None, &models, &mut plans)
        .unwrap();
    prop_assert_eq!(reference(&cur).max_abs_diff(&first.output), 0.0);
    let mut rng = poke_seed;
    for seq in 1..frames as u64 {
        if scramble {
            // All-dirty extreme: a scene cut.
            cur = frame(splitmix(&mut rng), h, w);
        } else {
            // n_pokes == 0 is the all-static extreme. Even pokes
            // land on tile corners — the halo-boundary extreme —
            // odd pokes land anywhere.
            for p in 0..n_pokes {
                let (y, x) = if p % 2 == 0 {
                    (
                        ((splitmix(&mut rng) as usize) / tile * tile).min(h - 1),
                        ((splitmix(&mut rng) as usize) / tile * tile).min(w - 1),
                    )
                } else {
                    (
                        splitmix(&mut rng) as usize % h,
                        splitmix(&mut rng) as usize % w,
                    )
                };
                cur.data_mut()[y * w + x] += 0.25 + (p as f32) * 0.01;
            }
        }
        let r = sess
            .process_frame(seq, &cur, None, &models, &mut plans)
            .unwrap();
        prop_assert_eq!(
            reference(&cur).max_abs_diff(&r.output),
            0.0,
            "composite diverged at seq {} ({:?})",
            seq,
            case
        );
        prop_assert_eq!(
            r.stats.tiles_recomputed + r.stats.tiles_skipped,
            r.stats.tiles_total
        );
        if !scramble && n_pokes == 0 {
            prop_assert_eq!(r.stats.tiles_recomputed, 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The reuse invariant: whatever changes between frames — nothing,
    /// everything, or a handful of pixels (biased onto tile corners, the
    /// halo-boundary extreme) — the skipped ∪ recomputed composite is
    /// bit-identical to a whole-frame top-rung run.
    #[test]
    fn reuse_composite_is_bit_identical_to_full_run(
        h in 12usize..=34,
        w in 12usize..=34,
        tile in prop::sample::select(vec![6usize, 8, 12]),
        n_pokes in 0usize..=6,
        poke_seed in any::<u64>(),
        scramble in any::<bool>(),
        frames in 2usize..=4,
    ) {
        let case = ReuseCase { h, w, tile, n_pokes, poke_seed, scramble, frames };
        check_reuse_case(&case, VideoSessionSpec::new(h, w, ladder_keys()));
    }

    /// The same invariant through the any-time walk: with every tile
    /// "hard" and no deadline, each merged rectangle runs at the top
    /// rung, so the composite must still match the reference bit for
    /// bit.
    #[test]
    fn anytime_reuse_composite_is_bit_identical_to_full_run(
        h in 12usize..=34,
        w in 12usize..=34,
        tile in prop::sample::select(vec![6usize, 8, 12]),
        n_pokes in 0usize..=6,
        poke_seed in any::<u64>(),
        scramble in any::<bool>(),
        frames in 2usize..=4,
    ) {
        let case = ReuseCase { h, w, tile, n_pokes, poke_seed, scramble, frames };
        let mut spec = VideoSessionSpec::new(h, w, ladder_keys());
        spec.anytime = true;
        spec.difficulty_thresholds = vec![0.0];
        check_reuse_case(&case, spec);
    }
}

// ---------------------------------------------------------------------------
// Engine wiring
// ---------------------------------------------------------------------------

fn engine(workers: usize) -> Engine {
    Engine::new(
        EngineConfig {
            workers,
            queue_capacity: 32,
            ..EngineConfig::default()
        },
        registry(),
    )
}

#[test]
fn engine_session_open_feed_close_roundtrip() {
    let eng = engine(2);
    let sid = eng
        .open_video_session(VideoSessionSpec::new(24, 20, ladder_keys()))
        .expect("open");
    assert_eq!(eng.open_video_sessions(), 1);
    // Static pair: frame 1 must reuse every tile yet stay bit-exact.
    let f0 = frame(70, 24, 20);
    let frames = [f0.clone(), f0.clone(), frame(71, 24, 20)];
    for (seq, f) in frames.iter().enumerate() {
        let out = eng
            .feed_video_frame(sid, seq as u64, f.clone(), None)
            .expect("feed")
            .wait()
            .expect("settle");
        assert_eq!(
            reference(f).max_abs_diff(&out),
            0.0,
            "frame {seq} diverged from the whole-frame run"
        );
    }
    let stats = eng.video_session_stats(sid).expect("stats");
    assert_eq!(stats.frames_in, 3);
    assert_eq!(stats.frames_completed, 3);
    assert!(stats.tiles_skipped > 0, "static frame must skip tiles");
    let closed = eng.close_video_session(sid).expect("close");
    assert_eq!(closed.frames_completed, 3);
    assert_eq!(eng.open_video_sessions(), 0);
    // Engine telemetry mirrors the session counters.
    let snap = eng.telemetry().snapshot();
    assert_eq!(snap.counters.video_sessions_opened, 1);
    assert_eq!(snap.counters.video_sessions_closed, 1);
    assert_eq!(snap.counters.video_frames_in, 3);
    assert_eq!(snap.counters.video_frames_completed, 3);
    assert!(snap.counters.video_tiles_skipped > 0);
}

#[test]
fn duplicate_feed_settles_idempotently_and_stale_is_typed() {
    let eng = engine(1);
    let sid = eng
        .open_video_session(VideoSessionSpec::new(16, 16, ladder_keys()))
        .expect("open");
    let f0 = frame(80, 16, 16);
    let f5 = frame(81, 16, 16);
    eng.feed_video_frame(sid, 0, f0, None)
        .expect("feed 0")
        .wait()
        .expect("settle 0");
    let first = eng
        .feed_video_frame(sid, 5, f5.clone(), None)
        .expect("feed 5")
        .wait()
        .expect("settle 5");
    // Re-feeding the settled seq (the retry path after a crash) returns
    // the cached composite bit-for-bit without recompute.
    let dup = eng
        .feed_video_frame(sid, 5, f5, None)
        .expect("re-feed 5")
        .wait()
        .expect("settle dup");
    assert_eq!(first.max_abs_diff(&dup), 0.0);
    // An older seq is a typed error through the ticket.
    let stale = eng
        .feed_video_frame(sid, 3, frame(82, 16, 16), None)
        .expect("feed stale")
        .wait();
    assert_eq!(
        stale.unwrap_err(),
        ServeError::Video(VideoError::StaleFrame { seq: 3, last: 5 })
    );
    let stats = eng.video_session_stats(sid).expect("stats");
    assert_eq!(stats.frames_duplicate, 1);
    let snap = eng.telemetry().snapshot();
    assert_eq!(snap.counters.video_frames_duplicate, 1);
}

#[test]
fn closed_and_unknown_sessions_are_typed_everywhere() {
    let eng = engine(1);
    // Never-opened id.
    assert_eq!(
        eng.feed_video_frame(99, 0, frame(90, 16, 16), None)
            .unwrap_err(),
        SubmitError::UnknownSession(99)
    );
    assert_eq!(
        eng.close_video_session(99).unwrap_err(),
        VideoError::UnknownSession(99)
    );
    // Close, then feed: rejected at admission.
    let sid = eng
        .open_video_session(VideoSessionSpec::new(16, 16, ladder_keys()))
        .expect("open");
    eng.close_video_session(sid).expect("close");
    assert_eq!(
        eng.feed_video_frame(sid, 0, frame(91, 16, 16), None)
            .unwrap_err(),
        SubmitError::UnknownSession(sid)
    );
    // Double close is typed, not a hang.
    assert_eq!(
        eng.close_video_session(sid).unwrap_err(),
        VideoError::UnknownSession(sid)
    );
}

#[test]
fn frames_queued_across_close_settle_typed() {
    let eng = engine(1);
    let sid = eng
        .open_video_session(VideoSessionSpec::new(16, 16, ladder_keys()))
        .expect("open");
    // Hold the frame in the queue, close the session underneath it,
    // then let the worker find it: it must settle typed, not compute
    // against a closed session or hang the ticket.
    eng.pause();
    let ticket = eng
        .feed_video_frame(sid, 0, frame(95, 16, 16), None)
        .expect("feed while paused");
    eng.close_video_session(sid).expect("close");
    eng.resume();
    assert_eq!(
        ticket.wait().unwrap_err(),
        ServeError::Video(VideoError::UnknownSession(sid))
    );
}

#[test]
fn mismatched_frame_shape_is_rejected_at_admission() {
    let eng = engine(1);
    let sid = eng
        .open_video_session(VideoSessionSpec::new(16, 16, ladder_keys()))
        .expect("open");
    match eng.feed_video_frame(sid, 0, frame(96, 8, 8), None) {
        Err(SubmitError::InvalidInput { reason }) => {
            assert!(reason.contains("does not match session shape"), "{reason}");
        }
        other => panic!("expected InvalidInput, got {other:?}"),
    }
}

#[test]
fn open_rejects_unknown_ladder_models() {
    let eng = engine(1);
    let mut keys = ladder_keys();
    keys.push(ModelKey::new("ghost", 2));
    match eng.open_video_session(VideoSessionSpec::new(16, 16, keys)) {
        Err(VideoError::ModelLoad(msg)) => assert!(msg.contains("ghost"), "{msg}"),
        other => panic!("expected ModelLoad, got {other:?}"),
    }
}

/// One admission front as the table below sees it: `Ok` when the request
/// was admitted, its typed rejection otherwise.
type Front<'a> = &'a dyn Fn(&Engine, u64, Tensor) -> Result<(), SubmitError>;

#[test]
fn every_admission_front_rejects_and_counts_alike() {
    // `submit`, `submit_with` and `feed_video_frame` share one admission
    // path: each must turn away an invalid input, a full queue and a
    // draining engine with the same typed error and the same counters.
    let key = ladder_keys()[1].clone();
    let submit = |e: &Engine, _: u64, t: Tensor| e.submit(&key, t, None).map(drop);
    // `submit_with` settles its rejections synchronously through the hook.
    let submit_with = |e: &Engine, _: u64, t: Tensor| {
        let (tx, rx) = std::sync::mpsc::channel();
        e.submit_with(
            &key,
            t,
            None,
            Box::new(move |r| {
                let _ = tx.send(r);
            }),
        );
        match rx.try_recv() {
            Err(_) => Ok(()),
            Ok(Err(ServeError::Rejected(e))) => Err(e),
            Ok(other) => panic!("unexpected synchronous settlement: {other:?}"),
        }
    };
    let feed = |e: &Engine, sid: u64, t: Tensor| e.feed_video_frame(sid, 0, t, None).map(drop);
    let fronts: [(&str, Front); 3] = [
        ("submit", &submit),
        ("submit_with", &submit_with),
        ("feed_video_frame", &feed),
    ];
    for (name, front) in fronts {
        let eng = Engine::new(
            EngineConfig {
                workers: 1,
                queue_capacity: 1,
                ..EngineConfig::default()
            },
            registry(),
        );
        let sid = eng
            .open_video_session(VideoSessionSpec::new(16, 16, ladder_keys()))
            .expect("open");
        eng.pause();
        let mut nan = frame(300, 16, 16);
        nan.data_mut()[5] = f32::NAN;
        assert!(
            matches!(front(&eng, sid, nan), Err(SubmitError::InvalidInput { .. })),
            "{name}: a NaN input is invalid"
        );
        assert_eq!(front(&eng, sid, frame(301, 16, 16)), Ok(()), "{name}");
        assert_eq!(
            front(&eng, sid, frame(302, 16, 16)),
            Err(SubmitError::QueueFull { capacity: 1 }),
            "{name}: the second request finds the queue full"
        );
        let c = eng.telemetry().snapshot().counters;
        assert_eq!(
            (c.submitted, c.rejected_invalid, c.rejected_queue_full),
            (1, 1, 1),
            "{name}"
        );
        eng.shutdown(Duration::from_secs(10));
        assert_eq!(
            front(&eng, sid, frame(303, 16, 16)),
            Err(SubmitError::Draining),
            "{name}"
        );
        assert_eq!(
            eng.telemetry().snapshot().counters.rejected_draining,
            1,
            "{name}"
        );
    }
}

#[test]
fn chaos_frames_all_settle_and_successes_stay_exact() {
    // All four seeded fault points against a stream of frames: panics,
    // slow models, transient load failures and a clock skewed past the
    // frames' deadline. The process must not abort, every ticket must
    // settle exactly once with a typed outcome, and every Ok settlement
    // must still be bit-identical — a frame that panicked mid-attempt
    // retries against uncommitted state.
    let eng = Engine::new(
        EngineConfig {
            workers: 2,
            queue_capacity: 64,
            max_retries: 3,
            restart_budget: 16,
            backoff_base: Duration::from_millis(1),
            chaos: Some(ChaosConfig {
                seed: 0x5_1DE0_CAFE,
                panic_per_mille: 150,
                slow_per_mille: 100,
                slow: Duration::from_millis(1),
                load_fail_per_mille: 200,
                skew_per_mille: 100,
                skew: Duration::from_secs(60),
            }),
            ..EngineConfig::default()
        },
        registry(),
    );
    let sid = eng
        .open_video_session(VideoSessionSpec::new(16, 16, ladder_keys()))
        .expect("open");
    let (mut ok, mut expired, mut load, mut crashed) = (0u64, 0u64, 0u64, 0u64);
    let mut seq = 0u64;
    let frames = 48u64;
    for i in 0..frames {
        let f = frame(200 + i / 3, 16, 16); // every third frame changes
        let out = eng
            .feed_video_frame(sid, seq, f.clone(), Some(Duration::from_secs(30)))
            .expect("feed")
            .wait();
        // After any failure the same seq is fed again.
        match out {
            Ok(t) => {
                ok += 1;
                seq += 1;
                assert_eq!(
                    reference(&f).max_abs_diff(&t),
                    0.0,
                    "chaos-surviving frame diverged"
                );
            }
            Err(ServeError::DeadlineExpired) => expired += 1,
            Err(ServeError::ModelLoad(_)) => load += 1,
            Err(ServeError::WorkerCrashed(_)) => crashed += 1,
            Err(e) => panic!("unexpected terminal error: {e}"),
        }
    }
    assert_eq!(
        ok + expired + load + crashed,
        frames,
        "every frame settles exactly once"
    );
    assert!(ok > 0, "some frames must survive the chaos schedule");
    let stats = eng.close_video_session(sid).expect("close");
    assert_eq!(ok, stats.frames_in - stats.frames_duplicate);
    let c = eng.telemetry().snapshot().counters;
    assert_eq!(c.rejected_deadline, expired);
    assert_eq!(c.requests_quarantined, crashed);
    assert_eq!(c.faults_load, c.model_load_failures);
    assert_eq!(c.worker_restarts, 0, "frame panics are contained");
    let faults = [c.faults_panic, c.faults_slow, c.faults_load, c.faults_skew];
    assert!(
        faults.iter().all(|&n| n > 0),
        "every fault point must fire: {faults:?}"
    );
}

// ---------------------------------------------------------------------------
// Router layer
// ---------------------------------------------------------------------------

fn router(max_sessions: usize) -> Router {
    Router::new(
        RouterConfig {
            shards: 2,
            max_sessions_per_tenant: max_sessions,
            engine: EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
            ..RouterConfig::default()
        },
        registry(),
    )
}

#[test]
fn router_sessions_route_feed_and_close() {
    let r = router(4);
    let sid = r
        .open_video_session("acme", VideoSessionSpec::new(16, 16, ladder_keys()))
        .expect("open");
    let f0 = frame(120, 16, 16);
    for seq in 0..2u64 {
        let out = r
            .feed_video_frame(sid, seq, f0.clone(), None)
            .expect("feed")
            .wait()
            .expect("settle");
        assert_eq!(reference(&f0).max_abs_diff(&out), 0.0);
    }
    let stats = r.video_session_stats(sid).expect("stats");
    assert_eq!(stats.frames_completed, 2);
    assert!(stats.tiles_skipped > 0, "second identical frame must reuse");
    let closed = r.close_video_session(sid).expect("close");
    assert_eq!(closed.frames_completed, 2);
    assert_eq!(
        r.feed_video_frame(sid, 2, f0, None).unwrap_err(),
        RouterSubmitError::Video(VideoError::UnknownSession(sid))
    );
}

#[test]
fn per_tenant_session_cap_is_enforced() {
    let r = router(2);
    let spec = || VideoSessionSpec::new(16, 16, ladder_keys());
    let a1 = r.open_video_session("acme", spec()).expect("acme #1");
    let _a2 = r.open_video_session("acme", spec()).expect("acme #2");
    assert_eq!(
        r.open_video_session("acme", spec()).unwrap_err(),
        RouterSubmitError::Video(VideoError::SessionLimit { limit: 2 })
    );
    // The cap is per tenant, not fleet-wide.
    r.open_video_session("globex", spec()).expect("globex #1");
    // Closing frees cap space.
    r.close_video_session(a1).expect("close");
    r.open_video_session("acme", spec()).expect("acme again");
}

#[test]
fn router_unknown_session_errors_are_typed() {
    let r = router(4);
    assert_eq!(
        r.feed_video_frame(42, 0, frame(130, 16, 16), None)
            .unwrap_err(),
        RouterSubmitError::Video(VideoError::UnknownSession(42))
    );
    assert_eq!(
        r.close_video_session(42).unwrap_err(),
        VideoError::UnknownSession(42)
    );
    assert_eq!(
        r.video_session_stats(42).unwrap_err(),
        VideoError::UnknownSession(42)
    );
}

/// `warm_plans` is a pure cache warm-up: it must precompile each rung's
/// all-dirty (whole-frame) plan without touching session state, frames
/// that run whole must then hit that plan, and a warmed session's
/// composites must stay bit-identical to a cold one.
#[test]
fn warm_plans_precompiles_without_changing_outputs() {
    let models: Vec<Arc<CollapsedSesr>> = ladder().iter().map(|(_, m)| Arc::clone(m)).collect();
    let mut spec = VideoSessionSpec::new(40, 36, ladder_keys());
    spec.tile = 16;

    let mut warm = VideoSession::new(spec.clone(), &models).expect("session");
    let mut warm_plans = PlanCache::new();
    warm.warm_plans(&models, &mut warm_plans);
    // Every rung's planner now exists (re-requesting each is a hit) and
    // holds exactly the whole-frame plan.
    for (key, model) in ladder() {
        let (planner, hit) = warm_plans.tile_planner_for(key, model);
        assert!(hit, "warm_plans must have built the {key:?} planner");
        assert_eq!(planner.cached_plans(), 1, "{key:?}");
    }
    assert_eq!(warm.stats(), Default::default(), "warming touched stats");
    assert_eq!(warm.last_seq(), None, "warming settled a frame");

    let mut cold = VideoSession::new(spec, &models).expect("session");
    let mut cold_plans = PlanCache::new();
    for seq in 0..3u64 {
        let f = frame(90 + seq, 40, 36);
        let a = warm
            .process_frame(seq, &f, None, &models, &mut warm_plans)
            .expect("warm frame");
        let b = cold
            .process_frame(seq, &f, None, &models, &mut cold_plans)
            .expect("cold frame");
        assert_eq!(
            a.output.max_abs_diff(&b.output),
            0.0,
            "warmed session diverged at frame {seq}"
        );
    }
    // Every frame above was all-dirty and ran as the warmed whole-frame
    // rectangle: the top rung compiled nothing new.
    let (key, model) = &ladder()[ladder().len() - 1];
    let (planner, _) = warm_plans.tile_planner_for(key, model);
    assert_eq!(planner.cached_plans(), 1);
}

/// At the benchmark's video geometry — 96x160 LR, 32 px tiles, an
/// m11-radius (15 px) halo — a sprite stepping one tile per frame dirties
/// 12 of the 15 tiles, which run as one 96x143 or 96x144 rectangle. With
/// the whole frame that is three plan shapes, so the top rung's planner
/// never evicts; per-tile runs touched nine clamped shapes, one more
/// than `TilePlanner::DEFAULT_CAP`.
#[test]
fn steady_pan_never_evicts_the_top_rung_planner() {
    // Four feature channels keep the m11 chain cheap in debug builds;
    // the halo depends only on the kernel stack.
    let cfg = SesrConfig {
        f: 4,
        ..SesrConfig::m(11).with_expanded(4).with_seed(60)
    };
    let model = Arc::new(Sesr::new(cfg).collapse());
    assert_eq!(model.receptive_field_radius(), 15);
    let key = ModelKey::new("m11", 2);
    let models = vec![Arc::clone(&model)];
    let mut spec = VideoSessionSpec::new(96, 160, vec![key.clone()]);
    spec.tile = 32;
    let mut sess = VideoSession::new(spec, &models).expect("session");
    let mut plans = PlanCache::new();
    sess.warm_plans(&models, &mut plans);

    // A 24 px sprite inside tile row 1, bouncing over tile columns 1-3.
    let background = frame(61, 96, 160);
    let sprite = frame(62, 24, 24);
    let pan: Vec<Tensor> = [36usize, 68, 100]
        .iter()
        .map(|&x| {
            let mut f = background.clone();
            f.blit_hw(&sprite, 36, x);
            f
        })
        .collect();
    let position = |seq: u64| [0usize, 1, 2, 1][seq as usize % 4];
    for seq in 0..26u64 {
        let f = &pan[position(seq)];
        let r = sess
            .process_frame(seq, f, None, &models, &mut plans)
            .expect("pan frame");
        if seq > 0 {
            assert_eq!(
                (r.stats.tiles_recomputed, r.stats.tiles_skipped),
                (12, 3),
                "frame {seq}"
            );
        }
        if seq == 25 {
            assert_eq!(model.run(f).max_abs_diff(&r.output), 0.0);
        }
    }
    let (planner, _) = plans.tile_planner_for(&key, &model);
    assert_eq!(planner.evictions(), 0);
    assert_eq!(planner.cached_plans(), 3);
}
