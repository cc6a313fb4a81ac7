//! Shard supervision: health probing, circuit breaking, wedge detection,
//! budgeted respawn, and shard-level chaos injection.
//!
//! One supervisor thread probes every shard each `probe_interval`:
//!
//! * **Chaos** — when configured, it is the supervisor that injects the
//!   shard-level faults: *kill* (hard engine shutdown: queued work
//!   settles through hooks and reroutes), *wedge* (pause the engine's
//!   queue so the shard is alive-but-stuck — exactly the failure health
//!   probes alone cannot see), and *fail respawn* (the replacement
//!   engine "fails to boot", consuming respawn backoff).
//! * **Breaker** — a killed or dead shard opens its breaker *before*
//!   its engine is torn down, so hook-driven reroutes already exclude
//!   it. Respawn moves the breaker to half-open; it closes again only
//!   after the fresh engine serves `half_open_successes` completions.
//! * **Wedge detection** — a shard with queued work whose completion
//!   counter has not advanced for `stall_ticks` consecutive probes is
//!   declared wedged and drain-and-replaced. Health probes return
//!   `Healthy` for a paused engine; only the progress signal catches it.
//! * **Respawn budget** — each shard gets `respawn_budget` replacement
//!   engines; attempts back off exponentially with deterministic jitter
//!   (shared with the engine's retry machinery) so simultaneous
//!   failures do not stampede. A shard that exhausts the budget stays
//!   open forever and the rest of the fleet absorbs its keys.
//! * **Autoscale execution** — with [`RouterConfig::autoscale`] set, the
//!   supervisor additionally feeds one pressure observation per tick to
//!   the pure [`AutoscaleController`] and executes its decisions: *up*
//!   spawns an engine into a dormant slot (warm through the shared plan
//!   store) and adds it to the ring; *down* takes the victim off the
//!   ring first (bounded key move), lets its queues flush within
//!   `drain_grace`, migrates pinned video sessions to live shards (or
//!   leaves them to settle as typed `SessionLost`), and only then
//!   retires the slot. At most one scaling transition is in flight at a
//!   time, and every completed transition re-arms the controller's
//!   cooldown.
//!
//! [`RouterConfig::autoscale`]: crate::router::RouterConfig
//! [`AutoscaleController`]: crate::autoscale::AutoscaleController

use crate::autoscale::{AutoscaleConfig, AutoscaleController, ScaleSignal};
use crate::chaos::splitmix64;
use crate::engine::{Engine, Health};
use crate::router::{respawn_backoff, RouterCore, BREAKER_CLOSED, BREAKER_HALF_OPEN, BREAKER_OPEN};
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError};
use std::time::Duration;

/// Synthetic keys sampled per ring edit to measure `keys_rebalanced`.
const REBALANCE_SAMPLES: u64 = 1024;

struct ProbeState {
    /// Engine completion count at the previous probe.
    last_completed: u64,
    /// Consecutive probes with queued work and no progress.
    stall: u32,
    /// Tick at which an injected wedge auto-releases (if the stall
    /// detector has not replaced the shard first).
    wedged_until: Option<u64>,
    /// Engine generation when the wedge was injected; a replaced engine
    /// must not be resumed by a stale wedge timer.
    wedged_gen: u64,
    /// Tick at which the next respawn attempt is due. `None` while the
    /// shard is live, or forever once the budget is exhausted.
    respawn_at: Option<u64>,
    /// Consecutive failed respawn attempts (backoff exponent).
    failed_respawns: u32,
}

impl ProbeState {
    fn new() -> Self {
        Self {
            last_completed: 0,
            stall: 0,
            wedged_until: None,
            wedged_gen: 0,
            respawn_at: None,
            failed_respawns: 0,
        }
    }
}

pub(crate) fn supervisor_loop(core: Arc<RouterCore>) {
    let mut st: Vec<ProbeState> = (0..core.shards.len()).map(|_| ProbeState::new()).collect();
    let mut scaler = core.cfg.autoscale.clone().map(Autoscaler::new);
    let mut tick: u64 = 0;
    while core.running() {
        std::thread::sleep(core.cfg.probe_interval);
        tick += 1;
        for (i, ps) in st.iter_mut().enumerate() {
            probe_shard(&core, i, tick, ps);
        }
        if let Some(s) = scaler.as_mut() {
            s.step(&core, tick, &mut st);
        }
    }
}

fn engine_of(core: &RouterCore, i: usize) -> Option<Arc<Engine>> {
    core.shards[i].engine()
}

/// Slots currently holding an engine (live, killed-awaiting-respawn, or
/// draining) — the autoscaler's notion of fleet size.
fn active_count(core: &RouterCore) -> usize {
    core.shards
        .iter()
        .filter(|s| {
            s.engine
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .is_some()
        })
        .count()
}

/// Slots actually taking primary traffic right now: engine present,
/// breaker not open, not draining. `active_count` minus dead-awaiting-
/// respawn and scale-down victims — the fleet's real serving capacity.
fn serving_count(core: &RouterCore) -> usize {
    core.shards
        .iter()
        .filter(|s| {
            s.breaker.load(Ordering::Acquire) != BREAKER_OPEN
                && !s.draining.load(Ordering::Acquire)
                && s.engine
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .is_some()
        })
        .count()
}

fn ticks_for(core: &RouterCore, d: Duration) -> u64 {
    let probe = core.cfg.probe_interval.max(Duration::from_micros(1));
    ((d.as_nanos() / probe.as_nanos()) as u64).max(1)
}

/// Opens the breaker, tears the engine down (its hooks reroute queued
/// work), and schedules a respawn.
fn kill_shard(core: &RouterCore, i: usize, tick: u64, st: &mut ProbeState) {
    let shard = &core.shards[i];
    shard.breaker.store(BREAKER_OPEN, Ordering::Release);
    core.telemetry.counters(|c| c.breaker_opens += 1);
    // Hard stop: no drain budget. close() overrides pause, and the
    // shutdown path settles every queued job through its hook, which
    // reroutes now that the breaker is already open.
    if let Some(engine) = engine_of(core, i) {
        engine.shutdown(Duration::ZERO);
    }
    st.wedged_until = None;
    st.stall = 0;
    st.last_completed = 0;
    st.failed_respawns = 0;
    st.respawn_at = Some(tick + 1);
}

fn try_respawn(core: &RouterCore, i: usize, tick: u64, st: &mut ProbeState) {
    let shard = &core.shards[i];
    if shard.respawns_used.load(Ordering::Relaxed) >= u64::from(core.cfg.respawn_budget) {
        // Budget exhausted: the shard stays open forever; the fleet
        // absorbs its keys through rendezvous fallback.
        st.respawn_at = None;
        return;
    }
    // Below minimum *serving* capacity (the dead slot counts as active
    // but routes nothing) there is no slack shard to absorb a failed
    // comeback — the dedicated chaos point targets exactly that moment.
    let at_min = core
        .cfg
        .autoscale
        .as_ref()
        .is_some_and(|a| serving_count(core) < a.min_shards);
    let injected = core
        .chaos
        .as_ref()
        .is_some_and(|c| c.fail_respawn() || (at_min && c.fail_respawn_at_min()));
    if injected {
        core.telemetry.counters(|c| c.respawn_failures += 1);
        st.failed_respawns += 1;
        let sleep = respawn_backoff(core, st.failed_respawns);
        st.respawn_at = Some(tick + ticks_for(core, sleep));
        return;
    }
    let fresh = Arc::new(Engine::new(core.cfg.engine.clone(), core.registry.clone()));
    *shard.engine.write().unwrap_or_else(PoisonError::into_inner) = Some(fresh);
    shard.generation.fetch_add(1, Ordering::Release);
    shard.respawns_used.fetch_add(1, Ordering::Relaxed);
    st.failed_respawns = 0;
    st.respawn_at = None;
    st.stall = 0;
    st.last_completed = 0;
    shard.breaker.store(BREAKER_HALF_OPEN, Ordering::Release);
    core.telemetry.counters(|c| {
        c.shard_respawns += 1;
        c.breaker_half_opens += 1;
    });
    // Elastic fleets: a scaling-event kill may have knocked this slot
    // out of the ring between join and death. Half-open shards take
    // primary traffic (that is how they prove themselves), so rejoin
    // here — idempotent, and a no-op move count when already a member.
    if core.cfg.autoscale.is_some() {
        let moved = edit_ring(core, |ring| ring.add_shard(i));
        core.telemetry.counters(|c| c.keys_rebalanced += moved);
    }
}

fn probe_shard(core: &RouterCore, i: usize, tick: u64, st: &mut ProbeState) {
    let shard = &core.shards[i];
    // Dormant slots have nothing to probe; scale-down victims belong to
    // the autoscaler's drain state machine (injecting a kill or a stall
    // replace mid-drain would race its retirement sequence).
    if shard.draining.load(Ordering::Acquire) {
        return;
    }
    let breaker = shard.breaker.load(Ordering::Acquire);
    if breaker == BREAKER_OPEN {
        if let Some(due) = st.respawn_at {
            if tick >= due {
                try_respawn(core, i, tick, st);
            }
        }
        return;
    }
    // Live shard (closed or half-open breaker).
    if core.chaos.as_ref().is_some_and(|c| c.kill_shard()) {
        core.telemetry.counters(|c| c.shard_kills += 1);
        kill_shard(core, i, tick, st);
        return;
    }
    let Some(engine) = engine_of(core, i) else {
        return;
    };
    if st.wedged_until.is_none() && core.chaos.as_ref().is_some_and(|c| c.wedge_shard()) {
        core.telemetry.counters(|c| c.shard_wedges += 1);
        engine.pause();
        st.wedged_until = Some(tick + ticks_for(core, core.cfg.shard_chaos_wedge()));
        st.wedged_gen = shard.generation.load(Ordering::Acquire);
    }
    if let Some(until) = st.wedged_until {
        if tick >= until {
            if shard.generation.load(Ordering::Acquire) == st.wedged_gen {
                engine.resume();
            }
            st.wedged_until = None;
        }
    }
    // An engine that reports Draining without the router asking for it
    // has died underneath us (e.g. its worker pool exhausted its restart
    // budget): replace it.
    if engine.health() == Health::Draining {
        kill_shard(core, i, tick, st);
        return;
    }
    // Wedge detection: queued work, no completions for stall_ticks
    // consecutive probes. This is the only probe that sees a paused (or
    // livelocked) engine — health() happily reports Healthy for one.
    let completed = engine.telemetry().counters(|c| c.completed);
    if engine.queue_depth() > 0 && completed == st.last_completed {
        st.stall += 1;
    } else {
        st.stall = 0;
    }
    st.last_completed = completed;
    if st.stall >= core.cfg.stall_ticks {
        core.telemetry.counters(|c| c.wedges_detected += 1);
        kill_shard(core, i, tick, st);
        return;
    }
    // Half-open probing: the respawned engine rejoins the ring only
    // after proving it can complete work.
    if breaker == BREAKER_HALF_OPEN && completed >= core.cfg.half_open_successes {
        shard.breaker.store(BREAKER_CLOSED, Ordering::Release);
        core.telemetry.counters(|c| c.breaker_closes += 1);
    }
}

// ---------------------------------------------------------------------------
// Autoscale execution
// ---------------------------------------------------------------------------

/// One in-flight scale-down.
struct DrainState {
    /// The retiring slot.
    slot: usize,
    /// Tick at which the drain is force-completed (in-flight work then
    /// reroutes through the shutdown hooks instead of finishing here).
    deadline_tick: u64,
}

/// Supervisor-side executor around the pure [`AutoscaleController`].
struct Autoscaler {
    ctl: AutoscaleController,
    drain: Option<DrainState>,
    /// `failed_deadline` at the previous tick; a positive delta
    /// saturates the pressure signal.
    last_deadline_misses: u64,
}

impl Autoscaler {
    fn new(cfg: AutoscaleConfig) -> Self {
        Self {
            ctl: AutoscaleController::new(cfg),
            drain: None,
            last_deadline_misses: 0,
        }
    }

    fn step(&mut self, core: &Arc<RouterCore>, tick: u64, st: &mut [ProbeState]) {
        if self.drain.is_some() {
            self.drive_drain(core, tick, st);
            return;
        }
        let pressure = self.pressure(core);
        let active = active_count(core);
        match self.ctl.observe(tick, pressure, active) {
            ScaleSignal::Hold => {}
            ScaleSignal::BlockedAtMax => {
                core.telemetry.counters(|c| c.autoscale_blocked_at_max += 1);
            }
            ScaleSignal::Up => self.scale_up(core, tick, st),
            ScaleSignal::Down => self.scale_down(core, tick),
        }
    }

    /// Mean router-queue fill over live (non-draining, engine-holding)
    /// slots, saturated to 1.0 whenever deadline misses were recorded
    /// since the previous tick — a missed deadline is the strongest
    /// "not enough capacity" signal the fleet produces.
    fn pressure(&mut self, core: &RouterCore) -> f64 {
        let misses = core.telemetry.counters(|c| c.failed_deadline);
        let missed_now = misses > self.last_deadline_misses;
        self.last_deadline_misses = misses;
        let (mut fill, mut n) = (0.0f64, 0usize);
        for s in core.shards.iter() {
            let live = s
                .engine
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .is_some()
                && !s.draining.load(Ordering::Acquire);
            if live {
                fill += s.queue.len() as f64 / core.cfg.shard_queue_capacity.max(1) as f64;
                n += 1;
            }
        }
        let mean = if n == 0 { 0.0 } else { fill / n as f64 };
        if missed_now {
            1.0
        } else {
            mean
        }
    }

    /// Spawns an engine into a dormant slot and joins it to the ring.
    /// The new shard is warm by construction: its workers draw collapsed
    /// kernels from the shared plan store and the GEMM autotuner cache
    /// is process-wide.
    fn scale_up(&mut self, core: &Arc<RouterCore>, tick: u64, st: &mut [ProbeState]) {
        let Some(slot) = core.shards.iter().position(|s| {
            s.engine
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .is_none()
        }) else {
            return;
        };
        let shard = &core.shards[slot];
        let fresh = Arc::new(Engine::new(core.cfg.engine.clone(), core.registry.clone()));
        *shard.engine.write().unwrap_or_else(PoisonError::into_inner) = Some(fresh);
        shard.generation.fetch_add(1, Ordering::Release);
        st[slot] = ProbeState::new();
        // Half-open like a respawn: it takes traffic immediately but
        // only counts as fully healthy after proving completions.
        shard.breaker.store(BREAKER_HALF_OPEN, Ordering::Release);
        let moved = edit_ring(core, |ring| ring.add_shard(slot));
        core.telemetry.counters(|c| {
            c.scale_up_events += 1;
            c.keys_rebalanced += moved;
            c.breaker_half_opens += 1;
        });
        self.ctl.note_transition(tick);
        // Scaling-event chaos: the freshly joined shard dies at the
        // worst moment — right after keys moved onto it. The normal
        // kill/respawn machinery takes over from here.
        if core.chaos.as_ref().is_some_and(|c| c.kill_on_spawn()) {
            core.telemetry.counters(|c| c.shard_kills += 1);
            let moved = edit_ring(core, |ring| ring.remove_shard(slot));
            core.telemetry.counters(|c| c.keys_rebalanced += moved);
            kill_shard(core, slot, tick, &mut st[slot]);
        }
    }

    /// Starts draining the highest-indexed live slot: off the ring
    /// first (new keys route elsewhere — a bounded move), then the
    /// drain state machine watches its queues empty.
    fn scale_down(&mut self, core: &Arc<RouterCore>, tick: u64) {
        let Some(victim) = core
            .shards
            .iter()
            .enumerate()
            .rev()
            .find(|(_, s)| {
                s.engine
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .is_some()
                    && !s.draining.load(Ordering::Acquire)
                    && s.breaker.load(Ordering::Acquire) != BREAKER_OPEN
            })
            .map(|(i, _)| i)
        else {
            return;
        };
        let shard = &core.shards[victim];
        shard.draining.store(true, Ordering::Release);
        let moved = edit_ring(core, |ring| ring.remove_shard(victim));
        core.telemetry.counters(|c| c.keys_rebalanced += moved);
        // Scaling-event chaos: the victim wedges mid-drain. Nothing
        // un-pauses it — the drain grace must expire and force-retire,
        // rerouting whatever the wedge stranded.
        if core.chaos.as_ref().is_some_and(|c| c.wedge_on_drain()) {
            core.telemetry.counters(|c| c.shard_wedges += 1);
            if let Some(engine) = shard.engine() {
                engine.pause();
            }
        }
        let grace = self.ctl.config().drain_grace;
        self.drain = Some(DrainState {
            slot: victim,
            deadline_tick: tick + ticks_for(core, grace),
        });
    }

    /// Watches an in-flight drain; on quiescence (or the grace
    /// deadline) migrates pinned video sessions and retires the slot.
    fn drive_drain(&mut self, core: &Arc<RouterCore>, tick: u64, st: &mut [ProbeState]) {
        let Some(d) = &self.drain else { return };
        let (slot, deadline_tick) = (d.slot, d.deadline_tick);
        let shard = &core.shards[slot];
        let Some(engine) = shard.engine() else {
            // The engine vanished mid-drain (chaos kill raced the drain
            // start): nothing left to flush, just retire the slot.
            self.retire(core, tick, slot, st);
            return;
        };
        let quiescent = shard.queue.len() == 0 && engine.queue_depth() == 0;
        if !quiescent && tick < deadline_tick {
            return;
        }
        migrate_video_pins(core, slot, &engine);
        // Breaker open *before* the hard stop, exactly like kill_shard:
        // shutdown hooks then reroute any in-flight work off this slot.
        shard.breaker.store(BREAKER_OPEN, Ordering::Release);
        core.telemetry.counters(|c| c.breaker_opens += 1);
        engine.shutdown(Duration::ZERO);
        self.retire(core, tick, slot, st);
    }

    /// Final slot retirement: generation bump (stale video pins become
    /// typed `SessionLost`), engine slot cleared, probe state reset.
    fn retire(&mut self, core: &Arc<RouterCore>, tick: u64, slot: usize, st: &mut [ProbeState]) {
        let shard = &core.shards[slot];
        shard.generation.fetch_add(1, Ordering::Release);
        *shard.engine.write().unwrap_or_else(PoisonError::into_inner) = None;
        shard.breaker.store(BREAKER_OPEN, Ordering::Release);
        shard.draining.store(false, Ordering::Release);
        st[slot] = ProbeState::new();
        core.telemetry.counters(|c| c.scale_down_events += 1);
        self.drain = None;
        self.ctl.note_transition(tick);
    }
}

/// Applies one ring edit and returns how many sampled keys it moved.
fn edit_ring(core: &RouterCore, edit: impl FnOnce(&mut crate::autoscale::HashRing)) -> u64 {
    let mut ring = core.ring.write().unwrap_or_else(PoisonError::into_inner);
    let before = ring.clone();
    edit(&mut ring);
    before.sampled_moves(&ring, REBALANCE_SAMPLES)
}

/// Moves every video session pinned to the retiring `slot` onto a live
/// shard, state and all. A session that cannot move (no live target, or
/// a worker holds it mid-frame) keeps its stale pin so the retirement
/// generation bump surfaces it as a typed [`VideoError::SessionLost`] —
/// settled, never silently dead.
///
/// [`VideoError::SessionLost`]: crate::video::VideoError
fn migrate_video_pins(core: &Arc<RouterCore>, slot: usize, engine: &Arc<Engine>) {
    let gen_now = core.shards[slot].generation.load(Ordering::Acquire);
    let mut sessions = core
        .video_sessions
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let pinned: Vec<u64> = sessions
        .iter()
        .filter(|(_, pin)| pin.shard == slot && pin.generation == gen_now)
        .map(|(&id, _)| id)
        .collect();
    for id in pinned {
        // Stable per-session target draw, excluding the retiring slot.
        let Some(target) = core.rendezvous(splitmix64(id), Some(slot)) else {
            continue;
        };
        let Some(target_engine) = core.shards[target].engine() else {
            continue;
        };
        let Some(pin) = sessions.get(&id) else {
            continue;
        };
        let Ok(state) = engine.export_video_session(pin.engine_session) else {
            continue;
        };
        match target_engine.import_video_session(state) {
            Ok(new_engine_session) => {
                if let Some(pin) = sessions.get_mut(&id) {
                    pin.shard = target;
                    pin.generation = core.shards[target].generation.load(Ordering::Acquire);
                    pin.engine_session = new_engine_session;
                }
            }
            Err(_) => {
                // Exported but not importable (target drained in the
                // same instant): the state is gone; the stale pin makes
                // the loss typed at next touch.
            }
        }
    }
}
