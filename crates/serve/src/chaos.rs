//! Deterministic, seed-driven fault injection for the serving engine.
//!
//! Chaos engineering for an in-process engine: the fault points a real
//! deployment fears — a panicking forward pass, a model that suddenly
//! runs slow, a registry artifact that fails to load, a skewed clock
//! making deadlines fire early — are threaded through the engine behind
//! an optional [`ChaosConfig`]. Every *decision* is a pure function of
//! `(seed, fault point, per-point decision index)`, so a given seed
//! yields the same fault pattern for the same sequence of decisions,
//! independent of wall-clock time. Thread scheduling can interleave
//! which request draws which index, but the *set* of indices drawn (and
//! therefore the number of injected faults after N decisions) is fixed —
//! which is what the soak test's reconciliation arithmetic needs.
//!
//! The engine, not this module, performs the effects (panicking,
//! sleeping, failing a load) and counts each injection into telemetry,
//! so `faults_injected` can be reconciled against observed restarts,
//! retries, and rejections.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Rates (per mille) and magnitudes for each fault point. All rates
/// default to 0, so a default config injects nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed for the deterministic decision stream.
    pub seed: u64,
    /// Per-mille probability that a forward pass panics.
    pub panic_per_mille: u32,
    /// Per-mille probability that a forward pass is slowed by `slow`.
    pub slow_per_mille: u32,
    /// Per-mille probability that a registry load fails transiently.
    pub load_fail_per_mille: u32,
    /// Per-mille probability that a batch's deadline check runs with the
    /// clock skewed forward by `skew` (deadlines fire early).
    pub skew_per_mille: u32,
    /// Injected compute delay for slow-model faults.
    pub slow: Duration,
    /// Injected clock skew for skewed-deadline faults.
    pub skew: Duration,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            panic_per_mille: 0,
            slow_per_mille: 0,
            load_fail_per_mille: 0,
            skew_per_mille: 0,
            slow: Duration::from_millis(2),
            skew: Duration::from_millis(50),
        }
    }
}

/// The four fault points threaded through the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultPoint {
    /// The forward pass (a batch, a large frame or a video frame) panics.
    PanicInForward,
    /// The forward pass is artificially delayed.
    SlowModel,
    /// The registry reports a transient load failure.
    RegistryLoad,
    /// The deadline check observes a clock skewed forward.
    ClockSkew,
}

impl FaultPoint {
    fn index(self) -> usize {
        match self {
            FaultPoint::PanicInForward => 0,
            FaultPoint::SlowModel => 1,
            FaultPoint::RegistryLoad => 2,
            FaultPoint::ClockSkew => 3,
        }
    }

    fn salt(self) -> u64 {
        // Arbitrary distinct constants so the four decision streams are
        // independent even though they share one seed.
        [
            0x9E37_79B9_7F4A_7C15,
            0xD1B5_4A32_D192_ED03,
            0x8CB9_2BA7_2F3D_8DD7,
            0xA24B_AED4_963E_E407,
        ][self.index()]
    }
}

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Runtime state of the injector: the config plus one decision counter
/// per fault point.
pub struct Chaos {
    cfg: ChaosConfig,
    draws: [AtomicU64; 4],
}

impl Chaos {
    /// An injector over `cfg`.
    pub fn new(cfg: ChaosConfig) -> Self {
        Self {
            cfg,
            draws: [
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ],
        }
    }

    /// The configuration this injector was built with.
    pub fn config(&self) -> &ChaosConfig {
        &self.cfg
    }

    /// Draws the next decision for `point`: true means "inject".
    fn draw(&self, point: FaultPoint, per_mille: u32) -> bool {
        if per_mille == 0 {
            return false;
        }
        let i = self.draws[point.index()].fetch_add(1, Ordering::Relaxed);
        let h = splitmix64(self.cfg.seed ^ point.salt() ^ i.wrapping_mul(0x2545_F491_4F6C_DD1D));
        (h % 1000) < u64::from(per_mille.min(1000))
    }

    /// Should this forward pass panic?
    pub fn panic_in_forward(&self) -> bool {
        self.draw(FaultPoint::PanicInForward, self.cfg.panic_per_mille)
    }

    /// Delay to inject into this forward pass, if any.
    pub fn slow_model(&self) -> Option<Duration> {
        self.draw(FaultPoint::SlowModel, self.cfg.slow_per_mille)
            .then_some(self.cfg.slow)
    }

    /// Should this registry load fail transiently?
    pub fn fail_registry_load(&self) -> bool {
        self.draw(FaultPoint::RegistryLoad, self.cfg.load_fail_per_mille)
    }

    /// Clock skew to apply to this batch's deadline check, if any.
    pub fn deadline_skew(&self) -> Option<Duration> {
        self.draw(FaultPoint::ClockSkew, self.cfg.skew_per_mille)
            .then_some(self.cfg.skew)
    }

    /// Decisions drawn so far per fault point (panic, slow, load, skew).
    pub fn draws(&self) -> [u64; 4] {
        [
            self.draws[0].load(Ordering::Relaxed),
            self.draws[1].load(Ordering::Relaxed),
            self.draws[2].load(Ordering::Relaxed),
            self.draws[3].load(Ordering::Relaxed),
        ]
    }
}

/// Shard-level fault points driven by the router's supervisor tick.
///
/// These model whole-process failures rather than per-request ones: a
/// shard that dies outright, a shard that wedges (stops consuming while
/// staying alive), and a respawn attempt that itself fails — the three
/// ways a fleet member disappoints a load balancer — plus their
/// scaling-transition variants (killed right after scale-up, wedged
/// mid-drain, respawn failure with the fleet already at minimum).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFaultPoint {
    /// The shard's engine is killed outright (hard crash).
    Kill,
    /// The shard stops consuming its queue but stays alive.
    Wedge,
    /// A scheduled respawn of a dead shard fails.
    RespawnFail,
    /// A freshly scaled-up shard is killed right after joining the ring
    /// (the worst moment: keys just moved to it).
    SpawnKill,
    /// A shard wedges mid-drain during scale-down (the drain grace
    /// period must expire and reroute, not hang the controller).
    DrainWedge,
    /// A respawn fails while the fleet sits at minimum capacity (no
    /// slack shard to absorb the loss).
    MinRespawnFail,
}

impl ShardFaultPoint {
    fn index(self) -> usize {
        match self {
            ShardFaultPoint::Kill => 0,
            ShardFaultPoint::Wedge => 1,
            ShardFaultPoint::RespawnFail => 2,
            ShardFaultPoint::SpawnKill => 3,
            ShardFaultPoint::DrainWedge => 4,
            ShardFaultPoint::MinRespawnFail => 5,
        }
    }

    fn salt(self) -> u64 {
        [
            0xC1A0_5F1E_E7B4_D001,
            0xC1A0_5F1E_E7B4_D002,
            0xC1A0_5F1E_E7B4_D003,
            0xC1A0_5F1E_E7B4_D004,
            0xC1A0_5F1E_E7B4_D005,
            0xC1A0_5F1E_E7B4_D006,
        ][self.index()]
    }
}

/// Rates (per mille, drawn once per shard per supervisor tick) and caps
/// for shard-level fault injection. All rates default to 0.
///
/// The caps bound the *total* number of injections per fault point over
/// the run, so a soak can demand "exactly one whole-shard kill" without
/// the fleet degenerating into permanent chaos.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardChaosConfig {
    /// Seed for the deterministic decision stream (independent of any
    /// engine-level [`ChaosConfig`] seed).
    pub seed: u64,
    /// Per-mille probability (per shard-tick) that a live shard is killed.
    pub kill_per_mille: u32,
    /// Per-mille probability (per shard-tick) that a live shard wedges.
    pub wedge_per_mille: u32,
    /// Per-mille probability that a due respawn attempt fails.
    pub respawn_fail_per_mille: u32,
    /// Per-mille probability that a freshly scaled-up shard is killed
    /// right after joining the ring.
    pub spawn_kill_per_mille: u32,
    /// Per-mille probability that a shard draining for scale-down wedges.
    pub drain_wedge_per_mille: u32,
    /// Per-mille probability that a due respawn fails while the fleet is
    /// at minimum capacity.
    pub min_respawn_fail_per_mille: u32,
    /// Most kills to inject over the whole run.
    pub max_kills: u64,
    /// Most wedges to inject over the whole run.
    pub max_wedges: u64,
    /// Most respawn failures to inject over the whole run.
    pub max_respawn_fails: u64,
    /// Most scale-up kills to inject over the whole run.
    pub max_spawn_kills: u64,
    /// Most drain wedges to inject over the whole run.
    pub max_drain_wedges: u64,
    /// Most at-minimum respawn failures to inject over the whole run.
    pub max_min_respawn_fails: u64,
    /// How long a wedged shard stays paused if the supervisor's stall
    /// detector does not replace it first.
    pub wedge: Duration,
}

impl Default for ShardChaosConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            kill_per_mille: 0,
            wedge_per_mille: 0,
            respawn_fail_per_mille: 0,
            spawn_kill_per_mille: 0,
            drain_wedge_per_mille: 0,
            min_respawn_fail_per_mille: 0,
            max_kills: u64::MAX,
            max_wedges: u64::MAX,
            max_respawn_fails: u64::MAX,
            max_spawn_kills: u64::MAX,
            max_drain_wedges: u64::MAX,
            max_min_respawn_fails: u64::MAX,
            wedge: Duration::from_millis(200),
        }
    }
}

/// Runtime state of the shard-fault injector: per-point decision
/// counters plus per-point injection tallies (for the caps).
pub struct ShardChaos {
    cfg: ShardChaosConfig,
    draws: [AtomicU64; 6],
    fired: [AtomicU64; 6],
}

impl ShardChaos {
    /// An injector over `cfg`.
    pub fn new(cfg: ShardChaosConfig) -> Self {
        Self {
            cfg,
            draws: std::array::from_fn(|_| AtomicU64::new(0)),
            fired: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The configuration this injector was built with.
    pub fn config(&self) -> &ShardChaosConfig {
        &self.cfg
    }

    fn draw(&self, point: ShardFaultPoint, per_mille: u32, cap: u64) -> bool {
        if per_mille == 0 {
            return false;
        }
        let i = self.draws[point.index()].fetch_add(1, Ordering::Relaxed);
        let h = splitmix64(self.cfg.seed ^ point.salt() ^ i.wrapping_mul(0x2545_F491_4F6C_DD1D));
        if (h % 1000) >= u64::from(per_mille.min(1000)) {
            return false;
        }
        // The decision fired; honor the cap by un-counting overflow.
        if self.fired[point.index()].fetch_add(1, Ordering::Relaxed) >= cap {
            self.fired[point.index()].fetch_sub(1, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// Should this live shard be killed now?
    pub fn kill_shard(&self) -> bool {
        self.draw(
            ShardFaultPoint::Kill,
            self.cfg.kill_per_mille,
            self.cfg.max_kills,
        )
    }

    /// Should this live shard wedge now?
    pub fn wedge_shard(&self) -> bool {
        self.draw(
            ShardFaultPoint::Wedge,
            self.cfg.wedge_per_mille,
            self.cfg.max_wedges,
        )
    }

    /// Should this due respawn attempt fail?
    pub fn fail_respawn(&self) -> bool {
        self.draw(
            ShardFaultPoint::RespawnFail,
            self.cfg.respawn_fail_per_mille,
            self.cfg.max_respawn_fails,
        )
    }

    /// Should this freshly scaled-up shard be killed as it joins?
    pub fn kill_on_spawn(&self) -> bool {
        self.draw(
            ShardFaultPoint::SpawnKill,
            self.cfg.spawn_kill_per_mille,
            self.cfg.max_spawn_kills,
        )
    }

    /// Should this draining shard wedge mid-drain?
    pub fn wedge_on_drain(&self) -> bool {
        self.draw(
            ShardFaultPoint::DrainWedge,
            self.cfg.drain_wedge_per_mille,
            self.cfg.max_drain_wedges,
        )
    }

    /// Should this respawn fail given the fleet is at minimum capacity?
    pub fn fail_respawn_at_min(&self) -> bool {
        self.draw(
            ShardFaultPoint::MinRespawnFail,
            self.cfg.min_respawn_fail_per_mille,
            self.cfg.max_min_respawn_fails,
        )
    }

    /// Injections so far per fault point (kill, wedge, respawn-fail,
    /// spawn-kill, drain-wedge, min-respawn-fail).
    pub fn fired(&self) -> [u64; 6] {
        std::array::from_fn(|i| self.fired[i].load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_on(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            panic_per_mille: 100,
            slow_per_mille: 100,
            load_fail_per_mille: 100,
            skew_per_mille: 100,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn default_config_injects_nothing() {
        let c = Chaos::new(ChaosConfig::default());
        for _ in 0..100 {
            assert!(!c.panic_in_forward());
            assert!(c.slow_model().is_none());
            assert!(!c.fail_registry_load());
            assert!(c.deadline_skew().is_none());
        }
        // Disabled points must not even consume decision indices.
        assert_eq!(c.draws(), [0, 0, 0, 0]);
    }

    #[test]
    fn same_seed_same_decision_sequence() {
        let a = Chaos::new(all_on(7));
        let b = Chaos::new(all_on(7));
        for _ in 0..500 {
            assert_eq!(a.panic_in_forward(), b.panic_in_forward());
            assert_eq!(a.fail_registry_load(), b.fail_registry_load());
            assert_eq!(a.slow_model(), b.slow_model());
            assert_eq!(a.deadline_skew(), b.deadline_skew());
        }
    }

    #[test]
    fn rate_is_respected_within_tolerance() {
        let c = Chaos::new(ChaosConfig {
            seed: 3,
            panic_per_mille: 100,
            ..ChaosConfig::default()
        });
        let hits = (0..10_000).filter(|_| c.panic_in_forward()).count();
        // 10% ± 3% absolute over 10k draws.
        assert!((700..=1300).contains(&hits), "hits={hits}");
    }

    #[test]
    fn per_mille_1000_always_fires() {
        let c = Chaos::new(ChaosConfig {
            seed: 1,
            panic_per_mille: 1000,
            ..ChaosConfig::default()
        });
        assert!((0..64).all(|_| c.panic_in_forward()));
    }

    #[test]
    fn fault_points_have_independent_streams() {
        let c = Chaos::new(all_on(11));
        let panics: Vec<bool> = (0..200).map(|_| c.panic_in_forward()).collect();
        let loads: Vec<bool> = (0..200).map(|_| c.fail_registry_load()).collect();
        assert_ne!(panics, loads, "streams must differ under one seed");
    }

    #[test]
    fn shard_chaos_is_deterministic_and_capped() {
        let cfg = ShardChaosConfig {
            seed: 42,
            kill_per_mille: 500,
            wedge_per_mille: 500,
            respawn_fail_per_mille: 1000,
            max_kills: 2,
            max_wedges: 1,
            max_respawn_fails: 3,
            ..ShardChaosConfig::default()
        };
        let a = ShardChaos::new(cfg.clone());
        let b = ShardChaos::new(cfg);
        let seq_a: Vec<(bool, bool, bool)> = (0..100)
            .map(|_| (a.kill_shard(), a.wedge_shard(), a.fail_respawn()))
            .collect();
        let seq_b: Vec<(bool, bool, bool)> = (0..100)
            .map(|_| (b.kill_shard(), b.wedge_shard(), b.fail_respawn()))
            .collect();
        assert_eq!(seq_a, seq_b, "same seed must give the same schedule");
        assert_eq!(a.fired(), [2, 1, 3, 0, 0, 0], "caps must bound injections");
    }

    #[test]
    fn shard_chaos_zero_rates_inject_nothing() {
        let c = ShardChaos::new(ShardChaosConfig::default());
        for _ in 0..50 {
            assert!(!c.kill_shard());
            assert!(!c.wedge_shard());
            assert!(!c.fail_respawn());
            assert!(!c.kill_on_spawn());
            assert!(!c.wedge_on_drain());
            assert!(!c.fail_respawn_at_min());
        }
        assert_eq!(c.fired(), [0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn scaling_fault_points_are_deterministic_capped_and_independent() {
        let cfg = ShardChaosConfig {
            seed: 77,
            spawn_kill_per_mille: 600,
            drain_wedge_per_mille: 600,
            min_respawn_fail_per_mille: 1000,
            max_spawn_kills: 1,
            max_drain_wedges: 2,
            max_min_respawn_fails: 1,
            ..ShardChaosConfig::default()
        };
        let a = ShardChaos::new(cfg.clone());
        let b = ShardChaos::new(cfg);
        let seq_a: Vec<_> = (0..100)
            .map(|_| {
                (
                    a.kill_on_spawn(),
                    a.wedge_on_drain(),
                    a.fail_respawn_at_min(),
                )
            })
            .collect();
        let seq_b: Vec<_> = (0..100)
            .map(|_| {
                (
                    b.kill_on_spawn(),
                    b.wedge_on_drain(),
                    b.fail_respawn_at_min(),
                )
            })
            .collect();
        assert_eq!(seq_a, seq_b, "same seed must give the same schedule");
        assert_eq!(a.fired(), [0, 0, 0, 1, 2, 1]);
        // The legacy points share the injector but kept their own streams.
        assert!(!a.kill_shard(), "zero-rate legacy point stays silent");
    }
}
