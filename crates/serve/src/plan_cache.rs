//! Per-worker cache of serving decisions and compiled inference plans.
//!
//! Planned execution ([`Plan`]) amortizes its setup cost — kernel
//! flattening or quantization, Winograd kernel pre-transform, arena
//! allocation — only if it is reused across requests. Each engine worker
//! owns one [`PlanCache`]; its levels are worker-local and unlocked, so a
//! lookup on the request hot path costs a short `Vec` scan.
//!
//! **Decisions** are the model-level half. The precision is decided once
//! per `(model, policy)`: under [`PrecisionPolicy::F32`] the decision is
//! the flattened float kernels, made without measurement; under
//! [`PrecisionPolicy::Int8`] the model is calibrated, quantized and
//! graded against its ΔPSNR budget, and the decision carries the packed
//! int8 kernels when the loss fits, the flattened float kernels when it
//! does not. Either way a [`PrecisionDecision`] holds the
//! [`ServingKernels`] the model serves with, so past the decision the
//! serving path is generic over the [`Datapath`]. Decisions sit in a
//! worker-local LRU backed by a [`SharedPlanCache`]; the router hands
//! every shard one store, so autoscaled shards start warm, and a lone
//! engine's workers each get a private one.
//!
//! **Plans** are the per-shape half, one level per datapath: whole-frame
//! [`Plan`]s keyed by the kernels they were built from (`Arc::ptr_eq`),
//! the shape and the kernel variant. The queue batches same-key
//! same-shape requests, so steady-state traffic for a handful of shapes
//! hits a warm plan every time. Video sessions add a level of f32
//! [`TilePlanner`]s, one per ladder rung, keyed the same way.
//!
//! **Staleness.** The registry can evict and reload a model under the
//! same [`ModelKey`] (e.g. after an artifact is replaced), so a key match
//! alone is not enough: a decision is valid only while `Arc::ptr_eq`
//! holds against the model the registry resolves for the request, and
//! plans only while it holds against the decision's kernels. A reload
//! therefore misses once, recompiles, and the stale same-key entries are
//! dropped on that same lookup.
//!
//! **Kernel variant.** Plans and tile planners pin the process-global
//! [`kernel_variant`] at compile time, and an entry is valid only while
//! that global still matches (the *Detect* policy: serve never per-plan
//! autotunes the variant, because whole-frame plans and tile plans must
//! share one arithmetic for the tiled-vs-whole-frame bit-identity
//! guarantee). The global is normally fixed at process start, but if an
//! operator repins it at runtime (e.g. `scalar` for a cross-machine
//! repro), every cached plan compiled under the old variant misses,
//! recompiles under the new one, and is dropped — no mixed-variant
//! outputs can be served.
//!
//! Capacities are small and fixed (a worker serves few distinct models
//! and shapes at once); every level evicts through one move-to-front
//! `Lru`.

use crate::registry::ModelKey;
use sesr_core::{CollapsedKernels, CollapsedSesr, Datapath, Plan, TilePlanner};
use sesr_quant::{QuantKernels, QuantizedSesr};
use sesr_tensor::simd::{kernel_variant, KernelVariant};
use sesr_tensor::Tensor;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Distinct `(model, policy)` decisions a worker keeps.
const DECISIONS_CAP: usize = 4;
/// Distinct `(kernels, shape)` plans a worker keeps arenas for, per
/// datapath.
const PLANS_CAP: usize = 8;
/// Distinct models a worker keeps tile planners for. Sized for one
/// video any-time ladder (m3/m5/m7/m11); the planners themselves bound
/// their per-shape plans internally.
const TILE_PLANNERS_CAP: usize = 4;
/// Distinct `(model, policy)` decisions a [`SharedPlanCache`] keeps.
const SHARED_DECISIONS_CAP: usize = 8;

/// Calibration-scene geometry for load-time precision decisions. One
/// fixed scene per process: the decision must be deterministic across
/// workers and shards, or two workers could serve the same model at
/// different precisions.
const CALIB_TILE: usize = 24;
/// Seed family for the calibration images (distinct from the ΔPSNR
/// measurement tile so the decision is not graded on its training data).
const CALIB_SEED: u64 = 0xCA11B;
/// Calibration images measured for activation ranges.
const N_CALIB: u64 = 3;

/// Engine-wide serving-precision policy; per-model decisions flow from
/// it at load time (see [`PlanCache::decision`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrecisionPolicy {
    /// Always serve float plans.
    F32,
    /// Serve planned int8 when the measured ΔPSNR on the calibration
    /// scene stays within `psnr_budget` dB; silently fall back to f32
    /// for models that exceed it (counted in `precision_fallbacks`).
    Int8 {
        /// Largest acceptable PSNR loss versus f32, in dB.
        psnr_budget: f64,
    },
}

impl PrecisionPolicy {
    /// Exact cache identity: `None` for f32, the budget's `f64::to_bits`
    /// for int8 (no `NaN` comparison pitfalls).
    fn bits(self) -> Option<u64> {
        match self {
            PrecisionPolicy::F32 => None,
            PrecisionPolicy::Int8 { psnr_budget } => Some(psnr_budget.to_bits()),
        }
    }
}

/// The kernels one model serves with: its precision decision in
/// executable form. Immutable and shared (`Arc`) by every plan, tile
/// planner and shard that serves the model.
#[derive(Debug)]
pub enum ServingKernels {
    /// Flattened float kernels.
    F32(Arc<CollapsedKernels>),
    /// Packed quantized kernels (uint8 wires, int8 weights, i32
    /// accumulation).
    Int8(Arc<QuantKernels>),
}

/// A load-time precision decision for one `(model, policy)` pair: the
/// measured ΔPSNR and the kernels the model serves with. Calibration,
/// quantization, the ΔPSNR measurement and the kernel packing are the
/// expensive model-level half of serving; plan arenas are the cheap
/// per-shape half.
#[derive(Debug)]
pub struct PrecisionDecision {
    /// Measured PSNR cost of int8 on the calibration scene, in dB
    /// (positive = int8 is worse; `NaN` when nothing was measured, i.e.
    /// the policy was [`PrecisionPolicy::F32`]).
    pub delta_db: f64,
    /// The kernels this model serves with.
    pub kernels: ServingKernels,
}

impl PrecisionDecision {
    /// Whether the model serves int8.
    pub fn is_int8(&self) -> bool {
        matches!(self.kernels, ServingKernels::Int8(_))
    }
}

/// Where [`PlanCache::decision`] found the decision. Telemetry uses
/// `Computed` to count fallbacks exactly once per fresh measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionSource {
    /// Worker-local cache hit.
    LocalHit,
    /// Served by the [`SharedPlanCache`] (another worker already paid
    /// for the decision).
    SharedHit,
    /// Decided here, now.
    Computed,
}

/// Makes the decision for `model` under `policy`. Deterministic: fixed
/// synthetic scene, fixed seeds.
fn decide(model: &CollapsedSesr, policy: PrecisionPolicy) -> PrecisionDecision {
    let flat = || ServingKernels::F32(Arc::new(CollapsedKernels::new(model)));
    let PrecisionPolicy::Int8 { psnr_budget } = policy else {
        return PrecisionDecision {
            delta_db: f64::NAN,
            kernels: flat(),
        };
    };
    let calib: Vec<Tensor> = (0..N_CALIB)
        .map(|i| {
            sesr_quant::calibration_pair(model.scale(), CALIB_TILE, CALIB_TILE, CALIB_SEED + i).1
        })
        .collect();
    let profile = sesr_quant::calibrate(model, &calib);
    let qnet = QuantizedSesr::quantize(model, &profile);
    let delta_db =
        sesr_quant::delta_psnr(model, &qnet, CALIB_TILE, CALIB_TILE, CALIB_SEED ^ 0x5EED);
    let kernels = if delta_db <= psnr_budget {
        ServingKernels::Int8(Arc::new(QuantKernels::new(&qnet)))
    } else {
        flat()
    };
    PrecisionDecision { delta_db, kernels }
}

/// A bounded, most-recently-used-first list: the one move-to-front LRU
/// behind every cache level in this module.
pub(crate) struct Lru<T> {
    items: Vec<T>,
    cap: usize,
}

impl<T> Lru<T> {
    fn new(cap: usize) -> Self {
        Self {
            items: Vec::with_capacity(cap),
            cap,
        }
    }

    /// The first item `hit` accepts, moved to the front.
    fn get(&mut self, hit: impl FnMut(&T) -> bool) -> Option<&mut T> {
        let idx = self.items.iter().position(hit)?;
        let item = self.items.remove(idx);
        self.items.insert(0, item);
        self.items.first_mut()
    }

    /// Drops the items `stale` names, then puts `item` at the front,
    /// evicting the least recently used past capacity.
    fn insert(&mut self, item: T, stale: impl Fn(&T) -> bool) {
        self.items.retain(|e| !stale(e));
        self.items.insert(0, item);
        self.items.truncate(self.cap);
    }

    /// [`Lru::get`], or on a miss [`Lru::insert`] of `make()`. The `bool`
    /// is `true` on a hit.
    fn get_or_insert(
        &mut self,
        hit: impl FnMut(&T) -> bool,
        stale: impl Fn(&T) -> bool,
        make: impl FnOnce() -> T,
    ) -> (&mut T, bool) {
        let found = self.get(hit).is_some();
        if !found {
            self.insert(make(), stale);
        }
        (&mut self.items[0], found)
    }

    fn len(&self) -> usize {
        self.items.len()
    }
}

/// One decision entry: model key, the model `Arc` it was decided for
/// (staleness identity), the policy bits, and the decision.
type DecisionSlot = (
    ModelKey,
    Arc<CollapsedSesr>,
    Option<u64>,
    Arc<PrecisionDecision>,
);
/// One plan entry: model key, the kernels the plan was built from, and
/// the plan (which knows its shape and pinned variant).
pub(crate) type PlanSlot<D> = (ModelKey, Arc<D>, Plan<D>);
/// One tile-planner entry: model key, kernels, the variant the
/// planner's lazily built plans pin, and the planner.
type PlannerSlot = (
    ModelKey,
    Arc<CollapsedKernels>,
    KernelVariant,
    TilePlanner<CollapsedKernels>,
);

/// Whether `e` is the decision for `(key, model, bits)`.
fn same_decision(
    e: &DecisionSlot,
    key: &ModelKey,
    model: &Arc<CollapsedSesr>,
    bits: Option<u64>,
) -> bool {
    e.0 == *key && e.2 == bits && Arc::ptr_eq(&e.1, model)
}

/// Process-wide store of precision decisions, shared across every engine
/// shard the router owns (hot-model replication).
///
/// A [`PrecisionDecision`] is the expensive *immutable* half of serving:
/// flattened or quantized kernels, and for int8 the calibration and
/// ΔPSNR grading behind them. Plans themselves (arenas) are mutable
/// per-worker scratch and stay worker-local — sharing them would
/// serialize compute — but the kernels behind them are safely shared
/// `Arc`s. A freshly spawned shard's workers therefore skip the decision
/// entirely whenever any other shard has served the model before.
///
/// The `warm_hits` counter feeds the router's `replication_warm_hits`
/// telemetry; it counts worker-local misses that the store served, i.e.
/// exactly the decisions replication avoided.
///
/// Staleness follows the same `Arc::ptr_eq` rule as [`PlanCache`]: a
/// registry reload misses once and replaces the same-key entry.
pub struct SharedPlanCache {
    decisions: Mutex<Lru<DecisionSlot>>,
    /// Decisions currently in flight, keyed by `(key, model identity,
    /// policy bits)` — the single-flight set behind
    /// [`SharedPlanCache::decide_single_flight`].
    deciding: Mutex<Vec<Ticket>>,
    deciding_done: Condvar,
    warm_hits: AtomicU64,
}

type Ticket = (ModelKey, usize, Option<u64>);

/// Removes a decision ticket and wakes waiters on drop, so a panicking
/// decision never strands the workers waiting on it.
struct TicketGuard<'a> {
    store: &'a SharedPlanCache,
    ticket: Ticket,
}

impl Drop for TicketGuard<'_> {
    fn drop(&mut self) {
        let mut g = self
            .store
            .deciding
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        g.retain(|t| *t != self.ticket);
        drop(g);
        self.store.deciding_done.notify_all();
    }
}

impl SharedPlanCache {
    /// An empty shared store.
    pub fn new() -> Self {
        Self {
            decisions: Mutex::new(Lru::new(SHARED_DECISIONS_CAP)),
            deciding: Mutex::new(Vec::new()),
            deciding_done: Condvar::new(),
            warm_hits: AtomicU64::new(0),
        }
    }

    /// Looks up the decision for `(key, model, policy)`, or makes it with
    /// `decide` under single-flight: if another worker anywhere in the
    /// fleet is already deciding this exact `(model, policy)`, wait for
    /// its publish instead of paying the decision (for int8: calibrate +
    /// quantize + ΔPSNR) again. Without this, a shard scaled up during
    /// the load ramp races the first shard's in-flight decision, misses
    /// the store, and decides again — after which both serve from
    /// worker-local caches and replication never gets a second chance.
    /// Returns the decision and whether it was warmed (`true` = served by
    /// the store, counted in `warm_hits`; `false` = this call ran
    /// `decide` and published the result).
    pub fn decide_single_flight(
        &self,
        key: &ModelKey,
        model: &Arc<CollapsedSesr>,
        policy: PrecisionPolicy,
        decide: impl FnOnce() -> PrecisionDecision,
    ) -> (Arc<PrecisionDecision>, bool) {
        let bits = policy.bits();
        let ticket = (key.clone(), Arc::as_ptr(model) as usize, bits);
        loop {
            // The store is checked under the ticket lock, and a decider
            // publishes before it drops its ticket, so a miss here with
            // no ticket in flight is a true miss.
            let mut g = self.deciding.lock().unwrap_or_else(PoisonError::into_inner);
            let warm = self
                .decisions
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .get(|e| same_decision(e, key, model, bits))
                .map(|e| e.3.clone());
            if let Some(d) = warm {
                self.warm_hits.fetch_add(1, Ordering::Relaxed);
                return (d, true);
            }
            if !g.contains(&ticket) {
                g.push(ticket.clone());
                break;
            }
            // Someone else is deciding. The timeout is a liveness
            // backstop, not the protocol: the decider's drop guard
            // notifies even on panic, and the loop re-checks the store
            // before ever becoming the decider itself.
            let _unused = self
                .deciding_done
                .wait_timeout(g, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner);
        }
        let _ticket = TicketGuard {
            store: self,
            ticket,
        };
        let d = Arc::new(decide());
        self.decisions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert((key.clone(), model.clone(), bits, d.clone()), |e| {
                e.0 == *key && !Arc::ptr_eq(&e.1, model)
            });
        (d, false)
    }

    /// Worker-local misses served from the store so far.
    pub fn warm_hits(&self) -> u64 {
        self.warm_hits.load(Ordering::Relaxed)
    }

    /// Decisions currently held.
    pub fn len(&self) -> usize {
        self.decisions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True when nothing has been published yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for SharedPlanCache {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for SharedPlanCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedPlanCache")
            .field("decisions", &self.len())
            .field("warm_hits", &self.warm_hits())
            .finish()
    }
}

/// A datapath with a plan level in [`PlanCache`].
pub(crate) trait ServedDatapath: Datapath + Sized {
    /// Whether plans on this datapath count as int8 in telemetry.
    const INT8: bool;
    /// The cache's plan level for this datapath.
    fn plans(cache: &mut PlanCache) -> &mut Lru<PlanSlot<Self>>;
}

impl ServedDatapath for CollapsedKernels {
    const INT8: bool = false;
    fn plans(cache: &mut PlanCache) -> &mut Lru<PlanSlot<Self>> {
        &mut cache.f32_plans
    }
}

impl ServedDatapath for QuantKernels {
    const INT8: bool = true;
    fn plans(cache: &mut PlanCache) -> &mut Lru<PlanSlot<Self>> {
        &mut cache.int8_plans
    }
}

/// Worker-local LRU cache of precision decisions, plans and tile
/// planners, backed by a [`SharedPlanCache`] for decisions.
pub struct PlanCache {
    decisions: Lru<DecisionSlot>,
    f32_plans: Lru<PlanSlot<CollapsedKernels>>,
    int8_plans: Lru<PlanSlot<QuantKernels>>,
    tile_planners: Lru<PlannerSlot>,
    shared: Arc<SharedPlanCache>,
}

impl PlanCache {
    /// A cache over a private store of its own.
    pub fn new() -> Self {
        Self::with_shared(Arc::default())
    }

    /// A cache that consults (and publishes to) `shared` on local
    /// decision misses.
    pub fn with_shared(shared: Arc<SharedPlanCache>) -> Self {
        PlanCache {
            decisions: Lru::new(DECISIONS_CAP),
            f32_plans: Lru::new(PLANS_CAP),
            int8_plans: Lru::new(PLANS_CAP),
            tile_planners: Lru::new(TILE_PLANNERS_CAP),
            shared,
        }
    }

    /// The decision for `(model, policy)`, made on first use (see
    /// [`PrecisionPolicy`]): free under f32, a calibrate → quantize →
    /// ΔPSNR grading under int8. It is cached locally and in the store,
    /// so sibling shards warm from it instead of deciding again. A model
    /// reload drops the same-key entry.
    ///
    /// A decision evicted here and made again later yields bitwise
    /// identical kernels (fixed seeds, deterministic pipeline) in a new
    /// `Arc`; plans built from the old one miss once and are dropped.
    pub fn decision(
        &mut self,
        key: &ModelKey,
        model: &Arc<CollapsedSesr>,
        policy: PrecisionPolicy,
    ) -> (Arc<PrecisionDecision>, DecisionSource) {
        let bits = policy.bits();
        let mut source = DecisionSource::LocalHit;
        let shared = &self.shared;
        let (slot, _) = self.decisions.get_or_insert(
            |e| same_decision(e, key, model, bits),
            |e| e.0 == *key && !Arc::ptr_eq(&e.1, model),
            || {
                // Single-flight across the fleet: concurrent first
                // requests on different shards collapse to one decision.
                let (d, warm) =
                    shared.decide_single_flight(key, model, policy, || decide(model, policy));
                source = if warm {
                    DecisionSource::SharedHit
                } else {
                    DecisionSource::Computed
                };
                (key.clone(), model.clone(), bits, d)
            },
        );
        (slot.3.clone(), source)
    }

    /// The int8 decision for `(model, psnr_budget)`:
    /// [`PlanCache::decision`] under [`PrecisionPolicy::Int8`].
    pub fn decision_for(
        &mut self,
        key: &ModelKey,
        model: &Arc<CollapsedSesr>,
        psnr_budget: f64,
    ) -> (Arc<PrecisionDecision>, DecisionSource) {
        self.decision(key, model, PrecisionPolicy::Int8 { psnr_budget })
    }

    /// A ready-to-run plan for an `h x w` input over `kernels`, compiled
    /// on first use. The `bool` is `true` on a cache hit.
    pub(crate) fn plan_for<D: ServedDatapath>(
        &mut self,
        key: &ModelKey,
        kernels: &Arc<D>,
        h: usize,
        w: usize,
    ) -> (&mut Plan<D>, bool) {
        let variant = kernel_variant();
        let (slot, hit) = D::plans(self).get_or_insert(
            |e| {
                e.0 == *key
                    && Arc::ptr_eq(&e.1, kernels)
                    && e.2.shape() == (h, w)
                    && e.2.variant() == variant
            },
            // A same-key entry over other kernels is a reloaded model; a
            // variant mismatch (any key) was compiled under a repinned
            // kernel global. Neither can hit again.
            |e| (e.0 == *key && !Arc::ptr_eq(&e.1, kernels)) || e.2.variant() != variant,
            || {
                (
                    key.clone(),
                    kernels.clone(),
                    Plan::new(kernels.clone(), h, w),
                )
            },
        );
        (&mut slot.2, hit)
    }

    /// An f32 [`TilePlanner`] for `model`, created on first use and shared
    /// by every tile shape that model runs at. Video sessions walk the
    /// any-time ladder per dirty rectangle, so one worker holds one warm
    /// planner per rung; each planner bounds its per-shape plans with its
    /// own LRU. The `bool` is `true` on a cache hit. Staleness follows
    /// the same rules as the plan levels.
    pub fn tile_planner_for(
        &mut self,
        key: &ModelKey,
        model: &Arc<CollapsedSesr>,
    ) -> (&mut TilePlanner<CollapsedKernels>, bool) {
        let (decision, _) = self.decision(key, model, PrecisionPolicy::F32);
        let ServingKernels::F32(kernels) = &decision.kernels else {
            unreachable!("the f32 policy never quantizes");
        };
        let variant = kernel_variant();
        let (slot, hit) = self.tile_planners.get_or_insert(
            |e| e.0 == *key && Arc::ptr_eq(&e.1, kernels) && e.2 == variant,
            |e| (e.0 == *key && !Arc::ptr_eq(&e.1, kernels)) || e.2 != variant,
            || {
                let planner = TilePlanner::new(kernels.clone());
                (key.clone(), kernels.clone(), variant, planner)
            },
        );
        (&mut slot.3, hit)
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sesr_core::model::{Sesr, SesrConfig};

    fn tiny_model() -> Arc<CollapsedSesr> {
        Arc::new(Sesr::new(SesrConfig::m(1).with_expanded(4).with_seed(3)).collapse())
    }

    /// The f32 kernels `cache` serves `model` with.
    fn f32_kernels(
        cache: &mut PlanCache,
        key: &ModelKey,
        model: &Arc<CollapsedSesr>,
    ) -> (Arc<CollapsedKernels>, DecisionSource) {
        let (d, source) = cache.decision(key, model, PrecisionPolicy::F32);
        match &d.kernels {
            ServingKernels::F32(k) => (k.clone(), source),
            ServingKernels::Int8(_) => panic!("the f32 policy decided int8"),
        }
    }

    #[test]
    fn plan_lookup_hits_after_miss_and_shares_kernels() {
        let mut cache = PlanCache::new();
        let key = ModelKey::new("m1", 2);
        let model = tiny_model();

        let (k1, source) = f32_kernels(&mut cache, &key, &model);
        assert_eq!(source, DecisionSource::Computed, "first use flattens");
        let (_, hit) = cache.plan_for(&key, &k1, 8, 10);
        assert!(!hit, "first lookup must compile");
        let (_, hit) = cache.plan_for(&key, &k1, 8, 10);
        assert!(hit, "second lookup must reuse the plan");

        // A different shape misses at the plan level but reuses kernels.
        let (k2, source) = f32_kernels(&mut cache, &key, &model);
        assert_eq!(source, DecisionSource::LocalHit);
        assert!(Arc::ptr_eq(&k1, &k2));
        let (_, hit) = cache.plan_for(&key, &k2, 6, 6);
        assert!(!hit);
    }

    #[test]
    fn reloaded_model_invalidates_stale_entries() {
        let mut cache = PlanCache::new();
        let key = ModelKey::new("m1", 2);
        let old = tiny_model();
        let (k_old, _) = f32_kernels(&mut cache, &key, &old);
        cache.plan_for(&key, &k_old, 8, 8);

        // Same key, different Arc: a registry reload. Must miss and
        // recompile against the new weights.
        let reloaded = tiny_model();
        let (k_new, source) = f32_kernels(&mut cache, &key, &reloaded);
        assert_eq!(source, DecisionSource::Computed, "reload must reflatten");
        assert!(!Arc::ptr_eq(&k_old, &k_new));
        let (_, hit) = cache.plan_for(&key, &k_new, 8, 8);
        assert!(!hit, "reload must invalidate the cached plan");
        let (_, hit) = cache.plan_for(&key, &k_new, 8, 8);
        assert!(hit);
        // The stale entries were dropped, not just shadowed.
        assert_eq!(cache.f32_plans.len(), 1);
        assert_eq!(cache.decisions.len(), 1);
        assert_eq!(cache.shared.len(), 1, "stale store entry replaced");
    }

    #[test]
    fn tile_planners_are_cached_per_model_and_reloaded_on_staleness() {
        let mut cache = PlanCache::new();
        let key = ModelKey::new("m1", 2);
        let model = tiny_model();
        let (_, hit) = cache.tile_planner_for(&key, &model);
        assert!(!hit, "first lookup must build the planner");
        let (planner, hit) = cache.tile_planner_for(&key, &model);
        assert!(hit, "second lookup must reuse it");
        // Warm per-shape plans inside the planner survive across lookups.
        planner.plan_for(8, 8);
        let (planner, _) = cache.tile_planner_for(&key, &model);
        assert_eq!(planner.cached_plans(), 1);
        // A reload (same key, new Arc) invalidates the planner.
        let reloaded = tiny_model();
        let (planner, hit) = cache.tile_planner_for(&key, &reloaded);
        assert!(!hit, "reload must rebuild the planner");
        assert_eq!(planner.cached_plans(), 0);
        assert_eq!(cache.tile_planners.len(), 1);
    }

    #[test]
    fn repinned_kernel_variant_invalidates_plans_and_planners() {
        // Serialize against other tests that flip the process-global
        // variant (same lock the sesr-tensor bitwise tests take).
        let _guard = sesr_tensor::simd::variant_test_lock();
        let mut cache = PlanCache::new();
        let key = ModelKey::new("m1", 2);
        let model = tiny_model();
        let (k, _) = f32_kernels(&mut cache, &key, &model);

        let prev = sesr_tensor::simd::set_kernel_variant(KernelVariant::Scalar);
        cache.plan_for(&key, &k, 8, 8);
        cache.tile_planner_for(&key, &model);
        let (plan, hit) = cache.plan_for(&key, &k, 8, 8);
        assert!(hit);
        assert_eq!(plan.variant(), KernelVariant::Scalar);
        let (_, hit) = cache.tile_planner_for(&key, &model);
        assert!(hit);

        // Repin to the detected default. On hardware where that is still
        // Scalar (or under force-scalar) the entries stay valid; on any
        // SIMD machine the old-variant entries must miss and be dropped.
        sesr_tensor::simd::set_kernel_variant(prev);
        let current = kernel_variant();
        let (plan, hit) = cache.plan_for(&key, &k, 8, 8);
        assert_eq!(hit, current == KernelVariant::Scalar);
        assert_eq!(plan.variant(), current);
        let (_, hit) = cache.tile_planner_for(&key, &model);
        assert_eq!(hit, current == KernelVariant::Scalar);
        assert_eq!(
            cache.f32_plans.len(),
            1,
            "stale-variant plan must be dropped"
        );
        assert_eq!(cache.tile_planners.len(), 1);
    }

    #[test]
    fn shared_store_replicates_kernels_across_caches() {
        let shared = Arc::new(SharedPlanCache::new());
        let key = ModelKey::new("m1", 2);
        let model = tiny_model();

        // "Shard A" flattens and publishes.
        let mut a = PlanCache::with_shared(shared.clone());
        let (ka, source) = f32_kernels(&mut a, &key, &model);
        assert_eq!(source, DecisionSource::Computed, "first decision anywhere");
        assert_eq!(shared.len(), 1);
        assert_eq!(shared.warm_hits(), 0);

        // "Shard B" (a freshly spawned shard's worker) warms instantly.
        let mut b = PlanCache::with_shared(shared.clone());
        let (kb, source) = f32_kernels(&mut b, &key, &model);
        assert_eq!(source, DecisionSource::SharedHit);
        assert!(Arc::ptr_eq(&ka, &kb), "one flattening shared by both");
        assert_eq!(shared.warm_hits(), 1);

        // B's local cache now holds it: no further shared traffic.
        let (_, source) = f32_kernels(&mut b, &key, &model);
        assert_eq!(source, DecisionSource::LocalHit);
        assert_eq!(shared.warm_hits(), 1);

        // A reloaded model misses and replaces the shared entry.
        let reloaded = tiny_model();
        let (_, source) = f32_kernels(&mut b, &key, &reloaded);
        assert_eq!(source, DecisionSource::Computed);
        assert_eq!(shared.len(), 1, "stale shared entry must be replaced");
    }

    #[test]
    fn caches_are_bounded() {
        let mut cache = PlanCache::new();
        let model = tiny_model();
        let key = ModelKey::new("m1", 2);
        let (k, _) = f32_kernels(&mut cache, &key, &model);
        for i in 0..2 * PLANS_CAP {
            cache.plan_for(&key, &k, 6 + i, 6);
        }
        assert_eq!(cache.f32_plans.len(), PLANS_CAP);
        for i in 0..2 * DECISIONS_CAP {
            cache.decision_for(&key, &model, i as f64);
        }
        assert_eq!(cache.decisions.len(), DECISIONS_CAP);
        // Most-recent shapes survived.
        let (_, hit) = cache.plan_for(&key, &k, 6 + 2 * PLANS_CAP - 1, 6);
        assert!(hit);
    }

    /// A generous budget always resolves to int8 (every calibrated model
    /// loses less than 100 dB on the calibration scene).
    const ALWAYS_INT8: f64 = 100.0;
    /// An impossible budget always falls back (ΔPSNR of a finite
    /// measurement can never be ≤ -100 dB).
    const NEVER_INT8: f64 = -100.0;

    #[test]
    fn decision_resolves_int8_within_budget_and_falls_back_beyond_it() {
        let mut cache = PlanCache::new();
        let key = ModelKey::new("m1", 2);
        let model = tiny_model();

        let (d, src) = cache.decision_for(&key, &model, ALWAYS_INT8);
        assert_eq!(src, DecisionSource::Computed);
        assert!(d.is_int8(), "int8 decision must carry int8 kernels");
        assert!(d.delta_db.is_finite());

        // Same budget again: local hit, same Arc.
        let (d2, src) = cache.decision_for(&key, &model, ALWAYS_INT8);
        assert_eq!(src, DecisionSource::LocalHit);
        assert!(Arc::ptr_eq(&d, &d2));

        // A budget no measurement can meet: measured, then fell back.
        let (d3, src) = cache.decision_for(&key, &model, NEVER_INT8);
        assert_eq!(src, DecisionSource::Computed);
        assert!(
            matches!(d3.kernels, ServingKernels::F32(_)),
            "a fallback carries f32 kernels"
        );
        assert!(d3.delta_db.is_finite(), "fallback still reports ΔPSNR");

        // The f32 policy decides without measuring.
        let (d4, _) = cache.decision(&key, &model, PrecisionPolicy::F32);
        assert!(!d4.is_int8());
        assert!(d4.delta_db.is_nan());
    }

    #[test]
    fn int8_plans_match_the_quantized_oracle() {
        // The cached int8 plan serves the exact bits of the quantized
        // reference network it was decided from.
        let mut cache = PlanCache::new();
        let key = ModelKey::new("m1", 2);
        let model = tiny_model();
        let (d, _) = cache.decision_for(&key, &model, ALWAYS_INT8);
        let ServingKernels::Int8(qk) = &d.kernels else {
            panic!("an in-budget decision must serve int8");
        };
        let lr = Tensor::rand_uniform(&[1, 9, 11], 0.0, 1.0, 5);
        let batch = Tensor::stack(&[&lr]);
        let (plan, _) = cache.plan_for(&key, qk, 9, 11);
        let got = plan.run_batch(&batch);

        // Rebuild the oracle exactly as decide does.
        let oracle = {
            let calib: Vec<Tensor> = (0..N_CALIB)
                .map(|i| {
                    sesr_quant::calibration_pair(
                        model.scale(),
                        CALIB_TILE,
                        CALIB_TILE,
                        CALIB_SEED + i,
                    )
                    .1
                })
                .collect();
            let profile = sesr_quant::calibrate(&model, &calib);
            QuantizedSesr::quantize(&model, &profile)
        };
        let want = oracle.run(&lr);
        assert_eq!(want.data(), got.data());
    }

    #[test]
    fn concurrent_decisions_collapse_to_one() {
        // The autoscale race: two shards' workers both miss the store
        // and decide "simultaneously". Single-flight must run the decide
        // closure exactly once; the loser waits and warms from the
        // winner's publish instead of paying a second decision.
        use std::sync::atomic::AtomicUsize;

        let shared = Arc::new(SharedPlanCache::new());
        let key = ModelKey::new("m1", 2);
        let model = tiny_model();
        let decisions = Arc::new(AtomicUsize::new(0));
        let policy = PrecisionPolicy::F32;

        let winner = {
            let (shared, key, model, decisions) = (
                shared.clone(),
                key.clone(),
                model.clone(),
                decisions.clone(),
            );
            std::thread::spawn(move || {
                shared.decide_single_flight(&key, &model, policy, || {
                    decisions.fetch_add(1, Ordering::SeqCst);
                    // Hold the slot long enough that the other thread
                    // reliably arrives mid-flight.
                    std::thread::sleep(Duration::from_millis(150));
                    decide(&model, policy)
                })
            })
        };
        // Arrive while the winner is mid-decision.
        std::thread::sleep(Duration::from_millis(30));
        let (d_loser, warm_loser) = shared.decide_single_flight(&key, &model, policy, || {
            decisions.fetch_add(1, Ordering::SeqCst);
            decide(&model, policy)
        });
        let (d_winner, warm_winner) = winner.join().expect("decider thread");

        assert_eq!(decisions.load(Ordering::SeqCst), 1, "decide must run once");
        assert!(!warm_winner, "the decider itself is not warm");
        assert!(warm_loser, "the waiter must warm from the publish");
        assert!(Arc::ptr_eq(&d_winner, &d_loser), "one shared decision");
        assert_eq!(shared.warm_hits(), 1);
    }

    #[test]
    fn shared_store_replicates_decisions_across_caches() {
        // An autoscaled shard's worker must warm int8 serving from the
        // shared store: the grading (calibrate + quantize + ΔPSNR) is
        // paid once per process, not once per shard.
        let shared = Arc::new(SharedPlanCache::new());
        let key = ModelKey::new("m1", 2);
        let model = tiny_model();

        let mut a = PlanCache::with_shared(shared.clone());
        let (da, src) = a.decision_for(&key, &model, ALWAYS_INT8);
        assert_eq!(src, DecisionSource::Computed);
        assert_eq!(shared.len(), 1);
        let warm_before = shared.warm_hits();

        // Fresh shard, fresh worker cache: decision comes from the store.
        let mut b = PlanCache::with_shared(shared.clone());
        let (db, src) = b.decision_for(&key, &model, ALWAYS_INT8);
        assert_eq!(src, DecisionSource::SharedHit);
        assert!(Arc::ptr_eq(&da, &db), "one grading shared by both shards");
        assert_eq!(shared.warm_hits(), warm_before + 1);

        // And so do the packed kernels inside it: compiling a plan on the
        // new shard allocates only the arena.
        let ServingKernels::Int8(qk) = &db.kernels else {
            panic!("an in-budget decision must serve int8");
        };
        let (_, hit) = b.plan_for(&key, qk, 8, 8);
        assert!(!hit, "plan arenas stay shard-local");

        // A different budget is a different decision.
        let (_, src) = b.decision_for(&key, &model, 0.5);
        assert_eq!(src, DecisionSource::Computed);

        // A reloaded model invalidates the shared decision.
        let reloaded = tiny_model();
        let (_, src) = b.decision_for(&key, &reloaded, ALWAYS_INT8);
        assert_eq!(src, DecisionSource::Computed);
    }
}
