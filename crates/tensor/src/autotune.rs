//! Measure-and-pick runtime autotuning for the packed kernels.
//!
//! The same pattern production GPU stacks use (burn's `tune.rs`): run each
//! candidate configuration on the real workload a fixed number of times,
//! score it by its *minimum* observed wall time (minimum, not mean — noise
//! only ever adds time), and keep the winner. Two tuners build on the
//! shared [`pick`] primitive:
//!
//! * **GEMM blocking** ([`gemm_blocking`]): picks the `NC` column-block
//!   size and the `parallel_for` row-block granularity per `(m, k, n)`
//!   shape, cached process-wide. Blocking is *numerically neutral* — the
//!   per-element accumulation chains are fixed by `KC` and the k-loop
//!   order, which blocking never touches — so a cache hit or miss can
//!   never change output bits. The kernel *variant* is deliberately NOT
//!   tuned here: the GEMM always runs the process-global
//!   [`crate::simd::kernel_variant`], because the reference convolution
//!   (im2col + GEMM) and the planned direct convolution must stay on the
//!   same arithmetic for the planned-vs-reference bit-identity guarantee.
//!   Variant selection happens at plan level (`InferPlan` in `sesr-core`),
//!   where the executor owns both sides of that contract.
//! * **Plan variant tuning** (in `sesr-core`): uses [`pick`] over
//!   [`crate::simd::detected_variants`] with the compiled plan itself as
//!   the workload.
//!
//! Determinism: [`pick`] is a pure function of the measured costs
//! (ties break toward the earlier candidate, and candidate order is
//! fixed), so tests inject a deterministic measurer and assert stable
//! choices; see `choice_is_deterministic_given_measurements`.

use crate::gemm;
use crate::parallel::num_threads;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// Measures every candidate `reps` times and returns
/// `(winner_index, best_cost_per_candidate)`. The winner is the candidate
/// with the smallest best cost; ties break toward the earlier index, so
/// the result is a deterministic function of the measurements and the
/// candidate order.
///
/// # Panics
///
/// Panics if `candidates` is empty or `reps` is zero.
pub fn pick<C>(
    candidates: &[C],
    reps: usize,
    mut measure: impl FnMut(&C) -> u64,
) -> (usize, Vec<u64>) {
    assert!(!candidates.is_empty(), "no candidates to pick from");
    assert!(reps > 0, "need at least one measurement rep");
    let costs: Vec<u64> = candidates
        .iter()
        .map(|c| (0..reps).map(|_| measure(c)).min().expect("reps > 0"))
        .collect();
    let winner = costs
        .iter()
        .enumerate()
        .min_by_key(|&(i, &c)| (c, i))
        .expect("non-empty")
        .0;
    (winner, costs)
}

/// Times one call of `work` in nanoseconds (the default measurer).
pub fn time_ns(work: impl FnOnce()) -> u64 {
    let t0 = Instant::now();
    work();
    t0.elapsed().as_nanos() as u64
}

/// Numerically-neutral blocking knobs of the packed GEMM. `KC` is *not*
/// here: the k-block size defines the accumulation chains (the numeric
/// contract shared with the planner's direct convolution) and is pinned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmBlocking {
    /// Column-block size (columns of `B` packed per block). Clamped to
    /// `[8, 1024]` and rounded up to a multiple of the 8-wide strip.
    pub nc: usize,
    /// `parallel_for` granularity in 8-row blocks of `C` (how many row
    /// blocks one scheduling chunk claims at minimum).
    pub mc_blocks: usize,
}

impl GemmBlocking {
    /// The pre-tuner defaults (the constants the kernel shipped with).
    pub fn baseline() -> Self {
        GemmBlocking {
            nc: gemm::NC,
            mc_blocks: 1,
        }
    }

    /// Clamps into the range the pack-scratch sizing supports.
    pub(crate) fn clamped(self) -> Self {
        GemmBlocking {
            nc: self.nc.clamp(8, gemm::NC).next_multiple_of(8),
            mc_blocks: self.mc_blocks.max(1),
        }
    }
}

/// The candidate blocking configurations, fixed order (ties in measured
/// cost resolve toward the front). The baseline ships first so a
/// measurement wash keeps historic behavior.
fn blocking_candidates() -> Vec<GemmBlocking> {
    let mut cands = vec![
        GemmBlocking::baseline(),
        GemmBlocking {
            nc: 512,
            mc_blocks: 1,
        },
        GemmBlocking {
            nc: 256,
            mc_blocks: 1,
        },
    ];
    if num_threads() > 1 {
        // Coarser scheduling chunks only matter when there is a pool to
        // schedule over.
        cands.push(GemmBlocking {
            nc: gemm::NC,
            mc_blocks: 4,
        });
    }
    cands
}

/// Shapes below this many flops (`2*m*k*n`) are not worth measuring: the
/// probe would cost more than the tuned call saves. They get the baseline.
const MEASURE_FLOPS_MIN: u64 = 1 << 24;

/// Probe buffers above this many floats would thrash the allocator for a
/// one-off measurement; such shapes get the baseline unmeasured.
const MEASURE_FLOATS_MAX: usize = 8 << 20;

/// Bound on distinct cached shapes (a training run sees a handful; a
/// pathological caller cycling shapes must not grow this without bound —
/// past the cap, choices are computed as baseline without caching).
const CACHE_CAP: usize = 64;

type GemmChoiceMap = HashMap<(usize, usize, usize), GemmBlocking>;

static GEMM_CHOICES: Mutex<Option<GemmChoiceMap>> = Mutex::new(None);

/// The tuned (or default) blocking for an `m x k x n` multiply, measured
/// on first use of a shape and cached process-wide. See the module doc
/// for why the kernel variant is not part of this choice.
pub fn gemm_blocking(m: usize, k: usize, n: usize) -> GemmBlocking {
    gemm_blocking_with(m, k, n, |blocking| {
        let a = vec![0.25f32; m * k];
        let b = vec![0.5f32; k * n];
        let mut c = vec![0.0f32; m * n];
        let mut scratch = vec![0.0f32; gemm::gemm_scratch_len(n)];
        time_ns(|| gemm::probe_packed(&a, &b, &mut c, m, k, n, &mut scratch, blocking))
    })
}

/// [`gemm_blocking`] with the measurer injected (tests pass a
/// deterministic cost model). Small shapes and oversized probe buffers
/// skip measurement entirely and return the baseline.
pub fn gemm_blocking_with(
    m: usize,
    k: usize,
    n: usize,
    measure: impl FnMut(&GemmBlocking) -> u64,
) -> GemmBlocking {
    let flops = 2u64 * m as u64 * k as u64 * n as u64;
    if flops < MEASURE_FLOPS_MIN || m * k + k * n + m * n > MEASURE_FLOATS_MAX {
        return GemmBlocking::baseline();
    }
    let key = (m, k, n);
    let mut guard = GEMM_CHOICES.lock().unwrap_or_else(|e| e.into_inner());
    let cache = guard.get_or_insert_with(HashMap::new);
    if let Some(&choice) = cache.get(&key) {
        return choice;
    }
    let cands = blocking_candidates();
    let (winner, _costs) = pick(&cands, 2, measure);
    let choice = cands[winner].clamped();
    if cache.len() < CACHE_CAP {
        cache.insert(key, choice);
    }
    choice
}

/// Number of shapes with a cached blocking choice (telemetry).
pub fn cached_gemm_choices() -> usize {
    GEMM_CHOICES
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
        .map_or(0, HashMap::len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_returns_argmin_with_first_index_tiebreak() {
        let cands = ["a", "b", "c", "d"];
        let costs = [30u64, 10, 10, 40];
        let (w, best) = pick(&cands, 3, |c| {
            costs[cands.iter().position(|x| x == c).unwrap()]
        });
        assert_eq!(w, 1, "tie between b and c must resolve to b");
        assert_eq!(best, vec![30, 10, 10, 40]);
    }

    #[test]
    fn pick_scores_by_minimum_over_reps() {
        // Candidate 0 is noisy (one bad rep), candidate 1 is consistently
        // mediocre: the minimum rule must prefer 0.
        let mut calls = 0u64;
        let (w, best) = pick(&[0usize, 1], 2, |&c| {
            calls += 1;
            match (c, calls) {
                (0, 1) => 100,
                (0, 2) => 5,
                _ => 50,
            }
        });
        assert_eq!(w, 0);
        assert_eq!(best, vec![5, 50]);
    }

    #[test]
    #[should_panic(expected = "no candidates")]
    fn pick_rejects_empty() {
        let _ = pick::<u32>(&[], 1, |_| 0);
    }

    #[test]
    fn small_shapes_skip_measurement() {
        let mut measured = false;
        let choice = gemm_blocking_with(4, 4, 4, |_| {
            measured = true;
            1
        });
        assert!(!measured, "tiny shapes must not pay a probe");
        assert_eq!(choice, GemmBlocking::baseline());
    }

    #[test]
    fn choice_is_deterministic_given_measurements() {
        // A fixed (deterministic) cost model must produce the same choice
        // on every call — the second call additionally exercises the
        // cache-hit path.
        let shape = (64usize, 300usize, 2048usize);
        let model = |b: &GemmBlocking| 1000 + b.nc as u64 / 4 - b.mc_blocks as u64;
        let first = gemm_blocking_with(shape.0, shape.1, shape.2, model);
        let second = gemm_blocking_with(shape.0, shape.1, shape.2, model);
        assert_eq!(first, second);
        assert!(cached_gemm_choices() >= 1);
    }

    #[test]
    fn clamp_rounds_nc_to_strip_multiple() {
        let b = GemmBlocking {
            nc: 13,
            mc_blocks: 0,
        }
        .clamped();
        assert_eq!(b.nc, 16);
        assert_eq!(b.mc_blocks, 1);
    }
}
