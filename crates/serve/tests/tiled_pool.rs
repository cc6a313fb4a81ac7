//! Concurrent tiled serving through the shared intra-op pool: two engine
//! workers run same-shape oversized requests at the same time, with the
//! tiles inline at one thread and fanned across the pool at four. Every
//! composite must stay bit-identical to its whole-frame oracle — f32 to
//! `CollapsedSesr::run`, int8 to the whole-frame `QuantPlan`.
//!
//! Its own binary because it pins the process-wide pool size.

use sesr_core::model::{Sesr, SesrConfig};
use sesr_core::CollapsedSesr;
use sesr_quant::QuantPlan;
use sesr_serve::engine::{Engine, EngineConfig};
use sesr_serve::registry::{ModelKey, ModelRegistry};
use sesr_serve::{PlanCache, PrecisionPolicy, ServingKernels};
use sesr_tensor::parallel::{num_threads, set_num_threads};
use sesr_tensor::Tensor;
use std::sync::Arc;

const H: usize = 30;
const W: usize = 34;
const REQUESTS: u64 = 6;

fn tiny_model() -> CollapsedSesr {
    Sesr::new(SesrConfig::m(2).with_expanded(8).with_seed(9)).collapse()
}

/// The whole-frame output the engine must reproduce for `x` under
/// `precision`. The int8 kernels are graded exactly as the engine's
/// load-time decision grades them.
fn oracle(key: &ModelKey, precision: PrecisionPolicy) -> impl Fn(&Tensor) -> Tensor {
    let model = Arc::new(tiny_model());
    let kernels = match precision {
        PrecisionPolicy::F32 => None,
        PrecisionPolicy::Int8 { psnr_budget } => {
            let (d, _) = PlanCache::new().decision_for(key, &model, psnr_budget);
            match &d.kernels {
                ServingKernels::Int8(qk) => Some(qk.clone()),
                ServingKernels::F32(_) => panic!("budget {psnr_budget} did not resolve to int8"),
            }
        }
    };
    move |x: &Tensor| match &kernels {
        None => model.run(x),
        Some(qk) => QuantPlan::new(qk.clone(), H, W).run(x),
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn concurrent_tiled_requests_share_the_pool_and_stay_bit_identical() {
    let before = num_threads();
    for precision in [
        PrecisionPolicy::F32,
        PrecisionPolicy::Int8 { psnr_budget: 100.0 },
    ] {
        let key = ModelKey::new("m2", 2);
        let want = oracle(&key, precision);
        for threads in [1, 4] {
            set_num_threads(threads);
            let registry = Arc::new(ModelRegistry::new(4));
            registry.insert(key.clone(), tiny_model());
            let engine = Engine::new(
                EngineConfig {
                    workers: 2,
                    // Same-shape requests would otherwise batch; only a
                    // lone oversized request takes the tiled path.
                    max_batch: 1,
                    // 30x34 = 1020 px exceeds the threshold: every request
                    // tiles (3x3 tiles of 12 px).
                    tile_threshold_px: 256,
                    tile: 12,
                    precision,
                    ..EngineConfig::default()
                },
                registry,
            );
            let inputs: Vec<Tensor> = (0..REQUESTS)
                .map(|seed| Tensor::rand_uniform(&[1, H, W], 0.0, 1.0, 100 + seed))
                .collect();
            let tickets: Vec<_> = inputs
                .iter()
                .map(|x| engine.submit(&key, x.clone(), None).unwrap())
                .collect();
            for (i, (x, ticket)) in inputs.iter().zip(tickets).enumerate() {
                let served = ticket.wait().unwrap();
                assert_eq!(
                    bits(&served),
                    bits(&want(x)),
                    "{precision:?}, {threads} thread(s), request {i}: tiled composite diverged"
                );
            }
            let c = engine.telemetry().snapshot().counters;
            assert_eq!(c.tiled_requests, REQUESTS, "{c:?}");
            assert!(c.tiles_run > c.tiled_requests, "{c:?}");
            assert!(c.peak_arena_bytes > 0, "{c:?}");
            assert_eq!(c.completed, REQUESTS, "{c:?}");
        }
    }
    set_num_threads(before);
}
