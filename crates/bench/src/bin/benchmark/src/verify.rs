//! Output integrity: every served output's hash against a reference
//! computed after the window.
//!
//! * f32 images and frames compare against `CollapsedSesr::run_reference`
//!   of the architecture that served them. An interactive response may
//!   have been degraded down the router's chain; it is matched against
//!   each cheaper chain member in turn and counted.
//! * int8 frames compare against the whole-frame `QuantPlan` of the model
//!   rebuilt with the engine's calibration constants. The integer oracle
//!   `QuantizedSesr::run` takes about 12 s per 360x640 frame on one core,
//!   so it is checked against that same `QuantPlan` on a 64x64 crop of
//!   every frame instead of on the whole frame.
//! * video frames compare against the whole-frame m11 reference.

use crate::loadgen::{Outcome, Record};
use crate::stats::hash_f32;
use crate::workload::{Live, Plan, Workload, SCALE};
use sesr_core::CollapsedSesr;
use sesr_quant::{QuantKernels, QuantPlan, QuantizedSesr};
use sesr_serve::RouterConfig;
use sesr_tensor::Tensor;
use std::collections::HashMap;
use std::sync::Arc;

/// The engine's precision-grading calibration (`plan_cache.rs`): three
/// 24x24 synthetic images seeded `0xCA11B + i`.
const CALIB_TILE: usize = 24;
const CALIB_SEED: u64 = 0xCA11B;
const N_CALIB: u64 = 3;

/// Side of the crop the int8 integer oracle runs on.
const ORACLE_CROP: usize = 64;

#[derive(Debug, Default, Clone, Copy)]
pub struct Verdict {
    /// Outputs compared.
    pub checked: u64,
    /// Outputs that matched a cheaper degrade-chain architecture.
    pub degraded: u64,
    /// Distinct reference outputs computed.
    pub references: u64,
}

/// The int8 model the engine serves for `model`.
pub fn engine_quantized(model: &CollapsedSesr) -> QuantizedSesr {
    let calib: Vec<Tensor> = (0..N_CALIB)
        .map(|i| sesr_quant::calibration_pair(SCALE, CALIB_TILE, CALIB_TILE, CALIB_SEED + i).1)
        .collect();
    QuantizedSesr::quantize(model, &sesr_quant::calibrate(model, &calib))
}

struct References<'a> {
    plan: &'a Plan,
    live: &'a Live,
    int8: Option<(QuantizedSesr, Arc<QuantKernels>)>,
    hashes: HashMap<(usize, &'static str), u64>,
}

impl References<'_> {
    fn hash(&mut self, input: usize, arch: &'static str) -> Result<u64, String> {
        if let Some(&h) = self.hashes.get(&(input, arch)) {
            return Ok(h);
        }
        let image = &self.plan.images[input];
        let h = match &self.int8 {
            Some((qnet, kernels)) => {
                let dims = image.shape();
                let whole = QuantPlan::new(kernels.clone(), dims[1], dims[2]).run(image);
                let crop = image.crop_hw(0, ORACLE_CROP, 0, ORACLE_CROP);
                let planned = QuantPlan::new(kernels.clone(), ORACLE_CROP, ORACLE_CROP).run(&crop);
                if hash_f32(qnet.run(&crop).data()) != hash_f32(planned.data()) {
                    return Err(format!(
                        "int8 plan differs from the integer oracle on a crop of input {input}"
                    ));
                }
                hash_f32(whole.data())
            }
            None => hash_f32(self.live.model(arch).run_reference(image).data()),
        };
        self.hashes.insert((input, arch), h);
        Ok(h)
    }
}

/// Checks every served output of the window. Any mismatch is an error:
/// it is a bug in the system under test, never a tolerance to widen.
pub fn verify(plan: &Plan, live: &Live, records: &[Record]) -> Result<Verdict, String> {
    let int8 = (plan.workload == Workload::BulkInt8).then(|| {
        let qnet = engine_quantized(live.model(plan.workload.main_arch()));
        let kernels = Arc::new(QuantKernels::new(&qnet));
        (qnet, kernels)
    });
    let chain = RouterConfig::default().degrade_chain;
    let mut refs = References {
        plan,
        live,
        int8,
        hashes: HashMap::new(),
    };
    let mut verdict = Verdict::default();
    for (i, r) in records.iter().enumerate() {
        let Outcome::Ok(got) = r.outcome else {
            continue;
        };
        verdict.checked += 1;
        if got == refs.hash(r.request.input, r.request.arch)? {
            continue;
        }
        // Only interactive image requests can be degraded, and only to
        // chain members after the requested one.
        let cheaper: Vec<&'static str> =
            if r.request.frame.is_none() && r.request.class == sesr_serve::Priority::Interactive {
                chain
                    .iter()
                    .skip_while(|a| a.as_str() != r.request.arch)
                    .skip(1)
                    .filter_map(|a| crate::workload::ARCHS.iter().copied().find(|x| x == a))
                    .collect()
            } else {
                Vec::new()
            };
        let mut matched = false;
        for arch in cheaper {
            if got == refs.hash(r.request.input, arch)? {
                matched = true;
                verdict.degraded += 1;
                break;
            }
        }
        if !matched {
            return Err(format!(
                "{}: output of request {i} (tenant {}, {} on input {}) hashes to {got:016x}, \
                 which matches no reference",
                plan.workload.name(),
                plan.tenants[r.request.tenant],
                r.request.arch,
                r.request.input,
            ));
        }
    }
    verdict.references = refs.hashes.len() as u64;
    Ok(verdict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Mode;
    use std::time::Instant;

    #[test]
    fn a_single_flipped_bit_fails_the_check() {
        let mut plan = Plan::build(Workload::Interactive, 5, 1.0);
        let live = Live::start(&mut plan).expect("system starts");
        live.shutdown();
        let Mode::Open(requests) = &plan.mode else {
            panic!("interactive is open loop");
        };
        let request = requests[0].clone();
        let mut output = live
            .model(request.arch)
            .run(&plan.images[request.input])
            .into_vec();
        let record = |out: &[f32]| Record {
            request: request.clone(),
            due: Instant::now(),
            sent: Instant::now(),
            admitted: Instant::now(),
            done: Some(Instant::now()),
            outcome: Outcome::Ok(hash_f32(out)),
            span: 0,
        };
        let good = verify(&plan, &live, &[record(&output)]).expect("planned output matches");
        assert_eq!((good.checked, good.degraded), (1, 0));
        output[1234] = f32::from_bits(output[1234].to_bits() ^ 1);
        assert!(verify(&plan, &live, &[record(&output)]).is_err());
    }
}
