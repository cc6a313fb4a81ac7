//! Criterion benchmarks for collapsed-network inference — the deployment
//! path whose cost structure Fig. 1 and Table 3 analyze.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sesr_baselines::{Fsrcnn, FsrcnnConfig};
use sesr_core::model::{Sesr, SesrConfig};
use sesr_core::train::SrNetwork;
use sesr_tensor::Tensor;

fn bench_sesr_family(c: &mut Criterion) {
    let mut group = c.benchmark_group("inference_x2_64px");
    group.sample_size(10);
    let lr = Tensor::rand_uniform(&[1, 64, 64], 0.0, 1.0, 1);
    for m in [3usize, 5, 11] {
        let net = Sesr::new(SesrConfig::m(m).with_expanded(16)).collapse();
        group.bench_with_input(BenchmarkId::new("SESR-M", m), &m, |b, _| {
            b.iter(|| net.run(&lr))
        });
    }
    let fsrcnn = Fsrcnn::new(FsrcnnConfig::standard(2));
    group.bench_function("FSRCNN", |b| b.iter(|| fsrcnn.infer(&lr)));
    group.finish();
}

fn bench_tiled_vs_whole(c: &mut Criterion) {
    let mut group = c.benchmark_group("tiled_inference");
    group.sample_size(10);
    let net = Sesr::new(SesrConfig::m(3).with_expanded(16)).collapse();
    let lr = Tensor::rand_uniform(&[1, 96, 96], 0.0, 1.0, 2);
    group.bench_function("whole_96px", |b| b.iter(|| net.run(&lr)));
    group.bench_function("tiled_48px_overlap8", |b| {
        b.iter(|| net.run_tiled(&lr, 48, 8).unwrap())
    });
    group.finish();
}

fn bench_x4_head(c: &mut Criterion) {
    let mut group = c.benchmark_group("inference_x4");
    group.sample_size(10);
    let lr = Tensor::rand_uniform(&[1, 48, 48], 0.0, 1.0, 3);
    let net = Sesr::new(SesrConfig::m(5).with_expanded(16).with_scale(4)).collapse();
    group.bench_function("SESR-M5_x4_48px", |b| b.iter(|| net.run(&lr)));
    group.finish();
}

criterion_group!(
    benches,
    bench_sesr_family,
    bench_tiled_vs_whole,
    bench_x4_head
);
criterion_main!(benches);
