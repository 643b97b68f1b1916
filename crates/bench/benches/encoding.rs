//! Encoding-module throughput: random projection (MVM, the MEMHD/BasicHDC
//! path) vs ID-Level binding (the SearcHD/QuantHD/LeHDC path), across the
//! dimensionalities the paper evaluates, plus a whole training set
//! through `encode_dataset` (what `MemhdModel::fit` pays before it
//! clusters).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hd_datasets::synthetic::SyntheticSpec;
use hd_linalg::rng::seeded;
use hdc::{encode_dataset, Encoder, IdLevelEncoder, RandomProjectionEncoder};
use rand::Rng;

fn feature_vector(f: usize, seed: u64) -> Vec<f32> {
    let mut rng = seeded(seed);
    (0..f).map(|_| rng.gen::<f32>()).collect()
}

fn bench_projection(c: &mut Criterion) {
    let f = 784;
    let x = feature_vector(f, 1);
    let mut group = c.benchmark_group("encode/projection");
    for dim in [128usize, 512, 1024] {
        let enc = RandomProjectionEncoder::new(f, dim, 7);
        group.throughput(Throughput::Elements(dim as u64));
        group.bench_with_input(BenchmarkId::new("fp", dim), &dim, |b, _| {
            b.iter(|| enc.encode(&x).expect("encode"))
        });
        group.bench_with_input(BenchmarkId::new("binary", dim), &dim, |b, _| {
            b.iter(|| enc.encode_binary(&x).expect("encode"))
        });
    }
    group.finish();
}

fn bench_id_level(c: &mut Criterion) {
    let f = 784;
    let x = feature_vector(f, 2);
    let mut group = c.benchmark_group("encode/id_level");
    group.sample_size(20);
    for dim in [128usize, 512, 1024] {
        let enc = IdLevelEncoder::new(f, dim, 64, 7);
        group.throughput(Throughput::Elements(dim as u64));
        group.bench_with_input(BenchmarkId::new("binary", dim), &dim, |b, _| {
            b.iter(|| enc.encode_binary(&x).expect("encode"))
        });
    }
    group.finish();
}

/// The fmnist-like training set (2,000 rows of 784 features, many of
/// them exact zeros) into the flagship D = 128.
fn bench_dataset(c: &mut Criterion) {
    let ds = SyntheticSpec::fmnist_like(200, 1).generate(0x004d_454d_4844).expect("valid preset");
    let enc = RandomProjectionEncoder::new(ds.train_features.cols(), 128, 7);
    let mut group = c.benchmark_group("encode");
    group.throughput(Throughput::Elements(ds.train_features.rows() as u64));
    group.bench_function("dataset_fmnist_2000", |b| {
        b.iter(|| encode_dataset(&enc, &ds.train_features).expect("encode"))
    });
    group.finish();
}

criterion_group!(benches, bench_projection, bench_id_level, bench_dataset);
criterion_main!(benches);
