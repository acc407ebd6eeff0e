//! Microbenchmarks of the WL-GP surrogate: training (hyperparameter grid +
//! Cholesky) and posterior prediction at the paper's data scale (up to 60
//! observed topologies per run). `wlgp_fit_many` fits the five outputs of
//! one topology-BO step (objective + four spec constraints) against one
//! shared factor per grid point; compare it with five `wlgp_fit` rows.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use oa_circuit::Topology;
use oa_gp::WlGp;
use oa_graph::{CircuitGraph, WlFeatures, WlFeaturizer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn dataset(n: usize) -> (Vec<WlFeatures>, Vec<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut wl = WlFeaturizer::new();
    let feats: Vec<WlFeatures> = (0..n)
        .map(|_| wl.featurize(&CircuitGraph::from_topology(&Topology::random(&mut rng)), 4))
        .collect();
    let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
    (feats, y)
}

fn bench_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("wlgp_fit");
    group.sample_size(20);
    for n in [20usize, 40, 60] {
        let (feats, y) = dataset(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let gp = WlGp::fit(feats.clone(), y.clone()).expect("fits");
                std::hint::black_box(gp.hyperparams().h)
            })
        });
    }
    group.finish();
}

fn bench_fit_many(c: &mut Criterion) {
    let mut group = c.benchmark_group("wlgp_fit_many");
    group.sample_size(20);
    let n = 40usize;
    let (feats, y) = dataset(n);
    let feats = Arc::new(feats);
    let ys: Vec<Vec<f64>> = (0..5)
        .map(|o| y.iter().map(|v| v * (o + 1) as f64 - o as f64).collect())
        .collect();
    group.bench_with_input(BenchmarkId::from_parameter(format!("5x{n}")), &n, |b, _| {
        b.iter(|| {
            let gps = WlGp::fit_many(feats.clone(), ys.clone()).expect("fits");
            std::hint::black_box(gps.len())
        })
    });
    group.finish();
}

fn bench_predict(c: &mut Criterion) {
    let (feats, y) = dataset(60);
    let gp = WlGp::fit(feats.clone(), y).expect("fits");
    c.bench_function("wlgp_predict_n60", |b| {
        let mut i = 0;
        b.iter(|| {
            let (m, v) = gp.predict(&feats[i % feats.len()]).expect("predicts");
            i += 1;
            std::hint::black_box(m + v)
        })
    });
}

fn bench_gradient(c: &mut Criterion) {
    let (feats, y) = dataset(60);
    let gp = WlGp::fit(feats, y).expect("fits");
    c.bench_function("wlgp_feature_gradient", |b| {
        let mut id = 0u32;
        b.iter(|| {
            id = (id + 1) % 64;
            std::hint::black_box(gp.feature_gradient(id))
        })
    });
}

criterion_group!(
    benches,
    bench_fit,
    bench_fit_many,
    bench_predict,
    bench_gradient
);
criterion_main!(benches);
