//! Criterion benchmarks: the GBDT / logistic-regression classifier substrate
//! on attack-shaped workloads.

use criterion::{criterion_group, criterion_main, Criterion};
use ldp_bench::bench_rng;
use ldp_datasets::corpora::adult_schema;
use ldp_gbdt::{DenseMatrix, GbdtClassifier, GbdtParams, LogisticParams, LogisticRegression};
use rand::Rng;
use std::hint::black_box;

/// Attack-shaped data: 198 binary features (the ACS unary width), 18 classes.
fn attack_dataset(n: usize) -> (DenseMatrix, Vec<u32>) {
    let mut rng = bench_rng();
    let f = 198usize;
    let classes = 18u32;
    let mut flat = Vec::with_capacity(n * f);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let c = rng.random_range(0..classes);
        for j in 0..f {
            // Class-dependent sparse bits plus noise.
            let p = if j as u32 % classes == c { 0.4 } else { 0.02 };
            flat.push(f32::from(u8::from(rng.random::<f64>() < p)));
        }
        y.push(c);
    }
    (DenseMatrix::from_flat(flat, n, f), y)
}

fn bench_gbdt_train(c: &mut Criterion) {
    let (x, y) = attack_dataset(1000);
    let params = GbdtParams {
        rounds: 10,
        max_depth: 4,
        min_child_weight: 0.05,
        ..GbdtParams::default()
    };
    let mut group = c.benchmark_group("classifier_train_1k_rows");
    group.sample_size(10);
    group.bench_function("gbdt_10x4_18class", |b| {
        b.iter(|| black_box(GbdtClassifier::fit(&x, &y, 18, &params, 7, 1)))
    });
    group.bench_function("logistic_25ep_18class", |b| {
        b.iter(|| {
            black_box(LogisticRegression::fit(
                &x,
                &y,
                18,
                &LogisticParams::default(),
                7,
            ))
        })
    });
    group.finish();
}

fn bench_gbdt_predict(c: &mut Criterion) {
    let (x, y) = attack_dataset(1000);
    let params = GbdtParams {
        rounds: 10,
        max_depth: 4,
        min_child_weight: 0.05,
        ..GbdtParams::default()
    };
    let model = GbdtClassifier::fit(&x, &y, 18, &params, 7, 1);
    c.bench_function("gbdt_predict_1k_rows", |b| {
        b.iter(|| black_box(model.predict(black_box(&x), 1)))
    });
}

/// The chained attack's classifier input: RS+FD[GRR]-style value tuples over
/// the Adult domain sizes (10 attributes, so 10 classes). The sampled
/// attribute reports its skewed true value, the others a uniform fake one.
fn adult_shaped(n: usize) -> (DenseMatrix, Vec<u32>) {
    let mut rng = bench_rng();
    let ks = adult_schema().cardinalities();
    let mut flat = Vec::with_capacity(n * ks.len());
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let sampled = rng.random_range(0..ks.len());
        for (j, &k) in ks.iter().enumerate() {
            let v = if j == sampled && rng.random::<f64>() < 0.6 {
                0
            } else {
                rng.random_range(0..k)
            };
            flat.push(v as f32);
        }
        y.push(sampled as u32);
    }
    (DenseMatrix::from_flat(flat, n, ks.len()), y)
}

/// Fit and predict at 1 and 2 threads on the chained attack's input shape:
/// the outputs are identical, so only the time may differ.
fn bench_gbdt_threads(c: &mut Criterion) {
    let (x, y) = adult_shaped(10_000);
    let params = GbdtParams {
        rounds: 10,
        ..GbdtParams::default()
    };
    let mut group = c.benchmark_group("gbdt_adult_10k_rows_10class");
    group.sample_size(10);
    for threads in [1, 2] {
        group.bench_function(format!("fit_t{threads}"), |b| {
            b.iter(|| black_box(GbdtClassifier::fit(&x, &y, 10, &params, 7, threads)))
        });
    }
    let model = GbdtClassifier::fit(&x, &y, 10, &params, 7, 1);
    for threads in [1, 2] {
        group.bench_function(format!("predict_t{threads}"), |b| {
            b.iter(|| black_box(model.predict(black_box(&x), threads)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_gbdt_train,
    bench_gbdt_predict,
    bench_gbdt_threads
);
criterion_main!(benches);
