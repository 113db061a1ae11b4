//! Criterion benchmarks: multidimensional solution client/server throughput.

use criterion::{criterion_group, criterion_main, Criterion};
use ldp_bench::{bench_adult, bench_rng};
use ldp_core::solutions::{
    CompactBatch, RsFd, RsFdProtocol, RsRfdProtocol, Smp, SolutionKind, Spl,
};
use ldp_protocols::{ProtocolKind, UeMode};
use std::hint::black_box;

fn bench_clients(c: &mut Criterion) {
    let ds = bench_adult(64);
    let ks = ds.schema().cardinalities();
    let tuple: Vec<u32> = ds.row(0).to_vec();
    let mut group = c.benchmark_group("client_tuple_report");

    let smp = Smp::new(ProtocolKind::Grr, &ks, 1.0).unwrap();
    let mut rng = bench_rng();
    group.bench_function("SMP[GRR]", |b| {
        b.iter(|| black_box(smp.report(black_box(&tuple), &mut rng)))
    });

    let spl = Spl::new(ProtocolKind::Grr, &ks, 1.0).unwrap();
    group.bench_function("SPL[GRR]", |b| {
        b.iter(|| black_box(spl.report(black_box(&tuple), &mut rng)))
    });

    let rsfd = RsFd::new(RsFdProtocol::Grr, &ks, 1.0).unwrap();
    group.bench_function("RS+FD[GRR]", |b| {
        b.iter(|| black_box(rsfd.report_encoded(black_box(&tuple), &mut rng)))
    });

    let rsfd_ue = RsFd::new(RsFdProtocol::UeZ(UeMode::Optimized), &ks, 1.0).unwrap();
    group.bench_function("RS+FD[OUE-z]", |b| {
        b.iter(|| black_box(rsfd_ue.report_encoded(black_box(&tuple), &mut rng)))
    });

    let priors: Vec<Vec<f64>> = ks.iter().map(|&k| vec![1.0 / k as f64; k]).collect();
    let rsrfd = RsFd::with_priors(RsRfdProtocol::Grr, &ks, 1.0, priors).unwrap();
    group.bench_function("RS+RFD[GRR]", |b| {
        b.iter(|| black_box(rsrfd.report_encoded(black_box(&tuple), &mut rng)))
    });
    group.finish();
}

/// The encode cost of an SPL[OUE] report on the Adult shape (Σk = 174,
/// three packed words), alone and with the batch push that ingest pays
/// after it: the report is born encoded, so the push is one copy.
fn bench_encoded_report(c: &mut Criterion) {
    let ds = bench_adult(64);
    let ks = ds.schema().cardinalities();
    let tuple: Vec<u32> = ds.row(0).to_vec();
    let solution = SolutionKind::Spl(ProtocolKind::Oue)
        .build(&ks, 1.0)
        .unwrap();
    let mut rng = bench_rng();
    let mut group = c.benchmark_group("spl_oue_adult_report");
    group.bench_function("DynSolution::report", |b| {
        b.iter(|| black_box(solution.report(black_box(&tuple), &mut rng)))
    });
    // Cleared at NetClient's default frame size, so the buffers stay warm.
    let mut batch = CompactBatch::new();
    group.bench_function("report+CompactBatch::push", |b| {
        b.iter(|| {
            if batch.len() == 1024 {
                batch.clear();
            }
            batch.push(0, &solution.report(black_box(&tuple), &mut rng));
        })
    });
    group.finish();
}

fn bench_estimation(c: &mut Criterion) {
    let ds = bench_adult(2000);
    let ks = ds.schema().cardinalities();
    let mut rng = bench_rng();
    let mut group = c.benchmark_group("server_estimate_2k_users");
    group.sample_size(20);

    let rsfd = RsFd::new(RsFdProtocol::Grr, &ks, 1.0).unwrap();
    let rsfd_ue = RsFd::new(RsFdProtocol::UeR(UeMode::Optimized), &ks, 1.0).unwrap();
    for (label, solution) in [("RS+FD[GRR]", &rsfd), ("RS+FD[OUE-r]", &rsfd_ue)] {
        let reports: Vec<_> = ds
            .rows()
            .map(|t| solution.report_encoded(t, &mut rng))
            .collect();
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut agg = solution.aggregator();
                for report in black_box(&reports) {
                    agg.absorb(report);
                }
                black_box(agg.estimate())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_clients,
    bench_encoded_report,
    bench_estimation
);
criterion_main!(benches);
