//! Batch vs streaming multidimensional aggregation.
//!
//! Documents the tentpole win of the streaming collection API: the batch
//! path buffers every sanitized report (`Vec<SolutionReport>`, O(n·d)
//! memory) before scanning it, while the streaming pipeline absorbs each
//! report into `O(threads · Σ_j k_j)` support counts as it is produced and
//! merges the shards — so memory is flat in n and the pass parallelizes.
//!
//! Sizes are n ∈ {10k, 100k, 1M}; under `--test` (what `cargo test` passes
//! to `harness = false` targets) only the 10k size runs, as a smoke test.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ldp_bench::bench_adult;
use ldp_core::solutions::{RsFd, RsFdProtocol, SolutionKind};
use ldp_sim::CollectionPipeline;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn sizes() -> &'static [usize] {
    if std::env::args().any(|a| a == "--test") {
        &[10_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    }
}

/// Batch: sanitize into a full report buffer, then estimate (the legacy
/// collect-then-estimate shape).
fn bench_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_collect_then_estimate");
    group.sample_size(10);
    for &n in sizes() {
        let ds = bench_adult(n);
        let ks = ds.schema().cardinalities();
        let rsfd = RsFd::new(RsFdProtocol::Grr, &ks, 1.0).unwrap();
        group.bench_with_input(BenchmarkId::new("RS+FD[GRR]", n), &ds, |b, ds| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(0xBA7C4);
                let reports: Vec<_> = ds
                    .rows()
                    .map(|t| rsfd.report_encoded(t, &mut rng))
                    .collect();
                let mut agg = rsfd.aggregator();
                for report in &reports {
                    agg.absorb(report);
                }
                black_box(agg.estimate())
            })
        });
    }
    group.finish();
}

/// Streaming: the sharded pipeline — no report buffer, merged exactly.
fn bench_streaming(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming_pipeline");
    group.sample_size(10);
    for &n in sizes() {
        let ds = bench_adult(n);
        let ks = ds.schema().cardinalities();
        for threads in [1usize, 4] {
            let pipeline =
                CollectionPipeline::from_kind(SolutionKind::RsFd(RsFdProtocol::Grr), &ks, 1.0)
                    .unwrap()
                    .seed(0xBA7C4)
                    .threads(threads);
            group.bench_with_input(
                BenchmarkId::new(format!("RS+FD[GRR]/t{threads}"), n),
                &ds,
                |b, ds| b.iter(|| black_box(pipeline.run(ds).estimates)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_batch, bench_streaming);
criterion_main!(benches);
