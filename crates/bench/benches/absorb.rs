//! Server-side counting in isolation: per-protocol `count_support`
//! throughput at k ∈ {32, 256, 1024}, decoupled from channels, rng seeding
//! and client sanitization — so the OLH domain-sweep win (the monomorphized
//! `count_hashed` tight loop) is measured on its own.
//!
//! Each benchmark absorbs a pre-generated batch of 512 reports into a raw
//! count table; the reported time is per batch. `count_support_batch` ids
//! time the same reports through the slice helper of that name (no server
//! path calls it); the `olh_nonpow2_g` case pins the generic-modulo loop
//! flavor (ε = 1.5 → g = 5) next to the power-of-two mask flavor (ε = 2 →
//! g = 8).
//!
//! The `absorb_compact` group prices the server's real counting path:
//! `MultidimAggregator::absorb_compact` over one 1024-report `CompactBatch`
//! of Adult-shaped reports at ε = 1 (the `epoch-rounds` per-round budget),
//! reported per batch. SPL\[OUE\], SMP\[OUE\] and RS+FD\[OUE-z\] run
//! through the word-parallel bit-vector tally; RS+FD\[GRR\] carries no bit
//! vector and is the control that must not move with it.
//!
//! The `sanitize` group is the client-side twin: UE `perturb_bits`
//! throughput for SUE/OUE at the same k grid, per-bit reference vs the
//! word-parallel path, so the speedup that closes the SPL[OUE] ingest gap
//! is pinned in isolation. ε = 1.0 lands OUE in the dense (batched-mask)
//! regime; the extra `OUE-sparse` id at ε = 4 prices the geometric
//! skip-sampling regime on the other side of the `q = 2⁻⁵` crossover.
//!
//! The `sanitize` group also prices whole SPL\[OUE\] and SPL\[SUE\] tuples
//! (the packed multi-word fused draw) at the Nursery (Σk = 32, one word),
//! Adult (Σk = 174, three words) and ACS (Σk = 198, four words) shapes, at
//! total ε = 1 (dense) and ε = 40 (ε/d in the sparse regime for OUE), each
//! through `DynSolution::report` with a concrete `SmallRng` (`/small-rng`)
//! and behind `&mut dyn RngCore` (`/dyn-rng`) — the gap between the two is
//! the per-draw virtual call the monomorphized producers no longer pay.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ldp_core::solutions::{CompactBatch, RsFdProtocol, SolutionKind};
use ldp_datasets::corpora::{acs_employment_schema, adult_like, adult_schema, nursery_schema};
use ldp_protocols::oracle::{count_support, count_support_batch};
use ldp_protocols::{BitVec, FrequencyOracle, ProtocolKind, Report, UeMode, UnaryEncoding};
use ldp_sim::user_rng;
use rand::rngs::{SmallRng, StdRng};
use rand::{RngCore, SeedableRng};

const BATCH: usize = 512;

fn reports(
    kind: ProtocolKind,
    k: usize,
    eps: f64,
    seed: u64,
) -> (ldp_protocols::Oracle, Vec<Report>) {
    let oracle = kind.build(k, eps).expect("bench oracle builds");
    let mut rng = StdRng::seed_from_u64(seed);
    let reports = (0..BATCH as u32)
        .map(|i| oracle.randomize(i % k as u32, &mut rng))
        .collect();
    (oracle, reports)
}

fn bench_count_support(c: &mut Criterion) {
    let mut group = c.benchmark_group("count_support");
    for kind in ProtocolKind::ALL {
        for k in [32usize, 256, 1024] {
            let (oracle, batch) = reports(kind, k, 2.0, 0xAB50);
            let mut counts = vec![0u64; k];
            group.bench_with_input(BenchmarkId::new(kind.name(), k), &batch, |b, batch| {
                b.iter(|| {
                    for report in batch {
                        count_support(&oracle, &mut counts, report);
                    }
                    black_box(&counts);
                })
            });
        }
    }
    group.finish();
}

fn bench_count_support_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("count_support_batch");
    for kind in ProtocolKind::ALL {
        for k in [32usize, 256, 1024] {
            let (oracle, batch) = reports(kind, k, 2.0, 0xAB51);
            let mut counts = vec![0u64; k];
            group.bench_with_input(BenchmarkId::new(kind.name(), k), &batch, |b, batch| {
                b.iter(|| {
                    count_support_batch(&oracle, &mut counts, batch);
                    black_box(&counts);
                })
            });
        }
    }
    group.finish();
}

/// ε = 1.5 gives g = round(e^1.5) + 1 = 5: exercises the generic-modulo
/// flavor of the OLH sweep (ε = 2 above lands on the power-of-two mask).
fn bench_olh_nonpow2(c: &mut Criterion) {
    let mut group = c.benchmark_group("olh_nonpow2_g");
    for k in [32usize, 256, 1024] {
        let (oracle, batch) = reports(ProtocolKind::Olh, k, 1.5, 0xAB52);
        assert!(!matches!(&oracle, ldp_protocols::Oracle::Olh(o) if o.g().is_power_of_two()));
        let mut counts = vec![0u64; k];
        group.bench_with_input(BenchmarkId::new("OLH", k), &batch, |b, batch| {
            b.iter(|| {
                count_support_batch(&oracle, &mut counts, batch);
                black_box(&counts);
            })
        });
    }
    group.finish();
}

/// Client-side UE sanitize: one one-hot input (the `randomize` shape)
/// perturbed `BATCH` times into a pooled output vector, then `BATCH` whole
/// SPL\[UE\] tuples per survey shape; reported time is per batch, so
/// reports/s = BATCH / time.
fn bench_sanitize(c: &mut Criterion) {
    let mut group = c.benchmark_group("sanitize");
    let configs = [
        ("SUE", UeMode::Symmetric, 1.0),
        ("OUE", UeMode::Optimized, 1.0),
        ("OUE-sparse", UeMode::Optimized, 4.0),
    ];
    for (label, mode, eps) in configs {
        for k in [32usize, 256, 1024] {
            let ue = UnaryEncoding::new(k, eps, mode).expect("bench UE builds");
            if label == "OUE-sparse" {
                assert!(ue.sparse_path(), "ε = 4 OUE must route sparse");
            }
            let input = BitVec::one_hot(k, k / 2);
            group.bench_with_input(
                BenchmarkId::new(format!("{label}-word-parallel"), k),
                &input,
                |b, input| {
                    let mut rng = StdRng::seed_from_u64(0xAB53);
                    let mut out = BitVec::zeros(k);
                    b.iter(|| {
                        for _ in 0..BATCH {
                            ue.perturb_bits_into(input, &mut out, &mut rng);
                            black_box(&out);
                        }
                    })
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("{label}-per-bit"), k),
                &input,
                |b, input| {
                    let mut rng = StdRng::seed_from_u64(0xAB54);
                    b.iter(|| {
                        for _ in 0..BATCH {
                            black_box(ue.perturb_bits_reference(input, &mut rng));
                        }
                    })
                },
            );
        }
    }
    let shapes = [
        ("nursery", nursery_schema().cardinalities()),
        ("adult", adult_schema().cardinalities()),
        ("acs", acs_employment_schema().cardinalities()),
    ];
    for kind in [ProtocolKind::Oue, ProtocolKind::Sue] {
        for (shape, ks) in &shapes {
            // Every value of every domain shows up as the batch cycles.
            let tuples: Vec<Vec<u32>> = (0..BATCH)
                .map(|i| ks.iter().map(|&k| (i % k) as u32).collect())
                .collect();
            for eps in [1.0, 40.0] {
                let spl = SolutionKind::Spl(kind)
                    .build(ks, eps)
                    .expect("bench SPL builds");
                let id = format!("SPL[{}]-{shape}-eps{eps}", kind.name());
                group.bench_with_input(
                    BenchmarkId::new(format!("{id}/small-rng"), ks.len()),
                    &tuples,
                    |b, tuples| {
                        let mut rng = SmallRng::seed_from_u64(0xAB55);
                        b.iter(|| {
                            for tuple in tuples {
                                black_box(spl.report(tuple, &mut rng));
                            }
                        })
                    },
                );
                group.bench_with_input(
                    BenchmarkId::new(format!("{id}/dyn-rng"), ks.len()),
                    &tuples,
                    |b, tuples| {
                        let mut small = SmallRng::seed_from_u64(0xAB55);
                        let rng: &mut dyn RngCore = &mut small;
                        b.iter(|| {
                            for tuple in tuples {
                                black_box(spl.report(tuple, rng));
                            }
                        })
                    },
                );
            }
        }
    }
    group.finish();
}

/// Server-side counting from the encoded words: one 1024-report batch per
/// solution, absorbed whole into one aggregator per id.
fn bench_absorb_compact(c: &mut Criterion) {
    const REPORTS: usize = 1024;
    let mut group = c.benchmark_group("absorb_compact");
    let ds = adult_like(REPORTS, 0xAB56);
    let ks = ds.schema().cardinalities();
    for kind in [
        SolutionKind::Spl(ProtocolKind::Oue),
        SolutionKind::Smp(ProtocolKind::Oue),
        SolutionKind::RsFd(RsFdProtocol::UeZ(UeMode::Optimized)),
        SolutionKind::RsFd(RsFdProtocol::Grr),
    ] {
        let solution = kind.build(&ks, 1.0).expect("bench solution builds");
        let mut batch = CompactBatch::new();
        for uid in 0..REPORTS as u64 {
            let mut rng = user_rng(0xAB57, uid);
            batch.push(uid, &solution.report(ds.row(uid as usize), &mut rng));
        }
        group.bench_with_input(
            BenchmarkId::new(format!("{kind}-adult-eps1"), REPORTS),
            &batch,
            |b, batch| {
                let mut aggregator = solution.aggregator();
                b.iter(|| {
                    aggregator.absorb_compact(batch);
                    black_box(aggregator.n())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_absorb_compact,
    bench_count_support,
    bench_count_support_batch,
    bench_olh_nonpow2,
    bench_sanitize
);
criterion_main!(benches);
