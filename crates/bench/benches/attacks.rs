//! Criterion benchmarks: the attack kernels — deniability prediction,
//! inverted-index matching, the tie-aware top-k decision, and the serial vs
//! sharded ASR evaluation of the attack pipeline.

use criterion::{criterion_group, criterion_main, Criterion};
use ldp_bench::{bench_adult, bench_rng};
use ldp_core::attacks::{evaluate_serial, AttackKind, ReidentConfig, ReidentEval};
use ldp_core::profiling::Profile;
use ldp_core::reident::{MatchScratch, ReidentAttack};
use ldp_protocols::{deniability, FrequencyOracle, ProtocolKind};
use ldp_sim::par::default_threads;
use ldp_sim::AttackPipeline;
use std::hint::black_box;

fn bench_deniability(c: &mut Criterion) {
    let mut group = c.benchmark_group("deniability_best_guess");
    for kind in ProtocolKind::ALL {
        let oracle = kind.build(74, 2.0).unwrap();
        let mut rng = bench_rng();
        let report = oracle.randomize(12, &mut rng);
        group.bench_function(kind.name(), |b| {
            b.iter(|| {
                black_box(deniability::best_guess(
                    &oracle,
                    black_box(&report),
                    &mut rng,
                ))
            })
        });
    }
    group.finish();
}

fn bench_matching(c: &mut Criterion) {
    let ds = bench_adult(10_000);
    let all: Vec<usize> = (0..ds.d()).collect();
    let attack = ReidentAttack::build(&ds, &all);
    let mut rng = bench_rng();
    let mut scratch = MatchScratch::default();

    // A realistic five-attribute profile of user 123.
    let mut profile = Profile::new();
    for j in 0..5 {
        profile.observe(j, ds.value(123, j));
    }

    c.bench_function("reident_top10_match_10k_records", |b| {
        b.iter(|| {
            black_box(attack.hits_in_top_ks(
                black_box(&profile),
                123,
                &[1, 10],
                &mut scratch,
                &mut rng,
            ))
        })
    });

    // A one-entry profile, as every SMP, RS+FD and RS+RFD target has: it
    // takes the single-posting-list path instead of counting matches.
    let mut single = Profile::new();
    single.observe(3, ds.value(123, 3));
    c.bench_function("reident_top10_match_single_entry_10k_records", |b| {
        b.iter(|| {
            black_box(attack.hits_in_top_ks(
                black_box(&single),
                123,
                &[1, 10],
                &mut scratch,
                &mut rng,
            ))
        })
    });

    c.bench_function("reident_index_build_10k_records", |b| {
        b.iter(|| black_box(ReidentAttack::build(black_box(&ds), &all)))
    });
}

/// The headline pipeline claim: sharded, per-target-seeded ASR evaluation
/// beats the serial reference wall-clock at n = 100k targets, while staying
/// bit-identical to it.
fn bench_asr_serial_vs_sharded(c: &mut Criterion) {
    let n = 100_000;
    let ds = bench_adult(n);
    let all: Vec<usize> = (0..ds.d()).collect();
    let index = ReidentAttack::build(&ds, &all);
    // Two-attribute adversary profiles over the largest-domain attributes
    // (age / hours-like), as a partial-knowledge profiling round.
    let profiles: Vec<Profile> = (0..n)
        .map(|i| {
            let mut p = Profile::new();
            for &j in &[0usize, 8] {
                p.observe(j, ds.value(i, j));
            }
            p
        })
        .collect();
    let eval = ReidentEval {
        index: &index,
        profiles: &profiles,
        top_ks: &[1, 10],
    };
    // At least two workers so the sharded path is exercised even on
    // single-core runners; on real hardware this is all cores.
    let threads = default_threads().max(2);
    let pipeline = AttackPipeline::from_kind(AttackKind::Reident(ReidentConfig::default()))
        .unwrap()
        .seed(7)
        .threads(threads);

    let mut group = c.benchmark_group("asr_eval_100k_targets");
    group.bench_function("serial", |b| {
        b.iter(|| black_box(evaluate_serial(&eval, 7)))
    });
    group.bench_function(format!("sharded_{threads}_threads"), |b| {
        b.iter(|| black_box(pipeline.evaluate(&eval)))
    });
    group.finish();
}

fn bench_expected_acc(c: &mut Criterion) {
    c.bench_function("expected_acc_all_protocols_k74", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for kind in ProtocolKind::ALL {
                let oracle = kind.build(74, black_box(5.0)).unwrap();
                acc += deniability::expected_acc(&oracle);
            }
            black_box(acc)
        })
    });
}

criterion_group!(
    benches,
    bench_deniability,
    bench_matching,
    bench_asr_serial_vs_sharded,
    bench_expected_acc
);
criterion_main!(benches);
