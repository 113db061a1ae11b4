//! Criterion benchmarks: one scaled-down kernel per paper figure — the inner
//! loop each experiment binary sweeps. Sizes are tiny so `cargo bench`
//! finishes quickly; the experiment binaries are the full regenerators.

use criterion::{criterion_group, criterion_main, Criterion};
use ldp_bench::{bench_acs, bench_adult, bench_rng};
use ldp_core::attacks::{AttackKind, ReidentConfig};
use ldp_core::inference::{AttackClassifier, AttackModel, SampledAttributeAttack};
use ldp_core::metrics::mse_avg;
use ldp_core::profiling::{expected_acc_nonuniform, expected_acc_uniform};
use ldp_core::reident::ReidentAttack;
use ldp_core::solutions::{RsFd, RsFdProtocol, RsRfdProtocol};
use ldp_datasets::priors::correct_priors;
use ldp_datasets::Dataset;
use ldp_gbdt::GbdtParams;
use ldp_protocols::{deniability, ProtocolKind, UeMode};
use ldp_sim::{
    run_rsfd_campaign, AttackPipeline, PrivacyModel, RsFdCampaignConfig, SamplingSetting,
    SmpCampaign, SurveyPlan,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// A single-thread RID-ACC evaluator at top-1 and top-10 (the paper's two `k`).
fn reident_pipeline(seed: u64) -> AttackPipeline {
    AttackPipeline::from_kind(AttackKind::Reident(ReidentConfig::default()))
        .unwrap()
        .seed(seed)
        .threads(1)
}

/// One streaming estimation pass over a sanitized round.
fn estimate(solution: &RsFd, ds: &Dataset, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let mut agg = solution.aggregator();
    for t in ds.rows() {
        agg.absorb(&solution.report_encoded(t, rng));
    }
    agg.estimate()
}

fn classifier() -> AttackClassifier {
    AttackClassifier::Gbdt(GbdtParams {
        rounds: 6,
        max_depth: 3,
        min_child_weight: 0.05,
        ..GbdtParams::default()
    })
}

/// Fig. 1 kernel: the analytic ACC products over the ε grid.
fn fig01_kernel(c: &mut Criterion) {
    c.bench_function("fig01_analytic_grid", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for kind in ProtocolKind::ALL {
                for eps in 1..=10 {
                    let accs: Vec<f64> = [74usize, 7, 16]
                        .iter()
                        .map(|&k| {
                            deniability::expected_acc(&kind.build(k, f64::from(eps)).unwrap())
                        })
                        .collect();
                    total += expected_acc_uniform(&accs) + expected_acc_nonuniform(&accs);
                }
            }
            black_box(total)
        })
    });
}

/// Figs. 2/9/10/11 kernel: one SMP campaign + top-k matching (ε-LDP).
fn fig02_kernel(c: &mut Criterion) {
    let ds = bench_adult(500);
    let ks = ds.schema().cardinalities();
    let mut rng = StdRng::seed_from_u64(1);
    let plan = SurveyPlan::generate(ds.d(), 3, &mut rng);
    let all: Vec<usize> = (0..ds.d()).collect();
    let attack = ReidentAttack::build(&ds, &all);
    let mut group = c.benchmark_group("fig02_smp_campaign_500_users");
    group.sample_size(10);
    group.bench_function("grr_eps4_3surveys_top1_10", |b| {
        b.iter(|| {
            let campaign = SmpCampaign::new(
                ProtocolKind::Grr,
                &ks,
                &PrivacyModel::Ldp { epsilon: 4.0 },
                ds.n(),
                SamplingSetting::Uniform,
            )
            .unwrap();
            let snaps = campaign.run(&ds, &plan, 3, 1);
            black_box(reident_pipeline(5).rid_acc(&attack, &snaps[2]))
        })
    });
    group.finish();
}

/// Figs. 12/13 kernel: the α-PIE variant of the campaign.
fn fig12_kernel(c: &mut Criterion) {
    let ds = bench_adult(500);
    let ks = ds.schema().cardinalities();
    let mut rng = StdRng::seed_from_u64(2);
    let plan = SurveyPlan::generate(ds.d(), 3, &mut rng);
    let all: Vec<usize> = (0..ds.d()).collect();
    let attack = ReidentAttack::build(&ds, &all);
    let mut group = c.benchmark_group("fig12_pie_campaign_500_users");
    group.sample_size(10);
    group.bench_function("oue_beta0.7", |b| {
        b.iter(|| {
            let campaign = SmpCampaign::new(
                ProtocolKind::Oue,
                &ks,
                &PrivacyModel::Pie { beta: 0.7 },
                ds.n(),
                SamplingSetting::Uniform,
            )
            .unwrap();
            let snaps = campaign.run(&ds, &plan, 4, 1);
            black_box(reident_pipeline(6).rid_acc(&attack, &snaps[2]))
        })
    });
    group.finish();
}

/// Figs. 3/14/15 kernel: one NK inference attack evaluation.
fn fig03_kernel(c: &mut Criterion) {
    let ds = bench_acs(300);
    let ks = ds.schema().cardinalities();
    let mut group = c.benchmark_group("fig03_nk_attack_300_users");
    group.sample_size(10);
    for (label, protocol) in [
        ("grr", RsFdProtocol::Grr),
        ("sue_z", RsFdProtocol::UeZ(UeMode::Symmetric)),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut rng = bench_rng();
                let solution = RsFd::new(protocol, &ks, 6.0).unwrap();
                let (observed, labels) = solution.report_round(ds.rows(), &mut rng);
                black_box(SampledAttributeAttack::evaluate(
                    &solution,
                    &observed,
                    &labels,
                    &AttackModel::NoKnowledge { synth_factor: 1.0 },
                    &classifier(),
                    &mut rng,
                ))
            })
        });
    }
    group.finish();
}

/// Fig. 4 kernel: one RS+FD survey round with the chained classifier attack.
fn fig04_kernel(c: &mut Criterion) {
    let ds = bench_adult(300);
    let mut rng = StdRng::seed_from_u64(3);
    let plan = SurveyPlan::generate(ds.d(), 2, &mut rng);
    let all: Vec<usize> = (0..ds.d()).collect();
    let attack = ReidentAttack::build(&ds, &all);
    let config = RsFdCampaignConfig {
        protocol: RsFdProtocol::Grr,
        epsilon: 6.0,
        synth_factor: 1.0,
        classifier: classifier(),
    };
    let mut group = c.benchmark_group("fig04_rsfd_campaign_300_users");
    group.sample_size(10);
    group.bench_function("grr_eps6_2surveys", |b| {
        b.iter(|| {
            let snaps = run_rsfd_campaign(&ds, &plan, &config, 7, 1).unwrap();
            black_box(reident_pipeline(8).rid_acc(&attack, &snaps[1]))
        })
    });
    group.finish();
}

/// Figs. 5/16 kernel: one estimation round for RS+FD vs RS+RFD.
fn fig05_kernel(c: &mut Criterion) {
    let ds = bench_acs(500);
    let ks = ds.schema().cardinalities();
    let truth = ds.marginals();
    let mut group = c.benchmark_group("fig05_mse_500_users");
    group.sample_size(10);
    group.bench_function("rsfd_grr", |b| {
        b.iter(|| {
            let mut rng = bench_rng();
            let solution = RsFd::new(RsFdProtocol::Grr, &ks, 1.0).unwrap();
            black_box(mse_avg(&truth, &estimate(&solution, &ds, &mut rng)))
        })
    });
    group.bench_function("rsrfd_grr_correct_prior", |b| {
        b.iter(|| {
            let mut rng = bench_rng();
            let priors = correct_priors(&ds, 0.1, &mut rng);
            let solution = RsFd::with_priors(RsRfdProtocol::Grr, &ks, 1.0, priors).unwrap();
            black_box(mse_avg(&truth, &estimate(&solution, &ds, &mut rng)))
        })
    });
    group.finish();
}

/// Figs. 6/17 kernel: the inference attack against the countermeasure.
fn fig06_kernel(c: &mut Criterion) {
    let ds = bench_acs(300);
    let ks = ds.schema().cardinalities();
    let mut group = c.benchmark_group("fig06_rsrfd_attack_300_users");
    group.sample_size(10);
    group.bench_function("grr_correct_prior", |b| {
        b.iter(|| {
            let mut rng = bench_rng();
            let priors = correct_priors(&ds, 0.1, &mut rng);
            let solution = RsFd::with_priors(RsRfdProtocol::Grr, &ks, 6.0, priors).unwrap();
            let (observed, labels) = solution.report_round(ds.rows(), &mut rng);
            black_box(SampledAttributeAttack::evaluate(
                &solution,
                &observed,
                &labels,
                &AttackModel::NoKnowledge { synth_factor: 1.0 },
                &classifier(),
                &mut rng,
            ))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    fig01_kernel,
    fig02_kernel,
    fig03_kernel,
    fig04_kernel,
    fig05_kernel,
    fig06_kernel,
    fig12_kernel
);
criterion_main!(benches);
