//! Integration: RS+FD attribute inference (Fig. 3/15) and the collapse of
//! re-identification under RS+FD (Fig. 4).

use ldp_core::attacks::{AttackKind, ReidentConfig};
use ldp_core::inference::{AttackClassifier, AttackModel, SampledAttributeAttack};
use ldp_core::reident::ReidentAttack;
use ldp_core::solutions::{RsFd, RsFdProtocol};
use ldp_datasets::corpora::{acs_employment_like, adult_like, nursery_like};
use ldp_datasets::Dataset;
use ldp_gbdt::GbdtParams;
use ldp_protocols::UeMode;
use ldp_sim::{run_rsfd_campaign, AttackPipeline, RsFdCampaignConfig, SurveyPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn classifier() -> AttackClassifier {
    AttackClassifier::Gbdt(GbdtParams {
        rounds: 15,
        max_depth: 4,
        min_child_weight: 0.05,
        ..GbdtParams::default()
    })
}

fn nk_aif(dataset: &Dataset, protocol: RsFdProtocol, epsilon: f64, seed: u64) -> (f64, f64) {
    let ks = dataset.schema().cardinalities();
    let mut rng = StdRng::seed_from_u64(seed);
    let solution = RsFd::new(protocol, &ks, epsilon).expect("rsfd");
    let (observed, sampled) = solution.report_round(dataset.rows(), &mut rng);
    let out = SampledAttributeAttack::evaluate(
        &solution,
        &observed,
        &sampled,
        &AttackModel::NoKnowledge { synth_factor: 1.0 },
        &classifier(),
        &mut rng,
    );
    (out.aif_acc, out.baseline)
}

#[test]
fn sue_z_leaks_almost_completely_at_high_epsilon() {
    let ds = acs_employment_like(1_200, 2);
    let (acc, _) = nk_aif(&ds, RsFdProtocol::UeZ(UeMode::Symmetric), 10.0, 4);
    assert!(acc > 80.0, "SUE-z should approach 100%, got {acc}");
}

#[test]
fn oue_z_leaks_about_half() {
    let ds = acs_employment_like(1_200, 2);
    let (acc, _) = nk_aif(&ds, RsFdProtocol::UeZ(UeMode::Optimized), 10.0, 4);
    assert!(
        (30.0..75.0).contains(&acc),
        "OUE-z should sit near 50%, got {acc}"
    );
}

#[test]
fn grr_beats_baseline_on_skewed_corpora() {
    let ds = adult_like(2_000, 3);
    let (acc, baseline) = nk_aif(&ds, RsFdProtocol::Grr, 10.0, 5);
    assert!(
        acc > 1.5 * baseline,
        "Adult GRR AIF {acc} should clearly beat baseline {baseline}"
    );
}

#[test]
fn nursery_defeats_the_grr_attack() {
    // Appendix D: uniform-like marginals make uniform fakes
    // indistinguishable — no meaningful gain over random guessing.
    let ds = nursery_like(1_500, 4);
    let (acc, baseline) = nk_aif(&ds, RsFdProtocol::Grr, 10.0, 6);
    assert!(
        acc < baseline + 5.0,
        "Nursery GRR AIF {acc} should hug the baseline {baseline}"
    );
}

#[test]
fn rsfd_reidentification_collapses_relative_to_smp() {
    use ldp_protocols::ProtocolKind;
    use ldp_sim::{PrivacyModel, SamplingSetting, SmpCampaign};

    let dataset = adult_like(2_000, 7);
    let ks = dataset.schema().cardinalities();
    let mut rng = StdRng::seed_from_u64(10);
    let plan = SurveyPlan::generate(dataset.d(), 4, &mut rng);
    let all: Vec<usize> = (0..dataset.d()).collect();
    let attack = ReidentAttack::build(&dataset, &all);

    // SMP baseline risk at the same epsilon.
    let smp = SmpCampaign::new(
        ProtocolKind::Grr,
        &ks,
        &PrivacyModel::Ldp { epsilon: 8.0 },
        dataset.n(),
        SamplingSetting::Uniform,
    )
    .expect("campaign");
    let smp_snaps = smp.run(&dataset, &plan, 21, 2);
    let top10 = AttackPipeline::from_kind(AttackKind::Reident(ReidentConfig {
        top_ks: vec![10],
        ..ReidentConfig::default()
    }))
    .unwrap()
    .seed(5)
    .threads(2);
    let smp_acc = top10.rid_acc(&attack, &smp_snaps[3])[0];

    // RS+FD[GRR] with the chained classifier attack.
    let config = RsFdCampaignConfig {
        protocol: RsFdProtocol::Grr,
        epsilon: 8.0,
        synth_factor: 1.0,
        classifier: classifier(),
    };
    let rsfd_snaps = run_rsfd_campaign(&dataset, &plan, &config, 22, 2).expect("campaign");
    let rsfd_acc = top10.rid_acc(&attack, &rsfd_snaps[3])[0];

    assert!(
        rsfd_acc < 0.5 * smp_acc,
        "RS+FD should drastically reduce re-identification: {rsfd_acc} vs SMP {smp_acc}"
    );
}
