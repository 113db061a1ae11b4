//! Integration: the full SMP collection → profiling → re-identification
//! pipeline reproduces the paper's qualitative Fig. 2 findings.

use ldp_core::attacks::{AttackKind, ReidentConfig};
use ldp_core::reident::ReidentAttack;
use ldp_datasets::corpora::adult_like;
use ldp_protocols::ProtocolKind;
use ldp_sim::{AttackPipeline, PrivacyModel, SamplingSetting, SmpCampaign, SurveyPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rid_after_five_surveys(
    kind: ProtocolKind,
    epsilon: f64,
    setting: SamplingSetting,
) -> (f64, f64) {
    let dataset = adult_like(3_000, 5);
    let ks = dataset.schema().cardinalities();
    let mut rng = StdRng::seed_from_u64(8);
    let plan = SurveyPlan::generate(dataset.d(), 5, &mut rng);
    let campaign = SmpCampaign::new(
        kind,
        &ks,
        &PrivacyModel::Ldp { epsilon },
        dataset.n(),
        setting,
    )
    .expect("campaign");
    let snaps = campaign.run(&dataset, &plan, 31, 2);
    let all: Vec<usize> = (0..dataset.d()).collect();
    let attack = ReidentAttack::build(&dataset, &all);
    let accs = AttackPipeline::from_kind(AttackKind::Reident(ReidentConfig::default()))
        .unwrap()
        .seed(7)
        .threads(2)
        .rid_acc(&attack, &snaps[4]);
    (accs[0], accs[1])
}

#[test]
fn grr_reidentification_far_exceeds_baseline_at_high_epsilon() {
    let (top1, top10) = rid_after_five_surveys(ProtocolKind::Grr, 8.0, SamplingSetting::Uniform);
    let baseline1 = 100.0 / 3000.0;
    assert!(
        top1 > 50.0 * baseline1,
        "top-1 {top1} vs baseline {baseline1}"
    );
    assert!(top10 > top1, "top-10 {top10} must dominate top-1 {top1}");
}

#[test]
fn oue_resists_much_better_than_grr() {
    let (grr1, _) = rid_after_five_surveys(ProtocolKind::Grr, 8.0, SamplingSetting::Uniform);
    let (oue1, _) = rid_after_five_surveys(ProtocolKind::Oue, 8.0, SamplingSetting::Uniform);
    assert!(
        grr1 > 2.0 * oue1,
        "paper ordering violated: GRR {grr1} vs OUE {oue1}"
    );
}

#[test]
fn risk_grows_with_epsilon() {
    let (lo, _) = rid_after_five_surveys(ProtocolKind::Grr, 1.0, SamplingSetting::Uniform);
    let (hi, _) = rid_after_five_surveys(ProtocolKind::Grr, 8.0, SamplingSetting::Uniform);
    assert!(hi > lo, "RID-ACC must grow with epsilon: {lo} -> {hi}");
}

#[test]
fn nonuniform_metric_reduces_risk() {
    let (uni, _) = rid_after_five_surveys(ProtocolKind::Grr, 6.0, SamplingSetting::Uniform);
    let (non, _) = rid_after_five_surveys(ProtocolKind::Grr, 6.0, SamplingSetting::NonUniform);
    assert!(
        non < uni,
        "memoized with-replacement sampling must lower RID-ACC: {non} vs {uni}"
    );
}

#[test]
fn partial_background_knowledge_reduces_risk() {
    let dataset = adult_like(3_000, 6);
    let ks = dataset.schema().cardinalities();
    let mut rng = StdRng::seed_from_u64(9);
    let plan = SurveyPlan::generate(dataset.d(), 5, &mut rng);
    let campaign = SmpCampaign::new(
        ProtocolKind::Grr,
        &ks,
        &PrivacyModel::Ldp { epsilon: 8.0 },
        dataset.n(),
        SamplingSetting::Uniform,
    )
    .expect("campaign");
    let snaps = campaign.run(&dataset, &plan, 12, 2);
    let all: Vec<usize> = (0..dataset.d()).collect();
    let fk = ReidentAttack::build(&dataset, &all);
    let pk = ReidentAttack::build(&dataset, &all[..dataset.d() / 2]);
    let top10 = AttackPipeline::from_kind(AttackKind::Reident(ReidentConfig {
        top_ks: vec![10],
        ..ReidentConfig::default()
    }))
    .unwrap()
    .seed(3)
    .threads(2);
    let fk_acc = top10.rid_acc(&fk, &snaps[4])[0];
    let pk_acc = top10.rid_acc(&pk, &snaps[4])[0];
    assert!(
        pk_acc < fk_acc,
        "PK-RI must be weaker than FK-RI: {pk_acc} vs {fk_acc}"
    );
}
