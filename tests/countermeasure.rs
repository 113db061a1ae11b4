//! Integration: the RS+RFD countermeasure improves utility (Fig. 5) and
//! suppresses the sampled-attribute inference attack (Fig. 6 / Fig. 17).

use ldp_core::inference::{
    AttackClassifier, AttackModel, InferenceOutcome, SampledAttributeAttack,
};
use ldp_core::metrics::mse_avg;
use ldp_core::solutions::{RsFd, RsFdProtocol, RsRfdProtocol};
use ldp_datasets::corpora::{acs_employment_like, ACS_EMPLOYMENT_N};
use ldp_datasets::priors::{correct_priors_scaled, IncorrectPrior};
use ldp_datasets::Dataset;
use ldp_gbdt::GbdtParams;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One streaming estimation pass over a sanitized round.
fn estimate(solution: &RsFd, ds: &Dataset, rng: &mut StdRng) -> Vec<Vec<f64>> {
    let mut agg = solution.aggregator();
    for t in ds.rows() {
        agg.absorb(&solution.report_encoded(t, rng));
    }
    agg.estimate()
}

/// The NK attack on a sanitized round, scored on the sampled attributes
/// the round drew.
fn nk_attack(solution: &RsFd, ds: &Dataset, rng: &mut StdRng) -> InferenceOutcome {
    let (reports, labels) = solution.report_round(ds.rows(), rng);
    let nk = AttackModel::NoKnowledge { synth_factor: 1.0 };
    let classifier = AttackClassifier::Gbdt(GbdtParams {
        rounds: 15,
        max_depth: 4,
        min_child_weight: 0.05,
        ..GbdtParams::default()
    });
    SampledAttributeAttack::evaluate(solution, &reports, &labels, &nk, &classifier, rng)
}

#[test]
fn correct_priors_beat_uniform_fakes_on_mse() {
    let ds = acs_employment_like(4_000, 9);
    let ks = ds.schema().cardinalities();
    let truth = ds.marginals();
    let eps = 2.0f64.ln();
    // Average over a few seeds to stabilize the comparison.
    let (mut mse_fd, mut mse_rfd) = (0.0, 0.0);
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let rsfd = RsFd::new(RsFdProtocol::Grr, &ks, eps).expect("rsfd");
        mse_fd += mse_avg(&truth, &estimate(&rsfd, &ds, &mut rng));

        let priors = correct_priors_scaled(&ds, 0.1, ACS_EMPLOYMENT_N, &mut rng);
        let rsrfd = RsFd::with_priors(RsRfdProtocol::Grr, &ks, eps, priors).expect("rsrfd");
        mse_rfd += mse_avg(&truth, &estimate(&rsrfd, &ds, &mut rng));
    }
    assert!(
        mse_rfd < mse_fd,
        "RS+RFD (correct priors) must beat RS+FD: {mse_rfd} vs {mse_fd}"
    );
}

#[test]
fn correct_priors_suppress_the_inference_attack() {
    let ds = acs_employment_like(1_500, 10);
    let ks = ds.schema().cardinalities();
    let mut rng = StdRng::seed_from_u64(11);
    let rsfd = RsFd::new(RsFdProtocol::Grr, &ks, 10.0).expect("rsfd");
    let fd = nk_attack(&rsfd, &ds, &mut rng);

    let priors = correct_priors_scaled(&ds, 0.1, ACS_EMPLOYMENT_N, &mut rng);
    let rsrfd = RsFd::with_priors(RsRfdProtocol::Grr, &ks, 10.0, priors).expect("rsrfd");
    let rfd = nk_attack(&rsrfd, &ds, &mut rng);

    assert!(
        rfd.aif_acc < fd.aif_acc,
        "countermeasure must reduce AIF-ACC: {} vs {}",
        rfd.aif_acc,
        fd.aif_acc
    );
    assert!(
        rfd.aif_acc < rfd.baseline + 6.0,
        "RS+RFD AIF-ACC {} should hug the baseline {}",
        rfd.aif_acc,
        rfd.baseline
    );
}

#[test]
fn even_wrong_zipf_priors_help_against_the_attack() {
    let ds = acs_employment_like(1_500, 12);
    let ks = ds.schema().cardinalities();
    let mut rng = StdRng::seed_from_u64(13);
    let rsfd = RsFd::new(RsFdProtocol::Grr, &ks, 10.0).expect("rsfd");
    let fd = nk_attack(&rsfd, &ds, &mut rng);

    let priors = IncorrectPrior::Zipf.generate_all(&ks, &mut rng);
    let rsrfd = RsFd::with_priors(RsRfdProtocol::Grr, &ks, 10.0, priors).expect("rsrfd");
    let rfd = nk_attack(&rsrfd, &ds, &mut rng);

    assert!(
        rfd.aif_acc < fd.aif_acc,
        "Zipf priors should still blunt the attack: {} vs {}",
        rfd.aif_acc,
        fd.aif_acc
    );
}

#[test]
fn rsrfd_estimators_recover_marginals_with_wrong_priors() {
    // Unbiasedness holds for *any* valid prior — the estimator subtracts the
    // exact fake-data bias. Wrong priors cost variance, not bias.
    let ds = acs_employment_like(6_000, 14);
    let ks = ds.schema().cardinalities();
    let truth = ds.marginals();
    let mut rng = StdRng::seed_from_u64(15);
    let priors = IncorrectPrior::Dirichlet.generate_all(&ks, &mut rng);
    let rsrfd = RsFd::with_priors(RsRfdProtocol::Grr, &ks, 3.0, priors).expect("rsrfd");
    let est = estimate(&rsrfd, &ds, &mut rng);
    // Spot-check the largest attribute's head value.
    let head = truth[0]
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap();
    assert!(
        (est[0][head] - truth[0][head]).abs() < 0.15,
        "estimate {} vs truth {}",
        est[0][head],
        truth[0][head]
    );
}
