//! The RS+RFD countermeasure (§5): realistic fake data simultaneously
//! improves utility and almost fully blocks the sampled-attribute inference
//! attack.
//!
//! ```sh
//! cargo run --release --example countermeasure
//! ```

use ldp_core::inference::{AttackClassifier, AttackModel, SampledAttributeAttack};
use ldp_core::metrics::mse_avg;
use ldp_core::solutions::{RsFd, RsFdProtocol, RsRfdProtocol};
use ldp_datasets::corpora::{acs_employment_like, ACS_EMPLOYMENT_N};
use ldp_datasets::priors::{correct_priors_scaled, IncorrectPrior};
use ldp_datasets::Dataset;
use ldp_gbdt::GbdtParams;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Sanitizes the dataset once, estimates its marginals from the reports and
/// attacks the same reports, scoring against the sampled attributes drawn
/// here; prints one table row.
fn row(
    name: &str,
    solution: &RsFd,
    dataset: &Dataset,
    classifier: &AttackClassifier,
    rng: &mut StdRng,
) {
    let (reports, sampled) = solution.report_round(dataset.rows(), rng);
    let mut agg = solution.aggregator();
    for report in &reports {
        agg.absorb(report);
    }
    let mse = mse_avg(&dataset.marginals(), &agg.estimate());
    let nk = AttackModel::NoKnowledge { synth_factor: 1.0 };
    let attack =
        SampledAttributeAttack::evaluate(solution, &reports, &sampled, &nk, classifier, rng);
    println!("{name:<26} {mse:>10.6} {:>12.1}", attack.aif_acc);
}

fn main() {
    let dataset = acs_employment_like(2_500, 21);
    let ks = dataset.schema().cardinalities();
    let epsilon = 4.0;
    let mut rng = StdRng::seed_from_u64(31);
    let classifier = AttackClassifier::Gbdt(GbdtParams {
        rounds: 15,
        max_depth: 4,
        min_child_weight: 0.05,
        ..GbdtParams::default()
    });

    println!(
        "n = {}, d = {}, eps = {epsilon} (attack baseline = {:.1}%)\n",
        dataset.n(),
        dataset.d(),
        100.0 / dataset.d() as f64
    );
    println!("{:<26} {:>10} {:>12}", "solution", "MSE_avg", "AIF-ACC %");

    // RS+FD with uniform fakes (the attack target).
    let rsfd = RsFd::new(RsFdProtocol::Grr, &ks, epsilon).expect("rsfd");
    row("RS+FD[GRR]", &rsfd, &dataset, &classifier, &mut rng);

    // RS+RFD with "correct" Census-style priors.
    let priors = correct_priors_scaled(&dataset, 0.1, ACS_EMPLOYMENT_N, &mut rng);
    let rsrfd = RsFd::with_priors(RsRfdProtocol::Grr, &ks, epsilon, priors).expect("rsrfd");
    row(
        "RS+RFD[GRR] correct prior",
        &rsrfd,
        &dataset,
        &classifier,
        &mut rng,
    );

    // RS+RFD with deliberately wrong (Zipf) priors — still robust.
    let priors = IncorrectPrior::Zipf.generate_all(&ks, &mut rng);
    let rsrfd = RsFd::with_priors(RsRfdProtocol::Grr, &ks, epsilon, priors).expect("rsrfd");
    row(
        "RS+RFD[GRR] zipf prior",
        &rsrfd,
        &dataset,
        &classifier,
        &mut rng,
    );

    println!("\nWith correct priors RS+RFD lowers both the estimation error and the");
    println!("attacker's accuracy (to near-baseline); even wrong priors beat uniform");
    println!("fakes — the paper's closing recommendation.");
}
