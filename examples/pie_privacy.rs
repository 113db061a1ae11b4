//! The α-PIE relaxed privacy model (Appendix C): how the per-attribute
//! decision rule ("pass small domains through, randomize the rest") changes
//! re-identification exposure compared to standard ε-LDP.
//!
//! ```sh
//! cargo run --release --example pie_privacy
//! ```

use ldp_core::attacks::{AttackKind, ReidentConfig};
use ldp_core::pie::{self, PieDecision};
use ldp_core::reident::ReidentAttack;
use ldp_datasets::corpora::adult_like;
use ldp_protocols::ProtocolKind;
use ldp_sim::{AttackPipeline, PrivacyModel, SamplingSetting, SmpCampaign, SurveyPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let n = 8_000;
    let dataset = adult_like(n, 13);
    let ks = dataset.schema().cardinalities();

    println!("Per-attribute PIE decisions over the Adult schema (n = {n}):\n");
    println!(
        "{:<16} {:>3} {:>24}",
        "attribute", "k", "beta=0.9 / beta=0.6"
    );
    for (attr, &k) in dataset.schema().attributes().iter().zip(&ks) {
        let show = |beta: f64| match pie::decide(beta, n, k) {
            PieDecision::PassThrough => "clear".to_string(),
            PieDecision::Randomize { epsilon } => format!("eps={epsilon:.2}"),
        };
        println!(
            "{:<16} {:>3} {:>11} / {:<10}",
            attr.name,
            k,
            show(0.9),
            show(0.6)
        );
    }

    // Compare OUE under eps-LDP vs alpha-PIE at a comparable operating point.
    let mut rng = StdRng::seed_from_u64(3);
    let plan = SurveyPlan::generate(dataset.d(), 5, &mut rng);
    let all: Vec<usize> = (0..dataset.d()).collect();
    let attack = ReidentAttack::build(&dataset, &all);

    println!(
        "\n{:<26} {:>9} {:>9}",
        "privacy model (OUE)", "top-1 %", "top-10 %"
    );
    for (label, model) in [
        (
            "eps-LDP, eps = 1".to_string(),
            PrivacyModel::Ldp { epsilon: 1.0 },
        ),
        (
            "alpha-PIE, beta = 0.9".to_string(),
            PrivacyModel::Pie { beta: 0.9 },
        ),
        (
            "alpha-PIE, beta = 0.6".to_string(),
            PrivacyModel::Pie { beta: 0.6 },
        ),
    ] {
        let campaign = SmpCampaign::new(
            ProtocolKind::Oue,
            &ks,
            &model,
            dataset.n(),
            SamplingSetting::Uniform,
        )
        .expect("campaign");
        let snaps = campaign.run(&dataset, &plan, 77, 2);
        let accs = AttackPipeline::from_kind(AttackKind::Reident(ReidentConfig::default()))
            .unwrap()
            .seed(5)
            .threads(2)
            .rid_acc(&attack, &snaps[4]);
        println!("{:<26} {:>9.2} {:>9.2}", label, accs[0], accs[1]);
    }

    println!("\nPIE sends small-domain attributes in the clear, so even utility-");
    println!("friendly OUE becomes re-identifiable — the paper's Appendix C warning.");
}
