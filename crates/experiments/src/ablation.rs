//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! * **classifier family** — the inference attack with GBDT (the paper's
//!   XGBoost stand-in) vs multinomial logistic regression;
//! * **top-k sensitivity** — how the re-identification decision's k changes
//!   the attacker's success, beyond the paper's k ∈ {1, 10}.

use ldp_core::attacks::{AttackKind, ReidentConfig};
use ldp_core::inference::{AttackClassifier, AttackModel, SampledAttributeAttack};
use ldp_core::metrics::mean_std;
use ldp_core::solutions::{RsFd, RsFdProtocol};
use ldp_gbdt::LogisticParams;
use ldp_protocols::hash::{mix2, mix3};
use ldp_protocols::{ProtocolKind, UeMode};
use ldp_sim::{AttackPipeline, PrivacyModel, SamplingSetting, SmpCampaign, SurveyPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::sweep::sweep;
use crate::table::{fnum, Table};
use crate::{Corpus, ExpConfig};

/// Classifier-family ablation on the Fig. 3 setting (ACSEmployment, NK,
/// s = 1n): GBDT vs logistic regression per RS+FD protocol.
pub fn run_classifier(cfg: &ExpConfig) -> Vec<Table> {
    let eps = [2.0, 6.0, 10.0];
    let protocols = [
        RsFdProtocol::Grr,
        RsFdProtocol::UeZ(UeMode::Symmetric),
        RsFdProtocol::UeZ(UeMode::Optimized),
        RsFdProtocol::UeR(UeMode::Optimized),
    ];
    let classifiers: Vec<(&str, AttackClassifier)> = vec![
        ("gbdt", AttackClassifier::Gbdt(cfg.attack_gbdt())),
        (
            "logistic",
            AttackClassifier::Logistic(LogisticParams::default()),
        ),
    ];
    let fig_seed = mix2(cfg.seed, 0x00AB_1A7E);

    let n_classifiers = classifiers.len();
    let cells: Vec<(usize, usize, usize)> = (0..protocols.len())
        .flat_map(|pi| {
            (0..eps.len()).flat_map(move |ei| (0..n_classifiers).map(move |ci| (pi, ei, ci)))
        })
        .collect();
    let accs = sweep(cfg, fig_seed, &cells, |&(pi, ei, ci), run, item_seed| {
        let mut rng = StdRng::seed_from_u64(item_seed);
        let ds = Corpus::Acs.build(cfg, run);
        let ks = ds.schema().cardinalities();
        let solution = RsFd::new(protocols[pi], &ks, eps[ei]).expect("rsfd");
        let (observed, sampled) = solution.report_round(ds.rows(), &mut rng);
        let out = SampledAttributeAttack::evaluate(
            &solution,
            &observed,
            &sampled,
            &AttackModel::NoKnowledge { synth_factor: 1.0 },
            &classifiers[ci].1,
            &mut rng,
        );
        out.aif_acc
    });

    let mut table = Table::new(
        "Ablation: attack classifier family (ACSEmployment, NK s=1n)",
        &[
            "solution",
            "classifier",
            "eps",
            "aif_acc_mean",
            "aif_acc_std",
        ],
    );
    let mut rows: Vec<_> = cells.iter().zip(&accs).collect();
    rows.sort_by_key(|&(&(pi, ei, ci), _)| (pi, ci, ei));
    for (&(pi, ei, ci), accs) in rows {
        let ms = mean_std(accs);
        table.row(vec![
            protocols[pi].name(),
            classifiers[ci].0.to_string(),
            fnum(eps[ei]),
            fnum(ms.mean),
            fnum(ms.std),
        ]);
    }
    vec![table]
}

/// Top-k sensitivity of the SMP re-identification decision (Adult, GRR,
/// uniform metric, 5 surveys).
pub fn run_topk(cfg: &ExpConfig) -> Vec<Table> {
    let eps = [2.0, 6.0, 10.0];
    let top_ks = [1usize, 5, 10, 50, 100];
    let fig_seed = mix2(cfg.seed, 0x00AB_1A70);

    let points = sweep(cfg, fig_seed, &eps, |&epsilon, run, item_seed| {
        let ds = Corpus::Adult.build(cfg, run);
        let ks = ds.schema().cardinalities();
        let mut rng = StdRng::seed_from_u64(mix3(fig_seed, run, 3));
        let plan = SurveyPlan::generate(ds.d(), 5, &mut rng);
        let campaign = SmpCampaign::new(
            ProtocolKind::Grr,
            &ks,
            &PrivacyModel::Ldp { epsilon },
            ds.n(),
            SamplingSetting::Uniform,
        )
        .expect("campaign");
        let snaps = campaign.run(&ds, &plan, item_seed, 1);
        let evaluator = AttackPipeline::from_kind(AttackKind::Reident(ReidentConfig {
            top_ks: top_ks.to_vec(),
            ..ReidentConfig::default()
        }))
        .expect("reident attack kind")
        .seed(item_seed)
        .threads(1);
        evaluator.rid_acc(&evaluator.reident_index(&ds), &snaps[4])
    });

    let n = Corpus::Adult.n(cfg);
    let mut table = Table::new(
        "Ablation: top-k sensitivity (Adult, SMP[GRR], FK-RI, 5 surveys)",
        &["eps", "top_k", "rid_acc_mean", "rid_acc_std", "baseline"],
    );
    for (&epsilon, runs) in eps.iter().zip(&points) {
        for (slot, &k) in top_ks.iter().enumerate() {
            let ms = mean_std(&runs.iter().map(|accs| accs[slot]).collect::<Vec<_>>());
            table.row(vec![
                fnum(epsilon),
                k.to_string(),
                fnum(ms.mean),
                fnum(ms.std),
                fnum(100.0 * k as f64 / n as f64),
            ]);
        }
    }
    vec![table]
}
