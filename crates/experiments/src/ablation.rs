//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! * **classifier family** — the inference attack with GBDT (the paper's
//!   XGBoost stand-in) vs multinomial logistic regression;
//! * **top-k sensitivity** — how the re-identification decision's k changes
//!   the attacker's success, beyond the paper's k ∈ {1, 10}.

use std::collections::BTreeMap;

use ldp_core::inference::{AttackClassifier, AttackModel, SampledAttributeAttack};
use ldp_core::metrics::mean_std;
use ldp_core::reident::ReidentAttack;
use ldp_core::solutions::{MultidimSolution, RsFd, RsFdProtocol};
use ldp_gbdt::LogisticParams;
use ldp_protocols::hash::{mix2, mix3};
use ldp_protocols::{ProtocolKind, UeMode};
use ldp_sim::par::par_map;
use ldp_sim::{rid_acc_multi, PrivacyModel, SamplingSetting, SmpCampaign, SurveyPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::table::{fnum, Table};
use crate::ExpConfig;

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
    let grid: Vec<(usize, usize, usize, u64)> = (0..protocols.len())
        .flat_map(|pi| {
            (0..eps.len()).flat_map(move |ei| {
                (0..n_classifiers)
                    .flat_map(move |ci| (0..cfg.runs as u64).map(move |run| (pi, ei, ci, run)))
            })
        })
        .collect();
    let classifiers_ref = &classifiers;
    let measurements: Vec<(usize, usize, usize, f64)> = par_map(grid.len(), cfg.threads, |g| {
        let (pi, ei, ci, run) = grid[g];
        let mut rng = StdRng::seed_from_u64(mix3(fig_seed, g as u64, run));
        let ds = cfg.acs(run);
        let ks = ds.schema().cardinalities();
        let solution = RsFd::new(protocols[pi], &ks, eps[ei]).expect("rsfd");
        let (observed, sampled) = solution.report_round(ds.rows(), &mut rng);
        let out = SampledAttributeAttack::evaluate(
            &solution,
            &observed,
            &sampled,
            &AttackModel::NoKnowledge { synth_factor: 1.0 },
            &classifiers_ref[ci].1,
            &mut rng,
        );
        (pi, ei, ci, out.aif_acc)
    });

    let mut buckets: BTreeMap<(usize, usize, usize), Vec<f64>> = BTreeMap::new();
    for (pi, ei, ci, acc) in measurements {
        buckets.entry((pi, ci, ei)).or_default().push(acc);
    }
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
    for ((pi, ci, ei), accs) in buckets {
        let ms = mean_std(&accs);
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

    let grid: Vec<(usize, u64)> = (0..eps.len())
        .flat_map(|ei| (0..cfg.runs as u64).map(move |run| (ei, run)))
        .collect();
    let measurements: Vec<(usize, Vec<f64>)> = par_map(grid.len(), cfg.threads, |g| {
        let (ei, run) = grid[g];
        let item_seed = mix3(fig_seed, g as u64, run);
        let ds = cfg.adult(run);
        let ks = ds.schema().cardinalities();
        let mut rng = StdRng::seed_from_u64(mix3(fig_seed, run, 3));
        let plan = SurveyPlan::generate(ds.d(), 5, &mut rng);
        let campaign = SmpCampaign::new(
            ProtocolKind::Grr,
            &ks,
            &PrivacyModel::Ldp { epsilon: eps[ei] },
            ds.n(),
            SamplingSetting::Uniform,
        )
        .expect("campaign");
        let snaps = campaign.run(&ds, &plan, item_seed, 1);
        let all: Vec<usize> = (0..ds.d()).collect();
        let attack = ReidentAttack::build(&ds, &all);
        (ei, rid_acc_multi(&attack, &snaps[4], &top_ks, item_seed, 1))
    });

    let mut buckets: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
    for (ei, accs) in measurements {
        for (slot, &acc) in accs.iter().enumerate() {
            buckets.entry((ei, slot)).or_default().push(acc);
        }
    }
    let n = cfg.adult(0).n();
    let mut table = Table::new(
        "Ablation: top-k sensitivity (Adult, SMP[GRR], FK-RI, 5 surveys)",
        &["eps", "top_k", "rid_acc_mean", "rid_acc_std", "baseline"],
    );
    for ((ei, slot), accs) in buckets {
        let ms = mean_std(&accs);
        table.row(vec![
            fnum(eps[ei]),
            top_ks[slot].to_string(),
            fnum(ms.mean),
            fnum(ms.std),
            fnum(100.0 * top_ks[slot] as f64 / n as f64),
        ]);
    }
    vec![table]
}
