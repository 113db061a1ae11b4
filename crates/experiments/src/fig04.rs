//! Fig. 4: RID-ACC on Adult against the **RS+FD\[GRR\]** solution (FK-RI,
//! uniform metric): the adversary must first infer the sampled attribute
//! (NK, s = 1n), so profiling errors chain and re-identification collapses
//! compared with SMP (Fig. 2).

use ldp_core::attacks::{AttackKind, ReidentConfig};
use ldp_core::inference::AttackClassifier;
use ldp_core::metrics::mean_std;
use ldp_core::solutions::RsFdProtocol;
use ldp_protocols::hash::{mix2, mix3};
use ldp_sim::{run_rsfd_campaign, AttackPipeline, RsFdCampaignConfig, SurveyPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::smp_reident::{rid_acc_by_survey, survey_slots};
use crate::sweep::sweep;
use crate::table::{fnum, Table};
use crate::{eps_grid, Corpus, ExpConfig, TOP_KS};

/// Runs the figure: one table, written as `fig04.csv`.
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let eps = eps_grid();
    let fig_seed = mix2(cfg.seed, 0x000F_1604);
    let n_surveys = 5usize;

    let points = sweep(cfg, fig_seed, &eps, |&epsilon, run, item_seed| {
        let dataset = Corpus::Adult.build(cfg, run);
        let mut plan_rng = StdRng::seed_from_u64(mix3(fig_seed, run, 0x91A7));
        let plan = SurveyPlan::generate(dataset.d(), n_surveys, &mut plan_rng);
        let config = RsFdCampaignConfig {
            protocol: RsFdProtocol::Grr,
            epsilon,
            synth_factor: 1.0,
            classifier: AttackClassifier::Gbdt(cfg.attack_gbdt()),
        };
        let snapshots = run_rsfd_campaign(&dataset, &plan, &config, item_seed, 1)
            .expect("campaign construction");
        let evaluator = AttackPipeline::from_kind(AttackKind::Reident(ReidentConfig {
            top_ks: TOP_KS.to_vec(),
            ..ReidentConfig::default()
        }))
        .expect("reident attack kind")
        .seed(item_seed)
        .threads(1);
        let index = evaluator.reident_index(&dataset);
        rid_acc_by_survey(&evaluator, &index, &snapshots, n_surveys)
    });

    let n_population = Corpus::Adult.n(cfg);
    let mut table = Table::new(
        "Fig 4: RS+FD[GRR] re-identification on Adult (FK-RI, uniform eps-LDP)",
        &[
            "eps",
            "surveys",
            "top_k",
            "rid_acc_mean",
            "rid_acc_std",
            "baseline",
        ],
    );
    for (&epsilon, runs) in eps.iter().zip(&points) {
        for (slot, (sv, k)) in survey_slots(n_surveys).into_iter().enumerate() {
            let ms = mean_std(&runs.iter().map(|accs| accs[slot]).collect::<Vec<_>>());
            table.row(vec![
                fnum(epsilon),
                sv.to_string(),
                k.to_string(),
                fnum(ms.mean),
                fnum(ms.std),
                fnum(100.0 * k as f64 / n_population as f64),
            ]);
        }
    }
    vec![table]
}
