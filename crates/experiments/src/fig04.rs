//! Fig. 4: RID-ACC on Adult against the **RS+FD\[GRR\]** solution (FK-RI,
//! uniform metric): the adversary must first infer the sampled attribute
//! (NK, s = 1n), so profiling errors chain and re-identification collapses
//! compared with SMP (Fig. 2).

use std::collections::BTreeMap;

use ldp_core::attacks::{AttackKind, ReidentConfig};
use ldp_core::inference::AttackClassifier;
use ldp_core::metrics::mean_std;
use ldp_core::solutions::RsFdProtocol;
use ldp_protocols::hash::{mix2, mix3};
use ldp_sim::par::par_map;
use ldp_sim::{run_rsfd_campaign, AttackPipeline, RsFdCampaignConfig, SurveyPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::table::{fnum, Table};
use crate::{eps_grid, ExpConfig, SURVEY_COUNTS, TOP_KS};

/// Runs the figure: one table, written as `fig04.csv`.
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let eps = eps_grid();
    let fig_seed = mix2(cfg.seed, 0x000F_1604);
    let n_surveys = 5usize;

    let grid: Vec<(usize, u64)> = (0..eps.len())
        .flat_map(|ei| (0..cfg.runs as u64).map(move |run| (ei, run)))
        .collect();

    // (eps index, [( (surveys, k), rid_acc )]) per grid item.
    type Point = (usize, Vec<((usize, usize), f64)>);
    let points: Vec<Point> = par_map(grid.len(), cfg.threads, |g| {
        let (ei, run) = grid[g];
        let item_seed = mix3(fig_seed, g as u64, run);
        let dataset = cfg.adult(run);
        let mut plan_rng = StdRng::seed_from_u64(mix3(fig_seed, run, 0x91A7));
        let plan = SurveyPlan::generate(dataset.d(), n_surveys, &mut plan_rng);
        let config = RsFdCampaignConfig {
            protocol: RsFdProtocol::Grr,
            epsilon: eps[ei],
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
        let attack = evaluator.reident_index(&dataset);
        let mut point = Vec::new();
        for &sv in SURVEY_COUNTS.iter().filter(|&&s| s <= n_surveys) {
            let accs = evaluator.rid_acc(&attack, &snapshots[sv - 1]);
            for (slot, &k) in TOP_KS.iter().enumerate() {
                point.push(((sv, k), accs[slot]));
            }
        }
        (ei, point)
    });

    let mut buckets: BTreeMap<(usize, usize, usize), Vec<f64>> = BTreeMap::new();
    for (ei, point) in points {
        for ((sv, k), acc) in point {
            buckets.entry((ei, sv, k)).or_default().push(acc);
        }
    }

    let n_population = cfg.adult(0).n();
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
    for ((ei, sv, k), accs) in buckets {
        let ms = mean_std(&accs);
        table.row(vec![
            fnum(eps[ei]),
            sv.to_string(),
            k.to_string(),
            fnum(ms.mean),
            fnum(ms.std),
            fnum(100.0 * k as f64 / n_population as f64),
        ]);
    }
    vec![table]
}
