//! Shared runner for the SMP re-identification sweeps
//! (Figs. 2, 9, 10, 11, 12, 13).

use ldp_core::attacks::{AttackKind, BackgroundKnowledge, ReidentConfig};
use ldp_core::metrics::mean_std;
use ldp_core::profiling::Profile;
use ldp_core::reident::ReidentAttack;
use ldp_protocols::hash::mix3;
use ldp_protocols::ProtocolKind;
use ldp_sim::{AttackPipeline, PrivacyModel, SamplingSetting, SmpCampaign, SurveyPlan};
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::{Rng, SeedableRng};

use crate::sweep::{fig_seed, sweep};
use crate::table::{fnum, Table};
use crate::{Corpus, ExpConfig, SURVEY_COUNTS, TOP_KS};

/// The x-axis of the sweep: ε for LDP, β for α-PIE.
#[derive(Debug, Clone)]
pub enum XAxis {
    /// Standard ε-LDP sweep.
    Epsilon(Vec<f64>),
    /// α-PIE sweep parameterized by the Bayes error β.
    Beta(Vec<f64>),
}

/// Adversary background knowledge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Background {
    /// FK-RI: the full d-dimensional dataset.
    Full,
    /// PK-RI: a random attribute subset of size in `[⌈d/2⌉, d − 1]`.
    Partial,
}

/// Parameters of one SMP re-identification sweep.
#[derive(Debug, Clone)]
pub struct SmpReidentParams {
    /// Corpus.
    pub dataset: Corpus,
    /// Frequency-oracle families to evaluate.
    pub kinds: Vec<ProtocolKind>,
    /// Privacy sweep axis.
    pub xaxis: XAxis,
    /// Attribute-sampling setting across surveys.
    pub setting: SamplingSetting,
    /// FK-RI or PK-RI.
    pub background: Background,
    /// Total surveys (the paper: 5).
    pub n_surveys: usize,
}

/// The `(surveys, top_k)` pairs RID-ACC is measured at over `n_surveys`
/// surveys, in row order.
pub(crate) fn survey_slots(n_surveys: usize) -> Vec<(usize, usize)> {
    SURVEY_COUNTS
        .iter()
        .filter(|&&sv| sv <= n_surveys)
        .flat_map(|&sv| TOP_KS.map(|k| (sv, k)))
        .collect()
}

/// RID-ACC (%) of `evaluator` against `index` after each survey count of
/// [`survey_slots`], in its order; `snapshots[s]` holds the profiles after
/// `s + 1` surveys.
pub(crate) fn rid_acc_by_survey(
    evaluator: &AttackPipeline,
    index: &ReidentAttack,
    snapshots: &[Vec<Profile>],
    n_surveys: usize,
) -> Vec<f64> {
    SURVEY_COUNTS
        .iter()
        .filter(|&&sv| sv <= n_surveys)
        .flat_map(|&sv| evaluator.rid_acc(index, &snapshots[sv - 1]))
        .collect()
}

/// Runs the sweep and returns the result table
/// (`protocol, x, surveys, k, rid_acc_mean, rid_acc_std, baseline`).
pub fn run(cfg: &ExpConfig, params: &SmpReidentParams, fig: &str) -> Table {
    let xs: &[f64] = match &params.xaxis {
        XAxis::Epsilon(v) | XAxis::Beta(v) => v,
    };
    let x_label = match params.xaxis {
        XAxis::Epsilon(_) => "eps",
        XAxis::Beta(_) => "beta",
    };
    let fig_seed = fig_seed(cfg, fig);
    let cells: Vec<(ProtocolKind, f64)> = params
        .kinds
        .iter()
        .flat_map(|&kind| xs.iter().map(move |&x| (kind, x)))
        .collect();

    let points = sweep(cfg, fig_seed, &cells, |&(kind, x), run, item_seed| {
        let dataset = params.dataset.build(cfg, run);
        let ks = dataset.schema().cardinalities();
        let mut plan_rng = StdRng::seed_from_u64(mix3(fig_seed, run, 0x91A7));
        let plan = SurveyPlan::generate(dataset.d(), params.n_surveys, &mut plan_rng);

        let model = match params.xaxis {
            XAxis::Epsilon(_) => PrivacyModel::Ldp { epsilon: x },
            XAxis::Beta(_) => PrivacyModel::Pie { beta: x },
        };
        let campaign = SmpCampaign::new(kind, &ks, &model, dataset.n(), params.setting)
            .expect("campaign construction");
        let snapshots = campaign.run(&dataset, &plan, item_seed, 1);

        let background = match params.background {
            Background::Full => BackgroundKnowledge::Full,
            Background::Partial => {
                let mut rng = StdRng::seed_from_u64(mix3(fig_seed, run, 0xB0_0C));
                let d = dataset.d();
                let size = rng.random_range(d.div_ceil(2)..d);
                let mut a: Vec<usize> = sample(&mut rng, d, size).into_iter().collect();
                a.sort_unstable();
                BackgroundKnowledge::Partial(a)
            }
        };
        // Sharded, per-target-seeded RID-ACC evaluation at the configured
        // top-ks and background knowledge (grid items already run in
        // parallel, so each pipeline evaluates inline).
        let evaluator = AttackPipeline::from_kind(AttackKind::Reident(ReidentConfig {
            top_ks: TOP_KS.to_vec(),
            background,
            ..ReidentConfig::default()
        }))
        .expect("reident attack kind")
        .seed(item_seed)
        .threads(1);
        let index = evaluator.reident_index(&dataset);
        rid_acc_by_survey(&evaluator, &index, &snapshots, params.n_surveys)
    });

    let n_population = params.dataset.n(cfg);
    let mut table = Table::new(
        format!("{fig}: SMP re-identification (RID-ACC %)"),
        &[
            "protocol",
            x_label,
            "surveys",
            "top_k",
            "rid_acc_mean",
            "rid_acc_std",
            "baseline",
        ],
    );
    for (&(kind, x), runs) in cells.iter().zip(&points) {
        for (slot, (sv, k)) in survey_slots(params.n_surveys).into_iter().enumerate() {
            let ms = mean_std(&runs.iter().map(|accs| accs[slot]).collect::<Vec<_>>());
            table.row(vec![
                kind.name().to_string(),
                fnum(x),
                sv.to_string(),
                k.to_string(),
                fnum(ms.mean),
                fnum(ms.std),
                fnum(100.0 * k as f64 / n_population as f64),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn smp_reident_runner_sweeps_through_the_attack_pipeline() {
        let cfg = ExpConfig {
            runs: 1,
            scale: 0.01,
            threads: 2,
            seed: 7,
            out_dir: PathBuf::from("/tmp/risks-ldp-test"),
        };
        let params = SmpReidentParams {
            dataset: Corpus::Adult,
            kinds: vec![ProtocolKind::Grr],
            xaxis: XAxis::Epsilon(vec![6.0]),
            setting: SamplingSetting::Uniform,
            background: Background::Partial,
            n_surveys: 2,
        };
        let table = run(&cfg, &params, "smoke");
        // One row per (kind, eps, surveys<=2, top_k): 1 x 1 x 1 x 2.
        assert_eq!(table.rows().len(), 2);
        for row in table.rows() {
            let acc: f64 = row[4].parse().unwrap();
            assert!((0.0..=100.0).contains(&acc), "RID-ACC {acc}");
        }
    }
}
