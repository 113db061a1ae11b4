//! Shared runner for the sampled-attribute inference sweeps
//! (Figs. 3, 6, 14, 15, 17).

use ldp_core::attacks::{AttackKind, InferenceConfig};
use ldp_core::inference::{AttackClassifier, AttackModel};
use ldp_core::metrics::mean_std;
use ldp_core::solutions::{RsFdProtocol, RsRfdProtocol, SolutionKind};
use ldp_datasets::priors::{correct_priors_scaled, IncorrectPrior};
use ldp_datasets::Dataset;
use ldp_protocols::hash::mix3;
use ldp_sim::{AttackPipeline, CollectionPipeline};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::sweep::{fig_seed, sweep};
use crate::table::{fnum, Table};
use crate::{Corpus, ExpConfig};

/// How RS+RFD priors are obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PriorSpec {
    /// "Correct": true marginals through an ε = 0.1 Laplace mechanism.
    Correct,
    /// "Incorrect": Dirichlet / Zipf / Exponential priors (Appendix E).
    Incorrect(IncorrectPrior),
}

impl PriorSpec {
    /// Short label for tables.
    pub fn name(self) -> String {
        match self {
            PriorSpec::Correct => "Correct".to_string(),
            PriorSpec::Incorrect(p) => p.name().to_string(),
        }
    }

    /// Builds per-attribute priors for `dataset`, drawn from `corpus`.
    /// "Correct" priors calibrate their Laplace noise to the corpus's
    /// *paper-scale* population (a Census release does not get noisier
    /// because an experiment subsamples its users).
    pub fn build(self, corpus: Corpus, dataset: &Dataset, rng: &mut StdRng) -> Vec<Vec<f64>> {
        match self {
            PriorSpec::Correct => {
                let reference_n = corpus.paper_n().max(dataset.n());
                correct_priors_scaled(dataset, 0.1, reference_n, rng)
            }
            PriorSpec::Incorrect(p) => p.generate_all(&dataset.schema().cardinalities(), rng),
        }
    }
}

/// Which fake-data solution is attacked.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SolutionSpec {
    /// An RS+FD variant.
    RsFd(RsFdProtocol),
    /// An RS+RFD variant with a prior source.
    RsRfd(RsRfdProtocol, PriorSpec),
}

impl SolutionSpec {
    /// Paper-style label.
    pub fn name(self) -> String {
        match self {
            SolutionSpec::RsFd(p) => p.name(),
            SolutionSpec::RsRfd(p, prior) => format!("{}({})", p.name(), prior.name()),
        }
    }
}

/// Parameters of one inference-attack sweep.
#[derive(Debug, Clone)]
pub struct AifParams {
    /// Corpus.
    pub dataset: Corpus,
    /// Solutions to attack.
    pub specs: Vec<SolutionSpec>,
    /// Attacker models with display labels (e.g. `"NK s=1"`).
    pub models: Vec<(String, AttackModel)>,
    /// ε grid.
    pub eps: Vec<f64>,
}

/// Runs the sweep and returns
/// (`solution, model, eps, aif_acc_mean, aif_acc_std, baseline`).
pub fn run(cfg: &ExpConfig, params: &AifParams, fig: &str) -> Table {
    let cells: Vec<(usize, usize, usize)> = (0..params.specs.len())
        .flat_map(|si| {
            (0..params.eps.len())
                .flat_map(move |ei| (0..params.models.len()).map(move |mi| (si, ei, mi)))
        })
        .collect();

    let outcomes = sweep(
        cfg,
        fig_seed(cfg, fig),
        &cells,
        |&(si, ei, mi), run, item_seed| {
            let eps = params.eps[ei];
            let dataset = params.dataset.build(cfg, run);
            let ks = dataset.schema().cardinalities();
            let classifier = AttackClassifier::Gbdt(cfg.attack_gbdt());
            let model = params.models[mi].1;

            // Collection: the deployed fake-data solution, streamed with the
            // item's own seed (grid items already run in parallel, so both
            // pipelines evaluate inline).
            let collection = match params.specs[si] {
                SolutionSpec::RsFd(protocol) => {
                    CollectionPipeline::from_kind(SolutionKind::RsFd(protocol), &ks, eps)
                        .expect("rsfd construction")
                }
                SolutionSpec::RsRfd(protocol, prior_spec) => {
                    let mut prior_rng = StdRng::seed_from_u64(mix3(item_seed, 0x9812, 0));
                    let priors = prior_spec.build(params.dataset, &dataset, &mut prior_rng);
                    CollectionPipeline::new(
                        SolutionKind::RsRfd(protocol)
                            .build_with_priors(&ks, eps, priors)
                            .expect("rsrfd construction"),
                    )
                }
            }
            .seed(item_seed)
            .threads(1);

            // Attack: the §3.3 inference scenario through the unified
            // pipeline — fit on the observed round, sharded ASR evaluation.
            let run = AttackPipeline::from_kind(AttackKind::SampledAttribute(InferenceConfig {
                model,
                classifier,
            }))
            .expect("inference attack kind")
            .seed(item_seed)
            .threads(1)
            .run(&collection, &dataset);
            let outcome = run.outcome.inference().expect("inference outcome");
            (outcome.aif_acc, outcome.baseline)
        },
    );

    let mut table = Table::new(
        format!("{fig}: sampled-attribute inference (AIF-ACC %)"),
        &[
            "solution",
            "model",
            "eps",
            "aif_acc_mean",
            "aif_acc_std",
            "baseline",
        ],
    );
    // Rows go solution-major, then model, then ε; the baseline is run 0's.
    let mut rows: Vec<_> = cells.iter().zip(&outcomes).collect();
    rows.sort_by_key(|&(&(si, ei, mi), _)| (si, mi, ei));
    for (&(si, ei, mi), runs) in rows {
        let ms = mean_std(&runs.iter().map(|&(acc, _)| acc).collect::<Vec<_>>());
        table.row(vec![
            params.specs[si].name(),
            params.models[mi].0.clone(),
            fnum(params.eps[ei]),
            fnum(ms.mean),
            fnum(ms.std),
            fnum(runs[0].1),
        ]);
    }
    table
}

/// The paper's nine attacker-model settings of Fig. 3 (NK / PK / HM grids).
pub fn paper_models() -> Vec<(String, AttackModel)> {
    let mut models = Vec::new();
    for s in [1.0, 3.0, 5.0] {
        models.push((
            format!("NK s={s:.0}n"),
            AttackModel::NoKnowledge { synth_factor: s },
        ));
    }
    for f in [0.1, 0.3, 0.5] {
        models.push((
            format!("PK npk={f}n"),
            AttackModel::PartialKnowledge {
                compromised_frac: f,
            },
        ));
    }
    for (s, f) in [(1.0, 0.1), (3.0, 0.3), (5.0, 0.5)] {
        models.push((
            format!("HM s={s:.0}n npk={f}n"),
            AttackModel::Hybrid {
                synth_factor: s,
                compromised_frac: f,
            },
        ));
    }
    models
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn aif_runner_sweeps_through_the_attack_pipeline() {
        let cfg = ExpConfig {
            runs: 1,
            scale: 0.01,
            threads: 2,
            seed: 7,
            out_dir: PathBuf::from("/tmp/risks-ldp-test"),
        };
        let params = AifParams {
            dataset: Corpus::Adult,
            specs: vec![
                SolutionSpec::RsFd(RsFdProtocol::Grr),
                SolutionSpec::RsRfd(RsRfdProtocol::Grr, PriorSpec::Correct),
            ],
            models: vec![(
                "NK s=1n".to_string(),
                AttackModel::NoKnowledge { synth_factor: 1.0 },
            )],
            eps: vec![4.0],
        };
        let table = run(&cfg, &params, "smoke");
        // One row per (solution, model, eps); AIF-ACC within [0, 100].
        assert_eq!(table.rows().len(), 2);
        for row in table.rows() {
            let acc: f64 = row[3].parse().unwrap();
            assert!((0.0..=100.0).contains(&acc), "AIF-ACC {acc}");
        }
    }
}
