//! The experiment table: every figure, table and ablation of the
//! reproduction is one [`Experiment`] row of [`EXPERIMENTS`] — its id, paper
//! reference, datasets, CSV outputs, cost estimate and run function.
//!
//! The `risks` CLI binary reads the rows (`risks list` / `risks describe` /
//! `risks run`), and [`crate::runner`] schedules selected rows across
//! threads, cost-sorted longest-first, pairing each returned table with the
//! row's `outputs` and writing one JSON manifest per run. Adding an
//! experiment is writing its run function and adding one row.
//!
//! ```
//! use ldp_experiments::registry::Experiment;
//! use ldp_experiments::ExpConfig;
//!
//! let exp = Experiment::from_id("fig01").unwrap();
//! assert_eq!(exp.paper_ref, "§3.2.3, Fig. 1");
//!
//! // Fig. 1 is analytical (no simulation), so it is cheap enough to run in
//! // a doctest; heavier experiments go through `risks run`.
//! let cfg = ExpConfig {
//!     runs: 1,
//!     scale: 0.01,
//!     threads: 1,
//!     seed: 42,
//!     out_dir: std::env::temp_dir().join("risks_doctest"),
//! };
//! let tables = (exp.run)(&cfg);
//! assert_eq!(tables.len(), exp.outputs.len());
//! assert!(!tables[0].is_empty());
//! ```

use ldp_core::inference::AttackModel;
use ldp_core::solutions::{RsFdProtocol, RsRfdProtocol};
use ldp_datasets::priors::IncorrectPrior::{Dirichlet, Exp, Zipf};
use ldp_protocols::ProtocolKind;
use ldp_sim::SamplingSetting;

use crate::aif::{self, AifParams, PriorSpec, SolutionSpec};
use crate::smp_reident::{self, Background, SmpReidentParams, XAxis};
use crate::table::Table;
use crate::{beta_grid, eps_grid, Corpus, ExpConfig};

/// One experiment of the reproduction.
#[derive(Debug)]
pub struct Experiment {
    /// Stable identifier (`"fig04"`, `"ablation_topk"`); the `risks` CLI and
    /// the manifests key on it.
    pub id: &'static str,
    /// One-line description of what the experiment measures.
    pub title: &'static str,
    /// Where in the paper the reproduced figure/table lives.
    pub paper_ref: &'static str,
    /// The datasets the experiment simulates (empty for analytical plots).
    pub datasets: &'static [&'static str],
    /// CSV files a successful run produces, one per returned table, in order.
    pub outputs: &'static [&'static str],
    /// Rough single-core seconds at the default scale (runs = 3,
    /// scale = 0.15); only the *ordering* matters to the scheduler, which
    /// runs the most expensive experiments first.
    pub cost: f64,
    /// Runs the experiment and returns its tables, in `outputs` order.
    pub run: fn(&ExpConfig) -> Vec<Table>,
}

/// Rows are the same experiment when their ids are.
impl PartialEq for Experiment {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl Experiment {
    /// Looks an experiment up by its identifier.
    pub fn from_id(id: &str) -> Option<&'static Experiment> {
        EXPERIMENTS.iter().find(|e| e.id == id)
    }

    /// Stable multi-line description used by `risks describe` (and asserted
    /// stable by the registry tests).
    pub fn describe(&self) -> String {
        let datasets = if self.datasets.is_empty() {
            "none (analytical)".to_string()
        } else {
            self.datasets.join(", ")
        };
        format!(
            "{id}: {title}\n  paper:    {paper}\n  datasets: {datasets}\n  \
             outputs:  {outputs}\n  est. cost: {cost} (default scale) / {full} (RISKS_FULL=1)\n",
            id = self.id,
            title = self.title,
            paper = self.paper_ref,
            outputs = self.outputs.join(", "),
            cost = human_secs(self.cost),
            full = human_secs(self.full_cost()),
        )
    }

    /// The cost estimate of a `RISKS_FULL=1` run: runs 3→20 and n 0.15→1.0
    /// compound to ~60×, while analytical figures are flat.
    fn full_cost(&self) -> f64 {
        if self.datasets.is_empty() {
            self.cost
        } else {
            self.cost * 60.0
        }
    }
}

/// An SMP re-identification sweep over every protocol after 5 surveys
/// (Figs. 2 and 9–13). The paper plots GRR / SUE / OLH / OUE and notes
/// ω-SS ≈ GRR; ω-SS is included explicitly.
fn smp(
    cfg: &ExpConfig,
    dataset: Corpus,
    xaxis: XAxis,
    setting: SamplingSetting,
    background: Background,
    label: &str,
) -> Table {
    let params = SmpReidentParams {
        dataset,
        kinds: ProtocolKind::ALL.to_vec(),
        xaxis,
        setting,
        background,
        n_surveys: 5,
    };
    smp_reident::run(cfg, &params, label)
}

/// The FK-RI and PK-RI sweeps on Adult under one privacy metric
/// (Figs. 11–13).
fn fk_pk(cfg: &ExpConfig, xaxis: XAxis, setting: SamplingSetting, labels: [&str; 2]) -> Vec<Table> {
    [Background::Full, Background::Partial]
        .into_iter()
        .zip(labels)
        .map(|(bg, label)| smp(cfg, Corpus::Adult, xaxis.clone(), setting, bg, label))
        .collect()
}

/// A sampled-attribute inference sweep over the paper's ε grid
/// (Figs. 3, 6, 14, 15 and 17).
fn aif_sweep(
    cfg: &ExpConfig,
    dataset: Corpus,
    specs: Vec<SolutionSpec>,
    models: Vec<(String, AttackModel)>,
    label: &str,
) -> Vec<Table> {
    let params = AifParams {
        dataset,
        specs,
        models,
        eps: eps_grid(),
    };
    vec![aif::run(cfg, &params, label)]
}

/// Figs. 3, 14 and 15: every RS+FD protocol against the paper's nine
/// attacker models.
fn rsfd_aif(cfg: &ExpConfig, dataset: Corpus, label: &str) -> Vec<Table> {
    let specs = RsFdProtocol::ALL.map(SolutionSpec::RsFd).to_vec();
    aif_sweep(cfg, dataset, specs, aif::paper_models(), label)
}

/// Every experiment, in presentation order: the paper's 15 figures (it
/// numbers its plots 1–17, with 7–8 being diagrams), the two DESIGN.md
/// ablations and four extensions.
pub static EXPERIMENTS: [Experiment; 21] = [
    Experiment {
        id: "fig01",
        title: "analytical expected attacker ACC over multiple collections",
        paper_ref: "§3.2.3, Fig. 1",
        datasets: &[],
        outputs: &["fig01.csv"],
        cost: 0.1,
        run: crate::fig01::run,
    },
    Experiment {
        id: "fig02",
        title: "RID-ACC on Adult (SMP, FK-RI, uniform eps-LDP)",
        paper_ref: "§4.2, Fig. 2",
        datasets: &["Adult"],
        outputs: &["fig02.csv"],
        cost: 150.0,
        run: |cfg| {
            vec![smp(
                cfg,
                Corpus::Adult,
                XAxis::Epsilon(eps_grid()),
                SamplingSetting::Uniform,
                Background::Full,
                "Fig 2 (Adult, FK-RI, uniform eps-LDP)",
            )]
        },
    },
    Experiment {
        id: "fig03",
        title: "AIF-ACC on ACSEmployment vs RS+FD (NK/PK/HM)",
        paper_ref: "§4.2, Fig. 3",
        datasets: &["ACSEmployment"],
        outputs: &["fig03.csv"],
        cost: 120.0,
        run: |cfg| rsfd_aif(cfg, Corpus::Acs, "Fig 3 (ACSEmployment, RS+FD)"),
    },
    Experiment {
        id: "fig04",
        title: "RID-ACC on Adult vs RS+FD[GRR] (chained attack)",
        paper_ref: "§4.2, Fig. 4",
        datasets: &["Adult"],
        outputs: &["fig04.csv"],
        cost: 200.0,
        run: crate::fig04::run,
    },
    Experiment {
        id: "fig05",
        title: "averaged MSE on ACSEmployment (RS+RFD vs RS+FD)",
        paper_ref: "§5.2.2, Fig. 5",
        datasets: &["ACSEmployment"],
        outputs: &["fig05_correct.csv", "fig05_incorrect.csv"],
        cost: 60.0,
        run: crate::fig05::run,
    },
    Experiment {
        id: "fig06",
        title: "AIF-ACC on ACSEmployment vs RS+RFD (correct priors)",
        paper_ref: "§5.2.3, Fig. 6",
        datasets: &["ACSEmployment"],
        outputs: &["fig06.csv"],
        cost: 100.0,
        run: |cfg| {
            let specs = RsRfdProtocol::ALL.map(|p| SolutionSpec::RsRfd(p, PriorSpec::Correct));
            aif_sweep(
                cfg,
                Corpus::Acs,
                specs.to_vec(),
                aif::paper_models(),
                "Fig 6 (ACSEmployment, RS+RFD, correct priors)",
            )
        },
    },
    Experiment {
        id: "fig09",
        title: "RID-ACC on ACSEmployment (SMP, FK-RI)",
        paper_ref: "Appendix C, Fig. 9",
        datasets: &["ACSEmployment"],
        outputs: &["fig09.csv"],
        cost: 130.0,
        run: |cfg| {
            vec![smp(
                cfg,
                Corpus::Acs,
                XAxis::Epsilon(eps_grid()),
                SamplingSetting::Uniform,
                Background::Full,
                "Fig 9 (ACSEmployment, FK-RI, uniform eps-LDP)",
            )]
        },
    },
    Experiment {
        id: "fig10",
        title: "RID-ACC on Adult (SMP, PK-RI)",
        paper_ref: "Appendix C, Fig. 10",
        datasets: &["Adult"],
        outputs: &["fig10.csv"],
        cost: 140.0,
        run: |cfg| {
            vec![smp(
                cfg,
                Corpus::Adult,
                XAxis::Epsilon(eps_grid()),
                SamplingSetting::Uniform,
                Background::Partial,
                "Fig 10 (Adult, PK-RI, uniform eps-LDP)",
            )]
        },
    },
    Experiment {
        id: "fig11",
        title: "RID-ACC on Adult (non-uniform eps-LDP metric)",
        paper_ref: "Appendix C, Fig. 11",
        datasets: &["Adult"],
        outputs: &["fig11_fk.csv", "fig11_pk.csv"],
        cost: 280.0,
        run: |cfg| {
            fk_pk(
                cfg,
                XAxis::Epsilon(eps_grid()),
                SamplingSetting::NonUniform,
                [
                    "Fig 11 FK-RI (Adult, non-uniform eps-LDP)",
                    "Fig 11 PK-RI (Adult, non-uniform eps-LDP)",
                ],
            )
        },
    },
    Experiment {
        id: "fig12",
        title: "RID-ACC on Adult (alpha-PIE, uniform sampling)",
        paper_ref: "Appendix C, Fig. 12",
        datasets: &["Adult"],
        outputs: &["fig12_fk.csv", "fig12_pk.csv"],
        cost: 260.0,
        run: |cfg| {
            fk_pk(
                cfg,
                XAxis::Beta(beta_grid()),
                SamplingSetting::Uniform,
                [
                    "Fig 12 FK-RI (Adult, uniform alpha-PIE)",
                    "Fig 12 PK-RI (Adult, uniform alpha-PIE)",
                ],
            )
        },
    },
    Experiment {
        id: "fig13",
        title: "RID-ACC on Adult (alpha-PIE, non-uniform sampling)",
        paper_ref: "Appendix C, Fig. 13",
        datasets: &["Adult"],
        outputs: &["fig13_fk.csv", "fig13_pk.csv"],
        cost: 260.0,
        run: |cfg| {
            fk_pk(
                cfg,
                XAxis::Beta(beta_grid()),
                SamplingSetting::NonUniform,
                [
                    "Fig 13 FK-RI (Adult, non-uniform alpha-PIE)",
                    "Fig 13 PK-RI (Adult, non-uniform alpha-PIE)",
                ],
            )
        },
    },
    Experiment {
        id: "fig14",
        title: "AIF-ACC on Adult vs RS+FD (NK/PK/HM)",
        paper_ref: "Appendix D, Fig. 14",
        datasets: &["Adult"],
        outputs: &["fig14.csv"],
        cost: 110.0,
        run: |cfg| rsfd_aif(cfg, Corpus::Adult, "Fig 14 (Adult, RS+FD)"),
    },
    Experiment {
        id: "fig15",
        title: "AIF-ACC on Nursery (negative control)",
        paper_ref: "Appendix D, Fig. 15",
        datasets: &["Nursery"],
        outputs: &["fig15.csv"],
        cost: 90.0,
        // Uniform-like marginals make uniform fake data indistinguishable,
        // so only RS+FD[UE-z] should leak.
        run: |cfg| rsfd_aif(cfg, Corpus::Nursery, "Fig 15 (Nursery, RS+FD)"),
    },
    Experiment {
        id: "fig16",
        title: "analytical + experimental utility on Adult (four priors)",
        paper_ref: "Appendix E, Fig. 16",
        datasets: &["Adult"],
        outputs: &[
            "fig16_correct.csv",
            "fig16_dir.csv",
            "fig16_zipf.csv",
            "fig16_exp.csv",
        ],
        cost: 120.0,
        run: crate::fig16::run,
    },
    Experiment {
        id: "fig17",
        title: "AIF-ACC on ACSEmployment vs RS+RFD (incorrect priors)",
        paper_ref: "Appendix E, Fig. 17",
        datasets: &["ACSEmployment"],
        outputs: &["fig17.csv"],
        cost: 100.0,
        // RS+RFD under each incorrect prior family, NK models only.
        run: |cfg| {
            let priors = [Dirichlet, Zipf, Exp].map(PriorSpec::Incorrect);
            let specs = priors
                .iter()
                .flat_map(|&prior| RsRfdProtocol::ALL.map(|p| SolutionSpec::RsRfd(p, prior)))
                .collect();
            let nk = aif::paper_models()
                .into_iter()
                .filter(|(_, model)| matches!(model, AttackModel::NoKnowledge { .. }))
                .collect();
            aif_sweep(
                cfg,
                Corpus::Acs,
                specs,
                nk,
                "Fig 17 (ACSEmployment, RS+RFD, incorrect priors)",
            )
        },
    },
    Experiment {
        id: "ablation_classifier",
        title: "inference-attack classifier family ablation",
        paper_ref: "DESIGN.md ablation (Fig. 3 setting)",
        datasets: &["ACSEmployment"],
        outputs: &["ablation_classifier.csv"],
        cost: 70.0,
        run: crate::ablation::run_classifier,
    },
    Experiment {
        id: "ablation_topk",
        title: "re-identification top-k sensitivity ablation",
        paper_ref: "DESIGN.md ablation (Fig. 2 setting)",
        datasets: &["Adult"],
        outputs: &["ablation_topk.csv"],
        cost: 80.0,
        run: crate::ablation::run_topk,
    },
    Experiment {
        id: "numeric_mse",
        title: "mean-estimation MSE of Duchi/PM/HM in a mixed k-of-d collection",
        paper_ref: "extension (§7 outlook): numeric utility",
        datasets: &["MixedSurvey"],
        outputs: &["numeric_mse.csv"],
        cost: 40.0,
        run: crate::numeric::run_mse,
    },
    Experiment {
        id: "numeric_risk",
        title: "NUM-VRI value-range inference accuracy vs the numeric mechanisms",
        paper_ref: "extension (§7 outlook): numeric risk",
        datasets: &["MixedSurvey"],
        outputs: &["numeric_risk.csv"],
        cost: 85.0,
        run: crate::numeric::run_risk,
    },
    Experiment {
        id: "longitudinal_risk",
        title: "averaging-attack ASR vs rounds: eps-splitting vs memoization",
        paper_ref: "extension (§7 outlook): longitudinal risk",
        datasets: &["Adult"],
        outputs: &["longitudinal_risk.csv"],
        cost: 180.0,
        run: crate::longitudinal::run_risk,
    },
    Experiment {
        id: "longitudinal_mse",
        title: "averaged-estimator MSE vs rounds: eps-splitting vs memoization",
        paper_ref: "extension (§7 outlook): longitudinal utility",
        datasets: &["Adult"],
        outputs: &["longitudinal_mse.csv"],
        cost: 50.0,
        run: crate::longitudinal::run_mse,
    },
];

/// Formats a duration estimate for humans: `~8 s`, `~3 min`, `~2.5 h`.
pub fn human_secs(secs: f64) -> String {
    if secs < 1.0 {
        "<1 s".to_string()
    } else if secs < 90.0 {
        format!("~{} s", secs.round() as u64)
    } else if secs < 5400.0 {
        format!("~{} min", (secs / 60.0).round() as u64)
    } else {
        format!("~{:.1} h", secs / 3600.0)
    }
}

/// The README reproduction matrix, generated from the registry so the docs
/// cannot drift from the code (`risks list --markdown` prints exactly this;
/// the registry tests assert README.md embeds it verbatim).
pub fn markdown_matrix() -> String {
    let mut out = String::new();
    out.push_str("| id | reproduces | datasets | command | est. default | est. `RISKS_FULL=1` |\n");
    out.push_str("|---|---|---|---|---|---|\n");
    for exp in &EXPERIMENTS {
        let datasets = if exp.datasets.is_empty() {
            "—".to_string()
        } else {
            exp.datasets.join(", ")
        };
        out.push_str(&format!(
            "| `{id}` | {paper} | {datasets} | `risks run {id}` | {cost} | {full} |\n",
            id = exp.id,
            paper = exp.paper_ref,
            cost = human_secs(exp.cost),
            full = human_secs(exp.full_cost()),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_secs_ranges() {
        assert_eq!(human_secs(0.1), "<1 s");
        assert_eq!(human_secs(8.0), "~8 s");
        assert_eq!(human_secs(180.0), "~3 min");
        assert_eq!(human_secs(9000.0), "~2.5 h");
    }

    #[test]
    fn matrix_has_one_row_per_experiment() {
        let matrix = markdown_matrix();
        // Header + separator + one row per experiment.
        assert_eq!(matrix.lines().count(), 2 + EXPERIMENTS.len());
        for exp in &EXPERIMENTS {
            assert!(matrix.contains(&format!("`risks run {}`", exp.id)));
        }
    }
}
