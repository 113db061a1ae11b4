//! Fig. 5: averaged MSE of multidimensional frequency estimation on
//! ACSEmployment — RS+RFD vs RS+FD with "Correct" and "Incorrect"
//! (Dirichlet) priors, ε ∈ {ln 2, …, ln 7}.

use ldp_datasets::priors::IncorrectPrior;

use crate::aif::PriorSpec;
use crate::mse::{rsrfd_vs_rsfd, MseParams};
use crate::table::Table;
use crate::{eps_ln_grid, Corpus, ExpConfig};

/// Runs the figure: the correct-prior table, then the incorrect-prior one
/// (`fig05_correct.csv`, `fig05_incorrect.csv`).
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let correct = MseParams {
        dataset: Corpus::Acs,
        methods: rsrfd_vs_rsfd(PriorSpec::Correct),
        eps: eps_ln_grid(),
    };
    let t_correct = crate::mse::run(cfg, &correct, "Fig 5a (ACSEmployment, correct priors)");

    let incorrect = MseParams {
        dataset: Corpus::Acs,
        methods: rsrfd_vs_rsfd(PriorSpec::Incorrect(IncorrectPrior::Dirichlet)),
        eps: eps_ln_grid(),
    };
    let t_incorrect = crate::mse::run(
        cfg,
        &incorrect,
        "Fig 5b (ACSEmployment, incorrect DIR priors)",
    );
    vec![t_correct, t_incorrect]
}
