//! Fig. 16 (Appendix E): analytical (approximate variance) and experimental
//! (averaged MSE) utility on Adult for RS+RFD vs RS+FD under "Correct" and
//! the three "Incorrect" prior families (DIR / ZIPF / EXP).

use ldp_datasets::priors::IncorrectPrior;

use crate::aif::PriorSpec;
use crate::mse::{rsrfd_vs_rsfd, MseParams};
use crate::table::Table;
use crate::{eps_ln_grid, Corpus, ExpConfig};

/// Runs the figure: one table per prior family, in the order of the
/// `fig16_<prior>.csv` outputs. The `analytic_var` column carries the
/// paper's analytical curves.
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let priors = [
        ("correct", PriorSpec::Correct),
        ("dir", PriorSpec::Incorrect(IncorrectPrior::Dirichlet)),
        ("zipf", PriorSpec::Incorrect(IncorrectPrior::Zipf)),
        ("exp", PriorSpec::Incorrect(IncorrectPrior::Exp)),
    ];
    priors
        .into_iter()
        .map(|(label, prior)| {
            let params = MseParams {
                dataset: Corpus::Adult,
                methods: rsrfd_vs_rsfd(prior),
                eps: eps_ln_grid(),
            };
            crate::mse::run(
                cfg,
                &params,
                &format!("Fig 16 (Adult, {label} priors, analytic + experimental)"),
            )
        })
        .collect()
}
