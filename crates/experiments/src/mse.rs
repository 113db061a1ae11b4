//! Shared runner for the multidimensional frequency-estimation utility
//! sweeps (Figs. 5 and 16): empirical `MSE_avg` plus the analytic
//! approximate-variance curves.

use ldp_core::metrics::{mean_std, mse_avg};
use ldp_core::solutions::{RsFd, RsFdProtocol, RsRfdProtocol};
use ldp_protocols::UeMode;
use ldp_sim::CollectionPipeline;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::aif::PriorSpec;
use crate::sweep::{fig_seed, sweep};
use crate::table::{fnum, Table};
use crate::{Corpus, ExpConfig};

/// One estimation method under comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MseMethod {
    /// RS+FD with uniform fake data.
    RsFd(RsFdProtocol),
    /// RS+RFD with prior-driven fake data.
    RsRfd(RsRfdProtocol, PriorSpec),
}

/// The methods Figs. 5 and 16 compare under one RS+RFD prior: RS+RFD
/// against RS+FD for GRR and both UE-r modes.
pub fn rsrfd_vs_rsfd(prior: PriorSpec) -> Vec<MseMethod> {
    vec![
        MseMethod::RsRfd(RsRfdProtocol::Grr, prior),
        MseMethod::RsRfd(RsRfdProtocol::UeR(UeMode::Symmetric), prior),
        MseMethod::RsRfd(RsRfdProtocol::UeR(UeMode::Optimized), prior),
        MseMethod::RsFd(RsFdProtocol::Grr),
        MseMethod::RsFd(RsFdProtocol::UeR(UeMode::Symmetric)),
        MseMethod::RsFd(RsFdProtocol::UeR(UeMode::Optimized)),
    ]
}

impl MseMethod {
    /// Paper-style label.
    pub fn name(self) -> String {
        match self {
            MseMethod::RsFd(p) => p.name(),
            MseMethod::RsRfd(p, prior) => format!("{}({})", p.name(), prior.name()),
        }
    }
}

/// Parameters of one utility sweep.
#[derive(Debug, Clone)]
pub struct MseParams {
    /// Corpus.
    pub dataset: Corpus,
    /// Methods to compare.
    pub methods: Vec<MseMethod>,
    /// ε grid (the paper uses ln 2 … ln 7).
    pub eps: Vec<f64>,
}

/// Runs the sweep; returns
/// (`method, eps, mse_mean, mse_std, analytic_var`).
///
/// `analytic_var` is the f = 0 approximate estimator variance averaged over
/// attributes and values (the paper's Fig. 16 analytic curves); for RS+RFD it
/// uses the run-0 priors.
pub fn run(cfg: &ExpConfig, params: &MseParams, fig: &str) -> Table {
    let cells: Vec<(MseMethod, f64)> = params
        .methods
        .iter()
        .flat_map(|&method| params.eps.iter().map(move |&eps| (method, eps)))
        .collect();

    let measurements = sweep(
        cfg,
        fig_seed(cfg, fig),
        &cells,
        |&(method, eps), run, seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let dataset = params.dataset.build(cfg, run);
            let ks = dataset.schema().cardinalities();
            let truth = dataset.marginals();
            let n = dataset.n();

            // Each grid point is already one parallel work item, so the inner
            // pipeline streams single-threaded: sanitize → absorb, no buffering.
            let solution = match method {
                MseMethod::RsFd(protocol) => RsFd::new(protocol, &ks, eps),
                MseMethod::RsRfd(protocol, prior_spec) => {
                    let priors = prior_spec.build(params.dataset, &dataset, &mut rng);
                    RsFd::with_priors(protocol, &ks, eps, priors)
                }
            }
            .expect("fake-data solution construction");
            let analytic = (0..ks.len())
                .map(|j| solution.approx_variance(j, n))
                .sum::<f64>()
                / ks.len() as f64;
            let out = CollectionPipeline::new(solution.into())
                .seed(seed)
                .threads(1)
                .run(&dataset);
            (mse_avg(&truth, &out.estimates), analytic)
        },
    );

    let mut table = Table::new(
        format!("{fig}: multidimensional frequency estimation (MSE_avg)"),
        &["method", "eps", "mse_mean", "mse_std", "analytic_var"],
    );
    for (&(method, eps), runs) in cells.iter().zip(&measurements) {
        let ms = mean_std(&runs.iter().map(|&(mse, _)| mse).collect::<Vec<_>>());
        table.row(vec![
            method.name(),
            fnum(eps),
            fnum(ms.mean),
            fnum(ms.std),
            fnum(runs[0].1),
        ]);
    }
    table
}
