//! Shared runner for the multidimensional frequency-estimation utility
//! sweeps (Figs. 5 and 16): empirical `MSE_avg` plus the analytic
//! approximate-variance curves.

use std::collections::BTreeMap;

use ldp_core::metrics::{mean_std, mse_avg};
use ldp_core::solutions::{RsFd, RsFdProtocol, RsRfd, RsRfdProtocol};
use ldp_datasets::Dataset;
use ldp_protocols::hash::{mix2, mix3};
use ldp_protocols::UeMode;
use ldp_sim::par::par_map;
use ldp_sim::CollectionPipeline;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::aif::{AifDataset, PriorSpec};
use crate::table::{fnum, Table};
use crate::ExpConfig;

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
    pub dataset: AifDataset,
    /// Methods to compare.
    pub methods: Vec<MseMethod>,
    /// ε grid (the paper uses ln 2 … ln 7).
    pub eps: Vec<f64>,
}

fn load(cfg: &ExpConfig, choice: AifDataset, run: u64) -> Dataset {
    match choice {
        AifDataset::Adult => cfg.adult(run),
        AifDataset::Acs => cfg.acs(run),
        AifDataset::Nursery => cfg.nursery(run),
    }
}

/// Runs the sweep; returns
/// (`method, eps, mse_mean, mse_std, analytic_var`).
///
/// `analytic_var` is the f = 0 approximate estimator variance averaged over
/// attributes and values (the paper's Fig. 16 analytic curves); for RS+RFD it
/// uses the run-0 priors.
pub fn run(cfg: &ExpConfig, params: &MseParams, fig: &str) -> Table {
    let fig_seed = mix2(
        cfg.seed,
        fig.bytes().fold(0u64, |h, b| mix2(h, u64::from(b))),
    );
    let grid: Vec<(usize, usize, u64)> = (0..params.methods.len())
        .flat_map(|mi| {
            (0..params.eps.len())
                .flat_map(move |ei| (0..cfg.runs as u64).map(move |run| (mi, ei, run)))
        })
        .collect();

    let measurements: Vec<(usize, usize, f64, f64)> = par_map(grid.len(), cfg.threads, |g| {
        let (mi, ei, run) = grid[g];
        let eps = params.eps[ei];
        let collect_seed = mix3(fig_seed, g as u64, run);
        let mut rng = StdRng::seed_from_u64(collect_seed);
        let dataset = load(cfg, params.dataset, run);
        let ks = dataset.schema().cardinalities();
        let truth = dataset.marginals();
        let n = dataset.n();

        // Each grid point is already one parallel work item, so the inner
        // pipeline streams single-threaded: sanitize → absorb, no buffering.
        let (solution, analytic) = match params.methods[mi] {
            MseMethod::RsFd(protocol) => {
                let solution = RsFd::new(protocol, &ks, eps).expect("rsfd construction");
                let analytic = (0..ks.len())
                    .map(|j| solution.approx_variance(j, n))
                    .sum::<f64>()
                    / ks.len() as f64;
                (solution.into(), analytic)
            }
            MseMethod::RsRfd(protocol, prior_spec) => {
                let priors = prior_spec.build(&dataset, &mut rng);
                let solution = RsRfd::new(protocol, &ks, eps, priors).expect("rsrfd construction");
                let analytic = (0..ks.len())
                    .map(|j| solution.approx_variance_avg(j, n))
                    .sum::<f64>()
                    / ks.len() as f64;
                (solution.into(), analytic)
            }
        };
        let out = CollectionPipeline::new(solution)
            .seed(collect_seed)
            .threads(1)
            .run(&dataset);
        (mi, ei, mse_avg(&truth, &out.estimates), analytic)
    });

    let mut buckets: BTreeMap<(usize, usize), (Vec<f64>, f64)> = BTreeMap::new();
    for (mi, ei, mse, analytic) in measurements {
        let e = buckets.entry((mi, ei)).or_insert((Vec::new(), analytic));
        e.0.push(mse);
    }

    let mut table = Table::new(
        format!("{fig}: multidimensional frequency estimation (MSE_avg)"),
        &["method", "eps", "mse_mean", "mse_std", "analytic_var"],
    );
    for ((mi, ei), (mses, analytic)) in buckets {
        let ms = mean_std(&mses);
        table.row(vec![
            params.methods[mi].name(),
            fnum(params.eps[ei]),
            fnum(ms.mean),
            fnum(ms.std),
            fnum(analytic),
        ]);
    }
    table
}
