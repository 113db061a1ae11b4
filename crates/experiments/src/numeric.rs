//! Numeric-dimension extension experiments (beyond the paper's categorical
//! evaluation): utility and risk of the Duchi / Piecewise / Hybrid
//! mechanisms when continuous attributes ride along a mixed sample-k-of-d
//! collection.
//!
//! * `numeric_mse` — empirical MSE of the per-attribute mean estimate vs ε,
//!   next to the closed-form prediction assembled from each mechanism's
//!   `Var[y | t]` plus the k-of-d sub-sampling variance.
//! * `numeric_risk` — NUM-VRI (value-range inference) attacker accuracy vs
//!   ε against every mechanism, with the population-prior baseline.

use ldp_core::attacks::{AttackKind, NumericConfig};
use ldp_core::metrics::mean_std;
use ldp_core::solutions::{MixedKind, SolutionKind};
use ldp_core::{NumericKind, NumericOracle};
use ldp_datasets::MixedDataset;
use ldp_protocols::hash::mix2;
use ldp_protocols::ProtocolKind;
use ldp_sim::{AttackPipeline, CollectionPipeline};

use crate::sweep::sweep;
use crate::table::{fnum, Table};
use crate::ExpConfig;

/// Numeric mechanisms under comparison, in presentation order.
const MECHANISMS: [NumericKind; 3] = [
    NumericKind::Duchi,
    NumericKind::Piecewise,
    NumericKind::Hybrid,
];

/// Per-user attribute budget of the mixed rounds: ε splits over `SAMPLE_K`
/// sampled dimensions, the paper's SPL/SMP trade-off carried over to the
/// heterogeneous schema.
const SAMPLE_K: usize = 2;

/// Buckets of the value-range inference decision (equal width over
/// `[-1, 1]`; 4 keeps the prior baseline well below 100% on MixedSurvey).
const RISK_BUCKETS: usize = 4;

fn mixed_solution(mixed: &MixedDataset, mech: NumericKind, eps: f64) -> ldp_core::DynSolution {
    SolutionKind::Mixed(MixedKind {
        protocol: ProtocolKind::Grr,
        numeric: mech,
        sample_k: SAMPLE_K,
    })
    .build(&mixed.ks(), eps)
    .expect("mixed solution construction")
}

/// Closed-form prediction of the squared error of one numeric dimension's
/// mean estimate under the k-of-d mixed collection.
///
/// Each of the ≈ `n·k/d` users reporting dimension `j` contributes an
/// unbiased report with mechanism variance `Var[y | tᵢ]` at the split
/// budget ε/k; on top, the reporting users are a without-replacement
/// subsample of the population, adding `(1 − k/d)·Var_pop(t)` per report.
fn analytic_mean_mse(mixed: &MixedDataset, j: usize, mech: NumericKind, eps: f64) -> f64 {
    let oracle = mech
        .build(eps / SAMPLE_K as f64)
        .expect("numeric oracle construction");
    let n = mixed.n() as f64;
    let mech_var = (0..mixed.n())
        .map(|i| oracle.variance(mixed.num_value(i, j)))
        .sum::<f64>()
        / n;
    let mean = mixed.numeric_mean(j);
    let pop_var = (0..mixed.n())
        .map(|i| (mixed.num_value(i, j) - mean).powi(2))
        .sum::<f64>()
        / n;
    let frac = SAMPLE_K as f64 / mixed.d() as f64;
    (mech_var + (1.0 - frac) * pop_var) / (n * frac)
}

/// Every (mechanism, ε) cell of the paper's ε grid, mechanism-major.
fn mechanism_cells() -> Vec<(NumericKind, f64)> {
    MECHANISMS
        .into_iter()
        .flat_map(|mech| crate::eps_grid().into_iter().map(move |eps| (mech, eps)))
        .collect()
}

/// Runs the utility sweep: one table, written as `numeric_mse.csv`, of
/// `(mechanism, eps, mse_mean, mse_std, analytic_var)` rows where the MSE
/// averages the squared mean-estimate error over the numeric attributes.
pub fn run_mse(cfg: &ExpConfig) -> Vec<Table> {
    let fig_seed = mix2(cfg.seed, 0x4E55_4D4D_5345); // "NUMMSE"
    let cells = mechanism_cells();
    let measurements = sweep(cfg, fig_seed, &cells, |&(mech, eps), run, seed| {
        let mixed = cfg.mixed_survey(run);
        let out = CollectionPipeline::new(mixed_solution(&mixed, mech, eps))
            .seed(seed)
            .threads(1)
            .run(&mixed);
        let d_cat = mixed.d_cat();
        let mse = (0..mixed.d_num())
            .map(|j| (out.estimates[d_cat + j][0] - mixed.numeric_mean(j)).powi(2))
            .sum::<f64>()
            / mixed.d_num() as f64;
        let analytic = (0..mixed.d_num())
            .map(|j| analytic_mean_mse(&mixed, j, mech, eps))
            .sum::<f64>()
            / mixed.d_num() as f64;
        (mse, analytic)
    });

    let mut table = Table::new(
        "numeric_mse: mean-estimation MSE of numeric mechanisms (mixed k-of-d collection)",
        &["mechanism", "eps", "mse_mean", "mse_std", "analytic_var"],
    );
    for (&(mech, eps), runs) in cells.iter().zip(&measurements) {
        let ms = mean_std(&runs.iter().map(|&(mse, _)| mse).collect::<Vec<_>>());
        table.row(vec![
            mech.name().to_string(),
            fnum(eps),
            fnum(ms.mean),
            fnum(ms.std),
            fnum(runs.iter().map(|&(_, analytic)| analytic).sum::<f64>() / runs.len() as f64),
        ]);
    }
    vec![table]
}

/// Runs the risk sweep: one table, written as `numeric_risk.csv`, of
/// `(mechanism, eps, acc_mean, acc_std, baseline, lift)` rows — NUM-VRI
/// accuracy (%) on the first numeric attribute against every mechanism,
/// next to the population-prior baseline it must beat.
pub fn run_risk(cfg: &ExpConfig) -> Vec<Table> {
    let fig_seed = mix2(cfg.seed, 0x4E55_4D52_4953); // "NUMRIS"
    let cells = mechanism_cells();
    let measurements = sweep(cfg, fig_seed, &cells, |&(mech, eps), run, seed| {
        let mixed = cfg.mixed_survey(run);
        let collection = CollectionPipeline::new(mixed_solution(&mixed, mech, eps))
            .seed(seed)
            .threads(1);
        let attack = AttackPipeline::from_kind(AttackKind::NumericValueRange(NumericConfig {
            dim: mixed.d_cat(),
            buckets: RISK_BUCKETS,
        }))
        .expect("numeric attack construction")
        .seed(seed)
        .threads(1);
        let run = attack.run(&collection, &mixed);
        let outcome = run.outcome.numeric().expect("numeric outcome");
        (outcome.acc, outcome.baseline)
    });

    let mut table = Table::new(
        "numeric_risk: NUM-VRI attacker accuracy vs numeric mechanisms",
        &[
            "mechanism",
            "eps",
            "acc_mean",
            "acc_std",
            "baseline",
            "lift",
        ],
    );
    for (&(mech, eps), runs) in cells.iter().zip(&measurements) {
        let ms = mean_std(&runs.iter().map(|&(acc, _)| acc).collect::<Vec<_>>());
        let baseline = runs.iter().map(|&(_, b)| b).sum::<f64>() / runs.len() as f64;
        table.row(vec![
            mech.name().to_string(),
            fnum(eps),
            fnum(ms.mean),
            fnum(ms.std),
            fnum(baseline),
            fnum(ms.mean - baseline),
        ]);
    }
    vec![table]
}
