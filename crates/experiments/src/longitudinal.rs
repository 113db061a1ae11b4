//! Longitudinal collection experiments (extension, §7 outlook): what `R`
//! repeated collections of the same population cost under the two budget
//! policies.
//!
//! * [`run_risk`] — `longitudinal_risk`: the averaging adversary's ASR as a
//!   function of the round count. Under naive ε-splitting every round leaks
//!   a fresh ε/R view (a sampling solution discloses a different attribute
//!   each round — coverage `≈ d(1−(1−1/d)^R)`), so the pooled
//!   re-identification risk **rises** with `R`; under RAPPOR-style
//!   memoization each round replays the round-0 report and the curve is
//!   exactly flat.
//! * [`run_mse`] — `longitudinal_mse`: the analyst's utility mirror. The
//!   natural longitudinal estimator averages the per-round estimates;
//!   ε-splitting pays GRR variance at ε/R (which grows much faster than the
//!   `1/R` averaging gain buys back), memoization keeps the full-ε
//!   single-round error on every round.

use ldp_core::attacks::{AttackKind, AveragingConfig, ReidentConfig};
use ldp_core::metrics::{mean_std, mse_avg};
use ldp_core::solutions::SolutionKind;
use ldp_protocols::hash::mix3;
use ldp_protocols::ProtocolKind;
use ldp_sim::{AttackPipeline, BudgetPolicy, CollectionPipeline};

use crate::sweep::{fig_seed, sweep};
use crate::table::{fnum, Table};
use crate::{Corpus, ExpConfig, TOP_KS};

/// Round counts both longitudinal sweeps evaluate.
pub const ROUNDS_GRID: [usize; 4] = [1, 2, 4, 8];

/// Total privacy budget of the campaign. High on purpose: the risk sweep
/// wants each ε/R round to still carry signal, so the attribute-coverage
/// growth of fresh-randomness sampling — not per-round noise — dominates
/// the ε-splitting curve.
const RISK_EPSILON: f64 = 32.0;

/// Total budget of the utility sweep (mid-grid, where splitting visibly
/// hurts without drowning every round in noise).
const MSE_EPSILON: f64 = 4.0;

/// The (policy, rounds) cells of both sweeps, measured by `measure(policy,
/// rounds, run, item_seed)` and returned in row order: policies by id, then
/// round counts.
///
/// Item seeds are derived from `(policy, run)` but **not** from `rounds`:
/// round counts of the same campaign share users and randomness streams,
/// which makes the R-axis a paired comparison — memoization is exactly flat
/// per run, and the ε-splitting curve is not blurred by re-drawing the
/// population at every R.
fn policy_sweep<T: Send>(
    cfg: &ExpConfig,
    label: &str,
    measure: impl Fn(BudgetPolicy, usize, u64, u64) -> T + Sync,
) -> Vec<((BudgetPolicy, usize), Vec<T>)> {
    let fig_seed = fig_seed(cfg, label);
    let cells: Vec<(u64, BudgetPolicy, usize)> = (0u64..)
        .zip(BudgetPolicy::ALL)
        .flat_map(|(p, policy)| ROUNDS_GRID.map(|rounds| (p, policy, rounds)))
        .collect();
    let runs = sweep(cfg, fig_seed, &cells, |&(p, policy, rounds), run, _| {
        measure(policy, rounds, run, mix3(fig_seed, p, run))
    });
    let mut rows: Vec<_> = cells
        .iter()
        .map(|&(_, policy, rounds)| (policy, rounds))
        .zip(runs)
        .collect();
    rows.sort_by_key(|&((policy, rounds), _)| (policy.id(), rounds));
    rows
}

/// `longitudinal_risk`: averaging-attack ASR vs round count, per budget
/// policy (`policy, rounds, top_k, asr_mean, asr_std, baseline`).
pub fn run_risk(cfg: &ExpConfig) -> Vec<Table> {
    let rows = policy_sweep(
        cfg,
        "longitudinal_risk",
        |policy, rounds, run, item_seed| {
            let dataset = Corpus::Adult.build(cfg, run);
            let ks = dataset.schema().cardinalities();
            let collection = CollectionPipeline::from_kind(
                SolutionKind::Smp(ProtocolKind::Grr),
                &ks,
                RISK_EPSILON,
            )
            .expect("SMP[GRR] builds for every eps > 0")
            .seed(item_seed)
            .threads(1);
            let attack = AttackPipeline::from_kind(AttackKind::Averaging(AveragingConfig {
                rounds,
                reident: ReidentConfig {
                    top_ks: TOP_KS.to_vec(),
                    ..ReidentConfig::default()
                },
            }))
            .expect("averaging attack kind")
            .seed(item_seed)
            .threads(1);
            let outcome = attack
                .run_rounds(&collection, &dataset, rounds, policy)
                .expect("per-round solution builds")
                .outcome;
            let o = outcome.reident().expect("reident outcome");
            (o.rid_acc.clone(), o.baseline.clone())
        },
    );

    let mut table = Table::new(
        "longitudinal_risk: averaging-attack RID-ACC (%) vs rounds, SMP[GRR], Adult".to_string(),
        &[
            "policy", "rounds", "top_k", "asr_mean", "asr_std", "baseline",
        ],
    );
    // The baseline is run 0's.
    for ((policy, rounds), runs) in rows {
        for (slot, k) in TOP_KS.into_iter().enumerate() {
            let ms = mean_std(&runs.iter().map(|(accs, _)| accs[slot]).collect::<Vec<_>>());
            table.row(vec![
                policy.to_string(),
                rounds.to_string(),
                k.to_string(),
                fnum(ms.mean),
                fnum(ms.std),
                fnum(runs[0].1[slot]),
            ]);
        }
    }
    vec![table]
}

/// `longitudinal_mse`: averaged-estimator MSE vs round count, per budget
/// policy (`policy, rounds, mse_mean, mse_std`).
pub fn run_mse(cfg: &ExpConfig) -> Vec<Table> {
    let rows = policy_sweep(cfg, "longitudinal_mse", |policy, rounds, run, item_seed| {
        let dataset = Corpus::Adult.build(cfg, run);
        let ks = dataset.schema().cardinalities();
        let truth = dataset.marginals();
        let pipeline =
            CollectionPipeline::from_kind(SolutionKind::Smp(ProtocolKind::Grr), &ks, MSE_EPSILON)
                .expect("SMP[GRR] builds for every eps > 0")
                .seed(item_seed)
                .threads(1);
        let round_runs = pipeline
            .run_rounds(&dataset, rounds, policy)
            .expect("per-round solution builds");
        // The analyst's longitudinal estimator: average the per-round
        // estimates (memoized rounds are identical, so averaging is a no-op
        // there by construction).
        let mut avg: Vec<Vec<f64>> = truth.iter().map(|m| vec![0.0; m.len()]).collect();
        for run in &round_runs {
            for (a, est) in avg.iter_mut().zip(&run.estimates) {
                for (s, &e) in a.iter_mut().zip(est) {
                    *s += e / round_runs.len() as f64;
                }
            }
        }
        mse_avg(&truth, &avg)
    });

    let mut table = Table::new(
        "longitudinal_mse: averaged-estimator MSE vs rounds, SMP[GRR], Adult".to_string(),
        &["policy", "rounds", "mse_mean", "mse_std"],
    );
    for ((policy, rounds), mses) in rows {
        let ms = mean_std(&mses);
        table.row(vec![
            policy.to_string(),
            rounds.to_string(),
            fnum(ms.mean),
            fnum(ms.std),
        ]);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tiny_cfg() -> ExpConfig {
        ExpConfig {
            runs: 1,
            scale: 0.01,
            threads: 2,
            seed: 11,
            out_dir: PathBuf::from("/tmp/risks-ldp-test"),
        }
    }

    #[test]
    fn risk_table_covers_the_policy_by_rounds_grid() {
        let table = &run_risk(&tiny_cfg())[0];
        assert_eq!(
            table.len(),
            BudgetPolicy::ALL.len() * ROUNDS_GRID.len() * TOP_KS.len()
        );
        for row in table.rows() {
            let acc: f64 = row[3].parse().unwrap();
            assert!((0.0..=100.0).contains(&acc), "ASR {acc}");
        }
    }

    #[test]
    fn mse_table_covers_the_grid_and_memoize_is_flat() {
        let table = &run_mse(&tiny_cfg())[0];
        assert_eq!(table.len(), BudgetPolicy::ALL.len() * ROUNDS_GRID.len());
        // Memoized rounds replay round 0, so the averaged estimator — and
        // its MSE — is identical at every round count.
        let memo: Vec<f64> = table
            .rows()
            .iter()
            .filter(|r| r[0] == "memoize")
            .map(|r| r[2].parse().unwrap())
            .collect();
        assert_eq!(memo.len(), ROUNDS_GRID.len());
        for m in &memo {
            assert_eq!(m, &memo[0], "memoization must keep MSE exactly flat");
        }
    }
}
