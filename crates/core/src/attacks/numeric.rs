//! Numeric value-range inference: the attack surface of the numeric
//! mechanisms.
//!
//! Duchi / PM / HM reports are unbiased for the *population* mean, but each
//! report is still a likelihood over the user's *individual* value. An
//! adversary who knows the population's value distribution (the same
//! background-knowledge assumption as the §3 attacks) can run a per-user
//! Bayes update: discretize `[-1, 1]` into `B` equal-width buckets, take the
//! population histogram as the prior, multiply by the mechanism likelihood of
//! the observed report integrated over each bucket, and guess the
//! posterior-mode bucket. Success means placing the user's true value in the
//! right bucket — value-range re-identification of a supposedly ε-LDP
//! numeric attribute.
//!
//! The reported baseline is the no-wire adversary (always guess the prior
//! mode), so any lift above it is leakage attributable to the LDP reports.

use ldp_datasets::mixed::bucket_of;
use rand::RngCore;

use super::kind::{AttackKind, NumericConfig, NumericOutcome};
use super::{AdversaryView, Attack, AttackOutcome, FittedAttack};
use crate::numeric::NumericOracle;
use crate::reident::MatchScratch;
use crate::solutions::{DynSolution, MixedEntry};

/// The numeric value-range inference scenario (see the module docs).
#[derive(Debug, Clone, Copy)]
pub struct NumericScenario {
    config: NumericConfig,
}

impl NumericScenario {
    /// Wraps a validated configuration (see `AttackKind::build`).
    pub fn new(config: NumericConfig) -> Self {
        NumericScenario { config }
    }

    /// The scenario configuration.
    pub fn config(&self) -> &NumericConfig {
        &self.config
    }
}

impl Attack for NumericScenario {
    fn name(&self) -> String {
        AttackKind::NumericValueRange(self.config).name()
    }

    fn fit(&self, view: &AdversaryView<'_>, _rng: &mut dyn RngCore) -> Box<dyn FittedAttack> {
        let mixed = match view.solution {
            DynSolution::Mixed(m) => m,
            other => panic!(
                "numeric value-range inference needs a mixed solution, got {}",
                other.name()
            ),
        };
        let truth = view
            .numeric_truth
            .expect("numeric value-range inference needs AdversaryView::numeric_truth");
        assert_eq!(
            truth.ks(),
            mixed.ks().to_vec(),
            "numeric truth schema must match the deployed mixed solution"
        );
        let dim = self.config.dim;
        assert!(
            mixed.is_numeric(dim),
            "attack dimension {dim} is not a numeric dimension of {}",
            view.solution.name()
        );
        assert_eq!(
            view.observed.len(),
            truth.n(),
            "observed wire must hold one report per user"
        );
        // Position of `dim` among the numeric dimensions = index into the
        // truth's numeric columns (the layout convention of MixedDataset).
        let num_idx = mixed.ks()[..dim].iter().filter(|&&k| k == 0).count();
        let buckets = self.config.buckets;
        let prior = truth.numeric_histogram(num_idx, buckets);
        let prior_mode = argmax(&prior);
        let oracle = mixed.numeric_oracle();

        let mut n_observed = 0usize;
        let mut posterior = vec![0.0f64; buckets];
        let correct: Vec<bool> = (0..truth.n())
            .map(|i| {
                let report = view.observed[i].to_mixed().unwrap_or_else(|| {
                    panic!(
                        "mixed solution produced a non-mixed report: {:?} for user {i}",
                        view.observed[i]
                    )
                });
                let observed_y = report.entries.iter().find_map(|(j, entry)| {
                    (*j == dim).then(|| match entry {
                        MixedEntry::Num(y) => y.value(),
                        MixedEntry::Cat(_) => {
                            panic!("categorical entry on numeric dimension {dim} for user {i}")
                        }
                    })
                });
                let guess = match observed_y {
                    Some(y) => {
                        n_observed += 1;
                        for (b, p) in posterior.iter_mut().enumerate() {
                            *p = prior[b] * bucket_likelihood(oracle, y, b, buckets);
                        }
                        argmax(&posterior)
                    }
                    // The user did not sample this dimension: the wire adds
                    // nothing, so the Bayes-optimal guess is the prior mode.
                    None => prior_mode,
                };
                guess == bucket_of(truth.num_value(i, num_idx), buckets)
            })
            .collect();

        Box::new(FittedNumeric {
            correct,
            buckets,
            n_observed,
            baseline: 100.0 * prior.iter().cloned().fold(0.0f64, f64::max),
        })
    }
}

/// Sub-grid resolution of the per-bucket likelihood integral. The PM density
/// concentrates in a window of width `2(C−1)/(C+1)` in value space, which at
/// large ε is far narrower than a bucket — evaluating the likelihood at the
/// bucket center alone would miss it and degrade the posterior to the prior.
/// 32 sub-points per bucket resolve the window for per-dimension budgets up
/// to ε′ ≈ 10 at B ≤ 8 buckets.
const LIKELIHOOD_GRID: usize = 32;

/// Mechanism likelihood of report `y` integrated (midpoint rule) over the
/// true-value range of bucket `b`, i.e. `P[y | t ∈ bucket b]` under a
/// uniform within-bucket density.
fn bucket_likelihood(oracle: &crate::numeric::DynNumeric, y: f64, b: usize, buckets: usize) -> f64 {
    let width = 2.0 / buckets as f64;
    let lo = -1.0 + b as f64 * width;
    let mut sum = 0.0;
    for g in 0..LIKELIHOOD_GRID {
        let t = lo + (g as f64 + 0.5) / LIKELIHOOD_GRID as f64 * width;
        sum += oracle.likelihood(y, t);
    }
    sum / LIKELIHOOD_GRID as f64
}

/// First index of the maximum value (ties break to the lower bucket, keeping
/// the guess deterministic).
fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

/// A fitted numeric value-range attack: the per-user success bits are fixed
/// at fit time (the Bayes update is rng-free), like [`FittedInference`].
///
/// [`FittedInference`]: super::FittedInference
#[derive(Debug, Clone)]
pub struct FittedNumeric {
    correct: Vec<bool>,
    buckets: usize,
    n_observed: usize,
    baseline: f64,
}

impl FittedAttack for FittedNumeric {
    fn n_targets(&self) -> usize {
        self.correct.len()
    }

    fn n_slots(&self) -> usize {
        1
    }

    fn evaluate_target(
        &self,
        target: usize,
        _scratch: &mut MatchScratch,
        hits: &mut [bool],
        _rng: &mut dyn RngCore,
    ) {
        hits[0] = self.correct[target];
    }

    fn outcome(&self, hit_counts: &[u64]) -> AttackOutcome {
        AttackOutcome::Numeric(NumericOutcome {
            acc: 100.0 * hit_counts[0] as f64 / self.correct.len().max(1) as f64,
            baseline: self.baseline,
            buckets: self.buckets,
            n_targets: self.correct.len(),
            n_observed: self.n_observed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacks::{evaluate_serial, fit_rng};
    use crate::solutions::{MixedKind, SolutionKind, SolutionReport};
    use crate::NumericKind;
    use ldp_datasets::mixed::mixed_survey_like;
    use ldp_protocols::oracle::ProtocolKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn observe(
        solution: &DynSolution,
        truth: &ldp_datasets::MixedDataset,
        seed: u64,
    ) -> Vec<SolutionReport> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..truth.n())
            .map(|i| {
                solution
                    .report_mixed(truth.cat().row(i), truth.num_row(i), &mut rng)
                    .unwrap()
            })
            .collect()
    }

    fn mixed_solution(epsilon: f64, ks: &[usize]) -> DynSolution {
        SolutionKind::Mixed(MixedKind {
            protocol: ProtocolKind::Grr,
            numeric: NumericKind::Piecewise,
            sample_k: 2,
        })
        .build(ks, epsilon)
        .unwrap()
    }

    #[test]
    fn high_epsilon_beats_the_prior_baseline() {
        let truth = mixed_survey_like(4000, 11);
        let solution = mixed_solution(16.0, &truth.ks());
        let observed = observe(&solution, &truth, 12);
        let view = AdversaryView {
            dataset: truth.cat(),
            solution: &solution,
            observed: &observed,
            numeric_truth: Some(&truth),
        };
        let attack = NumericScenario::new(NumericConfig { dim: 4, buckets: 4 });
        let fitted = attack.fit(&view, &mut fit_rng(1));
        let outcome = evaluate_serial(fitted.as_ref(), 1);
        let o = outcome.numeric().unwrap();
        assert_eq!(o.n_targets, 4000);
        assert!(o.n_observed > 0);
        // At ε = 16 the PM report is nearly the true value: the adversary
        // should beat the prior-mode baseline by a clear margin.
        assert!(
            o.acc > o.baseline + 5.0,
            "acc {} vs baseline {}",
            o.acc,
            o.baseline
        );
    }

    #[test]
    fn low_epsilon_stays_near_the_baseline() {
        let truth = mixed_survey_like(4000, 21);
        let solution = mixed_solution(0.5, &truth.ks());
        let observed = observe(&solution, &truth, 22);
        let view = AdversaryView {
            dataset: truth.cat(),
            solution: &solution,
            observed: &observed,
            numeric_truth: Some(&truth),
        };
        let attack = NumericScenario::new(NumericConfig { dim: 4, buckets: 4 });
        let fitted = attack.fit(&view, &mut fit_rng(1));
        let o = evaluate_serial(fitted.as_ref(), 1);
        let o = o.numeric().unwrap();
        // Reports at ε = 0.5 are close to noise: the lift over the
        // prior-only adversary must be small.
        assert!(
            (o.acc - o.baseline).abs() < 8.0,
            "acc {} vs baseline {}",
            o.acc,
            o.baseline
        );
    }

    #[test]
    #[should_panic(expected = "needs a mixed solution")]
    fn rejects_categorical_solutions() {
        let truth = mixed_survey_like(50, 3);
        let solution = SolutionKind::Spl(ProtocolKind::Grr)
            .build(&[8, 5, 6, 2], 1.0)
            .unwrap();
        let view = AdversaryView {
            dataset: truth.cat(),
            solution: &solution,
            observed: &[],
            numeric_truth: Some(&truth),
        };
        NumericScenario::new(NumericConfig { dim: 4, buckets: 4 }).fit(&view, &mut fit_rng(1));
    }

    #[test]
    #[should_panic(expected = "numeric_truth")]
    fn rejects_missing_numeric_truth() {
        let truth = mixed_survey_like(50, 3);
        let solution = mixed_solution(1.0, &truth.ks());
        let observed = observe(&solution, &truth, 4);
        let view = AdversaryView {
            dataset: truth.cat(),
            solution: &solution,
            observed: &observed,
            numeric_truth: None,
        };
        NumericScenario::new(NumericConfig { dim: 4, buckets: 4 }).fit(&view, &mut fit_rng(1));
    }

    #[test]
    #[should_panic(expected = "not a numeric dimension")]
    fn rejects_categorical_dimensions() {
        let truth = mixed_survey_like(50, 3);
        let solution = mixed_solution(1.0, &truth.ks());
        let observed = observe(&solution, &truth, 4);
        let view = AdversaryView {
            dataset: truth.cat(),
            solution: &solution,
            observed: &observed,
            numeric_truth: Some(&truth),
        };
        NumericScenario::new(NumericConfig { dim: 0, buckets: 4 }).fit(&view, &mut fit_rng(1));
    }
}
