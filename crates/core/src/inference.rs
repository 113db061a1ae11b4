//! The §3.3 sampled-attribute inference attack against RS+FD / RS+RFD.
//!
//! Given a full sanitized tuple `y = [y_1, …, y_d]`, the attacker predicts
//! which attribute carries the ε′-LDP report (the rest being fake data). The
//! paper's three attacker models differ in how the training set is built:
//!
//! * **NK** (no knowledge): the attacker estimates all attribute frequencies
//!   from the observed LDP reports, generates `s` synthetic profiles from
//!   those estimates, and runs the *known* mechanism on them to obtain
//!   labelled training data.
//! * **PK** (partial knowledge): the attacker knows the sampled attribute of
//!   `n_pk` compromised users and trains on their real tuples.
//! * **HM** (hybrid): both.
//!
//! The attack works from what a collector holds: the round's
//! [`SolutionReport`] words, with features and the attacker's frequency
//! prior read straight from them. The sampled attributes it is scored on
//! come in as a separate `labels` argument, read only by PK/HM training and
//! by the scoring; the synthetic NK profiles carry the labels the attacker
//! drew for them itself.
//!
//! The classifier is a stand-in for the paper's XGBoost: either
//! [`ldp_gbdt::GbdtClassifier`] or the linear [`ldp_gbdt::LogisticRegression`]
//! ablation.

use ldp_gbdt::{DenseMatrix, GbdtClassifier, GbdtParams, LogisticParams, LogisticRegression};
use rand::seq::index::sample;
use rand::Rng;

use crate::solutions::{sample_cdf, to_cdf, Entry, Field, MultidimSolution, SolutionReport};

/// Attacker knowledge model (§3.3.1–3.3.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttackModel {
    /// Train on `synth_factor · n` synthetic profiles only.
    NoKnowledge {
        /// Multiple of the population size to synthesize (paper: 1, 3, 5).
        synth_factor: f64,
    },
    /// Train on `compromised_frac · n` compromised real users.
    PartialKnowledge {
        /// Fraction of users whose sampled attribute leaked (paper: 0.1–0.5).
        compromised_frac: f64,
    },
    /// Union of the NK and PK training sets.
    Hybrid {
        /// Synthetic multiple, as in [`AttackModel::NoKnowledge`].
        synth_factor: f64,
        /// Compromised fraction, as in [`AttackModel::PartialKnowledge`].
        compromised_frac: f64,
    },
}

impl AttackModel {
    /// Short label used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            AttackModel::NoKnowledge { .. } => "NK",
            AttackModel::PartialKnowledge { .. } => "PK",
            AttackModel::Hybrid { .. } => "HM",
        }
    }

    /// Number of synthetic training profiles this model generates for a
    /// population of `n` observed users — the single source of the
    /// `n_train` bookkeeping.
    pub fn synth_count(&self, n: usize) -> usize {
        match *self {
            AttackModel::NoKnowledge { synth_factor }
            | AttackModel::Hybrid { synth_factor, .. } => {
                (synth_factor * n as f64).round() as usize
            }
            AttackModel::PartialKnowledge { .. } => 0,
        }
    }
}

/// Which classifier family the attacker trains.
#[derive(Debug, Clone)]
pub enum AttackClassifier {
    /// Gradient-boosted trees (the paper's XGBoost stand-in).
    Gbdt(GbdtParams),
    /// Multinomial logistic regression (ablation).
    Logistic(LogisticParams),
}

impl Default for AttackClassifier {
    fn default() -> Self {
        AttackClassifier::Gbdt(GbdtParams::default())
    }
}

#[derive(Debug, Clone)]
enum TrainedModel {
    Gbdt(GbdtClassifier),
    Logistic(LogisticRegression),
}

/// A trained sampled-attribute classifier.
#[derive(Debug, Clone)]
pub struct SampledAttributeAttack {
    model: TrainedModel,
    ks: Vec<usize>,
    unary: bool,
}

/// Attack evaluation result.
#[derive(Debug, Clone, Copy)]
pub struct InferenceOutcome {
    /// Attacker's attribute-inference accuracy (%) on the test users.
    pub aif_acc: f64,
    /// Random-guess baseline (%): `100/d`.
    pub baseline: f64,
    /// Training-set size used.
    pub n_train: usize,
    /// Test-set size.
    pub n_test: usize,
}

/// Encodes fake-data tuples as classifier features straight from their
/// words, field by field of the tuple layout RS+FD and RS+RFD build: a
/// value entry becomes one column (its code), a `k_j`-lane bit-vector entry
/// `k_j` columns (its bits). The header's hidden attribute is never read.
///
/// # Panics
/// Panics on a report that is not a `ks.len()`-attribute tuple of value
/// entries (`unary = false`) or of `k_j`-lane bit vectors (`unary = true`).
pub fn encode_features(reports: &[&SolutionReport], ks: &[usize], unary: bool) -> DenseMatrix {
    let fields: Vec<Field> = ks.iter().map(|&k| Field::fake_data(k, unary)).collect();
    let width: usize = if unary { ks.iter().sum() } else { ks.len() };
    let mut flat = vec![0.0f32; reports.len() * width];
    for (report, row) in reports.iter().zip(flat.chunks_exact_mut(width)) {
        let (mut cursor, d) = report
            .tuple_entries()
            .expect("expected full fake-data tuples in the observed round");
        assert_eq!(d, ks.len(), "tuple width mismatch");
        let mut col = 0;
        for &field in &fields {
            if let Field::Bits { k } = field {
                let blocks = cursor
                    .bits_entry(k)
                    .expect("expected unary report of the attribute's width");
                for (b, &block) in blocks.iter().enumerate() {
                    let mut word = block;
                    while word != 0 {
                        let lane = 64 * b + word.trailing_zeros() as usize;
                        if lane < k {
                            row[col + lane] = 1.0;
                        }
                        word &= word - 1;
                    }
                }
                col += k;
            } else {
                row[col] = match cursor.entry() {
                    Ok(Entry::Value(v)) => v as f32,
                    other => panic!("expected value report, got {other:?}"),
                };
                col += 1;
            }
        }
    }
    DenseMatrix::from_flat(flat, reports.len(), width)
}

impl SampledAttributeAttack {
    /// Trains the attack on one observed round. `labels[i]` is the sampled
    /// attribute of `observed[i]`: ground truth, read only for the
    /// compromised users of PK/HM, so an NK attacker, who knows none, may
    /// pass `&[]`. The returned test indices point into `observed` (all
    /// users for NK, the non-compromised ones for PK/HM). A GBDT classifier
    /// fits on up to `threads` threads; the model is the same for every
    /// count.
    pub fn train<S: MultidimSolution, R: Rng + ?Sized>(
        solution: &S,
        observed: &[SolutionReport],
        labels: &[usize],
        model: &AttackModel,
        classifier: &AttackClassifier,
        rng: &mut R,
        threads: usize,
    ) -> (Self, Vec<usize>) {
        assert!(!observed.is_empty(), "attack needs observed reports");
        let n = observed.len();
        let d = solution.d();
        let unary = solution.is_unary();

        let (synth_factor, compromised_frac) = match *model {
            AttackModel::NoKnowledge { synth_factor } => (synth_factor, 0.0),
            AttackModel::PartialKnowledge { compromised_frac } => (0.0, compromised_frac),
            AttackModel::Hybrid {
                synth_factor,
                compromised_frac,
            } => (synth_factor, compromised_frac),
        };
        assert!(synth_factor >= 0.0 && compromised_frac >= 0.0);
        assert!(compromised_frac < 1.0, "cannot compromise everyone");

        // Compromised users (PK/HM) train; the rest are the test set.
        let n_pk = (compromised_frac * n as f64).round() as usize;
        let mut compromised: Vec<usize> = if n_pk > 0 {
            sample(rng, n, n_pk.min(n - 1)).into_iter().collect()
        } else {
            Vec::new()
        };
        assert!(
            compromised.is_empty() || labels.len() == n,
            "PK/HM training needs one label per observed tuple"
        );
        compromised.sort_unstable();
        let mut is_compromised = vec![false; n];
        for &i in &compromised {
            is_compromised[i] = true;
        }
        let test_idx: Vec<usize> = (0..n).filter(|&i| !is_compromised[i]).collect();

        // Synthetic profiles (NK/HM) drawn from the attacker's frequency
        // estimates over everything it observed, projected onto the
        // simplex, and sanitized with the known mechanism; each is labelled
        // with the attribute the attacker sampled for it.
        let n_synth = model.synth_count(n);
        let mut synthetic: Vec<SolutionReport> = Vec::with_capacity(n_synth);
        let mut train_labels: Vec<u32> = Vec::with_capacity(n_synth + compromised.len());
        if n_synth > 0 {
            let mut prior = solution.aggregator();
            for report in observed {
                prior.absorb(report);
            }
            let cdfs: Vec<Vec<f64>> = prior
                .estimate_normalized()
                .iter()
                .map(|f| to_cdf(f))
                .collect();
            let mut tuple = vec![0u32; d];
            for _ in 0..n_synth {
                for (j, cdf) in cdfs.iter().enumerate() {
                    tuple[j] = sample_cdf(cdf, rng) as u32;
                }
                let sampled = rng.random_range(0..d);
                synthetic.push(solution.report_with_sampled(&tuple, sampled, rng));
                train_labels.push(sampled as u32);
            }
        }
        let mut train: Vec<&SolutionReport> = synthetic.iter().collect();
        for &i in &compromised {
            train.push(&observed[i]);
            train_labels.push(labels[i] as u32);
        }
        assert!(
            !train.is_empty(),
            "attack model produced an empty training set"
        );

        let x = encode_features(&train, solution.ks(), unary);
        let model =
            match classifier {
                AttackClassifier::Gbdt(params) => TrainedModel::Gbdt(GbdtClassifier::fit(
                    &x,
                    &train_labels,
                    d,
                    params,
                    rng.random(),
                    threads,
                )),
                AttackClassifier::Logistic(params) => TrainedModel::Logistic(
                    LogisticRegression::fit(&x, &train_labels, d, params, rng.random()),
                ),
            };
        (
            SampledAttributeAttack {
                model,
                ks: solution.ks().to_vec(),
                unary,
            },
            test_idx,
        )
    }

    /// Predicts the sampled attribute of each tuple; a GBDT classifier
    /// predicts on up to `threads` threads, with the same result for every
    /// count.
    pub fn predict(&self, reports: &[&SolutionReport], threads: usize) -> Vec<u32> {
        if reports.is_empty() {
            return Vec::new();
        }
        let x = encode_features(reports, &self.ks, self.unary);
        match &self.model {
            TrainedModel::Gbdt(m) => m.predict(&x, threads),
            TrainedModel::Logistic(m) => m.predict(&x),
        }
    }

    /// Trains and scores the attack in one call (the Fig. 3/14/15 pipeline),
    /// on one thread: the figure grids that call it run their cells in
    /// parallel. `labels[i]` is the sampled attribute of `observed[i]`, read
    /// by PK/HM training and by the scoring only.
    pub fn evaluate<S: MultidimSolution, R: Rng + ?Sized>(
        solution: &S,
        observed: &[SolutionReport],
        labels: &[usize],
        model: &AttackModel,
        classifier: &AttackClassifier,
        rng: &mut R,
    ) -> InferenceOutcome {
        assert_eq!(labels.len(), observed.len(), "one label per observed tuple");
        let (attack, test_idx) = Self::train(solution, observed, labels, model, classifier, rng, 1);
        let test: Vec<&SolutionReport> = test_idx.iter().map(|&i| &observed[i]).collect();
        let pred = attack.predict(&test, 1);
        let hits = pred
            .iter()
            .zip(&test_idx)
            .filter(|&(&p, &i)| p as usize == labels[i])
            .count();
        let n_train = observed.len() - test_idx.len() + model.synth_count(observed.len());
        InferenceOutcome {
            aif_acc: 100.0 * hits as f64 / test_idx.len().max(1) as f64,
            baseline: 100.0 / solution.d() as f64,
            n_train,
            n_test: test_idx.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solutions::{RsFd, RsFdProtocol, RsRfd, RsRfdProtocol};
    use ldp_protocols::{BitVec, Report, UeMode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Skewed population: value 0 dominates every attribute.
    fn skewed_tuples(n: usize, ks: &[usize], rng: &mut StdRng) -> Vec<Vec<u32>> {
        (0..n)
            .map(|_| {
                ks.iter()
                    .map(|&k| {
                        if rng.random::<f64>() < 0.7 {
                            0
                        } else {
                            rng.random_range(0..k as u32)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    fn fast_gbdt() -> AttackClassifier {
        AttackClassifier::Gbdt(GbdtParams {
            rounds: 12,
            max_depth: 4,
            ..GbdtParams::default()
        })
    }

    #[test]
    fn ue_z_attack_is_nearly_perfect_at_high_epsilon() {
        // The paper's headline finding: RS+FD[SUE-z] leaks the sampled
        // attribute almost completely at ε = 10.
        let ks = [6usize, 8, 4];
        let mut rng = StdRng::seed_from_u64(1);
        let solution = RsFd::new(RsFdProtocol::UeZ(UeMode::Symmetric), &ks, 10.0).unwrap();
        let tuples = skewed_tuples(1200, &ks, &mut rng);
        let (observed, labels) = solution.report_round(tuples.iter().map(Vec::as_slice), &mut rng);
        let out = SampledAttributeAttack::evaluate(
            &solution,
            &observed,
            &labels,
            &AttackModel::NoKnowledge { synth_factor: 1.0 },
            &fast_gbdt(),
            &mut rng,
        );
        assert!(
            out.aif_acc > 80.0,
            "SUE-z at eps=10 should be near-perfect, got {}",
            out.aif_acc
        );
    }

    #[test]
    fn grr_attack_beats_baseline_on_skewed_data() {
        let ks = [6usize, 8, 4];
        let mut rng = StdRng::seed_from_u64(2);
        let solution = RsFd::new(RsFdProtocol::Grr, &ks, 6.0).unwrap();
        let tuples = skewed_tuples(1500, &ks, &mut rng);
        let (observed, labels) = solution.report_round(tuples.iter().map(Vec::as_slice), &mut rng);
        let out = SampledAttributeAttack::evaluate(
            &solution,
            &observed,
            &labels,
            &AttackModel::NoKnowledge { synth_factor: 1.0 },
            &fast_gbdt(),
            &mut rng,
        );
        assert!(
            out.aif_acc > 1.5 * out.baseline,
            "AIF {} vs baseline {}",
            out.aif_acc,
            out.baseline
        );
    }

    #[test]
    fn pk_model_trains_on_compromised_and_tests_on_rest() {
        let ks = [4usize, 4];
        let mut rng = StdRng::seed_from_u64(3);
        let solution = RsFd::new(RsFdProtocol::Grr, &ks, 4.0).unwrap();
        let tuples = skewed_tuples(600, &ks, &mut rng);
        let (observed, labels) = solution.report_round(tuples.iter().map(Vec::as_slice), &mut rng);
        let out = SampledAttributeAttack::evaluate(
            &solution,
            &observed,
            &labels,
            &AttackModel::PartialKnowledge {
                compromised_frac: 0.3,
            },
            &fast_gbdt(),
            &mut rng,
        );
        assert_eq!(out.n_test, 600 - 180);
        assert!(out.aif_acc >= 0.0 && out.aif_acc <= 100.0);
    }

    #[test]
    fn rsrfd_with_true_priors_defeats_the_attack() {
        // The countermeasure's claim: with correct priors the attacker gains
        // little over the baseline even at high ε.
        let ks = [6usize, 8, 4];
        let mut rng = StdRng::seed_from_u64(4);
        let tuples = skewed_tuples(1500, &ks, &mut rng);
        // Exact priors = population marginals.
        let mut priors: Vec<Vec<f64>> = ks.iter().map(|&k| vec![0.0; k]).collect();
        for t in &tuples {
            for (j, &v) in t.iter().enumerate() {
                priors[j][v as usize] += 1.0 / tuples.len() as f64;
            }
        }
        let solution = RsRfd::new(RsRfdProtocol::Grr, &ks, 8.0, priors).unwrap();
        let (observed, labels) = solution.report_round(tuples.iter().map(Vec::as_slice), &mut rng);
        let out = SampledAttributeAttack::evaluate(
            &solution,
            &observed,
            &labels,
            &AttackModel::NoKnowledge { synth_factor: 1.0 },
            &fast_gbdt(),
            &mut rng,
        );
        // GRR fakes drawn from the true marginal are *almost*
        // indistinguishable; allow modest residual signal.
        assert!(
            out.aif_acc < out.baseline + 12.0,
            "RS+RFD should suppress the attack: {} vs baseline {}",
            out.aif_acc,
            out.baseline
        );
    }

    #[test]
    fn logistic_classifier_also_works() {
        let ks = [4usize, 6];
        let mut rng = StdRng::seed_from_u64(5);
        let solution = RsFd::new(RsFdProtocol::UeZ(UeMode::Optimized), &ks, 8.0).unwrap();
        let tuples = skewed_tuples(800, &ks, &mut rng);
        let (observed, labels) = solution.report_round(tuples.iter().map(Vec::as_slice), &mut rng);
        let out = SampledAttributeAttack::evaluate(
            &solution,
            &observed,
            &labels,
            &AttackModel::NoKnowledge { synth_factor: 1.0 },
            &AttackClassifier::Logistic(LogisticParams::default()),
            &mut rng,
        );
        assert!(
            out.aif_acc > out.baseline,
            "logistic AIF {} vs baseline {}",
            out.aif_acc,
            out.baseline
        );
    }

    #[test]
    fn hybrid_model_combines_training_sources() {
        let ks = [4usize, 4];
        let mut rng = StdRng::seed_from_u64(6);
        let solution = RsFd::new(RsFdProtocol::Grr, &ks, 4.0).unwrap();
        let tuples = skewed_tuples(400, &ks, &mut rng);
        let (observed, labels) = solution.report_round(tuples.iter().map(Vec::as_slice), &mut rng);
        let (attack, test_idx) = SampledAttributeAttack::train(
            &solution,
            &observed,
            &labels,
            &AttackModel::Hybrid {
                synth_factor: 1.0,
                compromised_frac: 0.1,
            },
            &fast_gbdt(),
            &mut rng,
            2,
        );
        assert_eq!(test_idx.len(), 360);
        let test: Vec<_> = test_idx.iter().map(|&i| &observed[i]).collect();
        let preds = attack.predict(&test, 2);
        assert_eq!(preds.len(), 360);
        assert!(preds.iter().all(|&p| (p as usize) < 2));
    }

    #[test]
    fn encode_features_reads_values_and_bit_lanes_from_the_words() {
        let mut bits = BitVec::zeros(70);
        bits.set(2, true);
        bits.set(69, true);
        let unary = SolutionReport::tuple(&[Report::Bits(BitVec::zeros(3)), Report::Bits(bits)], 1);
        let x = encode_features(&[&unary], &[3, 70], true);
        assert_eq!((x.n_rows(), x.n_cols()), (1, 73));
        let ones: Vec<usize> = (0..73).filter(|&c| x.get(0, c) == 1.0).collect();
        assert_eq!(ones, vec![3 + 2, 3 + 69]);
        let values = SolutionReport::tuple(&[Report::Value(2), Report::Value(0)], 0);
        let x = encode_features(&[&values, &values], &[3, 3], false);
        assert_eq!((x.get(1, 0), x.get(1, 1)), (2.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "expected unary report")]
    fn encode_features_rejects_shape_mismatch() {
        let r = SolutionReport::tuple(&[Report::Value(1), Report::Value(0)], 0);
        encode_features(&[&r], &[3, 3], true);
    }
}
