//! Multiclass softmax gradient boosting over histogram regression trees.
//!
//! Each round fits one tree per class on the softmax gradients
//! `g_i = p_i − 1{y_i = c}` and hessians `h_i = p_i (1 − p_i)`, applying
//! shrinkage, row subsampling and per-tree column subsampling. Defaults are
//! scaled-down XGBoost-style parameters suitable for the attack workloads of
//! the paper (tens of thousands of rows, a few hundred binary/categorical
//! features).

use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::SeedableRng;

use crate::data::{BinnedMatrix, BinningSpec, DenseMatrix};
use crate::tree::{RegressionTree, TreeLearner, TreeParams};

/// Booster hyper-parameters.
#[derive(Debug, Clone)]
pub struct GbdtParams {
    /// Boosting rounds (trees per class).
    pub rounds: usize,
    /// Shrinkage applied to every leaf.
    pub learning_rate: f64,
    /// Maximum depth per tree.
    pub max_depth: usize,
    /// L2 leaf regularization λ.
    pub lambda: f64,
    /// Minimum split gain γ.
    pub gamma: f64,
    /// Minimum hessian sum per child.
    pub min_child_weight: f64,
    /// Row subsampling fraction per tree in `(0, 1]`.
    pub subsample: f64,
    /// Column subsampling fraction per tree in `(0, 1]`.
    pub colsample: f64,
    /// Maximum histogram bins per feature.
    pub max_bins: u16,
}

impl Default for GbdtParams {
    fn default() -> Self {
        GbdtParams {
            rounds: 30,
            learning_rate: 0.3,
            max_depth: 5,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1.0,
            subsample: 0.8,
            colsample: 0.8,
            max_bins: 128,
        }
    }
}

/// A fitted multiclass GBDT model.
#[derive(Debug, Clone)]
pub struct GbdtClassifier {
    /// `trees[round][class]`.
    trees: Vec<Vec<RegressionTree>>,
    spec: BinningSpec,
    n_classes: usize,
    learning_rate: f64,
    /// Log-prior initialization per class.
    base_scores: Vec<f64>,
}

/// Numerically stable softmax in place.
fn softmax(scores: &mut [f64]) {
    let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut total = 0.0;
    for s in scores.iter_mut() {
        *s = (*s - max).exp();
        total += *s;
    }
    for s in scores.iter_mut() {
        *s /= total;
    }
}

impl GbdtClassifier {
    /// Fits a model on `x` with labels `y` in `0..n_classes`.
    ///
    /// # Panics
    /// Panics when `x`/`y` lengths disagree, `n_classes == 0`, a label is out
    /// of range, or a sampling fraction is outside `(0, 1]`.
    pub fn fit(
        x: &DenseMatrix,
        y: &[u32],
        n_classes: usize,
        params: &GbdtParams,
        seed: u64,
    ) -> Self {
        assert_eq!(x.n_rows(), y.len(), "labels must match rows");
        assert!(n_classes >= 1, "need at least one class");
        assert!(
            y.iter().all(|&c| (c as usize) < n_classes),
            "label out of range"
        );
        assert!(params.subsample > 0.0 && params.subsample <= 1.0);
        assert!(params.colsample > 0.0 && params.colsample <= 1.0);

        let n = x.n_rows();
        let f = x.n_cols();
        let spec = BinningSpec::fit(x, params.max_bins);
        let binned = BinnedMatrix::from_matrix(x, spec.clone());
        let mut rng = StdRng::seed_from_u64(seed);

        // Class log-prior initialization stabilizes unbalanced problems.
        let mut class_counts = vec![1.0f64; n_classes]; // +1 smoothing
        for &c in y {
            class_counts[c as usize] += 1.0;
        }
        let total: f64 = class_counts.iter().sum();
        let base_scores: Vec<f64> = class_counts.iter().map(|c| (c / total).ln()).collect();

        let mut scores = vec![0.0f64; n * n_classes];
        for row in scores.chunks_exact_mut(n_classes) {
            row.copy_from_slice(&base_scores);
        }

        let tree_params = TreeParams {
            max_depth: params.max_depth,
            lambda: params.lambda,
            gamma: params.gamma,
            min_child_weight: params.min_child_weight,
        };

        let mut trees: Vec<Vec<RegressionTree>> = Vec::with_capacity(params.rounds);
        let mut probs = vec![0.0f64; n * n_classes];
        let mut grad = vec![0.0f64; n];
        let mut hess = vec![0.0f64; n];
        let mut learner = TreeLearner::default();
        let mut row_leaf: Vec<Option<f32>> = vec![None; n];

        for _round in 0..params.rounds {
            // Current probabilities.
            probs.copy_from_slice(&scores);
            for row in probs.chunks_exact_mut(n_classes) {
                softmax(row);
            }

            let mut round_trees = Vec::with_capacity(n_classes);
            for c in 0..n_classes {
                for i in 0..n {
                    let p = probs[i * n_classes + c];
                    let target = if y[i] as usize == c { 1.0 } else { 0.0 };
                    grad[i] = p - target;
                    hess[i] = (p * (1.0 - p)).max(1e-9);
                }

                let rows: Vec<u32> = if params.subsample < 1.0 {
                    let m = ((n as f64 * params.subsample) as usize).max(1);
                    sample(&mut rng, n, m)
                        .into_iter()
                        .map(|i| i as u32)
                        .collect()
                } else {
                    (0..n as u32).collect()
                };
                let features: Vec<u32> = if params.colsample < 1.0 && f > 1 {
                    let m = ((f as f64 * params.colsample) as usize).clamp(1, f);
                    sample(&mut rng, f, m)
                        .into_iter()
                        .map(|i| i as u32)
                        .collect()
                } else {
                    (0..f as u32).collect()
                };

                let tree = learner.fit(&binned, &grad, &hess, &rows, &features, &tree_params);
                // In-sample rows take their leaf from the learner; only the
                // rows subsampling left out walk the tree.
                for (&i, &leaf) in rows.iter().zip(learner.leaves()) {
                    row_leaf[i as usize] = Some(leaf);
                }
                for (i, leaf) in row_leaf.iter_mut().enumerate() {
                    let leaf = leaf
                        .take()
                        .unwrap_or_else(|| tree.predict_binned(binned.row(i)));
                    scores[i * n_classes + c] += params.learning_rate * f64::from(leaf);
                }
                round_trees.push(tree);
            }
            trees.push(round_trees);
        }

        GbdtClassifier {
            trees,
            spec,
            n_classes,
            learning_rate: params.learning_rate,
            base_scores,
        }
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Total number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.iter().map(Vec::len).sum()
    }

    /// Gain-weighted feature importance over `n_features` features,
    /// normalized to sum to 1 (all-zeros when no split was ever made).
    ///
    /// For the inference attack this reveals *which* report positions leak
    /// the sampled attribute (e.g. the per-attribute bit blocks under UE-z).
    pub fn feature_importance(&self, n_features: usize) -> Vec<f64> {
        let mut imp = vec![0.0; n_features];
        for round in &self.trees {
            for tree in round {
                tree.accumulate_importance(&mut imp);
            }
        }
        let total: f64 = imp.iter().sum();
        if total > 0.0 {
            for x in &mut imp {
                *x /= total;
            }
        }
        imp
    }

    /// Raw (pre-softmax) scores for one feature row, written into `scores`;
    /// `bins` is a reusable buffer for the row's bin codes.
    fn raw_scores_into(&self, row: &[f32], bins: &mut Vec<u16>, scores: &mut [f64]) {
        bins.clear();
        bins.extend(row.iter().enumerate().map(|(j, &v)| self.spec.bin(j, v)));
        scores.copy_from_slice(&self.base_scores);
        for round in &self.trees {
            for (c, tree) in round.iter().enumerate() {
                scores[c] += self.learning_rate * f64::from(tree.predict_binned(bins));
            }
        }
    }

    /// Class-probability predictions for every row of `x`.
    pub fn predict_proba(&self, x: &DenseMatrix) -> Vec<Vec<f64>> {
        let mut bins = Vec::with_capacity(x.n_cols());
        (0..x.n_rows())
            .map(|i| {
                let mut s = vec![0.0; self.n_classes];
                self.raw_scores_into(x.row(i), &mut bins, &mut s);
                softmax(&mut s);
                s
            })
            .collect()
    }

    /// Hard class predictions for every row of `x`.
    pub fn predict(&self, x: &DenseMatrix) -> Vec<u32> {
        let mut bins = Vec::with_capacity(x.n_cols());
        let mut scores = vec![0.0; self.n_classes];
        (0..x.n_rows())
            .map(|i| {
                self.raw_scores_into(x.row(i), &mut bins, &mut scores);
                argmax(&scores) as u32
            })
            .collect()
    }
}

/// Index of the maximum element (first on ties).
pub fn argmax(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn gaussian_blobs(n_per: usize, seed: u64) -> (DenseMatrix, Vec<u32>) {
        // Three integer-grid blobs in 2D, trivially separable.
        let mut rng = StdRng::seed_from_u64(seed);
        let centers = [(0.0f32, 0.0f32), (6.0, 0.0), (0.0, 6.0)];
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for (c, &(cx, cy)) in centers.iter().enumerate() {
            for _ in 0..n_per {
                let dx: f32 = rng.random_range(-1.0..1.0);
                let dy: f32 = rng.random_range(-1.0..1.0);
                rows.push(vec![cx + dx, cy + dy]);
                y.push(c as u32);
            }
        }
        (DenseMatrix::from_rows(&rows), y)
    }

    #[test]
    fn learns_separable_blobs() {
        let (x, y) = gaussian_blobs(60, 3);
        let params = GbdtParams {
            rounds: 15,
            ..GbdtParams::default()
        };
        let model = GbdtClassifier::fit(&x, &y, 3, &params, 7);
        let acc = crate::metrics::accuracy(&y, &model.predict(&x));
        assert!(acc > 0.98, "train accuracy {acc}");
    }

    #[test]
    fn probabilities_are_valid() {
        let (x, y) = gaussian_blobs(30, 5);
        let model = GbdtClassifier::fit(&x, &y, 3, &GbdtParams::default(), 1);
        for p in model.predict_proba(&x) {
            assert_eq!(p.len(), 3);
            assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = gaussian_blobs(40, 9);
        let a = GbdtClassifier::fit(&x, &y, 3, &GbdtParams::default(), 11).predict(&x);
        let b = GbdtClassifier::fit(&x, &y, 3, &GbdtParams::default(), 11).predict(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn single_class_predicts_that_class() {
        let x = DenseMatrix::from_rows(&[vec![1.0], vec![2.0]]);
        let y = vec![0u32, 0];
        let model = GbdtClassifier::fit(&x, &y, 1, &GbdtParams::default(), 0);
        assert_eq!(model.predict(&x), vec![0, 0]);
    }

    #[test]
    fn base_score_beats_uniform_on_unbalanced_labels() {
        // With no usable features, predictions should follow the label prior.
        let x = DenseMatrix::from_rows(&(0..100).map(|_| vec![1.0f32]).collect::<Vec<_>>());
        let y: Vec<u32> = (0..100).map(|i| u32::from(i >= 90)).collect();
        let model = GbdtClassifier::fit(&x, &y, 2, &GbdtParams::default(), 3);
        let pred = model.predict(&x);
        assert!(
            pred.iter().all(|&c| c == 0),
            "should predict majority class"
        );
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_out_of_range_labels() {
        let x = DenseMatrix::from_rows(&[vec![1.0]]);
        GbdtClassifier::fit(&x, &[5], 2, &GbdtParams::default(), 0);
    }

    #[test]
    fn n_trees_matches_rounds_times_classes() {
        let (x, y) = gaussian_blobs(10, 1);
        let params = GbdtParams {
            rounds: 4,
            ..GbdtParams::default()
        };
        let model = GbdtClassifier::fit(&x, &y, 3, &params, 0);
        assert_eq!(model.n_trees(), 12);
    }

    #[test]
    fn argmax_prefers_first_on_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), 1);
        assert_eq!(argmax(&[2.0]), 0);
    }

    #[test]
    fn feature_importance_identifies_the_informative_feature() {
        // Feature 0 decides the class, feature 1 is pure noise.
        let mut rng = StdRng::seed_from_u64(12);
        let rows: Vec<Vec<f32>> = (0..200)
            .map(|i| vec![f32::from(u8::from(i % 2 == 0)), rng.random_range(0.0..4.0)])
            .collect();
        let y: Vec<u32> = rows.iter().map(|r| r[0] as u32).collect();
        let x = DenseMatrix::from_rows(&rows);
        let params = GbdtParams {
            rounds: 10,
            min_child_weight: 0.1,
            ..GbdtParams::default()
        };
        let model = GbdtClassifier::fit(&x, &y, 2, &params, 5);
        let imp = model.feature_importance(2);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > 0.7, "informative feature should dominate: {imp:?}");
    }
}
