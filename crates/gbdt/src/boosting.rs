//! Multiclass softmax gradient boosting over histogram regression trees.
//!
//! Each round fits one tree per class on the softmax gradients
//! `g_i = p_i − 1{y_i = c}` and hessians `h_i = p_i (1 − p_i)`, applying
//! shrinkage, row subsampling and per-tree column subsampling. Defaults are
//! scaled-down XGBoost-style parameters suitable for the attack workloads of
//! the paper (tens of thousands of rows, a few hundred binary/categorical
//! features).

use std::ops::Range;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::RwLock;

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

/// Splits `0..n` into at most `parts` contiguous, near-equal, non-empty
/// ranges.
fn row_chunks(n: usize, parts: usize) -> Vec<Range<usize>> {
    let len = n.div_ceil(parts.max(1)).max(1);
    (0..n).step_by(len).map(|a| a..(a + len).min(n)).collect()
}

const POISONED: &str = "a boosting worker panicked";

/// The rows and candidate features one class's tree is fitted on.
struct Draw {
    rows: Vec<u32>,
    features: Vec<u32>,
}

/// A unit of a boosting round's work.
enum Job {
    /// The softmax of one row chunk.
    Softmax(usize),
    /// One class's tree.
    Tree(usize, Draw),
}

/// What one worker keeps for a whole fit.
struct Worker {
    learner: TreeLearner,
    /// Per row: the gradient and hessian of the current tree's class.
    grad: Vec<f64>,
    hess: Vec<f64>,
    /// Per row: whether the current tree's sample holds it.
    in_sample: Vec<bool>,
}

impl Worker {
    fn new(n: usize) -> Self {
        Worker {
            learner: TreeLearner::default(),
            grad: vec![0.0; n],
            hess: vec![0.0; n],
            in_sample: vec![false; n],
        }
    }
}

/// The state a fit's workers share. Scores are class-major, one column per
/// class, so a class's tree adds its leaves into its own column; the
/// probabilities are row-chunked (class-major within a chunk), so a chunk's
/// softmax writes only its own block. Within a phase no lock is contended:
/// the softmax phase reads every score column and writes one chunk, the
/// tree phase reads every chunk and writes one column.
struct Booster<'a> {
    binned: &'a BinnedMatrix,
    y: &'a [u32],
    tree_params: TreeParams,
    learning_rate: f64,
    /// `scores[c][i]`: row `i`'s raw score for class `c`.
    scores: Vec<RwLock<Vec<f64>>>,
    /// The softmax's row chunks.
    chunks: Vec<Range<usize>>,
    /// `probs[k][c * chunks[k].len() + j]`: the probability of class `c` for
    /// row `chunks[k].start + j`.
    probs: Vec<RwLock<Vec<f64>>>,
}

impl Booster<'_> {
    /// Runs one job; a tree job returns its tree.
    fn run(&self, job: Job, w: &mut Worker) -> Option<RegressionTree> {
        match job {
            Job::Softmax(k) => {
                self.softmax(k);
                None
            }
            Job::Tree(class, draw) => Some(self.tree(class, &draw, w)),
        }
    }

    /// Each row of chunk `k` gets the softmax of its class scores. The rows
    /// are taken a block at a time, a class column at a time, but each
    /// row's max, exponentials, running total and divisions are the ones
    /// [`softmax`] takes, in the same class order.
    fn softmax(&self, k: usize) {
        const BLOCK: usize = 256;
        let scores: Vec<_> = self
            .scores
            .iter()
            .map(|s| s.read().expect(POISONED))
            .collect();
        let mut probs = self.probs[k].write().expect(POISONED);
        let chunk = self.chunks[k].clone();
        let len = chunk.len();
        for a in (0..len).step_by(BLOCK) {
            let b = (a + BLOCK).min(len);
            let mut max = [f64::NEG_INFINITY; BLOCK];
            let mut total = [0.0f64; BLOCK];
            for s in &scores {
                let s = &s[chunk.start + a..chunk.start + b];
                for (m, &v) in max.iter_mut().zip(s) {
                    *m = m.max(v);
                }
            }
            for (s, p) in scores.iter().zip(probs.chunks_exact_mut(len)) {
                let s = &s[chunk.start + a..chunk.start + b];
                for (((p, &v), &m), t) in p[a..b].iter_mut().zip(s).zip(&max).zip(&mut total) {
                    *p = (v - m).exp();
                    *t += *p;
                }
            }
            for p in probs.chunks_exact_mut(len) {
                for (p, &t) in p[a..b].iter_mut().zip(&total) {
                    *p /= t;
                }
            }
        }
    }

    /// Fits class `class`'s tree on the softmax gradients
    /// `g_i = p_i − 1{y_i = c}`, `h_i = p_i (1 − p_i)` and adds its shrunken
    /// leaves into the class's score column, one add per row.
    fn tree(&self, class: usize, draw: &Draw, w: &mut Worker) -> RegressionTree {
        for (chunk, probs) in self.chunks.iter().zip(&self.probs) {
            let probs = probs.read().expect(POISONED);
            let column = &probs[class * chunk.len()..(class + 1) * chunk.len()];
            for (i, &p) in chunk.clone().zip(column) {
                let target = if self.y[i] as usize == class {
                    1.0
                } else {
                    0.0
                };
                w.grad[i] = p - target;
                w.hess[i] = (p * (1.0 - p)).max(1e-9);
            }
        }
        let tree = w.learner.fit(
            self.binned,
            &w.grad,
            &w.hess,
            &draw.rows,
            &draw.features,
            &self.tree_params,
        );
        // In-sample rows take their leaf from the learner; only the rows
        // subsampling left out walk the tree.
        let mut scores = self.scores[class].write().expect(POISONED);
        for (&i, &leaf) in draw.rows.iter().zip(w.learner.leaves()) {
            scores[i as usize] += self.learning_rate * f64::from(leaf);
            w.in_sample[i as usize] = true;
        }
        for (i, (in_sample, score)) in w.in_sample.iter_mut().zip(scores.iter_mut()).enumerate() {
            if !std::mem::take(in_sample) {
                let leaf = tree.predict_binned(self.binned.row(i));
                *score += self.learning_rate * f64::from(leaf);
            }
        }
        tree
    }
}

/// A spawned worker's job and result channels.
type Lane = (Sender<Job>, Receiver<Option<RegressionTree>>);

/// Runs one phase's jobs in waves of one job per worker, worker 0 being the
/// calling thread: a wave's jobs are taken from `jobs`, in order, and handed
/// out before the calling thread runs its own, so only about one wave is
/// alive at a time. Job `j` thus runs on worker `j % workers`. Returns each
/// job's result in job order.
fn run_phase(
    booster: &Booster<'_>,
    mut jobs: impl Iterator<Item = Job>,
    own: &mut Worker,
    lanes: &[Lane],
) -> Vec<Option<RegressionTree>> {
    let workers = lanes.len() + 1;
    let mut mine = Vec::new();
    let mut n_jobs = 0;
    loop {
        let mut wave = jobs.by_ref().take(workers);
        let Some(first) = wave.next() else { break };
        n_jobs += 1;
        for (lane, job) in lanes.iter().zip(wave) {
            lane.0.send(job).expect(POISONED);
            n_jobs += 1;
        }
        mine.push(booster.run(first, own));
    }
    let mut mine = mine.into_iter();
    (0..n_jobs)
        .map(|j| match j % workers {
            0 => mine.next().expect("one result per own job"),
            w => lanes[w - 1].1.recv().expect(POISONED),
        })
        .collect()
}

/// Runs `f` over near-equal row chunks of `0..n` on up to `threads`
/// threads (the first chunk on the calling thread) and concatenates the
/// results in row order.
fn par_rows<T: Send>(
    n: usize,
    threads: usize,
    f: impl Fn(Range<usize>) -> Vec<T> + Sync,
) -> Vec<T> {
    let mut chunks = row_chunks(n, threads).into_iter();
    let Some(first) = chunks.next() else {
        return Vec::new();
    };
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = chunks.map(|c| s.spawn(move || f(c))).collect();
        let mut out = f(first);
        for h in handles {
            out.extend(h.join().expect("a prediction worker panicked"));
        }
        out
    })
}

impl GbdtClassifier {
    /// Fits a model on `x` with labels `y` in `0..n_classes`, on up to
    /// `threads` threads (`0` counts as `1`), the calling thread included.
    ///
    /// The workers are spawned once per fit. Each round splits its softmax
    /// over row chunks without changing any row's arithmetic, then fits its
    /// per-class trees in parallel. The trees take their row and feature
    /// draws in class order, as a serial loop does, and each reads only the
    /// round's probabilities and adds into only its class's score column,
    /// so every score still gets one add per tree. The model is therefore
    /// bit-identical for every thread count.
    ///
    /// # Panics
    /// Panics when `x` has no rows, `x`/`y` lengths disagree,
    /// `n_classes == 0`, a label is out of range, or a sampling fraction is
    /// outside `(0, 1]`.
    pub fn fit(
        x: &DenseMatrix,
        y: &[u32],
        n_classes: usize,
        params: &GbdtParams,
        seed: u64,
        threads: usize,
    ) -> Self {
        assert_eq!(x.n_rows(), y.len(), "labels must match rows");
        assert!(x.n_rows() > 0, "need at least one training row");
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

        let chunks = row_chunks(n, threads);
        let booster = Booster {
            binned: &binned,
            y,
            tree_params: TreeParams {
                max_depth: params.max_depth,
                lambda: params.lambda,
                gamma: params.gamma,
                min_child_weight: params.min_child_weight,
            },
            learning_rate: params.learning_rate,
            scores: base_scores
                .iter()
                .map(|&b| RwLock::new(vec![b; n]))
                .collect(),
            probs: chunks
                .iter()
                .map(|c| RwLock::new(vec![0.0; c.len() * n_classes]))
                .collect(),
            chunks,
        };
        let draw = |rng: &mut StdRng| Draw {
            rows: if params.subsample < 1.0 {
                let m = ((n as f64 * params.subsample) as usize).max(1);
                sample(rng, n, m).into_iter().map(|i| i as u32).collect()
            } else {
                (0..n as u32).collect()
            },
            features: if params.colsample < 1.0 && f > 1 {
                let m = ((f as f64 * params.colsample) as usize).clamp(1, f);
                sample(rng, f, m).into_iter().map(|i| i as u32).collect()
            } else {
                (0..f as u32).collect()
            },
        };

        // One worker per softmax chunk, and no more than there are trees to
        // fit at once otherwise.
        let workers = booster.chunks.len().max(threads.min(n_classes));
        let trees = std::thread::scope(|s| {
            let lanes: Vec<Lane> = (1..workers)
                .map(|_| {
                    let (job_tx, job_rx) = mpsc::channel();
                    let (done_tx, done_rx) = mpsc::channel();
                    let booster = &booster;
                    s.spawn(move || {
                        let mut worker = Worker::new(n);
                        for job in job_rx {
                            if done_tx.send(booster.run(job, &mut worker)).is_err() {
                                break;
                            }
                        }
                    });
                    (job_tx, done_rx)
                })
                .collect();
            let mut own = Worker::new(n);
            (0..params.rounds)
                .map(|_| {
                    let softmax = (0..booster.chunks.len()).map(Job::Softmax);
                    run_phase(&booster, softmax, &mut own, &lanes);
                    // The same draws, in the same order, as a serial loop
                    // taking them class by class.
                    let trees = (0..n_classes).map(|c| Job::Tree(c, draw(&mut rng)));
                    run_phase(&booster, trees, &mut own, &lanes)
                        .into_iter()
                        .map(|tree| tree.expect("a tree job returns its tree"))
                        .collect()
                })
                .collect()
        });

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

    /// Runs `per_row(scores)` on every row of `x`'s raw scores, over row
    /// chunks on up to `threads` threads.
    ///
    /// # Panics
    /// Panics when `x`'s width differs from the training matrix's.
    fn map_rows<T: Send>(
        &self,
        x: &DenseMatrix,
        threads: usize,
        per_row: impl Fn(&mut [f64]) -> T + Sync,
    ) -> Vec<T> {
        let fitted = self.spec.n_bins.len();
        assert_eq!(
            x.n_cols(),
            fitted,
            "feature matrix has {} columns, the model was fitted on {fitted}",
            x.n_cols()
        );
        par_rows(x.n_rows(), threads, |rows| {
            let mut bins = Vec::with_capacity(x.n_cols());
            let mut scores = vec![0.0; self.n_classes];
            rows.map(|i| {
                self.raw_scores_into(x.row(i), &mut bins, &mut scores);
                per_row(&mut scores)
            })
            .collect()
        })
    }

    /// Class-probability predictions for every row of `x`, on up to
    /// `threads` threads (identical for every count).
    ///
    /// # Panics
    /// Panics when `x`'s width differs from the training matrix's.
    pub fn predict_proba(&self, x: &DenseMatrix, threads: usize) -> Vec<Vec<f64>> {
        self.map_rows(x, threads, |scores| {
            softmax(scores);
            scores.to_vec()
        })
    }

    /// Hard class predictions for every row of `x`, on up to `threads`
    /// threads (identical for every count).
    ///
    /// # Panics
    /// Panics when `x`'s width differs from the training matrix's.
    pub fn predict(&self, x: &DenseMatrix, threads: usize) -> Vec<u32> {
        self.map_rows(x, threads, |scores| argmax(scores) as u32)
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
        let model = GbdtClassifier::fit(&x, &y, 3, &params, 7, 1);
        let acc = crate::metrics::accuracy(&y, &model.predict(&x, 1));
        assert!(acc > 0.98, "train accuracy {acc}");
    }

    #[test]
    fn probabilities_are_valid() {
        let (x, y) = gaussian_blobs(30, 5);
        let model = GbdtClassifier::fit(&x, &y, 3, &GbdtParams::default(), 1, 1);
        for p in model.predict_proba(&x, 1) {
            assert_eq!(p.len(), 3);
            assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = gaussian_blobs(40, 9);
        let a = GbdtClassifier::fit(&x, &y, 3, &GbdtParams::default(), 11, 1).predict(&x, 1);
        let b = GbdtClassifier::fit(&x, &y, 3, &GbdtParams::default(), 11, 1).predict(&x, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn single_class_predicts_that_class() {
        let x = DenseMatrix::from_rows(&[vec![1.0], vec![2.0]]);
        let y = vec![0u32, 0];
        let model = GbdtClassifier::fit(&x, &y, 1, &GbdtParams::default(), 0, 1);
        assert_eq!(model.predict(&x, 1), vec![0, 0]);
    }

    #[test]
    fn base_score_beats_uniform_on_unbalanced_labels() {
        // With no usable features, predictions should follow the label prior.
        let x = DenseMatrix::from_rows(&(0..100).map(|_| vec![1.0f32]).collect::<Vec<_>>());
        let y: Vec<u32> = (0..100).map(|i| u32::from(i >= 90)).collect();
        let model = GbdtClassifier::fit(&x, &y, 2, &GbdtParams::default(), 3, 1);
        let pred = model.predict(&x, 1);
        assert!(
            pred.iter().all(|&c| c == 0),
            "should predict majority class"
        );
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_out_of_range_labels() {
        let x = DenseMatrix::from_rows(&[vec![1.0]]);
        GbdtClassifier::fit(&x, &[5], 2, &GbdtParams::default(), 0, 1);
    }

    #[test]
    fn n_trees_matches_rounds_times_classes() {
        let (x, y) = gaussian_blobs(10, 1);
        let params = GbdtParams {
            rounds: 4,
            ..GbdtParams::default()
        };
        let model = GbdtClassifier::fit(&x, &y, 3, &params, 0, 1);
        assert_eq!(model.trees.iter().map(Vec::len).sum::<usize>(), 12);
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
        let model = GbdtClassifier::fit(&x, &y, 2, &params, 5, 1);
        let imp = model.feature_importance(2);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > 0.7, "informative feature should dominate: {imp:?}");
    }

    #[test]
    #[should_panic(expected = "need at least one training row")]
    fn rejects_empty_input() {
        let x = DenseMatrix::from_flat(Vec::new(), 0, 3);
        GbdtClassifier::fit(&x, &[], 2, &GbdtParams::default(), 0, 1);
    }

    #[test]
    #[should_panic(expected = "feature matrix has 1 columns, the model was fitted on 2")]
    fn predict_rejects_a_narrower_matrix() {
        let (x, y) = gaussian_blobs(10, 2);
        let model = GbdtClassifier::fit(&x, &y, 3, &GbdtParams::default(), 0, 1);
        model.predict(&DenseMatrix::from_rows(&[vec![0.0]]), 2);
    }

    #[test]
    #[should_panic(expected = "feature matrix has 3 columns, the model was fitted on 2")]
    fn predict_proba_rejects_a_wider_matrix() {
        let (x, y) = gaussian_blobs(10, 2);
        let model = GbdtClassifier::fit(&x, &y, 3, &GbdtParams::default(), 0, 1);
        model.predict_proba(&DenseMatrix::from_rows(&[vec![0.0; 3]]), 2);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        /// Fit, prediction and importance are bit-identical at 1, 2, 3 and 8
        /// threads: on fewer rows than threads, on one class and on more
        /// classes than threads, with and without row and column
        /// subsampling, at depths 0 to 6.
        #[test]
        fn fit_and_predict_are_thread_count_invariant(
            seed in proptest::any::<u64>(),
            n in proptest::prop_oneof![1usize..8, 8usize..300],
            n_classes in proptest::prop_oneof![proptest::Just(1usize), 2usize..13],
            subsample in proptest::prop_oneof![proptest::Just(1.0f64), 0.2f64..1.0],
            colsample in proptest::prop_oneof![proptest::Just(1.0f64), 0.2f64..1.0],
            max_depth in 0usize..7,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let f = rng.random_range(1..6usize);
            // Integer-coded and continuous features, as the attacks feed.
            let rows: Vec<Vec<f32>> = (0..n)
                .map(|_| {
                    (0..f)
                        .map(|j| match j % 2 {
                            0 => rng.random_range(0..5u32) as f32,
                            _ => rng.random_range(-3.0f32..3.0),
                        })
                        .collect()
                })
                .collect();
            let y: Vec<u32> = (0..n).map(|_| rng.random_range(0..n_classes as u32)).collect();
            let x = DenseMatrix::from_rows(&rows);
            let params = GbdtParams {
                rounds: rng.random_range(1..4usize),
                max_depth,
                min_child_weight: rng.random_range(0.0..0.5),
                subsample,
                colsample,
                ..GbdtParams::default()
            };
            let fit_seed = rng.random();
            let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            let serial = GbdtClassifier::fit(&x, &y, n_classes, &params, fit_seed, 1);
            let proba: Vec<_> = serial.predict_proba(&x, 1).iter().map(|p| bits(p)).collect();
            let importance = bits(&serial.feature_importance(f));
            for threads in [1, 2, 3, 8] {
                let model = GbdtClassifier::fit(&x, &y, n_classes, &params, fit_seed, threads);
                assert!(model.trees == serial.trees, "trees differ at {threads} threads");
                let got: Vec<_> = model.predict_proba(&x, threads).iter().map(|p| bits(p)).collect();
                assert_eq!(got, proba, "probabilities differ at {threads} threads");
                assert_eq!(model.predict(&x, threads), serial.predict(&x, 1));
                assert_eq!(bits(&model.feature_importance(f)), importance);
            }
        }
    }
}
