//! Histogram-based regression tree for gradient boosting.
//!
//! Trees are grown level-wise on pre-binned features. A tree first gathers
//! its rows once, in `rows` order: each row's (gradient, hessian) pair, its
//! bins of the candidate features and a node id. Each level then makes
//! sequential passes over that working set: one fills flat per-node
//! (gradient, hessian) histograms, and after split search one moves every
//! row of a split node to its child while summing the children's totals. A
//! split maximizes the standard second-order gain
//! `G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ)` subject to a minimum child
//! hessian weight and a `γ` complexity penalty.
//!
//! Rows never change places, so every node visits its rows in their
//! original `rows` order: the order a depth-first builder with a stable
//! partition gives them. Every histogram cell and node total is therefore
//! summed in the same order, so splits, gains and leaf values are
//! bit-identical to that builder's (kept as the test reference). Nodes are
//! emitted in pre-order, as it emits them, so node indices and the
//! gain-weighted feature importance are identical too.

use crate::data::BinnedMatrix;

/// Hyper-parameters of a single tree (shared with the booster).
#[derive(Debug, Clone)]
pub struct TreeParams {
    /// Maximum tree depth (`0` ⇒ a single leaf).
    pub max_depth: usize,
    /// L2 regularization `λ` on leaf values.
    pub lambda: f64,
    /// Minimum split gain `γ`.
    pub gamma: f64,
    /// Minimum hessian sum per child.
    pub min_child_weight: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams {
            max_depth: 5,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1.0,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Split {
        feature: u32,
        /// Rows with `bin <= threshold_bin` go left.
        threshold_bin: u16,
        /// Split gain (for gain-weighted feature importance).
        gain: f32,
        left: u32,
        right: u32,
    },
    Leaf {
        value: f32,
    },
}

/// A fitted regression tree over binned features.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionTree {
    nodes: Vec<Node>,
}

fn leaf_value(g: f64, h: f64, params: &TreeParams) -> f32 {
    (-g / (h + params.lambda)) as f32
}

/// A candidate feature with at least two bins (a single-bin feature offers
/// no threshold), and where its cells start in a node's histogram.
struct Candidate {
    feature: u32,
    n_bins: usize,
    offset: usize,
}

struct BestSplit {
    /// Index into the candidates.
    slot: usize,
    threshold_bin: u16,
    gain: f64,
}

/// The best split of a node from its histogram, or `None` when no
/// threshold passes the child-weight and gain constraints.
fn best_split(
    hist: &[(f64, f64)],
    candidates: &[Candidate],
    g_total: f64,
    h_total: f64,
    params: &TreeParams,
) -> Option<BestSplit> {
    let lambda = params.lambda;
    let parent_score = g_total * g_total / (h_total + lambda);
    let mut best: Option<BestSplit> = None;
    for (slot, c) in candidates.iter().enumerate() {
        let (mut gl, mut hl) = (0.0, 0.0);
        // Threshold after each bin except the last.
        for (b, &(g, h)) in hist[c.offset..c.offset + c.n_bins - 1].iter().enumerate() {
            gl += g;
            hl += h;
            let (gr, hr) = (g_total - gl, h_total - hl);
            if hl < params.min_child_weight || hr < params.min_child_weight {
                continue;
            }
            let gain = gl * gl / (hl + lambda) + gr * gr / (hr + lambda) - parent_score;
            if gain > params.gamma && best.as_ref().is_none_or(|b| gain > b.gain) {
                best = Some(BestSplit {
                    slot,
                    threshold_bin: b as u16,
                    gain,
                });
            }
        }
    }
    best
}

/// A node of the tree under construction, numbered in creation order
/// (level by level).
#[derive(Debug, Clone, Copy)]
enum Proto {
    /// On the current level, not yet decided.
    Open,
    Leaf,
    /// Split by `route`; the children are `route.left` and `route.left + 1`.
    Split {
        route: Route,
        gain: f64,
    },
    /// A child of a split that sent every row to one side. The split is
    /// undone: the parent is a leaf and this child's rows are its rows.
    Merged {
        parent: u32,
    },
}

/// A node's gradient and hessian totals and row count, summed in row order.
#[derive(Debug, Clone, Copy, Default)]
struct Totals {
    g: f64,
    h: f64,
    count: usize,
}

/// Where the rows of a node go at the end of a level: a row moves to `left`
/// when its bin of candidate `slot` is at most `threshold_bin`, else to
/// `left + 1`.
#[derive(Debug, Clone, Copy)]
struct Route {
    slot: usize,
    threshold_bin: u16,
    left: u32,
}

/// The route of a node that does not split: its rows stay.
const STAY: Route = Route {
    slot: 0,
    threshold_bin: 0,
    left: u32::MAX,
};

/// Marks a node without a histogram on the current level.
const NO_HIST: usize = usize::MAX;

/// The level-wise tree learner and its working buffers, reusable across
/// trees.
#[derive(Debug, Default)]
pub(crate) struct TreeLearner {
    /// (gradient, hessian) per row, in `rows` order.
    gh: Vec<(f64, f64)>,
    /// Candidate-feature bins per row, row-major in `rows` order.
    bins: Vec<u16>,
    /// Node id per row, in `rows` order.
    node: Vec<u32>,
    /// The current level's histograms, one block of cells per node.
    hist: Vec<(f64, f64)>,
    /// Leaf value per row of the last fit, in `rows` order.
    leaves: Vec<f32>,
}

impl TreeLearner {
    /// Fits a tree to (grad, hess) targets over the rows in `rows` using the
    /// candidate `features`. [`TreeLearner::leaves`] then holds each row's
    /// leaf value.
    pub(crate) fn fit(
        &mut self,
        x: &BinnedMatrix,
        grad: &[f64],
        hess: &[f64],
        rows: &[u32],
        features: &[u32],
        params: &TreeParams,
    ) -> RegressionTree {
        assert_eq!(grad.len(), x.n_rows(), "grad length mismatch");
        assert_eq!(hess.len(), x.n_rows(), "hess length mismatch");
        self.leaves.clear();
        if rows.is_empty() {
            return RegressionTree {
                nodes: vec![Node::Leaf { value: 0.0 }],
            };
        }

        let mut width = 0;
        let candidates: Vec<Candidate> = features
            .iter()
            .filter_map(|&feature| {
                let n_bins = usize::from(x.spec.n_bins[feature as usize]);
                (n_bins >= 2).then(|| {
                    width += n_bins;
                    Candidate {
                        feature,
                        n_bins,
                        offset: width - n_bins,
                    }
                })
            })
            .collect();
        // Rows' bin chunks; with no candidate there are no bins and no
        // split, and a chunk width of one keeps the row passes empty.
        let nf = candidates.len().max(1);

        // Gather once, summing the root's totals in row order.
        self.gh.clear();
        self.bins.clear();
        let mut root = Totals {
            count: rows.len(),
            ..Totals::default()
        };
        for &i in rows {
            let (g, h) = (grad[i as usize], hess[i as usize]);
            root.g += g;
            root.h += h;
            self.gh.push((g, h));
            let row = x.row(i as usize);
            self.bins
                .extend(candidates.iter().map(|c| row[c.feature as usize]));
        }
        self.node.clear();
        self.node.resize(rows.len(), 0);

        let mut protos = vec![Proto::Open];
        let mut totals = vec![root];
        let mut level: Vec<u32> = vec![0];
        let mut hist_of: Vec<usize> = Vec::new();
        let mut routes: Vec<Route> = Vec::new();
        let mut splitting: Vec<u32> = Vec::new();
        for depth in 0.. {
            // Nodes the depth, size and weight limits stop become leaves;
            // the rest get a histogram.
            hist_of.clear();
            hist_of.resize(protos.len(), NO_HIST);
            let mut n_hist = 0;
            for &s in &level {
                let t = totals[s as usize];
                if depth >= params.max_depth || t.count < 2 || t.h < 2.0 * params.min_child_weight {
                    protos[s as usize] = Proto::Leaf;
                } else {
                    hist_of[s as usize] = n_hist;
                    n_hist += 1;
                }
            }
            if n_hist == 0 {
                break;
            }

            self.hist.clear();
            self.hist.resize(n_hist * width, (0.0, 0.0));
            let row_bins = self.bins.chunks_exact(nf);
            for ((&s, &(g, h)), bins) in self.node.iter().zip(&self.gh).zip(row_bins) {
                let slot = hist_of[s as usize];
                if slot == NO_HIST {
                    continue;
                }
                let hist = &mut self.hist[slot * width..(slot + 1) * width];
                for (c, &b) in candidates.iter().zip(bins) {
                    let cell = &mut hist[c.offset + usize::from(b)];
                    cell.0 += g;
                    cell.1 += h;
                }
            }

            // Rows only sit in nodes that existed before this split search,
            // so those are the nodes that need a route.
            routes.clear();
            routes.resize(protos.len(), STAY);
            splitting.clear();
            for &s in &level {
                let slot = hist_of[s as usize];
                if slot == NO_HIST {
                    continue;
                }
                let hist = &self.hist[slot * width..(slot + 1) * width];
                let t = totals[s as usize];
                protos[s as usize] = match best_split(hist, &candidates, t.g, t.h, params) {
                    None => Proto::Leaf,
                    Some(best) => {
                        let route = Route {
                            slot: best.slot,
                            threshold_bin: best.threshold_bin,
                            left: protos.len() as u32,
                        };
                        protos.extend([Proto::Open; 2]);
                        totals.extend([Totals::default(); 2]);
                        routes[s as usize] = route;
                        splitting.push(s);
                        Proto::Split {
                            route,
                            gain: best.gain,
                        }
                    }
                };
            }

            // Move each row of a split node to its child, summing the
            // children's totals in row order.
            let row_bins = self.bins.chunks_exact(nf);
            for ((s, &(g, h)), bins) in self.node.iter_mut().zip(&self.gh).zip(row_bins) {
                let route = routes[*s as usize];
                if route.left == STAY.left {
                    continue;
                }
                *s = route.left + u32::from(bins[route.slot] > route.threshold_bin);
                let t = &mut totals[*s as usize];
                t.g += g;
                t.h += h;
                t.count += 1;
            }

            level.clear();
            for &s in &splitting {
                let left = routes[s as usize].left;
                let right = left + 1;
                if totals[left as usize].count == 0 || totals[right as usize].count == 0 {
                    protos[s as usize] = Proto::Leaf;
                    protos[left as usize] = Proto::Merged { parent: s };
                    protos[right as usize] = Proto::Merged { parent: s };
                } else {
                    level.extend([left, right]);
                }
            }
        }

        // Leaf values per node (a parent precedes its children), then per row.
        let mut values = vec![0.0f32; protos.len()];
        for s in 0..protos.len() {
            values[s] = match protos[s] {
                Proto::Leaf => leaf_value(totals[s].g, totals[s].h, params),
                Proto::Merged { parent } => values[parent as usize],
                Proto::Open | Proto::Split { .. } => continue,
            };
        }
        self.leaves
            .extend(self.node.iter().map(|&s| values[s as usize]));

        let mut nodes = Vec::with_capacity(protos.len());
        emit_preorder(&protos, &candidates, &values, 0, &mut nodes);
        RegressionTree { nodes }
    }

    /// Leaf value reached by each row of the last [`TreeLearner::fit`], in
    /// its `rows` order.
    pub(crate) fn leaves(&self) -> &[f32] {
        &self.leaves
    }
}

/// Appends the subtree at node `s` to `nodes` in pre-order and returns its
/// index.
fn emit_preorder(
    protos: &[Proto],
    candidates: &[Candidate],
    values: &[f32],
    s: u32,
    nodes: &mut Vec<Node>,
) -> u32 {
    let idx = nodes.len() as u32;
    let Proto::Split { route, gain } = protos[s as usize] else {
        nodes.push(Node::Leaf {
            value: values[s as usize],
        });
        return idx;
    };
    // Placeholder, patched after children are emitted.
    nodes.push(Node::Leaf { value: 0.0 });
    let left = emit_preorder(protos, candidates, values, route.left, nodes);
    let right = emit_preorder(protos, candidates, values, route.left + 1, nodes);
    nodes[idx as usize] = Node::Split {
        feature: candidates[route.slot].feature,
        threshold_bin: route.threshold_bin,
        gain: gain as f32,
        left,
        right,
    };
    idx
}

impl RegressionTree {
    /// Fits a tree to (grad, hess) targets over the rows in `rows` using the
    /// candidate `features`.
    pub fn fit(
        x: &BinnedMatrix,
        grad: &[f64],
        hess: &[f64],
        rows: &[u32],
        features: &[u32],
        params: &TreeParams,
    ) -> Self {
        TreeLearner::default().fit(x, grad, hess, rows, features, params)
    }

    /// Predicts the raw leaf value for one binned feature row.
    pub fn predict_binned(&self, bins: &[u16]) -> f32 {
        // Root is node 0 (nodes are stored in pre-order).
        let mut idx = 0usize;
        loop {
            match &self.nodes[idx] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold_bin,
                    left,
                    right,
                    ..
                } => {
                    idx = if bins[*feature as usize] <= *threshold_bin {
                        *left as usize
                    } else {
                        *right as usize
                    };
                }
            }
        }
    }

    /// Adds this tree's split gains per feature into `importance`
    /// (gain-weighted feature importance — robust against late rounds
    /// chasing noise with many near-zero-gain splits).
    pub fn accumulate_importance(&self, importance: &mut [f64]) {
        for node in &self.nodes {
            if let Node::Split { feature, gain, .. } = node {
                if let Some(slot) = importance.get_mut(*feature as usize) {
                    *slot += f64::from(*gain);
                }
            }
        }
    }
}

/// The depth-first builder the level-wise learner replaced, kept as the
/// reference it must match bit for bit.
#[cfg(test)]
mod reference {
    use super::*;

    struct Builder<'a> {
        x: &'a BinnedMatrix,
        grad: &'a [f64],
        hess: &'a [f64],
        features: &'a [u32],
        params: &'a TreeParams,
        nodes: Vec<Node>,
    }

    struct BestSplit {
        feature: u32,
        threshold_bin: u16,
        gain: f64,
    }

    impl Builder<'_> {
        fn leaf_value(&self, g: f64, h: f64) -> f32 {
            (-g / (h + self.params.lambda)) as f32
        }

        /// Builds the subtree over `rows` (mutated in place by
        /// partitioning) and returns its node index.
        fn build(&mut self, rows: &mut [u32], depth: usize) -> u32 {
            let (g_total, h_total) = rows.iter().fold((0.0, 0.0), |(g, h), &i| {
                (g + self.grad[i as usize], h + self.hess[i as usize])
            });

            let make_leaf = |b: &mut Self| {
                b.nodes.push(Node::Leaf {
                    value: b.leaf_value(g_total, h_total),
                });
                (b.nodes.len() - 1) as u32
            };

            if depth >= self.params.max_depth
                || rows.len() < 2
                || h_total < 2.0 * self.params.min_child_weight
            {
                return make_leaf(self);
            }

            let best = match self.find_best_split(rows, g_total, h_total) {
                Some(b) => b,
                None => return make_leaf(self),
            };

            // Stable in-place partition: left rows first.
            let mid = partition(rows, |&i| {
                self.x.bin(i as usize, best.feature as usize) <= best.threshold_bin
            });
            if mid == 0 || mid == rows.len() {
                return make_leaf(self);
            }

            let node_idx = self.nodes.len() as u32;
            // Placeholder, patched after children are built.
            self.nodes.push(Node::Leaf { value: 0.0 });
            let (left_rows, right_rows) = rows.split_at_mut(mid);
            let left = self.build(left_rows, depth + 1);
            let right = self.build(right_rows, depth + 1);
            self.nodes[node_idx as usize] = Node::Split {
                feature: best.feature,
                threshold_bin: best.threshold_bin,
                gain: best.gain as f32,
                left,
                right,
            };
            node_idx
        }

        fn find_best_split(&self, rows: &[u32], g_total: f64, h_total: f64) -> Option<BestSplit> {
            let lambda = self.params.lambda;
            let parent_score = g_total * g_total / (h_total + lambda);
            let mut best: Option<BestSplit> = None;

            // One histogram per candidate feature, filled in a single row pass.
            let mut hists: Vec<Vec<(f64, f64)>> = self
                .features
                .iter()
                .map(|&f| vec![(0.0, 0.0); self.x.spec.n_bins[f as usize] as usize])
                .collect();
            for &i in rows {
                let i = i as usize;
                let (g, h) = (self.grad[i], self.hess[i]);
                let row = self.x.row(i);
                for (slot, &f) in self.features.iter().enumerate() {
                    let b = row[f as usize] as usize;
                    let cell = &mut hists[slot][b];
                    cell.0 += g;
                    cell.1 += h;
                }
            }

            for (slot, &f) in self.features.iter().enumerate() {
                let hist = &hists[slot];
                if hist.len() < 2 {
                    continue;
                }
                let (mut gl, mut hl) = (0.0, 0.0);
                // Threshold after each bin except the last.
                for (b, &(g, h)) in hist.iter().enumerate().take(hist.len() - 1) {
                    gl += g;
                    hl += h;
                    let (gr, hr) = (g_total - gl, h_total - hl);
                    if hl < self.params.min_child_weight || hr < self.params.min_child_weight {
                        continue;
                    }
                    let gain = gl * gl / (hl + lambda) + gr * gr / (hr + lambda) - parent_score;
                    if gain > self.params.gamma && best.as_ref().is_none_or(|b| gain > b.gain) {
                        best = Some(BestSplit {
                            feature: f,
                            threshold_bin: b as u16,
                            gain,
                        });
                    }
                }
            }
            best
        }
    }

    /// Stable partition of `rows`: predicate-true rows first; returns the
    /// split point.
    pub(super) fn partition<F: Fn(&u32) -> bool>(rows: &mut [u32], pred: F) -> usize {
        let mut buf: Vec<u32> = Vec::with_capacity(rows.len());
        let mut mid = 0;
        for &r in rows.iter() {
            if pred(&r) {
                buf.push(r);
                mid += 1;
            }
        }
        for &r in rows.iter() {
            if !pred(&r) {
                buf.push(r);
            }
        }
        rows.copy_from_slice(&buf);
        mid
    }

    /// Fits a tree depth-first, partitioning `rows` in place.
    pub(super) fn fit(
        x: &BinnedMatrix,
        grad: &[f64],
        hess: &[f64],
        rows: &mut [u32],
        features: &[u32],
        params: &TreeParams,
    ) -> RegressionTree {
        let mut builder = Builder {
            x,
            grad,
            hess,
            features,
            params,
            nodes: Vec::new(),
        };
        if rows.is_empty() {
            builder.nodes.push(Node::Leaf { value: 0.0 });
        } else {
            builder.build(rows, 0);
        }
        RegressionTree {
            nodes: builder.nodes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{BinnedMatrix, BinningSpec, DenseMatrix};

    fn binned(rows: &[Vec<f32>]) -> BinnedMatrix {
        let m = DenseMatrix::from_rows(rows);
        let spec = BinningSpec::fit(&m, 64);
        BinnedMatrix::from_matrix(&m, spec)
    }

    #[test]
    fn fits_a_stump_on_separable_target() {
        // Target: -1 for x < 2, +1 for x >= 2 (as negative gradients).
        let x = binned(&[vec![0.0], vec![1.0], vec![2.0], vec![3.0]]);
        let grad = vec![1.0, 1.0, -1.0, -1.0]; // leaf value = -G/(H+λ)
        let hess = vec![1.0; 4];
        let rows: Vec<u32> = (0..4).collect();
        let params = TreeParams {
            max_depth: 1,
            lambda: 0.0,
            ..TreeParams::default()
        };
        let tree = RegressionTree::fit(&x, &grad, &hess, &rows, &[0], &params);
        assert!(tree.predict_binned(x.row(0)) < 0.0);
        assert!(tree.predict_binned(x.row(3)) > 0.0);
        // Perfect split recovers the per-side means (±1 with λ=0).
        assert!((tree.predict_binned(x.row(0)) + 1.0).abs() < 1e-6);
        assert!((tree.predict_binned(x.row(3)) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn depth_zero_returns_single_leaf_with_global_value() {
        let x = binned(&[vec![0.0], vec![1.0]]);
        let grad = vec![2.0, 4.0];
        let hess = vec![1.0, 1.0];
        let rows: Vec<u32> = vec![0, 1];
        let params = TreeParams {
            max_depth: 0,
            lambda: 0.0,
            ..TreeParams::default()
        };
        let tree = RegressionTree::fit(&x, &grad, &hess, &rows, &[0], &params);
        assert_eq!(tree.nodes.len(), 1);
        assert!((tree.predict_binned(x.row(0)) + 3.0).abs() < 1e-6); // -(2+4)/2
    }

    #[test]
    fn min_child_weight_blocks_tiny_splits() {
        let x = binned(&[vec![0.0], vec![1.0]]);
        let grad = vec![1.0, -1.0];
        let hess = vec![0.1, 0.1];
        let rows: Vec<u32> = vec![0, 1];
        let params = TreeParams {
            max_depth: 3,
            min_child_weight: 1.0,
            ..TreeParams::default()
        };
        let tree = RegressionTree::fit(&x, &grad, &hess, &rows, &[0], &params);
        assert_eq!(tree.nodes.len(), 1, "split should be blocked");
    }

    #[test]
    fn xor_requires_depth_two() {
        // XOR of two binary features: depth-1 cannot separate, depth-2 can.
        // The gradients are slightly unbalanced because a *perfectly*
        // symmetric XOR has zero marginal gain at the root, defeating any
        // greedy learner (XGBoost included).
        let rows_f: Vec<Vec<f32>> = vec![
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ];
        let x = binned(&rows_f);
        // negative gradient = target: XOR → +1 for (0,1),(1,0); −1 otherwise.
        let grad = vec![1.2, -1.0, -1.0, 1.0];
        let hess = vec![1.0; 4];
        let params = TreeParams {
            max_depth: 2,
            lambda: 0.0,
            min_child_weight: 0.1,
            ..TreeParams::default()
        };
        let rows: Vec<u32> = (0..4).collect();
        let tree = RegressionTree::fit(&x, &grad, &hess, &rows, &[0, 1], &params);
        assert!(tree.predict_binned(x.row(0)) < 0.0);
        assert!(tree.predict_binned(x.row(1)) > 0.0);
        assert!(tree.predict_binned(x.row(2)) > 0.0);
        assert!(tree.predict_binned(x.row(3)) < 0.0);
    }

    #[test]
    fn partition_is_stable() {
        let mut rows = vec![5u32, 2, 7, 1, 4];
        let mid = reference::partition(&mut rows, |&r| r % 2 == 0);
        assert_eq!(mid, 2);
        assert_eq!(rows, vec![2, 4, 5, 7, 1]);
    }

    /// A node as comparable bits: splits by (feature, threshold, gain
    /// bits, children), leaves by their value's bits.
    fn node_bits(tree: &RegressionTree) -> Vec<(u32, u16, u32, u32, u32)> {
        tree.nodes
            .iter()
            .map(|n| match *n {
                Node::Split {
                    feature,
                    threshold_bin,
                    gain,
                    left,
                    right,
                } => (feature, threshold_bin, gain.to_bits(), left, right),
                Node::Leaf { value } => (u32::MAX, 0, value.to_bits(), 0, 0),
            })
            .collect()
    }

    /// Fits with the learner and the depth-first reference and checks they
    /// agree node for node, in feature importance, and that each row's leaf
    /// from the learner is the one the fitted tree predicts.
    fn assert_matches_reference(
        x: &BinnedMatrix,
        grad: &[f64],
        hess: &[f64],
        rows: &[u32],
        features: &[u32],
        params: &TreeParams,
    ) {
        let expected = reference::fit(x, grad, hess, &mut rows.to_vec(), features, params);
        let mut learner = TreeLearner::default();
        let tree = learner.fit(x, grad, hess, rows, features, params);
        assert_eq!(node_bits(&tree), node_bits(&expected), "{params:?}");
        let (mut imp, mut imp_ref) = (vec![0.0; x.n_cols()], vec![0.0; x.n_cols()]);
        tree.accumulate_importance(&mut imp);
        expected.accumulate_importance(&mut imp_ref);
        let bits = |v: &[f64]| v.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&imp), bits(&imp_ref));
        assert_eq!(learner.leaves().len(), rows.len());
        for (&i, &leaf) in rows.iter().zip(learner.leaves()) {
            let walked = tree.predict_binned(x.row(i as usize));
            assert_eq!(leaf.to_bits(), walked.to_bits(), "row {i}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// The level-wise learner equals the depth-first reference on random
        /// matrices (constant, single-bin, integer and continuous features),
        /// gradients, hessians, row and feature subsets in random order, zero
        /// and one rows, and edge parameters: `max_depth` 0,
        /// `min_child_weight` 0 and `γ < 0`.
        #[test]
        fn level_wise_learner_equals_depth_first_reference(seed in proptest::any::<u64>()) {
            use rand::rngs::StdRng;
            use rand::seq::{index::sample, SliceRandom};
            use rand::{Rng, SeedableRng};

            let mut gen = StdRng::seed_from_u64(seed);
            let n = gen.random_range(0..80usize);
            let f = gen.random_range(1..6usize);
            // Per-feature kind: constant, integer codes over a random range
            // (one to nine values), or continuous.
            let kinds: Vec<u32> = (0..f).map(|_| gen.random_range(0..10u32)).collect();
            let data: Vec<Vec<f32>> = (0..n)
                .map(|_| {
                    kinds
                        .iter()
                        .map(|&k| match k {
                            0 => 3.0,
                            9 => gen.random_range(-2.0..2.0f32),
                            k => gen.random_range(0..k) as f32,
                        })
                        .collect()
                })
                .collect();
            let m = DenseMatrix::from_flat(data.concat(), n, f);
            let x = BinnedMatrix::from_matrix(&m, BinningSpec::fit(&m, gen.random_range(2..12u16)));
            let grad: Vec<f64> = (0..n).map(|_| gen.random_range(-2.0..2.0)).collect();
            let hess: Vec<f64> = (0..n)
                .map(|_| if gen.random_bool(0.1) { 0.0 } else { gen.random_range(0.0..1.0) })
                .collect();
            let n_rows = match gen.random_range(0..4u32) {
                0 => n.min(1),
                1 => n,
                _ => gen.random_range(0..=n),
            };
            let rows: Vec<u32> = sample(&mut gen, n, n_rows).into_iter().map(|i| i as u32).collect();
            let mut features: Vec<u32> = (0..f as u32).collect();
            features.shuffle(&mut gen);
            features.truncate(gen.random_range(1..=f));
            let params = TreeParams {
                max_depth: gen.random_range(0..6usize),
                lambda: [0.0, 0.5, 1.0][gen.random_range(0..3usize)],
                gamma: [-1.0, 0.0, 0.3][gen.random_range(0..3usize)],
                min_child_weight: [0.0, 0.5, 1.0][gen.random_range(0..3usize)],
            };
            assert_matches_reference(&x, &grad, &hess, &rows, &features, &params);
        }
    }

    #[test]
    fn one_sided_split_becomes_a_leaf_like_the_reference() {
        // The rows all sit in the middle bin of a three-bin feature. With
        // `γ < 0` and no child weight the zero-gain empty-left threshold
        // wins, and the split that sends every row right is undone.
        let x = binned(&[vec![0.0], vec![1.0], vec![1.0], vec![2.0]]);
        let grad = vec![0.0, 1.0, -0.5, 0.0];
        let hess = vec![1.0; 4];
        let params = TreeParams {
            gamma: -1.0,
            min_child_weight: 0.0,
            ..TreeParams::default()
        };
        assert_matches_reference(&x, &grad, &hess, &[2, 1], &[0], &params);
        let tree = RegressionTree::fit(&x, &grad, &hess, &[2, 1], &[0], &params);
        assert_eq!(tree.nodes.len(), 1);
    }

    #[test]
    fn empty_rows_yield_zero_leaf() {
        let x = binned(&[vec![0.0]]);
        let grad = vec![0.0];
        let hess = vec![0.0];
        let rows: Vec<u32> = vec![];
        let tree = RegressionTree::fit(&x, &grad, &hess, &rows, &[0], &TreeParams::default());
        assert_eq!(tree.predict_binned(&[0]), 0.0);
    }
}
