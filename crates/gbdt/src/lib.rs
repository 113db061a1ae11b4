//! # ldp-gbdt
//!
//! A from-scratch, dependency-free multiclass classifier stack standing in
//! for XGBoost in the paper's §4.3 sampled-attribute inference attack:
//!
//! * [`GbdtClassifier`] — histogram-based gradient-boosted decision trees
//!   with softmax multiclass boosting (one regression tree per class per
//!   round), shrinkage, L2 leaf regularization, and row/column subsampling.
//!   Fit and prediction take a thread budget and give bit-identical results
//!   for every count.
//! * [`LogisticRegression`] — a multinomial logistic-regression baseline used
//!   as an ablation of the classifier choice.
//!
//! Both consume a [`DenseMatrix`] of `f32` features (for the attack these are
//! categorical codes or unary-encoded bits) and integer class labels.
//!
//! ## Example
//!
//! ```
//! use ldp_gbdt::{DenseMatrix, GbdtClassifier, GbdtParams};
//!
//! // y = 1 iff x0 > 0.5 (a single decision stump suffices).
//! let rows: Vec<Vec<f32>> = (0..80).map(|i| vec![f32::from(i % 2 == 0), (i % 3) as f32]).collect();
//! let y: Vec<u32> = rows.iter().map(|r| r[0] as u32).collect();
//! let x = DenseMatrix::from_rows(&rows);
//! let params = GbdtParams { rounds: 10, ..GbdtParams::default() };
//! let model = GbdtClassifier::fit(&x, &y, 2, &params, 42, 1);
//! assert_eq!(model.predict(&x, 1), y);
//! ```

#![deny(unsafe_code)]

pub mod boosting;
pub mod data;
pub mod logistic;
pub mod metrics;
pub mod tree;

pub use boosting::{GbdtClassifier, GbdtParams};
pub use data::{BinnedMatrix, BinningSpec, DenseMatrix};
pub use logistic::{LogisticParams, LogisticRegression};
pub use metrics::{accuracy, confusion_matrix, log_loss};
