//! # ldp-datasets
//!
//! Synthetic multidimensional categorical datasets standing in for the three
//! corpora used in the paper's evaluation (§4.1):
//!
//! * [`corpora::adult_like`] — UCI *Adult* (n = 45 222, d = 10,
//!   k = [74, 7, 16, 7, 14, 6, 5, 2, 41, 2]);
//! * [`corpora::acs_employment_like`] — Folktables *ACSEmployment*, Montana
//!   (n = 10 336, d = 18);
//! * [`corpora::nursery_like`] — UCI *Nursery* (n = 12 959, d = 9), whose
//!   uniform-like marginals defeat the RS+FD inference attack.
//!
//! The real corpora cannot be downloaded in this environment, so a
//! [`generator::LatentClassGenerator`] produces datasets with the same
//! (n, d, k) and the two properties the paper's attacks rely on: **skewed
//! marginals** (so a classifier can tell LDP reports from uniform fake data)
//! and **record uniqueness** under attribute combinations (so
//! re-identification is possible). See DESIGN.md §4 for the substitution
//! argument.
//!
//! The [`priors`] module implements the prior distributions of §5.2: "Correct"
//! priors from a Laplace mechanism on the true marginals and "Incorrect"
//! Dirichlet(1) / Zipf / Exponential priors.

#![deny(unsafe_code)]

pub mod corpora;
pub mod dataset;
pub mod generator;
pub mod mixed;
pub mod priors;
pub mod schema;

pub use dataset::Dataset;
pub use generator::{GeneratorConfig, LatentClassGenerator};
pub use mixed::{MixedDataset, NumericAttribute};
pub use priors::{correct_priors, IncorrectPrior};
pub use schema::{Attribute, Schema};
