//! # ldp-core
//!
//! The primary contribution of *"On the Risks of Collecting Multidimensional
//! Data Under Local Differential Privacy"* (PVLDB 2023): the multidimensional
//! collection solutions, the privacy attacks against them, and the RS+RFD
//! countermeasure.
//!
//! ## Solutions (§2.3, §5)
//!
//! * [`solutions::Spl`] — split the budget ε/d over all attributes.
//! * [`solutions::Smp`] — sample one attribute, spend the whole ε on it and
//!   disclose which attribute was sampled.
//! * [`solutions::RsFd`] — Random Sampling + Fake Data, with the GRR /
//!   UE-z / UE-r variants and their unbiased estimators from \[4\]; built
//!   [`with_priors`](solutions::RsFd::with_priors), the same type is the
//!   paper's countermeasure RS+RFD: Random Sampling + *Realistic* Fake Data
//!   drawn from priors, with the new estimators (Eqs. 6–7) and closed-form
//!   variances (Theorems 2 and 4).
//!
//! ## Attacks
//!
//! * [`attacks`] — the unified adversary layer: every attack is one
//!   [`attacks::DynAttack`] value (a validated [`attacks::AttackKind`] plus
//!   a thread budget) behind the [`attacks::Attack`] trait, reported through
//!   [`attacks::AttackOutcome`] (the adversary mirror of the
//!   `SolutionKind`/`DynSolution`/`SolutionReport` collection surface).
//! * [`profiling`] — multi-collection profiling math (Eqs. 4–5) and profile
//!   construction under uniform / non-uniform privacy metrics.
//! * [`reident`] — the §3.2.4 re-identification attack: inverted-index
//!   matching `R` plus a tie-aware exact top-k decision `G`.
//! * [`inference`] — the §3.3 sampled-attribute inference attack against
//!   RS+FD/RS+RFD with the NK / PK / HM attacker models.
//! * [`pie`] — the relaxed PIE privacy model of Appendix C.

#![deny(missing_docs, unsafe_code)]

pub mod amplification;
pub mod attacks;
pub mod inference;
pub mod metrics;
pub mod numeric;
pub mod pie;
pub mod profiling;
pub mod reident;
pub mod solutions;

pub use amplification::amplify;
pub use attacks::{Attack, AttackKind, AttackOutcome, DynAttack, FittedAttack};
pub use numeric::{DynNumeric, NumericKind, NumericOracle, NumericReport};
pub use solutions::{
    DynSolution, Mixed, MixedEntry, MixedKind, MixedReport, MultidimAggregator, RsFd, RsFdProtocol,
    RsRfdProtocol, Smp, SolutionKind, SolutionReport, Spl, NUMERIC_DIM,
};
