//! # ldp-protocols
//!
//! Locally differentially private (LDP) *frequency oracle* protocols, the
//! substrate of the PVLDB 2023 paper *"On the Risks of Collecting
//! Multidimensional Data Under Local Differential Privacy"* (Arcolezi et al.).
//!
//! A frequency oracle lets an untrusted aggregator estimate the frequency of
//! every value of one categorical attribute from sanitized user reports. This
//! crate implements the five protocols evaluated in the paper:
//!
//! * [`Grr`] — Generalized Randomized Response (Kairouz et al.)
//! * [`Olh`] — Optimal Local Hashing (Wang et al., USENIX Sec'17)
//! * [`SubsetSelection`] — ω-Subset Selection (Wang et al. / Ye & Barg)
//! * [`UnaryEncoding`] with [`UeMode::Symmetric`] — SUE, a.k.a. Basic One-time
//!   RAPPOR (Erlingsson et al.)
//! * [`UnaryEncoding`] with [`UeMode::Optimized`] — OUE (Wang et al.)
//!
//! All protocols implement the [`FrequencyOracle`] trait: a client-side
//! [`FrequencyOracle::randomize`] producing a [`Report`], and server-side
//! support counting feeding the generic unbiased estimator of
//! [`Aggregator::estimate`] (Eq. (2) of the paper).
//!
//! The [`deniability`] module implements the paper's §3.2.1 single-report
//! "plausible deniability" attack for every protocol together with the
//! closed-form expected attacker accuracies plotted in Fig. 1.
//!
//! ## Example
//!
//! ```
//! use ldp_protocols::{Grr, FrequencyOracle, Aggregator};
//! use rand::{SeedableRng, rngs::StdRng};
//!
//! let grr = Grr::new(4, 2.0).unwrap();
//! let mut rng = StdRng::seed_from_u64(7);
//! let mut agg = Aggregator::new(&grr);
//! for _ in 0..10_000 {
//!     // everyone holds value 2
//!     agg.absorb(&grr.randomize(2, &mut rng));
//! }
//! let est = agg.estimate();
//! assert!((est[2] - 1.0).abs() < 0.05);
//! ```

#![deny(unsafe_code)]

pub mod bitvec;
pub mod deniability;
pub mod error;
pub mod grr;
pub mod hash;
pub mod olh;
pub mod oracle;
pub mod ss;
pub mod ue;

pub use bitvec::BitVec;
pub use error::ProtocolError;
pub use grr::Grr;
pub use olh::Olh;
pub use oracle::{Aggregator, FrequencyOracle, Oracle, ProtocolKind, Report};
pub use ss::SubsetSelection;
pub use ue::{FusedUeGroup, UeMode, UnaryEncoding};

/// Validates a privacy budget, returning it unchanged when strictly positive
/// and finite.
pub fn validate_epsilon(epsilon: f64) -> Result<f64, ProtocolError> {
    if epsilon.is_finite() && epsilon > 0.0 {
        Ok(epsilon)
    } else {
        Err(ProtocolError::InvalidEpsilon(epsilon))
    }
}

/// Validates a categorical domain size (`k >= 2`).
pub fn validate_domain(k: usize) -> Result<usize, ProtocolError> {
    if k >= 2 {
        Ok(k)
    } else {
        Err(ProtocolError::DomainTooSmall(k))
    }
}
