//! Multidimensional collection solutions: SPL, SMP, RS+FD and the RS+RFD
//! countermeasure (§2.3 and §5 of the paper), the last two one
//! [`RsFd`] type apart only in their fake-data source.
//!
//! The layer is streaming-first: every solution hands out a
//! [`MultidimAggregator`] that absorbs sanitized reports one at a time into
//! `O(Σ_j k_j)` support-count state and can be merged across parallel
//! shards, so server-side memory is independent of the population size.
//! Runtime solution selection goes through [`SolutionKind`] /
//! [`DynSolution`], which mirror `ldp_protocols::{ProtocolKind, Oracle}`;
//! the client side stays generic over `R: Rng + ?Sized`, so a concrete
//! generator is monomorphized into the sanitizer and `&mut dyn RngCore`
//! still works behind an object boundary.

mod aggregator;
mod compact;
mod kind;
mod layout;
mod mixed;
mod report;
mod rsfd;
mod smp;
mod spl;
mod tally;

pub use aggregator::MultidimAggregator;
pub use compact::{CompactBatch, CompactDecodeError};
pub use kind::{DynSolution, SolutionKind};
pub(crate) use layout::{Entry, Field};
pub use mixed::{Mixed, MixedEntry, MixedKind, MixedReport, NUMERIC_DIM};
pub use report::SolutionReport;
pub use rsfd::{RsFd, RsFdProtocol, RsRfdProtocol};
pub use smp::{Smp, SmpReport};
pub use spl::Spl;

use ldp_protocols::ProtocolError;
use rand::Rng;

/// Validates the (ks, epsilon) pair shared by all solutions.
pub(crate) fn validate_config(ks: &[usize], epsilon: f64) -> Result<(), ProtocolError> {
    if ks.len() < 2 {
        return Err(ProtocolError::InvalidPrior {
            reason: format!(
                "multidimensional solutions need d >= 2 attributes, got {}",
                ks.len()
            ),
        });
    }
    for &k in ks {
        ldp_protocols::validate_domain(k)?;
    }
    ldp_protocols::validate_epsilon(epsilon)?;
    Ok(())
}

/// Checks a fake-data tuple once per report, before any draw: its width is
/// `d` and every value lies inside its attribute's domain. A value a
/// sanitizer would only reach when its attribute is sampled panics all the
/// same, in every build profile.
///
/// # Panics
/// Panics on a width mismatch or an out-of-domain value.
#[inline]
pub(crate) fn assert_tuple_in_domain(tuple: &[u32], ks: &[usize]) {
    assert_eq!(tuple.len(), ks.len(), "tuple width mismatch");
    for (j, (&v, &k)) in tuple.iter().zip(ks).enumerate() {
        assert!(
            (v as usize) < k,
            "attribute {j}: value {v} outside its domain 0..{k}"
        );
    }
}

/// Draws one index from a cumulative distribution by inverse CDF.
pub(crate) fn sample_cdf<R: Rng + ?Sized>(cdf: &[f64], rng: &mut R) -> usize {
    let u: f64 = rng.random();
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

/// Precomputes a sampling CDF from a pmf.
///
/// The pmf must sum to ≈ 1 (checked with a `debug_assert`); numerical drift
/// is then compensated by renormalizing the cumulative sums, so sampling
/// always follows the pmf's *relative* masses. The historical behavior of
/// silently forcing the last entry to 1.0 would instead dump all the missing
/// mass of an unnormalized prior onto the final value, skewing fake-data
/// sampling undetected.
pub(crate) fn to_cdf(pmf: &[f64]) -> Vec<f64> {
    let total: f64 = pmf.iter().sum();
    debug_assert!(
        (total - 1.0).abs() < 1e-3,
        "pmf sums to {total}, expected ~1"
    );
    if total <= 0.0 || total.is_nan() {
        // Degenerate input (all-zero / NaN): fall back to uniform sampling.
        let k = pmf.len().max(1) as f64;
        return (1..=pmf.len()).map(|i| i as f64 / k).collect();
    }
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = pmf
        .iter()
        .map(|&p| {
            acc += p;
            acc / total
        })
        .collect();
    if let Some(last) = cdf.last_mut() {
        // Exactly 1 after renormalization, up to one rounding step.
        *last = 1.0;
    }
    cdf
}

// RS+RFD's tests: the theorems and the prior-fake path of `RsFd`.
#[cfg(test)]
mod rsrfd;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_config_rejects_bad_shapes() {
        assert!(validate_config(&[4], 1.0).is_err());
        assert!(validate_config(&[4, 1], 1.0).is_err());
        assert!(validate_config(&[4, 4], -1.0).is_err());
        assert!(validate_config(&[4, 4], 1.0).is_ok());
    }

    #[test]
    fn sample_cdf_follows_distribution() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let cdf = to_cdf(&[0.25, 0.25, 0.5]);
        assert_eq!(cdf.len(), 3);
        assert!((cdf[2] - 1.0).abs() < 1e-15);
        let mut rng = StdRng::seed_from_u64(1);
        let trials = 40_000;
        let mut counts = [0usize; 3];
        for _ in 0..trials {
            counts[sample_cdf(&cdf, &mut rng)] += 1;
        }
        assert!((counts[0] as f64 / trials as f64 - 0.25).abs() < 0.01);
        assert!((counts[2] as f64 / trials as f64 - 0.5).abs() < 0.01);
        // Zero-probability entries are never drawn.
        let cdf = to_cdf(&[0.0, 1.0]);
        for _ in 0..1000 {
            assert_eq!(sample_cdf(&cdf, &mut rng), 1);
        }
    }

    #[test]
    fn to_cdf_renormalizes_numerical_drift() {
        // Regression: the old implementation forced the last entry to 1.0,
        // so any missing probability mass was silently dumped onto the final
        // value. Renormalization must preserve the relative masses instead.
        let drift = 5e-4; // within the debug_assert tolerance
        let cdf = to_cdf(&[0.25 + drift, 0.25, 0.5]);
        let total = 1.0 + drift;
        assert!((cdf[0] - (0.25 + drift) / total).abs() < 1e-12);
        assert!((cdf[1] - (0.5 + drift) / total).abs() < 1e-12);
        assert_eq!(cdf[2], 1.0);
        // The tail keeps its proportional share rather than absorbing the
        // drift: P(2) = cdf[2] − cdf[1] ≈ 0.5/total, not 0.5 + drift.
        assert!(((cdf[2] - cdf[1]) - 0.5 / total).abs() < 1e-9);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "pmf sums to")]
    fn to_cdf_rejects_unnormalized_pmf_in_debug() {
        to_cdf(&[0.2, 0.2]);
    }
}
