//! Privacy amplification by sampling for the RS+FD family (§2.3.2).
//!
//! When each user sanitizes only one uniformly sampled attribute out of `d`
//! and hides the choice behind fake data, the sampled attribute may be
//! reported with the amplified budget `ε′ = ln(d · (e^ε − 1) + 1)` while the
//! whole mechanism still satisfies ε-LDP (Li et al., amplification by
//! sampling).

/// Amplified budget `ε′ = ln(d (e^ε − 1) + 1)`.
///
/// # Panics
/// Panics when `d == 0` or `epsilon` is not finite-positive; these are
/// configuration errors.
pub fn amplify(epsilon: f64, d: usize) -> f64 {
    assert!(d >= 1, "need at least one attribute");
    assert!(
        epsilon.is_finite() && epsilon > 0.0,
        "epsilon must be finite and positive, got {epsilon}"
    );
    (d as f64 * (epsilon.exp() - 1.0) + 1.0).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_attribute_is_identity() {
        for eps in [0.5, 1.0, 4.0] {
            assert!((amplify(eps, 1) - eps).abs() < 1e-12);
        }
    }

    #[test]
    fn amplification_grows_with_d_and_is_bounded_by_eps_plus_ln_d() {
        let eps = 1.0;
        let mut prev = eps;
        for d in 2..=20 {
            let a = amplify(eps, d);
            assert!(a > prev, "not monotone at d={d}");
            // ε′ ≤ ε + ln d (equality as ε → ∞).
            assert!(a <= eps + (d as f64).ln() + 1e-12);
            prev = a;
        }
    }

    #[test]
    fn matches_paper_example() {
        // d = 3, ε = ln 2 → ε′ = ln(3·1 + 1) = ln 4 = 2 ln 2.
        let a = amplify(2.0f64.ln(), 3);
        assert!((a - 4.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn rejects_nonpositive_epsilon() {
        amplify(0.0, 3);
    }
}
