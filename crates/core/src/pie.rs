//! The PIE (Personal Information Entropy) relaxed privacy model of
//! Appendix C (Murakami & Takahashi).
//!
//! PIE upper-bounds the mutual information `I(U; Y)` between users and
//! perturbed reports by a parameter α. The experiments select α by fixing a
//! Bayes error probability `β_{U|S}` via Corollary 1
//! (`β ≥ 1 − (α+1)/log2 n` ⇒ `α = (1−β)·log2 n − 1`), then either
//!
//! * **pass through** the value unrandomized when `log2(k_j) ≤ α`
//!   ([35, Proposition 9] — the attribute alone cannot exceed the PIE
//!   budget), or
//! * run an ε-LDP protocol with the largest ε allowed by Proposition 1:
//!   `min(ε, ε²)·log2 e ≤ α`.

/// Per-attribute decision under `(U, α)`-PIE privacy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PieDecision {
    /// `log2(k_j) ≤ α`: report the true value without a local randomizer.
    PassThrough,
    /// Run an ε-LDP frequency oracle with this budget.
    Randomize {
        /// Largest ε satisfying the α bound.
        epsilon: f64,
    },
}

/// α implied by a target Bayes error probability `β_{U|S}` over `n` users:
/// `α = (1 − β)·log2(n) − 1`, clamped to be non-negative.
///
/// # Panics
/// Panics when `β ∉ [0, 1]` or `n < 2`.
pub fn alpha_from_bayes_error(beta: f64, n: usize) -> f64 {
    assert!((0.0..=1.0).contains(&beta), "beta must lie in [0, 1]");
    assert!(n >= 2, "need at least two users");
    ((1.0 - beta) * (n as f64).log2() - 1.0).max(0.0)
}

/// Largest ε such that `min(ε, ε²)·log2(e) ≤ α`.
///
/// For `c = α·ln 2`: when `c ≥ 1` the binding term is ε itself (ε ≥ 1), so
/// ε = c; when `c < 1` the binding term is ε² (ε < 1), so ε = √c. A small
/// floor keeps the budget usable when α ≈ 0.
pub fn epsilon_from_alpha(alpha: f64) -> f64 {
    let c = alpha * std::f64::consts::LN_2;
    let eps = if c >= 1.0 { c } else { c.sqrt() };
    eps.max(1e-3)
}

/// The per-attribute decision for a target Bayes error `β` over `n` users
/// and an attribute with domain size `k`.
pub fn decide(beta: f64, n: usize, k: usize) -> PieDecision {
    let alpha = alpha_from_bayes_error(beta, n);
    if (k as f64).log2() <= alpha {
        PieDecision::PassThrough
    } else {
        PieDecision::Randomize {
            epsilon: epsilon_from_alpha(alpha),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_grows_as_beta_shrinks() {
        let n = 45_222;
        let tight = alpha_from_bayes_error(0.95, n);
        let loose = alpha_from_bayes_error(0.5, n);
        assert!(loose > tight);
        assert!(tight >= 0.0);
    }

    #[test]
    fn alpha_matches_corollary_algebra() {
        // β = 1 − (α+1)/log2(n) round-trips.
        let n = 10_000usize;
        let alpha = 3.0;
        let beta = 1.0 - (alpha + 1.0) / (n as f64).log2();
        assert!((alpha_from_bayes_error(beta, n) - alpha).abs() < 1e-9);
    }

    #[test]
    fn epsilon_from_alpha_branches() {
        // c >= 1: ε = α ln 2.
        let alpha = 5.0;
        let c = alpha * std::f64::consts::LN_2;
        assert!(c >= 1.0);
        assert!((epsilon_from_alpha(alpha) - c).abs() < 1e-12);
        // c < 1: ε = sqrt(c) < 1.
        let alpha = 0.5;
        let c = alpha * std::f64::consts::LN_2;
        assert!((epsilon_from_alpha(alpha) - c.sqrt()).abs() < 1e-12);
        assert!(epsilon_from_alpha(alpha) < 1.0);
    }

    /// α guaranteed by an ε-LDP mechanism over `n` users and domain size
    /// `k` (Proposition 1): `α = min(ε·log2 e, ε²·log2 e, log2 n, log2 k)`.
    fn alpha_of_ldp(epsilon: f64, n: usize, k: usize) -> f64 {
        let log2e = std::f64::consts::LOG2_E;
        (epsilon * log2e)
            .min(epsilon * epsilon * log2e)
            .min((n as f64).log2())
            .min((k as f64).log2())
    }

    #[test]
    fn epsilon_respects_proposition_bound() {
        for alpha in [0.2, 1.0, 4.0, 9.0] {
            let eps = epsilon_from_alpha(alpha);
            let implied = alpha_of_ldp(eps, usize::MAX >> 1, usize::MAX >> 1);
            assert!(implied <= alpha + 1e-9, "alpha={alpha}: implied {implied}");
        }
    }

    #[test]
    fn small_domains_pass_through() {
        // Adult, β = 0.95: α = 0.05·log2(45222) − 1 ≈ −0.23 → 0 → nothing
        // passes. β = 0.5: α ≈ 6.73 → k ≤ 106 passes.
        let n = 45_222;
        assert!(matches!(decide(0.5, n, 74), PieDecision::PassThrough));
        assert!(matches!(decide(0.5, n, 2), PieDecision::PassThrough));
        // Tight β keeps randomizing even binary attributes.
        assert!(matches!(decide(0.95, n, 2), PieDecision::Randomize { .. }));
    }

    #[test]
    fn decide_randomize_epsilon_is_positive() {
        match decide(0.9, 45_222, 74) {
            PieDecision::Randomize { epsilon } => assert!(epsilon > 0.0),
            other => panic!("expected Randomize, got {other:?}"),
        }
    }
}
