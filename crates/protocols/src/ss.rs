//! ω-Subset Selection (ω-SS), §2.2.3 of the paper (Wang et al. / Ye & Barg).
//!
//! The client reports a subset Ω of the domain of size ω. The true value is
//! included with probability `p = ωe^ε / (ωe^ε + k − ω)`; the remaining slots
//! are filled uniformly without replacement from the other values. The
//! variance-optimal subset size is `ω = k / (e^ε + 1)`, rounded to at least 1.

use rand::seq::index::sample;
use rand::Rng;

use crate::error::ProtocolError;
use crate::oracle::{FrequencyOracle, Report};
use crate::{validate_domain, validate_epsilon};

/// ω-Subset Selection protocol for one categorical attribute.
#[derive(Debug, Clone)]
pub struct SubsetSelection {
    k: usize,
    epsilon: f64,
    omega: usize,
    p: f64,
    q: f64,
}

impl SubsetSelection {
    /// Creates an ω-SS instance with the variance-optimal integer ω.
    pub fn new(k: usize, epsilon: f64) -> Result<Self, ProtocolError> {
        let k = validate_domain(k)?;
        let epsilon = validate_epsilon(epsilon)?;
        let e = epsilon.exp();
        let omega = ((k as f64 / (e + 1.0)).round() as usize).clamp(1, k - 1);
        Self::with_omega(k, epsilon, omega)
    }

    /// Creates an ω-SS instance with an explicit subset size `omega`
    /// (must satisfy `1 <= omega <= k − 1`).
    pub fn with_omega(k: usize, epsilon: f64, omega: usize) -> Result<Self, ProtocolError> {
        let k = validate_domain(k)?;
        let epsilon = validate_epsilon(epsilon)?;
        if omega == 0 || omega >= k {
            return Err(ProtocolError::InvalidPrior {
                reason: format!("subset size omega={omega} must lie in 1..k (k={k})"),
            });
        }
        let e = epsilon.exp();
        let (kf, wf) = (k as f64, omega as f64);
        let p = wf * e / (wf * e + kf - wf);
        // Probability that a fixed non-true value lands in Ω:
        // q = [ωe^ε(ω−1) + (k−ω)ω] / [(k−1)(ωe^ε + k − ω)].
        let q = (wf * e * (wf - 1.0) + (kf - wf) * wf) / ((kf - 1.0) * (wf * e + kf - wf));
        Ok(SubsetSelection {
            k,
            epsilon,
            omega,
            p,
            q,
        })
    }

    /// The subset size ω.
    pub fn omega(&self) -> usize {
        self.omega
    }

    /// Probability that the true value is included in Ω.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Probability that a fixed other value is included in Ω.
    pub fn q(&self) -> f64 {
        self.q
    }
}

impl FrequencyOracle for SubsetSelection {
    fn domain_size(&self) -> usize {
        self.k
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn randomize<R: Rng + ?Sized>(&self, value: u32, rng: &mut R) -> Report {
        assert!(
            (value as usize) < self.k,
            "value {value} outside the domain 0..{}",
            self.k
        );
        let include_true = rng.random::<f64>() < self.p;
        let fill = if include_true {
            self.omega - 1
        } else {
            self.omega
        };
        let mut subset = Vec::with_capacity(self.omega);
        if include_true {
            subset.push(value);
        }
        // Sample `fill` distinct values from the k−1 non-true values by
        // sampling indices in 0..k−1 and shifting past `value`.
        for idx in sample(rng, self.k - 1, fill) {
            let v = idx as u32;
            subset.push(if v >= value { v + 1 } else { v });
        }
        subset.sort_unstable();
        Report::Subset(subset)
    }

    fn supports(&self, report: &Report, value: u32) -> bool {
        matches!(report, Report::Subset(s) if s.binary_search(&value).is_ok())
    }

    fn est_p(&self) -> f64 {
        self.p
    }

    fn est_q(&self) -> f64 {
        self.q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    #[should_panic(expected = "outside the domain")]
    fn randomize_rejects_an_out_of_domain_value_in_every_build() {
        let oracle = SubsetSelection::new(4, 1.0).unwrap();
        oracle.randomize(7, &mut StdRng::seed_from_u64(1));
    }

    #[test]
    fn optimal_omega_matches_formula() {
        // k = 74, eps = 1: 74 / (e + 1) ≈ 19.9 → 20.
        assert_eq!(SubsetSelection::new(74, 1.0).unwrap().omega(), 20);
        // Large eps forces omega = 1 (degenerates to GRR-like reporting).
        assert_eq!(SubsetSelection::new(7, 5.0).unwrap().omega(), 1);
    }

    #[test]
    fn omega_one_matches_grr_probabilities() {
        let ss = SubsetSelection::with_omega(10, 2.0, 1).unwrap();
        let grr = crate::grr::Grr::new(10, 2.0).unwrap();
        assert!((ss.p() - grr.p()).abs() < 1e-12);
        assert!((ss.q() - grr.q()).abs() < 1e-12);
    }

    #[test]
    fn p_and_q_form_consistent_expectation() {
        // E[|Ω|] = p + (k−1) q must equal ω.
        for (k, eps) in [(74usize, 1.0), (16, 2.0), (41, 0.5)] {
            let ss = SubsetSelection::new(k, eps).unwrap();
            let expected = ss.p() + (k as f64 - 1.0) * ss.q();
            assert!(
                (expected - ss.omega() as f64).abs() < 1e-9,
                "k={k} eps={eps}: E|Ω|={expected} omega={}",
                ss.omega()
            );
        }
    }

    #[test]
    fn report_has_exactly_omega_distinct_values() {
        let ss = SubsetSelection::new(30, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..200 {
            match ss.randomize(11, &mut rng) {
                Report::Subset(s) => {
                    assert_eq!(s.len(), ss.omega());
                    let mut d = s.clone();
                    d.dedup();
                    assert_eq!(d.len(), s.len(), "duplicates in subset");
                    assert!(s.iter().all(|&v| (v as usize) < 30));
                }
                other => panic!("unexpected shape {other:?}"),
            }
        }
    }

    #[test]
    fn empirical_inclusion_rates_match_p_and_q() {
        let ss = SubsetSelection::new(12, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let trials = 40_000;
        let mut true_in = 0usize;
        let mut other_in = 0usize;
        for _ in 0..trials {
            let r = ss.randomize(4, &mut rng);
            if ss.supports(&r, 4) {
                true_in += 1;
            }
            if ss.supports(&r, 9) {
                other_in += 1;
            }
        }
        let p_emp = true_in as f64 / trials as f64;
        let q_emp = other_in as f64 / trials as f64;
        assert!((p_emp - ss.p()).abs() < 0.01, "p emp {p_emp} vs {}", ss.p());
        assert!((q_emp - ss.q()).abs() < 0.01, "q emp {q_emp} vs {}", ss.q());
    }

    #[test]
    fn with_omega_rejects_out_of_range() {
        assert!(SubsetSelection::with_omega(5, 1.0, 0).is_err());
        assert!(SubsetSelection::with_omega(5, 1.0, 5).is_err());
    }
}
