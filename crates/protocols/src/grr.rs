//! Generalized Randomized Response (GRR), §2.2.1 of the paper.
//!
//! GRR extends Warner's classical randomized response to domains of size
//! `k ≥ 2`: the true value is reported with probability
//! `p = e^ε / (e^ε + k − 1)` and every other value with probability
//! `q = 1 / (e^ε + k − 1)`, satisfying ε-LDP because `p / q = e^ε`.

use rand::Rng;

use crate::error::ProtocolError;
use crate::oracle::{FrequencyOracle, Report};
use crate::{validate_domain, validate_epsilon};

/// Generalized Randomized Response protocol for one categorical attribute.
#[derive(Debug, Clone)]
pub struct Grr {
    k: usize,
    epsilon: f64,
    p: f64,
    q: f64,
}

impl Grr {
    /// Creates a GRR instance for domain size `k` and privacy budget `epsilon`.
    pub fn new(k: usize, epsilon: f64) -> Result<Self, ProtocolError> {
        let k = validate_domain(k)?;
        let epsilon = validate_epsilon(epsilon)?;
        let e = epsilon.exp();
        let denom = e + k as f64 - 1.0;
        Ok(Grr {
            k,
            epsilon,
            p: e / denom,
            q: 1.0 / denom,
        })
    }

    /// Probability of reporting the true value.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Probability of reporting one fixed other value.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// The one GRR draw: `value` with probability `p`, otherwise one of the
    /// `k − 1` other values uniformly. [`FrequencyOracle::randomize`] wraps
    /// it in a [`Report::Value`]; the multidimensional sanitizers write the
    /// drawn value straight into their report's words.
    ///
    /// # Panics
    /// Panics when `value ≥ k`, in every build profile: an out-of-domain
    /// value kept with probability `p` would leave the domain on the wire.
    #[inline]
    pub fn draw<R: Rng + ?Sized>(&self, value: u32, rng: &mut R) -> u32 {
        assert!(
            (value as usize) < self.k,
            "value {value} outside the domain 0..{}",
            self.k
        );
        if rng.random::<f64>() < self.p {
            value
        } else {
            // Uniform over the k−1 other values: draw from 0..k−1 and skip
            // the true value by shifting.
            let r = rng.random_range(0..self.k as u32 - 1);
            if r >= value {
                r + 1
            } else {
                r
            }
        }
    }
}

impl FrequencyOracle for Grr {
    fn domain_size(&self) -> usize {
        self.k
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn randomize<R: Rng + ?Sized>(&self, value: u32, rng: &mut R) -> Report {
        Report::Value(self.draw(value, rng))
    }

    fn supports(&self, report: &Report, value: u32) -> bool {
        matches!(report, Report::Value(v) if *v == value)
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
    fn parameters_match_closed_form() {
        let g = Grr::new(4, 1.0).unwrap();
        let e = 1.0f64.exp();
        assert!((g.p() - e / (e + 3.0)).abs() < 1e-12);
        assert!((g.q() - 1.0 / (e + 3.0)).abs() < 1e-12);
        // p + (k−1) q = 1: output distribution is a proper distribution.
        assert!((g.p() + 3.0 * g.q() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn satisfies_ldp_ratio() {
        for eps in [0.1, 1.0, 5.0] {
            let g = Grr::new(10, eps).unwrap();
            assert!((g.p() / g.q() - eps.exp()).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(Grr::new(1, 1.0).is_err());
        assert!(Grr::new(4, 0.0).is_err());
        assert!(Grr::new(4, -1.0).is_err());
        assert!(Grr::new(4, f64::INFINITY).is_err());
    }

    #[test]
    fn outputs_stay_in_domain_and_cover_it() {
        let g = Grr::new(5, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 5];
        for _ in 0..2000 {
            match g.randomize(2, &mut rng) {
                Report::Value(v) => {
                    assert!(v < 5);
                    seen[v as usize] = true;
                }
                other => panic!("unexpected report shape {other:?}"),
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "all values should appear at eps=0.5"
        );
    }

    #[test]
    fn empirical_keep_rate_matches_p() {
        let g = Grr::new(8, 2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let trials = 60_000;
        let kept = (0..trials)
            .filter(|_| matches!(g.randomize(5, &mut rng), Report::Value(5)))
            .count();
        let rate = kept as f64 / trials as f64;
        assert!(
            (rate - g.p()).abs() < 0.01,
            "empirical {rate} vs p {}",
            g.p()
        );
    }

    #[test]
    #[should_panic(expected = "outside the domain")]
    fn draw_rejects_an_out_of_domain_value_in_every_build() {
        let g = Grr::new(4, 1.0).unwrap();
        g.draw(4, &mut StdRng::seed_from_u64(1));
    }

    #[test]
    fn supports_only_the_reported_value() {
        let g = Grr::new(4, 1.0).unwrap();
        let r = Report::Value(2);
        assert!(g.supports(&r, 2));
        assert!(!g.supports(&r, 1));
    }
}
