//! Random Sampling + **Realistic** Fake Data (RS+RFD) — the paper's §5
//! countermeasure.
//!
//! RS+RFD replaces RS+FD's uniform fake data with samples from per-attribute
//! prior distributions `f̃` (e.g. last year's Census statistics), making fake
//! reports statistically indistinguishable from sanitized real ones and
//! almost fully defeating the sampled-attribute inference attack while
//! *improving* utility. Implements Algorithm 1, the unbiased estimators of
//! Eq. (6) (GRR) and Eq. (7) (UE-r), and the closed-form variances of
//! Theorems 2 and 4.

use ldp_protocols::{FrequencyOracle, Grr, ProtocolError, UeMode, UnaryEncoding};
use rand::Rng;

use super::layout::{Field, Layout};
use super::{
    assert_tuple_in_domain, sample_cdf, to_cdf, validate_config, MultidimAggregator,
    MultidimSolution, SolutionReport,
};
use crate::amplification::amplify;

/// Which LDP protocol RS+RFD runs on the sampled attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RsRfdProtocol {
    /// RS+RFD\[GRR\]: GRR reports; fakes drawn directly from the prior.
    Grr,
    /// RS+RFD[UE-r]: UE reports; fakes are UE-perturbed one-hot encodings of
    /// prior-distributed values.
    UeR(UeMode),
}

impl RsRfdProtocol {
    /// Paper-style label, e.g. `"RS+RFD[OUE-r]"`.
    pub fn name(self) -> String {
        match self {
            RsRfdProtocol::Grr => "RS+RFD[GRR]".to_string(),
            RsRfdProtocol::UeR(m) => format!("RS+RFD[{}-r]", m.name()),
        }
    }

    /// The three variants evaluated in §5.2.
    pub const ALL: [RsRfdProtocol; 3] = [
        RsRfdProtocol::Grr,
        RsRfdProtocol::UeR(UeMode::Symmetric),
        RsRfdProtocol::UeR(UeMode::Optimized),
    ];
}

#[derive(Debug, Clone)]
enum Randomizers {
    Grr(Vec<Grr>),
    Ue(Vec<UnaryEncoding>),
}

/// The RS+RFD countermeasure over `d` attributes.
#[derive(Debug, Clone)]
pub struct RsRfd {
    protocol: RsRfdProtocol,
    ks: Vec<usize>,
    epsilon: f64,
    epsilon_amp: f64,
    priors: Vec<Vec<f64>>,
    prior_cdfs: Vec<Vec<f64>>,
    randomizers: Randomizers,
    pub(super) layout: Layout,
}

impl RsRfd {
    /// Builds the countermeasure with per-attribute prior distributions
    /// (`priors[j]` must have length `ks[j]`, non-negative entries summing
    /// to ≈1).
    pub fn new(
        protocol: RsRfdProtocol,
        ks: &[usize],
        epsilon: f64,
        priors: Vec<Vec<f64>>,
    ) -> Result<Self, ProtocolError> {
        validate_config(ks, epsilon)?;
        if priors.len() != ks.len() {
            return Err(ProtocolError::InvalidPrior {
                reason: format!("{} priors for {} attributes", priors.len(), ks.len()),
            });
        }
        for (j, prior) in priors.iter().enumerate() {
            if prior.len() != ks[j] {
                return Err(ProtocolError::InvalidPrior {
                    reason: format!(
                        "prior {j} has {} entries, domain has {}",
                        prior.len(),
                        ks[j]
                    ),
                });
            }
            if prior.iter().any(|&p| !(0.0..=1.0 + 1e-9).contains(&p)) {
                return Err(ProtocolError::InvalidPrior {
                    reason: format!("prior {j} has entries outside [0, 1]"),
                });
            }
            let total: f64 = prior.iter().sum();
            if (total - 1.0).abs() > 1e-6 {
                return Err(ProtocolError::InvalidPrior {
                    reason: format!("prior {j} sums to {total}, expected 1"),
                });
            }
        }
        let epsilon_amp = amplify(epsilon, ks.len());
        let randomizers = match protocol {
            RsRfdProtocol::Grr => Randomizers::Grr(
                ks.iter()
                    .map(|&k| Grr::new(k, epsilon_amp))
                    .collect::<Result<_, _>>()?,
            ),
            RsRfdProtocol::UeR(mode) => Randomizers::Ue(
                ks.iter()
                    .map(|&k| UnaryEncoding::new(k, epsilon_amp, mode))
                    .collect::<Result<_, _>>()?,
            ),
        };
        let prior_cdfs = priors.iter().map(|p| to_cdf(p)).collect();
        let unary = !matches!(randomizers, Randomizers::Grr(_));
        Ok(RsRfd {
            protocol,
            layout: Layout::tuple(ks.iter().map(|&k| Field::fake_data(k, unary)).collect()),
            ks: ks.to_vec(),
            epsilon,
            epsilon_amp,
            priors,
            prior_cdfs,
            randomizers,
        })
    }

    /// The variant in use.
    pub fn protocol(&self) -> RsRfdProtocol {
        self.protocol
    }

    /// The priors used for fake data.
    pub fn priors(&self) -> &[Vec<f64>] {
        &self.priors
    }

    /// Effective `(p, q)` of attribute `j` at the amplified budget.
    pub fn pq(&self, j: usize) -> (f64, f64) {
        match &self.randomizers {
            Randomizers::Grr(grrs) => (grrs[j].p(), grrs[j].q()),
            Randomizers::Ue(ues) => (ues[j].p(), ues[j].q()),
        }
    }

    /// Theorem 2 / Theorem 4 estimator variance for value `v` of attribute
    /// `j` with true frequency `f`, from `n` reports:
    /// `Var = d²γ(1−γ) / (n(p−q)²)` with the protocol-specific γ.
    pub fn variance(&self, j: usize, v: usize, f: f64, n: usize) -> f64 {
        let d = self.ks.len() as f64;
        let (p, q) = self.pq(j);
        let prior = self.priors[j][v];
        let gamma = match self.protocol {
            // Theorem 2: γ = (q + f(p−q) + (d−1)·f̃)/d.
            RsRfdProtocol::Grr => (q + f * (p - q) + (d - 1.0) * prior) / d,
            // Theorem 4: γ = (f(p−q) + q + (d−1)(f̃(p−q) + q))/d.
            RsRfdProtocol::UeR(_) => (f * (p - q) + q + (d - 1.0) * (prior * (p - q) + q)) / d,
        };
        d * d * gamma * (1.0 - gamma) / (n as f64 * (p - q) * (p - q))
    }

    /// Approximate variance with `f = 0` averaged over the attribute's
    /// values, mirroring the paper's Fig. 16 analytic curves.
    pub fn approx_variance_avg(&self, j: usize, n: usize) -> f64 {
        let k = self.ks[j];
        (0..k).map(|v| self.variance(j, v, 0.0, n)).sum::<f64>() / k as f64
    }
}

impl MultidimSolution for RsRfd {
    fn d(&self) -> usize {
        self.ks.len()
    }

    fn ks(&self) -> &[usize] {
        &self.ks
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn epsilon_amplified(&self) -> f64 {
        self.epsilon_amp
    }

    fn is_unary(&self) -> bool {
        matches!(self.protocol, RsRfdProtocol::UeR(_))
    }

    /// Draws every attribute's entry in order — the sampled one sanitized
    /// at ε′, the others fake samples of the prior — writing each into the
    /// report as it is drawn. A GRR entry is written straight from its draw.
    ///
    /// # Panics
    /// Also panics, in every build profile, when any value of the tuple is
    /// outside its attribute's domain, whichever attribute is sampled.
    fn report_with_sampled<R: Rng + ?Sized>(
        &self,
        tuple: &[u32],
        sampled: usize,
        rng: &mut R,
    ) -> SolutionReport {
        assert_tuple_in_domain(tuple, &self.ks);
        assert!(sampled < self.d(), "sampled attribute out of range");
        let (header, words) = (self.layout.header(sampled), self.layout.words);
        let cdfs = &self.prior_cdfs;
        SolutionReport::encode(header, words, |entries| match &self.randomizers {
            Randomizers::Grr(grrs) => {
                for (i, grr) in grrs.iter().enumerate() {
                    entries.value(if i == sampled {
                        grr.draw(tuple[i], rng)
                    } else {
                        // Alg. 1 line 6: a *plain* sample from the prior.
                        sample_cdf(&cdfs[i], rng) as u32
                    });
                }
            }
            Randomizers::Ue(ues) => {
                for (i, ue) in ues.iter().enumerate() {
                    entries.push(&if i == sampled {
                        ue.randomize(tuple[i], rng)
                    } else {
                        ue.randomize(sample_cdf(&cdfs[i], rng) as u32, rng)
                    });
                }
            }
        })
    }

    fn aggregator(&self) -> MultidimAggregator {
        MultidimAggregator::new(self.clone().into())
    }
}

#[cfg(test)]
mod theorems {
    //! Monte-Carlo validation of Theorems 1–4: unbiasedness of Eqs. (6)–(7)
    //! and the closed-form variances (8)–(9).

    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const KS: [usize; 2] = [5, 3];

    fn priors() -> Vec<Vec<f64>> {
        vec![vec![0.4, 0.3, 0.15, 0.1, 0.05], vec![0.2, 0.5, 0.3]]
    }

    /// Population with known marginals distinct from the priors.
    fn population(n: usize) -> (Vec<Vec<u32>>, Vec<Vec<f64>>) {
        let tuples: Vec<Vec<u32>> = (0..n)
            .map(|i| vec![(i % 5).min(2) as u32, (i % 2) as u32])
            .collect();
        let mut m0 = vec![0.0; 5];
        let mut m1 = vec![0.0; 3];
        for t in &tuples {
            m0[t[0] as usize] += 1.0;
            m1[t[1] as usize] += 1.0;
        }
        for f in m0.iter_mut().chain(m1.iter_mut()) {
            *f /= n as f64;
        }
        (tuples, vec![m0, m1])
    }

    #[test]
    fn theorem_1_and_3_estimators_are_unbiased() {
        let (tuples, truth) = population(60_000);
        let mut rng = StdRng::seed_from_u64(11);
        for protocol in RsRfdProtocol::ALL {
            let rsrfd = RsRfd::new(protocol, &KS, 2.0, priors()).unwrap();
            let mut agg = rsrfd.aggregator();
            for t in &tuples {
                agg.absorb(&rsrfd.report_encoded(t, &mut rng));
            }
            let est = agg.estimate();
            for j in 0..2 {
                for v in 0..truth[j].len() {
                    assert!(
                        (est[j][v] - truth[j][v]).abs() < 0.06,
                        "{} attr {j} value {v}: est {} truth {}",
                        protocol.name(),
                        est[j][v],
                        truth[j][v]
                    );
                }
            }
        }
    }

    #[test]
    fn theorem_2_and_4_variances_match_monte_carlo() {
        // Repeatedly estimate from small samples; the sample variance of
        // f̂(v) must match the closed form within Monte-Carlo tolerance.
        let n = 400;
        let reps = 400;
        let (tuples, truth) = population(n);
        for protocol in RsRfdProtocol::ALL {
            let rsrfd = RsRfd::new(protocol, &KS, 1.5, priors()).unwrap();
            let mut rng = StdRng::seed_from_u64(13);
            let (j, v) = (0usize, 1usize);
            let mut estimates = Vec::with_capacity(reps);
            for _ in 0..reps {
                let mut agg = rsrfd.aggregator();
                for t in &tuples {
                    agg.absorb(&rsrfd.report_encoded(t, &mut rng));
                }
                estimates.push(agg.estimate()[j][v]);
            }
            let mean = estimates.iter().sum::<f64>() / reps as f64;
            let var = estimates
                .iter()
                .map(|e| (e - mean) * (e - mean))
                .sum::<f64>()
                / reps as f64;
            let predicted = rsrfd.variance(j, v, truth[j][v], n);
            let rel = (var - predicted).abs() / predicted;
            assert!(
                rel < 0.35,
                "{}: empirical var {var:.6} vs Theorem {predicted:.6} (rel {rel:.2})",
                protocol.name()
            );
            // Unbiasedness re-check at small n.
            assert!((mean - truth[j][v]).abs() < 0.1, "mean {mean}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_protocols::Report;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_malformed_priors() {
        let ks = [4usize, 3];
        // Wrong count.
        assert!(RsRfd::new(RsRfdProtocol::Grr, &ks, 1.0, vec![vec![0.25; 4]]).is_err());
        // Wrong length.
        assert!(RsRfd::new(
            RsRfdProtocol::Grr,
            &ks,
            1.0,
            vec![vec![0.25; 4], vec![0.5; 4]]
        )
        .is_err());
        // Not normalized.
        assert!(RsRfd::new(
            RsRfdProtocol::Grr,
            &ks,
            1.0,
            vec![vec![0.25; 4], vec![0.9, 0.9, 0.9]]
        )
        .is_err());
        // Negative entry.
        assert!(RsRfd::new(
            RsRfdProtocol::Grr,
            &ks,
            1.0,
            vec![vec![0.25; 4], vec![1.2, -0.1, -0.1]]
        )
        .is_err());
    }

    #[test]
    #[should_panic(expected = "attribute 1: value 3 outside its domain")]
    fn out_of_domain_fake_attribute_panics_in_every_build() {
        // Attribute 1 is not sampled here, so its value would only be
        // replaced by a prior sample: the tuple check still rejects it.
        let priors = vec![vec![0.25; 4], vec![0.5, 0.3, 0.2]];
        let rsrfd = RsRfd::new(RsRfdProtocol::Grr, &[4, 3], 1.0, priors).unwrap();
        rsrfd.report_with_sampled(&[1, 3], 0, &mut StdRng::seed_from_u64(4));
    }

    #[test]
    fn grr_fakes_follow_the_prior() {
        let ks = [4usize, 2];
        let priors = vec![vec![0.7, 0.1, 0.1, 0.1], vec![0.5, 0.5]];
        let rsrfd = RsRfd::new(RsRfdProtocol::Grr, &ks, 1.0, priors).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut fake_counts = [0usize; 4];
        let mut fakes = 0usize;
        for _ in 0..20_000 {
            let r = rsrfd.report_encoded(&[3, 1], &mut rng);
            if r.hidden_attribute() != Some(0) {
                if let Some(Report::Value(v)) = r.tuple_entry(0) {
                    fake_counts[v as usize] += 1;
                    fakes += 1;
                }
            }
        }
        let f0 = fake_counts[0] as f64 / fakes as f64;
        assert!((f0 - 0.7).abs() < 0.03, "fake head rate {f0}");
    }

    #[test]
    fn variance_decreases_with_n_and_matches_shape() {
        let priors = vec![vec![0.25; 4], vec![1.0 / 3.0; 3]];
        for protocol in RsRfdProtocol::ALL {
            let rsrfd = RsRfd::new(protocol, &[4, 3], 1.0, priors.clone()).unwrap();
            let v1 = rsrfd.variance(0, 0, 0.2, 500);
            let v2 = rsrfd.variance(0, 0, 0.2, 5000);
            assert!(v1 > 0.0);
            assert!((v1 / v2 - 10.0).abs() < 1e-6);
        }
    }

    #[test]
    fn uniform_priors_reduce_to_rsfd_estimates() {
        // With f̃ = 1/k, Eq. (6) must coincide with the RS+FD[GRR] estimator.
        use super::super::rsfd::{RsFd, RsFdProtocol};
        let ks = [4usize, 3];
        let uniform = vec![vec![0.25; 4], vec![1.0 / 3.0; 3]];
        let rsrfd = RsRfd::new(RsRfdProtocol::Grr, &ks, 1.0, uniform).unwrap();
        let rsfd = RsFd::new(RsFdProtocol::Grr, &ks, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let tuples: Vec<Vec<u32>> = (0..5000).map(|i| vec![(i % 4) as u32, 0]).collect();
        let (mut a, mut b) = (rsrfd.aggregator(), rsfd.aggregator());
        for t in &tuples {
            let report = rsrfd.report_encoded(t, &mut rng);
            a.absorb(&report);
            b.absorb(&report);
        }
        let (a, b) = (a.estimate(), b.estimate());
        for j in 0..2 {
            for v in 0..ks[j] {
                assert!(
                    (a[j][v] - b[j][v]).abs() < 1e-9,
                    "attr {j} value {v}: {} vs {}",
                    a[j][v],
                    b[j][v]
                );
            }
        }
    }

    #[test]
    fn names_follow_paper_convention() {
        assert_eq!(RsRfdProtocol::Grr.name(), "RS+RFD[GRR]");
        assert_eq!(
            RsRfdProtocol::UeR(UeMode::Optimized).name(),
            "RS+RFD[OUE-r]"
        );
    }
}
