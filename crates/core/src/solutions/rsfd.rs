//! Random Sampling + Fake Data (RS+FD, §2.3.2) — Arcolezi et al. [4].
//!
//! Each user samples one attribute, sanitizes it with the amplified budget
//! `ε′ = ln(d(e^ε − 1) + 1)`, and sends **uniform fake data** for every other
//! attribute, hiding the sampled attribute from the aggregator. Three fake
//! generation procedures are supported:
//!
//! * [`RsFdProtocol::Grr`] — fakes are uniform values in the attribute domain;
//! * [`RsFdProtocol::UeZ`] — fakes are UE-perturbed **zero vectors**;
//! * [`RsFdProtocol::UeR`] — fakes are UE-perturbed **random one-hot** vectors.
//!
//! The server-side unbiased estimators are the ones derived in [4] and
//! restated in §2.3.2 of the paper.

use ldp_protocols::{FrequencyOracle, Grr, ProtocolError, Report, UeMode, UnaryEncoding};
use rand::Rng;

use super::report::fixed_shape_words;
use super::{
    assert_tuple_in_domain, validate_config, MultidimAggregator, MultidimSolution, SolutionReport,
};
use crate::amplification::amplify;

/// Which LDP protocol and fake-data procedure RS+FD runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RsFdProtocol {
    /// RS+FD\[GRR\]: GRR reports, uniform fake values.
    Grr,
    /// RS+FD[UE-z]: UE reports, fake = perturbed zero vector.
    UeZ(UeMode),
    /// RS+FD[UE-r]: UE reports, fake = perturbed random one-hot vector.
    UeR(UeMode),
}

impl RsFdProtocol {
    /// Paper-style label, e.g. `"RS+FD[SUE-z]"`.
    pub fn name(self) -> String {
        match self {
            RsFdProtocol::Grr => "RS+FD[GRR]".to_string(),
            RsFdProtocol::UeZ(m) => format!("RS+FD[{}-z]", m.name()),
            RsFdProtocol::UeR(m) => format!("RS+FD[{}-r]", m.name()),
        }
    }

    /// The five variants evaluated in §4.3, in the paper's order.
    pub const ALL: [RsFdProtocol; 5] = [
        RsFdProtocol::Grr,
        RsFdProtocol::UeZ(UeMode::Symmetric),
        RsFdProtocol::UeZ(UeMode::Optimized),
        RsFdProtocol::UeR(UeMode::Symmetric),
        RsFdProtocol::UeR(UeMode::Optimized),
    ];
}

#[derive(Debug, Clone)]
enum Randomizers {
    Grr(Vec<Grr>),
    Ue(Vec<UnaryEncoding>),
}

/// The RS+FD solution over `d` attributes.
#[derive(Debug, Clone)]
pub struct RsFd {
    protocol: RsFdProtocol,
    ks: Vec<usize>,
    epsilon: f64,
    epsilon_amp: f64,
    randomizers: Randomizers,
}

impl RsFd {
    /// Builds the solution; per-attribute randomizers run at ε′.
    pub fn new(protocol: RsFdProtocol, ks: &[usize], epsilon: f64) -> Result<Self, ProtocolError> {
        validate_config(ks, epsilon)?;
        let epsilon_amp = amplify(epsilon, ks.len());
        let randomizers = match protocol {
            RsFdProtocol::Grr => Randomizers::Grr(
                ks.iter()
                    .map(|&k| Grr::new(k, epsilon_amp))
                    .collect::<Result<_, _>>()?,
            ),
            RsFdProtocol::UeZ(mode) | RsFdProtocol::UeR(mode) => Randomizers::Ue(
                ks.iter()
                    .map(|&k| UnaryEncoding::new(k, epsilon_amp, mode))
                    .collect::<Result<_, _>>()?,
            ),
        };
        Ok(RsFd {
            protocol,
            ks: ks.to_vec(),
            epsilon,
            epsilon_amp,
            randomizers,
        })
    }

    /// The variant in use.
    pub fn protocol(&self) -> RsFdProtocol {
        self.protocol
    }

    /// Effective UE parameters `(p, q)` of attribute `j` (GRR variants return
    /// the GRR pair). Exposed for the estimator-variance analysis.
    pub fn pq(&self, j: usize) -> (f64, f64) {
        match &self.randomizers {
            Randomizers::Grr(grrs) => (grrs[j].p(), grrs[j].q()),
            Randomizers::Ue(ues) => (ues[j].p(), ues[j].q()),
        }
    }

    /// Approximate per-value estimator variance (the paper sets `f = 0`) for
    /// attribute `j` from `n` reports: RS+FD is RS+RFD with uniform priors,
    /// so the Theorem 2/4 formulas apply with `f̃ = 1/k`.
    pub fn approx_variance(&self, j: usize, n: usize) -> f64 {
        let d = self.ks.len() as f64;
        let k = self.ks[j] as f64;
        let (p, q) = self.pq(j);
        let gamma = match self.protocol {
            RsFdProtocol::Grr => (q + (d - 1.0) / k) / d,
            // Fake zero vectors set a bit with probability q.
            RsFdProtocol::UeZ(_) => (q + (d - 1.0) * q) / d,
            RsFdProtocol::UeR(_) => (q + (d - 1.0) * ((p - q) / k + q)) / d,
        };
        d * d * gamma * (1.0 - gamma) / (n as f64 * (p - q) * (p - q))
    }
}

impl MultidimSolution for RsFd {
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
        matches!(self.protocol, RsFdProtocol::UeZ(_) | RsFdProtocol::UeR(_))
    }

    /// Draws every attribute's entry in order — the sampled one sanitized
    /// at ε′, the others fake — writing each into the report as it is
    /// drawn. A GRR entry is written straight from its draw.
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
        let len = fixed_shape_words(&self.ks, self.is_unary());
        SolutionReport::encode_tuple(self.d(), sampled, len, |entries| match &self.randomizers {
            Randomizers::Grr(grrs) => {
                for (i, grr) in grrs.iter().enumerate() {
                    entries.value(if i == sampled {
                        grr.draw(tuple[i], rng)
                    } else {
                        rng.random_range(0..grr.domain_size() as u32)
                    });
                }
            }
            Randomizers::Ue(ues) => {
                for (i, ue) in ues.iter().enumerate() {
                    entries.push(&if i == sampled {
                        ue.randomize(tuple[i], rng)
                    } else {
                        match self.protocol {
                            // UE-z fake: no zero vector is ever materialized —
                            // the word-parallel background sampler writes
                            // Bernoulli(q) words straight into the report.
                            RsFdProtocol::UeZ(_) => Report::Bits(ue.perturb_zero_vector(rng)),
                            RsFdProtocol::UeR(_) => {
                                let fake = rng.random_range(0..ue.domain_size() as u32);
                                ue.randomize(fake, rng)
                            }
                            RsFdProtocol::Grr => unreachable!("GRR variant has UE randomizers"),
                        }
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
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Skewed two-attribute population with known marginals.
    fn population(n: usize) -> (Vec<Vec<u32>>, Vec<Vec<f64>>) {
        let tuples: Vec<Vec<u32>> = (0..n)
            .map(|i| {
                let a = if i % 10 < 7 { 0 } else { 1 }; // 70/30 over k=4 (rest 0)
                let b = (i % 5).min(2) as u32; // 40/20/40-ish over k=3
                vec![a, b]
            })
            .collect();
        let mut m0 = vec![0.0; 4];
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
    fn all_variants_estimate_marginals_unbiasedly() {
        let (tuples, truth) = population(60_000);
        let mut rng = StdRng::seed_from_u64(5);
        for protocol in RsFdProtocol::ALL {
            let rsfd = RsFd::new(protocol, &[4, 3], 2.0).unwrap();
            let mut agg = rsfd.aggregator();
            for t in &tuples {
                agg.absorb(&rsfd.report_encoded(t, &mut rng));
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
    fn sampled_attribute_is_uniform() {
        let rsfd = RsFd::new(RsFdProtocol::Grr, &[4, 3, 5], 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let mut counts = [0usize; 3];
        for _ in 0..9000 {
            let report = rsfd.report_encoded(&[0, 0, 0], &mut rng);
            counts[report.hidden_attribute().unwrap()] += 1;
        }
        for c in counts {
            assert!((c as f64 / 9000.0 - 1.0 / 3.0).abs() < 0.03);
        }
    }

    #[test]
    fn reports_cover_every_attribute() {
        let rsfd = RsFd::new(RsFdProtocol::UeZ(UeMode::Optimized), &[4, 3], 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let values = rsfd.report_encoded(&[1, 2], &mut rng).to_tuple().unwrap();
        assert_eq!(values.len(), 2);
        for (j, rep) in values.iter().enumerate() {
            match rep {
                Report::Bits(b) => assert_eq!(b.len(), [4, 3][j]),
                other => panic!("unexpected shape {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "attribute 2: value 5 outside its domain")]
    fn out_of_domain_fake_attribute_panics_in_every_build() {
        // Attribute 2 is never sampled here, so its value would only be
        // replaced by a fake: the tuple check still rejects it.
        let rsfd = RsFd::new(RsFdProtocol::Grr, &[4, 3, 5], 1.0).unwrap();
        rsfd.report_with_sampled(&[0, 0, 5], 0, &mut StdRng::seed_from_u64(9));
    }

    #[test]
    #[should_panic(expected = "attribute 0: value 4 outside its domain")]
    fn out_of_domain_sampled_attribute_panics_for_ue_variants_too() {
        let rsfd = RsFd::new(RsFdProtocol::UeZ(UeMode::Optimized), &[4, 3], 1.0).unwrap();
        rsfd.report_with_sampled(&[4, 0], 0, &mut StdRng::seed_from_u64(9));
    }

    #[test]
    fn amplified_budget_matches_formula() {
        let rsfd = RsFd::new(RsFdProtocol::Grr, &[4, 3, 5], 1.5).unwrap();
        assert!((rsfd.epsilon_amplified() - amplify(1.5, 3)).abs() < 1e-12);
        assert!(rsfd.epsilon_amplified() > rsfd.epsilon());
    }

    #[test]
    fn ue_z_fakes_have_fewer_ones_than_ue_r_fakes() {
        // The structural difference the §4.3 attack exploits: zero-vector
        // fakes only set bits at rate q, one-hot fakes at ~(p + (k−1)q)/k.
        let k = 20;
        let mut rng = StdRng::seed_from_u64(8);
        let z = RsFd::new(RsFdProtocol::UeZ(UeMode::Optimized), &[k, k], 5.0).unwrap();
        let r = RsFd::new(RsFdProtocol::UeR(UeMode::Optimized), &[k, k], 5.0).unwrap();
        let count_fake_ones = |rsfd: &RsFd, rng: &mut StdRng| -> f64 {
            let mut total = 0usize;
            let mut fakes = 0usize;
            for _ in 0..4000 {
                let rep = rsfd.report_encoded(&[0, 0], rng);
                let sampled = rep.hidden_attribute().unwrap();
                for (j, value) in rep.to_tuple().unwrap().iter().enumerate() {
                    if let (false, Report::Bits(b)) = (j == sampled, value) {
                        total += b.count_ones();
                        fakes += 1;
                    }
                }
            }
            total as f64 / fakes as f64
        };
        let z_ones = count_fake_ones(&z, &mut rng);
        let r_ones = count_fake_ones(&r, &mut rng);
        assert!(
            r_ones > z_ones + 0.3,
            "UE-r fakes ({r_ones}) should carry more ones than UE-z fakes ({z_ones})"
        );
    }

    #[test]
    fn approx_variance_is_positive_and_shrinks_with_n() {
        for protocol in RsFdProtocol::ALL {
            let rsfd = RsFd::new(protocol, &[16, 7], 1.0).unwrap();
            let v1 = rsfd.approx_variance(0, 1000);
            let v2 = rsfd.approx_variance(0, 10_000);
            assert!(v1 > 0.0 && v2 > 0.0);
            assert!(
                (v1 / v2 - 10.0).abs() < 1e-6,
                "variance should scale as 1/n"
            );
        }
    }

    #[test]
    fn names_follow_paper_convention() {
        assert_eq!(RsFdProtocol::Grr.name(), "RS+FD[GRR]");
        assert_eq!(RsFdProtocol::UeZ(UeMode::Symmetric).name(), "RS+FD[SUE-z]");
        assert_eq!(RsFdProtocol::UeR(UeMode::Optimized).name(), "RS+FD[OUE-r]");
    }
}
