//! Random Sampling + Fake Data: RS+FD (§2.3.2, Arcolezi et al. [4]) and
//! the paper's §5 countermeasure RS+RFD, one mechanism apart only in where
//! its fake data comes from.
//!
//! Each user samples one attribute, sanitizes it with the amplified budget
//! `ε′ = ln(d(e^ε − 1) + 1)`, and sends fake data for every other
//! attribute, hiding the sampled attribute from the aggregator. RS+FD draws
//! its fakes **uniformly**; RS+RFD (Algorithm 1) draws them from
//! per-attribute **priors** `f̃` (e.g. last year's Census statistics), so
//! fake entries look like sanitized real ones, which almost fully defeats
//! the sampled-attribute inference attack while *improving* utility. The
//! fake entries:
//!
//! * [`RsFdProtocol::Grr`] / [`RsRfdProtocol::Grr`] — a uniform / prior
//!   value in the attribute domain;
//! * [`RsFdProtocol::UeZ`] — a UE-perturbed **zero vector**;
//! * [`RsFdProtocol::UeR`] / [`RsRfdProtocol::UeR`] — a UE-perturbed
//!   one-hot encoding of a uniform / prior value.
//!
//! The server-side unbiased estimators are the ones derived in [4] and
//! restated in §2.3.2 of the paper, and Eqs. (6)–(7) for RS+RFD
//! (`MultidimAggregator::estimate`); [`RsFd::variance`] is the closed form
//! of Theorems 2 and 4, for every fake source.

use ldp_protocols::{FrequencyOracle, Grr, ProtocolError, Report, UeMode, UnaryEncoding};
use rand::Rng;

use super::layout::{Field, Layout};
use super::{
    assert_tuple_in_domain, sample_cdf, to_cdf, validate_config, MultidimAggregator, SolutionKind,
    SolutionReport,
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

/// RS+FD over `d` attributes, or RS+RFD when built
/// [`with_priors`](RsFd::with_priors).
#[derive(Debug, Clone)]
pub struct RsFd {
    protocol: RsFdProtocol,
    ks: Vec<usize>,
    epsilon: f64,
    epsilon_amp: f64,
    /// RS+RFD's fake-data priors `f̃`; `None` draws fakes uniformly.
    priors: Option<Vec<Vec<f64>>>,
    /// The priors' sampling CDFs, empty for uniform fakes.
    prior_cdfs: Vec<Vec<f64>>,
    randomizers: Randomizers,
    pub(super) layout: Layout,
}

impl RsFd {
    /// Builds RS+FD with uniform fakes; per-attribute randomizers run at ε′.
    pub fn new(protocol: RsFdProtocol, ks: &[usize], epsilon: f64) -> Result<Self, ProtocolError> {
        RsFd::build(protocol, ks, epsilon, None)
    }

    /// Builds the RS+RFD countermeasure, whose fakes follow per-attribute
    /// prior distributions (`priors[j]` must have length `ks[j]`,
    /// non-negative entries summing to ≈1).
    pub fn with_priors(
        protocol: RsRfdProtocol,
        ks: &[usize],
        epsilon: f64,
        priors: Vec<Vec<f64>>,
    ) -> Result<Self, ProtocolError> {
        let protocol = match protocol {
            RsRfdProtocol::Grr => RsFdProtocol::Grr,
            RsRfdProtocol::UeR(mode) => RsFdProtocol::UeR(mode),
        };
        RsFd::build(protocol, ks, epsilon, Some(priors))
    }

    /// Validates the configuration, then any priors, then builds the
    /// randomizers at ε′ and the report layout.
    fn build(
        protocol: RsFdProtocol,
        ks: &[usize],
        epsilon: f64,
        priors: Option<Vec<Vec<f64>>>,
    ) -> Result<Self, ProtocolError> {
        validate_config(ks, epsilon)?;
        if let Some(priors) = &priors {
            validate_priors(ks, priors)?;
        }
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
        let unary = !matches!(randomizers, Randomizers::Grr(_));
        Ok(RsFd {
            protocol,
            layout: Layout::tuple(ks.iter().map(|&k| Field::fake_data(k, unary)).collect()),
            ks: ks.to_vec(),
            epsilon,
            epsilon_amp,
            prior_cdfs: priors.iter().flatten().map(|p| to_cdf(p)).collect(),
            priors,
            randomizers,
        })
    }

    /// The protocol and fake-data procedure in use (RS+RFD\[UE-r\] runs
    /// [`RsFdProtocol::UeR`] with prior fakes).
    pub fn protocol(&self) -> RsFdProtocol {
        self.protocol
    }

    /// RS+RFD's fake-data priors; `None` for RS+FD's uniform fakes.
    pub fn priors(&self) -> Option<&[Vec<f64>]> {
        self.priors.as_deref()
    }

    /// RS+FD with its protocol, or RS+RFD when fakes follow priors.
    pub(crate) fn kind(&self) -> SolutionKind {
        match (self.protocol, self.priors.is_some()) {
            (protocol, false) => SolutionKind::RsFd(protocol),
            (RsFdProtocol::Grr, true) => SolutionKind::RsRfd(RsRfdProtocol::Grr),
            (RsFdProtocol::UeR(mode), true) => SolutionKind::RsRfd(RsRfdProtocol::UeR(mode)),
            (RsFdProtocol::UeZ(_), true) => unreachable!("RS+RFD has no UE-z variant"),
        }
    }

    /// Number of attributes `d`.
    pub fn d(&self) -> usize {
        self.ks.len()
    }

    /// Domain sizes `k_j`.
    pub fn ks(&self) -> &[usize] {
        &self.ks
    }

    /// User-level privacy budget ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Amplified budget ε′ applied to the sampled attribute.
    pub fn epsilon_amplified(&self) -> f64 {
        self.epsilon_amp
    }

    /// Whether per-attribute reports are unary-encoded bit vectors (true) or
    /// plain categorical values (false): determines the attack's feature
    /// encoding.
    pub fn is_unary(&self) -> bool {
        matches!(self.randomizers, Randomizers::Ue(_))
    }

    /// Effective `(p, q)` of attribute `j` at the amplified budget (GRR
    /// variants return the GRR pair, UE variants the UE pair).
    pub fn pq(&self, j: usize) -> (f64, f64) {
        match &self.randomizers {
            Randomizers::Grr(grrs) => (grrs[j].p(), grrs[j].q()),
            Randomizers::Ue(ues) => (ues[j].p(), ues[j].q()),
        }
    }

    /// Theorem 2 / Theorem 4 estimator variance for value `v` of attribute
    /// `j` with true frequency `f`, from `n` reports:
    /// `Var = d²γ(1−γ) / (n(p−q)²)` with `γ = (q + f(p−q) + (d−1)·s_v)/d`,
    /// where `s_v` is the chance that one fake entry supports `v`: the fake
    /// value's own chance `f̃_v` (or `1/k`) for GRR, `q + (p−q)·f̃_v` (or
    /// `1/k`) for a UE-r one-hot fake and `q` for a UE-z zero vector.
    pub fn variance(&self, j: usize, v: usize, f: f64, n: usize) -> f64 {
        let d = self.ks.len() as f64;
        let (p, q) = self.pq(j);
        let fake = match &self.priors {
            Some(priors) => priors[j][v],
            None => 1.0 / self.ks[j] as f64,
        };
        let s_v = match self.protocol {
            RsFdProtocol::Grr => fake,
            RsFdProtocol::UeZ(_) => q,
            RsFdProtocol::UeR(_) => q + (p - q) * fake,
        };
        let gamma = (q + f * (p - q) + (d - 1.0) * s_v) / d;
        d * d * gamma * (1.0 - gamma) / (n as f64 * (p - q) * (p - q))
    }

    /// The paper's analytic curve for attribute `j` from `n` reports: the
    /// estimator variance at `f = 0`, averaged over the attribute's values
    /// with priors (Fig. 16), and in RS+FD's closed form, where every value
    /// has the same variance, without them.
    pub fn approx_variance(&self, j: usize, n: usize) -> f64 {
        let k = self.ks[j];
        if self.priors.is_some() {
            return (0..k).map(|v| self.variance(j, v, 0.0, n)).sum::<f64>() / k as f64;
        }
        let (d, k) = (self.ks.len() as f64, k as f64);
        let (p, q) = self.pq(j);
        let gamma = match self.protocol {
            RsFdProtocol::Grr => (q + (d - 1.0) / k) / d,
            // Fake zero vectors set a bit with probability q.
            RsFdProtocol::UeZ(_) => (q + (d - 1.0) * q) / d,
            RsFdProtocol::UeR(_) => (q + (d - 1.0) * ((p - q) / k + q)) / d,
        };
        d * d * gamma * (1.0 - gamma) / (n as f64 * (p - q) * (p - q))
    }

    /// A fresh streaming server-side aggregator configured with this
    /// solution's unbiased estimator.
    pub fn aggregator(&self) -> MultidimAggregator {
        MultidimAggregator::new(self.clone().into())
    }

    /// Client-side sanitization of one user tuple with a caller-chosen
    /// sampled attribute (the survey engine uses it to sample without
    /// replacement across surveys, and the §3.3 attacker to label its own
    /// synthetic profiles): every attribute's entry in order, the sampled
    /// one sanitized at ε′, the others fake, each written into the report's
    /// words as it is drawn, and the hidden `sampled` in the tuple header.
    /// A GRR entry is written straight from its draw.
    ///
    /// # Panics
    /// Panics on tuple width mismatch or `sampled >= d`, and, in every
    /// build profile, when any value of the tuple is outside its
    /// attribute's domain, whichever attribute is sampled.
    pub fn report_with_sampled<R: Rng + ?Sized>(
        &self,
        tuple: &[u32],
        sampled: usize,
        rng: &mut R,
    ) -> SolutionReport {
        assert_tuple_in_domain(tuple, &self.ks);
        assert!(sampled < self.d(), "sampled attribute out of range");
        if self.priors.is_some() {
            // Alg. 1 line 6: a *plain* sample from the prior.
            let cdfs = &self.prior_cdfs;
            self.encode(tuple, sampled, rng, |j, _, rng| {
                sample_cdf(&cdfs[j], rng) as u32
            })
        } else {
            self.encode(tuple, sampled, rng, |_, k, rng| {
                rng.random_range(0..k as u32)
            })
        }
    }

    /// [`RsFd::report_with_sampled`]'s writer, with attribute `j`'s fake
    /// value of domain `k` drawn by `fake_value(j, k, rng)`: one body, one
    /// copy compiled per fake source.
    #[inline(always)]
    fn encode<R: Rng + ?Sized>(
        &self,
        tuple: &[u32],
        sampled: usize,
        rng: &mut R,
        fake_value: impl Fn(usize, usize, &mut R) -> u32,
    ) -> SolutionReport {
        let (header, words) = (self.layout.header(sampled), self.layout.words);
        SolutionReport::encode(header, words, |entries| match &self.randomizers {
            Randomizers::Grr(grrs) => {
                for (i, grr) in grrs.iter().enumerate() {
                    entries.value(if i == sampled {
                        grr.draw(tuple[i], rng)
                    } else {
                        fake_value(i, grr.domain_size(), rng)
                    });
                }
            }
            Randomizers::Ue(ues) => {
                for (i, ue) in ues.iter().enumerate() {
                    entries.push(&if i == sampled {
                        ue.randomize(tuple[i], rng)
                    } else if let RsFdProtocol::UeZ(_) = self.protocol {
                        // UE-z fake: no zero vector is ever materialized —
                        // the word-parallel background sampler writes
                        // Bernoulli(q) words straight into the report.
                        Report::Bits(ue.perturb_zero_vector(rng))
                    } else {
                        ue.randomize(fake_value(i, ue.domain_size(), rng), rng)
                    });
                }
            }
        })
    }

    /// Client-side sanitization of one user tuple: draws the sampled
    /// attribute uniformly, then [`RsFd::report_with_sampled`].
    pub fn report_encoded<R: Rng + ?Sized>(&self, tuple: &[u32], rng: &mut R) -> SolutionReport {
        let sampled = rng.random_range(0..self.d());
        self.report_with_sampled(tuple, sampled, rng)
    }

    /// [`RsFd::report_encoded`] over a whole round of tuples, on the same
    /// RNG stream, returning each user's sampled attribute beside the
    /// reports: the labels the §3.3 attack is scored on, known to the
    /// caller that drew them and never read back from the words.
    pub fn report_round<'a, R: Rng + ?Sized>(
        &self,
        tuples: impl IntoIterator<Item = &'a [u32]>,
        rng: &mut R,
    ) -> (Vec<SolutionReport>, Vec<usize>) {
        tuples
            .into_iter()
            .map(|tuple| {
                let sampled = rng.random_range(0..self.d());
                (self.report_with_sampled(tuple, sampled, rng), sampled)
            })
            .unzip()
    }
}

/// Checks RS+RFD's priors: one per attribute, each of its attribute's
/// domain size, with entries in `[0, 1]` summing to 1.
fn validate_priors(ks: &[usize], priors: &[Vec<f64>]) -> Result<(), ProtocolError> {
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
    Ok(())
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
