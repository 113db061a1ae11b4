//! The SMP solution (§2.3.1): each user samples one attribute uniformly at
//! random, sanitizes it with the **whole** budget ε, and sends
//! `⟨sampled attribute, ε-LDP report⟩` — disclosing the sampled attribute,
//! which is precisely what the paper's re-identification attack exploits.

use ldp_protocols::{FrequencyOracle, Oracle, ProtocolError, ProtocolKind, Report};
use rand::Rng;

use super::{validate_config, MultidimAggregator};

/// One SMP message: the disclosed attribute index plus its ε-LDP report.
#[derive(Debug, Clone, PartialEq)]
pub struct SmpReport {
    /// The sampled (and disclosed) attribute.
    pub attr: usize,
    /// The ε-LDP report for that attribute.
    pub report: Report,
}

/// SMP solution over `d` attributes with a single frequency-oracle family.
#[derive(Debug, Clone)]
pub struct Smp {
    kind: ProtocolKind,
    epsilon: f64,
    ks: Vec<usize>,
    oracles: Vec<Oracle>,
}

impl Smp {
    /// Builds one ε-budget oracle per attribute.
    pub fn new(kind: ProtocolKind, ks: &[usize], epsilon: f64) -> Result<Self, ProtocolError> {
        validate_config(ks, epsilon)?;
        let oracles = ks
            .iter()
            .map(|&k| kind.build(k, epsilon))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Smp {
            kind,
            epsilon,
            ks: ks.to_vec(),
            oracles,
        })
    }

    /// The frequency-oracle family in use.
    pub fn kind(&self) -> ProtocolKind {
        self.kind
    }

    /// Privacy budget ε (whole budget per report).
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of attributes.
    pub fn d(&self) -> usize {
        self.ks.len()
    }

    /// Domain sizes.
    pub fn ks(&self) -> &[usize] {
        &self.ks
    }

    /// The per-attribute oracle (used by attack code needing protocol
    /// internals, e.g. OLH preimages).
    pub fn oracle(&self, j: usize) -> &Oracle {
        &self.oracles[j]
    }

    /// Samples an attribute uniformly and reports it with the whole budget.
    pub fn report<R: Rng + ?Sized>(&self, tuple: &[u32], rng: &mut R) -> SmpReport {
        let attr = rng.random_range(0..self.d());
        self.report_attr(tuple, attr, rng)
    }

    /// Reports a *fixed* attribute (used by the survey engine to implement
    /// sampling without replacement across surveys).
    ///
    /// # Panics
    /// Panics when `attr >= d` or the tuple width mismatches.
    pub fn report_attr<R: Rng + ?Sized>(
        &self,
        tuple: &[u32],
        attr: usize,
        rng: &mut R,
    ) -> SmpReport {
        assert_eq!(tuple.len(), self.d(), "tuple width mismatch");
        assert!(attr < self.d(), "attribute index out of range");
        SmpReport {
            attr,
            report: self.oracles[attr].randomize(tuple[attr], rng),
        }
    }

    /// A fresh streaming aggregator configured with the per-attribute
    /// full-budget Eq. (2) estimators over each attribute's own `n_j`.
    pub fn aggregator(&self) -> MultidimAggregator {
        MultidimAggregator::new(self.clone().into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_population(n: usize) -> Vec<Vec<u32>> {
        // Attribute 0 (k=4): everyone holds 1. Attribute 1 (k=3): half 0, half 2.
        (0..n)
            .map(|i| vec![1u32, if i % 2 == 0 { 0 } else { 2 }])
            .collect()
    }

    #[test]
    fn estimates_recover_marginals() {
        let smp = Smp::new(ProtocolKind::Grr, &[4, 3], 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut agg = smp.aggregator();
        for t in toy_population(40_000) {
            agg.absorb_smp(&smp.report(&t, &mut rng));
        }
        let est = agg.estimate();
        assert!((est[0][1] - 1.0).abs() < 0.05, "est {est:?}");
        assert!((est[1][0] - 0.5).abs() < 0.05);
        assert!((est[1][2] - 0.5).abs() < 0.05);
        assert!(est[1][1].abs() < 0.05);
    }

    #[test]
    fn sampling_is_roughly_uniform_over_attributes() {
        let smp = Smp::new(ProtocolKind::Oue, &[4, 3, 5], 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0usize; 3];
        for _ in 0..9000 {
            let r = smp.report(&[0, 0, 0], &mut rng);
            counts[r.attr] += 1;
        }
        for c in counts {
            assert!((c as f64 / 9000.0 - 1.0 / 3.0).abs() < 0.03, "{counts:?}");
        }
    }

    #[test]
    fn report_attr_reports_requested_attribute() {
        let smp = Smp::new(ProtocolKind::Sue, &[4, 3], 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let r = smp.report_attr(&[2, 1], 1, &mut rng);
        assert_eq!(r.attr, 1);
        match r.report {
            Report::Bits(b) => assert_eq!(b.len(), 3),
            other => panic!("unexpected shape {other:?}"),
        }
    }

    #[test]
    fn works_with_every_protocol_kind() {
        let mut rng = StdRng::seed_from_u64(4);
        for kind in ProtocolKind::ALL {
            let smp = Smp::new(kind, &[6, 4], 2.0).unwrap();
            let mut agg = smp.aggregator();
            for _ in 0..4000 {
                agg.absorb_smp(&smp.report(&[3, 1], &mut rng));
            }
            let est = agg.estimate();
            assert!(
                (est[0][3] - 1.0).abs() < 0.15,
                "{kind}: est[0] = {:?}",
                est[0]
            );
            assert!(
                (est[1][1] - 1.0).abs() < 0.15,
                "{kind}: est[1] = {:?}",
                est[1]
            );
        }
    }

    #[test]
    #[should_panic(expected = "attribute index")]
    fn report_attr_rejects_out_of_range() {
        let smp = Smp::new(ProtocolKind::Grr, &[4, 3], 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        smp.report_attr(&[0, 0], 2, &mut rng);
    }
}
