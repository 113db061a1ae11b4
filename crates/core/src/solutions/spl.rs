//! The naïve SPL solution (§2.3.1): sequential composition — split the budget
//! ε over the `d` attributes and report all of them with ε/d-LDP each. Kept
//! as the utility baseline the paper dismisses for its high estimation error.

use ldp_protocols::{FrequencyOracle, FusedUeGroup, Oracle, ProtocolError, ProtocolKind, Report};
use rand::Rng;

use super::report::fixed_shape_words;
use super::{validate_config, MultidimAggregator, SolutionReport};

/// SPL solution over `d` attributes with a single frequency-oracle family.
#[derive(Debug, Clone)]
pub struct Spl {
    kind: ProtocolKind,
    epsilon: f64,
    ks: Vec<usize>,
    oracles: Vec<Oracle>,
    /// Packed multi-word tuple sanitizer for the UE families — every SPL
    /// attribute runs at the same ε/d, so UE's `(p, q)` match across
    /// attributes by construction and the whole tuple is one packed draw of
    /// `⌈Σk/64⌉` words (see [`FusedUeGroup`]). `None` for GRR, OLH and SS.
    fused: Option<FusedUeGroup>,
    /// Words of an encoded UE report: the header, then one header and
    /// `⌈k_j/64⌉` blocks per attribute.
    ue_words: usize,
}

impl Spl {
    /// Builds one (ε/d)-budget oracle per attribute.
    pub fn new(kind: ProtocolKind, ks: &[usize], epsilon: f64) -> Result<Self, ProtocolError> {
        validate_config(ks, epsilon)?;
        let per_attr = epsilon / ks.len() as f64;
        let oracles = ks
            .iter()
            .map(|&k| kind.build(k, per_attr))
            .collect::<Result<Vec<_>, _>>()?;
        let fused = oracles
            .iter()
            .map(|o| match o {
                Oracle::Ue(ue) => Some(ue),
                _ => None,
            })
            .collect::<Option<Vec<_>>>()
            .and_then(FusedUeGroup::build);
        Ok(Spl {
            kind,
            epsilon,
            ue_words: fixed_shape_words(ks, true),
            ks: ks.to_vec(),
            oracles,
            fused,
        })
    }

    /// The frequency-oracle family in use.
    pub fn kind(&self) -> ProtocolKind {
        self.kind
    }

    /// Total privacy budget ε (ε/d per attribute).
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

    /// The per-attribute (ε/d)-budget oracle (used by attack code needing
    /// protocol internals, e.g. OLH preimages).
    pub fn oracle(&self, j: usize) -> &Oracle {
        &self.oracles[j]
    }

    /// Sanitizes the full tuple, one (ε/d)-LDP report per attribute.
    ///
    /// UE families fuse the whole tuple into one packed multi-word draw
    /// ([`FusedUeGroup`]); GRR, OLH and SS randomize attribute by attribute.
    /// Both paths produce identical per-report marginals.
    ///
    /// # Panics
    /// Panics on tuple width mismatch, or (UE and GRR families) on a value
    /// outside its attribute's domain.
    pub fn report<R: Rng + ?Sized>(&self, tuple: &[u32], rng: &mut R) -> Vec<Report> {
        assert_eq!(tuple.len(), self.d(), "tuple width mismatch");
        if let Some(fused) = &self.fused {
            let mut out = Vec::with_capacity(self.d());
            fused.randomize_tuple_into(tuple, &mut out, rng);
            return out;
        }
        tuple
            .iter()
            .zip(&self.oracles)
            .map(|(&v, o)| o.randomize(v, rng))
            .collect()
    }

    /// [`Spl::report`] born encoded, equal to [`SolutionReport::full`] of
    /// it on the same RNG stream. UE families write every field's header
    /// and blocks straight from the packed draw, with no per-attribute
    /// report in between; GRR, OLH and SS encode the structured report.
    ///
    /// # Panics
    /// As [`Spl::report`].
    pub(crate) fn report_encoded<R: Rng + ?Sized>(
        &self,
        tuple: &[u32],
        rng: &mut R,
    ) -> SolutionReport {
        let Some(fused) = &self.fused else {
            return SolutionReport::full(&self.report(tuple, rng));
        };
        assert_eq!(tuple.len(), self.d(), "tuple width mismatch");
        SolutionReport::encode_full(self.d(), self.ue_words, |entries| {
            fused.randomize_tuple_fields(tuple, rng, |k, blocks| entries.bits(k, blocks))
        })
    }

    /// A fresh streaming aggregator configured with the per-attribute
    /// (ε/d)-budget Eq. (2) estimators.
    pub fn aggregator(&self) -> MultidimAggregator {
        MultidimAggregator::new(self.clone().into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn estimates_recover_marginals_with_more_noise_than_smp() {
        let ks = [4usize, 3];
        let spl = Spl::new(ProtocolKind::Grr, &ks, 4.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut agg = spl.aggregator();
        for i in 0..30_000 {
            agg.absorb_full(&spl.report(&[1, i % 3], &mut rng));
        }
        let est = agg.estimate();
        assert!((est[0][1] - 1.0).abs() < 0.1, "est {est:?}");
        assert!((est[1][0] - 1.0 / 3.0).abs() < 0.1);
    }

    #[test]
    fn splits_budget_evenly() {
        let spl = Spl::new(ProtocolKind::Grr, &[4, 3, 5, 2], 2.0).unwrap();
        assert_eq!(spl.d(), 4);
        assert!((spl.epsilon() - 2.0).abs() < 1e-12);
        // Each oracle runs at ε/d = 0.5.
        for o in &spl.oracles {
            assert!((o.epsilon() - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn spl_is_noisier_than_smp_at_equal_budget() {
        // The paper's core motivation for SMP: splitting the budget hurts.
        // Compare squared error on a point-mass attribute at equal ε and n.
        let ks = [8usize, 8, 8, 8];
        let eps = 2.0;
        let n = 20_000;
        let mut rng = StdRng::seed_from_u64(7);
        let tuple = [2u32, 2, 2, 2];

        let spl = Spl::new(ProtocolKind::Grr, &ks, eps).unwrap();
        let mut spl_agg = spl.aggregator();
        for _ in 0..n {
            spl_agg.absorb_full(&spl.report(&tuple, &mut rng));
        }
        let spl_est = spl_agg.estimate();

        let smp = super::super::Smp::new(ProtocolKind::Grr, &ks, eps).unwrap();
        let mut smp_agg = smp.aggregator();
        for _ in 0..n {
            smp_agg.absorb_smp(&smp.report(&tuple, &mut rng));
        }
        let smp_est = smp_agg.estimate();

        let err = |est: &[Vec<f64>]| -> f64 {
            est.iter()
                .map(|attr| {
                    attr.iter()
                        .enumerate()
                        .map(|(v, &f)| {
                            let truth = if v == 2 { 1.0 } else { 0.0 };
                            (f - truth) * (f - truth)
                        })
                        .sum::<f64>()
                })
                .sum()
        };
        assert!(
            err(&spl_est) > err(&smp_est),
            "SPL {} should exceed SMP {}",
            err(&spl_est),
            err(&smp_est)
        );
    }

    #[test]
    fn ue_tuples_fuse_at_any_width() {
        // UE families fuse whatever the packed width — the ingest-bench
        // shape (Σk = 33, one word), multi-word tuples, and a tuple past the
        // 512 stack lanes (Σk = 550, packed words and the k > 128 fields
        // on the heap) alike; GRR never does.
        let narrow = Spl::new(ProtocolKind::Oue, &[16, 8, 5, 4], 1.0).unwrap();
        let wide = Spl::new(ProtocolKind::Sue, &[40, 40], 1.0).unwrap();
        let wider = Spl::new(ProtocolKind::Oue, &[74, 7, 16, 41], 2.0).unwrap();
        let widest = Spl::new(ProtocolKind::Oue, &[300, 150, 100], 3.0).unwrap();
        let shapes = [&narrow, &wide, &wider, &widest];
        for spl in shapes {
            assert!(spl.fused.is_some(), "{:?} {:?}", spl.kind(), spl.ks());
        }
        assert!(Spl::new(ProtocolKind::Grr, &[16, 8, 5, 4], 1.0)
            .unwrap()
            .fused
            .is_none());
        // Every fused shape still recovers a point-mass marginal end to end.
        for spl in shapes {
            let mut rng = StdRng::seed_from_u64(0xF5ED);
            let tuple: Vec<u32> = spl.ks().iter().map(|_| 1u32).collect();
            let mut agg = spl.aggregator();
            for _ in 0..40_000 {
                agg.absorb_full(&spl.report(&tuple, &mut rng));
            }
            let est = agg.estimate();
            for (j, attr) in est.iter().enumerate() {
                assert!(
                    (attr[1] - 1.0).abs() < 0.15,
                    "attr {j} of {:?}: est {attr:?}",
                    spl.ks()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "value 3 outside the domain 0..3")]
    fn grr_report_rejects_an_out_of_domain_value_in_every_build() {
        let spl = Spl::new(ProtocolKind::Grr, &[4, 3], 1.0).unwrap();
        spl.report_encoded(&[0, 3], &mut StdRng::seed_from_u64(2));
    }

    #[test]
    #[should_panic(expected = "tuple width")]
    fn report_rejects_wrong_width() {
        let spl = Spl::new(ProtocolKind::Grr, &[4, 3], 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        spl.report(&[0], &mut rng);
    }
}
