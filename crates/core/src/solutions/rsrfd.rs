//! Tests of RS+RFD, the §5 countermeasure: [`RsFd`] built with fake-data
//! priors (Algorithm 1, Eqs. (6)–(7), Theorems 1–4).

use super::{RsFd, RsFdProtocol, RsRfdProtocol};

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
            let rsrfd = RsFd::with_priors(protocol, &KS, 2.0, priors()).unwrap();
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
        // f̂(v) must match the closed form within Monte-Carlo tolerance, for
        // prior fakes (Theorems 2 and 4) and for RS+FD's uniform and
        // zero-vector fakes alike.
        let n = 400;
        let reps = 400;
        let (tuples, truth) = population(n);
        let solutions = RsRfdProtocol::ALL
            .map(|p| RsFd::with_priors(p, &KS, 1.5, priors()).unwrap())
            .into_iter()
            .chain(RsFdProtocol::ALL.map(|p| RsFd::new(p, &KS, 1.5).unwrap()));
        for rsfd in solutions {
            let mut rng = StdRng::seed_from_u64(13);
            let (j, v) = (0usize, 1usize);
            let mut estimates = Vec::with_capacity(reps);
            for _ in 0..reps {
                let mut agg = rsfd.aggregator();
                for t in &tuples {
                    agg.absorb(&rsfd.report_encoded(t, &mut rng));
                }
                estimates.push(agg.estimate()[j][v]);
            }
            let mean = estimates.iter().sum::<f64>() / reps as f64;
            let var = estimates
                .iter()
                .map(|e| (e - mean) * (e - mean))
                .sum::<f64>()
                / reps as f64;
            let predicted = rsfd.variance(j, v, truth[j][v], n);
            let rel = (var - predicted).abs() / predicted;
            assert!(
                rel < 0.35,
                "{}: empirical var {var:.6} vs Theorem {predicted:.6} (rel {rel:.2})",
                rsfd.kind()
            );
            // Unbiasedness re-check at small n.
            assert!((mean - truth[j][v]).abs() < 0.1, "mean {mean}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_protocols::{Report, UeMode};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_malformed_priors() {
        let ks = [4usize, 3];
        // Wrong count.
        assert!(RsFd::with_priors(RsRfdProtocol::Grr, &ks, 1.0, vec![vec![0.25; 4]]).is_err());
        // Wrong length.
        assert!(RsFd::with_priors(
            RsRfdProtocol::Grr,
            &ks,
            1.0,
            vec![vec![0.25; 4], vec![0.5; 4]]
        )
        .is_err());
        // Not normalized.
        assert!(RsFd::with_priors(
            RsRfdProtocol::Grr,
            &ks,
            1.0,
            vec![vec![0.25; 4], vec![0.9, 0.9, 0.9]]
        )
        .is_err());
        // Negative entry.
        assert!(RsFd::with_priors(
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
        let rsrfd = RsFd::with_priors(RsRfdProtocol::Grr, &[4, 3], 1.0, priors).unwrap();
        rsrfd.report_with_sampled(&[1, 3], 0, &mut StdRng::seed_from_u64(4));
    }

    #[test]
    fn grr_fakes_follow_the_prior() {
        let ks = [4usize, 2];
        let priors = vec![vec![0.7, 0.1, 0.1, 0.1], vec![0.5, 0.5]];
        let rsrfd = RsFd::with_priors(RsRfdProtocol::Grr, &ks, 1.0, priors).unwrap();
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
            let rsrfd = RsFd::with_priors(protocol, &[4, 3], 1.0, priors.clone()).unwrap();
            let v1 = rsrfd.variance(0, 0, 0.2, 500);
            let v2 = rsrfd.variance(0, 0, 0.2, 5000);
            assert!(v1 > 0.0);
            assert!((v1 / v2 - 10.0).abs() < 1e-6);
        }
    }

    #[test]
    fn uniform_priors_reduce_to_rsfd_estimates() {
        // With f̃ = 1/k, Eq. (6) must coincide with the RS+FD[GRR] estimator.
        let ks = [4usize, 3];
        let uniform = vec![vec![0.25; 4], vec![1.0 / 3.0; 3]];
        let rsrfd = RsFd::with_priors(RsRfdProtocol::Grr, &ks, 1.0, uniform).unwrap();
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
