//! Cross-crate property tests: invariants that must hold for arbitrary
//! configurations of the full stack.

use ldp_core::inference::encode_features;
use ldp_core::solutions::{RsFd, RsFdProtocol, RsRfdProtocol, Smp};
use ldp_protocols::{ProtocolKind, UeMode};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_ks() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(2usize..20, 2..6)
}

fn arb_rsfd_protocol() -> impl Strategy<Value = RsFdProtocol> {
    prop_oneof![
        Just(RsFdProtocol::Grr),
        Just(RsFdProtocol::UeZ(UeMode::Symmetric)),
        Just(RsFdProtocol::UeZ(UeMode::Optimized)),
        Just(RsFdProtocol::UeR(UeMode::Symmetric)),
        Just(RsFdProtocol::UeR(UeMode::Optimized)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// RS+FD tuples always cover every attribute with the right report shape
    /// and a valid hidden sampled index.
    #[test]
    fn rsfd_reports_are_well_formed(
        ks in arb_ks(),
        protocol in arb_rsfd_protocol(),
        eps in 0.2f64..8.0,
        seed in any::<u64>(),
    ) {
        let solution = RsFd::new(protocol, &ks, eps).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let tuple: Vec<u32> = ks.iter().map(|&k| (seed % k as u64) as u32).collect();
        let report = solution.report_encoded(&tuple, &mut rng);
        prop_assert_eq!(report.to_tuple().unwrap().len(), ks.len());
        prop_assert!(report.hidden_attribute().unwrap() < ks.len());
        // Feature encoding accepts every report the solution produces.
        let x = encode_features(&[&report], &ks, solution.is_unary());
        let width: usize = if solution.is_unary() { ks.iter().sum() } else { ks.len() };
        prop_assert_eq!(x.n_cols(), width);
    }

    /// The amplified budget is consistent between RS+FD and RS+RFD and always
    /// exceeds the per-user budget.
    #[test]
    fn amplified_budgets_agree(
        ks in arb_ks(),
        eps in 0.2f64..8.0,
    ) {
        let rsfd = RsFd::new(RsFdProtocol::Grr, &ks, eps).unwrap();
        let uniform: Vec<Vec<f64>> = ks.iter().map(|&k| vec![1.0 / k as f64; k]).collect();
        let rsrfd = RsFd::with_priors(RsRfdProtocol::Grr, &ks, eps, uniform).unwrap();
        prop_assert!((rsfd.epsilon_amplified() - rsrfd.epsilon_amplified()).abs() < 1e-12);
        prop_assert!(rsfd.epsilon_amplified() > eps);
    }

    /// SMP estimation from a uniform population stays near uniform for every
    /// protocol family (no systematic bias anywhere in the pipeline).
    #[test]
    fn smp_estimates_unbiased_on_uniform_population(
        kind in prop_oneof![
            Just(ProtocolKind::Grr),
            Just(ProtocolKind::Olh),
            Just(ProtocolKind::Ss),
            Just(ProtocolKind::Sue),
            Just(ProtocolKind::Oue),
        ],
        k in 3usize..10,
        seed in any::<u64>(),
    ) {
        let ks = vec![k, k];
        let smp = Smp::new(kind, &ks, 4.0).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut agg = smp.aggregator();
        for i in 0..4000u32 {
            agg.absorb_smp(&smp.report(&[i % k as u32, (i / 7) % k as u32], &mut rng));
        }
        let est = agg.estimate_normalized();
        for attr in &est {
            for &f in attr {
                prop_assert!((f - 1.0 / k as f64).abs() < 0.2, "estimate {f} too far from uniform");
            }
        }
    }

    /// RS+RFD rejects priors that do not match the schema, for any shape.
    #[test]
    fn rsrfd_prior_validation(
        ks in arb_ks(),
        eps in 0.2f64..4.0,
    ) {
        // One prior too few.
        let mut short: Vec<Vec<f64>> = ks.iter().map(|&k| vec![1.0 / k as f64; k]).collect();
        short.pop();
        prop_assert!(RsFd::with_priors(RsRfdProtocol::Grr, &ks, eps, short).is_err());
        // Unnormalized prior.
        let mut bad: Vec<Vec<f64>> = ks.iter().map(|&k| vec![1.0 / k as f64; k]).collect();
        bad[0][0] += 0.5;
        prop_assert!(RsFd::with_priors(RsRfdProtocol::Grr, &ks, eps, bad).is_err());
    }
}
