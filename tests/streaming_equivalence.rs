//! Property tests: the streaming `MultidimAggregator` — absorbed one report
//! at a time, or filled in shards and `merge()`d — produces **bit-identical**
//! estimates to the batch `DynSolution::estimate` path, for all four
//! solutions and every protocol variant.

use ldp_core::solutions::{
    DynSolution, RsFd, RsFdProtocol, RsRfdProtocol, Smp, SolutionKind, SolutionReport, Spl,
};
use ldp_protocols::{ProtocolKind, UeMode};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_ks() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(2usize..10, 2..6)
}

fn arb_protocol_kind() -> impl Strategy<Value = ProtocolKind> {
    prop_oneof![
        Just(ProtocolKind::Grr),
        Just(ProtocolKind::Olh),
        Just(ProtocolKind::Ss),
        Just(ProtocolKind::Sue),
        Just(ProtocolKind::Oue),
    ]
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

fn arb_rsrfd_protocol() -> impl Strategy<Value = RsRfdProtocol> {
    prop_oneof![
        Just(RsRfdProtocol::Grr),
        Just(RsRfdProtocol::UeR(UeMode::Symmetric)),
        Just(RsRfdProtocol::UeR(UeMode::Optimized)),
    ]
}

/// Random user tuples inside the domain.
fn tuples(ks: &[usize], n: usize, rng: &mut StdRng) -> Vec<Vec<u32>> {
    (0..n)
        .map(|_| ks.iter().map(|&k| rng.random_range(0..k as u32)).collect())
        .collect()
}

/// Deterministic non-uniform prior over a domain of size `k`.
fn skewed_prior(k: usize) -> Vec<f64> {
    let weights: Vec<f64> = (0..k).map(|v| 1.0 / (v + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    weights.into_iter().map(|w| w / total).collect()
}

/// Asserts two estimate matrices are bit-identical.
fn assert_bit_identical(batch: &[Vec<f64>], streamed: &[Vec<f64>], label: &str) {
    assert_eq!(batch.len(), streamed.len(), "{label}: attribute count");
    for (j, (a, b)) in batch.iter().zip(streamed).enumerate() {
        assert_eq!(a.len(), b.len(), "{label}: attr {j} width");
        for (v, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{label}: attr {j} value {v}: batch {x} vs streamed {y}"
            );
        }
    }
}

/// Streams `reports` through one sequential aggregator, fed the decoded
/// entries, and through three merged shards, fed the words; checks both
/// against the batch estimate.
fn check_streaming(solution: &RsFd, reports: &[SolutionReport], label: &str) {
    let batch = &DynSolution::from(solution.clone()).estimate(reports);
    let mut sequential = solution.aggregator();
    for r in reports {
        sequential.absorb_tuple(&r.to_tuple().unwrap());
    }
    assert_bit_identical(batch, &sequential.estimate(), label);

    let mut shards = [
        solution.aggregator(),
        solution.aggregator(),
        solution.aggregator(),
    ];
    for (i, r) in reports.iter().enumerate() {
        shards[i % 3].absorb(r);
    }
    let mut merged = solution.aggregator();
    for s in &shards {
        merged.merge(s);
    }
    assert_eq!(merged.n(), reports.len() as u64, "{label}: merged n");
    assert_bit_identical(batch, &merged.estimate(), &format!("{label} (sharded)"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// RS+FD: streaming + sharded merge equals batch for all five variants.
    #[test]
    fn rsfd_streaming_matches_batch(
        ks in arb_ks(),
        protocol in arb_rsfd_protocol(),
        eps in 0.3f64..6.0,
        seed in any::<u64>(),
    ) {
        let solution = RsFd::new(protocol, &ks, eps).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let reports: Vec<_> = tuples(&ks, 120, &mut rng)
            .iter()
            .map(|t| solution.report_encoded(t, &mut rng))
            .collect();
        check_streaming(&solution, &reports, &protocol.name());
    }

    /// RS+RFD: same, with a skewed prior.
    #[test]
    fn rsrfd_streaming_matches_batch(
        ks in arb_ks(),
        protocol in arb_rsrfd_protocol(),
        eps in 0.3f64..6.0,
        seed in any::<u64>(),
    ) {
        let priors: Vec<Vec<f64>> = ks.iter().map(|&k| skewed_prior(k)).collect();
        let solution = RsFd::with_priors(protocol, &ks, eps, priors).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let reports: Vec<_> = tuples(&ks, 120, &mut rng)
            .iter()
            .map(|t| solution.report_encoded(t, &mut rng))
            .collect();
        check_streaming(&solution, &reports, &protocol.name());
    }

    /// SPL: per-attribute Eq. (2) — streaming equals batch for every oracle.
    #[test]
    fn spl_streaming_matches_batch(
        ks in arb_ks(),
        kind in arb_protocol_kind(),
        eps in 0.5f64..6.0,
        seed in any::<u64>(),
    ) {
        let solution = Spl::new(kind, &ks, eps).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let reports: Vec<_> = tuples(&ks, 100, &mut rng)
            .iter()
            .map(|t| solution.report(t, &mut rng))
            .collect();
        let words: Vec<_> = reports.iter().map(|r| SolutionReport::full(r)).collect();
        let batch = DynSolution::from(solution.clone()).estimate(&words);

        let mut shards = [solution.aggregator(), solution.aggregator()];
        for (i, r) in reports.iter().enumerate() {
            shards[i % 2].absorb_full(r);
        }
        let mut merged = solution.aggregator();
        for s in &shards {
            merged.merge(s);
        }
        assert_bit_identical(&batch, &merged.estimate(), &format!("SPL[{kind}]"));
    }

    /// SMP: per-attribute n_j bookkeeping survives sharding for every oracle.
    #[test]
    fn smp_streaming_matches_batch(
        ks in arb_ks(),
        kind in arb_protocol_kind(),
        eps in 0.5f64..6.0,
        seed in any::<u64>(),
    ) {
        let solution = Smp::new(kind, &ks, eps).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let reports: Vec<_> = tuples(&ks, 100, &mut rng)
            .iter()
            .map(|t| solution.report(t, &mut rng))
            .collect();
        let words: Vec<_> = reports.iter().map(SolutionReport::smp).collect();
        let batch = DynSolution::from(solution.clone()).estimate(&words);

        let mut shards = [solution.aggregator(), solution.aggregator()];
        for (i, r) in reports.iter().enumerate() {
            shards[i % 2].absorb_smp(r);
        }
        let mut merged = solution.aggregator();
        for s in &shards {
            merged.merge(s);
        }
        assert_bit_identical(&batch, &merged.estimate(), &format!("SMP[{kind}]"));
    }

    /// The runtime-dispatch path (SolutionKind::build → DynSolution::report →
    /// absorb(SolutionReport)) agrees with itself across shardings.
    #[test]
    fn dyn_solution_sharding_is_exact(
        ks in arb_ks(),
        eps in 0.5f64..5.0,
        seed in any::<u64>(),
    ) {
        for kind in [
            SolutionKind::Spl(ProtocolKind::Grr),
            SolutionKind::Smp(ProtocolKind::Oue),
            SolutionKind::RsFd(RsFdProtocol::Grr),
            SolutionKind::RsRfd(RsRfdProtocol::UeR(UeMode::Optimized)),
        ] {
            let solution = kind.build(&ks, eps).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let reports: Vec<SolutionReport> = tuples(&ks, 90, &mut rng)
                .iter()
                .map(|t| solution.report(t, &mut rng))
                .collect();
            let batch = solution.estimate(&reports);

            let mut shards = [solution.aggregator(), solution.aggregator(), solution.aggregator()];
            for (i, r) in reports.iter().enumerate() {
                shards[i % 3].absorb(r);
            }
            let mut merged = solution.aggregator();
            for s in &shards {
                merged.merge(s);
            }
            assert_bit_identical(&batch, &merged.estimate(), &solution.name());
        }
    }
}
