//! Statistical conformance of the frequency estimators: at a fixed seed and
//! n = 200 000 users, every protocol's estimate of every attribute-value
//! frequency must fall within an **analytic variance-derived tolerance
//! band** of the dataset's true marginal, for the SMP and SPL solutions and
//! for the fake-data solutions RS+FD and RS+RFD.
//!
//! Exact-equivalence tests (streaming == batch, serve == run) cannot catch a
//! bias introduced symmetrically into both paths — a wrong `p*`/`q*`, a
//! dropped `1/d` factor, a miscounted `n_j`. These tests do: the tolerance
//! is `Z · σ` with `σ` from the closed-form Eq. (2) variance
//! (`FrequencyOracle::variance`), so a systematic estimator-bias regression
//! larger than a few standard errors fails deterministically.
//!
//! The band is `Z = 5` standard errors plus a small absolute slack for the
//! discreteness of counts; with several hundred (protocol, solution, cell)
//! comparisons a 5σ false positive is vanishingly unlikely, while e.g.
//! swapping `p*` and `q*` or using `n` instead of `n_j` shifts estimates by
//! far more.

use ldp_core::attacks::{AttackKind, AveragingConfig, ReidentConfig};
use ldp_core::solutions::{DynSolution, MixedKind, RsFdProtocol, RsRfdProtocol, SolutionKind};
use ldp_core::{NumericKind, NumericOracle};
use ldp_datasets::corpora::adult_like;
use ldp_datasets::generator::{GeneratorConfig, LatentClassGenerator};
use ldp_datasets::mixed::mixed_survey_like;
use ldp_datasets::priors::IncorrectPrior;
use ldp_datasets::{Dataset, Schema};
use ldp_protocols::{FrequencyOracle, ProtocolKind};
use ldp_sim::{AttackPipeline, BudgetPolicy, CollectionPipeline};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 200_000;
const Z: f64 = 5.0;
/// Slack for count discreteness and the binomial spread of SMP's per-attr n_j.
const SLACK: f64 = 0.004;

/// A skewed 200k-user population over a compact domain (Σ k_j = 17): large
/// enough that 5σ bands are tight (≲ 0.04 even for SPL at ε/d), small
/// enough that ten pipeline passes stay fast.
fn population() -> Dataset {
    let schema = Schema::from_cardinalities(&[8, 5, 4]);
    let mut rng = StdRng::seed_from_u64(0xC0F0);
    LatentClassGenerator::new(
        schema,
        GeneratorConfig {
            n: N,
            clusters: 5,
            skew: 1.4,
            uniform_mix: 0.1,
            cluster_skew: 0.6,
        },
        &mut rng,
    )
    .generate(&mut rng)
}

/// Asserts every cell of `estimates` lies within `Z·σ + SLACK` of the true
/// marginal, with `σ` from the analytic Eq. (2) variance at the effective
/// per-report budget (`eps_eff`) and effective per-attribute sample count.
fn assert_within_band(
    label: &str,
    dataset: &Dataset,
    estimates: &[Vec<f64>],
    protocol: ProtocolKind,
    eps_eff: f64,
    n_eff: usize,
) {
    let marginals = dataset.marginals();
    for (j, (est, truth)) in estimates.iter().zip(&marginals).enumerate() {
        let oracle = protocol
            .build(dataset.schema().k(j), eps_eff)
            .expect("conformance oracle builds");
        for (v, (&e, &f)) in est.iter().zip(truth).enumerate() {
            let sigma = oracle.variance(f, n_eff).sqrt();
            let tol = Z * sigma + SLACK;
            assert!(
                (e - f).abs() <= tol,
                "{label} attr {j} value {v}: estimate {e:.5} vs true {f:.5} \
                 (|diff| {:.5} > tol {tol:.5}, sigma {sigma:.5})",
                (e - f).abs()
            );
        }
    }
}

#[test]
fn smp_estimates_conform_to_analytic_bands_for_every_protocol() {
    let ds = population();
    let ks = ds.schema().cardinalities();
    let eps = 2.0;
    for protocol in ProtocolKind::ALL {
        let run = CollectionPipeline::from_kind(SolutionKind::Smp(protocol), &ks, eps)
            .unwrap()
            .seed(0x51AB + protocol as u64)
            .threads(4)
            .run(&ds);
        assert_eq!(run.n, N as u64);
        // SMP: each user discloses one uniformly sampled attribute at the
        // full ε, so attribute j sees ≈ n/d reports.
        assert_within_band(
            &format!("SMP[{protocol}]"),
            &ds,
            &run.estimates,
            protocol,
            eps,
            N / ds.d(),
        );
    }
}

#[test]
fn spl_estimates_conform_to_analytic_bands_for_every_protocol() {
    let ds = population();
    let ks = ds.schema().cardinalities();
    let eps = 2.0;
    for protocol in ProtocolKind::ALL {
        let run = CollectionPipeline::from_kind(SolutionKind::Spl(protocol), &ks, eps)
            .unwrap()
            .seed(0x5B1 + protocol as u64)
            .threads(4)
            .run(&ds);
        assert_eq!(run.n, N as u64);
        // SPL: every user reports every attribute at ε/d.
        assert_within_band(
            &format!("SPL[{protocol}]"),
            &ds,
            &run.estimates,
            protocol,
            eps / ds.d() as f64,
            N,
        );
    }
}

#[test]
fn conformance_bands_would_catch_a_biased_estimator() {
    // Sanity check on the test's own power: shift every estimate by a bias
    // comparable to swapping a factor the estimators must get right, and
    // verify the band rejects it. Guards against the tolerance silently
    // growing so wide the suite stops testing anything.
    let ds = population();
    let ks = ds.schema().cardinalities();
    let eps = 2.0;
    let run = CollectionPipeline::from_kind(SolutionKind::Smp(ProtocolKind::Grr), &ks, eps)
        .unwrap()
        .seed(0xB1A5)
        .threads(4)
        .run(&ds);
    let biased: Vec<Vec<f64>> = run
        .estimates
        .iter()
        .map(|e| e.iter().map(|x| x * 1.25 + 0.02).collect())
        .collect();
    let caught = std::panic::catch_unwind(|| {
        assert_within_band(
            "SMP[GRR] (biased)",
            &ds,
            &biased,
            ProtocolKind::Grr,
            eps,
            N / ds.d(),
        );
    });
    assert!(
        caught.is_err(),
        "a 25% multiplicative bias must not fit inside the tolerance band"
    );
}

/// Per-cell 5σ bands for the fake-data solutions. Every report carries one
/// entry per attribute: the sampled one sanitized with `(p, q)` at the
/// amplified budget, the other `d − 1` fake. A report supports value `v` of
/// attribute `j` with probability `γ = (q + f(p − q) + (d − 1)·s_v) / d`,
/// where `s_v` is the chance that one fake entry supports `v`, and the
/// estimator scales the count by `d / (p − q)`, so
/// `σ² = d²γ(1 − γ) / (n(p − q)²)`. Computed here from `(p, q)` and the
/// fake source alone, not from the library's variance. Returns the first
/// cell outside its band, described.
fn fake_data_band_violation(
    dataset: &Dataset,
    solution: &DynSolution,
    priors: Option<&[Vec<f64>]>,
    estimates: &[Vec<f64>],
) -> Option<String> {
    let (n, d) = (dataset.n() as f64, dataset.d() as f64);
    for (j, (est, truth)) in estimates.iter().zip(dataset.marginals()).enumerate() {
        let k = truth.len();
        let (p, q) = fake_data_pq(solution, j);
        for (v, (&e, &f)) in est.iter().zip(&truth).enumerate() {
            // The chance that a fake value is `v`: the prior's, or 1/k.
            let fake = priors.map_or(1.0 / k as f64, |priors| priors[j][v]);
            let s_v = match solution.kind() {
                SolutionKind::RsFd(RsFdProtocol::Grr) | SolutionKind::RsRfd(RsRfdProtocol::Grr) => {
                    fake
                }
                // A perturbed zero vector sets each bit with probability q.
                SolutionKind::RsFd(RsFdProtocol::UeZ(_)) => q,
                // A perturbed one-hot encoding of a fake value.
                _ => q + (p - q) * fake,
            };
            let gamma = (q + f * (p - q) + (d - 1.0) * s_v) / d;
            let sigma = d * (gamma * (1.0 - gamma) / n).sqrt() / (p - q);
            let tol = Z * sigma + SLACK;
            // Written so that a NaN estimate fails too.
            let within = (e - f).abs() <= tol;
            if !within {
                return Some(format!(
                    "{} attr {j} value {v}: estimate {e:.5} vs true {f:.5} \
                     (|diff| {:.5} > tol {tol:.5}, sigma {sigma:.5})",
                    solution.name(),
                    (e - f).abs()
                ));
            }
        }
    }
    None
}

/// The `(p, q)` pair attribute `j`'s sampled entry is sanitized with.
fn fake_data_pq(solution: &DynSolution, j: usize) -> (f64, f64) {
    match solution {
        DynSolution::RsFd(s) | DynSolution::RsRfd(s) => s.pq(j),
        other => unreachable!("{} draws no fake data", other.name()),
    }
}

fn collect(solution: DynSolution, seed: u64, ds: &Dataset) -> Vec<Vec<f64>> {
    let run = CollectionPipeline::new(solution)
        .seed(seed)
        .threads(4)
        .run(ds);
    assert_eq!(run.n, N as u64);
    run.estimates
}

#[test]
fn rsfd_estimates_conform_to_analytic_bands_for_every_protocol() {
    let ds = population();
    let ks = ds.schema().cardinalities();
    for (i, protocol) in RsFdProtocol::ALL.into_iter().enumerate() {
        let solution = SolutionKind::RsFd(protocol).build(&ks, 2.0).unwrap();
        let estimates = collect(solution.clone(), 0xF0 + i as u64, &ds);
        if let Some(violation) = fake_data_band_violation(&ds, &solution, None, &estimates) {
            panic!("{violation}");
        }
    }
}

#[test]
fn rsrfd_estimates_conform_to_analytic_bands_with_correct_and_incorrect_priors() {
    let ds = population();
    let ks = ds.schema().cardinalities();
    let mut rng = StdRng::seed_from_u64(0x9F10);
    let correct = ds.marginals();
    let incorrect = IncorrectPrior::Dirichlet.generate_all(&ks, &mut rng);
    for (i, protocol) in RsRfdProtocol::ALL.into_iter().enumerate() {
        for priors in [&correct, &incorrect] {
            let solution = SolutionKind::RsRfd(protocol)
                .build_with_priors(&ks, 2.0, priors.clone())
                .unwrap();
            let estimates = collect(solution.clone(), 0xF8 + i as u64, &ds);
            if let Some(violation) =
                fake_data_band_violation(&ds, &solution, Some(priors), &estimates)
            {
                panic!("{violation}");
            }
        }
    }
}

#[test]
fn fake_data_bands_would_catch_fakes_from_the_wrong_source() {
    // Power guard: RS+RFD[GRR] reports whose prior puts no mass on each
    // attribute's last value draw their fakes from k − 1 of the k values.
    // Read by an RS+FD[GRR] aggregator at the same ε, which expects uniform
    // fakes, they must fall outside the RS+FD bands.
    let ds = population();
    let ks = ds.schema().cardinalities();
    let skewed: Vec<Vec<f64>> = ks
        .iter()
        .map(|&k| {
            (0..k)
                .map(|v| if v + 1 < k { 1.0 / (k - 1) as f64 } else { 0.0 })
                .collect()
        })
        .collect();
    let rsrfd = SolutionKind::RsRfd(RsRfdProtocol::Grr)
        .build_with_priors(&ks, 2.0, skewed)
        .unwrap();
    let rsfd = SolutionKind::RsFd(RsFdProtocol::Grr)
        .build(&ks, 2.0)
        .unwrap();
    let mut aggregator = rsfd.aggregator();
    let mut rng = StdRng::seed_from_u64(0xFA4E);
    for row in ds.rows() {
        aggregator.absorb(&rsrfd.report(row, &mut rng));
    }
    assert!(
        fake_data_band_violation(&ds, &rsfd, None, &aggregator.estimate()).is_some(),
        "fakes from k − 1 of k values must not fit inside the uniform-fake bands"
    );
}

/// Numeric mechanisms under conformance test, in presentation order.
const NUMERIC_MECHANISMS: [NumericKind; 3] = [
    NumericKind::Duchi,
    NumericKind::Piecewise,
    NumericKind::Hybrid,
];

/// Slack for the numeric bands (means are continuous — no count
/// discreteness, only float rounding and the inner-band estimate noise).
const NUM_SLACK: f64 = 0.002;

/// A skewed 200k-value population over `[-1, 1]` (mean ≈ −1/3): the numeric
/// analogue of [`population`].
fn numeric_population() -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(0x40FA);
    (0..N)
        .map(|_| {
            let u: f64 = rng.random_range(0.0..1.0);
            u * u * 2.0 - 1.0
        })
        .collect()
}

/// Empirical mean and mean-squared sanitization error of one mechanism over
/// the whole population, plus the analytic per-report variance averaged over
/// the true values.
fn numeric_moments(kind: NumericKind, eps: f64, ts: &[f64], seed: u64) -> (f64, f64, f64) {
    let oracle = kind.build(eps).expect("numeric oracle builds");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sum = 0.0;
    let mut sq_err = 0.0;
    for &t in ts {
        let y = oracle
            .sanitize(t, &mut rng)
            .expect("population values are in range")
            .value();
        sum += y;
        sq_err += (y - t) * (y - t);
    }
    let n = ts.len() as f64;
    let analytic = ts.iter().map(|&t| oracle.variance(t)).sum::<f64>() / n;
    (sum / n, sq_err / n, analytic)
}

#[test]
fn numeric_mechanism_means_conform_to_analytic_bands() {
    // Every mechanism's sanitized mean must land within Z standard errors of
    // the true population mean, with σ from the closed-form `Var[y | t]` —
    // a wrong `C`/`s` constant or a lost unbiasing factor shifts the mean by
    // far more than 5σ at n = 200 000.
    let ts = numeric_population();
    let truth = ts.iter().sum::<f64>() / ts.len() as f64;
    for kind in NUMERIC_MECHANISMS {
        for (ei, eps) in [0.5, 1.0, 2.0, 4.0, 8.0].into_iter().enumerate() {
            let seed = 0x40FA_0001 + (kind.tag() << 8) + ei as u64;
            let (mean, _, analytic) = numeric_moments(kind, eps, &ts, seed);
            let sigma = (analytic / N as f64).sqrt();
            let tol = Z * sigma + NUM_SLACK;
            assert!(
                (mean - truth).abs() <= tol,
                "{} eps {eps}: mean {mean:.5} vs true {truth:.5} \
                 (|diff| {:.5} > tol {tol:.5}, sigma {sigma:.5})",
                kind.name(),
                (mean - truth).abs()
            );
        }
    }
}

#[test]
fn numeric_mechanism_variances_conform_to_analytic_bands() {
    // The mean squared sanitization error must match the average closed-form
    // `Var[y | t]`; the tolerance is Z standard errors of the squared-error
    // mean itself (its spread is bounded by the mechanism's output bound).
    let ts = numeric_population();
    for kind in NUMERIC_MECHANISMS {
        for (ei, eps) in [0.5, 1.0, 2.0, 4.0, 8.0].into_iter().enumerate() {
            let seed = 0x40FA_0002 + (kind.tag() << 8) + ei as u64;
            let (_, mse, analytic) = numeric_moments(kind, eps, &ts, seed);
            // Var[(y−t)²] ≤ E[(y−t)⁴] ≤ (C+1)² · E[(y−t)²].
            let bound = kind.build(eps).unwrap().bound() + 1.0;
            let sigma = (bound * bound * analytic / N as f64).sqrt();
            let tol = Z * sigma + NUM_SLACK;
            assert!(
                (mse - analytic).abs() <= tol,
                "{} eps {eps}: empirical var {mse:.5} vs analytic {analytic:.5} \
                 (|diff| {:.5} > tol {tol:.5})",
                kind.name(),
                (mse - analytic).abs()
            );
        }
    }
}

#[test]
fn numeric_bands_would_catch_a_biased_mechanism() {
    // Power guard, mirroring the categorical one: the ε ≥ 1 mean bands must
    // be tight enough that a constant 0.08 shift (≈ what a dropped
    // unbiasing factor costs at these budgets) cannot hide inside them.
    let ts = numeric_population();
    for kind in NUMERIC_MECHANISMS {
        for eps in [1.0, 2.0, 4.0, 8.0] {
            let oracle = kind.build(eps).unwrap();
            let analytic = ts.iter().map(|&t| oracle.variance(t)).sum::<f64>() / ts.len() as f64;
            let tol = Z * (analytic / N as f64).sqrt() + NUM_SLACK;
            assert!(
                tol < 0.08,
                "{} eps {eps}: band {tol:.5} too wide to detect a 0.08 bias",
                kind.name()
            );
        }
    }
}

#[test]
fn mixed_numeric_mean_estimates_conform_end_to_end() {
    // Full-pipeline band: the mixed k-of-d collection's numeric mean
    // estimates (fixed-point sums, per-attribute n_j accounting, budget
    // split ε/k) must land within Z standard errors of the population mean.
    // σ adds the without-replacement subsampling spread to the mechanism
    // variance at the split budget.
    let mixed = mixed_survey_like(N, 0x3153D);
    let ks = mixed.ks();
    let sample_k = 2usize;
    let eps = 2.0;
    let frac = sample_k as f64 / mixed.d() as f64;
    let n_eff = N as f64 * frac;
    for kind in NUMERIC_MECHANISMS {
        let solution = SolutionKind::Mixed(MixedKind {
            protocol: ProtocolKind::Grr,
            numeric: kind,
            sample_k,
        })
        .build(&ks, eps)
        .expect("mixed solution builds");
        let run = CollectionPipeline::new(solution)
            .seed(0x3153D + kind.tag())
            .threads(4)
            .run(&mixed);
        assert_eq!(run.n, N as u64);
        let oracle = kind.build(eps / sample_k as f64).unwrap();
        for j in 0..mixed.d_num() {
            let truth = mixed.numeric_mean(j);
            let est = run.estimates[mixed.d_cat() + j][0];
            let mech_var = (0..mixed.n())
                .map(|i| oracle.variance(mixed.num_value(i, j)))
                .sum::<f64>()
                / N as f64;
            let pop_var = (0..mixed.n())
                .map(|i| (mixed.num_value(i, j) - truth).powi(2))
                .sum::<f64>()
                / N as f64;
            let sigma = ((mech_var + (1.0 - frac) * pop_var) / n_eff).sqrt();
            let tol = Z * sigma + NUM_SLACK;
            assert!(
                (est - truth).abs() <= tol,
                "MIXED[GRR+{}] numeric attr {j}: estimate {est:.5} vs true {truth:.5} \
                 (|diff| {:.5} > tol {tol:.5}, sigma {sigma:.5})",
                kind.name(),
                (est - truth).abs()
            );
        }
    }
}

#[test]
fn normalized_estimates_are_simplex_projected() {
    // The normalized outputs the serving layer exposes must be valid
    // distributions whenever data was collected.
    let ds = population();
    let ks = ds.schema().cardinalities();
    let run = CollectionPipeline::from_kind(SolutionKind::Smp(ProtocolKind::Oue), &ks, 2.0)
        .unwrap()
        .seed(3)
        .threads(4)
        .run(&ds);
    for (j, dist) in run.normalized.iter().enumerate() {
        let total: f64 = dist.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "attr {j} sums to {total}");
        assert!(dist.iter().all(|&p| p >= 0.0), "attr {j} has negative mass");
    }
}

/// Power guard for the longitudinal threat model: pooling a target's
/// reports across rounds (the averaging attack) must gain real power when
/// the budget is naively ε-split — every fresh round leaks a new sampled
/// attribute — and must gain **nothing** under RAPPOR-style memoization,
/// whose rounds replay the round-0 report bit-for-bit.
#[test]
fn averaging_attack_power_rises_with_rounds_only_without_memoization() {
    const EPS: f64 = 32.0;
    const ROUNDS: usize = 4;
    let asr = |seed: u64, policy: BudgetPolicy, rounds: usize| -> f64 {
        let ds = adult_like(1200, seed);
        let ks = ds.schema().cardinalities();
        let collection =
            CollectionPipeline::from_kind(SolutionKind::Smp(ProtocolKind::Grr), &ks, EPS)
                .unwrap()
                .seed(seed)
                .threads(2);
        let attack = AttackPipeline::from_kind(AttackKind::Averaging(AveragingConfig {
            rounds,
            reident: ReidentConfig::default(),
        }))
        .unwrap()
        .seed(seed)
        .threads(2);
        let run = attack.run_rounds(&collection, &ds, rounds, policy).unwrap();
        run.outcome.reident().unwrap().rid_acc[0]
    };
    for seed in [51u64, 52] {
        let split_one = asr(seed, BudgetPolicy::SplitEps, 1);
        let split_many = asr(seed, BudgetPolicy::SplitEps, ROUNDS);
        // 5σ band on a top-1 ASR difference over 1200 targets: the binomial
        // standard error at the larger rate, in percentage points.
        let p = (split_many.max(split_one) / 100.0).clamp(1.0 / 1200.0, 0.5);
        let five_sigma = 5.0 * 100.0 * (p * (1.0 - p) / 1200.0).sqrt();
        assert!(
            split_many > split_one + five_sigma,
            "seed {seed}: ε-splitting ASR must rise with rounds \
             (R=1: {split_one:.3}%, R={ROUNDS}: {split_many:.3}%, 5σ = {five_sigma:.3})"
        );
        // Memoized rounds replay round 0, so pooling them is a no-op: the
        // curve is exactly flat per seed — stronger than any σ band.
        let memo_one = asr(seed, BudgetPolicy::Memoize, 1);
        let memo_many = asr(seed, BudgetPolicy::Memoize, ROUNDS);
        assert_eq!(
            memo_one.to_bits(),
            memo_many.to_bits(),
            "seed {seed}: memoization must keep the averaging ASR exactly flat \
             (R=1: {memo_one:.3}%, R={ROUNDS}: {memo_many:.3}%)"
        );
    }
}
