//! Statistical conformance of the word-parallel UE sanitizer.
//!
//! The word-parallel paths behind [`UnaryEncoding::perturb_bits`] change RNG
//! draw order and count, so bit-stream equality with the per-bit reference is
//! impossible by design — the contract is *distributional*: every output bit
//! is independently 1 with probability `p` (input 1-lanes) or `q` (input
//! 0-lanes). This suite certifies that contract directly:
//!
//! * **Per-bit marginal bands** — for SUE and OUE across ε ∈ {0.5, 1, 2, 4,
//!   8} and k ∈ {16, 64, 257, 1024} (257 and 1024 exercise the partial- and
//!   multi-word layouts), every single bit's empirical rate over an
//!   *arbitrary* (not one-hot) input vector must land within `5σ` of its
//!   analytic marginal, and the pooled 1-lane/0-lane rates within much
//!   tighter pooled `5σ` bands (the pooled band is what catches a small
//!   systematic threshold bias; the per-bit band is what catches a
//!   mishandled word or lane).
//! * **Pairwise independence** — empirical covariance of bit pairs (adjacent
//!   within a word, same lane across words, across the partial-tail
//!   boundary) must sit inside `5σ` bands around zero, so a mask bug that
//!   correlates lanes inside or across words cannot pass.
//! * **Fused SPL\[UE\] tuples** — the packed multi-word tuple draw of
//!   [`FusedUeGroup`] at the Adult (Σk = 174, three words) and ACS
//!   (Σk = 198, four words) shapes, for SUE and OUE at a dense and a sparse
//!   per-attribute ε: per-lane 5σ marginals over every packed lane and
//!   pairwise independence across word boundaries, inside the `k > 64`
//!   fields and between hot lanes of different words. A slicer defect
//!   injected from outside (a straddling field's high part dropped) must
//!   fail the same bands, and an out-of-domain value must panic in every
//!   build profile (this suite also runs under `--release`).
//! * **Skip-sampling properties** (proptest) — the geometric skip-sampler's
//!   flip-count distribution matches the Binomial CDF within DKW bounds for
//!   adversarial `(p, q)` (driven through ε, including q ≈ 0.5 and
//!   p ≈ 0.999), and the forced sparse and dense paths produce statistically
//!   identical marginals on either side of the `q = 2⁻⁵` crossover.
//!
//! The negative twins of these bands — deliberately broken word-mask
//! generators that the same statistics must *reject* — live as in-crate
//! power-guard tests next to the `#[cfg(test)]` bug shims in
//! `crates/protocols/src/ue.rs` (integration tests cannot see `cfg(test)`
//! items).

use ldp_core::solutions::Spl;
use ldp_datasets::corpora::{acs_employment_schema, adult_schema, nursery_schema};
use ldp_protocols::{
    BitVec, FrequencyOracle, FusedUeGroup, ProtocolKind, Report, UeMode, UnaryEncoding,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const Z: f64 = 5.0;
/// Absolute slack on per-bit bands for count discreteness.
const BIT_SLACK: f64 = 0.002;
/// Absolute slack on pooled and covariance bands.
const POOL_SLACK: f64 = 0.0008;

const EPSILONS: [f64; 5] = [0.5, 1.0, 2.0, 4.0, 8.0];
const KS: [usize; 4] = [16, 64, 257, 1024];
const MODES: [UeMode; 2] = [UeMode::Symmetric, UeMode::Optimized];

/// Deterministic "arbitrary" input: ~35% ones scattered over all words,
/// with at least one 1-lane and one 0-lane pinned so both marginal classes
/// are always populated.
fn arbitrary_input(k: usize, seed: u64) -> BitVec {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut bv = BitVec::zeros(k);
    for i in 0..k {
        if rng.random::<f64>() < 0.35 {
            bv.set(i, true);
        }
    }
    bv.set(1, true);
    bv.set(2, false);
    bv
}

/// Empirical per-bit one-counts of `trials` sanitizations of `input`.
fn bit_counts(ue: &UnaryEncoding, input: &BitVec, trials: usize, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = BitVec::zeros(input.len());
    let mut counts = vec![0u32; input.len()];
    for _ in 0..trials {
        ue.perturb_bits_into(input, &mut out, &mut rng);
        for j in out.ones() {
            counts[j] += 1;
        }
    }
    counts
}

#[test]
fn per_bit_marginals_conform_for_sue_and_oue() {
    const TRIALS: usize = 3000;
    for mode in MODES {
        for (ei, eps) in EPSILONS.into_iter().enumerate() {
            for (ki, k) in KS.into_iter().enumerate() {
                let ue = UnaryEncoding::new(k, eps, mode).unwrap();
                let seed = 0x5A17_0000 + ((mode as u64) << 16) + ((ei as u64) << 8) + ki as u64;
                let input = arbitrary_input(k, seed);
                let counts = bit_counts(&ue, &input, TRIALS, seed ^ 0xFEED);
                let label = format!("{} eps={eps} k={k}", mode.name());
                let n = TRIALS as f64;
                // Per-bit bands: every lane, including the word tail.
                let (mut ones_set, mut zeros_set) = (0u64, 0u64);
                for (j, &c) in counts.iter().enumerate() {
                    let target = if input.get(j) {
                        ones_set += c as u64;
                        ue.p()
                    } else {
                        zeros_set += c as u64;
                        ue.q()
                    };
                    let rate = c as f64 / n;
                    let tol = Z * (target * (1.0 - target) / n).sqrt() + BIT_SLACK;
                    assert!(
                        (rate - target).abs() <= tol,
                        "{label} bit {j}: rate {rate:.5} vs {target:.5} (tol {tol:.5})"
                    );
                }
                // Pooled bands: tight enough to catch a 2⁻⁸ threshold bias.
                let one_lanes = input.count_ones();
                let zero_lanes = k - one_lanes;
                let p_hat = ones_set as f64 / (n * one_lanes as f64);
                let q_hat = zeros_set as f64 / (n * zero_lanes as f64);
                let p_tol =
                    Z * (ue.p() * (1.0 - ue.p()) / (n * one_lanes as f64)).sqrt() + POOL_SLACK;
                let q_tol =
                    Z * (ue.q() * (1.0 - ue.q()) / (n * zero_lanes as f64)).sqrt() + POOL_SLACK;
                assert!(
                    (p_hat - ue.p()).abs() <= p_tol,
                    "{label}: pooled p_hat {p_hat:.6} vs p {:.6} (tol {p_tol:.6})",
                    ue.p()
                );
                assert!(
                    (q_hat - ue.q()).abs() <= q_tol,
                    "{label}: pooled q_hat {q_hat:.6} vs q {:.6} (tol {q_tol:.6})",
                    ue.q()
                );
            }
        }
    }
}

#[test]
fn bit_pairs_are_empirically_independent() {
    // Covers both regimes: ε = 1 is dense (OUE q ≈ 0.27), ε = 4 is sparse
    // (OUE q ≈ 0.018). k = 257 puts one lane in a partial tail word.
    const TRIALS: usize = 6000;
    let configs = [
        (UeMode::Optimized, 1.0, 257usize),
        (UeMode::Optimized, 4.0, 257),
        (UeMode::Symmetric, 1.0, 64),
    ];
    for (ci, (mode, eps, k)) in configs.into_iter().enumerate() {
        let ue = UnaryEncoding::new(k, eps, mode).unwrap();
        let seed = 0x9A19_0000 + ci as u64;
        let input = arbitrary_input(k, seed);
        // Pairs chosen to catch the classic word-mask failure shapes:
        // adjacent lanes inside one word, the same lane across adjacent
        // words, a cross-word diagonal, and (k = 257 only) a pair spanning
        // the partial-tail boundary.
        let mut pairs = vec![(0usize, 1usize), (5, 6), (17, k - 3), (3, k / 2)];
        if k > 64 {
            pairs.push((63, 64));
            pairs.push((3, 67));
        }
        if k == 257 {
            pairs.push((192, 256));
            pairs.push((255, 256));
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0DE);
        let mut out = BitVec::zeros(k);
        let mut joint = vec![0u32; pairs.len()];
        let mut singles = vec![0u32; pairs.len() * 2];
        for _ in 0..TRIALS {
            ue.perturb_bits_into(&input, &mut out, &mut rng);
            for (pi, &(a, b)) in pairs.iter().enumerate() {
                let (xa, xb) = (out.get(a), out.get(b));
                singles[2 * pi] += xa as u32;
                singles[2 * pi + 1] += xb as u32;
                joint[pi] += (xa && xb) as u32;
            }
        }
        let n = TRIALS as f64;
        for (pi, &(a, b)) in pairs.iter().enumerate() {
            let ra = if input.get(a) { ue.p() } else { ue.q() };
            let rb = if input.get(b) { ue.p() } else { ue.q() };
            let cov = joint[pi] as f64 / n
                - (singles[2 * pi] as f64 / n) * (singles[2 * pi + 1] as f64 / n);
            // σ of the empirical covariance of two independent Bernoullis.
            let sigma = (ra * (1.0 - ra) * rb * (1.0 - rb) / n).sqrt();
            let tol = Z * sigma + POOL_SLACK;
            assert!(
                cov.abs() <= tol,
                "{} eps={eps} k={k} pair ({a},{b}): covariance {cov:.6} \
                 outside ±{tol:.6}",
                mode.name()
            );
        }
    }
}

#[test]
fn crossover_boundary_configs_agree_on_marginals() {
    // OUE's q crosses SPARSE_Q_MAX = 2⁻⁵ at ε = ln 31 ≈ 3.434: ε just below
    // routes dense, just above routes sparse. Both sides must conform to the
    // same analytic bands (the regime switch is invisible in distribution).
    const TRIALS: usize = 20_000;
    let k = 130; // two full words + a 2-lane tail
    let below = UnaryEncoding::new(k, 3.43, UeMode::Optimized).unwrap();
    let above = UnaryEncoding::new(k, 3.44, UeMode::Optimized).unwrap();
    assert!(!below.sparse_path() && above.sparse_path());
    for (ue, seed) in [(&below, 0xB0D1u64), (&above, 0xB0D2)] {
        let input = arbitrary_input(k, seed);
        let counts = bit_counts(ue, &input, TRIALS, seed ^ 0xFACE);
        let n = TRIALS as f64;
        let zeros_set: u64 = counts
            .iter()
            .enumerate()
            .filter(|&(j, _)| !input.get(j))
            .map(|(_, &c)| c as u64)
            .sum();
        let zero_lanes = (k - input.count_ones()) as f64;
        let q_hat = zeros_set as f64 / (n * zero_lanes);
        let tol = Z * (ue.q() * (1.0 - ue.q()) / (n * zero_lanes)).sqrt() + POOL_SLACK;
        assert!(
            (q_hat - ue.q()).abs() <= tol,
            "eps={} (sparse={}): q_hat {q_hat:.6} vs q {:.6} (tol {tol:.6})",
            ue.epsilon(),
            ue.sparse_path(),
            ue.q()
        );
    }
}

/// The fused group of an SPL\[UE\] tuple over `ks` at per-attribute budget
/// `eps`, its fields' packed bit offsets, and one of its oracles (all share
/// the analytic `(p, q)`).
fn fused_tuple(ks: &[usize], eps: f64, mode: UeMode) -> (FusedUeGroup, Vec<usize>, UnaryEncoding) {
    let ues: Vec<UnaryEncoding> = ks
        .iter()
        .map(|&k| UnaryEncoding::new(k, eps, mode).unwrap())
        .collect();
    let group = FusedUeGroup::build(&ues).expect("equal (p, q) always fuse");
    let offsets = ks
        .iter()
        .scan(0usize, |off, &k| {
            let start = *off;
            *off += k;
            Some(start)
        })
        .collect();
    (group, offsets, ues[0].clone())
}

/// One sanitized tuple as a packed-lane bit vector: field `j` lands at
/// lanes `offsets[j]..offsets[j] + k_j`.
fn packed(reports: &[Report], offsets: &[usize], lanes: usize) -> BitVec {
    let mut out = BitVec::zeros(lanes);
    for (report, &off) in reports.iter().zip(offsets) {
        let Report::Bits(bits) = report else {
            panic!("fused UE tuples report bit vectors, got {report:?}");
        };
        for i in bits.ones() {
            out.set(off + i, true);
        }
    }
    out
}

/// A fused-tuple sampler under test: pushes one sanitized tuple's reports.
type TupleSampler<'a> = dyn FnMut(&[u32], &mut Vec<Report>, &mut StdRng) + 'a;

/// Violations of the per-lane and pooled 5σ marginal bands of `trials`
/// sanitizations of `tuple`, every packed lane included.
fn fused_marginal_violations(
    ks: &[usize],
    offsets: &[usize],
    ue: &UnaryEncoding,
    tuple: &[u32],
    trials: usize,
    seed: u64,
    sample: &mut TupleSampler<'_>,
) -> Vec<String> {
    let lanes: usize = ks.iter().sum();
    let hot: Vec<bool> = (0..lanes)
        .map(|lane| {
            offsets
                .iter()
                .zip(tuple)
                .any(|(&off, &v)| off + v as usize == lane)
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counts = vec![0u32; lanes];
    let mut reports = Vec::new();
    for _ in 0..trials {
        reports.clear();
        sample(tuple, &mut reports, &mut rng);
        for lane in packed(&reports, offsets, lanes).ones() {
            counts[lane] += 1;
        }
    }
    let n = trials as f64;
    let mut violations = Vec::new();
    let mut pooled = [(0u64, 0usize); 2]; // [cold, hot]: (ones, lanes)
    for (lane, &c) in counts.iter().enumerate() {
        let target = if hot[lane] { ue.p() } else { ue.q() };
        pooled[hot[lane] as usize].0 += c as u64;
        pooled[hot[lane] as usize].1 += 1;
        let rate = c as f64 / n;
        let tol = Z * (target * (1.0 - target) / n).sqrt() + BIT_SLACK;
        if (rate - target).abs() > tol {
            violations.push(format!(
                "lane {lane}: rate {rate:.5} vs {target:.5} (tol {tol:.5})"
            ));
        }
    }
    for (class, target) in [ue.q(), ue.p()].into_iter().enumerate() {
        let (ones, class_lanes) = pooled[class];
        let m = n * class_lanes as f64;
        let rate = ones as f64 / m;
        let tol = Z * (target * (1.0 - target) / m).sqrt() + POOL_SLACK;
        if (rate - target).abs() > tol {
            violations.push(format!(
                "pooled class {class}: {rate:.6} vs {target:.6} (tol {tol:.6})"
            ));
        }
    }
    violations
}

/// The paper's survey shapes that overflow one packed word.
fn wide_survey_shapes() -> [(&'static str, Vec<usize>); 2] {
    [
        ("Adult", adult_schema().cardinalities()),
        ("ACS", acs_employment_schema().cardinalities()),
    ]
}

/// Dense (OUE q ≈ 0.27, SUE q ≈ 0.38) and sparse (OUE q ≈ 3·10⁻⁴, SUE
/// q ≈ 0.018) per-attribute budgets: both sides of the `q = 2⁻⁵`
/// crossover for both modes.
const FUSED_EPSILONS: [f64; 2] = [1.0, 8.0];

/// A deterministic tuple with values spread over each domain (including
/// its last value, so the final lane of every field is hot somewhere).
fn spread_tuple(ks: &[usize], salt: usize) -> Vec<u32> {
    ks.iter()
        .enumerate()
        .map(|(j, &k)| ((j * 7 + salt * 13) % k) as u32)
        .collect()
}

#[test]
fn fused_survey_tuples_conform_per_lane() {
    const TRIALS: usize = 3000;
    for (name, ks) in wide_survey_shapes() {
        for mode in MODES {
            for (ei, eps) in FUSED_EPSILONS.into_iter().enumerate() {
                let (group, offsets, ue) = fused_tuple(&ks, eps, mode);
                assert!(group.word_count() > 1, "{name} must span several words");
                let tuple = spread_tuple(&ks, ei + mode as usize);
                let seed = 0xF05E_0000 + ((mode as u64) << 8) + ei as u64 + ks.len() as u64;
                let violations = fused_marginal_violations(
                    &ks,
                    &offsets,
                    &ue,
                    &tuple,
                    TRIALS,
                    seed,
                    &mut |t, out, rng| group.randomize_tuple_into(t, out, rng),
                );
                assert!(
                    violations.is_empty(),
                    "{name} {} eps={eps}: {violations:?}",
                    mode.name()
                );
            }
        }
    }
}

#[test]
fn fused_survey_lane_pairs_are_independent() {
    // Pairs (in packed-lane coordinates) that a multi-word slicing or mask
    // bug would correlate: neighbours across every word boundary, the same
    // lane index in different words, both ends of the k > 64 field, and
    // hot lanes of fields packed into different words.
    const TRIALS: usize = 6000;
    for (name, ks) in wide_survey_shapes() {
        let lanes: usize = ks.iter().sum();
        for mode in MODES {
            for (ei, eps) in FUSED_EPSILONS.into_iter().enumerate() {
                let (group, offsets, ue) = fused_tuple(&ks, eps, mode);
                let tuple = spread_tuple(&ks, 3 + ei);
                let hot_lane = |j: usize| offsets[j] + tuple[j] as usize;
                let mut pairs = vec![(0usize, ks[0] - 1), (5, 69), (5, 133), (10, 70)];
                for boundary in (64..lanes).step_by(64) {
                    pairs.push((boundary - 1, boundary));
                }
                let last = ks.len() - 1;
                pairs.push((hot_lane(0), hot_lane(last)));
                pairs.push((hot_lane(1), hot_lane(last - 1)));
                pairs.push((hot_lane(0), offsets[last]));
                let mut rng = StdRng::seed_from_u64(0x9A1F_0000 + ei as u64 + ((mode as u64) << 4));
                let mut joint = vec![0u32; pairs.len()];
                let mut singles = vec![[0u32; 2]; pairs.len()];
                let mut reports = Vec::new();
                for _ in 0..TRIALS {
                    reports.clear();
                    group.randomize_tuple_into(&tuple, &mut reports, &mut rng);
                    let bits = packed(&reports, &offsets, lanes);
                    for (pi, &(a, b)) in pairs.iter().enumerate() {
                        let (xa, xb) = (bits.get(a), bits.get(b));
                        singles[pi][0] += xa as u32;
                        singles[pi][1] += xb as u32;
                        joint[pi] += (xa && xb) as u32;
                    }
                }
                let n = TRIALS as f64;
                let rate = |lane: usize| {
                    if offsets
                        .iter()
                        .zip(&tuple)
                        .any(|(&o, &v)| o + v as usize == lane)
                    {
                        ue.p()
                    } else {
                        ue.q()
                    }
                };
                for (pi, &(a, b)) in pairs.iter().enumerate() {
                    let (ra, rb) = (rate(a), rate(b));
                    let cov = joint[pi] as f64 / n
                        - (singles[pi][0] as f64 / n) * (singles[pi][1] as f64 / n);
                    let tol = Z * (ra * (1.0 - ra) * rb * (1.0 - rb) / n).sqrt() + POOL_SLACK;
                    assert!(
                        cov.abs() <= tol,
                        "{name} {} eps={eps} lanes ({a},{b}): covariance {cov:.6} outside ±{tol:.6}",
                        mode.name()
                    );
                }
            }
        }
    }
}

#[test]
fn fused_bands_reject_a_dropped_straddling_high_part() {
    // Power guard: a slicer that loses the lanes of a straddling field past
    // its first word (Adult's k = 74 field 0 and k = 5 field 6, ACS's k = 92
    // field 0) — modelled by clearing them in honest output — must fail
    // the per-lane band that the honest draw passes.
    const TRIALS: usize = 3000;
    for (name, ks) in wide_survey_shapes() {
        let (group, offsets, ue) = fused_tuple(&ks, 1.0, UeMode::Optimized);
        let tuple = spread_tuple(&ks, 0);
        let mut honest = |t: &[u32], out: &mut Vec<Report>, rng: &mut StdRng| {
            group.randomize_tuple_into(t, out, rng)
        };
        let clean =
            fused_marginal_violations(&ks, &offsets, &ue, &tuple, TRIALS, 0xD20B, &mut honest);
        assert!(clean.is_empty(), "{name}: honest draw fails: {clean:?}");
        let mut dropped = |t: &[u32], out: &mut Vec<Report>, rng: &mut StdRng| {
            group.randomize_tuple_into(t, out, rng);
            for (report, (&off, &k)) in out.iter_mut().zip(offsets.iter().zip(&ks)) {
                let Report::Bits(bits) = report else {
                    unreachable!()
                };
                let boundary = (off / 64 + 1) * 64;
                for lane in boundary.max(off)..off + k {
                    bits.set(lane - off, false);
                }
            }
        };
        let caught =
            fused_marginal_violations(&ks, &offsets, &ue, &tuple, TRIALS, 0xD20B, &mut dropped);
        assert!(
            !caught.is_empty(),
            "{name}: a dropped straddling high part slipped through the bands"
        );
    }
}

#[test]
fn fused_tuples_reject_out_of_domain_values_in_every_build() {
    // An unchecked out-of-domain value would set a lane of the *next*
    // field (or index past the packed words); the check must hold under
    // `--release` too, where debug assertions are off.
    let nursery = nursery_schema().cardinalities();
    let adult = adult_schema().cardinalities();
    let cases: [(&str, &[usize], usize, u32); 3] = [
        ("single word (Nursery)", &nursery, 0, nursery[0] as u32),
        (
            "multi-word (Adult, k = 74 field)",
            &adult,
            0,
            adult[0] as u32,
        ),
        ("past the last word (Adult)", &adult, adult.len() - 1, 1000),
    ];
    for (label, ks, field, value) in cases {
        let mut tuple = vec![0u32; ks.len()];
        tuple[field] = value;
        for mode in MODES {
            let (group, _, _) = fused_tuple(ks, 1.0, mode);
            let panicked = std::panic::catch_unwind(|| {
                let mut rng = StdRng::seed_from_u64(1);
                group.randomize_tuple_into(&tuple, &mut Vec::new(), &mut rng);
            });
            let message = panicked.expect_err(label);
            let message = message
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert!(
                message.contains("outside its domain"),
                "{label} {}: wrong panic {message:?}",
                mode.name()
            );
        }
        // The SPL solution reaches the same check.
        let spl = Spl::new(ProtocolKind::Oue, ks, 4.0).unwrap();
        let via_spl = std::panic::catch_unwind(|| {
            spl.report(&tuple, &mut StdRng::seed_from_u64(2));
        });
        assert!(via_spl.is_err(), "{label}: SPL[OUE] accepted value {value}");
    }
}

/// `P(X ≤ i)` for `X ~ Binomial(k, prob)`, computed iteratively (k stays
/// small in the property tests, so no log-space arithmetic needed).
fn binomial_cdf(k: usize, prob: f64) -> Vec<f64> {
    let mut pmf = vec![0.0f64; k + 1];
    pmf[0] = (1.0 - prob).powi(k as i32);
    let ratio = prob / (1.0 - prob);
    for i in 0..k {
        pmf[i + 1] = pmf[i] * ratio * ((k - i) as f64) / ((i + 1) as f64);
    }
    let mut cdf = pmf;
    for i in 1..=k {
        cdf[i] += cdf[i - 1];
    }
    cdf
}

/// Budgets that drive `(p, q)` to the adversarial corners: ε = 0.02 puts
/// q ≈ 0.4975 (near 1/2), ε = 14 puts SUE p ≈ 0.9991 (near 1) and OUE
/// q ≈ 8·10⁻⁷ (near 0).
fn arb_eps() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.02), Just(0.5), Just(2.0), Just(8.0), Just(14.0),]
}

fn arb_mode() -> impl Strategy<Value = UeMode> {
    prop_oneof![Just(UeMode::Symmetric), Just(UeMode::Optimized)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// DKW bound on the skip-sampler's flip-count law: sanitizing the zero
    /// vector through the forced-sparse path must give a one-count
    /// distributed Binomial(k, q); sanitizing the all-ones vector,
    /// Binomial(k, p). The empirical CDF over N samples may deviate from the
    /// analytic CDF by at most √(ln(2/α)/2N) (Dvoretzky–Kiefer–Wolfowitz),
    /// α = 10⁻⁹.
    #[test]
    fn sparse_flip_counts_match_binomial_cdf(
        mode in arb_mode(),
        eps in arb_eps(),
        k in 4usize..48,
        seed in any::<u64>(),
    ) {
        const N: usize = 4000;
        let dkw = ((2.0f64 / 1e-9).ln() / (2.0 * N as f64)).sqrt();
        let ue = UnaryEncoding::new(k, eps, mode).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for all_ones in [false, true] {
            let mut input = BitVec::zeros(k);
            if all_ones {
                for i in 0..k {
                    input.set(i, true);
                }
            }
            let target = if all_ones { ue.p() } else { ue.q() };
            let cdf = binomial_cdf(k, target);
            let mut hist = vec![0u32; k + 1];
            let mut out = BitVec::zeros(k);
            for _ in 0..N {
                ue.perturb_bits_sparse_into(&input, &mut out, &mut rng);
                hist[out.count_ones()] += 1;
            }
            let mut cum = 0u32;
            for i in 0..=k {
                cum += hist[i];
                let emp = cum as f64 / N as f64;
                prop_assert!(
                    (emp - cdf[i]).abs() <= dkw,
                    "{} eps={eps} k={k} ones={all_ones}: |F̂({i})−F({i})| = {:.4} > DKW {dkw:.4}",
                    mode.name(),
                    (emp - cdf[i]).abs()
                );
            }
        }
    }

    /// The forced sparse and dense paths are marginally indistinguishable on
    /// the same `(p, q, k)` — pooled 1-lane and 0-lane rates agree within a
    /// two-sample 5σ band regardless of which side of the crossover the
    /// protocol would normally route to.
    #[test]
    fn forced_sparse_and_dense_marginals_agree(
        mode in arb_mode(),
        eps in arb_eps(),
        k in 65usize..200,
        seed in any::<u64>(),
    ) {
        const TRIALS: usize = 3000;
        let ue = UnaryEncoding::new(k, eps, mode).unwrap();
        let input = arbitrary_input(k, seed);
        let one_lanes = input.count_ones();
        let zero_lanes = k - one_lanes;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE);
        let mut out = BitVec::zeros(k);
        let mut rates = [[0.0f64; 2]; 2]; // [path][lane-class]
        for (pi, forced_sparse) in [true, false].into_iter().enumerate() {
            let (mut on_ones, mut on_zeros) = (0u64, 0u64);
            for _ in 0..TRIALS {
                if forced_sparse {
                    ue.perturb_bits_sparse_into(&input, &mut out, &mut rng);
                } else {
                    ue.perturb_bits_dense_into(&input, &mut out, &mut rng);
                }
                for j in out.ones() {
                    if input.get(j) {
                        on_ones += 1;
                    } else {
                        on_zeros += 1;
                    }
                }
            }
            rates[pi][0] = on_ones as f64 / (TRIALS * one_lanes) as f64;
            rates[pi][1] = on_zeros as f64 / (TRIALS * zero_lanes) as f64;
        }
        for (li, (target, lanes)) in [(ue.p(), one_lanes), (ue.q(), zero_lanes)]
            .into_iter()
            .enumerate()
        {
            let n = (TRIALS * lanes) as f64;
            let tol = Z * (2.0 * target * (1.0 - target) / n).sqrt() + POOL_SLACK;
            prop_assert!(
                (rates[0][li] - rates[1][li]).abs() <= tol,
                "{} eps={eps} k={k} class {li}: sparse {:.6} vs dense {:.6} (tol {tol:.6})",
                mode.name(),
                rates[0][li],
                rates[1][li]
            );
        }
    }
}
