//! The [`FrequencyOracle`] abstraction, sanitized [`Report`]s, the protocol
//! dispatcher [`Oracle`], and the server-side [`Aggregator`] implementing the
//! generic unbiased estimator of Eq. (2) in the paper.

use rand::Rng;

use crate::bitvec::BitVec;
use crate::error::ProtocolError;
use crate::grr::Grr;
use crate::olh::Olh;
use crate::ss::SubsetSelection;
use crate::ue::{UeMode, UnaryEncoding};

/// A sanitized client report. Each LDP protocol has a distinct output shape,
/// which the paper's §3.2.1 adversarial analysis exploits.
#[derive(Debug, Clone, PartialEq)]
pub enum Report {
    /// A single (possibly perturbed) categorical value — GRR.
    Value(u32),
    /// The hash function seed and the perturbed hashed value — OLH.
    Hashed {
        /// Identifies the hash function `H` chosen by the user.
        seed: u64,
        /// Size of the hash range `[g]`.
        g: u32,
        /// Perturbed value in `0..g`.
        value: u32,
    },
    /// The reported subset Ω of domain values — ω-SS.
    Subset(Vec<u32>),
    /// A sanitized unary-encoded vector — SUE / OUE.
    Bits(BitVec),
}

impl Report {
    /// Short label of the report shape, for diagnostics.
    pub fn shape(&self) -> &'static str {
        match self {
            Report::Value(_) => "value",
            Report::Hashed { .. } => "hashed",
            Report::Subset(_) => "subset",
            Report::Bits(_) => "bits",
        }
    }
}

/// Client + server sides of an LDP frequency-estimation protocol.
///
/// The server side is expressed through [`FrequencyOracle::supports`] plus the
/// effective `(p*, q*)` pair: every protocol in this crate reports value `v`
/// ("supports" it) with probability `p*` when the user's true value is `v`,
/// and `q*` otherwise, which is exactly what the unbiased estimator
/// `f̂(v) = (C(v)/n − q*) / (p* − q*)` (Eq. (2)) requires.
pub trait FrequencyOracle {
    /// Domain size `k` of the attribute.
    fn domain_size(&self) -> usize;

    /// Privacy budget ε the protocol satisfies.
    fn epsilon(&self) -> f64;

    /// Client-side sanitization of `value` (must be `< domain_size`).
    fn randomize<R: Rng + ?Sized>(&self, value: u32, rng: &mut R) -> Report;

    /// Whether `report` counts towards value `value` on the server.
    fn supports(&self, report: &Report, value: u32) -> bool;

    /// Adds a hashed report's support over the whole domain to `counts` —
    /// the `Report::Hashed` arm of [`count_support`], which is `O(k)` per
    /// report and therefore the aggregation hot spot for hashing protocols.
    ///
    /// The default evaluates [`FrequencyOracle::supports`] once per domain
    /// value; implementations with a cheap per-value predicate override it
    /// with a monomorphized tight loop ([`Olh::count_hashed`] sweeps the
    /// hash incrementally). Overrides must stay bit-identical to the default.
    fn count_hashed(&self, counts: &mut [u64], report: &Report) {
        for (v, c) in counts.iter_mut().enumerate() {
            if self.supports(report, v as u32) {
                *c += 1;
            }
        }
    }

    /// Probability that a report supports the user's own true value.
    fn est_p(&self) -> f64;

    /// Probability that a report supports any fixed *other* value.
    fn est_q(&self) -> f64;

    /// Variance of the Eq. (2) estimate of a value with true frequency `f`
    /// from `n` reports: `γ(1−γ) / (n (p*−q*)²)` with `γ = q* + f (p*−q*)`.
    fn variance(&self, f: f64, n: usize) -> f64 {
        let p = self.est_p();
        let q = self.est_q();
        let gamma = q + f * (p - q);
        gamma * (1.0 - gamma) / (n as f64 * (p - q) * (p - q))
    }
}

/// The five protocol families of the paper, as a plain enum for sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Generalized Randomized Response.
    Grr,
    /// Optimal Local Hashing.
    Olh,
    /// ω-Subset Selection.
    Ss,
    /// Symmetric Unary Encoding (Basic One-time RAPPOR).
    Sue,
    /// Optimized Unary Encoding.
    Oue,
}

impl ProtocolKind {
    /// All five protocols in the paper's plotting order.
    pub const ALL: [ProtocolKind; 5] = [
        ProtocolKind::Grr,
        ProtocolKind::Olh,
        ProtocolKind::Ss,
        ProtocolKind::Sue,
        ProtocolKind::Oue,
    ];

    /// Paper-style display name.
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Grr => "GRR",
            ProtocolKind::Olh => "OLH",
            ProtocolKind::Ss => "SS",
            ProtocolKind::Sue => "SUE",
            ProtocolKind::Oue => "OUE",
        }
    }

    /// Builds the concrete protocol for domain size `k` and budget `epsilon`.
    pub fn build(self, k: usize, epsilon: f64) -> Result<Oracle, ProtocolError> {
        Ok(match self {
            ProtocolKind::Grr => Oracle::Grr(Grr::new(k, epsilon)?),
            ProtocolKind::Olh => Oracle::Olh(Olh::new(k, epsilon)?),
            ProtocolKind::Ss => Oracle::Ss(SubsetSelection::new(k, epsilon)?),
            ProtocolKind::Sue => Oracle::Ue(UnaryEncoding::new(k, epsilon, UeMode::Symmetric)?),
            ProtocolKind::Oue => Oracle::Ue(UnaryEncoding::new(k, epsilon, UeMode::Optimized)?),
        })
    }
}

impl std::fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Enum dispatcher over the concrete protocols, convenient for parameter
/// sweeps where the protocol is selected at runtime.
#[derive(Debug, Clone)]
pub enum Oracle {
    /// See [`Grr`].
    Grr(Grr),
    /// See [`Olh`].
    Olh(Olh),
    /// See [`SubsetSelection`].
    Ss(SubsetSelection),
    /// See [`UnaryEncoding`] (covers both SUE and OUE).
    Ue(UnaryEncoding),
}

impl Oracle {
    /// The protocol family of this oracle.
    pub fn kind(&self) -> ProtocolKind {
        match self {
            Oracle::Grr(_) => ProtocolKind::Grr,
            Oracle::Olh(_) => ProtocolKind::Olh,
            Oracle::Ss(_) => ProtocolKind::Ss,
            Oracle::Ue(ue) => match ue.mode() {
                UeMode::Symmetric => ProtocolKind::Sue,
                UeMode::Optimized => ProtocolKind::Oue,
            },
        }
    }
}

impl FrequencyOracle for Oracle {
    fn domain_size(&self) -> usize {
        match self {
            Oracle::Grr(p) => p.domain_size(),
            Oracle::Olh(p) => p.domain_size(),
            Oracle::Ss(p) => p.domain_size(),
            Oracle::Ue(p) => p.domain_size(),
        }
    }

    fn epsilon(&self) -> f64 {
        match self {
            Oracle::Grr(p) => p.epsilon(),
            Oracle::Olh(p) => p.epsilon(),
            Oracle::Ss(p) => p.epsilon(),
            Oracle::Ue(p) => p.epsilon(),
        }
    }

    fn randomize<R: Rng + ?Sized>(&self, value: u32, rng: &mut R) -> Report {
        match self {
            Oracle::Grr(p) => p.randomize(value, rng),
            Oracle::Olh(p) => p.randomize(value, rng),
            Oracle::Ss(p) => p.randomize(value, rng),
            Oracle::Ue(p) => p.randomize(value, rng),
        }
    }

    fn supports(&self, report: &Report, value: u32) -> bool {
        match self {
            Oracle::Grr(p) => p.supports(report, value),
            Oracle::Olh(p) => p.supports(report, value),
            Oracle::Ss(p) => p.supports(report, value),
            Oracle::Ue(p) => p.supports(report, value),
        }
    }

    // One enum dispatch per *report* (not per domain value): the OLH arm
    // lands in the monomorphized tight loop, everything else keeps the
    // default sweep (a hashed report supports nothing under those oracles).
    fn count_hashed(&self, counts: &mut [u64], report: &Report) {
        match self {
            Oracle::Grr(p) => p.count_hashed(counts, report),
            Oracle::Olh(p) => p.count_hashed(counts, report),
            Oracle::Ss(p) => p.count_hashed(counts, report),
            Oracle::Ue(p) => p.count_hashed(counts, report),
        }
    }

    fn est_p(&self) -> f64 {
        match self {
            Oracle::Grr(p) => p.est_p(),
            Oracle::Olh(p) => p.est_p(),
            Oracle::Ss(p) => p.est_p(),
            Oracle::Ue(p) => p.est_p(),
        }
    }

    fn est_q(&self) -> f64 {
        match self {
            Oracle::Grr(p) => p.est_q(),
            Oracle::Olh(p) => p.est_q(),
            Oracle::Ss(p) => p.est_q(),
            Oracle::Ue(p) => p.est_q(),
        }
    }
}

/// Server-side accumulator implementing the paper's Eq. (2) estimator
/// generically over any [`FrequencyOracle`].
#[derive(Debug, Clone)]
pub struct Aggregator<'a, O: FrequencyOracle> {
    oracle: &'a O,
    counts: Vec<u64>,
    n: u64,
}

impl<'a, O: FrequencyOracle> Aggregator<'a, O> {
    /// Creates an empty aggregator for `oracle`.
    pub fn new(oracle: &'a O) -> Self {
        Aggregator {
            counts: vec![0; oracle.domain_size()],
            oracle,
            n: 0,
        }
    }

    /// Absorbs one report, incrementing the support count of each value the
    /// report supports.
    pub fn absorb(&mut self, report: &Report) {
        self.n += 1;
        count_support(self.oracle, &mut self.counts, report);
    }

    /// Absorbs a whole batch of reports through [`count_support_batch`].
    pub fn absorb_batch(&mut self, reports: &[Report]) {
        self.n += reports.len() as u64;
        count_support_batch(self.oracle, &mut self.counts, reports);
    }

    /// Folds another aggregator's state into this one, so shards filled in
    /// parallel can be combined into a single estimate.
    ///
    /// # Panics
    /// Panics when the two aggregators cover different domain sizes.
    pub fn merge(&mut self, other: &Aggregator<'_, O>) {
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "cannot merge aggregators over different domains"
        );
        self.n += other.n;
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
    }

    /// Number of absorbed reports.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Raw support counts `C(v)`.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Unbiased frequency estimates via Eq. (2) ([`estimate_eq2`]);
    /// all-zeros when no report has been absorbed.
    pub fn estimate(&self) -> Vec<f64> {
        estimate_eq2(self.oracle, &self.counts, self.n)
    }

    /// Estimates post-processed onto the probability simplex: negative
    /// entries clamped to zero and the vector re-normalized to sum to one
    /// (the standard consistency step; a uniform vector is returned when
    /// everything clamps to zero).
    pub fn estimate_normalized(&self) -> Vec<f64> {
        normalize_simplex(&self.estimate())
    }
}

/// The paper's Eq. (2): unbiased frequency estimates
/// `f̂(v) = (C(v)/n − q*) / (p* − q*)` from the support counts `C` of `n`
/// reports, all-zeros when `n = 0`. The one copy of the estimator, behind
/// [`Aggregator::estimate`] and the SPL, SMP and mixed-categorical arms of
/// the multidimensional streaming aggregator one layer up.
pub fn estimate_eq2<O: FrequencyOracle>(oracle: &O, counts: &[u64], n: u64) -> Vec<f64> {
    if n == 0 {
        return vec![0.0; counts.len()];
    }
    let n = n as f64;
    let p = oracle.est_p();
    let q = oracle.est_q();
    let denom = p - q;
    counts.iter().map(|&c| (c as f64 / n - q) / denom).collect()
}

/// Adds one report's support to a raw count vector — the oracle-aware
/// counting path shared by [`Aggregator::absorb`] and the SPL/SMP arms of
/// the multidimensional streaming aggregator one layer up (fake-data tuples,
/// which never need oracle support evaluation, have a direct sibling in
/// `ldp_core`).
///
/// Out-of-domain reports (a `Value` ≥ k, a bit vector of the wrong width, a
/// subset entry ≥ k) trip a `debug_assert` so malformed inputs fail loudly
/// in tests; release builds skip the stray entries, matching the historical
/// behavior.
pub fn count_support<O: FrequencyOracle>(oracle: &O, counts: &mut [u64], report: &Report) {
    match report {
        // Fast paths that avoid scanning the whole domain.
        Report::Value(v) => {
            debug_assert!(
                (*v as usize) < counts.len(),
                "report value {v} outside domain of size {}",
                counts.len()
            );
            if let Some(c) = counts.get_mut(*v as usize) {
                *c += 1;
            }
        }
        Report::Subset(subset) => {
            for &v in subset {
                debug_assert!(
                    (v as usize) < counts.len(),
                    "subset entry {v} outside domain of size {}",
                    counts.len()
                );
                if let Some(c) = counts.get_mut(v as usize) {
                    *c += 1;
                }
            }
        }
        Report::Bits(bits) => {
            debug_assert_eq!(
                bits.len(),
                counts.len(),
                "bit-vector report width does not match the domain"
            );
            for idx in bits.ones() {
                if let Some(c) = counts.get_mut(idx) {
                    *c += 1;
                }
            }
        }
        // OLH needs the oracle's hash evaluation over the full domain; the
        // trait hook dispatches once per report into the oracle's tightest
        // sweep (see `FrequencyOracle::count_hashed`).
        Report::Hashed { .. } => oracle.count_hashed(counts, report),
    }
}

/// [`count_support`] over a whole slice of reports, as
/// [`Aggregator::absorb_batch`] uses it. No server path calls it: the
/// ingestion service counts encoded batches through
/// `ldp_core::solutions::MultidimAggregator::absorb_compact`.
pub fn count_support_batch<O: FrequencyOracle>(oracle: &O, counts: &mut [u64], reports: &[Report]) {
    for report in reports {
        count_support(oracle, counts, report);
    }
}

/// Clamps negative entries to zero and renormalizes to sum 1. If the clamped
/// vector sums to zero, returns the uniform distribution.
pub fn normalize_simplex(raw: &[f64]) -> Vec<f64> {
    let mut out: Vec<f64> = raw.iter().map(|&x| x.max(0.0)).collect();
    let s: f64 = out.iter().sum();
    if s > 0.0 {
        for x in &mut out {
            *x /= s;
        }
    } else if !out.is_empty() {
        let u = 1.0 / out.len() as f64;
        out.fill(u);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn kind_roundtrip_through_build() {
        for kind in ProtocolKind::ALL {
            let oracle = kind.build(8, 1.5).unwrap();
            assert_eq!(oracle.kind(), kind);
            assert_eq!(oracle.domain_size(), 8);
            assert!((oracle.epsilon() - 1.5).abs() < 1e-12);
        }
    }

    #[test]
    fn build_rejects_bad_parameters() {
        for kind in ProtocolKind::ALL {
            assert!(kind.build(1, 1.0).is_err());
            assert!(kind.build(4, 0.0).is_err());
            assert!(kind.build(4, f64::NAN).is_err());
        }
    }

    #[test]
    fn est_p_greater_than_est_q_for_all_protocols() {
        for kind in ProtocolKind::ALL {
            for k in [2usize, 5, 74] {
                for eps in [0.5, 1.0, 4.0] {
                    let o = kind.build(k, eps).unwrap();
                    assert!(
                        o.est_p() > o.est_q(),
                        "{kind} k={k} eps={eps}: p={} q={}",
                        o.est_p(),
                        o.est_q()
                    );
                }
            }
        }
    }

    #[test]
    fn aggregator_estimates_sum_to_about_one() {
        let mut rng = StdRng::seed_from_u64(11);
        for kind in ProtocolKind::ALL {
            let o = kind.build(6, 2.0).unwrap();
            let mut agg = Aggregator::new(&o);
            for i in 0..6000u32 {
                agg.absorb(&o.randomize(i % 6, &mut rng));
            }
            let est = agg.estimate();
            let total: f64 = est.iter().sum();
            assert!(
                (total - 1.0).abs() < 0.1,
                "{kind}: estimates sum to {total}"
            );
        }
    }

    #[test]
    fn merged_shards_match_sequential_absorption() {
        let mut rng = StdRng::seed_from_u64(21);
        for kind in ProtocolKind::ALL {
            let o = kind.build(6, 2.0).unwrap();
            let reports: Vec<Report> = (0..600u32).map(|i| o.randomize(i % 6, &mut rng)).collect();
            let mut sequential = Aggregator::new(&o);
            for r in &reports {
                sequential.absorb(r);
            }
            let mut shards = [
                Aggregator::new(&o),
                Aggregator::new(&o),
                Aggregator::new(&o),
            ];
            for (i, r) in reports.iter().enumerate() {
                shards[i % 3].absorb(r);
            }
            let mut merged = Aggregator::new(&o);
            for s in &shards {
                merged.merge(s);
            }
            assert_eq!(sequential.n(), merged.n());
            assert_eq!(sequential.counts(), merged.counts());
            for (a, b) in sequential.estimate().iter().zip(merged.estimate()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{kind}: merge must be exact");
            }
        }
    }

    #[test]
    fn absorb_batch_matches_one_by_one_absorption() {
        let mut rng = StdRng::seed_from_u64(31);
        for kind in ProtocolKind::ALL {
            let o = kind.build(9, 2.0).unwrap();
            let reports: Vec<Report> = (0..300u32).map(|i| o.randomize(i % 9, &mut rng)).collect();
            let mut one_by_one = Aggregator::new(&o);
            for r in &reports {
                one_by_one.absorb(r);
            }
            let mut batched = Aggregator::new(&o);
            batched.absorb_batch(&reports);
            assert_eq!(one_by_one.n(), batched.n(), "{kind}");
            assert_eq!(one_by_one.counts(), batched.counts(), "{kind}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside domain")]
    fn absorb_rejects_out_of_domain_value_in_debug() {
        let o = ProtocolKind::Grr.build(4, 1.0).unwrap();
        let mut agg = Aggregator::new(&o);
        agg.absorb(&Report::Value(9));
    }

    #[test]
    fn empty_aggregator_estimates_zero() {
        let o = ProtocolKind::Grr.build(4, 1.0).unwrap();
        let agg = Aggregator::new(&o);
        assert_eq!(agg.estimate(), vec![0.0; 4]);
        assert_eq!(agg.n(), 0);
    }

    #[test]
    fn normalize_simplex_handles_all_negative() {
        let out = normalize_simplex(&[-0.2, -0.1]);
        assert_eq!(out, vec![0.5, 0.5]);
    }

    #[test]
    fn normalize_simplex_clamps_and_scales() {
        let out = normalize_simplex(&[0.5, -0.5, 0.5]);
        assert_eq!(out, vec![0.5, 0.0, 0.5]);
        let s: f64 = out.iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn variance_default_matches_gamma_formula() {
        let o = ProtocolKind::Grr.build(4, 1.0).unwrap();
        let (p, q) = (o.est_p(), o.est_q());
        let f = 0.3;
        let gamma = q + f * (p - q);
        let expect = gamma * (1.0 - gamma) / (1000.0 * (p - q) * (p - q));
        assert!((o.variance(f, 1000) - expect).abs() < 1e-15);
    }
}
