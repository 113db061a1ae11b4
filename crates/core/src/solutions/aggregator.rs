//! The streaming server side of the multidimensional solutions.
//!
//! [`MultidimAggregator`] mirrors `ldp_protocols::Aggregator` one layer up:
//! it absorbs sanitized reports **one at a time** into `O(Σ_j k_j)`
//! support-count state — peak memory is independent of the number of users —
//! and applies each solution's unbiased estimator on demand. Shards filled in
//! parallel can be [`MultidimAggregator::merge`]d, which is exact: the state
//! is integer counts, so a merged estimate is bit-identical to a single
//! sequential pass over the same reports.
//!
//! ```
//! use ldp_core::solutions::{MultidimSolution, RsFd, RsFdProtocol};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let rsfd = RsFd::new(RsFdProtocol::Grr, &[12, 8, 3], 1.0).unwrap();
//! let mut rng = StdRng::seed_from_u64(7);
//!
//! // Two collection sites absorb their own reports — no buffering — then
//! // the server merges the integer-count shards exactly.
//! let (mut site_a, mut site_b) = (rsfd.aggregator(), rsfd.aggregator());
//! for uid in 0..1_000u32 {
//!     let tuple = [uid % 12, uid % 8, uid % 3];
//!     let shard = if uid % 2 == 0 { &mut site_a } else { &mut site_b };
//!     shard.absorb(&rsfd.report_encoded(&tuple, &mut rng));
//! }
//! let mut server = rsfd.aggregator();
//! server.merge(&site_a);
//! server.merge(&site_b);
//! assert_eq!(server.n(), 1_000);
//! let estimates = server.estimate(); // unbiased, O(Σ k_j) state throughout
//! assert_eq!(estimates.len(), 3);
//! ```

use ldp_protocols::oracle::count_support;
use ldp_protocols::{FrequencyOracle, Oracle, Report};

use crate::numeric::{DynNumeric, NUMERIC_SCALE};

use super::compact::{
    count_entry, Cursor, KIND_FULL, KIND_MIXED, KIND_SMP, KIND_TUPLE, SUBTAG_CAT, SUBTAG_NUM,
};
use super::mixed::{MixedEntry, MixedReport};
use super::rsfd::RsFdProtocol;
use super::rsrfd::RsRfdProtocol;
use super::smp::SmpReport;
use super::tally::{BitSink, BitTally, PerBit};
use super::SolutionReport;

/// Which unbiased estimator [`MultidimAggregator::estimate`] applies, plus
/// the per-attribute parameters it needs. Built by the owning solution.
#[derive(Debug, Clone)]
pub(crate) enum EstimatorSpec {
    /// SPL: every report covers every attribute at ε/d; Eq. (2) per attribute
    /// over the global `n`.
    Spl {
        /// Per-attribute (ε/d)-budget oracles (needed to count OLH reports).
        oracles: Vec<Oracle>,
    },
    /// SMP: reports are grouped by disclosed attribute; Eq. (2) per attribute
    /// over that attribute's own `n_j`.
    Smp {
        /// Per-attribute ε-budget oracles.
        oracles: Vec<Oracle>,
    },
    /// RS+FD: the §2.3.2 estimators of the chosen fake-data procedure.
    RsFd {
        /// Fake-data variant.
        protocol: RsFdProtocol,
        /// Per-attribute effective `(p, q)` at the amplified budget.
        pqs: Vec<(f64, f64)>,
    },
    /// RS+RFD: the Eq. (6)/(7) estimators with the configured priors.
    RsRfd {
        /// Protocol variant.
        protocol: RsRfdProtocol,
        /// Per-attribute effective `(p, q)` at the amplified budget.
        pqs: Vec<(f64, f64)>,
        /// Per-attribute fake-data priors `f̃`.
        priors: Vec<Vec<f64>>,
    },
    /// Mixed categorical+numeric: per-dimension Eq. (2) for categorical
    /// dims over their own `n_j`, exact fixed-point means for numeric dims.
    Mixed {
        /// Per-dimension `(ε / sample_k)`-budget oracles (None for numeric
        /// dims).
        oracles: Vec<Option<Oracle>>,
        /// The numeric mechanism (at `ε / sample_k`).
        numeric: DynNumeric,
        /// Dimensions sampled per user.
        sample_k: usize,
    },
}

impl EstimatorSpec {
    /// Whether two specs describe the same estimator configuration (merge
    /// compatibility).
    fn same_config(&self, other: &EstimatorSpec) -> bool {
        fn same_oracles(a: &[Oracle], b: &[Oracle]) -> bool {
            a.len() == b.len()
                && a.iter().zip(b).all(|(x, y)| {
                    x.kind() == y.kind()
                        && x.domain_size() == y.domain_size()
                        && x.epsilon() == y.epsilon()
                })
        }
        match (self, other) {
            (EstimatorSpec::Spl { oracles: a }, EstimatorSpec::Spl { oracles: b }) => {
                same_oracles(a, b)
            }
            (EstimatorSpec::Smp { oracles: a }, EstimatorSpec::Smp { oracles: b }) => {
                same_oracles(a, b)
            }
            (
                EstimatorSpec::RsFd {
                    protocol: pa,
                    pqs: qa,
                },
                EstimatorSpec::RsFd {
                    protocol: pb,
                    pqs: qb,
                },
            ) => pa == pb && qa == qb,
            (
                EstimatorSpec::RsRfd {
                    protocol: pa,
                    pqs: qa,
                    priors: ra,
                },
                EstimatorSpec::RsRfd {
                    protocol: pb,
                    pqs: qb,
                    priors: rb,
                },
            ) => pa == pb && qa == qb && ra == rb,
            (
                EstimatorSpec::Mixed {
                    oracles: oa,
                    numeric: na,
                    sample_k: ka,
                },
                EstimatorSpec::Mixed {
                    oracles: ob,
                    numeric: nb,
                    sample_k: kb,
                },
            ) => {
                na == nb
                    && ka == kb
                    && oa.len() == ob.len()
                    && oa.iter().zip(ob).all(|(x, y)| match (x, y) {
                        (None, None) => true,
                        (Some(x), Some(y)) => {
                            x.kind() == y.kind()
                                && x.domain_size() == y.domain_size()
                                && x.epsilon() == y.epsilon()
                        }
                        _ => false,
                    })
            }
            _ => false,
        }
    }
}

/// Adds one fake-data report entry (attribute `j`, for diagnostics) to its
/// attribute's counts: a `Value` counts itself, `Bits` counts every set bit.
/// The counting path of [`MultidimAggregator::absorb_tuple`]; the
/// oracle-aware sibling for SPL/SMP reports is
/// `ldp_protocols::oracle::count_support`.
///
/// Out-of-domain entries trip a `debug_assert` so malformed reports fail
/// loudly in tests; release builds skip them.
pub(crate) fn count_fake_data_entry(counts: &mut [u64], j: usize, rep: &Report) {
    match rep {
        Report::Value(v) => {
            debug_assert!(
                (*v as usize) < counts.len(),
                "attr {j}: report value {v} outside domain of size {}",
                counts.len()
            );
            if let Some(c) = counts.get_mut(*v as usize) {
                *c += 1;
            }
        }
        Report::Bits(bits) => {
            debug_assert_eq!(
                bits.len(),
                counts.len(),
                "attr {j}: bit-vector width does not match the domain"
            );
            for b in bits.ones() {
                if let Some(c) = counts.get_mut(b) {
                    *c += 1;
                }
            }
        }
        // RS+FD tuples never carry hashed/subset entries.
        other => {
            debug_assert!(false, "attr {j}: unexpected report shape {other:?}");
        }
    }
}

/// Streaming, mergeable server-side aggregator for all four collection
/// solutions.
///
/// Obtain one from the owning solution —
/// [`MultidimSolution::aggregator`](super::MultidimSolution::aggregator),
/// [`Spl::aggregator`](super::Spl::aggregator),
/// [`Smp::aggregator`](super::Smp::aggregator) or
/// [`DynSolution::aggregator`](super::DynSolution::aggregator) — absorb each
/// sanitized report as it arrives, and call
/// [`estimate`](MultidimAggregator::estimate) at any point:
///
/// ```
/// use ldp_core::solutions::{RsFd, RsFdProtocol, MultidimSolution};
/// use rand::{SeedableRng, rngs::StdRng};
///
/// let rsfd = RsFd::new(RsFdProtocol::Grr, &[4, 3], 1.0).unwrap();
/// let mut rng = StdRng::seed_from_u64(7);
/// let mut agg = rsfd.aggregator();
/// for _ in 0..10_000 {
///     agg.absorb(&rsfd.report_encoded(&[2, 1], &mut rng));
/// }
/// let est = agg.estimate();
/// assert!((est[0][2] - 1.0).abs() < 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct MultidimAggregator {
    ks: Vec<usize>,
    /// Support counts `C_j(v)`, one vector per attribute.
    counts: Vec<Vec<u64>>,
    /// Reports contributing to each attribute. Maintained under SMP and the
    /// mixed solution, where each report covers a subset of the dimensions;
    /// every other solution's reports cover all attributes, so their
    /// per-attribute count is just `n`.
    n_attr: Vec<u64>,
    /// Exact fixed-point sums of numeric-dimension reports (mixed solution
    /// only; always zero for categorical dims). `i128` cannot overflow:
    /// |report| ≤ C·2^40 ≲ 2^50 even at tiny ε, so ~2^77 reports fit.
    num_sums: Vec<i128>,
    /// Total reports absorbed.
    n: u64,
    spec: EstimatorSpec,
    /// Byte-lane counters `absorb_compact` adds bit-vector entries into;
    /// flushed into `counts` before it returns, so all-zero between calls.
    tally: BitTally,
}

impl MultidimAggregator {
    pub(crate) fn new(ks: Vec<usize>, spec: EstimatorSpec) -> Self {
        let counts = ks.iter().map(|&k| vec![0u64; k]).collect();
        let n_attr = vec![0; ks.len()];
        let num_sums = vec![0; ks.len()];
        let tally = BitTally::new(&ks);
        MultidimAggregator {
            ks,
            counts,
            n_attr,
            num_sums,
            n: 0,
            spec,
            tally,
        }
    }

    /// Whether dimension `j` is a numeric `[-1, 1]` dimension (mixed
    /// solution only; always false elsewhere). Numeric dimensions estimate a
    /// single mean instead of a frequency vector and must not be projected
    /// onto the probability simplex.
    pub fn is_numeric_dim(&self, j: usize) -> bool {
        matches!(&self.spec, EstimatorSpec::Mixed { oracles, .. } if oracles[j].is_none())
    }

    /// Domain sizes `k_j`.
    pub fn ks(&self) -> &[usize] {
        &self.ks
    }

    /// Total number of absorbed reports.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Raw support counts per attribute.
    pub fn counts(&self) -> &[Vec<u64>] {
        &self.counts
    }

    /// Exact fixed-point report sums per dimension (non-zero only on the
    /// numeric dimensions of a mixed solution). Exposed so equivalence tests
    /// can assert bit-exact numeric aggregation, not just estimates.
    pub fn num_sums(&self) -> &[i128] {
        &self.num_sums
    }

    /// Absorbs any solution's report, walking its encoded words once — the
    /// walk [`MultidimAggregator::absorb_compact`] runs per report, with
    /// bit-vector entries counted bit by bit instead of through the batch
    /// tally. Bit-identical to absorbing the report in a batch.
    ///
    /// # Panics
    /// Panics when the report shape does not belong to the solution this
    /// aggregator was built for (e.g. an SMP report fed to an RS+FD
    /// aggregator).
    pub fn absorb(&mut self, report: &SolutionReport) {
        self.absorb_next(&mut Cursor::new(report.words()), &mut PerBit);
    }

    /// Absorbs one mixed categorical+numeric report: each disclosed
    /// dimension's entry is counted (categorical) or summed exactly in fixed
    /// point (numeric).
    pub fn absorb_mixed(&mut self, report: &MixedReport) {
        let EstimatorSpec::Mixed {
            oracles, sample_k, ..
        } = &self.spec
        else {
            panic!("absorb_mixed: this aggregator does not serve mixed reports");
        };
        assert_eq!(
            report.entries.len(),
            *sample_k,
            "mixed report must carry exactly sample_k entries"
        );
        self.n += 1;
        for (j, entry) in &report.entries {
            assert!(*j < self.ks.len(), "dimension index out of range");
            self.n_attr[*j] += 1;
            match entry {
                MixedEntry::Cat(rep) => {
                    let oracle = oracles[*j]
                        .as_ref()
                        .expect("categorical entry on a numeric dimension");
                    count_support(oracle, &mut self.counts[*j], rep);
                }
                MixedEntry::Num(y) => {
                    assert!(
                        oracles[*j].is_none(),
                        "numeric entry on a categorical dimension"
                    );
                    self.num_sums[*j] += y.raw() as i128;
                }
            }
        }
    }

    /// Absorbs one SPL report: one sanitized value per attribute.
    pub fn absorb_full(&mut self, reports: &[Report]) {
        let EstimatorSpec::Spl { oracles } = &self.spec else {
            panic!("absorb_full: this aggregator does not serve SPL reports");
        };
        debug_assert_eq!(reports.len(), self.ks.len(), "tuple width mismatch");
        self.n += 1;
        for ((counts, oracle), report) in self.counts.iter_mut().zip(oracles).zip(reports) {
            count_support(oracle, counts, report);
        }
    }

    /// Absorbs one SMP report: a disclosed attribute plus its ε-LDP report.
    pub fn absorb_smp(&mut self, report: &SmpReport) {
        let EstimatorSpec::Smp { oracles } = &self.spec else {
            panic!("absorb_smp: this aggregator does not serve SMP reports");
        };
        assert!(report.attr < self.ks.len(), "attribute index out of range");
        self.n += 1;
        self.n_attr[report.attr] += 1;
        count_support(
            &oracles[report.attr],
            &mut self.counts[report.attr],
            &report.report,
        );
    }

    /// Absorbs a whole [`CompactBatch`](super::CompactBatch) by counting
    /// support directly from the encoded words — no report is ever
    /// rematerialized and nothing is allocated. Bit-identical to absorbing
    /// each report through [`MultidimAggregator::absorb`]; this is the
    /// ingestion service's per-message hot path, amortizing the shape
    /// dispatch across the batch.
    ///
    /// Bit-vector (UE) entries are counted word-parallel: each 64-lane word
    /// is added into byte-wide lane counters, which are flushed into the
    /// exact `u64` counts every 255 entries per attribute and once more
    /// before this returns. Batches without bit-vector entries never touch
    /// those counters.
    ///
    /// # Panics
    /// Panics when a batch entry's shape does not belong to the solution
    /// this aggregator was built for, mirroring
    /// [`MultidimAggregator::absorb`].
    pub fn absorb_compact(&mut self, batch: &super::CompactBatch) {
        // The walk borrows the counts mutably; the tally leaves `self` for
        // the batch and comes back flushed (all-zero).
        let mut tally = std::mem::take(&mut self.tally);
        let mut cursor = batch.cursor();
        while !cursor.done() {
            self.absorb_next(&mut cursor, &mut tally);
        }
        tally.flush(&mut self.counts);
        self.tally = tally;
    }

    /// Counts the report at `cursor` and advances past it, sending
    /// bit-vector entries to `bits`.
    #[inline]
    fn absorb_next(&mut self, cursor: &mut Cursor, bits: &mut impl BitSink) {
        let (kind, a, _sampled) = cursor.solution_header();
        match (kind, &self.spec) {
            (KIND_FULL, EstimatorSpec::Spl { oracles }) => {
                // Hard assert: a width mismatch would desync the cursor.
                assert_eq!(a, self.ks.len(), "tuple width mismatch");
                self.n += 1;
                for (j, (counts, oracle)) in self.counts.iter_mut().zip(oracles).enumerate() {
                    // SPL[UE] entries have fixed headers: feed their words
                    // straight to the bit sink.
                    match cursor.bits_entry(counts.len()) {
                        Some(words) => bits.add(counts, j, words),
                        None => count_entry(counts, Some(oracle), j, cursor, bits),
                    }
                }
            }
            (KIND_SMP, EstimatorSpec::Smp { oracles }) => {
                assert!(a < self.ks.len(), "attribute index out of range");
                self.n += 1;
                self.n_attr[a] += 1;
                count_entry(&mut self.counts[a], Some(&oracles[a]), a, cursor, bits);
            }
            (KIND_TUPLE, EstimatorSpec::RsFd { .. } | EstimatorSpec::RsRfd { .. }) => {
                // Hard assert: a width mismatch would desync the cursor.
                assert_eq!(a, self.ks.len(), "tuple width mismatch");
                self.n += 1;
                for (j, counts) in self.counts.iter_mut().enumerate() {
                    count_entry(counts, None, j, cursor, bits);
                }
            }
            (KIND_MIXED, EstimatorSpec::Mixed { oracles, .. }) => {
                // `a` = number of entries; validated against sample_k by
                // `CompactBatch::validate_for`.
                self.n += 1;
                for _ in 0..a {
                    let dim_word = cursor.next();
                    let subtag = dim_word & 0b11;
                    let j = (dim_word >> 2) as usize;
                    assert!(j < self.ks.len(), "dimension index out of range");
                    self.n_attr[j] += 1;
                    match subtag {
                        SUBTAG_CAT => {
                            let oracle = oracles[j]
                                .as_ref()
                                .expect("categorical entry on a numeric dimension");
                            count_entry(&mut self.counts[j], Some(oracle), j, cursor, bits);
                        }
                        SUBTAG_NUM => {
                            assert!(
                                oracles[j].is_none(),
                                "numeric entry on a categorical dimension"
                            );
                            self.num_sums[j] += (cursor.next() as i64) as i128;
                        }
                        other => panic!("absorb: invalid mixed subtag {other}"),
                    }
                }
            }
            (kind, _) => {
                panic!("absorb: report kind {kind} does not match this aggregator's solution")
            }
        }
    }

    /// Absorbs one RS+FD / RS+RFD full tuple, one entry per attribute.
    pub fn absorb_tuple(&mut self, values: &[Report]) {
        match &self.spec {
            EstimatorSpec::RsFd { .. } | EstimatorSpec::RsRfd { .. } => {}
            _ => panic!("absorb_tuple: this aggregator does not serve fake-data tuples"),
        }
        debug_assert_eq!(values.len(), self.ks.len(), "tuple width mismatch");
        self.n += 1;
        for (j, rep) in values.iter().enumerate() {
            count_fake_data_entry(&mut self.counts[j], j, rep);
        }
    }

    /// Folds another shard's counts into this one. Exact: merging and then
    /// estimating is bit-identical to absorbing every report sequentially.
    ///
    /// # Panics
    /// Panics when the shards were built for different solutions or
    /// configurations.
    pub fn merge(&mut self, other: &MultidimAggregator) {
        assert!(
            self.ks == other.ks && self.spec.same_config(&other.spec),
            "cannot merge aggregators with different solution configurations"
        );
        self.n += other.n;
        for (a, b) in self.n_attr.iter_mut().zip(&other.n_attr) {
            *a += b;
        }
        for (a, b) in self.num_sums.iter_mut().zip(&other.num_sums) {
            *a += b;
        }
        for (ca, cb) in self.counts.iter_mut().zip(&other.counts) {
            for (a, b) in ca.iter_mut().zip(cb) {
                *a += b;
            }
        }
    }

    /// Unbiased frequency estimates for every attribute, using the owning
    /// solution's estimator. Attributes without any contributing report
    /// estimate all-zeros.
    pub fn estimate(&self) -> Vec<Vec<f64>> {
        // Per-attribute Eq. (2) shared by SPL (n = every report) and SMP
        // (n = the attribute's own n_j).
        let eq2 = |oracles: &[Oracle], n_of: &dyn Fn(usize) -> u64| -> Vec<Vec<f64>> {
            self.counts
                .iter()
                .enumerate()
                .map(|(j, cj)| {
                    let nj = n_of(j);
                    if nj == 0 {
                        return vec![0.0; cj.len()];
                    }
                    let n = nj as f64;
                    let p = oracles[j].est_p();
                    let q = oracles[j].est_q();
                    let denom = p - q;
                    cj.iter().map(|&c| (c as f64 / n - q) / denom).collect()
                })
                .collect()
        };
        match &self.spec {
            EstimatorSpec::Spl { oracles } => eq2(oracles, &|_| self.n),
            EstimatorSpec::Smp { oracles } => eq2(oracles, &|j| self.n_attr[j]),
            EstimatorSpec::Mixed { oracles, .. } => self
                .counts
                .iter()
                .enumerate()
                .map(|(j, cj)| {
                    let nj = self.n_attr[j];
                    match &oracles[j] {
                        // Numeric dimension: the mean of unbiased per-report
                        // values, computed from the exact fixed-point sum.
                        // Length-1 row = a single mean, not a frequency
                        // vector.
                        None => {
                            if nj == 0 {
                                return vec![0.0];
                            }
                            vec![self.num_sums[j] as f64 / NUMERIC_SCALE as f64 / nj as f64]
                        }
                        // Categorical dimension: Eq. (2) over its own n_j.
                        Some(oracle) => {
                            if nj == 0 {
                                return vec![0.0; cj.len()];
                            }
                            let n = nj as f64;
                            let p = oracle.est_p();
                            let q = oracle.est_q();
                            let denom = p - q;
                            cj.iter().map(|&c| (c as f64 / n - q) / denom).collect()
                        }
                    }
                })
                .collect(),
            EstimatorSpec::RsFd { protocol, pqs } => {
                let n = self.n as f64;
                let d = self.ks.len() as f64;
                self.counts
                    .iter()
                    .enumerate()
                    .map(|(j, cj)| {
                        let k = self.ks[j] as f64;
                        let (p, q) = pqs[j];
                        cj.iter()
                            .map(|&c| {
                                let c = c as f64;
                                if n == 0.0 {
                                    return 0.0;
                                }
                                match protocol {
                                    // f̂ = (C·d·k − n(qk + d − 1)) / (n·k·(p − q))
                                    RsFdProtocol::Grr => {
                                        (c * d * k - n * (q * k + d - 1.0)) / (n * k * (p - q))
                                    }
                                    // f̂ = d(C − nq) / (n(p − q))
                                    RsFdProtocol::UeZ(_) => d * (c - n * q) / (n * (p - q)),
                                    // f̂ = (C·d·k − n(qk + (p−q)(d−1) + qk(d−1)))
                                    //     / (n·k·(p−q))
                                    RsFdProtocol::UeR(_) => {
                                        (c * d * k
                                            - n * (q * k + (p - q) * (d - 1.0) + q * k * (d - 1.0)))
                                            / (n * k * (p - q))
                                    }
                                }
                            })
                            .collect()
                    })
                    .collect()
            }
            EstimatorSpec::RsRfd {
                protocol,
                pqs,
                priors,
            } => {
                let n = self.n as f64;
                let d = self.ks.len() as f64;
                self.counts
                    .iter()
                    .enumerate()
                    .map(|(j, cj)| {
                        let (p, q) = pqs[j];
                        cj.iter()
                            .enumerate()
                            .map(|(v, &c)| {
                                if n == 0.0 {
                                    return 0.0;
                                }
                                let c = c as f64;
                                let prior = priors[j][v];
                                match protocol {
                                    // Eq. (6): f̂ = (dC − n(q + (d−1)f̃)) / (n(p−q)).
                                    RsRfdProtocol::Grr => {
                                        (d * c - n * (q + (d - 1.0) * prior)) / (n * (p - q))
                                    }
                                    // Eq. (7): f̂ = (dC − n(q + (p−q)(d−1)f̃ + q(d−1)))
                                    //              / (n(p−q)).
                                    RsRfdProtocol::UeR(_) => {
                                        (d * c
                                            - n * (q + (p - q) * (d - 1.0) * prior + q * (d - 1.0)))
                                            / (n * (p - q))
                                    }
                                }
                            })
                            .collect()
                    })
                    .collect()
            }
        }
    }

    /// [`MultidimAggregator::estimate`] projected onto the probability
    /// simplex per attribute. Numeric dimensions of a mixed solution are a
    /// mean in `[-1, 1]`, not a frequency vector, and pass through clamped
    /// instead of being projected.
    pub fn estimate_normalized(&self) -> Vec<Vec<f64>> {
        self.estimate()
            .iter()
            .enumerate()
            .map(|(j, e)| {
                if self.is_numeric_dim(j) {
                    e.iter().map(|&m| m.clamp(-1.0, 1.0)).collect()
                } else {
                    ldp_protocols::oracle::normalize_simplex(e)
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::super::{DynSolution, MultidimSolution, RsFd, RsFdProtocol, Smp, SolutionKind};
    use ldp_protocols::ProtocolKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sharded_merge_is_bit_identical_to_sequential() {
        let ks = [5usize, 3, 4];
        let rsfd = RsFd::new(RsFdProtocol::Grr, &ks, 1.5).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let reports: Vec<_> = (0..900)
            .map(|i| rsfd.report_encoded(&[i % 5, i % 3, i % 4].map(|v| v as u32), &mut rng))
            .collect();

        let mut sequential = rsfd.aggregator();
        for r in &reports {
            sequential.absorb(r);
        }
        let mut shards: Vec<_> = (0..4).map(|_| rsfd.aggregator()).collect();
        for (i, r) in reports.iter().enumerate() {
            shards[i % 4].absorb(r);
        }
        let mut merged = rsfd.aggregator();
        for s in &shards {
            merged.merge(s);
        }
        assert_eq!(sequential.n(), merged.n());
        assert_eq!(sequential.counts(), merged.counts());
        let a = sequential.estimate();
        let b = merged.estimate();
        for (ea, eb) in a.iter().flatten().zip(b.iter().flatten()) {
            assert_eq!(
                ea.to_bits(),
                eb.to_bits(),
                "estimates must be bit-identical"
            );
        }
    }

    #[test]
    fn smp_aggregator_tracks_per_attribute_n() {
        let smp = Smp::new(ProtocolKind::Grr, &[3, 4], 2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut agg = smp.aggregator();
        for _ in 0..100 {
            agg.absorb_smp(&smp.report_attr(&[1, 2], 0, &mut rng));
        }
        assert_eq!(agg.n(), 100);
        // Attribute 1 never sampled → all-zero estimate, no NaN.
        let est = agg.estimate();
        assert!(est[0].iter().all(|f| f.is_finite()));
        assert_eq!(est[1], vec![0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "different solution configurations")]
    fn merge_rejects_mismatched_solutions() {
        let rsfd = RsFd::new(RsFdProtocol::Grr, &[4, 3], 1.0).unwrap();
        let other = RsFd::new(RsFdProtocol::Grr, &[4, 3], 2.0).unwrap();
        let mut a = rsfd.aggregator();
        a.merge(&other.aggregator());
    }

    #[test]
    #[should_panic(expected = "does not serve SPL")]
    fn absorb_full_rejects_non_spl_aggregator() {
        let smp = Smp::new(ProtocolKind::Grr, &[3, 4], 2.0).unwrap();
        let mut agg = smp.aggregator();
        agg.absorb_full(&[]);
    }

    #[test]
    fn dyn_solution_report_feeds_its_own_aggregator() {
        let ks = vec![4usize, 3];
        let mut rng = StdRng::seed_from_u64(9);
        for kind in [
            SolutionKind::Spl(ProtocolKind::Grr),
            SolutionKind::Smp(ProtocolKind::Oue),
            SolutionKind::RsFd(RsFdProtocol::Grr),
            SolutionKind::RsRfd(super::super::RsRfdProtocol::Grr),
        ] {
            let solution = kind.build(&ks, 2.0).unwrap();
            let mut agg = solution.aggregator();
            for _ in 0..200 {
                agg.absorb(&solution.report(&[1, 2], &mut rng));
            }
            assert_eq!(agg.n(), 200, "{}", solution.name());
            let est = agg.estimate();
            assert_eq!(est.len(), 2);
            assert!(est.iter().flatten().all(|f| f.is_finite()));
        }
    }

    #[test]
    fn dyn_solution_clone_preserves_config() {
        let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
            .build(&[4, 3], 1.0)
            .unwrap();
        let clone: DynSolution = solution.clone();
        let mut a = solution.aggregator();
        a.merge(&clone.aggregator());
        assert_eq!(a.n(), 0);
    }
}
