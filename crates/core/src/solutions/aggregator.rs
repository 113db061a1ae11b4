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

use std::sync::Arc;

use ldp_protocols::oracle::{count_support, estimate_eq2};
use ldp_protocols::{FrequencyOracle, Report};

use crate::numeric::NUMERIC_SCALE;

use super::layout::{Cursor, Entry, Field, KIND_MIXED, KIND_SMP, WELL_FORMED};
use super::mixed::{MixedEntry, MixedReport};
use super::rsfd::RsFdProtocol;
use super::rsrfd::RsRfdProtocol;
use super::smp::SmpReport;
use super::tally::{BitSink, BitTally, PerBit};
use super::{DynSolution, SolutionReport};

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

/// Counts one encoded entry of attribute `j` into `counts`: the encoded
/// twin of `ldp_protocols::oracle::count_support` (for SPL, SMP and mixed
/// entries, whose solution has an oracle for `j`) and of
/// [`count_fake_data_entry`] (for tuple entries, which never carry hashed
/// or subset shapes). Identical counting semantics, including the
/// debug-assert rejection of out-of-domain entries and the release-mode
/// skip of stray ones.
///
/// A bit-vector entry's words go whole to `bits`: a batch's byte-lane
/// tally, which the caller flushes into `counts` before the batch is done,
/// or a single report's direct per-bit count.
fn count_entry(
    counts: &mut [u64],
    solution: &DynSolution,
    j: usize,
    entry: Entry,
    bits: &mut impl BitSink,
) {
    match entry {
        Entry::Value(v) => count_value(counts, j, v),
        Entry::Bits { k, blocks } => {
            debug_assert_eq!(k, counts.len(), "attr {j}: bit-vector width is not k_j");
            bits.add(counts, j, blocks);
        }
        // Per-report dispatch into the oracle's tightest domain sweep
        // (monomorphized for OLH). A fake-data tuple entry of this shape or
        // the next is malformed: rejected loudly in tests, skipped in
        // release, as `count_fake_data_entry` does.
        Entry::Hashed { seed, g, value } => match solution.oracle(j) {
            Some(oracle) => oracle.count_hashed(counts, &Report::Hashed { seed, g, value }),
            None => debug_assert!(false, "attr {j}: unexpected hashed entry in a tuple"),
        },
        Entry::Subset { .. } => match solution.oracle(j) {
            Some(_) => entry
                .members()
                .for_each(|m| count_value(counts, j, m.into())),
            None => debug_assert!(false, "attr {j}: unexpected subset entry in a tuple"),
        },
        Entry::Numeric(_) => unreachable!("numeric entries are summed, not counted"),
    }
}

/// Counts value `v` of attribute `j`, which must lie in its domain.
fn count_value(counts: &mut [u64], j: usize, v: u64) {
    debug_assert!(
        (v as usize) < counts.len(),
        "attr {j}: report value {v} outside domain of size {}",
        counts.len()
    );
    if let Some(c) = counts.get_mut(v as usize) {
        *c += 1;
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
    /// The solution this aggregator estimates for: every estimator
    /// parameter is read from it. Shards, snapshots and epochs built from
    /// one aggregator share the handle, so cloning one copies counts only.
    solution: Arc<DynSolution>,
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
    /// Byte-lane counters `absorb_compact` adds bit-vector entries into;
    /// flushed into `counts` before it returns, so all-zero between calls.
    tally: BitTally,
}

impl MultidimAggregator {
    /// An empty aggregator holding `solution`: the one constructor, behind
    /// every solution's `aggregator()`.
    pub(crate) fn new(solution: DynSolution) -> Self {
        let solution = Arc::new(solution);
        let ks = solution.ks();
        MultidimAggregator {
            counts: ks.iter().map(|&k| vec![0u64; k]).collect(),
            n_attr: vec![0; ks.len()],
            num_sums: vec![0; ks.len()],
            n: 0,
            tally: BitTally::new(ks),
            solution,
        }
    }

    /// The solution this aggregator estimates for.
    pub fn solution(&self) -> &DynSolution {
        &self.solution
    }

    /// Whether dimension `j` is a numeric `[-1, 1]` dimension (mixed
    /// solution only; always false elsewhere). Numeric dimensions estimate a
    /// single mean instead of a frequency vector and must not be projected
    /// onto the probability simplex.
    pub fn is_numeric_dim(&self, j: usize) -> bool {
        matches!(&*self.solution, DynSolution::Mixed(m) if m.is_numeric(j))
    }

    /// Domain sizes `k_j`.
    pub fn ks(&self) -> &[usize] {
        self.solution.ks()
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
        let DynSolution::Mixed(mixed) = &*self.solution else {
            panic!("absorb_mixed: this aggregator does not serve mixed reports");
        };
        assert_eq!(
            report.entries.len(),
            mixed.mixed_kind().sample_k,
            "mixed report must carry exactly sample_k entries"
        );
        self.n += 1;
        for (j, entry) in &report.entries {
            assert!(*j < mixed.d(), "dimension index out of range");
            self.n_attr[*j] += 1;
            match entry {
                MixedEntry::Cat(rep) => {
                    let oracle = mixed
                        .oracle(*j)
                        .expect("categorical entry on a numeric dimension");
                    count_support(oracle, &mut self.counts[*j], rep);
                }
                MixedEntry::Num(y) => {
                    assert!(
                        mixed.is_numeric(*j),
                        "numeric entry on a categorical dimension"
                    );
                    self.num_sums[*j] += y.raw() as i128;
                }
            }
        }
    }

    /// Absorbs one SPL report: one sanitized value per attribute.
    pub fn absorb_full(&mut self, reports: &[Report]) {
        let DynSolution::Spl(spl) = &*self.solution else {
            panic!("absorb_full: this aggregator does not serve SPL reports");
        };
        debug_assert_eq!(reports.len(), spl.d(), "tuple width mismatch");
        self.n += 1;
        for (j, (counts, report)) in self.counts.iter_mut().zip(reports).enumerate() {
            count_support(spl.oracle(j), counts, report);
        }
    }

    /// Absorbs one SMP report: a disclosed attribute plus its ε-LDP report.
    pub fn absorb_smp(&mut self, report: &SmpReport) {
        let DynSolution::Smp(smp) = &*self.solution else {
            panic!("absorb_smp: this aggregator does not serve SMP reports");
        };
        assert!(report.attr < smp.d(), "attribute index out of range");
        self.n += 1;
        self.n_attr[report.attr] += 1;
        count_support(
            smp.oracle(report.attr),
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

    /// Counts the report at `cursor` and advances past it, following the
    /// solution's layout; bit-vector entries go to `bits`.
    #[inline]
    fn absorb_next(&mut self, cursor: &mut Cursor, bits: &mut impl BitSink) {
        let solution = &*self.solution;
        let layout = solution.layout();
        let (kind, a, _sampled) = cursor.header().expect(WELL_FORMED);
        assert!(
            kind == layout.kind,
            "absorb: report kind {kind} does not match this aggregator's solution"
        );
        self.n += 1;
        match kind {
            KIND_SMP => {
                assert!(a < self.counts.len(), "attribute index out of range");
                self.n_attr[a] += 1;
                let entry = cursor.entry().expect(WELL_FORMED);
                count_entry(&mut self.counts[a], solution, a, entry, bits);
            }
            KIND_MIXED => {
                // `a` = number of entries; validated against sample_k by
                // `CompactBatch::validate_for_solution`.
                for i in 0..a {
                    let (j, entry) = cursor.report_entry(kind, a, i).expect(WELL_FORMED);
                    assert!(j < self.counts.len(), "dimension index out of range");
                    self.n_attr[j] += 1;
                    let numeric = matches!(layout.fields[j], Field::Numeric { .. });
                    match entry {
                        Entry::Numeric(raw) if numeric => self.num_sums[j] += i128::from(raw),
                        Entry::Numeric(_) => panic!("numeric entry on a categorical dimension"),
                        _ if numeric => panic!("categorical entry on a numeric dimension"),
                        entry => count_entry(&mut self.counts[j], solution, j, entry, bits),
                    }
                }
            }
            _ => {
                // Hard assert: a width mismatch would desync the cursor.
                assert_eq!(a, self.counts.len(), "tuple width mismatch");
                // The layout's compiled reads skip the tag dispatch: a value
                // layout's words at one tag compare, a bit vector of `k_j`
                // lanes at one compare against its fixed header.
                let values = layout.values_only();
                for (j, counts) in self.counts.iter_mut().enumerate() {
                    if values {
                        if let Some(v) = cursor.value_entry() {
                            count_value(counts, j, v);
                            continue;
                        }
                    } else if let Some(blocks) = cursor.bits_entry(counts.len()) {
                        bits.add(counts, j, blocks);
                        continue;
                    }
                    let entry = cursor.entry().expect(WELL_FORMED);
                    count_entry(counts, solution, j, entry, bits);
                }
            }
        }
    }

    /// Absorbs one RS+FD / RS+RFD full tuple, one entry per attribute.
    pub fn absorb_tuple(&mut self, values: &[Report]) {
        match &*self.solution {
            DynSolution::RsFd(_) | DynSolution::RsRfd(_) => {}
            _ => panic!("absorb_tuple: this aggregator does not serve fake-data tuples"),
        }
        debug_assert_eq!(values.len(), self.counts.len(), "tuple width mismatch");
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
    /// configurations (see [`DynSolution::fingerprint`] for what makes two
    /// solutions the same).
    pub fn merge(&mut self, other: &MultidimAggregator) {
        assert!(
            Arc::ptr_eq(&self.solution, &other.solution)
                || self.solution.identity() == other.solution.identity(),
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

    /// Unbiased frequency estimates for every attribute, using the
    /// solution's estimator: Eq. (2) per attribute for SPL (over every
    /// report) and SMP (over the attribute's own `n_j`), the §2.3.2
    /// estimators for RS+FD, Eqs. (6)–(7) for RS+RFD, and for a mixed
    /// solution Eq. (2) or the exact fixed-point mean per dimension over its
    /// own `n_j`. Attributes without any contributing report estimate
    /// all-zeros.
    pub fn estimate(&self) -> Vec<Vec<f64>> {
        let counts = self.counts.iter().enumerate();
        match &*self.solution {
            DynSolution::Spl(s) => counts
                .map(|(j, cj)| estimate_eq2(s.oracle(j), cj, self.n))
                .collect(),
            DynSolution::Smp(s) => counts
                .map(|(j, cj)| estimate_eq2(s.oracle(j), cj, self.n_attr[j]))
                .collect(),
            DynSolution::Mixed(s) => counts
                .map(|(j, cj)| {
                    let nj = self.n_attr[j];
                    match s.oracle(j) {
                        Some(oracle) => estimate_eq2(oracle, cj, nj),
                        // Numeric dimension: the mean of unbiased per-report
                        // values, computed from the exact fixed-point sum.
                        // Length-1 row = a single mean, not a frequency
                        // vector.
                        None if nj == 0 => vec![0.0],
                        None => vec![self.num_sums[j] as f64 / NUMERIC_SCALE as f64 / nj as f64],
                    }
                })
                .collect(),
            DynSolution::RsFd(s) => {
                let (n, d) = (self.n as f64, self.counts.len() as f64);
                self.fake_data_estimate(|j, _, c| {
                    let k = self.counts[j].len() as f64;
                    let (p, q) = s.pq(j);
                    match s.protocol() {
                        // f̂ = (C·d·k − n(qk + d − 1)) / (n·k·(p − q))
                        RsFdProtocol::Grr => {
                            (c * d * k - n * (q * k + d - 1.0)) / (n * k * (p - q))
                        }
                        // f̂ = d(C − nq) / (n(p − q))
                        RsFdProtocol::UeZ(_) => d * (c - n * q) / (n * (p - q)),
                        // f̂ = (C·d·k − n(qk + (p−q)(d−1) + qk(d−1)))
                        //     / (n·k·(p−q))
                        RsFdProtocol::UeR(_) => {
                            (c * d * k - n * (q * k + (p - q) * (d - 1.0) + q * k * (d - 1.0)))
                                / (n * k * (p - q))
                        }
                    }
                })
            }
            DynSolution::RsRfd(s) => {
                let (n, d) = (self.n as f64, self.counts.len() as f64);
                self.fake_data_estimate(|j, v, c| {
                    let (p, q) = s.pq(j);
                    let prior = s.priors()[j][v];
                    match s.protocol() {
                        // Eq. (6): f̂ = (dC − n(q + (d−1)f̃)) / (n(p−q)).
                        RsRfdProtocol::Grr => (d * c - n * (q + (d - 1.0) * prior)) / (n * (p - q)),
                        // Eq. (7): f̂ = (dC − n(q + (p−q)(d−1)f̃ + q(d−1)))
                        //              / (n(p−q)).
                        RsRfdProtocol::UeR(_) => {
                            (d * c - n * (q + (p - q) * (d - 1.0) * prior + q * (d - 1.0)))
                                / (n * (p - q))
                        }
                    }
                })
            }
        }
    }

    /// The fake-data solutions' estimates: `estimate(j, v, C_j(v))` per
    /// attribute value, all-zeros before the first report.
    fn fake_data_estimate(&self, estimate: impl Fn(usize, usize, f64) -> f64) -> Vec<Vec<f64>> {
        self.counts
            .iter()
            .enumerate()
            .map(|(j, cj)| {
                cj.iter()
                    .enumerate()
                    .map(|(v, &c)| {
                        if self.n == 0 {
                            0.0
                        } else {
                            estimate(j, v, c as f64)
                        }
                    })
                    .collect()
            })
            .collect()
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
    use super::super::{
        DynSolution, MixedKind, MultidimSolution, RsFd, RsFdProtocol, RsRfdProtocol, Smp,
        SolutionKind, NUMERIC_DIM,
    };
    use crate::numeric::NumericKind;
    use ldp_protocols::{ProtocolKind, UeMode};
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

    /// Solution pairs that differ in exactly one identity parameter.
    fn one_parameter_apart() -> Vec<(&'static str, DynSolution, DynSolution)> {
        let build = |kind: SolutionKind, ks: &[usize], epsilon| kind.build(ks, epsilon).unwrap();
        let rsrfd = |prior0: [f64; 4]| {
            SolutionKind::RsRfd(RsRfdProtocol::Grr)
                .build_with_priors(&[4, 3], 1.0, vec![prior0.to_vec(), vec![0.5, 0.3, 0.2]])
                .unwrap()
        };
        let mixed = |numeric, sample_k| {
            let kind = MixedKind {
                protocol: ProtocolKind::Grr,
                numeric,
                sample_k,
            };
            build(SolutionKind::Mixed(kind), &[4, NUMERIC_DIM, 3], 1.0)
        };
        let rsfd = SolutionKind::RsFd(RsFdProtocol::Grr);
        vec![
            (
                "epsilon",
                build(rsfd, &[4, 3], 1.0),
                build(rsfd, &[4, 3], 2.0),
            ),
            ("ks", build(rsfd, &[4, 3], 1.0), build(rsfd, &[4, 5], 1.0)),
            (
                "SPL vs SMP",
                build(SolutionKind::Spl(ProtocolKind::Grr), &[4, 3], 1.0),
                build(SolutionKind::Smp(ProtocolKind::Grr), &[4, 3], 1.0),
            ),
            (
                "SUE vs OUE",
                build(SolutionKind::Smp(ProtocolKind::Sue), &[4, 3], 1.0),
                build(SolutionKind::Smp(ProtocolKind::Oue), &[4, 3], 1.0),
            ),
            (
                "UE-z vs UE-r",
                build(
                    SolutionKind::RsFd(RsFdProtocol::UeZ(UeMode::Optimized)),
                    &[4, 3],
                    1.0,
                ),
                build(
                    SolutionKind::RsFd(RsFdProtocol::UeR(UeMode::Optimized)),
                    &[4, 3],
                    1.0,
                ),
            ),
            (
                "RS+RFD priors",
                rsrfd([0.4, 0.3, 0.2, 0.1]),
                rsrfd([0.25, 0.25, 0.25, 0.25]),
            ),
            (
                "numeric mechanism",
                mixed(NumericKind::Piecewise, 2),
                mixed(NumericKind::Duchi, 2),
            ),
            (
                "sample_k",
                mixed(NumericKind::Piecewise, 2),
                mixed(NumericKind::Piecewise, 1),
            ),
        ]
    }

    #[test]
    fn merge_rejects_mismatched_solutions() {
        for (what, a, b) in one_parameter_apart() {
            let merge = std::panic::catch_unwind(|| a.aggregator().merge(&b.aggregator()));
            let payload = merge.expect_err(what);
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or_default();
            assert!(
                message.contains("different solution configurations"),
                "{what}: {message}"
            );
        }
    }

    #[test]
    fn separately_built_equal_solutions_merge() {
        let mut rng = StdRng::seed_from_u64(4);
        for (what, a, _) in one_parameter_apart() {
            // Same parameters, separate handles: the merge compares
            // identities, not pointers.
            let twin = match &a {
                DynSolution::RsRfd(s) => SolutionKind::RsRfd(s.protocol())
                    .build_with_priors(s.ks(), s.epsilon(), s.priors().to_vec())
                    .unwrap(),
                _ => a.kind().build(a.ks(), a.epsilon()).unwrap(),
            };
            let mut agg = twin.aggregator();
            let num: &[f64] = if matches!(a, DynSolution::Mixed(_)) {
                &[0.5]
            } else {
                &[]
            };
            let report = a.report_mixed(&[1, 2], num, &mut rng).unwrap();
            let mut other = a.aggregator();
            other.absorb(&report);
            agg.merge(&other);
            assert_eq!(agg.counts(), other.counts(), "{what}");
        }
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
