//! One sanitized client message, born encoded.
//!
//! A [`SolutionReport`] *is* the word span a [`CompactBatch`] stores for one
//! report: the solution header, then its entries, in the wire format that
//! `solutions/compact.rs` documents. The constructors here are the only code that
//! writes entry words, so a batch push is one copy, aggregation walks the
//! words without decoding them, the SPL\[UE\] sanitizer writes each field
//! straight from its packed draw, and RS+FD and RS+RFD over GRR write each
//! value word straight from its draw, with no [`Report`] in between. The §3.3 attack reads a fake-data tuple's
//! entries from the words too; the typed accessors decode the structured
//! shapes back for the deniability guesses and the tests.
//!
//! [`CompactBatch`]: super::CompactBatch

use ldp_protocols::Report;

use super::compact::{
    Cursor, KIND_FULL, KIND_MIXED, KIND_SMP, KIND_TUPLE, SUBTAG_CAT, SUBTAG_NUM, TAG_BITS,
    TAG_HASHED, TAG_SUBSET, TAG_VALUE,
};
use super::mixed::{MixedEntry, MixedReport};
use super::smp::SmpReport;
use crate::numeric::NumericReport;

/// One sanitized client message, covering every solution's report shape,
/// held as its encoded words — well formed by construction.
///
/// Build one with [`SolutionReport::full`] (SPL), [`SolutionReport::smp`],
/// [`SolutionReport::tuple`] (RS+FD / RS+RFD) or [`SolutionReport::mixed`]
/// from the structured shapes, or get it from
/// [`DynSolution::report`](super::DynSolution::report). Read it back with
/// the matching `to_*` accessor, each `None` for a report of another shape.
///
/// A fake-data tuple's header keeps its hidden sampled attribute in process,
/// as ground truth for the §3.3 attack scoring: only
/// [`SolutionReport::hidden_attribute`] reads it, and outside tests only the
/// inference scenario calls that. The producer's wire path zeroes it
/// ([`CompactBatch::push_wire`](super::CompactBatch::push_wire)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolutionReport {
    words: Vec<u64>,
}

impl SolutionReport {
    /// An SPL report: one (ε/d)-LDP entry per attribute; nothing is hidden.
    pub fn full(reports: &[Report]) -> Self {
        let len = 1 + reports.iter().map(entry_len).sum::<usize>();
        SolutionReport::encode_full(reports.len(), len, |entries| {
            for report in reports {
                entries.push(report);
            }
        })
    }

    /// An SPL report of `d` entries written by `fill`, which must append
    /// exactly `d` entries making `len` words with the header.
    pub(crate) fn encode_full(d: usize, len: usize, fill: impl FnOnce(&mut Entries)) -> Self {
        SolutionReport::encode(KIND_FULL | (d as u64) << 2, len, fill)
    }

    /// An SMP report: the disclosed sampled attribute plus its ε-LDP entry.
    pub fn smp(report: &SmpReport) -> Self {
        let header = KIND_SMP | (report.attr as u64) << 2;
        SolutionReport::encode(header, 1 + entry_len(&report.report), |entries| {
            entries.push(&report.report)
        })
    }

    /// An RS+FD / RS+RFD report: a full fake-data tuple of one entry per
    /// attribute, whose hidden `sampled` attribute rides in the header's `b`
    /// bits.
    pub fn tuple(values: &[Report], sampled: usize) -> Self {
        let len = 1 + values.iter().map(entry_len).sum::<usize>();
        SolutionReport::encode_tuple(values.len(), sampled, len, |entries| {
            for value in values {
                entries.push(value);
            }
        })
    }

    /// A fake-data tuple of `d` entries hiding `sampled`, written by `fill`,
    /// which must append exactly `d` entries making `len` words with the
    /// header.
    pub(crate) fn encode_tuple(
        d: usize,
        sampled: usize,
        len: usize,
        fill: impl FnOnce(&mut Entries),
    ) -> Self {
        let header = KIND_TUPLE | (d as u64) << 2 | (sampled as u64) << 33;
        SolutionReport::encode(header, len, fill)
    }

    /// A mixed categorical+numeric report: `sample_k` disclosed dimensions,
    /// each with a frequency-oracle or a fixed-point numeric entry.
    pub fn mixed(report: &MixedReport) -> Self {
        let header = KIND_MIXED | (report.entries.len() as u64) << 2;
        let len = 1 + report
            .entries
            .iter()
            .map(|(_, entry)| match entry {
                MixedEntry::Cat(rep) => 1 + entry_len(rep),
                MixedEntry::Num(_) => 2,
            })
            .sum::<usize>();
        SolutionReport::encode(header, len, |entries| {
            for (j, entry) in &report.entries {
                match entry {
                    MixedEntry::Cat(rep) => {
                        entries.0.push(SUBTAG_CAT | (*j as u64) << 2);
                        entries.push(rep);
                    }
                    MixedEntry::Num(y) => {
                        entries.0.push(SUBTAG_NUM | (*j as u64) << 2);
                        entries.0.push(y.raw() as u64);
                    }
                }
            }
        })
    }

    /// The header word, then `fill`'s entries, into exactly `len` words.
    fn encode(header: u64, len: usize, fill: impl FnOnce(&mut Entries)) -> Self {
        let mut words = Vec::with_capacity(len);
        words.push(header);
        fill(&mut Entries(&mut words));
        debug_assert_eq!(words.len(), len, "report length mismatch");
        SolutionReport { words }
    }

    /// A copy of one report's span of a well-formed batch.
    pub(crate) fn from_span(words: &[u64]) -> Self {
        SolutionReport {
            words: words.to_vec(),
        }
    }

    /// The encoded words: the solution header, then the entries.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The SPL entries, one per attribute, or `None` for another shape.
    pub fn to_full(&self) -> Option<Vec<Report>> {
        let (mut cursor, kind, a, _) = self.open();
        (kind == KIND_FULL).then(|| (0..a).map(|_| cursor.decode_entry()).collect())
    }

    /// The SMP attribute and entry, or `None` for another shape.
    pub fn to_smp(&self) -> Option<SmpReport> {
        let (mut cursor, kind, attr, _) = self.open();
        (kind == KIND_SMP).then(|| SmpReport {
            attr,
            report: cursor.decode_entry(),
        })
    }

    /// The fake-data tuple's entries, one per attribute, or `None` for
    /// another shape.
    pub fn to_tuple(&self) -> Option<Vec<Report>> {
        let (mut cursor, d) = self.tuple_entries()?;
        Some((0..d).map(|_| cursor.decode_entry()).collect())
    }

    /// Entry `j` of a fake-data tuple, decoded alone, or `None` for another
    /// shape or `j ≥ d`.
    pub fn tuple_entry(&self, j: usize) -> Option<Report> {
        let (mut cursor, d) = self.tuple_entries()?;
        (j < d).then(|| {
            for _ in 0..j {
                cursor.skip_entry();
            }
            cursor.decode_entry()
        })
    }

    /// A fake-data tuple's hidden sampled attribute — the header's `b`
    /// bits — or `None` for another shape. In process this is the §3.3
    /// attack's ground truth, read only to score it; once a producer has
    /// concealed it for the wire it is zero.
    pub fn hidden_attribute(&self) -> Option<usize> {
        let (_, kind, _, b) = self.open();
        (kind == KIND_TUPLE).then_some(b)
    }

    /// A cursor past a fake-data tuple's header, with its width `d`, or
    /// `None` for another shape. The header's `b` bits are not read.
    pub(crate) fn tuple_entries(&self) -> Option<(Cursor<'_>, usize)> {
        let (cursor, kind, d, _) = self.open();
        (kind == KIND_TUPLE).then_some((cursor, d))
    }

    /// The mixed report's dimension-tagged entries, or `None` for another
    /// shape.
    pub fn to_mixed(&self) -> Option<MixedReport> {
        let (mut cursor, kind, a, _) = self.open();
        (kind == KIND_MIXED).then(|| MixedReport {
            entries: (0..a)
                .map(|_| {
                    let dim_word = cursor.next();
                    let j = (dim_word >> 2) as usize;
                    match dim_word & 0b11 {
                        SUBTAG_CAT => (j, MixedEntry::Cat(cursor.decode_entry())),
                        SUBTAG_NUM => (
                            j,
                            MixedEntry::Num(NumericReport::from_raw(cursor.next() as i64)),
                        ),
                        other => unreachable!("corrupt mixed subtag {other}"),
                    }
                })
                .collect(),
        })
    }

    /// A cursor past the header, with the header's `(kind, a, b)`.
    fn open(&self) -> (Cursor<'_>, u64, usize, usize) {
        let mut cursor = Cursor::new(&self.words);
        let (kind, a, b) = cursor.solution_header();
        (cursor, kind, a, b)
    }
}

/// Appends encoded entries to a report's words.
pub(crate) struct Entries<'a>(&'a mut Vec<u64>);

impl Entries<'_> {
    /// Appends one entry in the shape of `report`.
    pub(crate) fn push(&mut self, report: &Report) {
        let words = &mut *self.0;
        match report {
            Report::Value(v) => self.value(*v),
            Report::Hashed { seed, g, value } => {
                words.push(TAG_HASHED);
                words.push(*seed);
                words.push(u64::from(*g) | u64::from(*value) << 32);
            }
            Report::Subset(subset) => {
                words.push(TAG_SUBSET | (subset.len() as u64) << 2);
                for pair in subset.chunks(2) {
                    let hi = pair.get(1).copied().unwrap_or(0);
                    words.push(u64::from(pair[0]) | u64::from(hi) << 32);
                }
            }
            Report::Bits(bits) => self.bits(bits.len(), bits.blocks()),
        }
    }

    /// Appends a value entry: one word, as a [`Report::Value`] of `v`.
    #[inline]
    pub(crate) fn value(&mut self, v: u32) {
        self.0.push(TAG_VALUE | u64::from(v) << 2);
    }

    /// Appends a `k`-lane bit-vector entry from its `⌈k/64⌉` blocks, whose
    /// lanes past `k` must be zero.
    #[inline]
    pub(crate) fn bits(&mut self, k: usize, blocks: &[u64]) {
        debug_assert_eq!(blocks.len(), k.div_ceil(64), "block count mismatch");
        self.0.push(TAG_BITS | (k as u64) << 2);
        // One or two words per field: pushing them beats a memcpy call.
        for &block in blocks {
            self.0.push(block);
        }
    }
}

/// Words a report over domains `ks` takes when every entry is a value
/// (`unary = false`) or a `k_j`-lane bit vector (`unary = true`).
pub(crate) fn fixed_shape_words(ks: &[usize], unary: bool) -> usize {
    if unary {
        1 + ks.iter().map(|k| 1 + k.div_ceil(64)).sum::<usize>()
    } else {
        1 + ks.len()
    }
}

/// Words one entry in the shape of `report` takes.
fn entry_len(report: &Report) -> usize {
    match report {
        Report::Value(_) => 1,
        Report::Hashed { .. } => 3,
        Report::Subset(subset) => 1 + subset.len().div_ceil(2),
        Report::Bits(bits) => 1 + bits.len().div_ceil(64),
    }
}
