//! One sanitized client message, born encoded.
//!
//! A [`SolutionReport`] *is* the word span a [`CompactBatch`] stores for one
//! report, in the wire format `solutions/compact.rs` documents, so a batch
//! push is one copy. Its words are written by the entry writer of
//! `solutions/layout.rs` (SPL\[UE\], RS+FD and RS+RFD straight from their
//! draws, into the words their layout gives) and read by that module's
//! entry parser: by the aggregator and the §3.3 attack without decoding,
//! and by the typed accessors, which decode the structured shapes.
//!
//! [`CompactBatch`]: super::CompactBatch

use ldp_protocols::Report;

use super::layout::{
    header_word, Cursor, Entries, KIND_FULL, KIND_MIXED, KIND_SMP, KIND_TUPLE, WELL_FORMED,
};
use super::mixed::{MixedEntry, MixedReport};
use super::smp::SmpReport;

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
        let header = header_word(KIND_FULL, reports.len(), 0);
        SolutionReport::encode(header, 1 + reports.len(), |entries| {
            reports.iter().for_each(|report| entries.push(report))
        })
    }

    /// An SMP report: the disclosed sampled attribute plus its ε-LDP entry.
    pub fn smp(report: &SmpReport) -> Self {
        let header = header_word(KIND_SMP, report.attr, 0);
        SolutionReport::encode(header, 2, |entries| entries.push(&report.report))
    }

    /// An RS+FD / RS+RFD report: a full fake-data tuple of one entry per
    /// attribute, whose hidden `sampled` attribute rides in the header's `b`
    /// bits.
    pub fn tuple(values: &[Report], sampled: usize) -> Self {
        let header = header_word(KIND_TUPLE, values.len(), sampled);
        SolutionReport::encode(header, 1 + values.len(), |entries| {
            values.iter().for_each(|value| entries.push(value))
        })
    }

    /// A mixed categorical+numeric report: `sample_k` disclosed dimensions,
    /// each with a frequency-oracle or a fixed-point numeric entry.
    pub fn mixed(report: &MixedReport) -> Self {
        let header = header_word(KIND_MIXED, report.entries.len(), 0);
        SolutionReport::encode(header, 1 + 2 * report.entries.len(), |entries| {
            for (j, entry) in &report.entries {
                entries.mixed(*j, entry);
            }
        })
    }

    /// The header word, then `fill`'s entries, in a buffer with room for
    /// `words`: a solution passes its layout's header and word count.
    pub(crate) fn encode(header: u64, words: usize, fill: impl FnOnce(&mut Entries)) -> Self {
        let mut buf = Vec::with_capacity(words);
        buf.push(header);
        fill(&mut Entries(&mut buf));
        SolutionReport { words: buf }
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
        (kind == KIND_FULL).then(|| (0..a).map(|_| next_report(&mut cursor)).collect())
    }

    /// The SMP attribute and entry, or `None` for another shape.
    pub fn to_smp(&self) -> Option<SmpReport> {
        let (mut cursor, kind, attr, _) = self.open();
        (kind == KIND_SMP).then(|| SmpReport {
            attr,
            report: next_report(&mut cursor),
        })
    }

    /// The fake-data tuple's entries, one per attribute, or `None` for
    /// another shape.
    pub fn to_tuple(&self) -> Option<Vec<Report>> {
        let (mut cursor, d) = self.tuple_entries()?;
        Some((0..d).map(|_| next_report(&mut cursor)).collect())
    }

    /// Entry `j` of a fake-data tuple, decoded alone, or `None` for another
    /// shape or `j ≥ d`.
    pub fn tuple_entry(&self, j: usize) -> Option<Report> {
        let (mut cursor, d) = self.tuple_entries()?;
        (j < d).then(|| {
            for _ in 0..j {
                cursor.entry().expect(WELL_FORMED);
            }
            next_report(&mut cursor)
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
                .map(|i| {
                    let (j, entry) = cursor.report_entry(kind, a, i).expect(WELL_FORMED);
                    (j, entry.decode())
                })
                .collect(),
        })
    }

    /// A cursor past the header, with the header's `(kind, a, b)`.
    fn open(&self) -> (Cursor<'_>, u64, usize, usize) {
        let mut cursor = Cursor::new(&self.words);
        let (kind, a, b) = cursor.header().expect(WELL_FORMED);
        (cursor, kind, a, b)
    }
}

/// The next categorical entry of well-formed words, as its report.
fn next_report(cursor: &mut Cursor) -> Report {
    match cursor.entry().expect(WELL_FORMED).decode() {
        MixedEntry::Cat(report) => report,
        MixedEntry::Num(_) => unreachable!("only a mixed report has numeric entries"),
    }
}
