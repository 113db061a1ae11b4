//! The entry grammar in code. A [`Layout`], built once with its solution,
//! says what every report of that solution carries: the header's rules and,
//! per attribute, the [`Field`] its protocol fills. The word format is
//! specified in the "Wire format" block of `compact.rs`.
//!
//! Every reader and writer of report words goes through this module:
//! [`Entries`] writes entries, [`Cursor::entry`] is the one entry parser,
//! and [`walk`] checks a batch, applying a layout's rules when given a
//! solution. The fast paths are compiled forms of a layout: the per-word
//! template of a value-entry layout ([`Layout::template_accepts`]), and the
//! counter's reads of a value or bit-vector field's entries at one compare
//! ([`Cursor::value_entry`], [`Cursor::bits_entry`]).

use std::ops::RangeInclusive;

use ldp_protocols::{BitVec, FrequencyOracle, Oracle, Report};

use super::compact::CompactDecodeError;
use super::kind::DynSolution;
use super::mixed::MixedEntry;
use crate::numeric::{NumericReport, NUMERIC_SCALE};

pub(super) const KIND_FULL: u64 = 0;
pub(super) const KIND_SMP: u64 = 1;
pub(super) const KIND_TUPLE: u64 = 2;
pub(super) const KIND_MIXED: u64 = 3;
/// A solution header's `b` bits (33..64): reserved, zero on the wire.
pub(super) const HEADER_B: u64 = !0 << 33;
const SUBTAG_CAT: u64 = 0;
const SUBTAG_NUM: u64 = 1;
const TAG_VALUE: u64 = 0;
const TAG_HASHED: u64 = 1;
const TAG_SUBSET: u64 = 2;
pub(super) const TAG_BITS: u64 = 3;

/// A solution header: `kind | a << 2 | b << 33`.
pub(super) fn header_word(kind: u64, a: usize, b: usize) -> u64 {
    kind | (a as u64) << 2 | (b as u64) << 33
}

/// The `expect` message of a reader of words known to be well formed.
pub(super) const WELL_FORMED: &str = "a well-formed report";

/// What one attribute's entries carry: the shape its protocol emits and
/// that shape's domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Field {
    /// GRR: one value word, `v < k`.
    Value { k: usize },
    /// UE: a header, then the `⌈k/64⌉` blocks of a `k`-lane bit vector.
    Bits { k: usize },
    /// OLH: a header, the seed, then `g | value << 32`: the oracle's hash
    /// range `g`, and `value < g`.
    Hashed { g: u32 },
    /// SS: a header, then `⌈ω/2⌉` words of two members each: exactly `ω`
    /// strictly ascending members `< k`, as the oracle draws them.
    Subset { k: usize, omega: usize },
    /// A mixed solution's numeric dimension: one fixed-point word of
    /// magnitude at most `bound`.
    Numeric { bound: u64 },
}

impl Field {
    /// The field a frequency oracle's reports fill.
    pub(crate) fn of(oracle: &Oracle) -> Field {
        let k = oracle.domain_size();
        match oracle {
            Oracle::Grr(_) => Field::Value { k },
            Oracle::Olh(o) => Field::Hashed { g: o.g() },
            Oracle::Ss(o) => Field::Subset {
                k,
                omega: o.omega(),
            },
            Oracle::Ue(_) => Field::Bits { k },
        }
    }

    /// A fake-data tuple's field over a domain of `k`: RS+FD and RS+RFD
    /// send GRR values, or UE bit vectors when `unary`.
    pub(crate) fn fake_data(k: usize, unary: bool) -> Field {
        if unary {
            Field::Bits { k }
        } else {
            Field::Value { k }
        }
    }

    /// A numeric dimension whose mechanism reports all lie in `[-c, c]`
    /// (Duchi, PM and HM do), with one rounding step of slack. The bound is
    /// a `u64`, so the check never needs `i64::abs`, which `i64::MIN` (a
    /// forgeable wire value) would overflow; the cast saturates.
    pub(crate) fn numeric(c: f64) -> Field {
        let bound = ((c * NUMERIC_SCALE as f64).round() as u64).saturating_add(1);
        Field::Numeric { bound }
    }

    /// Words one entry of this field takes, without a mixed entry's
    /// dimension word.
    pub(crate) fn words(self) -> usize {
        match self {
            Field::Value { .. } | Field::Numeric { .. } => 1,
            Field::Bits { k } => 1 + k.div_ceil(64),
            Field::Hashed { .. } => 3,
            Field::Subset { omega, .. } => 1 + omega.div_ceil(2),
        }
    }

    /// Checks an entry of attribute `j`: the shape its protocol emits, then
    /// that shape's domain.
    fn check(self, j: usize, entry: Entry) -> Result<(), CompactDecodeError> {
        let fault = match (self, entry) {
            (Field::Value { k }, Entry::Value(v)) => {
                (v >= k as u64).then(|| format!("value {v} outside domain of size {k}"))
            }
            (Field::Bits { k }, Entry::Bits { k: width, .. }) => (width != k)
                .then(|| format!("bit-vector width {width} does not match domain size {k}")),
            (Field::Hashed { g: want }, Entry::Hashed { g, value, .. }) => {
                (g != want || value >= g).then(|| {
                    format!("hashed report value {value} in g = {g}; the oracle hashes into {want}")
                })
            }
            (Field::Subset { omega, .. }, Entry::Subset { len, .. }) if len != omega => Some(
                format!("subset of {len} members where the protocol sends {omega}"),
            ),
            (Field::Subset { k, .. }, Entry::Subset { .. }) => {
                let mut prev = None;
                let bad = entry
                    .members()
                    .find(|&m| m as usize >= k || prev.replace(m) >= Some(m));
                bad.map(|m| format!("subset member {m} is not strictly ascending below {k}"))
            }
            (Field::Numeric { bound }, Entry::Numeric(raw)) => (raw.unsigned_abs() > bound)
                .then(|| format!("numeric report {raw} exceeds the mechanism bound {bound}")),
            (field, entry) => Some(format!(
                "{} entry where the protocol emits {field:?}",
                entry.name()
            )),
        };
        fault.map_or(Ok(()), |f| {
            Err(CompactDecodeError::Domain(format!("attr {j}: {f}")))
        })
    }
}

/// What every report of one solution carries: the header's rules and one
/// [`Field`] per attribute. Reached through [`DynSolution::layout`].
#[derive(Debug, Clone)]
pub(crate) struct Layout {
    /// The header kind of every report.
    pub(super) kind: u64,
    /// The header's `a`: the entry count, or the disclosed SMP attribute.
    a: RangeInclusive<usize>,
    /// The largest header `b`: `d - 1` for a tuple, 0 for a mixed report,
    /// unchecked for SPL and SMP.
    b_max: usize,
    /// The field of each attribute.
    pub(super) fields: Vec<Field>,
    /// Words of a report of every field once: each SPL, RS+FD and RS+RFD
    /// report.
    pub(super) words: usize,
    /// The layout compiled to one rule per word (see [`Layout::compile`]).
    template: Option<Vec<Rule>>,
}

impl Layout {
    /// SPL: one entry per attribute.
    pub(crate) fn full(fields: Vec<Field>) -> Layout {
        let d = fields.len();
        Layout::new(KIND_FULL, d..=d, usize::MAX, fields)
    }

    /// SMP: one entry, for the disclosed attribute `a < d`.
    pub(crate) fn smp(fields: Vec<Field>) -> Layout {
        let d = fields.len();
        Layout::new(KIND_SMP, 0..=d - 1, usize::MAX, fields)
    }

    /// RS+FD and RS+RFD: one entry per attribute, hiding `b < d`.
    pub(crate) fn tuple(fields: Vec<Field>) -> Layout {
        let d = fields.len();
        Layout::new(KIND_TUPLE, d..=d, d - 1, fields)
    }

    /// A mixed solution: `sample_k` dimension-tagged entries, `b = 0`.
    pub(crate) fn mixed(fields: Vec<Field>, sample_k: usize) -> Layout {
        Layout::new(KIND_MIXED, sample_k..=sample_k, 0, fields)
    }

    fn new(kind: u64, a: RangeInclusive<usize>, b_max: usize, fields: Vec<Field>) -> Layout {
        let words = 1 + fields.iter().map(|f| f.words()).sum::<usize>();
        let mut layout = Layout {
            kind,
            a,
            b_max,
            fields,
            words,
            template: None,
        };
        layout.template = layout.compile();
        layout
    }

    /// The header of a report of every field once, hiding `b`.
    pub(crate) fn header(&self, b: usize) -> u64 {
        header_word(self.kind, self.fields.len(), b)
    }

    /// The layout as one rule per word, for a header and one value word
    /// per attribute (SPL, RS+FD and RS+RFD over GRR): the header's kind,
    /// `a == d` and `b ≤ b_max`, then each field's tag and `v < k`. `None`
    /// for every other layout, which the walk checks: the variable shapes
    /// (SMP, mixed) and the multi-word entries, of which the walk reads two
    /// words per bit vector where a template would read every block.
    fn compile(&self) -> Option<Vec<Rule>> {
        if self.kind == KIND_SMP || self.kind == KIND_MIXED {
            return None;
        }
        let mut rules = vec![Rule((1 << 33) - 1, self.header(0), 33, self.b_max as u64)];
        for field in &self.fields {
            let Field::Value { k } = *field else {
                return None;
            };
            rules.push(Rule(0b11, TAG_VALUE, 2, (k as u64).checked_sub(1)?));
        }
        Some(rules)
    }

    /// Whether the layout compiled to a template and `words` are exactly
    /// `n_reports` reports that pass it word by word: one AND over every
    /// word, no branch on the data.
    pub(super) fn template_accepts(&self, words: &[u64], n_reports: usize) -> bool {
        let Some(rules) = &self.template else {
            return false;
        };
        if n_reports.checked_mul(rules.len()) != Some(words.len()) {
            return false;
        }
        let mut ok = true;
        for report in words.chunks_exact(rules.len()) {
            for (&w, rule) in report.iter().zip(rules) {
                ok &= (w & rule.0 == rule.1) & (w >> rule.2 <= rule.3);
            }
        }
        ok
    }

    /// Whether every report is a header and one value word per attribute
    /// (SPL, RS+FD and RS+RFD over GRR): the layouts with a template.
    pub(super) fn values_only(&self) -> bool {
        self.template.is_some()
    }

    /// Whether a report header `(kind, a, b)` fits the layout.
    fn fits(&self, kind: u64, a: usize, b: usize) -> bool {
        kind == self.kind && self.a.contains(&a) && b <= self.b_max
    }
}

/// One word position's rule in a template, `Rule(mask, want, shift, max)`:
/// a word `w` passes when `w & mask == want` and `w >> shift <= max`.
#[derive(Debug, Clone, Copy)]
struct Rule(u64, u64, u32, u64);

/// Walks exactly `n_reports` reports over `words`: every entry parses (see
/// [`Cursor::entry`]), every mixed subtag is valid, and no word trails.
/// With a `solution`, every rule of its layout too: the header's, a mixed
/// report's dimensions ascending strictly below `d`, and each entry's
/// [`Field`]. The first fault in word order is the error.
pub(super) fn walk(
    words: &[u64],
    n_reports: usize,
    solution: Option<&DynSolution>,
) -> Result<(), CompactDecodeError> {
    let mut cursor = Cursor::new(words);
    let fields = solution.map(|s| &s.layout().fields);
    for _ in 0..n_reports {
        let (kind, a, b) = cursor.header()?;
        if let Some(solution) = solution.filter(|s| !s.layout().fits(kind, a, b)) {
            return Err(CompactDecodeError::Domain(format!(
                "report header (kind {kind}, a {a}, b {b}) does not fit {} over d = {}",
                solution.name(),
                solution.d()
            )));
        }
        let mut prev_dim: Option<usize> = None;
        for i in 0..if kind == KIND_SMP { 1 } else { a } {
            let (j, entry) = cursor.report_entry(kind, a, i)?;
            let Some(fields) = fields else {
                continue;
            };
            if kind == KIND_MIXED && (j >= fields.len() || prev_dim.is_some_and(|p| j <= p)) {
                return Err(CompactDecodeError::Domain(format!(
                    "mixed entry dimension {j} after {prev_dim:?} is not ascending below d = {}",
                    fields.len()
                )));
            }
            prev_dim = Some(j);
            fields[j].check(j, entry)?;
        }
    }
    if cursor.pos == words.len() {
        Ok(())
    } else {
        Err(CompactDecodeError::TrailingWords)
    }
}

/// One entry as [`Cursor::entry`] reads it, borrowing its payload words.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Entry<'a> {
    Value(u64),
    Hashed {
        seed: u64,
        g: u32,
        value: u32,
    },
    /// `len` members, packed two per word.
    Subset {
        len: usize,
        words: &'a [u64],
    },
    Bits {
        k: usize,
        blocks: &'a [u64],
    },
    /// A mixed report's fixed-point numeric value.
    Numeric(i64),
}

impl<'a> Entry<'a> {
    fn name(self) -> &'static str {
        match self {
            Entry::Value(_) => "value",
            Entry::Bits { .. } => "bits",
            Entry::Hashed { .. } => "hashed",
            Entry::Subset { .. } => "subset",
            Entry::Numeric(_) => "numeric",
        }
    }

    /// A subset's members in wire order; none for any other entry.
    pub(crate) fn members(self) -> impl Iterator<Item = u32> + 'a {
        let (len, words) = match self {
            Entry::Subset { len, words } => (len, words),
            _ => (0, &[][..]),
        };
        let members = words.iter().flat_map(|&w| [w as u32, (w >> 32) as u32]);
        members.take(len)
    }

    /// The structured entry.
    pub(crate) fn decode(self) -> MixedEntry {
        let report = match self {
            Entry::Value(v) => Report::Value(v as u32),
            Entry::Hashed { seed, g, value } => Report::Hashed { seed, g, value },
            Entry::Subset { .. } => Report::Subset(self.members().collect()),
            Entry::Bits { k, blocks } => Report::Bits(BitVec::from_blocks(blocks, k)),
            Entry::Numeric(raw) => return MixedEntry::Num(NumericReport::from_raw(raw)),
        };
        MixedEntry::Cat(report)
    }
}

/// Sequential reader over encoded report words.
pub(crate) struct Cursor<'a> {
    words: &'a [u64],
    pub(super) pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(words: &'a [u64]) -> Self {
        Cursor { words, pos: 0 }
    }

    pub(crate) fn done(&self) -> bool {
        self.pos >= self.words.len()
    }

    /// The next `n` words, or `TruncatedWords` if fewer are left.
    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u64], CompactDecodeError> {
        let start = self.pos;
        let end = start.checked_add(n).filter(|&end| end <= self.words.len());
        self.pos = end.ok_or(CompactDecodeError::TruncatedWords)?;
        Ok(&self.words[start..self.pos])
    }

    /// Reads a solution header: `(kind, a, b)` per the wire format.
    pub(crate) fn header(&mut self) -> Result<(u64, usize, usize), CompactDecodeError> {
        let h = self.take(1)?[0];
        Ok((
            h & 0b11,
            ((h >> 2) & 0x7FFF_FFFF) as usize,
            (h >> 33) as usize,
        ))
    }

    /// The entry parser: reads one entry, refusing words that end inside it
    /// and a bit vector with padding bits set past its width (they would
    /// trip `BitVec::from_blocks`' debug assert).
    #[inline]
    pub(crate) fn entry(&mut self) -> Result<Entry<'a>, CompactDecodeError> {
        let header = self.take(1)?[0];
        let payload = (header >> 2) as usize;
        Ok(match header & 0b11 {
            TAG_VALUE => Entry::Value(header >> 2),
            TAG_HASHED => {
                let words = self.take(2)?;
                let (g, value) = (words[1] as u32, (words[1] >> 32) as u32);
                Entry::Hashed {
                    seed: words[0],
                    g,
                    value,
                }
            }
            TAG_SUBSET => Entry::Subset {
                len: payload,
                words: self.take(payload.div_ceil(2))?,
            },
            _ => {
                let blocks = self.take(payload.div_ceil(64))?;
                if !payload.is_multiple_of(64)
                    && blocks.last().is_some_and(|&b| b >> (payload % 64) != 0)
                {
                    return Err(CompactDecodeError::DirtyBitPadding);
                }
                Entry::Bits { k: payload, blocks }
            }
        })
    }

    /// Reads entry `i` of a report with header `(kind, a)`, with the
    /// attribute it estimates for: its position in an SPL report or a
    /// tuple, the disclosed `a` of an SMP report, or a mixed entry's
    /// dimension word, whose subtag says whether a standard entry or one
    /// numeric word follows.
    pub(crate) fn report_entry(
        &mut self,
        kind: u64,
        a: usize,
        i: usize,
    ) -> Result<(usize, Entry<'a>), CompactDecodeError> {
        if kind != KIND_MIXED {
            return Ok((if kind == KIND_SMP { a } else { i }, self.entry()?));
        }
        let dim = self.take(1)?[0];
        let j = (dim >> 2) as usize;
        match dim & 0b11 {
            SUBTAG_CAT => Ok((j, self.entry()?)),
            SUBTAG_NUM => Ok((j, Entry::Numeric(self.take(1)?[0] as i64))),
            other => Err(CompactDecodeError::BadSolutionKind(other)),
        }
    }

    /// If the next entry is a value, advances past it and returns the value;
    /// otherwise leaves the cursor as is. A [`Field::Value`] compiled to one
    /// tag compare.
    #[inline]
    pub(crate) fn value_entry(&mut self) -> Option<u64> {
        let w = self.words[self.pos];
        if w & 0b11 != TAG_VALUE {
            return None;
        }
        self.pos += 1;
        Some(w >> 2)
    }

    /// If the next entry is a bit vector of exactly `k` lanes, advances
    /// past it and returns its blocks; otherwise leaves the cursor as is.
    /// A [`Field::Bits`] compiled to one compare against its fixed entry
    /// header: no tag dispatch.
    #[inline]
    pub(crate) fn bits_entry(&mut self, k: usize) -> Option<&'a [u64]> {
        if self.words[self.pos] != TAG_BITS | ((k as u64) << 2) {
            return None;
        }
        let start = self.pos + 1;
        self.pos = start + k.div_ceil(64);
        Some(&self.words[start..self.pos])
    }

    /// Advances past one whole report of well-formed words.
    pub(super) fn skip_report(&mut self) {
        let (kind, a, _) = self.header().expect(WELL_FORMED);
        for i in 0..if kind == KIND_SMP { 1 } else { a } {
            self.report_entry(kind, a, i).expect(WELL_FORMED);
        }
    }
}

/// Appends encoded entries to a report's words: the writer of the grammar
/// [`Cursor::entry`] parses.
pub(crate) struct Entries<'a>(pub(super) &'a mut Vec<u64>);

impl Entries<'_> {
    /// Appends one entry in the shape of `report`.
    pub(crate) fn push(&mut self, report: &Report) {
        let words = &mut *self.0;
        match report {
            Report::Value(v) => self.value(*v),
            Report::Hashed { seed, g, value } => {
                words.extend([TAG_HASHED, *seed, u64::from(*g) | u64::from(*value) << 32]);
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

    /// Appends a mixed report's entry of dimension `j`: its dimension word,
    /// then a standard entry or one fixed-point word.
    pub(crate) fn mixed(&mut self, j: usize, entry: &MixedEntry) {
        let dim = (j as u64) << 2;
        match entry {
            MixedEntry::Cat(report) => {
                self.0.push(SUBTAG_CAT | dim);
                self.push(report);
            }
            MixedEntry::Num(y) => self.0.extend([SUBTAG_NUM | dim, y.raw() as u64]),
        }
    }
}
