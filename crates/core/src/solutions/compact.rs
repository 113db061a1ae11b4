//! The compact wire encoding: batches of [`SolutionReport`]s as two flat,
//! reusable buffers.
//!
//! The ingestion hot path moves millions of reports per second across
//! channels. A [`SolutionReport`] is born encoded — it owns exactly the
//! words this format lays down for it — so [`CompactBatch::push`] appends
//! its uid and copies its words, and a batch is just two growable buffers
//! (`uids`, `words`) that are **reused**: the serving layer recycles drained
//! batches back to the producers through a pool, so steady-state ingestion
//! crosses the channel without any fresh heap allocation.
//!
//! Nothing on the server side rematerializes reports: the cursor-based
//! [`count_entry`] counts support directly from the encoded words (see
//! [`MultidimAggregator::absorb_compact`]), dispatching on the oracle once
//! per report and adding bit-vector words whole into a byte-lane tally.
//! Neither does the routing side: a server hands each validated batch to
//! one shard whole, so no report's words are copied between arrival and
//! counting. [`CompactBatch::iter`] copies each report's words back out as
//! an owned report; no server path calls it.
//!
//! ## Checked decoding
//!
//! Both public decoders return only checked batches, and each makes one
//! pass over the words after a bulk copy. [`CompactBatch::decode_from`]
//! walks the structure alone; [`CompactBatch::decode_for`], the server's
//! decoder, applies every structural and domain rule of the receiver's
//! solution ([`CompactBatch::validate_for_solution`]) instead. For the
//! value-entry solutions (SPL, RS+FD and RS+RFD over GRR) that pass is a
//! template of one rule per word position, ANDed over the whole batch
//! without a branch on the data; the entry-by-entry walk runs only to name
//! the error of a batch the template rejects, and for every other kind.
//!
//! ## Wire format (per report, in 64-bit words)
//!
//! ```text
//! solution header: kind(2 bits) | a(bits 2..33) | b(bits 33..64)
//!     kind 0 = Full  (a = d)           → d entries follow
//!     kind 1 = Smp   (a = attr)        → 1 entry follows
//!     kind 2 = Tuple (a = d)           → d entries follow
//!     kind 3 = Mixed (a = entries)     → a dimension-tagged entries follow
//!     b is reserved and zero on the wire. In process, a tuple keeps its
//!     hidden sampled attribute there as attack ground truth, which only
//!     the inference scenario reads (SolutionReport::hidden_attribute), to
//!     label and score the §3.3 attack; producers zero it before framing
//!     (CompactBatch::push_wire).
//! entry header:   tag(2 bits) | payload(bits 2..)
//!     tag 0 = Value  (payload = v)     → no extra words
//!     tag 1 = Hashed                   → words: seed, g | value << 32
//!     tag 2 = Subset (payload = len)   → ⌈len/2⌉ words, two u32 each
//!     tag 3 = Bits   (payload = nbits) → ⌈nbits/64⌉ BitVec blocks, verbatim
//! mixed entry:    subtag(2 bits) | dim(bits 2..), then:
//!     subtag 0 = categorical           → one standard entry follows
//!     subtag 1 = numeric               → one word: fixed-point i64 as u64
//!     subtags 2/3 are invalid (BadSolutionKind)
//! ```
//!
//! [`MultidimAggregator::absorb_compact`]: super::MultidimAggregator::absorb_compact

use ldp_protocols::{BitVec, FrequencyOracle, Oracle, ProtocolKind, Report};

use crate::numeric::{NumericOracle, NUMERIC_SCALE};

use super::kind::{DynSolution, SolutionKind};
use super::mixed::NUMERIC_DIM;
use super::rsfd::RsFdProtocol;
use super::rsrfd::RsRfdProtocol;
use super::tally::BitSink;
use super::SolutionReport;

pub(super) const KIND_FULL: u64 = 0;
pub(super) const KIND_SMP: u64 = 1;
pub(super) const KIND_TUPLE: u64 = 2;
pub(super) const KIND_MIXED: u64 = 3;

/// A solution header's `b` bits (33..64): reserved, zero on the wire.
const HEADER_B: u64 = !0 << 33;

pub(super) const SUBTAG_CAT: u64 = 0;
pub(super) const SUBTAG_NUM: u64 = 1;

pub(super) const TAG_VALUE: u64 = 0;
pub(super) const TAG_HASHED: u64 = 1;
pub(super) const TAG_SUBSET: u64 = 2;
pub(super) const TAG_BITS: u64 = 3;
/// Entry tags by value, for error messages.
const TAG_NAMES: [&str; 4] = ["value", "hashed", "subset", "bits"];

/// A batch of `(uid, SolutionReport)` pairs held as two reusable buffers:
/// the uids, and every report's encoded words back to back. Build with
/// [`CompactBatch::push`], hand it across a channel, absorb it with
/// [`MultidimAggregator::absorb_compact`](super::MultidimAggregator::absorb_compact),
/// then [`CompactBatch::clear`] and reuse — steady state allocates nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactBatch {
    uids: Vec<u64>,
    words: Vec<u64>,
}

/// Why a byte buffer failed to decode as a [`CompactBatch`] — the typed
/// rejection surface of [`CompactBatch::decode_from`],
/// [`CompactBatch::decode_for`] and [`CompactBatch::validate_for_solution`].
/// Untrusted (network) input is funneled through [`CompactBatch::decode_for`]
/// before any panicky fast path ([`CompactBatch::iter`], `absorb_compact`)
/// ever touches the words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompactDecodeError {
    /// Fewer bytes than the fixed 16-byte batch header.
    Truncated,
    /// Total byte length inconsistent with the header's uid/word counts.
    LengthMismatch {
        /// Byte length implied by the header counts.
        expected: usize,
        /// Byte length actually supplied.
        got: usize,
    },
    /// The encoded words end in the middle of a report.
    TruncatedWords,
    /// Words left over after the last report's entries.
    TrailingWords,
    /// A solution header carries an unknown kind bit pattern.
    BadSolutionKind(u64),
    /// A bit-vector entry has a padding bit set past its declared width.
    DirtyBitPadding,
    /// Structurally sound, but the report shape or a value is out of domain
    /// for the target solution (see [`CompactBatch::validate_for_solution`]).
    Domain(String),
}

impl std::fmt::Display for CompactDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompactDecodeError::Truncated => write!(f, "batch shorter than its 16-byte header"),
            CompactDecodeError::LengthMismatch { expected, got } => {
                write!(
                    f,
                    "batch length {got} B does not match header ({expected} B)"
                )
            }
            CompactDecodeError::TruncatedWords => write!(f, "encoded words end mid-report"),
            CompactDecodeError::TrailingWords => write!(f, "trailing words after the last report"),
            CompactDecodeError::BadSolutionKind(kind) => {
                write!(f, "unknown solution header kind {kind}")
            }
            CompactDecodeError::DirtyBitPadding => {
                write!(f, "bit-vector entry with padding bits set past its width")
            }
            CompactDecodeError::Domain(reason) => write!(f, "out-of-domain report: {reason}"),
        }
    }
}

impl std::error::Error for CompactDecodeError {}

impl CompactBatch {
    /// An empty batch.
    pub fn new() -> Self {
        CompactBatch::default()
    }

    /// Number of encoded reports.
    pub fn len(&self) -> usize {
        self.uids.len()
    }

    /// True when no report is encoded.
    pub fn is_empty(&self) -> bool {
        self.uids.is_empty()
    }

    /// Empties the batch, keeping both buffers' capacity for reuse.
    pub fn clear(&mut self) {
        self.uids.clear();
        self.words.clear();
    }

    /// Appends one report: its uid, then a copy of its encoded words.
    /// Amortized allocation-free once the buffers have grown to the batch's
    /// steady-state size.
    pub fn push(&mut self, uid: u64, report: &SolutionReport) {
        self.uids.push(uid);
        self.words.extend_from_slice(report.words());
    }

    /// Appends one report as it may leave the producer: [`CompactBatch::push`]
    /// with the solution header's reserved `b` bits zeroed, so an RS+FD or
    /// RS+RFD tuple never tells the server which attribute was really
    /// sanitized — the secret the §3.3 inference attack is after. The other
    /// shapes carry zero there already.
    pub fn push_wire(&mut self, uid: u64, report: &SolutionReport) {
        let header = self.words.len();
        self.push(uid, report);
        self.words[header] &= !HEADER_B;
    }

    /// Every `(uid, report)` pair, each report a copy of its words — the
    /// round-trip inverse of [`CompactBatch::push`]. No server path calls
    /// this: aggregation counts from the encoded words and routing moves
    /// whole batches.
    pub fn iter(&self) -> impl Iterator<Item = (u64, SolutionReport)> + '_ {
        let mut cursor = self.cursor();
        self.uids.iter().map(move |&uid| {
            let start = cursor.pos;
            cursor.skip_report();
            (
                uid,
                SolutionReport::from_span(&self.words[start..cursor.pos]),
            )
        })
    }

    /// The encoded solution headers + entries, for the crate-internal
    /// counting walk.
    pub(crate) fn cursor(&self) -> Cursor<'_> {
        Cursor::new(&self.words)
    }

    /// Exact byte length of [`CompactBatch::encode_into`]'s output: a
    /// 16-byte count header plus the two word buffers verbatim.
    pub fn encoded_len(&self) -> usize {
        16 + 8 * (self.uids.len() + self.words.len())
    }

    /// Appends the batch's byte encoding to `out`: `uids.len()` and
    /// `words.len()` as little-endian `u64`, then both buffers verbatim
    /// (little-endian words). Exactly [`CompactBatch::encoded_len`] bytes,
    /// written by one `resize` and a fixed-stride copy; the inverse of
    /// [`CompactBatch::decode_from`].
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + self.encoded_len(), 0);
        let (header, body) = out[start..].split_at_mut(16);
        header[..8].copy_from_slice(&(self.uids.len() as u64).to_le_bytes());
        header[8..].copy_from_slice(&(self.words.len() as u64).to_le_bytes());
        let (uid_bytes, word_bytes) = body.split_at_mut(8 * self.uids.len());
        for (bytes, values) in [(uid_bytes, &self.uids), (word_bytes, &self.words)] {
            for (dst, value) in bytes.chunks_exact_mut(8).zip(values) {
                dst.copy_from_slice(&value.to_le_bytes());
            }
        }
    }

    /// Decodes an [`CompactBatch::encode_into`] buffer, rejecting anything
    /// malformed with a typed error instead of panicking: the byte length
    /// must match the header counts exactly, and the words must pass a full
    /// structural walk (report headers well-kinded, every entry's payload
    /// words present, no trailing garbage, bit-vector padding clean). A
    /// decoded batch is therefore always safe to hand to the panicky fast
    /// paths ([`CompactBatch::iter`], `absorb_compact`) — though untrusted
    /// input should be decoded with [`CompactBatch::decode_for`] instead,
    /// which adds the target solution's shape and domain rules.
    pub fn decode_from(bytes: &[u8]) -> Result<CompactBatch, CompactDecodeError> {
        let batch = CompactBatch::decode_unchecked(bytes)?;
        walk_words(&batch.words, batch.len(), None)?;
        Ok(batch)
    }

    /// Decodes an [`CompactBatch::encode_into`] buffer in one checked pass
    /// against the solution the receiver built: the byte-length checks and
    /// word copy of [`CompactBatch::decode_from`], then
    /// [`CompactBatch::validate_for_solution`] in place of the structural
    /// walk, since validation applies every structural rule too. A
    /// value-entry batch (SPL, RS+FD or RS+RFD over GRR) is accepted by the
    /// per-position template of `CompactBatch::validate_for` and walked by
    /// no one; any other is walked once. A rejected batch
    /// gets exactly the error `decode_from` followed by
    /// `validate_for_solution` would give: a structural fault outranks a
    /// domain one. This is the wire tier's decoder.
    pub fn decode_for(
        bytes: &[u8],
        solution: &DynSolution,
    ) -> Result<CompactBatch, CompactDecodeError> {
        let batch = CompactBatch::decode_unchecked(bytes)?;
        if let Err(e) = batch.validate_for_solution(solution) {
            walk_words(&batch.words, batch.len(), None)?;
            return Err(e);
        }
        Ok(batch)
    }

    /// The unchecked half of both decoders: the byte length must match the
    /// header counts exactly, then both buffers are copied out word by word.
    /// The words are not looked at.
    fn decode_unchecked(bytes: &[u8]) -> Result<CompactBatch, CompactDecodeError> {
        if bytes.len() < 16 {
            return Err(CompactDecodeError::Truncated);
        }
        let n_uids = u64::from_le_bytes(bytes[0..8].try_into().expect("8-byte slice"));
        let n_words = u64::from_le_bytes(bytes[8..16].try_into().expect("8-byte slice"));
        // Bound the counts by the buffer itself before the usize multiply
        // below — a forged header must not trigger overflow or a giant
        // allocation.
        let avail_words = ((bytes.len() - 16) / 8) as u64;
        if n_uids > avail_words || n_words > avail_words {
            return Err(CompactDecodeError::LengthMismatch {
                expected: 16usize.saturating_add(
                    8usize
                        .saturating_mul(n_uids.saturating_add(n_words).min(u64::MAX / 8) as usize),
                ),
                got: bytes.len(),
            });
        }
        let (n_uids, n_words) = (n_uids as usize, n_words as usize);
        let expected = 16 + 8 * (n_uids + n_words);
        if bytes.len() != expected {
            return Err(CompactDecodeError::LengthMismatch {
                expected,
                got: bytes.len(),
            });
        }
        let le_words = |bytes: &[u8]| -> Vec<u64> {
            bytes
                .chunks_exact(8)
                .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte chunk")))
                .collect()
        };
        let (uids, words) = bytes[16..].split_at(8 * n_uids);
        Ok(CompactBatch {
            uids: le_words(uids),
            words: le_words(words),
        })
    }

    /// The rules of [`CompactBatch::validate_for_solution`] that the kind
    /// and domain sizes alone decide: all but the numeric-magnitude bound.
    fn validate_for(&self, kind: SolutionKind, ks: &[usize]) -> Result<(), CompactDecodeError> {
        let rules = template(kind, ks);
        if rules.is_some_and(|rules| template_accepts(&rules, &self.words, self.len())) {
            return Ok(());
        }
        walk_words(&self.words, self.uids.len(), Some((kind, ks)))
    }

    /// Checks every encoded report against the target solution's shape and
    /// domains: the report kind must match the solution family (SPL ⇒ full,
    /// SMP ⇒ sampled, RS+FD/RS+RFD ⇒ tuple), entry counts must equal `d`,
    /// an SMP attribute index must be `< d`, so must a tuple header's
    /// reserved `b` (producers send zero; a batch built in process may hold
    /// the hidden sampled index there), every entry must carry the
    /// tag its protocol emits (GRR ⇒ value, OLH ⇒ hashed, SS ⇒ subset,
    /// SUE/OUE ⇒ bits; RS+FD/RS+RFD GRR ⇒ value, UE-z/UE-r ⇒ bits; a mixed
    /// solution's categorical entries ⇒ its protocol's tag), and every
    /// entry must fit its attribute's domain (`Value < k_j`, subset members
    /// `< k_j`, bit-vector width `== k_j`, hashed reports with `value < g`).
    /// For mixed solutions it also bounds every numeric entry's magnitude
    /// by the mechanism's output bound (Duchi/PM/HM reports all lie in
    /// `[-C, C]`), so a forged fixed-point payload cannot drag a mean
    /// estimate arbitrarily far — the numeric analogue of the categorical
    /// `Value < k_j` domain rule. This is the gate that keeps a malformed
    /// network batch from ever reaching an aggregator shard, whose counting
    /// path only debug-asserts.
    ///
    /// Every rule above also holds the batch's structure, so a batch that
    /// passes is one [`CompactBatch::decode_from`] accepts too. SPL, RS+FD
    /// and RS+RFD over GRR write reports of one header and one value word
    /// per attribute, and for those the check is first a branch-free pass
    /// of a per-position template over the words (see `Rule`); the walk
    /// over entries runs only when the template rejects, or for any other
    /// kind, so a rejection's error is the walk's.
    pub fn validate_for_solution(&self, solution: &DynSolution) -> Result<(), CompactDecodeError> {
        self.validate_for(solution.kind(), solution.ks())?;
        let DynSolution::Mixed(mixed) = solution else {
            return Ok(());
        };
        // One rounding step of slack: a legitimate boundary report quantizes
        // to at most round(C · 2^40). Held as u64 so the comparison below
        // never needs i64::abs, which i64::MIN (a forgeable wire value)
        // would overflow; the `as u64` cast saturates if C is enormous.
        let bound_raw = ((mixed.numeric_oracle().bound() * NUMERIC_SCALE as f64).round() as u64)
            .saturating_add(1);
        let mut cursor = self.cursor();
        while !cursor.done() {
            // Structure already validated above: every header is kind 3 with
            // `a` well-formed dimension-tagged entries.
            let (_, a, _) = cursor.solution_header();
            for _ in 0..a {
                let dim_word = cursor.next();
                let j = (dim_word >> 2) as usize;
                if dim_word & 0b11 == SUBTAG_NUM {
                    let raw = cursor.next() as i64;
                    if raw.unsigned_abs() > bound_raw {
                        return Err(CompactDecodeError::Domain(format!(
                            "dim {j}: numeric report {raw} exceeds the mechanism bound \
                             {bound_raw}"
                        )));
                    }
                } else {
                    cursor.skip_entry();
                }
            }
        }
        Ok(())
    }
}

/// The tag every categorical entry of `solution`'s reports carries.
fn entry_tag(solution: SolutionKind) -> u64 {
    let oracle_tag = |protocol| match protocol {
        ProtocolKind::Grr => TAG_VALUE,
        ProtocolKind::Olh => TAG_HASHED,
        ProtocolKind::Ss => TAG_SUBSET,
        ProtocolKind::Sue | ProtocolKind::Oue => TAG_BITS,
    };
    match solution {
        SolutionKind::Spl(protocol) | SolutionKind::Smp(protocol) => oracle_tag(protocol),
        SolutionKind::Mixed(mixed) => oracle_tag(mixed.protocol),
        SolutionKind::RsFd(RsFdProtocol::Grr) | SolutionKind::RsRfd(RsRfdProtocol::Grr) => {
            TAG_VALUE
        }
        SolutionKind::RsFd(_) | SolutionKind::RsRfd(_) => TAG_BITS,
    }
}

/// One word position's rule in a value-entry template: a word `w` passes
/// when `w & mask == want` and `w >> shift <= max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Rule {
    mask: u64,
    want: u64,
    shift: u32,
    max: u64,
}

impl Rule {
    const fn new(mask: u64, want: u64, shift: u32, max: u64) -> Rule {
        Rule {
            mask,
            want,
            shift,
            max,
        }
    }

    #[inline(always)]
    fn accepts(self, w: u64) -> bool {
        (w & self.mask == self.want) & (w >> self.shift <= self.max)
    }
}

/// The per-position rules every report of a value-entry solution (SPL,
/// RS+FD or RS+RFD over GRR: a header, then one value word per attribute)
/// must pass, one per word. Together they are `CompactBatch::validate_for`'s
/// rules: the header's kind and `a == d` (and `b < d` for a tuple; SPL
/// leaves `b` alone), and each entry's tag and `v < k_j`. `None` for every
/// other kind, which the walk checks: the variable shapes (SMP, SPL over
/// OLH or SS, mixed), the bit-vector kinds (whose walk reads two words per
/// entry where a template would read every block), and a domain no value
/// fits (`d = 0` tuples, `k_j = 0`).
fn template(kind: SolutionKind, ks: &[usize]) -> Option<Vec<Rule>> {
    const KIND_AND_A: u64 = (1 << 33) - 1;
    let d = ks.len() as u64;
    let header = match kind {
        SolutionKind::Spl(ProtocolKind::Grr) => {
            Rule::new(KIND_AND_A, KIND_FULL | d << 2, 0, u64::MAX)
        }
        SolutionKind::RsFd(RsFdProtocol::Grr) | SolutionKind::RsRfd(RsRfdProtocol::Grr) => {
            Rule::new(KIND_AND_A, KIND_TUPLE | d << 2, 33, d.checked_sub(1)?)
        }
        _ => return None,
    };
    let mut rules = vec![header];
    for &k in ks {
        rules.push(Rule::new(0b11, TAG_VALUE, 2, (k as u64).checked_sub(1)?));
    }
    Some(rules)
}

/// Whether `words` are exactly `n_reports` reports that each pass `rules`
/// position by position: one AND over every word, no branch on the data.
fn template_accepts(rules: &[Rule], words: &[u64], n_reports: usize) -> bool {
    if n_reports.checked_mul(rules.len()) != Some(words.len()) {
        return false;
    }
    let mut ok = true;
    for report in words.chunks_exact(rules.len()) {
        for (&w, rule) in report.iter().zip(rules) {
            ok &= rule.accepts(w);
        }
    }
    ok
}

/// Shared structural (and optionally domain) validation walk over a batch's
/// encoded words: `n_reports` well-formed reports, nothing more, nothing
/// less. With `check = Some((kind, ks))` it additionally enforces the
/// solution-shape, entry-tag and domain rules of
/// `CompactBatch::validate_for`.
fn walk_words(
    words: &[u64],
    n_reports: usize,
    check: Option<(SolutionKind, &[usize])>,
) -> Result<(), CompactDecodeError> {
    let check = check.map(|(solution, ks)| (solution, entry_tag(solution), ks));
    let mut pos = 0usize;
    for _ in 0..n_reports {
        let header = *words.get(pos).ok_or(CompactDecodeError::TruncatedWords)?;
        pos += 1;
        let kind = header & 0b11;
        let a = ((header >> 2) & 0x7FFF_FFFF) as usize;
        let b = (header >> 33) as usize;
        let entries = match kind {
            KIND_FULL | KIND_TUPLE | KIND_MIXED => a,
            KIND_SMP => 1,
            other => return Err(CompactDecodeError::BadSolutionKind(other)),
        };
        if let Some((solution, _, ks)) = check {
            let d = ks.len();
            match (solution, kind) {
                (SolutionKind::Spl(_), KIND_FULL) if a == d => {}
                (SolutionKind::Smp(_), KIND_SMP) if a < d => {}
                (SolutionKind::RsFd(_) | SolutionKind::RsRfd(_), KIND_TUPLE) if a == d && b < d => {
                }
                (SolutionKind::Mixed(m), KIND_MIXED) if a == m.sample_k && a <= d && b == 0 => {}
                _ => {
                    return Err(CompactDecodeError::Domain(format!(
                        "report header (kind {kind}, a {a}, b {b}) does not fit {} over d = {d}",
                        solution.name()
                    )))
                }
            }
        }
        if kind == KIND_MIXED {
            // Dimension-tagged entries: each is a dim word (subtag | j << 2)
            // followed by a standard categorical entry or one numeric word.
            let mut prev_dim: Option<usize> = None;
            for _ in 0..entries {
                let dim_word = *words.get(pos).ok_or(CompactDecodeError::TruncatedWords)?;
                pos += 1;
                let subtag = dim_word & 0b11;
                let j = (dim_word >> 2) as usize;
                if let Some((_, _, ks)) = check {
                    if j >= ks.len() {
                        return Err(CompactDecodeError::Domain(format!(
                            "mixed entry dimension {j} outside d = {}",
                            ks.len()
                        )));
                    }
                    if prev_dim.is_some_and(|p| j <= p) {
                        return Err(CompactDecodeError::Domain(format!(
                            "mixed entry dimensions must be strictly ascending, got {j} after \
                             {prev_dim:?}"
                        )));
                    }
                    prev_dim = Some(j);
                    let is_numeric = ks[j] == NUMERIC_DIM;
                    if (subtag == SUBTAG_NUM) != is_numeric {
                        return Err(CompactDecodeError::Domain(format!(
                            "mixed entry subtag {subtag} does not match dimension {j} \
                             (k_j = {})",
                            ks[j]
                        )));
                    }
                }
                match subtag {
                    SUBTAG_CAT => {
                        pos = walk_entry(words, pos, check.map(|(_, tag, ks)| (tag, ks[j], j)))?;
                    }
                    SUBTAG_NUM => {
                        if pos >= words.len() {
                            return Err(CompactDecodeError::TruncatedWords);
                        }
                        pos += 1;
                    }
                    other => return Err(CompactDecodeError::BadSolutionKind(other)),
                }
            }
            continue;
        }
        for entry in 0..entries {
            // The attribute this entry estimates for: position for
            // full/tuple reports, the disclosed sampled index for SMP.
            let j = if kind == KIND_SMP { a } else { entry };
            pos = walk_entry(words, pos, check.map(|(_, tag, ks)| (tag, ks[j], j)))?;
        }
    }
    if pos == words.len() {
        Ok(())
    } else {
        Err(CompactDecodeError::TrailingWords)
    }
}

/// Validates one encoded entry starting at `words[pos]`, returning the
/// position just past it. `check = Some((tag, k, j))` adds the rules for
/// attribute `j` of size `k` whose protocol emits `tag` entries.
fn walk_entry(
    words: &[u64],
    mut pos: usize,
    check: Option<(u64, usize, usize)>,
) -> Result<usize, CompactDecodeError> {
    let header = *words.get(pos).ok_or(CompactDecodeError::TruncatedWords)?;
    pos += 1;
    let payload = header >> 2;
    let tag = header & 0b11;
    if let Some((want, _, j)) = check {
        if tag != want {
            return Err(CompactDecodeError::Domain(format!(
                "attr {j}: {} entry where the protocol emits {} entries",
                TAG_NAMES[tag as usize], TAG_NAMES[want as usize]
            )));
        }
    }
    match tag {
        TAG_VALUE => {
            if let Some((_, k, j)) = check {
                if payload >= k as u64 {
                    return Err(CompactDecodeError::Domain(format!(
                        "attr {j}: value {payload} outside domain of size {k}"
                    )));
                }
            }
        }
        TAG_HASHED => {
            // seed + packed(g | value << 32).
            let packed = *words
                .get(pos + 1)
                .ok_or(CompactDecodeError::TruncatedWords)?;
            pos += 2;
            if let Some((_, _, j)) = check {
                let (g, value) = (packed as u32, (packed >> 32) as u32);
                if g < 2 || value >= g {
                    return Err(CompactDecodeError::Domain(format!(
                        "attr {j}: hashed report value {value} outside hash range g = {g}"
                    )));
                }
            }
        }
        TAG_SUBSET => {
            let len = payload as usize;
            let packed_words = len.div_ceil(2);
            if packed_words > words.len() - pos {
                return Err(CompactDecodeError::TruncatedWords);
            }
            if let Some((_, k, j)) = check {
                for i in 0..len {
                    let packed = words[pos + i / 2];
                    let member = if i % 2 == 0 {
                        packed as u32
                    } else {
                        (packed >> 32) as u32
                    };
                    if member as usize >= k {
                        return Err(CompactDecodeError::Domain(format!(
                            "attr {j}: subset member {member} outside domain of size {k}"
                        )));
                    }
                }
            }
            pos += packed_words;
        }
        TAG_BITS => {
            let nbits = payload as usize;
            let blocks = nbits.div_ceil(64);
            if blocks > words.len() - pos {
                return Err(CompactDecodeError::TruncatedWords);
            }
            // Dirty padding would trip `BitVec::from_blocks`' debug assert
            // on the decode path — reject it structurally.
            if !nbits.is_multiple_of(64)
                && blocks > 0
                && words[pos + blocks - 1] >> (nbits % 64) != 0
            {
                return Err(CompactDecodeError::DirtyBitPadding);
            }
            if let Some((_, k, j)) = check {
                if nbits != k {
                    return Err(CompactDecodeError::Domain(format!(
                        "attr {j}: bit-vector width {nbits} does not match domain size {k}"
                    )));
                }
            }
            pos += blocks;
        }
        _ => unreachable!("2-bit tag"),
    }
    Ok(pos)
}

/// Sequential reader over a batch's encoded words.
pub(crate) struct Cursor<'a> {
    words: &'a [u64],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(words: &'a [u64]) -> Self {
        Cursor { words, pos: 0 }
    }

    pub(crate) fn done(&self) -> bool {
        self.pos >= self.words.len()
    }

    pub(crate) fn next(&mut self) -> u64 {
        let w = self.words[self.pos];
        self.pos += 1;
        w
    }

    /// Advances past one whole report (solution header and entries)
    /// without materializing it.
    fn skip_report(&mut self) {
        let (kind, a, _) = self.solution_header();
        match kind {
            KIND_SMP => self.skip_entry(),
            KIND_MIXED => {
                for _ in 0..a {
                    if self.next() & 0b11 == SUBTAG_NUM {
                        self.pos += 1;
                    } else {
                        self.skip_entry();
                    }
                }
            }
            _ => {
                for _ in 0..a {
                    self.skip_entry();
                }
            }
        }
    }

    /// Advances past one standard entry without materializing it.
    pub(crate) fn skip_entry(&mut self) {
        let header = self.next();
        let payload = header >> 2;
        match header & 0b11 {
            TAG_VALUE => {}
            TAG_HASHED => self.pos += 2,
            TAG_SUBSET => self.pos += (payload as usize).div_ceil(2),
            TAG_BITS => self.pos += (payload as usize).div_ceil(64),
            other => unreachable!("corrupt entry tag {other}"),
        }
    }

    /// If the next entry is a bit vector of exactly `nbits` lanes, advances
    /// past it and returns its words; otherwise leaves the cursor as is.
    /// One compare against the fixed header, no tag dispatch.
    #[inline]
    pub(crate) fn bits_entry(&mut self, nbits: usize) -> Option<&'a [u64]> {
        if self.words[self.pos] != TAG_BITS | ((nbits as u64) << 2) {
            return None;
        }
        let start = self.pos + 1;
        self.pos = start + nbits.div_ceil(64);
        Some(&self.words[start..self.pos])
    }

    /// Reads a solution header, returning `(kind, a, b)` per the wire format.
    pub(crate) fn solution_header(&mut self) -> (u64, usize, usize) {
        let header = self.next();
        (
            header & 0b11,
            ((header >> 2) & 0x7FFF_FFFF) as usize,
            (header >> 33) as usize,
        )
    }

    /// Materializes the next standard entry as a structured report.
    pub(crate) fn decode_entry(&mut self) -> Report {
        let header = self.next();
        let payload = header >> 2;
        match header & 0b11 {
            TAG_VALUE => Report::Value(payload as u32),
            TAG_HASHED => {
                let seed = self.next();
                let packed = self.next();
                Report::Hashed {
                    seed,
                    g: packed as u32,
                    value: (packed >> 32) as u32,
                }
            }
            TAG_SUBSET => {
                let len = payload as usize;
                let mut subset = Vec::with_capacity(len);
                for i in 0..len.div_ceil(2) {
                    let packed = self.next();
                    subset.push(packed as u32);
                    if 2 * i + 1 < len {
                        subset.push((packed >> 32) as u32);
                    }
                }
                Report::Subset(subset)
            }
            TAG_BITS => {
                let nbits = payload as usize;
                let blocks = &self.words[self.pos..self.pos + nbits.div_ceil(64)];
                self.pos += blocks.len();
                Report::Bits(BitVec::from_blocks(blocks, nbits))
            }
            other => unreachable!("corrupt entry tag {other}"),
        }
    }
}

/// Counts one encoded entry's support into `counts`, advancing the cursor —
/// the encoded twin of `ldp_protocols::oracle::count_support` (with an
/// oracle, for SPL/SMP entries) and of
/// [`count_fake_data_entry`](super::aggregator::count_fake_data_entry)
/// (`oracle = None`, for fake-data tuple entries, which never carry
/// hashed/subset shapes). Identical counting semantics, including the
/// debug-assert rejection of out-of-domain entries and the release-mode
/// skip of stray ones.
///
/// A bit-vector entry's words go whole to `bits`: a batch's byte-lane
/// tally, which the caller flushes into `counts` before the batch is done,
/// or a single report's direct per-bit count.
pub(crate) fn count_entry(
    counts: &mut [u64],
    oracle: Option<&Oracle>,
    j: usize,
    cur: &mut Cursor,
    bits: &mut impl BitSink,
) {
    let header = cur.next();
    let payload = header >> 2;
    match header & 0b11 {
        TAG_VALUE => {
            debug_assert!(
                (payload as usize) < counts.len(),
                "attr {j}: report value {payload} outside domain of size {}",
                counts.len()
            );
            if let Some(c) = counts.get_mut(payload as usize) {
                *c += 1;
            }
        }
        TAG_HASHED => {
            let seed = cur.next();
            let packed = cur.next();
            let report = Report::Hashed {
                seed,
                g: packed as u32,
                value: (packed >> 32) as u32,
            };
            match oracle {
                // Per-report dispatch into the oracle's tightest domain
                // sweep (monomorphized for OLH).
                Some(oracle) => oracle.count_hashed(counts, &report),
                None => debug_assert!(false, "attr {j}: unexpected hashed entry in a tuple"),
            }
        }
        TAG_SUBSET => {
            let len = payload as usize;
            if oracle.is_none() {
                // Mirrors `count_fake_data_entry`: a tuple entry of this
                // shape is malformed — reject loudly in tests, skip the
                // words without counting in release.
                debug_assert!(false, "attr {j}: unexpected subset entry in a tuple");
                cur.pos += len.div_ceil(2);
                return;
            }
            for i in 0..len.div_ceil(2) {
                let packed = cur.next();
                let lo = packed as u32;
                let hi = (packed >> 32) as u32;
                debug_assert!(
                    (lo as usize) < counts.len(),
                    "attr {j}: subset entry {lo} outside domain of size {}",
                    counts.len()
                );
                if let Some(c) = counts.get_mut(lo as usize) {
                    *c += 1;
                }
                if 2 * i + 1 < len {
                    debug_assert!(
                        (hi as usize) < counts.len(),
                        "attr {j}: subset entry {hi} outside domain of size {}",
                        counts.len()
                    );
                    if let Some(c) = counts.get_mut(hi as usize) {
                        *c += 1;
                    }
                }
            }
        }
        TAG_BITS => {
            let nbits = payload as usize;
            debug_assert_eq!(
                nbits,
                counts.len(),
                "attr {j}: bit-vector width does not match the domain"
            );
            let blocks = nbits.div_ceil(64);
            bits.add(counts, j, &cur.words[cur.pos..cur.pos + blocks]);
            cur.pos += blocks;
        }
        other => unreachable!("corrupt entry tag {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::super::{MixedEntry, MixedReport, SmpReport};
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn all_kinds() -> Vec<SolutionKind> {
        let mut kinds = Vec::new();
        for p in ProtocolKind::ALL {
            kinds.push(SolutionKind::Spl(p));
            kinds.push(SolutionKind::Smp(p));
        }
        for p in RsFdProtocol::ALL {
            kinds.push(SolutionKind::RsFd(p));
        }
        kinds.push(SolutionKind::RsRfd(RsRfdProtocol::Grr));
        kinds
    }

    #[test]
    fn roundtrips_every_report_shape() {
        let ks = [7usize, 4, 33];
        let mut rng = StdRng::seed_from_u64(3);
        for kind in all_kinds() {
            let solution = kind.build(&ks, 2.0).unwrap();
            let reports: Vec<(u64, SolutionReport)> = (0..60u64)
                .map(|uid| {
                    let tuple = [uid as u32 % 7, uid as u32 % 4, uid as u32 % 33];
                    (uid, solution.report(&tuple, &mut rng))
                })
                .collect();
            let mut batch = CompactBatch::new();
            for (uid, report) in &reports {
                batch.push(*uid, report);
            }
            assert_eq!(batch.len(), reports.len());
            let decoded: Vec<_> = batch.iter().collect();
            assert_eq!(decoded, reports, "{kind}");
        }
    }

    fn sample_batch(kind: SolutionKind, ks: &[usize], n: u64, seed: u64) -> CompactBatch {
        let solution = kind.build(ks, 2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut batch = CompactBatch::new();
        for uid in 0..n {
            let tuple: Vec<u32> = ks.iter().map(|&k| (uid as u32) % k as u32).collect();
            batch.push(uid, &solution.report(&tuple, &mut rng));
        }
        batch
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(40))]

        /// Byte round trip is the identity on the in-memory representation
        /// for every solution × protocol, any batch size (incl. empty).
        #[test]
        fn bytes_roundtrip_for_all_kinds(
            kind_idx in 0usize..12,
            n in 0u64..40,
            seed in 0u64..1_000,
        ) {
            let kinds = all_kinds();
            let kind = kinds[kind_idx % kinds.len()];
            let ks = [6usize, 3, 65];
            let batch = sample_batch(kind, &ks, n, seed);
            let mut bytes = Vec::new();
            batch.encode_into(&mut bytes);
            proptest::prop_assert_eq!(bytes.len(), batch.encoded_len());
            let decoded = CompactBatch::decode_from(&bytes).unwrap();
            proptest::prop_assert_eq!(&decoded, &batch);
            proptest::prop_assert!(decoded.validate_for(kind, &ks).is_ok());
        }

        /// Every strict prefix of an encoding is rejected with a typed
        /// error, never a panic — the wire layer's truncation guarantee.
        #[test]
        fn truncated_bytes_are_rejected(
            kind_idx in 0usize..12,
            n in 1u64..20,
            cut in 0usize..10_000,
        ) {
            let kinds = all_kinds();
            let kind = kinds[kind_idx % kinds.len()];
            let batch = sample_batch(kind, &[5, 4, 33], n, 7);
            let mut bytes = Vec::new();
            batch.encode_into(&mut bytes);
            let cut = cut % bytes.len();
            proptest::prop_assert!(CompactBatch::decode_from(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn decode_rejects_trailing_and_mismatched_lengths() {
        let batch = sample_batch(SolutionKind::RsFd(RsFdProtocol::Grr), &[4, 3], 10, 1);
        let mut bytes = Vec::new();
        batch.encode_into(&mut bytes);
        let mut trailing = bytes.clone();
        trailing.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            CompactBatch::decode_from(&trailing),
            Err(CompactDecodeError::LengthMismatch { .. })
        ));
        assert_eq!(
            CompactBatch::decode_from(&bytes[..12]),
            Err(CompactDecodeError::Truncated)
        );
        // A forged header claiming more words than the buffer holds must be
        // rejected without allocating for the claimed counts.
        let mut forged = bytes.clone();
        forged[0..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            CompactBatch::decode_from(&forged),
            Err(CompactDecodeError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn validate_for_rejects_foreign_shapes_and_domains() {
        let ks = [4usize, 3];
        let smp = sample_batch(SolutionKind::Smp(ProtocolKind::Grr), &ks, 20, 2);
        // Shape mismatch: an SMP batch is not an SPL or fake-data batch.
        assert!(matches!(
            smp.validate_for(SolutionKind::Spl(ProtocolKind::Grr), &ks),
            Err(CompactDecodeError::Domain(_))
        ));
        assert!(matches!(
            smp.validate_for(SolutionKind::RsFd(RsFdProtocol::Grr), &ks),
            Err(CompactDecodeError::Domain(_))
        ));
        // Domain mismatch: the same family over smaller domains must reject
        // out-of-range values instead of absorbing them.
        let wide = sample_batch(SolutionKind::Spl(ProtocolKind::Grr), &[9, 8], 40, 3);
        assert!(wide
            .validate_for(SolutionKind::Spl(ProtocolKind::Grr), &[2, 2])
            .is_err());
        // SUE/OUE bit widths are pinned to the domain size.
        let bits = sample_batch(SolutionKind::Spl(ProtocolKind::Oue), &ks, 5, 4);
        assert!(bits
            .validate_for(SolutionKind::Spl(ProtocolKind::Oue), &[5, 3])
            .is_err());
    }

    fn all_ones(k: usize) -> Report {
        let mut bits = BitVec::zeros(k);
        for wi in 0..bits.word_count() {
            bits.set_word(wi, u64::MAX);
        }
        Report::Bits(bits)
    }

    /// Each entry must carry the tag its protocol emits: an all-ones `Bits`
    /// entry accepted for a GRR attribute would credit every value of that
    /// attribute from one forged report, where GRR supports exactly one.
    #[test]
    fn validate_for_rejects_entries_their_protocol_never_emits() {
        let ks = [4usize, 3];
        let value = |_: usize| Report::Value(1);
        let hashed = |_: usize| Report::Hashed {
            seed: 7,
            g: 3,
            value: 1,
        };
        let subset = |_: usize| Report::Subset(vec![0, 2]);
        let shapes: [(&str, &dyn Fn(usize) -> Report); 4] = [
            ("value", &value),
            ("hashed", &hashed),
            ("subset", &subset),
            ("bits", &all_ones),
        ];
        let forge = |kind: SolutionKind, entry: &dyn Fn(usize) -> Report| {
            let report = match kind {
                SolutionKind::Spl(_) => {
                    SolutionReport::full(&ks.iter().map(|&k| entry(k)).collect::<Vec<_>>())
                }
                SolutionKind::Smp(_) => SolutionReport::smp(&SmpReport {
                    attr: 1,
                    report: entry(ks[1]),
                }),
                SolutionKind::RsFd(_) | SolutionKind::RsRfd(_) => {
                    SolutionReport::tuple(&ks.iter().map(|&k| entry(k)).collect::<Vec<_>>(), 0)
                }
                SolutionKind::Mixed(_) => SolutionReport::mixed(&MixedReport {
                    entries: vec![(0, MixedEntry::Cat(entry(ks[0])))],
                }),
            };
            let mut batch = CompactBatch::new();
            batch.push(0, &report);
            batch
        };
        let mut families: Vec<(SolutionKind, &str)> = Vec::new();
        for (protocol, tag) in ProtocolKind::ALL
            .into_iter()
            .zip(["value", "hashed", "subset", "bits", "bits"])
        {
            families.push((SolutionKind::Spl(protocol), tag));
            families.push((SolutionKind::Smp(protocol), tag));
            families.push((
                SolutionKind::Mixed(super::super::MixedKind {
                    protocol,
                    numeric: crate::numeric::NumericKind::Piecewise,
                    sample_k: 1,
                }),
                tag,
            ));
        }
        for protocol in RsFdProtocol::ALL {
            let tag = if protocol == RsFdProtocol::Grr {
                "value"
            } else {
                "bits"
            };
            families.push((SolutionKind::RsFd(protocol), tag));
        }
        families.push((SolutionKind::RsRfd(RsRfdProtocol::Grr), "value"));
        families.push((
            SolutionKind::RsRfd(RsRfdProtocol::UeR(ldp_protocols::UeMode::Optimized)),
            "bits",
        ));
        for (kind, tag) in families {
            for (shape, entry) in shapes {
                let result = forge(kind, entry).validate_for(kind, &ks);
                if shape == tag {
                    assert_eq!(result, Ok(()), "{kind}: {shape} entries are its own");
                } else {
                    assert!(
                        matches!(&result, Err(CompactDecodeError::Domain(m)) if m.contains(shape)),
                        "{kind}: a {shape} entry must be rejected, got {result:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn corrupt_words_are_structurally_rejected() {
        // A header flipped to the mixed kind no longer fits the SPL solution
        // the receiver built — `validate_for` is the gate.
        let batch = sample_batch(SolutionKind::Spl(ProtocolKind::Olh), &[4, 3], 8, 5);
        let mut corrupt = batch.clone();
        corrupt.words[0] |= 0b11;
        assert!(matches!(
            corrupt.validate_for(SolutionKind::Spl(ProtocolKind::Olh), &[4, 3]),
            Err(CompactDecodeError::Domain(_))
        ));
        // A dirty padding bit past a bit-vector's width is caught before it
        // can trip `BitVec::from_blocks` on the decode path.
        let bits = sample_batch(SolutionKind::Spl(ProtocolKind::Sue), &[4, 3], 1, 6);
        let mut bytes = Vec::new();
        bits.encode_into(&mut bytes);
        let last = bytes.len() - 1;
        bytes[last] |= 0x80;
        assert!(matches!(
            CompactBatch::decode_from(&bytes),
            Err(CompactDecodeError::DirtyBitPadding)
        ));
    }

    const MIXED_KS: [usize; 4] = [5, 0, 3, 0];

    fn mixed_kind(sample_k: usize) -> SolutionKind {
        SolutionKind::Mixed(super::super::MixedKind {
            protocol: ProtocolKind::Grr,
            numeric: crate::numeric::NumericKind::Piecewise,
            sample_k,
        })
    }

    fn sample_mixed_batch(n: u64, seed: u64, eps: f64, sample_k: usize) -> CompactBatch {
        let solution = mixed_kind(sample_k).build(&MIXED_KS, eps).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut batch = CompactBatch::new();
        for uid in 0..n {
            let cat = [(uid as u32) % 5, (uid as u32) % 3];
            let num = [(uid % 19) as f64 / 9.5 - 1.0, (uid % 7) as f64 / 3.5 - 1.0];
            batch.push(uid, &solution.report_mixed(&cat, &num, &mut rng).unwrap());
        }
        batch
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(40))]

        /// Mixed categorical+numeric reports survive push → bytes → decode →
        /// iter unchanged, and validate against their own solution.
        #[test]
        fn mixed_reports_roundtrip(
            n in 0u64..40,
            seed in 0u64..1_000,
            sample_k in 1usize..5,
        ) {
            let solution = mixed_kind(sample_k).build(&MIXED_KS, 2.0).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let reports: Vec<(u64, SolutionReport)> = (0..n)
                .map(|uid| {
                    let cat = [(uid as u32) % 5, (uid as u32) % 3];
                    let num = [(uid % 19) as f64 / 9.5 - 1.0, (uid % 7) as f64 / 3.5 - 1.0];
                    (uid, solution.report_mixed(&cat, &num, &mut rng).unwrap())
                })
                .collect();
            let mut batch = CompactBatch::new();
            for (uid, report) in &reports {
                batch.push(*uid, report);
            }
            let decoded_reports: Vec<_> = batch.iter().collect();
            proptest::prop_assert_eq!(&decoded_reports, &reports);
            let mut bytes = Vec::new();
            batch.encode_into(&mut bytes);
            proptest::prop_assert_eq!(bytes.len(), batch.encoded_len());
            let decoded = CompactBatch::decode_from(&bytes).unwrap();
            proptest::prop_assert_eq!(&decoded, &batch);
            proptest::prop_assert!(decoded.validate_for(mixed_kind(sample_k), &MIXED_KS).is_ok());
            proptest::prop_assert!(decoded.validate_for_solution(&solution).is_ok());
        }
    }

    #[test]
    fn mixed_batches_reject_foreign_shapes_and_corruption() {
        let batch = sample_mixed_batch(6, 9, 2.0, 4);
        // Shape gates in both directions.
        assert!(matches!(
            batch.validate_for(SolutionKind::Spl(ProtocolKind::Grr), &MIXED_KS),
            Err(CompactDecodeError::Domain(_))
        ));
        let spl = sample_batch(SolutionKind::Spl(ProtocolKind::Grr), &[4, 3], 5, 2);
        assert!(matches!(
            spl.validate_for(mixed_kind(2), &[4, 0]),
            Err(CompactDecodeError::Domain(_))
        ));
        // Wrong sample_k: the entry count must match the solution.
        assert!(batch.validate_for(mixed_kind(2), &MIXED_KS).is_err());
        // An invalid subtag is structurally rejected, with or without a
        // target solution.
        let mut corrupt = batch.clone();
        corrupt.words[1] = (corrupt.words[1] & !0b11) | 0b10;
        let mut bytes = Vec::new();
        corrupt.encode_into(&mut bytes);
        assert!(matches!(
            CompactBatch::decode_from(&bytes),
            Err(CompactDecodeError::BadSolutionKind(2))
        ));
        assert!(corrupt.validate_for(mixed_kind(4), &MIXED_KS).is_err());
        // A subtag that contradicts the schema (numeric entry on a
        // categorical dimension) is a domain error.
        let solution = mixed_kind(4).build(&MIXED_KS, 2.0).unwrap();
        let mut swapped = batch.clone();
        // dim word for dimension 0 (categorical, GRR value entry follows).
        assert_eq!(swapped.words[1] & 0b11, 0);
        swapped.words[1] |= 0b01;
        assert!(matches!(
            swapped.validate_for(mixed_kind(4), &MIXED_KS),
            Err(CompactDecodeError::Domain(_))
        ));
        // A forged numeric payload far past the mechanism bound passes the
        // structural walk but not the solution-instance magnitude gate.
        let mut forged = batch.clone();
        // words: [header, dim0, value0, dim1, raw1, ...] — words[4] is the
        // first numeric fixed-point payload.
        assert_eq!(forged.words[3] & 0b11, 1);
        forged.words[4] = (i64::MAX / 2) as u64;
        assert!(forged.validate_for(mixed_kind(4), &MIXED_KS).is_ok());
        assert!(matches!(
            forged.validate_for_solution(&solution),
            Err(CompactDecodeError::Domain(_))
        ));
        // i64::MIN is the one magnitude i64::abs cannot represent: it must
        // be rejected, not panic (debug) or wrap negative past the gate
        // (release).
        forged.words[4] = i64::MIN as u64;
        assert!(matches!(
            forged.validate_for_solution(&solution),
            Err(CompactDecodeError::Domain(_))
        ));
        // The untampered batch passes both gates.
        assert!(batch.validate_for_solution(&solution).is_ok());
    }

    #[test]
    fn mixed_absorb_compact_matches_decoded_absorb() {
        let solution = mixed_kind(3).build(&MIXED_KS, 1.5).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut batch = CompactBatch::new();
        for uid in 0..500u64 {
            let cat = [(uid as u32) % 5, (uid as u32) % 3];
            let num = [(uid % 19) as f64 / 9.5 - 1.0, (uid % 7) as f64 / 3.5 - 1.0];
            batch.push(uid, &solution.report_mixed(&cat, &num, &mut rng).unwrap());
        }
        let mut compact_agg = solution.aggregator();
        compact_agg.absorb_compact(&batch);
        let mut decoded_agg = solution.aggregator();
        for (_, report) in batch.iter() {
            decoded_agg.absorb(&report);
        }
        assert_eq!(compact_agg.n(), decoded_agg.n());
        assert_eq!(compact_agg.counts(), decoded_agg.counts());
        for (a, b) in compact_agg
            .estimate()
            .iter()
            .flatten()
            .zip(decoded_agg.estimate().iter().flatten())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Every kind whose reports are one fixed word length; [`template`]
    /// covers the value-entry ones among them.
    fn fixed_shape_kinds() -> Vec<SolutionKind> {
        let mut kinds: Vec<SolutionKind> =
            [ProtocolKind::Grr, ProtocolKind::Sue, ProtocolKind::Oue]
                .map(SolutionKind::Spl)
                .into();
        kinds.extend(RsFdProtocol::ALL.map(SolutionKind::RsFd));
        kinds.extend(RsRfdProtocol::ALL.map(SolutionKind::RsRfd));
        kinds
    }

    /// [`CompactBatch::encode_into`] against the per-word little-endian
    /// encoding it replaced, appended after a prefix the way a frame
    /// encoder calls it: every solution kind and two mixed kinds.
    #[test]
    fn encode_into_matches_a_per_word_reference() {
        let reference = |batch: &CompactBatch| {
            let mut out = b"prefix".to_vec();
            for v in [batch.uids.len() as u64, batch.words.len() as u64] {
                out.extend_from_slice(&v.to_le_bytes());
            }
            for v in batch.uids.iter().chain(&batch.words) {
                out.extend_from_slice(&v.to_le_bytes());
            }
            out
        };
        let ks = [7usize, 4, 65];
        let mut batches: Vec<(String, CompactBatch)> = all_kinds()
            .into_iter()
            .chain(fixed_shape_kinds())
            .map(|kind| (kind.name(), sample_batch(kind, &ks, 37, 21)))
            .collect();
        batches.push(("mixed GRR".into(), sample_mixed_batch(29, 22, 2.0, 3)));
        let olh_mixed = SolutionKind::Mixed(super::super::MixedKind {
            protocol: ProtocolKind::Olh,
            numeric: crate::numeric::NumericKind::Duchi,
            sample_k: 4,
        });
        let solution = olh_mixed.build(&MIXED_KS, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        let mut batch = CompactBatch::new();
        for uid in 0..31u64 {
            let num = [(uid % 5) as f64 / 2.5 - 1.0, 0.25];
            let report = solution.report_mixed(&[uid as u32 % 5, uid as u32 % 3], &num, &mut rng);
            batch.push(uid, &report.unwrap());
        }
        batches.push(("mixed OLH".into(), batch));
        batches.push(("empty".into(), CompactBatch::new()));
        for (name, batch) in batches {
            let mut out = b"prefix".to_vec();
            batch.encode_into(&mut out);
            assert_eq!(out, reference(&batch), "{name}");
        }
    }

    /// Word offset of each entry's header within one report of `kind`.
    fn entry_offsets(kind: SolutionKind, ks: &[usize]) -> Vec<usize> {
        let mut at = 1;
        ks.iter()
            .map(|&k| {
                let offset = at;
                at += if entry_tag(kind) == TAG_VALUE {
                    1
                } else {
                    1 + k.div_ceil(64)
                };
                offset
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(12))]

        /// The value-entry template accepts exactly what the entry walk
        /// accepts, for every kind it covers over widths at and around the
        /// 64-lane block boundary and over Adult's domains, under each
        /// mutation class: none, one flipped bit anywhere, a tuple header's
        /// `b ≥ d`, a value word's top bit set, a dropped or an extra
        /// trailing word, and a value of `k_j`. For every fixed-shape kind
        /// (the bit-vector ones mutated with dirty padding and a width one
        /// past `k_j`), `decode_for` returns what `decode_from` then
        /// `validate_for_solution` return on the same bytes.
        #[test]
        fn template_verdict_equals_the_walk(
            n in 1u64..5,
            seed in proptest::any::<u64>(),
            pick in proptest::any::<u64>(),
            bit in 0u32..64,
        ) {
            let adult = ldp_datasets::corpora::adult_schema().cardinalities();
            let mut shapes: Vec<Vec<usize>> =
                [2usize, 63, 64, 65, 128, 129].iter().map(|&k| vec![k, 3, k]).collect();
            shapes.push(adult);
            let mut accepted = 0;
            let mut templated = 0;
            for kind in fixed_shape_kinds() {
                for ks in &shapes {
                    let solution = kind.build(ks, 2.0).unwrap();
                    let batch = sample_batch(kind, ks, n, seed);
                    let unary = entry_tag(kind) == TAG_BITS;
                    let rules = template(kind, ks);
                    proptest::prop_assert_eq!(rules.is_some(), !unary, "{}", kind);
                    templated += usize::from(rules.is_some());
                    let len = batch.words.len() / batch.len();
                    let report = (pick as usize % batch.len()) * len;
                    let offsets = entry_offsets(kind, ks);
                    let j = (pick >> 32) as usize % ks.len();
                    for mutation in 0..7 {
                        let mut words = batch.words.clone();
                        match mutation {
                            0 => {}
                            1 => words[pick as usize % batch.words.len()] ^= 1 << bit,
                            2 => {
                                let b = ks.len() as u64 + u64::from(bit);
                                words[report] = (words[report] & !HEADER_B) | b << 33;
                            }
                            3 if unary => {
                                // The last block of the first entry with padding.
                                let j = (0..ks.len()).find(|&j| ks[j] % 64 != 0).unwrap();
                                let last = report + offsets[j] + ks[j].div_ceil(64);
                                words[last] |= 1 << (ks[j] % 64).max(bit as usize);
                            }
                            3 => words[report + offsets[j]] |= 1 << 63,
                            4 => {
                                words.pop();
                            }
                            5 => words.push(u64::from(bit)),
                            _ => {
                                let k = ks[j] as u64 + u64::from(unary);
                                words[report + offsets[j]] = entry_tag(kind) | k << 2;
                            }
                        }
                        if let Some(rules) = &rules {
                            let by_template = template_accepts(rules, &words, batch.len());
                            let by_walk = walk_words(&words, batch.len(), Some((kind, ks)));
                            proptest::prop_assert_eq!(
                                by_template,
                                by_walk.is_ok(),
                                "{} over {:?}, mutation {}: walk says {:?}",
                                kind,
                                ks,
                                mutation,
                                by_walk
                            );
                            accepted += usize::from(by_template);
                        }

                        let mut bytes = Vec::new();
                        CompactBatch { uids: batch.uids.clone(), words }.encode_into(&mut bytes);
                        let two_pass = CompactBatch::decode_from(&bytes)
                            .and_then(|b| b.validate_for_solution(&solution).map(|()| b));
                        proptest::prop_assert_eq!(CompactBatch::decode_for(&bytes, &solution), two_pass);
                    }
                }
            }
            // Unmutated batches at least: the accept side is exercised too.
            proptest::prop_assert!(accepted >= templated);
        }
    }

    /// A batch with a domain fault in an early report and a structural
    /// fault in a later one: `decode_for` names the structural fault, as
    /// `decode_from` would have before validation ran.
    #[test]
    fn decode_for_ranks_a_structural_fault_over_a_domain_fault() {
        let ks = [4usize, 3];
        let kind = SolutionKind::Spl(ProtocolKind::Sue);
        let solution = kind.build(&ks, 1.0).unwrap();
        let mut batch = sample_batch(kind, &ks, 3, 8);
        let len = batch.words.len() / batch.len();
        // Report 0: attribute 0's bit vector claims 5 lanes (a domain fault).
        batch.words[1] = TAG_BITS | 5 << 2;
        let mut bytes = Vec::new();
        batch.encode_into(&mut bytes);
        let domain = CompactBatch::decode_for(&bytes, &solution);
        assert!(
            matches!(domain, Err(CompactDecodeError::Domain(_))),
            "{domain:?}"
        );
        // Report 2: attribute 1's block sets lane 3 of 3 (dirty padding).
        batch.words[2 * len + 4] |= 1 << 3;
        bytes.clear();
        batch.encode_into(&mut bytes);
        assert_eq!(
            CompactBatch::decode_for(&bytes, &solution),
            Err(CompactDecodeError::DirtyBitPadding)
        );
        assert_eq!(
            CompactBatch::decode_from(&bytes),
            Err(CompactDecodeError::DirtyBitPadding)
        );
    }

    #[test]
    fn clear_keeps_capacity_and_resets_content() {
        let solution = SolutionKind::Smp(ProtocolKind::Ss)
            .build(&[9, 5], 1.0)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut batch = CompactBatch::new();
        for uid in 0..100u64 {
            batch.push(uid, &solution.report(&[1, 2], &mut rng));
        }
        let (uid_cap, word_cap) = (batch.uids.capacity(), batch.words.capacity());
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.uids.capacity(), uid_cap);
        assert_eq!(batch.words.capacity(), word_cap);
        // Refilling to the same size allocates nothing new.
        for uid in 0..100u64 {
            batch.push(uid, &solution.report(&[1, 2], &mut rng));
        }
        assert_eq!(batch.uids.capacity(), uid_cap);
        assert_eq!(batch.words.capacity(), word_cap);
    }
}
