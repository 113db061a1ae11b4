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
//! Nothing on the server side rematerializes reports: the aggregator counts
//! support directly from the encoded words (see
//! [`MultidimAggregator::absorb_compact`]), and a server hands each
//! validated batch to one shard whole. Both public decoders return only
//! checked batches, each in one pass over the words after a bulk copy:
//! [`CompactBatch::decode_from`] checks the structure alone, and
//! [`CompactBatch::decode_for`], the server's decoder, every rule of the
//! receiver's solution ([`CompactBatch::validate_for_solution`]).
//!
//! ## Wire format (per report, in 64-bit words)
//!
//! This block is the one prose spec of the report words. Its code is each
//! solution's `Layout` (`solutions/layout.rs`), which the writer, the
//! checked walk, the reader and the counter all follow.
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

use super::kind::DynSolution;
use super::layout::{walk, Cursor, HEADER_B};
use super::SolutionReport;

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
    /// this.
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
        walk(&batch.words, batch.len(), None)?;
        Ok(batch)
    }

    /// Decodes an [`CompactBatch::encode_into`] buffer in one checked pass
    /// against the solution the receiver built: the byte-length checks and
    /// word copy of [`CompactBatch::decode_from`], then
    /// [`CompactBatch::validate_for_solution`], which applies every
    /// structural rule too. A rejected batch gets exactly the error
    /// `decode_from` followed by `validate_for_solution` would give: a
    /// structural fault outranks a domain one. This is the wire tier's
    /// decoder.
    pub fn decode_for(
        bytes: &[u8],
        solution: &DynSolution,
    ) -> Result<CompactBatch, CompactDecodeError> {
        let batch = CompactBatch::decode_unchecked(bytes)?;
        if let Err(e) = batch.validate_for_solution(solution) {
            walk(&batch.words, batch.len(), None)?;
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

    /// Checks every encoded report against the target solution's layout:
    /// the header's kind (SPL ⇒ full, SMP ⇒ sampled, RS+FD/RS+RFD ⇒ tuple,
    /// mixed ⇒ mixed), its entry count (`d`, or `sample_k`), an SMP
    /// attribute `< d`, a tuple's reserved `b < d` (producers send zero; in
    /// process it may hold the hidden sampled index), a mixed report's
    /// dimensions ascending below `d`, and each entry against its
    /// attribute's field: the tag its protocol emits and its domain
    /// (`Value < k_j`, subset members `< k_j`, bit-vector width `== k_j`,
    /// hashed reports with `value < g`, numeric entries within the
    /// mechanism's output bound). This is the gate that keeps a malformed
    /// network batch from ever reaching an aggregator shard, whose counting
    /// path only debug-asserts. A batch that passes is one
    /// [`CompactBatch::decode_from`] accepts too.
    ///
    /// SPL, RS+FD and RS+RFD over GRR write a header and one value word per
    /// attribute; their batches first get a branch-free pass of the
    /// layout's per-word template, and the entry walk runs only when the
    /// template rejects (so a rejection's error is the walk's), or for any
    /// other kind.
    pub fn validate_for_solution(&self, solution: &DynSolution) -> Result<(), CompactDecodeError> {
        if solution.layout().template_accepts(&self.words, self.len()) {
            return Ok(());
        }
        walk(&self.words, self.len(), Some(solution))
    }
}

#[cfg(test)]
mod tests {
    use super::super::layout::{walk, Field, HEADER_B, TAG_BITS};
    use super::super::{
        MixedEntry, MixedKind, MixedReport, RsFdProtocol, RsRfdProtocol, SmpReport, SolutionKind,
    };
    use super::*;
    use ldp_protocols::{BitVec, ProtocolKind, Report};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl CompactBatch {
        /// [`CompactBatch::validate_for_solution`] against `kind` built
        /// over `ks` at ε = 2.
        fn validate_for(&self, kind: SolutionKind, ks: &[usize]) -> Result<(), CompactDecodeError> {
            self.validate_for_solution(&kind.build(ks, 2.0).unwrap())
        }
    }

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
    /// The forged hashed and subset entries take the attribute's own `g`
    /// and `ω` where it has them, so a solution's own shape is accepted.
    #[test]
    fn validate_for_rejects_entries_their_protocol_never_emits() {
        let ks = [4usize, 3];
        let value = |_: usize, _: Field| Report::Value(1);
        let hashed = |_: usize, field: Field| Report::Hashed {
            seed: 7,
            g: match field {
                Field::Hashed { g } => g,
                _ => 3,
            },
            value: 1,
        };
        let subset = |_: usize, field: Field| match field {
            Field::Subset { omega, .. } => Report::Subset((0..omega as u32).collect()),
            _ => Report::Subset(vec![0, 2]),
        };
        let bits = |k: usize, _: Field| all_ones(k);
        /// An entry forged for an attribute of size `k` and field `field`.
        type Forge<'a> = &'a dyn Fn(usize, Field) -> Report;
        let shapes: [(&str, Forge); 4] = [
            ("value", &value),
            ("hashed", &hashed),
            ("subset", &subset),
            ("bits", &bits),
        ];
        // A mixed solution needs a numeric dimension; its forged report
        // carries attribute 0 only.
        let ks_of = |kind: SolutionKind| match kind {
            SolutionKind::Mixed(_) => vec![4, 3, 0],
            _ => ks.to_vec(),
        };
        let forge = |solution: &DynSolution, entry: Forge| {
            let fields = &solution.layout().fields;
            let all: Vec<Report> = (0..ks.len()).map(|j| entry(ks[j], fields[j])).collect();
            let report = match solution.kind() {
                SolutionKind::Spl(_) => SolutionReport::full(&all),
                SolutionKind::Smp(_) => SolutionReport::smp(&SmpReport {
                    attr: 1,
                    report: all[1].clone(),
                }),
                SolutionKind::RsFd(_) | SolutionKind::RsRfd(_) => SolutionReport::tuple(&all, 0),
                SolutionKind::Mixed(_) => SolutionReport::mixed(&MixedReport {
                    entries: vec![(0, MixedEntry::Cat(all[0].clone()))],
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
                SolutionKind::Mixed(MixedKind {
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
            let solution = kind.build(&ks_of(kind), 2.0).unwrap();
            for (shape, entry) in shapes {
                let result = forge(&solution, entry).validate_for_solution(&solution);
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

    /// An SS entry must be exactly ω strictly ascending members and an OLH
    /// entry must carry its oracle's hash range `g`. A forged SPL[SS]
    /// subset of a thousand zeros would otherwise add 1000 to `C_0(0)` from
    /// one report, and a foreign `g` reached `Olh::count_hashed`'s debug
    /// assert (a worker panic) or, in release, was counted against the
    /// wrong hash range.
    #[test]
    fn validate_for_rejects_subsets_and_hash_ranges_their_oracle_never_draws() {
        let ks = [8usize, 8];
        let ss = SolutionKind::Spl(ProtocolKind::Ss).build(&ks, 1.0).unwrap();
        let olh = SolutionKind::Smp(ProtocolKind::Olh)
            .build(&ks, 1.0)
            .unwrap();
        assert_eq!(ss.layout().fields[0], Field::Subset { k: 8, omega: 3 });
        assert_eq!(olh.layout().fields[0], Field::Hashed { g: 4 });
        let check = |solution: &DynSolution, report: SolutionReport| {
            let mut batch = CompactBatch::new();
            batch.push(0, &report);
            batch.validate_for_solution(solution)
        };
        let spl = |members: Vec<u32>| {
            SolutionReport::full(&[Report::Subset(members), Report::Subset(vec![1, 4, 7])])
        };
        assert_eq!(check(&ss, spl(vec![0, 2, 5])), Ok(()));
        for (members, fault) in [
            (vec![0; 1000], "subset of 1000 members"),
            (vec![0, 2], "subset of 2 members"),
            (vec![5, 2, 0], "member 2 is not strictly ascending"),
            (vec![0, 0, 2], "member 0 is not strictly ascending"),
            (vec![0, 2, 8], "member 8 is not strictly ascending below 8"),
        ] {
            let result = check(&ss, spl(members.clone()));
            assert!(
                matches!(&result, Err(CompactDecodeError::Domain(m)) if m.contains(fault)),
                "{members:?}: {result:?}"
            );
        }
        let smp = |g: u32, value: u32| {
            let report = Report::Hashed { seed: 7, g, value };
            SolutionReport::smp(&SmpReport { attr: 1, report })
        };
        assert_eq!(check(&olh, smp(4, 3)), Ok(()));
        for (g, value, fault) in [
            (2, 1, "g = 2;"),
            (5, 1, "g = 5;"),
            (4, 4, "value 4 in g = 4;"),
        ] {
            let result = check(&olh, smp(g, value));
            assert!(
                matches!(&result, Err(CompactDecodeError::Domain(m)) if m.contains(fault)),
                "g = {g}, value {value}: {result:?}"
            );
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
        SolutionKind::Mixed(MixedKind {
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
            batch.validate_for(SolutionKind::Spl(ProtocolKind::Grr), &[5, 2, 3, 2]),
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
        // structural walk but not the numeric field's magnitude rule.
        let mut forged = batch.clone();
        // words: [header, dim0, value0, dim1, raw1, ...] — words[4] is the
        // first numeric fixed-point payload.
        assert_eq!(forged.words[3] & 0b11, 1);
        forged.words[4] = (i64::MAX / 2) as u64;
        assert!(walk(&forged.words, forged.len(), None).is_ok());
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

    /// Every kind whose reports are one fixed word length; a layout
    /// template covers the value-entry ones among them.
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
        let olh_mixed = SolutionKind::Mixed(MixedKind {
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

    /// Word offset of each entry's header within one report of `fields`.
    fn entry_offsets(fields: &[Field]) -> Vec<usize> {
        let mut at = 1;
        fields
            .iter()
            .map(|field| {
                at += field.words();
                at - field.words()
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
                    let layout = solution.layout();
                    let batch = sample_batch(kind, ks, n, seed);
                    let unary = matches!(layout.fields[0], Field::Bits { .. });
                    // The value-entry layouts compile to a template, which
                    // accepts their own batches; the bit-vector ones do not.
                    let templated_kind = layout.template_accepts(&batch.words, batch.len());
                    proptest::prop_assert_eq!(templated_kind, !unary, "{}", kind);
                    templated += usize::from(templated_kind);
                    let len = batch.words.len() / batch.len();
                    let report = (pick as usize % batch.len()) * len;
                    let offsets = entry_offsets(&layout.fields);
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
                                let tag = if unary { TAG_BITS } else { 0 };
                                words[report + offsets[j]] = tag | k << 2;
                            }
                        }
                        if templated_kind {
                            let by_template = layout.template_accepts(&words, batch.len());
                            let by_walk = walk(&words, batch.len(), Some(&solution));
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

            // Every other kind's rules come from the same layouts: SMP, SPL
            // over OLH and SS, and mixed solutions, under an unmutated
            // batch, one flipped bit anywhere, and a dropped or an extra
            // trailing word.
            let mut variable: Vec<(DynSolution, CompactBatch)> = Vec::new();
            for protocol in ProtocolKind::ALL {
                let ks = [5usize, 3, 65];
                for kind in [SolutionKind::Smp(protocol), SolutionKind::Spl(protocol)] {
                    variable.push((kind.build(&ks, 2.0).unwrap(), sample_batch(kind, &ks, n, seed)));
                }
                let mixed = SolutionKind::Mixed(MixedKind {
                    protocol,
                    numeric: crate::numeric::NumericKind::Piecewise,
                    sample_k: 3,
                });
                let solution = mixed.build(&MIXED_KS, 2.0).unwrap();
                let mut rng = StdRng::seed_from_u64(seed);
                let mut batch = CompactBatch::new();
                for uid in 0..n {
                    let cat = [uid as u32 % 5, uid as u32 % 3];
                    let report = solution.report_mixed(&cat, &[0.5, -0.25], &mut rng).unwrap();
                    batch.push(uid, &report);
                }
                variable.push((solution, batch));
            }
            for (solution, batch) in &variable {
                for mutation in 0..4 {
                    let mut words = batch.words.clone();
                    match mutation {
                        0 => {}
                        1 => words[pick as usize % batch.words.len()] ^= 1 << bit,
                        2 => {
                            words.pop();
                        }
                        _ => words.push(u64::from(bit)),
                    }
                    let mut bytes = Vec::new();
                    CompactBatch { uids: batch.uids.clone(), words }.encode_into(&mut bytes);
                    let two_pass = CompactBatch::decode_from(&bytes)
                        .and_then(|b| b.validate_for_solution(solution).map(|()| b));
                    let one_pass = CompactBatch::decode_for(&bytes, solution);
                    proptest::prop_assert_eq!(&one_pass, &two_pass, "{}, mutation {}", solution.name(), mutation);
                    proptest::prop_assert!(mutation != 0 || one_pass.is_ok(), "{}", solution.name());
                }
            }
        }
    }

    /// The layout's word counts are the words each writer emits, for every
    /// kind: SPL, RS+FD and RS+RFD reports take the layout's fixed count,
    /// an SMP report one header and its attribute's field, a mixed report
    /// one header and a dimension word plus a field per sampled dimension.
    #[test]
    fn layout_word_counts_equal_what_each_writer_emits() {
        let ks = [7usize, 4, 65, 130];
        let mut solutions: Vec<DynSolution> = all_kinds()
            .into_iter()
            .chain(fixed_shape_kinds())
            .map(|kind| kind.build(&ks, 1.5).unwrap())
            .collect();
        for protocol in ProtocolKind::ALL {
            let mixed = SolutionKind::Mixed(MixedKind {
                protocol,
                numeric: crate::numeric::NumericKind::Duchi,
                sample_k: 3,
            });
            solutions.push(mixed.build(&MIXED_KS, 1.5).unwrap());
        }
        let mut rng = StdRng::seed_from_u64(31);
        for solution in &solutions {
            let fields = &solution.layout().fields;
            for uid in 0..50u32 {
                let (report, expected) = match solution {
                    DynSolution::Mixed(_) => {
                        let cat = [uid % 5, uid % 3];
                        let report = solution.report_mixed(&cat, &[0.5, -0.5], &mut rng).unwrap();
                        let dims = report.to_mixed().unwrap().entries;
                        let words = dims.iter().map(|(j, _)| 1 + fields[*j].words());
                        (report.clone(), 1 + words.sum::<usize>())
                    }
                    _ => {
                        let tuple: Vec<u32> = ks.iter().map(|&k| uid % k as u32).collect();
                        let report = solution.report(&tuple, &mut rng);
                        let expected = match report.to_smp() {
                            Some(smp) => 1 + fields[smp.attr].words(),
                            None => solution.layout().words,
                        };
                        (report, expected)
                    }
                };
                assert_eq!(report.words().len(), expected, "{}", solution.name());
            }
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
