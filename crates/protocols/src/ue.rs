//! Unary-encoding protocols (SUE and OUE), §2.2.4 of the paper.
//!
//! The input is one-hot encoded into a `k`-bit vector `B`, and every bit is
//! flipped independently:
//!
//! * **SUE** (symmetric, a.k.a. Basic One-time RAPPOR):
//!   `p = e^{ε/2} / (e^{ε/2} + 1)`, `q = 1 / (e^{ε/2} + 1)` (so `p + q = 1`).
//! * **OUE** (optimized): `p = 1/2`, `q = 1 / (e^ε + 1)`.
//!
//! Both satisfy ε-LDP with `ε = ln(p(1−q) / ((1−p)q))`.
//!
//! Besides one-hot inputs, [`UnaryEncoding::perturb_bits`] sanitizes an
//! arbitrary bit vector — the primitive the RS+FD solution uses to build fake
//! reports from zero-vectors (`UE-z`) or random one-hot vectors (`UE-r`).
//!
//! # Word-parallel sanitization
//!
//! Sanitizing per bit (one `f64` draw and one bounds-checked store per lane)
//! made UE the client-side bottleneck of every UE-backed solution, so
//! [`UnaryEncoding::perturb_bits_into`] generates whole 64-bit words instead,
//! choosing between two regimes on the protocol's `(p, q)`:
//!
//! * **Sparse** (`q ≤ 2⁻⁵`): the set bits of the Bernoulli(q) background are
//!   geometric **skip-sampled** — one `ln` draw per *flip*, `O(q·k)` work
//!   instead of `O(k)` — and each input 1-bit is then overwritten with an
//!   independent Bernoulli(p) decision (a single 64-bit threshold compare).
//! * **Dense** (`q > 2⁻⁵`): each output word is a batched 64-lane Bernoulli
//!   mask built by `bernoulli_mask` — a lexicographic fixed-point-threshold
//!   compare that spends one RNG word per *still-undecided* lane set, so a
//!   full 64-lane word costs `≈ log₂ 64 + 2 ≈ 8` draws instead of 64. OUE's
//!   `p = 1/2` mask is a single raw RNG word.
//!
//! The crossover constant comes from the per-word cost model: the dense scan
//! decides a `w`-lane word in `≈ log₂ w + 2` draws, while the sparse path
//! pays `≈ 3` draw-equivalents (one `f64` draw plus an `ln`) per expected
//! flip, i.e. `3·q·w` per word — `p` and `k` drop out because input 1-bits
//! cost one threshold compare in either regime and both costs scale linearly
//! with the word count. `3·q·64 < 8 ⇔ q < 1/24`; `2⁻⁵` keeps a safety
//! margin for the flatter small-`k` case (`benches/absorb.rs` measures the
//! two paths on either side at k ∈ {32, 256, 1024}).
//!
//! **Equivalence contract**: the word-parallel paths produce the *exact
//! per-protocol marginal distribution* (each output bit independently 1 with
//! probability `p` on input 1-lanes and `q` on 0-lanes, to the 64-bit
//! fixed-point resolution of `p` and `q` themselves) — but they consume RNG
//! draws in a different order and quantity than the per-bit reference, so
//! bit-stream equality with the old sanitizer is *not* part of the contract.
//! Correctness is certified statistically: `tests/sanitize_conformance.rs`
//! holds per-bit and pooled marginals inside 5σ analytic bands and checks
//! pairwise bit independence, with `#[cfg(test)]` injected-bug shims proving
//! the bands actually reject broken word-mask generators.

use rand::Rng;

use crate::bitvec::{lanes_at, low_lanes, BitVec};
use crate::error::ProtocolError;
use crate::oracle::{FrequencyOracle, Report};
use crate::{validate_domain, validate_epsilon};

/// Which unary-encoding parametrization to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UeMode {
    /// SUE / Basic One-time RAPPOR (`p + q = 1`).
    Symmetric,
    /// OUE, variance-optimal (`p = 1/2`).
    Optimized,
}

impl UeMode {
    /// Paper-style name ("SUE" or "OUE").
    pub fn name(self) -> &'static str {
        match self {
            UeMode::Symmetric => "SUE",
            UeMode::Optimized => "OUE",
        }
    }
}

/// Sparse/dense crossover: skip-sampling is used when `q ≤ 2⁻⁵` (see the
/// module-level cost model).
const SPARSE_Q_MAX: f64 = 1.0 / 32.0;

/// `p = 1/2` as a 64-bit fixed-point threshold — OUE's kept-bit mask
/// degenerates to a single raw RNG word.
const HALF_THRESHOLD: u64 = 1u64 << 63;

/// Converts a probability to a 64-bit fixed-point threshold `t` such that
/// `rng.next_u64() < t` holds with probability `t · 2⁻⁶⁴` — the closest
/// representable value to `prob` (the float→int cast saturates, so
/// `prob ≥ 1 − 2⁻⁶⁵` maps to `u64::MAX`).
fn fixed_point(prob: f64) -> u64 {
    debug_assert!((0.0..=1.0).contains(&prob), "probability out of range");
    (prob * 18_446_744_073_709_551_616.0) as u64
}

/// Builds a word whose `lanes` bits are independently 1 with probability
/// `threshold · 2⁻⁶⁴` (bits outside `lanes` are 0).
///
/// Each lane conceptually compares its own random bit stream against the
/// threshold's binary expansion, most significant bit first; a lane is
/// decided as soon as its drawn bit differs from the threshold bit, so the
/// undecided set halves per draw and a full 64-lane word finishes in
/// `≈ log₂ 64 + 2` draws in expectation (worst case 64 — lanes whose 64
/// drawn bits all equal the threshold compare `==`, which is *not* `<`, and
/// resolve to 0).
#[inline]
fn bernoulli_mask<R: Rng + ?Sized>(threshold: u64, lanes: u64, rng: &mut R) -> u64 {
    let mut ones = 0u64;
    let mut tied = lanes;
    let mut bit = 63u32;
    while tied != 0 {
        let r = rng.next_u64();
        if (threshold >> bit) & 1 == 1 {
            // Lanes that drew 0 under a threshold bit of 1 are decided `<`.
            ones |= tied & !r;
            tied &= r;
        } else {
            // Lanes that drew 1 under a threshold bit of 0 are decided `>`.
            tied &= !r;
        }
        if bit == 0 {
            break;
        }
        bit -= 1;
    }
    ones
}

/// One dense sanitized word: the `hot` (input 1-) lanes kept with
/// probability `p_thresh · 2⁻⁶⁴`, the other `lanes` set with probability
/// `q_thresh · 2⁻⁶⁴`. Draw order is fixed: the q-mask first, then — only
/// when `hot` is non-empty — the p-mask (one raw RNG word for OUE's
/// `p = 1/2`).
#[inline]
fn sanitize_word<R: Rng + ?Sized>(
    p_thresh: u64,
    q_thresh: u64,
    lanes: u64,
    hot: u64,
    rng: &mut R,
) -> u64 {
    let q_mask = bernoulli_mask(q_thresh, lanes & !hot, rng);
    if hot == 0 {
        return q_mask;
    }
    let p_mask = if p_thresh == HALF_THRESHOLD {
        rng.next_u64()
    } else {
        bernoulli_mask(p_thresh, hot, rng)
    };
    (hot & p_mask) | q_mask
}

/// Unary-encoding protocol (SUE or OUE) for one categorical attribute.
#[derive(Debug, Clone)]
pub struct UnaryEncoding {
    k: usize,
    epsilon: f64,
    mode: UeMode,
    p: f64,
    q: f64,
    /// 64-bit fixed-point thresholds of `p` and `q` (see [`fixed_point`]).
    p_thresh: u64,
    q_thresh: u64,
    /// `1 / ln(1 − q)` — the geometric skip-sampling gap scale.
    inv_log1mq: f64,
    /// Chosen regime for the Bernoulli(q) background (`q ≤ SPARSE_Q_MAX`).
    sparse: bool,
}

impl UnaryEncoding {
    /// Creates a UE instance for domain size `k`, budget `epsilon` and `mode`.
    pub fn new(k: usize, epsilon: f64, mode: UeMode) -> Result<Self, ProtocolError> {
        let k = validate_domain(k)?;
        let epsilon = validate_epsilon(epsilon)?;
        let (p, q) = match mode {
            UeMode::Symmetric => {
                let e2 = (epsilon / 2.0).exp();
                (e2 / (e2 + 1.0), 1.0 / (e2 + 1.0))
            }
            UeMode::Optimized => (0.5, 1.0 / (epsilon.exp() + 1.0)),
        };
        Ok(UnaryEncoding {
            k,
            epsilon,
            mode,
            p,
            q,
            p_thresh: fixed_point(p),
            q_thresh: fixed_point(q),
            inv_log1mq: 1.0 / (-q).ln_1p(),
            sparse: q <= SPARSE_Q_MAX,
        })
    }

    /// The parametrization in use.
    pub fn mode(&self) -> UeMode {
        self.mode
    }

    /// Probability that a 1-bit stays 1.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Probability that a 0-bit flips to 1.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// Whether the Bernoulli(q) background uses the geometric skip-sampling
    /// regime (`q ≤ 2⁻⁵`) rather than batched dense word masks — exposed so
    /// benches and the conformance suite can label which side of the
    /// crossover a configuration lands on.
    pub fn sparse_path(&self) -> bool {
        self.sparse
    }

    /// Sanitizes an arbitrary `k`-bit input vector: 1-bits stay 1 with
    /// probability `p`, 0-bits become 1 with probability `q`, every bit
    /// independent. Allocating wrapper around
    /// [`UnaryEncoding::perturb_bits_into`].
    ///
    /// # Panics
    /// Panics if `input.len() != k`.
    pub fn perturb_bits<R: Rng + ?Sized>(&self, input: &BitVec, rng: &mut R) -> BitVec {
        let mut out = BitVec::zeros(self.k);
        self.perturb_bits_into(input, &mut out, rng);
        out
    }

    /// [`UnaryEncoding::perturb_bits`] into a caller-owned vector — the
    /// zero-allocation sanitize entry point. Prior content of `out` is
    /// overwritten whole-word (sparse runs clear it first), so a pooled
    /// vector can be reused across reports without reallocating.
    ///
    /// # Panics
    /// Panics if `input.len() != k` or `out.len() != k`.
    pub fn perturb_bits_into<R: Rng + ?Sized>(
        &self,
        input: &BitVec,
        out: &mut BitVec,
        rng: &mut R,
    ) {
        assert_eq!(input.len(), self.k, "input length must equal domain size");
        assert_eq!(out.len(), self.k, "output length must equal domain size");
        self.perturb_with(input, out, rng, self.sparse);
    }

    /// Sanitizes the all-zero vector (the RS+FD `UE-z` fake-data primitive).
    /// The zero input is never materialized — the word-parallel background
    /// sampler writes the Bernoulli(q) words directly — so the only
    /// allocation is the returned vector itself.
    pub fn perturb_zero_vector<R: Rng + ?Sized>(&self, rng: &mut R) -> BitVec {
        let mut out = BitVec::zeros(self.k);
        self.perturb_zero_vector_into(&mut out, rng);
        out
    }

    /// [`UnaryEncoding::perturb_zero_vector`] into a caller-owned vector
    /// (zero allocations; prior content is overwritten).
    ///
    /// # Panics
    /// Panics if `out.len() != k`.
    pub fn perturb_zero_vector_into<R: Rng + ?Sized>(&self, out: &mut BitVec, rng: &mut R) {
        assert_eq!(out.len(), self.k, "output length must equal domain size");
        self.sample_background_into(out, rng, self.sparse);
    }

    /// The original per-bit sanitizer (one `f64` draw per lane), kept as the
    /// distributional reference the conformance suite and the sanitize
    /// micro-bench compare the word-parallel paths against.
    #[doc(hidden)]
    pub fn perturb_bits_reference<R: Rng + ?Sized>(&self, input: &BitVec, rng: &mut R) -> BitVec {
        assert_eq!(input.len(), self.k, "input length must equal domain size");
        let mut out = BitVec::zeros(self.k);
        for i in 0..self.k {
            let keep_p = if input.get(i) { self.p } else { self.q };
            if rng.random::<f64>() < keep_p {
                out.set(i, true);
            }
        }
        out
    }

    /// Forced sparse-regime sanitize (conformance-testing hook: the
    /// crossover property tests drive both regimes on the same `(p, q, k)`).
    #[doc(hidden)]
    pub fn perturb_bits_sparse_into<R: Rng + ?Sized>(
        &self,
        input: &BitVec,
        out: &mut BitVec,
        rng: &mut R,
    ) {
        assert_eq!(input.len(), self.k, "input length must equal domain size");
        assert_eq!(out.len(), self.k, "output length must equal domain size");
        self.perturb_with(input, out, rng, true);
    }

    /// Forced dense-regime sanitize (conformance-testing hook).
    #[doc(hidden)]
    pub fn perturb_bits_dense_into<R: Rng + ?Sized>(
        &self,
        input: &BitVec,
        out: &mut BitVec,
        rng: &mut R,
    ) {
        assert_eq!(input.len(), self.k, "input length must equal domain size");
        assert_eq!(out.len(), self.k, "output length must equal domain size");
        self.perturb_with(input, out, rng, false);
    }

    /// The word-parallel sanitizer behind every public path.
    fn perturb_with<R: Rng + ?Sized>(
        &self,
        input: &BitVec,
        out: &mut BitVec,
        rng: &mut R,
        sparse: bool,
    ) {
        if sparse {
            // Bernoulli(q) background over all lanes (input 1-lanes
            // included), then each input 1-bit is overwritten with an
            // independent Bernoulli(p) decision — the final marginal of a
            // 1-lane is exactly p regardless of its background draw.
            self.sample_background_into(out, rng, true);
            for j in input.ones() {
                out.set(j, rng.next_u64() < self.p_thresh);
            }
        } else {
            for wi in 0..out.word_count() {
                let lanes = out.lane_mask(wi);
                let in_w = input.blocks()[wi];
                let word = sanitize_word(self.p_thresh, self.q_thresh, lanes, in_w, rng);
                out.set_word(wi, word);
            }
        }
    }

    /// Overwrites `out` with independent Bernoulli(q) bits — the shared
    /// background stage of every sanitize path (and the whole of `UE-z`).
    fn sample_background_into<R: Rng + ?Sized>(&self, out: &mut BitVec, rng: &mut R, sparse: bool) {
        if sparse {
            out.clear();
            let mut pos = self.next_gap(rng);
            let end = self.k as f64;
            while pos < end {
                out.set(pos as usize, true);
                pos += 1.0 + self.next_gap(rng);
            }
        } else {
            for wi in 0..out.word_count() {
                let lanes = out.lane_mask(wi);
                out.set_word(wi, bernoulli_mask(self.q_thresh, lanes, rng));
            }
        }
    }

    /// One geometric skip-sampling gap: the number of unflipped lanes before
    /// the next flip, `⌊ln(1−U) / ln(1−q)⌋` with `U` uniform in `[0, 1)`.
    /// Kept in `f64` so a huge gap (tiny `q`) compares against `k` without
    /// integer overflow.
    #[inline]
    fn next_gap<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.random();
        ((-u).ln_1p() * self.inv_log1mq).floor()
    }
}

impl FrequencyOracle for UnaryEncoding {
    fn domain_size(&self) -> usize {
        self.k
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn randomize<R: Rng + ?Sized>(&self, value: u32, rng: &mut R) -> Report {
        debug_assert!((value as usize) < self.k, "value out of domain");
        // One-hot sanitize without materializing the one-hot input: sample
        // the Bernoulli(q) background, then overwrite the hot lane with an
        // independent Bernoulli(p) decision.
        let mut out = BitVec::zeros(self.k);
        self.sample_background_into(&mut out, rng, self.sparse);
        out.set(value as usize, rng.next_u64() < self.p_thresh);
        Report::Bits(out)
    }

    fn supports(&self, report: &Report, value: u32) -> bool {
        matches!(report, Report::Bits(bits) if bits.get(value as usize))
    }

    fn est_p(&self) -> f64 {
        self.p
    }

    fn est_q(&self) -> f64 {
        self.q
    }
}

/// Packed words a fused tuple keeps on the stack: 512 lanes, well past every
/// survey shape of the paper (Adult Σk = 174, ACS Σk = 198). Wider tuples
/// spill their packed words to the heap.
const STACK_WORDS: usize = 8;

/// Word-fused sanitizer for a tuple of [`UnaryEncoding`] oracles that share
/// one `(p, q)` pair.
///
/// SPL\[UE\] tuples have exactly this shape: every attribute runs at the same
/// per-attribute budget ε/d, and UE's `(p, q)` depend only on ε — not on the
/// domain size — so the `d` one-hot reports can be drawn as *one* unary
/// encoding of the concatenated domains. The `Σk` lanes are packed tightly
/// into `⌈Σk/64⌉` words; each packed word costs one `bernoulli_mask(q)`
/// scan over its cold lanes, then — when it holds a hot lane — one p-mask
/// (a single raw RNG word for OUE's `p = 1/2`), words in order. The Adult
/// tuple (Σk = 174) thus costs three word draws instead of ten per-attribute
/// scans. The packed words are then sliced back into per-attribute fields
/// ([`FusedUeGroup::randomize_tuple_fields`]); a field may straddle a word
/// boundary, and a `k > 64` field spans two or more words.
///
/// Marginals are identical to calling [`FrequencyOracle::randomize`] once per
/// oracle — every packed lane still compares its own independent bit stream
/// against the shared threshold — only the draw order and count differ, which
/// the statistical-equivalence contract (module docs) explicitly permits. A
/// single-word group (Σk ≤ 64) draws exactly one q-mask then one p-mask.
#[derive(Debug, Clone)]
pub struct FusedUeGroup {
    p_thresh: u64,
    q_thresh: u64,
    /// Packed layout: `(bit offset, domain size)` per attribute, in tuple
    /// order, tightly packed from bit 0.
    layout: Vec<(u32, u32)>,
    /// Packed width `Σk`.
    lanes: usize,
}

impl FusedUeGroup {
    /// Builds the fused sanitizer, or `None` when the tuple cannot fuse: an
    /// empty group, or mixed `(p, q)` thresholds (different budgets or
    /// modes). The packed width is unbounded.
    pub fn build<'a, I>(oracles: I) -> Option<Self>
    where
        I: IntoIterator<Item = &'a UnaryEncoding>,
    {
        let mut it = oracles.into_iter().peekable();
        let first = it.peek()?;
        let (p_thresh, q_thresh) = (first.p_thresh, first.q_thresh);
        let mut layout = Vec::new();
        let mut lanes = 0usize;
        for ue in it {
            if ue.p_thresh != p_thresh || ue.q_thresh != q_thresh {
                return None;
            }
            layout.push((lanes as u32, ue.k as u32));
            lanes += ue.k;
        }
        Some(FusedUeGroup {
            p_thresh,
            q_thresh,
            layout,
            lanes,
        })
    }

    /// Number of fused attributes.
    pub fn width(&self) -> usize {
        self.layout.len()
    }

    /// Number of packed 64-bit words one tuple draw spans (`⌈Σk/64⌉`).
    pub fn word_count(&self) -> usize {
        self.lanes.div_ceil(64)
    }

    /// Sanitizes the whole tuple with one packed multi-word draw and hands
    /// each attribute's field to `emit`, in tuple order, as `(k_j, words)`:
    /// the field's `⌈k_j/64⌉` 64-lane words, lanes past `k_j` zero — the
    /// blocks a `k_j`-bit [`BitVec`] would hold. This is the one place
    /// fields are sliced out of the packed words; a sink may copy them into
    /// a report, an encoded buffer or anything else.
    ///
    /// # Panics
    /// Panics if `values.len() != self.width()` or a value lies outside its
    /// attribute's domain — checked in every build, because an unchecked
    /// value would set a lane of the *next* attribute's field.
    pub fn randomize_tuple_fields<R: Rng + ?Sized>(
        &self,
        values: &[u32],
        rng: &mut R,
        mut emit: impl FnMut(usize, &[u64]),
    ) {
        // The packed words, then as many words of field scratch: a field
        // never spans more blocks than the whole tuple.
        match self.word_count() {
            n if n <= STACK_WORDS => {
                self.draw_fields(values, &mut [0; 2 * STACK_WORDS][..2 * n], rng, &mut emit)
            }
            n => self.draw_fields(values, &mut vec![0; 2 * n], rng, &mut emit),
        }
    }

    /// [`FusedUeGroup::randomize_tuple_fields`] into structured reports:
    /// pushes one `k_j`-bit [`Report::Bits`] per attribute onto `out`.
    ///
    /// # Panics
    /// As [`FusedUeGroup::randomize_tuple_fields`].
    pub fn randomize_tuple_into<R: Rng + ?Sized>(
        &self,
        values: &[u32],
        out: &mut Vec<Report>,
        rng: &mut R,
    ) {
        out.reserve(self.width());
        self.randomize_tuple_fields(values, rng, |k, blocks| {
            out.push(Report::Bits(BitVec::from_blocks(blocks, k)))
        });
    }

    /// The packed draw over the zeroed first half of `buf` (`⌈Σk/64⌉`
    /// words), its second half being the field scratch.
    #[inline]
    fn draw_fields<R: Rng + ?Sized>(
        &self,
        values: &[u32],
        buf: &mut [u64],
        rng: &mut R,
        emit: &mut impl FnMut(usize, &[u64]),
    ) {
        let (words, field) = buf.split_at_mut(buf.len() / 2);
        self.set_hot(values, words);
        for (wi, word) in words.iter_mut().enumerate() {
            let lanes = low_lanes(self.lanes - 64 * wi);
            *word = sanitize_word(self.p_thresh, self.q_thresh, lanes, *word, rng);
        }
        self.emit_fields(words, field, emit);
    }

    /// Sets the hot lane of every value in the zeroed packed `words`.
    #[inline]
    fn set_hot(&self, values: &[u32], words: &mut [u64]) {
        assert_eq!(values.len(), self.layout.len(), "tuple width mismatch");
        for (j, (&v, &(off, k))) in values.iter().zip(&self.layout).enumerate() {
            assert!(v < k, "attribute {j}: value {v} outside its domain 0..{k}");
            let lane = (off + v) as usize;
            words[lane / 64] |= 1 << (lane % 64);
        }
    }

    /// Slices each attribute's field out of the sanitized packed `words`
    /// into `field` (scratch at least as long as the widest field's
    /// blocks) and hands it to `emit`. A field may straddle a word
    /// boundary, and a `k > 64` field spans two or more words.
    #[inline]
    fn emit_fields(&self, words: &[u64], field: &mut [u64], emit: &mut impl FnMut(usize, &[u64])) {
        for &(off, k) in &self.layout {
            let (off, k) = (off as usize, k as usize);
            let blocks = &mut field[..k.div_ceil(64)];
            for (j, block) in blocks.iter_mut().enumerate() {
                *block = lanes_at(words, off + 64 * j) & low_lanes(k - 64 * j);
            }
            emit(k, blocks);
        }
    }
}

/// Deliberate word-mask defects injected behind the test shim
/// [`UnaryEncoding::perturb_bits_buggy`], so the sanitize conformance bands
/// can prove they *reject* each class of bug (power guards — the statistical
/// suite must not rot into a rubber stamp).
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InjectedBug {
    /// Off-by-one in an 8-bit-coarse fixed-point compare: the q threshold is
    /// shifted up by exactly 2⁻⁸, biasing every 0-lane by +1/256.
    BiasedThreshold,
    /// The final partial word of a non-multiple-of-64 domain is never
    /// sanitized (its lanes stay 0).
    SkippedTail,
    /// The first word's Bernoulli(q) mask is reused for every later word,
    /// perfectly correlating same-lane bits across words.
    ReusedMask,
}

#[cfg(test)]
impl UnaryEncoding {
    /// Dense-regime sanitize with `bug` injected — test-only shim.
    pub(crate) fn perturb_bits_buggy<R: Rng + ?Sized>(
        &self,
        input: &BitVec,
        rng: &mut R,
        bug: InjectedBug,
    ) -> BitVec {
        assert_eq!(input.len(), self.k, "input length must equal domain size");
        let q_thresh = match bug {
            InjectedBug::BiasedThreshold => self.q_thresh + (1u64 << 56),
            _ => self.q_thresh,
        };
        let mut out = BitVec::zeros(self.k);
        let words = out.word_count();
        let mut reused: Option<u64> = None;
        for wi in 0..words {
            if bug == InjectedBug::SkippedTail && wi + 1 == words && !self.k.is_multiple_of(64) {
                continue;
            }
            let lanes = out.lane_mask(wi);
            let in_w = input.blocks()[wi];
            let q_mask = match (bug, reused) {
                (InjectedBug::ReusedMask, Some(mask)) => mask,
                _ => {
                    let mask = bernoulli_mask(q_thresh, lanes & !in_w, rng);
                    reused = Some(mask);
                    mask
                }
            };
            let word = if in_w == 0 {
                q_mask
            } else {
                let p_mask = if self.p_thresh == HALF_THRESHOLD {
                    rng.next_u64()
                } else {
                    bernoulli_mask(self.p_thresh, in_w, rng)
                };
                (in_w & p_mask) | q_mask
            };
            out.set_word(wi, word);
        }
        out
    }
}

#[cfg(test)]
impl FusedUeGroup {
    /// [`FusedUeGroup::randomize_tuple_into`] with a deliberate defect — the
    /// first hot word's p-mask is reused for every later word, so hot lanes
    /// at the same lane index in different words are identical — test-only
    /// shim for the power guards. (A slicing defect can be injected from
    /// outside; `tests/sanitize_conformance.rs` guards that one.)
    pub(crate) fn randomize_tuple_reusing_keep_mask<R: Rng + ?Sized>(
        &self,
        values: &[u32],
        rng: &mut R,
    ) -> Vec<Report> {
        let mut words = vec![0; self.word_count()];
        self.set_hot(values, &mut words);
        let mut keep: Option<u64> = None;
        for (wi, word) in words.iter_mut().enumerate() {
            let lanes = low_lanes(self.lanes - 64 * wi);
            let hot = *word;
            let q_mask = bernoulli_mask(self.q_thresh, lanes & !hot, rng);
            let p_mask = *keep.get_or_insert_with(|| {
                if self.p_thresh == HALF_THRESHOLD {
                    rng.next_u64()
                } else {
                    bernoulli_mask(self.p_thresh, !0, rng)
                }
            });
            *word = (hot & p_mask) | q_mask;
        }
        let mut out = Vec::new();
        self.emit_fields(&words, &mut vec![0; words.len()], &mut |k, blocks| {
            out.push(Report::Bits(BitVec::from_blocks(blocks, k)))
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sue_parameters_are_symmetric() {
        let ue = UnaryEncoding::new(10, 2.0, UeMode::Symmetric).unwrap();
        assert!((ue.p() + ue.q() - 1.0).abs() < 1e-12);
        let e2 = 1.0f64.exp(); // e^{2/2}
        assert!((ue.p() - e2 / (e2 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn oue_parameters_match_closed_form() {
        let ue = UnaryEncoding::new(10, 2.0, UeMode::Optimized).unwrap();
        assert!((ue.p() - 0.5).abs() < 1e-12);
        assert!((ue.q() - 1.0 / (2.0f64.exp() + 1.0)).abs() < 1e-12);
        assert_eq!(ue.p_thresh, HALF_THRESHOLD, "OUE p must be exactly 1/2");
    }

    #[test]
    fn both_modes_satisfy_epsilon_ldp_identity() {
        // ε = ln(p(1−q) / ((1−p)q)) must hold exactly.
        for mode in [UeMode::Symmetric, UeMode::Optimized] {
            for eps in [0.5, 1.0, 4.0] {
                let ue = UnaryEncoding::new(7, eps, mode).unwrap();
                let implied = (ue.p() * (1.0 - ue.q()) / ((1.0 - ue.p()) * ue.q())).ln();
                assert!(
                    (implied - eps).abs() < 1e-9,
                    "{:?} eps={eps}: implied {implied}",
                    mode
                );
            }
        }
    }

    #[test]
    fn crossover_follows_q() {
        // ε = 1 → OUE q ≈ 0.27 (dense); ε = 4 → q ≈ 0.018 (sparse).
        assert!(!UnaryEncoding::new(8, 1.0, UeMode::Optimized)
            .unwrap()
            .sparse_path());
        assert!(UnaryEncoding::new(8, 4.0, UeMode::Optimized)
            .unwrap()
            .sparse_path());
        // SUE at ε = 8 → q = 1/(e⁴+1) ≈ 0.018 (sparse).
        assert!(UnaryEncoding::new(8, 8.0, UeMode::Symmetric)
            .unwrap()
            .sparse_path());
    }

    #[test]
    fn fixed_point_thresholds_match_probabilities() {
        for prob in [0.0f64, 1e-9, 0.25, 0.5, 0.75, 1.0 - 1e-12, 1.0] {
            let t = fixed_point(prob);
            let back = t as f64 / 18_446_744_073_709_551_616.0;
            assert!(
                (back - prob).abs() < 1e-12,
                "prob {prob}: threshold round-trips to {back}"
            );
        }
    }

    #[test]
    fn bernoulli_mask_respects_lanes_and_rate() {
        let mut rng = StdRng::seed_from_u64(99);
        let lanes = 0x00FF_FF00_0F0F_0FF0u64;
        let t = fixed_point(0.3);
        let trials = 20_000;
        let mut set = 0u64;
        for _ in 0..trials {
            let m = bernoulli_mask(t, lanes, &mut rng);
            assert_eq!(m & !lanes, 0, "bits outside lanes must stay zero");
            set += m.count_ones() as u64;
        }
        let rate = set as f64 / (trials as f64 * lanes.count_ones() as f64);
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn randomize_produces_k_bit_reports() {
        let ue = UnaryEncoding::new(16, 1.0, UeMode::Optimized).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        match ue.randomize(3, &mut rng) {
            Report::Bits(b) => assert_eq!(b.len(), 16),
            other => panic!("unexpected shape {other:?}"),
        }
    }

    #[test]
    fn empirical_bit_rates_match_p_and_q() {
        let ue = UnaryEncoding::new(8, 1.5, UeMode::Symmetric).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let trials = 40_000;
        let mut true_bit = 0usize;
        let mut other_bit = 0usize;
        for _ in 0..trials {
            if let Report::Bits(b) = ue.randomize(2, &mut rng) {
                if b.get(2) {
                    true_bit += 1;
                }
                if b.get(5) {
                    other_bit += 1;
                }
            }
        }
        let p_emp = true_bit as f64 / trials as f64;
        let q_emp = other_bit as f64 / trials as f64;
        assert!((p_emp - ue.p()).abs() < 0.01);
        assert!((q_emp - ue.q()).abs() < 0.01);
    }

    #[test]
    fn perturb_zero_vector_sets_bits_at_rate_q() {
        let ue = UnaryEncoding::new(50, 1.0, UeMode::Optimized).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let trials = 2000;
        let total: usize = (0..trials)
            .map(|_| ue.perturb_zero_vector(&mut rng).count_ones())
            .sum();
        let rate = total as f64 / (trials * 50) as f64;
        assert!((rate - ue.q()).abs() < 0.01, "rate {rate} vs q {}", ue.q());
    }

    #[test]
    fn perturb_bits_into_reuses_the_output_vector() {
        let ue = UnaryEncoding::new(100, 1.0, UeMode::Symmetric).unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        let input = BitVec::one_hot(100, 61);
        let mut out = BitVec::zeros(100);
        // Fill with garbage first: every path must fully overwrite.
        for wi in 0..out.word_count() {
            out.set_word(wi, !0);
        }
        ue.perturb_bits_into(&input, &mut out, &mut rng);
        let ones = out.count_ones();
        // SUE at ε=1: q ≈ 0.38, so ~38 background ones expected; a stale
        // all-ones vector would report ~100.
        assert!(ones < 70, "stale output content leaked: {ones} ones");
        // The trailing-lane invariant survives word writes (k = 100).
        let rebuilt = BitVec::from_blocks(out.blocks(), 100);
        assert_eq!(rebuilt, out);
    }

    #[test]
    fn sparse_and_dense_agree_with_reference_on_pooled_rates() {
        // Quick three-way smoke (the full suite lives in
        // tests/sanitize_conformance.rs): pooled 1-lane and 0-lane rates of
        // the forced sparse path, forced dense path and per-bit reference
        // all match (p, q) at 5σ.
        let k = 96;
        let ue = UnaryEncoding::new(k, 2.0, UeMode::Optimized).unwrap();
        let mut input = BitVec::zeros(k);
        for i in [3usize, 64, 65, 95] {
            input.set(i, true);
        }
        let trials = 30_000usize;
        let ones_lanes = input.count_ones();
        let zero_lanes = k - ones_lanes;
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut check = |label: &str, f: &mut dyn FnMut(&mut StdRng) -> BitVec| {
            let (mut on_ones, mut on_zeros) = (0usize, 0usize);
            for _ in 0..trials {
                let out = f(&mut rng);
                for j in out.ones() {
                    if input.get(j) {
                        on_ones += 1;
                    } else {
                        on_zeros += 1;
                    }
                }
            }
            let p_hat = on_ones as f64 / (trials * ones_lanes) as f64;
            let q_hat = on_zeros as f64 / (trials * zero_lanes) as f64;
            let p_tol = 5.0 * (ue.p() * (1.0 - ue.p()) / (trials * ones_lanes) as f64).sqrt();
            let q_tol = 5.0 * (ue.q() * (1.0 - ue.q()) / (trials * zero_lanes) as f64).sqrt();
            assert!(
                (p_hat - ue.p()).abs() <= p_tol,
                "{label}: p_hat {p_hat} vs p {} (tol {p_tol})",
                ue.p()
            );
            assert!(
                (q_hat - ue.q()).abs() <= q_tol,
                "{label}: q_hat {q_hat} vs q {} (tol {q_tol})",
                ue.q()
            );
        };
        check("sparse", &mut |rng| {
            let mut out = BitVec::zeros(k);
            ue.perturb_bits_sparse_into(&input, &mut out, rng);
            out
        });
        check("dense", &mut |rng| {
            let mut out = BitVec::zeros(k);
            ue.perturb_bits_dense_into(&input, &mut out, rng);
            out
        });
        check("reference", &mut |rng| {
            ue.perturb_bits_reference(&input, rng)
        });
    }

    #[test]
    fn fused_group_rejects_mixed_parameters_at_any_width() {
        let a = UnaryEncoding::new(16, 1.0, UeMode::Optimized).unwrap();
        let b = UnaryEncoding::new(8, 1.0, UeMode::Optimized).unwrap();
        assert_eq!(FusedUeGroup::build([&a, &b]).unwrap().word_count(), 1);
        // Mismatched budgets → different (p, q) thresholds.
        let other_eps = UnaryEncoding::new(8, 2.0, UeMode::Optimized).unwrap();
        assert!(FusedUeGroup::build([&a, &other_eps]).is_none());
        // Mismatched modes at equal ε likewise.
        let sue = UnaryEncoding::new(8, 1.0, UeMode::Symmetric).unwrap();
        assert!(FusedUeGroup::build([&a, &sue]).is_none());
        // Width is no bar: Σk = 64 packs one word, Σk = 65 two, and the
        // Adult shape (Σk = 174, a k = 74 field) three.
        let rest = UnaryEncoding::new(48, 1.0, UeMode::Optimized).unwrap();
        assert_eq!(FusedUeGroup::build([&a, &rest]).unwrap().word_count(), 1);
        let wide = UnaryEncoding::new(49, 1.0, UeMode::Optimized).unwrap();
        assert_eq!(FusedUeGroup::build([&a, &wide]).unwrap().word_count(), 2);
        let adult: Vec<UnaryEncoding> = [74usize, 7, 16, 7, 14, 6, 5, 2, 41, 2]
            .iter()
            .map(|&k| UnaryEncoding::new(k, 1.0, UeMode::Optimized).unwrap())
            .collect();
        let fused = FusedUeGroup::build(&adult).unwrap();
        assert_eq!((fused.width(), fused.word_count()), (10, 3));
        // Mixed parameters are rejected wherever they sit in a wide tuple.
        assert!(FusedUeGroup::build(adult.iter().chain([&sue])).is_none());
        assert!(FusedUeGroup::build(std::iter::empty()).is_none());
    }

    /// Reference single-word fused sanitizer: one q-mask scan over the
    /// packed word, then one p-mask, sliced per field. Single-word groups
    /// must reproduce it draw for draw, so Nursery-shaped reports stay
    /// bit-identical.
    fn one_word_reference<R: Rng + ?Sized>(
        ues: &[UnaryEncoding],
        values: &[u32],
        rng: &mut R,
    ) -> Vec<Report> {
        let (p_thresh, q_thresh) = (ues[0].p_thresh, ues[0].q_thresh);
        let total: usize = ues.iter().map(|ue| ue.k).sum();
        assert!(total <= 64);
        let lanes = if total == 64 { !0 } else { (1u64 << total) - 1 };
        let mut hot = 0u64;
        let mut off = 0;
        for (ue, &v) in ues.iter().zip(values) {
            hot |= 1u64 << (off + v as usize);
            off += ue.k;
        }
        let q_mask = bernoulli_mask(q_thresh, lanes & !hot, rng);
        let p_mask = if p_thresh == HALF_THRESHOLD {
            rng.next_u64()
        } else {
            bernoulli_mask(p_thresh, hot, rng)
        };
        let word = (hot & p_mask) | q_mask;
        let mut off = 0;
        ues.iter()
            .map(|ue| {
                let mask = if ue.k == 64 { !0 } else { (1u64 << ue.k) - 1 };
                let bits = BitVec::from_blocks(&[(word >> off) & mask], ue.k);
                off += ue.k;
                Report::Bits(bits)
            })
            .collect()
    }

    #[test]
    fn single_word_groups_match_the_one_word_reference_draw_for_draw() {
        // Nursery (Σk = 32) and a full word (Σk = 64), SUE and OUE, on both
        // sides of the sparse crossover: same reports and same RNG position
        // after every tuple.
        let shapes: [&[usize]; 2] = [&[3, 5, 4, 4, 3, 2, 3, 3, 5], &[40, 16, 8]];
        for ks in shapes {
            for mode in [UeMode::Symmetric, UeMode::Optimized] {
                for eps in [0.1, 1.0, 40.0] {
                    let ues: Vec<UnaryEncoding> = ks
                        .iter()
                        .map(|&k| UnaryEncoding::new(k, eps, mode).unwrap())
                        .collect();
                    let fused = FusedUeGroup::build(&ues).unwrap();
                    assert_eq!(fused.word_count(), 1);
                    let mut fused_rng = StdRng::seed_from_u64(0x0DE5 + ks.len() as u64);
                    let mut reference_rng = fused_rng.clone();
                    let mut tuple_rng = StdRng::seed_from_u64(0x7E57);
                    let mut out = Vec::new();
                    for _ in 0..2000 {
                        let tuple: Vec<u32> = ks
                            .iter()
                            .map(|&k| tuple_rng.random_range(0..k as u32))
                            .collect();
                        out.clear();
                        fused.randomize_tuple_into(&tuple, &mut out, &mut fused_rng);
                        let reference = one_word_reference(&ues, &tuple, &mut reference_rng);
                        assert_eq!(out, reference, "{mode:?} eps={eps} ks={ks:?}");
                        assert_eq!(fused_rng, reference_rng, "draw count diverged");
                    }
                }
            }
        }
    }

    #[test]
    fn emit_fields_slices_straddling_fields() {
        // Three packed words with a known pattern; fields inside a word,
        // spanning one boundary (k = 74 from lane 5), straddling the next
        // (lanes 79..140), and ending on the last lane must each equal the
        // per-bit copy of their lanes, with nothing past k_j set.
        let ks = [5usize, 74, 61, 2, 50];
        let ues: Vec<UnaryEncoding> = ks
            .iter()
            .map(|&k| UnaryEncoding::new(k, 1.0, UeMode::Optimized).unwrap())
            .collect();
        let group = FusedUeGroup::build(&ues).unwrap();
        assert_eq!(group.word_count(), 3);
        let packed = [
            0xDEAD_BEEF_0123_4567u64,
            0x89AB_CDEF_F0E1_D2C3,
            0x0F1E_2D3C_4B5A_6978,
        ];
        let bit = |i: usize| (packed[i / 64] >> (i % 64)) & 1 == 1;
        let mut fields = Vec::new();
        group.emit_fields(&packed, &mut [0; 3], &mut |k, blocks| {
            fields.push((k, blocks.to_vec()))
        });
        assert_eq!(fields.len(), ks.len());
        let mut off = 0;
        for ((k, blocks), &want) in fields.iter().zip(&ks) {
            assert_eq!((*k, blocks.len()), (want, want.div_ceil(64)));
            let bv = BitVec::from_blocks(blocks, want);
            for i in 0..want {
                assert_eq!(bv.get(i), bit(off + i), "field at {off}, lane {i}");
            }
            off += want;
        }
    }

    #[test]
    fn fused_tuple_marginals_match_per_oracle_randomize() {
        // SUE exercises the non-trivial p-mask scan (p ≠ 1/2); pooled hot and
        // background rates of the fused path must sit in the same 5σ bands as
        // the per-oracle path's analytic (p, q).
        for mode in [UeMode::Symmetric, UeMode::Optimized] {
            let ks = [16usize, 8, 5, 4];
            let ues: Vec<UnaryEncoding> = ks
                .iter()
                .map(|&k| UnaryEncoding::new(k, 0.25, mode).unwrap())
                .collect();
            let fused = FusedUeGroup::build(ues.iter()).unwrap();
            assert_eq!(fused.width(), ks.len());
            let tuple = [3u32, 7, 0, 2];
            let trials = 30_000usize;
            let mut rng = StdRng::seed_from_u64(0xF05E + mode as u64);
            let (mut hot, mut cold) = (0usize, 0usize);
            let mut out = Vec::new();
            for _ in 0..trials {
                out.clear();
                fused.randomize_tuple_into(&tuple, &mut out, &mut rng);
                for (j, report) in out.iter().enumerate() {
                    let Report::Bits(bits) = report else {
                        panic!("unexpected shape {report:?}");
                    };
                    assert_eq!(bits.len(), ks[j]);
                    hot += bits.get(tuple[j] as usize) as usize;
                    cold += bits.count_ones() - bits.get(tuple[j] as usize) as usize;
                }
            }
            let (p, q) = (ues[0].p(), ues[0].q());
            let hot_lanes = trials * ks.len();
            let cold_lanes = trials * (ks.iter().sum::<usize>() - ks.len());
            let p_hat = hot as f64 / hot_lanes as f64;
            let q_hat = cold as f64 / cold_lanes as f64;
            let p_tol = 5.0 * (p * (1.0 - p) / hot_lanes as f64).sqrt();
            let q_tol = 5.0 * (q * (1.0 - q) / cold_lanes as f64).sqrt();
            assert!(
                (p_hat - p).abs() <= p_tol,
                "{mode:?}: p_hat {p_hat} vs p {p} (tol {p_tol})"
            );
            assert!(
                (q_hat - q).abs() <= q_tol,
                "{mode:?}: q_hat {q_hat} vs q {q} (tol {q_tol})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "tuple width")]
    fn fused_randomize_rejects_wrong_width() {
        let a = UnaryEncoding::new(8, 1.0, UeMode::Optimized).unwrap();
        let fused = FusedUeGroup::build([&a]).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        fused.randomize_tuple_into(&[1, 2], &mut Vec::new(), &mut rng);
    }

    #[test]
    #[should_panic(expected = "input length")]
    fn perturb_bits_rejects_wrong_length() {
        let ue = UnaryEncoding::new(8, 1.0, UeMode::Symmetric).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let _ = ue.perturb_bits(&BitVec::zeros(9), &mut rng);
    }

    #[test]
    #[should_panic(expected = "output length")]
    fn perturb_bits_into_rejects_wrong_output_length() {
        let ue = UnaryEncoding::new(8, 1.0, UeMode::Symmetric).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let mut out = BitVec::zeros(7);
        ue.perturb_bits_into(&BitVec::zeros(8), &mut out, &mut rng);
    }
}

/// Power guards for the sanitize conformance bands: each deliberately broken
/// word-mask generator behind the [`InjectedBug`] shim (and the fused
/// tuple's [`FusedUeGroup::randomize_tuple_reusing_keep_mask`]) must be
/// *rejected* by the same statistical machinery that certifies the real
/// paths, so the bands cannot silently widen into a rubber stamp. (The
/// positive conformance suite over the public API lives in
/// `tests/sanitize_conformance.rs`; these negative twins live in-crate
/// because `#[cfg(test)]` shims are invisible to integration tests.)
#[cfg(test)]
mod power_guards {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const Z: f64 = 5.0;

    /// Pooled 0-lane rate of `trials` sanitizations of the zero vector.
    fn pooled_q_rate(
        ue: &UnaryEncoding,
        trials: usize,
        mut sample: impl FnMut(&mut StdRng) -> BitVec,
        rng: &mut StdRng,
    ) -> f64 {
        let mut set = 0usize;
        for _ in 0..trials {
            set += sample(rng).count_ones();
        }
        set as f64 / (trials * ue.domain_size()) as f64
    }

    #[test]
    fn biased_threshold_is_caught_by_the_pooled_band() {
        // k·trials ≈ 1M pooled 0-lane samples → 5σ ≈ 2.2e-3, well under the
        // injected +2⁻⁸ ≈ 3.9e-3 bias; the honest path must pass the same
        // band.
        let k = 257;
        let trials = 4000;
        let ue = UnaryEncoding::new(k, 1.0, UeMode::Optimized).unwrap();
        let zero = BitVec::zeros(k);
        let tol = Z * (ue.q() * (1.0 - ue.q()) / (trials * k) as f64).sqrt();
        let mut rng = StdRng::seed_from_u64(0x9A5D_0001);
        let honest = pooled_q_rate(&ue, trials, |r| ue.perturb_bits(&zero, r), &mut rng);
        assert!(
            (honest - ue.q()).abs() <= tol,
            "honest path outside its own band: {honest} vs {} (tol {tol})",
            ue.q()
        );
        let buggy = pooled_q_rate(
            &ue,
            trials,
            |r| ue.perturb_bits_buggy(&zero, r, InjectedBug::BiasedThreshold),
            &mut rng,
        );
        assert!(
            (buggy - ue.q()).abs() > tol,
            "off-by-one fixed-point threshold slipped through the band: \
             {buggy} vs {} (tol {tol})",
            ue.q()
        );
    }

    #[test]
    fn skipped_word_tail_is_caught_by_the_per_bit_band() {
        // k = 257 leaves a 1-lane tail word; a generator that forgets it
        // reports that lane at rate 0 instead of q ≈ 0.27 — far outside the
        // per-bit 5σ band at 4000 trials.
        let k = 257;
        let trials = 4000;
        let ue = UnaryEncoding::new(k, 1.0, UeMode::Optimized).unwrap();
        let zero = BitVec::zeros(k);
        let tail = k - 1;
        let tol = Z * (ue.q() * (1.0 - ue.q()) / trials as f64).sqrt();
        let mut rng = StdRng::seed_from_u64(0x9A5D_0002);
        let per_bit_rate = |sample: &mut dyn FnMut(&mut StdRng) -> BitVec, rng: &mut StdRng| {
            let mut set = 0usize;
            for _ in 0..trials {
                if sample(rng).get(tail) {
                    set += 1;
                }
            }
            set as f64 / trials as f64
        };
        let honest = per_bit_rate(&mut |r| ue.perturb_bits(&zero, r), &mut rng);
        assert!(
            (honest - ue.q()).abs() <= tol,
            "honest tail lane outside band: {honest} (tol {tol})"
        );
        let buggy = per_bit_rate(
            &mut |r| ue.perturb_bits_buggy(&zero, r, InjectedBug::SkippedTail),
            &mut rng,
        );
        assert!(
            (buggy - ue.q()).abs() > tol,
            "skipped tail word slipped through the band: {buggy} (tol {tol})"
        );
    }

    #[test]
    fn reused_mask_is_caught_by_the_covariance_band() {
        // Same-lane bits one word apart must be independent: empirical
        // covariance within ±(5σ + slack) of zero. Reusing word 0's mask
        // makes those pairs identical (covariance q(1−q) ≈ 0.2).
        let k = 256;
        let trials = 3000;
        let ue = UnaryEncoding::new(k, 1.0, UeMode::Optimized).unwrap();
        let zero = BitVec::zeros(k);
        let q = ue.q();
        // Var(b_i · b_j) = q²(1 − q²) under independence.
        let tol = Z * (q * q * (1.0 - q * q) / trials as f64).sqrt() + 0.01;
        let max_abs_cov = |sample: &mut dyn FnMut(&mut StdRng) -> BitVec, rng: &mut StdRng| {
            let mut joint = vec![0u32; 64];
            let mut lo = vec![0u32; 64];
            let mut hi = vec![0u32; 64];
            for _ in 0..trials {
                let out = sample(rng);
                for lane in 0..64usize {
                    let a = out.get(lane);
                    let b = out.get(lane + 64);
                    lo[lane] += a as u32;
                    hi[lane] += b as u32;
                    joint[lane] += (a && b) as u32;
                }
            }
            (0..64usize)
                .map(|lane| {
                    let n = trials as f64;
                    (joint[lane] as f64 / n - (lo[lane] as f64 / n) * (hi[lane] as f64 / n)).abs()
                })
                .fold(0.0f64, f64::max)
        };
        let mut rng = StdRng::seed_from_u64(0x9A5D_0003);
        let honest = max_abs_cov(&mut |r| ue.perturb_bits(&zero, r), &mut rng);
        assert!(
            honest <= tol,
            "honest path shows cross-word covariance {honest} (tol {tol})"
        );
        let buggy = max_abs_cov(
            &mut |r| ue.perturb_bits_buggy(&zero, r, InjectedBug::ReusedMask),
            &mut rng,
        );
        assert!(
            buggy > tol,
            "reused word mask slipped through the covariance band: \
             {buggy} (tol {tol})"
        );
    }

    #[test]
    fn reused_keep_mask_is_caught_by_the_covariance_band() {
        // Field 0's value 6 is packed lane 6 (word 0) and field 8's value 3
        // is packed lane 131 + 3 = 134 (word 2): both hot lanes sit at lane
        // index 6 of their words. For OUE (p = 1/2) a reused raw p-mask
        // makes the two kept bits identical — covariance 1/4.
        let adult: Vec<UnaryEncoding> = [74usize, 7, 16, 7, 14, 6, 5, 2, 41, 2]
            .iter()
            .map(|&k| UnaryEncoding::new(k, 1.0, UeMode::Optimized).unwrap())
            .collect();
        let group = FusedUeGroup::build(&adult).unwrap();
        let tuple = [6u32, 0, 0, 0, 0, 0, 0, 0, 3, 0];
        let (a, b) = ((0usize, 6usize), (8usize, 3usize));
        let bits = |report: &Report, lane: usize| match report {
            Report::Bits(bits) => bits.get(lane),
            other => panic!("unexpected shape {other:?}"),
        };
        let trials = 3000;
        let p = 0.5;
        let tol = Z * (p * p * (1.0 - p) * (1.0 - p) / trials as f64).sqrt() + 0.01;
        let cov = |sample: &mut dyn FnMut(&mut StdRng) -> Vec<Report>, rng: &mut StdRng| {
            let (mut xa, mut xb, mut joint) = (0u32, 0u32, 0u32);
            for _ in 0..trials {
                let out = sample(rng);
                let (ba, bb) = (bits(&out[a.0], a.1), bits(&out[b.0], b.1));
                xa += ba as u32;
                xb += bb as u32;
                joint += (ba && bb) as u32;
            }
            let n = trials as f64;
            (joint as f64 / n - (xa as f64 / n) * (xb as f64 / n)).abs()
        };
        let mut rng = StdRng::seed_from_u64(0x9A5D_0005);
        let honest = cov(
            &mut |r| {
                let mut out = Vec::new();
                group.randomize_tuple_into(&tuple, &mut out, r);
                out
            },
            &mut rng,
        );
        assert!(
            honest <= tol,
            "honest hot lanes covary: {honest} (tol {tol})"
        );
        let buggy = cov(
            &mut |r| group.randomize_tuple_reusing_keep_mask(&tuple, r),
            &mut rng,
        );
        assert!(
            buggy > tol,
            "reused keep mask slipped through the covariance band: {buggy} (tol {tol})"
        );
    }
}
