//! A compact fixed-length bit vector used for unary-encoded (UE) reports.
//!
//! UE protocols transmit a sanitized one-hot vector of the attribute domain
//! size; for the paper's datasets that is up to 92 bits per attribute and up
//! to `sum(k_j)` bits per RS+FD tuple, so a packed representation matters for
//! the large simulation campaigns.

/// Vectors of up to `INLINE_WORDS · 64` bits are stored inline, without a
/// heap allocation. Every attribute domain in the paper's datasets (k ≤ 92)
/// fits, so a structured UE report — one `BitVec` per attribute, ten per
/// user on the Adult shape — allocates nothing beyond its report vector.
const INLINE_WORDS: usize = 2;

/// Backing storage: a fixed inline array for short vectors, a heap `Vec` for
/// long ones. The variant is a function of `len` alone (chosen at
/// construction), so equal-length vectors always share a variant.
#[derive(Debug, Clone)]
enum Blocks {
    Inline([u64; INLINE_WORDS]),
    Heap(Vec<u64>),
}

/// Fixed-length packed bit vector backed by `u64` blocks.
#[derive(Debug, Clone)]
pub struct BitVec {
    blocks: Blocks,
    len: usize,
}

impl PartialEq for BitVec {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.blocks() == other.blocks()
    }
}

impl Eq for BitVec {}

impl std::hash::Hash for BitVec {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.len.hash(state);
        self.blocks().hash(state);
    }
}

impl BitVec {
    /// Creates an all-zero bit vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        let blocks = if len <= INLINE_WORDS * 64 {
            Blocks::Inline([0; INLINE_WORDS])
        } else {
            Blocks::Heap(vec![0; len.div_ceil(64)])
        };
        BitVec { blocks, len }
    }

    /// The valid words of the backing storage (`⌈len/64⌉` of them).
    #[inline]
    fn words(&self) -> &[u64] {
        match &self.blocks {
            Blocks::Inline(a) => &a[..self.len.div_ceil(64)],
            Blocks::Heap(v) => v,
        }
    }

    /// Mutable view of the valid words.
    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        let wc = self.len.div_ceil(64);
        match &mut self.blocks {
            Blocks::Inline(a) => &mut a[..wc],
            Blocks::Heap(v) => v,
        }
    }

    /// Creates a one-hot vector of `len` bits with bit `index` set.
    ///
    /// # Panics
    /// Panics if `index >= len`.
    pub fn one_hot(len: usize, index: usize) -> Self {
        let mut bv = Self::zeros(len);
        bv.set(index, true);
        bv
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the vector holds zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns bit `index`.
    ///
    /// # Panics
    /// Panics if `index >= len`.
    #[inline]
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        (self.words()[index / 64] >> (index % 64)) & 1 == 1
    }

    /// Sets bit `index` to `value`.
    ///
    /// # Panics
    /// Panics if `index >= len`.
    #[inline]
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        let mask = 1u64 << (index % 64);
        let word = &mut self.words_mut()[index / 64];
        if value {
            *word |= mask;
        } else {
            *word &= !mask;
        }
    }

    /// Number of backing `u64` words (`⌈len/64⌉`).
    #[inline]
    pub fn word_count(&self) -> usize {
        self.len.div_ceil(64)
    }

    /// Mask of the valid lanes of word `wi`: all-ones except for the final
    /// word of a non-multiple-of-64 vector, where only the low `len % 64`
    /// lanes are set.
    ///
    /// # Panics
    /// Panics if `wi >= word_count`.
    #[inline]
    pub fn lane_mask(&self, wi: usize) -> u64 {
        assert!(wi < self.word_count(), "word index {wi} out of range");
        if wi + 1 == self.word_count() && !self.len.is_multiple_of(64) {
            (1u64 << (self.len % 64)) - 1
        } else {
            !0
        }
    }

    /// Overwrites word `wi` with `word`, masking off lanes past
    /// [`BitVec::len`] so the trailing-zeros invariant holds — the
    /// word-parallel sanitize path writes whole sanitized words through
    /// this.
    ///
    /// # Panics
    /// Panics if `wi >= word_count`.
    #[inline]
    pub fn set_word(&mut self, wi: usize, word: u64) {
        let mask = self.lane_mask(wi);
        self.words_mut()[wi] = word & mask;
    }

    /// Clears every bit (length unchanged) — the run-writer reset that lets
    /// a pooled vector be reused without reallocating.
    #[inline]
    pub fn clear(&mut self) {
        self.words_mut().fill(0);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words().iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Iterator over the indices of the set bits, in increasing order.
    pub fn ones(&self) -> Ones<'_> {
        let words = self.words();
        Ones {
            words,
            block_idx: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }

    /// Collects the set-bit indices into a vector.
    pub fn ones_vec(&self) -> Vec<usize> {
        self.ones().collect()
    }

    /// The backing `u64` blocks (little-endian bit order, trailing bits past
    /// [`BitVec::len`] always zero). Exposed for compact wire encodings that
    /// copy the vector verbatim.
    #[inline]
    pub fn blocks(&self) -> &[u64] {
        self.words()
    }

    /// Rebuilds a vector of `len` bits from a copy of its backing blocks —
    /// the inverse of [`BitVec::blocks`]. Nothing touches the heap when
    /// `len` fits inline (≤ 128 bits).
    ///
    /// # Panics
    /// Panics when `blocks.len()` does not match `len`; debug-asserts that no
    /// trailing bit past `len` is set (every mutation path keeps them zero).
    pub fn from_blocks(blocks: &[u64], len: usize) -> Self {
        assert_eq!(blocks.len(), len.div_ceil(64), "block count mismatch");
        debug_assert!(
            len.is_multiple_of(64) || blocks.last().is_none_or(|b| b >> (len % 64) == 0),
            "trailing bits past len must be zero"
        );
        let blocks = if len <= INLINE_WORDS * 64 {
            let mut inline = [0u64; INLINE_WORDS];
            inline[..blocks.len()].copy_from_slice(blocks);
            Blocks::Inline(inline)
        } else {
            Blocks::Heap(blocks.to_vec())
        };
        BitVec { blocks, len }
    }
}

/// The 64 lanes of `packed` starting at lane `bit` (lanes past the slice
/// read as 0).
#[inline]
pub(crate) fn lanes_at(packed: &[u64], bit: usize) -> u64 {
    let (w, shift) = (bit / 64, bit % 64);
    let lo = packed.get(w).map_or(0, |&x| x >> shift);
    match packed.get(w + 1) {
        Some(&x) if shift != 0 => lo | x << (64 - shift),
        _ => lo,
    }
}

/// A mask of the low `n` lanes (all 64 for `n ≥ 64`).
#[inline]
pub(crate) fn low_lanes(n: usize) -> u64 {
    if n >= 64 {
        !0
    } else {
        (1u64 << n) - 1
    }
}

/// Iterator over set-bit indices of a [`BitVec`].
pub struct Ones<'a> {
    words: &'a [u64],
    block_idx: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1; // clear the lowest set bit
                let idx = self.block_idx * 64 + bit;
                // Trailing garbage past `len` can never be set because all
                // mutation paths go through `set`, which bounds-checks.
                return Some(idx);
            }
            self.block_idx += 1;
            if self.block_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.block_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_no_ones() {
        let bv = BitVec::zeros(130);
        assert_eq!(bv.len(), 130);
        assert_eq!(bv.count_ones(), 0);
        assert!(bv.ones().next().is_none());
    }

    #[test]
    fn one_hot_sets_exactly_one_bit() {
        for k in [1usize, 2, 63, 64, 65, 92, 128] {
            for idx in [0, k / 2, k - 1] {
                let bv = BitVec::one_hot(k, idx);
                assert_eq!(bv.count_ones(), 1);
                assert!(bv.get(idx));
                assert_eq!(bv.ones_vec(), vec![idx]);
            }
        }
    }

    #[test]
    fn set_and_clear_roundtrip() {
        let mut bv = BitVec::zeros(100);
        bv.set(3, true);
        bv.set(64, true);
        bv.set(99, true);
        assert_eq!(bv.ones_vec(), vec![3, 64, 99]);
        bv.set(64, false);
        assert_eq!(bv.ones_vec(), vec![3, 99]);
        assert_eq!(bv.count_ones(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let bv = BitVec::zeros(10);
        bv.get(10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_out_of_range_panics() {
        let mut bv = BitVec::zeros(10);
        bv.set(10, true);
    }

    #[test]
    fn blocks_roundtrip_through_from_blocks() {
        for k in [1usize, 63, 64, 65, 130] {
            let mut bv = BitVec::zeros(k);
            for i in [0, k / 3, k - 1] {
                bv.set(i, true);
            }
            let rebuilt = BitVec::from_blocks(bv.blocks(), k);
            assert_eq!(rebuilt, bv);
        }
    }

    #[test]
    #[should_panic(expected = "block count mismatch")]
    fn from_blocks_rejects_wrong_block_count() {
        BitVec::from_blocks(&[0; 2], 64);
    }

    #[test]
    fn set_word_masks_the_tail_and_clear_resets() {
        for k in [5usize, 64, 65, 130, 192] {
            let mut bv = BitVec::zeros(k);
            assert_eq!(bv.word_count(), k.div_ceil(64));
            for wi in 0..bv.word_count() {
                bv.set_word(wi, !0);
            }
            // Every valid bit set, trailing lanes still zero.
            assert_eq!(bv.count_ones(), k);
            let rebuilt = BitVec::from_blocks(bv.blocks(), k);
            assert_eq!(rebuilt, bv);
            bv.clear();
            assert_eq!(bv.count_ones(), 0);
        }
    }

    #[test]
    fn lane_mask_covers_exactly_the_valid_lanes() {
        let bv = BitVec::zeros(130);
        assert_eq!(bv.lane_mask(0), !0);
        assert_eq!(bv.lane_mask(1), !0);
        assert_eq!(bv.lane_mask(2), 0b11);
        let full = BitVec::zeros(128);
        assert_eq!(full.lane_mask(1), !0);
    }

    #[test]
    #[should_panic(expected = "word index")]
    fn set_word_out_of_range_panics() {
        let mut bv = BitVec::zeros(64);
        bv.set_word(1, 1);
    }

    #[test]
    fn inline_and_heap_vectors_agree_across_construction_paths() {
        // k ≤ 128 lives inline, k > 128 on the heap; equality and hashing
        // must be storage-agnostic and `from_blocks` must round-trip both.
        use std::collections::HashSet;
        let mut set = HashSet::new();
        for k in [5usize, 64, 92, 128, 129, 200] {
            let mut bv = BitVec::zeros(k);
            bv.set(k - 1, true);
            bv.set(k / 2, true);
            let rebuilt = BitVec::from_blocks(bv.blocks(), k);
            assert_eq!(rebuilt, bv);
            set.insert(bv.clone());
            assert!(set.contains(&rebuilt), "hash differs across paths k={k}");
        }
        assert_eq!(set.len(), 6);
    }

    #[test]
    fn ones_iterator_matches_naive_scan() {
        let mut bv = BitVec::zeros(200);
        let idxs = [0usize, 1, 63, 64, 65, 127, 128, 199];
        for &i in &idxs {
            bv.set(i, true);
        }
        let naive: Vec<usize> = (0..200).filter(|&i| bv.get(i)).collect();
        assert_eq!(bv.ones_vec(), naive);
        assert_eq!(naive, idxs.to_vec());
    }
}
