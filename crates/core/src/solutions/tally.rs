//! Word-parallel support counting for bit-vector (unary-encoding) entries.
//!
//! A UE report sets about `q·k` of its `k` lanes, so counting it one set bit
//! at a time costs a data-dependent branch per bit. [`BitTally`] instead
//! adds whole 64-lane words into byte-wide lane counters (SWAR): each
//! 64-lane block owns eight `u64` accumulators, and accumulator `b` holds
//! the eight 8-bit counters of lanes `b, 8 + b, …, 56 + b`, so adding a
//! report word `w` is eight branch-free `acc[b] += (w >> b) & 0x01…01`.
//!
//! A byte counter carries into its neighbour at 256, so an attribute's
//! blocks are flushed into the exact `u64` support counts after 255 added
//! entries, and [`MultidimAggregator::absorb_compact`] flushes everything
//! before it returns. Between calls the tally is all-zero and the
//! aggregator's state is the plain integer counts, so snapshots, merges and
//! estimates never see it.
//!
//! [`MultidimAggregator::absorb_compact`]: super::MultidimAggregator::absorb_compact

/// One in the low bit of every byte: `(w >> b) & LOW_BITS` moves lane
/// `8m + b` of `w` to bit `8m`, the low bit of byte `m`.
const LOW_BITS: u64 = 0x0101_0101_0101_0101;

/// Entries an attribute takes before its byte counters must be flushed:
/// one more could carry a counter at 255 into the next lane.
const MAX_PENDING: u8 = u8::MAX;

/// Where the aggregation walk sends a bit-vector entry's words: a batch
/// adds them into a [`BitTally`], a single report counts them with
/// [`PerBit`] — one report must not leave a byte-lane tally pending.
pub(crate) trait BitSink {
    /// Counts one bit-vector entry of attribute `j`, given as its 64-lane
    /// words, into `counts` (its `k_j` support counts, possibly deferred).
    /// Lanes `≥ k_j` are never counted.
    fn add(&mut self, counts: &mut [u64], j: usize, words: &[u64]);
}

/// Counts every set bit straight into its support count.
pub(crate) struct PerBit;

impl BitSink for PerBit {
    #[inline]
    fn add(&mut self, counts: &mut [u64], _j: usize, words: &[u64]) {
        for (blk, &w) in words.iter().enumerate() {
            let mut w = w;
            while w != 0 {
                if let Some(c) = counts.get_mut(blk * 64 + w.trailing_zeros() as usize) {
                    *c += 1;
                }
                w &= w - 1;
            }
        }
    }
}

/// Byte-lane counters for the `Σ_j ⌈k_j/64⌉` blocks of a solution's
/// attributes (see the module docs). All-zero between
/// `absorb_compact` calls.
#[derive(Debug, Clone, Default)]
pub(crate) struct BitTally {
    /// Eight accumulators per 64-lane block; byte `m` of `acc[blk][b]`
    /// counts lane `8m + b` of the block.
    acc: Vec<[u64; 8]>,
    /// Attribute `j` owns blocks `first[j]..first[j + 1]`.
    first: Vec<usize>,
    /// Entries added to each attribute since its last flush.
    pending: Vec<u8>,
}

impl BitTally {
    /// An all-zero tally for attributes of sizes `ks` (a numeric dimension,
    /// `k = 0`, owns no block).
    pub(crate) fn new(ks: &[usize]) -> Self {
        let mut first = Vec::with_capacity(ks.len() + 1);
        first.push(0);
        for &k in ks {
            first.push(first[first.len() - 1] + k.div_ceil(64));
        }
        BitTally {
            acc: vec![[0; 8]; first[ks.len()]],
            first,
            pending: vec![0; ks.len()],
        }
    }

    /// Moves every pending lane count into `counts` (one vector per
    /// attribute) and zeroes the tally. Attributes that took no entry since
    /// their last flush are not touched.
    pub(crate) fn flush(&mut self, counts: &mut [Vec<u64>]) {
        for (j, counts) in counts.iter_mut().enumerate() {
            if self.pending[j] != 0 {
                self.flush_attr(counts, j);
            }
        }
    }

    fn flush_attr(&mut self, counts: &mut [u64], j: usize) {
        let blocks = &mut self.acc[self.first[j]..self.first[j + 1]];
        for (acc, block_counts) in blocks.iter_mut().zip(counts.chunks_mut(64)) {
            for (lane, c) in block_counts.iter_mut().enumerate() {
                *c += (acc[lane % 8] >> (8 * (lane / 8))) & 0xFF;
            }
            *acc = [0; 8];
        }
        self.pending[j] = 0;
    }
}

impl BitSink for BitTally {
    /// Adds the entry into attribute `j`'s byte-lane counters, flushing the
    /// attribute into `counts` every 255 entries. Words past the
    /// attribute's `⌈k_j/64⌉` blocks hold only lanes `≥ k_j` and are
    /// skipped; lanes `≥ k_j` inside the last block are dropped at flush,
    /// as [`PerBit`]'s `counts.get_mut(lane)` rule drops them.
    #[inline]
    fn add(&mut self, counts: &mut [u64], j: usize, words: &[u64]) {
        let blocks = &mut self.acc[self.first[j]..self.first[j + 1]];
        for (acc, &w) in blocks.iter_mut().zip(words) {
            for (b, lanes) in acc.iter_mut().enumerate() {
                *lanes += (w >> b) & LOW_BITS;
            }
        }
        self.pending[j] += 1;
        if self.pending[j] == MAX_PENDING {
            self.flush_attr(counts, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-set-bit reference count of one entry's words.
    fn count_per_bit(counts: &mut [u64], words: &[u64]) {
        for (blk, &w) in words.iter().enumerate() {
            for bit in 0..64 {
                if w >> bit & 1 == 1 {
                    if let Some(c) = counts.get_mut(blk * 64 + bit) {
                        *c += 1;
                    }
                }
            }
        }
    }

    #[test]
    fn tally_matches_per_bit_counts_across_flush_boundaries() {
        let ks = [1usize, 63, 64, 65, 0, 200];
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut tally = BitTally::new(&ks);
        assert_eq!(tally.acc.len(), 1 + 1 + 1 + 2 + 4);
        let mut counts: Vec<Vec<u64>> = ks.iter().map(|&k| vec![0; k]).collect();
        let mut reference = counts.clone();
        let mut per_bit = counts.clone();
        for n in 0..1_300 {
            for (j, &k) in ks.iter().enumerate() {
                // All-ones entries first (every lane saturates its byte
                // counter), then random ones; odd entries carry an extra
                // word past the attribute's blocks.
                let words: Vec<u64> = (0..k.div_ceil(64) + n % 2)
                    .map(|_| if n < 600 { u64::MAX } else { next() })
                    .collect();
                tally.add(&mut counts[j], j, &words);
                PerBit.add(&mut per_bit[j], j, &words);
                count_per_bit(&mut reference[j], &words);
            }
        }
        tally.flush(&mut counts);
        assert_eq!(counts, reference);
        assert_eq!(per_bit, reference);
        assert!(tally.acc.iter().flatten().all(|&a| a == 0));
        assert!(tally.pending.iter().all(|&p| p == 0));
    }
}
