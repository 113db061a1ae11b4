//! Point-in-time merged server state.

use ldp_core::solutions::MultidimAggregator;

/// A merged view of every shard's aggregator at one instant: the server's
/// answer to "what are the frequency estimates right now?".
///
/// Produced by [`LdpServer::snapshot`](crate::LdpServer::snapshot) while
/// ingestion is running and by [`LdpServer::drain`](crate::LdpServer::drain)
/// after the graceful shutdown. Because the merge is exact integer addition
/// over support counts, a snapshot taken after absorbing a set of reports is
/// bit-identical to a single sequential pass over the same reports — the
/// shard count and arrival order never leak into the estimates.
#[derive(Debug, Clone)]
pub struct ServerSnapshot {
    /// The merged aggregator (reusable: merge further sites into it or keep
    /// absorbing).
    pub aggregator: MultidimAggregator,
    /// Unbiased per-attribute frequency estimates at snapshot time.
    pub estimates: Vec<Vec<f64>>,
    /// Estimates projected onto the probability simplex. All-zero when no
    /// report has been absorbed — an empty server reports "no data", not a
    /// fabricated uniform distribution.
    pub normalized: Vec<Vec<f64>>,
    /// Reports absorbed so far.
    pub n: u64,
    /// Number of shards that were merged.
    pub shards: usize,
}

impl ServerSnapshot {
    /// Builds the snapshot from an already-merged aggregator.
    pub fn from_aggregator(aggregator: MultidimAggregator, shards: usize) -> Self {
        let estimates = aggregator.estimate();
        let normalized = if aggregator.n() == 0 {
            // Zero-users edge: a valid, honest snapshot (see field docs).
            estimates.iter().map(|e| vec![0.0; e.len()]).collect()
        } else {
            // Simplex projection per categorical attribute; numeric means of
            // a mixed solution are clamped to [-1, 1] instead.
            aggregator.estimate_normalized()
        };
        ServerSnapshot {
            n: aggregator.n(),
            shards: shards.max(1),
            estimates,
            normalized,
            aggregator,
        }
    }

    /// Merges per-shard aggregators (exact) and builds the snapshot.
    ///
    /// # Panics
    /// Panics when the shards were built for different solution
    /// configurations (see
    /// [`MultidimAggregator::merge`]).
    pub fn merge(mut base: MultidimAggregator, shards: &[MultidimAggregator]) -> Self {
        for shard in shards {
            base.merge(shard);
        }
        ServerSnapshot::from_aggregator(base, shards.len())
    }
}

/// One closed collection epoch in the server's retention ring: the merged
/// per-epoch snapshot plus the epoch's index. Produced by
/// [`LdpServer::advance_epoch`](crate::LdpServer::advance_epoch) and queried
/// through [`LdpServer::epochs`](crate::LdpServer::epochs); covers **only**
/// the reports absorbed during that epoch (the cumulative view stays
/// available from [`LdpServer::snapshot`](crate::LdpServer::snapshot)).
#[derive(Debug, Clone)]
pub struct EpochSnapshot {
    /// Zero-based index of the closed epoch.
    pub epoch: u64,
    /// Merged state of exactly the reports absorbed during this epoch.
    pub snapshot: ServerSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::solutions::{RsFd, RsFdProtocol};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empty_snapshot_is_valid_and_all_zero() {
        let rsfd = RsFd::new(RsFdProtocol::Grr, &[4, 3], 1.0).unwrap();
        let snap = ServerSnapshot::from_aggregator(rsfd.aggregator(), 3);
        assert_eq!(snap.n, 0);
        assert_eq!(snap.shards, 3);
        assert!(snap.estimates.iter().flatten().all(|f| *f == 0.0));
        assert!(snap.normalized.iter().flatten().all(|f| *f == 0.0));
    }

    #[test]
    fn merge_matches_sequential_absorption() {
        let rsfd = RsFd::new(RsFdProtocol::Grr, &[4, 3], 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let reports: Vec<_> = (0..300)
            .map(|i| rsfd.report_encoded(&[i % 4, i % 3], &mut rng))
            .collect();
        let mut sequential = rsfd.aggregator();
        let mut shards = [rsfd.aggregator(), rsfd.aggregator()];
        for (i, r) in reports.iter().enumerate() {
            sequential.absorb(r);
            shards[i % 2].absorb(r);
        }
        let snap = ServerSnapshot::merge(rsfd.aggregator(), &shards);
        assert_eq!(snap.n, 300);
        assert_eq!(snap.aggregator.counts(), sequential.counts());
        for (a, b) in snap
            .estimates
            .iter()
            .flatten()
            .zip(sequential.estimate().iter().flatten())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
