//! The ingestion service: callers fold their own batches into lock-striped
//! aggregator shards, and merged snapshots come out.
//!
//! ## Shard topology
//!
//! ```text
//!  callers ──ingest*──► try_lock from the round-robin slot ──► Mutex<shard 0 … S-1>
//! ```
//!
//! The thread that ingests a batch of up to `config.batch` reports absorbs
//! it ([`MultidimAggregator::absorb_compact`]) under one shard's lock. It
//! starts at the next slot of one round-robin counter, tries each shard
//! once, and blocks on its starting shard only when every shard is busy.
//! Ingest holds one shard lock and nothing else; [`LdpServer::snapshot`]
//! and [`LdpServer::advance_epoch`] lock the epoch state first, then one
//! shard at a time, so the only nesting is epoch → shard (fleet → epoch →
//! shard on the wire tier). A caller returns once its batches are counted:
//! a fast producer pays for its own absorbing, which is the backpressure.
//!
//! ## Allocation budget and determinism
//!
//! [`LdpServer::ingest_batch`] copies the envelopes' encoded words into one
//! [`CompactBatch`] per call, reused across its batches;
//! [`LdpServer::ingest_compact`] absorbs a validated wire batch where it
//! lies. Support is counted straight from the encoded words. Server memory
//! is `O(shards · Σ_j k_j + concurrent callers · batch)`. The shards hold
//! exact integer counts and sums and merge by addition, so which shard
//! absorbed which batch never shows: every snapshot and the drain are
//! bit-identical to a batch pass over the same reports, whatever the shard
//! count, the caller count and the arrival order.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, TryLockError};

use ldp_core::solutions::{CompactBatch, DynSolution, MultidimAggregator, SolutionReport};

use crate::config::ServerConfig;
use crate::snapshot::{EpochSnapshot, ServerSnapshot};

/// One ingested message: the reporting user plus their sanitized report.
/// The `uid` is carried alongside the report, not used to route it — the
/// report itself is the only thing the server state ever sees. The report
/// is already in its encoded words, so [`LdpServer::ingest_batch`] copies
/// it into a batch buffer without re-encoding it.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Stable user identifier (carried into the batch; never a routing key).
    pub uid: u64,
    /// The user's sanitized report.
    pub report: SolutionReport,
}

/// A running ingestion service over one collection solution.
///
/// Build it with [`LdpServer::spawn`], push sanitized reports through
/// [`LdpServer::ingest_batch`], or already-encoded ones through
/// [`LdpServer::ingest_compact`] (callable from any number of threads at
/// once), observe the running state with [`LdpServer::snapshot`], and
/// finish with [`LdpServer::drain`]. See the [module docs](crate::service)
/// for the shard topology, the allocation budget and the determinism
/// argument.
#[derive(Debug)]
pub struct LdpServer {
    /// An empty aggregator for the server's solution: every shard, epoch
    /// rotation and merge base is a clone of it, so all of them share its
    /// solution handle.
    empty: MultidimAggregator,
    config: ServerConfig,
    /// The live shards, holding the current epoch only; an ingest locks one
    /// of them per batch.
    shards: Vec<Mutex<MultidimAggregator>>,
    /// Round-robin cursor: a batch's shard search starts at `next % shards`.
    next: AtomicUsize,
    /// The epoch state, locked across every shard visit of `snapshot` and
    /// `advance_epoch`: no snapshot sees a rotation half done (reports lost
    /// or counted twice), and concurrent rotations close epochs in order.
    epochs: Mutex<Epochs>,
}

/// What [`LdpServer`] keeps about closed epochs.
#[derive(Debug)]
struct Epochs {
    /// Cumulative aggregate over every **closed** epoch. Live shards hold
    /// only the current epoch, so `closed + live shards` is always the full
    /// collection — starting empty, which is why single-epoch callers see
    /// bit-identical snapshots to the pre-epoch server.
    closed: MultidimAggregator,
    /// Retention ring of the last `config.retain` closed epochs' windowed
    /// snapshots, oldest first.
    ring: VecDeque<EpochSnapshot>,
    /// Index of the epoch currently being collected.
    current: u64,
}

impl LdpServer {
    /// Builds a server of `config.shards` empty aggregator shards. The name
    /// is historical: nothing is spawned, since every caller absorbs its
    /// own batches.
    pub fn spawn(solution: DynSolution, config: ServerConfig) -> Self {
        let config = config.sanitized();
        let empty = solution.aggregator();
        LdpServer {
            shards: (0..config.shards)
                .map(|_| Mutex::new(empty.clone()))
                .collect(),
            epochs: Mutex::new(Epochs {
                closed: empty.clone(),
                ring: VecDeque::new(),
                current: 0,
            }),
            empty,
            config,
            next: AtomicUsize::new(0),
        }
    }

    /// The solution this server aggregates for.
    pub fn solution(&self) -> &DynSolution {
        self.empty.solution()
    }

    /// The (sanitized) configuration the server runs with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Ingests a batch: the envelopes' report words are copied, in order,
    /// into one buffer of up to `config.batch` reports at a time, and each
    /// filled buffer is absorbed into one shard under its lock. The buffer
    /// is reused across the call's batches. A single envelope goes in as
    /// `ingest_batch(std::iter::once(envelope))`.
    ///
    /// # Panics
    /// Panics with the aggregator's own message when a report's shape does
    /// not belong to this server's solution. That poisons the shard it was
    /// absorbed into, and every later call that reaches that shard panics
    /// naming it.
    pub fn ingest_batch(&self, envelopes: impl IntoIterator<Item = Envelope>) {
        let mut envelopes = envelopes.into_iter();
        let mut batch = CompactBatch::new();
        loop {
            batch.clear();
            for Envelope { uid, report } in envelopes.by_ref().take(self.config.batch) {
                batch.push(uid, &report);
            }
            if batch.is_empty() {
                return;
            }
            self.any_shard().absorb_compact(&batch);
        }
    }

    /// Ingests an already-encoded batch by absorbing it, whole, into one
    /// shard: no report is decoded or copied, and the drain is
    /// bit-identical to `ingest_batch(batch.iter())`. This is the wire
    /// tier's entry: the batch must already have been checked against this
    /// server's solution ([`CompactBatch::decode_for`], which the wire tier
    /// decodes with, or [`CompactBatch::validate_for_solution`]) or been
    /// built locally with [`CompactBatch::push`] — the counting path only
    /// debug-asserts domains. The batch holds its shard's lock for its
    /// whole length, so the caller bounds it; the wire tier rejects any
    /// frame of more than `config.batch` reports.
    ///
    /// # Panics
    /// As [`LdpServer::ingest_batch`]: on a foreign-shaped report, which
    /// poisons its shard, and on reaching a shard poisoned before.
    pub fn ingest_compact(&self, batch: CompactBatch) {
        self.any_shard().absorb_compact(&batch);
    }

    /// Merged view of everything absorbed so far, while ingestion keeps
    /// running: the closed epochs' aggregate plus each live shard, merged
    /// under its lock in turn. It covers every batch whose ingest returned
    /// before this call. The epoch lock is held across the shard visits, so
    /// a snapshot waits for a rotation in flight (and the other way round)
    /// rather than seeing it half done.
    ///
    /// # Panics
    /// Panics naming a shard that an earlier ingest poisoned.
    pub fn snapshot(&self) -> ServerSnapshot {
        let merged = {
            let epochs = self.epoch_state();
            let mut merged = epochs.closed.clone();
            for shard in 0..self.shards.len() {
                merged.merge(&self.lock(shard));
            }
            merged
        };
        ServerSnapshot::from_aggregator(merged, self.shards.len())
    }

    /// Closes the current collection epoch: every shard is swapped for a
    /// fresh one under its lock (so the closed shards hold exactly the
    /// batches absorbed before the swap), the closed shards merge into one
    /// windowed [`EpochSnapshot`] pushed onto the retention ring, and their
    /// counts fold into the cumulative aggregate so
    /// [`LdpServer::snapshot`] / [`LdpServer::drain`] keep covering the full
    /// collection. Returns the closed epoch's snapshot.
    ///
    /// Callers coordinating several producers must stop ingesting for the
    /// closing epoch *before* advancing — the wire tier's EPOCH barrier
    /// (see `ldp_server::net`) does exactly that for remote fleets.
    ///
    /// # Panics
    /// Panics naming a shard that an earlier ingest poisoned.
    pub fn advance_epoch(&self) -> EpochSnapshot {
        let mut epochs = self.epoch_state();
        let shards: Vec<MultidimAggregator> = (0..self.shards.len())
            .map(|shard| {
                let fresh = self.empty.clone();
                std::mem::replace(&mut *self.lock(shard), fresh)
            })
            .collect();
        let snapshot = ServerSnapshot::merge(self.empty.clone(), &shards);
        for shard in &shards {
            epochs.closed.merge(shard);
        }
        let epoch = epochs.current;
        epochs.current += 1;
        let entry = EpochSnapshot { epoch, snapshot };
        epochs.ring.push_back(entry.clone());
        while epochs.ring.len() > self.config.retain {
            epochs.ring.pop_front();
        }
        entry
    }

    /// Index of the epoch currently being collected (0 before the first
    /// [`LdpServer::advance_epoch`]).
    pub fn epoch(&self) -> u64 {
        self.epoch_state().current
    }

    /// The retained closed-epoch snapshots, oldest first — at most
    /// `config.retain` entries (the windowed-query surface).
    pub fn epochs(&self) -> Vec<EpochSnapshot> {
        self.epoch_state().ring.iter().cloned().collect()
    }

    /// Final merge: takes every shard out of its mutex and merges them with
    /// the closed epochs. Bit-identical to a batch pass over every ingested
    /// report.
    ///
    /// # Panics
    /// Panics naming a shard that an earlier ingest poisoned.
    pub fn drain(self) -> ServerSnapshot {
        let shards: Vec<MultidimAggregator> = self
            .shards
            .into_iter()
            .enumerate()
            .map(|(shard, lock)| lock.into_inner().unwrap_or_else(|_| poisoned(shard)))
            .collect();
        let epochs = self
            .epochs
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        ServerSnapshot::merge(epochs.closed, &shards)
    }

    /// Locks a shard for one batch: tries each shard once, starting at the
    /// round-robin slot, and blocks on the starting shard only when every
    /// shard is busy.
    fn any_shard(&self) -> MutexGuard<'_, MultidimAggregator> {
        let start = self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        for shard in (start..self.shards.len()).chain(0..start) {
            match self.shards[shard].try_lock() {
                Ok(guard) => return guard,
                Err(TryLockError::WouldBlock) => {}
                Err(TryLockError::Poisoned(_)) => poisoned(shard),
            }
        }
        self.lock(start)
    }

    /// Blocks until `shard` is free and locks it.
    fn lock(&self, shard: usize) -> MutexGuard<'_, MultidimAggregator> {
        self.shards[shard]
            .lock()
            .unwrap_or_else(|_| poisoned(shard))
    }

    /// The epoch state. Its lock only poisons when a snapshot or rotation
    /// panics on a poisoned shard, before the state is written, so the
    /// state behind a poisoned lock is still whole.
    fn epoch_state(&self) -> MutexGuard<'_, Epochs> {
        self.epochs.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Panics naming a shard whose lock is poisoned: an ingest panicked while
/// absorbing into it (on a report of a foreign solution's shape), so its
/// counts are no longer trustworthy.
fn poisoned(shard: usize) -> ! {
    panic!("aggregator shard {shard} is poisoned: an earlier ingest panicked absorbing into it")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::solutions::{RsFdProtocol, SolutionKind};
    use ldp_protocols::hash::mix2;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::AtomicU64;

    fn envelopes(solution: &DynSolution, n: u64, seed: u64) -> Vec<Envelope> {
        (0..n)
            .map(|uid| {
                let mut rng = StdRng::seed_from_u64(mix2(seed, uid));
                Envelope {
                    uid,
                    report: solution.report(&[uid as u32 % 4, uid as u32 % 3], &mut rng),
                }
            })
            .collect()
    }

    #[test]
    fn drain_matches_sequential_reference_for_every_shard_count() {
        let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
            .build(&[4, 3], 1.0)
            .unwrap();
        let envs = envelopes(&solution, 500, 9);
        let mut reference = solution.aggregator();
        for e in &envs {
            reference.absorb(&e.report);
        }
        for shards in [1usize, 2, 5] {
            let server = LdpServer::spawn(
                solution.clone(),
                ServerConfig::default().shards(shards).batch(64),
            );
            server.ingest_batch(envs.iter().cloned());
            let snap = server.drain();
            assert_eq!(snap.n, 500, "shards={shards}");
            assert_eq!(snap.aggregator.counts(), reference.counts());
        }
    }

    #[test]
    fn snapshot_covers_everything_ingested_before_it() {
        let solution = SolutionKind::Smp(ldp_protocols::ProtocolKind::Grr)
            .build(&[4, 3], 2.0)
            .unwrap();
        let envs = envelopes(&solution, 300, 4);
        let server = LdpServer::spawn(solution.clone(), ServerConfig::default().shards(3));
        server.ingest_batch(envs[..120].iter().cloned());
        let mid = server.snapshot();
        assert_eq!(mid.n, 120);
        let mut reference = solution.aggregator();
        for e in &envs[..120] {
            reference.absorb(&e.report);
        }
        assert_eq!(mid.aggregator.counts(), reference.counts());
        server.ingest_batch(envs[120..].iter().cloned());
        assert_eq!(server.drain().n, 300);
    }

    #[test]
    fn single_envelope_ingest_takes_a_shard_lock_per_report() {
        // One-report batches: every report is its own locked absorb.
        let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
            .build(&[4, 3], 1.0)
            .unwrap();
        let server = LdpServer::spawn(solution.clone(), ServerConfig::default().shards(2).batch(1));
        for e in envelopes(&solution, 200, 11) {
            server.ingest_batch(std::iter::once(e));
        }
        assert_eq!(server.drain().n, 200);
    }

    #[test]
    fn mixed_single_and_batched_ingest_absorb_everything() {
        // One-report batches and full batches interleave on the same
        // shards.
        let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
            .build(&[4, 3], 1.0)
            .unwrap();
        let envs = envelopes(&solution, 400, 13);
        let mut reference = solution.aggregator();
        for e in &envs {
            reference.absorb(&e.report);
        }
        let server = LdpServer::spawn(solution, ServerConfig::default().shards(3).batch(32));
        for (i, chunk) in envs.chunks(100).enumerate() {
            if i % 2 == 0 {
                for e in chunk {
                    server.ingest_batch(std::iter::once(e.clone()));
                }
            } else {
                server.ingest_batch(chunk.iter().cloned());
            }
        }
        let snap = server.drain();
        assert_eq!(snap.n, 400);
        assert_eq!(snap.aggregator.counts(), reference.counts());
    }

    #[test]
    fn empty_drain_yields_valid_snapshot() {
        let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
            .build(&[4, 3], 1.0)
            .unwrap();
        let server = LdpServer::spawn(solution, ServerConfig::default().shards(4));
        let snap = server.drain();
        assert_eq!(snap.n, 0);
        assert!(snap.estimates.iter().flatten().all(|f| f.is_finite()));
        assert!(snap.normalized.iter().flatten().all(|f| *f == 0.0));
    }

    #[test]
    fn epoch_ring_windows_are_exact_and_cumulative_state_survives() {
        let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
            .build(&[4, 3], 1.0)
            .unwrap();
        let envs = envelopes(&solution, 600, 23);
        let server = LdpServer::spawn(
            solution.clone(),
            ServerConfig::default().shards(3).batch(32).retain(2),
        );
        assert_eq!(server.epoch(), 0);
        for (e, chunk) in envs.chunks(200).enumerate() {
            server.ingest_batch(chunk.iter().cloned());
            let closed = server.advance_epoch();
            assert_eq!(closed.epoch, e as u64);
            // The windowed snapshot covers exactly this epoch's envelopes.
            let mut reference = solution.aggregator();
            for envelope in chunk {
                reference.absorb(&envelope.report);
            }
            assert_eq!(closed.snapshot.n, 200);
            assert_eq!(closed.snapshot.aggregator.counts(), reference.counts());
        }
        assert_eq!(server.epoch(), 3);
        // Retention: only the last `retain` epochs stay queryable.
        let retained = server.epochs();
        assert_eq!(retained.len(), 2);
        assert_eq!(
            retained.iter().map(|e| e.epoch).collect::<Vec<_>>(),
            vec![1, 2]
        );
        // The cumulative drain still covers every epoch, bit-identically to
        // a batch pass — rotation never loses or double-counts a report.
        let mut reference = solution.aggregator();
        for e in &envs {
            reference.absorb(&e.report);
        }
        let snap = server.drain();
        assert_eq!(snap.n, 600);
        assert_eq!(snap.aggregator.counts(), reference.counts());
    }

    #[test]
    fn mid_epoch_snapshot_merges_closed_and_live_state() {
        let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
            .build(&[4, 3], 1.0)
            .unwrap();
        let envs = envelopes(&solution, 300, 29);
        let server = LdpServer::spawn(solution.clone(), ServerConfig::default().shards(2));
        server.ingest_batch(envs[..100].iter().cloned());
        server.advance_epoch();
        server.ingest_batch(envs[100..].iter().cloned());
        let snap = server.snapshot();
        let mut reference = solution.aggregator();
        for e in &envs {
            reference.absorb(&e.report);
        }
        assert_eq!(snap.n, 300);
        assert_eq!(snap.aggregator.counts(), reference.counts());
        server.drain();
    }

    #[test]
    fn snapshots_racing_epoch_rotations_count_every_report_once() {
        // One thread loops "ingest 64 reports, then rotate" while this one
        // snapshots. A snapshot must cover every report whose ingest
        // returned before it started, and none whose ingest had not started
        // by the time it ended: a rotation seen half done breaks one bound.
        use std::sync::atomic::AtomicBool;
        const SNAPSHOTS: usize = 20_000;
        let solution = SolutionKind::Smp(ldp_protocols::ProtocolKind::Grr)
            .build(&[4, 3], 1.0)
            .unwrap();
        let envs = envelopes(&solution, 64, 31);
        let server = LdpServer::spawn(solution, ServerConfig::default().shards(3).batch(16));
        let (started, done, stop) = (AtomicU64::new(0), AtomicU64::new(0), AtomicBool::new(false));
        let mut outside = Vec::new();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while !stop.load(Ordering::SeqCst) {
                    started.fetch_add(64, Ordering::SeqCst);
                    server.ingest_batch(envs.iter().cloned());
                    done.fetch_add(64, Ordering::SeqCst);
                    server.advance_epoch();
                }
            });
            for _ in 0..SNAPSHOTS {
                let floor = done.load(Ordering::SeqCst);
                let n = server.snapshot().n;
                let ceiling = started.load(Ordering::SeqCst);
                if n < floor || n > ceiling {
                    outside.push((floor, n, ceiling));
                }
            }
            stop.store(true, Ordering::SeqCst);
        });
        assert!(
            outside.is_empty(),
            "{} of {SNAPSHOTS} snapshots fell outside their bounds, e.g. \
             (floor, n, ceiling) = {:?}",
            outside.len(),
            &outside[..outside.len().min(3)]
        );
        server.drain();
    }

    #[test]
    fn callers_outnumbering_shards_wait_and_count_every_report_once() {
        // Six `ingest_batch` callers and one `ingest_compact` caller share
        // two shards, so callers find both busy and wait, while this thread
        // snapshots. A snapshot must cover every report whose ingest
        // returned before it started, none whose ingest had not started by
        // the time it ended, and never fewer than the snapshot before it.
        const CALLERS: u64 = 6;
        const PER_CALLER: u64 = 3_000;
        let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
            .build(&[4, 3], 1.0)
            .unwrap();
        let total = (CALLERS + 1) * PER_CALLER;
        let envs = envelopes(&solution, total, 37);
        let (by_batch, by_compact) = envs.split_at((CALLERS * PER_CALLER) as usize);
        let prebuilt: Vec<CompactBatch> = by_compact
            .chunks(8)
            .map(|chunk| {
                let mut batch = CompactBatch::new();
                for e in chunk {
                    batch.push(e.uid, &e.report);
                }
                batch
            })
            .collect();
        let server = LdpServer::spawn(solution.clone(), ServerConfig::default().shards(2).batch(8));
        let (started, done) = (AtomicU64::new(0), AtomicU64::new(0));
        // Every caller starts at once, so they overlap on the two shards.
        let go = std::sync::Barrier::new(CALLERS as usize + 1);
        let mut outside = Vec::new();
        let mut snapshots = 0usize;
        std::thread::scope(|scope| {
            let mut callers = Vec::new();
            for slice in by_batch.chunks(PER_CALLER as usize) {
                let (server, started, done, go) = (&server, &started, &done, &go);
                callers.push(scope.spawn(move || {
                    go.wait();
                    for chunk in slice.chunks(24) {
                        started.fetch_add(chunk.len() as u64, Ordering::SeqCst);
                        server.ingest_batch(chunk.iter().cloned());
                        done.fetch_add(chunk.len() as u64, Ordering::SeqCst);
                    }
                }));
            }
            callers.push(scope.spawn(|| {
                go.wait();
                for batch in &prebuilt {
                    started.fetch_add(batch.len() as u64, Ordering::SeqCst);
                    server.ingest_compact(batch.clone());
                    done.fetch_add(batch.len() as u64, Ordering::SeqCst);
                }
            }));
            let mut last = 0;
            loop {
                let floor = done.load(Ordering::SeqCst);
                let n = server.snapshot().n;
                let ceiling = started.load(Ordering::SeqCst);
                snapshots += 1;
                if n < floor || n > ceiling || n < last {
                    outside.push((last, floor, n, ceiling));
                }
                last = n;
                // A caller that panicked stops short of `total`; the scope
                // re-raises its panic once the loop ends.
                if floor == total || callers.iter().all(|c| c.is_finished()) {
                    break;
                }
            }
        });
        assert!(
            outside.is_empty(),
            "{} of {snapshots} snapshots fell outside their bounds, e.g. \
             (previous, floor, n, ceiling) = {:?}",
            outside.len(),
            &outside[..outside.len().min(3)]
        );
        let mut reference = solution.aggregator();
        for e in &envs {
            reference.absorb(&e.report);
        }
        let snap = server.drain();
        assert_eq!(snap.n, total);
        assert_eq!(snap.aggregator.counts(), reference.counts());
    }

    #[test]
    #[should_panic(expected = "does not match this aggregator's solution")]
    fn a_foreign_shaped_report_panics_its_own_caller() {
        let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
            .build(&[4, 3], 1.0)
            .unwrap();
        let foreign = SolutionKind::Smp(ldp_protocols::ProtocolKind::Grr)
            .build(&[4, 3], 1.0)
            .unwrap();
        let server = LdpServer::spawn(solution, ServerConfig::default().shards(1));
        server.ingest_batch(envelopes(&foreign, 1, 41));
    }

    #[test]
    #[should_panic(expected = "aggregator shard 0 is poisoned")]
    fn later_calls_name_the_poisoned_shard() {
        let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
            .build(&[4, 3], 1.0)
            .unwrap();
        let foreign = SolutionKind::Smp(ldp_protocols::ProtocolKind::Grr)
            .build(&[4, 3], 1.0)
            .unwrap();
        let server = LdpServer::spawn(solution.clone(), ServerConfig::default().shards(1));
        let poisoning = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            server.ingest_batch(envelopes(&foreign, 1, 43));
        }));
        assert!(poisoning.is_err(), "a foreign-shaped report must panic");
        server.ingest_batch(envelopes(&solution, 1, 47));
    }
}
