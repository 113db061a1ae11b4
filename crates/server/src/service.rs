//! The ingestion service: bounded channels in, worker-owned shards inside,
//! merged snapshots out.
//!
//! ## Channel topology
//!
//! ```text
//!  producers ──ingest*(round-robin)──►  [SyncSender]───►  worker 0 (owns shard 0)
//!        (any number of threads;        [SyncSender]───►  worker 1 (owns shard 1)
//!         senders are Sync —                 …                …
//!         one LdpServer is shared)      [SyncSender]───►  worker S (owns shard S)
//! ```
//!
//! The routing unit is the channel message, not the report: every message
//! (a filled batch or a validated wire frame) goes to the next shard of one
//! round-robin counter, whole. Which shard absorbs a report cannot change
//! any estimate — the shards hold exact integer counts and sums — so
//! nothing is ever re-sharded report by report.
//!
//! Every shard has its own **bounded** `sync_channel`; a full queue blocks
//! the producer (backpressure), so server-side memory stays flat no matter
//! how bursty the traffic is. Each worker **owns** its
//! [`MultidimAggregator`] shard outright — no aggregation state is ever
//! behind a lock — and every cross-thread interaction is a message: batches
//! fold straight into the owned shard,
//! [`LdpServer::snapshot`] requests a clone of each shard through a reply
//! channel, and [`LdpServer::drain`] collects the shards as the workers'
//! join values. The shards merge exactly (integer counts), which is what
//! makes the drained snapshot bit-identical to a batch pass regardless of
//! shard count and arrival order.
//!
//! ## Allocation budget
//!
//! Batched reports cross the channel as
//! [`CompactBatch`]es — flat `u64` buffers
//! that the workers recycle back to the producers through bounded
//! **per-shard** buffer pools after absorbing them (support is counted
//! directly from the encoded words, never by rematerializing reports).
//! Steady-state batched ingestion therefore allocates nothing on either
//! side of the channel (with more than `POOL_SLACK_PER_SHARD` concurrent
//! producers the overflow buffers are dropped and reallocated — amortized
//! per batch, never per report). The round-robin counter and the pool
//! mutexes are the only shared state on the ingest path, each touched once
//! per *message*; no pool is shared across shards. A validated wire batch
//! ([`LdpServer::ingest_compact`]) is moved into a queue without copying a
//! word.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use ldp_core::solutions::{CompactBatch, DynSolution, MultidimAggregator, SolutionReport};

use crate::config::ServerConfig;
use crate::snapshot::{EpochSnapshot, ServerSnapshot};

/// Recycled batch buffers kept around per shard — sized to cover one
/// in-flight buffer per concurrent producer for typical producer counts
/// (≤ 8 per shard). Anything beyond this is simply dropped and lazily
/// reallocated, so with more producers the recycling degrades to amortized
/// per-batch (never per-report) allocation; the pool is an optimization,
/// not a correctness surface.
const POOL_SLACK_PER_SHARD: usize = 8;

/// One ingested message: the reporting user plus their sanitized report.
/// The `uid` is carried alongside the report, not used to route it — the
/// report itself is the only thing the server state ever sees. The report
/// is already in its encoded words, so [`LdpServer::ingest_batch`] copies
/// it into a shard buffer without re-encoding it.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// Stable user identifier (carried into the batch; never a routing key).
    pub uid: u64,
    /// The user's sanitized report.
    pub report: SolutionReport,
}

/// What flows through a shard channel.
enum Msg {
    /// A compact-encoded batch of envelopes, in order.
    Batch(CompactBatch),
    /// Reply with a clone of the worker's shard state at this point of its
    /// queue (the estimate-while-ingesting snapshot protocol).
    Snapshot(Sender<MultidimAggregator>),
    /// Epoch rotation: swap the worker's shard for the supplied fresh one
    /// and hand the closed shard back — the per-epoch windowed-aggregation
    /// protocol (channel FIFO scopes the closed shard to exactly the
    /// messages sent before the rotation).
    Rotate {
        /// Empty aggregator the worker adopts for the next epoch (boxed:
        /// it is the largest message and crosses once per epoch).
        fresh: Box<MultidimAggregator>,
        /// Where the closed epoch's shard is sent.
        reply: Sender<MultidimAggregator>,
    },
}

/// A running ingestion service over one collection solution.
///
/// Spawn it with [`LdpServer::spawn`], push sanitized reports through
/// [`LdpServer::ingest_batch`], or already-encoded ones through
/// [`LdpServer::ingest_compact`] (callable from any number of
/// producer threads — the sender side is `Sync`), observe the
/// running state with [`LdpServer::snapshot`], and finish with
/// [`LdpServer::drain`]. See the [module docs](crate::service) for the
/// channel topology, the allocation budget and the determinism argument.
#[derive(Debug)]
pub struct LdpServer {
    /// An empty aggregator for the server's solution: every shard, epoch
    /// rotation and merge base is a clone of it, so all of them share its
    /// solution handle.
    empty: MultidimAggregator,
    config: ServerConfig,
    txs: Vec<SyncSender<Msg>>,
    workers: Vec<JoinHandle<MultidimAggregator>>,
    /// Per-shard pools of drained batch buffers returned by the workers for
    /// producer reuse (shard `s`'s worker only ever touches `pools[s]`).
    pools: Arc<Vec<Mutex<Vec<CompactBatch>>>>,
    /// Round-robin cursor: the next message goes to shard `next % shards`.
    next: AtomicUsize,
    /// The epoch state, locked across each broadcast of `snapshot` and
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
    /// Starts `config.shards` worker threads, each owning one aggregator
    /// shard behind a bounded channel.
    pub fn spawn(solution: DynSolution, config: ServerConfig) -> Self {
        let config = config.sanitized();
        let empty = solution.aggregator();
        let pools: Arc<Vec<Mutex<Vec<CompactBatch>>>> =
            Arc::new((0..config.shards).map(|_| Mutex::new(Vec::new())).collect());
        let mut txs = Vec::with_capacity(config.shards);
        let mut workers = Vec::with_capacity(config.shards);
        for shard in 0..config.shards {
            let (tx, rx) = sync_channel::<Msg>(config.queue_depth);
            let aggregator = empty.clone();
            let pools = Arc::clone(&pools);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("ldp-shard-{shard}"))
                    .spawn(move || worker_loop(&rx, aggregator, &pools[shard]))
                    .expect("cannot spawn ingestion worker"),
            );
            txs.push(tx);
        }
        LdpServer {
            epochs: Mutex::new(Epochs {
                closed: empty.clone(),
                ring: VecDeque::new(),
                current: 0,
            }),
            empty,
            config,
            txs,
            workers,
            pools,
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
    /// into one (pool-recycled) buffer of up to `config.batch` reports at a
    /// time, and each filled buffer is sent whole, as one message. Blocks
    /// whenever the target shard's queue is full (backpressure). A single
    /// envelope goes in as `ingest_batch(std::iter::once(envelope))`.
    ///
    /// # Panics
    /// Panics when a target worker has died (it panicked absorbing an
    /// earlier report, e.g. one of a foreign solution's shape).
    pub fn ingest_batch(&self, envelopes: impl IntoIterator<Item = Envelope>) {
        let mut envelopes = envelopes.into_iter().peekable();
        while envelopes.peek().is_some() {
            self.send(|shard| {
                let mut buffer = self.pooled_buffer(shard);
                for Envelope { uid, report } in envelopes.by_ref().take(self.config.batch) {
                    buffer.push(uid, &report);
                }
                Msg::Batch(buffer)
            });
        }
    }

    /// Ingests an already-encoded batch by moving it, whole, into one
    /// shard's queue: no report is decoded or copied, and the drain is
    /// bit-identical to `ingest_batch(batch.iter())`. This is the wire
    /// tier's entry: the batch must already have been checked against this
    /// server's solution ([`CompactBatch::decode_for`], which the wire tier
    /// decodes with, or [`CompactBatch::validate_for_solution`]) or been
    /// built locally with [`CompactBatch::push`] — the workers' counting
    /// path only debug-asserts domains. The batch is one queued message
    /// whatever its length, so the caller bounds it; the wire tier rejects
    /// any frame of more than `config.batch` reports.
    ///
    /// # Panics
    /// Panics when the target worker has died.
    pub fn ingest_compact(&self, batch: CompactBatch) {
        self.send(|_| Msg::Batch(batch));
    }

    /// The one send path behind every ingest entry: picks the next shard
    /// round-robin, builds the message for it (`make` gets the shard, so a
    /// batch can be filled in that shard's pooled buffer) and sends it,
    /// blocking while the shard's queue is full.
    fn send(&self, make: impl FnOnce(usize) -> Msg) {
        let shard = self.next.fetch_add(1, Ordering::Relaxed) % self.txs.len();
        self.txs[shard]
            .send(make(shard))
            .expect("ingestion worker disconnected (did it panic?)");
    }

    /// Merged view of everything absorbed so far, while ingestion keeps
    /// running: each worker replies with a clone of its owned shard at its
    /// current queue position. Channel FIFO makes the snapshot cover every
    /// envelope ingested before this call. Ingestion takes no lock; the
    /// epoch lock is held across the broadcast, so a snapshot waits for a
    /// rotation in flight (and the other way round) rather than seeing it
    /// half done.
    ///
    /// # Panics
    /// Panics when a worker has died.
    pub fn snapshot(&self) -> ServerSnapshot {
        let epochs = self.epochs.lock().expect("epoch state poisoned");
        let shards = self.broadcast(Msg::Snapshot);
        // Reply order is arbitrary; the merge is exact integer addition, so
        // the snapshot is independent of it. Closed epochs re-enter through
        // the cumulative base (empty until the first rotation).
        ServerSnapshot::merge(epochs.closed.clone(), &shards)
    }

    /// Closes the current collection epoch: every worker swaps its shard
    /// for a fresh one (channel FIFO scopes the closed shards to exactly
    /// the envelopes ingested before this call), the closed shards merge
    /// into one windowed [`EpochSnapshot`] pushed onto the retention ring,
    /// and their counts fold into the cumulative aggregate so
    /// [`LdpServer::snapshot`] / [`LdpServer::drain`] keep covering the full
    /// collection. Returns the closed epoch's snapshot.
    ///
    /// Callers coordinating several producers must stop ingesting for the
    /// closing epoch *before* advancing — the wire tier's EPOCH barrier
    /// (see `ldp_server::net`) does exactly that for remote fleets.
    ///
    /// # Panics
    /// Panics when a worker has died.
    pub fn advance_epoch(&self) -> EpochSnapshot {
        let mut epochs = self.epochs.lock().expect("epoch state poisoned");
        let shards = self.broadcast(|reply| Msg::Rotate {
            fresh: Box::new(self.empty.clone()),
            reply,
        });
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
        self.epochs.lock().expect("epoch state poisoned").current
    }

    /// The retained closed-epoch snapshots, oldest first — at most
    /// `config.retain` entries (the windowed-query surface).
    pub fn epochs(&self) -> Vec<EpochSnapshot> {
        let epochs = self.epochs.lock().expect("epoch state poisoned");
        epochs.ring.iter().cloned().collect()
    }

    /// Graceful shutdown: closes every shard channel, waits for the workers
    /// to absorb their remaining queue, and merges the shard states they
    /// hand back as join values. Bit-identical to a batch pass over every
    /// ingested report.
    ///
    /// # Panics
    /// Panics when a worker thread panicked.
    pub fn drain(self) -> ServerSnapshot {
        let LdpServer {
            txs,
            workers,
            epochs,
            ..
        } = self;
        drop(txs);
        let shards: Vec<MultidimAggregator> = workers
            .into_iter()
            .map(|worker| worker.join().expect("ingestion worker panicked"))
            .collect();
        let epochs = epochs
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        ServerSnapshot::merge(epochs.closed, &shards)
    }

    /// Sends `make(reply)` to every shard and collects the one shard state
    /// each worker replies with, in arbitrary order. Channel FIFO puts each
    /// message behind everything already queued on its shard.
    fn broadcast(
        &self,
        make: impl Fn(Sender<MultidimAggregator>) -> Msg,
    ) -> Vec<MultidimAggregator> {
        let (reply_tx, reply_rx) = std::sync::mpsc::channel();
        for tx in &self.txs {
            tx.send(make(reply_tx.clone()))
                .expect("ingestion worker disconnected (did it panic?)");
        }
        drop(reply_tx);
        (0..self.txs.len())
            .map(|_| reply_rx.recv().expect("ingestion worker dropped a reply"))
            .collect()
    }

    /// A cleared batch buffer for `shard`, recycled from its pool when one
    /// is available.
    fn pooled_buffer(&self, shard: usize) -> CompactBatch {
        self.pools[shard]
            .lock()
            .ok()
            .and_then(|mut pool| pool.pop())
            .unwrap_or_default()
    }
}

/// One worker: receive messages in order, fold reports into the **owned**
/// shard, recycle drained batch buffers, answer snapshot and rotation
/// requests. Exits when every sender is gone, handing the shard back as the
/// thread's join value.
fn worker_loop(
    rx: &Receiver<Msg>,
    mut aggregator: MultidimAggregator,
    pool: &Mutex<Vec<CompactBatch>>,
) -> MultidimAggregator {
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Batch(mut batch) => {
                aggregator.absorb_compact(&batch);
                // Back to the shard's pool for producer reuse; a full pool
                // simply drops it (the pool is an optimization, not a
                // correctness surface).
                batch.clear();
                if let Ok(mut pool) = pool.lock() {
                    if pool.len() < POOL_SLACK_PER_SHARD {
                        pool.push(batch);
                    }
                }
            }
            Msg::Snapshot(reply) => {
                let _ = reply.send(aggregator.clone());
            }
            Msg::Rotate { fresh, reply } => {
                let closed = std::mem::replace(&mut aggregator, *fresh);
                let _ = reply.send(closed);
            }
        }
    }
    aggregator
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
    fn single_envelope_ingest_works_under_backpressure() {
        // Tiny queue + tiny batches: every send exercises the bounded path.
        let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
            .build(&[4, 3], 1.0)
            .unwrap();
        let server = LdpServer::spawn(
            solution.clone(),
            ServerConfig::default().shards(2).queue_depth(1).batch(1),
        );
        for e in envelopes(&solution, 200, 11) {
            server.ingest_batch(std::iter::once(e));
        }
        assert_eq!(server.drain().n, 200);
    }

    #[test]
    fn mixed_single_and_batched_ingest_absorb_everything() {
        // One-report batches and full batches interleave on the same shard
        // queues.
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
    fn batch_buffers_are_recycled_through_the_pool() {
        let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
            .build(&[4, 3], 1.0)
            .unwrap();
        let server = LdpServer::spawn(
            solution.clone(),
            ServerConfig::default().shards(2).batch(16),
        );
        server.ingest_batch(envelopes(&solution, 256, 17));
        // A snapshot queues behind every batch, so once it returns the
        // workers have handed their drained buffers back.
        server.snapshot();
        let pooled = |server: &LdpServer| -> usize {
            server.pools.iter().map(|p| p.lock().unwrap().len()).sum()
        };
        assert!(
            pooled(&server) > 0,
            "drained batch buffers must land back in the pools"
        );
        // A second pass reuses them rather than growing the pools without
        // bound (each shard's pool is individually capped).
        server.ingest_batch(envelopes(&solution, 256, 18));
        server.snapshot();
        assert!(pooled(&server) <= server.config.shards * POOL_SLACK_PER_SHARD);
        assert_eq!(server.drain().n, 512);
    }
}
