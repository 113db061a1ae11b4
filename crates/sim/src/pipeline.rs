//! The streaming collection pipeline: dataset → solution → sharded
//! aggregators → merged estimates, in one configurable, deterministic,
//! thread-parallel pass.
//!
//! This is the paper's §3.1 server loop at production shape: each worker
//! thread sanitizes its user range and absorbs the reports **directly** into
//! its own [`MultidimAggregator`] shard — no report is ever buffered — and
//! the shards are merged exactly (integer counts), so results are
//! bit-identical for every thread count and peak memory is
//! `O(threads · Σ_j k_j)` regardless of the population size.
//!
//! The per-user sanitize calls route through the protocols' word-parallel
//! paths (UE reports are built whole-word, never bit-by-bit — see the
//! sanitize budget in `docs/ARCHITECTURE.md`), and each user draws from its
//! own O(1)-seeded [`rand::rngs::SmallRng`] stream ([`crate::user_rng`]), so
//! a draw-count change inside one user's sanitization can never shift
//! another user's randomness — serial/sharded bit-identity survives
//! protocol-internal sampling changes.
//!
//! ```
//! use ldp_core::solutions::{RsFdProtocol, SolutionKind};
//! use ldp_sim::CollectionPipeline;
//! use ldp_datasets::corpora::adult_like;
//!
//! let dataset = adult_like(5_000, 7);
//! let run = CollectionPipeline::from_kind(
//!     SolutionKind::RsFd(RsFdProtocol::Grr),
//!     &dataset.schema().cardinalities(),
//!     1.0,
//! )
//! .unwrap()
//! .seed(42)
//! .threads(4)
//! .run(&dataset);
//! assert_eq!(run.n, 5_000);
//! assert_eq!(run.estimates.len(), dataset.d());
//! ```

use ldp_core::solutions::{DynSolution, MultidimAggregator, SolutionKind, SolutionReport};
use ldp_datasets::{Dataset, MixedDataset};
use ldp_protocols::hash::mix3;
use ldp_protocols::ProtocolError;
use ldp_server::{Envelope, EpochSnapshot, LdpServer, ServerConfig, ServerSnapshot};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::par;
use crate::traffic::TrafficGenerator;

/// Salt separating pipeline user streams from the campaign engines'.
pub(crate) const USER_SALT: u64 = 0x00C0_11EC_7A11;

/// Salt folding the collection round into the per-user rng streams of a
/// longitudinal campaign. Round 0 deliberately bypasses it (see
/// [`user_rng_round`]).
pub(crate) const ROUND_SALT: u64 = 0x0F1_0D5EED;

/// The pipeline's per-user report-sampling stream: a
/// [`SmallRng`] (SplitMix64, O(1) seeding) derived from
/// `mix3(seed, uid, USER_SALT)`. Seeding a full `StdRng` per user used to
/// cost a four-round seed expansion on the ingest hot path; the contract is
/// unchanged — each user's randomness is a pure function of
/// `(seed, uid, USER_SALT)`, so every pipeline mode is bit-identical for
/// every thread count. Exposed so tests and external drivers can regenerate
/// the exact wire (`tests/server_equivalence.rs` pins this scheme).
pub fn user_rng(seed: u64, uid: u64) -> SmallRng {
    SmallRng::seed_from_u64(mix3(seed, uid, USER_SALT))
}

/// The per-round twin of [`user_rng`] for longitudinal collection: user
/// `uid`'s sanitization stream in round `round`. Round 0 is **exactly**
/// [`user_rng`]`(seed, uid)` — the single-round pipeline, every
/// equivalence test pinning its scheme, and the memoization policy (which
/// replays round 0's report) all keep their bits — while later rounds fold
/// the round index into the seed so each fresh-randomness round draws an
/// independent stream.
pub fn user_rng_round(seed: u64, uid: u64, round: u64) -> SmallRng {
    if round == 0 {
        user_rng(seed, uid)
    } else {
        user_rng(mix3(seed, round, ROUND_SALT), uid)
    }
}

/// How the privacy budget is managed across the `R` rounds of a
/// longitudinal collection (the trade-off surveyed by Wang & Zhao et al.,
/// arXiv:1906.01777, and the lever behind the paper-style averaging risk).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetPolicy {
    /// Naive ε-splitting: every round sanitizes with **fresh** randomness
    /// at ε/R, so the campaign composes to ε-LDP overall — but each fresh
    /// report leaks a new independent view the averaging adversary pools.
    SplitEps,
    /// RAPPOR-style memoization: sanitize once at full ε in round 0 and
    /// replay that memoized report bit-identically every round. Repeated
    /// rounds reveal nothing new, at the cost of a stable per-user
    /// pseudonym on the wire.
    Memoize,
}

impl BudgetPolicy {
    /// Every policy, in documentation order.
    pub const ALL: [BudgetPolicy; 2] = [BudgetPolicy::SplitEps, BudgetPolicy::Memoize];

    /// Stable identifier used by the `risks serve` CLI.
    pub fn id(self) -> &'static str {
        match self {
            BudgetPolicy::SplitEps => "split",
            BudgetPolicy::Memoize => "memoize",
        }
    }

    /// Looks a policy up by its identifier.
    pub fn from_id(id: &str) -> Option<BudgetPolicy> {
        BudgetPolicy::ALL.into_iter().find(|p| p.id() == id)
    }

    /// The solution one round of an `R`-round campaign collects with:
    /// the same solution at ε/R for [`BudgetPolicy::SplitEps`], the
    /// full-budget solution unchanged for [`BudgetPolicy::Memoize`]. Both
    /// the producers and the server must build this (equal fingerprints on
    /// the wire).
    pub fn round_solution(
        self,
        solution: &DynSolution,
        rounds: usize,
    ) -> Result<DynSolution, ProtocolError> {
        match self {
            BudgetPolicy::Memoize => Ok(solution.clone()),
            BudgetPolicy::SplitEps => solution
                .kind()
                .build(solution.ks(), solution.epsilon() / rounds.max(1) as f64),
        }
    }

    /// The rng round that produces round `round`'s report under this
    /// policy: memoization replays round 0's stream, ε-splitting draws
    /// fresh randomness per round.
    pub fn rng_round(self, round: u64) -> u64 {
        match self {
            BudgetPolicy::Memoize => 0,
            BudgetPolicy::SplitEps => round,
        }
    }
}

impl std::fmt::Display for BudgetPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// The outcome of a streamed longitudinal pass
/// ([`CollectionPipeline::serve_rounds`]): the cumulative drain over every
/// round plus the server's retained per-epoch windowed snapshots.
#[derive(Debug, Clone)]
pub struct LongitudinalRun {
    /// The full-campaign drain (all rounds merged) — bit-identical to
    /// batch-collecting every round's reports.
    pub cumulative: CollectionRun,
    /// The retained closed-epoch snapshots, oldest first (at most the
    /// server's configured retention).
    pub epochs: Vec<EpochSnapshot>,
}

/// Configurable streaming collection run over one dataset. Build with
/// [`CollectionPipeline::new`] / [`CollectionPipeline::from_kind`], chain the
/// builder setters, then [`CollectionPipeline::run`].
#[derive(Debug, Clone)]
pub struct CollectionPipeline {
    solution: DynSolution,
    seed: u64,
    threads: usize,
    net: crate::net_client::ClientConfig,
}

/// The outcome of one pipeline pass.
#[derive(Debug, Clone)]
pub struct CollectionRun {
    /// The merged server state (reusable: keep absorbing or merge further
    /// shards, e.g. from other collection sites).
    pub aggregator: MultidimAggregator,
    /// Unbiased per-attribute frequency estimates.
    pub estimates: Vec<Vec<f64>>,
    /// Estimates projected onto the probability simplex.
    pub normalized: Vec<Vec<f64>>,
    /// Number of users collected.
    pub n: u64,
    /// Number of parallel shards that were merged.
    pub shards: usize,
}

impl CollectionPipeline {
    /// Wraps an already-built solution with default seed and thread count.
    pub fn new(solution: DynSolution) -> Self {
        CollectionPipeline {
            solution,
            seed: 0,
            threads: par::default_threads(),
            net: crate::net_client::ClientConfig::default(),
        }
    }

    /// Builds the solution from its kind — the one-stop constructor for
    /// sweeps (`SolutionKind::build` under the hood).
    pub fn from_kind(
        kind: SolutionKind,
        ks: &[usize],
        epsilon: f64,
    ) -> Result<Self, ProtocolError> {
        Ok(CollectionPipeline::new(kind.build(ks, epsilon)?))
    }

    /// Sets the collection seed (per-user randomness derives from it).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker thread count (`1` runs inline; results are identical
    /// for every value).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the client-side wire behavior (auth, deadlines, reconnect
    /// policy, fault injection) the `serve_remote*` producers connect with.
    /// In-process passes ignore it.
    pub fn client(mut self, cfg: crate::net_client::ClientConfig) -> Self {
        self.net = cfg;
        self
    }

    /// The configured solution.
    pub fn solution(&self) -> &DynSolution {
        &self.solution
    }

    /// Runs the pass: every user's tuple is sanitized with its own
    /// deterministic RNG and absorbed straight into a per-thread aggregator
    /// shard; shards merge into [`CollectionRun::aggregator`].
    ///
    /// # Panics
    /// Panics when the dataset's attribute count differs from the
    /// solution's.
    pub fn run(&self, dataset: &Dataset) -> CollectionRun {
        self.assert_dataset(dataset);
        self.run_source(dataset.n(), self.dataset_reporter(dataset))
    }

    /// [`CollectionPipeline::run`] over a mixed categorical + continuous
    /// dataset: each user's categorical row and normalized numeric row are
    /// sanitized together through [`DynSolution::report_mixed`]. Identical
    /// determinism contract (per-user [`user_rng`] streams, exact shard
    /// merge).
    ///
    /// # Panics
    /// Panics when the dataset's heterogeneous `ks` differ from the
    /// solution's (the solution must be a mixed one).
    pub fn run_mixed(&self, mixed: &MixedDataset) -> CollectionRun {
        self.assert_mixed(mixed);
        self.run_source(mixed.n(), self.mixed_reporter(mixed))
    }

    fn run_source(
        &self,
        n: usize,
        report: impl Fn(usize, &mut SmallRng) -> SolutionReport + Sync,
    ) -> CollectionRun {
        let shards = self.sanitize_shards(
            n,
            report,
            || self.solution.aggregator(),
            |agg, report| agg.absorb(&report),
        );
        self.merge_shards(shards)
    }

    /// [`CollectionPipeline::run`] that also hands back the wire: each user
    /// is sanitized **once**, the report is absorbed into its thread's
    /// aggregator shard *and* kept as the §3.1 adversary's observation.
    /// Buffers `O(n)` reports (the adversary must hold the wire anyway);
    /// use [`CollectionPipeline::run`] when nothing observes the messages.
    ///
    /// # Panics
    /// Panics when the dataset's attribute count differs from the
    /// solution's.
    pub fn run_with_observation(&self, dataset: &Dataset) -> (CollectionRun, Vec<SolutionReport>) {
        self.assert_dataset(dataset);
        self.run_with_observation_source(dataset.n(), self.dataset_reporter(dataset))
    }

    /// [`CollectionPipeline::run_with_observation`] over a mixed dataset —
    /// the single-sanitization-pass entry for numeric attacks.
    ///
    /// # Panics
    /// Panics when the dataset's heterogeneous `ks` differ from the
    /// solution's.
    pub fn run_with_observation_mixed(
        &self,
        mixed: &MixedDataset,
    ) -> (CollectionRun, Vec<SolutionReport>) {
        self.assert_mixed(mixed);
        self.run_with_observation_source(mixed.n(), self.mixed_reporter(mixed))
    }

    fn run_with_observation_source(
        &self,
        n: usize,
        report: impl Fn(usize, &mut SmallRng) -> SolutionReport + Sync,
    ) -> (CollectionRun, Vec<SolutionReport>) {
        let chunks = self.sanitize_shards(
            n,
            report,
            || (self.solution.aggregator(), Vec::new()),
            |(agg, reports), report| {
                agg.absorb(&report);
                reports.push(report);
            },
        );
        let mut shards = Vec::with_capacity(chunks.len());
        let mut observed = Vec::with_capacity(n);
        for (agg, reports) in chunks {
            shards.push(agg);
            observed.extend(reports);
        }
        (self.merge_shards(shards), observed)
    }

    /// Regenerates the exact sanitized messages a [`CollectionPipeline::run`]
    /// with this configuration absorbs — the §3.1 adversary's wire view.
    /// Per-user randomness derives from the same `(seed, uid)` streams as
    /// the collection pass, so what the attack observes is bit-identical to
    /// what the server aggregated. Prefer
    /// [`CollectionPipeline::run_with_observation`] when the collection run
    /// is needed too (one sanitization pass instead of two).
    pub fn observe(&self, dataset: &Dataset) -> Vec<SolutionReport> {
        self.assert_dataset(dataset);
        self.sanitize_shards(
            dataset.n(),
            self.dataset_reporter(dataset),
            Vec::new,
            |reports, report| reports.push(report),
        )
        .into_iter()
        .flatten()
        .collect()
    }

    /// [`CollectionPipeline::observe`] over a mixed dataset.
    ///
    /// # Panics
    /// Panics when the dataset's heterogeneous `ks` differ from the
    /// solution's.
    pub fn observe_mixed(&self, mixed: &MixedDataset) -> Vec<SolutionReport> {
        self.assert_mixed(mixed);
        self.sanitize_shards(
            mixed.n(),
            self.mixed_reporter(mixed),
            Vec::new,
            |reports, report| reports.push(report),
        )
        .into_iter()
        .flatten()
        .collect()
    }

    /// The streamed twin of [`CollectionPipeline::run`]: spins up an
    /// [`LdpServer`] with one shard per configured thread, pushes every
    /// user's sanitized report through its bounded channels following the
    /// `traffic` arrival schedule, and gracefully drains it. The configured
    /// thread count drives **both** sides of the channel: each wave is
    /// sanitized by up to `threads` concurrent producers (the server's
    /// sender side is `Sync`) feeding `threads` aggregator shards.
    ///
    /// Per-user randomness derives from the same `(seed, uid)` streams as
    /// `run`, every user arrives exactly once whatever the traffic shape,
    /// and the server's shard merge is exact integer addition (independent
    /// of producer interleaving) — so the returned run is **bit-identical**
    /// to `run(dataset)` at equal seed, for every thread count and every
    /// [`TrafficShape`](crate::traffic::TrafficShape) (property-tested in
    /// `tests/server_equivalence.rs`).
    ///
    /// # Panics
    /// Panics when the dataset's attribute count differs from the
    /// solution's, or when `traffic` was built for a different population
    /// size.
    pub fn serve(&self, dataset: &Dataset, traffic: &TrafficGenerator) -> CollectionRun {
        self.assert_dataset(dataset);
        self.serve_source(dataset.n(), traffic, self.dataset_reporter(dataset))
    }

    /// [`CollectionPipeline::serve`] over a mixed dataset: the streamed
    /// server drain of a mixed round, bit-identical to
    /// [`CollectionPipeline::run_mixed`] at equal seed for every thread
    /// count and traffic shape.
    ///
    /// # Panics
    /// Panics when the dataset's heterogeneous `ks` differ from the
    /// solution's, or when `traffic` was built for a different population
    /// size.
    pub fn serve_mixed(&self, mixed: &MixedDataset, traffic: &TrafficGenerator) -> CollectionRun {
        self.assert_mixed(mixed);
        self.serve_source(mixed.n(), traffic, self.mixed_reporter(mixed))
    }

    fn serve_source(
        &self,
        n: usize,
        traffic: &TrafficGenerator,
        report: impl Fn(usize, &mut SmallRng) -> SolutionReport + Sync,
    ) -> CollectionRun {
        assert_eq!(
            traffic.n(),
            n,
            "traffic schedule does not match the dataset population"
        );
        let server = LdpServer::spawn(
            self.solution.clone(),
            ServerConfig::default().shards(self.threads),
        );
        self.serve_round_into(&server, traffic, 0, 0, &report);
        CollectionRun::from_snapshot(server.drain())
    }

    /// Streams one collection round's waves into a running server: arrivals
    /// follow `traffic.waves_for_round(round)`, per-user randomness draws
    /// from [`user_rng_round`]`(seed, uid, rng_round)`. The two round
    /// indices differ only under memoization, which replays round 0's
    /// reports (`rng_round == 0`) on every round's own arrival schedule.
    /// The single-round [`CollectionPipeline::serve`] is exactly `(0, 0)`.
    fn serve_round_into(
        &self,
        server: &LdpServer,
        traffic: &TrafficGenerator,
        round: u64,
        rng_round: u64,
        report: &(impl Fn(usize, &mut SmallRng) -> SolutionReport + Sync),
    ) {
        // Scoped producer threads are spawned per wave, so don't fan a small
        // wave out across the full thread budget: below this many users per
        // producer the spawn/join churn outweighs the parallel sanitization
        // (a steady 10M-user schedule has ~10k waves).
        const MIN_USERS_PER_PRODUCER: usize = 4096;
        for wave in traffic.waves_for_round(round) {
            // Parallel producers: sanitization dominates the cost, so the
            // wave is split into contiguous chunks ingested concurrently.
            let producers = self
                .threads
                .min(wave.len().div_ceil(MIN_USERS_PER_PRODUCER))
                .max(1);
            par::par_chunks(wave.len(), producers, |range| {
                server.ingest_batch(wave[range].iter().map(|&uid| {
                    let mut rng = user_rng_round(self.seed, uid, rng_round);
                    Envelope {
                        uid,
                        report: report(uid as usize, &mut rng),
                    }
                }));
                Vec::<()>::new()
            });
        }
    }

    /// The pipeline one round of an `R`-round campaign under `policy`
    /// collects with: same seed and threads, solution rebuilt by
    /// [`BudgetPolicy::round_solution`].
    fn round_pipeline(
        &self,
        policy: BudgetPolicy,
        rounds: usize,
    ) -> Result<CollectionPipeline, ProtocolError> {
        Ok(CollectionPipeline {
            solution: policy.round_solution(&self.solution, rounds)?,
            seed: self.seed,
            threads: self.threads,
            net: self.net.clone(),
        })
    }

    /// The longitudinal twin of [`CollectionPipeline::run`]: collects the
    /// same population over `rounds` rounds under `policy`, returning one
    /// [`CollectionRun`] per round. The configured solution carries the
    /// **total** budget ε; [`BudgetPolicy::SplitEps`] sanitizes each round
    /// with fresh randomness at ε/R, [`BudgetPolicy::Memoize`] computes the
    /// round-0 report at full ε and replays it bit-identically (rounds > 0
    /// re-derive the identical report from the identical rng stream — the
    /// functional definition of memoization, with no per-user cache).
    ///
    /// # Panics
    /// Panics when the dataset's attribute count differs from the
    /// solution's.
    pub fn run_rounds(
        &self,
        dataset: &Dataset,
        rounds: usize,
        policy: BudgetPolicy,
    ) -> Result<Vec<CollectionRun>, ProtocolError> {
        self.assert_dataset(dataset);
        let rounds = rounds.max(1);
        let per_round = self.round_pipeline(policy, rounds)?;
        Ok((0..rounds as u64)
            .map(|round| {
                let shards = per_round.sanitize_shards_round(
                    dataset.n(),
                    per_round.dataset_reporter(dataset),
                    || per_round.solution.aggregator(),
                    |agg, report| agg.absorb(&report),
                    policy.rng_round(round),
                );
                per_round.merge_shards(shards)
            })
            .collect())
    }

    /// The longitudinal twin of [`CollectionPipeline::observe`]: the full
    /// `rounds · n` wire a longitudinal adversary captures, round-major
    /// (round `r`'s reports occupy `r*n .. (r+1)*n`, each round in user
    /// order). Also returns the per-round solution the reports were
    /// sanitized with (ε/R under [`BudgetPolicy::SplitEps`]) — the attack
    /// needs it to build its matching profiles.
    ///
    /// # Panics
    /// Panics when the dataset's attribute count differs from the
    /// solution's.
    pub fn observe_rounds(
        &self,
        dataset: &Dataset,
        rounds: usize,
        policy: BudgetPolicy,
    ) -> Result<(DynSolution, Vec<SolutionReport>), ProtocolError> {
        self.assert_dataset(dataset);
        let rounds = rounds.max(1);
        let per_round = self.round_pipeline(policy, rounds)?;
        let mut observed = Vec::with_capacity(rounds * dataset.n());
        for round in 0..rounds as u64 {
            let chunks = per_round.sanitize_shards_round(
                dataset.n(),
                per_round.dataset_reporter(dataset),
                Vec::new,
                |reports, report| reports.push(report),
                policy.rng_round(round),
            );
            observed.extend(chunks.into_iter().flatten());
        }
        Ok((per_round.solution, observed))
    }

    /// The streamed twin of [`CollectionPipeline::run_rounds`]: serves
    /// `rounds` epochs against one [`LdpServer`], each round following its
    /// own re-randomized arrival schedule
    /// ([`TrafficGenerator::waves_for_round`]) and closed with
    /// [`LdpServer::advance_epoch`], retaining the last `retain` windowed
    /// epoch snapshots. Round `r`'s epoch snapshot is **bit-identical** to
    /// `run_rounds(..)[r]` and the cumulative drain to all rounds merged,
    /// for every thread count and traffic shape.
    ///
    /// # Panics
    /// Panics when the dataset's attribute count differs from the
    /// solution's, or when `traffic` was built for a different population
    /// size.
    pub fn serve_rounds(
        &self,
        dataset: &Dataset,
        traffic: &TrafficGenerator,
        rounds: usize,
        policy: BudgetPolicy,
        retain: usize,
    ) -> Result<LongitudinalRun, ProtocolError> {
        self.assert_dataset(dataset);
        assert_eq!(
            traffic.n(),
            dataset.n(),
            "traffic schedule does not match the dataset population"
        );
        let rounds = rounds.max(1);
        let per_round = self.round_pipeline(policy, rounds)?;
        let report = per_round.dataset_reporter(dataset);
        let server = LdpServer::spawn(
            per_round.solution.clone(),
            ServerConfig::default().shards(self.threads).retain(retain),
        );
        for round in 0..rounds as u64 {
            per_round.serve_round_into(&server, traffic, round, policy.rng_round(round), &report);
            server.advance_epoch();
        }
        let epochs = server.epochs();
        let cumulative = CollectionRun::from_snapshot(server.drain());
        Ok(LongitudinalRun { cumulative, epochs })
    }

    /// The multi-process twin of [`CollectionPipeline::serve`]: drives one
    /// producer session against a remote
    /// [`WireServer`](ldp_server::WireServer) at `addr`, sanitizing every
    /// user of the traffic schedule and streaming the reports as checksummed
    /// BATCH_SEQ frames. Returns the number of reports the server acknowledged
    /// at DRAIN.
    ///
    /// Per-user randomness derives from the same [`user_rng`]`(seed, uid)`
    /// streams as [`CollectionPipeline::run`], so a socket-fed server drain
    /// is **bit-identical** to the in-process run at equal seed
    /// (`tests/net_equivalence.rs` pins this across thread and connection
    /// counts).
    pub fn serve_remote(
        &self,
        dataset: &Dataset,
        traffic: &TrafficGenerator,
        addr: &str,
    ) -> Result<u64, ldp_server::WireError> {
        self.serve_remote_part(dataset, traffic, addr, 0, 1, 0, &mut |_| {})
    }

    /// [`CollectionPipeline::serve_remote`] for one producer of a fleet:
    /// streams only the users with `uid % parts == part`, so `parts`
    /// processes each running a distinct `part` cover the population
    /// exactly once between them. With `snapshot_every > 0`, a
    /// (non-quiescing) SNAPSHOT round trip is interleaved every that many
    /// waves and handed to `on_snapshot` — the incremental
    /// estimate-while-ingesting stream.
    ///
    /// # Panics
    /// Panics when the dataset does not match the solution schema, the
    /// traffic schedule does not match the population, or `part >= parts`.
    #[allow(clippy::too_many_arguments)]
    pub fn serve_remote_part(
        &self,
        dataset: &Dataset,
        traffic: &TrafficGenerator,
        addr: &str,
        part: usize,
        parts: usize,
        snapshot_every: usize,
        on_snapshot: &mut dyn FnMut(&ldp_server::WireSnapshot),
    ) -> Result<u64, ldp_server::WireError> {
        self.assert_dataset(dataset);
        self.serve_remote_source(
            dataset.n(),
            traffic,
            addr,
            part,
            parts,
            snapshot_every,
            on_snapshot,
            &self.dataset_reporter(dataset),
        )
    }

    /// The longitudinal twin of [`CollectionPipeline::serve_remote_part`]:
    /// one producer of a fleet streaming `rounds` rounds to a remote
    /// [`WireServer`](ldp_server::WireServer), with an `EPOCH` barrier
    /// round trip after each round so the whole fleet advances epochs in
    /// lockstep (the server must have been bound with
    /// `WireServer::producers(parts)`). The configured solution carries the
    /// total budget; the session handshakes with the **per-round** solution
    /// (ε/R under [`BudgetPolicy::SplitEps`]), so the server must build the
    /// same one. Returns the reports acknowledged at DRAIN.
    ///
    /// # Panics
    /// Panics when the dataset does not match the solution schema, the
    /// traffic schedule does not match the population, or `part >= parts`.
    #[allow(clippy::too_many_arguments)]
    pub fn serve_remote_rounds(
        &self,
        dataset: &Dataset,
        traffic: &TrafficGenerator,
        addr: &str,
        part: usize,
        parts: usize,
        rounds: usize,
        policy: BudgetPolicy,
    ) -> Result<u64, ldp_server::WireError> {
        self.assert_dataset(dataset);
        assert_eq!(
            traffic.n(),
            dataset.n(),
            "traffic schedule does not match the dataset population"
        );
        assert!(
            part < parts,
            "producer part {part} outside fleet of {parts}"
        );
        let rounds = rounds.max(1);
        let per_round = self.round_pipeline(policy, rounds).map_err(|e| {
            ldp_server::WireError::Handshake(format!("cannot build the per-round solution: {e}"))
        })?;
        let report = per_round.dataset_reporter(dataset);
        let mut client = crate::net_client::NetClient::connect_with(
            addr,
            &per_round.solution,
            self.net.clone(),
        )?;
        for round in 0..rounds as u64 {
            let rng_round = policy.rng_round(round);
            for wave in traffic.waves_for_round(round) {
                for &uid in wave
                    .iter()
                    .filter(|&&uid| uid % parts as u64 == part as u64)
                {
                    let mut rng = user_rng_round(self.seed, uid, rng_round);
                    client.push(uid, &report(uid as usize, &mut rng))?;
                }
            }
            client.advance_epoch(round)?;
        }
        client.finish()
    }

    /// [`CollectionPipeline::serve_remote`] over a mixed dataset: streams
    /// mixed reports to a remote [`WireServer`](ldp_server::WireServer)
    /// through the same checksummed BATCH_SEQ frames (the compact wire encoding
    /// carries numeric entries unchanged). Bit-identical to
    /// [`CollectionPipeline::run_mixed`] at equal seed.
    ///
    /// # Panics
    /// Panics when the dataset's heterogeneous `ks` differ from the
    /// solution's, or when `traffic` was built for a different population
    /// size.
    pub fn serve_remote_mixed(
        &self,
        mixed: &MixedDataset,
        traffic: &TrafficGenerator,
        addr: &str,
    ) -> Result<u64, ldp_server::WireError> {
        self.assert_mixed(mixed);
        self.serve_remote_source(
            mixed.n(),
            traffic,
            addr,
            0,
            1,
            0,
            &mut |_| {},
            &self.mixed_reporter(mixed),
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn serve_remote_source(
        &self,
        n: usize,
        traffic: &TrafficGenerator,
        addr: &str,
        part: usize,
        parts: usize,
        snapshot_every: usize,
        on_snapshot: &mut dyn FnMut(&ldp_server::WireSnapshot),
        report: &dyn Fn(usize, &mut SmallRng) -> SolutionReport,
    ) -> Result<u64, ldp_server::WireError> {
        assert_eq!(
            traffic.n(),
            n,
            "traffic schedule does not match the dataset population"
        );
        assert!(
            part < parts,
            "producer part {part} outside fleet of {parts}"
        );
        let mut client =
            crate::net_client::NetClient::connect_with(addr, &self.solution, self.net.clone())?;
        for (i, wave) in traffic.waves().enumerate() {
            for &uid in wave
                .iter()
                .filter(|&&uid| uid % parts as u64 == part as u64)
            {
                let mut rng = user_rng(self.seed, uid);
                client.push(uid, &report(uid as usize, &mut rng))?;
            }
            if snapshot_every > 0 && (i + 1) % snapshot_every == 0 {
                on_snapshot(&client.snapshot(false)?);
            }
        }
        client.finish()
    }

    /// The single seeded per-user sanitize loop behind `run`, `observe` and
    /// `run_with_observation` (and their `_mixed` twins): each worker chunk
    /// folds its users' reports into one `A` via `absorb`, with user `uid`'s
    /// randomness drawn from [`user_rng`]`(seed, uid)` and the report itself
    /// produced by the source-specific `report` closure. Chunk outputs come
    /// back in user order. Keeping every caller on this loop is what
    /// guarantees the adversary's observed wire is bit-identical to what the
    /// server aggregated.
    fn sanitize_shards<A: Send>(
        &self,
        n: usize,
        report: impl Fn(usize, &mut SmallRng) -> SolutionReport + Sync,
        init: impl Fn() -> A + Sync,
        absorb: impl Fn(&mut A, SolutionReport) + Sync,
    ) -> Vec<A> {
        self.sanitize_shards_round(n, report, init, absorb, 0)
    }

    /// [`CollectionPipeline::sanitize_shards`] for one round of a
    /// longitudinal campaign: identical loop, but user `uid` draws from
    /// [`user_rng_round`]`(seed, uid, rng_round)`. Round 0 is the
    /// single-round loop bit for bit.
    fn sanitize_shards_round<A: Send>(
        &self,
        n: usize,
        report: impl Fn(usize, &mut SmallRng) -> SolutionReport + Sync,
        init: impl Fn() -> A + Sync,
        absorb: impl Fn(&mut A, SolutionReport) + Sync,
        rng_round: u64,
    ) -> Vec<A> {
        par::par_chunks(n, self.threads, |range| {
            let mut acc = init();
            for uid in range {
                let mut rng = user_rng_round(self.seed, uid as u64, rng_round);
                absorb(&mut acc, report(uid, &mut rng));
            }
            vec![acc]
        })
    }

    /// Per-user reporter over a categorical dataset.
    fn dataset_reporter<'a>(
        &'a self,
        dataset: &'a Dataset,
    ) -> impl Fn(usize, &mut SmallRng) -> SolutionReport + Sync + 'a {
        move |uid, rng| self.solution.report(dataset.row(uid), rng)
    }

    /// Per-user reporter over a mixed dataset: categorical row + normalized
    /// numeric row through [`DynSolution::report_mixed`]. The dataset
    /// validated every numeric value at construction, so a reporting error
    /// here is a bug, not bad input.
    fn mixed_reporter<'a>(
        &'a self,
        mixed: &'a MixedDataset,
    ) -> impl Fn(usize, &mut SmallRng) -> SolutionReport + Sync + 'a {
        move |uid, rng| {
            self.solution
                .report_mixed(mixed.cat().row(uid), mixed.num_row(uid), rng)
                .expect("mixed dataset values are validated at construction")
        }
    }

    fn assert_dataset(&self, dataset: &Dataset) {
        assert_eq!(
            dataset.d(),
            self.solution.d(),
            "dataset does not match the solution schema"
        );
    }

    fn assert_mixed(&self, mixed: &MixedDataset) {
        assert_eq!(
            mixed.ks(),
            self.solution.ks().to_vec(),
            "mixed dataset does not match the solution's heterogeneous ks"
        );
    }

    /// Merges per-thread shards into the final [`CollectionRun`].
    fn merge_shards(&self, shards: Vec<MultidimAggregator>) -> CollectionRun {
        let mut aggregator = self.solution.aggregator();
        let n_shards = shards.len();
        for shard in &shards {
            aggregator.merge(shard);
        }
        CollectionRun::from_snapshot(ServerSnapshot::from_aggregator(aggregator, n_shards.max(1)))
    }
}

impl CollectionRun {
    /// A run from a drained/merged server snapshot. Shared by the batch and
    /// streamed paths, so both produce identical estimates from identical
    /// counts — including the zero-users edge, where the estimates are
    /// all-zero (not NaN, and not a fabricated uniform distribution).
    pub(crate) fn from_snapshot(snapshot: ServerSnapshot) -> CollectionRun {
        CollectionRun {
            estimates: snapshot.estimates,
            normalized: snapshot.normalized,
            n: snapshot.n,
            shards: snapshot.shards,
            aggregator: snapshot.aggregator,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::solutions::{RsFdProtocol, RsRfdProtocol};
    use ldp_datasets::corpora::adult_like;
    use ldp_datasets::{Dataset, Schema};
    use ldp_protocols::ProtocolKind;

    fn all_kinds() -> Vec<SolutionKind> {
        vec![
            SolutionKind::Spl(ProtocolKind::Grr),
            SolutionKind::Smp(ProtocolKind::Oue),
            SolutionKind::RsFd(RsFdProtocol::Grr),
            SolutionKind::RsRfd(RsRfdProtocol::Grr),
        ]
    }

    #[test]
    fn deterministic_and_thread_count_independent() {
        let ds = adult_like(600, 3);
        let ks = ds.schema().cardinalities();
        for kind in all_kinds() {
            let single = CollectionPipeline::from_kind(kind, &ks, 2.0)
                .unwrap()
                .seed(11)
                .threads(1)
                .run(&ds);
            let parallel = CollectionPipeline::from_kind(kind, &ks, 2.0)
                .unwrap()
                .seed(11)
                .threads(4)
                .run(&ds);
            assert_eq!(single.n, 600);
            assert_eq!(single.aggregator.counts(), parallel.aggregator.counts());
            for (a, b) in single
                .estimates
                .iter()
                .flatten()
                .zip(parallel.estimates.iter().flatten())
            {
                assert_eq!(a.to_bits(), b.to_bits(), "{kind}: thread count leaked");
            }
        }
    }

    #[test]
    fn recovers_marginals_on_a_skewed_population() {
        // Everyone holds value 1 on attribute 0.
        let schema = Schema::from_cardinalities(&[4, 3]);
        let data: Vec<u32> = (0..20_000u32).flat_map(|i| [1, i % 3]).collect();
        let ds = Dataset::new(schema, data);
        let run = CollectionPipeline::from_kind(SolutionKind::Smp(ProtocolKind::Grr), &[4, 3], 3.0)
            .unwrap()
            .seed(5)
            .threads(3)
            .run(&ds);
        assert!(
            (run.estimates[0][1] - 1.0).abs() < 0.08,
            "{:?}",
            run.estimates[0]
        );
        let total: f64 = run.normalized[1].iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn observe_replays_the_collected_messages_exactly() {
        let ds = adult_like(300, 3);
        let ks = ds.schema().cardinalities();
        let pipeline =
            CollectionPipeline::from_kind(SolutionKind::RsFd(RsFdProtocol::Grr), &ks, 2.0)
                .unwrap()
                .seed(9)
                .threads(3);
        let run = pipeline.run(&ds);
        let observed = pipeline.observe(&ds);
        assert_eq!(observed.len(), 300);
        // Absorbing the observed wire messages reproduces the server state
        // bit for bit: the adversary saw exactly what was collected.
        let mut agg = pipeline.solution().aggregator();
        for r in &observed {
            agg.absorb(r);
        }
        assert_eq!(agg.counts(), run.aggregator.counts());
    }

    #[test]
    fn run_with_observation_matches_separate_run_and_observe() {
        let ds = adult_like(250, 6);
        let ks = ds.schema().cardinalities();
        let pipeline =
            CollectionPipeline::from_kind(SolutionKind::Smp(ProtocolKind::Oue), &ks, 2.0)
                .unwrap()
                .seed(13)
                .threads(4);
        let (run, observed) = pipeline.run_with_observation(&ds);
        assert_eq!(
            run.aggregator.counts(),
            pipeline.run(&ds).aggregator.counts()
        );
        let replayed = pipeline.observe(&ds);
        assert_eq!(observed.len(), replayed.len());
        // Same rng streams → the single-pass wire equals the replayed wire.
        let mut a = pipeline.solution().aggregator();
        let mut b = pipeline.solution().aggregator();
        for (x, y) in observed.iter().zip(&replayed) {
            a.absorb(x);
            b.absorb(y);
        }
        assert_eq!(a.counts(), b.counts());
    }

    #[test]
    fn serve_is_bit_identical_to_run() {
        use crate::traffic::{TrafficGenerator, TrafficShape};
        let ds = adult_like(700, 5);
        let ks = ds.schema().cardinalities();
        let pipeline =
            CollectionPipeline::from_kind(SolutionKind::RsFd(RsFdProtocol::Grr), &ks, 1.5)
                .unwrap()
                .seed(21)
                .threads(3);
        let batch = pipeline.run(&ds);
        for shape in TrafficShape::ALL {
            let traffic = TrafficGenerator::new(shape, ds.n()).seed(21).wave(97);
            let served = pipeline.serve(&ds, &traffic);
            assert_eq!(served.n, batch.n, "{shape}");
            assert_eq!(
                served.aggregator.counts(),
                batch.aggregator.counts(),
                "{shape}"
            );
            for (a, b) in served
                .estimates
                .iter()
                .flatten()
                .zip(batch.estimates.iter().flatten())
            {
                assert_eq!(a.to_bits(), b.to_bits(), "{shape}: serve leaked");
            }
        }
    }

    #[test]
    fn empty_dataset_yields_empty_but_valid_run() {
        use crate::traffic::{TrafficGenerator, TrafficShape};
        let schema = Schema::from_cardinalities(&[4, 3]);
        let ds = Dataset::new(schema, Vec::new());
        for kind in all_kinds() {
            let pipeline = CollectionPipeline::from_kind(kind, &[4, 3], 1.0)
                .unwrap()
                .seed(1)
                .threads(4);
            for run in [
                pipeline.run(&ds),
                pipeline.serve(&ds, &TrafficGenerator::new(TrafficShape::Burst, 0)),
            ] {
                assert_eq!(run.n, 0, "{kind}");
                assert_eq!(run.estimates.len(), 2, "{kind}");
                assert!(
                    run.estimates.iter().flatten().all(|f| *f == 0.0),
                    "{kind}: empty run must estimate zeros, got {:?}",
                    run.estimates
                );
                assert!(
                    run.normalized.iter().flatten().all(|f| *f == 0.0),
                    "{kind}: no data must not fabricate a uniform distribution"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not match the solution schema")]
    fn rejects_schema_mismatch() {
        let ds = adult_like(50, 1);
        CollectionPipeline::from_kind(SolutionKind::RsFd(RsFdProtocol::Grr), &[4, 3], 1.0)
            .unwrap()
            .run(&ds);
    }

    fn mixed_pipeline(seed: u64) -> (ldp_datasets::MixedDataset, CollectionPipeline) {
        use ldp_core::solutions::MixedKind;
        use ldp_core::NumericKind;
        let mixed = ldp_datasets::mixed::mixed_survey_like(900, seed);
        let pipeline = CollectionPipeline::from_kind(
            SolutionKind::Mixed(MixedKind {
                protocol: ProtocolKind::Grr,
                numeric: NumericKind::Hybrid,
                sample_k: 2,
            }),
            &mixed.ks(),
            2.0,
        )
        .unwrap()
        .seed(seed);
        (mixed, pipeline)
    }

    #[test]
    fn mixed_run_is_thread_count_independent() {
        let (mixed, pipeline) = mixed_pipeline(17);
        let serial = pipeline.clone().threads(1).run_mixed(&mixed);
        for threads in [2usize, 8] {
            let sharded = pipeline.clone().threads(threads).run_mixed(&mixed);
            assert_eq!(serial.n, sharded.n);
            assert_eq!(
                serial.aggregator.counts(),
                sharded.aggregator.counts(),
                "threads={threads}"
            );
            assert_eq!(
                serial.aggregator.num_sums(),
                sharded.aggregator.num_sums(),
                "threads={threads}: numeric fixed-point sums leaked thread count"
            );
            for (a, b) in serial
                .estimates
                .iter()
                .flatten()
                .zip(sharded.estimates.iter().flatten())
            {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn mixed_serve_is_bit_identical_to_run_mixed() {
        use crate::traffic::{TrafficGenerator, TrafficShape};
        let (mixed, pipeline) = mixed_pipeline(23);
        let pipeline = pipeline.threads(3);
        let batch = pipeline.run_mixed(&mixed);
        let traffic = TrafficGenerator::new(TrafficShape::Burst, mixed.n())
            .seed(23)
            .wave(101);
        let served = pipeline.serve_mixed(&mixed, &traffic);
        assert_eq!(served.n, batch.n);
        assert_eq!(served.aggregator.counts(), batch.aggregator.counts());
        assert_eq!(served.aggregator.num_sums(), batch.aggregator.num_sums());
        for (a, b) in served
            .estimates
            .iter()
            .flatten()
            .zip(batch.estimates.iter().flatten())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn mixed_observation_replays_the_absorbed_wire() {
        let (mixed, pipeline) = mixed_pipeline(31);
        let pipeline = pipeline.threads(4);
        let (run, observed) = pipeline.run_with_observation_mixed(&mixed);
        assert_eq!(observed.len(), mixed.n());
        let mut agg = pipeline.solution().aggregator();
        for r in &observed {
            agg.absorb(r);
        }
        assert_eq!(agg.counts(), run.aggregator.counts());
        assert_eq!(agg.num_sums(), run.aggregator.num_sums());
        assert_eq!(
            observed.len(),
            pipeline.observe_mixed(&mixed).len(),
            "replayed wire must match the single-pass wire"
        );
    }

    #[test]
    fn budget_policy_ids_roundtrip() {
        for policy in BudgetPolicy::ALL {
            assert_eq!(BudgetPolicy::from_id(policy.id()), Some(policy));
            assert_eq!(policy.to_string(), policy.id());
        }
        assert_eq!(BudgetPolicy::from_id("nope"), None);
    }

    #[test]
    fn one_round_campaigns_match_the_single_round_run_bit_for_bit() {
        let ds = adult_like(400, 4);
        let ks = ds.schema().cardinalities();
        for kind in all_kinds() {
            let pipeline = CollectionPipeline::from_kind(kind, &ks, 2.0)
                .unwrap()
                .seed(33)
                .threads(3);
            let single = pipeline.run(&ds);
            for policy in BudgetPolicy::ALL {
                let rounds = pipeline.run_rounds(&ds, 1, policy).unwrap();
                assert_eq!(rounds.len(), 1, "{kind}/{policy}");
                assert_eq!(
                    rounds[0].aggregator.counts(),
                    single.aggregator.counts(),
                    "{kind}/{policy}: R=1 must degenerate to the single-round pipeline"
                );
            }
        }
    }

    #[test]
    fn memoize_replays_round_zero_bit_identically() {
        let ds = adult_like(500, 3);
        let ks = ds.schema().cardinalities();
        let pipeline =
            CollectionPipeline::from_kind(SolutionKind::Smp(ProtocolKind::Grr), &ks, 4.0)
                .unwrap()
                .seed(7)
                .threads(2);
        let runs = pipeline.run_rounds(&ds, 4, BudgetPolicy::Memoize).unwrap();
        for (r, run) in runs.iter().enumerate() {
            assert_eq!(
                run.aggregator.counts(),
                runs[0].aggregator.counts(),
                "memoized round {r} must replay round 0's reports exactly"
            );
        }
        // Full-ε: round 0 equals the single-round run.
        assert_eq!(
            runs[0].aggregator.counts(),
            pipeline.run(&ds).aggregator.counts()
        );
    }

    #[test]
    fn split_eps_draws_fresh_randomness_each_round() {
        let ds = adult_like(500, 3);
        let ks = ds.schema().cardinalities();
        let pipeline =
            CollectionPipeline::from_kind(SolutionKind::Smp(ProtocolKind::Grr), &ks, 4.0)
                .unwrap()
                .seed(7)
                .threads(2);
        let runs = pipeline.run_rounds(&ds, 3, BudgetPolicy::SplitEps).unwrap();
        assert_ne!(
            runs[0].aggregator.counts(),
            runs[1].aggregator.counts(),
            "ε-splitting rounds must be independently randomized"
        );
        assert_ne!(runs[1].aggregator.counts(), runs[2].aggregator.counts());
    }

    #[test]
    fn observe_rounds_is_round_major_and_replays_run_rounds() {
        let ds = adult_like(300, 3);
        let ks = ds.schema().cardinalities();
        let pipeline =
            CollectionPipeline::from_kind(SolutionKind::RsFd(RsFdProtocol::Grr), &ks, 3.0)
                .unwrap()
                .seed(19)
                .threads(3);
        for policy in BudgetPolicy::ALL {
            let runs = pipeline.run_rounds(&ds, 3, policy).unwrap();
            let (round_solution, observed) = pipeline.observe_rounds(&ds, 3, policy).unwrap();
            assert_eq!(observed.len(), 3 * ds.n(), "{policy}");
            for (r, run) in runs.iter().enumerate() {
                let mut agg = round_solution.aggregator();
                for report in &observed[r * ds.n()..(r + 1) * ds.n()] {
                    agg.absorb(report);
                }
                assert_eq!(
                    agg.counts(),
                    run.aggregator.counts(),
                    "{policy}: round {r}'s observed slice must replay its run"
                );
            }
        }
    }

    #[test]
    fn serve_rounds_epochs_match_batch_rounds_and_cumulative_drain() {
        use crate::traffic::{TrafficGenerator, TrafficShape};
        let ds = adult_like(600, 5);
        let ks = ds.schema().cardinalities();
        let pipeline =
            CollectionPipeline::from_kind(SolutionKind::RsFd(RsFdProtocol::Grr), &ks, 2.0)
                .unwrap()
                .seed(29)
                .threads(3);
        for policy in BudgetPolicy::ALL {
            let runs = pipeline.run_rounds(&ds, 3, policy).unwrap();
            let traffic = TrafficGenerator::new(TrafficShape::Churn, ds.n())
                .seed(29)
                .wave(113);
            let served = pipeline.serve_rounds(&ds, &traffic, 3, policy, 3).unwrap();
            assert_eq!(served.epochs.len(), 3, "{policy}");
            let mut merged = policy
                .round_solution(pipeline.solution(), 3)
                .unwrap()
                .aggregator();
            for (r, (epoch, run)) in served.epochs.iter().zip(&runs).enumerate() {
                assert_eq!(epoch.epoch, r as u64, "{policy}");
                assert_eq!(
                    epoch.snapshot.aggregator.counts(),
                    run.aggregator.counts(),
                    "{policy}: epoch {r}'s window must be bit-identical to its batch round"
                );
                merged.merge(&run.aggregator);
            }
            assert_eq!(
                served.cumulative.aggregator.counts(),
                merged.counts(),
                "{policy}: cumulative drain must merge every round exactly"
            );
            assert_eq!(served.cumulative.n, 3 * ds.n() as u64, "{policy}");
        }
    }

    #[test]
    fn serve_rounds_retention_keeps_only_the_last_windows() {
        use crate::traffic::{TrafficGenerator, TrafficShape};
        let ds = adult_like(200, 2);
        let ks = ds.schema().cardinalities();
        let pipeline =
            CollectionPipeline::from_kind(SolutionKind::Spl(ProtocolKind::Grr), &ks, 2.0)
                .unwrap()
                .seed(3)
                .threads(2);
        let traffic = TrafficGenerator::new(TrafficShape::Steady, ds.n()).seed(3);
        let served = pipeline
            .serve_rounds(&ds, &traffic, 4, BudgetPolicy::SplitEps, 2)
            .unwrap();
        assert_eq!(
            served.epochs.iter().map(|e| e.epoch).collect::<Vec<_>>(),
            vec![2, 3],
            "retention must keep the newest windows"
        );
        assert_eq!(served.cumulative.n, 4 * ds.n() as u64);
    }

    #[test]
    #[should_panic(expected = "heterogeneous ks")]
    fn mixed_run_rejects_schema_mismatch() {
        let (mixed, _) = mixed_pipeline(1);
        let wrong = CollectionPipeline::from_kind(
            SolutionKind::Mixed(ldp_core::solutions::MixedKind {
                protocol: ProtocolKind::Grr,
                numeric: ldp_core::NumericKind::Duchi,
                sample_k: 1,
            }),
            &[8, 5, 0],
            1.0,
        )
        .unwrap();
        wrong.run_mixed(&mixed);
    }
}
