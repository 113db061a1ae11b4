//! The streaming collection pipeline: population → solution → sharded
//! aggregators → merged estimates, in one configurable, deterministic,
//! thread-parallel pass.
//!
//! This is the paper's §3.1 server loop at production shape: each worker
//! thread sanitizes its user range and absorbs the reports **directly** into
//! its own [`MultidimAggregator`](ldp_core::solutions::MultidimAggregator) shard — no report is ever buffered — and
//! the shards are merged exactly (integer counts), so results are
//! bit-identical for every thread count and peak memory is
//! `O(threads · Σ_j k_j)` regardless of the population size.
//!
//! Every pass reads a [`Population`] (a categorical [`Dataset`] or a mixed
//! categorical + numeric [`MixedDataset`]) and collects it over
//! `rounds ≥ 1` rounds under a [`BudgetPolicy`]; a single round is
//! `rounds = 1`. An in-process pass returns each round as the server's own
//! [`ServerSnapshot`] (merged aggregator, estimates, normalized estimates,
//! `n`, shard count), so a batch run and a server drain are the same type.
//! There is one call per sink:
//!
//! * [`CollectionPipeline::run_rounds`] — per-round in-process aggregates
//!   ([`CollectionPipeline::run`] is its one-round shorthand);
//! * [`CollectionPipeline::observe_rounds`] — the same aggregates plus the
//!   wire the §3.1 adversary captures, from one sanitization pass;
//! * [`CollectionPipeline::serve_rounds`] — streamed through an
//!   [`LdpServer`], one epoch per round;
//! * [`CollectionPipeline::serve_remote_rounds`] — one producer of a fleet
//!   streaming to a remote [`WireServer`](ldp_server::WireServer).
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

use ldp_core::solutions::{DynSolution, SolutionKind, SolutionReport};
use ldp_datasets::{Dataset, MixedDataset};
use ldp_protocols::hash::mix3;
use ldp_protocols::ProtocolError;
use ldp_server::{
    Envelope, EpochSnapshot, LdpServer, ServerConfig, ServerSnapshot, WireError, WireSnapshot,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::net_client::{ClientConfig, NetClient};
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
    /// the same solution at ε/R for [`BudgetPolicy::SplitEps`] over more
    /// than one round, the configured solution unchanged otherwise (a
    /// single round, or [`BudgetPolicy::Memoize`]). Both the producers and
    /// the server must build this (equal fingerprints on the wire).
    pub fn round_solution(
        self,
        solution: &DynSolution,
        rounds: usize,
    ) -> Result<DynSolution, ProtocolError> {
        match self {
            BudgetPolicy::SplitEps if rounds > 1 => solution
                .kind()
                .build(solution.ks(), solution.epsilon() / rounds as f64),
            _ => Ok(solution.clone()),
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

/// The source of every collection pass: a population of users, each of
/// whom sanitizes their own tuple. Implemented by [`Dataset`] (categorical
/// tuples) and [`MixedDataset`] (categorical + normalized numeric tuples),
/// so each sink of [`CollectionPipeline`] and [`crate::AttackPipeline`] is
/// written once for both.
pub trait Population: Sync {
    /// Number of users.
    fn n(&self) -> usize;

    /// Panics unless the population's schema matches `solution`'s.
    fn assert_schema(&self, solution: &DynSolution);

    /// User `uid`'s sanitized report under `solution`, drawing from `rng`
    /// (generic, so the producers' concrete per-user `SmallRng` is
    /// monomorphized into the sanitizer).
    fn report<R: Rng + ?Sized>(
        &self,
        solution: &DynSolution,
        uid: usize,
        rng: &mut R,
    ) -> SolutionReport;

    /// The categorical ground truth (the adversary's background knowledge).
    fn categorical(&self) -> &Dataset;

    /// The continuous ground truth numeric attacks fit their priors on;
    /// `None` for a purely categorical population.
    fn numeric_truth(&self) -> Option<&MixedDataset>;
}

impl Population for Dataset {
    fn n(&self) -> usize {
        Dataset::n(self)
    }

    fn assert_schema(&self, solution: &DynSolution) {
        assert_eq!(
            self.d(),
            solution.d(),
            "dataset does not match the solution schema"
        );
    }

    fn report<R: Rng + ?Sized>(
        &self,
        solution: &DynSolution,
        uid: usize,
        rng: &mut R,
    ) -> SolutionReport {
        solution.report(self.row(uid), rng)
    }

    fn categorical(&self) -> &Dataset {
        self
    }

    fn numeric_truth(&self) -> Option<&MixedDataset> {
        None
    }
}

impl Population for MixedDataset {
    fn n(&self) -> usize {
        MixedDataset::n(self)
    }

    fn assert_schema(&self, solution: &DynSolution) {
        assert_eq!(
            self.ks(),
            solution.ks().to_vec(),
            "mixed dataset does not match the solution's heterogeneous ks"
        );
    }

    /// Categorical row + normalized numeric row through
    /// [`DynSolution::report_mixed`]. The dataset validated every numeric
    /// value at construction, so a reporting error here is a bug, not bad
    /// input.
    fn report<R: Rng + ?Sized>(
        &self,
        solution: &DynSolution,
        uid: usize,
        rng: &mut R,
    ) -> SolutionReport {
        solution
            .report_mixed(self.cat().row(uid), self.num_row(uid), rng)
            .expect("mixed dataset values are validated at construction")
    }

    fn categorical(&self) -> &Dataset {
        self.cat()
    }

    fn numeric_truth(&self) -> Option<&MixedDataset> {
        Some(self)
    }
}

/// The outcome of a streamed pass ([`CollectionPipeline::serve_rounds`]):
/// the cumulative drain over every round plus the server's retained
/// per-epoch windowed snapshots.
#[derive(Debug, Clone)]
pub struct LongitudinalRun {
    /// The full-campaign drain (all rounds merged) — bit-identical to
    /// batch-collecting every round's reports.
    pub cumulative: ServerSnapshot,
    /// The retained closed-epoch snapshots, oldest first (at most the
    /// server's configured retention; empty for a single round, which
    /// closes no epoch).
    pub epochs: Vec<EpochSnapshot>,
}

/// Configurable streaming collection run over one population. Build with
/// [`CollectionPipeline::new`] / [`CollectionPipeline::from_kind`], chain the
/// builder setters, then call the sink's method (see the module docs).
#[derive(Debug, Clone)]
pub struct CollectionPipeline {
    solution: DynSolution,
    seed: u64,
    threads: usize,
    net: ClientConfig,
}

impl CollectionPipeline {
    /// Wraps an already-built solution with default seed and thread count.
    pub fn new(solution: DynSolution) -> Self {
        CollectionPipeline {
            solution,
            seed: 0,
            threads: par::default_threads(),
            net: ClientConfig::default(),
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
    /// policy, fault injection) [`CollectionPipeline::serve_remote_rounds`]
    /// connects with. In-process passes ignore it.
    pub fn client(mut self, cfg: ClientConfig) -> Self {
        self.net = cfg;
        self
    }

    /// The configured solution.
    pub fn solution(&self) -> &DynSolution {
        &self.solution
    }

    /// One round of [`CollectionPipeline::run_rounds`]: every user's tuple
    /// is sanitized with its own deterministic RNG ([`user_rng`]) and
    /// absorbed straight into a per-thread aggregator shard; the shards
    /// merge into one [`ServerSnapshot`], the form a server drain takes.
    ///
    /// # Panics
    /// Panics when the population's schema differs from the solution's.
    pub fn run(&self, population: &impl Population) -> ServerSnapshot {
        self.run_rounds(population, 1, BudgetPolicy::SplitEps)
            .expect("a single round collects with the configured solution")
            .remove(0)
    }

    /// Collects the population over `rounds` rounds under `policy`,
    /// returning one [`ServerSnapshot`] per round. The configured solution
    /// carries the **total** budget ε; [`BudgetPolicy::SplitEps`] sanitizes
    /// each round with fresh randomness at ε/R, [`BudgetPolicy::Memoize`]
    /// computes the round-0 report at full ε and replays it bit-identically
    /// (rounds > 0 re-derive the identical report from the identical rng
    /// stream — the functional definition of memoization, with no per-user
    /// cache). Round 0 is the single-round run bit for bit.
    ///
    /// # Panics
    /// Panics when the population's schema differs from the solution's.
    pub fn run_rounds(
        &self,
        population: &impl Population,
        rounds: usize,
        policy: BudgetPolicy,
    ) -> Result<Vec<ServerSnapshot>, ProtocolError> {
        let per_round = self.round_pipeline(policy, rounds)?;
        let empty = per_round.solution.aggregator();
        Ok(per_round
            .sanitize_rounds(
                population,
                rounds,
                policy,
                || empty.clone(),
                |agg, report| agg.absorb(&report),
            )
            .map(|shards| ServerSnapshot::merge(empty.clone(), &shards))
            .collect())
    }

    /// [`CollectionPipeline::run_rounds`] that also hands back the wire:
    /// each user is sanitized **once** per round, the report is absorbed
    /// into its thread's aggregator shard *and* kept as the §3.1
    /// adversary's observation. The wire is round-major (round `r`'s
    /// reports occupy `r*n .. (r+1)*n`, each round in user order), so what
    /// the attack observes is bit-identical to what the server aggregated.
    /// Buffers `O(rounds · n)` reports (the adversary must hold the wire
    /// anyway); use [`CollectionPipeline::run_rounds`] when nothing observes
    /// the messages. The reports are sanitized with
    /// [`BudgetPolicy::round_solution`].
    ///
    /// # Panics
    /// Panics when the population's schema differs from the solution's.
    pub fn observe_rounds(
        &self,
        population: &impl Population,
        rounds: usize,
        policy: BudgetPolicy,
    ) -> Result<(Vec<ServerSnapshot>, Vec<SolutionReport>), ProtocolError> {
        let per_round = self.round_pipeline(policy, rounds)?;
        let empty = per_round.solution.aggregator();
        let mut observed = Vec::with_capacity(rounds.max(1) * population.n());
        let runs = per_round
            .sanitize_rounds(
                population,
                rounds,
                policy,
                || (empty.clone(), Vec::new()),
                |(agg, reports), report| {
                    agg.absorb(&report);
                    reports.push(report);
                },
            )
            .map(|chunks| {
                let mut shards = Vec::with_capacity(chunks.len());
                for (agg, reports) in chunks {
                    shards.push(agg);
                    observed.extend(reports);
                }
                ServerSnapshot::merge(empty.clone(), &shards)
            })
            .collect();
        Ok((runs, observed))
    }

    /// The streamed twin of [`CollectionPipeline::run_rounds`]: spins up an
    /// [`LdpServer`] with one shard per configured thread and pushes every
    /// user's sanitized report through its bounded channels, each round
    /// following its own arrival schedule
    /// ([`TrafficGenerator::waves_for_round`]). With more than one round,
    /// each round is closed with [`LdpServer::advance_epoch`] and the last
    /// `retain` windowed epoch snapshots are kept; a single round closes no
    /// epoch. The configured thread count drives **both** sides of the
    /// channel: each wave is sanitized by up to `threads` concurrent
    /// producers feeding `threads` aggregator shards.
    ///
    /// Per-user randomness derives from the same streams as `run_rounds`,
    /// every user arrives exactly once per round whatever the traffic
    /// shape, and the server's shard merge is exact integer addition — so
    /// round `r`'s epoch snapshot is **bit-identical** to
    /// `run_rounds(..)[r]` and the cumulative drain to all rounds merged,
    /// for every thread count and
    /// [`TrafficShape`](crate::traffic::TrafficShape) (property-tested in
    /// `tests/server_equivalence.rs`).
    ///
    /// # Panics
    /// Panics when the population's schema differs from the solution's, or
    /// when `traffic` was built for a different population size.
    pub fn serve_rounds(
        &self,
        population: &impl Population,
        traffic: &TrafficGenerator,
        rounds: usize,
        policy: BudgetPolicy,
        retain: usize,
    ) -> Result<LongitudinalRun, ProtocolError> {
        // Scoped producer threads are spawned per wave, so don't fan a small
        // wave out across the full thread budget: below this many users per
        // producer the spawn/join churn outweighs the parallel sanitization
        // (a steady 10M-user schedule has ~10k waves).
        const MIN_USERS_PER_PRODUCER: usize = 4096;
        population.assert_schema(&self.solution);
        assert_traffic(traffic, population.n());
        let per_round = self.round_pipeline(policy, rounds)?;
        let server = LdpServer::spawn(
            per_round.solution.clone(),
            ServerConfig::default().shards(self.threads).retain(retain),
        );
        let rounds = rounds.max(1) as u64;
        for round in 0..rounds {
            let rng_round = policy.rng_round(round);
            for wave in traffic.waves_for_round(round) {
                // Parallel producers: sanitization dominates the cost, so
                // the wave is split into contiguous chunks ingested
                // concurrently.
                let producers = self
                    .threads
                    .min(wave.len().div_ceil(MIN_USERS_PER_PRODUCER))
                    .max(1);
                par::par_chunks(wave.len(), producers, |range| {
                    server.ingest_batch(wave[range].iter().map(|&uid| {
                        let mut rng = user_rng_round(self.seed, uid, rng_round);
                        Envelope {
                            uid,
                            report: population.report(&per_round.solution, uid as usize, &mut rng),
                        }
                    }));
                    Vec::<()>::new()
                });
            }
            // Like the remote loop, a single round closes no epoch: its drain
            // is the whole collection.
            if rounds > 1 {
                server.advance_epoch();
            }
        }
        let epochs = server.epochs();
        Ok(LongitudinalRun {
            cumulative: server.drain(),
            epochs,
        })
    }

    /// The multi-process twin of [`CollectionPipeline::serve_rounds`]: one
    /// producer of a fleet, streaming the users with
    /// `uid % parts == part` to a remote
    /// [`WireServer`](ldp_server::WireServer) at `addr` as checksummed
    /// BATCH_SEQ frames, so `parts` producers each running a distinct
    /// `part` cover the population exactly once per round between them.
    /// Returns the number of reports the server acknowledged at DRAIN.
    ///
    /// The session handshakes with [`BudgetPolicy::round_solution`] (ε/R
    /// under ε-splitting over several rounds), so the server must build the
    /// same one. With more than one round, an `EPOCH` barrier round trip
    /// follows each round so the whole fleet advances epochs in lockstep
    /// (the server must have been bound with `WireServer::producers(parts)`);
    /// a single round sends no `EPOCH` frame. With `snapshot_every > 0`, a
    /// SNAPSHOT round trip is interleaved every that many
    /// waves, counted across rounds, and handed to `on_snapshot` — the
    /// incremental estimate-while-ingesting stream.
    ///
    /// Per-user randomness derives from the same streams as
    /// [`CollectionPipeline::run_rounds`], so a socket-fed server drain is
    /// **bit-identical** to the in-process run at equal seed
    /// (`tests/net_equivalence.rs` pins this across thread and connection
    /// counts).
    ///
    /// # Panics
    /// Panics when the population does not match the solution schema, the
    /// traffic schedule does not match the population, or `part >= parts`.
    #[allow(clippy::too_many_arguments)]
    pub fn serve_remote_rounds(
        &self,
        population: &impl Population,
        traffic: &TrafficGenerator,
        addr: &str,
        part: usize,
        parts: usize,
        rounds: usize,
        policy: BudgetPolicy,
        snapshot_every: usize,
        on_snapshot: &mut dyn FnMut(&WireSnapshot),
    ) -> Result<u64, WireError> {
        population.assert_schema(&self.solution);
        assert_traffic(traffic, population.n());
        assert!(
            part < parts,
            "producer part {part} outside fleet of {parts}"
        );
        let per_round = self.round_pipeline(policy, rounds).map_err(|e| {
            WireError::Handshake(format!("cannot build the per-round solution: {e}"))
        })?;
        let mut client = NetClient::connect_with(addr, &per_round.solution, self.net.clone())?;
        let rounds = rounds.max(1) as u64;
        let mut waves = 0usize;
        for round in 0..rounds {
            let rng_round = policy.rng_round(round);
            for wave in traffic.waves_for_round(round) {
                for &uid in wave
                    .iter()
                    .filter(|&&uid| uid % parts as u64 == part as u64)
                {
                    let mut rng = user_rng_round(self.seed, uid, rng_round);
                    client.push(
                        uid,
                        &population.report(&per_round.solution, uid as usize, &mut rng),
                    )?;
                }
                waves += 1;
                if snapshot_every > 0 && waves.is_multiple_of(snapshot_every) {
                    on_snapshot(&client.snapshot(false)?);
                }
            }
            // A single round needs no barrier: it sends exactly the frames of
            // a pre-longitudinal session, so it also works against a server
            // bound without `WireServer::producers`.
            if rounds > 1 {
                client.advance_epoch(round)?;
            }
        }
        client.finish()
    }

    /// The pipeline one round of an `R`-round campaign under `policy`
    /// collects with: same seed, threads and client, solution from
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

    /// The in-process round loop behind `run_rounds` and `observe_rounds`:
    /// round `r` sanitizes every user with [`user_rng_round`]`(seed, uid,
    /// policy.rng_round(r))`, each worker chunk folding its users' reports
    /// into one `A` via `absorb`. Yields each round's chunk outputs in user
    /// order, lazily, so a caller holds one round's chunks at a time.
    /// Keeping both sinks on this loop is what guarantees the adversary's
    /// observed wire is bit-identical to what the server aggregated.
    fn sanitize_rounds<'a, P: Population, A: Send + 'a>(
        &'a self,
        population: &'a P,
        rounds: usize,
        policy: BudgetPolicy,
        init: impl Fn() -> A + Sync + 'a,
        absorb: impl Fn(&mut A, SolutionReport) + Sync + 'a,
    ) -> impl Iterator<Item = Vec<A>> + 'a {
        population.assert_schema(&self.solution);
        (0..rounds.max(1) as u64).map(move |round| {
            let rng_round = policy.rng_round(round);
            par::par_chunks(population.n(), self.threads, |range| {
                let mut acc = init();
                for uid in range {
                    let mut rng = user_rng_round(self.seed, uid as u64, rng_round);
                    absorb(&mut acc, population.report(&self.solution, uid, &mut rng));
                }
                vec![acc]
            })
        })
    }
}

fn assert_traffic(traffic: &TrafficGenerator, n: usize) {
    assert_eq!(
        traffic.n(),
        n,
        "traffic schedule does not match the dataset population"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::solutions::{RsFdProtocol, RsRfdProtocol};
    use ldp_datasets::corpora::adult_like;
    use ldp_datasets::{Dataset, Schema};
    use ldp_protocols::ProtocolKind;

    use crate::traffic::TrafficShape;

    fn serve_once(
        pipeline: &CollectionPipeline,
        population: &impl Population,
        traffic: &TrafficGenerator,
    ) -> ServerSnapshot {
        let served = pipeline
            .serve_rounds(population, traffic, 1, BudgetPolicy::SplitEps, 1)
            .unwrap();
        assert!(served.epochs.is_empty(), "a single round closes no epoch");
        served.cumulative
    }

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
        let (_, observed) = pipeline
            .observe_rounds(&ds, 1, BudgetPolicy::SplitEps)
            .unwrap();
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
    fn observed_run_matches_the_unobserved_run() {
        let ds = adult_like(250, 6);
        let ks = ds.schema().cardinalities();
        let pipeline =
            CollectionPipeline::from_kind(SolutionKind::Smp(ProtocolKind::Oue), &ks, 2.0)
                .unwrap()
                .seed(13)
                .threads(4);
        let (runs, observed) = pipeline
            .observe_rounds(&ds, 1, BudgetPolicy::SplitEps)
            .unwrap();
        let run = pipeline.run(&ds);
        assert_eq!(runs[0].aggregator.counts(), run.aggregator.counts());
        assert_eq!(runs[0].shards, run.shards);
        for (a, b) in runs[0]
            .estimates
            .iter()
            .flatten()
            .zip(run.estimates.iter().flatten())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(observed.len(), ds.n());
    }

    #[test]
    fn serve_is_bit_identical_to_run() {
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
            let served = serve_once(&pipeline, &ds, &traffic);
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
        let schema = Schema::from_cardinalities(&[4, 3]);
        let ds = Dataset::new(schema, Vec::new());
        for kind in all_kinds() {
            let pipeline = CollectionPipeline::from_kind(kind, &[4, 3], 1.0)
                .unwrap()
                .seed(1)
                .threads(4);
            for run in [
                pipeline.run(&ds),
                serve_once(
                    &pipeline,
                    &ds,
                    &TrafficGenerator::new(TrafficShape::Burst, 0),
                ),
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
        let serial = pipeline.clone().threads(1).run(&mixed);
        for threads in [2usize, 8] {
            let sharded = pipeline.clone().threads(threads).run(&mixed);
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
    fn mixed_serve_is_bit_identical_to_the_batch_run() {
        let (mixed, pipeline) = mixed_pipeline(23);
        let pipeline = pipeline.threads(3);
        let batch = pipeline.run(&mixed);
        let traffic = TrafficGenerator::new(TrafficShape::Burst, mixed.n())
            .seed(23)
            .wave(101);
        let served = serve_once(&pipeline, &mixed, &traffic);
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
        let (runs, observed) = pipeline
            .observe_rounds(&mixed, 1, BudgetPolicy::SplitEps)
            .unwrap();
        let run = &runs[0];
        assert_eq!(observed.len(), mixed.n());
        let mut agg = pipeline.solution().aggregator();
        for r in &observed {
            agg.absorb(r);
        }
        assert_eq!(agg.counts(), run.aggregator.counts());
        assert_eq!(agg.num_sums(), run.aggregator.num_sums());
        assert_eq!(
            run.aggregator.num_sums(),
            pipeline.run(&mixed).aggregator.num_sums(),
            "the observed pass must aggregate like the unobserved one"
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
            let (observed_runs, observed) = pipeline.observe_rounds(&ds, 3, policy).unwrap();
            let round_solution = policy.round_solution(pipeline.solution(), 3).unwrap();
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
                assert_eq!(
                    observed_runs[r].aggregator.counts(),
                    run.aggregator.counts(),
                    "{policy}: round {r}'s observed aggregate must equal its run"
                );
            }
        }
    }

    #[test]
    fn serve_rounds_epochs_match_batch_rounds_and_cumulative_drain() {
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
        wrong.run(&mixed);
    }
}
