//! The seeded, sharded attack pipeline: dataset → [`CollectionPipeline`]
//! run → adversary fit (profiles / classifier / index) → **per-target-seeded
//! ASR evaluation**, thread-count-independent end to end.
//!
//! The adversary mirror of [`CollectionPipeline`]: where the collection side
//! streams reports into per-thread aggregator shards, the attack side shards
//! *evaluation targets* across threads via [`par::par_users_with`], each
//! target drawing its randomness from its own
//! [`target_rng`](ldp_core::attacks::target_rng) stream derived from the
//! pipeline seed, so no serial rng is threaded through all users. One
//! [`MatchScratch`] is reused per shard, so evaluation is allocation-flat.
//! A run's [`AttackRun::collection`] is the collection's
//! [`ServerSnapshot`], and [`AttackPipeline::rid_acc`] scores externally
//! built profiles (e.g. multi-survey campaign snapshots) on the same
//! sharded evaluator.
//! The same thread budget reaches the fit's §3.3 classifier (see
//! [`AttackPipeline::threads`]).
//! Results are **bit-identical** to the serial
//! [`evaluate_serial`](ldp_core::attacks::evaluate_serial) reference for
//! every thread count.
//!
//! ```
//! use ldp_core::attacks::{AttackKind, ReidentConfig};
//! use ldp_core::solutions::SolutionKind;
//! use ldp_datasets::corpora::adult_like;
//! use ldp_protocols::ProtocolKind;
//! use ldp_sim::{AttackPipeline, CollectionPipeline};
//!
//! let dataset = adult_like(2_000, 7);
//! let collection = CollectionPipeline::from_kind(
//!     SolutionKind::Smp(ProtocolKind::Grr),
//!     &dataset.schema().cardinalities(),
//!     4.0,
//! )
//! .unwrap()
//! .seed(42)
//! .threads(4);
//! let run = AttackPipeline::from_kind(AttackKind::Reident(ReidentConfig::default()))
//!     .unwrap()
//!     .seed(42)
//!     .threads(4)
//!     .run(&collection, &dataset);
//! let outcome = run.outcome.reident().unwrap();
//! assert_eq!(outcome.n_targets, 2_000);
//! ```

use ldp_core::attacks::{
    self, AdversaryView, Attack, AttackKind, AttackOutcome, DynAttack, FittedAttack, ReidentConfig,
    ReidentEval,
};
use ldp_core::profiling::Profile;
use ldp_core::reident::{MatchScratch, ReidentAttack};
use ldp_datasets::Dataset;
use ldp_protocols::ProtocolError;
use ldp_server::ServerSnapshot;

use crate::par;
use crate::pipeline::{BudgetPolicy, CollectionPipeline, Population};

/// Configurable sharded attack run. Build with [`AttackPipeline::new`] /
/// [`AttackPipeline::from_kind`], chain the builder setters, then either
/// [`AttackPipeline::run`] end-to-end over a collection, or
/// [`AttackPipeline::evaluate`] / [`AttackPipeline::rid_acc`] over
/// already-fitted adversary state.
#[derive(Debug, Clone)]
pub struct AttackPipeline {
    attack: DynAttack,
    seed: u64,
    threads: usize,
}

/// The outcome of one end-to-end attack pass.
pub struct AttackRun {
    /// The attack's result (RID-ACC / AIF accuracy / PIE audit).
    pub outcome: AttackOutcome,
    /// The server-side collection pass the adversary observed (estimates and
    /// merged aggregator included — collection and observation share one
    /// sanitization pass, so the attack does not re-sanitize the
    /// population).
    pub collection: ServerSnapshot,
    /// The fitted adversary, reusable for further [`AttackPipeline::evaluate`]
    /// calls (e.g. at different evaluation seeds).
    pub fitted: Box<dyn FittedAttack>,
}

impl AttackPipeline {
    /// Wraps an already-built attack with default seed and thread count.
    pub fn new(attack: DynAttack) -> Self {
        AttackPipeline {
            attack,
            seed: 0,
            threads: 1,
        }
        .threads(par::default_threads())
    }

    /// Builds the attack from its kind — the one-stop constructor for sweeps
    /// (`AttackKind::build` under the hood).
    pub fn from_kind(kind: AttackKind) -> Result<Self, ProtocolError> {
        Ok(AttackPipeline::new(kind.build()?))
    }

    /// Sets the attack seed (fit-phase and per-target randomness derive from
    /// it).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker thread count of the whole attack: the fit (the
    /// §3.3 classifier's trees, softmax and prediction, through
    /// [`DynAttack::set_threads`]) and the sharded evaluation. `1` runs
    /// inline; results are identical for every value.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self.attack.set_threads(self.threads);
        self
    }

    /// The configured attack.
    pub fn attack(&self) -> &DynAttack {
        &self.attack
    }

    /// One round of [`AttackPipeline::run_rounds`]: the collection pipeline
    /// streams the population into server estimates while the adversary
    /// observes the wire (each user is sanitized once), the attack fits its
    /// model, and every target is scored in parallel shards with per-target
    /// rng streams.
    ///
    /// # Panics
    /// Panics when the population does not match the collection solution,
    /// or when the configured attack cannot run against the solution family
    /// (e.g. sampled-attribute inference against SPL/SMP).
    pub fn run(&self, collection: &CollectionPipeline, population: &impl Population) -> AttackRun {
        self.run_rounds(collection, population, 1, BudgetPolicy::SplitEps)
            .expect("a single round collects with the configured solution")
    }

    /// The full pass over a campaign of `rounds` rounds under `policy`
    /// (the longitudinal setting behind [`AttackKind::Averaging`]): the
    /// collection pipeline sanitizes every round once
    /// ([`CollectionPipeline::observe_rounds`] — a round-major `rounds·n`
    /// wire sanitized with the per-round solution, ε/R under ε-splitting),
    /// the attack fits over the pooled wire, and every target is scored in
    /// parallel shards. The adversary's view carries the population's
    /// continuous ground truth, if any, so numeric attacks
    /// ([`AttackKind::NumericValueRange`]) can fit their priors. The
    /// returned [`AttackRun::collection`] merges the per-round aggregates of
    /// the same pass.
    ///
    /// # Panics
    /// Panics when the population does not match the collection solution,
    /// or when the configured attack rejects the solution family or wire
    /// length.
    pub fn run_rounds(
        &self,
        collection: &CollectionPipeline,
        population: &impl Population,
        rounds: usize,
        policy: BudgetPolicy,
    ) -> Result<AttackRun, ProtocolError> {
        let solution = policy.round_solution(collection.solution(), rounds)?;
        // Analytic attacks never read the wire: keep those runs memory-flat.
        let (runs, observed) = if self.attack.needs_observation() {
            collection.observe_rounds(population, rounds, policy)?
        } else {
            (
                collection.run_rounds(population, rounds, policy)?,
                Vec::new(),
            )
        };
        let view = AdversaryView {
            dataset: population.categorical(),
            solution: &solution,
            observed: &observed,
            numeric_truth: population.numeric_truth(),
        };
        let fitted = self.attack.fit(&view, &mut attacks::fit_rng(self.seed));
        let outcome = self.evaluate(fitted.as_ref());
        // The rounds of one pass share one shard count: the cumulative
        // snapshot keeps it.
        let shards = runs[0].shards;
        let mut runs = runs.into_iter().map(|run| run.aggregator);
        let mut cumulative = runs.next().expect("a collection has at least one round");
        for round in runs {
            cumulative.merge(&round);
        }
        Ok(AttackRun {
            outcome,
            collection: ServerSnapshot::from_aggregator(cumulative, shards),
            fitted,
        })
    }

    /// Sharded, per-target-seeded evaluation of a fitted attack —
    /// bit-identical to
    /// [`evaluate_serial`](ldp_core::attacks::evaluate_serial) at the same
    /// seed, for every thread count.
    pub fn evaluate(&self, fitted: &dyn FittedAttack) -> AttackOutcome {
        evaluate_sharded(fitted, self.seed, self.threads)
    }

    /// The configured [`Reident`](AttackKind::Reident) configuration, or a
    /// panic — shared guard of the profile-evaluation entry points below.
    fn reident_config(&self) -> &ReidentConfig {
        match self.attack.kind() {
            AttackKind::Reident(cfg) => cfg,
            other => panic!(
                "this entry point needs a Reident attack, the pipeline is configured with {other}"
            ),
        }
    }

    /// Builds the background-knowledge index the configured
    /// [`Reident`](AttackKind::Reident) attack prescribes over `dataset`
    /// (FK-RI or the configured PK-RI subset).
    ///
    /// # Panics
    /// Panics when the configured attack is not `Reident`.
    pub fn reident_index(&self, dataset: &Dataset) -> ReidentAttack {
        self.reident_config().build_index(dataset)
    }

    /// Sharded RID-ACC (%) over externally built profiles (e.g. multi-survey
    /// campaign snapshots), where `profiles[i]` targets background record
    /// `i`. One entry per top-`k` of the configured
    /// [`Reident`](AttackKind::Reident) attack.
    ///
    /// # Panics
    /// Panics when the configured attack is not `Reident`.
    pub fn rid_acc(&self, index: &ReidentAttack, profiles: &[Profile]) -> Vec<f64> {
        let eval = ReidentEval {
            index,
            profiles,
            top_ks: &self.reident_config().top_ks,
        };
        match self.evaluate(&eval) {
            AttackOutcome::Reident(o) => o.rid_acc,
            _ => unreachable!("ReidentEval always yields a reident outcome"),
        }
    }
}

/// The shared sharded evaluator: targets fan out over
/// [`par::par_users_with`] (per-target rng streams salted with
/// [`attacks::TARGET_SALT`]), per-target hit bits come back packed in a
/// `u64` mask, and per-slot counts feed [`FittedAttack::outcome`].
pub(crate) fn evaluate_sharded(
    fitted: &dyn FittedAttack,
    seed: u64,
    threads: usize,
) -> AttackOutcome {
    let slots = fitted.n_slots();
    assert!(
        slots <= attacks::MAX_METRIC_SLOTS,
        "at most {} metric slots per attack (hits are packed into a u64 mask)",
        attacks::MAX_METRIC_SLOTS
    );
    let masks: Vec<u64> = par::par_users_with(
        fitted.n_targets(),
        threads,
        seed,
        attacks::TARGET_SALT,
        || (MatchScratch::default(), vec![false; slots]),
        |target, (scratch, hits), rng| {
            fitted.evaluate_target(target, scratch, hits, rng);
            hits.iter()
                .enumerate()
                .fold(0u64, |mask, (slot, &hit)| mask | (u64::from(hit) << slot))
        },
    );
    let mut counts = vec![0u64; slots];
    for mask in masks {
        for (slot, count) in counts.iter_mut().enumerate() {
            *count += (mask >> slot) & 1;
        }
    }
    fitted.outcome(&counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::attacks::{evaluate_serial, InferenceConfig, ReidentConfig};
    use ldp_core::inference::{AttackClassifier, AttackModel};
    use ldp_core::solutions::{RsFdProtocol, SolutionKind};
    use ldp_datasets::corpora::adult_like;
    use ldp_gbdt::LogisticParams;
    use ldp_protocols::ProtocolKind;

    fn logistic() -> AttackClassifier {
        AttackClassifier::Logistic(LogisticParams::default())
    }

    #[test]
    fn sharded_reident_is_bit_identical_to_serial() {
        let ds = adult_like(400, 5);
        let ks = ds.schema().cardinalities();
        let collection =
            CollectionPipeline::from_kind(SolutionKind::Smp(ProtocolKind::Grr), &ks, 4.0)
                .unwrap()
                .seed(11)
                .threads(3);
        let pipeline = AttackPipeline::from_kind(AttackKind::Reident(ReidentConfig::default()))
            .unwrap()
            .seed(11);
        let run = pipeline.clone().threads(1).run(&collection, &ds);
        let serial = evaluate_serial(run.fitted.as_ref(), 11);
        for threads in [2usize, 8] {
            let sharded = pipeline
                .clone()
                .threads(threads)
                .evaluate(run.fitted.as_ref());
            let (a, b) = (serial.reident().unwrap(), sharded.reident().unwrap());
            assert_eq!(a.n_targets, b.n_targets);
            for (x, y) in a.rid_acc.iter().zip(&b.rid_acc) {
                assert_eq!(x.to_bits(), y.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn end_to_end_inference_attack_runs_sharded() {
        let ds = adult_like(600, 6);
        let ks = ds.schema().cardinalities();
        let collection =
            CollectionPipeline::from_kind(SolutionKind::RsFd(RsFdProtocol::Grr), &ks, 6.0)
                .unwrap()
                .seed(3)
                .threads(2);
        let pipeline = AttackPipeline::from_kind(AttackKind::SampledAttribute(InferenceConfig {
            model: AttackModel::NoKnowledge { synth_factor: 1.0 },
            classifier: logistic(),
        }))
        .unwrap()
        .seed(3);
        let run_a = pipeline.clone().threads(1).run(&collection, &ds);
        let run_b = pipeline.clone().threads(4).run(&collection, &ds);
        let (a, b) = (
            run_a.outcome.inference().unwrap(),
            run_b.outcome.inference().unwrap(),
        );
        assert_eq!(a.aif_acc.to_bits(), b.aif_acc.to_bits());
        assert_eq!(a.n_test, 600);
        assert_eq!(run_a.collection.n, 600);
    }

    #[test]
    fn rid_acc_helper_matches_evaluate_on_reident_eval() {
        let ds = adult_like(200, 9);
        let all: Vec<usize> = (0..ds.d()).collect();
        let index = ReidentAttack::build(&ds, &all);
        let profiles: Vec<Profile> = (0..ds.n())
            .map(|i| {
                let mut p = Profile::new();
                for j in 0..3 {
                    p.observe(j, ds.value(i, j));
                }
                p
            })
            .collect();
        let pipeline = AttackPipeline::from_kind(AttackKind::Reident(ReidentConfig::default()))
            .unwrap()
            .seed(5)
            .threads(4);
        let accs = pipeline.rid_acc(&index, &profiles);
        let via_eval = pipeline.evaluate(&ReidentEval {
            index: &index,
            profiles: &profiles,
            top_ks: &[1, 10],
        });
        assert_eq!(accs, via_eval.reident().unwrap().rid_acc);
    }

    #[test]
    fn parallel_rid_acc_matches_serial_distribution() {
        let ds = adult_like(400, 3);
        let all: Vec<usize> = (0..ds.d()).collect();
        let index = ReidentAttack::build(&ds, &all);
        // Perfect profiles: RID-ACC should be ≈ the uniqueness fraction or
        // higher (ties only among identical records).
        let profiles: Vec<Profile> = (0..ds.n())
            .map(|i| {
                let mut p = Profile::new();
                for j in 0..ds.d() {
                    p.observe(j, ds.value(i, j));
                }
                p
            })
            .collect();
        let pipeline = AttackPipeline::from_kind(AttackKind::Reident(ReidentConfig {
            top_ks: vec![1],
            ..ReidentConfig::default()
        }))
        .unwrap()
        .seed(7);
        let acc = pipeline.clone().threads(4).rid_acc(&index, &profiles)[0];
        let uniq = 100.0 * ds.uniqueness_fraction(&all);
        assert!(acc >= uniq - 1.0, "acc {acc} vs uniqueness {uniq}");
        // Deterministic across thread counts.
        let acc2 = pipeline.threads(1).rid_acc(&index, &profiles)[0];
        assert_eq!(acc.to_bits(), acc2.to_bits());
    }

    #[test]
    fn empty_profile_set_yields_zero_not_nan() {
        let ds = adult_like(50, 2);
        let all: Vec<usize> = (0..ds.d()).collect();
        let index = ReidentAttack::build(&ds, &all);
        let pipeline =
            AttackPipeline::from_kind(AttackKind::Reident(ReidentConfig::default())).unwrap();
        let accs = pipeline.rid_acc(&index, &[]);
        assert_eq!(accs, vec![0.0, 0.0]);
    }

    #[test]
    fn sharded_numeric_attack_is_bit_identical_to_serial() {
        use ldp_core::attacks::NumericConfig;
        use ldp_core::solutions::MixedKind;
        use ldp_core::NumericKind;
        let mixed = ldp_datasets::mixed::mixed_survey_like(800, 13);
        let collection = CollectionPipeline::from_kind(
            SolutionKind::Mixed(MixedKind {
                protocol: ProtocolKind::Grr,
                numeric: NumericKind::Piecewise,
                sample_k: 2,
            }),
            &mixed.ks(),
            4.0,
        )
        .unwrap()
        .seed(7)
        .threads(3);
        let pipeline = AttackPipeline::from_kind(AttackKind::NumericValueRange(NumericConfig {
            dim: 4,
            buckets: 4,
        }))
        .unwrap()
        .seed(7);
        let run = pipeline.clone().threads(1).run(&collection, &mixed);
        let serial = evaluate_serial(run.fitted.as_ref(), 7);
        assert_eq!(run.collection.n, 800);
        for threads in [2usize, 8] {
            let sharded = pipeline
                .clone()
                .threads(threads)
                .evaluate(run.fitted.as_ref());
            let (a, b) = (serial.numeric().unwrap(), sharded.numeric().unwrap());
            assert_eq!(a.n_targets, b.n_targets);
            assert_eq!(a.acc.to_bits(), b.acc.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn longitudinal_averaging_runs_and_memoize_stays_exactly_flat() {
        use ldp_core::attacks::AveragingConfig;
        let ds = adult_like(400, 5);
        let ks = ds.schema().cardinalities();
        let collection =
            CollectionPipeline::from_kind(SolutionKind::Smp(ProtocolKind::Grr), &ks, 8.0)
                .unwrap()
                .seed(17)
                .threads(3);
        let attack_at = |rounds: usize| {
            AttackPipeline::from_kind(AttackKind::Averaging(AveragingConfig {
                rounds,
                reident: ReidentConfig::default(),
            }))
            .unwrap()
            .seed(17)
            .threads(3)
        };
        let one = attack_at(1)
            .run_rounds(&collection, &ds, 1, BudgetPolicy::Memoize)
            .unwrap();
        let four = attack_at(4)
            .run_rounds(&collection, &ds, 4, BudgetPolicy::Memoize)
            .unwrap();
        let (a, b) = (
            one.outcome.reident().unwrap(),
            four.outcome.reident().unwrap(),
        );
        assert_eq!(a.n_targets, 400);
        assert_eq!(
            a.rid_acc, b.rid_acc,
            "memoized rounds replay round 0: pooling must change nothing"
        );
        assert_eq!(four.collection.n, 4 * 400);
    }

    #[test]
    fn run_rounds_collection_merges_the_per_round_runs_of_the_same_pass() {
        use ldp_core::attacks::AveragingConfig;
        let ds = adult_like(300, 8);
        let ks = ds.schema().cardinalities();
        let collection =
            CollectionPipeline::from_kind(SolutionKind::Smp(ProtocolKind::Grr), &ks, 6.0)
                .unwrap()
                .seed(5)
                .threads(3);
        let attack = AttackPipeline::from_kind(AttackKind::Averaging(AveragingConfig {
            rounds: 3,
            reident: ReidentConfig::default(),
        }))
        .unwrap()
        .seed(5)
        .threads(2);
        for policy in BudgetPolicy::ALL {
            let run = attack.run_rounds(&collection, &ds, 3, policy).unwrap();
            let per_round = collection.run_rounds(&ds, 3, policy).unwrap();
            let mut merged = policy
                .round_solution(collection.solution(), 3)
                .unwrap()
                .aggregator();
            for round in &per_round {
                merged.merge(&round.aggregator);
            }
            let expected = ldp_server::ServerSnapshot::from_aggregator(merged, 3);
            assert_eq!(run.collection.n, expected.n, "{policy}");
            assert_eq!(
                run.collection.aggregator.counts(),
                expected.aggregator.counts(),
                "{policy}: the attack's collection must merge the per-round runs"
            );
            for (a, b) in run
                .collection
                .estimates
                .iter()
                .flatten()
                .zip(expected.estimates.iter().flatten())
            {
                assert_eq!(a.to_bits(), b.to_bits(), "{policy}: estimates");
            }
            assert_eq!(
                run.collection.shards, per_round[0].shards,
                "{policy}: the shard count comes from the collection pass"
            );
            assert_eq!(run.collection.shards, 3, "{policy}");
        }
    }

    #[test]
    fn pie_audit_runs_through_the_pipeline() {
        let ds = adult_like(2_000, 4);
        let ks = ds.schema().cardinalities();
        let collection =
            CollectionPipeline::from_kind(SolutionKind::Smp(ProtocolKind::Grr), &ks, 1.0)
                .unwrap()
                .seed(1);
        let run = AttackPipeline::from_kind(AttackKind::PieAudit { beta: 0.5 })
            .unwrap()
            .seed(1)
            .run(&collection, &ds);
        let audit = run.outcome.pie().unwrap();
        assert_eq!(audit.decisions.len(), ds.d());
        assert!(audit.alpha > 0.0);
    }
}
