//! The unified adversary layer: every attack of the paper behind one
//! object-safe surface, mirroring the collection side's
//! [`SolutionKind`](crate::solutions::SolutionKind) /
//! [`DynSolution`] /
//! [`SolutionReport`] redesign.
//!
//! * [`AttackKind`] — plain configuration enum: which threat model to run
//!   (re-identification, sampled-attribute inference, PIE audit).
//! * [`DynAttack`] — the runtime dispatcher built from a kind; implements the
//!   object-safe [`Attack`] trait.
//! * [`AttackOutcome`] — the result enum covering every attack's report
//!   shape (per-`k` RID-ACC, AIF accuracy, PIE decisions).
//!
//! An attack runs in two phases. [`Attack::fit`] consumes the adversary's
//! [`AdversaryView`] — the target population, the deployed solution and every
//! sanitized message on the wire — and trains/indexes whatever the scenario
//! needs (an inverted re-identification index, a sampled-attribute
//! classifier). The returned [`FittedAttack`] then scores **targets
//! independently**: [`FittedAttack::evaluate_target`] is pure in `&self`, so
//! evaluation shards across threads, with each target drawing randomness
//! from its own [`target_rng`] stream. Serial ([`evaluate_serial`]) and
//! sharded (`ldp_sim::AttackPipeline`) evaluation are therefore
//! **bit-identical** for every thread count.

mod kind;
mod numeric;
mod scenarios;

pub use kind::{
    AttackKind, AttackOutcome, AveragingConfig, BackgroundKnowledge, DynAttack, InferenceConfig,
    NumericConfig, NumericOutcome, PieOutcome, ReidentConfig, ReidentOutcome,
};
pub use numeric::{FittedNumeric, NumericScenario};
pub use scenarios::{
    AveragingScenario, FittedInference, FittedPie, FittedReident, InferenceScenario, PieScenario,
    ReidentEval, ReidentScenario,
};

use ldp_datasets::{Dataset, MixedDataset};
use ldp_protocols::hash::mix3;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use crate::reident::MatchScratch;
use crate::solutions::{DynSolution, SolutionReport};

/// Everything the adversary works from in one collection round: the target
/// population (background knowledge is drawn from it), the deployed
/// collection solution (attacks may replay its exact client mechanism), and
/// the sanitized message of every user, in user order.
#[derive(Debug, Clone, Copy)]
pub struct AdversaryView<'a> {
    /// Ground-truth population; user `i`'s message is `observed[i]`.
    pub dataset: &'a Dataset,
    /// The collection solution that produced `observed`.
    pub solution: &'a DynSolution,
    /// Every sanitized message of the round (the adversary sees the wire).
    pub observed: &'a [SolutionReport],
    /// Continuous ground truth for mixed rounds: the numeric attacks need
    /// the users' true normalized values (and population histograms as
    /// priors), which the categorical [`Dataset`] cannot carry. `None` for
    /// purely categorical rounds.
    pub numeric_truth: Option<&'a MixedDataset>,
}

/// An attack scenario, object-safe: randomness enters through
/// `&mut dyn RngCore` so pipelines and services can hold any attack behind
/// `Box<dyn Attack>` and pick the threat model at runtime — the adversary
/// counterpart of [`DynSolution`].
pub trait Attack {
    /// Display name of the scenario (e.g. `"RID(FK-RI)[1,10]"`).
    fn name(&self) -> String;

    /// Whether [`Attack::fit`] reads the observed wire
    /// ([`AdversaryView::observed`]). Analytic attacks (the PIE audit)
    /// return `false` so pipelines can skip buffering the `O(n)` messages
    /// and pass an empty slice.
    fn needs_observation(&self) -> bool {
        true
    }

    /// Trains/indexes the adversary's model from its view. Deterministic in
    /// `rng`: a scenario that trains the §3.3 classifier spends its thread
    /// budget ([`DynAttack::set_threads`]) on it, with the same result for
    /// every budget. The per-target evaluation that follows is sharded by
    /// the caller.
    ///
    /// # Panics
    /// Panics when the view's solution family cannot be attacked by this
    /// scenario (e.g. sampled-attribute inference against SPL, which hides
    /// nothing) or when `observed` does not match the solution's shape.
    fn fit(&self, view: &AdversaryView<'_>, rng: &mut dyn RngCore) -> Box<dyn FittedAttack>;
}

/// A fitted adversary. `evaluate_target` must not mutate shared state, so
/// targets can be scored on any thread in any order; per-target randomness
/// comes from the caller via [`target_rng`], which is what makes sharded and
/// serial evaluation bit-identical.
pub trait FittedAttack: Send + Sync {
    /// Number of evaluation targets (0 for analytic attacks such as the PIE
    /// audit).
    fn n_targets(&self) -> usize;

    /// Number of per-target success metrics (e.g. one per top-`k`); the
    /// `hits` buffer of [`FittedAttack::evaluate_target`] has this width.
    /// Must not exceed [`MAX_METRIC_SLOTS`] — sharded evaluation packs the
    /// bits into a `u64` mask ([`AttackKind::build`] enforces this for the
    /// built-in kinds).
    fn n_slots(&self) -> usize;

    /// Scores one target, writing one success bit per metric slot into
    /// `hits`. `scratch` is reusable across calls on the same worker.
    fn evaluate_target(
        &self,
        target: usize,
        scratch: &mut MatchScratch,
        hits: &mut [bool],
        rng: &mut dyn RngCore,
    );

    /// Builds the final outcome from per-slot hit counts over all targets.
    fn outcome(&self, hit_counts: &[u64]) -> AttackOutcome;
}

/// Upper bound on [`FittedAttack::n_slots`]: sharded evaluation packs a
/// target's per-slot hit bits into one `u64` mask.
pub const MAX_METRIC_SLOTS: usize = 64;

/// Salt of the per-target evaluation rng streams (shared by
/// [`evaluate_serial`] and `ldp_sim::AttackPipeline`).
pub const TARGET_SALT: u64 = 0xA11C_E5EED;

/// Salt of the fit-phase rng stream.
pub const FIT_SALT: u64 = 0x00F1_7A77_AC4B;

/// The rng stream of one evaluation target, derived from the attack seed:
/// `StdRng(mix3(seed, target, TARGET_SALT))`. Identical on every thread
/// layout — this replaces the single serial rng the pre-redesign
/// `ReidentAttack::rid_acc` threaded through all users.
pub fn target_rng(seed: u64, target: usize) -> StdRng {
    StdRng::seed_from_u64(mix3(seed, target as u64, TARGET_SALT))
}

/// The rng stream of the fit phase for an attack seed.
pub fn fit_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(mix3(seed, 0, FIT_SALT))
}

/// Serial reference evaluation of a fitted attack: every target scored in
/// order on one thread, one [`MatchScratch`] reused throughout. Bit-identical
/// to the sharded `ldp_sim::AttackPipeline::evaluate` at the same `seed`.
pub fn evaluate_serial(fitted: &dyn FittedAttack, seed: u64) -> AttackOutcome {
    let slots = fitted.n_slots();
    let mut scratch = MatchScratch::default();
    let mut hits = vec![false; slots];
    let mut counts = vec![0u64; slots];
    for target in 0..fitted.n_targets() {
        let mut rng = target_rng(seed, target);
        fitted.evaluate_target(target, &mut scratch, &mut hits, &mut rng);
        for (count, &hit) in counts.iter_mut().zip(&hits) {
            *count += u64::from(hit);
        }
    }
    fitted.outcome(&counts)
}
