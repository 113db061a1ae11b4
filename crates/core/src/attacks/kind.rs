//! Runtime attack selection: [`AttackKind`] + [`DynAttack`] +
//! [`AttackOutcome`], mirroring `SolutionKind`/`DynSolution`/`SolutionReport`
//! on the adversary side.

use ldp_protocols::ProtocolError;
use rand::RngCore;

use super::{numeric, scenarios, AdversaryView, FittedAttack, MAX_METRIC_SLOTS};
use crate::inference::{AttackClassifier, AttackModel, InferenceOutcome};
use crate::pie::PieDecision;

/// Which attributes of the population the re-identification adversary holds
/// as background knowledge (§4.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackgroundKnowledge {
    /// FK-RI: the full `d`-dimensional dataset.
    Full,
    /// PK-RI: an explicit subset of global attribute ids.
    Partial(Vec<usize>),
}

impl BackgroundKnowledge {
    /// Paper-style label.
    pub fn name(&self) -> &'static str {
        match self {
            BackgroundKnowledge::Full => "FK-RI",
            BackgroundKnowledge::Partial(_) => "PK-RI",
        }
    }
}

/// Configuration of the §3.2.4 re-identification attack.
#[derive(Debug, Clone)]
pub struct ReidentConfig {
    /// Top-`k` candidate-set sizes; one RID-ACC per entry (paper: 1 and 10).
    pub top_ks: Vec<usize>,
    /// FK-RI or PK-RI background knowledge.
    pub background: BackgroundKnowledge,
    /// Classifier used to first *infer* the hidden sampled attribute when
    /// the observed solution is fake-data (RS+FD / RS+RFD — the Fig. 4
    /// chained attack); unused for SPL/SMP.
    pub classifier: AttackClassifier,
    /// NK synthetic-training factor of that inference step (paper: 1).
    pub synth_factor: f64,
}

impl Default for ReidentConfig {
    fn default() -> Self {
        ReidentConfig {
            top_ks: vec![1, 10],
            background: BackgroundKnowledge::Full,
            classifier: AttackClassifier::default(),
            synth_factor: 1.0,
        }
    }
}

/// Configuration of the §3.3 sampled-attribute inference attack.
#[derive(Debug, Clone)]
pub struct InferenceConfig {
    /// Attacker knowledge model (NK / PK / HM).
    pub model: AttackModel,
    /// Classifier family to train.
    pub classifier: AttackClassifier,
}

/// Configuration of the longitudinal averaging attack: a re-identification
/// adversary who pools each target's sanitized reports across `rounds`
/// collection rounds before matching (per-attribute majority vote over the
/// per-round deniability guesses). This is the risk that distinguishes the
/// budget policies: fresh ε/R randomization leaks a new view every round,
/// memoization replays one view and stays flat.
#[derive(Debug, Clone)]
pub struct AveragingConfig {
    /// Number of pooled collection rounds; the observed wire must hold
    /// `rounds · n` messages, round-major.
    pub rounds: usize,
    /// The underlying single-round re-identification configuration.
    pub reident: ReidentConfig,
}

/// Configuration of the numeric value-range inference attack against mixed
/// solutions (see [`AttackKind::NumericValueRange`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NumericConfig {
    /// Global dimension index of the attacked numeric attribute (must carry
    /// the `NUMERIC_DIM` sentinel in the deployed solution's `ks`).
    pub dim: usize,
    /// Number of equal-width value-range buckets over `[-1, 1]`.
    pub buckets: usize,
}

/// The paper's attacks as a plain enum for sweeps and runtime configuration
/// — the adversary counterpart of
/// [`SolutionKind`](crate::solutions::SolutionKind). Build a runnable
/// [`DynAttack`] with [`AttackKind::build`], then drive it through the
/// object-safe [`Attack`](super::Attack) trait (or hand it to
/// `ldp_sim::AttackPipeline` for a seeded, sharded end-to-end run).
///
/// The five kinds cover the paper's threat models and the two this crate
/// adds (longitudinal averaging, numeric value-range inference):
///
/// * [`AttackKind::Reident`] — the §3.2.4 matching + decision attack,
///   reporting RID-ACC (%) per top-`k`. Against SPL/SMP it profiles users
///   via plausible deniability; against RS+FD/RS+RFD it first infers the
///   hidden sampled attribute with the §3.3 classifier, chaining both error
///   sources exactly as in Fig. 4.
/// * [`AttackKind::SampledAttribute`] — the §3.3 inference attack itself,
///   reporting the attacker's accuracy (ASR) at recovering which attribute
///   of each fake-data tuple carries the real ε′-LDP report, under any
///   [`AttackModel`] × [`AttackClassifier`] combination.
/// * [`AttackKind::PieAudit`] — the Appendix C PIE relaxation: which
///   attributes a `(U, α)`-PIE server would send in the clear at target
///   Bayes error β, and with what ε budgets it randomizes the rest.
/// * [`AttackKind::NumericValueRange`] — value-range inference against the
///   numeric dimension of a mixed solution: a per-user Bayes update of the
///   population value histogram with the Duchi/PM/HM report likelihood,
///   reporting bucket-placement accuracy against the prior-mode baseline.
/// * [`AttackKind::Averaging`] — re-identification over each target's
///   reports pooled across rounds (per-attribute majority vote): the risk
///   that separates fresh ε/R randomization from memoization.
#[derive(Debug, Clone)]
pub enum AttackKind {
    /// Re-identification with per-`k` RID-ACC.
    Reident(ReidentConfig),
    /// Sampled-attribute inference (fake-data solutions only).
    SampledAttribute(InferenceConfig),
    /// PIE pass-through audit at target Bayes error `beta`.
    PieAudit {
        /// Target Bayes error probability `β_{U|S}` of Corollary 1.
        beta: f64,
    },
    /// Numeric value-range inference (mixed solutions only).
    NumericValueRange(NumericConfig),
    /// Longitudinal averaging: re-identification over reports pooled across
    /// rounds (§ longitudinal risk; rises with rounds under ε-splitting,
    /// flat under memoization).
    Averaging(AveragingConfig),
}

impl AttackKind {
    /// Display name, e.g. `"RID(FK-RI)[1,10]"`, `"AIF[NK]"`,
    /// `"PIE[beta=0.5]"`.
    pub fn name(&self) -> String {
        match self {
            AttackKind::Reident(cfg) => {
                let ks: Vec<String> = cfg.top_ks.iter().map(|k| k.to_string()).collect();
                format!("RID({})[{}]", cfg.background.name(), ks.join(","))
            }
            AttackKind::SampledAttribute(cfg) => format!("AIF[{}]", cfg.model.name()),
            AttackKind::PieAudit { beta } => format!("PIE[beta={beta}]"),
            AttackKind::NumericValueRange(cfg) => {
                format!("NUM-VRI[dim={},B={}]", cfg.dim, cfg.buckets)
            }
            AttackKind::Averaging(cfg) => {
                let ks: Vec<String> = cfg.reident.top_ks.iter().map(|k| k.to_string()).collect();
                format!(
                    "AVG[R={}]({})[{}]",
                    cfg.rounds,
                    cfg.reident.background.name(),
                    ks.join(",")
                )
            }
        }
    }

    /// Validates the configuration and builds the runnable attack, with a
    /// one-thread fit budget — the one validator and the only way to make a
    /// [`DynAttack`] (the counterpart of `SolutionKind::build`).
    pub fn build(self) -> Result<DynAttack, ProtocolError> {
        match &self {
            AttackKind::Reident(cfg) => {
                if cfg.top_ks.is_empty() || cfg.top_ks.contains(&0) {
                    return Err(ProtocolError::InvalidPrior {
                        reason: "re-identification needs non-empty top-ks with k >= 1".to_string(),
                    });
                }
                if cfg.top_ks.len() > MAX_METRIC_SLOTS {
                    return Err(ProtocolError::InvalidPrior {
                        reason: format!(
                            "at most {MAX_METRIC_SLOTS} top-k slots per attack (sharded \
                             evaluation packs hits into a u64 mask)"
                        ),
                    });
                }
                // The NK chaining step for fake-data solutions trains on
                // synthetic profiles only; 0 would leave it with an empty
                // training set.
                if cfg.synth_factor <= 0.0 || cfg.synth_factor.is_nan() {
                    return Err(ProtocolError::InvalidProbability(cfg.synth_factor));
                }
                if let BackgroundKnowledge::Partial(attrs) = &cfg.background {
                    if attrs.is_empty() {
                        return Err(ProtocolError::InvalidPrior {
                            reason: "PK-RI background needs at least one attribute".to_string(),
                        });
                    }
                }
            }
            AttackKind::SampledAttribute(cfg) => match cfg.model {
                // NK trains on synthetic profiles only: the factor must be
                // positive or the training set is empty.
                AttackModel::NoKnowledge { synth_factor } => {
                    if synth_factor <= 0.0 || synth_factor.is_nan() {
                        return Err(ProtocolError::InvalidProbability(synth_factor));
                    }
                }
                // PK trains on compromised users only: the fraction must be
                // positive (and < 1 to leave a test set).
                AttackModel::PartialKnowledge { compromised_frac } => {
                    if compromised_frac <= 0.0
                        || compromised_frac >= 1.0
                        || compromised_frac.is_nan()
                    {
                        return Err(ProtocolError::InvalidProbability(compromised_frac));
                    }
                }
                // HM needs a positive synthetic factor (its PK share may
                // legitimately round to zero users on small populations).
                AttackModel::Hybrid {
                    synth_factor,
                    compromised_frac,
                } => {
                    if synth_factor <= 0.0 || synth_factor.is_nan() {
                        return Err(ProtocolError::InvalidProbability(synth_factor));
                    }
                    if !(0.0..1.0).contains(&compromised_frac) {
                        return Err(ProtocolError::InvalidProbability(compromised_frac));
                    }
                }
            },
            AttackKind::PieAudit { beta } => {
                if !(0.0..=1.0).contains(beta) {
                    return Err(ProtocolError::InvalidProbability(*beta));
                }
            }
            AttackKind::NumericValueRange(cfg) => {
                // One bucket would make the attack trivially (and
                // meaninglessly) 100% accurate.
                if cfg.buckets < 2 {
                    return Err(ProtocolError::InvalidPrior {
                        reason: "numeric value-range inference needs at least 2 buckets"
                            .to_string(),
                    });
                }
            }
            AttackKind::Averaging(cfg) => {
                if cfg.rounds == 0 {
                    return Err(ProtocolError::InvalidPrior {
                        reason: "the averaging attack needs at least one round to pool".to_string(),
                    });
                }
                // The inner re-identification config shares Reident's rules.
                AttackKind::Reident(cfg.reident.clone()).build()?;
            }
        }
        Ok(DynAttack {
            kind: self,
            threads: 1,
        })
    }
}

impl std::fmt::Display for AttackKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// A validated attack and the thread budget of its fit — the one runnable
/// adversary value (the counterpart of
/// [`DynSolution`](crate::solutions::DynSolution)). Only
/// [`AttackKind::build`] makes one, so every instance is validated.
#[derive(Debug, Clone)]
pub struct DynAttack {
    kind: AttackKind,
    threads: usize,
}

impl DynAttack {
    /// The attack family and configuration of this instance.
    pub fn kind(&self) -> &AttackKind {
        &self.kind
    }

    /// Sets the thread budget of [`Attack::fit`](super::Attack::fit) (`0`
    /// counts as `1`): the families that train the §3.3 classifier fit and
    /// predict with it on up to that many threads. Every budget gives the
    /// same fitted attack; the other families ignore it.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }
}

impl super::Attack for DynAttack {
    fn name(&self) -> String {
        self.kind.name()
    }

    fn needs_observation(&self) -> bool {
        !matches!(self.kind, AttackKind::PieAudit { .. })
    }

    fn fit(&self, view: &AdversaryView<'_>, rng: &mut dyn RngCore) -> Box<dyn FittedAttack> {
        match &self.kind {
            AttackKind::Reident(cfg) => scenarios::fit_reident(cfg, self.threads, view, rng),
            AttackKind::SampledAttribute(cfg) => {
                scenarios::fit_inference(cfg, self.threads, view, rng)
            }
            AttackKind::PieAudit { beta } => scenarios::fit_pie(*beta, view),
            AttackKind::NumericValueRange(cfg) => numeric::fit_numeric(cfg, view),
            AttackKind::Averaging(cfg) => scenarios::fit_averaging(cfg, self.threads, view, rng),
        }
    }
}

/// Re-identification attack result: one RID-ACC per requested top-`k`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReidentOutcome {
    /// The top-`k` values evaluated.
    pub top_ks: Vec<usize>,
    /// RID-ACC (%) per top-`k`.
    pub rid_acc: Vec<f64>,
    /// Random-guess baseline (%) per top-`k`: `100·k/n`.
    pub baseline: Vec<f64>,
    /// Number of targets evaluated.
    pub n_targets: usize,
}

impl ReidentOutcome {
    /// RID-ACC (%) at one of the evaluated `k` values.
    pub fn acc_at(&self, k: usize) -> Option<f64> {
        self.top_ks
            .iter()
            .position(|&x| x == k)
            .map(|slot| self.rid_acc[slot])
    }
}

/// PIE audit result: the per-attribute Appendix C decisions.
#[derive(Debug, Clone, PartialEq)]
pub struct PieOutcome {
    /// Target Bayes error β the audit ran at.
    pub beta: f64,
    /// The implied PIE budget `α = (1 − β)·log2(n) − 1` (clamped at 0).
    pub alpha: f64,
    /// Pass-through / randomize decision per attribute.
    pub decisions: Vec<PieDecision>,
}

impl PieOutcome {
    /// How many attributes a PIE server would send in the clear.
    pub fn pass_through_count(&self) -> usize {
        self.decisions
            .iter()
            .filter(|d| matches!(d, PieDecision::PassThrough))
            .count()
    }
}

/// Numeric value-range inference result.
#[derive(Debug, Clone, PartialEq)]
pub struct NumericOutcome {
    /// Fraction (%) of users whose true value landed in the guessed bucket.
    pub acc: f64,
    /// Prior-mode baseline (%): the accuracy of an adversary who never reads
    /// the wire and always guesses the most likely bucket.
    pub baseline: f64,
    /// Number of value-range buckets over `[-1, 1]`.
    pub buckets: usize,
    /// Number of users evaluated (the full population).
    pub n_targets: usize,
    /// How many users' reports actually carried the attacked dimension
    /// (expected `n·sample_k/d` under sampling).
    pub n_observed: usize,
}

impl NumericOutcome {
    /// Attack lift (% points) over the prior-only adversary — the leakage
    /// attributable to the LDP reports themselves.
    pub fn lift(&self) -> f64 {
        self.acc - self.baseline
    }
}

/// One attack result, covering every family's report shape — the adversary
/// counterpart of [`SolutionReport`](crate::solutions::SolutionReport).
#[derive(Debug, Clone)]
pub enum AttackOutcome {
    /// Re-identification RID-ACC per top-`k`.
    Reident(ReidentOutcome),
    /// Sampled-attribute inference accuracy.
    Inference(InferenceOutcome),
    /// PIE pass-through audit.
    Pie(PieOutcome),
    /// Numeric value-range inference.
    Numeric(NumericOutcome),
}

impl AttackOutcome {
    /// The re-identification outcome, when this is one.
    pub fn reident(&self) -> Option<&ReidentOutcome> {
        match self {
            AttackOutcome::Reident(o) => Some(o),
            _ => None,
        }
    }

    /// The inference outcome, when this is one.
    pub fn inference(&self) -> Option<&InferenceOutcome> {
        match self {
            AttackOutcome::Inference(o) => Some(o),
            _ => None,
        }
    }

    /// The PIE audit outcome, when this is one.
    pub fn pie(&self) -> Option<&PieOutcome> {
        match self {
            AttackOutcome::Pie(o) => Some(o),
            _ => None,
        }
    }

    /// The numeric value-range outcome, when this is one.
    pub fn numeric(&self) -> Option<&NumericOutcome> {
        match self {
            AttackOutcome::Numeric(o) => Some(o),
            _ => None,
        }
    }
}
