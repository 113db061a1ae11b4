//! The fit logic of every attack family — one function each, called by
//! [`DynAttack`](super::DynAttack)'s `fit` on its kind — and the fitted,
//! shardable evaluators they return.

use ldp_datasets::Dataset;
use ldp_protocols::deniability::{best_guess_report, best_guess_with};
use rand::RngCore;

use super::kind::{
    AttackOutcome, AveragingConfig, BackgroundKnowledge, InferenceConfig, PieOutcome,
    ReidentConfig, ReidentOutcome,
};
use super::{AdversaryView, FittedAttack};
use crate::inference::{AttackModel, InferenceOutcome, SampledAttributeAttack};
use crate::pie;
use crate::profiling::Profile;
use crate::reident::{MatchScratch, ReidentAttack};
use crate::solutions::{DynSolution, MultidimSolution, SolutionReport};

// ---------------------------------------------------------------------------
// Re-identification
// ---------------------------------------------------------------------------

impl ReidentConfig {
    /// Builds the background-knowledge index this configuration prescribes
    /// over `dataset` (all attributes for FK-RI, the configured subset for
    /// PK-RI).
    pub fn build_index(&self, dataset: &Dataset) -> ReidentAttack {
        let bk_attrs: Vec<usize> = match &self.background {
            BackgroundKnowledge::Full => (0..dataset.d()).collect(),
            BackgroundKnowledge::Partial(attrs) => attrs.clone(),
        };
        ReidentAttack::build(dataset, &bk_attrs)
    }
}

/// The §3.2.4 re-identification fit: profile every user from the observed
/// round via plausible deniability (chaining through the §3.3 classifier for
/// fake-data solutions, on up to `threads` threads), index the background
/// knowledge, and score per-target top-`k` membership.
pub(super) fn fit_reident(
    config: &ReidentConfig,
    threads: usize,
    view: &AdversaryView<'_>,
    rng: &mut dyn RngCore,
) -> Box<dyn FittedAttack> {
    assert_eq!(
        view.observed.len(),
        view.dataset.n(),
        "need one observed message per user"
    );
    let index = config.build_index(view.dataset);
    let profiles = profile_round(config, threads, view, rng);
    Box::new(FittedReident {
        index,
        profiles,
        top_ks: config.top_ks.clone(),
    })
}

/// Builds one per-user [`Profile`] from the round's sanitized messages,
/// following the per-solution adversary rules: SMP disclosed attribute →
/// deniability guess; SPL → deniability guess on every attribute;
/// RS+FD / RS+RFD → infer the sampled attribute with the NK classifier,
/// then deniability-guess its report (the Fig. 4 "chained errors").
fn profile_round(
    config: &ReidentConfig,
    threads: usize,
    view: &AdversaryView<'_>,
    rng: &mut dyn RngCore,
) -> Vec<Profile> {
    // One candidate buffer reused across the whole round (OLH preimages
    // are the only allocating guess path; see `best_guess_with`).
    let mut scratch = Vec::new();
    match view.solution {
        DynSolution::Smp(s) => view
            .observed
            .iter()
            .map(|r| {
                let m = r
                    .to_smp()
                    .expect("observed report shape does not match the SMP solution");
                let mut p = Profile::new();
                p.observe(
                    m.attr,
                    best_guess_with(s.oracle(m.attr), &m.report, &mut scratch, rng),
                );
                p
            })
            .collect(),
        DynSolution::Spl(s) => view
            .observed
            .iter()
            .map(|r| {
                let reports = r
                    .to_full()
                    .expect("observed report shape does not match the SPL solution");
                let mut p = Profile::new();
                for (j, rep) in reports.iter().enumerate() {
                    p.observe(j, best_guess_with(s.oracle(j), rep, &mut scratch, rng));
                }
                p
            })
            .collect(),
        DynSolution::RsFd(s) => profile_fake_data(config, threads, s, view.observed, rng),
        DynSolution::RsRfd(s) => profile_fake_data(config, threads, s, view.observed, rng),
        DynSolution::Mixed(_) => panic!(
            "re-identification does not profile mixed numeric rounds; use \
             AttackKind::NumericValueRange against mixed solutions"
        ),
    }
}

/// The chained fake-data profiling step shared by RS+FD and RS+RFD: an NK
/// attacker, who knows no user's sampled attribute, reads the round's words
/// and decodes only each predicted attribute's entry.
fn profile_fake_data<S: MultidimSolution>(
    config: &ReidentConfig,
    threads: usize,
    solution: &S,
    observed: &[SolutionReport],
    rng: &mut dyn RngCore,
) -> Vec<Profile> {
    let (attack, _) = SampledAttributeAttack::train(
        solution,
        observed,
        &[],
        &AttackModel::NoKnowledge {
            synth_factor: config.synth_factor,
        },
        &config.classifier,
        rng,
        threads,
    );
    let predicted = attack.predict(&observed.iter().collect::<Vec<_>>(), threads);
    predicted
        .iter()
        .zip(observed)
        .map(|(&pred, r)| {
            let attr = pred as usize;
            let entry = r
                .tuple_entry(attr)
                .expect("predicted attribute within the tuple");
            let mut p = Profile::new();
            p.observe(attr, best_guess_report(&entry, solution.ks()[attr], rng));
            p
        })
        .collect()
}

/// A fitted re-identification attack: background index plus one adversary
/// profile per target.
#[derive(Debug, Clone)]
pub struct FittedReident {
    index: ReidentAttack,
    profiles: Vec<Profile>,
    top_ks: Vec<usize>,
}

impl FittedAttack for FittedReident {
    fn n_targets(&self) -> usize {
        self.profiles.len()
    }

    fn n_slots(&self) -> usize {
        self.top_ks.len()
    }

    fn evaluate_target(
        &self,
        target: usize,
        scratch: &mut MatchScratch,
        hits: &mut [bool],
        rng: &mut dyn RngCore,
    ) {
        ReidentEval {
            index: &self.index,
            profiles: &self.profiles,
            top_ks: &self.top_ks,
        }
        .evaluate_target(target, scratch, hits, rng);
    }

    fn outcome(&self, hit_counts: &[u64]) -> AttackOutcome {
        reident_outcome(&self.index, &self.top_ks, hit_counts, self.profiles.len())
    }
}

/// Borrowed re-identification evaluator over externally built profiles —
/// e.g. multi-survey campaign snapshots — so RID-ACC over a snapshot can run
/// through the same sharded machinery without cloning the profile set.
/// `profiles[i]` targets background record `i` (the paper's setting).
#[derive(Debug, Clone, Copy)]
pub struct ReidentEval<'a> {
    /// Background-knowledge index.
    pub index: &'a ReidentAttack,
    /// Per-target adversary profiles.
    pub profiles: &'a [Profile],
    /// Top-`k` values, one metric slot each.
    pub top_ks: &'a [usize],
}

impl FittedAttack for ReidentEval<'_> {
    fn n_targets(&self) -> usize {
        self.profiles.len()
    }

    fn n_slots(&self) -> usize {
        self.top_ks.len()
    }

    fn evaluate_target(
        &self,
        target: usize,
        scratch: &mut MatchScratch,
        hits: &mut [bool],
        rng: &mut dyn RngCore,
    ) {
        self.index.hits_into(
            &self.profiles[target],
            target as u32,
            self.top_ks,
            scratch,
            hits,
            rng,
        );
    }

    fn outcome(&self, hit_counts: &[u64]) -> AttackOutcome {
        reident_outcome(self.index, self.top_ks, hit_counts, self.profiles.len())
    }
}

// ---------------------------------------------------------------------------
// Longitudinal averaging
// ---------------------------------------------------------------------------

/// The longitudinal averaging fit: a re-identification adversary who
/// watches `rounds` collection rounds of the same population and pools each
/// target's per-round deniability guesses **before** matching — per
/// (user, attribute) majority vote, ties broken toward the earliest-observed
/// value so the pooling is deterministic in the observed wire.
///
/// Against ε-splitting this grows along two axes at once: sampling solutions
/// disclose a different attribute each fresh round (profile coverage
/// `≈ d(1−(1−1/d)^R)`), and repeated views of the same attribute vote down
/// the sanitization noise. Against memoization every round replays round 0's
/// report, the vote is unanimous on a single view, and the pooled profile —
/// hence the ASR — is exactly the single-round one.
pub(super) fn fit_averaging(
    config: &AveragingConfig,
    threads: usize,
    view: &AdversaryView<'_>,
    rng: &mut dyn RngCore,
) -> Box<dyn FittedAttack> {
    let n = view.dataset.n();
    let rounds = config.rounds.max(1);
    assert_eq!(
        view.observed.len(),
        rounds * n,
        "the averaging attack needs rounds·n observed messages, round-major"
    );
    let per_round: Vec<Vec<Profile>> = (0..rounds)
        .map(|r| {
            let sub = AdversaryView {
                observed: &view.observed[r * n..(r + 1) * n],
                ..*view
            };
            profile_round(&config.reident, threads, &sub, rng)
        })
        .collect();
    Box::new(FittedReident {
        index: config.reident.build_index(view.dataset),
        profiles: pool_profiles(&per_round),
        top_ks: config.reident.top_ks.clone(),
    })
}

/// Pools per-round profiles into one profile per user: for every attribute
/// any round observed, the prediction with the most round votes wins (strict
/// majority comparison → first value to reach the top count wins ties, which
/// is deterministic in round order).
fn pool_profiles(rounds: &[Vec<Profile>]) -> Vec<Profile> {
    let n = rounds.first().map_or(0, Vec::len);
    (0..n)
        .map(|user| {
            // (attr, votes per value) in first-observed order; domains and d
            // are small, so linear scans beat hashing here.
            let mut votes: Vec<(usize, Vec<(u32, u32)>)> = Vec::new();
            for round in rounds {
                for &(attr, value) in round[user].entries() {
                    let slot = match votes.iter_mut().find(|(a, _)| *a == attr) {
                        Some((_, counts)) => counts,
                        None => {
                            votes.push((attr, Vec::new()));
                            &mut votes.last_mut().expect("just pushed").1
                        }
                    };
                    match slot.iter_mut().find(|(v, _)| *v == value) {
                        Some((_, c)) => *c += 1,
                        None => slot.push((value, 1)),
                    }
                }
            }
            let mut pooled = Profile::new();
            for (attr, counts) in votes {
                let (winner, _) = counts
                    .into_iter()
                    .reduce(|best, cand| if cand.1 > best.1 { cand } else { best })
                    .expect("an observed attribute has at least one vote");
                pooled.observe(attr, winner);
            }
            pooled
        })
        .collect()
}

fn reident_outcome(
    index: &ReidentAttack,
    top_ks: &[usize],
    hit_counts: &[u64],
    n_targets: usize,
) -> AttackOutcome {
    let denom = n_targets.max(1) as f64;
    AttackOutcome::Reident(ReidentOutcome {
        top_ks: top_ks.to_vec(),
        rid_acc: hit_counts
            .iter()
            .map(|&h| 100.0 * h as f64 / denom)
            .collect(),
        baseline: top_ks.iter().map(|&k| index.baseline(k)).collect(),
        n_targets,
    })
}

// ---------------------------------------------------------------------------
// Sampled-attribute inference
// ---------------------------------------------------------------------------

/// The §3.3 sampled-attribute inference fit against the fake-data
/// solutions, under any attacker model × classifier combination, with the
/// classifier's fit and prediction on up to `threads` threads.
pub(super) fn fit_inference(
    config: &InferenceConfig,
    threads: usize,
    view: &AdversaryView<'_>,
    rng: &mut dyn RngCore,
) -> Box<dyn FittedAttack> {
    assert!(
        matches!(view.solution, DynSolution::RsFd(_) | DynSolution::RsRfd(_)),
        "sampled-attribute inference needs a fake-data solution, got {}",
        view.solution.name()
    );
    // The one reader of the hidden attribute outside tests: the ground
    // truth PK/HM training and the scoring use, never the features.
    let labels: Vec<usize> = view
        .observed
        .iter()
        .map(|r| {
            r.hidden_attribute()
                .expect("expected full fake-data tuples in the observed round")
        })
        .collect();
    let (attack, test_idx) = match view.solution {
        DynSolution::RsFd(s) => SampledAttributeAttack::train(
            s,
            view.observed,
            &labels,
            &config.model,
            &config.classifier,
            rng,
            threads,
        ),
        DynSolution::RsRfd(s) => SampledAttributeAttack::train(
            s,
            view.observed,
            &labels,
            &config.model,
            &config.classifier,
            rng,
            threads,
        ),
        _ => unreachable!("solution family guarded by the assert above"),
    };
    let n = labels.len();
    let n_train = n - test_idx.len() + config.model.synth_count(n);
    // Prediction is rng-free, so the per-target success bits are fixed at
    // fit time: one batch encode/predict instead of per-target calls.
    let tests: Vec<&SolutionReport> = test_idx.iter().map(|&i| &view.observed[i]).collect();
    let correct: Vec<bool> = attack
        .predict(&tests, threads)
        .iter()
        .zip(&test_idx)
        .map(|(&pred, &i)| pred as usize == labels[i])
        .collect();
    Box::new(FittedInference {
        correct,
        d: view.solution.d(),
        n_train,
    })
}

/// A fitted inference attack: the (rng-free, batch-precomputed)
/// per-test-user success bits of the trained classifier.
#[derive(Debug, Clone)]
pub struct FittedInference {
    correct: Vec<bool>,
    d: usize,
    n_train: usize,
}

impl FittedAttack for FittedInference {
    fn n_targets(&self) -> usize {
        self.correct.len()
    }

    fn n_slots(&self) -> usize {
        1
    }

    fn evaluate_target(
        &self,
        target: usize,
        _scratch: &mut MatchScratch,
        hits: &mut [bool],
        _rng: &mut dyn RngCore,
    ) {
        hits[0] = self.correct[target];
    }

    fn outcome(&self, hit_counts: &[u64]) -> AttackOutcome {
        AttackOutcome::Inference(InferenceOutcome {
            aif_acc: 100.0 * hit_counts[0] as f64 / self.correct.len().max(1) as f64,
            baseline: 100.0 / self.d as f64,
            n_train: self.n_train,
            n_test: self.correct.len(),
        })
    }
}

// ---------------------------------------------------------------------------
// PIE audit
// ---------------------------------------------------------------------------

/// The Appendix C PIE audit: an analytic "attack" reporting which attributes
/// a `(U, α)`-PIE server discloses unrandomized at target Bayes error β.
/// Only `n` and the domain sizes enter the decision; the wire is never read.
pub(super) fn fit_pie(beta: f64, view: &AdversaryView<'_>) -> Box<dyn FittedAttack> {
    let n = view.dataset.n();
    let decisions = view
        .solution
        .ks()
        .iter()
        .map(|&k| pie::decide(beta, n, k))
        .collect();
    Box::new(FittedPie {
        outcome: PieOutcome {
            beta,
            alpha: pie::alpha_from_bayes_error(beta, n),
            decisions,
        },
    })
}

/// A "fitted" PIE audit — analytic, so it has no targets to score.
#[derive(Debug, Clone)]
pub struct FittedPie {
    outcome: PieOutcome,
}

impl FittedAttack for FittedPie {
    fn n_targets(&self) -> usize {
        0
    }

    fn n_slots(&self) -> usize {
        0
    }

    fn evaluate_target(
        &self,
        _target: usize,
        _scratch: &mut MatchScratch,
        _hits: &mut [bool],
        _rng: &mut dyn RngCore,
    ) {
        unreachable!("the PIE audit has no per-target evaluation");
    }

    fn outcome(&self, _hit_counts: &[u64]) -> AttackOutcome {
        AttackOutcome::Pie(self.outcome.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacks::{evaluate_serial, fit_rng, Attack, AttackKind};
    use crate::inference::AttackClassifier;
    use crate::solutions::{RsFdProtocol, SolutionKind};
    use ldp_datasets::{Dataset, Schema};
    use ldp_gbdt::LogisticParams;
    use ldp_protocols::ProtocolKind;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn skewed_dataset(n: usize, ks: &[usize], seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<u32> = (0..n)
            .flat_map(|_| {
                ks.iter()
                    .map(|&k| {
                        if rng.random::<f64>() < 0.6 {
                            0
                        } else {
                            rng.random_range(0..k as u32)
                        }
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        let cards: Vec<u32> = ks.iter().map(|&k| k as u32).collect();
        Dataset::new(Schema::from_cardinalities(&cards), data)
    }

    fn observe(solution: &DynSolution, dataset: &Dataset, seed: u64) -> Vec<SolutionReport> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..dataset.n())
            .map(|i| solution.report(dataset.row(i), &mut rng))
            .collect()
    }

    fn logistic() -> AttackClassifier {
        AttackClassifier::Logistic(LogisticParams::default())
    }

    #[test]
    fn smp_reident_beats_baseline_at_high_epsilon() {
        let ks = [6usize, 8, 5, 4];
        let ds = skewed_dataset(300, &ks, 1);
        let solution = SolutionKind::Smp(ProtocolKind::Grr)
            .build(&ks, 8.0)
            .unwrap();
        let observed = observe(&solution, &ds, 2);
        let view = AdversaryView {
            dataset: &ds,
            solution: &solution,
            observed: &observed,
            numeric_truth: None,
        };
        let attack = AttackKind::Reident(ReidentConfig::default())
            .build()
            .unwrap();
        let fitted = Attack::fit(&attack, &view, &mut fit_rng(3));
        let outcome = evaluate_serial(fitted.as_ref(), 3);
        let o = outcome.reident().expect("reident outcome");
        assert_eq!(o.n_targets, 300);
        // A single high-ε GRR report re-identifies well above the 10/300
        // top-10 baseline on a skewed population.
        assert!(
            o.acc_at(10).unwrap() > 2.0 * o.baseline[1],
            "top-10 {} vs baseline {}",
            o.acc_at(10).unwrap(),
            o.baseline[1]
        );
    }

    #[test]
    fn spl_reident_profiles_every_attribute() {
        let ks = [5usize, 4, 3];
        let ds = skewed_dataset(120, &ks, 4);
        let solution = SolutionKind::Spl(ProtocolKind::Grr)
            .build(&ks, 9.0)
            .unwrap();
        let observed = observe(&solution, &ds, 5);
        let view = AdversaryView {
            dataset: &ds,
            solution: &solution,
            observed: &observed,
            numeric_truth: None,
        };
        let profiles = profile_round(&ReidentConfig::default(), 1, &view, &mut fit_rng(6));
        assert_eq!(profiles.len(), 120);
        assert!(profiles.iter().all(|p| p.len() == 3));
    }

    #[test]
    fn chained_fake_data_reident_runs_end_to_end() {
        let ks = [5usize, 4, 6];
        let ds = skewed_dataset(250, &ks, 7);
        let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
            .build(&ks, 6.0)
            .unwrap();
        let observed = observe(&solution, &ds, 8);
        let view = AdversaryView {
            dataset: &ds,
            solution: &solution,
            observed: &observed,
            numeric_truth: None,
        };
        let attack = AttackKind::Reident(ReidentConfig {
            classifier: logistic(),
            ..ReidentConfig::default()
        })
        .build()
        .unwrap();
        let outcome = evaluate_serial(Attack::fit(&attack, &view, &mut fit_rng(9)).as_ref(), 9);
        let o = outcome.reident().expect("reident outcome");
        // One classifier-predicted attribute per user: weak but valid.
        assert!(o.rid_acc.iter().all(|&a| (0.0..=100.0).contains(&a)));
    }

    #[test]
    fn inference_scenario_matches_direct_evaluate() {
        // The pipeline decomposition (train → per-target predict) must agree
        // with SampledAttributeAttack::evaluate on identical rng streams.
        let ks = [5usize, 4, 6];
        let ds = skewed_dataset(400, &ks, 10);
        let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
            .build(&ks, 6.0)
            .unwrap();
        let observed = observe(&solution, &ds, 11);
        let view = AdversaryView {
            dataset: &ds,
            solution: &solution,
            observed: &observed,
            numeric_truth: None,
        };
        let model = AttackModel::NoKnowledge { synth_factor: 1.0 };
        let attack = AttackKind::SampledAttribute(InferenceConfig {
            model,
            classifier: logistic(),
        })
        .build()
        .unwrap();
        let fitted = Attack::fit(&attack, &view, &mut fit_rng(12));
        let got = evaluate_serial(fitted.as_ref(), 12);
        let got = got.inference().expect("inference outcome");

        let labels: Vec<usize> = observed
            .iter()
            .map(|r| r.hidden_attribute().unwrap())
            .collect();
        let reference = match &solution {
            DynSolution::RsFd(s) => SampledAttributeAttack::evaluate(
                s,
                &observed,
                &labels,
                &model,
                &logistic(),
                &mut fit_rng(12),
            ),
            _ => unreachable!(),
        };
        assert_eq!(got.aif_acc.to_bits(), reference.aif_acc.to_bits());
        assert_eq!(got.n_test, reference.n_test);
        assert_eq!(got.n_train, reference.n_train);
    }

    #[test]
    #[should_panic(expected = "needs a fake-data solution")]
    fn inference_rejects_smp() {
        let ks = [4usize, 3];
        let ds = skewed_dataset(40, &ks, 13);
        let solution = SolutionKind::Smp(ProtocolKind::Grr)
            .build(&ks, 1.0)
            .unwrap();
        let observed = observe(&solution, &ds, 14);
        let view = AdversaryView {
            dataset: &ds,
            solution: &solution,
            observed: &observed,
            numeric_truth: None,
        };
        let attack = AttackKind::SampledAttribute(InferenceConfig {
            model: AttackModel::NoKnowledge { synth_factor: 1.0 },
            classifier: logistic(),
        })
        .build()
        .unwrap();
        Attack::fit(&attack, &view, &mut fit_rng(15));
    }

    #[test]
    fn pie_audit_reports_pass_through_decisions() {
        let ks = [4usize, 3, 5, 2];
        let ds = skewed_dataset(1000, &ks, 16);
        let solution = SolutionKind::Smp(ProtocolKind::Grr)
            .build(&ks, 1.0)
            .unwrap();
        let observed = observe(&solution, &ds, 17);
        let view = AdversaryView {
            dataset: &ds,
            solution: &solution,
            observed: &observed,
            numeric_truth: None,
        };
        let attack = AttackKind::PieAudit { beta: 0.5 }.build().unwrap();
        let outcome = evaluate_serial(Attack::fit(&attack, &view, &mut fit_rng(18)).as_ref(), 18);
        let audit = outcome.pie().expect("pie outcome");
        // β = 0.5, n = 1000 → α ≈ 3.98 → every k ∈ {2,3,4,5} passes through.
        assert_eq!(audit.pass_through_count(), 4);
        assert!(audit.alpha > 3.9 && audit.alpha < 4.0);
    }

    #[test]
    fn averaging_over_one_round_matches_plain_reident() {
        let ks = [6usize, 8, 5, 4];
        let ds = skewed_dataset(200, &ks, 22);
        let solution = SolutionKind::Smp(ProtocolKind::Grr)
            .build(&ks, 8.0)
            .unwrap();
        let observed = observe(&solution, &ds, 23);
        let view = AdversaryView {
            dataset: &ds,
            solution: &solution,
            observed: &observed,
            numeric_truth: None,
        };
        let plain = AttackKind::Reident(ReidentConfig::default())
            .build()
            .unwrap();
        let pooled = AttackKind::Averaging(AveragingConfig {
            rounds: 1,
            reident: ReidentConfig::default(),
        })
        .build()
        .unwrap();
        let a = evaluate_serial(Attack::fit(&plain, &view, &mut fit_rng(24)).as_ref(), 24);
        let b = evaluate_serial(Attack::fit(&pooled, &view, &mut fit_rng(24)).as_ref(), 24);
        let (a, b) = (a.reident().unwrap(), b.reident().unwrap());
        assert_eq!(a.rid_acc, b.rid_acc, "R=1 pooling must be a no-op");
    }

    #[test]
    fn averaging_pools_identical_rounds_into_the_single_round_profile() {
        // A memoized campaign replays round 0 on every round: pooling R
        // identical copies must reproduce the single-round ASR exactly.
        let ks = [6usize, 8, 5, 4];
        let ds = skewed_dataset(200, &ks, 25);
        let solution = SolutionKind::Smp(ProtocolKind::Grr)
            .build(&ks, 8.0)
            .unwrap();
        let one_round = observe(&solution, &ds, 26);
        let replayed: Vec<SolutionReport> = (0..4).flat_map(|_| one_round.clone()).collect();
        let single = AdversaryView {
            dataset: &ds,
            solution: &solution,
            observed: &one_round,
            numeric_truth: None,
        };
        let longitudinal = AdversaryView {
            observed: &replayed,
            ..single
        };
        // GRR's deniability guess is deterministic (the reported value), so
        // identical rounds yield identical per-round profiles even though
        // profiling consumes rng.
        let plain = AttackKind::Reident(ReidentConfig::default())
            .build()
            .unwrap();
        let pooled = AttackKind::Averaging(AveragingConfig {
            rounds: 4,
            reident: ReidentConfig::default(),
        })
        .build()
        .unwrap();
        let a = evaluate_serial(Attack::fit(&plain, &single, &mut fit_rng(27)).as_ref(), 27);
        let b = evaluate_serial(
            Attack::fit(&pooled, &longitudinal, &mut fit_rng(27)).as_ref(),
            27,
        );
        assert_eq!(
            a.reident().unwrap().rid_acc,
            b.reident().unwrap().rid_acc,
            "memoized replay must leave the averaging adversary exactly where one round does"
        );
    }

    #[test]
    #[should_panic(expected = "rounds·n observed messages")]
    fn averaging_rejects_a_short_wire() {
        let ks = [4usize, 3];
        let ds = skewed_dataset(50, &ks, 28);
        let solution = SolutionKind::Smp(ProtocolKind::Grr)
            .build(&ks, 2.0)
            .unwrap();
        let observed = observe(&solution, &ds, 29);
        let view = AdversaryView {
            dataset: &ds,
            solution: &solution,
            observed: &observed,
            numeric_truth: None,
        };
        let pooled = AttackKind::Averaging(AveragingConfig {
            rounds: 3,
            reident: ReidentConfig::default(),
        })
        .build()
        .unwrap();
        Attack::fit(&pooled, &view, &mut fit_rng(30));
    }

    #[test]
    fn attack_kind_build_validates() {
        assert!(AttackKind::Reident(ReidentConfig {
            top_ks: vec![],
            ..ReidentConfig::default()
        })
        .build()
        .is_err());
        assert!(AttackKind::Reident(ReidentConfig {
            top_ks: vec![0],
            ..ReidentConfig::default()
        })
        .build()
        .is_err());
        assert!(AttackKind::Reident(ReidentConfig {
            background: BackgroundKnowledge::Partial(vec![]),
            ..ReidentConfig::default()
        })
        .build()
        .is_err());
        assert!(AttackKind::SampledAttribute(InferenceConfig {
            model: AttackModel::NoKnowledge { synth_factor: 0.0 },
            classifier: logistic(),
        })
        .build()
        .is_err());
        assert!(AttackKind::SampledAttribute(InferenceConfig {
            model: AttackModel::PartialKnowledge {
                compromised_frac: 1.0
            },
            classifier: logistic(),
        })
        .build()
        .is_err());
        // Degenerate configurations that would train on nothing are rejected
        // at build time rather than panicking inside fit.
        assert!(AttackKind::Reident(ReidentConfig {
            synth_factor: 0.0,
            ..ReidentConfig::default()
        })
        .build()
        .is_err());
        assert!(AttackKind::SampledAttribute(InferenceConfig {
            model: AttackModel::PartialKnowledge {
                compromised_frac: 0.0
            },
            classifier: logistic(),
        })
        .build()
        .is_err());
        // Hybrid may round its PK share to zero users; frac = 0 stays legal.
        assert!(AttackKind::SampledAttribute(InferenceConfig {
            model: AttackModel::Hybrid {
                synth_factor: 1.0,
                compromised_frac: 0.0
            },
            classifier: logistic(),
        })
        .build()
        .is_ok());
        // The u64 hit-mask bounds the metric-slot count.
        assert!(AttackKind::Reident(ReidentConfig {
            top_ks: (1..=65).collect(),
            ..ReidentConfig::default()
        })
        .build()
        .is_err());
        assert!(AttackKind::PieAudit { beta: 1.5 }.build().is_err());
        assert!(AttackKind::PieAudit { beta: 0.9 }.build().is_ok());
        // Averaging validates its round count and its inner reident config.
        assert!(AttackKind::Averaging(AveragingConfig {
            rounds: 0,
            reident: ReidentConfig::default(),
        })
        .build()
        .is_err());
        assert!(AttackKind::Averaging(AveragingConfig {
            rounds: 2,
            reident: ReidentConfig {
                top_ks: vec![],
                ..ReidentConfig::default()
            },
        })
        .build()
        .is_err());
    }

    #[test]
    fn display_names_follow_convention() {
        assert_eq!(
            AttackKind::Reident(ReidentConfig::default()).name(),
            "RID(FK-RI)[1,10]"
        );
        assert_eq!(
            AttackKind::SampledAttribute(InferenceConfig {
                model: AttackModel::NoKnowledge { synth_factor: 1.0 },
                classifier: logistic(),
            })
            .name(),
            "AIF[NK]"
        );
        assert_eq!(AttackKind::PieAudit { beta: 0.5 }.name(), "PIE[beta=0.5]");
        assert_eq!(
            AttackKind::Averaging(AveragingConfig {
                rounds: 4,
                reident: ReidentConfig::default(),
            })
            .name(),
            "AVG[R=4](FK-RI)[1,10]"
        );
    }

    #[test]
    fn works_behind_dyn_attack_object() {
        // The whole point of the redesign: a boxed attack behind the
        // object-safe trait, driven with a boxed rng.
        let ks = [4usize, 3];
        let ds = skewed_dataset(60, &ks, 19);
        let solution = SolutionKind::Smp(ProtocolKind::Grr)
            .build(&ks, 2.0)
            .unwrap();
        let observed = observe(&solution, &ds, 20);
        let view = AdversaryView {
            dataset: &ds,
            solution: &solution,
            observed: &observed,
            numeric_truth: None,
        };
        let attack: Box<dyn Attack> = Box::new(
            AttackKind::Reident(ReidentConfig::default())
                .build()
                .unwrap(),
        );
        let mut rng: Box<dyn RngCore> = Box::new(StdRng::seed_from_u64(21));
        let fitted = attack.fit(&view, rng.as_mut());
        assert_eq!(fitted.n_targets(), 60);
        assert_eq!(fitted.n_slots(), 2);
    }
}
