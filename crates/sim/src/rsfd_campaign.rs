//! The Fig. 4 pipeline: re-identification against the RS+FD solution.
//!
//! Unlike SMP, the adversary does not see which attribute was sampled. For
//! every survey it (1) trains the §3.3 NK classifier on the survey's
//! sanitized tuples, (2) predicts each user's sampled attribute, (3) applies
//! the plausible-deniability rule to the predicted attribute's report, and
//! (4) accumulates the (possibly wrong on both counts — the paper's "chained
//! errors") profile entries used for re-identification.

use ldp_core::inference::{AttackClassifier, AttackModel, SampledAttributeAttack};
use ldp_core::profiling::Profile;
use ldp_core::solutions::{RsFd, RsFdProtocol, SolutionReport};
use ldp_datasets::Dataset;
use ldp_protocols::deniability::best_guess_report;
use ldp_protocols::hash::mix3;
use ldp_protocols::ProtocolError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::par::par_users;
use crate::survey::SurveyPlan;

/// Configuration of an RS+FD re-identification campaign.
#[derive(Debug, Clone)]
pub struct RsFdCampaignConfig {
    /// RS+FD variant (the paper evaluates RS+FD\[GRR\] as the middle ground).
    pub protocol: RsFdProtocol,
    /// Per-user budget ε.
    pub epsilon: f64,
    /// NK synthetic-profile factor `s/n` (the paper uses 1).
    pub synth_factor: f64,
    /// Classifier the adversary trains per survey.
    pub classifier: AttackClassifier,
}

/// Runs the campaign; returns `snapshots[sv][uid]` = user profile after
/// survey `sv + 1`, built from classifier-predicted sampled attributes.
/// Deterministic in `seed`, independent of `threads`.
///
/// # Errors
/// Propagates protocol-construction failures (bad ε or domain sizes).
pub fn run_rsfd_campaign(
    dataset: &Dataset,
    plan: &SurveyPlan,
    config: &RsFdCampaignConfig,
    seed: u64,
    threads: usize,
) -> Result<Vec<Vec<Profile>>, ProtocolError> {
    let n = dataset.n();
    let d = dataset.d();
    let mut profiles: Vec<Profile> = vec![Profile::new(); n];
    let mut already: Vec<Vec<bool>> = vec![vec![false; d]; n];
    let mut snapshots = Vec::with_capacity(plan.n_surveys());

    for (sv, attrs) in plan.iter().enumerate() {
        let ks: Vec<usize> = attrs.iter().map(|&a| dataset.schema().k(a)).collect();
        let rsfd = RsFd::new(config.protocol, &ks, config.epsilon)?;

        // Users sample (uniform metric: without replacement on *global*
        // attribute ids) and sanitize, in parallel.
        let sv_seed = mix3(seed, sv as u64, 0xF00D_CAFE);
        let (observed, sampled): (Vec<SolutionReport>, Vec<usize>) =
            par_users(n, threads, sv_seed, 0x000F_DCA3, |uid, rng| {
                let fresh: Vec<usize> = (0..attrs.len())
                    .filter(|&li| !already[uid][attrs[li]])
                    .collect();
                let local = if fresh.is_empty() {
                    rng.random_range(0..attrs.len())
                } else {
                    fresh[rng.random_range(0..fresh.len())]
                };
                let tuple: Vec<u32> = attrs.iter().map(|&a| dataset.value(uid, a)).collect();
                (rsfd.report_with_sampled(&tuple, local, rng), local)
            })
            .into_iter()
            .unzip();
        for (uid, &local) in sampled.iter().enumerate() {
            already[uid][attrs[local]] = true;
        }

        // Adversary: NK classifier over this survey's tuples; it knows no
        // user's sampled attribute.
        let mut attack_rng = StdRng::seed_from_u64(mix3(sv_seed, 0xA7_7A, 1));
        let (attack, _) = SampledAttributeAttack::train(
            &rsfd,
            &observed,
            &[],
            &AttackModel::NoKnowledge {
                synth_factor: config.synth_factor,
            },
            &config.classifier,
            &mut attack_rng,
            threads,
        );
        let predicted = attack.predict(&observed.iter().collect::<Vec<_>>(), threads);

        // Chain: predicted attribute → deniability guess on its report.
        for (uid, (&pred_local, report)) in predicted.iter().zip(&observed).enumerate() {
            let pred_local = pred_local as usize;
            let global = attrs[pred_local];
            let k = ks[pred_local];
            let mut rng = StdRng::seed_from_u64(mix3(sv_seed, uid as u64, 0x617E55));
            let entry = report
                .tuple_entry(pred_local)
                .expect("predicted attribute within the tuple");
            let value = best_guess_report(&entry, k, &mut rng);
            profiles[uid].observe(global, value);
        }
        snapshots.push(profiles.clone());
    }
    Ok(snapshots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AttackPipeline;
    use ldp_core::attacks::{AttackKind, ReidentConfig};
    use ldp_core::reident::ReidentAttack;
    use ldp_datasets::corpora::adult_like;
    use ldp_gbdt::GbdtParams;

    fn fast_config(epsilon: f64) -> RsFdCampaignConfig {
        RsFdCampaignConfig {
            protocol: RsFdProtocol::Grr,
            epsilon,
            synth_factor: 1.0,
            classifier: AttackClassifier::Gbdt(GbdtParams {
                rounds: 8,
                max_depth: 4,
                ..GbdtParams::default()
            }),
        }
    }

    #[test]
    fn produces_growing_profiles() {
        let ds = adult_like(300, 5);
        let mut rng = StdRng::seed_from_u64(1);
        let plan = SurveyPlan::generate(ds.d(), 3, &mut rng);
        let snaps = run_rsfd_campaign(&ds, &plan, &fast_config(4.0), 7, 2).unwrap();
        assert_eq!(snaps.len(), 3);
        for users in &snaps {
            assert_eq!(users.len(), 300);
        }
        // Profiles grow by at most one attribute per survey.
        for (first, third) in snaps[0].iter().zip(&snaps[2]) {
            assert!(first.len() <= 1);
            assert!(third.len() <= 3);
            assert!(third.len() >= first.len());
        }
    }

    #[test]
    fn rsfd_reident_is_much_weaker_than_perfect_profiles() {
        // Sanity proxy for Fig. 4: even at high ε, classifier + deniability
        // chaining keeps RID-ACC far from the perfect-profile ceiling.
        let ds = adult_like(400, 6);
        let all: Vec<usize> = (0..ds.d()).collect();
        let attack = ReidentAttack::build(&ds, &all);
        let mut rng = StdRng::seed_from_u64(2);
        let plan = SurveyPlan::generate(ds.d(), 3, &mut rng);
        let snaps = run_rsfd_campaign(&ds, &plan, &fast_config(8.0), 11, 2).unwrap();
        let acc = AttackPipeline::from_kind(AttackKind::Reident(ReidentConfig {
            top_ks: vec![10],
            ..ReidentConfig::default()
        }))
        .unwrap()
        .seed(3)
        .threads(2)
        .rid_acc(&attack, &snaps[2])[0];
        // Perfect 3-attribute profiles would re-identify a large share of a
        // 400-user population; the chained attack must stay well below.
        assert!(acc < 60.0, "RID-ACC suspiciously high: {acc}");
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let ds = adult_like(120, 8);
        let mut rng = StdRng::seed_from_u64(3);
        let plan = SurveyPlan::generate(ds.d(), 2, &mut rng);
        let a = run_rsfd_campaign(&ds, &plan, &fast_config(2.0), 5, 1).unwrap();
        let b = run_rsfd_campaign(&ds, &plan, &fast_config(2.0), 5, 3).unwrap();
        for (ua, ub) in a[1].iter().zip(&b[1]) {
            assert_eq!(ua.entries(), ub.entries());
        }
    }
}
