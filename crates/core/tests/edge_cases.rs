//! Edge-case coverage of the core solutions and attacks: degenerate inputs,
//! missing groups, extreme parameters.

use ldp_core::inference::{encode_features, AttackClassifier, AttackModel, SampledAttributeAttack};
use ldp_core::pie;
use ldp_core::profiling::Profile;
use ldp_core::reident::{MatchScratch, ReidentAttack};
use ldp_core::solutions::{RsFd, RsFdProtocol, Smp};
use ldp_datasets::{Dataset, Schema};
use ldp_gbdt::GbdtParams;
use ldp_protocols::{ProtocolKind, Report};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn smp_estimate_with_unsampled_attribute_is_zero() {
    // If no user ever samples attribute 1, its estimate must be all-zero
    // (n_j = 0), not NaN.
    let smp = Smp::new(ProtocolKind::Grr, &[3, 4], 1.0).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let mut agg = smp.aggregator();
    for _ in 0..100 {
        agg.absorb_smp(&smp.report_attr(&[1, 2], 0, &mut rng));
    }
    let est = agg.estimate();
    assert!(est[0].iter().all(|f| f.is_finite()));
    assert_eq!(
        est[1],
        vec![0.0; 4],
        "unsampled attribute must estimate zero"
    );
}

#[test]
fn rsfd_estimate_of_empty_report_set_is_zero() {
    let rsfd = RsFd::new(RsFdProtocol::Grr, &[3, 4], 1.0).unwrap();
    let est = rsfd.aggregator().estimate();
    assert_eq!(est.len(), 2);
    assert!(est.iter().flatten().all(|&f| f == 0.0));
}

#[test]
fn encode_features_on_empty_slice_yields_empty_matrix() {
    let x = encode_features(&[], &[3, 4], false);
    assert_eq!(x.n_rows(), 0);
}

#[test]
fn inference_attack_with_minimum_population() {
    // Two users, two attributes: the pipeline must not panic and must emit
    // valid percentages.
    let rsfd = RsFd::new(RsFdProtocol::Grr, &[3, 3], 2.0).unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    let (observed, labels) = rsfd.report_round([[1, 2].as_slice(); 2], &mut rng);
    let out = SampledAttributeAttack::evaluate(
        &rsfd,
        &observed,
        &labels,
        &AttackModel::NoKnowledge { synth_factor: 1.0 },
        &AttackClassifier::Gbdt(GbdtParams {
            rounds: 2,
            ..GbdtParams::default()
        }),
        &mut rng,
    );
    assert!((0.0..=100.0).contains(&out.aif_acc));
    assert_eq!(out.n_test, 2);
}

#[test]
fn reident_with_single_record_population() {
    let schema = Schema::from_cardinalities(&[2, 2]);
    let ds = Dataset::new(schema, vec![1, 0]);
    let attack = ReidentAttack::build(&ds, &[0, 1]);
    let mut rng = StdRng::seed_from_u64(3);
    let mut scratch = MatchScratch::default();
    let mut p = Profile::new();
    p.observe(0, 1);
    // The only record always wins at top-1 whatever the profile says.
    assert!(attack.hit_in_top_k(&p, 0, 1, &mut scratch, &mut rng));
    let mut wrong = Profile::new();
    wrong.observe(0, 0);
    assert!(attack.hit_in_top_k(&wrong, 0, 1, &mut scratch, &mut rng));
}

#[test]
fn reident_top_k_larger_than_population_always_hits() {
    let schema = Schema::from_cardinalities(&[2]);
    let ds = Dataset::new(schema, vec![0, 1, 0]);
    let attack = ReidentAttack::build(&ds, &[0]);
    let mut rng = StdRng::seed_from_u64(4);
    let mut scratch = MatchScratch::default();
    let mut p = Profile::new();
    p.observe(0, 1);
    for id in 0..3 {
        assert!(attack.hit_in_top_k(&p, id, 10, &mut scratch, &mut rng));
    }
}

#[test]
fn pie_extreme_betas() {
    // β = 1: α = 0 → everything randomizes with the floor budget.
    assert!(matches!(
        pie::decide(1.0, 10_000, 2),
        pie::PieDecision::Randomize { epsilon } if epsilon > 0.0
    ));
    // β = 0: α = log2(n) − 1, huge → everything small passes through.
    assert!(matches!(
        pie::decide(0.0, 10_000, 64),
        pie::PieDecision::PassThrough
    ));
}

#[test]
fn multidim_report_shapes_are_stable_for_every_variant() {
    let ks = [4usize, 2, 5];
    let mut rng = StdRng::seed_from_u64(5);
    for protocol in RsFdProtocol::ALL {
        let rsfd = RsFd::new(protocol, &ks, 1.0).unwrap();
        let values = rsfd
            .report_encoded(&[3, 1, 0], &mut rng)
            .to_tuple()
            .unwrap();
        for (j, rep) in values.iter().enumerate() {
            match (rsfd.is_unary(), rep) {
                (true, Report::Bits(b)) => assert_eq!(b.len(), ks[j]),
                (false, Report::Value(v)) => assert!((*v as usize) < ks[j]),
                other => panic!("{}: unexpected shape {other:?}", protocol.name()),
            }
        }
    }
}

#[test]
fn profile_entries_cap_at_d_under_repeated_observation() {
    let mut p = Profile::new();
    for round in 0..50usize {
        p.observe(round % 4, round as u32);
    }
    assert_eq!(p.len(), 4);
}
