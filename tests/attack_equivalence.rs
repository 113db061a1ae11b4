//! Property tests: the sharded `AttackPipeline` produces **bit-identical**
//! RID-ACC and ASR to the serial `evaluate_serial` reference, for every
//! `SolutionKind` variant and thread count — the adversary counterpart of
//! `streaming_equivalence.rs`.

use ldp_core::attacks::{
    evaluate_serial, AttackKind, AttackOutcome, InferenceConfig, ReidentConfig,
};
use ldp_core::inference::{AttackClassifier, AttackModel};
use ldp_core::solutions::{RsFdProtocol, RsRfdProtocol, SolutionKind};
use ldp_datasets::{Dataset, Schema};
use ldp_gbdt::{GbdtParams, LogisticParams};
use ldp_protocols::ProtocolKind;
use ldp_sim::{AttackPipeline, CollectionPipeline};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn all_kinds() -> Vec<SolutionKind> {
    vec![
        SolutionKind::Spl(ProtocolKind::Grr),
        SolutionKind::Spl(ProtocolKind::Olh),
        SolutionKind::Smp(ProtocolKind::Grr),
        SolutionKind::Smp(ProtocolKind::Oue),
        SolutionKind::RsFd(RsFdProtocol::Grr),
        SolutionKind::RsRfd(RsRfdProtocol::Grr),
    ]
}

/// A small skewed population over the given domain sizes.
fn dataset(n: usize, ks: &[usize], seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<u32> = (0..n)
        .flat_map(|_| {
            ks.iter()
                .map(|&k| {
                    if rng.random::<f64>() < 0.5 {
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

/// Cheap classifier so the fake-data chained attacks stay fast under
/// proptest.
fn logistic() -> AttackClassifier {
    AttackClassifier::Logistic(LogisticParams::default())
}

fn assert_outcomes_bit_identical(a: &AttackOutcome, b: &AttackOutcome, label: &str) {
    match (a, b) {
        (AttackOutcome::Reident(x), AttackOutcome::Reident(y)) => {
            assert_eq!(x.n_targets, y.n_targets, "{label}: target count");
            assert_eq!(x.top_ks, y.top_ks, "{label}: top-ks");
            for (p, q) in x.rid_acc.iter().zip(&y.rid_acc) {
                assert_eq!(p.to_bits(), q.to_bits(), "{label}: RID-ACC {p} vs {q}");
            }
        }
        (AttackOutcome::Inference(x), AttackOutcome::Inference(y)) => {
            assert_eq!(
                x.aif_acc.to_bits(),
                y.aif_acc.to_bits(),
                "{label}: ASR {} vs {}",
                x.aif_acc,
                y.aif_acc
            );
            assert_eq!(x.n_test, y.n_test, "{label}: test count");
        }
        (AttackOutcome::Pie(x), AttackOutcome::Pie(y)) => {
            assert_eq!(x, y, "{label}: PIE audit");
        }
        _ => panic!("{label}: outcome families diverged"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Re-identification through the pipeline: the sharded run equals the
    /// serial reference bit-for-bit on every solution kind and thread count.
    #[test]
    fn sharded_reident_equals_serial_for_all_kinds(
        seed in any::<u64>(),
        eps in 1.0f64..8.0,
    ) {
        let ks = [5usize, 4, 6, 3];
        let ds = dataset(150, &ks, seed);
        for kind in all_kinds() {
            let collection = CollectionPipeline::from_kind(kind, &ks, eps)
                .unwrap()
                .seed(seed)
                .threads(4);
            let attack = AttackKind::Reident(ReidentConfig {
                classifier: logistic(),
                ..ReidentConfig::default()
            });
            let reference = AttackPipeline::from_kind(attack.clone())
                .unwrap()
                .seed(seed)
                .threads(1)
                .run(&collection, &ds);
            let serial = evaluate_serial(reference.fitted.as_ref(), seed);
            assert_outcomes_bit_identical(
                &reference.outcome,
                &serial,
                &format!("{kind} (pipeline t=1 vs serial)"),
            );
            for threads in THREAD_COUNTS {
                let sharded = AttackPipeline::from_kind(attack.clone())
                    .unwrap()
                    .seed(seed)
                    .threads(threads)
                    .run(&collection, &ds);
                assert_outcomes_bit_identical(
                    &serial,
                    &sharded.outcome,
                    &format!("{kind} (t={threads})"),
                );
            }
        }
    }

    /// Sampled-attribute inference ASR: sharded equals serial bit-for-bit on
    /// both fake-data solutions for every thread count.
    #[test]
    fn sharded_asr_equals_serial_for_fake_data_kinds(
        seed in any::<u64>(),
        eps in 1.0f64..8.0,
    ) {
        let ks = [5usize, 4, 6];
        let ds = dataset(200, &ks, seed);
        for kind in [
            SolutionKind::RsFd(RsFdProtocol::Grr),
            SolutionKind::RsRfd(RsRfdProtocol::Grr),
        ] {
            let collection = CollectionPipeline::from_kind(kind, &ks, eps)
                .unwrap()
                .seed(seed)
                .threads(4);
            let attack = AttackKind::SampledAttribute(InferenceConfig {
                model: AttackModel::NoKnowledge { synth_factor: 1.0 },
                classifier: logistic(),
            });
            let reference = AttackPipeline::from_kind(attack.clone())
                .unwrap()
                .seed(seed)
                .threads(1)
                .run(&collection, &ds);
            let serial = evaluate_serial(reference.fitted.as_ref(), seed);
            assert_outcomes_bit_identical(
                &reference.outcome,
                &serial,
                &format!("{kind} (pipeline t=1 vs serial)"),
            );
            for threads in THREAD_COUNTS {
                let sharded = AttackPipeline::from_kind(attack.clone())
                    .unwrap()
                    .seed(seed)
                    .threads(threads)
                    .run(&collection, &ds);
                assert_outcomes_bit_identical(
                    &serial,
                    &sharded.outcome,
                    &format!("{kind} (t={threads})"),
                );
            }
        }
    }
}

/// A small GBDT, the chained attack's default classifier family: the thread
/// budget reaches its fit and prediction, so the outcome must not move with
/// it.
fn small_gbdt() -> AttackClassifier {
    AttackClassifier::Gbdt(GbdtParams {
        rounds: 3,
        max_depth: 3,
        ..GbdtParams::default()
    })
}

/// The GBDT-classified attacks (the Fig. 4 chained re-identification
/// against RS+FD[GRR] and sampled-attribute inference against
/// RS+RFD[GRR]) give bit-identical outcomes for every thread budget, equal
/// to the serial evaluation of the one-thread fit.
#[test]
fn gbdt_attacks_are_thread_count_invariant() {
    let ks = [5usize, 4, 6, 3];
    let ds = dataset(300, &ks, 17);
    let cases = [
        (
            SolutionKind::RsFd(RsFdProtocol::Grr),
            AttackKind::Reident(ReidentConfig {
                classifier: small_gbdt(),
                ..ReidentConfig::default()
            }),
        ),
        (
            SolutionKind::RsRfd(RsRfdProtocol::Grr),
            AttackKind::SampledAttribute(InferenceConfig {
                model: AttackModel::NoKnowledge { synth_factor: 1.0 },
                classifier: small_gbdt(),
            }),
        ),
    ];
    for (kind, attack) in cases {
        let collection = CollectionPipeline::from_kind(kind, &ks, 3.0)
            .unwrap()
            .seed(17)
            .threads(2);
        let reference = AttackPipeline::from_kind(attack.clone())
            .unwrap()
            .seed(17)
            .threads(1)
            .run(&collection, &ds);
        let serial = evaluate_serial(reference.fitted.as_ref(), 17);
        for threads in THREAD_COUNTS {
            let run = AttackPipeline::from_kind(attack.clone())
                .unwrap()
                .seed(17)
                .threads(threads)
                .run(&collection, &ds);
            let label = format!("{kind} {} (t={threads})", attack.name());
            assert_outcomes_bit_identical(&serial, &run.outcome, &label);
        }
    }
}

#[test]
fn pie_audit_is_thread_count_invariant() {
    let ks = [4usize, 3, 5, 2];
    let ds = dataset(900, &ks, 31);
    let collection = CollectionPipeline::from_kind(SolutionKind::Smp(ProtocolKind::Grr), &ks, 1.0)
        .unwrap()
        .seed(31);
    let outcomes: Vec<AttackOutcome> = THREAD_COUNTS
        .iter()
        .map(|&threads| {
            AttackPipeline::from_kind(AttackKind::PieAudit { beta: 0.6 })
                .unwrap()
                .seed(31)
                .threads(threads)
                .run(&collection, &ds)
                .outcome
        })
        .collect();
    for o in &outcomes[1..] {
        assert_outcomes_bit_identical(&outcomes[0], o, "PIE audit");
    }
}
