//! Property tests: the sharded `AttackPipeline` produces **bit-identical**
//! RID-ACC and ASR to the serial `evaluate_serial` reference, for every
//! `SolutionKind` variant and thread count — the adversary counterpart of
//! `streaming_equivalence.rs` — and the attacks read nothing a collector
//! could not log: their outcomes do not move when the tuple headers lose
//! the hidden sampled attribute.

use ldp_core::attacks::{
    evaluate_serial, fit_rng, AdversaryView, Attack, AttackKind, AttackOutcome, AveragingConfig,
    InferenceConfig, ReidentConfig,
};
use ldp_core::inference::{AttackClassifier, AttackModel, SampledAttributeAttack};
use ldp_core::solutions::{
    CompactBatch, DynSolution, RsFdProtocol, RsRfdProtocol, SolutionKind, SolutionReport,
};
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

/// `rounds` rounds of `solution` over `ds`, round-major, as a collector logs
/// them: each report pushed with `CompactBatch::push` (its header keeps the
/// hidden sampled attribute) or with `push_wire` (those bits zeroed), then
/// read back through `CompactBatch::iter`.
fn logged_rounds(
    solution: &DynSolution,
    ds: &Dataset,
    rounds: u64,
    seed: u64,
    wire: bool,
) -> Vec<SolutionReport> {
    let mut batch = CompactBatch::new();
    for round in 0..rounds {
        let mut rng = StdRng::seed_from_u64(seed ^ round);
        for uid in 0..ds.n() {
            let report = solution.report(ds.row(uid), &mut rng);
            if wire {
                batch.push_wire(uid as u64, &report);
            } else {
                batch.push(uid as u64, &report);
            }
        }
    }
    batch.iter().map(|(_, report)| report).collect()
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The attacks are blind to the header's hidden attribute: on every
    /// RS+FD and RS+RFD variant, a round logged with `push` and the same
    /// round logged with `push_wire` give bit-identical re-identification
    /// and two-round averaging outcomes, and bit-identical
    /// `SampledAttributeAttack::evaluate` outcomes under every attacker
    /// model when both get the same explicit labels.
    #[test]
    fn attacks_are_blind_to_the_hidden_attribute_bits(
        seed in any::<u64>(),
        eps in 1.0f64..8.0,
    ) {
        let ks = [5usize, 4, 6];
        let ds = dataset(120, &ks, seed);
        let n = ds.n();
        let kinds = RsFdProtocol::ALL
            .map(SolutionKind::RsFd)
            .into_iter()
            .chain(RsRfdProtocol::ALL.map(SolutionKind::RsRfd));
        for kind in kinds {
            let solution = kind.build(&ks, eps).unwrap();
            let kept = logged_rounds(&solution, &ds, 2, seed, false);
            let wire = logged_rounds(&solution, &ds, 2, seed, true);
            let labels: Vec<usize> = kept[..n]
                .iter()
                .map(|r| r.hidden_attribute().unwrap())
                .collect();
            prop_assert!(labels.iter().any(|&b| b != 0), "{}: nothing hidden", kind);
            prop_assert!(wire.iter().all(|r| r.hidden_attribute() == Some(0)));

            let reident = ReidentConfig {
                classifier: logistic(),
                ..ReidentConfig::default()
            };
            let attacks = [
                (AttackKind::Reident(reident.clone()), n),
                (AttackKind::Averaging(AveragingConfig { rounds: 2, reident }), 2 * n),
            ];
            for (attack, len) in attacks {
                let attack = attack.build().unwrap();
                let outcome = |observed: &[SolutionReport]| {
                    let view = AdversaryView {
                        dataset: &ds,
                        solution: &solution,
                        observed,
                        numeric_truth: None,
                    };
                    evaluate_serial(attack.fit(&view, &mut fit_rng(seed)).as_ref(), seed)
                };
                assert_outcomes_bit_identical(
                    &outcome(&kept[..len]),
                    &outcome(&wire[..len]),
                    &format!("{kind} {}", attack.name()),
                );
            }

            let models = [
                AttackModel::NoKnowledge { synth_factor: 1.0 },
                AttackModel::PartialKnowledge { compromised_frac: 0.3 },
                AttackModel::Hybrid { synth_factor: 1.0, compromised_frac: 0.3 },
            ];
            for model in models {
                let evaluate = |observed: &[SolutionReport]| {
                    let mut rng = fit_rng(seed);
                    match &solution {
                        DynSolution::RsFd(s) | DynSolution::RsRfd(s) => SampledAttributeAttack::evaluate(
                            s, observed, &labels, &model, &logistic(), &mut rng,
                        ),
                        _ => unreachable!("fake-data kinds only"),
                    }
                };
                let (a, b) = (evaluate(&kept[..n]), evaluate(&wire[..n]));
                let label = format!("{kind} AIF[{}]", model.name());
                prop_assert_eq!(a.aif_acc.to_bits(), b.aif_acc.to_bits(), "{}", label);
                prop_assert_eq!((a.n_train, a.n_test), (b.n_train, b.n_test), "{}", label);
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
