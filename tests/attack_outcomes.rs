//! Pinned outcomes: every attack family, run through `AttackPipeline` on a
//! small seeded population at 1 and 3 threads, must reproduce the exact f64
//! bits and counts recorded below. The golden figure gate covers the attacks
//! only through the figures it hashes; this pins each family directly,
//! including the PIE audit and the kinds no golden figure runs.
//!
//! A mismatch is a behaviour change of the adversary (an rng stream, a draw
//! order or an evaluation rule moved), never a reason to re-record.

use ldp_core::attacks::{
    AttackKind, AttackOutcome, AveragingConfig, BackgroundKnowledge, InferenceConfig,
    NumericConfig, ReidentConfig,
};
use ldp_core::inference::{AttackClassifier, AttackModel};
use ldp_core::solutions::{MixedKind, RsFdProtocol, RsRfdProtocol, SolutionKind};
use ldp_core::NumericKind;
use ldp_datasets::corpora::adult_like;
use ldp_datasets::mixed::mixed_survey_like;
use ldp_gbdt::{GbdtParams, LogisticParams};
use ldp_protocols::ProtocolKind;
use ldp_sim::{AttackPipeline, BudgetPolicy, CollectionPipeline, Population};

const SEED: u64 = 29;
const THREADS: [usize; 2] = [1, 3];

fn small_gbdt() -> AttackClassifier {
    AttackClassifier::Gbdt(GbdtParams {
        rounds: 3,
        max_depth: 3,
        ..GbdtParams::default()
    })
}

fn logistic() -> AttackClassifier {
    AttackClassifier::Logistic(LogisticParams::default())
}

/// One outcome as text: every f64 as its bit pattern, every count as is.
fn fingerprint(outcome: &AttackOutcome) -> String {
    let bits = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{:016x}", x.to_bits()))
            .collect::<Vec<_>>()
            .join(",")
    };
    match outcome {
        AttackOutcome::Reident(o) => format!(
            "rid ks={:?} acc=[{}] base=[{}] n={}",
            o.top_ks,
            bits(&o.rid_acc),
            bits(&o.baseline),
            o.n_targets
        ),
        AttackOutcome::Inference(o) => format!(
            "aif acc={} base={} train={} test={}",
            bits(&[o.aif_acc]),
            bits(&[o.baseline]),
            o.n_train,
            o.n_test
        ),
        AttackOutcome::Pie(o) => {
            let decisions: Vec<f64> = o
                .decisions
                .iter()
                .map(|d| match d {
                    ldp_core::pie::PieDecision::PassThrough => -1.0,
                    ldp_core::pie::PieDecision::Randomize { epsilon } => *epsilon,
                })
                .collect();
            format!(
                "pie beta={} alpha={} decisions=[{}]",
                bits(&[o.beta]),
                bits(&[o.alpha]),
                bits(&decisions)
            )
        }
        AttackOutcome::Numeric(o) => format!(
            "num acc={} base={} buckets={} n={} observed={}",
            bits(&[o.acc]),
            bits(&[o.baseline]),
            o.buckets,
            o.n_targets,
            o.n_observed
        ),
    }
}

/// Runs `attack` against `solution` over `population` for `rounds` rounds
/// under `policy`, at every thread count of [`THREADS`]; returns the
/// fingerprint, asserting it does not move with the thread count.
fn run(
    solution: SolutionKind,
    eps: f64,
    attack: AttackKind,
    population: &impl Population,
    rounds: usize,
    policy: BudgetPolicy,
) -> String {
    let ks = match population.numeric_truth() {
        Some(mixed) => mixed.ks(),
        None => population.categorical().schema().cardinalities(),
    };
    let prints: Vec<String> = THREADS
        .iter()
        .map(|&threads| {
            let collection = CollectionPipeline::from_kind(solution, &ks, eps)
                .unwrap()
                .seed(SEED)
                .threads(threads);
            let run = AttackPipeline::from_kind(attack.clone())
                .unwrap()
                .seed(SEED)
                .threads(threads)
                .run_rounds(&collection, population, rounds, policy)
                .unwrap();
            fingerprint(&run.outcome)
        })
        .collect();
    assert!(
        prints.iter().all(|p| *p == prints[0]),
        "{attack} against {solution} moved with the thread count: {prints:?}"
    );
    prints[0].clone()
}

/// Every case's label and fingerprint, in table order.
fn cases() -> Vec<(String, String)> {
    let adult = adult_like(300, SEED);
    let mixed = mixed_survey_like(400, SEED);
    let smp = SolutionKind::Smp(ProtocolKind::Grr);
    let rsfd = SolutionKind::RsFd(RsFdProtocol::Grr);
    let rsrfd = SolutionKind::RsRfd(RsRfdProtocol::Grr);
    let split = BudgetPolicy::SplitEps;
    let fk = ReidentConfig::default();
    let pk = ReidentConfig {
        background: BackgroundKnowledge::Partial(vec![0, 2, 5]),
        ..ReidentConfig::default()
    };
    let chained = ReidentConfig {
        classifier: small_gbdt(),
        ..ReidentConfig::default()
    };
    let mut out = Vec::new();
    let mut case = |label: &str, print: String| out.push((label.to_string(), print));

    case(
        "reident FK smp",
        run(smp, 6.0, AttackKind::Reident(fk.clone()), &adult, 1, split),
    );
    case(
        "reident PK smp",
        run(smp, 6.0, AttackKind::Reident(pk), &adult, 1, split),
    );
    case(
        "reident chained rsfd",
        run(rsfd, 4.0, AttackKind::Reident(chained), &adult, 1, split),
    );
    let models = [
        ("NK", AttackModel::NoKnowledge { synth_factor: 1.0 }),
        (
            "PK",
            AttackModel::PartialKnowledge {
                compromised_frac: 0.3,
            },
        ),
        (
            "HM",
            AttackModel::Hybrid {
                synth_factor: 1.0,
                compromised_frac: 0.3,
            },
        ),
    ];
    for (solution, name) in [(rsfd, "rsfd"), (rsrfd, "rsrfd")] {
        for (model_name, model) in &models {
            // The GBDT family on one model per solution, so the thread
            // budget's classifier path is pinned too.
            let classifier = if *model_name == "NK" {
                small_gbdt()
            } else {
                logistic()
            };
            let attack = AttackKind::SampledAttribute(InferenceConfig {
                model: *model,
                classifier,
            });
            case(
                &format!("aif {model_name} {name}"),
                run(solution, 4.0, attack, &adult, 1, split),
            );
        }
    }
    case(
        "pie smp",
        run(
            smp,
            1.0,
            AttackKind::PieAudit { beta: 0.6 },
            &adult,
            1,
            split,
        ),
    );
    let mixed_kind = SolutionKind::Mixed(MixedKind {
        protocol: ProtocolKind::Grr,
        numeric: NumericKind::Piecewise,
        sample_k: 2,
    });
    case(
        "numeric mixed",
        run(
            mixed_kind,
            4.0,
            AttackKind::NumericValueRange(NumericConfig { dim: 4, buckets: 4 }),
            &mixed,
            1,
            split,
        ),
    );
    for policy in BudgetPolicy::ALL {
        let attack = AttackKind::Averaging(AveragingConfig {
            rounds: 3,
            reident: fk.clone(),
        });
        case(
            &format!("averaging {}", policy.id()),
            run(smp, 6.0, attack, &adult, 3, policy),
        );
    }
    out
}

/// Recorded before the attack layer was collapsed into one `DynAttack`
/// value; PIE decisions print `PassThrough` as the bits of -1.0.
const PINNED: &[(&str, &str)] = &[
    ("reident FK smp", "rid ks=[1, 10] acc=[4011555555555555,4038555555555555] base=[3fd5555555555555,400aaaaaaaaaaaab] n=300"),
    ("reident PK smp", "rid ks=[1, 10] acc=[4002aaaaaaaaaaab,402c000000000000] base=[3fd5555555555555,400aaaaaaaaaaaab] n=300"),
    ("reident chained rsfd", "rid ks=[1, 10] acc=[4000000000000000,401c000000000000] base=[3fd5555555555555,400aaaaaaaaaaaab] n=300"),
    ("aif NK rsfd", "aif acc=4033555555555555 base=4024000000000000 train=300 test=300"),
    ("aif PK rsfd", "aif acc=4026db6db6db6db7 base=4024000000000000 train=90 test=210"),
    ("aif HM rsfd", "aif acc=4024000000000000 base=4024000000000000 train=390 test=210"),
    ("aif NK rsrfd", "aif acc=4030000000000000 base=4024000000000000 train=300 test=300"),
    ("aif PK rsrfd", "aif acc=402d861861861862 base=4024000000000000 train=90 test=210"),
    ("aif HM rsrfd", "aif acc=4033861861861862 base=4024000000000000 train=390 test=210"),
    ("pie smp", "pie beta=3fe3333333333333 alpha=4002550c5b81423d decisions=[3ff969f244509f96,3ff969f244509f96,3ff969f244509f96,3ff969f244509f96,3ff969f244509f96,3ff969f244509f96,3ff969f244509f96,bff0000000000000,3ff969f244509f96,bff0000000000000]"),
    ("numeric mixed", "num acc=404e400000000000 base=404c600000000000 buckets=4 n=400 observed=142"),
    ("averaging split", "rid ks=[1, 10] acc=[4019555555555555,4037000000000000] base=[3fd5555555555555,400aaaaaaaaaaaab] n=300"),
    ("averaging memoize", "rid ks=[1, 10] acc=[4011555555555555,4038555555555555] base=[3fd5555555555555,400aaaaaaaaaaaab] n=300"),
];

#[test]
fn every_attack_family_reproduces_its_pinned_outcome() {
    let got = cases();
    let mismatches: Vec<String> = got
        .iter()
        .filter(|(label, print)| {
            PINNED
                .iter()
                .find(|(l, _)| l == label)
                .is_none_or(|(_, want)| want != print)
        })
        .map(|(label, print)| format!("    ({label:?}, {print:?}),"))
        .collect();
    assert_eq!(
        got.len(),
        PINNED.len(),
        "case table changed:\n{}",
        mismatches.join("\n")
    );
    assert!(
        mismatches.is_empty(),
        "outcomes differ from the pinned ones:\n{}",
        mismatches.join("\n")
    );
}
