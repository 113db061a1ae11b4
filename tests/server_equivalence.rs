//! Determinism properties of the streamed ingestion path: the `ldp_server`
//! drain snapshot is **bit-identical** to the batch
//! `CollectionPipeline::run` at equal seed, for every constructible
//! `SolutionKind` family × thread count {1, 2, 8} × traffic shape — and a
//! mid-stream snapshot equals a batch run over exactly the prefix of users
//! absorbed so far.

use ldp_core::solutions::{RsFdProtocol, RsRfdProtocol, SolutionKind};
use ldp_datasets::corpora::adult_like;
use ldp_datasets::Dataset;
use ldp_protocols::hash::mix3;
use ldp_protocols::ProtocolKind;
use ldp_server::{Envelope, LdpServer, ServerConfig, ServerSnapshot};
use ldp_sim::traffic::{TrafficGenerator, TrafficShape};
use ldp_sim::{user_rng, BudgetPolicy, CollectionPipeline};

fn all_kinds() -> Vec<SolutionKind> {
    vec![
        SolutionKind::Spl(ProtocolKind::Grr),
        SolutionKind::Spl(ProtocolKind::Olh),
        SolutionKind::Smp(ProtocolKind::Oue),
        SolutionKind::Smp(ProtocolKind::Ss),
        SolutionKind::RsFd(RsFdProtocol::Grr),
        SolutionKind::RsFd(RsFdProtocol::UeZ(ldp_protocols::UeMode::Optimized)),
        SolutionKind::RsRfd(RsRfdProtocol::Grr),
    ]
}

fn assert_runs_bit_identical(a: &ServerSnapshot, b: &ServerSnapshot, label: &str) {
    assert_eq!(a.n, b.n, "{label}: n");
    assert_eq!(
        a.aggregator.counts(),
        b.aggregator.counts(),
        "{label}: support counts"
    );
    for (x, y) in a
        .estimates
        .iter()
        .flatten()
        .zip(b.estimates.iter().flatten())
    {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: estimates");
    }
    for (x, y) in a
        .normalized
        .iter()
        .flatten()
        .zip(b.normalized.iter().flatten())
    {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: normalized");
    }
}

#[test]
fn drain_is_bit_identical_to_batch_for_kinds_threads_and_shapes() {
    let ds = adult_like(600, 3);
    let ks = ds.schema().cardinalities();
    for kind in all_kinds() {
        // The reference: a single-threaded batch pass.
        let reference = CollectionPipeline::from_kind(kind, &ks, 2.0)
            .unwrap()
            .seed(17)
            .threads(1)
            .run(&ds);
        for threads in [1usize, 2, 8] {
            let pipeline = CollectionPipeline::from_kind(kind, &ks, 2.0)
                .unwrap()
                .seed(17)
                .threads(threads);
            for shape in TrafficShape::ALL {
                let traffic = TrafficGenerator::new(shape, ds.n()).seed(17).wave(61);
                let served = pipeline
                    .serve_rounds(&ds, &traffic, 1, BudgetPolicy::SplitEps, 1)
                    .unwrap()
                    .cumulative;
                assert_runs_bit_identical(
                    &served,
                    &reference,
                    &format!("{kind} t={threads} {shape}"),
                );
            }
        }
    }
}

#[test]
fn mid_stream_snapshot_equals_batch_over_the_absorbed_prefix() {
    let ds = adult_like(500, 9);
    let ks = ds.schema().cardinalities();
    for kind in [
        SolutionKind::Spl(ProtocolKind::Grr),
        SolutionKind::Smp(ProtocolKind::Oue),
        SolutionKind::RsFd(RsFdProtocol::Grr),
    ] {
        let solution = kind.build(&ks, 1.5).unwrap();
        let server = LdpServer::spawn(solution.clone(), ServerConfig::default().shards(3));
        // Any uid-ordered shape works; burst exercises uneven waves.
        let traffic = TrafficGenerator::new(TrafficShape::Burst, ds.n())
            .seed(23)
            .wave(37);
        assert!(traffic.uid_ordered());
        let mut absorbed = 0usize;
        for (i, wave) in traffic.waves().enumerate() {
            absorbed += wave.len();
            server.ingest_batch(wave.into_iter().map(|uid| Envelope {
                uid,
                report: solution.report(ds.row(uid as usize), &mut user_rng(23, uid)),
            }));
            // Snapshot after every third wave: it covers exactly the
            // ingested prefix, so compare against a batch pipeline run over
            // the same prefix of users.
            if i % 3 == 2 {
                let snapshot = server.snapshot();
                assert_eq!(snapshot.n, absorbed as u64, "{kind}: wave {i}");
                let prefix = Dataset::new(
                    ds.schema().clone(),
                    (0..absorbed).flat_map(|u| ds.row(u).to_vec()).collect(),
                );
                let batch = CollectionPipeline::new(solution.clone())
                    .seed(23)
                    .threads(2)
                    .run(&prefix);
                assert_eq!(
                    snapshot.aggregator.counts(),
                    batch.aggregator.counts(),
                    "{kind}: mid-stream snapshot after {absorbed} users"
                );
                for (x, y) in snapshot
                    .estimates
                    .iter()
                    .flatten()
                    .zip(batch.estimates.iter().flatten())
                {
                    assert_eq!(x.to_bits(), y.to_bits(), "{kind}: prefix estimates");
                }
            }
        }
        let final_snapshot = server.drain();
        assert_eq!(final_snapshot.n, ds.n() as u64);
    }
}

#[test]
fn per_epoch_windowed_drains_match_batch_runs_over_each_window() {
    // The longitudinal serving path closes one epoch per round; every
    // retained window must be bit-identical to a batch sanitization pass
    // over that round's users, under both budget policies, and the
    // cumulative drain must hold all rounds.
    let ds = adult_like(400, 21);
    let ks = ds.schema().cardinalities();
    let rounds = 3usize;
    for kind in [
        SolutionKind::Spl(ProtocolKind::Grr),
        SolutionKind::Smp(ProtocolKind::Oue),
        SolutionKind::RsFd(RsFdProtocol::Grr),
    ] {
        for policy in BudgetPolicy::ALL {
            let pipeline = CollectionPipeline::from_kind(kind, &ks, 2.0)
                .unwrap()
                .seed(31)
                .threads(2);
            let traffic = TrafficGenerator::new(TrafficShape::Churn, ds.n())
                .seed(31)
                .wave(53);
            let longitudinal = pipeline
                .serve_rounds(&ds, &traffic, rounds, policy, rounds)
                .unwrap();
            let batch_rounds = pipeline.run_rounds(&ds, rounds, policy).unwrap();
            assert_eq!(longitudinal.epochs.len(), rounds, "{kind} {policy}");
            for (epoch, batch) in longitudinal.epochs.iter().zip(&batch_rounds) {
                let label = format!("{kind} {policy} epoch {}", epoch.epoch);
                assert_eq!(epoch.snapshot.n, batch.n, "{label}: n");
                assert_eq!(
                    epoch.snapshot.aggregator.counts(),
                    batch.aggregator.counts(),
                    "{label}: counts"
                );
                for (x, y) in epoch
                    .snapshot
                    .estimates
                    .iter()
                    .flatten()
                    .zip(batch.estimates.iter().flatten())
                {
                    assert_eq!(x.to_bits(), y.to_bits(), "{label}: estimates");
                }
            }
            assert_eq!(
                longitudinal.cumulative.n,
                (rounds * ds.n()) as u64,
                "{kind} {policy}: cumulative n"
            );
        }
    }
}

#[test]
fn serve_matches_manual_server_drive() {
    // serve() is just sugar over LdpServer + TrafficGenerator; driving the
    // server by hand with the same seeds must give the same counts. This
    // also pins the pipeline's per-user seeding scheme (`ldp_sim::user_rng`,
    // i.e. SmallRng over mix3(seed, uid, USER_SALT)) that the mid-stream
    // test depends on.
    let ds = adult_like(300, 5);
    let ks = ds.schema().cardinalities();
    let kind = SolutionKind::RsFd(RsFdProtocol::Grr);
    let pipeline = CollectionPipeline::from_kind(kind, &ks, 1.0)
        .unwrap()
        .seed(41)
        .threads(2);
    let traffic = TrafficGenerator::new(TrafficShape::Churn, ds.n()).seed(41);
    let served = pipeline
        .serve_rounds(&ds, &traffic, 1, BudgetPolicy::SplitEps, 1)
        .unwrap()
        .cumulative;

    let solution = kind.build(&ks, 1.0).unwrap();
    let server = LdpServer::spawn(solution.clone(), ServerConfig::default().shards(2));
    for wave in traffic.waves() {
        server.ingest_batch(wave.into_iter().map(|uid| Envelope {
            uid,
            report: solution.report(ds.row(uid as usize), &mut user_rng(41, uid)),
        }));
    }
    let manual = server.drain();
    assert_eq!(manual.n, served.n);
    assert_eq!(manual.aggregator.counts(), served.aggregator.counts());
}

#[test]
fn permanent_dropouts_leave_valid_estimates_over_the_reporting_subset() {
    // Churn in the traffic generator is delayed re-arrival (every user's
    // complete report eventually lands — that's what keeps serve == run).
    // Users who drop out *permanently* simply never reach the wire; the
    // server must then estimate over exactly the users who did report, and
    // its drain must equal a reference pass over that subset.
    let ds = adult_like(800, 13);
    let ks = ds.schema().cardinalities();
    let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
        .build(&ks, 2.0)
        .unwrap();
    let server = LdpServer::spawn(solution.clone(), ServerConfig::default().shards(3));
    let mut reference = solution.aggregator();
    let mut reported = 0u64;
    for uid in 0..ds.n() as u64 {
        // Seeded 40% permanent dropout.
        if mix3(99, uid, 0xD0) % 10 < 4 {
            continue;
        }
        let report = solution.report(ds.row(uid as usize), &mut user_rng(99, uid));
        reference.absorb(&report);
        server.ingest_batch(std::iter::once(Envelope { uid, report }));
        reported += 1;
    }
    let snapshot = server.drain();
    assert!(
        reported > 0 && reported < ds.n() as u64,
        "dropout must bite"
    );
    assert_eq!(snapshot.n, reported);
    assert_eq!(snapshot.aggregator.counts(), reference.counts());
    assert!(
        snapshot.estimates.iter().flatten().all(|f| f.is_finite()),
        "estimates over the reporting subset must be finite"
    );
}

#[test]
fn zero_users_drain_cleanly_through_every_path() {
    let schema = ldp_datasets::Schema::from_cardinalities(&[6, 3, 2]);
    let empty = Dataset::new(schema, Vec::new());
    for kind in all_kinds() {
        let pipeline = CollectionPipeline::from_kind(kind, &[6, 3, 2], 1.0)
            .unwrap()
            .seed(2)
            .threads(8);
        for shape in TrafficShape::ALL {
            let run = pipeline
                .serve_rounds(
                    &empty,
                    &TrafficGenerator::new(shape, 0).seed(2),
                    1,
                    BudgetPolicy::SplitEps,
                    1,
                )
                .unwrap()
                .cumulative;
            assert_eq!(run.n, 0, "{kind} {shape}");
            assert!(
                run.estimates.iter().flatten().all(|f| f.is_finite()),
                "{kind} {shape}: empty drain must not produce NaN"
            );
            assert!(
                run.normalized.iter().flatten().all(|f| *f == 0.0),
                "{kind} {shape}: empty drain must not fabricate estimates"
            );
        }
    }
}

#[test]
fn mixed_numeric_collection_over_rounds_matches_the_served_epochs() {
    // Wang et al.'s numeric k-of-d collection (Duchi / PM / HM) under both
    // longitudinal budget policies, through the same calls as the
    // categorical path: every in-process round equals its served epoch bit
    // for bit, on the categorical counts and the numeric fixed-point sums.
    use ldp_core::solutions::MixedKind;
    use ldp_core::NumericKind;
    const ROUNDS: usize = 3;
    let mixed = ldp_datasets::mixed::mixed_survey_like(500, 37);
    for numeric in [
        NumericKind::Duchi,
        NumericKind::Piecewise,
        NumericKind::Hybrid,
    ] {
        let pipeline = CollectionPipeline::from_kind(
            SolutionKind::Mixed(MixedKind {
                protocol: ProtocolKind::Grr,
                numeric,
                sample_k: 2,
            }),
            &mixed.ks(),
            3.0,
        )
        .unwrap()
        .seed(43)
        .threads(2);
        let traffic = TrafficGenerator::new(TrafficShape::Churn, mixed.n())
            .seed(43)
            .wave(71);
        for policy in BudgetPolicy::ALL {
            let label = format!("{numeric:?} {policy}");
            let runs = pipeline.run_rounds(&mixed, ROUNDS, policy).unwrap();
            let served = pipeline
                .serve_rounds(&mixed, &traffic, ROUNDS, policy, ROUNDS)
                .unwrap();
            assert_eq!(served.epochs.len(), ROUNDS, "{label}");
            for (r, (epoch, run)) in served.epochs.iter().zip(&runs).enumerate() {
                assert_eq!(epoch.snapshot.n, run.n, "{label} round {r}: n");
                assert_eq!(
                    epoch.snapshot.aggregator.counts(),
                    run.aggregator.counts(),
                    "{label} round {r}: counts"
                );
                assert_eq!(
                    epoch.snapshot.aggregator.num_sums(),
                    run.aggregator.num_sums(),
                    "{label} round {r}: numeric sums"
                );
            }
            assert_eq!(
                served.cumulative.n,
                (ROUNDS * mixed.n()) as u64,
                "{label}: cumulative n"
            );
            for (r, run) in runs.iter().enumerate().skip(1) {
                let same = run.aggregator.counts() == runs[0].aggregator.counts()
                    && run.aggregator.num_sums() == runs[0].aggregator.num_sums();
                match policy {
                    BudgetPolicy::Memoize => {
                        assert!(same, "{label}: round {r} must replay round 0")
                    }
                    BudgetPolicy::SplitEps => {
                        assert!(!same, "{label}: round {r} must draw fresh randomness")
                    }
                }
            }
        }
    }
}
