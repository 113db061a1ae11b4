//! Determinism properties of the *networked* ingestion path: a
//! [`WireServer`] fed sanitized reports over real loopback sockets drains
//! **bit-identically** to the in-process batch `CollectionPipeline::run` at
//! equal seed — for every solution family, across server shard counts
//! {1, 2, 8} × producer connections {1, 2, 4}, and including a snapshot
//! taken mid-stream while the producer fleet holds at a barrier.
//!
//! This is the socket-tier extension of `tests/server_equivalence.rs`: the
//! per-user randomness is pinned by `user_rng(seed, uid)` on the producer
//! side and the aggregation is exact integer merging on the server side, so
//! neither the frame boundaries, nor the connection interleaving, nor the
//! shard count may leak into the drained estimates. Nor may the wire carry
//! what the solution hides: a fake-data tuple's sampled attribute never
//! leaves the producer.

use std::io::BufReader;
use std::net::TcpListener;
use std::sync::Barrier;
use std::thread;

use ldp_core::solutions::{CompactBatch, MixedKind, RsFdProtocol, RsRfdProtocol, SolutionKind};
use ldp_core::NumericKind;
use ldp_datasets::corpora::adult_like;
use ldp_datasets::mixed::mixed_survey_like;
use ldp_datasets::Dataset;
use ldp_protocols::{ProtocolKind, UeMode};
use ldp_server::wire::{read_frame, write_frame, Frame, WireSnapshot};
use ldp_server::{ServerConfig, ServerSnapshot, WireServer};
use ldp_sim::traffic::{TrafficGenerator, TrafficShape};
use ldp_sim::{user_rng, BudgetPolicy, ClientConfig, CollectionPipeline, NetClient};

const SEED: u64 = 17;

fn assert_drain_matches_run(snapshot: &ServerSnapshot, reference: &ServerSnapshot, label: &str) {
    assert_eq!(snapshot.n, reference.n, "{label}: n");
    assert_eq!(
        snapshot.aggregator.counts(),
        reference.aggregator.counts(),
        "{label}: support counts"
    );
    for (x, y) in snapshot
        .estimates
        .iter()
        .flatten()
        .zip(reference.estimates.iter().flatten())
    {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: estimates");
    }
    for (x, y) in snapshot
        .normalized
        .iter()
        .flatten()
        .zip(reference.normalized.iter().flatten())
    {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: normalized");
    }
}

fn assert_wire_snapshot_matches_run(
    snapshot: &WireSnapshot,
    reference: &ServerSnapshot,
    label: &str,
) {
    assert_eq!(snapshot.n, reference.n, "{label}: n");
    for (x, y) in snapshot
        .estimates
        .iter()
        .flatten()
        .zip(reference.estimates.iter().flatten())
    {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: estimates");
    }
    for (x, y) in snapshot
        .normalized
        .iter()
        .flatten()
        .zip(reference.normalized.iter().flatten())
    {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: normalized");
    }
}

/// Runs a `connections`-producer fleet against `server`'s address using
/// [`CollectionPipeline::serve_remote_rounds`] and returns the summed
/// DRAIN-acked report counts.
fn run_fleet(
    kind: SolutionKind,
    epsilon: f64,
    ds: &Dataset,
    traffic: &TrafficGenerator,
    addr: &str,
    connections: usize,
) -> u64 {
    let ks = ds.schema().cardinalities();
    thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|part| {
                let (ks, addr) = (ks.clone(), addr);
                s.spawn(move || {
                    CollectionPipeline::from_kind(kind, &ks, epsilon)
                        .unwrap()
                        .seed(SEED)
                        .serve_remote_rounds(
                            ds,
                            traffic,
                            addr,
                            part,
                            connections,
                            1,
                            BudgetPolicy::SplitEps,
                            0,
                            &mut |_| {},
                        )
                        .unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    })
}

#[test]
fn socket_drain_is_bit_identical_across_shards_and_connections() {
    let ds = adult_like(600, 3);
    let ks = ds.schema().cardinalities();
    for kind in [
        SolutionKind::Spl(ProtocolKind::Grr),
        SolutionKind::Spl(ProtocolKind::Olh),
        SolutionKind::Smp(ProtocolKind::Oue),
        SolutionKind::Smp(ProtocolKind::Ss),
        SolutionKind::RsFd(RsFdProtocol::Grr),
        SolutionKind::RsFd(RsFdProtocol::UeZ(ldp_protocols::UeMode::Optimized)),
        SolutionKind::RsRfd(RsRfdProtocol::Grr),
    ] {
        // The reference: a single-threaded in-process batch pass.
        let reference = CollectionPipeline::from_kind(kind, &ks, 2.0)
            .unwrap()
            .seed(SEED)
            .threads(1)
            .run(&ds);
        let traffic = TrafficGenerator::new(TrafficShape::Steady, ds.n())
            .seed(SEED)
            .wave(61);
        for shards in [1usize, 2, 8] {
            for connections in [1usize, 2, 4] {
                let solution = kind.build(&ks, 2.0).unwrap();
                let server = WireServer::bind(
                    "127.0.0.1:0",
                    solution,
                    ServerConfig::default().shards(shards),
                )
                .unwrap();
                let addr = server.local_addr().to_string();
                let acked = run_fleet(kind, 2.0, &ds, &traffic, &addr, connections);
                assert_eq!(acked, ds.n() as u64, "{kind} s={shards} c={connections}");
                server.wait_for_fleet(connections);
                let snapshot = server.finish();
                assert_drain_matches_run(
                    &snapshot,
                    &reference,
                    &format!("{kind} shards={shards} connections={connections}"),
                );
            }
        }
    }
}

#[test]
fn mixed_socket_drain_is_bit_identical_to_the_batch_pipeline() {
    // The heterogeneous solution family over real sockets: categorical
    // support counts and numeric fixed-point sums drained from a WireServer
    // must match the in-process batch pass bit for bit, for every numeric
    // mechanism and server shard count.
    let mixed = mixed_survey_like(700, 11);
    let ks = mixed.ks();
    for numeric in [
        NumericKind::Duchi,
        NumericKind::Piecewise,
        NumericKind::Hybrid,
    ] {
        let kind = SolutionKind::Mixed(MixedKind {
            protocol: ProtocolKind::Grr,
            numeric,
            sample_k: 2,
        });
        let solution = kind.build(&ks, 2.0).unwrap();
        let reference = CollectionPipeline::new(solution.clone())
            .seed(SEED)
            .threads(1)
            .run(&mixed);
        let traffic = TrafficGenerator::new(TrafficShape::Burst, mixed.n())
            .seed(SEED)
            .wave(53);
        for shards in [1usize, 2, 8] {
            let server = WireServer::bind(
                "127.0.0.1:0",
                solution.clone(),
                ServerConfig::default().shards(shards),
            )
            .unwrap();
            let addr = server.local_addr().to_string();
            let acked = CollectionPipeline::new(solution.clone())
                .seed(SEED)
                .serve_remote_rounds(
                    &mixed,
                    &traffic,
                    &addr,
                    0,
                    1,
                    1,
                    BudgetPolicy::SplitEps,
                    0,
                    &mut |_| {},
                )
                .unwrap();
            assert_eq!(acked, mixed.n() as u64, "{numeric:?} shards={shards}");
            server.wait_for_fleet(1);
            let snapshot = server.finish();
            assert_eq!(
                snapshot.aggregator.num_sums(),
                reference.aggregator.num_sums(),
                "{numeric:?} shards={shards}: numeric fixed-point sums"
            );
            assert_drain_matches_run(
                &snapshot,
                &reference,
                &format!("MIXED[{numeric:?}] shards={shards}"),
            );
        }
        // The same population over several rounds: one producer streams
        // every round through the EPOCH barrier, and the drain and each
        // closed epoch match the in-process longitudinal serve.
        const ROUNDS: usize = 3;
        for policy in BudgetPolicy::ALL {
            let label = format!("MIXED[{numeric:?}] {ROUNDS} rounds {policy}");
            let pipeline = CollectionPipeline::new(solution.clone()).seed(SEED);
            let local = pipeline
                .clone()
                .threads(1)
                .serve_rounds(&mixed, &traffic, ROUNDS, policy, ROUNDS)
                .unwrap();
            let server = WireServer::bind(
                "127.0.0.1:0",
                policy.round_solution(&solution, ROUNDS).unwrap(),
                ServerConfig::default().shards(2).retain(ROUNDS),
            )
            .unwrap()
            .producers(1);
            let addr = server.local_addr().to_string();
            let acked = pipeline
                .serve_remote_rounds(
                    &mixed,
                    &traffic,
                    &addr,
                    0,
                    1,
                    ROUNDS,
                    policy,
                    0,
                    &mut |_| {},
                )
                .unwrap();
            assert_eq!(acked, (ROUNDS * mixed.n()) as u64, "{label}");
            server.wait_for_fleet(1);
            let epochs = server.epochs();
            let snapshot = server.finish();
            assert_eq!(
                snapshot.aggregator.num_sums(),
                local.cumulative.aggregator.num_sums(),
                "{label}: numeric fixed-point sums"
            );
            assert_drain_matches_run(&snapshot, &local.cumulative, &label);
            assert_eq!(epochs.len(), ROUNDS, "{label}");
            for (remote, local) in epochs.iter().zip(&local.epochs) {
                assert_eq!(remote.epoch, local.epoch, "{label}");
                assert_eq!(
                    remote.snapshot.aggregator.counts(),
                    local.snapshot.aggregator.counts(),
                    "{label}: epoch {} counts",
                    remote.epoch
                );
                assert_eq!(
                    remote.snapshot.aggregator.num_sums(),
                    local.snapshot.aggregator.num_sums(),
                    "{label}: epoch {} numeric sums",
                    remote.epoch
                );
            }
        }
    }
}

#[test]
fn snapshot_polling_covers_every_round_without_touching_the_drain() {
    // `snapshot_every` interleaves SNAPSHOT round trips across the waves of
    // every round of a multi-round session, and polling never changes a
    // drained bit.
    const ROUNDS: usize = 3;
    const EVERY: usize = 3;
    let ds = adult_like(400, 19);
    let ks = ds.schema().cardinalities();
    let kind = SolutionKind::RsFd(RsFdProtocol::Grr);
    let traffic = TrafficGenerator::new(TrafficShape::Steady, ds.n())
        .seed(SEED)
        .wave(50);
    let waves: usize = (0..ROUNDS as u64)
        .map(|round| traffic.waves_for_round(round).count())
        .sum();
    let pipeline = CollectionPipeline::from_kind(kind, &ks, 2.0)
        .unwrap()
        .seed(SEED);
    let reference = pipeline
        .clone()
        .threads(1)
        .serve_rounds(&ds, &traffic, ROUNDS, BudgetPolicy::SplitEps, 1)
        .unwrap()
        .cumulative;
    for snapshot_every in [0, EVERY] {
        let server = WireServer::bind(
            "127.0.0.1:0",
            BudgetPolicy::SplitEps
                .round_solution(pipeline.solution(), ROUNDS)
                .unwrap(),
            ServerConfig::default().shards(2),
        )
        .unwrap()
        .producers(1);
        let addr = server.local_addr().to_string();
        let mut polled = Vec::new();
        let acked = pipeline
            .serve_remote_rounds(
                &ds,
                &traffic,
                &addr,
                0,
                1,
                ROUNDS,
                BudgetPolicy::SplitEps,
                snapshot_every,
                &mut |snapshot| polled.push(snapshot.n),
            )
            .unwrap();
        assert_eq!(acked, (ROUNDS * ds.n()) as u64);
        server.wait_for_fleet(1);
        assert_drain_matches_run(
            &server.finish(),
            &reference,
            &format!("snapshot_every={snapshot_every}"),
        );
        if snapshot_every == 0 {
            assert!(polled.is_empty());
        } else {
            assert_eq!(polled.len(), waves / EVERY, "one poll per {EVERY} waves");
            // Every round before the last closed at an EPOCH barrier, so a
            // poll in the last round sees at least those rounds' reports.
            assert!(
                *polled.last().unwrap() >= ((ROUNDS - 1) * ds.n()) as u64,
                "polling must reach the last round: {polled:?}"
            );
        }
    }
}

#[test]
fn mixed_multi_producer_fleet_drains_bit_identically() {
    // A fleet of NetClient connections pushing mixed reports (partitioned by
    // uid) must fan in to the same drained bits as the single batch pass —
    // the numeric entries survive CompactBatch encoding, frame boundaries
    // and cross-connection interleaving unchanged.
    let mixed = mixed_survey_like(500, 23);
    let ks = mixed.ks();
    let solution = SolutionKind::Mixed(MixedKind {
        protocol: ProtocolKind::Grr,
        numeric: NumericKind::Piecewise,
        sample_k: 2,
    })
    .build(&ks, 1.5)
    .unwrap();
    let reference = CollectionPipeline::new(solution.clone())
        .seed(SEED)
        .threads(1)
        .run(&mixed);
    for connections in [1usize, 2, 4] {
        let server = WireServer::bind(
            "127.0.0.1:0",
            solution.clone(),
            ServerConfig::default().shards(3),
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        thread::scope(|s| {
            for part in 0..connections {
                let (solution, addr, mixed) = (solution.clone(), addr.as_str(), &mixed);
                s.spawn(move || {
                    let mut client =
                        NetClient::connect_with(addr, &solution, ClientConfig::default().batch(16))
                            .unwrap();
                    for uid in (0..mixed.n() as u64).filter(|&u| u as usize % connections == part) {
                        let report = solution
                            .report_mixed(
                                mixed.cat().row(uid as usize),
                                mixed.num_row(uid as usize),
                                &mut user_rng(SEED, uid),
                            )
                            .unwrap();
                        client.push(uid, &report).unwrap();
                    }
                    client.finish().unwrap()
                });
            }
        });
        server.wait_for_fleet(connections);
        let snapshot = server.finish();
        assert_eq!(
            snapshot.aggregator.num_sums(),
            reference.aggregator.num_sums(),
            "{connections} connections: numeric fixed-point sums"
        );
        assert_drain_matches_run(
            &snapshot,
            &reference,
            &format!("mixed fleet, {connections} connections"),
        );
    }
}

#[test]
fn traffic_shape_never_leaks_into_the_socket_drain() {
    // The arrival schedule reorders the wire traffic but must not change a
    // single drained bit.
    let ds = adult_like(400, 5);
    let ks = ds.schema().cardinalities();
    let kind = SolutionKind::RsFd(RsFdProtocol::Grr);
    let reference = CollectionPipeline::from_kind(kind, &ks, 1.0)
        .unwrap()
        .seed(SEED)
        .run(&ds);
    for shape in TrafficShape::ALL {
        let traffic = TrafficGenerator::new(shape, ds.n()).seed(SEED).wave(37);
        let server = WireServer::bind(
            "127.0.0.1:0",
            kind.build(&ks, 1.0).unwrap(),
            ServerConfig::default().shards(2),
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let acked = run_fleet(kind, 1.0, &ds, &traffic, &addr, 2);
        assert_eq!(acked, ds.n() as u64, "{shape}");
        server.wait_for_fleet(2);
        assert_drain_matches_run(&server.finish(), &reference, &format!("shape {shape}"));
    }
}

#[test]
fn mid_stream_quiesced_snapshot_equals_batch_over_the_prefix() {
    // While the whole producer fleet holds at a barrier after streaming the
    // users 0..PREFIX, a SNAPSHOT round trip must report exactly the prefix
    // — bit-identical to a batch run over those users — before the fleet
    // resumes and the final drain equals the full-population run. The
    // frame's quiesce flag has no effect, so both settings must agree.
    const PREFIX: usize = 260;
    let ds = adult_like(500, 9);
    let ks = ds.schema().cardinalities();
    let kind = SolutionKind::RsFd(RsFdProtocol::Grr);
    let solution = kind.build(&ks, 1.5).unwrap();
    let prefix_ds = Dataset::new(
        ds.schema().clone(),
        (0..PREFIX).flat_map(|u| ds.row(u).to_vec()).collect(),
    );
    let prefix_reference = CollectionPipeline::new(solution.clone())
        .seed(SEED)
        .run(&prefix_ds);
    let full_reference = CollectionPipeline::new(solution.clone())
        .seed(SEED)
        .run(&ds);

    for (quiesce, connections) in [false, true]
        .into_iter()
        .flat_map(|q| [1usize, 2, 4].map(|c| (q, c)))
    {
        let server = WireServer::bind(
            "127.0.0.1:0",
            solution.clone(),
            ServerConfig::default().shards(3),
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let flushed = Barrier::new(connections);
        let snapped = Barrier::new(connections);
        thread::scope(|s| {
            for part in 0..connections {
                let (solution, addr) = (solution.clone(), addr.as_str());
                let (ds, flushed, snapped) = (&ds, &flushed, &snapped);
                let prefix_reference = &prefix_reference;
                s.spawn(move || {
                    let mut client =
                        NetClient::connect_with(addr, &solution, ClientConfig::default().batch(32))
                            .unwrap();
                    let mine = |uid: u64| uid as usize % connections == part;
                    for uid in (0..PREFIX as u64).filter(|&u| mine(u)) {
                        let report =
                            solution.report(ds.row(uid as usize), &mut user_rng(SEED, uid));
                        client.push(uid, &report).unwrap();
                    }
                    // A snapshot round trip doubles as an ingestion ack for
                    // this connection's frames: the handler reads in order,
                    // so once the reply arrives our prefix is in the shards.
                    client.snapshot(false).unwrap();
                    flushed.wait();
                    if part == 0 {
                        // Everyone has flushed and holds, so the snapshot
                        // covers the prefix exactly.
                        let snapshot = client.snapshot(quiesce).unwrap();
                        assert_wire_snapshot_matches_run(
                            &snapshot,
                            prefix_reference,
                            &format!("prefix, quiesce={quiesce}, {connections} connections"),
                        );
                    }
                    snapped.wait();
                    for uid in (PREFIX as u64..ds.n() as u64).filter(|&u| mine(u)) {
                        let report =
                            solution.report(ds.row(uid as usize), &mut user_rng(SEED, uid));
                        client.push(uid, &report).unwrap();
                    }
                    client.finish().unwrap()
                });
            }
        });
        server.wait_for_fleet(connections);
        assert_drain_matches_run(
            &server.finish(),
            &full_reference,
            &format!("full drain, quiesce={quiesce}, {connections} connections"),
        );
    }
}

/// A stand-in collector for one producer session: answers HELLO, acks
/// every BATCH_SEQ frame and DRAIN, and returns the batches exactly as
/// they arrived on the socket.
fn capture_session(listener: TcpListener) -> Vec<CompactBatch> {
    let (stream, _) = listener.accept().unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let Frame::Hello { fingerprint, .. } = read_frame(&mut reader).unwrap() else {
        panic!("expected HELLO");
    };
    let hello_ack = Frame::HelloAck {
        fingerprint,
        shards: 1,
        session: 0,
        ack_every: 1,
    };
    write_frame(&mut writer, &hello_ack).unwrap();
    let mut batches = Vec::new();
    loop {
        match read_frame(&mut reader).unwrap() {
            Frame::BatchSeq { seq, batch } => {
                let n = batch.len() as u64;
                batches.push(batch);
                write_frame(&mut writer, &Frame::BatchAck { seq, n }).unwrap();
            }
            Frame::Drain => {
                let n = batches.iter().map(|b| b.len() as u64).sum();
                write_frame(&mut writer, &Frame::DrainAck { n }).unwrap();
                return batches;
            }
            other => panic!("unexpected frame {other:?}"),
        }
    }
}

#[test]
fn net_client_frames_never_carry_the_sampled_attribute() {
    // RS+FD / RS+RFD privacy rests on the server never learning which
    // attribute a tuple really sanitized. In process the report keeps it as
    // attack ground truth; every tuple header a NetClient frames must have
    // it zeroed (the header's reserved `b` bits).
    let ds = adult_like(400, 21);
    let ks = ds.schema().cardinalities();
    for kind in [
        SolutionKind::RsFd(RsFdProtocol::Grr),
        SolutionKind::RsRfd(RsRfdProtocol::Grr),
        SolutionKind::RsRfd(RsRfdProtocol::UeR(UeMode::Optimized)),
    ] {
        let solution = kind.build(&ks, 2.0).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let collector = thread::spawn(move || capture_session(listener));
        let mut client =
            NetClient::connect_with(addr, &solution, ClientConfig::default().batch(64)).unwrap();
        let mut hidden = 0;
        for uid in 0..ds.n() as u64 {
            let report = solution.report(ds.row(uid as usize), &mut user_rng(SEED, uid));
            hidden += (report.hidden_attribute().unwrap() != 0) as usize;
            client.push(uid, &report).unwrap();
        }
        assert_eq!(client.finish().unwrap(), ds.n() as u64, "{kind}");
        // The in-process reports did carry the secret, so zero headers are
        // the producer's doing.
        assert!(
            hidden > ds.n() / 2,
            "{kind}: {hidden} reports hid an attribute"
        );
        let mut tuples = 0;
        for batch in collector.join().unwrap() {
            for (uid, report) in batch.iter() {
                let header = report.words()[0];
                assert_eq!(header & 0b11, 2, "{kind}: user {uid} is not a tuple");
                assert_eq!(header >> 33, 0, "{kind}: user {uid}'s frame carries `b`");
                tuples += 1;
            }
        }
        assert_eq!(tuples, ds.n(), "{kind}");
    }
}
