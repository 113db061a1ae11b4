//! Crash-recovery equivalence: a producer fleet suffering injected
//! transport faults — dropped frames, connection resets, mid-frame
//! truncations, duplicated frames, delays — must drain **bit-identically**
//! to the fault-free in-process run at equal seed. Reports are pure
//! functions of `(seed, uid)`, replayed frames are byte-identical, and the
//! server deduplicates by sequence number, so no fault schedule may leak a
//! single bit into the estimates.
//!
//! Also pinned here: graceful degradation (a producer that exceeds its
//! retry budget is reaped from the fleet, which completes minus that
//! partition and reports the deficit), the client-side read deadline
//! (a silent server surfaces as a typed [`WireError::Timeout`], not a
//! hang) and the client's one request path (a server ABORT is fatal at
//! once; a dropped connection, or a fault injected into the request
//! itself, is redialed, resumed and the request sent again).

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

use ldp_core::solutions::{RsFdProtocol, SolutionKind};
use ldp_datasets::corpora::adult_like;
use ldp_datasets::Dataset;
use ldp_server::wire::{read_frame, write_frame, Frame, WireError, WireSnapshot};
use ldp_server::{ServerConfig, ServerSnapshot, WireServer, ABORT_PROTOCOL};
use ldp_sim::traffic::{TrafficGenerator, TrafficShape};
use ldp_sim::{user_rng, BudgetPolicy, ClientConfig, CollectionPipeline, FaultKind, FaultPlan};

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

/// A chaos producer config: tiny frames so the plan fires many times, and
/// a full retry budget.
fn chaos_client(plan: FaultPlan) -> ClientConfig {
    ClientConfig::resilient().batch(16).fault_plan(Some(plan))
}

/// The shape of a faulted fleet run: `connections` producers, each serving
/// `rounds` rounds under `policy` and taking a SNAPSHOT every
/// `snapshot_every` waves (0 = never).
#[derive(Clone, Copy)]
struct Fleet {
    connections: usize,
    rounds: usize,
    policy: BudgetPolicy,
    snapshot_every: usize,
}

impl Fleet {
    fn one_round(connections: usize, snapshot_every: usize) -> Fleet {
        Fleet {
            connections,
            rounds: 1,
            policy: BudgetPolicy::SplitEps,
            snapshot_every,
        }
    }
}

/// Drives a faulted `fleet` against `addr`; producer `part` runs under
/// `client_for(part)`. Checks that each producer's snapshot `n` never
/// decreases and returns the summed DRAIN-acked counts with the largest
/// snapshot `n` any producer saw.
fn run_faulted_fleet(
    pipeline: &CollectionPipeline,
    ds: &Dataset,
    traffic: &TrafficGenerator,
    addr: &str,
    fleet: Fleet,
    client_for: impl Fn(usize) -> ClientConfig + Sync,
) -> (u64, u64) {
    thread::scope(|s| {
        let handles: Vec<_> = (0..fleet.connections)
            .map(|part| {
                let client_for = &client_for;
                s.spawn(move || {
                    let (mut snapshots, mut last) = (0usize, 0u64);
                    let acked = pipeline
                        .clone()
                        .client(client_for(part))
                        .serve_remote_rounds(
                            ds,
                            traffic,
                            addr,
                            part,
                            fleet.connections,
                            fleet.rounds,
                            fleet.policy,
                            fleet.snapshot_every,
                            &mut |snapshot: &WireSnapshot| {
                                assert!(
                                    snapshot.n >= last,
                                    "producer {part}: snapshot n fell from {last} to {}",
                                    snapshot.n
                                );
                                (snapshots, last) = (snapshots + 1, snapshot.n);
                            },
                        )
                        .unwrap();
                    assert_eq!(
                        snapshots > 0,
                        fleet.snapshot_every > 0,
                        "producer {part}: snapshots taken"
                    );
                    (acked, last)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((0, 0), |(acked, top), (a, last)| (acked + a, top.max(last)))
    })
}

#[test]
fn faulted_fleet_drains_bit_identically_across_shards() {
    // All five fault classes at once, three producers, every shard count:
    // the drained bits must equal the clean single-threaded batch pass.
    let ds = adult_like(600, 3);
    let ks = ds.schema().cardinalities();
    let kind = SolutionKind::RsFd(RsFdProtocol::Grr);
    let pipeline = CollectionPipeline::from_kind(kind, &ks, 2.0)
        .unwrap()
        .seed(SEED)
        .threads(1);
    let reference = pipeline.run(&ds);
    let traffic = TrafficGenerator::new(TrafficShape::Steady, ds.n())
        .seed(SEED)
        .wave(61);
    for shards in [1usize, 2, 8] {
        let server = WireServer::bind(
            "127.0.0.1:0",
            kind.build(&ks, 2.0).unwrap(),
            ServerConfig::default().shards(shards).ack_every(2),
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let (acked, _) = run_faulted_fleet(
            &pipeline,
            &ds,
            &traffic,
            &addr,
            Fleet::one_round(3, 0),
            |part| chaos_client(FaultPlan::new(SEED ^ part as u64, 3)),
        );
        assert_eq!(acked, ds.n() as u64, "shards={shards}: acked");
        server.wait_for_fleet(3);
        assert_eq!(server.reaped_sessions(), 0, "shards={shards}: no reaps");
        assert_drain_matches_run(
            &server.finish(),
            &reference,
            &format!("faulted fleet, shards={shards}"),
        );
    }
}

#[test]
fn every_fault_class_alone_preserves_the_drained_bits() {
    // Each class isolated, firing on every second frame: drop and truncate
    // exercise pure replay, reset exercises dedup-after-replay, duplicate
    // exercises dedup without a reconnect, delay exercises nothing but
    // patience. Every class runs once without and once with SNAPSHOT round
    // trips interleaved: the snapshots ride the same request path as the
    // drain, must never count backwards, and may not disturb the drain.
    let ds = adult_like(400, 5);
    let ks = ds.schema().cardinalities();
    let kind = SolutionKind::RsFd(RsFdProtocol::Grr);
    let pipeline = CollectionPipeline::from_kind(kind, &ks, 1.5)
        .unwrap()
        .seed(SEED)
        .threads(1);
    let reference = pipeline.run(&ds);
    let traffic = TrafficGenerator::new(TrafficShape::Burst, ds.n())
        .seed(SEED)
        .wave(53);
    for (fault, snapshot_every) in FaultKind::ALL
        .into_iter()
        .flat_map(|f| [(f, 0usize), (f, 2)])
    {
        let label = format!("fault {fault:?}, snapshot every {snapshot_every}");
        let server = WireServer::bind(
            "127.0.0.1:0",
            kind.build(&ks, 1.5).unwrap(),
            ServerConfig::default().shards(2).ack_every(2),
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let (acked, top) = run_faulted_fleet(
            &pipeline,
            &ds,
            &traffic,
            &addr,
            Fleet::one_round(2, snapshot_every),
            |part| chaos_client(FaultPlan::new(SEED ^ part as u64, 2).kinds(&[fault])),
        );
        assert_eq!(acked, ds.n() as u64, "{label}: acked");
        server.wait_for_fleet(2);
        let drained = server.finish();
        assert!(top <= drained.n, "{label}: snapshot n {top} > drain");
        assert_drain_matches_run(&drained, &reference, &label);
    }
}

/// Serves `rounds` rounds of RS+FD[GRR] at ε = `eps` over the EPOCH
/// barrier with a faulted `fleet` against a real two-shard server, and
/// checks that every report is acked and that the cumulative drain equals
/// the clean in-process longitudinal run. With `dropped`, also checks that
/// the server counted that many connections lost to transport faults.
fn check_faulted_rounds(
    ds: &Dataset,
    traffic: &TrafficGenerator,
    eps: f64,
    fleet: Fleet,
    client_for: impl Fn(usize) -> ClientConfig + Sync,
    dropped: Option<usize>,
    label: &str,
) {
    let ks = ds.schema().cardinalities();
    let kind = SolutionKind::RsFd(RsFdProtocol::Grr);
    let pipeline = CollectionPipeline::from_kind(kind, &ks, eps)
        .unwrap()
        .seed(SEED)
        .threads(1);
    let reference = pipeline
        .serve_rounds(ds, traffic, fleet.rounds, fleet.policy, 2)
        .unwrap()
        .cumulative;
    let per_round = kind
        .build(&ks, eps)
        .and_then(|s| fleet.policy.round_solution(&s, fleet.rounds))
        .unwrap();
    let server = WireServer::bind(
        "127.0.0.1:0",
        per_round,
        ServerConfig::default().shards(2).ack_every(2),
    )
    .unwrap()
    .producers(fleet.connections);
    let addr = server.local_addr().to_string();
    let (acked, top) = run_faulted_fleet(&pipeline, ds, traffic, &addr, fleet, client_for);
    assert_eq!(acked, (ds.n() * fleet.rounds) as u64, "{label}: acked");
    server.wait_for_fleet(fleet.connections);
    if let Some(want) = dropped {
        // A connection thread counts its drop as it exits, after the
        // producer has already redialed.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.dropped_connections() < want && std::time::Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.dropped_connections(), want, "{label}: dropped");
    }
    assert_eq!(server.reaped_sessions(), 0, "{label}: no reaps");
    let drained = server.finish();
    assert!(top <= drained.n, "{label}: snapshot n {top} > drain");
    assert_drain_matches_run(&drained, &reference, label);
}

#[test]
fn faulted_longitudinal_fleet_matches_under_both_budget_policies() {
    // Three rounds over the EPOCH barrier with faults injected mid-round:
    // the resumed sessions re-announce idempotently and the cumulative
    // drained aggregate equals the clean in-process longitudinal run, for
    // both ways of spending the budget across rounds.
    let ds = adult_like(300, 7);
    let traffic = TrafficGenerator::new(TrafficShape::Steady, ds.n())
        .seed(SEED)
        .wave(47);
    for policy in BudgetPolicy::ALL {
        let fleet = Fleet {
            connections: 2,
            rounds: 3,
            policy,
            snapshot_every: 0,
        };
        check_faulted_rounds(
            &ds,
            &traffic,
            3.0,
            fleet,
            |part| chaos_client(FaultPlan::new(SEED ^ 0xEB0C ^ part as u64, 4)),
            None,
            &format!("faulted longitudinal, {policy}"),
        );
    }
}

#[test]
fn faults_on_control_requests_preserve_the_drained_bits() {
    // Every first send takes the fault (`every = 1`), so each EPOCH,
    // SNAPSHOT_REQUEST and DRAIN takes it on its first attempt. A request
    // that is dropped or truncated goes through reconnect-and-resume and is
    // sent again; a delayed one only waits. Each producer's batch holds its
    // whole partition, so a round's reports go out in the one frame the
    // round's SNAPSHOT flushes: per producer two batch frames and five
    // requests (SNAPSHOT and EPOCH per round, then DRAIN), seven faulted
    // sends. A truncation ends its connection as a transport fault on the
    // server, which counts all seven. The drain must equal the clean
    // in-process run.
    let ds = adult_like(64, 19);
    let traffic = TrafficGenerator::new(TrafficShape::Steady, ds.n())
        .seed(SEED)
        .wave(ds.n());
    let fleet = Fleet {
        connections: 2,
        rounds: 2,
        policy: BudgetPolicy::SplitEps,
        snapshot_every: 1,
    };
    for fault in [FaultKind::Drop, FaultKind::Truncate, FaultKind::Delay] {
        check_faulted_rounds(
            &ds,
            &traffic,
            2.0,
            fleet,
            |part| {
                let plan = FaultPlan::new(SEED ^ part as u64, 1).kinds(&[fault]);
                chaos_client(plan).batch(ds.n())
            },
            (fault == FaultKind::Truncate).then_some(7 * fleet.connections),
            &format!("{fault:?} on every send"),
        );
    }
}

#[test]
fn producer_past_its_retry_budget_degrades_the_fleet() {
    // Producer 1 drops every fourth frame with a zero retry budget: its
    // fourth batch dies on the wire and the producer gives up. The fleet
    // rendezvous must still complete — the dead session is reaped after its
    // grace period — and the drained aggregate holds the survivor's full
    // partition plus exactly the dead producer's ingested prefix (three
    // 16-report frames).
    let ds = adult_like(400, 11);
    let ks = ds.schema().cardinalities();
    let kind = SolutionKind::RsFd(RsFdProtocol::Grr);
    let server = WireServer::bind(
        "127.0.0.1:0",
        kind.build(&ks, 1.5).unwrap(),
        ServerConfig::default().shards(2).read_timeout_ms(200),
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let traffic = TrafficGenerator::new(TrafficShape::Steady, ds.n())
        .seed(SEED)
        .wave(61);
    let outcomes: Vec<Result<u64, WireError>> = thread::scope(|s| {
        let handles: Vec<_> = (0..2usize)
            .map(|part| {
                let (ks, addr) = (ks.clone(), addr.as_str());
                let (ds, traffic) = (&ds, &traffic);
                s.spawn(move || {
                    let client = if part == 1 {
                        // Fails fast on its first (fourth-frame) fault.
                        ClientConfig::default()
                            .batch(16)
                            .fault_plan(Some(FaultPlan::new(9, 4).kinds(&[FaultKind::Drop])))
                    } else {
                        ClientConfig::resilient().batch(16)
                    };
                    CollectionPipeline::from_kind(kind, &ks, 1.5)
                        .unwrap()
                        .seed(SEED)
                        .client(client)
                        .serve_remote_rounds(
                            ds,
                            traffic,
                            addr,
                            part,
                            2,
                            1,
                            BudgetPolicy::SplitEps,
                            0,
                            &mut |_| {},
                        )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert!(outcomes[0].is_ok(), "the clean producer must drain");
    assert!(outcomes[1].is_err(), "the faulted producer must give up");
    // The fleet rendezvous completes with one drain + one reap.
    server.wait_for_fleet(2);
    assert_eq!(server.reaped_sessions(), 1, "the dead session is reaped");
    let survivor = outcomes[0].as_ref().copied().unwrap();
    let snapshot = server.finish();
    // Deterministic deficit: the dead producer landed exactly its first
    // three 16-report frames before the dropped fourth.
    assert_eq!(snapshot.n, survivor + 48, "survivor + the ingested prefix");
    assert!(
        snapshot.n < ds.n() as u64,
        "the drain must report the deficit"
    );
}

#[test]
fn reaped_producer_unblocks_the_epoch_barrier() {
    // A two-producer longitudinal fleet where producer 1 dies mid-round 0
    // without draining: the survivor's EPOCH barrier first waits out the
    // dead session's reap period (1 s, the client's longest backoff step,
    // above the 150 ms read timeout), reaps it, shrinks the fleet to one,
    // and releases — the surviving partition completes all rounds.
    const ROUNDS: usize = 2;
    let ds = adult_like(200, 13);
    let ks = ds.schema().cardinalities();
    let kind = SolutionKind::RsFd(RsFdProtocol::Grr);
    let per_round = kind
        .build(&ks, 2.0)
        .and_then(|s| BudgetPolicy::SplitEps.round_solution(&s, ROUNDS))
        .unwrap();
    let fingerprint = per_round.fingerprint();
    let server = WireServer::bind(
        "127.0.0.1:0",
        per_round,
        ServerConfig::default().shards(2).read_timeout_ms(150),
    )
    .unwrap()
    .producers(2);
    let addr = server.local_addr().to_string();

    // Producer 1: handshakes, pushes one sequenced batch, dies silently.
    {
        let stream = TcpStream::connect(&addr).unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        write_frame(
            &mut writer,
            &Frame::Hello {
                fingerprint,
                auth: 0,
            },
        )
        .unwrap();
        writer.flush().unwrap();
        assert!(matches!(
            read_frame(&mut reader).unwrap(),
            Frame::HelloAck { .. }
        ));
        let solution = kind
            .build(&ks, 2.0)
            .and_then(|s| BudgetPolicy::SplitEps.round_solution(&s, ROUNDS))
            .unwrap();
        let mut batch = ldp_core::solutions::CompactBatch::new();
        for uid in (0..20u64).filter(|u| u % 2 == 1) {
            let report = solution.report(ds.row(uid as usize), &mut user_rng(SEED, uid));
            batch.push(uid, &report);
        }
        let dead_prefix = batch.len() as u64;
        write_frame(&mut writer, &Frame::BatchSeq { seq: 1, batch }).unwrap();
        writer.flush().unwrap();
        assert_eq!(dead_prefix, 10);
        // Dropped here: no DRAIN, no EPOCH — the handler will mark the
        // session suspect on disconnect. The survivor may reach the barrier
        // before that: it waits, since the session may still arrive.
    }

    let traffic = TrafficGenerator::new(TrafficShape::Steady, ds.n())
        .seed(SEED)
        .wave(31);
    let survivor = CollectionPipeline::from_kind(kind, &ks, 2.0)
        .unwrap()
        .seed(SEED)
        .client(ClientConfig::resilient().batch(16))
        .serve_remote_rounds(
            &ds,
            &traffic,
            &addr,
            0,
            2,
            ROUNDS,
            BudgetPolicy::SplitEps,
            0,
            &mut |_| {},
        )
        .unwrap();
    // 100 even-uid users × 2 rounds.
    assert_eq!(survivor, (ds.n() / 2 * ROUNDS) as u64);
    server.wait_for_fleet(2);
    assert_eq!(server.reaped_sessions(), 1);
    let snapshot = server.finish();
    assert_eq!(snapshot.n, survivor + 10, "survivor + the dead prefix");
}

/// Dials `addr` and says HELLO; returns the connection and its session
/// token.
fn hello(addr: SocketAddr, fingerprint: u64) -> (BufReader<TcpStream>, TcpStream, u64) {
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let auth = 0;
    write_frame(&mut writer, &Frame::Hello { fingerprint, auth }).unwrap();
    match read_frame(&mut reader).unwrap() {
        Frame::HelloAck { session, .. } => (reader, writer, session),
        other => panic!("expected HELLO_ACK, got {other:?}"),
    }
}

#[test]
fn a_producer_whose_epoch_reply_is_lost_resumes_and_drains() {
    // Producer 0's EPOCH reaches the server, whose handler parks at the
    // barrier, but the reply never comes back: the producer gives that
    // connection up while its handler still waits. Its RESUME on a new
    // connection takes the session over at once (it is not refused as
    // still active on the parked one), its EPOCH re-announce counts once,
    // and both producers drain every report.
    let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
        .build(&[4, 3, 2], 1.0)
        .unwrap();
    let fingerprint = solution.fingerprint();
    // The read timeout only bounds how long a failure of this test takes.
    let config = ServerConfig::default().read_timeout_ms(2000);
    let server = WireServer::bind("127.0.0.1:0", solution.clone(), config)
        .unwrap()
        .producers(2);
    let addr = server.local_addr();
    let reports: Vec<_> = (0..40u64)
        .map(|uid| solution.report(&[1, 2, 0], &mut user_rng(SEED, uid)))
        .collect();
    let mut batch = ldp_core::solutions::CompactBatch::new();
    for (uid, report) in reports[..20].iter().enumerate() {
        batch.push_wire(uid as u64, report);
    }
    let (_, mut old, session) = hello(addr, fingerprint);
    let frame = Frame::BatchSeq { seq: 1, batch };
    write_frame(&mut old, &frame).unwrap();
    write_frame(&mut old, &Frame::Epoch { round: 0 }).unwrap();
    // Let the old handler ingest the batch and park, then give it up.
    thread::sleep(Duration::from_millis(50));
    old.shutdown(std::net::Shutdown::Both).unwrap();

    let (mut reader, mut writer, _) = hello(addr, fingerprint);
    let last_acked = 0;
    write_frame(
        &mut writer,
        &Frame::Resume {
            session,
            last_acked,
        },
    )
    .unwrap();
    match read_frame(&mut reader).unwrap() {
        Frame::ResumeAck { acked_seq: 1 } => {}
        // The old handler had not read the batch yet: replay it.
        Frame::ResumeAck { acked_seq: 0 } => write_frame(&mut writer, &frame).unwrap(),
        other => panic!("expected RESUME_ACK, got {other:?}"),
    }
    write_frame(&mut writer, &Frame::Epoch { round: 0 }).unwrap();
    let other = thread::spawn({
        let (solution, reports) = (solution.clone(), reports[20..].to_vec());
        move || {
            let mut client = ldp_sim::NetClient::connect(addr, &solution).unwrap();
            for (uid, report) in (20..).zip(&reports) {
                client.push(uid, report).unwrap();
            }
            assert_eq!(client.advance_epoch(0).unwrap(), 1);
            client.finish().unwrap()
        }
    });
    assert_eq!(read_frame(&mut reader).unwrap(), Frame::Epoch { round: 1 });
    write_frame(&mut writer, &Frame::Drain).unwrap();
    assert_eq!(read_frame(&mut reader).unwrap(), Frame::DrainAck { n: 20 });
    assert_eq!(other.join().unwrap(), 20);
    server.wait_for_fleet(2);
    assert_eq!(server.reaped_sessions(), 0);
    assert_eq!(server.rejected_connections(), 0);
    assert_eq!(server.epochs()[0].snapshot.n, 40, "one round-0 epoch");
    let drained = server.finish();
    let mut clean = solution.aggregator();
    reports.iter().for_each(|report| clean.absorb(report));
    assert_eq!(drained.aggregator.counts(), clean.counts());
}

#[test]
fn client_read_deadline_surfaces_as_typed_timeout() {
    // A listener that accepts and then says nothing: the handshake must
    // come back as WireError::Timeout within the configured deadline
    // instead of blocking forever.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let hold = thread::spawn(move || {
        // Accept and hold the socket open without responding.
        let (sock, _) = listener.accept().unwrap();
        thread::sleep(Duration::from_millis(800));
        drop(sock);
    });
    let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
        .build(&[4, 3, 2], 1.0)
        .unwrap();
    let started = std::time::Instant::now();
    let err = ldp_sim::NetClient::connect_with(
        addr,
        &solution,
        ClientConfig::default().read_timeout_ms(100),
    )
    .expect_err("a silent server must not hand back a client");
    assert!(
        matches!(err, WireError::Timeout),
        "expected Timeout, got {err:?}"
    );
    assert!(
        started.elapsed() < Duration::from_millis(700),
        "the deadline must fire well before the server gives up"
    );
    hold.join().unwrap();
}

#[test]
fn server_abort_is_fatal_to_the_request_path() {
    // An EPOCH for a round the fleet is not on is a protocol violation: the
    // server ABORTs. A resilient client must hand that ABORT back as
    // `WireError::Remote` at once, on its one connection — an ABORT is a
    // verdict, not a transport fault, so nothing is redialed or re-sent.
    let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
        .build(&[4, 3, 2], 1.0)
        .unwrap();
    let server = WireServer::bind("127.0.0.1:0", solution.clone(), ServerConfig::default())
        .unwrap()
        .producers(1);
    let mut client =
        ldp_sim::NetClient::connect_with(server.local_addr(), &solution, ClientConfig::resilient())
            .unwrap();
    let err = client
        .advance_epoch(7)
        .expect_err("round 7 is not the fleet's round");
    assert!(
        matches!(
            err,
            WireError::Remote {
                code: ABORT_PROTOCOL,
                ..
            }
        ),
        "expected ABORT_PROTOCOL, got {err:?}"
    );
    drop(client);
    // The handler counts its rejection after sending the ABORT.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.rejected_connections() == 0 && std::time::Instant::now() < deadline {
        thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        server.rejected_connections(),
        1,
        "one connection, no retries"
    );
    assert!(server.epochs().is_empty(), "no epoch closed");
    assert_eq!(server.finish().n, 0);
}

#[test]
fn control_request_retries_across_a_dropped_connection() {
    // A stand-in collector reads the first SNAPSHOT_REQUEST whole and
    // closes the connection unanswered, a fault no client plan injects. That
    // forces the request itself through reconnect-and-resume: the client
    // redials, resumes its session, sends the request again and gets the
    // reply on the new connection.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let snapshot = WireSnapshot {
        n: 7,
        shards: 1,
        estimates: vec![vec![0.25, 0.75]],
        normalized: vec![vec![0.25, 0.75]],
    };
    let reply = snapshot.clone();
    let collector = thread::spawn(move || {
        for connection in 0..2 {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            let Frame::Hello { fingerprint, .. } = read_frame(&mut reader).unwrap() else {
                panic!("expected HELLO");
            };
            let hello_ack = Frame::HelloAck {
                fingerprint,
                shards: 1,
                session: 42,
                ack_every: 1,
            };
            write_frame(&mut writer, &hello_ack).unwrap();
            if connection == 1 {
                let resume = Frame::Resume {
                    session: 42,
                    last_acked: 0,
                };
                assert_eq!(read_frame(&mut reader).unwrap(), resume);
                write_frame(&mut writer, &Frame::ResumeAck { acked_seq: 0 }).unwrap();
            }
            assert!(matches!(
                read_frame(&mut reader).unwrap(),
                Frame::SnapshotRequest { .. }
            ));
            if connection == 1 {
                write_frame(&mut writer, &Frame::Snapshot(reply.clone())).unwrap();
            }
            // The first connection closes here, unanswered.
        }
    });
    let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
        .build(&[4, 3, 2], 1.0)
        .unwrap();
    let mut client =
        ldp_sim::NetClient::connect_with(addr, &solution, ClientConfig::resilient()).unwrap();
    assert_eq!(client.snapshot(false).unwrap(), snapshot);
    collector.join().unwrap();
}
