//! Regression test for the idle-connection bugfix: a producer that
//! completes the handshake and then goes silent (hung process, half-open
//! TCP connection) must be ABORTed by the configured read timeout instead
//! of pinning its handler thread forever — and a healthy producer sharing
//! the server must drain bit-identically to a batch aggregation, proving
//! the stall never reaches the shared aggregate or the drain barrier.

use std::io::BufReader;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use ldp_core::solutions::{CompactBatch, RsFdProtocol, SolutionKind, SolutionReport};
use ldp_server::wire::{read_frame, write_frame, Frame};
use ldp_server::{ServerConfig, WireServer, ABORT_TIMEOUT};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn handshake(addr: std::net::SocketAddr, fingerprint: u64) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    write_frame(
        &mut writer,
        &Frame::Hello {
            fingerprint,
            auth: 0,
        },
    )
    .unwrap();
    match read_frame(&mut reader).unwrap() {
        Frame::HelloAck { .. } => {}
        other => panic!("expected HELLO-ACK, got {other:?}"),
    }
    (reader, writer)
}

#[test]
fn idle_connection_is_aborted_while_a_live_producer_drains_bit_identically() {
    let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
        .build(&[5, 3, 4], 1.5)
        .unwrap();
    let server = WireServer::bind(
        "127.0.0.1:0",
        solution.clone(),
        ServerConfig::default().shards(2).read_timeout_ms(150),
    )
    .unwrap();
    let addr = server.local_addr();
    let fingerprint = solution.fingerprint();

    // The hung producer: handshake, then silence. Its reader blocks until
    // the server gives up on the connection.
    let (mut hung_reader, _hung_writer) = handshake(addr, fingerprint);

    // The healthy producer streams 40 reports and drains while the hung
    // one sits idle on the same server.
    let reports: Vec<SolutionReport> = {
        let mut rng = StdRng::seed_from_u64(7);
        (0..40)
            .map(|_| solution.report(&[1, 2, 3], &mut rng))
            .collect()
    };
    let (mut reader, mut writer) = handshake(addr, fingerprint);
    let mut batch = CompactBatch::new();
    for (uid, report) in reports.iter().enumerate() {
        batch.push(uid as u64, report);
    }
    write_frame(&mut writer, &Frame::BatchSeq { seq: 1, batch }).unwrap();
    write_frame(&mut writer, &Frame::Drain).unwrap();
    match read_frame(&mut reader).unwrap() {
        Frame::DrainAck { n } => assert_eq!(n, 40),
        other => panic!("expected DRAIN-ACK, got {other:?}"),
    }

    // The idle connection is ABORTed with the timeout code, promptly: well
    // under the seconds a wedged drain barrier would cost, far above the
    // 150 ms the server is configured to wait.
    let waited = Instant::now();
    match read_frame(&mut hung_reader).unwrap() {
        Frame::Abort { code, message } => {
            assert_eq!(code, ABORT_TIMEOUT, "unexpected abort: {message}");
        }
        other => panic!("expected ABORT for the idle connection, got {other:?}"),
    }
    assert!(
        waited.elapsed() < Duration::from_secs(5),
        "timeout abort took {:?}",
        waited.elapsed()
    );

    // One producer drained; the hung one contributed nothing.
    server.wait_for_fleet(1);
    assert_eq!(server.drained_producers(), 1);
    let snapshot = server.finish();
    assert_eq!(snapshot.n, 40);

    // Bit-identity with a batch aggregation of the same sanitized reports:
    // the aborted connection must not have perturbed the aggregate.
    let mut batch_agg = solution.aggregator();
    for report in &reports {
        batch_agg.absorb(report);
    }
    assert_eq!(snapshot.aggregator.counts(), batch_agg.counts());
}

#[test]
fn an_active_producer_is_never_timed_out_between_batches() {
    let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
        .build(&[4, 4], 2.0)
        .unwrap();
    let server = WireServer::bind(
        "127.0.0.1:0",
        solution.clone(),
        ServerConfig::default().shards(2).read_timeout_ms(200),
    )
    .unwrap();
    let (mut reader, mut writer) = handshake(server.local_addr(), solution.fingerprint());
    let mut rng = StdRng::seed_from_u64(11);
    // Three batches spaced just under the timeout: each write resets the
    // idle clock, so a slow-but-alive producer survives.
    for round in 0..3u64 {
        let mut batch = CompactBatch::new();
        for uid in 0..5u64 {
            batch.push(round * 5 + uid, &solution.report(&[0, 3], &mut rng));
        }
        write_frame(
            &mut writer,
            &Frame::BatchSeq {
                seq: round + 1,
                batch,
            },
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(120));
    }
    write_frame(&mut writer, &Frame::Drain).unwrap();
    match read_frame(&mut reader).unwrap() {
        Frame::DrainAck { n } => assert_eq!(n, 15),
        other => panic!("expected DRAIN-ACK, got {other:?}"),
    }
    server.wait_for_fleet(1);
    assert_eq!(server.finish().n, 15);
}
