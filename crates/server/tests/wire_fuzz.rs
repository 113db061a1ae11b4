//! Fuzz-style robustness properties of the wire layer: mutated, truncated
//! and garbage byte streams must always come back as typed [`WireError`]s —
//! never a panic, and never a silently mis-decoded frame — both at the
//! codec level ([`read_frame`] over raw bytes) and end-to-end against a live
//! [`WireServer`], which must additionally keep its aggregate clean.

use std::io::Write;
use std::net::TcpStream;

use ldp_core::solutions::{CompactBatch, MixedKind, RsFdProtocol, SolutionKind};
use ldp_core::NumericKind;
use ldp_protocols::ProtocolKind;
use ldp_server::wire::{
    crc32, encode_frame, read_frame, write_frame, Frame, WireError, WireSnapshot, WIRE_MAGIC,
    WIRE_VERSION,
};
use ldp_server::{ServerConfig, WireServer, ABORT_PROTOCOL};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A representative valid session's byte stream (handshake, batches, a
/// snapshot exchange, drain) to mutate.
fn session_bytes(seed: u64, reports: u64) -> Vec<u8> {
    let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
        .build(&[5, 3, 4], 1.5)
        .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stream = Vec::new();
    let mut buf = Vec::new();
    let mut frames = vec![Frame::Hello {
        fingerprint: solution.fingerprint(),
        auth: 0,
    }];
    let mut batch = CompactBatch::new();
    for uid in 0..reports {
        batch.push(uid, &solution.report(&[1, 2, 3], &mut rng));
    }
    frames.push(Frame::BatchSeq { seq: 1, batch });
    frames.push(Frame::SnapshotRequest { quiesce: true });
    frames.push(Frame::Snapshot(WireSnapshot {
        n: reports,
        shards: 2,
        estimates: vec![vec![0.2; 5], vec![0.33; 3], vec![0.25; 4]],
        normalized: vec![vec![0.2; 5], vec![0.33; 3], vec![0.25; 4]],
    }));
    frames.push(Frame::Drain);
    for frame in &frames {
        encode_frame(frame, &mut buf);
        stream.extend_from_slice(&buf);
    }
    stream
}

/// A valid mixed-solution session's byte stream (heterogeneous schema with
/// numeric dimensions) to mutate.
fn mixed_session_bytes(seed: u64, reports: u64) -> Vec<u8> {
    let solution = SolutionKind::Mixed(MixedKind {
        protocol: ProtocolKind::Grr,
        numeric: NumericKind::Piecewise,
        sample_k: 2,
    })
    .build(&[5, 3, 0, 0], 1.5)
    .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stream = Vec::new();
    let mut buf = Vec::new();
    let mut frames = vec![Frame::Hello {
        fingerprint: solution.fingerprint(),
        auth: 0,
    }];
    let mut batch = CompactBatch::new();
    for uid in 0..reports {
        let report = solution
            .report_mixed(&[1, 2], &[0.25, -0.5], &mut rng)
            .unwrap();
        batch.push(uid, &report);
    }
    frames.push(Frame::BatchSeq { seq: 1, batch });
    frames.push(Frame::Drain);
    for frame in &frames {
        encode_frame(frame, &mut buf);
        stream.extend_from_slice(&buf);
    }
    stream
}

/// Reads frames until the stream errors or ends; the property under test is
/// simply that this terminates without panicking.
fn drain_stream(bytes: &[u8]) -> (usize, Option<WireError>) {
    let mut reader = bytes;
    let mut decoded = 0usize;
    loop {
        match read_frame(&mut reader) {
            Ok(_) => decoded += 1,
            Err(WireError::Closed) => return (decoded, None),
            Err(e) => return (decoded, Some(e)),
        }
    }
}

/// The HELLO fingerprint separates mixed solutions that differ only in the
/// numeric mechanism or the per-user sample budget, and a live server
/// rejects such a producer at handshake.
#[test]
fn mixed_fingerprint_covers_numeric_mechanism_and_schema() {
    let build = |numeric, sample_k| {
        SolutionKind::Mixed(MixedKind {
            protocol: ProtocolKind::Grr,
            numeric,
            sample_k,
        })
        .build(&[5, 3, 0, 0], 1.5)
        .unwrap()
    };
    let pm = build(NumericKind::Piecewise, 2);
    let duchi = build(NumericKind::Duchi, 2);
    let pm_k1 = build(NumericKind::Piecewise, 1);
    assert_ne!(
        pm.fingerprint(),
        duchi.fingerprint(),
        "numeric mechanism must be part of the fingerprint"
    );
    assert_ne!(
        pm.fingerprint(),
        pm_k1.fingerprint(),
        "sample budget must be part of the fingerprint"
    );

    // A producer sanitizing with Duchi must not get past HELLO on a PM
    // server: the mismatch would silently bias every numeric mean.
    let server = WireServer::bind("127.0.0.1:0", pm, ServerConfig::default().shards(2)).unwrap();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    write_frame(
        &mut writer,
        &Frame::Hello {
            fingerprint: duchi.fingerprint(),
            auth: 0,
        },
    )
    .unwrap();
    writer.flush().unwrap();
    match read_frame(&mut reader).unwrap() {
        Frame::Abort { message, .. } => assert!(
            message.contains("fingerprint"),
            "abort should name the fingerprint mismatch: {message}"
        ),
        other => panic!("expected ABORT at handshake, got {other:?}"),
    }
    assert_eq!(server.finish().n, 0);
}

/// Forged RESUME tokens against a live server are rejected with a typed
/// ABORT — no panic, no hijack — and a clean producer running alongside
/// drains exactly; the aggregate never absorbs anything from the forgers.
#[test]
fn forged_resume_tokens_never_hijack_a_session() {
    let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
        .build(&[5, 3, 4], 1.5)
        .unwrap();
    let server = WireServer::bind(
        "127.0.0.1:0",
        solution.clone(),
        ServerConfig::default().shards(2),
    )
    .unwrap();
    let fingerprint = solution.fingerprint();

    // A clean producer holds an open session while the forgers probe.
    let clean = TcpStream::connect(server.local_addr()).unwrap();
    let mut clean_reader = std::io::BufReader::new(clean.try_clone().unwrap());
    let mut clean_writer = clean;
    write_frame(
        &mut clean_writer,
        &Frame::Hello {
            fingerprint,
            auth: 0,
        },
    )
    .unwrap();
    clean_writer.flush().unwrap();
    let clean_session = match read_frame(&mut clean_reader).unwrap() {
        Frame::HelloAck { session, .. } => session,
        other => panic!("expected HELLO_ACK, got {other:?}"),
    };
    let mut rng = StdRng::seed_from_u64(0xF06);
    let mut batch = CompactBatch::new();
    for uid in 0..30u64 {
        batch.push(uid, &solution.report(&[0, 1, 2], &mut rng));
    }
    write_frame(&mut clean_writer, &Frame::BatchSeq { seq: 1, batch }).unwrap();
    clean_writer.flush().unwrap();

    // Forgers: random tokens, the zero sentinel, and the clean producer's
    // own (still-owned) token — every probe must come back as an ABORT.
    let mut probe_rng = 0x5EED_u64;
    let mut probes: Vec<(u64, u64)> = (0..8)
        .map(|_| {
            probe_rng = probe_rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            (probe_rng, probe_rng >> 32)
        })
        .collect();
    probes.push((0, 0));
    probes.push((clean_session, 99));
    for (session, last_acked) in probes {
        let stream = TcpStream::connect(server.local_addr()).unwrap();
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
        write_frame(
            &mut writer,
            &Frame::Resume {
                session,
                last_acked,
            },
        )
        .unwrap();
        writer.flush().unwrap();
        match read_frame(&mut reader).unwrap() {
            Frame::Abort { .. } => {}
            other => panic!("forged RESUME {session:#x} must abort, got {other:?}"),
        }
    }

    // The clean session is untouched by the probes: it finishes its drain
    // and the aggregate holds exactly its reports.
    write_frame(&mut clean_writer, &Frame::Drain).unwrap();
    clean_writer.flush().unwrap();
    loop {
        match read_frame(&mut clean_reader).unwrap() {
            Frame::BatchAck { .. } => continue,
            Frame::DrainAck { n } => {
                assert_eq!(n, 30);
                break;
            }
            other => panic!("expected DRAIN_ACK, got {other:?}"),
        }
    }
    server.wait_for_fleet(1);
    assert_eq!(server.finish().n, 30);
}

/// Replayed and out-of-order sequence numbers never double-ingest: a
/// duplicated BATCH_SEQ is discarded silently, a gapped one (or seq 0)
/// ABORTs the connection, and the aggregate only ever holds the contiguous acked
/// prefix.
#[test]
fn replayed_and_out_of_order_seqs_never_double_ingest() {
    let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
        .build(&[5, 3, 4], 1.5)
        .unwrap();
    let server = WireServer::bind(
        "127.0.0.1:0",
        solution.clone(),
        ServerConfig::default().shards(2),
    )
    .unwrap();
    let fingerprint = solution.fingerprint();
    let mut rng = StdRng::seed_from_u64(0xD0D0);
    let batch_of = |rng: &mut StdRng, base: u64| {
        let mut batch = CompactBatch::new();
        for uid in base..base + 10 {
            batch.push(uid, &solution.report(&[0, 1, 2], rng));
        }
        batch
    };

    // Session one: 1, 1 (replay), 2, 2 (replay), 3 → exactly 30 reports.
    let stream = TcpStream::connect(server.local_addr()).unwrap();
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
    let (b1, b2, b3) = (
        batch_of(&mut rng, 0),
        batch_of(&mut rng, 10),
        batch_of(&mut rng, 20),
    );
    for (seq, batch) in [(1, b1.clone()), (1, b1), (2, b2.clone()), (2, b2), (3, b3)] {
        write_frame(&mut writer, &Frame::BatchSeq { seq, batch }).unwrap();
    }
    write_frame(&mut writer, &Frame::Drain).unwrap();
    writer.flush().unwrap();
    loop {
        match read_frame(&mut reader).unwrap() {
            Frame::BatchAck { .. } => continue,
            Frame::DrainAck { n } => {
                assert_eq!(n, 30, "replays must be deduplicated");
                break;
            }
            other => panic!("expected DRAIN_ACK, got {other:?}"),
        }
    }

    // Session two: a gap (first frame seq 5) is a protocol violation — the
    // connection ABORTs and nothing lands.
    let stream = TcpStream::connect(server.local_addr()).unwrap();
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
    write_frame(
        &mut writer,
        &Frame::BatchSeq {
            seq: 5,
            batch: batch_of(&mut rng, 0),
        },
    )
    .unwrap();
    writer.flush().unwrap();
    match read_frame(&mut reader).unwrap() {
        Frame::Abort { code, .. } => assert_eq!(code, ldp_server::ABORT_PROTOCOL),
        other => panic!("expected ABORT on gapped seq, got {other:?}"),
    }

    // Session three: sequence numbers are 1-based, so seq 0 on a fresh
    // session is a protocol violation, not a replay of "nothing acked". The
    // DRAIN behind it must never be answered.
    let stream = TcpStream::connect(server.local_addr()).unwrap();
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
    write_frame(
        &mut writer,
        &Frame::BatchSeq {
            seq: 0,
            batch: batch_of(&mut rng, 0),
        },
    )
    .unwrap();
    write_frame(&mut writer, &Frame::Drain).unwrap();
    writer.flush().unwrap();
    match read_frame(&mut reader).unwrap() {
        Frame::Abort { code, .. } => assert_eq!(code, ldp_server::ABORT_PROTOCOL),
        other => panic!("expected ABORT on seq 0, got {other:?}"),
    }

    server.wait_for_fleet(1);
    assert_eq!(server.finish().n, 30, "the gapped session must not land");
}

/// The retired unsequenced BATCH frame (type 2) is an unknown frame type:
/// a legacy producer's batch under a well-formed header (magic, version,
/// length and CRC all valid) decodes to a typed
/// [`WireError::UnknownFrameType`], and a live server ABORTs the connection
/// with `ABORT_PROTOCOL` without ingesting a report of it.
#[test]
fn retired_batch_frame_type_is_rejected() {
    let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
        .build(&[5, 3, 4], 1.5)
        .unwrap();
    let mut rng = StdRng::seed_from_u64(0xBA7C);
    let mut batch = CompactBatch::new();
    for uid in 0..20u64 {
        batch.push(uid, &solution.report(&[1, 2, 3], &mut rng));
    }
    let mut payload = Vec::new();
    batch.encode_into(&mut payload);
    let mut frame = Vec::new();
    frame.extend_from_slice(&WIRE_MAGIC.to_le_bytes());
    frame.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    frame.extend_from_slice(&[2, 0]); // frame type 2, no flags
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    assert!(matches!(
        read_frame(&mut &frame[..]),
        Err(WireError::UnknownFrameType(2))
    ));

    let server = WireServer::bind(
        "127.0.0.1:0",
        solution.clone(),
        ServerConfig::default().shards(2),
    )
    .unwrap();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    write_frame(
        &mut writer,
        &Frame::Hello {
            fingerprint: solution.fingerprint(),
            auth: 0,
        },
    )
    .unwrap();
    writer.flush().unwrap();
    assert!(matches!(
        read_frame(&mut reader).unwrap(),
        Frame::HelloAck { .. }
    ));
    writer.write_all(&frame).unwrap();
    writer.flush().unwrap();
    match read_frame(&mut reader).unwrap() {
        Frame::Abort { code, message } => {
            assert_eq!(code, ABORT_PROTOCOL, "unexpected abort: {message}");
        }
        other => panic!("expected ABORT for a type-2 frame, got {other:?}"),
    }
    assert_eq!(server.finish().n, 0, "no report of a type-2 frame may land");
}

/// A representative fault-tolerant session byte stream (HELLO, RESUME,
/// sequenced batches, acks) to mutate — the resume-grammar twin of
/// [`session_bytes`].
fn resume_session_bytes(seed: u64, reports: u64) -> Vec<u8> {
    let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
        .build(&[5, 3, 4], 1.5)
        .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch = CompactBatch::new();
    for uid in 0..reports {
        batch.push(uid, &solution.report(&[1, 2, 3], &mut rng));
    }
    let frames = [
        Frame::Hello {
            fingerprint: solution.fingerprint(),
            auth: seed ^ 0xA11,
        },
        Frame::HelloAck {
            fingerprint: solution.fingerprint(),
            shards: 2,
            session: seed.wrapping_mul(0x9E37_79B9) | 1,
            ack_every: 32,
        },
        Frame::Resume {
            session: seed | 1,
            last_acked: reports,
        },
        Frame::ResumeAck { acked_seq: reports },
        Frame::BatchSeq {
            seq: reports + 1,
            batch,
        },
        Frame::BatchAck {
            seq: reports + 1,
            n: reports,
        },
        Frame::Drain,
    ];
    let mut stream = Vec::new();
    let mut buf = Vec::new();
    for frame in &frames {
        encode_frame(frame, &mut buf);
        stream.extend_from_slice(&buf);
    }
    stream
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Mutated fault-tolerance frames (RESUME / RESUME_ACK / BATCH_SEQ /
    /// BATCH_ACK) decode to typed errors or valid frames — never a panic.
    #[test]
    fn mutated_resume_streams_never_panic(
        seed in 0u64..50,
        reports in 0u64..60,
        flips in prop::collection::vec((0usize..4096, 1u8..255), 1..12),
    ) {
        let mut bytes = resume_session_bytes(seed, reports);
        for &(pos, xor) in &flips {
            let pos = pos % bytes.len();
            bytes[pos] ^= xor;
        }
        drain_stream(&bytes);
    }

    /// Every truncation point of a resume-grammar stream fails typed: a
    /// clean Closed at a frame boundary or Truncated mid-frame.
    #[test]
    fn truncated_resume_streams_fail_typed(
        seed in 0u64..50,
        reports in 1u64..40,
        cut in 0usize..100_000,
    ) {
        let bytes = resume_session_bytes(seed, reports);
        let cut = cut % bytes.len();
        let (_, err) = drain_stream(&bytes[..cut]);
        match err {
            None | Some(WireError::Truncated) => {}
            Some(other) => panic!("cut at {cut}: unexpected {other:?}"),
        }
    }

    /// Arbitrary byte flips anywhere in a valid session stream decode to a
    /// typed error or to (possibly fewer) valid frames — never a panic.
    #[test]
    fn mutated_streams_never_panic(
        seed in 0u64..50,
        reports in 0u64..60,
        flips in prop::collection::vec((0usize..4096, 1u8..255), 1..12),
    ) {
        let mut bytes = session_bytes(seed, reports);
        for &(pos, xor) in &flips {
            let pos = pos % bytes.len();
            bytes[pos] ^= xor;
        }
        drain_stream(&bytes);
    }

    /// Every truncation point yields Closed (at a frame boundary) or a
    /// typed mid-frame error on the last frame — all earlier frames decode.
    #[test]
    fn truncated_streams_fail_typed(
        seed in 0u64..50,
        reports in 1u64..40,
        cut in 0usize..100_000,
    ) {
        let bytes = session_bytes(seed, reports);
        let cut = cut % bytes.len();
        let (_, err) = drain_stream(&bytes[..cut]);
        // A strict prefix can never decode the full 5-frame session; it
        // must end in a clean Closed or a Truncated/Payload-class error.
        match err {
            None | Some(WireError::Truncated) => {}
            Some(other) => panic!("cut at {cut}: unexpected {other:?}"),
        }
    }

    /// Pure garbage (random bytes) is rejected without panicking.
    #[test]
    fn garbage_streams_fail_typed(
        bytes in prop::collection::vec(0u8..255, 0..512),
    ) {
        drain_stream(&bytes);
    }

    /// Mixed-solution sessions (numeric fixed-point entries on the wire) are
    /// as mutation-robust as categorical ones: flips decode to typed errors
    /// or valid frames, never a panic.
    #[test]
    fn mutated_mixed_streams_never_panic(
        seed in 0u64..50,
        reports in 0u64..60,
        flips in prop::collection::vec((0usize..4096, 1u8..255), 1..12),
    ) {
        let mut bytes = mixed_session_bytes(seed, reports);
        for &(pos, xor) in &flips {
            let pos = pos % bytes.len();
            bytes[pos] ^= xor;
        }
        drain_stream(&bytes);
    }

    /// End-to-end: a live server fed a mutated session over a real socket
    /// never panics, never hangs, and never lets a corrupt frame's
    /// envelopes into the aggregate — the drained count stays at what valid
    /// prefix frames delivered, and a parallel clean producer is unharmed.
    #[test]
    fn live_server_survives_mutated_sessions(
        seed in 0u64..20,
        reports in 1u64..40,
        flips in prop::collection::vec((16usize..4096, 1u8..255), 1..4),
    ) {
        let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
            .build(&[5, 3, 4], 1.5)
            .unwrap();
        let server = WireServer::bind(
            "127.0.0.1:0",
            solution.clone(),
            ServerConfig::default().shards(2),
        )
        .unwrap();

        // Mutate past the HELLO frame (16-byte header + 16-byte payload) so
        // the session opens, then corrupt the rest.
        let mut bytes = session_bytes(seed, reports);
        for &(pos, xor) in &flips {
            let pos = 32 + pos % (bytes.len() - 32);
            bytes[pos] ^= xor;
        }
        let mut mutated = TcpStream::connect(server.local_addr()).unwrap();
        mutated.write_all(&bytes).unwrap();
        // Either the server aborts us mid-write (fine) or reads to the end.
        let _ = mutated.shutdown(std::net::Shutdown::Write);

        // A clean producer alongside must be able to drain exactly.
        let clean = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = std::io::BufReader::new(clean.try_clone().unwrap());
        let mut writer = clean;
        write_frame(&mut writer, &Frame::Hello {
            fingerprint: solution.fingerprint(),
            auth: 0,
        })
        .unwrap();
        writer.flush().unwrap();
        prop_assert!(matches!(read_frame(&mut reader).unwrap(), Frame::HelloAck { .. }));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC1EA);
        let mut batch = CompactBatch::new();
        for uid in 0..25u64 {
            batch.push(uid, &solution.report(&[0, 1, 2], &mut rng));
        }
        write_frame(&mut writer, &Frame::BatchSeq { seq: 1, batch }).unwrap();
        write_frame(&mut writer, &Frame::Drain).unwrap();
        writer.flush().unwrap();
        prop_assert!(matches!(read_frame(&mut reader).unwrap(), Frame::DrainAck { n: 25 }));

        drop(mutated);
        server.wait_for_fleet(1);
        let snapshot = server.finish();
        // The clean producer's 25 reports always land; the mutated session
        // contributes its valid prefix frames only (0 or `reports`).
        prop_assert!(
            snapshot.n == 25 || snapshot.n == 25 + reports,
            "drained n = {} with reports = {}", snapshot.n, reports
        );
    }
}
