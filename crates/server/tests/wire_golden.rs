//! Golden wire bytes: what producers send, pinned byte for byte.
//!
//! For every solution kind plus two mixed kinds, a seeded producer session
//! of [`USERS`] users — HELLO, two BATCH_SEQ frames built with
//! [`CompactBatch::push_wire`], EPOCH, SNAPSHOT_REQUEST and DRAIN — must
//! encode to exactly the raw bytes committed under
//! `tests/golden/v{WIRE_VERSION}/<kind>.bin`. The bytes are then read back
//! through [`read_frame`] and the server's checked decode
//! ([`CompactBatch::decode_for`]), absorbed, and the estimates' `f64` bits
//! compared with `<kind>.est`.
//!
//! Rules, as for the golden figure hashes: a change of the frame or entry
//! layout bumps [`WIRE_VERSION`] and adds a new fixture directory (written
//! by the ignored `write_fixtures_for_a_new_wire_version` test, which never
//! overwrites one), and a fixture is never regenerated to get a pass.

use std::collections::BTreeSet;
use std::path::PathBuf;

use ldp_core::solutions::{
    CompactBatch, DynSolution, MixedKind, RsFdProtocol, RsRfdProtocol, SolutionKind,
};
use ldp_core::NumericKind;
use ldp_protocols::ProtocolKind;
use ldp_server::wire::{encode_batch_seq_frame, encode_frame, read_frame, Frame, WIRE_VERSION};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Users per session, split over two BATCH_SEQ frames.
const USERS: u64 = 12;
/// Categorical domains: one past a 64-lane block, so bit vectors span two.
const KS: [usize; 3] = [4, 3, 70];
/// A mixed schema: two categorical and two numeric (`0`) dimensions.
const MIXED_KS: [usize; 4] = [5, 0, 70, 0];
const EPSILON: f64 = 1.0;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("v{WIRE_VERSION}"))
}

/// Every solution the sessions cover: all SPL, SMP, RS+FD and RS+RFD kinds
/// (RS+RFD over non-uniform priors, which its fingerprint hashes) and two
/// mixed kinds, each with a file-system-safe fixture name.
fn solutions() -> Vec<(String, DynSolution)> {
    let mut out: Vec<DynSolution> = Vec::new();
    for p in ProtocolKind::ALL {
        out.push(SolutionKind::Spl(p).build(&KS, EPSILON).unwrap());
        out.push(SolutionKind::Smp(p).build(&KS, EPSILON).unwrap());
    }
    for p in RsFdProtocol::ALL {
        out.push(SolutionKind::RsFd(p).build(&KS, EPSILON).unwrap());
    }
    let priors: Vec<Vec<f64>> = KS
        .iter()
        .map(|&k| {
            let total = (k * (k + 1) / 2) as f64;
            (1..=k).map(|v| v as f64 / total).collect()
        })
        .collect();
    for p in RsRfdProtocol::ALL {
        let kind = SolutionKind::RsRfd(p);
        out.push(
            kind.build_with_priors(&KS, EPSILON, priors.clone())
                .unwrap(),
        );
    }
    for (protocol, numeric, sample_k) in [
        (ProtocolKind::Olh, NumericKind::Duchi, 2),
        (ProtocolKind::Sue, NumericKind::Hybrid, 3),
    ] {
        let kind = SolutionKind::Mixed(MixedKind {
            protocol,
            numeric,
            sample_k,
        });
        out.push(kind.build(&MIXED_KS, EPSILON).unwrap());
    }
    out.into_iter()
        .map(|solution| {
            let name: String = solution
                .name()
                .to_lowercase()
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect();
            (name.trim_matches('_').to_string(), solution)
        })
        .collect()
}

/// One producer session's bytes: each user sanitizes on its own seeded
/// stream, users `0..USERS/2` go in BATCH_SEQ 1 and the rest in 2.
fn session(solution: &DynSolution) -> Vec<u8> {
    let mut stream = Vec::new();
    let mut buf = Vec::new();
    let mut frame = |frame: &Frame, stream: &mut Vec<u8>| {
        encode_frame(frame, &mut buf);
        stream.extend_from_slice(&buf);
    };
    frame(
        &Frame::Hello {
            fingerprint: solution.fingerprint(),
            auth: 0,
        },
        &mut stream,
    );
    let mut batch = CompactBatch::new();
    let mut seq_buf = Vec::new();
    for (seq, users) in [(1, 0..USERS / 2), (2, USERS / 2..USERS)] {
        batch.clear();
        for uid in users {
            let mut rng = StdRng::seed_from_u64(0x601D_0000 + uid);
            let cat: Vec<u32> = solution
                .ks()
                .iter()
                .enumerate()
                .filter(|&(_, &k)| k > 0)
                .map(|(j, &k)| ((uid as usize * 7 + j) % k) as u32)
                .collect();
            let report = match solution {
                DynSolution::Mixed(_) => {
                    let num = [uid as f64 / USERS as f64 - 0.5, 0.75];
                    solution.report_mixed(&cat, &num, &mut rng).unwrap()
                }
                _ => solution.report(&cat, &mut rng),
            };
            batch.push_wire(uid, &report);
        }
        encode_batch_seq_frame(seq, &batch, &mut seq_buf);
        stream.extend_from_slice(&seq_buf);
    }
    for control in [
        Frame::Epoch { round: 0 },
        Frame::SnapshotRequest { quiesce: false },
        Frame::Drain,
    ] {
        frame(&control, &mut stream);
    }
    stream
}

/// Reads a session back frame by frame: every frame through [`read_frame`],
/// every batch again through the server's checked decode against
/// `solution`, absorbed. Returns the estimates' bits, one line each.
fn read_back(name: &str, bytes: &[u8], solution: &DynSolution) -> String {
    let mut agg = solution.aggregator();
    let mut kinds = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at + 8..at + 12].try_into().unwrap()) as usize;
        let frame_bytes = &bytes[at..at + 16 + len];
        let frame = read_frame(&mut &frame_bytes[..]).unwrap_or_else(|e| panic!("{name}: {e}"));
        if let Frame::BatchSeq { batch, .. } = &frame {
            let checked = CompactBatch::decode_for(&frame_bytes[24..], solution)
                .unwrap_or_else(|e| panic!("{name}: the server refuses its own batch: {e}"));
            assert_eq!(&checked, batch, "{name}");
            agg.absorb_compact(&checked);
        }
        kinds.push(std::mem::discriminant(&frame));
        at += 16 + len;
    }
    assert_eq!(
        kinds.len(),
        6,
        "{name}: HELLO, 2 BATCH_SEQ, EPOCH, SNAPSHOT_REQUEST, DRAIN"
    );
    assert_eq!(agg.n(), USERS, "{name}");
    agg.estimate()
        .iter()
        .flatten()
        .map(|f| format!("{:016x}\n", f.to_bits()))
        .collect()
}

#[test]
fn producer_sessions_match_the_golden_bytes_and_estimates() {
    let dir = golden_dir();
    assert!(
        dir.is_dir(),
        "{} is missing: every WIRE_VERSION needs its golden sessions",
        dir.display()
    );
    let mut expected_files = BTreeSet::new();
    for (name, solution) in solutions() {
        let bytes = session(&solution);
        let golden = std::fs::read(dir.join(format!("{name}.bin")))
            .unwrap_or_else(|e| panic!("{name}.bin: {e}"));
        if bytes != golden {
            let at = bytes.iter().zip(&golden).position(|(a, b)| a != b);
            panic!(
                "{name}: session bytes differ from the golden fixture (first at byte {at:?}, \
                 {} B vs {} B golden)",
                bytes.len(),
                golden.len()
            );
        }
        let estimates = read_back(&name, &golden, &solution);
        let pinned = std::fs::read_to_string(dir.join(format!("{name}.est")))
            .unwrap_or_else(|e| panic!("{name}.est: {e}"));
        assert_eq!(
            estimates, pinned,
            "{name}: estimates differ from the pinned bits"
        );
        expected_files.insert(format!("{name}.bin"));
        expected_files.insert(format!("{name}.est"));
    }
    let on_disk: BTreeSet<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(
        on_disk, expected_files,
        "fixtures without a session, or missing"
    );
}

/// Writes the fixtures of a new `WIRE_VERSION`. Run it by name with
/// `--ignored` after bumping the version; it refuses to touch a directory
/// that exists, so committed fixtures are never regenerated.
#[test]
#[ignore = "writes the fixtures of a new WIRE_VERSION"]
fn write_fixtures_for_a_new_wire_version() {
    let dir = golden_dir();
    assert!(
        !dir.exists(),
        "{} exists: fixtures are never regenerated",
        dir.display()
    );
    std::fs::create_dir_all(&dir).unwrap();
    for (name, solution) in solutions() {
        let bytes = session(&solution);
        let estimates = read_back(&name, &bytes, &solution);
        std::fs::write(dir.join(format!("{name}.bin")), &bytes).unwrap();
        std::fs::write(dir.join(format!("{name}.est")), estimates).unwrap();
    }
}
