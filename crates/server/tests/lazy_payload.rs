//! A frame header that declares the largest payload the wire allows must
//! not commit that much memory before the payload's bytes arrive: the
//! reader grows its buffer by a zeroed allocation, which the OS backs with
//! lazy zero pages, so a forged 16-byte header costs a peer nothing to send
//! and the server nothing to hold. Kept alone in its own test binary so no
//! other test's allocations move the resident set it measures; Linux only,
//! since it reads the resident set from `/proc/self/status`.
#![cfg(target_os = "linux")]

use std::io::Read;

use ldp_server::wire::{read_frame, WireError, MAX_PAYLOAD, WIRE_MAGIC, WIRE_VERSION};

/// This process's resident set size in KiB.
fn resident_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status
        .lines()
        .find(|line| line.starts_with("VmRSS:"))
        .expect("a VmRSS line");
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

/// A peer that sends one frame header and then hangs up. The first read of
/// the payload samples the resident set — the payload buffer exists by
/// then, and not one of its bytes has arrived.
struct HeaderOnly {
    header: [u8; 16],
    sent: usize,
    resident_at_payload: Option<u64>,
}

impl Read for HeaderOnly {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let rest = &self.header[self.sent..];
        if rest.is_empty() {
            self.resident_at_payload.get_or_insert_with(resident_kib);
            return Ok(0);
        }
        let n = rest.len().min(buf.len());
        buf[..n].copy_from_slice(&rest[..n]);
        self.sent += n;
        Ok(n)
    }
}

#[test]
fn a_forged_maximum_length_commits_no_memory_before_its_bytes_arrive() {
    let mut header = [0u8; 16];
    header[0..4].copy_from_slice(&WIRE_MAGIC.to_le_bytes());
    header[4..6].copy_from_slice(&WIRE_VERSION.to_le_bytes());
    // Type 0 (HELLO) and no flags: the first frame a server reads.
    header[8..12].copy_from_slice(&MAX_PAYLOAD.to_le_bytes());
    let mut peer = HeaderOnly {
        header,
        sent: 0,
        resident_at_payload: None,
    };
    let before = resident_kib();
    assert!(matches!(read_frame(&mut peer), Err(WireError::Truncated)));
    let grown_kib = peer.resident_at_payload.unwrap().saturating_sub(before);
    let declared_kib = u64::from(MAX_PAYLOAD) / 1024;
    assert!(
        grown_kib < declared_kib / 4,
        "a {declared_kib} KiB declared payload grew the resident set by {grown_kib} KiB \
         before any byte of it arrived"
    );
}
