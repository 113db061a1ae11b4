//! The versioned ingestion wire protocol: length-prefixed, checksummed
//! frames carrying [`CompactBatch`] envelopes and the session control
//! messages around them.
//!
//! ## Frame grammar
//!
//! Every frame is a fixed 16-byte header followed by `len` payload bytes,
//! all little-endian:
//!
//! ```text
//! offset  size  field
//!      0     4  magic     = 0x4C445057 ("LDPW")
//!      4     2  version   = 2
//!      6     1  frame type (see below)
//!      7     1  flags     (SNAPSHOT_REQUEST bit 0 = quiesce, no effect)
//!      8     4  payload length in bytes (≤ 64 MiB)
//!     12     4  CRC-32 (IEEE) over the payload bytes
//! ```
//!
//! | type | frame            | payload                                     |
//! |------|------------------|---------------------------------------------|
//! | 0    | HELLO            | fingerprint (u64) + auth digest (u64)        |
//! | 1    | HELLO_ACK        | fingerprint (u64) + shards (u32) + session token (u64) + ack interval (u32) |
//! | 2    | *(retired)*      | was the unsequenced BATCH; now rejected as [`WireError::UnknownFrameType`] |
//! | 3    | SNAPSHOT_REQUEST | empty (flags bit 0: quiesce, kept, no effect) |
//! | 4    | SNAPSHOT         | [`WireSnapshot`] (estimates + normalized)    |
//! | 5    | DRAIN            | empty — producer is done                     |
//! | 6    | DRAIN_ACK        | reports the server ingested for this session |
//! | 7    | ABORT            | error code (u16) + UTF-8 message             |
//! | 8    | EPOCH            | round index (u64) — epoch barrier / ack      |
//! | 9    | BATCH_SEQ        | sequence number (u64) + [`CompactBatch::encode_into`] bytes |
//! | 10   | BATCH_ACK        | cumulative acked seq (u64) + ingested (u64)  |
//! | 11   | RESUME           | session token (u64) + last acked seq (u64)   |
//! | 12   | RESUME_ACK       | server's cumulative acked seq (u64)          |
//!
//! The HELLO fingerprint is [`DynSolution::fingerprint`], a hash of the
//! solution identity the server's aggregators merge on (kind, domain sizes,
//! ε and RS+RFD's priors); a producer whose fingerprint differs is refused
//! with `ABORT_HANDSHAKE` before any report is read.
//!
//! A session is `HELLO → HELLO_ACK`, then any interleaving of `BATCH_SEQ`
//! and `SNAPSHOT_REQUEST → SNAPSHOT`, closed by
//! `DRAIN → DRAIN_ACK`. A longitudinal producer additionally sends
//! `EPOCH { round }` after its last batch of round `round`; the server holds
//! the frame at a fleet-wide barrier, rotates its epoch once every producer
//! has arrived, and acks with `EPOCH { round + 1 }` — the lockstep that
//! keeps a remote fleet's rounds aligned with the server's windowed
//! aggregation.
//!
//! ## Fault tolerance
//!
//! `BATCH_SEQ` carries a per-session sequence number starting at 1, strictly
//! monotone, gapless; seq 0 or a gap aborts the connection. The server acks
//! cumulatively with `BATCH_ACK { seq, n }` every
//! [`crate::ServerConfig::ack_every`] batches
//! (the interval is announced in HELLO_ACK), which bounds the producer's
//! in-flight bytes: a client keeps at most its replay-ring budget of sealed,
//! unacked frames and blocks for an ack once the ring fills. A reconnecting
//! producer re-handshakes and sends `RESUME { session, last_acked }` with
//! the token its original HELLO_ACK issued; the server answers
//! `RESUME_ACK { acked_seq }` from its bounded session table and silently
//! discards any replayed `1 ≤ seq ≤ acked_seq`, so ingest stays exactly-once.
//! Because every report is a pure function of `(seed, uid)` (see
//! `ldp_sim::user_rng`), a replayed batch is bit-identical to the lost one,
//! and a faulted fleet drain equals the clean run bit-for-bit.
//!
//! Version negotiation is deliberately blunt: the header pins version 2, and
//! a mismatch is rejected with a typed [`WireError::VersionMismatch`] before
//! any payload byte is interpreted — there is exactly one wire dialect per
//! build, ever, so "negotiation" is the client learning it speaks the wrong
//! one.
//!
//! Everything here is pure codec — no sockets. The blocking listener lives
//! in [`crate::net`]; the reader side works over any `std::io::Read`, which
//! is what the fuzz tests exploit to replay mutated byte streams without a
//! network.

use std::io::{Read, Write};

use ldp_core::solutions::{CompactBatch, CompactDecodeError, DynSolution};
use ldp_protocols::hash::mix2;

use crate::snapshot::ServerSnapshot;

/// Frame header magic: `b"LDPW"` read as a little-endian `u32`.
pub const WIRE_MAGIC: u32 = u32::from_le_bytes(*b"LDPW");

/// The (single) protocol version this build speaks.
pub const WIRE_VERSION: u16 = 2;

/// Hard cap on a frame payload — far above any sane batch (a default
/// 1024-report batch is a few hundred KiB), small enough that a forged
/// length cannot balloon server memory. The cap alone is not enough: a
/// payload buffer must grow by a zeroed allocation (`vec![0u8; len]`, which
/// the OS backs with lazy zero pages) and never by writing the zeros, so
/// that a 16-byte header declaring `MAX_PAYLOAD` commits memory only as
/// the peer actually sends bytes — before any handshake has been checked.
pub const MAX_PAYLOAD: u32 = 64 << 20;

const FT_HELLO: u8 = 0;
const FT_HELLO_ACK: u8 = 1;
const FT_SNAPSHOT_REQUEST: u8 = 3;
const FT_SNAPSHOT: u8 = 4;
const FT_DRAIN: u8 = 5;
const FT_DRAIN_ACK: u8 = 6;
const FT_ABORT: u8 = 7;
const FT_EPOCH: u8 = 8;
const FT_BATCH_SEQ: u8 = 9;
const FT_BATCH_ACK: u8 = 10;
const FT_RESUME: u8 = 11;
const FT_RESUME_ACK: u8 = 12;

const FLAG_QUIESCE: u8 = 1;

/// Why a frame could not be read or decoded. Every variant is a *handled*
/// failure: the connection that produced it is closed (with a best-effort
/// [`Frame::Abort`]) and the server keeps serving everyone else — malformed
/// input never panics and never reaches an aggregator shard.
#[derive(Debug)]
pub enum WireError {
    /// The underlying transport failed.
    Io(std::io::Error),
    /// The peer closed the stream cleanly *between* frames.
    Closed,
    /// The stream ended mid-frame.
    Truncated,
    /// A configured read deadline expired while waiting for the peer — the
    /// typed face of `WouldBlock`/`TimedOut`, so a hung peer surfaces as a
    /// handled, retryable condition instead of a generic transport error.
    Timeout,
    /// The header does not start with [`WIRE_MAGIC`].
    BadMagic(u32),
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// Version claimed by the peer's frame header.
        got: u16,
    },
    /// Unknown frame type byte.
    UnknownFrameType(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversize(u32),
    /// Payload bytes do not hash to the header's CRC-32.
    ChecksumMismatch {
        /// CRC the header promised.
        expected: u32,
        /// CRC of the bytes actually received.
        got: u32,
    },
    /// A control frame's payload is malformed.
    Payload(String),
    /// A BATCH_SEQ payload failed [`CompactBatch::decode_from`], or on the
    /// server [`CompactBatch::decode_for`] against its solution.
    Batch(CompactDecodeError),
    /// Handshake violation: missing HELLO, or a solution fingerprint that
    /// does not match the server's.
    Handshake(String),
    /// The peer reported an error of its own via [`Frame::Abort`].
    Remote {
        /// Peer-assigned error code.
        code: u16,
        /// Peer-supplied description.
        message: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport error: {e}"),
            WireError::Closed => write!(f, "peer closed the connection"),
            WireError::Truncated => write!(f, "stream ended mid-frame"),
            WireError::Timeout => write!(f, "read deadline expired waiting for the peer"),
            WireError::BadMagic(got) => write!(f, "bad frame magic {got:#010x}"),
            WireError::VersionMismatch { got } => {
                write!(
                    f,
                    "peer speaks wire version {got}, this build speaks {WIRE_VERSION}"
                )
            }
            WireError::UnknownFrameType(t) => write!(f, "unknown frame type {t}"),
            WireError::Oversize(len) => {
                write!(f, "payload of {len} B exceeds the {MAX_PAYLOAD} B cap")
            }
            WireError::ChecksumMismatch { expected, got } => {
                write!(
                    f,
                    "payload CRC {got:#010x} does not match header {expected:#010x}"
                )
            }
            WireError::Payload(reason) => write!(f, "malformed frame payload: {reason}"),
            WireError::Batch(e) => write!(f, "malformed batch: {e}"),
            WireError::Handshake(reason) => write!(f, "handshake violation: {reason}"),
            WireError::Remote { code, message } => {
                write!(f, "peer aborted (code {code}): {message}")
            }
        }
    }
}

impl WireError {
    /// Whether the connection failed under the frames rather than in them:
    /// an I/O error, a close, a mid-frame truncation or an expired read
    /// deadline. These are the faults a producer recovers from by
    /// reconnecting and resuming; every other variant is a refusal of what
    /// a peer sent.
    pub fn is_transport(&self) -> bool {
        matches!(
            self,
            WireError::Io(_) | WireError::Closed | WireError::Truncated | WireError::Timeout
        )
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            WireError::Batch(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => WireError::Timeout,
            _ => WireError::Io(e),
        }
    }
}

impl From<CompactDecodeError> for WireError {
    fn from(e: CompactDecodeError) -> Self {
        WireError::Batch(e)
    }
}

/// One protocol message — see the [module docs](crate::wire) for the
/// session grammar.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server session opener carrying the client's solution
    /// fingerprint ([`DynSolution::fingerprint`]).
    Hello {
        /// Fingerprint of the solution the client sanitizes for.
        fingerprint: u64,
        /// Digest of the shared secret ([`auth_fingerprint`]); 0 means the
        /// client presented no token. A server configured with
        /// `ServerConfig::auth_token` rejects a mismatch with `ABORT_AUTH`.
        auth: u64,
    },
    /// Server → client handshake acceptance, echoing the fingerprint.
    HelloAck {
        /// The server's own solution fingerprint (equal on success).
        fingerprint: u64,
        /// The server's shard count, for producer diagnostics.
        shards: u32,
        /// Server-issued session token for [`Frame::Resume`]; 0 means the
        /// session table was full and this connection cannot resume.
        session: u64,
        /// The server acks every this-many `BATCH_SEQ` frames — clients
        /// size their replay ring at least this large so an ack is always
        /// owed before the ring fills.
        ack_every: u32,
    },
    /// Client → server request for the current merged estimates.
    SnapshotRequest {
        /// Kept so the frame bytes stay those of wire version 2; it has no
        /// effect. Every snapshot already covers everything the producer
        /// sent before the request, because it queues behind those batches
        /// on each shard.
        quiesce: bool,
    },
    /// Server → client incremental snapshot of the merged estimates.
    Snapshot(WireSnapshot),
    /// Client → server end-of-stream: drain this session.
    Drain,
    /// Server → client drain acknowledgment.
    DrainAck {
        /// Reports the server ingested over this connection.
        n: u64,
    },
    /// Either side → peer fatal error notification; the sender closes after.
    Abort {
        /// Machine-readable error code.
        code: u16,
        /// Human-readable description.
        message: String,
    },
    /// Epoch lockstep. Client → server: "I finished streaming round
    /// `round`" (held at the fleet barrier). Server → client: "the fleet
    /// advanced; the current round is now `round`".
    Epoch {
        /// Collection round index (see direction above).
        round: u64,
    },
    /// A compact-encoded batch of `(uid, report)` envelopes carrying its
    /// per-session sequence number, so the server can ack cumulatively and
    /// dedup replays after a reconnect — the one data frame.
    BatchSeq {
        /// 1-based, strictly monotone, gapless per-session sequence number.
        seq: u64,
        /// The batch itself.
        batch: CompactBatch,
    },
    /// Server → client cumulative acknowledgment: every `BATCH_SEQ` with
    /// `seq ≤ acked` has been durably ingested and may leave the client's
    /// replay ring.
    BatchAck {
        /// Highest contiguously ingested sequence number for this session.
        seq: u64,
        /// Reports ingested for this session so far (across reconnects).
        n: u64,
    },
    /// Client → server, immediately after a re-handshake: reclaim the
    /// session `session` and learn how far the server actually got.
    Resume {
        /// The token the original HELLO_ACK issued.
        session: u64,
        /// Highest seq the client saw acked before the fault (a lower bound
        /// on the server's state; the server may have ingested further).
        last_acked: u64,
    },
    /// Server → client resume acceptance.
    ResumeAck {
        /// The server's cumulative acked seq — the client replays
        /// everything after this and discards the rest of its ring.
        acked_seq: u64,
    },
}

impl Frame {
    /// The frame's name on the wire, e.g. `"BATCH_SEQ"`: what an error
    /// says about a frame it did not expect, without dumping the frame.
    pub fn name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "HELLO",
            Frame::HelloAck { .. } => "HELLO_ACK",
            Frame::SnapshotRequest { .. } => "SNAPSHOT_REQUEST",
            Frame::Snapshot(_) => "SNAPSHOT",
            Frame::Drain => "DRAIN",
            Frame::DrainAck { .. } => "DRAIN_ACK",
            Frame::Abort { .. } => "ABORT",
            Frame::Epoch { .. } => "EPOCH",
            Frame::BatchSeq { .. } => "BATCH_SEQ",
            Frame::BatchAck { .. } => "BATCH_ACK",
            Frame::Resume { .. } => "RESUME",
            Frame::ResumeAck { .. } => "RESUME_ACK",
        }
    }
}

/// The over-the-wire projection of a [`ServerSnapshot`]: the merged counts'
/// estimates without the aggregator itself (which never leaves the server).
#[derive(Debug, Clone, PartialEq)]
pub struct WireSnapshot {
    /// Reports absorbed server-wide at snapshot time.
    pub n: u64,
    /// Server shard count.
    pub shards: u32,
    /// Unbiased per-attribute frequency estimates.
    pub estimates: Vec<Vec<f64>>,
    /// Estimates projected onto the probability simplex.
    pub normalized: Vec<Vec<f64>>,
}

impl From<&ServerSnapshot> for WireSnapshot {
    fn from(snapshot: &ServerSnapshot) -> Self {
        WireSnapshot {
            n: snapshot.n,
            shards: snapshot.shards as u32,
            estimates: snapshot.estimates.clone(),
            normalized: snapshot.normalized.clone(),
        }
    }
}

/// Digest of a shared-secret auth token, carried in [`Frame::Hello`]. Never
/// returns 0 — the zero digest unambiguously means "no token presented", so
/// an empty-string token still authenticates as *something*. This is an
/// integrity check against misconfigured producers, not a cryptographic MAC:
/// the threat model is the same trusted network the rest of the wire tier
/// assumes, and the digest only keeps the wrong fleet out of the wrong
/// aggregator.
pub fn auth_fingerprint(token: &str) -> u64 {
    let mut h = mix2(0xA117_5EC2, token.len() as u64);
    for b in token.bytes() {
        h = mix2(h, u64::from(b));
    }
    if h == 0 {
        1
    } else {
        h
    }
}

/// CRC-32 (IEEE 802.3, reflected) slice-by-8 lookup tables, built at
/// compile time — the workspace vendors no checksum crate. `CRC_TABLES[0]`
/// is the classic bytewise table; `CRC_TABLES[t][i]` advances
/// `CRC_TABLES[0][i]` by `t` further zero bytes, so eight table lookups fold
/// eight input bytes per step instead of one. They drive [`crc32_update`],
/// the table path: the whole checksum off x86_64, on CPUs without
/// PCLMULQDQ and for inputs shorter than 64 bytes (every control frame),
/// and the sub-16-byte tail of the folded kernel.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// Shortest input [`crc32`] hands to the folded kernel: the 64 bytes it
/// needs to load its four accumulators. From there on it beats the table
/// path (13 against 40 ns at 64 bytes on a 2-vCPU Xeon VM), so a
/// producer's small final batch frame folds too. Control frames (0–24
/// bytes) stay on the table path.
#[cfg(target_arch = "x86_64")]
const CRC_FOLD_MIN_LEN: usize = 64;

/// CRC-32 (IEEE) of `bytes` — the checksum carried in every frame header.
/// On x86_64 CPUs with PCLMULQDQ and SSE4.1 (detected at run time), an
/// input of at least 64 bytes goes through `crc32_folded`, the
/// carry-less-multiply kernel; everything else takes the slice-by-8 table
/// path `crc32_update`. Both yield the plain bytewise CRC bit for bit.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if bytes.len() >= CRC_FOLD_MIN_LEN
            && is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("sse4.1")
        {
            // SAFETY: `crc32_folded` is safe apart from its target features,
            // and both were detected on this CPU just above.
            #[allow(unsafe_code)]
            let state = unsafe { crc32_folded(!0, bytes) };
            return !state;
        }
    }
    !crc32_update(!0, bytes)
}

/// Advances the CRC-32 register `state` (pre- and post-inversion are the
/// caller's) over `bytes` by the slice-by-8 table path: eight bytes per step
/// through `CRC_TABLES`, then the remainder bytewise.
fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = state;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][chunk[4] as usize]
            ^ t[2][chunk[5] as usize]
            ^ t[1][chunk[6] as usize]
            ^ t[0][chunk[7] as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Advances the CRC-32 register `state` over `bytes` (at least 64 of them)
/// by carry-less multiplication, after Gopal et al., "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), in
/// its bit-reflected form. Four 128-bit accumulators fold 64 bytes per step,
/// collapse into one that folds the remaining 16-byte blocks, and a
/// 128→64-bit fold plus a Barrett reduction bring it to 32 bits; the last
/// `len % 16` bytes go through [`crc32_update`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq,sse4.1")]
fn crc32_folded(state: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };
    // x^e mod P(x) for the IEEE polynomial, bit-reflected and shifted left
    // by one, as the reflected fold needs: K1/K2 fold across four blocks
    // (e = 4·128 ± 32), K3/K4 across one (e = 128 ± 32), K5 64 → 32 bits
    // (e = 64); P is the polynomial and MU = ⌊x^64 / P(x)⌋, both reflected.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    const K5: i64 = 0x1_63CD_6124;
    const P: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// 16 input bytes as one little-endian lane pair.
    #[target_feature(enable = "sse2")]
    fn load(block: &[u8]) -> __m128i {
        let lo = u64::from_le_bytes(block[..8].try_into().expect("8-byte slice"));
        let hi = u64::from_le_bytes(block[8..16].try_into().expect("8-byte slice"));
        _mm_set_epi64x(hi as i64, lo as i64)
    }
    /// `acc` carried forward by the distance `k` encodes, plus `data`.
    #[target_feature(enable = "pclmulqdq")]
    fn fold(acc: __m128i, data: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
        _mm_xor_si128(_mm_xor_si128(data, lo), hi)
    }

    let (head, body) = bytes.split_at(64);
    let mut x = [0, 1, 2, 3].map(|i| load(&head[16 * i..]));
    x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));
    let k1k2 = _mm_set_epi64x(K2, K1);
    let mut blocks = body.chunks_exact(64);
    for block in &mut blocks {
        for (i, acc) in x.iter_mut().enumerate() {
            *acc = fold(*acc, load(&block[16 * i..]), k1k2);
        }
    }
    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut acc = fold(fold(fold(x[0], x[1], k3k4), x[2], k3k4), x[3], k3k4);
    let mut rest = blocks.remainder().chunks_exact(16);
    for block in &mut rest {
        acc = fold(acc, load(block), k3k4);
    }

    let low32 = _mm_set_epi32(0, 0, 0, -1);
    let acc = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x10>(acc, k3k4),
        _mm_srli_si128::<8>(acc),
    );
    let acc = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5)),
        _mm_srli_si128::<4>(acc),
    );
    let pmu = _mm_set_epi64x(MU, P);
    let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), pmu);
    let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pmu);
    let folded = _mm_extract_epi32::<1>(_mm_xor_si128(acc, t2)) as u32;
    crc32_update(folded, rest.remainder())
}

/// Serializes `frame` into `buf` (cleared first), returning the encoded
/// length. The buffer is reusable across calls — steady-state batch
/// streaming re-serializes into the same allocation.
pub fn encode_frame(frame: &Frame, buf: &mut Vec<u8>) -> usize {
    buf.clear();
    buf.extend_from_slice(&[0u8; 16]);
    let (ftype, flags) = match frame {
        Frame::Hello { fingerprint, auth } => {
            buf.extend_from_slice(&fingerprint.to_le_bytes());
            buf.extend_from_slice(&auth.to_le_bytes());
            (FT_HELLO, 0)
        }
        Frame::HelloAck {
            fingerprint,
            shards,
            session,
            ack_every,
        } => {
            buf.extend_from_slice(&fingerprint.to_le_bytes());
            buf.extend_from_slice(&shards.to_le_bytes());
            buf.extend_from_slice(&session.to_le_bytes());
            buf.extend_from_slice(&ack_every.to_le_bytes());
            (FT_HELLO_ACK, 0)
        }
        Frame::SnapshotRequest { quiesce } => {
            (FT_SNAPSHOT_REQUEST, if *quiesce { FLAG_QUIESCE } else { 0 })
        }
        Frame::Snapshot(snapshot) => {
            buf.extend_from_slice(&snapshot.n.to_le_bytes());
            buf.extend_from_slice(&snapshot.shards.to_le_bytes());
            buf.extend_from_slice(&(snapshot.estimates.len() as u32).to_le_bytes());
            for (est, norm) in snapshot.estimates.iter().zip(&snapshot.normalized) {
                buf.extend_from_slice(&(est.len() as u32).to_le_bytes());
                for &v in est {
                    buf.extend_from_slice(&v.to_bits().to_le_bytes());
                }
                for &v in norm {
                    buf.extend_from_slice(&v.to_bits().to_le_bytes());
                }
            }
            (FT_SNAPSHOT, 0)
        }
        Frame::Drain => (FT_DRAIN, 0),
        Frame::DrainAck { n } => {
            buf.extend_from_slice(&n.to_le_bytes());
            (FT_DRAIN_ACK, 0)
        }
        Frame::Abort { code, message } => {
            buf.extend_from_slice(&code.to_le_bytes());
            buf.extend_from_slice(message.as_bytes());
            (FT_ABORT, 0)
        }
        Frame::Epoch { round } => {
            buf.extend_from_slice(&round.to_le_bytes());
            (FT_EPOCH, 0)
        }
        Frame::BatchSeq { seq, batch } => {
            buf.extend_from_slice(&seq.to_le_bytes());
            batch.encode_into(buf);
            (FT_BATCH_SEQ, 0)
        }
        Frame::BatchAck { seq, n } => {
            buf.extend_from_slice(&seq.to_le_bytes());
            buf.extend_from_slice(&n.to_le_bytes());
            (FT_BATCH_ACK, 0)
        }
        Frame::Resume {
            session,
            last_acked,
        } => {
            buf.extend_from_slice(&session.to_le_bytes());
            buf.extend_from_slice(&last_acked.to_le_bytes());
            (FT_RESUME, 0)
        }
        Frame::ResumeAck { acked_seq } => {
            buf.extend_from_slice(&acked_seq.to_le_bytes());
            (FT_RESUME_ACK, 0)
        }
    };
    seal_frame(buf, ftype, flags)
}

/// [`encode_frame`] specialized to a BATCH_SEQ without constructing the
/// enum: the frame is serialized straight from the producer's reused
/// [`CompactBatch`] (no move, no clone) — the hot path of the
/// fault-tolerant client.
pub fn encode_batch_seq_frame(seq: u64, batch: &CompactBatch, buf: &mut Vec<u8>) -> usize {
    buf.clear();
    buf.extend_from_slice(&[0u8; 16]);
    buf.extend_from_slice(&seq.to_le_bytes());
    batch.encode_into(buf);
    seal_frame(buf, FT_BATCH_SEQ, 0)
}

/// Writes the 16-byte header over `buf[..16]` (magic, version, type, flags,
/// payload length, payload CRC) once the payload sits at `buf[16..]`.
fn seal_frame(buf: &mut [u8], ftype: u8, flags: u8) -> usize {
    let len = (buf.len() - 16) as u32;
    debug_assert!(len <= MAX_PAYLOAD, "encoder produced an oversize frame");
    let crc = crc32(&buf[16..]);
    buf[0..4].copy_from_slice(&WIRE_MAGIC.to_le_bytes());
    buf[4..6].copy_from_slice(&WIRE_VERSION.to_le_bytes());
    buf[6] = ftype;
    buf[7] = flags;
    buf[8..12].copy_from_slice(&len.to_le_bytes());
    buf[12..16].copy_from_slice(&crc.to_le_bytes());
    buf.len()
}

/// Encodes and writes one frame. Does **not** flush — callers batch frames
/// behind a `BufWriter` and flush at turnaround points.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), WireError> {
    let mut buf = Vec::new();
    encode_frame(frame, &mut buf);
    w.write_all(&buf)?;
    Ok(())
}

/// Reads and decodes exactly one frame, distinguishing a clean close at a
/// frame boundary ([`WireError::Closed`]) from a mid-frame truncation
/// ([`WireError::Truncated`]). The CRC is verified before any payload byte
/// is interpreted, so a flipped bit surfaces as
/// [`WireError::ChecksumMismatch`], never as a bogus decoded value. A
/// BATCH_SEQ batch is checked structurally ([`CompactBatch::decode_from`]);
/// the server reads through the same parser with its solution, which checks
/// each batch against it in the same pass ([`CompactBatch::decode_for`]).
pub fn read_frame(r: &mut impl Read) -> Result<Frame, WireError> {
    read_checked_frame(r, &mut Vec::new(), None)
}

/// [`read_frame`] over a caller-owned payload buffer that is reused from
/// frame to frame (it only grows, and is never zeroed again). With
/// `check = Some((solution, max_batch))`, a BATCH_SEQ batch of more than
/// `max_batch` reports is refused as [`WireError::Payload`] without being
/// checked against the solution, and any other is decoded by
/// [`CompactBatch::decode_for`], so it arrives checked against every shape
/// and domain rule of that solution and needs no second pass; a batch that
/// fails surfaces as [`WireError::Batch`].
pub(crate) fn read_checked_frame(
    r: &mut impl Read,
    payload: &mut Vec<u8>,
    check: Option<(&DynSolution, usize)>,
) -> Result<Frame, WireError> {
    let mut header = [0u8; 16];
    loop {
        match r.read(&mut header[..1]) {
            Ok(0) => return Err(WireError::Closed),
            Ok(_) => break,
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::from(e)),
        }
    }
    read_exact_or_truncated(r, &mut header[1..])?;
    let magic = u32::from_le_bytes(header[0..4].try_into().expect("4-byte slice"));
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(header[4..6].try_into().expect("2-byte slice"));
    if version != WIRE_VERSION {
        return Err(WireError::VersionMismatch { got: version });
    }
    let (ftype, flags) = (header[6], header[7]);
    let len = u32::from_le_bytes(header[8..12].try_into().expect("4-byte slice"));
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversize(len));
    }
    let expected_crc = u32::from_le_bytes(header[12..16].try_into().expect("4-byte slice"));
    let len = len as usize;
    if payload.len() < len {
        // A fresh zeroed allocation, not `resize`: see `MAX_PAYLOAD`.
        *payload = vec![0u8; len];
    }
    let payload = &mut payload[..len];
    read_exact_or_truncated(r, payload)?;
    let got_crc = crc32(payload);
    if got_crc != expected_crc {
        return Err(WireError::ChecksumMismatch {
            expected: expected_crc,
            got: got_crc,
        });
    }
    decode_payload(ftype, flags, payload, check)
}

fn read_exact_or_truncated(r: &mut impl Read, buf: &mut [u8]) -> Result<(), WireError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::from(e)
        }
    })
}

/// Decodes a CRC-verified payload into its frame. Every length is checked
/// before the corresponding bytes (or allocation) are touched, so even a
/// payload that *happens* to pass the CRC can only yield a typed error.
/// `check` picks the batch decoder (see [`read_checked_frame`]).
fn decode_payload(
    ftype: u8,
    flags: u8,
    payload: &[u8],
    check: Option<(&DynSolution, usize)>,
) -> Result<Frame, WireError> {
    let exact = |n: usize| -> Result<(), WireError> {
        if payload.len() == n {
            Ok(())
        } else {
            Err(WireError::Payload(format!(
                "frame type {ftype}: payload of {} B, expected {n} B",
                payload.len()
            )))
        }
    };
    match ftype {
        FT_HELLO => {
            exact(16)?;
            Ok(Frame::Hello {
                fingerprint: u64::from_le_bytes(payload[0..8].try_into().expect("8-byte slice")),
                auth: u64::from_le_bytes(payload[8..16].try_into().expect("8-byte slice")),
            })
        }
        FT_HELLO_ACK => {
            exact(24)?;
            Ok(Frame::HelloAck {
                fingerprint: u64::from_le_bytes(payload[0..8].try_into().expect("8-byte slice")),
                shards: u32::from_le_bytes(payload[8..12].try_into().expect("4-byte slice")),
                session: u64::from_le_bytes(payload[12..20].try_into().expect("8-byte slice")),
                ack_every: u32::from_le_bytes(payload[20..24].try_into().expect("4-byte slice")),
            })
        }
        FT_SNAPSHOT_REQUEST => {
            exact(0)?;
            Ok(Frame::SnapshotRequest {
                quiesce: flags & FLAG_QUIESCE != 0,
            })
        }
        FT_SNAPSHOT => decode_snapshot(payload),
        FT_DRAIN => {
            exact(0)?;
            Ok(Frame::Drain)
        }
        FT_DRAIN_ACK => {
            exact(8)?;
            Ok(Frame::DrainAck {
                n: u64::from_le_bytes(payload[0..8].try_into().expect("8-byte slice")),
            })
        }
        FT_ABORT => {
            if payload.len() < 2 {
                return Err(WireError::Payload(
                    "ABORT payload shorter than its code".into(),
                ));
            }
            Ok(Frame::Abort {
                code: u16::from_le_bytes(payload[0..2].try_into().expect("2-byte slice")),
                message: String::from_utf8_lossy(&payload[2..]).into_owned(),
            })
        }
        FT_EPOCH => {
            exact(8)?;
            Ok(Frame::Epoch {
                round: u64::from_le_bytes(payload[0..8].try_into().expect("8-byte slice")),
            })
        }
        FT_BATCH_SEQ => {
            if payload.len() < 8 {
                return Err(WireError::Payload(
                    "BATCH_SEQ payload shorter than its sequence number".into(),
                ));
            }
            let bytes = &payload[8..];
            Ok(Frame::BatchSeq {
                seq: u64::from_le_bytes(payload[0..8].try_into().expect("8-byte slice")),
                batch: match check {
                    Some((solution, max_batch)) => decode_bounded(bytes, solution, max_batch)?,
                    None => CompactBatch::decode_from(bytes)?,
                },
            })
        }
        FT_BATCH_ACK => {
            exact(16)?;
            Ok(Frame::BatchAck {
                seq: u64::from_le_bytes(payload[0..8].try_into().expect("8-byte slice")),
                n: u64::from_le_bytes(payload[8..16].try_into().expect("8-byte slice")),
            })
        }
        FT_RESUME => {
            exact(16)?;
            Ok(Frame::Resume {
                session: u64::from_le_bytes(payload[0..8].try_into().expect("8-byte slice")),
                last_acked: u64::from_le_bytes(payload[8..16].try_into().expect("8-byte slice")),
            })
        }
        FT_RESUME_ACK => {
            exact(8)?;
            Ok(Frame::ResumeAck {
                acked_seq: u64::from_le_bytes(payload[0..8].try_into().expect("8-byte slice")),
            })
        }
        other => Err(WireError::UnknownFrameType(other)),
    }
}

/// The server's batch decoder: [`CompactBatch::decode_for`] for a batch of
/// at most `max_batch` reports. A frame is queued whole, so one of more
/// reports is refused, since it would break the `shards · queue_depth ·
/// batch` memory bound. Its report count is read from the batch header, so
/// the refusal skips the solution's rules; only the structural walk runs
/// first, since a structural fault outranks every other refusal of a batch
/// (as in [`CompactBatch::decode_for`]).
fn decode_bounded(
    bytes: &[u8],
    solution: &DynSolution,
    max_batch: usize,
) -> Result<CompactBatch, WireError> {
    let reports = bytes.get(0..8).map_or(0, |b| {
        u64::from_le_bytes(b.try_into().expect("8-byte slice"))
    });
    if reports > max_batch as u64 {
        CompactBatch::decode_from(bytes)?;
        return Err(WireError::Payload(format!(
            "BATCH_SEQ of {reports} reports exceeds the server's batch of {max_batch}"
        )));
    }
    Ok(CompactBatch::decode_for(bytes, solution)?)
}

fn decode_snapshot(payload: &[u8]) -> Result<Frame, WireError> {
    let mut pos = 0usize;
    let mut take = |n: usize| -> Result<&[u8], WireError> {
        if payload.len() - pos < n {
            return Err(WireError::Payload("SNAPSHOT payload ends early".into()));
        }
        let s = &payload[pos..pos + n];
        pos += n;
        Ok(s)
    };
    let n = u64::from_le_bytes(take(8)?.try_into().expect("8-byte slice"));
    let shards = u32::from_le_bytes(take(4)?.try_into().expect("4-byte slice"));
    let d = u32::from_le_bytes(take(4)?.try_into().expect("4-byte slice")) as usize;
    let mut estimates = Vec::new();
    let mut normalized = Vec::new();
    for _ in 0..d {
        let k = u32::from_le_bytes(take(4)?.try_into().expect("4-byte slice")) as usize;
        // Capacity is clamped by the payload itself, so a forged k cannot
        // balloon the allocation — `take` then rejects it at the first
        // missing word.
        let mut est = Vec::with_capacity(k.min(payload.len() / 8));
        for _ in 0..k {
            est.push(f64::from_bits(u64::from_le_bytes(
                take(8)?.try_into().expect("8-byte slice"),
            )));
        }
        let mut norm = Vec::with_capacity(k.min(payload.len() / 8));
        for _ in 0..k {
            norm.push(f64::from_bits(u64::from_le_bytes(
                take(8)?.try_into().expect("8-byte slice"),
            )));
        }
        estimates.push(est);
        normalized.push(norm);
    }
    if pos != payload.len() {
        return Err(WireError::Payload("trailing bytes after SNAPSHOT".into()));
    }
    Ok(Frame::Snapshot(WireSnapshot {
        n,
        shards,
        estimates,
        normalized,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::solutions::{RsFdProtocol, SolutionKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_frames() -> Vec<Frame> {
        let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
            .build(&[4, 3], 1.0)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut batch = CompactBatch::new();
        for uid in 0..50u64 {
            batch.push(uid, &solution.report(&[1, 2], &mut rng));
        }
        vec![
            Frame::Hello {
                fingerprint: 0xFEED,
                auth: 0,
            },
            Frame::Hello {
                fingerprint: 0xFEED,
                auth: auth_fingerprint("hunter2"),
            },
            Frame::HelloAck {
                fingerprint: 0xFEED,
                shards: 4,
                session: 0xD00D_F00D,
                ack_every: 32,
            },
            Frame::BatchSeq { seq: 7, batch },
            Frame::BatchAck { seq: 7, n: 350 },
            Frame::Resume {
                session: 0xD00D_F00D,
                last_acked: 6,
            },
            Frame::ResumeAck { acked_seq: 7 },
            Frame::SnapshotRequest { quiesce: true },
            Frame::SnapshotRequest { quiesce: false },
            Frame::Snapshot(WireSnapshot {
                n: 50,
                shards: 4,
                estimates: vec![vec![0.25, -0.5, 0.75, 0.5], vec![0.1, 0.2, 0.7]],
                normalized: vec![vec![0.25, 0.0, 0.5, 0.25], vec![0.1, 0.2, 0.7]],
            }),
            Frame::Drain,
            Frame::DrainAck { n: 50 },
            Frame::Abort {
                code: 3,
                message: "boom".into(),
            },
            Frame::Epoch { round: 2 },
        ]
    }

    #[test]
    fn every_frame_roundtrips() {
        let mut buf = Vec::new();
        for frame in sample_frames() {
            encode_frame(&frame, &mut buf);
            let decoded = read_frame(&mut &buf[..]).unwrap();
            assert_eq!(decoded, frame);
        }
    }

    #[test]
    fn a_stream_of_frames_decodes_in_order() {
        let frames = sample_frames();
        let mut stream = Vec::new();
        let mut buf = Vec::new();
        for frame in &frames {
            encode_frame(frame, &mut buf);
            stream.extend_from_slice(&buf);
        }
        let mut reader = &stream[..];
        for frame in &frames {
            assert_eq!(&read_frame(&mut reader).unwrap(), frame);
        }
        assert!(matches!(read_frame(&mut reader), Err(WireError::Closed)));
    }

    #[test]
    fn corruption_is_rejected_with_typed_errors() {
        let mut buf = Vec::new();
        encode_frame(&Frame::DrainAck { n: 7 }, &mut buf);
        // Flipped payload bit → checksum.
        let mut bad = buf.clone();
        *bad.last_mut().unwrap() ^= 0x10;
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(WireError::ChecksumMismatch { .. })
        ));
        // Flipped magic.
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(WireError::BadMagic(_))
        ));
        // Future version.
        let mut bad = buf.clone();
        bad[4] = 9;
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(WireError::VersionMismatch { got: 9 })
        ));
        // Unknown frame type (CRC intact, so the type byte is reached).
        let mut bad = buf.clone();
        bad[6] = 99;
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(WireError::UnknownFrameType(99))
        ));
        // Oversize length is rejected before any allocation.
        let mut bad = buf.clone();
        bad[8..12].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut &bad[..]),
            Err(WireError::Oversize(_))
        ));
        // Every strict prefix is Closed (empty) or Truncated — never a panic.
        for cut in 0..buf.len() {
            match read_frame(&mut &buf[..cut]) {
                Err(WireError::Closed) => assert_eq!(cut, 0),
                Err(WireError::Truncated) => assert!(cut > 0),
                other => panic!("prefix of {cut} B: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn auth_fingerprint_is_stable_nonzero_and_separating() {
        assert_ne!(auth_fingerprint(""), 0);
        assert_eq!(auth_fingerprint("secret"), auth_fingerprint("secret"));
        assert_ne!(auth_fingerprint("secret"), auth_fingerprint("secret2"));
        assert_ne!(auth_fingerprint("secret"), auth_fingerprint(""));
    }

    #[test]
    fn batch_seq_encoder_matches_the_enum_encoder() {
        let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
            .build(&[4, 3], 1.0)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let mut batch = CompactBatch::new();
        for uid in 0..20u64 {
            batch.push(uid, &solution.report(&[0, 1], &mut rng));
        }
        let mut via_enum = Vec::new();
        encode_frame(
            &Frame::BatchSeq {
                seq: 42,
                batch: batch.clone(),
            },
            &mut via_enum,
        );
        let mut via_fast = Vec::new();
        encode_batch_seq_frame(42, &batch, &mut via_fast);
        assert_eq!(via_enum, via_fast);
    }

    #[test]
    fn a_short_batch_seq_payload_is_a_typed_payload_error() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&[0u8; 16]);
        buf.extend_from_slice(&[1, 2, 3]); // shorter than the u64 seq
        super::seal_frame(&mut buf, super::FT_BATCH_SEQ, 0);
        assert!(matches!(
            read_frame(&mut &buf[..]),
            Err(WireError::Payload(_))
        ));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check values (RFC 3720 appendix / zlib docs).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// One bytewise step of the CRC-32 register, bit by bit over the
    /// reflected polynomial: the reference both paths must match, sharing no
    /// table or constant with either.
    fn crc32_bitwise_step(mut c: u32, byte: u8) -> u32 {
        c ^= u32::from(byte);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        c
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(8))]

        /// [`crc32`] and the table path [`crc32_update`] both equal the
        /// bitwise reference on every length 0..=4096 at every start offset
        /// 0..16 — 63/64 B at the dispatch threshold, the folded kernel's
        /// 64-byte body, its 16-byte loop and every tail length 0..15,
        /// aligned or not — and on a whole frame-sized buffer of ~100 KB.
        /// Calling the table path directly keeps it checked on long inputs
        /// on CPUs where [`crc32`] always folds.
        #[test]
        fn crc32_matches_the_bytewise_reference(
            buf in proptest::collection::vec(proptest::any::<u8>(), 100_000..100_016),
        ) {
            for offset in 0..16 {
                let window = &buf[offset..offset + 4097];
                let mut reference = !0u32;
                for (len, &next) in window.iter().enumerate() {
                    let bytes = &window[..len];
                    let (fast, table) = (crc32(bytes), !crc32_update(!0, bytes));
                    proptest::prop_assert_eq!(fast, !reference, "offset {offset} len {len}");
                    proptest::prop_assert_eq!(table, !reference, "offset {offset} len {len}");
                    reference = crc32_bitwise_step(reference, next);
                }
            }
            let whole = !buf.iter().fold(!0u32, |c, &b| crc32_bitwise_step(c, b));
            proptest::prop_assert_eq!(crc32(&buf), whole);
            proptest::prop_assert_eq!(!crc32_update(!0, &buf), whole);
        }
    }

    /// A full 1024-report RS+FD[GRR] BATCH_SEQ frame on Adult's shape —
    /// ~100 KB of payload, so its CRC runs through the folded kernel — must
    /// reject every single flipped payload bit at the sampled positions
    /// (the first 64 B, the folded body, the last 15 B) and every burst of
    /// at most 32 bits, which CRC-32 detects by construction.
    #[test]
    fn corruption_of_a_full_batch_frame_is_a_checksum_mismatch() {
        use rand::Rng;

        let dataset = ldp_datasets::corpora::adult_like(1024, 5);
        let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
            .build(&dataset.schema().cardinalities(), 1.0)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        let mut batch = CompactBatch::new();
        for (uid, row) in dataset.rows().enumerate() {
            batch.push(uid as u64, &solution.report(row, &mut rng));
        }
        let mut frame = Vec::new();
        encode_batch_seq_frame(1, &batch, &mut frame);
        assert!(read_frame(&mut &frame[..]).is_ok());
        let payload_bits = (frame.len() - 16) * 8;
        assert!(payload_bits > 64 * 1024 * 8, "the frame is frame-sized");

        let rejects = |flip: &dyn Fn(&mut [u8])| {
            let mut bad = frame.clone();
            flip(&mut bad[16..]);
            matches!(
                read_frame(&mut &bad[..]),
                Err(WireError::ChecksumMismatch { .. })
            )
        };
        let flip_bit = |payload: &mut [u8], bit: usize| payload[bit / 8] ^= 1 << (bit % 8);

        let head = 0..64 * 8;
        let tail = payload_bits - 15 * 8..payload_bits;
        let body = (64 * 8..tail.start).step_by(61);
        for bit in head.clone().chain(body).chain(tail.clone()) {
            assert!(rejects(&|p| flip_bit(p, bit)), "payload bit {bit}");
        }

        // Bursts: first and last bit flipped, `width` bits apart at most 32,
        // random bits between, starting in each sampled region.
        let starts = head
            .step_by(7)
            .chain((64 * 8..tail.start).step_by(4099))
            .chain(payload_bits - 32..payload_bits);
        for start in starts {
            for width in 1..=32usize.min(payload_bits - start) {
                let inner: u32 = rng.random();
                assert!(
                    rejects(&|p| {
                        flip_bit(p, start);
                        for i in 1..width.saturating_sub(1) {
                            if inner >> i & 1 != 0 {
                                flip_bit(p, start + i);
                            }
                        }
                        if width > 1 {
                            flip_bit(p, start + width - 1);
                        }
                    }),
                    "{width}-bit burst at payload bit {start}"
                );
            }
        }
    }

    #[test]
    fn snapshot_with_forged_dimensions_is_rejected() {
        let mut buf = Vec::new();
        encode_frame(
            &Frame::Snapshot(WireSnapshot {
                n: 1,
                shards: 1,
                estimates: vec![vec![0.5; 3]],
                normalized: vec![vec![0.5; 3]],
            }),
            &mut buf,
        );
        // Forge the first row width (offset 16 header + 8 n + 4 shards + 4 d)
        // to a huge k and re-seal the CRC: the decoder must bail on the
        // missing words, not allocate for the claim.
        buf[32..36].copy_from_slice(&u32::MAX.to_le_bytes());
        let crc = crc32(&buf[16..]);
        buf[12..16].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &buf[..]),
            Err(WireError::Payload(_))
        ));
    }
}
