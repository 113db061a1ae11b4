//! The producer side of the ingestion wire: a blocking TCP client that
//! batches sanitized reports into sequence-numbered [`CompactBatch`] frames
//! for a [`WireServer`](ldp_server::WireServer), and survives the wire
//! failing underneath it.
//!
//! One [`NetClient`] is one producer session: connect (HELLO/HELLO_ACK
//! fingerprint + auth handshake), [`NetClient::push`] reports — buffered
//! locally and flushed as BATCH_SEQ frames at the configured batch size —
//! interleave [`NetClient::snapshot`] round trips for incremental progress,
//! and [`NetClient::finish`] with a DRAIN/DRAIN_ACK handshake. The batch
//! buffer is reused across flushes, and each frame is sealed straight into
//! the buffer its replay-ring slot keeps — one that an earlier ack freed —
//! so a steady-state producer neither allocates nor copies a frame.
//!
//! ## Fault tolerance
//!
//! Every sent frame sits in an unacked **replay ring** until the server's
//! cumulative `BATCH_ACK` covers its sequence number; the ring is bounded
//! ([`ClientConfig::ack_window`]), which bounds producer in-flight bytes
//! explicitly. On a transport fault the client redials with seeded, bounded
//! exponential backoff + jitter ([`ClientConfig::retries`]), re-handshakes,
//! sends `RESUME { session, last_acked }`, prunes the ring by the server's
//! authoritative `RESUME_ACK`, and replays only the frames the server never
//! ingested — the server dedups any overlap by sequence number, so ingest
//! is exactly-once however the connection dies. Configurable read deadlines
//! ([`ClientConfig::read_timeout_ms`]) turn a hung server into a typed
//! [`WireError::Timeout`] instead of a forever-blocked producer.
//!
//! A deterministic [`FaultPlan`] can be attached to inject transport faults
//! on the client's own first-transmission sends (replays are fault-free):
//! every BATCH_SEQ frame, and every control request (EPOCH,
//! SNAPSHOT_REQUEST, DRAIN) with the classes a request can take (see
//! `NetClient::request`). That is how the reconnect path is exercised
//! reproducibly in tests and via `risks produce --fault-plan`.
//!
//! Backpressure needs no client-side code: when the server's shard queues
//! fill, its handler stops reading, the TCP window closes, and the
//! `write_all` inside [`NetClient::push`] simply blocks until the server
//! catches up.

use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use ldp_core::solutions::{CompactBatch, DynSolution, SolutionReport};
use ldp_server::wire::{
    auth_fingerprint, encode_batch_seq_frame, encode_frame, read_frame, write_frame, Frame,
    WireError, WireSnapshot,
};

use crate::fault::{splitmix64, FaultInjector, FaultKind, FaultPlan};

/// Default reports per BATCH_SEQ frame — the server's default
/// channel-message batch (`ServerConfig::batch`), the largest frame a
/// default server accepts.
const DEFAULT_BATCH: usize = 1024;

/// First reconnect backoff in milliseconds, doubled per attempt.
const BACKOFF_BASE_MS: u64 = 10;

/// Reconnect backoff ceiling in milliseconds.
const BACKOFF_MAX_MS: u64 = 1000;

/// Client-side wire behavior: auth, deadlines, reconnect policy, replay
/// ring sizing and (for tests/chaos runs) fault injection.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClientConfig {
    /// Shared-secret auth token presented in HELLO (`None` presents the
    /// zero digest, accepted only by servers with no token configured).
    pub auth: Option<String>,
    /// Socket read (and connect) deadline in milliseconds; `0` blocks
    /// forever. An expired deadline is a typed [`WireError::Timeout`].
    pub read_timeout_ms: u64,
    /// Reconnect attempts per fault before the producer gives up. `0`
    /// disables reconnection entirely: the first transport fault is fatal.
    pub retries: u32,
    /// Seed of the backoff jitter stream — faulted runs stay reproducible.
    pub backoff_seed: u64,
    /// Max unacked frames in the replay ring before the producer blocks
    /// waiting for a `BATCH_ACK` (effective window is at least the
    /// server's announced ack interval, so an ack is always owed before
    /// the ring can fill).
    pub ack_window: usize,
    /// Deterministic transport-fault schedule for chaos tests; `None` for
    /// a clean producer.
    pub fault_plan: Option<FaultPlan>,
    /// Reports per BATCH_SEQ frame (`0` = the default 1024). Smaller
    /// batches mean more frames — chaos tests shrink this so a fault plan
    /// fires many times over a small corpus. Must not exceed the server's
    /// `ServerConfig::batch`, which aborts a larger frame.
    pub batch: usize,
}

impl ClientConfig {
    /// A fault-tolerant default: 8 retries, 10ms–1s backoff, 64-frame ring.
    pub fn resilient() -> ClientConfig {
        ClientConfig {
            auth: None,
            read_timeout_ms: 0,
            retries: 8,
            backoff_seed: 0,
            ack_window: 64,
            fault_plan: None,
            batch: 0,
        }
    }

    /// Sets the read/connect deadline in milliseconds (`0` = none).
    pub fn read_timeout_ms(mut self, ms: u64) -> Self {
        self.read_timeout_ms = ms;
        self
    }

    /// Sets the reconnect-attempt budget per fault (`0` = no reconnects).
    pub fn retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Sets the backoff jitter seed.
    pub fn backoff_seed(mut self, seed: u64) -> Self {
        self.backoff_seed = seed;
        self
    }

    /// Attaches a deterministic fault-injection schedule.
    pub fn fault_plan(mut self, plan: Option<FaultPlan>) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Sets the reports-per-frame batch size (`0` = the default 1024).
    pub fn batch(mut self, reports: usize) -> Self {
        self.batch = reports;
        self
    }
}

/// A connected producer session speaking the `ldp_server::wire` protocol.
#[derive(Debug)]
pub struct NetClient {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
    addrs: Vec<SocketAddr>,
    cfg: ClientConfig,
    fingerprint: u64,
    auth: u64,
    batch: CompactBatch,
    batch_size: usize,
    /// Frame buffers acks popped off the replay ring, reused by the next
    /// flushes — every buffer is either ringed or here.
    spare: Vec<Vec<u8>>,
    server_shards: u32,
    /// Server-issued resume token (0: session table full, no resume).
    session: u64,
    /// The server's announced cumulative-ack interval.
    server_ack_every: u64,
    /// Sequence number the *next* flushed batch will carry.
    next_seq: u64,
    /// Highest sequence number the server has cumulatively acked.
    acked_seq: u64,
    /// Sealed, sent, unacked frames — replayed verbatim after a resume.
    ring: VecDeque<(u64, Vec<u8>)>,
    sent: u64,
    injector: Option<FaultInjector>,
    jitter: u64,
}

impl NetClient {
    /// Connects to a serving [`WireServer`](ldp_server::WireServer) and runs
    /// the HELLO handshake for `solution`, with the default (non-resilient,
    /// deadline-free) [`ClientConfig`]. Fails with a typed error when the
    /// server aggregates for a different solution configuration (the
    /// fingerprint covers family, domain sizes and ε).
    pub fn connect(addr: impl ToSocketAddrs, solution: &DynSolution) -> Result<Self, WireError> {
        NetClient::connect_with(addr, solution, ClientConfig::default())
    }

    /// [`NetClient::connect`] with explicit client-side wire behavior.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        solution: &DynSolution,
        cfg: ClientConfig,
    ) -> Result<Self, WireError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(WireError::Handshake(
                "address resolved to nothing".to_string(),
            ));
        }
        let fingerprint = solution.fingerprint();
        let auth = cfg.auth.as_deref().map(auth_fingerprint).unwrap_or(0);
        let (stream, mut reader) = dial(&addrs, &cfg)?;
        let mut writer = stream.try_clone()?;
        let (server_shards, session, server_ack_every) =
            hello(&mut writer, &mut reader, fingerprint, auth)?;
        let injector = cfg.fault_plan.as_ref().map(|p| p.injector());
        let jitter = splitmix64(&mut (cfg.backoff_seed ^ 0x9E37_79B9));
        let batch_size = match cfg.batch {
            0 => DEFAULT_BATCH,
            b => b,
        };
        Ok(NetClient {
            reader,
            stream,
            addrs,
            fingerprint,
            auth,
            batch: CompactBatch::new(),
            batch_size,
            spare: Vec::new(),
            server_shards,
            session,
            server_ack_every: u64::from(server_ack_every).max(1),
            next_seq: 1,
            acked_seq: 0,
            ring: VecDeque::new(),
            sent: 0,
            injector,
            jitter,
            cfg,
        })
    }

    /// The server's shard count, as announced in HELLO_ACK.
    pub fn server_shards(&self) -> u32 {
        self.server_shards
    }

    /// The server-issued resume token (0 when the server's session table
    /// was full — this producer cannot survive a connection fault).
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Reports pushed into this session so far (buffered or sent).
    pub fn pushed(&self) -> u64 {
        self.sent + self.batch.len() as u64
    }

    /// Buffers one sanitized report, sending a BATCH_SEQ frame whenever the
    /// buffer reaches the batch size. A blocked send *is* the backpressure
    /// path — see the [module docs](crate::net_client). The report leaves
    /// through [`CompactBatch::push_wire`], so an RS+FD / RS+RFD tuple never
    /// ships its hidden sampled attribute.
    pub fn push(&mut self, uid: u64, report: &SolutionReport) -> Result<(), WireError> {
        self.batch.push_wire(uid, report);
        if self.batch.len() >= self.batch_size {
            self.flush_batch()?;
        }
        Ok(())
    }

    /// Sends any buffered reports and flushes the socket.
    pub fn flush(&mut self) -> Result<(), WireError> {
        if !self.batch.is_empty() {
            self.flush_batch()?;
        }
        if let Err(e) = self.stream.flush() {
            self.recover(WireError::from(e))?;
        }
        Ok(())
    }

    /// Requests the server's current merged estimates, covering at least
    /// everything this producer pushed before the call (buffered reports
    /// are flushed first). This is the incremental estimate-while-ingesting
    /// stream. `quiesce` is carried in the frame for wire compatibility
    /// and has no effect.
    pub fn snapshot(&mut self, quiesce: bool) -> Result<WireSnapshot, WireError> {
        match self.request(&Frame::SnapshotRequest { quiesce })? {
            Frame::Snapshot(snapshot) => Ok(snapshot),
            other => Err(WireError::Payload(format!(
                "expected SNAPSHOT, got {other:?}"
            ))),
        }
    }

    /// Ends the current collection round: flushes every buffered report,
    /// sends `EPOCH{round}` and blocks until the server's fleet barrier
    /// releases with the `EPOCH{round + 1}` ack (every producer of the
    /// declared fleet must send its own EPOCH frame before anyone is
    /// released — see `ldp_server::wire`). Returns the next round index.
    /// Safe across faults: barrier arrival is keyed by session token and
    /// idempotent, so a re-announce after a resume never double-counts.
    pub fn advance_epoch(&mut self, round: u64) -> Result<u64, WireError> {
        match self.request(&Frame::Epoch { round })? {
            Frame::Epoch { round: next } if next == round + 1 => Ok(next),
            Frame::Epoch { round: next } => Err(WireError::Payload(format!(
                "epoch ack skewed: sent round {round}, server acked {next}"
            ))),
            other => Err(WireError::Payload(format!("expected EPOCH, got {other:?}"))),
        }
    }

    /// Ends the session: flushes every buffered report, sends DRAIN and
    /// waits for the server's DRAIN_ACK. Returns the number of reports the
    /// server ingested for this session (always equal to
    /// [`NetClient::pushed`] on a healthy or recovered wire — the frames
    /// are checksummed, sequenced and deduplicated, and the ack counts
    /// post-validation envelopes across every connection of the session).
    pub fn finish(mut self) -> Result<u64, WireError> {
        match self.request(&Frame::Drain)? {
            Frame::DrainAck { n } => {
                // Everything sent is ingested — the ring is history.
                self.ring.clear();
                Ok(n)
            }
            other => Err(WireError::Payload(format!(
                "expected DRAIN_ACK, got {other:?}"
            ))),
        }
    }

    /// The one request path behind every control round trip: flushes the
    /// buffered reports, sends `frame` and returns the server's reply. A
    /// server ABORT is fatal and comes back as [`WireError::Remote`]; any
    /// other failed attempt goes through [`NetClient::recover`] and is
    /// retried, at most `cfg.retries` times.
    ///
    /// The first attempt consults the fault injector like a batch's first
    /// transmission, but applies only the classes that leave the server
    /// nothing to act on: a dropped, truncated or delayed request is simply
    /// sent again. A reset or duplicated request would reach the server
    /// whole, and a DRAIN or EPOCH acted on twice is not the same as once,
    /// so those two classes stay batch-only (BATCH_SEQ frames are
    /// deduplicated by sequence number) and the request goes out unfaulted.
    fn request(&mut self, frame: &Frame) -> Result<Frame, WireError> {
        self.flush()?;
        let mut bytes = Vec::new();
        encode_frame(frame, &mut bytes);
        let mut fault = self.injector.as_mut().and_then(|i| {
            i.next_fault_among(&[FaultKind::Drop, FaultKind::Truncate, FaultKind::Delay])
        });
        let mut attempts = 0u32;
        loop {
            let reply = transmit(&mut self.stream, &bytes, fault.take())
                .and_then(|()| self.stream.flush().map_err(WireError::from))
                .and_then(|()| self.read_response());
            match reply {
                Ok(Frame::Abort { code, message }) => {
                    return Err(WireError::Remote { code, message })
                }
                Ok(reply) => return Ok(reply),
                Err(e) if attempts == self.cfg.retries => return Err(e),
                Err(e) => {
                    attempts += 1;
                    self.recover(e)?;
                }
            }
        }
    }

    /// Serializes the buffered batch into a sequenced frame, rings it,
    /// sends it (through the fault injector on first transmission), and
    /// blocks for acks while the ring is at capacity — the explicit bound
    /// on producer in-flight bytes.
    fn flush_batch(&mut self) -> Result<(), WireError> {
        let seq = self.next_seq;
        // Seal straight into the buffer the ring keeps, reusing one an ack
        // freed: no per-frame clone.
        let mut frame = self.spare.pop().unwrap_or_default();
        encode_batch_seq_frame(seq, &self.batch, &mut frame);
        // Ring *before* send: a fault mid-write must leave the frame
        // replayable.
        self.ring.push_back((seq, frame));
        self.next_seq += 1;
        self.sent += self.batch.len() as u64;
        self.batch.clear();
        if let Err(e) = self.send_new_frame() {
            self.recover(e)?;
        }
        let window = self
            .cfg
            .ack_window
            .max(1)
            .max(self.server_ack_every as usize);
        while self.ring.len() >= window {
            if let Err(e) = self.read_one_ack() {
                self.recover(e)?;
            }
        }
        Ok(())
    }

    /// First transmission of the newest ring entry, with fault injection.
    /// Replays (in [`NetClient::try_reconnect`]) bypass this — injected
    /// faults fire at most once per logical batch, so every plan
    /// terminates.
    fn send_new_frame(&mut self) -> Result<(), WireError> {
        let fault = self.injector.as_mut().and_then(|i| i.next_fault());
        let bytes = &self.ring.back().expect("frame was just ringed").1;
        transmit(&mut self.stream, bytes, fault)
    }

    /// Blocks for one frame while streaming batches; only cumulative acks
    /// are legal here.
    fn read_one_ack(&mut self) -> Result<(), WireError> {
        match read_frame(&mut self.reader)? {
            Frame::BatchAck { seq, .. } => {
                self.note_ack(seq);
                Ok(())
            }
            Frame::Abort { code, message } => Err(WireError::Remote { code, message }),
            other => Err(WireError::Payload(format!(
                "expected BATCH_ACK, got {other:?}"
            ))),
        }
    }

    /// Reads the next non-ack frame, folding any interleaved pipelined
    /// `BATCH_ACK`s into the ring on the way.
    fn read_response(&mut self) -> Result<Frame, WireError> {
        loop {
            match read_frame(&mut self.reader)? {
                Frame::BatchAck { seq, .. } => self.note_ack(seq),
                frame => return Ok(frame),
            }
        }
    }

    fn note_ack(&mut self, seq: u64) {
        self.acked_seq = self.acked_seq.max(seq);
        while self.ring.front().is_some_and(|(s, _)| *s <= self.acked_seq) {
            if let Some((_, frame)) = self.ring.pop_front() {
                self.spare.push(frame);
            }
        }
    }

    /// The fault boundary: transport-class errors trigger the bounded
    /// reconnect-and-resume loop; anything else (a server ABORT, a
    /// protocol violation) is fatal and propagates.
    fn recover(&mut self, e: WireError) -> Result<(), WireError> {
        if !e.is_transport() || self.cfg.retries == 0 {
            return Err(e);
        }
        if self.session == 0 {
            return Err(WireError::Handshake(
                "connection faulted but the server issued no resume token \
                 (session table full) — cannot replay safely"
                    .to_string(),
            ));
        }
        let mut last = e;
        for attempt in 0..self.cfg.retries {
            std::thread::sleep(self.backoff_delay(attempt));
            match self.try_reconnect() {
                Ok(()) => return Ok(()),
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Seeded exponential backoff with jitter: attempt `a` sleeps in
    /// `[cap/2, cap]` where `cap = min(base · 2^a, max)`.
    fn backoff_delay(&mut self, attempt: u32) -> Duration {
        let cap = BACKOFF_BASE_MS
            .saturating_mul(1u64 << attempt.min(20))
            .min(BACKOFF_MAX_MS);
        let jitter = splitmix64(&mut self.jitter) % (cap / 2 + 1);
        Duration::from_millis(cap - jitter)
    }

    /// One reconnect attempt: redial, re-handshake, RESUME, prune the ring
    /// by the server's authoritative acked seq, replay the rest verbatim.
    fn try_reconnect(&mut self) -> Result<(), WireError> {
        let (stream, mut reader) = dial(&self.addrs, &self.cfg)?;
        let mut writer = stream.try_clone()?;
        // The re-handshake auto-issues a throwaway token; RESUME replaces
        // it with our real session (the server forgets the throwaway).
        hello(&mut writer, &mut reader, self.fingerprint, self.auth)?;
        write_frame(
            &mut writer,
            &Frame::Resume {
                session: self.session,
                last_acked: self.acked_seq,
            },
        )?;
        writer.flush()?;
        let acked = match read_frame(&mut reader)? {
            Frame::ResumeAck { acked_seq } => acked_seq,
            Frame::Abort { code, message } => return Err(WireError::Remote { code, message }),
            other => {
                return Err(WireError::Payload(format!(
                    "expected RESUME_ACK, got {other:?}"
                )))
            }
        };
        self.stream = stream;
        self.reader = reader;
        self.note_ack(acked);
        // Replay what the server never ingested, oldest first, fault-free.
        for (_, bytes) in &self.ring {
            self.stream.write_all(bytes)?;
        }
        self.stream.flush()?;
        Ok(())
    }
}

/// Dials the first reachable address, honoring the configured deadline for
/// both the connect and subsequent reads.
fn dial(
    addrs: &[SocketAddr],
    cfg: &ClientConfig,
) -> Result<(TcpStream, BufReader<TcpStream>), WireError> {
    let timeout = match cfg.read_timeout_ms {
        0 => None,
        ms => Some(Duration::from_millis(ms)),
    };
    let mut last: Option<WireError> = None;
    for addr in addrs {
        let connected = match timeout {
            Some(t) => TcpStream::connect_timeout(addr, t),
            None => TcpStream::connect(addr),
        };
        match connected {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                stream.set_read_timeout(timeout)?;
                let reader = BufReader::new(stream.try_clone()?);
                return Ok((stream, reader));
            }
            Err(e) => last = Some(WireError::from(e)),
        }
    }
    Err(last.unwrap_or_else(|| WireError::Handshake("address resolved to nothing".to_string())))
}

/// Runs the client half of the HELLO handshake; returns the server's
/// `(shards, session token, ack interval)`.
fn hello(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    fingerprint: u64,
    auth: u64,
) -> Result<(u32, u64, u32), WireError> {
    write_frame(writer, &Frame::Hello { fingerprint, auth })?;
    writer.flush()?;
    match read_frame(reader)? {
        Frame::HelloAck {
            fingerprint: theirs,
            shards,
            session,
            ack_every,
        } if theirs == fingerprint => Ok((shards, session, ack_every)),
        Frame::HelloAck {
            fingerprint: theirs,
            ..
        } => Err(WireError::Handshake(format!(
            "server echoed fingerprint {theirs:#018x}, expected {fingerprint:#018x}"
        ))),
        Frame::Abort { code, message } => Err(WireError::Remote { code, message }),
        other => Err(WireError::Handshake(format!(
            "expected HELLO_ACK, got {other:?}"
        ))),
    }
}

/// Writes one encoded frame, through `fault` when one is injected.
fn transmit(
    stream: &mut TcpStream,
    bytes: &[u8],
    fault: Option<FaultKind>,
) -> Result<(), WireError> {
    match fault {
        None => {
            stream.write_all(bytes)?;
            Ok(())
        }
        Some(FaultKind::Delay) => {
            std::thread::sleep(Duration::from_millis(3));
            stream.write_all(bytes)?;
            Ok(())
        }
        Some(FaultKind::Duplicate) => {
            // The server discards the second copy by its sequence
            // number — the dedup path without a reconnect.
            stream.write_all(bytes)?;
            stream.write_all(bytes)?;
            Ok(())
        }
        Some(FaultKind::Drop) => {
            // Nothing reaches the wire; the server sees a clean close.
            let _ = stream.shutdown(Shutdown::Both);
            Err(injected_fault("drop"))
        }
        Some(FaultKind::Truncate) => {
            // The server sees a mid-frame truncation and ABORTs.
            let half = bytes.len() / 2;
            let _ = stream.write_all(&bytes[..half]);
            let _ = stream.flush();
            let _ = stream.shutdown(Shutdown::Both);
            Err(injected_fault("truncate"))
        }
        Some(FaultKind::Reset) => {
            // The frame lands whole, then the connection dies — the
            // replay after resume must be deduplicated (exactly-once).
            let _ = stream.write_all(bytes);
            let _ = stream.flush();
            let _ = stream.shutdown(Shutdown::Both);
            Err(injected_fault("reset"))
        }
    }
}

/// The error an injected fault surfaces as — a connection reset, which the
/// recovery path classifies as transport-class like any real fault.
fn injected_fault(kind: &str) -> WireError {
    WireError::Io(std::io::Error::new(
        std::io::ErrorKind::ConnectionReset,
        format!("injected {kind} fault"),
    ))
}
