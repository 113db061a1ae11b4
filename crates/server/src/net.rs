//! The blocking socket front of the ingestion service: a std-only TCP
//! listener that speaks the [`crate::wire`] protocol and feeds decoded
//! batches into an [`LdpServer`]'s bounded shard channels.
//!
//! ## Threading and backpressure
//!
//! ```text
//!  producer sockets ──► per-connection handler threads ──► LdpServer
//!        (N)                 one checked read per frame     bounded
//!                            ingest_compact (may block)     shard queues
//! ```
//!
//! A handler reads each frame into its own reused payload buffer and
//! decodes a BATCH_SEQ against the server's solution in the same pass
//! ([`CompactBatch::decode_for`]), so a batch leaves the reader checked
//! against every shape and domain rule and is not walked again.
//!
//! One OS thread per connection, blocking reads — no async runtime, per the
//! vendored-dependency constraint, and none needed: ingestion is
//! throughput-bound, not connection-count-bound, and a blocked thread *is*
//! the backpressure mechanism. When every shard queue is full,
//! `ingest_compact` blocks the handler, the handler stops calling `read`, the
//! kernel receive buffer fills, the TCP window closes, and the remote
//! producer's `write` stalls — flow control propagates from a full shard
//! queue all the way to the producer process with no code in between.
//!
//! ## Fleet state
//!
//! Every rule about producer sessions — exactly-once sequencing, resume,
//! reaping and the EPOCH barrier — lives in one `Fleet` (the private
//! `fleet` module) behind one mutex and one condvar. A handler reads a
//! frame, asks the fleet for a decision, then writes, ingests or aborts.
//! It ingests after dropping the lock, so a handler blocked on a full
//! shard queue holds nothing another connection needs. The condvar is
//! signaled on every drain, reap and barrier release; barrier waiters and
//! [`WireServer::wait_for_fleet`] park on it. The fleet reads no clock:
//! the handlers pass the time in.
//!
//! ## Error isolation
//!
//! A malformed frame (bad magic, version, CRC, truncation, an out-of-domain
//! batch) closes **only the offending connection**, after a best-effort
//! ABORT frame to the peer. The whole frame is validated against the
//! server's solution before any envelope of it is ingested, so a bad frame
//! never half-poisons a shard; other connections and the aggregation
//! workers never notice. The listener counts the two ways a connection can
//! end badly apart: refused for what the peer sent
//! ([`WireServer::rejected_connections`]), or cut under the frames by a
//! transport fault the producer may resume from
//! ([`WireServer::dropped_connections`]).
//!
//! ## Determinism
//!
//! The socket path adds nothing to the ingest semantics: each validated
//! frame's batch is moved whole into the next shard's queue, round-robin
//! like every in-process message (no report is rebuilt or copied), and the
//! shard merge is exact integer addition, so which shard absorbed a frame
//! cannot matter. A drain of a socket-fed server is therefore
//! bit-identical to in-process ingestion of the same reports — the
//! invariant `tests/net_equivalence.rs` pins across thread and connection
//! counts.
//!
//! [`CompactBatch::decode_for`]: ldp_core::solutions::CompactBatch::decode_for

use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

use ldp_core::solutions::DynSolution;

use crate::config::ServerConfig;
use crate::fleet::{Batch, Epoch, Fleet, Refused};
use crate::service::LdpServer;
use crate::snapshot::{EpochSnapshot, ServerSnapshot};
use crate::wire::{
    auth_fingerprint, read_checked_frame, read_frame, write_frame, Frame, WireError, WireSnapshot,
};

/// Abort code sent to peers that fail the handshake.
pub const ABORT_HANDSHAKE: u16 = 1;
/// Abort code sent to peers whose frame stream is malformed.
pub const ABORT_PROTOCOL: u16 = 2;
/// Abort code sent to peers that stayed silent past the configured read
/// timeout (see [`ServerConfig::read_timeout_ms`]) — either mid-session or
/// while the rest of their fleet waited for them at an EPOCH barrier.
pub const ABORT_TIMEOUT: u16 = 3;
/// Abort code sent to peers whose HELLO auth digest does not match the
/// server's configured [`ServerConfig::auth_token`].
pub const ABORT_AUTH: u16 = 4;

const POISONED: &str = "fleet state poisoned";
/// Bound on the session table. At capacity the oldest *inactive* session
/// is evicted; if every session is live the newcomer gets the 0 sentinel
/// token and cannot resume, so memory stays bounded however many
/// producers churn.
const SESSION_CAPACITY: usize = 1024;

/// A TCP ingestion frontend wrapping one [`LdpServer`].
///
/// [`WireServer::bind`] starts the accept loop; producers connect, speak
/// the [`crate::wire`] session (HELLO, BATCHes, optional SNAPSHOT
/// round trips, DRAIN), and [`WireServer::finish`] tears the listener down
/// and drains the inner server into its final [`ServerSnapshot`].
#[derive(Debug)]
pub struct WireServer {
    server: Option<Arc<LdpServer>>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<Vec<JoinHandle<()>>>>,
    shared: Arc<Shared>,
}

/// What the listener's threads share: the fleet behind its one lock, plus
/// two diagnostic counters that feed no decision.
#[derive(Debug)]
struct Shared {
    fleet: Mutex<Fleet>,
    /// Signaled on every drain, reap and barrier release.
    changed: Condvar,
    /// The reap grace period and EPOCH-barrier timeout
    /// ([`ServerConfig::read_timeout_ms`]; `None` waits forever).
    grace: Option<Duration>,
    /// Connections refused for a protocol violation.
    rejected: AtomicUsize,
    /// Connections cut by a transport fault ([`WireError::is_transport`]).
    dropped: AtomicUsize,
}

impl Shared {
    fn fleet(&self) -> MutexGuard<'_, Fleet> {
        self.fleet.lock().expect(POISONED)
    }

    /// Holds session `token` at the fleet's EPOCH barrier for the end of
    /// `round` and returns the round to ack (always `round + 1`). The
    /// arrival that completes the barrier rotates the server's epoch while
    /// still holding the lock, so no waiter is acked, and no producer
    /// streams the next round, before the epoch closes. A waiter that
    /// outlives the grace period reaps what is due and keeps waiting while
    /// that shrank the fleet or a suspect is still in grace; otherwise it
    /// withdraws and errors, so a hung fleet member never wedges the rest.
    /// Errors carry the abort code the peer should see.
    fn epoch_barrier(
        &self,
        server: &LdpServer,
        token: u64,
        round: u64,
    ) -> Result<u64, (u16, WireError)> {
        let mut fleet = self.fleet();
        let mut verdict = fleet.epoch(token, round);
        let mut deadline = Instant::now() + self.grace.unwrap_or_default();
        loop {
            match verdict {
                Epoch::Ack(next) => return Ok(next),
                Epoch::Release(next) => {
                    server.advance_epoch();
                    self.changed.notify_all();
                    return Ok(next);
                }
                Epoch::Mismatch(current) => {
                    return Err((
                        ABORT_PROTOCOL,
                        WireError::Payload(format!(
                            "EPOCH announces the end of round {round}, but the fleet is on \
                             round {current}"
                        )),
                    ))
                }
                Epoch::Wait => {}
            }
            // Guard-loop wait: every wakeup re-checks the barrier, so a
            // spurious one can never release it early.
            fleet = match self.grace {
                None => self.changed.wait(fleet).expect(POISONED),
                Some(grace) => {
                    let now = Instant::now();
                    if now < deadline {
                        self.changed
                            .wait_timeout(fleet, deadline - now)
                            .expect(POISONED)
                            .0
                    } else if fleet.outlived(token, now) {
                        self.changed.notify_all();
                        deadline = now + grace;
                        fleet
                    } else {
                        return Err((
                            ABORT_TIMEOUT,
                            WireError::Payload(format!(
                                "EPOCH barrier for round {round} timed out waiting for the \
                                 rest of the fleet"
                            )),
                        ));
                    }
                }
            };
            verdict = fleet.barrier(round);
        }
    }
}

impl WireServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// accepting producer connections for a freshly spawned [`LdpServer`]
    /// over `solution` and `config`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        solution: DynSolution,
        config: ServerConfig,
    ) -> std::io::Result<WireServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let grace = match config.read_timeout_ms {
            0 => None,
            ms => Some(Duration::from_millis(ms)),
        };
        // Tokens never feed the estimates, so salting them with wall-clock
        // entropy leaves the determinism contract alone.
        let nonce = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map_or(0x5E55_10E5, |d| d.as_nanos() as u64);
        let shared = Arc::new(Shared {
            fleet: Mutex::new(Fleet::new(SESSION_CAPACITY, grace, nonce)),
            changed: Condvar::new(),
            grace,
            rejected: AtomicUsize::new(0),
            dropped: AtomicUsize::new(0),
        });
        let server = Arc::new(LdpServer::spawn(solution, config));
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ldp-accept".into())
                .spawn(move || accept_loop(&listener, &server, &stop, &shared))
                .expect("cannot spawn accept thread")
        };
        Ok(WireServer {
            server: Some(server),
            addr,
            stop,
            accept: Some(accept),
            shared,
        })
    }

    /// The bound socket address (with the ephemeral port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Declares the producer-fleet size the EPOCH barrier synchronizes
    /// (clamped to ≥ 1; default 1). A longitudinal fleet must declare its
    /// size before the producers connect — counting live connections
    /// instead would race a late-connecting producer and release the
    /// barrier early.
    pub fn producers(self, n: usize) -> Self {
        self.shared.fleet().declare(n);
        self
    }

    /// Producer sessions that have completed a clean DRAIN so far, each
    /// counted once however many times it drained.
    pub fn drained_producers(&self) -> usize {
        self.shared.fleet().drained()
    }

    /// The inner server's retained closed-epoch snapshots, oldest first —
    /// the windowed-query surface of a longitudinal wire collection.
    pub fn epochs(&self) -> Vec<EpochSnapshot> {
        self.server
            .as_ref()
            .expect("server not yet finished")
            .epochs()
    }

    /// Connections dropped for protocol violations so far.
    pub fn rejected_connections(&self) -> usize {
        self.shared.rejected.load(Ordering::Relaxed)
    }

    /// Connections that ended in a transport fault so far: the peer hung
    /// up mid-frame, the socket failed, or it stayed silent past the read
    /// timeout. A producer that faulted this way may have resumed on a new
    /// connection, so these are not counted as rejections.
    pub fn dropped_connections(&self) -> usize {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Sessions reaped for exceeding the resume grace period so far — the
    /// deficit a degraded fleet drain should report.
    pub fn reaped_sessions(&self) -> usize {
        self.shared.fleet().reaped()
    }

    /// The server-side rendezvous for a fixed-size producer fleet: blocks
    /// until drained **plus reaped** sessions reach `n`, so a producer
    /// that dies past its retry budget shrinks the rendezvous instead of
    /// wedging it. Parked on the fleet's condvar and re-checked on every
    /// wakeup, so a spurious one can never miscount a producer. With a
    /// configured [`ServerConfig::read_timeout_ms`] the wait also polls at
    /// that grace period (clamped to 10–200 ms) and reaps suspect sessions
    /// itself (a drained fleet has no handler thread left to do it); with
    /// `0` nothing is ever reaped and this waits for `n` drains.
    pub fn wait_for_fleet(&self, n: usize) {
        let shared = &self.shared;
        let mut fleet = shared.fleet();
        while fleet.drained() + fleet.reaped() < n {
            fleet = match shared.grace {
                None => shared.changed.wait(fleet).expect(POISONED),
                Some(grace) => {
                    let poll = grace.clamp(Duration::from_millis(10), Duration::from_millis(200));
                    let mut fleet = shared.changed.wait_timeout(fleet, poll).expect(POISONED).0;
                    if fleet.tick(Instant::now()) > 0 {
                        shared.changed.notify_all();
                    }
                    fleet
                }
            };
        }
    }

    /// Stops accepting, joins every connection handler, drains the inner
    /// server and returns the final merged snapshot — bit-identical to an
    /// in-process ingest of the same reports.
    pub fn finish(mut self) -> ServerSnapshot {
        self.shutdown_listener();
        let server = self.server.take().expect("finish called once");
        let server = Arc::try_unwrap(server)
            .expect("all connection handlers joined, nothing else holds the server");
        server.drain()
    }

    /// Signals the accept loop, wakes it with a dummy connection, and joins
    /// the accept thread plus every handler it spawned.
    fn shutdown_listener(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // `TcpListener::accept` has no timeout; a throwaway local connection
        // is the portable way to wake it so it can observe `stop`.
        let _ = TcpStream::connect(self.addr);
        let handlers = accept.join().expect("accept thread panicked");
        for handler in handlers {
            let _ = handler.join();
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        // A dropped-without-finish server still tears its threads down; the
        // inner LdpServer then drains unobserved when the last Arc goes.
        self.shutdown_listener();
    }
}

/// Accepts until `stop` is set, spawning one handler thread per producer.
/// Returns the handler join handles so the shutdown path can wait for
/// in-flight connections to settle before draining.
fn accept_loop(
    listener: &TcpListener,
    server: &Arc<LdpServer>,
    stop: &AtomicBool,
    shared: &Arc<Shared>,
) -> Vec<JoinHandle<()>> {
    let fingerprint = server.solution().fingerprint();
    let mut handlers = Vec::new();
    for (conn, stream) in listener.incoming().enumerate() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let server = Arc::clone(server);
        let shared = Arc::clone(shared);
        handlers.push(
            std::thread::Builder::new()
                .name(format!("ldp-conn-{conn}"))
                .spawn(move || {
                    // A peer may disconnect without draining (e.g. a
                    // monitoring probe); that is not a violation.
                    if let Err(e) = drive_connection(stream, &server, fingerprint, &shared) {
                        let count = if e.is_transport() {
                            &shared.dropped
                        } else {
                            &shared.rejected
                        };
                        count.fetch_add(1, Ordering::Relaxed);
                    }
                })
                .expect("cannot spawn connection handler"),
        );
    }
    handlers
}

/// Runs one producer connection to completion. Any `Err` already sent a
/// best-effort ABORT and stands for "this connection was cut, everyone
/// else keeps going".
fn drive_connection(
    stream: TcpStream,
    server: &LdpServer,
    fingerprint: u64,
    shared: &Shared,
) -> Result<(), WireError> {
    // Frames are small relative to throughput; turn Nagle off so snapshot
    // and drain acks turn around immediately.
    let _ = stream.set_nodelay(true);
    let config = server.config();
    // The idle-connection guard: a producer that stays silent past the
    // configured timeout surfaces as a typed [`WireError::Timeout`] below,
    // which ABORTs the connection instead of pinning this handler thread
    // forever. `0` disables the guard: reads block until the peer speaks.
    stream.set_read_timeout(shared.grace)?;
    let mut reader = BufReader::with_capacity(256 * 1024, stream.try_clone()?);
    let mut writer = BufWriter::new(stream);

    // Session opener: exactly one HELLO with a matching auth digest and a
    // matching fingerprint — auth is checked first, so an unauthorized
    // producer learns nothing about whether its solution would match.
    let expected_auth = config
        .auth_token
        .as_deref()
        .map(auth_fingerprint)
        .unwrap_or(0);
    match read_frame(&mut reader) {
        Ok(Frame::Hello {
            fingerprint: got,
            auth,
        }) => {
            if auth != expected_auth {
                let reason = if expected_auth == 0 {
                    "producer presented an auth token but the server is not configured with one"
                } else {
                    "producer auth token digest does not match the server's"
                };
                return Err(refuse(
                    &mut writer,
                    ABORT_AUTH,
                    WireError::Handshake(reason.into()),
                ));
            }
            if got != fingerprint {
                let reason = format!(
                    "producer solution fingerprint {got:#018x} does not match the server's \
                     {fingerprint:#018x} (different solution, domains or epsilon?)"
                );
                return Err(refuse(
                    &mut writer,
                    ABORT_HANDSHAKE,
                    WireError::Handshake(reason),
                ));
            }
        }
        Ok(_) => {
            let e = WireError::Handshake("expected HELLO as the first frame".into());
            return Err(refuse(&mut writer, ABORT_HANDSHAKE, e));
        }
        Err(WireError::Closed) => return Ok(()),
        Err(e) => return Err(refuse(&mut writer, abort_code(&e), e)),
    }

    let ack_every = config.ack_every.max(1);
    let (mut token, resumable) = shared.fleet().hello();
    let hello_ack = Frame::HelloAck {
        fingerprint,
        shards: config.shards as u32,
        session: if resumable { token } else { 0 },
        ack_every: ack_every.min(u64::from(u32::MAX)) as u32,
    };
    // From here every exit must disconnect the session so a dead
    // producer's state becomes resumable (and, past the grace period,
    // reapable).
    let result = send(&mut writer, &hello_ack).and_then(|()| {
        run_session(
            &mut reader,
            &mut writer,
            server,
            shared,
            ack_every,
            &mut token,
        )
    });
    shared.fleet().disconnect(token, Instant::now());
    result
}

/// The post-handshake frame loop of one connection driving session
/// `token` (which a RESUME replaces); see [`drive_connection`] for the
/// return contract.
fn run_session(
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
    server: &LdpServer,
    shared: &Shared,
    ack_every: u64,
    token: &mut u64,
) -> Result<(), WireError> {
    let check = Some((server.solution(), server.config().batch));
    let mut payload = Vec::new();
    loop {
        // A BATCH_SEQ comes out of the read checked, whole, against the
        // server's solution (the mixed kinds' numeric magnitudes too) and
        // its batch size: frames are atomic, so a malformed or oversize one
        // is refused below without a single envelope reaching a shard.
        match read_checked_frame(reader, &mut payload, check) {
            Ok(Frame::BatchSeq { seq, batch }) => {
                let len = batch.len() as u64;
                let verdict = shared.fleet().batch(*token, seq, len);
                match verdict {
                    // A replay the session already ingested (reconnect ring
                    // overlap, or a duplicated frame): dropped without a
                    // single envelope reaching a shard — exactly-once.
                    Batch::Dedup => {}
                    Batch::Gap { acked } => {
                        let e = WireError::Payload(format!(
                            "BATCH_SEQ {seq} does not follow acked {acked} (sequence numbers \
                             run gapless from 1)"
                        ));
                        return Err(refuse(writer, ABORT_PROTOCOL, e));
                    }
                    Batch::Ingest { ingested } => {
                        // Hands the validated frame to one shard whole,
                        // copying no report. May block on a full shard
                        // queue — that block is the backpressure path in
                        // the module docs.
                        server.ingest_compact(batch);
                        if seq % ack_every == 0 {
                            send(writer, &Frame::BatchAck { seq, n: ingested })?;
                        }
                    }
                }
            }
            Ok(Frame::Resume {
                session,
                last_acked,
            }) => {
                let resumed = shared.fleet().resume(*token, session, last_acked);
                let acked = resumed.map_err(|why| {
                    let (code, e) = refusal(why, session, last_acked);
                    refuse(writer, code, e)
                })?;
                *token = session;
                send(writer, &Frame::ResumeAck { acked_seq: acked })?;
            }
            Ok(Frame::SnapshotRequest { .. }) => {
                // Channel FIFO already puts the snapshot behind every batch
                // this connection ingested, so the quiesce flag needs no
                // barrier of its own.
                let snapshot = server.snapshot();
                send(writer, &Frame::Snapshot(WireSnapshot::from(&snapshot)))?;
            }
            Ok(Frame::Epoch { round }) => {
                // Fleet lockstep: held here until every declared producer
                // announces the end of `round`; the last arrival rotates
                // the server's epoch. The wait is bounded by the read
                // timeout, and a timed-out wait reaps dead fleet members
                // before giving up, so one crashed producer degrades the
                // fleet instead of wedging it.
                match shared.epoch_barrier(server, *token, round) {
                    Ok(next) => send(writer, &Frame::Epoch { round: next })?,
                    Err((code, e)) => return Err(refuse(writer, code, e)),
                }
            }
            Ok(Frame::Drain) => {
                let ingested = shared.fleet().drain(*token);
                shared.changed.notify_all();
                return send(writer, &Frame::DrainAck { n: ingested });
            }
            Ok(Frame::Abort { .. }) | Err(WireError::Closed) => return Ok(()),
            Ok(other) => {
                let e = WireError::Payload(format!(
                    "unexpected {} frame in an open session",
                    frame_name(&other)
                ));
                return Err(refuse(writer, ABORT_PROTOCOL, e));
            }
            Err(e) => return Err(refuse(writer, abort_code(&e), e)),
        }
    }
}

/// The ABORT code and error a refused RESUME of `session` earns.
fn refusal(why: Refused, session: u64, last_acked: u64) -> (u16, WireError) {
    let reason = match why {
        Refused::Late => {
            let e = WireError::Payload("RESUME after the session's first batch or EPOCH".into());
            return (ABORT_PROTOCOL, e);
        }
        Refused::Unknown => {
            format!("RESUME of an unknown (expired or reaped) session {session:#018x}")
        }
        Refused::Live => format!("session {session:#018x} is still active on another connection"),
        Refused::Ahead(acked) => {
            format!("RESUME claims acked seq {last_acked}, the server acked {acked}")
        }
    };
    (ABORT_HANDSHAKE, WireError::Handshake(reason))
}

/// Writes one frame and flushes it.
fn send(writer: &mut impl Write, frame: &Frame) -> Result<(), WireError> {
    write_frame(writer, frame)?;
    writer.flush()?;
    Ok(())
}

/// Picks the abort code a failed read deserves: an expired socket read
/// timeout is the peer idling ([`ABORT_TIMEOUT`]), anything else is a
/// malformed stream ([`ABORT_PROTOCOL`]).
fn abort_code(e: &WireError) -> u16 {
    match e {
        WireError::Timeout => ABORT_TIMEOUT,
        WireError::Io(io)
            if matches!(
                io.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) =>
        {
            ABORT_TIMEOUT
        }
        _ => ABORT_PROTOCOL,
    }
}

/// Sends a best-effort ABORT (the connection is going away either way)
/// and hands back the error that caused it.
fn refuse(writer: &mut impl Write, code: u16, e: WireError) -> WireError {
    let message = e.to_string();
    let _ = send(writer, &Frame::Abort { code, message });
    e
}

fn frame_name(frame: &Frame) -> &'static str {
    match frame {
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

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::solutions::{
        CompactBatch, CompactDecodeError, RsFdProtocol, RsRfdProtocol, SolutionKind,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spawn_server() -> (WireServer, DynSolution) {
        let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
            .build(&[4, 3], 1.0)
            .unwrap();
        let server = WireServer::bind(
            "127.0.0.1:0",
            solution.clone(),
            ServerConfig::default().shards(2),
        )
        .unwrap();
        (server, solution)
    }

    fn handshake(addr: SocketAddr, solution: &DynSolution) -> (BufReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream.try_clone().unwrap();
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
        (reader, stream)
    }

    #[test]
    fn socket_session_ingests_snapshots_and_drains() {
        let (server, solution) = spawn_server();
        let (mut reader, stream) = handshake(server.local_addr(), &solution);
        let mut writer = stream.try_clone().unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut batch = CompactBatch::new();
        for uid in 0..200u64 {
            batch.push(uid, &solution.report(&[1, 2], &mut rng));
        }
        write_frame(&mut writer, &Frame::BatchSeq { seq: 1, batch }).unwrap();
        write_frame(&mut writer, &Frame::SnapshotRequest { quiesce: true }).unwrap();
        writer.flush().unwrap();
        match read_frame(&mut reader).unwrap() {
            Frame::Snapshot(snap) => {
                assert_eq!(snap.n, 200);
                assert_eq!(snap.estimates.len(), 2);
            }
            other => panic!("expected SNAPSHOT, got {other:?}"),
        }
        write_frame(&mut writer, &Frame::Drain).unwrap();
        writer.flush().unwrap();
        assert!(matches!(
            read_frame(&mut reader).unwrap(),
            Frame::DrainAck { n: 200 }
        ));
        server.wait_for_fleet(1);
        let snapshot = server.finish();
        assert_eq!(snapshot.n, 200);
    }

    #[test]
    fn wrong_fingerprint_is_rejected_at_handshake() {
        let (server, _solution) = spawn_server();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        write_frame(
            &mut writer,
            &Frame::Hello {
                fingerprint: 0xBAD,
                auth: 0,
            },
        )
        .unwrap();
        writer.flush().unwrap();
        match read_frame(&mut reader).unwrap() {
            Frame::Abort { code, .. } => assert_eq!(code, ABORT_HANDSHAKE),
            other => panic!("expected ABORT, got {other:?}"),
        }
        // The server survives and still serves valid producers.
        assert_eq!(server.finish().n, 0);
    }

    #[test]
    fn rsrfd_producer_with_other_priors_is_refused_at_hello() {
        // RS+RFD's estimator reads the priors its producers draw fake data
        // from, so the HELLO fingerprint must tell two prior sets apart.
        let with_priors = |prior0: Vec<f64>| {
            SolutionKind::RsRfd(RsRfdProtocol::Grr)
                .build_with_priors(&[4, 3], 1.0, vec![prior0, vec![0.5, 0.3, 0.2]])
                .unwrap()
        };
        let priors_a = with_priors(vec![0.4, 0.3, 0.2, 0.1]);
        let priors_b = with_priors(vec![0.25; 4]);
        let bind = || {
            WireServer::bind(
                "127.0.0.1:0",
                priors_a.clone(),
                ServerConfig::default().shards(2),
            )
            .unwrap()
        };

        let server = bind();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let hello = Frame::Hello {
            fingerprint: priors_b.fingerprint(),
            auth: 0,
        };
        write_frame(&mut writer, &hello).unwrap();
        writer.flush().unwrap();
        match read_frame(&mut reader).unwrap() {
            Frame::Abort { code, .. } => assert_eq!(code, ABORT_HANDSHAKE),
            other => panic!("expected ABORT, got {other:?}"),
        }
        assert_eq!(server.finish().n, 0);

        let server = bind();
        let (mut reader, stream) = handshake(server.local_addr(), &priors_a);
        let mut writer = stream.try_clone().unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let mut batch = CompactBatch::new();
        for uid in 0..100u64 {
            batch.push_wire(uid, &priors_a.report(&[3, 1], &mut rng));
        }
        write_frame(&mut writer, &Frame::BatchSeq { seq: 1, batch }).unwrap();
        write_frame(&mut writer, &Frame::Drain).unwrap();
        writer.flush().unwrap();
        assert!(matches!(
            read_frame(&mut reader).unwrap(),
            Frame::DrainAck { n: 100 }
        ));
        server.wait_for_fleet(1);
        assert_eq!(server.finish().n, 100);
    }

    #[test]
    fn corrupt_frame_closes_only_the_offending_connection() {
        let (server, solution) = spawn_server();
        let addr = server.local_addr();

        // A well-behaved producer on one connection…
        let (mut good_reader, good_stream) = handshake(addr, &solution);
        let mut good_writer = good_stream.try_clone().unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let mut batch = CompactBatch::new();
        for uid in 0..100u64 {
            batch.push(uid, &solution.report(&[0, 1], &mut rng));
        }
        write_frame(
            &mut good_writer,
            &Frame::BatchSeq {
                seq: 1,
                batch: batch.clone(),
            },
        )
        .unwrap();
        good_writer.flush().unwrap();

        // …and garbage on another: corrupt CRC after a valid handshake.
        let (mut bad_reader, bad_stream) = handshake(addr, &solution);
        let mut bad_writer = bad_stream.try_clone().unwrap();
        let mut buf = Vec::new();
        crate::wire::encode_frame(&Frame::BatchSeq { seq: 1, batch }, &mut buf);
        *buf.last_mut().unwrap() ^= 0xFF;
        std::io::Write::write_all(&mut bad_writer, &buf).unwrap();
        bad_writer.flush().unwrap();
        match read_frame(&mut bad_reader).unwrap() {
            Frame::Abort { code, .. } => assert_eq!(code, ABORT_PROTOCOL),
            other => panic!("expected ABORT, got {other:?}"),
        }
        assert!(matches!(
            read_frame(&mut bad_reader),
            Err(WireError::Closed)
        ));

        // The good connection is unaffected: it can still snapshot + drain.
        write_frame(&mut good_writer, &Frame::Drain).unwrap();
        good_writer.flush().unwrap();
        assert!(matches!(
            read_frame(&mut good_reader).unwrap(),
            Frame::DrainAck { n: 100 }
        ));
        server.wait_for_fleet(1);
        assert_eq!(server.rejected_connections(), 1);
        let snapshot = server.finish();
        assert_eq!(snapshot.n, 100, "corrupt frame must not poison a shard");
    }

    #[test]
    fn wait_for_fleet_parks_on_the_condvar_until_the_fleet_drains() {
        let (server, solution) = spawn_server();
        let addr = server.local_addr();
        let server = Arc::new(server);
        // The waiter parks *before* any producer drains — the miscount this
        // guards against is a drain signaled between the waiter's count
        // check and its park (the old busy-spin never slept long enough to
        // expose it; the condvar closes the window by holding the lock
        // across both).
        let waiter = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.wait_for_fleet(2))
        };
        for seed in [41u64, 43] {
            let (mut reader, stream) = handshake(addr, &solution);
            let mut writer = stream.try_clone().unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut batch = CompactBatch::new();
            for uid in 0..50u64 {
                batch.push(uid, &solution.report(&[1, 2], &mut rng));
            }
            write_frame(&mut writer, &Frame::BatchSeq { seq: 1, batch }).unwrap();
            write_frame(&mut writer, &Frame::Drain).unwrap();
            writer.flush().unwrap();
            assert!(matches!(
                read_frame(&mut reader).unwrap(),
                Frame::DrainAck { n: 50 }
            ));
        }
        waiter.join().expect("rendezvous waiter panicked");
        assert_eq!(server.drained_producers(), 2);
        let server = Arc::try_unwrap(server).expect("waiter released its handle");
        assert_eq!(server.finish().n, 100);
    }

    #[test]
    fn epoch_frames_advance_a_two_producer_fleet_in_lockstep() {
        let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
            .build(&[4, 3], 1.0)
            .unwrap();
        let server = WireServer::bind(
            "127.0.0.1:0",
            solution.clone(),
            ServerConfig::default().shards(2).retain(8),
        )
        .unwrap()
        .producers(2);
        let addr = server.local_addr();
        let mut rng = StdRng::seed_from_u64(51);
        let mut rounds_batches = Vec::new();
        for _ in 0..2 {
            let mut batch = CompactBatch::new();
            for uid in 0..40u64 {
                batch.push(uid, &solution.report(&[2, 1], &mut rng));
            }
            rounds_batches.push(batch);
        }
        // Two producers each stream one round then hit the barrier; the
        // barrier must hold until BOTH arrive, then ack round 1 to both.
        let mut sessions: Vec<_> = (0..2)
            .map(|i| {
                let solution = solution.clone();
                let batch = rounds_batches[i].clone();
                std::thread::spawn(move || {
                    let (mut reader, stream) = {
                        let stream = TcpStream::connect(addr).unwrap();
                        let mut reader = BufReader::new(stream.try_clone().unwrap());
                        let mut writer = stream.try_clone().unwrap();
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
                        (reader, stream)
                    };
                    let mut writer = stream.try_clone().unwrap();
                    write_frame(&mut writer, &Frame::BatchSeq { seq: 1, batch }).unwrap();
                    write_frame(&mut writer, &Frame::Epoch { round: 0 }).unwrap();
                    writer.flush().unwrap();
                    match read_frame(&mut reader).unwrap() {
                        Frame::Epoch { round } => assert_eq!(round, 1),
                        other => panic!("expected EPOCH ack, got {other:?}"),
                    }
                    write_frame(&mut writer, &Frame::Drain).unwrap();
                    writer.flush().unwrap();
                    assert!(matches!(
                        read_frame(&mut reader).unwrap(),
                        Frame::DrainAck { n: 40 }
                    ));
                })
            })
            .collect();
        for session in sessions.drain(..) {
            session.join().expect("producer session panicked");
        }
        server.wait_for_fleet(2);
        // One closed epoch holding both producers' round-0 batches.
        let epochs = server.epochs();
        assert_eq!(epochs.len(), 1);
        assert_eq!(epochs[0].epoch, 0);
        assert_eq!(epochs[0].snapshot.n, 80);
        assert_eq!(server.finish().n, 80);
    }

    #[test]
    fn mismatched_epoch_round_is_rejected() {
        let (server, solution) = spawn_server();
        let (mut reader, stream) = handshake(server.local_addr(), &solution);
        let mut writer = stream.try_clone().unwrap();
        write_frame(&mut writer, &Frame::Epoch { round: 7 }).unwrap();
        writer.flush().unwrap();
        match read_frame(&mut reader).unwrap() {
            Frame::Abort { code, .. } => assert_eq!(code, ABORT_PROTOCOL),
            other => panic!("expected ABORT, got {other:?}"),
        }
        assert_eq!(server.finish().n, 0);
    }

    /// A BATCH_SEQ frame of `batch` whose encoded words `edit` rewrites (it
    /// may add or drop words), resealed so that its CRC is valid.
    fn forged_frame(batch: &CompactBatch, edit: impl FnOnce(&mut Vec<u64>)) -> Vec<u8> {
        let mut bytes = Vec::new();
        batch.encode_into(&mut bytes);
        let words_at = 16 + 8 * batch.len();
        let mut words: Vec<u64> = bytes[words_at..]
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
            .collect();
        edit(&mut words);
        bytes.truncate(words_at);
        bytes[8..16].copy_from_slice(&(words.len() as u64).to_le_bytes());
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        let mut frame = Vec::new();
        crate::wire::encode_batch_seq_frame(1, &CompactBatch::new(), &mut frame);
        frame.truncate(24); // header + seq
        frame.extend_from_slice(&bytes);
        let len = (frame.len() - 16) as u32;
        frame[8..12].copy_from_slice(&len.to_le_bytes());
        let crc = crate::wire::crc32(&frame[16..]);
        frame[12..16].copy_from_slice(&crc.to_le_bytes());
        frame
    }

    /// Frames with a valid CRC whose batch the server's solution does not
    /// admit: each is refused whole with ABORT_PROTOCOL before any envelope
    /// lands. The inputs: structurally valid words of the wrong shape (an
    /// SMP batch for a fake-data server), a value `≥ k_j`, dirty bit-vector
    /// padding on an RS+FD[OUE-z] server, and a trailing word.
    #[test]
    fn foreign_solution_batch_is_rejected_atomically() {
        let grr = SolutionKind::RsFd(RsFdProtocol::Grr);
        let oue_z = SolutionKind::RsFd(RsFdProtocol::UeZ(ldp_protocols::UeMode::Optimized));
        let batch_of = |kind: SolutionKind| {
            let solution = kind.build(&[4, 3], 1.0).unwrap();
            let mut rng = StdRng::seed_from_u64(7);
            let mut batch = CompactBatch::new();
            for uid in 0..50u64 {
                batch.push_wire(uid, &solution.report(&[1, 1], &mut rng));
            }
            batch
        };
        let smp = batch_of(SolutionKind::Smp(ldp_protocols::ProtocolKind::Grr));
        let cases: [(&str, SolutionKind, Vec<u8>); 4] = [
            ("foreign shape", grr, forged_frame(&smp, |_| {})),
            (
                "value of k_j",
                grr,
                // Report 0 = [header, attr 0, attr 1]: attr 1 reads 3 of 3.
                forged_frame(&batch_of(grr), |words| words[2] = 3 << 2),
            ),
            (
                "dirty padding",
                oue_z,
                // Report 0 = [header, bits(4), block, bits(3), block]: lane
                // 3 of attr 1's 3 lanes.
                forged_frame(&batch_of(oue_z), |words| words[4] |= 1 << 3),
            ),
            (
                "trailing word",
                grr,
                forged_frame(&batch_of(grr), |words| words.push(0)),
            ),
        ];
        for (name, kind, frame) in cases {
            let solution = kind.build(&[4, 3], 1.0).unwrap();
            let config = ServerConfig::default().shards(2);
            let server = WireServer::bind("127.0.0.1:0", solution.clone(), config).unwrap();
            let (mut reader, mut stream) = handshake(server.local_addr(), &solution);
            stream.write_all(&frame).unwrap();
            match read_frame(&mut reader).unwrap() {
                Frame::Abort { code, .. } => assert_eq!(code, ABORT_PROTOCOL, "{name}"),
                other => panic!("{name}: expected ABORT, got {other:?}"),
            }
            let snapshot = server.finish();
            assert_eq!(
                snapshot.n, 0,
                "{name}: no envelope of a rejected frame may land"
            );
        }
    }

    /// A producer that hangs up halfway through a BATCH_SEQ has suffered a
    /// transport fault, not sent a malformed frame: the connection counts
    /// as dropped, never as rejected.
    #[test]
    fn a_producer_hanging_up_mid_frame_is_dropped_not_rejected() {
        let (server, solution) = spawn_server();
        let (_reader, mut stream) = handshake(server.local_addr(), &solution);
        let mut rng = StdRng::seed_from_u64(8);
        let mut batch = CompactBatch::new();
        for uid in 0..40u64 {
            batch.push(uid, &solution.report(&[2, 1], &mut rng));
        }
        let mut frame = Vec::new();
        crate::wire::encode_batch_seq_frame(1, &batch, &mut frame);
        stream.write_all(&frame[..frame.len() / 2]).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.dropped_connections() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.dropped_connections(), 1);
        assert_eq!(server.rejected_connections(), 0);
        assert_eq!(server.finish().n, 0);
    }

    #[test]
    fn oversize_frame_is_rejected_whole_and_a_full_batch_frame_is_accepted() {
        // A frame is queued whole, so the listener caps it at the channel
        // batch: one report over aborts the connection before anything is
        // ingested, and a frame of exactly `batch` reports is accepted.
        const BATCH: u64 = 16;
        let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
            .build(&[4, 3], 1.0)
            .unwrap();
        let server = WireServer::bind(
            "127.0.0.1:0",
            solution.clone(),
            ServerConfig::default()
                .shards(3)
                .batch(BATCH as usize)
                .ack_every(1),
        )
        .unwrap();
        let frame = |n: u64| {
            let mut rng = StdRng::seed_from_u64(n);
            let mut batch = CompactBatch::new();
            for uid in 0..n {
                batch.push(uid, &solution.report(&[3, 2], &mut rng));
            }
            Frame::BatchSeq { seq: 1, batch }
        };

        let (mut reader, stream) = handshake(server.local_addr(), &solution);
        let mut writer = stream.try_clone().unwrap();
        write_frame(&mut writer, &frame(BATCH + 1)).unwrap();
        writer.flush().unwrap();
        match read_frame(&mut reader).unwrap() {
            Frame::Abort { code, message } => {
                assert_eq!(code, ABORT_PROTOCOL);
                assert!(message.contains("exceeds the server's batch"), "{message}");
            }
            other => panic!("expected ABORT, got {other:?}"),
        }
        assert!(matches!(read_frame(&mut reader), Err(WireError::Closed)));

        // The reader takes the count from the batch header: an oversize
        // batch with a domain fault is refused for its size, one with a
        // structural fault for that fault, and a batch within the bound
        // for its domain fault.
        let batch = |n: u64| match frame(n) {
            Frame::BatchSeq { batch, .. } => batch,
            _ => unreachable!(),
        };
        let read = |bytes: Vec<u8>| {
            let check = Some((&solution, BATCH as usize));
            read_checked_frame(&mut &bytes[..], &mut Vec::new(), check)
        };
        // Report 0 = [header, attr 0, attr 1]: attr 1 reads 3 of 3.
        let value_of_k = |words: &mut Vec<u64>| words[2] = 3 << 2;
        match read(forged_frame(&batch(BATCH + 1), value_of_k)) {
            Err(WireError::Payload(m)) => assert!(m.contains("exceeds"), "{m}"),
            other => panic!("oversize + domain fault: {other:?}"),
        }
        assert!(matches!(
            read(forged_frame(&batch(BATCH + 1), |words| words.push(0))),
            Err(WireError::Batch(CompactDecodeError::TrailingWords))
        ));
        assert!(matches!(
            read(forged_frame(&batch(BATCH), value_of_k)),
            Err(WireError::Batch(CompactDecodeError::Domain(_)))
        ));

        let (mut reader, stream) = handshake(server.local_addr(), &solution);
        let mut writer = stream.try_clone().unwrap();
        write_frame(&mut writer, &Frame::SnapshotRequest { quiesce: true }).unwrap();
        writer.flush().unwrap();
        match read_frame(&mut reader).unwrap() {
            Frame::Snapshot(snap) => assert_eq!(snap.n, 0, "the oversize frame landed"),
            other => panic!("expected SNAPSHOT, got {other:?}"),
        }
        write_frame(&mut writer, &frame(BATCH)).unwrap();
        write_frame(&mut writer, &Frame::Drain).unwrap();
        writer.flush().unwrap();
        assert!(matches!(
            read_frame(&mut reader).unwrap(),
            Frame::BatchAck { seq: 1, n: BATCH }
        ));
        assert!(matches!(
            read_frame(&mut reader).unwrap(),
            Frame::DrainAck { n: BATCH }
        ));
        server.wait_for_fleet(1);
        assert_eq!(server.finish().n, BATCH);
    }

    #[test]
    fn auth_mismatch_is_rejected_at_handshake_with_abort_auth() {
        use crate::wire::auth_fingerprint;
        let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
            .build(&[4, 3], 1.0)
            .unwrap();
        let server = WireServer::bind(
            "127.0.0.1:0",
            solution.clone(),
            ServerConfig::default()
                .shards(2)
                .auth_token(Some("right-token".into())),
        )
        .unwrap();
        let addr = server.local_addr();
        let fingerprint = solution.fingerprint();

        // No token, then the wrong token: both ABORT_AUTH.
        for auth in [0, auth_fingerprint("wrong-token")] {
            let stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            write_frame(&mut writer, &Frame::Hello { fingerprint, auth }).unwrap();
            writer.flush().unwrap();
            match read_frame(&mut reader).unwrap() {
                Frame::Abort { code, .. } => assert_eq!(code, ABORT_AUTH),
                other => panic!("expected ABORT, got {other:?}"),
            }
        }

        // The right token handshakes, streams and drains normally.
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        write_frame(
            &mut writer,
            &Frame::Hello {
                fingerprint,
                auth: auth_fingerprint("right-token"),
            },
        )
        .unwrap();
        writer.flush().unwrap();
        assert!(matches!(
            read_frame(&mut reader).unwrap(),
            Frame::HelloAck { .. }
        ));
        let mut rng = StdRng::seed_from_u64(9);
        let mut batch = CompactBatch::new();
        for uid in 0..30u64 {
            batch.push(uid, &solution.report(&[1, 2], &mut rng));
        }
        write_frame(&mut writer, &Frame::BatchSeq { seq: 1, batch }).unwrap();
        write_frame(&mut writer, &Frame::Drain).unwrap();
        writer.flush().unwrap();
        assert!(matches!(
            read_frame(&mut reader).unwrap(),
            Frame::DrainAck { n: 30 }
        ));
        server.wait_for_fleet(1);
        assert_eq!(server.rejected_connections(), 2);
        assert_eq!(server.finish().n, 30);
    }

    #[test]
    fn sequenced_batches_ack_dedup_and_resume_exactly_once() {
        let (server, solution) = spawn_server();
        let addr = server.local_addr();
        let mut rng = StdRng::seed_from_u64(23);
        let mut batches = Vec::new();
        for _ in 0..3 {
            let mut batch = CompactBatch::new();
            for uid in 0..20u64 {
                batch.push(uid, &solution.report(&[1, 2], &mut rng));
            }
            batches.push(batch);
        }

        // First connection: two sequenced batches (one duplicated), then
        // the connection dies without draining.
        let session = {
            let stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream.try_clone().unwrap();
            write_frame(
                &mut writer,
                &Frame::Hello {
                    fingerprint: solution.fingerprint(),
                    auth: 0,
                },
            )
            .unwrap();
            writer.flush().unwrap();
            let session = match read_frame(&mut reader).unwrap() {
                Frame::HelloAck { session, .. } => session,
                other => panic!("expected HELLO_ACK, got {other:?}"),
            };
            assert_ne!(session, 0, "default capacity must admit the session");
            for (i, batch) in batches[..2].iter().enumerate() {
                let frame = Frame::BatchSeq {
                    seq: i as u64 + 1,
                    batch: batch.clone(),
                };
                write_frame(&mut writer, &frame).unwrap();
                if i == 1 {
                    // The duplicate fault class: the same frame twice.
                    write_frame(&mut writer, &frame).unwrap();
                }
            }
            writer.flush().unwrap();
            // Quiesced snapshot proves the duplicate was discarded.
            write_frame(&mut writer, &Frame::SnapshotRequest { quiesce: true }).unwrap();
            writer.flush().unwrap();
            match read_frame(&mut reader).unwrap() {
                Frame::Snapshot(snap) => assert_eq!(snap.n, 40),
                other => panic!("expected SNAPSHOT, got {other:?}"),
            }
            // Die without draining (the reset fault class).
            drop(writer);
            session
        };

        // Second connection resumes the session, replays batch 2 (already
        // ingested — must be deduped), streams batch 3 and drains.
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream.try_clone().unwrap();
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
        write_frame(
            &mut writer,
            &Frame::Resume {
                session,
                last_acked: 1,
            },
        )
        .unwrap();
        writer.flush().unwrap();
        // The resume may race the dead handler's release; back off briefly.
        let acked = loop {
            match read_frame(&mut reader) {
                Ok(Frame::ResumeAck { acked_seq }) => break acked_seq,
                Ok(Frame::Abort { .. }) | Err(_) => {
                    std::thread::sleep(Duration::from_millis(20));
                    let stream = TcpStream::connect(addr).unwrap();
                    reader = BufReader::new(stream.try_clone().unwrap());
                    writer = stream.try_clone().unwrap();
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
                    write_frame(
                        &mut writer,
                        &Frame::Resume {
                            session,
                            last_acked: 1,
                        },
                    )
                    .unwrap();
                    writer.flush().unwrap();
                }
                other => panic!("expected RESUME_ACK, got {other:?}"),
            }
        };
        assert_eq!(acked, 2, "server acked both pre-fault batches");
        for (i, batch) in batches[1..].iter().enumerate() {
            write_frame(
                &mut writer,
                &Frame::BatchSeq {
                    seq: i as u64 + 2,
                    batch: batch.clone(),
                },
            )
            .unwrap();
        }
        write_frame(&mut writer, &Frame::Drain).unwrap();
        writer.flush().unwrap();
        assert!(matches!(
            read_frame(&mut reader).unwrap(),
            Frame::DrainAck { n: 60 }
        ));
        server.wait_for_fleet(1);
        let snapshot = server.finish();
        assert_eq!(snapshot.n, 60, "replays must never double-ingest");
    }

    #[test]
    fn out_of_order_seq_gap_is_rejected() {
        let (server, solution) = spawn_server();
        let (mut reader, stream) = handshake(server.local_addr(), &solution);
        let mut writer = stream.try_clone().unwrap();
        let mut rng = StdRng::seed_from_u64(29);
        let mut batch = CompactBatch::new();
        for uid in 0..10u64 {
            batch.push(uid, &solution.report(&[0, 0], &mut rng));
        }
        // seq 5 with nothing acked: a gap, not a replay — rejected.
        write_frame(&mut writer, &Frame::BatchSeq { seq: 5, batch }).unwrap();
        writer.flush().unwrap();
        match read_frame(&mut reader).unwrap() {
            Frame::Abort { code, .. } => assert_eq!(code, ABORT_PROTOCOL),
            other => panic!("expected ABORT, got {other:?}"),
        }
        assert_eq!(server.finish().n, 0);
    }
}
