//! The blocking socket front of the ingestion service: a std-only TCP
//! listener that speaks the [`crate::wire`] protocol and feeds decoded
//! batches into an [`LdpServer`]'s bounded shard channels.
//!
//! ## Threading and backpressure
//!
//! One OS thread per connection, blocking reads, no async runtime: ingestion
//! is throughput-bound, and a blocked thread *is* the backpressure. A
//! handler decodes each BATCH_SEQ against the server's solution as it reads
//! it ([`CompactBatch::decode_for`]) and hands the checked batch to a shard
//! whole. When every shard queue is full, `ingest_compact` blocks the
//! handler, it stops reading, the TCP window closes and the producer's
//! `write` stalls: flow control reaches the producer with no code between.
//!
//! ## Sessions and fleet state
//!
//! A handler is a thin adapter: it reads a frame, steps the connection's
//! `ServerSession` (the [`crate::session`] module decides every reply,
//! ingest, barrier wait and ABORT) and acts on the step. The rules across
//! connections (exactly-once sequencing, resume, reaping, the EPOCH barrier)
//! live in one `Fleet` behind one mutex and one condvar. A step runs under
//! that lock and the handler ingests after dropping it, so a handler
//! blocked on a full shard queue holds nothing another connection needs;
//! it tells the fleet once the batch is handed over, and a RESUME of its
//! session waits for that. Parked connections (a barrier waiter, such a
//! RESUME) and [`WireServer::wait_for_fleet`] share one park loop: each
//! sleeps on the condvar until a change or the fleet's next reap, then
//! reaps what is due. Neither the session nor the fleet reads a clock:
//! handlers pass the time since the listener started.
//!
//! ## Error isolation and determinism
//!
//! A malformed frame (bad magic, version, CRC, truncation, an out-of-domain
//! batch) closes **only the offending connection**, after a best-effort
//! ABORT, and is refused whole before any envelope of it reaches a shard.
//! The listener counts refusals ([`WireServer::rejected_connections`]) apart
//! from transport faults a producer may resume from
//! ([`WireServer::dropped_connections`]). The shard merge is exact integer
//! addition, so a drain of a socket-fed server is bit-identical to
//! in-process ingestion of the same reports (`tests/net_equivalence.rs`).
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
use crate::fleet::Fleet;
use crate::service::LdpServer;
use crate::session::{Input, ServerSession, Step};
use crate::snapshot::{EpochSnapshot, ServerSnapshot};
use crate::wire::{read_checked_frame, write_frame, Frame, WireError, WireSnapshot};

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
    accept: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
}

/// What the listener's threads share: the fleet behind its lock, the live
/// handlers, and two diagnostic counters that feed no decision.
#[derive(Debug)]
struct Shared {
    fleet: Mutex<Fleet>,
    /// Signaled on every change a parked thread may wait for.
    changed: Condvar,
    /// The zero of the fleet's clock.
    started: Instant,
    /// Handlers of connections that may still be open.
    handlers: Mutex<Vec<JoinHandle<()>>>,
    /// Connections refused for a protocol violation.
    rejected: AtomicUsize,
    /// Connections cut by a transport fault ([`WireError::is_transport`]).
    dropped: AtomicUsize,
}

impl Shared {
    fn fleet(&self) -> MutexGuard<'_, Fleet> {
        self.fleet.lock().expect(POISONED)
    }

    fn now(&self) -> Duration {
        self.started.elapsed()
    }

    /// Steps `session` on `read` under the fleet lock; a wait parks and
    /// steps again each time it wakes. A reply or an arrival signals the
    /// parked threads. A release rotates the server's epoch before the lock
    /// drops, so no producer streams the next round before the epoch closes.
    fn step(
        &self,
        session: &mut ServerSession,
        read: Result<Frame, WireError>,
        server: &LdpServer,
    ) -> Step {
        let mut fleet = self.fleet();
        let mut step = session.step(Input::Read(read), &mut fleet);
        if let Step::Reply(_) | Step::Wait = step {
            self.changed.notify_all();
        }
        while let Step::Wait = step {
            fleet = self.park(fleet);
            step = session.step(Input::Woken, &mut fleet);
        }
        if let Step::Release(_) = step {
            server.advance_epoch();
            self.changed.notify_all();
        }
        step
    }

    /// The one park loop's body: sleeps until a signal or the fleet's next
    /// reap, then reaps what is due, logs each reap and signals.
    fn park<'a>(&self, fleet: MutexGuard<'a, Fleet>) -> MutexGuard<'a, Fleet> {
        let wait = fleet.deadline().map(|at| at.saturating_sub(self.now()));
        let mut fleet = match wait {
            Some(wait) => self.changed.wait_timeout(fleet, wait).expect(POISONED).0,
            None => self.changed.wait(fleet).expect(POISONED),
        };
        let reaped = fleet.tick(self.now());
        for token in &reaped {
            eprintln!("ldp-server: reaped session {token:#018x}: no resume in its grace period");
        }
        if !reaped.is_empty() {
            self.changed.notify_all();
        }
        fleet
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
        // Tokens never feed the estimates, so salting them with wall-clock
        // entropy leaves the determinism contract alone.
        let nonce = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map_or(0x5E55_10E5, |d| d.as_nanos() as u64);
        let shared = Arc::new(Shared {
            fleet: Mutex::new(Fleet::new(SESSION_CAPACITY, config.read_timeout(), nonce)),
            changed: Condvar::new(),
            started: Instant::now(),
            handlers: Mutex::new(Vec::new()),
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

    /// The rendezvous for a fixed-size producer fleet: blocks until drained
    /// **plus reaped** sessions reach `n`, so a producer that dies past its
    /// retry budget shrinks the rendezvous instead of wedging it. It parks
    /// like a barrier waiter, reaping what falls due (nothing, with a
    /// [`ServerConfig::read_timeout_ms`] of `0`).
    pub fn wait_for_fleet(&self, n: usize) {
        let mut fleet = self.shared.fleet();
        while fleet.drained() + fleet.reaped() < n {
            fleet = self.shared.park(fleet);
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
    /// the accept thread plus every handler it left.
    fn shutdown_listener(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // `TcpListener::accept` has no timeout; a throwaway local connection
        // is the portable way to wake it so it can observe `stop`.
        let _ = TcpStream::connect(self.addr);
        accept.join().expect("accept thread panicked");
        let handlers = std::mem::take(&mut *self.shared.handlers.lock().expect(POISONED));
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

/// Accepts until `stop` is set, one handler thread per producer; finished
/// handlers are dropped as new ones arrive.
fn accept_loop(
    listener: &TcpListener,
    server: &Arc<LdpServer>,
    stop: &AtomicBool,
    shared: &Arc<Shared>,
) {
    for (conn, stream) in listener.incoming().enumerate() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let server = Arc::clone(server);
        let thread = Arc::clone(shared);
        let handler = std::thread::Builder::new()
            .name(format!("ldp-conn-{conn}"))
            .spawn(move || {
                // A peer may disconnect without draining (e.g. a
                // monitoring probe); that is not a violation.
                if let Err(e) = drive_connection(stream, &server, &thread) {
                    let count = if e.is_transport() {
                        &thread.dropped
                    } else {
                        &thread.rejected
                    };
                    count.fetch_add(1, Ordering::Relaxed);
                }
            })
            .expect("cannot spawn connection handler");
        let mut handlers = shared.handlers.lock().expect(POISONED);
        handlers.retain(|h| !h.is_finished());
        handlers.push(handler);
    }
}

/// Runs one producer connection to completion: read a frame, step the
/// session, act. Any `Err` already sent a best-effort ABORT and stands for
/// "this connection was cut, everyone else keeps going".
fn drive_connection(
    stream: TcpStream,
    server: &LdpServer,
    shared: &Shared,
) -> Result<(), WireError> {
    // Frames are small relative to throughput; turn Nagle off so snapshot
    // and drain acks turn around immediately.
    let _ = stream.set_nodelay(true);
    // The idle-connection guard: a producer silent past the read timeout
    // reads as a typed `WireError::Timeout`, which the session refuses with
    // ABORT_TIMEOUT instead of pinning this thread forever. `0` disables it.
    stream.set_read_timeout(server.config().read_timeout())?;
    let mut reader = BufReader::with_capacity(256 * 1024, stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut session = ServerSession::new(server.solution().fingerprint(), server.config());
    // A BATCH_SEQ comes out of the read checked, whole, against the
    // solution and the batch size: frames are atomic, so a malformed or
    // oversize one is refused without an envelope reaching a shard.
    let check = (server.solution(), server.config().batch);
    let mut payload = Vec::new();
    let result = loop {
        let read = read_checked_frame(&mut reader, &mut payload, session.open().then_some(check));
        let sent = match shared.step(&mut session, read, server) {
            Step::Read | Step::Wait => Ok(()),
            Step::Reply(frame) => send(&mut writer, &frame),
            Step::Ingest(batch, ack) => {
                // May block on a full shard queue: the backpressure path.
                server.ingest_compact(batch);
                session.handed(&mut shared.fleet());
                shared.changed.notify_all();
                ack.map_or(Ok(()), |ack| send(&mut writer, &ack))
            }
            Step::Snapshot => {
                let snapshot = WireSnapshot::from(&server.snapshot());
                send(&mut writer, &Frame::Snapshot(snapshot))
            }
            Step::Release(round) => send(&mut writer, &Frame::Epoch { round }),
            Step::Close(reply) => break reply.map_or(Ok(()), |r| send(&mut writer, &r)),
            Step::Refuse(code, e) => {
                let message = e.to_string();
                let _ = send(&mut writer, &Frame::Abort { code, message });
                break Err(e);
            }
        };
        if let Err(e) = sent {
            break Err(e);
        }
    };
    session.end(&mut shared.fleet(), shared.now());
    shared.changed.notify_all();
    result
}

/// Writes one frame and flushes it.
fn send(writer: &mut impl Write, frame: &Frame) -> Result<(), WireError> {
    write_frame(writer, frame)?;
    writer.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{ABORT_AUTH, ABORT_HANDSHAKE, ABORT_PROTOCOL};
    use crate::wire::read_frame;
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

    /// The listener sheds finished connection handlers as new connections
    /// arrive: after 256 connections have come and gone it holds a few
    /// handles, not one per connection it ever served.
    #[test]
    fn the_listener_sheds_finished_handlers() {
        let (server, _solution) = spawn_server();
        for _ in 0..256 {
            drop(TcpStream::connect(server.local_addr()).unwrap());
        }
        let held = || server.shared.handlers.lock().unwrap().len();
        // Each probe's accept prunes the handlers that finished before it.
        let deadline = Instant::now() + Duration::from_secs(10);
        while held() > 4 && Instant::now() < deadline {
            drop(TcpStream::connect(server.local_addr()).unwrap());
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(held() <= 4, "the listener holds {} handles", held());
        assert_eq!(server.finish().n, 0);
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

    /// Entries of the right tag that their oracle never draws: SPL[SS]
    /// subsets of other than ω strictly ascending members (one report of a
    /// thousand zeros would add 1000 to `C_0(0)`), and SMP[OLH] reports
    /// whose hash range is not the oracle's `g` (they reached
    /// `Olh::count_hashed`'s debug assert, a worker panic). Each forged
    /// frame is refused with ABORT_PROTOCOL, and the server keeps serving:
    /// an honest producer's batches around them drain bit-identically to a
    /// clean in-process run.
    #[test]
    fn forged_subsets_and_hash_ranges_are_refused_and_the_server_keeps_serving() {
        use ldp_core::solutions::{SmpReport, SolutionReport};
        use ldp_protocols::{ProtocolKind, Report};
        let frame_of = |report: SolutionReport| {
            let mut batch = CompactBatch::new();
            batch.push_wire(0, &report);
            let mut frame = Vec::new();
            crate::wire::encode_batch_seq_frame(1, &batch, &mut frame);
            frame
        };
        // At ε = 1 over k = 8: SPL[SS] draws ω = 3 members per attribute,
        // SMP[OLH] hashes into g = 4.
        let subsets = |first: Vec<u32>| {
            frame_of(SolutionReport::full(&[
                Report::Subset(first),
                Report::Subset(vec![1, 4, 7]),
            ]))
        };
        let hashed = |g: u32| {
            let report = Report::Hashed {
                seed: 7,
                g,
                value: 1,
            };
            frame_of(SolutionReport::smp(&SmpReport { attr: 0, report }))
        };
        let cases = [
            (
                SolutionKind::Spl(ProtocolKind::Ss),
                vec![
                    subsets(vec![0; 1000]),
                    subsets(vec![5, 2, 0]),
                    subsets(vec![0, 0, 2]),
                ],
            ),
            (
                SolutionKind::Smp(ProtocolKind::Olh),
                vec![hashed(2), hashed(5)],
            ),
        ];
        for (kind, forged) in cases {
            let solution = kind.build(&[8, 8], 1.0).unwrap();
            let config = ServerConfig::default().shards(2);
            let server = WireServer::bind("127.0.0.1:0", solution.clone(), config).unwrap();
            let mut rng = StdRng::seed_from_u64(9);
            let honest: Vec<CompactBatch> = (0..2)
                .map(|_| {
                    let mut batch = CompactBatch::new();
                    for uid in 0..40u64 {
                        let tuple = [(uid % 8) as u32, 3];
                        batch.push_wire(uid, &solution.report(&tuple, &mut rng));
                    }
                    batch
                })
                .collect();
            let (mut reader, stream) = handshake(server.local_addr(), &solution);
            let mut writer = stream.try_clone().unwrap();
            let batch = honest[0].clone();
            write_frame(&mut writer, &Frame::BatchSeq { seq: 1, batch }).unwrap();
            writer.flush().unwrap();
            for frame in forged {
                let (mut forged_reader, mut forged_stream) =
                    handshake(server.local_addr(), &solution);
                // An accepted frame gets no reply: fail, do not hang.
                let timeout = Some(Duration::from_secs(10));
                forged_stream.set_read_timeout(timeout).unwrap();
                forged_stream.write_all(&frame).unwrap();
                match read_frame(&mut forged_reader).unwrap() {
                    Frame::Abort { code, .. } => assert_eq!(code, ABORT_PROTOCOL, "{kind}"),
                    other => panic!("{kind}: expected ABORT, got {other:?}"),
                }
            }
            let batch = honest[1].clone();
            write_frame(&mut writer, &Frame::BatchSeq { seq: 2, batch }).unwrap();
            write_frame(&mut writer, &Frame::Drain).unwrap();
            writer.flush().unwrap();
            loop {
                match read_frame(&mut reader).unwrap() {
                    Frame::BatchAck { .. } => {}
                    Frame::DrainAck { n } => break assert_eq!(n, 80, "{kind}"),
                    other => panic!("{kind}: expected DRAIN_ACK, got {other:?}"),
                }
            }
            server.wait_for_fleet(1);
            let snapshot = server.finish();
            let mut clean = solution.aggregator();
            honest.iter().for_each(|batch| clean.absorb_compact(batch));
            assert_eq!(snapshot.n, 80, "{kind}");
            assert_eq!(snapshot.aggregator.counts(), clean.counts(), "{kind}");
            let bits = |e: &[Vec<f64>]| e.iter().flatten().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&snapshot.estimates), bits(&clean.estimate()), "{kind}");
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
        // Taken over at once, whether or not the dead handler has let go.
        match read_frame(&mut reader).unwrap() {
            Frame::ResumeAck { acked_seq } => {
                assert_eq!(acked_seq, 2, "server acked both pre-fault batches")
            }
            other => panic!("expected RESUME_ACK, got {other:?}"),
        }
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
