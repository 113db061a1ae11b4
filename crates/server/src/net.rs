//! The blocking socket front of the ingestion service: a std-only TCP
//! listener that speaks the [`crate::wire`] protocol and feeds decoded
//! batches into an [`LdpServer`]'s bounded shard channels.
//!
//! ## Threading and backpressure
//!
//! ```text
//!  producer sockets ──► per-connection handler threads ──► LdpServer
//!        (N)                 read_frame / validate          bounded
//!                            ingest_compact (may block)     shard queues
//! ```
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
//! ## Error isolation
//!
//! A malformed frame (bad magic, version, CRC, truncation, an out-of-domain
//! batch) closes **only the offending connection**, after a best-effort
//! ABORT frame to the peer. The whole frame is validated against the
//! server's solution before any envelope of it is ingested, so a bad frame
//! never half-poisons a shard; other connections and the aggregation
//! workers never notice.
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

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ldp_core::solutions::DynSolution;
use ldp_protocols::hash::mix2;

use crate::config::ServerConfig;
use crate::service::LdpServer;
use crate::snapshot::{EpochSnapshot, ServerSnapshot};
use crate::wire::{
    auth_fingerprint, read_frame, solution_fingerprint, write_frame, Frame, WireError, WireSnapshot,
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
    stats: Arc<NetStats>,
}

/// Shared connection state: diagnostics counters (none of which
/// participate in the determinism contract) plus the fleet-wide EPOCH
/// barrier for longitudinal producers.
#[derive(Debug)]
struct NetStats {
    /// Connections that completed a DRAIN handshake. Guarded by a mutex
    /// (not an atomic) so [`WireServer::wait_for_producers`] can sleep on
    /// `drained_cvar` without a missed-wakeup window between checking the
    /// count and parking.
    drained: Mutex<usize>,
    /// Signaled on every clean drain.
    drained_cvar: Condvar,
    /// Connections dropped for a protocol violation.
    rejected: AtomicUsize,
    /// Reports ingested over all connections.
    ingested: AtomicU64,
    /// Declared producer-fleet size the EPOCH barrier waits for
    /// (see [`WireServer::producers`]).
    fleet: AtomicUsize,
    /// EPOCH barrier state: the fleet's current round and how many
    /// producers have arrived at its end.
    gate: Mutex<EpochGate>,
    /// Signaled when the barrier releases (the fleet's round advances).
    gate_cvar: Condvar,
    /// The bounded producer-session table keyed by HELLO-issued tokens —
    /// the dedup / resume state of the fault-tolerance contract.
    sessions: Mutex<SessionTable>,
    /// Sessions reaped after exceeding the resume grace period; each one
    /// permanently shrinks the effective fleet the EPOCH barrier and
    /// [`WireServer::wait_for_fleet`] wait for.
    reaped: AtomicUsize,
}

/// The EPOCH barrier's guarded state.
#[derive(Debug, Default)]
struct EpochGate {
    /// The round the fleet is currently streaming.
    round: u64,
    /// Session tokens that already announced the end of this round. A set,
    /// not a counter: a producer that faults after announcing and
    /// re-announces after its resume is idempotent, never double-counted.
    arrived: HashSet<u64>,
}

/// Bounded session table: insertion-ordered for eviction, keyed by the
/// opaque tokens HELLO_ACK hands out.
#[derive(Debug)]
struct SessionTable {
    map: HashMap<u64, SessionState>,
    /// Insertion order for capacity eviction; may hold stale tokens
    /// (lazily skipped) after resume-releases.
    order: VecDeque<u64>,
    /// Monotone token counter, mixed with `nonce` into the issued token.
    next: u64,
    /// Startup-derived salt making tokens non-guessable across runs. Tokens
    /// never feed the estimates, so this wall-clock entropy does not touch
    /// the determinism contract.
    nonce: u64,
}

/// What the server remembers about one producer session, across however
/// many TCP connections it takes to finish it.
#[derive(Debug)]
struct SessionState {
    /// Highest contiguously ingested `BATCH_SEQ` number; replays at or
    /// below it are silently discarded — the exactly-once guarantee.
    acked_seq: u64,
    /// Reports ingested for this session across all its connections.
    ingested: u64,
    /// Connection currently driving the session (`None` between
    /// connections). A RESUME for an owned session is refused — the client
    /// backs off until the dead handler observes its socket error and
    /// releases ownership, which closes the concurrent-ingest race.
    owner: Option<u64>,
    /// Whether a DRAIN was already counted for this session — a re-drain
    /// after a missed DRAIN_ACK acks again but never double-counts.
    drained: bool,
    /// Whether the session ever ingested or resumed; untouched sessions
    /// (probes, idle producers) are never marked suspect.
    touched: bool,
    /// When the session lost its connection without draining; reaped once
    /// this exceeds the resume grace period.
    suspect_since: Option<Instant>,
}

impl SessionTable {
    fn issue(&mut self, capacity: usize, conn: u64) -> (u64, bool) {
        let token = loop {
            self.next = self.next.wrapping_add(1);
            let t = mix2(self.nonce, self.next);
            if t != 0 && !self.map.contains_key(&t) {
                break t;
            }
        };
        if self.map.len() >= capacity {
            // Evict the oldest entry nobody is driving and nobody might
            // still resume into the reap accounting (suspects stay). Stale
            // deque slots (tokens already removed) are dropped in passing.
            let mut evicted = false;
            let mut i = 0;
            while i < self.order.len() {
                let cand = self.order[i];
                match self.map.get(&cand) {
                    None => {
                        self.order.remove(i);
                    }
                    Some(s) if s.owner.is_none() && s.suspect_since.is_none() => {
                        self.order.remove(i);
                        self.map.remove(&cand);
                        evicted = true;
                        break;
                    }
                    Some(_) => i += 1,
                }
            }
            if !evicted {
                // Every slot is live: the newcomer gets a unique barrier
                // identity but no resume support (HELLO_ACK reports 0).
                return (token, false);
            }
        }
        self.map.insert(
            token,
            SessionState {
                acked_seq: 0,
                ingested: 0,
                owner: Some(conn),
                drained: false,
                touched: false,
                suspect_since: None,
            },
        );
        self.order.push_back(token);
        (token, true)
    }
}

impl NetStats {
    fn new() -> NetStats {
        let nonce = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5E55_10E5);
        NetStats {
            drained: Mutex::new(0),
            drained_cvar: Condvar::new(),
            rejected: AtomicUsize::new(0),
            ingested: AtomicU64::new(0),
            fleet: AtomicUsize::new(1),
            gate: Mutex::new(EpochGate::default()),
            gate_cvar: Condvar::new(),
            sessions: Mutex::new(SessionTable {
                map: HashMap::new(),
                order: VecDeque::new(),
                next: 0,
                nonce: mix2(nonce, 0xC0FF_EE00),
            }),
            reaped: AtomicUsize::new(0),
        }
    }

    /// Records one clean DRAIN and wakes every fleet-rendezvous waiter.
    fn note_drained(&self) {
        let mut drained = self.drained.lock().expect("drain counter poisoned");
        *drained += 1;
        self.drained_cvar.notify_all();
    }

    /// The fleet size barriers actually wait for: the declared size minus
    /// reaped sessions, never below 1.
    fn effective_fleet(&self) -> usize {
        self.fleet
            .load(Ordering::SeqCst)
            .saturating_sub(self.reaped.load(Ordering::SeqCst))
            .max(1)
    }

    /// Issues a fresh session token for connection `conn`. The bool says
    /// whether the session landed in the (bounded) table — if not, the
    /// token still serves as the connection's unique barrier identity but
    /// the producer cannot RESUME it.
    fn issue_session(&self, capacity: usize, conn: u64) -> (u64, bool) {
        self.sessions
            .lock()
            .expect("session table poisoned")
            .issue(capacity, conn)
    }

    /// Drops an untouched auto-issued session (the one a RESUME replaces).
    fn forget_session(&self, token: u64) {
        let mut tbl = self.sessions.lock().expect("session table poisoned");
        if tbl.map.get(&token).is_some_and(|s| !s.touched) {
            tbl.map.remove(&token);
        }
    }

    /// Attempts to attach connection `conn` to session `token` after a
    /// reconnect. On success returns the session's `(acked_seq, ingested)`.
    fn try_resume(&self, token: u64, last_acked: u64, conn: u64) -> Result<(u64, u64), WireError> {
        let mut tbl = self.sessions.lock().expect("session table poisoned");
        let Some(state) = tbl.map.get_mut(&token) else {
            return Err(WireError::Handshake(format!(
                "RESUME names an unknown (expired or reaped) session {token:#018x}"
            )));
        };
        if state.owner.is_some() {
            return Err(WireError::Handshake(format!(
                "session {token:#018x} is still active on another connection"
            )));
        }
        if last_acked > state.acked_seq {
            return Err(WireError::Handshake(format!(
                "RESUME claims acked seq {last_acked} but the server only acked {}",
                state.acked_seq
            )));
        }
        state.owner = Some(conn);
        state.touched = true;
        state.suspect_since = None;
        Ok((state.acked_seq, state.ingested))
    }

    /// Writes a successfully ingested sequenced batch back to the table.
    fn record_batch(&self, token: u64, seq: u64, len: u64) {
        let mut tbl = self.sessions.lock().expect("session table poisoned");
        if let Some(state) = tbl.map.get_mut(&token) {
            state.acked_seq = seq;
            state.ingested += len;
            state.touched = true;
        }
    }

    /// Marks the session drained; returns whether this was the first time
    /// (a re-drain after a missed DRAIN_ACK acks but does not recount).
    fn mark_drained(&self, token: u64) -> bool {
        let mut tbl = self.sessions.lock().expect("session table poisoned");
        match tbl.map.get_mut(&token) {
            Some(state) if !state.drained => {
                state.drained = true;
                true
            }
            Some(_) => false,
            // Not in the table (capacity sentinel): the connection is the
            // session, so every drain is a first drain.
            None => true,
        }
    }

    /// Releases connection `conn`'s ownership of `token` on handler exit.
    /// A touched, undrained session becomes suspect: its producer has the
    /// resume grace period to come back before the session is reaped.
    fn release_session(&self, token: u64, conn: u64) {
        let mut tbl = self.sessions.lock().expect("session table poisoned");
        if let Some(state) = tbl.map.get_mut(&token) {
            if state.owner == Some(conn) {
                state.owner = None;
                if state.touched && !state.drained {
                    state.suspect_since = Some(Instant::now());
                }
            }
        }
    }

    /// Reaps every suspect session older than `grace`: removes it from the
    /// table (a late RESUME gets "unknown session"), shrinks the effective
    /// fleet, and wakes both the drain rendezvous and the epoch barrier so
    /// the surviving fleet can complete without the dead partition.
    /// Returns how many sessions were reaped by this call.
    fn reap_suspects(&self, grace: Duration) -> usize {
        let mut tbl = self.sessions.lock().expect("session table poisoned");
        let now = Instant::now();
        let dead: Vec<u64> = tbl
            .map
            .iter()
            .filter(|(_, s)| {
                s.suspect_since
                    .is_some_and(|t| now.duration_since(t) >= grace)
            })
            .map(|(&t, _)| t)
            .collect();
        for token in &dead {
            tbl.map.remove(token);
            eprintln!(
                "ldp-server: ABORT session {token:#018x} — producer exceeded its \
                 resume grace period; reaping it from the fleet"
            );
        }
        drop(tbl);
        let n = dead.len();
        if n > 0 {
            self.reaped.fetch_add(n, Ordering::SeqCst);
            self.drained_cvar.notify_all();
            self.gate_cvar.notify_all();
        }
        n
    }

    /// Whether any session is currently suspect (faulted, inside its resume
    /// grace window). A barrier waiter that times out while a suspect is
    /// still in grace extends its wait instead of aborting: the verdict on
    /// that producer — resumed or reaped — arrives within one grace period.
    fn suspects_pending(&self) -> bool {
        let tbl = self.sessions.lock().expect("session table poisoned");
        tbl.map.values().any(|s| s.suspect_since.is_some())
    }

    /// Holds the caller at the fleet's EPOCH barrier for the end of
    /// `round`. The last producer to arrive rotates the server's epoch and
    /// releases everyone; returns the fleet's new current round (always
    /// `round + 1`). Arrival is keyed by session token and idempotent, so
    /// a producer that faults after announcing and re-announces after its
    /// resume never double-counts. A waiter that outlives `timeout` first
    /// tries to reap suspect sessions (shrinking the fleet it waits for);
    /// only if nothing was reaped does it withdraw and error — a hung
    /// fleet member must never wedge the rest forever when a timeout is
    /// configured. Errors carry the abort code the peer should see
    /// ([`ABORT_PROTOCOL`] for a round mismatch, [`ABORT_TIMEOUT`] for an
    /// expired wait).
    fn epoch_barrier(
        &self,
        server: &LdpServer,
        round: u64,
        timeout: Option<Duration>,
        token: u64,
    ) -> Result<u64, (u16, WireError)> {
        let mut gate = self.gate.lock().expect("epoch gate poisoned");
        if round + 1 == gate.round {
            // A resumed producer re-announcing a round the fleet already
            // advanced past (its first announce was counted before the
            // fault): the ack it missed is simply re-sent.
            return Ok(gate.round);
        }
        if round != gate.round {
            return Err((
                ABORT_PROTOCOL,
                WireError::Payload(format!(
                    "EPOCH announces the end of round {round}, but the fleet is on round {}",
                    gate.round
                )),
            ));
        }
        gate.arrived.insert(token);
        let mut deadline = timeout.map(|t| Instant::now() + t);
        // Guard-loop wait: spurious wakeups re-check the round and the
        // (possibly reap-shrunk) fleet, so the barrier can never release
        // early or miscount.
        loop {
            if gate.round > round {
                return Ok(round + 1);
            }
            if gate.arrived.len() >= self.effective_fleet() {
                server.advance_epoch();
                gate.round += 1;
                gate.arrived.clear();
                self.gate_cvar.notify_all();
                return Ok(round + 1);
            }
            gate = match deadline {
                None => self.gate_cvar.wait(gate).expect("epoch gate poisoned"),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        // Lock order is gate → sessions, here and nowhere
                        // reversed.
                        let grace = timeout.expect("deadline implies timeout");
                        if self.reap_suspects(grace) > 0 {
                            // The fleet shrank; re-check arrivals against
                            // the smaller fleet before giving up.
                            deadline = Some(Instant::now() + grace);
                            continue;
                        }
                        if self.suspects_pending() {
                            // A faulted peer is still inside its grace
                            // window — wait it out rather than abort; the
                            // next expiry either reaps it or it resumed.
                            deadline = Some(Instant::now() + grace);
                            continue;
                        }
                        gate.arrived.remove(&token);
                        return Err((
                            ABORT_TIMEOUT,
                            WireError::Payload(format!(
                                "EPOCH barrier for round {round} timed out waiting for \
                                 the rest of the {}-producer fleet",
                                self.effective_fleet()
                            )),
                        ));
                    }
                    self.gate_cvar
                        .wait_timeout(gate, d - now)
                        .expect("epoch gate poisoned")
                        .0
                }
            };
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
        let server = Arc::new(LdpServer::spawn(solution, config));
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(NetStats::new());
        let accept = {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            std::thread::Builder::new()
                .name("ldp-accept".into())
                .spawn(move || accept_loop(&listener, &server, &stop, &stats))
                .expect("cannot spawn accept thread")
        };
        Ok(WireServer {
            server: Some(server),
            addr,
            stop,
            accept: Some(accept),
            stats,
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
        self.stats.fleet.store(n.max(1), Ordering::SeqCst);
        self
    }

    /// Connections that have completed a clean DRAIN handshake so far.
    pub fn drained_producers(&self) -> usize {
        *self.stats.drained.lock().expect("drain counter poisoned")
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
        self.stats.rejected.load(Ordering::SeqCst)
    }

    /// Reports ingested over the wire so far (counted at frame validation,
    /// i.e. possibly slightly ahead of shard absorption).
    pub fn ingested_reports(&self) -> u64 {
        self.stats.ingested.load(Ordering::SeqCst)
    }

    /// Sessions reaped for exceeding the resume grace period so far — the
    /// deficit a degraded fleet drain should report.
    pub fn reaped_sessions(&self) -> usize {
        self.stats.reaped.load(Ordering::SeqCst)
    }

    /// Blocks until at least `n` producer connections have drained cleanly
    /// — the server-side rendezvous for a fixed-size producer fleet.
    /// Condvar-parked (no polling): the waiter burns no CPU however long
    /// the fleet takes, and the guard loop re-checks the count on every
    /// wakeup, so spurious wakeups can never miscount a producer.
    pub fn wait_for_producers(&self, n: usize) {
        let mut drained = self.stats.drained.lock().expect("drain counter poisoned");
        while *drained < n {
            drained = self
                .stats
                .drained_cvar
                .wait(drained)
                .expect("drain counter poisoned");
        }
    }

    /// The degradation-aware twin of [`WireServer::wait_for_producers`]:
    /// blocks until drained **plus reaped** sessions reach `n`, so a
    /// producer that dies past its retry budget shrinks the rendezvous
    /// instead of wedging it. With a configured
    /// [`ServerConfig::read_timeout_ms`] the wait polls at that grace
    /// period and reaps suspect sessions itself (the drain path has no
    /// handler thread left to do it); with `0` it parks exactly like
    /// `wait_for_producers` — no timeout means no reaping.
    pub fn wait_for_fleet(&self, n: usize) {
        let grace_ms = self
            .server
            .as_ref()
            .expect("server not yet finished")
            .config()
            .read_timeout_ms;
        let stats = &self.stats;
        let mut drained = stats.drained.lock().expect("drain counter poisoned");
        while *drained + stats.reaped.load(Ordering::SeqCst) < n {
            if grace_ms == 0 {
                drained = stats
                    .drained_cvar
                    .wait(drained)
                    .expect("drain counter poisoned");
            } else {
                let poll = Duration::from_millis(grace_ms.clamp(10, 200));
                drained = stats
                    .drained_cvar
                    .wait_timeout(drained, poll)
                    .expect("drain counter poisoned")
                    .0;
                // Lock order drained → sessions, never reversed.
                stats.reap_suspects(Duration::from_millis(grace_ms));
            }
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
    stats: &Arc<NetStats>,
) -> Vec<JoinHandle<()>> {
    let fingerprint = solution_fingerprint(server.solution());
    let mut handlers = Vec::new();
    for (conn, stream) in listener.incoming().enumerate() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let server = Arc::clone(server);
        let stats = Arc::clone(stats);
        handlers.push(
            std::thread::Builder::new()
                .name(format!("ldp-conn-{conn}"))
                .spawn(move || {
                    match drive_connection(stream, &server, fingerprint, &stats, conn as u64 + 1) {
                        // Ok(true) is a *first* drain for the session — a
                        // re-drain after a missed DRAIN_ACK acks again but
                        // returns Ok(false), so the fleet rendezvous never
                        // double-counts a producer.
                        Ok(true) => {
                            stats.note_drained();
                        }
                        // A peer may disconnect without draining (e.g. a
                        // monitoring probe); that is not a violation.
                        Ok(false) => {}
                        Err(_) => {
                            stats.rejected.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
                .expect("cannot spawn connection handler"),
        );
    }
    handlers
}

/// The handler-local view of its session. While a connection owns a
/// session it is the sole writer of the session's state, so this mirror is
/// authoritative and the table only needs a lock for the write-back (which
/// keeps the table current for a resume after this connection dies).
struct ConnSession {
    /// The session token — auto-issued at HELLO, possibly replaced by a
    /// RESUME. Doubles as the connection's EPOCH-barrier identity.
    token: u64,
    /// Whether `token` lives in the session table (false for the
    /// capacity-overflow sentinel: unique identity, no resume support).
    resumable: bool,
    /// Highest contiguously ingested BATCH_SEQ number.
    acked: u64,
    /// Reports ingested for the session (across its past connections).
    ingested: u64,
    /// Whether any batch/epoch traffic happened — a RESUME is only legal
    /// as the very first frame after the handshake.
    started: bool,
}

/// Runs one producer session to completion. `Ok(true)` is a clean *first*
/// DRAIN for the session, `Ok(false)` a clean disconnect without one (or a
/// repeat drain after a resume); any `Err` already sent a best-effort ABORT
/// and stands for "this connection was cut, everyone else keeps going".
fn drive_connection(
    stream: TcpStream,
    server: &LdpServer,
    fingerprint: u64,
    stats: &NetStats,
    conn: u64,
) -> Result<bool, WireError> {
    // Frames are small relative to throughput; turn Nagle off so snapshot
    // and drain acks turn around immediately.
    let _ = stream.set_nodelay(true);
    let config = server.config();
    // The idle-connection guard: a producer that stays silent past the
    // configured timeout surfaces as a typed [`WireError::Timeout`] below,
    // which ABORTs the connection instead of pinning this handler thread
    // (and any quiesced snapshot barrier queued behind its shard traffic)
    // forever. `0` keeps the historical block-forever behavior.
    let read_timeout = match config.read_timeout_ms {
        0 => None,
        ms => Some(Duration::from_millis(ms)),
    };
    stream.set_read_timeout(read_timeout)?;
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
                        .to_string()
                } else {
                    "producer auth token digest does not match the server's".to_string()
                };
                abort(&mut writer, ABORT_AUTH, &reason);
                return Err(WireError::Handshake(reason));
            }
            if got != fingerprint {
                let reason = format!(
                    "producer solution fingerprint {got:#018x} does not match the server's \
                     {fingerprint:#018x} (different solution, domains or epsilon?)"
                );
                abort(&mut writer, ABORT_HANDSHAKE, &reason);
                return Err(WireError::Handshake(reason));
            }
        }
        Ok(_) => {
            let reason = "expected HELLO as the first frame".to_string();
            abort(&mut writer, ABORT_HANDSHAKE, &reason);
            return Err(WireError::Handshake(reason));
        }
        Err(WireError::Closed) => return Ok(false),
        Err(e) => {
            abort(&mut writer, abort_code(&e), &e.to_string());
            return Err(e);
        }
    }

    let ack_every = config.ack_every.max(1);
    let (token, resumable) = stats.issue_session(config.session_capacity.max(1), conn);
    let mut sess = ConnSession {
        token,
        resumable,
        acked: 0,
        ingested: 0,
        started: false,
    };
    let hello_ack = Frame::HelloAck {
        fingerprint,
        shards: config.shards as u32,
        session: if resumable { token } else { 0 },
        ack_every: ack_every.min(u64::from(u32::MAX)) as u32,
    };
    // From here every exit must release the session so a dead producer's
    // state becomes resumable (and, past the grace period, reapable).
    let result = (|| {
        write_frame(&mut writer, &hello_ack)?;
        writer.flush()?;
        run_session(
            &mut reader,
            &mut writer,
            server,
            stats,
            read_timeout,
            ack_every,
            conn,
            &mut sess,
        )
    })();
    stats.release_session(sess.token, conn);
    result
}

/// The post-handshake frame loop of one connection (see
/// [`drive_connection`] for the return contract).
#[allow(clippy::too_many_arguments)]
fn run_session(
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
    server: &LdpServer,
    stats: &NetStats,
    read_timeout: Option<Duration>,
    ack_every: u64,
    conn: u64,
    sess: &mut ConnSession,
) -> Result<bool, WireError> {
    let solution = server.solution().clone();
    let max_batch = server.config().batch;
    loop {
        match read_frame(reader) {
            Ok(Frame::BatchSeq { seq, batch }) => {
                // Validate the *whole* frame before ingesting any of it:
                // frames are atomic, so a malformed one is rejected without
                // a single envelope reaching a shard. A frame is queued
                // whole, so one of more than `batch` reports is rejected
                // too: it would break the `shards · queue_depth · batch`
                // memory bound. The solution-instance check additionally
                // bounds numeric fixed-point magnitudes for mixed batches (a
                // forged huge report would otherwise poison the exact sums).
                let checked = if batch.len() > max_batch {
                    Err(WireError::Payload(format!(
                        "BATCH_SEQ of {} reports exceeds the server's batch of {max_batch}",
                        batch.len()
                    )))
                } else {
                    batch
                        .validate_for_solution(&solution)
                        .map_err(WireError::Batch)
                };
                if let Err(e) = checked {
                    abort(writer, ABORT_PROTOCOL, &e.to_string());
                    return Err(e);
                }
                sess.started = true;
                if seq <= sess.acked {
                    // A replay the session already ingested (reconnect ring
                    // overlap, or a duplicated frame): dropped without a
                    // single envelope reaching a shard — exactly-once.
                    continue;
                }
                if seq != sess.acked + 1 {
                    let e = WireError::Payload(format!(
                        "BATCH_SEQ {seq} leaves a gap after acked {}",
                        sess.acked
                    ));
                    abort(writer, ABORT_PROTOCOL, &e.to_string());
                    return Err(e);
                }
                let len = batch.len() as u64;
                // Hands the validated frame to one shard whole, copying no
                // report. May block on a full shard queue — that block is
                // the backpressure path in the module docs.
                server.ingest_compact(batch);
                sess.acked = seq;
                sess.ingested += len;
                stats.ingested.fetch_add(len, Ordering::SeqCst);
                if sess.resumable {
                    stats.record_batch(sess.token, seq, len);
                }
                if seq % ack_every == 0 {
                    write_frame(
                        writer,
                        &Frame::BatchAck {
                            seq,
                            n: sess.ingested,
                        },
                    )?;
                    writer.flush()?;
                }
            }
            Ok(Frame::Resume {
                session,
                last_acked,
            }) => {
                if sess.started {
                    let e = WireError::Payload(
                        "RESUME is only legal as the first frame after the handshake".into(),
                    );
                    abort(writer, ABORT_PROTOCOL, &e.to_string());
                    return Err(e);
                }
                match stats.try_resume(session, last_acked, conn) {
                    Ok((acked, ingested)) => {
                        if sess.token != session {
                            stats.forget_session(sess.token);
                        }
                        sess.token = session;
                        sess.resumable = true;
                        sess.acked = acked;
                        sess.ingested = ingested;
                        write_frame(writer, &Frame::ResumeAck { acked_seq: acked })?;
                        writer.flush()?;
                    }
                    Err(e) => {
                        abort(writer, ABORT_HANDSHAKE, &e.to_string());
                        return Err(e);
                    }
                }
            }
            Ok(Frame::SnapshotRequest { quiesce }) => {
                if quiesce {
                    server.quiesce();
                }
                let snapshot = server.snapshot();
                write_frame(writer, &Frame::Snapshot(WireSnapshot::from(&snapshot)))?;
                writer.flush()?;
            }
            Ok(Frame::Epoch { round }) => {
                sess.started = true;
                // Fleet lockstep: held here until every declared producer
                // announces the end of `round`; the last arrival rotates
                // the server's epoch. The wait is bounded by the same read
                // timeout as the socket, and a timed-out wait reaps dead
                // fleet members before giving up, so one crashed producer
                // degrades the fleet instead of wedging it.
                match stats.epoch_barrier(server, round, read_timeout, sess.token) {
                    Ok(current) => {
                        write_frame(writer, &Frame::Epoch { round: current })?;
                        writer.flush()?;
                    }
                    Err((code, e)) => {
                        abort(writer, code, &e.to_string());
                        return Err(e);
                    }
                }
            }
            Ok(Frame::Drain) => {
                write_frame(writer, &Frame::DrainAck { n: sess.ingested })?;
                writer.flush()?;
                let first = if sess.resumable {
                    stats.mark_drained(sess.token)
                } else {
                    true
                };
                return Ok(first);
            }
            Ok(Frame::Abort { .. }) => return Ok(false),
            Ok(other) => {
                let e = WireError::Payload(format!(
                    "unexpected {} frame in an open session",
                    frame_name(&other)
                ));
                abort(writer, ABORT_PROTOCOL, &e.to_string());
                return Err(e);
            }
            Err(WireError::Closed) => return Ok(false),
            Err(e) => {
                abort(writer, abort_code(&e), &e.to_string());
                return Err(e);
            }
        }
    }
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

/// Best-effort ABORT notification; the connection is going away either way.
fn abort(writer: &mut impl Write, code: u16, message: &str) {
    let _ = write_frame(
        writer,
        &Frame::Abort {
            code,
            message: message.to_string(),
        },
    );
    let _ = writer.flush();
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
    use ldp_core::solutions::{CompactBatch, RsFdProtocol, SolutionKind};
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
                fingerprint: solution_fingerprint(solution),
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
        server.wait_for_producers(1);
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
        server.wait_for_producers(1);
        assert_eq!(server.rejected_connections(), 1);
        let snapshot = server.finish();
        assert_eq!(snapshot.n, 100, "corrupt frame must not poison a shard");
    }

    #[test]
    fn wait_for_producers_parks_on_the_condvar_until_the_fleet_drains() {
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
            std::thread::spawn(move || server.wait_for_producers(2))
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
                                fingerprint: solution_fingerprint(&solution),
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
        server.wait_for_producers(2);
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

    #[test]
    fn foreign_solution_batch_is_rejected_atomically() {
        let (server, solution) = spawn_server();
        let (mut reader, stream) = handshake(server.local_addr(), &solution);
        let mut writer = stream.try_clone().unwrap();
        // Structurally valid words, wrong shape: an SMP batch for a fake-
        // data server. The whole frame must be rejected pre-ingest.
        let smp = SolutionKind::Smp(ldp_protocols::ProtocolKind::Grr)
            .build(&[4, 3], 1.0)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut batch = CompactBatch::new();
        for uid in 0..50u64 {
            batch.push(uid, &smp.report(&[1, 1], &mut rng));
        }
        write_frame(&mut writer, &Frame::BatchSeq { seq: 1, batch }).unwrap();
        writer.flush().unwrap();
        match read_frame(&mut reader).unwrap() {
            Frame::Abort { code, .. } => assert_eq!(code, ABORT_PROTOCOL),
            other => panic!("expected ABORT, got {other:?}"),
        }
        let snapshot = server.finish();
        assert_eq!(snapshot.n, 0, "no envelope of a rejected frame may land");
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
            Frame::Abort { code, .. } => assert_eq!(code, ABORT_PROTOCOL),
            other => panic!("expected ABORT, got {other:?}"),
        }
        assert!(matches!(read_frame(&mut reader), Err(WireError::Closed)));

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
        server.wait_for_producers(1);
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
        let fingerprint = solution_fingerprint(&solution);

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
        server.wait_for_producers(1);
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
                    fingerprint: solution_fingerprint(&solution),
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
                fingerprint: solution_fingerprint(&solution),
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
                            fingerprint: solution_fingerprint(&solution),
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
        server.wait_for_producers(1);
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
