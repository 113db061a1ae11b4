//! The wire protocol's two ends as pure state machines with no socket,
//! clock or sleep: a `ServerSession` per producer connection and a
//! [`ClientSession`] per producer, each one `step` from what arrived to what
//! to do next. [`crate::net`] and `ldp_sim::NetClient` are thin adapters
//! that read, step and act. Time comes in as an argument (`now`) and leaves
//! as a delay, so this module's tests run both ends, the fleet and an
//! aggregator on one thread: a seeded simulator whose in-memory link drops,
//! truncates, delays, duplicates and resets frames under a virtual clock.

use std::collections::VecDeque;
use std::time::Duration;

use ldp_core::solutions::{CompactBatch, SolutionReport};
use ldp_protocols::hash::mix3;

use crate::config::ServerConfig;
use crate::fleet::{Batch, Epoch, Fleet, Refused};
use crate::wire::{auth_fingerprint, encode_batch_seq_frame, encode_frame, Frame, WireError};

/// Abort code sent to peers that fail the handshake.
pub const ABORT_HANDSHAKE: u16 = 1;
/// Abort code sent to peers whose frame stream is malformed.
pub const ABORT_PROTOCOL: u16 = 2;
/// Abort code sent to peers that stayed silent past the configured read
/// timeout (see [`ServerConfig::read_timeout_ms`]).
pub const ABORT_TIMEOUT: u16 = 3;
/// Abort code sent to peers whose HELLO auth digest does not match the
/// server's configured [`ServerConfig::auth_token`].
pub const ABORT_AUTH: u16 = 4;

/// Reconnect backoff in milliseconds: the first, doubled up to the ceiling.
/// The fleet reaps no session sooner than the ceiling: one step's wait,
/// not the whole schedule's.
const BACKOFF_BASE_MS: u64 = 10;
pub(crate) const BACKOFF_MAX_MS: u64 = 1000;

/// What reached a connection handler.
#[derive(Debug)]
pub(crate) enum Input {
    /// A frame, or the error its read ended in.
    Read(Result<Frame, WireError>),
    /// A connection parked after [`Step::Wait`] woke (signaled, or a deadline).
    Woken,
}

/// What a connection handler does after one [`ServerSession::step`].
#[derive(Debug)]
pub(crate) enum Step {
    /// Read the next frame (a replay was dropped unread).
    Read,
    /// Write the frame, then read on.
    Reply(Frame),
    /// Hand the checked batch to a shard whole, then write the ack, if due.
    Ingest(CompactBatch, Option<Frame>),
    /// Reply with a SNAPSHOT of the server's merged estimates.
    Snapshot,
    /// The barrier is complete: rotate the epoch under the lock, wake the
    /// waiters and reply `EPOCH {round}`.
    Release(u64),
    /// Park (at the EPOCH barrier, or a RESUME behind the old connection's
    /// batch), then step [`Input::Woken`].
    Wait,
    /// Write the frame, if any, and close the connection cleanly.
    Close(Option<Frame>),
    /// Write a best-effort ABORT with this code and close with the error.
    Refuse(u16, WireError),
}

/// One producer connection's protocol state: the handshake, then the frames.
#[derive(Debug)]
pub(crate) struct ServerSession {
    fingerprint: u64,
    /// The HELLO auth digest expected (0: the server has no token).
    auth: u64,
    shards: u32,
    ack_every: u64,
    /// The fleet session driven, once HELLO is accepted (RESUME swaps it).
    token: Option<u64>,
    /// The HELLO token, which names this connection to the fleet.
    conn: u64,
    /// The frame whose step said [`Step::Wait`], stepped again on waking.
    parked: Option<Frame>,
}

impl ServerSession {
    /// A connection to a server whose solution has `fingerprint`.
    pub(crate) fn new(fingerprint: u64, config: &ServerConfig) -> ServerSession {
        ServerSession {
            fingerprint,
            auth: config.auth_token.as_deref().map_or(0, auth_fingerprint),
            shards: config.shards as u32,
            ack_every: config.ack_every.max(1),
            token: None,
            conn: 0,
            parked: None,
        }
    }

    /// Whether HELLO was accepted; until then no batch is read checked.
    pub(crate) fn open(&self) -> bool {
        self.token.is_some()
    }

    /// Decides what the connection does with `input`.
    pub(crate) fn step(&mut self, input: Input, fleet: &mut Fleet) -> Step {
        let frame = match input {
            Input::Read(Ok(frame)) if self.token.is_none() => return self.hello(frame, fleet),
            Input::Read(Ok(frame)) => frame,
            Input::Read(Err(WireError::Closed)) => return Step::Close(None),
            // An expired read deadline is an idle peer, not a bad stream.
            Input::Read(Err(e @ WireError::Timeout)) => return Step::Refuse(ABORT_TIMEOUT, e),
            Input::Read(Err(e)) => return Step::Refuse(ABORT_PROTOCOL, e),
            Input::Woken => self.parked.take().expect("only a parked connection wakes"),
        };
        // A RESUME elsewhere took the session over: close, touching nothing.
        let Some(token) = self.token.filter(|&t| fleet.holds(t, self.conn)) else {
            return Step::Close(None);
        };
        match frame {
            Frame::BatchSeq { seq, batch } => match fleet.batch(token, seq, batch.len() as u64) {
                // A replay the session already ingested (a resumed ring, or
                // a duplicated frame): dropped unread — exactly-once.
                Batch::Dedup => Step::Read,
                Batch::Gap { acked } => protocol(format!(
                    "BATCH_SEQ {seq} does not follow acked {acked} (sequence numbers run \
                     gapless from 1)"
                )),
                Batch::Ingest { ingested } => {
                    let ack = seq.is_multiple_of(self.ack_every);
                    Step::Ingest(batch, ack.then_some(Frame::BatchAck { seq, n: ingested }))
                }
            },
            Frame::Resume {
                session,
                last_acked,
            } => match fleet.resume(self.conn, session, last_acked) {
                Ok(Some(acked_seq)) => {
                    self.token = Some(session);
                    Step::Reply(Frame::ResumeAck { acked_seq })
                }
                Ok(None) => self.wait(frame),
                Err(why) => refusal(why, session, last_acked),
            },
            // Every batch this connection ingested was absorbed before this
            // frame was read, so the snapshot covers them without a barrier
            // of its own.
            Frame::SnapshotRequest { .. } => Step::Snapshot,
            Frame::Epoch { round } => match fleet.epoch(token, round) {
                Epoch::Ack(round) => Step::Reply(Frame::Epoch { round }),
                Epoch::Release(round) => Step::Release(round),
                Epoch::Wait => self.wait(frame),
                Epoch::Mismatch(current) => protocol(format!(
                    "EPOCH announces the end of round {round}, but the fleet is on round {current}"
                )),
            },
            Frame::Drain => Step::Close(Some(Frame::DrainAck {
                n: fleet.drain(token),
            })),
            Frame::Abort { .. } => Step::Close(None),
            other => protocol(format!(
                "unexpected {} frame in an open session",
                other.name()
            )),
        }
    }

    /// The session opener: one HELLO with a matching auth digest and a
    /// matching fingerprint. Auth is checked first, so an unauthorized
    /// producer learns nothing about whether its solution would match.
    fn hello(&mut self, frame: Frame, fleet: &mut Fleet) -> Step {
        let refuse = |code, reason: String| Step::Refuse(code, WireError::Handshake(reason));
        let Frame::Hello { fingerprint, auth } = frame else {
            return refuse(ABORT_HANDSHAKE, "expected HELLO as the first frame".into());
        };
        if auth != self.auth {
            let reason = if self.auth == 0 {
                "producer presented an auth token but the server is not configured with one"
            } else {
                "producer auth token digest does not match the server's"
            };
            return refuse(ABORT_AUTH, reason.into());
        }
        if fingerprint != self.fingerprint {
            let reason = format!(
                "producer solution fingerprint {fingerprint:#018x} does not match the server's \
                 {:#018x} (different solution, domains or epsilon?)",
                self.fingerprint
            );
            return refuse(ABORT_HANDSHAKE, reason);
        }
        let (token, listed) = fleet.hello();
        (self.token, self.conn) = (Some(token), token);
        Step::Reply(Frame::HelloAck {
            fingerprint,
            shards: self.shards,
            session: if listed { token } else { 0 },
            ack_every: self.ack_every.min(u64::from(u32::MAX)) as u32,
        })
    }

    /// Parks the connection, to step `frame` again once it wakes.
    fn wait(&mut self, frame: Frame) -> Step {
        self.parked = Some(frame);
        Step::Wait
    }

    /// The connection handed the batch of its last [`Step::Ingest`] to a
    /// shard.
    pub(crate) fn handed(&self, fleet: &mut Fleet) {
        if let Some(token) = self.token {
            fleet.handed(token);
        }
    }

    /// The connection is gone at `now`: its session turns resumable.
    pub(crate) fn end(&self, fleet: &mut Fleet, now: Duration) {
        if let Some(token) = self.token {
            fleet.disconnect(token, self.conn, now);
        }
    }
}

fn protocol(reason: String) -> Step {
    Step::Refuse(ABORT_PROTOCOL, WireError::Payload(reason))
}

/// The refusal a RESUME of `session` earns.
fn refusal(why: Refused, session: u64, last_acked: u64) -> Step {
    let reason = match why {
        Refused::Late => return protocol("late RESUME, or a RESUME of its own session".into()),
        Refused::Unknown => {
            format!("RESUME of an unknown (expired or reaped) session {session:#018x}")
        }
        Refused::Ahead(acked) => {
            format!("RESUME claims acked seq {last_acked}, the server acked {acked}")
        }
    };
    Step::Refuse(ABORT_HANDSHAKE, WireError::Handshake(reason))
}

/// How an [`Action::Send`] goes out, for a transport that faults only
/// first transmissions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sending {
    /// A BATCH_SEQ, first time out (the server drops replays by seq).
    Batch,
    /// A control request, first time out (it must not arrive twice).
    Request,
    /// A handshake frame, a ring replay or a re-sent request.
    Again,
}

/// An operation to start, or how the last [`Action`] went.
#[derive(Debug)]
pub enum Event {
    /// Run the HELLO handshake on a fresh connection.
    Open,
    /// Seal and send the buffered reports; read acks while the ring is full.
    Flush,
    /// Flush, then send this SNAPSHOT_REQUEST, EPOCH or DRAIN; read its reply.
    Request(Frame),
    /// How the redial went.
    Dialed(Result<(), WireError>),
    /// How the send went.
    Sent(Result<(), WireError>),
    /// The frame read, or the error the read ended in.
    Reply(Result<Frame, WireError>),
}

/// What the producer's transport does after one [`ClientSession::step`].
#[derive(Debug)]
pub enum Action<'a> {
    /// Write these bytes, then report [`Event::Sent`].
    Send(&'a [u8], Sending),
    /// Read one frame, then report [`Event::Reply`].
    Await,
    /// Drop the connection, wait, dial again, then report [`Event::Dialed`].
    Reconnect(Duration),
    /// The operation is done; a request's reply is carried.
    Done(Option<Frame>),
    /// The operation failed for good.
    Fail(WireError),
}

/// The operation under way.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Goal {
    #[default]
    Open,
    Flush,
    /// A request to send.
    Request,
    /// A request sent, its reply awaited.
    Reply,
}

/// Where the connection is.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Phase {
    /// HELLO is out on a new connection.
    #[default]
    Hello,
    /// RESUME is out.
    Resume,
    /// Replaying the ring, from this entry on.
    Replay(usize),
    /// The goal's frames flow.
    Open,
    /// Waiting to redial.
    Dial,
}

/// One producer session: sequence numbers, the replay ring and its ack
/// window, the resume token and the retry budget. After a transport fault
/// it redials with exponential backoff, jittered by the resume token, RESUMEs,
/// prunes the ring by the RESUME_ACK, replays the rest and finishes what it
/// was doing. An ABORT or an unexpected reply is fatal in an open session;
/// while resuming, any failure spends one attempt of the budget.
#[derive(Debug, Default)]
pub struct ClientSession {
    fingerprint: u64,
    auth: u64,
    batch: CompactBatch,
    batch_size: usize,
    sealed: u64,
    next_seq: u64,
    acked: u64,
    ring: VecDeque<(u64, Vec<u8>)>,
    /// Frame buffers that acks freed.
    spare: Vec<Vec<u8>>,
    /// Ring length at which a flush reads acks.
    window: usize,
    /// Server-issued resume token (0: the session table was full).
    token: u64,
    shards: u32,
    retries: u32,
    /// Redials on the current fault, and re-sends of the current request.
    attempts: u32,
    resends: u32,
    /// The encoded HELLO or RESUME.
    control: Vec<u8>,
    /// The encoded request, and the name of the reply it waits for.
    request: Vec<u8>,
    expect: &'static str,
    goal: Goal,
    phase: Phase,
}

impl ClientSession {
    /// A session presenting `fingerprint` and `auth` (an [`auth_fingerprint`]
    /// or 0), sealing `batch` reports per frame, keeping `window` unacked
    /// frames (at least the server's ack interval), and redialing `retries`
    /// times per fault.
    pub fn new(
        fingerprint: u64,
        auth: u64,
        batch: usize,
        window: usize,
        retries: u32,
    ) -> ClientSession {
        ClientSession {
            fingerprint,
            auth,
            batch_size: batch.max(1),
            next_seq: 1,
            window: window.max(1),
            retries,
            ..ClientSession::default()
        }
    }

    /// Buffers a report ([`CompactBatch::push_wire`]: no sampled attribute
    /// leaves). True when the batch is full and an [`Event::Flush`] is due.
    pub fn push(&mut self, uid: u64, report: &SolutionReport) -> bool {
        self.batch.push_wire(uid, report);
        self.batch.len() >= self.batch_size
    }

    /// Reports pushed so far, buffered or sealed.
    pub fn pushed(&self) -> u64 {
        self.sealed + self.batch.len() as u64
    }

    /// The server-issued resume token (0: the session cannot resume).
    pub fn session(&self) -> u64 {
        self.token
    }

    /// The server's shard count, as announced in HELLO_ACK.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Steps the session on `event` and says what to do next.
    pub fn step(&mut self, event: Event) -> Action<'_> {
        match event {
            Event::Open => {
                self.goal = Goal::Open;
                return self.hello();
            }
            Event::Dialed(Ok(())) => return self.hello(),
            Event::Sent(Ok(())) => {
                if let Phase::Replay(i) = self.phase {
                    self.phase = Phase::Replay(i + 1);
                }
                return self.next();
            }
            Event::Reply(Ok(frame)) => return self.reply(frame),
            Event::Dialed(Err(e)) | Event::Sent(Err(e)) | Event::Reply(Err(e)) => {
                return self.fault(e)
            }
            Event::Flush => self.goal = Goal::Flush,
            Event::Request(frame) => {
                self.expect = match frame {
                    Frame::SnapshotRequest { .. } => "SNAPSHOT",
                    Frame::Epoch { .. } => "EPOCH",
                    _ => "DRAIN_ACK",
                };
                encode_frame(&frame, &mut self.request);
                (self.goal, self.resends) = (Goal::Request, 0);
            }
        }
        if self.batch.is_empty() {
            return self.next();
        }
        let mut frame = self.spare.pop().unwrap_or_default();
        encode_batch_seq_frame(self.next_seq, &self.batch, &mut frame);
        // Ringed before it is sent: a fault mid-write leaves it replayable.
        self.ring.push_back((self.next_seq, frame));
        self.next_seq += 1;
        self.sealed += self.batch.len() as u64;
        self.batch.clear();
        let frame = &self.ring.back().expect("a frame was just ringed").1;
        Action::Send(frame, Sending::Batch)
    }

    fn hello(&mut self) -> Action<'_> {
        self.phase = Phase::Hello;
        let (fingerprint, auth) = (self.fingerprint, self.auth);
        encode_frame(&Frame::Hello { fingerprint, auth }, &mut self.control);
        Action::Send(&self.control, Sending::Again)
    }

    /// The one reply reader: folds BATCH_ACKs into the ring wherever they
    /// arrive, and names any frame it did not expect.
    fn reply(&mut self, frame: Frame) -> Action<'_> {
        let expected = match self.phase {
            Phase::Hello => "HELLO_ACK",
            Phase::Resume => "RESUME_ACK",
            _ if self.goal == Goal::Reply => self.expect,
            _ => "BATCH_ACK",
        };
        match frame {
            Frame::Abort { code, message } => self.fault(WireError::Remote { code, message }),
            Frame::BatchAck { seq, .. } if self.phase == Phase::Open => {
                self.ack(seq);
                self.next()
            }
            other if other.name() != expected => {
                let e = format!("expected {expected}, got {}", other.name());
                self.fault(match self.phase {
                    Phase::Hello => WireError::Handshake(e),
                    _ => WireError::Payload(e),
                })
            }
            Frame::HelloAck { fingerprint, .. } if fingerprint != self.fingerprint => {
                let e = format!(
                    "server echoed fingerprint {fingerprint:#018x}, expected {:#018x}",
                    self.fingerprint
                );
                self.fault(WireError::Handshake(e))
            }
            Frame::HelloAck {
                shards,
                session,
                ack_every,
                ..
            } if self.goal == Goal::Open => {
                (self.shards, self.token, self.phase) = (shards, session, Phase::Open);
                self.window = self.window.max(ack_every as usize);
                Action::Done(None)
            }
            // A redial's own token is a throwaway: RESUME trades it for the
            // real session.
            Frame::HelloAck { .. } => {
                self.phase = Phase::Resume;
                let (session, last_acked) = (self.token, self.acked);
                encode_frame(
                    &Frame::Resume {
                        session,
                        last_acked,
                    },
                    &mut self.control,
                );
                Action::Send(&self.control, Sending::Again)
            }
            Frame::ResumeAck { acked_seq } => {
                self.ack(acked_seq);
                self.phase = Phase::Replay(0);
                self.next()
            }
            reply => {
                self.goal = Goal::Flush;
                Action::Done(Some(reply))
            }
        }
    }

    /// The next action once the last one went through.
    fn next(&mut self) -> Action<'_> {
        match self.phase {
            Phase::Replay(i) if i < self.ring.len() => {
                return Action::Send(&self.ring[i].1, Sending::Again)
            }
            Phase::Replay(_) => (self.phase, self.attempts) = (Phase::Open, 0),
            Phase::Open => {}
            Phase::Hello | Phase::Resume | Phase::Dial => return Action::Await,
        }
        match self.goal {
            Goal::Flush | Goal::Request if self.ring.len() >= self.window => Action::Await,
            Goal::Request if self.resends == 0 => {
                self.goal = Goal::Reply;
                Action::Send(&self.request, Sending::Request)
            }
            Goal::Request => {
                self.goal = Goal::Reply;
                Action::Send(&self.request, Sending::Again)
            }
            Goal::Reply => Action::Await,
            Goal::Flush | Goal::Open => Action::Done(None),
        }
    }

    /// Drops every ringed frame up to `seq`, which the server has ingested.
    fn ack(&mut self, seq: u64) {
        self.acked = self.acked.max(seq);
        while self.ring.front().is_some_and(|(s, _)| *s <= self.acked) {
            let (_, frame) = self.ring.pop_front().expect("the front exists");
            self.spare.push(frame);
        }
    }

    /// The fault boundary: a transport fault is redialed with backoff while
    /// the budget lasts; anything else in an open session is fatal.
    fn fault(&mut self, e: WireError) -> Action<'_> {
        if self.goal == Goal::Open {
            return Action::Fail(e);
        }
        if self.phase == Phase::Open {
            if !e.is_transport() || self.retries == 0 {
                return Action::Fail(e);
            }
            if self.token == 0 {
                let e = "connection faulted, and a full session table issued no resume token";
                return Action::Fail(WireError::Handshake(e.into()));
            }
            if self.goal == Goal::Reply {
                if self.resends == self.retries {
                    return Action::Fail(e);
                }
                (self.goal, self.resends) = (Goal::Request, self.resends + 1);
            }
        }
        if self.attempts == self.retries {
            return Action::Fail(e);
        }
        // Attempt `a` waits in `[cap/2, cap]`, `cap = min(base · 2^a, max)`,
        // jittered by the (non-zero) resume token: no lockstep redials.
        let cap = BACKOFF_BASE_MS
            .saturating_mul(1 << self.attempts.min(20))
            .min(BACKOFF_MAX_MS);
        let jitter = mix3(self.token, self.next_seq, self.attempts.into());
        (self.attempts, self.phase) = (self.attempts + 1, Phase::Dial);
        Action::Reconnect(Duration::from_millis(cap - jitter % (cap / 2 + 1)))
    }
}

#[cfg(test)]
mod tests {
    //! The fleet simulator: 1–3 [`ClientSession`]s against
    //! [`ServerSession`]s, one [`Fleet`] and one aggregator, on one thread.
    //! A seeded scheduler picks which ready actor moves next (a producer,
    //! a connection handler, or the rendezvous `wait_for_fleet` parks in,
    //! which reaps what falls due, as every park does). The
    //! in-memory link reads every frame back through the real
    //! `read_checked_frame`; it drops, truncates, delays, duplicates and
    //! resets first transmissions as `ldp_sim::NetClient`'s fault plans do,
    //! resets connections under the server's replies, stalls handlers on a
    //! busy shard lock, and time is virtual, so backoff sleeps, read
    //! timeouts, stalls and reaping cost nothing. Some producers hang or
    //! crash, skip a sequence number, or claim more than was acked when they
    //! resume.

    use std::collections::{HashMap, VecDeque};

    use ldp_core::solutions::{DynSolution, MultidimAggregator, RsFdProtocol, SolutionKind};
    use ldp_protocols::hash::mix2;
    use ldp_protocols::ProtocolKind;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::snapshot::ServerSnapshot;
    use crate::wire::{read_checked_frame, WireSnapshot};

    const MS: Duration = Duration::from_millis(1);
    /// Actor steps after which a schedule counts as wedged.
    const STEP_BOUND: usize = 100_000;
    /// Flip to print each schedule's events while debugging a seed.
    const TRACE: bool = false;

    /// Re-encodes the frame in `bytes` as `edit` rewrites it.
    fn rewrite(bytes: &mut Vec<u8>, edit: impl FnOnce(Frame) -> Frame) {
        let frame = edit(crate::wire::read_frame(&mut &bytes[..]).unwrap());
        encode_frame(&frame, bytes);
    }

    /// One direction of an in-memory connection.
    #[derive(Default)]
    struct Pipe {
        bytes: Vec<u8>,
        /// Either end closed the connection: a reader gets what is
        /// buffered, then the end of the stream; writes are lost.
        closed: bool,
    }

    impl Pipe {
        /// Whether a read would not block.
        fn ready(&self) -> bool {
            let b = &self.bytes;
            self.closed
                || b.len() >= 16
                    && b.len() >= 16 + u32::from_le_bytes(b[8..12].try_into().unwrap()) as usize
        }

        fn read(
            &mut self,
            payload: &mut Vec<u8>,
            check: Option<(&DynSolution, usize)>,
        ) -> Result<Frame, WireError> {
            let mut rest = &self.bytes[..];
            let read = read_checked_frame(&mut rest, payload, check);
            let used = self.bytes.len() - rest.len();
            self.bytes.drain(..used);
            read
        }

        fn write(&mut self, bytes: &[u8]) {
            if !self.closed {
                self.bytes.extend_from_slice(bytes);
            }
        }
    }

    enum Handler {
        /// Reading since then; the read deadline counts from it.
        Reading(Duration),
        /// Absorbing an ingested batch, behind a busy shard lock, until
        /// then; the ack, if due, goes out after.
        Handing(Duration, CompactBatch, Option<Frame>),
        /// Parked at the EPOCH barrier, or a RESUME behind a handoff.
        Waiting(Park),
        Ended,
    }

    /// A thread in `net`'s park loop: asleep until signaled or the fleet
    /// deadline it parked with.
    #[derive(Clone, Copy)]
    struct Park {
        until: Option<Duration>,
        woken: bool,
    }

    impl Park {
        fn ready(&self, now: Duration) -> bool {
            self.woken || self.until.is_some_and(|t| t <= now)
        }
    }

    struct Conn {
        owner: usize,
        up: Pipe,
        down: Pipe,
        session: ServerSession,
        handler: Handler,
        payload: Vec<u8>,
    }

    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// Push the report of this uid in this round.
        Report(u64, usize),
        Snapshot,
        Epoch(u64),
        Drain,
        /// Go silent with the connection open.
        Hang,
        /// Close the connection and never come back.
        Crash,
    }

    #[derive(Debug)]
    enum State {
        Idle,
        Ready(Event),
        Awaiting,
        /// Asleep until then; on waking, deliver the delayed bytes or (with
        /// none) redial.
        Asleep(Duration, Option<Vec<u8>>),
        Drained,
        /// Failed for good, with this error.
        Failed(String),
        Gone,
    }

    struct Producer {
        session: ClientSession,
        conn: usize,
        state: State,
        ops: VecDeque<Op>,
        /// The request under way.
        pending: Option<Op>,
        /// Every report pushed, in order.
        reports: Vec<(u64, SolutionReport, usize)>,
        /// The fleet token, once HELLO_ACK came back.
        token: Option<u64>,
        /// `(pushed, n)` of the last SNAPSHOT.
        snapshot: (u64, u64),
        /// Sends the next BATCH_SEQ past seq 1 one number too high.
        skip: bool,
        /// Claims more than was acked in its next RESUME.
        forge: bool,
        /// Never hangs, crashes or skips: it must drain.
        healthy: bool,
    }

    #[derive(Clone, Copy, PartialEq)]
    enum Actor {
        Producer(usize),
        Handler(usize),
        Rendezvous,
    }

    struct Sim {
        seed: u64,
        rng: StdRng,
        now: Duration,
        solution: DynSolution,
        config: ServerConfig,
        grace: Option<Duration>,
        fleet: Fleet,
        aggregator: MultidimAggregator,
        /// The server's epoch, and the reports ingested in each.
        epoch: usize,
        per_epoch: Vec<u64>,
        conns: Vec<Conn>,
        producers: Vec<Producer>,
        /// `(seq, reports)` of every frame ingested, per session token.
        ingested: HashMap<u64, Vec<(u64, u64)>>,
        /// Percent of first transmissions the link faults.
        fault_rate: u32,
        /// Percent of server replies whose connection resets under them.
        reset_rate: u32,
        /// Percent of ingests that stall on a busy shard lock.
        stall_rate: u32,
        /// The park of the thread in `wait_for_fleet`.
        rendezvous: Park,
        /// Whether every producer must drain everything, round by round:
        /// nobody hangs, crashes or skips.
        clean: bool,
        rounds: usize,
        steps: usize,
        trace: Vec<String>,
    }

    impl Sim {
        fn new(seed: u64) -> Sim {
            let mut rng = StdRng::seed_from_u64(seed);
            let kinds = [
                SolutionKind::RsFd(RsFdProtocol::Grr),
                SolutionKind::Spl(ProtocolKind::Oue),
                SolutionKind::Smp(ProtocolKind::Olh),
            ];
            let solution = kinds[rng.random_range(0..kinds.len())]
                .build(&[4, 3, 2], 1.0)
                .unwrap();
            let grace = match rng.random_range(0..4) {
                0 => None,
                1 => Some(5000 * MS),
                _ => Some(rng.random_range(20..400u32) * MS),
            };
            let short = grace.is_some_and(|g| g < 5000 * MS);
            let n = rng.random_range(1..4usize);
            let rounds = rng.random_range(1..3usize);
            let config = ServerConfig::default()
                .shards(1)
                .ack_every(rng.random_range(1..5))
                .read_timeout_ms(grace.map_or(0, |g| g.as_millis() as u64));
            let mut fleet = Fleet::new(1024, grace, seed);
            fleet.declare(n);
            let hazard = short.then(|| rng.random_range(0..2 * n)).filter(|&p| p < n);
            let skipper = grace.is_some() && rng.random_range(0..5) == 0;
            let mut sim = Sim {
                seed,
                now: Duration::ZERO,
                aggregator: solution.aggregator(),
                fleet,
                epoch: 0,
                per_epoch: vec![0; rounds],
                conns: Vec::new(),
                producers: Vec::new(),
                ingested: HashMap::new(),
                fault_rate: [0, 10, 25][rng.random_range(0..3usize)],
                reset_rate: [0, 5][rng.random_range(0..2usize)],
                stall_rate: [0, 25][rng.random_range(0..2usize)],
                rendezvous: Park {
                    until: None,
                    woken: false,
                },
                clean: hazard.is_none() && !skipper,
                rounds,
                steps: 0,
                trace: Vec::new(),
                grace,
                config,
                solution,
                rng,
            };
            for p in 0..n {
                let mut ops = VecDeque::new();
                for round in 0..rounds {
                    for i in 0..sim.rng.random_range(1..12u64) {
                        ops.push_back(Op::Report(
                            (p as u64) << 32 | (round as u64) << 16 | i,
                            round,
                        ));
                        if sim.rng.random_range(0..6) == 0 {
                            ops.push_back(Op::Snapshot);
                        }
                    }
                    if round + 1 < rounds {
                        ops.push_back(Op::Epoch(round as u64));
                    }
                }
                ops.push_back(Op::Drain);
                if hazard == Some(p) {
                    // After its first report, so the session has work the
                    // fleet must reap; the SNAPSHOT makes sure it landed.
                    let at = sim.rng.random_range(1..ops.len());
                    let end = [Op::Hang, Op::Crash][sim.rng.random_range(0..2usize)];
                    ops.insert(at, end);
                    ops.insert(at, Op::Snapshot);
                }
                let session = ClientSession::new(
                    sim.solution.fingerprint(),
                    0,
                    sim.rng.random_range(1..7),
                    sim.rng.random_range(1..5),
                    8,
                );
                sim.producers.push(Producer {
                    session,
                    conn: 0,
                    state: State::Ready(Event::Open),
                    ops,
                    pending: None,
                    reports: Vec::new(),
                    token: None,
                    snapshot: (0, 0),
                    skip: skipper && p == 0,
                    forge: sim.rng.random_range(0..4) == 0,
                    healthy: hazard != Some(p) && !(skipper && p == 0),
                });
                sim.dial(p);
            }
            sim
        }

        fn fail(&self, what: &str) -> ! {
            panic!(
                "schedule {:#x} (clean: {}): {what}\n{}",
                self.seed,
                self.clean,
                self.trace.join("\n")
            )
        }

        fn log(&mut self, event: impl FnOnce() -> String) {
            if TRACE {
                let line = format!("{:>8.3?} {}", self.now, event());
                self.trace.push(line);
            }
        }

        fn run(mut self) {
            while !self.finished() {
                self.steps += 1;
                if self.steps > STEP_BOUND || self.now > Duration::from_secs(3600) {
                    self.fail("the schedule exceeded its step bound");
                }
                let ready = self.ready();
                if ready.is_empty() {
                    match self.next_timer() {
                        Some(at) => self.now = at,
                        None => self.fail("wedged: nothing can move and no timer is set"),
                    }
                    continue;
                }
                match ready[self.rng.random_range(0..ready.len())] {
                    Actor::Producer(p) => self.run_producer(p),
                    Actor::Handler(c) => self.run_handler(c),
                    Actor::Rendezvous => {
                        self.reap();
                        self.rendezvous = self.park();
                    }
                }
            }
            self.check();
        }

        /// Whether `wait_for_fleet` returned.
        fn met(&self) -> bool {
            self.fleet.drained() + self.fleet.reaped() >= self.producers.len()
        }

        fn finished(&self) -> bool {
            self.met()
                && self
                    .conns
                    .iter()
                    .all(|c| matches!(c.handler, Handler::Ended))
                && self
                    .producers
                    .iter()
                    .all(|p| matches!(p.state, State::Drained | State::Failed(_) | State::Gone))
        }

        fn ready(&self) -> Vec<Actor> {
            let now = self.now;
            let producers = self
                .producers
                .iter()
                .enumerate()
                .filter(|(_, p)| match &p.state {
                    State::Idle | State::Ready(_) => true,
                    State::Awaiting => self.conns[p.conn].down.ready(),
                    State::Asleep(at, _) => *at <= now,
                    State::Drained | State::Failed(_) | State::Gone => false,
                });
            let handlers = self
                .conns
                .iter()
                .enumerate()
                .filter(|(_, c)| match c.handler {
                    Handler::Reading(since) => {
                        c.up.ready() || self.grace.is_some_and(|g| since + g <= now)
                    }
                    Handler::Handing(until, ..) => until <= now,
                    Handler::Waiting(park) => park.ready(now),
                    Handler::Ended => false,
                });
            let rendezvous = !self.met() && self.rendezvous.ready(now);
            producers
                .map(|(p, _)| Actor::Producer(p))
                .chain(handlers.map(|(c, _)| Actor::Handler(c)))
                .chain(rendezvous.then_some(Actor::Rendezvous))
                .collect()
        }

        fn next_timer(&self) -> Option<Duration> {
            let sleeps = self.producers.iter().filter_map(|p| match p.state {
                State::Asleep(at, _) => Some(at),
                _ => None,
            });
            let handlers = self.conns.iter().filter_map(|c| match c.handler {
                Handler::Reading(since) => self.grace.map(|g| since + g),
                Handler::Handing(until, ..) => Some(until),
                Handler::Waiting(park) => park.until,
                Handler::Ended => None,
            });
            let rendezvous = self.rendezvous.until.filter(|_| !self.met());
            sleeps
                .chain(handlers)
                .chain(rendezvous)
                .filter(|&t| t > self.now)
                .min()
        }

        /// Every parked thread re-checks: the condvar's broadcast.
        fn notify(&mut self) {
            for conn in &mut self.conns {
                if let Handler::Waiting(park) = &mut conn.handler {
                    park.woken = true;
                }
            }
            self.rendezvous.woken = true;
        }

        /// A park as `net` starts one: until the fleet's next deadline.
        fn park(&self) -> Park {
            Park {
                until: self.fleet.deadline(),
                woken: false,
            }
        }

        /// How every park ends: reaps what is due, and signals if any.
        fn reap(&mut self) {
            let reaped = self.fleet.tick(self.now);
            if !reaped.is_empty() {
                self.log(|| format!("reaped {reaped:x?}"));
                self.notify();
            }
        }

        fn close(&mut self, c: usize) {
            self.conns[c].up.closed = true;
            self.conns[c].down.closed = true;
        }

        fn dial(&mut self, p: usize) {
            self.producers[p].conn = self.conns.len();
            self.conns.push(Conn {
                owner: p,
                up: Pipe::default(),
                down: Pipe::default(),
                session: ServerSession::new(self.solution.fingerprint(), &self.config),
                handler: Handler::Reading(self.now),
                payload: Vec::new(),
            });
        }

        fn run_producer(&mut self, p: usize) {
            let event = match std::mem::replace(&mut self.producers[p].state, State::Idle) {
                State::Idle => match self.start(p) {
                    Some(event) => event,
                    None => return,
                },
                State::Ready(event) => event,
                State::Awaiting => {
                    let conn = &mut self.conns[self.producers[p].conn];
                    Event::Reply(conn.down.read(&mut conn.payload, None))
                }
                State::Asleep(_, Some(bytes)) => {
                    self.conns[self.producers[p].conn].up.write(&bytes);
                    Event::Sent(Ok(()))
                }
                State::Asleep(_, None) => {
                    self.dial(p);
                    Event::Dialed(Ok(()))
                }
                State::Drained | State::Failed(_) | State::Gone => unreachable!(),
            };
            self.log(|| format!("producer {p}: {event:?}"));
            let state = self.act(p, event);
            self.producers[p].state = state;
        }

        /// Starts the producer's next operation, if it has one to step.
        fn start(&mut self, p: usize) -> Option<Event> {
            let op = self.producers[p].ops.pop_front().expect("a drain ends it");
            let request = match op {
                Op::Report(uid, round) => {
                    let tuple = [(uid % 4) as u32, (uid / 4 % 3) as u32, (uid % 2) as u32];
                    let mut rng = StdRng::seed_from_u64(mix2(self.seed, uid));
                    let report = self.solution.report(&tuple, &mut rng);
                    let producer = &mut self.producers[p];
                    let full = producer.session.push(uid, &report);
                    producer.reports.push((uid, report, round));
                    return full.then_some(Event::Flush);
                }
                Op::Snapshot => Frame::SnapshotRequest { quiesce: false },
                Op::Epoch(round) => Frame::Epoch { round },
                Op::Drain => Frame::Drain,
                Op::Hang | Op::Crash => {
                    if let Op::Crash = op {
                        self.close(self.producers[p].conn);
                    }
                    self.producers[p].state = State::Gone;
                    return None;
                }
            };
            let producer = &mut self.producers[p];
            producer.pending = Some(op);
            producer.snapshot.0 = producer.session.pushed();
            Some(Event::Request(request))
        }

        fn act(&mut self, p: usize, event: Event) -> State {
            let conn = self.producers[p].conn;
            match self.producers[p].session.step(event) {
                Action::Send(bytes, sending) => {
                    let bytes = bytes.to_vec();
                    self.send(p, bytes, sending)
                }
                Action::Await => State::Awaiting,
                Action::Reconnect(delay) => {
                    self.close(conn);
                    State::Asleep(self.now + delay, None)
                }
                Action::Done(reply) => self.done(p, reply),
                Action::Fail(e) => {
                    self.close(conn);
                    self.log(|| format!("producer {p} failed: {e}"));
                    State::Failed(e.to_string())
                }
            }
        }

        /// The link: an honest write, or one of the faults a fault plan
        /// injects; and the producers that break the protocol.
        fn send(&mut self, p: usize, mut bytes: Vec<u8>, sending: Sending) -> State {
            let c = self.producers[p].conn;
            let producer = &mut self.producers[p];
            // Header byte 6 is the frame type (11: RESUME); a BATCH_SEQ's
            // payload starts with its little-endian sequence number.
            if sending == Sending::Batch && producer.skip && bytes[16] >= 2 {
                producer.skip = false;
                rewrite(&mut bytes, |frame| match frame {
                    Frame::BatchSeq { seq, batch } => Frame::BatchSeq {
                        seq: seq + 1,
                        batch,
                    },
                    _ => unreachable!(),
                });
            }
            if bytes[6] == 11 && producer.forge {
                producer.forge = false;
                rewrite(&mut bytes, |frame| match frame {
                    Frame::Resume {
                        session,
                        last_acked,
                    } => Frame::Resume {
                        session,
                        last_acked: last_acked + 1,
                    },
                    _ => unreachable!(),
                });
            }
            let faulted = self.rng.random_range(0..100u32) < self.fault_rate;
            let cut = match (faulted, sending) {
                (false, _) | (true, Sending::Again) => None,
                (true, Sending::Batch) => Some(self.rng.random_range(0..5)),
                (true, Sending::Request) => Some(self.rng.random_range(0..3)),
            };
            self.log(|| format!("producer {p} sends {:?} on {c}, fault {cut:?}", sending));
            let len = bytes.len();
            let written = match cut {
                None => len,
                // Delayed: the producer sleeps, then the frame goes out.
                Some(0) => return State::Asleep(self.now + 3 * MS, Some(bytes)),
                Some(1) => 0,       // dropped
                Some(2) => len / 2, // truncated
                Some(3) => len,     // reset after the whole frame
                _ => {
                    // Duplicated: the server drops the copy.
                    self.conns[c].up.write(&bytes);
                    len
                }
            };
            self.conns[c].up.write(&bytes[..written]);
            if matches!(cut, Some(1..=3)) {
                self.close(c);
                let e = std::io::Error::new(std::io::ErrorKind::ConnectionReset, "link fault");
                return State::Ready(Event::Sent(Err(WireError::Io(e))));
            }
            State::Ready(Event::Sent(Ok(())))
        }

        /// The producer's operation finished: checks the reply.
        fn done(&mut self, p: usize, reply: Option<Frame>) -> State {
            let producer = &mut self.producers[p];
            producer.token = producer.token.or(Some(producer.session.session()));
            let what = match (producer.pending.take(), reply) {
                (None, None) => return State::Idle,
                (Some(Op::Snapshot), Some(Frame::Snapshot(snapshot))) => {
                    let (pushed, last) = producer.snapshot;
                    producer.snapshot.1 = snapshot.n;
                    if snapshot.n >= pushed.max(last) {
                        return State::Idle;
                    }
                    format!(
                        "snapshot n {} behind {pushed} pushed or {last} seen",
                        snapshot.n
                    )
                }
                (Some(Op::Epoch(round)), Some(Frame::Epoch { round: next })) => {
                    if next == round + 1 {
                        return State::Idle;
                    }
                    format!("EPOCH {round} acked with {next}")
                }
                (Some(Op::Drain), Some(Frame::DrainAck { n })) => {
                    if n == producer.session.pushed() {
                        let conn = producer.conn;
                        self.close(conn);
                        return State::Drained;
                    }
                    format!("DRAIN_ACK {n} for {} pushed", producer.session.pushed())
                }
                (op, reply) => format!("{op:?} answered by {reply:?}"),
            };
            self.fail(&format!("producer {p}: {what}"))
        }

        fn run_handler(&mut self, c: usize) {
            let reading = Handler::Reading(self.now);
            match std::mem::replace(&mut self.conns[c].handler, reading) {
                Handler::Handing(_, batch, ack) => return self.hand(c, &batch, ack),
                Handler::Waiting(park) => {
                    self.conns[c].handler = Handler::Waiting(park);
                    self.reap();
                }
                handler => self.conns[c].handler = handler,
            }
            let conn = &mut self.conns[c];
            let (mut seq, mut claim) = (None, None);
            let input = match conn.handler {
                Handler::Reading(_) if conn.up.ready() => {
                    let check = conn.session.open().then_some((&self.solution, 1024));
                    let read = conn.up.read(&mut conn.payload, check);
                    match &read {
                        Ok(Frame::BatchSeq { seq: s, batch }) => seq = Some((*s, batch.len())),
                        Ok(Frame::Resume { last_acked, .. }) => claim = Some(*last_acked),
                        _ => {}
                    }
                    Input::Read(read)
                }
                Handler::Reading(_) => Input::Read(Err(WireError::Timeout)),
                Handler::Waiting(_) => Input::Woken,
                Handler::Handing(..) | Handler::Ended => unreachable!(),
            };
            self.log(|| format!("handler {c}: {input:?}"));
            let read = matches!(input, Input::Read(_));
            let conn = &mut self.conns[c];
            let step = conn.session.step(input, &mut self.fleet);
            let token = conn.session.token;
            conn.handler = Handler::Reading(self.now);
            // `net` signals after a read's reply or arrival, not a re-check.
            if read && matches!(step, Step::Reply(_) | Step::Wait) {
                self.notify();
            }
            match step {
                Step::Read => {}
                Step::Reply(frame) => {
                    if let (Some(claim), Frame::ResumeAck { acked_seq }) = (claim, &frame) {
                        if *acked_seq < claim {
                            self.fail(&format!("RESUME claimed {claim}, resumed at {acked_seq}"));
                        }
                    }
                    self.write(c, &frame);
                }
                Step::Ingest(batch, ack) => {
                    let (seq, len) = seq.expect("only a BATCH_SEQ ingests");
                    let frames = self.ingested.entry(token.unwrap()).or_default();
                    if frames.iter().any(|&(s, _)| s == seq) {
                        self.fail(&format!("seq {seq} of {token:x?} ingested twice"));
                    }
                    frames.push((seq, len as u64));
                    if self.rng.random_range(0..100u32) < self.stall_rate {
                        let until = self.now + self.rng.random_range(1..40u32) * MS;
                        self.conns[c].handler = Handler::Handing(until, batch, ack);
                    } else {
                        self.hand(c, &batch, ack);
                    }
                }
                Step::Snapshot => {
                    let snapshot = ServerSnapshot::from_aggregator(self.aggregator.clone(), 1);
                    self.write(c, &Frame::Snapshot(WireSnapshot::from(&snapshot)));
                }
                Step::Release(round) => {
                    self.epoch += 1;
                    self.notify();
                    self.write(c, &Frame::Epoch { round });
                }
                Step::Wait => self.conns[c].handler = Handler::Waiting(self.park()),
                Step::Close(reply) => {
                    if let Some(reply) = reply {
                        self.write(c, &reply);
                    }
                    self.end(c);
                }
                Step::Refuse(code, e) => {
                    let message = e.to_string();
                    self.write(c, &Frame::Abort { code, message });
                    self.end(c);
                }
            }
        }

        /// The batch reaches the shard: it lands in the server's current
        /// epoch, the fleet hears of it and the parked threads are signaled.
        fn hand(&mut self, c: usize, batch: &CompactBatch, ack: Option<Frame>) {
            self.aggregator.absorb_compact(batch);
            self.per_epoch[self.epoch] += batch.len() as u64;
            self.conns[c].session.handed(&mut self.fleet);
            self.notify();
            if let Some(ack) = ack {
                self.write(c, &ack);
            }
        }

        fn write(&mut self, c: usize, frame: &Frame) {
            let owner = &self.producers[self.conns[c].owner];
            let abort = matches!(frame, Frame::Abort { .. });
            if !abort && owner.token.is_some() && self.rng.random_range(0..100u32) < self.reset_rate
            {
                self.log(|| format!("handler {c}: the connection resets under {}", frame.name()));
                return self.close(c);
            }
            let mut bytes = Vec::new();
            encode_frame(frame, &mut bytes);
            self.conns[c].down.write(&bytes);
        }

        fn end(&mut self, c: usize) {
            self.conns[c].session.end(&mut self.fleet, self.now);
            self.conns[c].handler = Handler::Ended;
            self.close(c);
            self.notify();
        }

        /// The properties every schedule must keep.
        fn check(&self) {
            let drained = self
                .producers
                .iter()
                .filter(|p| matches!(p.state, State::Drained))
                .count();
            if self.fleet.drained() != drained
                || drained + self.fleet.reaped() != self.producers.len()
            {
                self.fail(&format!(
                    "{drained} producers drained; the fleet counts {} drained and {} reaped",
                    self.fleet.drained(),
                    self.fleet.reaped()
                ));
            }
            for (p, producer) in self.producers.iter().enumerate() {
                let lost = match &producer.state {
                    State::Drained => continue,
                    State::Failed(e) => e.as_str(),
                    _ => "never finished",
                };
                if producer.healthy {
                    self.fail(&format!("healthy producer lost: producer {p}: {lost}"));
                }
            }
            let mut reference = self.solution.aggregator();
            let mut per_round = vec![0u64; self.rounds];
            for (p, producer) in self.producers.iter().enumerate() {
                let frames = producer
                    .token
                    .and_then(|t| self.ingested.get(&t))
                    .map_or(&[][..], Vec::as_slice);
                if frames
                    .iter()
                    .enumerate()
                    .any(|(i, &(seq, _))| seq != i as u64 + 1)
                {
                    self.fail(&format!("producer {p} ingested seqs {frames:?}"));
                }
                let landed = frames.iter().map(|&(_, n)| n).sum::<u64>() as usize;
                let mut batch = CompactBatch::new();
                for (uid, report, round) in &producer.reports[..landed] {
                    batch.push_wire(*uid, report);
                    per_round[*round] += 1;
                }
                reference.absorb_compact(&batch);
            }
            if reference.n() != self.aggregator.n()
                || reference.counts() != self.aggregator.counts()
            {
                self.fail("the drain differs from the serial absorb of the ingested reports");
            }
            if self.clean && per_round != self.per_epoch {
                self.fail(&format!(
                    "rounds {per_round:?} were ingested in epochs {:?}",
                    self.per_epoch
                ));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        /// Seeded schedules of faulted fleets: every `(session, seq)` is
        /// ingested exactly once and in order, the drain equals the serial
        /// absorb of the reports that landed (all of them, round by round,
        /// for a clean fleet), every producer drains or is reaped, and no
        /// schedule wedges.
        #[test]
        fn simulated_fleets_ingest_exactly_once_and_drain_the_serial_absorb(seed in any::<u64>()) {
            Sim::new(seed).run();
        }
    }
}
