//! The producer side of the ingestion wire: a blocking TCP client that
//! batches sanitized reports into sequence-numbered `CompactBatch` frames
//! for a [`WireServer`](ldp_server::WireServer), and survives the wire
//! failing underneath it.
//!
//! One [`NetClient`] is one producer session: connect (HELLO), push reports
//! (sealed into BATCH_SEQ frames at the batch size, each straight into a
//! replay-ring buffer an earlier ack freed, so a steady-state producer
//! neither allocates nor copies a frame), interleave [`NetClient::snapshot`]
//! round trips, and [`NetClient::finish`] with DRAIN.
//!
//! ## Fault tolerance
//!
//! Every protocol decision is [`ClientSession`]'s: the replay ring bounded
//! by [`ClientConfig::ack_window`], the backoff within
//! [`ClientConfig::retries`] (its jitter drawn from the resume token, so
//! producers do not redial in lockstep), and RESUME with its replay, so
//! ingest is exactly-once however the connection dies. `NetClient` does what a step
//! asks: send, read, or sleep and redial. A read deadline
//! ([`ClientConfig::read_timeout_ms`]) turns a hung server into a typed
//! [`WireError::Timeout`]. A deterministic [`FaultPlan`] faults first
//! transmissions; that is how tests and `risks produce --fault-plan`
//! exercise the reconnect path reproducibly.
//!
//! Backpressure needs no client-side code: while the server's connection
//! handler absorbs a frame it reads nothing, so when absorbing falls behind
//! the TCP window closes and the write inside [`NetClient::push`] blocks
//! until the server catches up.

use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use ldp_core::solutions::{DynSolution, SolutionReport};
use ldp_server::session::{Action, ClientSession, Event};
use ldp_server::wire::{auth_fingerprint, read_frame, Frame, WireError, WireSnapshot};

use crate::fault::{transmit, FaultInjector, FaultPlan};

/// Default reports per BATCH_SEQ frame — the server's default batch
/// (`ServerConfig::batch`), the largest frame a default server accepts.
const DEFAULT_BATCH: usize = 1024;

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
            retries: 8,
            ack_window: 64,
            ..ClientConfig::default()
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

/// A connected producer session speaking the `ldp_server::wire` protocol:
/// the I/O adapter around one [`ClientSession`].
#[derive(Debug)]
pub struct NetClient {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
    addrs: Vec<SocketAddr>,
    timeout: Option<Duration>,
    injector: Option<FaultInjector>,
    session: ClientSession,
}

impl NetClient {
    /// Connects with the default [`ClientConfig`] and runs the HELLO
    /// handshake for `solution`; a server of another solution (family,
    /// domain sizes, ε, priors) refuses it with a typed error.
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
        let timeout = (cfg.read_timeout_ms > 0).then(|| Duration::from_millis(cfg.read_timeout_ms));
        let (stream, reader) = dial(&addrs, timeout)?;
        let session = ClientSession::new(
            solution.fingerprint(),
            cfg.auth.as_deref().map_or(0, auth_fingerprint),
            Some(cfg.batch).filter(|&b| b > 0).unwrap_or(DEFAULT_BATCH),
            cfg.ack_window,
            cfg.retries,
        );
        let injector = cfg.fault_plan.as_ref().map(FaultPlan::injector);
        let mut client = NetClient {
            reader,
            stream,
            addrs,
            timeout,
            injector,
            session,
        };
        client.drive(Event::Open)?;
        Ok(client)
    }

    /// The server's shard count, as announced in HELLO_ACK.
    pub fn server_shards(&self) -> u32 {
        self.session.shards()
    }

    /// The server-issued resume token (0: the session cannot resume).
    pub fn session(&self) -> u64 {
        self.session.session()
    }

    /// Reports pushed into this session so far (buffered or sent).
    pub fn pushed(&self) -> u64 {
        self.session.pushed()
    }

    /// Buffers one sanitized report (never its sampled attribute), sending
    /// a BATCH_SEQ frame whenever the batch is full; a blocked send *is* the
    /// backpressure.
    pub fn push(&mut self, uid: u64, report: &SolutionReport) -> Result<(), WireError> {
        if self.session.push(uid, report) {
            self.drive(Event::Flush)?;
        }
        Ok(())
    }

    /// Sends any buffered reports.
    pub fn flush(&mut self) -> Result<(), WireError> {
        self.drive(Event::Flush).map(drop)
    }

    /// The server's current merged estimates, covering at least everything
    /// pushed before the call. `quiesce` is carried in the frame for wire
    /// compatibility and has no effect.
    pub fn snapshot(&mut self, quiesce: bool) -> Result<WireSnapshot, WireError> {
        match self.request(Frame::SnapshotRequest { quiesce })? {
            Frame::Snapshot(snapshot) => Ok(snapshot),
            _ => unreachable!("the session returns a SNAPSHOT_REQUEST's SNAPSHOT"),
        }
    }

    /// Ends collection round `round`: flushes, sends `EPOCH{round}` and
    /// blocks until the fleet barrier releases with `EPOCH{round + 1}`, the
    /// round it returns. Arrival is keyed by session, so a re-announce after
    /// a resume never double-counts.
    pub fn advance_epoch(&mut self, round: u64) -> Result<u64, WireError> {
        match self.request(Frame::Epoch { round })? {
            Frame::Epoch { round: next } if next == round + 1 => Ok(next),
            Frame::Epoch { round: next } => Err(WireError::Payload(format!(
                "epoch ack skewed: sent round {round}, server acked {next}"
            ))),
            _ => unreachable!("the session returns an EPOCH's EPOCH"),
        }
    }

    /// Ends the session: flushes, sends DRAIN and returns the reports the
    /// server ingested for it across all its connections, which equals
    /// [`NetClient::pushed`] on a healthy or recovered wire.
    pub fn finish(mut self) -> Result<u64, WireError> {
        match self.request(Frame::Drain)? {
            Frame::DrainAck { n } => Ok(n),
            _ => unreachable!("the session returns a DRAIN's DRAIN_ACK"),
        }
    }

    /// Flushes the buffered reports, sends `frame` and returns its reply.
    fn request(&mut self, frame: Frame) -> Result<Frame, WireError> {
        Ok(self
            .drive(Event::Request(frame))?
            .expect("a request has a reply"))
    }

    /// The one I/O loop: does what the session asks until it is done.
    fn drive(&mut self, mut event: Event) -> Result<Option<Frame>, WireError> {
        loop {
            event = match self.session.step(event) {
                Action::Send(bytes, sending) => {
                    let fault = self
                        .injector
                        .as_mut()
                        .and_then(|i| i.next_fault_for(sending));
                    Event::Sent(transmit(&mut self.stream, bytes, fault))
                }
                Action::Await => Event::Reply(read_frame(&mut self.reader)),
                Action::Reconnect(delay) => {
                    let _ = self.stream.shutdown(Shutdown::Both);
                    std::thread::sleep(delay);
                    Event::Dialed(dial(&self.addrs, self.timeout).map(|(stream, reader)| {
                        (self.stream, self.reader) = (stream, reader);
                    }))
                }
                Action::Done(reply) => return Ok(reply),
                Action::Fail(e) => return Err(e),
            };
        }
    }
}

/// Dials the first reachable address, honoring the deadline for both the
/// connect and subsequent reads.
fn dial(
    addrs: &[SocketAddr],
    timeout: Option<Duration>,
) -> Result<(TcpStream, BufReader<TcpStream>), WireError> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::solutions::{CompactBatch, RsFdProtocol, SolutionKind};
    use ldp_server::wire::write_frame;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A faulty or hostile collector answers SNAPSHOT_REQUEST with a full
    /// 1,024-report BATCH_SEQ: the client's error names the frame instead
    /// of dumping it.
    #[test]
    fn an_unexpected_reply_is_named_not_dumped() {
        let solution = SolutionKind::RsFd(RsFdProtocol::Grr)
            .build(&[4, 3, 2], 1.0)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut batch = CompactBatch::new();
        for uid in 0..1024 {
            batch.push_wire(uid, &solution.report(&[1, 2, 0], &mut rng));
        }
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let fingerprint = solution.fingerprint();
        let collector = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            assert!(matches!(read_frame(&mut reader), Ok(Frame::Hello { .. })));
            let hello_ack = Frame::HelloAck {
                fingerprint,
                shards: 1,
                session: 7,
                ack_every: 1,
            };
            write_frame(&mut writer, &hello_ack).unwrap();
            let request = read_frame(&mut reader);
            assert!(matches!(request, Ok(Frame::SnapshotRequest { .. })));
            write_frame(&mut writer, &Frame::BatchSeq { seq: 1, batch }).unwrap();
        });
        let mut client = NetClient::connect(addr, &solution).unwrap();
        let message = client.snapshot(false).unwrap_err().to_string();
        collector.join().unwrap();
        assert!(
            message.contains("BATCH_SEQ"),
            "{}",
            &message[..message.len().min(200)]
        );
        assert!(message.len() < 200, "a {}-byte error", message.len());
    }
}
