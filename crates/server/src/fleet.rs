//! The producer fleet as a pure state machine: every exactly-once, resume,
//! reap and EPOCH-barrier rule of the wire listener, with no socket, no
//! lock and no clock.
//!
//! [`crate::net`] keeps one [`Fleet`] behind one `Mutex` and one `Condvar`,
//! and each connection's [`crate::session::ServerSession`] asks it for
//! every decision. Time comes in as an argument (`now`, a [`Duration`] on
//! the caller's clock) and the token salt as a constructor argument, so the
//! rules run the same under the simulator's virtual clock as under the
//! listener's wall clock.
//!
//! ## The rules
//!
//! * **Sessions.** [`Fleet::hello`] issues a fresh non-zero token, which
//!   also names the connection. The session lands in a table of at most
//!   `capacity` resumable entries; when the table is full, the oldest
//!   session that no connection drives and that is not suspect (drained or
//!   idle) is evicted. If none is, the producer cannot resume it. A drained
//!   session stays in the table, marked drained, so a producer that missed
//!   its DRAIN_ACK can resume and drain again without being counted twice.
//! * **Exactly-once.** [`Fleet::batch`] ingests `BATCH_SEQ` numbers in
//!   order from 1: the next number is ingested, an acked one is a replay
//!   and dropped, anything else (seq 0, or a gap) is a protocol violation.
//! * **Resume.** [`Fleet::resume`] rebinds a session to a new connection
//!   iff the connection has not started its own session yet, the session
//!   exists, and the producer claims no more than the server acked. It
//!   takes the session over from a connection still driving it, which the
//!   producer gave up: that one no longer [`Fleet::holds`] it. While that
//!   connection still hands an acked batch to a shard ([`Fleet::handed`]
//!   has not come yet), the RESUME waits, so everything after it (a
//!   SNAPSHOT, an EPOCH release, the next round) follows that batch.
//! * **Reap.** A session whose connection drops after it did work
//!   (ingested, announced an EPOCH or resumed) but before it drained turns
//!   suspect. [`Fleet::tick`] reaps every suspect older than the reap
//!   period, the longer of the grace period (the read timeout) and the
//!   client's longest backoff step: it leaves the table, and the effective
//!   fleet (declared minus reaped) shrinks by one. [`Fleet::deadline`] is
//!   the next reap.
//! * **EPOCH barrier.** Arrivals are keyed by session, so a producer that
//!   announces, faults, resumes and announces again is counted once. The
//!   barrier releases when the arrivals reach the effective fleet; a
//!   reaped session's arrival is dropped with it. Nothing else ends a
//!   wait: like the drain rendezvous, the barrier waits for the declared
//!   fleet however long that takes.

use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Duration;

use ldp_protocols::hash::mix2;

use crate::session::BACKOFF_MAX_MS;

/// The decision on one `BATCH_SEQ` frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Batch {
    /// The next sequence number: ingest the frame. Carries the session's
    /// ingested total including it.
    Ingest {
        /// Reports ingested for the session, this frame included.
        ingested: u64,
    },
    /// A replay of an acked frame: drop it unread.
    Dedup,
    /// Seq 0 or a seq past `acked + 1`: abort the connection.
    Gap {
        /// The session's highest acked sequence number.
        acked: u64,
    },
}

/// The decision on an `EPOCH` announcement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Epoch {
    /// The fleet is already past the round: ack with the given round.
    Ack(u64),
    /// This arrival (or a reap) completed the barrier and the fleet moved
    /// to the given round. The caller rotates the server's epoch before
    /// any waiter is acked.
    Release(u64),
    /// Arrived; wait for the rest of the fleet.
    Wait,
    /// The round is neither the fleet's round nor the one before it, which
    /// is carried: abort the connection.
    Mismatch(u64),
}

/// Why [`Fleet::resume`] refused a RESUME.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Refused {
    /// The connection already started or resumed a session, or names its own.
    Late,
    /// No such resumable session (never issued, evicted or reaped).
    Unknown,
    /// The producer claims more than the server acked, which is carried.
    Ahead(u64),
}

/// What the fleet remembers about one producer session, across however
/// many connections it takes to finish it.
#[derive(Debug, Default)]
struct Session {
    /// Highest contiguously ingested sequence number.
    acked: u64,
    /// Reports ingested across all of the session's connections.
    ingested: u64,
    /// Whether the session has a table slot (and so can be resumed).
    listed: bool,
    /// The connection driving the session, named by its HELLO token.
    conn: Option<u64>,
    /// Whether the session ever ingested, announced an EPOCH or resumed;
    /// untouched sessions (probes, idle producers) never turn suspect.
    touched: bool,
    /// Whether a DRAIN was counted for the session.
    drained: bool,
    /// Whether its connection is still handing an ingested batch to a shard.
    handing: bool,
    /// When the session lost its connection with work unfinished.
    suspect: Option<Duration>,
}

/// The fleet state of one wire listener; see the module docs for its rules.
#[derive(Debug)]
pub(crate) struct Fleet {
    sessions: HashMap<u64, Session>,
    /// Listed tokens, oldest first: the eviction order.
    order: VecDeque<u64>,
    capacity: usize,
    /// Suspects older than this are reaped; `None` never reaps.
    reap: Option<Duration>,
    /// Token counter, mixed with `nonce` into each issued token.
    next: u64,
    nonce: u64,
    /// Declared fleet size the EPOCH barrier waits for.
    declared: usize,
    drained: usize,
    reaped: usize,
    /// The round the fleet is streaming.
    round: u64,
    /// Sessions that announced the end of `round`.
    arrived: HashSet<u64>,
}

impl Fleet {
    /// An empty fleet of declared size 1 with room for `capacity` resumable
    /// sessions. `grace` is the read timeout (`None`: never reap);
    /// `nonce` salts the issued tokens so they cannot be guessed across runs.
    pub(crate) fn new(capacity: usize, grace: Option<Duration>, nonce: u64) -> Fleet {
        Fleet {
            sessions: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
            reap: grace.map(|g| g.max(Duration::from_millis(BACKOFF_MAX_MS))),
            next: 0,
            nonce: mix2(nonce, 0xC0FF_EE00),
            declared: 1,
            drained: 0,
            reaped: 0,
            round: 0,
            arrived: HashSet::new(),
        }
    }

    /// Declares the fleet size the EPOCH barrier waits for (at least 1).
    pub(crate) fn declare(&mut self, producers: usize) {
        self.declared = producers.max(1);
    }

    /// Sessions that drained, each counted once.
    pub(crate) fn drained(&self) -> usize {
        self.drained
    }

    /// Sessions reaped after their reap period.
    pub(crate) fn reaped(&self) -> usize {
        self.reaped
    }

    /// Opens a session for a new connection, which its token also names.
    /// Returns the token and whether it has a table slot; without one it
    /// cannot be resumed.
    pub(crate) fn hello(&mut self) -> (u64, bool) {
        let token = loop {
            self.next = self.next.wrapping_add(1);
            let t = mix2(self.nonce, self.next);
            if t != 0 && !self.sessions.contains_key(&t) {
                break t;
            }
        };
        let listed = self.order.len() < self.capacity || self.evict();
        if listed {
            self.order.push_back(token);
        }
        let session = Session {
            listed,
            conn: Some(token),
            ..Session::default()
        };
        self.sessions.insert(token, session);
        (token, listed)
    }

    /// Frees the oldest listed slot that no connection drives and no
    /// suspect holds; false if every slot is taken.
    fn evict(&mut self) -> bool {
        let sessions = &self.sessions;
        let free = |t: &u64| {
            sessions
                .get(t)
                .is_some_and(|s| s.conn.is_none() && s.suspect.is_none())
        };
        let Some(i) = self.order.iter().position(free) else {
            return false;
        };
        let token = self.order.remove(i).expect("position is in range");
        self.sessions.remove(&token);
        true
    }

    /// Removes a session from the table.
    fn forget(&mut self, token: u64) {
        if self.sessions.remove(&token).is_some_and(|s| s.listed) {
            self.order.retain(|&t| t != token);
        }
    }

    fn live(&mut self, token: u64) -> &mut Session {
        self.sessions
            .get_mut(&token)
            .expect("a connection's session stays in the table while it is live")
    }

    /// Whether the connection `conn` still drives the session `token`.
    pub(crate) fn holds(&self, token: u64, conn: u64) -> bool {
        matches!(self.sessions.get(&token), Some(s) if s.conn == Some(conn))
    }

    /// Rebinds the resumable `session` to the connection `conn`, whose own
    /// untouched session is dropped, and takes it from any connection that
    /// still drives it. Returns the session's acked sequence number, or
    /// `None` while that connection still hands a batch to a shard: the
    /// RESUME is stepped again once it has.
    pub(crate) fn resume(
        &mut self,
        conn: u64,
        session: u64,
        last_acked: u64,
    ) -> Result<Option<u64>, Refused> {
        let fresh = self.sessions.get(&conn).is_some_and(|s| !s.touched);
        if !fresh || session == conn {
            return Err(Refused::Late);
        }
        let Some(s) = self.sessions.get_mut(&session).filter(|s| s.listed) else {
            return Err(Refused::Unknown);
        };
        if last_acked > s.acked {
            return Err(Refused::Ahead(s.acked));
        }
        if s.handing {
            return Ok(None);
        }
        s.conn = Some(conn);
        s.touched = true;
        s.suspect = None;
        let acked = s.acked;
        self.forget(conn);
        Ok(Some(acked))
    }

    /// Decides on the frame `seq` of `len` reports for the live session
    /// `token`. An [`Batch::Ingest`] is recorded as acked at once, and the
    /// session is handing it to a shard until [`Fleet::handed`].
    pub(crate) fn batch(&mut self, token: u64, seq: u64, len: u64) -> Batch {
        let s = self.live(token);
        match seq {
            0 => Batch::Gap { acked: s.acked },
            seq if seq <= s.acked => Batch::Dedup,
            seq if seq == s.acked + 1 => {
                s.acked = seq;
                s.ingested += len;
                s.touched = true;
                s.handing = true;
                Batch::Ingest {
                    ingested: s.ingested,
                }
            }
            _ => Batch::Gap { acked: s.acked },
        }
    }

    /// The live session `token`'s connection handed the batch it ingested
    /// last to a shard.
    pub(crate) fn handed(&mut self, token: u64) {
        self.live(token).handing = false;
    }

    /// The live session `token` announces the end of `round`; a waiter
    /// announces it again each time it wakes.
    pub(crate) fn epoch(&mut self, token: u64, round: u64) -> Epoch {
        if self.round.checked_sub(1) == Some(round) {
            return Epoch::Ack(self.round);
        }
        if round != self.round {
            return Epoch::Mismatch(self.round);
        }
        self.live(token).touched = true;
        self.arrived.insert(token);
        let effective = self.declared.saturating_sub(self.reaped).max(1);
        if self.arrived.len() < effective {
            return Epoch::Wait;
        }
        self.round += 1;
        self.arrived.clear();
        Epoch::Release(self.round)
    }

    /// The live session `token` drains; a repeat drain is not counted
    /// again. Returns the session's ingested total.
    pub(crate) fn drain(&mut self, token: u64) -> u64 {
        let s = self.live(token);
        let first = !s.drained;
        s.drained = true;
        let ingested = s.ingested;
        self.drained += usize::from(first);
        ingested
    }

    /// The connection `conn` driving `token` closed at `now`. A session
    /// with unfinished work turns suspect; one without a table slot is
    /// gone. A session another connection took over is left alone.
    pub(crate) fn disconnect(&mut self, token: u64, conn: u64, now: Duration) {
        if !self.holds(token, conn) {
            return;
        }
        let s = self.live(token);
        s.conn = None;
        if !s.listed {
            self.sessions.remove(&token);
        } else if s.touched && !s.drained {
            s.suspect = Some(now);
        }
    }

    /// When the next reap falls due.
    pub(crate) fn deadline(&self) -> Option<Duration> {
        let reap = self.reap?;
        let first = self.sessions.values().filter_map(|s| s.suspect).min();
        first.map(|t| t + reap)
    }

    /// Reaps every session suspect for at least the reap period at `now`.
    /// Returns the reaped tokens.
    pub(crate) fn tick(&mut self, now: Duration) -> Vec<u64> {
        let reap = self.reap.unwrap_or(Duration::MAX);
        let dead: Vec<u64> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.suspect.is_some_and(|t| now.saturating_sub(t) >= reap))
            .map(|(&t, _)| t)
            .collect();
        for token in &dead {
            self.forget(*token);
            self.arrived.remove(token);
        }
        self.reaped += dead.len();
        dead
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use proptest::prelude::*;

    const GRACE: Duration = Duration::from_millis(100);
    /// The reap period under `GRACE`: the client's longest backoff step.
    const REAP: Duration = Duration::from_millis(BACKOFF_MAX_MS);

    #[test]
    fn resume_rebinds_a_session_and_refuses_everything_else() {
        let t0 = Duration::ZERO;
        let mut fleet = Fleet::new(8, Some(GRACE), 2);
        let (a, _) = fleet.hello();
        assert_eq!(fleet.batch(a, 1, 3), Batch::Ingest { ingested: 3 });
        fleet.handed(a);
        fleet.disconnect(a, a, t0);
        let (b, _) = fleet.hello();
        assert_eq!(fleet.resume(b, a, 2), Err(Refused::Ahead(1)));
        assert_eq!(fleet.resume(b, 0xBAD, 0), Err(Refused::Unknown));
        assert_eq!(fleet.resume(b, b, 0), Err(Refused::Late));
        assert_eq!(fleet.resume(b, a, 0), Ok(Some(1)));
        // The throwaway session is forgotten, and a second RESUME on the
        // same connection comes too late.
        assert!(!fleet.sessions.contains_key(&b));
        assert!(fleet.holds(a, b));
        assert_eq!(fleet.resume(b, a, 1), Err(Refused::Late));
        assert_eq!(fleet.batch(a, 1, 3), Batch::Dedup);
        assert_eq!(fleet.batch(a, 2, 3), Batch::Ingest { ingested: 6 });
        fleet.handed(a);
        // A resumed session is not reaped, however long it takes.
        assert!(fleet.tick(t0 + 10 * REAP).is_empty());
        // Drained, it may resume and drain again without a recount.
        assert_eq!(fleet.drain(a), 6);
        fleet.disconnect(a, b, t0);
        let (c, _) = fleet.hello();
        assert_eq!(fleet.resume(c, a, 2), Ok(Some(2)));
        assert_eq!(fleet.drain(a), 6);
        fleet.disconnect(a, c, t0);
        assert_eq!((fleet.drained(), fleet.reaped()), (1, 0));
    }

    #[test]
    fn a_resume_takes_the_session_over_and_the_old_connection_leaves_it_alone() {
        let t0 = Duration::ZERO;
        let mut fleet = Fleet::new(8, Some(GRACE), 6);
        fleet.declare(2);
        let (a, _) = fleet.hello();
        assert_eq!(fleet.batch(a, 1, 4), Batch::Ingest { ingested: 4 });
        // Its producer gives the connection up and resumes on a new one,
        // which waits while the old one hands the acked batch to a shard.
        let (b, _) = fleet.hello();
        assert_eq!(fleet.resume(b, a, 1), Ok(None));
        assert!(fleet.holds(a, a) && fleet.holds(b, b));
        fleet.handed(a);
        // The old connection goes on to wait at the barrier.
        assert_eq!(fleet.epoch(a, 0), Epoch::Wait);
        assert_eq!(fleet.resume(b, a, 1), Ok(Some(1)));
        assert!(!fleet.holds(a, a) && fleet.holds(a, b));
        // The old connection closes: the session stays live, not suspect,
        // and keeps its arrival.
        fleet.disconnect(a, a, t0);
        assert!(fleet.holds(a, b));
        assert!(fleet.tick(t0 + 10 * REAP).is_empty());
        assert_eq!(fleet.epoch(a, 0), Epoch::Wait);
        // Ingest stays exactly-once: the replay is dropped, the next seq
        // lands once.
        assert_eq!(fleet.batch(a, 1, 4), Batch::Dedup);
        assert_eq!(fleet.batch(a, 2, 5), Batch::Ingest { ingested: 9 });
        fleet.handed(a);
        let (c, _) = fleet.hello();
        assert_eq!(fleet.epoch(c, 0), Epoch::Release(1));
        assert_eq!(fleet.drain(a), 9);
        // A late close of the old connection still changes nothing.
        fleet.disconnect(a, a, t0);
        fleet.disconnect(a, b, t0);
        assert_eq!((fleet.drained(), fleet.reaped()), (1, 0));
    }

    #[test]
    fn a_full_table_evicts_the_oldest_idle_session_and_never_a_suspect() {
        let t0 = Duration::ZERO;
        let mut fleet = Fleet::new(2, Some(GRACE), 3);
        let (suspect, _) = fleet.hello();
        fleet.batch(suspect, 1, 1);
        fleet.handed(suspect);
        fleet.disconnect(suspect, suspect, t0);
        let (idle, _) = fleet.hello();
        fleet.disconnect(idle, idle, t0);
        // The idle session goes; the suspect keeps its slot.
        let (live, listed) = fleet.hello();
        assert!(listed);
        let (guest, listed) = fleet.hello();
        assert!(!listed, "every slot is held by a suspect or a live session");
        assert_eq!(fleet.resume(guest, idle, 0), Err(Refused::Unknown));
        // A guest streams and drains like anyone, but leaves no trace.
        assert_eq!(fleet.batch(guest, 1, 4), Batch::Ingest { ingested: 4 });
        assert_eq!(fleet.drain(guest), 4);
        fleet.disconnect(guest, guest, t0);
        assert!(!fleet.sessions.contains_key(&guest));
        assert_eq!(fleet.resume(live, suspect, 1), Ok(Some(1)));
        assert_eq!(fleet.order.len(), 1);
    }

    #[test]
    fn without_a_grace_period_nothing_is_ever_reaped() {
        let t0 = Duration::ZERO;
        let hour = Duration::from_secs(3600);
        let mut fleet = Fleet::new(4, None, 4);
        fleet.declare(3);
        let (a, _) = fleet.hello();
        assert_eq!(fleet.epoch(a, 0), Epoch::Wait);
        fleet.disconnect(a, a, t0);
        assert!(fleet.tick(hour).is_empty());
        assert_eq!(fleet.deadline(), None);
        // The suspect's arrival outlives its connection.
        let (b, _) = fleet.hello();
        assert_eq!(fleet.epoch(b, 0), Epoch::Wait);
        let (c, _) = fleet.hello();
        assert_eq!(fleet.epoch(c, 0), Epoch::Release(1));
        assert_eq!(fleet.epoch(b, 0), Epoch::Ack(1));
        assert_eq!(fleet.epoch(b, u64::MAX), Epoch::Mismatch(1));
    }

    #[test]
    fn a_barrier_waits_for_the_declared_fleet_however_long_that_takes() {
        let t0 = Duration::ZERO;
        let mut fleet = Fleet::new(8, Some(GRACE), 8);
        fleet.declare(3);
        let (a, _) = fleet.hello();
        assert_eq!(fleet.epoch(a, 0), Epoch::Wait);
        // An untouched session whose connection dropped: a probe, a producer
        // that crashed before its first batch, or one mid-backoff. It is
        // never suspect, so never reaped, and the fleet stays at 3.
        let (idle, _) = fleet.hello();
        fleet.disconnect(idle, idle, t0);
        // A live session, silent so far.
        let (live, _) = fleet.hello();
        assert!(fleet.tick(t0 + 100 * REAP).is_empty());
        assert_eq!(fleet.deadline(), None);
        assert_eq!(fleet.epoch(live, 0), Epoch::Wait);
        assert_eq!(fleet.epoch(a, 0), Epoch::Wait);
        let (b, _) = fleet.hello();
        assert_eq!(fleet.resume(b, idle, 0), Ok(Some(0)));
        assert_eq!(fleet.epoch(idle, 0), Epoch::Release(1));
        assert_eq!(fleet.epoch(a, 0), Epoch::Ack(1));
    }

    #[test]
    fn a_short_read_timeout_does_not_reap_before_the_longest_backoff_step() {
        let t0 = Duration::ZERO;
        let timeout = Duration::from_millis(150);
        let mut fleet = Fleet::new(8, Some(timeout), 9);
        let (a, _) = fleet.hello();
        fleet.batch(a, 1, 2);
        fleet.disconnect(a, a, t0);
        assert_eq!(fleet.deadline(), Some(t0 + Duration::from_secs(1)));
        assert!(fleet.tick(t0 + timeout).is_empty());
        assert!(fleet.tick(t0 + Duration::from_millis(999)).is_empty());
        assert_eq!(fleet.tick(t0 + Duration::from_secs(1)), vec![a]);
        assert_eq!(fleet.reaped(), 1);
        // A longer read timeout is the reap period itself.
        let mut fleet = Fleet::new(8, Some(3 * REAP), 9);
        let (a, _) = fleet.hello();
        fleet.batch(a, 1, 2);
        fleet.disconnect(a, a, t0);
        assert!(fleet.tick(t0 + 2 * REAP).is_empty());
        assert_eq!(fleet.tick(t0 + 3 * REAP), vec![a]);
    }

    /// A producer as the reference model sees it.
    #[derive(Clone, Copy, Default)]
    struct Producer {
        /// The session its open connection drives, and the connection's
        /// own HELLO token.
        conn: Option<(u64, u64)>,
        /// The session it streams into; outlives its connections.
        session: Option<u64>,
        /// The round whose barrier its handler waits at.
        waiting: Option<u64>,
    }

    /// What the fleet must know about one session.
    #[derive(Default)]
    struct Expect {
        acked: u64,
        ingested: u64,
        touched: bool,
        drained: bool,
        /// Its connection has not handed its last ingested batch over yet.
        handing: bool,
        suspect: Option<Duration>,
        reaped: bool,
    }

    /// Which `BATCH_SEQ` a producer sends.
    #[derive(Clone, Copy)]
    enum Seq {
        /// `acked + 1`.
        Next,
        /// An acked seq (seq 0 while nothing is acked).
        Replay,
        /// Seq 0 or a gap.
        Wrong,
    }

    /// One thing that can happen to the fleet.
    #[derive(Clone, Copy)]
    enum Event {
        Connect,
        /// Reconnect and RESUME.
        Resume(u64),
        /// Give the open connection up, reconnect and RESUME.
        Takeover(u64),
        /// The open connection hands its ingested batch to a shard.
        Handed(u64),
        LateResume,
        Batch(u64, Seq),
        Epoch(u64),
        Drain(u64),
        Drop,
        /// A barrier waiter's park wakes, signaled or past a deadline.
        Park,
        Time,
        Idle,
    }

    /// The reference model, driving a real [`Fleet`] in lockstep.
    struct Model {
        fleet: Fleet,
        now: Duration,
        declared: usize,
        producers: Vec<Producer>,
        sessions: HashMap<u64, Expect>,
        /// Connections given up after a takeover: `(session, HELLO token)`.
        stale: Vec<(u64, u64)>,
        /// Every (session, seq) the fleet said to ingest.
        ingested: HashSet<(u64, u64)>,
        round: u64,
        /// Unreaped sessions that announced the end of `round`.
        arrived: HashSet<u64>,
        reaped: usize,
    }

    impl Model {
        fn new(producers: usize, declared: usize) -> Model {
            let mut fleet = Fleet::new(1024, Some(GRACE), 5);
            fleet.declare(declared);
            Model {
                fleet,
                now: Duration::ZERO,
                declared,
                producers: vec![Producer::default(); producers],
                sessions: HashMap::new(),
                stale: Vec::new(),
                ingested: HashSet::new(),
                round: 0,
                arrived: HashSet::new(),
                reaped: 0,
            }
        }

        fn open(&mut self) -> u64 {
            let (token, listed) = self.fleet.hello();
            assert!(listed);
            self.sessions.insert(token, Expect::default());
            token
        }

        /// Producer `p`'s connection closes, however it ended.
        fn close(&mut self, p: usize) {
            let (token, conn) = self.producers[p].conn.take().expect("connected");
            self.producers[p].waiting = None;
            self.fleet.disconnect(token, conn, self.now);
            let s = self.sessions.get_mut(&token).unwrap();
            if s.touched && !s.drained {
                s.suspect = Some(self.now);
            }
        }

        /// Reaps every session suspect for a reap period; returns how many.
        fn reap_due(&mut self) -> usize {
            let now = self.now;
            let mut due = 0;
            for (token, s) in &mut self.sessions {
                if s.suspect.is_some_and(|t| t + REAP <= now) {
                    s.suspect = None;
                    s.reaped = true;
                    self.arrived.remove(token);
                    due += 1;
                }
            }
            self.reaped += due;
            due
        }

        /// Time passes (or a waiter's park wakes): the park reaps what is
        /// due and, if that reaped anything, signals every waiter.
        fn reap(&mut self) {
            let due = self.reap_due();
            assert_eq!(self.fleet.tick(self.now).len(), due);
            if due > 0 {
                self.wake();
            }
        }

        /// Checks the fleet's barrier verdict for a producer waiting at
        /// `round`; returns whether it keeps waiting.
        fn barrier(&mut self, round: u64, verdict: Epoch) -> bool {
            if self.round > round {
                assert_eq!(verdict, Epoch::Ack(round + 1));
                return false;
            }
            // The barrier releases exactly when the effective fleet
            // (declared minus reaped) has arrived, and nothing else ends
            // the wait.
            let effective = self.declared.saturating_sub(self.reaped).max(1);
            if self.arrived.len() >= effective {
                assert_eq!(verdict, Epoch::Release(round + 1));
                self.round += 1;
                self.arrived.clear();
                return false;
            }
            assert_eq!(verdict, Epoch::Wait, "released with {:?}", self.arrived);
            true
        }

        /// Every waiter wakes (the condvar's broadcast) and announces again.
        fn wake(&mut self) {
            for p in 0..self.producers.len() {
                if let (Some(round), Some((token, _))) =
                    (self.producers[p].waiting, self.producers[p].conn)
                {
                    let verdict = self.fleet.epoch(token, round);
                    if !self.barrier(round, verdict) {
                        self.producers[p].waiting = None;
                    }
                }
            }
        }

        /// Producer `p` dials a new connection and RESUMEs `session`, now
        /// and then claiming one seq too many. A RESUME that has to wait for
        /// the old connection's batch is given up, its connection closed.
        fn resume(&mut self, p: usize, session: u64, arg: u64) {
            let ahead = u64::from(arg == 3);
            let throwaway = self.open();
            let s = &self.sessions[&session];
            let expected = match (s.reaped, ahead, s.handing) {
                (true, _, _) => Err(Refused::Unknown),
                (false, 1, _) => Err(Refused::Ahead(s.acked)),
                (false, _, true) => Ok(None),
                (false, _, false) => Ok(Some(s.acked)),
            };
            let got = self.fleet.resume(throwaway, session, s.acked + ahead);
            assert_eq!(got, expected);
            if let Ok(Some(_)) = got {
                self.sessions.remove(&throwaway);
                let s = self.sessions.get_mut(&session).unwrap();
                s.touched = true;
                s.suspect = None;
                self.producers[p].conn = Some((session, throwaway));
            } else {
                self.fleet.disconnect(throwaway, throwaway, self.now);
            }
        }

        /// One random event: `op` picks among the events producer `p` can
        /// cause in its state (connected, waiting or gone), `arg` varies it.
        fn step(&mut self, op: u8, p: usize, arg: u64) {
            let p = p % self.producers.len();
            let Producer {
                conn,
                session,
                waiting,
            } = self.producers[p];
            // A connection handing a batch to a shard does nothing else.
            let handing = conn.is_some_and(|(token, _)| self.sessions[&token].handing);
            let event = match (conn.map(|c| c.0), waiting, op) {
                (_, _, 9) => Event::Time,
                (Some(token), _, _) if handing && arg == 1 => Event::Takeover(token),
                (Some(token), _, _) if handing => Event::Handed(token),
                (None, _, 0..=3) => Event::Connect,
                (None, _, _) => match session {
                    Some(session) => Event::Resume(session),
                    None => Event::Connect,
                },
                (Some(token), None, 0..=2) => Event::Batch(token, Seq::Next),
                (Some(token), None, 3) => Event::Batch(token, Seq::Replay),
                (Some(token), None, 4) => Event::Batch(token, Seq::Wrong),
                (Some(token), None, 5 | 6) => Event::Epoch(token),
                (Some(token), None, 7) => Event::Drain(token),
                (Some(_), None, _) if arg == 0 => Event::LateResume,
                (Some(token), _, _) if arg == 1 && op >= 6 => Event::Takeover(token),
                (Some(_), None, _) => Event::Drop,
                (Some(_), Some(_), 4 | 5) => Event::Park,
                (Some(_), Some(_), 6) => Event::Drop,
                (Some(_), Some(_), 7 | 8) => Event::Time,
                (Some(_), Some(_), _) => Event::Idle,
            };
            match event {
                Event::Connect => {
                    let token = self.open();
                    self.producers[p] = Producer {
                        conn: Some((token, token)),
                        session: Some(token),
                        waiting: None,
                    };
                }
                Event::Resume(session) => self.resume(p, session, arg),
                // The old connection, even one waiting at the barrier, is
                // given up and stays open until its next step closes it; one
                // still handing its batch to a shard goes on with that.
                Event::Takeover(session) => {
                    let old = conn.unwrap();
                    self.resume(p, session, arg);
                    if self.sessions[&session].handing {
                        assert!(self.fleet.holds(old.0, old.1));
                    } else if self.producers[p].conn == Some(old) {
                        self.close(p);
                    } else {
                        assert!(!self.fleet.holds(old.0, old.1));
                        self.stale.push(old);
                    }
                    self.producers[p].waiting = None;
                    self.wake();
                }
                Event::Handed(token) => {
                    self.fleet.handed(token);
                    self.sessions.get_mut(&token).unwrap().handing = false;
                }
                // RESUME on a connection that already has its session.
                Event::LateResume => {
                    let (token, conn) = conn.unwrap();
                    assert_eq!(self.fleet.resume(conn, token, 0), Err(Refused::Late));
                    self.close(p);
                }
                Event::Batch(token, kind) => {
                    let acked = self.sessions[&token].acked;
                    let seq = match kind {
                        Seq::Next => acked + 1,
                        Seq::Replay if acked > 0 => 1 + arg % acked,
                        Seq::Wrong if arg % 2 == 1 => acked + 2 + arg,
                        _ => 0,
                    };
                    let got = self.fleet.batch(token, seq, arg + 1);
                    if matches!(got, Batch::Ingest { .. }) {
                        assert!(
                            self.ingested.insert((token, seq)),
                            "seq {seq} of session {token:#x} ingested twice"
                        );
                    }
                    let s = self.sessions.get_mut(&token).unwrap();
                    if seq == acked + 1 {
                        s.acked = seq;
                        s.ingested += arg + 1;
                        s.touched = true;
                        s.handing = true;
                        let ingested = s.ingested;
                        assert_eq!(got, Batch::Ingest { ingested });
                    } else if seq != 0 && seq <= acked {
                        assert_eq!(got, Batch::Dedup);
                    } else {
                        assert_eq!(got, Batch::Gap { acked });
                        self.close(p);
                    }
                }
                // EPOCH for the fleet's round, now and then for the one
                // before (a re-announce) or a wrong one.
                Event::Epoch(token) => {
                    let round = match arg {
                        0..=2 => self.round,
                        _ if self.round > 0 => self.round - 1,
                        _ => self.round + 2,
                    };
                    let got = self.fleet.epoch(token, round);
                    if round == self.round {
                        self.sessions.get_mut(&token).unwrap().touched = true;
                        self.arrived.insert(token);
                        if self.barrier(round, got) {
                            self.producers[p].waiting = Some(round);
                        }
                        // An arrival signals every waiter.
                        self.wake();
                    } else if round + 1 == self.round {
                        assert_eq!(got, Epoch::Ack(self.round));
                    } else {
                        assert_eq!(got, Epoch::Mismatch(self.round));
                        self.close(p);
                    }
                }
                // DRAIN, answered with the session's total; then it closes.
                Event::Drain(token) => {
                    let s = self.sessions.get_mut(&token).unwrap();
                    s.drained = true;
                    let ingested = s.ingested;
                    assert_eq!(self.fleet.drain(token), ingested);
                    self.close(p);
                    self.wake();
                }
                // The connection drops, even while its handler waits.
                Event::Drop => {
                    self.close(p);
                    self.wake();
                }
                Event::Park => self.reap(),
                // Time passes; the given-up connections close, and the
                // fleet rendezvous reaps.
                Event::Time => {
                    self.now += [GRACE / 2, GRACE, REAP / 2, REAP][arg as usize];
                    for (token, conn) in std::mem::take(&mut self.stale) {
                        self.fleet.disconnect(token, conn, self.now);
                    }
                    self.reap();
                    self.wake();
                }
                Event::Idle => {}
            }
            let drained = self.sessions.values().filter(|s| s.drained).count();
            assert_eq!(self.fleet.drained(), drained);
            assert_eq!(self.fleet.reaped(), self.reaped);
            for producer in &self.producers {
                if let Some((token, conn)) = producer.conn {
                    assert!(self.fleet.holds(token, conn));
                }
            }
            let reap = self.sessions.values().filter_map(|s| s.suspect).min();
            assert_eq!(self.fleet.deadline(), reap.map(|t| t + REAP));
        }

        /// Every connection hands its batch over and closes, and the reap
        /// period runs out: each session that did any work is now drained
        /// or reaped, once.
        fn finish(mut self) {
            for p in 0..self.producers.len() {
                if let Some((token, _)) = self.producers[p].conn {
                    self.fleet.handed(token);
                    self.close(p);
                }
            }
            for (token, conn) in std::mem::take(&mut self.stale) {
                self.fleet.disconnect(token, conn, self.now);
            }
            self.now += REAP;
            let due = self.reap_due();
            assert_eq!(self.fleet.tick(self.now).len(), due);
            let finished = self
                .sessions
                .values()
                .filter(|s| s.drained || s.touched)
                .count();
            assert_eq!(self.fleet.drained() + self.fleet.reaped(), finished);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Random sessions of 1–3 producers (connects, batches with
        /// duplicates, gaps and seq 0, handoffs to a shard, drops, resumes
        /// and takeovers, EPOCHs, drains and the passing of time) against
        /// the reference model: every (session, seq) is ingested exactly
        /// once, every barrier releases exactly when the effective fleet has
        /// arrived and never ends a wait otherwise, a RESUME waits while the
        /// old connection hands a batch over, a given-up connection never
        /// touches its session again, and drained plus reaped sessions add
        /// up to the sessions that finished.
        #[test]
        fn fleet_matches_its_reference_model(
            producers in 1usize..4,
            declared in 1usize..4,
            ops in prop::collection::vec((0u8..10, 0usize..3, 0u64..4), 0..80),
        ) {
            let mut model = Model::new(producers, declared);
            for (op, p, arg) in ops {
                model.step(op, p, arg);
            }
            model.finish();
        }
    }
}
