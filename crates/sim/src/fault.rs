//! Deterministic fault injection for the networked producer path.
//!
//! A [`FaultPlan`] is a seeded schedule of transport faults — dropped
//! writes, connection resets, mid-frame truncations, duplicated frames,
//! short delays — that [`crate::NetClient`] consults once per frame send:
//! every BATCH_SEQ frame and every control request (EPOCH,
//! SNAPSHOT_REQUEST, DRAIN) takes one step of the schedule. A control
//! request takes only the classes the server cannot act on ([`FaultKind::Drop`],
//! [`FaultKind::Truncate`], [`FaultKind::Delay`]); drawn a
//! [`FaultKind::Reset`] or [`FaultKind::Duplicate`], it is sent unfaulted,
//! since a DRAIN or EPOCH that reached the server twice would be acted on
//! twice, while a batch replay is deduplicated by sequence number. The
//! schedule is a pure function of the plan (SplitMix64 over the seed),
//! so a faulted run is exactly reproducible: the same plan against the same
//! producer yields the same faults at the same send indices, which is what
//! lets `tests/reconnect_equivalence.rs` demand *bit-identical* estimates
//! from a faulted fleet and a clean one.
//!
//! Faults fire only on a frame's **first** transmission — replays and
//! re-sent requests after a reconnect are fault-free — so every plan
//! terminates: a producer with a bounded retry budget either lands all its
//! frames or exceeds the budget and degrades the fleet, never livelocks.

use std::fmt;
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, TcpStream};
use std::str::FromStr;
use std::time::Duration;

use ldp_server::session::Sending;
use ldp_server::wire::WireError;

/// One class of injected transport fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The frame is discarded before any byte reaches the wire, then the
    /// connection is shut down — the server sees a clean close and the
    /// client must replay the frame after reconnecting.
    Drop,
    /// The frame is written after a short deterministic delay — exercises
    /// timeout margins without failing anything.
    Delay,
    /// The frame is written **completely**, then the connection is shut
    /// down — the server ingested it, so the client's replay must be
    /// deduplicated (the exactly-once path).
    Reset,
    /// Half the frame is written, then the connection is shut down — the
    /// server sees a mid-frame truncation and ABORTs the connection.
    Truncate,
    /// The frame is written twice back to back — the server must discard
    /// the second copy by its sequence number.
    Duplicate,
}

impl FaultKind {
    /// Every fault class, in documentation order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::Drop,
        FaultKind::Delay,
        FaultKind::Reset,
        FaultKind::Truncate,
        FaultKind::Duplicate,
    ];

    /// Stable identifier used by `--fault-plan` and [`FaultPlan::parse`].
    pub fn id(self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Delay => "delay",
            FaultKind::Reset => "reset",
            FaultKind::Truncate => "truncate",
            FaultKind::Duplicate => "duplicate",
        }
    }

    /// Looks a fault class up by its identifier.
    pub fn from_id(id: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.id() == id)
    }
}

/// A deterministic, seeded schedule of transport faults.
///
/// The textual form (CLI `--fault-plan`, [`FaultPlan::parse`]) is
/// `seed=7,every=4,max=10,kinds=drop+reset+truncate` — `kinds` defaults to
/// every class, `max` to unbounded. Every `every`-th frame send (batch or
/// control request) draws one of `kinds` from the seeded stream, up to
/// `max` faults injected. A draw a control request cannot take is not
/// injected and does not count against `max`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed of the fault schedule's SplitMix64 stream.
    pub seed: u64,
    /// Fire on every `every`-th frame send (≥ 1).
    pub every: u64,
    /// Total faults to inject before the plan goes quiet (`u64::MAX` for
    /// unbounded).
    pub max: u64,
    /// The classes the schedule draws from, in [`FaultKind::ALL`] order.
    pub kinds: Vec<FaultKind>,
}

impl FaultPlan {
    /// A plan injecting every class, every `every`-th send, unbounded.
    pub fn new(seed: u64, every: u64) -> FaultPlan {
        FaultPlan {
            seed,
            every: every.max(1),
            max: u64::MAX,
            kinds: FaultKind::ALL.to_vec(),
        }
    }

    /// Restricts the schedule to the given classes (empty is rejected by
    /// [`FaultPlan::parse`]; programmatic callers keep what they pass).
    pub fn kinds(mut self, kinds: &[FaultKind]) -> FaultPlan {
        self.kinds = kinds.to_vec();
        self
    }

    /// Parses the `seed=..,every=..[,max=..][,kinds=a+b+c]` textual form.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut seed = None;
        let mut every = None;
        let mut max = u64::MAX;
        let mut kinds = FaultKind::ALL.to_vec();
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault-plan entry '{part}' is not key=value"))?;
            match key {
                "seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| format!("fault-plan seed '{value}' is not a u64"))?,
                    );
                }
                "every" => {
                    let v = value
                        .parse::<u64>()
                        .map_err(|_| format!("fault-plan every '{value}' is not a u64"))?;
                    if v == 0 {
                        return Err("fault-plan every must be ≥ 1".into());
                    }
                    every = Some(v);
                }
                "max" => {
                    max = value
                        .parse::<u64>()
                        .map_err(|_| format!("fault-plan max '{value}' is not a u64"))?;
                }
                "kinds" => {
                    kinds = value
                        .split('+')
                        .map(|id| {
                            FaultKind::from_id(id)
                                .ok_or_else(|| format!("unknown fault kind '{id}'"))
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    if kinds.is_empty() {
                        return Err("fault-plan kinds must name at least one class".into());
                    }
                }
                other => return Err(format!("unknown fault-plan key '{other}'")),
            }
        }
        Ok(FaultPlan {
            seed: seed.ok_or("fault-plan requires seed=<u64>")?,
            every: every.ok_or("fault-plan requires every=<n>")?,
            max,
            kinds,
        })
    }

    /// Starts the plan's deterministic schedule.
    pub fn injector(&self) -> FaultInjector {
        FaultInjector {
            plan: self.clone(),
            state: self.seed ^ 0x6A09_E667_F3BC_C908,
            ops: 0,
            fired: 0,
        }
    }
}

impl FromStr for FaultPlan {
    type Err = String;

    fn from_str(s: &str) -> Result<FaultPlan, String> {
        FaultPlan::parse(s)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={},every={}", self.seed, self.every)?;
        if self.max != u64::MAX {
            write!(f, ",max={}", self.max)?;
        }
        if self.kinds != FaultKind::ALL {
            let ids: Vec<&str> = self.kinds.iter().map(|k| k.id()).collect();
            write!(f, ",kinds={}", ids.join("+"))?;
        }
        Ok(())
    }
}

/// The running state of a [`FaultPlan`]: consulted once per first
/// transmission of a frame (a batch or a control request), answers "inject
/// which fault, if any, on this op".
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    state: u64,
    ops: u64,
    fired: u64,
}

impl FaultInjector {
    /// Advances the schedule by one frame send and returns the fault to
    /// inject on it, if any.
    pub fn next_fault(&mut self) -> Option<FaultKind> {
        self.ops += 1;
        if self.fired >= self.plan.max || !self.ops.is_multiple_of(self.plan.every) {
            return None;
        }
        self.fired += 1;
        let draw = splitmix64(&mut self.state);
        Some(self.plan.kinds[(draw % self.plan.kinds.len() as u64) as usize])
    }

    /// [`FaultInjector::next_fault`] for a send that can take only the
    /// `allowed` classes. A drawn class outside them is not injected and
    /// does not count against the plan's `max`, so `max` stays the number
    /// of faults injected; the schedule still advances by one step.
    pub fn next_fault_among(&mut self, allowed: &[FaultKind]) -> Option<FaultKind> {
        let kind = self.next_fault()?;
        if allowed.contains(&kind) {
            Some(kind)
        } else {
            self.fired -= 1;
            None
        }
    }

    /// The fault for one send that goes out as `sending`: a BATCH_SEQ's
    /// first transmission takes any class, a control request's only
    /// [`FaultKind::Drop`], [`FaultKind::Truncate`] or [`FaultKind::Delay`],
    /// and a handshake frame, replay or re-sent request none (it does not
    /// advance the schedule).
    pub(crate) fn next_fault_for(&mut self, sending: Sending) -> Option<FaultKind> {
        match sending {
            Sending::Batch => self.next_fault(),
            Sending::Request => {
                self.next_fault_among(&[FaultKind::Drop, FaultKind::Truncate, FaultKind::Delay])
            }
            Sending::Again => None,
        }
    }

    /// Faults injected so far.
    pub fn fired(&self) -> u64 {
        self.fired
    }
}

/// Writes one encoded frame, through `fault` when one is injected. A delay
/// sleeps first; a duplicate writes the frame twice, and the server drops
/// the copy by its sequence number. A drop, truncation or reset writes
/// none, half or all of the frame, then shuts the connection down and
/// reports a connection reset, which the session redials like any real one.
pub(crate) fn transmit(
    stream: &mut TcpStream,
    bytes: &[u8],
    fault: Option<FaultKind>,
) -> Result<(), WireError> {
    let cut = match fault {
        None => return Ok(stream.write_all(bytes)?),
        Some(FaultKind::Delay) => {
            std::thread::sleep(Duration::from_millis(3));
            return Ok(stream.write_all(bytes)?);
        }
        Some(FaultKind::Duplicate) => {
            stream.write_all(bytes)?;
            return Ok(stream.write_all(bytes)?);
        }
        Some(FaultKind::Drop) => 0,
        Some(FaultKind::Truncate) => bytes.len() / 2,
        Some(FaultKind::Reset) => bytes.len(),
    };
    let _ = stream.write_all(&bytes[..cut]);
    let _ = stream.shutdown(Shutdown::Both);
    let kind = fault.map_or("", FaultKind::id);
    let e = std::io::Error::new(ErrorKind::ConnectionReset, format!("injected {kind} fault"));
    Err(WireError::Io(e))
}

/// SplitMix64 (Steele et al.) — the workspace's vendored `rand` would do,
/// but three lines of arithmetic keep the fault stream's definition
/// self-contained and trivially portable to a test harness in any language.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    *state ^= z >> 31; // fold the output back so kinds draws decorrelate
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_through_display() {
        for spec in [
            "seed=7,every=4",
            "seed=7,every=4,max=10",
            "seed=0,every=1,max=3,kinds=drop+reset",
            "seed=12345,every=100,kinds=truncate",
        ] {
            let plan = FaultPlan::parse(spec).unwrap();
            assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
        }
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for spec in [
            "",
            "every=4",
            "seed=7",
            "seed=7,every=0",
            "seed=7,every=4,kinds=",
            "seed=7,every=4,kinds=explode",
            "seed=x,every=4",
            "seed=7,every=4,bogus=1",
            "seed=7;every=4",
        ] {
            assert!(FaultPlan::parse(spec).is_err(), "accepted '{spec}'");
        }
    }

    #[test]
    fn schedule_is_deterministic_and_bounded() {
        let plan = FaultPlan::parse("seed=9,every=3,max=4").unwrap();
        let run = |mut inj: FaultInjector| -> Vec<Option<FaultKind>> {
            (0..20).map(|_| inj.next_fault()).collect()
        };
        let a = run(plan.injector());
        let b = run(plan.injector());
        assert_eq!(a, b, "same plan, same schedule");
        let fired = a.iter().flatten().count();
        assert_eq!(fired, 4, "max caps the schedule");
        for (i, fault) in a.iter().enumerate() {
            if fault.is_some() {
                assert_eq!((i + 1) % 3, 0, "faults only on every-th op");
            }
        }
    }

    #[test]
    fn restricted_kinds_are_honored() {
        let plan = FaultPlan::parse("seed=4,every=1,kinds=reset").unwrap();
        let mut inj = plan.injector();
        for _ in 0..50 {
            assert_eq!(inj.next_fault(), Some(FaultKind::Reset));
        }
        assert_eq!(inj.fired(), 50);
    }

    #[test]
    fn skipped_draws_do_not_count_against_max() {
        let plan = FaultPlan::parse("seed=5,every=1,max=3,kinds=reset+duplicate").unwrap();
        let mut inj = plan.injector();
        let control = [FaultKind::Drop, FaultKind::Truncate, FaultKind::Delay];
        for _ in 0..10 {
            assert_eq!(inj.next_fault_among(&control), None);
        }
        assert_eq!(inj.fired(), 0, "no request took a fault");
        let batch: Vec<_> = (0..10).filter_map(|_| inj.next_fault()).collect();
        assert_eq!(batch.len(), 3, "max is the number of faults injected");
    }
}
