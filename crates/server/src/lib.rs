//! # ldp-server
//!
//! The streaming ingestion service of the reproduction: a server that
//! accepts per-user sanitized [`SolutionReport`]s from any number of
//! threads — batches travel as compact-encoded buffers
//! ([`ldp_core::solutions::CompactBatch`]) — and lets each calling thread
//! absorb its own batches into one of several lock-striped
//! [`MultidimAggregator`] shards, one lock per batch. It supports merged
//! snapshots while ingestion is still running ("estimate-while-ingesting")
//! as well as a graceful [`LdpServer::drain`].
//!
//! This is the §3.1 system model of the paper at service shape: millions of
//! users continuously push reports, the server never buffers them (each
//! report is folded into `O(Σ_j k_j)` support counts on arrival), and the
//! shard merge is exact integer addition — so the drained snapshot is
//! **bit-identical** to a one-shot batch pass over the same reports, for
//! every shard count and every arrival order.
//!
//! ```
//! use ldp_core::solutions::SolutionKind;
//! use ldp_protocols::ProtocolKind;
//! use ldp_server::{Envelope, LdpServer, ServerConfig};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let solution = SolutionKind::Smp(ProtocolKind::Grr)
//!     .build(&[4, 3], 1.0)
//!     .unwrap();
//! let server = LdpServer::spawn(solution.clone(), ServerConfig::default());
//! let mut rng = StdRng::seed_from_u64(7);
//! server.ingest_batch((0..1_000u64).map(|uid| Envelope {
//!     uid,
//!     report: solution.report(&[1, 2], &mut rng),
//! }));
//! let snapshot = server.drain();
//! assert_eq!(snapshot.n, 1_000);
//! assert_eq!(snapshot.estimates.len(), 2);
//! ```
//!
//! [`SolutionReport`]: ldp_core::solutions::SolutionReport
//! [`MultidimAggregator`]: ldp_core::solutions::MultidimAggregator

#![deny(missing_docs, unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod config;
mod fleet;
pub mod net;
pub mod service;
pub mod session;
pub mod snapshot;
pub mod wire;

pub use config::ServerConfig;
pub use net::WireServer;
pub use service::{Envelope, LdpServer};
pub use session::{ClientSession, ABORT_AUTH, ABORT_HANDSHAKE, ABORT_PROTOCOL, ABORT_TIMEOUT};
pub use snapshot::{EpochSnapshot, ServerSnapshot};
pub use wire::{auth_fingerprint, Frame, WireError, WireSnapshot};
