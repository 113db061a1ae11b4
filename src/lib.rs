//! # risks-ldp
//!
//! Umbrella crate of the Rust reproduction of *"On the Risks of Collecting
//! Multidimensional Data Under Local Differential Privacy"* (Arcolezi, Gambs,
//! Couchot, Palamidessi — PVLDB 16(5), 2023).
//!
//! This crate re-exports the workspace members under stable module names and
//! hosts the runnable examples (`cargo run --release --example quickstart`)
//! and the cross-crate integration tests.
//!
//! * [`protocols`] — LDP frequency oracles (GRR, OLH, ω-SS, SUE, OUE),
//!   estimators and the plausible-deniability attack layer.
//! * [`datasets`] — synthetic census-like corpora and prior distributions.
//! * [`gbdt`] — the gradient-boosted-trees / logistic-regression classifier
//!   substrate standing in for XGBoost.
//! * [`core`] — multidimensional solutions (SPL/SMP/RS+FD/RS+RFD), the
//!   unified adversary layer (`core::attacks`), the re-identification and
//!   attribute-inference attacks, the PIE model.
//! * [`server`] — the traffic-shaped streaming ingestion service: bounded
//!   channels, sharded aggregators, estimate-while-ingesting snapshots and
//!   graceful drain ([`server::LdpServer`]).
//! * [`sim`] — the multi-survey campaign engine, the streaming
//!   [`CollectionPipeline`](sim::CollectionPipeline), the sharded
//!   [`AttackPipeline`](sim::AttackPipeline), the seeded
//!   [`TrafficGenerator`](sim::TrafficGenerator) and parallel helpers.
//!
//! ## The streaming collection API
//!
//! The server side is streaming-first: solutions are chosen at runtime via
//! [`core::solutions::SolutionKind`], sanitize through the object-safe
//! [`core::solutions::DynSolution`], and aggregate incrementally through
//! [`core::solutions::MultidimAggregator`] — `O(Σ_j k_j)` state, mergeable
//! across shards, bit-identical to batch estimation:
//!
//! ```
//! use risks_ldp::core::solutions::{RsFdProtocol, SolutionKind};
//! use risks_ldp::datasets::corpora::adult_like;
//! use risks_ldp::sim::CollectionPipeline;
//!
//! let dataset = adult_like(2_000, 7);
//! let run = CollectionPipeline::from_kind(
//!     SolutionKind::RsFd(RsFdProtocol::Grr),
//!     &dataset.schema().cardinalities(),
//!     1.0,
//! )
//! .unwrap()
//! .seed(42)
//! .threads(4)
//! .run(&dataset);
//! assert_eq!(run.n, 2_000);
//! assert_eq!(run.estimates.len(), dataset.d());
//! ```
//!
//! ## The adversary API
//!
//! The attack side mirrors this surface: threat models are chosen at runtime
//! via [`core::attacks::AttackKind`], fit through the object-safe
//! [`core::attacks::Attack`] trait, and evaluated by the seeded, sharded
//! [`AttackPipeline`](sim::AttackPipeline) — bit-identical RID-ACC/ASR for
//! every thread count:
//!
//! ```
//! use risks_ldp::core::attacks::{AttackKind, ReidentConfig};
//! use risks_ldp::core::solutions::SolutionKind;
//! use risks_ldp::datasets::corpora::adult_like;
//! use risks_ldp::protocols::ProtocolKind;
//! use risks_ldp::sim::{AttackPipeline, CollectionPipeline};
//!
//! let dataset = adult_like(1_000, 7);
//! let collection = CollectionPipeline::from_kind(
//!     SolutionKind::Smp(ProtocolKind::Grr),
//!     &dataset.schema().cardinalities(),
//!     4.0,
//! )
//! .unwrap()
//! .seed(42)
//! .threads(4);
//! let run = AttackPipeline::from_kind(AttackKind::Reident(ReidentConfig::default()))
//!     .unwrap()
//!     .seed(42)
//!     .threads(4)
//!     .run(&collection, &dataset);
//! assert_eq!(run.outcome.reident().unwrap().n_targets, 1_000);
//! ```
//!
//! ## Streaming ingestion
//!
//! The serving layer accepts sustained traffic instead of one-shot batches:
//! a seeded [`TrafficGenerator`](sim::TrafficGenerator) schedules arrivals
//! (steady, burst, ramp, churn) and
//! [`CollectionPipeline::serve_rounds`](sim::CollectionPipeline::serve_rounds)
//! pushes the sanitized reports through the bounded-channel
//! [`LdpServer`](server::LdpServer) — bit-identical to the batch `run` at
//! equal seed. Every collection call takes a round count and a
//! [`BudgetPolicy`](sim::BudgetPolicy); a single round is `rounds = 1`:
//!
//! ```
//! use risks_ldp::core::solutions::{RsFdProtocol, SolutionKind};
//! use risks_ldp::datasets::corpora::adult_like;
//! use risks_ldp::sim::traffic::{TrafficGenerator, TrafficShape};
//! use risks_ldp::sim::{BudgetPolicy, CollectionPipeline};
//!
//! let dataset = adult_like(2_000, 7);
//! let pipeline = CollectionPipeline::from_kind(
//!     SolutionKind::RsFd(RsFdProtocol::Grr),
//!     &dataset.schema().cardinalities(),
//!     1.0,
//! )
//! .unwrap()
//! .seed(42)
//! .threads(4);
//! let traffic = TrafficGenerator::new(TrafficShape::Burst, dataset.n()).seed(42);
//! let streamed = pipeline
//!     .serve_rounds(&dataset, &traffic, 1, BudgetPolicy::SplitEps, 1)
//!     .unwrap()
//!     .cumulative;
//! let batch = pipeline.run(&dataset);
//! assert_eq!(streamed.aggregator.counts(), batch.aggregator.counts());
//! ```

#![deny(unsafe_code)]

pub use ldp_core as core;
pub use ldp_datasets as datasets;
pub use ldp_gbdt as gbdt;
pub use ldp_protocols as protocols;
pub use ldp_server as server;
pub use ldp_sim as sim;
