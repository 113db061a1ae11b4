//! # ldp-sim
//!
//! Survey-campaign simulation engine for the paper's §3.1 system model: a
//! server repeatedly surveys the same population, each survey covering a
//! random subset of at least `d/2` attributes, while an adversary observes
//! every sanitized message and builds per-user profiles.
//!
//! * [`survey::SurveyPlan`] — the sequence of per-survey attribute subsets.
//! * [`campaign::SmpCampaign`] — the SMP data-collection + profiling pipeline
//!   under ε-LDP or α-PIE privacy, uniform or non-uniform privacy metrics
//!   (with memoization).
//! * [`rsfd_campaign`] — the Fig. 4 pipeline: RS+FD collection where the
//!   adversary must first *infer* the sampled attribute with the §3.3
//!   classifier before profiling.
//! * [`pipeline::CollectionPipeline`] — the streaming frequency-estimation
//!   pipeline: [`Population`] → solution → sharded aggregators → one merged
//!   `ldp_server::ServerSnapshot`, the value a server drain returns,
//!   memory-flat in the population size. Every pass collects
//!   `rounds ≥ 1` rounds under a [`BudgetPolicy`] (a single round is
//!   `rounds = 1`), with one call per sink: in-process aggregates
//!   ([`CollectionPipeline::run_rounds`], or its one-round shorthand
//!   [`CollectionPipeline::run`]), aggregates plus the observed wire
//!   ([`CollectionPipeline::observe_rounds`]), a streamed `ldp_server`
//!   drain ([`CollectionPipeline::serve_rounds`]) and one remote producer
//!   ([`CollectionPipeline::serve_remote_rounds`]).
//! * [`attack_pipeline::AttackPipeline`] — the adversary mirror: dataset →
//!   collection run → adversary fit (profiles / classifier / index) →
//!   sharded, per-target-seeded ASR evaluation, bit-identical for every
//!   thread count; [`AttackPipeline::rid_acc`] is the one RID-ACC evaluator
//!   over externally built profiles (e.g. campaign snapshots).
//! * [`traffic::TrafficGenerator`] — seeded arrival schedules (steady,
//!   burst, diurnal-ish ramp, churn) that drive the streamed
//!   [`CollectionPipeline::serve_rounds`] mode through the `ldp_server`
//!   ingestion service, bit-identical to the batch pass at equal seed.
//! * [`net_client::NetClient`] — the producer side of the ingestion wire:
//!   a blocking TCP client streaming checksummed, sequence-numbered
//!   `CompactBatch` frames to a remote `ldp_server::WireServer`, with a
//!   bounded unacked-replay ring, reconnect-and-resume, and configurable
//!   read deadlines; driven from the traffic schedule by
//!   [`CollectionPipeline::serve_remote_rounds`] for real multi-process
//!   ingestion.
//! * [`fault::FaultPlan`] — deterministic, seeded transport-fault schedules
//!   (drop / delay / reset / truncate / duplicate) the client injects on
//!   its own sends, so crash-recovery paths are exactly reproducible.
//! * [`par`] — deterministic scoped-thread parallel helpers used by the heavy
//!   sweeps.

#![deny(missing_docs, unsafe_code)]

pub mod attack_pipeline;
pub mod campaign;
pub mod fault;
pub mod net_client;
pub mod par;
pub mod pipeline;
pub mod rsfd_campaign;
pub mod survey;
pub mod traffic;

pub use attack_pipeline::{AttackPipeline, AttackRun};
pub use campaign::{PrivacyModel, SamplingSetting, SmpCampaign};
pub use fault::{FaultKind, FaultPlan};
pub use net_client::{ClientConfig, NetClient};
pub use pipeline::{
    user_rng, user_rng_round, BudgetPolicy, CollectionPipeline, LongitudinalRun, Population,
};
pub use rsfd_campaign::{run_rsfd_campaign, RsFdCampaignConfig};
pub use survey::SurveyPlan;
pub use traffic::{TrafficGenerator, TrafficShape};
