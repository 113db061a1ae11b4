//! # ldp-experiments
//!
//! Reproduction harness behind one registry-driven entry point: every figure,
//! table and ablation of the paper's evaluation is one [`Experiment`] row of
//! [`registry::EXPERIMENTS`] (id, paper reference, datasets, CSV outputs,
//! cost, run function), and the `risks` binary drives the whole table:
//!
//! ```sh
//! risks list                    # enumerate the registry
//! risks describe fig04         # paper ref, datasets, outputs, cost
//! risks run fig01 fig04        # parallel, longest-first, manifest-cached
//! risks run all                # the whole reproduction
//! ```
//!
//! Each run prints the series the paper plots, writes CSVs under `results/`
//! and records a `<id>.manifest.json` (config hash, seed, scale, wall time,
//! outputs, git rev) so identical re-runs are cache hits (see
//! [`manifest`] / [`runner`]).
//!
//! Every parameter grid runs through one helper, `sweep::sweep`: the one
//! place a (grid point, repetition) pair gets its seed and its worker
//! thread. Every corpus is a [`Corpus`], the one place its generator, seed
//! salt and size at a given scale are defined (its ids are the `--dataset`
//! ids of `risks serve` and `risks produce`).
//!
//! Scale knobs (environment variables; `risks run` flags override them, and
//! a value that does not parse is an error naming its variable — see
//! [`ExpConfig::resolve`]):
//!
//! * `RISKS_RUNS` — repetitions averaged per point (default 3; paper: 20).
//! * `RISKS_SCALE` — dataset-size fraction of the paper's n (default 0.15).
//! * `RISKS_THREADS` — worker threads (default: all cores).
//! * `RISKS_SEED` — master seed (default 42).
//! * `RISKS_FULL=1` — paper scale (`runs = 20`, `scale = 1.0`).
//! * `RISKS_OUT` — output directory for CSVs (default `results`).

#![deny(unsafe_code)]

pub mod ablation;
pub mod aif;
pub mod cli;
pub mod config;
pub mod longitudinal;
pub mod manifest;
pub mod mse;
pub mod numeric;
pub mod registry;
pub mod runner;
pub mod serve;
pub mod smp_reident;
mod sweep;
pub mod table;

pub mod fig01;
pub mod fig04;
pub mod fig05;
pub mod fig16;

pub use config::{Corpus, ExpConfig, Overrides};
pub use registry::{Experiment, EXPERIMENTS};
pub use table::Table;

/// The paper's ε grid for the attack experiments (§4.2).
pub fn eps_grid() -> Vec<f64> {
    (1..=10).map(f64::from).collect()
}

/// The paper's ε grid for the utility experiments (§5.2.2): ln(2)…ln(7).
pub fn eps_ln_grid() -> Vec<f64> {
    (2..=7).map(|x| f64::from(x).ln()).collect()
}

/// The paper's Bayes-error grid for the α-PIE experiments (Appendix C).
pub fn beta_grid() -> Vec<f64> {
    (0..=9).map(|i| 0.95 - 0.05 * f64::from(i)).collect()
}

/// The survey counts after which RID-ACC is measured (paper: 2–5).
pub const SURVEY_COUNTS: [usize; 4] = [2, 3, 4, 5];

/// Top-k values of the re-identification decision (paper: 1 and 10).
pub const TOP_KS: [usize; 2] = [1, 10];
