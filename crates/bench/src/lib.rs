//! # ldp-bench
//!
//! Shared fixtures for the Criterion micro-benchmarks. The benchmarks cover:
//!
//! * `protocols` — client randomization + server aggregation throughput for
//!   all five frequency oracles;
//! * `solutions` — full-tuple sanitization and estimation for SMP, SPL,
//!   RS+FD and RS+RFD;
//! * `attacks` — the plausible-deniability predictor, profile matching and
//!   the tie-aware top-k decision;
//! * `gbdt` — classifier training/prediction on attack-shaped feature
//!   matrices;
//! * `figures` — one scaled-down kernel per paper figure (the inner loop of
//!   each experiment binary).

#![deny(unsafe_code)]

use ldp_datasets::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small deterministic Adult-like population for benchmark inputs.
pub fn bench_adult(n: usize) -> Dataset {
    ldp_datasets::corpora::adult_like(n, 0xBEAC)
}

/// A small deterministic ACS-like population for benchmark inputs.
pub fn bench_acs(n: usize) -> Dataset {
    ldp_datasets::corpora::acs_employment_like(n, 0xBEAC)
}

/// Deterministic RNG for benchmark bodies.
pub fn bench_rng() -> StdRng {
    StdRng::seed_from_u64(0x000B_EACC)
}
