//! Seeded soak test: 10M synthetic users streamed through `ldp_server`
//! under churn traffic, asserting the server's flat-memory contract and a
//! final statistical conformance check.
//!
//! Ignored by default — run it nightly-style with:
//!
//! ```sh
//! cargo test --release --test soak -- --ignored --nocapture
//! ```
//!
//! Memory is held flat on *both* sides of the server: tuples are
//! synthesized from the uid on the fly (no dataset materialization), waves
//! are produced lazily, each producer holds one batch at a time, and the
//! server folds every report into `O(shards · Σ_j k_j)` support counts on
//! arrival. The test
//! asserts the structural side of that contract (state size independent of
//! n) and, best-effort on Linux, that process RSS does not grow with the
//! population.

use ldp_core::solutions::{RsFdProtocol, SolutionKind};
use ldp_protocols::hash::mix3;
use ldp_server::{Envelope, LdpServer, ServerConfig};
use ldp_sim::traffic::{TrafficGenerator, TrafficShape};
use ldp_sim::user_rng;
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 10_000_000;
const SEED: u64 = 0x50AC;

/// Skewed synthetic marginal over `k` values: P(v) ∝ 1/(v+1).
fn skewed_pmf(k: usize) -> Vec<f64> {
    let total: f64 = (0..k).map(|v| 1.0 / (v + 1) as f64).sum();
    (0..k).map(|v| 1.0 / ((v + 1) as f64 * total)).collect()
}

/// The user's true tuple, synthesized deterministically from the uid by
/// inverse-CDF sampling of per-attribute skewed marginals.
fn tuple_of(uid: u64, cdfs: &[Vec<f64>]) -> Vec<u32> {
    cdfs.iter()
        .enumerate()
        .map(|(j, cdf)| {
            let mut rng = StdRng::seed_from_u64(mix3(uid, j as u64, 0x7D9));
            let u: f64 = rand::Rng::random(&mut rng);
            cdf.partition_point(|&c| c < u).min(cdf.len() - 1) as u32
        })
        .collect()
}

/// Best-effort resident-set size in kB (Linux `/proc`); `None` elsewhere.
fn rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
#[ignore = "10M-user soak; run nightly with --ignored"]
fn ten_million_users_through_the_server_under_churn() {
    let ks = [16usize, 8, 5, 4];
    let cdfs: Vec<Vec<f64>> = ks
        .iter()
        .map(|&k| {
            let mut acc = 0.0;
            skewed_pmf(k)
                .into_iter()
                .map(|p| {
                    acc += p;
                    acc
                })
                .collect()
        })
        .collect();
    let kind = SolutionKind::RsFd(RsFdProtocol::Grr);
    let solution = kind.build(&ks, 2.0).unwrap();
    let server = LdpServer::spawn(solution.clone(), ServerConfig::default().shards(4));

    let traffic = TrafficGenerator::new(TrafficShape::Churn, N)
        .seed(SEED)
        .wave(8192)
        .churn(0.35);
    let rss_early = rss_kb();
    let mut ingested = 0usize;
    let mut rss_mid = None;
    for wave in traffic.waves() {
        ingested += wave.len();
        server.ingest_batch(wave.into_iter().map(|uid| {
            // The pipeline's per-user stream (SmallRng over (seed, uid)).
            let mut rng = user_rng(SEED, uid);
            Envelope {
                uid,
                report: solution.report(&tuple_of(uid, &cdfs), &mut rng),
            }
        }));
        if rss_mid.is_none() && ingested >= N / 10 {
            rss_mid = rss_kb();
        }
    }
    let rss_late = rss_kb();
    let snapshot = server.drain();

    // Every churned user eventually reported, exactly once.
    assert_eq!(ingested, N);
    assert_eq!(snapshot.n, N as u64);

    // Flat-memory contract, structurally: the server state is exactly one
    // support-count table of Σ k_j cells per attribute — independent of n.
    assert_eq!(snapshot.aggregator.ks(), &ks);
    let cells: usize = snapshot.aggregator.counts().iter().map(Vec::len).sum();
    assert_eq!(cells, ks.iter().sum::<usize>());

    // Flat-memory contract, empirically (Linux best-effort): RSS after the
    // full 10M-user stream must not exceed the 1M-user mark by more than a
    // small constant — per-user allocation growth would add hundreds of MB.
    if let (Some(mid), Some(late)) = (rss_mid, rss_late) {
        assert!(
            late <= mid + 64 * 1024,
            "RSS grew from {mid} kB (at n/10) to {late} kB (at n): per-user growth?"
        );
    }
    eprintln!(
        "soak: rss early/mid/late = {rss_early:?}/{rss_mid:?}/{rss_late:?} kB; \
         drained n = {}",
        snapshot.n
    );

    // Final conformance check: at n = 10M the RS+FD[GRR] estimator must sit
    // very close to the synthesized population's true marginals. The band
    // (0.01 absolute) is ≳ 20 analytic standard errors at this n — loose
    // enough for the fake-data variance inflation, far tighter than any
    // estimator-bias regression.
    for (j, est) in snapshot.estimates.iter().enumerate() {
        let truth = skewed_pmf(ks[j]);
        for (v, (&e, &f)) in est.iter().zip(&truth).enumerate() {
            assert!(
                (e - f).abs() < 0.01,
                "attr {j} value {v}: estimate {e:.5} vs true {f:.5}"
            );
        }
    }
}
