//! Ingestion throughput of the `ldp_server` streaming service — the
//! machine-readable perf trajectory of the serving layer.
//!
//! Unlike the Criterion micro-benchmarks, this is a custom harness: it
//! measures end-to-end reports/sec (client sanitization → bounded-channel
//! routing → sharded absorb → graceful drain) over a **solution-kind ×
//! thread matrix** — RS+FD[GRR] (value tuples), SMP[OLH] (hashed reports,
//! the O(k)-per-report counting path), SPL[OUE] (bit-vector tuples) and
//! MIXED[GRR+PM] (heterogeneous categorical + numeric fixed-point entries)
//! at n ∈ {1M, 10M} × threads {1, 2, 4, 8} — and **emits `BENCH_ingest.json`**
//! at the workspace root (override with the `BENCH_OUT` env var) so CI can
//! archive the numbers run over run. `"RS+FD[GRR]/tcp"` rows re-measure the
//! tuple kind with the reports crossing a real loopback socket through the
//! `ldp_server::wire` codec, pricing the networked tier against the
//! in-process channels. `"SPL[OUE]/r4"` rows stream the same population for
//! four ε-splitting rounds with an epoch-ring rotation between rounds,
//! pricing the longitudinal serving path (per-round rebuild at ε/R plus the
//! shard-swap barrier) against single-round ingestion.
//!
//! Under `--test` / `--smoke` (what `cargo test` and the CI smoke job pass)
//! only a small population at threads {1, 2} runs, and the JSON is tagged
//! `"smoke": true`.
//!
//! Tuples are synthesized on the fly from the uid and envelopes are handed
//! to `ingest_batch` as a lazy iterator — no dataset and no producer-side
//! report buffer is ever materialized — so the bench exercises exactly the
//! serving path and its memory stays flat in n, mirroring the server's
//! `O(Σ_j k_j)` contract.
//!
//! The `threads` column drives the server topology (worker/shard count);
//! producers are capped at the machine's parallelism, and the emitted JSON
//! records `"cores"` — on a single-core box the matrix demonstrates the
//! *absence of contention collapse* (rows flat within noise), while real
//! monotone speedups need `cores > 1`.

use std::fmt::Write as _;
use std::time::Instant;

use ldp_core::solutions::{MixedKind, RsFdProtocol, SolutionKind, SolutionReport};
use ldp_core::{DynSolution, NumericKind};
use ldp_protocols::hash::mix3;
use ldp_protocols::ProtocolKind;
use ldp_server::{Envelope, LdpServer, ServerConfig, WireServer};
use ldp_sim::{BudgetPolicy, ClientConfig, NetClient};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Salt separating the bench's per-user rng streams from everything else.
const BENCH_SALT: u64 = 0x0146_3E57;

/// Widest domain tuple the bench synthesizes (stack-allocated per user).
const MAX_D: usize = 8;

/// Rounds in the longitudinal (`/r4`) rows — matches the midpoint of the
/// `longitudinal_risk` experiment grid.
const ROUNDS: usize = 4;

/// One measured configuration.
struct Measurement {
    solution: String,
    n: usize,
    threads: usize,
    wall_secs: f64,
    reports_per_sec: f64,
}

/// Deterministic synthetic tuple for `uid` over the bench domain `ks`,
/// written into a caller-provided stack buffer (the producer loop must not
/// allocate per user).
fn tuple_of<'a>(uid: u64, ks: &[usize], buf: &'a mut [u32; MAX_D]) -> &'a [u32] {
    for (j, &k) in ks.iter().enumerate() {
        buf[j] = (mix3(uid, j as u64, 0xD07) % k as u64) as u32;
    }
    &buf[..ks.len()]
}

/// Deterministic synthetic normalized record (`[-1, 1]`) for `uid` over
/// `d_num` continuous attributes, stack-buffered like [`tuple_of`].
fn numeric_of(uid: u64, d_num: usize, buf: &mut [f64; MAX_D]) -> &[f64] {
    for (j, slot) in buf.iter_mut().take(d_num).enumerate() {
        *slot = (mix3(uid, j as u64, 0x117) % 2001) as f64 / 1000.0 - 1.0;
    }
    &buf[..d_num]
}

/// Synthesizes `uid`'s sanitized report for any solution family over `ks`
/// (zero-cardinality entries are numeric dimensions, which come last in the
/// bench schemas as in `MixedDataset`).
fn synth_report(
    solution: &DynSolution,
    ks: &[usize],
    uid: u64,
    rng: &mut SmallRng,
) -> SolutionReport {
    let d_cat = ks.iter().filter(|&&k| k != 0).count();
    let mut cbuf = [0u32; MAX_D];
    if d_cat == ks.len() {
        return solution.report(tuple_of(uid, ks, &mut cbuf), rng);
    }
    let mut nbuf = [0.0f64; MAX_D];
    let cat = tuple_of(uid, &ks[..d_cat], &mut cbuf);
    let num = numeric_of(uid, ks.len() - d_cat, &mut nbuf);
    solution
        .report_mixed(cat, num, rng)
        .expect("bench numeric values are in range")
}

/// Streams `n` users through a `threads`-sharded server, fed by
/// `min(threads, cores)` producer threads, and returns the measured
/// throughput.
fn run_once(solution_kind: SolutionKind, ks: &[usize], n: usize, threads: usize) -> Measurement {
    let solution = solution_kind.build(ks, 1.0).expect("bench solution builds");
    // Short queues keep the in-flight batch memory cache-resident without
    // throttling anything (the absorb side keeps up with the producers).
    // The batch grows with the worker count so each worker wake amortizes
    // enough absorb work to cover its scheduling + cache-rewarm cost — that
    // cost scales with the number of distinct worker contexts sharing the
    // machine's cores, the message volume does not need to.
    let server = LdpServer::spawn(
        solution.clone(),
        ServerConfig::default()
            .shards(threads)
            .queue_depth(8)
            .batch(512 * threads),
    );
    // `threads` drives the server topology under test (worker/shard count);
    // the producer fan-out is additionally capped at the machine's actual
    // parallelism — oversubscribing sanitization threads beyond physical
    // cores only adds scheduler churn, which no deployment would do, and
    // would otherwise bury the server-side scaling signal on small boxes.
    let producers = threads
        .min(std::thread::available_parallelism().map_or(threads, std::num::NonZeroUsize::get));
    let started = Instant::now();
    std::thread::scope(|scope| {
        for p in 0..producers {
            let server = &server;
            let solution = &solution;
            scope.spawn(move || {
                let lo = p * n / producers;
                let hi = (p + 1) * n / producers;
                server.ingest_batch((lo as u64..hi as u64).map(move |uid| {
                    let mut rng = SmallRng::seed_from_u64(mix3(0xBEAC, uid, BENCH_SALT));
                    Envelope {
                        uid,
                        report: synth_report(solution, ks, uid, &mut rng),
                    }
                }));
            });
        }
    });
    let snapshot = server.drain();
    let wall_secs = started.elapsed().as_secs_f64();
    assert_eq!(snapshot.n, n as u64, "every report must be absorbed");
    assert!(
        snapshot.estimates.iter().flatten().all(|f| f.is_finite()),
        "drained estimates must be finite"
    );
    Measurement {
        solution: solution_kind.name(),
        n,
        threads,
        wall_secs,
        reports_per_sec: n as f64 / wall_secs.max(1e-9),
    }
}

/// The loopback-socket twin of [`run_once`]: the same synthesized reports
/// travel as checksummed `CompactBatch` frames through `NetClient` →
/// 127.0.0.1 TCP → `WireServer` → shard channels, so the row's delta
/// against the in-process row is exactly the cost of the wire tier
/// (encode + CRC + syscalls + decode + validate). Reported under
/// `"<solution>/tcp"` so the in-process scaling tripwires never key on it.
fn run_once_tcp(
    solution_kind: SolutionKind,
    ks: &[usize],
    n: usize,
    threads: usize,
) -> Measurement {
    let solution = solution_kind.build(ks, 1.0).expect("bench solution builds");
    // A frame is one channel message, so producers frame at the server's
    // batch (the listener aborts larger frames).
    let batch = 512 * threads;
    let server = WireServer::bind(
        "127.0.0.1:0",
        solution.clone(),
        ServerConfig::default()
            .shards(threads)
            .queue_depth(8)
            .batch(batch),
    )
    .expect("loopback listener binds");
    let addr = server.local_addr();
    let producers = threads
        .min(std::thread::available_parallelism().map_or(threads, std::num::NonZeroUsize::get));
    let started = Instant::now();
    std::thread::scope(|scope| {
        for p in 0..producers {
            let solution = &solution;
            scope.spawn(move || {
                let mut client =
                    NetClient::connect_with(addr, solution, ClientConfig::default().batch(batch))
                        .expect("producer connects");
                let lo = p * n / producers;
                let hi = (p + 1) * n / producers;
                for uid in lo as u64..hi as u64 {
                    let mut rng = SmallRng::seed_from_u64(mix3(0xBEAC, uid, BENCH_SALT));
                    client
                        .push(uid, &synth_report(solution, ks, uid, &mut rng))
                        .expect("push over loopback");
                }
                client.finish().expect("drain handshake");
            });
        }
    });
    server.wait_for_fleet(producers);
    let snapshot = server.finish();
    let wall_secs = started.elapsed().as_secs_f64();
    assert_eq!(snapshot.n, n as u64, "every report must cross the wire");
    assert!(
        snapshot.estimates.iter().flatten().all(|f| f.is_finite()),
        "drained estimates must be finite"
    );
    Measurement {
        solution: format!("{}/tcp", solution_kind.name()),
        n,
        threads,
        wall_secs,
        reports_per_sec: n as f64 / wall_secs.max(1e-9),
    }
}

/// The longitudinal twin of [`run_once`]: the same population reports for
/// [`ROUNDS`] consecutive rounds under the ε-splitting budget policy (the
/// solution is rebuilt at ε/R exactly as `risks serve --rounds` does), with
/// [`LdpServer::advance_epoch`] closing a windowed snapshot between rounds.
/// The row's delta against the single-round row is the cost of the epoch
/// machinery: the per-worker shard swap barrier, the retention-ring push
/// and the cumulative fold. Reported under `"<solution>/r4"` and measured
/// in reports/sec over all `n × ROUNDS` absorbed reports.
fn run_once_rounds(
    solution_kind: SolutionKind,
    ks: &[usize],
    n: usize,
    threads: usize,
) -> Measurement {
    let base = solution_kind.build(ks, 1.0).expect("bench solution builds");
    let solution = BudgetPolicy::SplitEps
        .round_solution(&base, ROUNDS)
        .expect("split-budget solution builds");
    let server = LdpServer::spawn(
        solution.clone(),
        ServerConfig::default()
            .shards(threads)
            .queue_depth(8)
            .batch(512 * threads)
            .retain(ROUNDS),
    );
    let producers = threads
        .min(std::thread::available_parallelism().map_or(threads, std::num::NonZeroUsize::get));
    let started = Instant::now();
    for round in 0..ROUNDS as u64 {
        std::thread::scope(|scope| {
            for p in 0..producers {
                let server = &server;
                let solution = &solution;
                scope.spawn(move || {
                    let lo = p * n / producers;
                    let hi = (p + 1) * n / producers;
                    server.ingest_batch((lo as u64..hi as u64).map(move |uid| {
                        let mut rng =
                            SmallRng::seed_from_u64(mix3(0xBEAC ^ round, uid, BENCH_SALT));
                        Envelope {
                            uid,
                            report: synth_report(solution, ks, uid, &mut rng),
                        }
                    }));
                });
            }
        });
        server.advance_epoch();
    }
    assert_eq!(
        server.epochs().len(),
        ROUNDS,
        "every round must close a retained epoch"
    );
    let snapshot = server.drain();
    let wall_secs = started.elapsed().as_secs_f64();
    let total = n * ROUNDS;
    assert_eq!(
        snapshot.n, total as u64,
        "every round's reports must be absorbed"
    );
    assert!(
        snapshot.estimates.iter().flatten().all(|f| f.is_finite()),
        "drained estimates must be finite"
    );
    Measurement {
        solution: format!("{}/r{ROUNDS}", solution_kind.name()),
        n,
        threads,
        wall_secs,
        reports_per_sec: total as f64 / wall_secs.max(1e-9),
    }
}

/// Hand-rolled JSON (the workspace carries no JSON crate).
fn to_json(smoke: bool, results: &[Measurement]) -> String {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"bench\": \"ingest\",");
    let _ = writeln!(out, "  \"smoke\": {smoke},");
    // Interpret the thread columns against this: on a single-core box the
    // matrix can only demonstrate absence of contention collapse (rows stay
    // flat within noise); real scaling needs cores > 1.
    let _ = writeln!(out, "  \"cores\": {cores},");
    out.push_str("  \"results\": [\n");
    for (i, m) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"solution\": \"{}\", \"n\": {}, \"threads\": {}, \"wall_secs\": {:.4}, \"reports_per_sec\": {:.0}}}{comma}",
            m.solution, m.n, m.threads, m.wall_secs, m.reports_per_sec
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// `BENCH_OUT` env override, else `<workspace root>/BENCH_ingest.json`.
fn output_path() -> std::path::PathBuf {
    if let Ok(path) = std::env::var("BENCH_OUT") {
        return std::path::PathBuf::from(path);
    }
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_ingest.json")
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test" || a == "--smoke");
    let sizes: &[usize] = if smoke {
        &[20_000]
    } else {
        &[1_000_000, 10_000_000]
    };
    let threads: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };
    // A compact domain keeps the bench measuring channels + absorb, not
    // cache misses over a huge count table. The mixed kind appends two
    // numeric dimensions (zero-cardinality entries) to the categorical part.
    const CAT_KS: [usize; 4] = [16, 8, 5, 4];
    const MIXED_KS: [usize; 6] = [16, 8, 5, 4, 0, 0];
    // One kind per hot report shape: value tuples, hashed reports (the
    // domain-sweep counting path), unary bit vectors, and heterogeneous
    // categorical + numeric fixed-point entries.
    let kinds: [(SolutionKind, &[usize]); 4] = [
        (SolutionKind::RsFd(RsFdProtocol::Grr), &CAT_KS),
        (SolutionKind::Smp(ProtocolKind::Olh), &CAT_KS),
        (SolutionKind::Spl(ProtocolKind::Oue), &CAT_KS),
        (
            SolutionKind::Mixed(MixedKind {
                protocol: ProtocolKind::Grr,
                numeric: NumericKind::Piecewise,
                sample_k: 2,
            }),
            &MIXED_KS,
        ),
    ];

    // Best of nine repetitions per cell (one in smoke mode), with the reps
    // *interleaved* across the whole matrix rather than run back to back:
    // shared one-core boxes show double-digit noise that arrives in bursts,
    // so consecutive reps would let one noisy minute poison a single cell's
    // every repetition. Round-robin passes spread the bursts across cells,
    // and the per-cell minimum wall time is the measurement least polluted
    // by scheduler interference.
    let reps = if smoke { 1 } else { 9 };
    // (kind, ks, n, threads, mode): the in-process matrix, plus
    // loopback-TCP rows for the tuple and mixed kinds and longitudinal
    // (R=4 epochs) rows for the bit-vector kind, all at the smaller
    // population — enough to track the wire tier's and epoch machinery's
    // throughput tax run over run without doubling the bench's wall time.
    #[derive(Clone, Copy)]
    enum Mode {
        InProc,
        Tcp,
        Rounds,
    }
    let mut cells: Vec<(SolutionKind, &[usize], usize, usize, Mode)> = kinds
        .iter()
        .flat_map(|&(kind, ks)| {
            sizes
                .iter()
                .flat_map(move |&n| threads.iter().map(move |&t| (kind, ks, n, t, Mode::InProc)))
        })
        .collect();
    cells.extend(
        threads
            .iter()
            .map(|&t| (kinds[0].0, kinds[0].1, sizes[0], t, Mode::Tcp)),
    );
    cells.extend(
        threads
            .iter()
            .map(|&t| (kinds[3].0, kinds[3].1, sizes[0], t, Mode::Tcp)),
    );
    cells.extend(
        threads
            .iter()
            .map(|&t| (kinds[2].0, kinds[2].1, sizes[0], t, Mode::Rounds)),
    );
    let mut best: Vec<Option<Measurement>> = (0..cells.len()).map(|_| None).collect();
    for _ in 0..reps {
        for (slot, &(kind, ks, n, t, mode)) in cells.iter().enumerate() {
            let m = match mode {
                Mode::InProc => run_once(kind, ks, n, t),
                Mode::Tcp => run_once_tcp(kind, ks, n, t),
                Mode::Rounds => run_once_rounds(kind, ks, n, t),
            };
            if best[slot]
                .as_ref()
                .is_none_or(|b| m.wall_secs < b.wall_secs)
            {
                best[slot] = Some(m);
            }
        }
    }
    let results: Vec<Measurement> = best.into_iter().map(|m| m.expect("reps >= 1")).collect();
    for m in &results {
        println!(
            "ingest {} n={} threads={}: {:.3}s, {:.0} reports/sec",
            m.solution, m.n, m.threads, m.wall_secs, m.reports_per_sec
        );
    }

    let path = output_path();
    std::fs::write(&path, to_json(smoke, &results))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}
