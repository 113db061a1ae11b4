//! `wire-fleet`: RS+FD[GRR] at ε=1 streamed by two `NetClient` producer
//! sessions (users split by `uid % 2`) over loopback into a 2-shard
//! `WireServer`. Closed loop: each push returns before the next, so the
//! rate is bound by backpressure. Every producer takes a quiesced snapshot
//! after each window of pushes and ends with DRAIN.
//!
//! Why: at ~96 B/report with the CRC paid on both ends, the `ldp-conn-*`
//! threads burn about ten times the CPU of the `ldp-shard-*` threads, so
//! wire changes (CRC, decode → re-encode, bit-packing) show here; the
//! snapshots read beside the writes, so a change that speeds ingest but
//! slows merge/estimate shows too.

use std::net::SocketAddr;
use std::sync::Barrier;
use std::thread;
use std::time::Instant;

use ldp_core::solutions::{DynSolution, RsFdProtocol, SolutionKind};
use ldp_datasets::corpora::adult_like;
use ldp_datasets::Dataset;
use ldp_server::{ServerConfig, WireServer};
use ldp_sim::{user_rng, NetClient};

use crate::replay::Chain;
use crate::run::{quantile, Clock, Probe, Run, Sample};
use crate::{check, procfs, replay};

const EPS: f64 = 1.0;
const SHARDS: usize = 2;
const PRODUCERS: usize = 2;
/// Short shard queues, as production-shaped runs set them: in-flight
/// batches stay cache-resident and peak RSS does not depend on how far the
/// producers ran ahead of the shards.
const QUEUE_DEPTH: usize = 8;
/// Quiesced snapshots each producer takes, evenly spaced over its users.
const SNAPSHOTS: usize = 16;
/// The server's socket read deadline and resume grace period: a producer
/// silent this long is reaped, so the drain counts it as failed instead of
/// waiting for it. A healthy producer is never silent for more than a
/// snapshot.
const READ_TIMEOUT_MS: u64 = 10_000;

fn solution(dataset: &Dataset) -> Result<DynSolution, String> {
    SolutionKind::RsFd(RsFdProtocol::Grr)
        .build(&dataset.schema().cardinalities(), EPS)
        .map_err(|e| format!("RS+FD[GRR] builds: {e}"))
}

/// What one producer session did.
#[derive(Default)]
struct Producer {
    /// Whether it holds a session on the server.
    connected: bool,
    pushed: u64,
    acked: u64,
    /// Wall, run and run-queue ns of this thread from the start signal to
    /// its last push or snapshot.
    push_ns: u64,
    run_ns: u64,
    wait_ns: u64,
    /// (reports pushed before a quiesced snapshot, reports it covered).
    snapshots: Vec<(u64, u64)>,
    snapshot_ms: Vec<f64>,
    error: Option<String>,
}

fn push_all(
    client: &mut NetClient,
    p: usize,
    dataset: &Dataset,
    solution: &DynSolution,
    seed: u64,
    out: &mut Producer,
) -> Result<(), String> {
    let window = (dataset.n() / PRODUCERS / SNAPSHOTS).max(1) as u64;
    for uid in (p..dataset.n()).step_by(PRODUCERS) {
        let uid = uid as u64;
        let report = solution.report(dataset.row(uid as usize), &mut user_rng(seed, uid));
        client
            .push(uid, &report)
            .map_err(|e| format!("push: {e}"))?;
        if client.pushed().is_multiple_of(window) {
            let started = Instant::now();
            let snapshot = client
                .snapshot(true)
                .map_err(|e| format!("snapshot: {e}"))?;
            out.snapshot_ms.push(started.elapsed().as_secs_f64() * 1e3);
            out.snapshots.push((client.pushed(), snapshot.n));
        }
    }
    Ok(())
}

/// One producer thread. It passes every barrier even when its session
/// fails, so the coordinating thread never waits forever.
fn produce(
    p: usize,
    addr: SocketAddr,
    dataset: &Dataset,
    solution: &DynSolution,
    seed: u64,
    gate: &Barrier,
) -> Producer {
    let mut out = Producer::default();
    let mut client = NetClient::connect(addr, solution)
        .map_err(|e| out.error = Some(format!("connect: {e}")))
        .ok();
    out.connected = client.is_some();
    gate.wait(); // connected
    gate.wait(); // start
    let started = Instant::now();
    let (run0, wait0) = procfs::thread_schedstat();
    if let Some(client) = client.as_mut() {
        if let Err(e) = push_all(client, p, dataset, solution, seed, &mut out) {
            out.error = Some(e);
        }
        out.pushed = client.pushed();
    }
    let (run1, wait1) = procfs::thread_schedstat();
    out.push_ns = started.elapsed().as_nanos() as u64;
    out.run_ns = run1 - run0;
    out.wait_ns = wait1 - wait0;
    gate.wait(); // pushed
    gate.wait(); // sampled
    if let Some(client) = client.filter(|_| out.error.is_none()) {
        match client.finish() {
            Ok(n) => out.acked = n,
            Err(e) => out.error = Some(format!("finish: {e}")),
        }
    }
    out
}

fn iteration(
    run: &mut Run,
    traced: bool,
    snapshot_ms: &mut Vec<f64>,
    last: &mut Vec<Vec<f64>>,
) -> Result<Sample, String> {
    let cfg = run.cfg;
    let setup = Clock::start();
    let dataset = adult_like(cfg.n, cfg.seed);
    run.corpus.push(setup.stop());
    let solution = solution(&dataset)?;
    let server = WireServer::bind(
        "127.0.0.1:0",
        solution.clone(),
        ServerConfig::default()
            .shards(SHARDS)
            .queue_depth(QUEUE_DEPTH)
            .read_timeout_ms(READ_TIMEOUT_MS),
    )
    .map_err(|e| format!("bind loopback: {e}"))?;
    let addr = server.local_addr();
    let gate = Barrier::new(PRODUCERS + 1);
    let (producers, probe, roles, loopback, drain) = thread::scope(|s| {
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let (gate, dataset, solution) = (&gate, &dataset, &solution);
                thread::Builder::new()
                    .name(format!("bench-producer-{p}"))
                    .spawn_scoped(s, move || {
                        produce(p, addr, dataset, solution, cfg.seed, gate)
                    })
                    .expect("producer thread spawns")
            })
            .collect();
        gate.wait(); // connected
        run.setups.push(setup.stop());
        let probe = Probe::start(traced);
        let loopback = procfs::loopback_bytes();
        gate.wait(); // start
        gate.wait(); // pushed
        let loopback = procfs::loopback_bytes() - loopback;
        let roles = probe.roles();
        let drain = Instant::now();
        gate.wait(); // sampled
        let producers: Vec<Producer> = handles
            .into_iter()
            .map(|h| h.join().expect("producer thread does not panic"))
            .collect();
        (producers, probe, roles, loopback, drain)
    });
    // Every session either drains or, once its producer has failed and the
    // grace period passed, is reaped.
    let sessions = producers.iter().filter(|p| p.connected).count();
    server.wait_for_fleet(sessions);
    let rejected = server.rejected_connections() as u64;
    let reaped = server.reaped_sessions() as u64;
    let snapshot = server.finish();
    let finish_ms = drain.elapsed().as_secs_f64() * 1e3;
    let acked: u64 = producers.iter().map(|p| p.acked).sum();
    let sample = probe.stop(acked);

    // Checks and bookkeeping, outside the measured phase.
    let pushed: u64 = producers.iter().map(|p| p.pushed).sum();
    for (i, p) in producers.iter().enumerate() {
        if let Some(e) = &p.error {
            run.failures.push(format!("producer {i}: {e}"));
        }
        run.check(p.acked == p.pushed, || {
            format!(
                "producer {i}: DRAIN_ACK {} for {} pushed",
                p.acked, p.pushed
            )
        });
        for &(before, covered) in &p.snapshots {
            run.check(covered >= before, || {
                format!("producer {i}: quiesced snapshot covers {covered} of {before} pushed")
            });
        }
        snapshot_ms.extend(&p.snapshot_ms);
    }
    run.check(snapshot.n == cfg.n as u64, || {
        format!("drained n {} for a population of {}", snapshot.n, cfg.n)
    });
    if let Some(v) = check::band_violation(&solution, &dataset, &snapshot.estimates, snapshot.n) {
        run.failures.push(format!("drained estimates: {v}"));
    }
    run.attempted += pushed;
    run.failed += pushed - acked.min(pushed) + rejected + reaped;
    run.count("reports_pushed", pushed);
    run.count("reports_acked", acked);
    run.count("rejected_connections", rejected);
    run.count("reaped_sessions", reaped);
    run.workload_sample(
        "wire_bytes_per_report",
        loopback as f64 / pushed as f64,
        "B",
    );

    if let Some(roles) = roles {
        let per = |ns: u64| ns as f64 / pushed as f64;
        let sum = |f: fn(&Producer) -> u64| producers.iter().map(f).sum::<u64>();
        let (run_ns, wait_ns) = (sum(|p| p.run_ns), sum(|p| p.wait_ns));
        run.layer("net_client.cpu_ns", per(run_ns), "ns");
        run.layer("net_client.wait_ns", per(wait_ns), "ns");
        let blocked = sum(|p| p.push_ns) as f64 - (run_ns + wait_ns) as f64;
        run.layer("net_client.blocked_ns", blocked / pushed as f64, "ns");
        run.layer("net.cpu_ns", per(roles.get("net").run_ns), "ns");
        run.layer("net.wait_ns", per(roles.get("net").wait_ns), "ns");
        run.layer("service.shard_cpu_ns", per(roles.get("shard").run_ns), "ns");
        run.layer(
            "service.shard_wait_ns",
            per(roles.get("shard").wait_ns),
            "ns",
        );
        run.layer("service.finish_ms", finish_ms, "ms");
        run.add_roles(&roles);
    }
    *last = snapshot.estimates;
    Ok(sample)
}

pub fn run(run: &mut Run) -> Result<(), String> {
    let mut snapshot_ms = Vec::new();
    let mut last = Vec::new();
    run.measure(|run, traced| iteration(run, traced, &mut snapshot_ms, &mut last))?;
    if !run.cfg.trace {
        return Ok(());
    }
    if !snapshot_ms.is_empty() {
        run.layer("service.snapshot_ms_p50", quantile(&snapshot_ms, 0.5), "ms");
        run.layer("service.snapshot_ms_p90", quantile(&snapshot_ms, 0.9), "ms");
        let samples = snapshot_ms.len() as f64;
        run.layer("service.snapshot_samples", samples, "count");
    }
    let dataset = adult_like(run.cfg.n, run.cfg.seed);
    let solution = solution(&dataset)?;
    let replayed = replay::stages(run, Chain::Wire, &dataset, &solution, 0)?;
    run.check(replayed == last, || {
        "single-thread replay estimates differ from the wire drain".into()
    });
    Ok(())
}
