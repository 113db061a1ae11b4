//! `epoch-rounds`: SPL[OUE] with a total ε=4 split over R=4 rounds
//! (`BudgetPolicy::SplitEps`) into an in-process 2-shard `LdpServer` that
//! retains 4 epochs. Two producer threads call `ingest_batch` with the
//! `user_rng_round` streams (users split by `uid % 2`); `advance_epoch`
//! closes each round and `drain` ends the run.
//!
//! Why: there is no wire at all. UE word-parallel sanitize and bit-vector
//! absorb dominate and the epoch shard-swap barrier runs R times, so wire
//! changes must read flat here, while a `report_into` sanitize path or
//! validation at the in-process ingest boundary would show.

use std::sync::Barrier;
use std::thread;
use std::time::Instant;

use ldp_core::solutions::{DynSolution, SolutionKind};
use ldp_datasets::corpora::adult_like;
use ldp_datasets::Dataset;
use ldp_protocols::ProtocolKind;
use ldp_server::{Envelope, LdpServer, ServerConfig};
use ldp_sim::{user_rng_round, BudgetPolicy};

use crate::replay::Chain;
use crate::run::{Clock, Probe, Run, Sample};
use crate::{check, replay};

const EPS: f64 = 4.0;
const ROUNDS: usize = 4;
const SHARDS: usize = 2;
const PRODUCERS: usize = 2;
/// Short shard queues, as production-shaped runs set them: in-flight
/// batches stay cache-resident and peak RSS does not depend on how far the
/// producers ran ahead of the shards.
const QUEUE_DEPTH: usize = 8;
/// Traced phases time every this-many sanitize calls: timing each one
/// would cost a tenth of the producer's time.
const SANITIZE_STRIDE: u64 = 8;

/// The per-round solution: SPL[OUE] at ε/R.
fn solution(dataset: &Dataset) -> Result<DynSolution, String> {
    let base = SolutionKind::Spl(ProtocolKind::Oue)
        .build(&dataset.schema().cardinalities(), EPS)
        .map_err(|e| format!("SPL[OUE] builds: {e}"))?;
    BudgetPolicy::SplitEps
        .round_solution(&base, ROUNDS)
        .map_err(|e| format!("split-budget solution builds: {e}"))
}

/// What one producer thread did over all rounds.
#[derive(Default)]
struct Producer {
    ingested: u64,
    /// Wall seconds inside `ingest_batch`.
    ingest_s: f64,
    /// Seconds of that spent in `DynSolution::report`, estimated from every
    /// `SANITIZE_STRIDE`-th call (traced only).
    sanitize_s: f64,
}

fn produce(
    p: usize,
    server: &LdpServer,
    dataset: &Dataset,
    solution: &DynSolution,
    seed: u64,
    traced: bool,
    gate: &Barrier,
) -> Producer {
    let mut out = Producer::default();
    gate.wait(); // ready
    for round in 0..ROUNDS as u64 {
        gate.wait(); // round starts
        let mut sanitize_s = 0.0;
        let mut ingested = 0u64;
        let envelopes = (p..dataset.n()).step_by(PRODUCERS).map(|uid| {
            let uid = uid as u64;
            let mut rng = user_rng_round(seed, uid, round);
            let started = (traced && ingested.is_multiple_of(SANITIZE_STRIDE)).then(Instant::now);
            let report = solution.report(dataset.row(uid as usize), &mut rng);
            if let Some(started) = started {
                sanitize_s += started.elapsed().as_secs_f64() * SANITIZE_STRIDE as f64;
            }
            ingested += 1;
            Envelope { uid, report }
        });
        let started = Instant::now();
        server.ingest_batch(envelopes);
        out.ingest_s += started.elapsed().as_secs_f64();
        out.sanitize_s += sanitize_s;
        out.ingested += ingested;
        gate.wait(); // round ingested
    }
    gate.wait(); // sampled
    out
}

fn iteration(run: &mut Run, traced: bool, round0: &mut Vec<Vec<f64>>) -> Result<Sample, String> {
    let cfg = run.cfg;
    let setup = Clock::start();
    let dataset = adult_like(cfg.n, cfg.seed);
    run.corpus.push(setup.stop());
    let solution = solution(&dataset)?;
    let server = LdpServer::spawn(
        solution.clone(),
        ServerConfig::default()
            .shards(SHARDS)
            .queue_depth(QUEUE_DEPTH)
            .retain(ROUNDS),
    );
    let gate = Barrier::new(PRODUCERS + 1);
    let mut advance_ms = Vec::with_capacity(ROUNDS);
    let (producers, probe, roles) = thread::scope(|s| {
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let (server, gate, dataset, solution) = (&server, &gate, &dataset, &solution);
                thread::Builder::new()
                    .name(format!("bench-producer-{p}"))
                    .spawn_scoped(s, move || {
                        produce(p, server, dataset, solution, cfg.seed, traced, gate)
                    })
                    .expect("producer thread spawns")
            })
            .collect();
        gate.wait(); // ready
        run.setups.push(setup.stop());
        let probe = Probe::start(traced);
        for _ in 0..ROUNDS {
            gate.wait(); // round starts
            gate.wait(); // round ingested
            let started = Instant::now();
            server.advance_epoch();
            advance_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
        let roles = probe.roles();
        gate.wait(); // sampled
        let producers: Vec<Producer> = handles
            .into_iter()
            .map(|h| h.join().expect("producer thread does not panic"))
            .collect();
        (producers, probe, roles)
    });
    let epochs = server.epochs();
    let drain = Instant::now();
    let snapshot = server.drain();
    let drain_ms = drain.elapsed().as_secs_f64() * 1e3;
    let sample = probe.stop(snapshot.n);

    // Checks and bookkeeping, outside the measured phase.
    let ingested: u64 = producers.iter().map(|p| p.ingested).sum();
    let per_epoch = cfg.n as u64;
    run.check(epochs.len() == ROUNDS, || {
        format!("{} epochs retained, {ROUNDS} expected", epochs.len())
    });
    let mut absorbed = 0u64;
    for epoch in &epochs {
        let n = epoch.snapshot.n;
        absorbed += n;
        run.check(n == per_epoch, || {
            format!(
                "epoch {} holds {n} reports, {per_epoch} expected",
                epoch.epoch
            )
        });
        if let Some(v) = check::band_violation(&solution, &dataset, &epoch.snapshot.estimates, n) {
            run.failures
                .push(format!("epoch {} estimates: {v}", epoch.epoch));
        }
    }
    run.check(snapshot.n == per_epoch * ROUNDS as u64, || {
        format!("cumulative n {} for {per_epoch} x {ROUNDS}", snapshot.n)
    });
    if let Some(v) = check::band_violation(&solution, &dataset, &snapshot.estimates, snapshot.n) {
        run.failures.push(format!("cumulative estimates: {v}"));
    }
    run.attempted += ingested;
    run.failed += ingested - absorbed.min(ingested);
    run.count("reports_ingested", ingested);
    run.count("reports_absorbed", absorbed);
    run.count("epochs_closed", epochs.len() as u64);

    if let Some(roles) = roles {
        let per = |ns: u64| ns as f64 / ingested as f64;
        run.layer("service.shard_cpu_ns", per(roles.get("shard").run_ns), "ns");
        run.layer(
            "service.shard_wait_ns",
            per(roles.get("shard").wait_ns),
            "ns",
        );
        let outside: f64 = producers.iter().map(|p| p.ingest_s - p.sanitize_s).sum();
        run.layer("service.ingest_ns", outside * 1e9 / ingested as f64, "ns");
        for ms in &advance_ms {
            run.layer("service.advance_epoch_ms", *ms, "ms");
        }
        run.layer("service.drain_ms", drain_ms, "ms");
        run.add_roles(&roles);
    }
    if let Some(first) = epochs.first() {
        *round0 = first.snapshot.estimates.clone();
    }
    Ok(sample)
}

pub fn run(run: &mut Run) -> Result<(), String> {
    let mut round0 = Vec::new();
    run.measure(|run, traced| iteration(run, traced, &mut round0))?;
    if !run.cfg.trace {
        return Ok(());
    }
    let dataset = adult_like(run.cfg.n, run.cfg.seed);
    let solution = solution(&dataset)?;
    let replayed = replay::stages(run, Chain::InProcess, &dataset, &solution, 0)?;
    run.check(replayed == round0, || {
        "single-thread replay estimates differ from epoch 0".into()
    });
    Ok(())
}
