//! The `risks serve` command body: one traffic-shaped streamed collection
//! run through the `ldp_server` ingestion service, with throughput and
//! estimate-quality reporting plus the usual per-run manifest.
//!
//! This is the operational twin of the figure experiments: instead of
//! reproducing a plot, it exercises the production path — client-side
//! sanitization following a seeded arrival schedule, bounded-channel
//! ingestion, sharded aggregation, graceful drain — and reports reports/sec
//! and the mean absolute error of the drained estimates against the
//! dataset's true marginals.

use std::path::PathBuf;
use std::time::Instant;

use ldp_core::solutions::{RsFdProtocol, RsRfdProtocol, SolutionKind};
use ldp_protocols::{ProtocolKind, UeMode};
use ldp_server::{EpochSnapshot, ServerConfig, ServerSnapshot, WireServer};
use ldp_sim::{BudgetPolicy, CollectionPipeline, LongitudinalRun, TrafficGenerator, TrafficShape};

use crate::manifest::{config_hash, git_rev, Manifest};
use crate::table::{fnum, Table};
use crate::{Corpus, ExpConfig};

/// The `(id, kind)` table behind [`solution_from_id`] — also the CLI help's
/// source of truth, so the docs cannot drift from the parser.
pub const SOLUTION_IDS: [(&str, SolutionKind); 15] = [
    ("spl-grr", SolutionKind::Spl(ProtocolKind::Grr)),
    ("spl-olh", SolutionKind::Spl(ProtocolKind::Olh)),
    ("spl-ss", SolutionKind::Spl(ProtocolKind::Ss)),
    ("spl-sue", SolutionKind::Spl(ProtocolKind::Sue)),
    ("spl-oue", SolutionKind::Spl(ProtocolKind::Oue)),
    ("smp-grr", SolutionKind::Smp(ProtocolKind::Grr)),
    ("smp-olh", SolutionKind::Smp(ProtocolKind::Olh)),
    ("smp-ss", SolutionKind::Smp(ProtocolKind::Ss)),
    ("smp-sue", SolutionKind::Smp(ProtocolKind::Sue)),
    ("smp-oue", SolutionKind::Smp(ProtocolKind::Oue)),
    ("rsfd-grr", SolutionKind::RsFd(RsFdProtocol::Grr)),
    (
        "rsfd-uez",
        SolutionKind::RsFd(RsFdProtocol::UeZ(UeMode::Optimized)),
    ),
    (
        "rsfd-uer",
        SolutionKind::RsFd(RsFdProtocol::UeR(UeMode::Optimized)),
    ),
    ("rsrfd-grr", SolutionKind::RsRfd(RsRfdProtocol::Grr)),
    (
        "rsrfd-uer",
        SolutionKind::RsRfd(RsRfdProtocol::UeR(UeMode::Optimized)),
    ),
];

/// Looks a collection solution up by its CLI identifier (`"rsfd-grr"`).
pub fn solution_from_id(id: &str) -> Option<SolutionKind> {
    SOLUTION_IDS
        .iter()
        .find(|(sid, _)| *sid == id)
        .map(|&(_, kind)| kind)
}

/// One parsed `risks serve` request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSpec {
    /// Collection solution to stream.
    pub solution: SolutionKind,
    /// Corpus to synthesize.
    pub dataset: Corpus,
    /// Arrival schedule shape.
    pub shape: TrafficShape,
    /// User-level privacy budget ε (for the whole campaign: under
    /// [`BudgetPolicy::SplitEps`] each of the `rounds` epochs spends ε/R).
    pub epsilon: f64,
    /// Explicit population size (`--users`), overriding `--scale`.
    pub users: Option<usize>,
    /// Collection rounds (`--rounds`); every user reports once per round.
    pub rounds: usize,
    /// Closed-epoch snapshots the server retains (`--retain`).
    pub retain: usize,
    /// Longitudinal budget policy (`--budget split|memoize`).
    pub budget: BudgetPolicy,
}

impl Default for ServeSpec {
    fn default() -> Self {
        ServeSpec {
            solution: SolutionKind::RsFd(RsFdProtocol::Grr),
            dataset: Corpus::Adult,
            shape: TrafficShape::Steady,
            epsilon: 1.0,
            users: None,
            rounds: 1,
            retain: 4,
            budget: BudgetPolicy::SplitEps,
        }
    }
}

/// The measured outcome of one serve run.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// The drained collection run.
    pub run: ServerSnapshot,
    /// Wall-clock seconds from first wave to drained snapshot.
    pub wall_secs: f64,
    /// End-to-end ingestion throughput (sanitize + route + absorb + drain).
    pub reports_per_sec: f64,
    /// Mean absolute error of the normalized estimates vs the dataset's
    /// true marginals, averaged over every attribute-value cell.
    pub mae: f64,
    /// Closed per-epoch windows the server retained (newest-`retain` of the
    /// `rounds` epochs; empty for a single-round run).
    pub epochs: Vec<EpochSnapshot>,
}

/// Streams `spec` under `cfg` and measures it.
pub fn run_serve(spec: &ServeSpec, cfg: &ExpConfig) -> ServeOutcome {
    let dataset = spec.dataset.build_sized(cfg, spec.users);
    let ks = dataset.schema().cardinalities();
    let pipeline = CollectionPipeline::from_kind(spec.solution, &ks, spec.epsilon)
        .expect("serve spec validated at parse time")
        .seed(cfg.seed)
        .threads(cfg.threads);
    let traffic = TrafficGenerator::new(spec.shape, dataset.n()).seed(cfg.seed);
    let started = Instant::now();
    let LongitudinalRun {
        cumulative: run,
        epochs,
    } = pipeline
        .serve_rounds(&dataset, &traffic, spec.rounds, spec.budget, spec.retain)
        .expect("serve spec validated at parse time");
    let wall_secs = started.elapsed().as_secs_f64();
    let mae = mean_abs_error(&run.normalized, &dataset.marginals());
    ServeOutcome {
        reports_per_sec: run.n as f64 / wall_secs.max(1e-9),
        run,
        wall_secs,
        mae,
        epochs,
    }
}

/// Options of the networked `risks serve --listen` mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ListenOpts {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Producer sessions to wait for before draining.
    pub producers: usize,
    /// File to write the bound address to (for scripted producers when the
    /// port is ephemeral).
    pub addr_file: Option<PathBuf>,
    /// Socket read timeout in milliseconds (`--read-timeout-ms`); a producer
    /// silent for longer is ABORTed so it cannot wedge the drain barrier.
    /// It also sets the resume grace period: a faulted session that has not
    /// reconnected within it, and within the client's longest backoff step
    /// (1 s), is reaped from the fleet instead of wedging the drain. `0`
    /// disables both. See [`ServerConfig::read_timeout_ms`].
    pub read_timeout_ms: u64,
    /// Shared-secret handshake token (`--auth-token`); connections whose
    /// HELLO carries a different token's digest are rejected with
    /// `ABORT_AUTH`. `None` accepts only tokenless producers.
    pub auth_token: Option<String>,
}

/// Binds a [`WireServer`] for `spec`, waits for `producers` DRAINed
/// sessions, and measures the drained aggregate exactly like [`run_serve`].
///
/// The corpus is materialized only long enough to capture its schema and
/// true marginals, then dropped **before** the listener binds — the serving
/// process holds the merged aggregate and per-shard queues, nothing
/// proportional to the population, so server RSS stays flat at any `--users`
/// (the nightly soak pins this).
pub fn run_serve_listen(
    spec: &ServeSpec,
    cfg: &ExpConfig,
    listen: &ListenOpts,
) -> std::io::Result<ServeOutcome> {
    let dataset = spec.dataset.build_sized(cfg, spec.users);
    let ks = dataset.schema().cardinalities();
    let truth = dataset.marginals();
    let expected = dataset.n() as u64 * spec.rounds as u64;
    drop(dataset);
    // The wire handshake fingerprints the solution the producers actually
    // run, which under ε-splitting is the ε/R per-round rebuild.
    let solution = spec
        .solution
        .build(&ks, spec.epsilon)
        .and_then(|s| spec.budget.round_solution(&s, spec.rounds))
        .expect("serve spec validated at parse time");
    let server = WireServer::bind(
        listen.addr.as_str(),
        solution,
        ServerConfig::default()
            .shards(cfg.threads)
            .retain(spec.retain)
            .read_timeout_ms(listen.read_timeout_ms)
            .auth_token(listen.auth_token.clone()),
    )?
    .producers(listen.producers);
    let addr = server.local_addr();
    if let Some(path) = &listen.addr_file {
        // Written aside and renamed into place, so a reader polling for the
        // file never sees it created but still empty.
        let partial = path.with_extension("partial");
        std::fs::write(&partial, format!("{addr}\n"))?;
        std::fs::rename(&partial, path)?;
    }
    eprintln!(
        "[risks] serve: listening on {addr}, waiting for {} producer(s) to drain",
        listen.producers
    );
    let started = Instant::now();
    // Fleet rendezvous, not a plain drain count: a producer that faulted
    // past its resume grace is reaped and counted toward the rendezvous, so
    // one dead producer degrades the run instead of wedging it.
    server.wait_for_fleet(listen.producers);
    let rejected = server.rejected_connections();
    let dropped = server.dropped_connections();
    let reaped = server.reaped_sessions();
    let epochs = server.epochs();
    let snapshot = server.finish();
    let wall_secs = started.elapsed().as_secs_f64();
    if reaped > 0 {
        eprintln!(
            "[risks] serve: DEGRADED — reaped {reaped} dead producer session(s); \
             the drained aggregate is missing their unacked partitions"
        );
    }
    if snapshot.n != expected {
        eprintln!(
            "[risks] serve: drained {} reports, expected {expected} — did the \
             producer fleet cover every `--part` with matching flags?",
            snapshot.n
        );
    }
    if rejected > 0 {
        eprintln!("[risks] serve: rejected {rejected} malformed connection(s)");
    }
    if dropped > 0 {
        eprintln!(
            "[risks] serve: {dropped} connection(s) ended in a transport fault \
             (hung up mid-frame, socket error or read timeout)"
        );
    }
    let mae = mean_abs_error(&snapshot.normalized, &truth);
    Ok(ServeOutcome {
        reports_per_sec: snapshot.n as f64 / wall_secs.max(1e-9),
        run: snapshot,
        wall_secs,
        mae,
        epochs,
    })
}

/// The per-epoch windowed view of a longitudinal serve run: one row per
/// retained closed epoch (`risks serve --rounds R --retain W`).
fn windows_table(outcome: &ServeOutcome) -> Table {
    let mut table = Table::new(
        "retained epoch windows".to_string(),
        &["epoch", "n", "reports_per_user_attr"],
    );
    for epoch in &outcome.epochs {
        let cells: usize = epoch.snapshot.normalized.iter().map(Vec::len).sum();
        table.row(vec![
            epoch.epoch.to_string(),
            epoch.snapshot.n.to_string(),
            fnum(epoch.snapshot.n as f64 / cells.max(1) as f64),
        ]);
    }
    table
}

/// Mean absolute cell-wise difference between two estimate matrices.
fn mean_abs_error(estimates: &[Vec<f64>], truth: &[Vec<f64>]) -> f64 {
    let mut total = 0.0;
    let mut cells = 0usize;
    for (e, t) in estimates.iter().zip(truth) {
        for (a, b) in e.iter().zip(t) {
            total += (a - b).abs();
            cells += 1;
        }
    }
    if cells == 0 {
        0.0
    } else {
        total / cells as f64
    }
}

/// The config-hash key of one serve request: unlike the figure experiments,
/// whose results are fully determined by `(id, seed, runs, scale)`, a serve
/// run's outputs also depend on everything in the [`ServeSpec`] — so the
/// spec is folded into the hashed id and two runs with different solutions,
/// datasets, shapes or budgets always record different hashes.
pub fn serve_hash_id(spec: &ServeSpec) -> String {
    let solution_id = SOLUTION_IDS
        .iter()
        .find(|(_, kind)| *kind == spec.solution)
        .map_or("custom", |(id, _)| id);
    format!(
        "serve:{solution_id}:{}:{}:{}:{}:{}:{}:{}",
        spec.dataset,
        spec.shape,
        spec.epsilon.to_bits(),
        spec.users.map_or(-1i64, |u| u as i64),
        spec.rounds,
        spec.retain,
        spec.budget.id()
    )
}

/// Writes the drained normalized estimates as `serve_estimates.csv`.
///
/// Unlike `serve.csv` (which carries wall-clock and throughput columns and
/// thus differs between runs), this file is a pure function of
/// `(spec, seed)` — the CI loopback-smoke job byte-compares it between the
/// in-process and multi-process paths, so values are printed with full
/// `f64` round-trip precision.
fn write_estimates_csv(outcome: &ServeOutcome, cfg: &ExpConfig) {
    let mut table = Table::new(
        "drained normalized estimates".to_string(),
        &["attr", "value", "estimate"],
    );
    for (attr, row) in outcome.run.normalized.iter().enumerate() {
        for (value, est) in row.iter().enumerate() {
            table.row(vec![
                attr.to_string(),
                value.to_string(),
                format!("{est:.17e}"),
            ]);
        }
    }
    table.write_csv(&cfg.out_dir, "serve_estimates.csv");
}

/// Runs a serve request end to end for the CLI: stream (in-process, or over
/// the wire protocol when `listen` is set), print the table (unless
/// `quiet`), persist `serve.csv` + `serve_estimates.csv` and a
/// `serve.manifest.json`. Returns the process exit code.
pub fn execute_serve(
    spec: &ServeSpec,
    cfg: &ExpConfig,
    quiet: bool,
    listen: Option<&ListenOpts>,
) -> i32 {
    let solution_id = SOLUTION_IDS
        .iter()
        .find(|(_, kind)| *kind == spec.solution)
        .map_or("custom", |(id, _)| id);
    eprintln!(
        "[risks] serve {} on {} ({} traffic): eps={} rounds={} budget={} retain={} threads={} \
         seed={} scale={} users={}",
        solution_id,
        spec.dataset,
        spec.shape,
        spec.epsilon,
        spec.rounds,
        spec.budget,
        spec.retain,
        cfg.threads,
        cfg.seed,
        cfg.scale,
        spec.users.map_or("auto".to_string(), |u| u.to_string()),
    );
    let outcome = match listen {
        None => run_serve(spec, cfg),
        Some(opts) => match run_serve_listen(spec, cfg, opts) {
            Ok(outcome) => outcome,
            Err(err) => {
                eprintln!("[risks] serve: listener failed: {err}");
                return 1;
            }
        },
    };
    let mut table = Table::new(
        format!(
            "risks serve — {} on {} under {} traffic",
            spec.solution.name(),
            spec.dataset,
            spec.shape
        ),
        &[
            "solution",
            "dataset",
            "shape",
            "eps",
            "rounds",
            "budget",
            "n",
            "threads",
            "wall_s",
            "reports_per_sec",
            "mae",
        ],
    );
    table.row(vec![
        solution_id.to_string(),
        spec.dataset.id().to_string(),
        spec.shape.id().to_string(),
        fnum(spec.epsilon),
        spec.rounds.to_string(),
        spec.budget.id().to_string(),
        outcome.run.n.to_string(),
        cfg.threads.to_string(),
        fnum(outcome.wall_secs),
        format!("{:.0}", outcome.reports_per_sec),
        format!("{:.5}", outcome.mae),
    ]);
    if !quiet {
        print!("{}", table.render());
    }
    table.write_csv(&cfg.out_dir, "serve.csv");
    write_estimates_csv(&outcome, cfg);
    if !outcome.epochs.is_empty() {
        let windows = windows_table(&outcome);
        if !quiet {
            print!("{}", windows.render());
        }
        windows.write_csv(&cfg.out_dir, "serve_windows.csv");
    }
    let manifest = Manifest {
        id: "serve".to_string(),
        config_hash: config_hash(&serve_hash_id(spec), cfg),
        seed: cfg.seed,
        // A serve invocation is always exactly one pass over the population.
        runs: 1,
        scale: cfg.scale,
        wall_secs: outcome.wall_secs,
        rows: table.len(),
        git_rev: git_rev(),
        outputs: if outcome.epochs.is_empty() {
            vec!["serve.csv".to_string(), "serve_estimates.csv".to_string()]
        } else {
            vec![
                "serve.csv".to_string(),
                "serve_estimates.csv".to_string(),
                "serve_windows.csv".to_string(),
            ]
        },
    };
    let path = manifest.write(&cfg.out_dir);
    eprintln!(
        "[risks] serve done in {:.2}s: {} reports ({:.0}/s, MAE {:.5}) → serve.csv + {}",
        outcome.wall_secs,
        outcome.run.n,
        outcome.reports_per_sec,
        outcome.mae,
        path.display()
    );
    0
}

/// Runs one producer of a `risks produce --connect` fleet: rebuilds the
/// corpus and traffic schedule from `spec`/`cfg` (which must match the
/// serving process's flags), streams its `part` of the population over the
/// wire with the given client-side wire behavior (auth, deadline, reconnect
/// budget, optional fault plan), and drains. With `snapshot_every > 0` an
/// incremental SNAPSHOT round trip is logged every that many waves, in
/// every round. Returns the exit code.
#[allow(clippy::too_many_arguments)]
pub fn execute_produce(
    spec: &ServeSpec,
    cfg: &ExpConfig,
    connect: &str,
    part: usize,
    parts: usize,
    snapshot_every: usize,
    quiet: bool,
    client: ldp_sim::ClientConfig,
) -> i32 {
    let dataset = spec.dataset.build_sized(cfg, spec.users);
    let ks = dataset.schema().cardinalities();
    let pipeline = CollectionPipeline::from_kind(spec.solution, &ks, spec.epsilon)
        .expect("produce spec validated at parse time")
        .seed(cfg.seed)
        .client(client);
    let traffic = TrafficGenerator::new(spec.shape, dataset.n()).seed(cfg.seed);
    eprintln!(
        "[risks] produce {part}/{parts} → {connect}: {} on {} ({} traffic, {} users, seed {})",
        spec.solution.name(),
        spec.dataset,
        spec.shape,
        dataset.n(),
        cfg.seed
    );
    let started = Instant::now();
    let result = pipeline.serve_remote_rounds(
        &dataset,
        &traffic,
        connect,
        part,
        parts,
        spec.rounds,
        spec.budget,
        snapshot_every,
        &mut |snapshot| {
            if !quiet {
                eprintln!(
                    "[risks] produce {part}/{parts}: server aggregate at {} reports",
                    snapshot.n
                );
            }
        },
    );
    let wall_secs = started.elapsed().as_secs_f64();
    match result {
        Ok(acked) => {
            eprintln!(
                "[risks] produce {part}/{parts} done in {wall_secs:.2}s: \
                 server acknowledged {acked} reports ({:.0}/s)",
                acked as f64 / wall_secs.max(1e-9)
            );
            0
        }
        Err(err) => {
            eprintln!("[risks] produce {part}/{parts} failed: {err}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tiny_cfg() -> ExpConfig {
        ExpConfig {
            runs: 1,
            scale: 0.05,
            threads: 2,
            seed: 7,
            out_dir: PathBuf::from("results"),
        }
    }

    #[test]
    fn solution_ids_roundtrip_and_build() {
        for (id, kind) in SOLUTION_IDS {
            assert_eq!(solution_from_id(id), Some(kind), "{id}");
            assert!(kind.build(&[4, 3], 1.0).is_ok(), "{id} must be buildable");
        }
        assert_eq!(solution_from_id("carrier-pigeon"), None);
    }

    #[test]
    fn run_serve_measures_a_real_stream() {
        let cfg = tiny_cfg();
        let spec = ServeSpec {
            solution: SolutionKind::Smp(ProtocolKind::Grr),
            dataset: Corpus::Nursery,
            shape: TrafficShape::Burst,
            epsilon: 2.0,
            ..ServeSpec::default()
        };
        let outcome = run_serve(&spec, &cfg);
        assert_eq!(outcome.run.n as usize, Corpus::Nursery.n(&cfg));
        assert!(outcome.reports_per_sec > 0.0);
        assert!(outcome.mae.is_finite() && outcome.mae < 0.5);
        // Streamed serve equals the batch pipeline at equal seed.
        let ds = spec.dataset.build(&cfg, 0);
        let batch = CollectionPipeline::from_kind(
            spec.solution,
            &ds.schema().cardinalities(),
            spec.epsilon,
        )
        .unwrap()
        .seed(cfg.seed)
        .threads(cfg.threads)
        .run(&ds);
        assert_eq!(outcome.run.aggregator.counts(), batch.aggregator.counts());
    }

    #[test]
    fn listen_mode_drains_a_remote_producer_bit_identically() {
        let cfg = tiny_cfg();
        let spec = ServeSpec {
            dataset: Corpus::Nursery,
            users: Some(400),
            ..ServeSpec::default()
        };
        // Baseline: the in-process batch pipeline at equal seed.
        let ds = spec.dataset.build_sized(&cfg, spec.users);
        let ks = ds.schema().cardinalities();
        let baseline = CollectionPipeline::from_kind(spec.solution, &ks, spec.epsilon)
            .unwrap()
            .seed(cfg.seed)
            .run(&ds);
        // Networked: bind on an ephemeral port, discover it through the
        // addr file, and drive one producer fleet of two parts.
        let dir = std::env::temp_dir().join(format!("risks-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let addr_file = dir.join("addr");
        let listen = ListenOpts {
            addr: "127.0.0.1:0".to_string(),
            producers: 2,
            addr_file: Some(addr_file.clone()),
            read_timeout_ms: 0,
            auth_token: None,
        };
        let server = {
            let (spec, cfg, listen) = (spec.clone(), cfg.clone(), listen.clone());
            std::thread::spawn(move || run_serve_listen(&spec, &cfg, &listen).unwrap())
        };
        while !addr_file.exists() {
            std::thread::yield_now();
        }
        let addr = std::fs::read_to_string(&addr_file)
            .unwrap()
            .trim()
            .to_string();
        for part in 0..2 {
            assert_eq!(
                execute_produce(
                    &spec,
                    &cfg,
                    &addr,
                    part,
                    2,
                    0,
                    true,
                    ldp_sim::ClientConfig::default()
                ),
                0,
                "producer {part} must drain cleanly"
            );
        }
        let outcome = server.join().unwrap();
        assert_eq!(outcome.run.n, baseline.n);
        assert_eq!(
            outcome.run.aggregator.counts(),
            baseline.aggregator.counts()
        );
        for (a, b) in outcome
            .run
            .normalized
            .iter()
            .flatten()
            .zip(baseline.normalized.iter().flatten())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multi_round_listen_matches_the_in_process_longitudinal_run() {
        let cfg = tiny_cfg();
        let spec = ServeSpec {
            dataset: Corpus::Nursery,
            users: Some(300),
            rounds: 2,
            retain: 2,
            budget: BudgetPolicy::SplitEps,
            ..ServeSpec::default()
        };
        // Baseline: the in-process longitudinal serve at equal seed.
        let baseline = run_serve(&spec, &cfg);
        assert_eq!(baseline.run.n, 600);
        assert_eq!(baseline.epochs.len(), 2);
        // Networked: one producer drives both rounds through the EPOCH
        // barrier; the drained cumulative aggregate and the retained epoch
        // windows must match bit-for-bit.
        let dir = std::env::temp_dir().join(format!("risks-serve-rounds-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let addr_file = dir.join("addr");
        let listen = ListenOpts {
            addr: "127.0.0.1:0".to_string(),
            producers: 1,
            addr_file: Some(addr_file.clone()),
            read_timeout_ms: 0,
            auth_token: None,
        };
        let server = {
            let (spec, cfg, listen) = (spec.clone(), cfg.clone(), listen.clone());
            std::thread::spawn(move || run_serve_listen(&spec, &cfg, &listen).unwrap())
        };
        while !addr_file.exists() {
            std::thread::yield_now();
        }
        let addr = std::fs::read_to_string(&addr_file)
            .unwrap()
            .trim()
            .to_string();
        assert_eq!(
            execute_produce(
                &spec,
                &cfg,
                &addr,
                0,
                1,
                0,
                true,
                ldp_sim::ClientConfig::default()
            ),
            0
        );
        let outcome = server.join().unwrap();
        assert_eq!(outcome.run.n, baseline.run.n);
        assert_eq!(
            outcome.run.aggregator.counts(),
            baseline.run.aggregator.counts()
        );
        assert_eq!(outcome.epochs.len(), baseline.epochs.len());
        for (remote, local) in outcome.epochs.iter().zip(&baseline.epochs) {
            assert_eq!(remote.epoch, local.epoch);
            assert_eq!(remote.snapshot.n, local.snapshot.n);
            assert_eq!(
                remote.snapshot.aggregator.counts(),
                local.snapshot.aggregator.counts()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mean_abs_error_handles_empty_input() {
        assert_eq!(mean_abs_error(&[], &[]), 0.0);
        assert!(mean_abs_error(&[vec![0.5, 0.5]], &[vec![0.25, 0.75]]) - 0.25 < 1e-12);
    }

    #[test]
    fn manifest_hash_distinguishes_serve_specs() {
        use crate::manifest::config_hash;
        let cfg = tiny_cfg();
        let base = ServeSpec::default();
        let hash = |spec: &ServeSpec| config_hash(&serve_hash_id(spec), &cfg);
        // Every spec dimension must reach the recorded hash.
        let variants = [
            ServeSpec {
                solution: SolutionKind::Smp(ProtocolKind::Oue),
                ..base.clone()
            },
            ServeSpec {
                dataset: Corpus::Acs,
                ..base.clone()
            },
            ServeSpec {
                shape: TrafficShape::Churn,
                ..base.clone()
            },
            ServeSpec {
                epsilon: 4.0,
                ..base.clone()
            },
            ServeSpec {
                users: Some(12_345),
                ..base.clone()
            },
            ServeSpec {
                rounds: 4,
                ..base.clone()
            },
            ServeSpec {
                retain: 8,
                ..base.clone()
            },
            ServeSpec {
                budget: BudgetPolicy::Memoize,
                ..base.clone()
            },
        ];
        for variant in &variants {
            assert_ne!(
                hash(variant),
                hash(&base),
                "{variant:?} must not collide with the default spec"
            );
        }
        assert_eq!(hash(&base), hash(&base.clone()));
    }
}
