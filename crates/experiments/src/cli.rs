//! The `risks` command-line interface: `list` / `describe` / `run` over the
//! experiment registry. Argument parsing is hand-rolled (the workspace
//! vendors its dependencies — no clap) and lives here, out of the binary, so
//! it is unit-testable.

use crate::registry::{markdown_matrix, Experiment, EXPERIMENTS};
use crate::runner::{run_experiments, ExpStatus, RunOptions};
use crate::serve::{solution_from_id, ListenOpts, ServeSpec};
use crate::{Corpus, ExpConfig, Overrides};
use ldp_sim::traffic::TrafficShape;
use ldp_sim::BudgetPolicy;

/// Usage text printed by `risks help` and on parse errors.
pub const USAGE: &str = "\
risks — registry-driven runner for the PVLDB'23 reproduction experiments

USAGE:
    risks list [--markdown]            enumerate every experiment
    risks describe <ids…|all>          metadata of selected experiments
    risks run <ids…|all> [options]     run experiments (parallel, cached)
    risks serve [options]              stream a corpus through ldp_server
    risks produce --connect <ADDR>     stream one producer's share of the
                                       population to a `serve --listen` server
    risks help                         this text

RUN OPTIONS (defaults come from the RISKS_* environment variables):
    --runs <N>       repetitions per parameter point
    --scale <F>      dataset-size fraction of the paper's n (0.01–1.0)
    --seed <N>       master seed
    --threads <N>    total worker-thread budget
    --jobs <N>       experiments in flight at once (default min(4, threads))
    --out <DIR>      output directory for CSVs and manifests
    --force          re-run even when a fresh manifest exists
    --quiet          suppress table output

SERVE OPTIONS (plus --scale/--seed/--threads/--out/--quiet from above):
    --solution <ID>  collection solution (default rsfd-grr); one of
                     spl-*, smp-* with * in grr|olh|ss|sue|oue,
                     rsfd-grr|rsfd-uez|rsfd-uer, rsrfd-grr|rsrfd-uer
    --dataset <ID>   adult | acs | nursery (default adult)
    --shape <ID>     steady | burst | ramp | churn (default steady)
    --eps <F>        user-level privacy budget ε (default 1.0)
    --users <N>      exact population size (overrides --scale; lets soak
                     runs exceed the paper-scale cap)
    --rounds <R>     longitudinal mode: every user reports R times, one
                     epoch per round (default 1)
    --budget <ID>    split | memoize — how the campaign spends ε across
                     rounds: ε/R per round, or sanitize once and replay
                     the memoized report (default split)
    --retain <W>     closed-epoch snapshots the server keeps for windowed
                     queries (default 4; serve-side only)
    --listen <ADDR>  networked mode: bind the versioned wire-protocol
                     listener (`127.0.0.1:0` picks a free port) and
                     aggregate remote `risks produce` sessions instead of
                     sanitizing in-process
    --producers <N>  with --listen: producer sessions to wait for before
                     the final drain (default 1)
    --addr-file <P>  with --listen: write the bound address to file P
                     (how scripts discover an ephemeral port)
    --read-timeout-ms <MS>
                     with --listen: ABORT a producer connection silent for
                     MS milliseconds so a hung process cannot wedge the
                     drain barrier; a faulted session that has not resumed
                     within MS (at least 1 s, the longest reconnect backoff
                     step) is reaped from the fleet (default 0 = neither)
    --auth-token <T> with --listen: shared-secret handshake token; a HELLO
                     carrying a different token's digest is rejected with
                     ABORT_AUTH (default: accept tokenless producers only)

PRODUCE OPTIONS (--solution/--dataset/--shape/--eps/--users/--rounds/
--budget/--scale/--seed and --quiet from above; every spec flag must match
the serving process):
    --connect <ADDR>      server address (e.g. the --addr-file contents)
    --part <i/N>          stream only users with uid mod N == i, so N
                          producers with parts 0/N…(N-1)/N cover the
                          population exactly once (default 0/1)
    --snapshot-every <W>  log an incremental server snapshot every W
                          traffic waves, counted across rounds (0 = never)
    --auth-token <T>      shared-secret handshake token (must match the
                          server's --auth-token)
    --retries <N>         reconnect-and-resume attempts per transport
                          fault before giving up (default 8; 0 fails fast)
    --client-timeout-ms <MS>
                          socket read/connect deadline; a silent server
                          surfaces as a typed timeout instead of a hang
                          (default 0 = block forever)
    --fault-plan <SPEC>   inject deterministic transport faults on this
                          producer's own sends, SPEC =
                          seed=<u64>,every=<n>[,max=<n>][,kinds=a+b+c]
                          with kinds from drop|delay|reset|truncate|
                          duplicate (chaos testing; the drained estimates
                          must still match a clean run bit-for-bit)

`risks serve` sanitizes every user with the seeded per-user rng streams,
pushes the reports through the bounded-channel ingestion service following
the arrival schedule, drains it, and reports reports/sec plus the MAE of
the drained estimates against the true marginals (the result is
bit-identical to the batch pipeline at equal seed). With --listen the
reports instead arrive as checksummed CompactBatch frames over TCP from
`risks produce` processes — same drained bits, real sockets. Writes
serve.csv, serve_estimates.csv (deterministic, full f64 precision) and
serve.manifest.json under --out.

An experiment is skipped as a cache hit when `<out>/<id>.manifest.json`
matches the current (id, seed, runs, scale) hash and git revision and its
CSVs exist. Exit code: 0 when everything succeeded or was cached, 1
otherwise.
";

/// A parsed `risks` invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `risks list [--markdown]`.
    List {
        /// Emit the README reproduction matrix instead of the plain table.
        markdown: bool,
    },
    /// `risks describe <ids…|all>`.
    Describe {
        /// The selected experiments.
        experiments: Vec<&'static Experiment>,
    },
    /// `risks run <ids…|all> [options]`.
    Run {
        /// The selected experiments.
        experiments: Vec<&'static Experiment>,
        /// `--runs` / `--scale` / `--seed` / `--threads` / `--out`.
        flags: Overrides,
        /// `--jobs` cap on concurrent experiments.
        jobs: Option<usize>,
        /// `--force` re-run flag.
        force: bool,
        /// `--quiet` table suppression.
        quiet: bool,
    },
    /// `risks serve [options]`.
    Serve {
        /// What to stream (solution, dataset, traffic shape, ε, users).
        spec: ServeSpec,
        /// `--listen`/`--producers`/`--addr-file` networked-mode options.
        listen: Option<ListenOpts>,
        /// `--scale` / `--seed` / `--threads` (server shards + sanitization
        /// threads) / `--out`.
        flags: Overrides,
        /// `--quiet` table suppression.
        quiet: bool,
    },
    /// `risks produce --connect <addr> [options]`.
    Produce {
        /// What to stream — must match the serving process's spec.
        spec: ServeSpec,
        /// Server address to connect to.
        connect: String,
        /// This producer's index within the fleet.
        part: usize,
        /// Total fleet size.
        parts: usize,
        /// Incremental snapshot cadence in traffic waves (0 = never).
        snapshot_every: usize,
        /// Client-side wire behavior: `--auth-token`, `--retries`,
        /// `--client-timeout-ms`, `--fault-plan`.
        client: ldp_sim::ClientConfig,
        /// `--scale` / `--seed`.
        flags: Overrides,
        /// `--quiet` snapshot-log suppression.
        quiet: bool,
    },
    /// `risks help` / `--help`.
    Help,
}

/// Parses argv (without the program name). Errors are user-facing messages.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        None | Some("help") | Some("--help") | Some("-h") => Ok(Command::Help),
        Some("list") => {
            let mut markdown = false;
            for arg in it {
                match arg {
                    "--markdown" => markdown = true,
                    other => return Err(format!("unknown `list` argument `{other}`")),
                }
            }
            Ok(Command::List { markdown })
        }
        Some("describe") => {
            let mut it = it.peekable();
            let experiments = parse_ids(&mut it)?;
            if let Some(extra) = it.next() {
                return Err(format!("unknown `describe` argument `{extra}`"));
            }
            Ok(Command::Describe { experiments })
        }
        Some("run") => {
            let mut it = it.peekable();
            let experiments = parse_ids(&mut it)?;
            let mut flags = Overrides::default();
            let (mut jobs, mut force, mut quiet) = (None, false, false);
            while let Some(arg) = it.next() {
                if parse_config_flag(arg, &CONFIG_FLAGS, &mut it, &mut flags)? {
                    continue;
                }
                match arg {
                    "--force" => force = true,
                    "--quiet" => quiet = true,
                    "--jobs" => jobs = Some(flag_value(arg, it.next())?),
                    other => return Err(format!("unknown `run` argument `{other}`")),
                }
            }
            Ok(Command::Run {
                experiments,
                flags,
                jobs,
                force,
                quiet,
            })
        }
        Some("serve") => {
            let mut spec = ServeSpec::default();
            let mut flags = Overrides::default();
            let mut quiet = false;
            let (mut listen_addr, mut producers, mut addr_file) =
                (None::<String>, None::<usize>, None::<String>);
            let mut read_timeout_ms = None::<u64>;
            let mut auth_token = None::<String>;
            while let Some(arg) = it.next() {
                if parse_spec_flag(arg, &mut it, &mut spec)?
                    || parse_config_flag(arg, &CONFIG_FLAGS[1..], &mut it, &mut flags)?
                {
                    continue;
                }
                match arg {
                    "--quiet" => quiet = true,
                    "--retain" => {
                        spec.retain = flag_value(arg, it.next())?;
                        if spec.retain == 0 {
                            return Err("`--retain` must keep at least 1 epoch window".to_string());
                        }
                    }
                    "--auth-token" => {
                        auth_token = Some(
                            it.next()
                                .ok_or("`--auth-token` needs a token value")?
                                .to_string(),
                        )
                    }
                    "--listen" => {
                        listen_addr = Some(
                            it.next()
                                .ok_or("`--listen` needs a bind address")?
                                .to_string(),
                        )
                    }
                    "--producers" => producers = Some(flag_value(arg, it.next())?),
                    "--read-timeout-ms" => read_timeout_ms = Some(flag_value(arg, it.next())?),
                    "--addr-file" => {
                        addr_file = Some(
                            it.next()
                                .ok_or("`--addr-file` needs a file path")?
                                .to_string(),
                        )
                    }
                    other => return Err(format!("unknown `serve` argument `{other}`")),
                }
            }
            let listen = match listen_addr {
                Some(addr) => Some(ListenOpts {
                    addr,
                    producers: producers.unwrap_or(1).max(1),
                    addr_file: addr_file.map(std::path::PathBuf::from),
                    read_timeout_ms: read_timeout_ms.unwrap_or(0),
                    auth_token,
                }),
                None if producers.is_some()
                    || addr_file.is_some()
                    || read_timeout_ms.is_some()
                    || auth_token.is_some() =>
                {
                    return Err("`--producers`, `--addr-file`, `--read-timeout-ms` and \
                         `--auth-token` require `--listen`"
                        .to_string())
                }
                None => None,
            };
            Ok(Command::Serve {
                spec,
                listen,
                flags,
                quiet,
            })
        }
        Some("produce") => {
            let mut spec = ServeSpec::default();
            let mut flags = Overrides::default();
            let mut quiet = false;
            let mut connect = None::<String>;
            let mut part = (0usize, 1usize);
            let mut snapshot_every = 0usize;
            let mut client = ldp_sim::ClientConfig::resilient();
            while let Some(arg) = it.next() {
                if parse_spec_flag(arg, &mut it, &mut spec)?
                    || parse_config_flag(arg, &["--scale", "--seed"], &mut it, &mut flags)?
                {
                    continue;
                }
                match arg {
                    "--quiet" => quiet = true,
                    "--connect" => {
                        connect = Some(
                            it.next()
                                .ok_or("`--connect` needs a server address")?
                                .to_string(),
                        )
                    }
                    "--part" => {
                        part = parse_part(it.next().ok_or("`--part` needs `i/N`")?)?;
                    }
                    "--snapshot-every" => snapshot_every = flag_value(arg, it.next())?,
                    "--auth-token" => {
                        client.auth = Some(
                            it.next()
                                .ok_or("`--auth-token` needs a token value")?
                                .to_string(),
                        )
                    }
                    "--retries" => client.retries = flag_value(arg, it.next())?,
                    "--client-timeout-ms" => client.read_timeout_ms = flag_value(arg, it.next())?,
                    "--fault-plan" => {
                        let raw = it.next().ok_or("`--fault-plan` needs a spec")?;
                        client.fault_plan = Some(
                            ldp_sim::FaultPlan::parse(raw)
                                .map_err(|e| format!("invalid `--fault-plan`: {e}"))?,
                        );
                    }
                    other => return Err(format!("unknown `produce` argument `{other}`")),
                }
            }
            let connect = connect.ok_or("`produce` requires `--connect <addr>`")?;
            Ok(Command::Produce {
                spec,
                connect,
                part: part.0,
                parts: part.1,
                snapshot_every,
                client,
                flags,
                quiet,
            })
        }
        Some(other) => Err(format!("unknown subcommand `{other}` (try `risks help`)")),
    }
}

/// The configuration flags of `run`; `serve` takes all but `--runs`.
const CONFIG_FLAGS: [&str; 5] = ["--runs", "--scale", "--seed", "--threads", "--out"];

/// Parses one of the `allowed` configuration flags into `flags`. Returns
/// whether `arg` was consumed.
fn parse_config_flag<'a>(
    arg: &str,
    allowed: &[&str],
    it: &mut impl Iterator<Item = &'a str>,
    flags: &mut Overrides,
) -> Result<bool, String> {
    if !allowed.contains(&arg) {
        return Ok(false);
    }
    match arg {
        "--runs" => flags.runs = Some(flag_value(arg, it.next())?),
        "--scale" => flags.scale = Some(flag_value(arg, it.next())?),
        "--seed" => flags.seed = Some(flag_value(arg, it.next())?),
        "--threads" => flags.threads = Some(flag_value(arg, it.next())?),
        "--out" => {
            let dir = it.next().ok_or("`--out` needs a directory argument")?;
            flags.out = Some(dir.to_string());
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// Parses the [`ServeSpec`] flags shared by `serve` and `produce`
/// (`--solution`, `--dataset`, `--shape`, `--eps`, `--users`, `--rounds`,
/// `--budget`). Returns whether `arg` was consumed.
fn parse_spec_flag<'a>(
    arg: &str,
    it: &mut impl Iterator<Item = &'a str>,
    spec: &mut ServeSpec,
) -> Result<bool, String> {
    match arg {
        "--solution" => {
            let raw = it.next().ok_or("`--solution` needs an id")?;
            spec.solution = solution_from_id(raw)
                .ok_or_else(|| format!("unknown solution `{raw}` (see `risks help`)"))?;
        }
        "--dataset" => {
            let raw = it.next().ok_or("`--dataset` needs an id")?;
            spec.dataset = Corpus::from_id(raw)
                .ok_or_else(|| format!("unknown dataset `{raw}` (adult | acs | nursery)"))?;
        }
        "--shape" => {
            let raw = it.next().ok_or("`--shape` needs an id")?;
            spec.shape = TrafficShape::from_id(raw)
                .ok_or_else(|| format!("unknown shape `{raw}` (steady | burst | ramp | churn)"))?;
        }
        "--eps" => {
            spec.epsilon = flag_value(arg, it.next())?;
            // Finiteness matters too: "inf" parses as f64 but would only
            // fail deep inside solution construction.
            if !spec.epsilon.is_finite() || spec.epsilon <= 0.0 {
                return Err(format!(
                    "`--eps` must be positive and finite, got {}",
                    spec.epsilon
                ));
            }
        }
        "--users" => {
            let users: usize = flag_value(arg, it.next())?;
            if users == 0 {
                return Err("`--users` must be at least 1".to_string());
            }
            spec.users = Some(users);
        }
        "--rounds" => {
            let rounds: usize = flag_value(arg, it.next())?;
            if rounds == 0 {
                return Err("`--rounds` must be at least 1".to_string());
            }
            spec.rounds = rounds;
        }
        "--budget" => {
            let raw = it.next().ok_or("`--budget` needs an id")?;
            spec.budget = BudgetPolicy::from_id(raw)
                .ok_or_else(|| format!("unknown budget policy `{raw}` (split | memoize)"))?;
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// Parses a `--part i/N` fleet coordinate.
fn parse_part(raw: &str) -> Result<(usize, usize), String> {
    let err = || format!("`--part` expects `i/N` with i < N, got `{raw}`");
    let (i, n) = raw.split_once('/').ok_or_else(err)?;
    let i: usize = i.parse().map_err(|_| err())?;
    let n: usize = n.parse().map_err(|_| err())?;
    if n == 0 || i >= n {
        return Err(err());
    }
    Ok((i, n))
}

/// Resolves leading experiment ids (`all` expands to the whole registry),
/// stopping at the first `--flag`. Duplicates are dropped, order kept.
fn parse_ids<'a, I: Iterator<Item = &'a str>>(
    it: &mut std::iter::Peekable<I>,
) -> Result<Vec<&'static Experiment>, String> {
    let mut selected: Vec<&'static Experiment> = Vec::new();
    while let Some(&arg) = it.peek() {
        if arg.starts_with("--") {
            break;
        }
        it.next();
        let matched: &'static [Experiment] = if arg == "all" {
            &EXPERIMENTS
        } else {
            std::slice::from_ref(Experiment::from_id(arg).ok_or_else(|| {
                format!("unknown experiment `{arg}` (see `risks list` for the registry)")
            })?)
        };
        for exp in matched {
            if !selected.contains(&exp) {
                selected.push(exp);
            }
        }
    }
    if selected.is_empty() {
        return Err("no experiments selected (pass ids or `all`)".to_string());
    }
    Ok(selected)
}

fn flag_value<T: std::str::FromStr>(flag: &str, value: Option<&str>) -> Result<T, String> {
    let raw = value.ok_or_else(|| format!("`{flag}` needs a value"))?;
    raw.parse()
        .map_err(|_| format!("invalid value `{raw}` for `{flag}`"))
}

/// The plain `risks list` table.
pub fn list_text() -> String {
    let mut out = String::new();
    let width = EXPERIMENTS.iter().map(|e| e.id.len()).max().unwrap_or(0);
    for exp in &EXPERIMENTS {
        out.push_str(&format!(
            "{id:<width$}  {paper:<22} {title}\n",
            id = exp.id,
            paper = exp.paper_ref,
            title = exp.title,
        ));
    }
    out
}

/// Executes a parsed command, returning the process exit code: 2 when a
/// `RISKS_*` variable is malformed.
pub fn execute(cmd: Command) -> i32 {
    let config = |flags: &Overrides| {
        ExpConfig::resolve(|key| std::env::var(key).ok(), flags)
            .map_err(|msg| eprintln!("risks: {msg}"))
    };
    match cmd {
        Command::Help => {
            print!("{USAGE}");
            0
        }
        Command::List { markdown } => {
            if markdown {
                print!("{}", markdown_matrix());
            } else {
                print!("{}", list_text());
            }
            0
        }
        Command::Describe { experiments } => {
            for exp in experiments {
                print!("{}", exp.describe());
            }
            0
        }
        Command::Run {
            experiments,
            flags,
            jobs,
            force,
            quiet,
        } => {
            let Ok(cfg) = config(&flags) else { return 2 };
            let opts = RunOptions { force, jobs, quiet };
            eprintln!(
                "[risks] {} experiment(s): runs={} scale={} threads={} seed={} out={}",
                experiments.len(),
                cfg.runs,
                cfg.scale,
                cfg.threads,
                cfg.seed,
                cfg.out_dir.display()
            );
            let summary = run_experiments(&experiments, &cfg, &opts);
            let (done, cached, failed) = summary.partition_ids();
            eprintln!(
                "[risks] finished in {:.1}s: {} completed, {} cached, {} failed",
                summary.wall_secs,
                done.len(),
                cached.len(),
                failed.len()
            );
            for (exp, status) in &summary.results {
                if let ExpStatus::Failed(msg) = status {
                    eprintln!("[risks]   {} failed: {msg}", exp.id);
                }
            }
            i32::from(summary.any_failed())
        }
        Command::Serve {
            spec,
            listen,
            flags,
            quiet,
        } => {
            let Ok(cfg) = config(&flags) else { return 2 };
            crate::serve::execute_serve(&spec, &cfg, quiet, listen.as_ref())
        }
        Command::Produce {
            spec,
            connect,
            part,
            parts,
            snapshot_every,
            client,
            flags,
            quiet,
        } => {
            let Ok(cfg) = config(&flags) else { return 2 };
            crate::serve::execute_produce(
                &spec,
                &cfg,
                &connect,
                part,
                parts,
                snapshot_every,
                quiet,
                client,
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parses_list_and_help() {
        assert_eq!(parse(&s(&[])).unwrap(), Command::Help);
        assert_eq!(parse(&s(&["help"])).unwrap(), Command::Help);
        assert_eq!(
            parse(&s(&["list"])).unwrap(),
            Command::List { markdown: false }
        );
        assert_eq!(
            parse(&s(&["list", "--markdown"])).unwrap(),
            Command::List { markdown: true }
        );
    }

    #[test]
    fn parses_run_with_overrides() {
        let cmd = parse(&s(&[
            "run", "fig04", "fig01", "--scale", "0.01", "--jobs", "2", "--force",
        ]))
        .unwrap();
        match cmd {
            Command::Run {
                experiments,
                flags,
                jobs,
                force,
                quiet,
            } => {
                let ids: Vec<&str> = experiments.iter().map(|e| e.id).collect();
                assert_eq!(ids, ["fig04", "fig01"]);
                assert_eq!(
                    flags,
                    Overrides {
                        scale: Some(0.01),
                        ..Overrides::default()
                    }
                );
                assert_eq!(jobs, Some(2));
                assert!(force);
                assert!(!quiet);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn all_expands_and_dedupes() {
        let cmd = parse(&s(&["describe", "fig04", "all"])).unwrap();
        match cmd {
            Command::Describe { experiments } => {
                assert_eq!(experiments.len(), EXPERIMENTS.len());
                assert_eq!(experiments[0].id, "fig04");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_unknowns() {
        assert!(parse(&s(&["run"])).is_err());
        assert!(parse(&s(&["run", "fig99"])).is_err());
        assert!(parse(&s(&["run", "fig01", "--bogus"])).is_err());
        assert!(parse(&s(&["run", "fig01", "--scale"])).is_err());
        assert!(parse(&s(&["describe", "fig01", "--markdwon"])).is_err());
        // Each command takes only the configuration flags it uses.
        assert!(parse(&s(&["serve", "--runs", "2"])).is_err());
        assert!(parse(&s(&["produce", "--connect", "h:1", "--threads", "2"])).is_err());
        assert!(parse(&s(&["produce", "--connect", "h:1", "--out", "d"])).is_err());
        assert!(parse(&s(&["frobnicate"])).is_err());
    }

    #[test]
    fn parses_serve_with_defaults_and_overrides() {
        let cmd = parse(&s(&["serve"])).unwrap();
        match cmd {
            Command::Serve {
                spec, flags, quiet, ..
            } => {
                assert_eq!(spec, ServeSpec::default());
                assert_eq!(flags, Overrides::default());
                assert!(!quiet);
            }
            other => panic!("unexpected {other:?}"),
        }
        let cmd = parse(&s(&[
            "serve",
            "--solution",
            "smp-oue",
            "--dataset",
            "nursery",
            "--shape",
            "churn",
            "--eps",
            "2.5",
            "--threads",
            "8",
            "--quiet",
        ]))
        .unwrap();
        match cmd {
            Command::Serve {
                spec, flags, quiet, ..
            } => {
                assert_eq!(
                    spec.solution,
                    crate::serve::solution_from_id("smp-oue").unwrap()
                );
                assert_eq!(spec.dataset, Corpus::Nursery);
                assert_eq!(spec.shape, TrafficShape::Churn);
                assert_eq!(spec.epsilon, 2.5);
                assert_eq!(flags.threads, Some(8));
                assert!(quiet);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_longitudinal_flags() {
        let cmd = parse(&s(&[
            "serve", "--rounds", "4", "--budget", "memoize", "--retain", "2",
        ]))
        .unwrap();
        match cmd {
            Command::Serve { spec, .. } => {
                assert_eq!(spec.rounds, 4);
                assert_eq!(spec.budget, BudgetPolicy::Memoize);
                assert_eq!(spec.retain, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The spec flags are shared with `produce` so fleets can match the
        // serving process.
        match parse(&s(&[
            "produce",
            "--connect",
            "h:1",
            "--rounds",
            "2",
            "--budget",
            "split",
        ]))
        .unwrap()
        {
            Command::Produce { spec, .. } => {
                assert_eq!(spec.rounds, 2);
                assert_eq!(spec.budget, BudgetPolicy::SplitEps);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&s(&["serve", "--rounds", "0"])).is_err());
        assert!(parse(&s(&["serve", "--retain", "0"])).is_err());
        assert!(parse(&s(&["serve", "--budget", "yolo"])).is_err());
        // --read-timeout-ms is a listener option.
        assert!(parse(&s(&["serve", "--read-timeout-ms", "50"])).is_err());
        match parse(&s(&[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--read-timeout-ms",
            "250",
        ]))
        .unwrap()
        {
            Command::Serve { listen, .. } => {
                assert_eq!(listen.unwrap().read_timeout_ms, 250);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn serve_rejects_bad_values() {
        assert!(parse(&s(&["serve", "--solution", "nope"])).is_err());
        assert!(parse(&s(&["serve", "--dataset", "mnist"])).is_err());
        assert!(parse(&s(&["serve", "--shape", "tsunami"])).is_err());
        assert!(parse(&s(&["serve", "--eps", "-1"])).is_err());
        assert!(parse(&s(&["serve", "--eps", "0"])).is_err());
        assert!(parse(&s(&["serve", "--bogus"])).is_err());
        // USAGE documents every parseable solution id.
        for (id, _) in crate::serve::SOLUTION_IDS {
            assert!(
                parse(&s(&["serve", "--solution", id])).is_ok(),
                "{id} must parse"
            );
        }
    }

    #[test]
    fn parses_serve_listen_options() {
        let cmd = parse(&s(&[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--producers",
            "3",
            "--addr-file",
            "/tmp/addr",
            "--users",
            "100000",
        ]))
        .unwrap();
        match cmd {
            Command::Serve { spec, listen, .. } => {
                assert_eq!(spec.users, Some(100_000));
                let listen = listen.expect("--listen must populate ListenOpts");
                assert_eq!(listen.addr, "127.0.0.1:0");
                assert_eq!(listen.producers, 3);
                assert_eq!(
                    listen.addr_file,
                    Some(std::path::PathBuf::from("/tmp/addr"))
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        // Plain serve stays in-process.
        match parse(&s(&["serve"])).unwrap() {
            Command::Serve { listen, .. } => assert_eq!(listen, None),
            other => panic!("unexpected {other:?}"),
        }
        // The networked-only flags are rejected without --listen.
        assert!(parse(&s(&["serve", "--producers", "2"])).is_err());
        assert!(parse(&s(&["serve", "--addr-file", "/tmp/addr"])).is_err());
        assert!(parse(&s(&["serve", "--users", "0"])).is_err());
    }

    #[test]
    fn parses_produce_with_fleet_coordinates() {
        let cmd = parse(&s(&[
            "produce",
            "--connect",
            "127.0.0.1:9000",
            "--part",
            "1/4",
            "--solution",
            "smp-olh",
            "--users",
            "5000",
            "--snapshot-every",
            "8",
            "--quiet",
        ]))
        .unwrap();
        match cmd {
            Command::Produce {
                spec,
                connect,
                part,
                parts,
                snapshot_every,
                quiet,
                ..
            } => {
                assert_eq!(connect, "127.0.0.1:9000");
                assert_eq!((part, parts), (1, 4));
                assert_eq!(snapshot_every, 8);
                assert_eq!(spec.solution, solution_from_id("smp-olh").unwrap());
                assert_eq!(spec.users, Some(5000));
                assert!(quiet);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Defaults: one-producer fleet, no snapshots.
        match parse(&s(&["produce", "--connect", "h:1"])).unwrap() {
            Command::Produce {
                part,
                parts,
                snapshot_every,
                ..
            } => {
                assert_eq!((part, parts), (0, 1));
                assert_eq!(snapshot_every, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_produce_client_options() {
        let cmd = parse(&s(&[
            "produce",
            "--connect",
            "h:1",
            "--auth-token",
            "sesame",
            "--retries",
            "3",
            "--client-timeout-ms",
            "500",
            "--fault-plan",
            "seed=7,every=4,max=2,kinds=drop+reset",
        ]))
        .unwrap();
        match cmd {
            Command::Produce { client, .. } => {
                assert_eq!(client.auth.as_deref(), Some("sesame"));
                assert_eq!(client.retries, 3);
                assert_eq!(client.read_timeout_ms, 500);
                let plan = client.fault_plan.expect("--fault-plan must be parsed");
                assert_eq!((plan.seed, plan.every, plan.max), (7, 4, 2));
                assert_eq!(plan.kinds.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Defaults: resilient client, no auth, no faults.
        match parse(&s(&["produce", "--connect", "h:1"])).unwrap() {
            Command::Produce { client, .. } => {
                assert_eq!(client, ldp_sim::ClientConfig::resilient());
                assert_eq!(client.retries, 8);
                assert_eq!(client.auth, None);
                assert_eq!(client.fault_plan, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Malformed fault plans fail at parse time, not mid-stream.
        assert!(parse(&s(&[
            "produce",
            "--connect",
            "h:1",
            "--fault-plan",
            "every=4"
        ]))
        .is_err());
        // The serve-side auth flag needs --listen.
        assert!(parse(&s(&["serve", "--auth-token", "sesame"])).is_err());
        match parse(&s(&["serve", "--listen", "h:0", "--auth-token", "sesame"])).unwrap() {
            Command::Serve { listen, .. } => {
                assert_eq!(listen.unwrap().auth_token.as_deref(), Some("sesame"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn produce_rejects_bad_arguments() {
        // --connect is mandatory.
        assert!(parse(&s(&["produce"])).is_err());
        assert!(parse(&s(&["produce", "--part", "0/2"])).is_err());
        // Malformed fleet coordinates.
        for bad in ["2/2", "3/2", "x/y", "0/0", "1", "1/", "/2"] {
            assert!(
                parse(&s(&["produce", "--connect", "h:1", "--part", bad])).is_err(),
                "`--part {bad}` must be rejected"
            );
        }
        // Unknown and serve-only flags.
        assert!(parse(&s(&["produce", "--connect", "h:1", "--bogus"])).is_err());
        assert!(parse(&s(&["produce", "--connect", "h:1", "--listen", "x"])).is_err());
        assert!(parse(&s(&["produce", "--connect", "h:1", "--retain", "2"])).is_err());
    }

    #[test]
    fn list_text_covers_registry() {
        let text = list_text();
        assert_eq!(text.lines().count(), EXPERIMENTS.len());
        assert!(text.contains("fig04"));
        assert!(text.contains("ablation_topk"));
    }
}
