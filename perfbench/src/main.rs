//! The repository's benchmark: three workloads over the collection and
//! attack stack, each with its end-to-end metrics, a correctness gate and
//! (with `--trace 1`) per-layer attribution measured from outside the
//! program — timed calls into public functions and per-thread `/proc`
//! counters.
//!
//! ```text
//! perfbench [--workload wire-fleet|epoch-rounds|reid-chained|all] [--seed N]
//!           [--seconds S] [--trace 0|1] [--n USERS] [--smoke]
//! ```
//!
//! Stdout carries one JSON record per workload (every metric under the
//! workload's own names, operation counts, the run-validity record and any
//! failed check), then a last line with exactly `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics untraced, the per-layer
//! metrics traced. The exit code is 1 when a correctness check fails and 2
//! on a usage or set-up error.
//!
//! A process runs one workload, so its peak RSS is that workload's:
//! `--workload all` (the default) runs each workload in a child process of
//! its own and merges their last lines, each metric named `workload/metric`.
//!
//! Each run warms up with one untimed iteration, then repeats set-up plus
//! measured phase until `--seconds` are spent and reports medians over the
//! phases. On a shared host, steal is the largest noise: episodes of it span
//! many phases and slow them by up to a fifth. So times are reported in
//! unstolen seconds (see `run::Span::unstolen_s`, the raw medians sit beside
//! them under `with_steal`), and CPU time per operation, which the host's
//! steal does not count, is reported beside each throughput.

mod check;
mod epoch_rounds;
mod procfs;
mod reid_chained;
mod replay;
mod run;
mod wire_fleet;

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use run::{median, Clock, Config, Run, Sample, Span};

/// One workload of the benchmark.
struct Workload {
    name: &'static str,
    n: usize,
    smoke_n: usize,
    /// Names of the operation rate and the CPU cost per operation in the
    /// workload's own record, and the CPU unit's size in ns.
    rate: &'static str,
    cpu: (&'static str, &'static str, f64),
    run: fn(&mut Run) -> Result<(), String>,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "wire-fleet",
        // Large enough that the corpus makes set-up steady (~0.2 s).
        n: 500_000,
        smoke_n: 4_000,
        rate: "reports_per_s",
        cpu: ("cpu_ns_per_report", "ns", 1.0),
        run: wire_fleet::run,
    },
    Workload {
        name: "epoch-rounds",
        n: 500_000,
        smoke_n: 4_000,
        rate: "reports_per_s",
        cpu: ("cpu_ns_per_report", "ns", 1.0),
        run: epoch_rounds::run,
    },
    Workload {
        name: "reid-chained",
        n: ldp_datasets::corpora::ADULT_N,
        smoke_n: 2_000,
        rate: "targets_per_s",
        cpu: ("cpu_us_per_target", "us", 1e3),
        run: reid_chained::run,
    },
];

/// The per-layer metrics of the last line: the layers every workload runs
/// (corpus, sanitize, absorb), each timed in a single-thread replay of the
/// workload's own population. A layer only some workloads run is in their
/// records only, so no workload reports a layer it does not execute.
const PER_LAYER: [&str; 3] = [
    "datasets.corpus_s",
    "solutions.sanitize_ns",
    "aggregator.absorb_ns",
];

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    n: Option<usize>,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.iter().collect(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        n: None,
        smoke: false,
    };
    let mut seconds = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if value == "all" => {}
            "--workload" => {
                let w = WORKLOADS.iter().find(|w| w.name == value);
                args.workloads = vec![w.ok_or_else(|| format!("unknown workload {value}"))?];
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--n" => args.n = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.seconds = seconds.unwrap_or(if args.smoke { 0.0 } else { 10.0 });
    Ok(args)
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": "u"}, ...}`, a value that is not finite
/// as `null`.
fn json_metrics<'a>(metrics: impl IntoIterator<Item = (&'a str, f64, &'a str)>) -> String {
    let body: Vec<String> = metrics
        .into_iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".to_string()
            };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The git revision of the working directory, when it is a checkout.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .ok()
            .map(|s| s.trim().to_string()),
        None => Some(head.to_string()),
    }
}

/// What the record and the last line need from one workload run.
struct Outcome {
    end_to_end: Vec<(&'static str, f64, &'static str)>,
    per_layer: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

/// Median throughput and CPU per operation over the phases.
fn rate_and_cpu(samples: &[Sample]) -> (f64, f64) {
    let rates: Vec<f64> = samples.iter().map(Sample::ops_per_s).collect();
    let cpus: Vec<f64> = samples.iter().map(Sample::cpu_ns_per_op).collect();
    (median(&rates), median(&cpus))
}

fn run_workload(w: &Workload, args: &Args) -> Result<Outcome, String> {
    let n = args.n.unwrap_or(if args.smoke { w.smoke_n } else { w.n });
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        n,
    };
    let clock = Clock::start();
    let mut run = Run::new(cfg);
    (w.run)(&mut run)?;
    let whole = clock.stop();

    let (rate, cpu_ns) = rate_and_cpu(&run.untraced);
    let setup_s = median(&run.setup_s);
    let peak_rss_mb = run.peak_rss_mb;
    let (cpu_name, cpu_unit, cpu_scale) = w.cpu;
    let mut own = vec![
        ("setup_s", setup_s, "s"),
        (w.rate, rate, "1/s"),
        (cpu_name, cpu_ns / cpu_scale, cpu_unit),
        ("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    for (name, (values, unit)) in &run.workload {
        own.push((name, median(values), unit));
    }

    let mut record = format!(
        "{{\"workload\": {}, \"n\": {n}, \"seed\": {}, \"iterations\": {{\"untraced\": {}, \"traced\": {}, \"setups\": {}}}, \"end_to_end\": {}",
        json_str(w.name),
        cfg.seed,
        run.untraced.len(),
        run.traced.len(),
        run.setup_s.len(),
        json_metrics(own.iter().copied()),
    );
    // The same medians with host steal left in.
    let wall_rates: Vec<f64> = run.untraced.iter().map(Sample::wall_ops_per_s).collect();
    let _ = write!(
        record,
        ", \"with_steal\": {}",
        json_metrics([
            ("setup_s", median(&run.setup_wall_s), "s"),
            (w.rate, median(&wall_rates), "1/s"),
        ])
    );
    let counts: Vec<String> = run
        .counts
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    let _ = write!(record, ", \"counts\": {{{}}}", counts.join(", "));

    let mut layers: Vec<(&str, f64, &'static str)> =
        vec![("datasets.corpus_s", median(&run.corpus_s), "s")];
    for (name, (values, unit)) in &run.layers {
        layers.push((name, median(values), unit));
    }
    if cfg.trace {
        let (traced_rate, traced_cpu) = rate_and_cpu(&run.traced);
        let _ = write!(
            record,
            ", \"traced_end_to_end\": {}, \"tracing_overhead_pct\": {}, \"per_layer\": {}",
            json_metrics([
                (w.rate, traced_rate, "1/s"),
                (cpu_name, traced_cpu / cpu_scale, cpu_unit),
            ]),
            json_metrics([
                (w.rate, (rate / traced_rate - 1.0) * 100.0, "%"),
                (cpu_name, (traced_cpu / cpu_ns - 1.0) * 100.0, "%"),
            ]),
            json_metrics(layers.iter().copied()),
        );
        let mut roles: Vec<(String, f64, &str)> = run
            .role_run_s
            .iter()
            .map(|(r, s)| (format!("{r}_busy_s"), *s, "s"))
            .collect();
        // Threads that exit inside the phase (the attack pipeline's
        // workers) leave no counters behind; their share is the remainder.
        let busy: f64 = run.role_run_s.values().sum();
        roles.push(("exited_busy_s".into(), run.role_cpu_s - busy, "s"));
        roles.push(("process_cpu_s".into(), run.role_cpu_s, "s"));
        roles.push(("coverage".into(), busy / run.role_cpu_s, "ratio"));
        let _ = write!(
            record,
            ", \"roles\": {}",
            json_metrics(roles.iter().map(|(n, v, u)| (n.as_str(), *v, *u)))
        );
    }
    let measured = |f: fn(&Span) -> f64| {
        run.untraced
            .iter()
            .chain(&run.traced)
            .map(|s| f(&s.span))
            .sum::<f64>()
    };
    let _ = write!(
        record,
        ", \"validity\": {{\"cores\": {}, \"git_rev\": {}, \"seed\": {}, \"wall_s\": {}, \"steal_s\": {}, \"measured_steal_s\": {}, \"cpu_s\": {}, \"measured_cpu_s\": {}}}",
        std::thread::available_parallelism().map_or(0, |c| c.get()),
        git_rev().map_or("null".into(), |r| json_str(&r)),
        cfg.seed,
        whole.wall_s,
        whole.steal_s,
        measured(|s| s.steal_s),
        whole.cpu_s,
        measured(|s| s.cpu_s),
    );
    // Every measured phase as [traced, wall_s, ops, cpu_s, steal_s], so an
    // outlying median can be traced to the phases behind it.
    let phases: Vec<String> = run
        .untraced
        .iter()
        .map(|s| (0, s))
        .chain(run.traced.iter().map(|s| (1, s)))
        .map(|(t, s)| {
            let Span {
                wall_s,
                cpu_s,
                steal_s,
            } = s.span;
            format!("[{t}, {wall_s}, {}, {cpu_s}, {steal_s}]", s.ops)
        })
        .collect();
    let _ = write!(record, ", \"phases\": [{}]", phases.join(", "));
    let failures: Vec<String> = run.failures.iter().map(|f| json_str(f)).collect();
    let _ = write!(record, ", \"failures\": [{}]}}", failures.join(", "));
    println!("{record}");

    // The last line's names, as `BENCHMARK.json` lists them. For
    // `reid-chained` a report is one user's sanitized tuple, collected and
    // then attacked as one target.
    let end_to_end = vec![
        ("setup_s", setup_s, "s"),
        ("reports_per_s", rate, "1/s"),
        ("cpu_ns_per_report", cpu_ns, "ns"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    let mut failures = run.failures;
    let mut per_layer = Vec::new();
    if cfg.trace {
        for name in PER_LAYER {
            match layers.iter().find(|(l, ..)| *l == name) {
                Some(&(_, v, u)) => per_layer.push((name, v, u)),
                None => failures.push(format!("per-layer metric {name} was not measured")),
            }
        }
    }
    Ok(Outcome {
        end_to_end,
        per_layer,
        attempted: run.attempted,
        failed: run.failed,
        failures,
    })
}

/// Runs every workload of `args` in a child process of its own, passes
/// their records through, and prints their last lines merged into one.
fn run_children(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut metrics = Vec::new();
    let (mut attempted, mut failed, mut correct) = (0u64, 0u64, true);
    for w in &args.workloads {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(n) = args.n {
            cmd.args(["--n", &n.to_string()]);
        }
        if args.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", w.name))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = match out.status.code() {
            Some(0 | 1) => lines.pop(),
            _ => None,
        };
        let merged = last.and_then(|l| merge_last_line(l, w.name));
        let Some((ok, a, f, body)) = merged else {
            return Err(format!(
                "{} ended with {} and no result",
                w.name, out.status
            ));
        };
        for line in lines {
            println!("{line}");
        }
        correct &= ok;
        attempted += a;
        failed += f;
        metrics.push(body);
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `correct`, `attempted`, `failed` and the body of `metrics` of a child's
/// last line, each metric renamed `workload/metric`. The line is this
/// program's own: every metric is `"name": {"value": v, "unit": "u"}`, so
/// `}, "` occurs only between two metrics.
fn merge_last_line(line: &str, workload: &str) -> Option<(bool, u64, u64, String)> {
    let (head, metrics) = line.split_once(", \"metrics\": {")?;
    let field = |name: &str| {
        let at = head.find(&format!("\"{name}\": "))? + name.len() + 4;
        head[at..].split(',').next()
    };
    let correct = field("correct")? == "true";
    let attempted = field("attempted")?.parse().ok()?;
    let failed = field("failed")?.parse().ok()?;
    let body = metrics.strip_suffix("}}")?.strip_prefix('"')?;
    let body = body.replace("}, \"", &format!("}}, \"{workload}/"));
    Some((correct, attempted, failed, format!("\"{workload}/{body}")))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workloads.len() > 1 {
        return run_children(&args).unwrap_or_else(|e| {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        });
    }
    let w = args.workloads[0];
    let outcome = match run_workload(w, &args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", w.name);
            return ExitCode::from(2);
        }
    };
    let chosen = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let mut correct = outcome.failures.is_empty();
    for &(name, value, _) in chosen {
        if !value.is_finite() {
            eprintln!("perfbench: {name} is not finite");
            correct = false;
        }
    }
    for f in &outcome.failures {
        eprintln!("perfbench: {}: check failed: {f}", w.name);
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted,
        outcome.failed,
        json_metrics(chosen.iter().copied())
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
