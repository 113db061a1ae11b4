//! Cross-experiment scheduling: runs a selection of registry experiments in
//! parallel over [`ldp_sim::par::par_queue`], cost-sorted longest-first, with
//! per-run JSON manifests for caching and auditability.
//!
//! The thread budget is split two ways: up to [`RunOptions::jobs`]
//! experiments run concurrently (outer queue), and each experiment's
//! [`ExpConfig::threads`] is divided by the number of concurrent jobs so the
//! machine is never oversubscribed. A panicking experiment is caught,
//! reported as [`ExpStatus::Failed`] and does not take the other experiments
//! down — the runner's exit status (via [`RunSummary::any_failed`]) is how
//! failures propagate.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use ldp_sim::par::par_queue;

use crate::manifest::{config_hash, git_rev, Manifest};
use crate::registry::Experiment;
use crate::table::Table;
use crate::ExpConfig;

/// Options of one `risks run` invocation.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Re-run even when a fresh manifest certifies a cache hit.
    pub force: bool,
    /// Maximum experiments in flight at once (`None`: min(4, threads)).
    pub jobs: Option<usize>,
    /// Suppress table output (manifests and CSVs are still written).
    pub quiet: bool,
}

/// How one scheduled experiment ended.
#[derive(Debug, Clone, PartialEq)]
pub enum ExpStatus {
    /// Ran to completion; manifest and CSVs written.
    Completed {
        /// Wall-clock seconds the experiment took.
        wall_secs: f64,
        /// Total data rows produced.
        rows: usize,
    },
    /// Skipped: a manifest with the same config hash and intact outputs
    /// already exists (pass `--force` to re-run).
    Cached,
    /// The experiment panicked (the payload is the panic message) or
    /// returned a different number of tables than its row has outputs.
    Failed(String),
}

/// The outcome of one scheduling pass over a selection of experiments.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Per-experiment status, in the order the experiments were requested.
    pub results: Vec<(&'static Experiment, ExpStatus)>,
    /// Wall-clock seconds for the whole pass.
    pub wall_secs: f64,
}

impl RunSummary {
    /// Whether any experiment failed (drives the CLI's exit code — the old
    /// `bin/all.rs` silently dropped results and always exited 0).
    pub fn any_failed(&self) -> bool {
        self.results
            .iter()
            .any(|(_, s)| matches!(s, ExpStatus::Failed(_)))
    }

    /// The statuses partitioned into (completed, cached, failed) ids.
    pub fn partition_ids(&self) -> (Vec<&'static str>, Vec<&'static str>, Vec<&'static str>) {
        let mut done = Vec::new();
        let mut cached = Vec::new();
        let mut failed = Vec::new();
        for (exp, status) in &self.results {
            match status {
                ExpStatus::Completed { .. } => done.push(exp.id),
                ExpStatus::Cached => cached.push(exp.id),
                ExpStatus::Failed(_) => failed.push(exp.id),
            }
        }
        (done, cached, failed)
    }
}

/// Runs the selected experiments under `cfg`, returning one status per
/// requested experiment (input order). See the module docs for the
/// scheduling model.
pub fn run_experiments(
    experiments: &[&'static Experiment],
    cfg: &ExpConfig,
    opts: &RunOptions,
) -> RunSummary {
    let started = Instant::now();
    let rev = git_rev();

    // Cache pass: a fresh manifest (same config hash and code revision,
    // outputs intact) is a hit unless --force.
    let mut scheduled: Vec<&'static Experiment> = Vec::new();
    let mut statuses: Vec<(&'static Experiment, Option<ExpStatus>)> = Vec::new();
    for &exp in experiments {
        let fresh = !opts.force
            && Manifest::load(&cfg.out_dir, exp.id)
                .is_some_and(|m| m.is_fresh(exp.id, cfg, rev.as_deref()));
        if fresh {
            eprintln!(
                "[risks] {} cached (manifest fresh; --force to re-run)",
                exp.id
            );
            statuses.push((exp, Some(ExpStatus::Cached)));
        } else {
            scheduled.push(exp);
            statuses.push((exp, None));
        }
    }

    // Longest-first: the queue hands jobs out in order, so sorting by
    // descending cost keeps the expensive figures from becoming the tail.
    scheduled.sort_by(|a, b| b.cost.total_cmp(&a.cost));

    let jobs = opts
        .jobs
        .unwrap_or_else(|| cfg.threads.min(4))
        .clamp(1, scheduled.len().max(1));
    // Split the thread budget across concurrent experiments; each experiment
    // still parallelizes internally over its share.
    let inner = ExpConfig {
        threads: (cfg.threads / jobs).max(1),
        ..cfg.clone()
    };

    let outcomes: Vec<(&'static Experiment, ExpStatus)> = par_queue(scheduled.len(), jobs, |i| {
        let exp = scheduled[i];
        (exp, run_one(exp, &inner, opts, rev.as_deref()))
    });

    for (exp, status) in outcomes {
        let slot = statuses
            .iter_mut()
            .find(|(e, s)| e.id == exp.id && s.is_none())
            .expect("scheduled experiment came from the request list");
        slot.1 = Some(status);
    }
    RunSummary {
        results: statuses
            .into_iter()
            .map(|(e, s)| (e, s.expect("every experiment got a status")))
            .collect(),
        wall_secs: started.elapsed().as_secs_f64(),
    }
}

/// Runs one experiment, prints its tables, and persists each as the CSV its
/// row names plus the manifest.
///
/// # Panics
/// Panics on I/O failure — experiment runs should fail loudly.
fn run_one(
    exp: &Experiment,
    cfg: &ExpConfig,
    opts: &RunOptions,
    git_rev: Option<&str>,
) -> ExpStatus {
    eprintln!("[risks] running {} ({}) …", exp.id, exp.paper_ref);
    let started = Instant::now();
    let fail = |msg: String| {
        eprintln!("[risks] {} FAILED: {msg}", exp.id);
        ExpStatus::Failed(msg)
    };
    let tables = match catch_unwind(AssertUnwindSafe(|| (exp.run)(cfg))) {
        Ok(tables) if tables.len() == exp.outputs.len() => tables,
        Ok(tables) => {
            let (got, want) = (tables.len(), exp.outputs.len());
            return fail(format!("returned {got} tables for {want} outputs"));
        }
        Err(payload) => return fail(panic_message(payload.as_ref())),
    };
    let wall_secs = started.elapsed().as_secs_f64();
    if !opts.quiet {
        // One `print!` keeps the output of concurrently finishing
        // experiments unscrambled.
        let rendered: Vec<String> = tables.iter().map(Table::render).collect();
        print!("{}", rendered.join("\n"));
    }
    for (table, file) in tables.iter().zip(exp.outputs) {
        table.write_csv(&cfg.out_dir, file);
    }
    let manifest = Manifest {
        id: exp.id.to_string(),
        config_hash: config_hash(exp.id, cfg),
        seed: cfg.seed,
        runs: cfg.runs,
        scale: cfg.scale,
        wall_secs,
        rows: tables.iter().map(Table::len).sum(),
        git_rev: git_rev.map(str::to_string),
        outputs: exp.outputs.iter().map(|f| f.to_string()).collect(),
    };
    let path = manifest.write(&cfg.out_dir);
    eprintln!(
        "[risks] {} done in {wall_secs:.1}s ({} rows) → {} + {}",
        exp.id,
        manifest.rows,
        manifest.outputs.join(", "),
        path.display()
    );
    ExpStatus::Completed {
        wall_secs,
        rows: manifest.rows,
    }
}

/// Human-readable text of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "experiment panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::EXPERIMENTS;

    #[test]
    fn summary_partitions_and_flags_failures() {
        let summary = RunSummary {
            results: vec![
                (
                    &EXPERIMENTS[0],
                    ExpStatus::Completed {
                        wall_secs: 0.1,
                        rows: 5,
                    },
                ),
                (&EXPERIMENTS[1], ExpStatus::Cached),
                (&EXPERIMENTS[2], ExpStatus::Failed("boom".into())),
            ],
            wall_secs: 0.2,
        };
        assert!(summary.any_failed());
        let (done, cached, failed) = summary.partition_ids();
        assert_eq!(done, ["fig01"]);
        assert_eq!(cached, ["fig02"]);
        assert_eq!(failed, ["fig03"]);
    }

    #[test]
    fn a_table_count_that_differs_from_the_outputs_fails_the_experiment() {
        let one_table = EXPERIMENTS[0].run;
        let two_outputs = Experiment {
            id: "miscounted",
            outputs: &["a.csv", "b.csv"],
            run: one_table,
            ..EXPERIMENTS[0]
        };
        let out_dir = std::env::temp_dir().join("risks_runner_miscounted");
        let cfg = ExpConfig {
            runs: 1,
            scale: 0.01,
            threads: 1,
            seed: 1,
            out_dir: out_dir.clone(),
        };
        let status = run_one(&two_outputs, &cfg, &RunOptions::default(), None);
        assert_eq!(
            status,
            ExpStatus::Failed("returned 1 tables for 2 outputs".into())
        );
        // Nothing is persisted for a failed experiment.
        assert!(!out_dir.join("a.csv").exists());
        assert!(!out_dir.join("miscounted.manifest.json").exists());
    }
}
