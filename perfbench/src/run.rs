//! The measurement loop shared by the workloads, and what one run collects.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::procfs::{self, RoleDelta, Task};

/// The command-line settings of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Seed of every generated input (corpus, sanitize streams, attack).
    pub seed: u64,
    /// How long the measured loop runs (set-up and measured phases).
    pub seconds: f64,
    /// Alternate untraced and traced iterations, then replay the stages.
    pub trace: bool,
    /// Population size.
    pub n: usize,
}

/// Wall, process CPU and host steal seconds of one interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub wall_s: f64,
    /// CPU time of every thread of the process, exited ones included.
    pub cpu_s: f64,
    /// Time the host ran something else while a vCPU of this VM wanted to
    /// run, all vCPUs.
    pub steal_s: f64,
}

impl Span {
    /// The share of the CPU time its threads asked for that the host gave
    /// them: they asked for `cpu + steal` seconds and got `cpu`. Steal is
    /// counted in 10 ms ticks per vCPU, so only a span of seconds gives it
    /// to a few percent.
    pub fn unstolen_share(&self) -> f64 {
        let asked = self.cpu_s + self.steal_s;
        if asked > 0.0 {
            self.cpu_s / asked
        } else {
            1.0
        }
    }

    /// The wall seconds the interval would have lasted had the host stolen
    /// nothing: at the concurrency its threads ran with, it would have ended
    /// after `wall · cpu / (cpu + steal)`. Host steal comes in episodes that
    /// span many seconds and slow a phase by up to a fifth; this removes
    /// them. For spans of seconds only (see [`Span::unstolen_share`]).
    pub fn unstolen_s(&self) -> f64 {
        self.wall_s * self.unstolen_share()
    }
}

/// Times an interval in wall, process CPU and host steal seconds.
pub struct Clock {
    started: Instant,
    cpu_s: f64,
    steal_s: f64,
}

impl Clock {
    pub fn start() -> Clock {
        Clock {
            started: Instant::now(),
            cpu_s: procfs::process_cpu_s(),
            steal_s: procfs::steal_s(),
        }
    }

    pub fn stop(&self) -> Span {
        Span {
            wall_s: self.started.elapsed().as_secs_f64(),
            cpu_s: procfs::process_cpu_s() - self.cpu_s,
            steal_s: procfs::steal_s() - self.steal_s,
        }
    }
}

/// One measured phase.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub span: Span,
    /// Operations completed in it (reports acknowledged or absorbed,
    /// targets scored).
    pub ops: u64,
}

impl Sample {
    /// Operations per unstolen wall second.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.span.unstolen_s()
    }

    /// Operations per wall second, host steal included.
    pub fn wall_ops_per_s(&self) -> f64 {
        self.ops as f64 / self.span.wall_s
    }

    pub fn cpu_ns_per_op(&self) -> f64 {
        self.span.cpu_s * 1e9 / self.ops as f64
    }
}

/// A [`Clock`] over a measured phase that, when traced, also holds every
/// thread's counters at its start.
pub struct Probe {
    clock: Clock,
    tasks: Option<Vec<Task>>,
}

/// Per-role thread time over part of a measured phase, with the process
/// CPU time of the same interval.
pub struct Roles {
    pub roles: [(&'static str, RoleDelta); 5],
    pub cpu_s: f64,
}

impl Roles {
    pub fn get(&self, role: &str) -> RoleDelta {
        self.roles
            .iter()
            .find(|(r, _)| *r == role)
            .map(|(_, d)| *d)
            .unwrap_or_default()
    }
}

impl Probe {
    pub fn start(traced: bool) -> Probe {
        let tasks = traced.then(procfs::tasks);
        Probe {
            clock: Clock::start(),
            tasks,
        }
    }

    /// Thread-role deltas since the start (traced phases only).
    pub fn roles(&self) -> Option<Roles> {
        let before = self.tasks.as_ref()?;
        let after = procfs::tasks();
        Some(Roles {
            roles: procfs::role_deltas(before, &after),
            cpu_s: self.clock.stop().cpu_s,
        })
    }

    pub fn stop(self, ops: u64) -> Sample {
        Sample {
            span: self.clock.stop(),
            ops,
        }
    }
}

/// Everything one workload run collects.
pub struct Run {
    pub cfg: Config,
    pub untraced: Vec<Sample>,
    pub traced: Vec<Sample>,
    /// The set-ups and corpus materializations of the current iteration;
    /// [`Run::measure`] moves them into `setup_s` and `corpus_s`.
    pub setups: Vec<Span>,
    pub corpus: Vec<Span>,
    /// Every measured set-up and corpus materialization in unstolen
    /// seconds, and every set-up in wall seconds.
    pub setup_s: Vec<f64>,
    pub corpus_s: Vec<f64>,
    pub setup_wall_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Workload-specific operation counts, summed over the run.
    pub counts: BTreeMap<&'static str, u64>,
    /// Correctness checks that failed.
    pub failures: Vec<String>,
    /// Workload-specific end-to-end values, one sample per iteration.
    pub workload: BTreeMap<&'static str, (Vec<f64>, &'static str)>,
    /// Per-layer samples; the median of each is reported.
    pub layers: BTreeMap<&'static str, (Vec<f64>, &'static str)>,
    /// Per-role busy seconds summed over traced phases, and the process
    /// CPU seconds of the same intervals.
    pub role_run_s: BTreeMap<&'static str, f64>,
    pub role_cpu_s: f64,
    /// Peak RSS of the warm-up iteration.
    pub peak_rss_mb: f64,
}

impl Run {
    pub fn new(cfg: Config) -> Run {
        Run {
            cfg,
            untraced: Vec::new(),
            traced: Vec::new(),
            setups: Vec::new(),
            corpus: Vec::new(),
            setup_s: Vec::new(),
            corpus_s: Vec::new(),
            setup_wall_s: Vec::new(),
            attempted: 0,
            failed: 0,
            counts: BTreeMap::new(),
            failures: Vec::new(),
            workload: BTreeMap::new(),
            layers: BTreeMap::new(),
            role_run_s: BTreeMap::new(),
            role_cpu_s: 0.0,
            peak_rss_mb: 0.0,
        }
    }

    /// Records a failed correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn count(&mut self, name: &'static str, value: u64) {
        *self.counts.entry(name).or_insert(0) += value;
    }

    pub fn workload_sample(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.workload
            .entry(name)
            .or_insert((Vec::new(), unit))
            .0
            .push(value);
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers
            .entry(name)
            .or_insert((Vec::new(), unit))
            .0
            .push(value);
    }

    /// Adds a traced phase's role times to the coverage account.
    pub fn add_roles(&mut self, roles: &Roles) {
        for (role, d) in &roles.roles {
            *self.role_run_s.entry(role).or_insert(0.0) += d.run_ns as f64 * 1e-9;
        }
        self.role_cpu_s += roles.cpu_s;
    }

    /// Runs `iterate` once and moves the set-up and corpus spans it pushed
    /// into the run's samples (when `keep`) in unstolen seconds. A set-up
    /// lasts tens to hundreds of ms, a few steal ticks, so it is scaled by
    /// the steal-free share of the whole iteration, which lasts seconds.
    fn iterate_once(
        &mut self,
        iterate: &mut impl FnMut(&mut Run, bool) -> Result<Sample, String>,
        traced: bool,
        keep: bool,
    ) -> Result<Sample, String> {
        let clock = Clock::start();
        let sample = iterate(self, traced)?;
        let share = clock.stop().unstolen_share();
        let setups = std::mem::take(&mut self.setups);
        let corpus = std::mem::take(&mut self.corpus);
        if keep {
            self.setup_s.extend(setups.iter().map(|s| s.wall_s * share));
            self.setup_wall_s.extend(setups.iter().map(|s| s.wall_s));
            self.corpus_s
                .extend(corpus.iter().map(|s| s.wall_s * share));
        }
        Ok(sample)
    }

    /// Runs `iterate` (one set-up plus one measured phase) once to warm up
    /// — its outputs are checked, its set-up and phase times dropped, and
    /// the peak RSS it reaches is the run's — then until the run's seconds
    /// are spent and at least one untraced and, when tracing, one traced
    /// phase was measured.
    /// Traced runs alternate the two kinds so both see the same host.
    pub fn measure(
        &mut self,
        mut iterate: impl FnMut(&mut Run, bool) -> Result<Sample, String>,
    ) -> Result<(), String> {
        self.iterate_once(&mut iterate, false, false)?;
        // The process runs one workload. Later phases reuse a heap the
        // earlier ones fragmented, so only the first one's peak describes
        // the workload.
        self.peak_rss_mb = procfs::peak_rss_mb();
        let started = Instant::now();
        for i in 0.. {
            let traced = self.cfg.trace && i % 2 == 1;
            let sample = self.iterate_once(&mut iterate, traced, true)?;
            if traced {
                self.traced.push(sample);
            } else {
                self.untraced.push(sample);
            }
            let covered = !self.untraced.is_empty() && (!self.cfg.trace || !self.traced.is_empty());
            if covered && started.elapsed().as_secs_f64() >= self.cfg.seconds {
                break;
            }
        }
        Ok(())
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of a non-empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}
