//! `reid-chained`: the paper's Fig. 4 chained attack — `AttackPipeline`
//! with `AttackKind::Reident` (FK-RI, top-k {1, 10}) against RS+FD[GRR] at
//! ε=4, 2 threads, over the paper's n = 45,222 Adult-like users.
//!
//! Why: it touches no server. Classifier training and profiling in
//! `Attack::fit` plus the sharded `evaluate` dominate, so it is the one
//! workload that exercises `attacks`, `gbdt`, `reident` and the collection
//! and observation pass; server changes must read flat here, and the
//! pipeline collapse is priced here.

use std::time::{Duration, Instant};

use ldp_core::attacks::{
    evaluate_serial, fit_rng, AdversaryView, Attack, AttackKind, ReidentConfig, ReidentOutcome,
};
use ldp_core::solutions::{RsFdProtocol, SolutionKind};
use ldp_datasets::corpora::adult_like;
use ldp_datasets::Dataset;
use ldp_sim::{user_rng, AttackPipeline, CollectionPipeline};

use crate::check;
use crate::run::{Clock, Probe, Run, Span};

const EPS: f64 = 4.0;
const THREADS: usize = 2;
/// Set-ups per iteration. One takes ~15 ms and its time drifts by a quarter
/// over seconds, so the median needs many samples spread over the run.
const SETUPS: usize = 5;

struct Setup {
    corpus: Span,
    dataset: Dataset,
    collection: CollectionPipeline,
    attack: AttackPipeline,
}

fn setup(n: usize, seed: u64) -> Result<Setup, String> {
    let clock = Clock::start();
    let dataset = adult_like(n, seed);
    let corpus = clock.stop();
    let collection = CollectionPipeline::from_kind(
        SolutionKind::RsFd(RsFdProtocol::Grr),
        &dataset.schema().cardinalities(),
        EPS,
    )
    .map_err(|e| format!("RS+FD[GRR] builds: {e}"))?
    .seed(seed)
    .threads(THREADS);
    let attack = AttackPipeline::from_kind(AttackKind::Reident(ReidentConfig::default()))
        .map_err(|e| format!("re-identification attack builds: {e}"))?
        .seed(seed)
        .threads(THREADS);
    Ok(Setup {
        corpus,
        dataset,
        collection,
        attack,
    })
}

pub fn run(run: &mut Run) -> Result<(), String> {
    let cfg = run.cfg;
    let mut reference: Option<(ReidentOutcome, Vec<Vec<f64>>)> = None;
    let mut last = None;
    run.measure(|run, traced| {
        let mut state = None;
        for _ in 0..SETUPS {
            let clock = Clock::start();
            let s = setup(cfg.n, cfg.seed)?;
            run.setups.push(clock.stop());
            run.corpus.push(s.corpus);
            state = Some(s);
        }
        let s = state.expect("SETUPS > 0");
        let (dataset, collection, attack) = (&s.dataset, &s.collection, &s.attack);
        let probe = Probe::start(traced);
        let result = attack.run(collection, dataset);
        let roles = probe.roles();
        let outcome = result.outcome.reident().cloned();
        let scored = outcome.as_ref().map_or(0, |o| o.n_targets as u64);
        let outcome = outcome.ok_or("the attack did not return a re-identification outcome")?;
        let sample = probe.stop(scored);

        // Checks, outside the measured phase.
        run.attempted += cfg.n as u64;
        run.failed += (cfg.n as u64).saturating_sub(scored);
        run.count("targets", cfg.n as u64);
        run.count("targets_scored", scored);
        run.check(scored == cfg.n as u64, || {
            format!("{scored} targets scored for a population of {}", cfg.n)
        });
        match &reference {
            None => {
                let serial = evaluate_serial(result.fitted.as_ref(), cfg.seed);
                run.check(serial.reident() == Some(&outcome), || {
                    format!("sharded outcome {outcome:?} != serial {serial:?}")
                });
                let estimates = &result.collection.estimates;
                let solution = collection.solution();
                if let Some(v) = check::band_violation(solution, dataset, estimates, cfg.n as u64) {
                    run.failures.push(format!("collected estimates: {v}"));
                }
                reference = Some((outcome, result.collection.estimates));
            }
            Some((first, estimates)) => {
                run.check(
                    *first == outcome && *estimates == result.collection.estimates,
                    || "a repeated run changed its outcome".into(),
                );
            }
        }
        if let Some(roles) = roles {
            run.add_roles(&roles);
        }
        last = Some(s);
        Ok(sample)
    })?;
    if !cfg.trace {
        return Ok(());
    }
    let Setup {
        dataset,
        collection,
        attack,
        ..
    } = last.expect("measure ran at least once");

    // Stage replay: the collection and observation pass (sanitize, then
    // absorb), then fit and evaluate, each timed on its own. The collection
    // pass is a small share of a run, below the run-to-run noise of fit, so
    // it is timed directly rather than left as the remainder of the run.
    let (outcome, estimates) = reference.expect("measure ran at least once");
    let solution = collection.solution();
    let started = Instant::now();
    let observed: Vec<_> = (0..dataset.n())
        .map(|uid| solution.report(dataset.row(uid), &mut user_rng(cfg.seed, uid as u64)))
        .collect();
    let sanitize = started.elapsed();
    let started = Instant::now();
    let mut aggregator = solution.aggregator();
    for report in &observed {
        aggregator.absorb(report);
    }
    let absorb = started.elapsed();
    run.check(aggregator.estimate() == estimates, || {
        "single-thread collection replay differs from the pipeline's".into()
    });
    let view = AdversaryView {
        dataset: &dataset,
        solution,
        observed: &observed,
        numeric_truth: None,
    };
    let clock = Clock::start();
    let fitted = attack.attack().fit(&view, &mut fit_rng(cfg.seed));
    let fit_s = clock.stop().unstolen_s();
    let clock = Clock::start();
    let replay_outcome = attack.evaluate(fitted.as_ref());
    let eval_s = clock.stop().unstolen_s();
    run.check(replay_outcome.reident() == Some(&outcome), || {
        "fit + evaluate replay differs from AttackPipeline::run".into()
    });
    let per_report = |d: Duration| d.as_nanos() as f64 / cfg.n as f64;
    run.layer("solutions.sanitize_ns", per_report(sanitize), "ns");
    run.layer("aggregator.absorb_ns", per_report(absorb), "ns");
    run.layer("pipeline.collect_s", (sanitize + absorb).as_secs_f64(), "s");
    run.layer("attacks.fit_s", fit_s, "s");
    run.layer("attacks.eval_us", eval_s * 1e6 / cfg.n as f64, "us");
    Ok(())
}
