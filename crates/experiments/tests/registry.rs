//! Registry + runner integration tests: construction, id uniqueness, stable
//! `describe` output, the manifest cache round-trip, and the README
//! reproduction matrix (which is generated from the registry and must not
//! drift).

use std::collections::HashSet;
use std::path::PathBuf;

use ldp_experiments::manifest::Manifest;
use ldp_experiments::registry::{markdown_matrix, Experiment, EXPERIMENTS};
use ldp_experiments::runner::{run_experiments, ExpStatus, RunOptions};
use ldp_experiments::ExpConfig;

#[test]
fn every_row_has_a_unique_id_and_unique_outputs() {
    let mut ids = HashSet::new();
    let mut outputs = HashSet::new();
    for exp in &EXPERIMENTS {
        assert!(ids.insert(exp.id), "duplicate id {}", exp.id);
        assert!(!exp.title.is_empty());
        assert!(!exp.paper_ref.is_empty());
        assert!(exp.cost > 0.0);
        assert!(!exp.outputs.is_empty());
        for o in exp.outputs {
            assert!(outputs.insert(*o), "output {o} produced by two experiments");
            assert!(o.ends_with(".csv"));
        }
        assert_eq!(Experiment::from_id(exp.id).map(|e| e.id), Some(exp.id));
    }
    assert!(Experiment::from_id("fig07").is_none());
    assert_eq!(ids.len(), 21, "the registry covers all 21 experiments");
}

#[test]
fn describe_output_is_stable() {
    // `risks describe` is part of the documented surface; a change here must
    // be deliberate (and mirrored in docs).
    assert_eq!(
        Experiment::from_id("fig04").unwrap().describe(),
        "fig04: RID-ACC on Adult vs RS+FD[GRR] (chained attack)\n  \
         paper:    §4.2, Fig. 4\n  \
         datasets: Adult\n  \
         outputs:  fig04.csv\n  \
         est. cost: ~3 min (default scale) / ~3.3 h (RISKS_FULL=1)\n"
    );
    assert_eq!(
        Experiment::from_id("fig01").unwrap().describe(),
        "fig01: analytical expected attacker ACC over multiple collections\n  \
         paper:    §3.2.3, Fig. 1\n  \
         datasets: none (analytical)\n  \
         outputs:  fig01.csv\n  \
         est. cost: <1 s (default scale) / <1 s (RISKS_FULL=1)\n"
    );
}

#[test]
fn smoke_run_roundtrips_a_cached_manifest() {
    let out_dir = std::env::temp_dir().join(format!("risks_registry_smoke_{}", std::process::id()));
    std::fs::remove_dir_all(&out_dir).ok();
    let cfg = ExpConfig {
        runs: 1,
        scale: 0.01,
        threads: 2,
        seed: 42,
        out_dir: out_dir.clone(),
    };
    let opts = RunOptions {
        quiet: true,
        ..RunOptions::default()
    };

    let fig04 = Experiment::from_id("fig04").unwrap();

    // First invocation runs fig04 and writes CSV + manifest.
    let summary = run_experiments(&[fig04], &cfg, &opts);
    assert!(!summary.any_failed());
    assert!(
        matches!(summary.results[0].1, ExpStatus::Completed { rows, .. } if rows > 0),
        "{:?}",
        summary.results
    );
    assert!(out_dir.join("fig04.csv").is_file());
    let manifest = Manifest::load(&out_dir, "fig04").expect("manifest written and parseable");
    assert_eq!(manifest.id, "fig04");
    assert_eq!(manifest.seed, 42);
    assert_eq!(manifest.outputs, ["fig04.csv"]);
    assert!(manifest.rows > 0);
    assert!(manifest.wall_secs > 0.0);

    // A second identical invocation recognizes the manifest as a cache hit.
    let summary = run_experiments(&[fig04], &cfg, &opts);
    assert_eq!(summary.results[0].1, ExpStatus::Cached);

    // Changing a result-determining knob invalidates the cache; --force does
    // too even when nothing changed.
    let reseeded = ExpConfig {
        seed: 7,
        ..cfg.clone()
    };
    let summary = run_experiments(&[fig04], &reseeded, &opts);
    assert!(matches!(summary.results[0].1, ExpStatus::Completed { .. }));
    let forced = RunOptions {
        force: true,
        ..opts.clone()
    };
    let summary = run_experiments(&[fig04], &cfg, &forced);
    assert!(matches!(summary.results[0].1, ExpStatus::Completed { .. }));

    std::fs::remove_dir_all(&out_dir).ok();
}

#[test]
fn readme_reproduction_matrix_matches_registry() {
    // README.md embeds `risks list --markdown` between markers; regenerating
    // it is the fix when this fails:
    //   cargo run -p ldp-experiments --bin risks -- list --markdown
    let readme_path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../README.md");
    let readme = std::fs::read_to_string(readme_path).expect("README.md readable");
    let begin = "<!-- BEGIN REPRODUCTION MATRIX (generated: risks list --markdown) -->\n";
    let end = "<!-- END REPRODUCTION MATRIX -->";
    let start = readme
        .find(begin)
        .expect("README.md has the reproduction-matrix begin marker")
        + begin.len();
    let stop = readme
        .find(end)
        .expect("README.md has the reproduction-matrix end marker");
    assert_eq!(
        readme[start..stop].trim_end_matches('\n'),
        markdown_matrix().trim_end_matches('\n'),
        "README reproduction matrix drifted from the registry — regenerate \
         it with `risks list --markdown`"
    );
}
