//! Experiment configuration: the `RISKS_*` environment variables under the
//! `risks` command-line flags.

use std::path::PathBuf;

use ldp_datasets::corpora;
use ldp_datasets::{mixed, Dataset, MixedDataset};
use ldp_gbdt::GbdtParams;

/// Shared configuration of all experiment binaries.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Repetitions averaged per parameter point.
    pub runs: usize,
    /// Fraction of each dataset's paper-scale `n` to simulate.
    pub scale: f64,
    /// Worker threads for the parameter-grid sweeps.
    pub threads: usize,
    /// Master seed; every (figure, run, point) derives its own stream.
    pub seed: u64,
    /// Directory receiving CSV outputs.
    pub out_dir: PathBuf,
}

/// The `--runs` / `--scale` / `--seed` / `--threads` / `--out` flags of one
/// `risks` invocation; each flag given replaces its `RISKS_*` variable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Overrides {
    /// `--runs`, over `RISKS_RUNS`.
    pub runs: Option<usize>,
    /// `--scale`, over `RISKS_SCALE`.
    pub scale: Option<f64>,
    /// `--seed`, over `RISKS_SEED`.
    pub seed: Option<u64>,
    /// `--threads`, over `RISKS_THREADS`.
    pub threads: Option<usize>,
    /// `--out`, over `RISKS_OUT`.
    pub out: Option<String>,
}

/// The variable `key` parsed, `None` when it is unset.
fn parsed_var<T: std::str::FromStr>(
    env: &impl Fn(&str) -> Option<String>,
    key: &str,
) -> Result<Option<T>, String> {
    env(key)
        .map(|raw| {
            raw.parse()
                .map_err(|_| format!("invalid value `{raw}` for `{key}`"))
        })
        .transpose()
}

impl ExpConfig {
    /// Resolves the configuration from the `RISKS_*` variables that `env`
    /// looks up (see the crate docs) and the command-line `flags`: a flag
    /// beats its variable, which beats the default. The clamps apply last:
    /// `runs ≥ 1`, `scale ∈ [0.01, 1]`, `threads ≥ 1`.
    ///
    /// # Errors
    /// A variable that is set but does not parse, named in the message —
    /// also when a flag overrides it — and a non-finite scale, named by the
    /// flag or variable it came from.
    pub fn resolve(
        env: impl Fn(&str) -> Option<String>,
        flags: &Overrides,
    ) -> Result<ExpConfig, String> {
        let full = parsed_var(&env, "RISKS_FULL")? == Some(1u8);
        let runs = flags.runs.or(parsed_var(&env, "RISKS_RUNS")?);
        let scale = flags.scale.or(parsed_var(&env, "RISKS_SCALE")?);
        // `clamp` passes NaN through: a NaN scale would size every corpus
        // to its floor and write a manifest no later run can parse.
        if let Some(scale) = scale.filter(|s| !s.is_finite()) {
            let source = if flags.scale.is_some() {
                "--scale"
            } else {
                "RISKS_SCALE"
            };
            return Err(format!("`{source}` must be finite, got {scale}"));
        }
        let seed = flags.seed.or(parsed_var(&env, "RISKS_SEED")?);
        let threads = flags.threads.or(parsed_var(&env, "RISKS_THREADS")?);
        let out = flags.out.clone().or(env("RISKS_OUT"));
        Ok(ExpConfig {
            runs: runs.unwrap_or(if full { 20 } else { 3 }).max(1),
            scale: scale
                .unwrap_or(if full { 1.0 } else { 0.15 })
                .clamp(0.01, 1.0),
            threads: threads.unwrap_or_else(ldp_sim::par::default_threads).max(1),
            seed: seed.unwrap_or(42),
            out_dir: PathBuf::from(out.unwrap_or_else(|| "results".to_string())),
        })
    }

    fn scaled(&self, paper_n: usize, floor: usize) -> usize {
        ((paper_n as f64 * self.scale) as usize)
            .max(floor)
            .min(paper_n)
    }

    /// MixedSurvey corpus (categorical survey plus age / hours-per-week
    /// continuous attributes) at the configured scale — the bed of the
    /// numeric-dimension extension experiments.
    pub fn mixed_survey(&self, run: u64) -> MixedDataset {
        mixed::mixed_survey_like(
            self.scaled(mixed::MIXED_SURVEY_N, 1500),
            self.seed ^ (run << 8) ^ 0x317ED,
        )
    }

    /// The scaled-down XGBoost stand-in used by every inference attack.
    ///
    /// `min_child_weight` is lowered from XGBoost's default 1.0 because the
    /// softmax hessian per row is ≈ p(1−p) ≈ 1/d, so at sub-paper population
    /// scales a weight of 1.0 vetoes exactly the rare-bit splits the UE
    /// attacks rely on.
    pub fn attack_gbdt(&self) -> GbdtParams {
        GbdtParams {
            rounds: 15,
            max_depth: 4,
            learning_rate: 0.3,
            subsample: 0.8,
            colsample: 0.8,
            min_child_weight: 0.05,
            ..GbdtParams::default()
        }
    }
}

/// One of the paper's three categorical corpora. Its generator, its seed
/// salt, its paper-scale n and its scale floor are defined here and nowhere
/// else, so every experiment and every `risks serve` / `risks produce`
/// process that names a corpus draws the same population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corpus {
    /// Adult-like (d = 10).
    Adult,
    /// ACSEmployment-like (d = 18).
    Acs,
    /// Nursery-like (d = 9, uniform marginals — the negative control).
    Nursery,
}

impl Corpus {
    /// Every corpus, in CLI documentation order.
    pub const ALL: [Corpus; 3] = [Corpus::Adult, Corpus::Acs, Corpus::Nursery];

    /// Stable CLI identifier.
    pub fn id(self) -> &'static str {
        match self {
            Corpus::Adult => "adult",
            Corpus::Acs => "acs",
            Corpus::Nursery => "nursery",
        }
    }

    /// Looks a corpus up by its CLI identifier.
    pub fn from_id(id: &str) -> Option<Corpus> {
        Corpus::ALL.into_iter().find(|c| c.id() == id)
    }

    /// The population size of the paper's corpus.
    pub fn paper_n(self) -> usize {
        match self {
            Corpus::Adult => corpora::ADULT_N,
            Corpus::Acs => corpora::ACS_EMPLOYMENT_N,
            Corpus::Nursery => corpora::NURSERY_N,
        }
    }

    /// The population size at `cfg`'s scale: the paper's n scaled, but
    /// never below the corpus's floor.
    pub fn n(self, cfg: &ExpConfig) -> usize {
        let floor = match self {
            Corpus::Adult => 2000,
            Corpus::Acs | Corpus::Nursery => 1500,
        };
        cfg.scaled(self.paper_n(), floor)
    }

    /// `n` users drawn from `seed` under this corpus's salt.
    fn generate(self, n: usize, seed: u64) -> Dataset {
        match self {
            Corpus::Adult => corpora::adult_like(n, seed),
            Corpus::Acs => corpora::acs_employment_like(n, seed ^ 0xACE),
            Corpus::Nursery => corpora::nursery_like(n, seed ^ 0x9925),
        }
    }

    /// Repetition `run`'s corpus at `cfg`'s scale.
    pub fn build(self, cfg: &ExpConfig, run: u64) -> Dataset {
        self.generate(self.n(cfg), cfg.seed ^ (run << 8))
    }

    /// The run-0 corpus, with `users` (at least 1) in place of the scaled n
    /// when given.
    ///
    /// `--users` exists because `--scale` is capped at the paper's n (the
    /// Adult corpus tops out at 45,222 users) while the ingestion-tier soak
    /// runs want millions. Server and producer processes agree on the corpus
    /// bit for bit whenever they agree on `(corpus, seed, users)`.
    pub fn build_sized(self, cfg: &ExpConfig, users: Option<usize>) -> Dataset {
        let n = users.map_or_else(|| self.n(cfg), |n| n.max(1));
        self.generate(n, cfg.seed)
    }
}

impl std::fmt::Display for Corpus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An injected environment holding exactly `vars`.
    fn env(vars: &[(&str, &str)]) -> impl Fn(&str) -> Option<String> {
        let vars: Vec<(String, String)> = vars
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        move |key| vars.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
    }

    #[test]
    fn defaults_apply_without_variables_or_flags() {
        let cfg = ExpConfig::resolve(env(&[]), &Overrides::default()).unwrap();
        assert_eq!((cfg.runs, cfg.scale, cfg.seed), (3, 0.15, 42));
        assert!(cfg.threads >= 1);
        assert_eq!(cfg.out_dir, PathBuf::from("results"));
        let full = ExpConfig::resolve(env(&[("RISKS_FULL", "1")]), &Overrides::default()).unwrap();
        assert_eq!((full.runs, full.scale), (20, 1.0));
    }

    #[test]
    fn a_flag_beats_its_variable_and_the_clamps_apply() {
        let vars = env(&[
            ("RISKS_RUNS", "7"),
            ("RISKS_SCALE", "0.5"),
            ("RISKS_SEED", "9"),
            ("RISKS_THREADS", "3"),
            ("RISKS_OUT", "from-env"),
        ]);
        let cfg = ExpConfig::resolve(&vars, &Overrides::default()).unwrap();
        assert_eq!((cfg.runs, cfg.scale, cfg.seed, cfg.threads), (7, 0.5, 9, 3));
        assert_eq!(cfg.out_dir, PathBuf::from("from-env"));

        let flags = Overrides {
            runs: Some(2),
            scale: Some(0.25),
            seed: Some(5),
            threads: Some(4),
            out: Some("from-flag".to_string()),
        };
        let cfg = ExpConfig::resolve(&vars, &flags).unwrap();
        assert_eq!(
            (cfg.runs, cfg.scale, cfg.seed, cfg.threads),
            (2, 0.25, 5, 4)
        );
        assert_eq!(cfg.out_dir, PathBuf::from("from-flag"));

        // Out-of-range values are clamped, from a variable or a flag alike.
        let low = env(&[("RISKS_RUNS", "0"), ("RISKS_SCALE", "0.0001")]);
        let cfg = ExpConfig::resolve(&low, &Overrides::default()).unwrap();
        assert_eq!((cfg.runs, cfg.scale), (1, 0.01));
        let high = Overrides {
            scale: Some(7.0),
            threads: Some(0),
            ..Overrides::default()
        };
        let cfg = ExpConfig::resolve(env(&[]), &high).unwrap();
        assert_eq!((cfg.scale, cfg.threads), (1.0, 1));
    }

    #[test]
    fn a_malformed_variable_is_an_error_naming_it() {
        for key in [
            "RISKS_FULL",
            "RISKS_RUNS",
            "RISKS_SCALE",
            "RISKS_SEED",
            "RISKS_THREADS",
        ] {
            let err = ExpConfig::resolve(env(&[(key, "abc")]), &Overrides::default())
                .expect_err("a malformed value must not fall back to the default");
            assert_eq!(err, format!("invalid value `abc` for `{key}`"));
        }
        // A flag does not hide a malformed variable.
        let flags = Overrides {
            scale: Some(0.5),
            ..Overrides::default()
        };
        assert!(ExpConfig::resolve(env(&[("RISKS_SCALE", "abc")]), &flags).is_err());
    }

    #[test]
    fn a_non_finite_scale_flag_is_an_error_naming_it() {
        for scale in [f64::NAN, f64::INFINITY] {
            let flags = Overrides {
                scale: Some(scale),
                ..Overrides::default()
            };
            let err = ExpConfig::resolve(env(&[("RISKS_SCALE", "0.5")]), &flags)
                .expect_err("a non-finite scale must not be clamped into range");
            assert_eq!(err, format!("`--scale` must be finite, got {scale}"));
        }
    }

    #[test]
    fn a_non_finite_scale_variable_is_an_error_naming_it() {
        for raw in ["NaN", "inf", "-inf"] {
            let err = ExpConfig::resolve(env(&[("RISKS_SCALE", raw)]), &Overrides::default())
                .expect_err("a non-finite scale must not be clamped into range");
            assert!(err.starts_with("`RISKS_SCALE` must be finite"), "{err}");
        }
    }

    #[test]
    fn scaled_respects_floor_and_cap() {
        let cfg = ExpConfig {
            runs: 1,
            scale: 0.01,
            threads: 1,
            seed: 0,
            out_dir: PathBuf::from("results"),
        };
        assert_eq!(cfg.scaled(45_222, 2000), 2000);
        let cfg_full = ExpConfig { scale: 1.0, ..cfg };
        assert_eq!(cfg_full.scaled(45_222, 2000), 45_222);
    }

    #[test]
    fn corpus_ids_roundtrip() {
        for corpus in Corpus::ALL {
            assert_eq!(Corpus::from_id(corpus.id()), Some(corpus));
        }
        assert_eq!(Corpus::from_id("mnist"), None);
    }

    /// The experiments' corpus (`build`) and the one `risks serve` and
    /// `risks produce --users` draw (`build_sized`) are the same population
    /// at the same n, and `n` predicts that size without generating it.
    #[test]
    fn both_corpus_paths_draw_the_same_population() {
        for scale in [0.01, 0.2] {
            let cfg = ExpConfig {
                runs: 1,
                scale,
                threads: 1,
                seed: 7,
                out_dir: PathBuf::from("results"),
            };
            for (corpus, d) in Corpus::ALL.into_iter().zip([10, 18, 9]) {
                let run0 = corpus.build(&cfg, 0);
                assert_eq!(run0.d(), d, "{corpus}");
                assert_eq!(corpus.n(&cfg), run0.n(), "{corpus} at scale {scale}");
                let sized = corpus.build_sized(&cfg, Some(corpus.n(&cfg)));
                assert!(sized.rows().eq(run0.rows()), "{corpus} at scale {scale}");
                assert!(corpus.build_sized(&cfg, None).rows().eq(run0.rows()));
                assert!(!corpus.build(&cfg, 1).rows().eq(run0.rows()));
            }
        }
        let cfg = ExpConfig {
            runs: 1,
            scale: 0.05,
            threads: 1,
            seed: 7,
            out_dir: PathBuf::from("results"),
        };
        assert_eq!(Corpus::Adult.build_sized(&cfg, Some(777)).n(), 777);
        assert_eq!(Corpus::Acs.build_sized(&cfg, Some(0)).n(), 1);
    }
}
