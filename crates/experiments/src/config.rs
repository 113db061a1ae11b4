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
    /// also when a flag overrides it.
    pub fn resolve(
        env: impl Fn(&str) -> Option<String>,
        flags: &Overrides,
    ) -> Result<ExpConfig, String> {
        let full = parsed_var(&env, "RISKS_FULL")? == Some(1u8);
        let runs = flags.runs.or(parsed_var(&env, "RISKS_RUNS")?);
        let scale = flags.scale.or(parsed_var(&env, "RISKS_SCALE")?);
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

    /// Adult-like dataset at the configured scale.
    pub fn adult(&self, run: u64) -> Dataset {
        corpora::adult_like(self.scaled(corpora::ADULT_N, 2000), self.seed ^ (run << 8))
    }

    /// ACSEmployment-like dataset at the configured scale.
    pub fn acs(&self, run: u64) -> Dataset {
        corpora::acs_employment_like(
            self.scaled(corpora::ACS_EMPLOYMENT_N, 1500),
            self.seed ^ (run << 8) ^ 0xACE,
        )
    }

    /// Nursery-like dataset at the configured scale.
    pub fn nursery(&self, run: u64) -> Dataset {
        corpora::nursery_like(
            self.scaled(corpora::NURSERY_N, 1500),
            self.seed ^ (run << 8) ^ 0x9925,
        )
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
    fn datasets_match_schema_dimensions() {
        let cfg = ExpConfig {
            runs: 1,
            scale: 0.05,
            threads: 1,
            seed: 7,
            out_dir: PathBuf::from("results"),
        };
        assert_eq!(cfg.adult(0).d(), 10);
        assert_eq!(cfg.acs(0).d(), 18);
        assert_eq!(cfg.nursery(0).d(), 9);
    }
}
