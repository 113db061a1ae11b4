//! The mixed categorical+numeric collection solution: sample-`k`-of-`d`
//! budget split across heterogeneous dimensions (after Wang et al.,
//! *"Collecting and Analyzing Multidimensional Data with LDP"*, ICDE 2019).
//!
//! Each user samples `sample_k` of the `d` dimensions without replacement
//! and sanitizes every sampled dimension with budget `ε / sample_k`:
//! categorical dimensions through a frequency oracle
//! (`ldp_protocols::Oracle`), numeric `[-1, 1]` dimensions through a
//! [`NumericOracle`] mechanism (Duchi / PM / HM). The server scales each
//! dimension's estimate by its own contributing report count `n_j`
//! (`E[n_j] = n · sample_k / d`), so frequency estimates stay unbiased and
//! numeric means are plain averages of unbiased per-report values.
//!
//! Numeric dimensions are marked in the `ks` domain vector with the sentinel
//! cardinality `0` (a categorical domain is always ≥ 2), so one `Vec<usize>`
//! describes the whole heterogeneous schema everywhere a solution's `ks()`
//! already travels — aggregators, the wire fingerprint, the compact batch
//! validator.

use ldp_protocols::{FrequencyOracle, Oracle, ProtocolError, ProtocolKind, Report};
use rand::Rng;

use crate::numeric::{DynNumeric, NumericKind, NumericOracle, NumericReport};

use super::layout::{Field, Layout};
use super::MultidimAggregator;

/// Sentinel cardinality marking a numeric dimension in a mixed `ks` vector.
pub const NUMERIC_DIM: usize = 0;

/// Configuration of a mixed solution: which oracle family serves the
/// categorical dimensions, which mechanism the numeric ones, and how many
/// dimensions each user reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MixedKind {
    /// Frequency-oracle family for the categorical dimensions.
    pub protocol: ProtocolKind,
    /// Numeric mechanism for the `[-1, 1]` dimensions.
    pub numeric: NumericKind,
    /// Dimensions sampled (without replacement) per user; each gets
    /// `ε / sample_k`.
    pub sample_k: usize,
}

/// One sanitized entry of a mixed report.
#[derive(Debug, Clone, PartialEq)]
pub enum MixedEntry {
    /// A categorical dimension's frequency-oracle report.
    Cat(Report),
    /// A numeric dimension's fixed-point mechanism output.
    Num(NumericReport),
}

/// One mixed message: the sampled dimensions (disclosed, ascending) with one
/// sanitized entry each.
#[derive(Debug, Clone, PartialEq)]
pub struct MixedReport {
    /// `(dimension index, entry)` pairs, strictly ascending by dimension.
    pub entries: Vec<(usize, MixedEntry)>,
}

/// Mixed categorical+numeric solution over `d` heterogeneous dimensions.
#[derive(Debug, Clone)]
pub struct Mixed {
    kind: MixedKind,
    epsilon: f64,
    ks: Vec<usize>,
    /// Per-dimension oracle at `ε / sample_k` (categorical dims only).
    oracles: Vec<Option<Oracle>>,
    /// The shared numeric mechanism at `ε / sample_k`.
    numeric: DynNumeric,
    pub(super) layout: Layout,
}

impl Mixed {
    /// Builds the solution over the heterogeneous schema `ks` (categorical
    /// cardinalities ≥ 2, numeric dims as [`NUMERIC_DIM`]) with per-user
    /// budget `epsilon`.
    pub fn new(kind: MixedKind, ks: &[usize], epsilon: f64) -> Result<Self, ProtocolError> {
        ldp_protocols::validate_epsilon(epsilon)?;
        if ks.len() < 2 {
            return Err(ProtocolError::InvalidPrior {
                reason: format!("mixed solutions need d >= 2 dimensions, got {}", ks.len()),
            });
        }
        if kind.sample_k == 0 || kind.sample_k > ks.len() {
            return Err(ProtocolError::InvalidPrior {
                reason: format!(
                    "sample_k must lie in 1..=d = {}, got {}",
                    ks.len(),
                    kind.sample_k
                ),
            });
        }
        if !ks.contains(&NUMERIC_DIM) {
            return Err(ProtocolError::InvalidPrior {
                reason: "mixed solutions need at least one numeric dimension \
                         (cardinality 0 sentinel); use SPL/SMP for purely \
                         categorical schemas"
                    .to_string(),
            });
        }
        let eps_dim = epsilon / kind.sample_k as f64;
        let oracles = ks
            .iter()
            .map(|&k| {
                if k == NUMERIC_DIM {
                    Ok(None)
                } else {
                    kind.protocol.build(k, eps_dim).map(Some)
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        let numeric = kind.numeric.build(eps_dim)?;
        let numeric_field = Field::numeric(numeric.bound());
        let fields = oracles
            .iter()
            .map(|o| o.as_ref().map_or(numeric_field, Field::of))
            .collect();
        Ok(Mixed {
            layout: Layout::mixed(fields, kind.sample_k),
            kind,
            epsilon,
            ks: ks.to_vec(),
            oracles,
            numeric,
        })
    }

    /// The configuration this solution was built with.
    pub fn mixed_kind(&self) -> MixedKind {
        self.kind
    }

    /// Per-user privacy budget ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Number of dimensions `d`.
    pub fn d(&self) -> usize {
        self.ks.len()
    }

    /// The heterogeneous schema (0 marks a numeric dimension).
    pub fn ks(&self) -> &[usize] {
        &self.ks
    }

    /// Whether dimension `j` is numeric.
    pub fn is_numeric(&self, j: usize) -> bool {
        self.ks[j] == NUMERIC_DIM
    }

    /// The numeric mechanism (at `ε / sample_k`) shared by every numeric
    /// dimension — exposed for analytic variance bands and the adversary's
    /// likelihood computations.
    pub fn numeric_oracle(&self) -> &DynNumeric {
        &self.numeric
    }

    /// The frequency oracle of categorical dimension `j` (None for numeric
    /// dimensions).
    pub fn oracle(&self, j: usize) -> Option<&Oracle> {
        self.oracles[j].as_ref()
    }

    /// Client-side sanitization: samples `sample_k` dimensions without
    /// replacement and sanitizes each at `ε / sample_k`.
    ///
    /// `cat` holds the categorical dimensions' values in dimension order
    /// (length = number of categorical dims); `num` the numeric dimensions'
    /// `[-1, 1]` values likewise. NaN, ±∞ or out-of-range numeric inputs are
    /// a typed [`ProtocolError::InvalidNumericInput`] — nothing is sent.
    pub fn report_mixed<R: Rng + ?Sized>(
        &self,
        cat: &[u32],
        num: &[f64],
        rng: &mut R,
    ) -> Result<MixedReport, ProtocolError> {
        let n_cat = self.ks.iter().filter(|&&k| k != NUMERIC_DIM).count();
        assert_eq!(cat.len(), n_cat, "categorical tuple width mismatch");
        assert_eq!(num.len(), self.d() - n_cat, "numeric tuple width mismatch");
        // Validate *every* numeric input before burning any randomness, so a
        // bad value can never half-send a report.
        for &t in num {
            crate::numeric::validate_numeric_input(t)?;
        }
        let mut dims = rand::seq::index::sample(rng, self.d(), self.kind.sample_k).into_vec();
        // Canonical ascending order: the wire encoding, the aggregator and
        // the equivalence tests all rely on one normal form per report.
        dims.sort_unstable();
        let mut entries = Vec::with_capacity(dims.len());
        for j in dims {
            let entry = if self.is_numeric(j) {
                let t = num[self.num_index(j)];
                // `NumericOracle` is object-safe, so the numeric draw
                // erases the generator; the categorical draws stay generic.
                let mut erased = &mut *rng;
                MixedEntry::Num(self.numeric.sanitize(t, &mut erased)?)
            } else {
                let v = cat[self.cat_index(j)];
                let oracle = self.oracles[j].as_ref().expect("categorical dim");
                if v as usize >= self.ks[j] {
                    return Err(ProtocolError::ValueOutOfRange {
                        value: v,
                        domain: self.ks[j],
                    });
                }
                MixedEntry::Cat(oracle.randomize(v, rng))
            };
            entries.push((j, entry));
        }
        Ok(MixedReport { entries })
    }

    /// Position of categorical dimension `j` within a `cat` slice.
    fn cat_index(&self, j: usize) -> usize {
        self.ks[..j].iter().filter(|&&k| k != NUMERIC_DIM).count()
    }

    /// Position of numeric dimension `j` within a `num` slice.
    fn num_index(&self, j: usize) -> usize {
        self.ks[..j].iter().filter(|&&k| k == NUMERIC_DIM).count()
    }

    /// A fresh streaming aggregator: per-dimension Eq. (2) over each
    /// categorical dimension's own `n_j`, exact fixed-point mean over each
    /// numeric dimension's `n_j`.
    pub fn aggregator(&self) -> MultidimAggregator {
        MultidimAggregator::new(self.clone().into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const KS: [usize; 4] = [4, NUMERIC_DIM, 3, NUMERIC_DIM];

    fn kind() -> MixedKind {
        MixedKind {
            protocol: ProtocolKind::Grr,
            numeric: NumericKind::Piecewise,
            sample_k: 2,
        }
    }

    #[test]
    fn construction_validates_schema_and_budget() {
        assert!(Mixed::new(kind(), &KS, 1.0).is_ok());
        assert!(Mixed::new(kind(), &KS, 0.0).is_err(), "eps = 0");
        assert!(Mixed::new(kind(), &[NUMERIC_DIM], 1.0).is_err(), "d < 2");
        assert!(
            Mixed::new(kind(), &[4, 3], 1.0).is_err(),
            "no numeric dimension"
        );
        assert!(
            Mixed::new(kind(), &[1, NUMERIC_DIM], 1.0).is_err(),
            "categorical k < 2"
        );
        let bad_k = MixedKind {
            sample_k: 5,
            ..kind()
        };
        assert!(Mixed::new(bad_k, &KS, 1.0).is_err(), "sample_k > d");
    }

    #[test]
    fn reports_sample_k_ascending_dimensions() {
        let mixed = Mixed::new(kind(), &KS, 2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let r = mixed
                .report_mixed(&[1, 2], &[0.5, -0.25], &mut rng)
                .unwrap();
            assert_eq!(r.entries.len(), 2);
            assert!(r.entries[0].0 < r.entries[1].0, "dims must ascend");
            for (j, entry) in &r.entries {
                match entry {
                    MixedEntry::Num(_) => assert!(mixed.is_numeric(*j)),
                    MixedEntry::Cat(_) => assert!(!mixed.is_numeric(*j)),
                }
            }
        }
    }

    #[test]
    fn bad_numeric_inputs_are_typed_errors() {
        let mixed = Mixed::new(kind(), &KS, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        for bad in [f64::NAN, f64::INFINITY, -1.5, 2.0] {
            assert!(matches!(
                mixed.report_mixed(&[0, 0], &[bad, 0.0], &mut rng),
                Err(ProtocolError::InvalidNumericInput(_))
            ));
            // Position independence: the second numeric dim too.
            assert!(mixed.report_mixed(&[0, 0], &[0.0, bad], &mut rng).is_err());
        }
        assert!(matches!(
            mixed.report_mixed(&[9, 0], &[0.0, 0.0], &mut rng),
            Err(ProtocolError::ValueOutOfRange { .. })
        ));
    }

    #[test]
    fn estimates_recover_marginals_and_means() {
        // Attribute 0 (k=4): everyone holds 1; numeric dims hold fixed
        // values; attribute 2 (k=3): half 0, half 2.
        let mixed = Mixed::new(
            MixedKind {
                protocol: ProtocolKind::Grr,
                numeric: NumericKind::Hybrid,
                sample_k: 2,
            },
            &KS,
            4.0,
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let n = 60_000;
        let mut agg = mixed.aggregator();
        for i in 0..n {
            let cat = [1u32, if i % 2 == 0 { 0 } else { 2 }];
            agg.absorb_mixed(&mixed.report_mixed(&cat, &[0.4, -0.6], &mut rng).unwrap());
        }
        let est = agg.estimate();
        assert!((est[0][1] - 1.0).abs() < 0.1, "cat marginal: {:?}", est[0]);
        assert!((est[2][0] - 0.5).abs() < 0.1);
        assert!((est[2][2] - 0.5).abs() < 0.1);
        assert_eq!(est[1].len(), 1, "numeric dims estimate a single mean");
        assert!((est[1][0] - 0.4).abs() < 0.05, "mean: {:?}", est[1]);
        assert!((est[3][0] + 0.6).abs() < 0.05, "mean: {:?}", est[3]);
    }

    #[test]
    fn works_with_every_oracle_family_and_mechanism() {
        let mut rng = StdRng::seed_from_u64(6);
        for protocol in ProtocolKind::ALL {
            for numeric in NumericKind::ALL {
                let mixed = Mixed::new(
                    MixedKind {
                        protocol,
                        numeric,
                        sample_k: 3,
                    },
                    &[6, NUMERIC_DIM, 4],
                    3.0,
                )
                .unwrap();
                let mut agg = mixed.aggregator();
                for _ in 0..2000 {
                    agg.absorb_mixed(&mixed.report_mixed(&[3, 1], &[0.2], &mut rng).unwrap());
                }
                let est = agg.estimate();
                assert!(
                    est.iter().flatten().all(|f| f.is_finite()),
                    "{protocol}+{numeric}"
                );
                assert!(
                    (est[1][0] - 0.2).abs() < 0.2,
                    "{protocol}+{numeric}: mean {:?}",
                    est[1]
                );
            }
        }
    }
}
