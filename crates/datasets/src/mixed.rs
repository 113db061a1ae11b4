//! Mixed categorical + continuous datasets for the numeric-dimension
//! subsystem.
//!
//! The paper's corpora are purely categorical, but real deployments (and the
//! numeric LDP literature the mechanisms come from) mix ordinal/categorical
//! attributes with continuous ones. A [`MixedDataset`] extends the row-major
//! [`Dataset`] with `m` continuous attributes, each normalized from its
//! declared `[lo, hi]` range into the canonical `[-1, 1]` input domain of the
//! numeric mechanisms at construction time.
//!
//! Dimension layout convention: the `d_cat` categorical attributes occupy
//! dimensions `0..d_cat` and the `d_num` numeric attributes occupy dimensions
//! `d_cat..d_cat + d_num`. [`MixedDataset::ks`] encodes this as the
//! heterogeneous cardinality vector the mixed solution consumes, with `0`
//! marking a numeric dimension (the `NUMERIC_DIM` sentinel of `ldp-core`).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dataset::Dataset;
use crate::generator::{GeneratorConfig, LatentClassGenerator};
use crate::schema::{Attribute, Schema};

/// A continuous attribute with a declared value range `[lo, hi]`.
#[derive(Debug, Clone, PartialEq)]
pub struct NumericAttribute {
    /// Human-readable attribute name.
    pub name: String,
    /// Smallest representable raw value.
    pub lo: f64,
    /// Largest representable raw value.
    pub hi: f64,
}

impl NumericAttribute {
    /// Creates a numeric attribute.
    ///
    /// # Panics
    /// Panics unless `lo < hi` and both bounds are finite.
    pub fn new(name: impl Into<String>, lo: f64, hi: f64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "numeric attribute range must be finite with lo < hi, got [{lo}, {hi}]"
        );
        NumericAttribute {
            name: name.into(),
            lo,
            hi,
        }
    }

    /// Maps a raw value in `[lo, hi]` to the normalized domain `[-1, 1]`.
    pub fn normalize(&self, v: f64) -> f64 {
        (2.0 * (v - self.lo) / (self.hi - self.lo) - 1.0).clamp(-1.0, 1.0)
    }
}

/// A dataset of `n` users with both categorical and continuous attributes.
///
/// Categorical values live in an embedded [`Dataset`] (reusing its marginal /
/// uniqueness machinery); continuous values are stored row-major, already
/// normalized to `[-1, 1]`.
#[derive(Debug, Clone)]
pub struct MixedDataset {
    cat: Dataset,
    numeric_attrs: Vec<NumericAttribute>,
    /// Row-major `n × d_num` normalized values.
    num: Vec<f64>,
}

impl MixedDataset {
    /// Wraps a categorical dataset plus raw continuous values (row-major,
    /// `n × numeric_attrs.len()`, each within its attribute's `[lo, hi]`).
    /// Values are normalized to `[-1, 1]` on construction.
    ///
    /// # Panics
    /// Panics on length mismatch, non-finite values, values outside their
    /// declared range, or an empty numeric attribute list (use [`Dataset`]
    /// directly for purely categorical data).
    pub fn new(cat: Dataset, numeric_attrs: Vec<NumericAttribute>, raw: Vec<f64>) -> Self {
        let m = numeric_attrs.len();
        assert!(
            m > 0,
            "a mixed dataset needs at least one numeric attribute"
        );
        assert_eq!(
            raw.len(),
            cat.n() * m,
            "numeric data length must be n × d_num"
        );
        let mut num = Vec::with_capacity(raw.len());
        for (idx, &v) in raw.iter().enumerate() {
            let attr = &numeric_attrs[idx % m];
            assert!(
                v.is_finite() && v >= attr.lo && v <= attr.hi,
                "row {} numeric attribute {}: value {v} outside [{}, {}]",
                idx / m,
                idx % m,
                attr.lo,
                attr.hi
            );
            num.push(attr.normalize(v));
        }
        MixedDataset {
            cat,
            numeric_attrs,
            num,
        }
    }

    /// Number of users `n`.
    pub fn n(&self) -> usize {
        self.cat.n()
    }

    /// Total number of dimensions (categorical + numeric).
    pub fn d(&self) -> usize {
        self.cat.d() + self.numeric_attrs.len()
    }

    /// Number of categorical dimensions.
    pub fn d_cat(&self) -> usize {
        self.cat.d()
    }

    /// Number of numeric dimensions.
    pub fn d_num(&self) -> usize {
        self.numeric_attrs.len()
    }

    /// The categorical portion of the dataset (dimensions `0..d_cat`).
    pub fn cat(&self) -> &Dataset {
        &self.cat
    }

    /// The heterogeneous cardinality vector for the mixed solution:
    /// categorical cardinalities followed by a `0` sentinel per numeric
    /// dimension.
    pub fn ks(&self) -> Vec<usize> {
        let mut ks = self.cat.schema().cardinalities();
        ks.extend(std::iter::repeat_n(0, self.numeric_attrs.len()));
        ks
    }

    /// Normalized value (`[-1, 1]`) of numeric attribute `j` (indexed
    /// `0..d_num`) for user `i`.
    #[inline]
    pub fn num_value(&self, i: usize, j: usize) -> f64 {
        self.num[i * self.numeric_attrs.len() + j]
    }

    /// The full normalized numeric record of user `i`.
    #[inline]
    pub fn num_row(&self, i: usize) -> &[f64] {
        let m = self.numeric_attrs.len();
        &self.num[i * m..(i + 1) * m]
    }

    /// Population mean of numeric attribute `j` in the normalized domain —
    /// the ground truth the numeric mechanisms estimate.
    pub fn numeric_mean(&self, j: usize) -> f64 {
        if self.n() == 0 {
            return 0.0;
        }
        (0..self.n()).map(|i| self.num_value(i, j)).sum::<f64>() / self.n() as f64
    }

    /// Equal-width `buckets`-bin histogram of numeric attribute `j` over
    /// `[-1, 1]`, normalized to a probability vector. This is the prior the
    /// value-range inference attack fits from population knowledge.
    pub fn numeric_histogram(&self, j: usize, buckets: usize) -> Vec<f64> {
        assert!(buckets >= 2, "histogram needs at least 2 buckets");
        let mut counts = vec![0u64; buckets];
        for i in 0..self.n() {
            counts[bucket_of(self.num_value(i, j), buckets)] += 1;
        }
        let n = self.n().max(1) as f64;
        counts.iter().map(|&c| c as f64 / n).collect()
    }
}

/// Index of the equal-width bucket over `[-1, 1]` containing `t` (values are
/// clamped to the domain, so `t = 1.0` lands in the last bucket).
pub fn bucket_of(t: f64, buckets: usize) -> usize {
    let x = (t.clamp(-1.0, 1.0) + 1.0) / 2.0 * buckets as f64;
    (x as usize).min(buckets - 1)
}

/// Reference population size of the MixedSurvey corpus (the scale the
/// numeric extension experiments treat as "paper scale").
pub const MIXED_SURVEY_N: usize = 30_000;

/// Schema of the synthetic mixed "survey" corpus: 4 categorical attributes.
pub fn mixed_survey_schema() -> Schema {
    Schema::new(vec![
        Attribute::new("region", 8),
        Attribute::new("employment", 5),
        Attribute::new("education", 6),
        Attribute::new("sex", 2),
    ])
}

/// Numeric attributes of the synthetic mixed "survey" corpus.
pub fn mixed_survey_numeric_attributes() -> Vec<NumericAttribute> {
    vec![
        NumericAttribute::new("age", 18.0, 90.0),
        NumericAttribute::new("hours-per-week", 0.0, 80.0),
    ]
}

/// Synthetic mixed corpus: 4 categorical attributes (d = 4,
/// k = [8, 5, 6, 2]) plus 2 continuous ones (`age`, `hours-per-week`) whose
/// distributions are skewed and correlated with the categorical part, so
/// numeric priors are informative for the value-range inference attack.
pub fn mixed_survey_like(n: usize, seed: u64) -> MixedDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let cat = LatentClassGenerator::new(
        mixed_survey_schema(),
        GeneratorConfig {
            n,
            clusters: 6,
            skew: 1.6,
            uniform_mix: 0.1,
            cluster_skew: 0.5,
        },
        &mut rng,
    )
    .generate(&mut rng);
    let attrs = mixed_survey_numeric_attributes();
    let mut raw = Vec::with_capacity(n * attrs.len());
    for i in 0..n {
        // Age skews young-to-middle, shifted by employment status; triangular
        // noise (sum of two uniforms) keeps the marginal clearly non-uniform.
        let employment = cat.value(i, 1) as f64;
        let base_age = 24.0 + 6.0 * employment;
        let noise: f64 = rng.random_range(0.0..1.0) + rng.random_range(0.0..1.0);
        let age =
            (base_age + 14.0 * (noise - 1.0) + rng.random_range(0.0f64..22.0)).clamp(18.0, 90.0);
        raw.push(age);
        // Weekly hours cluster around full-time, modulated by employment.
        let base_hours = 12.0 + 8.0 * employment;
        let hnoise: f64 = rng.random_range(0.0..1.0) + rng.random_range(0.0..1.0);
        let hours = (base_hours + 12.0 * (hnoise - 1.0)).clamp(0.0, 80.0);
        raw.push(hours);
    }
    MixedDataset::new(cat, attrs, raw)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> MixedDataset {
        let cat = Dataset::new(Schema::from_cardinalities(&[2, 3]), vec![0, 0, 1, 2, 0, 1]);
        let attrs = vec![NumericAttribute::new("x", 0.0, 10.0)];
        MixedDataset::new(cat, attrs, vec![0.0, 5.0, 10.0])
    }

    #[test]
    fn normalization_and_layout() {
        let ds = toy();
        assert_eq!(ds.n(), 3);
        assert_eq!(ds.d(), 3);
        assert_eq!(ds.d_cat(), 2);
        assert_eq!(ds.d_num(), 1);
        assert_eq!(ds.ks(), vec![2, 3, 0]);
        assert_eq!(ds.num_value(0, 0), -1.0);
        assert_eq!(ds.num_value(1, 0), 0.0);
        assert_eq!(ds.num_value(2, 0), 1.0);
        assert_eq!(ds.num_row(1), &[0.0]);
        assert!((ds.numeric_mean(0)).abs() < 1e-12);
    }

    #[test]
    fn attribute_normalizes_its_range_onto_the_unit_interval() {
        let a = NumericAttribute::new("age", 18.0, 90.0);
        assert_eq!(a.normalize(18.0), -1.0);
        assert_eq!(a.normalize(54.0), 0.0);
        assert_eq!(a.normalize(90.0), 1.0);
        assert_eq!(a.normalize(120.0), 1.0, "out-of-range values clamp");
    }

    #[test]
    fn buckets_partition_the_domain() {
        assert_eq!(bucket_of(-1.0, 4), 0);
        assert_eq!(bucket_of(-0.51, 4), 0);
        assert_eq!(bucket_of(-0.49, 4), 1);
        assert_eq!(bucket_of(0.0, 4), 2);
        assert_eq!(bucket_of(1.0, 4), 3);
    }

    #[test]
    fn histogram_is_a_probability_vector() {
        let ds = mixed_survey_like(5000, 7);
        for j in 0..ds.d_num() {
            let h = ds.numeric_histogram(j, 8);
            assert_eq!(h.len(), 8);
            assert!((h.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
        // Age is skewed: its histogram should not be uniform.
        let h = ds.numeric_histogram(0, 8);
        let max = h.iter().cloned().fold(0.0f64, f64::max);
        assert!(max > 0.2, "age histogram unexpectedly flat: {h:?}");
    }

    #[test]
    fn survey_corpus_is_deterministic_and_sized() {
        let a = mixed_survey_like(200, 42);
        let b = mixed_survey_like(200, 42);
        let c = mixed_survey_like(200, 43);
        assert_eq!(a.n(), 200);
        assert_eq!(a.ks(), vec![8, 5, 6, 2, 0, 0]);
        assert_eq!(a.num_row(10), b.num_row(10));
        assert_eq!(a.cat().row(10), b.cat().row(10));
        assert_ne!(
            (0..200).map(|i| a.num_row(i).to_vec()).collect::<Vec<_>>(),
            (0..200).map(|i| c.num_row(i).to_vec()).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_numeric_values_panic() {
        let cat = Dataset::new(Schema::from_cardinalities(&[2]), vec![0]);
        MixedDataset::new(cat, vec![NumericAttribute::new("x", 0.0, 1.0)], vec![1.5]);
    }
}
