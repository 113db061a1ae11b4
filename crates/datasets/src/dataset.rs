//! In-memory multidimensional categorical dataset with the statistics the
//! paper's attacks depend on (marginals, uniqueness / anonymity sets).

use std::collections::HashMap;

use rand::seq::index::sample;
use rand::Rng;

use crate::schema::Schema;

/// A dataset of `n` users, each holding one value per attribute of the
/// [`Schema`]. Rows are stored row-major (`n × d` values).
#[derive(Debug, Clone)]
pub struct Dataset {
    schema: Schema,
    data: Vec<u32>,
}

impl Dataset {
    /// Wraps row-major `data` (length must be a multiple of `schema.d()`)
    /// after validating every value against its attribute domain.
    ///
    /// # Panics
    /// Panics on length mismatch or out-of-domain values; datasets are
    /// produced by generators/loaders that must uphold these invariants.
    pub fn new(schema: Schema, data: Vec<u32>) -> Self {
        let d = schema.d();
        assert_eq!(data.len() % d, 0, "data length must be a multiple of d");
        for (idx, &v) in data.iter().enumerate() {
            let j = idx % d;
            assert!(
                (v as usize) < schema.k(j),
                "row {} attribute {j}: value {v} outside domain {}",
                idx / d,
                schema.k(j)
            );
        }
        Dataset { schema, data }
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of users `n`.
    pub fn n(&self) -> usize {
        if self.schema.d() == 0 {
            0
        } else {
            self.data.len() / self.schema.d()
        }
    }

    /// Number of attributes `d`.
    pub fn d(&self) -> usize {
        self.schema.d()
    }

    /// Value of attribute `j` for user `i`.
    #[inline]
    pub fn value(&self, i: usize, j: usize) -> u32 {
        self.data[i * self.schema.d() + j]
    }

    /// The full record of user `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        let d = self.schema.d();
        &self.data[i * d..(i + 1) * d]
    }

    /// Iterator over all records.
    pub fn rows(&self) -> impl Iterator<Item = &[u32]> {
        self.data.chunks_exact(self.schema.d())
    }

    /// Normalized marginal distribution of attribute `j`.
    pub fn marginal(&self, j: usize) -> Vec<f64> {
        let k = self.schema.k(j);
        let mut counts = vec![0u64; k];
        for i in 0..self.n() {
            counts[self.value(i, j) as usize] += 1;
        }
        let n = self.n().max(1) as f64;
        counts.iter().map(|&c| c as f64 / n).collect()
    }

    /// Marginals of every attribute (the paper's true frequencies `f`).
    pub fn marginals(&self) -> Vec<Vec<f64>> {
        (0..self.d()).map(|j| self.marginal(j)).collect()
    }

    /// Fraction of users whose projection onto `attrs` is unique in the
    /// dataset — the "uniqueness" driving re-identification risk.
    pub fn uniqueness_fraction(&self, attrs: &[usize]) -> f64 {
        if self.n() == 0 {
            return 0.0;
        }
        let mut groups: HashMap<Vec<u32>, u32> = HashMap::with_capacity(self.n());
        for i in 0..self.n() {
            let key: Vec<u32> = attrs.iter().map(|&j| self.value(i, j)).collect();
            *groups.entry(key).or_insert(0) += 1;
        }
        let unique: usize = groups.values().filter(|&&c| c == 1).count();
        unique as f64 / self.n() as f64
    }

    /// Uniform random subsample of `m` users (without replacement), keeping
    /// the schema. Returns a clone when `m >= n`.
    pub fn subsample<R: Rng + ?Sized>(&self, m: usize, rng: &mut R) -> Dataset {
        if m >= self.n() {
            return self.clone();
        }
        let d = self.d();
        let mut data = Vec::with_capacity(m * d);
        let mut idx: Vec<usize> = sample(rng, self.n(), m).into_iter().collect();
        idx.sort_unstable();
        for i in idx {
            data.extend_from_slice(self.row(i));
        }
        Dataset {
            schema: self.schema.clone(),
            data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> Dataset {
        let schema = Schema::from_cardinalities(&[2, 3]);
        Dataset::new(schema, vec![0, 0, 1, 2, 0, 0, 1, 1])
    }

    #[test]
    fn dimensions_and_access() {
        let ds = toy();
        assert_eq!(ds.n(), 4);
        assert_eq!(ds.d(), 2);
        assert_eq!(ds.value(1, 1), 2);
        assert_eq!(ds.row(3), &[1, 1]);
        assert_eq!(ds.rows().count(), 4);
    }

    #[test]
    fn marginals_are_normalized_and_correct() {
        let ds = toy();
        let m0 = ds.marginal(0);
        assert_eq!(m0, vec![0.5, 0.5]);
        let m1 = ds.marginal(1);
        assert!((m1.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(m1, vec![0.5, 0.25, 0.25]);
    }

    #[test]
    fn uniqueness_counts_singletons() {
        let ds = toy();
        // Projections on both attributes: rows are (0,0),(1,2),(0,0),(1,1):
        // (1,2) and (1,1) are unique → 2/4.
        assert_eq!(ds.uniqueness_fraction(&[0, 1]), 0.5);
        // On attribute 0 alone nothing is unique.
        assert_eq!(ds.uniqueness_fraction(&[0]), 0.0);
    }

    #[test]
    fn subsample_preserves_schema_and_rows() {
        let ds = toy();
        let mut rng = StdRng::seed_from_u64(1);
        let sub = ds.subsample(2, &mut rng);
        assert_eq!(sub.n(), 2);
        assert_eq!(sub.d(), 2);
        for row in sub.rows() {
            assert!(ds.rows().any(|r| r == row));
        }
        // m >= n returns everything.
        assert_eq!(ds.subsample(10, &mut rng).n(), 4);
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn new_rejects_out_of_domain_values() {
        let schema = Schema::from_cardinalities(&[2, 3]);
        Dataset::new(schema, vec![0, 3]);
    }
}
