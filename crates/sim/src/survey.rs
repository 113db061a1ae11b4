//! Survey plans: which attributes each data collection covers (§4.2).
//!
//! The paper sets `#surveys = 5`, each survey drawing
//! `d_sv = Uniform{⌈d/2⌉, …, d}` attributes at random.

use rand::seq::index::sample;
use rand::Rng;

/// The attribute subsets of a sequence of surveys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SurveyPlan {
    attrs: Vec<Vec<usize>>,
}

impl SurveyPlan {
    /// Generates `n_surveys` random subsets of `0..d`, each of size uniform
    /// in `[⌈d/2⌉, d]`, sorted ascending.
    ///
    /// # Panics
    /// Panics when `d < 2` or `n_surveys == 0`.
    pub fn generate<R: Rng + ?Sized>(d: usize, n_surveys: usize, rng: &mut R) -> Self {
        assert!(d >= 2, "need at least two attributes");
        assert!(n_surveys >= 1, "need at least one survey");
        let lo = d.div_ceil(2);
        let attrs = (0..n_surveys)
            .map(|_| {
                let d_sv = rng.random_range(lo..=d);
                let mut a: Vec<usize> = sample(rng, d, d_sv).into_iter().collect();
                a.sort_unstable();
                a
            })
            .collect();
        SurveyPlan { attrs }
    }

    /// A plan whose every survey covers all `d` attributes (used by Fig. 1
    /// style analyses and tests).
    pub fn full(d: usize, n_surveys: usize) -> Self {
        SurveyPlan {
            attrs: vec![(0..d).collect(); n_surveys],
        }
    }

    /// Number of surveys.
    pub fn n_surveys(&self) -> usize {
        self.attrs.len()
    }

    /// Attribute subset of survey `sv`.
    pub fn attrs(&self, sv: usize) -> &[usize] {
        &self.attrs[sv]
    }

    /// Iterator over all survey subsets.
    pub fn iter(&self) -> impl Iterator<Item = &[usize]> {
        self.attrs.iter().map(Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generated_subsets_respect_size_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for d in [2usize, 5, 10, 18] {
            let plan = SurveyPlan::generate(d, 20, &mut rng);
            assert_eq!(plan.n_surveys(), 20);
            for sv in plan.iter() {
                assert!(sv.len() >= d.div_ceil(2), "survey too small: {sv:?}");
                assert!(sv.len() <= d);
                assert!(sv.windows(2).all(|w| w[0] < w[1]), "not sorted/distinct");
                assert!(sv.iter().all(|&a| a < d));
            }
        }
    }

    #[test]
    fn full_plan_covers_everything() {
        let plan = SurveyPlan::full(4, 3);
        for sv in plan.iter() {
            assert_eq!(sv, &[0, 1, 2, 3]);
        }
    }

    #[test]
    fn survey_sizes_vary_across_draws() {
        let mut rng = StdRng::seed_from_u64(2);
        let plan = SurveyPlan::generate(10, 50, &mut rng);
        let sizes: std::collections::HashSet<usize> = plan.iter().map(<[usize]>::len).collect();
        assert!(sizes.len() > 1, "sizes never varied: {sizes:?}");
    }
}
