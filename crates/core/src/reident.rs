//! The §3.2.4 re-identification attack: matching algorithm `R` and decision
//! algorithm `G`.
//!
//! `R` scores every background record by the number of profile entries it
//! matches (distance = number of mismatches, as the LDP protocols induce no
//! value metric). `G` returns the top-k closest records with random
//! tie-breaking; the attack succeeds when the target's true identity falls in
//! that set.
//!
//! Instead of materializing top-k lists, [`ReidentAttack::hit_in_top_k`]
//! computes the *exact* hit probability of the true record under random
//! tie-breaking and flips a Bernoulli coin: with `B` records strictly better
//! than the true record and `T` records tied with it, the true record enters
//! the top-k iff `B < k`, with probability `min(1, (k − B)/T)`. This is
//! distributionally identical to sorting with random tie-breaks.
//!
//! `B` and `T` come from an inverted index. A profile with one usable entry
//! (every SMP, RS+FD and RS+RFD profile) matches exactly the records of one
//! ascending posting list, so `B` and `T` follow from the list's length and
//! a binary search for the true record: `O(log |list|)` per target, with no
//! scratch writes. Profiles with several usable entries (SPL, averaging)
//! count matches over their posting lists: `O(Σ posting-list sizes)`.

use ldp_datasets::Dataset;
use rand::Rng;

use crate::profiling::Profile;

/// Inverted index over the adversary's background knowledge `D_BK` (or the
/// partial `D_PK`): posting lists of record ids per (attribute, value).
#[derive(Debug, Clone)]
pub struct ReidentAttack {
    n: usize,
    /// Per-value ascending posting lists, indexed by global attribute id;
    /// `None` for attributes outside the background knowledge.
    postings: Vec<Option<Vec<Vec<u32>>>>,
}

/// Reusable per-thread scratch buffers for the matcher.
#[derive(Debug, Default)]
pub struct MatchScratch {
    counts: Vec<u32>,
    touched: Vec<u32>,
}

impl ReidentAttack {
    /// Builds the index from `background` over the attribute subset `attrs`
    /// (global attribute ids). Pass all attributes for the FK-RI model and a
    /// random subset for PK-RI.
    ///
    /// # Panics
    /// Panics when `attrs` contains an out-of-range attribute.
    pub fn build(background: &Dataset, attrs: &[usize]) -> Self {
        let n = background.n();
        let mut postings = vec![None; attrs.iter().max().map_or(0, |&j| j + 1)];
        for &j in attrs {
            assert!(j < background.d(), "attribute {j} out of range");
            let mut lists = vec![Vec::new(); background.schema().k(j)];
            for i in 0..n {
                lists[background.value(i, j) as usize].push(i as u32);
            }
            postings[j] = Some(lists);
        }
        ReidentAttack { n, postings }
    }

    /// Number of background records.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The posting list of records holding `value` on `attr`, or `None` when
    /// the entry is unusable: the attribute is outside the background
    /// knowledge or the value outside its domain.
    fn posting(&self, attr: usize, value: u32) -> Option<&[u32]> {
        let lists = self.postings.get(attr)?.as_ref()?;
        lists.get(value as usize).map(Vec::as_slice)
    }

    /// Whether the true record `true_id` lands in the top-k candidate set for
    /// `profile`, under random tie-breaking (exact in distribution).
    pub fn hit_in_top_k<R: Rng + ?Sized>(
        &self,
        profile: &Profile,
        true_id: u32,
        k: usize,
        scratch: &mut MatchScratch,
        rng: &mut R,
    ) -> bool {
        self.hits_in_top_ks(profile, true_id, &[k], scratch, rng)[0]
    }

    /// [`ReidentAttack::hit_in_top_k`] for several `k` values sharing one
    /// matching pass (the experiments evaluate top-1 and top-10 together).
    ///
    /// Allocating convenience over [`ReidentAttack::hits_into`].
    ///
    /// # Panics
    /// Panics when `ks` is empty or contains 0.
    pub fn hits_in_top_ks<R: Rng + ?Sized>(
        &self,
        profile: &Profile,
        true_id: u32,
        ks: &[usize],
        scratch: &mut MatchScratch,
        rng: &mut R,
    ) -> Vec<bool> {
        let mut hits = vec![false; ks.len()];
        self.hits_into(profile, true_id, ks, scratch, &mut hits, rng);
        hits
    }

    /// Whether the true record lands in the top-k candidate set for each `k`
    /// of `ks`, written into the caller-provided `hits` buffer — the
    /// allocation-free kernel behind [`ReidentAttack::hits_in_top_ks`],
    /// letting sharded evaluators reuse one buffer per worker.
    ///
    /// # Panics
    /// Panics when `ks` is empty, contains 0, or `hits.len() != ks.len()`.
    pub fn hits_into<R: Rng + ?Sized>(
        &self,
        profile: &Profile,
        true_id: u32,
        ks: &[usize],
        scratch: &mut MatchScratch,
        hits: &mut [bool],
        rng: &mut R,
    ) {
        assert!(!ks.is_empty(), "need at least one k");
        assert!(ks.iter().all(|&k| k >= 1), "top-k needs k >= 1");
        assert_eq!(hits.len(), ks.len(), "hits buffer width mismatch");
        if self.n == 0 {
            hits.fill(false);
            return;
        }
        let mut usable = profile
            .entries()
            .iter()
            .filter_map(|&(attr, value)| self.posting(attr, value));
        let (better, tied) = match (usable.next(), usable.next()) {
            (None, _) => {
                // Nothing to match on: the decision is a uniform top-k guess.
                for (slot, &k) in ks.iter().enumerate() {
                    hits[slot] = rng.random::<f64>() < k as f64 / self.n as f64;
                }
                return;
            }
            (Some(list), None) => rank_in_list(list, true_id, self.n),
            _ => self.rank_by_counting(profile, true_id, scratch),
        };
        top_k_decision(better, tied, ks, hits, rng);
    }

    /// `(better, tied)` for the true record by counting every record's
    /// matches over the profile's usable posting lists. Needs at least one
    /// usable entry.
    fn rank_by_counting(
        &self,
        profile: &Profile,
        true_id: u32,
        scratch: &mut MatchScratch,
    ) -> (usize, usize) {
        scratch.counts.resize(self.n, 0);
        for &(attr, value) in profile.entries() {
            let Some(list) = self.posting(attr, value) else {
                continue;
            };
            for &id in list {
                let c = &mut scratch.counts[id as usize];
                if *c == 0 {
                    scratch.touched.push(id);
                }
                *c += 1;
            }
        }

        let c_true = scratch.counts[true_id as usize];
        // Match-count comparison over touched records (counts >= 1).
        let mut better = 0usize;
        let mut tied = 0usize;
        for &id in &scratch.touched {
            let c = scratch.counts[id as usize];
            if c > c_true {
                better += 1;
            } else if c == c_true {
                tied += 1;
            }
        }
        if c_true == 0 {
            // All touched records are strictly better; the true record is
            // tied with every untouched one.
            better = scratch.touched.len();
            tied = self.n - better;
        }

        // Reset scratch for the next user.
        for &id in &scratch.touched {
            scratch.counts[id as usize] = 0;
        }
        scratch.touched.clear();
        (better, tied)
    }

    /// Expected RID-ACC (%) of the random-guess baseline: `100·k/n`, or 0
    /// when the background is empty (no record to guess — the former
    /// `100·k/0` returned NaN and poisoned downstream aggregation).
    pub fn baseline(&self, k: usize) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        100.0 * k as f64 / self.n as f64
    }
}

/// `(better, tied)` for a single-entry profile, whose match count is the
/// indicator of one ascending posting list: inside the list the true record
/// ties with the whole list; outside it, the list is strictly better and the
/// true record ties with every other record of the `n`.
fn rank_in_list(list: &[u32], true_id: u32, n: usize) -> (usize, usize) {
    assert!((true_id as usize) < n, "true record {true_id} out of range");
    if list.binary_search(&true_id).is_ok() {
        (0, list.len())
    } else {
        (list.len(), n - list.len())
    }
}

/// The tie-aware top-k decision for every `k` of `ks`, given `better`
/// records strictly closer than the true record and `tied` at its distance
/// (itself included). Draws one uniform only when the tie group straddles
/// the cut-off, so every matching path leaves the same rng state.
fn top_k_decision<R: Rng + ?Sized>(
    better: usize,
    tied: usize,
    ks: &[usize],
    hits: &mut [bool],
    rng: &mut R,
) {
    debug_assert!(tied >= 1, "the tie group always contains the true record");
    for (slot, &k) in ks.iter().enumerate() {
        hits[slot] = if better >= k {
            false
        } else {
            let slots = (k - better) as f64;
            slots >= tied as f64 || rng.random::<f64>() < slots / tied as f64
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_datasets::Schema;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    /// Four-record dataset with distinctive combinations.
    fn background() -> Dataset {
        let schema = Schema::from_cardinalities(&[3, 3]);
        Dataset::new(
            schema,
            vec![
                0, 0, // record 0
                0, 1, // record 1
                1, 2, // record 2
                2, 2, // record 3
            ],
        )
    }

    fn profile(entries: &[(usize, u32)]) -> Profile {
        let mut p = Profile::new();
        for &(a, v) in entries {
            p.observe(a, v);
        }
        p
    }

    #[test]
    fn exact_profile_is_always_top1_when_unique() {
        let ds = background();
        let attack = ReidentAttack::build(&ds, &[0, 1]);
        let mut rng = StdRng::seed_from_u64(1);
        let mut scratch = MatchScratch::default();
        // Record 3 = (2, 2) is uniquely matched by its own profile.
        let p = profile(&[(0, 2), (1, 2)]);
        for _ in 0..20 {
            assert!(attack.hit_in_top_k(&p, 3, 1, &mut scratch, &mut rng));
        }
        // And never matches record 0 at top-1 (0 matches vs 2).
        for _ in 0..20 {
            assert!(!attack.hit_in_top_k(&p, 0, 1, &mut scratch, &mut rng));
        }
    }

    #[test]
    fn ties_split_probability_evenly() {
        let ds = background();
        let attack = ReidentAttack::build(&ds, &[0, 1]);
        let mut rng = StdRng::seed_from_u64(2);
        let mut scratch = MatchScratch::default();
        // Profile (1, 2) on attribute 1 matches records 2 and 3 equally.
        let p = profile(&[(1, 2)]);
        let trials = 4000;
        let hits = (0..trials)
            .filter(|_| attack.hit_in_top_k(&p, 2, 1, &mut scratch, &mut rng))
            .count();
        let rate = hits as f64 / trials as f64;
        assert!((rate - 0.5).abs() < 0.05, "tie hit rate {rate}");
    }

    #[test]
    fn empty_profile_falls_back_to_uniform_guess() {
        let ds = background();
        let attack = ReidentAttack::build(&ds, &[0, 1]);
        let mut rng = StdRng::seed_from_u64(3);
        let mut scratch = MatchScratch::default();
        let p = Profile::new();
        let trials = 8000;
        let hits = (0..trials)
            .filter(|_| attack.hit_in_top_k(&p, 1, 1, &mut scratch, &mut rng))
            .count();
        let rate = hits as f64 / trials as f64;
        assert!((rate - 0.25).abs() < 0.03, "uniform guess rate {rate}");
    }

    #[test]
    fn pk_model_ignores_unknown_attributes() {
        let ds = background();
        // Background only knows attribute 0.
        let attack = ReidentAttack::build(&ds, &[0]);
        let mut rng = StdRng::seed_from_u64(4);
        let mut scratch = MatchScratch::default();
        // Profile only carries attribute 1 → unusable → uniform guess.
        let p = profile(&[(1, 2)]);
        let trials = 8000;
        let hits = (0..trials)
            .filter(|_| attack.hit_in_top_k(&p, 2, 2, &mut scratch, &mut rng))
            .count();
        let rate = hits as f64 / trials as f64;
        assert!((rate - 0.5).abs() < 0.03, "k/n = 2/4 expected, got {rate}");
    }

    #[test]
    fn zero_match_profile_ties_with_untouched_records() {
        let ds = background();
        let attack = ReidentAttack::build(&ds, &[0, 1]);
        let mut rng = StdRng::seed_from_u64(5);
        let mut scratch = MatchScratch::default();
        // Profile (0→1, 1→0) matches record 2 once (attr 0), record 0 once
        // (attr 1)... records 1 and 3 have 1 and 0 matches respectively:
        // record 0: attr0 0≠1, attr1 0=0 → 1 match
        // record 1: attr0 0≠1, attr1 1≠0 → 0 matches
        // record 2: attr0 1=1, attr1 2≠0 → 1 match
        // record 3: 0 matches.
        // For true record 1 (0 matches): B = 2, T = 2 → top-3 gives
        // probability (3−2)/2 = 0.5.
        let p = profile(&[(0, 1), (1, 0)]);
        let trials = 4000;
        let hits = (0..trials)
            .filter(|_| attack.hit_in_top_k(&p, 1, 3, &mut scratch, &mut rng))
            .count();
        let rate = hits as f64 / trials as f64;
        assert!((rate - 0.5).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn rid_acc_and_baseline() {
        let ds = background();
        let attack = ReidentAttack::build(&ds, &[0, 1]);
        let mut rng = StdRng::seed_from_u64(6);
        // Perfect profiles re-identify everyone (all records are unique).
        let profiles: Vec<Profile> = (0..4)
            .map(|i| profile(&[(0, ds.value(i, 0)), (1, ds.value(i, 1))]))
            .collect();
        let mut scratch = MatchScratch::default();
        for (i, p) in profiles.iter().enumerate() {
            assert!(attack.hit_in_top_k(p, i as u32, 1, &mut scratch, &mut rng));
        }
        assert!((attack.baseline(1) - 25.0).abs() < 1e-12);
        assert!((attack.baseline(2) - 50.0).abs() < 1e-12);
    }

    #[test]
    fn empty_background_baseline_is_zero_not_nan() {
        let ds = Dataset::new(Schema::from_cardinalities(&[3, 3]), vec![]);
        let attack = ReidentAttack::build(&ds, &[0, 1]);
        assert_eq!(attack.n(), 0);
        assert_eq!(attack.baseline(1), 0.0);
        assert_eq!(attack.baseline(10), 0.0);
        // Matching against nothing never hits either.
        let mut rng = StdRng::seed_from_u64(8);
        let mut scratch = MatchScratch::default();
        let p = profile(&[(0, 1)]);
        assert!(!attack.hit_in_top_k(&p, 0, 1, &mut scratch, &mut rng));
    }

    #[test]
    fn hits_into_matches_allocating_wrapper() {
        let ds = background();
        let attack = ReidentAttack::build(&ds, &[0, 1]);
        let mut scratch = MatchScratch::default();
        let p = profile(&[(1, 2)]);
        for seed in 0..50 {
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let alloc = attack.hits_in_top_ks(&p, 2, &[1, 2, 4], &mut scratch, &mut rng_a);
            let mut buf = [true; 3];
            attack.hits_into(&p, 2, &[1, 2, 4], &mut scratch, &mut buf, &mut rng_b);
            assert_eq!(alloc, buf.to_vec());
        }
    }

    /// The counting path for every profile with a usable entry: the
    /// reference the single-entry fast path of `hits_into` must match.
    fn counting_hits(
        attack: &ReidentAttack,
        profile: &Profile,
        true_id: u32,
        ks: &[usize],
        hits: &mut [bool],
        rng: &mut StdRng,
    ) {
        let usable = profile
            .entries()
            .iter()
            .any(|&(attr, value)| attack.posting(attr, value).is_some());
        if attack.n() == 0 || !usable {
            // Empty backgrounds and unusable profiles share one code path.
            attack.hits_into(
                profile,
                true_id,
                ks,
                &mut MatchScratch::default(),
                hits,
                rng,
            );
        } else {
            let mut scratch = MatchScratch::default();
            let (better, tied) = attack.rank_by_counting(profile, true_id, &mut scratch);
            top_k_decision(better, tied, ks, hits, rng);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Over random backgrounds (FK and PK subsets) and profiles with one
        /// usable entry — padded with entries on unknown attributes and
        /// out-of-domain values — the single-entry path gives the counting
        /// path's hits and leaves its rng in the same state, for `k ≥ n`
        /// and `n = 0` too.
        #[test]
        fn single_entry_matching_equals_counting(seed in proptest::any::<u64>()) {
            let mut gen = StdRng::seed_from_u64(seed);
            let d = gen.random_range(1..5usize);
            let cards: Vec<u32> = (0..d).map(|_| gen.random_range(2..6u32)).collect();
            let n = gen.random_range(0..30usize);
            let values = (0..n * d)
                .map(|c| gen.random_range(0..cards[c % d]))
                .collect();
            let ds = Dataset::new(Schema::from_cardinalities(&cards), values);
            let attrs: Vec<usize> = if gen.random_bool(0.5) {
                (0..d).collect()
            } else {
                (0..d).filter(|_| gen.random_bool(0.5)).collect()
            };
            let attack = ReidentAttack::build(&ds, &attrs);
            let ks: Vec<usize> = (0..gen.random_range(1..4usize))
                .map(|_| gen.random_range(1..n + 3))
                .collect();
            let mut scratch = MatchScratch::default();
            for target in 0..n.max(1) {
                let true_id = target as u32;
                let mut p = Profile::new();
                let mut order: Vec<usize> = (0..d + 2).collect();
                order.shuffle(&mut gen);
                let mut has_usable = false;
                for attr in order {
                    let known = attrs.contains(&attr);
                    if known && !has_usable {
                        // The one usable entry: the true value or any value.
                        let value = if n > 0 && gen.random_bool(0.5) {
                            ds.value(target, attr)
                        } else {
                            gen.random_range(0..cards[attr])
                        };
                        p.observe(attr, value);
                        has_usable = true;
                    } else if known {
                        if gen.random_bool(0.5) {
                            p.observe(attr, cards[attr] + gen.random_range(0..3u32));
                        }
                    } else if gen.random_bool(0.5) {
                        p.observe(attr, gen.random_range(0..8u32));
                    }
                }
                let draw_seed = gen.random::<u64>();
                let (mut rng_fast, mut rng_ref) =
                    (StdRng::seed_from_u64(draw_seed), StdRng::seed_from_u64(draw_seed));
                let mut fast = vec![false; ks.len()];
                let mut reference = vec![true; ks.len()];
                attack.hits_into(&p, true_id, &ks, &mut scratch, &mut fast, &mut rng_fast);
                counting_hits(&attack, &p, true_id, &ks, &mut reference, &mut rng_ref);
                proptest::prop_assert_eq!(&fast, &reference, "profile {:?}", p);
                proptest::prop_assert_eq!(rng_fast.random::<u64>(), rng_ref.random::<u64>());
            }
            proptest::prop_assert!(scratch.counts.iter().all(|&c| c == 0));
        }
    }

    #[test]
    fn scratch_resets_between_users() {
        let ds = background();
        let attack = ReidentAttack::build(&ds, &[0, 1]);
        let mut rng = StdRng::seed_from_u64(7);
        let mut scratch = MatchScratch::default();
        let p1 = profile(&[(0, 2), (1, 2)]);
        assert!(attack.hit_in_top_k(&p1, 3, 1, &mut scratch, &mut rng));
        // If counts leaked, this second call would see stale matches.
        let p2 = profile(&[(0, 0), (1, 1)]);
        assert!(attack.hit_in_top_k(&p2, 1, 1, &mut scratch, &mut rng));
        assert!(scratch.touched.is_empty());
        assert!(scratch.counts.iter().all(|&c| c == 0));
    }
}
