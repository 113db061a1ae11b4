//! Optimal Local Hashing (OLH), §2.2.2 of the paper (Wang et al., 2017).
//!
//! OLH copes with large domains by hashing the input into a small range
//! `[g]` with a per-user random hash function and then running GRR on the
//! hashed value. The variance-optimal range is `g = e^ε + 1`; as `g` must be
//! an integer we use the standard concretization `g = max(2, round(e^ε) + 1)`.
//!
//! Server side, a report ⟨H, y⟩ supports every domain value hashing to `y`,
//! giving effective estimator parameters `p* = e^ε / (e^ε + g − 1)` and
//! `q* = 1/g`.

use rand::Rng;

use crate::error::ProtocolError;
use crate::hash::{olh_hash, splitmix64, OLH_KEY_STRIDE};
use crate::oracle::{FrequencyOracle, Report};
use crate::{validate_domain, validate_epsilon};

/// Optimal Local Hashing protocol for one categorical attribute.
#[derive(Debug, Clone)]
pub struct Olh {
    k: usize,
    epsilon: f64,
    g: u32,
    /// GRR keep-probability on the hashed domain.
    p_hash: f64,
}

impl Olh {
    /// Creates an OLH instance for domain size `k` and privacy budget `epsilon`.
    pub fn new(k: usize, epsilon: f64) -> Result<Self, ProtocolError> {
        let k = validate_domain(k)?;
        let epsilon = validate_epsilon(epsilon)?;
        let e = epsilon.exp();
        let g = (e.round() as u32).saturating_add(1).max(2);
        let p_hash = e / (e + f64::from(g) - 1.0);
        Ok(Olh {
            k,
            epsilon,
            g,
            p_hash,
        })
    }

    /// The hash range size `g`.
    pub fn g(&self) -> u32 {
        self.g
    }

    /// GRR keep-probability `p'` on the hashed domain.
    pub fn p_hash(&self) -> f64 {
        self.p_hash
    }

    /// Evaluates the user's hash function (identified by `seed`) on `value`.
    pub fn hash(&self, seed: u64, value: u32) -> u32 {
        olh_hash(seed, value, self.g)
    }

    /// All domain values hashing to `hashed` under the hash function `seed`,
    /// i.e. the attacker-visible candidate set `A_jH` of §3.2.1.
    pub fn preimage(&self, seed: u64, hashed: u32) -> Vec<u32> {
        let mut out = Vec::new();
        self.preimage_into(seed, hashed, &mut out);
        out
    }

    /// [`Olh::preimage`] into a caller-provided buffer (cleared first), so
    /// per-report attack loops can reuse one allocation across candidates.
    pub fn preimage_into(&self, seed: u64, hashed: u32, out: &mut Vec<u32>) {
        out.clear();
        out.extend((0..self.k as u32).filter(|&v| self.hash(seed, v) == hashed));
    }
}

impl FrequencyOracle for Olh {
    fn domain_size(&self) -> usize {
        self.k
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }

    fn randomize<R: Rng + ?Sized>(&self, value: u32, rng: &mut R) -> Report {
        assert!(
            (value as usize) < self.k,
            "value {value} outside the domain 0..{}",
            self.k
        );
        let seed: u64 = rng.random();
        let h = self.hash(seed, value);
        let reported = if rng.random::<f64>() < self.p_hash {
            h
        } else {
            let r = rng.random_range(0..self.g - 1);
            if r >= h {
                r + 1
            } else {
                r
            }
        };
        Report::Hashed {
            seed,
            g: self.g,
            value: reported,
        }
    }

    fn supports(&self, report: &Report, value: u32) -> bool {
        match report {
            Report::Hashed { seed, g, value: y } => {
                debug_assert_eq!(*g, self.g, "report from a different OLH config");
                olh_hash(*seed, value, *g) == *y
            }
            _ => false,
        }
    }

    // The server-side hot loop: one whole-domain support sweep per report.
    // Monomorphized and branch-light — the hash key advances by one wrapping
    // add per value (see `OLH_KEY_STRIDE`), the increment is a branchless
    // comparison, and power-of-two hash ranges (`g = round(e^ε) + 1` lands on
    // one for common budgets, e.g. ε ∈ {1, 2}) replace the modulo with a
    // mask. Bit-identical to the default per-value `supports` sweep.
    fn count_hashed(&self, counts: &mut [u64], report: &Report) {
        let Report::Hashed { seed, g, value } = report else {
            return; // a mismatched shape supports nothing, as in `supports`
        };
        debug_assert_eq!(*g, self.g, "report from a different OLH config");
        let (seed, g, y) = (*seed, u64::from(*g), u64::from(*value));
        let mut key = 0u64;
        if g.is_power_of_two() {
            let mask = g - 1;
            for c in counts.iter_mut() {
                *c += u64::from(splitmix64(seed ^ key) & mask == y);
                key = key.wrapping_add(OLH_KEY_STRIDE);
            }
        } else {
            for c in counts.iter_mut() {
                *c += u64::from(splitmix64(seed ^ key) % g == y);
                key = key.wrapping_add(OLH_KEY_STRIDE);
            }
        }
    }

    fn est_p(&self) -> f64 {
        self.p_hash
    }

    fn est_q(&self) -> f64 {
        1.0 / f64::from(self.g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Aggregator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    #[should_panic(expected = "outside the domain")]
    fn randomize_rejects_an_out_of_domain_value_in_every_build() {
        let oracle = Olh::new(4, 1.0).unwrap();
        oracle.randomize(7, &mut StdRng::seed_from_u64(1));
    }

    #[test]
    fn g_follows_rounded_exponential() {
        assert_eq!(Olh::new(10, 1.0).unwrap().g(), 4); // round(e) + 1 = 4
        assert_eq!(Olh::new(10, 2.0).unwrap().g(), 8); // round(7.39) + 1 = 8
        assert_eq!(Olh::new(10, 0.1).unwrap().g(), 2); // floor at 2
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(Olh::new(0, 1.0).is_err());
        assert!(Olh::new(8, f64::NEG_INFINITY).is_err());
    }

    #[test]
    fn hashed_grr_satisfies_ldp_on_hash_domain() {
        let o = Olh::new(50, 1.0).unwrap();
        let g = f64::from(o.g());
        let q_hash = (1.0 - o.p_hash()) / (g - 1.0);
        // p'/q' ≤ e^ε with integer g (strictly < when rounding enlarges g).
        assert!(o.p_hash() / q_hash <= 1.0f64.exp() + 1e-9);
    }

    #[test]
    fn preimage_contains_exactly_matching_values() {
        let o = Olh::new(40, 2.0).unwrap();
        let seed = 1234u64;
        for h in 0..o.g() {
            for &v in &o.preimage(seed, h) {
                assert_eq!(o.hash(seed, v), h);
            }
        }
        let total: usize = (0..o.g()).map(|h| o.preimage(seed, h).len()).sum();
        assert_eq!(total, 40, "preimages partition the domain");
    }

    #[test]
    fn supports_is_consistent_with_hash() {
        let o = Olh::new(16, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let report = o.randomize(3, &mut rng);
        if let Report::Hashed { seed, value, .. } = report {
            for v in 0..16u32 {
                assert_eq!(
                    o.supports(
                        &Report::Hashed {
                            seed,
                            g: o.g(),
                            value
                        },
                        v
                    ),
                    o.hash(seed, v) == value
                );
            }
        } else {
            panic!("wrong report shape");
        }
    }

    #[test]
    fn count_hashed_matches_per_value_supports_sweep() {
        // Both loop flavors (mask for power-of-two g, modulo otherwise) must
        // be bit-identical to the default per-value `supports` sweep.
        let mut rng = StdRng::seed_from_u64(9);
        for eps in [1.0f64, 1.5, 2.0] {
            let o = Olh::new(97, eps).unwrap();
            for v in 0..20u32 {
                let report = o.randomize(v % 97, &mut rng);
                let mut fast = vec![0u64; 97];
                o.count_hashed(&mut fast, &report);
                let mut reference = vec![0u64; 97];
                for (u, c) in reference.iter_mut().enumerate() {
                    if o.supports(&report, u as u32) {
                        *c += 1;
                    }
                }
                assert_eq!(fast, reference, "g={} eps={eps}", o.g());
            }
        }
        // A mismatched shape supports nothing, exactly like `supports`.
        let o = Olh::new(8, 1.0).unwrap();
        let mut counts = vec![0u64; 8];
        o.count_hashed(&mut counts, &Report::Value(3));
        assert_eq!(counts, vec![0; 8]);
    }

    #[test]
    fn preimage_into_reuses_the_buffer() {
        let o = Olh::new(40, 2.0).unwrap();
        let mut buf = vec![7u32; 3]; // stale content must be cleared
        for h in 0..o.g() {
            o.preimage_into(1234, h, &mut buf);
            assert_eq!(buf, o.preimage(1234, h), "hash bucket {h}");
        }
    }

    #[test]
    fn estimator_recovers_point_mass() {
        let o = Olh::new(20, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let mut agg = Aggregator::new(&o);
        for _ in 0..40_000 {
            agg.absorb(&o.randomize(7, &mut rng));
        }
        let est = agg.estimate();
        assert!((est[7] - 1.0).abs() < 0.05, "est[7] = {}", est[7]);
        for (v, &e) in est.iter().enumerate() {
            if v != 7 {
                assert!(e.abs() < 0.05, "est[{v}] = {e}");
            }
        }
    }
}
