//! Heavy-tailed samplers used by the individual mobility model.
//!
//! The IM model of Section 6.1 is built entirely out of power laws: pause
//! durations (Equation 6.1), jump displacements (Equation 6.3) and visit
//! frequencies (Equation 6.4).  This module provides a bounded power-law sampler
//! (inverse-CDF) and a Zipf rank sampler, both deterministic under a seeded RNG.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A continuous power-law distribution `P(x) ∝ x^{-(1+exponent)}` truncated to
/// `[min, max]`, sampled by inverse-CDF.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundedPowerLaw {
    exponent: f64,
    min: f64,
    max: f64,
}

impl BoundedPowerLaw {
    /// Creates the sampler.
    ///
    /// # Panics
    /// Panics when `min <= 0`, `max <= min`, or `exponent < 0`.
    pub fn new(exponent: f64, min: f64, max: f64) -> Self {
        assert!(min > 0.0, "power law minimum must be positive");
        assert!(max > min, "power law maximum must exceed the minimum");
        assert!(exponent >= 0.0, "power law exponent must be non-negative");
        BoundedPowerLaw { exponent, min, max }
    }

    /// The tail exponent (`β`, `α`, ... in the paper's notation).
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Lower truncation bound.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Upper truncation bound.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // pdf ∝ x^{-a} with a = 1 + exponent. For a != 1 the inverse CDF over
        // [min, max] is ((min^(1-a) - u (min^(1-a) - max^(1-a)))^(1/(1-a))).
        let a = 1.0 + self.exponent;
        let u: f64 = rng.gen_range(0.0..1.0);
        if (a - 1.0).abs() < 1e-12 {
            // a == 1: log-uniform.
            return self.min * (self.max / self.min).powf(u);
        }
        let one_minus_a = 1.0 - a;
        let lo = self.min.powf(one_minus_a);
        let hi = self.max.powf(one_minus_a);
        (lo - u * (lo - hi)).powf(1.0 / one_minus_a)
    }

    /// The analytical mean of the truncated distribution (used by tests and by
    /// the analytical PE model to estimate the expected number of cells per
    /// entity).
    pub fn mean(&self) -> f64 {
        let a = 1.0 + self.exponent;
        // ∫ x·x^-a dx / ∫ x^-a dx over [min, max].
        let num = if (a - 2.0).abs() < 1e-12 {
            (self.max / self.min).ln()
        } else {
            (self.max.powf(2.0 - a) - self.min.powf(2.0 - a)) / (2.0 - a)
        };
        let den = if (a - 1.0).abs() < 1e-12 {
            (self.max / self.min).ln()
        } else {
            (self.max.powf(1.0 - a) - self.min.powf(1.0 - a)) / (1.0 - a)
        };
        num / den
    }
}

/// A Zipf sampler over ranks `1..=n`: `P(rank = y) ∝ y^{-ζ}` (Equation 6.4).
///
/// The sampler precomputes cumulative weights and draws by binary search, so the
/// per-sample cost is `O(log n)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ZipfSampler {
    zeta: f64,
    cumulative: Vec<f64>,
}

impl ZipfSampler {
    /// Creates a sampler over `n >= 1` ranks with exponent `zeta >= 0`.
    pub fn new(n: usize, zeta: f64) -> Self {
        assert!(n >= 1, "zipf needs at least one rank");
        assert!(zeta >= 0.0, "zipf exponent must be non-negative");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for y in 1..=n {
            total += (y as f64).powf(-zeta);
            cumulative.push(total);
        }
        ZipfSampler { zeta, cumulative }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Always false (the constructor requires `n >= 1`).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// The exponent ζ.
    pub fn zeta(&self) -> f64 {
        self.zeta
    }

    /// Draws a rank in `1..=n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let u: f64 = rng.gen_range(0.0..total);
        match self.cumulative.binary_search_by(|c| c.partial_cmp(&u).expect("finite")) {
            Ok(idx) => idx + 2.min(self.cumulative.len()).max(1),
            Err(idx) => idx + 1,
        }
        .min(self.cumulative.len())
    }
}

#[cfg(test)]
impl ZipfSampler {
    /// Probability of rank `y` (1-based).
    fn pmf(&self, y: usize) -> f64 {
        assert!((1..=self.len()).contains(&y), "rank out of range");
        let total = *self.cumulative.last().expect("non-empty");
        (y as f64).powf(-self.zeta) / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn power_law_samples_stay_in_bounds() {
        let law = BoundedPowerLaw::new(0.8, 1.0, 100.0);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = law.sample(&mut rng);
            assert!((1.0..=100.0).contains(&x), "sample {x} out of bounds");
        }
    }

    #[test]
    fn heavier_tails_have_larger_means() {
        // A smaller exponent puts more mass on large values.
        let light = BoundedPowerLaw::new(1.5, 1.0, 1000.0);
        let heavy = BoundedPowerLaw::new(0.3, 1.0, 1000.0);
        assert!(heavy.mean() > light.mean());
    }

    #[test]
    fn empirical_mean_tracks_analytical_mean() {
        let law = BoundedPowerLaw::new(0.8, 1.0, 200.0);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| law.sample(&mut rng)).sum();
        let empirical = sum / n as f64;
        let analytical = law.mean();
        let rel_err = (empirical - analytical).abs() / analytical;
        assert!(rel_err < 0.05, "empirical {empirical} vs analytical {analytical}");
    }

    #[test]
    fn most_samples_are_small() {
        let law = BoundedPowerLaw::new(1.0, 1.0, 10_000.0);
        let mut rng = StdRng::seed_from_u64(3);
        let below_ten =
            (0..10_000).filter(|_| law.sample(&mut rng) < 10.0).count() as f64 / 10_000.0;
        assert!(below_ten > 0.7, "a power law should concentrate near the minimum: {below_ten}");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn power_law_rejects_zero_minimum() {
        let _ = BoundedPowerLaw::new(1.0, 0.0, 10.0);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let zipf = ZipfSampler::new(50, 1.2);
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = vec![0usize; 51];
        for _ in 0..50_000 {
            let rank = zipf.sample(&mut rng);
            assert!((1..=50).contains(&rank));
            counts[rank] += 1;
        }
        assert!(counts[1] > counts[10]);
        assert!(counts[1] > counts[50] * 5);
    }

    #[test]
    fn zipf_with_zero_exponent_is_uniform() {
        let zipf = ZipfSampler::new(10, 0.0);
        for y in 1..=10 {
            assert!((zipf.pmf(y) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let zipf = ZipfSampler::new(30, 1.7);
        let sum: f64 = (1..=30).map(|y| zipf.pmf(y)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert_eq!(zipf.len(), 30);
        assert!(!zipf.is_empty());
        assert_eq!(zipf.zeta(), 1.7);
    }

    #[test]
    fn zipf_single_rank_always_returns_one() {
        let zipf = ZipfSampler::new(1, 2.0);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            assert_eq!(zipf.sample(&mut rng), 1);
        }
    }

    #[test]
    #[should_panic(expected = "rank out of range")]
    fn zipf_pmf_rejects_rank_zero() {
        let _ = ZipfSampler::new(5, 1.0).pmf(0);
    }
}
