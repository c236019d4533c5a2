//! Seeded Zipf sampling.
//!
//! Implemented in-tree (rather than pulling `rand_distr`) with a
//! precomputed cumulative table and binary search: exact, O(log n) per
//! sample, and deterministic across platforms.

use rand::rngs::StdRng;
use rand::Rng;

/// A Zipf distribution over `0..n`: `P(i) ∝ 1 / (i + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler for `n` outcomes with exponent `s ≥ 0`
    /// (`s = 0` is uniform).
    ///
    /// # Panics
    ///
    /// Panics when `n == 0` or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one outcome");
        assert!(s >= 0.0 && s.is_finite(), "invalid Zipf exponent {s}");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against FP drift: the last entry must be exactly 1.
        *cdf.last_mut().unwrap() = 1.0;
        Zipf { cdf }
    }

    /// Number of outcomes.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Draws one outcome.
    pub fn sample(&self, rng: &mut StdRng) -> u32 {
        let x: f64 = rng.random();
        // First index with cdf >= x.
        self.cdf.partition_point(|&c| c < x) as u32
    }

    /// Probability of outcome `i`.
    pub fn pmf(&self, i: usize) -> f64 {
        if i == 0 {
            self.cdf[0]
        } else {
            self.cdf[i] - self.cdf[i - 1]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(100, 1.0);
        let total: f64 = (0..100).map(|i| z.pmf(i)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_when_s_zero() {
        let z = Zipf::new(10, 0.0);
        for i in 0..10 {
            assert!((z.pmf(i) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn skew_orders_probabilities() {
        let z = Zipf::new(50, 1.2);
        for i in 1..50 {
            assert!(z.pmf(i) < z.pmf(i - 1), "pmf must decrease");
        }
        // Head is much heavier than tail.
        assert!(z.pmf(0) > 10.0 * z.pmf(49));
    }

    #[test]
    fn samples_match_distribution_roughly() {
        let z = Zipf::new(10, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 10];
        let n = 200_000;
        for _ in 0..n {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        for (i, &count) in counts.iter().enumerate() {
            let freq = count as f64 / n as f64;
            let expect = z.pmf(i);
            assert!(
                (freq - expect).abs() < 0.01,
                "outcome {i}: freq {freq:.4} vs pmf {expect:.4}"
            );
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let z = Zipf::new(1000, 1.1);
        let a: Vec<u32> = {
            let mut rng = StdRng::seed_from_u64(3);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<u32> = {
            let mut rng = StdRng::seed_from_u64(3);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn single_outcome() {
        let z = Zipf::new(1, 2.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(z.sample(&mut rng), 0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_outcomes_rejected() {
        let _ = Zipf::new(0, 1.0);
    }
}
