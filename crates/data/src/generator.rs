//! The synthetic rating generator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mf_sparse::{Rating, SparseMatrix};

use crate::zipf::Zipf;

/// Configuration of one synthetic dataset.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Dataset label (shows up in experiment output).
    pub name: String,
    /// Users (rows), the paper's `m`.
    pub num_users: u32,
    /// Items (columns), the paper's `n`.
    pub num_items: u32,
    /// Training ratings to draw.
    pub num_train: usize,
    /// Test ratings to draw.
    pub num_test: usize,
    /// Rank of the planted ground-truth model.
    pub planted_rank: usize,
    /// Standard deviation of the additive Gaussian noise, in rating units.
    /// This sets the RMSE floor a well-fitted model converges to.
    pub noise_std: f32,
    /// Minimum rating value (1.0 for star scales, 0.0 for 0–100 scales).
    pub rating_min: f32,
    /// Maximum rating value.
    pub rating_max: f32,
    /// Zipf exponent for user popularity (0 = uniform).
    pub user_skew: f64,
    /// Zipf exponent for item popularity.
    pub item_skew: f64,
    /// Master seed.
    pub seed: u64,
}

impl GeneratorConfig {
    /// A small default config for tests and the quickstart example.
    pub fn tiny(name: &str, seed: u64) -> GeneratorConfig {
        GeneratorConfig {
            name: name.to_string(),
            num_users: 200,
            num_items: 150,
            num_train: 6_000,
            num_test: 600,
            planted_rank: 4,
            noise_std: 0.3,
            rating_min: 1.0,
            rating_max: 5.0,
            user_skew: 0.8,
            item_skew: 0.8,
            seed,
        }
    }

    /// The out-of-core preset of the `spill_train` example: enough
    /// training ratings that
    /// the partition's wire bytes dwarf a tight block-cache budget, and
    /// mild popularity skew so grid blocks are unevenly sized — the
    /// interesting regime for a byte-budgeted LRU.
    pub fn spill_scale(name: &str, seed: u64) -> GeneratorConfig {
        GeneratorConfig {
            name: name.to_string(),
            num_users: 3_000,
            num_items: 2_000,
            num_train: 400_000,
            num_test: 40_000,
            planted_rank: 4,
            noise_std: 0.3,
            rating_min: 1.0,
            rating_max: 5.0,
            user_skew: 0.6,
            item_skew: 0.6,
            seed,
        }
    }
}

/// A generated dataset: train and test matrices sharing one shape.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset label.
    pub name: String,
    /// Training ratings.
    pub train: SparseMatrix,
    /// Held-out test ratings (drawn from the same planted model).
    pub test: SparseMatrix,
    /// The noise floor: expected RMSE of a perfect recovery.
    pub noise_std: f32,
}

/// Standard-normal draw via Box-Muller (seeded, no extra dependency).
fn gaussian(rng: &mut StdRng) -> f32 {
    loop {
        let u1: f64 = rng.random();
        let u2: f64 = rng.random();
        if u1 > 1e-12 {
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            return z as f32;
        }
    }
}

/// Generates a dataset from the config. Deterministic in
/// `config.seed`.
pub fn generate(cfg: &GeneratorConfig) -> Dataset {
    assert!(cfg.num_users > 0 && cfg.num_items > 0, "empty shape");
    assert!(cfg.rating_max > cfg.rating_min, "degenerate rating range");
    assert!(cfg.planted_rank > 0, "need a planted rank");
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Planted ground truth: unit-variance factors scaled so the dot
    // product spans about half of the rating range, plus biases.
    let r = cfg.planted_rank;
    let factor_scale = 1.0 / (r as f32).sqrt();
    let mut draw_factors = |count: u32| -> Vec<f32> {
        (0..count as usize * r)
            .map(|_| gaussian(&mut rng) * factor_scale)
            .collect()
    };
    let user_factors = draw_factors(cfg.num_users);
    let item_factors = draw_factors(cfg.num_items);
    let mid = 0.5 * (cfg.rating_min + cfg.rating_max);
    let amp = 0.25 * (cfg.rating_max - cfg.rating_min);
    let user_bias: Vec<f32> = (0..cfg.num_users)
        .map(|_| gaussian(&mut rng) * 0.2 * amp)
        .collect();
    let item_bias: Vec<f32> = (0..cfg.num_items)
        .map(|_| gaussian(&mut rng) * 0.2 * amp)
        .collect();

    let user_dist = Zipf::new(cfg.num_users as usize, cfg.user_skew);
    let item_dist = Zipf::new(cfg.num_items as usize, cfg.item_skew);

    let draw = |count: usize, rng: &mut StdRng| -> Vec<Rating> {
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let u = user_dist.sample(rng);
            let v = item_dist.sample(rng);
            let dot: f32 = (0..r)
                .map(|i| user_factors[u as usize * r + i] * item_factors[v as usize * r + i])
                .sum();
            let clean = mid + amp * dot + user_bias[u as usize] + item_bias[v as usize];
            let noisy = clean + gaussian(rng) * cfg.noise_std;
            out.push(Rating::new(
                u,
                v,
                noisy.clamp(cfg.rating_min, cfg.rating_max),
            ));
        }
        out
    };

    let train_entries = draw(cfg.num_train, &mut rng);
    let test_entries = draw(cfg.num_test, &mut rng);
    Dataset {
        name: cfg.name.clone(),
        train: SparseMatrix::new(cfg.num_users, cfg.num_items, train_entries)
            .expect("generated entries are in bounds"),
        test: SparseMatrix::new(cfg.num_users, cfg.num_items, test_entries)
            .expect("generated entries are in bounds"),
        noise_std: cfg.noise_std,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_counts_match_config() {
        let cfg = GeneratorConfig::tiny("t", 1);
        let ds = generate(&cfg);
        assert_eq!(ds.train.nrows(), 200);
        assert_eq!(ds.train.ncols(), 150);
        assert_eq!(ds.train.nnz(), 6_000);
        assert_eq!(ds.test.nnz(), 600);
        assert_eq!(ds.name, "t");
    }

    #[test]
    fn ratings_respect_range() {
        let ds = generate(&GeneratorConfig::tiny("t", 2));
        let (lo, hi) = ds.train.rating_range().unwrap();
        assert!(lo >= 1.0 && hi <= 5.0, "range [{lo}, {hi}]");
    }

    #[test]
    fn spill_scale_outweighs_any_reasonable_cache_budget() {
        // The preset exists to make training spill: its partition wire
        // bytes must comfortably exceed the megabyte-scale budgets the
        // example and bench squeeze it into.
        let cfg = GeneratorConfig::spill_scale("s", 1);
        let wire = cfg.num_train * mf_sparse::Rating::WIRE_BYTES;
        assert!(wire >= 4 << 20, "partition wire bytes {wire} too small");
        assert!(cfg.user_skew > 0.0 && cfg.item_skew > 0.0);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = generate(&GeneratorConfig::tiny("t", 3));
        let b = generate(&GeneratorConfig::tiny("t", 3));
        assert_eq!(a.train, b.train);
        assert_eq!(a.test, b.test);
        let c = generate(&GeneratorConfig::tiny("t", 4));
        assert_ne!(a.train, c.train);
    }

    #[test]
    fn zipf_skew_concentrates_popular_users() {
        let mut cfg = GeneratorConfig::tiny("t", 5);
        cfg.user_skew = 1.2;
        cfg.num_train = 20_000;
        let ds = generate(&cfg);
        let counts = ds.train.row_counts();
        // User 0 (most popular) should dwarf the median user.
        let mut sorted = counts.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        assert!(
            counts[0] > 10 * median.max(1),
            "head user {} vs median {median}",
            counts[0]
        );
    }

    #[test]
    fn planted_structure_is_learnable() {
        // A model trained on the synthetic data must reach close to the
        // noise floor — this is the property every experiment relies on.
        let mut cfg = GeneratorConfig::tiny("t", 6);
        cfg.noise_std = 0.2;
        cfg.num_train = 12_000;
        let ds = generate(&cfg);
        let tc = mf_sgd::sequential::TrainConfig {
            hyper: mf_sgd::HyperParams {
                k: 8,
                lambda_p: 0.02,
                lambda_q: 0.02,
                gamma: 0.03,
                schedule: mf_sgd::LearningRate::Fixed,
            },
            iterations: 40,
            seed: 7,
            reshuffle: true,
        };
        let model = mf_sgd::sequential::train(&ds.train, &tc);
        let test_rmse = mf_sgd::eval::rmse(&model, &ds.test);
        assert!(
            test_rmse < 3.0 * cfg.noise_std as f64,
            "test rmse {test_rmse:.3} vs noise floor {}",
            cfg.noise_std
        );
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 100_000;
        let samples: Vec<f32> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean: f64 = samples.iter().map(|&x| x as f64).sum::<f64>() / n as f64;
        let var: f64 = samples
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }
}
