//! Table I presets.
//!
//! Each preset reproduces one row of the paper's Table I at `1/scale`
//! size: users, items, and rating counts all divide by `scale`, keeping
//! ratings-per-user (and hence convergence behaviour) constant. The
//! recommended hyper-parameters are the paper's.

use crate::generator::{generate, Dataset, GeneratorConfig};

/// The four benchmark datasets of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PresetName {
    /// MovieLens 10M (71,567 × 65,133; 9.3M train ratings; 1–5 stars).
    MovieLens,
    /// Netflix Prize (2,649,429 × 17,770; 99.1M train; 1–5 stars).
    Netflix,
    /// Yahoo R1 (1,948,883 × 1,101,750; 104.2M train; 0–100).
    R1,
    /// Yahoo!Music (1,000,990 × 624,961; 252.8M train; 0–100).
    YahooMusic,
}

impl PresetName {
    /// All four, in the paper's column order.
    pub fn all() -> [PresetName; 4] {
        [
            PresetName::MovieLens,
            PresetName::Netflix,
            PresetName::R1,
            PresetName::YahooMusic,
        ]
    }

    /// Display label matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            PresetName::MovieLens => "MovieLens",
            PresetName::Netflix => "Netflix",
            PresetName::R1 => "R1",
            PresetName::YahooMusic => "Yahoo!Music",
        }
    }
}

/// One row of Table I plus generator knobs.
#[derive(Debug, Clone)]
pub struct DatasetPreset {
    /// Which dataset this mimics.
    pub name: PresetName,
    /// Generator configuration (already scaled).
    pub generator: GeneratorConfig,
    /// The paper's latent dimension for this dataset (always 128).
    pub k: usize,
    /// The paper's λ_P.
    pub lambda_p: f32,
    /// The paper's λ_Q.
    pub lambda_q: f32,
    /// The learning rate recommended for the *synthetic* stand-in. For
    /// the 0–100-scale datasets this is smaller than the paper's value:
    /// plain SGD with γ = 0.01 diverges on the synthetic R1/Yahoo data
    /// (the real corpora evidently have a friendlier variance structure),
    /// while γ = 0.002 converges cleanly to the noise floor.
    pub gamma: f32,
    /// The γ the paper used on the real dataset (Table I), for reference.
    pub paper_gamma: f32,
    /// The paper's convergence target (predefined RMSE) for Sec. VII-A.
    /// Synthetic stand-ins converge to a different absolute floor, so
    /// experiments use `target_rmse_factor × noise_std` instead; this
    /// field records the paper's value for the report.
    pub paper_target_rmse: f64,
}

/// Full-scale Table I row values: (m, n, train, test).
fn table_one_counts(name: PresetName) -> (u64, u64, u64, u64) {
    match name {
        PresetName::MovieLens => (71_567, 65_133, 9_301_274, 698_780),
        PresetName::Netflix => (2_649_429, 17_770, 99_072_112, 1_408_395),
        PresetName::R1 => (1_948_883, 1_101_750, 104_215_016, 11_364_422),
        PresetName::YahooMusic => (1_000_990, 624_961, 252_800_275, 4_003_960),
    }
}

/// Builds a preset at `1/scale` of the paper's size. `scale = 1` is the
/// full Table I configuration (hundreds of millions of ratings — budget
/// accordingly); the experiment binaries default to `scale = 100`.
pub fn preset(name: PresetName, scale: u64, seed: u64) -> DatasetPreset {
    assert!(scale >= 1, "scale must be at least 1");
    let (m, n, train, test) = table_one_counts(name);
    let div = |x: u64| ((x / scale).max(8)) as u32;
    let (rating_min, rating_max, noise_std) = match name {
        PresetName::MovieLens => (1.0, 5.0, 0.55),
        PresetName::Netflix => (1.0, 5.0, 0.72),
        PresetName::R1 => (0.0, 100.0, 18.0),
        PresetName::YahooMusic => (0.0, 100.0, 17.0),
    };
    let (lambda, gamma, paper_gamma, paper_target) = match name {
        PresetName::MovieLens => (0.05, 0.005, 0.005, 0.66),
        PresetName::Netflix => (0.05, 0.005, 0.005, 0.82),
        PresetName::R1 => (1.0, 0.002, 0.005, 20.0),
        PresetName::YahooMusic => (1.0, 0.002, 0.01, 19.0),
    };
    DatasetPreset {
        name,
        generator: GeneratorConfig {
            name: name.label().to_string(),
            num_users: div(m),
            num_items: div(n),
            num_train: (train / scale).max(64) as usize,
            num_test: (test / scale).max(32) as usize,
            planted_rank: 8,
            noise_std,
            rating_min,
            rating_max,
            user_skew: 0.75,
            item_skew: 0.9,
            seed,
        },
        k: 128,
        lambda_p: lambda,
        lambda_q: lambda,
        gamma,
        paper_gamma,
        paper_target_rmse: paper_target,
    }
}

impl DatasetPreset {
    /// Generates the dataset.
    pub fn build(&self) -> Dataset {
        generate(&self.generator)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_scale_matches_table_one() {
        let p = preset(PresetName::YahooMusic, 1, 0);
        assert_eq!(p.generator.num_users, 1_000_990);
        assert_eq!(p.generator.num_items, 624_961);
        assert_eq!(p.generator.num_train, 252_800_275);
        assert_eq!(p.generator.num_test, 4_003_960);
        assert_eq!(p.k, 128);
        assert_eq!(p.paper_gamma, 0.01);
        assert_eq!(p.gamma, 0.002);
        assert_eq!(p.lambda_p, 1.0);
    }

    #[test]
    fn paper_hyper_parameters_per_dataset() {
        let ml = preset(PresetName::MovieLens, 100, 0);
        assert_eq!((ml.lambda_p, ml.gamma), (0.05, 0.005));
        let r1 = preset(PresetName::R1, 100, 0);
        assert_eq!((r1.lambda_p, r1.paper_gamma), (1.0, 0.005));
        assert_eq!(r1.gamma, 0.002);
        assert_eq!(r1.paper_target_rmse, 20.0);
    }

    #[test]
    fn scaling_divides_everything() {
        let p = preset(PresetName::Netflix, 100, 0);
        assert_eq!(p.generator.num_users, 26_494);
        assert_eq!(p.generator.num_items, 177);
        assert_eq!(p.generator.num_train, 990_721);
        // Ratings per user preserved (≈ 37).
        let per_user = p.generator.num_train as f64 / p.generator.num_users as f64;
        assert!((per_user - 37.4).abs() < 1.0, "per-user {per_user}");
    }

    #[test]
    fn small_preset_builds_and_is_learnable_shape() {
        let p = preset(PresetName::MovieLens, 1000, 7);
        let ds = p.build();
        assert_eq!(ds.train.nnz(), 9_301);
        assert_eq!(ds.train.nrows(), 71);
        assert_eq!(ds.test.nnz(), 698);
        let (lo, hi) = ds.train.rating_range().unwrap();
        assert!(lo >= 1.0 && hi <= 5.0);
    }

    #[test]
    fn rating_scales_differ_by_dataset() {
        let r1 = preset(PresetName::R1, 2000, 3).build();
        let (_, hi) = r1.train.rating_range().unwrap();
        assert!(hi > 20.0, "R1 uses the 0-100 scale, max {hi}");
        let ml = preset(PresetName::MovieLens, 2000, 3).build();
        let (_, hi_ml) = ml.train.rating_range().unwrap();
        assert!(hi_ml <= 5.0);
    }

    #[test]
    fn floor_guards_tiny_scales() {
        // Absurd scales still produce a usable dataset.
        let p = preset(PresetName::MovieLens, u64::MAX / 2, 0);
        assert!(p.generator.num_users >= 8);
        assert!(p.generator.num_train >= 64);
        let ds = p.build();
        assert!(ds.train.nnz() >= 64);
    }
}
