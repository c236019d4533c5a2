//! Hyper-parameters and learning-rate schedules.

/// Learning-rate schedule across iterations.
///
/// The paper trains with a fixed rate per dataset (Table I) but cites Chin
/// et al. (PAKDD'15) for schedules; the two decaying schedules here are the
/// ones from that work's comparison set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LearningRate {
    /// `γ_t = γ₀` — the paper's experimental setting.
    Fixed,
    /// `γ_t = γ₀ · β^t`, `0 < β ≤ 1` (monotone exponential decay).
    Exponential {
        /// Per-iteration decay multiplier β.
        beta: f32,
    },
    /// `γ_t = γ₀ / (1 + c · t^1.5)` — the inverse-power schedule Chin et
    /// al. recommend for MF.
    InversePower {
        /// Decay strength c.
        c: f32,
    },
}

impl LearningRate {
    /// The learning rate at 0-based iteration `t`, given base rate `gamma0`.
    pub fn at(self, gamma0: f32, t: u32) -> f32 {
        match self {
            LearningRate::Fixed => gamma0,
            LearningRate::Exponential { beta } => gamma0 * beta.powi(t as i32),
            LearningRate::InversePower { c } => gamma0 / (1.0 + c * (t as f32).powf(1.5)),
        }
    }
}

/// Hyper-parameters of the factorization (paper Table I).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HyperParams {
    /// Latent dimension `k`.
    pub k: usize,
    /// User-factor regularization λ_P.
    pub lambda_p: f32,
    /// Item-factor regularization λ_Q.
    pub lambda_q: f32,
    /// Base learning rate γ.
    pub gamma: f32,
    /// Learning-rate schedule.
    pub schedule: LearningRate,
}

impl HyperParams {
    /// The paper's MovieLens / Netflix setting: λ = 0.05, γ = 0.005.
    pub fn movielens(k: usize) -> HyperParams {
        HyperParams {
            k,
            lambda_p: 0.05,
            lambda_q: 0.05,
            gamma: 0.005,
            schedule: LearningRate::Fixed,
        }
    }

    /// The paper's R1 setting: λ = 1, γ = 0.005 (0–100 rating scale).
    pub fn r1(k: usize) -> HyperParams {
        HyperParams {
            k,
            lambda_p: 1.0,
            lambda_q: 1.0,
            gamma: 0.005,
            schedule: LearningRate::Fixed,
        }
    }

    /// The paper's Yahoo!Music setting: λ = 1, γ = 0.01.
    pub fn yahoo(k: usize) -> HyperParams {
        HyperParams {
            k,
            lambda_p: 1.0,
            lambda_q: 1.0,
            gamma: 0.01,
            schedule: LearningRate::Fixed,
        }
    }

    /// Learning rate at iteration `t` under this config's schedule.
    pub fn gamma_at(&self, t: u32) -> f32 {
        self.schedule.at(self.gamma, t)
    }
}

impl Default for HyperParams {
    /// A sensible laptop-scale default: `k = 32`, MovieLens-style
    /// regularization.
    fn default() -> Self {
        HyperParams::movielens(32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_schedule_is_constant() {
        let h = HyperParams::movielens(8);
        assert_eq!(h.gamma_at(0), 0.005);
        assert_eq!(h.gamma_at(100), 0.005);
    }

    #[test]
    fn exponential_decays_monotonically() {
        let s = LearningRate::Exponential { beta: 0.9 };
        let g0 = s.at(0.1, 0);
        let g1 = s.at(0.1, 1);
        let g10 = s.at(0.1, 10);
        assert_eq!(g0, 0.1);
        assert!((g1 - 0.09).abs() < 1e-7);
        assert!(g10 < g1 && g1 < g0);
    }

    #[test]
    fn inverse_power_decays() {
        let s = LearningRate::InversePower { c: 0.1 };
        assert_eq!(s.at(0.1, 0), 0.1);
        let g4 = s.at(0.1, 4);
        // 1 + 0.1·8 = 1.8 → 0.0555…
        assert!((g4 - 0.1 / 1.8).abs() < 1e-6);
        assert!(s.at(0.1, 100) < s.at(0.1, 10));
    }

    #[test]
    fn presets_match_table_one() {
        let ml = HyperParams::movielens(128);
        assert_eq!((ml.lambda_p, ml.lambda_q, ml.gamma), (0.05, 0.05, 0.005));
        let r1 = HyperParams::r1(128);
        assert_eq!((r1.lambda_p, r1.lambda_q, r1.gamma), (1.0, 1.0, 0.005));
        let ym = HyperParams::yahoo(128);
        assert_eq!((ym.lambda_p, ym.lambda_q, ym.gamma), (1.0, 1.0, 0.01));
    }
}
