//! The baseline single-threaded SGD trainer (paper Algorithm 1).

use mf_sparse::{shuffle, SparseMatrix};

use crate::hyper::HyperParams;
use crate::kernel;
use crate::model::Model;

/// Configuration of the sequential trainer.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Factorization hyper-parameters.
    pub hyper: HyperParams,
    /// Number of passes over the training data (the paper's `t`).
    pub iterations: u32,
    /// Master RNG seed (model init + per-iteration shuffles).
    pub seed: u64,
    /// Re-shuffle the visit order before every iteration. Algorithm 1
    /// visits in storage order; shuffling each pass is the common practical
    /// refinement and the default.
    pub reshuffle: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            hyper: HyperParams::default(),
            iterations: 10,
            seed: 42,
            reshuffle: true,
        }
    }
}

/// Per-iteration statistics delivered to the training callback.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationStat {
    /// 0-based iteration index.
    pub iteration: u32,
    /// Mean squared pre-update error across this pass — a free streaming
    /// proxy for training loss.
    pub train_mse: f64,
    /// Learning rate used this iteration.
    pub gamma: f32,
}

/// Trains a model with plain sequential SGD (Algorithm 1): for `t`
/// iterations, visit every rating and apply the Eq. 6 update.
pub fn train(data: &SparseMatrix, cfg: &TrainConfig) -> Model {
    train_with(data, cfg, |_, _| {})
}

/// Like [`train`], invoking `probe(stat, &model)` after every iteration —
/// used by the experiment harness to record loss-versus-iteration curves.
pub fn train_with<F>(data: &SparseMatrix, cfg: &TrainConfig, mut probe: F) -> Model
where
    F: FnMut(IterationStat, &Model),
{
    let mut model = Model::init_for_ratings(
        data.nrows(),
        data.ncols(),
        cfg.hyper.k,
        cfg.seed,
        data.mean_rating(),
    );
    // Work on a private copy of the entries so reshuffling does not disturb
    // the caller's matrix.
    let mut order = data.clone();
    for it in 0..cfg.iterations {
        if cfg.reshuffle {
            // Thread-count-independent parallel shuffle: the visit order
            // (and so the model) depends only on the seed.
            shuffle::par_shuffle_entries(&mut order, cfg.seed.wrapping_add(1 + it as u64));
        }
        let gamma = cfg.hyper.gamma_at(it);
        let mut sq = 0f64;
        for e in order.entries() {
            let (p, q) = model.pq_rows_mut(e.u, e.v);
            let err = kernel::sgd_step(p, q, e.r, gamma, cfg.hyper.lambda_p, cfg.hyper.lambda_q);
            sq += (err as f64) * (err as f64);
        }
        let stat = IterationStat {
            iteration: it,
            train_mse: if data.nnz() > 0 {
                sq / data.nnz() as f64
            } else {
                0.0
            },
            gamma,
        };
        probe(stat, &model);
    }
    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval;
    use mf_sparse::Rating;

    /// A small exactly-rank-2 matrix: r_uv = a_u·b_v with planted factors.
    fn low_rank_data(m: u32, n: u32, seed: u64) -> SparseMatrix {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<[f32; 2]> = (0..m).map(|_| [rng.random(), rng.random()]).collect();
        let b: Vec<[f32; 2]> = (0..n).map(|_| [rng.random(), rng.random()]).collect();
        let mut entries = Vec::new();
        for u in 0..m {
            for v in 0..n {
                // 60% observed.
                if rng.random::<f32>() < 0.6 {
                    let r = 1.0
                        + 2.0
                            * (a[u as usize][0] * b[v as usize][0]
                                + a[u as usize][1] * b[v as usize][1]);
                    entries.push(Rating::new(u, v, r));
                }
            }
        }
        SparseMatrix::new(m, n, entries).unwrap()
    }

    #[test]
    fn training_reduces_rmse_substantially() {
        let data = low_rank_data(40, 30, 11);
        let cfg = TrainConfig {
            hyper: HyperParams {
                k: 8,
                lambda_p: 0.01,
                lambda_q: 0.01,
                gamma: 0.05,
                schedule: crate::LearningRate::Fixed,
            },
            iterations: 60,
            seed: 1,
            reshuffle: true,
        };
        let before = Model::init(data.nrows(), data.ncols(), cfg.hyper.k, cfg.seed);
        let rmse0 = eval::rmse(&before, &data);
        let model = train(&data, &cfg);
        let rmse1 = eval::rmse(&model, &data);
        assert!(
            rmse1 < rmse0 * 0.2,
            "rmse should drop by >5x: {rmse0:.4} -> {rmse1:.4}"
        );
        assert!(
            rmse1 < 0.15,
            "low-rank data should fit well, got {rmse1:.4}"
        );
    }

    #[test]
    fn probe_sees_every_iteration_and_mse_decreases() {
        let data = low_rank_data(20, 20, 3);
        let cfg = TrainConfig {
            iterations: 12,
            ..TrainConfig::default()
        };
        let mut stats = Vec::new();
        let _ = train_with(&data, &cfg, |s, _| stats.push(s));
        assert_eq!(stats.len(), 12);
        assert!(stats
            .windows(2)
            .all(|w| w[1].iteration == w[0].iteration + 1));
        // Loss after the last iteration is far below the first.
        assert!(stats.last().unwrap().train_mse < stats[0].train_mse * 0.8);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = low_rank_data(15, 15, 4);
        let cfg = TrainConfig::default();
        let a = train(&data, &cfg);
        let b = train(&data, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_data_yields_initial_model() {
        let data = SparseMatrix::empty(5, 5);
        let cfg = TrainConfig::default();
        let model = train(&data, &cfg);
        assert_eq!(model, Model::init(5, 5, cfg.hyper.k, cfg.seed));
    }
}
