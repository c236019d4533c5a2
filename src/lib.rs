//! # hsgd-star — heterogeneous CPU-GPU matrix factorization
//!
//! A production-quality Rust reproduction of **Yu et al., "Efficient
//! Matrix Factorization on Heterogeneous CPU-GPU Systems" (ICDE 2021)**:
//! SGD-based matrix factorization that divides the rating matrix
//! *nonuniformly* between CPU threads and GPUs, sizes the split with a
//! tailored cost model, and rebalances at runtime with dynamic work
//! stealing.
//!
//! This facade crate re-exports the workspace's public API. Start from:
//!
//! * [`hetero::experiments::run`] — run any of the paper's six algorithm
//!   variants on a train/test pair and get a trained model plus a full
//!   run report.
//! * [`hetero::runtime::run_training_real`] — the same schedulers on
//!   real OS threads: deterministic exclusive rounds or free-running
//!   relaxed workers, with measured throughputs fed back into the cost
//!   models.
//! * [`data::preset`] — the Table I benchmark datasets (synthetic
//!   stand-ins at configurable scale).
//! * [`sgd`] — the factor model, SGD kernels, evaluation, and the
//!   sequential Algorithm 1 trainer.
//! * [`gpu`] — the virtual GPU device used in place of CUDA hardware.
//! * [`serve`] — the trained model's lifecycle: checksummed `MFCK`
//!   checkpoints, fold-in for new users/items, batched top-k serving.
//!
//! ```
//! use hsgd_star::data::{preset, PresetName};
//! use hsgd_star::hetero::{experiments, Algorithm, HeteroConfig};
//! use hsgd_star::sgd::HyperParams;
//!
//! // A tiny MovieLens-shaped dataset and the paper's default rig,
//! // with device constants scaled to match the reduced size.
//! let ds = preset(PresetName::MovieLens, 2000, 7).build();
//! let mut cfg = HeteroConfig::paper_default(HyperParams::movielens(8));
//! cfg.nc = 4;
//! cfg.gpu = cfg.gpu.scaled_down(2000.0);
//! cfg.iterations = 3;
//!
//! let out = experiments::run(Algorithm::HsgdStar, &ds.train, &ds.test, &cfg);
//! assert!(out.report.final_test_rmse.is_finite());
//! println!(
//!     "trained in {:.3} virtual ms, test RMSE {:.3}",
//!     out.report.virtual_secs * 1e3,
//!     out.report.final_test_rmse
//! );
//! ```

#![warn(missing_docs)]

/// The paper's contribution: layouts, schedulers, cost-model calibration,
/// the virtual-time trainer, and the six algorithm variants.
pub use hsgd_core as hetero;

/// Synthetic benchmark datasets (Table I stand-ins).
pub use mf_data as data;

/// Cost models: OLS fitting, piecewise ramps, Qilin baseline, α solver.
pub use mf_cost as cost;

/// Deterministic discrete-event simulation core.
pub use mf_des as des;

/// SGD substrate: model, kernels, trainers, metrics.
pub use mf_sgd as sgd;

/// Sparse rating-matrix substrate: COO, grid partitioning, `MFCK` framing, I/O.
pub use mf_sparse as sparse;

/// The data-pipeline thread pool (deterministic chunked parallelism).
pub use mf_par as par;

/// Model lifecycle & serving: checkpoints, fold-in, batched top-k.
pub use mf_serve as serve;

/// The virtual GPU device (SIMT kernel, PCIe model, stream pipeline).
pub use gpu_sim as gpu;

/// Adversarial scheduler validation: seeded fault scripts, the
/// invariant monitor, and the shrinking fuzz harness.
pub use mf_fuzz as fuzz;
