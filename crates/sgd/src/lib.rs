//! # mf-sgd — stochastic-gradient matrix factorization substrate
//!
//! Everything needed to *train* a factorization `R ≈ P·Q` (paper Sec. II):
//!
//! * [`Model`] — the dense factor matrices `P (m×k)` and `Qᵀ (n×k)`, stored
//!   row-major so one rating update touches two contiguous `k`-vectors.
//! * [`kernel`] — the inner SGD update (Eq. 4–6), written so LLVM can
//!   vectorize it; this exact routine runs on CPU workers (both execution
//!   worlds of `hsgd-core`) and inside the simulated GPU's SIMT lanes.
//! * [`simd`] — explicit AVX2+FMA / AVX-512 builds of the hot kernels
//!   behind one runtime-detected, `MF_SIMD`-overridable dispatch
//!   ladder, with the portable kernels kept as the scalar level (and
//!   the test oracle).
//! * [`HyperParams`] / [`LearningRate`] — `k`, `λ_P`, `λ_Q`, `γ` and the
//!   learning-rate schedules of Chin et al. (PAKDD'15), the paper's \[43\].
//! * [`eval`] — RMSE / MAE / regularized loss (Eq. 2).
//! * [`sequential::train`] — Algorithm 1, the one trainer below
//!   `hsgd-core`. The paper's **CPU-Only** baseline (FPSGD, Zhuang et
//!   al.) is `hsgd-core`'s capped `UniformScheduler`, on real threads or
//!   in virtual time.
//!
//! Persisting a trained model (Algorithm 1's `save_model`) is
//! `mf_serve::checkpoint` — the checksummed `MFCK` format.

pub mod eval;
pub mod hyper;
pub mod kernel;
pub mod model;
pub mod sequential;
pub mod shared;
pub mod simd;
pub mod sweep;

pub use hyper::{HyperParams, LearningRate};
pub use model::Model;
pub use shared::SharedModel;
