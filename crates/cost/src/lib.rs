//! # mf-cost — cost models for heterogeneous workload division
//!
//! The paper's Section V: to split the rating matrix between CPUs and GPUs
//! you need functions `f_c(size)` and `f_g(size)` estimating each
//! resource's processing time. This crate provides:
//!
//! * [`fit`] — ordinary least squares and transformed regressions
//!   (`y = a·log x + b`, `y = a·√(log x) + b`), the fitting machinery of
//!   Sec. V-A/V-B.
//! * [`piecewise`] — the stability-threshold detector (τ: where windowed
//!   speed variation drops below 2%) and two-stage piecewise models.
//! * [`models`] — the concrete cost models: [`models::LinearCost`]
//!   (Qilin's assumption, the paper's baseline in Table II),
//!   [`models::RampCost`] (stage-1 throughput ramp / stage-2 linear), and
//!   [`models::GpuCost`] combining transfer and kernel curves with the
//!   `max(·,·)` composition of Eq. 9.
//! * [`calibrate`] — Algorithm 3: probe a device with cumulative data
//!   prefixes, average repeated measurements, detect τ, fit both stages.
//! * [`alpha`] — the workload-split solver of Eq. 8:
//!   `α = argmin |T_g(α)/n_g − T_c(1−α)/n_c|` by bisection on the
//!   monotone balance function.
//! * [`observe`] — the online half of the loop: per-task `(size, secs)`
//!   wall-time recording during real execution, refit into the same
//!   linear family so measured throughputs can replace assumed ones
//!   (live steal-ratio feedback, measured-α reporting).

pub mod alpha;
pub mod calibrate;
pub mod fit;
pub mod models;
pub mod observe;
pub mod piecewise;

pub use alpha::balance_alpha;
pub use models::{CostModel, GpuCost, LinearCost, RampCost};
pub use observe::ThroughputObserver;
