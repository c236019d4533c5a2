//! # hsgd-core — heterogeneous CPU-GPU matrix factorization (HSGD\*)
//!
//! The primary contribution of *"Efficient Matrix Factorization on
//! Heterogeneous CPU-GPU Systems"* (Yu et al., ICDE 2021): a parallel SGD
//! trainer that divides the rating matrix **nonuniformly** between CPU
//! threads and GPUs, sizes the split with a tailored **cost model**, and
//! rebalances at runtime with **dynamic work stealing**.
//!
//! The training loop runs in virtual time on a deterministic discrete-
//! event simulator (`mf-des`): every device performs real SGD arithmetic
//! on the shared factor model while its durations come from calibrated
//! performance models (`gpu-sim` for GPUs, a flat-throughput model for CPU
//! threads — the paper's Observation 2). Because the scheduler only
//! co-schedules independent blocks, serializing their execution inside
//! the simulator is semantically identical to true parallel execution, so
//! runs are reproducible bit-for-bit.
//!
//! Modules:
//!
//! * [`config`] — algorithm/selection knobs shared by all variants.
//! * [`layout`] — the Sec. VI grid: `n_c + 2·n_g + 1` columns, `n_c + n_g`
//!   CPU rows, `n_g` GPU row groups pre-split into sub-rows for the
//!   dynamic phase.
//! * [`scheduler`] — conflict-aware block scheduling: the uniform
//!   least-updates policy (HSGD) and the region/phase policy (HSGD\*).
//! * [`executor`] — the execution-world abstraction: one scheduling
//!   core, two worlds. Both the virtual-time trainer and the real-thread
//!   runtime drive the same scheduler instances through the
//!   [`executor::Executor`] trait.
//! * [`devices`] — virtual CPU workers and the GPU adapter.
//! * [`trainer`] — the virtual-time world: event loop, RMSE probes,
//!   termination.
//! * [`runtime`] — the real-thread world: deterministic exclusive rounds
//!   and free-running relaxed workers over `mf-par`-governed threads,
//!   with measured-throughput feedback into the cost models.
//! * [`spill`] — out-of-core training: spill-backed partitions behind a
//!   byte-budgeted block cache, with disk modeled (and driven) as one
//!   more asynchronous device whose reads overlap SGD compute.
//! * [`calibration`] — the offline phase (Algorithm 3) wired to the
//!   simulated devices; produces our cost model and the Qilin baseline.
//! * [`stats`] — run reports, update-count imbalance (Example 3),
//!   utilization.
//! * [`experiments`] — one-call drivers for every algorithm the paper
//!   evaluates: CPU-Only, GPU-Only, HSGD, HSGD\*-Q, HSGD\*-M, HSGD\*.

pub mod calibration;
pub mod config;
pub mod devices;
pub mod executor;
pub mod experiments;
pub mod layout;
pub mod runtime;
pub mod scheduler;
pub mod spill;
pub mod stats;
pub mod trainer;

pub use config::{Algorithm, CostModelKind, CpuSpec, HeteroConfig};
pub use executor::{DevicePool, Executor, MeasuredThroughput, TrainOutcome};
pub use experiments::run;
pub use runtime::{run_training_real, ExecMode, ThreadedExecutor};
pub use spill::{train_out_of_core_real, train_out_of_core_virtual, IoSpec, Prefetcher};
pub use stats::{ImbalanceStats, RunReport};
