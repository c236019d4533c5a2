//! # gpu-sim — a virtual CUDA-class GPU for matrix factorization
//!
//! This environment has no physical GPU, so the paper's GPU side is
//! reproduced by a **simulated device** with two independent facets:
//!
//! 1. **Real arithmetic.** [`simt`] executes the cuMF_SGD-style kernel's
//!    *numerics* exactly: the block's ratings are processed by `W` parallel
//!    lanes in a deterministic interleaved order (lanes race Hogwild-style
//!    on factor rows inside a block, emulated in-order). Training quality
//!    is therefore genuine, not modeled.
//! 2. **Modeled time.** [`transfer`], [`kernel_model`] and [`stream`]
//!    provide the *performance* surface that the paper measures on a
//!    Quadro P4000: PCIe transfer speed ramping from ~2.5 GB/s at 64 KB to
//!    ~12.5 GB/s beyond 256 MB (Fig. 6), kernel throughput saturating with
//!    block size (Fig. 3a / Fig. 7) and scaling sublinearly in the number
//!    of parallel workers, and the 3-stream copy/compute/copy-back overlap
//!    of Fig. 8 via a pipeline recurrence whose steady state is
//!    `max(t_transfer, t_kernel)` — Eq. 9.
//!
//! [`device::GpuDevice`] glues the facets together and is what the
//! heterogeneous scheduler in `hsgd-core` talks to.

pub mod device;
pub mod kernel_model;
pub mod memory;
pub mod simt;
pub mod spec;
pub mod stream;
pub mod transfer;

pub use device::{BlockCost, GpuDevice};
pub use kernel_model::KernelModel;
pub use memory::{GlobalMemory, GpuMemError};
pub use simt::KernelBlock;
pub use spec::GpuSpec;
pub use stream::StreamPipeline;
pub use transfer::{PcieBus, TransferModel};
