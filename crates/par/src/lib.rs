//! # mf-par — the data-pipeline thread pool
//!
//! Every `O(nnz)` pass outside the SGD hot loop — shuffling, relabeling,
//! grid builds, RMSE reductions — is an embarrassingly parallel
//! sweep over a flat array. This crate is the minimal substrate those
//! passes share:
//!
//! * [`ThreadPool`] — a persistent pool of workers that execute an
//!   indexed batch of tasks with **dynamic claiming**: every idle worker
//!   (and the caller, which participates) repeatedly steals the next
//!   unclaimed index from a shared counter, so load balances itself the
//!   way a work-stealing deque balances splits, without per-task
//!   allocation.
//! * [`chunk_map_reduce`] / [`for_each_chunk`] / [`for_each_chunk_mut`] /
//!   [`for_each_bounded_mut`] — chunked sweeps whose chunk boundaries
//!   depend only on the data (never on the worker count), with the
//!   reduction applied in **chunk order**. Together these make every
//!   result bit-identical for any thread count.
//! * [`stable_counting_scatter`] + [`ScatterSlice`] — the parallel
//!   histogram → prefix-sum → scatter at the core of the grid builds
//!   and the shuffle. Its output is the unique stable counting sort of the
//!   input, so it matches the serial build byte for byte.
//!
//! The pool is deliberately tiny (std-only, one file of unsafe with a
//! two-line contract) rather than a rayon stand-in: the pipeline needs
//! fork-join over slices, not a generic task graph.

mod ops;
mod pool;

pub use ops::{
    chunk_map_reduce, for_each_bounded_mut, for_each_chunk, for_each_chunk_mut,
    stable_counting_scatter, ScatterSlice, DEFAULT_CHUNK,
};
pub use pool::{effective_parallelism, in_pool, ThreadPool};
