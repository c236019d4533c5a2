//! # mf-sparse — sparse rating-matrix substrate
//!
//! Storage and partitioning for the user-item rating matrices that all
//! matrix-factorization algorithms in this workspace consume:
//!
//! * [`Rating`] / [`SparseMatrix`] — coordinate (COO) storage of the rating
//!   triples `(u, v, r)` with shape metadata, exactly the "triadic tuple"
//!   representation used by the paper's Algorithm 1.
//! * [`BlockSlices`] / [`SoaRatings`] — the structure-of-arrays layout the
//!   vectorized SGD kernels consume: three unit-stride `u`/`v`/`r` streams
//!   instead of a 12-byte interleaved stride.
//! * [`grid`] — the **matrix blocking** machinery at the heart of FPSGD,
//!   HSGD, and HSGD\*: cut a matrix into a grid of blocks along arbitrary
//!   (possibly nonuniform) row/column boundaries, and access each block's
//!   entries as a contiguous slice.
//! * [`pool`] — the incrementally maintained free-block pool that answers
//!   the schedulers' "least-count conflict-free block" query in amortized
//!   O(log B) instead of a full grid scan.
//! * [`shuffle`] — deterministic entry shuffling and row/column permutation
//!   (the paper shuffles the input so the training samples are not skewed by
//!   input order, Sec. V-A).
//! * [`io`] — the text interchange format (one `u v r` triple per line).
//! * [`arena`] — the **spill-backed** partition storage for out-of-core
//!   training: per-block frames in an on-disk arena file (`MFCK` v3,
//!   `docs/FORMAT.md`) fronted by a byte-budgeted, pin-aware LRU cache.
//! * [`frame`] / [`vfs`] / [`hash`] — the one `MFCK` framing (header,
//!   checksummed sections, torn-vs-corrupt, bounded allocation) that the
//!   v1/v2 records of `mf-serve` and the v3 arena are schemas over, the
//!   atomic-publish filesystem seam, and the XXH64 checksum.
//!
//! All RNG flows through caller-provided seeds; there is no hidden global
//! randomness anywhere in this workspace.

pub mod arena;
pub mod frame;
pub mod grid;
pub mod hash;
pub mod io;
pub mod matrix;
pub mod pool;
pub mod shuffle;
pub mod vfs;

pub use arena::{ArenaError, BlockArena, BlockCache, SpillCounters, SpillHandle};
pub use grid::{balanced_cuts, BlockId, BlockKey, BlockOrder, GridPartition, GridSpec};
pub use matrix::{BlockSlices, Rating, SoaRatings, SparseMatrix};
pub use pool::FreeBlockPool;
pub use vfs::{RealFs, Vfs};
