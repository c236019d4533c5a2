//! Matrix blocking (the grid partition).
//!
//! Every parallel SGD algorithm in the paper's lineage — DSGD, FPSGD, HSGD,
//! HSGD\* — divides the rating matrix into a grid of blocks and schedules
//! *independent* blocks (sharing no row band and no column band) onto
//! workers. This module owns that division:
//!
//! * [`GridSpec`] describes the cut points. Cuts may be **nonuniform** —
//!   that is the paper's core idea (Sec. VI): the GPU's share of rows is cut
//!   into a few tall bands while the CPU's share is cut finely.
//! * [`GridPartition`] buckets a matrix's entries by block so that each
//!   block's ratings are one contiguous structure-of-arrays run
//!   ([`BlockSlices`]), cheap to hand to a worker or to "transfer" to the
//!   simulated GPU, and laid out the way the vectorized kernels want.
//!
//! A partition can also be **spill-backed** ([`GridPartition::
//! open_spilled`]): the geometry and per-block sizes stay in RAM but the
//! rating payloads live in an on-disk block arena ([`crate::arena`]),
//! loaded through a byte-budgeted LRU cache. Spilled block access
//! follows a pin protocol — [`GridPartition::pin_blocks`] before
//! dispatching a block to a kernel, [`GridPartition::unpin_blocks`] once
//! it returns — and [`GridPartition::block`] panics on an unpinned
//! spilled access, so the protocol cannot be silently skipped.

use std::fmt;
use std::io;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mf_par::{stable_counting_scatter, ScatterSlice, ThreadPool, DEFAULT_CHUNK};

use crate::arena::{ArenaError, BlockArena, SpillHandle};
use crate::matrix::{BlockSlices, Rating, SparseMatrix};
use crate::vfs::Vfs;

/// Identifies one block of the grid: row band `row`, column band `col`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId {
    /// Row-band index, `0 <= row < nrow_blocks`.
    pub row: u32,
    /// Column-band index, `0 <= col < ncol_blocks`.
    pub col: u32,
}

impl BlockId {
    /// Convenience constructor.
    pub fn new(row: u32, col: u32) -> BlockId {
        BlockId { row, col }
    }

    /// Two blocks conflict when they share a row band or a column band
    /// (they would update the same region of P or Q — paper Sec. III-A).
    pub fn conflicts_with(self, other: BlockId) -> bool {
        self.row == other.row || self.col == other.col
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{},{}", self.row, self.col)
    }
}

/// Errors from validating grid cut points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridError {
    /// The first cut must be 0.
    FirstCutNotZero,
    /// The last cut must equal the matrix dimension.
    LastCutMismatch {
        /// The offending final cut value.
        last: u32,
        /// The matrix dimension it should have equaled.
        dim: u32,
    },
    /// Cuts must be non-decreasing.
    NotMonotone {
        /// Index of the first cut that decreases.
        at: usize,
    },
    /// A grid needs at least one row band and one column band.
    Empty,
}

impl fmt::Display for GridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridError::FirstCutNotZero => write!(f, "first cut must be 0"),
            GridError::LastCutMismatch { last, dim } => {
                write!(f, "last cut {last} must equal dimension {dim}")
            }
            GridError::NotMonotone { at } => write!(f, "cuts decrease at index {at}"),
            GridError::Empty => write!(f, "grid must have at least one band per axis"),
        }
    }
}

impl std::error::Error for GridError {}

/// The cut points of a grid over an `m × n` matrix.
///
/// `row_cuts` has `nrow_blocks + 1` non-decreasing values starting at 0 and
/// ending at `m`; row band `i` covers rows `row_cuts[i]..row_cuts[i+1]`.
/// Empty bands (repeated cuts) are allowed — they arise when a tiny matrix
/// is divided into more bands than it has rows, and the scheduler handles
/// them as zero-work blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridSpec {
    row_cuts: Vec<u32>,
    col_cuts: Vec<u32>,
}

impl GridSpec {
    /// Builds a spec from explicit cut vectors.
    pub fn from_cuts(row_cuts: Vec<u32>, col_cuts: Vec<u32>) -> Result<GridSpec, GridError> {
        Self::validate(&row_cuts)?;
        Self::validate(&col_cuts)?;
        Ok(GridSpec { row_cuts, col_cuts })
    }

    fn validate(cuts: &[u32]) -> Result<(), GridError> {
        if cuts.len() < 2 {
            return Err(GridError::Empty);
        }
        if cuts[0] != 0 {
            return Err(GridError::FirstCutNotZero);
        }
        for (i, w) in cuts.windows(2).enumerate() {
            if w[1] < w[0] {
                return Err(GridError::NotMonotone { at: i + 1 });
            }
        }
        Ok(())
    }

    /// Uniform division into `row_blocks × col_blocks` (FPSGD-style).
    /// Bands differ in size by at most one row/column.
    pub fn uniform(nrows: u32, ncols: u32, row_blocks: u32, col_blocks: u32) -> GridSpec {
        GridSpec {
            row_cuts: uniform_cuts(nrows, row_blocks),
            col_cuts: uniform_cuts(ncols, col_blocks),
        }
    }

    /// Number of row bands.
    pub fn nrow_blocks(&self) -> u32 {
        (self.row_cuts.len() - 1) as u32
    }

    /// Number of column bands.
    pub fn ncol_blocks(&self) -> u32 {
        (self.col_cuts.len() - 1) as u32
    }

    /// Total number of blocks.
    pub fn block_count(&self) -> usize {
        self.nrow_blocks() as usize * self.ncol_blocks() as usize
    }

    /// Rows covered by row band `i`.
    pub fn row_range(&self, i: u32) -> Range<u32> {
        self.row_cuts[i as usize]..self.row_cuts[i as usize + 1]
    }

    /// Columns covered by column band `j`.
    pub fn col_range(&self, j: u32) -> Range<u32> {
        self.col_cuts[j as usize]..self.col_cuts[j as usize + 1]
    }

    /// The row band containing row `u`.
    ///
    /// With repeated cuts (empty bands) the non-empty band containing `u`
    /// is returned.
    pub fn row_block_of(&self, u: u32) -> u32 {
        band_of(&self.row_cuts, u)
    }

    /// The column band containing column `v`.
    pub fn col_block_of(&self, v: u32) -> u32 {
        band_of(&self.col_cuts, v)
    }

    /// The block containing entry `(u, v)`.
    pub fn block_of(&self, u: u32, v: u32) -> BlockId {
        BlockId::new(self.row_block_of(u), self.col_block_of(v))
    }

    /// Row cut points (length `nrow_blocks + 1`).
    pub fn row_cuts(&self) -> &[u32] {
        &self.row_cuts
    }

    /// Column cut points (length `ncol_blocks + 1`).
    pub fn col_cuts(&self) -> &[u32] {
        &self.col_cuts
    }

    /// Flat row-major index of a block.
    #[inline]
    pub fn flat_index(&self, id: BlockId) -> usize {
        id.row as usize * self.ncol_blocks() as usize + id.col as usize
    }

    /// Inverse of [`GridSpec::flat_index`].
    #[inline]
    pub fn from_flat(&self, idx: usize) -> BlockId {
        let ncols = self.ncol_blocks() as usize;
        BlockId::new((idx / ncols) as u32, (idx % ncols) as u32)
    }

    /// Iterates over all block ids, row-major.
    pub fn blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        let ncols = self.ncol_blocks();
        (0..self.nrow_blocks()).flat_map(move |r| (0..ncols).map(move |c| BlockId::new(r, c)))
    }
}

/// `blocks + 1` cut points distributing `dim` as evenly as possible.
fn uniform_cuts(dim: u32, blocks: u32) -> Vec<u32> {
    assert!(blocks > 0, "need at least one band");
    (0..=blocks as u64)
        .map(|i| (i * dim as u64 / blocks as u64) as u32)
        .collect()
}

/// Cut points dividing `weights` (per-row or per-column entry counts) into
/// `bands` groups of approximately **equal total weight** — the
/// equal-frequency division that keeps block workloads balanced when
/// popularity is skewed. Uniform index ranges leave the band holding the
/// most popular rows/columns several times heavier than the rest, which
/// serializes schedulers on that band; equal-weight cuts are the robust
/// realization of the balance the paper's preprocessing shuffle aims for.
///
/// Cut `i` is placed at the first index where the running weight reaches
/// `i/bands` of the total. Zero-weight dimensions fall back to uniform
/// index cuts.
pub fn balanced_cuts(weights: &[u32], bands: u32) -> Vec<u32> {
    assert!(bands > 0, "need at least one band");
    let dim = weights.len() as u32;
    let total: u64 = weights.iter().map(|&w| w as u64).sum();
    if total == 0 || dim < bands {
        return uniform_cuts(dim, bands);
    }
    let mut cuts = Vec::with_capacity(bands as usize + 1);
    cuts.push(0u32);
    let mut acc = 0u64;
    let mut idx = 0u32;
    for band in 1..bands {
        let want = band as u64 * total / bands as u64;
        while acc < want && idx < dim {
            acc += weights[idx as usize] as u64;
            idx += 1;
        }
        // Strictness: every band must hold at least one index — an empty
        // band produces zero-cost blocks that a least-count scheduler can
        // spin on — and must leave enough indices for the bands after it.
        let lo = cuts[band as usize - 1] + 1;
        let hi = dim - (bands - band);
        let clamped = idx.clamp(lo, hi);
        if clamped != idx {
            // Re-sync the running weight with the forced cut position.
            while idx < clamped {
                acc += weights[idx as usize] as u64;
                idx += 1;
            }
            while idx > clamped {
                idx -= 1;
                acc -= weights[idx as usize] as u64;
            }
        }
        cuts.push(idx);
    }
    cuts.push(dim);
    cuts
}

/// Index of the band containing `x`: the last band whose start is <= x and
/// whose end is > x. `partition_point` finds the first cut strictly greater
/// than `x`; the band is the one before it.
fn band_of(cuts: &[u32], x: u32) -> u32 {
    debug_assert!(x < *cuts.last().unwrap(), "index {x} outside grid");
    let idx = cuts.partition_point(|&c| c <= x);
    (idx - 1) as u32
}

/// One block of one partition, named so that no other bytes in the
/// process ever carry the same key: a partition is immutable once built
/// or opened and takes an id no other partition has had (its clones share
/// it, with the same bytes). A copy derived from a block can be kept
/// under its key and never go stale — unlike a slice address, which the
/// allocator recycles once the partition is dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockKey {
    /// The partition's process-unique id.
    pub partition: u64,
    /// The block within the partition.
    pub block: BlockId,
}

/// A partition id no partition in this process has had.
fn fresh_partition_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Within-block entry ordering for [`GridPartition::build_with_order`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockOrder {
    /// Entries keep the relative order they had in the source matrix, so a
    /// pre-shuffled matrix yields shuffled per-block streams.
    #[default]
    Stream,
    /// Entries are grouped by user within each block (ties keep stream
    /// order). Consecutive updates then reuse the same `P` row while it is
    /// cache- (and register-) resident — the LIBMF/cuMF-style layout the
    /// shared-memory trainers want. Randomness across users survives the
    /// grouping because the pre-shuffle permutes user *ids*, not just
    /// entry positions.
    UserMajor,
}

/// A [`SparseMatrix`] bucketed by a [`GridSpec`], stored
/// **structure-of-arrays**: one flat `rows`/`cols`/`vals` triple over all
/// entries, grouped by block, with per-block offsets. Each block is a
/// [`BlockSlices`] view — three unit-stride streams, the layout the
/// monomorphized SGD kernels load without the 12-byte interleave penalty
/// of an AoS `Vec<Rating>`.
///
/// Bucketing is a stable parallel counting sort
/// ([`mf_par::stable_counting_scatter`]; histogram → prefix-sum →
/// scatter): `O(nnz + blocks)` work, no per-block `Vec` growth, no
/// intermediate `Vec<Rating>` materialization, and bit-identical output
/// for any thread count. Within a block (and, under
/// [`BlockOrder::UserMajor`], within a user) entries keep the relative
/// order they had in the source matrix.
#[derive(Debug, Clone)]
pub struct GridPartition {
    /// Process-unique; names this partition's blocks in [`BlockKey`]s.
    id: u64,
    spec: GridSpec,
    /// Row ids of all entries, grouped by block in row-major block order.
    rows: Vec<u32>,
    /// Column ids, same order as `rows`.
    cols: Vec<u32>,
    /// Rating values, same order as `rows`.
    vals: Vec<f32>,
    /// `offsets[flat]..offsets[flat + 1]` is block `flat`'s range.
    offsets: Vec<usize>,
    nrows: u32,
    ncols: u32,
    /// `Some` when the payloads live in an on-disk arena instead of the
    /// `rows`/`cols`/`vals` vectors (which are then empty).
    spill: Option<SpillHandle>,
}

impl GridPartition {
    /// Buckets `m`'s entries by `spec` in `O(nnz + blocks)`, keeping
    /// stream order within each block ([`BlockOrder::Stream`]), on the
    /// process-wide thread pool.
    ///
    /// # Panics
    ///
    /// Panics if the spec's final cuts disagree with `m`'s shape.
    pub fn build(m: &SparseMatrix, spec: GridSpec) -> GridPartition {
        Self::build_with_order(m, spec, BlockOrder::Stream)
    }

    /// [`GridPartition::build_with_order_in`] on the process-wide pool.
    ///
    /// # Panics
    ///
    /// Panics if the spec's final cuts disagree with `m`'s shape.
    pub fn build_with_order(m: &SparseMatrix, spec: GridSpec, order: BlockOrder) -> GridPartition {
        Self::build_with_order_in(m, spec, order, ThreadPool::global())
    }

    /// Buckets `m`'s entries by `spec` with the requested within-block
    /// ordering, running the counting passes on `pool`. The result is
    /// independent of the pool's thread count.
    ///
    /// [`BlockOrder::UserMajor`] costs one extra stable counting pass
    /// keyed on the user id (`O(nnz + nrows)`): sorting by user first and
    /// by block second leaves each block grouped by user — the
    /// cache-friendly layout for the hot SGD loop, which then reuses each
    /// `P` row across the user's consecutive ratings. The pass scatters
    /// straight into a scratch SoA triple that the block pass then
    /// consumes, so no `Vec<Rating>` copy of the matrix is ever made.
    ///
    /// # Panics
    ///
    /// Panics if the spec's final cuts disagree with `m`'s shape.
    pub fn build_with_order_in(
        m: &SparseMatrix,
        spec: GridSpec,
        order: BlockOrder,
        pool: &ThreadPool,
    ) -> GridPartition {
        assert_eq!(
            *spec.row_cuts.last().unwrap(),
            m.nrows(),
            "row cuts must end at nrows"
        );
        assert_eq!(
            *spec.col_cuts.last().unwrap(),
            m.ncols(),
            "col cuts must end at ncols"
        );
        let nnz = m.nnz();
        let entries = m.entries();
        let nblocks = spec.block_count();
        let flat_of = |u: u32, v: u32| spec.flat_index(spec.block_of(u, v));
        let mut rows = vec![0u32; nnz];
        let mut cols = vec![0u32; nnz];
        let mut vals = vec![0f32; nnz];
        let offsets = match order {
            BlockOrder::Stream => {
                let dr = ScatterSlice::new(&mut rows);
                let dc = ScatterSlice::new(&mut cols);
                let dv = ScatterSlice::new(&mut vals);
                stable_counting_scatter(
                    pool,
                    nnz,
                    nblocks,
                    DEFAULT_CHUNK,
                    |i| {
                        let e = &entries[i];
                        flat_of(e.u, e.v)
                    },
                    // SAFETY: the scatter plan assigns each destination
                    // index to exactly one entry.
                    |i, at| {
                        let e = &entries[i];
                        unsafe {
                            dr.write(at, e.u);
                            dc.write(at, e.v);
                            dv.write(at, e.r);
                        }
                    },
                )
            }
            BlockOrder::UserMajor => {
                // LSD counting sort: a first stable pass by user id into
                // the scratch triple, then the stable pass by block from
                // scratch into the final storage. The block pass
                // preserves the user grouping.
                let mut srows = vec![0u32; nnz];
                let mut scols = vec![0u32; nnz];
                let mut svals = vec![0f32; nnz];
                {
                    let dr = ScatterSlice::new(&mut srows);
                    let dc = ScatterSlice::new(&mut scols);
                    let dv = ScatterSlice::new(&mut svals);
                    stable_counting_scatter(
                        pool,
                        nnz,
                        m.nrows() as usize,
                        DEFAULT_CHUNK,
                        |i| entries[i].u as usize,
                        // SAFETY: as above — destinations are unique.
                        |i, at| {
                            let e = &entries[i];
                            unsafe {
                                dr.write(at, e.u);
                                dc.write(at, e.v);
                                dv.write(at, e.r);
                            }
                        },
                    );
                }
                let dr = ScatterSlice::new(&mut rows);
                let dc = ScatterSlice::new(&mut cols);
                let dv = ScatterSlice::new(&mut vals);
                stable_counting_scatter(
                    pool,
                    nnz,
                    nblocks,
                    DEFAULT_CHUNK,
                    |i| flat_of(srows[i], scols[i]),
                    // SAFETY: as above — destinations are unique.
                    |i, at| unsafe {
                        dr.write(at, srows[i]);
                        dc.write(at, scols[i]);
                        dv.write(at, svals[i]);
                    },
                )
            }
        };
        GridPartition {
            id: fresh_partition_id(),
            spec,
            rows,
            cols,
            vals,
            offsets,
            nrows: m.nrows(),
            ncols: m.ncols(),
            spill: None,
        }
    }

    /// Opens a partition whose block payloads stay in the arena at
    /// `path` (written by [`GridPartition::write_arena`]), fronted by an
    /// LRU cache of at most `budget_bytes` of resident blocks. Geometry
    /// and per-block sizes are validated and held in RAM; rating bytes
    /// are loaded per block on [`GridPartition::pin_blocks`] and
    /// checksum-verified on every load.
    pub fn open_spilled(
        vfs: Arc<dyn Vfs>,
        path: &Path,
        budget_bytes: usize,
    ) -> Result<GridPartition, ArenaError> {
        let handle = SpillHandle::open(vfs, path, budget_bytes)?;
        let (spec, nrows, ncols, offsets) = {
            let arena = handle.arena();
            let spec = arena.spec().clone();
            let mut offsets = Vec::with_capacity(spec.block_count() + 1);
            let mut acc = 0usize;
            offsets.push(0);
            for flat in 0..spec.block_count() {
                acc += arena.block_len(flat);
                offsets.push(acc);
            }
            (spec, arena.nrows(), arena.ncols(), offsets)
        };
        Ok(GridPartition {
            id: fresh_partition_id(),
            spec,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
            offsets,
            nrows,
            ncols,
            spill: Some(handle),
        })
    }

    /// Writes this (resident) partition as an `MFCK` v3 block arena at
    /// `dir/name` via the atomic-publish discipline, ready for
    /// [`GridPartition::open_spilled`].
    pub fn write_arena(&self, vfs: &dyn Vfs, dir: &Path, name: &str) -> io::Result<()> {
        BlockArena::write(vfs, dir, name, self)
    }

    /// Whether this partition's payloads are spill-backed.
    pub fn is_spilled(&self) -> bool {
        self.spill.is_some()
    }

    /// The spill handle (arena + cache) when spill-backed.
    pub fn spill(&self) -> Option<&SpillHandle> {
        self.spill.as_ref()
    }

    /// Pins every block in `ids`, loading missing ones from the arena.
    /// A no-op for resident partitions, so executors can call it
    /// unconditionally on their dispatch path. On a checksum or I/O
    /// failure nothing stays pinned and the typed error propagates —
    /// corrupt bytes never reach a kernel.
    pub fn pin_blocks(&self, ids: &[BlockId]) -> Result<(), ArenaError> {
        let Some(handle) = &self.spill else {
            return Ok(());
        };
        for (i, &id) in ids.iter().enumerate() {
            if let Err(e) = handle.pin(self.spec.flat_index(id)) {
                for &done in &ids[..i] {
                    handle.unpin(self.spec.flat_index(done));
                }
                return Err(e);
            }
        }
        Ok(())
    }

    /// Returns the pins taken by [`GridPartition::pin_blocks`]. A no-op
    /// for resident partitions.
    pub fn unpin_blocks(&self, ids: &[BlockId]) {
        let Some(handle) = &self.spill else { return };
        for &id in ids {
            handle.unpin(self.spec.flat_index(id));
        }
    }

    /// The grid geometry.
    pub fn spec(&self) -> &GridSpec {
        &self.spec
    }

    /// Matrix row count.
    pub fn nrows(&self) -> u32 {
        self.nrows
    }

    /// Matrix column count.
    pub fn ncols(&self) -> u32 {
        self.ncols
    }

    /// Total number of ratings across all blocks.
    pub fn total_nnz(&self) -> usize {
        *self.offsets.last().expect("offsets never empty")
    }

    /// The ratings of one block: three contiguous unit-stride streams.
    ///
    /// # Panics
    ///
    /// On a spill-backed partition, panics unless the block is currently
    /// pinned ([`GridPartition::pin_blocks`]) — the pin is what keeps
    /// the returned slices alive against cache eviction.
    pub fn block(&self, id: BlockId) -> BlockSlices<'_> {
        let flat = self.spec.flat_index(id);
        if let Some(handle) = &self.spill {
            // SAFETY: `pinned_slices` panics unless the block is pinned,
            // and the executors' pin protocol holds the pin for as long
            // as the slices are in use.
            return unsafe { handle.pinned_slices(flat) };
        }
        let lo = self.offsets[flat];
        let hi = self.offsets[flat + 1];
        BlockSlices {
            rows: &self.rows[lo..hi],
            cols: &self.cols[lo..hi],
            vals: &self.vals[lo..hi],
        }
    }

    /// The process-unique key of block `id`'s bytes.
    pub fn block_key(&self, id: BlockId) -> BlockKey {
        BlockKey {
            partition: self.id,
            block: id,
        }
    }

    /// Number of ratings in a block (the paper's "block size" in points).
    pub fn block_len(&self, id: BlockId) -> usize {
        let flat = self.spec.flat_index(id);
        self.offsets[flat + 1] - self.offsets[flat]
    }

    /// Bytes transferred to ship this block's ratings over the (simulated)
    /// PCIe bus.
    pub fn block_wire_bytes(&self, id: BlockId) -> usize {
        self.block_len(id) * Rating::WIRE_BYTES
    }

    /// Per-block sizes, row-major. Handy for load statistics.
    pub fn block_sizes(&self) -> Vec<usize> {
        (0..self.spec.block_count())
            .map(|i| self.offsets[i + 1] - self.offsets[i])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix_8x8() -> SparseMatrix {
        // One entry at every (u, v) with u+v even, 32 entries total.
        let mut triples = Vec::new();
        for u in 0..8u32 {
            for v in 0..8u32 {
                if (u + v) % 2 == 0 {
                    triples.push((u, v, (u + v) as f32));
                }
            }
        }
        SparseMatrix::from_triples(triples)
    }

    #[test]
    fn block_keys_name_one_partition_and_are_shared_only_by_clones() {
        let m = matrix_8x8();
        let spec = GridSpec::uniform(8, 8, 2, 2);
        let a = GridPartition::build(&m, spec.clone());
        let b = GridPartition::build(&m, spec);
        let id = BlockId::new(1, 0);
        assert_eq!(a.block_key(id).block, id);
        assert_ne!(
            a.block_key(id),
            b.block_key(id),
            "same bytes, other partition"
        );
        assert_ne!(a.block_key(id), a.block_key(BlockId::new(0, 1)));
        assert_eq!(a.clone().block_key(id), a.block_key(id));
    }

    #[test]
    fn uniform_cuts_cover_dimension() {
        assert_eq!(uniform_cuts(8, 4), vec![0, 2, 4, 6, 8]);
        assert_eq!(uniform_cuts(10, 3), vec![0, 3, 6, 10]);
        assert_eq!(uniform_cuts(2, 4), vec![0, 0, 1, 1, 2]); // empty bands ok
    }

    #[test]
    fn balanced_cuts_equalize_weight() {
        // One heavy column among light ones: the heavy one gets its own
        // band.
        let weights = vec![1, 1, 90, 1, 1, 1, 1, 1, 1, 2];
        let cuts = balanced_cuts(&weights, 2);
        assert_eq!(cuts.first(), Some(&0));
        assert_eq!(cuts.last(), Some(&10));
        // The first band must stop right after the heavy column.
        assert_eq!(cuts[1], 3);
        // Band weights: 92 vs 8 — as balanced as a single heavy item
        // allows.
        let w0: u32 = weights[..cuts[1] as usize].iter().sum();
        let w1: u32 = weights[cuts[1] as usize..].iter().sum();
        assert_eq!((w0, w1), (92, 8));
    }

    #[test]
    fn balanced_cuts_uniform_weights_give_uniform_bands() {
        let weights = vec![5u32; 12];
        let cuts = balanced_cuts(&weights, 4);
        assert_eq!(cuts, vec![0, 3, 6, 9, 12]);
    }

    #[test]
    fn balanced_cuts_zero_weight_falls_back() {
        let cuts = balanced_cuts(&[0, 0, 0, 0], 2);
        assert_eq!(cuts, vec![0, 2, 4]);
    }

    #[test]
    fn balanced_cuts_never_produce_empty_bands() {
        // A pathologically heavy head: bands after it must still each get
        // at least one index.
        let weights = vec![1000, 1, 1, 1, 1, 1, 1, 1];
        let cuts = balanced_cuts(&weights, 4);
        for w in cuts.windows(2) {
            assert!(w[1] > w[0], "empty band in {cuts:?}");
        }
        // Fewer indices than bands: falls back to uniform (empty bands
        // unavoidable).
        let cuts = balanced_cuts(&[5, 5], 4);
        assert_eq!(cuts.len(), 5);
        assert_eq!(*cuts.last().unwrap(), 2);
    }

    #[test]
    fn balanced_cuts_are_valid_grid_cuts() {
        let weights = vec![3, 0, 7, 1, 1, 9, 2, 2];
        for bands in 1..=8 {
            let cuts = balanced_cuts(&weights, bands);
            assert_eq!(cuts.len(), bands as usize + 1);
            let spec = GridSpec::from_cuts(cuts, vec![0, 1]).unwrap();
            assert_eq!(spec.nrow_blocks(), bands);
        }
    }

    #[test]
    fn spec_validation() {
        assert!(GridSpec::from_cuts(vec![0, 4, 8], vec![0, 8]).is_ok());
        assert_eq!(
            GridSpec::from_cuts(vec![1, 8], vec![0, 8]).unwrap_err(),
            GridError::FirstCutNotZero
        );
        assert_eq!(
            GridSpec::from_cuts(vec![0, 5, 3], vec![0, 8]).unwrap_err(),
            GridError::NotMonotone { at: 2 }
        );
        assert_eq!(
            GridSpec::from_cuts(vec![0], vec![0, 8]).unwrap_err(),
            GridError::Empty
        );
    }

    #[test]
    fn band_lookup() {
        let spec = GridSpec::from_cuts(vec![0, 2, 2, 6, 8], vec![0, 8]).unwrap();
        assert_eq!(spec.row_block_of(0), 0);
        assert_eq!(spec.row_block_of(1), 0);
        // Row 2 falls in band 2 (band 1 is empty: 2..2).
        assert_eq!(spec.row_block_of(2), 2);
        assert_eq!(spec.row_block_of(5), 2);
        assert_eq!(spec.row_block_of(7), 3);
    }

    #[test]
    fn partition_covers_all_entries_exactly_once() {
        let m = matrix_8x8();
        let spec = GridSpec::uniform(8, 8, 4, 4);
        let part = GridPartition::build(&m, spec);
        assert_eq!(part.total_nnz(), m.nnz());
        let mut seen = 0;
        for id in part.spec().blocks() {
            for e in part.block(id).iter() {
                // Every entry is inside its block's ranges.
                let rr = part.spec().row_range(id.row);
                let cr = part.spec().col_range(id.col);
                assert!(rr.contains(&e.u), "{e:?} outside row range {rr:?}");
                assert!(cr.contains(&e.v), "{e:?} outside col range {cr:?}");
                seen += 1;
            }
        }
        assert_eq!(seen, m.nnz());
    }

    #[test]
    fn partition_is_stable_within_block() {
        let m = SparseMatrix::from_triples(vec![
            (0, 0, 1.0),
            (0, 1, 2.0),
            (0, 0, 3.0), // duplicate coordinate, later in stream
        ]);
        let part = GridPartition::build(&m, GridSpec::uniform(1, 2, 1, 1));
        let b = part.block(BlockId::new(0, 0));
        assert_eq!(b.vals, &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn user_major_groups_entries_by_user() {
        // Interleave users in the input stream.
        let m = SparseMatrix::from_triples(vec![
            (2, 0, 1.0),
            (0, 1, 2.0),
            (2, 5, 3.0),
            (0, 0, 4.0),
            (1, 6, 5.0),
            (2, 1, 6.0),
            (0, 6, 7.0),
        ]);
        let spec = GridSpec::uniform(3, 7, 2, 2);
        let um = GridPartition::build_with_order(&m, spec.clone(), BlockOrder::UserMajor);
        let stream = GridPartition::build(&m, spec);
        assert_eq!(um.total_nnz(), m.nnz());
        for id in um.spec().blocks() {
            let block = um.block(id);
            // Users ascend within a block; ties keep stream order.
            assert!(
                block.rows.windows(2).all(|w| w[0] <= w[1]),
                "block {id} not user-major: {:?}",
                block.rows
            );
            // Same entry multiset as the stream-ordered partition.
            let mut a: Vec<_> = block.iter().map(|e| (e.u, e.v)).collect();
            let mut b: Vec<_> = stream.block(id).iter().map(|e| (e.u, e.v)).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
        // Ties (same user, same block) keep stream order.
        let b00 = um.block(BlockId::new(0, 0));
        let user0: Vec<f32> = b00.iter().filter(|e| e.u == 0).map(|e| e.r).collect();
        assert_eq!(user0, vec![2.0, 4.0]);
    }

    #[test]
    fn nonuniform_partition() {
        let m = matrix_8x8();
        // GPU gets rows 0..6 in one tall band; CPU rows 6..8 in two bands.
        let spec = GridSpec::from_cuts(vec![0, 6, 7, 8], vec![0, 4, 8]).unwrap();
        let part = GridPartition::build(&m, spec);
        let tall = part.block_len(BlockId::new(0, 0)) + part.block_len(BlockId::new(0, 1));
        // 6 of 8 rows, half the entries each row → 24 of 32 entries.
        assert_eq!(tall, 24);
        assert_eq!(part.total_nnz(), 32);
    }

    #[test]
    fn conflict_predicate() {
        let a = BlockId::new(0, 0);
        assert!(a.conflicts_with(BlockId::new(0, 5)));
        assert!(a.conflicts_with(BlockId::new(5, 0)));
        assert!(!a.conflicts_with(BlockId::new(1, 1)));
        assert!(a.conflicts_with(a));
    }

    #[test]
    fn flat_index_round_trip() {
        let spec = GridSpec::uniform(10, 10, 3, 5);
        for id in spec.blocks() {
            assert_eq!(spec.from_flat(spec.flat_index(id)), id);
        }
    }

    #[test]
    fn wire_bytes() {
        let m = matrix_8x8();
        let part = GridPartition::build(&m, GridSpec::uniform(8, 8, 1, 1));
        assert_eq!(
            part.block_wire_bytes(BlockId::new(0, 0)),
            32 * Rating::WIRE_BYTES
        );
    }
}
