//! COO rating-matrix storage.

/// One observed rating: user `u` gave item `v` the value `r`.
///
/// Matches the paper's triadic-tuple storage. 12 bytes, `Copy`, and laid out
/// so a block of ratings can be transferred to the (simulated) GPU as a flat
/// byte buffer — the same `4 + 4 + 4` layout cuMF_SGD ships over PCIe.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C)]
pub struct Rating {
    /// Row (user) index, `0 <= u < m`.
    pub u: u32,
    /// Column (item) index, `0 <= v < n`.
    pub v: u32,
    /// Observed rating value.
    pub r: f32,
}

impl Rating {
    /// Convenience constructor.
    #[inline]
    pub fn new(u: u32, v: u32, r: f32) -> Rating {
        Rating { u, v, r }
    }

    /// Size of one rating on the wire, in bytes.
    pub const WIRE_BYTES: usize = 12;
}

/// A borrowed structure-of-arrays view over a run of ratings: entry `i`
/// is `(rows[i], cols[i], vals[i])`.
///
/// This is the layout the monomorphized SGD kernels consume: three
/// unit-stride streams instead of a 12-byte interleaved [`Rating`]
/// stride, so the index loads and the value loads each hit their own
/// dense cache lines. [`crate::GridPartition`] stores every block this
/// way and hands out `BlockSlices` views.
#[derive(Debug, Clone, Copy)]
pub struct BlockSlices<'a> {
    /// Row (user) indices.
    pub rows: &'a [u32],
    /// Column (item) indices.
    pub cols: &'a [u32],
    /// Rating values.
    pub vals: &'a [f32],
}

impl<'a> BlockSlices<'a> {
    /// Assembles a view from three equal-length slices.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[inline]
    pub fn new(rows: &'a [u32], cols: &'a [u32], vals: &'a [f32]) -> BlockSlices<'a> {
        assert!(
            rows.len() == cols.len() && cols.len() == vals.len(),
            "SoA slices must have equal lengths"
        );
        BlockSlices { rows, cols, vals }
    }

    /// An empty view.
    #[inline]
    pub fn empty() -> BlockSlices<'static> {
        BlockSlices {
            rows: &[],
            cols: &[],
            vals: &[],
        }
    }

    /// Number of ratings in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the view holds no ratings.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The `i`-th rating, materialized as a [`Rating`].
    #[inline]
    pub fn get(&self, i: usize) -> Rating {
        Rating::new(self.rows[i], self.cols[i], self.vals[i])
    }

    /// A sub-view over `range` (same indices in all three streams).
    #[inline]
    pub fn slice(&self, range: std::ops::Range<usize>) -> BlockSlices<'a> {
        BlockSlices {
            rows: &self.rows[range.clone()],
            cols: &self.cols[range.clone()],
            vals: &self.vals[range],
        }
    }

    /// Iterates the ratings in order, materialized as [`Rating`] values.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = Rating> + 'a {
        self.rows
            .iter()
            .zip(self.cols)
            .zip(self.vals)
            .map(|((&u, &v), &r)| Rating::new(u, v, r))
    }

    /// Bytes this view's ratings occupy on the (simulated) PCIe wire.
    #[inline]
    pub fn wire_bytes(&self) -> usize {
        self.len() * Rating::WIRE_BYTES
    }
}

/// Owned structure-of-arrays rating storage — the buffer type behind
/// [`BlockSlices`] views. Used by trainers that keep a private reordered
/// copy of the data in kernel-friendly layout (e.g. Hogwild).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SoaRatings {
    rows: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<f32>,
}

impl SoaRatings {
    /// Empty storage with room for `n` ratings.
    pub fn with_capacity(n: usize) -> SoaRatings {
        SoaRatings {
            rows: Vec::with_capacity(n),
            cols: Vec::with_capacity(n),
            vals: Vec::with_capacity(n),
        }
    }

    /// Converts an AoS rating run into SoA storage.
    pub fn from_entries(entries: &[Rating]) -> SoaRatings {
        let mut out = SoaRatings::with_capacity(entries.len());
        for e in entries {
            out.push(*e);
        }
        out
    }

    /// Appends one rating.
    #[inline]
    pub fn push(&mut self, e: Rating) {
        self.rows.push(e.u);
        self.cols.push(e.v);
        self.vals.push(e.r);
    }

    /// Number of stored ratings.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no ratings are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// A view over all stored ratings.
    #[inline]
    pub fn as_slices(&self) -> BlockSlices<'_> {
        BlockSlices {
            rows: &self.rows,
            cols: &self.cols,
            vals: &self.vals,
        }
    }

    /// A view over `range`.
    #[inline]
    pub fn slice(&self, range: std::ops::Range<usize>) -> BlockSlices<'_> {
        self.as_slices().slice(range)
    }

    /// Seeded Fisher–Yates shuffle applying the same swap sequence to all
    /// three streams in lockstep — the permutation is identical to
    /// [`crate::shuffle::shuffle_entries`] with the same seed on the AoS
    /// form of the same data.
    pub fn shuffle(&mut self, seed: u64) {
        use rand::rngs::StdRng;
        use rand::{RngCore, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..self.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            self.rows.swap(i, j);
            self.cols.swap(i, j);
            self.vals.swap(i, j);
        }
    }
}

/// A sparse `m × n` rating matrix in coordinate form.
///
/// Entry order is meaningful: SGD visits entries in storage order, so
/// shuffling (see [`crate::shuffle`]) is an explicit, seeded operation.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    nrows: u32,
    ncols: u32,
    entries: Vec<Rating>,
}

impl SparseMatrix {
    /// Creates a matrix from parts, validating that every entry is in
    /// bounds.
    ///
    /// # Errors
    ///
    /// Returns the index of the first out-of-bounds entry.
    pub fn new(nrows: u32, ncols: u32, entries: Vec<Rating>) -> Result<SparseMatrix, usize> {
        if let Some(bad) = entries.iter().position(|e| e.u >= nrows || e.v >= ncols) {
            return Err(bad);
        }
        Ok(SparseMatrix {
            nrows,
            ncols,
            entries,
        })
    }

    /// Creates an empty matrix of the given shape.
    pub fn empty(nrows: u32, ncols: u32) -> SparseMatrix {
        SparseMatrix {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// Creates a matrix from `(u, v, r)` triples, inferring the shape from
    /// the maximum indices present (`max+1`). Panics on an empty iterator
    /// only in the sense of producing a 0×0 matrix.
    pub fn from_triples<I>(triples: I) -> SparseMatrix
    where
        I: IntoIterator<Item = (u32, u32, f32)>,
    {
        let entries: Vec<Rating> = triples
            .into_iter()
            .map(|(u, v, r)| Rating::new(u, v, r))
            .collect();
        let nrows = entries.iter().map(|e| e.u + 1).max().unwrap_or(0);
        let ncols = entries.iter().map(|e| e.v + 1).max().unwrap_or(0);
        SparseMatrix {
            nrows,
            ncols,
            entries,
        }
    }

    /// Number of rows (users), the paper's `m`.
    #[inline]
    pub fn nrows(&self) -> u32 {
        self.nrows
    }

    /// Number of columns (items), the paper's `n`.
    #[inline]
    pub fn ncols(&self) -> u32 {
        self.ncols
    }

    /// Number of observed ratings, the paper's `|R|`.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// True when there are no observed ratings.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries in storage order.
    #[inline]
    pub fn entries(&self) -> &[Rating] {
        &self.entries
    }

    /// Mutable access to the entries (used by shuffling).
    #[inline]
    pub fn entries_mut(&mut self) -> &mut [Rating] {
        &mut self.entries
    }

    /// Appends an entry.
    ///
    /// # Panics
    ///
    /// Panics if the entry is out of bounds for this matrix's shape.
    pub fn push(&mut self, e: Rating) {
        assert!(
            e.u < self.nrows && e.v < self.ncols,
            "entry ({}, {}) out of bounds for {}x{} matrix",
            e.u,
            e.v,
            self.nrows,
            self.ncols
        );
        self.entries.push(e);
    }

    /// Density `|R| / (m·n)`, in `[0, 1]`.
    pub fn density(&self) -> f64 {
        if self.nrows == 0 || self.ncols == 0 {
            return 0.0;
        }
        self.entries.len() as f64 / (self.nrows as f64 * self.ncols as f64)
    }

    /// Mean rating value, or 0.0 when empty. Used for bias-corrected
    /// initialization of the factor matrices.
    pub fn mean_rating(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        let sum: f64 = self.entries.iter().map(|e| e.r as f64).sum();
        sum / self.entries.len() as f64
    }

    /// `(min, max)` rating values, or `None` when empty.
    pub fn rating_range(&self) -> Option<(f32, f32)> {
        self.entries.iter().fold(None, |acc, e| match acc {
            None => Some((e.r, e.r)),
            Some((lo, hi)) => Some((lo.min(e.r), hi.max(e.r))),
        })
    }

    /// Size of this matrix's entry payload on the wire (PCIe transfer
    /// accounting), in bytes.
    pub fn wire_bytes(&self) -> usize {
        self.entries.len() * Rating::WIRE_BYTES
    }

    /// Splits the entries into two matrices of the same shape: the first
    /// `head` entries and the rest. Used for train/test splits after a
    /// shuffle.
    pub fn split_at(mut self, head: usize) -> (SparseMatrix, SparseMatrix) {
        let head = head.min(self.entries.len());
        let tail = self.entries.split_off(head);
        let rest = SparseMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            entries: tail,
        };
        (self, rest)
    }

    /// Per-row entry counts (length `m`).
    pub fn row_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.nrows as usize];
        for e in &self.entries {
            counts[e.u as usize] += 1;
        }
        counts
    }

    /// Per-column entry counts (length `n`).
    pub fn col_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.ncols as usize];
        for e in &self.entries {
            counts[e.v as usize] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SparseMatrix {
        SparseMatrix::from_triples(vec![
            (0, 0, 3.0),
            (0, 1, 5.0),
            (1, 2, 4.5),
            (2, 0, 3.0),
            (3, 3, 1.0),
        ])
    }

    #[test]
    fn shape_inference() {
        let m = small();
        assert_eq!(m.nrows(), 4);
        assert_eq!(m.ncols(), 4);
        assert_eq!(m.nnz(), 5);
        assert!(!m.is_empty());
    }

    #[test]
    fn new_validates_bounds() {
        let bad = SparseMatrix::new(2, 2, vec![Rating::new(0, 0, 1.0), Rating::new(2, 0, 1.0)]);
        assert_eq!(bad, Err(1));
        let ok = SparseMatrix::new(2, 2, vec![Rating::new(1, 1, 1.0)]);
        assert!(ok.is_ok());
    }

    #[test]
    fn push_in_bounds() {
        let mut m = SparseMatrix::empty(2, 2);
        m.push(Rating::new(1, 1, 2.0));
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn push_out_of_bounds_panics() {
        let mut m = SparseMatrix::empty(2, 2);
        m.push(Rating::new(2, 0, 1.0));
    }

    #[test]
    fn statistics() {
        let m = small();
        assert!((m.mean_rating() - 3.3).abs() < 1e-9);
        assert_eq!(m.rating_range(), Some((1.0, 5.0)));
        assert!((m.density() - 5.0 / 16.0).abs() < 1e-12);
        assert_eq!(m.row_counts(), vec![2, 1, 1, 1]);
        assert_eq!(m.col_counts(), vec![2, 1, 1, 1]);
    }

    #[test]
    fn empty_statistics() {
        let m = SparseMatrix::empty(0, 0);
        assert_eq!(m.mean_rating(), 0.0);
        assert_eq!(m.rating_range(), None);
        assert_eq!(m.density(), 0.0);
    }

    #[test]
    fn split_preserves_shape_and_entries() {
        let m = small();
        let total = m.nnz();
        let (a, b) = m.split_at(2);
        assert_eq!(a.nnz(), 2);
        assert_eq!(b.nnz(), total - 2);
        assert_eq!(a.nrows(), 4);
        assert_eq!(b.nrows(), 4);
        // Split beyond the end keeps everything in the head.
        let (c, d) = small().split_at(100);
        assert_eq!(c.nnz(), total);
        assert_eq!(d.nnz(), 0);
    }

    #[test]
    fn wire_bytes_matches_layout() {
        assert_eq!(std::mem::size_of::<Rating>(), Rating::WIRE_BYTES);
        assert_eq!(small().wire_bytes(), 5 * 12);
    }

    #[test]
    fn soa_round_trips_entries() {
        let m = small();
        let soa = SoaRatings::from_entries(m.entries());
        assert_eq!(soa.len(), m.nnz());
        let back: Vec<Rating> = soa.as_slices().iter().collect();
        assert_eq!(back, m.entries());
        for (i, e) in m.entries().iter().enumerate() {
            assert_eq!(soa.as_slices().get(i), *e);
        }
    }

    #[test]
    fn soa_shuffle_matches_aos_shuffle() {
        use crate::shuffle::shuffle_entries;
        let mut m = small();
        let mut soa = SoaRatings::from_entries(m.entries());
        shuffle_entries(&mut m, 77);
        soa.shuffle(77);
        let back: Vec<Rating> = soa.as_slices().iter().collect();
        assert_eq!(back, m.entries(), "lockstep shuffle must match AoS");
    }

    #[test]
    fn block_slices_sub_view() {
        let soa = SoaRatings::from_entries(small().entries());
        let view = soa.slice(1..4);
        assert_eq!(view.len(), 3);
        assert_eq!(view.get(0), small().entries()[1]);
        assert_eq!(view.wire_bytes(), 3 * Rating::WIRE_BYTES);
        assert!(BlockSlices::empty().is_empty());
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn block_slices_rejects_mismatched_lengths() {
        let _ = BlockSlices::new(&[1, 2], &[1], &[0.5]);
    }
}
