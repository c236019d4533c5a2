//! Deterministic shuffling and relabeling.
//!
//! The paper shuffles the input dataset "to avoid uneven data distribution"
//! (Sec. V-A) before sampling cost-model training segments, and SGD itself
//! benefits from visiting ratings in random order. Everything here is
//! seeded: the same seed always produces the same permutation. The
//! parallel variants ([`par_shuffle_entries`], and [`relabel`]'s chunked
//! sweep) are additionally **thread-count independent** — their chunking
//! is a function of the data alone, so one seed means one result whether
//! the pool has 1 thread or 64.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use mf_par::{
    for_each_bounded_mut, for_each_chunk_mut, stable_counting_scatter, ScatterSlice, ThreadPool,
    DEFAULT_CHUNK,
};

use crate::hash::splitmix64;
use crate::matrix::{Rating, SparseMatrix};

/// Shuffles the entry order in place (single-stream Fisher-Yates with a
/// seeded RNG). The serial reference permutation; see
/// [`par_shuffle_entries`] for the scalable variant.
pub fn shuffle_entries(m: &mut SparseMatrix, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    m.entries_mut().shuffle(&mut rng);
}

/// Per-bucket target length of the parallel shuffle. A function of the
/// data alone (never of the thread count), so the bucket decomposition —
/// and therefore the result — is reproducible on any machine.
const PAR_SHUFFLE_BUCKET: usize = 1 << 16;

/// The per-index hash stream of the parallel shuffle.
#[inline]
fn mix(seed: u64, i: u64) -> u64 {
    splitmix64(seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// [`par_shuffle_entries_in`] on the process-wide pool.
pub fn par_shuffle_entries(m: &mut SparseMatrix, seed: u64) {
    par_shuffle_entries_in(m, seed, ThreadPool::global());
}

/// Chunked Fisher–Yates-equivalent shuffle, parallel on `pool` and
/// bit-reproducible for a given seed **regardless of thread count**:
///
/// 1. *Riffle*: every entry is dealt to one of `⌈nnz / 2¹⁶⌉` buckets by a
///    seeded hash of its index (a stable parallel counting-sort scatter —
///    deterministic because the stable sort is unique).
/// 2. *Per-bucket Fisher–Yates*: each bucket is shuffled with its own RNG
///    stream derived from `(seed, bucket)`, one task per bucket.
///
/// The single-bucket case degenerates to a plain seeded Fisher–Yates (a
/// different stream than [`shuffle_entries`], but an equally uniform
/// permutation).
pub fn par_shuffle_entries_in(m: &mut SparseMatrix, seed: u64, pool: &ThreadPool) {
    let n = m.nnz();
    if n <= 1 {
        return;
    }
    let nbuckets = n.div_ceil(PAR_SHUFFLE_BUCKET).clamp(1, 4096);
    if nbuckets == 1 {
        // One bucket: the riffle is the identity (stable scatter of a
        // single key), so shuffling in place with the bucket-0 stream
        // produces the bit-identical permutation without the scratch
        // allocation, scatter, and copy-back.
        let mut rng = StdRng::seed_from_u64(mix(seed ^ 0x5851_f42d_4c95_7f2d, 0));
        m.entries_mut().shuffle(&mut rng);
        return;
    }
    let entries = m.entries_mut();
    // Phase 1: stable scatter into hash buckets.
    let mut scratch = vec![Rating::new(0, 0, 0.0); n];
    let offsets = {
        let dst = ScatterSlice::new(&mut scratch);
        let src: &[Rating] = entries;
        stable_counting_scatter(
            pool,
            n,
            nbuckets,
            DEFAULT_CHUNK,
            |i| (mix(seed, i as u64) % nbuckets as u64) as usize,
            // SAFETY: the scatter plan assigns each destination index to
            // exactly one entry.
            |i, at| unsafe { dst.write(at, src[i]) },
        )
    };
    // Phase 2: independent seeded Fisher–Yates per bucket.
    for_each_bounded_mut(pool, &mut scratch, &offsets, |bucket, part| {
        let mut rng = StdRng::seed_from_u64(mix(seed ^ 0x5851_f42d_4c95_7f2d, bucket as u64));
        part.shuffle(&mut rng);
    });
    entries.copy_from_slice(&scratch);
}

/// A random permutation of `0..n`.
pub fn random_permutation(n: u32, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut perm: Vec<u32> = (0..n).collect();
    perm.shuffle(&mut rng);
    perm
}

/// Relabels rows and/or columns by permutations, in place (chunked in
/// parallel on the process-wide pool; the per-entry map is pure, so the
/// result is identical for any thread count).
///
/// Row/column permutation spreads dense users and items uniformly across
/// the grid so block sizes are balanced — without it, real rating data
/// (users sorted by id, popular items clustered) produces pathologically
/// skewed blocks.
///
/// # Panics
///
/// Panics if a provided permutation's length does not match the matrix
/// dimension.
pub fn relabel(m: &mut SparseMatrix, row_perm: Option<&[u32]>, col_perm: Option<&[u32]>) {
    relabel_in(m, row_perm, col_perm, ThreadPool::global());
}

/// [`relabel`] with the sweep on an explicit pool.
///
/// # Panics
///
/// Panics if a provided permutation's length does not match the matrix
/// dimension.
pub fn relabel_in(
    m: &mut SparseMatrix,
    row_perm: Option<&[u32]>,
    col_perm: Option<&[u32]>,
    pool: &ThreadPool,
) {
    if let Some(p) = row_perm {
        assert_eq!(p.len(), m.nrows() as usize, "row permutation length");
    }
    if let Some(p) = col_perm {
        assert_eq!(p.len(), m.ncols() as usize, "col permutation length");
    }
    for_each_chunk_mut(pool, m.entries_mut(), DEFAULT_CHUNK, |_, chunk| {
        for e in chunk {
            if let Some(p) = row_perm {
                e.u = p[e.u as usize];
            }
            if let Some(p) = col_perm {
                e.v = p[e.v as usize];
            }
        }
    });
}

/// Shuffles entries and relabels rows/columns with independent streams
/// derived from one master seed. This is the standard preprocessing applied
/// before grid partitioning; the `O(nnz)` passes run on the process-wide
/// pool (via [`relabel`] and [`par_shuffle_entries`]) and are
/// thread-count independent.
pub fn preprocess(m: &mut SparseMatrix, seed: u64) {
    let row_perm = random_permutation(m.nrows(), seed.wrapping_add(0x517c_c1b7_2722_0a95));
    let col_perm = random_permutation(m.ncols(), seed.wrapping_add(0x2545_f491_4f6c_dd1d));
    relabel(m, Some(&row_perm), Some(&col_perm));
    par_shuffle_entries(m, seed.wrapping_add(0x9e37_79b9_7f4a_7c15));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Rating;

    fn sample(n: usize) -> SparseMatrix {
        SparseMatrix::from_triples((0..n).map(|i| (i as u32 % 7, i as u32 % 5, i as f32)))
    }

    #[test]
    fn shuffle_is_deterministic_and_permutes() {
        let mut a = sample(100);
        let mut b = sample(100);
        shuffle_entries(&mut a, 42);
        shuffle_entries(&mut b, 42);
        assert_eq!(a, b);

        let mut c = sample(100);
        shuffle_entries(&mut c, 43);
        assert_ne!(a, c, "different seed should give a different order");

        // Same multiset of entries.
        let key = |r: &Rating| (r.u, r.v, r.r.to_bits());
        let mut ea = a.entries().to_vec();
        let mut orig = sample(100).entries().to_vec();
        ea.sort_by_key(key);
        orig.sort_by_key(key);
        assert_eq!(ea, orig);
    }

    #[test]
    fn permutation_is_a_bijection() {
        let p = random_permutation(257, 7);
        let mut seen = vec![false; 257];
        for &x in &p {
            assert!(!seen[x as usize], "duplicate {x}");
            seen[x as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn relabel_applies_permutations() {
        let mut m = SparseMatrix::from_triples(vec![(0, 0, 1.0), (1, 1, 2.0), (2, 0, 3.0)]);
        let row_perm = vec![2, 0, 1];
        let col_perm = vec![1, 0];
        relabel(&mut m, Some(&row_perm), Some(&col_perm));
        let e = m.entries();
        assert_eq!((e[0].u, e[0].v), (2, 1));
        assert_eq!((e[1].u, e[1].v), (0, 0));
        assert_eq!((e[2].u, e[2].v), (1, 1));
    }

    #[test]
    fn relabel_none_is_identity() {
        let mut m = sample(10);
        let before = m.clone();
        relabel(&mut m, None, None);
        assert_eq!(m, before);
    }

    #[test]
    #[should_panic(expected = "row permutation length")]
    fn relabel_checks_lengths() {
        let mut m = sample(10);
        relabel(&mut m, Some(&[0, 1]), None);
    }

    #[test]
    fn par_shuffle_permutes_and_is_thread_count_invariant() {
        let reference = {
            let mut m = sample(3000);
            let pool = ThreadPool::new(1);
            par_shuffle_entries_in(&mut m, 42, &pool);
            m
        };
        // Actually permutes (3000 entries: identity is impossible at this
        // seed) and preserves the multiset.
        assert_ne!(reference, sample(3000));
        let key = |r: &Rating| (r.u, r.v, r.r.to_bits());
        let mut got = reference.entries().to_vec();
        let mut want = sample(3000).entries().to_vec();
        got.sort_by_key(key);
        want.sort_by_key(key);
        assert_eq!(got, want);
        // Same seed, any thread count → bit-identical order.
        for threads in [2, 3, 8] {
            let mut m = sample(3000);
            par_shuffle_entries_in(&mut m, 42, &ThreadPool::new(threads));
            assert_eq!(m, reference, "threads={threads}");
        }
        // Different seed → different order.
        let mut other = sample(3000);
        par_shuffle_entries_in(&mut other, 43, &ThreadPool::new(2));
        assert_ne!(other, reference);
    }

    #[test]
    fn par_shuffle_tiny_inputs() {
        for n in [0usize, 1, 2, 5] {
            let mut m = sample(n);
            par_shuffle_entries(&mut m, 9);
            assert_eq!(m.nnz(), n);
        }
    }

    #[test]
    fn relabel_matches_serial_reference_for_any_pool() {
        let row_perm = random_permutation(7, 1);
        let col_perm = random_permutation(5, 2);
        let mut expect = sample(500);
        // Serial reference: the plain per-entry map.
        for e in expect.entries_mut() {
            e.u = row_perm[e.u as usize];
            e.v = col_perm[e.v as usize];
        }
        for threads in [1, 2, 4] {
            let mut m = sample(500);
            relabel_in(
                &mut m,
                Some(&row_perm),
                Some(&col_perm),
                &ThreadPool::new(threads),
            );
            assert_eq!(m, expect, "threads={threads}");
        }
    }

    #[test]
    fn preprocess_keeps_shape_and_nnz() {
        let mut m = sample(50);
        let (rows, cols, nnz) = (m.nrows(), m.ncols(), m.nnz());
        preprocess(&mut m, 1);
        assert_eq!(m.nrows(), rows);
        assert_eq!(m.ncols(), cols);
        assert_eq!(m.nnz(), nnz);
        for e in m.entries() {
            assert!(e.u < rows && e.v < cols);
        }
    }
}
