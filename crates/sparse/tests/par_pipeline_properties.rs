//! Property tests for the parallel ingest pipeline:
//!
//! 1. The SoA [`GridPartition`] is **entry-for-entry** equivalent to a
//!    straightforward AoS reference build (stable bucket-by-block, with
//!    an optional stable pre-sort by user), for both block orders.
//! 2. Every parallel pass — grid build, relabel, and the chunked
//!    shuffle — produces **bit-identical** output for any thread
//!    count.

use mf_fuzz::{check, Gen};
use mf_par::ThreadPool;
use mf_sparse::{shuffle, BlockOrder, GridPartition, GridSpec, Rating, SparseMatrix};

/// A matrix with shape up to 48x48 and up to 300 entries.
fn matrix(g: &mut Gen) -> SparseMatrix {
    let (m, n) = (g.int(1u32..48), g.int(1u32..48));
    let trips = g.vec(0..300, |g| {
        Rating::new(g.int(0..m), g.int(0..n), g.f32(-10.0..10.0))
    });
    SparseMatrix::new(m, n, trips).expect("in-bounds by construction")
}

/// The executable definition of the partition: indices stably sorted by
/// flat block id (and, for UserMajor, by user id first — an LSD radix
/// sort), then grouped. AoS all the way, no scatter machinery.
fn reference_blocks(m: &SparseMatrix, spec: &GridSpec, order: BlockOrder) -> Vec<Vec<Rating>> {
    let mut indices: Vec<usize> = (0..m.nnz()).collect();
    let flat = |i: usize| {
        let e = &m.entries()[i];
        spec.flat_index(spec.block_of(e.u, e.v))
    };
    match order {
        BlockOrder::Stream => indices.sort_by_key(|&i| flat(i)),
        BlockOrder::UserMajor => indices.sort_by_key(|&i| (flat(i), m.entries()[i].u)),
    }
    let mut out = vec![Vec::new(); spec.block_count()];
    for i in indices {
        out[flat(i)].push(m.entries()[i]);
    }
    out
}

#[test]
fn soa_partition_matches_aos_reference() {
    check(256, 1, matrix, |m| {
        for order in [BlockOrder::Stream, BlockOrder::UserMajor] {
            let specs = [
                GridSpec::uniform(m.nrows(), m.ncols(), 1, 1),
                GridSpec::uniform(m.nrows(), m.ncols(), 3, 5),
                GridSpec::uniform(m.nrows(), m.ncols(), 7, 7),
            ];
            for spec in specs {
                let expect = reference_blocks(&m, &spec, order);
                let part = GridPartition::build_with_order(&m, spec, order);
                assert_eq!(part.total_nnz(), m.nnz());
                for id in part.spec().blocks() {
                    let got: Vec<Rating> = part.block(id).iter().collect();
                    let flat = part.spec().flat_index(id);
                    assert_eq!(&got, &expect[flat], "order {order:?}, block {id}");
                }
            }
        }
    });
}

#[test]
fn parallel_passes_are_thread_count_invariant() {
    let input = |g: &mut Gen| (matrix(g), g.int(0u64..500));
    check(256, 2, input, |(m, seed)| {
        let pools: Vec<ThreadPool> = [1usize, 2, 3].into_iter().map(ThreadPool::new).collect();
        let spec = GridSpec::uniform(m.nrows(), m.ncols(), 4, 3);

        // Grid build.
        let grid_ref =
            GridPartition::build_with_order_in(&m, spec.clone(), BlockOrder::UserMajor, &pools[0]);
        // Shuffle.
        let shuf_ref = {
            let mut c = m.clone();
            shuffle::par_shuffle_entries_in(&mut c, seed, &pools[0]);
            c
        };

        for pool in &pools[1..] {
            let grid =
                GridPartition::build_with_order_in(&m, spec.clone(), BlockOrder::UserMajor, pool);
            for id in spec.blocks() {
                let a: Vec<Rating> = grid_ref.block(id).iter().collect();
                let b: Vec<Rating> = grid.block(id).iter().collect();
                assert_eq!(
                    a,
                    b,
                    "grid block {id} differs at {} threads",
                    pool.threads()
                );
            }
            let mut shuf = m.clone();
            shuffle::par_shuffle_entries_in(&mut shuf, seed, pool);
            assert_eq!(
                &shuf,
                &shuf_ref,
                "shuffle differs at {} threads",
                pool.threads()
            );
        }
    });
}

/// Multi-chunk regime: enough entries that the counting scatter splits
/// into several chunks and the shuffle uses several buckets, across
/// thread counts — the small generated matrices above stay single-chunk.
#[test]
fn large_input_parallel_passes_are_thread_count_invariant() {
    let n = 150_000usize;
    let (rows, cols) = (400u32, 300u32);
    let m = SparseMatrix::new(
        rows,
        cols,
        (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 16;
                Rating::new(
                    (h % rows as u64) as u32,
                    (h / rows as u64 % cols as u64) as u32,
                    (i % 97) as f32 * 0.25,
                )
            })
            .collect(),
    )
    .unwrap();
    let spec = GridSpec::uniform(rows, cols, 17, 16);
    let serial = ThreadPool::new(1);

    let grid_ref =
        GridPartition::build_with_order_in(&m, spec.clone(), BlockOrder::UserMajor, &serial);
    let shuf_ref = {
        let mut c = m.clone();
        shuffle::par_shuffle_entries_in(&mut c, 7, &serial);
        c
    };
    // The shuffle actually permuted and kept the multiset.
    assert_ne!(shuf_ref, m);
    let key = |r: &Rating| (r.u, r.v, r.r.to_bits());
    let mut a = shuf_ref.entries().to_vec();
    let mut b = m.entries().to_vec();
    a.sort_by_key(key);
    b.sort_by_key(key);
    assert_eq!(a, b);

    for threads in [2usize, 4, 8] {
        let pool = ThreadPool::new(threads);
        let grid =
            GridPartition::build_with_order_in(&m, spec.clone(), BlockOrder::UserMajor, &pool);
        for id in spec.blocks() {
            assert_eq!(
                grid.block(id).iter().collect::<Vec<_>>(),
                grid_ref.block(id).iter().collect::<Vec<_>>(),
                "block {id} at {threads} threads"
            );
        }
        let mut shuf = m.clone();
        shuffle::par_shuffle_entries_in(&mut shuf, 7, &pool);
        assert_eq!(shuf, shuf_ref, "shuffle at {threads} threads");
    }
}
