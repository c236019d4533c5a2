//! Property tests for the grid partitioner: every entry lands in exactly one
//! block, inside that block's row/column ranges, for arbitrary matrices and
//! arbitrary (possibly nonuniform, possibly empty-band) cut vectors.

use mf_fuzz::{check, Gen};
use mf_sparse::{GridPartition, GridSpec, Rating, SparseMatrix};

/// A matrix with shape up to 64x64 and up to 400 entries.
fn matrix(g: &mut Gen) -> SparseMatrix {
    let (m, n) = (g.int(1u32..64), g.int(1u32..64));
    let trips = g.vec(0..400, |g| {
        Rating::new(g.int(0..m), g.int(0..n), g.f32(-10.0..10.0))
    });
    SparseMatrix::new(m, n, trips).expect("in-bounds by construction")
}

/// Non-decreasing cuts from 0 to `dim` with 1..=7 bands.
fn cuts(g: &mut Gen, dim: u32) -> Vec<u32> {
    let mut mids = g.vec(0..7, |g| g.int(0..dim + 1));
    mids.sort_unstable();
    let mut cuts = Vec::with_capacity(mids.len() + 2);
    cuts.push(0);
    cuts.extend(mids);
    cuts.push(dim);
    cuts
}

#[test]
fn partition_is_exact_cover() {
    check(256, 1, matrix, |m| {
        // Three representative grids per matrix.
        let specs = vec![
            GridSpec::uniform(m.nrows(), m.ncols(), 1, 1),
            GridSpec::uniform(m.nrows(), m.ncols(), 4, 3),
            GridSpec::uniform(m.nrows(), m.ncols(), 7, 7),
        ];
        for spec in specs {
            let part = GridPartition::build(&m, spec);
            assert_eq!(part.total_nnz(), m.nnz());
            let mut count = 0usize;
            for id in part.spec().blocks() {
                let rr = part.spec().row_range(id.row);
                let cr = part.spec().col_range(id.col);
                for e in part.block(id).iter() {
                    assert!(rr.contains(&e.u));
                    assert!(cr.contains(&e.v));
                    count += 1;
                }
            }
            assert_eq!(count, m.nnz());
        }
    });
}

#[test]
fn nonuniform_cuts_partition_exactly() {
    let input = |g: &mut Gen| {
        let m = matrix(g);
        let row_cuts = cuts(g, m.nrows());
        let col_cuts = cuts(g, m.ncols());
        (m, row_cuts, col_cuts)
    };
    check(256, 2, input, |(m, row_cuts, col_cuts)| {
        let spec = GridSpec::from_cuts(row_cuts, col_cuts).expect("valid by construction");
        let part = GridPartition::build(&m, spec);
        assert_eq!(part.total_nnz(), m.nnz());
        // Sum of block lens equals nnz, and each entry's block agrees
        // with block_of lookup.
        let mut total = 0usize;
        for id in part.spec().blocks() {
            for e in part.block(id).iter() {
                assert_eq!(part.spec().block_of(e.u, e.v), id);
            }
            total += part.block_len(id);
        }
        assert_eq!(total, m.nnz());
    });
}

#[test]
fn band_lookup_matches_linear_scan() {
    let input = |g: &mut Gen| (g.int(1u32..100), g.vec(0..6, |g| g.int(0u32..100)));
    check(256, 3, input, |(dim, seed_cuts)| {
        let mut mids: Vec<u32> = seed_cuts.into_iter().map(|c| c % (dim + 1)).collect();
        mids.sort_unstable();
        let mut cuts = vec![0u32];
        cuts.extend(mids);
        cuts.push(dim);
        let spec = GridSpec::from_cuts(cuts.clone(), vec![0, dim]).unwrap();
        for x in 0..dim {
            let band = spec.row_block_of(x);
            let range = spec.row_range(band);
            assert!(
                range.contains(&x),
                "x={x} band={band} range={range:?} cuts={cuts:?}"
            );
        }
    });
}
