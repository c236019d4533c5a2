//! Property tests for [`FreeBlockPool`]: under arbitrary grids, caps, and
//! interleaved acquire/release traffic, the pool's pick is always exactly
//! the pick of the exhaustive O(rows × cols) grid scan it replaced —
//! least pass count among conflict-free under-cap blocks, row-major
//! tie-break — and its bookkeeping (counts, in-flight, band occupancy)
//! stays consistent.

use mf_fuzz::{check, Gen};
use mf_sparse::{BlockId, FreeBlockPool};

#[test]
fn pool_pick_equals_exhaustive_scan() {
    let input = |g: &mut Gen| {
        (
            g.int(1u32..12),
            g.int(1u32..12),
            g.int(0u32..6),
            g.vec(1..300, |g| (g.int(0u8..4), g.int(0usize..64))),
        )
    };
    check(256, 1, input, |(rows, cols, cap_raw, ops)| {
        // cap_raw 0 encodes "no cap".
        let cap = (cap_raw > 0).then_some(cap_raw);
        let mut pool = FreeBlockPool::new(rows, cols, cap);
        let mut held: Vec<BlockId> = Vec::new();
        for (kind, pick) in ops {
            if kind == 0 && !held.is_empty() {
                // Release an arbitrary held block.
                let id = held.remove(pick % held.len());
                pool.release(id);
                assert!(!pool.row_busy(id.row));
                assert!(!pool.col_busy(id.col));
            } else {
                let expect = pool.scan_reference_pick();
                let got = pool.acquire();
                assert_eq!(got, expect, "pool diverged from scan oracle");
                if let Some((id, pass)) = got {
                    assert_eq!(pool.count(id), pass + 1);
                    assert!(pool.row_busy(id.row) && pool.col_busy(id.col));
                    held.push(id);
                }
            }
            assert_eq!(pool.in_flight() as usize, held.len());
        }
        // Held blocks are pairwise conflict-free at all times (checked
        // once at the end: occupancy never allowed a conflicting grant).
        for (i, a) in held.iter().enumerate() {
            for b in &held[i + 1..] {
                assert!(!a.conflicts_with(*b), "{a} conflicts {b}");
            }
        }
    });
}

#[test]
fn capped_pool_never_exceeds_cap_and_drains_level() {
    let input = |g: &mut Gen| (g.int(1u32..8), g.int(1u32..8), g.int(1u32..5));
    check(256, 2, input, |(rows, cols, cap)| {
        let mut pool = FreeBlockPool::new(rows, cols, Some(cap));
        // Sequential drain: acquire/release until exhaustion.
        let mut grants = 0u64;
        while let Some((id, _)) = pool.acquire() {
            assert!(pool.count(id) <= cap);
            pool.release(id);
            grants += 1;
        }
        assert_eq!(grants, (rows * cols * cap) as u64);
        // Least-count policy over a fully free grid keeps counts level.
        assert!(pool.counts().iter().all(|&c| c == cap));
    });
}
