//! Property tests: every monomorphized SGD kernel is numerically
//! equivalent to the scalar reference.
//!
//! The monomorphized dot product reduces in a different association order
//! (split accumulators + tree reduction) than the scalar left-to-right
//! sum, so results are not bit-identical; the property asserted here is
//! agreement within `1e-6` relative to the magnitudes involved, across
//! random latent dimensions (monomorphized and not), factor values, and
//! hyper-parameters.

use mf_sgd::kernel;
use proptest::prelude::*;

/// Tolerance for one update: 1e-6 scaled by the dot-product magnitude
/// (the only place association order differs).
fn tol(mag: f32) -> f32 {
    1e-6 * (1.0 + mag.abs())
}

/// Strategy: a latent dimension, biased toward the monomorphized set but
/// also covering arbitrary (scalar-path) values.
fn arb_k() -> impl Strategy<Value = usize> {
    (0usize..8, 1usize..160).prop_map(|(pick, free)| {
        if pick < kernel::MONO_DIMS.len() {
            kernel::MONO_DIMS[pick]
        } else {
            free
        }
    })
}

/// Strategy: `(k, p, q)` with unit-scale factor entries (`|x| ≤ 1/√k`,
/// like a real model init, so dot products stay O(1)).
fn arb_factors() -> impl Strategy<Value = (usize, Vec<f32>, Vec<f32>)> {
    arb_k().prop_flat_map(|k| {
        let entry = -1.0f32..1.0;
        (
            Just(k),
            prop::collection::vec(entry.clone(), k..k + 1),
            prop::collection::vec(entry, k..k + 1),
        )
            .prop_map(|(k, mut p, mut q)| {
                let s = 1.0 / (k as f32).sqrt();
                for x in p.iter_mut().chain(q.iter_mut()) {
                    *x *= s;
                }
                (k, p, q)
            })
    })
}

proptest! {
    #[test]
    fn dispatched_step_matches_scalar_reference(
        (k, p0, q0) in arb_factors(),
        r in -5.0f32..5.0,
        gamma in 1e-4f32..0.1,
        lambda_p in 0.0f32..0.2,
        lambda_q in 0.0f32..0.2,
    ) {
        let (mut pa, mut qa) = (p0.clone(), q0.clone());
        let (mut pb, mut qb) = (p0.clone(), q0.clone());
        let ea = kernel::sgd_step(&mut pa, &mut qa, r, gamma, lambda_p, lambda_q);
        let eb = kernel::sgd_step_scalar(&mut pb, &mut qb, r, gamma, lambda_p, lambda_q);
        let t = tol(eb);
        prop_assert!((ea - eb).abs() <= t, "k={k}: error {ea} vs {eb}");
        for i in 0..k {
            prop_assert!((pa[i] - pb[i]).abs() <= t, "k={k} p[{i}]: {} vs {}", pa[i], pb[i]);
            prop_assert!((qa[i] - qb[i]).abs() <= t, "k={k} q[{i}]: {} vs {}", qa[i], qb[i]);
        }
    }

    #[test]
    fn dispatched_dot_matches_scalar_reference((k, p, q) in arb_factors()) {
        let fast = kernel::dot(&p, &q);
        let slow = kernel::dot_scalar(&p, &q);
        prop_assert!((fast - slow).abs() <= tol(slow), "k={k}: {fast} vs {slow}");
    }

    #[test]
    fn dispatched_block_matches_scalar_reference(
        (k, _, _) in arb_factors(),
        seed in 0u64..1000,
        nnz in 1usize..120,
    ) {
        use mf_sparse::{Rating, SoaRatings};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (users, items) = (7u32, 9u32);
        let mut rng = StdRng::seed_from_u64(seed);
        let s = 1.0 / (k as f32).sqrt();
        let mut fill = |len: usize| -> Vec<f32> {
            (0..len).map(|_| (rng.random::<f32>() - 0.5) * 2.0 * s).collect()
        };
        let mut pa = fill(users as usize * k);
        let mut qa = fill(items as usize * k);
        let mut pb = pa.clone();
        let mut qb = qa.clone();
        let block: Vec<Rating> = (0..nnz)
            .map(|_| {
                Rating::new(
                    rng.random::<u32>() % users,
                    rng.random::<u32>() % items,
                    1.0 + 4.0 * rng.random::<f32>(),
                )
            })
            .collect();
        let soa = SoaRatings::from_entries(&block);
        let sa = kernel::sgd_block_soa(&mut pa, &mut qa, k, soa.as_slices(), 0.01, 0.03, 0.05);
        let sb =
            kernel::sgd_block_soa_scalar(&mut pb, &mut qb, k, soa.as_slices(), 0.01, 0.03, 0.05);
        // Per-step drift compounds over the block; scale the tolerance by
        // the block length.
        let t = nnz as f32 * tol(1.0);
        prop_assert!((sa - sb).abs() <= (nnz as f64) * 1e-4, "sq err {sa} vs {sb}");
        for (i, (a, b)) in pa.iter().zip(&pb).enumerate() {
            prop_assert!((a - b).abs() <= t, "k={k} p[{i}]: {a} vs {b}");
        }
        for (i, (a, b)) in qa.iter().zip(&qb).enumerate() {
            prop_assert!((a - b).abs() <= t, "k={k} q[{i}]: {a} vs {b}");
        }
    }

    /// The block loop is an execution strategy over `sgd_step`, so on
    /// identical inputs it must agree **bit for bit** with stepping the
    /// ratings one by one — any k, any data, any hypers.
    #[test]
    fn soa_block_is_bitwise_equal_to_per_rating_steps(
        (k, _, _) in arb_factors(),
        seed in 0u64..1000,
        nnz in 0usize..120,
        gamma in 1e-4f32..0.1,
    ) {
        use mf_sparse::{Rating, SoaRatings};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (users, items) = (6u32, 8u32);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x50a);
        let s = 1.0 / (k as f32).sqrt();
        let mut fill = |len: usize| -> Vec<f32> {
            (0..len).map(|_| (rng.random::<f32>() - 0.5) * 2.0 * s).collect()
        };
        let mut pa = fill(users as usize * k);
        let mut qa = fill(items as usize * k);
        let mut pb = pa.clone();
        let mut qb = qa.clone();
        let block: Vec<Rating> = (0..nnz)
            .map(|_| {
                Rating::new(
                    rng.random::<u32>() % users,
                    rng.random::<u32>() % items,
                    1.0 + 4.0 * rng.random::<f32>(),
                )
            })
            .collect();
        let soa = SoaRatings::from_entries(&block);
        let mut sa = 0f64;
        for e in &block {
            let (u, v) = (e.u as usize, e.v as usize);
            let err = kernel::sgd_step(
                &mut pa[u * k..(u + 1) * k],
                &mut qa[v * k..(v + 1) * k],
                e.r, gamma, 0.03, 0.05,
            );
            sa += (err as f64) * (err as f64);
        }
        let sb = kernel::sgd_block_soa(&mut pb, &mut qb, k, soa.as_slices(), gamma, 0.03, 0.05);
        prop_assert_eq!(sa, sb);
        prop_assert_eq!(pa, pb);
        prop_assert_eq!(qa, qb);
    }
}
