//! Property tests: every monomorphized SGD kernel is numerically
//! equivalent to the scalar reference.
//!
//! The monomorphized dot product reduces in a different association order
//! (split accumulators + tree reduction) than the scalar left-to-right
//! sum, so results are not bit-identical; the property asserted here is
//! agreement within `1e-6` relative to the magnitudes involved, across
//! random latent dimensions (monomorphized and not), factor values, and
//! hyper-parameters.

use mf_fuzz::{check, Gen};
use mf_sgd::kernel;
use mf_sparse::{Rating, SoaRatings};

/// Tolerance for one update: 1e-6 scaled by the dot-product magnitude
/// (the only place association order differs).
fn tol(mag: f32) -> f32 {
    1e-6 * (1.0 + mag.abs())
}

/// A latent dimension, biased toward the monomorphized set but also
/// covering arbitrary (scalar-path) values.
fn latent_k(g: &mut Gen) -> usize {
    let (pick, free) = (g.int(0usize..8), g.int(1usize..160));
    if pick < kernel::MONO_DIMS.len() {
        kernel::MONO_DIMS[pick]
    } else {
        free
    }
}

/// `(r, gamma, lambda_p, lambda_q)`.
fn hypers(g: &mut Gen) -> (f32, f32, f32, f32) {
    let (r, gamma) = (g.f32(-5.0..5.0), g.f32(1e-4..0.1));
    (r, gamma, g.f32(0.0..0.2), g.f32(0.0..0.2))
}

/// `(k, p, q)` with unit-scale factor entries (`|x| ≤ 1/√k`, like a real
/// model init, so dot products stay O(1)).
fn factors(g: &mut Gen) -> (usize, Vec<f32>, Vec<f32>) {
    let k = latent_k(g);
    let s = 1.0 / (k as f32).sqrt();
    let row = |g: &mut Gen| g.vec(k..k + 1, |g| g.f32(-1.0..1.0) * s);
    (k, row(g), row(g))
}

/// Factor buffers `(p, q)` and a block of ratings.
type Fixture = (Vec<f32>, Vec<f32>, Vec<Rating>);

/// Unit-scale factors for a `users × items` model and a block of `nnz`
/// ratings over it, all from a `StdRng` seeded with `seed`.
fn seeded_block(seed: u64, users: u32, items: u32, k: usize, nnz: usize) -> Fixture {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let s = 1.0 / (k as f32).sqrt();
    let mut fill = |len: usize| -> Vec<f32> {
        (0..len)
            .map(|_| (rng.random::<f32>() - 0.5) * 2.0 * s)
            .collect()
    };
    let (p, q) = (fill(users as usize * k), fill(items as usize * k));
    let block = (0..nnz)
        .map(|_| {
            let (u, v) = (rng.random::<u32>() % users, rng.random::<u32>() % items);
            Rating::new(u, v, 1.0 + 4.0 * rng.random::<f32>())
        })
        .collect();
    (p, q, block)
}

#[test]
fn dispatched_step_matches_scalar_reference() {
    let input = |g: &mut Gen| (factors(g), hypers(g));
    check(256, 1, input, |((k, p0, q0), (r, gamma, lp, lq))| {
        let (mut pa, mut qa) = (p0.clone(), q0.clone());
        let (mut pb, mut qb) = (p0.clone(), q0.clone());
        let ea = kernel::sgd_step(&mut pa, &mut qa, r, gamma, lp, lq);
        let eb = kernel::sgd_step_scalar(&mut pb, &mut qb, r, gamma, lp, lq);
        let t = tol(eb);
        assert!((ea - eb).abs() <= t, "k={k}: error {ea} vs {eb}");
        for i in 0..k {
            let (pai, pbi, qai, qbi) = (pa[i], pb[i], qa[i], qb[i]);
            assert!((pai - pbi).abs() <= t, "k={k} p[{i}]: {pai} vs {pbi}");
            assert!((qai - qbi).abs() <= t, "k={k} q[{i}]: {qai} vs {qbi}");
        }
    });
}

#[test]
fn dispatched_dot_matches_scalar_reference() {
    check(256, 2, factors, |(k, p, q)| {
        let fast = kernel::dot(&p, &q);
        let slow = kernel::dot_scalar(&p, &q);
        assert!((fast - slow).abs() <= tol(slow), "k={k}: {fast} vs {slow}");
    });
}

#[test]
fn dispatched_block_matches_scalar_reference() {
    let input = |g: &mut Gen| (latent_k(g), g.int(0u64..1000), g.int(1usize..120));
    check(256, 3, input, |(k, seed, nnz)| {
        let (mut pa, mut qa, block) = seeded_block(seed, 7, 9, k, nnz);
        let (mut pb, mut qb) = (pa.clone(), qa.clone());
        let soa = SoaRatings::from_entries(&block);
        let sa = kernel::sgd_block_soa(&mut pa, &mut qa, k, soa.as_slices(), 0.01, 0.03, 0.05);
        let sb =
            kernel::sgd_block_soa_scalar(&mut pb, &mut qb, k, soa.as_slices(), 0.01, 0.03, 0.05);
        // Per-step drift compounds over the block; scale the tolerance
        // by the block length.
        let t = nnz as f32 * tol(1.0);
        assert!((sa - sb).abs() <= nnz as f64 * 1e-4, "sq err {sa} vs {sb}");
        for (i, (a, b)) in pa.iter().zip(&pb).enumerate() {
            assert!((a - b).abs() <= t, "k={k} p[{i}]: {a} vs {b}");
        }
        for (i, (a, b)) in qa.iter().zip(&qb).enumerate() {
            assert!((a - b).abs() <= t, "k={k} q[{i}]: {a} vs {b}");
        }
    });
}

/// The block loop is an execution strategy over `sgd_step`, so on
/// identical inputs it must agree **bit for bit** with stepping the
/// ratings one by one — any k, any data, any hypers.
#[test]
fn soa_block_is_bitwise_equal_to_per_rating_steps() {
    let input = |g: &mut Gen| {
        let (k, seed) = (latent_k(g), g.int(0u64..1000));
        (k, seed, g.int(0usize..120), g.f32(1e-4..0.1))
    };
    check(256, 4, input, |(k, seed, nnz, gamma)| {
        let (mut pa, mut qa, block) = seeded_block(seed ^ 0x50a, 6, 8, k, nnz);
        let (mut pb, mut qb) = (pa.clone(), qa.clone());
        let soa = SoaRatings::from_entries(&block);
        let mut sa = 0f64;
        for e in &block {
            let (u, v) = (e.u as usize, e.v as usize);
            let (p, q) = (&mut pa[u * k..(u + 1) * k], &mut qa[v * k..(v + 1) * k]);
            let err = kernel::sgd_step(p, q, e.r, gamma, 0.03, 0.05);
            sa += (err as f64) * (err as f64);
        }
        let sb = kernel::sgd_block_soa(&mut pb, &mut qb, k, soa.as_slices(), gamma, 0.03, 0.05);
        assert_eq!(sa, sb);
        assert_eq!(pa, pb);
        assert_eq!(qa, qb);
    });
}
