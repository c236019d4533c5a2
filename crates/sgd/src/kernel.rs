//! The inner SGD update (paper Eq. 3–6).
//!
//! This is the hottest code in the workspace. Every training seat — the
//! CPU workers and the simulated GPU, in virtual time and on real threads
//! — runs the one SoA block loop behind [`sgd_block_raw_soa`] (the GPU in
//! lane order). The per-rating callers (sequential Algorithm 1, the live
//! trainer, the oracles) use [`sgd_step`], which reaches the same step
//! function. Two implementations exist behind one dispatching front door:
//!
//! * **Monomorphized kernels** for the common latent dimensions
//!   ([`MONO_DIMS`]: k = 8, 16, 32, 64, 128). Each is a const-generic
//!   instantiation over `&[f32; K]`, so every loop has a compile-time trip
//!   count, no bounds checks survive, and the dot product runs on
//!   [`LANES`] split accumulators — breaking the floating-point add
//!   dependency chain that keeps a naive `sum()` serial — in exactly the
//!   shape LLVM autovectorizes (and fuses to FMA where the target has it).
//! * **A scalar reference path** ([`sgd_step_scalar`]) for every other
//!   `k`, written over exact-length `zip`s. It is also the semantic
//!   oracle the property tests compare the monomorphized kernels against.
//!
//! Dispatch is a single match on `k` per call — per *block* for the block
//! entry points, so the hot rating loop itself is fully monomorphic.
//!
//! The block level is one family over the structure-of-arrays layout
//! [`mf_sparse::GridPartition`] stores, six functions in all. One chain
//! is what the trainers run: [`sgd_block_raw_soa`] (raw factor pointers,
//! caller-guaranteed bounds and exclusivity — the entry behind
//! `SharedModel::sgd_block_exclusive`) matches on `k` and enters the
//! monomorphized body `sgd_block_raw_soa_mono`, which picks the SIMD
//! level's step once per block and hands it to the one rating loop,
//! `sgd_block_raw_soa_with`. Three checked wrappers sit on top for
//! slice-holding callers: [`sgd_block_soa`] (the same chain),
//! [`sgd_block_soa_at`] (the same body at a caller-chosen SIMD level,
//! for side-by-side tests) and [`sgd_block_soa_scalar`] (the loop over
//! [`sgd_step_scalar`] — the oracle). Each proves the block's ids and
//! stream lengths against its buffers before the raw loop runs.
//!
//! Note the monomorphized dot reduces in a different association order
//! than the scalar one, so results may differ from the reference in the
//! last ulps (within 1e-6 for unit-scale factors); both orders are valid
//! realizations of Eq. 6.

use mf_sparse::BlockSlices;

/// Latent dimensions with a dedicated monomorphized kernel. Every entry
/// must be a multiple of [`LANES`].
pub const MONO_DIMS: [usize; 5] = [8, 16, 32, 64, 128];

/// Generates the `k` match that routes a call to its monomorphized
/// instantiation — the single place the dispatchable dimensions are
/// spelled out as match arms. The `const` assertion below pins the arm
/// list to [`MONO_DIMS`], and the fallback arm debug-asserts the reverse
/// direction, so the two cannot drift apart silently.
macro_rules! dispatch_k {
    ($k:expr, $mono:ident($($args:expr),* $(,)?), $fallback:expr) => {
        match $k {
            8 => $mono::<8>($($args),*),
            16 => $mono::<16>($($args),*),
            32 => $mono::<32>($($args),*),
            64 => $mono::<64>($($args),*),
            128 => $mono::<128>($($args),*),
            k => {
                debug_assert!(
                    !crate::kernel::is_monomorphized(k),
                    "dimension {k} is in MONO_DIMS but has no dispatch arm"
                );
                $fallback
            }
        }
    };
}

pub(crate) use dispatch_k;

const _: () = assert!(
    matches!(MONO_DIMS, [8, 16, 32, 64, 128]),
    "MONO_DIMS changed: update the dispatch_k! match arms to match"
);

/// Split-accumulator width of the monomorphized dot product: eight
/// partial sums, enough independent chains to saturate two 4-wide (SSE)
/// or one 8-wide (AVX) FP pipe without spilling accumulator registers.
pub const LANES: usize = 8;

/// Whether `k` has a monomorphized kernel (dispatch would take the fast
/// path).
#[inline]
pub fn is_monomorphized(k: usize) -> bool {
    MONO_DIMS.contains(&k)
}

/// Dot product `p · q` over two `k`-vectors, dispatching to the
/// monomorphized kernel when `p.len()` is in [`MONO_DIMS`].
#[inline]
pub fn dot(p: &[f32], q: &[f32]) -> f32 {
    debug_assert_eq!(p.len(), q.len());
    dispatch_k!(p.len(), dot_mono_slices(p, q), dot_scalar(p, q))
}

/// Monomorphized dot front door: routes through the SIMD dispatch
/// ladder. Bit-identical at every [`crate::simd::SimdLevel`] — the SIMD
/// dot is association-pinned (see the `simd` module docs) — so callers
/// observe one result regardless of host or `MF_SIMD`.
#[inline(always)]
fn dot_mono_slices<const K: usize>(p: &[f32], q: &[f32]) -> f32 {
    crate::simd::dot_level::<K>(crate::simd::level(), p, q)
}

/// Slice-view adapter over [`dot_mono`] — the scalar-level body behind
/// the SIMD dispatch, and the oracle it is tested against.
#[inline(always)]
pub(crate) fn dot_mono_slices_scalar<const K: usize>(p: &[f32], q: &[f32]) -> f32 {
    dot_mono::<K>(
        p.try_into().expect("dispatch guarantees length K"),
        q.try_into().expect("dispatch guarantees length K"),
    )
}

/// The scalar reference dot product (sequential left-to-right sum).
#[inline]
pub fn dot_scalar(p: &[f32], q: &[f32]) -> f32 {
    debug_assert_eq!(p.len(), q.len());
    p.iter().zip(q).map(|(a, b)| a * b).sum()
}

/// Monomorphized dot product: [`LANES`] independent partial sums over
/// compile-time-length arrays, reduced by a tree at the end.
#[inline(always)]
fn dot_mono<const K: usize>(p: &[f32; K], q: &[f32; K]) -> f32 {
    const { assert!(K.is_multiple_of(LANES) && K > 0) };
    // Seed the accumulators with the first chunk's products instead of
    // zeros: at K == LANES (k = 8) the whole dot is then just the products
    // plus the tree reduction — same op count as the scalar chain but
    // depth log₂(8), not 7 — instead of paying LANES wasted adds.
    let mut acc = [0f32; LANES];
    let mut l = 0;
    while l < LANES {
        acc[l] = p[l] * q[l];
        l += 1;
    }
    let mut i = LANES;
    while i < K {
        let mut l = 0;
        while l < LANES {
            acc[l] += p[i + l] * q[i + l];
            l += 1;
        }
        i += LANES;
    }
    ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7]))
}

/// One SGD update for a single rating (Eq. 6):
///
/// ```text
/// e   = r − p·q
/// p  += γ (e·q − λ_P·p)
/// q  += γ (e·p − λ_Q·q)
/// ```
///
/// Returns the *pre-update* error `e`, which trainers accumulate for
/// streaming loss estimates. The update uses the pre-update `p` in the `q`
/// rule (and vice versa), matching Algorithm 1 exactly. Dispatches on
/// `p.len()` to a monomorphized kernel when one exists.
#[inline]
pub fn sgd_step(
    p: &mut [f32],
    q: &mut [f32],
    r: f32,
    gamma: f32,
    lambda_p: f32,
    lambda_q: f32,
) -> f32 {
    debug_assert_eq!(p.len(), q.len());
    dispatch_k!(
        p.len(),
        sgd_step_mono_dispatch(p, q, r, gamma, lambda_p, lambda_q),
        sgd_step_scalar(p, q, r, gamma, lambda_p, lambda_q)
    )
}

/// Monomorphized step front door: routes through the SIMD dispatch
/// ladder (`MF_SIMD`). The update is fused (FMA) on SIMD levels —
/// ulp-bounded against the scalar-level oracle, never bit-divergent in
/// the error term (the dot is association-pinned).
#[inline(always)]
fn sgd_step_mono_dispatch<const K: usize>(
    p: &mut [f32],
    q: &mut [f32],
    r: f32,
    gamma: f32,
    lambda_p: f32,
    lambda_q: f32,
) -> f32 {
    crate::simd::sgd_step_level::<K>(crate::simd::level(), p, q, r, gamma, lambda_p, lambda_q)
}

/// The scalar reference update — any `k`, exact-length `zip` loops.
#[inline]
pub fn sgd_step_scalar(
    p: &mut [f32],
    q: &mut [f32],
    r: f32,
    gamma: f32,
    lambda_p: f32,
    lambda_q: f32,
) -> f32 {
    debug_assert_eq!(p.len(), q.len());
    let e = r - dot_scalar(p, q);
    let ge = gamma * e;
    let glp = gamma * lambda_p;
    let glq = gamma * lambda_q;
    for (pi, qi) in p.iter_mut().zip(q.iter_mut()) {
        let pv = *pi;
        let qv = *qi;
        *pi = pv + ge * qv - glp * pv;
        *qi = qv + ge * pv - glq * qv;
    }
    e
}

/// Monomorphized fused update over `&[f32; K]` views: compile-time trip
/// counts, no bounds checks, fully unrollable by LLVM. This is the
/// scalar-level body behind the SIMD dispatch — the oracle the fused
/// kernels are pinned against.
#[inline(always)]
pub(crate) fn sgd_step_mono<const K: usize>(
    p: &mut [f32],
    q: &mut [f32],
    r: f32,
    gamma: f32,
    lambda_p: f32,
    lambda_q: f32,
) -> f32 {
    let p: &mut [f32; K] = p.try_into().expect("dispatch guarantees length K");
    let q: &mut [f32; K] = q.try_into().expect("dispatch guarantees length K");
    let e = r - dot_mono::<K>(p, q);
    let ge = gamma * e;
    let glp = gamma * lambda_p;
    let glq = gamma * lambda_q;
    let mut i = 0;
    while i < K {
        let pv = p[i];
        let qv = q[i];
        p[i] = pv + ge * qv - glp * pv;
        q[i] = qv + ge * pv - glq * qv;
        i += 1;
    }
    e
}

/// One fixed-`Q` SGD update — the fold-in primitive. Only `p` moves:
///
/// ```text
/// e   = r − p·q
/// p  += γ (e·q − λ_P·p)
/// ```
///
/// With `q` held constant this is plain SGD on the convex single-row
/// least-squares problem `min_p Σ (r − p·q)² + λ_P·|p|²`, which is what
/// admits a new user into a trained model without retraining (see
/// `mf-serve::foldin`). Returns the pre-update error `e`. Shares the
/// dispatching [`dot`], so the dimension fast path applies here too.
#[inline]
pub fn sgd_step_fixed_q(p: &mut [f32], q: &[f32], r: f32, gamma: f32, lambda_p: f32) -> f32 {
    debug_assert_eq!(p.len(), q.len());
    dispatch_k!(
        p.len(),
        sgd_step_fixed_q_mono(p, q, r, gamma, lambda_p),
        sgd_step_fixed_q_ref(p, q, r, gamma, lambda_p)
    )
}

#[inline(always)]
fn sgd_step_fixed_q_mono<const K: usize>(
    p: &mut [f32],
    q: &[f32],
    r: f32,
    gamma: f32,
    lambda_p: f32,
) -> f32 {
    crate::simd::sgd_step_fixed_q_level::<K>(crate::simd::level(), p, q, r, gamma, lambda_p)
}

/// The portable fixed-`Q` body — the scalar-level path behind the SIMD
/// dispatch, and the fallback for dimensions outside [`MONO_DIMS`].
#[inline]
pub(crate) fn sgd_step_fixed_q_ref(
    p: &mut [f32],
    q: &[f32],
    r: f32,
    gamma: f32,
    lambda_p: f32,
) -> f32 {
    let e = r - dot(p, q);
    let ge = gamma * e;
    let glp = gamma * lambda_p;
    // Same expression shape as `sgd_step`'s p rule, so a fixed-Q step
    // moves p bitwise-identically to the full step on equal inputs.
    for (pi, &qi) in p.iter_mut().zip(q) {
        let pv = *pi;
        *pi = pv + ge * qi - glp * pv;
    }
    e
}

/// One fixed-`P` SGD update: the [`sgd_step_fixed_q`] mirror for folding
/// in a new *item* against frozen user factors. Only `q` moves.
#[inline]
pub fn sgd_step_fixed_p(p: &[f32], q: &mut [f32], r: f32, gamma: f32, lambda_q: f32) -> f32 {
    debug_assert_eq!(p.len(), q.len());
    dispatch_k!(
        p.len(),
        sgd_step_fixed_p_mono(p, q, r, gamma, lambda_q),
        sgd_step_fixed_p_ref(p, q, r, gamma, lambda_q)
    )
}

#[inline(always)]
fn sgd_step_fixed_p_mono<const K: usize>(
    p: &[f32],
    q: &mut [f32],
    r: f32,
    gamma: f32,
    lambda_q: f32,
) -> f32 {
    crate::simd::sgd_step_fixed_p_level::<K>(crate::simd::level(), p, q, r, gamma, lambda_q)
}

/// The portable fixed-`P` body (the [`sgd_step_fixed_q_ref`] mirror).
#[inline]
pub(crate) fn sgd_step_fixed_p_ref(
    p: &[f32],
    q: &mut [f32],
    r: f32,
    gamma: f32,
    lambda_q: f32,
) -> f32 {
    let e = r - dot(p, q);
    let ge = gamma * e;
    let glq = gamma * lambda_q;
    for (&pi, qi) in p.iter().zip(q.iter_mut()) {
        let qv = *qi;
        *qi = qv + ge * pi - glq * qv;
    }
    e
}

/// Panics unless `block`'s three streams share one length and every
/// user/item id in it addresses a whole `k`-row inside a `p_len`/`q_len`
/// buffer — the part of the raw block contract a safe caller could
/// otherwise break ([`BlockSlices`] has public fields). Two `u32`
/// max-reductions per block; the trainers' raw entry skips it.
fn assert_block_in_bounds(p_len: usize, q_len: usize, k: usize, block: BlockSlices<'_>) {
    let n = block.rows.len();
    assert!(
        block.cols.len() == n && block.vals.len() == n,
        "block streams differ in length: {n} rows, {} cols, {} vals",
        block.cols.len(),
        block.vals.len()
    );
    // `(max + 1) · k ≤ len` without the overflow: `max < len / k`.
    // (`fold` over `u32::max`, not `Iterator::max`: the latter's
    // last-of-equals rule keeps the reduction from vectorizing.)
    let fits = |ids: &[u32], len: usize| {
        let max = ids.iter().fold(0, |m, &id| m.max(id));
        ids.is_empty() || k == 0 || (max as usize) < len / k
    };
    assert!(fits(block.rows, p_len), "user id past the end of P");
    assert!(fits(block.cols, q_len), "item id past the end of Q");
}

/// Applies [`sgd_step`] to every rating of a structure-of-arrays block —
/// the layout [`mf_sparse::GridPartition`] stores — with factors fetched
/// from the full `p`/`q` buffers (`k` floats per row). Returns the sum
/// of squared pre-update errors, used for streaming loss monitoring.
/// The `k` dispatch happens once per block, so the rating loop is
/// monomorphic; it reads three unit-stride streams.
///
/// # Panics
///
/// Panics if the block's streams differ in length or an id in it lies
/// past the end of its factor buffer.
#[inline]
pub fn sgd_block_soa(
    p: &mut [f32],
    q: &mut [f32],
    k: usize,
    block: BlockSlices<'_>,
    gamma: f32,
    lambda_p: f32,
    lambda_q: f32,
) -> f64 {
    assert_block_in_bounds(p.len(), q.len(), k, block);
    // SAFETY: `p`/`q` are exclusive borrows, and the assert above proved
    // equal stream lengths and every row inside them.
    unsafe {
        sgd_block_raw_soa(
            p.as_mut_ptr(),
            q.as_mut_ptr(),
            k,
            block,
            gamma,
            lambda_p,
            lambda_q,
        )
    }
}

/// The scalar reference SoA block loop — [`sgd_step_scalar`] per rating.
/// Panics like [`sgd_block_soa`].
#[inline]
pub fn sgd_block_soa_scalar(
    p: &mut [f32],
    q: &mut [f32],
    k: usize,
    block: BlockSlices<'_>,
    gamma: f32,
    lambda_p: f32,
    lambda_q: f32,
) -> f64 {
    assert_block_in_bounds(p.len(), q.len(), k, block);
    // SAFETY: as in `sgd_block_soa`.
    unsafe {
        sgd_block_raw_soa_with(
            p.as_mut_ptr(),
            q.as_mut_ptr(),
            k,
            block,
            gamma,
            lambda_p,
            lambda_q,
            sgd_step_scalar,
        )
    }
}

/// SoA block update over raw factor pointers — the disjoint-region fast
/// path used by [`crate::shared::SharedModel::sgd_block_exclusive`].
/// Dispatches once per block.
///
/// # Safety
///
/// For the duration of the call, `p`/`q` must point to buffers of at
/// least `(max u + 1) · k` / `(max v + 1) · k` floats over the
/// users/items in `block`, the block's three streams must share one
/// length, and no other thread may access the factor rows of any user
/// or item appearing in `block`.
#[inline]
pub unsafe fn sgd_block_raw_soa(
    p: *mut f32,
    q: *mut f32,
    k: usize,
    block: BlockSlices<'_>,
    gamma: f32,
    lambda_p: f32,
    lambda_q: f32,
) -> f64 {
    dispatch_k!(
        k,
        sgd_block_raw_soa_mono(crate::simd::level(), p, q, block, gamma, lambda_p, lambda_q),
        unsafe {
            sgd_block_raw_soa_with(p, q, k, block, gamma, lambda_p, lambda_q, sgd_step_scalar)
        }
    )
}

/// Monomorphized SoA raw-pointer block loop at SIMD `level` (inherits
/// the [`sgd_block_raw_soa`] safety contract). The step is picked once
/// per block, outside the rating loop; the scalar level keeps the
/// directly-inlined mono step (no fn-pointer indirection on the oracle
/// path, which is also the production path off x86).
#[inline(always)]
unsafe fn sgd_block_raw_soa_mono<const K: usize>(
    level: crate::simd::SimdLevel,
    p: *mut f32,
    q: *mut f32,
    block: BlockSlices<'_>,
    gamma: f32,
    lambda_p: f32,
    lambda_q: f32,
) -> f64 {
    if level == crate::simd::SimdLevel::Scalar {
        return unsafe {
            sgd_block_raw_soa_with(
                p,
                q,
                K,
                block,
                gamma,
                lambda_p,
                lambda_q,
                sgd_step_mono::<K>,
            )
        };
    }
    let step = crate::simd::step_fn::<K>(level);
    unsafe { sgd_block_raw_soa_with(p, q, K, block, gamma, lambda_p, lambda_q, step) }
}

/// [`sgd_block_soa`] pinned to a SIMD dispatch level (clamped to the
/// host) — the test surface that lets one process compare every
/// reachable level side by side without re-exec'ing under different
/// `MF_SIMD` values. Panics like [`sgd_block_soa`].
#[allow(clippy::too_many_arguments)]
pub fn sgd_block_soa_at(
    level: crate::simd::SimdLevel,
    p: &mut [f32],
    q: &mut [f32],
    k: usize,
    block: BlockSlices<'_>,
    gamma: f32,
    lambda_p: f32,
    lambda_q: f32,
) -> f64 {
    assert_block_in_bounds(p.len(), q.len(), k, block);
    let (p, q) = (p.as_mut_ptr(), q.as_mut_ptr());
    // SAFETY: as in `sgd_block_soa`.
    unsafe {
        dispatch_k!(
            k,
            sgd_block_raw_soa_mono(level, p, q, block, gamma, lambda_p, lambda_q),
            sgd_block_raw_soa_with(p, q, k, block, gamma, lambda_p, lambda_q, sgd_step_scalar)
        )
    }
}

/// How many entries ahead the SoA block loop prefetches the factor rows.
/// Far enough to cover an L3 miss at ~10k-flop update granularity, near
/// enough that the prefetched lines survive until use.
const SOA_PREFETCH_AHEAD: usize = 8;

/// Best-effort prefetch of the cache line at `ptr` into all levels.
#[inline(always)]
fn prefetch_read_f32(ptr: *const f32) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint — it never faults, even on invalid
    // addresses.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(ptr as *const i8)
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = ptr;
}

/// Shared SoA raw-pointer block loop, parameterized over the per-rating
/// step. The counted loop keeps the three streams in lockstep with no
/// bounds checks, and the unit-stride index streams make row lookahead
/// free: while entry `i` computes, the factor rows of entry
/// `i + SOA_PREFETCH_AHEAD` are prefetched — the random-access row
/// fetches that dominate the AoS loop's stalls on large models. (An AoS
/// loop can peek ahead too, but must drag whole 12-byte entries through
/// the load pipe to do it; here the peek reads two dense `u32` lanes.)
///
/// # Safety
///
/// Same contract as [`sgd_block_raw_soa`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn sgd_block_raw_soa_with(
    p: *mut f32,
    q: *mut f32,
    k: usize,
    block: BlockSlices<'_>,
    gamma: f32,
    lambda_p: f32,
    lambda_q: f32,
    step: impl Fn(&mut [f32], &mut [f32], f32, f32, f32, f32) -> f32,
) -> f64 {
    let (rows, cols, vals) = (block.rows, block.cols, block.vals);
    let n = block.len();
    let mut sq_err = 0f64;
    // Prefetch pays for itself once a factor row covers at least a full
    // cache line; below that (k = 8: 32-byte rows) the two prefetch
    // instructions are pure overhead on an 85-flop iteration, so the
    // small-row branch takes the leaner fused-zip loop instead. `k` is a
    // monomorphization constant on the mono path, so the branch folds
    // away.
    if k * std::mem::size_of::<f32>() >= 64 {
        // Rows span multiple cache lines past k = 16; prefetching only
        // the first line left the remaining lines to demand misses —
        // measurably inverting the SoA-vs-AoS advantage at k = 64
        // (4-line rows) in the committed kernel table. Cover the whole
        // row up to 4 lines; `k` is a monomorphization constant on the
        // mono path, so the line count folds into straight-line code.
        let lines = (k * std::mem::size_of::<f32>() / 64).clamp(1, 4);
        for i in 0..n {
            if i + SOA_PREFETCH_AHEAD < n {
                // SAFETY: `i + SOA_PREFETCH_AHEAD < n` and the three
                // slices share length `n` (BlockSlices invariant).
                let (u2, v2) = unsafe {
                    (
                        *rows.get_unchecked(i + SOA_PREFETCH_AHEAD) as usize,
                        *cols.get_unchecked(i + SOA_PREFETCH_AHEAD) as usize,
                    )
                };
                for l in 0..lines {
                    prefetch_read_f32(p.wrapping_add(u2 * k + l * 16) as *const f32);
                    prefetch_read_f32(q.wrapping_add(v2 * k + l * 16) as *const f32);
                }
            }
            // SAFETY: `i < n`; factor rows are in bounds and exclusively
            // ours (caller contract).
            let (u, v, r) = unsafe {
                (
                    *rows.get_unchecked(i) as usize,
                    *cols.get_unchecked(i) as usize,
                    *vals.get_unchecked(i),
                )
            };
            let pu = unsafe { std::slice::from_raw_parts_mut(p.add(u * k), k) };
            let qv = unsafe { std::slice::from_raw_parts_mut(q.add(v * k), k) };
            let err = step(pu, qv, r, gamma, lambda_p, lambda_q);
            sq_err += (err as f64) * (err as f64);
        }
    } else {
        for ((&u, &v), &r) in rows.iter().zip(cols).zip(vals) {
            // SAFETY: factor rows are in bounds and exclusively ours
            // (caller contract).
            let pu = unsafe { std::slice::from_raw_parts_mut(p.add(u as usize * k), k) };
            let qv = unsafe { std::slice::from_raw_parts_mut(q.add(v as usize * k), k) };
            let err = step(pu, qv, r, gamma, lambda_p, lambda_q);
            sq_err += (err as f64) * (err as f64);
        }
    }
    sq_err
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_sparse::Rating;

    #[test]
    fn dot_product() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn mono_dot_matches_scalar() {
        for &k in &MONO_DIMS {
            let p: Vec<f32> = (0..k).map(|i| 0.1 + 0.01 * i as f32).collect();
            let q: Vec<f32> = (0..k).map(|i| 0.9 - 0.005 * i as f32).collect();
            let fast = dot(&p, &q);
            let slow = dot_scalar(&p, &q);
            assert!(
                (fast - slow).abs() < 1e-4,
                "k={k}: mono {fast} vs scalar {slow}"
            );
        }
    }

    #[test]
    fn mono_step_matches_scalar_reference() {
        for &k in &MONO_DIMS {
            // Unit-scale factors (entries ~ 1/√k, like a real model init),
            // so dot products stay O(1) and the association-order drift of
            // the split-accumulator sum stays within a few f32 ulps.
            let s = 1.0 / (k as f32).sqrt();
            let p0: Vec<f32> = (0..k).map(|i| (0.3 + 0.002 * i as f32) * s).collect();
            let q0: Vec<f32> = (0..k).map(|i| (0.7 - 0.003 * i as f32) * s).collect();
            let (mut pa, mut qa) = (p0.clone(), q0.clone());
            let (mut pb, mut qb) = (p0, q0);
            let ea = sgd_step(&mut pa, &mut qa, 3.5, 0.01, 0.05, 0.07);
            let eb = sgd_step_scalar(&mut pb, &mut qb, 3.5, 0.01, 0.05, 0.07);
            assert!((ea - eb).abs() < 1e-5, "k={k}: error {ea} vs {eb}");
            for i in 0..k {
                assert!((pa[i] - pb[i]).abs() < 1e-6, "k={k} p[{i}]");
                assert!((qa[i] - qb[i]).abs() < 1e-6, "k={k} q[{i}]");
            }
        }
    }

    #[test]
    fn step_matches_hand_computation() {
        // k=2, p=(1, 0), q=(0.5, 0.5), r=2, γ=0.1, λp=0.1, λq=0.2
        let mut p = vec![1.0f32, 0.0];
        let mut q = vec![0.5f32, 0.5];
        let e = sgd_step(&mut p, &mut q, 2.0, 0.1, 0.1, 0.2);
        // e = 2 − 0.5 = 1.5
        assert!((e - 1.5).abs() < 1e-6);
        // p0 = 1 + 0.1·(1.5·0.5 − 0.1·1)   = 1.065
        // p1 = 0 + 0.1·(1.5·0.5 − 0)       = 0.075
        // q0 = 0.5 + 0.1·(1.5·1 − 0.2·0.5) = 0.64
        // q1 = 0.5 + 0.1·(1.5·0 − 0.2·0.5) = 0.49
        assert!((p[0] - 1.065).abs() < 1e-6);
        assert!((p[1] - 0.075).abs() < 1e-6);
        assert!((q[0] - 0.64).abs() < 1e-6);
        assert!((q[1] - 0.49).abs() < 1e-6);
    }

    #[test]
    fn step_direction_matches_numerical_gradient() {
        // The analytic update must agree with a finite-difference gradient
        // of the pointwise loss L = (r − p·q)² + λp·|p|² + λq·|q|².
        let k = 4;
        let p0: Vec<f32> = (0..k).map(|i| 0.3 + 0.1 * i as f32).collect();
        let q0: Vec<f32> = (0..k).map(|i| 0.7 - 0.1 * i as f32).collect();
        let (r, lp, lq) = (2.5f32, 0.05f32, 0.07f32);
        let loss = |p: &[f32], q: &[f32]| -> f64 {
            let e = r - dot(p, q);
            let np: f32 = p.iter().map(|x| x * x).sum();
            let nq: f32 = q.iter().map(|x| x * x).sum();
            (e * e + lp * np + lq * nq) as f64
        };
        let h = 1e-3f32;
        let gamma = 1e-4f32;
        let mut p = p0.clone();
        let mut q = q0.clone();
        sgd_step(&mut p, &mut q, r, gamma, lp, lq);
        for i in 0..k {
            // Numerical ∂L/∂p_i.
            let mut pp = p0.clone();
            pp[i] += h;
            let mut pm = p0.clone();
            pm[i] -= h;
            let grad = (loss(&pp, &q0) - loss(&pm, &q0)) / (2.0 * h as f64);
            // sgd_step moved p_i by −γ/2 · ∂L/∂p_i (the paper folds the
            // factor 2 of Eq. 4 into γ; both conventions minimize L).
            let moved = (p[i] - p0[i]) as f64;
            let expected = -(gamma as f64) * grad / 2.0;
            assert!(
                (moved - expected).abs() < 1e-6,
                "i={i}: moved {moved:.3e} expected {expected:.3e}"
            );
        }
    }

    #[test]
    fn repeated_steps_reduce_pointwise_error() {
        let mut p = vec![0.1f32; 8];
        let mut q = vec![0.1f32; 8];
        let mut last = f32::INFINITY;
        for _ in 0..200 {
            let e = sgd_step(&mut p, &mut q, 3.0, 0.05, 0.01, 0.01).abs();
            assert!(e <= last + 1e-3, "error should shrink: {e} > {last}");
            last = e;
        }
        assert!(
            last < 0.05,
            "should converge close to the target, got {last}"
        );
    }

    #[test]
    fn fixed_q_step_matches_full_step_on_p() {
        // With the same inputs, the fixed-Q update must move p exactly as
        // the full step does (the full step uses pre-update p in the q
        // rule, so p's own update is independent of whether q moves).
        let k = 8;
        let s = 1.0 / (k as f32).sqrt();
        let p0: Vec<f32> = (0..k).map(|i| (0.3 + 0.01 * i as f32) * s).collect();
        let q0: Vec<f32> = (0..k).map(|i| (0.8 - 0.02 * i as f32) * s).collect();
        let (mut pa, mut qa) = (p0.clone(), q0.clone());
        let mut pb = p0;
        let ea = sgd_step(&mut pa, &mut qa, 2.5, 0.05, 0.02, 0.03);
        let eb = sgd_step_fixed_q(&mut pb, &q0, 2.5, 0.05, 0.02);
        assert_eq!(ea, eb);
        assert_eq!(pa, pb);
        assert_ne!(qa, q0, "full step should have moved q");
    }

    #[test]
    fn fixed_p_step_matches_full_step_on_q() {
        let k = 16;
        let s = 1.0 / (k as f32).sqrt();
        let p0: Vec<f32> = (0..k).map(|i| (0.4 + 0.02 * i as f32) * s).collect();
        let q0: Vec<f32> = (0..k).map(|i| (0.6 - 0.01 * i as f32) * s).collect();
        let (mut pa, mut qa) = (p0.clone(), q0.clone());
        let mut qb = q0;
        let ea = sgd_step(&mut pa, &mut qa, 3.0, 0.04, 0.02, 0.05);
        let eb = sgd_step_fixed_p(&p0, &mut qb, 3.0, 0.04, 0.05);
        assert_eq!(ea, eb);
        assert_eq!(qa, qb);
    }

    #[test]
    fn fixed_q_steps_converge_to_least_squares() {
        // Single rating, k=1: the minimizer of (r − p·q)² + λp² is
        // p* = r·q / (q² + λ). Repeated fixed-Q steps must approach it.
        let (r, q, lambda) = (4.0f32, 0.8f32, 0.1f32);
        let mut p = vec![0.0f32];
        for _ in 0..500 {
            sgd_step_fixed_q(&mut p, &[q], r, 0.1, lambda);
        }
        let expect = r * q / (q * q + lambda);
        assert!((p[0] - expect).abs() < 1e-4, "p={} expect={expect}", p[0]);
    }

    #[test]
    fn block_update_accumulates_squared_error() {
        let k = 2;
        let mut p = vec![0.0f32; 2 * k];
        let mut q = vec![0.0f32; 2 * k];
        let block = BlockSlices::new(&[0, 1], &[0, 1], &[1.0, 2.0]);
        let sq = sgd_block_soa(&mut p, &mut q, k, block, 0.1, 0.0, 0.0);
        // With zero-initialized factors, e = r for both entries.
        assert!((sq - (1.0 + 4.0)).abs() < 1e-9);
    }

    #[test]
    fn mono_block_matches_scalar_block() {
        use mf_sparse::SoaRatings;
        for &k in &MONO_DIMS {
            let users = 4u32;
            let items = 5u32;
            let scale = 1.0 / (k as f32).sqrt();
            let init = |n: usize, s: f32| -> Vec<f32> {
                (0..n)
                    .map(|i| (s + 0.001 * (i % 97) as f32) * scale)
                    .collect()
            };
            let block: Vec<Rating> = (0..40)
                .map(|i| Rating::new(i % users, (i * 3) % items, 1.0 + (i % 5) as f32))
                .collect();
            let soa = SoaRatings::from_entries(&block);
            let mut pa = init(users as usize * k, 0.2);
            let mut qa = init(items as usize * k, 0.3);
            let mut pb = pa.clone();
            let mut qb = qa.clone();
            let sa = sgd_block_soa(&mut pa, &mut qa, k, soa.as_slices(), 0.01, 0.02, 0.03);
            let sb = sgd_block_soa_scalar(&mut pb, &mut qb, k, soa.as_slices(), 0.01, 0.02, 0.03);
            assert!((sa - sb).abs() < 1e-4, "k={k}: {sa} vs {sb}");
            for (a, b) in pa.iter().zip(&pb) {
                assert!((a - b).abs() < 1e-5, "k={k} P drift");
            }
            for (a, b) in qa.iter().zip(&qb) {
                assert!((a - b).abs() < 1e-5, "k={k} Q drift");
            }
        }
    }

    #[test]
    fn soa_block_matches_per_rating_steps_bitwise() {
        use mf_sparse::SoaRatings;
        // The block loop is an execution strategy over `sgd_step`, not
        // new arithmetic: it must agree bit for bit with stepping the
        // same ratings one by one, on mono and scalar dims alike.
        for k in [8usize, 16, 12, 5, 128] {
            let users = 7u32;
            let items = 9u32;
            let scale = 1.0 / (k as f32).sqrt();
            let block: Vec<Rating> = (0..60)
                .map(|i| Rating::new(i % users, (i * 7) % items, 1.0 + (i % 4) as f32))
                .collect();
            let soa = SoaRatings::from_entries(&block);
            let init = |s: f32, n: usize| -> Vec<f32> {
                (0..n)
                    .map(|i| (s + 0.003 * (i % 31) as f32) * scale)
                    .collect()
            };
            let mut pa = init(0.4, users as usize * k);
            let mut qa = init(0.6, items as usize * k);
            let mut pb = pa.clone();
            let mut qb = qa.clone();
            let mut stepped = 0f64;
            for e in &block {
                let (u, v) = (e.u as usize, e.v as usize);
                let err = sgd_step(
                    &mut pa[u * k..(u + 1) * k],
                    &mut qa[v * k..(v + 1) * k],
                    e.r,
                    0.02,
                    0.01,
                    0.03,
                );
                stepped += (err as f64) * (err as f64);
            }
            let soa_sq = sgd_block_soa(&mut pb, &mut qb, k, soa.as_slices(), 0.02, 0.01, 0.03);
            assert_eq!(stepped, soa_sq, "k={k} squared error");
            assert_eq!(pa, pb, "k={k} P");
            assert_eq!(qa, qb, "k={k} Q");
        }
    }

    #[test]
    #[should_panic(expected = "user id past the end of P")]
    fn safe_block_entry_rejects_out_of_range_id() {
        let mut p = vec![0.1f32; 16];
        let mut q = vec![0.1f32; 16];
        let block = BlockSlices {
            rows: &[u32::MAX],
            cols: &[0],
            vals: &[0.0],
        };
        sgd_block_soa(&mut p, &mut q, 16, block, 0.01, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "block streams differ in length")]
    fn safe_block_entry_rejects_unequal_streams() {
        let mut p = vec![0.1f32; 32];
        let mut q = vec![0.1f32; 32];
        // Nine rows against one col and one val: the prefetching loop
        // (k = 16) would read eight entries past both short streams.
        let block = BlockSlices {
            rows: &[0; 9],
            cols: &[0],
            vals: &[0.0],
        };
        sgd_block_soa(&mut p, &mut q, 16, block, 0.01, 0.0, 0.0);
    }

    #[test]
    fn oracle_and_level_pinned_entries_check_too() {
        // The same two shapes through the other two safe entries, on a
        // mono (16) and a fallback (5) dimension.
        let bad_id = BlockSlices {
            rows: &[0],
            cols: &[2],
            vals: &[1.0],
        };
        let short = BlockSlices {
            rows: &[0, 1],
            cols: &[0, 1],
            vals: &[1.0],
        };
        for k in [16usize, 5] {
            for block in [bad_id, short] {
                let refused = |entry: fn(&mut [f32], &mut [f32], usize, BlockSlices<'_>) -> f64| {
                    let (mut p, mut q) = (vec![0.1f32; 2 * k], vec![0.1f32; 2 * k]);
                    std::panic::catch_unwind(move || entry(&mut p, &mut q, k, block)).is_err()
                };
                assert!(refused(|p, q, k, b| sgd_block_soa_scalar(
                    p, q, k, b, 0.01, 0.0, 0.0
                )));
                assert!(refused(|p, q, k, b| {
                    sgd_block_soa_at(crate::simd::level(), p, q, k, b, 0.01, 0.0, 0.0)
                }));
            }
        }
    }
}
