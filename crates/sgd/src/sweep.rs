//! Serving-side sweep micro-kernels: many queries × many item rows.
//!
//! Training's [`crate::kernel`] is one-pair-at-a-time — exactly right for
//! SGD, exactly wrong for batched top-k serving, where the hot loop wants
//! to stream each item tile through the core **once per query batch**
//! instead of once per query. This module provides that GEMM-shaped
//! primitive: [`dot_panel`] scores a *panel* of up to [`PANEL_W`] query
//! factors against a run of item rows in a single pass over the rows.
//!
//! Two properties drive the design:
//!
//! * **Bit-identity.** Each per-query dot must equal
//!   [`kernel::dot`](crate::kernel::dot) *bit for bit*, because
//!   `mf-serve` promises batched answers identical to the serial scan
//!   (and, transitively, to `Model::recommend`). The panel kernel
//!   therefore replicates the monomorphized kernel's exact association
//!   order — [`LANES`] split accumulators seeded with the first chunk's
//!   products, then the same fixed reduction tree — just *vectorized
//!   across queries* instead of across the latent dimension: lane `l`'s
//!   partial sum for query `w` sees the same operands in the same order
//!   as `dot_mono`'s `acc[l]`, and the final tree reduce becomes
//!   [`PANEL_W`]-wide vector adds with no horizontal step at all. For
//!   dimensions without a monomorphized kernel the fallback reproduces
//!   `dot_scalar`'s sequential left-to-right sum per query.
//! * **Runtime ISA dispatch.** The workspace builds for baseline x86-64
//!   (SSE2). A batched sweep is compute-bound, so the panel kernel runs
//!   on the [`crate::simd`] dispatch ladder — explicit AVX-512F / AVX2
//!   intrinsic kernels behind a one-time `is_x86_feature_detected!`
//!   probe (`MF_SIMD`-overridable), with `dot_panel_body` as the
//!   portable level. The wider kernels change *throughput only*: every
//!   level performs the same scalar IEEE multiplies and adds in the
//!   same order, so the bits never depend on the machine. (`fma` is
//!   deliberately **never used** in a dot: fused multiply-add contracts
//!   `a*b + c` into one differently-rounded op, which would break
//!   bit-identity with the training kernel.)
//!
//! The panel layout is column-major — `panel[j * PANEL_W + w]` holds
//! coordinate `j` of query `w` — so the inner loop broadcasts one item
//! coordinate against a contiguous 16-query vector. At `PANEL_W = 16`
//! one accumulator row is exactly one AVX-512 register (or two AVX2
//! registers), and the whole `LANES × PANEL_W` accumulator block stays
//! register-resident through a row.
//!
//! [`total_key`] / [`panel_max_keys`] support the consumer's top-k
//! maintenance: a monotone integer image of `f32::total_cmp` lets the
//! serving sweep reject a whole chunk of scores per query with a single
//! integer compare against the query's current k-th best.
//!
//! [`f16_round`] / [`f16_bits`] / [`f16_from_bits`] are the IEEE binary16
//! codec: the f16 serving store keeps item rows as `u16` bits and decodes
//! them into the sweep.

use crate::kernel::{dispatch_k, LANES};

/// Queries per panel. 16 f32 lanes = one AVX-512 register (two AVX2),
/// so the `LANES × PANEL_W` accumulator block is 8 zmm / 16 ymm
/// registers — the whole register file, none spilled.
pub const PANEL_W: usize = 16;

/// Packs up to [`PANEL_W`] query factor vectors (each of length `k`)
/// into a column-major panel, zero-filling unused lanes. Zero lanes
/// produce all-zero scores and cost nothing extra — the kernel always
/// runs all [`PANEL_W`] lanes.
///
/// # Panics
///
/// Panics if more than [`PANEL_W`] queries are given or any factor has
/// length ≠ `k`.
pub fn pack_panel(queries: &[&[f32]], k: usize, panel: &mut Vec<f32>) {
    assert!(
        queries.len() <= PANEL_W,
        "panel holds at most {PANEL_W} queries, got {}",
        queries.len()
    );
    panel.clear();
    panel.resize(k * PANEL_W, 0.0);
    for (w, q) in queries.iter().enumerate() {
        assert_eq!(q.len(), k, "query {w} has wrong dimension");
        for j in 0..k {
            panel[j * PANEL_W + w] = q[j];
        }
    }
}

/// Scores a packed query panel against `rows.len() / k` item rows:
/// `out[i * PANEL_W + w] = panel-query w · row i`, bit-identical per
/// query to [`crate::kernel::dot`] on the same pair.
///
/// `panel` must be `k × PANEL_W` (see [`pack_panel`]), `rows` a
/// row-major `n × k` run of item factors, `out` an `n × PANEL_W`
/// scratch. Dispatches per call: monomorphized + ISA-specialized for
/// the [`crate::kernel::MONO_DIMS`] dimensions, a scalar-order fallback for
/// the rest.
///
/// # Panics
///
/// Panics if the slice lengths are inconsistent or `k == 0`.
pub fn dot_panel(panel: &[f32], k: usize, rows: &[f32], out: &mut [f32]) {
    dot_panel_at(crate::simd::level(), panel, k, rows, out)
}

/// [`dot_panel`] pinned to a SIMD dispatch level (clamped to the host)
/// — the test surface for exercising every reachable level in one
/// process. All levels produce the same bits per query lane; only
/// throughput differs.
///
/// # Panics
///
/// Panics under the same conditions as [`dot_panel`].
pub fn dot_panel_at(
    level: crate::simd::SimdLevel,
    panel: &[f32],
    k: usize,
    rows: &[f32],
    out: &mut [f32],
) {
    assert!(k > 0, "k must be positive");
    assert_eq!(panel.len(), k * PANEL_W, "panel must be k × PANEL_W");
    assert!(rows.len().is_multiple_of(k), "rows must be n × k");
    let n = rows.len() / k;
    assert_eq!(out.len(), n * PANEL_W, "out must be n × PANEL_W");
    dispatch_k!(
        k,
        dot_panel_level_k(level, panel, rows, out),
        dot_panel_any(panel, k, rows, out)
    )
}

/// Monomorphized adapter over [`crate::simd::dot_panel_level`] for the
/// dispatch macro.
#[inline(always)]
fn dot_panel_level_k<const K: usize>(
    level: crate::simd::SimdLevel,
    panel: &[f32],
    rows: &[f32],
    out: &mut [f32],
) {
    crate::simd::dot_panel_level::<K>(level, panel, rows, out)
}

/// The portable kernel body — the scalar level of the SIMD dispatch in
/// [`crate::simd::dot_panel_level`], and the oracle the explicit
/// AVX2/AVX-512 panel kernels are pinned against.
///
/// Per query `w` this performs *exactly* `dot_mono`'s arithmetic:
/// `acc[l]` is seeded with chunk-0 products and accumulates chunk by
/// chunk, and the final reduction uses the same fixed tree — only the
/// iteration is restructured so each scalar of `acc` lives in a vector
/// register shared with 15 other queries.
#[inline(always)]
pub(crate) fn dot_panel_body<const K: usize>(panel: &[f32], rows: &[f32], out: &mut [f32]) {
    const { assert!(K.is_multiple_of(LANES) && K > 0) };
    let n = out.len() / PANEL_W;
    for i in 0..n {
        let row: &[f32; K] = rows[i * K..(i + 1) * K]
            .try_into()
            .expect("caller checked lengths");
        let mut acc = [[0f32; PANEL_W]; LANES];
        // Seed with the first chunk's products (dot_mono's zero-add
        // elision), vectorized across the panel.
        for l in 0..LANES {
            let col = &panel[l * PANEL_W..(l + 1) * PANEL_W];
            let r = row[l];
            for w in 0..PANEL_W {
                acc[l][w] = col[w] * r;
            }
        }
        let mut j = LANES;
        while j < K {
            for l in 0..LANES {
                let col = &panel[(j + l) * PANEL_W..(j + l + 1) * PANEL_W];
                let r = row[j + l];
                for w in 0..PANEL_W {
                    acc[l][w] += col[w] * r;
                }
            }
            j += LANES;
        }
        let o = &mut out[i * PANEL_W..(i + 1) * PANEL_W];
        for w in 0..PANEL_W {
            // dot_mono's exact reduction tree, per panel lane.
            o[w] = ((acc[0][w] + acc[4][w]) + (acc[1][w] + acc[5][w]))
                + ((acc[2][w] + acc[6][w]) + (acc[3][w] + acc[7][w]));
        }
    }
}

/// Fallback for dimensions without a monomorphized kernel: per query,
/// the same sequential left-to-right sum as [`kernel::dot_scalar`]
/// (including its `0.0 +` seed, so even a leading `-0.0` product
/// matches bitwise).
fn dot_panel_any(panel: &[f32], k: usize, rows: &[f32], out: &mut [f32]) {
    let n = out.len() / PANEL_W;
    for i in 0..n {
        let row = &rows[i * k..(i + 1) * k];
        let o = &mut out[i * PANEL_W..(i + 1) * PANEL_W];
        for (w, slot) in o.iter_mut().enumerate() {
            let mut s = 0.0f32;
            for (j, &r) in row.iter().enumerate() {
                s += panel[j * PANEL_W + w] * r;
            }
            *slot = s;
        }
    }
}

/// A monotone `i32` image of [`f32::total_cmp`]:
/// `total_key(a) < total_key(b)  ⇔  a.total_cmp(&b) == Less`. Flipping
/// the payload bits of negative floats turns the IEEE sign-magnitude
/// encoding into two's complement, so ordinary integer compares — and
/// SIMD integer max — realize the total order, NaNs and signed zeros
/// included.
#[inline]
pub fn total_key(x: f32) -> i32 {
    let b = x.to_bits() as i32;
    b ^ (((b >> 31) as u32) >> 1) as i32
}

/// Per-query maximum [`total_key`] over a score chunk laid out like
/// [`dot_panel`]'s output (`scores[i * PANEL_W + w]`). A top-k consumer
/// compares `keys[w]` against the key of query `w`'s current k-th best
/// score: if not greater, *no* score in the chunk can displace anything
/// — the whole chunk is skipped for that query without touching the
/// heap. Runs on the same runtime-dispatched ISA tiers as the dot
/// kernel (integer max vectorizes across the panel).
///
/// # Panics
///
/// Panics if `scores.len()` is not a multiple of [`PANEL_W`].
pub fn panel_max_keys(scores: &[f32], keys: &mut [i32; PANEL_W]) {
    assert!(
        scores.len().is_multiple_of(PANEL_W),
        "scores must be n × PANEL_W"
    );
    match isa() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `isa()` returned this variant only after runtime
        // feature detection.
        Isa::Avx512 => unsafe { x86::panel_max_keys_avx512(scores, keys) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        Isa::Avx2 => unsafe { x86::panel_max_keys_avx2(scores, keys) },
        Isa::Baseline => panel_max_keys_body(scores, keys),
    }
}

/// Shared body of [`panel_max_keys`] (same multi-versioning scheme as
/// [`dot_panel_body`]).
#[inline(always)]
fn panel_max_keys_body(scores: &[f32], keys: &mut [i32; PANEL_W]) {
    *keys = [i32::MIN; PANEL_W];
    for chunk in scores.chunks_exact(PANEL_W) {
        for w in 0..PANEL_W {
            keys[w] = keys[w].max(total_key(chunk[w]));
        }
    }
}

/// Rounds an `f32` to the nearest representable IEEE 754 binary16 value
/// (round-to-nearest-even), returned as `f32`. Overflow saturates to
/// ±infinity, underflow flushes through subnormals exactly as binary16
/// does.
pub fn f16_round(x: f32) -> f32 {
    let bits = x.to_bits();
    let sign = bits & 0x8000_0000;
    let exp = ((bits >> 23) & 0xff) as i32;
    let frac = bits & 0x007f_ffff;

    // NaN propagates; infinity stays infinity.
    if exp == 0xff {
        return x;
    }
    let unbiased = exp - 127;
    if unbiased > 15 {
        // Overflows binary16 → ±inf.
        return f32::from_bits(sign | 0x7f80_0000);
    }
    if unbiased >= -14 {
        // Normal range: keep 10 fraction bits, round to nearest even.
        let shift = 13; // 23 − 10
        let lsb = 1u32 << shift;
        let half = lsb >> 1;
        let rounded = frac + half - 1 + ((frac >> shift) & 1);
        let mut frac16 = rounded >> shift;
        let mut exp16 = unbiased;
        if frac16 == 0x400 {
            // Rounded up past the fraction width.
            frac16 = 0;
            exp16 += 1;
            if exp16 > 15 {
                return f32::from_bits(sign | 0x7f80_0000);
            }
        }
        let back = sign | (((exp16 + 127) as u32) << 23) | (frac16 << shift);
        return f32::from_bits(back);
    }
    if unbiased >= -24 {
        // Subnormal in binary16: quantize to multiples of 2^-24.
        let scale = (-24f32).exp2();
        let q = (x / scale).round_ties_even();
        return q * scale;
    }
    // Underflows to ±0.
    f32::from_bits(sign)
}

/// Encodes an `f32` as IEEE 754 binary16 bits, with exactly
/// [`f16_round`]'s semantics: round-to-nearest-even, overflow saturates
/// to ±infinity, subnormals are kept. NaN becomes the canonical quiet
/// NaN (`0x7e00`, sign preserved). For every `x`,
/// `f16_from_bits(f16_bits(x)).to_bits() == f16_round(x).to_bits()`
/// (except NaN payloads, which are canonicalized).
pub fn f16_bits(x: f32) -> u16 {
    // Round first; the result is exactly representable in binary16, so
    // the extraction below is a pure re-encoding with no further error.
    let r = f16_round(x);
    let bits = r.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;
    if exp == 0xff {
        // Infinity or NaN.
        return if man == 0 {
            sign | 0x7c00
        } else {
            sign | 0x7e00
        };
    }
    if r == 0.0 {
        return sign;
    }
    let unbiased = exp - 127;
    if unbiased >= -14 {
        // Normal in binary16: 5-bit exponent, top 10 mantissa bits.
        let e = (unbiased + 15) as u16;
        sign | (e << 10) | ((man >> 13) as u16)
    } else {
        // Subnormal: the value is an exact multiple of 2^-24 after
        // f16_round, so scaling by 2^24 yields the integer significand.
        let mag = f32::from_bits(bits & 0x7fff_ffff);
        sign | (mag * 16_777_216.0) as u16
    }
}

/// Decodes IEEE 754 binary16 bits into the exactly-equal `f32` value
/// (binary16 ⊂ binary32, so this conversion is lossless).
pub fn f16_from_bits(bits: u16) -> f32 {
    let sign = ((bits as u32) & 0x8000) << 16;
    let exp = (bits >> 10) & 0x1f;
    let man = (bits & 0x3ff) as u32;
    if exp == 0x1f {
        // Infinity / NaN.
        return f32::from_bits(sign | 0x7f80_0000 | (man << 13));
    }
    if exp == 0 {
        // Zero or subnormal: value is man · 2^-24.
        let mag = man as f32 * (-24f32).exp2();
        return if sign != 0 { -mag } else { mag };
    }
    f32::from_bits(sign | ((exp as u32 + 112) << 23) | (man << 13))
}

/// Which vector tier the one-time probe picked (exposed for bench
/// reporting, not for correctness — all tiers produce the same bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// AVX-512F: 16-wide f32, one register per accumulator row.
    Avx512,
    /// AVX2: 8-wide f32, two registers per accumulator row.
    Avx2,
    /// Whatever the build targets (SSE2 on x86-64).
    Baseline,
}

impl Isa {
    /// Human-readable tier name.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Avx512 => "avx512f",
            Isa::Avx2 => "avx2",
            Isa::Baseline => "baseline",
        }
    }
}

/// The vector tier serving sweeps run on — the [`crate::simd`] dispatch
/// level (detected once per process, `MF_SIMD`-overridable) mapped onto
/// the serving-facing tier names.
pub fn isa() -> Isa {
    match crate::simd::level() {
        crate::simd::SimdLevel::Avx512 => Isa::Avx512,
        crate::simd::SimdLevel::Avx2 => Isa::Avx2,
        crate::simd::SimdLevel::Scalar => Isa::Baseline,
    }
}

/// The `#[target_feature]` re-compilations of the integer-max body.
/// Safe fns: the feature contract is discharged by `isa()`'s runtime
/// probe (via [`crate::simd::level`], which clamps to detection) at the
/// (unsafe) call sites. The dot-panel SIMD variants live in
/// [`crate::simd`] as explicit-intrinsic kernels; the dword max
/// autovectorizes perfectly, so multi-versioning the portable body is
/// all it needs.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;

    /// [`panel_max_keys_body`] compiled for AVX-512F (dword max needs
    /// avx512f only).
    #[target_feature(enable = "avx512f")]
    pub fn panel_max_keys_avx512(scores: &[f32], keys: &mut [i32; PANEL_W]) {
        panel_max_keys_body(scores, keys)
    }

    /// [`panel_max_keys_body`] compiled for AVX2.
    #[target_feature(enable = "avx2")]
    pub fn panel_max_keys_avx2(scores: &[f32], keys: &mut [i32; PANEL_W]) {
        panel_max_keys_body(scores, keys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel;
    use std::cmp::Ordering;

    /// Deterministic pseudo-random f32s with sign variety, no NaNs.
    fn noise(seed: u32, len: usize) -> Vec<f32> {
        let mut state = seed.wrapping_mul(2654435761).max(1);
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                (state as f32 / u32::MAX as f32) * 2.0 - 1.0
            })
            .collect()
    }

    fn check_panel_matches_dot(k: usize, n: usize, seed: u32) {
        let qs: Vec<Vec<f32>> = (0..PANEL_W).map(|w| noise(seed + w as u32, k)).collect();
        let refs: Vec<&[f32]> = qs.iter().map(|q| q.as_slice()).collect();
        let rows = noise(seed ^ 0xbeef, n * k);
        let mut panel = Vec::new();
        pack_panel(&refs, k, &mut panel);
        let mut out = vec![0f32; n * PANEL_W];
        dot_panel(&panel, k, &rows, &mut out);
        for i in 0..n {
            for (w, q) in qs.iter().enumerate() {
                let expect = kernel::dot(q, &rows[i * k..(i + 1) * k]);
                let got = out[i * PANEL_W + w];
                assert_eq!(
                    got.to_bits(),
                    expect.to_bits(),
                    "k={k} i={i} w={w}: panel {got} vs dot {expect}"
                );
            }
        }
    }

    #[test]
    fn f16_round_exact_values_unchanged() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, 1024.0, -0.25] {
            assert_eq!(f16_round(v), v, "{v} is exactly representable");
        }
    }

    #[test]
    fn f16_round_quantizes() {
        // binary16 spacing near 1.0 is 2^-10 = 2ε with ε = 2^-11.
        let eps = (2f32).powi(-11);
        // 1 + ε is a tie between 1.0 and 1 + 2ε: even mantissa (1.0) wins.
        assert_eq!(f16_round(1.0 + eps), 1.0);
        // 1 + 3ε is a tie between 1 + 2ε (odd) and 1 + 4ε (even): even wins.
        assert_eq!(f16_round(1.0 + 3.0 * eps), 1.0 + 4.0 * eps);
        // 1 + 2.5ε is closer to 1 + 2ε — no tie.
        assert_eq!(f16_round(1.0 + 2.5 * eps), 1.0 + 2.0 * eps);
    }

    #[test]
    fn f16_round_overflow_and_underflow() {
        assert_eq!(f16_round(1e6), f32::INFINITY);
        assert_eq!(f16_round(-1e6), f32::NEG_INFINITY);
        assert_eq!(f16_round(1e-9), 0.0);
        assert!(f16_round(f32::NAN).is_nan());
        // Largest binary16 normal: 65504.
        assert_eq!(f16_round(65504.0), 65504.0);
        assert_eq!(f16_round(65520.0), f32::INFINITY);
    }

    #[test]
    fn f16_round_subnormals() {
        let tiny = (2f32).powi(-24); // smallest positive binary16 subnormal
        assert_eq!(f16_round(tiny), tiny);
        assert_eq!(f16_round(tiny * 0.4), 0.0);
        assert_eq!(f16_round(tiny * 2.5), tiny * 2.0); // ties to even
    }

    #[test]
    fn panel_matches_kernel_dot_bitwise_mono_dims() {
        for &k in &kernel::MONO_DIMS {
            for n in [1usize, 7, 64, 130] {
                check_panel_matches_dot(k, n, 11 + k as u32);
            }
        }
    }

    #[test]
    fn panel_matches_kernel_dot_bitwise_fallback_dims() {
        for k in [1usize, 3, 12, 24, 100] {
            check_panel_matches_dot(k, 33, 7 + k as u32);
        }
    }

    #[test]
    fn panel_handles_nan_and_signed_zero_like_dot() {
        let k = 32;
        let mut q0 = noise(5, k);
        q0[3] = f32::NAN;
        let q1 = vec![-0.0f32; k];
        let refs: Vec<&[f32]> = vec![&q0, &q1];
        let mut rows = noise(6, 4 * k);
        rows[2 * k] = f32::NAN;
        let mut panel = Vec::new();
        pack_panel(&refs, k, &mut panel);
        let mut out = vec![0f32; 4 * PANEL_W];
        dot_panel(&panel, k, &rows, &mut out);
        for i in 0..4 {
            for (w, q) in [&q0, &q1].iter().enumerate() {
                let expect = kernel::dot(q, &rows[i * k..(i + 1) * k]);
                assert_eq!(out[i * PANEL_W + w].to_bits(), expect.to_bits());
            }
        }
    }

    #[test]
    fn padded_lanes_score_zero() {
        let k = 16;
        let q = noise(9, k);
        let refs: Vec<&[f32]> = vec![&q];
        let rows = noise(10, 3 * k);
        let mut panel = Vec::new();
        pack_panel(&refs, k, &mut panel);
        let mut out = vec![1f32; 3 * PANEL_W];
        dot_panel(&panel, k, &rows, &mut out);
        for i in 0..3 {
            for w in 1..PANEL_W {
                assert_eq!(out[i * PANEL_W + w], 0.0, "i={i} w={w}");
            }
        }
    }

    #[test]
    fn total_key_realizes_total_cmp() {
        let vals = [
            f32::NEG_INFINITY,
            -1e30,
            -1.0,
            -1e-40, // subnormal
            -0.0,
            0.0,
            1e-40,
            1.0,
            1e30,
            f32::INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7f80_0001), // smallest-payload NaN
        ];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(
                    total_key(a).cmp(&total_key(b)),
                    a.total_cmp(&b),
                    "a={a:?} b={b:?}"
                );
            }
        }
    }

    #[test]
    fn max_keys_match_scalar_fold() {
        let n = 37;
        let mut scores = noise(21, n * PANEL_W);
        scores[5 * PANEL_W + 2] = f32::NAN;
        scores[7 * PANEL_W + 9] = f32::NEG_INFINITY;
        let mut keys = [0i32; PANEL_W];
        panel_max_keys(&scores, &mut keys);
        for w in 0..PANEL_W {
            let expect = (0..n)
                .map(|i| total_key(scores[i * PANEL_W + w]))
                .max()
                .unwrap();
            assert_eq!(keys[w], expect, "w={w}");
        }
        // A chunk-max key not greater than a query's current-worst key
        // proves no score in the chunk beats it under total_cmp.
        for w in 0..PANEL_W {
            for i in 0..n {
                let s = scores[i * PANEL_W + w];
                if total_key(s) > keys[w] {
                    panic!("max key missed a score");
                }
                assert_ne!(s.total_cmp(&f32::NAN), Ordering::Greater);
            }
        }
    }

    #[test]
    fn empty_rows_are_fine() {
        let k = 8;
        let q = noise(3, k);
        let refs: Vec<&[f32]> = vec![&q];
        let mut panel = Vec::new();
        pack_panel(&refs, k, &mut panel);
        let mut out: Vec<f32> = Vec::new();
        dot_panel(&panel, k, &[], &mut out);
        assert!(out.is_empty());
    }
}
