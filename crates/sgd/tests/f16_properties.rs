//! Property tests for the binary16 rounding used by the half-precision
//! kernel mode: idempotence, monotonicity, symmetry, and boundedness of
//! the rounding error — the invariants that keep half-precision training
//! numerically sane.

use mf_fuzz::{check, Gen};
use mf_sgd::sweep::{f16_bits, f16_from_bits, f16_round};

/// Every one of the 65 536 binary16 bit patterns must survive a
/// decode → encode round trip (NaNs canonicalize to `0x7e00` with the
/// sign preserved — payloads are not round-tripped).
#[test]
fn all_bit_patterns_round_trip() {
    for bits in 0..=u16::MAX {
        let v = f16_from_bits(bits);
        let back = f16_bits(v);
        let exp = (bits >> 10) & 0x1f;
        let man = bits & 0x3ff;
        if exp == 0x1f && man != 0 {
            assert!(v.is_nan(), "{bits:#06x} should decode to NaN");
            assert_eq!(back, (bits & 0x8000) | 0x7e00, "NaN canonical form");
        } else {
            assert_eq!(back, bits, "round trip failed for {bits:#06x} (v={v})");
        }
    }
}

/// Decoded binary16 values are fixed points of `f16_round`, so storing
/// factors as u16 bits is bitwise-equivalent to storing `f16_round(x)`
/// as f32 — the contract `mf-serve`'s f16 store relies on.
#[test]
fn decode_is_f16_round_fixed_point() {
    for bits in 0..=u16::MAX {
        let v = f16_from_bits(bits);
        if v.is_nan() {
            continue;
        }
        assert_eq!(f16_round(v).to_bits(), v.to_bits(), "bits={bits:#06x}");
    }
}

#[test]
fn idempotent() {
    let input = |g: &mut Gen| g.f32(-70000.0..70000.0);
    check(256, 1, input, |x| {
        let once = f16_round(x);
        let twice = f16_round(once);
        assert!(once == twice || (once.is_nan() && twice.is_nan()));
    });
}

#[test]
fn monotone() {
    let input = |g: &mut Gen| (g.f32(-70000.0..70000.0), g.f32(-70000.0..70000.0));
    check(256, 2, input, |(a, b)| {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(f16_round(lo) <= f16_round(hi));
    });
}

#[test]
fn odd_symmetry() {
    let input = |g: &mut Gen| g.f32(-70000.0..70000.0);
    check(256, 3, input, |x| {
        assert_eq!(f16_round(-x), -f16_round(x));
    });
}

#[test]
fn relative_error_bounded_in_normal_range() {
    let input = |g: &mut Gen| g.f32(6.2e-5..65000.0);
    check(256, 4, input, |x| {
        // binary16 has 11 significand bits: relative rounding error is at
        // most 2^-11 for normal values.
        let r = f16_round(x);
        let rel = ((r - x) / x).abs();
        assert!(rel <= 1.0 / 2048.0 + 1e-9, "x={x}, r={r}, rel={rel}");
    });
}

#[test]
fn encode_matches_round() {
    let input = |g: &mut Gen| g.f32(-70000.0..70000.0);
    check(256, 5, input, |x| {
        // Bit-storing a factor (encode then decode) must equal rounding
        // it in place — bitwise.
        assert_eq!(f16_from_bits(f16_bits(x)).to_bits(), f16_round(x).to_bits());
    });
}

#[test]
fn result_is_exactly_representable() {
    let input = |g: &mut Gen| g.f32(-60000.0..60000.0);
    check(256, 6, input, |x| {
        // Every output must have at most 10 fraction bits (normal) or be
        // a multiple of 2^-24 (subnormal) — checked via idempotence plus
        // a scaled-integer test for the subnormal range.
        let r = f16_round(x);
        if r != 0.0 && r.abs() < 2f32.powi(-14) {
            let q = r / (2f32).powi(-24);
            assert_eq!(q.fract(), 0.0, "subnormal {r} not on grid");
        }
        assert_eq!(f16_round(r), r);
    });
}
