//! Property tests for the online throughput observer under adversarial
//! sample streams.
//!
//! The observer sits between raw wall-clock measurements and the Eq. 8
//! workload-split solver, so it must absorb anything a hostile clock or a
//! fault-injected device can produce — zero-duration tasks, single-sample
//! runs, NaN/∞ garbage, inverted size/time correlation, magnitudes near
//! overflow — without ever handing the solver a non-finite or
//! order-incorrect cost model. Each property runs over a few hundred
//! generated streams; a failure prints its seed and a shrunk stream.

use mf_cost::alpha::{balance_alpha, split_workload};
use mf_cost::models::{CostModel, LinearCost};
use mf_cost::observe::ThroughputObserver;
use mf_fuzz::{check, Gen};

/// One adversarial sample: mixes plausible measurements with every kind
/// of garbage a broken clock or dying device can emit.
fn adversarial_sample(g: &mut Gen) -> (f64, f64) {
    match g.int(0u32..12) {
        // Plausible linear-ish measurement with noise.
        0..=4 => {
            let size = g.f64(100.0..100.0 + 1e6);
            let secs = 1e-7 * size * g.f64(0.5..1.5) + g.f64(0.0..1e-3);
            (size, secs)
        }
        // Inverted correlation: big task, suspiciously fast.
        5 => (g.f64(1e6..2e6), g.f64(1e-6..1.1e-5)),
        // Zero-duration task (timer granularity).
        6 => (g.f64(1.0..1.0 + 1e4), 0.0),
        // Zero or negative size.
        7 => (-g.f64(0.0..100.0), g.f64(0.0..1.0)),
        // Non-finite garbage.
        8 => (f64::NAN, g.f64(0.0..1.0)),
        9 => (g.f64(0.0..100.0), f64::INFINITY),
        // Near-overflow magnitudes.
        10 => (f64::MAX / 4.0, f64::MAX / 4.0),
        // Denormal-tiny but positive.
        _ => (f64::MIN_POSITIVE, f64::MIN_POSITIVE),
    }
}

/// A stream of 64 adversarial samples.
fn stream(g: &mut Gen) -> Vec<(f64, f64)> {
    g.vec(64..65, adversarial_sample)
}

/// An observer fed `samples`.
fn observer(samples: &[(f64, f64)]) -> ThroughputObserver {
    let mut o = ThroughputObserver::new();
    for &(size, secs) in samples {
        o.record(size, secs);
    }
    o
}

/// Probe sizes spanning many decades, for monotonicity checks.
const PROBES: [f64; 7] = [0.0, 1.0, 1e2, 1e4, 1e6, 1e9, 1e12];

#[test]
fn mean_rate_is_finite_positive_or_none() {
    check(300, 1, stream, |samples| {
        if let Some(r) = observer(&samples).mean_rate() {
            assert!(r.is_finite() && r > 0.0, "mean_rate reported {r}");
        }
    });
}

#[test]
fn fitted_model_is_finite_and_order_correct() {
    let mut fitted = 0usize;
    check(300, 2, stream, |samples| {
        let Some(m) = observer(&samples).fit_linear() else {
            return;
        };
        fitted += 1;
        assert!(
            m.a.is_finite() && m.b.is_finite(),
            "non-finite coefficients {m:?}"
        );
        assert!(m.a >= 0.0, "negative slope {m:?}");
        let mut prev = -1.0f64;
        for &s in &PROBES {
            let t = m.time_secs(s);
            assert!(t.is_finite() && t >= 0.0, "time_secs({s}) = {t}");
            assert!(
                t >= prev,
                "time_secs not monotone at size {s}: {t} < {prev}"
            );
            prev = t;
        }
    });
    assert!(fitted > 0, "generator never produced a fittable stream");
}

#[test]
fn alpha_resolve_stays_in_unit_interval_under_adversarial_fits() {
    // Pair two independently poisoned observers as the GPU and CPU models
    // and re-solve Eq. 8 the way Meter::finish does at run end.
    let mut solved = 0usize;
    let input = |g: &mut Gen| (stream(g), stream(g));
    check(300, 3, input, |(gpu, cpu)| {
        let (Some(gm), Some(cm)) = (observer(&gpu).fit_linear(), observer(&cpu).fit_linear())
        else {
            return;
        };
        solved += 1;
        for &(ng, nc) in &[(1usize, 1usize), (1, 8), (2, 4)] {
            let (alpha, makespan) = split_workload(1e7, &gm, &cm, ng, nc);
            assert!(
                alpha.is_finite() && (0.0..=1.0).contains(&alpha),
                "ng={ng} nc={nc}: alpha = {alpha}"
            );
            assert!(
                makespan.is_finite() && makespan >= 0.0,
                "ng={ng} nc={nc}: makespan = {makespan}"
            );
        }
    });
    assert!(solved > 0, "generator never produced a solvable pair");
}

#[test]
fn alpha_is_order_correct_in_device_speed() {
    // A strictly faster GPU model must never receive *less* work: α is
    // monotone in the speed ratio for fixed CPU cost.
    check(100, 4, stream, |samples| {
        let Some(cpu) = observer(&samples).fit_linear() else {
            return;
        };
        let mut prev_alpha = -1.0f64;
        for speedup in [0.25, 1.0, 4.0, 16.0] {
            let gpu = LinearCost::new(cpu.a / speedup, cpu.b / speedup);
            let a = balance_alpha(
                |x| gpu.time_secs(x * 1e7),
                |x| cpu.time_secs(x * 1e7),
                1.0,
                1.0,
            );
            assert!(
                a >= prev_alpha - 1e-9,
                "alpha fell from {prev_alpha} to {a} as GPU sped up {speedup}x"
            );
            prev_alpha = a;
        }
    });
}

#[test]
fn zero_duration_only_stream_reports_nothing() {
    let mut o = ThroughputObserver::new();
    for i in 1..=32 {
        o.record(i as f64 * 100.0, 0.0);
    }
    assert!(o.is_empty(), "zero-duration samples must be rejected");
    assert_eq!(o.mean_rate(), None);
    assert!(o.fit_linear().is_none());
}

#[test]
fn single_sample_gives_rate_but_no_fit() {
    let mut o = ThroughputObserver::new();
    o.record(5000.0, 0.25);
    assert_eq!(o.len(), 1);
    let r = o.mean_rate().expect("one good sample defines a rate");
    assert!((r - 20_000.0).abs() < 1e-9);
    assert!(
        o.fit_linear().is_none(),
        "one point cannot support a line fit"
    );
}

#[test]
fn overflow_magnitude_samples_never_leak_non_finite_rates() {
    // Two f64::MAX/4 samples make the running totals overflow to ∞ is
    // avoided (MAX/4 + MAX/4 is finite), but four push Σsize past MAX.
    let mut o = ThroughputObserver::new();
    for _ in 0..8 {
        o.record(f64::MAX / 4.0, 1.0);
    }
    match o.mean_rate() {
        None => {}
        Some(r) => assert!(r.is_finite() && r > 0.0, "leaked rate {r}"),
    }
    if let Some(m) = o.fit_linear() {
        assert!(m.a.is_finite() && m.b.is_finite(), "leaked model {m:?}");
    }
}
