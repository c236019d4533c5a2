//! Offline cost-model calibration — the paper's Algorithm 3.
//!
//! The calibration harness is device-agnostic: a *probe* is any
//! `Fn(f64) -> f64` mapping a workload size to a measured processing time
//! in seconds. In this reproduction the probes are backed by the `gpu-sim`
//! performance models (plus optional deterministic noise, standing in for
//! measurement jitter); on real hardware they would time actual runs. The
//! fitting pipeline is identical either way.

use crate::fit::{self, LineFit};
use crate::models::{GpuCost, LinearCost, RampCost, RampKind};
use crate::piecewise::{split_at_stability, STABILITY_EPS};

/// Calibration options.
#[derive(Debug, Clone, Copy)]
pub struct CalibrationConfig {
    /// Number of probe sizes (the paper's `N` dataset segments).
    pub num_segments: usize,
    /// Repetitions averaged per size ("the execution time in the training
    /// data is derived from the average of multiple tests").
    pub repeats: usize,
    /// Stability threshold for τ detection.
    pub stability_eps: f64,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig {
            num_segments: 16,
            repeats: 3,
            stability_eps: STABILITY_EPS,
        }
    }
}

/// Probes `measure` at the cumulative prefix sizes
/// `total/N, 2·total/N, …, total` — Algorithm 3 line 2, where the CPU
/// kernel computes on `S1, S1+S2, S1+S2+S3, …` rather than on equal
/// disjoint segments, giving a wider range of training sizes.
/// Returns `(size, mean_time)` pairs.
pub fn probe_prefixes<F: FnMut(f64) -> f64>(
    total: f64,
    cfg: &CalibrationConfig,
    mut measure: F,
) -> Vec<(f64, f64)> {
    assert!(cfg.num_segments >= 2, "need at least two probe sizes");
    assert!(cfg.repeats >= 1, "need at least one repetition");
    (1..=cfg.num_segments)
        .map(|i| {
            let size = total * i as f64 / cfg.num_segments as f64;
            let mean: f64 =
                (0..cfg.repeats).map(|_| measure(size)).sum::<f64>() / cfg.repeats as f64;
            (size, mean)
        })
        .collect()
}

/// Probes geometric sizes `lo, 2·lo, 4·lo, … ≤ hi` — used for transfer and
/// kernel curves, whose interesting region spans orders of magnitude
/// (Fig. 6's log-scaled x-axis).
pub fn probe_geometric<F: FnMut(f64) -> f64>(
    lo: f64,
    hi: f64,
    cfg: &CalibrationConfig,
    mut measure: F,
) -> Vec<(f64, f64)> {
    assert!(lo > 0.0 && hi > lo, "invalid probe range");
    let mut out = Vec::new();
    let mut size = lo;
    while size <= hi {
        let mean: f64 = (0..cfg.repeats).map(|_| measure(size)).sum::<f64>() / cfg.repeats as f64;
        out.push((size, mean));
        size *= 2.0;
    }
    assert!(out.len() >= 2, "probe range produced too few samples");
    out
}

/// Fits the CPU cost model: a straight line over the prefix probes
/// (Algorithm 3 line 3). Observation 2 says CPU throughput is flat, so a
/// linear time model is accurate.
pub fn fit_cpu(samples: &[(f64, f64)]) -> LinearCost {
    let LineFit { a, b, .. } = fit::ols(samples);
    LinearCost::new(a.max(0.0), b.max(0.0))
}

/// Fits a two-stage ramp model of the given family to `(size, time)`
/// samples (Algorithm 3 lines 4–6):
/// stage 1 regresses *speed* on the ramp feature below τ, stage 2
/// regresses *time* linearly above τ.
pub fn fit_ramp(samples: &[(f64, f64)], kind: RampKind, eps: f64) -> RampCost {
    let (ramp_samples, plateau_samples, tau) = split_at_stability(samples, eps);

    // Stage 1: fit speed = f(size).
    let speed_points: Vec<(f64, f64)> = ramp_samples
        .iter()
        .map(|&(s, t)| (s, s / t.max(1e-300)))
        .collect();
    let ramp_fit = if speed_points.len() >= 2 {
        match kind {
            RampKind::Log => fit::fit_log(&speed_points),
            RampKind::SqrtLog => fit::fit_sqrt_log(&speed_points),
        }
    } else {
        // Degenerate: constant speed from the single sample.
        LineFit {
            a: 0.0,
            b: speed_points[0].1,
            r2: 1.0,
        }
    };

    // Stage 2: fit time = a·size + b on the plateau.
    let linear = if plateau_samples.len() >= 2 {
        fit_cpu(&plateau_samples)
    } else {
        // Degenerate: constant-speed extrapolation from the last sample.
        let (s, t) = *plateau_samples.last().unwrap();
        LinearCost::new(t / s, 0.0)
    };

    // Floor: a tenth of the slowest observed speed keeps the left tail
    // sane.
    let min_speed = speed_points
        .iter()
        .map(|&(_, v)| v)
        .fold(f64::INFINITY, f64::min)
        / 10.0;

    RampCost {
        kind,
        ramp_a: ramp_fit.a,
        ramp_b: ramp_fit.b,
        tau,
        linear,
        min_speed: min_speed.max(1e-6),
    }
}

/// End-to-end GPU calibration (Algorithm 3 lines 4–7): fit the transfer
/// ramp over byte sizes, the kernel ramp over point counts, and combine
/// them with the Eq. 9 `max` composition.
pub struct GpuCalibration<'p> {
    /// Measures H2D transfer time for a payload of `bytes`.
    pub transfer_probe: &'p mut dyn FnMut(f64) -> f64,
    /// Measures kernel execution time for a block of `points`.
    pub kernel_probe: &'p mut dyn FnMut(f64) -> f64,
    /// Byte range to probe for transfers.
    pub byte_range: (f64, f64),
    /// Point range to probe for the kernel.
    pub point_range: (f64, f64),
    /// Wire bytes per rating point.
    pub bytes_per_point: f64,
}

/// Runs the GPU calibration, returning the fitted Eq. 9 model.
pub fn calibrate_gpu(cal: GpuCalibration<'_>, cfg: &CalibrationConfig) -> GpuCost {
    let transfer_samples = probe_geometric(
        cal.byte_range.0,
        cal.byte_range.1,
        cfg,
        &mut *cal.transfer_probe,
    );
    let kernel_samples = probe_geometric(
        cal.point_range.0,
        cal.point_range.1,
        cfg,
        &mut *cal.kernel_probe,
    );
    GpuCost {
        transfer: fit_ramp(&transfer_samples, RampKind::SqrtLog, cfg.stability_eps),
        kernel: fit_ramp(&kernel_samples, RampKind::Log, cfg.stability_eps),
        bytes_per_point: cal.bytes_per_point,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::CostModel;

    #[test]
    fn prefix_probe_sizes_are_cumulative() {
        let cfg = CalibrationConfig {
            num_segments: 4,
            repeats: 1,
            ..Default::default()
        };
        let samples = probe_prefixes(100.0, &cfg, |s| s * 2.0);
        let sizes: Vec<f64> = samples.iter().map(|p| p.0).collect();
        assert_eq!(sizes, vec![25.0, 50.0, 75.0, 100.0]);
        assert_eq!(samples[2].1, 150.0);
    }

    #[test]
    fn repeats_are_averaged() {
        let cfg = CalibrationConfig {
            num_segments: 2,
            repeats: 4,
            ..Default::default()
        };
        let mut call = 0usize;
        // Alternates ±10% around 1.0 → mean exactly 1.0.
        let samples = probe_prefixes(10.0, &cfg, |_| {
            call += 1;
            if call.is_multiple_of(2) {
                1.1
            } else {
                0.9
            }
        });
        for (_, t) in samples {
            assert!((t - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn cpu_fit_recovers_linear_device() {
        let cfg = CalibrationConfig::default();
        // A device doing 5M updates/s with 1 ms overhead.
        let samples = probe_prefixes(1e7, &cfg, |s| s / 5e6 + 0.001);
        let model = fit_cpu(&samples);
        assert!((model.a - 1.0 / 5e6).abs() / (1.0 / 5e6) < 1e-9);
        assert!((model.b - 0.001).abs() < 1e-9);
    }

    #[test]
    fn geometric_probe_doubles() {
        let cfg = CalibrationConfig {
            repeats: 1,
            ..Default::default()
        };
        let samples = probe_geometric(1.0, 16.0, &cfg, |s| s);
        let sizes: Vec<f64> = samples.iter().map(|p| p.0).collect();
        assert_eq!(sizes, vec![1.0, 2.0, 4.0, 8.0, 16.0]);
    }

    #[test]
    fn ramp_fit_recovers_saturating_device() {
        // Ground truth: speed = 20·ln(s) − 100 capped at 150 (cap reached
        // at s = e^12.5 ≈ 268k).
        let truth_speed = |s: f64| (20.0 * s.ln() - 100.0).clamp(1.0, 150.0);
        let cfg = CalibrationConfig {
            repeats: 1,
            ..Default::default()
        };
        let samples = probe_geometric(1e3, 1e8, &cfg, |s| s / truth_speed(s));
        let model = fit_ramp(&samples, RampKind::Log, 0.02);
        // Below τ the model should track the ramp closely.
        for s in [2e3, 1e4, 5e4] {
            let got = model.time_secs(s);
            let want = s / truth_speed(s);
            assert!(
                (got - want).abs() / want < 0.05,
                "ramp mismatch at {s}: {got} vs {want}"
            );
        }
        // Above τ the linear stage should track the plateau.
        for s in [1e6, 1e7, 5e7] {
            let got = model.time_secs(s);
            let want = s / 150.0;
            assert!(
                (got - want).abs() / want < 0.05,
                "plateau mismatch at {s}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn gpu_calibration_composes_eq9() {
        // Transfer: constant 1 GB/s. Kernel: constant 10M pts/s.
        let mut tp = |bytes: f64| bytes / 1e9;
        let mut kp = |pts: f64| pts / 1e7;
        let cfg = CalibrationConfig {
            repeats: 1,
            ..Default::default()
        };
        let model = calibrate_gpu(
            GpuCalibration {
                transfer_probe: &mut tp,
                kernel_probe: &mut kp,
                byte_range: (1e3, 1e9),
                point_range: (1e3, 1e8),
                bytes_per_point: 12.0,
            },
            &cfg,
        );
        // Kernel dominates: 1e6 points → 0.1 s kernel vs 12e6 B / 1e9 = 0.012 s.
        let t = model.time_for_points(1e6);
        assert!((t - 0.1).abs() / 0.1 < 0.05, "got {t}");
    }
}
