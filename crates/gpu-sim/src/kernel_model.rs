//! The kernel-throughput model (paper Figs. 3a and 7).
//!
//! Ground truth has three regimes, matching what the paper measures on a
//! Quadro P4000:
//!
//! 1. **Latency-bound** (tiny blocks): execution time is a constant
//!    `t_floor` — the device cannot finish a launch faster no matter how
//!    little work it holds, so *throughput is linear in block size* and
//!    terrible for small blocks. This is the mechanism behind
//!    Observation 1.
//! 2. **Log ramp**: throughput `a·ln n + b`, the shape the paper fits —
//!    *"the growth trend of the logarithmic function … is more consistent
//!    with the trend in Figure 7"*. Anchored so throughput is half of
//!    peak at `kernel_half_size` and reaches peak at 8× that size.
//! 3. **Saturated**: time is linear at peak throughput.
//!
//! The resulting *time* curve — flat, then slowly rising, then linear —
//! is what a single straight line (Qilin) genuinely cannot fit, which is
//! the misfit the paper's tailored cost model corrects (Table II).
//!
//! Worker count scales throughput sublinearly — `(W / 128)^η` — capped by
//! a memory-bandwidth ceiling.

use mf_des::SimTime;

use crate::spec::GpuSpec;

/// Block size multiple of the knee at which the ramp reaches peak.
const SATURATION_MULTIPLE: f64 = 8.0;

/// Kernel execution-time model for one device configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelModel {
    /// Ramp slope (updates/s per ln-point).
    a: f64,
    /// Ramp intercept.
    b: f64,
    /// Saturated throughput at the reference worker count, updates/s.
    peak: f64,
    /// Block size below which execution is latency-bound (time constant).
    /// Chosen as the point where the ramp's elasticity reaches 1, so the
    /// time curve is monotone.
    floor_points: f64,
    /// Worker multiplier `(W/128)^η`, pre-computed.
    worker_scale: f64,
    /// Memory-bandwidth ceiling, updates/s.
    ceiling: f64,
    /// Fixed kernel-launch latency per block, seconds.
    launch_latency: f64,
}

impl KernelModel {
    /// Builds the model for a device spec (including its current
    /// `parallel_workers`).
    pub fn new(spec: &GpuSpec) -> KernelModel {
        let ratio = spec.parallel_workers as f64 / GpuSpec::REFERENCE_WORKERS as f64;
        let peak = spec.peak_updates_per_sec;
        let half = spec.kernel_half_size.max(2.0);
        // a·ln(half) + b = peak/2 and a·ln(8·half) + b = peak.
        let a = peak / (2.0 * SATURATION_MULTIPLE.ln());
        let b = peak / 2.0 - a * half.ln();
        // Below the elasticity-1 point (ramp value == a) the time curve of
        // n / (a·ln n + b) would *decrease* with n; physically that region
        // is latency-bound, so time is pinned constant there.
        let floor_points = ((a - b) / a).exp();
        KernelModel {
            a,
            b,
            peak,
            floor_points,
            worker_scale: ratio.powf(spec.worker_scaling_exponent),
            ceiling: spec.max_updates_per_sec,
            launch_latency: spec.kernel_launch_latency_secs,
        }
    }

    /// The ramp/peak throughput at an *effective* (≥ floor) size.
    fn eff_throughput(&self, points: f64) -> f64 {
        let ramp = (self.a * points.ln() + self.b).min(self.peak);
        (ramp * self.worker_scale).min(self.ceiling)
    }

    /// Raw modeled execution time (without launch latency).
    fn raw_time(&self, points: f64) -> f64 {
        let eff = points.max(self.floor_points);
        eff / self.eff_throughput(eff)
    }

    /// Modeled throughput for a block of `points` ratings, in updates/s —
    /// the Fig. 3(a)/7 "update speed" axis. Linear in size below the
    /// latency floor, log ramp to peak above it.
    pub fn throughput(&self, points: f64) -> f64 {
        if points <= 0.0 {
            return 0.0;
        }
        points / self.raw_time(points)
    }

    /// Modeled kernel execution time for a block of `points` ratings.
    pub fn time_for(&self, points: u64) -> SimTime {
        if points == 0 {
            return SimTime::ZERO;
        }
        SimTime::from_secs(self.raw_time(points as f64) + self.launch_latency)
    }

    /// The saturated (asymptotic) throughput of this configuration.
    pub fn saturated_throughput(&self) -> f64 {
        (self.peak * self.worker_scale).min(self.ceiling)
    }

    /// The latency-bound size threshold (diagnostics, tests).
    pub fn floor_points(&self) -> f64 {
        self.floor_points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_with_workers(w: u32) -> KernelModel {
        KernelModel::new(&GpuSpec::default().with_workers(w))
    }

    #[test]
    fn throughput_saturates_with_block_size() {
        let m = model_with_workers(128);
        let half = GpuSpec::default().kernel_half_size;
        // At the knee, throughput is half of peak.
        assert!((m.throughput(half) - 65e6).abs() / 65e6 < 1e-9);
        // Beyond 8x the knee: exactly peak.
        assert_eq!(m.throughput(10.0 * half), 130e6);
        // Small blocks are far below peak — Observation 1.
        assert!(m.throughput(0.05 * half) < 0.15 * 130e6);
    }

    #[test]
    fn throughput_monotone_in_block_size() {
        let m = model_with_workers(128);
        let mut prev = 0.0;
        for exp in 1..9 {
            let t = m.throughput(10f64.powi(exp));
            assert!(t >= prev);
            prev = t;
        }
    }

    #[test]
    fn time_is_monotone_in_block_size() {
        let m = model_with_workers(128);
        let mut prev = 0.0;
        for i in 1..200 {
            let t = m.time_for(i * 25_000).as_secs();
            assert!(
                t >= prev - 1e-12,
                "time decreased at {} points: {t} < {prev}",
                i * 25_000
            );
            prev = t;
        }
    }

    #[test]
    fn tiny_blocks_are_latency_bound() {
        let m = model_with_workers(128);
        let floor = m.floor_points();
        assert!(floor > 1e3, "floor should be a nontrivial size");
        // Anywhere below the floor, time is the same constant.
        let t_small = m.time_for((0.1 * floor) as u64).as_secs();
        let t_mid = m.time_for((0.9 * floor) as u64).as_secs();
        assert!((t_small - t_mid).abs() / t_mid < 1e-9);
        // So throughput scales linearly with size there.
        let th_small = m.throughput(0.1 * floor);
        let th_mid = m.throughput(0.9 * floor);
        assert!((th_mid / th_small - 9.0).abs() < 0.01);
    }

    #[test]
    fn time_curve_defies_a_single_line() {
        // The Table II mechanism: a line fitted through the large-block
        // regime badly underestimates small-block time.
        let m = model_with_workers(128);
        let half = GpuSpec::default().kernel_half_size;
        // "Qilin" line through two saturated points (slope 1/peak).
        let n1 = 10.0 * half;
        let n2 = 20.0 * half;
        let t1 = m.time_for(n1 as u64).as_secs();
        let t2 = m.time_for(n2 as u64).as_secs();
        let slope = (t2 - t1) / (n2 - n1);
        let intercept = t1 - slope * n1;
        let small = 0.05 * half;
        let linear_pred = slope * small + intercept;
        let truth = m.time_for(small as u64).as_secs();
        assert!(
            truth > 3.0 * linear_pred.max(1e-9),
            "latency floor must defeat the line: truth {truth:.2e} vs line {linear_pred:.2e}"
        );
    }

    #[test]
    fn worker_scaling_is_sublinear_and_capped() {
        let big_block = 10e6;
        let t32 = model_with_workers(32).throughput(big_block);
        let t128 = model_with_workers(128).throughput(big_block);
        let t512 = model_with_workers(512).throughput(big_block);
        assert!(t32 < t128 && t128 < t512, "more workers, more throughput");
        // Sublinear: 4x workers < 4x throughput.
        assert!(t128 / t32 < 4.0);
        // 512 workers hit the bandwidth ceiling.
        assert_eq!(t512, 350e6);
    }

    #[test]
    fn crossover_with_16_thread_cpu() {
        // The Fig. 10 shape: a 16-thread CPU at ~5 M updates/s/thread
        // (80 M/s) beats the GPU at 32 workers but loses at ≥128 on
        // saturated blocks.
        let cpu = 16.0 * 5e6;
        let big = 5e6;
        assert!(model_with_workers(32).throughput(big) < cpu);
        assert!(model_with_workers(128).throughput(big) > cpu);
        assert!(model_with_workers(512).throughput(big) > 2.0 * cpu);
    }

    #[test]
    fn time_includes_launch_latency() {
        let m = model_with_workers(128);
        // A single point takes at least the launch latency.
        assert!(m.time_for(1).as_secs() >= 10e-6);
        assert_eq!(m.time_for(0), SimTime::ZERO);
    }

    #[test]
    fn time_for_large_block_matches_throughput() {
        let m = model_with_workers(128);
        let pts = 50_000_000u64;
        let t = m.time_for(pts).as_secs();
        let implied = pts as f64 / t;
        assert!((implied - m.throughput(pts as f64)).abs() / implied < 0.01);
    }

    #[test]
    fn scaled_spec_moves_knee() {
        let full = KernelModel::new(&GpuSpec::default());
        let scaled = KernelModel::new(&GpuSpec::default().scaled_down(100.0));
        // At 1/100 of the original knee, the scaled device is already at
        // half peak while the full device sits in its latency-bound zone.
        let knee_small = GpuSpec::default().kernel_half_size / 100.0;
        assert!((scaled.throughput(knee_small) - 65e6).abs() / 65e6 < 1e-9);
        assert!(full.throughput(knee_small) < 15e6);
        // The floor scales with the knee.
        assert!(
            (scaled.floor_points() - full.floor_points() / 100.0).abs() / scaled.floor_points()
                < 1e-9
        );
    }
}
