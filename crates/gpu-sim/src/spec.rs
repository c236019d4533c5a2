//! Device specification and calibration constants.

/// Static description of a simulated GPU.
///
/// The default constants are calibrated so the simulator reproduces the
/// *shape* of the paper's measurements on a Quadro P4000 (Figs. 3, 6, 7):
///
/// * kernel throughput is latency-bound for tiny blocks, follows the
///   measured `a·log n + b` ramp around the knee, and saturates at peak
///   (see [`crate::kernel_model`]);
/// * 128 parallel workers saturate at ≈130 M updates/s, crossing a 16-
///   thread CPU (≈80 M/s) just as Fig. 10 shows;
/// * PCIe speed ramps `2.5 → 12.5 GB/s` between 64 KB and 256 MB.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// Number of "parallel workers" in the cuMF sense: ratings processed
    /// simultaneously by the kernel. The paper sweeps 32–512; default 128.
    pub parallel_workers: u32,
    /// Warp width (threads per warp); affects SIMT lane grouping only.
    pub warp_size: u32,
    /// Kernel throughput at full saturation with the reference 128
    /// workers, in updates (points) per second.
    pub peak_updates_per_sec: f64,
    /// Block size (in points) at which the kernel reaches half of peak
    /// throughput — the knee of Fig. 3(a).
    pub kernel_half_size: f64,
    /// Exponent of the sublinear worker-count scaling
    /// `(workers / 128)^eta`.
    pub worker_scaling_exponent: f64,
    /// Cap on total kernel throughput regardless of worker count
    /// (memory-bandwidth ceiling), in updates per second.
    pub max_updates_per_sec: f64,
    /// PCIe peak bandwidth, GB/s (paper: PCIe 3.0 ×16, ~12.5 GB/s
    /// effective).
    pub pcie_peak_gbps: f64,
    /// Transfer speed measured at [`GpuSpec::pcie_small_bytes`], GB/s.
    pub pcie_small_gbps: f64,
    /// "Small transfer" anchor size in bytes (64 KB in Fig. 6).
    pub pcie_small_bytes: f64,
    /// Size at which transfer speed saturates (256 MB in Fig. 6).
    pub pcie_saturation_bytes: f64,
    /// Device-to-host peak bandwidth, GB/s (slightly below H2D on real
    /// hardware).
    pub pcie_d2h_peak_gbps: f64,
    /// Fixed kernel-launch latency per block, seconds (CUDA launch +
    /// driver overhead).
    pub kernel_launch_latency_secs: f64,
    /// Global memory capacity in bytes (P4000: 8 GB).
    pub global_memory_bytes: u64,
}

impl GpuSpec {
    /// Reference worker count against which throughput is calibrated.
    pub const REFERENCE_WORKERS: u32 = 128;

    /// A Quadro P4000-like device, the paper's testbed.
    pub fn quadro_p4000() -> GpuSpec {
        GpuSpec {
            parallel_workers: 128,
            warp_size: 32,
            peak_updates_per_sec: 130e6,
            kernel_half_size: 400e3,
            worker_scaling_exponent: 0.85,
            max_updates_per_sec: 350e6,
            pcie_peak_gbps: 12.5,
            pcie_small_gbps: 2.5,
            pcie_small_bytes: 64.0 * 1024.0,
            pcie_saturation_bytes: 256.0 * 1024.0 * 1024.0,
            pcie_d2h_peak_gbps: 11.5,
            kernel_launch_latency_secs: 10e-6,
            global_memory_bytes: 8 * 1024 * 1024 * 1024,
        }
    }

    /// Returns a copy with a different worker count (the Fig. 10 sweep).
    pub fn with_workers(mut self, workers: u32) -> GpuSpec {
        assert!(workers > 0, "worker count must be positive");
        self.parallel_workers = workers;
        self
    }

    /// Rescales the *size-dependent* constants for an experiment run at
    /// `1/scale` of the paper's dataset sizes.
    ///
    /// Dividing the kernel knee and the PCIe ramp anchors by `scale` keeps
    /// the dimensionless ratios `block_size / kernel_half_size` and
    /// `transfer_bytes / saturation_bytes` identical to a full-scale run,
    /// so every "who wins where" crossover in the evaluation is preserved
    /// at laptop-friendly sizes. Documented per-experiment in
    /// EXPERIMENTS.md.
    pub fn scaled_down(mut self, scale: f64) -> GpuSpec {
        assert!(scale >= 1.0, "scale must be >= 1");
        self.kernel_half_size /= scale;
        self.pcie_small_bytes = (self.pcie_small_bytes / scale).max(1.0);
        self.pcie_saturation_bytes = (self.pcie_saturation_bytes / scale).max(2.0);
        self.kernel_launch_latency_secs /= scale;
        self
    }
}

impl Default for GpuSpec {
    fn default() -> Self {
        GpuSpec::quadro_p4000()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_p4000() {
        let s = GpuSpec::default();
        assert_eq!(s.parallel_workers, 128);
        assert_eq!(s.global_memory_bytes, 8 * 1024 * 1024 * 1024);
        assert_eq!(s.warp_size, 32);
    }

    #[test]
    fn with_workers() {
        let s = GpuSpec::default().with_workers(512);
        assert_eq!(s.parallel_workers, 512);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_workers_rejected() {
        let _ = GpuSpec::default().with_workers(0);
    }

    #[test]
    fn scaling_preserves_ratios() {
        let full = GpuSpec::default();
        let small = full.scaled_down(100.0);
        assert!((small.kernel_half_size - full.kernel_half_size / 100.0).abs() < 1e-9);
        assert!(
            (small.pcie_saturation_bytes / small.pcie_small_bytes
                - full.pcie_saturation_bytes / full.pcie_small_bytes)
                .abs()
                < 1e-9
        );
        // Speed constants untouched.
        assert_eq!(small.pcie_peak_gbps, full.pcie_peak_gbps);
        assert_eq!(small.peak_updates_per_sec, full.peak_updates_per_sec);
    }
}
