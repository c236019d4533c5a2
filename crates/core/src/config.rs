//! Configuration shared by all heterogeneous training variants.

use gpu_sim::GpuSpec;
use mf_sgd::HyperParams;

/// Performance model of one CPU worker thread.
///
/// Observation 2: CPU throughput is insensitive to block size, so a flat
/// rate plus a small per-block dispatch overhead captures it. The default
/// (5 M updates/s) matches the paper's Fig. 3(b) plateau.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSpec {
    /// Sustained SGD updates per second for one thread.
    pub updates_per_sec: f64,
    /// Fixed scheduling/dispatch overhead per block, seconds.
    pub per_block_overhead_secs: f64,
}

impl Default for CpuSpec {
    fn default() -> Self {
        CpuSpec {
            updates_per_sec: 5e6,
            per_block_overhead_secs: 2e-6,
        }
    }
}

impl CpuSpec {
    /// Modeled time for one thread to process a block of `points`.
    pub fn time_secs(&self, points: usize) -> f64 {
        points as f64 / self.updates_per_sec + self.per_block_overhead_secs
    }

    /// Rescales the dispatch overhead for an experiment run at `1/scale`
    /// of the paper's dataset sizes, mirroring
    /// [`gpu_sim::GpuSpec::scaled_down`]: with both knees and latencies
    /// divided by the scale, every virtual duration shrinks uniformly and
    /// all crossovers are preserved.
    pub fn scaled_down(mut self, scale: f64) -> CpuSpec {
        assert!(scale >= 1.0, "scale must be >= 1");
        self.per_block_overhead_secs /= scale;
        self
    }
}

/// Which cost model drives the workload split (paper Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostModelKind {
    /// The paper's model (Sec. V): piecewise ramps + Eq. 9 max — HSGD\*-M.
    Tailored,
    /// Qilin's linear model (paper \[11\]) — HSGD\*-Q.
    Qilin,
}

/// The algorithm variants evaluated in Sec. VII.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// FPSGD on CPU threads only (uniform grid).
    CpuOnly,
    /// cuMF-style GPUs only.
    GpuOnly,
    /// The straightforward hybrid: uniform grid, GPU as one more worker.
    Hsgd,
    /// Nonuniform division with the Qilin cost model, no dynamic phase.
    HsgdStarQ,
    /// Nonuniform division with our cost model, no dynamic phase.
    HsgdStarM,
    /// The full algorithm: our cost model + dynamic scheduling.
    HsgdStar,
}

impl Algorithm {
    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Algorithm::CpuOnly => "CPU-Only",
            Algorithm::GpuOnly => "GPU-Only",
            Algorithm::Hsgd => "HSGD",
            Algorithm::HsgdStarQ => "HSGD*-Q",
            Algorithm::HsgdStarM => "HSGD*-M",
            Algorithm::HsgdStar => "HSGD*",
        }
    }

    /// Whether this variant uses any GPU.
    pub fn uses_gpu(self) -> bool {
        !matches!(self, Algorithm::CpuOnly)
    }

    /// Whether this variant uses CPU workers for training.
    pub fn uses_cpu(self) -> bool {
        !matches!(self, Algorithm::GpuOnly)
    }
}

/// Full configuration of a heterogeneous training run.
#[derive(Debug, Clone)]
pub struct HeteroConfig {
    /// Factorization hyper-parameters.
    pub hyper: HyperParams,
    /// Number of CPU worker threads (`n_c`). Paper default: 16.
    pub nc: usize,
    /// Number of GPUs (`n_g`). Paper default: 1.
    pub ng: usize,
    /// GPU device description (identical per GPU).
    pub gpu: GpuSpec,
    /// CPU worker description.
    pub cpu: CpuSpec,
    /// Number of iterations (passes over every block).
    pub iterations: u32,
    /// Master seed: model init, shuffles, calibration noise.
    pub seed: u64,
    /// Enable the dynamic (work stealing) phase — HSGD\* vs HSGD\*-M.
    pub dynamic_scheduling: bool,
    /// Which cost model splits the workload.
    pub cost_model: CostModelKind,
    /// Record a test-RMSE probe every this many virtual seconds (None =
    /// probe once per iteration boundary). Virtual-time world only: the
    /// real-thread runtime probes at epoch boundaries (exclusive mode)
    /// or baseline + end (relaxed mode), because a wall-clock probe
    /// cadence would make the recorded series — and, via `target_rmse`,
    /// the stop point — timing-dependent, breaking exclusive mode's
    /// bit-determinism contract.
    pub probe_interval_secs: Option<f64>,
    /// Stop early once test RMSE reaches this value (the Sec. VII-A
    /// "predefined loss" protocol). Honored by the virtual-time world at
    /// every probe and by the real-thread exclusive mode at epoch
    /// boundaries (deterministically — the boundary positions do not
    /// depend on timing). The relaxed mode checks it only at the
    /// baseline probe: its free-running workers have no quiescent point
    /// where the model could be read safely mid-run.
    pub target_rmse: Option<f64>,
}

impl HeteroConfig {
    /// The paper's default rig: 16 CPU threads, one GPU with 128 parallel
    /// workers.
    pub fn paper_default(hyper: HyperParams) -> HeteroConfig {
        HeteroConfig {
            hyper,
            nc: 16,
            ng: 1,
            gpu: GpuSpec::quadro_p4000(),
            cpu: CpuSpec::default(),
            iterations: 20,
            seed: 42,
            dynamic_scheduling: true,
            cost_model: CostModelKind::Tailored,
            probe_interval_secs: None,
            target_rmse: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_spec_time_is_affine_in_points() {
        let c = CpuSpec::default();
        let t0 = c.time_secs(0);
        assert!((t0 - 2e-6).abs() < 1e-12);
        let t1m = c.time_secs(1_000_000);
        assert!((t1m - (0.2 + 2e-6)).abs() < 1e-9);
    }

    #[test]
    fn algorithm_labels_and_capabilities() {
        assert_eq!(Algorithm::HsgdStar.label(), "HSGD*");
        assert!(!Algorithm::CpuOnly.uses_gpu());
        assert!(Algorithm::CpuOnly.uses_cpu());
        assert!(!Algorithm::GpuOnly.uses_cpu());
        assert!(Algorithm::Hsgd.uses_cpu() && Algorithm::Hsgd.uses_gpu());
    }

    #[test]
    fn paper_default_matches_section_vii() {
        let cfg = HeteroConfig::paper_default(HyperParams::movielens(128));
        assert_eq!(cfg.nc, 16);
        assert_eq!(cfg.ng, 1);
        assert_eq!(cfg.gpu.parallel_workers, 128);
        assert!(cfg.dynamic_scheduling);
        assert_eq!(cfg.cost_model, CostModelKind::Tailored);
    }
}
