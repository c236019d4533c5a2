//! Run reports and scheduling statistics.

/// Serving-staleness instrument: the distribution of the **epoch lag** a
/// reader observes — how many epochs the trainer is ahead of the version
/// currently being served. Lags are small integers (a healthy live loop
/// sits at 0 or 1), so this is an exact linear-bucket counter: one
/// bucket per lag up to [`EpochLag::MAX_TRACKED`], plus an overflow
/// bucket reported as the maximum recorded lag. `record` is O(1); quantiles are exact
/// nearest-rank values (no bucket overshoot) for every tracked lag.
#[derive(Debug, Clone)]
pub struct EpochLag {
    /// `counts[lag]` for `lag ≤ MAX_TRACKED`.
    counts: Vec<u64>,
    /// Samples beyond the tracked range.
    overflow: u64,
    total: u64,
    max: u64,
}

impl Default for EpochLag {
    fn default() -> Self {
        EpochLag::new()
    }
}

impl EpochLag {
    /// Largest lag tracked exactly; anything beyond lands in overflow
    /// (and is reported as the recorded maximum).
    pub const MAX_TRACKED: u64 = 64;

    /// An empty lag distribution.
    pub fn new() -> EpochLag {
        EpochLag {
            counts: vec![0; Self::MAX_TRACKED as usize + 1],
            overflow: 0,
            total: 0,
            max: 0,
        }
    }

    /// Records one observed lag (in epochs).
    pub fn record(&mut self, lag: u64) {
        if lag <= Self::MAX_TRACKED {
            self.counts[lag as usize] += 1;
        } else {
            self.overflow += 1;
        }
        self.total += 1;
        self.max = self.max.max(lag);
    }

    /// Adds `other`'s counts into `self` (per-thread instruments merge
    /// exactly — the grids are identical by construction).
    pub fn merge(&mut self, other: &EpochLag) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.overflow += other.overflow;
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (`0 < q ≤ 1`) by the nearest-rank rule — exact
    /// for tracked lags, the recorded maximum when the rank falls in
    /// overflow. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile needs q in [0, 1]");
        if self.total == 0 {
            return 0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (lag, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return lag as u64;
            }
        }
        self.max
    }

    /// Median lag.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th-percentile lag.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Largest recorded lag (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }
}

/// Distribution statistics over per-block update counts — the measurement
/// behind the paper's Example 3 (HSGD's skewed updates) and Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImbalanceStats {
    /// Smallest per-block count.
    pub min: u32,
    /// Largest per-block count.
    pub max: u32,
    /// Mean count.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Coefficient of variation (`std / mean`); 0 = perfectly balanced.
    pub cv: f64,
    /// Gini coefficient of the count distribution; 0 = perfectly equal.
    pub gini: f64,
}

impl ImbalanceStats {
    /// Computes the statistics from raw counts.
    pub fn from_counts(counts: &[u32]) -> ImbalanceStats {
        assert!(!counts.is_empty(), "no blocks");
        let n = counts.len() as f64;
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        let mean = counts.iter().map(|&c| c as f64).sum::<f64>() / n;
        let var = counts
            .iter()
            .map(|&c| (c as f64 - mean).powi(2))
            .sum::<f64>()
            / n;
        let std = var.sqrt();
        let cv = if mean > 0.0 { std / mean } else { 0.0 };

        // Gini via the sorted-rank formula.
        let mut sorted: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let total: f64 = sorted.iter().sum();
        let gini = if total > 0.0 {
            let weighted: f64 = sorted
                .iter()
                .enumerate()
                .map(|(i, &x)| (2.0 * (i as f64 + 1.0) - n - 1.0) * x)
                .sum();
            weighted / (n * total)
        } else {
            0.0
        };
        ImbalanceStats {
            min,
            max,
            mean,
            std,
            cv,
            gini,
        }
    }
}

/// Everything a training run reports — the raw material for every figure
/// and table in the evaluation.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Algorithm label (paper naming).
    pub algorithm: String,
    /// Virtual time when all passes completed (or when the run stopped).
    pub virtual_secs: f64,
    /// Virtual time at which test RMSE first reached the target, if a
    /// target was set and reached.
    pub time_to_target_secs: Option<f64>,
    /// Test RMSE at the end of the run.
    pub final_test_rmse: f64,
    /// `(virtual_time, test_rmse)` probes over the run.
    pub rmse_series: Vec<(f64, f64)>,
    /// Per-block update counts at the end (row-major over the grid).
    pub update_counts: Vec<u32>,
    /// The planned GPU workload share α (HSGD\* variants).
    pub alpha_planned: Option<f64>,
    /// Ratings of the tasks GPU devices released. Released tasks only, in
    /// both worlds: a task lost with a failed seat counts once, for the
    /// seat that redoes it, and a task that never ran not at all.
    pub gpu_points: u64,
    /// Ratings of the tasks CPU workers released (released tasks only).
    pub cpu_points: u64,
    /// Cross-region (dynamic phase) task assignments.
    pub steals: u64,
    /// Total busy seconds of the tasks CPU workers released (released
    /// tasks only).
    pub cpu_busy_secs: f64,
    /// Total kernel-busy seconds of the tasks GPUs released (released
    /// tasks only).
    pub gpu_busy_secs: f64,
    /// Configured iterations.
    pub iterations: u32,
    /// Total block passes completed.
    pub total_passes: u64,
    /// Throughputs measured by a real-thread execution world (None for
    /// virtual-time runs, whose durations are modeled, not measured).
    pub measured: Option<crate::executor::MeasuredThroughput>,
    /// Spill-backed block cache counters at the end of the run (None for
    /// fully in-RAM partitions).
    pub spill: Option<mf_sparse::SpillCounters>,
}

impl RunReport {
    /// Update-count imbalance of this run.
    pub fn imbalance(&self) -> ImbalanceStats {
        ImbalanceStats::from_counts(&self.update_counts)
    }

    /// Fraction of processed ratings handled by the GPU.
    pub fn gpu_share(&self) -> f64 {
        let total = self.gpu_points + self.cpu_points;
        if total == 0 {
            0.0
        } else {
            self.gpu_points as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    mod epoch_lag {
        use crate::stats::EpochLag;

        #[test]
        fn quantiles_are_exact_and_merge_adds() {
            let mut a = EpochLag::new();
            for _ in 0..98 {
                a.record(0);
            }
            a.record(1);
            a.record(3);
            assert_eq!(a.count(), 100);
            assert_eq!(a.p50(), 0);
            assert_eq!(a.p99(), 1);
            assert_eq!(a.quantile(1.0), 3);
            assert_eq!(a.max(), 3);

            let mut b = EpochLag::new();
            for _ in 0..300 {
                b.record(5);
            }
            a.merge(&b);
            assert_eq!(a.count(), 400);
            assert_eq!(a.p50(), 5);
            assert_eq!(a.max(), 5);
        }

        #[test]
        fn overflow_reports_recorded_max() {
            let mut h = EpochLag::new();
            h.record(EpochLag::MAX_TRACKED + 100);
            assert_eq!(h.p50(), EpochLag::MAX_TRACKED + 100);
            assert_eq!(h.max(), EpochLag::MAX_TRACKED + 100);
            // Empty distribution is all zeros, not NaN-ish.
            assert_eq!(EpochLag::new().p99(), 0);
        }
    }

    use super::*;

    #[test]
    fn balanced_counts_have_zero_spread() {
        let s = ImbalanceStats::from_counts(&[5, 5, 5, 5]);
        assert_eq!(s.min, 5);
        assert_eq!(s.max, 5);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.cv, 0.0);
        assert!(s.gini.abs() < 1e-12);
    }

    #[test]
    fn skewed_counts_show_up_in_every_metric() {
        let balanced = ImbalanceStats::from_counts(&[10, 10, 10, 10]);
        let skewed = ImbalanceStats::from_counts(&[1, 1, 1, 37]);
        assert!(skewed.std > balanced.std);
        assert!(skewed.cv > 1.0);
        assert!(skewed.gini > 0.5);
        assert_eq!(skewed.max, 37);
        assert_eq!(skewed.min, 1);
    }

    #[test]
    fn gini_known_value() {
        // Two blocks, one gets everything: Gini = (n−1)/n · … for [0, x]
        // the coefficient is 0.5.
        let s = ImbalanceStats::from_counts(&[0, 10]);
        assert!((s.gini - 0.5).abs() < 1e-12);
    }

    #[test]
    fn all_zero_counts() {
        let s = ImbalanceStats::from_counts(&[0, 0, 0]);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.cv, 0.0);
        assert_eq!(s.gini, 0.0);
    }

    #[test]
    fn gpu_share() {
        let mut r = RunReport {
            algorithm: "x".into(),
            virtual_secs: 1.0,
            time_to_target_secs: None,
            final_test_rmse: 0.0,
            rmse_series: vec![],
            update_counts: vec![1],
            alpha_planned: None,
            gpu_points: 30,
            cpu_points: 70,
            steals: 0,
            cpu_busy_secs: 0.0,
            gpu_busy_secs: 0.0,
            iterations: 1,
            total_passes: 1,
            measured: None,
            spill: None,
        };
        assert!((r.gpu_share() - 0.3).abs() < 1e-12);
        r.gpu_points = 0;
        r.cpu_points = 0;
        assert_eq!(r.gpu_share(), 0.0);
    }
}
