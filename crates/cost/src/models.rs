//! The concrete cost models.

/// A model estimating processing time (seconds) from a workload size
/// (points for compute, bytes for transfers).
pub trait CostModel {
    /// Estimated time in seconds to process `size` units.
    fn time_secs(&self, size: f64) -> f64;
}

/// Linear cost `t = a·size + b` — the Qilin assumption (paper \[11\]), used
/// for the CPU model and as the HSGD\*-Q baseline GPU model in Table II.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearCost {
    /// Seconds per unit.
    pub a: f64,
    /// Fixed overhead in seconds.
    pub b: f64,
}

impl LinearCost {
    /// Builds from slope/intercept.
    pub fn new(a: f64, b: f64) -> LinearCost {
        LinearCost { a, b }
    }
}

impl CostModel for LinearCost {
    fn time_secs(&self, size: f64) -> f64 {
        (self.a * size + self.b).max(0.0)
    }
}

/// The ramp family used below the stability threshold. The paper uses two
/// members: `a·ln x + b` (kernel throughput) and `a·√(ln x) + b`
/// (transfer speed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RampKind {
    /// Throughput `= a·ln(size) + b`.
    Log,
    /// Throughput `= a·√(ln size) + b`.
    SqrtLog,
}

/// Two-stage piecewise cost (paper Sec. V-B):
///
/// ```text
/// t(size) = size / ramp(size)          if size ≤ τ
///         = a₂·size + b₂               otherwise
/// ```
///
/// where `ramp` is a fitted *speed* curve and the second stage is a fitted
/// linear *time* model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RampCost {
    /// Which ramp family stage 1 uses.
    pub kind: RampKind,
    /// Stage-1 speed slope.
    pub ramp_a: f64,
    /// Stage-1 speed intercept.
    pub ramp_b: f64,
    /// Stability threshold τ (same units as `size`).
    pub tau: f64,
    /// Stage-2 linear time model.
    pub linear: LinearCost,
    /// Floor on modeled speed, units/second (guards the ramp's left tail
    /// where `a·ln x + b` can go non-positive).
    pub min_speed: f64,
}

impl RampCost {
    /// Modeled *speed* at `size`, units per second.
    pub fn speed(&self, size: f64) -> f64 {
        let x = size.max(2.0);
        let raw = match self.kind {
            RampKind::Log => self.ramp_a * x.ln() + self.ramp_b,
            RampKind::SqrtLog => self.ramp_a * x.ln().sqrt() + self.ramp_b,
        };
        raw.max(self.min_speed)
    }
}

impl CostModel for RampCost {
    fn time_secs(&self, size: f64) -> f64 {
        if size <= 0.0 {
            return 0.0;
        }
        if size <= self.tau {
            size / self.speed(size)
        } else {
            self.linear.time_secs(size)
        }
    }
}

/// The paper's overall GPU cost (Eq. 9): the **maximum** of the
/// host-to-device transfer time and the kernel execution time, because the
/// three-stream pipeline overlaps them and D2H is strictly smaller.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuCost {
    /// Transfer model over *bytes*.
    pub transfer: RampCost,
    /// Kernel model over *points*.
    pub kernel: RampCost,
    /// Wire bytes shipped per rating point (entry payload + amortized
    /// factor segments).
    pub bytes_per_point: f64,
}

impl GpuCost {
    /// Estimated time for `points` ratings (Eq. 9).
    pub fn time_for_points(&self, points: f64) -> f64 {
        let bytes = points * self.bytes_per_point;
        self.transfer
            .time_secs(bytes)
            .max(self.kernel.time_secs(points))
    }
}

impl CostModel for GpuCost {
    fn time_secs(&self, points: f64) -> f64 {
        self.time_for_points(points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp() -> RampCost {
        RampCost {
            kind: RampKind::Log,
            ramp_a: 10.0,
            ramp_b: -50.0,
            tau: 1e6,
            linear: LinearCost::new(1e-8, 0.001),
            min_speed: 1.0,
        }
    }

    #[test]
    fn linear_cost_is_affine() {
        let c = LinearCost::new(2.0, 1.0);
        assert_eq!(c.time_secs(0.0), 1.0);
        assert_eq!(c.time_secs(10.0), 21.0);
        // Never negative even with weird fits.
        let c2 = LinearCost::new(1.0, -5.0);
        assert_eq!(c2.time_secs(1.0), 0.0);
    }

    #[test]
    fn ramp_cost_switches_at_tau() {
        let c = ramp();
        // Below τ: time = size / (10·ln size − 50).
        let s: f64 = 1e5;
        let expect = s / (10.0 * s.ln() - 50.0);
        assert!((c.time_secs(s) - expect).abs() < 1e-12);
        // Above τ: linear.
        let s2 = 1e7;
        assert!((c.time_secs(s2) - (1e-8 * s2 + 0.001)).abs() < 1e-15);
    }

    #[test]
    fn ramp_speed_floor_guards_left_tail() {
        let c = RampCost {
            ramp_a: 1.0,
            ramp_b: -100.0, // very negative at small sizes
            ..ramp()
        };
        assert!(c.speed(4.0) >= 1.0);
        assert!(c.time_secs(4.0).is_finite());
    }

    #[test]
    fn ramp_zero_size_is_free() {
        assert_eq!(ramp().time_secs(0.0), 0.0);
    }

    #[test]
    fn gpu_cost_takes_stage_max() {
        // Force the transfer to dominate at one size and the kernel at
        // another.
        let transfer = RampCost {
            kind: RampKind::SqrtLog,
            ramp_a: 0.0,
            ramp_b: 1e9, // constant 1 GB/s
            tau: f64::INFINITY,
            linear: LinearCost::new(0.0, 0.0),
            min_speed: 1.0,
        };
        let kernel = RampCost {
            kind: RampKind::Log,
            ramp_a: 0.0,
            ramp_b: 1e6, // constant 1M pts/s
            tau: f64::INFINITY,
            linear: LinearCost::new(0.0, 0.0),
            min_speed: 1.0,
        };
        // 12 bytes/pt → transfer of N pts takes 12N/1e9 s; kernel N/1e6 s.
        // Kernel dominates (N/1e6 > 12N/1e9).
        let g = GpuCost {
            transfer,
            kernel,
            bytes_per_point: 12.0,
        };
        let n = 1e6;
        assert!((g.time_for_points(n) - 1.0).abs() < 1e-9);

        // Fat payload: 10 KB per point → transfer dominates.
        let g2 = GpuCost {
            bytes_per_point: 10_000.0,
            ..g
        };
        assert!((g2.time_for_points(n) - 10.0).abs() < 1e-9);
    }
}
