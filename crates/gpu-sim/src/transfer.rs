//! The PCIe transfer-speed model (paper Fig. 6).
//!
//! Measured transfer speed on the paper's testbed grows steeply for small
//! payloads (launch overhead and write-combining dominate) and plateaus at
//! the bus limit. The paper models the ramp as `a·√(log|R|) + b`; our
//! ground-truth curve uses exactly that family, anchored at the two
//! calibration points visible in Fig. 6 — (64 KB, 2.5 GB/s) and
//! (256 MB, 12.5 GB/s) — and clamped to the plateau beyond saturation.

use mf_des::SimTime;

use crate::spec::GpuSpec;

/// Direction of a PCIe transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Host (CPU) to device (GPU) — the paper's `f^{c⇒g}`.
    HostToDevice,
    /// Device to host — `f^{g⇒c}`.
    DeviceToHost,
}

/// A fitted `speed(bytes) = a·√(log₂ bytes) + b` ramp with a plateau.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferModel {
    a: f64,
    b: f64,
    /// Plateau bandwidth in bytes/second.
    peak_bps: f64,
    /// Bytes beyond which the plateau applies.
    saturation_bytes: f64,
    /// Floor so degenerate tiny transfers never divide by ≤0 speed.
    min_bps: f64,
}

impl TransferModel {
    /// Builds the model from two anchor points `(bytes, GB/s)` and a peak.
    pub fn from_anchors(
        small: (f64, f64),
        saturation: (f64, f64),
        peak_gbps: f64,
    ) -> TransferModel {
        let (s1, v1) = small;
        let (s2, v2) = saturation;
        assert!(s1 > 1.0 && s2 > s1, "anchor sizes must grow");
        let x1 = s1.log2().sqrt();
        let x2 = s2.log2().sqrt();
        let a = (v2 - v1) / (x2 - x1);
        let b = v1 - a * x1;
        TransferModel {
            a,
            b,
            peak_bps: peak_gbps * 1e9,
            saturation_bytes: s2,
            min_bps: 0.05e9,
        }
    }

    /// The H2D model implied by a [`GpuSpec`].
    pub fn host_to_device(spec: &GpuSpec) -> TransferModel {
        TransferModel::from_anchors(
            (spec.pcie_small_bytes, spec.pcie_small_gbps),
            (spec.pcie_saturation_bytes, spec.pcie_peak_gbps),
            spec.pcie_peak_gbps,
        )
    }

    /// The D2H model implied by a [`GpuSpec`] (slightly lower plateau, as
    /// on real hardware and in Fig. 6(b)).
    pub fn device_to_host(spec: &GpuSpec) -> TransferModel {
        let ratio = spec.pcie_d2h_peak_gbps / spec.pcie_peak_gbps;
        TransferModel::from_anchors(
            (spec.pcie_small_bytes, spec.pcie_small_gbps * ratio),
            (spec.pcie_saturation_bytes, spec.pcie_d2h_peak_gbps),
            spec.pcie_d2h_peak_gbps,
        )
    }

    /// Modeled transfer speed for a payload of `bytes`, in bytes/second.
    pub fn speed_bps(&self, bytes: f64) -> f64 {
        if bytes <= 1.0 {
            return self.min_bps;
        }
        let ramp = if bytes >= self.saturation_bytes {
            self.peak_bps
        } else {
            (self.a * bytes.log2().sqrt() + self.b) * 1e9
        };
        ramp.clamp(self.min_bps, self.peak_bps)
    }

    /// Modeled transfer speed in GB/s (the Fig. 6 axis).
    pub fn speed_gbps(&self, bytes: f64) -> f64 {
        self.speed_bps(bytes) / 1e9
    }

    /// Modeled time to move `bytes` across the bus.
    pub fn time_for(&self, bytes: u64) -> SimTime {
        if bytes == 0 {
            return SimTime::ZERO;
        }
        SimTime::from_secs(bytes as f64 / self.speed_bps(bytes as f64))
    }
}

/// Convenience: both directions derived from one spec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcieBus {
    /// Host-to-device model.
    pub h2d: TransferModel,
    /// Device-to-host model.
    pub d2h: TransferModel,
}

impl PcieBus {
    /// Builds both directions from a device spec.
    pub fn new(spec: &GpuSpec) -> PcieBus {
        PcieBus {
            h2d: TransferModel::host_to_device(spec),
            d2h: TransferModel::device_to_host(spec),
        }
    }

    /// Time for a transfer in `dir`.
    pub fn time_for(&self, dir: Direction, bytes: u64) -> SimTime {
        match dir {
            Direction::HostToDevice => self.h2d.time_for(bytes),
            Direction::DeviceToHost => self.d2h.time_for(bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> TransferModel {
        TransferModel::host_to_device(&GpuSpec::default())
    }

    #[test]
    fn anchors_are_reproduced() {
        let m = model();
        assert!((m.speed_gbps(64.0 * 1024.0) - 2.5).abs() < 0.01);
        assert!((m.speed_gbps(256.0 * 1024.0 * 1024.0) - 12.5).abs() < 0.01);
    }

    #[test]
    fn speed_is_monotone_in_size() {
        let m = model();
        let sizes = [1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9];
        for w in sizes.windows(2) {
            assert!(
                m.speed_gbps(w[1]) >= m.speed_gbps(w[0]) - 1e-12,
                "speed should not decrease with size"
            );
        }
    }

    #[test]
    fn plateau_beyond_saturation() {
        let m = model();
        assert_eq!(m.speed_gbps(1e9), 12.5);
        assert_eq!(m.speed_gbps(1e10), 12.5);
    }

    #[test]
    fn small_transfers_cannot_exploit_bandwidth() {
        // The Observation-1 mechanism: shipping 64 KB takes far longer per
        // byte than shipping 256 MB.
        let m = model();
        let per_byte_small = m.time_for(64 * 1024).as_secs() / (64.0 * 1024.0);
        let per_byte_big = m.time_for(256 * 1024 * 1024).as_secs() / (256.0 * 1024.0 * 1024.0);
        assert!(per_byte_small > 4.0 * per_byte_big);
    }

    #[test]
    fn zero_bytes_is_instant() {
        assert_eq!(model().time_for(0), SimTime::ZERO);
    }

    #[test]
    fn d2h_slower_than_h2d_at_peak() {
        let bus = PcieBus::new(&GpuSpec::default());
        let big = 1u64 << 30;
        assert!(
            bus.time_for(Direction::DeviceToHost, big) > bus.time_for(Direction::HostToDevice, big)
        );
    }

    #[test]
    fn time_scales_roughly_linearly_when_saturated() {
        let m = model();
        let t1 = m.time_for(1 << 30).as_secs();
        let t2 = m.time_for(1 << 31).as_secs();
        assert!((t2 / t1 - 2.0).abs() < 0.01);
    }
}
