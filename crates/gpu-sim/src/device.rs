//! The composed virtual GPU device.

use std::ops::Range;

use mf_des::SimTime;
use mf_sgd::SharedModel;
use mf_sparse::Rating;

use crate::kernel_model::KernelModel;
use crate::memory::{GlobalMemory, GpuMemError};
use crate::simt::{KernelBlock, SimtKernel};
use crate::spec::GpuSpec;
use crate::stream::{PipelineTimes, StreamPipeline};
use crate::transfer::{Direction, PcieBus};

/// Timing breakdown of one processed block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockCost {
    /// Bytes copied host → device for this block.
    pub h2d_bytes: u64,
    /// Bytes copied device → host.
    pub d2h_bytes: u64,
    /// Host-to-device copy duration.
    pub t_h2d: SimTime,
    /// Kernel execution duration.
    pub t_kernel: SimTime,
    /// Device-to-host copy duration.
    pub t_d2h: SimTime,
    /// Pipeline completion breakdown (absolute virtual times).
    pub times: PipelineTimes,
}

/// A virtual GPU: performance models + pipeline state + memory + the SIMT
/// kernel that does the real arithmetic.
#[derive(Debug, Clone)]
pub struct GpuDevice {
    spec: GpuSpec,
    bus: PcieBus,
    kernel_model: KernelModel,
    kernel: SimtKernel,
    pipeline: StreamPipeline,
    memory: GlobalMemory,
    /// `P`-rows kept resident on the device (the static-phase optimization
    /// of Sec. VI-A: a GPU pinned to specific grid rows never re-transfers
    /// its `P` segment).
    resident_p_rows: Option<Range<u32>>,
    /// Bytes pinned by the resident segment.
    resident_bytes: u64,
    /// Total ratings processed (statistics).
    points_processed: u64,
}

impl GpuDevice {
    /// Creates a device from a spec.
    pub fn new(spec: GpuSpec) -> GpuDevice {
        GpuDevice {
            bus: PcieBus::new(&spec),
            kernel_model: KernelModel::new(&spec),
            kernel: SimtKernel::new(&spec),
            pipeline: StreamPipeline::new(),
            memory: GlobalMemory::new(spec.global_memory_bytes),
            resident_p_rows: None,
            resident_bytes: 0,
            points_processed: 0,
            spec,
        }
    }

    /// The device's spec.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// The kernel-throughput model (probing, cost calibration).
    pub fn kernel_model(&self) -> &KernelModel {
        &self.kernel_model
    }

    /// The PCIe bus models (probing, cost calibration).
    pub fn bus(&self) -> &PcieBus {
        &self.bus
    }

    /// Memory accounting.
    pub fn memory(&self) -> &GlobalMemory {
        &self.memory
    }

    /// Total ratings processed so far.
    pub fn points_processed(&self) -> u64 {
        self.points_processed
    }

    /// Pins a `P`-row segment as resident (static phase). Charges device
    /// memory for it; any previously resident segment is released.
    pub fn pin_p_rows(&mut self, rows: Range<u32>, k: usize) -> Result<(), GpuMemError> {
        self.unpin_p_rows();
        let bytes = (rows.end - rows.start) as u64 * k as u64 * 4;
        self.memory.alloc(bytes)?;
        self.resident_p_rows = Some(rows);
        self.resident_bytes = bytes;
        Ok(())
    }

    /// Releases the resident segment (entering the dynamic phase).
    pub fn unpin_p_rows(&mut self) {
        if self.resident_p_rows.take().is_some() {
            self.memory.free(self.resident_bytes);
            self.resident_bytes = 0;
        }
    }

    /// Whether `rows` is fully covered by the resident segment.
    fn p_rows_resident(&self, rows: &Range<u32>) -> bool {
        match &self.resident_p_rows {
            Some(res) => res.start <= rows.start && rows.end <= res.end,
            None => false,
        }
    }

    /// Processes a task: runs the real SGD arithmetic on `model` slice by
    /// slice, in order, and advances the stream pipeline, returning the
    /// timing breakdown and the squared-error sum. A multi-slice task
    /// (an HSGD\* static-phase GPU task's sub-row blocks) ships as one
    /// transfer and runs as one kernel launch, timed like a single block
    /// of the combined size.
    ///
    /// `transfer` names the task's `P` rows and `Q` columns. Transfer
    /// accounting then matches the paper's model:
    /// * H2D: the ratings, the `Q` column segment, and the `P` row
    ///   segment unless resident.
    /// * D2H: the updated `Q` segment (plus `P` if not resident). Strictly
    ///   smaller than H2D — the ratings never come back — which is why
    ///   Eq. 9 ignores `f^{g⇒c}`.
    ///
    /// `None` is the fully resident regime (the cuMF single-GPU regime:
    /// R, P and Q bulk-loaded once): no transfer, no transient
    /// footprint, only kernel time, so the pipeline degenerates to
    /// back-to-back kernels.
    ///
    /// # Safety
    ///
    /// For the duration of the call, no other thread may access the
    /// factor rows of any user or item appearing in `blocks` (the
    /// scheduler's conflict-freedom invariant for an in-flight task).
    ///
    /// # Errors
    ///
    /// Fails (without side effects) if the task footprint exceeds device
    /// memory.
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn process_task(
        &mut self,
        now: SimTime,
        model: &SharedModel<'_>,
        blocks: &[KernelBlock<'_>],
        transfer: Option<(Range<u32>, Range<u32>)>,
        gamma: f32,
        lambda_p: f32,
        lambda_q: f32,
    ) -> Result<(BlockCost, f64), GpuMemError> {
        let total_points: usize = blocks.iter().map(|b| b.ratings.len()).sum();
        let t_kernel = self.kernel_model.time_for(total_points as u64);
        let (h2d_bytes, d2h_bytes, footprint) = match &transfer {
            None => (0, 0, 0),
            Some((p_rows, q_cols)) => {
                let k = model.k() as u64;
                let block_bytes = (total_points * Rating::WIRE_BYTES) as u64;
                let p_bytes = if self.p_rows_resident(p_rows) {
                    0
                } else {
                    (p_rows.end - p_rows.start) as u64 * k * 4
                };
                let q_bytes = (q_cols.end - q_cols.start) as u64 * k * 4;
                // Transient footprint: in-flight buffers (double-buffered
                // by the stream pipeline → ×2).
                (
                    block_bytes + q_bytes + p_bytes,
                    q_bytes + p_bytes,
                    2 * (block_bytes + q_bytes) + p_bytes,
                )
            }
        };
        self.memory.alloc(footprint)?;
        let (t_h2d, t_d2h) = match transfer {
            None => (SimTime::ZERO, SimTime::ZERO),
            Some(_) => (
                self.bus.time_for(Direction::HostToDevice, h2d_bytes),
                self.bus.time_for(Direction::DeviceToHost, d2h_bytes),
            ),
        };
        let times = self.pipeline.submit(now, t_h2d, t_kernel, t_d2h);

        let mut sq_err = 0.0;
        for &block in blocks {
            // SAFETY: forwarded caller contract.
            sq_err += unsafe { self.kernel.execute(model, block, gamma, lambda_p, lambda_q) };
        }
        self.points_processed += total_points as u64;

        self.memory.free(footprint);
        Ok((
            BlockCost {
                h2d_bytes,
                d2h_bytes,
                t_h2d,
                t_kernel,
                t_d2h,
                times,
            },
            sq_err,
        ))
    }

    /// Resets pipeline and statistics for a fresh run (keeps resident
    /// pinning).
    pub fn reset(&mut self) {
        self.pipeline.reset();
        self.points_processed = 0;
    }

    /// Single-shot end-to-end probe: the time to ship `points` ratings and
    /// run the kernel once on an idle device, as used for the Fig. 3(a)
    /// throughput measurements. Does not disturb pipeline state.
    pub fn probe_end_to_end_secs(&self, points: u64, extra_bytes: u64) -> f64 {
        let bytes = points * Rating::WIRE_BYTES as u64 + extra_bytes;
        let t_h2d = self.bus.time_for(Direction::HostToDevice, bytes);
        let t_kernel = self.kernel_model.time_for(points);
        // Single shot: no overlap possible for the first block.
        (t_h2d + t_kernel).as_secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use mf_sgd::Model;
    use mf_sparse::SoaRatings;

    fn device() -> GpuDevice {
        GpuDevice::new(GpuSpec::default())
    }

    fn block(n: u32) -> SoaRatings {
        let entries: Vec<Rating> = (0..n).map(|i| Rating::new(i % 8, i % 8, 3.0)).collect();
        SoaRatings::from_entries(&entries)
    }

    /// Runs `b` on `dev` as a one-block task at time zero, γ = 0.01.
    fn run(
        dev: &mut GpuDevice,
        model: &mut Model,
        b: &SoaRatings,
        transfer: Option<(Range<u32>, Range<u32>)>,
        lambda: f32,
    ) -> Result<(BlockCost, f64), GpuMemError> {
        let shared = SharedModel::new(model);
        let blocks = [b.as_slices().into()];
        // SAFETY: `model` is exclusively borrowed for the whole call.
        unsafe {
            dev.process_task(
                SimTime::ZERO,
                &shared,
                &blocks,
                transfer,
                0.01,
                lambda,
                lambda,
            )
        }
    }

    #[test]
    fn processing_updates_model_and_time() {
        let mut dev = device();
        let mut model = Model::init(8, 8, 4, 1);
        let before = model.clone();
        let (cost, sq) = run(&mut dev, &mut model, &block(100), Some((0..8, 0..8)), 0.05).unwrap();
        assert_ne!(model, before, "kernel must actually update factors");
        assert!(sq > 0.0);
        assert!(cost.times.done > SimTime::ZERO);
        assert!(cost.t_kernel > SimTime::ZERO);
        assert_eq!(dev.points_processed(), 100);
    }

    #[test]
    fn resident_p_rows_skip_transfer() {
        let mut dev = device();
        let mut model = Model::init(64, 64, 16, 2);
        let b = block(10);
        let (cost_cold, _) = run(&mut dev, &mut model, &b, Some((0..32, 0..8)), 0.0).unwrap();
        dev.pin_p_rows(0..32, 16).unwrap();
        let (cost_warm, _) = run(&mut dev, &mut model, &b, Some((0..32, 0..8)), 0.0).unwrap();
        let p_bytes = 32 * 16 * 4;
        assert_eq!(cost_cold.h2d_bytes - cost_warm.h2d_bytes, p_bytes);
        assert_eq!(cost_cold.d2h_bytes - cost_warm.d2h_bytes, p_bytes);
    }

    #[test]
    fn fully_resident_tasks_charge_kernel_time_only() {
        // No transfer: no bytes either way, no copy time, no footprint,
        // and back-to-back tasks finish one kernel apart.
        let mut dev = device();
        let mut model = Model::init(8, 8, 4, 6);
        let before = model.clone();
        let b = block(5_000);
        let (c1, sq) = run(&mut dev, &mut model, &b, None, 0.0).unwrap();
        let (c2, _) = run(&mut dev, &mut model, &b, None, 0.0).unwrap();
        assert_ne!(model, before, "the kernel still runs");
        assert!(sq > 0.0);
        for c in [c1, c2] {
            assert_eq!((c.h2d_bytes, c.d2h_bytes), (0, 0));
            assert_eq!((c.t_h2d, c.t_d2h), (SimTime::ZERO, SimTime::ZERO));
            assert_eq!(c.t_kernel, dev.kernel_model().time_for(5_000));
        }
        assert_eq!(c1.times.done, c1.t_kernel);
        assert_eq!(c2.times.done - c1.times.done, c1.t_kernel);
        assert_eq!(dev.memory().high_water(), 0, "no transient footprint");
        assert_eq!(dev.points_processed(), 10_000);
    }

    #[test]
    fn pin_and_unpin_track_memory() {
        let mut dev = device();
        assert_eq!(dev.memory().in_use(), 0);
        dev.pin_p_rows(0..1000, 32).unwrap();
        assert_eq!(dev.memory().in_use(), 1000 * 32 * 4);
        dev.unpin_p_rows();
        assert_eq!(dev.memory().in_use(), 0);
    }

    #[test]
    fn oom_is_reported_without_side_effects() {
        let spec = GpuSpec {
            global_memory_bytes: 1024, // pathologically tiny device
            ..GpuSpec::default()
        };
        let mut dev = GpuDevice::new(spec);
        let mut model = Model::init(8, 8, 4, 3);
        let err = run(&mut dev, &mut model, &block(1000), Some((0..8, 0..8)), 0.0);
        assert!(err.is_err());
        assert_eq!(dev.memory().in_use(), 0);
        assert_eq!(dev.points_processed(), 0);
    }

    #[test]
    fn pipeline_overlap_across_blocks() {
        // Second block's completion increment should be < the cold serial
        // time, because its H2D copy overlaps the first kernel.
        let mut dev = device();
        let mut model = Model::init(8, 8, 4, 4);
        let b = block(50_000);
        let (c1, _) = run(&mut dev, &mut model, &b, Some((0..8, 0..8)), 0.0).unwrap();
        let (c2, _) = run(&mut dev, &mut model, &b, Some((0..8, 0..8)), 0.0).unwrap();
        let serial = (c1.t_h2d + c1.t_kernel + c1.t_d2h).as_secs();
        let increment = (c2.times.done - c1.times.done).as_secs();
        assert!(
            increment < serial,
            "pipeline must overlap: increment {increment} vs serial {serial}"
        );
    }

    #[test]
    fn probe_matches_models() {
        let dev = device();
        let t = dev.probe_end_to_end_secs(1000, 0);
        let expect = dev
            .bus()
            .time_for(Direction::HostToDevice, 1000 * Rating::WIRE_BYTES as u64)
            .as_secs()
            + dev.kernel_model().time_for(1000).as_secs();
        assert!((t - expect).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_pipeline_and_stats() {
        let mut dev = device();
        let mut model = Model::init(8, 8, 4, 5);
        let b = block(10);
        run(&mut dev, &mut model, &b, Some((0..8, 0..8)), 0.0).unwrap();
        dev.reset();
        assert_eq!(dev.points_processed(), 0);
        let (cost, _) = run(&mut dev, &mut model, &b, Some((0..8, 0..8)), 0.0).unwrap();
        assert_eq!(cost.times.h2d_done, cost.t_h2d, "pipeline starts idle");
    }
}
