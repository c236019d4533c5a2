//! The three-stream copy/compute/copy-back pipeline (paper Fig. 8, Eq. 9).
//!
//! cuMF_SGD issues each block's work on three CUDA streams: host-to-device
//! copy, kernel execution, and device-to-host copy. Commands within a
//! stream serialize; across streams they overlap. For a sequence of block
//! tasks this is a classic 3-stage pipeline, whose completion times follow
//! the recurrence
//!
//! ```text
//! h2d_done[i]    = max(h2d_free,    submit[i]) + t_h2d[i]
//! kernel_done[i] = max(kernel_free, h2d_done[i]) + t_kernel[i]
//! d2h_done[i]    = max(d2h_free,    kernel_done[i]) + t_d2h[i]
//! ```
//!
//! In steady state the per-block cost converges to
//! `max(t_h2d, t_kernel, t_d2h)` — which, because the D2H payload is
//! strictly smaller than the H2D payload (no need to copy ratings back),
//! reduces to the paper's Eq. 9: `f_g = max(f^{c⇒g}, f^{kernel})`.

use mf_des::SimTime;

/// Mutable pipeline state of one GPU: when each stream frees up.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamPipeline {
    h2d_free: SimTime,
    kernel_free: SimTime,
    d2h_free: SimTime,
}

/// Completion breakdown of one submitted block task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineTimes {
    /// When the block's input finished copying to the device.
    pub h2d_done: SimTime,
    /// When the kernel finished.
    pub kernel_done: SimTime,
    /// When the results finished copying back — the block's completion.
    pub done: SimTime,
}

impl StreamPipeline {
    /// A pipeline with all streams idle at time zero.
    pub fn new() -> StreamPipeline {
        StreamPipeline::default()
    }

    /// Submits one block task at `now` with per-stage durations. Returns
    /// the completion breakdown and advances the stream-free times.
    pub fn submit(
        &mut self,
        now: SimTime,
        t_h2d: SimTime,
        t_kernel: SimTime,
        t_d2h: SimTime,
    ) -> PipelineTimes {
        let h2d_done = self.h2d_free.max(now) + t_h2d;
        let kernel_done = self.kernel_free.max(h2d_done) + t_kernel;
        let d2h_done = self.d2h_free.max(kernel_done) + t_d2h;
        self.h2d_free = h2d_done;
        self.kernel_free = kernel_done;
        self.d2h_free = d2h_done;
        PipelineTimes {
            h2d_done,
            kernel_done,
            done: d2h_done,
        }
    }

    /// When the device will have fully drained all submitted work.
    pub fn drained_at(&self) -> SimTime {
        self.d2h_free
    }

    /// Resets all streams to idle (new training run).
    pub fn reset(&mut self) {
        *self = StreamPipeline::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn single_task_is_serial() {
        let mut p = StreamPipeline::new();
        let r = p.submit(t(0.0), t(1.0), t(2.0), t(0.5));
        assert_eq!(r.h2d_done, t(1.0));
        assert_eq!(r.kernel_done, t(3.0));
        assert_eq!(r.done, t(3.5));
    }

    #[test]
    fn back_to_back_tasks_overlap() {
        // Kernel-bound: t_kernel dominates, so block i+1's H2D copy hides
        // under block i's kernel (Fig. 8).
        let mut p = StreamPipeline::new();
        let first = p.submit(t(0.0), t(1.0), t(3.0), t(0.5));
        let second = p.submit(t(0.0), t(1.0), t(3.0), t(0.5));
        assert_eq!(first.done, t(4.5));
        // Second H2D runs during the first kernel: done at 2.0; its kernel
        // waits for the first kernel (4.0) then runs 3.0 → 7.0.
        assert_eq!(second.h2d_done, t(2.0));
        assert_eq!(second.kernel_done, t(7.0));
        assert_eq!(second.done, t(7.5));
    }

    #[test]
    fn steady_state_cost_is_stage_max() {
        // Eq. 9: per-block amortized cost converges to max(h2d, kernel).
        let cases = [
            (0.5, 2.0, 0.1), // kernel-bound
            (2.0, 0.5, 0.1), // transfer-bound
        ];
        for (h2d, kern, d2h) in cases {
            let mut p = StreamPipeline::new();
            let mut last = SimTime::ZERO;
            let n = 200;
            for _ in 0..n {
                last = p.submit(SimTime::ZERO, t(h2d), t(kern), t(d2h)).done;
            }
            let amortized = last.as_secs() / n as f64;
            let expected = h2d.max(kern).max(d2h);
            assert!(
                (amortized - expected).abs() / expected < 0.05,
                "amortized {amortized} vs stage max {expected}"
            );
        }
    }

    #[test]
    fn submission_time_is_respected() {
        let mut p = StreamPipeline::new();
        let _ = p.submit(t(0.0), t(1.0), t(1.0), t(1.0));
        // Submitting long after the pipeline drained starts fresh.
        let r = p.submit(t(100.0), t(1.0), t(1.0), t(1.0));
        assert_eq!(r.h2d_done, t(101.0));
        assert_eq!(r.done, t(103.0));
    }

    #[test]
    fn monotone_completion_times() {
        let mut p = StreamPipeline::new();
        let mut prev = SimTime::ZERO;
        for i in 0..50 {
            let r = p.submit(
                t(i as f64 * 0.1),
                t(0.3),
                t(0.2 + (i % 3) as f64 * 0.1),
                t(0.05),
            );
            assert!(r.done >= prev, "completions must be monotone");
            assert!(r.h2d_done <= r.kernel_done && r.kernel_done <= r.done);
            prev = r.done;
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut p = StreamPipeline::new();
        let _ = p.submit(t(0.0), t(1.0), t(1.0), t(1.0));
        assert!(p.drained_at() > SimTime::ZERO);
        p.reset();
        assert_eq!(p.drained_at(), SimTime::ZERO);
    }
}
