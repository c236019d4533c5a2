//! SIMT execution of the SGD kernel — the *numerics* of cuMF_SGD.
//!
//! cuMF_SGD assigns each of `W` parallel workers a contiguous segment of
//! the block's ratings; workers advance in lock-step (warps execute the
//! same instruction), racing Hogwild-style on factor rows within the
//! block. We emulate that schedule deterministically: at step `t` every
//! lane `l` processes its `t`-th rating, lanes iterated in order. The
//! visitation order therefore interleaves across the block exactly like
//! the hardware schedule, while staying bit-reproducible.
//!
//! The f32 path runs that schedule through mf-sgd's one SoA block loop
//! ([`SharedModel::sgd_block_exclusive`]), the same loop the CPU seats
//! run. It first gathers the block's three streams into lane order, in a
//! scratch buffer the kernel keeps across calls (a warm device allocates
//! nothing per task), so the loop dispatches its step once per block and
//! prefetches factor rows ahead while visiting ratings in exactly the
//! lane schedule's order, bit for bit.
//!
//! The optional half-precision mode rounds every factor read and write
//! through IEEE 754 binary16 ([`f16_round`]), emulating cuMF's `__half`
//! storage. It must
//! round around every single step, so it keeps the per-rating lane loop,
//! which is also the oracle the gathered f32 path is tested against.

use mf_sgd::sweep::f16_round;
use mf_sgd::{kernel, Model, SharedModel};
use mf_sparse::{BlockSlices, Rating};

use crate::spec::GpuSpec;

/// The simulated kernel: execution geometry, the precision mode, and
/// the lane-order scratch the f32 path gathers each block into.
#[derive(Debug, Clone)]
pub struct SimtKernel {
    workers: usize,
    half_precision: bool,
    lanes: LaneOrder,
}

/// A block's ratings rearranged into lock-step lane order. The buffers
/// are cleared, never freed, between blocks.
#[derive(Debug, Clone, Default)]
struct LaneOrder {
    rows: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<f32>,
}

impl LaneOrder {
    /// Refills the buffers with `block` in lane order for segment length
    /// `seg`: step `t`, lane `l` → rating `l·seg + t`. The lanes that hold
    /// a `t`-th rating are exactly the indices `t, t + seg, …` below
    /// `block.len()`, since `seg · workers ≥ block.len()`.
    fn gather(&mut self, block: BlockSlices<'_>, seg: usize) -> BlockSlices<'_> {
        self.rows.clear();
        self.cols.clear();
        self.vals.clear();
        for t in 0..seg {
            let lanes = (t..block.len()).step_by(seg);
            self.rows.extend(lanes.clone().map(|i| block.rows[i]));
            self.cols.extend(lanes.clone().map(|i| block.cols[i]));
            self.vals.extend(lanes.map(|i| block.vals[i]));
        }
        BlockSlices::new(&self.rows, &self.cols, &self.vals)
    }
}

impl SimtKernel {
    /// Builds a kernel matching a device spec.
    pub fn new(spec: &GpuSpec) -> SimtKernel {
        SimtKernel {
            workers: spec.parallel_workers as usize,
            half_precision: spec.half_precision,
            lanes: LaneOrder::default(),
        }
    }

    /// Number of parallel lanes.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Executes the SGD kernel over a structure-of-arrays `block`,
    /// mutating `model` exactly as the GPU would. Returns the sum of
    /// squared pre-update errors.
    pub fn execute(
        &mut self,
        model: &mut Model,
        block: BlockSlices<'_>,
        gamma: f32,
        lambda_p: f32,
        lambda_q: f32,
    ) -> f64 {
        let shared = SharedModel::new(model);
        // SAFETY: `model` is exclusively borrowed for the whole call, so
        // no other thread can touch any factor row.
        unsafe { self.execute_shared(&shared, block, gamma, lambda_p, lambda_q) }
    }

    /// [`SimtKernel::execute`] through a [`SharedModel`] view — the entry
    /// point for real-thread runtimes where a GPU worker thread updates
    /// factor rows the block scheduler has reserved for it while other
    /// workers run concurrently on disjoint rows.
    ///
    /// In f32 the block is gathered into lane order in the kernel's
    /// scratch (skipped when one lane or one step makes lane order the
    /// storage order) and handed to
    /// [`SharedModel::sgd_block_exclusive`]. Half precision runs the
    /// per-rating lane loop, rounding through binary16 around every step.
    ///
    /// # Safety
    ///
    /// For the duration of the call, no other thread may access the
    /// factor rows of any user or item appearing in `block` — exactly the
    /// conflict-freedom guarantee the FPSGD/HSGD\* schedulers provide for
    /// an in-flight task.
    pub unsafe fn execute_shared(
        &mut self,
        model: &SharedModel<'_>,
        block: BlockSlices<'_>,
        gamma: f32,
        lambda_p: f32,
        lambda_q: f32,
    ) -> f64 {
        let w = self.workers.max(1);
        let seg = block.len().div_ceil(w);
        // SAFETY: rows reserved for us (caller contract). The half path
        // drops each row pair before forming the next; the gathered view
        // holds exactly `block`'s ratings, so it touches the same rows.
        unsafe {
            if self.half_precision {
                return self.lane_loop(block, |e| {
                    let (p, q) = model.pq_rows_unchecked(e.u, e.v);
                    p.iter_mut()
                        .chain(q.iter_mut())
                        .for_each(|x| *x = f16_round(*x));
                    let err = kernel::sgd_step(&mut *p, &mut *q, e.r, gamma, lambda_p, lambda_q);
                    p.iter_mut()
                        .chain(q.iter_mut())
                        .for_each(|x| *x = f16_round(*x));
                    err
                });
            }
            let ordered = if w == 1 || seg <= 1 {
                block
            } else {
                self.lanes.gather(block, seg)
            };
            model.sgd_block_exclusive(ordered, gamma, lambda_p, lambda_q)
        }
    }

    /// The per-rating lock-step loop: `step` runs on every rating of
    /// `block` in lane order, and the squared errors it returns are summed
    /// in that order.
    fn lane_loop(&self, block: BlockSlices<'_>, mut step: impl FnMut(Rating) -> f32) -> f64 {
        let w = self.workers.max(1);
        let seg = block.len().div_ceil(w);
        let mut sq_err = 0f64;
        // Lock-step schedule: step t, lane l → rating l·seg + t.
        for t in 0..seg {
            for l in 0..w {
                let idx = l * seg + t;
                if idx >= block.len() {
                    continue;
                }
                let err = step(block.get(idx));
                sq_err += (err as f64) * (err as f64);
            }
        }
        sq_err
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_sparse::{Rating, SoaRatings};

    fn spec_with(workers: u32, half: bool) -> GpuSpec {
        let mut s = GpuSpec::default().with_workers(workers);
        s.half_precision = half;
        s
    }

    #[test]
    fn single_lane_matches_sequential_kernel() {
        let block: Vec<Rating> = (0..20)
            .map(|i| Rating::new(i % 5, i % 4, 1.0 + (i % 3) as f32))
            .collect();
        let soa = SoaRatings::from_entries(&block);
        let mut gpu_model = Model::init(5, 4, 8, 1);
        let mut seq_model = gpu_model.clone();

        let mut kernel1 = SimtKernel::new(&spec_with(1, false));
        let sq_gpu = kernel1.execute(&mut gpu_model, soa.as_slices(), 0.01, 0.05, 0.05);

        let mut sq_seq = 0.0;
        for e in &block {
            let (p, q) = seq_model.pq_rows_mut(e.u, e.v);
            let err = kernel::sgd_step(p, q, e.r, 0.01, 0.05, 0.05);
            sq_seq += (err as f64) * (err as f64);
        }
        assert_eq!(gpu_model, seq_model);
        assert_eq!(sq_gpu, sq_seq);
    }

    #[test]
    fn many_lanes_visit_every_rating_once() {
        // With disjoint (u, v) pairs, order doesn't matter: any lane count
        // must produce the same model as sequential processing.
        let block =
            SoaRatings::from_entries(&(0..64).map(|i| Rating::new(i, i, 2.0)).collect::<Vec<_>>());
        let mut a = Model::init(64, 64, 4, 2);
        let mut b = a.clone();
        SimtKernel::new(&spec_with(1, false)).execute(&mut a, block.as_slices(), 0.05, 0.0, 0.0);
        SimtKernel::new(&spec_with(16, false)).execute(&mut b, block.as_slices(), 0.05, 0.0, 0.0);
        assert_eq!(a, b);
    }

    #[test]
    fn lane_interleaving_changes_visit_order_on_shared_rows() {
        // Ratings share rows, so the Hogwild-like interleaved order gives a
        // (slightly) different — but still convergent — result.
        let block = SoaRatings::from_entries(
            &(0..64)
                .map(|i| Rating::new(0, i % 8, 3.0))
                .collect::<Vec<_>>(),
        );
        let mut a = Model::init(1, 8, 4, 3);
        let mut b = a.clone();
        SimtKernel::new(&spec_with(1, false)).execute(&mut a, block.as_slices(), 0.05, 0.0, 0.0);
        SimtKernel::new(&spec_with(8, false)).execute(&mut b, block.as_slices(), 0.05, 0.0, 0.0);
        assert_ne!(a, b, "interleaving should reorder racy updates");
    }

    #[test]
    fn gathered_f32_path_matches_per_rating_lane_loop_bitwise() {
        // Blocks revisit users and items, so visit order shows in the
        // bits. k covers the lean loop (8), the scalar fallback (12) and
        // both prefetch widths (16, 32); lengths straddle one step (w ± 1)
        // and run a ragged last lane (5w + 3).
        let (m, n) = (13u32, 11u32);
        let bits = |model: &Model| -> Vec<u32> {
            model
                .p_raw()
                .iter()
                .chain(model.q_raw())
                .map(|x| x.to_bits())
                .collect()
        };
        for k in [8usize, 12, 16, 32] {
            for w in [1usize, 3, 128, 512] {
                let mut simt = SimtKernel::new(&spec_with(w as u32, false));
                let mut gathered = Model::init(m, n, k, 7);
                let mut oracle = gathered.clone();
                // One kernel for every length: a block shorter than the
                // last must not see the previous gather's tail.
                for len in [5 * w + 3, 0, 1, w - 1, w + 1] {
                    let block = SoaRatings::from_entries(
                        &(0..len as u32)
                            .map(|i| {
                                Rating::new((i * 7 + 3) % m, (i * 5 + 1) % n, 1.0 + (i % 5) as f32)
                            })
                            .collect::<Vec<_>>(),
                    );
                    let before = gathered.clone();
                    let sq = simt.execute(&mut gathered, block.as_slices(), 0.02, 0.01, 0.03);
                    let sq_lanes = simt.lane_loop(block.as_slices(), |e| {
                        let (p, q) = oracle.pq_rows_mut(e.u, e.v);
                        kernel::sgd_step(p, q, e.r, 0.02, 0.01, 0.03)
                    });
                    let at = format!("k={k} w={w} len={len}");
                    assert_eq!(sq.to_bits(), sq_lanes.to_bits(), "{at}: Σ err²");
                    assert_eq!(bits(&gathered), bits(&oracle), "{at}: factors");
                    if w > 1 && len == 5 * w + 3 {
                        // Storage order (one lane) must differ, or the
                        // block could not tell lane order from it.
                        let mut storage = before;
                        SimtKernel::new(&spec_with(1, false)).execute(
                            &mut storage,
                            block.as_slices(),
                            0.02,
                            0.01,
                            0.03,
                        );
                        assert_ne!(bits(&storage), bits(&gathered), "{at}: order-blind block");
                    }
                }
            }
        }
    }

    #[test]
    fn half_precision_still_converges() {
        let block = SoaRatings::from_entries(
            &(0..50)
                .map(|i| Rating::new(i % 10, (i * 3) % 10, 2.5))
                .collect::<Vec<_>>(),
        );
        let mut model = Model::init(10, 10, 8, 4);
        let mut k = SimtKernel::new(&spec_with(32, true));
        let mut last = f64::INFINITY;
        for _ in 0..30 {
            last = k.execute(&mut model, block.as_slices(), 0.02, 0.01, 0.01);
        }
        let mse = last / block.len() as f64;
        assert!(mse < 0.05, "half precision should still fit, mse={mse}");
    }

    #[test]
    fn empty_block_is_noop() {
        let mut model = Model::init(2, 2, 2, 5);
        let before = model.clone();
        let sq = SimtKernel::new(&spec_with(128, false)).execute(
            &mut model,
            mf_sparse::BlockSlices::empty(),
            0.1,
            0.0,
            0.0,
        );
        assert_eq!(sq, 0.0);
        assert_eq!(model, before);
    }
}
