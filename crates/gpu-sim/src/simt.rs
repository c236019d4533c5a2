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
//! The schedule runs through mf-sgd's one SoA block loop
//! ([`SharedModel::sgd_block_exclusive`]), the same loop the CPU seats
//! run, over the block's three streams gathered into lane order, so the
//! loop dispatches its step once per block and prefetches factor rows
//! ahead while visiting ratings in exactly the lane schedule's order, bit
//! for bit. A per-rating lane loop, kept under `cfg(test)`, is the oracle
//! that claim is tested against.
//!
//! Lane order depends only on the block's bytes and the lane count, so
//! the kernel gathers a keyed block ([`KernelBlock::memo_key`]) once and
//! keeps the copy for every later pass, as cuMF_SGD lays ratings out once
//! for its workers. The memo holds one partition's blocks at a time and
//! lives in host memory, outside the simulated device memory the cost
//! model charges, so virtual time does not see it. An unkeyed block (a
//! spill-backed one, whose bytes the block cache budgets) is gathered
//! into a scratch buffer on every pass.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use mf_sgd::SharedModel;
use mf_sparse::{BlockId, BlockKey, BlockSlices};

use crate::spec::GpuSpec;

/// Blocks gathered into lane order by every kernel in the process.
static LANE_GATHERS: AtomicU64 = AtomicU64::new(0);

/// How many blocks every kernel in this process has gathered into lane
/// order so far: one per keyed block per run, one per pass for the rest.
pub fn lane_gathers() -> u64 {
    LANE_GATHERS.load(Ordering::Relaxed)
}

/// A block handed to the kernel: its ratings in storage order, and the
/// key its lane order may be kept under for later passes.
#[derive(Debug, Clone, Copy)]
pub struct KernelBlock<'a> {
    /// The block's ratings in storage order.
    pub ratings: BlockSlices<'a>,
    /// `Some` when the kernel may keep this block's lane order for later
    /// passes: the key must name the bytes of `ratings` for the life of
    /// the process ([`BlockKey`]).
    pub memo_key: Option<BlockKey>,
}

impl<'a> From<BlockSlices<'a>> for KernelBlock<'a> {
    /// An unkeyed block, gathered afresh on every pass.
    fn from(ratings: BlockSlices<'a>) -> KernelBlock<'a> {
        KernelBlock {
            ratings,
            memo_key: None,
        }
    }
}

/// The simulated kernel: execution geometry and the lane orders of the
/// blocks it has run.
#[derive(Debug, Clone)]
pub struct SimtKernel {
    workers: usize,
    /// Lane orders of keyed blocks, all of partition `memo_partition`.
    memo: HashMap<BlockId, LaneOrder>,
    memo_partition: Option<u64>,
    /// The lane order of the last unkeyed block.
    scratch: LaneOrder,
}

/// A block's ratings rearranged into lock-step lane order.
#[derive(Debug, Clone, Default)]
struct LaneOrder {
    rows: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<f32>,
}

impl LaneOrder {
    /// Refills the buffers with `block` in lane order for segment length
    /// `seg`, in one pass over all three streams: step `t`, lane `l` →
    /// rating `l·seg + t`. The lanes that hold a `t`-th rating are
    /// exactly the indices `t, t + seg, …` below `block.len()`, since
    /// `seg · workers ≥ block.len()`.
    fn gather(&mut self, block: BlockSlices<'_>, seg: usize) {
        LANE_GATHERS.fetch_add(1, Ordering::Relaxed);
        self.rows.clear();
        self.cols.clear();
        self.vals.clear();
        self.rows.reserve_exact(block.len());
        self.cols.reserve_exact(block.len());
        self.vals.reserve_exact(block.len());
        for i in (0..seg).flat_map(|t| (t..block.len()).step_by(seg)) {
            self.rows.push(block.rows[i]);
            self.cols.push(block.cols[i]);
            self.vals.push(block.vals[i]);
        }
    }

    fn as_slices(&self) -> BlockSlices<'_> {
        BlockSlices::new(&self.rows, &self.cols, &self.vals)
    }
}

impl SimtKernel {
    /// Builds a kernel matching a device spec.
    pub fn new(spec: &GpuSpec) -> SimtKernel {
        SimtKernel {
            workers: spec.parallel_workers as usize,
            memo: HashMap::new(),
            memo_partition: None,
            scratch: LaneOrder::default(),
        }
    }

    /// Number of parallel lanes.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Executes the SGD kernel over a structure-of-arrays `block`,
    /// updating `model` exactly as the GPU would, and returns the sum of
    /// squared pre-update errors. Both execution worlds call it: the DES
    /// with its exclusive model, a real-thread GPU seat on rows the block
    /// scheduler reserved for it while other seats run on disjoint rows.
    ///
    /// The block is handed to [`SharedModel::sgd_block_exclusive`] in
    /// lane order: the memoized copy for a keyed block (gathered on its
    /// first pass), a fresh gather into scratch for an unkeyed one, and
    /// the storage order itself when one lane or one step makes the two
    /// orders agree.
    ///
    /// # Safety
    ///
    /// For the duration of the call, no other thread may access the
    /// factor rows of any user or item appearing in `block` — exactly the
    /// conflict-freedom guarantee the FPSGD/HSGD\* schedulers provide for
    /// an in-flight task.
    pub unsafe fn execute(
        &mut self,
        model: &SharedModel<'_>,
        block: KernelBlock<'_>,
        gamma: f32,
        lambda_p: f32,
        lambda_q: f32,
    ) -> f64 {
        let ordered = self.lane_order(block);
        // SAFETY: rows reserved for us (caller contract); the lane order
        // holds exactly `block`'s ratings, so it touches the same rows.
        unsafe { model.sgd_block_exclusive(ordered, gamma, lambda_p, lambda_q) }
    }

    /// `block`'s ratings in lane order: the storage order itself when one
    /// lane or one step makes the two agree; else the memoized copy,
    /// gathered on the block's first pass, for a keyed block; else a
    /// fresh gather into the scratch buffer.
    fn lane_order<'s>(&'s mut self, block: KernelBlock<'s>) -> BlockSlices<'s> {
        let w = self.workers.max(1);
        let seg = block.ratings.len().div_ceil(w);
        if w == 1 || seg <= 1 {
            return block.ratings;
        }
        let Some(key) = block.memo_key else {
            self.scratch.gather(block.ratings, seg);
            return self.scratch.as_slices();
        };
        if self.memo_partition != Some(key.partition) {
            self.memo.clear();
            self.memo_partition = Some(key.partition);
        }
        let lanes = self.memo.entry(key.block).or_insert_with(|| {
            let mut lanes = LaneOrder::default();
            lanes.gather(block.ratings, seg);
            lanes
        });
        debug_assert_eq!(lanes.rows.len(), block.ratings.len(), "{key:?}");
        lanes.as_slices()
    }

    /// The per-rating lock-step loop: `step` runs on every rating of
    /// `block` in lane order, and the squared errors it returns are summed
    /// in that order. The oracle for the gathered path.
    #[cfg(test)]
    fn lane_loop(
        &self,
        block: BlockSlices<'_>,
        mut step: impl FnMut(mf_sparse::Rating) -> f32,
    ) -> f64 {
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
    use mf_sgd::{kernel, Model};
    use mf_sparse::{Rating, SoaRatings};

    /// Runs `block` through `simt` over `model`.
    fn execute<'b>(
        simt: &mut SimtKernel,
        model: &mut Model,
        block: impl Into<KernelBlock<'b>>,
        gamma: f32,
        lambda_p: f32,
        lambda_q: f32,
    ) -> f64 {
        let shared = SharedModel::new(model);
        // SAFETY: `model` is exclusively borrowed for the whole call.
        unsafe { simt.execute(&shared, block.into(), gamma, lambda_p, lambda_q) }
    }

    fn spec_with(workers: u32) -> GpuSpec {
        GpuSpec::default().with_workers(workers)
    }

    fn bits(model: &Model) -> Vec<u32> {
        model
            .p_raw()
            .iter()
            .chain(model.q_raw())
            .map(|x| x.to_bits())
            .collect()
    }

    #[test]
    fn single_lane_matches_sequential_kernel() {
        let block: Vec<Rating> = (0..20)
            .map(|i| Rating::new(i % 5, i % 4, 1.0 + (i % 3) as f32))
            .collect();
        let soa = SoaRatings::from_entries(&block);
        let mut gpu_model = Model::init(5, 4, 8, 1);
        let mut seq_model = gpu_model.clone();

        let mut kernel1 = SimtKernel::new(&spec_with(1));
        let sq_gpu = execute(
            &mut kernel1,
            &mut gpu_model,
            soa.as_slices(),
            0.01,
            0.05,
            0.05,
        );

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
        execute(
            &mut SimtKernel::new(&spec_with(1)),
            &mut a,
            block.as_slices(),
            0.05,
            0.0,
            0.0,
        );
        execute(
            &mut SimtKernel::new(&spec_with(16)),
            &mut b,
            block.as_slices(),
            0.05,
            0.0,
            0.0,
        );
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
        execute(
            &mut SimtKernel::new(&spec_with(1)),
            &mut a,
            block.as_slices(),
            0.05,
            0.0,
            0.0,
        );
        execute(
            &mut SimtKernel::new(&spec_with(8)),
            &mut b,
            block.as_slices(),
            0.05,
            0.0,
            0.0,
        );
        assert_ne!(a, b, "interleaving should reorder racy updates");
    }

    #[test]
    fn gathered_f32_path_matches_per_rating_lane_loop_bitwise() {
        // Blocks revisit users and items, so visit order shows in the
        // bits. k covers the lean loop (8), the scalar fallback (12) and
        // both prefetch widths (16, 32); lengths straddle one step (w ± 1)
        // and run a ragged last lane (5w + 3).
        let (m, n) = (13u32, 11u32);
        for k in [8usize, 12, 16, 32] {
            for w in [1usize, 3, 128, 512] {
                let mut simt = SimtKernel::new(&spec_with(w as u32));
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
                    let sq = execute(
                        &mut simt,
                        &mut gathered,
                        block.as_slices(),
                        0.02,
                        0.01,
                        0.03,
                    );
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
                        execute(
                            &mut SimtKernel::new(&spec_with(1)),
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
    fn memoized_lanes_match_a_gather_on_every_pass_bitwise() {
        // Four passes over two keyed blocks, interleaved, then a block of
        // another partition under the same `BlockId` and length: the
        // memoizing kernel must match one that gathers every pass.
        let (m, n, w) = (7u32, 5u32, 4usize);
        let block = |len: u32, salt: u32| {
            SoaRatings::from_entries(
                &(0..len)
                    .map(|i| Rating::new((i * 3 + salt) % m, (i + salt) % n, 1.0 + (i % 4) as f32))
                    .collect::<Vec<_>>(),
            )
        };
        let key = |partition, row| BlockKey {
            partition,
            block: BlockId::new(row, 0),
        };
        let (a, b, a2) = (block(29, 0), block(17, 1), block(29, 2));
        let mut visits = Vec::new();
        for _ in 0..4 {
            visits.extend([(&a, key(1, 0)), (&b, key(1, 1))]);
        }
        visits.extend([(&a2, key(2, 0)), (&a2, key(2, 0)), (&a, key(3, 0))]);
        let mut memo = SimtKernel::new(&spec_with(w as u32));
        let mut fresh = memo.clone();
        let mut memo_model = Model::init(m, n, 8, 11);
        let mut fresh_model = memo_model.clone();
        for (pass, (ratings, key)) in visits.into_iter().enumerate() {
            let keyed = KernelBlock {
                ratings: ratings.as_slices(),
                memo_key: Some(key),
            };
            let sq = execute(&mut memo, &mut memo_model, keyed, 0.02, 0.01, 0.03);
            let sq_fresh = execute(
                &mut fresh,
                &mut fresh_model,
                ratings.as_slices(),
                0.02,
                0.01,
                0.03,
            );
            assert_eq!(sq.to_bits(), sq_fresh.to_bits(), "pass {pass}: Σ err²");
            assert_eq!(
                bits(&memo_model),
                bits(&fresh_model),
                "pass {pass}: factors"
            );
        }
        assert!(fresh.memo.is_empty(), "an unkeyed block was memoized");
        assert_eq!(memo.memo.len(), 1, "the memo holds one partition");
    }

    #[test]
    fn empty_block_is_noop() {
        let mut model = Model::init(2, 2, 2, 5);
        let before = model.clone();
        let sq = execute(
            &mut SimtKernel::new(&spec_with(128)),
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
