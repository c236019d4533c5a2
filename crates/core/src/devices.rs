//! The paper's two kinds of worker, and the one task body both execution
//! worlds run on them.
//!
//! Both execute *real* SGD arithmetic on the shared model; only durations
//! are modeled. Both seats run mf-sgd's one SoA block loop
//! ([`SharedModel::sgd_block_exclusive`]). CPU workers run a task's
//! blocks in storage order and charge the flat Observation-2 throughput;
//! GPU workers delegate to [`gpu_sim::GpuDevice`], which accounts PCIe
//! transfers and the 3-stream pipeline and runs the SIMT kernel (the
//! same loop, in lane order). A GPU worker gathers each block of a
//! resident partition into lane order once and keeps the copy for the
//! run's later passes.
//!
//! `Seat` is a worker as an execution world holds it, and `Seat::run` is
//! the task body: the DES (`trainer::Sim::run`) calls it at a task's
//! modeled start and keeps the modeled completion, and the real-thread
//! world (`runtime::run_task`) calls it at time zero and times it on the
//! wall clock.

use std::sync::Arc;

use gpu_sim::KernelBlock;
use mf_des::SimTime;
use mf_sgd::{HyperParams, Model, SharedModel};
use mf_sparse::hash::splitmix64;
use mf_sparse::GridPartition;

use crate::config::CpuSpec;
use crate::executor::HealthCell;
use crate::runtime::GPU_QUEUE_DEPTH;
use crate::scheduler::Task;

/// Relative amplitude of the deterministic execution-time jitter applied
/// to every task. Real hardware never repeats a block in exactly the same
/// time (cache state, frequency scaling, contention); modeling a few
/// percent of variance also de-synchronizes the event loop the way real
/// jitter de-synchronizes threads, preventing artificial completion
/// convoys that a perfectly deterministic duration model would create.
pub const TIME_JITTER: f64 = 0.05;

/// A deterministic jitter factor in `[1 − amp, 1 + amp]`, hashed from the
/// task's identity and pass number (splitmix64 finalizer).
fn jitter_factor(task: &Task, salt: u64, amp: f64) -> f64 {
    let b = task.blocks[0];
    let x = (b.row as u64) << 40 ^ (b.col as u64) << 20 ^ task.pass as u64 ^ salt << 1;
    let x = splitmix64(x.wrapping_add(0x9e37_79b9_7f4a_7c15));
    let unit = (x >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
    1.0 + amp * (2.0 * unit - 1.0)
}

/// A CPU worker thread (virtual).
#[derive(Debug, Clone, Copy)]
pub struct CpuWorker {
    /// Performance description.
    pub spec: CpuSpec,
}

impl CpuWorker {
    /// Executes `task` on `model`, returning `(duration, Σ err²)`; the
    /// squared errors are summed per block, then across blocks.
    ///
    /// # Safety
    ///
    /// For the duration of the call, no other thread may access the
    /// factor rows of the task's row and column bands — the scheduler's
    /// conflict-freedom invariant for an in-flight task.
    pub unsafe fn process(
        &self,
        model: &SharedModel<'_>,
        part: &GridPartition,
        task: &Task,
        gamma: f32,
        hyper: &HyperParams,
    ) -> (SimTime, f64) {
        assert!(
            part.nrows() <= model.nrows() && part.ncols() <= model.ncols(),
            "partition ({}×{}) exceeds model ({}×{})",
            part.nrows(),
            part.ncols(),
            model.nrows(),
            model.ncols()
        );
        let mut sq = 0f64;
        for &b in &task.blocks {
            // SAFETY: every rating of `part` indexes below its dimensions,
            // which the assert above bounds by the model's, so each factor
            // row is in bounds; the caller holds the task's bands.
            sq += unsafe {
                model.sgd_block_exclusive(part.block(b), gamma, hyper.lambda_p, hyper.lambda_q)
            };
        }
        let secs = self.spec.time_secs(task.points) * jitter_factor(task, 0x0c9, TIME_JITTER);
        (SimTime::from_secs(secs), sq)
    }
}

/// `task`'s blocks as the SIMT kernel takes them. Blocks of a resident
/// partition carry their [`mf_sparse::BlockKey`], so the kernel keeps
/// their lane order for the run's later passes; a spill-backed block's
/// bytes are budgeted by the block cache, so it carries none and is
/// gathered afresh on every pass.
fn kernel_blocks<'p>(part: &'p GridPartition, task: &Task) -> Vec<KernelBlock<'p>> {
    let memo = !part.is_spilled();
    task.blocks
        .iter()
        .map(|&b| KernelBlock {
            ratings: part.block(b),
            memo_key: memo.then(|| part.block_key(b)),
        })
        .collect()
}

/// A GPU worker (virtual), wrapping the simulator device.
#[derive(Debug)]
pub struct GpuWorker {
    /// The simulated device.
    pub device: gpu_sim::GpuDevice,
    /// When true, the entire problem (R, P, Q) is resident in device
    /// memory — the cuMF single-device regime used by GPU-Only — and
    /// per-task transfers are free after the initial bulk load.
    pub resident_all: bool,
    /// Shared health flag. Fault injectors keep a clone of this handle
    /// (see [`GpuWorker::health_handle`]) and flip it mid-run; both
    /// execution worlds poll it at their dispatch boundaries.
    health: Arc<HealthCell>,
}

impl GpuWorker {
    /// Creates a worker from a spec.
    pub fn new(spec: gpu_sim::GpuSpec) -> GpuWorker {
        GpuWorker {
            device: gpu_sim::GpuDevice::new(spec),
            resident_all: false,
            health: Arc::new(HealthCell::new()),
        }
    }

    /// A handle to this worker's health cell, for fault injectors that
    /// flip device state from outside the execution world.
    pub fn health_handle(&self) -> Arc<HealthCell> {
        Arc::clone(&self.health)
    }

    /// Executes `task` at `now`, returning the absolute completion
    /// breakdown and the squared-error sum. A [`GpuWorker::resident_all`]
    /// worker ships nothing per task: only kernel time accrues.
    ///
    /// # Safety
    ///
    /// For the duration of the call, no other thread may access the
    /// factor rows of any user or item appearing in the task's blocks —
    /// the scheduler's conflict-freedom invariant for an in-flight task.
    pub unsafe fn process(
        &mut self,
        now: SimTime,
        model: &SharedModel<'_>,
        part: &GridPartition,
        task: &Task,
        gamma: f32,
        hyper: &HyperParams,
    ) -> (gpu_sim::BlockCost, f64) {
        let blocks = kernel_blocks(part, task);
        let transfer = (!self.resident_all).then(|| (task.p_rows.clone(), task.q_cols.clone()));
        let (lp, lq) = (hyper.lambda_p, hyper.lambda_q);
        // SAFETY: forwarded caller contract.
        unsafe {
            self.device
                .process_task(now, model, &blocks, transfer, gamma, lp, lq)
        }
        .expect("device memory exceeded — configuration error")
    }

    /// One-time bulk-load cost for the fully resident regime: ship all
    /// ratings plus both factor matrices.
    pub fn initial_load_time(&self, total_points: u64, model: &Model) -> SimTime {
        let bytes = total_points * mf_sparse::Rating::WIRE_BYTES as u64
            + model.factor_bytes(model.nrows() as u64)
            + model.factor_bytes(model.ncols() as u64);
        self.device
            .bus()
            .time_for(gpu_sim::transfer::Direction::HostToDevice, bytes)
    }
}

/// A worker as an execution world holds it.
pub(crate) enum Seat {
    Cpu(CpuWorker),
    Gpu(Box<GpuWorker>),
}

impl Seat {
    /// Tasks the seat keeps in flight: one on a CPU worker,
    /// [`GPU_QUEUE_DEPTH`] (current + prefetched) on a GPU.
    pub(crate) fn depth(&self) -> usize {
        match self {
            Seat::Cpu(_) => 1,
            Seat::Gpu(_) => GPU_QUEUE_DEPTH,
        }
    }

    /// Runs `task` from `now` and returns its modeled completion time and
    /// busy seconds: the CPU's jittered duration, or the GPU pipeline's
    /// completion and kernel time.
    ///
    /// # Safety
    ///
    /// For the duration of the call, no other thread may access the
    /// factor rows of the task's row and column bands — the scheduler's
    /// conflict-freedom invariant for an in-flight task.
    pub(crate) unsafe fn run(
        &mut self,
        now: SimTime,
        model: &SharedModel<'_>,
        part: &GridPartition,
        task: &Task,
        hyper: &HyperParams,
    ) -> (SimTime, f64) {
        let gamma = hyper.gamma_at(task.pass);
        // SAFETY: forwarded caller contract.
        unsafe {
            match self {
                Seat::Cpu(cpu) => {
                    let (dur, _sq) = cpu.process(model, part, task, gamma, hyper);
                    (now + dur, dur.as_secs())
                }
                Seat::Gpu(gpu) => {
                    let (cost, _sq) = gpu.process(now, model, part, task, gamma, hyper);
                    (cost.times.done, cost.t_kernel.as_secs())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_sparse::{BlockId, GridSpec, SparseMatrix};

    /// Runs `task` on a CPU worker over `model`, which no one else holds.
    fn cpu_process(model: &mut Model, part: &GridPartition, task: &Task) -> (SimTime, f64) {
        let hyper = mf_sgd::HyperParams::movielens(4);
        let cpu = CpuWorker {
            spec: CpuSpec::default(),
        };
        // SAFETY: `model` is exclusively borrowed for the whole call.
        unsafe { cpu.process(&SharedModel::new(model), part, task, 0.01, &hyper) }
    }

    /// Runs `task` on `gpu` at time zero over `model`, which no one else
    /// holds.
    fn gpu_process(
        gpu: &mut GpuWorker,
        model: &mut Model,
        part: &GridPartition,
        task: &Task,
    ) -> (gpu_sim::BlockCost, f64) {
        let hyper = mf_sgd::HyperParams::movielens(4);
        // SAFETY: `model` is exclusively borrowed for the whole call.
        unsafe {
            gpu.process(
                SimTime::ZERO,
                &SharedModel::new(model),
                part,
                task,
                0.01,
                &hyper,
            )
        }
    }

    fn setup() -> (Model, GridPartition, Task) {
        let data = SparseMatrix::from_triples(
            (0..32u32).map(|i| (i % 8, (i * 3) % 8, 2.0 + (i % 3) as f32)),
        );
        let spec = GridSpec::uniform(8, 8, 2, 2);
        let part = GridPartition::build(&data, spec);
        let id = BlockId::new(0, 0);
        let task = Task {
            points: part.block_len(id),
            p_rows: part.spec().row_range(0),
            q_cols: part.spec().col_range(0),
            pass: 0,
            stolen: false,
            blocks: vec![id],
        };
        (Model::init(8, 8, 4, 1), part, task)
    }

    #[test]
    fn cpu_worker_updates_model_and_charges_flat_rate() {
        let (mut model, part, task) = setup();
        let before = model.clone();
        let (dur, sq) = cpu_process(&mut model, &part, &task);
        assert_ne!(model, before);
        assert!(sq > 0.0);
        let expect = CpuSpec::default().time_secs(task.points);
        let rel = (dur.as_secs() - expect).abs() / expect;
        assert!(rel <= TIME_JITTER + 1e-12, "duration off by {rel:.4}");
    }

    #[test]
    #[should_panic(expected = "exceeds model")]
    fn cpu_worker_rejects_partition_larger_than_model() {
        let (_, part, task) = setup();
        cpu_process(&mut Model::init(8, 4, 4, 1), &part, &task);
    }

    #[test]
    fn cpu_worker_matches_per_rating_steps_bitwise() {
        // A two-block task through the block loop equals stepping every
        // rating in storage order, on the scalar fallback (k = 4), the lean
        // loop (8) and the prefetching loop (16). Pairs repeat inside each
        // block, so order shows in the bits.
        let (_, part, mut task) = setup();
        task.blocks.push(BlockId::new(0, 1));
        task.points += part.block_len(BlockId::new(0, 1));
        let hyper = mf_sgd::HyperParams::movielens(4);
        for k in [4usize, 8, 16] {
            let mut model = Model::init(8, 8, k, 1);
            let mut oracle = model.clone();
            let (_, sq) = cpu_process(&mut model, &part, &task);
            let mut sq_oracle = 0f64;
            for &b in &task.blocks {
                let mut block_sq = 0f64;
                for e in part.block(b).iter() {
                    let (p, q) = oracle.pq_rows_mut(e.u, e.v);
                    let err =
                        mf_sgd::kernel::sgd_step(p, q, e.r, 0.01, hyper.lambda_p, hyper.lambda_q);
                    block_sq += (err as f64) * (err as f64);
                }
                sq_oracle += block_sq;
            }
            let bits = |m: &Model| -> Vec<u32> {
                m.p_raw()
                    .iter()
                    .chain(m.q_raw())
                    .map(|x| x.to_bits())
                    .collect()
            };
            assert_eq!(sq.to_bits(), sq_oracle.to_bits(), "k={k}: Σ err²");
            assert_eq!(bits(&model), bits(&oracle), "k={k}: factors");
        }
    }

    #[test]
    fn gpu_worker_matches_cpu_numerics_for_single_lane() {
        // With 1 parallel worker the GPU kernel's visit order equals the
        // CPU's storage order, so the models must agree exactly.
        let (mut cpu_model, part, task) = setup();
        let mut gpu_model = cpu_model.clone();
        cpu_process(&mut cpu_model, &part, &task);
        let mut gpu = GpuWorker::new(gpu_sim::GpuSpec::default().with_workers(1));
        gpu_process(&mut gpu, &mut gpu_model, &part, &task);

        assert_eq!(cpu_model, gpu_model);
    }

    #[test]
    fn gpu_worker_follows_a_new_partition_under_an_old_block_id() {
        // One worker, a run of partitions with the same shape, block ids
        // and block lengths but other ratings, each dropped before the
        // next is built, so the allocator may hand a later one an earlier
        // one's addresses. Every result must match a fresh worker's: no
        // lanes survive from another partition.
        let spec = gpu_sim::GpuSpec::default().with_workers(4);
        let mut worker = GpuWorker::new(spec);
        for salt in 0..12u32 {
            let data = SparseMatrix::from_triples(
                (0..64u32).map(|i| (i % 8, (i * 3) % 8, 1.0 + ((i + salt) % 5) as f32)),
            );
            let part = GridPartition::build(&data, GridSpec::uniform(8, 8, 2, 2));
            let id = BlockId::new(0, 0);
            let task = Task {
                points: part.block_len(id),
                p_rows: part.spec().row_range(0),
                q_cols: part.spec().col_range(0),
                pass: 0,
                stolen: false,
                blocks: vec![id],
            };
            let mut model = Model::init(8, 8, 8, 1);
            let mut oracle = model.clone();
            for _ in 0..3 {
                gpu_process(&mut worker, &mut model, &part, &task);
                gpu_process(&mut GpuWorker::new(spec), &mut oracle, &part, &task);
            }
            assert_eq!(model, oracle, "partition {salt}: stale lanes");
        }
    }

    #[test]
    fn resident_mode_skips_transfer_charges() {
        let (mut model, part, task) = setup();
        let mut cold = GpuWorker::new(gpu_sim::GpuSpec::default());
        let (cost_cold, _) = gpu_process(&mut cold, &mut model.clone(), &part, &task);
        let mut warm = GpuWorker::new(gpu_sim::GpuSpec::default());
        warm.resident_all = true;
        let (cost_warm, _) = gpu_process(&mut warm, &mut model, &part, &task);
        assert!(cost_cold.h2d_bytes > 0);
        assert_eq!(cost_warm.h2d_bytes, 0);
        assert_eq!(cost_warm.d2h_bytes, 0);
        assert_eq!(cost_warm.t_kernel, cost_cold.t_kernel);
    }

    #[test]
    fn initial_load_covers_everything() {
        let (model, _, _) = setup();
        let gpu = GpuWorker::new(gpu_sim::GpuSpec::default());
        let t = gpu.initial_load_time(32, &model);
        assert!(t > SimTime::ZERO);
        // More data, longer load.
        let t2 = gpu.initial_load_time(32_000_000, &model);
        assert!(t2 > t);
    }
}
