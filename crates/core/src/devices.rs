//! Virtual devices: CPU workers and the GPU adapter.
//!
//! Both execute *real* SGD arithmetic on the shared model; only durations
//! are modeled. Both seats run mf-sgd's one SoA block loop
//! ([`SharedModel::sgd_block_exclusive`]), as the real-thread seats do.
//! CPU workers run a task's blocks in storage order and charge the flat
//! Observation-2 throughput; GPU workers delegate to
//! [`gpu_sim::GpuDevice`], which accounts PCIe transfers and the 3-stream
//! pipeline and runs the SIMT kernel (the same loop, in lane order).

use std::sync::Arc;

use mf_des::SimTime;
use mf_sgd::{HyperParams, Model, SharedModel};
use mf_sparse::hash::splitmix64;
use mf_sparse::GridPartition;

use crate::config::CpuSpec;
use crate::executor::{Device, DeviceCompletion, DeviceHealth, HealthCell};
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
    pub fn process(
        &self,
        model: &mut Model,
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
        let shared = SharedModel::new(model);
        let mut sq = 0f64;
        for &b in &task.blocks {
            // SAFETY: every rating of `part` indexes below its dimensions,
            // which the assert above bounds by the model's, so each factor
            // row is in bounds; `model` is exclusively borrowed for the
            // whole call, so no other thread can touch any factor row.
            sq += unsafe {
                shared.sgd_block_exclusive(part.block(b), gamma, hyper.lambda_p, hyper.lambda_q)
            };
        }
        let secs = self.spec.time_secs(task.points) * jitter_factor(task, 0x0c9, TIME_JITTER);
        (SimTime::from_secs(secs), sq)
    }
}

impl Device for CpuWorker {
    fn queue_depth(&self) -> usize {
        1
    }

    fn process(
        &mut self,
        now: SimTime,
        model: &mut Model,
        part: &GridPartition,
        task: &Task,
        gamma: f32,
        hyper: &HyperParams,
    ) -> DeviceCompletion {
        let (dur, _sq) = CpuWorker::process(self, model, part, task, gamma, hyper);
        DeviceCompletion {
            done: now + dur,
            busy_secs: dur.as_secs(),
        }
    }
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

    /// Executes `task`, returning the absolute completion breakdown and
    /// the squared-error sum.
    pub fn process(
        &mut self,
        now: SimTime,
        model: &mut Model,
        part: &GridPartition,
        task: &Task,
        gamma: f32,
        hyper: &HyperParams,
    ) -> (gpu_sim::BlockCost, f64) {
        let slices: Vec<mf_sparse::BlockSlices<'_>> =
            task.blocks.iter().map(|&b| part.block(b)).collect();
        if self.resident_all {
            // Everything was bulk-loaded once at startup: only kernel
            // time accrues per task.
            return self.device.process_task_resident(
                now,
                model,
                &slices,
                gamma,
                hyper.lambda_p,
                hyper.lambda_q,
            );
        }
        self.device
            .process_task(
                now,
                model,
                &slices,
                task.p_rows.clone(),
                task.q_cols.clone(),
                gamma,
                hyper.lambda_p,
                hyper.lambda_q,
            )
            .expect("device memory exceeded — configuration error")
    }

    /// [`GpuWorker::process`] through a [`SharedModel`] view — the
    /// real-thread execution path, where the GPU worker thread updates
    /// rows the scheduler reserved for this task while CPU workers run
    /// concurrently on disjoint rows. Timing/memory accounting matches
    /// the `&mut Model` path exactly.
    ///
    /// # Safety
    ///
    /// For the duration of the call, no other thread may access the
    /// factor rows of any user or item appearing in the task's blocks —
    /// the scheduler's conflict-freedom invariant for an in-flight task.
    pub unsafe fn process_shared(
        &mut self,
        now: SimTime,
        model: &SharedModel<'_>,
        part: &GridPartition,
        task: &Task,
        gamma: f32,
        hyper: &HyperParams,
    ) -> (gpu_sim::BlockCost, f64) {
        let slices: Vec<mf_sparse::BlockSlices<'_>> =
            task.blocks.iter().map(|&b| part.block(b)).collect();
        // SAFETY: forwarded caller contract.
        unsafe {
            if self.resident_all {
                return self.device.process_task_resident_shared(
                    now,
                    model,
                    &slices,
                    gamma,
                    hyper.lambda_p,
                    hyper.lambda_q,
                );
            }
            self.device
                .process_task_shared(
                    now,
                    model,
                    &slices,
                    task.p_rows.clone(),
                    task.q_cols.clone(),
                    gamma,
                    hyper.lambda_p,
                    hyper.lambda_q,
                )
                .expect("device memory exceeded — configuration error")
        }
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

impl Device for GpuWorker {
    fn queue_depth(&self) -> usize {
        2
    }

    fn health(&self) -> DeviceHealth {
        self.health.get()
    }

    fn process(
        &mut self,
        now: SimTime,
        model: &mut Model,
        part: &GridPartition,
        task: &Task,
        gamma: f32,
        hyper: &HyperParams,
    ) -> DeviceCompletion {
        let (cost, _sq) = GpuWorker::process(self, now, model, part, task, gamma, hyper);
        DeviceCompletion {
            done: cost.times.done,
            busy_secs: cost.t_kernel.as_secs(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mf_sparse::{BlockId, GridSpec, SparseMatrix};

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
        let worker = CpuWorker {
            spec: CpuSpec::default(),
        };
        let hyper = mf_sgd::HyperParams::movielens(4);
        let (dur, sq) = worker.process(&mut model, &part, &task, 0.01, &hyper);
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
        let worker = CpuWorker {
            spec: CpuSpec::default(),
        };
        let hyper = mf_sgd::HyperParams::movielens(4);
        let mut model = Model::init(8, 4, 4, 1);
        worker.process(&mut model, &part, &task, 0.01, &hyper);
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
        let worker = CpuWorker {
            spec: CpuSpec::default(),
        };
        for k in [4usize, 8, 16] {
            let mut model = Model::init(8, 8, k, 1);
            let mut oracle = model.clone();
            let (_, sq) = worker.process(&mut model, &part, &task, 0.01, &hyper);
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
        let hyper = mf_sgd::HyperParams::movielens(4);

        let cpu = CpuWorker {
            spec: CpuSpec::default(),
        };
        cpu.process(&mut cpu_model, &part, &task, 0.01, &hyper);

        let mut gpu = GpuWorker::new(gpu_sim::GpuSpec::default().with_workers(1));
        gpu.process(SimTime::ZERO, &mut gpu_model, &part, &task, 0.01, &hyper);

        assert_eq!(cpu_model, gpu_model);
    }

    #[test]
    fn resident_mode_skips_transfer_charges() {
        let (mut model, part, task) = setup();
        let hyper = mf_sgd::HyperParams::movielens(4);
        let mut cold = GpuWorker::new(gpu_sim::GpuSpec::default());
        let (cost_cold, _) = cold.process(
            SimTime::ZERO,
            &mut model.clone(),
            &part,
            &task,
            0.01,
            &hyper,
        );
        let mut warm = GpuWorker::new(gpu_sim::GpuSpec::default());
        warm.resident_all = true;
        let (cost_warm, _) = warm.process(SimTime::ZERO, &mut model, &part, &task, 0.01, &hyper);
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
