//! The execution-world abstraction: one scheduling core, two worlds.
//!
//! The paper's contribution — cost-model-driven conflict-free block
//! scheduling across asymmetric CPU and GPU workers — is a *policy*, not
//! an execution strategy. This module separates the two:
//!
//! * A [`BlockScheduler`] owns the policy: who gets which blocks, in what
//!   order, with what stealing rules.
//! * An [`Executor`] owns a *world* that drives the policy: the
//!   virtual-time discrete-event world ([`crate::trainer`]) where
//!   durations come from calibrated models, and the real-thread world
//!   ([`crate::runtime`]) where OS threads execute the same kernels at
//!   hardware speed.
//!
//! Both worlds receive the scheduler through [`ExecContext`] as a trait
//! object, so the *same scheduler instance type* — `UniformScheduler` or
//! `StarScheduler`, unchanged — produces the paper's behavior in
//! simulation and on real threads, with no forked scheduling logic.
//! [`train_with_executor`] is the shared driver: it builds the partition
//! and the seeded model, hands them to the chosen world, and assembles
//! the [`RunReport`] from whatever the world measured.
//!
//! The [`Device`] trait plays the same role one level down, for the
//! virtual world's per-task execution: CPU workers and GPUs differ only
//! in how many tasks they keep in flight and how completion times are
//! modeled.

use std::sync::atomic::{AtomicU64, Ordering};

use mf_des::SimTime;
use mf_sgd::{eval, HyperParams, Model};
use mf_sparse::{BlockOrder, GridPartition, SparseMatrix};

use crate::config::HeteroConfig;
use crate::devices::GpuWorker;
use crate::scheduler::{BlockScheduler, Task};
use crate::stats::RunReport;

/// The devices participating in a run.
pub struct DevicePool {
    /// Number of CPU worker threads.
    pub cpu_workers: usize,
    /// GPU devices (may be empty).
    pub gpus: Vec<GpuWorker>,
    /// Virtual time at which each GPU becomes available (bulk-load delay
    /// for the fully resident GPU-Only regime; zero otherwise). The
    /// real-thread world ignores this — it models a DES-only startup
    /// latency.
    pub gpu_start: Vec<SimTime>,
}

/// A finished run: the trained model plus its report.
pub struct TrainOutcome {
    /// The trained factor model.
    pub model: Model,
    /// Everything measured during the run.
    pub report: RunReport,
}

/// What a virtual device reports after accepting one task.
#[derive(Debug, Clone, Copy)]
pub struct DeviceCompletion {
    /// Absolute virtual time at which the task completes.
    pub done: SimTime,
    /// Seconds of busy time charged to the device (kernel time for GPUs).
    pub busy_secs: f64,
}

/// Health of one device, as reported by its [`Device::health`] poll.
///
/// Execution worlds consult this at dispatch and completion boundaries:
/// a `Degraded` device keeps working (worlds that model time may stretch
/// its completion times by the factor), while a `Failed` device must
/// receive no further work and its queued tasks must be *requeued* to the
/// scheduler ([`BlockScheduler::requeue`]) so the remaining devices can
/// pick them up instead of the run stalling on lost bands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeviceHealth {
    /// Operating normally.
    Ok,
    /// Still working, but slowed down by the given factor (≥ 1 means
    /// "takes that many times longer").
    Degraded(f64),
    /// Permanently gone: accepts no new work; queued work must be drained
    /// back to the scheduler.
    Failed,
}

/// A shared, lock-free health flag for one device.
///
/// Fault injectors flip the cell from outside while an execution world
/// polls it at its dispatch/completion boundaries — which is why it is an
/// atomic rather than a field on the device: the real-thread world reads
/// it from worker threads while the monitor writes it from release
/// callbacks.
///
/// Encoding (one `AtomicU64`): `0` = Ok, `1` = Failed, any other value =
/// the `f64` bit pattern of a `Degraded` slowdown factor. Factors are
/// clamped to ≥ 1e-6 so their bit patterns can never collide with the two
/// reserved words.
#[derive(Debug, Default)]
pub struct HealthCell(AtomicU64);

impl HealthCell {
    const OK: u64 = 0;
    const FAILED: u64 = 1;

    /// A cell starting in the [`DeviceHealth::Ok`] state.
    pub fn new() -> HealthCell {
        HealthCell(AtomicU64::new(Self::OK))
    }

    /// Reads the current health.
    pub fn get(&self) -> DeviceHealth {
        match self.0.load(Ordering::Acquire) {
            Self::OK => DeviceHealth::Ok,
            Self::FAILED => DeviceHealth::Failed,
            bits => DeviceHealth::Degraded(f64::from_bits(bits)),
        }
    }

    /// Sets the health. Degraded factors are clamped to ≥ 1e-6 (so their
    /// bit patterns stay clear of the Ok/Failed words); a non-finite
    /// factor is treated as a failure. Failure is sticky: once `Failed`,
    /// later `Ok`/`Degraded` writes are ignored — a dead device does not
    /// come back mid-run.
    pub fn set(&self, health: DeviceHealth) {
        let bits = match health {
            DeviceHealth::Ok => Self::OK,
            DeviceHealth::Failed => Self::FAILED,
            DeviceHealth::Degraded(f) if !f.is_finite() => Self::FAILED,
            DeviceHealth::Degraded(f) => f.max(1e-6).to_bits(),
        };
        // Sticky failure: only move away from FAILED if we *are* FAILED →
        // never. compare_exchange loop is overkill; a fetch_update keeps
        // the invariant under concurrent writers.
        let _ = self
            .0
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                (cur != Self::FAILED).then_some(bits)
            });
    }

    /// Marks the device permanently failed.
    pub fn fail(&self) {
        self.0.store(Self::FAILED, Ordering::Release);
    }

    /// Whether the device is permanently failed.
    pub fn is_failed(&self) -> bool {
        self.0.load(Ordering::Acquire) == Self::FAILED
    }
}

/// One virtual device in the DES world: executes a task's real SGD
/// arithmetic at dispatch and reports the modeled completion time.
pub trait Device {
    /// How many tasks this device keeps in flight: 1 for a CPU worker,
    /// 2 for a GPU (current + prefetched — what lets the stream pipeline
    /// overlap the next block's transfer with the current kernel, and the
    /// reason the HSGD\* grid has `2·n_g` extra columns).
    fn queue_depth(&self) -> usize;

    /// Current health. The default device never fails; fault-injecting
    /// wrappers and [`crate::devices::GpuWorker`] report a shared
    /// [`HealthCell`].
    fn health(&self) -> DeviceHealth {
        DeviceHealth::Ok
    }

    /// Executes `task` on `model` at virtual time `now`.
    fn process(
        &mut self,
        now: SimTime,
        model: &mut Model,
        part: &GridPartition,
        task: &Task,
        gamma: f32,
        hyper: &HyperParams,
    ) -> DeviceCompletion;
}

/// Throughputs and cost models *measured* during a real-thread run — the
/// online counterpart of the offline calibration, reported so planned and
/// realized economics can be compared (and so the measurement can seed
/// the next run's calibration).
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredThroughput {
    /// Wall-clock seconds of the whole run.
    pub wall_secs: f64,
    /// Sustained points/second of one CPU worker thread (busy time only),
    /// when any CPU work ran.
    pub cpu_points_per_sec: Option<f64>,
    /// Sustained points/second of one GPU (busy time only), when any GPU
    /// work ran.
    pub gpu_points_per_sec: Option<f64>,
    /// Linear cost model refit from per-task CPU wall times (None when
    /// the samples cannot support a fit).
    pub cpu_model: Option<mf_cost::LinearCost>,
    /// Linear cost model refit from per-task GPU wall times.
    pub gpu_model: Option<mf_cost::LinearCost>,
    /// The workload split the *measured* models ask for, re-solved with
    /// the same Eq. 8 bisection the planner used.
    pub alpha_measured: Option<f64>,
    /// The scheduler's dynamic balance parameter at the end of the run
    /// (`StarScheduler`'s steal break-even ratio — measured-feedback
    /// updates land here).
    pub final_dynamic_ratio: Option<f64>,
}

/// Everything an execution world needs to run one training session.
pub struct ExecContext<'a> {
    /// The scheduling policy. `Send` because the real-thread world shares
    /// it (under a lock) across workers.
    pub scheduler: &'a mut (dyn BlockScheduler + Send),
    /// The partitioned training data.
    pub part: &'a GridPartition,
    /// The factor model, seeded by the driver.
    pub model: &'a mut Model,
    /// Held-out ratings for RMSE probes.
    pub test: &'a SparseMatrix,
    /// Run configuration.
    pub cfg: &'a HeteroConfig,
    /// The participating devices.
    pub pool: DevicePool,
    /// Fires `(epoch, &model)` at epoch boundaries where the world can
    /// guarantee exclusive model access (the DES world: every boundary;
    /// the real-thread world: between exclusive-mode rounds only).
    pub epoch_hook: &'a mut dyn FnMut(u64, &Model),
}

/// What an execution world measured.
pub struct ExecOutcome {
    /// End-of-run clock in the world's own time base: virtual seconds for
    /// the DES world, wall-clock seconds for the real-thread world.
    pub end_secs: f64,
    /// `(time, test_rmse)` probes over the run.
    pub rmse_series: Vec<(f64, f64)>,
    /// When the RMSE target was first reached, if set and reached.
    pub time_to_target_secs: Option<f64>,
    /// Test RMSE at the end.
    pub final_rmse: f64,
    /// Ratings processed by CPU workers.
    pub cpu_points: u64,
    /// Ratings processed by GPUs.
    pub gpu_points: u64,
    /// Total busy seconds across CPU workers.
    pub cpu_busy_secs: f64,
    /// Total kernel-busy seconds across GPUs.
    pub gpu_busy_secs: f64,
    /// True when the run legitimately stopped before draining the full
    /// pass budget (RMSE target reached, or no worker class could make
    /// progress under the configured device set).
    pub ended_early: bool,
    /// Measured throughputs (real-thread worlds only).
    pub measured: Option<MeasuredThroughput>,
}

/// An execution world.
pub trait Executor {
    /// Short human label ("virtual-time DES", "real threads …").
    fn name(&self) -> &'static str;

    /// Drives `ctx.scheduler` to completion, executing every assigned
    /// task's SGD arithmetic on `ctx.model`.
    fn execute(&mut self, ctx: ExecContext<'_>) -> ExecOutcome;
}

/// Shared probe bookkeeping: the RMSE series, epoch-boundary detection,
/// and target-RMSE early stopping, identical in both worlds (only the
/// time base differs).
pub(crate) struct ProbeState {
    pub series: Vec<(f64, f64)>,
    pub time_to_target: Option<f64>,
    pub stopped: bool,
    last_boundary: u64,
    nblocks: u64,
    target: Option<f64>,
}

impl ProbeState {
    pub fn new(nblocks: u64, target: Option<f64>) -> ProbeState {
        ProbeState {
            series: Vec::new(),
            time_to_target: None,
            stopped: false,
            last_boundary: 0,
            nblocks: nblocks.max(1),
            target,
        }
    }

    /// Records one probe at time `t`.
    pub fn probe(&mut self, t: f64, model: &Model, test: &SparseMatrix) {
        let rmse = eval::rmse(model, test);
        self.series.push((t, rmse));
        if let Some(target) = self.target {
            if rmse <= target && self.time_to_target.is_none() {
                self.time_to_target = Some(t);
                self.stopped = true;
            }
        }
    }

    /// Probes (and fires the epoch hook) when `completed` passes crossed
    /// an epoch boundary since the last call.
    pub fn at_boundary(
        &mut self,
        completed: u64,
        t: f64,
        model: &Model,
        test: &SparseMatrix,
        epoch_hook: &mut dyn FnMut(u64, &Model),
    ) {
        let boundary = completed / self.nblocks;
        if boundary > self.last_boundary {
            self.last_boundary = boundary;
            self.probe(t, model, test);
            epoch_hook(boundary, model);
        }
    }

    /// Final probe at `end`: returns the final RMSE and ensures the
    /// series ends at the end time.
    pub fn finish(&mut self, end: f64, model: &Model, test: &SparseMatrix) -> f64 {
        let final_rmse = eval::rmse(model, test);
        if self.series.last().is_none_or(|&(t, _)| t < end) {
            self.series.push((end, final_rmse));
        }
        final_rmse
    }
}

/// Runs one full training session in the given execution world.
///
/// This is the single driver both worlds share: it builds the user-major
/// partition, seeds the model, hands everything to `exec`, and assembles
/// the report. [`crate::trainer::run_training`] is this function with the
/// DES world plugged in; [`crate::runtime::run_training_real`] plugs in
/// the real-thread world.
#[allow(clippy::too_many_arguments)]
pub fn train_with_executor<S, H>(
    train: &SparseMatrix,
    test: &SparseMatrix,
    scheduler: S,
    pool: DevicePool,
    cfg: &HeteroConfig,
    alpha_planned: Option<f64>,
    label: &str,
    epoch_hook: H,
    exec: &mut dyn Executor,
) -> TrainOutcome
where
    S: BlockScheduler + Send,
    H: FnMut(u64, &Model),
{
    // User-major within each block: consecutive updates reuse the same
    // cache-resident `P` row (see `BlockOrder::UserMajor`).
    let part =
        GridPartition::build_with_order(train, scheduler.spec().clone(), BlockOrder::UserMajor);
    train_with_executor_on(
        &part,
        train.mean_rating(),
        test,
        scheduler,
        pool,
        cfg,
        alpha_planned,
        label,
        epoch_hook,
        exec,
    )
}

/// [`train_with_executor`] over a *prebuilt* partition — the entry point
/// for out-of-core runs, whose spill-backed [`GridPartition`] is opened
/// from an arena file rather than built from an in-RAM matrix (see
/// [`crate::spill`]). `mean_rating` seeds the model's rating center
/// (the full matrix may not be resident to compute it from). When the
/// partition is spill-backed, `report.spill` carries the block cache's
/// end-of-run counters.
#[allow(clippy::too_many_arguments)]
pub fn train_with_executor_on<S, H>(
    part: &GridPartition,
    mean_rating: f64,
    test: &SparseMatrix,
    mut scheduler: S,
    pool: DevicePool,
    cfg: &HeteroConfig,
    alpha_planned: Option<f64>,
    label: &str,
    mut epoch_hook: H,
    exec: &mut dyn Executor,
) -> TrainOutcome
where
    S: BlockScheduler + Send,
    H: FnMut(u64, &Model),
{
    let mut model = Model::init_for_ratings(
        part.nrows(),
        part.ncols(),
        cfg.hyper.k,
        cfg.seed,
        mean_rating,
    );

    let outcome = exec.execute(ExecContext {
        scheduler: &mut scheduler,
        part,
        model: &mut model,
        test,
        cfg,
        pool,
        epoch_hook: &mut epoch_hook,
    });

    assert!(
        scheduler.remaining() == 0 || outcome.ended_early,
        "{} executor returned with {} passes unassigned and no early-end reason",
        exec.name(),
        scheduler.remaining()
    );

    let report = RunReport {
        algorithm: label.to_string(),
        virtual_secs: outcome.end_secs,
        time_to_target_secs: outcome.time_to_target_secs,
        final_test_rmse: outcome.final_rmse,
        rmse_series: outcome.rmse_series,
        update_counts: scheduler.counts().to_vec(),
        alpha_planned,
        gpu_points: outcome.gpu_points,
        cpu_points: outcome.cpu_points,
        steals: scheduler.steals(),
        cpu_busy_secs: outcome.cpu_busy_secs,
        gpu_busy_secs: outcome.gpu_busy_secs,
        iterations: cfg.iterations,
        total_passes: scheduler.completed(),
        measured: outcome.measured,
        spill: part.spill().map(|h| h.counters()),
    };
    TrainOutcome { model, report }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn health_cell_roundtrips_every_state() {
        let cell = HealthCell::new();
        assert_eq!(cell.get(), DeviceHealth::Ok);
        cell.set(DeviceHealth::Degraded(3.5));
        assert_eq!(cell.get(), DeviceHealth::Degraded(3.5));
        cell.set(DeviceHealth::Ok);
        assert_eq!(cell.get(), DeviceHealth::Ok);
        cell.fail();
        assert_eq!(cell.get(), DeviceHealth::Failed);
        assert!(cell.is_failed());
    }

    #[test]
    fn health_cell_failure_is_sticky() {
        let cell = HealthCell::new();
        cell.set(DeviceHealth::Failed);
        cell.set(DeviceHealth::Ok);
        assert!(cell.is_failed(), "a dead device must not resurrect");
        cell.set(DeviceHealth::Degraded(2.0));
        assert!(cell.is_failed());
    }

    #[test]
    fn health_cell_clamps_adversarial_factors() {
        // Factors whose bit patterns would collide with the reserved
        // Ok/Failed words (0.0 has bits 0; 5e-324 has bits 1) are clamped
        // up, and non-finite factors read back as failure.
        let cell = HealthCell::new();
        cell.set(DeviceHealth::Degraded(0.0));
        assert_eq!(cell.get(), DeviceHealth::Degraded(1e-6));
        let cell = HealthCell::new();
        cell.set(DeviceHealth::Degraded(f64::from_bits(1)));
        assert_eq!(cell.get(), DeviceHealth::Degraded(1e-6));
        let cell = HealthCell::new();
        cell.set(DeviceHealth::Degraded(f64::INFINITY));
        assert_eq!(cell.get(), DeviceHealth::Failed);
        let cell = HealthCell::new();
        cell.set(DeviceHealth::Degraded(f64::NAN));
        assert_eq!(cell.get(), DeviceHealth::Failed);
    }
}
