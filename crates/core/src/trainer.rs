//! The virtual-time training world.
//!
//! [`VirtualExecutor`] is the DES implementation of
//! [`crate::executor::Executor`]: a deterministic discrete-event
//! simulation drives any [`BlockScheduler`] over a pool of virtual
//! devices:
//!
//! * Every device keeps [`Device::queue_depth`] tasks in flight: CPU
//!   workers hold one and request the next on completion; GPUs keep
//!   **two** (current + prefetched), which is what lets the stream
//!   pipeline overlap the next block's transfer with the current kernel —
//!   the reason the HSGD\* grid has `2·n_g` extra columns.
//! * Every task executes real SGD arithmetic on the shared model at
//!   dispatch; its completion event fires at the modeled time. Because
//!   concurrently scheduled tasks are independent (disjoint factor rows),
//!   the serialized execution is equivalent to the parallel one.
//!
//! Test-RMSE probes fire at iteration boundaries (and optionally on a
//! virtual-time interval), producing the RMSE-over-time series of
//! Figs. 12–13; an optional RMSE target stops the run early, the
//! measurement protocol of Sec. VII-A.
//!
//! The same schedulers run on real OS threads through
//! [`crate::runtime`] — see ARCHITECTURE.md § "Execution layers".

use std::collections::VecDeque;

use mf_des::{Engine, EngineHandle, SimTime};
use mf_sgd::Model;
use mf_sparse::SparseMatrix;

use crate::config::HeteroConfig;
use crate::devices::CpuWorker;
use crate::executor::{
    train_with_executor, Device, DeviceHealth, ExecContext, ExecOutcome, Executor, ProbeState,
};
use crate::scheduler::{BlockScheduler, Task, WorkerClass};

pub use crate::executor::{DevicePool, TrainOutcome};

#[derive(Debug, Clone, Copy)]
enum Ev {
    Kick(usize),
    Finish(usize),
    Probe,
}

/// One virtual device plus its in-flight window and identity.
struct Slot {
    dev: Box<dyn Device>,
    class: WorkerClass,
    inflight: VecDeque<Task>,
}

struct Sim<'a, 'b> {
    ctx: &'b mut ExecContext<'a>,
    /// CPU slots first (`0..ncpu`), then GPU slots — the same index space
    /// the events carry.
    slots: Vec<Slot>,
    ncpu: usize,
    /// Requeue a failed device's in-flight tasks to the scheduler (the
    /// device-failure drain fix). Always on in production; the fuzz
    /// harness's negative test turns it off to demonstrate the monitor
    /// catches the pre-fix lost-block stall.
    drain_failed: bool,
    probes: ProbeState,
    cpu_points: u64,
    gpu_points: u64,
    cpu_busy: f64,
    gpu_busy: f64,
    end_time: SimTime,
}

impl Sim<'_, '_> {
    fn is_drained(&self) -> bool {
        self.slots.iter().all(|s| s.inflight.is_empty())
    }

    fn is_done(&self) -> bool {
        if !self.is_drained() {
            return false;
        }
        if self.ctx.scheduler.remaining() == 0 || self.probes.stopped {
            return true;
        }
        // Drained with passes left: terminal when a device failure
        // explains the stall (no finish event will ever fire again) —
        // without this, an interval Probe would reschedule itself forever
        // on a failure-stalled run.
        self.slots
            .iter()
            .any(|s| matches!(s.dev.health(), DeviceHealth::Failed))
    }

    fn dispatch(&mut self, i: usize, now: SimTime, h: &mut EngineHandle<'_, Ev>) {
        if self.probes.stopped {
            return;
        }
        let slot = &mut self.slots[i];
        // Re-polled every iteration: a failed device accepts no new work
        // (even if it failed while processing the task just dispatched);
        // whatever it still holds drains back to the scheduler as its
        // finish events arrive.
        while slot.inflight.len() < slot.dev.queue_depth()
            && !matches!(slot.dev.health(), DeviceHealth::Failed)
        {
            let Some(task) = self.ctx.scheduler.next_task(slot.class, self.ctx.part) else {
                break;
            };
            let gamma = self.ctx.cfg.hyper.gamma_at(task.pass);
            let comp = slot.dev.process(
                now,
                self.ctx.model,
                self.ctx.part,
                &task,
                gamma,
                &self.ctx.cfg.hyper,
            );
            match slot.class {
                WorkerClass::Cpu => {
                    self.cpu_busy += comp.busy_secs;
                    self.cpu_points += task.points as u64;
                }
                WorkerClass::Gpu(_) => {
                    self.gpu_busy += comp.busy_secs;
                    self.gpu_points += task.points as u64;
                }
            }
            slot.inflight.push_back(task);
            h.schedule(comp.done, Ev::Finish(i));
        }
    }

    fn dispatch_all(&mut self, now: SimTime, h: &mut EngineHandle<'_, Ev>) {
        // GPUs first: they are the scarce, fast resource and must win the
        // race for freshly freed column bands. Offering columns to CPU
        // workers first lets a finishing CPU instantly re-occupy whatever
        // it (or a neighbor) just released, and a waiting GPU can then
        // starve behind 16 threads churning small blocks.
        for i in self.ncpu..self.slots.len() {
            self.dispatch(i, now, h);
        }
        for i in 0..self.ncpu {
            self.dispatch(i, now, h);
        }
    }

    fn handle(&mut self, now: SimTime, ev: Ev, h: &mut EngineHandle<'_, Ev>) {
        match ev {
            Ev::Kick(i) => self.dispatch(i, now, h),
            Ev::Finish(i) => {
                let task = self.slots[i]
                    .inflight
                    .pop_front()
                    .expect("device finish without a task in flight");
                if matches!(self.slots[i].dev.health(), DeviceHealth::Failed) {
                    // The device died with this task in flight: its result
                    // is lost, so the pass goes back to the scheduler for
                    // another device to redo. (The SGD arithmetic already
                    // ran at dispatch — the DES world cannot un-apply it —
                    // but scheduling-wise the pass is not counted and the
                    // bands are free again.) With the drain fix disabled,
                    // the task simply vanishes with the device, which is
                    // the pre-fix stalling behaviour the fuzz harness's
                    // negative test pins down.
                    if self.drain_failed {
                        self.ctx.scheduler.requeue(&task);
                        self.dispatch_all(now, h);
                    }
                    return;
                }
                self.ctx.scheduler.release(&task);
                self.end_time = self.end_time.max(now);
                self.probes.at_boundary(
                    self.ctx.scheduler.completed(),
                    now.as_secs(),
                    self.ctx.model,
                    self.ctx.test,
                    self.ctx.epoch_hook,
                );
                self.dispatch_all(now, h);
            }
            Ev::Probe => {
                self.probes
                    .probe(now.as_secs(), self.ctx.model, self.ctx.test);
                if let Some(interval) = self.ctx.cfg.probe_interval_secs {
                    if !self.is_done() {
                        h.schedule_after(SimTime::from_secs(interval), Ev::Probe);
                    }
                }
            }
        }
    }
}

/// A hook that may wrap each virtual device as the DES world builds its
/// slots — how fault injectors interpose latency/health adversaries
/// without the world knowing about them.
pub type DeviceWrapper = dyn FnMut(Box<dyn Device>, WorkerClass) -> Box<dyn Device>;

/// The virtual-time (discrete-event simulation) execution world.
///
/// Durations come from calibrated performance models; arithmetic is real.
/// Runs are bit-for-bit reproducible because the event order is fully
/// deterministic.
pub struct VirtualExecutor {
    wrap: Option<Box<DeviceWrapper>>,
    drain_failed: bool,
}

impl std::fmt::Debug for VirtualExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtualExecutor")
            .field("wrap", &self.wrap.as_ref().map(|_| ".."))
            .field("drain_failed", &self.drain_failed)
            .finish()
    }
}

impl Default for VirtualExecutor {
    fn default() -> VirtualExecutor {
        VirtualExecutor::new()
    }
}

impl VirtualExecutor {
    /// Creates the DES world.
    pub fn new() -> VirtualExecutor {
        VirtualExecutor {
            wrap: None,
            drain_failed: true,
        }
    }

    /// Installs a device wrapper: every slot's device (CPU workers and
    /// GPUs alike) is passed through `wrap` at world construction, so a
    /// fault injector can interpose adversarial latency and health state
    /// per device.
    pub fn with_device_wrapper(mut self, wrap: Box<DeviceWrapper>) -> VirtualExecutor {
        self.wrap = Some(wrap);
        self
    }

    /// Enables/disables the failed-device drain fix (on by default).
    /// Disabling reproduces the pre-fix behaviour where a dead device's
    /// in-flight tasks vanish with it — only the fuzz harness's negative
    /// test should ever want this.
    pub fn with_drain_failed(mut self, on: bool) -> VirtualExecutor {
        self.drain_failed = on;
        self
    }
}

impl Executor for VirtualExecutor {
    fn name(&self) -> &'static str {
        "virtual-time DES"
    }

    fn execute(&mut self, mut ctx: ExecContext<'_>) -> ExecOutcome {
        let nblocks = ctx.scheduler.spec().block_count() as u64;
        let cpu_workers = ctx.pool.cpu_workers;
        let cpu_spec = ctx.cfg.cpu;
        let gpu_start = std::mem::take(&mut ctx.pool.gpu_start);
        let mut wrap_dev = |dev: Box<dyn Device>, class: WorkerClass| match &mut self.wrap {
            Some(w) => w(dev, class),
            None => dev,
        };
        let mut slots: Vec<Slot> = (0..cpu_workers)
            .map(|_| Slot {
                dev: wrap_dev(Box::new(CpuWorker { spec: cpu_spec }), WorkerClass::Cpu),
                class: WorkerClass::Cpu,
                inflight: VecDeque::new(),
            })
            .collect();
        for (g, gpu) in std::mem::take(&mut ctx.pool.gpus).into_iter().enumerate() {
            let class = WorkerClass::Gpu(g as u32);
            slots.push(Slot {
                dev: wrap_dev(Box::new(gpu), class),
                class,
                inflight: VecDeque::new(),
            });
        }

        let probe_interval = ctx.cfg.probe_interval_secs;
        let target = ctx.cfg.target_rmse;
        let mut sim = Sim {
            slots,
            ncpu: cpu_workers,
            drain_failed: self.drain_failed,
            probes: ProbeState::new(nblocks, target),
            cpu_points: 0,
            gpu_points: 0,
            cpu_busy: 0.0,
            gpu_busy: 0.0,
            end_time: SimTime::ZERO,
            ctx: &mut ctx,
        };

        // Baseline probe before any update. Early-exit: if the initial
        // model already satisfies the target, no training happens.
        sim.probes.probe(0.0, sim.ctx.model, sim.ctx.test);
        let mut engine: Engine<Ev> = Engine::new();
        if !sim.probes.stopped {
            for i in 0..cpu_workers {
                engine.schedule(SimTime::ZERO, Ev::Kick(i));
            }
            for g in cpu_workers..sim.slots.len() {
                let start = gpu_start
                    .get(g - cpu_workers)
                    .copied()
                    .unwrap_or(SimTime::ZERO);
                engine.schedule(start, Ev::Kick(g));
            }
            if let Some(interval) = probe_interval {
                engine.schedule(SimTime::from_secs(interval), Ev::Probe);
            }
        }

        let mut handler = |now: SimTime, ev: Ev, h: &mut EngineHandle<'_, Ev>| {
            sim.handle(now, ev, h);
        };
        while engine.step(&mut handler) {}

        // A drained event queue with passes left is a deadlock — unless a
        // device failure explains it (e.g. the only device that could run
        // a region died), in which case the run ends early but cleanly.
        let any_failed = sim
            .slots
            .iter()
            .any(|s| matches!(s.dev.health(), DeviceHealth::Failed));
        let stalled = sim.ctx.scheduler.remaining() > 0 && !sim.probes.stopped;
        assert!(
            !stalled || any_failed,
            "trainer deadlock: {} passes unassigned with all devices idle",
            sim.ctx.scheduler.remaining()
        );

        let end = sim.end_time.as_secs();
        let final_rmse = sim.probes.finish(end, sim.ctx.model, sim.ctx.test);
        ExecOutcome {
            end_secs: end,
            rmse_series: std::mem::take(&mut sim.probes.series),
            time_to_target_secs: sim.probes.time_to_target,
            final_rmse,
            cpu_points: sim.cpu_points,
            gpu_points: sim.gpu_points,
            cpu_busy_secs: sim.cpu_busy,
            gpu_busy_secs: sim.gpu_busy,
            ended_early: sim.probes.stopped || stalled,
            measured: None,
        }
    }
}

/// Runs a full training simulation in virtual time. `alpha_planned` and
/// `label` flow into the report.
pub fn run_training<S: BlockScheduler + Send>(
    train: &SparseMatrix,
    test: &SparseMatrix,
    scheduler: S,
    pool: DevicePool,
    cfg: &HeteroConfig,
    alpha_planned: Option<f64>,
    label: &str,
) -> TrainOutcome {
    run_training_with_hook(
        train,
        test,
        scheduler,
        pool,
        cfg,
        alpha_planned,
        label,
        |_, _| {},
    )
}

/// [`run_training`] with a per-epoch hook: `epoch_hook(epoch, &model)`
/// fires each time a full pass over the grid completes (1-based epoch
/// counter, the model exactly as it stands at that virtual instant).
/// This is the trainer side of checkpointing — pass
/// `mf_serve::checkpoint::epoch_hook(dir, cfg.seed)` to persist one
/// `MFCK` checkpoint per epoch; the hook runs synchronously in
/// virtual time, so the captured factors are the deterministic
/// epoch-boundary state, not a racy snapshot. Runs stopped early by
/// `target_rmse` stop emitting epochs at the stop point.
#[allow(clippy::too_many_arguments)]
pub fn run_training_with_hook<S: BlockScheduler + Send, H: FnMut(u64, &Model)>(
    train: &SparseMatrix,
    test: &SparseMatrix,
    scheduler: S,
    pool: DevicePool,
    cfg: &HeteroConfig,
    alpha_planned: Option<f64>,
    label: &str,
    epoch_hook: H,
) -> TrainOutcome {
    let mut exec = VirtualExecutor::new();
    train_with_executor(
        train,
        test,
        scheduler,
        pool,
        cfg,
        alpha_planned,
        label,
        epoch_hook,
        &mut exec,
    )
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CostModelKind, CpuSpec};
    use crate::devices::GpuWorker;
    use crate::layout::uniform_layout;
    use crate::scheduler::UniformScheduler;
    use mf_sgd::HyperParams;
    use mf_sparse::Rating;

    fn low_rank_data(m: u32, n: u32, seed: u64) -> (SparseMatrix, SparseMatrix) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<[f32; 2]> = (0..m).map(|_| [rng.random(), rng.random()]).collect();
        let b: Vec<[f32; 2]> = (0..n).map(|_| [rng.random(), rng.random()]).collect();
        let mut train = Vec::new();
        let mut test = Vec::new();
        for u in 0..m {
            for v in 0..n {
                let x: f32 = rng.random();
                if x < 0.7 {
                    let r = 1.0
                        + 2.0
                            * (a[u as usize][0] * b[v as usize][0]
                                + a[u as usize][1] * b[v as usize][1]);
                    if x < 0.6 {
                        train.push(Rating::new(u, v, r));
                    } else {
                        test.push(Rating::new(u, v, r));
                    }
                }
            }
        }
        (
            SparseMatrix::new(m, n, train).unwrap(),
            SparseMatrix::new(m, n, test).unwrap(),
        )
    }

    fn test_cfg(iterations: u32) -> HeteroConfig {
        HeteroConfig {
            hyper: HyperParams {
                k: 8,
                lambda_p: 0.01,
                lambda_q: 0.01,
                gamma: 0.05,
                schedule: mf_sgd::LearningRate::Fixed,
            },
            nc: 4,
            ng: 1,
            gpu: gpu_sim::GpuSpec::default().scaled_down(1000.0),
            cpu: CpuSpec::default(),
            iterations,
            seed: 9,
            dynamic_scheduling: true,
            cost_model: CostModelKind::Tailored,
            probe_interval_secs: None,
            target_rmse: None,
        }
    }

    #[test]
    fn cpu_only_run_completes_and_converges() {
        let (train, test) = low_rank_data(40, 40, 1);
        let cfg = test_cfg(40);
        let spec = uniform_layout(&train, 5, 4);
        let sched = UniformScheduler::new(spec, cfg.iterations, true);
        let pool = DevicePool {
            cpu_workers: 4,
            gpus: vec![],
            gpu_start: vec![],
        };
        let out = run_training(&train, &test, sched, pool, &cfg, None, "CPU-Only");
        assert_eq!(out.report.total_passes, 20 * 40);
        let slack = crate::scheduler::SOFT_CAP_SLACK;
        assert!(out
            .report
            .update_counts
            .iter()
            .all(|&c| c <= 40 + slack && c + 3 * slack >= 40));
        assert!(out.report.virtual_secs > 0.0);
        assert!(
            out.report.final_test_rmse < 0.3,
            "rmse {}",
            out.report.final_test_rmse
        );
        assert_eq!(out.report.gpu_points, 0);
        assert!(out.report.cpu_points > 0);
        // RMSE series is non-trivially populated and time-sorted.
        assert!(out.report.rmse_series.len() >= 10);
        assert!(out.report.rmse_series.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn gpu_only_run_completes() {
        let (train, test) = low_rank_data(40, 40, 2);
        let cfg = test_cfg(30);
        let spec = uniform_layout(&train, 1, 3);
        let sched = UniformScheduler::new(spec, cfg.iterations, true);
        let mut gpu = GpuWorker::new(cfg.gpu);
        gpu.resident_all = true;
        let load = gpu.initial_load_time(train.nnz() as u64, &Model::init(40, 40, 8, 9));
        let pool = DevicePool {
            cpu_workers: 0,
            gpus: vec![gpu],
            gpu_start: vec![load],
        };
        let out = run_training(&train, &test, sched, pool, &cfg, None, "GPU-Only");
        assert_eq!(out.report.total_passes, 3 * 30);
        assert!(out.report.final_test_rmse < 0.35);
        assert_eq!(out.report.cpu_points, 0);
        assert!(out.report.gpu_points > 0);
        assert!(out.report.virtual_secs >= load.as_secs());
    }

    #[test]
    fn deterministic_given_seed() {
        let (train, test) = low_rank_data(30, 30, 3);
        let cfg = test_cfg(10);
        let run = || {
            let spec = uniform_layout(&train, 5, 4);
            let sched = UniformScheduler::new(spec, cfg.iterations, true);
            let pool = DevicePool {
                cpu_workers: 4,
                gpus: vec![],
                gpu_start: vec![],
            };
            run_training(&train, &test, sched, pool, &cfg, None, "CPU-Only")
        };
        let a = run();
        let b = run();
        assert_eq!(a.model, b.model);
        assert_eq!(a.report.virtual_secs, b.report.virtual_secs);
        assert_eq!(a.report.rmse_series, b.report.rmse_series);
    }

    #[test]
    fn epoch_hook_fires_once_per_epoch_with_final_model() {
        let (train, test) = low_rank_data(30, 30, 7);
        let cfg = test_cfg(8);
        let spec = uniform_layout(&train, 5, 4);
        let sched = UniformScheduler::new(spec, cfg.iterations, true);
        let pool = DevicePool {
            cpu_workers: 4,
            gpus: vec![],
            gpu_start: vec![],
        };
        let mut epochs = Vec::new();
        let mut snapshots: Vec<Model> = Vec::new();
        let out = run_training_with_hook(
            &train,
            &test,
            sched,
            pool,
            &cfg,
            None,
            "CPU-Only",
            |e, m| {
                epochs.push(e);
                snapshots.push(m.clone());
            },
        );
        // One hook call per epoch, in order, 1-based.
        assert_eq!(epochs, (1..=8).collect::<Vec<u64>>());
        // The last snapshot is the finished model.
        assert_eq!(snapshots.last().unwrap(), &out.model);
        // Earlier snapshots differ (training moved the factors).
        assert_ne!(snapshots.first().unwrap(), &out.model);
    }

    /// Wrapper device that permanently fails after a fixed number of
    /// dispatched tasks — the unit-level stand-in for the fuzz harness's
    /// scripted device deaths.
    struct FailAfter {
        inner: Box<dyn Device>,
        cell: std::sync::Arc<crate::executor::HealthCell>,
        left: usize,
    }

    impl Device for FailAfter {
        fn queue_depth(&self) -> usize {
            self.inner.queue_depth()
        }

        fn health(&self) -> crate::executor::DeviceHealth {
            self.cell.get()
        }

        fn process(
            &mut self,
            now: SimTime,
            model: &mut Model,
            part: &mf_sparse::GridPartition,
            task: &Task,
            gamma: f32,
            hyper: &mf_sgd::HyperParams,
        ) -> crate::executor::DeviceCompletion {
            let comp = self.inner.process(now, model, part, task, gamma, hyper);
            self.left -= 1;
            if self.left == 0 {
                self.cell.fail();
            }
            comp
        }
    }

    #[test]
    fn failed_device_drains_queue_back_to_scheduler() {
        use crate::executor::HealthCell;
        use crate::layout::StarLayout;
        use crate::scheduler::StarScheduler;
        use std::sync::Arc;

        // A star run whose GPU dies after 3 dispatched tasks, with one of
        // them still in flight. The drain fix must requeue the in-flight
        // work so the CPU workers finish everything: no pass lost, no
        // deadlock panic, accounting exact.
        let (train, test) = low_rank_data(48, 48, 11);
        let cfg = test_cfg(2);
        let layout = StarLayout::build(&train, 2, 1, 0.5);
        let sched = StarScheduler::new(layout, cfg.iterations, true);
        let pool = DevicePool {
            cpu_workers: 2,
            gpus: vec![GpuWorker::new(cfg.gpu)],
            gpu_start: vec![SimTime::ZERO],
        };
        let cell = Arc::new(HealthCell::new());
        let cell2 = Arc::clone(&cell);
        let mut exec =
            VirtualExecutor::new().with_device_wrapper(Box::new(move |dev, class| match class {
                WorkerClass::Gpu(_) => Box::new(FailAfter {
                    inner: dev,
                    cell: Arc::clone(&cell2),
                    left: 3,
                }),
                WorkerClass::Cpu => dev,
            }));
        let out = train_with_executor(
            &train,
            &test,
            sched,
            pool,
            &cfg,
            None,
            "gpu-dies",
            |_, _| {},
            &mut exec,
        );
        assert!(cell.is_failed(), "the injected failure must have fired");
        assert!(out.report.gpu_points > 0, "GPU worked before dying");
        assert!(out.report.cpu_points > 0);
        // Drain invariant: every completed pass is counted exactly once —
        // a lost (never-requeued) task would leave counts above completed,
        // a double-executed one would leave them below.
        let total: u64 = out.report.update_counts.iter().map(|&c| c as u64).sum();
        assert_eq!(total, out.report.total_passes);
        // And nothing was left unassigned: the CPU side stole the dead
        // GPU's region to completion.
        assert_eq!(
            out.report.total_passes,
            out.report.update_counts.len() as u64 * cfg.iterations as u64
        );
    }

    #[test]
    fn all_devices_failed_ends_early_instead_of_deadlocking() {
        use crate::executor::HealthCell;
        use std::sync::Arc;

        // Every device dies almost immediately: the run must end with
        // `ended_early` (not the deadlock assert) and consistent counts.
        let (train, test) = low_rank_data(30, 30, 12);
        let cfg = test_cfg(6);
        let spec = uniform_layout(&train, 5, 4);
        let sched = UniformScheduler::new(spec, cfg.iterations, true);
        let pool = DevicePool {
            cpu_workers: 2,
            gpus: vec![],
            gpu_start: vec![],
        };
        let mut exec = VirtualExecutor::new().with_device_wrapper(Box::new(|dev, _| {
            Box::new(FailAfter {
                inner: dev,
                cell: Arc::new(HealthCell::new()),
                left: 2,
            })
        }));
        let out = train_with_executor(
            &train,
            &test,
            sched,
            pool,
            &cfg,
            None,
            "all-die",
            |_, _| {},
            &mut exec,
        );
        // Whatever completed is exactly what the counts say.
        let total: u64 = out.report.update_counts.iter().map(|&c| c as u64).sum();
        assert_eq!(total, out.report.total_passes);
        assert!(out.report.total_passes < 20 * cfg.iterations as u64);
    }

    #[test]
    fn target_rmse_stops_early() {
        let (train, test) = low_rank_data(40, 40, 4);
        let mut cfg = test_cfg(200);
        cfg.target_rmse = Some(0.5);
        let spec = uniform_layout(&train, 5, 4);
        let sched = UniformScheduler::new(spec, cfg.iterations, true);
        let pool = DevicePool {
            cpu_workers: 4,
            gpus: vec![],
            gpu_start: vec![],
        };
        let out = run_training(&train, &test, sched, pool, &cfg, None, "CPU-Only");
        let t = out
            .report
            .time_to_target_secs
            .expect("target should be reached");
        assert!(t > 0.0);
        // Stopped early: fewer passes than the full budget.
        assert!(out.report.total_passes < 20 * 200);
        assert!(out.report.final_test_rmse <= 0.55);
    }

    #[test]
    fn hybrid_run_uses_both_devices() {
        let (train, test) = low_rank_data(60, 60, 5);
        let cfg = test_cfg(10);
        // HSGD-style: uniform grid without per-block cap.
        let spec = uniform_layout(&train, 6, 5);
        let sched = UniformScheduler::new(spec, cfg.iterations, false);
        let pool = DevicePool {
            cpu_workers: 4,
            gpus: vec![GpuWorker::new(cfg.gpu)],
            gpu_start: vec![SimTime::ZERO],
        };
        let out = run_training(&train, &test, sched, pool, &cfg, None, "HSGD");
        assert!(out.report.cpu_points > 0, "CPU should contribute");
        assert!(out.report.gpu_points > 0, "GPU should contribute");
        assert_eq!(out.report.total_passes, 30 * 10);
    }

    #[test]
    fn interval_probes_fire() {
        let (train, test) = low_rank_data(40, 40, 6);
        let mut cfg = test_cfg(20);
        cfg.probe_interval_secs = Some(5e-5);
        let spec = uniform_layout(&train, 5, 4);
        let sched = UniformScheduler::new(spec, cfg.iterations, true);
        let pool = DevicePool {
            cpu_workers: 4,
            gpus: vec![],
            gpu_start: vec![],
        };
        let out = run_training(&train, &test, sched, pool, &cfg, None, "CPU-Only");
        // Interval probes should outnumber the ~20 boundary probes.
        assert!(
            out.report.rmse_series.len() > 25,
            "only {} probes",
            out.report.rmse_series.len()
        );
    }
}
