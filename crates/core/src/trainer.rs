//! The virtual-time training world.
//!
//! [`VirtualExecutor`] is the DES implementation of
//! [`crate::executor::Executor`]: a deterministic discrete-event
//! simulation drives any [`BlockScheduler`] over the run's seats — the
//! paper's two kinds of worker, matched directly:
//!
//! * A [`CpuWorker`] slot keeps one task in flight and requests the next
//!   on completion; a [`GpuWorker`](crate::devices::GpuWorker) slot keeps
//!   [`GPU_QUEUE_DEPTH`](crate::runtime::GPU_QUEUE_DEPTH) (current +
//!   prefetched), which is what lets the stream pipeline overlap the next
//!   block's transfer with the current kernel — the reason the HSGD\*
//!   grid has `2·n_g` extra columns.
//! * Every task executes real SGD arithmetic on the shared model at
//!   dispatch, through `devices::Seat::run`, the task body the
//!   real-thread world runs too; its completion event fires at the
//!   modeled time. Because concurrently scheduled tasks are independent
//!   (disjoint factor rows), the serialized execution is equivalent to
//!   the parallel one. A task's points and busy time are counted when it
//!   is released, as on threads, so a task lost with a failed seat is
//!   counted once, by the seat that redoes it.
//! * Each slot reads a [`HealthCell`], as the real-thread world does: a
//!   `Degraded(f)` seat's completions stretch by `f`, a `Failed` one
//!   gets no more work and its in-flight tasks drain back to the
//!   scheduler.
//! * A spilled partition's blocks are pinned at dispatch behind one
//!   modeled disk ([`crate::spill`]).
//!
//! Test-RMSE probes fire at iteration boundaries (and optionally on a
//! virtual-time interval), producing the RMSE-over-time series of
//! Figs. 12–13; an optional RMSE target stops the run early, the
//! measurement protocol of Sec. VII-A.
//!
//! The same schedulers run on real OS threads through
//! [`crate::runtime`] — see ARCHITECTURE.md § "Execution layers".

use std::collections::VecDeque;
use std::sync::Arc;

use mf_des::{Engine, EngineHandle, SimTime};
use mf_sgd::{Model, SharedModel};
use mf_sparse::SparseMatrix;

use crate::config::HeteroConfig;
use crate::devices::{CpuWorker, Seat};
use crate::executor::{
    train_with_executor, DeviceHealth, ExecContext, ExecOutcome, Executor, HealthCell, ProbeState,
};
use crate::runtime::Meter;
use crate::scheduler::{BlockScheduler, Task, WorkerClass};
use crate::spill::{IoSpec, IoTimeline};

pub use crate::executor::{DevicePool, TrainOutcome};

#[derive(Debug, Clone, Copy)]
enum Ev {
    Kick(usize),
    Finish(usize),
    Probe,
}

/// One seat plus its health, identity and in-flight window: each task
/// beside its modeled busy seconds, counted when it is released.
struct Slot {
    seat: Seat,
    class: WorkerClass,
    health: Arc<HealthCell>,
    inflight: VecDeque<(Task, f64)>,
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
    disk: IoTimeline,
    hook: Option<&'b mut DispatchHook>,
    probes: ProbeState,
    meter: Meter,
    end_time: SimTime,
}

impl Sim<'_, '_> {
    fn is_drained(&self) -> bool {
        self.slots.iter().all(|s| s.inflight.is_empty())
    }

    fn any_failed(&self) -> bool {
        self.slots.iter().any(|s| s.health.is_failed())
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
        self.any_failed()
    }

    /// Runs `task` on slot `i`'s seat at `now` and returns its modeled
    /// `(completion, busy seconds)`. A spilled task's seat starts once
    /// the disk has read its misses; the completion then stretches by
    /// the slot's `Degraded` factor and the dispatch hook's.
    fn run(&mut self, i: usize, now: SimTime, task: &Task) -> (SimTime, f64) {
        let (part, hyper) = (self.ctx.part, &self.ctx.cfg.hyper);
        let slot = &mut self.slots[i];
        let start = match self.disk.pin(part, task, now) {
            Ok(start) => start,
            Err(e) => {
                // Typed failure: never run a kernel over bytes that did
                // not verify. The seat dies; the failed-device drain
                // requeues this task for a healthy one.
                eprintln!("spill: block load failed, failing device: {e}");
                slot.health.fail();
                return (now, 0.0);
            }
        };
        let model = SharedModel::new(self.ctx.model);
        // SAFETY: the DES borrows the model exclusively and runs one task
        // at a time on this thread.
        let (done, busy) = unsafe { slot.seat.run(start, &model, part, task, hyper) };
        // The arithmetic ran above, so the pins can drop at once.
        part.unpin_blocks(&task.blocks);
        let mut stretch = match slot.health.get() {
            DeviceHealth::Degraded(f) => f.max(1.0),
            _ => 1.0,
        };
        if let Some(hook) = self.hook.as_mut() {
            stretch *= hook(i, task);
        }
        // Only a real stretch re-times: `now + (done − now)·1` can
        // differ from `done` in the last bit.
        if stretch == 1.0 {
            return (done, busy);
        }
        let dur = (done.as_secs() - now.as_secs()).max(0.0) * stretch;
        (now + SimTime::from_secs(dur), busy * stretch)
    }

    fn dispatch(&mut self, i: usize, now: SimTime, h: &mut EngineHandle<'_, Ev>) {
        if self.probes.stopped {
            return;
        }
        // Re-polled every iteration: a failed device accepts no new work
        // (even if it failed while processing the task just dispatched);
        // whatever it still holds drains back to the scheduler as its
        // finish events arrive.
        while self.slots[i].inflight.len() < self.slots[i].seat.depth()
            && !self.slots[i].health.is_failed()
        {
            let class = self.slots[i].class;
            let Some(task) = self.ctx.scheduler.next_task(class, self.ctx.part) else {
                break;
            };
            let (done, busy) = self.run(i, now, &task);
            self.slots[i].inflight.push_back((task, busy));
            h.schedule(done, Ev::Finish(i));
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
                let (task, busy) = self.slots[i]
                    .inflight
                    .pop_front()
                    .expect("device finish without a task in flight");
                if self.slots[i].health.is_failed() {
                    // The device died with this task in flight: its result
                    // is lost, so the pass goes back to the scheduler for
                    // another device to redo. (The SGD arithmetic already
                    // ran at dispatch — the DES world cannot un-apply it —
                    // but neither the pass nor its points and busy time
                    // are counted, and the bands are free again.) With the
                    // drain fix disabled,
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
                self.meter.record(self.slots[i].class, task.points, busy);
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

/// The DES's one per-dispatch hook: called after a seat runs a task,
/// with the slot index (CPU workers `0..cpu_workers`, then one per GPU)
/// and the task. The returned factor multiplies the task's modeled
/// duration, after the slot's `Degraded` factor — how the fuzz harness
/// draws heavy-tailed latency, and how tests fail a seat after N tasks.
pub type DispatchHook = dyn FnMut(usize, &Task) -> f64;

/// The virtual-time (discrete-event simulation) execution world.
///
/// Durations come from calibrated performance models; arithmetic is real.
/// Runs are bit-for-bit reproducible because the event order is fully
/// deterministic.
pub struct VirtualExecutor {
    cpu_health: Vec<Arc<HealthCell>>,
    hook: Option<Box<DispatchHook>>,
    io: IoSpec,
    drain_failed: bool,
}

impl std::fmt::Debug for VirtualExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VirtualExecutor")
            .field("cpu_health", &self.cpu_health)
            .field("hook", &self.hook.as_ref().map(|_| ".."))
            .field("io", &self.io)
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
    /// Creates the DES world, with spilled blocks read from an
    /// [`IoSpec::default`] disk.
    pub fn new() -> VirtualExecutor {
        VirtualExecutor {
            cpu_health: Vec::new(),
            hook: None,
            io: IoSpec::default(),
            drain_failed: true,
        }
    }

    /// Gives CPU slot `i` the health cell `cells[i]`; a slot without one
    /// gets a fresh cell. GPU slots read their worker's own cell
    /// ([`GpuWorker::health_handle`](crate::devices::GpuWorker::health_handle)).
    pub fn with_cpu_health(mut self, cells: Vec<Arc<HealthCell>>) -> VirtualExecutor {
        self.cpu_health = cells;
        self
    }

    /// Installs the per-dispatch hook.
    pub fn with_dispatch_hook(mut self, hook: Box<DispatchHook>) -> VirtualExecutor {
        self.hook = Some(hook);
        self
    }

    /// Models spilled block reads on `io`.
    pub(crate) fn with_io(mut self, io: IoSpec) -> VirtualExecutor {
        self.io = io;
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
        let mut slots: Vec<Slot> = (0..cpu_workers)
            .map(|i| Slot {
                seat: Seat::Cpu(CpuWorker { spec: cpu_spec }),
                class: WorkerClass::Cpu,
                health: self.cpu_health.get(i).cloned().unwrap_or_default(),
                inflight: VecDeque::new(),
            })
            .collect();
        for (g, gpu) in std::mem::take(&mut ctx.pool.gpus).into_iter().enumerate() {
            slots.push(Slot {
                health: gpu.health_handle(),
                seat: Seat::Gpu(Box::new(gpu)),
                class: WorkerClass::Gpu(g as u32),
                inflight: VecDeque::new(),
            });
        }

        let probe_interval = ctx.cfg.probe_interval_secs;
        let target = ctx.cfg.target_rmse;
        let mut sim = Sim {
            slots,
            ncpu: cpu_workers,
            drain_failed: self.drain_failed,
            disk: IoTimeline::new(self.io),
            hook: self.hook.as_deref_mut(),
            probes: ProbeState::new(nblocks, target),
            meter: Meter::new(),
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
        let stalled = sim.ctx.scheduler.remaining() > 0 && !sim.probes.stopped;
        assert!(
            !stalled || sim.any_failed(),
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
            cpu_points: sim.meter.cpu_points,
            gpu_points: sim.meter.gpu_points,
            cpu_busy_secs: sim.meter.cpu_busy,
            gpu_busy_secs: sim.meter.gpu_busy,
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
    use crate::devices::GpuWorker;
    use crate::executor::tests::{assert_points_are_released_passes, low_rank_data, test_cfg};
    use crate::layout::uniform_layout;
    use crate::scheduler::UniformScheduler;

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

    /// A dispatch hook that fails `cells[slot]` after that slot's `n`th
    /// task — the unit-level stand-in for the fuzz harness's scripted
    /// device deaths.
    fn fail_after(n: usize, cells: Vec<Option<Arc<HealthCell>>>) -> Box<DispatchHook> {
        let mut ran = vec![0; cells.len()];
        Box::new(move |slot, _| {
            ran[slot] += 1;
            if let (Some(cell), true) = (&cells[slot], ran[slot] == n) {
                cell.fail();
            }
            1.0
        })
    }

    fn cpu_pool(cpu_workers: usize) -> DevicePool {
        DevicePool {
            cpu_workers,
            gpus: vec![],
            gpu_start: vec![],
        }
    }

    #[test]
    fn failed_device_drains_queue_back_to_scheduler() {
        use crate::layout::StarLayout;
        use crate::scheduler::StarScheduler;

        // A star run whose GPU dies after 3 dispatched tasks, with one of
        // them still in flight. The drain fix must requeue the in-flight
        // work so the CPU workers finish everything: no pass lost, no
        // deadlock panic, accounting exact — the lost tasks' points too.
        let (train, test) = low_rank_data(48, 48, 11);
        let cfg = test_cfg(2);
        let layout = StarLayout::build(&train, 2, 1, 0.5);
        let part = mf_sparse::GridPartition::build(&train, layout.spec.clone());
        let sched = StarScheduler::new(layout, cfg.iterations, true);
        let gpu = GpuWorker::new(cfg.gpu);
        let cell = gpu.health_handle();
        let pool = DevicePool {
            cpu_workers: 2,
            gpus: vec![gpu],
            gpu_start: vec![SimTime::ZERO],
        };
        let mut exec = VirtualExecutor::new()
            .with_dispatch_hook(fail_after(3, vec![None, None, Some(Arc::clone(&cell))]));
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
        assert_points_are_released_passes(&part, &out.report);
        // And nothing was left unassigned: the CPU side stole the dead
        // GPU's region to completion.
        assert_eq!(
            out.report.total_passes,
            out.report.update_counts.len() as u64 * cfg.iterations as u64
        );
    }

    #[test]
    fn all_devices_failed_ends_early_instead_of_deadlocking() {
        // Every device dies almost immediately: the run must end with
        // `ended_early` (not the deadlock assert) and consistent counts.
        let (train, test) = low_rank_data(30, 30, 12);
        let cfg = test_cfg(6);
        let spec = uniform_layout(&train, 5, 4);
        let sched = UniformScheduler::new(spec, cfg.iterations, true);
        let cells: Vec<Arc<HealthCell>> = (0..2).map(|_| Arc::default()).collect();
        let mut exec = VirtualExecutor::new()
            .with_cpu_health(cells.clone())
            .with_dispatch_hook(fail_after(2, cells.into_iter().map(Some).collect()));
        let out = train_with_executor(
            &train,
            &test,
            sched,
            cpu_pool(2),
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
    fn a_cpu_slot_failed_before_the_run_gets_no_work() {
        // The DES mirror of the exclusive runtime's dead-CPU-cells test:
        // slot 0's cell is failed up front, slot 1 does every pass.
        let (train, test) = low_rank_data(24, 24, 11);
        let cfg = test_cfg(2);
        let sched = UniformScheduler::new(uniform_layout(&train, 3, 3), cfg.iterations, true);
        let dead = Arc::new(HealthCell::new());
        dead.fail();
        let ran = Arc::new(std::sync::Mutex::new(Vec::new()));
        let log = Arc::clone(&ran);
        let mut exec = VirtualExecutor::new()
            .with_cpu_health(vec![dead])
            .with_dispatch_hook(Box::new(move |slot, _| {
                log.lock().unwrap().push(slot);
                1.0
            }));
        let out = train_with_executor(
            &train,
            &test,
            sched,
            cpu_pool(2),
            &cfg,
            None,
            "dead-cpu",
            |_, _| {},
            &mut exec,
        );
        let ran = ran.lock().unwrap();
        assert!(
            !ran.is_empty() && ran.iter().all(|&slot| slot == 1),
            "{ran:?}"
        );
        assert_eq!(out.report.total_passes, 9 * cfg.iterations as u64);
    }

    #[test]
    fn degraded_cell_stretches_completion() {
        // One CPU slot runs every task back to back, so a `Degraded(4)`
        // cell stretches the whole run 4×.
        let (train, test) = low_rank_data(30, 30, 3);
        let cfg = test_cfg(3);
        let run = |cells: Vec<Arc<HealthCell>>| {
            let sched = UniformScheduler::new(uniform_layout(&train, 3, 3), cfg.iterations, true);
            let mut exec = VirtualExecutor::new().with_cpu_health(cells);
            let out = train_with_executor(
                &train,
                &test,
                sched,
                cpu_pool(1),
                &cfg,
                None,
                "degraded",
                |_, _| {},
                &mut exec,
            );
            (out.model, out.report.virtual_secs)
        };
        let (model, secs) = run(vec![]);
        let slow = Arc::new(HealthCell::new());
        slow.set(DeviceHealth::Degraded(4.0));
        let (slow_model, slow_secs) = run(vec![slow]);
        assert_eq!(model, slow_model, "health moves time, never arithmetic");
        assert!(
            (slow_secs / secs - 4.0).abs() < 1e-9,
            "{slow_secs} / {secs}"
        );
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
