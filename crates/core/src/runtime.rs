//! The real-thread execution world.
//!
//! [`ThreadedExecutor`] drives the *same* [`BlockScheduler`] instances as
//! the virtual-time trainer — over real OS threads running the
//! monomorphized SoA kernels at hardware speed. Two modes:
//!
//! * [`ExecMode::Exclusive`] — deterministic rounds. The scheduler is
//!   swept once per round (GPUs first, two tasks per GPU — the same
//!   double-buffered in-flight window the DES world models — then CPU
//!   tasks until the frontier is exhausted); the round's tasks execute in
//!   parallel on an `mf-par` pool; then everything is released in sweep
//!   order and RMSE/epoch hooks fire at boundaries. Because each round's
//!   task set depends only on scheduler state (never on thread timing)
//!   and tasks within a round touch disjoint factor rows, the trained
//!   factors are **bit-identical for any worker count** — the real-thread
//!   counterpart of the DES world's reproducibility argument.
//! * [`ExecMode::Relaxed`] — free-running workers, the FPSGD discipline
//!   generalized to heterogeneous devices: `n_c` CPU worker threads and
//!   one thread per GPU pull conflict-free tasks from the shared
//!   scheduler as fast as they finish (GPU threads keep two tasks in
//!   flight). Still race-free — the scheduler's conflict-freedom
//!   invariant is what makes the lock-free factor updates safe — but the
//!   assignment sequence depends on physical timing, so results vary
//!   run to run (like any Hogwild-family trainer). This is the
//!   fast path, and the only mode with **live cost-model feedback**:
//!   per-task wall times stream into `mf-cost` observers and the measured
//!   throughput ratio replaces `StarScheduler`'s calibrated steal
//!   break-even ratio (feedback is inherently timing-driven, which is why
//!   the deterministic mode reports measurements but never feeds them
//!   back mid-run).
//!
//! Probing differs from the virtual-time world by design: exclusive mode
//! probes (and fires epoch hooks, and checks `target_rmse`) at epoch
//! boundaries between rounds, where the model is quiescent and the
//! boundary positions are timing-independent; relaxed mode probes only at
//! baseline and end. `HeteroConfig::probe_interval_secs` is virtual-time
//! only — a wall-clock probe cadence would make results timing-dependent
//! (see the field's docs).
//!
//! Every path runs a task through one body, `run_task`, which pins the
//! task's blocks and times `devices::Seat::run` on the wall clock — the
//! seat body the DES runs at modeled times.
//!
//! Thread sizing follows the process-wide `mf-par` budget: worker counts
//! are clamped to [`mf_par::effective_parallelism`] (`MF_PAR_THREADS`
//! overrides `available_parallelism`). A run entered from inside an
//! `mf-par` batch spawns no thread at all: its round pool has the one
//! calling thread, and no spill prefetch thread starts. A nested relaxed
//! run therefore runs exclusive rounds, so it is deterministic and does
//! not feed measurements back.
//!
//! Spill-backed partitions ([`GridPartition::is_spilled`]) run through
//! the same code paths with three additions: every kernel site pins its
//! task's blocks for exactly the duration of the kernel (the
//! pin-while-in-flight protocol — a dispatched block can never be
//! evicted), a [`Prefetcher`] IO thread warms upcoming blocks so loads
//! overlap compute, and relaxed-mode feedback extends to the cache via
//! [`BlockScheduler::observe_io`]. A block that fails its checksum on
//! load aborts the run with a typed panic *before* any kernel touches
//! the bytes. None of this perturbs exclusive-mode round composition,
//! so the bit-determinism contract survives spilling unchanged.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use mf_cost::{balance_alpha, CostModel, ThroughputObserver};
use mf_des::SimTime;
use mf_par::ThreadPool;
use mf_sgd::SharedModel;
use mf_sparse::{GridPartition, SparseMatrix};

use crate::config::HeteroConfig;
use crate::devices::{CpuWorker, Seat};
use crate::executor::{
    train_with_executor, DevicePool, ExecContext, ExecOutcome, Executor, HealthCell,
    MeasuredThroughput, ProbeState, TrainOutcome,
};
use crate::scheduler::{BlockScheduler, Task, WorkerClass};
use crate::spill::Prefetcher;

/// Tasks a GPU worker keeps in flight — matching both the DES world's
/// prefetch window and the `2·n_g` surplus columns of the HSGD\* grid.
pub const GPU_QUEUE_DEPTH: usize = 2;

/// Samples each device class must accumulate before measured rates are
/// fed back into the scheduler (relaxed mode).
pub const FEEDBACK_MIN_SAMPLES: usize = 4;

/// Locks `m`, absorbing poison as `mf-par` does: a thread that panicked
/// under one of this world's locks is already propagating that panic
/// through its scope or pool, so the flag carries no extra information.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How a [`ThreadedExecutor`] orders task execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Deterministic rounds with a barrier: fixed seed ⇒ bit-identical
    /// factors for any worker count.
    Exclusive,
    /// Free-running workers: fastest, race-free, but timing-dependent
    /// like any Hogwild-family trainer.
    Relaxed,
}

/// The real-thread execution world. See the module docs for the two
/// modes.
pub struct ThreadedExecutor<'p> {
    mode: ExecMode,
    pool: Option<&'p ThreadPool>,
    cpu_health: Vec<Arc<HealthCell>>,
}

impl ThreadedExecutor<'static> {
    /// Creates the world in the given mode. Exclusive mode executes
    /// each run's rounds on a pool of its own, one thread per CPU worker
    /// and per GPU, clamped to the `mf-par` budget (one thread when
    /// nested); relaxed mode spawns its own (budget-clamped) workers and
    /// feeds measured rates back into the cost models, except when
    /// nested, where it runs those exclusive rounds.
    pub fn new(mode: ExecMode) -> ThreadedExecutor<'static> {
        ThreadedExecutor {
            mode,
            pool: None,
            cpu_health: Vec::new(),
        }
    }
}

impl<'p> ThreadedExecutor<'p> {
    /// Exclusive mode on a caller-provided pool — how the determinism
    /// tests pin specific worker counts.
    pub fn with_pool(pool: &'p ThreadPool) -> ThreadedExecutor<'p> {
        ThreadedExecutor {
            mode: ExecMode::Exclusive,
            pool: Some(pool),
            cpu_health: Vec::new(),
        }
    }

    /// Registers health cells for the CPU worker side (exclusive mode).
    /// Exclusive rounds have no per-CPU-worker identity — the sweep
    /// acquires CPU tasks as a class — so CPU failure takes effect when
    /// *every* registered cell is failed: the sweep then assigns no more
    /// CPU work, mirroring the DES world with all CPU slots dead. GPU
    /// health needs no registration (each
    /// [`GpuWorker`](crate::devices::GpuWorker) carries its own cell).
    /// Degraded states are ignored here: wall-clock worlds cannot re-time
    /// a real thread.
    pub fn with_cpu_health(mut self, cells: Vec<Arc<HealthCell>>) -> ThreadedExecutor<'p> {
        self.cpu_health = cells;
        self
    }

    /// The mode this world runs in.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }
}

impl Executor for ThreadedExecutor<'_> {
    fn name(&self) -> &'static str {
        match self.mode {
            ExecMode::Exclusive => "real threads (exclusive)",
            ExecMode::Relaxed => "real threads (relaxed)",
        }
    }

    fn execute(&mut self, ctx: ExecContext<'_>) -> ExecOutcome {
        // Nested inside an mf-par batch, the round pool is the calling
        // thread alone, so relaxed mode has nothing to free-run on.
        match self.mode {
            ExecMode::Relaxed if !mf_par::in_pool() => run_relaxed(ctx),
            _ => run_exclusive(ctx, self.pool, &self.cpu_health),
        }
    }
}

/// CPU worker threads actually used for a requested count: clamped to the
/// process-wide budget, and forced to 1 when already inside an `mf-par`
/// batch (never oversubscribe when nested).
pub fn effective_cpu_workers(requested: usize) -> usize {
    if requested == 0 {
        return 0;
    }
    if mf_par::in_pool() {
        return 1;
    }
    requested.min(mf_par::effective_parallelism()).max(1)
}

/// Threads for an exclusive round's pool: one per CPU worker and one per
/// GPU, clamped like [`effective_cpu_workers`], and at least one.
fn round_threads(cpu_workers: usize, gpus: usize) -> usize {
    effective_cpu_workers(cpu_workers.saturating_add(gpus)).max(1)
}

/// Convenience front-end: trains `scheduler` on real threads and returns
/// the outcome, with the measured throughputs in
/// `report.measured`. The same `DevicePool` the virtual trainer takes
/// describes the rig (`gpu_start` is ignored — a DES-only concept);
/// `pool.cpu_workers` is clamped by [`effective_cpu_workers`].
#[allow(clippy::too_many_arguments)]
pub fn run_training_real<S: BlockScheduler + Send>(
    train: &SparseMatrix,
    test: &SparseMatrix,
    scheduler: S,
    pool: DevicePool,
    cfg: &HeteroConfig,
    mode: ExecMode,
    alpha_planned: Option<f64>,
    label: &str,
) -> TrainOutcome {
    let mut exec = ThreadedExecutor::new(mode);
    train_with_executor(
        train,
        test,
        scheduler,
        pool,
        cfg,
        alpha_planned,
        label,
        |_, _| {},
        &mut exec,
    )
}

/// Per-class accounting of released tasks, in both worlds.
pub(crate) struct Meter {
    cpu_obs: ThroughputObserver,
    gpu_obs: ThroughputObserver,
    pub(crate) cpu_points: u64,
    pub(crate) gpu_points: u64,
    pub(crate) cpu_busy: f64,
    pub(crate) gpu_busy: f64,
}

impl Meter {
    pub(crate) fn new() -> Meter {
        Meter {
            cpu_obs: ThroughputObserver::new(),
            gpu_obs: ThroughputObserver::new(),
            cpu_points: 0,
            gpu_points: 0,
            cpu_busy: 0.0,
            gpu_busy: 0.0,
        }
    }

    /// Counts one released task of `points` ratings that kept its seat
    /// busy for `secs`.
    pub(crate) fn record(&mut self, class: WorkerClass, points: usize, secs: f64) {
        match class {
            WorkerClass::Cpu => {
                self.cpu_obs.record(points as f64, secs);
                self.cpu_points += points as u64;
                self.cpu_busy += secs;
            }
            WorkerClass::Gpu(_) => {
                self.gpu_obs.record(points as f64, secs);
                self.gpu_points += points as u64;
                self.gpu_busy += secs;
            }
        }
    }

    /// Relaxed-mode live feedback: once both classes have enough
    /// samples, the measured rates replace the scheduler's steal
    /// break-even ratio. Out-of-core runs also feed the cache's
    /// behaviour back: the hit rate sets the `StarScheduler`'s IO penalty
    /// on the steal break-even depth (a thief stalling on loads is
    /// slower than its busy-time rate claims).
    ///
    /// Kept out of line: it runs once per released task, under the hub
    /// lock.
    #[inline(never)]
    fn feed_back(&self, scheduler: &mut (dyn BlockScheduler + Send), part: &GridPartition) {
        if self.cpu_obs.len() >= FEEDBACK_MIN_SAMPLES && self.gpu_obs.len() >= FEEDBACK_MIN_SAMPLES
        {
            if let (Some(cpu), Some(gpu)) = (self.cpu_obs.mean_rate(), self.gpu_obs.mean_rate()) {
                scheduler.observe_throughput(cpu, gpu);
            }
        }
        if let Some(handle) = part.spill() {
            let c = handle.counters();
            if c.hits + c.misses >= FEEDBACK_MIN_SAMPLES as u64 {
                scheduler.observe_io(c.hit_rate(), c.io_bytes_per_sec());
            }
        }
    }

    /// Builds the end-of-run measurement record. `nc`/`ng` are the worker
    /// counts that actually ran (they normalize the measured α exactly
    /// like Eq. 7 normalizes the planned one).
    fn finish(
        &self,
        wall_secs: f64,
        nc: usize,
        ng: usize,
        total_points: f64,
        final_dynamic_ratio: Option<f64>,
    ) -> MeasuredThroughput {
        let cpu_model = self.cpu_obs.fit_linear();
        let gpu_model = self.gpu_obs.fit_linear();
        let alpha_measured = match (&cpu_model, &gpu_model) {
            (Some(c), Some(g)) if nc > 0 && ng > 0 && total_points > 0.0 => Some(balance_alpha(
                |a| g.time_secs(a * total_points),
                |x| c.time_secs(x * total_points),
                ng as f64,
                nc as f64,
            )),
            _ => None,
        };
        MeasuredThroughput {
            wall_secs,
            cpu_points_per_sec: self.cpu_obs.mean_rate(),
            gpu_points_per_sec: self.gpu_obs.mean_rate(),
            cpu_model,
            gpu_model,
            alpha_measured,
            final_dynamic_ratio,
        }
    }
}

/// The task body every real-thread path runs: pin the task's blocks,
/// start the clock, run `seat` over the task, stop the clock, unpin.
/// Returns the busy seconds; the seat's modeled times are not used.
///
/// The pin (and any load it implies) happens before the clock starts:
/// measured rates stay pure compute, and IO stalls are visible
/// separately through the cache counters. A resident partition makes it
/// free. A load failure (torn frame, checksum mismatch) is fail-closed:
/// the real-thread world cannot un-dispatch a task the way the DES
/// drains a failed seat, so it aborts with the typed error *before* any
/// kernel touches the bytes — factors are never corrupted.
///
/// # Safety
///
/// For the duration of the call, no other thread may access the factor
/// rows of the task's row and column bands — the scheduler's
/// conflict-freedom invariant for a task that is acquired and not yet
/// released.
unsafe fn run_task(
    shared: &SharedModel<'_>,
    part: &GridPartition,
    hyper: &mf_sgd::HyperParams,
    task: &Task,
    seat: &mut Seat,
) -> f64 {
    if let Err(e) = part.pin_blocks(&task.blocks) {
        panic!("out-of-core block load failed; aborting before the kernel runs: {e}");
    }
    let t0 = Instant::now();
    // SAFETY: forwarded caller contract.
    unsafe { seat.run(SimTime::ZERO, shared, part, task, hyper) };
    let secs = t0.elapsed().as_secs_f64();
    part.unpin_blocks(&task.blocks);
    secs
}

/// Pulls up to `want` conflict-free tasks for `who`, stopping early when
/// the scheduler has nothing more to assign.
fn pull(
    scheduler: &mut (dyn BlockScheduler + Send),
    part: &GridPartition,
    who: WorkerClass,
    want: usize,
) -> Vec<Task> {
    let mut got = Vec::new();
    while got.len() < want {
        match scheduler.next_task(who, part) {
            Some(t) => got.push(t),
            None => break,
        }
    }
    got
}

// ---------------------------------------------------------------------------
// Exclusive mode: deterministic rounds
// ---------------------------------------------------------------------------

/// One round's sweep: GPUs first (up to the prefetch depth each), then
/// CPU tasks until nothing conflict-free is left. Depends only on
/// scheduler state — never on thread timing — which is the heart of the
/// determinism argument. `gpu_alive[g]` / `cpu_alive` exclude failed
/// devices, and a CPU class the rig has no workers for, from the sweep:
/// health flips between rounds (deterministic points — failures are
/// applied at release boundaries), so skipping a dead device here is
/// itself deterministic.
fn sweep_round(
    scheduler: &mut (dyn BlockScheduler + Send),
    part: &GridPartition,
    gpu_alive: &[bool],
    cpu_alive: bool,
) -> Vec<(WorkerClass, Task)> {
    let mut tasks = Vec::new();
    let mut sweep = |who, want| {
        let got = pull(scheduler, part, who, want);
        tasks.extend(got.into_iter().map(|t| (who, t)));
    };
    for (g, &alive) in gpu_alive.iter().enumerate() {
        if alive {
            sweep(WorkerClass::Gpu(g as u32), GPU_QUEUE_DEPTH);
        }
    }
    if cpu_alive {
        sweep(WorkerClass::Cpu, usize::MAX);
    }
    tasks
}

/// A round's pool units, as monotone bounds over its sweep (unit `u` is
/// `tasks[bounds[u]..bounds[u + 1]]`): each GPU's tasks form one unit
/// that locks the worker once and runs them in sweep order, so no pool
/// thread parks on a GPU another unit holds; each CPU task is a unit of
/// its own.
fn round_units(tasks: &[(WorkerClass, Task)]) -> Vec<usize> {
    let mut bounds = vec![0];
    for i in 1..=tasks.len() {
        let class = tasks.get(i).map(|t| t.0);
        if class == Some(WorkerClass::Cpu) || class != Some(tasks[i - 1].0) {
            bounds.push(i);
        }
    }
    bounds
}

fn run_exclusive(
    ctx: ExecContext<'_>,
    pool: Option<&ThreadPool>,
    cpu_health: &[Arc<HealthCell>],
) -> ExecOutcome {
    let ExecContext {
        scheduler,
        part,
        model,
        test,
        cfg,
        pool: dev_pool,
        epoch_hook,
    } = ctx;
    // One thread per seat (budget-clamped), so a round's GPU tasks run
    // beside its CPU tasks. A caller-provided pool (the determinism
    // tests) overrides.
    let own_pool;
    let tpool = match pool {
        Some(p) => p,
        None => {
            own_pool = ThreadPool::new(round_threads(dev_pool.cpu_workers, dev_pool.gpus.len()));
            &own_pool
        }
    };
    // CPU workers that can run at once: the seats the rig asked for, or
    // fewer when the pool is smaller. They normalize the measured α.
    let nc = effective_cpu_workers(dev_pool.cpu_workers).min(tpool.threads());
    let nblocks = scheduler.spec().block_count() as u64;
    let mut probes = ProbeState::new(nblocks, cfg.target_rmse);
    let mut meter = Meter::new();
    let has_cpu = dev_pool.cpu_workers > 0;
    let ng = dev_pool.gpus.len();
    let gpu_health: Vec<Arc<HealthCell>> =
        dev_pool.gpus.iter().map(|g| g.health_handle()).collect();
    let gpus: Vec<Mutex<Seat>> = dev_pool
        .gpus
        .into_iter()
        .map(|g| Mutex::new(Seat::Gpu(Box::new(g))))
        .collect();
    let hyper = &cfg.hyper;
    // Nested, the run spawns no thread: blocks load at their pins.
    let prefetcher = part
        .spill()
        .filter(|_| !mf_par::in_pool())
        .map(|h| Prefetcher::spawn(h.clone()));

    let start = Instant::now();
    probes.probe(0.0, model, test);
    let mut stalled = false;

    while !probes.stopped {
        // Health is sampled once per round, at the top: fault injectors
        // flip cells from the release path (between rounds), so the alive
        // set is stable and deterministic for the whole sweep.
        let gpu_alive: Vec<bool> = gpu_health.iter().map(|h| !h.is_failed()).collect();
        let cpu_alive =
            has_cpu && (cpu_health.is_empty() || cpu_health.iter().any(|h| !h.is_failed()));
        let tasks = sweep_round(scheduler, part, &gpu_alive, cpu_alive);
        if tasks.is_empty() {
            stalled = scheduler.remaining() > 0;
            break;
        }
        // Hand the whole round to the IO thread in sweep order: it warms
        // blocks while the pool is still chewing the round's first
        // tasks, so later kernels' pins mostly hit. Advisory only — it
        // cannot change which tasks run, so determinism is untouched.
        if let Some(pf) = &prefetcher {
            pf.feed(
                tasks
                    .iter()
                    .flat_map(|(_, t)| t.blocks.iter().map(|&b| part.spec().flat_index(b)))
                    .collect(),
            );
        }

        // Execute the round in parallel. Tasks are pairwise conflict-free
        // (all acquired before any release), so their factor rows are
        // disjoint and the result is independent of which thread runs
        // which task. Results land in per-index slots.
        let mut secs: Vec<f64> = vec![0.0; tasks.len()];
        let shared = SharedModel::new(model);
        let bounds = round_units(&tasks);
        mf_par::for_each_bounded_mut(tpool, &mut secs, &bounds, |u, out| {
            let unit = &tasks[bounds[u]..bounds[u + 1]];
            let mut cpu = Seat::Cpu(CpuWorker { spec: cfg.cpu });
            let mut gpu = match unit[0].0 {
                WorkerClass::Cpu => None,
                WorkerClass::Gpu(g) => Some(lock(&gpus[g as usize])),
            };
            let seat = gpu.as_deref_mut().unwrap_or(&mut cpu);
            for (secs, (_, task)) in out.iter_mut().zip(unit) {
                // SAFETY: the scheduler holds this task's row and column
                // bands busy for the whole round, and round tasks are
                // pairwise conflict-free.
                *secs = unsafe { run_task(&shared, part, hyper, task, seat) };
            }
        });

        // Release in sweep order (deterministic), account, and fire
        // boundary probes with the model quiescent between rounds.
        for (i, (class, task)) in tasks.iter().enumerate() {
            scheduler.release(task);
            meter.record(*class, task.points, secs[i]);
        }
        probes.at_boundary(
            scheduler.completed(),
            start.elapsed().as_secs_f64(),
            model,
            test,
            epoch_hook,
        );
    }

    let wall = start.elapsed().as_secs_f64();
    let final_rmse = probes.finish(wall, model, test);
    let total_points = (meter.cpu_points + meter.gpu_points) as f64;
    let measured = meter.finish(wall, nc, ng, total_points, scheduler.dynamic_ratio());
    ExecOutcome {
        end_secs: wall,
        rmse_series: std::mem::take(&mut probes.series),
        time_to_target_secs: probes.time_to_target,
        final_rmse,
        cpu_points: meter.cpu_points,
        gpu_points: meter.gpu_points,
        cpu_busy_secs: meter.cpu_busy,
        gpu_busy_secs: meter.gpu_busy,
        ended_early: probes.stopped || stalled,
        measured: Some(measured),
    }
}

// ---------------------------------------------------------------------------
// Relaxed mode: free-running workers
// ---------------------------------------------------------------------------

/// Scheduler + accounting under the hub lock. Workers hold the lock only
/// for acquire/release bookkeeping; all kernel work runs outside it.
struct HubState<'a, 'b> {
    scheduler: &'b mut (dyn BlockScheduler + Send),
    part: &'a GridPartition,
    meter: Meter,
    /// Tasks currently held by any worker.
    inflight: usize,
    /// Bumped on every release — the only event that can create new
    /// assignable work. A parked worker's "no work for my class" verdict
    /// is valid exactly as long as this generation is unchanged.
    release_gen: u64,
    /// Workers whose no-work verdict is at the current `release_gen`.
    verdicts: usize,
    /// Workers still participating. Starts at the spawn count; a worker
    /// that retires because its device failed decrements it, so the stall
    /// vote needs unanimity only among the survivors.
    active: usize,
    /// Set on global stall or full drain: everyone exits.
    done: bool,
    /// True when the run ended with passes still unassigned.
    stalled: bool,
}

impl HubState<'_, '_> {
    /// Releases a finished task and feeds measured rates back into the
    /// scheduler.
    fn release(&mut self, class: WorkerClass, task: &Task, secs: f64) {
        self.scheduler.release(task);
        self.inflight -= 1;
        // New bands are free (and feedback below may move the steal
        // gate): every parked worker's no-work verdict is stale.
        self.release_gen += 1;
        self.verdicts = 0;
        self.meter.record(class, task.points, secs);
        self.meter.feed_back(&mut *self.scheduler, self.part);
    }
}

struct Hub<'a, 'b> {
    state: Mutex<HubState<'a, 'b>>,
    cond: Condvar,
}

impl Hub<'_, '_> {
    /// Acquires up to `want` tasks for `who`, blocking when nothing is
    /// assignable yet. Returns an empty vec when the worker should exit:
    /// the budget is drained, or no worker can make progress (stall —
    /// e.g. a region whose owner class has no workers, with stealing
    /// disabled).
    ///
    /// Stall detection is a generation-checked vote, not a parked-worker
    /// count: each worker records a "no work for my class" verdict tagged
    /// with the current release generation, and a stall is declared only
    /// once *every* worker holds a current verdict with nothing in
    /// flight. Acquires can only remove availability and releases reset
    /// the vote, so at that point the scheduler state is frozen and the
    /// verdicts are decisive — a merely-parked worker that has not yet
    /// re-checked after the latest release can never be counted against
    /// newly freed work.
    fn acquire(&self, who: WorkerClass, want: usize) -> Vec<Task> {
        let mut st = lock(&self.state);
        // This worker's verdict generation (None = no current verdict).
        let mut verdict_at: Option<u64> = None;
        loop {
            // Drained means nothing unassigned *and* nothing in flight: a
            // worker whose device fails requeues its unstarted window, and
            // a survivor must still be here to take it.
            if st.done || (st.scheduler.remaining() == 0 && st.inflight == 0) {
                st.done = true;
                self.cond.notify_all();
                return Vec::new();
            }
            let part = st.part;
            let got = pull(&mut *st.scheduler, part, who, want);
            if !got.is_empty() {
                st.inflight += got.len();
                return got;
            }
            if verdict_at != Some(st.release_gen) {
                verdict_at = Some(st.release_gen);
                st.verdicts += 1;
                if st.verdicts >= st.active && st.inflight == 0 {
                    // Unanimous current-generation verdicts and nothing in
                    // flight: no release can ever come, so the scheduler
                    // state is frozen with unassignable passes.
                    st.done = true;
                    st.stalled = true;
                    self.cond.notify_all();
                    return Vec::new();
                }
                if st.inflight == 0 {
                    // Freeze candidate: wake the other parked workers so
                    // they re-verify against this generation too.
                    self.cond.notify_all();
                }
            }
            st = self.cond.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Non-blocking acquire: whatever is assignable for `who` right now,
    /// possibly nothing. Used by a GPU worker topping up its prefetch
    /// window while it still holds executable work — it must never park
    /// with work in hand.
    fn try_acquire(&self, who: WorkerClass, want: usize) -> Vec<Task> {
        let mut st = lock(&self.state);
        if st.done || st.scheduler.remaining() == 0 {
            return Vec::new();
        }
        let part = st.part;
        let got = pull(&mut *st.scheduler, part, who, want);
        st.inflight += got.len();
        got
    }

    fn release(&self, class: WorkerClass, task: &Task, secs: f64) {
        {
            let mut st = lock(&self.state);
            st.release(class, task, secs);
        }
        // A release frees one row band and one column band, enabling at
        // most a couple of new assignments — baton-pass to one sleeper
        // (it re-notifies after its own acquire).
        self.cond.notify_one();
    }

    /// Retires a worker whose device failed: its unstarted local queue is
    /// requeued to the scheduler (the failed-device drain — without it
    /// those tasks' bands stay busy forever and the run hangs), and the
    /// worker leaves the stall vote. Wakes everyone: the requeued work is
    /// newly assignable, and the survivors' quorum shrank.
    fn retire_failed(&self, tasks: Vec<Task>) {
        {
            let mut st = lock(&self.state);
            st.inflight -= tasks.len();
            for t in &tasks {
                st.scheduler.requeue(t);
            }
            st.release_gen += 1;
            st.verdicts = 0;
            st.active -= 1;
            if st.active == 0 {
                st.done = true;
                st.stalled = st.scheduler.remaining() > 0;
            }
        }
        self.cond.notify_all();
    }
}

/// One free-running worker. A CPU seat holds one task at a time. A GPU
/// seat wraps the simulated device as an async accelerator: it keeps
/// [`GPU_QUEUE_DEPTH`] tasks in flight — acquiring the next task
/// *before* releasing the current one, so the next block's (modeled)
/// H2D transfer overlaps the current kernel and the scheduler sees the
/// same two-column occupancy the DES world and the HSGD\* grid geometry
/// assume — and stops when its `health` cell fails. Either feeds each
/// completion back to the scheduler as soon as its work is done.
#[allow(clippy::too_many_arguments)]
fn relaxed_worker(
    hub: &Hub<'_, '_>,
    shared: &SharedModel<'_>,
    part: &GridPartition,
    cfg: &HeteroConfig,
    who: WorkerClass,
    mut seat: Seat,
    health: Option<Arc<HealthCell>>,
    prefetcher: Option<&Prefetcher>,
) {
    let depth = seat.depth();
    let mut local: std::collections::VecDeque<Task> = std::collections::VecDeque::new();
    loop {
        // Top up the prefetch window. Only block when the window is
        // empty — a worker holding executable tasks must keep executing,
        // not park waiting for more.
        if local.is_empty() {
            let got = hub.acquire(who, depth);
            if got.is_empty() {
                return;
            }
            // A successful acquire may have left more blocks assignable.
            hub.cond.notify_one();
            feed_window(prefetcher, part, &got);
            local.extend(got);
        } else if local.len() < depth {
            let got = hub.try_acquire(who, depth - local.len());
            if !got.is_empty() {
                hub.cond.notify_one();
            }
            // The same two-deep window that overlaps the *next* task's
            // H2D with the current kernel also overlaps its block load:
            // the IO thread warms the prefetched task's blocks while
            // this one computes.
            feed_window(prefetcher, part, &got);
            local.extend(got);
        }
        // Polled between tasks: a failed device stops here, draining its
        // unstarted prefetch window back to the scheduler instead of
        // holding those bands hostage.
        if health.as_ref().is_some_and(|h| h.is_failed()) {
            hub.retire_failed(local.drain(..).collect());
            return;
        }
        let Some(task) = local.pop_front() else {
            return;
        };
        // SAFETY: the scheduler marked this task's row and column bands
        // busy; no other worker touches these factor rows until we
        // release.
        let secs = unsafe { run_task(shared, part, &cfg.hyper, &task, &mut seat) };
        hub.release(who, &task, secs);
    }
}

/// Feeds newly acquired tasks' blocks to the spill prefetch thread (a
/// no-op for in-RAM partitions).
fn feed_window(prefetcher: Option<&Prefetcher>, part: &GridPartition, tasks: &[Task]) {
    if let Some(pf) = prefetcher {
        for t in tasks {
            pf.feed_task(part, t);
        }
    }
}

fn run_relaxed(ctx: ExecContext<'_>) -> ExecOutcome {
    let ExecContext {
        scheduler,
        part,
        model,
        test,
        cfg,
        pool: dev_pool,
        epoch_hook: _,
    } = ctx;
    let nblocks = scheduler.spec().block_count() as u64;
    let mut probes = ProbeState::new(nblocks, cfg.target_rmse);
    let nc = effective_cpu_workers(dev_pool.cpu_workers);
    let gpus = dev_pool.gpus;
    let ng = gpus.len();
    assert!(nc + ng > 0, "relaxed runtime needs at least one worker");

    let start = Instant::now();
    probes.probe(0.0, model, test);
    // Mid-run probes need exclusive model access; the free-running world
    // has no quiescent point, so target_rmse can only stop a relaxed run
    // at the baseline probe — use exclusive mode when early stopping
    // matters. Epoch hooks are likewise exclusive-mode-only.
    if probes.stopped {
        let wall = start.elapsed().as_secs_f64();
        let final_rmse = probes.finish(wall, model, test);
        return ExecOutcome {
            end_secs: wall,
            rmse_series: std::mem::take(&mut probes.series),
            time_to_target_secs: probes.time_to_target,
            final_rmse,
            cpu_points: 0,
            gpu_points: 0,
            cpu_busy_secs: 0.0,
            gpu_busy_secs: 0.0,
            ended_early: true,
            measured: None,
        };
    }

    let hub = Hub {
        state: Mutex::new(HubState {
            scheduler,
            part,
            meter: Meter::new(),
            inflight: 0,
            release_gen: 0,
            verdicts: 0,
            active: nc + ng,
            done: false,
            stalled: false,
        }),
        cond: Condvar::new(),
    };
    let shared = SharedModel::new(model);
    let prefetcher = part.spill().map(|h| Prefetcher::spawn(h.clone()));
    std::thread::scope(|s| {
        let hub = &hub;
        let shared = &shared;
        let pf = prefetcher.as_ref();
        for (g, worker) in gpus.into_iter().enumerate() {
            let who = WorkerClass::Gpu(g as u32);
            let health = Some(worker.health_handle());
            let seat = Seat::Gpu(Box::new(worker));
            s.spawn(move || relaxed_worker(hub, shared, part, cfg, who, seat, health, pf));
        }
        // The caller is CPU worker 0; spawn the rest. CPU seats feed no
        // prefetch window and ignore health: their loads pin on demand.
        let cpu = move || {
            let seat = Seat::Cpu(CpuWorker { spec: cfg.cpu });
            relaxed_worker(hub, shared, part, cfg, WorkerClass::Cpu, seat, None, None)
        };
        for _ in 1..nc {
            s.spawn(cpu);
        }
        if nc > 0 {
            cpu();
        }
    });
    // The IO thread joins inside the timed run.
    drop(prefetcher);
    let st = hub
        .state
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    let final_dynamic_ratio = st.scheduler.dynamic_ratio();
    let meter = st.meter;

    let wall = start.elapsed().as_secs_f64();
    let final_rmse = probes.finish(wall, model, test);
    let total_points = (meter.cpu_points + meter.gpu_points) as f64;
    let measured = meter.finish(wall, nc, ng, total_points, final_dynamic_ratio);
    ExecOutcome {
        end_secs: wall,
        rmse_series: std::mem::take(&mut probes.series),
        time_to_target_secs: probes.time_to_target,
        final_rmse,
        cpu_points: meter.cpu_points,
        gpu_points: meter.gpu_points,
        cpu_busy_secs: meter.cpu_busy,
        gpu_busy_secs: meter.gpu_busy,
        ended_early: st.stalled,
        measured: Some(measured),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices::GpuWorker;
    use crate::executor::tests::{assert_points_are_released_passes, low_rank_data, test_cfg};
    use crate::layout::{uniform_layout, StarLayout};
    use crate::scheduler::{StarScheduler, UniformScheduler, SOFT_CAP_SLACK};
    use mf_sgd::{eval, Model};

    fn cpu_pool(workers: usize) -> DevicePool {
        DevicePool {
            cpu_workers: workers,
            gpus: vec![],
            gpu_start: vec![],
        }
    }

    #[test]
    fn relaxed_cpu_only_drains_and_converges() {
        let (train, test) = low_rank_data(40, 40, 1);
        let cfg = test_cfg(40);
        let spec = uniform_layout(&train, 5, 4);
        let sched = UniformScheduler::new(spec, cfg.iterations, true);
        let out = run_training_real(
            &train,
            &test,
            sched,
            cpu_pool(4),
            &cfg,
            ExecMode::Relaxed,
            None,
            "CPU-Only/real",
        );
        assert_eq!(out.report.total_passes, 20 * 40);
        // The soft cap: the budget is exact, the per-block count bounded.
        let counts = &out.report.update_counts;
        assert_eq!(counts.iter().map(|&c| c as u64).sum::<u64>(), 20 * 40);
        assert!(
            counts.iter().all(|&c| c <= 40 + SOFT_CAP_SLACK),
            "{counts:?}"
        );
        assert!(
            out.report.final_test_rmse < 0.3,
            "rmse {}",
            out.report.final_test_rmse
        );
        assert_eq!(out.report.gpu_points, 0);
        assert!(out.report.cpu_points > 0);
        assert!(out.report.virtual_secs > 0.0, "wall clock must advance");
        let measured = out.report.measured.expect("real runs report measurements");
        assert!(measured.cpu_points_per_sec.unwrap() > 0.0);
        assert!(measured.gpu_points_per_sec.is_none());
        // RMSE must match an independent evaluation of the returned model.
        assert_eq!(out.report.final_test_rmse, eval::rmse(&out.model, &test));
    }

    #[test]
    fn zero_iterations_return_the_initial_model_in_both_modes() {
        let (train, test) = low_rank_data(24, 24, 12);
        let cfg = test_cfg(0);
        let init = Model::init_for_ratings(24, 24, cfg.hyper.k, cfg.seed, train.mean_rating());
        for mode in [ExecMode::Exclusive, ExecMode::Relaxed] {
            let sched = UniformScheduler::new(uniform_layout(&train, 3, 3), 0, true);
            let out =
                run_training_real(&train, &test, sched, cpu_pool(2), &cfg, mode, None, "zero");
            assert_eq!(out.report.total_passes, 0, "{mode:?}");
            assert_eq!(out.model, init, "{mode:?}");
        }
    }

    #[test]
    fn gpu_only_rig_gets_no_cpu_work_in_either_mode() {
        let (train, test) = low_rank_data(40, 40, 13);
        let cfg = test_cfg(3);
        for mode in [ExecMode::Exclusive, ExecMode::Relaxed] {
            let sched = UniformScheduler::new(uniform_layout(&train, 4, 4), cfg.iterations, true);
            let pool = DevicePool {
                cpu_workers: 0,
                gpus: vec![GpuWorker::new(cfg.gpu)],
                gpu_start: vec![],
            };
            let out = run_training_real(&train, &test, sched, pool, &cfg, mode, None, "gpu-only");
            assert_eq!(out.report.cpu_points, 0, "{mode:?}");
            assert!(out.report.measured.unwrap().cpu_points_per_sec.is_none());
            assert_eq!(out.report.total_passes, 16 * 3, "{mode:?}");
        }
    }

    #[test]
    fn exclusive_is_bit_deterministic_across_worker_counts() {
        let (train, test) = low_rank_data(36, 36, 2);
        let cfg = test_cfg(6);
        let run_with = |threads: usize| {
            let spec = uniform_layout(&train, 5, 4);
            let sched = UniformScheduler::new(spec, cfg.iterations, true);
            let pool = ThreadPool::new(threads);
            let mut exec = ThreadedExecutor::with_pool(&pool);
            train_with_executor(
                &train,
                &test,
                sched,
                cpu_pool(threads),
                &cfg,
                None,
                "excl",
                |_, _| {},
                &mut exec,
            )
        };
        let one = run_with(1);
        let two = run_with(2);
        let four = run_with(4);
        assert_eq!(one.model, two.model, "1 vs 2 workers must agree bitwise");
        assert_eq!(one.model, four.model, "1 vs 4 workers must agree bitwise");
        let counts = &one.report.update_counts;
        assert_eq!(counts.iter().map(|&c| c as u64).sum::<u64>(), 20 * 6);
        assert!(
            counts.iter().all(|&c| c <= 6 + SOFT_CAP_SLACK),
            "{counts:?}"
        );
        // The probe series is identical too (same boundaries, same model
        // states) up to timestamps.
        let strip = |o: &TrainOutcome| -> Vec<f64> {
            o.report.rmse_series.iter().map(|&(_, r)| r).collect()
        };
        assert_eq!(strip(&one), strip(&two));
        assert_eq!(strip(&one), strip(&four));
    }

    #[test]
    fn exclusive_hetero_star_runs_both_classes() {
        let (train, test) = low_rank_data(48, 48, 3);
        let cfg = test_cfg(3);
        let layout = StarLayout::build(&train, 2, 1, 0.4);
        let sched = StarScheduler::new(layout, cfg.iterations, true);
        let pool = DevicePool {
            cpu_workers: 2,
            gpus: vec![GpuWorker::new(cfg.gpu)],
            gpu_start: vec![],
        };
        let out = run_training_real(
            &train,
            &test,
            sched,
            pool,
            &cfg,
            ExecMode::Exclusive,
            Some(0.4),
            "HSGD*/real-excl",
        );
        assert!(out.report.cpu_points > 0, "CPU must contribute");
        assert!(out.report.gpu_points > 0, "GPU must contribute");
        assert_eq!(out.report.total_passes as usize, {
            let blocks = out.report.update_counts.len();
            blocks * cfg.iterations as usize
        });
        let m = out.report.measured.unwrap();
        assert!(m.gpu_points_per_sec.unwrap() > 0.0);
        assert!(m.final_dynamic_ratio.is_some());
    }

    #[test]
    fn relaxed_hetero_star_feeds_back_and_drains() {
        let (train, test) = low_rank_data(48, 48, 4);
        let cfg = test_cfg(3);
        let layout = StarLayout::build(&train, 2, 1, 0.5);
        let budget = layout.spec.block_count() as u64 * cfg.iterations as u64;
        let group = layout.sub_rows_per_gpu as u64;
        let sched = StarScheduler::new(layout, cfg.iterations, true).with_steal_ratio(1.0);
        let pool = DevicePool {
            cpu_workers: 2,
            gpus: vec![GpuWorker::new(cfg.gpu)],
            gpu_start: vec![],
        };
        let out = run_training_real(
            &train,
            &test,
            sched,
            pool,
            &cfg,
            ExecMode::Relaxed,
            Some(0.5),
            "HSGD*/real",
        );
        // Which class processed how much depends on thread timing (that
        // is what "relaxed" means); the budget being fully drained does
        // not. Drained is exact up to one overdraw: a GPU group task is
        // assigned whenever the GPU budget is positive, so when a CPU
        // steal has left fewer passes than the group holds, its slack
        // passes take the budget negative (`StarScheduler`'s signed
        // budgets), by at most the group's block count − 1. Nothing is
        // assigned in a region past that, so it happens at most once.
        let total = out.report.total_passes;
        assert!(
            (budget..budget + group).contains(&total),
            "total passes {total} outside [{budget}, {budget} + {group})"
        );
        assert!(out
            .report
            .update_counts
            .iter()
            .all(|&c| c <= 3 + SOFT_CAP_SLACK));
        assert!(out.report.cpu_points + out.report.gpu_points > 0);
        let m = out.report.measured.unwrap();
        // Feedback replaced the configured ratio with the measured one
        // (any positive value; equality with 1.0 would be astronomically
        // unlikely from wall clocks).
        let ratio = m.final_dynamic_ratio.unwrap();
        assert!(ratio > 0.0 && ratio.is_finite());
    }

    #[test]
    fn relaxed_detects_stall_instead_of_hanging() {
        // A star layout with dynamic stealing off and no GPU workers: the
        // GPU region can never be drained. The run must end gracefully
        // with the CPU region done and the GPU passes still unassigned.
        let (train, test) = low_rank_data(32, 32, 5);
        let cfg = test_cfg(2);
        let layout = StarLayout::build(&train, 2, 1, 0.5);
        let sched = StarScheduler::new(layout, cfg.iterations, false);
        let out = run_training_real(
            &train,
            &test,
            sched,
            cpu_pool(3),
            &cfg,
            ExecMode::Relaxed,
            None,
            "stall",
        );
        assert!(out.report.cpu_points > 0);
        assert_eq!(out.report.gpu_points, 0);
        // Only the CPU region's passes completed.
        let total: u64 = out.report.update_counts.iter().map(|&c| c as u64).sum();
        assert_eq!(total, out.report.total_passes);
    }

    #[test]
    fn relaxed_drains_failed_gpu_window_back_to_scheduler() {
        // The GPU is dead before the run starts: its worker thread still
        // acquires a prefetch window (the scheduler hands out work before
        // health is polled), so the drain path — requeue the window,
        // retire the worker — runs deterministically. The CPU workers
        // must then finish the *entire* budget, GPU region included.
        let (train, test) = low_rank_data(48, 48, 9);
        let cfg = test_cfg(2);
        let layout = StarLayout::build(&train, 2, 1, 0.5);
        let part = GridPartition::build(&train, layout.spec.clone());
        let blocks = layout.spec.block_count() as u64;
        let sched = StarScheduler::new(layout, cfg.iterations, true);
        let gpu = GpuWorker::new(cfg.gpu);
        let health = gpu.health_handle();
        health.fail();
        let pool = DevicePool {
            cpu_workers: 2,
            gpus: vec![gpu],
            gpu_start: vec![],
        };
        let out = run_training_real(
            &train,
            &test,
            sched,
            pool,
            &cfg,
            ExecMode::Relaxed,
            None,
            "dead-gpu",
        );
        assert_eq!(out.report.gpu_points, 0, "a dead GPU does no work");
        assert!(out.report.cpu_points > 0);
        assert_eq!(
            out.report.total_passes,
            blocks * cfg.iterations as u64,
            "requeued window must be finished by the survivors"
        );
        let total: u64 = out.report.update_counts.iter().map(|&c| c as u64).sum();
        assert_eq!(total, out.report.total_passes);
        assert_points_are_released_passes(&part, &out.report);
    }

    #[test]
    fn exclusive_skips_failed_gpu_and_cpu_takes_over() {
        let (train, test) = low_rank_data(48, 48, 10);
        let cfg = test_cfg(2);
        let layout = StarLayout::build(&train, 2, 1, 0.5);
        let blocks = layout.spec.block_count() as u64;
        let sched = StarScheduler::new(layout, cfg.iterations, true);
        let gpu = GpuWorker::new(cfg.gpu);
        gpu.health_handle().fail();
        let pool = DevicePool {
            cpu_workers: 2,
            gpus: vec![gpu],
            gpu_start: vec![],
        };
        let out = run_training_real(
            &train,
            &test,
            sched,
            pool,
            &cfg,
            ExecMode::Exclusive,
            None,
            "dead-gpu-excl",
        );
        assert_eq!(out.report.gpu_points, 0);
        assert_eq!(out.report.total_passes, blocks * cfg.iterations as u64);
    }

    #[test]
    fn exclusive_with_all_cpu_cells_failed_ends_early_not_hanging() {
        use crate::executor::HealthCell;
        use std::sync::Arc;

        let (train, test) = low_rank_data(24, 24, 11);
        let cfg = test_cfg(2);
        let spec = uniform_layout(&train, 3, 3);
        let sched = UniformScheduler::new(spec, cfg.iterations, true);
        let cell = Arc::new(HealthCell::new());
        cell.fail();
        let mut exec =
            ThreadedExecutor::new(ExecMode::Exclusive).with_cpu_health(vec![Arc::clone(&cell)]);
        let out = train_with_executor(
            &train,
            &test,
            sched,
            cpu_pool(2),
            &cfg,
            None,
            "dead-cpus",
            |_, _| {},
            &mut exec,
        );
        assert_eq!(out.report.total_passes, 0, "no live device, no work");
        assert_eq!(out.report.cpu_points + out.report.gpu_points, 0);
    }

    #[test]
    fn exclusive_respects_target_rmse() {
        let (train, test) = low_rank_data(40, 40, 6);
        let mut cfg = test_cfg(200);
        cfg.target_rmse = Some(0.5);
        let spec = uniform_layout(&train, 5, 4);
        let sched = UniformScheduler::new(spec, cfg.iterations, true);
        let out = run_training_real(
            &train,
            &test,
            sched,
            cpu_pool(2),
            &cfg,
            ExecMode::Exclusive,
            None,
            "excl-target",
        );
        assert!(out.report.time_to_target_secs.is_some());
        assert!(out.report.total_passes < 20 * 200);
    }

    #[test]
    fn a_gpus_round_tasks_run_as_one_unit_in_sweep_order() {
        let task = |pass| Task {
            blocks: vec![mf_sparse::BlockId::new(0, 0)],
            points: 1,
            p_rows: 0..1,
            q_cols: 0..1,
            pass,
            stolen: false,
        };
        let (gpu, cpu) = (WorkerClass::Gpu(0), WorkerClass::Cpu);
        let round: Vec<_> = [gpu, gpu, cpu, cpu, cpu]
            .into_iter()
            .zip(0..)
            .map(|(class, pass)| (class, task(pass)))
            .collect();
        assert_eq!(round_units(&round), [0, 2, 3, 4, 5]);
    }

    #[test]
    fn exclusive_round_pool_has_a_thread_per_seat() {
        let budget = mf_par::effective_parallelism();
        assert_eq!(round_threads(1, 1), 2.min(budget), "GPU beside the CPU");
        assert_eq!(round_threads(0, 1), 1);
        assert_eq!(round_threads(0, 0), 1);
        assert_eq!(round_threads(3, 2), 5.min(budget));
        assert!(round_threads(usize::MAX / 2, 4) <= budget);
        ThreadPool::new(2).run_indexed(2, |_| {
            assert_eq!(round_threads(4, 2), 1, "nested must not fan out");
        });
    }

    #[test]
    fn nested_invocation_runs_inline_without_oversubscribing() {
        assert_eq!(effective_cpu_workers(0), 0);
        let budget = mf_par::effective_parallelism();
        assert_eq!(effective_cpu_workers(1), 1);
        assert!(effective_cpu_workers(usize::MAX) <= budget);
        // From inside an mf-par task the runtime must collapse to one
        // worker (and still produce a correct run).
        let pool = ThreadPool::new(2);
        let (train, test) = low_rank_data(24, 24, 7);
        let cfg = test_cfg(2);
        let results: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        pool.run_indexed(2, |_| {
            assert_eq!(effective_cpu_workers(8), 1, "nested must not fan out");
            let spec = uniform_layout(&train, 3, 3);
            let sched = UniformScheduler::new(spec, cfg.iterations, true);
            let out = run_training_real(
                &train,
                &test,
                sched,
                cpu_pool(8),
                &cfg,
                ExecMode::Relaxed,
                None,
                "nested",
            );
            lock(&results).push(out.report.total_passes);
        });
        let results = results.into_inner().unwrap();
        assert_eq!(results, vec![9 * 2, 9 * 2]);
    }

    #[test]
    fn relaxed_survivor_runs_window_a_failed_gpu_requeues() {
        // A hand-driven hub, so the interleaving is fixed. The GPU holds
        // the only pass when the CPU worker asks for work: nothing is
        // unassigned, but one task is in flight. The GPU then fails and
        // requeues it. The CPU worker must wait for that and run the pass,
        // not take "nothing unassigned" for drained and exit, stranding it.
        let (train, _) = low_rank_data(8, 8, 12);
        let spec = uniform_layout(&train, 1, 1);
        let part = GridPartition::build(&train, spec.clone());
        let mut sched = UniformScheduler::new(spec, 1, true);
        let hub = Hub {
            state: Mutex::new(HubState {
                scheduler: &mut sched,
                part: &part,
                meter: Meter::new(),
                inflight: 0,
                release_gen: 0,
                verdicts: 0,
                active: 2,
                done: false,
                stalled: false,
            }),
            cond: Condvar::new(),
        };
        let window = hub.acquire(WorkerClass::Gpu(0), GPU_QUEUE_DEPTH);
        assert_eq!(window.len(), 1);
        let ran = std::thread::scope(|s| {
            let cpu = s.spawn(|| {
                let mut ran = 0u64;
                while let Some(task) = hub.acquire(WorkerClass::Cpu, 1).pop() {
                    hub.release(WorkerClass::Cpu, &task, 0.0);
                    ran += 1;
                }
                ran
            });
            // Fail the GPU only once the CPU worker has asked: it is then
            // parked with a no-work verdict (or, wrongly, already gone).
            while {
                let st = lock(&hub.state);
                st.verdicts == 0 && !st.done
            } {
                std::thread::yield_now();
            }
            hub.retire_failed(window);
            cpu.join().unwrap()
        });
        let st = hub.state.into_inner().unwrap();
        assert_eq!(ran, 1, "the survivor must run the requeued pass");
        assert_eq!(st.scheduler.completed(), 1);
        assert!(!st.stalled);
    }
}
