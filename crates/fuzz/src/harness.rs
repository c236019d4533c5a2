//! The adversarial driver: [`run`] replays one [`Script`] against its
//! subject, [`shrink`] minimizes a failing script to the events that
//! matter, and [`replay_corpus`] replays the committed regressions.
//!
//! A scheduler script runs through both execution worlds with the
//! invariant monitor wrapped around the real scheduler. Both worlds run
//! the *same* `UniformScheduler`/`StarScheduler` instances the
//! production trainers use — the harness only adds the monitor in
//! between, the seats' health cells it writes, and (in the DES) a
//! dispatch hook that draws each task's latency, so a violation is a
//! scheduler/executor bug, never a test-double artifact. Storage scripts
//! run through [`crate::iofault`]'s harnesses.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;

use hsgd_core::devices::GpuWorker;
use hsgd_core::executor::{DevicePool, ExecContext, Executor, HealthCell};
use hsgd_core::layout::{uniform_layout, StarLayout};
use hsgd_core::scheduler::{BlockScheduler, StarScheduler, UniformScheduler};
use hsgd_core::trainer::VirtualExecutor;
use hsgd_core::{CostModelKind, CpuSpec, ExecMode, HeteroConfig, ThreadedExecutor};
use mf_data::{generator, GeneratorConfig};
use mf_sgd::{HyperParams, Model};
use mf_sparse::{BlockOrder, GridPartition, SparseMatrix};

use crate::check::{drop_one, panic_message};
use crate::iofault::{run_arena, run_lifecycle, ArenaStats, LifecycleStats};
use crate::monitor::MonitoredScheduler;
use crate::rng::task_stretch;
use crate::script::{DevId, SchedKind, SchedSetup, Script, Subject};

/// Which execution world replays the script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum World {
    /// The virtual-time DES world (`VirtualExecutor`), with adversarial
    /// latency drawn per task.
    Virtual,
    /// Real threads in deterministic exclusive mode
    /// (`ThreadedExecutor`). Latency events have no effect — wall-clock
    /// worlds cannot re-time threads — but all health faults and
    /// feedback lies apply identically.
    ThreadedExclusive,
}

impl World {
    /// Short label for failure reports.
    pub fn label(self) -> &'static str {
        match self {
            World::Virtual => "virtual",
            World::ThreadedExclusive => "threaded-exclusive",
        }
    }
}

/// What a clean scheduler run in one world reports back.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Block passes completed.
    pub passes: u64,
    /// Cross-region steals the policy performed.
    pub steals: u64,
    /// Whether the world stopped before draining the schedule (only
    /// legitimate after a permanent device failure).
    pub ended_early: bool,
    /// Final test RMSE (sanity: must stay finite).
    pub final_rmse: f64,
}

/// What a clean run of one script reports, per subject.
#[derive(Debug, Clone)]
pub enum Stats {
    /// A scheduler script: the virtual world's run, then the threaded
    /// exclusive world's.
    Scheduler(RunStats, RunStats),
    /// A lifecycle script's kill-and-recover run.
    Lifecycle(LifecycleStats),
    /// An arena script's write-and-spill run.
    Arena(ArenaStats),
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stats::Scheduler(virt, threaded) => write!(
                f,
                "virtual {} passes, threaded {} passes",
                virt.passes, threaded.passes
            ),
            Stats::Lifecycle(s) => write!(
                f,
                "{} epochs, {} acked, recovered {:?}",
                s.epochs_run, s.acked_epochs, s.recovered_epoch
            ),
            Stats::Arena(s) => write!(
                f,
                "{} blocks, {} clean, {} rewrites",
                s.blocks, s.clean_blocks, s.rewrites
            ),
        }
    }
}

/// A failed run: every contract violation observed.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The world a scheduler script failed in; `None` for a storage
    /// subject.
    pub world: Option<World>,
    /// Violations in detection order (plus any caught panic).
    pub violations: Vec<String>,
}

impl Failure {
    pub(crate) fn storage(violations: Vec<String>) -> Failure {
        Failure {
            world: None,
            violations,
        }
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let label = self.world.map_or("io", World::label);
        writeln!(f, "[{label}] {} violation(s):", self.violations.len())?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

/// Harness switches. The default is the real contract; each switch
/// deliberately breaks one side so a negative test can prove the oracle
/// catches the bug class it exists for.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The virtual world's failed-device drain fix (on in production;
    /// off, a dead device's in-flight passes vanish).
    pub drain_failed: bool,
    /// Build the storage oracles as if no bit flip had fired.
    pub ignore_flips: bool,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            drain_failed: true,
            ignore_flips: false,
        }
    }
}

/// Replays `script` against its subject: a scheduler script in the
/// virtual world, then (if that held) the threaded exclusive world; a
/// storage script through its kill-and-recover or write-and-spill
/// harness. Returns the first failure, if any. Panics on an event off
/// the subject's clock, which only a hand-built script can hold.
pub fn run(script: &Script, opts: Options) -> Result<Stats, Failure> {
    let (seed, events, clock) = (script.seed, &script.events[..], script.subject.clock());
    assert!(
        events.iter().all(|e| e.clock() == clock),
        "an event is off the subject's clock:\n{script}"
    );
    match &script.subject {
        Subject::Scheduler(setup) => Ok(Stats::Scheduler(
            run_world(script, setup, World::Virtual, opts.drain_failed)?,
            run_world(script, setup, World::ThreadedExclusive, opts.drain_failed)?,
        )),
        Subject::Lifecycle(setup) => {
            run_lifecycle(seed, setup, events, opts.ignore_flips).map(Stats::Lifecycle)
        }
        Subject::Arena(setup) => {
            run_arena(seed, setup, events, opts.ignore_flips).map(Stats::Arena)
        }
    }
}

/// Greedy event shrinking: drop injected events one at a time, re-run
/// through `still_fails`, keep any candidate that still fails, and loop
/// to a fixpoint ([`drop_one`]). The result is a locally minimal event
/// script — every remaining event is necessary for the failure — which
/// is what lands in the regression corpus.
pub fn shrink(script: &Script, mut still_fails: impl FnMut(&Script) -> bool) -> Script {
    let mut cand = script.clone();
    cand.events = drop_one(script.events.clone(), |events| {
        cand.events = events.to_vec();
        still_fails(&cand)
    });
    cand
}

/// Replays every `tests/fuzz_corpus/*.fz` script, in file-name order,
/// under the default [`Options`], handing each file name and outcome to
/// `each`. Fails if the corpus is missing or empty, or at the first file
/// that does not parse — a corpus that cannot be read proves nothing.
pub fn replay_corpus(mut each: impl FnMut(&str, Result<Stats, Failure>)) -> Result<(), String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fuzz_corpus");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .map_err(|e| format!("cannot read corpus dir {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "fz"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(format!("corpus dir {} is empty", dir.display()));
    }
    for path in paths {
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        let script: Script = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| text.parse())
            .map_err(|e| format!("{name}: {e}"))?;
        each(&name, run(&script, Options::default()));
    }
    Ok(())
}

fn dataset(seed: u64, setup: &SchedSetup) -> (SparseMatrix, SparseMatrix) {
    let (users, items, train, test) = setup.data;
    let cfg = GeneratorConfig {
        name: "fuzz".to_string(),
        num_users: users,
        num_items: items,
        num_train: train,
        num_test: test,
        planted_rank: 4,
        noise_std: 0.3,
        rating_min: 1.0,
        rating_max: 5.0,
        user_skew: 0.5,
        item_skew: 0.5,
        seed,
    };
    let d = generator::generate(&cfg);
    (d.train, d.test)
}

fn hetero_cfg(seed: u64, setup: &SchedSetup) -> HeteroConfig {
    HeteroConfig {
        hyper: HyperParams::movielens(8),
        nc: setup.workers.0 as usize,
        ng: setup.workers.1 as usize,
        gpu: gpu_sim::GpuSpec::default().scaled_down(1000.0),
        cpu: CpuSpec::default(),
        iterations: setup.iters,
        seed,
        dynamic_scheduling: true,
        cost_model: CostModelKind::Tailored,
        probe_interval_secs: None,
        target_rmse: None,
    }
}

/// Replays one scheduler script in `world`.
fn run_world(
    script: &Script,
    setup: &SchedSetup,
    world: World,
    drain_failed: bool,
) -> Result<RunStats, Failure> {
    let (train, test) = dataset(script.seed, setup);
    match setup.sched {
        SchedKind::Uniform { rows, cols, cap } => {
            let spec = uniform_layout(&train, rows, cols);
            let sched = UniformScheduler::new(spec, setup.iters, cap);
            drive(sched, script, setup, &train, &test, world, drain_failed)
        }
        SchedKind::Star {
            nc,
            ng,
            alpha,
            steal_ratio,
        } => {
            let layout = StarLayout::build(&train, nc, ng, alpha);
            let sched = StarScheduler::new(layout, setup.iters, true).with_steal_ratio(steal_ratio);
            drive(sched, script, setup, &train, &test, world, drain_failed)
        }
    }
}

fn drive<S: BlockScheduler + Send>(
    inner: S,
    script: &Script,
    setup: &SchedSetup,
    train: &SparseMatrix,
    test: &SparseMatrix,
    world: World,
    drain_failed: bool,
) -> Result<RunStats, Failure> {
    let cfg = hetero_cfg(script.seed, setup);
    let (nc, ng) = (setup.workers.0 as usize, setup.workers.1 as usize);

    // Health cells first: the monitor writes them, the worlds read them.
    let cpu_cells: Vec<Arc<HealthCell>> = (0..nc).map(|_| Arc::default()).collect();
    let gpus: Vec<GpuWorker> = (0..ng).map(|_| GpuWorker::new(cfg.gpu)).collect();
    let cells = (cpu_cells.iter().enumerate())
        .map(|(i, c)| (DevId::Cpu(i as u32), Arc::clone(c)))
        .chain((gpus.iter().enumerate()).map(|(g, w)| (DevId::Gpu(g as u32), w.health_handle())))
        .collect();

    let mut monitor = MonitoredScheduler::new(inner, &script.events, setup.total_passes(), cells);
    let part =
        GridPartition::build_with_order(train, monitor.spec().clone(), BlockOrder::UserMajor);
    let mut model = Model::init_for_ratings(
        train.nrows(),
        train.ncols(),
        cfg.hyper.k,
        cfg.seed,
        train.mean_rating(),
    );
    let pool = DevicePool {
        cpu_workers: nc,
        gpus,
        gpu_start: Vec::new(),
    };

    let outcome = {
        let mut hook = |_: u64, _: &Model| {};
        let ctx = ExecContext {
            scheduler: &mut monitor,
            part: &part,
            model: &mut model,
            test,
            cfg: &cfg,
            pool,
            epoch_hook: &mut hook,
        };
        match world {
            World::Virtual => {
                // The DES reads every seat's cell itself; the hook draws
                // each task's latency from a per-seat salt. Slots are the
                // CPU workers in index order, then the GPUs.
                let mut exec = VirtualExecutor::new()
                    .with_drain_failed(drain_failed)
                    .with_cpu_health(cpu_cells.clone());
                if let Some(latency) = setup.latency {
                    let salt = script.seed;
                    exec = exec.with_dispatch_hook(Box::new(move |slot, task| {
                        let seat_salt = match slot.checked_sub(nc) {
                            None => salt ^ slot as u64,
                            Some(g) => salt ^ 0x9000 ^ g as u64,
                        };
                        task_stretch(latency, seat_salt, task)
                    }));
                }
                catch_unwind(AssertUnwindSafe(move || exec.execute(ctx)))
            }
            World::ThreadedExclusive => {
                let mut exec =
                    ThreadedExecutor::new(ExecMode::Exclusive).with_cpu_health(cpu_cells.clone());
                catch_unwind(AssertUnwindSafe(move || exec.execute(ctx)))
            }
        }
    };

    match outcome {
        Ok(out) => {
            let stats = RunStats {
                passes: monitor.passes(),
                steals: monitor.steals(),
                ended_early: out.ended_early,
                final_rmse: out.final_rmse,
            };
            let mut violations = monitor.finish(out.ended_early);
            if !stats.final_rmse.is_finite() {
                violations.push(format!("final RMSE is not finite: {}", stats.final_rmse));
            }
            if violations.is_empty() {
                Ok(stats)
            } else {
                Err(Failure {
                    world: Some(world),
                    violations,
                })
            }
        }
        Err(panic) => {
            let msg = panic_message(&*panic);
            let mut violations = vec![format!("execution world panicked: {msg}")];
            violations.extend(monitor.finish(true));
            Err(Failure {
                world: Some(world),
                violations,
            })
        }
    }
}
