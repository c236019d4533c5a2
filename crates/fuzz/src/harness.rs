//! The adversarial driver: runs one [`Script`] through a chosen
//! execution world with the invariant monitor wrapped around the real
//! scheduler, and shrinks failing scripts to minimal event sets.
//!
//! Both worlds run the *same* `UniformScheduler`/`StarScheduler`
//! instances the production trainers use — the harness only adds the
//! monitor in between and hostile devices underneath, so a violation is
//! a scheduler/executor bug, never a test-double artifact.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use hsgd_core::devices::GpuWorker;
use hsgd_core::executor::{DevicePool, ExecContext, Executor, HealthCell};
use hsgd_core::layout::{uniform_layout, StarLayout};
use hsgd_core::scheduler::{BlockScheduler, StarScheduler, UniformScheduler, WorkerClass};
use hsgd_core::trainer::VirtualExecutor;
use hsgd_core::{CostModelKind, CpuSpec, ExecMode, HeteroConfig, ThreadedExecutor};
use mf_data::{generator, GeneratorConfig};
use mf_sgd::{HyperParams, Model};
use mf_sparse::{BlockOrder, GridPartition, SparseMatrix};

use crate::check::{drop_one, panic_message};
use crate::devices::AdversarialDevice;
use crate::monitor::MonitoredScheduler;
use crate::script::{DevId, SchedKind, Script};

/// Which execution world replays the script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum World {
    /// The virtual-time DES world (`VirtualExecutor`), with adversarial
    /// latency devices installed.
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

/// What a clean run reports back.
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

/// A failed run: every violation the monitor recorded.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The world that failed.
    pub world: World,
    /// Monitor violations (plus any caught panic).
    pub violations: Vec<String>,
}

impl std::fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "[{}] {} violation(s):",
            self.world.label(),
            self.violations.len()
        )?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

fn dataset(script: &Script) -> (SparseMatrix, SparseMatrix) {
    let (users, items, train, test) = script.data;
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
        seed: script.seed,
    };
    let d = generator::generate(&cfg);
    (d.train, d.test)
}

fn hetero_cfg(script: &Script) -> HeteroConfig {
    HeteroConfig {
        hyper: HyperParams::movielens(8),
        nc: script.workers.0 as usize,
        ng: script.workers.1 as usize,
        gpu: gpu_sim::GpuSpec::default().scaled_down(1000.0),
        cpu: CpuSpec::default(),
        iterations: script.iters,
        seed: script.seed,
        dynamic_scheduling: true,
        cost_model: CostModelKind::Tailored,
        probe_interval_secs: None,
        target_rmse: None,
    }
}

/// Replays `script` in `world`. `drain_failed` toggles the virtual
/// world's failed-device drain fix (on in production; the negative test
/// reverts it to prove the monitor catches the resulting lost blocks).
pub fn run_script(
    script: &Script,
    world: World,
    drain_failed: bool,
) -> Result<RunStats, FuzzFailure> {
    let (train, test) = dataset(script);
    match script.sched {
        SchedKind::Uniform { rows, cols, cap } => {
            let spec = uniform_layout(&train, rows, cols);
            let sched = UniformScheduler::new(spec, script.iters, cap);
            drive(sched, script, &train, &test, world, drain_failed)
        }
        SchedKind::Star {
            nc,
            ng,
            alpha,
            steal_ratio,
        } => {
            let layout = StarLayout::build(&train, nc, ng, alpha);
            let sched =
                StarScheduler::new(layout, script.iters, true).with_steal_ratio(steal_ratio);
            drive(sched, script, &train, &test, world, drain_failed)
        }
    }
}

fn drive<S: BlockScheduler + Send>(
    inner: S,
    script: &Script,
    train: &SparseMatrix,
    test: &SparseMatrix,
    world: World,
    drain_failed: bool,
) -> Result<RunStats, FuzzFailure> {
    let cfg = hetero_cfg(script);
    let (nc, ng) = (script.workers.0 as usize, script.workers.1 as usize);

    // Health cells first: the monitor writes them, the devices read them.
    let cpu_cells: Vec<Arc<HealthCell>> = (0..nc).map(|_| Arc::new(HealthCell::new())).collect();
    let gpus: Vec<GpuWorker> = (0..ng).map(|_| GpuWorker::new(cfg.gpu)).collect();
    let gpu_cells: Vec<Arc<HealthCell>> = gpus.iter().map(|g| g.health_handle()).collect();
    let mut cells: Vec<(DevId, Arc<HealthCell>)> = Vec::new();
    for (i, c) in cpu_cells.iter().enumerate() {
        cells.push((DevId::Cpu(i as u32), c.clone()));
    }
    for (g, c) in gpu_cells.iter().enumerate() {
        cells.push((DevId::Gpu(g as u32), c.clone()));
    }

    let mut monitor = MonitoredScheduler::new(inner, script, cells);
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
                // Wrap every DES device slot in the adversary. CPU slots
                // are built first, in index order, so a running counter
                // maps them to their cells.
                let latency = script.latency;
                let salt = script.seed;
                let mut next_cpu = 0usize;
                let cpu_cells = cpu_cells.clone();
                let gpu_cells = gpu_cells.clone();
                let mut exec = VirtualExecutor::new()
                    .with_drain_failed(drain_failed)
                    .with_device_wrapper(Box::new(move |dev, class| {
                        let (cell, dev_salt) = match class {
                            WorkerClass::Cpu => {
                                let i = next_cpu;
                                next_cpu += 1;
                                (cpu_cells[i].clone(), salt ^ (i as u64))
                            }
                            WorkerClass::Gpu(g) => {
                                (gpu_cells[g as usize].clone(), salt ^ 0x9000 ^ (g as u64))
                            }
                        };
                        Box::new(AdversarialDevice::new(dev, cell, latency, dev_salt))
                            as Box<dyn hsgd_core::executor::Device>
                    }));
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
                Err(FuzzFailure { world, violations })
            }
        }
        Err(panic) => {
            let msg = panic_message(&*panic);
            let mut violations = vec![format!("execution world panicked: {msg}")];
            violations.extend(monitor.finish(true));
            Err(FuzzFailure { world, violations })
        }
    }
}

/// Replays `script` in both worlds with the production drain fix on.
/// Returns the first failure, if any.
pub fn run_script_all(script: &Script) -> Result<(RunStats, RunStats), FuzzFailure> {
    let virt = run_script(script, World::Virtual, true)?;
    let real = run_script(script, World::ThreadedExclusive, true)?;
    Ok((virt, real))
}

/// Generates and replays the script for `seed` in both worlds.
pub fn fuzz_seed(seed: u64) -> Result<(RunStats, RunStats), FuzzFailure> {
    run_script_all(&Script::generate(seed))
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
