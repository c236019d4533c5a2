//! The two real-thread training workloads, `train_ram` and
//! `train_spill`, and the isolated replays they share.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use hsgd_core::devices::GpuWorker;
use hsgd_core::executor::train_with_executor_on;
use hsgd_core::experiments::{preprocess_pair, star_setup};
use hsgd_core::layout::uniform_layout;
use hsgd_core::runtime::{run_training_real, ExecMode, ThreadedExecutor};
use hsgd_core::scheduler::{BlockScheduler, UniformScheduler, WorkerClass};
use hsgd_core::stats::RunReport;
use hsgd_core::{
    train_out_of_core_real, CostModelKind, CpuSpec, DevicePool, HeteroConfig, TrainOutcome,
};
use mf_data::generator::{generate, GeneratorConfig};
use mf_des::SimTime;
use mf_serve::checkpoint::{self, CheckpointMeta};
use mf_serve::FactorStore;
use mf_sgd::{eval, kernel, HyperParams, LearningRate, Model};
use mf_sparse::hash::Xxh64;
use mf_sparse::{io, BlockOrder, GridPartition, GridSpec, Rating, RealFs, SparseMatrix};

use crate::machine::{self, Host};
use crate::metrics::Report;
use crate::stats::{fastest, median, summarize, Better};
use crate::trace::Tracer;
use crate::workload::{Opts, Scratch, Size, Workload};

/// Dataset and model shape of the training workloads.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    users: u32,
    items: u32,
    train: usize,
    test: usize,
    k: usize,
    /// Epochs the target RMSE is calibrated to stop at.
    epochs: u32,
    /// Fewest timed repetitions per pass.
    min_reps: usize,
}

impl Sizes {
    fn of(size: Size) -> Sizes {
        match size {
            // Factors: (60 000 + 12 000) × 32 × 4 B = 9.2 MB — over the
            // 4 MiB L2 of the reference box, so factor traffic is real.
            Size::Full => Sizes {
                users: 60_000,
                items: 12_000,
                train: 1_200_000,
                test: 60_000,
                k: 32,
                epochs: 10,
                min_reps: 7,
            },
            Size::Smoke => Sizes {
                users: 2_000,
                items: 800,
                train: 40_000,
                test: 4_000,
                k: 32,
                epochs: 4,
                min_reps: 2,
            },
        }
    }

    fn describe(&self) -> String {
        format!(
            "{} users x {} items, {} train / {} test ratings, k = {}, {} epochs to target",
            self.users, self.items, self.train, self.test, self.k, self.epochs
        )
    }
}

fn dataset(sizes: &Sizes, seed: u64) -> (SparseMatrix, SparseMatrix) {
    let ds = generate(&GeneratorConfig {
        name: "benchmark".into(),
        num_users: sizes.users,
        num_items: sizes.items,
        num_train: sizes.train,
        num_test: sizes.test,
        planted_rank: 4,
        noise_std: 0.4,
        rating_min: 1.0,
        rating_max: 5.0,
        user_skew: 0.6,
        item_skew: 0.6,
        seed,
    });
    (ds.train, ds.test)
}

/// CPU workers for the real-thread runs: all cores but one, which the
/// sim-GPU worker (`train_ram`) or the prefetch IO thread
/// (`train_spill`) takes — never more than `nproc` busy threads.
fn cpu_workers(host: &Host) -> usize {
    host.nproc.saturating_sub(1).max(1)
}

fn hetero_cfg(sizes: &Sizes, nc: usize, ng: usize, seed: u64, target: Option<f64>) -> HeteroConfig {
    HeteroConfig {
        hyper: HyperParams {
            k: sizes.k,
            lambda_p: 0.05,
            lambda_q: 0.05,
            gamma: 0.01,
            schedule: LearningRate::Fixed,
        },
        nc,
        ng,
        gpu: gpu_sim::GpuSpec::quadro_p4000().scaled_down(100.0),
        cpu: CpuSpec::default().scaled_down(100.0),
        // Two spare epochs: the run must stop because it met the target,
        // not because the pass budget ran out.
        iterations: sizes.epochs + 2,
        seed,
        dynamic_scheduling: true,
        cost_model: CostModelKind::Tailored,
        probe_interval_secs: None,
        target_rmse: target,
    }
}

/// The HSGD\* rig: `nc` CPU workers beside the offline phase's GPUs.
fn star_pool(nc: usize, gpus: Vec<GpuWorker>) -> DevicePool {
    let ng = gpus.len();
    DevicePool {
        cpu_workers: nc,
        gpus,
        gpu_start: vec![SimTime::ZERO; ng],
    }
}

/// XXH64 over the factor bits, P then Q.
fn factor_hash(model: &Model) -> u64 {
    let mut h = Xxh64::new(0);
    for x in model.p_raw().iter().chain(model.q_raw()) {
        h.update(&x.to_le_bytes());
    }
    h.digest()
}

/// The test RMSE the uncalibrated run `report` probed at epoch boundary
/// `epochs` — the target that makes later runs of the same
/// (bit-deterministic) schedule stop exactly there. Exclusive mode
/// probes once at the start and once per boundary (a round holds far
/// fewer tasks than the grid has blocks, so no boundary is skipped).
fn calibrated_target(report: &RunReport, epochs: u32) -> f64 {
    report.rmse_series[epochs as usize].1
}

/// What one training call reported, reduced to what the metrics need.
#[derive(Debug)]
struct TrainStats {
    report: RunReport,
    hash: u64,
}

impl TrainStats {
    fn of(out: &TrainOutcome) -> TrainStats {
        TrainStats {
            report: out.report.clone(),
            hash: factor_hash(&out.model),
        }
    }

    /// Whole epochs completed: block passes over blocks in the grid.
    fn epochs(&self) -> u64 {
        self.report.total_passes / self.report.update_counts.len().max(1) as u64
    }

    fn points(&self) -> f64 {
        (self.report.cpu_points + self.report.gpu_points) as f64
    }

    fn ratings_per_s(&self) -> f64 {
        self.points() / self.report.virtual_secs
    }

    /// Training wall until the target was met (the whole run when no
    /// target was set).
    fn time_to_rmse(&self) -> f64 {
        self.report
            .time_to_target_secs
            .unwrap_or(self.report.virtual_secs)
    }
}

/// Checks shared by both workloads on every timed repetition.
fn check_rep(report: &mut Report, rep: usize, s: &TrainStats, sizes: &Sizes, target: f64) {
    report.check(s.epochs() == u64::from(sizes.epochs), || {
        format!(
            "rep {rep}: stopped at epoch {} instead of {}",
            s.epochs(),
            sizes.epochs
        )
    });
    report.check(s.report.final_test_rmse <= target, || {
        format!(
            "rep {rep}: final RMSE {} above target {target}",
            s.report.final_test_rmse
        )
    });
    // The calibrated target tracks the code under test; this ceiling
    // does not, so a change that quietly trains worse still fails.
    report.check(s.report.final_test_rmse <= RMSE_CEILING, || {
        format!(
            "rep {rep}: final RMSE {} above the {RMSE_CEILING} ceiling",
            s.report.final_test_rmse
        )
    });
}

/// Absolute test-RMSE ceiling at the stop (noise floor 0.4; both sizes
/// land near 0.6 after their calibrated epochs).
const RMSE_CEILING: f64 = 0.9;

/// Sets the metrics both training workloads derive from a pass.
fn train_end_to_end(report: &mut Report, runs: &[&TrainStats]) {
    let time: Vec<f64> = runs.iter().map(|s| s.time_to_rmse()).collect();
    let rate: Vec<f64> = runs.iter().map(|s| s.ratings_per_s()).collect();
    let time_s = report.set_samples("e2e.time_to_rmse_s", &time, Better::Lower);
    let rate = report.set_samples("e2e.train_ratings_per_s", &rate, Better::Higher);
    report.set("e2e.final_rmse", runs[0].report.final_test_rmse);
    report.set("wait_ms", time_s * 1e3);
    report.set("rate_per_s", rate);
}

/// `hsgd-core.runtime.*` and `hsgd-core.scheduler` counts from the
/// traced pass's run reports. `workers` is the thread count the rig
/// asked for; `kernel_epoch_s` comes from the isolated replay.
fn runtime_layers(report: &mut Report, runs: &[&TrainStats], workers: usize, kernel_epoch_s: f64) {
    // All from the fastest run, so the parts belong to one whole.
    let best = runs
        .iter()
        .min_by(|a, b| a.report.virtual_secs.total_cmp(&b.report.virtual_secs))
        .expect("at least one repetition");
    let wall = best.report.virtual_secs;
    let cpu_busy = best.report.cpu_busy_secs;
    let gpu_busy = best.report.gpu_busy_secs;
    report.set("hsgd-core.runtime.train_wall_s", wall);
    report.set("hsgd-core.runtime.cpu_busy_s", cpu_busy);
    report.set("hsgd-core.runtime.gpu_busy_s", gpu_busy);
    report.set("hsgd-core.runtime.gpu_share", best.report.gpu_share());
    report.set(
        "hsgd-core.runtime.idle_frac",
        1.0 - (cpu_busy + gpu_busy) / (workers as f64 * wall),
    );
    report.set("hsgd-core.runtime.epochs_to_target", best.epochs() as f64);
    report.set(
        "hsgd-core.runtime.sync_overhead_frac",
        1.0 - kernel_epoch_s * best.epochs() as f64 / (cpu_busy + gpu_busy),
    );
    report.set("hsgd-core.scheduler.steals", best.report.steals as f64);
    report.set(
        "hsgd-core.scheduler.update_count_cv",
        best.report.imbalance().cv,
    );
}

/// FLOPs of one SGD update at dimension `k`: 2k (dot) + 8k (fused
/// update) + a handful of scalar ops.
fn flops_per_update(k: usize) -> f64 {
    (10 * k + 5) as f64
}

/// Bytes one update moves, computed (not measured): the rating triple
/// (12 B) plus one P row and one Q row read and written back.
fn bytes_per_update(k: usize) -> f64 {
    (Rating::WIRE_BYTES + 4 * k * std::mem::size_of::<f32>()) as f64
}

/// Isolated replays shared by the training workloads: the host probe
/// with STREAM triad, one single-thread `sgd_block_soa` pass over every
/// block of `part`, a dry `next_task`/`release` run of `scheduler`,
/// and the empty-batch cost of the `mf-par` pool. Returns the kernel's
/// seconds per epoch.
fn replays(
    report: &mut Report,
    host: &Host,
    part: &GridPartition,
    mut scheduler: impl BlockScheduler,
    cfg: &HeteroConfig,
    size: Size,
) -> f64 {
    host.report(report);
    let array_bytes = match size {
        Size::Full => host.triad_array_bytes(),
        Size::Smoke => 1 << 20,
    };
    let triad = machine::stream_triad_gbs(array_bytes, 5);
    report.set("machine.stream_triad_gbs", triad);
    report.set("machine.triad_array_bytes", array_bytes as f64);

    // mf-sgd.kernel: every block once, one thread, fresh factors.
    let k = cfg.hyper.k;
    let (_, _, _, mut p, mut q) =
        Model::init_for_ratings(part.nrows(), part.ncols(), k, cfg.seed, 3.0).into_parts();
    let blocks: Vec<_> = part.spec().blocks().collect();
    let mut epoch_secs = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        for &b in &blocks {
            black_box(kernel::sgd_block_soa(
                &mut p,
                &mut q,
                k,
                part.block(b),
                cfg.hyper.gamma,
                cfg.hyper.lambda_p,
                cfg.hyper.lambda_q,
            ));
        }
        epoch_secs.push(t0.elapsed().as_secs_f64());
    }
    let epoch_s = fastest(&epoch_secs);
    let nnz = part.total_nnz() as f64;
    report.set("mf-sgd.kernel.epoch_s", epoch_s);
    report.set(
        "mf-sgd.kernel.gflops",
        flops_per_update(k) * nnz / epoch_s / 1e9,
    );
    report.set(
        "mf-sgd.kernel.bytes_per_update_computed",
        bytes_per_update(k),
    );
    report.set(
        "mf-sgd.kernel.pct_stream_bw",
        100.0 * bytes_per_update(k) * nnz / epoch_s / 1e9 / triad,
    );

    // hsgd-core.scheduler: the whole pass budget acquired and released
    // with no kernels between, GPUs first then CPU (the exclusive
    // sweep's order); reported per call and per epoch.
    let nblocks = part.spec().block_count() as f64;
    let classes: Vec<WorkerClass> = (0..cfg.ng as u32)
        .map(WorkerClass::Gpu)
        .chain(std::iter::once(WorkerClass::Cpu))
        .collect();
    let t0 = Instant::now();
    let mut calls = 0u64;
    let mut progressed = true;
    while progressed {
        progressed = false;
        for &class in &classes {
            calls += 1;
            if let Some(task) = scheduler.next_task(class, part) {
                scheduler.release(&task);
                progressed = true;
            }
        }
    }
    let sched_s = t0.elapsed().as_secs_f64();
    let epochs = scheduler.completed() as f64 / nblocks;
    report.set("hsgd-core.scheduler.epoch_s", sched_s / epochs.max(1.0));
    report.set(
        "hsgd-core.scheduler.next_task_ns",
        sched_s * 1e9 / calls as f64,
    );

    machine::pool_probe(report);
    epoch_s
}

// ---------------------------------------------------------------------------
// train_ram
// ---------------------------------------------------------------------------

/// The paper's pipeline on real threads, in RAM.
pub struct TrainRam;

/// Inputs of `train_ram`.
pub struct RamInputs {
    sizes: Sizes,
    host: Host,
    /// The training ratings as `u v r` text lines — what the program is
    /// handed.
    image: Vec<u8>,
    test: SparseMatrix,
    generate_s: f64,
    scratch: Scratch,
}

/// One pipeline repetition.
struct RamRep {
    pipeline_s: f64,
    train: TrainStats,
    alpha: f64,
    blocks: usize,
    ckpt_bytes: u64,
}

/// One measuring pass of `train_ram`.
pub struct RamRun {
    target: f64,
    reps: Vec<RamRep>,
}

/// parse → preprocess → offline phase → grid → train → checkpoint →
/// load → servable store → eval, each stage in its own span.
fn pipeline_rep(
    inp: &RamInputs,
    cfg: &HeteroConfig,
    tr: &mut Tracer,
    rep: usize,
    report: &mut Report,
) -> RamRep {
    tr.set_rep(rep as u32);
    let shape = Some((inp.sizes.users, inp.sizes.items));
    let t0 = Instant::now();
    let (train, alpha, blocks, ckpt_bytes) = tr.span("pipeline", |tr| {
        let raw = tr.span("mf-sparse.io.read_text", |_| {
            io::read_text(&inp.image[..], shape).expect("generated text image parses")
        });
        let (train, test) = tr.span("mf-sparse.shuffle.preprocess_pair", |_| {
            preprocess_pair(&raw, &inp.test, cfg.seed)
        });
        drop(raw);
        let setup = tr.span("hsgd-core.experiments.star_setup", |_| {
            star_setup(&train, cfg, CostModelKind::Tailored, true)
        });
        let alpha = setup.alpha;
        let part = tr.span("mf-sparse.grid.build", |_| {
            GridPartition::build_with_order(
                &train,
                setup.scheduler.spec().clone(),
                BlockOrder::UserMajor,
            )
        });
        let blocks = part.spec().block_count();
        let out = tr.span("hsgd-core.runtime.train", |_| {
            train_with_executor_on(
                &part,
                train.mean_rating(),
                &test,
                setup.scheduler,
                star_pool(cfg.nc, setup.gpus),
                cfg,
                Some(alpha),
                "HSGD*/real-exclusive",
                |_, _| {},
                &mut ThreadedExecutor::new(ExecMode::Exclusive),
            )
        });
        let stats = TrainStats::of(&out);
        let path = inp.scratch.path().join("model.mfck");
        let meta = CheckpointMeta {
            seed: cfg.seed,
            epoch: stats.epochs(),
        };
        tr.span("mf-serve.checkpoint.save", |_| {
            checkpoint::save(&out.model, meta, &path).expect("checkpoint save")
        });
        let ckpt_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        let loaded = tr.span("mf-serve.checkpoint.load", |_| {
            checkpoint::load(&path).expect("checkpoint load")
        });
        report.check(loaded.model == out.model && loaded.meta == meta, || {
            format!("rep {rep}: loaded checkpoint differs from the trained model")
        });
        let store = tr.span("mf-serve.store.build", |_| {
            FactorStore::from_checkpoint(loaded)
        });
        let rmse = tr.span("mf-sgd.eval.rmse", |_| eval::rmse(&out.model, &test));
        report.check(rmse == out.report.final_test_rmse, || {
            format!("rep {rep}: eval RMSE {rmse} differs from the run's final probe")
        });
        black_box(&store);
        (stats, alpha, blocks, ckpt_bytes)
    });
    RamRep {
        pipeline_s: t0.elapsed().as_secs_f64(),
        train,
        alpha,
        blocks,
        ckpt_bytes,
    }
}

impl Workload for TrainRam {
    type Inputs = RamInputs;
    type Run = RamRun;

    fn name(&self) -> &'static str {
        "train_ram"
    }

    fn setup(&self, opts: &Opts, report: &mut Report) -> RamInputs {
        let sizes = Sizes::of(opts.size);
        let t0 = Instant::now();
        let (train, test) = dataset(&sizes, opts.seed);
        let generate_s = t0.elapsed().as_secs_f64();
        let mut image = Vec::with_capacity(train.nnz() * 16);
        io::write_text(&train, &mut image).expect("writing to memory cannot fail");
        report.note(format!(
            "{}; text image {} bytes",
            sizes.describe(),
            image.len()
        ));
        RamInputs {
            sizes,
            host: machine::host(),
            image,
            test,
            generate_s,
            scratch: Scratch::new("train_ram"),
        }
    }

    fn measure(
        &self,
        inp: &RamInputs,
        opts: &Opts,
        tr: &mut Tracer,
        report: &mut Report,
    ) -> RamRun {
        let start = Instant::now();
        let nc = cpu_workers(&inp.host);
        // Repetition 0 warms the caches and calibrates the target: same
        // schedule, no stop, RMSE read off at the wanted epoch.
        let open = hetero_cfg(&inp.sizes, nc, 1, opts.seed, None);
        let cal = pipeline_rep(inp, &open, &mut Tracer::new(false), 0, report);
        let target = calibrated_target(&cal.train.report, inp.sizes.epochs);
        let cfg = hetero_cfg(&inp.sizes, nc, 1, opts.seed, Some(target));

        let mut reps = Vec::new();
        while reps.len() < inp.sizes.min_reps || start.elapsed().as_secs_f64() < opts.seconds {
            let rep = pipeline_rep(inp, &cfg, tr, reps.len() + 1, report);
            check_rep(report, reps.len() + 1, &rep.train, &inp.sizes, target);
            reps.push(rep);
        }
        let first = reps[0].train.hash;
        report.check(reps.iter().all(|r| r.train.hash == first), || {
            "factor XXH64 differs between repetitions".into()
        });
        report.count(reps.len() as u64, 0);
        RamRun { target, reps }
    }

    fn end_to_end(&self, run: &RamRun, report: &mut Report) {
        let pipeline: Vec<f64> = run.reps.iter().map(|r| r.pipeline_s).collect();
        let pipeline_s = report.set_samples("e2e.pipeline_s", &pipeline, Better::Lower);
        report.set("job_s", pipeline_s);
        let trains: Vec<&TrainStats> = run.reps.iter().map(|r| &r.train).collect();
        train_end_to_end(report, &trains);
        report.note(format!(
            "target RMSE {} (calibrated), nnz x epochs = {} updates per repetition",
            run.target,
            trains[0].points()
        ));
    }

    fn layers(
        &self,
        inp: &RamInputs,
        traced: &RamRun,
        tr: &Tracer,
        opts: &Opts,
        report: &mut Report,
    ) {
        let nnz = inp.sizes.train as f64;
        let span = |name: &str| fastest(&tr.durations(name));
        let read_s = span("mf-sparse.io.read_text");
        report.set("mf-data.generate_s", inp.generate_s);
        report.set("mf-sparse.io.read_text_s", read_s);
        report.set("mf-sparse.io.parse_mentries_per_s", nnz / 1e6 / read_s);
        report.set("mf-sparse.io.text_bytes", inp.image.len() as f64);
        report.set(
            "mf-sparse.shuffle.preprocess_pair_s",
            span("mf-sparse.shuffle.preprocess_pair"),
        );
        report.set(
            "hsgd-core.experiments.star_setup_s",
            span("hsgd-core.experiments.star_setup"),
        );
        let first = &traced.reps[0];
        report.set("hsgd-core.experiments.alpha_realized", first.alpha);
        let build_s = span("mf-sparse.grid.build");
        report.set("mf-sparse.grid.build_s", build_s);
        report.set("mf-sparse.grid.build_mentries_per_s", nnz / 1e6 / build_s);
        report.set("mf-sparse.grid.blocks", first.blocks as f64);
        report.set("mf-sgd.eval.rmse_s", span("mf-sgd.eval.rmse"));
        report.set(
            "mf-serve.checkpoint.save_s",
            span("mf-serve.checkpoint.save"),
        );
        report.set(
            "mf-serve.checkpoint.load_s",
            span("mf-serve.checkpoint.load"),
        );
        report.set("mf-serve.checkpoint.bytes", first.ckpt_bytes as f64);
        report.set("mf-serve.store.build_s", span("mf-serve.store.build"));
        report.set("trace.cover_frac", tr.child_cover("pipeline"));

        // Isolated replays on the workload's own partition and scheduler.
        let nc = cpu_workers(&inp.host);
        let cfg = hetero_cfg(&inp.sizes, nc, 1, opts.seed, None);
        let raw = io::read_text(&inp.image[..], Some((inp.sizes.users, inp.sizes.items)))
            .expect("generated text image parses");
        let (train, test) = preprocess_pair(&raw, &inp.test, cfg.seed);
        let setup = star_setup(&train, &cfg, CostModelKind::Tailored, true);
        let part = GridPartition::build_with_order(
            &train,
            setup.scheduler.spec().clone(),
            BlockOrder::UserMajor,
        );
        let kernel_epoch_s = replays(report, &inp.host, &part, setup.scheduler, &cfg, opts.size);
        let trains: Vec<&TrainStats> = traced.reps.iter().map(|r| &r.train).collect();
        runtime_layers(report, &trains, nc + 1, kernel_epoch_s);

        // Relaxed mode on the same rig: free-running, so not
        // bit-repeatable and (on two cores) bimodal — a layer metric.
        let relaxed_cfg = HeteroConfig {
            iterations: inp.sizes.epochs,
            ..cfg.clone()
        };
        let rates: Vec<f64> = (0..5)
            .map(|_| {
                let setup = star_setup(&train, &relaxed_cfg, CostModelKind::Tailored, true);
                let out = run_training_real(
                    &train,
                    &test,
                    setup.scheduler,
                    star_pool(nc, setup.gpus),
                    &relaxed_cfg,
                    ExecMode::Relaxed,
                    Some(setup.alpha),
                    "HSGD*/real-relaxed",
                );
                (out.report.cpu_points + out.report.gpu_points) as f64 / out.report.virtual_secs
            })
            .collect();
        report.set_samples(
            "hsgd-core.runtime.relaxed_ratings_per_s",
            &rates,
            Better::Higher,
        );
        let s = summarize(&rates);
        report.set("hsgd-core.runtime.relaxed_ratings_per_s_iqr", s.q3 - s.q1);
    }

    fn rep_secs(&self, run: &RamRun) -> f64 {
        fastest(&run.reps.iter().map(|r| r.pipeline_s).collect::<Vec<_>>())
    }
}

// ---------------------------------------------------------------------------
// train_spill
// ---------------------------------------------------------------------------

/// The same matrix through the out-of-core path.
pub struct TrainSpill;

/// Inputs of `train_spill`.
pub struct SpillInputs {
    sizes: Sizes,
    host: Host,
    train: SparseMatrix,
    test: SparseMatrix,
    spec: GridSpec,
    generate_s: f64,
    scratch: Scratch,
}

/// One repetition: the in-RAM reference, then the spilled run.
struct SpillRep {
    rep_s: f64,
    /// Wall of the whole `train_out_of_core_real` call: arena write,
    /// reopen, training.
    spill_call_s: f64,
    ram: TrainStats,
    spill: TrainStats,
}

/// One measuring pass of `train_spill`.
pub struct SpillRun {
    target: f64,
    reps: Vec<SpillRep>,
}

/// Cache budget as a share of the partition's wire bytes.
const SPILL_BUDGET_FRAC: f64 = 0.25;

impl SpillInputs {
    fn pool(&self, nc: usize) -> DevicePool {
        DevicePool {
            cpu_workers: nc,
            gpus: vec![],
            gpu_start: vec![],
        }
    }

    fn budget_bytes(&self) -> usize {
        ((self.train.nnz() * Rating::WIRE_BYTES) as f64 * SPILL_BUDGET_FRAC) as usize
    }

    fn scheduler(&self, cfg: &HeteroConfig) -> UniformScheduler {
        UniformScheduler::new(self.spec.clone(), cfg.iterations, true)
    }

    fn ram_run(&self, cfg: &HeteroConfig, tr: &mut Tracer) -> TrainStats {
        let out = tr.span("hsgd-core.runtime.train_ram", |_| {
            run_training_real(
                &self.train,
                &self.test,
                self.scheduler(cfg),
                self.pool(cfg.nc),
                cfg,
                ExecMode::Exclusive,
                None,
                "uniform/in-ram",
            )
        });
        TrainStats::of(&out)
    }

    fn spill_run(&self, cfg: &HeteroConfig, tr: &mut Tracer) -> (TrainStats, f64) {
        let dir = self.scratch.subdir("arena");
        let t0 = Instant::now();
        let out = tr.span("hsgd-core.spill.train_out_of_core", |_| {
            train_out_of_core_real(
                &self.train,
                &self.test,
                self.scheduler(cfg),
                self.pool(cfg.nc),
                cfg,
                ExecMode::Exclusive,
                Arc::new(RealFs),
                &dir,
                self.budget_bytes(),
                None,
                "uniform/spilled",
            )
            .expect("spilled training run")
        });
        let call_s = t0.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(&dir);
        (TrainStats::of(&out), call_s)
    }
}

impl Workload for TrainSpill {
    type Inputs = SpillInputs;
    type Run = SpillRun;

    fn name(&self) -> &'static str {
        "train_spill"
    }

    fn setup(&self, opts: &Opts, report: &mut Report) -> SpillInputs {
        let sizes = Sizes::of(opts.size);
        let t0 = Instant::now();
        let (train, test) = dataset(&sizes, opts.seed);
        let generate_s = t0.elapsed().as_secs_f64();
        let (train, test) = preprocess_pair(&train, &test, opts.seed);
        let spec = uniform_layout(&train, 16, 12);
        report.note(format!(
            "{}; 16 x 12 uniform grid, cache budget {:.0} % of {} wire bytes",
            sizes.describe(),
            SPILL_BUDGET_FRAC * 100.0,
            train.nnz() * Rating::WIRE_BYTES
        ));
        SpillInputs {
            sizes,
            host: machine::host(),
            train,
            test,
            spec,
            generate_s,
            scratch: Scratch::new("train_spill"),
        }
    }

    fn measure(
        &self,
        inp: &SpillInputs,
        opts: &Opts,
        tr: &mut Tracer,
        report: &mut Report,
    ) -> SpillRun {
        let start = Instant::now();
        let nc = cpu_workers(&inp.host);
        let open = hetero_cfg(&inp.sizes, nc, 0, opts.seed, None);
        let cal = inp.ram_run(&open, &mut Tracer::new(false));
        let target = calibrated_target(&cal.report, inp.sizes.epochs);
        let cfg = hetero_cfg(&inp.sizes, nc, 0, opts.seed, Some(target));

        let mut reps = Vec::new();
        while reps.len() < inp.sizes.min_reps || start.elapsed().as_secs_f64() < opts.seconds {
            let ix = reps.len() + 1;
            tr.set_rep(ix as u32);
            let t0 = Instant::now();
            let (ram, (spill, spill_call_s)) = tr.span("repetition", |tr| {
                (inp.ram_run(&cfg, tr), inp.spill_run(&cfg, tr))
            });
            let rep_s = t0.elapsed().as_secs_f64();
            check_rep(report, ix, &spill, &inp.sizes, target);
            report.check(spill.hash == ram.hash, || {
                format!("rep {ix}: spilled factors differ from the in-RAM run")
            });
            report.check(spill.report.spill.is_some(), || {
                format!("rep {ix}: spilled run reported no cache counters")
            });
            reps.push(SpillRep {
                rep_s,
                spill_call_s,
                ram,
                spill,
            });
        }
        report.count(reps.len() as u64, 0);
        SpillRun { target, reps }
    }

    fn end_to_end(&self, run: &SpillRun, report: &mut Report) {
        let spilled: Vec<&TrainStats> = run.reps.iter().map(|r| &r.spill).collect();
        train_end_to_end(report, &spilled);
        let call: Vec<f64> = run.reps.iter().map(|r| r.spill_call_s).collect();
        report.set("job_s", fastest(&call));
        let slowdown: Vec<f64> = run
            .reps
            .iter()
            .map(|r| r.spill.report.virtual_secs / r.ram.report.virtual_secs)
            .collect();
        // A ratio of two walls of one repetition: both move with the
        // host's speed, so the median is the honest summary here.
        report.set("e2e.spill_slowdown", median(&slowdown));
        let ram_wall: Vec<f64> = run.reps.iter().map(|r| r.ram.report.virtual_secs).collect();
        report.note(format!(
            "target RMSE {} (calibrated); spill_slowdown base: in-RAM training wall {} s",
            run.target,
            summarize(&ram_wall)
        ));
    }

    fn layers(
        &self,
        inp: &SpillInputs,
        traced: &SpillRun,
        tr: &Tracer,
        opts: &Opts,
        report: &mut Report,
    ) {
        report.set("mf-data.generate_s", inp.generate_s);
        report.set("mf-sparse.grid.blocks", inp.spec.block_count() as f64);
        report.set("trace.cover_frac", tr.child_cover("repetition"));
        let med =
            |f: &dyn Fn(&SpillRep) -> f64| median(&traced.reps.iter().map(f).collect::<Vec<_>>());
        let best =
            |f: &dyn Fn(&SpillRep) -> f64| fastest(&traced.reps.iter().map(f).collect::<Vec<_>>());
        let counters = |r: &SpillRep| r.spill.report.spill.expect("checked in measure");
        report.set("mf-sparse.cache.hit_rate", med(&|r| counters(r).hit_rate()));
        report.set(
            "mf-sparse.cache.evictions",
            med(&|r| counters(r).evictions as f64),
        );
        report.set(
            "mf-sparse.cache.bytes_read",
            med(&|r| counters(r).bytes_read as f64),
        );
        let load_s = best(&|r| counters(r).load_secs);
        report.set("mf-sparse.cache.load_s", load_s);
        let ram_wall = best(&|r| r.ram.report.virtual_secs);
        let spill_wall = best(&|r| r.spill.report.virtual_secs);
        // Inferred, not observed: the trace spine will replace it.
        report.set(
            "hsgd-core.spill.io_overlap_inferred",
            if load_s > 0.0 {
                (1.0 - (spill_wall - ram_wall).max(0.0) / load_s).clamp(0.0, 1.0)
            } else {
                1.0
            },
        );

        // mf-sparse.grid and mf-sparse.arena: the build and the write the
        // spilled call does first, each alone.
        let t0 = Instant::now();
        let part =
            GridPartition::build_with_order(&inp.train, inp.spec.clone(), BlockOrder::UserMajor);
        let build_s = t0.elapsed().as_secs_f64();
        report.set("mf-sparse.grid.build_s", build_s);
        report.set(
            "mf-sparse.grid.build_mentries_per_s",
            inp.train.nnz() as f64 / 1e6 / build_s,
        );
        let dir = inp.scratch.subdir("arena_write");
        let mut write_secs = Vec::new();
        let mut bytes = 0u64;
        for _ in 0..3 {
            let t0 = Instant::now();
            part.write_arena(&RealFs, &dir, "probe.arena")
                .expect("arena write");
            write_secs.push(t0.elapsed().as_secs_f64());
            bytes = std::fs::metadata(dir.join("probe.arena")).map_or(0, |m| m.len());
        }
        let _ = std::fs::remove_dir_all(&dir);
        let write_s = fastest(&write_secs);
        report.set("mf-sparse.arena.write_s", write_s);
        report.set("mf-sparse.arena.write_mbs", bytes as f64 / 1e6 / write_s);
        report.set("mf-sparse.arena.bytes", bytes as f64);

        let nc = cpu_workers(&inp.host);
        let cfg = hetero_cfg(&inp.sizes, nc, 0, opts.seed, None);
        let kernel_epoch_s = replays(
            report,
            &inp.host,
            &part,
            inp.scheduler(&cfg),
            &cfg,
            opts.size,
        );
        let spilled: Vec<&TrainStats> = traced.reps.iter().map(|r| &r.spill).collect();
        runtime_layers(report, &spilled, nc, kernel_epoch_s);
    }

    fn rep_secs(&self, run: &SpillRun) -> f64 {
        fastest(&run.reps.iter().map(|r| r.rep_s).collect::<Vec<_>>())
    }
}
