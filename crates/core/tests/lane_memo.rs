//! The GPU seat gathers each block of a resident partition into lane
//! order once per run, in the DES and in exclusive real-thread rounds,
//! and each block of a spill-backed partition on every pass — with the
//! same factor bits either way.
//!
//! The gather count (`gpu_sim::simt::lane_gathers`) is process-wide, so
//! these runs live alone in their own test binary and take turns.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use hsgd_core::devices::GpuWorker;
use hsgd_core::layout::{uniform_layout, StarLayout};
use hsgd_core::scheduler::{StarScheduler, UniformScheduler};
use hsgd_core::spill::scratch_dir;
use hsgd_core::trainer::run_training;
use hsgd_core::{
    run_training_real, train_out_of_core_real, train_out_of_core_virtual, CostModelKind, CpuSpec,
    DevicePool, ExecMode, HeteroConfig, IoSpec, TrainOutcome,
};
use mf_sparse::{GridSpec, Rating, RealFs, SparseMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Lanes per simulated GPU: fewer than any block holds, so every block
/// is gathered (one lane or one step would run it in storage order).
const LANES: u32 = 4;
const ITERATIONS: u32 = 4;

/// Serializes the runs: each reads the process-wide gather count.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A rank-2 `m × n` matrix, 60 % of cells in train and 10 % in test.
fn low_rank_data(m: u32, n: u32, seed: u64) -> (SparseMatrix, SparseMatrix) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a: Vec<[f32; 2]> = (0..m).map(|_| [rng.random(), rng.random()]).collect();
    let b: Vec<[f32; 2]> = (0..n).map(|_| [rng.random(), rng.random()]).collect();
    let (mut train, mut test) = (Vec::new(), Vec::new());
    for u in 0..m {
        for v in 0..n {
            let x: f32 = rng.random();
            let (a, b) = (a[u as usize], b[v as usize]);
            let r = 1.0 + 2.0 * (a[0] * b[0] + a[1] * b[1]);
            if x < 0.6 {
                train.push(Rating::new(u, v, r));
            } else if x < 0.7 {
                test.push(Rating::new(u, v, r));
            }
        }
    }
    (
        SparseMatrix::new(m, n, train).unwrap(),
        SparseMatrix::new(m, n, test).unwrap(),
    )
}

fn cfg(nc: usize, ng: usize) -> HeteroConfig {
    HeteroConfig {
        hyper: mf_sgd::HyperParams {
            k: 8,
            lambda_p: 0.01,
            lambda_q: 0.01,
            gamma: 0.05,
            schedule: mf_sgd::LearningRate::Fixed,
        },
        nc,
        ng,
        gpu: gpu_sim::GpuSpec::default()
            .scaled_down(1000.0)
            .with_workers(LANES),
        cpu: CpuSpec::default(),
        iterations: ITERATIONS,
        seed: 9,
        dynamic_scheduling: true,
        cost_model: CostModelKind::Tailored,
        probe_interval_secs: None,
        target_rmse: None,
    }
}

fn pool(cfg: &HeteroConfig) -> DevicePool {
    DevicePool {
        cpu_workers: cfg.nc,
        gpus: (0..cfg.ng).map(|_| GpuWorker::new(cfg.gpu)).collect(),
        gpu_start: vec![],
    }
}

/// Runs `run` and returns how many blocks it gathered into lane order.
fn gathers_during(run: impl FnOnce() -> TrainOutcome) -> (u64, TrainOutcome) {
    let before = gpu_sim::simt::lane_gathers();
    let out = run();
    (gpu_sim::simt::lane_gathers() - before, out)
}

/// GPU-only runs over a uniform 3 × 3 grid: the GPU runs every pass.
fn gpu_only() -> (SparseMatrix, SparseMatrix, HeteroConfig, GridSpec) {
    let (train, test) = low_rank_data(40, 40, 3);
    let spec = uniform_layout(&train, 3, 3);
    (train, test, cfg(0, 1), spec)
}

#[test]
fn resident_gpu_blocks_are_gathered_once_per_run_in_both_worlds() {
    let _turn = serial();
    let (train, test, cfg, spec) = gpu_only();
    let blocks = spec.block_count() as u64;
    let sched = || UniformScheduler::new(spec.clone(), cfg.iterations, true);
    let (des, des_out) =
        gathers_during(|| run_training(&train, &test, sched(), pool(&cfg), &cfg, None, "des"));
    let (excl, excl_out) = gathers_during(|| {
        run_training_real(
            &train,
            &test,
            sched(),
            pool(&cfg),
            &cfg,
            ExecMode::Exclusive,
            None,
            "exclusive",
        )
    });
    for out in [&des_out, &excl_out] {
        assert_eq!(out.report.total_passes, blocks * ITERATIONS as u64);
        assert_eq!(out.report.cpu_points, 0);
    }
    assert_eq!(des, blocks, "DES: one gather per block per run");
    assert_eq!(excl, blocks, "exclusive: one gather per block per run");

    // HSGD*: the GPU runs its region's blocks, and steals, once each.
    let cfg = self::cfg(1, 1);
    let layout = StarLayout::build(&train, 1, 1, 0.7);
    let star_blocks = layout.spec.block_count() as u64;
    let star = || StarScheduler::new(layout.clone(), cfg.iterations, true);
    let (des, des_out) =
        gathers_during(|| run_training(&train, &test, star(), pool(&cfg), &cfg, None, "des-star"));
    let (excl, excl_out) = gathers_during(|| {
        run_training_real(
            &train,
            &test,
            star(),
            pool(&cfg),
            &cfg,
            ExecMode::Exclusive,
            None,
            "exclusive-star",
        )
    });
    for (world, n, out) in [("DES", des, des_out), ("exclusive", excl, excl_out)] {
        assert!(
            out.report.gpu_points > train.nnz() as u64,
            "{world}: GPU idle"
        );
        assert!(
            0 < n && n <= star_blocks,
            "{world}: {n} gathers, {star_blocks} blocks"
        );
    }
}

#[test]
fn spill_backed_gpu_blocks_are_gathered_every_pass_with_the_same_bits() {
    let _turn = serial();
    let (train, test, cfg, spec) = gpu_only();
    let passes = spec.block_count() as u64 * ITERATIONS as u64;
    let sched = || UniformScheduler::new(spec.clone(), cfg.iterations, true);
    let budget = train.nnz() * Rating::WIRE_BYTES / 4;
    let resident_des = run_training(&train, &test, sched(), pool(&cfg), &cfg, None, "des");
    let resident_excl = run_training_real(
        &train,
        &test,
        sched(),
        pool(&cfg),
        &cfg,
        ExecMode::Exclusive,
        None,
        "exclusive",
    );
    let dir = scratch_dir("lane_memo_des");
    let (des, des_out) = gathers_during(|| {
        train_out_of_core_virtual(
            &train,
            &test,
            sched(),
            pool(&cfg),
            &cfg,
            Arc::new(RealFs),
            &dir,
            budget,
            IoSpec::default().scaled_down(1000.0),
            None,
            "spill-des",
        )
        .expect("spilled DES run")
    });
    let _ = std::fs::remove_dir_all(dir);
    let dir = scratch_dir("lane_memo_excl");
    let (excl, excl_out) = gathers_during(|| {
        train_out_of_core_real(
            &train,
            &test,
            sched(),
            pool(&cfg),
            &cfg,
            ExecMode::Exclusive,
            Arc::new(RealFs),
            &dir,
            budget,
            None,
            "spill-exclusive",
        )
        .expect("spilled exclusive run")
    });
    let _ = std::fs::remove_dir_all(dir);
    assert_eq!(des, passes, "DES: a spilled block is gathered every pass");
    assert_eq!(
        excl, passes,
        "exclusive: a spilled block is gathered every pass"
    );
    // Gathering every pass and gathering once give the same factors.
    assert_eq!(
        resident_des.model, des_out.model,
        "DES: memo moved the bits"
    );
    assert_eq!(
        resident_excl.model, excl_out.model,
        "exclusive: memo moved the bits"
    );
}
