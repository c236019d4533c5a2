//! A run nested inside an `mf-par` batch must spawn no threads.
//!
//! The check compares the process's live thread ids before and after the
//! run, so it lives alone in its own test binary: beside other tests in one
//! process, a neighbour can start threads inside that window.

use std::collections::HashSet;
use std::ffi::OsString;
use std::sync::{Arc, Mutex};

use hsgd_core::devices::GpuWorker;
use hsgd_core::layout::StarLayout;
use hsgd_core::scheduler::StarScheduler;
use hsgd_core::spill::scratch_dir;
use hsgd_core::{
    run_training_real, train_out_of_core_real, CostModelKind, CpuSpec, DevicePool, ExecMode,
    HeteroConfig,
};
use mf_par::ThreadPool;
use mf_sparse::{Rating, RealFs, SparseMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// Ids of this process's live threads (Linux procfs).
fn thread_ids() -> HashSet<OsString> {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.filter_map(|e| Some(e.ok()?.file_name())).collect())
        .unwrap_or_default()
}

#[test]
fn nested_runs_spawn_no_thread() {
    // With GPUs in the pool, a nested run must still spawn no threads,
    // in either mode, in RAM or spilled: it runs exclusive rounds on the
    // calling thread with no prefetch thread, so a star scheduler's GPU
    // region drains too.
    let pool = ThreadPool::new(2);
    let (train, test) = low_rank_data(40, 40, 8);
    let cfg = HeteroConfig {
        hyper: mf_sgd::HyperParams {
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
        iterations: 2,
        seed: 9,
        dynamic_scheduling: true,
        cost_model: CostModelKind::Tailored,
        probe_interval_secs: None,
        target_rmse: None,
    };
    // A quarter of the blocks' bytes: spilled runs evict and reload.
    let budget = train.nnz() * Rating::WIRE_BYTES / 4;
    // The partition build and RMSE probes use the global pool: start its
    // workers now so they are not counted against the run.
    ThreadPool::global();
    let cases = [
        (ExecMode::Relaxed, false),
        (ExecMode::Relaxed, true),
        (ExecMode::Exclusive, true),
    ];
    for (mode, spilled) in cases {
        let total = Mutex::new(Vec::new());
        pool.run_indexed(2, |i| {
            let label = format!("nested {mode:?} (spilled: {spilled})");
            let before = thread_ids();
            let layout = StarLayout::build(&train, 2, 1, 0.5);
            let blocks = layout.spec.block_count() as u64;
            let sched = StarScheduler::new(layout, cfg.iterations, true);
            let devices = DevicePool {
                cpu_workers: 4,
                gpus: vec![GpuWorker::new(cfg.gpu)],
                gpu_start: vec![],
            };
            let out = if spilled {
                let dir = scratch_dir(&format!("nested_{mode:?}_{i}"));
                let fs = Arc::new(RealFs);
                let out = train_out_of_core_real(
                    &train, &test, sched, devices, &cfg, mode, fs, &dir, budget, None, &label,
                )
                .unwrap();
                let _ = std::fs::remove_dir_all(&dir);
                out
            } else {
                run_training_real(&train, &test, sched, devices, &cfg, mode, None, &label)
            };
            let new: Vec<_> = thread_ids().difference(&before).cloned().collect();
            assert!(new.is_empty(), "{label} spawned {new:?}");
            assert!(out.report.gpu_points > 0, "{label}: the GPU seat must run");
            total
                .lock()
                .unwrap()
                .push((out.report.total_passes, blocks));
        });
        for (passes, blocks) in total.into_inner().unwrap() {
            assert_eq!(
                passes,
                blocks * cfg.iterations as u64,
                "{mode:?}, {spilled}"
            );
        }
    }
}
