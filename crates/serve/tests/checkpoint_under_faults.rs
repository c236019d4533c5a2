//! Checkpointing under device faults: the per-epoch hook contract must
//! survive hostile execution conditions, not just clean runs.
//!
//! Two properties are pinned:
//!
//! * **Exactly once per boundary** — with a device stalled (heavily
//!   degraded) mid-run, epoch boundaries still fire the hook exactly
//!   once each, in order, with exclusive model access.
//! * **Failure leaves the previous checkpoint readable** — when every
//!   device dies partway through an epoch, the epochs already
//!   checkpointed remain fully readable `MFCK` files; the partial epoch
//!   writes nothing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hsgd_core::devices::GpuWorker;
use hsgd_core::executor::{train_with_executor, DeviceHealth, DevicePool, HealthCell};
use hsgd_core::layout::uniform_layout;
use hsgd_core::layout::StarLayout;
use hsgd_core::scheduler::{StarScheduler, UniformScheduler};
use hsgd_core::trainer::VirtualExecutor;
use hsgd_core::{CostModelKind, CpuSpec, HeteroConfig};
use mf_des::SimTime;
use mf_serve::checkpoint;
use mf_sgd::{HyperParams, Model};
use mf_sparse::SparseMatrix;

fn dataset(seed: u64) -> (SparseMatrix, SparseMatrix) {
    let ds = mf_data::generator::generate(&mf_data::GeneratorConfig {
        name: "ckpt-faults".into(),
        num_users: 60,
        num_items: 50,
        num_train: 2500,
        num_test: 250,
        planted_rank: 4,
        noise_std: 0.3,
        rating_min: 1.0,
        rating_max: 5.0,
        user_skew: 0.5,
        item_skew: 0.5,
        seed,
    });
    (ds.train, ds.test)
}

fn cfg(iterations: u32, nc: usize, ng: usize) -> HeteroConfig {
    HeteroConfig {
        hyper: HyperParams::movielens(8),
        nc,
        ng,
        gpu: gpu_sim::GpuSpec::default().scaled_down(1000.0),
        cpu: CpuSpec::default(),
        iterations,
        seed: 31,
        dynamic_scheduling: true,
        cost_model: CostModelKind::Tailored,
        probe_interval_secs: None,
        target_rmse: None,
    }
}

#[test]
fn hook_fires_exactly_once_per_epoch_under_device_stall() {
    let (train, test) = dataset(1);
    let cfg = cfg(5, 2, 1);
    let layout = StarLayout::build(&train, 2, 1, 0.5);
    let sched = StarScheduler::new(layout, cfg.iterations, true).with_steal_ratio(1.0);

    // The GPU is stalled 50x for the whole run — slow enough that the
    // CPU side laps it and steals, so epoch boundaries land in hostile
    // interleavings rather than the clean round-robin of a healthy run.
    let gpu = GpuWorker::new(cfg.gpu);
    gpu.health_handle().set(DeviceHealth::Degraded(50.0));
    let mut exec = VirtualExecutor::new();

    let dir = std::env::temp_dir().join(format!("mfck_stall_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut write_ckpt = checkpoint::epoch_hook(dir.clone(), cfg.seed);
    let mut epochs: Vec<u64> = Vec::new();
    let out = train_with_executor(
        &train,
        &test,
        sched,
        DevicePool {
            cpu_workers: cfg.nc,
            gpus: vec![gpu],
            gpu_start: vec![SimTime::ZERO],
        },
        &cfg,
        None,
        "stalled-gpu",
        |epoch, model: &Model| {
            epochs.push(epoch);
            write_ckpt(epoch, model);
        },
        &mut exec,
    );

    // Exactly once per boundary, in order, none skipped or repeated.
    assert_eq!(epochs, (1..=cfg.iterations as u64).collect::<Vec<u64>>());
    // Every checkpoint written at those boundaries reads back cleanly
    // and the last one is the finished model.
    for &epoch in &epochs {
        let ck = checkpoint::load(dir.join(checkpoint::epoch_file_name(epoch)))
            .unwrap_or_else(|e| panic!("epoch {epoch} checkpoint unreadable: {e}"));
        assert_eq!(ck.meta.epoch, epoch);
        assert_eq!(ck.meta.seed, cfg.seed);
    }
    let last = checkpoint::load(dir.join(checkpoint::epoch_file_name(cfg.iterations as u64)))
        .expect("final checkpoint");
    assert_eq!(
        last.model, out.model,
        "last checkpoint must be the final model"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn partial_epoch_failure_leaves_previous_checkpoint_readable() {
    let (train, test) = dataset(2);
    let cfg = cfg(6, 2, 0);
    let spec = uniform_layout(&train, 3, 3);
    let nblocks = 9u64;
    let sched = UniformScheduler::new(spec, cfg.iterations, true);

    // Every CPU worker dies after ~2.5 epochs of tasks: the run stalls
    // partway through an epoch, after some checkpoints exist.
    let per_worker = (nblocks as usize * 5) / (2 * 2);
    let cells: Vec<Arc<HealthCell>> = (0..cfg.nc).map(|_| Arc::default()).collect();
    let dying = cells.clone();
    let mut ran = vec![0; cfg.nc];
    let mut exec = VirtualExecutor::new()
        .with_cpu_health(cells)
        .with_dispatch_hook(Box::new(move |slot, _| {
            ran[slot] += 1;
            if ran[slot] > per_worker {
                dying[slot].fail();
            }
            1.0
        }));

    let dir = std::env::temp_dir().join(format!("mfck_fail_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut write_ckpt = checkpoint::epoch_hook(dir.clone(), cfg.seed);
    let hook_calls = AtomicUsize::new(0);
    let out = train_with_executor(
        &train,
        &test,
        sched,
        DevicePool {
            cpu_workers: cfg.nc,
            gpus: vec![],
            gpu_start: vec![],
        },
        &cfg,
        None,
        "all-die",
        |epoch, model: &Model| {
            hook_calls.fetch_add(1, Ordering::Relaxed);
            write_ckpt(epoch, model);
        },
        &mut exec,
    );

    let written = hook_calls.load(Ordering::Relaxed) as u64;
    let budget = nblocks * cfg.iterations as u64;
    assert!(
        out.report.total_passes < budget,
        "all devices died — the run must stall short of the {budget}-pass budget \
         (got {})",
        out.report.total_passes
    );
    assert!(
        written < cfg.iterations as u64,
        "failure mid-epoch must leave later epochs uncheckpointed (wrote {written})"
    );
    assert!(
        written >= 1,
        "at least one epoch completed before the deaths"
    );

    // The epochs that did complete are all fully readable — a partial
    // epoch never corrupts or truncates what was already durable.
    for epoch in 1..=written {
        let path = dir.join(checkpoint::epoch_file_name(epoch));
        let ck = checkpoint::load(&path)
            .unwrap_or_else(|e| panic!("epoch {epoch} checkpoint unreadable after crash: {e}"));
        assert_eq!(ck.meta.epoch, epoch);
        assert_eq!(ck.model.nrows(), train.nrows());
        assert_eq!(ck.model.ncols(), train.ncols());
    }
    // And nothing beyond the last completed epoch exists at all.
    for epoch in written + 1..=cfg.iterations as u64 {
        assert!(
            !dir.join(checkpoint::epoch_file_name(epoch)).exists(),
            "epoch {epoch} checkpoint exists but that epoch never completed"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
