//! Out-of-core bit-identity: spill-backed training is the *same
//! computation* as in-RAM training, at any cache budget that admits
//! forward progress.
//!
//! One seeded dataset, three budgets (generous / tight / the
//! pathological 1-byte minimum, where every block is a miss and the
//! pinned working set alone exceeds the cache), two execution worlds:
//!
//! * virtual-time DES with one CPU slot — disk reads only move
//!   completion times on the single dispatch slot, so the task order is
//!   untouched (ARCHITECTURE.md § "Out-of-core training");
//! * the real-thread exclusive runtime at 4 workers — round task sets
//!   depend only on scheduler state, never on load latencies.
//!
//! In both, factors must be bit-identical to the in-RAM run and the
//! RMSE probe series must match exactly.

use hsgd_star::hetero::layout::uniform_layout;
use hsgd_star::hetero::runtime::{run_training_real, ExecMode};
use hsgd_star::hetero::scheduler::UniformScheduler;
use hsgd_star::hetero::trainer::run_training;
use hsgd_star::hetero::{
    train_out_of_core_real, train_out_of_core_virtual, CostModelKind, CpuSpec, DevicePool,
    HeteroConfig, IoSpec, RunReport,
};
use hsgd_star::sgd::HyperParams;
use hsgd_star::sparse::{Rating, RealFs, SparseMatrix};
use std::sync::Arc;

fn dataset() -> (SparseMatrix, SparseMatrix) {
    let ds = hsgd_star::data::generator::generate(&hsgd_star::data::GeneratorConfig {
        name: "spill-identity".into(),
        num_users: 600,
        num_items: 400,
        num_train: 15_000,
        num_test: 1_500,
        planted_rank: 4,
        noise_std: 0.4,
        rating_min: 1.0,
        rating_max: 5.0,
        user_skew: 0.4,
        item_skew: 0.4,
        seed: 31,
    });
    (ds.train, ds.test)
}

fn cfg(nc: usize) -> HeteroConfig {
    HeteroConfig {
        hyper: HyperParams {
            k: 8,
            lambda_p: 0.05,
            lambda_q: 0.05,
            gamma: 0.01,
            schedule: hsgd_star::sgd::LearningRate::Fixed,
        },
        nc,
        ng: 0,
        gpu: hsgd_star::gpu::GpuSpec::quadro_p4000().scaled_down(100.0),
        cpu: CpuSpec::default().scaled_down(100.0),
        iterations: 5,
        seed: 17,
        dynamic_scheduling: true,
        cost_model: CostModelKind::Tailored,
        probe_interval_secs: None,
        target_rmse: None,
    }
}

fn cpu_pool(nc: usize) -> DevicePool {
    DevicePool {
        cpu_workers: nc,
        gpus: vec![],
        gpu_start: vec![],
    }
}

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mf_spill_identity_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn rmse_only(r: &RunReport) -> Vec<f64> {
    r.rmse_series.iter().map(|&(_, x)| x).collect()
}

/// Generous (everything fits), tight (constant eviction traffic), and
/// the pathological minimum where only pinned blocks are ever resident.
fn budgets(train: &SparseMatrix) -> [(String, usize); 3] {
    let total = train.nnz() * Rating::WIRE_BYTES;
    [
        ("generous-2x".to_string(), total * 2),
        ("tight-quarter".to_string(), total / 4),
        ("pathological-1B".to_string(), 1),
    ]
}

#[test]
fn virtual_world_spill_is_bit_identical_at_every_budget() {
    let (train, test) = dataset();
    let cfg = cfg(1); // single DES slot: the determinism-under-IO regime
    let spec = uniform_layout(&train, 5, 4);
    let baseline = run_training(
        &train,
        &test,
        UniformScheduler::new(spec.clone(), cfg.iterations, true),
        cpu_pool(cfg.nc),
        &cfg,
        None,
        "in-ram/virtual",
    );

    for (label, budget) in budgets(&train) {
        let dir = scratch(&format!("virt_{label}"));
        let out = train_out_of_core_virtual(
            &train,
            &test,
            UniformScheduler::new(spec.clone(), cfg.iterations, true),
            cpu_pool(cfg.nc),
            &cfg,
            Arc::new(RealFs),
            &dir,
            budget,
            IoSpec::default().scaled_down(1000.0),
            None,
            "spill/virtual",
        )
        .expect("spilled virtual run");
        assert_eq!(
            baseline.model, out.model,
            "virtual world: factors diverged from in-RAM at budget {label}"
        );
        assert_eq!(
            rmse_only(&baseline.report),
            rmse_only(&out.report),
            "virtual world: probe series diverged at budget {label}"
        );
        assert_eq!(
            baseline.report.update_counts, out.report.update_counts,
            "virtual world: update counts diverged at budget {label}"
        );
        let spill = out.report.spill.expect("spilled run reports counters");
        assert!(spill.bytes_read > 0, "{label}: arena was never read");
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn real_exclusive_spill_is_bit_identical_at_every_budget() {
    let (train, test) = dataset();
    let cfg = cfg(4);
    let spec = uniform_layout(&train, 5, 4);
    let baseline = run_training_real(
        &train,
        &test,
        UniformScheduler::new(spec.clone(), cfg.iterations, true),
        cpu_pool(cfg.nc),
        &cfg,
        ExecMode::Exclusive,
        None,
        "in-ram/real",
    );

    for (label, budget) in budgets(&train) {
        let dir = scratch(&format!("real_{label}"));
        let out = train_out_of_core_real(
            &train,
            &test,
            UniformScheduler::new(spec.clone(), cfg.iterations, true),
            cpu_pool(cfg.nc),
            &cfg,
            ExecMode::Exclusive,
            Arc::new(RealFs),
            &dir,
            budget,
            None,
            "spill/real",
        )
        .expect("spilled real run");
        assert_eq!(
            baseline.model, out.model,
            "real exclusive: factors diverged from in-RAM at budget {label}"
        );
        assert_eq!(
            rmse_only(&baseline.report),
            rmse_only(&out.report),
            "real exclusive: probe series diverged at budget {label}"
        );
        assert_eq!(
            baseline.report.update_counts, out.report.update_counts,
            "real exclusive: update counts diverged at budget {label}"
        );
        let spill = out.report.spill.expect("spilled run reports counters");
        assert!(spill.bytes_read > 0, "{label}: arena was never read");
        if budget == 1 {
            assert!(
                spill.evictions > 0,
                "{label}: a 1-byte budget must evict constantly"
            );
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}
