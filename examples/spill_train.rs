//! Out-of-core training, end to end: the training matrix is spilled to
//! an on-disk block arena and trained through a byte-budgeted LRU block
//! cache that holds only a quarter of it — and the run is
//! **bit-identical** to the fully resident one.
//!
//! The demo:
//! * generates the `spill_scale` dataset (large enough that its
//!   partition wire bytes dwarf the cache budget),
//! * trains it fully in RAM on the real-thread exclusive runtime,
//! * trains it again spill-backed at a quarter-of-the-data budget —
//!   same scheduler, same mode — and prints the block cache's counters,
//! * asserts the factors match bit for bit and the RMSE probe series
//!   is exactly equal (parity, not "close").
//!
//! The cache budget honors `MF_SPILL_BUDGET` (binary suffixes:
//! `MF_SPILL_BUDGET=256k cargo run --release --example spill_train`);
//! any budget works — when the pinned working set exceeds it, the cache
//! runs over budget rather than stall, so even `MF_SPILL_BUDGET=1`
//! makes forward progress.
//!
//! Run with: `cargo run --release --example spill_train`

use hsgd_star::hetero::layout::uniform_layout;
use hsgd_star::hetero::runtime::{run_training_real, ExecMode};
use hsgd_star::hetero::scheduler::UniformScheduler;
use hsgd_star::hetero::{train_out_of_core_real, CostModelKind, CpuSpec, DevicePool, HeteroConfig};
use hsgd_star::sgd::{HyperParams, LearningRate};
use hsgd_star::sparse::{arena, Rating, RealFs};
use std::sync::Arc;

fn main() {
    let ds = hsgd_star::data::generator::generate(&hsgd_star::data::GeneratorConfig::spill_scale(
        "spill_train",
        23,
    ));
    let cfg = HeteroConfig {
        hyper: HyperParams {
            k: 16,
            lambda_p: 0.05,
            lambda_q: 0.05,
            gamma: 0.01,
            schedule: LearningRate::Fixed,
        },
        nc: 2,
        ng: 0,
        gpu: hsgd_star::gpu::GpuSpec::quadro_p4000().scaled_down(100.0),
        cpu: CpuSpec::default().scaled_down(100.0),
        iterations: 4,
        seed: 11,
        dynamic_scheduling: true,
        cost_model: CostModelKind::Tailored,
        probe_interval_secs: None,
        target_rmse: None,
    };
    let (train, test) = (&ds.train, &ds.test);
    let total = train.nnz() * Rating::WIRE_BYTES;
    let budget = arena::budget_from_env(total / 4);
    println!(
        "dataset: {} users × {} items, {} train ratings ({:.2} MB on the wire)",
        train.nrows(),
        train.ncols(),
        train.nnz(),
        total as f64 / 1e6
    );
    println!(
        "cache budget: {:.2} MB ({}% of the partition)",
        budget as f64 / 1e6,
        budget * 100 / total
    );

    let spec = uniform_layout(train, 8, 6);
    let pool = || DevicePool {
        cpu_workers: cfg.nc,
        gpus: vec![],
        gpu_start: vec![],
    };

    println!("\n== fully in RAM (real threads, exclusive) ==");
    let in_ram = run_training_real(
        train,
        test,
        UniformScheduler::new(spec.clone(), cfg.iterations, true),
        pool(),
        &cfg,
        ExecMode::Exclusive,
        None,
        "spill_train/in-ram",
    );
    println!(
        "in-RAM: {:.3}s, RMSE {:.4}",
        in_ram.report.virtual_secs, in_ram.report.final_test_rmse
    );

    println!("\n== spill-backed (block arena + LRU cache + prefetch) ==");
    let dir = hsgd_star::hetero::spill::scratch_dir("spill_train_example");
    let spilled = train_out_of_core_real(
        train,
        test,
        UniformScheduler::new(spec.clone(), cfg.iterations, true),
        pool(),
        &cfg,
        ExecMode::Exclusive,
        Arc::new(RealFs),
        &dir,
        budget,
        None,
        "spill_train/spill",
    )
    .expect("out-of-core run");
    let _ = std::fs::remove_dir_all(&dir);
    let c = spilled
        .report
        .spill
        .expect("spilled run reports cache counters");
    println!(
        "spilled: {:.3}s, RMSE {:.4}",
        spilled.report.virtual_secs, spilled.report.final_test_rmse
    );
    println!(
        "cache: {} hits / {} misses ({:.0}% hit rate), {} prefetched, {} evictions, {:.2} MB read back at {:.0} MB/s",
        c.hits,
        c.misses,
        c.hit_rate() * 100.0,
        c.prefetched,
        c.evictions,
        c.bytes_read as f64 / 1e6,
        c.io_bytes_per_sec() / 1e6
    );

    assert_eq!(
        in_ram.model, spilled.model,
        "spill-backed factors must be bit-identical to the in-RAM run"
    );
    let probes = |r: &hsgd_star::hetero::RunReport| -> Vec<f64> {
        r.rmse_series.iter().map(|&(_, x)| x).collect()
    };
    assert_eq!(
        probes(&in_ram.report),
        probes(&spilled.report),
        "RMSE probe series must match exactly"
    );
    assert!(
        c.bytes_read > 0,
        "the arena was never read — nothing spilled"
    );
    println!("\nfactors bit-identical and RMSE series exactly equal ✓");
}
