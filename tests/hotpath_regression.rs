//! Quality regression guard for the hot-path overhaul (monomorphized
//! kernels + free-block-pool scheduling + user-major block layout).
//!
//! Training quality must not depend on *how fast* the scheduler picks
//! blocks (grids this small take the pool's linear scan; larger ones its
//! heap) or on the kernel's summation association order: with fixed
//! seeds, CPU-Only on real threads and the virtual-time CPU-Only/HSGD
//! runs must still converge to the same RMSE band on the planted
//! low-rank generator that the pre-overhaul code reached, and the capped
//! scheduler must keep its soft-cap contract.

use hsgd_star::data::{generator, GeneratorConfig};
use hsgd_star::hetero::scheduler::{UniformScheduler, SOFT_CAP_SLACK};
use hsgd_star::hetero::{
    experiments, run_training_real, Algorithm, CpuSpec, DevicePool, ExecMode, HeteroConfig,
    TrainOutcome,
};
use hsgd_star::sgd::{HyperParams, LearningRate};
use hsgd_star::sparse::GridSpec;

fn dataset(seed: u64) -> generator::Dataset {
    generator::generate(&GeneratorConfig {
        name: "hotpath".into(),
        num_users: 400,
        num_items: 300,
        num_train: 24_000,
        num_test: 2_400,
        planted_rank: 4,
        noise_std: 0.3,
        rating_min: 1.0,
        rating_max: 5.0,
        user_skew: 0.5,
        item_skew: 0.5,
        seed,
    })
}

fn hyper(k: usize) -> HyperParams {
    HyperParams {
        k,
        lambda_p: 0.05,
        lambda_q: 0.05,
        gamma: 0.02,
        schedule: LearningRate::Fixed,
    }
}

fn rig(k: usize, nc: usize, iterations: u32, seed: u64) -> HeteroConfig {
    HeteroConfig {
        hyper: hyper(k),
        nc,
        ng: 1,
        gpu: hsgd_star::gpu::GpuSpec::quadro_p4000().scaled_down(500.0),
        cpu: CpuSpec::default().scaled_down(500.0),
        iterations,
        seed,
        dynamic_scheduling: true,
        cost_model: hsgd_star::hetero::CostModelKind::Tailored,
        probe_interval_secs: None,
        target_rmse: None,
    }
}

/// CPU-Only on real threads: the capped `UniformScheduler` on a
/// `(nc + 1) × nc` grid (Rule 1 with `ng = 0`), 40 iterations.
fn cpu_only(
    ds: &generator::Dataset,
    k: usize,
    nc: usize,
    seed: u64,
    mode: ExecMode,
) -> TrainOutcome {
    let cfg = rig(k, nc, 40, seed);
    let (m, n) = (ds.train.nrows(), ds.train.ncols());
    let spec = GridSpec::uniform(m, n, nc as u32 + 1, nc as u32);
    let pool = DevicePool {
        cpu_workers: nc,
        gpus: vec![],
        gpu_start: vec![],
    };
    let sched = UniformScheduler::new(spec, cfg.iterations, true);
    run_training_real(
        &ds.train, &ds.test, sched, pool, &cfg, mode, None, "CPU-Only",
    )
}

/// Free-running CPU-Only: pinned seed, monomorphized k, user-major
/// blocks, pool scheduler — quality must land in the pre-overhaul band
/// (noise floor 0.3; this setup converges to ≈0.35).
#[test]
fn fpsgd_quality_unchanged_by_hotpath_overhaul() {
    let ds = dataset(41);
    for threads in [1usize, 4] {
        let out = cpu_only(&ds, 8, threads, 5, ExecMode::Relaxed);
        let rmse = out.report.final_test_rmse;
        // One thread is deterministic → tight band. Multi-threaded
        // quality drifts with OS scheduling on an oversubscribed host
        // (same effect the end_to_end suite's band accounts for), so that
        // case gets headroom.
        let band = if threads == 1 { 0.40 } else { 0.45 };
        assert!(
            rmse < band,
            "CPU-Only({threads} threads) regressed: rmse {rmse} (band {band})"
        );
        // The soft cap: the budget is exact, the per-block count bounded.
        let counts = &out.report.update_counts;
        let blocks = counts.len() as u64;
        assert_eq!(counts.iter().map(|&c| c as u64).sum::<u64>(), blocks * 40);
        assert!(
            counts.iter().all(|&c| c <= 40 + SOFT_CAP_SLACK),
            "{counts:?}"
        );
    }
}

/// The monomorphized fast path (k = 16 ∈ MONO_DIMS) reaches the same
/// quality as a neighboring scalar-path dimension (k = 12): dispatch must
/// not change what is computed, only how fast. Exclusive rounds make both
/// runs deterministic.
#[test]
fn mono_and_scalar_dims_reach_same_quality() {
    let ds = dataset(43);
    let run = |k| {
        cpu_only(&ds, k, 2, 9, ExecMode::Exclusive)
            .report
            .final_test_rmse
    };
    let mono = run(16);
    let scalar = run(12);
    assert!(mono < 0.40, "k=16 (mono path) rmse {mono}");
    assert!(scalar < 0.40, "k=12 (scalar path) rmse {scalar}");
    assert!(
        (mono - scalar).abs() < 0.05,
        "paths diverged: mono {mono} vs scalar {scalar}"
    );
}

/// Virtual-time runs (pool-backed UniformScheduler, user-major partition):
/// CPU-Only and HSGD stay deterministic in the seed and inside the
/// pre-overhaul quality band.
#[test]
fn virtual_trainers_quality_and_determinism_unchanged() {
    let ds = dataset(47);
    let cfg = rig(8, 4, 25, 13);
    for alg in [Algorithm::CpuOnly, Algorithm::Hsgd] {
        let a = experiments::run(alg, &ds.train, &ds.test, &cfg);
        let b = experiments::run(alg, &ds.train, &ds.test, &cfg);
        assert_eq!(a.model, b.model, "{alg:?} lost bit-determinism");
        assert!(
            a.report.final_test_rmse < 0.45,
            "{alg:?} regressed: rmse {}",
            a.report.final_test_rmse
        );
    }
}
