//! Workspace-level integration tests: the paper's headline claims, each
//! exercised end to end through the public facade API.

use hsgd_star::data::{generator, preset, GeneratorConfig, PresetName};
use hsgd_star::hetero::scheduler::UniformScheduler;
use hsgd_star::hetero::{
    experiments, run_training_real, Algorithm, CpuSpec, DevicePool, ExecMode, HeteroConfig,
};
use hsgd_star::sgd::{HyperParams, LearningRate};
use hsgd_star::sparse::GridSpec;

const DEV_SCALE: f64 = 100.0;

/// A mid-size dataset whose GPU static blocks saturate the (scaled)
/// kernel — the regime of the paper's larger datasets.
fn saturated_dataset() -> generator::Dataset {
    generator::generate(&GeneratorConfig {
        name: "itest-saturated".into(),
        num_users: 20_000,
        num_items: 2_000,
        num_train: 500_000,
        num_test: 25_000,
        planted_rank: 4,
        noise_std: 0.4,
        rating_min: 1.0,
        rating_max: 5.0,
        user_skew: 0.4,
        item_skew: 0.4,
        seed: 90,
    })
}

fn rig(k: usize, iterations: u32) -> HeteroConfig {
    HeteroConfig {
        hyper: HyperParams {
            k,
            lambda_p: 0.05,
            lambda_q: 0.05,
            gamma: 0.01,
            schedule: LearningRate::Fixed,
        },
        nc: 16,
        ng: 1,
        gpu: hsgd_star::gpu::GpuSpec::quadro_p4000().scaled_down(DEV_SCALE),
        cpu: CpuSpec::default().scaled_down(DEV_SCALE),
        iterations,
        seed: 5,
        dynamic_scheduling: true,
        cost_model: hsgd_star::hetero::CostModelKind::Tailored,
        probe_interval_secs: None,
        target_rmse: None,
    }
}

#[test]
fn headline_hsgd_star_beats_both_single_resource_baselines() {
    let ds = saturated_dataset();
    let cfg = rig(8, 5);
    let cpu = experiments::run(Algorithm::CpuOnly, &ds.train, &ds.test, &cfg).report;
    let gpu = experiments::run(Algorithm::GpuOnly, &ds.train, &ds.test, &cfg).report;
    let star = experiments::run(Algorithm::HsgdStar, &ds.train, &ds.test, &cfg).report;
    assert!(
        star.virtual_secs < cpu.virtual_secs,
        "HSGD* {:.4}s !< CPU-Only {:.4}s",
        star.virtual_secs,
        cpu.virtual_secs
    );
    assert!(
        star.virtual_secs < gpu.virtual_secs,
        "HSGD* {:.4}s !< GPU-Only {:.4}s",
        star.virtual_secs,
        gpu.virtual_secs
    );
    // The paper reports 1.4–2.3x over each baseline at the default rig;
    // require at least a 1.15x margin over the stronger one.
    let best_single = cpu.virtual_secs.min(gpu.virtual_secs);
    assert!(
        best_single / star.virtual_secs > 1.15,
        "speedup only {:.2}x",
        best_single / star.virtual_secs
    );
}

#[test]
fn all_variants_converge_to_similar_quality() {
    let ds = saturated_dataset();
    let cfg = rig(8, 15);
    let mut rmses = Vec::new();
    for alg in [
        Algorithm::CpuOnly,
        Algorithm::GpuOnly,
        Algorithm::HsgdStarM,
        Algorithm::HsgdStar,
    ] {
        let out = experiments::run(alg, &ds.train, &ds.test, &cfg);
        assert!(
            out.report.final_test_rmse.is_finite(),
            "{} diverged",
            alg.label()
        );
        rmses.push((alg.label(), out.report.final_test_rmse));
    }
    // Sec. VII-B: all algorithms converge to about the same loss.
    let min = rmses.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
    let max = rmses.iter().map(|r| r.1).fold(0.0, f64::max);
    assert!(
        max / min < 1.15,
        "converged losses too far apart: {rmses:?}"
    );
    // And near the generator's noise floor.
    assert!(max < 1.8 * 0.4, "rmse {max:.3} far above the noise floor");
}

#[test]
fn hsgd_trains_worse_per_time_than_hsgd_star() {
    // Fig. 13: at HSGD*'s finishing time, HSGD sits at a higher RMSE.
    let ds = saturated_dataset();
    let cfg = rig(8, 6);
    let hsgd = experiments::run(Algorithm::Hsgd, &ds.train, &ds.test, &cfg).report;
    let star = experiments::run(Algorithm::HsgdStar, &ds.train, &ds.test, &cfg).report;

    let rmse_at = |series: &[(f64, f64)], t: f64| {
        series
            .iter()
            .take_while(|&&(ts, _)| ts <= t)
            .last()
            .map(|&(_, r)| r)
            .unwrap_or(f64::INFINITY)
    };
    let t = star.virtual_secs;
    let hsgd_rmse = rmse_at(&hsgd.rmse_series, t);
    let star_rmse = star.final_test_rmse;
    assert!(
        star_rmse <= hsgd_rmse + 1e-9,
        "at t={t:.4}s: HSGD* {star_rmse:.4} vs HSGD {hsgd_rmse:.4}"
    );
    // And the imbalance gap (Example 3) is wide.
    assert!(hsgd.imbalance().cv > 3.0 * star.imbalance().cv);
}

#[test]
fn time_to_target_protocol_matches_sec_vii() {
    // The Sec. VII-A protocol: stop when test RMSE reaches a predefined
    // value; HSGD* reaches it no later than CPU-Only.
    let ds = saturated_dataset();
    let mut cfg = rig(8, 40);
    cfg.target_rmse = Some(0.60);
    let cpu = experiments::run(Algorithm::CpuOnly, &ds.train, &ds.test, &cfg).report;
    let star = experiments::run(Algorithm::HsgdStar, &ds.train, &ds.test, &cfg).report;
    let t_cpu = cpu.time_to_target_secs.expect("CPU-Only reaches target");
    let t_star = star.time_to_target_secs.expect("HSGD* reaches target");
    assert!(
        t_star < t_cpu,
        "time-to-target: HSGD* {t_star:.4}s !< CPU-Only {t_cpu:.4}s"
    );
}

#[test]
fn presets_train_end_to_end_on_all_four_datasets() {
    // Smoke-level Fig. 12: every Table I stand-in trains without
    // divergence and improves on its starting RMSE under HSGD*.
    for name in PresetName::all() {
        let scale = match name {
            PresetName::Netflix => 500,
            _ => 1000,
        };
        let p = preset(name, scale, 3);
        let ds = p.build();
        let mut cfg = rig(8, 4);
        cfg.gpu = hsgd_star::gpu::GpuSpec::quadro_p4000().scaled_down(scale as f64);
        cfg.cpu = CpuSpec::default().scaled_down(scale as f64);
        cfg.hyper.lambda_p = p.lambda_p;
        cfg.hyper.lambda_q = p.lambda_q;
        cfg.hyper.gamma = p.gamma;
        cfg.nc = 8;
        let out = experiments::run(Algorithm::HsgdStar, &ds.train, &ds.test, &cfg);
        let first = out.report.rmse_series.first().unwrap().1;
        let last = out.report.final_test_rmse;
        assert!(last.is_finite(), "{name:?} diverged");
        assert!(last < first, "{name:?}: {first:.3} -> {last:.3}");
    }
}

#[test]
fn single_resource_trainers_agree_with_hetero_quality() {
    // CPU-Only on free-running real threads and the virtual-time
    // pipeline train to comparable quality on the same data.
    let ds = generator::generate(&GeneratorConfig {
        name: "itest-small".into(),
        num_users: 400,
        num_items: 300,
        num_train: 20_000,
        num_test: 2_000,
        planted_rank: 4,
        noise_std: 0.3,
        rating_min: 1.0,
        rating_max: 5.0,
        user_skew: 0.5,
        item_skew: 0.5,
        seed: 17,
    });
    let hyper = HyperParams {
        k: 8,
        lambda_p: 0.02,
        lambda_q: 0.02,
        gamma: 0.02,
        schedule: LearningRate::Fixed,
    };
    let mut cfg = rig(8, 25);
    cfg.hyper = hyper;
    cfg.nc = 4;
    let cpu = run_training_real(
        &ds.train,
        &ds.test,
        UniformScheduler::new(GridSpec::uniform(400, 300, 5, 4), 25, true),
        DevicePool {
            cpu_workers: 4,
            gpus: vec![],
            gpu_start: vec![],
        },
        &cfg,
        ExecMode::Relaxed,
        None,
        "CPU-Only/real",
    );
    let hetero = experiments::run(Algorithm::HsgdStar, &ds.train, &ds.test, &cfg);
    let rmse_cpu = cpu.report.final_test_rmse;
    let rmse_hetero = hetero.report.final_test_rmse;
    // Free-running workers' trajectory depends on OS scheduling: on an
    // oversubscribed host the final RMSE drifts by a few hundredths
    // (observed 0.36–0.45 against 0.373 from the deterministic
    // virtual-time pipeline). Allow that jitter, and separately pin both
    // trainers near the generator's noise floor so a genuinely broken
    // trainer still fails.
    assert!(
        (rmse_cpu - rmse_hetero).abs() < 0.15,
        "CPU-Only {rmse_cpu:.3} vs hetero {rmse_hetero:.3}"
    );
    let ceiling = 1.8 * ds.noise_std as f64;
    assert!(
        rmse_cpu < ceiling && rmse_hetero < ceiling,
        "quality far above the noise floor: CPU-Only {rmse_cpu:.3}, hetero {rmse_hetero:.3}"
    );
}
