//! `sim_paper`: the discrete-event world. The paper's figures live in
//! virtual time, which repeats exactly — so every simulated number is a
//! count-like metric (any scheduler / cost-model / layout / device
//! change that alters simulated behaviour shows to the last digit),
//! while host seconds per pass measure the simulator itself.

use std::time::Instant;

use hsgd_core::experiments;
use hsgd_core::{Algorithm, CostModelKind, CpuSpec, HeteroConfig, TrainOutcome};
use mf_data::{preset, PresetName};
use mf_sgd::{HyperParams, LearningRate};
use mf_sparse::hash::Xxh64;
use mf_sparse::SparseMatrix;

use crate::machine;
use crate::metrics::Report;
use crate::stats::{fastest, Better};
use crate::trace::Tracer;
use crate::workload::{Opts, Size, Workload};

/// The six algorithms of the paper's evaluation, with the span and
/// metric each reports under.
const ALGORITHMS: [(Algorithm, &str, &str); 6] = [
    (
        Algorithm::CpuOnly,
        "hsgd-core.trainer.run_cpu_only",
        "hsgd-core.trainer.virtual_s_cpu_only",
    ),
    (
        Algorithm::GpuOnly,
        "hsgd-core.trainer.run_gpu_only",
        "hsgd-core.trainer.virtual_s_gpu_only",
    ),
    (
        Algorithm::Hsgd,
        "hsgd-core.trainer.run_hsgd",
        "hsgd-core.trainer.virtual_s_hsgd",
    ),
    (
        Algorithm::HsgdStarQ,
        "hsgd-core.trainer.run_hsgd_star_q",
        "hsgd-core.trainer.virtual_s_hsgd_star_q",
    ),
    (
        Algorithm::HsgdStarM,
        "hsgd-core.trainer.run_hsgd_star_m",
        "hsgd-core.trainer.virtual_s_hsgd_star_m",
    ),
    (
        Algorithm::HsgdStar,
        "hsgd-core.trainer.run_hsgd_star",
        "hsgd-core.trainer.virtual_s_hsgd_star",
    ),
];
/// Index of HSGD\* in [`ALGORITHMS`].
const STAR: usize = 5;

/// The DES workload.
pub struct SimPaper;

/// Inputs of `sim_paper`.
pub struct SimInputs {
    train: SparseMatrix,
    test: SparseMatrix,
    cfg: HeteroConfig,
    min_passes: usize,
}

/// What one simulated run reported, reduced to what is compared.
#[derive(Debug, Clone, PartialEq)]
struct SimResult {
    virtual_s: f64,
    final_rmse: f64,
    steals: u64,
    total_passes: u64,
    gpu_share: f64,
    alpha_planned: f64,
    /// XXH64 over every reported number and the factor bits.
    digest: u64,
}

fn result_of(out: &TrainOutcome) -> SimResult {
    let r = &out.report;
    let mut h = Xxh64::new(0);
    for x in [
        r.virtual_secs,
        r.final_test_rmse,
        r.cpu_busy_secs,
        r.gpu_busy_secs,
    ] {
        h.update(&x.to_bits().to_le_bytes());
    }
    for x in [r.steals, r.total_passes, r.cpu_points, r.gpu_points] {
        h.update(&x.to_le_bytes());
    }
    for c in &r.update_counts {
        h.update(&c.to_le_bytes());
    }
    for &(t, e) in &r.rmse_series {
        h.update(&t.to_bits().to_le_bytes());
        h.update(&e.to_bits().to_le_bytes());
    }
    for x in out.model.p_raw().iter().chain(out.model.q_raw()) {
        h.update(&x.to_le_bytes());
    }
    SimResult {
        virtual_s: r.virtual_secs,
        final_rmse: r.final_test_rmse,
        steals: r.steals,
        total_passes: r.total_passes,
        gpu_share: r.gpu_share(),
        alpha_planned: r.alpha_planned.unwrap_or(0.0),
        digest: h.digest(),
    }
}

/// One pass: all six algorithms.
struct Pass {
    host_s: f64,
    results: Vec<SimResult>,
}

/// One measuring pass of `sim_paper`.
pub struct SimRun {
    passes: Vec<Pass>,
}

impl Workload for SimPaper {
    type Inputs = SimInputs;
    type Run = SimRun;

    fn name(&self) -> &'static str {
        "sim_paper"
    }

    fn setup(&self, opts: &Opts, report: &mut Report) -> SimInputs {
        // The Netflix row of Table I at 1/scale, devices scaled with it
        // (the experiment binaries' convention).
        let (scale, iterations, min_passes) = match opts.size {
            Size::Full => (100, 10, 2),
            Size::Smoke => (4_000, 4, 2),
        };
        let p = preset(PresetName::Netflix, scale, opts.seed);
        let ds = p.build();
        let cfg = HeteroConfig {
            hyper: HyperParams {
                k: 16,
                lambda_p: p.lambda_p,
                lambda_q: p.lambda_q,
                gamma: p.gamma,
                schedule: LearningRate::Fixed,
            },
            nc: 16,
            ng: 1,
            gpu: gpu_sim::GpuSpec::quadro_p4000().scaled_down(scale as f64),
            cpu: CpuSpec::default().scaled_down(scale as f64),
            iterations,
            seed: opts.seed,
            dynamic_scheduling: true,
            cost_model: CostModelKind::Tailored,
            probe_interval_secs: None,
            target_rmse: None,
        };
        report.note(format!(
            "Netflix preset at 1/{scale}: {} users x {} items, {} train ratings, k = 16, \
             nc = 16, ng = 1, {iterations} iterations, six algorithms per pass",
            ds.train.nrows(),
            ds.train.ncols(),
            ds.train.nnz()
        ));
        SimInputs {
            train: ds.train,
            test: ds.test,
            cfg,
            min_passes,
        }
    }

    fn measure(
        &self,
        inp: &SimInputs,
        opts: &Opts,
        tr: &mut Tracer,
        report: &mut Report,
    ) -> SimRun {
        let start = Instant::now();
        let mut passes: Vec<Pass> = Vec::new();
        while passes.len() < inp.min_passes || start.elapsed().as_secs_f64() < opts.seconds {
            tr.set_rep(passes.len() as u32 + 1);
            let t0 = Instant::now();
            let results: Vec<SimResult> = tr.span("pass", |tr| {
                ALGORITHMS
                    .iter()
                    .map(|&(alg, span, _)| {
                        tr.span(span, |_| {
                            result_of(&experiments::run(alg, &inp.train, &inp.test, &inp.cfg))
                        })
                    })
                    .collect()
            });
            passes.push(Pass {
                host_s: t0.elapsed().as_secs_f64(),
                results,
            });
        }
        report.count((passes.len() * ALGORITHMS.len()) as u64, 0);
        for (i, pass) in passes.iter().enumerate().skip(1) {
            report.check(pass.results == passes[0].results, || {
                format!("pass {} simulated differently from pass 1", i + 1)
            });
        }
        report.check(
            passes[0].results.iter().all(|r| r.final_rmse.is_finite()),
            || "a simulated run ended with a non-finite RMSE".into(),
        );
        SimRun { passes }
    }

    fn end_to_end(&self, run: &SimRun, report: &mut Report) {
        let host: Vec<f64> = run.passes.iter().map(|p| p.host_s).collect();
        let results = &run.passes[0].results;
        let star = &results[STAR];
        let block_passes: u64 = results.iter().map(|r| r.total_passes).sum();
        report.set("e2e.sim_virtual_s", star.virtual_s);
        let host_s = report.set_samples("e2e.sim_host_s", &host, Better::Lower);
        report.set("e2e.final_rmse", star.final_rmse);
        report.set("job_s", host_s);
        report.set("wait_ms", star.virtual_s * 1e3);
        report.set("rate_per_s", block_passes as f64 / host_s);
    }

    fn layers(
        &self,
        _inp: &SimInputs,
        traced: &SimRun,
        tr: &Tracer,
        _opts: &Opts,
        report: &mut Report,
    ) {
        let results = &traced.passes[0].results;
        for (&(_, _, metric), r) in ALGORITHMS.iter().zip(results) {
            report.set(metric, r.virtual_s);
        }
        let star = &results[STAR];
        report.set(
            "hsgd-core.trainer.speedup_vs_cpu_only",
            results[0].virtual_s / star.virtual_s,
        );
        report.set(
            "hsgd-core.trainer.speedup_vs_gpu_only",
            results[1].virtual_s / star.virtual_s,
        );
        report.set("hsgd-core.trainer.steals", star.steals as f64);
        let block_passes: u64 = results.iter().map(|r| r.total_passes).sum();
        report.set("hsgd-core.trainer.total_passes", block_passes as f64);
        report.set("gpu-sim.gpu_share", star.gpu_share);
        report.set("mf-cost.alpha_planned", star.alpha_planned);
        let host: Vec<f64> = traced.passes.iter().map(|p| p.host_s).collect();
        report.set(
            "mf-des.host_us_per_pass",
            fastest(&host) * 1e6 / block_passes as f64,
        );
        report.set("trace.cover_frac", tr.child_cover("pass"));
        machine::host().report(report);
    }

    fn rep_secs(&self, run: &SimRun) -> f64 {
        fastest(&run.passes.iter().map(|p| p.host_s).collect::<Vec<_>>())
    }
}
