//! The benchmark's vocabulary — workload and metric names, units — and
//! the per-run [`Report`] every workload fills in. `BENCHMARK.json`
//! repeats these names with direction and bound; `tests/smoke.rs` keeps
//! the two in step.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::stats::{summarize, Better, Summary};

/// A metric's name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// `[A-Za-z0-9_.-]+`; per-layer names are `<layer>.<metric>`.
    pub name: &'static str,
    /// Unit, as printed beside every value.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// The six workloads, in suite order.
pub const WORKLOADS: [&str; 6] = [
    "train_ram",
    "train_spill",
    "serve_zipf",
    "serve_uniform",
    "live_loop",
    "sim_paper",
];

/// End-to-end metrics: what a user of the system sees, measured with
/// tracing off. Every workload reports every one (the README maps each
/// to the workload's own figure), so they are named by role.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("job_s", "s"),
    m("wait_ms", "ms"),
    m("rate_per_s", "1/s"),
];

/// Per-layer metrics, from the traced run and the isolated replays. A
/// layer a workload never enters reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    // The workload's own end-to-end figures under their specific names
    // (always taken from the untraced pass).
    m("e2e.pipeline_s", "s"),
    m("e2e.time_to_rmse_s", "s"),
    m("e2e.train_ratings_per_s", "ratings/s"),
    m("e2e.final_rmse", "RMSE"),
    m("e2e.spill_slowdown", "ratio"),
    m("e2e.serve_p99_ms_r2000", "ms"),
    m("e2e.serve_p50_ms_r8000", "ms"),
    m("e2e.serve_p99_ms_r8000", "ms"),
    m("e2e.serve_slo_qps", "q/s"),
    m("e2e.serve_capacity_qps", "q/s"),
    m("e2e.live_epoch_ms", "ms"),
    m("e2e.live_read_qps", "q/s"),
    m("e2e.recover_ms", "ms"),
    m("e2e.sim_virtual_s", "virtual_s"),
    m("e2e.sim_host_s", "s"),
    m("trace.overhead_frac", "ratio"),
    m("trace.cover_frac", "ratio"),
    m("machine.nproc", "count"),
    m("machine.simd_f32_lanes", "count"),
    m("machine.l2_bytes", "bytes"),
    m("machine.llc_bytes", "bytes"),
    m("machine.stream_triad_gbs", "GB/s"),
    m("machine.triad_array_bytes", "bytes"),
    m("mf-data.generate_s", "s"),
    m("mf-sparse.io.read_text_s", "s"),
    m("mf-sparse.io.parse_mentries_per_s", "M/s"),
    m("mf-sparse.io.text_bytes", "bytes"),
    m("mf-sparse.shuffle.preprocess_pair_s", "s"),
    m("hsgd-core.experiments.star_setup_s", "s"),
    m("hsgd-core.experiments.alpha_realized", "ratio"),
    m("mf-sparse.grid.build_s", "s"),
    m("mf-sparse.grid.build_mentries_per_s", "M/s"),
    m("mf-sparse.grid.blocks", "count"),
    m("mf-sgd.kernel.epoch_s", "s"),
    m("mf-sgd.kernel.gflops", "GFLOP/s"),
    m("mf-sgd.kernel.bytes_per_update_computed", "bytes"),
    m("mf-sgd.kernel.pct_stream_bw", "%"),
    m("hsgd-core.scheduler.next_task_ns", "ns"),
    m("hsgd-core.scheduler.epoch_s", "s"),
    m("hsgd-core.scheduler.steals", "count"),
    m("hsgd-core.scheduler.update_count_cv", "ratio"),
    m("hsgd-core.runtime.train_wall_s", "s"),
    m("hsgd-core.runtime.cpu_busy_s", "s"),
    m("hsgd-core.runtime.gpu_busy_s", "s"),
    m("hsgd-core.runtime.gpu_share", "ratio"),
    m("hsgd-core.runtime.idle_frac", "ratio"),
    m("hsgd-core.runtime.epochs_to_target", "count"),
    m("hsgd-core.runtime.sync_overhead_frac", "ratio"),
    m("hsgd-core.runtime.relaxed_ratings_per_s", "ratings/s"),
    m("hsgd-core.runtime.relaxed_ratings_per_s_iqr", "ratings/s"),
    m("mf-sgd.eval.rmse_s", "s"),
    m("mf-serve.checkpoint.save_s", "s"),
    m("mf-serve.checkpoint.load_s", "s"),
    m("mf-serve.checkpoint.bytes", "bytes"),
    m("mf-serve.store.build_s", "s"),
    m("mf-serve.store.cache_hit_rate", "ratio"),
    m("mf-serve.store.serve_one_us", "us"),
    m("mf-sparse.arena.write_s", "s"),
    m("mf-sparse.arena.write_mbs", "MB/s"),
    m("mf-sparse.arena.bytes", "bytes"),
    m("mf-sparse.cache.hit_rate", "ratio"),
    m("mf-sparse.cache.evictions", "count"),
    m("mf-sparse.cache.bytes_read", "bytes"),
    m("mf-sparse.cache.load_s", "s"),
    m("hsgd-core.spill.io_overlap_inferred", "ratio"),
    m("mf-serve.sched.queue_wait_ms_p50", "ms"),
    m("mf-serve.sched.queue_wait_ms_p99", "ms"),
    m("mf-serve.sched.mean_batch", "count"),
    m("mf-serve.sched.batches", "count"),
    m("mf-serve.sched.target_final", "count"),
    m("mf-serve.sched.generator_lateness_ms", "ms"),
    m("mf-serve.batch.plan_build_us_per_query", "us"),
    m("mf-serve.batch.unique_frac", "ratio"),
    m("mf-serve.batch.sweep_us_per_unique_query", "us"),
    m("mf-sgd.sweep.dot_panel_gflops", "GFLOP/s"),
    m("mf-sgd.sweep.bytes_per_query_tile_computed", "bytes"),
    m("mf-par.threads", "count"),
    m("mf-par.run_indexed_empty_us", "us"),
    m("mf-serve.live.step_ms_delta_p50", "ms"),
    m("mf-serve.live.step_ms_snapshot_p50", "ms"),
    m("mf-serve.live.step_ms_p99", "ms"),
    m("mf-serve.live.swap_us_p99", "us"),
    m("mf-serve.live.lag_p99", "epochs"),
    m("mf-serve.delta.bytes_per_epoch", "bytes"),
    m("mf-serve.delta.write_mbs", "MB/s"),
    m("mf-serve.delta.recover_mbs", "MB/s"),
    m("mf-serve.delta.recover_cold_ms", "ms"),
    m("mf-serve.delta.files_classified", "count"),
    m("mf-serve.foldin.folded_rows", "count"),
    m("mf-serve.foldin.new_user_us", "us"),
    m("hsgd-core.trainer.virtual_s_cpu_only", "virtual_s"),
    m("hsgd-core.trainer.virtual_s_gpu_only", "virtual_s"),
    m("hsgd-core.trainer.virtual_s_hsgd", "virtual_s"),
    m("hsgd-core.trainer.virtual_s_hsgd_star_q", "virtual_s"),
    m("hsgd-core.trainer.virtual_s_hsgd_star_m", "virtual_s"),
    m("hsgd-core.trainer.virtual_s_hsgd_star", "virtual_s"),
    m("hsgd-core.trainer.speedup_vs_cpu_only", "ratio"),
    m("hsgd-core.trainer.speedup_vs_gpu_only", "ratio"),
    m("hsgd-core.trainer.steals", "count"),
    m("hsgd-core.trainer.total_passes", "count"),
    m("gpu-sim.gpu_share", "ratio"),
    m("mf-cost.alpha_planned", "ratio"),
    m("mf-des.host_us_per_pass", "us"),
];

fn lookup(name: &str) -> Option<MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .copied()
}

/// Everything one workload run reports.
#[derive(Debug)]
pub struct Report {
    /// The workload's name.
    pub workload: &'static str,
    /// Operations attempted (queries, epochs, repetitions).
    pub attempted: u64,
    /// Operations that failed (unanswered, wrong, late, unacked).
    pub failed: u64,
    /// Failed correctness checks; non-empty means the run is wrong.
    pub problems: Vec<String>,
    values: BTreeMap<&'static str, f64>,
    noise: BTreeMap<&'static str, Summary>,
    /// Sizes and observations for the human-readable header.
    pub notes: Vec<String>,
}

impl Report {
    /// An empty report for `workload`.
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            values: BTreeMap::new(),
            noise: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    /// Records a metric value.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not declared in [`END_TO_END`] or
    /// [`PER_LAYER`] — an undeclared metric is a bug in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(lookup(name).is_some(), "undeclared metric {name}");
        if !value.is_finite() {
            self.problems
                .push(format!("metric {name} is not finite ({value})"));
        }
        self.values.insert(name, value);
    }

    /// Records a repeated measurement: its best sample is the value
    /// (see [`crate::stats`] for why), the noise is printed beside it.
    /// Returns the value.
    pub fn set_samples(&mut self, name: &'static str, samples: &[f64], better: Better) -> f64 {
        let s = summarize(samples);
        self.set(name, s.best(better));
        self.noise.insert(name, s);
        s.best(better)
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts `n` attempted operations of which `bad` failed.
    pub fn count(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// A correctness check: when `ok` is false the run is reported
    /// wrong, one operation is counted failed, and `what` says why.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// A line for the human-readable report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// `{"name": {"value": v, "unit": u}, …}` over `defs`. A per-layer
    /// metric this workload never set reads 0; a missing end-to-end
    /// metric is a failed check.
    fn metrics_json(&mut self, defs: &[MetricDef], required: bool) -> Json {
        let mut out = Vec::with_capacity(defs.len());
        for d in defs {
            let value = self.values.get(d.name).copied();
            if required && value.is_none() {
                self.problems
                    .push(format!("end-to-end metric {} was not measured", d.name));
            }
            out.push((
                d.name.to_string(),
                Json::obj([
                    ("value", Json::Num(value.unwrap_or(0.0))),
                    ("unit", Json::str(d.unit)),
                ]),
            ));
        }
        Json::Obj(out)
    }

    /// The result object the contract asks for on the last stdout line:
    /// end-to-end metrics for an untraced run, per-layer for a traced one.
    pub fn result_json(&mut self, traced: bool) -> Json {
        let metrics = if traced {
            self.metrics_json(PER_LAYER, false)
        } else {
            self.metrics_json(END_TO_END, true)
        };
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted.max(1))),
            ("failed", Json::Int(self.failed)),
            ("metrics", metrics),
        ])
    }

    /// Everything recorded, for `--out`: the result keys plus every
    /// metric set in this run (end-to-end and per-layer alike) with its
    /// unit and, where it was repeated, its noise.
    pub fn full_json(&self) -> Json {
        let metrics = END_TO_END.iter().chain(PER_LAYER).filter_map(|d| {
            let value = *self.values.get(d.name)?;
            let mut fields = vec![
                ("value".to_string(), Json::Num(value)),
                ("unit".to_string(), Json::str(d.unit)),
            ];
            if let Some(s) = self.noise.get(d.name) {
                for (k, v) in [
                    ("median", s.median),
                    ("q1", s.q1),
                    ("q3", s.q3),
                    ("min", s.min),
                    ("max", s.max),
                ] {
                    fields.push((k.to_string(), Json::Num(v)));
                }
                fields.push(("n".to_string(), Json::Int(s.n as u64)));
            }
            Some((d.name.to_string(), Json::Obj(fields)))
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted.max(1))),
            ("failed", Json::Int(self.failed)),
            ("metrics", Json::Obj(metrics.collect())),
        ])
    }

    /// Every recorded metric by name with its unit (and its noise where
    /// it was repeated), one per line, declared order.
    pub fn lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            if let Some(v) = self.values.get(d.name) {
                out.push(match self.noise.get(d.name) {
                    Some(s) => format!("{} = {} [{}] ({})", d.name, v, d.unit, s),
                    None => format!("{} = {} [{}]", d.name, v, d.unit),
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_well_formed_and_within_the_caps() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .copied()
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|d| d.name))
        {
            assert!(seen.insert(name), "duplicate name {name}");
            assert!(name.len() <= 64, "{name} too long");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
        }
        assert!(WORKLOADS.len() <= 8 && END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(d.unit.len() <= 16, "{} unit too long", d.name);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn missing_end_to_end_metric_fails_the_run() {
        let mut r = Report::new("train_ram");
        r.set("setup_s", 0.5);
        let json = r.result_json(false).to_string();
        assert!(json.starts_with("{\"correct\": false"));
        assert!(!r.correct());
    }
}
