//! `repro` — the paper's evaluation (Sec. VII): every figure and table,
//! and a check of each claim this reproduction upholds.
//!
//! `repro [--quick] [NAME…]` runs the named results of [`FIGURES`] (all
//! of them, in paper order, when none is named), printing the rows the
//! paper plots and then one `claim` line per checked claim. A failed
//! claim names its figure and makes `repro` exit 1; an unknown argument
//! prints the usage and exits 2.
//!
//! Datasets are the Table I stand-ins at `1/scale` size, each built once
//! per run, with the devices' knees and latencies scaled by the same
//! factor (`GpuSpec::scaled_down`) so blocks land on the same region of
//! every performance curve as at full scale. `--quick` shrinks them a
//! further tenfold. Everything runs in virtual time, so the output
//! repeats byte for byte.

use std::collections::HashMap;
use std::rc::Rc;

use gpu_sim::{GpuDevice, GpuSpec, PcieBus};
use hsgd_core::{calibration, experiments, Algorithm, CpuSpec, HeteroConfig, RunReport};
use mf_cost::models::CostModel;
use mf_data::{preset, Dataset, DatasetPreset, PresetName};
use mf_sgd::{HyperParams, LearningRate};

/// Master seed.
const SEED: u64 = 42;
/// Latent dimension. The paper uses 128; a larger `k` changes wall-clock
/// cost, not the scheduling behaviour under study.
const K: usize = 16;
/// Training iterations, matching Table II's protocol.
const ITERS: u32 = 20;
/// CPU worker threads (paper default).
const NC: usize = 16;
/// GPU count (paper default).
const NG: usize = 1;
/// GPU parallel workers (paper default).
const WORKERS: u32 = 128;

/// A figure or table: prints its rows and records its claims.
type Figure = fn(&mut Repro);

/// Every figure and table, in paper order, by its command-line name.
const FIGURES: [(&str, Figure); 12] = [
    ("table1", table1),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig6", fig6),
    ("fig7", fig7),
    ("table2", table2),
    ("table3", table3),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("ablation", ablation),
];

fn main() {
    let mut r = Repro::default();
    let mut names = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => r.quick = true,
            name if FIGURES.iter().any(|&(n, _)| n == name) => names.push(arg),
            _ => {
                let all: Vec<&str> = FIGURES.iter().map(|&(n, _)| n).collect();
                eprintln!("usage: repro [--quick] [NAME…]\nNAME: {}", all.join(" "));
                std::process::exit(if arg == "--help" { 0 } else { 2 });
            }
        }
    }
    let mut failed = Vec::new();
    for (name, run) in FIGURES {
        if !names.is_empty() && !names.iter().any(|n| n == name) {
            continue;
        }
        run(&mut r);
        for (holds, claim) in r.claims.drain(..) {
            let line = format!("[{name}] {claim}");
            let tag = if holds { "claim ok:" } else { "CLAIM FAILED:" };
            println!("{tag} {line}");
            if !holds {
                failed.push(line);
            }
        }
    }
    if !failed.is_empty() {
        eprintln!("repro: {} claim(s) failed:", failed.len());
        failed.iter().for_each(|line| eprintln!("  {line}"));
        std::process::exit(1);
    }
}

/// A preset's stand-in dataset at this run's scale, with the paper's
/// default rig for it.
struct Data {
    scale: u64,
    preset: DatasetPreset,
    dataset: Dataset,
    rig: HeteroConfig,
}

impl Data {
    /// Runs one algorithm on this dataset under `cfg`.
    fn run(&self, alg: Algorithm, cfg: &HeteroConfig) -> RunReport {
        experiments::run(alg, &self.dataset.train, &self.dataset.test, cfg).report
    }
}

/// One invocation: the scale, the datasets built so far, and the claims
/// the running figure has checked, as `(holds, claim with its numbers)`.
#[derive(Default)]
struct Repro {
    quick: bool,
    datasets: HashMap<PresetName, Rc<Data>>,
    claims: Vec<(bool, String)>,
}

impl Repro {
    /// The preset's dataset, built on first use.
    fn data(&mut self, name: PresetName) -> Rc<Data> {
        let scale = scale_for(name, self.quick);
        let build = || {
            let preset = preset(name, scale, SEED);
            let (dataset, rig) = (preset.build(), rig(&preset, scale));
            Rc::new(Data {
                scale,
                preset,
                dataset,
                rig,
            })
        };
        self.datasets.entry(name).or_insert_with(build).clone()
    }

    /// Records one claim of the running figure, printed after its rows;
    /// `detail` carries the measured numbers behind it.
    fn claim(&mut self, holds: bool, claim: &str, detail: String) {
        self.claims.push((holds, format!("{claim} ({detail})")));
    }
}

/// The default dataset scale for a preset: small enough to run in
/// seconds, large enough that the item dimension dwarfs the grid's
/// column bands.
fn scale_for(name: PresetName, quick: bool) -> u64 {
    let base = match name {
        PresetName::Netflix => 50,
        PresetName::MovieLens | PresetName::R1 | PresetName::YahooMusic => 100,
    };
    base * if quick { 10 } else { 1 }
}

/// The paper's default rig for a dataset at `scale`: device knees and
/// latencies scaled with the data.
fn rig(p: &DatasetPreset, scale: u64) -> HeteroConfig {
    HeteroConfig {
        hyper: HyperParams {
            k: K,
            lambda_p: p.lambda_p,
            lambda_q: p.lambda_q,
            gamma: p.gamma,
            schedule: LearningRate::Fixed,
        },
        nc: NC,
        ng: NG,
        gpu: GpuSpec::quadro_p4000()
            .with_workers(WORKERS)
            .scaled_down(scale as f64),
        cpu: CpuSpec::default().scaled_down(scale as f64),
        iterations: ITERS,
        seed: SEED,
        dynamic_scheduling: true,
        cost_model: hsgd_core::CostModelKind::Tailored,
        probe_interval_secs: None,
        target_rmse: None,
    }
}

/// Table I — dataset statistics and parameter settings: the stand-ins at
/// this run's scale beside the paper's full-scale shapes, so every other
/// experiment's inputs are auditable.
fn table1(r: &mut Repro) {
    let mut rows = Vec::new();
    let mut full = Vec::new();
    for name in PresetName::all() {
        let d = r.data(name);
        let (g, ds) = (&d.preset.generator, &d.dataset);
        let (lo, hi) = ds.train.rating_range().unwrap_or((0.0, 0.0));
        rows.push(vec![
            name.label().to_string(),
            format!("1/{}", d.scale),
            g.num_users.to_string(),
            g.num_items.to_string(),
            ds.train.nnz().to_string(),
            ds.test.nnz().to_string(),
            d.preset.k.to_string(),
            d.preset.lambda_p.to_string(),
            d.preset.gamma.to_string(),
            format!("[{lo:.0},{hi:.0}]"),
            format!("{:.2}", g.noise_std),
        ]);
        let g = preset(name, 1, SEED).generator;
        let (m, n, train, test) = (g.num_users, g.num_items, g.num_train, g.num_test);
        full.push(vec![
            name.label().to_string(),
            m.to_string(),
            n.to_string(),
            train.to_string(),
            test.to_string(),
        ]);
    }
    print_table(
        "Table I — network statistics and parameter settings (synthetic stand-ins)",
        &[
            "dataset", "scale", "m", "n", "#train", "#test", "k", "lambda", "gamma", "range",
            "noise",
        ],
        &rows,
    );
    print_table(
        "Paper's full-scale Table I (reference)",
        &["dataset", "m", "n", "#train", "#test"],
        &full,
    );
}

/// `n` block sizes, in points, in steps of `step` times the full-scale
/// GPU's knee (`kernel_half_size`).
fn block_sizes(n: u32, step: f64) -> impl Iterator<Item = f64> {
    let half = GpuSpec::quadro_p4000().kernel_half_size;
    (1..=n).map(move |i| half * step * i as f64)
}

/// The speed `secs` gives each block size, as `(k points, M points/s)`.
fn speed_curve(sizes: impl Iterator<Item = f64>, secs: impl Fn(f64) -> f64) -> Vec<(f64, f64)> {
    sizes.map(|p| (p / 1e3, p / secs(p) / 1e6)).collect()
}

/// Figure 3 — processing speed of GPUs and CPUs on blocks of different
/// sizes, from the calibrated device models at full scale: GPU speed
/// rises with block size, then saturates (Observation 1); CPU speed is
/// flat (Observation 2).
fn fig3(r: &mut Repro) {
    let gpu = GpuDevice::new(GpuSpec::quadro_p4000().with_workers(WORKERS));
    let cpu = CpuSpec::default();
    // (a) The paper's 500k..2.5M points on a 400k-knee device, as the
    // same knee-relative sweep; (b) its CPU axis, 100k..400k points.
    let g = speed_curve(block_sizes(20, 0.3125), |p| {
        gpu.kernel_model().time_for(p as u64).as_secs()
    });
    let c = speed_curve(block_sizes(16, 0.25), |p| cpu.time_secs(p as usize));
    let (x, y) = ("block size (k points)", "speed (M pts/s)");
    print_series(
        "Fig. 3(a) GPU update speed vs block size (Observation 1)",
        x,
        y,
        &g,
    );
    let title = "Fig. 3(b) CPU (single thread) update speed vs block size (Observation 2)";
    print_series(title, x, y, &c);
    let sat = gpu.kernel_model().saturated_throughput() / 1e6;
    println!("\nGPU saturated speed: {sat:.1} M pts/s at {WORKERS} workers");
    let flat = cpu.updates_per_sec / 1e6;
    println!("CPU flat speed:      {flat:.1} M pts/s per thread");

    let rises = g.windows(2).all(|w| w[1].1 > w[0].1);
    let detail = format!("{:.3} → {:.3} M pts/s", g[0].1, g[g.len() - 1].1);
    r.claim(rises, "GPU speed rises strictly with block size", detail);
    let lo = c.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
    let hi = c.iter().map(|p| p.1).fold(0.0, f64::max);
    let spread = hi / lo - 1.0;
    let detail = format!("spread {:.4} %", spread * 100.0);
    r.claim(spread <= 1e-3, "CPU speed is flat within 0.1 %", detail);
}

/// Checks Example 3's claim for one dataset: HSGD\*'s per-block
/// update-count cv stays below a third of HSGD's.
fn claim_level_counts(r: &mut Repro, name: PresetName, hsgd: &RunReport, star: &RunReport) {
    let (h, s) = (hsgd.imbalance().cv, star.imbalance().cv);
    let detail = format!("{}: {s:.3} vs {h:.3}", name.label());
    r.claim(s < h / 3.0, "HSGD* update-count cv < 1/3 of HSGD's", detail);
}

/// Figure 4 / Example 3 — the update-count imbalance of the
/// straightforward HSGD versus HSGD\*: HSGD's least-count policy lets
/// the much faster GPU spin on whatever blocks are free, so per-block
/// counts skew; HSGD\*'s region discipline keeps them within the soft
/// cap's slack. Printed: distribution statistics plus a coarse heat map
/// of the HSGD grid (the darker cells of the paper's Fig. 4).
fn fig4(r: &mut Repro) {
    let name = PresetName::MovieLens;
    let d = r.data(name);
    let hsgd = d.run(Algorithm::Hsgd, &d.rig);
    let star = d.run(Algorithm::HsgdStar, &d.rig);
    let mut rows = Vec::new();
    for (alg, out) in [(Algorithm::Hsgd, &hsgd), (Algorithm::HsgdStar, &star)] {
        let s = out.imbalance();
        rows.push(vec![
            alg.label().to_string(),
            s.min.to_string(),
            s.max.to_string(),
            format!("{:.2}", s.mean),
            format!("{:.2}", s.std),
            format!("{:.3}", s.cv),
            format!("{:.3}", s.gini),
        ]);
    }
    print_table(
        "Fig. 4 / Example 3 — per-block update-count distribution",
        &["algorithm", "min", "max", "mean", "std", "cv", "gini"],
        &rows,
    );

    // Coarse heat map of the HSGD grid (rows × cols of Rule 1's layout).
    let counts = &hsgd.update_counts;
    let max = *counts.iter().max().unwrap_or(&1) as f64;
    println!("\nHSGD grid heat map ('.'<25% ':'<50% '+'<75% '#'>=75% of max {max}):");
    for chunk in counts.chunks(NC + NG) {
        let line: String = chunk
            .iter()
            .map(|&c| match c as f64 / max.max(1.0) {
                f if f < 0.25 => '.',
                f if f < 0.5 => ':',
                f if f < 0.75 => '+',
                _ => '#',
            })
            .collect();
        println!("  {line}");
    }
    claim_level_counts(r, name, &hsgd, &star);
}

/// Figure 6 — PCIe transfer speed vs payload size, both directions: the
/// ramp from ~2.5 GB/s at 64 KB to the ~12.5 GB/s plateau beyond 256 MB
/// is the second reason small blocks cannot use the GPU.
fn fig6(_: &mut Repro) {
    let spec = GpuSpec::quadro_p4000();
    let bus = PcieBus::new(&spec);
    for (title, link) in [
        ("Fig. 6(a) CPU→GPU transfer speed", &bus.h2d),
        ("Fig. 6(b) GPU→CPU transfer speed", &bus.d2h),
    ] {
        // The paper's axis: 64 KB to 256 MB, doubling (log-scaled x).
        let series: Vec<(f64, f64)> = (0..=12)
            .map(|i| spec.pcie_small_bytes * (1 << i) as f64)
            .map(|b| (b / 1024.0, link.speed_gbps(b)))
            .collect();
        print_series(title, "size (KiB)", "speed (GB/s)", &series);
    }
}

/// Figure 7 — kernel throughput by data size: the device's truth beside
/// the `a·log|R| + b` stage-1 model the offline calibration
/// (Algorithm 3) recovers, so Sec. V-B's fit is inspectable.
fn fig7(_: &mut Repro) {
    let gpu = GpuDevice::new(GpuSpec::quadro_p4000().with_workers(WORKERS));
    let models = calibration::calibrate(&CpuSpec::default(), &gpu, 100_000_000, 12.0, SEED);
    let rows: Vec<Vec<String>> = block_sizes(20, 0.3125)
        .map(|points| {
            let truth_secs = gpu.kernel_model().time_for(points as u64).as_secs();
            let fit_secs = models.gpu.kernel.time_secs(points);
            vec![
                format!("{:.0}", points / 1e3),
                format!("{:.2}", points / truth_secs / 1e6),
                format!("{:.2}", points / fit_secs / 1e6),
                format!("{:+.1}%", (fit_secs / truth_secs - 1.0) * 100.0),
            ]
        })
        .collect();
    print_table(
        "Fig. 7 — kernel throughput vs data size (truth vs fitted cost model)",
        &["size (k pts)", "truth (M/s)", "fitted (M/s)", "time err"],
        &rows,
    );
    let tau = models.gpu.kernel.tau;
    println!("\nstage-1 family: a·ln|R|+b; fitted tau = {tau:.0} points");
}

/// Table II — workload proportions and running time of HSGD\*-Q
/// (Qilin's linear model) vs HSGD\*-M (the paper's), both without
/// dynamic scheduling, for the same number of iterations. Checked: the
/// tailored model, respecting Observation 1, hands the GPU more work.
fn table2(r: &mut Repro) {
    let mut prop_rows = Vec::new();
    let mut time_rows = Vec::new();
    for name in PresetName::all() {
        let d = r.data(name);
        let q = d.run(Algorithm::HsgdStarQ, &d.rig);
        let m = d.run(Algorithm::HsgdStarM, &d.rig);
        let aq = q.alpha_planned.unwrap_or(0.0);
        let am = m.alpha_planned.unwrap_or(0.0);
        let pct = |x: f64| format!("{:.2}%", x * 100.0);
        prop_rows.push(vec![
            name.label().to_string(),
            pct(1.0 - aq),
            pct(aq),
            pct(1.0 - am),
            pct(am),
        ]);
        time_rows.push(vec![
            name.label().to_string(),
            fmt_secs(q.virtual_secs),
            fmt_secs(m.virtual_secs),
            format!("{:+.1}%", (m.virtual_secs / q.virtual_secs - 1.0) * 100.0),
        ]);
        let claim = "the tailored model plans a larger GPU share than Qilin's";
        r.claim(
            am > aq,
            claim,
            format!("{}: {} vs {}", name.label(), pct(am), pct(aq)),
        );
    }
    print_table(
        &format!("Table II (top) — workload proportion by cost model ({ITERS} iterations)"),
        &["dataset", "Q: C", "Q: G", "M: C", "M: G"],
        &prop_rows,
    );
    print_table(
        "Table II (bottom) — running time by cost model",
        &["dataset", "HSGD*-Q", "HSGD*-M", "M vs Q"],
        &time_rows,
    );
}

/// Table III — dynamic scheduling: HSGD\*-M (no work stealing) vs the
/// full HSGD\*. Stealing absorbs the cost model's residual error, so
/// HSGD\* never loses to HSGD\*-M.
fn table3(r: &mut Repro) {
    let mut rows = Vec::new();
    for name in PresetName::all() {
        let d = r.data(name);
        let m = d.run(Algorithm::HsgdStarM, &d.rig).virtual_secs;
        let full = d.run(Algorithm::HsgdStar, &d.rig);
        let star = full.virtual_secs;
        rows.push(vec![
            name.label().to_string(),
            fmt_secs(m),
            fmt_secs(star),
            format!("{:+.1}%", (star / m - 1.0) * 100.0),
            full.steals.to_string(),
        ]);
        let detail = format!("{}: {} vs {}", name.label(), fmt_secs(star), fmt_secs(m));
        r.claim(star <= m, "HSGD* is never slower than HSGD*-M", detail);
    }
    print_table(
        &format!("Table III — dynamic scheduling ({ITERS} iterations): HSGD*-M vs HSGD*"),
        &["dataset", "HSGD*-M", "HSGD*", "delta", "steals"],
        &rows,
    );
}

/// One Figs 10–11 sweep: a knob turned across `values`, the rest of the
/// rig at its default.
struct Sweep {
    fig: &'static str,
    /// The knob's column header and axis name.
    knob: (&'static str, &'static str),
    values: &'static [usize],
    /// The knob's value in the default rig.
    default: usize,
    /// Sets the knob in a config.
    set: fn(&mut HeteroConfig, usize),
    /// The other knob, held at its default, for the title.
    held: String,
    /// The single-resource baseline the knob speeds up.
    swept: Algorithm,
}

/// One panel of a Figs 10–11 sweep per dataset: the other baseline runs
/// once, `swept` and HSGD\* once per knob value. Checked: `swept` gets
/// strictly faster along the sweep, and at the default rig CPU + GPU
/// beat either alone on every dataset but MovieLens (where GPU-Only
/// wins).
fn time_sweep(r: &mut Repro, s: Sweep) {
    let (header, axis) = s.knob;
    let fixed = match s.swept {
        Algorithm::CpuOnly => Algorithm::GpuOnly,
        _ => Algorithm::CpuOnly,
    };
    for name in PresetName::all() {
        let d = r.data(name);
        let fixed_secs = d.run(fixed, &d.rig).virtual_secs;
        let (mut rows, mut swept_secs) = (Vec::new(), Vec::new());
        for &v in s.values {
            let mut cfg = d.rig.clone();
            (s.set)(&mut cfg, v);
            let secs = d.run(s.swept, &cfg).virtual_secs;
            let star = d.run(Algorithm::HsgdStar, &cfg);
            let (cpu, gpu, hetero) = match fixed {
                Algorithm::CpuOnly => (fixed_secs, secs, star.virtual_secs),
                _ => (secs, fixed_secs, star.virtual_secs),
            };
            rows.push(vec![
                v.to_string(),
                fmt_secs(cpu),
                fmt_secs(gpu),
                fmt_secs(hetero),
                format!("{:.2}", star.alpha_planned.unwrap_or(0.0)),
            ]);
            swept_secs.push(secs);
            if v == s.default && name != PresetName::MovieLens {
                let [h, c, g] = [hetero, cpu, gpu].map(fmt_secs);
                let detail = format!("{}: {h} vs {c} / {g}", name.label());
                let claim = "at the default rig HSGD* beats CPU-Only and GPU-Only";
                r.claim(hetero < cpu && hetero < gpu, claim, detail);
            }
        }
        let (fig, held, scale) = (s.fig, &s.held, d.scale);
        print_table(
            &format!(
                "{fig} — {} (scale 1/{scale}, {ITERS} iters, {held}): time vs {axis}",
                d.preset.generator.name
            ),
            &[header, "CPU-Only", "GPU-Only", "HSGD*", "alpha"],
            &rows,
        );
        let path: Vec<String> = swept_secs.iter().map(|&t| fmt_secs(t)).collect();
        let falls = swept_secs.windows(2).all(|w| w[1] < w[0]);
        let claim = format!("{} time falls strictly with {header}", s.swept.label());
        let detail = format!("{}: {}", name.label(), path.join(" → "));
        r.claim(falls, &claim, detail);
    }
}

/// Figure 10 — running time while varying GPU parallel workers (32–512):
/// CPU-Only is flat, GPU-Only overtakes it as workers grow, HSGD\* is
/// fastest.
fn fig10(r: &mut Repro) {
    let sweep = Sweep {
        fig: "Fig. 10",
        knob: ("workers", "GPU workers"),
        values: &[32, 64, 128, 256, 512],
        default: WORKERS as usize,
        set: |cfg, w| cfg.gpu = cfg.gpu.with_workers(w as u32),
        held: format!("nc={NC}"),
        swept: Algorithm::GpuOnly,
    };
    time_sweep(r, sweep);
}

/// Figure 11 — running time while varying CPU threads (4–16) with GPU
/// workers at the default: GPU-Only is flat, CPU-Only improves with
/// threads, HSGD\* is fastest.
fn fig11(r: &mut Repro) {
    let sweep = Sweep {
        fig: "Fig. 11",
        knob: ("threads", "CPU threads"),
        values: &[4, 8, 12, 16],
        default: NC,
        set: |cfg, nc| cfg.nc = nc,
        held: format!("{WORKERS} GPU workers"),
        swept: Algorithm::CpuOnly,
    };
    time_sweep(r, sweep);
}

/// Prints `(time, rmse)` series side by side on a common row index,
/// blank cells where a series has ended, under `title` and a `t(s)` and
/// `rmse` column per series label.
fn print_rmse_series(title: &str, labels: &[&str], series: &[&[(f64, f64)]]) {
    let headers: Vec<String> = labels
        .iter()
        .flat_map(|l| [format!("{l} t(s)"), format!("{l} rmse")])
        .collect();
    let cells = |point: Option<&(f64, f64)>| match point {
        Some(&(t, r)) => [format!("{t:.4}"), format!("{r:.4}")],
        None => [String::new(), String::new()],
    };
    let len = series.iter().map(|s| s.len()).max().unwrap_or(0);
    let row = |i| series.iter().flat_map(|s| cells(s.get(i))).collect();
    let rows: Vec<Vec<String>> = (0..len).map(row).collect();
    let headers: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(title, &headers, &rows);
}

/// Figure 12 — test RMSE over training time for CPU-Only, GPU-Only and
/// HSGD\*: all three converge towards the same floor, HSGD\* fastest
/// because it finishes each pass sooner.
fn fig12(r: &mut Repro) {
    for name in PresetName::all() {
        let d = r.data(name);
        let [c, g, h] = [Algorithm::CpuOnly, Algorithm::GpuOnly, Algorithm::HsgdStar]
            .map(|alg| d.run(alg, &d.rig).rmse_series);
        let (scale, dataset) = (d.scale, &d.preset.generator.name);
        print_rmse_series(
            &format!("Fig. 12 — {dataset} (scale 1/{scale}): test RMSE over virtual training time"),
            &["cpu", "gpu", "hsgd*"],
            &[&c, &g, &h],
        );
        println!("noise floor ≈ {:.3}", d.preset.generator.noise_std);
    }
}

/// Figure 13 — test RMSE over training time, HSGD vs HSGD\*: the payoff
/// of the nonuniform division. HSGD's uniform blocks keep the GPU below
/// saturation and skew the update counts (Example 3).
fn fig13(r: &mut Repro) {
    for name in PresetName::all() {
        let d = r.data(name);
        let hsgd = d.run(Algorithm::Hsgd, &d.rig);
        let star = d.run(Algorithm::HsgdStar, &d.rig);
        let (scale, dataset) = (d.scale, &d.preset.generator.name);
        print_rmse_series(
            &format!("Fig. 13 — {dataset} (scale 1/{scale}): HSGD vs HSGD* RMSE over time"),
            &["hsgd", "hsgd*"],
            &[&hsgd.rmse_series, &star.rmse_series],
        );
        println!(
            "update-count cv: HSGD {:.3} vs HSGD* {:.3}; total time: HSGD {:.4}s vs HSGD* {:.4}s",
            hsgd.imbalance().cv,
            star.imbalance().cv,
            hsgd.virtual_secs,
            star.virtual_secs
        );
        claim_level_counts(r, name, &hsgd, &star);
    }
}

/// Ablation — HSGD\* with 1–4 GPUs on the largest dataset (paper
/// Example 5 generalized). Not a paper table (their testbed had one
/// GPU); it exercises the `n_g > 1` branches of the layout: per-GPU row
/// groups and `⌈(nc+ng)/ng⌉` sub-rows.
fn ablation(r: &mut Repro) {
    let name = PresetName::YahooMusic;
    let d = r.data(name);
    let mut rows = Vec::new();
    for ng in 1..=4usize {
        let mut cfg = d.rig.clone();
        cfg.ng = ng;
        let out = d.run(Algorithm::HsgdStar, &cfg);
        rows.push(vec![
            ng.to_string(),
            fmt_secs(out.virtual_secs),
            format!("{:.2}", out.alpha_planned.unwrap_or(0.0)),
            format!("{:.3}", out.final_test_rmse),
        ]);
    }
    print_table(
        &format!("Ablation — HSGD* scaling with GPU count ({})", name.label()),
        &["ng", "time", "alpha", "final rmse"],
        &rows,
    );
}

/// Prints an aligned text table: a header row plus data rows.
fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<&str>| {
        let padded = cells.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}"));
        println!("{}", padded.collect::<Vec<_>>().join("  "));
    };
    line(headers.to_vec());
    let rule = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("{}", "-".repeat(rule));
    for row in rows {
        line(row.iter().map(String::as_str).collect());
    }
}

/// Prints an `(x, y)` series as two aligned columns.
fn print_series(title: &str, x_label: &str, y_label: &str, series: &[(f64, f64)]) {
    println!("\n-- {title} --");
    println!("{x_label:>14}  {y_label:>14}");
    for &(x, y) in series {
        println!("{x:>14.6}  {y:>14.6}");
    }
}

/// Formats seconds compactly.
fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.3}ms", s * 1e3)
    } else {
        format!("{:.1}µs", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scales_keep_item_dimension_sane() {
        for name in PresetName::all() {
            let scale = scale_for(name, false);
            let p = preset(name, scale, 0);
            let cols = (NC + 2 * NG + 1) as u32;
            assert!(
                p.generator.num_items >= 8 * cols,
                "{name:?} at scale {scale}: n = {} too small for {cols} column bands",
                p.generator.num_items
            );
        }
    }

    #[test]
    fn rig_is_the_paper_default_scaled_with_the_data() {
        let p = preset(PresetName::MovieLens, 100, SEED);
        let cfg = rig(&p, 100);
        assert_eq!(cfg.hyper.k, K);
        assert_eq!(cfg.gpu.parallel_workers, WORKERS);
        assert_eq!((cfg.nc, cfg.ng, cfg.iterations), (NC, NG, ITERS));
        assert_eq!(cfg.hyper.gamma, p.gamma);
        let full = GpuSpec::quadro_p4000().kernel_half_size;
        assert_eq!(cfg.gpu.kernel_half_size, full / 100.0);
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(2.5), "2.500s");
        assert_eq!(fmt_secs(0.0025), "2.500ms");
        assert_eq!(fmt_secs(2.5e-6), "2.5µs");
    }
}
