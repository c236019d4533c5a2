//! # mf-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (Sec. VII); see
//! the README's "Reproducing the paper's figures and tables" section for
//! the index. All binaries share the conventions here:
//!
//! * Datasets are the Table I synthetic stand-ins at `1/scale` size, with
//!   the virtual devices' knees and latencies scaled by the same factor so
//!   block sizes land on the same region of every performance curve as a
//!   full-scale run (see `GpuSpec::scaled_down`).
//! * Default scales per dataset keep the item dimension comfortably above
//!   the grid's column-band count; `--scale` overrides all of them.
//! * Output is aligned plain text — the same rows/series the paper plots.
//!
//! Common flags: `--scale N`, `--k N`, `--iters N`, `--seed N`, `--nc N`,
//! `--ng N`, `--workers N`, `--quick` (tiny sizes for smoke tests).

use hsgd_core::{CpuSpec, HeteroConfig};
use mf_data::{preset, Dataset, DatasetPreset, PresetName};
use mf_sgd::{HyperParams, LearningRate};

/// Parsed command-line options shared by the experiment binaries.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Override the per-dataset default scale.
    pub scale: Option<u64>,
    /// Latent dimension (default 16; the paper uses 128 — larger `k`
    /// changes wall-clock cost, not the scheduling behaviour under study).
    pub k: usize,
    /// Training iterations (default 20, matching Table II's protocol).
    pub iterations: u32,
    /// Master seed.
    pub seed: u64,
    /// CPU worker threads (paper default 16).
    pub nc: usize,
    /// Whether `--nc` was passed explicitly (vs the default): lets
    /// binaries that would otherwise auto-size real-thread runs honor an
    /// explicit request even when it equals the default.
    pub nc_from_cli: bool,
    /// GPU count (paper default 1).
    pub ng: usize,
    /// GPU parallel workers (paper default 128).
    pub workers: u32,
    /// Shrink everything for a fast smoke run.
    pub quick: bool,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            scale: None,
            k: 16,
            iterations: 20,
            seed: 42,
            nc: 16,
            nc_from_cli: false,
            ng: 1,
            workers: 128,
            quick: false,
        }
    }
}

impl BenchArgs {
    /// Parses `std::env::args`, panicking with a usage message on bad
    /// input (these are experiment drivers, not user-facing tools).
    pub fn parse() -> BenchArgs {
        let mut out = BenchArgs::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            let mut take = |out: &mut String| {
                i += 1;
                *out = args
                    .get(i)
                    .unwrap_or_else(|| panic!("flag {flag} needs a value"))
                    .clone();
            };
            let mut value = String::new();
            match flag {
                "--scale" => {
                    take(&mut value);
                    out.scale = Some(value.parse().expect("--scale: integer"));
                }
                "--k" => {
                    take(&mut value);
                    out.k = value.parse().expect("--k: integer");
                }
                "--iters" => {
                    take(&mut value);
                    out.iterations = value.parse().expect("--iters: integer");
                }
                "--seed" => {
                    take(&mut value);
                    out.seed = value.parse().expect("--seed: integer");
                }
                "--nc" => {
                    take(&mut value);
                    out.nc = value.parse().expect("--nc: integer");
                    out.nc_from_cli = true;
                }
                "--ng" => {
                    take(&mut value);
                    out.ng = value.parse().expect("--ng: integer");
                }
                "--workers" => {
                    take(&mut value);
                    out.workers = value.parse().expect("--workers: integer");
                }
                "--quick" => out.quick = true,
                "--help" | "-h" => {
                    println!(
                        "flags: --scale N --k N --iters N --seed N --nc N --ng N --workers N --quick"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag {other}"),
            }
            i += 1;
        }
        out
    }

    /// The default dataset scale for a preset: small enough to run in
    /// seconds, large enough that the item dimension dwarfs the grid's
    /// column bands.
    pub fn scale_for(&self, name: PresetName) -> u64 {
        if let Some(s) = self.scale {
            return s;
        }
        let base = match name {
            PresetName::MovieLens => 100,
            PresetName::Netflix => 50,
            PresetName::R1 => 100,
            PresetName::YahooMusic => 100,
        };
        if self.quick {
            base * 10
        } else {
            base
        }
    }

    /// Builds the preset and its dataset at this run's scale.
    pub fn dataset(&self, name: PresetName) -> (DatasetPreset, Dataset) {
        let p = preset(name, self.scale_for(name), self.seed);
        let ds = p.build();
        (p, ds)
    }

    /// The heterogeneous rig matching these args for a dataset at `scale`:
    /// device knees and latencies scaled with the data.
    pub fn rig(&self, p: &DatasetPreset, scale: u64) -> HeteroConfig {
        HeteroConfig {
            hyper: HyperParams {
                k: self.k,
                lambda_p: p.lambda_p,
                lambda_q: p.lambda_q,
                gamma: p.gamma,
                schedule: LearningRate::Fixed,
            },
            nc: self.nc,
            ng: self.ng,
            gpu: gpu_sim::GpuSpec::quadro_p4000()
                .with_workers(self.workers)
                .scaled_down(scale as f64),
            cpu: CpuSpec::default().scaled_down(scale as f64),
            iterations: self.iterations,
            seed: self.seed,
            dynamic_scheduling: true,
            cost_model: hsgd_core::CostModelKind::Tailored,
            probe_interval_secs: None,
            target_rmse: None,
        }
    }
}

/// Prints an aligned text table: a header row plus data rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    println!("{}", fmt_row(&head));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Prints an `(x, y)` series as two aligned columns.
pub fn print_series(title: &str, x_label: &str, y_label: &str, series: &[(f64, f64)]) {
    println!("\n-- {title} --");
    println!("{:>14}  {:>14}", x_label, y_label);
    for &(x, y) in series {
        println!("{:>14.6}  {:>14.6}", x, y);
    }
}

/// Formats seconds compactly.
pub fn fmt_secs(s: f64) -> String {
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
        let args = BenchArgs::default();
        for name in PresetName::all() {
            let scale = args.scale_for(name);
            let p = preset(name, scale, 0);
            let cols = (args.nc + 2 * args.ng + 1) as u32;
            assert!(
                p.generator.num_items >= 8 * cols,
                "{name:?} at scale {scale}: n = {} too small for {cols} column bands",
                p.generator.num_items
            );
        }
    }

    #[test]
    fn rig_matches_args() {
        let args = BenchArgs {
            k: 8,
            workers: 256,
            nc: 4,
            ..Default::default()
        };
        let (p, _) = args.dataset(PresetName::MovieLens);
        let cfg = args.rig(&p, 100);
        assert_eq!(cfg.hyper.k, 8);
        assert_eq!(cfg.gpu.parallel_workers, 256);
        assert_eq!(cfg.nc, 4);
        assert_eq!(cfg.hyper.gamma, p.gamma);
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(2.5), "2.500s");
        assert_eq!(fmt_secs(0.0025), "2.500ms");
        assert_eq!(fmt_secs(2.5e-6), "2.5µs");
    }
}
