//! # benchmark — one end-to-end ruler for hsgd-star
//!
//! Six named workloads drive the workspace through its public functions
//! only, generate every input from `--seed`, check every output, and
//! print every metric by name with its unit. End-to-end metrics come
//! from an untraced pass; `--trace 1` adds a traced pass whose spans —
//! recorded here, around the calls into each layer — give the per-layer
//! metrics, plus the isolated replays that cannot be timed inside a live
//! call. See `README.md` beside this crate for the workloads, the
//! metric tables and the reference numbers.
//!
//! ```text
//! benchmark --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
//!           [--size full|smoke] [--out FILE]
//! ```
//!
//! The last stdout line of each workload is one JSON object with exactly
//! the keys `correct`, `attempted`, `failed`, `metrics`. The process
//! exits non-zero when any check failed.

mod json;
mod live;
mod machine;
mod metrics;
mod serve;
mod sim;
mod stats;
mod trace;
mod train;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use metrics::{Report, WORKLOADS};
use trace::Tracer;
use workload::{Opts, Size};

/// Seconds one measuring pass runs when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 10.0;

const USAGE: &str = "usage: benchmark --workload NAME|all [--seed N] [--seconds S] \
[--trace 0|1] [--size full|smoke] [--out FILE]";

struct Cli {
    workload: String,
    opts: Opts,
    out: Option<PathBuf>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: "all".into(),
        opts: Opts {
            seed: 1,
            seconds: DEFAULT_SECONDS,
            trace: false,
            size: Size::Full,
        },
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => cli.workload = value.clone(),
            "--seed" => cli.opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cli.opts.seconds = value.parse().map_err(|_| bad())?;
                if !(cli.opts.seconds >= 0.0 && cli.opts.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cli.opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--size" => {
                cli.opts.size = match value.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    _ => return Err(bad()),
                }
            }
            "--out" => cli.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if cli.workload != "all" && !WORKLOADS.contains(&cli.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; one of {WORKLOADS:?} or all",
            cli.workload
        ));
    }
    Ok(cli)
}

fn run_one(name: &str, opts: &Opts) -> (Report, Option<Tracer>) {
    match name {
        "train_ram" => workload::run(&train::TrainRam, opts),
        "train_spill" => workload::run(&train::TrainSpill, opts),
        "serve_zipf" => workload::run(&serve::Serve::zipf(), opts),
        "serve_uniform" => workload::run(&serve::Serve::uniform(), opts),
        "live_loop" => workload::run(&live::LiveLoop, opts),
        "sim_paper" => workload::run(&sim::SimPaper, opts),
        other => unreachable!("workload {other} was validated by parse_cli"),
    }
}

/// The commit the binary was built from, when the build ran inside a
/// git checkout (the driver's checkout is not one).
fn commit() -> String {
    std::fs::read_to_string(".git/HEAD")
        .ok()
        .and_then(|head| match head.trim().strip_prefix("ref: ") {
            Some(r) => std::fs::read_to_string(format!(".git/{r}")).ok(),
            None => Some(head),
        })
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = machine::host();
    println!(
        "# hsgd-star benchmark: commit {} host {} seed {} seconds {} trace {} size {:?}",
        commit(),
        host.fingerprint(),
        cli.opts.seed,
        cli.opts.seconds,
        u8::from(cli.opts.trace),
        cli.opts.size
    );

    let names: Vec<&str> = if cli.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![cli.workload.as_str()]
    };
    let mut all_correct = true;
    let mut out_workloads = Vec::new();
    let mut out_events = Vec::new();
    for (pid, name) in names.into_iter().enumerate() {
        let (mut report, tracer) = run_one(name, &cli.opts);
        let result = report.result_json(cli.opts.trace);
        println!("## workload {name}");
        for note in &report.notes {
            println!("# {note}");
        }
        for line in report.lines() {
            println!("{line}");
        }
        println!(
            "ops_attempted = {} ops_failed = {}",
            report.attempted, report.failed
        );
        for p in &report.problems {
            println!("CHECK FAILED: {p}");
        }
        if let Some(tr) = &tracer {
            println!("# spans: name count total_s self_s");
            for (span, t) in tr.totals() {
                println!(
                    "# span {span} {} {:.6} {:.6}",
                    t.count, t.total_secs, t.self_secs
                );
            }
            out_events.extend(tr.chrome_events(pid as u64 + 1));
        }
        all_correct &= report.correct();
        out_workloads.push((name.to_string(), report.full_json()));
        println!("{result}");
    }

    if let Some(path) = &cli.out {
        let doc = Json::obj([
            ("commit", Json::str(commit())),
            ("host", Json::str(host.fingerprint())),
            ("seed", Json::Int(cli.opts.seed)),
            ("seconds", Json::Num(cli.opts.seconds)),
            ("workloads", Json::Obj(out_workloads)),
        ]);
        let trace_path = path.with_extension("trace.json");
        let written = std::fs::write(path, format!("{doc}\n")).and_then(|()| {
            if out_events.is_empty() {
                return Ok(());
            }
            let doc = Json::obj([("traceEvents", Json::Arr(out_events))]);
            std::fs::write(&trace_path, format!("{doc}\n"))
        });
        if let Err(e) = written {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
