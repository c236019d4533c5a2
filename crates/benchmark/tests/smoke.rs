//! Runs every workload at the `--size smoke` preset — same code paths,
//! same checks, toy inputs — and holds the binary's vocabulary to the
//! one `BENCHMARK.json` declares.

use std::collections::BTreeSet;
use std::process::Command;

const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

/// Every `"name": "<x>"` inside the array that follows `"<section>":`.
fn declared(section: &str) -> Vec<String> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{section}\":"))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &BENCHMARK_JSON[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("closing quote")].to_string())
        .collect()
}

/// One workload's section of a `--workload all` run.
struct Section {
    workload: String,
    /// The result line: the section's last line.
    result: String,
}

impl Section {
    /// Keys of the result's `metrics` object with their values.
    fn metrics(&self) -> Vec<(String, f64)> {
        let body = &self.result[self.result.find("\"metrics\": {").expect("metrics key") + 12..];
        body.split("\": {\"value\": ")
            .collect::<Vec<_>>()
            .windows(2)
            .map(|w| {
                let name = &w[0][w[0].rfind('"').expect("opening quote") + 1..];
                let value = &w[1][..w[1].find(',').expect("value ends at a comma")];
                (
                    name.to_string(),
                    value
                        .parse()
                        .unwrap_or_else(|_| panic!("{name}: {value} is not a number")),
                )
            })
            .collect()
    }
}

fn run_all(trace: &str) -> Vec<Section> {
    // Each run gets its own scratch root outside the repo (tests run in
    // parallel and must not share files).
    let scratch =
        std::env::temp_dir().join(format!("mf_benchmark_smoke_{}_{trace}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", "all", "--size", "smoke", "--seconds", "0.05"])
        .args(["--seed", "7", "--trace", trace])
        .env("MF_SPILL_DIR", &scratch)
        .output()
        .expect("spawn the benchmark");
    let _ = std::fs::remove_dir_all(&scratch);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "benchmark failed ({}):\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let mut sections: Vec<Section> = Vec::new();
    for line in stdout.lines() {
        if let Some(name) = line.strip_prefix("## workload ") {
            sections.push(Section {
                workload: name.to_string(),
                result: String::new(),
            });
        } else if let Some(s) = sections.last_mut() {
            s.result = line.to_string();
        }
    }
    sections
}

fn check_run(trace: &str, section: &str, required_nonzero: bool) {
    let sections = run_all(trace);
    let ran: Vec<String> = sections.iter().map(|s| s.workload.clone()).collect();
    assert_eq!(ran, declared("workloads"), "workload names and order");
    let want: BTreeSet<String> = declared(section).into_iter().collect();
    for s in &sections {
        assert!(
            s.result.starts_with("{\"correct\": true, \"attempted\": ")
                && s.result.contains("\"failed\": 0, \"metrics\": {"),
            "{}: bad result line {}",
            s.workload,
            s.result
        );
        let metrics = s.metrics();
        let got: BTreeSet<String> = metrics.iter().map(|(n, _)| n.clone()).collect();
        assert_eq!(
            got, want,
            "{}: metric names under --trace {trace}",
            s.workload
        );
        assert_eq!(
            metrics.len(),
            want.len(),
            "{}: duplicate metric",
            s.workload
        );
        for (name, value) in &metrics {
            assert!(value.is_finite(), "{}: {name} = {value}", s.workload);
            assert!(
                !required_nonzero || *value > 0.0,
                "{}: end-to-end metric {name} = {value}",
                s.workload
            );
        }
    }
}

#[test]
fn untraced_runs_emit_exactly_the_declared_end_to_end_metrics() {
    check_run("0", "end_to_end", true);
}

#[test]
fn traced_runs_emit_exactly_the_declared_per_layer_metrics() {
    check_run("1", "per_layer", false);
}

#[test]
fn declared_names_are_well_formed_and_within_the_caps() {
    let (w, e, p) = (
        declared("workloads"),
        declared("end_to_end"),
        declared("per_layer"),
    );
    assert!((2..=8).contains(&w.len()), "{} workloads", w.len());
    assert!(
        (1..=16).contains(&e.len()),
        "{} end-to-end metrics",
        e.len()
    );
    assert!(
        (1..=128).contains(&p.len()),
        "{} per-layer metrics",
        p.len()
    );
    assert!(e.contains(&"setup_s".to_string()));
    let mut seen = BTreeSet::new();
    for name in w.iter().chain(&e).chain(&p) {
        assert!(seen.insert(name), "{name} is used twice");
        assert!(
            !name.is_empty()
                && name.len() <= 64
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                && name.starts_with(|c: char| c.is_ascii_alphanumeric()),
            "bad name {name:?}"
        );
    }
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "no_such_workload"][..],
        &["--trace", "2"],
        &["--seed"],
        &["--frobnicate", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args(args)
            .output()
            .expect("spawn the benchmark");
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
