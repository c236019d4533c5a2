//! Absolute pins of both execution worlds under faults and latency.
//!
//! The corpus and seed tests check invariants only: a refactor of how
//! the DES applies health, latency or drains could change *when* and
//! *how much* work each world does and still pass them. These pins fix,
//! for every scheduler script in `tests/fuzz_corpus/` and every pinned
//! seed of `adversarial.rs`, each world's passes, steals, early-end flag
//! and the bits of its final RMSE.
//!
//! Each row has two values, keyed by whether the process dispatches the
//! scalar-level kernels (`MF_SIMD=scalar`, non-x86) or a fused one, as
//! in the workspace's `tests/golden_bits.rs`. A value is
//! `"passes steals ended_early rmse_bits"` per world.

use std::path::Path;

use mf_fuzz::{run, Clock, Options, RunStats, Script, Stats, Subject};
use mf_sgd::simd::{self, SimdLevel};

/// Must match `PINNED_SEEDS` in `adversarial.rs`.
const PINNED_SEEDS: [u64; 8] = [0, 1, 2, 3, 5, 8, 13, 21];

/// `(script, [virtual, threaded] scalar, [virtual, threaded] fused)`.
type Row = (&'static str, [&'static str; 2], [&'static str; 2]);

const PINS: &[Row] = &[
    (
        "fail_gpu_drain_star.fz",
        ["90 0 false 3fe6ebd2716f3672", "87 9 true 3fe676ac958d5930"],
        ["90 0 false 3fe6ebd279077b55", "87 9 true 3fe676ac97593e63"],
    ),
    (
        "freeze_recover_star.fz",
        [
            "90 10 false 3fe51d1e2640d436",
            "90 9 false 3fe517c5895f52ed",
        ],
        [
            "90 10 false 3fe51d1e1591f03e",
            "90 9 false 3fe517c588bb0316",
        ],
    ),
    (
        "lie_reconverge_star.fz",
        [
            "135 48 false 3fe691311a86163e",
            "135 13 false 3fe680acfef7c1b8",
        ],
        [
            "135 48 false 3fe69131149e6b73",
            "135 13 false 3fe680acfad674c4",
        ],
    ),
    (
        "uniform_slow_cpu.fz",
        ["48 0 false 3fe6810dd83d607e", "48 0 false 3fe6ed0b150f93d5"],
        ["48 0 false 3fe6810dc9c77032", "48 0 false 3fe6ed0b1136e83a"],
    ),
    (
        "seed 0",
        ["72 0 false 3fe4f807efd5b7c9", "72 0 false 3fe52db94436e813"],
        ["72 0 false 3fe4f807e9c10e37", "72 0 false 3fe52db945ee4f9c"],
    ),
    (
        "seed 1",
        ["48 0 false 3fe3f26ab129c549", "48 0 false 3fe3efd10542f32a"],
        ["48 0 false 3fe3f26aafb738f4", "48 0 false 3fe3efd0fd9d50ae"],
    ),
    (
        "seed 2",
        [
            "100 0 false 3fe2b978c0244e16",
            "100 0 false 3fe2afb75f2d6bc9",
        ],
        [
            "100 0 false 3fe2b978bfe4361a",
            "100 0 false 3fe2afb75d8a10da",
        ],
    ),
    (
        "seed 3",
        [
            "216 37 false 3fe523c15e13df03",
            "216 19 false 3fe5009f531d08ca",
        ],
        [
            "216 37 false 3fe523c159128ed8",
            "216 19 false 3fe5009f536c591d",
        ],
    ),
    (
        "seed 5",
        ["54 0 false 3fe53c935c2cc21b", "54 0 false 3fe510486f628469"],
        ["54 0 false 3fe53c9356ec34a9", "54 0 false 3fe510486d4b4947"],
    ),
    (
        "seed 8",
        [
            "72 13 false 3fe487ab3c1f95f5",
            "72 7 false 3fe563f298f57593",
        ],
        [
            "72 13 false 3fe487ab40ba464d",
            "72 7 false 3fe563f29b3b9c98",
        ],
    ),
    (
        "seed 13",
        [
            "288 5 false 3fe52077916bb3c8",
            "268 0 true 3fe56b1def9de57e",
        ],
        [
            "288 5 false 3fe520778f3c0e2b",
            "268 0 true 3fe56b1df5adf115",
        ],
    ),
    (
        "seed 21",
        ["48 0 false 3fe9dc24684bcdf1", "48 0 false 3fe9bf0ae02730d3"],
        ["48 0 false 3fe9dc246a838207", "48 0 false 3fe9bf0adb875cc2"],
    ),
];

fn line(s: &RunStats) -> String {
    format!(
        "{} {} {} {:016x}",
        s.passes,
        s.steals,
        s.ended_early,
        s.final_rmse.to_bits()
    )
}

fn observe(name: &str, script: &Script) -> (String, [String; 2]) {
    match run(script, Options::default()) {
        Ok(Stats::Scheduler(virt, threaded)) => (name.to_string(), [line(&virt), line(&threaded)]),
        Ok(other) => panic!("{name}: not a scheduler run: {other:?}"),
        Err(f) => panic!("{name}: failed its harness:\n{f}"),
    }
}

fn scripts() -> Vec<(String, Script)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fuzz_corpus");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("corpus dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "fz"))
        .collect();
    paths.sort();
    let mut out = Vec::new();
    for path in paths {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let script: Script = std::fs::read_to_string(&path)
            .unwrap()
            .parse()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        if matches!(script.subject, Subject::Scheduler(_)) {
            out.push((name, script));
        }
    }
    for seed in PINNED_SEEDS {
        out.push((
            format!("seed {seed}"),
            Script::generate(seed, Clock::Passes),
        ));
    }
    out
}

#[test]
fn both_worlds_are_pinned_under_every_scheduler_script() {
    let fused = simd::level() != SimdLevel::Scalar;
    let got: Vec<(String, [String; 2])> = scripts()
        .iter()
        .map(|(name, script)| observe(name, script))
        .collect();
    let table: String = got
        .iter()
        .map(|(n, [v, t])| format!("    ({n:?}, [{v:?}, {t:?}]),\n"))
        .collect();
    assert_eq!(
        got.len(),
        PINS.len(),
        "pin table out of date; this build (fused = {fused}) reads:\n{table}"
    );
    for ((name, [v, t]), (pin_name, scalar, fused_pin)) in got.iter().zip(PINS) {
        let want = if fused { fused_pin } else { scalar };
        assert_eq!(name, pin_name, "script order changed:\n{table}");
        assert_eq!(v, want[0], "{name}: virtual world moved:\n{table}");
        assert_eq!(t, want[1], "{name}: threaded world moved:\n{table}");
    }
}
