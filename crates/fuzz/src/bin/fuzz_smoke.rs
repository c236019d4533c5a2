//! `fuzz_smoke` — the CI adversarial gate for schedulers *and* the
//! durable lifecycle.
//!
//! Three passes, exit 1 if any finds a violation:
//!
//! 1. **Corpus replay** — every committed script in `tests/fuzz_corpus/`
//!    replays. Scheduler scripts (`hsgd-fuzz v1`) run through *both*
//!    execution worlds (virtual-time DES and real-thread exclusive);
//!    lifecycle scripts (`hsgd-fuzz io v1`) run through the
//!    kill-and-recover harness. These are shrunk regressions; they must
//!    stay green forever.
//! 2. **Fresh scheduler seeds** — `FUZZ_SMOKE_SEEDS` (default 50) newly
//!    generated hostile scenarios, base seed from `FUZZ_SEED_BASE` or
//!    the wall clock. A failing seed is printed together with its
//!    shrunk minimal script and a copy-pastable repro command, so the
//!    triage loop is: paste the script into a `.fz` file, commit it to
//!    the corpus, fix.
//! 3. **Fresh IO seeds** — `FUZZ_SMOKE_IO_SEEDS` (default 25) generated
//!    storage-fault scenarios through the lifecycle harness, same
//!    shrink-and-print triage on failure.
//!
//! Knobs (environment):
//! * `FUZZ_SEED_BASE` — base for both fresh-seed batches (default:
//!   derived from the wall clock, printed so any run can be replayed).
//! * `FUZZ_SMOKE_SEEDS` — fresh scheduler-seed count (default `50`).
//! * `FUZZ_SMOKE_IO_SEEDS` — fresh IO-seed count (default `25`).

use mf_fuzz::{
    fuzz_io_seed, fuzz_seed, run_io_script, run_script, shrink, shrink_io, IoScript, Script, World,
};

fn corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fuzz_corpus")
}

/// Replay every committed `.fz` script in both worlds. Returns the
/// number of failures.
fn replay_corpus() -> usize {
    let dir = corpus_dir();
    let mut paths: Vec<_> = match std::fs::read_dir(&dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "fz"))
            .collect(),
        Err(e) => {
            eprintln!("fuzz_smoke: cannot read corpus dir {}: {e}", dir.display());
            return 1;
        }
    };
    paths.sort();
    if paths.is_empty() {
        eprintln!("fuzz_smoke: corpus dir {} is empty", dir.display());
        return 1;
    }
    let mut failures = 0;
    for path in paths {
        let name = path
            .file_name()
            .unwrap_or_default()
            .to_string_lossy()
            .into_owned();
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("fuzz_smoke: cannot read {name}: {e}");
                failures += 1;
                continue;
            }
        };
        // Dispatch on the magic line: lifecycle scenarios replay
        // through the IO-fault harness, everything else through both
        // scheduler worlds.
        if text.lines().next().map(str::trim) == Some(IoScript::MAGIC) {
            match text.parse::<IoScript>() {
                Ok(script) => match run_io_script(&script) {
                    Ok(stats) => println!(
                        "corpus {name} [io]: ok ({} epochs, {} acked, recovered {:?})",
                        stats.epochs_run, stats.acked_epochs, stats.recovered_epoch
                    ),
                    Err(f) => {
                        eprintln!("corpus {name} [io]: FAILED\n{f}");
                        failures += 1;
                    }
                },
                Err(e) => {
                    eprintln!("fuzz_smoke: {name}: parse error: {e}");
                    failures += 1;
                }
            }
            continue;
        }
        let script: Script = match text.parse() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("fuzz_smoke: {name}: parse error: {e}");
                failures += 1;
                continue;
            }
        };
        for world in [World::Virtual, World::ThreadedExclusive] {
            match run_script(&script, world, true) {
                Ok(stats) => println!(
                    "corpus {name} [{}]: ok ({} passes, {} steals)",
                    world.label(),
                    stats.passes,
                    stats.steals
                ),
                Err(f) => {
                    eprintln!("corpus {name} [{}]: FAILED\n{f}", world.label());
                    failures += 1;
                }
            }
        }
    }
    failures
}

/// Run `count` freshly generated scenarios starting at `base`. On
/// failure, shrink and print everything needed to reproduce. Returns
/// the number of failing seeds.
fn fresh_seeds(base: u64, count: u64) -> usize {
    let mut failures = 0;
    for seed in base..base + count {
        match fuzz_seed(seed) {
            Ok((virt, real)) => println!(
                "seed {seed}: ok (virtual {} passes, threaded {} passes)",
                virt.passes, real.passes
            ),
            Err(f) => {
                failures += 1;
                let script = Script::generate(seed);
                let world = f.world;
                let minimal = shrink(&script, |cand| run_script(cand, world, true).is_err());
                eprintln!("seed {seed}: FAILED in {} world\n{f}", world.label());
                eprintln!("shrunk minimal script (save as tests/fuzz_corpus/<name>.fz):");
                eprintln!("{minimal}");
                eprintln!(
                    "repro: FUZZ_SEED_BASE={seed} FUZZ_SMOKE_SEEDS=1 \
                     cargo run --release -p mf-fuzz --bin fuzz_smoke"
                );
            }
        }
    }
    failures
}

/// Run `count` freshly generated storage-fault scenarios starting at
/// `base` (a distinct stream from the scheduler seeds — the generators
/// salt differently). Returns the number of failing seeds.
fn fresh_io_seeds(base: u64, count: u64) -> usize {
    let mut failures = 0;
    for seed in base..base + count {
        match fuzz_io_seed(seed) {
            Ok(stats) => println!(
                "io seed {seed}: ok ({} epochs, {} acked, recovered {:?})",
                stats.epochs_run, stats.acked_epochs, stats.recovered_epoch
            ),
            Err(f) => {
                failures += 1;
                let script = IoScript::generate(seed);
                let minimal = shrink_io(&script, |cand| run_io_script(cand).is_err());
                eprintln!("io seed {seed}: FAILED\n{f}");
                eprintln!("shrunk minimal script (save as tests/fuzz_corpus/<name>.fz):");
                eprintln!("{minimal}");
                eprintln!(
                    "repro: FUZZ_SEED_BASE={seed} FUZZ_SMOKE_SEEDS=0 FUZZ_SMOKE_IO_SEEDS=1 \
                     cargo run --release -p mf-fuzz --bin fuzz_smoke"
                );
            }
        }
    }
    failures
}

fn main() {
    let base = std::env::var("FUZZ_SEED_BASE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| {
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0)
        });
    let count: u64 = std::env::var("FUZZ_SMOKE_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(50);
    let io_count: u64 = std::env::var("FUZZ_SMOKE_IO_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(25);

    println!(
        "fuzz_smoke: corpus replay + {count} fresh scheduler seeds \
         + {io_count} fresh io seeds from base {base}"
    );
    let mut failures = replay_corpus();
    failures += fresh_seeds(base, count);
    failures += fresh_io_seeds(base, io_count);

    if failures > 0 {
        eprintln!("fuzz_smoke: {failures} failure(s) — base seed was {base}");
        std::process::exit(1);
    }
    println!("fuzz_smoke: all green (base seed {base})");
}
