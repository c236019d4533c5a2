//! `fuzz_smoke` — the CI adversarial gate for schedulers *and* the
//! durable lifecycle.
//!
//! Three passes, exit 1 if any finds a violation:
//!
//! 1. **Corpus replay** — every committed script in `tests/fuzz_corpus/`
//!    replays against its subject: scheduler scripts through *both*
//!    execution worlds (virtual-time DES and real-thread exclusive),
//!    lifecycle and arena scripts through their storage harnesses. These
//!    are shrunk regressions; they must stay green forever.
//! 2. **Fresh scheduler seeds** — `FUZZ_SMOKE_SEEDS` (default 50) newly
//!    generated completed-pass-clock scenarios, base seed from
//!    `FUZZ_SEED_BASE` or the wall clock. A failing seed is printed
//!    together with its shrunk minimal script and a copy-pastable repro
//!    command, so the triage loop is: paste the script into a `.fz` file,
//!    commit it to the corpus, fix.
//! 3. **Fresh IO seeds** — `FUZZ_SMOKE_IO_SEEDS` (default 25) generated
//!    bytes-written-clock scenarios (lifecycle or arena) from the same
//!    base, same shrink-and-print triage on failure.
//!
//! The base seed is printed, so any run can be replayed.

use mf_fuzz::{replay_corpus, run, shrink, Clock, Options, Script, Stats, World};

/// Replays the committed corpus. Returns the number of failures.
fn replay() -> usize {
    let mut failures = 0;
    let replayed = replay_corpus(|name, outcome| match outcome {
        Ok(Stats::Scheduler(virt, threaded)) => {
            for (world, s) in [(World::Virtual, virt), (World::ThreadedExclusive, threaded)] {
                println!(
                    "corpus {name} [{}]: ok ({} passes, {} steals)",
                    world.label(),
                    s.passes,
                    s.steals
                );
            }
        }
        Ok(stats) => println!("corpus {name} [io]: ok ({stats})"),
        Err(f) => {
            eprintln!("corpus {name}: FAILED\n{f}");
            failures += 1;
        }
    });
    if let Err(e) = replayed {
        eprintln!("fuzz_smoke: {e}");
        failures += 1;
    }
    failures
}

/// Run `count` freshly generated scenarios on `clock` starting at
/// `base` (the two clocks' generators salt differently, so their
/// streams are distinct). On failure, shrink and print everything needed
/// to reproduce. Returns the number of failing seeds.
fn fresh_seeds(clock: Clock, base: u64, count: u64) -> usize {
    let (label, counts) = match clock {
        Clock::Passes => ("seed", "FUZZ_SMOKE_SEEDS=1 FUZZ_SMOKE_IO_SEEDS=0"),
        Clock::Bytes => ("io seed", "FUZZ_SMOKE_SEEDS=0 FUZZ_SMOKE_IO_SEEDS=1"),
    };
    let mut failures = 0;
    for seed in base..base + count {
        let script = Script::generate(seed, clock);
        match run(&script, Options::default()) {
            Ok(stats) => println!("{label} {seed}: ok ({stats})"),
            Err(f) => {
                failures += 1;
                let minimal = shrink(&script, |cand| run(cand, Options::default()).is_err());
                eprintln!("{label} {seed}: FAILED\n{f}");
                eprintln!("shrunk minimal script (save as tests/fuzz_corpus/<name>.fz):");
                eprintln!("{minimal}");
                eprintln!(
                    "repro: FUZZ_SEED_BASE={seed} {counts} \
                     cargo run --release -p mf-fuzz --bin fuzz_smoke"
                );
            }
        }
    }
    failures
}

/// The numeric environment knob `name`, if set and parseable.
fn knob(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|s| s.parse().ok())
}

fn main() {
    let base = knob("FUZZ_SEED_BASE").unwrap_or_else(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0)
    });
    let count = knob("FUZZ_SMOKE_SEEDS").unwrap_or(50);
    let io_count = knob("FUZZ_SMOKE_IO_SEEDS").unwrap_or(25);

    println!(
        "fuzz_smoke: corpus replay + {count} fresh scheduler seeds \
         + {io_count} fresh io seeds from base {base}"
    );
    let mut failures = replay();
    failures += fresh_seeds(Clock::Passes, base, count);
    failures += fresh_seeds(Clock::Bytes, base, io_count);

    if failures > 0 {
        eprintln!("fuzz_smoke: {failures} failure(s) — base seed was {base}");
        std::process::exit(1);
    }
    println!("fuzz_smoke: all green (base seed {base})");
}
