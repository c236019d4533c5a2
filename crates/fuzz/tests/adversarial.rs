//! End-to-end adversarial runs: generated seeds and the committed
//! regression corpus, replayed through both execution worlds.

use mf_fuzz::{
    fuzz_seed, run_io_script, run_script, shrink, Event, IoScript, IoSubject, Script, World,
};

/// Pinned seeds exercised in both worlds on every test run. The
/// `fuzz_smoke` bench binary covers a much wider random batch.
const PINNED_SEEDS: [u64; 8] = [0, 1, 2, 3, 5, 8, 13, 21];

#[test]
fn pinned_seeds_hold_invariants_in_both_worlds() {
    for &seed in &PINNED_SEEDS {
        if let Err(f) = fuzz_seed(seed) {
            panic!(
                "seed {seed} violated invariants:\n{f}script:\n{}",
                Script::generate(seed)
            );
        }
    }
}

#[test]
fn fresh_seed_batch_holds_invariants_in_virtual_world() {
    // A wider virtual-only sweep: the DES world is cheap enough to run
    // dozens of hostile scenarios per test invocation.
    for seed in 100..140u64 {
        let script = Script::generate(seed);
        if let Err(f) = run_script(&script, World::Virtual, true) {
            panic!("seed {seed} violated invariants:\n{f}script:\n{script}");
        }
    }
}

/// A scripted mid-run GPU death, timed (pass 38) so the device dies
/// *holding work in flight*. With the drain fix on, the lost task is
/// requeued and the CPU side steals its way to full completion; with
/// the fix reverted the pass silently vanishes — and the run still
/// claims success, which is exactly why the monitor audit exists.
fn gpu_death_script() -> Script {
    let script: Script = "hsgd-fuzz v1\n\
                          seed 4242\n\
                          data users=48 items=48 train=2000 test=200\n\
                          sched star nc=2 ng=1 alpha=0.5 steal_ratio=1.0\n\
                          workers nc=2 ng=1\n\
                          iters 2\n\
                          fail gpu0 at=38\n"
        .parse()
        .expect("valid script");
    assert!(script.has_fail());
    script
}

#[test]
fn gpu_death_with_drain_fix_satisfies_invariants() {
    let script = gpu_death_script();
    match run_script(&script, World::Virtual, true) {
        Err(f) => panic!("drain fix on, but:\n{f}"),
        Ok(stats) => assert!(
            !stats.ended_early,
            "drain fix should let the survivors finish the full schedule: {stats:?}"
        ),
    }
    if let Err(f) = run_script(&script, World::ThreadedExclusive, true) {
        panic!("drain fix on (threaded), but:\n{f}");
    }
}

/// The acceptance-gate negative test: with the drain fix reverted, the
/// same scripted GPU death *must* trip the monitor — the dead device's
/// in-flight tasks vanish instead of being requeued, and the audit
/// reports them as lost. This proves the monitor actually detects the
/// bug class the fix exists for.
#[test]
#[should_panic(expected = "lost in flight")]
fn gpu_death_with_drain_fix_reverted_trips_the_monitor() {
    let script = gpu_death_script();
    match run_script(&script, World::Virtual, false) {
        Ok(stats) => {
            panic!("expected a violation with the drain fix reverted, got a clean run: {stats:?}")
        }
        Err(f) => {
            let joined = f.violations.join("; ");
            panic!("{joined}");
        }
    }
}

#[test]
fn shrinking_reduces_to_the_fatal_event() {
    // Pad the failing script with no-op noise events (factor-1 slowdowns
    // change nothing); the shrinker must strip them all and keep exactly
    // the device death.
    let mut script = gpu_death_script();
    script.events.push(Event::Slow {
        dev: "cpu0".parse().unwrap(),
        at: 3,
        factor: 1.0,
    });
    script.events.push(Event::Freeze {
        dev: "gpu0".parse().unwrap(),
        at: 5,
        passes: 4,
        factor: 1.0,
    });
    script.events.push(Event::Slow {
        dev: "cpu1".parse().unwrap(),
        at: 10,
        factor: 1.0,
    });

    let minimal = shrink(&script, |cand| {
        run_script(cand, World::Virtual, false).is_err()
    });
    assert_eq!(
        minimal.events.len(),
        1,
        "expected only the fail event to survive shrinking, got: {:?}",
        minimal.events
    );
    assert!(
        matches!(minimal.events[0], Event::Fail { .. }),
        "surviving event is not the device death: {:?}",
        minimal.events[0]
    );
}

#[test]
fn corpus_scripts_replay_green_in_both_worlds() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fuzz_corpus");
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("missing corpus dir {}: {e}", dir.display()))
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "fz"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "fuzz corpus is empty");
    let mut io_scripts = 0;
    for path in entries {
        let text = std::fs::read_to_string(&path).expect("readable script");
        // Dispatch on the magic line: storage-lifecycle scripts replay
        // through the fault-injected durability harness, scheduler
        // scripts through both execution worlds.
        if text.lines().next().map(str::trim) == Some(IoScript::MAGIC) {
            let script: IoScript = text
                .parse()
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let stats = run_io_script(&script).unwrap_or_else(|f| {
                panic!("{} failed the durability harness:\n{f}", path.display())
            });
            let exercised = match script.subject {
                IoSubject::Lifecycle => stats.crashed || stats.recovered_epoch.is_some(),
                IoSubject::Arena => stats.crashed || stats.acked_epochs < stats.epochs_run,
            };
            assert!(exercised, "{}: scenario exercised nothing", path.display());
            io_scripts += 1;
            continue;
        }
        let script: Script = text
            .parse()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for world in [World::Virtual, World::ThreadedExclusive] {
            if let Err(f) = run_script(&script, world, true) {
                panic!("{} failed in {} world:\n{f}", path.display(), world.label());
            }
        }
    }
    assert!(
        io_scripts >= 3,
        "expected ≥ 3 committed lifecycle scenarios, found {io_scripts}"
    );
}
